//! Lambda types (LTY) with global static hash-consing (paper §4.1, §4.5).
//!
//! An [`Lty`] is a stable handle into a process-wide [`LtyArena`]: a
//! sharded, insertion-order-independent concurrent hash-cons store.
//! With hash-consing enabled (the default), structurally equal types
//! share one handle, so the equality test at the head of `coerce` is a
//! constant-time integer comparison — the optimization the paper calls
//! "crucial for the efficient compilation of functor applications"
//! (§4.5). The paper keeps one global static hash table for exactly
//! this reason; the arena is that table, made safe to share across the
//! parallel batch driver's worker threads.
//!
//! # Arena, views, and determinism
//!
//! The arena is split into [`N_SHARDS`] shards. A kind's shard is
//! chosen by a process-stable content hash, and within a shard slots
//! are handed out under the shard lock in first-intern order. A handle
//! packs `(slot, shard)` into one `u32`. Handle *values* therefore
//! depend on which thread happens to intern a type first — but the
//! hash-cons invariant (equal structure ⟺ equal handle, maintained by
//! interning children before parents) holds no matter the schedule,
//! and nothing downstream ever inspects a raw handle value: codegen
//! decisions flow through [`LtyKind`] structure only, and the emitted
//! bytecode carries no `Lty` at all. That is why warm parallel batches
//! are byte-identical to cold serial compiles (see
//! `docs/ARCHITECTURE.md` for the full argument).
//!
//! Compiles do not talk to the arena directly; each owns an
//! [`LtyInterner`] *view*. The view memoizes its own lookups and keeps
//! per-compile counters, so the statistics a compile reports are a
//! pure function of the source being compiled — identical whether the
//! arena was cold or pre-warmed by other compiles, and identical under
//! any thread schedule.
//!
//! The interner can be switched to [`InternMode::Structural`] to
//! reproduce the paper's no-hash-consing compile-time blowup (see the
//! `ablation_hashcons` bench). Structural views are self-contained and
//! single-threaded; they never touch an arena.

use sml_ast::fx::FxHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A hash-consed lambda type: a packed `(slot, shard)` handle into an
/// [`LtyArena`] (or, in [`InternMode::Structural`], a plain index into
/// the view's local table).
///
/// Under hash-consing, handle equality is structural equality — the
/// constant-time test of paper §4.1. Handle values are meaningful only
/// relative to the arena that issued them; they are never serialized
/// and never reach generated code.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Lty(pub u32);

/// The structure of a lambda type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LtyKind {
    /// `INTty`: a tagged 31-bit integer (also chars, bools, unit, and
    /// constant data constructors).
    Int,
    /// `REALty`: an unboxed IEEE double (lives in float registers).
    Real,
    /// `RECORDty [t1, ..., tn]`: a record whose field representations are
    /// known.
    Record(Vec<Lty>),
    /// `ARROWty (t, t')`: a function.
    Arrow(Lty, Lty),
    /// `BOXEDty`: one word — a pointer to an object whose fields may or
    /// may not be boxed, or a tagged integer.
    Boxed,
    /// `RBOXEDty`: one word pointing to a *recursively boxed* object in
    /// the standard boxed representation (the representation non-type-
    /// based compilers use for everything).
    RBoxed,
    /// `SRECORDty`: a structure record (module object).
    SRecord(Vec<Lty>),
    /// `PRECORDty`: a partial view of a structure record — only the
    /// listed `(slot, type)` pairs are known. Used for external
    /// structures under separate compilation (paper §4.5).
    PRecord(Vec<(usize, Lty)>),
    /// The type of expressions that never return (`raise`); compatible
    /// with everything.
    Bottom,
}

/// Whether the interner deduplicates types.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InternMode {
    /// Global static hash-consing through a shared [`LtyArena`]:
    /// equality is handle equality.
    HashCons,
    /// No dedup: every `intern` allocates locally, equality is a deep
    /// structural walk. Only for the ablation experiment; never shared
    /// across threads.
    Structural,
}

/// A point-in-time snapshot of a view's per-compile statistics, cheap
/// to copy out of the pipeline into `CompileStats`-level reporting.
///
/// All fields describe *this view only* — the types and intern calls
/// attributable to one compile — never the shared arena. That makes
/// them deterministic: a compile reports the same numbers whether the
/// arena was cold or warm, serial or eight-way parallel. Arena-wide
/// totals live in [`InternStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LtyStats {
    /// Number of distinct types this view interned (first touches).
    pub interned: usize,
    /// Total `intern` calls through this view.
    pub intern_calls: u64,
    /// Calls that repeated a type this view had already interned.
    pub hashcons_hits: u64,
    /// Calls that touched a type for the first time in this view.
    /// Always equals `interned`.
    pub hashcons_misses: u64,
    /// Deep structural comparisons (structural mode only).
    pub deep_compares: u64,
}

impl LtyStats {
    /// Fraction of `intern` calls served from the view's memo table, in
    /// `[0, 1]`; `0.0` before any call.
    pub fn hit_rate(&self) -> f64 {
        if self.intern_calls == 0 {
            0.0
        } else {
            self.hashcons_hits as f64 / self.intern_calls as f64
        }
    }
}

/// Number of shards in an [`LtyArena`] (a power of two; the low
/// [`SHARD_BITS`] bits of a handle name the shard).
pub const N_SHARDS: usize = 1 << SHARD_BITS as usize;

/// Bits of an [`Lty`] handle that encode the shard index.
const SHARD_BITS: u32 = 4;

/// Largest slot index a handle can carry (`u32` minus the shard bits).
const MAX_SLOT: u32 = u32::MAX >> SHARD_BITS;

/// Capacity of slot chunk 0; chunk `c` holds `CHUNK0_CAP << c` kinds.
const CHUNK0_CAP: u32 = 256;

/// Chunks per shard. Geometric growth means 21 chunks cover
/// `(2^21 - 1) * 256` slots — beyond the `MAX_SLOT` handle limit.
const N_CHUNKS: usize = 21;

/// The atomic types every interner pre-interns, in the fixed order the
/// `int`/`real`/`boxed`/`rboxed`/`bottom` helpers rely on.
const ATOMS: [LtyKind; 5] = [
    LtyKind::Int,
    LtyKind::Real,
    LtyKind::Boxed,
    LtyKind::RBoxed,
    LtyKind::Bottom,
];

/// Stable content hash of a kind (child handles are hashed as their
/// `u32` values, which is self-consistent within one arena). The Fx
/// hasher is process-stable, unlike `std`'s per-process seeded SipHash,
/// so shard assignment is reproducible run to run and the determinism
/// argument does not depend on `std` internals.
fn stable_hash(kind: &LtyKind) -> u64 {
    let mut h = FxHasher::default();
    kind.hash(&mut h);
    h.finish()
}

#[inline]
fn shard_of(kind: &LtyKind) -> usize {
    // Top bits of the multiply-rotate hash are the best mixed.
    (stable_hash(kind) >> (64 - SHARD_BITS)) as usize
}

#[inline]
fn encode(shard: usize, slot: u32) -> Lty {
    debug_assert!(shard < N_SHARDS);
    assert!(slot <= MAX_SLOT, "LTY arena shard overflow");
    Lty((slot << SHARD_BITS) | shard as u32)
}

#[inline]
fn decode(t: Lty) -> (usize, u32) {
    ((t.0 & (N_SHARDS as u32 - 1)) as usize, t.0 >> SHARD_BITS)
}

/// Append-only slot storage for one shard: a ladder of geometrically
/// growing chunks. Chunks and cells are `OnceLock`s, so readers can
/// resolve a handle to its kind with no lock at all while a writer
/// (serialized by the shard's map lock) appends behind them. Existing
/// cells are never moved — a `&LtyKind` stays valid for the arena's
/// lifetime.
struct SlotStore {
    chunks: [OnceLock<Box<[OnceLock<LtyKind>]>>; N_CHUNKS],
    /// Published slot count; written under the shard write lock with
    /// `Release` ordering *after* the cell itself is initialized.
    len: AtomicU64,
}

/// Splits a slot index into (chunk, offset-within-chunk). Chunk `c`
/// holds `256 << c` slots starting at slot `((1 << c) - 1) * 256`.
#[inline]
fn locate(slot: u32) -> (usize, usize) {
    let c = ((slot / CHUNK0_CAP) + 1).ilog2();
    let start = ((1u32 << c) - 1) * CHUNK0_CAP;
    (c as usize, (slot - start) as usize)
}

impl SlotStore {
    fn new() -> SlotStore {
        SlotStore {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicU64::new(0),
        }
    }

    /// Appends a kind, returning its slot. Caller must hold the shard's
    /// map write lock (writers are serialized per shard).
    fn push(&self, kind: LtyKind) -> u32 {
        let slot = self.len.load(Ordering::Relaxed) as u32;
        assert!(slot <= MAX_SLOT, "LTY arena shard overflow");
        let (c, off) = locate(slot);
        let chunk = self.chunks[c].get_or_init(|| {
            (0..(CHUNK0_CAP << c as u32))
                .map(|_| OnceLock::new())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        });
        chunk[off].set(kind).expect("slot written twice");
        self.len.store(slot as u64 + 1, Ordering::Release);
        slot
    }

    /// Resolves a slot to its kind. Lock-free: valid handles always point
    /// at initialized cells (the handle existed only after the cell was
    /// published).
    fn get(&self, slot: u32) -> &LtyKind {
        let (c, off) = locate(slot);
        self.chunks[c]
            .get()
            .and_then(|chunk| chunk[off].get())
            .expect("dangling Lty handle: slot not interned in this arena")
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) as usize
    }
}

/// One shard of the arena: a lock-protected kind→slot map, the
/// append-only slot storage it indexes, and exact traffic counters.
struct Shard {
    map: RwLock<HashMap<LtyKind, u32>>,
    slots: SlotStore,
    hits: AtomicU64,
    misses: AtomicU64,
    retries: AtomicU64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            map: RwLock::new(HashMap::new()),
            slots: SlotStore::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }
}

/// Traffic and residency counters for one arena shard. All counts are
/// exact — maintained with atomic increments on the intern path, so a
/// quiescent snapshot (e.g. after a batch joins its workers) balances
/// to the query total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Distinct kinds resident in this shard.
    pub resident: usize,
    /// Arena queries served from this shard's existing entries.
    pub hits: u64,
    /// Arena queries that allocated a new slot in this shard.
    pub misses: u64,
    /// Write-lock acquisitions that found the kind already inserted by
    /// a racing thread (counted as hits; a measure of contention).
    pub retries: u64,
}

/// A snapshot of arena-wide interning statistics, per shard.
///
/// Unlike [`LtyStats`] (per-compile, deterministic), these totals
/// describe the shared arena across *all* compiles of a session, so
/// the per-shard split of hits and misses — and `retries` especially —
/// depends on thread scheduling. The invariants that always hold at
/// quiescence: `hits + misses == queries`, `misses == resident`, and
/// `retries <= hits`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// One entry per arena shard, in shard order.
    pub shards: Vec<ShardStats>,
}

impl InternStats {
    /// Total distinct kinds resident across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.resident).sum()
    }

    /// Total queries served from existing entries.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    /// Total queries that allocated a new slot.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Total contention retries (lost insert races, resolved as hits).
    pub fn retries(&self) -> u64 {
        self.shards.iter().map(|s| s.retries).sum()
    }

    /// Total arena queries (`hits + misses`).
    pub fn queries(&self) -> u64 {
        self.hits() + self.misses()
    }
}

/// The shared, sharded LTY hash-cons arena (the paper's "global static
/// hash table", §4.1).
///
/// The arena is append-only: kinds are interned, never removed, and a
/// kind's handle never changes. Interning takes a read lock on the
/// kind's shard for the common already-present case and upgrades to a
/// write lock (re-checking under it) only to insert; resolving a
/// handle back to its kind takes no lock at all. Equal structures
/// always receive equal handles — callers intern children before
/// parents, so a parent's kind (which embeds child *handles*) is
/// already canonical when it reaches the arena, regardless of which
/// thread gets there first.
pub struct LtyArena {
    shards: [Shard; N_SHARDS],
    atoms: [Lty; 5],
}

impl fmt::Debug for LtyArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LtyArena")
            .field("resident", &self.stats().resident())
            .finish()
    }
}

impl Default for LtyArena {
    fn default() -> LtyArena {
        LtyArena::new()
    }
}

impl LtyArena {
    /// Creates an empty arena with the five atomic types pre-interned.
    pub fn new() -> LtyArena {
        let mut arena = LtyArena {
            shards: std::array::from_fn(|_| Shard::new()),
            atoms: [Lty(0); 5],
        };
        // Atom handles are content-derived like everything else; the
        // pre-intern only guarantees they exist before any view does.
        arena.atoms = ATOMS.map(|k| arena.intern(&k));
        arena
    }

    /// Interns a kind, returning its canonical handle. Safe to call
    /// from any thread; equal kinds always return equal handles.
    pub fn intern(&self, kind: &LtyKind) -> Lty {
        let ix = shard_of(kind);
        let shard = &self.shards[ix];
        if let Some(&slot) = shard.map.read().expect("lty shard poisoned").get(kind) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return encode(ix, slot);
        }
        let mut map = shard.map.write().expect("lty shard poisoned");
        if let Some(&slot) = map.get(kind) {
            // Lost the insert race: another thread interned this kind
            // between our read unlock and write lock. Same handle either
            // way — that is the insertion-order independence.
            shard.retries.fetch_add(1, Ordering::Relaxed);
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return encode(ix, slot);
        }
        let slot = shard.slots.push(kind.clone());
        map.insert(kind.clone(), slot);
        shard.misses.fetch_add(1, Ordering::Relaxed);
        encode(ix, slot)
    }

    /// Resolves a handle to its structure. Lock-free.
    ///
    /// # Panics
    ///
    /// Panics on a handle not issued by this arena (a programming
    /// error: handles must never cross arenas).
    pub fn kind(&self, t: Lty) -> &LtyKind {
        let (shard, slot) = decode(t);
        self.shards[shard].slots.get(slot)
    }

    /// Total distinct kinds resident in the arena.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// A per-shard snapshot of the arena's counters. Exact at
    /// quiescence (see [`InternStats`]).
    pub fn stats(&self) -> InternStats {
        InternStats {
            shards: self
                .shards
                .iter()
                .map(|s| ShardStats {
                    resident: s.slots.len(),
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    retries: s.retries.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// A per-compile *view* of the lambda-type store.
///
/// In [`InternMode::HashCons`] the view fronts a shared [`LtyArena`]:
/// it forwards first touches to the arena and memoizes the resulting
/// handles locally, so repeat interns within the compile never take
/// the arena lock and — more importantly — so the view's counters
/// ([`LtyStats`]) describe this compile alone, independent of how warm
/// the arena already is and of thread scheduling.
///
/// In [`InternMode::Structural`] the view is the whole store: a local
/// `Vec` with no deduplication, reproducing the representation the
/// paper ablates against. Structural views are never shared.
#[derive(Debug)]
pub struct LtyInterner {
    mode: InternMode,
    /// The shared store (`HashCons` mode only).
    arena: Option<Arc<LtyArena>>,
    /// First-touch memo: kind → canonical handle, for kinds this view
    /// has interned. Doubles as the per-compile hit/miss ledger.
    seen: HashMap<LtyKind, Lty>,
    /// Local storage (`Structural` mode only).
    local: Vec<LtyKind>,
    /// Handles of the pre-interned atoms, in [`ATOMS`] order.
    atoms: [Lty; 5],
    /// Statistics: number of `intern` calls (ablation metric).
    pub intern_calls: u64,
    /// Statistics: `intern` calls that repeated a kind this view had
    /// already interned. Always zero in structural mode.
    pub hashcons_hits: u64,
    /// Statistics: `intern` calls that touched a kind for the first
    /// time in this view. In structural mode every call is a miss.
    pub hashcons_misses: u64,
    /// Statistics: number of deep equality comparisons performed in
    /// structural mode.
    pub deep_compares: u64,
}

impl LtyInterner {
    /// Creates a self-contained interner; pre-interns the common atomic
    /// types. `HashCons` mode gets a fresh private arena — use
    /// [`LtyInterner::with_arena`] to share one.
    pub fn new(mode: InternMode) -> LtyInterner {
        match mode {
            InternMode::HashCons => LtyInterner::with_arena(Arc::new(LtyArena::new())),
            InternMode::Structural => {
                let mut i = LtyInterner {
                    mode,
                    arena: None,
                    seen: HashMap::new(),
                    local: Vec::new(),
                    atoms: [Lty(0); 5],
                    intern_calls: 0,
                    hashcons_hits: 0,
                    hashcons_misses: 0,
                    deep_compares: 0,
                };
                i.atoms = ATOMS.map(|k| i.intern(k));
                i
            }
        }
    }

    /// Creates a hash-consing view onto a shared arena. The atoms are
    /// re-interned through the view (five calls, five first touches),
    /// so a view's counters start exactly like a cold interner's.
    pub fn with_arena(arena: Arc<LtyArena>) -> LtyInterner {
        let mut i = LtyInterner {
            mode: InternMode::HashCons,
            arena: Some(arena),
            seen: HashMap::new(),
            local: Vec::new(),
            atoms: [Lty(0); 5],
            intern_calls: 0,
            hashcons_hits: 0,
            hashcons_misses: 0,
            deep_compares: 0,
        };
        i.atoms = ATOMS.map(|k| i.intern(k));
        i
    }

    /// The shared arena behind this view, if it is a hash-consing view.
    pub fn arena(&self) -> Option<&Arc<LtyArena>> {
        self.arena.as_ref()
    }

    /// Interns a kind, returning its handle.
    pub fn intern(&mut self, kind: LtyKind) -> Lty {
        self.intern_calls += 1;
        match self.mode {
            InternMode::HashCons => {
                if let Some(&t) = self.seen.get(&kind) {
                    self.hashcons_hits += 1;
                    return t;
                }
                self.hashcons_misses += 1;
                let arena = self.arena.as_ref().expect("hash-cons view has an arena");
                let t = arena.intern(&kind);
                self.seen.insert(kind, t);
                t
            }
            InternMode::Structural => {
                self.hashcons_misses += 1;
                let id = self.local.len() as u32;
                self.local.push(kind);
                Lty(id)
            }
        }
    }

    /// Fraction of `intern` calls served from the view's memo table, in
    /// `[0, 1]`; `0.0` before any call.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// A copyable snapshot of this view's per-compile statistics.
    pub fn stats(&self) -> LtyStats {
        LtyStats {
            interned: self.len(),
            intern_calls: self.intern_calls,
            hashcons_hits: self.hashcons_hits,
            hashcons_misses: self.hashcons_misses,
            deep_compares: self.deep_compares,
        }
    }

    /// Which interning discipline this view uses.
    pub fn mode(&self) -> InternMode {
        self.mode
    }

    /// The structure of `t`.
    pub fn kind(&self, t: Lty) -> &LtyKind {
        match &self.arena {
            Some(a) => a.kind(t),
            None => &self.local[t.0 as usize],
        }
    }

    /// `INTty`.
    pub fn int(&self) -> Lty {
        self.atoms[0]
    }

    /// `REALty`.
    pub fn real(&self) -> Lty {
        self.atoms[1]
    }

    /// `BOXEDty`.
    pub fn boxed(&self) -> Lty {
        self.atoms[2]
    }

    /// `RBOXEDty`.
    pub fn rboxed(&self) -> Lty {
        self.atoms[3]
    }

    /// The bottom type (non-returning expressions).
    pub fn bottom(&self) -> Lty {
        self.atoms[4]
    }

    /// `RECORDty` from field types.
    pub fn record(&mut self, fields: Vec<Lty>) -> Lty {
        self.intern(LtyKind::Record(fields))
    }

    /// `ARROWty`.
    pub fn arrow(&mut self, a: Lty, b: Lty) -> Lty {
        self.intern(LtyKind::Arrow(a, b))
    }

    /// `SRECORDty`.
    pub fn srecord(&mut self, fields: Vec<Lty>) -> Lty {
        self.intern(LtyKind::SRecord(fields))
    }

    /// Equality test: constant-time under hash-consing, a deep structural
    /// comparison otherwise (the ablation's cost center).
    pub fn same(&mut self, a: Lty, b: Lty) -> bool {
        match self.mode {
            InternMode::HashCons => a == b,
            InternMode::Structural => {
                self.deep_compares += 1;
                self.deep_same(a, b)
            }
        }
    }

    fn deep_same(&self, a: Lty, b: Lty) -> bool {
        if a == b {
            return true;
        }
        match (self.kind(a), self.kind(b)) {
            (LtyKind::Int, LtyKind::Int)
            | (LtyKind::Real, LtyKind::Real)
            | (LtyKind::Boxed, LtyKind::Boxed)
            | (LtyKind::RBoxed, LtyKind::RBoxed)
            | (LtyKind::Bottom, LtyKind::Bottom) => true,
            (LtyKind::Record(x), LtyKind::Record(y))
            | (LtyKind::SRecord(x), LtyKind::SRecord(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| self.deep_same(*p, *q))
            }
            (LtyKind::Arrow(a1, r1), LtyKind::Arrow(a2, r2)) => {
                self.deep_same(*a1, *a2) && self.deep_same(*r1, *r2)
            }
            (LtyKind::PRecord(x), LtyKind::PRecord(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y)
                        .all(|((i, p), (j, q))| i == j && self.deep_same(*p, *q))
            }
            _ => false,
        }
    }

    /// The paper's `dup` operation (§4.2): the standard-boxed counterpart
    /// of a type. `dup(RECORD[t...])` is a record of `RBOXED` fields,
    /// `dup(ARROW)` is `RBOXED -> RBOXED`, everything else collapses to
    /// `BOXED`.
    pub fn dup(&mut self, t: Lty) -> Lty {
        match self.kind(t).clone() {
            LtyKind::Record(fs) => {
                let rb = self.rboxed();
                self.record(vec![rb; fs.len()])
            }
            LtyKind::SRecord(fs) => {
                let rb = self.rboxed();
                self.srecord(vec![rb; fs.len()])
            }
            LtyKind::Arrow(..) => {
                let rb = self.rboxed();
                self.arrow(rb, rb)
            }
            _ => self.boxed(),
        }
    }

    /// True if values of this type occupy one machine word holding either
    /// a tagged integer or a pointer (GC-scannable).
    pub fn is_word(&self, t: Lty) -> bool {
        !matches!(self.kind(t), LtyKind::Real)
    }

    /// Number of distinct types this view has interned (statistics).
    pub fn len(&self) -> usize {
        match self.mode {
            InternMode::HashCons => self.seen.len(),
            InternMode::Structural => self.local.len(),
        }
    }

    /// True if no types are interned (never, in practice — every view
    /// pre-interns the atoms).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders a type for diagnostics.
    pub fn show(&self, t: Lty) -> String {
        let mut s = String::new();
        self.show_into(t, &mut s);
        s
    }

    fn show_into(&self, t: Lty, out: &mut String) {
        use fmt::Write;
        match self.kind(t) {
            LtyKind::Int => out.push_str("INT"),
            LtyKind::Bottom => out.push_str("BOT"),
            LtyKind::Real => out.push_str("REAL"),
            LtyKind::Boxed => out.push_str("BOXED"),
            LtyKind::RBoxed => out.push_str("RBOXED"),
            LtyKind::Record(fs) => {
                out.push('[');
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.show_into(*f, out);
                }
                out.push(']');
            }
            LtyKind::SRecord(fs) => {
                out.push_str("S[");
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    self.show_into(*f, out);
                }
                out.push(']');
            }
            LtyKind::PRecord(fs) => {
                out.push_str("P[");
                for (i, (slot, f)) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{slot}:");
                    self.show_into(*f, out);
                }
                out.push(']');
            }
            LtyKind::Arrow(a, b) => {
                out.push('(');
                self.show_into(*a, out);
                out.push_str("->");
                self.show_into(*b, out);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shards and handles are part of every compile's identity (a
    /// handle encodes its shard, and interning order fixes its slot):
    /// the hasher behind `shard_of` must keep these values.
    #[test]
    fn shard_of_and_handles_are_pinned() {
        let pinned = [
            (LtyKind::Int, 0, 0),
            (LtyKind::Real, 5, 0x517c_c1b7_2722_0a95),
            (LtyKind::Boxed, 4, 0x45f3_06dc_9c88_2a54),
            (LtyKind::RBoxed, 9, 0x976f_c893_c3aa_34e9),
            (LtyKind::Bottom, 8, 0x8be6_0db9_3910_54a8),
            (
                LtyKind::Record(vec![Lty(0), Lty(1)]),
                9,
                0x9545_3163_c32a_0a5a,
            ),
            (LtyKind::Arrow(Lty(2), Lty(3)), 2, 0x20c3_6f41_1f50_6c8f),
            (
                LtyKind::SRecord(vec![Lty(4), Lty(49), Lty(7)]),
                15,
                0xf050_03a2_e21a_9d64,
            ),
            (
                LtyKind::PRecord(vec![(0, Lty(1)), (3, Lty(82))]),
                11,
                0xb1b7_02da_470b_0f63,
            ),
            (LtyKind::Record(vec![]), 1, 0x1a8a_d3dc_8fa7_81e4),
        ];
        for (kind, shard, hash) in pinned {
            assert_eq!(
                (shard_of(&kind), stable_hash(&kind)),
                (shard, hash),
                "{kind:?}"
            );
        }
        let mut i = LtyInterner::new(InternMode::HashCons);
        let atoms = [i.int(), i.real(), i.boxed(), i.rboxed(), i.bottom()];
        assert_eq!(atoms, [Lty(0), Lty(5), Lty(4), Lty(9), Lty(8)]);
        let a = i.record(vec![i.int(), i.real()]);
        let b = i.arrow(a, i.boxed());
        let c = i.srecord(vec![a, b, i.rboxed()]);
        assert_eq!([a, b, c], [Lty(13), Lty(21), Lty(10)]);
    }

    #[test]
    fn hash_consing_dedupes() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let a = i.record(vec![i.int(), i.real()]);
        let b = i.record(vec![i.int(), i.real()]);
        assert_eq!(a, b);
        assert!(i.same(a, b));
    }

    #[test]
    fn hit_miss_counters_partition_calls() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let calls_before = i.intern_calls;
        let a = i.record(vec![i.int(), i.real()]); // miss
        let _b = i.record(vec![i.int(), i.real()]); // hit
        let _c = i.arrow(a, a); // miss
        assert_eq!(i.intern_calls, calls_before + 3);
        assert_eq!(i.intern_calls, i.hashcons_hits + i.hashcons_misses);
        assert!(i.hashcons_hits >= 1);
        assert!(i.hit_rate() > 0.0 && i.hit_rate() < 1.0);

        let mut s = LtyInterner::new(InternMode::Structural);
        s.record(vec![s.int()]);
        s.record(vec![s.int()]);
        assert_eq!(s.hashcons_hits, 0, "structural mode never hits");
        assert_eq!(s.intern_calls, s.hashcons_misses);
    }

    #[test]
    fn structural_mode_allocates_but_compares() {
        let mut i = LtyInterner::new(InternMode::Structural);
        let a = i.record(vec![i.int(), i.real()]);
        let b = i.record(vec![i.int(), i.real()]);
        assert_ne!(a, b, "no dedup");
        assert!(i.same(a, b), "deep equality still holds");
        assert!(i.deep_compares > 0);
    }

    #[test]
    fn dup_shapes() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let rec = i.record(vec![i.real(), i.int()]);
        let d = i.dup(rec);
        let rb = i.rboxed();
        assert_eq!(i.kind(d), &LtyKind::Record(vec![rb, rb]));
        let arr = i.arrow(i.int(), i.real());
        let d = i.dup(arr);
        assert_eq!(i.kind(d), &LtyKind::Arrow(rb, rb));
        assert_eq!(i.dup(i.real()), i.boxed());
        assert_eq!(i.dup(i.int()), i.boxed());
    }

    #[test]
    fn show_renders() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let t = i.arrow(i.int(), i.real());
        let r = i.record(vec![t, i.boxed()]);
        assert_eq!(i.show(r), "[(INT->REAL),BOXED]");
    }

    #[test]
    fn is_word() {
        let i = LtyInterner::new(InternMode::HashCons);
        assert!(i.is_word(i.int()));
        assert!(i.is_word(i.boxed()));
        assert!(!i.is_word(i.real()));
    }

    #[test]
    fn views_on_one_arena_agree_on_handles() {
        let arena = Arc::new(LtyArena::new());
        let mut v1 = LtyInterner::with_arena(arena.clone());
        let mut v2 = LtyInterner::with_arena(arena.clone());
        // Opposite construction orders; handles must match pairwise.
        let a1 = v1.arrow(v1.int(), v1.real());
        let r1 = v1.record(vec![a1, v1.boxed()]);
        let r2 = {
            let b = v2.boxed();
            let a2 = v2.arrow(v2.int(), v2.real());
            v2.record(vec![a2, b])
        };
        assert_eq!(v1.int(), v2.int());
        assert_eq!(r1, r2, "same structure, same handle, either order");
        assert_eq!(v1.kind(r1), v2.kind(r2));
    }

    #[test]
    fn per_view_stats_are_warm_cold_invariant() {
        // A view over a pre-warmed arena must report the same LtyStats
        // as a view over a cold one — per-compile determinism.
        let mut cold = LtyInterner::new(InternMode::HashCons);
        let build = |i: &mut LtyInterner| {
            let a = i.arrow(i.int(), i.int());
            let r = i.record(vec![a, a, i.real()]);
            i.srecord(vec![r, a]);
            i.record(vec![a, a, i.real()]); // repeat: per-view hit
        };
        build(&mut cold);

        let arena = Arc::new(LtyArena::new());
        let mut warmer = LtyInterner::with_arena(arena.clone());
        build(&mut warmer); // pre-warm the arena
        let mut warm = LtyInterner::with_arena(arena);
        build(&mut warm);

        assert_eq!(cold.stats(), warm.stats());
        assert_eq!(warm.stats().interned as u64, warm.stats().hashcons_misses);
    }

    #[test]
    fn slot_store_grows_past_first_chunk() {
        // Enough distinct kinds that shards spill into chunk 1 and
        // beyond; every handle must still resolve.
        let mut i = LtyInterner::new(InternMode::HashCons);
        let mut handles = Vec::new();
        let mut prev = i.int();
        for n in 0..20_000u32 {
            let leaf = if n % 2 == 0 { i.int() } else { i.real() };
            prev = i.arrow(prev, leaf);
            handles.push(prev);
        }
        let arena = i.arena().expect("hash-cons view").clone();
        assert_eq!(arena.resident(), i.len());
        for (n, h) in handles.iter().enumerate() {
            match i.kind(*h) {
                LtyKind::Arrow(_, leaf) => {
                    let want = if n % 2 == 0 { i.int() } else { i.real() };
                    assert_eq!(*leaf, want);
                }
                k => panic!("expected arrow, got {k:?}"),
            }
        }
    }

    #[test]
    fn arena_stats_balance_single_threaded() {
        let arena = Arc::new(LtyArena::new());
        let mut v = LtyInterner::with_arena(arena.clone());
        let a = v.arrow(v.int(), v.real());
        v.record(vec![a, a]);
        v.record(vec![a, a]); // view hit: no arena query at all
        let s = arena.stats();
        assert_eq!(s.shards.len(), N_SHARDS);
        assert_eq!(s.queries(), s.hits() + s.misses());
        assert_eq!(s.misses() as usize, s.resident());
        assert_eq!(s.retries(), 0, "no contention single-threaded");
        assert_eq!(s.resident(), arena.resident());
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(255), (0, 255));
        assert_eq!(locate(256), (1, 0));
        assert_eq!(locate(767), (1, 511));
        assert_eq!(locate(768), (2, 0));
        assert_eq!(locate(1791), (2, 1023));
        assert_eq!(locate(1792), (3, 0));
        // Chunk capacities and starts are consistent.
        let mut start = 0u64;
        for c in 0..N_CHUNKS as u32 {
            assert_eq!(locate(start as u32), (c as usize, 0));
            start += (CHUNK0_CAP << c) as u64;
            if start > MAX_SLOT as u64 {
                break;
            }
        }
    }

    #[test]
    fn handle_roundtrip_encode_decode() {
        for shard in [0usize, 1, 7, 15] {
            for slot in [0u32, 1, 255, 256, 1 << 20, MAX_SLOT] {
                let t = encode(shard, slot);
                assert_eq!(decode(t), (shard, slot));
            }
        }
    }
}
