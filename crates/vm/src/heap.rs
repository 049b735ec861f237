//! The runtime heap: tagged values, two-part object descriptors (paper
//! Figure 1c), and a two-generation copying collector.
//!
//! A value is one 32-bit word: a tagged 31-bit integer (low bit set) or a
//! 4-byte-aligned pointer (low bit clear). An object is a descriptor word
//! followed by its *scanned* one-word fields and then its *raw* words
//! (unboxed floats, string bytes); the descriptor records both lengths,
//! exactly the "two short integers" of the paper's reordered flat
//! records.
//!
//! # Collector
//!
//! In [`GcMode::Generational`] (the default) the collected heap is a
//! nursery plus a tenured space, each a Cheney semispace pair. New
//! objects are bump-allocated in the nursery (objects too large for it
//! go straight to tenured space). A *minor* collection evacuates live
//! nursery objects, promoting those that have survived
//! [`HeapConfig::promote_after`] minor collections into tenured space
//! and copying the rest to the nursery to-space. Minor collections
//! never scan tenured space: the only tenured words they visit are the
//! slots in the *remembered set*, maintained by
//! [`Heap::store_barriered`] whenever a mutation creates a
//! tenured→nursery pointer. A *major* collection copies everything
//! live — both generations — into a fresh tenured semispace; it is the
//! final attempt before the VM traps with `HeapExhausted`.
//!
//! [`GcMode::Semispace`] keeps the pre-generational single-semispace
//! collector (every collection copies the whole live set on a fixed
//! allocation schedule) as a reference baseline for differential
//! testing and the copied-words comparison of the `gc` release gate.
//!
//! # Fast paths
//!
//! Allocation and minor collection are the mutator's hot heap paths,
//! and both have one that moves no counter:
//!
//! - The heap keeps a *nursery limit*: the nursery end while plain
//!   nursery allocation applies (generational mode, no major active,
//!   heap not exhausted), else 0, re-derived at each change of state.
//!   `Heap::bump_young` allocates against it with one compare, the
//!   inline allocation of SML/NJ's mutator; [`Heap::alloc`] tries it
//!   first and keeps the rest of the protocol for tenured, black and
//!   failing allocations. The threaded engine's `Alloc`/`FBox` records
//!   call it directly and initialise the object with plain stores.
//! - A minor collection runs its Cheney loop on a `Minor` struct that
//!   borrows the memory, the ages and the remembered set apart from the
//!   counters, keeps the copy frontiers and counts in its own fields
//!   and folds them back at the end. Its roots arrive as an iterator,
//!   so no collection builds a root vector.
//!
//! # Incremental major collection
//!
//! A major collection can run either stop-the-world ([`Heap::collect`]
//! with [`GcKind::Major`], the differential baseline) or in bounded
//! *slices*: [`Heap::begin_major`] flips to the other tenured semispace
//! and forwards the roots, then repeated [`Heap::major_slice`] calls
//! each advance the Cheney scan by at most a caller-chosen number of
//! copied words. While a major is *active*:
//!
//! - allocation goes black: new objects are placed at the to-space copy
//!   frontier (they will be scanned like any copied object, which is
//!   harmless because their fields are initialized before the next
//!   slice can run);
//! - the mutator must read scanned fields through the
//!   [`Heap::load_healed`] read barrier, which evacuates any from-space
//!   target on the spot and heals the slot, so registers only ever hold
//!   to-space pointers and no store can re-introduce a from-space edge;
//! - minor collections are forbidden ([`Heap::needs_gc`] reports
//!   `false`) — the nursery is part of the from-space being evacuated.
//!
//! When the caller pumps every slice back-to-back at a single
//! allocation point (the default: no yields), the copy order and object
//! placement are *identical* to the stop-the-world collector, so
//! `promoted_words`, `copied_words`, and the final heap image do not
//! depend on the slice budget. Mutator interleaving between slices
//! (fault-injected yields, or a scheduler switching tenants) is where
//! the read barrier earns its keep.
//!
//! If the to-space overflows mid-collection the heap is *finalized* to
//! a scannable, accounting-consistent state ([`Heap::check_consistency`])
//! and marked exhausted: every further allocation fails so the VM traps
//! `HeapExhausted` immediately, while already-reachable data stays
//! readable through [`Heap::resolve`].

use std::collections::HashSet;

/// Object classification stored in the descriptor's low bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum ObjKind {
    Record = 0,
    Array = 1,
    Ref = 2,
    Str = 3,
    BoxedFloat = 4,
}

const KIND_MASK: u32 = 0b111;
const FORWARD: u32 = 0b111;
const SCAN_SHIFT: u32 = 3;
const SCAN_BITS: u32 = 15;
const RAW_SHIFT: u32 = 18;

/// Largest scanned-field count a descriptor can record (the bytecode
/// verifier rejects `Alloc`s beyond this: the GC scanner could not
/// describe them).
pub const MAX_SCAN_FIELDS: u32 = (1 << SCAN_BITS) - 1;
/// Largest raw-word count a descriptor can record.
pub const MAX_RAW_WORDS: u32 = (1 << (32 - RAW_SHIFT)) - 1;

/// Builds a descriptor word.
pub fn descriptor(kind: ObjKind, nscan: u32, nraw: u32) -> u32 {
    debug_assert!(nscan < (1 << SCAN_BITS));
    (kind as u32) | (nscan << SCAN_SHIFT) | (nraw << RAW_SHIFT)
}

/// Decodes `(kind, nscan, nraw)` from a descriptor.
#[inline]
pub fn decode(desc: u32) -> (u32, u32, u32) {
    (
        desc & KIND_MASK,
        (desc >> SCAN_SHIFT) & ((1 << SCAN_BITS) - 1),
        desc >> RAW_SHIFT,
    )
}

/// Tags an integer.
#[inline]
pub fn tag_int(n: i64) -> u32 {
    ((n as u32) << 1) | 1
}

/// Untags an integer (sign-extended from 31 bits).
#[inline]
pub fn untag_int(w: u32) -> i64 {
    ((w as i32) >> 1) as i64
}

/// True if the word is a pointer.
#[inline]
pub fn is_ptr(w: u32) -> bool {
    w & 1 == 0 && w != 0
}

/// Collector selection for a [`Heap`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum GcMode {
    /// Two generations: nursery minor collections with promotion into a
    /// tenured space, write barrier, remembered set.
    #[default]
    Generational,
    /// The single Cheney semispace of earlier revisions: every
    /// collection copies the entire live set. The `nursery_words` knob
    /// becomes a pure allocation schedule (collect every N words).
    Semispace,
}

/// Which collection to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GcKind {
    /// Evacuate the nursery, promoting survivors per the age policy.
    /// In [`GcMode::Semispace`] this degrades to a full collection.
    Minor,
    /// Collect both generations into a fresh tenured semispace.
    Major,
}

/// Outcome of one incremental major-collection slice
/// ([`Heap::major_slice`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SliceOutcome {
    /// The collection completed; the heap has flipped to the new
    /// semispace and the nursery is empty.
    Done,
    /// Work remains; call [`Heap::major_slice`] again.
    More,
    /// The to-space overflowed: live data exceeds one tenured
    /// semispace. The heap has been finalized to a consistent but
    /// exhausted state; the caller must end the run.
    Overflow,
}

/// Book-keeping for an active incremental major collection: the Cheney
/// frontier (`free`) and scan pointer into the to-space, which doubles
/// as the black-allocation frontier while the collection is active.
struct MajorState {
    to_base: usize,
    limit: usize,
    free: usize,
    scan: usize,
}

/// Geometry and policy knobs for [`Heap::new`].
#[derive(Clone, Copy, Debug)]
pub struct HeapConfig {
    /// Collector selection.
    pub mode: GcMode,
    /// Nursery semispace size in words (generational mode); in
    /// semispace mode, the allocation interval between collections.
    pub nursery_words: usize,
    /// Tenured semispace size in words — the heap ceiling.
    pub tenured_words: usize,
    /// Minor collections an object must survive before promotion
    /// (1-based; clamped to at least 1).
    pub promote_after: u32,
    /// Immortal literal-pool region capacity in words.
    pub static_words: usize,
    /// GC pause budget in cycles; `0` means unbounded (stop-the-world
    /// majors, full-size nursery). When nonzero, the nursery is clamped
    /// so a worst-case (full-survival) minor pause fits in roughly
    /// three quarters of the budget, leaving slack for remembered-set
    /// scanning, and major collections are expected to run in slices
    /// sized by [`Heap::slice_words`].
    pub max_pause_cycles: u64,
}

impl Default for HeapConfig {
    fn default() -> HeapConfig {
        HeapConfig {
            mode: GcMode::Generational,
            nursery_words: 64 * 1024,
            tenured_words: 8 << 20,
            promote_after: 2,
            static_words: 64 * 1024,
            max_pause_cycles: 0,
        }
    }
}

/// Allocation target for a given request size.
enum Space {
    Nursery,
    Tenured,
}

/// The heap. Word layout: the low `static_end` words form an immortal
/// region for pooled string literals, followed by the two nursery
/// halves (absent in semispace mode) and the two tenured halves.
pub struct Heap {
    mem: Vec<u32>,
    static_free: usize,
    static_end: usize,
    mode: GcMode,
    /// Nursery semispace size in words (0 in semispace mode).
    nursery_words: usize,
    /// Semispace-mode collection schedule: collect once this many words
    /// have been allocated since the last collection.
    trigger_words: usize,
    /// Tenured semispace size in words.
    tenured_words: usize,
    /// Minor collections an object must survive before promotion.
    promote_after: u32,
    /// Current nursery from-space base and bump pointer.
    n_base: usize,
    n_free: usize,
    /// The nursery end while plain nursery allocation applies
    /// (generational mode, no major active, not exhausted), else 0:
    /// the one bound [`Heap::bump_young`] compares against.
    young_limit: usize,
    /// Current tenured from-space base and bump pointer.
    t_base: usize,
    t_free: usize,
    /// Words allocated since the last collection (semispace trigger).
    since_gc: usize,
    /// Minor collections survived, per nursery body index (relative to
    /// `static_end`; covers both halves).
    ages: Vec<u8>,
    /// Remembered set: tenured slots holding nursery pointers, in
    /// insertion order (determinism), deduplicated via `rs_member`.
    remembered: Vec<usize>,
    rs_member: HashSet<usize>,
    /// Active incremental major collection, if any.
    major: Option<MajorState>,
    /// Set when a major collection overflowed its to-space: the heap is
    /// finalized but can no longer allocate or collect.
    exhausted: bool,
    /// Words copied by the read barrier since the last
    /// [`Heap::take_barrier_words`] drain (mutator-time copy work, not
    /// part of any recorded pause).
    pending_barrier: u64,
    /// Total words ever allocated (the heap-allocation metric).
    pub alloc_words: u64,
    /// Total objects ever allocated (bump-pointer allocations, including
    /// strings; excludes the immortal literal pool).
    pub n_allocs: u64,
    /// Total words copied by the collector (minor and major).
    pub copied_words: u64,
    /// Number of collections (minor + major).
    pub n_gcs: u64,
    /// Number of minor collections.
    pub n_minor_gcs: u64,
    /// Number of major collections.
    pub n_major_gcs: u64,
    /// Words moved from the nursery into tenured space.
    pub promoted_words: u64,
    /// High-water mark of the remembered set, in slots.
    pub rs_peak: u64,
}

impl Heap {
    /// Creates a heap with the given geometry. With a nonzero pause
    /// budget the nursery is clamped (see
    /// [`HeapConfig::max_pause_cycles`]) so that even a full-survival
    /// minor collection fits the budget with slack to spare.
    pub fn new(cfg: &HeapConfig) -> Heap {
        let n = match cfg.mode {
            GcMode::Generational if cfg.max_pause_cycles > 0 => cfg
                .nursery_words
                .min(((cfg.max_pause_cycles.saturating_sub(150) / 4) as usize).max(16)),
            GcMode::Generational => cfg.nursery_words,
            GcMode::Semispace => 0,
        };
        let t_lo = cfg.static_words + 2 * n;
        let mut heap = Heap {
            mem: vec![0; t_lo + 2 * cfg.tenured_words],
            static_free: 1, // keep address 0 invalid
            static_end: cfg.static_words,
            mode: cfg.mode,
            nursery_words: n,
            trigger_words: cfg.nursery_words,
            tenured_words: cfg.tenured_words,
            promote_after: cfg.promote_after.max(1),
            n_base: cfg.static_words,
            n_free: cfg.static_words,
            young_limit: 0,
            t_base: t_lo,
            t_free: t_lo,
            since_gc: 0,
            ages: vec![0; 2 * n],
            remembered: Vec::new(),
            rs_member: HashSet::new(),
            major: None,
            exhausted: false,
            pending_barrier: 0,
            alloc_words: 0,
            n_allocs: 0,
            copied_words: 0,
            n_gcs: 0,
            n_minor_gcs: 0,
            n_major_gcs: 0,
            promoted_words: 0,
            rs_peak: 0,
        };
        heap.reset_young_limit();
        heap
    }

    /// [`Heap::bump_young`]'s bound in the heap's current state: the
    /// nursery end while plain nursery allocation applies, else 0,
    /// which no allocation fits under.
    fn young_limit_now(&self) -> usize {
        if self.mode == GcMode::Generational && self.major.is_none() && !self.exhausted {
            self.n_base + self.nursery_words
        } else {
            0
        }
    }

    /// Re-derives the nursery limit after a change of state.
    fn reset_young_limit(&mut self) {
        self.young_limit = self.young_limit_now();
    }

    #[inline]
    fn ptr_of(idx: usize) -> u32 {
        (idx as u32) << 2
    }

    #[inline]
    fn idx_of(ptr: u32) -> usize {
        (ptr >> 2) as usize
    }

    /// Words an allocation of `want` body words actually occupies: the
    /// body, padded to at least one word so the collector always has
    /// room for a forwarding pointer, plus the descriptor. The single
    /// accounting predicate shared by [`Heap::needs_gc`],
    /// [`Heap::has_room`], and the allocator.
    fn footprint(want: usize) -> usize {
        want.max(1) + 1
    }

    #[inline]
    fn in_range(at: usize, base: usize, len: usize) -> bool {
        at >= base && at < base + len
    }

    #[inline]
    fn in_tenured(&self, at: usize) -> bool {
        at >= self.static_end + 2 * self.nursery_words
    }

    /// Where an allocation of `want` body words goes: the nursery, or —
    /// for objects too large to ever fit there, for everything in
    /// semispace mode, and for everything while an incremental major is
    /// active (black allocation) — directly into tenured space.
    fn target_space(&self, want: usize) -> Space {
        if self.major.is_none()
            && self.mode == GcMode::Generational
            && Heap::footprint(want) <= self.nursery_words
        {
            Space::Nursery
        } else {
            Space::Tenured
        }
    }

    /// Reads the word at `ptr + off` words.
    #[inline]
    pub fn load(&self, ptr: u32, off: usize) -> u32 {
        self.mem[Heap::idx_of(ptr) + off]
    }

    /// Writes the word at `ptr + off` with no write barrier. Only for
    /// stores that can never create a tenured→nursery pointer:
    /// initializing stores into just-allocated nursery objects and
    /// unboxed (non-pointer) mutations.
    #[inline]
    pub fn store(&mut self, ptr: u32, off: usize, v: u32) {
        self.mem[Heap::idx_of(ptr) + off] = v;
    }

    /// Stores through the generational write barrier (the `:=` and
    /// array-update paths): when the store creates a tenured→nursery
    /// pointer, the slot joins the remembered set so the next minor
    /// collection finds it without scanning tenured space.
    #[inline]
    pub fn store_barriered(&mut self, ptr: u32, off: usize, v: u32) {
        let base = Heap::idx_of(ptr);
        self.mem[base + off] = v;
        if is_ptr(v)
            && self.in_tenured(base)
            && Heap::in_range(Heap::idx_of(v), self.static_end, 2 * self.nursery_words)
        {
            self.remember(base + off);
        }
    }

    /// True when storing `v` into the object at `ptr` would create a
    /// tenured→nursery edge, i.e. the write barrier is required. The VM
    /// debug-asserts this is false on its unbarriered unboxed stores.
    pub fn would_need_barrier(&self, ptr: u32, v: u32) -> bool {
        is_ptr(ptr)
            && is_ptr(v)
            && self.in_tenured(Heap::idx_of(ptr))
            && Heap::in_range(Heap::idx_of(v), self.static_end, 2 * self.nursery_words)
    }

    fn remember(&mut self, slot: usize) {
        if self.rs_member.insert(slot) {
            self.remembered.push(slot);
            self.rs_peak = self.rs_peak.max(self.remembered.len() as u64);
        }
    }

    /// Current remembered-set size in slots.
    pub fn remembered_len(&self) -> usize {
        self.remembered.len()
    }

    /// True in generational mode.
    pub fn is_generational(&self) -> bool {
        self.mode == GcMode::Generational
    }

    /// True when `ptr` points into tenured space.
    pub fn is_tenured_ptr(&self, ptr: u32) -> bool {
        is_ptr(ptr) && self.in_tenured(Heap::idx_of(ptr))
    }

    /// Reads a raw float at word offset `off`.
    #[inline]
    pub fn load_f64(&self, ptr: u32, off: usize) -> f64 {
        let i = Heap::idx_of(ptr) + off;
        let bits = (self.mem[i] as u64) | ((self.mem[i + 1] as u64) << 32);
        f64::from_bits(bits)
    }

    /// Writes a raw float at word offset `off` (two single-word stores).
    #[inline]
    pub fn store_f64(&mut self, ptr: u32, off: usize, v: f64) {
        let i = Heap::idx_of(ptr) + off;
        let bits = v.to_bits();
        self.mem[i] = bits as u32;
        self.mem[i + 1] = (bits >> 32) as u32;
    }

    /// The descriptor of the object at `ptr`.
    #[inline]
    pub fn desc(&self, ptr: u32) -> u32 {
        self.mem[Heap::idx_of(ptr) - 1]
    }

    /// True if a collection should run before allocating `want` body
    /// words: the target space cannot fit the allocation (plus, in
    /// semispace mode, the fixed allocation schedule has elapsed).
    /// Always `false` while an incremental major is active — the
    /// nursery is mid-evacuation, so the caller must pump
    /// [`Heap::major_slice`] instead of starting a minor collection.
    pub fn needs_gc(&self, want: usize) -> bool {
        if self.major.is_some() {
            return false;
        }
        match self.mode {
            GcMode::Generational => !self.has_room(want),
            GcMode::Semispace => {
                self.since_gc + Heap::footprint(want) > self.trigger_words || !self.has_room(want)
            }
        }
    }

    /// True if the space an allocation of `want` body words targets can
    /// hold its full footprint (body plus descriptor, empty objects
    /// padded). Exactly the predicate [`Heap::alloc`] uses, so
    /// `has_room(want)` ⇔ the next `alloc` of that size succeeds. When
    /// this still fails right after a major collection, the live data
    /// genuinely does not fit: the heap is exhausted.
    pub fn has_room(&self, want: usize) -> bool {
        if self.exhausted {
            return false; // finalized after a to-space overflow
        }
        if let Some(m) = &self.major {
            // Black allocation at the to-space frontier.
            return Heap::footprint(want) <= m.limit - m.free;
        }
        let (free, limit) = match self.target_space(want) {
            Space::Nursery => (self.n_free, self.n_base + self.nursery_words),
            Space::Tenured => (self.t_free, self.t_base + self.tenured_words),
        };
        Heap::footprint(want) <= limit - free
    }

    /// Bump-allocates `want` body words in the nursery with one
    /// compare, when plain nursery allocation applies: generational
    /// mode, no major active, the heap not exhausted, and the nursery
    /// has room. Exactly then is this `Some`, placing the object where
    /// [`Heap::alloc`] would and counting it the same way. Returns the
    /// body's word index; the descriptor and fields are the caller's to
    /// write, with plain stores.
    #[inline(always)]
    pub(crate) fn bump_young(&mut self, want: usize) -> Option<usize> {
        let total = Heap::footprint(want);
        if self.n_free + total > self.young_limit {
            return None;
        }
        let at = self.n_free + 1;
        self.n_free += total;
        self.ages[at - self.static_end] = 0;
        Some(self.counted(at, total))
    }

    /// Counts an allocation of `total` words placed at `at`; returns
    /// `at`.
    #[inline(always)]
    fn counted(&mut self, at: usize, total: usize) -> usize {
        self.since_gc += total;
        self.alloc_words += total as u64;
        self.n_allocs += 1;
        at
    }

    fn bump(&mut self, want: usize) -> Option<usize> {
        if let Some(at) = self.bump_young(want) {
            return Some(at);
        }
        if !self.has_room(want) {
            return None; // space exhausted; caller collects or traps
        }
        // Not the plain nursery case, so tenured space: black
        // allocation during a major, or an object the nursery cannot
        // hold, or semispace mode.
        let total = Heap::footprint(want);
        let at = if let Some(m) = self.major.as_mut() {
            // Black allocation: the new object lands ahead of the scan
            // pointer and is scanned like any copied object once its
            // fields are initialized (always before the next slice).
            let at = m.free + 1;
            m.free += total;
            at
        } else {
            let at = self.t_free + 1;
            self.t_free += total;
            at
        };
        Some(self.counted(at, total))
    }

    /// Allocates an object with `nscan` scanned one-word fields and
    /// `nraw` raw float fields (two words each), uninitialized; returns
    /// the pointer, or `None` when the target space is exhausted (the VM
    /// turns that into a [`HeapExhausted`](crate::VmResult::HeapExhausted)
    /// trap after a final collection attempt).
    pub fn alloc(&mut self, kind: ObjKind, nscan: u32, nraw: u32) -> Option<u32> {
        let at = self.bump((nscan + 2 * nraw) as usize)?;
        self.mem[at - 1] = descriptor(kind, nscan, nraw);
        Some(Heap::ptr_of(at))
    }

    /// [`Heap::alloc`] in the plain nursery case only
    /// ([`Heap::bump_young`]); `None`, having done nothing, otherwise.
    /// The object is young, so its fields take plain stores
    /// ([`Heap::store`], [`Heap::store_f64`]): the write barrier only
    /// ever remembers slots of tenured objects.
    #[inline(always)]
    pub(crate) fn alloc_young(&mut self, kind: ObjKind, nscan: u32, nraw: u32) -> Option<u32> {
        let at = self.bump_young((nscan + 2 * nraw) as usize)?;
        self.mem[at - 1] = descriptor(kind, nscan, nraw);
        Some(Heap::ptr_of(at))
    }

    /// The longest string the descriptor encoding can represent, in
    /// bytes. Longer strings must be rejected before allocation.
    pub const MAX_STRING_BYTES: usize = (1 << SCAN_BITS) - 1;

    /// The longest array the descriptor encoding can represent, in
    /// elements (the scanned-field count doubles as the length).
    pub const MAX_ARRAY_LEN: usize = (1 << SCAN_BITS) - 1;

    /// Allocates a string in the collected heap; `None` when the target
    /// space is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds [`Heap::MAX_STRING_BYTES`] — callers
    /// must check first and trap rather than allocate.
    pub fn alloc_string(&mut self, s: &str) -> Option<u32> {
        let bytes = s.as_bytes();
        assert!(
            bytes.len() <= Heap::MAX_STRING_BYTES,
            "string too long for descriptor"
        );
        let at = self.bump(bytes.len().div_ceil(4))?;
        self.mem[at - 1] = (ObjKind::Str as u32) | ((bytes.len() as u32) << SCAN_SHIFT);
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let mut w = 0u32;
            for (j, b) in chunk.iter().enumerate() {
                w |= (*b as u32) << (8 * j);
            }
            self.mem[at + i] = w;
        }
        Some(Heap::ptr_of(at))
    }

    /// Allocates a string in the immortal region (for pooled literals).
    pub fn alloc_static_string(&mut self, s: &str) -> u32 {
        let bytes = s.as_bytes();
        let nraw = bytes.len().div_ceil(4);
        assert!(
            self.static_free + nraw.max(1) < self.static_end,
            "string pool region exhausted"
        );
        let at = self.static_free + 1;
        self.static_free += nraw.max(1) + 1;
        self.mem[at - 1] = (ObjKind::Str as u32) | ((bytes.len() as u32) << SCAN_SHIFT);
        for (i, chunk) in bytes.chunks(4).enumerate() {
            let mut w = 0u32;
            for (j, b) in chunk.iter().enumerate() {
                w |= (*b as u32) << (8 * j);
            }
            self.mem[at + i] = w;
        }
        Heap::ptr_of(at)
    }

    /// Reads a string object back out.
    pub fn read_string(&self, ptr: u32) -> String {
        let at = Heap::idx_of(ptr);
        let desc = self.mem[at - 1];
        debug_assert_eq!(desc & KIND_MASK, ObjKind::Str as u32);
        let len = (desc >> SCAN_SHIFT) as usize;
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            let w = self.mem[at + i / 4];
            out.push(((w >> (8 * (i % 4))) & 0xff) as u8);
        }
        String::from_utf8_lossy(&out).into_owned()
    }

    /// Byte length of a string object.
    pub fn string_len(&self, ptr: u32) -> usize {
        (self.desc(ptr) >> SCAN_SHIFT) as usize
    }

    /// Byte at index `i` of a string object.
    pub fn string_byte(&self, ptr: u32, i: usize) -> u8 {
        let at = Heap::idx_of(ptr);
        let w = self.mem[at + i / 4];
        ((w >> (8 * (i % 4))) & 0xff) as u8
    }

    /// Body words occupied by an object with the given decoded
    /// descriptor (empty objects pad to one word of forwarding space).
    #[inline]
    fn body_words(kind: u32, nscan: u32, nraw: u32) -> usize {
        let n = if kind == ObjKind::Str as u32 {
            (nscan as usize).div_ceil(4)
        } else if kind == ObjKind::Array as u32 {
            nscan as usize
        } else {
            (nscan + nraw * 2) as usize
        };
        n.max(1)
    }

    /// Pointer-valued field count of an object (strings are all raw).
    fn scanned_fields(kind: u32, nscan: u32) -> usize {
        if kind == ObjKind::Str as u32 {
            0
        } else {
            nscan as usize
        }
    }

    /// Validates that `ptr` is a plausible object pointer and that the
    /// word range `[off, off + words)` lies inside that object's body.
    /// Returns the violation reason on failure; the VM converts it into
    /// a [`Fault`](crate::VmResult::Fault) trap instead of indexing out
    /// of bounds.
    #[inline]
    pub fn check_access(&self, ptr: u32, off: usize, words: usize) -> Result<(), String> {
        // The passing case decides with one descriptor read; the reason
        // is only worked out (off the hot path) when the access fails.
        // `at + total <= len` with `total >= 1` implies `at < len`.
        let at = Heap::idx_of(ptr);
        if is_ptr(ptr) && at != 0 {
            if let Some(&desc) = self.mem.get(at - 1) {
                let (kind, nscan, nraw) = decode(desc);
                let total = Heap::body_words(kind, nscan, nraw);
                if kind != FORWARD && off + words <= total && at + total <= self.mem.len() {
                    return Ok(());
                }
            }
        }
        Err(self.access_violation(ptr, off, words))
    }

    /// Why [`Heap::check_access`] rejected an access.
    #[cold]
    #[inline(never)]
    fn access_violation(&self, ptr: u32, off: usize, words: usize) -> String {
        if !is_ptr(ptr) {
            return format!("memory access through non-pointer {ptr:#x}");
        }
        let at = Heap::idx_of(ptr);
        if at == 0 || at >= self.mem.len() {
            return format!("pointer {ptr:#x} outside the heap");
        }
        let (kind, nscan, nraw) = decode(self.mem[at - 1]);
        if kind == FORWARD {
            return format!("access to forwarded object at {ptr:#x}");
        }
        let total = Heap::body_words(kind, nscan, nraw);
        if off + words > total {
            return format!(
                "access to words [{off}, {}) outside object of {total} body words at {ptr:#x}",
                off + words
            );
        }
        format!("object at {ptr:#x} extends past the heap end")
    }

    /// Validates that `ptr` refers to a string object whose bytes lie in
    /// bounds; returns the violation reason otherwise.
    pub fn check_string(&self, ptr: u32) -> Result<(), String> {
        self.check_access(ptr, 0, 0)?;
        let (kind, nscan, _) = decode(self.desc(ptr));
        if kind != ObjKind::Str as u32 {
            return Err(format!(
                "string operation on non-string object (kind {kind}) at {ptr:#x}"
            ));
        }
        let at = Heap::idx_of(ptr);
        if at + (nscan as usize).div_ceil(4) > self.mem.len() {
            return Err(format!("string at {ptr:#x} extends past the heap end"));
        }
        Ok(())
    }

    /// Runs a stop-the-world collection; `roots` are updated in place.
    /// Returns `false` only when a major collection overflowed its
    /// to-space — the live data exceeds one tenured semispace — in
    /// which case the heap is finalized to a consistent exhausted state
    /// and the caller must trap immediately. Minor collections cannot
    /// fail: survivors always fit in the nursery to-space (promotion
    /// falls back to keeping objects young when tenured space is full).
    ///
    /// # Panics
    ///
    /// Panics if an incremental major collection is active — pump
    /// [`Heap::major_slice`] to completion first.
    pub fn collect<'r>(
        &mut self,
        roots: impl IntoIterator<Item = &'r mut u32>,
        kind: GcKind,
    ) -> bool {
        assert!(
            self.major.is_none(),
            "collect() during an active incremental major"
        );
        match (self.mode, kind) {
            (GcMode::Generational, GcKind::Minor) => {
                self.collect_minor(roots);
                true
            }
            _ => self.collect_major(roots),
        }
    }

    /// True while an incremental major collection is active (begun but
    /// neither completed nor overflowed).
    pub fn major_active(&self) -> bool {
        self.major.is_some()
    }

    /// True once a major collection overflowed its to-space: the heap
    /// is finalized and read-only — every allocation fails, so the VM
    /// traps `HeapExhausted` at the next allocation point.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Effective nursery semispace capacity in words, after the
    /// pause-budget clamp (0 in semispace mode).
    pub fn nursery_capacity(&self) -> usize {
        self.nursery_words
    }

    /// Copy-work slice budget in words for a pause budget of
    /// `max_pause_cycles`: half the cycles left after the fixed major
    /// pause cost, at 3 cycles per copied word. The halving leaves
    /// headroom for finishing the object in flight when the budget
    /// trips — only a genuinely oversized single object can then push a
    /// slice past the budget (and that is reported, not hidden).
    /// `u64::MAX` when the budget is zero (unbounded).
    pub fn slice_words(max_pause_cycles: u64) -> u64 {
        if max_pause_cycles == 0 {
            u64::MAX
        } else {
            (max_pause_cycles.saturating_sub(200) / 3 / 2).max(1)
        }
    }

    /// Begins an incremental major collection: flips to the other
    /// tenured semispace and forwards the roots (the one atomic step —
    /// after it, every root is a to-space pointer). Returns `false` if
    /// the root set alone overflowed the to-space, in which case the
    /// heap is finalized exhausted exactly as for a mid-slice overflow.
    ///
    /// # Panics
    ///
    /// Panics if a major is already active or the heap is exhausted.
    pub fn begin_major<'r>(&mut self, roots: impl IntoIterator<Item = &'r mut u32>) -> bool {
        assert!(self.major.is_none(), "begin_major: major already active");
        assert!(!self.exhausted, "begin_major on an exhausted heap");
        self.n_gcs += 1;
        self.n_major_gcs += 1;
        let t_lo = self.static_end + 2 * self.nursery_words;
        let to_base = if self.t_base == t_lo {
            t_lo + self.tenured_words
        } else {
            t_lo
        };
        let limit = to_base + self.tenured_words;
        let mut free = to_base;
        self.young_limit = 0; // allocation goes black from here
        for r in roots {
            match self.forward_major(*r, &mut free, limit) {
                Some(nv) => *r = nv,
                None => {
                    self.major = Some(MajorState {
                        to_base,
                        limit,
                        free,
                        scan: free,
                    });
                    self.finalize_overflow();
                    return false;
                }
            }
        }
        self.major = Some(MajorState {
            to_base,
            limit,
            free,
            scan: to_base,
        });
        true
    }

    /// Advances the active major collection by at most `max_copy_words`
    /// copied words (pass `u64::MAX` for a stop-the-world finish). A
    /// slice may stop mid-object; the next slice re-walks that object's
    /// fields, which is cheap and idempotent (already-forwarded fields
    /// are left alone). On [`SliceOutcome::Done`] the heap has flipped:
    /// tenured space is the to-space, the nursery is empty, and the
    /// remembered set is clear.
    ///
    /// # Panics
    ///
    /// Panics if no major collection is active.
    pub fn major_slice(&mut self, max_copy_words: u64) -> SliceOutcome {
        let m = self.major.as_ref().expect("major_slice: no active major");
        let (mut scan, mut free, limit) = (m.scan, m.free, m.limit);
        let start = self.copied_words;
        while scan < free {
            let desc = self.mem[scan];
            let (kind, nscan, nraw) = decode(desc);
            let fields = scan + 1;
            for i in 0..Heap::scanned_fields(kind, nscan) {
                if self.copied_words - start >= max_copy_words {
                    // Budget spent mid-object: park the scan pointer at
                    // the object start and resume here next slice.
                    let m = self.major.as_mut().unwrap();
                    m.scan = scan;
                    m.free = free;
                    return SliceOutcome::More;
                }
                match self.forward_major(self.mem[fields + i], &mut free, limit) {
                    Some(nv) => self.mem[fields + i] = nv,
                    None => {
                        let m = self.major.as_mut().unwrap();
                        m.scan = scan;
                        m.free = free;
                        self.finalize_overflow();
                        return SliceOutcome::Overflow;
                    }
                }
            }
            scan = fields + Heap::body_words(kind, nscan, nraw);
            if self.copied_words - start >= max_copy_words && scan < free {
                let m = self.major.as_mut().unwrap();
                m.scan = scan;
                m.free = free;
                return SliceOutcome::More;
            }
        }
        // Scan met the frontier: the collection is complete. Flip.
        let m = self.major.take().unwrap();
        self.t_base = m.to_base;
        self.t_free = free;
        self.n_free = self.n_base; // nursery fully evacuated
        self.remembered.clear();
        self.rs_member.clear();
        self.since_gc = 0;
        self.reset_young_limit();
        SliceOutcome::Done
    }

    /// Finalizes the heap after a to-space overflow: adopt the partial
    /// to-space as the tenured space (every object in it is a valid,
    /// fully-copied object, so the space is linearly scannable),
    /// declare the half-evacuated nursery empty, clear the remembered
    /// set, and mark the heap exhausted so no allocation or collection
    /// ever runs again. Reachable data stays readable: unforwarded
    /// from-space objects are intact and forwarded ones resolve through
    /// [`Heap::resolve`].
    fn finalize_overflow(&mut self) {
        let m = self.major.take().expect("finalize_overflow: no major");
        self.t_base = m.to_base;
        self.t_free = m.free;
        self.n_free = self.n_base;
        self.remembered.clear();
        self.rs_member.clear();
        self.since_gc = 0;
        self.exhausted = true;
        self.reset_young_limit();
    }

    /// Minor collection: Cheney over the nursery only. Roots are the
    /// VM roots plus the remembered set; copy targets are the nursery
    /// to-space and (for promotion) the tenured bump frontier. The copy
    /// loop runs on a [`Minor`], which borrows the memory, the ages and
    /// the remembered set apart from the counters folded back here.
    fn collect_minor<'r>(&mut self, roots: impl IntoIterator<Item = &'r mut u32>) {
        debug_assert!(self.major.is_none(), "minor during an active major");
        self.n_gcs += 1;
        self.n_minor_gcs += 1;
        let to_base = if self.n_base == self.static_end {
            self.static_end + self.nursery_words
        } else {
            self.static_end
        };
        let t_start = self.t_free; // promoted objects land from here
        let mut c = Minor {
            mem: &mut self.mem,
            ages: &mut self.ages,
            remembered: &mut self.remembered,
            rs_member: &mut self.rs_member,
            static_end: self.static_end,
            from_base: self.n_base,
            to_base,
            nursery_words: self.nursery_words,
            promote_after: self.promote_after,
            t_limit: self.t_base + self.tenured_words,
            n_free: to_base,
            t_free: t_start,
            copied: 0,
            promoted: 0,
        };
        for r in roots {
            *r = c.forward(*r);
        }
        c.forward_remembered();
        // Scan both copy targets to a fixpoint: scanning promoted
        // objects can copy more into the nursery and vice versa.
        let (mut n_scan, mut t_scan) = (to_base, t_start);
        while n_scan < c.n_free || t_scan < c.t_free {
            if n_scan < c.n_free {
                n_scan = c.scan(n_scan, false);
            } else {
                t_scan = c.scan(t_scan, true);
            }
        }
        let (n_free, t_free, copied, promoted) = (c.n_free, c.t_free, c.copied, c.promoted);
        self.n_base = to_base;
        self.n_free = n_free;
        self.t_free = t_free;
        self.copied_words += copied;
        self.promoted_words += promoted;
        // The set only grew during the collection: its peak is its size
        // now.
        self.rs_peak = self.rs_peak.max(self.remembered.len() as u64);
        self.since_gc = 0;
        self.reset_young_limit();
    }

    /// Stop-the-world major collection: [`Heap::begin_major`] plus one
    /// unbounded [`Heap::major_slice`] — the same code path as the
    /// incremental collector, with identical copy order and placement.
    /// Returns `false` on to-space overflow (the heap is then finalized
    /// exhausted and the caller must end the run).
    fn collect_major<'r>(&mut self, roots: impl IntoIterator<Item = &'r mut u32>) -> bool {
        if !self.begin_major(roots) {
            return false;
        }
        self.major_slice(u64::MAX) == SliceOutcome::Done
    }

    /// Forwards one value during a major collection; `None` when the
    /// to-space overflowed.
    fn forward_major(&mut self, v: u32, free: &mut usize, limit: usize) -> Option<u32> {
        if !is_ptr(v) {
            return Some(v);
        }
        let at = Heap::idx_of(v);
        let young = Heap::in_range(at, self.n_base, self.nursery_words);
        if !young && !Heap::in_range(at, self.t_base, self.tenured_words) {
            return Some(v); // immortal
        }
        let desc = self.mem[at - 1];
        if desc & KIND_MASK == FORWARD {
            return Some(self.mem[at]);
        }
        let (kind, nscan, nraw) = decode(desc);
        let total = Heap::body_words(kind, nscan, nraw);
        if *free + total + 1 > limit {
            return None;
        }
        let new_at = *free + 1;
        self.mem[*free] = desc;
        for i in 0..total {
            self.mem[new_at + i] = self.mem[at + i];
        }
        *free = new_at + total;
        self.copied_words += (total + 1) as u64;
        if young {
            self.promoted_words += (total + 1) as u64;
        }
        let new_ptr = Heap::ptr_of(new_at);
        self.mem[at - 1] = FORWARD;
        self.mem[at] = new_ptr;
        Some(new_ptr)
    }

    /// Reads the word at `ptr + off` through the incremental-major read
    /// barrier: while a major collection is active, a loaded from-space
    /// pointer is evacuated on the spot and the slot healed, so the
    /// mutator only ever holds to-space pointers. Outside an active
    /// major this is exactly [`Heap::load`]. Barrier copy work is
    /// accumulated in a side counter (see [`Heap::take_barrier_words`])
    /// rather than attributed to any pause.
    #[inline]
    pub fn load_healed(&mut self, ptr: u32, off: usize) -> u32 {
        let slot = Heap::idx_of(ptr) + off;
        let v = self.mem[slot];
        if self.major.is_none() || !is_ptr(v) {
            return v;
        }
        self.heal(slot, v)
    }

    /// The read barrier proper: evacuates the from-space target of the
    /// pointer `v` loaded from `slot` and heals the slot.
    #[inline(never)]
    fn heal(&mut self, slot: usize, v: u32) -> u32 {
        let Some(m) = &self.major else {
            return v;
        };
        let at = Heap::idx_of(v);
        if !Heap::in_range(at, self.n_base, self.nursery_words)
            && !Heap::in_range(at, self.t_base, self.tenured_words)
        {
            return v; // already to-space or immortal
        }
        let (mut free, limit) = (m.free, m.limit);
        let before = self.copied_words;
        match self.forward_major(v, &mut free, limit) {
            Some(nv) => {
                self.major.as_mut().unwrap().free = free;
                self.pending_barrier += self.copied_words - before;
                self.mem[slot] = nv;
                nv
            }
            None => {
                // To-space overflow while healing: finalize. The stale
                // value still reads correctly (from-space data is
                // intact) and the next allocation traps the run.
                self.major.as_mut().unwrap().free = free;
                self.finalize_overflow();
                self.resolve(v)
            }
        }
    }

    /// Follows forwarding pointers to the current address of a value;
    /// the identity for everything except pointers to objects evacuated
    /// by a collection still in flight (or finalized after overflow).
    /// Read-only: callers that can write the slot back should prefer
    /// [`Heap::load_healed`].
    pub fn resolve(&self, v: u32) -> u32 {
        let mut v = v;
        // Forwarding chains are at most one hop deep in practice; the
        // bound makes malformed memory terminate instead of looping.
        for _ in 0..8 {
            if !is_ptr(v) {
                return v;
            }
            let at = Heap::idx_of(v);
            if at == 0 || at >= self.mem.len() || self.mem[at - 1] & KIND_MASK != FORWARD {
                return v;
            }
            v = self.mem[at];
        }
        v
    }

    /// Drains the words copied by the read barrier since the last call
    /// (the VM charges them to GC time outside any recorded pause).
    pub fn take_barrier_words(&mut self) -> u64 {
        std::mem::take(&mut self.pending_barrier)
    }

    /// True when the read barrier has copied words not yet drained by
    /// [`Heap::take_barrier_words`].
    #[inline]
    pub fn barrier_words_pending(&self) -> bool {
        self.pending_barrier != 0
    }

    /// Structural self-check: bump pointers inside their spaces,
    /// counters mutually consistent, remembered slots in tenured space,
    /// and both collected spaces linearly scannable (valid descriptors,
    /// bodies in bounds, no forwarding pointers left in live spaces),
    /// and the nursery limit the one its state gives. Tests use it to
    /// assert the heap is left well-formed — in particular after a
    /// major-collection overflow finalization.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.static_free > self.static_end {
            return Err("static region overran".into());
        }
        let n_hi = self.n_base + self.nursery_words;
        if self.n_free < self.n_base || self.n_free > n_hi {
            return Err(format!(
                "nursery bump {} outside [{}, {n_hi}]",
                self.n_free, self.n_base
            ));
        }
        let t_hi = self.t_base + self.tenured_words;
        if self.t_free < self.t_base || self.t_free > t_hi {
            return Err(format!(
                "tenured bump {} outside [{}, {t_hi}]",
                self.t_free, self.t_base
            ));
        }
        if self.n_gcs != self.n_minor_gcs + self.n_major_gcs {
            return Err("collection counters disagree".into());
        }
        if self.copied_words < self.promoted_words {
            return Err("promoted more words than were copied".into());
        }
        if (self.remembered.len() as u64) > self.rs_peak {
            return Err("remembered set above its recorded peak".into());
        }
        if self.young_limit != self.young_limit_now() {
            return Err(format!(
                "nursery allocation limit {} where the heap's state gives {}",
                self.young_limit,
                self.young_limit_now()
            ));
        }
        for &slot in &self.remembered {
            if !self.in_tenured(slot) {
                return Err(format!("remembered slot {slot} not in tenured space"));
            }
        }
        if self.major.is_none() {
            // Mid-collection the to-space tail beyond `scan` is still
            // being produced; only quiescent heaps are walked.
            self.check_walk(self.n_base, self.n_free, "nursery")?;
            self.check_walk(self.t_base, self.t_free, "tenured")?;
        }
        Ok(())
    }

    /// Walks `[base, end)` as a sequence of objects.
    fn check_walk(&self, base: usize, end: usize, what: &str) -> Result<(), String> {
        let mut at = base;
        while at < end {
            let desc = self.mem[at];
            let (kind, nscan, nraw) = decode(desc);
            if kind == FORWARD {
                return Err(format!("forwarding pointer in live {what} space at {at}"));
            }
            if kind > ObjKind::BoxedFloat as u32 {
                return Err(format!("bad object kind {kind} in {what} space at {at}"));
            }
            let body = Heap::body_words(kind, nscan, nraw);
            if at + 1 + body > end {
                return Err(format!(
                    "object at {at} overruns {what} space ({body} body words)"
                ));
            }
            for i in 0..Heap::scanned_fields(kind, nscan) {
                let v = self.mem[at + 1 + i];
                if is_ptr(v) && Heap::idx_of(v) >= self.mem.len() {
                    return Err(format!("field {i} of object at {at} points off-heap"));
                }
            }
            at += 1 + body;
        }
        Ok(())
    }

    /// Structural equality on standard-representation values; returns
    /// the verdict and the number of words visited (the runtime cost).
    pub fn poly_eq(&self, a: u32, b: u32) -> (bool, u64) {
        let mut cost = 1u64;
        let eq = self.peq(a, b, &mut cost, 0);
        (eq, cost)
    }

    fn peq(&self, a: u32, b: u32, cost: &mut u64, depth: u32) -> bool {
        *cost += 1;
        // During an active incremental major one of the values may have
        // been evacuated already; compare canonical addresses so
        // identity (and Ref equality) is stable across evacuation.
        let (a, b) = (self.resolve(a), self.resolve(b));
        if a == b {
            return true;
        }
        if depth > 10_000 {
            return false; // pathological; give up (circular refs are eq by ptr)
        }
        if !is_ptr(a) || !is_ptr(b) {
            return false;
        }
        let (ka, sa, ra) = decode(self.desc(a));
        let (kb, sb, rb) = decode(self.desc(b));
        if ka != kb {
            return false;
        }
        if ka == ObjKind::Ref as u32 || ka == ObjKind::Array as u32 {
            return false; // identity compared above
        }
        if ka == ObjKind::Str as u32 {
            let la = self.string_len(a);
            if la != self.string_len(b) {
                return false;
            }
            *cost += la as u64 / 4 + 1;
            return (0..la).all(|i| self.string_byte(a, i) == self.string_byte(b, i));
        }
        if ka == ObjKind::BoxedFloat as u32 {
            *cost += 2;
            return self.load_f64(a, 0) == self.load_f64(b, 0);
        }
        // Records: scanned fields recursively, raw words bitwise.
        if sa != sb || ra != rb {
            return false;
        }
        for i in 0..sa as usize {
            if !self.peq(self.load(a, i), self.load(b, i), cost, depth + 1) {
                return false;
            }
        }
        for i in 0..(ra * 2) as usize {
            *cost += 1;
            if self.load(a, sa as usize + i) != self.load(b, sb as usize + i) {
                return false;
            }
        }
        true
    }
}

/// One minor collection's Cheney state: the heap's memory, ages and
/// remembered set, borrowed apart from its counters, with the copy
/// frontiers and the copy counts in fields that
/// [`Heap::collect_minor`] folds back at the end.
struct Minor<'h> {
    mem: &'h mut [u32],
    /// Per nursery body index, relative to `static_end`.
    ages: &'h mut [u8],
    remembered: &'h mut Vec<usize>,
    rs_member: &'h mut HashSet<usize>,
    static_end: usize,
    /// The nursery half being evacuated, and the one copied into.
    from_base: usize,
    to_base: usize,
    nursery_words: usize,
    promote_after: u32,
    /// The end of the tenured from-space: promotion's bound.
    t_limit: usize,
    /// Copy frontiers in the nursery to-space and in tenured space.
    n_free: usize,
    t_free: usize,
    copied: u64,
    promoted: u64,
}

impl Minor<'_> {
    /// True when `v` points into the nursery to-space: a slot holding
    /// it must stay remembered.
    #[inline(always)]
    fn young(&self, v: u32) -> bool {
        is_ptr(v) && Heap::idx_of(v).wrapping_sub(self.to_base) < self.nursery_words
    }

    fn remember(&mut self, slot: usize) {
        if self.rs_member.insert(slot) {
            self.remembered.push(slot);
        }
    }

    /// Forwards every remembered slot, keeping, in their order, the ones
    /// whose target is still young: the only tenured words a minor
    /// collection visits.
    fn forward_remembered(&mut self) {
        self.rs_member.clear();
        let mut kept = 0;
        for i in 0..self.remembered.len() {
            let slot = self.remembered[i];
            let nv = self.forward(self.mem[slot]);
            self.mem[slot] = nv;
            if self.young(nv) {
                self.rs_member.insert(slot);
                self.remembered[kept] = slot;
                kept += 1;
            }
        }
        self.remembered.truncate(kept);
    }

    /// Scans one copied object; `promoted` marks objects in tenured
    /// space, whose still-young fields must join the remembered set.
    /// Returns the next scan position.
    #[inline(always)]
    fn scan(&mut self, at: usize, promoted: bool) -> usize {
        let (kind, nscan, nraw) = decode(self.mem[at]);
        let fields = at + 1;
        for slot in fields..fields + Heap::scanned_fields(kind, nscan) {
            let nv = self.forward(self.mem[slot]);
            self.mem[slot] = nv;
            if promoted && self.young(nv) {
                self.remember(slot);
            }
        }
        fields + Heap::body_words(kind, nscan, nraw)
    }

    /// Evacuates the nursery object `v` points to, once, and returns its
    /// new address; any other value is returned as it is.
    #[inline(always)]
    fn forward(&mut self, v: u32) -> u32 {
        let at = Heap::idx_of(v);
        if !is_ptr(v) || at.wrapping_sub(self.from_base) >= self.nursery_words {
            return v; // not a pointer; static, tenured, or already evacuated
        }
        let desc = self.mem[at - 1];
        if desc & KIND_MASK == FORWARD {
            return self.mem[at]; // already copied; new addr in field 0
        }
        let (kind, nscan, nraw) = decode(desc);
        let total = Heap::body_words(kind, nscan, nraw);
        let age = self.ages[at - self.static_end].saturating_add(1);
        // Promotion needs `total` body words plus the descriptor.
        let new_at = if u32::from(age) >= self.promote_after && total < self.t_limit - self.t_free {
            let na = self.t_free + 1;
            self.t_free += total + 1;
            self.promoted += (total + 1) as u64;
            na
        } else {
            // Not old enough — or tenured space is full, in which case
            // the object stays young: survivors always fit in the
            // to-space, so a minor collection cannot fail.
            let na = self.n_free + 1;
            self.n_free += total + 1;
            self.ages[na - self.static_end] = age;
            na
        };
        self.mem[new_at - 1] = desc;
        if total <= 4 {
            // Most bodies are a few words; `copy_within` would be a
            // `memmove` call for each.
            for i in 0..total {
                self.mem[new_at + i] = self.mem[at + i];
            }
        } else {
            self.mem.copy_within(at..at + total, new_at);
        }
        self.copied += (total + 1) as u64;
        let new_ptr = Heap::ptr_of(new_at);
        self.mem[at - 1] = FORWARD;
        self.mem[at] = new_ptr;
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen_heap(nursery: usize, tenured: usize) -> Heap {
        Heap::new(&HeapConfig {
            mode: GcMode::Generational,
            nursery_words: nursery,
            tenured_words: tenured,
            promote_after: 2,
            static_words: 128,
            max_pause_cycles: 0,
        })
    }

    fn semi_heap(tenured: usize, trigger: usize) -> Heap {
        Heap::new(&HeapConfig {
            mode: GcMode::Semispace,
            nursery_words: trigger,
            tenured_words: tenured,
            promote_after: 2,
            static_words: 128,
            max_pause_cycles: 0,
        })
    }

    #[test]
    fn tagging_roundtrip() {
        assert_eq!(untag_int(tag_int(42)), 42);
        assert_eq!(untag_int(tag_int(-7)), -7);
        assert_eq!(untag_int(tag_int(0)), 0);
        assert!(!is_ptr(tag_int(5)));
    }

    #[test]
    fn descriptor_roundtrip() {
        let d = descriptor(ObjKind::Record, 3, 2);
        assert_eq!(decode(d), (0, 3, 2));
    }

    #[test]
    fn alloc_and_access() {
        let mut h = gen_heap(4096, 4096);
        let p = h.alloc(ObjKind::Record, 2, 1).unwrap();
        h.store(p, 0, tag_int(1));
        h.store(p, 1, tag_int(2));
        h.store_f64(p, 2, 3.25);
        assert_eq!(untag_int(h.load(p, 0)), 1);
        assert_eq!(h.load_f64(p, 2), 3.25);
        assert!(h.alloc_words >= 5);
    }

    #[test]
    fn strings() {
        let mut h = gen_heap(4096, 4096);
        let p = h.alloc_string("hello").unwrap();
        assert_eq!(h.read_string(p), "hello");
        assert_eq!(h.string_len(p), 5);
        assert_eq!(h.string_byte(p, 1), b'e');
        let q = h.alloc_static_string("lit");
        assert_eq!(h.read_string(q), "lit");
    }

    #[test]
    fn gc_preserves_structure() {
        let mut h = gen_heap(4096, 4096);
        let inner = h.alloc(ObjKind::Record, 1, 1).unwrap();
        h.store(inner, 0, tag_int(9));
        h.store_f64(inner, 1, 2.5);
        let outer = h.alloc(ObjKind::Record, 2, 0).unwrap();
        h.store(outer, 0, inner);
        h.store(outer, 1, tag_int(7));
        let mut root = outer;
        // Garbage to make the collection meaningful.
        for _ in 0..100 {
            h.alloc(ObjKind::Record, 2, 0).unwrap();
        }
        h.collect([&mut root], GcKind::Minor);
        assert_ne!(root, outer, "object moved");
        let inner2 = h.load(root, 0);
        assert_eq!(untag_int(h.load(root, 1)), 7);
        assert_eq!(untag_int(h.load(inner2, 0)), 9);
        assert_eq!(h.load_f64(inner2, 1), 2.5);
        assert!(h.copied_words >= 7);
        assert_eq!(h.n_gcs, 1);
        assert_eq!(h.n_minor_gcs, 1);
    }

    #[test]
    fn gc_shares_copies() {
        // Two roots to the same object stay shared.
        let mut h = gen_heap(4096, 4096);
        let obj = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(obj, 0, tag_int(5));
        let mut r1 = obj;
        let mut r2 = obj;
        h.collect([&mut r1, &mut r2], GcKind::Minor);
        assert_eq!(r1, r2);
    }

    #[test]
    fn gc_skips_static() {
        let mut h = gen_heap(4096, 4096);
        let s = h.alloc_static_string("immortal");
        let mut root = s;
        h.collect([&mut root], GcKind::Minor);
        assert_eq!(root, s, "static strings never move");
        h.collect([&mut root], GcKind::Major);
        assert_eq!(root, s);
        assert_eq!(h.read_string(root), "immortal");
    }

    #[test]
    fn has_room_agrees_with_alloc() {
        // The shared accounting predicate: has_room(want) answers
        // exactly whether the next alloc of that size succeeds, at every
        // fill level, including the zero-length padding case.
        for want in 0..4u32 {
            for (gen, mk) in [(true, 0), (false, 1)] {
                let mut h = if mk == 0 {
                    gen_heap(16, 16)
                } else {
                    semi_heap(16, 1 << 20)
                };
                loop {
                    let room = h.has_room(want as usize);
                    let got = h.alloc(ObjKind::Record, want, 0);
                    assert_eq!(room, got.is_some(), "want={want} gen={gen}");
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
        // The one-compare nursery bump: it succeeds exactly when there
        // is room, the target is the nursery and no major is active, in
        // every state a heap passes through.
        let mut h = gen_heap(16, 64);
        let mut root = build_list(&mut h, 2);
        for _ in 0..4 {
            check_young(&mut h, "fresh");
        }
        h.collect([&mut root], GcKind::Minor);
        check_young(&mut h, "post-minor");
        assert!(h.begin_major([&mut root]));
        check_young(&mut h, "flipped");
        assert_eq!(h.major_slice(1), SliceOutcome::More);
        check_young(&mut h, "mid-major");
        while h.major_slice(u64::MAX) != SliceOutcome::Done {}
        check_young(&mut h, "post-major");
        assert_eq!(list_sum(&h, root), 1);
        let mut h = gen_heap(256, 64);
        let mut root = build_list(&mut h, 40);
        assert!(!h.collect([&mut root], GcKind::Major));
        check_young(&mut h, "overflowed");
        check_young(&mut semi_heap(64, 1 << 20), "semispace");
    }

    /// Sweeps [`Heap::bump_young`] over small and oversized requests,
    /// checking each against [`Heap::has_room`], the target space and
    /// the major state, and the heap (its nursery limit included)
    /// consistent before and after.
    fn check_young(h: &mut Heap, what: &str) {
        h.check_consistency().unwrap();
        for want in [0, 1, 2, 3, 15, 16] {
            let young = h.has_room(want)
                && matches!(h.target_space(want), Space::Nursery)
                && !h.major_active();
            let got = h.bump_young(want);
            assert_eq!(got.is_some(), young, "{what}: want={want}");
            if let Some(at) = got {
                h.mem[at - 1] = descriptor(ObjKind::Record, want as u32, 0);
                h.mem[at..at + want].fill(tag_int(0));
            }
        }
        h.check_consistency().unwrap();
    }

    #[test]
    fn exactly_full_nursery() {
        let mut h = gen_heap(6, 64);
        assert!(h.alloc(ObjKind::Record, 2, 0).is_some()); // 3 words
        assert!(h.alloc(ObjKind::Record, 2, 0).is_some()); // nursery exactly full
        assert!(!h.has_room(0));
        assert!(h.needs_gc(0));
        assert!(h.alloc(ObjKind::Record, 0, 0).is_none());
        // Objects that can never fit the nursery pre-tenure instead.
        let big = h.alloc(ObjKind::Record, 10, 0).unwrap();
        assert!(h.is_tenured_ptr(big));
    }

    #[test]
    fn zero_field_objects_survive_collection() {
        let mut h = gen_heap(64, 64);
        let p = h.alloc(ObjKind::Record, 0, 0).unwrap();
        let q = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(q, 0, p);
        assert_eq!(h.alloc_words, 4, "empty objects pad to one body word");
        let (mut r1, mut r2) = (p, q);
        h.collect([&mut r1, &mut r2], GcKind::Minor);
        assert_eq!(h.load(r2, 0), r1, "sharing survives via the pad word");
        h.collect([&mut r1, &mut r2], GcKind::Major);
        assert_eq!(h.load(r2, 0), r1);
    }

    #[test]
    fn empty_and_max_strings() {
        let mut h = gen_heap(1 << 13, 1 << 14);
        let e = h.alloc_string("").unwrap();
        assert_eq!(h.read_string(e), "");
        assert_eq!(h.string_len(e), 0);
        let big = "x".repeat(Heap::MAX_STRING_BYTES);
        let p = h.alloc_string(&big).unwrap();
        // 8192 body words + descriptor exceed the 8192-word nursery.
        assert!(h.is_tenured_ptr(p), "oversized strings pre-tenure");
        let mut roots = [e, p];
        {
            let [r0, r1] = &mut roots;
            h.collect([r0, r1], GcKind::Minor);
        }
        assert_eq!(h.read_string(roots[0]), "");
        assert_eq!(roots[1], p, "tenured objects do not move in a minor");
        assert_eq!(h.read_string(roots[1]), big);
    }

    #[test]
    fn max_array_survives_major() {
        let mut h = gen_heap(256, 1 << 16);
        let n = Heap::MAX_ARRAY_LEN as u32;
        let p = h.alloc(ObjKind::Array, n, 0).unwrap();
        for i in 0..n as usize {
            h.store(p, i, tag_int(1));
        }
        let mut root = p;
        assert!(h.collect([&mut root], GcKind::Major));
        assert_eq!(decode(h.desc(root)).1, n);
        assert_eq!(untag_int(h.load(root, n as usize - 1)), 1);
    }

    #[test]
    fn promotion_after_surviving_minors() {
        let mut h = gen_heap(64, 256);
        let p = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(p, 0, tag_int(42));
        let mut root = p;
        h.collect([&mut root], GcKind::Minor);
        assert!(!h.is_tenured_ptr(root), "one survival: still young");
        assert_eq!(h.promoted_words, 0);
        h.collect([&mut root], GcKind::Minor);
        assert!(h.is_tenured_ptr(root), "promote_after=2 survivals");
        assert_eq!(h.promoted_words, 2, "one field plus descriptor");
        assert_eq!(untag_int(h.load(root, 0)), 42);
        // With everything tenured, a minor collection copies nothing.
        let before = h.copied_words;
        h.collect([&mut root], GcKind::Minor);
        assert_eq!(h.copied_words, before, "minors never scan tenured");
    }

    #[test]
    fn write_barrier_keeps_young_reachable() {
        let mut h = gen_heap(64, 256);
        let r = h.alloc(ObjKind::Ref, 1, 0).unwrap();
        h.store(r, 0, tag_int(0));
        let mut root = r;
        h.collect([&mut root], GcKind::Minor);
        h.collect([&mut root], GcKind::Minor);
        assert!(h.is_tenured_ptr(root));
        let young = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(young, 0, tag_int(7));
        assert!(h.would_need_barrier(root, young));
        h.store_barriered(root, 0, young);
        assert_eq!(h.remembered_len(), 1);
        // The young object is reachable only through the remembered
        // slot: the minor collection must still find and move it.
        h.collect([&mut root], GcKind::Minor);
        let moved = h.load(root, 0);
        assert!(is_ptr(moved) && !h.is_tenured_ptr(moved));
        assert_eq!(untag_int(h.load(moved, 0)), 7);
        assert_eq!(h.remembered_len(), 1, "slot re-remembered while young");
        // Once the target promotes, the slot leaves the remembered set.
        h.collect([&mut root], GcKind::Minor);
        assert!(h.is_tenured_ptr(h.load(root, 0)));
        assert_eq!(h.remembered_len(), 0);
        assert!(h.rs_peak >= 1);
    }

    #[test]
    fn major_collect_reports_overflow() {
        let mut h = gen_heap(256, 64);
        let mut head = tag_int(0);
        for i in 0..40 {
            let cell = h.alloc(ObjKind::Record, 2, 0).unwrap();
            h.store(cell, 0, tag_int(i));
            h.store(cell, 1, head);
            head = cell;
        }
        // 120 live words cannot fit a 64-word tenured semispace.
        let mut root = head;
        assert!(!h.collect([&mut root], GcKind::Major));
    }

    #[test]
    fn semispace_mode_full_collections() {
        let mut h = semi_heap(1 << 16, 64);
        assert!(!h.needs_gc(10));
        for _ in 0..30 {
            h.alloc(ObjKind::Record, 2, 0).unwrap();
        }
        assert!(h.needs_gc(10), "allocation schedule elapsed");
        let obj = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(obj, 0, tag_int(5));
        let mut root = obj;
        h.collect([&mut root], GcKind::Minor);
        assert_ne!(root, obj, "semispace collections move everything");
        assert_eq!(untag_int(h.load(root, 0)), 5);
        assert_eq!(h.n_major_gcs, 1, "minor degrades to a full collection");
        assert_eq!(h.n_minor_gcs, 0);
        assert_eq!(h.promoted_words, 0);
        assert!(!h.needs_gc(10), "schedule reset");
    }

    /// Builds the same linked list in a fresh heap: `n` cons cells of
    /// `[tag_int(i), next]`, head returned. Deterministic, so two heaps
    /// built this way are word-for-word identical.
    fn build_list(h: &mut Heap, n: i64) -> u32 {
        let mut head = tag_int(0);
        for i in 0..n {
            let cell = h.alloc(ObjKind::Record, 2, 0).unwrap();
            h.store(cell, 0, tag_int(i));
            h.store(cell, 1, head);
            head = cell;
        }
        head
    }

    fn list_sum(h: &Heap, mut p: u32) -> i64 {
        let mut sum = 0;
        while is_ptr(p) {
            let p2 = h.resolve(p);
            sum += untag_int(h.load(p2, 0));
            p = h.load(p2, 1);
        }
        sum
    }

    #[test]
    fn incremental_major_matches_stw() {
        // Same graph, same roots: slicing must not change the copy
        // count, promotion count, placement, or surviving data.
        let mut stw = gen_heap(256, 4096);
        let mut inc = gen_heap(256, 4096);
        let mut r1 = build_list(&mut stw, 50);
        let mut r2 = build_list(&mut inc, 50);
        assert!(stw.collect([&mut r1], GcKind::Major));
        assert!(inc.begin_major([&mut r2]));
        let mut slices = 0;
        loop {
            match inc.major_slice(8) {
                SliceOutcome::Done => break,
                SliceOutcome::More => slices += 1,
                SliceOutcome::Overflow => panic!("unexpected overflow"),
            }
            assert!(slices < 1000, "slice loop diverged");
        }
        assert!(slices > 1, "budget of 8 words must take many slices");
        assert_eq!(stw.copied_words, inc.copied_words);
        assert_eq!(stw.promoted_words, inc.promoted_words);
        assert_eq!(stw.n_major_gcs, inc.n_major_gcs);
        assert_eq!(r1, r2, "identical placement");
        assert_eq!(list_sum(&stw, r1), list_sum(&inc, r2));
        inc.check_consistency().unwrap();
    }

    #[test]
    fn slice_budget_bounds_copy_work() {
        let mut h = gen_heap(256, 4096);
        let mut root = build_list(&mut h, 60);
        assert!(h.begin_major([&mut root]));
        loop {
            let before = h.copied_words;
            let out = h.major_slice(10);
            let copied = h.copied_words - before;
            // Overshoot is at most the one object in flight (3 words).
            assert!(copied <= 10 + 3, "slice copied {copied} words");
            if out == SliceOutcome::Done {
                break;
            }
        }
        assert_eq!(list_sum(&h, root), (0..60).sum::<i64>());
    }

    #[test]
    fn black_allocation_during_major() {
        let mut h = gen_heap(256, 4096);
        let mut root = build_list(&mut h, 40);
        assert!(h.begin_major([&mut root]));
        assert!(h.major_slice(4) == SliceOutcome::More);
        // Mutator allocates while the collection is paused: the object
        // must land in to-space (black) and survive the rest.
        let p = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(p, 0, tag_int(99));
        assert!(h.major_active());
        while h.major_slice(16) != SliceOutcome::Done {}
        assert!(h.is_tenured_ptr(p));
        assert_eq!(untag_int(h.load(p, 0)), 99);
        assert_eq!(list_sum(&h, root), (0..40).sum::<i64>());
        h.check_consistency().unwrap();
    }

    #[test]
    fn read_barrier_heals_from_space_loads() {
        let mut h = gen_heap(256, 4096);
        // outer → inner, both in the nursery; only outer is a root, so
        // after the flip inner is still in from-space.
        let inner = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(inner, 0, tag_int(7));
        let outer = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(outer, 0, inner);
        let mut root = outer;
        assert!(h.begin_major([&mut root]));
        // No slice has run: outer is copied (root), inner is not.
        let healed = h.load_healed(root, 0);
        assert_ne!(healed, inner, "barrier must evacuate the target");
        assert!(h.is_tenured_ptr(healed));
        assert_eq!(h.load(root, 0), healed, "slot healed in place");
        assert_eq!(untag_int(h.load(healed, 0)), 7);
        assert!(h.take_barrier_words() >= 2);
        assert_eq!(h.take_barrier_words(), 0, "drain resets");
        // Idempotent: a second load through the barrier copies nothing.
        assert_eq!(h.load_healed(root, 0), healed);
        assert_eq!(h.take_barrier_words(), 0);
        while h.major_slice(u64::MAX) != SliceOutcome::Done {}
        h.check_consistency().unwrap();
    }

    #[test]
    fn overflow_leaves_consistent_exhausted_heap() {
        // Near-full tenured space *and* a live remembered set — the
        // regression shape for incomplete-major finalization.
        let mut h = gen_heap(128, 128);
        let mut root = build_list(&mut h, 20); // 60 live words
        h.collect([&mut root], GcKind::Minor);
        h.collect([&mut root], GcKind::Minor); // list now tenured
        let young = h.alloc(ObjKind::Record, 1, 0).unwrap();
        h.store(young, 0, tag_int(5));
        // Overwrite the head's int field (not the next pointer — the
        // tail must stay live) with a tenured→nursery edge.
        h.store_barriered(root, 0, young);
        assert_eq!(h.remembered_len(), 1);
        // Grow the live set past one tenured semispace:
        // 60 + 2 + 120 = 182 live words > 128.
        let mut extra = build_list(&mut h, 40);
        assert!(!h.collect([&mut root, &mut extra], GcKind::Major));
        assert!(h.is_exhausted());
        h.check_consistency()
            .expect("heap must be consistent after overflow finalization");
        assert!(!h.has_room(0), "exhausted heap never has room");
        assert!(h.alloc(ObjKind::Record, 0, 0).is_none());
        assert_eq!(h.remembered_len(), 0, "remembered set cleared");
        // Copied data is still readable through resolve().
        let r = h.resolve(root);
        if is_ptr(r) {
            let _ = untag_int(h.load(r, 0));
        }
    }

    #[test]
    fn pause_budget_clamps_nursery() {
        let h = Heap::new(&HeapConfig {
            mode: GcMode::Generational,
            nursery_words: 64 * 1024,
            tenured_words: 1 << 16,
            promote_after: 2,
            static_words: 128,
            max_pause_cycles: 4_150,
        });
        // (4150 - 150) / 4 = 1000 words: full-survival copy cost
        // 3*1000 plus the 150 fixed cost leaves 850 cycles of slack.
        assert_eq!(h.nursery_capacity(), 1000);
        let h2 = Heap::new(&HeapConfig {
            mode: GcMode::Generational,
            nursery_words: 64 * 1024,
            tenured_words: 1 << 16,
            promote_after: 2,
            static_words: 128,
            max_pause_cycles: 0,
        });
        assert_eq!(h2.nursery_capacity(), 64 * 1024, "no budget, no clamp");
        assert_eq!(Heap::slice_words(0), u64::MAX);
        assert_eq!(Heap::slice_words(2_000), 300);
        assert!(Heap::slice_words(1) >= 1);
    }

    #[test]
    fn semispace_incremental_full_collection() {
        // The slice machinery is mode-independent: semispace "majors"
        // (which are every collection) slice the same way.
        let mut h = semi_heap(1 << 12, 1 << 20);
        let mut root = build_list(&mut h, 30);
        assert!(h.begin_major([&mut root]));
        let mut slices = 1;
        while h.major_slice(8) != SliceOutcome::Done {
            slices += 1;
            assert!(slices < 1000);
        }
        assert!(slices > 1);
        assert_eq!(list_sum(&h, root), (0..30).sum::<i64>());
        assert_eq!(h.promoted_words, 0, "semispace never promotes");
        h.check_consistency().unwrap();
    }

    #[test]
    fn poly_eq_cases() {
        let mut h = gen_heap(4096, 4096);
        let a = h.alloc(ObjKind::Record, 1, 1).unwrap();
        h.store(a, 0, tag_int(1));
        h.store_f64(a, 1, 2.5);
        let b = h.alloc(ObjKind::Record, 1, 1).unwrap();
        h.store(b, 0, tag_int(1));
        h.store_f64(b, 1, 2.5);
        let c = h.alloc(ObjKind::Record, 1, 1).unwrap();
        h.store(c, 0, tag_int(1));
        h.store_f64(c, 1, 9.0);
        assert!(h.poly_eq(a, b).0);
        assert!(!h.poly_eq(a, c).0);
        let s1 = h.alloc_string("abc").unwrap();
        let s2 = h.alloc_string("abc").unwrap();
        let s3 = h.alloc_string("abd").unwrap();
        assert!(h.poly_eq(s1, s2).0);
        assert!(!h.poly_eq(s1, s3).0);
        // Refs compare by identity.
        let r1 = h.alloc(ObjKind::Ref, 1, 0).unwrap();
        let r2 = h.alloc(ObjKind::Ref, 1, 0).unwrap();
        h.store(r1, 0, tag_int(1));
        h.store(r2, 0, tag_int(1));
        assert!(!h.poly_eq(r1, r2).0);
        assert!(h.poly_eq(r1, r1).0);
    }
}
