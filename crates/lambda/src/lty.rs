//! Lambda types (LTY) with static hash-consing (paper §4.1, §4.5).
//!
//! An [`Lty`] is a handle into one compile's [`LtyInterner`]: the index
//! of its kind in the interner's table, which grows in the order the
//! compile first touches each kind. With hash-consing enabled (the
//! default), structurally equal types share one handle, so the equality
//! test at the head of `coerce` is a constant-time integer comparison —
//! the optimization the paper calls "crucial for the efficient
//! compilation of functor applications" (§4.5). The paper keeps one
//! global static hash table; here every compile owns one, so a handle,
//! and every counter in [`LtyStats`], is a pure function of the program
//! being compiled.
//!
//! The interner can be switched to [`InternMode::Structural`] to
//! reproduce the paper's no-hash-consing compile-time blowup (see the
//! `ablation_hashcons` bench).

use std::collections::HashMap;
use std::fmt;

/// A hash-consed lambda type: an index into the [`LtyInterner`] that
/// issued it.
///
/// Under hash-consing, handle equality is structural equality — the
/// constant-time test of paper §4.1. Handles are meaningful only to the
/// interner that issued them; they are never serialized and never reach
/// generated code.
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
    /// Static hash-consing: equal kinds get one handle, and equality is
    /// handle equality.
    HashCons,
    /// No dedup: every `intern` appends a new handle, and equality is a
    /// deep structural walk. Only for the ablation experiment.
    Structural,
}

/// A point-in-time snapshot of an interner's statistics, cheap to copy
/// out of the pipeline into `CompileStats`-level reporting. An interner
/// serves one compile, so these describe that compile alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LtyStats {
    /// Number of types in the table (first touches).
    pub interned: usize,
    /// Total `intern` calls.
    pub intern_calls: u64,
    /// Calls that repeated a type already in the table.
    pub hashcons_hits: u64,
    /// Calls that added a type to the table. Always equals `interned`.
    pub hashcons_misses: u64,
    /// Deep structural comparisons (structural mode only).
    pub deep_compares: u64,
}

impl LtyStats {
    /// Fraction of `intern` calls served from the table, in `[0, 1]`;
    /// `0.0` before any call.
    pub fn hit_rate(&self) -> f64 {
        if self.intern_calls == 0 {
            0.0
        } else {
            self.hashcons_hits as f64 / self.intern_calls as f64
        }
    }
}

/// The atoms every interner interns first, so their handles are
/// `Lty(0)` to `Lty(4)` in this order (the `int`/`real`/`boxed`/
/// `rboxed`/`bottom` helpers rely on it).
const ATOMS: [LtyKind; 5] = [
    LtyKind::Int,
    LtyKind::Real,
    LtyKind::Boxed,
    LtyKind::RBoxed,
    LtyKind::Bottom,
];

/// One compile's lambda-type store: a table of kinds that an [`Lty`]
/// indexes.
///
/// In [`InternMode::HashCons`] an index from kind to handle makes
/// structurally equal types one handle. In [`InternMode::Structural`]
/// every `intern` appends, reproducing the representation the paper
/// ablates against.
#[derive(Debug)]
pub struct LtyInterner {
    mode: InternMode,
    /// Every interned kind, indexed by handle.
    kinds: Vec<LtyKind>,
    /// Kind → handle (`HashCons` mode only).
    index: HashMap<LtyKind, Lty>,
    /// Statistics: number of `intern` calls (ablation metric).
    pub intern_calls: u64,
    /// Statistics: `intern` calls that repeated a kind already in the
    /// table. Always zero in structural mode.
    pub hashcons_hits: u64,
    /// Statistics: `intern` calls that added a kind to the table. In
    /// structural mode every call is a miss.
    pub hashcons_misses: u64,
    /// Statistics: number of deep equality comparisons performed in
    /// structural mode.
    pub deep_compares: u64,
}

impl LtyInterner {
    /// Creates an interner holding the atoms.
    pub fn new(mode: InternMode) -> LtyInterner {
        let mut i = LtyInterner {
            mode,
            kinds: Vec::new(),
            index: HashMap::new(),
            intern_calls: 0,
            hashcons_hits: 0,
            hashcons_misses: 0,
            deep_compares: 0,
        };
        for kind in ATOMS {
            i.intern(kind);
        }
        i
    }

    /// Interns a kind, returning its handle.
    pub fn intern(&mut self, kind: LtyKind) -> Lty {
        self.intern_calls = self.intern_calls.saturating_add(1);
        let t = Lty(u32::try_from(self.kinds.len()).expect("LTY table overflow"));
        if self.mode == InternMode::HashCons {
            if let Some(&old) = self.index.get(&kind) {
                self.hashcons_hits = self.hashcons_hits.saturating_add(1);
                return old;
            }
            self.index.insert(kind.clone(), t);
        }
        self.hashcons_misses += 1;
        self.kinds.push(kind);
        t
    }

    /// Counts `n` `intern` calls that a cache above the table answered,
    /// each of which would have repeated a kind already in the table
    /// (hash-consing mode only; see `translate`'s type memo).
    ///
    /// The call and hit counts saturate: a type shared deeply enough
    /// stands for more calls as a tree than a `u64` holds.
    pub fn count_repeats(&mut self, n: u64) {
        self.intern_calls = self.intern_calls.saturating_add(n);
        self.hashcons_hits = self.hashcons_hits.saturating_add(n);
    }

    /// Fraction of `intern` calls served from the table, in `[0, 1]`;
    /// `0.0` before any call.
    pub fn hit_rate(&self) -> f64 {
        self.stats().hit_rate()
    }

    /// A copyable snapshot of this interner's statistics.
    pub fn stats(&self) -> LtyStats {
        LtyStats {
            interned: self.len(),
            intern_calls: self.intern_calls,
            hashcons_hits: self.hashcons_hits,
            hashcons_misses: self.hashcons_misses,
            deep_compares: self.deep_compares,
        }
    }

    /// The structure of `t`.
    pub fn kind(&self, t: Lty) -> &LtyKind {
        &self.kinds[t.0 as usize]
    }

    /// `INTty`.
    pub fn int(&self) -> Lty {
        Lty(0)
    }

    /// `REALty`.
    pub fn real(&self) -> Lty {
        Lty(1)
    }

    /// `BOXEDty`.
    pub fn boxed(&self) -> Lty {
        Lty(2)
    }

    /// `RBOXEDty`.
    pub fn rboxed(&self) -> Lty {
        Lty(3)
    }

    /// The bottom type (non-returning expressions).
    pub fn bottom(&self) -> Lty {
        Lty(4)
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

    /// Number of types in the table (statistics).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True if no types are interned (never, in practice — every
    /// interner holds the atoms).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
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

    /// Handles are table indices in first-touch order, starting with the
    /// atoms the `int`..`bottom` helpers return.
    #[test]
    fn handles_are_first_touch_indices() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let atoms = [i.int(), i.real(), i.boxed(), i.rboxed(), i.bottom()];
        assert_eq!(atoms, [Lty(0), Lty(1), Lty(2), Lty(3), Lty(4)]);
        assert_eq!(atoms.map(|t| i.kind(t).clone()), ATOMS);
        let a = i.record(vec![i.int(), i.real()]);
        let b = i.arrow(a, i.boxed());
        let again = i.record(vec![i.int(), i.real()]);
        let c = i.srecord(vec![a, b, i.rboxed()]);
        assert_eq!([a, b, again, c], [Lty(5), Lty(6), Lty(5), Lty(7)]);
        assert_eq!(i.len(), 8);
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
        assert_eq!(i.hashcons_misses as usize, i.len());
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
}
