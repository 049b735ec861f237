//! The `coerce` compilation function (paper §4.2) with memo-ized
//! module-level coercions (paper §4.5).
//!
//! `coerce(t1, t2)` produces a lambda-term transformer converting a value
//! with representation `t1` into one with representation `t2`:
//!
//! * equal types need no coercion (a constant-time handle comparison:
//!   LTYs are hash-consed in the compile's [`crate::lty::LtyInterner`],
//!   so equal structure means equal handle);
//! * `BOXED` on either side is a primitive `WRAP`/`UNWRAP`;
//! * `RBOXED` recursively coerces through `dup` (Leroy-style recursive
//!   wrapping);
//! * records coerce fieldwise; functions get wrapper lambdas.

use crate::lexp::{LVar, Lexp};
use crate::lty::{Lty, LtyInterner, LtyKind};
use sml_ast::FxHashMap;

/// A fresh-variable generator for the lambda language.
#[derive(Debug, Default)]
pub struct VarGen(u32);

impl VarGen {
    /// Starts at `first` (so translated `VarId`s can be mapped densely).
    pub fn new() -> VarGen {
        VarGen(0)
    }

    /// A fresh variable.
    pub fn fresh(&mut self) -> LVar {
        let v = self.0;
        self.0 += 1;
        v
    }
}

/// Counters describing the coercions a translation inserted.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoerceStats {
    /// Total `coerce` requests.
    pub requests: u64,
    /// Requests that were identities (no code emitted).
    pub identities: u64,
    /// Wrap/unwrap primitives emitted.
    pub wraps: u64,
    /// Function wrappers emitted.
    pub fn_wrappers: u64,
    /// Record rebuilds emitted.
    pub record_rebuilds: u64,
    /// Shared (memo-ized) coercion applications.
    pub shared_hits: u64,
}

impl CoerceStats {
    /// Every counter as a `(name, value)` pair, in declaration order.
    /// The single source of truth for metric emitters — a field added
    /// here is automatically picked up by `--stats=json`.
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("requests", self.requests),
            ("identities", self.identities),
            ("wraps", self.wraps),
            ("fn_wrappers", self.fn_wrappers),
            ("record_rebuilds", self.record_rebuilds),
            ("memo_hits", self.shared_hits),
        ]
    }
}

/// True if converting `from` to `to` requires no code at all.
///
/// With tagged 31-bit integers, every one-word value (tagged int,
/// pointer to any record or closure) already *is* a valid `BOXED` value,
/// so `WRAP`/`UNWRAP` against `BOXED` is free for all word types —
/// exactly SML/NJ's situation, where `iwrap` "could apply the tag" but
/// the tag is always present (paper §5.1). Only floats need real boxing.
pub fn is_identity(i: &mut LtyInterner, from: Lty, to: Lty) -> bool {
    if i.same(from, to) {
        return true;
    }
    // Decide on the two kinds as they sit in the table, then recurse
    // once the borrow ends: the recursion may intern (`dup`).
    enum Next {
        Is(bool),
        Fields(usize),
        Arrows([Lty; 4]),
        DupTo,
        DupFrom,
    }
    let next = match (i.kind(from), i.kind(to)) {
        (LtyKind::Bottom, _) | (_, LtyKind::Bottom) => Next::Is(true),
        // Any one-word value is already BOXED; only floats need boxing.
        (a, LtyKind::Boxed) => Next::Is(!matches!(a, LtyKind::Real)),
        (LtyKind::Boxed, b) => Next::Is(!matches!(b, LtyKind::Real)),
        (LtyKind::Int, LtyKind::Int) | (LtyKind::Real, LtyKind::Real) => Next::Is(true),
        (LtyKind::Record(a), LtyKind::Record(b)) | (LtyKind::SRecord(a), LtyKind::SRecord(b)) => {
            if a.len() == b.len() {
                Next::Fields(a.len())
            } else {
                Next::Is(false)
            }
        }
        // A function wrapper is skippable only when both the values AND
        // the calling conventions agree: a record-typed argument position
        // is spread into registers, so it never identity-matches a
        // one-word argument position.
        (LtyKind::Arrow(a1, r1), LtyKind::Arrow(a2, r2)) => Next::Arrows([*a1, *a2, *r1, *r2]),
        (LtyKind::RBoxed, _) => Next::DupTo,
        (_, LtyKind::RBoxed) => Next::DupFrom,
        _ => Next::Is(false),
    };
    match next {
        Next::Is(b) => b,
        Next::Fields(n) => fields_identical(i, from, to, n),
        Next::Arrows([a1, a2, r1, r2]) => spread_compat(i, a1, a2) && spread_compat(i, r1, r2),
        Next::DupTo => {
            let d = i.dup(to);
            is_identity(i, d, to)
        }
        Next::DupFrom => {
            let d = i.dup(from);
            is_identity(i, from, d)
        }
    }
}

/// Field `k` of the record or structure record `t`.
fn field(i: &LtyInterner, t: Lty, k: usize) -> Lty {
    match i.kind(t) {
        LtyKind::Record(fs) | LtyKind::SRecord(fs) => fs[k],
        _ => unreachable!("a record"),
    }
}

/// Whether the first `n` fields of records `a` and `b` are identical
/// representations.
fn fields_identical(i: &mut LtyInterner, a: Lty, b: Lty, n: usize) -> bool {
    (0..n).all(|k| {
        let (x, y) = (field(i, a, k), field(i, b, k));
        is_identity(i, x, y)
    })
}

/// Whether two argument/result positions use the same register
/// convention *and* identical value representations.
fn spread_compat(i: &mut LtyInterner, x: Lty, y: Lty) -> bool {
    match (i.kind(x), i.kind(y)) {
        (LtyKind::Record(a), LtyKind::Record(b)) => {
            let n = a.len();
            n == b.len() && fields_identical(i, x, y, n)
        }
        (LtyKind::Record(_), _) | (_, LtyKind::Record(_)) => false,
        _ => is_identity(i, x, y),
    }
}

/// Emits code coercing `e : from` to representation `to`.
///
/// # Panics
///
/// Panics on structurally incompatible types, which indicates a compiler
/// bug upstream (elaboration guarantees compatible shapes).
pub fn coerce_exp(
    i: &mut LtyInterner,
    vg: &mut VarGen,
    stats: &mut CoerceStats,
    e: Lexp,
    from: Lty,
    to: Lty,
) -> Lexp {
    stats.requests += 1;
    if is_identity(i, from, to) {
        stats.identities += 1;
        return e;
    }
    coerce_inner(i, vg, stats, e, from, to)
}

/// Emits code coercing `e : from` to `to`, a pair [`is_identity`] has
/// just rejected.
fn coerce_inner(
    i: &mut LtyInterner,
    vg: &mut VarGen,
    stats: &mut CoerceStats,
    e: Lexp,
    from: Lty,
    to: Lty,
) -> Lexp {
    enum Next {
        DupTo,
        DupFrom,
        Wrap,
        Unwrap,
        Rebuild(usize, bool),
        Arrows([Lty; 4]),
        Incompatible,
    }
    let next = match (i.kind(from), i.kind(to)) {
        // RBOXED: recursively boxed; go through dup (paper §4.2).
        (LtyKind::RBoxed, _) => Next::DupTo,
        (_, LtyKind::RBoxed) => Next::DupFrom,
        // BOXED: primitive wrap/unwrap.
        (_, LtyKind::Boxed) => Next::Wrap,
        (LtyKind::Boxed, _) => Next::Unwrap,
        (LtyKind::Record(fs), LtyKind::Record(gs)) if fs.len() == gs.len() => {
            Next::Rebuild(fs.len(), false)
        }
        (LtyKind::SRecord(fs), LtyKind::SRecord(gs)) if fs.len() == gs.len() => {
            Next::Rebuild(fs.len(), true)
        }
        (LtyKind::Arrow(a1, r1), LtyKind::Arrow(a2, r2)) => Next::Arrows([*a1, *r1, *a2, *r2]),
        _ => Next::Incompatible,
    };
    match next {
        // The pair through `dup` may need no code at all.
        Next::DupTo => {
            let d = i.dup(to);
            if is_identity(i, d, to) {
                e
            } else {
                coerce_inner(i, vg, stats, e, d, to)
            }
        }
        Next::DupFrom => {
            let d = i.dup(from);
            if is_identity(i, from, d) {
                e
            } else {
                coerce_inner(i, vg, stats, e, from, d)
            }
        }
        Next::Wrap => {
            stats.wraps += 1;
            Lexp::Wrap(from, Box::new(e))
        }
        Next::Unwrap => {
            stats.wraps += 1;
            Lexp::Unwrap(to, Box::new(e))
        }
        Next::Rebuild(n, structure) => {
            stats.record_rebuilds += 1;
            let v = vg.fresh();
            let fields = (0..n)
                .map(|idx| {
                    let sel = Lexp::Select(idx, Box::new(Lexp::Var(v)));
                    let (f, g) = (field(i, from, idx), field(i, to, idx));
                    coerce_exp(i, vg, stats, sel, f, g)
                })
                .collect();
            let rebuilt = if structure {
                Lexp::SRecord(fields)
            } else {
                Lexp::Record(fields)
            };
            Lexp::Let(v, Box::new(e), Box::new(rebuilt))
        }
        Next::Arrows([a1, r1, a2, r2]) => {
            // fn x : a2 => coerce_r1_r2 (f (coerce_a2_a1 x))
            stats.fn_wrappers += 1;
            let f = vg.fresh();
            let x = vg.fresh();
            let arg = coerce_exp(i, vg, stats, Lexp::Var(x), a2, a1);
            let call = Lexp::App(Box::new(Lexp::Var(f)), Box::new(arg));
            let body = coerce_exp(i, vg, stats, call, r1, r2);
            Lexp::Let(
                f,
                Box::new(e),
                Box::new(Lexp::Fn(x, a2, r2, Box::new(body))),
            )
        }
        Next::Incompatible => panic!(
            "coerce: incompatible representations {} vs {} ({:?} vs {:?})",
            i.show(from),
            i.show(to),
            i.kind(from),
            i.kind(to)
        ),
    }
}

/// Memo-ized coercions for module objects (paper §4.5): coercions between
/// the same pair of (hash-consed) LTYs share one generated function
/// instead of being inlined at every functor application or signature
/// match.
///
/// The memo key is the `(from, to)` handle pair. Handles are canonical
/// within the compile's interner, so the key is exactly "this pair of
/// structures"; insertion-ordered `defs` keep emitted output
/// deterministic.
#[derive(Debug, Default)]
pub struct CoercionCache {
    enabled: bool,
    map: FxHashMap<(Lty, Lty), LVar>,
    /// Generated shared coercion functions `(name, from, to)`.
    defs: Vec<(LVar, Lty, Lty)>,
}

impl CoercionCache {
    /// Creates a cache; when `enabled` is false every module coercion is
    /// inlined (the `ablation_memo` experiment).
    pub fn new(enabled: bool) -> CoercionCache {
        CoercionCache {
            enabled,
            map: FxHashMap::default(),
            defs: Vec::new(),
        }
    }

    /// Coerces a module object, going through a shared function when
    /// caching is enabled.
    pub fn module_coerce(
        &mut self,
        i: &mut LtyInterner,
        vg: &mut VarGen,
        stats: &mut CoerceStats,
        e: Lexp,
        from: Lty,
        to: Lty,
    ) -> Lexp {
        stats.requests += 1;
        if is_identity(i, from, to) {
            stats.identities += 1;
            return e;
        }
        if !self.enabled {
            return coerce_inner(i, vg, stats, e, from, to);
        }
        let f = match self.map.get(&(from, to)) {
            Some(f) => {
                stats.shared_hits += 1;
                *f
            }
            None => {
                let f = vg.fresh();
                self.map.insert((from, to), f);
                self.defs.push((f, from, to));
                f
            }
        };
        Lexp::App(Box::new(Lexp::Var(f)), Box::new(e))
    }

    /// Number of distinct shared coercion functions generated.
    pub fn n_shared(&self) -> usize {
        self.defs.len()
    }

    /// Wraps `body` with the definitions of all shared coercion
    /// functions.
    pub fn emit(
        mut self,
        i: &mut LtyInterner,
        vg: &mut VarGen,
        stats: &mut CoerceStats,
        body: Lexp,
    ) -> Lexp {
        if self.defs.is_empty() {
            return body;
        }
        // Generating a body may itself request module coercions; those
        // are inlined (the cache is consumed here).
        let defs = std::mem::take(&mut self.defs);
        let mut bindings = Vec::new();
        for (f, from, to) in defs {
            let x = vg.fresh();
            let fbody = coerce_inner(i, vg, stats, Lexp::Var(x), from, to);
            let fun_ty = i.arrow(from, to);
            bindings.push((f, fun_ty, Lexp::Fn(x, from, to, Box::new(fbody))));
        }
        Lexp::Fix(bindings, Box::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lty::InternMode;
    use crate::verify::lty_of;
    use sml_ast::FxHashMap as Map;

    fn setup() -> (LtyInterner, VarGen, CoerceStats) {
        (
            LtyInterner::new(InternMode::HashCons),
            VarGen::new(),
            CoerceStats::default(),
        )
    }

    #[test]
    fn identity_cases() {
        let (mut i, _, _) = setup();
        let int = i.int();
        let boxed = i.boxed();
        let rb = i.rboxed();
        assert!(is_identity(&mut i, int, int));
        assert!(is_identity(&mut i, boxed, rb));
        let r1 = i.record(vec![int, boxed]);
        let r2 = i.record(vec![int, rb]);
        assert!(is_identity(&mut i, r1, r2));
        let real = i.real();
        assert!(!is_identity(&mut i, real, boxed));
    }

    #[test]
    fn real_to_boxed_is_wrap() {
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let boxed = i.boxed();
        let e = coerce_exp(&mut i, &mut vg, &mut st, Lexp::Real(1.5), real, boxed);
        assert!(matches!(e, Lexp::Wrap(..)));
        assert_eq!(st.wraps, 1);
        let t = lty_of(&e, &mut Map::default(), &mut i).unwrap();
        assert_eq!(t, i.boxed());
    }

    #[test]
    fn flat_record_to_rboxed_rebuilds() {
        // coerce([REAL, REAL] -> RBOXED) wraps each field (Figure 2's
        // recursive boxing).
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let flat = i.record(vec![real, real]);
        let rb = i.rboxed();
        let rec = Lexp::Record(vec![Lexp::Real(1.0), Lexp::Real(2.0)]);
        let e = coerce_exp(&mut i, &mut vg, &mut st, rec, flat, rb);
        assert_eq!(st.record_rebuilds, 1);
        assert_eq!(st.wraps, 2, "each REAL field is wrapped");
        let t = lty_of(&e, &mut Map::default(), &mut i).unwrap();
        // Result is a record of boxed fields — a standard representation.
        assert!(matches!(i.kind(t), LtyKind::Record(fs) if fs.len() == 2));
    }

    #[test]
    fn rboxed_to_flat_record_unwraps() {
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let flat = i.record(vec![real, real]);
        let rb = i.rboxed();
        let v = vg.fresh();
        let e = coerce_exp(&mut i, &mut vg, &mut st, Lexp::Var(v), rb, flat);
        let mut env = Map::default();
        env.insert(v, rb);
        let t = lty_of(&e, &mut env, &mut i).unwrap();
        assert!(i.same(t, flat));
        assert_eq!(st.wraps, 2);
    }

    #[test]
    fn function_wrapper_shape() {
        // The paper's h' example: wrapping real -> real for polymorphic
        // use.
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let rb = i.rboxed();
        let mono = i.arrow(real, real);
        let poly = i.arrow(rb, rb);
        let f = vg.fresh();
        let e = coerce_exp(&mut i, &mut vg, &mut st, Lexp::Var(f), mono, poly);
        assert_eq!(st.fn_wrappers, 1);
        assert_eq!(st.wraps, 2, "argument funwrap + result fwrap");
        let mut env = Map::default();
        env.insert(f, mono);
        let t = lty_of(&e, &mut env, &mut i).unwrap();
        assert!(matches!(i.kind(t), LtyKind::Arrow(..)));
    }

    #[test]
    fn coercion_roundtrip_preserves_type() {
        // coerce(t, RBOXED) then coerce(RBOXED, t) yields type t again.
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let int = i.int();
        let flat = i.record(vec![real, int]);
        let rb = i.rboxed();
        let v = vg.fresh();
        let boxed_e = coerce_exp(&mut i, &mut vg, &mut st, Lexp::Var(v), flat, rb);
        let back = coerce_exp(&mut i, &mut vg, &mut st, boxed_e, rb, flat);
        let mut env = Map::default();
        env.insert(v, flat);
        let t = lty_of(&back, &mut env, &mut i).unwrap();
        assert!(i.same(t, flat));
    }

    #[test]
    fn memoized_module_coercions_share() {
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let flat = i.record(vec![real, real]);
        let rb = i.rboxed();
        let s1 = i.srecord(vec![flat]);
        let s2 = i.srecord(vec![rb]);
        let mut cache = CoercionCache::new(true);
        let a = cache.module_coerce(&mut i, &mut vg, &mut st, Lexp::Var(100), s1, s2);
        let b = cache.module_coerce(&mut i, &mut vg, &mut st, Lexp::Var(101), s1, s2);
        assert_eq!(cache.n_shared(), 1, "one shared function for both sites");
        assert_eq!(st.shared_hits, 1);
        // Both applications call the same function.
        let (Lexp::App(f1, _), Lexp::App(f2, _)) = (&a, &b) else {
            panic!()
        };
        assert_eq!(f1, f2);
        // Emitting produces a well-typed program.
        let mut env = Map::default();
        env.insert(100, s1);
        env.insert(101, s2);
        let body = Lexp::Int(0);
        let prog = cache.emit(&mut i, &mut vg, &mut st, body);
        assert!(matches!(prog, Lexp::Fix(..)));
    }

    #[test]
    fn disabled_cache_inlines() {
        let (mut i, mut vg, mut st) = setup();
        let real = i.real();
        let flat = i.record(vec![real]);
        let rb = i.rboxed();
        let s1 = i.srecord(vec![flat]);
        let s2 = i.srecord(vec![rb]);
        let mut cache = CoercionCache::new(false);
        let a = cache.module_coerce(&mut i, &mut vg, &mut st, Lexp::Var(100), s1, s2);
        assert_eq!(cache.n_shared(), 0);
        assert!(matches!(a, Lexp::Let(..)));
    }
}
