//! Let-generalization and anti-unification (least common generalization),
//! over the [`TyStore`].
//!
//! Generalization marks variables [`Tv::Gen`] *in place*, so every type
//! sharing the variable observes the change; its walk visits a shared
//! node once, by the store's visit marks. Anti-unification is the core
//! of the minimum-typing-derivations pass (paper §3, after Bjørner):
//! given all actual instantiations of a let-bound variable, it computes
//! the least general type scheme that generalizes them all. A column of
//! uses that are all one handle is its own generalization, and a column
//! of distinct structured types is generalized once per anti-unifier,
//! so shared subtrees cost their shared size.

use crate::ty::{Generic, Scheme, Tv, TvId, Ty, TyKind, TyStore};
use sml_ast::FxHashMap;

impl TyStore {
    /// Generalizes `ty` at `level`: every unbound variable bound strictly
    /// deeper than `level` becomes a generic variable of the returned
    /// scheme.
    ///
    /// The marking happens in place, so other types sharing those
    /// variables (the body of the declaration being generalized) see
    /// generic variables too.
    pub fn generalize(&mut self, ty: Ty, level: u32) -> Scheme {
        self.generalize_many(&[ty], level)
            .pop()
            .expect("one scheme per type")
    }

    /// Generalizes a group of mutually recursive binding types together:
    /// all generalized variables share a single index space, and every
    /// returned scheme carries all of them (so mutually recursive
    /// functions agree on instantiation-vector layout).
    pub fn generalize_many(&mut self, tys: &[Ty], level: u32) -> Vec<Scheme> {
        let mut generics = Vec::new();
        let epoch = self.next_epoch();
        for &ty in tys {
            self.walk_from(ty, epoch, &mut |s, n| {
                if let TyKind::Var(v) = s.kind(n) {
                    if let Tv::Unbound { level: vl, eq } = s.tv(v) {
                        if vl > level {
                            s.set_tv(v, Tv::Gen(generics.len() as u32));
                            generics.push(Generic { cell: v, eq });
                        }
                    }
                }
                true
            });
        }
        let first = Scheme::poly(tys.first().copied().unwrap_or(Ty::UNIT), generics);
        tys.iter().map(|&ty| first.with_body(ty)).collect()
    }
}

/// One disagreement position discovered during anti-unification.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The fresh variable standing for this position in the LCG.
    pub var: TvId,
    /// The concrete type at this position in each use, in use order.
    pub uses: Vec<Ty>,
}

/// Computes least common generalizations over a fixed set of "uses".
///
/// All [`AntiUnifier::lcg`] calls against one `AntiUnifier` must pass
/// slices of the same length (one entry per use); disagreement positions
/// that agree across *all* uses share a single fresh variable, exactly as
/// in first-order anti-unification.
pub struct AntiUnifier {
    level: u32,
    entries: Vec<Disagreement>,
    /// The generalization of each column of structured heads already
    /// taken on.
    memo: FxHashMap<Vec<Ty>, Ty>,
}

impl AntiUnifier {
    /// Creates an anti-unifier producing fresh variables at `level`.
    pub fn new(level: u32) -> AntiUnifier {
        AntiUnifier {
            level,
            entries: Vec::new(),
            memo: FxHashMap::default(),
        }
    }

    /// The least common generalization of `uses` (which must be
    /// non-empty), with its types in `store`.
    ///
    /// # Panics
    ///
    /// Panics if `uses` is empty.
    pub fn lcg(&mut self, store: &mut TyStore, uses: &[Ty]) -> Ty {
        assert!(!uses.is_empty(), "lcg of zero uses");
        let heads: Vec<Ty> = uses.iter().map(|&u| store.head(u)).collect();
        let h0 = heads[0];
        // One type at every use generalizes to itself, variables and all.
        if heads.iter().all(|&h| h == h0) {
            return h0;
        }
        if let Some(&t) = self.memo.get(&heads) {
            return t;
        }
        let out = match store.kind(h0) {
            TyKind::Con(c0, args0) => {
                let n = args0.len();
                let all_same = heads.iter().all(
                    |&h| matches!(store.kind(h), TyKind::Con(c, args) if c.stamp == c0.stamp && args.len() == n),
                );
                all_same.then(|| {
                    let args: Vec<Ty> = (0..n)
                        .map(|i| {
                            let col = column(store, &heads, i);
                            self.lcg(store, &col)
                        })
                        .collect();
                    store.con(c0, &args)
                })
            }
            TyKind::Record(fs0) => {
                let labels: Vec<_> = fs0.iter().map(|(l, _)| *l).collect();
                let all_same = heads.iter().all(|&h| {
                    matches!(store.kind(h), TyKind::Record(fs) if fs.len() == labels.len()
                        && fs.iter().zip(&labels).all(|((l, _), l0)| l == l0))
                });
                all_same.then(|| {
                    let fields: Vec<_> = labels
                        .iter()
                        .enumerate()
                        .map(|(i, l)| {
                            let col = column(store, &heads, i);
                            (*l, self.lcg(store, &col))
                        })
                        .collect();
                    store.record(fields)
                })
            }
            TyKind::Arrow(..) => {
                let all_same = heads
                    .iter()
                    .all(|&h| matches!(store.kind(h), TyKind::Arrow(..)));
                all_same.then(|| {
                    let doms = column(store, &heads, 0);
                    let rans = column(store, &heads, 1);
                    let d = self.lcg(store, &doms);
                    let r = self.lcg(store, &rans);
                    store.arrow(d, r)
                })
            }
            // Distinct heads, so not one variable at every use.
            TyKind::Var(_) => None,
        };
        match out {
            Some(t) => {
                self.memo.insert(heads, t);
                t
            }
            None => self.disagree(store, heads),
        }
    }

    fn disagree(&mut self, store: &mut TyStore, heads: Vec<Ty>) -> Ty {
        for e in &self.entries {
            if e.uses
                .iter()
                .zip(&heads)
                .all(|(&u, &h)| store.same_shape(u, h))
            {
                return store.var_ty(e.var);
            }
        }
        let var = store.new_tv(Tv::Unbound {
            level: self.level,
            eq: false,
        });
        self.entries.push(Disagreement { var, uses: heads });
        store.var_ty(var)
    }

    /// The discovered disagreement positions, in first-encounter order.
    pub fn disagreements(&self) -> &[Disagreement] {
        &self.entries
    }

    /// Consumes the anti-unifier, returning the disagreement positions.
    pub fn into_disagreements(self) -> Vec<Disagreement> {
        self.entries
    }
}

/// Child `i` of each structured head, in use order.
fn column(store: &TyStore, heads: &[Ty], i: usize) -> Vec<Ty> {
    heads
        .iter()
        .map(|&h| match store.kind(h) {
            TyKind::Con(_, args) => args[i],
            TyKind::Record(fs) => fs[i].1,
            TyKind::Arrow(a, b) => [a, b][i],
            TyKind::Var(_) => unreachable!("a column of structured heads"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TyconRegistry;

    #[test]
    fn generalize_marks_in_place() {
        let mut s = TyStore::new();
        let a = s.fresh_var(5);
        let v = s.head_var(a).unwrap();
        let t = s.arrow(a, a);
        let sc = s.generalize(t, 0);
        assert_eq!(sc.arity(), 1);
        assert_eq!(s.tv(v), Tv::Gen(0));
        // The body shares the marked variables.
        assert_eq!(s.show(sc.body).to_string(), "'a -> 'a");
    }

    #[test]
    fn generalize_respects_level() {
        let mut s = TyStore::new();
        let shallow = s.fresh_var(1);
        let deep = s.fresh_var(3);
        let t = s.pair(shallow, deep);
        let sc = s.generalize(t, 1);
        assert_eq!(sc.arity(), 1, "only the deeper variable generalizes");
        assert!(matches!(
            s.tv(s.head_var(shallow).unwrap()),
            Tv::Unbound { .. }
        ));
    }

    #[test]
    fn generalize_keeps_eq_flags() {
        let mut s = TyStore::new();
        let t = s.fresh_var_eq(5, true);
        let sc = s.generalize(t, 0);
        assert!(sc.generics()[0].eq);
    }

    #[test]
    fn generalize_many_shares_one_index_space() {
        let mut s = TyStore::new();
        let (a, b) = (s.fresh_var(2), s.fresh_var(2));
        let f = s.arrow(a, b);
        let g = s.arrow(b, a);
        let schemes = s.generalize_many(&[f, g], 1);
        assert_eq!(schemes.len(), 2);
        assert_eq!(schemes[1].generics(), schemes[0].generics());
        assert_eq!(s.show(schemes[1].body).to_string(), "'b -> 'a");
    }

    #[test]
    fn lcg_identical_types() {
        let mut s = TyStore::new();
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&mut s, &[Ty::INT, Ty::INT]);
        assert_eq!(s.show(t).to_string(), "int");
        assert!(au.disagreements().is_empty());
    }

    #[test]
    fn lcg_disagreement_becomes_var() {
        let mut s = TyStore::new();
        let (li, lr) = (s.list(Ty::INT), s.list(Ty::REAL));
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&mut s, &[li, lr]);
        assert!(matches!(s.kind(t), TyKind::Con(c, _) if c.name.as_str() == "list"));
        assert_eq!(au.disagreements().len(), 1);
    }

    #[test]
    fn lcg_shares_consistent_disagreements() {
        // (int * int) vs (real * real): both positions disagree the same
        // way, so the LCG is 'a * 'a, not 'a * 'b.
        let mut s = TyStore::new();
        let ii = s.pair(Ty::INT, Ty::INT);
        let rr = s.pair(Ty::REAL, Ty::REAL);
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&mut s, &[ii, rr]);
        assert_eq!(au.disagreements().len(), 1);
        match s.kind(t) {
            TyKind::Record(fs) => assert_eq!(s.head(fs[0].1), s.head(fs[1].1)),
            _ => panic!("expected record"),
        }
    }

    #[test]
    fn lcg_distinct_disagreements() {
        // (int * real) vs (real * int) yields 'a * 'b.
        let mut s = TyStore::new();
        let ir = s.pair(Ty::INT, Ty::REAL);
        let ri = s.pair(Ty::REAL, Ty::INT);
        let mut au = AntiUnifier::new(0);
        let _ = au.lcg(&mut s, &[ir, ri]);
        assert_eq!(au.disagreements().len(), 2);
    }

    #[test]
    fn lcg_single_use_is_identity() {
        // With one use, MTD degenerates to "assign exactly the use type".
        let mut s = TyStore::new();
        let f = s.arrow(Ty::REAL, Ty::BOOL);
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&mut s, &[f]);
        assert_eq!(s.show(t).to_string(), "real -> bool");
        assert!(au.disagreements().is_empty());
    }

    #[test]
    fn lcg_takes_a_shared_column_once() {
        // Two 60-level pair towers over int and real: one disagreement,
        // and the generalization is a tower of 60 new pairs, not 2^60.
        let mut s = TyStore::new();
        let (mut a, mut b) = (Ty::INT, Ty::REAL);
        for _ in 0..60 {
            a = s.pair(a, a);
            b = s.pair(b, b);
        }
        let before = s.len();
        let mut au = AntiUnifier::new(0);
        let _ = au.lcg(&mut s, &[a, b]);
        assert_eq!(au.disagreements().len(), 1);
        assert_eq!(s.len(), before + 61, "one variable and 60 pairs");
    }

    #[test]
    fn lcg_generalizes_each_use() {
        // Property: the LCG unifies with (a fresh copy of) each use.
        let mut s = TyStore::new();
        let reg = TyconRegistry::with_builtins(&mut s);
        let ir = s.pair(Ty::INT, Ty::REAL);
        let br = s.pair(Ty::BOOL, Ty::REAL);
        let uses = vec![s.list(ir), s.list(br)];
        let mut au = AntiUnifier::new(1);
        let lcg = au.lcg(&mut s, &uses);
        // lcg = ('a * real) list; generalize the disagreement var and
        // instantiate a fresh copy per use so the unifications don't
        // interfere.
        let sc = s.generalize(lcg, 0);
        for &u in &uses {
            let (copy, _) = s.instantiate(&sc, 1);
            s.unify(&reg, copy, u).expect("LCG generalizes each use");
        }
    }
}
