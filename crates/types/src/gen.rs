//! Let-generalization and anti-unification (least common generalization).
//!
//! Generalization marks unification cells [`Tv::Gen`] *in place*, so every
//! annotation sharing the cell observes the change. Anti-unification is
//! the core of the minimum-typing-derivations pass (paper §3, after
//! Bjørner): given all actual instantiations of a let-bound variable, it
//! computes the least general type scheme that generalizes them all.

use crate::ty::{Scheme, Tv, TvRef, Ty};

/// Generalizes `ty` at `level`: every unbound variable bound strictly
/// deeper than `level` becomes a generic variable of the returned scheme.
///
/// The marking happens in place, so other types sharing those cells (the
/// body of the declaration being generalized) see generic variables too.
pub fn generalize(ty: &Ty, level: u32) -> Scheme {
    generalize_many(std::slice::from_ref(ty), level)
        .pop()
        .expect("one scheme per type")
}

/// Generalizes a group of mutually recursive binding types together: all
/// generalized cells share a single index space, and every returned scheme
/// carries the full cell vector (so mutually recursive functions agree on
/// instantiation-vector layout).
pub fn generalize_many(tys: &[Ty], level: u32) -> Vec<Scheme> {
    let mut eq_flags = Vec::new();
    let mut cells = Vec::new();
    for ty in tys {
        go(ty, level, &mut eq_flags, &mut cells);
    }
    tys.iter()
        .map(|ty| Scheme {
            arity: cells.len(),
            eq_flags: eq_flags.clone(),
            cells: cells.clone(),
            body: ty.clone(),
        })
        .collect()
}

fn go(ty: &Ty, level: u32, eq_flags: &mut Vec<bool>, cells: &mut Vec<TvRef>) {
    match &*ty.head() {
        Ty::Var(v) => {
            let mut cell = v.0.borrow_mut();
            if let Tv::Unbound { level: vl, eq, .. } = &*cell {
                if *vl > level {
                    let idx = eq_flags.len() as u32;
                    eq_flags.push(*eq);
                    *cell = Tv::Gen(idx);
                    drop(cell);
                    cells.push(v.clone());
                }
            }
        }
        Ty::Con(_, args) => args.iter().for_each(|a| go(a, level, eq_flags, cells)),
        Ty::Record(fs) => fs.iter().for_each(|(_, a)| go(a, level, eq_flags, cells)),
        Ty::Arrow(a, b) => {
            go(a, level, eq_flags, cells);
            go(b, level, eq_flags, cells);
        }
    }
}

/// One disagreement position discovered during anti-unification.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The fresh variable standing for this position in the LCG.
    pub var: TvRef,
    /// The concrete type at this position in each use, in use order.
    pub uses: Vec<Ty>,
    /// Whether the variable needs the equality attribute.
    pub eq: bool,
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
}

impl AntiUnifier {
    /// Creates an anti-unifier producing fresh variables at `level`.
    pub fn new(level: u32) -> AntiUnifier {
        AntiUnifier {
            level,
            entries: Vec::new(),
        }
    }

    /// The least common generalization of `uses` (which must be
    /// non-empty).
    ///
    /// # Panics
    ///
    /// Panics if `uses` is empty.
    pub fn lcg(&mut self, uses: &[Ty]) -> Ty {
        assert!(!uses.is_empty(), "lcg of zero uses");
        let heads: Vec<Ty> = uses.iter().map(|u| u.head().into_owned()).collect();
        match &heads[0] {
            Ty::Con(c0, args0) => {
                let all_same = heads.iter().all(
                    |h| matches!(h, Ty::Con(c, args) if c.stamp == c0.stamp && args.len() == args0.len()),
                );
                if all_same {
                    let args = (0..args0.len())
                        .map(|i| {
                            let col: Vec<Ty> = heads
                                .iter()
                                .map(|h| match h {
                                    Ty::Con(_, a) => a[i].clone(),
                                    _ => unreachable!(),
                                })
                                .collect();
                            self.lcg(&col)
                        })
                        .collect();
                    return Ty::Con(c0.clone(), args);
                }
            }
            Ty::Record(fs0) => {
                let all_same = heads.iter().all(|h| {
                    matches!(h, Ty::Record(fs) if fs.len() == fs0.len()
                        && fs.iter().zip(fs0.iter()).all(|((l, _), (l0, _))| l == l0))
                });
                if all_same {
                    let fields = (0..fs0.len())
                        .map(|i| {
                            let col: Vec<Ty> = heads
                                .iter()
                                .map(|h| match h {
                                    Ty::Record(fs) => fs[i].1.clone(),
                                    _ => unreachable!(),
                                })
                                .collect();
                            (fs0[i].0, self.lcg(&col))
                        })
                        .collect();
                    return Ty::Record(fields);
                }
            }
            Ty::Arrow(..) => {
                if heads.iter().all(|h| matches!(h, Ty::Arrow(..))) {
                    let doms: Vec<Ty> = heads
                        .iter()
                        .map(|h| match h {
                            Ty::Arrow(a, _) => (**a).clone(),
                            _ => unreachable!(),
                        })
                        .collect();
                    let rans: Vec<Ty> = heads
                        .iter()
                        .map(|h| match h {
                            Ty::Arrow(_, b) => (**b).clone(),
                            _ => unreachable!(),
                        })
                        .collect();
                    return Ty::arrow(self.lcg(&doms), self.lcg(&rans));
                }
            }
            Ty::Var(v0) => {
                // All the same variable cell: keep it.
                if heads.iter().all(|h| matches!(h, Ty::Var(v) if v.same(v0))) {
                    return Ty::Var(v0.clone());
                }
            }
        }
        self.disagree(&heads)
    }

    fn disagree(&mut self, heads: &[Ty]) -> Ty {
        let keys: Vec<String> = heads.iter().map(|h| format!("{:?}", h.zonk())).collect();
        for e in &self.entries {
            let ekeys: Vec<String> = e.uses.iter().map(|u| format!("{:?}", u.zonk())).collect();
            if ekeys == keys {
                return Ty::Var(e.var.clone());
            }
        }
        let var = TvRef::fresh(self.level);
        self.entries.push(Disagreement {
            var: var.clone(),
            uses: heads.to_vec(),
            eq: false,
        });
        Ty::Var(var)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TyconRegistry;
    use crate::unify::unify;

    #[test]
    fn generalize_marks_in_place() {
        let v = TvRef::fresh(5);
        let t = Ty::arrow(Ty::Var(v.clone()), Ty::Var(v.clone()));
        let s = generalize(&t, 0);
        assert_eq!(s.arity, 1);
        assert!(matches!(*v.0.borrow(), Tv::Gen(0)));
        // The body shares the marked cells.
        assert_eq!(s.body.to_string(), "'a -> 'a");
    }

    #[test]
    fn generalize_respects_level() {
        let shallow = TvRef::fresh(1);
        let deep = TvRef::fresh(3);
        let t = Ty::pair(Ty::Var(shallow.clone()), Ty::Var(deep));
        let s = generalize(&t, 1);
        assert_eq!(s.arity, 1, "only the deeper variable generalizes");
        assert!(matches!(*shallow.0.borrow(), Tv::Unbound { .. }));
    }

    #[test]
    fn generalize_keeps_eq_flags() {
        let v = TvRef::fresh_eq(5, true);
        let t = Ty::Var(v);
        let s = generalize(&t, 0);
        assert_eq!(s.eq_flags, vec![true]);
    }

    #[test]
    fn lcg_identical_types() {
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&[Ty::int(), Ty::int()]);
        assert_eq!(t.to_string(), "int");
        assert!(au.disagreements().is_empty());
    }

    #[test]
    fn lcg_disagreement_becomes_var() {
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&[Ty::list(Ty::int()), Ty::list(Ty::real())]);
        assert!(matches!(&*t.head(), Ty::Con(c, _) if c.name.as_str() == "list"));
        assert_eq!(au.disagreements().len(), 1);
    }

    #[test]
    fn lcg_shares_consistent_disagreements() {
        // (int * int) vs (real * real): both positions disagree the same
        // way, so the LCG is 'a * 'a, not 'a * 'b.
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&[
            Ty::pair(Ty::int(), Ty::int()),
            Ty::pair(Ty::real(), Ty::real()),
        ]);
        assert_eq!(au.disagreements().len(), 1);
        match &*t.head() {
            Ty::Record(fs) => match (&*fs[0].1.head(), &*fs[1].1.head()) {
                (Ty::Var(a), Ty::Var(b)) => assert!(a.same(b)),
                _ => panic!("expected shared var"),
            },
            _ => panic!("expected record"),
        }
    }

    #[test]
    fn lcg_distinct_disagreements() {
        // (int * real) vs (real * int) yields 'a * 'b.
        let mut au = AntiUnifier::new(0);
        let _ = au.lcg(&[
            Ty::pair(Ty::int(), Ty::real()),
            Ty::pair(Ty::real(), Ty::int()),
        ]);
        assert_eq!(au.disagreements().len(), 2);
    }

    #[test]
    fn lcg_single_use_is_identity() {
        // With one use, MTD degenerates to "assign exactly the use type".
        let mut au = AntiUnifier::new(0);
        let t = au.lcg(&[Ty::arrow(Ty::real(), Ty::bool())]);
        assert_eq!(t.to_string(), "real -> bool");
        assert!(au.disagreements().is_empty());
    }

    #[test]
    fn lcg_generalizes_each_use() {
        // Property: the LCG unifies with (a fresh copy of) each use.
        let reg = TyconRegistry::with_builtins();
        let uses = vec![
            Ty::list(Ty::pair(Ty::int(), Ty::real())),
            Ty::list(Ty::pair(Ty::bool(), Ty::real())),
        ];
        let mut au = AntiUnifier::new(1);
        let lcg = au.lcg(&uses);
        // lcg = ('a * real) list; generalize the disagreement var and
        // instantiate a fresh copy per use so the unifications don't
        // interfere.
        let s = generalize(&lcg, 0);
        for u in &uses {
            let (copy, _) = s.instantiate(1);
            unify(&reg, &copy, u).expect("LCG generalizes each use");
        }
    }
}
