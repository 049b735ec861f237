//! Unification with levels, occurs check, and equality-attribute
//! propagation, as methods of the [`TyStore`].
//!
//! A `unify` call takes on each pair of nodes once: the store's pair
//! memo remembers, by left node, the right node the call has already
//! unified it with, so two types that share subtrees unify in time
//! proportional to their shared size. The occurs check with level
//! adjustment and equality forcing each visit a shared node once too,
//! by the store's visit marks.

use crate::registry::TyconRegistry;
use crate::ty::{EqProp, Tv, TvId, Ty, TyKind, TyStore, TyconKind};

/// A unification failure, naming types of the store that unified.
#[derive(Clone, Copy, Debug)]
pub enum UnifyError {
    /// The two types have incompatible shapes.
    Mismatch(Ty, Ty),
    /// A variable occurs in the type it would be bound to.
    Occurs(Ty),
    /// An equality type variable was unified with a type that does not
    /// admit equality.
    NotEquality(Ty),
}

impl UnifyError {
    /// The error's message, its types printed from `store`.
    pub fn show(self, store: &TyStore) -> String {
        match self {
            UnifyError::Mismatch(a, b) => {
                format!("cannot unify `{}` with `{}`", store.show(a), store.show(b))
            }
            UnifyError::Occurs(t) => format!("circular type `{}`", store.show(t)),
            UnifyError::NotEquality(t) => {
                format!("type `{}` does not admit equality", store.show(t))
            }
        }
    }
}

/// Result alias for unification.
pub type UnifyResult = Result<(), UnifyError>;

impl TyStore {
    /// Unifies `a` and `b` in place.
    ///
    /// # Errors
    ///
    /// Returns a [`UnifyError`] if the types are incompatible; the types
    /// may be partially unified in that case (elaboration aborts on
    /// error, so partial effects are harmless).
    pub fn unify(&mut self, reg: &TyconRegistry, a: Ty, b: Ty) -> UnifyResult {
        let epoch = self.next_epoch();
        self.unify_in(reg, a, b, epoch)
    }

    fn unify_in(&mut self, reg: &TyconRegistry, a: Ty, b: Ty, epoch: u32) -> UnifyResult {
        let (a, b) = (self.head(a), self.head(b));
        if a == b || !self.pair_first_seen(a, b, epoch) {
            return Ok(());
        }
        match (self.kind(a), self.kind(b)) {
            (TyKind::Var(v), _) => self.bind(reg, v, a, b),
            (_, TyKind::Var(v)) => self.bind(reg, v, b, a),
            (TyKind::Con(ca, argsa), TyKind::Con(cb, argsb)) => {
                if ca.stamp != cb.stamp || argsa.len() != argsb.len() {
                    return Err(UnifyError::Mismatch(a, b));
                }
                for k in 0..argsa.len() {
                    let (x, y) = (self.con_arg(a, k), self.con_arg(b, k));
                    self.unify_in(reg, x, y, epoch)?;
                }
                Ok(())
            }
            (TyKind::Record(fa), TyKind::Record(fb)) => {
                if fa.len() != fb.len() {
                    return Err(UnifyError::Mismatch(a, b));
                }
                // Field by field, so the fields before a label mismatch
                // are unified when it is reported.
                for k in 0..fa.len() {
                    let ((la, x), (lb, y)) = (self.record_field(a, k), self.record_field(b, k));
                    if la != lb {
                        return Err(UnifyError::Mismatch(a, b));
                    }
                    self.unify_in(reg, x, y, epoch)?;
                }
                Ok(())
            }
            (TyKind::Arrow(a1, r1), TyKind::Arrow(a2, r2)) => {
                self.unify_in(reg, a1, a2, epoch)?;
                self.unify_in(reg, r1, r2, epoch)
            }
            _ => Err(UnifyError::Mismatch(a, b)),
        }
    }

    /// Argument `k` of the constructor application `t` heads.
    fn con_arg(&self, t: Ty, k: usize) -> Ty {
        match self.kind(t) {
            TyKind::Con(_, args) => args[k],
            _ => unreachable!("a constructor application"),
        }
    }

    /// Field `k` of the record `t` heads.
    fn record_field(&self, t: Ty, k: usize) -> (sml_ast::Symbol, Ty) {
        match self.kind(t) {
            TyKind::Record(fs) => fs[k],
            _ => unreachable!("a record"),
        }
    }

    /// Binds variable `v` (the head of `vt`) to `t`.
    fn bind(&mut self, reg: &TyconRegistry, v: TvId, vt: Ty, t: Ty) -> UnifyResult {
        let (level, eq) = match self.tv(v) {
            Tv::Unbound { level, eq } => (level, eq),
            // Generic variables are rigid: they only unify with
            // themselves (handled by the handle check in `unify`).
            Tv::Gen(_) => return Err(UnifyError::Mismatch(vt, t)),
            Tv::Link(_) => unreachable!("head resolves links"),
        };
        self.occurs_adjust(v, vt, t, level)?;
        if eq {
            self.force_equality(reg, t)?;
        }
        self.set_tv(v, Tv::Link(t));
        Ok(())
    }

    /// Occurs check combined with level adjustment: every unbound
    /// variable in `t` is lowered to at most `level` so that it will not
    /// be generalized past the binder of `v`.
    fn occurs_adjust(&mut self, v: TvId, vt: Ty, t: Ty, level: u32) -> UnifyResult {
        let mut occurs = false;
        self.walk(t, &mut |s, n| {
            if let TyKind::Var(u) = s.kind(n) {
                if u == v {
                    occurs = true;
                } else {
                    s.lower(u, level);
                }
            }
            !occurs
        });
        if occurs {
            return Err(UnifyError::Occurs(vt));
        }
        Ok(())
    }

    /// Requires `t` to admit equality, marking any unbound variables
    /// inside it as equality variables.
    ///
    /// # Errors
    ///
    /// [`UnifyError::NotEquality`] naming the first part of `t` found not
    /// to admit equality.
    pub fn force_equality(&mut self, reg: &TyconRegistry, t: Ty) -> UnifyResult {
        let mut bad = None;
        self.walk(t, &mut |s, n| {
            if bad.is_some() {
                return false;
            }
            match s.kind(n) {
                TyKind::Var(u) => {
                    // A generic variable's equality attribute was fixed
                    // at generalization time; trust the scheme.
                    if let Tv::Unbound { level, .. } = s.tv(u) {
                        s.set_tv(u, Tv::Unbound { level, eq: true });
                    }
                    false
                }
                TyKind::Con(c, _) => match c.eq {
                    EqProp::Never => {
                        bad = Some(n);
                        false
                    }
                    EqProp::Always => false,
                    // For datatypes this is sound because registration
                    // already verified that all payloads admit equality
                    // when the arguments do.
                    EqProp::IfArgs => {
                        if c.kind == TyconKind::Data && !reg.datatype_admits_eq(c.stamp) {
                            bad = Some(n);
                        }
                        bad.is_none()
                    }
                },
                TyKind::Record(_) => true,
                TyKind::Arrow(..) => {
                    bad = Some(n);
                    false
                }
            }
        });
        match bad {
            Some(n) => Err(UnifyError::NotEquality(n)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::Tycon;

    fn setup() -> (TyStore, TyconRegistry) {
        let mut s = TyStore::new();
        let r = TyconRegistry::with_builtins(&mut s);
        (s, r)
    }

    #[test]
    fn unify_var_with_con() {
        let (mut s, r) = setup();
        let t = s.fresh_var(0);
        s.unify(&r, t, Ty::INT).unwrap();
        assert_eq!(s.show(t).to_string(), "int");
    }

    #[test]
    fn unify_mismatch() {
        let (mut s, r) = setup();
        assert!(s.unify(&r, Ty::INT, Ty::REAL).is_err());
        let f = s.arrow(Ty::INT, Ty::INT);
        let e = s.unify(&r, f, Ty::INT).unwrap_err();
        assert_eq!(e.show(&s), "cannot unify `int -> int` with `int`");
    }

    #[test]
    fn occurs_check() {
        let (mut s, r) = setup();
        let t = s.fresh_var(0);
        let lst = s.list(t);
        let e = s.unify(&r, t, lst).unwrap_err();
        assert!(matches!(e, UnifyError::Occurs(_)));
        assert_eq!(
            e.show(&s),
            format!("circular type `'X{}`", s.head_var(t).unwrap().index())
        );
    }

    #[test]
    fn levels_are_lowered() {
        let (mut s, r) = setup();
        let outer = s.fresh_var(1);
        let inner = s.fresh_var(5);
        let l = s.list(inner);
        s.unify(&r, outer, l).unwrap();
        let v = s.head_var(inner).expect("inner stays unbound");
        assert_eq!(
            s.tv(v),
            Tv::Unbound {
                level: 1,
                eq: false
            }
        );
    }

    #[test]
    fn equality_propagation() {
        let (mut s, r) = setup();
        let ev = s.fresh_var_eq(0, true);
        // ''a unifies with int list: fine.
        let l = s.list(Ty::INT);
        s.unify(&r, ev, l).unwrap();
        // ''b does not unify with int -> int.
        let ev2 = s.fresh_var_eq(0, true);
        let f = s.arrow(Ty::INT, Ty::INT);
        assert!(matches!(
            s.unify(&r, ev2, f),
            Err(UnifyError::NotEquality(_))
        ));
    }

    #[test]
    fn equality_infects_variables() {
        let (mut s, r) = setup();
        let ev = s.fresh_var_eq(0, true);
        let plain = s.fresh_var(0);
        let l = s.list(plain);
        s.unify(&r, ev, l).unwrap();
        let v = s.head_var(plain).unwrap();
        assert!(
            matches!(s.tv(v), Tv::Unbound { eq: true, .. }),
            "variable under eq var becomes eq"
        );
    }

    #[test]
    fn ref_is_always_eq() {
        let (mut s, r) = setup();
        let ev = s.fresh_var_eq(0, true);
        // 'a ref admits equality even when 'a doesn't (here: a function type).
        let f = s.arrow(Ty::INT, Ty::INT);
        let rf = s.reference(f);
        s.unify(&r, ev, rf).unwrap();
    }

    #[test]
    fn records_unify_fieldwise() {
        let (mut s, r) = setup();
        let v = s.fresh_var(0);
        let t1 = s.pair(Ty::INT, v);
        let t2 = s.pair(Ty::INT, Ty::REAL);
        s.unify(&r, t1, t2).unwrap();
        assert_eq!(s.show(t1).to_string(), "int * real");
        // Different widths fail.
        let one = s.tuple(&[Ty::INT]);
        let two = s.pair(Ty::INT, Ty::INT);
        assert!(s.unify(&r, one, two).is_err());
    }

    #[test]
    fn gen_vars_are_rigid() {
        let (mut s, r) = setup();
        let v = s.new_tv(Tv::Gen(0));
        let t = s.var_ty(v);
        assert!(s.unify(&r, t, Ty::INT).is_err());
    }

    #[test]
    fn abstract_tycons_unify_by_stamp() {
        let (mut s, r) = setup();
        let t1 = Tycon::fresh_abstract(sml_ast::Symbol::intern("t"), 0, false);
        let t2 = Tycon::fresh_abstract(sml_ast::Symbol::intern("t"), 0, false);
        let (a, b, c) = (s.con(t1, &[]), s.con(t1, &[]), s.con(t2, &[]));
        assert!(s.unify(&r, a, b).is_ok());
        assert!(s.unify(&r, a, c).is_err());
    }

    #[test]
    fn shared_types_unify_in_their_shared_size() {
        // Two 60-level pair towers over distinct variables: as trees they
        // have 2^60 leaves, so only a walk that takes each pair once
        // finishes.
        let (mut s, r) = setup();
        let (x, y) = (s.fresh_var(0), s.fresh_var(0));
        let (mut a, mut b) = (x, y);
        for _ in 0..60 {
            a = s.pair(a, a);
            b = s.pair(b, b);
        }
        s.unify(&r, a, b).unwrap();
        assert_eq!(s.head(x), s.head(y));
        let z = s.fresh_var_eq(0, true);
        s.unify(&r, z, a).unwrap();
        assert!(matches!(
            s.tv(s.head_var(x).unwrap()),
            Tv::Unbound { eq: true, .. }
        ));
        assert!(matches!(s.unify(&r, x, a), Err(UnifyError::Occurs(_))));
    }
}
