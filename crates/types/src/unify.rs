//! Unification with levels, occurs check, and equality-attribute
//! propagation.

use crate::registry::TyconRegistry;
use crate::ty::{label_cmp, EqProp, Tv, TvRef, Ty, TyconKind};
use std::fmt;

/// A unification failure.
#[derive(Clone, Debug)]
pub enum UnifyError {
    /// The two types have incompatible shapes.
    Mismatch(Ty, Ty),
    /// A variable occurs in the type it would be bound to.
    Occurs(Ty),
    /// An equality type variable was unified with a type that does not
    /// admit equality.
    NotEquality(Ty),
}

impl fmt::Display for UnifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifyError::Mismatch(a, b) => write!(f, "cannot unify `{a}` with `{b}`"),
            UnifyError::Occurs(t) => write!(f, "circular type `{t}`"),
            UnifyError::NotEquality(t) => write!(f, "type `{t}` does not admit equality"),
        }
    }
}

impl std::error::Error for UnifyError {}

/// Result alias for unification.
pub type UnifyResult = Result<(), UnifyError>;

/// Unifies `a` and `b` in place.
///
/// # Errors
///
/// Returns a [`UnifyError`] if the types are incompatible; the types may
/// be partially unified in that case (elaboration aborts on error, so
/// partial effects are harmless).
pub fn unify(reg: &TyconRegistry, a: &Ty, b: &Ty) -> UnifyResult {
    let a = a.head();
    let b = b.head();
    match (&*a, &*b) {
        (Ty::Var(va), Ty::Var(vb)) if va.same(vb) => Ok(()),
        (Ty::Var(v), _) => bind(reg, v, &b),
        (_, Ty::Var(v)) => bind(reg, v, &a),
        (Ty::Con(ca, argsa), Ty::Con(cb, argsb)) => {
            if ca.stamp != cb.stamp || argsa.len() != argsb.len() {
                return Err(UnifyError::Mismatch(Ty::clone(&a), Ty::clone(&b)));
            }
            for (x, y) in argsa.iter().zip(argsb.iter()) {
                unify(reg, x, y)?;
            }
            Ok(())
        }
        (Ty::Record(fa), Ty::Record(fb)) => {
            if fa.len() != fb.len() {
                return Err(UnifyError::Mismatch(Ty::clone(&a), Ty::clone(&b)));
            }
            for ((la, ta), (lb, tb)) in fa.iter().zip(fb.iter()) {
                if la != lb {
                    return Err(UnifyError::Mismatch(Ty::clone(&a), Ty::clone(&b)));
                }
                unify(reg, ta, tb)?;
            }
            Ok(())
        }
        (Ty::Arrow(a1, r1), Ty::Arrow(a2, r2)) => {
            unify(reg, a1, a2)?;
            unify(reg, r1, r2)
        }
        _ => Err(UnifyError::Mismatch(Ty::clone(&a), Ty::clone(&b))),
    }
}

fn bind(reg: &TyconRegistry, v: &TvRef, t: &Ty) -> UnifyResult {
    let (level, eq) = match &*v.0.borrow() {
        Tv::Unbound { level, eq, .. } => (*level, *eq),
        Tv::Gen(_) => {
            // Generic variables are rigid: they only unify with themselves
            // (handled by the `same` check in `unify`).
            return Err(UnifyError::Mismatch(Ty::Var(v.clone()), t.clone()));
        }
        Tv::Link(_) => unreachable!("head resolves links"),
    };
    occurs_adjust(v, t, level)?;
    if eq {
        force_equality(reg, t)?;
    }
    *v.0.borrow_mut() = Tv::Link(t.clone());
    Ok(())
}

/// Occurs check combined with level adjustment: every unbound variable in
/// `t` is lowered to at most `level` so that it will not be generalized
/// past the binder of `v`.
fn occurs_adjust(v: &TvRef, t: &Ty, level: u32) -> UnifyResult {
    match &*t.head() {
        Ty::Var(u) => {
            if u.same(v) {
                return Err(UnifyError::Occurs(Ty::Var(v.clone())));
            }
            let mut cell = u.0.borrow_mut();
            if let Tv::Unbound { level: ul, .. } = &mut *cell {
                if *ul > level {
                    *ul = level;
                }
            }
            Ok(())
        }
        Ty::Con(_, args) => args.iter().try_for_each(|a| occurs_adjust(v, a, level)),
        Ty::Record(fs) => fs.iter().try_for_each(|(_, a)| occurs_adjust(v, a, level)),
        Ty::Arrow(a, b) => {
            occurs_adjust(v, a, level)?;
            occurs_adjust(v, b, level)
        }
    }
}

/// Requires `t` to admit equality, marking any unbound variables inside it
/// as equality variables.
pub fn force_equality(reg: &TyconRegistry, t: &Ty) -> UnifyResult {
    match &*t.head() {
        Ty::Var(u) => {
            let mut cell = u.0.borrow_mut();
            match &mut *cell {
                Tv::Unbound { eq, .. } => {
                    *eq = true;
                    Ok(())
                }
                // A generic variable's equality attribute was fixed at
                // generalization time; trust the scheme.
                Tv::Gen(_) => Ok(()),
                Tv::Link(_) => unreachable!("head resolves links"),
            }
        }
        Ty::Con(c, args) => match c.eq {
            EqProp::Never => Err(UnifyError::NotEquality(t.clone())),
            EqProp::Always => Ok(()),
            EqProp::IfArgs => {
                // For datatypes this is sound because registration already
                // verified that all payloads admit equality when the
                // arguments do.
                if c.kind == TyconKind::Data && !reg.datatype_admits_eq(c.stamp) {
                    return Err(UnifyError::NotEquality(t.clone()));
                }
                args.iter().try_for_each(|a| force_equality(reg, a))
            }
        },
        Ty::Record(fs) => fs.iter().try_for_each(|(_, a)| force_equality(reg, a)),
        Ty::Arrow(..) => Err(UnifyError::NotEquality(t.clone())),
    }
}

/// Convenience: builds a record type from unsorted fields, sorting labels
/// canonically. Duplicate labels are the caller's responsibility.
pub fn make_record(mut fields: Vec<(sml_ast::Symbol, Ty)>) -> Ty {
    fields.sort_by(|(a, _), (b, _)| label_cmp(*a, *b));
    Ty::Record(fields.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::Tycon;
    use std::rc::Rc;

    fn reg() -> TyconRegistry {
        TyconRegistry::with_builtins()
    }

    #[test]
    fn unify_var_with_con() {
        let r = reg();
        let v = TvRef::fresh(0);
        let t = Ty::Var(v);
        unify(&r, &t, &Ty::int()).unwrap();
        assert_eq!(t.zonk().to_string(), "int");
    }

    #[test]
    fn unify_mismatch() {
        let r = reg();
        assert!(unify(&r, &Ty::int(), &Ty::real()).is_err());
        assert!(unify(&r, &Ty::arrow(Ty::int(), Ty::int()), &Ty::int()).is_err());
    }

    #[test]
    fn occurs_check() {
        let r = reg();
        let v = TvRef::fresh(0);
        let t = Ty::Var(v.clone());
        let lst = Ty::list(Ty::Var(v));
        assert!(matches!(unify(&r, &t, &lst), Err(UnifyError::Occurs(_))));
    }

    #[test]
    fn levels_are_lowered() {
        let r = reg();
        let outer = TvRef::fresh(1);
        let inner = TvRef::fresh(5);
        unify(&r, &Ty::Var(outer), &Ty::list(Ty::Var(inner.clone()))).unwrap();
        match &*inner.0.borrow() {
            Tv::Unbound { level, .. } => assert_eq!(*level, 1),
            _ => panic!("inner should stay unbound"),
        };
    }

    #[test]
    fn equality_propagation() {
        let r = reg();
        let ev = TvRef::fresh_eq(0, true);
        // ''a unifies with int list: fine.
        unify(&r, &Ty::Var(ev), &Ty::list(Ty::int())).unwrap();
        // ''b does not unify with int -> int.
        let ev2 = TvRef::fresh_eq(0, true);
        assert!(matches!(
            unify(&r, &Ty::Var(ev2), &Ty::arrow(Ty::int(), Ty::int())),
            Err(UnifyError::NotEquality(_))
        ));
    }

    #[test]
    fn equality_infects_variables() {
        let r = reg();
        let ev = TvRef::fresh_eq(0, true);
        let plain = TvRef::fresh(0);
        unify(&r, &Ty::Var(ev), &Ty::list(Ty::Var(plain.clone()))).unwrap();
        match &*plain.0.borrow() {
            Tv::Unbound { eq, .. } => assert!(*eq, "variable under eq var becomes eq"),
            _ => panic!(),
        };
    }

    #[test]
    fn ref_is_always_eq() {
        let r = reg();
        let ev = TvRef::fresh_eq(0, true);
        // 'a ref admits equality even when 'a doesn't (here: a function type).
        unify(
            &r,
            &Ty::Var(ev),
            &Ty::reference(Ty::arrow(Ty::int(), Ty::int())),
        )
        .unwrap();
    }

    #[test]
    fn records_unify_fieldwise() {
        let r = reg();
        let v = TvRef::fresh(0);
        let t1 = Ty::pair(Ty::int(), Ty::Var(v));
        let t2 = Ty::pair(Ty::int(), Ty::real());
        unify(&r, &t1, &t2).unwrap();
        assert_eq!(t1.zonk().to_string(), "int * real");
        // Different widths fail.
        assert!(unify(
            &r,
            &Ty::tuple(vec![Ty::int()]),
            &Ty::pair(Ty::int(), Ty::int())
        )
        .is_err());
    }

    #[test]
    fn gen_vars_are_rigid() {
        let r = reg();
        let v = TvRef::fresh(0);
        *v.0.borrow_mut() = Tv::Gen(0);
        assert!(unify(&r, &Ty::Var(v), &Ty::int()).is_err());
    }

    #[test]
    fn abstract_tycons_unify_by_stamp() {
        let r = reg();
        let t1 = Tycon::fresh_abstract(sml_ast::Symbol::intern("t"), 0, false);
        let t2 = Tycon::fresh_abstract(sml_ast::Symbol::intern("t"), 0, false);
        assert!(unify(
            &r,
            &Ty::Con(t1.clone(), Rc::new([])),
            &Ty::Con(t1.clone(), Rc::new([]))
        )
        .is_ok());
        assert!(unify(&r, &Ty::Con(t1, Rc::new([])), &Ty::Con(t2, Rc::new([]))).is_err());
    }
}
