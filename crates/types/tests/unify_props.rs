//! Property tests for unification and generalization (driven by the
//! std-only `sml-testkit` harness), over one type store per case.

use sml_testkit::{run_cases, Rng};
use sml_types::{Tv, Ty, TyKind, TyStore, TyconRegistry};

/// A store with the built-in datatypes registered.
fn store() -> (TyStore, TyconRegistry) {
    let mut s = TyStore::new();
    let reg = TyconRegistry::with_builtins(&mut s);
    (s, reg)
}

/// Generator of closed (variable-free) types.
fn gen_closed_ty(s: &mut TyStore, rng: &mut Rng, depth: usize) -> Ty {
    if depth == 0 || rng.range_usize(0, 10) < 4 {
        return match rng.range_usize(0, 5) {
            0 => Ty::INT,
            1 => Ty::REAL,
            2 => Ty::STRING,
            3 => Ty::BOOL,
            _ => Ty::UNIT,
        };
    }
    let d = depth - 1;
    match rng.range_usize(0, 4) {
        0 => {
            let (a, b) = (gen_closed_ty(s, rng, d), gen_closed_ty(s, rng, d));
            s.arrow(a, b)
        }
        1 => {
            let (a, b) = (gen_closed_ty(s, rng, d), gen_closed_ty(s, rng, d));
            s.pair(a, b)
        }
        2 => {
            let a = gen_closed_ty(s, rng, d);
            s.list(a)
        }
        _ => {
            let a = gen_closed_ty(s, rng, d);
            s.reference(a)
        }
    }
}

/// A copy of `t` that shares no node with it but the built-in atoms,
/// each of its nodes reached through a variable linked to it.
fn linked_copy(s: &mut TyStore, t: Ty) -> Ty {
    let node = match s.kind(t) {
        TyKind::Var(_) => return t,
        TyKind::Con(c, args) => {
            let args = args.to_vec();
            let args: Vec<Ty> = args.into_iter().map(|a| linked_copy(s, a)).collect();
            s.con(c, &args)
        }
        TyKind::Record(fs) => {
            let fs = fs.to_vec();
            let fs: Vec<_> = fs
                .into_iter()
                .map(|(l, f)| (l, linked_copy(s, f)))
                .collect();
            s.record(fs)
        }
        TyKind::Arrow(a, b) => {
            let (a, b) = (linked_copy(s, a), linked_copy(s, b));
            s.arrow(a, b)
        }
    };
    let v = s.fresh_var(0);
    s.set_tv(s.head_var(v).expect("a fresh variable"), Tv::Link(node));
    v
}

#[test]
fn unify_is_reflexive() {
    run_cases("unify_is_reflexive", 128, |rng| {
        let (mut s, reg) = store();
        let t = gen_closed_ty(&mut s, rng, 3);
        assert!(s.unify(&reg, t, t).is_ok());
    });
}

#[test]
fn unify_with_fresh_var_links() {
    run_cases("unify_with_fresh_var_links", 128, |rng| {
        let (mut s, reg) = store();
        let t = gen_closed_ty(&mut s, rng, 3);
        let v = s.fresh_var(0);
        s.unify(&reg, v, t).unwrap();
        assert_eq!(s.head(v), s.head(t));
        assert_eq!(s.show(v).to_string(), s.show(t).to_string());
    });
}

#[test]
fn unify_symmetric_on_distinct_types() {
    run_cases("unify_symmetric_on_distinct_types", 128, |rng| {
        let (mut s, reg) = store();
        let a = gen_closed_ty(&mut s, rng, 3);
        let b = gen_closed_ty(&mut s, rng, 3);
        let ab = s.unify(&reg, a, b).is_ok();
        let ba = s.unify(&reg, b, a).is_ok();
        assert_eq!(ab, ba);
    });
}

#[test]
fn generalize_then_instantiate_unifies() {
    run_cases("generalize_then_instantiate_unifies", 128, |rng| {
        // A scheme instantiated with fresh variables must unify with its
        // own body shape.
        let (mut s, reg) = store();
        let t = gen_closed_ty(&mut s, rng, 3);
        let v = s.fresh_var(5);
        let pair = s.pair(v, t);
        let scheme = s.generalize(pair, 0);
        assert_eq!(scheme.arity(), 1);
        let (inst, fresh) = s.instantiate(&scheme, 1);
        assert_eq!(fresh.len(), 1);
        let want = s.pair(Ty::INT, t);
        assert!(s.unify(&reg, inst, want).is_ok());
    });
}

#[test]
fn zonk_is_idempotent() {
    run_cases("zonk_is_idempotent", 128, |rng| {
        let (mut s, _) = store();
        let t = gen_closed_ty(&mut s, rng, 3);
        let c = linked_copy(&mut s, t);
        let z = s.zonk(c);
        assert_eq!(s.zonk(z), z, "a zonked type is link-free");
        assert_eq!(s.show(z).to_string(), s.show(t).to_string());
    });
}

#[test]
fn shared_and_copied_types_agree() {
    run_cases("shared_and_copied_types_agree", 128, |rng| {
        // A type unifies with, has the shape of, and prints as a copy of
        // itself that shares no node with it and goes through links.
        let (mut s, reg) = store();
        let t = gen_closed_ty(&mut s, rng, 3);
        let c = linked_copy(&mut s, t);
        assert!(s.same_shape(t, c));
        assert_eq!(s.show(t).to_string(), s.show(c).to_string());
        assert!(s.unify(&reg, t, c).is_ok());
    });
}

#[test]
fn display_roundtrips_structure() {
    run_cases("display_roundtrips_structure", 128, |rng| {
        // Types that display identically must unify; types that unify
        // and are closed display identically.
        let (mut s, reg) = store();
        let a = gen_closed_ty(&mut s, rng, 3);
        let b = gen_closed_ty(&mut s, rng, 3);
        if s.show(a).to_string() == s.show(b).to_string() {
            assert!(s.unify(&reg, a, b).is_ok());
        } else {
            assert!(s.unify(&reg, a, b).is_err());
        }
    });
}
