//! End-to-end elaboration tests: core language, modules, and MTD.

use sml_elab::{elaborate, minimum_typing, CompTy, Elaboration, TDec, TExpKind, TStrExp, ThinItem};

fn elab(src: &str) -> Elaboration {
    let prog = sml_ast::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    elaborate(&prog).unwrap_or_else(|e| panic!("elab: {e}"))
}

fn elab_err(src: &str) -> String {
    let prog = sml_ast::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    match elaborate(&prog) {
        Ok(_) => panic!("expected elaboration failure for: {src}"),
        Err(e) => e.msg,
    }
}

/// Number of built-in exception-tag declarations prepended to programs.
const N_BUILTIN: usize = 8;

fn user_decs(e: &Elaboration) -> &[TDec] {
    &e.decs[N_BUILTIN..]
}

#[test]
fn simple_val() {
    let e = elab("val x = 1 + 2");
    let decs = user_decs(&e);
    assert_eq!(decs.len(), 1);
    // `1 + 2` is nonexpansive? No: application -> Val (monomorphic).
    let TDec::Val { exp, .. } = &decs[0] else {
        panic!("expected Val")
    };
    assert_eq!(e.types.show(exp.ty).to_string(), "int");
}

#[test]
fn overload_defaults_to_int() {
    let e = elab("fun double x = x + x");
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    assert_eq!(
        e.types.show(e.vars.scheme(vars[0]).body).to_string(),
        "int -> int"
    );
}

#[test]
fn overload_resolves_to_real() {
    let e = elab("fun scale x = x * 2.0");
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    assert_eq!(
        e.types.show(e.vars.scheme(vars[0]).body).to_string(),
        "real -> real"
    );
}

#[test]
fn polymorphic_identity() {
    let e = elab("val id = fn x => x");
    let TDec::PolyVal { var, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let s = e.vars.scheme(*var);
    assert_eq!(s.arity(), 1);
    assert_eq!(e.types.show(s.body).to_string(), "'a -> 'a");
}

#[test]
fn map_has_standard_scheme() {
    let e = elab("fun map f nil = nil | map f (x :: r) = f x :: map f r");
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let s = e.vars.scheme(vars[0]);
    assert_eq!(s.arity(), 2);
    assert_eq!(
        e.types.show(s.body).to_string(),
        "('a -> 'b) -> 'a list -> 'b list"
    );
}

#[test]
fn value_restriction_blocks_generalization() {
    // `ref` application is expansive.
    let e = elab("val r = ref nil");
    assert!(matches!(user_decs(&e)[0], TDec::Val { .. }));
}

#[test]
fn instantiations_are_recorded() {
    let e = elab(
        "val id = fn x => x
         val n = id 3",
    );
    let TDec::Val { exp, .. } = &user_decs(&e)[1] else {
        panic!()
    };
    // exp = App(Var id [int], 3)
    let TExpKind::App(f, _) = &exp.kind else {
        panic!()
    };
    let TExpKind::Var { inst, .. } = &f.kind else {
        panic!()
    };
    assert_eq!(inst.len(), 1);
    assert_eq!(e.types.show(inst[0]).to_string(), "int");
}

#[test]
fn datatype_and_case() {
    let e = elab(
        "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
         fun depth Leaf = 0
           | depth (Node (l, _, r)) =
               let val a = depth l val b = depth r
               in 1 + (if a < b then b else a) end",
    );
    let TDec::Fun { vars, .. } = user_decs(&e).last().unwrap() else {
        panic!()
    };
    let s = e.vars.scheme(vars[0]);
    assert_eq!(e.types.show(s.body).to_string(), "'a tree -> int");
}

#[test]
fn exceptions_and_handle() {
    let e = elab(
        "exception Empty
         fun hd nil = raise Empty | hd (x :: _) = x
         val z = hd [1, 2] handle Empty => 0",
    );
    assert!(user_decs(&e)
        .iter()
        .any(|d| matches!(d, TDec::Exception { .. })));
}

#[test]
fn polymorphic_equality_requires_eqtype() {
    let msg = elab_err("val bad = (fn x => x) = (fn y => y)");
    assert!(msg.contains("equality"), "got: {msg}");
}

#[test]
fn real_equality_is_allowed() {
    // SML'90 semantics (which the paper targets): real is an eqtype.
    elab("val ok = 1.5 = 2.5");
}

#[test]
fn type_errors_are_reported() {
    assert!(elab_err("val x = 1 + \"s\"").contains("unify"));
    assert!(elab_err("val y = unknown_var").contains("unbound"));
    assert!(elab_err("fun f x = f").contains("circular"));
}

#[test]
fn flexible_record_pattern_resolves() {
    let e = elab("fun get (r : {a : int, b : real}) = let val {a, ...} = r in a end");
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    assert_eq!(
        e.types.show(e.vars.scheme(vars[0]).body).to_string(),
        "{a : int, b : real} -> int"
    );
}

#[test]
fn unresolved_flexible_record_errors() {
    let msg = elab_err("val f = fn {a, ...} => a");
    assert!(msg.contains("flexible record"), "got: {msg}");
}

#[test]
fn selector_on_tuple() {
    let e = elab("val p = (1, 2.0) val x = #2 p");
    let TDec::Val { exp, .. } = user_decs(&e).last().unwrap() else {
        panic!()
    };
    assert_eq!(e.types.show(exp.ty).to_string(), "real");
}

#[test]
fn structure_and_projection() {
    let e = elab(
        "structure S = struct val x = 42 fun f y = y + x end
         val z = S.f S.x",
    );
    let decs = user_decs(&e);
    assert!(matches!(decs[0], TDec::Structure { .. }));
    let TDec::Val { exp, .. } = decs.last().unwrap() else {
        panic!()
    };
    assert_eq!(e.types.show(exp.ty).to_string(), "int");
}

#[test]
fn signature_matching_produces_thinning() {
    let e = elab(
        "signature SIG = sig val f : int -> int end
         structure S = struct val g = 1 fun f x = x + 1 fun h x = x end
         structure T : SIG = S
         val a = T.f 3",
    );
    let thin = user_decs(&e)
        .iter()
        .find_map(|d| match d {
            TDec::Structure {
                def: TStrExp::Thin { items, .. },
                ..
            } => Some(items),
            _ => None,
        })
        .expect("a thinning");
    // Only `f` is visible; it is at slot 1 of the source structure.
    assert_eq!(thin.len(), 1);
    let ThinItem::Val { slot, .. } = &thin[0] else {
        panic!()
    };
    assert_eq!(*slot, 1);
}

#[test]
fn signature_matching_is_transparent() {
    // Through a transparent match, `t` is still int.
    elab(
        "signature SIG = sig type t val x : t end
         structure S = struct type t = int val x = 3 end
         structure T : SIG = S
         val y = T.x + 1",
    );
}

#[test]
fn abstraction_is_opaque() {
    // Through `abstraction`, `t` is abstract: T.x + 1 must fail.
    let msg = elab_err(
        "signature SIG = sig type t val x : t end
         structure S = struct type t = int val x = 3 end
         abstraction T : SIG = S
         val y = T.x + 1",
    );
    assert!(
        msg.contains("overloaded") || msg.contains("unify"),
        "got: {msg}"
    );
}

#[test]
fn opaque_ascription_via_sml97_syntax() {
    let msg = elab_err(
        "signature SIG = sig type t val x : t end
         structure T :> SIG = struct type t = int val x = 3 end
         val y = T.x + 1",
    );
    assert!(
        msg.contains("overloaded") || msg.contains("unify"),
        "got: {msg}"
    );
}

#[test]
fn signature_mismatch_is_reported() {
    let msg = elab_err(
        "signature SIG = sig val f : int -> int end
         structure T : SIG = struct val f = 3 end",
    );
    assert!(msg.contains("specification"), "got: {msg}");
}

#[test]
fn functor_application() {
    let e = elab(
        "signature ORD = sig type t val le : t * t -> bool end
         functor Sort (X : ORD) = struct
           fun min (a, b) = if X.le (a, b) then a else b
         end
         structure IntOrd = struct type t = int fun le (a : int, b) = a <= b end
         structure IS = Sort (IntOrd)
         val m = IS.min (3, 4)",
    );
    let TDec::Val { exp, .. } = user_decs(&e).last().unwrap() else {
        panic!()
    };
    assert_eq!(e.types.show(exp.ty).to_string(), "int");
    assert!(user_decs(&e).iter().any(|d| matches!(
        d,
        TDec::Structure {
            def: TStrExp::FctApp { .. },
            ..
        }
    )));
}

#[test]
fn functor_with_datatype_spec() {
    // The paper's §4.3 scenario: a datatype specified in the parameter
    // signature, used in the body, instantiated at application.
    let e = elab(
        "signature SIG = sig
           type 'a t
           datatype boxed = FOO of (real * real) t
           val p : boxed
         end
         functor F (S : SIG) = struct
           val r = case S.p of S.FOO x => [x]
         end
         structure A = struct
           type 'a t = 'a * 'a
           datatype boxed = FOO of (real * real) t
           val p = FOO ((1.0, 2.0), (3.0, 4.0))
         end
         structure B = F (A)",
    );
    assert!(!user_decs(&e).is_empty());
}

#[test]
fn nested_structures() {
    let e = elab(
        "structure Outer = struct
           structure Inner = struct val v = 10 end
           val w = Inner.v + 1
         end
         val z = Outer.Inner.v + Outer.w",
    );
    let TDec::Val { exp, .. } = user_decs(&e).last().unwrap() else {
        panic!()
    };
    assert_eq!(e.types.show(exp.ty).to_string(), "int");
}

#[test]
fn exception_through_structure() {
    elab(
        "structure S = struct exception E of int end
         val x = (raise S.E 3) handle S.E n => n",
    );
}

// ----- minimum typing derivations ------------------------------------------

#[test]
fn mtd_specializes_single_use() {
    let mut e = elab(
        "fun id x = x
         val n = id 3",
    );
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let id_var = vars[0];
    assert_eq!(e.vars.scheme(id_var).arity(), 1);
    minimum_typing(&mut e);
    let s = e.vars.scheme(id_var);
    assert_eq!(s.arity(), 0, "id used only at int collapses to monomorphic");
    assert_eq!(e.types.show(s.body).to_string(), "int -> int");
}

#[test]
fn mtd_keeps_needed_polymorphism() {
    let mut e = elab(
        "fun id x = x
         val a = id 3
         val b = id 4.0",
    );
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let id_var = vars[0];
    minimum_typing(&mut e);
    assert_eq!(
        e.vars.scheme(id_var).arity(),
        1,
        "used at int and real: stays polymorphic"
    );
}

#[test]
fn mtd_monomorphizes_equality() {
    // The Life benchmark scenario: a polymorphic membership function used
    // only at a concrete type; MTD must make the inner `=` monomorphic.
    let mut e = elab(
        "fun member (x, nil) = false
           | member (x, y :: r) = x = y orelse member (x, r)
         val t = member (1.5, [1.0, 1.5])",
    );
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let mvar = vars[0];
    assert_eq!(e.vars.scheme(mvar).arity(), 1);
    minimum_typing(&mut e);
    assert_eq!(e.vars.scheme(mvar).arity(), 0);
    assert_eq!(
        e.types.show(e.vars.scheme(mvar).body).to_string(),
        "real * real list -> bool"
    );
    // And the PolyEq instantiation inside the (re-gathered) body is real.
    let TDec::Fun { exps: new_exps, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let mut found = false;
    find_polyeq_inst(&e.types, &new_exps[0], &mut found);
    assert!(found, "inner `=` instantiation became real");
}

fn find_polyeq_inst(tys: &sml_types::TyStore, e: &sml_elab::TExp, found: &mut bool) {
    let find_polyeq_inst = |e, found: &mut bool| find_polyeq_inst(tys, e, found);
    match &e.kind {
        TExpKind::Prim {
            prim: sml_elab::Prim::PolyEq,
            inst,
        } if inst.len() == 1 && tys.show(inst[0]).to_string() == "real" => {
            *found = true;
        }
        TExpKind::Record(fs) => fs.iter().for_each(|(_, e)| find_polyeq_inst(e, found)),
        TExpKind::Select { arg, .. } => find_polyeq_inst(arg, found),
        TExpKind::App(f, a) => {
            find_polyeq_inst(f, found);
            find_polyeq_inst(a, found);
        }
        TExpKind::Fn { rules, .. } => rules.iter().for_each(|r| find_polyeq_inst(&r.exp, found)),
        TExpKind::Case(s, rules) => {
            find_polyeq_inst(s, found);
            rules.iter().for_each(|r| find_polyeq_inst(&r.exp, found));
        }
        TExpKind::If(a, b, c) => {
            find_polyeq_inst(a, found);
            find_polyeq_inst(b, found);
            find_polyeq_inst(c, found);
        }
        TExpKind::Seq(es) => es.iter().for_each(|e| find_polyeq_inst(e, found)),
        TExpKind::Let(_, b) => find_polyeq_inst(b, found),
        TExpKind::Raise(e) => find_polyeq_inst(e, found),
        TExpKind::Handle(e, rules) => {
            find_polyeq_inst(e, found);
            rules.iter().for_each(|r| find_polyeq_inst(&r.exp, found));
        }
        _ => {}
    }
}

#[test]
fn mtd_skips_exported_vars() {
    let mut e = elab(
        "structure S = struct fun id x = x end
         val n = S.id 7",
    );
    minimum_typing(&mut e);
    // The exported `id` keeps its polymorphic scheme (its boundary type
    // was recorded in the structure's export list).
    let TDec::Structure {
        def: TStrExp::Struct { exports, .. },
        ..
    } = &user_decs(&e)[0]
    else {
        panic!()
    };
    let sml_elab::ExportItem::Val { scheme, .. } = &exports[0].item else {
        panic!()
    };
    assert_eq!(scheme.arity(), 1);
}

#[test]
fn mtd_chains_through_callers() {
    // g is specialized first (uses-before-defs), which then makes f's
    // gathered instantiation concrete.
    let mut e = elab(
        "fun f x = x
         fun g y = f y
         val r = g 2.5",
    );
    minimum_typing(&mut e);
    let TDec::Fun { vars: fv, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    let TDec::Fun { vars: gv, .. } = &user_decs(&e)[1] else {
        panic!()
    };
    assert_eq!(
        e.types.show(e.vars.scheme(gv[0]).body).to_string(),
        "real -> real"
    );
    assert_eq!(
        e.types.show(e.vars.scheme(fv[0]).body).to_string(),
        "real -> real"
    );
}

#[test]
fn str_ty_shapes() {
    let e = elab(
        "structure S = struct
           val a = 1
           exception B
           structure C = struct val d = 2.0 end
         end",
    );
    let TDec::Structure {
        def: TStrExp::Struct { exports, .. },
        ..
    } = &user_decs(&e)[0]
    else {
        panic!()
    };
    assert_eq!(exports.len(), 3);
    assert!(matches!(exports[0].item, sml_elab::ExportItem::Val { .. }));
    assert!(matches!(exports[1].item, sml_elab::ExportItem::Exn { .. }));
    assert!(matches!(exports[2].item, sml_elab::ExportItem::Str { .. }));
    let _ = CompTy::Exn;
}

#[test]
fn val_spec_polymorphic_matching() {
    // A polymorphic structure value matches a monomorphic spec (an
    // instantiation), but not vice versa.
    elab(
        "signature S = sig val f : int -> int end
         structure T : S = struct fun f x = x end",
    );
    let msg = elab_err(
        "signature S = sig val f : 'a -> 'a end
         structure T : S = struct fun f (x : int) = x end",
    );
    assert!(msg.contains("specification"), "{msg}");
}

#[test]
fn eqtype_spec_matching() {
    elab(
        "signature S = sig eqtype t val x : t end
         structure T : S = struct type t = int val x = 1 end",
    );
}

#[test]
fn while_body_can_be_any_type() {
    let e = elab("val r = ref 0 val _ = while !r < 3 do r := !r + 1");
    assert!(!user_decs(&e).is_empty());
}

#[test]
fn explicit_tyvar_binders() {
    let e = elab("fun 'a id (x : 'a) = x val n = id 3");
    let TDec::Fun { vars, .. } = &user_decs(&e)[0] else {
        panic!()
    };
    assert_eq!(e.vars.scheme(vars[0]).arity(), 1);
}

#[test]
fn char_and_string_patterns_type() {
    elab(
        "fun f #\"a\" = 1 | f #\"b\" = 2 | f c = ord c
         fun g \"x\" = 1 | g s = size s
         val n = f #\"z\" + g \"hello\"",
    );
}

#[test]
fn datatype_shadowing() {
    // Rebinding a datatype name shadows the old constructors.
    elab(
        "datatype d = A | B
         val first = A
         datatype d = A of int | C
         val second = A 3
         fun pick (A n) = n | pick C = 0",
    );
}
