//! Pipeline tests: source → LEXP → CPS → optimized CPS → closed
//! first-order program, with invariant checks under every configuration.

use sml_cps::{close, convert, optimize, verify_closed_program, CpsConfig, OptConfig, SpreadMode};
use sml_lambda::{translate, InternMode, LambdaConfig};

/// The `Record` bindings of every run of `e`.
fn count_records(e: &sml_cps::Cexp) -> usize {
    e.runs()
        .flat_map(|r| &r.binds)
        .filter(|b| matches!(b, sml_cps::Bind::Record { .. }))
        .count()
}

struct Variant {
    name: &'static str,
    lam: LambdaConfig,
    cps: CpsConfig,
}

fn variants() -> Vec<Variant> {
    let hc = InternMode::HashCons;
    vec![
        Variant {
            name: "nrp",
            lam: LambdaConfig {
                type_based: false,
                unboxed_floats: false,
                memo_coercions: true,
                intern_mode: hc,
            },
            cps: CpsConfig {
                spread: SpreadMode::None,
                max_spread: 10,
                fp_callee_save: false,
            },
        },
        Variant {
            name: "fag",
            lam: LambdaConfig {
                type_based: false,
                unboxed_floats: false,
                memo_coercions: true,
                intern_mode: hc,
            },
            cps: CpsConfig {
                spread: SpreadMode::KnownOnly,
                max_spread: 10,
                fp_callee_save: false,
            },
        },
        Variant {
            name: "rep",
            lam: LambdaConfig {
                type_based: true,
                unboxed_floats: false,
                memo_coercions: true,
                intern_mode: hc,
            },
            cps: CpsConfig {
                spread: SpreadMode::ByType,
                max_spread: 10,
                fp_callee_save: false,
            },
        },
        Variant {
            name: "ffb",
            lam: LambdaConfig {
                type_based: true,
                unboxed_floats: true,
                memo_coercions: true,
                intern_mode: hc,
            },
            cps: CpsConfig {
                spread: SpreadMode::ByType,
                max_spread: 10,
                fp_callee_save: false,
            },
        },
    ]
}

fn pipeline(src: &str, v: &Variant) -> sml_cps::ClosedProgram {
    let prog = sml_ast::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let elab = sml_elab::elaborate(&prog).unwrap_or_else(|e| panic!("elab: {e}"));
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    optimize(&mut cps, &OptConfig::default());
    close(cps)
}

fn check_all(src: &str) {
    for v in variants() {
        let closed = pipeline(src, &v);
        if let Err(e) = verify_closed_program(&closed) {
            panic!("[{}] ill-formed closed program for:\n{src}\n{e}", v.name);
        }
    }
}

#[test]
fn arithmetic_pipeline() {
    check_all("val x = 1 + 2 * 3 val y = (1.5 + 2.5) * 0.5 val z = x + floor y");
}

#[test]
fn function_pipeline() {
    check_all(
        "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
         val r = fib 10",
    );
}

#[test]
fn higher_order_pipeline() {
    check_all(
        "fun map f nil = nil | map f (x :: r) = f x :: map f r
         fun foldl f a nil = a | foldl f a (x :: r) = foldl f (f (x, a)) r
         val s = foldl (fn (x, a) => x + a) 0 (map (fn x => x * 2) [1, 2, 3])",
    );
}

#[test]
fn float_pipeline() {
    check_all(
        "fun quad f x = f (f (f (f x)))
         fun h (x : real) = x * x + 1.0
         val r = quad h 1.05 + h 2.0",
    );
}

#[test]
fn datatype_pipeline() {
    check_all(
        "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
         fun size Leaf = 0 | size (Node (l, _, r)) = 1 + size l + size r
         val t = Node (Node (Leaf, 1, Leaf), 2, Leaf)
         val n = size t",
    );
}

#[test]
fn exception_pipeline() {
    check_all(
        "exception E of int
         fun f 0 = raise E 42 | f n = n
         val a = (f 0 handle E n => n) + f 1",
    );
}

#[test]
fn callcc_pipeline() {
    check_all("val x = callcc (fn k => 1 + throw k 41)");
}

#[test]
fn ref_loop_pipeline() {
    check_all(
        "val i = ref 0
         val s = ref 0.0
         val _ = while !i < 100 do (s := !s + real (!i); i := !i + 1)",
    );
}

#[test]
fn module_pipeline() {
    check_all(
        "signature ORD = sig type t val le : t * t -> bool end
         functor Max (X : ORD) = struct fun max (a, b) = if X.le (a, b) then b else a end
         structure RO = struct type t = real fun le (a : real, b) = a <= b end
         structure M = Max (RO)
         val m = M.max (1.5, 2.5)",
    );
}

#[test]
fn spread_reduces_allocation_sites() {
    // Under ByType spreading, calling a known function with a tuple
    // argument should not allocate the tuple; count Record operators.
    let src = "fun add (a : int, b : int) = a + b
               val r = add (1, 2) + add (3, 4)";
    let vs = variants();
    let nrp = pipeline(src, &vs[0]);
    let ffb = pipeline(src, &vs[3]);
    let count_records = |p: &sml_cps::ClosedProgram| {
        let bodies = std::iter::once(&p.entry).chain(p.funs.iter().map(|f| &f.body));
        bodies.map(count_records).sum::<usize>()
    };
    assert!(
        count_records(&ffb) <= count_records(&nrp),
        "ffb should allocate no more records than nrp ({} vs {})",
        count_records(&ffb),
        count_records(&nrp)
    );
}

#[test]
fn optimizer_cancels_wrap_pairs() {
    // `id 2.5` wraps the float; the inlined identity then unwraps it:
    // the optimizer should cancel at least one pair.
    let src = "fun id x = x
               val a = id 2.5
               val b = a + 1.0";
    let v = &variants()[3];
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    let stats = optimize(&mut cps, &OptConfig::default());
    assert!(
        stats.wrap_cancelled > 0 || stats.dead > 0,
        "expected wrap/unwrap cancellation or cleanup, got {stats:?}"
    );
}

#[test]
fn optimizer_is_idempotent_at_fixpoint() {
    let src = "fun f x = x + 1 val y = f (f 2)";
    let v = &variants()[3];
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    optimize(&mut cps, &OptConfig::default());
    let size1 = cps.body.size();
    optimize(
        &mut cps,
        &OptConfig {
            inline_passes: 0,
            ..OptConfig::default()
        },
    );
    let size2 = cps.body.size();
    assert!(size2 <= size1);
}

#[test]
fn constant_folding_folds_program() {
    // A fully constant program should optimize to (nearly) nothing.
    let src = "val x = 1 + 2 val y = x * 3";
    let v = &variants()[3];
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    optimize(&mut cps, &OptConfig::default());
    // Only the built-in exception-tag allocations and the halt remain.
    assert!(cps.body.size() < 30, "residual size {}", cps.body.size());
}

#[test]
fn deep_module_pipeline() {
    check_all(
        "structure A = struct
           structure B = struct val f = fn (x : real) => x * 2.0 end
           val g = B.f
         end
         val z = A.g (A.B.f 1.0)",
    );
}

#[test]
fn string_pipeline() {
    check_all(
        "fun greet name = \"hello \" ^ name
         val msg = greet \"world\"
         val n = size msg
         val _ = print msg",
    );
}

#[test]
fn fag_flattens_only_literal_tuple_calls() {
    // Under KnownOnly, a known function whose call sites all pass literal
    // tuples gets multi-argument parameters; one with a forwarded tuple
    // does not.
    let src = "fun add (a, b) = a + b
               fun use1 () = add (1, 2) + add (3, 4)
               fun fwd p = add p
               val x = use1 () + fwd (5, 6)";
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let lam = LambdaConfig {
        type_based: false,
        unboxed_floats: false,
        memo_coercions: true,
        intern_mode: InternMode::HashCons,
    };
    let mut tr = translate(&elab, &lam);
    let cfg = CpsConfig {
        spread: SpreadMode::KnownOnly,
        max_spread: 10,
        fp_callee_save: false,
    };
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &cfg);
    optimize(&mut cps, &OptConfig::default());
    let closed = close(cps);
    verify_closed_program(&closed).unwrap();
    // `add` has a non-literal call site (through fwd), so it keeps the
    // one-argument convention: no escaping/known function may take two
    // spread Ptr(None) args where add's tuple would have been.
    for f in &closed.funs {
        let words = f
            .params
            .iter()
            .filter(|(_, c)| matches!(c, sml_cps::Cty::Ptr(None)))
            .count();
        assert!(
            words <= 3,
            "no function should show flattened-add params: {:?}",
            f.params
        );
    }
}

#[test]
fn bytype_spreads_escaping_functions() {
    // The paper's key point (5.1): with types, even escaping functions
    // use register arguments, because caller and callee agree by type.
    let src = "fun apply f = f (1, 2)
               fun add (a : int, b : int) = a + b
               fun mul (a : int, b : int) = a * b
               val r = apply add + apply mul";
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &LambdaConfig::default());
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &CpsConfig::default());
    // Contraction only: full inlining would evaluate this tiny program
    // away entirely.
    optimize(
        &mut cps,
        &OptConfig {
            inline_passes: 0,
            max_rounds: 2,
            ..OptConfig::default()
        },
    );
    let closed = close(cps);
    verify_closed_program(&closed).unwrap();
    // add/mul escape (passed to apply); under ByType their definitions
    // still take 2 spread args + closure + continuation = 4+ params.
    let spreads = closed
        .funs
        .iter()
        .filter(|f| {
            matches!(f.kind, sml_cps::FunKind::Escape)
                && f.params
                    .iter()
                    .filter(|(_, c)| *c == sml_cps::Cty::Int)
                    .count()
                    >= 2
        })
        .count();
    assert!(
        spreads >= 2,
        "escaping add/mul must spread their tuple args"
    );
}

#[test]
fn float_args_travel_in_float_registers() {
    let src = "fun hypot (x : real, y : real) = sqrt (x * x + y * y)
               fun use_it f = f (3.0, 4.0)
               val r = use_it hypot
               val s = hypot (5.0, 12.0)";
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &LambdaConfig::default());
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &CpsConfig::default());
    optimize(
        &mut cps,
        &OptConfig {
            inline_passes: 0,
            max_rounds: 2,
            ..OptConfig::default()
        },
    );
    let closed = close(cps);
    let has_float_params = closed.funs.iter().any(|f| {
        f.params
            .iter()
            .filter(|(_, c)| *c == sml_cps::Cty::Flt)
            .count()
            == 2
    });
    assert!(has_float_params, "hypot takes two FLTt parameters");
}

#[test]
fn switch_constant_folds() {
    // A switch on a known constant collapses to its arm.
    let src = "datatype d = A | B | C | D
               fun code A = 1 | code B = 2 | code C = 3 | code D = 4
               val x = code C";
    let v = &variants()[3];
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    optimize(&mut cps, &OptConfig::default());
    let has_switch = |e: &sml_cps::Cexp| {
        e.runs()
            .any(|r| matches!(r.exit, sml_cps::Exit::Switch { .. }))
    };
    assert!(!has_switch(&cps.body), "constant switch must fold away");
}

#[test]
fn dead_allocation_removed() {
    let src = "val unused = (1, 2, 3) val keep = 7";
    let v = &variants()[3];
    let prog = sml_ast::parse(src).unwrap();
    let elab = sml_elab::elaborate(&prog).unwrap();
    let mut tr = translate(&elab, &v.lam);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps);
    let stats = optimize(&mut cps, &OptConfig::default());
    assert!(
        stats.dead > 0,
        "the unused tuple must be removed: {stats:?}"
    );
    // Even the built-in exception-tag records are dead here (no exceptions
    // used), so no Record nodes survive at all.
    assert_eq!(count_records(&cps.body), 0, "no record allocations survive");
}
