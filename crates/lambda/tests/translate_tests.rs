//! End-to-end translation tests: source → Absyn → LEXP, checking the
//! typed-IR invariant under every compiler configuration.

use sml_lambda::{translate, verify_translation, InternMode, LambdaConfig, Lexp, Translation};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

fn configs() -> Vec<(&'static str, LambdaConfig)> {
    vec![
        (
            "nrp",
            LambdaConfig {
                type_based: false,
                unboxed_floats: false,
                memo_coercions: true,
                intern_mode: InternMode::HashCons,
            },
        ),
        (
            "rep",
            LambdaConfig {
                type_based: true,
                unboxed_floats: false,
                memo_coercions: true,
                intern_mode: InternMode::HashCons,
            },
        ),
        (
            "ffb",
            LambdaConfig {
                type_based: true,
                unboxed_floats: true,
                memo_coercions: true,
                intern_mode: InternMode::HashCons,
            },
        ),
        (
            "ffb-nomemo",
            LambdaConfig {
                type_based: true,
                unboxed_floats: true,
                memo_coercions: false,
                intern_mode: InternMode::HashCons,
            },
        ),
    ]
}

fn trans(src: &str, cfg: &LambdaConfig) -> Translation {
    let prog = sml_ast::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let elab = sml_elab::elaborate(&prog).unwrap_or_else(|e| panic!("elab: {e}"));
    translate(&elab, cfg)
}

fn trans_mtd(src: &str, cfg: &LambdaConfig) -> Translation {
    let prog = sml_ast::parse(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let mut elab = sml_elab::elaborate(&prog).unwrap_or_else(|e| panic!("elab: {e}"));
    sml_elab::minimum_typing(&mut elab);
    translate(&elab, cfg)
}

/// Checks the typed-IR invariant for a program under every config.
fn check_all(src: &str) {
    for (name, cfg) in configs() {
        let mut tr = trans(src, &cfg);
        if let Err(e) = verify_translation(&mut tr) {
            panic!("[{name}] ill-typed LEXP for program:\n{src}\nerror: {e}");
        }
        let mut tr = trans_mtd(src, &cfg);
        if let Err(e) = verify_translation(&mut tr) {
            panic!("[{name}+mtd] ill-typed LEXP for program:\n{src}\nerror: {e}");
        }
    }
}

#[test]
fn arithmetic() {
    check_all("val x = 1 + 2 * 3 val y = 1.5 + 2.5 val z = x + floor y");
}

#[test]
fn functions_and_polymorphism() {
    check_all(
        "fun id x = x
         fun compose f g x = f (g x)
         val a = id 3
         val b = id 2.5
         val c = compose id id 7",
    );
}

#[test]
fn quad_example_from_paper() {
    // The paper's §1 motivating example: a polymorphic quad applied to a
    // monomorphic real function requires wrapping h.
    check_all(
        "fun quad f x = f (f (f (f x)))
         fun h (x : real) = x * x * x + x * 2.0 + 1.0
         val result = h (h 1.05) * quad h 1.05",
    );
}

#[test]
fn lists_and_recursion() {
    check_all(
        "fun map f nil = nil | map f (x :: r) = f x :: map f r
         fun sum nil = 0 | sum (x :: r) = x + sum r
         val s = sum (map (fn x => x + 1) [1, 2, 3])",
    );
}

#[test]
fn float_lists_are_recursively_boxed() {
    // Figure 2: (real * real) list elements coerce to standard boxed
    // representations at cons/decon.
    check_all(
        "fun unzip nil = (nil, nil)
           | unzip ((a, b) :: rest) =
               let val (xs, ys) = unzip rest in (a :: xs, b :: ys) end
         val z = unzip [(4.51, 3.14), (4.51, 2.33), (7.81, 3.45)]",
    );
}

#[test]
fn datatypes_and_matches() {
    check_all(
        "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
         fun insert (t, x : int) =
           case t of
             Leaf => Node (Leaf, x, Leaf)
           | Node (l, y, r) =>
               if x < y then Node (insert (l, x), y, r)
               else Node (l, y, insert (r, x))
         val t = insert (insert (Leaf, 3), 1)",
    );
}

#[test]
fn float_datatype_payloads() {
    check_all(
        "datatype shape = Circle of real * real * real | Square of real
         fun area (Circle (_, _, r)) = r * r * 3.14159
           | area (Square s) = s * s
         val a = area (Circle (1.0, 2.0, 3.0)) + area (Square 2.0)",
    );
}

#[test]
fn exceptions() {
    check_all(
        "exception Neg of int
         fun f x = if x < 0 then raise Neg x else x
         val r = f 3 handle Neg n => 0 - n | _ => 0",
    );
}

#[test]
fn refs_and_arrays() {
    check_all(
        "val r = ref 0
         val _ = r := !r + 1
         val fr = ref 1.5
         val _ = fr := !fr + 1.0
         val a = array (10, 0.0)
         val _ = aupdate (a, 3, 2.5)
         val x = asub (a, 3)
         val n = alength a",
    );
}

#[test]
fn strings_and_chars() {
    check_all(
        "val s = \"hello\" ^ \" \" ^ \"world\"
         val n = size s
         val c = strsub (s, 0)
         val i = ord c
         val c2 = chr (i + 1)
         val b = s = \"hello world\"
         val lt = \"abc\" < \"abd\"",
    );
}

#[test]
fn polymorphic_equality() {
    check_all(
        "fun member (x, nil) = false
           | member (x, y :: r) = x = y orelse member (x, r)
         val a = member (3, [1, 2, 3])
         val b = member ((1, 2.0), [(1, 2.0)])",
    );
}

#[test]
fn while_and_sequence() {
    check_all(
        "val i = ref 0
         val s = ref 0
         val _ = while !i < 10 do (s := !s + !i; i := !i + 1)",
    );
}

#[test]
fn callcc_and_throw() {
    check_all(
        "val x = callcc (fn k => 1 + throw k 41)
         val y = callcc (fn k => 2.5)",
    );
}

#[test]
fn structures_and_thinning() {
    check_all(
        "signature S = sig val f : real -> real val c : real end
         structure Impl = struct
           fun f x = x * 2.0
           val c = 3.14
           val hidden = \"not visible\"
         end
         structure A : S = Impl
         val r = A.f A.c",
    );
}

#[test]
fn abstraction_coerces_to_standard_reps() {
    check_all(
        "signature SIG = sig type t val mk : real * real -> t val get : t -> real end
         structure Impl = struct
           type t = real * real
           fun mk (a, b) = (a, b)
           fun get ((a, b) : t) = a
         end
         abstraction A : SIG = Impl
         val v = A.get (A.mk (1.0, 2.0))",
    );
}

#[test]
fn functor_application_with_coercions() {
    check_all(
        "signature ORD = sig type t val le : t * t -> bool end
         functor MaxFn (X : ORD) = struct
           fun max (a, b) = if X.le (a, b) then b else a
         end
         structure RealOrd = struct type t = real fun le (a : real, b) = a <= b end
         structure M = MaxFn (RealOrd)
         val m = M.max (1.5, 2.5)",
    );
}

#[test]
fn functor_with_datatype_spec_coercions() {
    // Paper §4.3: constructor projections through abstract types.
    check_all(
        "signature SIG = sig
           type t
           datatype w = FOO of t
           val p : w
         end
         functor F (S : SIG) = struct
           val xs = case S.p of S.FOO x => [x]
         end
         structure A = struct
           type t = real * real
           datatype w = FOO of t
           val p = FOO (1.0, 2.0)
         end
         structure B = F (A)",
    );
}

#[test]
fn nested_structure_coercions() {
    check_all(
        "structure Outer = struct
           structure Inner = struct val v = 2.5 fun scale x = x * v end
           val w = Inner.scale 4.0
         end
         val z = Outer.Inner.scale Outer.w",
    );
}

#[test]
fn nrp_mode_has_no_coercion_code() {
    // In the non-type-based compiler everything is standard boxed, so no
    // wrap/unwrap pairs are inserted at instantiations.
    let cfg = LambdaConfig {
        type_based: false,
        unboxed_floats: false,
        memo_coercions: true,
        intern_mode: InternMode::HashCons,
    };
    let tr = trans(
        "fun id x = x
         val a = id 3
         val b = id 2.5",
        &cfg,
    );
    // Float literals are boxed (that is the standard representation),
    // but no function wrappers or record rebuilds are ever needed.
    assert_eq!(tr.stats.fn_wrappers, 0);
    assert_eq!(tr.stats.record_rebuilds, 0);
}

#[test]
fn ffb_mode_wraps_reals_at_polymorphic_uses() {
    let cfg = LambdaConfig::default();
    let tr = trans(
        "fun id x = x
         val b = id 2.5",
        &cfg,
    );
    assert!(tr.stats.wraps > 0, "id at real requires wrapping coercions");
}

#[test]
fn shared_coercions_reduce_size() {
    // Two identical functor applications share one module coercion when
    // memo-ization is on.
    let src = "signature S = sig type t val mk : real -> t end
               functor F (X : S) = struct val a = X.mk 1.0 val b = X.mk 2.0 end
               structure R = struct type t = real fun mk x = x end
               structure A = F (R)
               structure B = F (R)";
    let memo = trans(src, &LambdaConfig::default());
    let nomemo = trans(
        src,
        &LambdaConfig {
            memo_coercions: false,
            ..LambdaConfig::default()
        },
    );
    assert!(
        memo.lexp.size() <= nomemo.lexp.size(),
        "memoized: {} nodes, inlined: {} nodes",
        memo.lexp.size(),
        nomemo.lexp.size()
    );
}

#[test]
fn mtd_removes_wrappers() {
    // Without MTD, locally-monomorphic `scale` stays polymorphic and its
    // float argument is boxed; with MTD the coercions disappear.
    let src = "fun apply f x = f x
               fun double (y : real) = y + y
               val r = apply double 3.0";
    let cfg = LambdaConfig::default();
    let plain = trans(src, &cfg);
    let mtd = trans_mtd(src, &cfg);
    assert!(
        mtd.stats.wraps <= plain.stats.wraps,
        "mtd {} wraps vs plain {} wraps",
        mtd.stats.wraps,
        plain.stats.wraps
    );
}

#[test]
fn pattern_binds_and_tuples() {
    check_all(
        "val (a, b) = (1, 2.5)
         val {x, y} = {x = 1.0, y = 2.0}
         val sum = a + floor (b + x + y)",
    );
}

#[test]
fn deep_patterns() {
    check_all(
        "datatype t = A of (int * real) list | B
         fun f (A ((n, r) :: _)) = r
           | f (A nil) = 0.0
           | f B = 1.0
         val x = f (A [(1, 2.0)]) + f B",
    );
}

#[test]
fn handle_with_multiple_exceptions() {
    check_all(
        "exception E1
         exception E2 of real
         fun risky 0 = raise E1
           | risky 1 = raise E2 1.5
           | risky n = n
         val r = (risky 0 handle E1 => 10 | E2 x => floor x)",
    );
}

#[test]
fn string_patterns() {
    check_all(
        "fun greet \"hello\" = 1 | greet \"bye\" = 2 | greet _ = 0
         val g = greet \"bye\"",
    );
}

fn count_nodes(e: &Lexp) -> usize {
    e.size()
}

#[test]
fn structural_interning_still_correct() {
    let cfg = LambdaConfig {
        intern_mode: InternMode::Structural,
        ..LambdaConfig::default()
    };
    let mut tr = trans(
        "fun map f nil = nil | map f (x :: r) = f x :: map f r
         val s = map (fn x => x + 1.0) [1.0, 2.0]",
        &cfg,
    );
    assert!(verify_translation(&mut tr).is_ok());
    assert!(
        tr.interner.deep_compares > 0,
        "structural mode exercises deep compares"
    );
    assert!(count_nodes(&tr.lexp) > 0);
}

#[test]
fn dense_matches_emit_switch() {
    fn has_switch(e: &Lexp) -> bool {
        matches!(e, Lexp::SwitchInt(..)) || e.children().any(has_switch)
    }
    let tr = trans(
        "datatype d = A | B | C | D
         fun code A = 1 | code B = 2 | code C = 3 | code D = 4
         val x = code B",
        &LambdaConfig::default(),
    );
    assert!(
        has_switch(&tr.lexp),
        "dense constant match must compile to SwitchInt"
    );
}

#[test]
fn a_deeply_shared_type_translates_in_its_shared_size() {
    // `r70`'s type is a pair tower of 2^70 leaves as a tree and 70
    // levels shared. Translation makes a few LTYs per level, and the
    // interner's counts, which count a remembered translation's calls as
    // a tree walk makes them, saturate instead of overflowing.
    let mut src = String::from("fun p x = (x, x)\nval r0 = 1\n");
    for i in 1..=70 {
        src += &format!("val r{i} = p r{}\n", i - 1);
    }
    check_all(&src);
    let s = trans(&src, &LambdaConfig::default()).interner.stats();
    assert!(s.interned < 1_000, "{s:?}");
    assert_eq!((s.intern_calls, s.hashcons_hits), (u64::MAX, u64::MAX));
}

#[test]
fn doubling_functions_translate_and_verify_in_their_shared_size() {
    // `f8`'s type has 2^128 leaves as a tree. The coercion and checking
    // walks over two LTYs (`is_identity`, `compat`) remember each pair
    // of handles, so every configuration translates and checks it in
    // proportion to the shared type.
    let mut src = String::from("fun f1 x = (x, x)\n");
    for k in 2..=8 {
        src += &format!("fun f{k} x = f{} (f{} x)\n", k - 1, k - 1);
    }
    src += "val r = f8 1";
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        check_all(&src);
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("every configuration translates and checks f8 within 10 s");
}
