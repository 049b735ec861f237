//! Differential execution tests: every compiler variant must produce the
//! same output for the same program, and that output must be the correct
//! one.

use smlc::{CompileError, Compiled, Session, Variant, VmResult};

/// Compiles through a fresh single-variant session.
fn compile(src: &str, v: Variant) -> Result<Compiled, CompileError> {
    Session::with_variant(v).compile(src)
}

/// Compiles and runs under every variant; asserts all outputs equal
/// `expect` and the result is a normal halt.
fn check(src: &str, expect: &str) {
    for v in Variant::ALL {
        let c = compile(src, v).unwrap_or_else(|e| panic!("[{v}] compile failed: {e}\n{src}"));
        let o = c.run();
        assert!(
            matches!(o.result, VmResult::Value(_)),
            "[{v}] abnormal result {:?} for:\n{src}",
            o.result
        );
        assert_eq!(o.output, expect, "[{v}] wrong output for:\n{src}");
    }
}

/// Expects an uncaught exception with the given name under every variant.
fn check_uncaught(src: &str, name: &str) {
    for v in Variant::ALL {
        let c = compile(src, v).unwrap_or_else(|e| panic!("[{v}] compile failed: {e}"));
        let o = c.run();
        assert_eq!(
            o.result,
            VmResult::Uncaught(name.to_owned()),
            "[{v}] expected uncaught {name} for:\n{src}"
        );
    }
}

fn p(e: &str) -> String {
    format!("val _ = print ({e}) val _ = print \"\\n\"")
}

#[test]
fn integers() {
    check(&format!("val x = 2 + 3 * 4 {}", p("itos x")), "14\n");
    check(&format!("val x = 17 div 5 {}", p("itos x")), "3\n");
    check(&format!("val x = 17 mod 5 {}", p("itos x")), "2\n");
    check(&format!("val x = ~3 + 5 {}", p("itos x")), "2\n");
    check(
        &format!("val x = ~ 7 {}", p("itos x")),
        "~-7\n".trim_start_matches('~'),
    ); // -7
}

#[test]
fn booleans_and_comparisons() {
    check(
        &format!(
            "val x = if 3 < 4 andalso 5 >= 5 then 1 else 0 {}",
            p("itos x")
        ),
        "1\n",
    );
    check(
        &format!(
            "val x = if 3 = 4 orelse 4 <> 4 then 1 else 0 {}",
            p("itos x")
        ),
        "0\n",
    );
    check(
        &format!("val x = if \"abc\" < \"abd\" then 1 else 0 {}", p("itos x")),
        "1\n",
    );
}

#[test]
fn reals() {
    check(&format!("val x = 1.5 + 2.25 {}", p("rtos x")), "3.75\n");
    check(&format!("val x = 10.0 / 4.0 {}", p("rtos x")), "2.5\n");
    check(&format!("val x = floor 3.7 {}", p("itos x")), "3\n");
    check(&format!("val x = real 7 + 0.5 {}", p("rtos x")), "7.5\n");
    check(&format!("val x = sqrt 16.0 {}", p("rtos x")), "4.0\n");
}

#[test]
fn recursion() {
    check(
        &format!(
            "fun fact n = if n = 0 then 1 else n * fact (n - 1) {}",
            p("itos (fact 10)")
        ),
        "3628800\n",
    );
    check(
        &format!(
            "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) {}",
            p("itos (fib 15)")
        ),
        "610\n",
    );
}

#[test]
fn float_loops() {
    check(
        &format!(
            "fun lp (s, n) = if n = 0 then s else lp (s + 0.5, n - 1) {}",
            p("rtos (lp (0.0, 100))")
        ),
        "50.0\n",
    );
}

#[test]
fn higher_order_functions() {
    check(
        &format!(
            "fun map f nil = nil | map f (x :: r) = f x :: map f r
             fun sum nil = 0 | sum (x :: r) = x + sum r
             {}",
            p("itos (sum (map (fn x => x * x) [1, 2, 3, 4]))")
        ),
        "30\n",
    );
    check(
        &format!(
            "fun foldl f a nil = a | foldl f a (x :: r) = foldl f (f (x, a)) r
             {}",
            p("itos (foldl (fn (x, a) => x + a) 0 [10, 20, 30])")
        ),
        "60\n",
    );
}

#[test]
fn quad_example() {
    // The paper's §1 example: quad h 1.05 where h is monomorphic real.
    check(
        &format!(
            "fun quad f x = f (f (f (f x)))
             fun h (y : real) = y * 2.0
             {}",
            p("rtos (quad h 1.0)")
        ),
        "16.0\n",
    );
}

#[test]
fn float_record_unzip() {
    // Figure 2: lists of flat real pairs.
    check(
        &format!(
            "fun unzip nil = (nil, nil)
               | unzip ((a, b) :: r) = let val (xs, ys) = unzip r in (a :: xs, b :: ys) end
             fun suml nil = 0.0 | suml (x :: r) = x + suml r
             val (xs, ys) = unzip [(1.5, 10.0), (2.5, 20.0), (3.0, 30.0)]
             {}",
            p("rtos (suml xs + suml ys)")
        ),
        "67.0\n",
    );
}

#[test]
fn datatypes() {
    check(
        &format!(
            "datatype 'a tree = Leaf | Node of 'a tree * 'a * 'a tree
             fun insert (Leaf, x : int) = Node (Leaf, x, Leaf)
               | insert (Node (l, y, r), x) =
                   if x < y then Node (insert (l, x), y, r)
                   else Node (l, y, insert (r, x))
             fun total Leaf = 0 | total (Node (l, x, r)) = total l + x + total r
             fun build (nil, t) = t | build (x :: rest, t) = build (rest, insert (t, x))
             {}",
            p("itos (total (build ([5, 3, 8, 1, 9], Leaf)))")
        ),
        "26\n",
    );
    check(
        &format!(
            "datatype color = Red | Green | Blue
             fun code Red = 1 | code Green = 2 | code Blue = 3
             {}",
            p("itos (code Green + code Blue)")
        ),
        "5\n",
    );
    check(
        &format!(
            "datatype shape = Circle of real | Rect of real * real
             fun area (Circle r) = r * r * 3.0 | area (Rect (w, h)) = w * h
             {}",
            p("rtos (area (Circle 2.0) + area (Rect (3.0, 4.0)))")
        ),
        "24.0\n",
    );
}

#[test]
fn options_and_patterns() {
    check(
        &format!(
            "fun get (SOME x) = x | get NONE = 0
             val a = get (SOME 41)
             val b = get NONE
             {}",
            p("itos (a + b)")
        ),
        "41\n",
    );
}

#[test]
fn exceptions() {
    check(
        &format!(
            "exception Neg of int
             fun f x = if x < 0 then raise Neg x else x * 2
             val a = f 21 handle Neg n => n
             {}",
            p("itos a")
        ),
        "42\n",
    );
    check(
        &format!(
            "exception E1
             exception E2 of int
             fun risky 0 = raise E1 | risky 1 = raise E2 7 | risky n = n * 100
             val r = (risky 0 handle E1 => 1) + (risky 1 handle E2 n => n) + risky 2
             {}",
            p("itos r")
        ),
        "208\n",
    );
    check(
        &format!(
            "val d = (1 div 0) handle Div => ~1
             {}",
            p("itos d")
        ),
        "-1\n",
    );
    check(
        &format!(
            "val s = (strsub (\"abc\", 9); 0) handle Subscript => 1
             {}",
            p("itos s")
        ),
        "1\n",
    );
}

#[test]
fn uncaught_exceptions() {
    check_uncaught("exception Boom val _ = raise Boom", "Boom");
    check_uncaught("val x = 1 div 0", "Div");
    check_uncaught("fun f 0 = 1 val x = f 3", "Match");
}

#[test]
fn handler_restoration() {
    // After a handled exception, the outer handler is restored.
    check(
        &format!(
            "exception A exception B
             fun g () = (raise A) handle B => 0
             val r = g () handle A => 42
             {}",
            p("itos r")
        ),
        "42\n",
    );
}

#[test]
fn refs_and_loops() {
    check(
        &format!(
            "val i = ref 0
             val s = ref 0
             val _ = while !i < 10 do (s := !s + !i; i := !i + 1)
             {}",
            p("itos (!s)")
        ),
        "45\n",
    );
    check(
        &format!(
            "val r = ref 1.5
             val _ = r := !r + 1.0
             {}",
            p("rtos (!r)")
        ),
        "2.5\n",
    );
}

#[test]
fn arrays() {
    check(
        &format!(
            "val a = array (10, 0)
             fun fill i = if i = 10 then () else (aupdate (a, i, i * i); fill (i + 1))
             val _ = fill 0
             fun total (i, s) = if i = 10 then s else total (i + 1, s + asub (a, i))
             {}",
            p("itos (total (0, 0))")
        ),
        "285\n",
    );
    check(
        &format!(
            "val a = array (3, 1.5)
             val _ = aupdate (a, 1, 2.5)
             {}",
            p("rtos (asub (a, 0) + asub (a, 1))")
        ),
        "4.0\n",
    );
    check(
        &format!("val a = array (7, 0) {}", p("itos (alength a)")),
        "7\n",
    );
}

#[test]
fn strings() {
    check(
        &format!("val s = \"foo\" ^ \"bar\" {}", p("s ^ itos (size s)")),
        "foobar6\n",
    );
    check(
        &format!("val c = strsub (\"hello\", 1) {}", p("itos (ord c)")),
        "101\n",
    );
    check(
        &format!(
            "val x = if \"same\" = \"same\" then 1 else 0 {}",
            p("itos x")
        ),
        "1\n",
    );
}

#[test]
fn polymorphic_equality_on_structures() {
    check(
        &format!(
            "fun member (x, nil) = false
               | member (x, y :: r) = x = y orelse member (x, r)
             val a = if member ((1, 2), [(3, 4), (1, 2)]) then 1 else 0
             val b = if member (\"q\", [\"a\", \"b\"]) then 1 else 0
             {}",
            p("itos (a * 10 + b)")
        ),
        "10\n",
    );
    // Real equality (SML'90) — and the MTD Life scenario.
    check(
        &format!(
            "fun member (x, nil) = false
               | member (x, y :: r) = x = y orelse member (x, r)
             val a = if member (1.5, [1.0, 1.5, 2.0]) then 1 else 0
             {}",
            p("itos a")
        ),
        "1\n",
    );
}

#[test]
fn callcc_basics() {
    check(
        &format!("val x = callcc (fn k => 1 + throw k 41) {}", p("itos x")),
        "41\n",
    );
    check(
        &format!("val x = callcc (fn k => 42) {}", p("itos x")),
        "42\n",
    );
    check(
        &format!(
            "val r = 1 + callcc (fn k => if true then throw k 10 else 0)
             {}",
            p("itos r")
        ),
        "11\n",
    );
}

#[test]
fn structures_and_signatures() {
    check(
        &format!(
            "structure S = struct val base = 10 fun add x = x + base end
             {}",
            p("itos (S.add 32)")
        ),
        "42\n",
    );
    check(
        &format!(
            "signature SIG = sig val f : int -> int end
             structure Impl = struct fun f x = x * 2 fun hidden x = x end
             structure A : SIG = Impl
             {}",
            p("itos (A.f 21)")
        ),
        "42\n",
    );
}

#[test]
fn abstraction_execution() {
    check(
        &format!(
            "signature SIG = sig type t val mk : real * real -> t val first : t -> real end
             structure Impl = struct
               type t = real * real
               fun mk (a, b) = (a, b)
               fun first ((a, b) : t) = a
             end
             abstraction A : SIG = Impl
             {}",
            p("rtos (A.first (A.mk (2.5, 9.0)))")
        ),
        "2.5\n",
    );
}

#[test]
fn functor_execution() {
    check(
        &format!(
            "signature ORD = sig type t val le : t * t -> bool end
             functor Max (X : ORD) = struct fun max (a, b) = if X.le (a, b) then b else a end
             structure IntOrd = struct type t = int fun le (a : int, b) = a <= b end
             structure RealOrd = struct type t = real fun le (a : real, b) = a <= b end
             structure MI = Max (IntOrd)
             structure MR = Max (RealOrd)
             val i = MI.max (3, 7)
             val r = MR.max (2.5, 1.5)
             {}",
            p("itos i ^ \" \" ^ rtos r")
        ),
        "7 2.5\n",
    );
}

#[test]
fn functor_with_exception() {
    check(
        &format!(
            "signature S = sig exception E val f : int -> int end
             structure Impl = struct exception E fun f 0 = raise E | f n = n end
             functor F (X : S) = struct fun safe n = X.f n handle X.E => ~1 end
             structure A = F (Impl)
             {}",
            p("itos (A.safe 0 + A.safe 5)")
        ),
        "4\n",
    );
}

#[test]
fn nested_modules() {
    check(
        &format!(
            "structure Outer = struct
               structure Inner = struct val v = 2.5 fun scale x = x * v end
               val w = Inner.scale 4.0
             end
             {}",
            p("rtos (Outer.Inner.scale Outer.w)")
        ),
        "25.0\n",
    );
}

#[test]
fn pattern_match_order() {
    check(
        &format!(
            "fun f (0, _) = 1 | f (_, 0) = 2 | f (a, b) = a + b
             {}",
            p("itos (f (0, 5) * 100 + f (5, 0) * 10 + f (3, 4))")
        ),
        "127\n",
    );
    check(
        &format!(
            "fun g \"a\" = 1 | g \"b\" = 2 | g _ = 3
             {}",
            p("itos (g \"a\" * 100 + g \"b\" * 10 + g \"z\")")
        ),
        "123\n",
    );
}

#[test]
fn deep_datatype_patterns() {
    check(
        &format!(
            "datatype t = L | N of t * int * t
             fun depth L = 0 | depth (N (l, _, r)) =
               let val a = depth l val b = depth r
               in 1 + (if a < b then b else a) end
             {}",
            p("itos (depth (N (N (L, 1, N (L, 2, L)), 3, L)))")
        ),
        "3\n",
    );
}

#[test]
fn curried_functions() {
    check(
        &format!(
            "fun add3 a b c = a + b + c
             val add12 = add3 5 7
             {}",
            p("itos (add12 30)")
        ),
        "42\n",
    );
}

#[test]
fn mutual_recursion() {
    check(
        &format!(
            "fun even 0 = true | even n = odd (n - 1)
             and odd 0 = false | odd n = even (n - 1)
             {}",
            p("itos (if even 10 andalso odd 7 then 1 else 0)")
        ),
        "1\n",
    );
}

#[test]
fn list_append_and_rev() {
    check(
        &format!(
            "fun op @ (nil, ys) = ys | op @ (x :: xs, ys) = x :: (xs @ ys)
             fun rev nil = nil | rev (x :: r) = rev r @ [x]
             fun sum nil = 0 | sum (x :: r) = x + sum r
             fun hd (x :: _) = x
             {}",
            p("itos (hd (rev [1, 2, 9]) * 100 + sum ([1, 2] @ [3, 4]))")
        ),
        "910\n",
    );
}

#[test]
fn gc_survives_deep_structures() {
    // Allocate enough to force multiple collections with live data.
    check(
        &format!(
            "fun build 0 = nil | build n = (n, n * 2) :: build (n - 1)
             fun total nil = 0 | total ((a, b) :: r) = a + b + total r
             fun iter (0, acc) = acc
               | iter (k, acc) = iter (k - 1, acc + total (build 100))
             {}",
            p("itos (iter (100, 0))")
        ),
        &format!("{}\n", 100 * (100 * 101 / 2 * 3)),
    );
}

#[test]
fn gc_preserves_floats() {
    check(
        &format!(
            "fun build 0 = nil | build n = (real n, real n * 0.5) :: build (n - 1)
             fun total nil = 0.0 | total ((a, b) :: r) = a + b + total r
             fun iter (0, acc) = acc
               | iter (k, acc : real) = iter (k - 1, acc + total (build 50))
             {}",
            p("rtos (iter (200, 0.0))")
        ),
        &format!("{:?}\n", 200.0f64 * (50.0 * 51.0 / 2.0 * 1.5)),
    );
}

#[test]
fn char_handling() {
    check(
        &format!(
            "fun upper c = if ord c >= 97 andalso ord c <= 122 then chr (ord c - 32) else c
             val s = \"hello\"
             fun go (i, acc) = if i = size s then acc
                               else go (i + 1, acc + ord (upper (strsub (s, i))))
             {}",
            p("itos (go (0, 0))")
        ),
        &format!("{}\n", "HELLO".bytes().map(|b| b as i64).sum::<i64>()),
    );
}

#[test]
fn dense_constant_dispatch_uses_switch() {
    // A dense constant-constructor match compiles to a jump table
    // (paper 5.2: "pattern matches are compiled into switch
    // statements") and still runs correctly under every variant.
    check(
        &format!(
            "datatype d = A | B | C | D | E
             fun code A = 10 | code B = 20 | code C = 30 | code D = 40 | code E = 50
             fun go (nil, acc) = acc | go (x :: r, acc) = go (r, acc + code x)
             {}",
            p("itos (go ([A, C, E, B, D, A], 0))")
        ),
        "160\n",
    );
    // Dense integer literals too.
    check(
        &format!(
            "fun f 0 = 5 | f 1 = 6 | f 2 = 7 | f 3 = 8 | f n = n
             {}",
            p("itos (f 0 * 1000 + f 2 * 100 + f 3 * 10 + f 9)")
        ),
        "5789\n",
    );
}

#[test]
fn argument_swap_cycles() {
    // Swapping arguments in a tail call creates a register-move cycle;
    // the parallel-move scratch register must not collide with the
    // callee-address save (regression for a codegen bug).
    check(
        &format!(
            "fun f (a, b, n) = if n = 0 then a * 10 + b else f (b, a, n - 1)
             {}",
            p("itos (f (1, 2, 5) * 100 + f (1, 2, 4))")
        ),
        "2112\n",
    );
    // Three-cycle rotation.
    check(
        &format!(
            "fun g (a, b, c, n) = if n = 0 then a * 100 + b * 10 + c else g (c, a, b, n - 1)
             {}",
            p("itos (g (1, 2, 3, 4))")
        ),
        "312\n",
    );
    // Float swap cycle (float parallel moves).
    check(
        &format!(
            "fun h (x : real, y : real, n) = if n = 0 then x - y else h (y, x, n - 1)
             {}",
            p("rtos (h (5.5, 2.5, 3))")
        ),
        "-3.0\n",
    );
}

#[test]
fn match_warnings_are_reported() {
    let c = compile(
        "datatype t = A | B | C
         fun f A = 1 | f B = 2
         val (x :: _) = [f A]",
        Variant::Ffb,
    )
    .unwrap();
    let w = &c.stats.warnings;
    assert!(
        w.iter().any(|m| m.contains("match nonexhaustive")),
        "missing match warning: {w:?}"
    );
    assert!(
        w.iter().any(|m| m.contains("binding nonexhaustive")),
        "missing binding warning: {w:?}"
    );
    // Complete programs warn about nothing.
    let clean = compile("fun f true = 1 | f false = 0 val x = f true", Variant::Ffb).unwrap();
    assert!(
        clean.stats.warnings.is_empty(),
        "{:?}",
        clean.stats.warnings
    );
}

#[test]
fn builtin_order_datatype() {
    check(
        &format!(
            "fun cmp (a : int, b) = if a < b then LESS else if a > b then GREATER else EQUAL
             fun code LESS = 1 | code EQUAL = 2 | code GREATER = 3
             {}",
            p("itos (code (cmp (1, 2)) * 100 + code (cmp (5, 5)) * 10 + code (cmp (9, 2)))")
        ),
        "123\n",
    );
}

#[test]
fn string_builders() {
    check(
        &format!(
            "fun join (nil, sep) = \"\"
               | join (s :: nil, sep) = s
               | join (s :: rest, sep) = s ^ sep ^ join (rest, sep)
             {}",
            p("join ([\"a\", \"bb\", \"ccc\"], \", \")")
        ),
        "a, bb, ccc\n",
    );
}

#[test]
fn polymorphic_functions_in_data_structures() {
    // Functions stored in records and lists keep their conventions via
    // coercion wrappers (paper 4.2's arrow coercions).
    check(
        &format!(
            "val fns = [(fn (x : real) => x + 1.0, 1), (fn x => x * 2.0, 2)]
             fun total nil = 0.0
               | total ((f, w) :: r) = f (real w) + total r
             {}",
            p("rtos (total fns)")
        ),
        "6.0\n",
    );
}

#[test]
fn mutual_recursion_across_floats() {
    check(
        &format!(
            "fun fa (x : real, n) = if n = 0 then x else fb (x * 2.0, n - 1)
             and fb (x, n) = if n = 0 then x else fa (x + 1.0, n - 1)
             {}",
            p("rtos (fa (1.0, 5))")
        ),
        &format!("{:?}\n", {
            // fa(1,5)->fb(2,4)->fa(3,3)->fb(6,2)->fa(7,1)->fb(14,0)=14
            14.0f64
        }),
    );
}

#[test]
fn curried_module_functions() {
    check(
        &format!(
            "structure C = struct fun scale (k : real) x = k * x end
             val double = C.scale 2.0
             fun map f nil = nil | map f (x :: r) = f x :: map f r
             fun suml nil = 0.0 | suml (x :: r) = x + suml r
             val xs = map double [1.0, 2.5]
             {}",
            p("rtos (suml xs)")
        ),
        "7.0\n",
    );
}

#[test]
fn deeply_nested_closures() {
    check(
        &format!(
            "fun outer a =
               let
                 fun mid b =
                   let
                     fun inner c = a + b + c
                   in inner end
               in mid end
             val f = outer 100
             val g = f 20
             {}",
            p("itos (g 3 + outer 1 2 3)")
        ),
        &format!("{}\n", 123 + 6),
    );
}

#[test]
fn large_tuples_spread_up_to_limit() {
    // Ten fields is the paper's spread threshold; eleven falls back to a
    // heap tuple. Both must run identically.
    check(
        &format!(
            "fun sum10 (a, b, c, d, e, f, g, h, i, j) =
               a + b + c + d + e + f + g + h + i + j
             fun sum11 (a, b, c, d, e, f, g, h, i, j, k) =
               a + b + c + d + e + f + g + h + i + j + k
             {}",
            p("itos (sum10 (1,2,3,4,5,6,7,8,9,10) + sum11 (1,2,3,4,5,6,7,8,9,10,11))")
        ),
        &format!("{}\n", 55 + 66),
    );
}

/// Elaboration scopes share bindings between an environment and its
/// copies; a binding made in an inner scope must still win inside it
/// and never leak out. Nested `let`, `fn`, `case`, `fun`-clause,
/// structure, datatype, exception and type bindings shadow a top-level
/// name (`x`, the constructor `A`, the type `t`) and a built-in one
/// (`ord`); the printout after each shows the outer binding intact.
/// (The subset has no `open`; a structure declared in a `let` is the
/// nearest form.)
#[test]
fn nested_scopes_shadow_without_leaking() {
    let src = r#"
val x = 1
fun show tag v = (print tag; print "="; print (itos v); print " ")
val _ = show "ord" (let fun ord c = 100 in ord #"A" end)
val _ = show "ord" (ord #"A")
val _ = show "let" (let val x = 10 in let val x = x + 1 in x end + x end)
val _ = show "x" x
val _ = show "fn" ((fn x => x * 2) 7 + x)
val _ = show "case" (case (5, 6) of (x, y) => x + y)
fun f 0 = x | f x = x + 100
val _ = show "fun" (f 0 + f 3)
fun g x = let val x = x * 3 in x end + x
val _ = show "g" (g 2)
val _ = show "fx" (let fun x y = y + 1 in x 5 end)
val _ = show "str" (let structure S = struct val x = 40 fun ord c = 2 end in S.x + S.ord #"z" + x end)
datatype t = A | B
val _ = show "dt" (let datatype u = A of int in case A 5 of A n => n end)
val _ = show "con" (case A of A => 1 | B => 2)
val _ = show "ty" (let type t = int val y : t = 3 in y end)
val _ = show "ty" (case (B : t) of A => 1 | B => 2)
val _ = show "exn" (let exception E of int in (raise E 9) handle E n => n end)
val _ = show "x" x
val _ = show "ord" (ord #"B")
"#;
    check(
        src,
        "ord=100 ord=65 let=21 x=1 fn=15 case=11 fun=104 g=8 fx=6 str=43 dt=5 con=1 \
         ty=3 ty=2 exn=9 x=1 ord=66 ",
    );
}
