//! Differential fuzzing: `sml-testkit` generates random expression trees,
//! a tiny reference interpreter evaluates them in Rust, and every
//! compiler variant must produce the same answer through the full
//! pipeline (parse → elaborate → translate → CPS → closure → codegen →
//! VM). Any divergence pinpoints a representation or convention bug.
//!
//! `div`/`mod` divisors are arbitrary subexpressions — negative,
//! variable, and occasionally zero — so the floor-division semantics
//! (DESIGN.md §8) and the `Div` exception path are both under
//! differential test, before and after constant folding. Every case
//! additionally runs under the pre-decoded threaded dispatch engine and
//! must match the decode loop counter-for-counter.

use sml_testkit::{run_cases, Rng};
use smlc::{CompileError, Compiled, Dispatch, Session, Variant, VmConfig, VmResult};

/// Compiles through a fresh single-variant session.
fn compile(src: &str, v: Variant) -> Result<Compiled, CompileError> {
    Session::with_variant(v).compile(src)
}

/// A generated integer expression. Division and mod take arbitrary
/// subexpressions on both sides: divisors may be negative, variable,
/// or zero (in which case the program must raise `Div`).
#[derive(Clone, Debug)]
enum E {
    Lit(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Mod(Box<E>, Box<E>),
    If(Box<B>, Box<E>, Box<E>),
    Let(Box<E>, Box<E>),
    /// Apply `fn x => x + k` — exercises closures and calls.
    App(i32, Box<E>),
    /// Build a pair and select one side — exercises records.
    Pair(Box<E>, Box<E>, bool),
}

/// A generated boolean expression.
#[derive(Clone, Debug)]
enum B {
    Lt(E, E),
    Eq(E, E),
    Not(Box<B>),
    And(Box<B>, Box<B>),
}

/// Why reference evaluation stopped early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stop {
    /// Division or mod by zero: the program raises the `Div` exception.
    Div,
}

/// SML floor division, written independently of the compiler's
/// `sml_cps::floor_div` so the fuzzer is a genuine cross-check: start
/// from Rust's truncating quotient and step down when the signs differ
/// and the division is inexact.
fn ref_floor_div(a: i64, b: i64) -> i64 {
    let q = a / b;
    if a % b != 0 && (a < 0) != (b < 0) {
        q - 1
    } else {
        q
    }
}

/// Floor mod via the quotient-remainder law `a = b*q + r`.
fn ref_floor_mod(a: i64, b: i64) -> i64 {
    a - b.wrapping_mul(ref_floor_div(a, b))
}

/// Reference evaluation. `env` is the stack of `Let`-bound values; the
/// innermost binding is `last()`. `Err(Stop::Div)` means the program
/// raises `Div` at this point — matching the compiler's `CheckedDiv`
/// lowering, which binds and tests the **divisor first**, so a zero
/// divisor raises before the dividend is ever evaluated.
fn eval(e: &E, env: &mut Vec<i64>) -> Result<i64, Stop> {
    match e {
        E::Lit(n) => Ok(*n as i64),
        E::Add(a, b) => Ok(eval(a, env)?.wrapping_add(eval(b, env)?)),
        E::Sub(a, b) => Ok(eval(a, env)?.wrapping_sub(eval(b, env)?)),
        E::Mul(a, b) => Ok(eval(a, env)?.wrapping_mul(eval(b, env)?)),
        E::Div(a, d) | E::Mod(a, d) => {
            let dv = eval(d, env)?;
            if dv == 0 {
                return Err(Stop::Div);
            }
            let av = eval(a, env)?;
            Ok(match e {
                E::Div(..) => ref_floor_div(av, dv),
                _ => ref_floor_mod(av, dv),
            })
        }
        E::If(c, t, f) => {
            if beval(c, env)? {
                eval(t, env)
            } else {
                eval(f, env)
            }
        }
        E::Let(bind, body) => {
            let v = eval(bind, env)?;
            env.push(v);
            let r = eval(body, env);
            env.pop();
            r
        }
        E::App(k, a) => Ok(eval(a, env)?.wrapping_add(*k as i64)),
        E::Pair(a, b, first) => {
            let (va, vb) = (eval(a, env)?, eval(b, env)?);
            Ok(if *first { va } else { vb })
        }
    }
}

fn beval(b: &B, env: &mut Vec<i64>) -> Result<bool, Stop> {
    match b {
        B::Lt(a, c) => Ok(eval(a, env)? < eval(c, env)?),
        B::Eq(a, c) => Ok(eval(a, env)? == eval(c, env)?),
        B::Not(x) => Ok(!beval(x, env)?),
        // `andalso` short-circuits: a raising right-hand side is never
        // reached when the left is false.
        B::And(x, y) => Ok(beval(x, env)? && beval(y, env)?),
    }
}

/// Pretty-print as SML source. Negative literals use `~`.
fn sml(e: &E, depth: usize, out: &mut String) {
    match e {
        E::Lit(n) => {
            if *n < 0 {
                out.push_str(&format!("~{}", (*n as i64).unsigned_abs()));
            } else {
                out.push_str(&n.to_string());
            }
        }
        E::Add(a, b) => bin(a, "+", b, depth, out),
        E::Sub(a, b) => bin(a, "-", b, depth, out),
        E::Mul(a, b) => bin(a, "*", b, depth, out),
        E::Div(a, d) => bin(a, "div", d, depth, out),
        E::Mod(a, d) => bin(a, "mod", d, depth, out),
        E::If(c, t, f) => {
            out.push_str("(if ");
            bsml(c, depth, out);
            out.push_str(" then ");
            sml(t, depth, out);
            out.push_str(" else ");
            sml(f, depth, out);
            out.push(')');
        }
        E::Let(bind, body) => {
            out.push_str(&format!("(let val x{depth} = "));
            sml(bind, depth, out);
            out.push_str(" in ");
            sml(body, depth + 1, out);
            out.push_str(" end)");
        }
        E::App(k, a) => {
            if *k < 0 {
                out.push_str(&format!("((fn z => z + ~{}) ", (*k as i64).unsigned_abs()));
            } else {
                out.push_str(&format!("((fn z => z + {k}) "));
            }
            sml(a, depth, out);
            out.push(')');
        }
        E::Pair(a, b, first) => {
            out.push_str(&format!("(#{} (", if *first { 1 } else { 2 }));
            sml(a, depth, out);
            out.push_str(", ");
            sml(b, depth, out);
            out.push_str("))");
        }
    }
}

fn bin(a: &E, op: &str, b: &E, depth: usize, out: &mut String) {
    out.push('(');
    sml(a, depth, out);
    out.push_str(&format!(" {op} "));
    sml(b, depth, out);
    out.push(')');
}

fn bsml(b: &B, depth: usize, out: &mut String) {
    match b {
        B::Lt(a, c) => {
            out.push('(');
            sml(a, depth, out);
            out.push_str(" < ");
            sml(c, depth, out);
            out.push(')');
        }
        B::Eq(a, c) => {
            out.push('(');
            sml(a, depth, out);
            out.push_str(" = ");
            sml(c, depth, out);
            out.push(')');
        }
        // `not` is not in this compiler's initial basis; compare with
        // `false` instead (same CPS branch shape).
        B::Not(x) => {
            out.push('(');
            bsml(x, depth, out);
            out.push_str(" = false)");
        }
        B::And(x, y) => {
            out.push('(');
            bsml(x, depth, out);
            out.push_str(" andalso ");
            bsml(y, depth, out);
            out.push(')');
        }
    }
}

/// `Let` bodies never reference their binder here (the reference
/// interpreter would need de Bruijn plumbing); the binding expression is
/// still evaluated, so effects on code shape remain.
fn gen_expr(rng: &mut Rng, depth: usize) -> E {
    if depth == 0 || rng.range_usize(0, 10) < 3 {
        return E::Lit(rng.range_i32(-100, 100));
    }
    let d = depth - 1;
    match rng.range_usize(0, 9) {
        0 => E::Add(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        1 => E::Sub(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        2 => E::Mul(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        3 => E::Div(Box::new(gen_expr(rng, d)), Box::new(gen_divisor(rng, d))),
        4 => E::Mod(Box::new(gen_expr(rng, d)), Box::new(gen_divisor(rng, d))),
        5 => E::If(
            Box::new(gen_bool(rng, d.min(2), d)),
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
        ),
        6 => E::Let(Box::new(gen_expr(rng, d)), Box::new(gen_expr(rng, d))),
        7 => E::App(rng.range_i32(-20, 20), Box::new(gen_expr(rng, d))),
        _ => E::Pair(
            Box::new(gen_expr(rng, d)),
            Box::new(gen_expr(rng, d)),
            rng.flip(),
        ),
    }
}

/// Divisors skew toward nonzero literals of both signs (so folding can
/// fire and floor semantics get dense coverage) but are sometimes a
/// full subexpression — including, occasionally, a literal zero, which
/// must raise `Div` through every variant and both dispatch engines.
fn gen_divisor(rng: &mut Rng, depth: usize) -> E {
    match rng.range_usize(0, 8) {
        0 => E::Lit(0),
        1 | 2 => gen_expr(rng, depth),
        3..=5 => E::Lit(rng.range_i32(1, 50)),
        _ => E::Lit(rng.range_i32(-50, -1)),
    }
}

fn gen_bool(rng: &mut Rng, depth: usize, edepth: usize) -> B {
    if depth == 0 || rng.flip() {
        let a = gen_expr(rng, edepth.min(2));
        let b = gen_expr(rng, edepth.min(2));
        return if rng.flip() { B::Lt(a, b) } else { B::Eq(a, b) };
    }
    if rng.flip() {
        B::Not(Box::new(gen_bool(rng, depth - 1, edepth)))
    } else {
        B::And(
            Box::new(gen_bool(rng, depth - 1, edepth)),
            Box::new(gen_bool(rng, depth - 1, edepth)),
        )
    }
}

/// The VM's tagged integers are 31-bit; the reference interpreter uses
/// i64. Skip cases whose value (or any intermediate the VM would also
/// compute) overflows — conservatively, skip when the final value does.
fn fits(v: i64) -> bool {
    (-(1 << 30)..(1 << 30)).contains(&v)
}

/// Check for overflow at every node, not just the root, since the VM
/// wraps at 31 bits where i64 would not. A node that raises `Div` has
/// no value to range-check (and in the raising case some conservatively
/// checked subtrees never even evaluate — skipping extra cases is
/// harmless).
fn all_fits(e: &E, env: &mut Vec<i64>) -> bool {
    let node_ok = |v: Result<i64, Stop>| match v {
        Ok(v) => fits(v),
        Err(_) => true,
    };
    match e {
        E::Lit(_) => true,
        E::Add(a, b) | E::Sub(a, b) | E::Mul(a, b) | E::Div(a, b) | E::Mod(a, b) => {
            all_fits(a, env) && all_fits(b, env) && node_ok(eval(e, env))
        }
        E::If(c, t, f) => {
            bool_fits(c, env) && all_fits(t, env) && all_fits(f, env) && node_ok(eval(e, env))
        }
        E::Let(a, b) => {
            if !all_fits(a, env) {
                return false;
            }
            let Ok(v) = eval(a, env) else { return true };
            env.push(v);
            let ok = all_fits(b, env);
            env.pop();
            ok && node_ok(eval(e, env))
        }
        E::App(_, a) => all_fits(a, env) && node_ok(eval(e, env)),
        E::Pair(a, b, _) => all_fits(a, env) && all_fits(b, env),
    }
}

fn bool_fits(b: &B, env: &mut Vec<i64>) -> bool {
    match b {
        B::Lt(a, c) | B::Eq(a, c) => all_fits(a, env) && all_fits(c, env),
        B::Not(x) => bool_fits(x, env),
        B::And(x, y) => bool_fits(x, env) && bool_fits(y, env),
    }
}

#[test]
fn variants_agree_with_reference() {
    run_cases("variants_agree_with_reference", 48, |rng| {
        // Regenerate until the expression stays inside the tagged 31-bit
        // range everywhere (the analogue of proptest's `prop_assume!`).
        let mut env = Vec::new();
        let e = loop {
            let e = gen_expr(rng, 4);
            if all_fits(&e, &mut env) {
                break e;
            }
        };
        let expected = eval(&e, &mut env);

        let mut src = String::from("val _ = print (itos ");
        sml(&e, 0, &mut src);
        src.push(')');

        for v in Variant::ALL {
            let compiled = compile(&src, v)
                .unwrap_or_else(|err| panic!("[{}] compile failed: {err}\n{src}", v.name()));
            // The decode oracle is checked against the evaluator; the
            // threaded engine is then checked against the oracle.
            let out = compiled.run_with(&VmConfig {
                dispatch: Dispatch::Decode,
                ..v.vm_config()
            });
            assert_eq!(out.dispatch.engine, Dispatch::Decode);
            match &expected {
                Ok(value) => {
                    assert!(
                        matches!(out.result, VmResult::Value(_)),
                        "[{}] abnormal result {:?} for\n{src}",
                        v.name(),
                        out.result
                    );
                    assert_eq!(
                        out.output,
                        value.to_string(),
                        "[{}] wrong value for\n{}",
                        v.name(),
                        src
                    );
                }
                Err(Stop::Div) => {
                    assert_eq!(
                        out.result,
                        VmResult::Uncaught("Div".to_owned()),
                        "[{}] division by zero must raise Div for\n{src}",
                        v.name()
                    );
                    assert_eq!(out.output, "", "[{}] raised before printing", v.name());
                }
            }
            // The threaded engine must be observationally identical —
            // result, output, and every counter — on the same program.
            let thr = compiled.run_with(&VmConfig {
                dispatch: Dispatch::Threaded,
                ..v.vm_config()
            });
            assert_eq!(thr.dispatch.engine, Dispatch::Threaded);
            assert_eq!(
                out.result,
                thr.result,
                "[{}] engines diverge\n{src}",
                v.name()
            );
            assert_eq!(
                out.output,
                thr.output,
                "[{}] output diverges\n{src}",
                v.name()
            );
            assert_eq!(
                out.stats,
                thr.stats,
                "[{}] RunStats diverge\n{src}",
                v.name()
            );
        }
    });
}

/// A generated float expression. No reference interpreter is needed:
/// the property is that all six variants — whose float representations
/// differ radically (boxed vs. unboxed, FP-register args vs. memory) —
/// print byte-identical output.
#[derive(Clone, Debug)]
enum FE {
    Lit(f64),
    Add(Box<FE>, Box<FE>),
    Sub(Box<FE>, Box<FE>),
    Mul(Box<FE>, Box<FE>),
    If(Box<FE>, Box<FE>, Box<FE>, Box<FE>), // if a < b then t else f
    Let(Box<FE>, Box<FE>),
    /// Apply `fn x => x * k` — a float closure call.
    App(f64, Box<FE>),
    /// `#i (a, b)` — a flat float record under ffb, boxed under nrp/rep.
    Pair(Box<FE>, Box<FE>, bool),
}

fn fsml(e: &FE, depth: usize, out: &mut String) {
    let lit = |v: f64, out: &mut String| {
        if v < 0.0 {
            out.push_str(&format!("~{:?}", -v));
        } else {
            out.push_str(&format!("{v:?}"));
        }
    };
    match e {
        FE::Lit(v) => lit(*v, out),
        FE::Add(a, b) => fbin(a, "+", b, depth, out),
        FE::Sub(a, b) => fbin(a, "-", b, depth, out),
        FE::Mul(a, b) => fbin(a, "*", b, depth, out),
        FE::If(a, b, t, f) => {
            out.push_str("(if ");
            fbin(a, "<", b, depth, out);
            out.push_str(" then ");
            fsml(t, depth, out);
            out.push_str(" else ");
            fsml(f, depth, out);
            out.push(')');
        }
        FE::Let(bind, body) => {
            out.push_str(&format!("(let val y{depth} : real = "));
            fsml(bind, depth, out);
            out.push_str(" in ");
            fsml(body, depth + 1, out);
            out.push_str(" end)");
        }
        FE::App(k, a) => {
            out.push_str("((fn (x : real) => x * ");
            lit(*k, out);
            out.push_str(") ");
            fsml(a, depth, out);
            out.push(')');
        }
        FE::Pair(a, b, first) => {
            out.push_str(&format!("(#{} (", if *first { 1 } else { 2 }));
            fsml(a, depth, out);
            out.push_str(", ");
            fsml(b, depth, out);
            out.push_str("))");
        }
    }
}

fn fbin(a: &FE, op: &str, b: &FE, depth: usize, out: &mut String) {
    out.push('(');
    fsml(a, depth, out);
    out.push_str(&format!(" {op} "));
    fsml(b, depth, out);
    out.push(')');
}

fn gen_fexpr(rng: &mut Rng, depth: usize) -> FE {
    // Small half-integral literals keep every intermediate exact in f64,
    // so there is no rounding for a formatting difference to hide in.
    if depth == 0 || rng.range_usize(0, 10) < 3 {
        return FE::Lit(rng.range_i32(-32, 32) as f64 / 2.0);
    }
    let d = depth - 1;
    match rng.range_usize(0, 7) {
        0 => FE::Add(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        1 => FE::Sub(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        2 => FE::Mul(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        3 => FE::If(
            Box::new(gen_fexpr(rng, d)),
            Box::new(gen_fexpr(rng, d)),
            Box::new(gen_fexpr(rng, d)),
            Box::new(gen_fexpr(rng, d)),
        ),
        4 => FE::Let(Box::new(gen_fexpr(rng, d)), Box::new(gen_fexpr(rng, d))),
        5 => FE::App(
            rng.range_i32(-8, 8) as f64 / 2.0,
            Box::new(gen_fexpr(rng, d)),
        ),
        _ => FE::Pair(
            Box::new(gen_fexpr(rng, d)),
            Box::new(gen_fexpr(rng, d)),
            rng.flip(),
        ),
    }
}

#[test]
fn float_variants_agree() {
    run_cases("float_variants_agree", 32, |rng| {
        let e = gen_fexpr(rng, 4);
        let mut src = String::from("val _ = print (rtos ");
        fsml(&e, 0, &mut src);
        src.push(')');

        let mut reference: Option<String> = None;
        for v in Variant::ALL {
            let compiled = compile(&src, v)
                .unwrap_or_else(|err| panic!("[{}] compile failed: {err}\n{src}", v.name()));
            let out = compiled.run();
            assert!(
                matches!(out.result, VmResult::Value(_)),
                "[{}] abnormal result {:?} for\n{src}",
                v.name(),
                out.result
            );
            match &reference {
                None => reference = Some(out.output),
                Some(r) => assert_eq!(
                    &out.output,
                    r,
                    "[{}] diverges from sml.nrp for\n{}",
                    v.name(),
                    src
                ),
            }
        }
    });
}

/// Random integer `case` dispatch: arms over literals drawn from a
/// small range (dense enough to trigger the jump-table path, sparse
/// enough to sometimes stay a branch chain) plus a wildcard. Every
/// variant must pick the same arm as direct lookup.
#[test]
fn switch_dispatch_matches_reference() {
    run_cases("switch_dispatch_matches_reference", 32, |rng| {
        let mut arms = std::collections::BTreeMap::new();
        for _ in 0..rng.range_usize(1, 12) {
            arms.insert(rng.range_i64(0, 24), rng.range_i64(-1000, 1000));
        }
        let scrutinee = rng.range_i64(0, 24);
        let default = rng.range_i64(-1000, 1000);

        // Arm order in source follows BTreeMap order; duplicates are
        // impossible by construction.
        let mut src = String::from("fun f n = case n of ");
        for (i, (k, v)) in arms.iter().enumerate() {
            if i > 0 {
                src.push_str(" | ");
            }
            let v = if *v < 0 {
                format!("~{}", -v)
            } else {
                v.to_string()
            };
            src.push_str(&format!("{k} => {v}"));
        }
        let d = if default < 0 {
            format!("~{}", -default)
        } else {
            default.to_string()
        };
        src.push_str(&format!(
            " | _ => {d}\nval _ = print (itos (f {scrutinee}))"
        ));

        let expected = arms.remove(&scrutinee).unwrap_or(default);
        for v in Variant::ALL {
            let compiled = compile(&src, v)
                .unwrap_or_else(|err| panic!("[{}] compile failed: {err}\n{src}", v.name()));
            let out = compiled.run();
            assert_eq!(
                out.output,
                expected.to_string(),
                "[{}] wrong arm for\n{}",
                v.name(),
                src
            );
        }
    });
}
