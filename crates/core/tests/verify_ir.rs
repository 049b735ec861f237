//! Mutation tests for the typed-IR verification pipeline.
//!
//! The catalog in `sml_testkit::mutate` holds 30+ deterministic IR
//! corruptions across all four verified forms (LEXP, CPS, closed CPS,
//! bytecode). Each test below drives real fixture programs through the
//! actual compiler stages, applies every mutation to the stage's
//! output, and asserts the stage's verifier rejects the mutant — and
//! reports the expected rule tag when the mutation pins one down.
//! This is the evidence that the verifiers detect the corruption at
//! the phase that introduced it, not three phases later as a VM trap.

use sml_cps::{
    close, convert, optimize, verify_closed_program, verify_cps, ClosedProgram, CpsProgram,
    OptConfig,
};
use sml_lambda::{translate, Translation};
use sml_testkit::mutate::{bytecode_mutations, closed_mutations, cps_mutations, lexp_mutations};
use sml_vm::{codegen, verify_bytecode, MachineProgram};
use smlc::{SessionBuilder, Variant, VerifyIr};

/// Fixture programs, chosen so every IR construct the mutations target
/// appears in at least one: polymorphic wraps, multi-way datatype
/// dispatch, exceptions, records, floats, refs, and recursion.
const FIXTURES: &[&str] = &[
    // Polymorphism across int/real/string: wraps and unwraps.
    "fun id x = x
     fun pair x y = (x, y)
     val p = pair (id 1) (id 2.5)
     val q = pair (id \"s\") (#1 p)
     val _ = print (itos (#2 q))",
    // Multi-constructor datatype: SwitchInt dispatch plus recursion.
    "datatype d = A | B | C | D | E of int
     fun v A = 1 | v B = 2 | v C = 3 | v D = 4 | v (E n) = n
     fun sum [] = 0 | sum (x :: r) = v x + sum r
     val _ = print (itos (sum [A, B, C, D, E 9]))",
    // Exceptions: raise and handle, plus float arithmetic.
    "exception Neg of int
     fun f x = if x < 0 then raise Neg x else x * 2
     fun g y = (f y) handle Neg n => ~n
     val r = g ~3 + g 5
     val s = 1.5 + 2.25
     val _ = print (itos r)",
    // Refs, strings, and a loop.
    "val cell = ref 0
     fun loop 0 = !cell | loop n = (cell := !cell + n; loop (n - 1))
     val _ = print (itos (loop 10) ^ \"!\")",
    // Dense all-constant match: compiles to a SwitchInt dispatch.
    "fun w 1 = 10 | w 2 = 20 | w 3 = 30 | w 4 = 40 | w _ = 0
     val _ = print (itos (w 3 + w 9))",
];

/// Variants whose translations differ most: the boxed baseline, the
/// flat-float extreme, and the minimum-typing middle.
const VARIANTS: &[Variant] = &[Variant::Nrp, Variant::Mtd, Variant::Fp3];

/// Runs the real front end (parse, elaborate, optional minimum typing,
/// translate) on a fixture.
fn front_end(src: &str, v: Variant) -> Translation {
    let prog = sml_ast::parse(src).expect("fixture parses");
    let mut elab = sml_elab::elaborate(&prog).expect("fixture elaborates");
    if v.uses_mtd() {
        sml_elab::minimum_typing(&mut elab);
    }
    translate(&elab, &v.lambda_config())
}

/// Front end plus CPS conversion.
fn to_cps(src: &str, v: Variant) -> CpsProgram {
    let mut tr = front_end(src, v);
    convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps_config())
}

/// Full middle end: conversion, optimization, closure conversion.
fn to_closed(src: &str, v: Variant) -> ClosedProgram {
    let mut cps = to_cps(src, v);
    optimize(&mut cps, &OptConfig::default());
    close(cps)
}

/// The whole compiler: closed program through code generation.
fn to_machine(src: &str, v: Variant) -> MachineProgram {
    codegen(&to_closed(src, v))
}

/// The catalog satisfies the PR's floor of 25 seeded corruptions.
#[test]
fn catalog_has_at_least_25_mutations() {
    let n = lexp_mutations().len()
        + cps_mutations().len()
        + closed_mutations().len()
        + bytecode_mutations().len();
    assert!(n >= 25, "only {n} mutations in the catalog");
}

/// Every LEXP mutation applies to some fixture and is rejected by
/// `verify_lexp` — with the pinned rule tag where one is expected.
#[test]
fn lexp_mutants_rejected() {
    for m in lexp_mutations() {
        let mut applied = false;
        'search: for &v in VARIANTS {
            for src in FIXTURES {
                let mut tr = front_end(src, v);
                sml_lambda::verify_translation(&mut tr)
                    .unwrap_or_else(|e| panic!("clean fixture rejected: {} {e:?}", v.name()));
                if !(m.apply)(&mut tr.lexp, &mut tr.interner) {
                    continue;
                }
                applied = true;
                let err = sml_lambda::verify_translation(&mut tr).expect_err(&format!(
                    "mutant {} accepted under {} on fixture:\n{src}",
                    m.name,
                    v.name()
                ));
                if let Some(rule) = m.expect_rule {
                    assert_eq!(
                        err.rule, rule,
                        "mutant {} tripped `{}`, expected `{rule}`: {}",
                        m.name, err.rule, err.detail
                    );
                }
                break 'search;
            }
        }
        assert!(applied, "mutation {} never applied to any fixture", m.name);
    }
}

/// Every CPS mutation applies to some fixture and is rejected by
/// `verify_cps`.
#[test]
fn cps_mutants_rejected() {
    for m in cps_mutations() {
        let mut applied = false;
        'search: for &v in VARIANTS {
            for src in FIXTURES {
                let mut cps = to_cps(src, v);
                verify_cps(&cps)
                    .unwrap_or_else(|e| panic!("clean fixture rejected: {} {e:?}", v.name()));
                if !(m.apply)(&mut cps) {
                    continue;
                }
                applied = true;
                let err = verify_cps(&cps).expect_err(&format!(
                    "mutant {} accepted under {} on fixture:\n{src}",
                    m.name,
                    v.name()
                ));
                if let Some(rule) = m.expect_rule {
                    assert_eq!(
                        err.rule, rule,
                        "mutant {} tripped `{}`, expected `{rule}`: {}",
                        m.name, err.rule, err.detail
                    );
                }
                break 'search;
            }
        }
        assert!(applied, "mutation {} never applied to any fixture", m.name);
    }
}

/// Every closed-program mutation applies to some fixture and is
/// rejected by `verify_closed_program`.
#[test]
fn closed_mutants_rejected() {
    for m in closed_mutations() {
        let mut applied = false;
        'search: for &v in VARIANTS {
            for src in FIXTURES {
                let mut closed = to_closed(src, v);
                verify_closed_program(&closed)
                    .unwrap_or_else(|e| panic!("clean fixture rejected: {} {e:?}", v.name()));
                if !(m.apply)(&mut closed) {
                    continue;
                }
                applied = true;
                let err = verify_closed_program(&closed).expect_err(&format!(
                    "mutant {} accepted under {} on fixture:\n{src}",
                    m.name,
                    v.name()
                ));
                if let Some(rule) = m.expect_rule {
                    assert_eq!(
                        err.rule, rule,
                        "mutant {} tripped `{}`, expected `{rule}`: {}",
                        m.name, err.rule, err.detail
                    );
                }
                break 'search;
            }
        }
        assert!(applied, "mutation {} never applied to any fixture", m.name);
    }
}

/// Every bytecode mutation applies to some fixture and is rejected by
/// `verify_bytecode`.
#[test]
fn bytecode_mutants_rejected() {
    for m in bytecode_mutations() {
        let mut applied = false;
        'search: for &v in VARIANTS {
            for src in FIXTURES {
                let mut machine = to_machine(src, v);
                verify_bytecode(&machine)
                    .unwrap_or_else(|e| panic!("clean fixture rejected: {} {e:?}", v.name()));
                if !(m.apply)(&mut machine) {
                    continue;
                }
                applied = true;
                let err = verify_bytecode(&machine).expect_err(&format!(
                    "mutant {} accepted under {} on fixture:\n{src}",
                    m.name,
                    v.name()
                ));
                if let Some(rule) = m.expect_rule {
                    assert_eq!(
                        err.rule, rule,
                        "mutant {} tripped `{}`, expected `{rule}`: {}",
                        m.name, err.rule, err.detail
                    );
                }
                break 'search;
            }
        }
        assert!(applied, "mutation {} never applied to any fixture", m.name);
    }
}

/// Under `VerifyIr::Always` every fixture compiles cleanly on every
/// variant, runs all three verifier families, and produces the same
/// machine code as `VerifyIr::Off`.
#[test]
fn fixtures_verify_clean_end_to_end() {
    for &v in Variant::ALL.iter() {
        let always = SessionBuilder::default()
            .variant(v)
            .verify_ir(VerifyIr::Always)
            .build()
            .unwrap();
        let off = SessionBuilder::default()
            .variant(v)
            .verify_ir(VerifyIr::Off)
            .build()
            .unwrap();
        for src in FIXTURES {
            let ca = always.compile(src).expect("clean program verified");
            let co = off.compile(src).expect("clean program compiled");
            assert!(ca.stats.verify.lexp_checks >= 1);
            assert!(ca.stats.verify.cps_checks >= 2);
            assert!(ca.stats.verify.bytecode_checks >= 1);
            assert_eq!(co.stats.verify.total_checks(), 0);
            assert_eq!(
                format!("{}", ca.machine),
                format!("{}", co.machine),
                "verification changed emitted code under {}",
                v.name()
            );
        }
    }
}

/// Every violation a mutant produces carries a non-empty rule tag and
/// detail string — the payload the pipeline forwards into
/// `CompileError::Internal { violation }` and `--stats=json`.
#[test]
fn violation_payload_is_structured() {
    let mut tr = front_end(FIXTURES[0], Variant::Nrp);
    let m = &lexp_mutations()[0];
    assert!((m.apply)(&mut tr.lexp, &mut tr.interner));
    let v = sml_lambda::verify_translation(&mut tr).unwrap_err();
    assert_eq!(v.rule, "unbound-var");
    assert!(!v.detail.is_empty());
}
