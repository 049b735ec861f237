//! The two execution engines are observationally identical: same
//! results, same output, same `RunStats` counters, same slice
//! boundaries — under normal completion, every trap path, and
//! scheduler preemption (mid-superinstruction included). Plus the
//! floor div/mod semantics both engines now share, and the threaded
//! stream verifier.

use sml_vm::isa::{AOp, BrOp};
use sml_vm::{
    run, verify_threaded, CodeBlock, Dispatch, Instr, MachineProgram, Outcome, SchedulerBuilder,
    TenantSpec, VmConfig, VmInstance, VmResult,
};
use std::sync::Arc;

fn prog(instrs: Vec<Instr>) -> MachineProgram {
    MachineProgram {
        blocks: vec![CodeBlock {
            name: "entry".into(),
            instrs,
        }],
        entry: 0,
        pool: Vec::new(),
    }
}

fn cfg(dispatch: Dispatch) -> VmConfig {
    VmConfig {
        dispatch,
        ..VmConfig::default()
    }
}

/// Runs under both engines and asserts everything observable matches
/// (results, output, all counters); returns the decode outcome.
fn both(p: &MachineProgram, base: &VmConfig) -> Outcome {
    let dec = run(
        p,
        &VmConfig {
            dispatch: Dispatch::Decode,
            ..*base
        },
    );
    let thr = run(
        p,
        &VmConfig {
            dispatch: Dispatch::Threaded,
            ..*base
        },
    );
    assert_eq!(dec.result, thr.result, "results diverge between engines");
    assert_eq!(dec.output, thr.output, "output diverges between engines");
    assert_eq!(dec.stats, thr.stats, "RunStats diverge between engines");
    assert_eq!(thr.dispatch.engine, Dispatch::Threaded);
    assert_eq!(dec.dispatch.engine, Dispatch::Decode);
    dec
}

/// A tight counted loop with a fused compare-and-branch and a fused
/// `LoadI`+`Arith`, summing 0..n.
fn sum_loop(n: i64) -> MachineProgram {
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 1, imm: 0 }, // acc
                    Instr::LoadI { d: 2, imm: 0 }, // i
                    Instr::LoadI { d: 3, imm: n }, // limit
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "loop".into(),
                instrs: vec![
                    // Branch (i < limit) else exit — fusable with nothing
                    // here since it heads the block.
                    Instr::Branch {
                        op: BrOp::Lt,
                        a: 2,
                        b: 3,
                        target: 7,
                    },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 1,
                        a: 1,
                        b: 2,
                    }, // acc += i   (Arith+Branch fusion candidate below)
                    Instr::LoadI { d: 4, imm: 1 },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 2,
                        a: 2,
                        b: 4,
                    }, // i += 1  (LoadI+Arith fuses)
                    Instr::Move { d: 5, s: 1 },
                    Instr::Jump { label: 1 }, // Move+Jump fuses
                    Instr::Halt { s: 0 },     // unreachable
                    Instr::Halt { s: 1 },
                ],
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

#[test]
fn dispatch_parses_and_prints_stable_names() {
    assert_eq!("decode".parse::<Dispatch>().unwrap(), Dispatch::Decode);
    assert_eq!("threaded".parse::<Dispatch>().unwrap(), Dispatch::Threaded);
    assert_eq!(Dispatch::Threaded.name(), "threaded");
    let err = "jit".parse::<Dispatch>().unwrap_err();
    assert!(err.contains("decode|threaded"), "{err}");
}

#[test]
fn engines_agree_on_loop_with_superinstructions() {
    let p = sum_loop(1000);
    let o = both(&p, &VmConfig::default());
    assert_eq!(o.result, VmResult::Value(1000 * 999 / 2));
    let mut vm = VmInstance::new(&p, &cfg(Dispatch::Threaded));
    while !vm.run_slice(u64::MAX) {}
    let ds = vm.dispatch_stats();
    assert!(
        ds.superinstructions >= 2,
        "the loop body should fuse LoadI+Arith and Move+Jump: {ds:?}"
    );
    assert!(ds.stream_len > 0 && ds.stream_len < p.code_size() as u64);
}

#[test]
fn floor_div_mod_law_holds_in_both_engines() {
    // All sign combinations, including exact division and i64-boundary
    // magnitudes that still fit the tagged-int width after untagging.
    let cases: [(i64, i64); 10] = [
        (7, 2),
        (-7, 2),
        (7, -2),
        (-7, -2),
        (6, 3),
        (-6, 3),
        (6, -3),
        (-6, -3),
        (0, 5),
        (0, -5),
    ];
    for (a, b) in cases {
        for op in [AOp::Div, AOp::Mod] {
            let p = prog(vec![
                Instr::LoadI { d: 1, imm: a },
                Instr::LoadI { d: 2, imm: b },
                Instr::Arith {
                    op,
                    d: 3,
                    a: 1,
                    b: 2,
                },
                Instr::Halt { s: 3 },
            ]);
            let o = both(&p, &VmConfig::default());
            let q = sml_cps::floor_div(a, b);
            let r = sml_cps::floor_mod(a, b);
            assert_eq!(a, b * q + r, "quotient-remainder law for {a} and {b}");
            assert!(r == 0 || (r < 0) == (b < 0), "mod takes the divisor sign");
            let want = if op == AOp::Div { q } else { r };
            assert_eq!(o.result, VmResult::Value(want), "{a} {op:?} {b}");
        }
    }
}

#[test]
fn division_by_zero_faults_identically_in_both_engines() {
    for op in [AOp::Div, AOp::Mod] {
        let p = prog(vec![
            Instr::LoadI { d: 1, imm: -9 },
            Instr::LoadI { d: 2, imm: 0 },
            Instr::Arith {
                op,
                d: 3,
                a: 1,
                b: 2,
            },
            Instr::Halt { s: 3 },
        ]);
        let o = both(&p, &VmConfig::default());
        assert_eq!(o.result, VmResult::Fault("integer division by zero".into()));
    }
}

#[test]
fn fetch_faults_carry_identical_messages() {
    // Fall off the end of a block (branch to one-past-the-end).
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 1 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 0,
            target: 2,
        },
        Instr::Halt { s: 1 },
    ]);
    // `Branch Eq r0, r0` is taken, falls through to Halt — make it
    // not-taken instead by comparing different registers.
    let p2 = prog(vec![
        Instr::LoadI { d: 1, imm: 1 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 1,
            target: 3,
        },
        Instr::Halt { s: 1 },
    ]);
    both(&p, &VmConfig::default());
    let o = both(&p2, &VmConfig::default());
    assert_eq!(
        o.result,
        VmResult::Fault("instruction fetch out of range: block 0 pc 3".into())
    );
    // Jump to a nonexistent block.
    let p3 = prog(vec![Instr::Jump { label: 9 }]);
    let o3 = both(&p3, &VmConfig::default());
    assert_eq!(
        o3.result,
        VmResult::Fault("instruction fetch out of range: block 9 pc 0".into())
    );
}

#[test]
fn out_of_fuel_is_identical_even_mid_superinstruction() {
    // Sweep fuel limits across the whole run of a fusing loop so some
    // limit lands between the two halves of each fused pair; the
    // threaded engine must cut off at exactly the same instruction.
    let p = sum_loop(4);
    let full = run(&p, &VmConfig::default());
    for fuel in 0..full.stats.cycles + 2 {
        let base = VmConfig {
            max_cycles: fuel,
            ..VmConfig::default()
        };
        both(&p, &base);
    }
}

#[test]
fn scheduler_runs_threaded_tenants_identically() {
    let p = Arc::new(sum_loop(500));
    let run_tenants = |dispatch| {
        // Odd quantum: exercise preemption.
        let mut sched = SchedulerBuilder::new().quantum(97).build().unwrap();
        for _ in 0..3 {
            sched
                .admit(TenantSpec::new(p.clone(), &cfg(dispatch)))
                .unwrap();
        }
        sched.run_all()
    };
    let (dec, dec_stats) = run_tenants(Dispatch::Decode);
    let (thr, thr_stats) = run_tenants(Dispatch::Threaded);
    for (d, t) in dec.iter().zip(&thr) {
        assert_eq!(d.result, t.result);
        assert_eq!(d.output, t.output);
        assert_eq!(d.stats, t.stats, "per-tenant stats diverge");
        assert_eq!(d.slices, t.slices, "slice boundaries diverge");
        assert_eq!(d.max_overshoot, t.max_overshoot);
        assert_eq!(t.dispatch.engine, Dispatch::Threaded);
        assert!(t.dispatch.superinstructions > 0);
    }
    assert_eq!(
        (
            dec_stats.slices,
            dec_stats.preemptions,
            dec_stats.max_overshoot
        ),
        (
            thr_stats.slices,
            thr_stats.preemptions,
            thr_stats.max_overshoot
        )
    );
}

/// Sweeping the quantum lands slice edges between the two halves of
/// every fused pair in the loop; the threaded engine must preempt there
/// exactly as the decode loop does, and resume with the second half
/// alone, so every slice — not just every result — matches.
#[test]
fn slices_split_superinstructions_exactly_like_decode() {
    let p = sum_loop(20);
    for quantum in 1..=24 {
        let slices = |dispatch| {
            let mut vm = VmInstance::new(&p, &cfg(dispatch));
            let mut trace = Vec::new();
            loop {
                let done = vm.run_slice(quantum);
                trace.push((vm.stats().cycles, vm.stats().instrs));
                if done {
                    break;
                }
                // An empty slice must leave the position alone, even
                // between a pair's halves.
                assert!(!vm.run_slice(0));
                assert_eq!(trace.last(), Some(&(vm.stats().cycles, vm.stats().instrs)));
                assert!(trace.len() < 1_000, "no progress at quantum {quantum}");
            }
            (trace, vm.into_outcome())
        };
        let (dec_trace, dec) = slices(Dispatch::Decode);
        let (thr_trace, thr) = slices(Dispatch::Threaded);
        assert_eq!(
            dec_trace, thr_trace,
            "slice edges diverge at quantum {quantum}"
        );
        assert_eq!(dec.result, thr.result);
        assert_eq!(dec.stats, thr.stats);
    }
}

#[test]
fn verify_threaded_accepts_and_counts_fusion() {
    let p = sum_loop(10);
    let sum = verify_threaded(&p).expect("well-formed stream");
    assert!(sum.superinstructions >= 2, "{sum:?}");
    assert!(sum.tinstrs > 0);
    // And matches what the engine actually pre-decodes.
    let vm = VmInstance::new(&p, &cfg(Dispatch::Threaded));
    assert_eq!(vm.dispatch_stats().superinstructions, sum.superinstructions);
    assert_eq!(vm.dispatch_stats().stream_len, sum.tinstrs);
}

#[test]
fn branch_target_into_pair_blocks_fusion() {
    // The Arith at pc 2 is a branch target, so LoadI@1+Arith@2 must NOT
    // fuse; the branch must land exactly on the Arith.
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 10 },
        Instr::LoadI { d: 2, imm: 3 },
        Instr::Branch {
            op: BrOp::Eq,
            a: 0,
            b: 0,
            target: 2, // not-taken path jumps INTO what would be a pair
        },
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 2,
        },
        Instr::Halt { s: 1 },
    ]);
    verify_threaded(&p).expect("stream must stay well-formed");
    let o = both(&p, &VmConfig::default());
    assert_eq!(o.result, VmResult::Value(13));
}

#[test]
fn i64_min_division_wraps_in_both_engines() {
    // untag_int narrows to the tagged width, so drive the helper
    // directly for the true boundary, and the VM for in-width values.
    assert_eq!(sml_cps::floor_div(i64::MIN, -1), i64::MIN);
    assert_eq!(sml_cps::floor_mod(i64::MIN, -1), 0);
    let p = prog(vec![
        Instr::LoadI {
            d: 1,
            imm: -1073741824,
        }, // tagged-int minimum
        Instr::LoadI { d: 2, imm: -1 },
        Instr::Arith {
            op: AOp::Div,
            d: 3,
            a: 1,
            b: 2,
        },
        Instr::Halt { s: 3 },
    ]);
    both(&p, &VmConfig::default());
}
