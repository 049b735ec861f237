//! Trap-path coverage: every abnormal [`VmResult`] variant is reachable,
//! is contained (no panic, no abort), and leaves the [`RunStats`]
//! counters internally consistent — `cycles_by_class` sums to `cycles`
//! and `instrs_by_class` sums to `instrs` no matter how the run ended.

use sml_vm::isa::{AOp, AllocKind, RtOp};
use sml_vm::vm::FaultInject;
use sml_vm::{
    run, CodeBlock, Dispatch, Executable, Instr, InstrClass, MachineProgram, Outcome, RunStats,
    SchedulerBuilder, TenantOutcome, TenantSpec, VmConfig, VmResult,
};

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

fn assert_consistent(stats: &RunStats) {
    assert_eq!(
        stats.cycles_by_class.iter().sum::<u64>(),
        stats.cycles,
        "cycles_by_class must sum to cycles: {stats:?}"
    );
    assert_eq!(
        stats.instrs_by_class.iter().sum::<u64>(),
        stats.instrs,
        "instrs_by_class must sum to instrs: {stats:?}"
    );
    assert_eq!(
        stats.instrs_by_class[InstrClass::Gc as usize],
        0,
        "no instruction belongs to the Gc pseudo-class"
    );
    assert_eq!(
        stats.cycles_by_class[InstrClass::Gc as usize],
        stats.gc_cycles,
        "Gc pseudo-class must carry exactly the collector cycles"
    );
    assert_eq!(
        stats.n_gcs,
        stats.n_minor_gcs + stats.n_major_gcs,
        "every collection is either minor or major: {stats:?}"
    );
    assert_eq!(
        stats.gc_cycles,
        stats.minor_gc_cycles + stats.major_gc_cycles,
        "collector cycles split exactly into minor + major: {stats:?}"
    );
    assert!(
        stats.max_minor_pause <= stats.minor_gc_cycles
            && stats.max_major_pause <= stats.major_gc_cycles,
        "a single pause cannot exceed its class total: {stats:?}"
    );
}

fn run_default(p: &MachineProgram) -> Outcome {
    run(p, &VmConfig::default())
}

fn expect_fault(o: &Outcome, needle: &str) {
    match &o.result {
        VmResult::Fault(why) => assert!(
            why.contains(needle),
            "fault reason `{why}` should mention `{needle}`"
        ),
        other => panic!("expected Fault mentioning `{needle}`, got {other:?}"),
    }
    assert_consistent(&o.stats);
}

#[test]
fn normal_halt_is_consistent() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 42 },
        Instr::Halt { s: 1 },
    ]));
    assert_eq!(o.result, VmResult::Value(42));
    assert_consistent(&o.stats);
}

#[test]
fn load_through_non_pointer_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 5 },
        Instr::Load {
            d: 2,
            base: 1,
            off: 0,
        },
        Instr::Halt { s: 2 },
    ]));
    expect_fault(&o, "non-pointer");
}

#[test]
fn store_outside_object_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 7 },
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Store {
            s: 1,
            base: 2,
            off: 5,
        },
        Instr::Halt { s: 1 },
    ]));
    expect_fault(&o, "outside object");
}

#[test]
fn negative_index_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 4 },
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::LoadI { d: 3, imm: -1 },
        Instr::LoadIdx {
            d: 4,
            base: 2,
            idx: 3,
        },
        Instr::Halt { s: 4 },
    ]));
    expect_fault(&o, "negative index");
}

#[test]
fn jump_through_pointer_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 1 },
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::JumpReg { r: 2 },
    ]));
    expect_fault(&o, "non-label");
}

#[test]
fn jump_target_out_of_range_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 99 },
        Instr::JumpReg { r: 1 },
    ]));
    expect_fault(&o, "out of range");
}

#[test]
fn direct_jump_out_of_range_faults() {
    let o = run_default(&prog(vec![Instr::Jump { label: 7 }]));
    expect_fault(&o, "instruction fetch out of range");
}

#[test]
fn falling_off_block_end_faults() {
    let o = run_default(&prog(vec![Instr::LoadI { d: 1, imm: 1 }]));
    expect_fault(&o, "instruction fetch out of range");
}

#[test]
fn string_op_on_non_string_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 3 },
        Instr::Rt {
            op: RtOp::StrSize,
            d: 2,
            a: 1,
            b: 0,
            fa: 0,
        },
        Instr::Halt { s: 2 },
    ]));
    expect_fault(&o, "non-pointer");
}

#[test]
fn string_index_out_of_bounds_faults() {
    let mut p = prog(vec![
        Instr::LoadStr { d: 1, pool: 0 },
        Instr::LoadI { d: 2, imm: 10 },
        Instr::Rt {
            op: RtOp::StrSub,
            d: 3,
            a: 1,
            b: 2,
            fa: 0,
        },
        Instr::Halt { s: 3 },
    ]);
    p.pool.push("hi".into());
    let o = run_default(&p);
    expect_fault(&o, "out of bounds");
}

#[test]
fn oversized_array_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 40_000 },
        Instr::LoadI { d: 2, imm: 0 },
        Instr::AllocArr {
            d: 3,
            len: 1,
            init: 2,
        },
        Instr::Halt { s: 3 },
    ]));
    expect_fault(&o, "descriptor limit");
}

/// A loop that allocates a record chaining to the previous one, so live
/// data grows without bound: `r1 := [r1]` forever.
fn chain_alloc_loop() -> MachineProgram {
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![Instr::LoadI { d: 1, imm: 0 }, Instr::Jump { label: 1 }],
            },
            CodeBlock {
                name: "loop".into(),
                instrs: vec![
                    Instr::Alloc {
                        d: 1,
                        kind: AllocKind::Record,
                        words: vec![1],
                        flts: vec![],
                    },
                    Instr::Jump { label: 1 },
                ],
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

#[test]
fn heap_ceiling_traps_heap_exhausted() {
    let cfg = VmConfig {
        tenured_words: 256,
        nursery_words: 64,
        ..VmConfig::default()
    };
    let o = run(&chain_alloc_loop(), &cfg);
    assert_eq!(o.result, VmResult::HeapExhausted);
    assert!(o.stats.n_gcs >= 1, "ceiling should be found via a GC");
    assert!(
        o.stats.n_major_gcs >= 1,
        "a major collection is the final attempt before trapping: {:?}",
        o.stats
    );
    assert!(o.stats.n_allocs > 0);
    assert_eq!(o.stats.alloc_words, 2 * o.stats.n_allocs); // 1 body + 1 descriptor each
    assert_consistent(&o.stats);
}

#[test]
fn out_of_fuel_syncs_counters() {
    let cfg = VmConfig {
        max_cycles: 5_000,
        ..VmConfig::default()
    };
    let o = run(&chain_alloc_loop(), &cfg);
    assert_eq!(o.result, VmResult::OutOfFuel);
    assert!(
        o.stats.alloc_words > 0 && o.stats.n_allocs > 0,
        "heap counters must be synced even when fuel runs out: {:?}",
        o.stats
    );
    assert_consistent(&o.stats);
}

#[test]
fn injected_alloc_failure_traps_at_exactly_n() {
    let mut instrs = Vec::new();
    instrs.push(Instr::LoadI { d: 1, imm: 0 });
    for _ in 0..10 {
        instrs.push(Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        });
    }
    instrs.push(Instr::Halt { s: 1 });
    let p = prog(instrs);

    let cfg = VmConfig {
        fault: FaultInject {
            fail_alloc_at: Some(3),
            gc_every_n_allocs: None,
            yield_every_n_slices: None,
        },
        ..VmConfig::default()
    };
    let o = run(&p, &cfg);
    assert_eq!(o.result, VmResult::HeapExhausted);
    assert_eq!(o.stats.n_allocs, 2, "the third allocation must fail");
    assert_consistent(&o.stats);

    // Without injection the same program halts normally.
    let o = run_default(&p);
    assert_eq!(o.result, VmResult::Value(0));
    assert_eq!(o.stats.n_allocs, 10);
    assert_consistent(&o.stats);
}

#[test]
fn forced_gc_preserves_results_and_counts() {
    // Build a small record chain, then read back through it.
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 17 },
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![2],
            flts: vec![],
        },
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![3],
            flts: vec![],
        },
        Instr::Load {
            d: 5,
            base: 4,
            off: 0,
        },
        Instr::Load {
            d: 6,
            base: 5,
            off: 0,
        },
        Instr::Load {
            d: 7,
            base: 6,
            off: 0,
        },
        Instr::Halt { s: 7 },
    ]);
    let quiet = run_default(&p);
    assert_eq!(quiet.result, VmResult::Value(17));

    let cfg = VmConfig {
        fault: FaultInject {
            fail_alloc_at: None,
            gc_every_n_allocs: Some(1),
            yield_every_n_slices: None,
        },
        ..VmConfig::default()
    };
    let stressed = run(&p, &cfg);
    assert_eq!(
        stressed.result, quiet.result,
        "forced collections must not change the result"
    );
    assert!(
        stressed.stats.n_gcs >= 3,
        "a GC was forced before every allocation: {:?}",
        stressed.stats
    );
    assert_consistent(&stressed.stats);
}

#[test]
fn uncaught_with_malformed_packet_is_contained() {
    let o = run_default(&prog(vec![
        Instr::LoadI { d: 1, imm: 3 },
        Instr::Uncaught { s: 1 },
    ]));
    assert_eq!(o.result, VmResult::Uncaught("?".into()));
    assert_consistent(&o.stats);
}

#[test]
fn division_by_zero_faults() {
    for op in [AOp::Div, AOp::Mod] {
        let o = run_default(&prog(vec![
            Instr::LoadI { d: 1, imm: 9 },
            Instr::LoadI { d: 2, imm: 0 },
            Instr::Arith {
                op,
                d: 3,
                a: 1,
                b: 2,
            },
            Instr::Halt { s: 3 },
        ]));
        expect_fault(&o, "division by zero");
        assert_consistent(&o.stats);
    }
}

#[test]
fn string_pool_index_out_of_range_faults() {
    let o = run_default(&prog(vec![
        Instr::LoadStr { d: 1, pool: 4 },
        Instr::Halt { s: 1 },
    ]));
    expect_fault(&o, "pool index");
}

/// A register operand past the 64-register file (unverified bytecode)
/// is a typed Fault before the first step under both engines — not a
/// host panic on the register-file index — for integer and float
/// registers alike, and through the scheduler too.
#[test]
fn out_of_range_register_faults_before_the_first_step() {
    let cases = [
        (
            prog(vec![Instr::LoadI { d: 200, imm: 1 }, Instr::Halt { s: 0 }]),
            "register r200 out of range (max 63) at L0 @0",
        ),
        (
            prog(vec![
                Instr::LoadI { d: 1, imm: 1 },
                Instr::FMove { d: 3, s: 64 },
                Instr::Halt { s: 1 },
            ]),
            "float register f64 out of range (max 63) at L0 @1",
        ),
    ];
    for (p, needle) in &cases {
        for dispatch in [Dispatch::Decode, Dispatch::Threaded] {
            let cfg = VmConfig {
                dispatch,
                ..VmConfig::default()
            };
            let o = run(p, &cfg);
            expect_fault(&o, needle);
            assert_eq!(o.stats, RunStats::default(), "nothing may execute");

            let mut sched = SchedulerBuilder::new().build().unwrap();
            sched
                .admit(TenantSpec::new(Executable::new(p), &cfg))
                .unwrap();
            let (reports, stats) = sched.run_all();
            assert_eq!(reports[0].outcome, TenantOutcome::Fault);
            assert_eq!(reports[0].result, o.result);
            assert_eq!(reports[0].first_slice, None);
            assert_eq!(stats.fault, 1);
        }
    }
}

/// Promotion plus the write barrier, driven end-to-end through the VM:
/// a record is promoted to tenured space by forced minor collections,
/// then mutated (via `StoreWB`, the barriered store the compiler emits
/// for ref assignment) to point at a freshly allocated — hence young —
/// record. The young object is reachable *only* through the tenured
/// one, so only the remembered set keeps it alive across the next
/// forced collection.
#[test]
fn write_barrier_keeps_promoted_to_young_edge_alive() {
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 0 },
        // The soon-to-be-tenured cell, initially holding 0.
        Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        // Padding allocations: with `gc_every_n_allocs: Some(1)` each
        // one forces a minor collection, aging r2 past promotion.
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        // A young record holding 23, stored into the (now tenured) cell.
        Instr::LoadI { d: 4, imm: 23 },
        Instr::Alloc {
            d: 5,
            kind: AllocKind::Record,
            words: vec![4],
            flts: vec![],
        },
        Instr::StoreWB {
            s: 5,
            base: 2,
            off: 0,
        },
        // Drop the direct young reference; the remembered set is now the
        // only root keeping it alive. Force one more collection.
        Instr::LoadI { d: 5, imm: 0 },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        // Read back through the tenured cell.
        Instr::Load {
            d: 6,
            base: 2,
            off: 0,
        },
        Instr::Load {
            d: 7,
            base: 6,
            off: 0,
        },
        Instr::Halt { s: 7 },
    ]);

    let quiet = run_default(&p);
    assert_eq!(quiet.result, VmResult::Value(23));
    assert_consistent(&quiet.stats);

    let cfg = VmConfig {
        fault: FaultInject {
            fail_alloc_at: None,
            gc_every_n_allocs: Some(1),
            yield_every_n_slices: None,
        },
        ..VmConfig::default()
    };
    let stressed = run(&p, &cfg);
    assert_eq!(
        stressed.result, quiet.result,
        "barrier-maintained edge must survive forced collections: {:?}",
        stressed.stats
    );
    assert!(
        stressed.stats.n_minor_gcs >= 3,
        "a minor collection was forced before every allocation: {:?}",
        stressed.stats
    );
    assert!(
        stressed.stats.promoted_words > 0,
        "the cell must actually reach tenured space: {:?}",
        stressed.stats
    );
    assert!(
        stressed.stats.remembered_peak >= 1,
        "the tenured-to-young store must be remembered: {:?}",
        stressed.stats
    );
    assert_consistent(&stressed.stats);
}

/// Same shape through `StoreIdxWB`, the barriered indexed store the
/// compiler emits for array update.
#[test]
fn indexed_write_barrier_keeps_young_element_alive() {
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 8, imm: 1 },
        // A one-element array, aged into tenured space by forced minors.
        Instr::AllocArr {
            d: 2,
            len: 8,
            init: 1,
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        // arr[0] := young record holding 31.
        Instr::LoadI { d: 4, imm: 31 },
        Instr::Alloc {
            d: 5,
            kind: AllocKind::Record,
            words: vec![4],
            flts: vec![],
        },
        Instr::StoreIdxWB {
            s: 5,
            base: 2,
            idx: 1,
        },
        Instr::LoadI { d: 5, imm: 0 },
        Instr::Alloc {
            d: 3,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        },
        Instr::LoadIdx {
            d: 6,
            base: 2,
            idx: 1,
        },
        Instr::Load {
            d: 7,
            base: 6,
            off: 0,
        },
        Instr::Halt { s: 7 },
    ]);

    let quiet = run_default(&p);
    assert_eq!(quiet.result, VmResult::Value(31));

    let cfg = VmConfig {
        fault: FaultInject {
            fail_alloc_at: None,
            gc_every_n_allocs: Some(1),
            yield_every_n_slices: None,
        },
        ..VmConfig::default()
    };
    let stressed = run(&p, &cfg);
    assert_eq!(stressed.result, quiet.result);
    assert_consistent(&stressed.stats);
}

/// An allocation pattern that exactly fills the nursery: each 1-field
/// record costs 2 words, so a 8-word nursery holds exactly four. The
/// fifth forces a minor collection rather than a bump past the limit,
/// and the program's answer is unaffected.
#[test]
fn exactly_full_nursery_collects_instead_of_overflowing() {
    let mut instrs = vec![Instr::LoadI { d: 1, imm: 11 }];
    for _ in 0..5 {
        instrs.push(Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        });
    }
    instrs.push(Instr::Load {
        d: 3,
        base: 2,
        off: 0,
    });
    instrs.push(Instr::Halt { s: 3 });
    let p = prog(instrs);

    let cfg = VmConfig {
        nursery_words: 8,
        tenured_words: 4_096,
        ..VmConfig::default()
    };
    let o = run(&p, &cfg);
    assert_eq!(o.result, VmResult::Value(11));
    assert!(
        o.stats.n_minor_gcs >= 1,
        "the fifth record cannot fit without a collection: {:?}",
        o.stats
    );
    assert_consistent(&o.stats);
}

/// Objects too large for the nursery pre-tenure: the program still runs
/// (tenured space has room) even though the array never fits the
/// nursery, and no minor collection is needed for it.
#[test]
fn big_object_pre_tenures_instead_of_thrashing_the_nursery() {
    let cfg = VmConfig {
        nursery_words: 64,
        tenured_words: 4_096,
        ..VmConfig::default()
    };
    let o = run(
        &prog(vec![
            Instr::LoadI { d: 1, imm: 500 },
            Instr::LoadI { d: 2, imm: 7 },
            Instr::AllocArr {
                d: 3,
                len: 1,
                init: 2,
            },
            Instr::LoadI { d: 4, imm: 499 },
            Instr::LoadIdx {
                d: 5,
                base: 3,
                idx: 4,
            },
            Instr::Halt { s: 5 },
        ]),
        &cfg,
    );
    assert_eq!(o.result, VmResult::Value(7));
    assert_consistent(&o.stats);
}

#[test]
fn heap_exhausted_when_one_object_exceeds_semispace() {
    let cfg = VmConfig {
        tenured_words: 512,
        nursery_words: 128,
        ..VmConfig::default()
    };
    let o = run(
        &prog(vec![
            Instr::LoadI { d: 1, imm: 1_000 },
            Instr::LoadI { d: 2, imm: 0 },
            Instr::AllocArr {
                d: 3,
                len: 1,
                init: 2,
            },
            Instr::Halt { s: 3 },
        ]),
        &cfg,
    );
    assert_eq!(o.result, VmResult::HeapExhausted);
    assert_consistent(&o.stats);
}
