//! Incremental-major and scheduler coverage: bounded pauses preserve
//! program results byte-for-byte, fault-injected yields interleave the
//! mutator with an active major (exercising the read-barrier and
//! black-allocation paths), and the round-robin scheduler isolates a
//! quota-exhausting tenant from its neighbors.

use sml_vm::isa::{AOp, AllocKind, BrOp};
use sml_vm::{
    run, CodeBlock, Executable, GcMode, Instr, InstrClass, MachineProgram, RunStats,
    SchedulerBuilder, TenantOutcome, TenantSpec, VmConfig, VmResult, VmScheduler,
};

/// A default round-robin scheduler on the given quantum.
fn sched_of(quantum: u64) -> VmScheduler {
    SchedulerBuilder::new().quantum(quantum).build().unwrap()
}

/// Admits one tenant of `p` under `cfg` (uncapped, cannot reject).
fn spawn(sched: &mut VmScheduler, p: &MachineProgram, cfg: &VmConfig) {
    sched
        .admit(TenantSpec::new(Executable::new(p), cfg))
        .unwrap();
}

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
        stats.cycles_by_class[InstrClass::Gc as usize],
        stats.gc_cycles,
        "Gc pseudo-class must carry exactly the collector cycles"
    );
    assert_eq!(
        stats.gc_cycles,
        stats.minor_gc_cycles + stats.major_gc_cycles,
        "collector cycles split exactly into minor + major: {stats:?}"
    );
}

/// An allocation-churn program. First a permanent chain of `keep` cons
/// cells is built and held in a register for the whole run — that is
/// the long-lived data every major collection must copy, which makes
/// unbudgeted major pauses genuinely long. Then `n` cons cells
/// `(i, prev)` are chained, and every 64th iteration the current chain
/// is walked (summing the stored values through `Load`, which is the
/// read-barrier path during an active incremental major) and then
/// dropped. The churn live set stays bounded while total allocation is
/// ~3(keep+n) words, so small heap geometry forces many minor *and*
/// major collections. Halts with a checksum that any GC bug would
/// corrupt.
fn churn(keep: i64, n: i64) -> MachineProgram {
    prog(vec![
        // r1=i, r2=limit, r3=chain, r5=checksum, r6=64, r7=1, r9=0,
        // r12=permanent chain
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: keep },
        Instr::LoadI { d: 12, imm: 0 },
        Instr::LoadI { d: 7, imm: 1 },
        // prefix loop @4: build the permanent chain.
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 12],
            flts: vec![],
        },
        Instr::Move { d: 12, s: 4 },
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 7,
        },
        Instr::Branch {
            op: BrOp::Ge,
            a: 1,
            b: 2,
            target: 4,
        },
        // main setup
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: n },
        Instr::LoadI { d: 3, imm: 0 },
        Instr::LoadI { d: 5, imm: 0 },
        Instr::LoadI { d: 6, imm: 64 },
        Instr::LoadI { d: 9, imm: 0 },
        // loop @14: chain a fresh cell and checksum its value back out
        // of the heap.
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 3],
            flts: vec![],
        },
        Instr::Move { d: 3, s: 4 },
        Instr::Load {
            d: 10,
            base: 3,
            off: 0,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 5,
            a: 5,
            b: 10,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 7,
        },
        Instr::Arith {
            op: AOp::Mod,
            d: 8,
            a: 1,
            b: 6,
        },
        // Every 64th iteration: walk the churn chain (@21..25), drop it
        // (@26), and walk the permanent chain (@27..32) — the deep tail
        // of the permanent chain is what an in-flight major's scan has
        // not reached yet, so this is the load that exercises the read
        // barrier. Other iterations skip straight to the loop test
        // (@33).
        Instr::Branch {
            op: BrOp::Eq,
            a: 8,
            b: 9,
            target: 33,
        },
        // walk @21: follow `prev` pointers to nil, summing values.
        Instr::Branch {
            op: BrOp::Boxed,
            a: 3,
            b: 3,
            target: 26,
        },
        Instr::Load {
            d: 10,
            base: 3,
            off: 0,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 5,
            a: 5,
            b: 10,
        },
        Instr::Load {
            d: 3,
            base: 3,
            off: 1,
        },
        // @25: unconditional back-edge to the walk head
        Instr::Branch {
            op: BrOp::Ne,
            a: 9,
            b: 9,
            target: 21,
        },
        // @26: drop the churn chain.
        Instr::LoadI { d: 3, imm: 0 },
        // @27: walk the permanent chain into the checksum.
        Instr::Move { d: 11, s: 12 },
        Instr::Branch {
            op: BrOp::Boxed,
            a: 11,
            b: 11,
            target: 33,
        },
        Instr::Load {
            d: 10,
            base: 11,
            off: 0,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 5,
            a: 5,
            b: 10,
        },
        Instr::Load {
            d: 11,
            base: 11,
            off: 1,
        },
        Instr::Branch {
            op: BrOp::Ne,
            a: 9,
            b: 9,
            target: 28,
        },
        // @33: loop while i < n
        Instr::Branch {
            op: BrOp::Ge,
            a: 1,
            b: 2,
            target: 14,
        },
        Instr::Halt { s: 5 },
    ])
}

/// Like [`churn`] but never drops the chain: the live set grows without
/// bound, so any finite heap quota ends in `HeapExhausted`.
fn churn_retain(n: i64) -> MachineProgram {
    prog(vec![
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: n },
        Instr::LoadI { d: 3, imm: 0 },
        Instr::LoadI { d: 7, imm: 1 },
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 3],
            flts: vec![],
        },
        Instr::Move { d: 3, s: 4 },
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 7,
        },
        Instr::Branch {
            op: BrOp::Ge,
            a: 1,
            b: 2,
            target: 4,
        },
        Instr::Halt { s: 1 },
    ])
}

/// Small heap geometry that forces frequent minors and regular majors
/// on the churn program.
fn small_heap(max_pause_cycles: u64) -> VmConfig {
    VmConfig {
        gc_mode: GcMode::Generational,
        nursery_words: 256,
        tenured_words: 2048,
        // Promote on the first surviving minor: the rolling chain
        // window keeps reaching tenured space, filling it with
        // soon-dead objects so majors fire regularly.
        promote_after: 1,
        max_pause_cycles,
        ..VmConfig::default()
    }
}

#[test]
fn incremental_budget_bounds_pauses_and_preserves_result() {
    let p = churn(400, 3_000);
    // Budget 1200 keeps the 256-word nursery unclamped
    // ((1200-150)/4 = 262 >= 256), so the collection schedule — and
    // hence promoted_words — is identical to stop-the-world.
    let stw = run(&p, &small_heap(0));
    let inc = run(&p, &small_heap(1_200));
    assert!(matches!(stw.result, VmResult::Value(_)), "{:?}", stw.result);
    assert_eq!(inc.result, stw.result, "budget must not change the result");
    assert_eq!(inc.output, stw.output);
    assert_consistent(&stw.stats);
    assert_consistent(&inc.stats);
    assert!(
        stw.stats.n_major_gcs >= 3,
        "geometry must force majors: {:?}",
        stw.stats
    );
    assert_eq!(
        inc.stats.promoted_words, stw.stats.promoted_words,
        "identical geometry must promote identically"
    );
    assert_eq!(inc.stats.gc_copied_words, stw.stats.gc_copied_words);
    // The bound itself: every recorded pause fits the budget, and
    // nothing was silently violated.
    assert_eq!(inc.stats.pause_overruns, 0, "{:?}", inc.stats);
    assert!(
        inc.stats.max_minor_pause <= 1_200,
        "minor pause over budget: {:?}",
        inc.stats
    );
    assert!(
        inc.stats.max_major_pause <= 1_200,
        "major slice over budget: {:?}",
        inc.stats
    );
    assert!(
        inc.stats.major_slices > inc.stats.n_major_gcs,
        "majors must actually be sliced: {:?}",
        inc.stats
    );
    // The unbudgeted run records whole majors as single pauses, and on
    // this geometry they are far over the incremental bound.
    assert!(stw.stats.max_major_pause > 1_200, "{:?}", stw.stats);
}

#[test]
fn yielded_slices_interleave_mutator_with_active_major() {
    let p = churn(400, 3_000);
    let quiet = run(&p, &small_heap(0));
    let mut cfg = small_heap(400);
    // One slice per allocation, yielding after each: a major spans many
    // mutator iterations, so the every-64th-iteration chain walk runs
    // against an active major and must hit from-space pointers.
    cfg.fault.yield_every_n_slices = Some(1);
    cfg.fault.gc_every_n_allocs = Some(1);
    let yielded = run(&p, &cfg);
    assert_eq!(
        yielded.result, quiet.result,
        "mutator work interleaved with an active major must not change the result: {:?}",
        yielded.stats
    );
    assert_eq!(yielded.output, quiet.output);
    assert_consistent(&yielded.stats);
    assert!(
        yielded.stats.major_slices > yielded.stats.n_major_gcs,
        "{:?}",
        yielded.stats
    );
    // With the mutator running mid-major, chain walks hit from-space
    // pointers and the read barrier must evacuate them.
    assert!(
        yielded.stats.barrier_words > 0,
        "yields must force read-barrier copies: {:?}",
        yielded.stats
    );
    assert_eq!(yielded.stats.pause_overruns, 0, "{:?}", yielded.stats);
    assert!(yielded.stats.max_major_pause <= 400, "{:?}", yielded.stats);
}

#[test]
fn scheduler_runs_tenants_to_solo_identical_results() {
    let p = churn(100, 1_500);
    let solo = run(&p, &small_heap(0));
    let mut sched = sched_of(5_000);
    let shared = Executable::new(&p);
    for _ in 0..3 {
        sched
            .admit(TenantSpec::new(shared.clone(), &small_heap(0)))
            .unwrap();
    }
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.tenants, 3);
    assert_eq!(stats.done, 3);
    assert!(stats.rounds > 1, "quantum must actually preempt: {stats:?}");
    assert!(stats.preemptions > 0);
    for r in &reports {
        assert_eq!(r.outcome, TenantOutcome::Done);
        assert_eq!(r.result, solo.result, "co-scheduling changed a result");
        assert_eq!(r.output, solo.output);
        assert_eq!(
            r.stats.cycles, solo.stats.cycles,
            "per-tenant stats must match a solo run exactly"
        );
        assert_eq!(r.stats.promoted_words, solo.stats.promoted_words);
        assert!(r.slices > 1);
        assert_consistent(&r.stats);
    }
}

#[test]
fn scheduler_isolates_hostile_faulting_and_fuel_starved_tenants() {
    let good = churn(100, 1_500);
    let hog = churn_retain(100_000);
    let crasher = prog(vec![
        Instr::LoadI { d: 1, imm: 5 },
        Instr::Load {
            d: 2,
            base: 1,
            off: 0,
        },
        Instr::Halt { s: 2 },
    ]);
    let solo = run(&good, &small_heap(1_200));
    let mut sched = sched_of(5_000);
    // Three well-behaved tenants around one heap hog, one fault, and
    // one fuel-starved tenant.
    spawn(&mut sched, &good, &small_heap(1_200));
    spawn(&mut sched, &hog, &small_heap(0)); // 4096-word quota: exhausts
    spawn(&mut sched, &good, &small_heap(1_200));
    spawn(&mut sched, &crasher, &VmConfig::default());
    spawn(
        &mut sched,
        &good,
        &VmConfig {
            max_cycles: 2_000,
            ..small_heap(1_200)
        },
    );
    let idx_good = [0usize, 2];
    let (reports, stats) = sched.run_all();
    assert_eq!(reports[1].outcome, TenantOutcome::HeapExhausted);
    assert_eq!(reports[3].outcome, TenantOutcome::Fault);
    assert_eq!(reports[4].outcome, TenantOutcome::OutOfFuel);
    for &i in &idx_good {
        assert_eq!(
            reports[i].outcome,
            TenantOutcome::Done,
            "well-behaved tenant {i} must be unaffected"
        );
        assert_eq!(reports[i].result, solo.result);
        assert_eq!(reports[i].output, solo.output);
        assert_eq!(reports[i].stats.cycles, solo.stats.cycles);
    }
    assert_eq!(stats.done, 2);
    assert_eq!(stats.heap_exhausted, 1);
    assert_eq!(stats.fault, 1);
    assert_eq!(stats.out_of_fuel, 1);
    assert_eq!(stats.quantum, 5_000);
    // Last tenant to finish still bounds the round count.
    assert!(stats.rounds >= reports.iter().map(|r| r.slices).max().unwrap());
}

#[test]
fn scheduler_overshoot_is_bounded_by_pause_budget() {
    let p = churn(100, 2_000);
    let mut sched = sched_of(2_000);
    spawn(&mut sched, &p, &small_heap(1_200));
    spawn(&mut sched, &p, &small_heap(1_200));
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.done, 2);
    for r in &reports {
        assert_eq!(r.outcome, TenantOutcome::Done);
        assert_eq!(r.stats.pause_overruns, 0);
    }
    // A slice can overshoot the quantum by at most one instruction or
    // one bounded GC pause; with a 1200-cycle budget that is far below
    // the quantum itself.
    assert!(
        stats.max_overshoot <= 2_000,
        "overshoot must stay bounded: {stats:?}"
    );
}
