//! Policy-driven scheduler coverage: EDF meets every deadline on a
//! feasible workload, priority is strict but starvation-bounded,
//! admission control rejects oversubscription with typed errors, a
//! thousand fault-injected tenants stay isolated, and overshoot is
//! accounted against each tenant's own quantum.

use sml_vm::isa::{AOp, AllocKind, BrOp};
use sml_vm::{
    run, AdmissionError, CodeBlock, Dispatch, Executable, FaultInject, GcMode, Instr,
    MachineProgram, SchedConfigError, SchedPolicy, SchedStats, SchedulerBuilder, TenantOutcome,
    TenantSpec, VmConfig, VmResult, VmScheduler,
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

/// A counted loop summing 0..n — deterministic cycle cost, no
/// allocation, so solo cycle measurements are exact.
fn sum_loop(n: i64) -> MachineProgram {
    prog(vec![
        Instr::LoadI { d: 1, imm: 0 }, // acc
        Instr::LoadI { d: 2, imm: 0 }, // i
        Instr::LoadI { d: 3, imm: n }, // limit
        Instr::LoadI { d: 4, imm: 1 },
        // loop @4
        Instr::Arith {
            op: AOp::Add,
            d: 1,
            a: 1,
            b: 2,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 2,
            a: 2,
            b: 4,
        },
        // Back-edge while i < limit (Branch jumps when the comparison
        // is false).
        Instr::Branch {
            op: BrOp::Ge,
            a: 2,
            b: 3,
            target: 4,
        },
        Instr::Halt { s: 1 },
    ])
}

/// Allocates `n` two-word records, keeping none live: heavy GC traffic
/// with a bounded live set.
fn alloc_loop(n: i64) -> MachineProgram {
    prog(vec![
        Instr::LoadI { d: 1, imm: 0 },
        Instr::LoadI { d: 2, imm: n },
        Instr::LoadI { d: 7, imm: 1 },
        Instr::LoadI { d: 5, imm: 0 }, // checksum
        // loop @4
        Instr::Alloc {
            d: 4,
            kind: AllocKind::Record,
            words: vec![1, 7],
            flts: vec![],
        },
        Instr::Load {
            d: 6,
            base: 4,
            off: 0,
        },
        Instr::Arith {
            op: AOp::Add,
            d: 5,
            a: 5,
            b: 6,
        },
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
        Instr::Halt { s: 5 },
    ])
}

/// Retains every allocation: any finite heap quota ends in
/// `HeapExhausted`.
fn retainer(n: i64) -> MachineProgram {
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

/// Small generational geometry that forces frequent collections.
fn small_heap(max_pause_cycles: u64) -> VmConfig {
    VmConfig {
        gc_mode: GcMode::Generational,
        nursery_words: 256,
        tenured_words: 2048,
        promote_after: 1,
        max_pause_cycles,
        ..VmConfig::default()
    }
}

fn build(policy: SchedPolicy, quantum: u64) -> VmScheduler {
    SchedulerBuilder::new()
        .policy(policy)
        .quantum(quantum)
        .build()
        .unwrap()
}

#[test]
fn builder_validates_knobs_like_session_builder() {
    for (builder, field) in [
        (SchedulerBuilder::new().quantum(0), "quantum"),
        (SchedulerBuilder::new().aging_slices(0), "aging_slices"),
        (
            SchedulerBuilder::new().heap_capacity_words(0),
            "heap_capacity_words",
        ),
        (
            SchedulerBuilder::new().fuel_capacity_cycles(0),
            "fuel_capacity_cycles",
        ),
    ] {
        assert_eq!(
            builder.build().err(),
            Some(SchedConfigError::MustBeNonzero { field }),
        );
    }
    let sched = SchedulerBuilder::new()
        .quantum(1)
        .policy(SchedPolicy::Priority)
        .heap_capacity_words(1)
        .fuel_capacity_cycles(1)
        .aging_slices(1)
        .build()
        .unwrap();
    assert!(sched.is_empty());
    assert_eq!(sched.len(), 0);
}

#[test]
fn policy_parses_and_prints_stable_names() {
    for (name, policy) in [
        ("round-robin", SchedPolicy::RoundRobin),
        ("priority", SchedPolicy::Priority),
        ("deadline", SchedPolicy::Deadline),
    ] {
        assert_eq!(name.parse::<SchedPolicy>().unwrap(), policy);
        assert_eq!(policy.name(), name);
    }
    assert_eq!(
        "rr".parse::<SchedPolicy>().unwrap(),
        SchedPolicy::RoundRobin
    );
    assert_eq!("edf".parse::<SchedPolicy>().unwrap(), SchedPolicy::Deadline);
    let err = "fifo".parse::<SchedPolicy>().unwrap_err();
    assert!(err.contains("round-robin|priority|deadline"), "{err}");
}

#[test]
fn admission_rejects_heap_oversubscription_with_a_typed_error() {
    let p = Executable::new(&sum_loop(10));
    let mut sched = SchedulerBuilder::new()
        .heap_capacity_words(5_000)
        .build()
        .unwrap();
    let cfg = VmConfig {
        tenured_words: 2048,
        ..VmConfig::default()
    };
    assert_eq!(sched.admit(TenantSpec::new(p.clone(), &cfg)), Ok(0));
    assert_eq!(sched.admit(TenantSpec::new(p.clone(), &cfg)), Ok(1));
    // 4096 of 5000 committed: a third 2048-word quota must not fit.
    assert_eq!(
        sched.admit(TenantSpec::new(p.clone(), &cfg)),
        Err(AdmissionError::HeapOversubscribed {
            requested: 2048,
            committed: 4096,
            capacity: 5_000,
        })
    );
    assert_eq!(sched.len(), 2, "a rejected spec must not be admitted");
    let (reports, stats) = sched.run_all();
    assert_eq!(reports.len(), 2);
    assert_eq!(stats.tenants, 2);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.done, 2);
}

#[test]
fn admission_rejects_fuel_oversubscription_with_a_typed_error() {
    let p = Executable::new(&sum_loop(10));
    let mut sched = SchedulerBuilder::new()
        .fuel_capacity_cycles(100_000)
        .build()
        .unwrap();
    let cfg = VmConfig {
        max_cycles: 60_000,
        ..VmConfig::default()
    };
    assert_eq!(sched.admit(TenantSpec::new(p.clone(), &cfg)), Ok(0));
    assert_eq!(
        sched.admit(TenantSpec::new(p, &cfg)),
        Err(AdmissionError::FuelOversubscribed {
            requested: 60_000,
            committed: 60_000,
            capacity: 100_000,
        })
    );
    // The typed errors render a human-readable reason.
    let msg = AdmissionError::FuelOversubscribed {
        requested: 60_000,
        committed: 60_000,
        capacity: 100_000,
    }
    .to_string();
    assert!(msg.contains("fuel quota of 60000 cycles"), "{msg}");
}

/// EDF property: on a synthetically feasible workload — deadlines set
/// at or beyond each tenant's completion time under
/// earliest-deadline-first — no tenant ever misses, whatever the
/// admission order. Exercised across several workload shapes and both
/// dispatch engines.
#[test]
fn edf_never_misses_on_a_feasible_workload() {
    for engine in [Dispatch::Decode, Dispatch::Threaded] {
        let cfg = VmConfig {
            dispatch: engine,
            ..VmConfig::default()
        };
        for n_tenants in [3usize, 8, 17] {
            // Distinct per-tenant costs, measured solo (exact: the
            // machine is deterministic).
            let progs: Vec<Executable> = (0..n_tenants)
                .map(|i| Executable::new(&sum_loop(200 + 157 * i as i64)))
                .collect();
            let costs: Vec<u64> = progs.iter().map(|p| run(p, &cfg).stats.cycles).collect();
            // Feasibility: EDF (deadline order == cost order here) runs
            // tenant i to completion at exactly prefix_cost(i), so the
            // prefix sums ARE the tightest feasible deadlines.
            let mut prefix = 0u64;
            let deadlines: Vec<u64> = costs
                .iter()
                .map(|c| {
                    prefix += c;
                    prefix
                })
                .collect();
            let mut sched = build(SchedPolicy::Deadline, 1_000);
            // Admit in scrambled order so EDF has to reorder.
            let order: Vec<usize> = (0..n_tenants).map(|i| (i * 7 + 3) % n_tenants).collect();
            let mut admitted = vec![0usize; n_tenants];
            for (slot, &i) in order.iter().enumerate() {
                let idx = sched
                    .admit(TenantSpec::new(progs[i].clone(), &cfg).deadline_cycles(deadlines[i]))
                    .unwrap();
                assert_eq!(idx, slot);
                admitted[slot] = i;
            }
            let (reports, stats) = sched.run_all();
            assert_eq!(stats.deadline_missed, 0, "feasible workload missed");
            assert_eq!(stats.done, n_tenants as u64);
            for (slot, r) in reports.iter().enumerate() {
                let i = admitted[slot];
                assert_eq!(r.outcome, TenantOutcome::Done);
                let solo = run(&progs[i], &cfg);
                assert_eq!(r.result, solo.result);
                assert_eq!(r.stats, solo.stats, "tenant {i} stats diverged from solo");
            }
        }
    }
}

#[test]
fn infeasible_deadline_reports_missed_with_solo_identical_result() {
    let p = Executable::new(&sum_loop(2_000));
    let cfg = VmConfig::default();
    let solo = run(&p, &cfg);
    let mut sched = build(SchedPolicy::Deadline, 1_000);
    sched
        .admit(TenantSpec::new(p.clone(), &cfg).deadline_cycles(1))
        .unwrap();
    let (reports, stats) = sched.run_all();
    assert_eq!(reports[0].outcome, TenantOutcome::DeadlineMissed);
    assert_eq!(stats.deadline_missed, 1);
    assert_eq!(stats.done, 0, "the outcome tallies partition the tenants");
    // The miss is a clock judgment, never a behavior change.
    assert_eq!(reports[0].result, solo.result);
    assert_eq!(reports[0].output, solo.output);
    assert_eq!(reports[0].stats, solo.stats);
}

#[test]
fn resource_outcomes_take_precedence_over_deadline_misses() {
    let p = Executable::new(&retainer(100_000));
    let cfg = VmConfig {
        tenured_words: 4096,
        ..small_heap(0)
    };
    let mut sched = build(SchedPolicy::Deadline, 1_000);
    sched
        .admit(TenantSpec::new(p, &cfg).deadline_cycles(1))
        .unwrap();
    let (reports, stats) = sched.run_all();
    assert_eq!(reports[0].outcome, TenantOutcome::HeapExhausted);
    assert_eq!(stats.deadline_missed, 0);
    assert_eq!(stats.heap_exhausted, 1);
}

#[test]
fn deadlines_are_judged_under_every_policy() {
    // Two equal tenants, a deadline only one round-robin interleaving
    // can meet: under RR both finish near the end, so the second
    // tenant's tight deadline (set to its *solo* cost) must be missed.
    let p = Executable::new(&sum_loop(2_000));
    let cfg = VmConfig::default();
    let solo_cycles = run(&p, &cfg).stats.cycles;
    let mut sched = build(SchedPolicy::RoundRobin, 1_000);
    sched.admit(TenantSpec::new(p.clone(), &cfg)).unwrap();
    sched
        .admit(TenantSpec::new(p, &cfg).deadline_cycles(solo_cycles))
        .unwrap();
    let (reports, stats) = sched.run_all();
    assert_eq!(reports[1].outcome, TenantOutcome::DeadlineMissed);
    assert_eq!(stats.deadline_missed, 1);
}

#[test]
fn priority_is_strict_under_large_aging() {
    // Admission order is the *reverse* of priority; the schedule must
    // invert it.
    let p = Executable::new(&sum_loop(1_500));
    let cfg = VmConfig::default();
    let mut sched = build(SchedPolicy::Priority, 500);
    for prio in [0u32, 5, 9] {
        sched
            .admit(TenantSpec::new(p.clone(), &cfg).priority(prio))
            .unwrap();
    }
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.done, 3);
    let firsts: Vec<u64> = reports.iter().map(|r| r.first_slice.unwrap()).collect();
    assert!(
        firsts[2] < firsts[1] && firsts[1] < firsts[0],
        "higher priority must be scheduled first: {firsts:?}"
    );
    // With the default aging (1024 slices per step) and runs this
    // short, priority is effectively strict: the top tenant runs to
    // completion before anyone else starts.
    assert_eq!(firsts[2], 0);
    assert!(firsts[1] >= reports[2].slices);
}

#[test]
fn priority_aging_bounds_starvation() {
    let p = Executable::new(&sum_loop(4_000));
    let cfg = VmConfig::default();
    let aging = 4u64;
    let gap = 8u32;
    let mut sched = SchedulerBuilder::new()
        .policy(SchedPolicy::Priority)
        .quantum(200)
        .aging_slices(aging)
        .build()
        .unwrap();
    sched.admit(TenantSpec::new(p.clone(), &cfg)).unwrap(); // priority 0
    sched
        .admit(TenantSpec::new(p.clone(), &cfg).priority(gap))
        .unwrap();
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.done, 2);
    // The starvation bound: the priority-0 tenant yields at most
    // `gap * aging` slices (plus the initial enqueue skew) before its
    // seniority wins.
    let bound = u64::from(gap) * aging + 2;
    let first = reports[0].first_slice.unwrap();
    assert!(
        first <= bound,
        "priority-0 tenant starved for {first} slices (bound {bound}): {stats:?}"
    );
    // And it genuinely waited: the high-priority tenant ran first.
    assert_eq!(reports[1].first_slice.unwrap(), 0);
}

#[test]
fn thousand_tenant_storm_isolates_fault_injected_neighbors() {
    const N: usize = 1_000;
    let good_prog = Executable::new(&alloc_loop(150));
    let hostile_prog = Executable::new(&retainer(100_000));
    // Every tenant runs with forced collections before every 3rd
    // allocation — far off the natural nursery schedule — and every
    // 97th tenant retains everything until its quota traps.
    let good_cfg = VmConfig {
        fault: FaultInject {
            gc_every_n_allocs: Some(3),
            ..FaultInject::default()
        },
        ..small_heap(1_200)
    };
    let hostile_cfg = VmConfig {
        tenured_words: 4096,
        ..small_heap(1_200)
    };
    let solo = run(&good_prog, &good_cfg);
    assert!(
        matches!(solo.result, VmResult::Value(_)),
        "{:?}",
        solo.result
    );
    let mut sched = build(SchedPolicy::RoundRobin, 2_000);
    for i in 0..N {
        let spec = if i % 97 == 0 {
            TenantSpec::new(hostile_prog.clone(), &hostile_cfg)
        } else {
            TenantSpec::new(good_prog.clone(), &good_cfg)
        };
        sched.admit(spec).unwrap();
    }
    let (reports, stats) = sched.run_all();
    let hostiles = (0..N).filter(|i| i % 97 == 0).count() as u64;
    // The whole schedule is pinned: it is a pure function of the tenant
    // set, the policy and the quantum, whatever threads execute it.
    assert_eq!(
        stats,
        SchedStats {
            policy: SchedPolicy::RoundRobin,
            quantum: 2_000,
            tenants: N as u64,
            rejected: 0,
            rounds: 9,
            slices: 5_044,
            preemptions: 4_044,
            max_overshoot: 17_853,
            ready_peak: N as u64,
            done: N as u64 - hostiles,
            heap_exhausted: hostiles,
            fault: 0,
            out_of_fuel: 0,
            deadline_missed: 0,
        }
    );
    for (i, r) in reports.iter().enumerate() {
        if i % 97 == 0 {
            assert_eq!(r.outcome, TenantOutcome::HeapExhausted, "tenant {i}");
        } else {
            assert_eq!(r.outcome, TenantOutcome::Done, "tenant {i}");
            assert_eq!(r.result, solo.result, "tenant {i} result diverged");
            assert_eq!(r.output, solo.output, "tenant {i} output diverged");
            assert_eq!(r.stats, solo.stats, "tenant {i} stats diverged from solo");
        }
    }
}

#[test]
fn overshoot_is_accounted_against_each_tenants_own_quantum() {
    // Mixed quanta: one tenant on a 500-cycle quantum, one on 5000.
    // PR 7 measured overshoot against the single global quantum, which
    // under-reports for small-quantum tenants; the bound is per-tenant.
    let p = Executable::new(&alloc_loop(2_000));
    let cfg = small_heap(1_200);
    let mut sched = build(SchedPolicy::RoundRobin, 5_000);
    sched
        .admit(TenantSpec::new(p.clone(), &cfg).quantum_cycles(500))
        .unwrap();
    sched.admit(TenantSpec::new(p.clone(), &cfg)).unwrap();
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.done, 2);
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.stats.pause_overruns, 0);
        // One instruction (or fused pair) + one budgeted GC pause past
        // the tenant's own quantum edge.
        assert!(
            r.max_overshoot <= 2_000,
            "tenant {i} overshoot unbounded: {} (stats {:?})",
            r.max_overshoot,
            stats
        );
    }
    // The aggregate is exactly the per-tenant maximum, not a global
    // re-measure against the default quantum.
    assert_eq!(
        stats.max_overshoot,
        reports.iter().map(|r| r.max_overshoot).max().unwrap()
    );
    // The small-quantum tenant was preempted far more often.
    assert!(reports[0].slices > reports[1].slices * 2);
}

#[test]
fn round_robin_matches_the_pre_policy_schedule() {
    // The heap-keyed round-robin must reproduce the old O(n) scan's
    // schedule exactly: every unfinished tenant gets one slice per
    // pass, in admission order — observable through rounds == max
    // slices and solo-identical per-tenant behavior.
    let p = Executable::new(&sum_loop(700));
    let cfg = VmConfig::default();
    let solo = run(&p, &cfg);
    let mut sched = build(SchedPolicy::RoundRobin, 97);
    for _ in 0..4 {
        sched.admit(TenantSpec::new(p.clone(), &cfg)).unwrap();
    }
    let (reports, stats) = sched.run_all();
    assert_eq!(stats.done, 4);
    assert!(stats.rounds > 1, "{stats:?}");
    assert_eq!(
        stats.rounds,
        reports.iter().map(|r| r.slices).max().unwrap()
    );
    for r in &reports {
        assert_eq!(r.stats, solo.stats);
        // Identical tenants advance in lockstep: tenant i first runs at
        // global slice i.
    }
    let firsts: Vec<u64> = reports.iter().map(|r| r.first_slice.unwrap()).collect();
    assert_eq!(firsts, vec![0, 1, 2, 3]);
}
