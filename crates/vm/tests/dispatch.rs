//! The two execution engines are observationally identical: same
//! results, same output, same `RunStats` counters, same slice
//! boundaries — under normal completion, every trap path, fault
//! injection, an active incremental major, and scheduler preemption
//! (mid-superinstruction included). Plus the floor div/mod semantics
//! both engines now share, and the threaded stream verifier.

use sml_vm::isa::{AOp, AllocKind, BrOp, FOp};
use sml_vm::{
    run, verify_threaded, CodeBlock, Dispatch, Executable, FaultInject, GcMode, Instr,
    MachineProgram, Outcome, SchedulerBuilder, TenantSpec, VmConfig, VmInstance, VmResult,
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

/// A loop that pushes one node per iteration onto a linked list and
/// sums the `i` field of the node it replaces; returns
/// `(n - 1)(n - 2) / 2`. Its body holds every kind of threaded record
/// of several constituents, plus the flat allocation records: a
/// `LoadLabel` feeding an `Alloc`, an `FBox`, a same-base `Load` run
/// that ends by overwriting its base (the next load, from the new base
/// value, must not join it), a `Load`+`Branch` pair whose branch targets
/// the second instruction of four `Move`s, leaving a `Move` run of three
/// (one through a spill-modelled register), a `LoadI`+`Arith` pair and
/// a `Move`+`Jump` pair.
fn record_loop(n: i64) -> MachineProgram {
    // A node: [link, i, label | 2.5].
    let node = |d| Instr::Alloc {
        d,
        kind: AllocKind::Record,
        words: vec![14, 2, 6],
        flts: vec![1],
    };
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 1, imm: 0 }, // acc
                    Instr::LoadI { d: 2, imm: 0 }, // i
                    Instr::LoadI { d: 3, imm: n }, // limit
                    Instr::LoadF { d: 1, imm: 2.5 },
                    // Two sentinel nodes, so the loop can always follow
                    // the old head's link.
                    node(14),
                    node(14),
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "loop".into(),
                instrs: vec![
                    Instr::Branch {
                        op: BrOp::Lt,
                        a: 2,
                        b: 3,
                        target: 17,
                    },
                    Instr::LoadLabel { d: 6, label: 1 },
                    node(7),
                    Instr::FBox { d: 8, s: 1 },
                    // Load run from the old head, ending where its base
                    // is overwritten with its link.
                    Instr::Load {
                        d: 9,
                        base: 14,
                        off: 1,
                    },
                    Instr::Load {
                        d: 14,
                        base: 14,
                        off: 0,
                    },
                    // Load+Branch: the link's link, a pointer unless it
                    // is the first sentinel's.
                    Instr::Load {
                        d: 10,
                        base: 14,
                        off: 0,
                    },
                    Instr::Branch {
                        op: BrOp::Boxed,
                        a: 10,
                        b: 10,
                        target: 9,
                    },
                    Instr::Move { d: 40, s: 10 },
                    // Move run: the new head, then a shuffle.
                    Instr::Move { d: 14, s: 7 },
                    Instr::Move { d: 11, s: 9 },
                    Instr::Move { d: 41, s: 11 },
                    Instr::LoadI { d: 4, imm: 1 },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 2,
                        a: 2,
                        b: 4,
                    },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 1,
                        a: 1,
                        b: 41,
                    },
                    Instr::Move { d: 5, s: 1 },
                    Instr::Jump { label: 1 },
                    Instr::Halt { s: 1 },
                ],
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

/// Counts to `n`, running `body` each time round, and halts with the
/// count: r2 counts, r3 is the limit, r5 the step, and f1 holds 2.5
/// for `body`'s `FBox`es.
fn alloc_loop(n: i64, body: Vec<Instr>) -> MachineProgram {
    let exit = body.len() as u32 + 4;
    let mut instrs = vec![Instr::Branch {
        op: BrOp::Lt,
        a: 2,
        b: 3,
        target: exit,
    }];
    instrs.extend(body);
    instrs.extend([
        Instr::LoadI { d: 5, imm: 1 },
        Instr::Arith {
            op: AOp::Add,
            d: 2,
            a: 2,
            b: 5,
        },
        Instr::Jump { label: 1 },
        Instr::Halt { s: 2 },
    ]);
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 2, imm: 0 },
                    Instr::LoadI { d: 3, imm: n },
                    Instr::LoadF { d: 1, imm: 2.5 },
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "loop".into(),
                instrs,
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

/// A two-word record of the count into `d`: three words with its
/// descriptor.
fn pair(d: u8) -> Instr {
    Instr::Alloc {
        d,
        kind: AllocKind::Record,
        words: vec![2, 2],
        flts: vec![],
    }
}

/// Grows a list without bound, walking all of it after every cell
/// added: any heap quota ends it in `HeapExhausted`. Between the
/// slices of a major that yields, a walk overtakes the collector's scan
/// and its loads copy through the read barrier. r3 is the list, r10
/// the walk cursor.
fn grow_and_walk() -> MachineProgram {
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 2, imm: 0 },
                    Instr::LoadI { d: 3, imm: 0 },
                    Instr::LoadI { d: 5, imm: 1 },
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "grow".into(),
                instrs: vec![
                    Instr::Alloc {
                        d: 4,
                        kind: AllocKind::Record,
                        words: vec![2, 3],
                        flts: vec![],
                    },
                    Instr::Move { d: 3, s: 4 },
                    Instr::Arith {
                        op: AOp::Add,
                        d: 2,
                        a: 2,
                        b: 5,
                    },
                    Instr::Move { d: 10, s: 3 },
                    Instr::Jump { label: 2 },
                ],
            },
            CodeBlock {
                name: "walk".into(),
                instrs: vec![
                    Instr::Branch {
                        op: BrOp::Boxed,
                        a: 10,
                        b: 10,
                        target: 3,
                    },
                    Instr::Load {
                        d: 10,
                        base: 10,
                        off: 1,
                    },
                    Instr::Jump { label: 2 },
                    Instr::Jump { label: 1 },
                ],
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

/// Sliced majors that yield after every slice of one copied word, one
/// started or resumed at every allocation: an incremental major is
/// active nearly all the time, so `record_loop`'s segments meet one and
/// run on the synced path. Its loads then read
/// evacuated nodes before they are scanned, whose links still point
/// into from-space, and the read barrier copies.
fn active_major() -> VmConfig {
    VmConfig {
        gc_mode: GcMode::Semispace,
        tenured_words: 1 << 12,
        max_pause_cycles: 206,
        fault: FaultInject {
            yield_every_n_slices: Some(1),
            gc_every_n_allocs: Some(1),
            ..FaultInject::default()
        },
        ..VmConfig::default()
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
    let mut vm = VmInstance::new(&Executable::new(&p), &cfg(Dispatch::Threaded));
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
    // Sweep fuel limits across the whole run of each loop, so some
    // limit lands between every two constituents of every record of
    // several; the threaded engine must cut off at exactly the same
    // instruction.
    for (p, cfg) in [
        (sum_loop(4), VmConfig::default()),
        (record_loop(3), VmConfig::default()),
        (record_loop(3), active_major()),
    ] {
        let full = run(&p, &cfg);
        assert!(matches!(full.result, VmResult::Value(_)), "{full:?}");
        for fuel in 0..full.stats.cycles + 2 {
            both(
                &p,
                &VmConfig {
                    max_cycles: fuel,
                    ..cfg
                },
            );
        }
    }
}

#[test]
fn scheduler_runs_threaded_tenants_identically() {
    let p = Executable::new(&sum_loop(500));
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

/// The storm tenant of the `tenant-storm` benchmark workload: it
/// allocates a 20-cell list sixty times over, so under the storm heap
/// geometry ([`storm_heap`]) minor collections fall inside its slices.
const STORM_TENANT: &str = "
    fun build n = if n = 0 then [] else n :: build (n - 1)
    fun sum [] = 0 | sum (x :: r) = x + sum r
    fun churn 0 acc = acc
      | churn n acc = churn (n - 1) (acc + sum (build 20))
    val _ = print (itos (churn 60 0))
";

/// A float-arithmetic loop: long straight-line segments of float
/// records, each ending in a tail call.
const FLOAT_LOOP: &str = "
    fun lp (x : real, y : real, 0) = x + y
      | lp (x, y, n) = lp (x * 0.5 + y, sqrt (y * y + 1.0) - x / 3.0, n - 1)
    val _ = print (rtos (lp (1.0, 2.0, 300)))
";

/// The storm workload's per-tenant heap: a 256-word nursery promoting
/// after one minor.
fn storm_heap() -> VmConfig {
    VmConfig {
        nursery_words: 256,
        tenured_words: 2048,
        promote_after: 1,
        ..VmConfig::default()
    }
}

fn compiled(src: &str) -> MachineProgram {
    MachineProgram::clone(
        &smlc::Session::default()
            .compile(src)
            .expect("the test program compiles")
            .machine,
    )
}

/// Runs `p` under both engines in lockstep, `quantum` cycles a slice,
/// and asserts that after every slice — not just at the end — the two
/// agree on whether the run finished, on its output and on the whole
/// `RunStats`, class and collector counters included. An empty slice
/// in between must leave every counter alone, even inside a segment.
/// Returns the finished decode instance.
fn lockstep(p: &MachineProgram, base: &VmConfig, quantum: u64) -> VmInstance {
    let p = Executable::new(p);
    let engine = |dispatch| VmInstance::new(&p, &VmConfig { dispatch, ..*base });
    let (mut dec, mut thr) = (engine(Dispatch::Decode), engine(Dispatch::Threaded));
    for slice in 0.. {
        let before = dec.stats().cycles;
        let done = dec.run_slice(quantum);
        assert_eq!(
            thr.run_slice(quantum),
            done,
            "slice {slice} at quantum {quantum}: one engine finished early"
        );
        assert_eq!(
            dec.stats(),
            thr.stats(),
            "RunStats diverge after slice {slice} at quantum {quantum}"
        );
        assert_eq!(dec.output(), thr.output(), "slice {slice}");
        if done {
            break;
        }
        assert!(
            dec.stats().cycles > before,
            "no progress at quantum {quantum}"
        );
        let at = *thr.stats();
        assert!(!dec.run_slice(0) && !thr.run_slice(0));
        assert_eq!(*thr.stats(), at, "an empty slice moved a counter");
        assert_eq!(dec.stats(), thr.stats());
    }
    assert_eq!(dec.result(), thr.result());
    dec
}

/// Sweeping the quantum lands slice edges between every two
/// constituents of every record of several, and inside every segment
/// (a quantum of 1 alone ends a slice after every instruction); the
/// threaded engine must preempt there exactly as the decode loop does
/// and resume with the rest of the segment, and the counters it folds
/// from its segment hits at every slice exit must be the decode loop's.
/// The compiled inputs add collections inside slices (the storm tenant
/// under the storm heap) and long float segments.
#[test]
fn slices_split_superinstructions_exactly_like_decode() {
    let hand = [
        (sum_loop(20), VmConfig::default()),
        (record_loop(6), VmConfig::default()),
        (record_loop(6), active_major()),
    ];
    let programs = [
        (compiled(STORM_TENANT), storm_heap()),
        (compiled(FLOAT_LOOP), VmConfig::default()),
    ];
    let cases = hand
        .iter()
        .flat_map(|input| (1..=24).map(move |q| (input, q)))
        .chain(
            programs
                .iter()
                .flat_map(|input| [1, 2, 3, 7, 97, 2000].map(move |q| (input, q))),
        );
    for ((p, base), quantum) in cases {
        let dec = lockstep(p, base, quantum);
        assert!(
            matches!(dec.result(), Some(VmResult::Value(_))),
            "{:?}",
            dec.result()
        );
    }
    let storm = lockstep(&programs[0].0, &programs[0].1, 2000);
    assert_eq!(storm.output(), "12600");
    assert!(storm.stats().n_minor_gcs > 0, "{:?}", storm.stats());
}

/// What a segment runs into in [`segment_event`].
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A `Load` through a tagged integer.
    LoadNonPointer,
    /// An integer division by zero.
    DivByZero,
    /// A `JumpReg` through a record pointer.
    JumpRegNonLabel,
    /// A `Load` run whose third load reads past a two-word record.
    LoadRunPastObject,
    /// An `Alloc` that finds the nursery full.
    AllocCollects,
    /// An `Alloc` that fault injection fails.
    AllocFails,
}

/// Where [`segment_event`] puts the event in its segment.
#[derive(Clone, Copy, Debug)]
enum Place {
    First,
    Middle,
    Last,
}

/// A program whose block 1 holds one straight-line segment of several
/// records with `event` at `place` in it: a branch that is never taken
/// opens the block, so the segment starts after it, and its target ends
/// the segment (right after the event when it is last). The fillers
/// span four instruction classes. The entry block sets r1 = 7, r2 = 0,
/// r5 to a two-word record and f1 = 2.5, and makes three allocations in
/// all, filling a 9-word nursery exactly.
fn segment_event(event: Event, place: Place) -> MachineProgram {
    let pair = |d| Instr::Alloc {
        d,
        kind: AllocKind::Record,
        words: vec![1, 1],
        flts: vec![],
    };
    let fillers = |n: usize| {
        [
            Instr::LoadI { d: 20, imm: 3 },
            Instr::Arith {
                op: AOp::Add,
                d: 21,
                a: 20,
                b: 1,
            },
            Instr::FArith {
                op: FOp::Mul,
                d: 2,
                a: 1,
                b: 1,
            },
            Instr::Move { d: 22, s: 21 },
        ]
        .into_iter()
        .cycle()
        .take(n)
        .collect::<Vec<_>>()
    };
    let load = |d, off| Instr::Load { d, base: 5, off };
    let event = match event {
        Event::LoadNonPointer => vec![Instr::Load {
            d: 9,
            base: 1,
            off: 0,
        }],
        Event::DivByZero => vec![Instr::Arith {
            op: AOp::Div,
            d: 9,
            a: 1,
            b: 2,
        }],
        Event::JumpRegNonLabel => vec![Instr::JumpReg { r: 5 }],
        Event::LoadRunPastObject => vec![load(6, 0), load(7, 1), load(8, 2)],
        Event::AllocCollects | Event::AllocFails => vec![pair(10)],
    };
    let (pre, post) = match place {
        Place::First => (fillers(0), fillers(3)),
        Place::Middle => (fillers(2), fillers(3)),
        Place::Last => (fillers(3), fillers(2)),
    };
    let event_end = 1 + pre.len() + event.len();
    let halt = event_end + post.len();
    let cut = match place {
        Place::Last => event_end,
        Place::First | Place::Middle => halt,
    };
    let mut body = vec![Instr::Branch {
        op: BrOp::Eq,
        a: 0,
        b: 0,
        target: cut as u32,
    }];
    body.extend(pre);
    body.extend(event);
    body.extend(post);
    body.push(Instr::Halt { s: 1 });
    MachineProgram {
        blocks: vec![
            CodeBlock {
                name: "entry".into(),
                instrs: vec![
                    Instr::LoadI { d: 1, imm: 7 },
                    Instr::LoadI { d: 2, imm: 0 },
                    pair(5),
                    pair(11),
                    pair(12),
                    Instr::LoadF { d: 1, imm: 2.5 },
                    Instr::Jump { label: 1 },
                ],
            },
            CodeBlock {
                name: "segment".into(),
                instrs: body,
            },
        ],
        entry: 0,
        pool: Vec::new(),
    }
}

/// Every way a record can stop its segment's fast path — a trap, or a
/// fast path that does not apply — first, in the middle and last of a
/// segment of several records: the threaded engine refunds the rest of
/// the segment and must end, or finish on the synced path, with exactly
/// the decode loop's result, output and `RunStats`, run whole and
/// sliced.
#[test]
fn traps_and_bails_inside_a_segment_match_decode() {
    use Event::*;
    let full_nursery = VmConfig {
        nursery_words: 9,
        ..VmConfig::default()
    };
    let fail_fourth = VmConfig {
        fault: FaultInject {
            fail_alloc_at: Some(4),
            ..FaultInject::default()
        },
        ..VmConfig::default()
    };
    let table = [
        (
            LoadNonPointer,
            VmConfig::default(),
            "memory access through non-pointer",
        ),
        (DivByZero, VmConfig::default(), "integer division by zero"),
        (
            JumpRegNonLabel,
            VmConfig::default(),
            "jump through non-label",
        ),
        (
            LoadRunPastObject,
            VmConfig::default(),
            "access to words [2, 3)",
        ),
        (AllocCollects, full_nursery, ""),
        (AllocFails, fail_fourth, ""),
    ];
    for (event, cfg, fault) in table {
        for place in [Place::First, Place::Middle, Place::Last] {
            let p = segment_event(event, place);
            verify_threaded(&p).expect("well-formed stream");
            let o = both(&p, &cfg);
            let what = format!("{event:?} {place:?}: {:?}", o.result);
            match event {
                AllocCollects => {
                    assert_eq!(o.result, VmResult::Value(7), "{what}");
                    assert_eq!(o.stats.n_minor_gcs, 1, "{what}");
                }
                AllocFails => assert_eq!(o.result, VmResult::HeapExhausted, "{what}"),
                _ => {
                    let VmResult::Fault(msg) = &o.result else {
                        panic!("{what}");
                    };
                    assert!(msg.starts_with(fault), "{what}");
                }
            }
            for quantum in [1, 2, 5] {
                lockstep(&p, &cfg, quantum);
            }
        }
    }
}

#[test]
fn verify_threaded_accepts_and_counts_fusion() {
    // The sum loop fuses two pairs; the record loop has a `Load` run, a
    // `Move` run and three pairs.
    for (p, fused) in [(sum_loop(10), 2), (record_loop(3), 5)] {
        let sum = verify_threaded(&p).expect("well-formed stream");
        assert_eq!(sum.superinstructions, fused, "{sum:?}");
        assert!(sum.tinstrs > 0);
        // And matches what the engine actually pre-decodes.
        let vm = VmInstance::new(&Executable::new(&p), &cfg(Dispatch::Threaded));
        assert_eq!(vm.dispatch_stats().superinstructions, sum.superinstructions);
        assert_eq!(vm.dispatch_stats().stream_len, sum.tinstrs);
    }
}

#[test]
fn load_run_past_its_object_faults_like_decode() {
    // The third load of the run reads past the two-word record: one
    // bounds check cannot cover the run, so it falls back and faults
    // at that load, with decode's text and counters.
    let p = prog(vec![
        Instr::LoadI { d: 1, imm: 7 },
        Instr::Alloc {
            d: 5,
            kind: AllocKind::Record,
            words: vec![1, 1],
            flts: vec![],
        },
        Instr::Load {
            d: 6,
            base: 5,
            off: 0,
        },
        Instr::Load {
            d: 7,
            base: 5,
            off: 1,
        },
        Instr::Load {
            d: 8,
            base: 5,
            off: 2,
        },
        Instr::Halt { s: 6 },
    ]);
    let sum = verify_threaded(&p).expect("well-formed stream");
    assert_eq!(sum.superinstructions, 1, "the three loads form one run");
    let o = both(&p, &VmConfig::default());
    let VmResult::Fault(msg) = &o.result else {
        panic!("expected a fault, got {:?}", o.result);
    };
    assert!(
        msg.starts_with("access to words [2, 3) outside object of 2 body words"),
        "{msg}"
    );
    assert_eq!(o.stats.instrs, 5, "the fault comes at the third load");
}

#[test]
fn allocation_records_match_decode_under_fault_injection_and_active_majors() {
    let p = record_loop(40);
    let want = VmResult::Value(39 * 38 / 2);
    for k in [1, 2, 3, 8, 80] {
        let o = both(
            &p,
            &VmConfig {
                fault: FaultInject {
                    fail_alloc_at: Some(k),
                    ..FaultInject::default()
                },
                ..VmConfig::default()
            },
        );
        assert_eq!(o.result, VmResult::HeapExhausted, "fail_alloc_at {k}");
    }
    for k in [1, 2, 3] {
        let o = both(
            &p,
            &VmConfig {
                nursery_words: 64,
                fault: FaultInject {
                    gc_every_n_allocs: Some(k),
                    ..FaultInject::default()
                },
                ..VmConfig::default()
            },
        );
        assert_eq!(o.result, want, "gc_every_n_allocs {k}");
        assert!(o.stats.n_gcs >= 80 / k, "{:?}", o.stats);
    }
    let o = both(&p, &active_major());
    assert_eq!(o.result, want);
    assert!(o.stats.major_slices > o.stats.n_major_gcs, "{:?}", o.stats);
    assert!(o.stats.barrier_words > 0, "{:?}", o.stats);

    // The edges of the threaded engine's one-compare nursery
    // allocation: wherever plain nursery allocation stops applying, the
    // `Alloc` and `FBox` records must fall back to the allocation
    // protocol at exactly the allocation the decode loop collects,
    // pre-tenures or traps at.
    let nursery = |words| VmConfig {
        nursery_words: words,
        ..VmConfig::default()
    };
    // A pair that is garbage at once: ten exactly fill a 30-word
    // nursery, and the eleventh collects an empty one.
    let o = both(
        &alloc_loop(40, vec![pair(4), Instr::LoadI { d: 4, imm: 0 }]),
        &nursery(30),
    );
    assert_eq!(o.result, VmResult::Value(40));
    assert_eq!(o.stats.n_minor_gcs, 3, "{:?}", o.stats);
    assert_eq!(o.stats.gc_copied_words, 0, "{:?}", o.stats);

    // An `Alloc` wider than the nursery goes straight to tenured space
    // with a nursery pointer in each field; those slots keep the young
    // pair alive, and up to date, through the minors that follow.
    let wide = alloc_loop(
        30,
        vec![
            pair(4),
            Instr::Alloc {
                d: 6,
                kind: AllocKind::Record,
                words: vec![4; 40],
                flts: vec![1],
            },
            Instr::LoadI { d: 4, imm: 0 },
            pair(7),
            pair(7),
            Instr::Load {
                d: 8,
                base: 6,
                off: 39,
            },
            Instr::Load {
                d: 9,
                base: 8,
                off: 1,
            },
            Instr::Branch {
                op: BrOp::Eq,
                a: 9,
                b: 2,
                target: 100,
            },
        ],
    );
    let o = both(&wide, &nursery(30));
    assert_eq!(o.result, VmResult::Value(30));
    assert!(o.stats.n_minor_gcs > 10, "{:?}", o.stats);
    assert!(o.stats.remembered_peak >= 40, "{:?}", o.stats);

    // An `FBox` that exactly fills the nursery (30 words: five rounds
    // of a pair and a box), and one that must collect because a pair
    // filled it (33 words), around every size in between.
    let boxes = alloc_loop(
        40,
        vec![
            pair(4),
            Instr::FBox { d: 6, s: 1 },
            Instr::LoadI { d: 4, imm: 0 },
            Instr::LoadI { d: 6, imm: 0 },
        ],
    );
    for words in 29..=34 {
        let o = both(&boxes, &nursery(words));
        assert_eq!(o.result, VmResult::Value(40), "nursery {words}");
        assert!(o.stats.n_minor_gcs > 0, "nursery {words}: {:?}", o.stats);
    }

    // Semispace mode (no nursery: every allocation takes the
    // protocol) and a nursery clamped by a pause budget:
    // (270 - 150) / 4 = 30 words whatever `nursery_words` says.
    for cfg in [
        VmConfig {
            gc_mode: GcMode::Semispace,
            nursery_words: 64,
            ..VmConfig::default()
        },
        VmConfig {
            max_pause_cycles: 270,
            ..VmConfig::default()
        },
    ] {
        let o = both(&p, &cfg);
        assert_eq!(o.result, want, "{cfg:?}");
        assert!(o.stats.n_gcs > 0, "{cfg:?}: {:?}", o.stats);
        let o = both(&boxes, &cfg);
        assert_eq!(o.result, VmResult::Value(40), "{cfg:?}");
    }
    let vm = VmInstance::new(
        &Executable::new(&p),
        &VmConfig {
            max_pause_cycles: 270,
            ..VmConfig::default()
        },
    );
    assert_eq!(vm.heap().nursery_capacity(), 30);

    // Allocation on an exhausted heap: a live set that outgrows a small
    // tenured space, collected stop-the-world and in slices that yield
    // to the mutator between them.
    let small = VmConfig {
        nursery_words: 64,
        tenured_words: 512,
        promote_after: 1,
        ..VmConfig::default()
    };
    let sliced = VmConfig {
        max_pause_cycles: 400,
        fault: FaultInject {
            yield_every_n_slices: Some(1),
            ..FaultInject::default()
        },
        ..small
    };
    for cfg in [small, sliced] {
        let o = both(&grow_and_walk(), &cfg);
        assert_eq!(o.result, VmResult::HeapExhausted, "{cfg:?}");
        assert!(o.stats.n_major_gcs > 0, "{cfg:?}: {:?}", o.stats);
    }
    // Sliced, the read barrier is what overflows the to-space: the heap
    // is exhausted while the mutator still runs, and its next
    // allocation is the one that traps.
    let p = grow_and_walk();
    let mut vm = VmInstance::new(&Executable::new(&p), &sliced);
    let mut exhausted_while_running = false;
    while !vm.run_slice(1) {
        exhausted_while_running |= vm.heap().is_exhausted();
    }
    assert!(exhausted_while_running);
    assert!(vm.stats().barrier_words > 0);
    vm.heap()
        .check_consistency()
        .expect("an exhausted heap stays well-formed");
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
