//! Release-profile gates over the figure benchmarks and seeded
//! generated corpora, one module per guarantee: the artifact cache and
//! the collectors are outcome-invisible, no GC pause exceeds its budget,
//! the two dispatch engines agree to the last counter, the
//! scheduler keeps tenants solo-identical, EDF meeting every deadline
//! on a feasible load, and the paper's §4.5 hash-consing ablation runs
//! to its largest row.
//!
//! Every assertion is on a deterministic quantity (outputs, outcomes,
//! counters), never on wall time. Unoptimized, the figure programs run
//! for minutes, so the gates are ignored in the dev profile; run them
//! with
//!
//! ```sh
//! cargo test --release -p smlc-bench --test gates
//! ```
//!
//! A test that checks many programs collects every failure and reports
//! them all at the end.

/// Fails with every collected failure, one per line.
fn report(failures: &[String]) {
    assert!(
        failures.is_empty(),
        "{} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The session artifact cache on the full 12×6 matrix: a cache-disabled
/// session, then one caching session twice (the cold pass misses every
/// cell, the warm pass must hit every cell), all compared with the
/// single-threaded serial reference.
mod cache {
    use smlc::{Session, Variant};
    use smlc_bench::{
        benchmarks, degraded_cells, matrix_session, run_matrix_in, run_matrix_serial_of, BenchCell,
    };

    /// Asserts two matrices agree on every deterministic per-cell field.
    /// Wall-clock fields (phase spans, compile time) are excluded: they
    /// are the only fields allowed to differ between configurations.
    fn assert_identical(label: &str, a: &[Vec<BenchCell>], b: &[Vec<BenchCell>]) {
        assert_eq!(a.len(), b.len(), "{label}: row counts differ");
        for (ra, rb) in a.iter().zip(b) {
            for (ca, cb) in ra.iter().zip(rb) {
                let clean = |c: &BenchCell| {
                    c.ok()
                        .unwrap_or_else(|| {
                            panic!("{label}: {} under {} degraded", c.name(), c.variant())
                        })
                        .clone()
                };
                let (x, y) = (clean(ca), clean(cb));
                let cell = format!("{label}: {} under {}", x.name, x.variant);
                assert_eq!(x.variant, y.variant, "{cell}: variant order");
                assert_eq!(x.outcome.output, y.outcome.output, "{cell}: output");
                assert_eq!(
                    x.outcome.stats.cycles, y.outcome.stats.cycles,
                    "{cell}: cycles"
                );
                assert_eq!(
                    x.outcome.stats.alloc_words, y.outcome.stats.alloc_words,
                    "{cell}: alloc"
                );
                assert_eq!(
                    x.outcome.stats.cycles_by_class, y.outcome.stats.cycles_by_class,
                    "{cell}: cycle classes"
                );
                assert_eq!(
                    x.compile.code_size, y.compile.code_size,
                    "{cell}: code size"
                );
                assert_eq!(x.compile.lty, y.compile.lty, "{cell}: lty counters");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs the figure matrix; release only")]
    fn warm_pass_hits_every_cell_and_no_outcome_moves() {
        let benches = benchmarks();
        let n_cells = (benches.len() * Variant::ALL.len()) as u64;

        let serial = run_matrix_serial_of(&benches);
        assert!(
            degraded_cells(&serial).is_empty(),
            "reference matrix must be fully clean"
        );

        let off_session = Session::builder()
            .cache(false)
            .build()
            .expect("cache-off session configuration is valid");
        let off = run_matrix_in(&off_session, &benches);

        let session = matrix_session();
        let cold = run_matrix_in(&session, &benches);
        let after_cold = session.cache_stats();
        let warm = run_matrix_in(&session, &benches);
        let after_warm = session.cache_stats();

        // Cache accounting: the cold pass misses and stores every cell,
        // the warm pass is served entirely from the cache.
        assert_eq!(after_cold.hits, 0, "cold pass must not hit");
        assert_eq!(after_cold.misses, n_cells, "cold pass misses every cell");
        assert_eq!(
            after_cold.insertions, n_cells,
            "cold pass stores every cell"
        );
        assert_eq!(after_cold.evictions, 0, "capacity must hold the full grid");
        let warm_hits = after_warm.hits - after_cold.hits;
        let warm_misses = after_warm.misses - after_cold.misses;
        assert_eq!(warm_hits, n_cells, "warm pass must hit every cell");
        assert_eq!(warm_misses, 0, "warm pass must not recompile");

        // Outcome invariance: cache-off, cold, and warm all identical
        // (on deterministic fields) to the serial cold reference.
        assert_identical("cache-off vs serial", &off, &serial);
        assert_identical("cold vs serial", &cold, &serial);
        assert_identical("warm vs serial", &warm, &serial);
    }
}

/// The generational collector against the semispace baseline: each
/// benchmark is compiled once under `sml.ffb` and run under the
/// baseline and under the generational collector at three nursery
/// sizes.
mod gc {
    use smlc::{GcMode, Session, Variant, VmConfig, VmResult};
    use smlc_bench::benchmarks;

    /// The three nursery sizes swept (words per half). The middle entry
    /// is `VmConfig::default().nursery_words`.
    const NURSERY_SWEEP: [usize; 3] = [16 << 10, 64 << 10, 256 << 10];

    /// The nursery size whose totals gate the copied-words check.
    const DEFAULT_NURSERY: usize = 64 << 10;

    /// Every configuration must produce the identical result and output,
    /// and the generational default must copy fewer words than the
    /// baseline over the benchmarks where the baseline collects at all:
    /// long-lived data is re-copied by every semispace collection but
    /// settles into tenured space under the generational scheme.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs the figure programs; release only")]
    fn generational_matches_semispace_and_copies_less() {
        let variant = Variant::Ffb;
        let base_cfg = variant.vm_config();
        let semispace = VmConfig {
            gc_mode: GcMode::Semispace,
            ..base_cfg
        };
        let session = Session::with_variant(variant);
        // Totals over benchmarks where the baseline actually collects.
        let mut base_copied_total: u64 = 0;
        let mut gen_copied_total: u64 = 0;
        let mut gating_benchmarks = 0usize;

        for b in benchmarks() {
            let compiled = session
                .compile(&b.source())
                .unwrap_or_else(|e| panic!("{} failed to compile under {variant}: {e}", b.name));
            let base = compiled.run_with(&semispace);
            assert!(
                matches!(base.result, VmResult::Value(_)),
                "{} ended abnormally under the semispace baseline: {:?}",
                b.name,
                base.result
            );
            for nursery in NURSERY_SWEEP {
                let gen = compiled.run_with(&VmConfig {
                    gc_mode: GcMode::Generational,
                    nursery_words: nursery,
                    ..base_cfg
                });
                assert_eq!(
                    gen.result, base.result,
                    "{} @ nursery {nursery}: result diverges from the semispace baseline",
                    b.name
                );
                assert_eq!(
                    gen.output, base.output,
                    "{} @ nursery {nursery}: output diverges from the semispace baseline",
                    b.name
                );
                if nursery == DEFAULT_NURSERY && base.stats.n_gcs > 0 {
                    base_copied_total += base.stats.gc_copied_words;
                    gen_copied_total += gen.stats.gc_copied_words;
                    gating_benchmarks += 1;
                }
            }
        }

        assert!(
            gating_benchmarks == 0 || gen_copied_total < base_copied_total,
            "generational collector copied {gen_copied_total} words, \
             semispace baseline {base_copied_total}"
        );
    }
}

/// The bounded-pause incremental major collector and the tenant heap
/// quota. Programs run three ways on a shrunken generational geometry
/// that forces real major collections: stop-the-world (the
/// differential baseline), incremental under a pause budget, and the
/// semispace baseline.
mod pause {
    use sml_testkit::progen::{gen_program, GenConfig};
    use sml_testkit::Rng;
    use smlc::{
        Compiled, GcMode, Outcome, RunStats, SchedulerBuilder, Session, TenantOutcome, TenantSpec,
        Variant, VmConfig, VmResult,
    };
    use smlc_bench::benchmarks;

    use super::report;

    /// Seed salt: disjoint from both the unit tests' corpus and the
    /// seeded batch sweep's (`crates/core/tests/fuzz_programs.rs`).
    const SALT: u64 = 0x5eed_f00d_cafe_0007;

    /// Generated programs in the differential corpus.
    const SEEDS: u64 = 200;

    /// Nursery for the major-forcing geometry (words per half).
    const NURSERY: usize = 384;

    /// Tenured semispace for the major-forcing geometry. Small enough
    /// that promotion traffic forces repeated majors on the figure
    /// benchmarks, large enough to hold every benchmark's live set.
    const TENURED: usize = 8 << 10;

    /// The pause budget under test, in cycles. Chosen so the nursery
    /// clamp is inert (`4 * NURSERY + 150 <= BUDGET`) — minor-collection
    /// scheduling is then identical to the stop-the-world baseline and
    /// the promoted-words comparison is exact.
    const BUDGET: u64 = 2048;

    /// Shrunken geometry shared by the stop-the-world and budgeted runs.
    fn small(base: &VmConfig, budget: u64) -> VmConfig {
        VmConfig {
            nursery_words: NURSERY,
            tenured_words: TENURED,
            promote_after: 1,
            max_pause_cycles: budget,
            ..*base
        }
    }

    /// The worst pause of either class in one run.
    fn worst_pause(s: &RunStats) -> u64 {
        s.max_minor_pause.max(s.max_major_pause)
    }

    /// Runs `compiled` stop-the-world, under the budget and under the
    /// semispace baseline.
    fn run_three_ways(compiled: &Compiled, base: &VmConfig) -> [Outcome; 3] {
        [
            compiled.run_with(&small(base, 0)),
            compiled.run_with(&small(base, BUDGET)),
            compiled.run_with(&VmConfig {
                gc_mode: GcMode::Semispace,
                ..*base
            }),
        ]
    }

    /// Checks one stop-the-world / budgeted / semispace triple: outputs
    /// identical, promotion traffic identical, and every recorded pause
    /// within the budget. Pushes any violation into `failures` keyed by
    /// `what`.
    fn check_triple(what: &str, [stw, incr, semi]: &[Outcome; 3], failures: &mut Vec<String>) {
        if !matches!(stw.result, VmResult::Value(_) | VmResult::Uncaught(_)) {
            failures.push(format!("{what}: abnormal baseline result {:?}", stw.result));
            return;
        }
        if incr.result != stw.result || incr.output != stw.output {
            failures.push(format!("{what}: budgeted run diverges from stop-the-world"));
        }
        if semi.result != stw.result || semi.output != stw.output {
            failures.push(format!(
                "{what}: semispace run diverges from stop-the-world"
            ));
        }
        if incr.stats.promoted_words != stw.stats.promoted_words {
            failures.push(format!(
                "{what}: promoted_words {} (budgeted) != {} (stop-the-world)",
                incr.stats.promoted_words, stw.stats.promoted_words
            ));
        }
        if incr.stats.pause_overruns != 0 {
            failures.push(format!(
                "{what}: {} pause(s) above the {BUDGET}-cycle budget",
                incr.stats.pause_overruns
            ));
        }
        if worst_pause(&incr.stats) > BUDGET {
            failures.push(format!(
                "{what}: worst pause {} exceeds budget {BUDGET}",
                worst_pause(&incr.stats)
            ));
        }
    }

    /// The figure benchmarks under `sml.ffb`. Besides each triple, the
    /// geometry must force at least one major collection and the
    /// stop-the-world worst pause must exceed the budget, or the slicer
    /// is not exercised.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs the figure programs; release only")]
    fn figure_benchmarks_fit_the_pause_budget() {
        let variant = Variant::Ffb;
        let base = variant.vm_config();
        let session = Session::with_variant(variant);
        let mut failures: Vec<String> = Vec::new();
        let mut total_majors = 0u64;
        let mut worst_before = 0u64;
        for b in benchmarks() {
            let compiled = session
                .compile(&b.source())
                .unwrap_or_else(|e| panic!("{} failed to compile under {variant}: {e}", b.name));
            let runs = run_three_ways(&compiled, &base);
            check_triple(b.name, &runs, &mut failures);
            total_majors += runs[0].stats.n_major_gcs;
            worst_before = worst_before.max(worst_pause(&runs[0].stats));
        }
        if total_majors == 0 {
            failures.push(format!(
                "geometry too generous: no benchmark forced a major collection \
                 (nursery {NURSERY}, tenured {TENURED})"
            ));
        }
        if worst_before <= BUDGET {
            failures.push(format!(
                "stop-the-world worst pause {worst_before} already fits the budget \
                 {BUDGET}; the benchmark is not exercising the slicer"
            ));
        }
        report(&failures);
    }

    /// The same three-way comparison over a seeded generated corpus.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "200-program corpus; release only")]
    fn generated_programs_fit_the_pause_budget() {
        let variant = Variant::Ffb;
        let base = variant.vm_config();
        let session = Session::with_variant(variant);
        let gen_cfg = GenConfig {
            items: 3,
            ..GenConfig::default()
        };
        let mut failures: Vec<String> = Vec::new();
        for seed in 0..SEEDS {
            let src = gen_program(&mut Rng::new(seed ^ SALT), &gen_cfg);
            match session.compile(&src) {
                Ok(compiled) => check_triple(
                    &format!("seed {seed}"),
                    &run_three_ways(&compiled, &base),
                    &mut failures,
                ),
                Err(e) => failures.push(format!("seed {seed}: compile failed: {e}")),
            }
        }
        report(&failures);
    }

    /// Sixteen tenants co-scheduled round-robin under the pause budget,
    /// one of them hostile: it retains everything it allocates, so its
    /// starved heap quota must trap. The good tenants churn with a
    /// bounded live set and must finish with their solo results.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only gate")]
    fn hostile_tenant_exhausts_only_its_own_quota() {
        const STORM_TENANTS: usize = 16;
        const HOSTILE_SLOT: usize = 7;
        let good_src = "
            fun build n = if n = 0 then [] else n :: build (n - 1)
            fun sum [] = 0 | sum (x :: r) = x + sum r
            fun churn 0 acc = acc
              | churn n acc = churn (n - 1) (acc + sum (build 40))
            val _ = print (itos (churn 200 0))
        ";
        let hostile_src = "
            fun grow l = grow (1 :: l)
            val _ = grow []
        ";
        let variant = Variant::Ffb;
        let base = variant.vm_config();
        let session = Session::with_variant(variant);
        let good = session
            .compile(good_src)
            .unwrap_or_else(|e| panic!("storm tenant failed to compile: {e}"));
        let hostile = session
            .compile(hostile_src)
            .unwrap_or_else(|e| panic!("hostile tenant failed to compile: {e}"));
        let good_cfg = small(&base, BUDGET);
        let hostile_cfg = VmConfig {
            tenured_words: 4096,
            ..small(&base, BUDGET)
        };
        let solo = good.run_with(&good_cfg);
        let mut sched = SchedulerBuilder::new()
            .quantum(10_000)
            .build()
            .expect("default storm scheduler validates");
        let good_prog = good.machine.clone();
        let hostile_prog = hostile.machine.clone();
        for slot in 0..STORM_TENANTS {
            let spec = if slot == HOSTILE_SLOT {
                TenantSpec::new(hostile_prog.clone(), &hostile_cfg)
            } else {
                TenantSpec::new(good_prog.clone(), &good_cfg)
            };
            sched
                .admit(spec)
                .expect("uncapped storm admits all tenants");
        }
        let (reports, _) = sched.run_all();
        let mut failures: Vec<String> = Vec::new();
        for (slot, r) in reports.iter().enumerate() {
            if slot == HOSTILE_SLOT {
                if r.outcome != TenantOutcome::HeapExhausted {
                    failures.push(format!(
                        "storm: hostile tenant ended {:?}, expected HeapExhausted",
                        r.outcome
                    ));
                }
            } else if r.outcome != TenantOutcome::Done
                || r.result != solo.result
                || r.output != solo.output
            {
                failures.push(format!(
                    "storm: tenant {slot} degraded alongside the hostile tenant \
                     ({:?}, result {:?})",
                    r.outcome, r.result
                ));
            }
        }
        report(&failures);
    }
}

/// The pre-decoded threaded engine against the decode loop: result,
/// output and the complete `RunStats` (cycles, instruction counts, GC
/// counters, the by-class breakdowns) must be identical.
mod dispatch {
    use sml_testkit::progen::{gen_program, GenConfig};
    use sml_testkit::Rng;
    use smlc::{Compiled, Dispatch, Session, Variant, VmConfig};
    use smlc_bench::benchmarks;

    use super::report;

    /// Seed salt: disjoint from the unit tests' corpus and the other
    /// gates'.
    const SALT: u64 = 0x5eed_f00d_cafe_0009;

    /// Generated programs in the differential corpus.
    const SEEDS: u64 = 200;

    /// Runs `c` under both engines and pushes a failure message for every
    /// observable divergence between the two outcomes.
    fn check_engines(what: &str, c: &Compiled, v: Variant, failures: &mut Vec<String>) {
        let base = v.vm_config();
        let dec = c.run_with(&VmConfig {
            dispatch: Dispatch::Decode,
            ..base
        });
        let thr = c.run_with(&VmConfig {
            dispatch: Dispatch::Threaded,
            ..base
        });
        // A pair that ran one engine twice would pass vacuously.
        if (dec.dispatch.engine, thr.dispatch.engine) != (Dispatch::Decode, Dispatch::Threaded) {
            failures.push(format!(
                "{what}: expected a decode/threaded pair, ran {}/{}",
                dec.dispatch.engine.name(),
                thr.dispatch.engine.name()
            ));
        }
        if thr.result != dec.result {
            failures.push(format!(
                "{what}: results diverge (decode {:?}, threaded {:?})",
                dec.result, thr.result
            ));
        }
        if thr.output != dec.output {
            failures.push(format!("{what}: output diverges between engines"));
        }
        if thr.stats != dec.stats {
            failures.push(format!(
                "{what}: RunStats diverge (decode cycles {}, threaded cycles {})",
                dec.stats.cycles, thr.stats.cycles
            ));
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "runs the figure matrix; release only")]
    fn figure_matrix_is_engine_invariant() {
        let mut failures: Vec<String> = Vec::new();
        for b in benchmarks() {
            for v in Variant::ALL {
                let compiled = Session::with_variant(v)
                    .compile(&b.source())
                    .unwrap_or_else(|e| panic!("{} failed to compile under {v}: {e}", b.name));
                check_engines(
                    &format!("{}/{}", b.name, v.name()),
                    &compiled,
                    v,
                    &mut failures,
                );
            }
        }
        report(&failures);
    }

    /// Closure-heavy, exception-raising, GC-provoking programs the
    /// hand-picked figure set does not cover, under all six variants.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "200-program corpus; release only")]
    fn generated_programs_are_engine_invariant() {
        let gen_cfg = GenConfig::default();
        let mut failures: Vec<String> = Vec::new();
        for seed in 0..SEEDS {
            let src = gen_program(&mut Rng::new(seed ^ SALT), &gen_cfg);
            for v in Variant::ALL {
                match Session::with_variant(v).compile(&src) {
                    Ok(c) => {
                        check_engines(&format!("seed {seed} [{}]", v.name()), &c, v, &mut failures)
                    }
                    Err(e) => {
                        failures.push(format!("seed {seed} [{}]: compile failed: {e}", v.name()))
                    }
                }
            }
        }
        report(&failures);
    }
}

/// The policy-driven scheduler at thousand-tenant scale.
mod sched {
    use smlc::fxhash::hash_bytes;
    use smlc::{
        AdmissionError, Executable, Outcome, SchedPolicy, SchedStats, SchedulerBuilder, Session,
        TenantOutcome, TenantReport, TenantSpec, Variant, VmConfig, VmScheduler,
    };

    use super::report;

    /// Bounded-churn tenant: allocates freely, retains only a 20-cell
    /// list.
    const GOOD_SRC: &str = "
        fun build n = if n = 0 then [] else n :: build (n - 1)
        fun sum [] = 0 | sum (x :: r) = x + sum r
        fun churn 0 acc = acc
          | churn n acc = churn (n - 1) (acc + sum (build 20))
        val _ = print (itos (churn 60 0))
    ";

    /// Hostile tenant: unbounded live-list growth, must exhaust any
    /// quota.
    const HOSTILE_SRC: &str = "
        fun grow l = grow (1 :: l)
        val _ = grow []
    ";

    /// Tenants in the storm.
    const STORM_TENANTS: usize = 1000;
    /// Nursery halves for the per-tenant storm geometry (words).
    const NURSERY: usize = 256;
    /// Tenured space for well-behaved tenants — holds the 20-cell live
    /// set.
    const TENURED: usize = 2048;
    /// Starved quota for hostile tenants.
    const HOSTILE_TENURED: usize = 4096;
    /// Every `HOSTILE_STRIDE`-th storm slot is hostile.
    const HOSTILE_STRIDE: usize = 97;
    /// Scheduler quantum for every stage, in cycles.
    const QUANTUM: u64 = 2_000;
    /// Deadline-tagged tenants in the curve stage.
    const DEADLINE_COHORT: usize = 20;
    /// Background tenant counts swept by the curve stage.
    const LOADS: [usize; 4] = [0, 25, 100, 200];

    /// Deadline misses of the curve stage, one row per entry of
    /// [`LOADS`], one column per entry of [`POLICIES`]. Misses are
    /// judged on the machine's cycle clock, so they are exact.
    const CURVE_MISSED: [[u64; 3]; 4] = [[0, 0, 0], [0, 0, 0], [20, 0, 0], [20, 0, 0]];

    const POLICIES: [SchedPolicy; 3] = [
        SchedPolicy::RoundRobin,
        SchedPolicy::Priority,
        SchedPolicy::Deadline,
    ];

    fn small(base: &VmConfig, tenured: usize) -> VmConfig {
        VmConfig {
            nursery_words: NURSERY,
            tenured_words: tenured,
            promote_after: 1,
            ..*base
        }
    }

    fn build_sched(policy: SchedPolicy) -> VmScheduler {
        SchedulerBuilder::new()
            .quantum(QUANTUM)
            .policy(policy)
            .build()
            .expect("nonzero knobs always validate")
    }

    /// The two tenant programs under `sml.ffb`, their configurations,
    /// and the good tenant's solo run.
    struct Tenants {
        good: Executable,
        hostile: Executable,
        good_cfg: VmConfig,
        hostile_cfg: VmConfig,
        solo: Outcome,
    }

    fn tenants() -> Tenants {
        let variant = Variant::Ffb;
        let base = variant.vm_config();
        let session = Session::with_variant(variant);
        let compile = |what: &str, src: &str| {
            session
                .compile(src)
                .unwrap_or_else(|e| panic!("{what} failed to compile under {variant}: {e}"))
        };
        let good = compile("storm tenant", GOOD_SRC);
        let hostile = compile("hostile tenant", HOSTILE_SRC);
        let good_cfg = small(&base, TENURED);
        Tenants {
            solo: good.run_with(&good_cfg),
            good: good.machine,
            hostile: hostile.machine,
            good_cfg,
            hostile_cfg: small(&base, HOSTILE_TENURED),
        }
    }

    /// Checks one tenant report against its solo run; pushes any
    /// observable divergence into `failures` keyed by `what`.
    fn check_solo_identical(
        what: &str,
        r: &TenantReport,
        solo: &Outcome,
        failures: &mut Vec<String>,
    ) {
        if r.outcome != TenantOutcome::Done {
            failures.push(format!("{what}: ended {:?}, expected Done", r.outcome));
            return;
        }
        if r.result != solo.result || r.output != solo.output {
            failures.push(format!("{what}: result/output diverge from the solo run"));
        }
        if r.stats != solo.stats {
            failures.push(format!(
                "{what}: RunStats diverge from solo ({} vs {} cycles)",
                r.stats.cycles, solo.stats.cycles
            ));
        }
    }

    /// A digest of every tenant's place in a schedule: its outcome,
    /// slice count, first slice and largest overshoot, in admission
    /// order.
    fn schedule_digest(reports: &[TenantReport]) -> u64 {
        let text: String = reports
            .iter()
            .map(|r| {
                format!(
                    "{:?} {} {:?} {}\n",
                    r.outcome, r.slices, r.first_slice, r.max_overshoot
                )
            })
            .collect();
        hash_bytes(text.as_bytes())
    }

    /// The storm's schedule under `policy`: its full [`SchedStats`] and
    /// the [`schedule_digest`] of its reports. The schedule is a pure
    /// function of the tenant set, the policy and the quantum, so how
    /// `run_all` executes it (on how many threads, in what host order)
    /// must leave both alone. A change meant to alter the schedule
    /// updates these numbers. Every policy hands out the same slices;
    /// only their order, and so the digest, differs.
    fn expected_storm(policy: SchedPolicy) -> (SchedStats, u64) {
        let digest = match policy {
            SchedPolicy::RoundRobin => 0x6553_3e5e_0ac7_0d4b,
            SchedPolicy::Priority => 0x100d_957a_8d23_5b40,
            SchedPolicy::Deadline => 0x2a17_fffb_4c1b_31e6,
        };
        let stats = SchedStats {
            policy,
            quantum: QUANTUM,
            tenants: STORM_TENANTS as u64,
            rejected: 0,
            rounds: 51,
            slices: 50_538,
            preemptions: 49_538,
            max_overshoot: 12_856,
            ready_peak: STORM_TENANTS as u64,
            done: 989,
            heap_exhausted: 11,
            fault: 0,
            out_of_fuel: 0,
            deadline_missed: 0,
        };
        (stats, digest)
    }

    /// The storm, once per policy: every 97th tenant is hostile on a
    /// starved quota. Under every policy each hostile tenant must trap
    /// `HeapExhausted` alone and every good tenant must finish with
    /// result, output and `RunStats` identical to its solo run.
    /// Priorities are varied under every policy (they are inert outside
    /// `Priority`) so the same spec set exercises each ready-queue key.
    /// The schedule itself is pinned by [`expected_storm`].
    #[test]
    #[cfg_attr(debug_assertions, ignore = "1000-tenant storms; release only")]
    fn storm_is_solo_identical_under_every_policy() {
        let t = tenants();
        let mut failures: Vec<String> = Vec::new();
        for policy in POLICIES {
            let mut sched = build_sched(policy);
            let mut hostiles = 0u64;
            for slot in 0..STORM_TENANTS {
                let spec = if slot % HOSTILE_STRIDE == 0 {
                    hostiles += 1;
                    TenantSpec::new(t.hostile.clone(), &t.hostile_cfg)
                } else {
                    TenantSpec::new(t.good.clone(), &t.good_cfg)
                };
                sched
                    .admit(spec.priority((slot % 8) as u32))
                    .expect("uncapped storm admits all tenants");
            }
            let (reports, stats) = sched.run_all();
            for (slot, r) in reports.iter().enumerate() {
                if slot % HOSTILE_STRIDE == 0 {
                    if r.outcome != TenantOutcome::HeapExhausted {
                        failures.push(format!(
                            "storm[{}]: hostile tenant {slot} ended {:?}, expected HeapExhausted",
                            policy.name(),
                            r.outcome
                        ));
                    }
                } else {
                    check_solo_identical(
                        &format!("storm[{}] tenant {slot}", policy.name()),
                        r,
                        &t.solo,
                        &mut failures,
                    );
                }
            }
            if stats.done != (STORM_TENANTS as u64 - hostiles) || stats.heap_exhausted != hostiles {
                failures.push(format!(
                    "storm[{}]: outcome tally {} done / {} heap-exhausted, expected {} / {}",
                    policy.name(),
                    stats.done,
                    stats.heap_exhausted,
                    STORM_TENANTS as u64 - hostiles,
                    hostiles
                ));
            }
            if stats.deadline_missed != 0 || stats.rejected != 0 {
                failures.push(format!(
                    "storm[{}]: spurious rejections ({}) or deadline misses ({})",
                    policy.name(),
                    stats.rejected,
                    stats.deadline_missed
                ));
            }
            let got = (stats, schedule_digest(&reports));
            if got != expected_storm(policy) {
                failures.push(format!(
                    "storm[{}]: schedule moved: {:?}, digest {:#x}",
                    policy.name(),
                    got.0,
                    got.1
                ));
            }
        }
        report(&failures);
    }

    /// Deadline-miss curves under load. A cohort of deadline-tagged
    /// tenants is feasible on its own (EDF runs it ahead of the
    /// deadline-less background and it finishes well inside its
    /// deadline), so EDF must meet every deadline at every load level.
    /// Round-robin must miss at the heaviest load, which proves the
    /// curve bends and `DeadlineMissed` is exercised. Every (load,
    /// policy) point's miss count is pinned in [`CURVE_MISSED`].
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only gate")]
    fn edf_meets_every_deadline_and_round_robin_misses_under_load() {
        let t = tenants();
        let deadline = t.solo.stats.cycles * DEADLINE_COHORT as u64 * 3;
        let mut failures: Vec<String> = Vec::new();
        for (row, load) in LOADS.into_iter().enumerate() {
            for (col, policy) in POLICIES.into_iter().enumerate() {
                let mut sched = build_sched(policy);
                for _ in 0..DEADLINE_COHORT {
                    sched
                        .admit(
                            TenantSpec::new(t.good.clone(), &t.good_cfg)
                                .priority(9)
                                .deadline_cycles(deadline),
                        )
                        .expect("uncapped curve admits the deadline cohort");
                }
                for _ in 0..load {
                    sched
                        .admit(TenantSpec::new(t.good.clone(), &t.good_cfg))
                        .expect("uncapped curve admits the background load");
                }
                let (_, stats) = sched.run_all();
                if stats.deadline_missed != CURVE_MISSED[row][col] {
                    failures.push(format!(
                        "curve: {} missed {} deadline(s) at load {load}, expected {}",
                        policy.name(),
                        stats.deadline_missed,
                        CURVE_MISSED[row][col]
                    ));
                }
                if policy == SchedPolicy::Deadline && stats.deadline_missed != 0 {
                    failures.push(format!(
                        "curve: EDF missed {} deadline(s) at load {load} on a feasible workload",
                        stats.deadline_missed
                    ));
                }
                if policy == SchedPolicy::RoundRobin
                    && load == LOADS[LOADS.len() - 1]
                    && stats.deadline_missed == 0
                {
                    failures.push(format!(
                        "curve: round-robin met every deadline at load {load}; \
                         the workload is too loose to exercise DeadlineMissed"
                    ));
                }
            }
        }
        report(&failures);
    }

    /// Admission control: a capacity for three good heaps is offered
    /// five tenants. Exactly two must be rejected with the typed heap
    /// oversubscription error, and the three admitted still reach their
    /// solo results.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only gate")]
    fn admission_rejects_exactly_the_oversubscribed_tenants() {
        let t = tenants();
        let mut failures: Vec<String> = Vec::new();
        let mut sched = SchedulerBuilder::new()
            .quantum(QUANTUM)
            .heap_capacity_words((t.good_cfg.tenured_words as u64) * 3)
            .build()
            .expect("nonzero knobs always validate");
        let mut rejected = 0u64;
        for slot in 0..5 {
            match sched.admit(TenantSpec::new(t.good.clone(), &t.good_cfg)) {
                Ok(_) => {}
                Err(e @ AdmissionError::HeapOversubscribed { .. }) => {
                    rejected += 1;
                    if slot < 3 {
                        failures.push(format!("admission: tenant {slot} rejected early: {e}"));
                    }
                }
                Err(e) => failures.push(format!("admission: tenant {slot}: wrong error kind: {e}")),
            }
        }
        let (reports, stats) = sched.run_all();
        if rejected != 2 || stats.rejected != 2 || reports.len() != 3 {
            failures.push(format!(
                "admission: {rejected} rejections ({} counted), {} admitted; expected 2 and 3",
                stats.rejected,
                reports.len()
            ));
        }
        for (slot, r) in reports.iter().enumerate() {
            check_solo_identical(
                &format!("admission tenant {slot}"),
                r,
                &t.solo,
                &mut failures,
            );
        }
        report(&failures);
    }
}

/// Paper §4.5's hash-consing ablation (`ablation_hashcons`,
/// EXPERIMENTS.md) at its largest row: the program of 64 functor
/// applications translates, converts and optimizes under both interning
/// modes on an 8 MiB stack, the binary's main-thread stack.
mod ablation {
    use sml_lambda::InternMode;
    use smlc_bench::{ablation_compile, functor_heavy_source};

    /// The number of LTYs the compile of `n_apps` applications makes.
    fn lty_count(n_apps: usize, mode: InternMode) -> usize {
        let src = functor_heavy_source(n_apps);
        std::thread::Builder::new()
            .stack_size(8 << 20)
            .spawn(move || ablation_compile(&src, mode).len())
            .expect("spawns")
            .join()
            .expect("compiles")
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only gate")]
    fn hash_consing_keeps_64_functor_applications_at_the_types_of_one() {
        let one = lty_count(1, InternMode::HashCons);
        let hash_consed = lty_count(64, InternMode::HashCons);
        let structural = lty_count(64, InternMode::Structural);
        assert_eq!(hash_consed, one, "hash-consed LTYs at 64 applications");
        assert!(
            structural > hash_consed,
            "{structural} structural LTYs against {hash_consed} hash-consed"
        );
    }
}
