//! Whole-program differential fuzzing with the `sml-testkit` program
//! generator: every seeded, well-typed program must (a) compile and run
//! under all six variants without a panic escaping the pipeline, and
//! (b) produce the identical result value and print output across
//! variants — the variant-equivalence oracle behind the paper's
//! Figure 7/8 matrix.
//!
//! The `seeded_batch_*` sweep compiles its whole corpus in one batch:
//! 40 programs in the dev profile, where every IR verifier runs, and
//! 200 in release, once in the default mode and once with every
//! verifier forced on. `scripts/verify.sh` runs the release legs:
//!
//! ```sh
//! cargo test --release -p smlc --test fuzz_programs -- seeded_batch
//! ```

use sml_testkit::progen::{gen_program, GenConfig};
use sml_testkit::{run_cases, Rng};
use smlc::{par_map, CompileError, Compiled, Job, Session, Variant, VerifyIr, VmResult};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Compiles through a fresh single-variant session.
fn compile(src: &str, v: Variant) -> Result<Compiled, CompileError> {
    Session::with_variant(v).compile(src)
}

/// Compiles and runs `src` under `v`, catching any panic that escapes.
/// Returns `(result, output)` or panics with a seed-reproducible report.
fn run_variant(src: &str, v: Variant) -> (VmResult, String) {
    let outcome = catch_unwind(AssertUnwindSafe(|| match compile(src, v) {
        Ok(c) => {
            let o = c.run();
            Ok((o.result, o.output))
        }
        Err(e) => Err(format!("{e}")),
    }));
    match outcome {
        Ok(Ok(pair)) => pair,
        Ok(Err(e)) => panic!("[{}] compile failed: {e}\nsource:\n{src}", v.name()),
        Err(_) => panic!("[{}] PANIC escaped the pipeline for\n{src}", v.name()),
    }
}

#[test]
fn generated_programs_agree_across_variants() {
    let cfg = GenConfig::default();
    run_cases("generated_programs_agree_across_variants", 60, |rng| {
        let src = gen_program(rng, &cfg);
        let mut reference: Option<(VmResult, String, &'static str)> = None;
        for v in Variant::ALL {
            let (result, output) = run_variant(&src, v);
            assert!(
                matches!(result, VmResult::Value(_)),
                "[{}] abnormal result {result:?} for\n{src}",
                v.name()
            );
            match &reference {
                None => reference = Some((result, output, v.name())),
                Some((r_res, r_out, r_name)) => {
                    assert_eq!(
                        &result,
                        r_res,
                        "[{}] result diverges from {r_name} for\n{src}",
                        v.name()
                    );
                    assert_eq!(
                        &output,
                        r_out,
                        "[{}] output diverges from {r_name} for\n{src}",
                        v.name()
                    );
                }
            }
        }
    });
}

/// Programs in the batch sweep's corpus.
const BATCH_SEEDS: u64 = if cfg!(debug_assertions) { 40 } else { 200 };

/// Mixed into every batch-sweep seed, so the corpus is disjoint from the
/// `run_cases`-derived seeds of the other tests.
const BATCH_SALT: u64 = 0x5eed_f00d_cafe_0001;

/// Compiles seeds `0..BATCH_SEEDS` under all six variants with one
/// `compile_batch` on a cache-off session (every program is distinct)
/// in verification mode `mode`, runs every artifact with panics
/// contained, and fails with every failure: a compile error, an escaped
/// panic, an abnormal result, or a variant whose result or output
/// differs from the first variant's. Each failure names its seed (the
/// program is `gen_program(Rng::new(seed ^ BATCH_SALT))`) and source.
fn check_batch(mode: VerifyIr) {
    let session = Session::builder()
        .cache(false)
        .verify_ir(mode)
        .build()
        .expect("fuzz session configuration is valid");
    let cfg = GenConfig::default();
    let sources: Vec<String> = (0..BATCH_SEEDS)
        .map(|seed| gen_program(&mut Rng::new(seed ^ BATCH_SALT), &cfg))
        .collect();
    let jobs: Vec<Job> = sources
        .iter()
        .flat_map(|src| Variant::ALL.map(|v| Job::with_variant(src.clone(), v)))
        .collect();
    let compiled = session.compile_batch(&jobs);
    let runs: Vec<Result<(VmResult, String), String>> =
        par_map(&compiled, session.batch_workers(), |_, result| {
            let c = result
                .as_ref()
                .map_err(|e| format!("compile failed: {e}"))?;
            catch_unwind(AssertUnwindSafe(|| session.run(c)))
                .map(|o| (o.result, o.output))
                .map_err(|_| "PANIC escaped the pipeline".to_owned())
        });

    let mut failures = Vec::new();
    let rows = runs.chunks(Variant::ALL.len());
    for (seed, (src, row)) in sources.iter().zip(rows).enumerate() {
        let mut reference: Option<(&VmResult, &String, &'static str)> = None;
        for (v, outcome) in Variant::ALL.iter().zip(row) {
            let name = v.name();
            let (result, output) = match outcome {
                Err(why) => {
                    failures.push(format!("seed {seed} [{name}]: {why}\n{src}"));
                    continue;
                }
                Ok(pair) => pair,
            };
            if !matches!(result, VmResult::Value(_)) {
                failures.push(format!(
                    "seed {seed} [{name}]: abnormal result {result:?}\n{src}"
                ));
                continue;
            }
            match reference {
                None => reference = Some((result, output, name)),
                Some((r_res, r_out, r_name)) if (result, output) != (r_res, r_out) => {
                    failures.push(format!(
                        "seed {seed} [{name}]: diverges from {r_name} \
                         ({result:?} {output:?} vs {r_res:?} {r_out:?})\n{src}"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failure(s) over {BATCH_SEEDS} seeds x {} variants under VerifyIr::{mode:?}:\n{}",
        failures.len(),
        Variant::ALL.len(),
        failures.join("\n\n")
    );
}

#[test]
fn seeded_batch_agrees_across_variants() {
    check_batch(VerifyIr::default());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the dev profile's default mode already runs every verifier; release only"
)]
fn seeded_batch_agrees_across_variants_with_every_verifier() {
    check_batch(VerifyIr::Always);
}

#[test]
fn generated_programs_survive_fault_injection() {
    // The same generated corpus, rerun under GC stress: forcing a
    // collection before every other allocation must not change any
    // program's behavior under any variant.
    use smlc::{FaultInject, VmConfig};
    let cfg = GenConfig {
        items: 3,
        ..GenConfig::default()
    };
    run_cases("generated_programs_survive_fault_injection", 12, |rng| {
        let src = gen_program(rng, &cfg);
        for v in Variant::ALL {
            let c = compile(&src, v)
                .unwrap_or_else(|e| panic!("[{}] compile failed: {e}\n{src}", v.name()));
            let quiet = c.run();
            let stressed = c.run_with(&VmConfig {
                fault: FaultInject {
                    fail_alloc_at: None,
                    gc_every_n_allocs: Some(2),
                    yield_every_n_slices: None,
                },
                ..v.vm_config()
            });
            assert_eq!(
                quiet.result,
                stressed.result,
                "[{}] GC stress changed the result for\n{src}",
                v.name()
            );
            assert_eq!(
                quiet.output,
                stressed.output,
                "[{}] GC stress changed the output for\n{src}",
                v.name()
            );
        }
    });
}

#[test]
fn generated_programs_agree_across_collector_modes() {
    // Collector-mode differential: the same compiled program must
    // behave byte-identically under the default generational
    // configuration, the semispace baseline collector, and a
    // pathological generational setup (tiny nursery, immediate
    // promotion) that maximizes minor-collection and promotion traffic.
    use smlc::{GcMode, VmConfig};
    let cfg = GenConfig {
        items: 3,
        ..GenConfig::default()
    };
    run_cases(
        "generated_programs_agree_across_collector_modes",
        10,
        |rng| {
            let src = gen_program(rng, &cfg);
            for v in Variant::ALL {
                let c = compile(&src, v)
                    .unwrap_or_else(|e| panic!("[{}] compile failed: {e}\n{src}", v.name()));
                let reference = c.run();
                let modes: [(&str, VmConfig); 2] = [
                    (
                        "semispace",
                        VmConfig {
                            gc_mode: GcMode::Semispace,
                            ..v.vm_config()
                        },
                    ),
                    (
                        "tiny-nursery",
                        VmConfig {
                            nursery_words: 1 << 10,
                            promote_after: 1,
                            ..v.vm_config()
                        },
                    ),
                ];
                for (name, vm) in modes {
                    let alt = c.run_with(&vm);
                    assert_eq!(
                        reference.result,
                        alt.result,
                        "[{} / {name}] collector mode changed the result for\n{src}",
                        v.name()
                    );
                    assert_eq!(
                        reference.output,
                        alt.output,
                        "[{} / {name}] collector mode changed the output for\n{src}",
                        v.name()
                    );
                }
            }
        },
    );
}

#[test]
fn generated_programs_agree_across_pause_budgets() {
    // Pause-budget differential: over the generated corpus, a bounded
    // incremental major collector must be observationally identical to
    // the stop-the-world collector it slices up — byte-identical result
    // and output, the same words promoted — and must actually honor its
    // budget (no recorded pause above `max_pause_cycles`). The
    // semispace baseline rides along as a third, structurally unrelated
    // oracle. Geometry is shrunk (256-word nursery, immediate
    // promotion) so the corpus forces real major collections; the
    // budget of 1200 exceeds 4 * nursery + 150, so the nursery clamp is
    // inert and minor-collection scheduling is identical across modes.
    use smlc::{GcMode, VmConfig};
    let cfg = GenConfig {
        items: 3,
        ..GenConfig::default()
    };
    run_cases("generated_programs_agree_across_pause_budgets", 16, |rng| {
        let src = gen_program(rng, &cfg);
        for v in Variant::ALL {
            let c = compile(&src, v)
                .unwrap_or_else(|e| panic!("[{}] compile failed: {e}\n{src}", v.name()));
            let small = VmConfig {
                nursery_words: 256,
                promote_after: 1,
                ..v.vm_config()
            };
            let stw = c.run_with(&small);
            let incr = c.run_with(&VmConfig {
                max_pause_cycles: 1200,
                ..small
            });
            let semi = c.run_with(&VmConfig {
                gc_mode: GcMode::Semispace,
                ..v.vm_config()
            });
            assert_eq!(
                stw.result,
                incr.result,
                "[{}] pause budget changed the result for\n{src}",
                v.name()
            );
            assert_eq!(
                stw.output,
                incr.output,
                "[{}] pause budget changed the output for\n{src}",
                v.name()
            );
            assert_eq!(
                stw.stats.promoted_words,
                incr.stats.promoted_words,
                "[{}] pause budget changed promotion traffic for\n{src}",
                v.name()
            );
            assert_eq!(
                stw.result,
                semi.result,
                "[{}] semispace diverges from generational for\n{src}",
                v.name()
            );
            assert_eq!(
                stw.output,
                semi.output,
                "[{}] semispace diverges from generational for\n{src}",
                v.name()
            );
            assert_eq!(
                incr.stats.pause_overruns,
                0,
                "[{}] over-budget pause recorded for\n{src}",
                v.name()
            );
            assert!(
                incr.stats.max_minor_pause <= 1200 && incr.stats.max_major_pause <= 1200,
                "[{}] pause above budget (minor {}, major {}) for\n{src}",
                v.name(),
                incr.stats.max_minor_pause,
                incr.stats.max_major_pause
            );
        }
    });
}

#[test]
fn generated_programs_agree_across_dispatch_engines() {
    // Dispatch-engine differential over the generated corpus: the
    // pre-decoded threaded engine must be observationally identical to
    // the decode loop on every variant — same result, same output, and
    // the same `RunStats` to the last counter (the full 200-seed ×
    // 6-variant sweep is a release gate in `crates/bench/tests/gates.rs`;
    // this keeps a representative slice in the tier-1 suite).
    use smlc::{Dispatch, VmConfig};
    let cfg = GenConfig::default();
    run_cases(
        "generated_programs_agree_across_dispatch_engines",
        30,
        |rng| {
            let src = gen_program(rng, &cfg);
            for v in Variant::ALL {
                let c = compile(&src, v)
                    .unwrap_or_else(|e| panic!("[{}] compile failed: {e}\n{src}", v.name()));
                // Both sides name their engine: the reference is the
                // decode oracle whatever the default engine is.
                let dec = c.run_with(&VmConfig {
                    dispatch: Dispatch::Decode,
                    ..v.vm_config()
                });
                let thr = c.run_with(&VmConfig {
                    dispatch: Dispatch::Threaded,
                    ..v.vm_config()
                });
                assert_eq!(
                    dec.result,
                    thr.result,
                    "[{}] engines disagree on the result for\n{src}",
                    v.name()
                );
                assert_eq!(
                    dec.output,
                    thr.output,
                    "[{}] engines disagree on the output for\n{src}",
                    v.name()
                );
                assert_eq!(
                    dec.stats,
                    thr.stats,
                    "[{}] engines disagree on RunStats for\n{src}",
                    v.name()
                );
                assert_eq!(dec.dispatch.engine, Dispatch::Decode);
                assert_eq!(thr.dispatch.engine, Dispatch::Threaded);
            }
        },
    );
}

#[test]
fn generated_programs_run_identically_under_every_scheduler_policy() {
    // Scheduler differential — the multi-tenant isolation gate: under
    // every `SchedPolicy` × `Dispatch` combination, each tenant's
    // result, output, and full `RunStats` must be byte-identical to a
    // solo run of the same program and config. Tenants get distinct
    // priorities and one gets a (generous) deadline so the policy
    // machinery genuinely reorders the schedule.
    use smlc::{Dispatch, SchedPolicy, SchedulerBuilder, TenantOutcome, TenantSpec, VmConfig};
    let cfg = GenConfig {
        items: 3,
        ..GenConfig::default()
    };
    let session = Session::default();
    run_cases(
        "generated_programs_run_identically_under_every_scheduler_policy",
        8,
        |rng| {
            let src = gen_program(rng, &cfg);
            let v = Variant::Ffb;
            let c = compile(&src, v)
                .unwrap_or_else(|e| panic!("[{}] compile failed: {e}\n{src}", v.name()));
            let program = c.machine.clone();
            for engine in [Dispatch::Decode, Dispatch::Threaded] {
                let vm = VmConfig {
                    dispatch: engine,
                    ..v.vm_config()
                };
                let solo = c.run_with(&vm);
                for policy in [
                    SchedPolicy::RoundRobin,
                    SchedPolicy::Priority,
                    SchedPolicy::Deadline,
                ] {
                    let sched = SchedulerBuilder::new()
                        .quantum(701)
                        .policy(policy)
                        .build()
                        .unwrap();
                    let specs = vec![
                        TenantSpec::new(program.clone(), &vm).priority(3),
                        TenantSpec::new(program.clone(), &vm).deadline_cycles(u64::MAX / 2),
                        TenantSpec::new(program.clone(), &vm),
                    ];
                    let (reports, stats) = session
                        .run_tenants_with(sched, &specs)
                        .expect("uncapped scheduler admits all tenants");
                    assert_eq!(stats.done, 3);
                    for (i, r) in reports.iter().enumerate() {
                        assert_eq!(r.outcome, TenantOutcome::Done);
                        assert_eq!(
                            r.result,
                            solo.result,
                            "[{}/{}] tenant {i} result diverges from solo for\n{src}",
                            policy.name(),
                            engine.name()
                        );
                        assert_eq!(
                            r.output,
                            solo.output,
                            "[{}/{}] tenant {i} output diverges from solo for\n{src}",
                            policy.name(),
                            engine.name()
                        );
                        assert_eq!(
                            r.stats,
                            solo.stats,
                            "[{}/{}] tenant {i} RunStats diverge from solo for\n{src}",
                            policy.name(),
                            engine.name()
                        );
                    }
                }
            }
        },
    );
}

#[test]
fn seeded_corpus_is_stable() {
    // The generator is part of the reproducibility story: the corpus a
    // seed denotes must never drift silently. Pin one program's shape.
    let src = gen_program(&mut Rng::new(12345), &GenConfig::default());
    let again = gen_program(&mut Rng::new(12345), &GenConfig::default());
    assert_eq!(src, again);
}
