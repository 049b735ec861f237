//! Dispatch-engine gate: proves the pre-decoded threaded engine
//! observationally identical to the decode loop over the figure
//! benchmarks and a seeded generated corpus, measures its wall-time
//! win, and writes the `BENCH_pr9.json` trajectory document.
//!
//! ```sh
//! cargo run --release -p smlc-bench --bin dispatch_bench            # writes BENCH_pr9.json
//! cargo run --release -p smlc-bench --bin dispatch_bench -- --json=out.json --seeds=50 --reps=5
//! ```
//!
//! Two gating stages, each of which exits nonzero on regression:
//!
//! 1. **Figure benchmarks.** Every benchmark × every variant is
//!    compiled once and run under both engines. Result, output, and the
//!    complete `RunStats` (cycles, instruction counts, GC counters, the
//!    by-class breakdowns) must be byte-identical — the threaded engine
//!    is a pure performance axis, not a semantic one. Each engine is
//!    also timed (best of `--reps` runs) and the document records the
//!    per-cell and geomean decode/threaded wall-time ratios alongside
//!    the superinstruction and stream-length counts.
//! 2. **Progen differential.** The same identity check over a seeded
//!    generated corpus (default 200 seeds) under all six variants —
//!    closure-heavy, exception-raising, GC-provoking programs the
//!    hand-picked figure set does not cover.
//!
//! Wall-time is the one quantity allowed to differ, so the speedup is
//! recorded but not gated: a slow machine must not fail the build.

use sml_testkit::progen::{gen_program, GenConfig};
use sml_testkit::Rng;
use smlc::{Compiled, Dispatch, Json, Outcome, Session, Variant, VmConfig, METRICS_SCHEMA_VERSION};
use smlc_bench::{benchmarks, geomean};
use std::time::Instant;

/// Seed salt: disjoint from the unit tests' corpus and the other bench
/// binaries'.
const SALT: u64 = 0x5eed_f00d_cafe_0009;

/// Runs one compiled program under `dispatch`, timing the best of
/// `reps` repetitions; returns the last outcome and the best time in
/// milliseconds.
fn run_timed(c: &Compiled, base: &VmConfig, dispatch: Dispatch, reps: u32) -> (Outcome, f64) {
    let cfg = VmConfig { dispatch, ..*base };
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let o = c.run_with(&cfg);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        outcome = Some(o);
    }
    (outcome.expect("reps >= 1"), best)
}

/// Pushes a failure message for every observable divergence between the
/// two engines' outcomes; returns whether the pair was identical.
fn check_identical(what: &str, dec: &Outcome, thr: &Outcome, failures: &mut Vec<String>) -> bool {
    let before = failures.len();
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
    failures.len() == before
}

fn usage() -> ! {
    eprintln!("usage: dispatch_bench [--json=PATH] [--seeds=N] [--reps=N]");
    std::process::exit(2);
}

fn main() {
    let mut path = "BENCH_pr9.json".to_owned();
    let mut n_seeds: u64 = 200;
    let mut reps: u32 = 3;
    for a in std::env::args().skip(1) {
        if let Some(p) = a.strip_prefix("--json=") {
            path = p.to_owned();
        } else if let Some(n) = a.strip_prefix("--seeds=") {
            n_seeds = n.parse().unwrap_or_else(|_| usage());
        } else if let Some(n) = a.strip_prefix("--reps=") {
            reps = n.parse().unwrap_or_else(|_| usage());
        } else {
            usage();
        }
    }

    let mut failures: Vec<String> = Vec::new();

    // Stage 1: figure benchmarks × all six variants, identity + timing.
    let mut rows: Vec<Json> = Vec::new();
    let mut speedups: Vec<f64> = Vec::new();
    let mut identity_checks = 0u64;
    for b in benchmarks() {
        let mut cells: Vec<Json> = Vec::new();
        for &v in &Variant::ALL {
            let session = Session::with_variant(v);
            let compiled = session
                .compile(&b.source())
                .unwrap_or_else(|e| panic!("{} failed to compile under {v}: {e}", b.name));
            let base = v.vm_config();
            let (dec, dec_ms) = run_timed(&compiled, &base, Dispatch::Decode, reps);
            let (thr, thr_ms) = run_timed(&compiled, &base, Dispatch::Threaded, reps);
            identity_checks += 1;
            check_identical(
                &format!("{}/{}", b.name, v.name()),
                &dec,
                &thr,
                &mut failures,
            );
            let speedup = dec_ms / thr_ms;
            speedups.push(speedup);
            cells.push(
                Json::obj()
                    .field("variant", v.name())
                    .field("cycles", dec.stats.cycles)
                    .field("instrs", dec.stats.instrs)
                    .field("code", compiled.stats.code_size)
                    .field("stream_len", thr.dispatch.stream_len)
                    .field("superinstructions", thr.dispatch.superinstructions)
                    .field("decode_ms", dec_ms)
                    .field("threaded_ms", thr_ms)
                    .field("speedup", speedup),
            );
            if v == Variant::Ffb {
                println!(
                    "{:10} {:8}  instrs {:>9}  fused {:>6}  stream {:>6}  \
                     {:>8.3}ms -> {:>8.3}ms  ({:.2}x)",
                    b.name,
                    v.name(),
                    dec.stats.instrs,
                    thr.dispatch.superinstructions,
                    thr.dispatch.stream_len,
                    dec_ms,
                    thr_ms,
                    speedup,
                );
            }
        }
        rows.push(
            Json::obj()
                .field("name", b.name)
                .field("variants", Json::Arr(cells)),
        );
    }
    let overall = geomean(&speedups);

    // Stage 2: progen differential, all six variants per seed.
    let gen_cfg = GenConfig::default();
    let mut fuzz_failures = 0usize;
    for seed in 0..n_seeds {
        let src = gen_program(&mut Rng::new(seed ^ SALT), &gen_cfg);
        for &v in &Variant::ALL {
            let compiled = match Session::with_variant(v).compile(&src) {
                Ok(c) => c,
                Err(e) => {
                    failures.push(format!("seed {seed} [{}]: compile failed: {e}", v.name()));
                    fuzz_failures += 1;
                    continue;
                }
            };
            let base = v.vm_config();
            let dec = compiled.run_with(&VmConfig {
                dispatch: Dispatch::Decode,
                ..base
            });
            let thr = compiled.run_with(&VmConfig {
                dispatch: Dispatch::Threaded,
                ..base
            });
            identity_checks += 1;
            if !check_identical(
                &format!("seed {seed} [{}]", v.name()),
                &dec,
                &thr,
                &mut failures,
            ) {
                fuzz_failures += 1;
            }
        }
    }
    println!(
        "dispatch_bench: progen differential over {n_seeds} seeds x {} variants, \
         {fuzz_failures} failure(s)",
        Variant::ALL.len()
    );

    let doc = Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("generator", "dispatch_bench")
        .field(
            "config",
            Json::obj()
                .field("reps", u64::from(reps))
                .field("fuzz_seeds", n_seeds),
        )
        .field("benchmarks", Json::Arr(rows))
        .field(
            "summary",
            Json::obj()
                .field("geomean_speedup", overall)
                .field("identity_checks", identity_checks)
                .field("fuzz_failures", fuzz_failures)
                .field("failures", failures.len()),
        );
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!(
        "dispatch_bench: {identity_checks} identity checks byte-identical; \
         threaded geomean speedup {overall:.3}x over the decode loop"
    );
}
