//! Pins what every run counts: each line of `run_stats_golden.txt` is
//! one (program, configuration) run and a digest of its result, its
//! output and its full `RunStats` — cycles, allocations, every
//! collector counter, the pause histograms and the per-class
//! breakdowns.
//!
//! The runs are the 72 cells of the 12×6 figure matrix under each
//! variant's default `VmConfig`, plus the 12 programs under `sml.ffb`
//! in five heap configurations that exercise every collector path:
//! the storm geometry (a 256-word nursery, promotion after one minor
//! collection) under both dispatch engines, a 1,024-word nursery with
//! promotion after three, the semispace collector, and a 2,000-cycle
//! pause budget (a clamped nursery and sliced majors).
//!
//! A change to how the VM or its collector executes — an allocation
//! fast path, a faster copy loop — must pass this test unchanged: it
//! fails for any change to copy order, promotion, the remembered set
//! or a charge. A change meant to move the counters regenerates the
//! file with
//!
//! ```sh
//! cargo test -q --release -p smlc-bench --test run_stats_golden -- --ignored --exact regenerate_run_stats_golden
//! ```
//!
//! and the diff shows which runs moved. The figure programs run for
//! minutes unoptimized, so the check is ignored in the dev profile.

use smlc::fxhash::hash_bytes;
use smlc::{par_map, Dispatch, GcMode, Job, Session, Variant, VerifyIr, VmConfig, VmResult};
use smlc_bench::benchmarks;

const GOLDEN: &str = "tests/run_stats_golden.txt";

/// The `sml.ffb` heap configurations run beside the variant defaults.
fn heap_configs() -> [(&'static str, VmConfig); 5] {
    let base = Variant::Ffb.vm_config();
    let storm = VmConfig {
        nursery_words: 256,
        promote_after: 1,
        ..base
    };
    [
        ("storm", storm),
        (
            "nursery1024-promote3",
            VmConfig {
                nursery_words: 1024,
                promote_after: 3,
                ..base
            },
        ),
        (
            "semispace",
            VmConfig {
                gc_mode: GcMode::Semispace,
                ..base
            },
        ),
        (
            "pause2000",
            VmConfig {
                max_pause_cycles: 2_000,
                ..base
            },
        ),
        (
            "storm-decode",
            VmConfig {
                dispatch: Dispatch::Decode,
                ..storm
            },
        ),
    ]
}

/// One line per run: `program configuration digest`.
fn digests() -> String {
    let session = Session::builder()
        .verify_ir(VerifyIr::Off)
        .cache(false)
        .build()
        .expect("default knobs are valid");
    let benches = benchmarks();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|b| Variant::ALL.map(|v| Job::with_variant(b.source(), v)))
        .collect();
    let compiled: Vec<_> = session
        .compile_batch(&jobs)
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let (b, v) = (
                &benches[i / Variant::ALL.len()],
                Variant::ALL[i % Variant::ALL.len()],
            );
            c.unwrap_or_else(|e| panic!("{} failed under {v}: {e}", b.name))
        })
        .collect();
    // (program, configuration name, compiled cell, configuration).
    let mut runs = Vec::new();
    for (i, c) in compiled.iter().enumerate() {
        let v = Variant::ALL[i % Variant::ALL.len()];
        runs.push((
            benches[i / Variant::ALL.len()].name,
            v.name(),
            c,
            v.vm_config(),
        ));
    }
    let ffb = Variant::ALL
        .iter()
        .position(|&v| v == Variant::Ffb)
        .expect("sml.ffb is a variant");
    for (label, cfg) in heap_configs() {
        for (bi, b) in benches.iter().enumerate() {
            runs.push((b.name, label, &compiled[bi * Variant::ALL.len() + ffb], cfg));
        }
    }
    let lines = par_map(&runs, 0, |_, &(name, label, c, cfg)| {
        let o = c.run_with(&cfg);
        assert!(
            matches!(o.result, VmResult::Value(_)),
            "{name} under {label} ended {:?}",
            o.result
        );
        let text = format!("{:?}\n{}\n{:?}", o.result, o.output, o.stats);
        format!("{name} {label} {:016x}\n", hash_bytes(text.as_bytes()))
    });
    let mut out = String::from("# program configuration result_output_runstats_digest\n");
    out.extend(lines);
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the figure programs; release only")]
fn run_counters_match_golden() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let got = digests();
    let moved: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        moved.is_empty() && want.lines().count() == got.lines().count(),
        "run counters differ from {GOLDEN} in {} run(s):\n{}\n\
         (regenerate with `cargo test --release -p smlc-bench --test run_stats_golden \
         -- --ignored --exact regenerate_run_stats_golden` if the change is intended)",
        moved.len(),
        moved.join("\n")
    );
}

/// Rewrites the golden file.
#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_run_stats_golden() {
    std::fs::write(GOLDEN, digests()).expect("golden file is writable");
}
