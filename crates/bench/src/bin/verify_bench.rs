//! Measures the compile-time overhead of the typed-IR verification
//! pipeline on the figure benchmarks and writes the `BENCH_pr5.json`
//! trajectory document.
//!
//! ```sh
//! cargo run --release -p smlc-bench --bin verify_bench              # writes BENCH_pr5.json
//! cargo run --release -p smlc-bench --bin verify_bench -- --json=out.json
//! ```
//!
//! Every benchmark is compiled twice per variant — once with
//! `VerifyIr::Off` and once with `VerifyIr::Always` (three repetitions
//! each, median taken) — and the binary asserts the two contracts the
//! verification pipeline documents:
//!
//! 1. `Off` runs zero checks: verification is pay-for-what-you-use, and
//!    an `Off` compile does not touch the verifiers at all; and
//! 2. the emitted machine code is byte-identical across modes:
//!    verification only ever *checks* an IR, it never rewrites one.
//!
//! A violation of either contract exits nonzero. The per-benchmark
//! timings and check counts land in the JSON document so the verifier
//! overhead is tracked release over release.

use std::time::Instant;

use smlc::{Json, SessionBuilder, Variant, VerifyIr, METRICS_SCHEMA_VERSION};
use smlc_bench::{benchmarks, median};

/// Representation extremes plus the paper's allocation-study variant.
const VARIANTS: [Variant; 3] = [Variant::Nrp, Variant::Ffb, Variant::Fp3];

/// Compile repetitions per (benchmark, variant, mode); the median
/// timing is reported.
const REPS: usize = 3;

fn main() {
    let mut path = "BENCH_pr5.json".to_owned();
    for a in std::env::args().skip(1) {
        if let Some(p) = a.strip_prefix("--json=") {
            path = p.to_owned();
        } else {
            eprintln!("unknown argument `{a}` (only --json=PATH)");
            std::process::exit(2);
        }
    }

    let mut rows: Vec<Json> = Vec::new();
    let mut off_total = 0.0f64;
    let mut always_total = 0.0f64;

    for &variant in &VARIANTS {
        // No artifact cache: every compile below does full work.
        let off = SessionBuilder::default()
            .variant(variant)
            .cache(false)
            .verify_ir(VerifyIr::Off)
            .build()
            .expect("off session");
        let always = SessionBuilder::default()
            .variant(variant)
            .cache(false)
            .verify_ir(VerifyIr::Always)
            .build()
            .expect("always session");

        for b in benchmarks() {
            let src = b.source();
            let mut off_ms = Vec::new();
            let mut always_ms = Vec::new();
            let mut last = None;
            for _ in 0..REPS {
                let t = Instant::now();
                let co = off
                    .compile(&src)
                    .unwrap_or_else(|e| panic!("{} off/{variant:?}: {e}", b.name));
                off_ms.push(t.elapsed().as_secs_f64() * 1e3);

                let t = Instant::now();
                let ca = always
                    .compile(&src)
                    .unwrap_or_else(|e| panic!("{} always/{variant:?}: {e}", b.name));
                always_ms.push(t.elapsed().as_secs_f64() * 1e3);

                assert_eq!(
                    co.stats.verify.total_checks(),
                    0,
                    "{}: VerifyIr::Off ran verifier checks",
                    b.name
                );
                assert!(
                    ca.stats.verify.total_checks() > 0,
                    "{}: VerifyIr::Always ran no checks",
                    b.name
                );
                assert_eq!(
                    format!("{}", co.machine),
                    format!("{}", ca.machine),
                    "{}: verification changed the emitted code under {}",
                    b.name,
                    variant.name()
                );
                last = Some(ca);
            }
            let ca = last.unwrap();
            let o = median(&off_ms);
            let a = median(&always_ms);
            off_total += o;
            always_total += a;
            rows.push(
                Json::obj()
                    .field("name", b.name)
                    .field("variant", variant.name())
                    .field("off_ms", o)
                    .field("always_ms", a)
                    .field(
                        "overhead_pct",
                        if o > 0.0 { (a / o - 1.0) * 100.0 } else { 0.0 },
                    )
                    .field("lexp_checks", ca.stats.verify.lexp_checks)
                    .field("cps_checks", ca.stats.verify.cps_checks)
                    .field("bytecode_checks", ca.stats.verify.bytecode_checks)
                    .field("verify_ms", ca.stats.verify.time.as_secs_f64() * 1e3),
            );
            println!(
                "{:8} {:8}  off {o:8.2} ms  always {a:8.2} ms  ({:+6.1}%)",
                b.name,
                variant.name(),
                if o > 0.0 { (a / o - 1.0) * 100.0 } else { 0.0 }
            );
        }
    }

    let overhead = if off_total > 0.0 {
        (always_total / off_total - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "verify_bench: off {off_total:.1} ms, always {always_total:.1} ms ({overhead:+.1}% overhead); \
         Off ran zero checks; code byte-identical across modes"
    );

    let doc = Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("generator", "verify_bench")
        .field(
            "config",
            Json::obj()
                .field(
                    "variants",
                    VARIANTS
                        .iter()
                        .map(|v| v.name().to_owned())
                        .collect::<Vec<_>>(),
                )
                .field("reps", REPS),
        )
        .field("benchmarks", Json::Arr(rows))
        .field(
            "summary",
            Json::obj()
                .field("off_total_ms", off_total)
                .field("always_total_ms", always_total)
                .field("overhead_pct", overhead)
                .field("off_runs_zero_checks", true)
                .field("code_identical_across_modes", true),
        );
    let mut text = doc.to_string_pretty();
    text.push('\n');
    std::fs::write(&path, text).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {path}");
}
