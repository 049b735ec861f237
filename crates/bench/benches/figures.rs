//! Wall-clock micro-benches over the paper's evaluation: per-benchmark
//! execution under the extreme compiler variants (Figure 7's raw data)
//! and the compilation pipeline itself (Figure 8's compile-time row).
//!
//! Originally a criterion bench; this environment builds without
//! network access to crates.io, so it is now a plain `harness = false`
//! binary using `std::time::Instant` — run with
//! `cargo bench -p smlc-bench`. The interesting output — ratio tables
//! shaped like the paper's figures — is printed by
//! `cargo run -p smlc-bench --bin figure7` / `figure8`; this bench
//! provides wall-clock medians on the same workloads.

use smlc::{Session, Variant};
use smlc_bench::{benchmarks, median};
use std::time::Instant;

/// Median wall-clock seconds of `iters` runs of `f`.
fn median_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn main() {
    // Cache and warm-table reuse are off: the compile column must time
    // a genuine cold compile every iteration, not a cache lookup.
    let session = Session::builder()
        .cache(false)
        .reuse_types(false)
        .build()
        .expect("bench session configuration is valid");
    println!(
        "{:24} {:>12} {:>12}",
        "workload", "execute (s)", "compile (s)"
    );
    for b in benchmarks() {
        let src = b.source();
        // Only the extreme variants in the timed benches; the full 6x12
        // matrix is the figure binaries' job.
        for v in [Variant::Nrp, Variant::Ffb] {
            let compiled = session
                .compile_variant(&src, v)
                .expect("benchmarks compile");
            let exec = median_secs(5, || {
                let o = session.run(&compiled);
                assert!(o.stats.cycles > 0);
            });
            let comp = median_secs(5, || {
                let c = session.compile_variant(&src, v).expect("compiles");
                assert!(c.stats.code_size > 0 && !c.from_cache);
            });
            println!(
                "{:24} {exec:>12.4} {comp:>12.4}",
                format!("{}/{}", b.name, v.name())
            );
        }
    }
}
