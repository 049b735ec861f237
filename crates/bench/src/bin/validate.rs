//! Validation tool: compiles and runs every benchmark under every
//! variant, checking for agreement; prints a result matrix.
//!
//! ```sh
//! cargo run --release -p smlc-bench --bin validate
//! cargo run --release -p smlc-bench --bin validate -- --json=out.json
//! ```
//!
//! Every failure mode — compile error, VM trap, escaped panic, output
//! divergence — is contained to its cell and printed as a `DEGRADED`
//! line. With `--json=PATH`, the `BENCH_*.json` trajectory document is
//! written to `PATH` even when cells degraded: the document marks them
//! explicitly, and the process still exits 1 so CI notices.

use smlc_bench::{degraded_cells, json_path_from_args, run_matrix, write_bench_json};

fn main() {
    let json_path = json_path_from_args(std::env::args().skip(1));
    let matrix = run_matrix();
    for row in &matrix {
        for cell in row {
            match cell.ok() {
                Some(r) => println!(
                    "{:8} {:8} OK out={:?} cycles={} alloc={} code={}",
                    r.name,
                    r.variant.name(),
                    r.outcome.output.trim(),
                    r.outcome.stats.cycles,
                    r.outcome.stats.alloc_words,
                    r.compile.code_size
                ),
                None => {
                    let d = cell.degraded().expect("cell is Ok or Degraded");
                    println!(
                        "{:8} {:8} DEGRADED [{}] {}",
                        d.name,
                        d.variant.name(),
                        d.kind,
                        d.detail
                    );
                }
            }
        }
    }
    let failures = degraded_cells(&matrix).len();
    if let Some(path) = json_path {
        write_bench_json(&path, &matrix, "validate")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if failures > 0 {
        println!("{failures} degraded cell(s)");
        std::process::exit(1);
    }
    println!("all benchmarks agree under all variants");
}
