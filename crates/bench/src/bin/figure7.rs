//! Regenerates the paper's Figure 7: per-benchmark execution-time ratios
//! of all six compilers, with `sml.nrp` as the baseline (1.00).
//!
//! ```sh
//! cargo run --release -p smlc-bench --bin figure7                      # table only
//! cargo run --release -p smlc-bench --bin figure7 -- --json=out.json   # + trajectory
//! ```
//!
//! A degraded cell (compile error, VM trap, panic, or output
//! divergence) prints as `--` and its row is left out of the averages;
//! the JSON trajectory records the failure explicitly.

use smlc::Variant;
use smlc_bench::{degraded_cells, geomean, json_path_from_args, run_matrix, write_bench_json};

fn main() {
    let json_path = json_path_from_args(std::env::args().skip(1));
    let matrix = run_matrix();
    println!("Figure 7: execution time relative to sml.nrp (lower is better)\n");
    print!("{:10}", "program");
    for v in Variant::ALL {
        print!("  {:>8}", v.name());
    }
    println!();
    let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); 6];
    for row in &matrix {
        let clean_row = row.iter().all(|c| c.ok().is_some());
        let base = row[0].ok().map(|r| r.outcome.stats.cycles as f64);
        print!("{:10}", row[0].name());
        for (i, c) in row.iter().enumerate() {
            match (c.ok(), base) {
                (Some(r), Some(b)) => {
                    let ratio = r.outcome.stats.cycles as f64 / b;
                    if clean_row {
                        ratios[i].push(ratio);
                    }
                    print!("  {ratio:>8.3}");
                }
                _ => print!("  {:>8}", "--"),
            }
        }
        println!();
    }
    print!("{:10}", "Average");
    for r in &ratios {
        print!("  {:>8.3}", geomean(r));
    }
    println!();
    let bad = degraded_cells(&matrix);
    if !bad.is_empty() {
        println!();
        for d in &bad {
            println!(
                "degraded: {} under {} [{}] {}",
                d.name,
                d.variant.name(),
                d.kind,
                d.detail
            );
        }
    }
    if let Some(path) = json_path {
        write_bench_json(&path, &matrix, "figure7")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
