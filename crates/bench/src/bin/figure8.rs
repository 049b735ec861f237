//! Regenerates the paper's Figure 8: geometric-mean ratios of execution
//! time, heap allocation, code size, and compilation time for the six
//! compilers (baseline `sml.nrp` = 1.00).
//!
//! ```sh
//! cargo run --release -p smlc-bench --bin figure8                      # table only
//! cargo run --release -p smlc-bench --bin figure8 -- --json=out.json   # + trajectory
//! ```
//!
//! Only rows where every variant ran cleanly contribute to the means;
//! degraded cells are listed after the table and recorded explicitly in
//! the JSON trajectory.

use smlc::Variant;
use smlc_bench::{degraded_cells, geomean, json_path_from_args, run_matrix, write_bench_json};

fn main() {
    let json_path = json_path_from_args(std::env::args().skip(1));
    let matrix = run_matrix();
    let n_variants = Variant::ALL.len();

    let mut exec: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut alloc: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut code: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut ctime: Vec<Vec<f64>> = vec![Vec::new(); n_variants];

    for row in &matrix {
        let clean: Vec<_> = row.iter().filter_map(|c| c.ok()).collect();
        if clean.len() != row.len() {
            continue;
        }
        let be = clean[0].outcome.stats.cycles as f64;
        let ba = clean[0].outcome.stats.alloc_words as f64;
        let bc = clean[0].compile.code_size as f64;
        let bt = clean[0].compile.compile_time.as_secs_f64();
        for (i, r) in clean.iter().enumerate() {
            exec[i].push(r.outcome.stats.cycles as f64 / be);
            alloc[i].push(r.outcome.stats.alloc_words as f64 / ba);
            code[i].push(r.compile.code_size as f64 / bc);
            ctime[i].push(r.compile.compile_time.as_secs_f64() / bt);
        }
    }

    println!("Figure 8: summary comparisons of resource usage (ratios vs sml.nrp)\n");
    print!("{:18}", "Program");
    for v in Variant::ALL {
        print!("  {:>8}", v.name());
    }
    println!();
    for (label, data) in [
        ("Execution time", &exec),
        ("Heap allocation", &alloc),
        ("Code size", &code),
        ("Compilation time", &ctime),
    ] {
        print!("{label:18}");
        for col in data.iter() {
            print!("  {:>8.2}", geomean(col));
        }
        println!();
    }
    let bad = degraded_cells(&matrix);
    if !bad.is_empty() {
        println!();
        println!("{} degraded cell(s) excluded from the means:", bad.len());
        for d in &bad {
            println!(
                "  {} under {} [{}] {}",
                d.name,
                d.variant.name(),
                d.kind,
                d.detail
            );
        }
    }
    if let Some(path) = json_path {
        write_bench_json(&path, &matrix, "figure8")
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {path}");
    }
}
