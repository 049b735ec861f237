//! Ablation for paper §4.5: compile-time effect of LTY hash-consing on
//! functor-heavy code. Compiles a program with many functor applications
//! against large signatures, with and without hash-consing.

use sml_lambda::InternMode;
use smlc_bench::{ablation_compile, functor_heavy_source};
use std::time::Instant;

fn compile_time(src: &str, mode: InternMode) -> (f64, usize, u64) {
    let t = Instant::now();
    let interner = ablation_compile(src, mode);
    (
        t.elapsed().as_secs_f64(),
        interner.len(),
        interner.deep_compares,
    )
}

fn main() {
    println!("Ablation (paper 4.5): LTY hash-consing vs structural types");
    println!("(the paper: without hash-consing, one functor application could take");
    println!(" tens of minutes and tens of megabytes; with it, sharing keeps the");
    println!(" static representation constant-size and equality constant-time)\n");
    println!("functor apps | type nodes (hash-consed) | type nodes (structural) | blowup | deep compares | time hc | time st");
    for n in [1usize, 4, 16, 64] {
        let src = functor_heavy_source(n);
        let (t_hc, ltys_hc, _) = compile_time(&src, InternMode::HashCons);
        let (t_st, ltys_st, cmps) = compile_time(&src, InternMode::Structural);
        println!(
            "{n:12} | {ltys_hc:>24} | {ltys_st:>23} | {:>5.0}x | {cmps:>13} | {t_hc:>6.3}s | {t_st:>6.3}s",
            ltys_st as f64 / ltys_hc as f64
        );
    }
    println!("\nWith hash-consing the number of distinct lambda types is constant in");
    println!("the number of functor applications; without it, type nodes (and the");
    println!("work to compare them) grow linearly — the paper's compile-time blowup.");
}
