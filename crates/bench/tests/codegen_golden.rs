//! Pins the compiler's output: every (benchmark, variant) cell of the
//! 12×6 figure matrix, compiled with the IR verifiers off, must emit
//! exactly the code recorded in `codegen_golden.txt` — the same
//! instruction count and the same digest of its disassembly
//! (`MachineProgram: Display`, which prints every block, instruction
//! and string-pool entry).
//!
//! A compiler change that is meant to leave the emitted code alone
//! passes this test unchanged. A change that is meant to alter code
//! regenerates the file with
//!
//! ```sh
//! scripts/verify.sh --update-codegen-golden
//! ```
//!
//! and the diff of `codegen_golden.txt` shows which cells moved.

use smlc::fxhash::hash_bytes;
use smlc::{Job, Session, Variant, VerifyIr};
use smlc_bench::benchmarks;

const GOLDEN: &str = "tests/codegen_golden.txt";

/// One line per cell: `program variant code_size digest`.
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
    let mut out = String::from("# program variant code_size disasm_digest\n");
    for (i, c) in session.compile_batch(&jobs).into_iter().enumerate() {
        let (b, v) = (
            &benches[i / Variant::ALL.len()],
            Variant::ALL[i % Variant::ALL.len()],
        );
        let c = c.unwrap_or_else(|e| panic!("{} failed under {v}: {e}", b.name));
        let digest = hash_bytes(c.machine.to_string().as_bytes());
        out += &format!("{} {v} {} {digest:016x}\n", b.name, c.machine.code_size());
    }
    out
}

#[test]
fn emitted_code_matches_golden() {
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
        "emitted code differs from {GOLDEN} in {} cell(s):\n{}\n\
         (regenerate with scripts/verify.sh --update-codegen-golden if the change is intended)",
        moved.len(),
        moved.join("\n")
    );
}

/// Rewrites the golden file; run through
/// `scripts/verify.sh --update-codegen-golden`.
#[test]
#[ignore = "rewrites the golden file"]
fn regenerate_codegen_golden() {
    std::fs::write(GOLDEN, digests()).expect("golden file is writable");
}
