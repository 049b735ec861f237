//! Pins the compiler's output: every (benchmark, variant) cell of the
//! 12×6 figure matrix, compiled with the IR verifiers off, must emit
//! exactly the code recorded in `codegen_golden.txt` — the same
//! instruction count and the same digest of its disassembly
//! (`MachineProgram: Display`, which prints every block, instruction
//! and string-pool entry).
//!
//! The same cells compiled under `VerifyIr::Always` must emit the same
//! code: verification only ever checks an IR, it never rewrites one.
//! Every `Off` compile runs zero verifier checks and every `Always`
//! compile runs some.
//!
//! The middle end is pinned beside it: the `Off` batch's CPS sizes
//! before and after optimization and the six optimizer counters of
//! every cell must equal `middle_end_golden.txt`, so a refactor of the
//! CPS phases cannot move `cps.size_*` or `opt.*` without failing here.
//!
//! A compiler change that is meant to leave the emitted code alone
//! passes this test unchanged. A change that is meant to alter code
//! regenerates both files with
//!
//! ```sh
//! scripts/verify.sh --update-codegen-golden
//! ```
//!
//! and their diffs show which cells moved.

use smlc::fxhash::hash_bytes;
use smlc::{Job, Session, Variant, VerifyIr};
use smlc_bench::benchmarks;

const GOLDEN: &str = "tests/codegen_golden.txt";
const MIDDLE_END_GOLDEN: &str = "tests/middle_end_golden.txt";

/// Two documents with one line per cell, compiled under `mode`: the
/// emitted code (`program variant code_size digest`) and the middle
/// end (`program variant` then the CPS sizes and optimizer counters).
fn digests(mode: VerifyIr) -> (String, String) {
    let session = Session::builder()
        .verify_ir(mode)
        .cache(false)
        .build()
        .expect("default knobs are valid");
    let benches = benchmarks();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|b| Variant::ALL.map(|v| Job::with_variant(b.source(), v)))
        .collect();
    let mut out = String::from("# program variant code_size disasm_digest\n");
    let mut middle = String::from(
        "# program variant cps_size_before cps_size_after rounds beta inlined \
         wrap_cancelled record_copies dead\n",
    );
    for (i, c) in session.compile_batch(&jobs).into_iter().enumerate() {
        let (b, v) = (
            &benches[i / Variant::ALL.len()],
            Variant::ALL[i % Variant::ALL.len()],
        );
        let c = c.unwrap_or_else(|e| panic!("{} failed under {v}: {e}", b.name));
        let checks = c.stats.verify.total_checks();
        assert_eq!(
            checks == 0,
            mode == VerifyIr::Off,
            "{} under {v}: VerifyIr::{mode:?} ran {checks} verifier checks",
            b.name
        );
        let digest = hash_bytes(c.machine.to_string().as_bytes());
        out += &format!("{} {v} {} {digest:016x}\n", b.name, c.machine.code_size());
        let (s, o) = (&c.stats, &c.stats.opt);
        middle += &format!(
            "{} {v} {} {} {} {} {} {} {} {}\n",
            b.name,
            s.cps_size_before,
            s.cps_size_after,
            o.rounds,
            o.beta,
            o.inlined,
            o.wrap_cancelled,
            o.record_copies,
            o.dead
        );
    }
    (out, middle)
}

/// The cells whose lines differ between `want` and `got`, each as a
/// want/got pair.
fn moved(want: &str, got: &str) -> Vec<String> {
    want.lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n  got  {g}"))
        .collect()
}

#[test]
fn emitted_code_matches_golden() {
    let want = std::fs::read_to_string(GOLDEN).expect("golden file is committed");
    let (got, got_middle) = digests(VerifyIr::Off);
    let moved_off = moved(&want, &got);
    assert!(
        moved_off.is_empty() && want.lines().count() == got.lines().count(),
        "emitted code differs from {GOLDEN} in {} cell(s):\n{}\n\
         (regenerate with scripts/verify.sh --update-codegen-golden if the change is intended)",
        moved_off.len(),
        moved_off.join("\n")
    );
    let want_middle =
        std::fs::read_to_string(MIDDLE_END_GOLDEN).expect("middle-end golden file is committed");
    let moved_middle = moved(&want_middle, &got_middle);
    assert!(
        moved_middle.is_empty() && want_middle.lines().count() == got_middle.lines().count(),
        "CPS sizes or optimizer counters differ from {MIDDLE_END_GOLDEN} in {} cell(s):\n{}\n\
         (regenerate with scripts/verify.sh --update-codegen-golden if the change is intended)",
        moved_middle.len(),
        moved_middle.join("\n")
    );
    // Both digests cover the same cells, so their line counts agree.
    let moved_always = moved(&got, &digests(VerifyIr::Always).0);
    assert!(
        moved_always.is_empty(),
        "VerifyIr::Always changed the emitted code in {} cell(s):\n{}",
        moved_always.len(),
        moved_always.join("\n")
    );
}

/// Rewrites both golden files; run through
/// `scripts/verify.sh --update-codegen-golden`.
#[test]
#[ignore = "rewrites the golden files"]
fn regenerate_codegen_golden() {
    let (code, middle) = digests(VerifyIr::Off);
    std::fs::write(GOLDEN, code).expect("golden file is writable");
    std::fs::write(MIDDLE_END_GOLDEN, middle).expect("middle-end golden file is writable");
}
