//! Pins how much the compiler allocates: one compile of each of the 72
//! (benchmark, variant) cells, on a fresh session with the IR verifiers
//! off, may make at most [`MAX_ALLOCS_PER_COMPILE`] heap allocations on
//! average.
//!
//! The count is a property of the program, not of the host: it repeats
//! exactly from run to run and is the same in the debug and release
//! profiles, so a change that adds copies to the front or middle end
//! fails here before any timer would notice it.
//!
//! It also pins that CPS conversion allocates in proportion to its
//! input: doubling a program's length may at most about double what
//! `sml_cps::convert` allocates.
//!
//! `smlc`'s global allocator counts the calls
//! ([`smlc::thread_allocations`]): every `alloc`, `alloc_zeroed` and
//! `realloc` on the calling thread, so the test harness's own threads
//! do not disturb the figure.

use sml_cps::CpsConfig;
use sml_lambda::LambdaConfig;
use smlc::{thread_allocations, Job, Session, Variant, VerifyIr};
use smlc_bench::benchmarks;

/// The budget: 9,836, the count once CPS conversion read its input in
/// place and handed each value's type to its consumer, plus 5%.
/// Deep-copying types and re-boxing every CPS node on every round had
/// made it 30,136; sharing types and reusing CPS nodes brought it to
/// 17,962, snapshotting only the functions some call names to 17,118,
/// one LTY table per compile instead of a shared sharded arena to
/// 17,065, one deque of bindings per straight-line CPS run to 15,906,
/// one `Executable` per program to 15,909, per-variable arrays in the
/// middle end with undo-logged elaboration scopes to 13,466, and every
/// type a handle into one type store per compile to 11,281.
const MAX_ALLOCS_PER_COMPILE: u64 = 10_328;

/// Compiles every job on its own fresh session and returns this
/// thread's (allocations, bytes) over the whole pass.
fn compile_all(jobs: &[Job]) -> (u64, u64) {
    let before = thread_allocations();
    for job in jobs {
        let session = Session::builder()
            .verify_ir(VerifyIr::Off)
            .build()
            .expect("default knobs are valid");
        if let Err(e) = session.compile_job(job) {
            panic!("a figure program failed to compile: {e}");
        }
    }
    let after = thread_allocations();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn compiles_stay_inside_the_allocation_budget() {
    let jobs: Vec<Job> = benchmarks()
        .iter()
        .flat_map(|b| Variant::ALL.map(|v| Job::with_variant(b.source(), v)))
        .collect();
    // The symbol interner is process-global: the first pass interns
    // every name, later passes only look them up.
    compile_all(&jobs);
    let (allocs, bytes) = compile_all(&jobs);
    let n = jobs.len() as u64;
    let per_compile = allocs / n;
    eprintln!(
        "{per_compile} allocations and {} bytes per compile over {n} compiles",
        bytes / n
    );
    assert!(
        per_compile <= MAX_ALLOCS_PER_COMPILE,
        "{per_compile} allocations per compile, over the budget of {MAX_ALLOCS_PER_COMPILE}"
    );
}

/// The heap allocations `sml_cps::convert` makes on the translation of
/// `src` under the default configurations.
fn convert_allocations(src: &str) -> u64 {
    let prog = sml_ast::parse(src).expect("parses");
    let elab = sml_elab::elaborate(&prog).expect("elaborates");
    let mut tr = sml_lambda::translate(&elab, &LambdaConfig::default());
    let before = thread_allocations().0;
    sml_cps::convert(&tr.lexp, &mut tr.interner, tr.n_vars, &CpsConfig::default());
    thread_allocations().0 - before
}

/// `if x = 1 then g 1 else if x = 2 then g 2 else …` with `n` tests:
/// every `else` holds the rest of the chain.
fn if_chain(n: usize) -> String {
    let mut body = String::from("0");
    for i in (1..=n).rev() {
        body = format!("if x = {i} then g {i} else {body}");
    }
    format!("fun g i = i + 1\nfun h x = {body}\nval r = h 3")
}

/// `(print "a"; … ; print "a")` with `n` expressions, which translation
/// nests to the left: each `;` binds everything before it.
fn sequence(n: usize) -> String {
    format!("val s = ({})", vec!["print \"a\""; n].join("; "))
}

#[test]
fn conversion_allocates_in_proportion_to_its_input() {
    // The chains nest as deep as they are long; the default 2 MiB test
    // thread is too small for the longer ones in the debug profile.
    let counts = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(|| {
            [if_chain(15), if_chain(30), sequence(500), sequence(1_000)]
                .map(|src| convert_allocations(&src))
        })
        .expect("spawns")
        .join()
        .expect("converts");
    eprintln!("convert allocations for 15/30 ifs and 500/1,000 `;`: {counts:?}");
    for pair in counts.chunks(2) {
        assert!(
            pair[1] * 2 <= pair[0] * 5,
            "doubling the input took convert from {} to {} allocations",
            pair[0],
            pair[1]
        );
    }
}
