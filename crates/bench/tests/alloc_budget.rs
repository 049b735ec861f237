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
//! `smlc`'s global allocator counts the calls
//! ([`smlc::thread_allocations`]): every `alloc`, `alloc_zeroed` and
//! `realloc` on the calling thread, so the test harness's own threads
//! do not disturb the figure.

use smlc::{thread_allocations, Job, Session, Variant, VerifyIr};
use smlc_bench::benchmarks;

/// The budget: 11,281, the count once every type became a handle into
/// one type store per compile, plus 5%. Deep-copying types and
/// re-boxing every CPS node on every round had made it 30,136; sharing
/// types and reusing CPS nodes brought it to 17,962, snapshotting only
/// the functions some call names to 17,118, one LTY table per compile
/// instead of a shared sharded arena to 17,065, one deque of bindings
/// per straight-line CPS run to 15,906, one `Executable` per program to
/// 15,909, and per-variable arrays in the middle end with undo-logged
/// elaboration scopes to 13,466.
const MAX_ALLOCS_PER_COMPILE: u64 = 11_845;

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
