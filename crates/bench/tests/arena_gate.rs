//! The shared LTY hash-cons arena: outcome-invisible, exactly
//! accounted, and no slower than per-compile tables.
//!
//! Two levels, one wall-time assertion each:
//!
//! **Grid level** — the full benchmark×variant job grid compiles with
//! the artifact cache off under two sessions: *cold*
//! (`reuse_types(false)`: every compile builds a private LTY table from
//! scratch, the pre-arena batch semantics) and *warm* (the default
//! session: all compiles share one concurrent arena, primed by an
//! unmeasured pass). Passes are interleaved cold/warm to cancel load
//! drift and compared by median. Interning is a small slice of
//! end-to-end compile time, so this is a **no-regression gate**: the
//! warm median must not lose to the cold median by more than a noise
//! allowance.
//!
//! **Intern level** — a replay microbenchmark isolates the layer the
//! arena actually changed. Each simulated compile interns the same
//! deterministic population of types (distinct kinds plus in-compile
//! repeats, shaped like real translation traffic). The cold
//! configuration gives every compile a fresh arena, so each distinct
//! kind pays the insert path (write lock, kind clones, slot push); the
//! warm configuration shares one resident arena, so the same touches
//! are read-lock probes. Here warm must **strictly beat** cold.
//!
//! The test also asserts that warm and cold grid artifacts are
//! byte-identical to a serial cold reference and that the arena
//! accounting balances.
//!
//! It is the only test in this file because it times: cargo runs test
//! binaries one at a time, so nothing else shares the CPU with it. It
//! is ignored in the dev profile; run it with
//!
//! ```sh
//! cargo test --release -p smlc-bench --test arena_gate
//! ```

use std::time::Instant;

use sml_lambda::{Lty, LtyArena, LtyKind};
use smlc::{CompileError, Compiled, Job, Session, Variant};
use smlc_bench::{benchmarks, median, Benchmark};

/// Measured grid passes per configuration (interleaved cold/warm).
const GRID_REPS: usize = 5;
/// Noise allowance for the grid-level no-regression gate.
const GRID_ALLOWANCE: f64 = 1.10;
/// Measured rounds of the intern-level replay.
const INTERN_ROUNDS: usize = 9;
/// Simulated compiles per intern-level round (the grid's job count).
const INTERN_COMPILES: usize = 72;
/// Distinct composite kinds each simulated compile interns.
const INTERN_DISTINCT: u32 = 300;

/// Runs `f`, returning its result and the elapsed wall-clock in ms.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The benchmark×variant job grid, in deterministic order.
fn job_grid(benches: &[Benchmark]) -> Vec<Job> {
    benches
        .iter()
        .flat_map(|b| {
            let src = b.source();
            Variant::ALL
                .iter()
                .map(move |&v| Job::with_variant(src.clone(), v))
        })
        .collect()
}

/// A cache-off session; `warm` picks shared-arena vs per-compile types.
fn session(warm: bool) -> Session {
    Session::builder()
        .cache(false)
        .reuse_types(warm)
        .build()
        .expect("bench session configuration is valid")
}

/// Compiles the grid, panicking on any per-job error (the benchmark
/// suite must be clean) and returning the artifacts.
fn compile_grid(s: &Session, jobs: &[Job]) -> Vec<Compiled> {
    let results: Vec<Result<Compiled, CompileError>> = s.compile_batch(jobs);
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("job {i} failed: {e}")))
        .collect()
}

/// One simulated compile's intern traffic: `INTERN_DISTINCT` distinct
/// composite kinds (every compile builds the *same* family, as
/// recompiles of the same sources do), each parent re-interned once
/// more to model in-compile repetition. Returns a checksum so the work
/// cannot be optimized away.
fn intern_compile(arena: &LtyArena) -> u64 {
    let int = arena.intern(&LtyKind::Int);
    let real = arena.intern(&LtyKind::Real);
    let mut t = int;
    let mut sum = 0u64;
    for i in 0..INTERN_DISTINCT {
        let kind = match i % 3 {
            0 => LtyKind::Arrow(t, real),
            1 => LtyKind::Record(vec![t, int, real]),
            _ => LtyKind::SRecord(vec![real, t]),
        };
        t = arena.intern(&kind);
        // The repeat: translation re-requests types it just built.
        let again: Lty = arena.intern(&kind);
        debug_assert_eq!(t, again);
        sum = sum.wrapping_add(u64::from(again.0));
    }
    sum
}

/// One intern-level round: `INTERN_COMPILES` simulated compiles. Cold
/// builds a fresh arena per compile (the `reuse_types(false)` cost
/// model); warm drives them all through the given resident arena.
fn intern_round(shared: Option<&LtyArena>) -> u64 {
    let mut sum = 0u64;
    for _ in 0..INTERN_COMPILES {
        sum = sum.wrapping_add(match shared {
            Some(arena) => intern_compile(arena),
            None => intern_compile(&LtyArena::new()),
        });
    }
    sum
}

#[test]
#[cfg_attr(debug_assertions, ignore = "times optimized compiles; release only")]
fn shared_arena_is_invisible_balanced_and_no_slower() {
    let jobs = job_grid(&benchmarks());

    // Reference artifacts: serial and cold, one fresh session per job —
    // maximally independent of batch scheduling.
    let reference: Vec<Compiled> = jobs
        .iter()
        .map(|j| {
            Session::builder()
                .variant(j.variant.unwrap_or(Variant::Ffb))
                .cache(false)
                .build()
                .expect("valid")
                .compile(&j.src)
                .expect("reference compiles")
        })
        .collect();

    // Grid level: interleaved cold/warm passes. The warm session is
    // primed by one unmeasured pass — the steady state a long-lived
    // session reaches.
    let cold_session = session(false);
    let warm_session = session(true);
    let _ = compile_grid(&warm_session, &jobs);
    let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
    let (mut cold_artifacts, mut warm_artifacts) = (None, None);
    for _ in 0..GRID_REPS {
        let (arts, ms) = timed(|| compile_grid(&cold_session, &jobs));
        cold_ms.push(ms);
        cold_artifacts = Some(arts);
        let (arts, ms) = timed(|| compile_grid(&warm_session, &jobs));
        warm_ms.push(ms);
        warm_artifacts = Some(arts);
    }
    let (warm_artifacts, cold_artifacts) = (warm_artifacts.unwrap(), cold_artifacts.unwrap());

    // Outcome invariance: warm and cold artifacts are byte-identical to
    // the serial cold reference, and per-compile stats agree.
    for ((w, c), r) in warm_artifacts.iter().zip(&cold_artifacts).zip(&reference) {
        assert_eq!(
            format!("{:?}", w.machine),
            format!("{:?}", r.machine),
            "warm batch artifact diverged from serial cold reference"
        );
        assert_eq!(
            format!("{:?}", c.machine),
            format!("{:?}", r.machine),
            "cold batch artifact diverged from serial cold reference"
        );
        assert_eq!(w.stats.lty, r.stats.lty, "per-compile LTY stats diverged");
        assert_eq!(w.stats.code_size, c.stats.code_size);
    }

    // Arena accounting must balance at quiescence.
    let arena_stats = warm_session
        .arena_stats()
        .expect("warm session owns an arena");
    assert_eq!(
        arena_stats.hits() + arena_stats.misses(),
        arena_stats.queries()
    );
    assert_eq!(arena_stats.misses(), arena_stats.resident() as u64);
    assert!(arena_stats.retries() <= arena_stats.hits());
    assert!(
        cold_session.arena_stats().is_none(),
        "reuse_types(false) must not build an arena"
    );

    // Intern level: interleaved rounds against a primed shared arena vs
    // fresh per-compile arenas.
    let shared = LtyArena::new();
    let _ = intern_round(Some(&shared)); // prime
    let (mut icold_ms, mut iwarm_ms) = (Vec::new(), Vec::new());
    let mut checksum = 0u64;
    for _ in 0..INTERN_ROUNDS {
        let (s, ms) = timed(|| intern_round(None));
        checksum ^= s;
        icold_ms.push(ms);
        let (s, ms) = timed(|| intern_round(Some(&shared)));
        checksum ^= s;
        iwarm_ms.push(ms);
    }
    assert_eq!(checksum, 0, "cold and warm replays must agree per round");

    let grid_cold = median(&cold_ms);
    let grid_warm = median(&warm_ms);
    let intern_cold = median(&icold_ms);
    let intern_warm = median(&iwarm_ms);
    assert!(
        grid_warm <= grid_cold * GRID_ALLOWANCE,
        "warm grid compiles regressed past the noise allowance: \
         warm {grid_warm:.1} ms vs cold {grid_cold:.1} ms"
    );
    assert!(
        intern_warm < intern_cold,
        "warm interning must beat cold interning: \
         warm {intern_warm:.3} ms vs cold {intern_cold:.3} ms"
    );
}
