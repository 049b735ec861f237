//! Scheduling-permutation differential test for batch compiles.
//!
//! The session's determinism contract (see `docs/ARCHITECTURE.md` §4)
//! says generated code is a pure function of `(source, variant,
//! config)` — independent of how many batch workers run, how the
//! scheduler interleaves them, in which order jobs arrive, and what the
//! session compiled before ("warm" below). This suite pins that
//! contract by compiling a mixed workload under every combination of
//! worker count {1, 2, 8} and several deterministically shuffled job
//! orders, comparing each artifact byte-for-byte against a serial
//! "cold" reference compiled in its own fresh session.
//!
//! Per-compile LTY statistics are compared too: each compile counts its
//! own LTY table, so they must be identical warm or cold, serial or
//! parallel.

use smlc::{Compiled, Job, Session, Variant};

/// Recursive polymorphic list workout: many re-instantiations.
const POLY_LISTS: &str = r#"
    fun map f nil = nil | map f (x :: r) = f x :: map f r
    fun len nil = 0 | len (_ :: r) = 1 + len r
    fun up 0 = nil | up n = n :: up (n - 1)
    val xs = map (fn x => x + 1) (up 40)
    val ys = map (fn x => (x, real x)) xs
    val _ = print (itos (len xs + len ys))
"#;

/// Float-heavy arithmetic: exercises `Real` kinds and boxing choices.
const FLOATS: &str = r#"
    fun sq (x : real) = x * x
    fun horner (a : real, b : real, c : real, x : real) = (a * x + b) * x + c
    fun lp (i, acc) = if i = 0 then acc
                      else lp (i - 1, acc + horner (1.0, 2.0, 3.0, sq (real i)))
    val _ = print (rtos (lp (30, 0.0)))
"#;

/// Nested records and selections: deep `SRecord`/`Record` structure.
const RECORDS: &str = r#"
    fun swap (a, b) = (b, a)
    val p = ((1, 2.0), ("x", (3, 4)))
    val q = swap p
    val (u, v) = q
    val _ = print (itos (#1 (#2 u)))
"#;

/// Higher-order functions and closures: arrow-kind churn.
const CLOSURES: &str = r#"
    fun compose f g = fn x => f (g x)
    fun twice f = compose f f
    val inc = fn x => x + 1
    val four = twice twice
    val _ = print (itos (four inc 0))
"#;

/// Exceptions and conditionals around allocation.
const EXCEPTIONS: &str = r#"
    exception Neg
    fun fact n = if n < 0 then raise Neg
                 else if n = 0 then 1 else n * fact (n - 1)
    val r = (fact 10) handle Neg => 0
    val _ = print (itos r)
"#;

const SOURCES: [&str; 5] = [POLY_LISTS, FLOATS, RECORDS, CLOSURES, EXCEPTIONS];

/// Variants mixed into the workload, so one batch interleaves distinct
/// representation choices.
const VARIANTS: [Variant; 3] = [Variant::Ffb, Variant::Nrp, Variant::Fp3];

/// The canonical byte string of a compiled artifact.
fn code_bytes(c: &Compiled) -> String {
    format!("{:?}", c.machine)
}

/// A deterministic LCG (Numerical Recipes constants) — the repo takes
/// no RNG dependency, and the shuffles must be reproducible anyway.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Fisher–Yates driven by the LCG.
fn shuffle<T>(xs: &mut [T], seed: u64) {
    let mut rng = Lcg(seed);
    for i in (1..xs.len()).rev() {
        let j = (rng.next() as usize) % (i + 1);
        xs.swap(i, j);
    }
}

/// One reference artifact per (source, variant): compiled serial and
/// cold, each in its own fresh session with the cache off.
fn references() -> Vec<(usize, Variant, Compiled)> {
    let mut out = Vec::new();
    for (si, src) in SOURCES.iter().enumerate() {
        for &v in &VARIANTS {
            let c = Session::builder()
                .variant(v)
                .cache(false)
                .build()
                .expect("valid")
                .compile(src)
                .expect("reference compiles");
            out.push((si, v, c));
        }
    }
    out
}

#[test]
fn warm_batches_are_byte_identical_across_workers_and_orders() {
    let refs = references();

    // Job indices 0..15 into `refs`; shuffled per permutation.
    let order: Vec<usize> = (0..refs.len()).collect();
    let seeds = [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003, 0x5eed_0004];

    for workers in [1usize, 2, 8] {
        for &seed in &seeds {
            let mut perm = order.clone();
            shuffle(&mut perm, seed);
            let jobs: Vec<Job> = perm
                .iter()
                .map(|&k| {
                    let (si, v, _) = refs[k];
                    Job::with_variant(SOURCES[si].to_owned(), v)
                })
                .collect();

            // One session per permutation; the cache is off so every
            // job really compiles.
            let session = Session::builder()
                .batch_workers(workers)
                .cache(false)
                .build()
                .expect("valid");
            let results = session.compile_batch(&jobs);
            assert_eq!(results.len(), jobs.len());

            for (slot, &k) in perm.iter().enumerate() {
                let (si, v, ref reference) = refs[k];
                let got = results[slot].as_ref().unwrap_or_else(|e| {
                    panic!("workers={workers} seed={seed:#x} job={si}/{v:?}: {e}")
                });
                let tag = format!(
                    "workers={workers} seed={seed:#x} src={si} variant={}",
                    v.name()
                );
                assert_eq!(
                    code_bytes(got),
                    code_bytes(reference),
                    "machine code diverged: {tag}"
                );
                assert_eq!(
                    got.stats.code_size, reference.stats.code_size,
                    "code size diverged: {tag}"
                );
                assert_eq!(
                    got.stats.lty, reference.stats.lty,
                    "per-compile LTY stats diverged: {tag}"
                );
                assert_eq!(
                    got.stats.coerce, reference.stats.coerce,
                    "coercion stats diverged: {tag}"
                );
            }
        }
    }
}

#[test]
fn warm_batch_runs_agree_with_cold_reference_runs() {
    // Beyond code bytes: actually execute the warm-batch artifacts and
    // compare observable behavior against the cold references.
    let refs = references();
    let jobs: Vec<Job> = refs
        .iter()
        .map(|&(si, v, _)| Job::with_variant(SOURCES[si].to_owned(), v))
        .collect();

    let session = Session::builder()
        .batch_workers(8)
        .cache(false)
        .build()
        .expect("valid");
    // Compile the batch twice; the second round is fully warm.
    let _ = session.compile_batch(&jobs);
    let results = session.compile_batch(&jobs);

    for (slot, (si, v, reference)) in refs.iter().enumerate() {
        let got = results[slot].as_ref().expect("compiles");
        let (a, b) = (session.run(got), session.run(reference));
        assert_eq!(a.output, b.output, "output diverged: src={si} {}", v.name());
        assert_eq!(a.result, b.result, "result diverged: src={si} {}", v.name());
        assert_eq!(
            a.stats.instrs,
            b.stats.instrs,
            "instruction count diverged: src={si} {}",
            v.name()
        );
    }
}
