//! The twelve benchmark programs of the paper's evaluation (§6) and
//! helpers for running them under the six compiler variants.
//!
//! The originals averaged 1820 lines of full SML; these are smaller
//! workloads with the same names and operation mix (see DESIGN.md §3):
//! MBrot/Nucleic/Simple/Ray/BHut are floating-point intensive,
//! Sieve/KB-Comp use continuations and exceptions, VLIW/KB-Comp are
//! higher-order heavy, Life tests set membership with polymorphic
//! equality in its inner loop, Boyer rewrites terms, Lexgen chews
//! strings, and Yacc parses token streams.
//!
//! [`run_matrix`] fans the 12×6 grid out through
//! [`Session::compile_batch`] (each compile owns its LTY table, so
//! cells are scheduling-invariant), then
//! runs the compiled artifacts under the same parallel driver;
//! [`run_matrix_serial_of`] is the single-threaded reference the
//! differential test compares against — a one-worker [`Session`] over
//! the identical job list. [`matrix_json`] turns a result matrix into
//! the `BENCH_*.json` trajectory document described in
//! `docs/OBSERVABILITY.md`.
//!
//! A matrix is a grid of [`BenchCell`]s, not bare results: a cell whose
//! compilation errors, whose VM run traps, or whose worker panics is
//! isolated and recorded as [`BenchCell::Degraded`] — it shows up
//! explicitly in the trajectory document and is excluded from the
//! geomean summary, but it never kills the rest of the matrix (see
//! `docs/ROBUSTNESS.md`).

#![warn(missing_docs)]

use sml_cps::{convert, optimize, CpsConfig, OptConfig};
use sml_lambda::{translate, InternMode, LambdaConfig, LtyInterner};
use smlc::{
    par_map, result_tag, CompileError, CompileStats, Compiled, Job, Json, Metrics, Outcome,
    RunMetrics, Session, Variant, VmResult, METRICS_SCHEMA_VERSION,
};

/// The shared prelude compiled in front of every benchmark.
pub const PRELUDE: &str = include_str!("../benchmarks/prelude.sml");

/// One benchmark program.
#[derive(Clone, Copy, Debug)]
pub struct Benchmark {
    /// Display name (matching the paper's Figure 7 labels).
    pub name: &'static str,
    /// The SML source (without the prelude).
    pub body: &'static str,
}

impl Benchmark {
    /// The full source: prelude plus benchmark body.
    pub fn source(&self) -> String {
        format!("{PRELUDE}\n{}", self.body)
    }
}

/// All twelve benchmarks, in the paper's Figure 7 order.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        Benchmark {
            name: "BHut",
            body: include_str!("../benchmarks/bhut.sml"),
        },
        Benchmark {
            name: "Boyer",
            body: include_str!("../benchmarks/boyer.sml"),
        },
        Benchmark {
            name: "Sieve",
            body: include_str!("../benchmarks/sieve.sml"),
        },
        Benchmark {
            name: "KB-C",
            body: include_str!("../benchmarks/kbc.sml"),
        },
        Benchmark {
            name: "Lexgen",
            body: include_str!("../benchmarks/lexgen.sml"),
        },
        Benchmark {
            name: "Yacc",
            body: include_str!("../benchmarks/yacc.sml"),
        },
        Benchmark {
            name: "Simple",
            body: include_str!("../benchmarks/simple.sml"),
        },
        Benchmark {
            name: "Ray",
            body: include_str!("../benchmarks/ray.sml"),
        },
        Benchmark {
            name: "Life",
            body: include_str!("../benchmarks/life.sml"),
        },
        Benchmark {
            name: "VLIW",
            body: include_str!("../benchmarks/vliw.sml"),
        },
        Benchmark {
            name: "MBrot",
            body: include_str!("../benchmarks/mbrot.sml"),
        },
        Benchmark {
            name: "Nucleic",
            body: include_str!("../benchmarks/nucleic.sml"),
        },
    ]
}

/// The result of one benchmark under one variant.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// Compiler variant.
    pub variant: Variant,
    /// Compilation statistics.
    pub compile: CompileStats,
    /// Execution outcome.
    pub outcome: Outcome,
}

impl BenchResult {
    /// This cell as a [`Metrics`] snapshot (the per-variant schema of
    /// `smlc run --stats=json`).
    pub fn metrics(&self) -> Metrics {
        Metrics {
            variant: self.variant.name().to_owned(),
            compile: self.compile.clone(),
            run: Some(RunMetrics {
                result: result_tag(&self.outcome.result),
                stats: self.outcome.stats,
            }),
            dispatch: Some(self.outcome.dispatch),
            cache: None,
            sched: None,
            server: None,
        }
    }
}

/// A matrix cell that failed: the failure class and enough detail to
/// reproduce, kept in the trajectory instead of aborting the run.
#[derive(Clone, Debug)]
pub struct Degraded {
    /// Benchmark name.
    pub name: &'static str,
    /// Compiler variant.
    pub variant: Variant,
    /// Failure class: `"compile-error"`, `"vm-trap"`, `"panic"`, or
    /// `"output-divergence"`.
    pub kind: &'static str,
    /// Human-readable detail: the compile error, the trap, the panic
    /// message, or the variant the output diverged from.
    pub detail: String,
}

/// One cell of the benchmark matrix: a clean `Value` run, or an
/// isolated failure recorded in place.
#[derive(Clone, Debug)]
pub enum BenchCell {
    /// The benchmark compiled and halted normally.
    Ok(Box<BenchResult>),
    /// The cell failed; the failure is contained here.
    Degraded(Degraded),
}

impl BenchCell {
    /// The successful result, if this cell ran cleanly.
    pub fn ok(&self) -> Option<&BenchResult> {
        match self {
            BenchCell::Ok(r) => Some(r.as_ref()),
            BenchCell::Degraded(_) => None,
        }
    }

    /// The failure record, if this cell degraded.
    pub fn degraded(&self) -> Option<&Degraded> {
        match self {
            BenchCell::Ok(_) => None,
            BenchCell::Degraded(d) => Some(d),
        }
    }

    /// Benchmark name (present in both arms).
    pub fn name(&self) -> &'static str {
        match self {
            BenchCell::Ok(r) => r.name,
            BenchCell::Degraded(d) => d.name,
        }
    }

    /// Compiler variant (present in both arms).
    pub fn variant(&self) -> Variant {
        match self {
            BenchCell::Ok(r) => r.variant,
            BenchCell::Degraded(d) => d.variant,
        }
    }

    /// The trajectory-document JSON for this cell: full [`Metrics`] for
    /// a clean run, or an explicit `{"degraded": true, ...}` record.
    pub fn to_json(&self) -> Json {
        match self {
            BenchCell::Ok(r) => r.metrics().to_json(),
            BenchCell::Degraded(d) => Json::obj()
                .field("variant", d.variant.name())
                .field("degraded", true)
                .field("kind", d.kind)
                .field("detail", d.detail.as_str()),
        }
    }
}

/// Best-effort rendering of a panic payload.
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_owned()
    }
}

/// Turns one batch compilation result into a matrix cell by running it
/// under `session`'s VM configuration with full fault containment: the
/// compile error, the VM trap, or even a panic that escapes the VM all
/// come back as [`BenchCell::Degraded`] instead of propagating.
fn cell_of(
    session: &Session,
    b: &Benchmark,
    v: Variant,
    compiled: &Result<Compiled, CompileError>,
) -> BenchCell {
    let degraded = |kind, detail| {
        BenchCell::Degraded(Degraded {
            name: b.name,
            variant: v,
            kind,
            detail,
        })
    };
    let c = match compiled {
        Err(e) => return degraded("compile-error", e.to_string()),
        Ok(c) => c,
    };
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run(c)));
    match attempt {
        Err(payload) => degraded("panic", panic_detail(payload)),
        Ok(outcome) => match outcome.result {
            VmResult::Value(_) => BenchCell::Ok(Box::new(BenchResult {
                name: b.name,
                variant: v,
                compile: c.stats.clone(),
                outcome,
            })),
            ref trap => degraded("vm-trap", format!("{}: {trap:?}", result_tag(trap))),
        },
    }
}

/// Compiles and runs one benchmark under one variant with full fault
/// containment (see [`cell_of`]) in an ephemeral single-cell session.
pub fn run_cell(b: &Benchmark, v: Variant) -> BenchCell {
    let session = Session::with_variant(v);
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.compile(&b.source())
    }));
    match attempt {
        Err(payload) => BenchCell::Degraded(Degraded {
            name: b.name,
            variant: v,
            kind: "panic",
            detail: panic_detail(payload),
        }),
        Ok(compiled) => cell_of(&session, b, v, &compiled),
    }
}

/// The session the parallel matrix drivers use: default knobs plus an
/// artifact cache big enough that a repeated matrix (the warm pass of
/// the `cache` gate in `tests/gates.rs`) is served entirely from cache.
pub fn matrix_session() -> Session {
    Session::builder()
        .cache_capacity(256)
        .build()
        .expect("matrix session configuration is valid")
}

/// Runs every benchmark under every variant in parallel, checking that
/// all variants agree on the printed output (a differential-correctness
/// harness), and returns the full cell matrix indexed
/// `[benchmark][variant]`.
///
/// Cells are handed to worker threads through `Session::compile_batch`'s
/// atomic work queue; the matrix comes back in the same deterministic
/// order as [`run_matrix_serial_of`], and compilation/execution is fully
/// deterministic per cell (each compile owns its LTY table), so the
/// two produce identical outputs and counters. A cell
/// that fails in any way degrades in place (see [`cell_of`]); it never
/// aborts the matrix.
pub fn run_matrix() -> Vec<Vec<BenchCell>> {
    run_matrix_of(&benchmarks())
}

/// Parallel matrix run over an explicit benchmark list (see
/// [`run_matrix`]).
pub fn run_matrix_of(benches: &[Benchmark]) -> Vec<Vec<BenchCell>> {
    run_matrix_in(&matrix_session(), benches)
}

/// Single-threaded matrix run over an explicit benchmark list: the same
/// job list through a one-worker session.
pub fn run_matrix_serial_of(benches: &[Benchmark]) -> Vec<Vec<BenchCell>> {
    let session = Session::builder()
        .batch_workers(1)
        .cache_capacity(256)
        .build()
        .expect("serial session configuration is valid");
    run_matrix_in(&session, benches)
}

/// Matrix run over an explicit benchmark list through an explicit
/// session: one `compile_batch` over the benchmark×variant job grid,
/// then a run phase under the same worker count, then the differential
/// output check ([`mark_divergence`]). Repeated sources hit the
/// session's artifact cache; `session.cache_stats()` afterwards says
/// how often.
pub fn run_matrix_in(session: &Session, benches: &[Benchmark]) -> Vec<Vec<BenchCell>> {
    let variants = Variant::ALL;
    if benches.is_empty() {
        return Vec::new();
    }
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|b| {
            let src = b.source();
            variants.map(|v| Job::with_variant(src.clone(), v))
        })
        .collect();
    let compiled = session.compile_batch(&jobs);
    let cells: Vec<BenchCell> = par_map(&compiled, session.batch_workers(), |i, result| {
        cell_of(
            session,
            &benches[i / variants.len()],
            variants[i % variants.len()],
            result,
        )
    });
    let mut matrix: Vec<Vec<BenchCell>> = cells
        .chunks(variants.len())
        .map(|row| row.to_vec())
        .collect();
    mark_divergence(&mut matrix);
    matrix
}

/// The differential-correctness check: every clean variant of a
/// benchmark must print byte-identical output. The first clean cell of
/// a row is the reference; a clean cell that disagrees with it degrades
/// to an `"output-divergence"` record rather than killing the matrix.
fn mark_divergence(matrix: &mut [Vec<BenchCell>]) {
    for row in matrix {
        let Some((ref_idx, ref_out, ref_variant)) = row
            .iter()
            .enumerate()
            .find_map(|(i, c)| c.ok().map(|r| (i, r.outcome.output.clone(), r.variant)))
        else {
            continue;
        };
        for (i, cell) in row.iter_mut().enumerate() {
            if i == ref_idx {
                continue;
            }
            let diverged = cell.ok().is_some_and(|r| r.outcome.output != ref_out);
            if diverged {
                *cell = BenchCell::Degraded(Degraded {
                    name: cell.name(),
                    variant: cell.variant(),
                    kind: "output-divergence",
                    detail: format!("printed output differs from {}", ref_variant.name()),
                });
            }
        }
    }
}

/// All degraded cells of a matrix, in row-major order.
pub fn degraded_cells(matrix: &[Vec<BenchCell>]) -> Vec<&Degraded> {
    matrix
        .iter()
        .flat_map(|row| row.iter().filter_map(BenchCell::degraded))
        .collect()
}

/// The median of a sample: its upper middle element, so an even-sized
/// sample reports one of its own values.
///
/// # Examples
///
/// ```
/// assert_eq!(smlc_bench::median(&[3.0, 1.0, 2.0]), 2.0);
/// assert_eq!(smlc_bench::median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
/// ```
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Geometric mean of a slice of ratios.
///
/// The empty product convention applies: an empty slice has geomean 1.0
/// (not NaN), and a single element is (up to rounding) its own mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let s: f64 = xs.iter().map(|x| x.ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Renders a cell matrix as the `BENCH_*.json` trajectory document
/// (schema in `docs/OBSERVABILITY.md`): full per-cell [`Metrics`] for
/// clean runs, explicit `degraded` records for failed cells, plus the
/// Figure 8 geomean summary against the `sml.nrp` baseline.
///
/// A row contributes to the geomean summary only when every one of its
/// cells ran cleanly — a degraded baseline makes ratios meaningless,
/// and dropping whole rows keeps every per-variant geomean computed
/// over the same benchmark set. The summary's `degraded_cells` count
/// says how much was excluded; nothing is folded in silently.
pub fn matrix_json(matrix: &[Vec<BenchCell>], generator: &str) -> Json {
    let benches: Vec<Json> = matrix
        .iter()
        .map(|row| {
            let cells: Vec<Json> = row.iter().map(BenchCell::to_json).collect();
            Json::obj()
                .field("name", row[0].name())
                .field("variants", Json::Arr(cells))
        })
        .collect();

    let n_variants = Variant::ALL.len();
    let mut exec: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut alloc: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut code: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    let mut ctime: Vec<Vec<f64>> = vec![Vec::new(); n_variants];
    for row in matrix {
        let clean: Vec<&BenchResult> = row.iter().filter_map(BenchCell::ok).collect();
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
    let mut summary = Json::obj()
        .field("baseline", Variant::ALL[0].name())
        .field("degraded_cells", degraded_cells(matrix).len());
    for (i, v) in Variant::ALL.iter().enumerate() {
        summary = summary.field(
            v.name(),
            Json::obj()
                .field("exec_cycles", geomean(&exec[i]))
                .field("alloc_words", geomean(&alloc[i]))
                .field("code_size", geomean(&code[i]))
                .field("compile_time", geomean(&ctime[i])),
        );
    }

    Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("generator", generator)
        .field("benchmarks", Json::Arr(benches))
        .field("summary", summary)
}

/// Writes a matrix as a trajectory file (see [`matrix_json`]), returning
/// the path it wrote.
///
/// # Errors
///
/// Propagates I/O errors from writing `path`.
pub fn write_bench_json(
    path: &str,
    matrix: &[Vec<BenchCell>],
    generator: &str,
) -> std::io::Result<()> {
    let mut doc = matrix_json(matrix, generator).to_string_pretty();
    doc.push('\n');
    std::fs::write(path, doc)
}

/// Parses `--json=PATH` out of a figure binary's arguments, returning
/// the trajectory output path if one was given. Exits with status 2 on
/// any other argument, a bare `--json` included: there is no default
/// path, so a run writes only where it is told to.
pub fn json_path_from_args(args: impl Iterator<Item = String>) -> Option<String> {
    let mut path = None;
    for a in args {
        if let Some(p) = a.strip_prefix("--json=") {
            path = Some(p.to_owned());
        } else {
            eprintln!("unknown argument `{a}` (only --json=PATH)");
            std::process::exit(2);
        }
    }
    path
}

/// The program of the §4.5 hash-consing ablation (`ablation_hashcons`):
/// `n_apps` functor applications and abstractions against a deeply
/// nested signature (big SRECORD types) and a matching structure. Every
/// application performs abstraction matching, whose coercions
/// repeatedly compare large module types — the case the paper says took
/// "tens of minutes" without hash-consing.
pub fn functor_heavy_source(n_apps: usize) -> String {
    fn sig_level(depth: usize) -> String {
        let mut vals = String::new();
        for i in 0..6 {
            vals.push_str(&format!(
                "  val f{i} : (real * real) * (real -> real * real) -> real * real\n"
            ));
        }
        if depth == 0 {
            format!("sig\n{vals} end")
        } else {
            format!("sig\n{vals}  structure Sub : {}\nend", sig_level(depth - 1))
        }
    }
    fn str_level(depth: usize) -> String {
        let mut vals = String::new();
        for i in 0..6 {
            vals.push_str(&format!(
                "  fun f{i} (((a, b), g) : (real * real) * (real -> real * real)) = g (a + b)\n"
            ));
        }
        if depth == 0 {
            format!("struct\n{vals} end")
        } else {
            format!(
                "struct\n{vals}  structure Sub = {}\nend",
                str_level(depth - 1)
            )
        }
    }
    let mut out = format!(
        "signature BIG = {}\nstructure Impl = {}\n\
         functor F (X : BIG) = struct structure Y = X val g = X.f0 end\n",
        sig_level(5),
        str_level(5)
    );
    for i in 0..n_apps {
        out.push_str(&format!("structure A{i} = F (Impl)\n"));
        out.push_str(&format!("abstraction Z{i} : BIG = Impl\n"));
    }
    out
}

/// Compiles `src` through translation, CPS conversion and optimization
/// with its LTYs interned in `intern_mode`, as the §4.5 ablation does,
/// and returns the compile's LTY table.
///
/// # Panics
///
/// Panics if `src` does not parse or elaborate.
pub fn ablation_compile(src: &str, intern_mode: InternMode) -> LtyInterner {
    let prog = sml_ast::parse(src).expect("the ablation program parses");
    let elab = sml_elab::elaborate(&prog).expect("the ablation program elaborates");
    let cfg = LambdaConfig {
        intern_mode,
        ..LambdaConfig::default()
    };
    let mut tr = translate(&elab, &cfg);
    let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &CpsConfig::default());
    optimize(&mut cps, &OptConfig::default());
    tr.interner
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_empty_is_one() {
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn geomean_of_single_element_is_itself() {
        assert!((geomean(&[2.5]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_reciprocal_pair_is_one() {
        assert!((geomean(&[4.0, 0.25]) - 1.0).abs() < 1e-12);
    }

    /// The parallel matrix must be byte-identical to the serial
    /// reference — same outputs, same deterministic counters. Uses the
    /// two cheapest benchmarks to keep test time sane; figure7/figure8
    /// exercise the full grid.
    #[test]
    fn parallel_matrix_matches_serial() {
        let benches: Vec<Benchmark> = benchmarks()
            .into_iter()
            .filter(|b| b.name == "Sieve" || b.name == "Life")
            .collect();
        assert_eq!(benches.len(), 2);
        let par = run_matrix_of(&benches);
        let ser = run_matrix_serial_of(&benches);
        assert_eq!(par.len(), ser.len());
        for (prow, srow) in par.iter().zip(&ser) {
            for (pc, sc) in prow.iter().zip(srow) {
                let p = pc.ok().expect("benchmark cell should run cleanly");
                let s = sc.ok().expect("benchmark cell should run cleanly");
                assert_eq!(p.name, s.name);
                assert_eq!(p.variant, s.variant);
                assert_eq!(p.outcome.output, s.outcome.output);
                assert_eq!(p.outcome.stats.cycles, s.outcome.stats.cycles);
                assert_eq!(p.outcome.stats.alloc_words, s.outcome.stats.alloc_words);
                assert_eq!(
                    p.outcome.stats.cycles_by_class,
                    s.outcome.stats.cycles_by_class
                );
                assert_eq!(p.compile.code_size, s.compile.code_size);
                assert_eq!(p.compile.lty, s.compile.lty);
            }
        }
    }

    #[test]
    fn empty_matrix_serializes() {
        let doc = matrix_json(&[], "test").to_string_compact();
        assert!(doc.contains("\"benchmarks\":[]"));
        assert!(doc.contains(&format!("\"schema_version\":{METRICS_SCHEMA_VERSION}")));
        assert!(doc.contains("\"degraded_cells\":0"));
    }

    /// A cell whose compilation fails degrades in place; the rest of
    /// the matrix still runs, and the trajectory document records the
    /// failure explicitly while excluding the row from the geomeans.
    #[test]
    fn broken_benchmark_degrades_without_killing_the_matrix() {
        let benches = [
            Benchmark {
                name: "Bad",
                body: "val x = 1 + \"not an int\"",
            },
            Benchmark {
                name: "Sieve",
                body: include_str!("../benchmarks/sieve.sml"),
            },
        ];
        let matrix = run_matrix_of(&benches);
        assert_eq!(matrix.len(), 2);
        let bad = degraded_cells(&matrix);
        assert_eq!(bad.len(), Variant::ALL.len(), "every Bad cell degrades");
        assert!(bad
            .iter()
            .all(|d| d.name == "Bad" && d.kind == "compile-error"));
        assert!(matrix[1].iter().all(|c| c.ok().is_some()));

        let doc = matrix_json(&matrix, "test").to_string_compact();
        assert!(doc.contains("\"degraded\":true"));
        assert!(doc.contains("\"kind\":\"compile-error\""));
        assert!(doc.contains(&format!("\"degraded_cells\":{}", bad.len())));
        // The clean Sieve row is its own baseline, so every summary
        // ratio is computed and finite.
        assert!(!doc.contains("NaN"));
    }

    /// A trapping run (uncaught exception) is recorded as a `vm-trap`
    /// degraded cell with the stable metric tag in its detail.
    #[test]
    fn trapping_cell_is_recorded_as_vm_trap() {
        let b = Benchmark {
            name: "Boom",
            body: "exception Boom val _ = raise Boom",
        };
        let cell = run_cell(&b, Variant::ALL[0]);
        let d = cell.degraded().expect("raise Boom must degrade the cell");
        assert_eq!(d.kind, "vm-trap");
        assert!(d.detail.starts_with("uncaught:"), "detail: {}", d.detail);
    }
}
