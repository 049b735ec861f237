//! The compilation pipeline (the paper's Figure 3), end to end.
//!
//! The engine here is driven by [`crate::session::Session`], which is
//! the only entry point. When the session's [`VerifyIr`] mode is
//! active, each intermediate form is re-checked after the phase that
//! produced it (see `docs/VERIFY_IR.md`): the typed LEXP after
//! translation, the CPS term after conversion and after every
//! optimizer pass, the closed program after closure conversion, and
//! the bytecode after code generation.

use crate::component::ComponentStats;
use crate::config::Variant;
use crate::error::{CompileError, Violation};
use sml_cps::{close, convert, optimize, optimize_instrumented, OptConfig, OptStats};
use sml_lambda::{translate, CoerceStats, LtyStats};
use sml_vm::{codegen, Executable, Outcome, VmConfig};
use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;
use std::time::{Duration, Instant};

/// Resource budgets for one compilation (see `docs/ROBUSTNESS.md`).
/// Exceeding one yields [`CompileError::Limit`], never a crash; the
/// defaults are far above anything the paper's benchmark suite needs.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Largest accepted source text, in bytes.
    pub max_source_bytes: usize,
    /// Largest accepted LEXP after translation, in nodes.
    pub max_lexp_nodes: usize,
    /// Largest accepted CPS program before optimization, in operators.
    pub max_cps_ops: usize,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_source_bytes: 16 << 20,
            max_lexp_nodes: 4_000_000,
            max_cps_ops: 8_000_000,
        }
    }
}

/// When the typed-IR verification pipeline runs (see
/// `docs/VERIFY_IR.md`). Verification only ever *checks* — it never
/// rewrites an IR — so the emitted code is byte-identical across
/// modes; the modes trade compile time for earlier, phase-attributed
/// detection of compiler bugs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum VerifyIr {
    /// Never verify. Zero overhead; miscompilations surface only as
    /// downstream crashes or wrong answers.
    Off,
    /// Verify in debug builds, skip in release builds (the default:
    /// tests and development get the full checks, production builds
    /// pay nothing).
    #[default]
    Debug,
    /// Verify in every build.
    Always,
}

impl VerifyIr {
    /// Whether verification actually runs in this build.
    pub fn is_active(self) -> bool {
        match self {
            VerifyIr::Off => false,
            VerifyIr::Debug => cfg!(debug_assertions),
            VerifyIr::Always => true,
        }
    }

    /// The canonical spelling, as accepted by [`FromStr`].
    pub fn as_str(self) -> &'static str {
        match self {
            VerifyIr::Off => "off",
            VerifyIr::Debug => "debug",
            VerifyIr::Always => "always",
        }
    }
}

impl fmt::Display for VerifyIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error from parsing a [`VerifyIr`] name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseVerifyIrError {
    given: String,
}

impl fmt::Display for ParseVerifyIrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown verify-ir mode `{}` (expected off, debug, or always)",
            self.given
        )
    }
}

impl std::error::Error for ParseVerifyIrError {}

impl FromStr for VerifyIr {
    type Err = ParseVerifyIrError;

    fn from_str(s: &str) -> Result<VerifyIr, ParseVerifyIrError> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(VerifyIr::Off),
            "debug" => Ok(VerifyIr::Debug),
            "always" => Ok(VerifyIr::Always),
            _ => Err(ParseVerifyIrError {
                given: s.to_owned(),
            }),
        }
    }
}

/// Counters from one compilation's IR-verification runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct VerifyStats {
    /// The session's configured mode.
    pub mode: VerifyIr,
    /// LEXP type-checker runs (0 or 1).
    pub lexp_checks: u64,
    /// CPS invariant-checker runs: one after conversion, one per
    /// optimizer pass, one on the closed program.
    pub cps_checks: u64,
    /// Bytecode verifier runs (0 or 1); each run also verifies the
    /// pre-decoded threaded dispatch stream.
    pub bytecode_checks: u64,
    /// Wall-clock spent verifying, across all stages.
    pub time: Duration,
}

impl VerifyStats {
    /// Total verifier runs across all three stages.
    pub fn total_checks(&self) -> u64 {
        self.lexp_checks + self.cps_checks + self.bytecode_checks
    }
}

/// Extracts a printable message from a contained panic payload.
fn panic_msg(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_owned()
    }
}

/// Runs one phase with panic containment: a panic inside `f` becomes
/// [`CompileError::Internal`] carrying the phase name, so a compiler bug
/// is reported as a typed error instead of aborting the process.
/// (Stack overflow is not catchable this way — recursion-heavy phases
/// bound their depth up front; see the parser's nesting budget.)
fn contain<T>(phase: &'static str, f: impl FnOnce() -> T) -> Result<T, CompileError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| CompileError::Internal {
        phase,
        msg: panic_msg(p),
        violation: None,
    })
}

/// Wraps a verifier rejection as [`CompileError::Internal`] attributed
/// to the phase whose output failed, with the structured payload.
fn verify_error(
    phase: &'static str,
    stage: &'static str,
    pass: Option<u32>,
    rule: &'static str,
    detail: String,
) -> CompileError {
    let violation = Violation {
        stage,
        pass,
        rule,
        detail,
    };
    CompileError::Internal {
        phase,
        msg: format!("IR verification failed: {violation}"),
        violation: Some(violation),
    }
}

/// Per-phase and summary statistics of one compilation.
#[derive(Clone, Debug, Default)]
pub struct CompileStats {
    /// Wall-clock time of the whole compilation.
    pub compile_time: Duration,
    /// Wall-clock per phase: parse, elaborate (+MTD), translate, CPS
    /// convert, optimize, closure convert, codegen, and teardown (freeing
    /// the IR trees).
    pub phase_times: Vec<(&'static str, Duration)>,
    /// LEXP size after translation (nodes).
    pub lexp_size: usize,
    /// CPS size before optimization (operators).
    pub cps_size_before: usize,
    /// CPS size after optimization.
    pub cps_size_after: usize,
    /// Machine code size (instructions) — the paper's code-size metric.
    pub code_size: usize,
    /// Coercion statistics from translation.
    pub coerce: CoerceStats,
    /// Optimizer statistics.
    pub opt: OptStats,
    /// Statistics of this compile's LTY table: its types and intern
    /// calls. A pure function of the source and variant, and
    /// `interned == hashcons_misses` always holds.
    pub lty: LtyStats,
    /// IR-verification counters (all zero when verification is off).
    pub verify: VerifyStats,
    /// The v5 `components` object: always `enabled: false` with zero
    /// counters, because elaboration is whole-program. See
    /// [`ComponentStats`].
    pub components: ComponentStats,
    /// Front-end warnings (nonexhaustive matches, redundant rules).
    pub warnings: Vec<String>,
}

/// A compiled program ready to run.
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The machine code. A clone shares it: every run, tenant and cache
    /// hit of this compile uses one program and one pre-decoded stream.
    pub machine: Executable,
    /// Which variant produced it.
    pub variant: Variant,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Whether this artifact was served from a session's artifact cache
    /// rather than freshly compiled (in which case `stats` describes
    /// the original compilation, not this lookup).
    pub from_cache: bool,
}

/// Compiles `src` under `variant`. Every phase runs under panic
/// containment, so the only ways out are a [`Compiled`] program or a
/// typed [`CompileError`].
pub(crate) fn compile_engine(
    src: &str,
    variant: Variant,
    limits: &Limits,
    verify: VerifyIr,
) -> Result<Compiled, CompileError> {
    if src.len() > limits.max_source_bytes {
        return Err(CompileError::Limit {
            phase: "parse",
            msg: format!(
                "source of {} bytes exceeds the {}-byte budget",
                src.len(),
                limits.max_source_bytes
            ),
        });
    }
    let t0 = Instant::now();
    let mut phases = Vec::new();
    let verifying = verify.is_active();
    let mut vstats = VerifyStats {
        mode: verify,
        ..VerifyStats::default()
    };

    let t = Instant::now();
    let prog = contain("parse", || sml_ast::parse(src))?.map_err(|e| {
        if e.limit {
            CompileError::Limit {
                phase: "parse",
                msg: e.msg,
            }
        } else {
            CompileError::Parse(e, src.to_owned())
        }
    })?;
    phases.push(("parse", t.elapsed()));

    let t = Instant::now();
    let elab = contain("elaborate", || {
        let mut e = sml_elab::elaborate(&prog)?;
        if variant.uses_mtd() {
            sml_elab::minimum_typing(&mut e);
        }
        Ok(e)
    })?
    .map_err(|e: sml_elab::ElabError| CompileError::Elab(e, src.to_owned()))?;
    phases.push(("elaborate", t.elapsed()));

    let t = Instant::now();
    let lambda_cfg = variant.lambda_config();
    let mut tr = contain("translate", || translate(&elab, &lambda_cfg))?;
    phases.push(("translate", t.elapsed()));
    let lexp_size = tr.lexp.size();
    if lexp_size > limits.max_lexp_nodes {
        return Err(CompileError::Limit {
            phase: "translate",
            msg: format!(
                "LEXP of {lexp_size} nodes exceeds the {}-node budget",
                limits.max_lexp_nodes
            ),
        });
    }
    if verifying {
        let tv = Instant::now();
        let res = contain("translate", || sml_lambda::verify_translation(&mut tr))?;
        vstats.lexp_checks += 1;
        vstats.time += tv.elapsed();
        if let Err(v) = res {
            return Err(verify_error("translate", "lexp", None, v.rule, v.detail));
        }
    }

    let t = Instant::now();
    let mut cps = contain("cps-convert", || {
        convert(&tr.lexp, &mut tr.interner, tr.n_vars, &variant.cps_config())
    })?;
    phases.push(("cps-convert", t.elapsed()));
    let cps_size_before = cps.body.size();
    if cps_size_before > limits.max_cps_ops {
        return Err(CompileError::Limit {
            phase: "cps-convert",
            msg: format!(
                "CPS program of {cps_size_before} operators exceeds the {}-operator budget",
                limits.max_cps_ops
            ),
        });
    }
    if verifying {
        let tv = Instant::now();
        let res = contain("cps-convert", || sml_cps::verify_cps(&cps))?;
        vstats.cps_checks += 1;
        vstats.time += tv.elapsed();
        if let Err(v) = res {
            return Err(verify_error("cps-convert", "cps", None, v.rule, v.detail));
        }
    }

    let t = Instant::now();
    let opt_cfg = &OptConfig::default();
    let opt = if verifying {
        // Re-check the CPS term after every optimizer pass, so a bad
        // rewrite is pinned to the pass that introduced it.
        let checks = Cell::new(0u64);
        let vtime = Cell::new(Duration::ZERO);
        let res = contain("cps-optimize", || {
            optimize_instrumented(&mut cps, opt_cfg, |pass, p| {
                let tv = Instant::now();
                let r = sml_cps::verify_cps(p);
                checks.set(checks.get() + 1);
                vtime.set(vtime.get() + tv.elapsed());
                r.map(|_| ()).map_err(|v| (pass, v))
            })
        })?;
        vstats.cps_checks += checks.get();
        vstats.time += vtime.get();
        match res {
            Ok(s) => s,
            Err((pass, v)) => {
                return Err(verify_error(
                    "cps-optimize",
                    "cps",
                    Some(pass as u32),
                    v.rule,
                    v.detail,
                ));
            }
        }
    } else {
        contain("cps-optimize", || optimize(&mut cps, opt_cfg))?
    };
    phases.push(("cps-optimize", t.elapsed()));
    let cps_size_after = cps.body.size();

    let t = Instant::now();
    let closed = contain("closure-convert", || close(cps))?;
    phases.push(("closure-convert", t.elapsed()));
    if verifying {
        let tv = Instant::now();
        let res = contain("closure-convert", || {
            sml_cps::verify_closed_program(&closed)
        })?;
        vstats.cps_checks += 1;
        vstats.time += tv.elapsed();
        if let Err(v) = res {
            return Err(verify_error(
                "closure-convert",
                "cps",
                None,
                v.rule,
                v.detail,
            ));
        }
    }

    let t = Instant::now();
    let code = contain("codegen", || codegen(&closed))?;
    phases.push(("codegen", t.elapsed()));

    let lty = tr.interner.stats();
    let (coerce, warnings) = (tr.stats, tr.warnings);
    let t = Instant::now();
    drop((prog, elab, tr.lexp, tr.interner, closed));
    phases.push(("teardown", t.elapsed()));
    // The artifact's own copy is made once the IR is freed, so the
    // long-lived program lands in that memory rather than among the IR's
    // allocations, which codegen's output is scattered through.
    let machine = Executable::new(&code);
    drop(code);
    if verifying {
        let tv = Instant::now();
        let res = contain("codegen", || sml_vm::verify_bytecode(&machine))?;
        vstats.bytecode_checks += 1;
        if let Err(v) = res {
            vstats.time += tv.elapsed();
            return Err(verify_error("codegen", "bytecode", None, v.rule, v.detail));
        }
        // Also verify the executable's pre-decoded threaded stream
        // (round-trip, coordinate maps, fused-operand bounds, segment
        // boundaries and charges): the stream every threaded run of
        // this artifact executes.
        let res = contain("codegen", || machine.verify_threaded())?;
        vstats.time += tv.elapsed();
        if let Err(v) = res {
            return Err(verify_error("codegen", "bytecode", None, v.rule, v.detail));
        }
    }
    let stats = CompileStats {
        compile_time: t0.elapsed(),
        phase_times: phases,
        lexp_size,
        cps_size_before,
        cps_size_after,
        code_size: machine.code_size(),
        coerce,
        opt,
        lty,
        verify: vstats,
        components: ComponentStats::default(),
        warnings,
    };
    Ok(Compiled {
        machine,
        variant,
        stats,
        from_cache: false,
    })
}

impl Compiled {
    /// Runs the compiled program on the abstract machine under the
    /// producing variant's default VM configuration. Prefer
    /// [`crate::session::Session::run`], which honors the session's
    /// tuned VM configuration and fault overlay.
    pub fn run(&self) -> Outcome {
        self.machine.run(&self.variant.vm_config())
    }

    /// Runs with an explicit VM configuration.
    pub fn run_with(&self, cfg: &VmConfig) -> Outcome {
        self.machine.run(cfg)
    }
}
