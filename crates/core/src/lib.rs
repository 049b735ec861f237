//! `smlc` — a type-based compiler for a Standard ML subset, reproducing
//! Shao & Appel, *A Type-Based Compiler for Standard ML* (PLDI 1995).
//!
//! The crate wires the full pipeline of the paper's Figure 3: parsing,
//! elaboration with per-occurrence type instantiations, optional minimum
//! typing derivations, translation into the typed lambda language LEXP
//! with representation-analysis coercions, typed CPS conversion and
//! optimization, closure conversion, and code generation for an abstract
//! DECstation-class machine with a cycle-accounting interpreter.
//!
//! Six [`Variant`]s mirror the paper's measured compilers
//! (`sml.nrp` … `sml.fp3`).
//!
//! The entry point is a [`Session`] (see `docs/API.md`): it bundles the
//! configuration knobs, caches compiled artifacts by content, and drives
//! parallel batches.
//!
//! # Examples
//!
//! ```
//! use smlc::{Session, Variant, VmResult};
//! let program = "
//!     fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
//!     val result = fib 10
//! ";
//! let session = Session::with_variant(Variant::Ffb);
//! let compiled = session.compile(program).unwrap();
//! let outcome = session.run(&compiled);
//! assert_eq!(outcome.result, VmResult::Value(0)); // programs return unit
//! assert!(outcome.stats.cycles > 0);
//! // The second compile of the same program is a cache hit.
//! assert!(session.compile(program).unwrap().from_cache);
//! ```

#![warn(missing_docs)]

mod alloc;
pub mod component;
pub mod config;
pub mod error;
pub mod fxhash;
pub mod json;
pub mod metrics;
pub mod pipeline;
pub mod server;
pub mod session;

pub use alloc::thread_allocations;
pub use component::{partition, Component, ComponentGraph, ComponentStats};
pub use config::{ParseVariantError, Variant};
pub use error::{CompileError, ConfigError, Violation};
pub use json::{Json, JsonError};
pub use metrics::{error_json, result_tag, Metrics, RunMetrics, METRICS_SCHEMA_VERSION};
pub use pipeline::{CompileStats, Compiled, Limits, ParseVerifyIrError, VerifyIr, VerifyStats};
pub use server::{CompileServer, ServerStats};
pub use session::{CacheStats, Job, Session, SessionBuilder};
pub use sml_cps::OptConfig;
pub use sml_vm::{
    par_map, AdmissionError, Dispatch, DispatchStats, Executable, FaultInject, GcMode, InstrClass,
    MachineProgram, Outcome, RunStats, SchedConfigError, SchedPolicy, SchedStats, SchedulerBuilder,
    TenantOutcome, TenantReport, TenantSpec, VmConfig, VmResult, VmScheduler,
};
