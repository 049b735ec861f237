//! The typed CPS back end of the `smlc` compiler (paper §5).
//!
//! LEXP programs are converted to continuation-passing style with
//! per-variable CTY annotations, optimized (contraction, wrap/unwrap
//! cancellation, record-copy elimination, inline expansion), and closure-
//! converted into first-order form ready for code generation.
//!
//! # Examples
//!
//! ```
//! use sml_lambda::{translate, LambdaConfig};
//! use sml_cps::{convert, optimize, close, CpsConfig, OptConfig};
//! let prog = sml_ast::parse("val x = 1 + 2").unwrap();
//! let elab = sml_elab::elaborate(&prog).unwrap();
//! let mut tr = translate(&elab, &LambdaConfig::default());
//! let mut cps = convert(&tr.lexp, &mut tr.interner, tr.n_vars, &CpsConfig::default());
//! optimize(&mut cps, &OptConfig::default());
//! let closed = close(cps);
//! assert!(closed.entry.size() > 0);
//! ```

#![warn(missing_docs)]

pub mod closure;
pub mod convert;
pub mod cps;
pub mod optimize;
mod varmap;
pub mod verify;

pub use closure::{close, ClosedProgram};
pub use convert::{convert, CpsConfig, CpsProgram, SpreadMode};
pub use cps::{
    cty_of_lty, AllocOp, Bind, BranchOp, CVar, Cexp, Cty, Exit, FunDef, FunKind, LookOp, PureOp,
    SetOp, Value,
};
pub use optimize::{floor_div, floor_mod, optimize, optimize_instrumented, OptConfig, OptStats};
pub use verify::{verify_closed_program, verify_cps, CpsVerifySummary, CpsViolation};
