//! The typed lambda middle end of the `smlc` compiler (paper §4).
//!
//! Provides hash-consed lambda types (LTY) in one table per compile,
//! the typed lambda language (LEXP), the `coerce` compilation function
//! with memo-ized module coercions, pattern-match compilation, and the
//! translation from typed abstract syntax into LEXP with
//! representation-analysis coercions inserted at every abstraction and
//! instantiation site.
//!
//! # Examples
//!
//! ```
//! use sml_lambda::{translate, LambdaConfig};
//! let prog = sml_ast::parse("val x = 1.5 + 2.5").unwrap();
//! let elab = sml_elab::elaborate(&prog).unwrap();
//! let tr = translate(&elab, &LambdaConfig::default());
//! assert!(tr.lexp.size() > 0);
//! ```

#![deny(missing_docs)]

pub mod coerce;
pub mod exhaustive;
pub mod lexp;
pub mod lty;
pub mod matchcomp;
pub mod translate;
pub mod verify;

pub use coerce::{coerce_exp, is_identity, CoerceStats, CoercionCache, VarGen};
pub use exhaustive::{check_rules, irrefutable};
pub use lexp::{LVar, Lexp, Primop};
pub use lty::{InternMode, Lty, LtyInterner, LtyKind, LtyStats};
pub use translate::{translate, LambdaConfig, Translation};
pub use verify::{compat, verify_lexp, verify_translation, LexpVerifySummary, LexpViolation};
