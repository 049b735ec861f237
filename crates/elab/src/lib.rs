//! The elaborator (type checker) for the `smlc` type-based compiler.
//!
//! Turns raw abstract syntax into typed abstract syntax in which every
//! polymorphic occurrence carries its type instantiation and every module
//! boundary carries a thinning (paper §3). Also provides the
//! minimum-typing-derivations pass ([`minimum_typing`]).
//!
//! # Examples
//!
//! ```
//! let prog = sml_ast::parse("val compose = fn f => fn g => fn x => f (g x)").unwrap();
//! let elab = sml_elab::elaborate(&prog).unwrap();
//! assert!(elab.vars.len() > 0);
//! ```

#![warn(missing_docs)]

pub mod absyn;
pub mod elaborate;
pub mod env;
pub mod error;
pub mod modules;
pub mod mtd;

pub use absyn::{
    Access, CompTy, ConInfo, Export, ExportItem, Prim, StrTy, TDec, TExp, TExpKind, TPat, TPatKind,
    TRule, TStrExp, ThinItem, VarId, VarInfo, VarTable,
};
pub use elaborate::{elaborate, Elaboration};
pub use env::{builtin_env, BuiltinExns, Env, OvClass, TyFun, ValBind};
pub use error::{ElabError, ElabResult};
pub use mtd::minimum_typing;
