//! Hindley-Milner semantic types for the `smlc` type-based compiler.
//!
//! Provides one type store per compile ([`TyStore`]): types are 4-byte
//! handles to its nodes, and type variables are entries of its variable
//! array, unified in place with levels-based let-generalization and
//! equality type variables (SML's `''a`). Also a datatype registry with
//! constructor-representation assignment, and anti-unification (used by
//! the minimum-typing-derivations pass).
//!
//! # Examples
//!
//! ```
//! use sml_types::{Ty, TyStore, TyconRegistry};
//! let mut store = TyStore::new();
//! let reg = TyconRegistry::with_builtins(&mut store);
//! let v = store.fresh_var(0);
//! let ints = store.list(Ty::INT);
//! store.unify(&reg, v, ints).unwrap();
//! assert_eq!(store.show(v).to_string(), "int list");
//! ```

#![warn(missing_docs)]

pub mod gen;
pub mod registry;
pub mod ty;
pub mod unify;

pub use gen::{AntiUnifier, Disagreement};
pub use registry::{assign_reps, certainly_boxed, ConDef, ConRep, DatatypeDef, TyconRegistry};
pub use ty::{
    label_cmp, sort_fields, EqProp, Generic, Scheme, Stamp, Tv, TvId, Ty, TyDisplay, TyKind,
    TyStore, Tycon, TyconKind,
};
pub use unify::{UnifyError, UnifyResult};
