//! Lexer, parser, and raw abstract syntax for the SML subset compiled by
//! the `smlc` type-based compiler.
//!
//! This crate is the front half of the paper's Figure 3 pipeline: it turns
//! source text into raw abstract syntax. Elaboration, typed translation,
//! and the CPS back end live in the sibling crates `sml-elab`,
//! `sml-lambda`, and `sml-cps`.
//!
//! # Examples
//!
//! ```
//! let prog = sml_ast::parse("fun double x = x + x").unwrap();
//! assert_eq!(prog.decs.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod deps;
pub mod error;
pub mod fx;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod span;
pub mod token;

pub use ast::{
    Clause, DataBind, Dec, DecKind, ExBind, Exp, ExpKind, FctBind, FunBind, Pat, PatKind, Path,
    Program, Rule, SigBind, SigExp, Spec, StrBind, StrExp, Ty, TyKind, TypeBind,
};
pub use deps::{dec_names, DecNames};
pub use error::{ParseError, ParseResult};
pub use fx::{FxHashMap, FxHashSet};
pub use intern::Symbol;
pub use parser::{parse, parse_exp};
pub use print::{print_exp, print_program};
pub use span::Span;
