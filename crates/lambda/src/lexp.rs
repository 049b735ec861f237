//! The typed lambda language LEXP (paper §4.1).
//!
//! A simply-typed, call-by-value lambda language: lambda, application,
//! constants, records and selection, a typed `WRAP`/`UNWRAP` pair for
//! representation coercions, exceptions, and saturated primitive
//! applications. Every binder is annotated with an [`Lty`]; the types of
//! all other expressions are computed bottom-up ([`type_of`]).

use crate::lty::{Lty, LtyInterner, LtyKind};
use sml_ast::FxHashMap;

/// A lambda-language variable.
pub type LVar = u32;

/// Primitive operators of the lambda language (and of the CPS language
/// after conversion).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Primop {
    IAdd,
    ISub,
    IMul,
    IDiv,
    IMod,
    INeg,
    ILt,
    ILe,
    IGt,
    IGe,
    IEq,
    INe,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    FLt,
    FLe,
    FGt,
    FGe,
    FEq,
    FNe,
    FSqrt,
    FSin,
    FCos,
    FAtan,
    FExp,
    FLn,
    Floor,
    IntToReal,
    StrSize,
    StrSub,
    StrCat,
    StrEq,
    StrNe,
    StrLt,
    StrLe,
    StrGt,
    StrGe,
    IntToString,
    RealToString,
    /// Structural equality on standard-representation objects (the slow,
    /// polymorphic fallback).
    PolyEq,
    MakeRef,
    Deref,
    Assign,
    /// Assignment known to store a non-pointer: skips the generational
    /// write barrier (paper §4.4, footnote 4).
    UnboxedAssign,
    ArrayMake,
    ArraySub,
    ArrayUpdate,
    /// Array update known to store a non-pointer.
    UnboxedArrayUpdate,
    ArrayLength,
    Callcc,
    Throw,
    Print,
    /// Pointer identity (used for exception-tag dispatch).
    PtrEq,
    /// Runtime boxity test (pointer vs tagged integer).
    IsBoxed,
}

impl Primop {
    /// The operator's argument/result lambda types.
    /// `Callcc`/`Throw` have context-dependent results and are handled
    /// specially by the checker.
    pub fn sig(self, i: &mut LtyInterner) -> (Vec<Lty>, Lty) {
        use Primop::*;
        let int = i.int();
        let real = i.real();
        let boxed = i.boxed();
        let rb = i.rboxed();
        match self {
            IAdd | ISub | IMul | IDiv | IMod => (vec![int, int], int),
            INeg => (vec![int], int),
            ILt | ILe | IGt | IGe | IEq | INe => (vec![int, int], int),
            FAdd | FSub | FMul | FDiv => (vec![real, real], real),
            FNeg | FSqrt | FSin | FCos | FAtan | FExp | FLn => (vec![real], real),
            FLt | FLe | FGt | FGe | FEq | FNe => (vec![real, real], int),
            Floor => (vec![real], int),
            IntToReal => (vec![int], real),
            StrSize => (vec![boxed], int),
            StrSub => (vec![boxed, int], int),
            StrCat => (vec![boxed, boxed], boxed),
            StrEq | StrNe | StrLt | StrLe | StrGt | StrGe => (vec![boxed, boxed], int),
            IntToString => (vec![int], boxed),
            RealToString => (vec![real], boxed),
            PolyEq => (vec![boxed, boxed], int),
            MakeRef => (vec![rb], boxed),
            Deref => (vec![boxed], rb),
            Assign | UnboxedAssign => (vec![boxed, rb], int),
            ArrayMake => (vec![int, rb], boxed),
            ArraySub => (vec![boxed, int], rb),
            ArrayUpdate | UnboxedArrayUpdate => (vec![boxed, int, rb], int),
            ArrayLength => (vec![boxed], int),
            Callcc => {
                let f = i.arrow(boxed, boxed);
                (vec![f], boxed)
            }
            Throw => (vec![boxed, rb], rb),
            Print => (vec![boxed], int),
            PtrEq => (vec![boxed, boxed], int),
            IsBoxed => (vec![boxed], int),
        }
    }

    /// True if the operator has an observable effect (must not be
    /// dead-code eliminated or reordered).
    pub fn has_effect(self) -> bool {
        use Primop::*;
        matches!(
            self,
            IDiv | IMod // can be preceded by an explicit zero test, but keep conservative
                | MakeRef
                | Assign
                | UnboxedAssign
                | ArrayMake
                | ArraySub // bounds are pre-checked, but keep ordering
                | ArrayUpdate
                | UnboxedArrayUpdate
                | Deref
                | Callcc
                | Throw
                | Print
        )
    }
}

/// A typed lambda expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Lexp {
    /// Variable reference.
    Var(LVar),
    /// Integer constant (also chars, bools, unit, constant constructors).
    Int(i64),
    /// Real constant.
    Real(f64),
    /// String constant.
    Str(String),
    /// `fn (v : t) => body`, annotated with the declared result type
    /// (callers and the CPS converter must agree on the result layout).
    Fn(LVar, Lty, Lty, Box<Lexp>),
    /// Application.
    App(Box<Lexp>, Box<Lexp>),
    /// Mutually recursive function definitions; each body must be a
    /// [`Lexp::Fn`] and the annotation is its arrow type.
    Fix(Vec<(LVar, Lty, Lexp)>, Box<Lexp>),
    /// `let v = e1 in e2`.
    Let(LVar, Box<Lexp>, Box<Lexp>),
    /// Record construction (fields in order).
    Record(Vec<Lexp>),
    /// Structure-record construction (module objects).
    SRecord(Vec<Lexp>),
    /// Field selection.
    Select(usize, Box<Lexp>),
    /// Saturated primitive application.
    PrimApp(Primop, Vec<Lexp>),
    /// Two-way branch on a boolean integer.
    If(Box<Lexp>, Box<Lexp>, Box<Lexp>),
    /// Integer dispatch with optional default.
    SwitchInt(Box<Lexp>, Vec<(i64, Lexp)>, Option<Box<Lexp>>),
    /// `WRAP(t, e)`: box a value of type `t` into one word (paper §4.1).
    Wrap(Lty, Box<Lexp>),
    /// `UNWRAP(t, e)`: unbox one word into a value of type `t`.
    Unwrap(Lty, Box<Lexp>),
    /// Raise an exception; annotated with the (arbitrary) result type.
    Raise(Box<Lexp>, Lty),
    /// `handle`: the second expression is the handler function
    /// `exn -> t`.
    Handle(Box<Lexp>, Box<Lexp>),
}

impl Lexp {
    /// Convenience: unit value.
    pub fn unit() -> Lexp {
        Lexp::Int(0)
    }

    /// Number of AST nodes (a rough code-size metric for the middle end).
    pub fn size(&self) -> usize {
        match self {
            Lexp::Var(_) | Lexp::Int(_) | Lexp::Real(_) | Lexp::Str(_) => 1,
            Lexp::Fn(_, _, _, b) => 1 + b.size(),
            Lexp::App(f, a) => 1 + f.size() + a.size(),
            Lexp::Fix(fs, b) => 1 + b.size() + fs.iter().map(|(_, _, e)| e.size()).sum::<usize>(),
            Lexp::Let(_, a, b) => 1 + a.size() + b.size(),
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => {
                1 + es.iter().map(Lexp::size).sum::<usize>()
            }
            Lexp::Select(_, e) | Lexp::Wrap(_, e) | Lexp::Unwrap(_, e) | Lexp::Raise(e, _) => {
                1 + e.size()
            }
            Lexp::If(c, t, e) => 1 + c.size() + t.size() + e.size(),
            Lexp::SwitchInt(s, arms, d) => {
                1 + s.size()
                    + arms.iter().map(|(_, e)| e.size()).sum::<usize>()
                    + d.as_ref().map_or(0, |e| e.size())
            }
            Lexp::Handle(e, h) => 1 + e.size() + h.size(),
        }
    }
}

/// Checks whether two lambda types are compatible at a value flow edge.
///
/// `BOXED` and `RBOXED` are one-word types interchangeable with any other
/// one-word type (the coercions that make this safe are explicit `WRAP`/
/// `UNWRAP` nodes). The crucial invariant is that `REAL` (an unboxed
/// float, living in float registers) never flows into a one-word context
/// without a `WRAP`.
pub fn compat(i: &mut LtyInterner, a: Lty, b: Lty) -> bool {
    if i.same(a, b) {
        return true;
    }
    if matches!(i.kind(a), LtyKind::Bottom) || matches!(i.kind(b), LtyKind::Bottom) {
        return true;
    }
    let a_word = i.is_word(a);
    let b_word = i.is_word(b);
    let a_box = matches!(i.kind(a), LtyKind::Boxed | LtyKind::RBoxed);
    let b_box = matches!(i.kind(b), LtyKind::Boxed | LtyKind::RBoxed);
    if (a_box && b_word) || (b_box && a_word) {
        return true;
    }
    match (i.kind(a).clone(), i.kind(b).clone()) {
        (LtyKind::Arrow(a1, r1), LtyKind::Arrow(a2, r2)) => compat(i, a1, a2) && compat(i, r1, r2),
        (LtyKind::Record(x), LtyKind::Record(y)) | (LtyKind::SRecord(x), LtyKind::SRecord(y)) => {
            x.len() == y.len() && x.iter().zip(&y).all(|(p, q)| compat(i, *p, *q))
        }
        _ => false,
    }
}

/// Computes (and checks) the type of `e` under `env`.
///
/// # Errors
///
/// Returns a description of the first internal type inconsistency; this
/// indicates a compiler bug, and the tests use it as an invariant check
/// after translation and after each optimization.
pub fn type_of(
    e: &Lexp,
    env: &mut FxHashMap<LVar, Lty>,
    i: &mut LtyInterner,
) -> Result<Lty, String> {
    match e {
        Lexp::Var(v) => env
            .get(v)
            .copied()
            .ok_or_else(|| format!("unbound lvar {v}")),
        Lexp::Int(_) => Ok(i.int()),
        Lexp::Real(_) => Ok(i.real()),
        Lexp::Str(_) => Ok(i.boxed()),
        Lexp::Fn(v, t, r, b) => {
            env.insert(*v, *t);
            let bt = type_of(b, env, i)?;
            if !compat(i, bt, *r) {
                return Err(format!(
                    "fn body has {} but declares result {}",
                    i.show(bt),
                    i.show(*r)
                ));
            }
            Ok(i.arrow(*t, *r))
        }
        Lexp::App(f, a) => {
            let ft = type_of(f, env, i)?;
            let at = type_of(a, env, i)?;
            match *i.kind(ft) {
                LtyKind::Arrow(p, r) => {
                    if !compat(i, at, p) {
                        return Err(format!(
                            "application argument {} does not match parameter {}",
                            i.show(at),
                            i.show(p)
                        ));
                    }
                    Ok(r)
                }
                LtyKind::Boxed | LtyKind::RBoxed => Ok(i.rboxed()),
                _ => Err(format!("applying non-function of type {}", i.show(ft))),
            }
        }
        Lexp::Fix(fs, b) => {
            for (v, t, _) in fs {
                env.insert(*v, *t);
            }
            for (v, t, body) in fs {
                let bt = type_of(body, env, i)?;
                if !compat(i, bt, *t) {
                    return Err(format!(
                        "fix binding {v}: declared {} but body has {}",
                        i.show(*t),
                        i.show(bt)
                    ));
                }
            }
            type_of(b, env, i)
        }
        Lexp::Let(v, a, b) => {
            let at = type_of(a, env, i)?;
            env.insert(*v, at);
            type_of(b, env, i)
        }
        Lexp::Record(es) => {
            let ts = es
                .iter()
                .map(|e| type_of(e, env, i))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(i.record(ts))
        }
        Lexp::SRecord(es) => {
            let ts = es
                .iter()
                .map(|e| type_of(e, env, i))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(i.srecord(ts))
        }
        Lexp::Select(idx, e) => {
            let t = type_of(e, env, i)?;
            match i.kind(t).clone() {
                LtyKind::Record(fs) | LtyKind::SRecord(fs) => fs
                    .get(*idx)
                    .copied()
                    .ok_or_else(|| format!("select {idx} out of bounds for {}", i.show(t))),
                LtyKind::PRecord(fs) => fs
                    .iter()
                    .find(|(s, _)| s == idx)
                    .map(|(_, t)| *t)
                    .ok_or_else(|| format!("select {idx} not in partial record")),
                LtyKind::Boxed | LtyKind::RBoxed => Ok(i.rboxed()),
                _ => Err(format!("select from non-record {}", i.show(t))),
            }
        }
        Lexp::PrimApp(op, es) => {
            let ts = es
                .iter()
                .map(|e| type_of(e, env, i))
                .collect::<Result<Vec<_>, _>>()?;
            let (want, res) = op.sig(i);
            if want.len() != ts.len() {
                return Err(format!("{op:?} arity mismatch"));
            }
            for (got, want) in ts.iter().zip(&want) {
                if !compat(i, *got, *want) {
                    return Err(format!(
                        "{op:?} argument {} does not match {}",
                        i.show(*got),
                        i.show(*want)
                    ));
                }
            }
            Ok(res)
        }
        Lexp::If(c, t, f) => {
            let ct = type_of(c, env, i)?;
            let int = i.int();
            if !compat(i, ct, int) {
                return Err(format!("if condition has type {}", i.show(ct)));
            }
            let tt = type_of(t, env, i)?;
            let ft = type_of(f, env, i)?;
            if !compat(i, tt, ft) {
                return Err(format!(
                    "if branches disagree: {} vs {}",
                    i.show(tt),
                    i.show(ft)
                ));
            }
            if matches!(i.kind(tt), LtyKind::Bottom) {
                Ok(ft)
            } else {
                Ok(tt)
            }
        }
        Lexp::SwitchInt(s, arms, d) => {
            let st = type_of(s, env, i)?;
            let int = i.int();
            if !compat(i, st, int) {
                return Err("switch scrutinee not an int".into());
            }
            let mut out: Option<Lty> = None;
            for (_, arm) in arms {
                let t = type_of(arm, env, i)?;
                if out.is_none() || matches!(i.kind(out.unwrap()), LtyKind::Bottom) {
                    out = Some(t);
                }
            }
            if let Some(def) = d {
                let t = type_of(def, env, i)?;
                if out.is_none() || matches!(i.kind(out.unwrap()), LtyKind::Bottom) {
                    out = Some(t);
                }
            }
            out.ok_or_else(|| "empty switch".into())
        }
        Lexp::Wrap(t, e) => {
            let et = type_of(e, env, i)?;
            if !compat(i, et, *t) && !i.same(et, *t) {
                return Err(format!("wrap of {} at type {}", i.show(et), i.show(*t)));
            }
            Ok(i.boxed())
        }
        Lexp::Unwrap(t, e) => {
            let et = type_of(e, env, i)?;
            let boxed = i.boxed();
            if !compat(i, et, boxed) {
                return Err(format!("unwrap of non-boxed {}", i.show(et)));
            }
            Ok(*t)
        }
        Lexp::Raise(e, t) => {
            let et = type_of(e, env, i)?;
            let boxed = i.boxed();
            if !compat(i, et, boxed) {
                return Err("raise of non-exception".into());
            }
            let _ = et;
            Ok(*t)
        }
        Lexp::Handle(e, h) => {
            let et = type_of(e, env, i)?;
            let ht = type_of(h, env, i)?;
            match *i.kind(ht) {
                LtyKind::Arrow(_, r) => {
                    if !compat(i, r, et) {
                        return Err("handler result type mismatch".into());
                    }
                    Ok(et)
                }
                _ => Err("handler is not a function".into()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lty::InternMode;

    fn check(e: &Lexp) -> Result<Lty, String> {
        let mut i = LtyInterner::new(InternMode::HashCons);
        type_of(e, &mut FxHashMap::default(), &mut i)
    }

    #[test]
    fn literals() {
        assert!(check(&Lexp::Int(3)).is_ok());
        assert!(check(&Lexp::Real(1.5)).is_ok());
        assert!(check(&Lexp::Str("s".into())).is_ok());
    }

    #[test]
    fn fn_and_app() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let int = i.int();
        // (fn x : int => x + 1) 41
        let e = Lexp::App(
            Box::new(Lexp::Fn(
                0,
                int,
                int,
                Box::new(Lexp::PrimApp(
                    Primop::IAdd,
                    vec![Lexp::Var(0), Lexp::Int(1)],
                )),
            )),
            Box::new(Lexp::Int(41)),
        );
        let t = type_of(&e, &mut FxHashMap::default(), &mut i).unwrap();
        assert_eq!(t, i.int());
    }

    #[test]
    fn real_into_word_context_rejected() {
        // A raw REAL may not be used where a word is expected without a
        // WRAP.
        let e = Lexp::PrimApp(Primop::PolyEq, vec![Lexp::Real(1.0), Lexp::Real(2.0)]);
        assert!(check(&e).is_err());
        // With wraps it is fine.
        let mut i = LtyInterner::new(InternMode::HashCons);
        let real = i.real();
        let e = Lexp::PrimApp(
            Primop::PolyEq,
            vec![
                Lexp::Wrap(real, Box::new(Lexp::Real(1.0))),
                Lexp::Wrap(real, Box::new(Lexp::Real(2.0))),
            ],
        );
        assert!(type_of(&e, &mut FxHashMap::default(), &mut i).is_ok());
    }

    #[test]
    fn records_and_select() {
        let e = Lexp::Select(
            1,
            Box::new(Lexp::Record(vec![Lexp::Int(1), Lexp::Real(2.0)])),
        );
        let mut i = LtyInterner::new(InternMode::HashCons);
        let t = type_of(&e, &mut FxHashMap::default(), &mut i).unwrap();
        assert_eq!(t, i.real());
        let bad = Lexp::Select(5, Box::new(Lexp::Record(vec![Lexp::Int(1)])));
        assert!(check(&bad).is_err());
    }

    #[test]
    fn wrap_unwrap_roundtrip_types() {
        let mut i = LtyInterner::new(InternMode::HashCons);
        let real = i.real();
        let e = Lexp::Unwrap(real, Box::new(Lexp::Wrap(real, Box::new(Lexp::Real(3.0)))));
        let t = type_of(&e, &mut FxHashMap::default(), &mut i).unwrap();
        assert_eq!(t, i.real());
    }

    #[test]
    fn size_counts_nodes() {
        let e = Lexp::PrimApp(Primop::IAdd, vec![Lexp::Int(1), Lexp::Int(2)]);
        assert_eq!(e.size(), 3);
    }
}
