//! The typed lambda language LEXP (paper §4.1).
//!
//! A simply-typed, call-by-value lambda language: lambda, application,
//! constants, records and selection, a typed `WRAP`/`UNWRAP` pair for
//! representation coercions, exceptions, and saturated primitive
//! applications. Every binder is annotated with an [`Lty`]; the types of
//! all other expressions are derived bottom-up by the checker in
//! [`crate::verify`].

use crate::lty::{Lty, LtyInterner};

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
        let mut n = 0;
        let mut todo = vec![self];
        while let Some(e) = todo.pop() {
            n += 1;
            todo.extend(e.children());
        }
        n
    }

    /// The immediate subexpressions, in evaluation order: a `Fix`'s
    /// functions before its body, a switch's scrutinee, then its arms,
    /// then its default.
    pub fn children(&self) -> impl Iterator<Item = &Lexp> {
        let mut lead: [Option<&Lexp>; 3] = [None; 3];
        let mut fns: &[(LVar, Lty, Lexp)] = &[];
        let mut arms: &[(i64, Lexp)] = &[];
        let mut list: &[Lexp] = &[];
        let mut last: Option<&Lexp> = None;
        match self {
            Lexp::Var(_) | Lexp::Int(_) | Lexp::Real(_) | Lexp::Str(_) => {}
            Lexp::Fn(.., e)
            | Lexp::Select(_, e)
            | Lexp::Wrap(_, e)
            | Lexp::Unwrap(_, e)
            | Lexp::Raise(e, _) => lead[0] = Some(e),
            Lexp::App(a, b) | Lexp::Let(_, a, b) | Lexp::Handle(a, b) => {
                lead = [Some(a), Some(b), None];
            }
            Lexp::If(c, t, f) => lead = [Some(c), Some(t), Some(f)],
            Lexp::Fix(fs, b) => {
                fns = fs;
                last = Some(b);
            }
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => list = es,
            Lexp::SwitchInt(s, a, d) => {
                lead[0] = Some(s);
                arms = a;
                last = d.as_deref();
            }
        }
        lead.into_iter()
            .flatten()
            .chain(fns.iter().map(|(.., e)| e))
            .chain(arms.iter().map(|(_, e)| e))
            .chain(list)
            .chain(last)
    }

    /// [`Lexp::children`], for rewriting in place.
    pub fn children_mut(&mut self) -> impl Iterator<Item = &mut Lexp> {
        let mut lead: [Option<&mut Lexp>; 3] = [None, None, None];
        let mut fns: &mut [(LVar, Lty, Lexp)] = &mut [];
        let mut arms: &mut [(i64, Lexp)] = &mut [];
        let mut list: &mut [Lexp] = &mut [];
        let mut last: Option<&mut Lexp> = None;
        match self {
            Lexp::Var(_) | Lexp::Int(_) | Lexp::Real(_) | Lexp::Str(_) => {}
            Lexp::Fn(.., e)
            | Lexp::Select(_, e)
            | Lexp::Wrap(_, e)
            | Lexp::Unwrap(_, e)
            | Lexp::Raise(e, _) => lead[0] = Some(e),
            Lexp::App(a, b) | Lexp::Let(_, a, b) | Lexp::Handle(a, b) => {
                lead = [Some(a), Some(b), None];
            }
            Lexp::If(c, t, f) => lead = [Some(c), Some(t), Some(f)],
            Lexp::Fix(fs, b) => {
                fns = fs;
                last = Some(b);
            }
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => list = es,
            Lexp::SwitchInt(s, a, d) => {
                lead[0] = Some(s);
                arms = a;
                last = d.as_deref_mut();
            }
        }
        lead.into_iter()
            .flatten()
            .chain(fns.iter_mut().map(|(.., e)| e))
            .chain(arms.iter_mut().map(|(_, e)| e))
            .chain(list)
            .chain(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_counts_nodes() {
        let e = Lexp::PrimApp(Primop::IAdd, vec![Lexp::Int(1), Lexp::Int(2)]);
        assert_eq!(e.size(), 3);
    }

    #[test]
    fn children_follow_evaluation_order() {
        let leaves = |e: &Lexp| -> Vec<i64> {
            e.children()
                .map(|c| match c {
                    Lexp::Int(n) => *n,
                    _ => panic!("not a leaf"),
                })
                .collect()
        };
        let int = |n| Box::new(Lexp::Int(n));
        let switch = Lexp::SwitchInt(
            int(0),
            vec![(5, Lexp::Int(1)), (6, Lexp::Int(2))],
            Some(int(3)),
        );
        assert_eq!(leaves(&switch), [0, 1, 2, 3]);
        let real = crate::lty::LtyInterner::new(crate::lty::InternMode::HashCons).real();
        let fix = Lexp::Fix(
            vec![(0, real, Lexp::Int(1)), (1, real, Lexp::Int(2))],
            int(3),
        );
        assert_eq!(leaves(&fix), [1, 2, 3]);
        assert_eq!(leaves(&Lexp::If(int(1), int(2), int(3))), [1, 2, 3]);
        assert_eq!(leaves(&Lexp::Int(0)), [0; 0]);
        let mut fix = fix;
        fix.children_mut().for_each(|c| *c = Lexp::Int(7));
        assert_eq!(leaves(&fix), [7, 7, 7]);
        assert_eq!(fix.size(), 4);
    }

    #[test]
    fn wrap_unwrap_roundtrip_types() {
        use crate::lty::InternMode;
        use sml_ast::FxHashMap;
        let mut i = LtyInterner::new(InternMode::HashCons);
        let real = i.real();
        let e = Lexp::Unwrap(real, Box::new(Lexp::Wrap(real, Box::new(Lexp::Real(3.0)))));
        let t = crate::verify::lty_of(&e, &mut FxHashMap::default(), &mut i).unwrap();
        assert_eq!(t, i.real());
    }
}
