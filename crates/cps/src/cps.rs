//! The continuation-passing-style intermediate representation with CTY
//! annotations (paper §5).
//!
//! Every variable is annotated at its binding occurrence with a [`Cty`]:
//! a tagged integer, a float (living in float registers), a pointer (with
//! known record length when available), a function, or a continuation.
//! The CTYs are "very easy and cheap for the back end to maintain"
//! (paper §5) and drive record layout, GC safety, and the float register
//! file.

use sml_lambda::Lty;
use std::fmt;

/// A CPS variable.
pub type CVar = u32;

/// CPS types (paper §5): `INTt`, `FLTt`, `PTRt`, `FUNt`, `CNTt`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Cty {
    /// Tagged integer.
    Int,
    /// Unboxed float (float register).
    Flt,
    /// Pointer (or tagged word) with optionally known record length.
    Ptr(Option<u32>),
    /// Function (code or closure).
    Fun,
    /// Continuation.
    Cnt,
}

impl Cty {
    /// True for one-word, GC-scannable values.
    pub fn is_word(self) -> bool {
        !matches!(self, Cty::Flt)
    }
}

/// An atomic CPS value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Variable reference.
    Var(CVar),
    /// Code label (after closure conversion).
    Label(CVar),
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Real(f64),
    /// String constant.
    Str(String),
}

/// Pure value operators (no observable effect, one result).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum PureOp {
    IAdd,
    ISub,
    IMul,
    IDiv,
    IMod,
    INeg,
    FAdd,
    FSub,
    FMul,
    FDiv,
    FNeg,
    FSqrt,
    FSin,
    FCos,
    FAtan,
    FExp,
    FLn,
    Floor,
    IntToReal,
    /// Box a float (heap-allocates: 1 descriptor + 2 data words).
    FWrap,
    /// Unbox a float (two single-word loads, paper footnote 7).
    FUnwrap,
    /// Tag an integer (free with 31-bit tagged ints, kept for
    /// cancellation accounting).
    IWrap,
    /// Untag an integer.
    IUnwrap,
    /// Pointer wrap (no-op cast).
    PWrap,
    /// Pointer unwrap (no-op cast).
    PUnwrap,
    StrSize,
    StrSub,
    StrCat,
    IntToString,
    RealToString,
    ArrayLength,
}

impl PureOp {
    /// Result CTY.
    pub fn result_cty(self) -> Cty {
        use PureOp::*;
        match self {
            IAdd | ISub | IMul | IDiv | IMod | INeg | Floor | IUnwrap | StrSize | StrSub
            | ArrayLength => Cty::Int,
            FAdd | FSub | FMul | FDiv | FNeg | FSqrt | FSin | FCos | FAtan | FExp | FLn
            | IntToReal | FUnwrap => Cty::Flt,
            FWrap | IWrap | PWrap | PUnwrap | StrCat | IntToString | RealToString => Cty::Ptr(None),
        }
    }
}

/// Allocating operators for mutable objects.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum AllocOp {
    MakeRef,
    ArrayMake,
}

/// State readers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum LookOp {
    Deref,
    ArraySub,
    GetHandler,
}

/// State writers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum SetOp {
    Assign,
    /// Write-barrier-free assignment of a non-pointer (paper §4.4).
    UnboxedAssign,
    ArrayUpdate,
    UnboxedArrayUpdate,
    Print,
    SetHandler,
}

/// Two-way branching comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BranchOp {
    ILt,
    ILe,
    IGt,
    IGe,
    IEq,
    INe,
    FLt,
    FLe,
    FGt,
    FGe,
    FEq,
    FNe,
    StrEq,
    StrNe,
    StrLt,
    StrLe,
    StrGt,
    StrGe,
    /// Structural equality (runtime call).
    PolyEq,
    PtrEq,
    /// Boxity test: true when the word is a pointer.
    IsBoxed,
}

/// A CPS expression (a tree of operations ending in applications).
#[derive(Clone, Debug, PartialEq)]
pub enum Cexp {
    /// Allocate a record. Fields are in **physical** order: raw float
    /// fields first (`nflt` of them, two words each), then one-word
    /// fields. The object descriptor records both lengths (paper
    /// Figure 1c).
    Record {
        /// Field values with their CTYs, floats first.
        fields: Vec<(Value, Cty)>,
        /// Number of leading raw-float fields.
        nflt: usize,
        /// Destination variable (CTY `Ptr(len)`).
        dst: CVar,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// Load a field. `word_off` is the physical word offset (floats
    /// occupy two words).
    Select {
        /// The record.
        rec: Value,
        /// Physical word offset.
        word_off: usize,
        /// Whether a raw float is loaded (two single-word loads).
        flt: bool,
        /// Destination.
        dst: CVar,
        /// Destination CTY.
        cty: Cty,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// Pure operator.
    Pure {
        /// Operator.
        op: PureOp,
        /// Arguments.
        args: Vec<Value>,
        /// Destination.
        dst: CVar,
        /// Destination CTY.
        cty: Cty,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// Mutable allocation.
    Alloc {
        /// Operator.
        op: AllocOp,
        /// Arguments.
        args: Vec<Value>,
        /// Destination.
        dst: CVar,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// State read.
    Look {
        /// Operator.
        op: LookOp,
        /// Arguments.
        args: Vec<Value>,
        /// Destination.
        dst: CVar,
        /// Destination CTY.
        cty: Cty,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// State write.
    Set {
        /// Operator.
        op: SetOp,
        /// Arguments.
        args: Vec<Value>,
        /// Continuation.
        rest: Box<Cexp>,
    },
    /// Dense integer dispatch (a jump table at the machine level).
    Switch {
        /// The scrutinee (a tagged integer or constant-constructor word).
        v: Value,
        /// The smallest case value; case `i` of the table is `lo + i`.
        lo: i64,
        /// One arm per table slot.
        arms: Vec<Cexp>,
        /// Taken when the value is outside `lo .. lo + arms.len()`, or
        /// when a slot has no user arm.
        default: Box<Cexp>,
    },
    /// Conditional.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// Arguments.
        args: Vec<Value>,
        /// True continuation.
        tru: Box<Cexp>,
        /// False continuation.
        fls: Box<Cexp>,
    },
    /// Function/continuation definitions.
    Fix {
        /// The functions.
        funs: Vec<FunDef>,
        /// Scope of the definitions.
        rest: Box<Cexp>,
    },
    /// Tail application (the only transfer of control).
    App {
        /// Callee.
        f: Value,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Program exit with a result value.
    Halt {
        /// Final value.
        v: Value,
    },
}

/// Classification of a CPS function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FunKind {
    /// May escape (stored in records, passed as value): gets a closure.
    Escape,
    /// All call sites known: free variables become parameters.
    Known,
    /// Continuation introduced by CPS conversion.
    Cont,
}

/// One CPS function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FunDef {
    /// Classification.
    pub kind: FunKind,
    /// Name.
    pub name: CVar,
    /// Parameters with CTYs.
    pub params: Vec<(CVar, Cty)>,
    /// Body.
    pub body: Box<Cexp>,
}

impl Cexp {
    /// Number of CPS operators (the middle-end code-size metric).
    pub fn size(&self) -> usize {
        match self {
            Cexp::Record { rest, .. }
            | Cexp::Select { rest, .. }
            | Cexp::Pure { rest, .. }
            | Cexp::Alloc { rest, .. }
            | Cexp::Look { rest, .. }
            | Cexp::Set { rest, .. } => 1 + rest.size(),
            Cexp::Branch { tru, fls, .. } => 1 + tru.size() + fls.size(),
            Cexp::Switch { arms, default, .. } => {
                1 + default.size() + arms.iter().map(Cexp::size).sum::<usize>()
            }
            Cexp::Fix { funs, rest } => {
                1 + rest.size() + funs.iter().map(|f| f.body.size()).sum::<usize>()
            }
            Cexp::App { .. } | Cexp::Halt { .. } => 1,
        }
    }
}

/// Maps an LTY to the CTY of values with that representation (paper §5's
/// "translation from LTY to CTY is straight-forward").
pub fn cty_of_lty(i: &sml_lambda::LtyInterner, t: Lty) -> Cty {
    use sml_lambda::LtyKind;
    match i.kind(t) {
        LtyKind::Int => Cty::Int,
        LtyKind::Real => Cty::Flt,
        LtyKind::Record(fs) => Cty::Ptr(Some(fs.len() as u32)),
        LtyKind::SRecord(fs) => Cty::Ptr(Some(fs.len() as u32)),
        LtyKind::PRecord(_) => Cty::Ptr(None),
        LtyKind::Arrow(..) => Cty::Fun,
        LtyKind::Boxed | LtyKind::RBoxed => Cty::Ptr(None),
        LtyKind::Bottom => Cty::Ptr(None),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Var(v) => write!(f, "v{v}"),
            Value::Label(l) => write!(f, "L{l}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cty_mapping() {
        let mut i = sml_lambda::LtyInterner::new(sml_lambda::InternMode::HashCons);
        assert_eq!(cty_of_lty(&i, i.int()), Cty::Int);
        assert_eq!(cty_of_lty(&i, i.real()), Cty::Flt);
        assert_eq!(cty_of_lty(&i, i.boxed()), Cty::Ptr(None));
        let r = i.record(vec![i.int(), i.real()]);
        assert_eq!(cty_of_lty(&i, r), Cty::Ptr(Some(2)));
        let a = i.arrow(i.int(), i.int());
        assert_eq!(cty_of_lty(&i, a), Cty::Fun);
    }

    #[test]
    fn size_counts_operators() {
        let e = Cexp::Pure {
            op: PureOp::IAdd,
            args: vec![Value::Int(1), Value::Int(2)],
            dst: 0,
            cty: Cty::Int,
            rest: Box::new(Cexp::Halt { v: Value::Var(0) }),
        };
        assert_eq!(e.size(), 2);
    }

    #[test]
    fn word_ctys() {
        assert!(Cty::Int.is_word());
        assert!(Cty::Ptr(None).is_word());
        assert!(!Cty::Flt.is_word());
    }
}
