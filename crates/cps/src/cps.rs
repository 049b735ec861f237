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
use std::collections::VecDeque;
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

/// A CPS expression: one straight-line run of bindings, evaluated in
/// order, ending in one exit. Every walker loops over a run and recurses
/// only into its `Fix` bodies and its exit's arms, so a run's length
/// costs no native stack.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Cexp {
    /// The bindings, in evaluation order. A deque, so CPS conversion
    /// can put each operator in front of its continuation in O(1).
    pub binds: VecDeque<Bind>,
    /// The transfer of control that ends the run.
    pub exit: Exit,
}

/// A straight-line operator: it reads its operands, binds at most one
/// variable (or, for `Fix`, a group of functions) and falls through to
/// the next binding of its run.
#[derive(Clone, Debug, PartialEq)]
pub enum Bind {
    /// Allocate a record. Fields are in **physical** order: one-word
    /// fields first, then `nflt` raw float fields (two words each). The
    /// object descriptor records both lengths (paper Figure 1c).
    Record {
        /// Field values with their CTYs.
        fields: Vec<(Value, Cty)>,
        /// Number of trailing raw-float fields.
        nflt: usize,
        /// Destination variable (CTY `Ptr(len)`).
        dst: CVar,
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
    },
    /// Mutable allocation.
    Alloc {
        /// Operator.
        op: AllocOp,
        /// Arguments.
        args: Vec<Value>,
        /// Destination.
        dst: CVar,
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
    },
    /// State write.
    Set {
        /// Operator.
        op: SetOp,
        /// Arguments.
        args: Vec<Value>,
    },
    /// Function/continuation definitions, in scope for the rest of the
    /// run (and for each other).
    Fix {
        /// The functions.
        funs: Vec<FunDef>,
    },
}

/// The end of a run: the only places control leaves straight-line code.
#[derive(Clone, Debug, PartialEq)]
pub enum Exit {
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

/// `halt 0`: the placeholder `std::mem::take` leaves behind.
impl Default for Exit {
    fn default() -> Exit {
        Exit::Halt { v: Value::Int(0) }
    }
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
    pub body: Cexp,
}

impl Bind {
    /// The values this operator reads, in operand order.
    pub fn operands(&self) -> impl Iterator<Item = &Value> {
        let (fields, args): (&[(Value, Cty)], &[Value]) = match self {
            Bind::Record { fields, .. } => (fields, &[]),
            Bind::Select { rec, .. } => (&[], std::slice::from_ref(rec)),
            Bind::Pure { args, .. }
            | Bind::Alloc { args, .. }
            | Bind::Look { args, .. }
            | Bind::Set { args, .. } => (&[], args),
            Bind::Fix { .. } => (&[], &[]),
        };
        fields.iter().map(|(v, _)| v).chain(args)
    }

    /// [`Bind::operands`], for rewriting in place.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        let (fields, args): (&mut [(Value, Cty)], &mut [Value]) = match self {
            Bind::Record { fields, .. } => (fields, &mut []),
            Bind::Select { rec, .. } => (&mut [], std::slice::from_mut(rec)),
            Bind::Pure { args, .. }
            | Bind::Alloc { args, .. }
            | Bind::Look { args, .. }
            | Bind::Set { args, .. } => (&mut [], args),
            Bind::Fix { .. } => (&mut [], &mut []),
        };
        fields.iter_mut().map(|(v, _)| v).chain(args)
    }

    /// The variable this operator binds and its CTY; `None` for `Set`
    /// and for `Fix`, whose functions bind their names.
    pub fn binder(&self) -> Option<(CVar, Cty)> {
        match self {
            Bind::Record { fields, nflt, dst } => {
                Some((*dst, Cty::Ptr(Some((fields.len() + nflt) as u32))))
            }
            Bind::Alloc { dst, .. } => Some((*dst, Cty::Ptr(None))),
            Bind::Select { dst, cty, .. }
            | Bind::Pure { dst, cty, .. }
            | Bind::Look { dst, cty, .. } => Some((*dst, *cty)),
            Bind::Set { .. } | Bind::Fix { .. } => None,
        }
    }

    /// The variable [`Bind::binder`] names, for renaming in place.
    pub fn binder_mut(&mut self) -> Option<&mut CVar> {
        match self {
            Bind::Record { dst, .. }
            | Bind::Select { dst, .. }
            | Bind::Pure { dst, .. }
            | Bind::Alloc { dst, .. }
            | Bind::Look { dst, .. } => Some(dst),
            Bind::Set { .. } | Bind::Fix { .. } => None,
        }
    }

    /// The functions this binding defines: a `Fix`'s, none otherwise.
    pub fn funs(&self) -> &[FunDef] {
        match self {
            Bind::Fix { funs } => funs,
            _ => &[],
        }
    }
}

impl Exit {
    /// The values this exit reads: a call's head, then its arguments.
    pub fn operands(&self) -> impl Iterator<Item = &Value> {
        let (head, args): (&[Value], &[Value]) = match self {
            Exit::Switch { v, .. } | Exit::Halt { v } => (std::slice::from_ref(v), &[]),
            Exit::Branch { args, .. } => (&[], args),
            Exit::App { f, args } => (std::slice::from_ref(f), args),
        };
        head.iter().chain(args)
    }

    /// [`Exit::operands`], for rewriting in place.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        let (head, args): (&mut [Value], &mut [Value]) = match self {
            Exit::Switch { v, .. } | Exit::Halt { v } => (std::slice::from_mut(v), &mut []),
            Exit::Branch { args, .. } => (&mut [], args),
            Exit::App { f, args } => (std::slice::from_mut(f), args),
        };
        head.iter_mut().chain(args)
    }

    /// The runs control may continue in: a switch's arms and then its
    /// default, a branch's true and then its false side.
    pub fn arms(&self) -> impl Iterator<Item = &Cexp> {
        let (arms, last): (&[Cexp], [Option<&Cexp>; 2]) = match self {
            Exit::Switch { arms, default, .. } => (arms, [Some(default), None]),
            Exit::Branch { tru, fls, .. } => (&[], [Some(tru), Some(fls)]),
            Exit::App { .. } | Exit::Halt { .. } => (&[], [None, None]),
        };
        arms.iter().chain(last.into_iter().flatten())
    }

    /// [`Exit::arms`], for rewriting in place.
    pub fn arms_mut(&mut self) -> impl Iterator<Item = &mut Cexp> {
        let (arms, last): (&mut [Cexp], [Option<&mut Cexp>; 2]) = match self {
            Exit::Switch { arms, default, .. } => (arms, [Some(default), None]),
            Exit::Branch { tru, fls, .. } => (&mut [], [Some(tru), Some(fls)]),
            Exit::App { .. } | Exit::Halt { .. } => (&mut [], [None, None]),
        };
        arms.iter_mut().chain(last.into_iter().flatten())
    }
}

impl From<Exit> for Cexp {
    fn from(exit: Exit) -> Cexp {
        Cexp {
            binds: VecDeque::new(),
            exit,
        }
    }
}

impl Cexp {
    /// The run of `binds` ending in `exit`.
    pub fn new(binds: impl Into<VecDeque<Bind>>, exit: Exit) -> Cexp {
        Cexp {
            binds: binds.into(),
            exit,
        }
    }

    /// `rest` with `b` bound first, in amortized O(1).
    pub fn bind(b: Bind, mut rest: Cexp) -> Cexp {
        rest.binds.push_front(b);
        rest
    }

    /// Every run of this expression, this one first: each run is
    /// followed by the bodies of its `Fix`es and then its exit's arms,
    /// each with its own runs (preorder). Uses a heap stack, not the
    /// native one.
    pub fn runs(&self) -> impl Iterator<Item = &Cexp> {
        let mut stack = vec![self];
        std::iter::from_fn(move || {
            let run = stack.pop()?;
            let at = stack.len();
            let bodies = run.binds.iter().flat_map(Bind::funs);
            stack.extend(bodies.map(|f| &f.body));
            stack.extend(run.exit.arms());
            stack[at..].reverse();
            Some(run)
        })
    }

    /// Number of CPS operators (the middle-end code-size metric): one
    /// per binding (a `Fix` counts once) and one per exit, over every
    /// run.
    pub fn size(&self) -> usize {
        let bodies = self
            .binds
            .iter()
            .flat_map(Bind::funs)
            .map(|f| f.body.size());
        let arms = self.exit.arms().map(Cexp::size);
        self.binds.len() + 1 + bodies.chain(arms).sum::<usize>()
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
        let e = Cexp::new(
            vec![Bind::Pure {
                op: PureOp::IAdd,
                args: vec![Value::Int(1), Value::Int(2)],
                dst: 0,
                cty: Cty::Int,
            }],
            Exit::Halt { v: Value::Var(0) },
        );
        assert_eq!(e.size(), 2);
    }

    #[test]
    fn word_ctys() {
        assert!(Cty::Int.is_word());
        assert!(Cty::Ptr(None).is_word());
        assert!(!Cty::Flt.is_word());
    }
}
