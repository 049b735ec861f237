//! Typed abstract syntax — the output of elaboration.
//!
//! This is the paper's "Abstract Syntax (Absyn)" (Figure 3): every
//! expression carries its type, every occurrence of a polymorphic
//! variable, primitive, or data constructor carries its **type
//! instantiation** (paper §3), and every module-level abstraction or
//! instantiation is recorded as a *thinning* with from/to schemes so the
//! lambda translator can insert coercions (paper §4).

use sml_ast::Symbol;
use sml_types::{ConRep, Scheme, Stamp, Ty, TyKind, TyStore};
use std::fmt;
use std::rc::Rc;

/// A unique identifier for a term variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// How to reach a value at runtime: a local variable, possibly through a
/// chain of structure-record selections.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Access {
    /// A directly bound variable.
    Var(VarId),
    /// Field `index` of the structure record reached by the inner access.
    Select(Box<Access>, usize),
}

impl Access {
    /// The root variable of the access path.
    pub fn root(&self) -> VarId {
        match self {
            Access::Var(v) => *v,
            Access::Select(a, _) => a.root(),
        }
    }

    /// True if this is a plain local variable (MTD only applies to these).
    pub fn is_local(&self) -> bool {
        matches!(self, Access::Var(_))
    }
}

/// Side table of all term variables created during elaboration.
#[derive(Debug, Default)]
pub struct VarTable {
    infos: Vec<VarInfo>,
}

/// Everything known about one term variable.
#[derive(Debug, Clone)]
pub struct VarInfo {
    /// Source name (or a synthesized name).
    pub name: Symbol,
    /// The variable's type scheme. For monomorphic variables the scheme
    /// has arity 0.
    pub scheme: Scheme,
    /// True if the variable escapes through a structure export or
    /// module boundary; such variables are exempt from MTD (their
    /// recorded boundary schemes must stay valid).
    pub exported: bool,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> VarTable {
        VarTable::default()
    }

    /// Allocates a fresh variable with a monomorphic placeholder scheme.
    pub fn fresh(&mut self, name: Symbol, ty: Ty) -> VarId {
        let id = VarId(self.infos.len() as u32);
        self.infos.push(VarInfo {
            name,
            scheme: Scheme::mono(ty),
            exported: false,
        });
        id
    }

    /// The info record for `v`.
    pub fn info(&self, v: VarId) -> &VarInfo {
        &self.infos[v.0 as usize]
    }

    /// Mutable info record for `v`.
    pub fn info_mut(&mut self, v: VarId) -> &mut VarInfo {
        &mut self.infos[v.0 as usize]
    }

    /// The variable's scheme.
    pub fn scheme(&self, v: VarId) -> &Scheme {
        &self.infos[v.0 as usize].scheme
    }

    /// Number of variables allocated.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True if no variables exist.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }
}

/// Compiler primitives. Overloaded source operators elaborate to the `O*`
/// pseudo-primitives carrying their overload variable in the instantiation
/// vector; the lambda translator resolves them to concrete operations by
/// inspecting the (post-MTD, zonked) instantiation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)]
pub enum Prim {
    // Overloaded pseudo-prims (resolved at translation).
    OAdd,
    OSub,
    OMul,
    ONeg,
    OLt,
    OLe,
    OGt,
    OGe,
    // Integer arithmetic (tagged 31-bit; Div/Mod raise `Div` on zero).
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
    // Real arithmetic.
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
    // Strings (chars are tagged ints at runtime).
    StrSize,
    StrSub,
    StrCat,
    StrEq,
    StrLt,
    StrLe,
    StrGt,
    StrGe,
    Ord,
    Chr,
    IntToString,
    RealToString,
    // Polymorphic (structural) equality; specialized when monomorphic.
    PolyEq,
    PolyNe,
    // References; `Assign` becomes unboxed update when the payload type
    // is unboxed (paper §4.4).
    MakeRef,
    Deref,
    Assign,
    // Arrays.
    ArrayMake,
    ArraySub,
    ArrayUpdate,
    ArrayLength,
    // First-class continuations.
    Callcc,
    Throw,
    // Output (appends to the VM's output buffer).
    Print,
}

/// Static description of a data or exception constructor occurrence.
#[derive(Clone, Debug)]
pub struct ConInfo {
    /// Constructor name.
    pub name: Symbol,
    /// Stamp of the owning datatype (used by match compilation to group
    /// constructors; exception constructors use the `exn` tycon stamp).
    pub dt_stamp: Stamp,
    /// Declaration index within the datatype.
    pub index: usize,
    /// Total number of constructors in the datatype (`usize::MAX` for
    /// exceptions, which are never exhaustive).
    pub span: usize,
    /// Runtime representation.
    pub rep: ConRep,
    /// The constructor's type scheme as *visible* at this occurrence:
    /// `payload -> dt` for value-carrying, `dt` for constants.
    pub scheme: Scheme,
    /// The constructor's *origin* scheme when it differs from the view —
    /// i.e. when the constructor is seen through a module abstraction.
    /// The lambda translator coerces payloads between origin and view
    /// representations (paper §4.3: "recording the origin type with
    /// T.FOO").
    pub origin: Option<Scheme>,
    /// For exception constructors: where the runtime exception tag lives.
    pub tag: Option<Access>,
}

impl ConInfo {
    /// The scheme governing the runtime representation (origin if
    /// present, else the view scheme).
    pub fn rep_scheme(&self) -> &Scheme {
        self.origin.as_ref().unwrap_or(&self.scheme)
    }

    /// True if this constructor carries a payload.
    pub fn has_payload(&self, store: &TyStore) -> bool {
        matches!(store.kind(self.scheme.body), TyKind::Arrow(..))
    }
}

/// A typed expression.
#[derive(Clone, Debug)]
pub struct TExp {
    /// The expression form.
    pub kind: TExpKind,
    /// The expression's type (may contain links; the elaboration's
    /// store resolves them).
    pub ty: Ty,
}

/// Typed expression forms.
#[derive(Clone, Debug)]
pub enum TExpKind {
    /// Integer literal.
    Int(i64),
    /// Real literal.
    Real(f64),
    /// String literal.
    Str(String),
    /// Character literal (a tagged int at runtime).
    Char(u8),
    /// Variable occurrence with its type instantiation (one entry per
    /// generic variable of the variable's scheme).
    Var {
        /// How to reach the value.
        access: Access,
        /// The variable's scheme (shares its body and generic variables
        /// with the defining declaration, so MTD re-linking is visible
        /// here too). The translator derives the storage representation
        /// from it.
        scheme: Scheme,
        /// Instantiation of the variable's scheme at this use.
        inst: Vec<Ty>,
    },
    /// Primitive occurrence.
    Prim {
        /// Which primitive.
        prim: Prim,
        /// Instantiation of the primitive's scheme.
        inst: Vec<Ty>,
    },
    /// Constructor occurrence (as a value; may be the head of an `App`).
    Con {
        /// The constructor, shared with its binding.
        con: Rc<ConInfo>,
        /// Instantiation of the constructor's scheme.
        inst: Vec<Ty>,
    },
    /// Record/tuple construction; fields in canonical label order.
    Record(Vec<(Symbol, TExp)>),
    /// Field selection; the index is resolved at translation time from
    /// the record type of `arg`.
    Select {
        /// Field label.
        label: Symbol,
        /// The record expression.
        arg: Box<TExp>,
    },
    /// Application.
    App(Box<TExp>, Box<TExp>),
    /// Function with pattern-matching rules (compiled to decision trees
    /// by the lambda translator).
    Fn {
        /// The match rules.
        rules: Vec<TRule>,
        /// Argument type.
        arg_ty: Ty,
    },
    /// `case` expression.
    Case(Box<TExp>, Vec<TRule>),
    /// Two-way conditional.
    If(Box<TExp>, Box<TExp>, Box<TExp>),
    /// `while` loop (unit-valued).
    While(Box<TExp>, Box<TExp>),
    /// Sequencing; value of the last expression.
    Seq(Vec<TExp>),
    /// Local declarations.
    Let(Vec<TDec>, Box<TExp>),
    /// `raise`.
    Raise(Box<TExp>),
    /// `handle`.
    Handle(Box<TExp>, Vec<TRule>),
}

impl TExp {
    /// Builds a unit expression.
    pub fn unit() -> TExp {
        TExp {
            kind: TExpKind::Record(Vec::new()),
            ty: Ty::UNIT,
        }
    }
}

/// A typed match rule.
#[derive(Clone, Debug)]
pub struct TRule {
    /// The pattern.
    pub pat: TPat,
    /// The right-hand side.
    pub exp: TExp,
}

/// A typed pattern.
#[derive(Clone, Debug)]
pub struct TPat {
    /// The pattern form.
    pub kind: TPatKind,
    /// The pattern's type.
    pub ty: Ty,
}

/// Typed pattern forms.
#[derive(Clone, Debug)]
pub enum TPatKind {
    /// Wildcard.
    Wild,
    /// Variable binding.
    Var(VarId),
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// Character literal.
    Char(u8),
    /// Constructor pattern, with instantiation (mirrors expression
    /// occurrences so payload coercions work in patterns too).
    Con {
        /// The constructor, shared with its binding.
        con: Rc<ConInfo>,
        /// Scheme instantiation at this occurrence.
        inst: Vec<Ty>,
        /// Payload pattern for value-carrying constructors.
        arg: Option<Box<TPat>>,
    },
    /// Record pattern; `flexible` records match any record containing the
    /// listed fields (the full field set comes from the resolved type).
    Record {
        /// Listed fields, canonically ordered.
        fields: Vec<(Symbol, TPat)>,
        /// Whether `...` was present.
        flexible: bool,
    },
    /// Layered pattern.
    As(VarId, Box<TPat>),
}

/// A typed declaration.
#[derive(Clone, Debug)]
pub enum TDec {
    /// Monomorphic (possibly pattern) binding: `val pat = exp`.
    Val {
        /// The binding pattern.
        pat: TPat,
        /// The bound expression.
        exp: TExp,
    },
    /// Generalized single-variable binding; the scheme lives in the
    /// [`VarTable`].
    PolyVal {
        /// The bound variable.
        var: VarId,
        /// The bound expression.
        exp: TExp,
    },
    /// Mutually recursive function bindings (each `exps[i]` is a `Fn`).
    Fun {
        /// The bound function variables.
        vars: Vec<VarId>,
        /// Their bodies.
        exps: Vec<TExp>,
    },
    /// Exception declaration: binds `var` to a freshly allocated
    /// exception tag.
    Exception {
        /// Variable holding the runtime tag.
        var: VarId,
        /// The exception's name (stored in the tag for diagnostics).
        name: Symbol,
    },
    /// Structure binding.
    Structure {
        /// Variable holding the structure record.
        var: VarId,
        /// The structure expression.
        def: TStrExp,
    },
    /// Functor binding (a function from structure records to structure
    /// records).
    Functor {
        /// Variable holding the functor closure.
        var: VarId,
        /// The formal parameter variable.
        param: VarId,
        /// The parameter's (abstract) structure type.
        param_ty: StrTy,
        /// The (abstract) result structure type.
        result_ty: StrTy,
        /// The functor body.
        body: TStrExp,
    },
}

/// The "structure type" of a module value: the shape of its runtime
/// record. This is what the lambda translator maps to `SRECORDty`
/// (paper §4.3).
#[derive(Clone, Debug)]
pub struct StrTy(pub Vec<(Symbol, CompTy)>);

/// One component of a structure type.
#[derive(Clone, Debug)]
pub enum CompTy {
    /// A value component with its scheme.
    Val(Scheme),
    /// An exception tag component.
    Exn,
    /// A substructure.
    Str(StrTy),
}

impl StrTy {
    /// Index of the component named `name`, if present.
    pub fn slot(&self, name: Symbol) -> Option<usize> {
        self.0.iter().position(|(n, _)| *n == name)
    }
}

/// A typed structure expression.
#[derive(Clone, Debug)]
pub enum TStrExp {
    /// `struct ... end`: evaluate the declarations, build the export
    /// record.
    Struct {
        /// Declarations in order.
        decs: Vec<TDec>,
        /// Exported components, in record-slot order.
        exports: Vec<Export>,
    },
    /// Reference to an existing structure record.
    Access(Access),
    /// Signature matching / abstraction: select and coerce components of
    /// the base structure (the paper's *thinning function*, §3).
    Thin {
        /// The structure being matched.
        base: Box<TStrExp>,
        /// Per-component selections and from/to schemes.
        items: Vec<ThinItem>,
        /// The resulting structure type.
        to: StrTy,
    },
    /// Functor application: the argument has already been thinned to the
    /// parameter signature; the result is coerced from the functor's
    /// abstract result type to its instantiation (paper §4.3-4.4).
    FctApp {
        /// The functor closure.
        fct: Access,
        /// The (thinned) argument.
        arg: Box<TStrExp>,
        /// The functor's abstract result structure type.
        from: StrTy,
        /// The instantiated result structure type.
        to: StrTy,
    },
}

/// One exported component of a `struct ... end`.
#[derive(Clone, Debug)]
pub struct Export {
    /// Component name.
    pub name: Symbol,
    /// What is exported.
    pub item: ExportItem,
}

/// The payload of an [`Export`].
#[derive(Clone, Debug)]
pub enum ExportItem {
    /// A value component.
    Val {
        /// Where the value lives.
        access: Access,
        /// Its scheme.
        scheme: Scheme,
    },
    /// A substructure.
    Str {
        /// Where the substructure record lives.
        access: Access,
        /// Its structure type.
        ty: StrTy,
    },
    /// An exception tag.
    Exn {
        /// Where the tag lives.
        access: Access,
    },
}

/// One component of a thinning.
#[derive(Clone, Debug)]
pub enum ThinItem {
    /// Select value component `slot` and coerce it `from -> to`.
    Val {
        /// Slot in the source structure record.
        slot: usize,
        /// Scheme in the source structure.
        from: Scheme,
        /// Scheme in the result (signature view).
        to: Scheme,
    },
    /// Select substructure `slot` and thin it recursively.
    Str {
        /// Slot in the source structure record.
        slot: usize,
        /// Nested thinning.
        items: Vec<ThinItem>,
        /// Resulting substructure type.
        to: StrTy,
    },
    /// Select exception tag `slot` unchanged.
    Exn {
        /// Slot in the source structure record.
        slot: usize,
    },
}
