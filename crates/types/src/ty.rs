//! Semantic types for the SML subset: type constructors, types with
//! mutable unification variables, and type schemes.
//!
//! Types use the classic mutable-cell representation: a [`Ty::Var`] holds
//! a shared [`TvRef`] cell that is either unbound, a link to another type,
//! or a generalized ("generic") variable of an enclosing scheme.
//! Generalization marks cells **in place**, so every type annotation that
//! shares a cell sees the same change — this sharing is what makes the
//! minimum-typing-derivation pass (paper §3) a constant-time re-linking of
//! cells rather than a re-elaboration.
//!
//! Everything else in a type is immutable and shares its children
//! through `Rc`: cloning a type, or following its links with
//! [`Ty::head`], bumps reference counts instead of copying a tree, and
//! [`Ty::zonk`] and [`Ty::subst_gen`] rebuild only the path down to what
//! they change.

use sml_ast::Symbol;
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};
use std::sync::OnceLock;

/// A unique identity for a type constructor.
///
/// Stamps below [`Stamp::FIRST_FRESH`] are reserved for built-in tycons.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Stamp(pub u32);

static NEXT_STAMP: AtomicU32 = AtomicU32::new(Stamp::FIRST_FRESH);

impl Stamp {
    /// First stamp handed out by [`Stamp::fresh`].
    pub const FIRST_FRESH: u32 = 100;

    /// Allocates a fresh, process-unique stamp.
    pub fn fresh() -> Stamp {
        Stamp(NEXT_STAMP.fetch_add(1, AtomicOrdering::Relaxed))
    }
}

/// How a type constructor admits equality.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EqProp {
    /// Never an equality type (e.g. `->`, abstract types by default).
    Never,
    /// Always an equality type regardless of arguments (`ref`, `array`).
    Always,
    /// Equality type iff all arguments are (e.g. `list`, most datatypes).
    IfArgs,
}

/// The built-in classification of a type constructor.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TyconKind {
    /// Primitive `int` (tagged 31-bit at runtime).
    Int,
    /// Primitive `real` (IEEE double).
    Real,
    /// Primitive `string`.
    String,
    /// Primitive `char`.
    Char,
    /// Primitive `exn`.
    Exn,
    /// Primitive mutable cell `'a ref`.
    Ref,
    /// Primitive mutable array `'a array`.
    Array,
    /// First-class continuation `'a cont`.
    Cont,
    /// A user (or built-in) datatype; constructors live in the
    /// [`registry`](crate::registry::TyconRegistry) under this stamp.
    Data,
    /// A flexible (abstract) type constructor introduced by a signature
    /// specification or `abstraction` matching (paper §4.3).
    Abstract,
}

/// A type constructor: primitive, datatype, or abstract.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Tycon {
    /// Identity.
    pub stamp: Stamp,
    /// Printed name.
    pub name: Symbol,
    /// Number of type arguments.
    pub arity: usize,
    /// Classification.
    pub kind: TyconKind,
    /// Equality admission.
    pub eq: EqProp,
}

macro_rules! builtin_tycon {
    ($fname:ident, $stamp:expr, $name:expr, $arity:expr, $kind:expr, $eq:expr) => {
        #[doc = concat!("The built-in `", $name, "` type constructor.")]
        pub fn $fname() -> Tycon {
            // Interned on first use, like any name, then kept.
            static NAME: OnceLock<Symbol> = OnceLock::new();
            Tycon {
                stamp: Stamp($stamp),
                name: *NAME.get_or_init(|| Symbol::intern($name)),
                arity: $arity,
                kind: $kind,
                eq: $eq,
            }
        }
    };
}

impl Tycon {
    builtin_tycon!(int, 0, "int", 0, TyconKind::Int, EqProp::Always);
    // The Definition of SML '90 (which the paper targets) makes `real` an
    // equality type; the Life/MTD experiment depends on primitive real
    // equality being expressible.
    builtin_tycon!(real, 1, "real", 0, TyconKind::Real, EqProp::Always);
    builtin_tycon!(string, 2, "string", 0, TyconKind::String, EqProp::Always);
    builtin_tycon!(char, 3, "char", 0, TyconKind::Char, EqProp::Always);
    builtin_tycon!(exn, 4, "exn", 0, TyconKind::Exn, EqProp::Never);
    builtin_tycon!(reference, 5, "ref", 1, TyconKind::Ref, EqProp::Always);
    builtin_tycon!(array, 6, "array", 1, TyconKind::Array, EqProp::Always);
    builtin_tycon!(cont, 7, "cont", 1, TyconKind::Cont, EqProp::Never);
    builtin_tycon!(bool, 8, "bool", 0, TyconKind::Data, EqProp::Always);
    builtin_tycon!(list, 9, "list", 1, TyconKind::Data, EqProp::IfArgs);
    builtin_tycon!(option, 10, "option", 1, TyconKind::Data, EqProp::IfArgs);
    builtin_tycon!(order, 11, "order", 0, TyconKind::Data, EqProp::Always);

    /// Creates a fresh datatype tycon.
    pub fn fresh_data(name: Symbol, arity: usize, eq: EqProp) -> Tycon {
        Tycon {
            stamp: Stamp::fresh(),
            name,
            arity,
            kind: TyconKind::Data,
            eq,
        }
    }

    /// Creates a fresh abstract (flexible) tycon, as introduced by a
    /// signature type specification.
    pub fn fresh_abstract(name: Symbol, arity: usize, eq: bool) -> Tycon {
        Tycon {
            stamp: Stamp::fresh(),
            name,
            arity,
            kind: TyconKind::Abstract,
            eq: if eq { EqProp::IfArgs } else { EqProp::Never },
        }
    }

    /// True for *rigid* constructors in the paper's sense (§4.3): all
    /// constructors except flexible/abstract ones. Rigid constructor types
    /// translate to `BOXEDty`; flexible ones to `RBOXEDty`.
    pub fn is_rigid(&self) -> bool {
        self.kind != TyconKind::Abstract
    }
}

/// The contents of a unification-variable cell.
#[derive(Clone, Debug)]
pub enum Tv {
    /// An unresolved variable.
    Unbound {
        /// Unique id (for printing and hashing).
        id: u32,
        /// Binding level for let-generalization.
        level: u32,
        /// Whether the variable must be an equality type (`''a`).
        eq: bool,
    },
    /// Resolved: behaves as the linked type.
    Link(Ty),
    /// Generalized in place: the `i`th generic variable of its scheme.
    Gen(u32),
}

/// A shared, mutable unification-variable cell.
#[derive(Clone)]
pub struct TvRef(pub Rc<RefCell<Tv>>);

static NEXT_TV: AtomicU32 = AtomicU32::new(0);

impl TvRef {
    /// Fresh unbound variable at `level`.
    pub fn fresh(level: u32) -> TvRef {
        TvRef::fresh_eq(level, false)
    }

    /// Fresh unbound variable at `level`, with equality attribute `eq`.
    pub fn fresh_eq(level: u32, eq: bool) -> TvRef {
        let id = NEXT_TV.fetch_add(1, AtomicOrdering::Relaxed);
        TvRef(Rc::new(RefCell::new(Tv::Unbound { id, level, eq })))
    }

    /// Pointer identity.
    pub fn same(&self, other: &TvRef) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for TvRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &*self.0.borrow() {
            Tv::Unbound { id, eq, .. } => write!(f, "{}t{}", if *eq { "''" } else { "'" }, id),
            Tv::Link(t) => write!(f, "{t:?}"),
            Tv::Gen(i) => write!(f, "'g{i}"),
        }
    }
}

/// A semantic type.
#[derive(Clone, Debug)]
pub enum Ty {
    /// A unification variable (possibly resolved via its cell).
    Var(TvRef),
    /// Constructor application; all primitive types are nullary `Con`s.
    Con(Tycon, Rc<[Ty]>),
    /// Record type with fields sorted by [`label_cmp`]; tuples use numeric
    /// labels `1..n` and `unit` is the empty record.
    Record(Rc<[(Symbol, Ty)]>),
    /// Function type.
    Arrow(Rc<Ty>, Rc<Ty>),
}

impl Ty {
    /// The `int` type.
    pub fn int() -> Ty {
        Ty::Con(Tycon::int(), Rc::new([]))
    }

    /// The `real` type.
    pub fn real() -> Ty {
        Ty::Con(Tycon::real(), Rc::new([]))
    }

    /// The `string` type.
    pub fn string() -> Ty {
        Ty::Con(Tycon::string(), Rc::new([]))
    }

    /// The `char` type.
    pub fn char() -> Ty {
        Ty::Con(Tycon::char(), Rc::new([]))
    }

    /// The `bool` type.
    pub fn bool() -> Ty {
        Ty::Con(Tycon::bool(), Rc::new([]))
    }

    /// The `exn` type.
    pub fn exn() -> Ty {
        Ty::Con(Tycon::exn(), Rc::new([]))
    }

    /// The `unit` type (empty record).
    pub fn unit() -> Ty {
        Ty::Record(Rc::new([]))
    }

    /// `t list`.
    pub fn list(t: Ty) -> Ty {
        Ty::Con(Tycon::list(), Rc::new([t]))
    }

    /// `t ref`.
    pub fn reference(t: Ty) -> Ty {
        Ty::Con(Tycon::reference(), Rc::new([t]))
    }

    /// `t array`.
    pub fn array(t: Ty) -> Ty {
        Ty::Con(Tycon::array(), Rc::new([t]))
    }

    /// `t cont`.
    pub fn cont(t: Ty) -> Ty {
        Ty::Con(Tycon::cont(), Rc::new([t]))
    }

    /// `t1 -> t2`.
    pub fn arrow(a: Ty, b: Ty) -> Ty {
        Ty::Arrow(Rc::new(a), Rc::new(b))
    }

    /// An n-tuple with numeric labels (already in order).
    pub fn tuple(parts: Vec<Ty>) -> Ty {
        Ty::Record(
            parts
                .into_iter()
                .enumerate()
                .map(|(i, t)| (Symbol::numeric(i + 1), t))
                .collect(),
        )
    }

    /// `t1 * t2`.
    pub fn pair(a: Ty, b: Ty) -> Ty {
        Ty::tuple(vec![a, b])
    }

    /// Follows `Link` cells until the head is not a resolved variable.
    /// Borrows `self` when it is not a resolved variable; otherwise the
    /// result shares its children with the type the links lead to, so
    /// this costs a reference-count bump, not a copy.
    pub fn head(&self) -> Cow<'_, Ty> {
        let mut t = Cow::Borrowed(self);
        while let Ty::Var(v) = &*t {
            let next = match &*v.0.borrow() {
                Tv::Link(u) => u.clone(),
                _ => break,
            };
            t = Cow::Owned(next);
        }
        t
    }

    /// Deeply resolves all links, producing a canonical type. Subtrees
    /// without links are shared with `self`, not copied.
    pub fn zonk(&self) -> Ty {
        self.rebuild(&|_| None)
    }

    /// True if the zonked type contains no unbound or generic variables.
    pub fn is_monomorphic(&self) -> bool {
        match &*self.head() {
            Ty::Var(_) => false,
            Ty::Con(_, args) => args.iter().all(Ty::is_monomorphic),
            Ty::Record(fs) => fs.iter().all(|(_, t)| t.is_monomorphic()),
            Ty::Arrow(a, b) => a.is_monomorphic() && b.is_monomorphic(),
        }
    }

    /// Collects the distinct generic variable indices in the type.
    pub fn gen_vars(&self) -> Vec<u32> {
        fn go(t: &Ty, out: &mut Vec<u32>) {
            match &*t.head() {
                Ty::Var(v) => {
                    if let Tv::Gen(i) = *v.0.borrow() {
                        if !out.contains(&i) {
                            out.push(i);
                        }
                    }
                }
                Ty::Con(_, args) => args.iter().for_each(|a| go(a, out)),
                Ty::Record(fs) => fs.iter().for_each(|(_, a)| go(a, out)),
                Ty::Arrow(a, b) => {
                    go(a, out);
                    go(b, out);
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }

    /// Substitutes generic variables: `Gen(i)` becomes `subst[i]`.
    /// Positions beyond `subst.len()` are left as-is. Links are resolved
    /// on the way; subtrees with neither links nor substituted variables
    /// are shared with `self`.
    pub fn subst_gen(&self, subst: &[Ty]) -> Ty {
        self.rebuild(&|i| subst.get(i as usize).cloned())
    }

    /// `self` with every link resolved and every `Gen(i)` that `gen`
    /// maps replaced.
    fn rebuild(&self, gen: &impl Fn(u32) -> Option<Ty>) -> Ty {
        self.rebuilt(gen).unwrap_or_else(|| self.clone())
    }

    /// [`Ty::rebuild`], or `None` where that would change nothing, so
    /// the caller shares the subtree it already has.
    fn rebuilt(&self, gen: &impl Fn(u32) -> Option<Ty>) -> Option<Ty> {
        match self {
            Ty::Var(v) => match &*v.0.borrow() {
                Tv::Link(t) => Some(t.rebuild(gen)),
                Tv::Gen(i) => gen(*i),
                Tv::Unbound { .. } => None,
            },
            Ty::Con(c, args) => {
                rebuilt_slice(args, |t| t.rebuilt(gen)).map(|a| Ty::Con(c.clone(), a))
            }
            Ty::Record(fs) => {
                rebuilt_slice(fs, |(l, t)| t.rebuilt(gen).map(|t| (*l, t))).map(Ty::Record)
            }
            Ty::Arrow(a, b) => match (a.rebuilt(gen), b.rebuilt(gen)) {
                (None, None) => None,
                (a2, b2) => Some(Ty::Arrow(
                    a2.map_or_else(|| a.clone(), Rc::new),
                    b2.map_or_else(|| b.clone(), Rc::new),
                )),
            },
        }
    }
}

/// Maps `xs` through `f`, where `None` means "element unchanged";
/// `None` when no element changed, so the caller keeps sharing `xs`.
fn rebuilt_slice<T: Clone>(xs: &[T], f: impl Fn(&T) -> Option<T>) -> Option<Rc<[T]>> {
    let (at, first) = xs.iter().enumerate().find_map(|(i, x)| Some((i, f(x)?)))?;
    let mut first = Some(first);
    Some(
        xs.iter()
            .enumerate()
            .map(|(i, x)| match i.cmp(&at) {
                Ordering::Less => x.clone(),
                Ordering::Equal => first.take().expect("one element at `at`"),
                Ordering::Greater => f(x).unwrap_or_else(|| x.clone()),
            })
            .collect(),
    )
}

/// SML record-label ordering: numeric labels numerically, before
/// alphabetic labels, which compare lexicographically.
pub fn label_cmp(a: Symbol, b: Symbol) -> Ordering {
    match (a.as_numeric(), b.as_numeric()) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(_), None) => Ordering::Less,
        (None, Some(_)) => Ordering::Greater,
        (None, None) => a.as_str().cmp(b.as_str()),
    }
}

/// Sorts record fields into canonical label order.
pub fn sort_fields<T>(fields: &mut [(Symbol, T)]) {
    fields.sort_by(|(a, _), (b, _)| label_cmp(*a, *b));
}

/// A polymorphic type scheme: `arity` generic variables and a body in
/// which they appear as [`Tv::Gen`] cells.
#[derive(Clone, Debug)]
pub struct Scheme {
    /// Number of generic variables (`Gen(0) .. Gen(arity-1)`).
    pub arity: usize,
    /// Whether each generic variable carries the equality attribute.
    pub eq_flags: Vec<bool>,
    /// The actual generalized cells, indexed by generic-variable number.
    /// Kept so the MTD pass can re-link them in place, and so recursive
    /// occurrences can be annotated with the identity instantiation.
    pub cells: Vec<TvRef>,
    /// Scheme body.
    pub body: Ty,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Ty) -> Scheme {
        Scheme {
            arity: 0,
            eq_flags: Vec::new(),
            cells: Vec::new(),
            body: ty,
        }
    }

    /// The identity instantiation: each generic variable maps to itself.
    pub fn identity_instance(&self) -> Vec<Ty> {
        self.cells.iter().map(|c| Ty::Var(c.clone())).collect()
    }

    /// Instantiates the scheme with fresh unification variables at
    /// `level`, returning the instantiated body and the fresh instance
    /// vector (one entry per generic variable). The instance vector is
    /// what the elaborator records at each use of a polymorphic variable
    /// (paper §3).
    pub fn instantiate(&self, level: u32) -> (Ty, Vec<Ty>) {
        let fresh: Vec<Ty> = (0..self.arity)
            .map(|i| {
                let eq = self.eq_flags.get(i).copied().unwrap_or(false);
                Ty::Var(TvRef::fresh_eq(level, eq))
            })
            .collect();
        (self.body.subst_gen(&fresh), fresh)
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn prec(t: &Ty, f: &mut fmt::Formatter<'_>, level: u8) -> fmt::Result {
            match &*t.head() {
                Ty::Var(v) => match &*v.0.borrow() {
                    Tv::Unbound { id, eq, .. } => {
                        write!(f, "{}X{}", if *eq { "''" } else { "'" }, id)
                    }
                    Tv::Gen(i) => {
                        let c = (b'a' + (*i % 26) as u8) as char;
                        write!(f, "'{c}")
                    }
                    Tv::Link(_) => unreachable!("head resolves links"),
                },
                Ty::Con(c, args) => {
                    match args.len() {
                        0 => {}
                        1 => {
                            prec(&args[0], f, 2)?;
                            write!(f, " ")?;
                        }
                        _ => {
                            write!(f, "(")?;
                            for (i, a) in args.iter().enumerate() {
                                if i > 0 {
                                    write!(f, ", ")?;
                                }
                                prec(a, f, 0)?;
                            }
                            write!(f, ") ")?;
                        }
                    }
                    write!(f, "{}", c.name)
                }
                Ty::Record(fs) => {
                    if fs.is_empty() {
                        return write!(f, "unit");
                    }
                    let is_tuple = fs
                        .iter()
                        .enumerate()
                        .all(|(i, (l, _))| l.as_numeric() == Some(i + 1));
                    if is_tuple {
                        if level >= 2 {
                            write!(f, "(")?;
                        }
                        for (i, (_, t)) in fs.iter().enumerate() {
                            if i > 0 {
                                write!(f, " * ")?;
                            }
                            prec(t, f, 2)?;
                        }
                        if level >= 2 {
                            write!(f, ")")?;
                        }
                        Ok(())
                    } else {
                        write!(f, "{{")?;
                        for (i, (l, t)) in fs.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{l} : ")?;
                            prec(t, f, 0)?;
                        }
                        write!(f, "}}")
                    }
                }
                Ty::Arrow(a, b) => {
                    if level >= 1 {
                        write!(f, "(")?;
                    }
                    prec(a, f, 1)?;
                    write!(f, " -> ")?;
                    prec(b, f, 0)?;
                    if level >= 1 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        prec(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_basic() {
        assert_eq!(Ty::int().to_string(), "int");
        assert_eq!(Ty::arrow(Ty::int(), Ty::real()).to_string(), "int -> real");
        assert_eq!(Ty::pair(Ty::real(), Ty::real()).to_string(), "real * real");
        assert_eq!(
            Ty::list(Ty::pair(Ty::int(), Ty::int())).to_string(),
            "(int * int) list"
        );
        assert_eq!(Ty::unit().to_string(), "unit");
        assert_eq!(
            Ty::arrow(Ty::arrow(Ty::int(), Ty::int()), Ty::int()).to_string(),
            "(int -> int) -> int"
        );
    }

    #[test]
    fn head_follows_links() {
        let v = TvRef::fresh(0);
        let t = Ty::Var(v.clone());
        *v.0.borrow_mut() = Tv::Link(Ty::int());
        assert!(matches!(&*t.head(), Ty::Con(c, _) if c.kind == TyconKind::Int));
    }

    #[test]
    fn clone_head_and_zonk_share_children() {
        let t = Ty::arrow(Ty::list(Ty::int()), Ty::pair(Ty::int(), Ty::real()));
        let v = TvRef::fresh(0);
        *v.0.borrow_mut() = Tv::Link(t.clone());
        let linked = Ty::Var(v);
        // A link-free subtree is shared, not copied, by every walk.
        for u in [
            t.clone(),
            linked.head().into_owned(),
            linked.zonk(),
            t.subst_gen(&[]),
        ] {
            let (Ty::Arrow(a1, r1), Ty::Arrow(a2, r2)) = (&t, &u) else {
                panic!("expected two arrows, got {t} and {u}");
            };
            assert!(
                Rc::ptr_eq(a1, a2) && Rc::ptr_eq(r1, r2),
                "{u} copied a child"
            );
        }
    }

    #[test]
    fn zonk_resolves_deeply() {
        let v = TvRef::fresh(0);
        let t = Ty::list(Ty::Var(v.clone()));
        *v.0.borrow_mut() = Tv::Link(Ty::real());
        assert_eq!(t.zonk().to_string(), "real list");
    }

    #[test]
    fn scheme_instantiation_is_fresh() {
        // forall 'a. 'a -> 'a
        let v = TvRef::fresh(0);
        *v.0.borrow_mut() = Tv::Gen(0);
        let body = Ty::arrow(Ty::Var(v.clone()), Ty::Var(v.clone()));
        let s = Scheme {
            arity: 1,
            eq_flags: vec![false],
            cells: vec![v],
            body,
        };
        let (t1, inst1) = s.instantiate(0);
        let (_t2, inst2) = s.instantiate(0);
        assert_eq!(inst1.len(), 1);
        // Distinct instantiations do not share variables.
        match (&*inst1[0].head(), &*inst2[0].head()) {
            (Ty::Var(a), Ty::Var(b)) => assert!(!a.same(b)),
            _ => panic!("expected fresh vars"),
        }
        assert!(matches!(t1, Ty::Arrow(..)));
    }

    #[test]
    fn label_ordering() {
        let one = Symbol::numeric(1);
        let two = Symbol::numeric(2);
        let ten = Symbol::numeric(10);
        let a = Symbol::intern("a");
        assert_eq!(label_cmp(one, two), Ordering::Less);
        assert_eq!(
            label_cmp(two, ten),
            Ordering::Less,
            "numeric labels compare numerically"
        );
        assert_eq!(label_cmp(one, a), Ordering::Less);
        assert_eq!(label_cmp(a, Symbol::intern("b")), Ordering::Less);
    }

    #[test]
    fn builtin_tycons_distinct() {
        assert_ne!(Tycon::int().stamp, Tycon::real().stamp);
        assert!(Tycon::int().is_rigid());
        assert!(!Tycon::fresh_abstract(Symbol::intern("t"), 0, false).is_rigid());
    }

    #[test]
    fn gen_vars_collects() {
        let v0 = TvRef::fresh(0);
        let v1 = TvRef::fresh(0);
        *v0.0.borrow_mut() = Tv::Gen(0);
        *v1.0.borrow_mut() = Tv::Gen(1);
        let t = Ty::pair(Ty::Var(v0.clone()), Ty::pair(Ty::Var(v1), Ty::Var(v0)));
        assert_eq!(t.gen_vars(), vec![0, 1]);
    }
}
