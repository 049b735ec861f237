//! Semantic types for the SML subset: type constructors, the type store
//! of one compile, and type schemes.
//!
//! Every type of a compile lives in one [`TyStore`], and a [`Ty`] is a
//! 4-byte handle to one of its nodes: a constructor application (its
//! arguments in a pool the store shares among all nodes), a record (its
//! fields likewise), an arrow, or a type variable. Nodes never change
//! once made, so a type is a DAG: a subtree two types share is one
//! handle, never a copy.
//!
//! A type variable is an entry of the store's variable array: unbound
//! (with its binding level and equality attribute), linked to another
//! type, or generalized in place as the `i`th generic variable of a
//! scheme ([`Tv`]). [`TyStore::head`] follows links with path
//! compression, as in union-find. Generalization marks variables **in
//! place**, so every type that shares a variable sees the change — this
//! sharing is what makes the minimum-typing-derivation pass (paper §3) a
//! constant-time re-linking of variables rather than a re-elaboration.
//!
//! Every walk over a type visits a shared node once. Walks that mark or
//! check ([`TyStore::is_monomorphic`], [`TyStore::gen_vars`],
//! [`TyStore::demote`], and in the sibling modules the occurs check,
//! equality forcing and generalization) keep per-node visit marks;
//! walks that rebuild ([`TyStore::subst_gen`], [`TyStore::instantiate`],
//! [`TyStore::zonk`], [`TyStore::map_cons`]) keep a memo from node to
//! result. Both live in dense arrays indexed by handle and are reset per
//! walk by an epoch counter, so no walk hashes a node. Only printing
//! ([`TyStore::show`]) still unfolds a type as a tree.
//!
//! Variables print as `'X<n>`, `n` the variable's index in the store, so
//! a message names the same variables in every compile of one program.

use sml_ast::Symbol;
use std::cell::Cell;
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
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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

/// A type: a handle to a node of the [`TyStore`] that made it.
///
/// Handles are meaningful only to their own store. Equal handles are
/// the same type; distinct handles may still be structurally equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Ty(u32);

impl Ty {
    /// `int`, made by every store.
    pub const INT: Ty = Ty(0);
    /// `real`, made by every store.
    pub const REAL: Ty = Ty(1);
    /// `string`, made by every store.
    pub const STRING: Ty = Ty(2);
    /// `char`, made by every store.
    pub const CHAR: Ty = Ty(3);
    /// `bool`, made by every store.
    pub const BOOL: Ty = Ty(4);
    /// `exn`, made by every store.
    pub const EXN: Ty = Ty(5);
    /// `unit`, the empty record, made by every store.
    pub const UNIT: Ty = Ty(6);

    /// The handle's index in its store's node array.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A type variable: an index into its [`TyStore`]'s variable array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TvId(u32);

impl TvId {
    /// The variable's index in its store, which also names it when
    /// printed (`'X<index>`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The state of a type variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tv {
    /// An unresolved variable.
    Unbound {
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

/// What a type is at its head, links followed, as [`TyStore::kind`]
/// shows it.
#[derive(Clone, Copy, Debug)]
pub enum TyKind<'s> {
    /// An unbound or generic variable.
    Var(TvId),
    /// Constructor application; all primitive types are nullary `Con`s.
    Con(Tycon, &'s [Ty]),
    /// Record type with fields sorted by [`label_cmp`]; tuples use numeric
    /// labels `1..n` and `unit` is the empty record.
    Record(&'s [(Symbol, Ty)]),
    /// Function type.
    Arrow(Ty, Ty),
}

/// One node of a store. Children sit in the store's pools: a `Con`'s
/// arguments at `args[start..start + len]`, a `Record`'s fields at
/// `fields[start..start + len]`.
#[derive(Clone, Copy, Debug)]
enum Node {
    Var(TvId),
    Con(Tycon, u32, u32),
    Record(u32, u32),
    Arrow(Ty, Ty),
}

/// The type store of one compile: every type node, the argument and
/// field pools the nodes share, every type variable, and the scratch
/// arrays its walks mark and memoize in.
#[derive(Debug)]
pub struct TyStore {
    nodes: Vec<Node>,
    args: Vec<Ty>,
    fields: Vec<(Symbol, Ty)>,
    /// Each variable's state. Cells, so that [`TyStore::head`] can
    /// compress paths through a shared store.
    vars: Vec<Cell<Tv>>,
    /// Each variable's `Var` node.
    var_nodes: Vec<Ty>,
    /// The last epoch handed out: each walk takes a fresh one, and a
    /// scratch entry belongs to the walk whose epoch it carries.
    epoch: u32,
    /// Visit marks by node: the epoch of the last walk that visited it.
    marks: Vec<u32>,
    /// Rebuild memo by node: `(epoch, result)`.
    memo: Vec<(u32, Ty)>,
    /// Pair memo by left node, for walks over two types at once
    /// (unification, shape comparison): `(epoch, right node)` of the
    /// last pair the walk of `epoch` took on with that left node.
    pairs: Vec<(u32, Ty)>,
}

impl Default for TyStore {
    fn default() -> TyStore {
        TyStore::new()
    }
}

/// The nullary built-ins every store makes first, at the handles of the
/// `Ty` constants.
fn atoms() -> [Tycon; 6] {
    [
        Tycon::int(),
        Tycon::real(),
        Tycon::string(),
        Tycon::char(),
        Tycon::bool(),
        Tycon::exn(),
    ]
}

impl TyStore {
    /// A store holding only the built-in atoms (`int`, `real`, `string`,
    /// `char`, `bool`, `exn` and `unit`).
    pub fn new() -> TyStore {
        let mut s = TyStore {
            nodes: Vec::new(),
            args: Vec::new(),
            fields: Vec::new(),
            vars: Vec::new(),
            var_nodes: Vec::new(),
            epoch: 0,
            marks: Vec::new(),
            memo: Vec::new(),
            pairs: Vec::new(),
        };
        for tc in atoms() {
            s.push(Node::Con(tc, 0, 0));
        }
        s.push(Node::Record(0, 0));
        s
    }

    /// Number of nodes made so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the store holds no node (never: it starts with the atoms).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, n: Node) -> Ty {
        let t = Ty(u32::try_from(self.nodes.len()).expect("type store overflow"));
        self.nodes.push(n);
        t
    }

    fn pool_start(len: usize) -> u32 {
        u32::try_from(len).expect("type store overflow")
    }

    // ----- construction ------------------------------------------------

    /// `tycon args`. The nullary built-in atoms are the store's own
    /// handles.
    pub fn con(&mut self, tycon: Tycon, args: &[Ty]) -> Ty {
        if args.is_empty() {
            if let Some(i) = atoms().iter().position(|a| a.stamp == tycon.stamp) {
                return Ty(i as u32);
            }
        }
        let start = Self::pool_start(self.args.len());
        self.args.extend_from_slice(args);
        self.push(Node::Con(tycon, start, args.len() as u32))
    }

    /// A record from fields already in canonical label order
    /// ([`sort_fields`]); no fields is `unit`.
    pub fn record(&mut self, fields: impl IntoIterator<Item = (Symbol, Ty)>) -> Ty {
        let start = Self::pool_start(self.fields.len());
        self.fields.extend(fields);
        let len = self.fields.len() as u32 - start;
        if len == 0 {
            return Ty::UNIT;
        }
        self.push(Node::Record(start, len))
    }

    /// `a -> b`.
    pub fn arrow(&mut self, a: Ty, b: Ty) -> Ty {
        self.push(Node::Arrow(a, b))
    }

    /// An n-tuple with numeric labels `1..n`.
    pub fn tuple(&mut self, parts: &[Ty]) -> Ty {
        self.record(
            parts
                .iter()
                .enumerate()
                .map(|(i, t)| (Symbol::numeric(i + 1), *t)),
        )
    }

    /// `a * b`.
    pub fn pair(&mut self, a: Ty, b: Ty) -> Ty {
        self.tuple(&[a, b])
    }

    /// `t list`.
    pub fn list(&mut self, t: Ty) -> Ty {
        self.con(Tycon::list(), &[t])
    }

    /// `t ref`.
    pub fn reference(&mut self, t: Ty) -> Ty {
        self.con(Tycon::reference(), &[t])
    }

    /// `t array`.
    pub fn array(&mut self, t: Ty) -> Ty {
        self.con(Tycon::array(), &[t])
    }

    /// `t cont`.
    pub fn cont(&mut self, t: Ty) -> Ty {
        self.con(Tycon::cont(), &[t])
    }

    /// A new variable in state `tv`.
    pub fn new_tv(&mut self, tv: Tv) -> TvId {
        let v = TvId(Self::pool_start(self.vars.len()));
        self.vars.push(Cell::new(tv));
        let node = self.push(Node::Var(v));
        self.var_nodes.push(node);
        v
    }

    /// A fresh unbound variable at `level`, as a type.
    pub fn fresh_var(&mut self, level: u32) -> Ty {
        self.fresh_var_eq(level, false)
    }

    /// A fresh unbound variable at `level` with equality attribute `eq`,
    /// as a type.
    pub fn fresh_var_eq(&mut self, level: u32, eq: bool) -> Ty {
        let v = self.new_tv(Tv::Unbound { level, eq });
        self.var_ty(v)
    }

    /// The type that is variable `v`.
    pub fn var_ty(&self, v: TvId) -> Ty {
        self.var_nodes[v.index()]
    }

    /// The state of variable `v`.
    pub fn tv(&self, v: TvId) -> Tv {
        self.vars[v.index()].get()
    }

    /// Sets the state of variable `v`: a unification binding, a
    /// generalization, or MTD's re-linking of a generic variable.
    pub fn set_tv(&mut self, v: TvId, tv: Tv) {
        self.vars[v.index()].set(tv);
    }

    // ----- reading -----------------------------------------------------

    /// Follows links until the head is not a resolved variable,
    /// shortening every link on the way to point at the head.
    pub fn head(&self, t: Ty) -> Ty {
        let mut root = t;
        while let Node::Var(v) = self.nodes[root.index()] {
            match self.vars[v.index()].get() {
                Tv::Link(u) => root = u,
                _ => break,
            }
        }
        let mut cur = t;
        while cur != root {
            let Node::Var(v) = self.nodes[cur.index()] else {
                break;
            };
            let Tv::Link(next) = self.vars[v.index()].get() else {
                break;
            };
            if next != root {
                self.vars[v.index()].set(Tv::Link(root));
            }
            cur = next;
        }
        root
    }

    /// What `t` is at its head.
    pub fn kind(&self, t: Ty) -> TyKind<'_> {
        self.node_kind(self.head(t))
    }

    /// The kind of a node, links not followed.
    fn node_kind(&self, t: Ty) -> TyKind<'_> {
        match self.nodes[t.index()] {
            Node::Var(v) => TyKind::Var(v),
            Node::Con(tc, s, l) => TyKind::Con(tc, &self.args[s as usize..(s + l) as usize]),
            Node::Record(s, l) => TyKind::Record(&self.fields[s as usize..(s + l) as usize]),
            Node::Arrow(a, b) => TyKind::Arrow(a, b),
        }
    }

    /// The variable `t` is at its head, if it is one.
    pub fn head_var(&self, t: Ty) -> Option<TvId> {
        match self.nodes[self.head(t).index()] {
            Node::Var(v) => Some(v),
            _ => None,
        }
    }

    /// `t`'s argument `k` (a `Con` node's, links not followed).
    fn arg(&self, start: u32, k: u32) -> Ty {
        self.args[(start + k) as usize]
    }

    /// `t`'s field `k` (a `Record` node's, links not followed).
    fn field(&self, start: u32, k: u32) -> (Symbol, Ty) {
        self.fields[(start + k) as usize]
    }

    /// The children of node `t` (links not followed), in order.
    fn child(&self, t: Ty, k: u32) -> Option<Ty> {
        match self.nodes[t.index()] {
            Node::Var(_) => None,
            Node::Con(_, s, l) => (k < l).then(|| self.arg(s, k)),
            Node::Record(s, l) => (k < l).then(|| self.field(s, k).1),
            Node::Arrow(a, b) => match k {
                0 => Some(a),
                1 => Some(b),
                _ => None,
            },
        }
    }

    /// A printable view of `t`.
    pub fn show(&self, t: Ty) -> TyDisplay<'_> {
        TyDisplay { store: self, ty: t }
    }

    // ----- walk scratch ------------------------------------------------

    /// A fresh epoch for one walk, with the scratch arrays covering every
    /// node made so far.
    pub(crate) fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.marks.fill(0);
            self.memo.fill((0, Ty::INT));
            self.pairs.fill((0, Ty::INT));
            self.epoch = 0;
        }
        self.epoch += 1;
        let n = self.nodes.len();
        if self.marks.len() < n {
            self.marks.resize(n, 0);
            self.memo.resize(n, (0, Ty::INT));
            self.pairs.resize(n, (0, Ty::INT));
        }
        self.epoch
    }

    /// Marks node `t` visited in the walk of `epoch`; false if it
    /// already was.
    pub(crate) fn visit(&mut self, t: Ty, epoch: u32) -> bool {
        if t.index() >= self.marks.len() {
            self.marks.resize(self.nodes.len(), 0);
        }
        let m = &mut self.marks[t.index()];
        if *m == epoch {
            return false;
        }
        *m = epoch;
        true
    }

    /// Records that the walk of `epoch` has taken on the pair `(a, b)`;
    /// false if it already had.
    pub(crate) fn pair_first_seen(&mut self, a: Ty, b: Ty, epoch: u32) -> bool {
        if a.index() >= self.pairs.len() {
            self.pairs.resize(self.nodes.len(), (0, Ty::INT));
        }
        let p = &mut self.pairs[a.index()];
        if *p == (epoch, b) {
            return false;
        }
        *p = (epoch, b);
        true
    }

    fn memo_get(&self, t: Ty, epoch: u32) -> Option<Ty> {
        match self.memo.get(t.index()) {
            Some(&(e, r)) if e == epoch => Some(r),
            _ => None,
        }
    }

    fn memo_set(&mut self, t: Ty, epoch: u32, r: Ty) {
        if let Some(slot) = self.memo.get_mut(t.index()) {
            *slot = (epoch, r);
        }
    }

    /// Calls `f` on every node reachable from `t` (links followed), each
    /// once, in depth-first preorder, descending into a node's children
    /// only when `f` returns true.
    pub(crate) fn walk(&mut self, t: Ty, f: &mut impl FnMut(&mut TyStore, Ty) -> bool) {
        let epoch = self.next_epoch();
        self.walk_from(t, epoch, f);
    }

    /// [`TyStore::walk`] within the walk of `epoch`, so several roots
    /// can share one set of visit marks.
    pub(crate) fn walk_from(
        &mut self,
        t: Ty,
        epoch: u32,
        f: &mut impl FnMut(&mut TyStore, Ty) -> bool,
    ) {
        let h = self.head(t);
        if !self.visit(h, epoch) || !f(self, h) {
            return;
        }
        let mut k = 0;
        while let Some(c) = self.child(h, k) {
            self.walk_from(c, epoch, f);
            k += 1;
        }
    }

    // ----- walks -------------------------------------------------------

    /// True if `t` contains no unbound or generic variables.
    pub fn is_monomorphic(&mut self, t: Ty) -> bool {
        let mut mono = true;
        self.walk(t, &mut |s, n| {
            if matches!(s.nodes[n.index()], Node::Var(_)) {
                mono = false;
            }
            mono
        });
        mono
    }

    /// The distinct generic variable indices in `t`, in first-occurrence
    /// order.
    pub fn gen_vars(&mut self, t: Ty) -> Vec<u32> {
        let mut out = Vec::new();
        self.walk(t, &mut |s, n| {
            if let Node::Var(v) = s.nodes[n.index()] {
                if let Tv::Gen(i) = s.tv(v) {
                    if !out.contains(&i) {
                        out.push(i);
                    }
                }
            }
            true
        });
        out
    }

    /// Lowers every unbound variable in `t` deeper than `level` to
    /// `level`, so it will not be generalized (the value restriction).
    pub fn demote(&mut self, t: Ty, level: u32) {
        self.walk(t, &mut |s, n| {
            if let Node::Var(v) = s.nodes[n.index()] {
                s.lower(v, level);
            }
            true
        });
    }

    /// Lowers variable `v`'s level to `level` if it is unbound deeper.
    pub fn lower(&mut self, v: TvId, level: u32) {
        if let Tv::Unbound { level: l, eq } = self.tv(v) {
            if l > level {
                self.set_tv(v, Tv::Unbound { level, eq });
            }
        }
    }

    /// Substitutes generic variables: `Gen(i)` becomes `subst[i]`.
    /// Positions beyond `subst.len()` are left as-is. Nodes with no
    /// substituted variable below them are shared, not copied.
    pub fn subst_gen(&mut self, t: Ty, subst: &[Ty]) -> Ty {
        if subst.is_empty() {
            return t;
        }
        let epoch = self.next_epoch();
        self.rebuild(t, epoch, false, &mut |s, v| match s.tv(v) {
            Tv::Gen(i) => subst.get(i as usize).copied(),
            _ => None,
        })
        .unwrap_or(t)
    }

    /// `t` with every link resolved: a type none of whose nodes is a
    /// linked variable. Link-free nodes are shared, not copied.
    pub fn zonk(&mut self, t: Ty) -> Ty {
        let epoch = self.next_epoch();
        self.rebuild(t, epoch, true, &mut |_, _| None).unwrap_or(t)
    }

    /// Instantiates `s` with fresh unification variables at `level`,
    /// returning the instantiated body and the fresh instance vector
    /// (one entry per generic variable). The instance vector is what the
    /// elaborator records at each use of a polymorphic variable (paper
    /// §3).
    pub fn instantiate(&mut self, s: &Scheme, level: u32) -> (Ty, Vec<Ty>) {
        let fresh: Vec<Ty> = s
            .generics()
            .iter()
            .map(|g| self.fresh_var_eq(level, g.eq))
            .collect();
        (self.subst_gen(s.body, &fresh), fresh)
    }

    /// The identity instantiation of `s`: each generic variable as
    /// itself.
    pub fn identity_instance(&self, s: &Scheme) -> Vec<Ty> {
        s.generics().iter().map(|g| self.var_ty(g.cell)).collect()
    }

    /// Rebuilds `t` bottom-up: a variable `gen` maps is replaced, a
    /// linked variable becomes what its link rebuilds to (or, when
    /// `zonk`, what it links to even if that stays), and a node whose
    /// children all stay is kept. `None` means `t` itself stays.
    fn rebuild(
        &mut self,
        t: Ty,
        epoch: u32,
        zonk: bool,
        gen: &mut impl FnMut(&TyStore, TvId) -> Option<Ty>,
    ) -> Option<Ty> {
        if let Some(r) = self.memo_get(t, epoch) {
            return (r != t).then_some(r);
        }
        let out = match self.nodes[t.index()] {
            Node::Var(v) => match self.tv(v) {
                Tv::Link(u) => match self.rebuild(u, epoch, zonk, gen) {
                    None if zonk => Some(u),
                    r => r,
                },
                _ => gen(self, v),
            },
            Node::Con(tc, start, len) => {
                let mut out: Option<Vec<Ty>> = None;
                for k in 0..len {
                    let c = self.arg(start, k);
                    let r = self.rebuild(c, epoch, zonk, gen);
                    if r.is_some() && out.is_none() {
                        out = Some((0..k).map(|j| self.arg(start, j)).collect());
                    }
                    if let Some(o) = &mut out {
                        o.push(r.unwrap_or(c));
                    }
                }
                out.map(|a| self.con(tc, &a))
            }
            Node::Record(start, len) => {
                let mut out: Option<Vec<(Symbol, Ty)>> = None;
                for k in 0..len {
                    let (l, c) = self.field(start, k);
                    let r = self.rebuild(c, epoch, zonk, gen);
                    if r.is_some() && out.is_none() {
                        out = Some((0..k).map(|j| self.field(start, j)).collect());
                    }
                    if let Some(o) = &mut out {
                        o.push((l, r.unwrap_or(c)));
                    }
                }
                out.map(|f| self.record(f))
            }
            Node::Arrow(a, b) => {
                let ra = self.rebuild(a, epoch, zonk, gen);
                let rb = self.rebuild(b, epoch, zonk, gen);
                match (ra, rb) {
                    (None, None) => None,
                    _ => Some(self.arrow(ra.unwrap_or(a), rb.unwrap_or(b))),
                }
            }
        };
        self.memo_set(t, epoch, out.unwrap_or(t));
        out
    }

    /// Rebuilds `t` with every constructor application `f` maps replaced
    /// by what it returns (given the rebuilt arguments), sharing every
    /// node with no replaced application below it.
    pub fn map_cons(
        &mut self,
        t: Ty,
        f: &mut impl FnMut(&mut TyStore, Tycon, &[Ty]) -> Option<Ty>,
    ) -> Ty {
        let epoch = self.next_epoch();
        self.map_cons_in(t, epoch, f).unwrap_or(t)
    }

    fn map_cons_in(
        &mut self,
        t: Ty,
        epoch: u32,
        f: &mut impl FnMut(&mut TyStore, Tycon, &[Ty]) -> Option<Ty>,
    ) -> Option<Ty> {
        let t = self.head(t);
        if let Some(r) = self.memo_get(t, epoch) {
            return (r != t).then_some(r);
        }
        let out = match self.nodes[t.index()] {
            Node::Var(_) => None,
            Node::Con(tc, start, len) => {
                let mut changed = false;
                let args: Vec<Ty> = (0..len)
                    .map(|k| {
                        let c = self.arg(start, k);
                        let r = self.map_cons_in(c, epoch, f);
                        changed |= r.is_some();
                        r.unwrap_or(c)
                    })
                    .collect();
                match f(self, tc, &args) {
                    Some(r) => Some(r),
                    None if changed => Some(self.con(tc, &args)),
                    None => None,
                }
            }
            Node::Record(start, len) => {
                let mut changed = false;
                let fields: Vec<(Symbol, Ty)> = (0..len)
                    .map(|k| {
                        let (l, c) = self.field(start, k);
                        let r = self.map_cons_in(c, epoch, f);
                        changed |= r.is_some();
                        (l, r.unwrap_or(c))
                    })
                    .collect();
                changed.then(|| self.record(fields))
            }
            Node::Arrow(a, b) => {
                let ra = self.map_cons_in(a, epoch, f);
                let rb = self.map_cons_in(b, epoch, f);
                match (ra, rb) {
                    (None, None) => None,
                    _ => Some(self.arrow(ra.unwrap_or(a), rb.unwrap_or(b))),
                }
            }
        };
        self.memo_set(t, epoch, out.unwrap_or(t));
        out
    }

    /// True if some constructor application in `t` satisfies `p`.
    pub fn any_con(&mut self, t: Ty, p: &mut impl FnMut(&Tycon) -> bool) -> bool {
        let mut found = false;
        self.walk(t, &mut |s, n| {
            if let Node::Con(tc, _, _) = s.nodes[n.index()] {
                found |= p(&tc);
            }
            !found
        });
        found
    }

    /// Structural equality of `a` and `b` with links followed, where an
    /// unbound variable equals only itself and generic variables are
    /// equal when their indices are.
    pub fn same_shape(&mut self, a: Ty, b: Ty) -> bool {
        let epoch = self.next_epoch();
        self.same_shape_in(a, b, epoch)
    }

    fn same_shape_in(&mut self, a: Ty, b: Ty, epoch: u32) -> bool {
        let (a, b) = (self.head(a), self.head(b));
        if a == b || !self.pair_first_seen(a, b, epoch) {
            return true;
        }
        match (self.nodes[a.index()], self.nodes[b.index()]) {
            (Node::Var(va), Node::Var(vb)) => match (self.tv(va), self.tv(vb)) {
                (Tv::Gen(i), Tv::Gen(j)) => i == j,
                _ => va == vb,
            },
            (Node::Con(ca, sa, la), Node::Con(cb, sb, lb)) => {
                ca == cb
                    && la == lb
                    && (0..la).all(|k| self.same_shape_in(self.arg(sa, k), self.arg(sb, k), epoch))
            }
            (Node::Record(sa, la), Node::Record(sb, lb)) => {
                la == lb
                    && (0..la).all(|k| {
                        let ((l1, t1), (l2, t2)) = (self.field(sa, k), self.field(sb, k));
                        l1 == l2 && self.same_shape_in(t1, t2, epoch)
                    })
            }
            (Node::Arrow(a1, r1), Node::Arrow(a2, r2)) => {
                self.same_shape_in(a1, a2, epoch) && self.same_shape_in(r1, r2, epoch)
            }
            _ => false,
        }
    }
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

/// One generic variable of a [`Scheme`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Generic {
    /// The generalized variable, in state `Gen(i)` for its index `i`.
    /// Kept so the MTD pass can re-link it in place, and so recursive
    /// occurrences can be annotated with the identity instantiation.
    pub cell: TvId,
    /// Whether the variable carries the equality attribute.
    pub eq: bool,
}

/// A polymorphic type scheme: generic variables and a body in which they
/// appear in state [`Tv::Gen`].
///
/// A copy shares its generic variables with the original, so a variable
/// occurrence carries its scheme for the cost of a reference count.
#[derive(Clone, Debug)]
pub struct Scheme {
    /// Scheme body.
    pub body: Ty,
    generics: Option<Rc<[Generic]>>,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(body: Ty) -> Scheme {
        Scheme {
            body,
            generics: None,
        }
    }

    /// A scheme with generic variables `generics`, indexed `0..`.
    pub fn poly(body: Ty, generics: Vec<Generic>) -> Scheme {
        Scheme {
            body,
            generics: (!generics.is_empty()).then(|| generics.into()),
        }
    }

    /// Number of generic variables.
    pub fn arity(&self) -> usize {
        self.generics().len()
    }

    /// The generic variables, by index.
    pub fn generics(&self) -> &[Generic] {
        self.generics.as_deref().unwrap_or(&[])
    }

    /// The same generic variables over another body.
    pub fn with_body(&self, body: Ty) -> Scheme {
        Scheme {
            body,
            generics: self.generics.clone(),
        }
    }
}

/// A type ready to print against its store ([`TyStore::show`]).
pub struct TyDisplay<'s> {
    store: &'s TyStore,
    ty: Ty,
}

impl TyDisplay<'_> {
    fn prec(&self, t: Ty, f: &mut fmt::Formatter<'_>, level: u8) -> fmt::Result {
        let s = self.store;
        match s.kind(t) {
            TyKind::Var(v) => match s.tv(v) {
                Tv::Unbound { eq, .. } => {
                    write!(f, "{}X{}", if eq { "''" } else { "'" }, v.index())
                }
                Tv::Gen(i) => {
                    let c = (b'a' + (i % 26) as u8) as char;
                    write!(f, "'{c}")
                }
                Tv::Link(_) => unreachable!("head resolves links"),
            },
            TyKind::Con(c, args) => {
                match args.len() {
                    0 => {}
                    1 => {
                        self.prec(args[0], f, 2)?;
                        write!(f, " ")?;
                    }
                    _ => {
                        write!(f, "(")?;
                        for (i, a) in args.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            self.prec(*a, f, 0)?;
                        }
                        write!(f, ") ")?;
                    }
                }
                write!(f, "{}", c.name)
            }
            TyKind::Record(fs) => {
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
                        self.prec(*t, f, 2)?;
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
                        self.prec(*t, f, 0)?;
                    }
                    write!(f, "}}")
                }
            }
            TyKind::Arrow(a, b) => {
                if level >= 1 {
                    write!(f, "(")?;
                }
                self.prec(a, f, 1)?;
                write!(f, " -> ")?;
                self.prec(b, f, 0)?;
                if level >= 1 {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for TyDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.prec(self.ty, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_basic() {
        let mut s = TyStore::new();
        let t = s.arrow(Ty::INT, Ty::REAL);
        assert_eq!(s.show(t).to_string(), "int -> real");
        let t = s.pair(Ty::REAL, Ty::REAL);
        assert_eq!(s.show(t).to_string(), "real * real");
        let p = s.pair(Ty::INT, Ty::INT);
        let t = s.list(p);
        assert_eq!(s.show(t).to_string(), "(int * int) list");
        assert_eq!(s.show(Ty::UNIT).to_string(), "unit");
        let f = s.arrow(Ty::INT, Ty::INT);
        let t = s.arrow(f, Ty::INT);
        assert_eq!(s.show(t).to_string(), "(int -> int) -> int");
    }

    #[test]
    fn head_follows_links() {
        let mut s = TyStore::new();
        let t = s.fresh_var(0);
        let v = s.head_var(t).expect("a variable");
        s.set_tv(v, Tv::Link(Ty::INT));
        assert_eq!(s.head(t), Ty::INT);
        assert!(matches!(s.kind(t), TyKind::Con(c, _) if c.kind == TyconKind::Int));
    }

    #[test]
    fn head_compresses_paths() {
        // a -> b -> c -> int: after one head, every link points at int.
        let mut s = TyStore::new();
        let chain: Vec<Ty> = (0..3).map(|_| s.fresh_var(0)).collect();
        let vars: Vec<TvId> = chain.iter().map(|t| s.head_var(*t).unwrap()).collect();
        s.set_tv(vars[2], Tv::Link(Ty::INT));
        s.set_tv(vars[1], Tv::Link(chain[2]));
        s.set_tv(vars[0], Tv::Link(chain[1]));
        assert_eq!(s.head(chain[0]), Ty::INT);
        for v in vars {
            assert_eq!(s.tv(v), Tv::Link(Ty::INT));
        }
    }

    #[test]
    fn walks_share_link_free_nodes() {
        // A link-free subtree keeps its handle through every walk, and a
        // node with a link below it is rebuilt once.
        let mut s = TyStore::new();
        let l = s.list(Ty::INT);
        let r = s.pair(Ty::INT, Ty::REAL);
        let t = s.arrow(l, r);
        let x = s.fresh_var(0);
        s.set_tv(s.head_var(x).unwrap(), Tv::Link(t));
        assert_eq!(s.head(x), t);
        assert_eq!(s.zonk(t), t);
        assert_eq!(s.subst_gen(t, &[Ty::INT]), t);
        let before = s.len();
        let u = s.arrow(x, x);
        let z = s.zonk(u);
        assert_ne!(z, u);
        assert!(matches!(s.kind(z), TyKind::Arrow(a, b) if a == t && b == t));
        assert_eq!(s.len(), before + 2, "one new arrow, not one per path");
    }

    #[test]
    fn zonk_resolves_deeply() {
        let mut s = TyStore::new();
        let x = s.fresh_var(0);
        let t = s.list(x);
        s.set_tv(s.head_var(x).unwrap(), Tv::Link(Ty::REAL));
        assert_eq!(s.show(t).to_string(), "real list");
        let z = s.zonk(t);
        assert!(matches!(s.node_kind(z), TyKind::Con(_, [a]) if *a == Ty::REAL));
    }

    #[test]
    fn subst_gen_copies_a_shared_node_once() {
        // 'a -> 'a * 'a with the pair shared n levels deep: the instance
        // has as many new nodes as the scheme body, not 2^n.
        let mut s = TyStore::new();
        let g = s.new_tv(Tv::Gen(0));
        let mut t = s.var_ty(g);
        for _ in 0..40 {
            t = s.pair(t, t);
        }
        let before = s.len();
        let u = s.subst_gen(t, &[Ty::INT]);
        assert_eq!(s.len(), before + 40);
        assert!(s.is_monomorphic(u));
    }

    #[test]
    fn scheme_instantiation_is_fresh() {
        // forall 'a. 'a -> 'a
        let mut s = TyStore::new();
        let v = s.new_tv(Tv::Gen(0));
        let a = s.var_ty(v);
        let body = s.arrow(a, a);
        let sc = Scheme::poly(body, vec![Generic { cell: v, eq: false }]);
        let (t1, inst1) = s.instantiate(&sc, 0);
        let (_t2, inst2) = s.instantiate(&sc, 0);
        assert_eq!(inst1.len(), 1);
        // Distinct instantiations do not share variables.
        assert_ne!(s.head_var(inst1[0]), s.head_var(inst2[0]));
        assert!(matches!(s.kind(t1), TyKind::Arrow(x, y) if x == inst1[0] && y == inst1[0]));
        assert_eq!(s.identity_instance(&sc), vec![a]);
    }

    #[test]
    fn copies_of_a_scheme_share_its_generics() {
        let mut s = TyStore::new();
        let v = s.new_tv(Tv::Gen(0));
        let sc = Scheme::poly(s.var_ty(v), vec![Generic { cell: v, eq: true }]);
        let copy = sc.clone();
        assert!(std::ptr::eq(sc.generics(), copy.generics()));
        assert_eq!(Scheme::mono(Ty::INT).arity(), 0);
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
        let mut s = TyStore::new();
        assert_eq!(s.con(Tycon::bool(), &[]), Ty::BOOL);
        assert_eq!(s.tuple(&[]), Ty::UNIT);
    }

    #[test]
    fn gen_vars_collects() {
        let mut s = TyStore::new();
        let v0 = s.new_tv(Tv::Gen(0));
        let v1 = s.new_tv(Tv::Gen(1));
        let (a, b) = (s.var_ty(v0), s.var_ty(v1));
        let inner = s.pair(b, a);
        let t = s.pair(a, inner);
        assert_eq!(s.gen_vars(t), vec![0, 1]);
        assert!(!s.is_monomorphic(t));
    }

    #[test]
    fn variables_print_by_store_index() {
        let mut s = TyStore::new();
        let a = s.fresh_var(0);
        let b = s.fresh_var_eq(0, true);
        let t = s.arrow(a, b);
        assert_eq!(s.show(t).to_string(), "'X0 -> ''X1");
    }
}
