//! Elaboration environments and the initial (built-in) environment.

use crate::absyn::{Access, CompTy, ConInfo, Prim, StrTy, VarId, VarTable};
use sml_ast::{FxHashMap, SigExp, Symbol};
use sml_types::{ConRep, Generic, Scheme, Stamp, Tv, TvId, Ty, TyStore, Tycon, TyconRegistry};
use std::rc::Rc;

/// Overload classes for the overloaded source operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OvClass {
    /// `+ - * ~`: int or real.
    Num,
    /// `< <= > >=`: int, real, string, or char.
    NumText,
}

impl OvClass {
    /// Whether `ty` (a resolved head constructor) belongs to the class.
    pub fn admits(self, tycon: &Tycon) -> bool {
        use sml_types::TyconKind::*;
        match self {
            OvClass::Num => matches!(tycon.kind, Int | Real),
            OvClass::NumText => matches!(tycon.kind, Int | Real | String | Char),
        }
    }
}

/// A value-namespace binding.
#[derive(Clone, Debug)]
pub enum ValBind {
    /// An ordinary variable.
    Var {
        /// How to reach it.
        access: Access,
        /// Its scheme.
        scheme: Scheme,
    },
    /// A data or exception constructor, shared with every occurrence.
    Con(Rc<ConInfo>),
    /// A compiler primitive.
    Prim {
        /// The primitive.
        prim: Prim,
        /// Its scheme.
        scheme: Scheme,
        /// Overload class if the primitive is an overloaded pseudo-prim.
        overload: Option<OvClass>,
    },
}

/// A type function: `arity` generic parameters and a body (used for
/// `type` abbreviations and manifest signature specs).
#[derive(Clone, Debug)]
pub struct TyFun {
    /// Parameter variables (marked `Gen(0..)`).
    pub params: Vec<TvId>,
    /// The body.
    pub body: Ty,
}

impl TyFun {
    /// A nullary type function.
    pub fn constant(ty: Ty) -> TyFun {
        TyFun {
            params: Vec::new(),
            body: ty,
        }
    }

    /// The arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Applies the type function to `args`.
    pub fn apply(&self, store: &mut TyStore, args: &[Ty]) -> Ty {
        store.subst_gen(self.body, args)
    }
}

/// A type-namespace binding: a real tycon or an abbreviation.
#[derive(Clone, Debug)]
pub enum TyconBind {
    /// A proper type constructor.
    Tycon(Tycon),
    /// A `type` abbreviation.
    Abbrev(TyFun),
}

impl TyconBind {
    /// The binding's arity.
    pub fn arity(&self) -> usize {
        match self {
            TyconBind::Tycon(t) => t.arity,
            TyconBind::Abbrev(f) => f.arity(),
        }
    }

    /// Applies the binding to argument types.
    pub fn apply(&self, store: &mut TyStore, args: &[Ty]) -> Ty {
        match self {
            TyconBind::Tycon(t) => store.con(*t, args),
            TyconBind::Abbrev(f) => f.apply(store, args),
        }
    }

    /// As a type function (tycon eta-expanded).
    pub fn to_tyfun(&self, store: &mut TyStore) -> TyFun {
        match self {
            TyconBind::Abbrev(f) => f.clone(),
            TyconBind::Tycon(t) => {
                let params: Vec<TvId> = (0..t.arity)
                    .map(|i| store.new_tv(Tv::Gen(i as u32)))
                    .collect();
                let args: Vec<Ty> = params.iter().map(|&c| store.var_ty(c)).collect();
                TyFun {
                    params,
                    body: store.con(*t, &args),
                }
            }
        }
    }
}

/// A structure binding: its runtime access, component environment, and
/// structure type.
#[derive(Clone, Debug)]
pub struct StrEntry {
    /// Where the structure record lives.
    pub access: Access,
    /// The components, with accesses already rooted at `access`.
    pub env: Rc<Env>,
    /// The structure type.
    pub ty: StrTy,
}

/// A signature definition: kept as syntax plus its definition environment
/// and re-elaborated at each use so every use gets fresh flexible stamps.
#[derive(Clone, Debug)]
pub struct SigDef {
    /// The definition.
    pub ast: Rc<SigExp>,
    /// The environment at the definition site.
    pub env: Env,
}

/// An elaborated signature instance: an ordered list of items with a
/// particular choice of flexible (abstract) tycon stamps.
#[derive(Clone, Debug, Default)]
pub struct SigInstance {
    /// Items in specification order.
    pub items: Vec<SigItem>,
    /// Stamps of the flexible tycons introduced by this instance (for
    /// functor-application instantiation).
    pub flex: Vec<Stamp>,
}

/// One elaborated signature item.
#[derive(Clone, Debug)]
pub enum SigItem {
    /// `val name : scheme`.
    Val {
        /// Component name.
        name: Symbol,
        /// Specified scheme.
        scheme: Scheme,
    },
    /// `type`/`eqtype` spec; `Abstract` tycon when flexible, abbreviation
    /// when manifest.
    Type {
        /// Type name.
        name: Symbol,
        /// The binding visible to later specs.
        bind: TyconBind,
    },
    /// A `datatype` spec: the spec's own (fresh) tycon and constructors.
    Datatype {
        /// Datatype name.
        name: Symbol,
        /// The spec's tycon.
        tycon: Tycon,
        /// Constructor infos (view schemes over the spec tycon).
        cons: Vec<Rc<ConInfo>>,
    },
    /// `exception` spec.
    Exn {
        /// Exception name.
        name: Symbol,
        /// Payload type, if any.
        payload: Option<Ty>,
    },
    /// `structure` spec.
    Str {
        /// Substructure name.
        name: Symbol,
        /// Its signature instance.
        sig: SigInstance,
    },
}

impl SigInstance {
    /// The structure type a structure matching this signature presents:
    /// value components, exception tags, and substructures, in spec order.
    pub fn str_ty(&self) -> StrTy {
        let mut comps = Vec::new();
        for item in &self.items {
            match item {
                SigItem::Val { name, scheme } => comps.push((*name, CompTy::Val(scheme.clone()))),
                SigItem::Exn { name, .. } => comps.push((*name, CompTy::Exn)),
                SigItem::Str { name, sig } => comps.push((*name, CompTy::Str(sig.str_ty()))),
                SigItem::Type { .. } | SigItem::Datatype { .. } => {}
            }
        }
        StrTy(comps)
    }
}

/// A functor binding.
#[derive(Clone, Debug)]
pub struct FctDef {
    /// Where the functor closure lives.
    pub access: Access,
    /// The elaborated parameter signature (its flexible stamps are the
    /// ones to instantiate at application).
    pub param_sig: Rc<SigInstance>,
    /// The result environment, expressed over the parameter's abstract
    /// tycons, with accesses rooted at a placeholder; rebuilt per
    /// application.
    pub result_env: Rc<Env>,
    /// The abstract result structure type.
    pub result_ty: StrTy,
}

/// One namespace of an [`Env`]: bindings by name, each behind an `Rc`,
/// plus an undo log.
///
/// Elaboration extends one environment in place at every `let`, match
/// rule, `fun` declaration, clause, datatype batch and structure or
/// functor body, and takes it back when the scope ends: while a mark is
/// open ([`Env::mark`]), each write
/// logs the binding it replaces, and [`Env::undo`] restores them, newest
/// first. An environment that outlives its scope (a signature's, a
/// structure's or functor's) is a clone: cloning copies pointers, never
/// bindings, and no log. A write through [`Scope::get_mut`] or
/// [`Scope::values_mut`] first copies the one binding it touches
/// (`Rc::make_mut`), so a mutated scope never shows through its clones.
#[derive(Debug)]
pub struct Scope<V> {
    map: FxHashMap<Symbol, Rc<V>>,
    /// Each name written while a mark was open, with what it was bound
    /// to before.
    undo: Vec<(Symbol, Option<Rc<V>>)>,
    /// Marks taken and not yet undone.
    marks: u32,
}

impl<V> Default for Scope<V> {
    fn default() -> Self {
        Scope {
            map: FxHashMap::default(),
            undo: Vec::new(),
            marks: 0,
        }
    }
}

impl<V> Clone for Scope<V> {
    fn clone(&self) -> Self {
        Scope {
            map: self.map.clone(),
            ..Scope::default()
        }
    }
}

impl<V: Clone> Scope<V> {
    /// The binding of `name`, if any.
    pub fn get(&self, name: &Symbol) -> Option<&V> {
        self.map.get(name).map(|v| &**v)
    }

    /// Whether `name` is bound.
    pub fn contains_key(&self, name: &Symbol) -> bool {
        self.map.contains_key(name)
    }

    /// Binds `name`, shadowing any earlier binding.
    pub fn insert(&mut self, name: Symbol, bind: V) {
        let old = self.map.insert(name, Rc::new(bind));
        if self.marks > 0 {
            self.undo.push((name, old));
        }
    }

    /// The binding of `name`, unshared first so the write stays private
    /// to this scope.
    pub fn get_mut(&mut self, name: &Symbol) -> Option<&mut V> {
        let bind = self.map.get_mut(name)?;
        if self.marks > 0 {
            self.undo.push((*name, Some(Rc::clone(bind))));
        }
        Some(Rc::make_mut(bind))
    }

    /// Every binding, each unshared first (see [`Scope::get_mut`]).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        if self.marks > 0 {
            let old = self.map.iter().map(|(n, b)| (*n, Some(Rc::clone(b))));
            self.undo.extend(old);
        }
        self.map.values_mut().map(Rc::make_mut)
    }

    fn mark(&mut self) -> usize {
        self.marks += 1;
        self.undo.len()
    }

    /// Every name written since `mark`, bound as it is now.
    fn written_since(&self, mark: usize) -> Scope<V> {
        let mut out = Scope::default();
        for (name, _) in &self.undo[mark..] {
            if let Some(bind) = self.map.get(name) {
                out.map.insert(*name, Rc::clone(bind));
            }
        }
        out
    }

    fn undo(&mut self, mark: usize) {
        for (name, old) in self.undo.drain(mark..).rev() {
            match old {
                Some(bind) => self.map.insert(name, bind),
                None => self.map.remove(&name),
            };
        }
        self.marks -= 1;
    }
}

impl<V: Clone> std::ops::Index<&Symbol> for Scope<V> {
    type Output = V;

    fn index(&self, name: &Symbol) -> &V {
        self.get(name).expect("name is bound in this scope")
    }
}

impl<V: Clone> IntoIterator for Scope<V> {
    type Item = (Symbol, V);
    type IntoIter = std::iter::Map<
        std::collections::hash_map::IntoIter<Symbol, Rc<V>>,
        fn((Symbol, Rc<V>)) -> (Symbol, V),
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.map
            .into_iter()
            .map(|(k, v)| (k, Rc::unwrap_or_clone(v)))
    }
}

/// An elaboration environment: five namespaces, extended in place and
/// taken back to a [`Mark`].
#[derive(Clone, Debug, Default)]
pub struct Env {
    /// Value bindings (variables, constructors, primitives).
    pub vals: Scope<ValBind>,
    /// Type constructor bindings.
    pub tycons: Scope<TyconBind>,
    /// Structure bindings.
    pub strs: Scope<StrEntry>,
    /// Signature bindings.
    pub sigs: Scope<SigDef>,
    /// Functor bindings.
    pub fcts: Scope<FctDef>,
}

/// A state of an [`Env`] to come back to: how long each namespace's
/// undo log was when the mark was taken.
#[must_use = "an open mark makes every later write log what it replaces"]
pub(crate) struct Mark([usize; 5]);

impl Env {
    /// An empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Opens a scope: until [`Env::undo`] takes this mark back, every
    /// write logs the binding it replaces.
    pub(crate) fn mark(&mut self) -> Mark {
        Mark([
            self.vals.mark(),
            self.tycons.mark(),
            self.strs.mark(),
            self.sigs.mark(),
            self.fcts.mark(),
        ])
    }

    /// What was bound since `mark` was taken: every name written since,
    /// bound as it is now.
    pub(crate) fn written_since(&self, Mark([v, t, s, g, f]): &Mark) -> Env {
        Env {
            vals: self.vals.written_since(*v),
            tycons: self.tycons.written_since(*t),
            strs: self.strs.written_since(*s),
            sigs: self.sigs.written_since(*g),
            fcts: self.fcts.written_since(*f),
        }
    }

    /// Closes the scope `mark` opened: every binding written since is
    /// back to what it was. Marks close innermost first.
    pub(crate) fn undo(&mut self, Mark([v, t, s, g, f]): Mark) {
        self.vals.undo(v);
        self.tycons.undo(t);
        self.strs.undo(s);
        self.sigs.undo(g);
        self.fcts.undo(f);
    }
}

/// Variable ids of the built-in exception tags, needed by later phases
/// (the translator raises `Match`, `Bind`, `Div`, `Subscript`, `Size`,
/// and `Chr` from generated code).
#[derive(Clone, Copy, Debug)]
pub struct BuiltinExns {
    /// `Match` — non-exhaustive match failure.
    pub match_exn: VarId,
    /// `Bind` — non-exhaustive binding failure.
    pub bind_exn: VarId,
    /// `Div` — integer division by zero.
    pub div_exn: VarId,
    /// `Overflow` — integer overflow.
    pub overflow_exn: VarId,
    /// `Subscript` — array/string index out of bounds.
    pub subscript_exn: VarId,
    /// `Size` — negative size argument.
    pub size_exn: VarId,
    /// `Chr` — `chr` argument out of range.
    pub chr_exn: VarId,
    /// `Fail of string` — general failure.
    pub fail_exn: VarId,
}

impl BuiltinExns {
    /// All tag variables with their names, in allocation order.
    pub fn all(&self) -> Vec<(VarId, &'static str)> {
        vec![
            (self.match_exn, "Match"),
            (self.bind_exn, "Bind"),
            (self.div_exn, "Div"),
            (self.overflow_exn, "Overflow"),
            (self.subscript_exn, "Subscript"),
            (self.size_exn, "Size"),
            (self.chr_exn, "Chr"),
            (self.fail_exn, "Fail"),
        ]
    }
}

/// Builds a scheme `forall 'a. body('a)`; `eq` marks the variable as an
/// equality variable.
pub fn poly1(store: &mut TyStore, eq: bool, f: impl FnOnce(&mut TyStore, Ty) -> Ty) -> Scheme {
    let c = store.new_tv(Tv::Gen(0));
    let a = store.var_ty(c);
    let body = f(store, a);
    Scheme::poly(body, vec![Generic { cell: c, eq }])
}

/// Builds a scheme `forall 'a 'b. body('a, 'b)`.
pub fn poly2(store: &mut TyStore, f: impl FnOnce(&mut TyStore, Ty, Ty) -> Ty) -> Scheme {
    let ca = store.new_tv(Tv::Gen(0));
    let cb = store.new_tv(Tv::Gen(1));
    let (a, b) = (store.var_ty(ca), store.var_ty(cb));
    let body = f(store, a, b);
    let generic = |cell| Generic { cell, eq: false };
    Scheme::poly(body, vec![generic(ca), generic(cb)])
}

fn prim(env: &mut Env, name: &str, prim: Prim, scheme: Scheme) {
    env.vals.insert(
        Symbol::intern(name),
        ValBind::Prim {
            prim,
            scheme,
            overload: None,
        },
    );
}

fn oprim(env: &mut Env, name: &str, p: Prim, class: OvClass, scheme: Scheme) {
    env.vals.insert(
        Symbol::intern(name),
        ValBind::Prim {
            prim: p,
            scheme,
            overload: Some(class),
        },
    );
}

/// The scheme of a constructor of the datatype `def` with `payload`:
/// `payload -> dt` for value-carrying, `dt` for constants, over the
/// datatype's generic parameters.
pub(crate) fn con_scheme(
    store: &mut TyStore,
    tycon: Tycon,
    params: &[TvId],
    payload: Option<Ty>,
) -> Scheme {
    let args: Vec<Ty> = params.iter().map(|&c| store.var_ty(c)).collect();
    let dt_ty = store.con(tycon, &args);
    let body = match payload {
        Some(p) => store.arrow(p, dt_ty),
        None => dt_ty,
    };
    let generics = params
        .iter()
        .map(|&cell| Generic { cell, eq: false })
        .collect();
    Scheme::poly(body, generics)
}

/// The constructor info of an exception with `payload` whose tag lives
/// at `tag`.
pub(crate) fn exn_con(
    store: &mut TyStore,
    name: Symbol,
    payload: Option<Ty>,
    tag: Access,
) -> ConInfo {
    let (rep, scheme) = match payload {
        Some(p) => (ConRep::Exn, Scheme::mono(store.arrow(p, Ty::EXN))),
        None => (ConRep::ExnConst, Scheme::mono(Ty::EXN)),
    };
    ConInfo {
        name,
        dt_stamp: Tycon::exn().stamp,
        index: 0,
        span: usize::MAX,
        rep,
        scheme,
        origin: None,
        tag: Some(tag),
    }
}

/// Builds the initial environment: primitive operations, built-in
/// datatype constructors, built-in exceptions (whose tag variables are
/// allocated in `vars`), and primitive tycons, with their types in
/// `store`.
pub fn builtin_env(
    reg: &TyconRegistry,
    vars: &mut VarTable,
    store: &mut TyStore,
) -> (Env, BuiltinExns) {
    let mut env = Env::new();
    let s = store;

    // ----- tycons ---------------------------------------------------------
    for t in [
        Tycon::int(),
        Tycon::real(),
        Tycon::string(),
        Tycon::char(),
        Tycon::exn(),
        Tycon::reference(),
        Tycon::array(),
        Tycon::cont(),
        Tycon::bool(),
        Tycon::list(),
        Tycon::option(),
        Tycon::order(),
    ] {
        env.tycons.insert(t.name, TyconBind::Tycon(t));
    }
    env.tycons.insert(
        Symbol::intern("unit"),
        TyconBind::Abbrev(TyFun::constant(Ty::UNIT)),
    );

    // ----- datatype constructors -----------------------------------------
    for dt in reg.iter() {
        for con in &dt.cons {
            let scheme = con_scheme(s, dt.tycon, &dt.params, con.payload);
            env.vals.insert(
                con.name,
                ValBind::Con(Rc::new(ConInfo {
                    name: con.name,
                    dt_stamp: dt.tycon.stamp,
                    index: con.index,
                    span: dt.cons.len(),
                    rep: con.rep,
                    scheme,
                    origin: None,
                    tag: None,
                })),
            );
        }
    }

    // Shapes of the primitives' types.
    let fun = |s: &mut TyStore, a: Ty, b: Ty| s.arrow(a, b);
    let binop = |s: &mut TyStore, a: Ty, r: Ty| {
        let p = s.pair(a, a);
        s.arrow(p, r)
    };
    let mono = |s: &mut TyStore, a: Ty, b: Ty| Scheme::mono(s.arrow(a, b));

    // ----- overloaded operators -------------------------------------------
    use Prim::*;
    for (name, p) in [("+", OAdd), ("-", OSub), ("*", OMul)] {
        let scheme = poly1(s, false, |s, a| binop(s, a, a));
        oprim(&mut env, name, p, OvClass::Num, scheme);
    }
    let scheme = poly1(s, false, |s, a| fun(s, a, a));
    oprim(&mut env, "~", ONeg, OvClass::Num, scheme);
    for (name, p) in [("<", OLt), ("<=", OLe), (">", OGt), (">=", OGe)] {
        let scheme = poly1(s, false, |s, a| binop(s, a, Ty::BOOL));
        oprim(&mut env, name, p, OvClass::NumText, scheme);
    }

    // ----- fixed-type primitives ------------------------------------------
    for (name, p) in [("div", IDiv), ("mod", IMod)] {
        let scheme = Scheme::mono(binop(s, Ty::INT, Ty::INT));
        prim(&mut env, name, p, scheme);
    }
    let scheme = Scheme::mono(binop(s, Ty::REAL, Ty::REAL));
    prim(&mut env, "/", FDiv, scheme);
    for (name, p) in [
        ("sqrt", FSqrt),
        ("sin", FSin),
        ("cos", FCos),
        ("arctan", FAtan),
        ("exp", FExp),
        ("ln", FLn),
    ] {
        let scheme = mono(s, Ty::REAL, Ty::REAL);
        prim(&mut env, name, p, scheme);
    }
    let scheme = mono(s, Ty::REAL, Ty::INT);
    prim(&mut env, "floor", Floor, scheme);
    let scheme = mono(s, Ty::INT, Ty::REAL);
    prim(&mut env, "real", IntToReal, scheme);

    // Polymorphic equality: forall ''a. ''a * ''a -> bool.
    for (name, p) in [("=", PolyEq), ("<>", PolyNe)] {
        let scheme = poly1(s, true, |s, a| binop(s, a, Ty::BOOL));
        prim(&mut env, name, p, scheme);
    }

    // References.
    let scheme = poly1(s, false, |s, a| {
        let r = s.reference(a);
        s.arrow(a, r)
    });
    prim(&mut env, "ref", MakeRef, scheme);
    let scheme = poly1(s, false, |s, a| {
        let r = s.reference(a);
        s.arrow(r, a)
    });
    prim(&mut env, "!", Deref, scheme);
    let scheme = poly1(s, false, |s, a| {
        let r = s.reference(a);
        let p = s.pair(r, a);
        s.arrow(p, Ty::UNIT)
    });
    prim(&mut env, ":=", Assign, scheme);

    // Strings and chars.
    let scheme = mono(s, Ty::STRING, Ty::INT);
    prim(&mut env, "size", StrSize, scheme);
    let si = s.pair(Ty::STRING, Ty::INT);
    let scheme = mono(s, si, Ty::CHAR);
    prim(&mut env, "strsub", StrSub, scheme);
    let scheme = Scheme::mono(binop(s, Ty::STRING, Ty::STRING));
    prim(&mut env, "^", StrCat, scheme);
    let scheme = mono(s, Ty::CHAR, Ty::INT);
    prim(&mut env, "ord", Ord, scheme);
    let scheme = mono(s, Ty::INT, Ty::CHAR);
    prim(&mut env, "chr", Chr, scheme);
    let scheme = mono(s, Ty::INT, Ty::STRING);
    prim(&mut env, "itos", IntToString, scheme);
    let scheme = mono(s, Ty::REAL, Ty::STRING);
    prim(&mut env, "rtos", RealToString, scheme);

    // Arrays.
    let scheme = poly1(s, false, |s, a| {
        let p = s.pair(Ty::INT, a);
        let arr = s.array(a);
        s.arrow(p, arr)
    });
    prim(&mut env, "array", ArrayMake, scheme);
    let scheme = poly1(s, false, |s, a| {
        let arr = s.array(a);
        let p = s.pair(arr, Ty::INT);
        s.arrow(p, a)
    });
    prim(&mut env, "asub", ArraySub, scheme);
    let scheme = poly1(s, false, |s, a| {
        let arr = s.array(a);
        let t = s.tuple(&[arr, Ty::INT, a]);
        s.arrow(t, Ty::UNIT)
    });
    prim(&mut env, "aupdate", ArrayUpdate, scheme);
    let scheme = poly1(s, false, |s, a| {
        let arr = s.array(a);
        s.arrow(arr, Ty::INT)
    });
    prim(&mut env, "alength", ArrayLength, scheme);

    // Continuations.
    let scheme = poly1(s, false, |s, a| {
        let k = s.cont(a);
        let f = s.arrow(k, a);
        s.arrow(f, a)
    });
    prim(&mut env, "callcc", Callcc, scheme);
    let scheme = poly2(s, |s, a, b| {
        let k = s.cont(a);
        let f = s.arrow(a, b);
        s.arrow(k, f)
    });
    prim(&mut env, "throw", Throw, scheme);

    // Output.
    let scheme = mono(s, Ty::STRING, Ty::UNIT);
    prim(&mut env, "print", Print, scheme);

    // ----- built-in exceptions ---------------------------------------------
    let mut mk_exn = |env: &mut Env, name: &str, payload: Option<Ty>| -> VarId {
        let sym = Symbol::intern(name);
        let var = vars.fresh(sym, Ty::EXN);
        let ci = exn_con(s, sym, payload, Access::Var(var));
        env.vals.insert(sym, ValBind::Con(Rc::new(ci)));
        var
    };
    let exns = BuiltinExns {
        match_exn: mk_exn(&mut env, "Match", None),
        bind_exn: mk_exn(&mut env, "Bind", None),
        div_exn: mk_exn(&mut env, "Div", None),
        overflow_exn: mk_exn(&mut env, "Overflow", None),
        subscript_exn: mk_exn(&mut env, "Subscript", None),
        size_exn: mk_exn(&mut env, "Size", None),
        chr_exn: mk_exn(&mut env, "Chr", None),
        fail_exn: mk_exn(&mut env, "Fail", Some(Ty::STRING)),
    };

    (env, exns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserting_into_a_clone_leaves_the_original_unchanged() {
        let mut s: Scope<u32> = Scope::default();
        let (a, b) = (Symbol::intern("scope_a"), Symbol::intern("scope_b"));
        s.insert(a, 1);
        let mut c = s.clone();
        c.insert(a, 2);
        c.insert(b, 3);
        assert_eq!((s.get(&a), s.get(&b)), (Some(&1), None));
        assert_eq!((c.get(&a), c.get(&b)), (Some(&2), Some(&3)));
    }

    #[test]
    fn writing_through_a_clone_leaves_the_original_unchanged() {
        let mut s: Scope<Vec<u32>> = Scope::default();
        let a = Symbol::intern("scope_a");
        s.insert(a, vec![1]);
        let mut c = s.clone();
        c.get_mut(&a).expect("bound").push(2);
        for v in c.values_mut() {
            v.push(3);
        }
        assert_eq!(s[&a], vec![1]);
        assert_eq!(c[&a], vec![1, 2, 3]);
        // And the other way round: the original's writes stay its own.
        s.get_mut(&a).expect("bound").push(9);
        assert_eq!(
            (s[&a].as_slice(), c[&a].as_slice()),
            (&[1, 9][..], &[1, 2, 3][..])
        );
    }

    #[test]
    fn undo_restores_what_a_scope_shadowed_wrote_and_added() {
        let mut store = TyStore::new();
        let mut env = Env::new();
        let (a, b, c) = (
            Symbol::intern("undo_a"),
            Symbol::intern("undo_b"),
            Symbol::intern("undo_c"),
        );
        let mut int = |n| TyconBind::Abbrev(TyFun::constant(store.tuple(&vec![Ty::INT; n])));
        let (i2, i3, i4, i5, i6) = (int(2), int(3), int(4), int(5), int(6));
        let show = |env: &Env, n: &Symbol, store: &mut TyStore| {
            env.tycons.get(n).map(|t| {
                let body = t.to_tyfun(store).body;
                store.show(body).to_string()
            })
        };
        env.tycons.insert(a, i2.clone());
        env.tycons.insert(b, i3);
        let outer = env.mark();
        env.tycons.insert(a, i4);
        env.tycons.insert(c, i5);
        let inner = env.mark();
        env.tycons.insert(a, i6);
        if let Some(TyconBind::Abbrev(f)) = env.tycons.get_mut(&b) {
            f.body = Ty::INT;
        }
        let seen = env.clone();
        env.undo(inner);
        let s = &mut store;
        assert_eq!(show(&env, &a, s).as_deref(), Some("int * int * int * int"));
        assert_eq!(show(&env, &b, s).as_deref(), Some("int * int * int"));
        assert_eq!(show(&seen, &b, s).as_deref(), Some("int"));
        env.undo(outer);
        assert_eq!(show(&env, &a, s).as_deref(), Some("int * int"));
        assert_eq!(show(&env, &c, s), None);
        // With no mark open, writes are not logged.
        env.tycons.insert(c, i2);
        assert!(env.tycons.undo.is_empty() && seen.tycons.undo.is_empty());
    }

    fn builtins() -> (TyStore, Env, BuiltinExns, VarTable) {
        let mut store = TyStore::new();
        let reg = TyconRegistry::with_builtins(&mut store);
        let mut vars = VarTable::new();
        let (env, exns) = builtin_env(&reg, &mut vars, &mut store);
        (store, env, exns, vars)
    }

    #[test]
    fn builtin_env_has_core_bindings() {
        let (_, env, exns, vars) = builtins();
        assert!(env.vals.contains_key(&Symbol::intern("+")));
        assert!(env.vals.contains_key(&Symbol::intern("::")));
        assert!(env.vals.contains_key(&Symbol::intern("callcc")));
        assert!(env.tycons.contains_key(&Symbol::intern("int")));
        assert!(env.tycons.contains_key(&Symbol::intern("unit")));
        assert_eq!(exns.all().len(), 8);
        assert_eq!(vars.len(), 8, "one tag variable per built-in exception");
    }

    #[test]
    fn cons_carry_reps() {
        let (_, env, _, _) = builtins();
        let ValBind::Con(c) = &env.vals[&Symbol::intern("::")] else {
            panic!()
        };
        assert_eq!(c.rep, ConRep::Transparent);
        assert_eq!(c.scheme.arity(), 1);
        let ValBind::Con(t) = &env.vals[&Symbol::intern("true")] else {
            panic!()
        };
        assert_eq!(t.rep, ConRep::Constant(1));
    }

    #[test]
    fn overloads_are_marked() {
        let (_, env, _, _) = builtins();
        let ValBind::Prim { overload, .. } = &env.vals[&Symbol::intern("+")] else {
            panic!()
        };
        assert_eq!(*overload, Some(OvClass::Num));
        let ValBind::Prim { overload, .. } = &env.vals[&Symbol::intern("div")] else {
            panic!()
        };
        assert!(overload.is_none());
    }

    #[test]
    fn tyfun_apply() {
        let mut store = TyStore::new();
        let f = poly1(&mut store, false, |s, a| s.pair(a, a));
        let tf = TyFun {
            params: f.generics().iter().map(|g| g.cell).collect(),
            body: f.body,
        };
        let t = tf.apply(&mut store, &[Ty::INT]);
        assert_eq!(store.show(t).to_string(), "int * int");
    }
}
