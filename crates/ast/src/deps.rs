//! Free-name extraction over top-level declarations.
//!
//! The component partitioner in `crates/core` needs to know, for every
//! top-level [`Dec`], which names it *binds* and which outside names it
//! *references*, per namespace (values/constructors, type constructors,
//! structures, signatures, functors). This module performs that purely
//! syntactic extraction. Names bound locally (by `fn`/`case` patterns,
//! `let` declarations, `struct ... end` bodies, functor parameters) are
//! tracked with a scope stack so they do not leak into the reference
//! sets.
//!
//! The extraction is deliberately *approximate* in one place: a bare
//! lowercase name in a pattern is a fresh binder unless an earlier
//! declaration bound it as a datatype/exception constructor, which the
//! extractor cannot know locally. Such names are reported separately in
//! [`DecNames::pat_vars`]; the graph builder resolves them against the
//! constructors actually in scope. Elaboration never reads this graph
//! (it always runs over the whole program), so an imprecise edge can
//! only perturb the partition analysis, never correctness.

use crate::ast::*;
use crate::intern::Symbol;
use std::collections::HashSet;

/// The names a single top-level declaration binds and references,
/// grouped by namespace.
#[derive(Debug, Default, Clone)]
pub struct DecNames {
    /// Value-namespace binders (variables and constructors).
    pub binds_vals: HashSet<Symbol>,
    /// The subset of [`DecNames::binds_vals`] bound as *constructors*
    /// (datatype and exception constructors).
    pub binds_cons: HashSet<Symbol>,
    /// Type-constructor binders (`type`, `datatype`).
    pub binds_tys: HashSet<Symbol>,
    /// Structure binders.
    pub binds_strs: HashSet<Symbol>,
    /// Signature binders.
    pub binds_sigs: HashSet<Symbol>,
    /// Functor binders.
    pub binds_fcts: HashSet<Symbol>,
    /// Referenced value-namespace names (variables, constructors).
    pub refs_vals: HashSet<Symbol>,
    /// Referenced type constructors.
    pub refs_tys: HashSet<Symbol>,
    /// Referenced structures (the outermost qualifier of any `S.x`).
    pub refs_strs: HashSet<Symbol>,
    /// Referenced signatures.
    pub refs_sigs: HashSet<Symbol>,
    /// Referenced functors.
    pub refs_fcts: HashSet<Symbol>,
    /// Bare names in *pattern* position: each is a constructor reference
    /// if some earlier declaration bound it as a constructor, and a
    /// fresh binder otherwise. The graph builder disambiguates.
    pub pat_vars: HashSet<Symbol>,
}

/// Extracts the bound/referenced names of one top-level declaration.
///
/// # Examples
///
/// ```
/// let prog = sml_ast::parse("fun f x = g (x + 1)").unwrap();
/// let names = sml_ast::dec_names(&prog.decs[0]);
/// assert!(names.binds_vals.contains(&sml_ast::Symbol::intern("f")));
/// assert!(names.refs_vals.contains(&sml_ast::Symbol::intern("g")));
/// assert!(!names.refs_vals.contains(&sml_ast::Symbol::intern("x")));
/// ```
pub fn dec_names(dec: &Dec) -> DecNames {
    let mut w = Walker::default();
    w.push();
    w.dec(dec, true);
    w.out
}

/// One lexical scope of locally bound names.
#[derive(Debug, Default)]
struct Scope {
    vals: HashSet<Symbol>,
    tys: HashSet<Symbol>,
    strs: HashSet<Symbol>,
    sigs: HashSet<Symbol>,
    fcts: HashSet<Symbol>,
}

#[derive(Debug, Default)]
struct Walker {
    scopes: Vec<Scope>,
    out: DecNames,
}

macro_rules! namespace {
    ($bound:ident, $bind:ident, $reference:ident, $scope:ident, $binds:ident, $refs:ident) => {
        fn $bound(&self, name: Symbol) -> bool {
            self.scopes.iter().any(|s| s.$scope.contains(&name))
        }
        /// Records a binder: top-level binders land in the output,
        /// local ones only in the innermost scope.
        fn $bind(&mut self, name: Symbol, top: bool) {
            if top {
                self.out.$binds.insert(name);
            }
            if let Some(s) = self.scopes.last_mut() {
                s.$scope.insert(name);
            }
        }
        fn $reference(&mut self, name: Symbol) {
            if !self.$bound(name) {
                self.out.$refs.insert(name);
            }
        }
    };
}

impl Walker {
    fn push(&mut self) {
        self.scopes.push(Scope::default());
    }

    fn pop(&mut self) {
        self.scopes.pop();
    }

    namespace!(val_bound, bind_val, ref_val, vals, binds_vals, refs_vals);
    namespace!(ty_bound, bind_ty, ref_ty, tys, binds_tys, refs_tys);
    namespace!(str_bound, bind_str, ref_str, strs, binds_strs, refs_strs);
    namespace!(sig_bound, bind_sig, ref_sig, sigs, binds_sigs, refs_sigs);
    namespace!(fct_bound, bind_fct, ref_fct, fcts, binds_fcts, refs_fcts);

    /// A value-position path: qualified paths reference their outermost
    /// structure, simple ones the value name itself.
    fn ref_val_path(&mut self, p: &Path) {
        match p.qualifiers.first() {
            Some(&q) => self.ref_str(q),
            None => self.ref_val(p.name),
        }
    }

    fn ref_ty_path(&mut self, p: &Path) {
        match p.qualifiers.first() {
            Some(&q) => self.ref_str(q),
            None => self.ref_ty(p.name),
        }
    }

    fn ref_str_path(&mut self, p: &Path) {
        match p.qualifiers.first() {
            Some(&q) => self.ref_str(q),
            None => self.ref_str(p.name),
        }
    }

    fn ty(&mut self, t: &Ty) {
        match &t.kind {
            TyKind::Var(_) => {}
            TyKind::Con(path, args) => {
                self.ref_ty_path(path);
                for a in args {
                    self.ty(a);
                }
            }
            TyKind::Tuple(parts) => parts.iter().for_each(|t| self.ty(t)),
            TyKind::Record(fields) => fields.iter().for_each(|(_, t)| self.ty(t)),
            TyKind::Arrow(a, b) => {
                self.ty(a);
                self.ty(b);
            }
        }
    }

    /// Walks a pattern, recording its binders into the innermost scope
    /// (and, when `top`, into the output bind set).
    fn pat(&mut self, p: &Pat, top: bool) {
        match &p.kind {
            PatKind::Wild | PatKind::Int(_) | PatKind::Str(_) | PatKind::Char(_) => {}
            PatKind::Var(path) => {
                if path.is_simple() {
                    // Binder unless an earlier dec made it a constructor;
                    // report both readings and let the graph decide.
                    self.out.pat_vars.insert(path.name);
                    self.bind_val(path.name, top);
                } else {
                    self.ref_val_path(path);
                }
            }
            PatKind::Con(path, arg) => {
                self.ref_val_path(path);
                self.pat(arg, top);
            }
            PatKind::Tuple(parts) => parts.iter().for_each(|p| self.pat(p, top)),
            PatKind::Record { fields, .. } => fields.iter().for_each(|(_, p)| self.pat(p, top)),
            PatKind::List(parts) => parts.iter().for_each(|p| self.pat(p, top)),
            PatKind::As(name, inner) => {
                self.bind_val(*name, top);
                self.pat(inner, top);
            }
            PatKind::Constraint(inner, ty) => {
                self.pat(inner, top);
                self.ty(ty);
            }
        }
    }

    fn rules(&mut self, rules: &[Rule]) {
        for r in rules {
            self.push();
            self.pat(&r.pat, false);
            self.exp(&r.exp);
            self.pop();
        }
    }

    fn exp(&mut self, e: &Exp) {
        match &e.kind {
            ExpKind::Int(_)
            | ExpKind::Real(_)
            | ExpKind::Str(_)
            | ExpKind::Char(_)
            | ExpKind::Selector(_) => {}
            ExpKind::Var(path) => self.ref_val_path(path),
            ExpKind::Tuple(parts) | ExpKind::List(parts) | ExpKind::Seq(parts) => {
                parts.iter().for_each(|e| self.exp(e))
            }
            ExpKind::Record(fields) => fields.iter().for_each(|(_, e)| self.exp(e)),
            ExpKind::App(f, a) => {
                self.exp(f);
                self.exp(a);
            }
            ExpKind::Fn(rules) | ExpKind::Handle(_, rules) | ExpKind::Case(_, rules) => {
                if let ExpKind::Handle(scrut, _) | ExpKind::Case(scrut, _) = &e.kind {
                    self.exp(scrut);
                }
                self.rules(rules);
            }
            ExpKind::If(c, t, f) => {
                self.exp(c);
                self.exp(t);
                self.exp(f);
            }
            ExpKind::Andalso(a, b) | ExpKind::Orelse(a, b) | ExpKind::While(a, b) => {
                self.exp(a);
                self.exp(b);
            }
            ExpKind::Let(decs, body) => {
                self.push();
                for d in decs {
                    self.dec(d, false);
                }
                self.exp(body);
                self.pop();
            }
            ExpKind::Raise(inner) => self.exp(inner),
            ExpKind::Constraint(inner, ty) => {
                self.exp(inner);
                self.ty(ty);
            }
        }
    }

    fn str_exp(&mut self, s: &StrExp) {
        match s {
            StrExp::Var(path) => self.ref_str_path(path),
            StrExp::Struct(decs, _) => {
                self.push();
                for d in decs {
                    self.dec(d, false);
                }
                self.pop();
            }
            StrExp::App(fct, arg, _) => {
                self.ref_fct(*fct);
                self.str_exp(arg);
            }
            StrExp::Ascribe(base, sig, _) => {
                self.str_exp(base);
                self.sig_exp(sig);
            }
        }
    }

    fn sig_exp(&mut self, s: &SigExp) {
        match s {
            SigExp::Var(name) => self.ref_sig(*name),
            SigExp::Sig(specs, _) => {
                self.push();
                for spec in specs {
                    match spec {
                        Spec::Val(_, ty) => self.ty(ty),
                        Spec::Type { name, def, .. } => {
                            if let Some(ty) = def {
                                self.ty(ty);
                            }
                            self.bind_ty(*name, false);
                        }
                        Spec::Datatype(db) => {
                            self.bind_ty(db.name, false);
                            for (_, payload) in &db.cons {
                                if let Some(ty) = payload {
                                    self.ty(ty);
                                }
                            }
                        }
                        Spec::Exception(_, payload) => {
                            if let Some(ty) = payload {
                                self.ty(ty);
                            }
                        }
                        Spec::Structure(_, sig) => self.sig_exp(sig),
                    }
                }
                self.pop();
            }
        }
    }

    fn dec(&mut self, d: &Dec, top: bool) {
        match &d.kind {
            DecKind::Val { pat, exp, .. } => {
                // `val x = x + 1` references the *previous* x: the
                // right-hand side is walked before the pattern binds.
                self.exp(exp);
                self.pat(pat, top);
            }
            DecKind::Fun { funs, .. } => {
                // Function names are in scope in every body (recursion,
                // including mutual recursion via `and`).
                for f in funs {
                    self.bind_val(f.name, top);
                }
                for f in funs {
                    for c in &f.clauses {
                        self.push();
                        for p in &c.pats {
                            self.pat(p, false);
                        }
                        if let Some(ty) = &c.ret_ty {
                            self.ty(ty);
                        }
                        self.exp(&c.body);
                        self.pop();
                    }
                }
            }
            DecKind::Type(binds) => {
                // Abbreviations are not recursive: bodies first.
                for b in binds {
                    self.ty(&b.ty);
                }
                for b in binds {
                    self.bind_ty(b.name, top);
                }
            }
            DecKind::Datatype(binds) => {
                // The whole `and`-group is mutually recursive.
                for b in binds {
                    self.bind_ty(b.name, top);
                }
                for b in binds {
                    for (con, payload) in &b.cons {
                        self.bind_val(*con, top);
                        if top {
                            self.out.binds_cons.insert(*con);
                        }
                        if let Some(ty) = payload {
                            self.ty(ty);
                        }
                    }
                }
            }
            DecKind::Exception(binds) => {
                for b in binds {
                    if let Some(ty) = &b.ty {
                        self.ty(ty);
                    }
                    self.bind_val(b.name, top);
                    if top {
                        self.out.binds_cons.insert(b.name);
                    }
                }
            }
            DecKind::Structure(binds) => {
                for b in binds {
                    if let Some((sig, _)) = &b.ascription {
                        self.sig_exp(sig);
                    }
                    self.str_exp(&b.def);
                    self.bind_str(b.name, top);
                }
            }
            DecKind::Signature(binds) => {
                for b in binds {
                    self.sig_exp(&b.def);
                    self.bind_sig(b.name, top);
                }
            }
            DecKind::Functor(binds) => {
                for b in binds {
                    self.sig_exp(&b.param_sig);
                    if let Some((sig, _)) = &b.result_sig {
                        self.sig_exp(sig);
                    }
                    self.push();
                    self.bind_str(b.param, false);
                    self.str_exp(&b.body);
                    self.pop();
                    self.bind_fct(b.name, top);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn names(src: &str) -> DecNames {
        let prog = parse(src).unwrap();
        assert_eq!(prog.decs.len(), 1, "want exactly one dec in {src:?}");
        dec_names(&prog.decs[0])
    }

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    #[test]
    fn val_rhs_sees_previous_binding() {
        let n = names("val x = x + 1");
        assert!(n.refs_vals.contains(&sym("x")));
        assert!(n.binds_vals.contains(&sym("x")));
    }

    #[test]
    fn fun_recursion_is_not_a_reference() {
        let n = names("fun even n = if n = 0 then true else odd (n - 1) and odd n = even (n - 1)");
        assert!(!n.refs_vals.contains(&sym("even")));
        assert!(!n.refs_vals.contains(&sym("odd")));
        assert!(n.binds_vals.contains(&sym("even")));
        assert!(n.binds_vals.contains(&sym("odd")));
    }

    #[test]
    fn local_binders_do_not_leak() {
        let n = names("val y = let val inner = 3 in inner + outer end");
        assert!(!n.refs_vals.contains(&sym("inner")));
        assert!(n.refs_vals.contains(&sym("outer")));
    }

    #[test]
    fn qualified_names_reference_the_structure() {
        let n = names("val z = S.f (T.g 1)");
        assert!(n.refs_strs.contains(&sym("S")));
        assert!(n.refs_strs.contains(&sym("T")));
        assert!(!n.refs_vals.contains(&sym("f")));
    }

    #[test]
    fn datatype_binds_cons_and_refs_payload_tycons() {
        let n = names("datatype t = Leaf of elem | Node of t * t");
        assert!(n.binds_tys.contains(&sym("t")));
        assert!(n.binds_cons.contains(&sym("Leaf")));
        assert!(n.binds_vals.contains(&sym("Node")));
        assert!(n.refs_tys.contains(&sym("elem")));
        assert!(!n.refs_tys.contains(&sym("t")));
    }

    #[test]
    fn pattern_vars_are_reported_for_disambiguation() {
        let n = names("fun f nil = 0 | f x = 1");
        assert!(n.pat_vars.contains(&sym("nil")));
        assert!(n.pat_vars.contains(&sym("x")));
    }

    #[test]
    fn structure_walks_signature_and_body() {
        let n = names("structure S : SIG = struct val a = helper 1 fun b x = x end");
        assert!(n.binds_strs.contains(&sym("S")));
        assert!(n.refs_sigs.contains(&sym("SIG")));
        assert!(n.refs_vals.contains(&sym("helper")));
        assert!(!n.refs_vals.contains(&sym("a")));
    }

    #[test]
    fn functor_refs_param_sig_not_param() {
        let n = names("functor F (X : SIG) = struct val v = X.item end");
        assert!(n.binds_fcts.contains(&sym("F")));
        assert!(n.refs_sigs.contains(&sym("SIG")));
        assert!(!n.refs_strs.contains(&sym("X")));
    }
}
