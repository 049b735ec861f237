//! Module-language elaboration: structures, signatures, signature
//! matching (thinning functions), `abstraction`, and functors.
//!
//! This implements the paper's §3 front-end bookkeeping: every signature
//! matching produces a *thinning* recording each visible component, its
//! type in the original structure, and its type in the instantiation;
//! every functor application records the argument thinning and the
//! instantiation of the functor's flexible types. Flexible (abstract)
//! types force standard boxed representations downstream (§4.3).

use crate::absyn::*;
use crate::elaborate::Elaborator;
use crate::env::*;
use crate::error::{ElabError, ElabResult};
use sml_ast::FxHashMap;
use sml_ast::{self as ast, Span, Spec, Symbol};
use sml_types::{EqProp, Scheme, Stamp, Ty, TyStore, Tycon};
use std::rc::Rc;

/// The result of elaborating a structure expression: its typed form, its
/// structure type, and a component environment rooted at `root` (when
/// `root` is `None` the accesses are absolute, e.g. for a structure
/// alias).
pub(crate) struct StrResult {
    pub texp: TStrExp,
    pub ty: StrTy,
    pub env: Env,
    pub root: Option<VarId>,
}

/// Splices `new` in place of the root variable `root` of an access path.
fn access_splice(a: &Access, root: VarId, new: &Access) -> Access {
    match a {
        Access::Var(v) if *v == root => new.clone(),
        Access::Var(v) => Access::Var(*v),
        Access::Select(inner, i) => Access::Select(Box::new(access_splice(inner, root, new)), *i),
    }
}

/// Re-roots every access in `env` whose root variable is `root`.
pub(crate) fn reroot_env(env: &Env, root: VarId, new: &Access) -> Env {
    let mut out = env.clone();
    for bind in out.vals.values_mut() {
        match bind {
            ValBind::Var { access, .. } => *access = access_splice(access, root, new),
            ValBind::Con(ci) => {
                if let Some(tag) = &ci.tag {
                    Rc::make_mut(ci).tag = Some(access_splice(tag, root, new));
                }
            }
            ValBind::Prim { .. } => {}
        }
    }
    for entry in out.strs.values_mut() {
        entry.access = access_splice(&entry.access, root, new);
        entry.env = Rc::new(reroot_env(&entry.env, root, new));
    }
    for fct in out.fcts.values_mut() {
        fct.access = access_splice(&fct.access, root, new);
    }
    out
}

// ----- tycon substitution (functor instantiation) --------------------------

/// Substitutes flexible tycons by type functions throughout a type.
pub(crate) fn subst_ty(store: &mut TyStore, ty: Ty, map: &FxHashMap<Stamp, TyFun>) -> Ty {
    store.map_cons(ty, &mut |s, c, args| {
        map.get(&c.stamp).map(|f| f.apply(s, args))
    })
}

fn subst_scheme(store: &mut TyStore, s: &Scheme, map: &FxHashMap<Stamp, TyFun>) -> Scheme {
    s.with_body(subst_ty(store, s.body, map))
}

fn subst_strty(store: &mut TyStore, t: &StrTy, map: &FxHashMap<Stamp, TyFun>) -> StrTy {
    StrTy(
        t.0.iter()
            .map(|(n, c)| {
                let c = match c {
                    CompTy::Val(s) => CompTy::Val(subst_scheme(store, s, map)),
                    CompTy::Exn => CompTy::Exn,
                    CompTy::Str(s) => CompTy::Str(subst_strty(store, s, map)),
                };
                (*n, c)
            })
            .collect(),
    )
}

fn subst_env(store: &mut TyStore, env: &Env, map: &FxHashMap<Stamp, TyFun>) -> Env {
    let mut out = env.clone();
    for bind in out.vals.values_mut() {
        match bind {
            ValBind::Var { scheme, .. } => *scheme = subst_scheme(store, scheme, map),
            ValBind::Con(ci) => {
                if store.any_con(ci.scheme.body, &mut |c| map.contains_key(&c.stamp)) {
                    let ci = Rc::make_mut(ci);
                    let origin = ci.rep_scheme().clone();
                    ci.scheme = subst_scheme(store, &ci.scheme, map);
                    ci.origin = Some(origin);
                }
            }
            ValBind::Prim { .. } => {}
        }
    }
    for bind in out.tycons.values_mut() {
        match bind {
            TyconBind::Tycon(t) => {
                if let Some(f) = map.get(&t.stamp) {
                    *bind = TyconBind::Abbrev(f.clone());
                }
            }
            TyconBind::Abbrev(f) => {
                f.body = subst_ty(store, f.body, map);
            }
        }
    }
    for entry in out.strs.values_mut() {
        entry.env = Rc::new(subst_env(store, &entry.env, map));
        entry.ty = subst_strty(store, &entry.ty, map);
    }
    out
}

/// The result of a successful signature match: thinning items, result
/// structure type, a result component environment rooted at a fresh
/// placeholder, that placeholder, and the instantiation map from the
/// signature's flexible stamps to the structure's actual type functions.
pub(crate) type SigMatch = (Vec<ThinItem>, StrTy, Env, VarId, FxHashMap<Stamp, TyFun>);

impl Elaborator {
    // ----- structure bindings ---------------------------------------------

    pub(crate) fn elab_strbind(
        &mut self,
        env: &mut Env,
        b: &ast::StrBind,
        out: &mut Vec<TDec>,
    ) -> ElabResult<()> {
        let mut res = self.elab_strexp(env, &b.def)?;
        if let Some((sigexp, opaque)) = &b.ascription {
            res = self.ascribe(env, res, sigexp, *opaque)?;
        }
        let var = self.vars.fresh(b.name, Ty::UNIT);
        let new_env = match res.root {
            Some(root) => reroot_env(&res.env, root, &Access::Var(var)),
            None => res.env,
        };
        let entry = StrEntry {
            access: Access::Var(var),
            env: Rc::new(new_env),
            ty: res.ty,
        };
        env.strs.insert(b.name, entry);
        out.push(TDec::Structure { var, def: res.texp });
        Ok(())
    }

    pub(crate) fn elab_fctbind(
        &mut self,
        env: &mut Env,
        b: &ast::FctBind,
        out: &mut Vec<TDec>,
    ) -> ElabResult<()> {
        let si = Rc::new(self.elab_sigexp(env, &b.param_sig)?);
        let param_var = self.vars.fresh(b.param, Ty::UNIT);
        let param_env = self.sig_instance_env(&si, &Access::Var(param_var));
        let mut res = self.scoped(env, |me, inner| {
            inner.strs.insert(
                b.param,
                StrEntry {
                    access: Access::Var(param_var),
                    env: Rc::new(param_env),
                    ty: si.str_ty(),
                },
            );
            let res = me.elab_strexp(inner, &b.body)?;
            match &b.result_sig {
                Some((sigexp, opaque)) => me.ascribe(inner, res, sigexp, *opaque),
                None => Ok(res),
            }
        })?;
        // Ensure the result environment is rooted at a placeholder that
        // can be re-rooted at each application (a whole-body alias of the
        // parameter would otherwise leak the parameter variable).
        let result_root = match res.root {
            Some(r) => r,
            None => {
                let r = self.vars.fresh(Symbol::intern("<fctres>"), Ty::UNIT);
                res.env = reroot_env(&res.env, param_var, &Access::Var(r));
                r
            }
        };
        let fvar = self.vars.fresh(b.name, Ty::UNIT);
        let result_ty = res.ty.clone();
        let def = FctDef {
            access: Access::Var(fvar),
            param_sig: si.clone(),
            result_env: Rc::new(res.env),
            result_ty: res.ty,
        };
        // Remember the placeholder root alongside the definition.
        self.fct_roots.insert(fvar, result_root);
        env.fcts.insert(b.name, def);
        out.push(TDec::Functor {
            var: fvar,
            param: param_var,
            param_ty: si.str_ty(),
            result_ty,
            body: res.texp,
        });
        Ok(())
    }

    // ----- structure expressions --------------------------------------------

    pub(crate) fn elab_strexp(&mut self, env: &mut Env, se: &ast::StrExp) -> ElabResult<StrResult> {
        match se {
            ast::StrExp::Var(path) => {
                let scope = {
                    let mut cur = &*env;
                    for q in &path.qualifiers {
                        match cur.strs.get(q) {
                            Some(e) => cur = &e.env,
                            None => {
                                return Err(ElabError::new(
                                    Span::dummy(),
                                    format!("unbound structure `{q}` in `{path}`"),
                                ))
                            }
                        }
                    }
                    cur
                };
                match scope.strs.get(&path.name) {
                    Some(entry) => Ok(StrResult {
                        texp: TStrExp::Access(entry.access.clone()),
                        ty: entry.ty.clone(),
                        env: (*entry.env).clone(),
                        root: None,
                    }),
                    None => Err(ElabError::new(
                        Span::dummy(),
                        format!("unbound structure `{path}`"),
                    )),
                }
            }
            ast::StrExp::Struct(decs, _) => self.elab_struct(env, decs),
            ast::StrExp::App(fname, arg, span) => {
                let fct = match env.fcts.get(fname) {
                    Some(f) => f.clone(),
                    None => {
                        return Err(ElabError::new(*span, format!("unbound functor `{fname}`")))
                    }
                };
                let arg_res = self.elab_strexp(env, arg)?;
                // Functor-parameter matching is abstraction matching: the
                // argument is coerced *to* the parameter's abstract types.
                let (items, _to_ty, _renv, _rroot, instmap) =
                    self.match_sig(&arg_res.ty, &arg_res.env, &fct.param_sig, true, *span)?;
                let thinned = TStrExp::Thin {
                    base: Box::new(arg_res.texp),
                    items,
                    to: fct.param_sig.str_ty(),
                };
                let to_ty = subst_strty(&mut self.tys, &fct.result_ty, &instmap);
                let result_env = subst_env(&mut self.tys, &fct.result_env, &instmap);
                let result_root = self.fct_roots[&fct.access.root()];
                Ok(StrResult {
                    texp: TStrExp::FctApp {
                        fct: fct.access.clone(),
                        arg: Box::new(thinned),
                        from: fct.result_ty.clone(),
                        to: to_ty.clone(),
                    },
                    ty: to_ty,
                    env: result_env,
                    root: Some(result_root),
                })
            }
            ast::StrExp::Ascribe(inner, sigexp, opaque) => {
                let res = self.elab_strexp(env, inner)?;
                self.ascribe(env, res, sigexp, *opaque)
            }
        }
    }

    fn ascribe(
        &mut self,
        env: &Env,
        res: StrResult,
        sigexp: &ast::SigExp,
        opaque: bool,
    ) -> ElabResult<StrResult> {
        let si = self.elab_sigexp(env, sigexp)?;
        let (items, to_ty, renv, rroot, _instmap) =
            self.match_sig(&res.ty, &res.env, &si, opaque, Span::dummy())?;
        Ok(StrResult {
            texp: TStrExp::Thin {
                base: Box::new(res.texp),
                items,
                to: to_ty.clone(),
            },
            ty: to_ty,
            env: renv,
            root: Some(rroot),
        })
    }

    fn elab_struct(&mut self, env: &mut Env, decs: &[ast::Dec]) -> ElabResult<StrResult> {
        // The body's bindings: every name its declarations bind, as the
        // last binding leaves it.
        let mark = env.mark();
        let mut tdecs = Vec::new();
        let body = decs
            .iter()
            .try_for_each(|d| self.elab_dec(env, d, &mut tdecs));
        let delta = env.written_since(&mark);
        env.undo(mark);
        body?;

        // Export order: bound names in declaration order, last binding of
        // each (namespace, name) wins.
        #[derive(PartialEq, Eq, Clone, Copy)]
        enum Ns {
            Val,
            Str,
        }
        let mut order: Vec<(Ns, Symbol)> = Vec::new();
        let push = |order: &mut Vec<(Ns, Symbol)>, ns: Ns, n: Symbol| {
            order.retain(|(o_ns, o_n)| !(*o_ns == ns && *o_n == n));
            order.push((ns, n));
        };
        for d in &tdecs {
            match d {
                TDec::Val { pat, .. } => {
                    let mut vs = Vec::new();
                    collect_pat_vars(pat, &mut vs);
                    for v in vs {
                        push(&mut order, Ns::Val, self.vars.info(v).name);
                    }
                }
                TDec::PolyVal { var, .. } => push(&mut order, Ns::Val, self.vars.info(*var).name),
                TDec::Fun { vars, .. } => {
                    for v in vars {
                        push(&mut order, Ns::Val, self.vars.info(*v).name);
                    }
                }
                TDec::Exception { name, .. } => push(&mut order, Ns::Val, *name),
                TDec::Structure { var, .. } => push(&mut order, Ns::Str, self.vars.info(*var).name),
                TDec::Functor { .. } => {}
            }
        }

        let mut exports = Vec::new();
        for (ns, name) in &order {
            match ns {
                Ns::Val => match delta.vals.get(name) {
                    Some(ValBind::Var { access, scheme }) => {
                        self.vars.info_mut(access.root()).exported = true;
                        exports.push(Export {
                            name: *name,
                            item: ExportItem::Val {
                                access: access.clone(),
                                scheme: scheme.clone(),
                            },
                        });
                    }
                    Some(ValBind::Con(ci)) => {
                        if let Some(tag) = &ci.tag {
                            exports.push(Export {
                                name: *name,
                                item: ExportItem::Exn {
                                    access: tag.clone(),
                                },
                            });
                        }
                        // Plain constructors are static: no slot.
                    }
                    _ => {}
                },
                Ns::Str => {
                    if let Some(entry) = delta.strs.get(name) {
                        exports.push(Export {
                            name: *name,
                            item: ExportItem::Str {
                                access: entry.access.clone(),
                                ty: entry.ty.clone(),
                            },
                        });
                    }
                }
            }
        }

        // Structure type and a component environment rooted at a fresh
        // placeholder.
        let root = self.vars.fresh(Symbol::intern("<str>"), Ty::UNIT);
        let mut comps = Vec::new();
        let mut visible = delta.clone();
        for (slot, ex) in exports.iter().enumerate() {
            let here = Access::Select(Box::new(Access::Var(root)), slot);
            match &ex.item {
                ExportItem::Val { scheme, .. } => {
                    comps.push((ex.name, CompTy::Val(scheme.clone())));
                    visible.vals.insert(
                        ex.name,
                        ValBind::Var {
                            access: here,
                            scheme: scheme.clone(),
                        },
                    );
                }
                ExportItem::Exn { .. } => {
                    comps.push((ex.name, CompTy::Exn));
                    if let Some(ValBind::Con(ci)) = visible.vals.get_mut(&ex.name) {
                        Rc::make_mut(ci).tag = Some(here);
                    }
                }
                ExportItem::Str { access, ty } => {
                    comps.push((ex.name, CompTy::Str(ty.clone())));
                    if let Some(entry) = visible.strs.get_mut(&ex.name) {
                        let old_root = access.root();
                        entry.env = Rc::new(reroot_env(&entry.env, old_root, &here));
                        entry.access = here;
                    }
                }
            }
        }

        Ok(StrResult {
            texp: TStrExp::Struct {
                decs: tdecs,
                exports,
            },
            ty: StrTy(comps),
            env: visible,
            root: Some(root),
        })
    }

    // ----- signatures -----------------------------------------------------------

    /// Elaborates a signature expression into a fresh [`SigInstance`]
    /// (new flexible stamps each time).
    pub(crate) fn elab_sigexp(&mut self, env: &Env, se: &ast::SigExp) -> ElabResult<SigInstance> {
        match se {
            ast::SigExp::Var(name) => match env.sigs.get(name) {
                Some(def) => {
                    let def = def.clone();
                    self.elab_sigexp(&def.env, &def.ast)
                }
                None => Err(ElabError::new(
                    Span::dummy(),
                    format!("unbound signature `{name}`"),
                )),
            },
            ast::SigExp::Sig(specs, span) => {
                let mut local = env.clone();
                let mut items = Vec::new();
                let mut flex = Vec::new();
                for spec in specs {
                    self.elab_spec(&mut local, spec, &mut items, &mut flex, *span)?;
                }
                Ok(SigInstance { items, flex })
            }
        }
    }

    fn elab_spec(
        &mut self,
        local: &mut Env,
        spec: &Spec,
        items: &mut Vec<SigItem>,
        flex: &mut Vec<Stamp>,
        span: Span,
    ) -> ElabResult<()> {
        match spec {
            Spec::Val(name, ty) => {
                self.tyvar_scopes.push(FxHashMap::default());
                self.level += 1;
                let t = self.elab_ty(local, ty);
                self.level -= 1;
                self.tyvar_scopes.pop();
                let t = t?;
                let scheme = self.tys.generalize(t, self.level);
                items.push(SigItem::Val {
                    name: *name,
                    scheme,
                });
                Ok(())
            }
            Spec::Type {
                tyvars,
                name,
                eq,
                def,
            } => {
                let bind = match def {
                    Some(body) => TyconBind::Abbrev(self.elab_tyfun(local, tyvars, body)?),
                    None => {
                        let t = Tycon::fresh_abstract(*name, tyvars.len(), *eq);
                        flex.push(t.stamp);
                        TyconBind::Tycon(t)
                    }
                };
                local.tycons.insert(*name, bind.clone());
                items.push(SigItem::Type { name: *name, bind });
                Ok(())
            }
            Spec::Datatype(db) => {
                // A datatype spec introduces a fresh (flexible) datatype
                // with its constructors.
                let tycon = Tycon::fresh_data(db.name, db.tyvars.len(), EqProp::IfArgs);
                let mut scratch = local.clone();
                scratch.tycons.insert(db.name, TyconBind::Tycon(tycon));
                let params = self.push_param_scope(&db.tyvars);
                let cons = self.elab_con_payloads(&scratch, &db.cons);
                self.pop_param_scope(&params);
                self.reg
                    .register_batch(&mut self.tys, vec![(tycon, params, cons?)]);
                let def = self.reg.datatype(tycon.stamp).expect("just registered");
                let mut infos = Vec::new();
                for con in &def.cons {
                    let scheme = con_scheme(&mut self.tys, tycon, &def.params, con.payload);
                    let ci = Rc::new(ConInfo {
                        name: con.name,
                        dt_stamp: tycon.stamp,
                        index: con.index,
                        span: def.cons.len(),
                        rep: con.rep,
                        scheme,
                        origin: None,
                        tag: None,
                    });
                    local.vals.insert(con.name, ValBind::Con(Rc::clone(&ci)));
                    infos.push(ci);
                }
                local.tycons.insert(db.name, TyconBind::Tycon(tycon));
                flex.push(tycon.stamp);
                items.push(SigItem::Datatype {
                    name: db.name,
                    tycon,
                    cons: infos,
                });
                Ok(())
            }
            Spec::Exception(name, ty) => {
                let payload = match ty {
                    Some(t) => Some(self.elab_ty(local, t)?),
                    None => None,
                };
                items.push(SigItem::Exn {
                    name: *name,
                    payload,
                });
                Ok(())
            }
            Spec::Structure(name, se) => {
                let sub = self.elab_sigexp(local, se)?;
                flex.extend(sub.flex.iter().copied());
                // Bind the substructure's static parts so later specs can
                // reference `S.t`.
                let dummy_root = self.vars.fresh(Symbol::intern("<sigstr>"), Ty::UNIT);
                let sub_env = self.sig_instance_env(&sub, &Access::Var(dummy_root));
                local.strs.insert(
                    *name,
                    StrEntry {
                        access: Access::Var(dummy_root),
                        env: Rc::new(sub_env),
                        ty: sub.str_ty(),
                    },
                );
                items.push(SigItem::Str {
                    name: *name,
                    sig: sub,
                });
                let _ = span;
                Ok(())
            }
        }
    }

    /// Builds the component environment a structure matching `si`
    /// presents, with accesses rooted at `root` (used for functor
    /// parameters).
    pub(crate) fn sig_instance_env(&mut self, si: &SigInstance, root: &Access) -> Env {
        let mut env = Env::new();
        let mut slot = 0usize;
        for item in &si.items {
            match item {
                SigItem::Val { name, scheme } => {
                    env.vals.insert(
                        *name,
                        ValBind::Var {
                            access: Access::Select(Box::new(root.clone()), slot),
                            scheme: scheme.clone(),
                        },
                    );
                    slot += 1;
                }
                SigItem::Type { name, bind } => {
                    env.tycons.insert(*name, bind.clone());
                }
                SigItem::Datatype { name, tycon, cons } => {
                    env.tycons.insert(*name, TyconBind::Tycon(*tycon));
                    for ci in cons {
                        env.vals.insert(ci.name, ValBind::Con(Rc::clone(ci)));
                    }
                }
                SigItem::Exn { name, payload } => {
                    let tag = Access::Select(Box::new(root.clone()), slot);
                    let ci = exn_con(&mut self.tys, *name, *payload, tag);
                    env.vals.insert(*name, ValBind::Con(Rc::new(ci)));
                    slot += 1;
                }
                SigItem::Str { name, sig } => {
                    let here = Access::Select(Box::new(root.clone()), slot);
                    let sub_env = self.sig_instance_env(sig, &here);
                    env.strs.insert(
                        *name,
                        StrEntry {
                            access: here,
                            env: Rc::new(sub_env),
                            ty: sig.str_ty(),
                        },
                    );
                    slot += 1;
                }
            }
        }
        env
    }

    // ----- signature matching ----------------------------------------------------

    /// Matches a structure (given by its `StrTy` and component
    /// environment) against a signature instance.
    ///
    /// Returns the thinning items, the result structure type, a result
    /// component environment rooted at a fresh placeholder, that
    /// placeholder, and the instantiation map from the signature's
    /// flexible stamps to the structure's actual type functions.
    ///
    /// With `opaque` matching (abstraction / functor parameters), result
    /// types keep the signature's abstract tycons; with transparent
    /// matching they are instantiated to the structure's actuals.
    pub(crate) fn match_sig(
        &mut self,
        src_ty: &StrTy,
        src_env: &Env,
        si: &SigInstance,
        opaque: bool,
        span: Span,
    ) -> ElabResult<SigMatch> {
        let mut instmap: FxHashMap<Stamp, TyFun> = FxHashMap::default();
        let (items, ty, env, root) =
            self.match_sig_inner(src_ty, src_env, si, opaque, span, &mut instmap)?;
        Ok((items, ty, env, root, instmap))
    }

    fn match_sig_inner(
        &mut self,
        src_ty: &StrTy,
        src_env: &Env,
        si: &SigInstance,
        opaque: bool,
        span: Span,
        instmap: &mut FxHashMap<Stamp, TyFun>,
    ) -> ElabResult<(Vec<ThinItem>, StrTy, Env, VarId)> {
        let root = self.vars.fresh(Symbol::intern("<thin>"), Ty::UNIT);
        let mut items = Vec::new();
        let mut comps = Vec::new();
        let mut renv = Env::new();
        let mut slot = 0usize;

        for item in &si.items {
            match item {
                SigItem::Type { name, bind } => {
                    match bind {
                        TyconBind::Tycon(abs) if abs.kind == sml_types::TyconKind::Abstract => {
                            let src_bind = src_env.tycons.get(name).ok_or_else(|| {
                                ElabError::new(span, format!("structure lacks type `{name}`"))
                            })?;
                            if src_bind.arity() != abs.arity {
                                return Err(ElabError::new(
                                    span,
                                    format!("type `{name}` has the wrong arity"),
                                ));
                            }
                            instmap.insert(abs.stamp, src_bind.to_tyfun(&mut self.tys));
                            let vis = if opaque {
                                bind.clone()
                            } else {
                                src_bind.clone()
                            };
                            renv.tycons.insert(*name, vis);
                        }
                        _ => {
                            // Manifest: just make it visible.
                            renv.tycons.insert(*name, bind.clone());
                        }
                    }
                }
                SigItem::Datatype { name, tycon, cons } => {
                    let src_bind = src_env.tycons.get(name).ok_or_else(|| {
                        ElabError::new(span, format!("structure lacks datatype `{name}`"))
                    })?;
                    let TyconBind::Tycon(src_tycon) = src_bind else {
                        return Err(ElabError::new(
                            span,
                            format!("`{name}` must be a datatype, not an abbreviation"),
                        ));
                    };
                    if src_tycon.arity != tycon.arity {
                        return Err(ElabError::new(
                            span,
                            format!("datatype `{name}` has the wrong arity"),
                        ));
                    }
                    instmap.insert(tycon.stamp, src_bind.to_tyfun(&mut self.tys));
                    // Constructors must agree in name and order.
                    let mut vis_cons = Vec::new();
                    for spec_ci in cons {
                        let src_ci = match src_env.vals.get(&spec_ci.name) {
                            Some(ValBind::Con(c)) if c.dt_stamp == src_tycon.stamp => Rc::clone(c),
                            _ => {
                                return Err(ElabError::new(
                                    span,
                                    format!(
                                        "structure lacks constructor `{}` of datatype `{name}`",
                                        spec_ci.name
                                    ),
                                ))
                            }
                        };
                        if src_ci.index != spec_ci.index || src_ci.span != spec_ci.span {
                            return Err(ElabError::new(
                                span,
                                format!("constructors of datatype `{name}` do not match"),
                            ));
                        }
                        let ci = if opaque {
                            Rc::new(ConInfo {
                                rep: src_ci.rep,
                                origin: Some(src_ci.rep_scheme().clone()),
                                ..(**spec_ci).clone()
                            })
                        } else {
                            src_ci
                        };
                        vis_cons.push(ci);
                    }
                    let vis_tycon = if opaque {
                        TyconBind::Tycon(*tycon)
                    } else {
                        src_bind.clone()
                    };
                    renv.tycons.insert(*name, vis_tycon);
                    for ci in vis_cons {
                        renv.vals.insert(ci.name, ValBind::Con(ci));
                    }
                }
                SigItem::Val { name, scheme } => {
                    let src_slot = src_ty.slot(*name).ok_or_else(|| {
                        ElabError::new(span, format!("structure lacks value `{name}`"))
                    })?;
                    let (from, to) = match src_env.vals.get(name) {
                        Some(ValBind::Var {
                            scheme: src_scheme, ..
                        }) => {
                            // Check: the (instantiated) spec type must be
                            // an instance of the structure's scheme.
                            let want = subst_scheme(&mut self.tys, scheme, instmap);
                            self.check_instance(src_scheme, &want, *name, span)?;
                            let to = if opaque {
                                scheme.clone()
                            } else {
                                subst_scheme(&mut self.tys, scheme, instmap)
                            };
                            (src_scheme.clone(), to)
                        }
                        _ => {
                            return Err(ElabError::new(
                                span,
                                format!("`{name}` in structure is not a value binding"),
                            ))
                        }
                    };
                    items.push(ThinItem::Val {
                        slot: src_slot,
                        from,
                        to: to.clone(),
                    });
                    comps.push((*name, CompTy::Val(to.clone())));
                    renv.vals.insert(
                        *name,
                        ValBind::Var {
                            access: Access::Select(Box::new(Access::Var(root)), slot),
                            scheme: to,
                        },
                    );
                    slot += 1;
                }
                SigItem::Exn { name, payload } => {
                    let src_slot = src_ty.slot(*name).ok_or_else(|| {
                        ElabError::new(span, format!("structure lacks exception `{name}`"))
                    })?;
                    let src_ci = match src_env.vals.get(name) {
                        Some(ValBind::Con(c)) if c.tag.is_some() => Rc::clone(c),
                        _ => {
                            return Err(ElabError::new(
                                span,
                                format!("`{name}` in structure is not an exception"),
                            ))
                        }
                    };
                    items.push(ThinItem::Exn { slot: src_slot });
                    comps.push((*name, CompTy::Exn));
                    let tag = Access::Select(Box::new(Access::Var(root)), slot);
                    let payload = payload.map(|p| {
                        if opaque {
                            p
                        } else {
                            subst_ty(&mut self.tys, p, instmap)
                        }
                    });
                    let ci = ConInfo {
                        origin: src_ci.origin.clone(),
                        ..exn_con(&mut self.tys, *name, payload, tag)
                    };
                    renv.vals.insert(*name, ValBind::Con(Rc::new(ci)));
                    slot += 1;
                }
                SigItem::Str { name, sig } => {
                    let src_slot = src_ty.slot(*name).ok_or_else(|| {
                        ElabError::new(span, format!("structure lacks substructure `{name}`"))
                    })?;
                    let sub_entry = src_env.strs.get(name).ok_or_else(|| {
                        ElabError::new(span, format!("structure lacks substructure `{name}`"))
                    })?;
                    let sub_ty = sub_entry.ty.clone();
                    let sub_env = (*sub_entry.env).clone();
                    let (sub_items, sub_to, sub_renv, sub_root) =
                        self.match_sig_inner(&sub_ty, &sub_env, sig, opaque, span, instmap)?;
                    items.push(ThinItem::Str {
                        slot: src_slot,
                        items: sub_items,
                        to: sub_to.clone(),
                    });
                    comps.push((*name, CompTy::Str(sub_to.clone())));
                    let here = Access::Select(Box::new(Access::Var(root)), slot);
                    let sub_renv = reroot_env(&sub_renv, sub_root, &here);
                    renv.strs.insert(
                        *name,
                        StrEntry {
                            access: here,
                            env: Rc::new(sub_renv),
                            ty: sub_to,
                        },
                    );
                    slot += 1;
                }
            }
        }
        Ok((items, StrTy(comps), renv, root))
    }

    /// Checks that `want` (a fully-instantiated specification scheme) is
    /// an instance of the structure's `general` scheme: skolemize `want`'s
    /// generic variables and unify with a fresh instance of `general`.
    fn check_instance(
        &mut self,
        general: &Scheme,
        want: &Scheme,
        name: Symbol,
        span: Span,
    ) -> ElabResult<()> {
        let skolems: Vec<Ty> = want
            .generics()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let skolem = Tycon::fresh_abstract(Symbol::intern(&format!("?{name}{i}")), 0, g.eq);
                self.tys.con(skolem, &[])
            })
            .collect();
        let want_body = self.tys.subst_gen(want.body, &skolems);
        let (gen_inst, _) = self.tys.instantiate(general, self.level + 1);
        self.unify(span, gen_inst, want_body).map_err(|e| {
            ElabError::new(
                span,
                format!(
                    "value `{name}` does not match its specification: {} (structure: `{}`, \
                     specification: `{}`)",
                    e.msg,
                    self.show(general.body),
                    self.show(want.body)
                ),
            )
        })
    }
}

fn collect_pat_vars(pat: &TPat, out: &mut Vec<VarId>) {
    match &pat.kind {
        TPatKind::Var(v) => out.push(*v),
        TPatKind::Wild | TPatKind::Int(_) | TPatKind::Str(_) | TPatKind::Char(_) => {}
        TPatKind::Con { arg, .. } => {
            if let Some(a) = arg {
                collect_pat_vars(a, out);
            }
        }
        TPatKind::Record { fields, .. } => {
            fields.iter().for_each(|(_, p)| collect_pat_vars(p, out))
        }
        TPatKind::As(v, inner) => {
            out.push(*v);
            collect_pat_vars(inner, out);
        }
    }
}
