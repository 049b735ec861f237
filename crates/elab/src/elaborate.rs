//! The elaborator / type checker for the core language.
//!
//! Produces typed abstract syntax in which every occurrence of a
//! polymorphic variable, primitive, or constructor is annotated with its
//! type instantiation (paper §3). Module-language elaboration (signature
//! matching, abstraction, functors) lives in [`crate::modules`].

use crate::absyn::*;
use crate::env::*;
use crate::error::{ElabError, ElabResult};
use sml_ast::FxHashMap;
use sml_ast::{self as ast, ExpKind, PatKind, Span, Symbol};
use sml_types::{EqProp, Scheme, Tv, TvId, Ty, TyKind, TyStore, Tycon, TyconRegistry};
use std::rc::Rc;

/// The result of elaborating a whole program.
#[derive(Debug)]
pub struct Elaboration {
    /// Top-level typed declarations (the built-in exception-tag
    /// declarations are prepended).
    pub decs: Vec<TDec>,
    /// All term variables.
    pub vars: VarTable,
    /// All datatypes.
    pub registry: TyconRegistry,
    /// Tag variables of the built-in exceptions.
    pub builtins: BuiltinExns,
    /// The compile's type store: every [`Ty`] above is a handle into it.
    pub types: TyStore,
}

/// Elaborates a parsed program against the initial environment.
///
/// # Errors
///
/// Returns the first type error encountered.
///
/// # Examples
///
/// ```
/// let prog = sml_ast::parse("fun twice f x = f (f x)").unwrap();
/// let elab = sml_elab::elaborate(&prog).unwrap();
/// assert!(!elab.decs.is_empty());
/// ```
pub fn elaborate(prog: &ast::Program) -> ElabResult<Elaboration> {
    let mut tys = TyStore::new();
    let registry = TyconRegistry::with_builtins(&mut tys);
    let mut vars = VarTable::new();
    let (mut env, builtins) = builtin_env(&registry, &mut vars, &mut tys);
    let mut elab = Elaborator {
        tys,
        reg: registry,
        vars,
        level: 0,
        overloads: Vec::new(),
        flex: Vec::new(),
        tyvar_scopes: vec![FxHashMap::default()],
        fct_roots: FxHashMap::default(),
    };
    let mut decs: Vec<TDec> = builtins
        .all()
        .into_iter()
        .map(|(var, name)| TDec::Exception {
            var,
            name: Symbol::intern(name),
        })
        .collect();
    for dec in &prog.decs {
        elab.elab_dec(&mut env, dec, &mut decs)?;
    }
    elab.resolve_pending(0, 0, Span::dummy())?;
    Ok(Elaboration {
        decs,
        vars: elab.vars,
        registry: elab.reg,
        builtins,
        types: elab.tys,
    })
}

/// A pending flexible-record constraint: the record type, the fields the
/// pattern listed, and the span to report if the record never closes.
type FlexConstraint = (Ty, Vec<(Symbol, Ty)>, Span);

pub(crate) struct Elaborator {
    pub(crate) tys: TyStore,
    pub(crate) reg: TyconRegistry,
    pub(crate) vars: VarTable,
    pub(crate) level: u32,
    /// Pending overload constraints `(instance var, class, span)`.
    overloads: Vec<(Ty, OvClass, Span)>,
    /// Pending flexible-record constraints.
    flex: Vec<FlexConstraint>,
    /// Stack of implicit/explicit type-variable scopes for `'a` syntax.
    pub(crate) tyvar_scopes: Vec<FxHashMap<Symbol, Ty>>,
    /// Placeholder root variables of functor result environments, keyed
    /// by the functor's closure variable.
    pub(crate) fct_roots: FxHashMap<VarId, VarId>,
}

impl Elaborator {
    /// Runs `f` in a scope of `env`: whatever `f` binds in it is gone
    /// when `f` returns, whether it succeeds or fails.
    pub(crate) fn scoped<T>(
        &mut self,
        env: &mut Env,
        f: impl FnOnce(&mut Self, &mut Env) -> ElabResult<T>,
    ) -> ElabResult<T> {
        let mark = env.mark();
        let result = f(self, env);
        env.undo(mark);
        result
    }

    pub(crate) fn fresh_ty(&mut self) -> Ty {
        self.tys.fresh_var(self.level)
    }

    fn err<T>(&self, span: Span, msg: impl Into<String>) -> ElabResult<T> {
        Err(ElabError::new(span, msg))
    }

    pub(crate) fn unify(&mut self, span: Span, a: Ty, b: Ty) -> ElabResult<()> {
        self.tys
            .unify(&self.reg, a, b)
            .map_err(|e| ElabError::new(span, e.show(&self.tys)))
    }

    /// `t` printed.
    pub(crate) fn show(&self, t: Ty) -> String {
        self.tys.show(t).to_string()
    }

    // ----- pending-constraint resolution ---------------------------------

    /// Resolves overload and flexible-record constraints registered after
    /// the given marks. Overloads whose type is still undetermined are
    /// *retained* (demoted so they are not generalized) unless this is a
    /// top-level declaration boundary, where they default to `int` — SML's
    /// overload resolution happens at the outermost enclosing declaration.
    pub(crate) fn resolve_pending(
        &mut self,
        ov_mark: usize,
        flex_mark: usize,
        span: Span,
    ) -> ElabResult<()> {
        let final_boundary = self.level == 0;
        // Flexible records first: they may pin overloaded types.
        for (recty, fields, fspan) in self.flex.split_off(flex_mark) {
            if !matches!(self.tys.kind(recty), TyKind::Record(_)) {
                return self.err(
                    fspan,
                    format!(
                        "unresolved flexible record (inferred `{}`); add a type annotation",
                        self.show(recty)
                    ),
                );
            }
            for (lab, want) in fields {
                let TyKind::Record(have) = self.tys.kind(recty) else {
                    unreachable!("checked a record above")
                };
                match have.iter().find(|(l, _)| *l == lab) {
                    Some(&(_, t)) => self.unify(fspan, want, t)?,
                    None => {
                        return self.err(
                            fspan,
                            format!("record type `{}` has no field `{lab}`", self.show(recty)),
                        )
                    }
                }
            }
        }
        let mut keep = Vec::new();
        for (ty, class, ospan) in self.overloads.split_off(ov_mark) {
            match self.tys.kind(ty) {
                TyKind::Var(v) => {
                    if final_boundary {
                        // Default to int.
                        self.unify(ospan, ty, Ty::INT)?;
                    } else {
                        // Keep pending; prevent generalization by
                        // demoting the variable to the current level.
                        self.tys.lower(v, self.level);
                        keep.push((ty, class, ospan));
                    }
                }
                TyKind::Con(c, _) if class.admits(&c) => {}
                TyKind::Record(fs) if fs.is_empty() && !final_boundary => {
                    // `unit` can appear transiently; treat as undetermined.
                    keep.push((ty, class, ospan));
                }
                _ => {
                    return self.err(
                        ospan,
                        format!("overloaded operator used at type `{}`", self.show(ty)),
                    )
                }
            }
        }
        self.overloads.extend(keep);
        let _ = span;
        Ok(())
    }

    // ----- types -----------------------------------------------------------

    /// Looks up a possibly-qualified type constructor.
    fn lookup_tycon(&self, env: &Env, path: &ast::Path, span: Span) -> ElabResult<TyconBind> {
        let env = self.resolve_qualifiers(env, path, span)?;
        match env.tycons.get(&path.name) {
            Some(b) => Ok(b.clone()),
            None => self.err(span, format!("unbound type constructor `{path}`")),
        }
    }

    /// Resolves the structure qualifiers of a path, returning the
    /// environment in which the final name should be looked up.
    fn resolve_qualifiers<'e>(
        &self,
        env: &'e Env,
        path: &ast::Path,
        span: Span,
    ) -> ElabResult<&'e Env> {
        let mut cur = env;
        for q in &path.qualifiers {
            match cur.strs.get(q) {
                Some(entry) => cur = &entry.env,
                None => return self.err(span, format!("unbound structure `{q}` in `{path}`")),
            }
        }
        Ok(cur)
    }

    /// Elaborates a syntactic type. Type variables resolve through the
    /// current scope stack; unknown ones are created implicitly in the
    /// innermost scope.
    pub(crate) fn elab_ty(&mut self, env: &Env, ty: &ast::Ty) -> ElabResult<Ty> {
        match &ty.kind {
            ast::TyKind::Var(name) => {
                for scope in self.tyvar_scopes.iter().rev() {
                    if let Some(&t) = scope.get(name) {
                        return Ok(t);
                    }
                }
                let eq = name.as_str().starts_with("''");
                let t = self.tys.fresh_var_eq(self.level, eq);
                self.tyvar_scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(*name, t);
                Ok(t)
            }
            ast::TyKind::Con(path, args) => {
                let bind = self.lookup_tycon(env, path, ty.span)?;
                if bind.arity() != args.len() {
                    return self.err(
                        ty.span,
                        format!(
                            "type constructor `{path}` expects {} argument(s), got {}",
                            bind.arity(),
                            args.len()
                        ),
                    );
                }
                let args = args
                    .iter()
                    .map(|a| self.elab_ty(env, a))
                    .collect::<ElabResult<Vec<_>>>()?;
                Ok(bind.apply(&mut self.tys, &args))
            }
            ast::TyKind::Tuple(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.elab_ty(env, p))
                    .collect::<ElabResult<Vec<_>>>()?;
                Ok(self.tys.tuple(&parts))
            }
            ast::TyKind::Record(fields) => {
                let mut fs = Vec::new();
                for (lab, t) in fields {
                    if fs.iter().any(|(l, _)| l == lab) {
                        return self.err(ty.span, format!("duplicate record label `{lab}`"));
                    }
                    fs.push((*lab, self.elab_ty(env, t)?));
                }
                sml_types::sort_fields(&mut fs);
                Ok(self.tys.record(fs))
            }
            ast::TyKind::Arrow(a, b) => {
                let a = self.elab_ty(env, a)?;
                let b = self.elab_ty(env, b)?;
                Ok(self.tys.arrow(a, b))
            }
        }
    }

    // ----- value lookups ----------------------------------------------------

    fn lookup_val<'e>(
        &self,
        env: &'e Env,
        path: &ast::Path,
        span: Span,
    ) -> ElabResult<&'e ValBind> {
        let scope = self.resolve_qualifiers(env, path, span)?;
        match scope.vals.get(&path.name) {
            Some(b) => Ok(b),
            None => self.err(span, format!("unbound variable or constructor `{path}`")),
        }
    }

    // ----- expressions --------------------------------------------------------

    pub(crate) fn elab_exp(&mut self, env: &mut Env, exp: &ast::Exp) -> ElabResult<TExp> {
        let span = exp.span;
        match &exp.kind {
            ExpKind::Int(n) => Ok(TExp {
                kind: TExpKind::Int(*n),
                ty: Ty::INT,
            }),
            ExpKind::Real(x) => Ok(TExp {
                kind: TExpKind::Real(*x),
                ty: Ty::REAL,
            }),
            ExpKind::Str(s) => Ok(TExp {
                kind: TExpKind::Str(s.clone()),
                ty: Ty::STRING,
            }),
            ExpKind::Char(c) => Ok(TExp {
                kind: TExpKind::Char(*c),
                ty: Ty::CHAR,
            }),
            ExpKind::Var(path) => self.elab_var(env, path, span),
            ExpKind::Tuple(parts) => {
                let texps = parts
                    .iter()
                    .map(|p| self.elab_exp(env, p))
                    .collect::<ElabResult<Vec<_>>>()?;
                let fields: Vec<(Symbol, TExp)> = texps
                    .into_iter()
                    .enumerate()
                    .map(|(i, e)| (Symbol::numeric(i + 1), e))
                    .collect();
                let ty = self.tys.record(fields.iter().map(|(l, e)| (*l, e.ty)));
                Ok(TExp {
                    kind: TExpKind::Record(fields),
                    ty,
                })
            }
            ExpKind::Record(fields) => {
                let mut fs: Vec<(Symbol, TExp)> = Vec::new();
                for (lab, e) in fields {
                    if fs.iter().any(|(l, _)| l == lab) {
                        return self.err(span, format!("duplicate record label `{lab}`"));
                    }
                    fs.push((*lab, self.elab_exp(env, e)?));
                }
                sml_types::sort_fields(&mut fs);
                let ty = self.tys.record(fs.iter().map(|(l, e)| (*l, e.ty)));
                Ok(TExp {
                    kind: TExpKind::Record(fs),
                    ty,
                })
            }
            ExpKind::Selector(lab) => {
                // Eta-expand: fn v => #lab v, with a flexible-record
                // constraint on v's type.
                let rec_ty = self.fresh_ty();
                let out_ty = self.fresh_ty();
                self.flex.push((rec_ty, vec![(*lab, out_ty)], span));
                let v = self.vars.fresh(Symbol::intern("selectee"), rec_ty);
                let arg = TExp {
                    kind: TExpKind::Var {
                        access: Access::Var(v),
                        scheme: Scheme::mono(rec_ty),
                        inst: Vec::new(),
                    },
                    ty: rec_ty,
                };
                let body = TExp {
                    kind: TExpKind::Select {
                        label: *lab,
                        arg: Box::new(arg),
                    },
                    ty: out_ty,
                };
                let rule = TRule {
                    pat: TPat {
                        kind: TPatKind::Var(v),
                        ty: rec_ty,
                    },
                    exp: body,
                };
                Ok(TExp {
                    kind: TExpKind::Fn {
                        rules: vec![rule],
                        arg_ty: rec_ty,
                    },
                    ty: self.tys.arrow(rec_ty, out_ty),
                })
            }
            ExpKind::List(elems) => {
                let elem_ty = self.fresh_ty();
                let mut texps = Vec::new();
                for e in elems {
                    let te = self.elab_exp(env, e)?;
                    self.unify(e.span, te.ty, elem_ty)?;
                    texps.push(te);
                }
                Ok(self.build_list(env, texps, elem_ty, span)?)
            }
            ExpKind::App(f, a) => {
                // `#lab e` selects directly.
                if let ExpKind::Selector(lab) = &f.kind {
                    let arg = self.elab_exp(env, a)?;
                    let out_ty = self.fresh_ty();
                    self.flex.push((arg.ty, vec![(*lab, out_ty)], span));
                    return Ok(TExp {
                        kind: TExpKind::Select {
                            label: *lab,
                            arg: Box::new(arg),
                        },
                        ty: out_ty,
                    });
                }
                let tf = self.elab_exp(env, f)?;
                let ta = self.elab_exp(env, a)?;
                let res = self.fresh_ty();
                let want = self.tys.arrow(ta.ty, res);
                self.unify(span, tf.ty, want)?;
                Ok(TExp {
                    kind: TExpKind::App(Box::new(tf), Box::new(ta)),
                    ty: res,
                })
            }
            ExpKind::Fn(rules) => {
                let arg_ty = self.fresh_ty();
                let res_ty = self.fresh_ty();
                let trules = self.elab_rules(env, rules, arg_ty, res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Fn {
                        rules: trules,
                        arg_ty,
                    },
                    ty: self.tys.arrow(arg_ty, res_ty),
                })
            }
            ExpKind::Case(scrut, rules) => {
                let ts = self.elab_exp(env, scrut)?;
                let res_ty = self.fresh_ty();
                let trules = self.elab_rules(env, rules, ts.ty, res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Case(Box::new(ts), trules),
                    ty: res_ty,
                })
            }
            ExpKind::If(c, t, e) => {
                let tc = self.elab_exp(env, c)?;
                self.unify(c.span, tc.ty, Ty::BOOL)?;
                let tt = self.elab_exp(env, t)?;
                let te = self.elab_exp(env, e)?;
                self.unify(span, tt.ty, te.ty)?;
                let ty = tt.ty;
                Ok(TExp {
                    kind: TExpKind::If(Box::new(tc), Box::new(tt), Box::new(te)),
                    ty,
                })
            }
            ExpKind::Andalso(a, b) => {
                let ta = self.elab_exp(env, a)?;
                let tb = self.elab_exp(env, b)?;
                self.unify(a.span, ta.ty, Ty::BOOL)?;
                self.unify(b.span, tb.ty, Ty::BOOL)?;
                let false_exp = self.bool_const(env, false);
                Ok(TExp {
                    kind: TExpKind::If(Box::new(ta), Box::new(tb), Box::new(false_exp)),
                    ty: Ty::BOOL,
                })
            }
            ExpKind::Orelse(a, b) => {
                let ta = self.elab_exp(env, a)?;
                let tb = self.elab_exp(env, b)?;
                self.unify(a.span, ta.ty, Ty::BOOL)?;
                self.unify(b.span, tb.ty, Ty::BOOL)?;
                let true_exp = self.bool_const(env, true);
                Ok(TExp {
                    kind: TExpKind::If(Box::new(ta), Box::new(true_exp), Box::new(tb)),
                    ty: Ty::BOOL,
                })
            }
            ExpKind::While(c, b) => {
                let tc = self.elab_exp(env, c)?;
                self.unify(c.span, tc.ty, Ty::BOOL)?;
                let tb = self.elab_exp(env, b)?;
                Ok(TExp {
                    kind: TExpKind::While(Box::new(tc), Box::new(tb)),
                    ty: Ty::UNIT,
                })
            }
            ExpKind::Seq(exps) => {
                let texps = exps
                    .iter()
                    .map(|e| self.elab_exp(env, e))
                    .collect::<ElabResult<Vec<_>>>()?;
                let ty = texps.last().expect("non-empty sequence").ty;
                Ok(TExp {
                    kind: TExpKind::Seq(texps),
                    ty,
                })
            }
            ExpKind::Let(decs, body) => {
                let (tdecs, tb) = self.scoped(env, |me, inner| {
                    let mut tdecs = Vec::new();
                    for d in decs {
                        me.elab_dec(inner, d, &mut tdecs)?;
                    }
                    Ok((tdecs, me.elab_exp(inner, body)?))
                })?;
                let ty = tb.ty;
                Ok(TExp {
                    kind: TExpKind::Let(tdecs, Box::new(tb)),
                    ty,
                })
            }
            ExpKind::Raise(e) => {
                let te = self.elab_exp(env, e)?;
                self.unify(e.span, te.ty, Ty::EXN)?;
                Ok(TExp {
                    kind: TExpKind::Raise(Box::new(te)),
                    ty: self.fresh_ty(),
                })
            }
            ExpKind::Handle(e, rules) => {
                let te = self.elab_exp(env, e)?;
                let res_ty = te.ty;
                let trules = self.elab_rules(env, rules, Ty::EXN, res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Handle(Box::new(te), trules),
                    ty: res_ty,
                })
            }
            ExpKind::Constraint(e, ty) => {
                let te = self.elab_exp(env, e)?;
                let want = self.elab_ty(env, ty)?;
                self.unify(span, te.ty, want)?;
                Ok(te)
            }
        }
    }

    fn elab_var(&mut self, env: &Env, path: &ast::Path, span: Span) -> ElabResult<TExp> {
        match self.lookup_val(env, path, span)? {
            ValBind::Var { access, scheme } => {
                let (ty, inst) = self.tys.instantiate(scheme, self.level);
                Ok(TExp {
                    kind: TExpKind::Var {
                        access: access.clone(),
                        scheme: scheme.clone(),
                        inst,
                    },
                    ty,
                })
            }
            ValBind::Con(con) => {
                let (ty, inst) = self.tys.instantiate(&con.scheme, self.level);
                Ok(TExp {
                    kind: TExpKind::Con {
                        con: Rc::clone(con),
                        inst,
                    },
                    ty,
                })
            }
            ValBind::Prim {
                prim,
                scheme,
                overload,
            } => {
                let (ty, inst) = self.tys.instantiate(scheme, self.level);
                if let (Some(class), Some(&first)) = (overload, inst.first()) {
                    self.overloads.push((first, *class, span));
                }
                Ok(TExp {
                    kind: TExpKind::Prim { prim: *prim, inst },
                    ty,
                })
            }
        }
    }

    fn bool_const(&mut self, env: &Env, value: bool) -> TExp {
        let name = Symbol::intern(if value { "true" } else { "false" });
        match env.vals.get(&name) {
            Some(ValBind::Con(c)) => TExp {
                kind: TExpKind::Con {
                    con: Rc::clone(c),
                    inst: Vec::new(),
                },
                ty: Ty::BOOL,
            },
            _ => unreachable!("booleans are always in scope"),
        }
    }

    fn build_list(
        &mut self,
        env: &Env,
        elems: Vec<TExp>,
        elem_ty: Ty,
        span: Span,
    ) -> ElabResult<TExp> {
        let cons = match env.vals.get(&Symbol::intern("::")) {
            Some(ValBind::Con(c)) => Rc::clone(c),
            _ => return self.err(span, "list constructor `::` is not in scope"),
        };
        let nil = match env.vals.get(&Symbol::intern("nil")) {
            Some(ValBind::Con(c)) => Rc::clone(c),
            _ => return self.err(span, "list constructor `nil` is not in scope"),
        };
        let list_ty = self.tys.list(elem_ty);
        let mut acc = TExp {
            kind: TExpKind::Con {
                con: nil,
                inst: vec![elem_ty],
            },
            ty: list_ty,
        };
        // Every cell has the same type, so one pair and one arrow serve
        // them all.
        let pair_ty = self.tys.pair(elem_ty, list_ty);
        let cons_ty = self.tys.arrow(pair_ty, list_ty);
        for e in elems.into_iter().rev() {
            let pair = TExp {
                kind: TExpKind::Record(vec![(Symbol::numeric(1), e), (Symbol::numeric(2), acc)]),
                ty: pair_ty,
            };
            let conexp = TExp {
                kind: TExpKind::Con {
                    con: Rc::clone(&cons),
                    inst: vec![elem_ty],
                },
                ty: cons_ty,
            };
            acc = TExp {
                kind: TExpKind::App(Box::new(conexp), Box::new(pair)),
                ty: list_ty,
            };
        }
        Ok(acc)
    }

    fn elab_rules(
        &mut self,
        env: &mut Env,
        rules: &[ast::Rule],
        arg_ty: Ty,
        res_ty: Ty,
        span: Span,
    ) -> ElabResult<Vec<TRule>> {
        let mut out = Vec::new();
        for rule in rules {
            let mut binds = Vec::new();
            let tpat = self.elab_pat(env, &rule.pat, &mut binds)?;
            self.unify(rule.pat.span, tpat.ty, arg_ty)?;
            let texp = self.scoped(env, |me, inner| {
                bind_mono(inner, &binds);
                me.elab_exp(inner, &rule.exp)
            })?;
            self.unify(span, texp.ty, res_ty)?;
            out.push(TRule {
                pat: tpat,
                exp: texp,
            });
        }
        Ok(out)
    }

    // ----- patterns -------------------------------------------------------------

    pub(crate) fn elab_pat(
        &mut self,
        env: &Env,
        pat: &ast::Pat,
        binds: &mut Vec<(Symbol, VarId, Ty)>,
    ) -> ElabResult<TPat> {
        let span = pat.span;
        match &pat.kind {
            PatKind::Wild => {
                let ty = self.fresh_ty();
                Ok(TPat {
                    kind: TPatKind::Wild,
                    ty,
                })
            }
            PatKind::Int(n) => Ok(TPat {
                kind: TPatKind::Int(*n),
                ty: Ty::INT,
            }),
            PatKind::Str(s) => Ok(TPat {
                kind: TPatKind::Str(s.clone()),
                ty: Ty::STRING,
            }),
            PatKind::Char(c) => Ok(TPat {
                kind: TPatKind::Char(*c),
                ty: Ty::CHAR,
            }),
            PatKind::Var(path) => {
                // A name that resolves to a constructor is a constant
                // constructor pattern; otherwise it binds a variable.
                let con = if path.is_simple() {
                    match env.vals.get(&path.name) {
                        Some(ValBind::Con(c)) => Some(Rc::clone(c)),
                        _ => None,
                    }
                } else {
                    match self.lookup_val(env, path, span)? {
                        ValBind::Con(c) => Some(Rc::clone(c)),
                        _ => {
                            return self
                                .err(span, format!("`{path}` in pattern is not a constructor"))
                        }
                    }
                };
                match con {
                    Some(c) => {
                        if c.has_payload(&self.tys) {
                            return self
                                .err(span, format!("constructor `{path}` expects an argument"));
                        }
                        let (ty, inst) = self.tys.instantiate(&c.scheme, self.level);
                        Ok(TPat {
                            kind: TPatKind::Con {
                                con: c,
                                inst,
                                arg: None,
                            },
                            ty,
                        })
                    }
                    None => {
                        if binds.iter().any(|(n, _, _)| *n == path.name) {
                            return self.err(
                                span,
                                format!("duplicate variable `{}` in pattern", path.name),
                            );
                        }
                        let ty = self.fresh_ty();
                        let var = self.vars.fresh(path.name, ty);
                        binds.push((path.name, var, ty));
                        Ok(TPat {
                            kind: TPatKind::Var(var),
                            ty,
                        })
                    }
                }
            }
            PatKind::Con(path, arg) => {
                let con = match self.lookup_val(env, path, span)? {
                    ValBind::Con(c) => Rc::clone(c),
                    _ => {
                        return self.err(span, format!("`{path}` in pattern is not a constructor"))
                    }
                };
                if !con.has_payload(&self.tys) {
                    return self.err(
                        span,
                        format!("constant constructor `{path}` applied in pattern"),
                    );
                }
                let (conty, inst) = self.tys.instantiate(&con.scheme, self.level);
                let TyKind::Arrow(payload_ty, result_ty) = self.tys.kind(conty) else {
                    unreachable!("has_payload checked the arrow")
                };
                let targ = self.elab_pat(env, arg, binds)?;
                self.unify(span, targ.ty, payload_ty)?;
                Ok(TPat {
                    kind: TPatKind::Con {
                        con,
                        inst,
                        arg: Some(Box::new(targ)),
                    },
                    ty: result_ty,
                })
            }
            PatKind::Tuple(parts) => {
                let tparts = parts
                    .iter()
                    .map(|p| self.elab_pat(env, p, binds))
                    .collect::<ElabResult<Vec<_>>>()?;
                let fields: Vec<(Symbol, TPat)> = tparts
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| (Symbol::numeric(i + 1), p))
                    .collect();
                let ty = self.tys.record(fields.iter().map(|(l, p)| (*l, p.ty)));
                Ok(TPat {
                    kind: TPatKind::Record {
                        fields,
                        flexible: false,
                    },
                    ty,
                })
            }
            PatKind::Record { fields, flexible } => {
                let mut tf: Vec<(Symbol, TPat)> = Vec::new();
                for (lab, p) in fields {
                    if tf.iter().any(|(l, _)| l == lab) {
                        return self.err(span, format!("duplicate record label `{lab}`"));
                    }
                    tf.push((*lab, self.elab_pat(env, p, binds)?));
                }
                sml_types::sort_fields(&mut tf);
                if *flexible {
                    let ty = self.fresh_ty();
                    self.flex
                        .push((ty, tf.iter().map(|(l, p)| (*l, p.ty)).collect(), span));
                    Ok(TPat {
                        kind: TPatKind::Record {
                            fields: tf,
                            flexible: true,
                        },
                        ty,
                    })
                } else {
                    let ty = self.tys.record(tf.iter().map(|(l, p)| (*l, p.ty)));
                    Ok(TPat {
                        kind: TPatKind::Record {
                            fields: tf,
                            flexible: false,
                        },
                        ty,
                    })
                }
            }
            PatKind::List(parts) => {
                let elem_ty = self.fresh_ty();
                let cons = match env.vals.get(&Symbol::intern("::")) {
                    Some(ValBind::Con(c)) => Rc::clone(c),
                    _ => return self.err(span, "`::` is not in scope"),
                };
                let nil = match env.vals.get(&Symbol::intern("nil")) {
                    Some(ValBind::Con(c)) => Rc::clone(c),
                    _ => return self.err(span, "`nil` is not in scope"),
                };
                let list_ty = self.tys.list(elem_ty);
                let pair_ty = self.tys.pair(elem_ty, list_ty);
                let mut acc = TPat {
                    kind: TPatKind::Con {
                        con: nil,
                        inst: vec![elem_ty],
                        arg: None,
                    },
                    ty: list_ty,
                };
                for p in parts.iter().rev() {
                    let tp = self.elab_pat(env, p, binds)?;
                    self.unify(p.span, tp.ty, elem_ty)?;
                    let pair = TPat {
                        kind: TPatKind::Record {
                            fields: vec![(Symbol::numeric(1), tp), (Symbol::numeric(2), acc)],
                            flexible: false,
                        },
                        ty: pair_ty,
                    };
                    acc = TPat {
                        kind: TPatKind::Con {
                            con: Rc::clone(&cons),
                            inst: vec![elem_ty],
                            arg: Some(Box::new(pair)),
                        },
                        ty: list_ty,
                    };
                }
                Ok(acc)
            }
            PatKind::As(name, inner) => {
                if binds.iter().any(|(n, _, _)| n == name) {
                    return self.err(span, format!("duplicate variable `{name}` in pattern"));
                }
                let tp = self.elab_pat(env, inner, binds)?;
                let var = self.vars.fresh(*name, tp.ty);
                binds.push((*name, var, tp.ty));
                let ty = tp.ty;
                Ok(TPat {
                    kind: TPatKind::As(var, Box::new(tp)),
                    ty,
                })
            }
            PatKind::Constraint(inner, ty) => {
                let tp = self.elab_pat(env, inner, binds)?;
                let want = self.elab_ty(env, ty)?;
                self.unify(span, tp.ty, want)?;
                Ok(tp)
            }
        }
    }

    // ----- declarations -----------------------------------------------------------

    /// Elaborates one declaration, extending `env` with its bindings.
    pub(crate) fn elab_dec(
        &mut self,
        env: &mut Env,
        dec: &ast::Dec,
        out: &mut Vec<TDec>,
    ) -> ElabResult<()> {
        let span = dec.span;
        match &dec.kind {
            ast::DecKind::Val { tyvars, pat, exp } => {
                let ov_mark = self.overloads.len();
                let flex_mark = self.flex.len();
                self.push_tyvar_scope(tyvars);
                self.level += 1;
                let texp = self.elab_exp(env, exp);
                let result = texp.and_then(|texp| {
                    let mut binds = Vec::new();
                    let tpat = self.elab_pat(env, pat, &mut binds)?;
                    self.unify(span, tpat.ty, texp.ty)?;
                    Ok((texp, tpat, binds))
                });
                self.level -= 1;
                self.tyvar_scopes.pop();
                let (texp, tpat, binds) = result?;
                self.resolve_pending(ov_mark, flex_mark, span)?;

                let single_var = matches!(tpat.kind, TPatKind::Var(_));
                if single_var && is_nonexpansive(env, exp) {
                    let TPatKind::Var(var) = tpat.kind else {
                        unreachable!()
                    };
                    let scheme = self.tys.generalize(texp.ty, self.level);
                    self.vars.info_mut(var).scheme = scheme.clone();
                    let (name, _, _) = binds[0];
                    let bind = ValBind::Var {
                        access: Access::Var(var),
                        scheme,
                    };
                    env.vals.insert(name, bind);
                    out.push(TDec::PolyVal { var, exp: texp });
                } else {
                    // Expansive or pattern binding: keep it monomorphic by
                    // demoting inner levels.
                    self.tys.demote(texp.ty, self.level);
                    for &(name, var, ty) in &binds {
                        self.tys.demote(ty, self.level);
                        let bind = ValBind::Var {
                            access: Access::Var(var),
                            scheme: Scheme::mono(ty),
                        };
                        env.vals.insert(name, bind);
                    }
                    out.push(TDec::Val {
                        pat: tpat,
                        exp: texp,
                    });
                }
                Ok(())
            }
            ast::DecKind::Fun { tyvars, funs } => {
                let ov_mark = self.overloads.len();
                let flex_mark = self.flex.len();
                self.push_tyvar_scope(tyvars);
                self.level += 1;
                // Bind all the functions monomorphically for recursion.
                let mut fvars = Vec::new();
                let mut ftys = Vec::new();
                let bodies = self.scoped(env, |me, inner| {
                    for f in funs {
                        let ty = me.fresh_ty();
                        let var = me.vars.fresh(f.name, ty);
                        inner.vals.insert(
                            f.name,
                            ValBind::Var {
                                access: Access::Var(var),
                                scheme: Scheme::mono(ty),
                            },
                        );
                        fvars.push(var);
                        ftys.push(ty);
                    }
                    funs.iter()
                        .zip(&ftys)
                        .map(|(f, &fty)| me.elab_funbind(inner, f, fty, span))
                        .collect::<ElabResult<Vec<TExp>>>()
                });
                self.level -= 1;
                self.tyvar_scopes.pop();
                let bodies = bodies?;
                self.resolve_pending(ov_mark, flex_mark, span)?;

                let schemes = self.tys.generalize_many(&ftys, self.level);
                let mut exps = bodies;
                for ((f, var), scheme) in funs.iter().zip(&fvars).zip(&schemes) {
                    self.vars.info_mut(*var).scheme = scheme.clone();
                    let bind = ValBind::Var {
                        access: Access::Var(*var),
                        scheme: scheme.clone(),
                    };
                    env.vals.insert(f.name, bind);
                }
                // Recursive occurrences were annotated before
                // generalization; give them the identity instantiation.
                if schemes.first().map_or(0, Scheme::arity) > 0 {
                    let identity = self.tys.identity_instance(&schemes[0]);
                    for e in &mut exps {
                        fixup_recursive_uses(e, &fvars, &identity);
                    }
                }
                out.push(TDec::Fun { vars: fvars, exps });
                Ok(())
            }
            ast::DecKind::Type(binds) => {
                for b in binds {
                    let tyfun = self.elab_tyfun(env, &b.tyvars, &b.ty)?;
                    let bind = TyconBind::Abbrev(tyfun);
                    env.tycons.insert(b.name, bind);
                }
                Ok(())
            }
            ast::DecKind::Datatype(binds) => {
                let cons = self.elab_datatypes(env, binds)?;
                for (name, bind) in cons.tycons {
                    env.tycons.insert(name, bind);
                }
                for (name, ci) in cons.cons {
                    env.vals.insert(name, ValBind::Con(Rc::new(ci)));
                }
                Ok(())
            }
            ast::DecKind::Exception(binds) => {
                for b in binds {
                    let payload = match &b.ty {
                        Some(t) => Some(self.elab_ty(env, t)?),
                        None => None,
                    };
                    let var = self.vars.fresh(b.name, Ty::EXN);
                    let ci = exn_con(&mut self.tys, b.name, payload, Access::Var(var));
                    out.push(TDec::Exception { var, name: b.name });
                    env.vals.insert(b.name, ValBind::Con(Rc::new(ci)));
                }
                Ok(())
            }
            ast::DecKind::Structure(binds) => {
                for b in binds {
                    self.elab_strbind(env, b, out)?;
                }
                Ok(())
            }
            ast::DecKind::Signature(binds) => {
                for b in binds {
                    let def = SigDef {
                        ast: Rc::new(b.def.clone()),
                        env: env.clone(),
                    };
                    env.sigs.insert(b.name, def);
                }
                Ok(())
            }
            ast::DecKind::Functor(binds) => {
                for b in binds {
                    self.elab_fctbind(env, b, out)?;
                }
                Ok(())
            }
        }
    }

    fn push_tyvar_scope(&mut self, tyvars: &[Symbol]) {
        let mut scope = FxHashMap::default();
        for tv in tyvars {
            let eq = tv.as_str().starts_with("''");
            scope.insert(*tv, self.tys.fresh_var_eq(self.level + 1, eq));
        }
        self.tyvar_scopes.push(scope);
    }

    /// Pushes a type-variable scope binding `tyvars` to fresh variables
    /// at the current level, which become the parameters of a type
    /// function or datatype.
    pub(crate) fn push_param_scope(&mut self, tyvars: &[Symbol]) -> Vec<TvId> {
        let mut scope = FxHashMap::default();
        let mut params = Vec::new();
        for tv in tyvars {
            let t = self.tys.fresh_var(self.level);
            scope.insert(*tv, t);
            params.push(self.tys.head_var(t).expect("a fresh variable"));
        }
        self.tyvar_scopes.push(scope);
        params
    }

    /// Pops the scope [`Elaborator::push_param_scope`] pushed and marks
    /// its parameters `Gen(0..)`.
    pub(crate) fn pop_param_scope(&mut self, params: &[TvId]) {
        self.tyvar_scopes.pop();
        for (i, &cell) in params.iter().enumerate() {
            self.tys.set_tv(cell, Tv::Gen(i as u32));
        }
    }

    /// Elaborates a `type` binding into a type function.
    pub(crate) fn elab_tyfun(
        &mut self,
        env: &Env,
        tyvars: &[Symbol],
        body: &ast::Ty,
    ) -> ElabResult<TyFun> {
        let params = self.push_param_scope(tyvars);
        let t = self.elab_ty(env, body);
        self.pop_param_scope(&params);
        Ok(TyFun { params, body: t? })
    }

    /// Result of elaborating a datatype batch.
    fn elab_datatypes(
        &mut self,
        env: &mut Env,
        binds: &[ast::DataBind],
    ) -> ElabResult<DatatypeAdditions> {
        // Phase 1: create the tycons so payloads can be recursive.
        let mut tycons = Vec::new();
        for b in binds {
            tycons.push(Tycon::fresh_data(b.name, b.tyvars.len(), EqProp::IfArgs));
        }
        // Phase 2: elaborate payloads, in a scope that binds the tycons.
        let batch = self.scoped(env, |me, scratch| {
            for (b, tycon) in binds.iter().zip(&tycons) {
                scratch.tycons.insert(b.name, TyconBind::Tycon(*tycon));
            }
            let mut batch = Vec::new();
            for (b, tycon) in binds.iter().zip(&tycons) {
                let params = me.push_param_scope(&b.tyvars);
                let cons = me.elab_con_payloads(scratch, &b.cons);
                me.pop_param_scope(&params);
                batch.push((*tycon, params, cons?));
            }
            Ok(batch)
        })?;
        self.reg.register_batch(&mut self.tys, batch);
        // Phase 3: build constructor infos.
        let mut additions = DatatypeAdditions::default();
        for (b, tycon) in binds.iter().zip(&tycons) {
            additions.tycons.push((b.name, TyconBind::Tycon(*tycon)));
            let def = self.reg.datatype(tycon.stamp).expect("just registered");
            for con in &def.cons {
                let scheme = con_scheme(&mut self.tys, *tycon, &def.params, con.payload);
                additions.cons.push((
                    con.name,
                    ConInfo {
                        name: con.name,
                        dt_stamp: tycon.stamp,
                        index: con.index,
                        span: def.cons.len(),
                        rep: con.rep,
                        scheme,
                        origin: None,
                        tag: None,
                    },
                ));
            }
        }
        Ok(additions)
    }

    /// Elaborates the payload types of a datatype's constructors.
    pub(crate) fn elab_con_payloads(
        &mut self,
        env: &Env,
        cons: &[(Symbol, Option<ast::Ty>)],
    ) -> ElabResult<Vec<(Symbol, Option<Ty>)>> {
        cons.iter()
            .map(|(cname, cty)| {
                let payload = match cty {
                    Some(t) => Some(self.elab_ty(env, t)?),
                    None => None,
                };
                Ok((*cname, payload))
            })
            .collect()
    }

    /// Elaborates one clausal function binding into a (possibly curried)
    /// `Fn` expression and unifies its type with `fty`.
    fn elab_funbind(
        &mut self,
        env: &mut Env,
        f: &ast::FunBind,
        fty: Ty,
        span: Span,
    ) -> ElabResult<TExp> {
        let n_args = f.clauses[0].pats.len();
        if f.clauses.iter().any(|c| c.pats.len() != n_args) {
            return self.err(
                span,
                format!("clauses of `{}` differ in argument count", f.name),
            );
        }
        let arg_tys: Vec<Ty> = (0..n_args).map(|_| self.fresh_ty()).collect();
        let res_ty = self.fresh_ty();
        let mut trules = Vec::new();
        for clause in &f.clauses {
            let mut binds = Vec::new();
            let mut tpats = Vec::new();
            for (p, &at) in clause.pats.iter().zip(&arg_tys) {
                let tp = self.elab_pat(env, p, &mut binds)?;
                self.unify(p.span, tp.ty, at)?;
                tpats.push(tp);
            }
            let body = self.scoped(env, |me, inner| {
                bind_mono(inner, &binds);
                me.elab_exp(inner, &clause.body)
            })?;
            if let Some(rt) = &clause.ret_ty {
                let want = self.elab_ty(env, rt)?;
                self.unify(span, body.ty, want)?;
            }
            self.unify(span, body.ty, res_ty)?;
            // For multi-argument clauses, pack patterns into a tuple to be
            // matched against the tuple of parameters.
            let pat = if n_args == 1 {
                tpats.pop().expect("one pattern")
            } else {
                let fields: Vec<(Symbol, TPat)> = tpats
                    .into_iter()
                    .enumerate()
                    .map(|(i, p)| (Symbol::numeric(i + 1), p))
                    .collect();
                let ty = self.tys.record(fields.iter().map(|(l, p)| (*l, p.ty)));
                TPat {
                    kind: TPatKind::Record {
                        fields,
                        flexible: false,
                    },
                    ty,
                }
            };
            trules.push(TRule { pat, exp: body });
        }

        let exp = if n_args == 1 {
            TExp {
                kind: TExpKind::Fn {
                    rules: trules,
                    arg_ty: arg_tys[0],
                },
                ty: self.tys.arrow(arg_tys[0], res_ty),
            }
        } else {
            // fun f p1 p2 ... = e  becomes
            // fn v1 => fn v2 => ... => case (v1, ..., vn) of (p1, ..., pn) => e
            let params: Vec<VarId> = arg_tys
                .iter()
                .enumerate()
                .map(|(i, &t)| self.vars.fresh(Symbol::intern(&format!("arg{i}")), t))
                .collect();
            let tuple_ty = self.tys.tuple(&arg_tys);
            let tuple = TExp {
                kind: TExpKind::Record(
                    params
                        .iter()
                        .zip(&arg_tys)
                        .enumerate()
                        .map(|(i, (v, &t))| {
                            (
                                Symbol::numeric(i + 1),
                                TExp {
                                    kind: TExpKind::Var {
                                        access: Access::Var(*v),
                                        scheme: Scheme::mono(t),
                                        inst: Vec::new(),
                                    },
                                    ty: t,
                                },
                            )
                        })
                        .collect(),
                ),
                ty: tuple_ty,
            };
            let mut body = TExp {
                kind: TExpKind::Case(Box::new(tuple), trules),
                ty: res_ty,
            };
            let mut ty = res_ty;
            for (v, &at) in params.iter().zip(&arg_tys).rev() {
                ty = self.tys.arrow(at, ty);
                body = TExp {
                    kind: TExpKind::Fn {
                        rules: vec![TRule {
                            pat: TPat {
                                kind: TPatKind::Var(*v),
                                ty: at,
                            },
                            exp: body,
                        }],
                        arg_ty: at,
                    },
                    ty,
                };
            }
            body
        };
        self.unify(span, exp.ty, fty)?;
        Ok(exp)
    }
}

/// Tycon and constructor additions from a datatype declaration.
#[derive(Default)]
struct DatatypeAdditions {
    tycons: Vec<(Symbol, TyconBind)>,
    cons: Vec<(Symbol, ConInfo)>,
}

/// Binds each pattern variable of `binds` in `env` monomorphically.
fn bind_mono(env: &mut Env, binds: &[(Symbol, VarId, Ty)]) {
    for &(name, var, ty) in binds {
        env.vals.insert(
            name,
            ValBind::Var {
                access: Access::Var(var),
                scheme: Scheme::mono(ty),
            },
        );
    }
}

/// SML's syntactic nonexpansiveness test (value restriction).
fn is_nonexpansive(env: &Env, exp: &ast::Exp) -> bool {
    match &exp.kind {
        ExpKind::Int(_)
        | ExpKind::Real(_)
        | ExpKind::Str(_)
        | ExpKind::Char(_)
        | ExpKind::Var(_)
        | ExpKind::Fn(_)
        | ExpKind::Selector(_) => true,
        ExpKind::Tuple(es) | ExpKind::List(es) => es.iter().all(|e| is_nonexpansive(env, e)),
        ExpKind::Record(fs) => fs.iter().all(|(_, e)| is_nonexpansive(env, e)),
        ExpKind::Constraint(e, _) => is_nonexpansive(env, e),
        ExpKind::App(f, a) => {
            // Constructor applications (other than `ref`) are values.
            match &f.kind {
                ExpKind::Var(p) => {
                    let is_con = if p.is_simple() {
                        matches!(env.vals.get(&p.name), Some(ValBind::Con(_)))
                    } else {
                        false
                    };
                    is_con && is_nonexpansive(env, a)
                }
                _ => false,
            }
        }
        _ => false,
    }
}

/// After generalization, recursive occurrences of the newly generalized
/// functions still carry empty instantiation vectors; rewrite them to the
/// identity instantiation.
pub(crate) fn fixup_recursive_uses(exp: &mut TExp, vars: &[VarId], identity: &[Ty]) {
    let fix = |e: &mut TExp| fixup_recursive_uses(e, vars, identity);
    match &mut exp.kind {
        TExpKind::Var { access, inst, .. } => {
            if inst.is_empty() && access.is_local() && vars.contains(&access.root()) {
                *inst = identity.to_vec();
            }
        }
        TExpKind::Int(_)
        | TExpKind::Real(_)
        | TExpKind::Str(_)
        | TExpKind::Char(_)
        | TExpKind::Prim { .. }
        | TExpKind::Con { .. } => {}
        TExpKind::Record(fs) => fs.iter_mut().for_each(|(_, e)| fix(e)),
        TExpKind::Select { arg, .. } => fix(arg),
        TExpKind::App(f, a) => {
            fix(f);
            fix(a);
        }
        TExpKind::Fn { rules, .. } => rules.iter_mut().for_each(|r| fix(&mut r.exp)),
        TExpKind::Case(s, rules) => {
            fix(s);
            rules.iter_mut().for_each(|r| fix(&mut r.exp));
        }
        TExpKind::If(a, b, c) => {
            fix(a);
            fix(b);
            fix(c);
        }
        TExpKind::While(a, b) => {
            fix(a);
            fix(b);
        }
        TExpKind::Seq(es) => es.iter_mut().for_each(fix),
        TExpKind::Let(decs, body) => {
            for d in decs {
                fixup_dec(d, vars, identity);
            }
            fix(body);
        }
        TExpKind::Raise(e) => fix(e),
        TExpKind::Handle(e, rules) => {
            fix(e);
            rules.iter_mut().for_each(|r| fix(&mut r.exp));
        }
    }
}

fn fixup_dec(dec: &mut TDec, vars: &[VarId], identity: &[Ty]) {
    match dec {
        TDec::Val { exp, .. } | TDec::PolyVal { exp, .. } => {
            fixup_recursive_uses(exp, vars, identity)
        }
        TDec::Fun { exps, .. } => exps
            .iter_mut()
            .for_each(|e| fixup_recursive_uses(e, vars, identity)),
        TDec::Exception { .. } => {}
        TDec::Structure { def, .. } => fixup_strexp(def, vars, identity),
        TDec::Functor { body, .. } => fixup_strexp(body, vars, identity),
    }
}

fn fixup_strexp(se: &mut TStrExp, vars: &[VarId], identity: &[Ty]) {
    match se {
        TStrExp::Struct { decs, .. } => decs.iter_mut().for_each(|d| fixup_dec(d, vars, identity)),
        TStrExp::Access(_) => {}
        TStrExp::Thin { base, .. } => fixup_strexp(base, vars, identity),
        TStrExp::FctApp { arg, .. } => fixup_strexp(arg, vars, identity),
    }
}
