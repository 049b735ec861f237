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
use sml_ast::{self as ast, ExpKind, PatKind, Span, Symbol, TyKind};
use sml_types::{
    generalize_many, unify, EqProp, Scheme, Tv, TvRef, Ty, Tycon, TyconRegistry, UnifyResult,
};
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
    let registry = TyconRegistry::with_builtins();
    let mut vars = VarTable::new();
    let (mut env, builtins) = builtin_env(&registry, &mut vars);
    let mut elab = Elaborator {
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
    })
}

/// A pending flexible-record constraint: the record type, the fields the
/// pattern listed, and the span to report if the record never closes.
type FlexConstraint = (Ty, Vec<(Symbol, Ty)>, Span);

pub(crate) struct Elaborator {
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

    pub(crate) fn fresh_ty(&self) -> Ty {
        Ty::Var(TvRef::fresh(self.level))
    }

    fn err<T>(&self, span: Span, msg: impl Into<String>) -> ElabResult<T> {
        Err(ElabError::new(span, msg))
    }

    pub(crate) fn unify(&self, span: Span, a: &Ty, b: &Ty) -> ElabResult<()> {
        to_elab(unify(&self.reg, a, b), span)
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
            match &*recty.head() {
                Ty::Record(have) => {
                    for (lab, want) in fields {
                        match have.iter().find(|(l, _)| *l == lab) {
                            Some((_, t)) => self.unify(fspan, &want, t)?,
                            None => {
                                return self.err(
                                    fspan,
                                    format!("record type `{}` has no field `{lab}`", recty.zonk()),
                                )
                            }
                        }
                    }
                }
                other => {
                    return self.err(
                        fspan,
                        format!(
                            "unresolved flexible record (inferred `{}`); add a type annotation",
                            other.zonk()
                        ),
                    )
                }
            }
        }
        let mut keep = Vec::new();
        for (ty, class, ospan) in self.overloads.split_off(ov_mark) {
            match &*ty.head() {
                Ty::Var(v) => {
                    if final_boundary {
                        // Default to int.
                        self.unify(ospan, &ty, &Ty::int())?;
                    } else {
                        // Keep pending; prevent generalization by
                        // demoting the variable to the current level.
                        if let Tv::Unbound { level, .. } = &mut *v.0.borrow_mut() {
                            if *level > self.level {
                                *level = self.level;
                            }
                        }
                        keep.push((ty, class, ospan));
                    }
                }
                Ty::Con(c, _) if class.admits(c) => {}
                Ty::Record(fs) if fs.is_empty() && !final_boundary => {
                    // `unit` can appear transiently; treat as undetermined.
                    keep.push((ty, class, ospan));
                }
                other => {
                    return self.err(
                        ospan,
                        format!("overloaded operator used at type `{}`", other.zonk()),
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
            TyKind::Var(name) => {
                for scope in self.tyvar_scopes.iter().rev() {
                    if let Some(t) = scope.get(name) {
                        return Ok(t.clone());
                    }
                }
                let eq = name.as_str().starts_with("''");
                let t = Ty::Var(TvRef::fresh_eq(self.level, eq));
                self.tyvar_scopes
                    .last_mut()
                    .expect("scope stack is never empty")
                    .insert(*name, t.clone());
                Ok(t)
            }
            TyKind::Con(path, args) => {
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
                Ok(bind.apply(args))
            }
            TyKind::Tuple(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.elab_ty(env, p))
                    .collect::<ElabResult<Vec<_>>>()?;
                Ok(Ty::tuple(parts))
            }
            TyKind::Record(fields) => {
                let mut fs = Vec::new();
                for (lab, t) in fields {
                    if fs.iter().any(|(l, _)| l == lab) {
                        return self.err(ty.span, format!("duplicate record label `{lab}`"));
                    }
                    fs.push((*lab, self.elab_ty(env, t)?));
                }
                sml_types::sort_fields(&mut fs);
                Ok(Ty::Record(fs.into()))
            }
            TyKind::Arrow(a, b) => Ok(Ty::arrow(self.elab_ty(env, a)?, self.elab_ty(env, b)?)),
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
                ty: Ty::int(),
            }),
            ExpKind::Real(x) => Ok(TExp {
                kind: TExpKind::Real(*x),
                ty: Ty::real(),
            }),
            ExpKind::Str(s) => Ok(TExp {
                kind: TExpKind::Str(s.clone()),
                ty: Ty::string(),
            }),
            ExpKind::Char(c) => Ok(TExp {
                kind: TExpKind::Char(*c),
                ty: Ty::char(),
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
                let ty = Ty::Record(fields.iter().map(|(l, e)| (*l, e.ty.clone())).collect());
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
                fs.sort_by(|(a, _), (b, _)| sml_types::label_cmp(*a, *b));
                let ty = Ty::Record(fs.iter().map(|(l, e)| (*l, e.ty.clone())).collect());
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
                self.flex
                    .push((rec_ty.clone(), vec![(*lab, out_ty.clone())], span));
                let v = self.vars.fresh(Symbol::intern("selectee"), rec_ty.clone());
                let arg = TExp {
                    kind: TExpKind::Var {
                        access: Access::Var(v),
                        scheme: Scheme::mono(rec_ty.clone()),
                        inst: Vec::new(),
                    },
                    ty: rec_ty.clone(),
                };
                let body = TExp {
                    kind: TExpKind::Select {
                        label: *lab,
                        arg: Box::new(arg),
                    },
                    ty: out_ty.clone(),
                };
                let rule = TRule {
                    pat: TPat {
                        kind: TPatKind::Var(v),
                        ty: rec_ty.clone(),
                    },
                    exp: body,
                };
                Ok(TExp {
                    kind: TExpKind::Fn {
                        rules: vec![rule],
                        arg_ty: rec_ty.clone(),
                    },
                    ty: Ty::arrow(rec_ty, out_ty),
                })
            }
            ExpKind::List(elems) => {
                let elem_ty = self.fresh_ty();
                let mut texps = Vec::new();
                for e in elems {
                    let te = self.elab_exp(env, e)?;
                    self.unify(e.span, &te.ty, &elem_ty)?;
                    texps.push(te);
                }
                Ok(self.build_list(env, texps, elem_ty, span)?)
            }
            ExpKind::App(f, a) => {
                // `#lab e` selects directly.
                if let ExpKind::Selector(lab) = &f.kind {
                    let arg = self.elab_exp(env, a)?;
                    let out_ty = self.fresh_ty();
                    self.flex
                        .push((arg.ty.clone(), vec![(*lab, out_ty.clone())], span));
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
                self.unify(span, &tf.ty, &Ty::arrow(ta.ty.clone(), res.clone()))?;
                Ok(TExp {
                    kind: TExpKind::App(Box::new(tf), Box::new(ta)),
                    ty: res,
                })
            }
            ExpKind::Fn(rules) => {
                let arg_ty = self.fresh_ty();
                let res_ty = self.fresh_ty();
                let trules = self.elab_rules(env, rules, &arg_ty, &res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Fn {
                        rules: trules,
                        arg_ty: arg_ty.clone(),
                    },
                    ty: Ty::arrow(arg_ty, res_ty),
                })
            }
            ExpKind::Case(scrut, rules) => {
                let ts = self.elab_exp(env, scrut)?;
                let res_ty = self.fresh_ty();
                let arg_ty = ts.ty.clone();
                let trules = self.elab_rules(env, rules, &arg_ty, &res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Case(Box::new(ts), trules),
                    ty: res_ty,
                })
            }
            ExpKind::If(c, t, e) => {
                let tc = self.elab_exp(env, c)?;
                self.unify(c.span, &tc.ty, &Ty::bool())?;
                let tt = self.elab_exp(env, t)?;
                let te = self.elab_exp(env, e)?;
                self.unify(span, &tt.ty, &te.ty)?;
                let ty = tt.ty.clone();
                Ok(TExp {
                    kind: TExpKind::If(Box::new(tc), Box::new(tt), Box::new(te)),
                    ty,
                })
            }
            ExpKind::Andalso(a, b) => {
                let ta = self.elab_exp(env, a)?;
                let tb = self.elab_exp(env, b)?;
                self.unify(a.span, &ta.ty, &Ty::bool())?;
                self.unify(b.span, &tb.ty, &Ty::bool())?;
                let false_exp = self.bool_const(env, false);
                Ok(TExp {
                    kind: TExpKind::If(Box::new(ta), Box::new(tb), Box::new(false_exp)),
                    ty: Ty::bool(),
                })
            }
            ExpKind::Orelse(a, b) => {
                let ta = self.elab_exp(env, a)?;
                let tb = self.elab_exp(env, b)?;
                self.unify(a.span, &ta.ty, &Ty::bool())?;
                self.unify(b.span, &tb.ty, &Ty::bool())?;
                let true_exp = self.bool_const(env, true);
                Ok(TExp {
                    kind: TExpKind::If(Box::new(ta), Box::new(true_exp), Box::new(tb)),
                    ty: Ty::bool(),
                })
            }
            ExpKind::While(c, b) => {
                let tc = self.elab_exp(env, c)?;
                self.unify(c.span, &tc.ty, &Ty::bool())?;
                let tb = self.elab_exp(env, b)?;
                Ok(TExp {
                    kind: TExpKind::While(Box::new(tc), Box::new(tb)),
                    ty: Ty::unit(),
                })
            }
            ExpKind::Seq(exps) => {
                let texps = exps
                    .iter()
                    .map(|e| self.elab_exp(env, e))
                    .collect::<ElabResult<Vec<_>>>()?;
                let ty = texps.last().expect("non-empty sequence").ty.clone();
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
                let ty = tb.ty.clone();
                Ok(TExp {
                    kind: TExpKind::Let(tdecs, Box::new(tb)),
                    ty,
                })
            }
            ExpKind::Raise(e) => {
                let te = self.elab_exp(env, e)?;
                self.unify(e.span, &te.ty, &Ty::exn())?;
                Ok(TExp {
                    kind: TExpKind::Raise(Box::new(te)),
                    ty: self.fresh_ty(),
                })
            }
            ExpKind::Handle(e, rules) => {
                let te = self.elab_exp(env, e)?;
                let res_ty = te.ty.clone();
                let trules = self.elab_rules(env, rules, &Ty::exn(), &res_ty, span)?;
                Ok(TExp {
                    kind: TExpKind::Handle(Box::new(te), trules),
                    ty: res_ty,
                })
            }
            ExpKind::Constraint(e, ty) => {
                let te = self.elab_exp(env, e)?;
                let want = self.elab_ty(env, ty)?;
                self.unify(span, &te.ty, &want)?;
                Ok(te)
            }
        }
    }

    fn elab_var(&mut self, env: &Env, path: &ast::Path, span: Span) -> ElabResult<TExp> {
        match self.lookup_val(env, path, span)? {
            ValBind::Var { access, scheme } => {
                let (ty, inst) = scheme.instantiate(self.level);
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
                let (ty, inst) = con.scheme.instantiate(self.level);
                Ok(TExp {
                    kind: TExpKind::Con {
                        con: con.clone(),
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
                let (ty, inst) = scheme.instantiate(self.level);
                if let (Some(class), Some(first)) = (overload, inst.first()) {
                    self.overloads.push((first.clone(), *class, span));
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
                    con: c.clone(),
                    inst: Vec::new(),
                },
                ty: Ty::bool(),
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
            Some(ValBind::Con(c)) => c.clone(),
            _ => return self.err(span, "list constructor `::` is not in scope"),
        };
        let nil = match env.vals.get(&Symbol::intern("nil")) {
            Some(ValBind::Con(c)) => c.clone(),
            _ => return self.err(span, "list constructor `nil` is not in scope"),
        };
        let list_ty = Ty::list(elem_ty.clone());
        let mut acc = TExp {
            kind: TExpKind::Con {
                con: nil,
                inst: vec![elem_ty.clone()],
            },
            ty: list_ty.clone(),
        };
        for e in elems.into_iter().rev() {
            let pair_ty = Ty::pair(elem_ty.clone(), list_ty.clone());
            let pair = TExp {
                kind: TExpKind::Record(vec![(Symbol::numeric(1), e), (Symbol::numeric(2), acc)]),
                ty: pair_ty.clone(),
            };
            let conexp = TExp {
                kind: TExpKind::Con {
                    con: cons.clone(),
                    inst: vec![elem_ty.clone()],
                },
                ty: Ty::arrow(pair_ty, list_ty.clone()),
            };
            acc = TExp {
                kind: TExpKind::App(Box::new(conexp), Box::new(pair)),
                ty: list_ty.clone(),
            };
        }
        Ok(acc)
    }

    fn elab_rules(
        &mut self,
        env: &mut Env,
        rules: &[ast::Rule],
        arg_ty: &Ty,
        res_ty: &Ty,
        span: Span,
    ) -> ElabResult<Vec<TRule>> {
        let mut out = Vec::new();
        for rule in rules {
            let mut binds = Vec::new();
            let tpat = self.elab_pat(env, &rule.pat, &mut binds)?;
            self.unify(rule.pat.span, &tpat.ty, arg_ty)?;
            let texp = self.scoped(env, |me, inner| {
                bind_mono(inner, &binds);
                me.elab_exp(inner, &rule.exp)
            })?;
            self.unify(span, &texp.ty, res_ty)?;
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
                ty: Ty::int(),
            }),
            PatKind::Str(s) => Ok(TPat {
                kind: TPatKind::Str(s.clone()),
                ty: Ty::string(),
            }),
            PatKind::Char(c) => Ok(TPat {
                kind: TPatKind::Char(*c),
                ty: Ty::char(),
            }),
            PatKind::Var(path) => {
                // A name that resolves to a constructor is a constant
                // constructor pattern; otherwise it binds a variable.
                let con = if path.is_simple() {
                    match env.vals.get(&path.name) {
                        Some(ValBind::Con(c)) => Some(c.clone()),
                        _ => None,
                    }
                } else {
                    match self.lookup_val(env, path, span)? {
                        ValBind::Con(c) => Some(c.clone()),
                        _ => {
                            return self
                                .err(span, format!("`{path}` in pattern is not a constructor"))
                        }
                    }
                };
                match con {
                    Some(c) => {
                        if c.has_payload() {
                            return self
                                .err(span, format!("constructor `{path}` expects an argument"));
                        }
                        let (ty, inst) = c.scheme.instantiate(self.level);
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
                        let var = self.vars.fresh(path.name, ty.clone());
                        binds.push((path.name, var, ty.clone()));
                        Ok(TPat {
                            kind: TPatKind::Var(var),
                            ty,
                        })
                    }
                }
            }
            PatKind::Con(path, arg) => {
                let con = match self.lookup_val(env, path, span)? {
                    ValBind::Con(c) => c.clone(),
                    _ => {
                        return self.err(span, format!("`{path}` in pattern is not a constructor"))
                    }
                };
                if !con.has_payload() {
                    return self.err(
                        span,
                        format!("constant constructor `{path}` applied in pattern"),
                    );
                }
                let (conty, inst) = con.scheme.instantiate(self.level);
                let Ty::Arrow(payload_ty, result_ty) = conty else {
                    unreachable!("has_payload checked the arrow")
                };
                let targ = self.elab_pat(env, arg, binds)?;
                self.unify(span, &targ.ty, &payload_ty)?;
                Ok(TPat {
                    kind: TPatKind::Con {
                        con,
                        inst,
                        arg: Some(Box::new(targ)),
                    },
                    ty: Rc::unwrap_or_clone(result_ty),
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
                let ty = Ty::Record(fields.iter().map(|(l, p)| (*l, p.ty.clone())).collect());
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
                tf.sort_by(|(a, _), (b, _)| sml_types::label_cmp(*a, *b));
                if *flexible {
                    let ty = self.fresh_ty();
                    self.flex.push((
                        ty.clone(),
                        tf.iter().map(|(l, p)| (*l, p.ty.clone())).collect(),
                        span,
                    ));
                    Ok(TPat {
                        kind: TPatKind::Record {
                            fields: tf,
                            flexible: true,
                        },
                        ty,
                    })
                } else {
                    let ty = Ty::Record(tf.iter().map(|(l, p)| (*l, p.ty.clone())).collect());
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
                    Some(ValBind::Con(c)) => c.clone(),
                    _ => return self.err(span, "`::` is not in scope"),
                };
                let nil = match env.vals.get(&Symbol::intern("nil")) {
                    Some(ValBind::Con(c)) => c.clone(),
                    _ => return self.err(span, "`nil` is not in scope"),
                };
                let list_ty = Ty::list(elem_ty.clone());
                let mut acc = TPat {
                    kind: TPatKind::Con {
                        con: nil,
                        inst: vec![elem_ty.clone()],
                        arg: None,
                    },
                    ty: list_ty.clone(),
                };
                for p in parts.iter().rev() {
                    let tp = self.elab_pat(env, p, binds)?;
                    self.unify(p.span, &tp.ty, &elem_ty)?;
                    let pair = TPat {
                        kind: TPatKind::Record {
                            fields: vec![(Symbol::numeric(1), tp), (Symbol::numeric(2), acc)],
                            flexible: false,
                        },
                        ty: Ty::pair(elem_ty.clone(), list_ty.clone()),
                    };
                    acc = TPat {
                        kind: TPatKind::Con {
                            con: cons.clone(),
                            inst: vec![elem_ty.clone()],
                            arg: Some(Box::new(pair)),
                        },
                        ty: list_ty.clone(),
                    };
                }
                Ok(acc)
            }
            PatKind::As(name, inner) => {
                if binds.iter().any(|(n, _, _)| n == name) {
                    return self.err(span, format!("duplicate variable `{name}` in pattern"));
                }
                let tp = self.elab_pat(env, inner, binds)?;
                let var = self.vars.fresh(*name, tp.ty.clone());
                binds.push((*name, var, tp.ty.clone()));
                let ty = tp.ty.clone();
                Ok(TPat {
                    kind: TPatKind::As(var, Box::new(tp)),
                    ty,
                })
            }
            PatKind::Constraint(inner, ty) => {
                let tp = self.elab_pat(env, inner, binds)?;
                let want = self.elab_ty(env, ty)?;
                self.unify(span, &tp.ty, &want)?;
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
                    self.unify(span, &tpat.ty, &texp.ty)?;
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
                    let scheme = sml_types::generalize(&texp.ty, self.level);
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
                    demote(&texp.ty, self.level);
                    for (name, var, ty) in &binds {
                        demote(ty, self.level);
                        let bind = ValBind::Var {
                            access: Access::Var(*var),
                            scheme: Scheme::mono(ty.clone()),
                        };
                        env.vals.insert(*name, bind);
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
                        let var = me.vars.fresh(f.name, ty.clone());
                        inner.vals.insert(
                            f.name,
                            ValBind::Var {
                                access: Access::Var(var),
                                scheme: Scheme::mono(ty.clone()),
                            },
                        );
                        fvars.push(var);
                        ftys.push(ty);
                    }
                    funs.iter()
                        .zip(&ftys)
                        .map(|(f, fty)| me.elab_funbind(inner, f, fty, span))
                        .collect::<ElabResult<Vec<TExp>>>()
                });
                self.level -= 1;
                self.tyvar_scopes.pop();
                let bodies = bodies?;
                self.resolve_pending(ov_mark, flex_mark, span)?;

                let schemes = generalize_many(&ftys, self.level);
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
                if schemes.first().map_or(0, |s| s.arity) > 0 {
                    let identity = schemes[0].identity_instance();
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
                    env.vals.insert(name, ValBind::Con(ci));
                }
                Ok(())
            }
            ast::DecKind::Exception(binds) => {
                for b in binds {
                    let payload = match &b.ty {
                        Some(t) => Some(self.elab_ty(env, t)?),
                        None => None,
                    };
                    let var = self.vars.fresh(b.name, Ty::exn());
                    let (rep, scheme) = match &payload {
                        Some(p) => (
                            sml_types::ConRep::Exn,
                            Scheme::mono(Ty::arrow(p.clone(), Ty::exn())),
                        ),
                        None => (sml_types::ConRep::ExnConst, Scheme::mono(Ty::exn())),
                    };
                    let ci = ConInfo {
                        name: b.name,
                        dt_stamp: Tycon::exn().stamp,
                        index: 0,
                        span: usize::MAX,
                        rep,
                        scheme,
                        origin: None,
                        tag: Some(Access::Var(var)),
                    };
                    out.push(TDec::Exception { var, name: b.name });
                    env.vals.insert(b.name, ValBind::Con(ci));
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
                        ast: std::rc::Rc::new(b.def.clone()),
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
            scope.insert(*tv, Ty::Var(TvRef::fresh_eq(self.level + 1, eq)));
        }
        self.tyvar_scopes.push(scope);
    }

    /// Elaborates a `type` binding into a type function.
    pub(crate) fn elab_tyfun(
        &mut self,
        env: &Env,
        tyvars: &[Symbol],
        body: &ast::Ty,
    ) -> ElabResult<TyFun> {
        let mut scope = FxHashMap::default();
        let mut params = Vec::new();
        for tv in tyvars {
            let cell = TvRef::fresh(self.level);
            scope.insert(*tv, Ty::Var(cell.clone()));
            params.push(cell);
        }
        self.tyvar_scopes.push(scope);
        let t = self.elab_ty(env, body);
        self.tyvar_scopes.pop();
        let t = t?;
        for (i, cell) in params.iter().enumerate() {
            *cell.0.borrow_mut() = Tv::Gen(i as u32);
        }
        Ok(TyFun { params, body: t })
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
                scratch
                    .tycons
                    .insert(b.name, TyconBind::Tycon(tycon.clone()));
            }
            let mut batch = Vec::new();
            for (b, tycon) in binds.iter().zip(&tycons) {
                let mut scope = FxHashMap::default();
                let mut params = Vec::new();
                for tv in &b.tyvars {
                    let cell = TvRef::fresh(me.level);
                    scope.insert(*tv, Ty::Var(cell.clone()));
                    params.push(cell);
                }
                me.tyvar_scopes.push(scope);
                let mut cons = Vec::new();
                for (cname, cty) in &b.cons {
                    let payload = match cty {
                        Some(t) => Some(me.elab_ty(scratch, t)?),
                        None => None,
                    };
                    cons.push((*cname, payload));
                }
                me.tyvar_scopes.pop();
                for (i, cell) in params.iter().enumerate() {
                    *cell.0.borrow_mut() = Tv::Gen(i as u32);
                }
                batch.push((tycon.clone(), params, cons));
            }
            Ok(batch)
        })?;
        self.reg.register_batch(batch);
        // Phase 3: build constructor infos.
        let mut additions = DatatypeAdditions::default();
        for (b, tycon) in binds.iter().zip(&tycons) {
            additions
                .tycons
                .push((b.name, TyconBind::Tycon(tycon.clone())));
            let def = self
                .reg
                .datatype(tycon.stamp)
                .expect("just registered")
                .clone();
            for con in &def.cons {
                let args = def.params.iter().map(|c| Ty::Var(c.clone())).collect();
                let dt_ty = Ty::Con(tycon.clone(), args);
                let body = match &con.payload {
                    Some(p) => Ty::arrow(p.clone(), dt_ty),
                    None => dt_ty,
                };
                let scheme = Scheme {
                    arity: def.params.len(),
                    eq_flags: vec![false; def.params.len()],
                    cells: def.params.clone(),
                    body,
                };
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

    /// Elaborates one clausal function binding into a (possibly curried)
    /// `Fn` expression and unifies its type with `fty`.
    fn elab_funbind(
        &mut self,
        env: &mut Env,
        f: &ast::FunBind,
        fty: &Ty,
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
            for (p, at) in clause.pats.iter().zip(&arg_tys) {
                let tp = self.elab_pat(env, p, &mut binds)?;
                self.unify(p.span, &tp.ty, at)?;
                tpats.push(tp);
            }
            let body = self.scoped(env, |me, inner| {
                bind_mono(inner, &binds);
                me.elab_exp(inner, &clause.body)
            })?;
            if let Some(rt) = &clause.ret_ty {
                let want = self.elab_ty(env, rt)?;
                self.unify(span, &body.ty, &want)?;
            }
            self.unify(span, &body.ty, &res_ty)?;
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
                let ty = Ty::Record(fields.iter().map(|(l, p)| (*l, p.ty.clone())).collect());
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
                    arg_ty: arg_tys[0].clone(),
                },
                ty: Ty::arrow(arg_tys[0].clone(), res_ty.clone()),
            }
        } else {
            // fun f p1 p2 ... = e  becomes
            // fn v1 => fn v2 => ... => case (v1, ..., vn) of (p1, ..., pn) => e
            let params: Vec<VarId> = arg_tys
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    self.vars
                        .fresh(Symbol::intern(&format!("arg{i}")), t.clone())
                })
                .collect();
            let tuple_ty = Ty::tuple(arg_tys.clone());
            let tuple = TExp {
                kind: TExpKind::Record(
                    params
                        .iter()
                        .zip(&arg_tys)
                        .enumerate()
                        .map(|(i, (v, t))| {
                            (
                                Symbol::numeric(i + 1),
                                TExp {
                                    kind: TExpKind::Var {
                                        access: Access::Var(*v),
                                        scheme: Scheme::mono(t.clone()),
                                        inst: Vec::new(),
                                    },
                                    ty: t.clone(),
                                },
                            )
                        })
                        .collect(),
                ),
                ty: tuple_ty.clone(),
            };
            let mut body = TExp {
                kind: TExpKind::Case(Box::new(tuple), trules),
                ty: res_ty.clone(),
            };
            let mut ty = res_ty.clone();
            for (v, at) in params.iter().zip(&arg_tys).rev() {
                ty = Ty::arrow(at.clone(), ty);
                body = TExp {
                    kind: TExpKind::Fn {
                        rules: vec![TRule {
                            pat: TPat {
                                kind: TPatKind::Var(*v),
                                ty: at.clone(),
                            },
                            exp: body,
                        }],
                        arg_ty: at.clone(),
                    },
                    ty: ty.clone(),
                };
            }
            body
        };
        self.unify(span, &exp.ty, fty)?;
        Ok(exp)
    }
}

/// Tycon and constructor additions from a datatype declaration.
#[derive(Default)]
struct DatatypeAdditions {
    tycons: Vec<(Symbol, TyconBind)>,
    cons: Vec<(Symbol, ConInfo)>,
}

fn to_elab(r: UnifyResult, span: Span) -> ElabResult<()> {
    r.map_err(|e| ElabError::new(span, e.to_string()))
}

/// Lowers every unbound variable in `ty` deeper than `level` to `level`,
/// preventing generalization (value restriction).
fn demote(ty: &Ty, level: u32) {
    match &*ty.head() {
        Ty::Var(v) => {
            let mut cell = v.0.borrow_mut();
            if let Tv::Unbound { level: l, .. } = &mut *cell {
                if *l > level {
                    *l = level;
                }
            }
        }
        Ty::Con(_, args) => args.iter().for_each(|a| demote(a, level)),
        Ty::Record(fs) => fs.iter().for_each(|(_, a)| demote(a, level)),
        Ty::Arrow(a, b) => {
            demote(a, level);
            demote(b, level);
        }
    }
}

/// Binds each pattern variable of `binds` in `env` monomorphically.
fn bind_mono(env: &mut Env, binds: &[(Symbol, VarId, Ty)]) {
    for (name, var, ty) in binds {
        env.vals.insert(
            *name,
            ValBind::Var {
                access: Access::Var(*var),
                scheme: Scheme::mono(ty.clone()),
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
