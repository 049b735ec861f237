//! Translation of typed abstract syntax into the typed lambda language
//! (paper §4.3-4.4).
//!
//! All static semantic objects (types, signatures, structures, functors)
//! are translated into LTYs; coercions are inserted at each abstraction
//! and instantiation site marked by the front end. Under a non-type-based
//! configuration (`sml.nrp`/`sml.fag`), every type collapses to the
//! standard boxed representation and all coercions become identities.

use crate::coerce::{coerce_exp, CoerceStats, CoercionCache, VarGen};
use crate::lexp::{LVar, Lexp, Primop};
use crate::lty::{InternMode, Lty, LtyInterner, LtyKind};
use sml_elab::{
    Access, CompTy, ConInfo, Elaboration, Prim, StrTy, TDec, TExp, TExpKind, TStrExp, ThinItem,
    VarId,
};
use sml_types::{ConRep, Scheme, Tv, Ty, TyKind, TyStore, TyconKind};

/// Configuration of the lambda translation, distinguishing the paper's
/// compiler variants.
#[derive(Clone, Copy, Debug)]
pub struct LambdaConfig {
    /// Propagate type information (representation analysis); false for
    /// `sml.nrp`/`sml.fag`, which use standard boxed representations
    /// everywhere.
    pub type_based: bool,
    /// Represent `real` unboxed (`sml.ffb`/`sml.fp3`); when false, reals
    /// are boxed even under representation analysis (`sml.rep`/`sml.mtd`).
    pub unboxed_floats: bool,
    /// Memo-ize module-level coercions (paper §4.5).
    pub memo_coercions: bool,
    /// Hash-cons lambda types (paper §4.5); `Structural` reproduces the
    /// compile-time blowup ablation.
    pub intern_mode: InternMode,
}

impl Default for LambdaConfig {
    fn default() -> LambdaConfig {
        LambdaConfig {
            type_based: true,
            unboxed_floats: true,
            memo_coercions: true,
            intern_mode: InternMode::HashCons,
        }
    }
}

/// The result of translation.
#[derive(Debug)]
pub struct Translation {
    /// The whole program as one lambda expression (evaluates to unit).
    pub lexp: Lexp,
    /// The type interner (needed by the CPS back end).
    pub interner: LtyInterner,
    /// Coercion statistics.
    pub stats: CoerceStats,
    /// Number of lambda variables allocated.
    pub n_vars: u32,
    /// Match-compilation warnings (nonexhaustive matches/bindings,
    /// redundant rules).
    pub warnings: Vec<String>,
}

/// Translates an elaborated program into LEXP, interning its types in
/// a fresh [`LtyInterner`] that the [`Translation`] hands on to the
/// back end.
pub fn translate(elab: &Elaboration, cfg: &LambdaConfig) -> Translation {
    let mut tr = Translator {
        elab,
        tys: &elab.types,
        cfg: *cfg,
        ltc_memo: LtcMemo::new(&elab.types, cfg.intern_mode == InternMode::HashCons),
        interner: LtyInterner::new(cfg.intern_mode),
        vg: VarGen::new(),
        vmap: vec![NO_LVAR; elab.vars.len() + 1],
        cache: CoercionCache::new(cfg.memo_coercions),
        stats: CoerceStats::default(),
        warnings: Vec::new(),
    };
    let body = tr.tr_decs(&elab.decs, &mut |_| Lexp::unit());
    let lexp = {
        let cache = std::mem::take(&mut tr.cache);
        cache.emit(&mut tr.interner, &mut tr.vg, &mut tr.stats, body)
    };
    let n_vars = tr.vg.fresh();
    Translation {
        lexp,
        interner: tr.interner,
        stats: tr.stats,
        n_vars,
        warnings: tr.warnings,
    }
}

pub(crate) struct Translator<'a> {
    pub(crate) elab: &'a Elaboration,
    /// The elaboration's type store, which translation only reads.
    pub(crate) tys: &'a TyStore,
    pub(crate) cfg: LambdaConfig,
    ltc_memo: LtcMemo,
    pub(crate) interner: LtyInterner,
    pub(crate) vg: VarGen,
    /// Each Absyn variable's lambda variable, by `VarId`, or `NO_LVAR`
    /// before its first use; the last slot is [`Translator::pseudo_var`]'s.
    pub(crate) vmap: Vec<LVar>,
    pub(crate) cache: CoercionCache,
    pub(crate) stats: CoerceStats,
    pub(crate) warnings: Vec<String>,
}

impl Translator<'_> {
    /// The lambda variable for an Absyn variable.
    pub(crate) fn lv(&mut self, v: VarId) -> LVar {
        match self.vmap.get(v.0 as usize) {
            Some(&x) if x != NO_LVAR => x,
            _ => {
                let x = self.vg.fresh();
                self.map_var(v, x);
                x
            }
        }
    }

    /// Makes `x` the lambda variable of `v`.
    pub(crate) fn map_var(&mut self, v: VarId, x: LVar) {
        let at = v.0 as usize;
        if at >= self.vmap.len() {
            self.vmap.resize(at + 1, NO_LVAR);
        }
        self.vmap[at] = x;
    }

    /// The pseudo Absyn variable used for eta-expansion of special
    /// primitives: one past the real `VarTable` range.
    fn pseudo_var(&self) -> VarId {
        VarId(self.elab.vars.len() as u32)
    }

    pub(crate) fn coerce(&mut self, e: Lexp, from: Lty, to: Lty) -> Lexp {
        coerce_exp(
            &mut self.interner,
            &mut self.vg,
            &mut self.stats,
            e,
            from,
            to,
        )
    }

    fn module_coerce(&mut self, e: Lexp, from: Lty, to: Lty) -> Lexp {
        self.cache.module_coerce(
            &mut self.interner,
            &mut self.vg,
            &mut self.stats,
            e,
            from,
            to,
        )
    }

    // ----- type translation (paper Figure 6) -------------------------------

    /// Translates an ML type to an LTY.
    ///
    /// Translation links no type, so a type's LTY is remembered by its
    /// resolved handle for the whole translation, and within one type a
    /// shared node is translated once. A remembered answer counts the
    /// `intern` calls its first translation made as hits
    /// ([`LtyInterner::count_repeats`]): each would have repeated a kind
    /// already in the table, so [`crate::LtyStats`] read as for a tree
    /// walk. In [`InternMode::Structural`] nothing is remembered, so the
    /// ablation interns every node of the tree.
    pub(crate) fn ltc(&mut self, ty: Ty) -> Lty {
        let h = self.tys.head(ty);
        if let Some((lty, calls)) = self.ltc_memo.root(h) {
            self.interner.count_repeats(calls);
            return lty;
        }
        let calls_before = self.interner.intern_calls;
        self.ltc_memo.begin_type();
        let lty = if self.cfg.type_based {
            self.mark_con_vars(h, false);
            self.ltc_go(h)
        } else {
            self.ltc_untyped(h)
        };
        let calls = self.interner.intern_calls - calls_before;
        self.ltc_memo.set_root(h, lty, calls);
        lty
    }

    /// Marks type variables that appear anywhere under a (rigid or
    /// flexible) type constructor (paper Figure 6: such variables
    /// translate to `RBOXEDty` because datatype contents use standard
    /// representations).
    fn mark_con_vars(&mut self, ty: Ty, under_con: bool) {
        let h = self.tys.head(ty);
        if !self.ltc_memo.visit(h, under_con) {
            return;
        }
        match self.tys.kind(h) {
            TyKind::Var(v) => {
                if under_con {
                    self.ltc_memo.mark_var(self.tys.tv(v), v.index());
                }
            }
            TyKind::Con(_, args) => {
                for &a in args {
                    self.mark_con_vars(a, true);
                }
            }
            TyKind::Record(fs) => {
                for &(_, t) in fs {
                    self.mark_con_vars(t, under_con);
                }
            }
            TyKind::Arrow(a, b) => {
                self.mark_con_vars(a, under_con);
                self.mark_con_vars(b, under_con);
            }
        }
    }

    fn ltc_untyped(&mut self, ty: Ty) -> Lty {
        // Standard boxed representations: every value is one word; only
        // the arrow structure is preserved (functions take one boxed
        // argument and return one boxed result).
        self.ltc_node(ty, |me, h| match me.tys.kind(h) {
            TyKind::Arrow(a, b) => {
                let a = me.ltc_untyped(a);
                let b = me.ltc_untyped(b);
                let rb = me.interner.rboxed();
                let a = match me.interner.kind(a) {
                    LtyKind::Arrow(..) => a,
                    _ => rb,
                };
                me.interner.arrow(a, b)
            }
            _ => me.interner.rboxed(),
        })
    }

    fn ltc_go(&mut self, ty: Ty) -> Lty {
        self.ltc_node(ty, |me, h| match me.tys.kind(h) {
            TyKind::Var(v) => {
                if me.ltc_memo.is_marked(me.tys.tv(v), v.index()) {
                    me.interner.rboxed()
                } else {
                    me.interner.boxed()
                }
            }
            TyKind::Con(c, _) => match c.kind {
                TyconKind::Int | TyconKind::Char => me.interner.int(),
                TyconKind::Real => {
                    if me.cfg.unboxed_floats {
                        me.interner.real()
                    } else {
                        me.interner.rboxed()
                    }
                }
                TyconKind::Data if c.stamp == sml_types::Tycon::bool().stamp => me.interner.int(),
                TyconKind::String
                | TyconKind::Exn
                | TyconKind::Ref
                | TyconKind::Array
                | TyconKind::Cont
                | TyconKind::Data => me.interner.boxed(),
                TyconKind::Abstract => me.interner.rboxed(),
            },
            TyKind::Record(fs) => {
                if fs.is_empty() {
                    return me.interner.int();
                }
                let fields: Vec<Lty> = fs.iter().map(|&(_, t)| me.ltc_go(t)).collect();
                me.interner.record(fields)
            }
            TyKind::Arrow(a, b) => {
                let a = me.ltc_go(a);
                let b = me.ltc_go(b);
                me.interner.arrow(a, b)
            }
        })
    }

    /// `node`'s translation of `ty`'s head within the current type,
    /// taken from the memo if this type already translated it there.
    fn ltc_node(&mut self, ty: Ty, node: impl FnOnce(&mut Self, Ty) -> Lty) -> Lty {
        let h = self.tys.head(ty);
        if let Some((lty, calls)) = self.ltc_memo.node(h) {
            self.interner.count_repeats(calls);
            return lty;
        }
        let calls_before = self.interner.intern_calls;
        let lty = node(self, h);
        let calls = self.interner.intern_calls - calls_before;
        self.ltc_memo.set_node(h, lty, calls);
        lty
    }

    /// LTY of a variable as stored (its scheme body, generic variables
    /// translated by the marking rule).
    pub(crate) fn ltc_scheme(&mut self, s: &Scheme) -> Lty {
        self.ltc(s.body)
    }

    /// LTY of a structure type (`SRECORDty`).
    pub(crate) fn ltc_strty(&mut self, st: &StrTy) -> Lty {
        let fields: Vec<Lty> =
            st.0.iter()
                .map(|(_, c)| match c {
                    CompTy::Val(s) => self.ltc_scheme(s),
                    CompTy::Exn => self.interner.boxed(),
                    CompTy::Str(sub) => self.ltc_strty(sub),
                })
                .collect();
        self.interner.srecord(fields)
    }

    /// The representation LTY of a constructor's payload (origin scheme,
    /// generic variables recursively boxed — the Figure 2 convention).
    pub(crate) fn payload_rep(&mut self, con: &ConInfo) -> Lty {
        if con.tag.is_some() {
            // Exception payloads always use the standard one-word boxed
            // representation (they may cross abstraction boundaries).
            return self.interner.rboxed();
        }
        let full = self.ltc(con.rep_scheme().body);
        match *self.interner.kind(full) {
            LtyKind::Arrow(arg, _) => arg,
            _ => panic!("payload_rep of constant constructor"),
        }
    }

    // ----- declarations -----------------------------------------------------

    pub(crate) fn tr_decs(&mut self, decs: &[TDec], k: &mut dyn FnMut(&mut Self) -> Lexp) -> Lexp {
        match decs.split_first() {
            None => k(self),
            Some((d, rest)) => {
                let mut k2 = |me: &mut Self| me.tr_decs(rest, k);
                self.tr_dec(d, &mut k2)
            }
        }
    }

    fn tr_dec(&mut self, dec: &TDec, k: &mut dyn FnMut(&mut Self) -> Lexp) -> Lexp {
        match dec {
            TDec::Val { pat, exp } => {
                let e = self.tr_exp(exp);
                let elty = self.ltc(exp.ty);
                let v = self.vg.fresh();
                let bind_exn = self.elab.builtins.bind_exn;
                let fail = {
                    let tag = self.tr_access(&Access::Var(bind_exn));
                    // Result type of the failure is irrelevant; the match
                    // compiler patches it to the continuation's type.
                    tag
                };
                let body = self.compile_bind(v, elty, pat, fail, k);
                Lexp::Let(v, Box::new(e), Box::new(body))
            }
            TDec::PolyVal { var, exp } => {
                let e = self.tr_exp(exp);
                let v = self.lv(*var);
                Lexp::Let(v, Box::new(e), Box::new(k(self)))
            }
            TDec::Fun { vars, exps } => {
                let mut bindings = Vec::new();
                for (var, exp) in vars.iter().zip(exps) {
                    let v = self.lv(*var);
                    let scheme = self.elab.vars.scheme(*var).clone();
                    let lty = self.ltc_scheme(&scheme);
                    let e = self.tr_exp(exp);
                    // The body was translated at the (identical) zonked
                    // type; coerce defensively in case of representation
                    // drift between instance and scheme views.
                    let elty = self.ltc(exp.ty);
                    let e = self.coerce(e, elty, lty);
                    bindings.push((v, lty, e));
                }
                Lexp::Fix(bindings, Box::new(k(self)))
            }
            TDec::Exception { var, name } => {
                let v = self.lv(*var);
                Lexp::Let(
                    v,
                    Box::new(Lexp::Record(vec![Lexp::Str(name.as_str().to_owned())])),
                    Box::new(k(self)),
                )
            }
            TDec::Structure { var, def } => {
                let e = self.tr_strexp(def);
                let v = self.lv(*var);
                Lexp::Let(v, Box::new(e), Box::new(k(self)))
            }
            TDec::Functor {
                var,
                param,
                param_ty,
                result_ty,
                body,
            } => {
                let p = self.lv(*param);
                let plty = self.ltc_strty(param_ty);
                let b = self.tr_strexp(body);
                let blty = self.ltc_strty(result_ty);
                let v = self.lv(*var);
                Lexp::Let(
                    v,
                    Box::new(Lexp::Fn(p, plty, blty, Box::new(b))),
                    Box::new(k(self)),
                )
            }
        }
    }

    // ----- structure expressions ---------------------------------------------

    fn tr_strexp(&mut self, se: &TStrExp) -> Lexp {
        match se {
            TStrExp::Access(a) => self.tr_access(a),
            TStrExp::Struct { decs, exports } => {
                let exports = exports.clone();
                self.tr_decs(decs, &mut move |me: &mut Self| {
                    let fields: Vec<Lexp> = exports
                        .iter()
                        .map(|ex| match &ex.item {
                            sml_elab::ExportItem::Val { access, .. }
                            | sml_elab::ExportItem::Exn { access }
                            | sml_elab::ExportItem::Str { access, .. } => me.tr_access(access),
                        })
                        .collect();
                    Lexp::SRecord(fields)
                })
            }
            TStrExp::Thin { base, items, .. } => {
                let b = self.tr_strexp(base);
                let blty = self.strexp_lty(base);
                let v = self.vg.fresh();
                let rec = self.tr_thin_items(v, blty, items);
                Lexp::Let(v, Box::new(b), Box::new(rec))
            }
            TStrExp::FctApp { fct, arg, from, to } => {
                let f = self.tr_access(fct);
                let a = self.tr_strexp(arg);
                let app = Lexp::App(Box::new(f), Box::new(a));
                let from_lty = self.ltc_strty(from);
                let to_lty = self.ltc_strty(to);
                self.module_coerce(app, from_lty, to_lty)
            }
        }
    }

    /// The LTY of a structure expression (for thinning selects). For
    /// `Access` bases the exact SRECORD shape is unknown here, but every
    /// select from `BOXED` yields `RBOXED`, so the thinning coercions
    /// still apply correctly; `Struct`/`Thin`/`FctApp` shapes come from
    /// their `StrTy`.
    fn strexp_lty(&mut self, se: &TStrExp) -> Lty {
        match se {
            TStrExp::Thin { to, .. } | TStrExp::FctApp { to, .. } => self.ltc_strty(to),
            _ => self.interner.boxed(),
        }
    }

    fn tr_thin_items(&mut self, base: LVar, base_lty: Lty, items: &[ThinItem]) -> Lexp {
        let fields: Vec<Lexp> = items
            .iter()
            .map(|item| match item {
                ThinItem::Val { slot, from, to } => {
                    let sel = Lexp::Select(*slot, Box::new(Lexp::Var(base)));
                    let from_lty = self.slot_lty(base_lty, *slot, from);
                    let to_lty = self.ltc_scheme(to);
                    self.module_coerce(sel, from_lty, to_lty)
                }
                ThinItem::Exn { slot } => Lexp::Select(*slot, Box::new(Lexp::Var(base))),
                ThinItem::Str { slot, items, .. } => {
                    let v = self.vg.fresh();
                    let sub_lty = self.slot_lty_raw(base_lty, *slot);
                    let body = self.tr_thin_items(v, sub_lty, items);
                    Lexp::Let(
                        v,
                        Box::new(Lexp::Select(*slot, Box::new(Lexp::Var(base)))),
                        Box::new(body),
                    )
                }
            })
            .collect();
        Lexp::SRecord(fields)
    }

    fn slot_lty(&mut self, base: Lty, slot: usize, from: &Scheme) -> Lty {
        match self.interner.kind(base).clone() {
            LtyKind::SRecord(fs) if slot < fs.len() => fs[slot],
            _ => self.ltc_scheme(from),
        }
    }

    fn slot_lty_raw(&mut self, base: Lty, slot: usize) -> Lty {
        match self.interner.kind(base).clone() {
            LtyKind::SRecord(fs) if slot < fs.len() => fs[slot],
            _ => self.interner.boxed(),
        }
    }

    pub(crate) fn tr_access(&mut self, a: &Access) -> Lexp {
        match a {
            Access::Var(v) => Lexp::Var(self.lv(*v)),
            Access::Select(inner, i) => Lexp::Select(*i, Box::new(self.tr_access(inner))),
        }
    }

    // ----- expressions ----------------------------------------------------------

    pub(crate) fn tr_exp(&mut self, exp: &TExp) -> Lexp {
        match &exp.kind {
            TExpKind::Int(n) => Lexp::Int(*n),
            TExpKind::Char(c) => Lexp::Int(*c as i64),
            TExpKind::Real(x) => {
                let want = self.ltc(exp.ty);
                let real = self.interner.real();
                self.coerce(Lexp::Real(*x), real, want)
            }
            TExpKind::Str(s) => Lexp::Str(s.clone()),
            TExpKind::Var { access, scheme, .. } => {
                let e = self.tr_access(access);
                let from = self.ltc_scheme(scheme);
                let to = self.ltc(exp.ty);
                self.coerce(e, from, to)
            }
            TExpKind::Prim { prim, inst } => {
                // A primitive used as a value: eta-expand.
                self.eta_prim(*prim, inst, exp.ty)
            }
            TExpKind::Con { con, inst } => self.con_value(con, inst, exp.ty),
            TExpKind::Record(fields) => {
                if fields.is_empty() {
                    return Lexp::unit();
                }
                let es: Vec<Lexp> = fields.iter().map(|(_, e)| self.tr_exp(e)).collect();
                Lexp::Record(es)
            }
            TExpKind::Select { label, arg } => {
                let a = self.tr_exp(arg);
                let arg_lty = self.ltc(arg.ty);
                let TyKind::Record(fs) = self.tys.kind(arg.ty) else {
                    panic!("select from non-record type {}", self.tys.show(arg.ty))
                };
                let idx = fs
                    .iter()
                    .position(|(l, _)| l == label)
                    .expect("elaboration resolved the label");
                let sel = Lexp::Select(idx, Box::new(a));
                let field_lty = match self.interner.kind(arg_lty).clone() {
                    LtyKind::Record(fl) => fl[idx],
                    _ => self.interner.rboxed(),
                };
                let want = self.ltc(exp.ty);
                self.coerce(sel, field_lty, want)
            }
            TExpKind::App(f, a) => self.tr_app(f, a, exp.ty),
            TExpKind::Fn { rules, arg_ty } => {
                let p = self.vg.fresh();
                let plty = self.ltc(*arg_ty);
                let res_lty = self.ltc(rules[0].exp.ty);
                let match_tag = Access::Var(self.elab.builtins.match_exn);
                let fail_tag = self.tr_access(&match_tag);
                let body = self.compile_match(p, plty, rules, fail_tag, res_lty);
                Lexp::Fn(p, plty, res_lty, Box::new(body))
            }
            TExpKind::Case(scrut, rules) => {
                let s = self.tr_exp(scrut);
                let slty = self.ltc(scrut.ty);
                let v = self.vg.fresh();
                let res_lty = self.ltc(exp.ty);
                let match_tag = Access::Var(self.elab.builtins.match_exn);
                let fail_tag = self.tr_access(&match_tag);
                let body = self.compile_match(v, slty, rules, fail_tag, res_lty);
                Lexp::Let(v, Box::new(s), Box::new(body))
            }
            TExpKind::If(c, t, e) => {
                let c = self.tr_exp(c);
                let t = self.tr_exp(t);
                let e = self.tr_exp(e);
                Lexp::If(Box::new(c), Box::new(t), Box::new(e))
            }
            TExpKind::While(c, b) => {
                let loop_v = self.vg.fresh();
                let dummy = self.vg.fresh();
                let int = self.interner.int();
                let loop_ty = self.interner.arrow(int, int);
                let c = self.tr_exp(c);
                let b = self.tr_exp(b);
                let junk = self.vg.fresh();
                let again = Lexp::App(Box::new(Lexp::Var(loop_v)), Box::new(Lexp::Int(0)));
                let body = Lexp::If(
                    Box::new(c),
                    Box::new(Lexp::Let(junk, Box::new(b), Box::new(again))),
                    Box::new(Lexp::Int(0)),
                );
                Lexp::Fix(
                    vec![(loop_v, loop_ty, Lexp::Fn(dummy, int, int, Box::new(body)))],
                    Box::new(Lexp::App(
                        Box::new(Lexp::Var(loop_v)),
                        Box::new(Lexp::Int(0)),
                    )),
                )
            }
            TExpKind::Seq(es) => {
                let mut out = None;
                for e in es {
                    let t = self.tr_exp(e);
                    out = Some(match out {
                        None => t,
                        Some(prev) => {
                            let v = self.vg.fresh();
                            Lexp::Let(v, Box::new(prev), Box::new(t))
                        }
                    });
                }
                out.expect("non-empty sequence")
            }
            TExpKind::Let(decs, body) => self.tr_decs(decs, &mut |me: &mut Self| me.tr_exp(body)),
            TExpKind::Raise(e) => {
                let v = self.tr_exp(e);
                let lty = self.ltc(exp.ty);
                Lexp::Raise(Box::new(v), lty)
            }
            TExpKind::Handle(e, rules) => {
                let body = self.tr_exp(e);
                let x = self.vg.fresh();
                let boxed = self.interner.boxed();
                let res_lty = self.ltc(exp.ty);
                let hbody = self.compile_handler(x, rules, res_lty);
                Lexp::Handle(
                    Box::new(body),
                    Box::new(Lexp::Fn(x, boxed, res_lty, Box::new(hbody))),
                )
            }
        }
    }

    fn tr_app(&mut self, f: &TExp, a: &TExp, res_ty: Ty) -> Lexp {
        match &f.kind {
            TExpKind::Prim { prim, inst } => self.tr_prim_app(*prim, inst, a, res_ty),
            TExpKind::Con { con, inst } => {
                let arg = self.tr_exp(a);
                let arg_lty = self.ltc(a.ty);
                self.con_inject(con, inst, arg, arg_lty)
            }
            _ => {
                let tf = self.tr_exp(f);
                let ta = self.tr_exp(a);
                Lexp::App(Box::new(tf), Box::new(ta))
            }
        }
    }

    /// Constructor used as a value (not directly applied): eta-expand.
    fn con_value(&mut self, con: &ConInfo, inst: &[Ty], ty: Ty) -> Lexp {
        match con.rep {
            ConRep::Constant(n) => Lexp::Int(n as i64),
            ConRep::ExnConst => {
                let tag = con.tag.clone().expect("exception has a tag");
                self.tr_access(&tag)
            }
            _ => {
                // fn x => inject x
                let TyKind::Arrow(argt, _) = self.tys.kind(ty) else {
                    panic!("carrying constructor at non-arrow type")
                };
                let x = self.vg.fresh();
                let arg_lty = self.ltc(argt);
                let body = self.con_inject(con, inst, Lexp::Var(x), arg_lty);
                let boxed = self.interner.boxed();
                Lexp::Fn(x, arg_lty, boxed, Box::new(body))
            }
        }
    }

    /// Builds a constructor injection.
    pub(crate) fn con_inject(
        &mut self,
        con: &ConInfo,
        _inst: &[Ty],
        arg: Lexp,
        arg_lty: Lty,
    ) -> Lexp {
        match con.rep {
            ConRep::Constant(_) => unreachable!("constant constructors are not applied"),
            ConRep::Transparent => {
                // The paper's pointer WRAP: the payload record *is* the
                // value, viewed at the one-word datatype representation.
                // The explicit node keeps branch types consistent and
                // pairs with the UNWRAP at destruction sites (cancelled
                // by the optimizer).
                let rep = self.payload_rep(con);
                let payload = self.coerce(arg, arg_lty, rep);
                Lexp::Wrap(rep, Box::new(payload))
            }
            ConRep::Tagged(tag) => {
                let rep = self.payload_rep(con);
                let int = self.interner.int();
                let rec_lty = self.interner.record(vec![int, rep]);
                let payload = self.coerce(arg, arg_lty, rep);
                Lexp::Wrap(
                    rec_lty,
                    Box::new(Lexp::Record(vec![Lexp::Int(tag as i64), payload])),
                )
            }
            ConRep::Exn => {
                let taga = con.tag.clone().expect("exception has a tag");
                let tag = self.tr_access(&taga);
                let rb = self.interner.rboxed();
                let boxed = self.interner.boxed();
                let rec_lty = self.interner.record(vec![boxed, rb]);
                let payload = self.coerce(arg, arg_lty, rb);
                Lexp::Wrap(rec_lty, Box::new(Lexp::Record(vec![tag, payload])))
            }
            ConRep::ExnConst => unreachable!("constant exceptions are not applied"),
        }
    }

    // ----- primitives ------------------------------------------------------------

    /// Resolves an overloaded or polymorphic source primitive occurrence
    /// to a concrete [`Primop`] using its (post-MTD) instantiation.
    fn resolve_prim(&mut self, prim: Prim, inst: &[Ty]) -> ResolvedPrim {
        use Primop::*;
        let head = inst.first().map(|&t| self.tys.kind(t));
        let class = |t: &Option<TyKind>| -> OvHead {
            match t {
                Some(TyKind::Con(c, _)) => match c.kind {
                    TyconKind::Int | TyconKind::Char => OvHead::Int,
                    TyconKind::Real => OvHead::Real,
                    TyconKind::String => OvHead::Str,
                    TyconKind::Data if c.stamp == sml_types::Tycon::bool().stamp => OvHead::Int,
                    TyconKind::Data if c.stamp == sml_types::Tycon::order().stamp => OvHead::Int,
                    _ => OvHead::Other,
                },
                Some(TyKind::Record([])) => OvHead::Int,
                _ => OvHead::Other,
            }
        };
        let h = class(&head);
        match prim {
            Prim::OAdd => ResolvedPrim::Op(if h == OvHead::Real { FAdd } else { IAdd }),
            Prim::OSub => ResolvedPrim::Op(if h == OvHead::Real { FSub } else { ISub }),
            Prim::OMul => ResolvedPrim::Op(if h == OvHead::Real { FMul } else { IMul }),
            Prim::ONeg => ResolvedPrim::Op(if h == OvHead::Real { FNeg } else { INeg }),
            Prim::OLt => ResolvedPrim::Op(match h {
                OvHead::Real => FLt,
                OvHead::Str => StrLt,
                _ => ILt,
            }),
            Prim::OLe => ResolvedPrim::Op(match h {
                OvHead::Real => FLe,
                OvHead::Str => StrLe,
                _ => ILe,
            }),
            Prim::OGt => ResolvedPrim::Op(match h {
                OvHead::Real => FGt,
                OvHead::Str => StrGt,
                _ => IGt,
            }),
            Prim::OGe => ResolvedPrim::Op(match h {
                OvHead::Real => FGe,
                OvHead::Str => StrGe,
                _ => IGe,
            }),
            // Polymorphic equality specialization (paper §4.4): known
            // monomorphic instances become primitive comparisons.
            Prim::PolyEq => ResolvedPrim::Op(match h {
                OvHead::Int => IEq,
                OvHead::Real => FEq,
                OvHead::Str => StrEq,
                OvHead::Other => PolyEq,
            }),
            Prim::PolyNe => match h {
                OvHead::Int => ResolvedPrim::Op(INe),
                OvHead::Real => ResolvedPrim::Op(FNe),
                OvHead::Str => ResolvedPrim::Op(StrNe),
                OvHead::Other => ResolvedPrim::NegatedPolyEq,
            },
            Prim::IAdd => ResolvedPrim::Op(IAdd),
            Prim::ISub => ResolvedPrim::Op(ISub),
            Prim::IMul => ResolvedPrim::Op(IMul),
            Prim::IDiv => ResolvedPrim::CheckedDiv(IDiv),
            Prim::IMod => ResolvedPrim::CheckedDiv(IMod),
            Prim::INeg => ResolvedPrim::Op(INeg),
            Prim::ILt => ResolvedPrim::Op(ILt),
            Prim::ILe => ResolvedPrim::Op(ILe),
            Prim::IGt => ResolvedPrim::Op(IGt),
            Prim::IGe => ResolvedPrim::Op(IGe),
            Prim::IEq => ResolvedPrim::Op(IEq),
            Prim::INe => ResolvedPrim::Op(INe),
            Prim::FAdd => ResolvedPrim::Op(FAdd),
            Prim::FSub => ResolvedPrim::Op(FSub),
            Prim::FMul => ResolvedPrim::Op(FMul),
            Prim::FDiv => ResolvedPrim::Op(FDiv),
            Prim::FNeg => ResolvedPrim::Op(FNeg),
            Prim::FLt => ResolvedPrim::Op(FLt),
            Prim::FLe => ResolvedPrim::Op(FLe),
            Prim::FGt => ResolvedPrim::Op(FGt),
            Prim::FGe => ResolvedPrim::Op(FGe),
            Prim::FEq => ResolvedPrim::Op(FEq),
            Prim::FNe => ResolvedPrim::Op(FNe),
            Prim::FSqrt => ResolvedPrim::Op(FSqrt),
            Prim::FSin => ResolvedPrim::Op(FSin),
            Prim::FCos => ResolvedPrim::Op(FCos),
            Prim::FAtan => ResolvedPrim::Op(FAtan),
            Prim::FExp => ResolvedPrim::Op(FExp),
            Prim::FLn => ResolvedPrim::Op(FLn),
            Prim::Floor => ResolvedPrim::Op(Floor),
            Prim::IntToReal => ResolvedPrim::Op(IntToReal),
            Prim::StrSize => ResolvedPrim::Op(StrSize),
            Prim::StrSub => ResolvedPrim::CheckedStrSub,
            Prim::StrCat => ResolvedPrim::Op(StrCat),
            Prim::StrEq => ResolvedPrim::Op(StrEq),
            Prim::StrLt => ResolvedPrim::Op(StrLt),
            Prim::StrLe => ResolvedPrim::Op(StrLe),
            Prim::StrGt => ResolvedPrim::Op(StrGt),
            Prim::StrGe => ResolvedPrim::Op(StrGe),
            Prim::Ord => ResolvedPrim::Identity,
            Prim::Chr => ResolvedPrim::CheckedChr,
            Prim::IntToString => ResolvedPrim::Op(IntToString),
            Prim::RealToString => ResolvedPrim::Op(RealToString),
            Prim::MakeRef => ResolvedPrim::Op(MakeRef),
            Prim::Deref => ResolvedPrim::Op(Deref),
            Prim::Assign => {
                // Unboxed update (paper §4.4): assigning a value the
                // types prove to be a non-pointer skips the write
                // barrier.
                if self.cfg.type_based && class(&head) == OvHead::Int {
                    ResolvedPrim::Op(UnboxedAssign)
                } else {
                    ResolvedPrim::Op(Assign)
                }
            }
            Prim::ArrayMake => ResolvedPrim::CheckedArrayMake,
            Prim::ArraySub => ResolvedPrim::CheckedArraySub,
            Prim::ArrayUpdate => {
                if self.cfg.type_based && class(&head) == OvHead::Int {
                    ResolvedPrim::CheckedArrayUpdate(UnboxedArrayUpdate)
                } else {
                    ResolvedPrim::CheckedArrayUpdate(ArrayUpdate)
                }
            }
            Prim::ArrayLength => ResolvedPrim::Op(ArrayLength),
            Prim::Callcc => ResolvedPrim::Callcc,
            Prim::Throw => ResolvedPrim::Throw,
            Prim::Print => ResolvedPrim::Op(Print),
        }
    }

    /// Translates a saturated primitive application `prim a`.
    fn tr_prim_app(&mut self, prim: Prim, inst: &[Ty], a: &TExp, res_ty: Ty) -> Lexp {
        let resolved = self.resolve_prim(prim, inst);
        let want_res = self.ltc(res_ty);
        match resolved {
            ResolvedPrim::Identity => self.tr_exp(a),
            ResolvedPrim::Callcc => {
                let f = self.tr_exp(a);
                let flty = self.ltc(a.ty);
                let boxed = self.interner.boxed();
                let want_f = self.interner.arrow(boxed, boxed);
                let f = self.coerce(f, flty, want_f);
                let call = Lexp::PrimApp(Primop::Callcc, vec![f]);
                self.coerce(call, boxed, want_res)
            }
            ResolvedPrim::Throw => {
                // `throw k` yields a function of the thrown value;
                // eta-expand over it, coercing to the continuation's
                // standard (recursively boxed) value representation.
                let k = self.tr_exp(a);
                let klty = self.ltc(a.ty);
                let boxed = self.interner.boxed();
                let k = self.coerce(k, klty, boxed);
                let x = self.vg.fresh();
                let rb = self.interner.rboxed();
                let val_lty = match self.tys.kind(res_ty) {
                    TyKind::Arrow(vt, _) => self.ltc(vt),
                    _ => rb,
                };
                let kv = self.vg.fresh();
                let val = self.coerce(Lexp::Var(x), val_lty, rb);
                let body = Lexp::PrimApp(Primop::Throw, vec![Lexp::Var(kv), val]);
                Lexp::Let(
                    kv,
                    Box::new(k),
                    Box::new(Lexp::Fn(x, val_lty, rb, Box::new(body))),
                )
            }
            ResolvedPrim::NegatedPolyEq => {
                let e = self.prim_call(Primop::PolyEq, a);
                Lexp::If(Box::new(e), Box::new(Lexp::Int(0)), Box::new(Lexp::Int(1)))
            }
            ResolvedPrim::CheckedDiv(op) => {
                let (args, binding) = self.prim_args(a);
                let (x, y) = two(args);
                let yv = self.vg.fresh();
                let div_tag = self.exn_const(self.elab.builtins.div_exn);
                let check = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::IEq,
                        vec![Lexp::Var(yv), Lexp::Int(0)],
                    )),
                    Box::new(Lexp::Raise(Box::new(div_tag), want_res)),
                    Box::new(Lexp::PrimApp(op, vec![x, Lexp::Var(yv)])),
                );
                wrap_binding(binding, Lexp::Let(yv, Box::new(y), Box::new(check)))
            }
            ResolvedPrim::CheckedChr => {
                let arg = self.tr_exp(a);
                let v = self.vg.fresh();
                let chr_tag = self.exn_const(self.elab.builtins.chr_exn);
                let in_range = Lexp::If(
                    Box::new(Lexp::PrimApp(Primop::ILt, vec![Lexp::Var(v), Lexp::Int(0)])),
                    Box::new(Lexp::Int(0)),
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![Lexp::Var(v), Lexp::Int(256)],
                    )),
                );
                let body = Lexp::If(
                    Box::new(in_range),
                    Box::new(Lexp::Var(v)),
                    Box::new(Lexp::Raise(Box::new(chr_tag), want_res)),
                );
                Lexp::Let(v, Box::new(arg), Box::new(body))
            }
            ResolvedPrim::CheckedStrSub => {
                // Bounds check against the string size.
                let (args, binding) = self.prim_args(a);
                let (s, idx) = two(args);
                let sv = self.vg.fresh();
                let iv = self.vg.fresh();
                let sub_tag = self.exn_const(self.elab.builtins.subscript_exn);
                let ok = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![Lexp::Var(iv), Lexp::Int(0)],
                    )),
                    Box::new(Lexp::Int(0)),
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![
                            Lexp::Var(iv),
                            Lexp::PrimApp(Primop::StrSize, vec![Lexp::Var(sv)]),
                        ],
                    )),
                );
                let body = Lexp::If(
                    Box::new(ok),
                    Box::new(Lexp::PrimApp(
                        Primop::StrSub,
                        vec![Lexp::Var(sv), Lexp::Var(iv)],
                    )),
                    Box::new(Lexp::Raise(Box::new(sub_tag), want_res)),
                );
                wrap_binding(
                    binding,
                    Lexp::Let(
                        sv,
                        Box::new(s),
                        Box::new(Lexp::Let(iv, Box::new(idx), Box::new(body))),
                    ),
                )
            }
            ResolvedPrim::CheckedArrayMake => {
                let (args, binding) = self.prim_args(a);
                let (n, init) = two(args);
                let nv = self.vg.fresh();
                let size_tag = self.exn_const(self.elab.builtins.size_exn);
                let init_lty = self.arg_field_lty(a, 1);
                let rb = self.interner.rboxed();
                let init = self.coerce(init, init_lty, rb);
                let body = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![Lexp::Var(nv), Lexp::Int(0)],
                    )),
                    Box::new(Lexp::Raise(Box::new(size_tag), want_res)),
                    Box::new(Lexp::PrimApp(Primop::ArrayMake, vec![Lexp::Var(nv), init])),
                );
                wrap_binding(binding, Lexp::Let(nv, Box::new(n), Box::new(body)))
            }
            ResolvedPrim::CheckedArraySub => {
                let (args, binding) = self.prim_args(a);
                let (arr, idx) = two(args);
                let av = self.vg.fresh();
                let iv = self.vg.fresh();
                let sub_tag = self.exn_const(self.elab.builtins.subscript_exn);
                let ok = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![Lexp::Var(iv), Lexp::Int(0)],
                    )),
                    Box::new(Lexp::Int(0)),
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![
                            Lexp::Var(iv),
                            Lexp::PrimApp(Primop::ArrayLength, vec![Lexp::Var(av)]),
                        ],
                    )),
                );
                let rb = self.interner.rboxed();
                let fetch = Lexp::PrimApp(Primop::ArraySub, vec![Lexp::Var(av), Lexp::Var(iv)]);
                let fetch = self.coerce(fetch, rb, want_res);
                let body = Lexp::If(
                    Box::new(ok),
                    Box::new(fetch),
                    Box::new(Lexp::Raise(Box::new(sub_tag), want_res)),
                );
                wrap_binding(
                    binding,
                    Lexp::Let(
                        av,
                        Box::new(arr),
                        Box::new(Lexp::Let(iv, Box::new(idx), Box::new(body))),
                    ),
                )
            }
            ResolvedPrim::CheckedArrayUpdate(op) => {
                let (args, binding) = self.prim_args(a);
                let (arr, idx, val) = three(args);
                let av = self.vg.fresh();
                let iv = self.vg.fresh();
                let sub_tag = self.exn_const(self.elab.builtins.subscript_exn);
                let val_lty = self.arg_field_lty(a, 2);
                let rb = self.interner.rboxed();
                let val = self.coerce(val, val_lty, rb);
                let ok = Lexp::If(
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![Lexp::Var(iv), Lexp::Int(0)],
                    )),
                    Box::new(Lexp::Int(0)),
                    Box::new(Lexp::PrimApp(
                        Primop::ILt,
                        vec![
                            Lexp::Var(iv),
                            Lexp::PrimApp(Primop::ArrayLength, vec![Lexp::Var(av)]),
                        ],
                    )),
                );
                let body = Lexp::If(
                    Box::new(ok),
                    Box::new(Lexp::PrimApp(op, vec![Lexp::Var(av), Lexp::Var(iv), val])),
                    Box::new(Lexp::Raise(Box::new(sub_tag), want_res)),
                );
                wrap_binding(
                    binding,
                    Lexp::Let(
                        av,
                        Box::new(arr),
                        Box::new(Lexp::Let(iv, Box::new(idx), Box::new(body))),
                    ),
                )
            }
            ResolvedPrim::Op(op) => {
                let e = self.prim_call(op, a);
                let (_, res) = op.sig(&mut self.interner);
                self.coerce(e, res, want_res)
            }
        }
    }

    fn exn_const(&mut self, v: VarId) -> Lexp {
        self.tr_access(&Access::Var(v))
    }

    /// LTY of the `idx`th field of a tupled primitive argument.
    fn arg_field_lty(&mut self, a: &TExp, idx: usize) -> Lty {
        match self.tys.kind(a.ty) {
            TyKind::Record(fs) if idx < fs.len() => self.ltc(fs[idx].1),
            _ => self.interner.rboxed(),
        }
    }

    /// Builds a primitive call, coercing each argument to the primitive's
    /// expected representation.
    fn prim_call(&mut self, op: Primop, a: &TExp) -> Lexp {
        let (want, _) = op.sig(&mut self.interner);
        if want.len() == 1 {
            let arg = self.tr_exp(a);
            let from = self.ltc(a.ty);
            let arg = self.coerce(arg, from, want[0]);
            return Lexp::PrimApp(op, vec![arg]);
        }
        let (args, binding) = self.prim_args(a);
        let coerced: Vec<Lexp> = args
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let from = self.arg_field_lty(a, i);
                self.coerce(e, from, want[i])
            })
            .collect();
        wrap_binding(binding, Lexp::PrimApp(op, coerced))
    }

    /// Splits a tupled primitive argument into component expressions
    /// (directly when it is literally a tuple, via selects otherwise).
    /// The returned binding, if any, must wrap the expression that
    /// consumes the components (see [`wrap_binding`]).
    fn prim_args(&mut self, a: &TExp) -> (Vec<Lexp>, Option<(LVar, Lexp)>) {
        match (&a.kind, self.tys.kind(a.ty)) {
            (TExpKind::Record(fields), _) => {
                (fields.iter().map(|(_, e)| self.tr_exp(e)).collect(), None)
            }
            (_, TyKind::Record(fs)) => {
                let v = self.vg.fresh();
                let tup = self.tr_exp(a);
                let tup_lty = self.ltc(a.ty);
                let mut out = Vec::new();
                for (i, &(_, fty)) in fs.iter().enumerate() {
                    let sel = Lexp::Select(i, Box::new(Lexp::Var(v)));
                    let field_lty = match self.interner.kind(tup_lty).clone() {
                        LtyKind::Record(fl) => fl[i],
                        _ => self.interner.rboxed(),
                    };
                    let want = self.ltc(fty);
                    out.push(self.coerce(sel, field_lty, want));
                }
                (out, Some((v, tup)))
            }
            _ => panic!(
                "primitive applied to non-tuple of type {}",
                self.tys.show(a.ty)
            ),
        }
    }

    /// A primitive used as a first-class value: eta-expand to a function.
    fn eta_prim(&mut self, prim: Prim, inst: &[Ty], ty: Ty) -> Lexp {
        let TyKind::Arrow(argt, rest) = self.tys.kind(ty) else {
            panic!("primitive at non-arrow type")
        };
        let x = self.vg.fresh();
        let arg_lty = self.ltc(argt);
        let res_lty = self.ltc(rest);
        let body = self.eta_prim_body(prim, inst, Lexp::Var(x), argt, rest);
        Lexp::Fn(x, arg_lty, res_lty, Box::new(body))
    }

    /// The body of an eta-expanded primitive applied to `arg`, of type
    /// `arg_ty`.
    fn eta_prim_body(
        &mut self,
        prim: Prim,
        inst: &[Ty],
        arg: Lexp,
        arg_ty: Ty,
        res_ty: Ty,
    ) -> Lexp {
        let resolved = self.resolve_prim(prim, inst);
        let want_res = self.ltc(res_ty);
        match resolved {
            ResolvedPrim::Identity => arg,
            ResolvedPrim::Op(op) => {
                let (want, res) = op.sig(&mut self.interner);
                let call = if want.len() == 1 {
                    let from = self.ltc(arg_ty);
                    let a = self.coerce(arg, from, want[0]);
                    Lexp::PrimApp(op, vec![a])
                } else {
                    let v = self.vg.fresh();
                    let arg_lty = self.ltc(arg_ty);
                    let TyKind::Record(fs) = self.tys.kind(arg_ty) else {
                        panic!("tupled primitive at non-record type")
                    };
                    let mut args = Vec::new();
                    for (i, &(_, fty)) in fs.iter().enumerate() {
                        let sel = Lexp::Select(i, Box::new(Lexp::Var(v)));
                        let field_lty = match self.interner.kind(arg_lty).clone() {
                            LtyKind::Record(fl) => fl[i],
                            _ => self.interner.rboxed(),
                        };
                        // Translated for its interning only: the field is
                        // coerced to the primitive's own argument type.
                        self.ltc(fty);
                        args.push(self.coerce(sel, field_lty, want[i]));
                    }
                    Lexp::Let(v, Box::new(arg), Box::new(Lexp::PrimApp(op, args)))
                };
                self.coerce(call, res, want_res)
            }
            // The checked and special primitives bind the argument to a
            // variable and translate a saturated application of it: the
            // pseudo variable one past the `VarTable` range stands for it,
            // with a monomorphic scheme equal to its type, so the
            // variable's coercion is the identity.
            _ => {
                let v = self.vg.fresh();
                self.ltc(arg_ty);
                let fake = TExp {
                    kind: TExpKind::Var {
                        access: Access::Var(self.pseudo_var()),
                        scheme: Scheme::mono(arg_ty),
                        inst: Vec::new(),
                    },
                    ty: arg_ty,
                };
                self.map_var(self.pseudo_var(), v);
                let call = self.tr_prim_app(prim, inst, &fake, res_ty);
                Lexp::Let(v, Box::new(arg), Box::new(call))
            }
        }
    }
}

/// `Translator::vmap`'s entry for a variable not yet mapped.
const NO_LVAR: LVar = LVar::MAX;

#[derive(PartialEq, Eq, Clone, Copy)]
enum OvHead {
    Int,
    Real,
    Str,
    Other,
}

enum ResolvedPrim {
    Op(Primop),
    Identity,
    NegatedPolyEq,
    CheckedDiv(Primop),
    CheckedChr,
    CheckedStrSub,
    CheckedArrayMake,
    CheckedArraySub,
    CheckedArrayUpdate(Primop),
    Callcc,
    Throw,
}

/// `ltc`'s memo tables, dense by type handle: each resolved type's LTY
/// for the whole translation, and per translated type, the LTY of each
/// node and the variables found under a constructor. Every per-type
/// entry carries the epoch of the type it belongs to. An LTY is stored
/// as its handle plus one, so zero (a fresh, zeroed table) means none.
struct LtcMemo {
    /// False in [`InternMode::Structural`]: nothing is remembered.
    on: bool,
    root_lty: Vec<u32>,
    root_calls: Vec<u64>,
    epoch: u32,
    node_epoch: Vec<u32>,
    node_lty: Vec<u32>,
    node_calls: Vec<u64>,
    /// `mark_con_vars`' visits: `2 * epoch` for a node visited outside
    /// every constructor, `2 * epoch + 1` for one visited under one.
    visited: Vec<u32>,
    /// Unbound variables marked, by variable index.
    marked_vars: Vec<u32>,
    /// Generic variables marked, by generic index.
    marked_gens: Vec<u32>,
}

impl LtcMemo {
    fn new(tys: &TyStore, on: bool) -> LtcMemo {
        let n = tys.len();
        LtcMemo {
            on,
            root_lty: vec![0; if on { n } else { 0 }],
            root_calls: vec![0; if on { n } else { 0 }],
            epoch: 0,
            node_epoch: vec![0; n],
            node_lty: vec![0; n],
            node_calls: vec![0; n],
            visited: vec![0; n],
            marked_vars: vec![0; n],
            marked_gens: Vec::new(),
        }
    }

    /// The LTY of resolved type `h` and the `intern` calls it took.
    fn root(&self, h: Ty) -> Option<(Lty, u64)> {
        let l = *self.root_lty.get(h.index())?;
        (l != 0).then(|| (Lty(l - 1), self.root_calls[h.index()]))
    }

    fn set_root(&mut self, h: Ty, lty: Lty, calls: u64) {
        if self.on {
            self.root_lty[h.index()] = lty.0 + 1;
            self.root_calls[h.index()] = calls;
        }
    }

    /// Starts the translation of one type.
    fn begin_type(&mut self) {
        self.epoch += 1;
    }

    fn node(&self, h: Ty) -> Option<(Lty, u64)> {
        let i = h.index();
        (self.on && self.node_epoch[i] == self.epoch)
            .then(|| (Lty(self.node_lty[i] - 1), self.node_calls[i]))
    }

    fn set_node(&mut self, h: Ty, lty: Lty, calls: u64) {
        let i = h.index();
        self.node_epoch[i] = self.epoch;
        self.node_lty[i] = lty.0 + 1;
        self.node_calls[i] = calls;
    }

    /// Records a visit of node `h` by `mark_con_vars`; false if the
    /// current type already visited it as far under constructors.
    fn visit(&mut self, h: Ty, under_con: bool) -> bool {
        let want = 2 * self.epoch + u32::from(under_con);
        let seen = &mut self.visited[h.index()];
        if *seen >= want {
            return false;
        }
        *seen = want;
        true
    }

    /// Marks a variable in state `tv` (index `var`) as found under a
    /// constructor. Generic variables are marked by their index, so two
    /// generic variables of one index are marked together.
    fn mark_var(&mut self, tv: Tv, var: usize) {
        match tv {
            Tv::Unbound { .. } => self.marked_vars[var] = self.epoch,
            Tv::Gen(i) => {
                let i = i as usize;
                if i >= self.marked_gens.len() {
                    self.marked_gens.resize(i + 1, 0);
                }
                self.marked_gens[i] = self.epoch;
            }
            Tv::Link(_) => unreachable!("head resolves links"),
        }
    }

    /// Whether [`LtcMemo::mark_var`] marked the variable in the current
    /// type.
    fn is_marked(&self, tv: Tv, var: usize) -> bool {
        match tv {
            Tv::Unbound { .. } => self.marked_vars[var] == self.epoch,
            Tv::Gen(i) => self.marked_gens.get(i as usize) == Some(&self.epoch),
            Tv::Link(_) => unreachable!("head resolves links"),
        }
    }
}

/// Wraps `body` in the tuple binding returned by `prim_args`, if any.
fn wrap_binding(binding: Option<(LVar, Lexp)>, body: Lexp) -> Lexp {
    match binding {
        Some((v, tup)) => Lexp::Let(v, Box::new(tup), Box::new(body)),
        None => body,
    }
}

fn two(mut v: Vec<Lexp>) -> (Lexp, Lexp) {
    assert_eq!(v.len(), 2, "expected a pair");
    let b = v.pop().expect("two elements");
    let a = v.pop().expect("two elements");
    (a, b)
}

fn three(mut v: Vec<Lexp>) -> (Lexp, Lexp, Lexp) {
    assert_eq!(v.len(), 3, "expected a triple");
    let c = v.pop().expect("three elements");
    let b = v.pop().expect("three elements");
    let a = v.pop().expect("three elements");
    (a, b, c)
}
