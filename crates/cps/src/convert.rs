//! CPS conversion (paper §5.1).
//!
//! Converts LEXP into CPS, making all control flow explicit. This phase
//! decides record layouts (raw floats segregated before word fields,
//! paper Figure 1c) and argument-passing conventions: under the
//! type-based configurations, a function whose argument LTY is a record
//! of at most ten fields takes its components in registers (multi-
//! argument CPS functions), and float components travel in float
//! registers; under `sml.fag`, only *known* functions (all call sites
//! visible) are flattened; under `sml.nrp` every function takes one boxed
//! argument.

use crate::cps::*;
use crate::varmap::{set, VarMap};
use sml_lambda::{LVar, Lexp, Lty, LtyInterner, LtyKind, Primop};
use std::collections::VecDeque;

/// Argument/result flattening policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpreadMode {
    /// One boxed argument, one boxed result (`sml.nrp`).
    None,
    /// Flatten arguments of known functions only (`sml.fag`, after
    /// Kranz).
    KnownOnly,
    /// Flatten by type for all functions, including escaping ones
    /// (`sml.rep` and up).
    ByType,
}

/// CPS back-end configuration.
#[derive(Clone, Copy, Debug)]
pub struct CpsConfig {
    /// Flattening policy.
    pub spread: SpreadMode,
    /// Maximum number of spread arguments (the paper uses 10 on
    /// 32-register machines).
    pub max_spread: usize,
    /// Three floating-point callee-save registers (`sml.fp3`); affects
    /// closure conversion and the cost model.
    pub fp_callee_save: bool,
}

impl Default for CpsConfig {
    fn default() -> CpsConfig {
        CpsConfig {
            spread: SpreadMode::ByType,
            max_spread: 10,
            fp_callee_save: false,
        }
    }
}

/// A CPS program before closure conversion.
#[derive(Debug)]
pub struct CpsProgram {
    /// The body (contains nested `Fix`s).
    pub body: Cexp,
    /// First CPS variable id not in use.
    pub next_var: u32,
}

/// Converts a translated program into CPS.
pub fn convert(
    lexp: &Lexp,
    interner: &mut LtyInterner,
    first_var: u32,
    cfg: &CpsConfig,
) -> CpsProgram {
    // LEXP variables are below `first_var`; CPS ones count up from it.
    let (facts, known_arity) = analyze(lexp, first_var as usize, cfg);
    let mut conv = Conv {
        i: interner,
        cfg: *cfg,
        next: first_var,
        env: vec![None; first_var as usize],
        subst: VarMap::default(),
        facts,
        known_arity,
    };
    let body = conv.cexp(lexp, K::Done);
    CpsProgram {
        body,
        next_var: conv.next,
    }
}

/// `Conv::facts` bit: a `Fix` binds the variable.
const FIX_BOUND: u8 = 1;
/// `Conv::facts` bit: the variable occurs other than as a call head.
const ESCAPES: u8 = 2;
/// `known_arity`'s entry for a function no call of which was seen.
const ARITY_UNSEEN: u32 = 0;
/// `known_arity`'s entry for a function not to flatten.
const NOT_FLAT: u32 = u32::MAX;

/// One walk over the program, returning per variable its `FIX_BOUND` and
/// `ESCAPES` bits and, under `sml.fag`, the arity the function's call
/// sites agree on. A function is *known* (eligible for `sml.fag`
/// flattening) when `Fix` binds it and every occurrence is a direct call
/// head. Kranz flattens a known function when every call passes a
/// literal record of one arity — a purely syntactic analysis: the arity
/// is `NOT_FLAT` when the sites disagree or pass something else, and
/// `ARITY_UNSEEN` when no call was seen (empty under other variants).
fn analyze(e: &Lexp, n_vars: usize, cfg: &CpsConfig) -> (Vec<u8>, Vec<u32>) {
    let mut facts = vec![0; n_vars];
    let mut arity = Vec::new();
    if cfg.spread == SpreadMode::KnownOnly {
        arity = vec![ARITY_UNSEEN; n_vars];
    }
    let mut mark = |v: LVar, bit: u8| {
        if let Some(f) = facts.get_mut(v as usize) {
            *f |= bit;
        }
    };
    let mut todo = vec![e];
    while let Some(e) = todo.pop() {
        match e {
            Lexp::Var(v) => mark(*v, ESCAPES),
            Lexp::Fix(fs, _) => fs.iter().for_each(|(v, ..)| mark(*v, FIX_BOUND)),
            Lexp::App(f, a) => {
                if let Lexp::Var(v) = **f {
                    // The head survives as known; the argument escapes.
                    if let Some(seen) = arity.get_mut(v as usize) {
                        let n = match &**a {
                            Lexp::Record(es) if !es.is_empty() && es.len() <= cfg.max_spread => {
                                es.len() as u32
                            }
                            _ => NOT_FLAT,
                        };
                        *seen = if *seen == ARITY_UNSEEN || *seen == n {
                            n
                        } else {
                            NOT_FLAT
                        };
                    }
                    todo.push(a);
                    continue;
                }
            }
            _ => {}
        }
        todo.extend(e.children());
    }
    (facts, arity)
}

/// A boxed consumer of one converted value and its LTY.
type Consumer<'a> = Box<dyn FnOnce(&mut Conv<'_>, Value, Lty) -> Cexp + 'a>;
/// A boxed consumer of several converted values and their LTYs.
type MultiConsumer<'a> = Box<dyn FnOnce(&mut Conv<'_>, Vec<Value>, Vec<Lty>) -> Cexp + 'a>;

/// The meta-continuation of conversion. It borrows the input program,
/// which stays in place for the whole conversion.
enum K<'a> {
    /// Apply this consumer to the produced value and its LTY.
    Fn(Consumer<'a>),
    /// Return to a continuation variable expecting results laid out per
    /// the given LTY.
    Ret(CVar, Lty),
    /// Program exit.
    Done,
}

struct Conv<'i> {
    i: &'i mut LtyInterner,
    cfg: CpsConfig,
    next: u32,
    /// The LTY each LEXP variable was bound at.
    env: Vec<Option<Lty>>,
    /// Values substituted for let-bound variables.
    subst: VarMap<Value>,
    /// `FIX_BOUND` and `ESCAPES` bits by LEXP variable (see [`analyze`]).
    facts: Vec<u8>,
    /// The arity known functions are flattened to under `sml.fag` (see
    /// [`analyze`]).
    known_arity: Vec<u32>,
}

impl Conv<'_> {
    fn fresh(&mut self) -> CVar {
        let v = self.next;
        self.next += 1;
        v
    }

    fn value_of(&self, v: LVar) -> Value {
        self.subst.get(v).cloned().unwrap_or(Value::Var(v))
    }

    /// The LTY `v` was bound at, if known.
    fn var_lty(&self, v: LVar) -> Option<Lty> {
        self.env.get(v as usize).copied().flatten()
    }

    fn bind_lty(&mut self, v: LVar, t: Lty) {
        set(&mut self.env, v, Some(t), None);
    }

    fn is_known(&self, v: LVar) -> bool {
        self.facts.get(v as usize) == Some(&FIX_BOUND)
    }

    fn cty(&self, t: Lty) -> Cty {
        cty_of_lty(self.i, t)
    }

    fn is_bottom(&self, t: Lty) -> bool {
        matches!(self.i.kind(t), LtyKind::Bottom)
    }

    // ----- join-point types ------------------------------------------------------

    /// The LTY of `e`, derived before `e` is converted. Conversion hands
    /// every value to its consumer with its LTY, so only a join point
    /// needs this: a non-tail `If` or `SwitchInt`, and a `Handle`, whose
    /// continuation is built before the arms that return to it.
    fn lty_of(&mut self, e: &Lexp) -> Lty {
        match e {
            Lexp::Var(v) => self.var_lty(*v).unwrap_or_else(|| self.i.boxed()),
            Lexp::Int(_) => self.i.int(),
            Lexp::Real(_) => self.i.real(),
            Lexp::Str(_) => self.i.boxed(),
            Lexp::Fn(_, t, r, _) => self.i.arrow(*t, *r),
            Lexp::App(f, _) => {
                let ft = self.lty_of(f);
                match *self.i.kind(ft) {
                    LtyKind::Arrow(_, r) => r,
                    _ => self.i.rboxed(),
                }
            }
            Lexp::Fix(fs, b) => {
                for (v, t, _) in fs {
                    self.bind_lty(*v, *t);
                }
                self.lty_of(b)
            }
            Lexp::Let(v, a, b) => {
                let at = self.lty_of(a);
                self.bind_lty(*v, at);
                self.lty_of(b)
            }
            Lexp::Record(es) => {
                let ts: Vec<Lty> = es.iter().map(|e| self.lty_of(e)).collect();
                self.i.record(ts)
            }
            Lexp::SRecord(es) => {
                let ts: Vec<Lty> = es.iter().map(|e| self.lty_of(e)).collect();
                self.i.srecord(ts)
            }
            Lexp::Select(idx, e) => {
                let t = self.lty_of(e);
                self.field_lty(t, *idx)
            }
            Lexp::PrimApp(op, _) => match op {
                Primop::Callcc => self.i.boxed(),
                Primop::Throw => self.i.rboxed(),
                _ => op.sig(self.i).1,
            },
            Lexp::If(_, t, f) => self.join_lty([&**t, &**f]),
            Lexp::SwitchInt(_, arms, d) => {
                self.join_lty(arms.iter().map(|(_, a)| a).chain(d.as_deref()))
            }
            Lexp::Wrap(..) => self.i.boxed(),
            Lexp::Unwrap(t, _) => *t,
            Lexp::Raise(_, t) => *t,
            Lexp::Handle(e, _) => self.lty_of(e),
        }
    }

    /// The LTY of a join of `arms`: the first that returns, or bottom
    /// when none does.
    fn join_lty<'e>(&mut self, arms: impl IntoIterator<Item = &'e Lexp>) -> Lty {
        for e in arms {
            let t = self.lty_of(e);
            if !self.is_bottom(t) {
                return t;
            }
        }
        self.i.bottom()
    }

    /// The LTY of field `idx` of a record of LTY `t`: standard boxed
    /// when `t` does not say.
    fn field_lty(&self, t: Lty, idx: usize) -> Lty {
        let field = match self.i.kind(t) {
            LtyKind::Record(fs) | LtyKind::SRecord(fs) => fs.get(idx).copied(),
            LtyKind::PRecord(fs) => fs.iter().find(|(s, _)| *s == idx).map(|(_, t)| *t),
            _ => None,
        };
        field.unwrap_or_else(|| self.i.rboxed())
    }

    // ----- layouts --------------------------------------------------------------

    /// The flattened components of an argument (or result) LTY, if the
    /// configuration spreads it. `fnvar` is the function being defined or
    /// called, for the syntactic `sml.fag` analysis.
    fn spread_of(&self, t: Lty, fnvar: Option<LVar>) -> Option<Vec<Lty>> {
        match self.cfg.spread {
            SpreadMode::None => None,
            SpreadMode::KnownOnly => {
                // Kranz: purely syntactic; every component is a standard
                // one-word value.
                let v = fnvar?;
                match self.known_arity.get(v as usize) {
                    Some(&n) if n != ARITY_UNSEEN && n != NOT_FLAT => {
                        Some(vec![self.i.rboxed(); n as usize])
                    }
                    _ => None,
                }
            }
            SpreadMode::ByType => self.record_fields(t).map(<[Lty]>::to_vec),
        }
    }

    /// Result-value spreading: only under fully type-based conventions
    /// (escaping callers must agree by type).
    fn ret_spread_of(&self, t: Lty) -> Option<&[Lty]> {
        if self.cfg.spread != SpreadMode::ByType {
            return None;
        }
        self.record_fields(t)
    }

    /// The fields of `t` if it is a record small enough to spread.
    fn record_fields(&self, t: Lty) -> Option<&[Lty]> {
        match self.i.kind(t) {
            LtyKind::Record(fs) if !fs.is_empty() && fs.len() <= self.cfg.max_spread => Some(fs),
            _ => None,
        }
    }

    /// Physical record layout: scanned one-word fields first, raw float
    /// fields (two words each) after; the object descriptor records both
    /// lengths (the information content of paper Figure 1c, with the
    /// scanned part leading so code pointers of closures sit at offset
    /// 0).
    fn layout_fields(&self, vals: Vec<Value>, ltys: &[Lty]) -> (Vec<(Value, Cty)>, usize) {
        let mut floats = Vec::new();
        let mut words = Vec::new();
        for (v, t) in vals.into_iter().zip(ltys) {
            let c = self.cty(*t);
            if c == Cty::Flt {
                floats.push((v, c));
            } else {
                words.push((v, c));
            }
        }
        let nflt = floats.len();
        words.extend(floats);
        (words, nflt)
    }

    /// Physical offset of logical field `idx` within a record of the
    /// given field LTYs: `(word_offset, is_float, cty)`.
    fn field_offset(&self, fields: &[Lty], idx: usize) -> (usize, bool, Cty) {
        let is_flt = |t: &&Lty| self.cty(**t) == Cty::Flt;
        let cty = self.cty(fields[idx]);
        if cty == Cty::Flt {
            let nwords = fields.len() - fields.iter().filter(is_flt).count();
            let pos = fields[..idx].iter().filter(is_flt).count();
            (nwords + 2 * pos, true, Cty::Flt)
        } else {
            let pos = idx - fields[..idx].iter().filter(is_flt).count();
            (pos, false, cty)
        }
    }

    /// Where field `idx` of a record of LTY `t` lives, and its LTY:
    /// `(word_offset, is_float, cty, lty)`.
    fn field_at(&self, t: Lty, idx: usize) -> (usize, bool, Cty, Lty) {
        let lty = self.field_lty(t, idx);
        let (word_off, flt, cty) = match self.i.kind(t) {
            LtyKind::Record(fs) | LtyKind::SRecord(fs) => self.field_offset(fs, idx),
            LtyKind::PRecord(_) => (idx, false, self.cty(lty)),
            // Standard layout: all one-word fields.
            _ => (idx, false, Cty::Ptr(None)),
        };
        (word_off, flt, cty, lty)
    }

    /// Fresh parameters for the components of a spread value.
    fn spread_params(&mut self, fields: &[Lty]) -> Vec<(CVar, Cty)> {
        fields
            .iter()
            .map(|t| (self.fresh(), self.cty(*t)))
            .collect()
    }

    /// The record `dst` that rebuilds a spread value from its parameters
    /// (the optimizer removes it when only selections follow).
    fn rebuild(&self, params: &[(CVar, Cty)], fields: &[Lty], dst: CVar) -> Bind {
        let vals = params.iter().map(|(x, _)| Value::Var(*x)).collect();
        let (fields, nflt) = self.layout_fields(vals, fields);
        Bind::Record { fields, nflt, dst }
    }

    // ----- conversion -------------------------------------------------------------

    fn apply_k(&mut self, k: K<'_>, v: Value, lty: Lty) -> Cexp {
        match k {
            K::Fn(f) => f(self, v, lty),
            K::Ret(kvar, want_lty) => self.ret_to(kvar, want_lty, v),
            K::Done => Exit::Halt { v }.into(),
        }
    }

    /// Returns `v` to continuation `kvar`, spreading per `res_lty`.
    fn ret_to(&mut self, kvar: CVar, res_lty: Lty, v: Value) -> Cexp {
        let Some(fields) = self.ret_spread_of(res_lty).map(<[Lty]>::to_vec) else {
            return Exit::App {
                f: Value::Var(kvar),
                args: vec![v],
            }
            .into();
        };
        // Select each component and pass them spread.
        let selects = self.spread_selects(&v, &fields);
        let args = selects.iter().filter_map(Bind::binder);
        let exit = Exit::App {
            f: Value::Var(kvar),
            args: args.map(|(x, _)| Value::Var(x)).collect(),
        };
        Cexp::new(selects, exit)
    }

    /// One `Select` per component of a record of the given field LTYs,
    /// each into a fresh variable.
    fn spread_selects(&mut self, rec: &Value, fields: &[Lty]) -> VecDeque<Bind> {
        (0..fields.len())
            .map(|idx| {
                let (word_off, flt, cty) = self.field_offset(fields, idx);
                Bind::Select {
                    rec: rec.clone(),
                    word_off,
                    flt,
                    dst: self.fresh(),
                    cty,
                }
            })
            .collect()
    }

    /// The parameters of a join continuation receiving a value of LTY
    /// `rlty`, and its body: `k` applied to that value.
    fn join_body(&mut self, rlty: Lty, k: K<'_>) -> (Vec<(CVar, Cty)>, Cexp) {
        match self.ret_spread_of(rlty).map(<[Lty]>::to_vec) {
            None => {
                let x = self.fresh();
                let cty = self.cty(rlty);
                let body = self.apply_k(k, Value::Var(x), rlty);
                (vec![(x, cty)], body)
            }
            Some(fields) => {
                // Receive components, rebuild the logical record.
                let params = self.spread_params(&fields);
                let dst = self.fresh();
                let record = self.rebuild(&params, &fields, dst);
                let body = self.apply_k(k, Value::Var(dst), rlty);
                (params, Cexp::bind(record, body))
            }
        }
    }

    /// Builds the join continuation for a call with result type `rlty`;
    /// returns (cont var, Fix wrapper builder).
    fn make_join(&mut self, rlty: Lty, k: K<'_>) -> (CVar, Vec<FunDef>) {
        let kvar = self.fresh();
        let (params, body) = self.join_body(rlty, k);
        let fun = FunDef {
            kind: FunKind::Cont,
            name: kvar,
            params,
            body,
        };
        (kvar, vec![fun])
    }

    /// Converts `e`, delivering its value to `k`.
    fn cexp<'a>(&mut self, e: &'a Lexp, k: K<'a>) -> Cexp {
        match e {
            Lexp::Var(v) => {
                let t = self.var_lty(*v).unwrap_or_else(|| self.i.boxed());
                let val = self.value_of(*v);
                self.apply_k(k, val, t)
            }
            Lexp::Int(n) => {
                let int = self.i.int();
                self.apply_k(k, Value::Int(*n), int)
            }
            Lexp::Real(x) => {
                let real = self.i.real();
                self.apply_k(k, Value::Real(*x), real)
            }
            Lexp::Str(s) => {
                let b = self.i.boxed();
                self.apply_k(k, Value::Str(s.clone()), b)
            }
            Lexp::Fn(v, t, r, body) => {
                let name = self.fresh();
                let arrow = self.i.arrow(*t, *r);
                let def = self.convert_fn(name, FunKind::Escape, *v, *t, *r, body, None);
                let rest = self.apply_k(k, Value::Var(name), arrow);
                Cexp::bind(Bind::Fix { funs: vec![def] }, rest)
            }
            Lexp::Fix(funs, body) => {
                let mut defs = Vec::new();
                for (v, t, _) in funs {
                    self.bind_lty(*v, *t);
                }
                for (v, _, f) in funs {
                    let Lexp::Fn(p, pt, pr, fb) = f else {
                        panic!("fix binding is not a function")
                    };
                    let known = self.is_known(*v);
                    let kind = if known {
                        FunKind::Known
                    } else {
                        FunKind::Escape
                    };
                    let fnvar = if known { Some(*v) } else { None };
                    let def = self.convert_fn(*v, kind, *p, *pt, *pr, fb, fnvar);
                    defs.push(def);
                }
                let rest = self.cexp(body, k);
                Cexp::bind(Bind::Fix { funs: defs }, rest)
            }
            Lexp::Let(v, a, b) => {
                // No CPS code for the binding itself: convert `a`, alias
                // `v` to the produced value.
                self.cexp(
                    a,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, va: Value, at: Lty| {
                        me.bind_lty(*v, at);
                        me.subst.insert(*v, va);
                        me.cexp(b, k)
                    })),
                )
            }
            Lexp::Record(es) | Lexp::SRecord(es) => {
                let is_module = matches!(e, Lexp::SRecord(_));
                self.cexps(
                    es,
                    Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>, ltys: Vec<Lty>| {
                        let (fields, nflt) = me.layout_fields(vals, &ltys);
                        let rec_lty = if is_module {
                            me.i.srecord(ltys)
                        } else {
                            me.i.record(ltys)
                        };
                        let dst = me.fresh();
                        let rest = me.apply_k(k, Value::Var(dst), rec_lty);
                        Cexp::bind(Bind::Record { fields, nflt, dst }, rest)
                    }),
                )
            }
            Lexp::Select(idx, rec) => {
                let idx = *idx;
                self.cexp(
                    rec,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, rv: Value, t: Lty| {
                        let (word_off, flt, cty, out_lty) = me.field_at(t, idx);
                        let dst = me.fresh();
                        let rest = me.apply_k(k, Value::Var(dst), out_lty);
                        let select = Bind::Select {
                            rec: rv,
                            word_off,
                            flt,
                            dst,
                            cty,
                        };
                        Cexp::bind(select, rest)
                    })),
                )
            }
            Lexp::App(f, a) => self.convert_app(f, a, k),
            Lexp::PrimApp(op, args) => self.convert_prim(*op, args, k),
            Lexp::If(c, t, f) => self.convert_if(c, t, f, k),
            Lexp::SwitchInt(s, arms, d) => self.convert_switch(s, arms, d.as_deref(), k),
            Lexp::Wrap(t, inner) => {
                let op = match self.i.kind(*t) {
                    LtyKind::Real => PureOp::FWrap,
                    LtyKind::Int => PureOp::IWrap,
                    _ => PureOp::PWrap,
                };
                let boxed = self.i.boxed();
                self.cexp(
                    inner,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value, _| {
                        let dst = me.fresh();
                        let rest = me.apply_k(k, Value::Var(dst), boxed);
                        let args = vec![v];
                        let cty = Cty::Ptr(None);
                        Cexp::bind(Bind::Pure { op, args, dst, cty }, rest)
                    })),
                )
            }
            Lexp::Unwrap(t, inner) => {
                let (op, cty) = match self.i.kind(*t) {
                    LtyKind::Real => (PureOp::FUnwrap, Cty::Flt),
                    LtyKind::Int => (PureOp::IUnwrap, Cty::Int),
                    _ => (PureOp::PUnwrap, self.cty(*t)),
                };
                let t = *t;
                self.cexp(
                    inner,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value, _| {
                        let dst = me.fresh();
                        let rest = me.apply_k(k, Value::Var(dst), t);
                        let args = vec![v];
                        Cexp::bind(Bind::Pure { op, args, dst, cty }, rest)
                    })),
                )
            }
            Lexp::Raise(e, _) => self.cexp(
                e,
                K::Fn(Box::new(move |me: &mut Conv<'_>, packet: Value, _| {
                    let h = me.fresh();
                    let raise = Exit::App {
                        f: Value::Var(h),
                        args: vec![packet],
                    };
                    Cexp::new(vec![get_handler(h)], raise)
                })),
            ),
            Lexp::Handle(body, handler) => self.convert_handle(body, handler, k),
        }
    }

    /// Converts a list of expressions left to right.
    fn cexps<'a>(&mut self, es: &'a [Lexp], k: MultiConsumer<'a>) -> Cexp {
        fn go<'a>(
            me: &mut Conv<'_>,
            es: &'a [Lexp],
            mut vals: Vec<Value>,
            mut ltys: Vec<Lty>,
            k: MultiConsumer<'a>,
        ) -> Cexp {
            match es.split_first() {
                None => k(me, vals, ltys),
                Some((e, rest)) => me.cexp(
                    e,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value, t: Lty| {
                        vals.push(v);
                        ltys.push(t);
                        go(me, rest, vals, ltys, k)
                    })),
                ),
            }
        }
        let n = es.len();
        go(self, es, Vec::with_capacity(n), Vec::with_capacity(n), k)
    }

    /// Converts a function definition. `res_lty` is the function's
    /// declared result representation; callers derive their expectations
    /// from the same annotation, so result-spreading conventions agree.
    #[allow(clippy::too_many_arguments)]
    fn convert_fn(
        &mut self,
        name: CVar,
        kind: FunKind,
        param: LVar,
        param_lty: Lty,
        res_lty: Lty,
        body: &Lexp,
        fnvar: Option<LVar>,
    ) -> FunDef {
        self.bind_lty(param, param_lty);
        let kvar = self.fresh();
        match self.spread_of(param_lty, fnvar) {
            None => {
                let pcty = self.cty(param_lty);
                let cbody = self.cexp(body, K::Ret(kvar, res_lty));
                FunDef {
                    kind,
                    name,
                    params: vec![(param, pcty), (kvar, Cty::Cnt)],
                    body: cbody,
                }
            }
            Some(fields) => {
                // Components in registers; rebuild the record at entry
                // (dead-code-eliminated when only selections follow).
                let mut params = self.spread_params(&fields);
                let record = self.rebuild(&params, &fields, param);
                let cbody = self.cexp(body, K::Ret(kvar, res_lty));
                params.push((kvar, Cty::Cnt));
                FunDef {
                    kind,
                    name,
                    params,
                    body: Cexp::bind(record, cbody),
                }
            }
        }
    }

    fn convert_app<'a>(&mut self, f: &'a Lexp, a: &'a Lexp, k: K<'a>) -> Cexp {
        let fnvar = match f {
            Lexp::Var(v) if self.is_known(*v) => Some(*v),
            _ => None,
        };
        self.cexp(
            f,
            K::Fn(Box::new(move |me: &mut Conv<'_>, fv: Value, flty: Lty| {
                let (arg_lty, res_lty) = match *me.i.kind(flty) {
                    LtyKind::Arrow(p, r) => (p, r),
                    _ => {
                        // Applying an unknown-representation value: the
                        // standard one-boxed-argument convention.
                        let rb = me.i.rboxed();
                        (rb, rb)
                    }
                };
                let spread = me.spread_of(arg_lty, fnvar);
                // Build the continuation argument.
                let (kvar, kdefs) = match k {
                    // Tail call: reuse our continuation directly when the
                    // layouts agree.
                    K::Ret(kv, want) if me.same_ret_layout(res_lty, want) => (kv, Vec::new()),
                    k => me.make_join(res_lty, k),
                };

                let finish = move |mut args: Vec<Value>| -> Cexp {
                    args.push(Value::Var(kvar));
                    with_fix(kdefs, Exit::App { f: fv, args }.into())
                };

                match (spread, a) {
                    (None, _) => me.cexp(
                        a,
                        K::Fn(Box::new(move |_: &mut Conv<'_>, av: Value, _| {
                            finish(vec![av])
                        })),
                    ),
                    // Pass components directly; if the argument is a
                    // literal record, never build it.
                    (Some(_), Lexp::Record(es)) => {
                        me.cexps(es, Box::new(move |_, vals, _| finish(vals)))
                    }
                    (Some(fields), _) => me.cexp(
                        a,
                        K::Fn(Box::new(move |me: &mut Conv<'_>, av: Value, _| {
                            let sels = me.spread_selects(&av, &fields);
                            let args = sels.iter().filter_map(Bind::binder);
                            let args = args.map(|(x, _)| Value::Var(x)).collect();
                            let mut body = finish(args);
                            for select in sels.into_iter().rev() {
                                body = Cexp::bind(select, body);
                            }
                            body
                        })),
                    ),
                }
            })),
        )
    }

    /// Whether results of LTYs `a` and `b` travel to a continuation in
    /// the same registers.
    fn same_ret_layout(&self, a: Lty, b: Lty) -> bool {
        match (self.ret_spread_of(a), self.ret_spread_of(b)) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| self.cty(*p) == self.cty(*q))
            }
            _ => false,
        }
    }

    fn convert_switch<'a>(
        &mut self,
        scrut: &'a Lexp,
        arms: &'a [(i64, Lexp)],
        default: Option<&'a Lexp>,
        k: K<'a>,
    ) -> Cexp {
        // Share the continuation through a join point unless it is
        // trivially duplicable.
        let (ret, defs) = match k {
            K::Ret(kv, want) => (Some((kv, want)), Vec::new()),
            K::Done => (None, Vec::new()),
            K::Fn(f) => {
                let mut res_lty = self.join_lty(arms.iter().map(|(_, e)| e).chain(default));
                if self.is_bottom(res_lty) {
                    // No arm returns: any type serves.
                    res_lty = self.i.int();
                }
                let (kvar, defs) = self.make_join(res_lty, K::Fn(f));
                (Some((kvar, res_lty)), defs)
            }
        };
        let mk_k = move || match ret {
            Some((kv, want)) => K::Ret(kv, want),
            None => K::Done,
        };
        let lo = arms.iter().map(|(n, _)| *n).min().unwrap_or(0);
        let hi = arms.iter().map(|(n, _)| *n).max().unwrap_or(0);
        let body = self.cexp(
            scrut,
            K::Fn(Box::new(move |me: &mut Conv<'_>, sv: Value, _| {
                // Build the default once as a tiny known continuation so
                // table holes can share it.
                let dvar = me.fresh();
                let dparam = me.fresh();
                let dbody = me.cexp(default.unwrap_or(&Lexp::Int(0)), mk_k());
                let ddef = FunDef {
                    kind: FunKind::Cont,
                    name: dvar,
                    params: vec![(dparam, Cty::Int)],
                    body: dbody,
                };
                let to_default = || -> Cexp {
                    Exit::App {
                        f: Value::Var(dvar),
                        args: vec![Value::Int(0)],
                    }
                    .into()
                };
                let mut table = Vec::new();
                for slot in lo..=hi {
                    match arms.iter().find(|(n, _)| *n == slot) {
                        Some((_, e)) => table.push(me.cexp(e, mk_k())),
                        None => table.push(to_default()),
                    }
                }
                let switch = Exit::Switch {
                    v: sv,
                    lo,
                    arms: table,
                    default: Box::new(to_default()),
                };
                Cexp::new(vec![Bind::Fix { funs: vec![ddef] }], switch)
            })),
        );
        with_fix(defs, body)
    }

    fn convert_if<'a>(&mut self, c: &'a Lexp, t: &'a Lexp, e: &'a Lexp, k: K<'a>) -> Cexp {
        // Share the continuation through a join point unless we are in
        // tail position (K::Ret/K::Done are cheap to duplicate).
        let (ka, kb, defs) = match k {
            K::Ret(kv, want) => (K::Ret(kv, want), K::Ret(kv, want), Vec::new()),
            K::Done => (K::Done, K::Done, Vec::new()),
            K::Fn(f) => {
                let res_lty = self.join_lty([t, e]);
                let (kvar, defs) = self.make_join(res_lty, K::Fn(f));
                (K::Ret(kvar, res_lty), K::Ret(kvar, res_lty), defs)
            }
        };
        let body = self.convert_branch(c, t, e, ka, kb);
        with_fix(defs, body)
    }

    fn convert_branch<'a>(
        &mut self,
        c: &'a Lexp,
        t: &'a Lexp,
        e: &'a Lexp,
        ka: K<'a>,
        kb: K<'a>,
    ) -> Cexp {
        let arms = move |me: &mut Conv<'_>, op: BranchOp, args: Vec<Value>| -> Cexp {
            let tru = me.cexp(t, ka);
            let fls = me.cexp(e, kb);
            Exit::Branch {
                op,
                args,
                tru: Box::new(tru),
                fls: Box::new(fls),
            }
            .into()
        };
        // Fuse a comparison primitive with the branch.
        if let Lexp::PrimApp(op, args) = c {
            if let Some(bop) = branch_op(*op) {
                return self.cexps(args, Box::new(move |me, vals, _| arms(me, bop, vals)));
            }
        }
        self.cexp(
            c,
            K::Fn(Box::new(move |me: &mut Conv<'_>, cv: Value, _| {
                arms(me, BranchOp::INe, vec![cv, Value::Int(0)])
            })),
        )
    }

    fn convert_prim<'a>(&mut self, op: Primop, args: &'a [Lexp], k: K<'a>) -> Cexp {
        // Comparisons used as values: branch and materialize a boolean.
        if let Some(bop) = branch_op(op) {
            let int = self.i.int();
            let (kvar, defs) = self.make_join(int, k);
            let ret = move |b: i64| -> Box<Cexp> {
                let (f, args) = (Value::Var(kvar), vec![Value::Int(b)]);
                Box::new(Exit::App { f, args }.into())
            };
            let body = self.cexps(
                args,
                Box::new(move |_me: &mut Conv<'_>, vals: Vec<Value>, _| {
                    Exit::Branch {
                        op: bop,
                        args: vals,
                        tru: ret(1),
                        fls: ret(0),
                    }
                    .into()
                }),
            );
            return Cexp::bind(Bind::Fix { funs: defs }, body);
        }
        if op == Primop::Callcc {
            return self.convert_callcc(&args[0], k);
        }
        if op == Primop::Throw {
            return self.cexps(
                args,
                Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>, _| {
                    let kc = me.fresh();
                    let h = me.fresh();
                    // Continuation value is [cont closure, saved handler].
                    let binds = vec![
                        Bind::Select {
                            rec: vals[0].clone(),
                            word_off: 0,
                            flt: false,
                            dst: kc,
                            cty: Cty::Cnt,
                        },
                        Bind::Select {
                            rec: vals[0].clone(),
                            word_off: 1,
                            flt: false,
                            dst: h,
                            cty: Cty::Fun,
                        },
                        set_handler(Value::Var(h)),
                    ];
                    let throw = Exit::App {
                        f: Value::Var(kc),
                        args: vec![vals[1].clone()],
                    };
                    Cexp::new(binds, throw)
                }),
            );
        }

        let kind = prim_kind(op);
        self.cexps(
            args,
            Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>, _| match kind {
                PrimKind::Pure(p) => {
                    let cty = p.result_cty();
                    let dst = me.fresh();
                    let res_lty = match cty {
                        Cty::Int => me.i.int(),
                        Cty::Flt => me.i.real(),
                        _ => me.i.boxed(),
                    };
                    let rest = me.apply_k(k, Value::Var(dst), res_lty);
                    let (op, args) = (p, vals);
                    Cexp::bind(Bind::Pure { op, args, dst, cty }, rest)
                }
                PrimKind::Alloc(a) => {
                    let dst = me.fresh();
                    let b = me.i.boxed();
                    let rest = me.apply_k(k, Value::Var(dst), b);
                    let (op, args) = (a, vals);
                    Cexp::bind(Bind::Alloc { op, args, dst }, rest)
                }
                PrimKind::Look(l) => {
                    let dst = me.fresh();
                    let rb = me.i.rboxed();
                    let rest = me.apply_k(k, Value::Var(dst), rb);
                    let (op, args, cty) = (l, vals, Cty::Ptr(None));
                    Cexp::bind(Bind::Look { op, args, dst, cty }, rest)
                }
                PrimKind::Set(s) => {
                    let int = me.i.int();
                    let rest = me.apply_k(k, Value::Int(0), int);
                    Cexp::bind(Bind::Set { op: s, args: vals }, rest)
                }
            }),
        )
    }

    fn convert_callcc<'a>(&mut self, f: &'a Lexp, k: K<'a>) -> Cexp {
        let boxed = self.i.boxed();
        // Join continuation receives the (boxed) result, both on normal
        // return and on throw.
        let (kvar, defs) = match k {
            K::Ret(kv, want) if self.ret_spread_of(want).is_none() => (kv, Vec::new()),
            other => self.make_join(boxed, other),
        };
        let body = self.cexp(
            f,
            K::Fn(Box::new(move |me: &mut Conv<'_>, fv: Value, _| {
                let h = me.fresh();
                let cv = me.fresh();
                let record = Bind::Record {
                    fields: vec![(Value::Var(kvar), Cty::Cnt), (Value::Var(h), Cty::Fun)],
                    nflt: 0,
                    dst: cv,
                };
                let call = Exit::App {
                    f: fv,
                    args: vec![Value::Var(cv), Value::Var(kvar)],
                };
                Cexp::new(vec![get_handler(h), record], call)
            })),
        );
        with_fix(defs, body)
    }

    fn convert_handle<'a>(&mut self, body: &'a Lexp, handler: &'a Lexp, k: K<'a>) -> Cexp {
        let res_lty = self.lty_of(body);
        let old = self.fresh();
        // Join continuation: restore the handler, then continue.
        let kvar = self.fresh();
        let (params, inner_k) = self.join_body(res_lty, k);
        let kjoin = FunDef {
            kind: FunKind::Cont,
            name: kvar,
            params,
            body: Cexp::bind(set_handler(Value::Var(old)), inner_k),
        };

        // The handler closure: restore the old handler, then run the
        // user handler function with the join continuation.
        let hname = self.fresh();
        let hv_code = self.cexp(
            handler,
            K::Fn(Box::new(move |me: &mut Conv<'_>, hv: Value, _| {
                let pkt = me.fresh();
                let handle = Exit::App {
                    f: hv,
                    args: vec![Value::Var(pkt), Value::Var(kvar)],
                };
                let hdef = FunDef {
                    kind: FunKind::Escape,
                    name: hname,
                    params: vec![(pkt, Cty::Ptr(None))],
                    body: Cexp::new(vec![set_handler(Value::Var(old))], handle),
                };
                let inner = me.cexp(body, K::Ret(kvar, res_lty));
                let inner = Cexp::bind(set_handler(Value::Var(hname)), inner);
                Cexp::bind(Bind::Fix { funs: vec![hdef] }, inner)
            })),
        );
        let hv_code = Cexp::bind(Bind::Fix { funs: vec![kjoin] }, hv_code);
        Cexp::bind(get_handler(old), hv_code)
    }
}

/// `body` after a `Fix` of `defs`, or `body` itself when `defs` is
/// empty.
fn with_fix(defs: Vec<FunDef>, body: Cexp) -> Cexp {
    if defs.is_empty() {
        body
    } else {
        Cexp::bind(Bind::Fix { funs: defs }, body)
    }
}

/// Reads the current exception handler into `dst`.
fn get_handler(dst: CVar) -> Bind {
    Bind::Look {
        op: LookOp::GetHandler,
        args: Vec::new(),
        dst,
        cty: Cty::Fun,
    }
}

/// Installs `h` as the exception handler.
fn set_handler(h: Value) -> Bind {
    Bind::Set {
        op: SetOp::SetHandler,
        args: vec![h],
    }
}

enum PrimKind {
    Pure(PureOp),
    Alloc(AllocOp),
    Look(LookOp),
    Set(SetOp),
}

fn prim_kind(op: Primop) -> PrimKind {
    use Primop as P;
    match op {
        P::IAdd => PrimKind::Pure(PureOp::IAdd),
        P::ISub => PrimKind::Pure(PureOp::ISub),
        P::IMul => PrimKind::Pure(PureOp::IMul),
        P::IDiv => PrimKind::Pure(PureOp::IDiv),
        P::IMod => PrimKind::Pure(PureOp::IMod),
        P::INeg => PrimKind::Pure(PureOp::INeg),
        P::FAdd => PrimKind::Pure(PureOp::FAdd),
        P::FSub => PrimKind::Pure(PureOp::FSub),
        P::FMul => PrimKind::Pure(PureOp::FMul),
        P::FDiv => PrimKind::Pure(PureOp::FDiv),
        P::FNeg => PrimKind::Pure(PureOp::FNeg),
        P::FSqrt => PrimKind::Pure(PureOp::FSqrt),
        P::FSin => PrimKind::Pure(PureOp::FSin),
        P::FCos => PrimKind::Pure(PureOp::FCos),
        P::FAtan => PrimKind::Pure(PureOp::FAtan),
        P::FExp => PrimKind::Pure(PureOp::FExp),
        P::FLn => PrimKind::Pure(PureOp::FLn),
        P::Floor => PrimKind::Pure(PureOp::Floor),
        P::IntToReal => PrimKind::Pure(PureOp::IntToReal),
        P::StrSize => PrimKind::Pure(PureOp::StrSize),
        P::StrSub => PrimKind::Pure(PureOp::StrSub),
        P::StrCat => PrimKind::Pure(PureOp::StrCat),
        P::IntToString => PrimKind::Pure(PureOp::IntToString),
        P::RealToString => PrimKind::Pure(PureOp::RealToString),
        P::ArrayLength => PrimKind::Pure(PureOp::ArrayLength),
        P::MakeRef => PrimKind::Alloc(AllocOp::MakeRef),
        P::ArrayMake => PrimKind::Alloc(AllocOp::ArrayMake),
        P::Deref => PrimKind::Look(LookOp::Deref),
        P::ArraySub => PrimKind::Look(LookOp::ArraySub),
        P::Assign => PrimKind::Set(SetOp::Assign),
        P::UnboxedAssign => PrimKind::Set(SetOp::UnboxedAssign),
        P::ArrayUpdate => PrimKind::Set(SetOp::ArrayUpdate),
        P::UnboxedArrayUpdate => PrimKind::Set(SetOp::UnboxedArrayUpdate),
        P::Print => PrimKind::Set(SetOp::Print),
        P::ILt
        | P::ILe
        | P::IGt
        | P::IGe
        | P::IEq
        | P::INe
        | P::FLt
        | P::FLe
        | P::FGt
        | P::FGe
        | P::FEq
        | P::FNe
        | P::StrEq
        | P::StrNe
        | P::StrLt
        | P::StrLe
        | P::StrGt
        | P::StrGe
        | P::PolyEq
        | P::PtrEq
        | P::IsBoxed => {
            unreachable!("comparisons are handled via branch_op")
        }
        P::Callcc | P::Throw => unreachable!("handled specially"),
    }
}

fn branch_op(op: Primop) -> Option<BranchOp> {
    use Primop as P;
    Some(match op {
        P::ILt => BranchOp::ILt,
        P::ILe => BranchOp::ILe,
        P::IGt => BranchOp::IGt,
        P::IGe => BranchOp::IGe,
        P::IEq => BranchOp::IEq,
        P::INe => BranchOp::INe,
        P::FLt => BranchOp::FLt,
        P::FLe => BranchOp::FLe,
        P::FGt => BranchOp::FGt,
        P::FGe => BranchOp::FGe,
        P::FEq => BranchOp::FEq,
        P::FNe => BranchOp::FNe,
        P::StrEq => BranchOp::StrEq,
        P::StrNe => BranchOp::StrNe,
        P::StrLt => BranchOp::StrLt,
        P::StrLe => BranchOp::StrLe,
        P::StrGt => BranchOp::StrGt,
        P::StrGe => BranchOp::StrGe,
        P::PolyEq => BranchOp::PolyEq,
        P::PtrEq => BranchOp::PtrEq,
        P::IsBoxed => BranchOp::IsBoxed,
        _ => return None,
    })
}
