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
    let mut known = vec![false; first_var as usize];
    collect_known(lexp, &mut known);
    let mut known_arity = Vec::new();
    if cfg.spread == SpreadMode::KnownOnly {
        known_arity = vec![ARITY_UNSEEN; first_var as usize];
        collect_known_arity(lexp, &known, cfg.max_spread, &mut known_arity);
    }
    let mut conv = Conv {
        i: interner,
        cfg: *cfg,
        next: first_var,
        env: vec![None; first_var as usize],
        subst: VarMap::default(),
        known,
        known_arity,
    };
    let body = conv.cexp(lexp, K::Done);
    CpsProgram {
        body,
        next_var: conv.next,
    }
}

/// Marks, by variable, the LEXP `Fix`-bound functions whose every
/// occurrence is a direct call head (known functions, eligible for
/// `sml.fag` flattening).
fn collect_known(e: &Lexp, known: &mut Vec<bool>) {
    fn bound(e: &Lexp, out: &mut Vec<bool>) {
        match e {
            Lexp::Fix(fs, b) => {
                for (v, _, f) in fs {
                    set(out, *v, true, false);
                    bound(f, out);
                }
                bound(b, out);
            }
            Lexp::Fn(_, _, _, b) => bound(b, out),
            Lexp::App(f, a) => {
                bound(f, out);
                bound(a, out);
            }
            Lexp::Let(_, a, b) => {
                bound(a, out);
                bound(b, out);
            }
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => {
                es.iter().for_each(|e| bound(e, out))
            }
            Lexp::Select(_, e) | Lexp::Wrap(_, e) | Lexp::Unwrap(_, e) | Lexp::Raise(e, _) => {
                bound(e, out)
            }
            Lexp::If(c, t, f) => {
                bound(c, out);
                bound(t, out);
                bound(f, out);
            }
            Lexp::SwitchInt(s, arms, d) => {
                bound(s, out);
                arms.iter().for_each(|(_, e)| bound(e, out));
                if let Some(d) = d {
                    bound(d, out);
                }
            }
            Lexp::Handle(e, h) => {
                bound(e, out);
                bound(h, out);
            }
            _ => {}
        }
    }
    fn escapes(e: &Lexp, known: &mut Vec<bool>) {
        match e {
            Lexp::Var(v) => {
                if let Some(k) = known.get_mut(*v as usize) {
                    *k = false;
                }
            }
            Lexp::App(f, a) => {
                // The head survives as known; everything inside the
                // argument escapes.
                if !matches!(**f, Lexp::Var(_)) {
                    escapes(f, known);
                }
                escapes(a, known);
            }
            Lexp::Fix(fs, b) => {
                fs.iter().for_each(|(_, _, f)| escapes(f, known));
                escapes(b, known);
            }
            Lexp::Fn(_, _, _, b) => escapes(b, known),
            Lexp::Let(_, a, b) => {
                escapes(a, known);
                escapes(b, known);
            }
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => {
                es.iter().for_each(|e| escapes(e, known))
            }
            Lexp::Select(_, e) | Lexp::Wrap(_, e) | Lexp::Unwrap(_, e) | Lexp::Raise(e, _) => {
                escapes(e, known)
            }
            Lexp::If(c, t, f) => {
                escapes(c, known);
                escapes(t, known);
                escapes(f, known);
            }
            Lexp::SwitchInt(s, arms, d) => {
                escapes(s, known);
                arms.iter().for_each(|(_, e)| escapes(e, known));
                if let Some(d) = d {
                    escapes(d, known);
                }
            }
            Lexp::Handle(e, h) => {
                escapes(e, known);
                escapes(h, known);
            }
            _ => {}
        }
    }
    bound(e, known);
    escapes(e, known);
}

/// `known_arity`'s entry for a function no call of which was seen.
const ARITY_UNSEEN: u32 = 0;
/// `known_arity`'s entry for a function not to flatten.
const NOT_FLAT: u32 = u32::MAX;

/// For `sml.fag` (Kranz): a known function is flattenable when every
/// call site passes a literal record of one consistent arity — a purely
/// syntactic analysis requiring no type information. Fills in, by
/// variable, that arity, or `NOT_FLAT`.
fn collect_known_arity(e: &Lexp, known: &[bool], max: usize, out: &mut Vec<u32>) {
    fn walk(e: &Lexp, known: &[bool], max: usize, out: &mut Vec<u32>) {
        if let Lexp::App(f, a) = e {
            if let Lexp::Var(v) = &**f {
                if known.get(*v as usize) == Some(&true) {
                    let arity = match &**a {
                        Lexp::Record(es) if !es.is_empty() && es.len() <= max => es.len() as u32,
                        _ => NOT_FLAT,
                    };
                    let prev = out.get(*v as usize).copied().unwrap_or(ARITY_UNSEEN);
                    if prev == ARITY_UNSEEN {
                        set(out, *v, arity, ARITY_UNSEEN);
                    } else if prev != arity {
                        set(out, *v, NOT_FLAT, ARITY_UNSEEN);
                    }
                }
            }
        }
        match e {
            Lexp::Fn(_, _, _, b) => walk(b, known, max, out),
            Lexp::Fix(fs, b) => {
                fs.iter().for_each(|(_, _, f)| walk(f, known, max, out));
                walk(b, known, max, out);
            }
            Lexp::App(f, a) => {
                walk(f, known, max, out);
                walk(a, known, max, out);
            }
            Lexp::Let(_, a, b) => {
                walk(a, known, max, out);
                walk(b, known, max, out);
            }
            Lexp::Record(es) | Lexp::SRecord(es) | Lexp::PrimApp(_, es) => {
                es.iter().for_each(|e| walk(e, known, max, out))
            }
            Lexp::Select(_, e) | Lexp::Wrap(_, e) | Lexp::Unwrap(_, e) | Lexp::Raise(e, _) => {
                walk(e, known, max, out)
            }
            Lexp::If(c, t, f) => {
                walk(c, known, max, out);
                walk(t, known, max, out);
                walk(f, known, max, out);
            }
            Lexp::SwitchInt(s, arms, d) => {
                walk(s, known, max, out);
                arms.iter().for_each(|(_, e)| walk(e, known, max, out));
                if let Some(d) = d {
                    walk(d, known, max, out);
                }
            }
            Lexp::Handle(e, h) => {
                walk(e, known, max, out);
                walk(h, known, max, out);
            }
            _ => {}
        }
    }
    walk(e, known, max, out);
}

/// A boxed consumer of one converted value.
type Consumer<'a> = Box<dyn FnOnce(&mut Conv<'_>, Value) -> Cexp + 'a>;
/// A boxed consumer of several converted values.
type MultiConsumer<'a> = Box<dyn FnOnce(&mut Conv<'_>, Vec<Value>) -> Cexp + 'a>;

/// The meta-continuation of conversion.
enum K<'a> {
    /// Apply this consumer to the produced value.
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
    /// LTY environment for LEXP/CPS variables, by variable.
    env: Vec<Option<Lty>>,
    /// Values substituted for let-bound variables.
    subst: VarMap<Value>,
    /// Whether each LEXP variable is a known function.
    known: Vec<bool>,
    /// Kranz-style syntactic flattening (`sml.fag`), by variable: the
    /// arity of the literal record every call site of a known function
    /// passes, `NOT_FLAT` when the sites disagree or pass something
    /// else, `ARITY_UNSEEN` when no call was seen. Empty under other
    /// variants.
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
        self.known.get(v as usize) == Some(&true)
    }

    fn cty(&self, t: Lty) -> Cty {
        cty_of_lty(self.i, t)
    }

    // ----- LTY reconstruction ------------------------------------------------

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
                match self.i.kind(t).clone() {
                    LtyKind::Record(fs) | LtyKind::SRecord(fs) => {
                        fs.get(*idx).copied().unwrap_or_else(|| self.i.rboxed())
                    }
                    LtyKind::PRecord(fs) => fs
                        .iter()
                        .find(|(s, _)| s == idx)
                        .map(|(_, t)| *t)
                        .unwrap_or_else(|| self.i.rboxed()),
                    _ => self.i.rboxed(),
                }
            }
            Lexp::PrimApp(op, _) => match op {
                Primop::Callcc => self.i.boxed(),
                Primop::Throw => self.i.rboxed(),
                _ => op.sig(self.i).1,
            },
            Lexp::If(_, t, f) => {
                let tt = self.lty_of(t);
                if matches!(self.i.kind(tt), LtyKind::Bottom) {
                    self.lty_of(f)
                } else {
                    tt
                }
            }
            Lexp::SwitchInt(_, arms, d) => {
                for (_, a) in arms {
                    let t = self.lty_of(a);
                    if !matches!(self.i.kind(t), LtyKind::Bottom) {
                        return t;
                    }
                }
                match d {
                    Some(d) => self.lty_of(d),
                    None => self.i.bottom(),
                }
            }
            Lexp::Wrap(..) => self.i.boxed(),
            Lexp::Unwrap(t, _) => *t,
            Lexp::Raise(_, t) => *t,
            Lexp::Handle(e, _) => self.lty_of(e),
        }
    }

    // ----- layouts --------------------------------------------------------------

    /// The flattened components of an argument (or result) LTY, if the
    /// configuration spreads it. `fnvar` is the function being defined or
    /// called, for the syntactic `sml.fag` analysis.
    fn spread_of(&mut self, t: Lty, fnvar: Option<LVar>) -> Option<Vec<Lty>> {
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
            SpreadMode::ByType => match self.i.kind(t).clone() {
                LtyKind::Record(fs) if !fs.is_empty() && fs.len() <= self.cfg.max_spread => {
                    Some(fs)
                }
                _ => None,
            },
        }
    }

    /// Result-value spreading: only under fully type-based conventions
    /// (escaping callers must agree by type).
    fn ret_spread_of(&mut self, t: Lty) -> Option<Vec<Lty>> {
        if self.cfg.spread != SpreadMode::ByType {
            return None;
        }
        match self.i.kind(t).clone() {
            LtyKind::Record(fs) if !fs.is_empty() && fs.len() <= self.cfg.max_spread => Some(fs),
            _ => None,
        }
    }

    /// Physical record layout: scanned one-word fields first, raw float
    /// fields (two words each) after; the object descriptor records both
    /// lengths (the information content of paper Figure 1c, with the
    /// scanned part leading so code pointers of closures sit at offset
    /// 0).
    fn layout_fields(&mut self, vals: &[Value], ltys: &[Lty]) -> (Vec<(Value, Cty)>, usize) {
        let mut floats = Vec::new();
        let mut words = Vec::new();
        for (v, t) in vals.iter().zip(ltys) {
            let c = self.cty(*t);
            if c == Cty::Flt {
                floats.push((v.clone(), c));
            } else {
                words.push((v.clone(), c));
            }
        }
        let nflt = floats.len();
        words.extend(floats);
        (words, nflt)
    }

    /// Physical offset of logical field `idx` within a record of the
    /// given field LTYs: `(word_offset, is_float, cty)`.
    fn field_offset(&mut self, fields: &[Lty], idx: usize) -> (usize, bool, Cty) {
        let ctys: Vec<Cty> = fields.iter().map(|t| self.cty(*t)).collect();
        let nwords = ctys.iter().filter(|c| **c != Cty::Flt).count();
        if ctys[idx] == Cty::Flt {
            let pos = ctys[..idx].iter().filter(|c| **c == Cty::Flt).count();
            (nwords + 2 * pos, true, Cty::Flt)
        } else {
            let pos = ctys[..idx].iter().filter(|c| **c != Cty::Flt).count();
            (pos, false, ctys[idx])
        }
    }

    // ----- conversion -------------------------------------------------------------

    fn apply_k(&mut self, k: K<'_>, v: Value, _res_lty: Lty) -> Cexp {
        match k {
            K::Fn(f) => f(self, v),
            K::Ret(kvar, want_lty) => self.ret_to(kvar, want_lty, v),
            K::Done => Exit::Halt { v }.into(),
        }
    }

    /// Returns `v` to continuation `kvar`, spreading per `res_lty`.
    fn ret_to(&mut self, kvar: CVar, res_lty: Lty, v: Value) -> Cexp {
        let Some(fields) = self.ret_spread_of(res_lty) else {
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

    /// Builds the join continuation for a call with result type `rlty`;
    /// returns (cont var, Fix wrapper builder).
    fn make_join(&mut self, rlty: Lty, k: K<'_>) -> (CVar, Vec<FunDef>) {
        let kvar = self.fresh();
        let fun = match self.ret_spread_of(rlty) {
            None => {
                let x = self.fresh();
                let cty = self.cty(rlty);
                self.bind_lty(x, rlty);
                let body = self.apply_k(k, Value::Var(x), rlty);
                FunDef {
                    kind: FunKind::Cont,
                    name: kvar,
                    params: vec![(x, cty)],
                    body,
                }
            }
            Some(fields) => {
                // Receive components, rebuild the logical record (the
                // optimizer removes it when only selections follow).
                let params: Vec<(CVar, Cty)> = fields
                    .iter()
                    .map(|t| {
                        let x = self.fresh();
                        (x, self.cty(*t))
                    })
                    .collect();
                let vals: Vec<Value> = params.iter().map(|(x, _)| Value::Var(*x)).collect();
                let (phys, nflt) = self.layout_fields(&vals, &fields);
                let rv = self.fresh();
                self.bind_lty(rv, rlty);
                let body = self.apply_k(k, Value::Var(rv), rlty);
                let record = Bind::Record {
                    fields: phys,
                    nflt,
                    dst: rv,
                };
                FunDef {
                    kind: FunKind::Cont,
                    name: kvar,
                    params,
                    body: Cexp::bind(record, body),
                }
            }
        };
        (kvar, vec![fun])
    }

    /// Converts `e`, delivering its value to `k`.
    fn cexp(&mut self, e: &Lexp, k: K<'_>) -> Cexp {
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
                self.bind_lty(name, arrow);
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
                let vcopy = *v;
                let at = self.lty_of(a);
                self.cexp(
                    a,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, va: Value| {
                        me.bind_lty(vcopy, at);
                        me.subst.insert(vcopy, va);
                        me.cexp(b, k)
                    })),
                )
            }
            Lexp::Record(es) | Lexp::SRecord(es) => {
                let is_module = matches!(e, Lexp::SRecord(_));
                let ltys: Vec<Lty> = es.iter().map(|e| self.lty_of(e)).collect();
                let rec_lty = if is_module {
                    self.i.srecord(ltys.clone())
                } else {
                    self.i.record(ltys.clone())
                };
                self.cexps(
                    es,
                    Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>| {
                        let (phys, nflt) = me.layout_fields(&vals, &ltys);
                        let dst = me.fresh();
                        me.bind_lty(dst, rec_lty);
                        let rest = me.apply_k(k, Value::Var(dst), rec_lty);
                        let fields = phys;
                        Cexp::bind(Bind::Record { fields, nflt, dst }, rest)
                    }),
                )
            }
            Lexp::Select(idx, rec) => {
                let rec_lty = self.lty_of(rec);
                let idx = *idx;
                self.cexp(
                    rec,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, rv: Value| {
                        let (off, flt, cty, out_lty) = match me.i.kind(rec_lty).clone() {
                            LtyKind::Record(fs) | LtyKind::SRecord(fs) => {
                                let (o, f, c) = me.field_offset(&fs, idx);
                                (o, f, c, fs[idx])
                            }
                            LtyKind::PRecord(fs) => {
                                let t = fs
                                    .iter()
                                    .find(|(s, _)| *s == idx)
                                    .map(|(_, t)| *t)
                                    .unwrap_or_else(|| me.i.rboxed());
                                (idx, false, me.cty(t), t)
                            }
                            // Standard layout: all one-word fields.
                            _ => {
                                let rb = me.i.rboxed();
                                (idx, false, Cty::Ptr(None), rb)
                            }
                        };
                        let dst = me.fresh();
                        me.bind_lty(dst, out_lty);
                        let rest = me.apply_k(k, Value::Var(dst), out_lty);
                        let select = Bind::Select {
                            rec: rv,
                            word_off: off,
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
            Lexp::If(c, t, e) => self.convert_if(c, t, e, k),
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
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value| {
                        let dst = me.fresh();
                        me.bind_lty(dst, boxed);
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
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value| {
                        let dst = me.fresh();
                        me.bind_lty(dst, t);
                        let rest = me.apply_k(k, Value::Var(dst), t);
                        let args = vec![v];
                        Cexp::bind(Bind::Pure { op, args, dst, cty }, rest)
                    })),
                )
            }
            Lexp::Raise(e, _) => self.cexp(
                e,
                K::Fn(Box::new(move |me: &mut Conv<'_>, packet: Value| {
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
    fn cexps(&mut self, es: &[Lexp], k: MultiConsumer<'_>) -> Cexp {
        fn go<'a>(
            me: &mut Conv<'_>,
            es: &'a [Lexp],
            mut acc: Vec<Value>,
            k: MultiConsumer<'a>,
        ) -> Cexp {
            match es.split_first() {
                None => k(me, acc),
                Some((e, rest)) => me.cexp(
                    e,
                    K::Fn(Box::new(move |me: &mut Conv<'_>, v: Value| {
                        acc.push(v);
                        go(me, rest, acc, k)
                    })),
                ),
            }
        }
        go(self, es, Vec::new(), k)
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
        let body_lty = res_lty;
        let kvar = self.fresh();
        match self.spread_of(param_lty, fnvar) {
            None => {
                let pcty = self.cty(param_lty);
                let cbody = self.cexp(body, K::Ret(kvar, body_lty));
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
                let params: Vec<(CVar, Cty)> = fields
                    .iter()
                    .map(|t| {
                        let x = self.fresh();
                        (x, self.cty(*t))
                    })
                    .collect();
                let vals: Vec<Value> = params.iter().map(|(x, _)| Value::Var(*x)).collect();
                let (phys, nflt) = self.layout_fields(&vals, &fields);
                let cbody = self.cexp(body, K::Ret(kvar, body_lty));
                let mut all_params = params;
                all_params.push((kvar, Cty::Cnt));
                let record = Bind::Record {
                    fields: phys,
                    nflt,
                    dst: param,
                };
                FunDef {
                    kind,
                    name,
                    params: all_params,
                    body: Cexp::bind(record, cbody),
                }
            }
        }
    }

    fn convert_app(&mut self, f: &Lexp, a: &Lexp, k: K<'_>) -> Cexp {
        let flty = self.lty_of(f);
        let (arg_lty, res_lty) = match *self.i.kind(flty) {
            LtyKind::Arrow(p, r) => (p, r),
            _ => {
                // Applying an unknown-representation value: the standard
                // one-boxed-argument convention.
                let rb = self.i.rboxed();
                (rb, rb)
            }
        };
        let fnvar = match f {
            Lexp::Var(v) if self.is_known(*v) => Some(*v),
            _ => None,
        };
        let spread = self.spread_of(arg_lty, fnvar);

        let f = f.clone();
        let a = a.clone();
        self.cexp(
            &f,
            K::Fn(Box::new(move |me: &mut Conv<'_>, fv: Value| {
                // Build the continuation argument.
                let (kvar, mut kdefs) = match k {
                    K::Ret(kv, want) => {
                        // Tail call: reuse our continuation directly when
                        // the layouts agree.
                        let same_layout = {
                            let a = me.ret_spread_of(res_lty);
                            let b = me.ret_spread_of(want);
                            match (&a, &b) {
                                (None, None) => true,
                                (Some(x), Some(y)) => {
                                    x.len() == y.len()
                                        && x.iter().zip(y).all(|(p, q)| me.cty(*p) == me.cty(*q))
                                }
                                _ => false,
                            }
                        };
                        if same_layout {
                            (kv, Vec::new())
                        } else {
                            me.make_join(res_lty, K::Ret(kv, want))
                        }
                    }
                    other => me.make_join(res_lty, other),
                };

                let finish = move |_me: &mut Conv<'_>, mut args: Vec<Value>| -> Cexp {
                    args.push(Value::Var(kvar));
                    let app = Exit::App { f: fv, args }.into();
                    with_fix(std::mem::take(&mut kdefs), app)
                };

                match spread {
                    None => me.cexp(
                        &a,
                        K::Fn(Box::new(move |me: &mut Conv<'_>, av: Value| {
                            finish(me, vec![av])
                        })),
                    ),
                    Some(fields) => {
                        // Pass components directly; if the argument is a
                        // literal record, never build it.
                        if let Lexp::Record(es) = &a {
                            let es = es.clone();
                            me.cexps(
                                &es,
                                Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>| {
                                    finish(me, vals)
                                }),
                            )
                        } else {
                            me.cexp(
                                &a,
                                K::Fn(Box::new(move |me: &mut Conv<'_>, av: Value| {
                                    let sels = me.spread_selects(&av, &fields);
                                    let args = sels.iter().filter_map(Bind::binder);
                                    let args = args.map(|(x, _)| Value::Var(x)).collect();
                                    let mut body = finish(me, args);
                                    for select in sels.into_iter().rev() {
                                        body = Cexp::bind(select, body);
                                    }
                                    body
                                })),
                            )
                        }
                    }
                }
            })),
        )
    }

    fn convert_switch<'a>(
        &mut self,
        scrut: &'a Lexp,
        arms: &'a [(i64, Lexp)],
        default: Option<&'a Lexp>,
        k: K<'a>,
    ) -> Cexp {
        let mut res_lty = self.i.int();
        for (_, e) in arms {
            let t = self.lty_of(e);
            if !matches!(self.i.kind(t), LtyKind::Bottom) {
                res_lty = t;
                break;
            }
        }
        // Share the continuation through a join point unless it is
        // trivially duplicable.
        let (kv, want, defs) = match k {
            K::Ret(kv, want) => (Some(kv), want, Vec::new()),
            K::Done => (None, res_lty, Vec::new()),
            K::Fn(f) => {
                let (kvar, defs) = self.make_join(res_lty, K::Fn(f));
                (Some(kvar), res_lty, defs)
            }
        };
        let mk_k = |kv: Option<CVar>| match kv {
            Some(kv) => K::Ret(kv, want),
            None => K::Done,
        };
        let lo = arms.iter().map(|(n, _)| *n).min().unwrap_or(0);
        let hi = arms.iter().map(|(n, _)| *n).max().unwrap_or(0);
        let scrut = scrut.clone();
        let arms_v: Vec<(i64, Lexp)> = arms.to_vec();
        let default = default.cloned().unwrap_or(Lexp::Int(0));
        let body = self.cexp(
            &scrut,
            K::Fn(Box::new(move |me: &mut Conv<'_>, sv: Value| {
                // Build the default once as a tiny known continuation so
                // table holes can share it.
                let dvar = me.fresh();
                let dparam = me.fresh();
                let dbody = me.cexp(&default, mk_k(kv));
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
                    match arms_v.iter().find(|(n, _)| *n == slot) {
                        Some((_, e)) => table.push(me.cexp(e, mk_k(kv))),
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

    fn convert_if(&mut self, c: &Lexp, t: &Lexp, e: &Lexp, k: K<'_>) -> Cexp {
        // Determine the result type for the join continuation.
        let res_lty = {
            let tt = self.lty_of(t);
            if matches!(self.i.kind(tt), LtyKind::Bottom) {
                self.lty_of(e)
            } else {
                tt
            }
        };
        // Share the continuation through a join point unless we are in
        // tail position (K::Ret/K::Done are cheap to duplicate).
        let (ka, kb, defs) = match k {
            K::Ret(kv, want) => (K::Ret(kv, want), K::Ret(kv, want), Vec::new()),
            K::Done => (K::Done, K::Done, Vec::new()),
            K::Fn(f) => {
                let (kvar, defs) = self.make_join(res_lty, K::Fn(f));
                (K::Ret(kvar, res_lty), K::Ret(kvar, res_lty), defs)
            }
        };
        let body = self.convert_branch(c, t, e, ka, kb);
        with_fix(defs, body)
    }

    fn convert_branch(&mut self, c: &Lexp, t: &Lexp, e: &Lexp, ka: K<'_>, kb: K<'_>) -> Cexp {
        // Fuse a comparison primitive with the branch.
        if let Lexp::PrimApp(op, args) = c {
            if let Some(bop) = branch_op(*op) {
                let t = t.clone();
                let e = e.clone();
                return self.cexps(
                    args,
                    Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>| {
                        let tru = me.cexp(&t, ka);
                        let fls = me.cexp(&e, kb);
                        Exit::Branch {
                            op: bop,
                            args: vals,
                            tru: Box::new(tru),
                            fls: Box::new(fls),
                        }
                        .into()
                    }),
                );
            }
        }
        let t = t.clone();
        let e = e.clone();
        self.cexp(
            c,
            K::Fn(Box::new(move |me: &mut Conv<'_>, cv: Value| {
                let tru = me.cexp(&t, ka);
                let fls = me.cexp(&e, kb);
                Exit::Branch {
                    op: BranchOp::INe,
                    args: vec![cv, Value::Int(0)],
                    tru: Box::new(tru),
                    fls: Box::new(fls),
                }
                .into()
            })),
        )
    }

    fn convert_prim(&mut self, op: Primop, args: &[Lexp], k: K<'_>) -> Cexp {
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
                Box::new(move |_me: &mut Conv<'_>, vals: Vec<Value>| {
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
            let boxed = self.i.boxed();
            let _ = boxed;
            return self.cexps(
                args,
                Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>| {
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
        let ltys: Vec<Lty> = args.iter().map(|a| self.lty_of(a)).collect();
        let _ = ltys;
        self.cexps(
            args,
            Box::new(move |me: &mut Conv<'_>, vals: Vec<Value>| match kind {
                PrimKind::Pure(p) => {
                    let cty = p.result_cty();
                    let dst = me.fresh();
                    let res_lty = match cty {
                        Cty::Int => me.i.int(),
                        Cty::Flt => me.i.real(),
                        _ => me.i.boxed(),
                    };
                    me.bind_lty(dst, res_lty);
                    let rest = me.apply_k(k, Value::Var(dst), res_lty);
                    let (op, args) = (p, vals);
                    Cexp::bind(Bind::Pure { op, args, dst, cty }, rest)
                }
                PrimKind::Alloc(a) => {
                    let dst = me.fresh();
                    let b = me.i.boxed();
                    me.bind_lty(dst, b);
                    let rest = me.apply_k(k, Value::Var(dst), b);
                    let (op, args) = (a, vals);
                    Cexp::bind(Bind::Alloc { op, args, dst }, rest)
                }
                PrimKind::Look(l) => {
                    let dst = me.fresh();
                    let rb = me.i.rboxed();
                    me.bind_lty(dst, rb);
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

    fn convert_callcc(&mut self, f: &Lexp, k: K<'_>) -> Cexp {
        let boxed = self.i.boxed();
        // Join continuation receives the (boxed) result, both on normal
        // return and on throw.
        let (kvar, defs) = match k {
            K::Ret(kv, want) if self.ret_spread_of(want).is_none() => (kv, Vec::new()),
            other => self.make_join(boxed, other),
        };
        let f = f.clone();
        let body = self.cexp(
            &f,
            K::Fn(Box::new(move |me: &mut Conv<'_>, fv: Value| {
                let h = me.fresh();
                let cv = me.fresh();
                let b = me.i.boxed();
                me.bind_lty(cv, b);
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

    fn convert_handle(&mut self, body: &Lexp, handler: &Lexp, k: K<'_>) -> Cexp {
        let res_lty = self.lty_of(body);
        let old = self.fresh();
        // Join continuation: restore the handler, then continue.
        let kvar = self.fresh();
        let (params, inner_k): (Vec<(CVar, Cty)>, Cexp) = {
            match self.ret_spread_of(res_lty) {
                None => {
                    let x = self.fresh();
                    let cty = self.cty(res_lty);
                    self.bind_lty(x, res_lty);
                    let cont = self.apply_k(k, Value::Var(x), res_lty);
                    (vec![(x, cty)], cont)
                }
                Some(fields) => {
                    let params: Vec<(CVar, Cty)> = fields
                        .iter()
                        .map(|t| {
                            let x = self.fresh();
                            (x, self.cty(*t))
                        })
                        .collect();
                    let vals: Vec<Value> = params.iter().map(|(x, _)| Value::Var(*x)).collect();
                    let (phys, nflt) = self.layout_fields(&vals, &fields);
                    let rv = self.fresh();
                    self.bind_lty(rv, res_lty);
                    let cont = self.apply_k(k, Value::Var(rv), res_lty);
                    let record = Bind::Record {
                        fields: phys,
                        nflt,
                        dst: rv,
                    };
                    (params, Cexp::bind(record, cont))
                }
            }
        };
        let kjoin = FunDef {
            kind: FunKind::Cont,
            name: kvar,
            params,
            body: Cexp::bind(set_handler(Value::Var(old)), inner_k),
        };

        // The handler closure: restore the old handler, then run the
        // user handler function with the join continuation.
        let handler = handler.clone();
        let body = body.clone();
        let hname = self.fresh();
        let hv_code = self.cexp(
            &handler,
            K::Fn(Box::new(move |me: &mut Conv<'_>, hv: Value| {
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
                let inner = me.cexp(&body, K::Ret(kvar, res_lty));
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
