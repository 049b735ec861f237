//! The CPS optimizer (paper §5.2, after Appel ch. 6-7).
//!
//! Rounds of *contraction* — dead-variable elimination, constant folding,
//! beta-contraction of once-called functions, eta-reduction,
//! select-from-known-record folding — plus the paper's two new
//! type-enabled optimizations: **wrap/unwrap pair cancellation** and
//! **record-copy elimination** (a record rebuilt from selections of a
//! same-length record is replaced by the original). Inline expansion of
//! small functions runs between contraction fixpoints.

use crate::cps::*;
use sml_ast::{FxHashMap, FxHashSet};

/// Optimizer knobs.
#[derive(Clone, Copy, Debug)]
pub struct OptConfig {
    /// Maximum contraction rounds per fixpoint.
    pub max_rounds: usize,
    /// Inline-expansion body-size threshold (CPS operators).
    pub inline_size: usize,
    /// Number of inline passes.
    pub inline_passes: usize,
}

impl Default for OptConfig {
    fn default() -> OptConfig {
        OptConfig {
            max_rounds: 12,
            inline_size: 30,
            inline_passes: 2,
        }
    }
}

/// Statistics of an optimization run.
#[derive(Clone, Copy, Debug, Default)]
pub struct OptStats {
    /// Contraction rounds executed.
    pub rounds: usize,
    /// Wrap/unwrap pairs cancelled.
    pub wrap_cancelled: u64,
    /// Record copies eliminated.
    pub record_copies: u64,
    /// Functions beta-contracted (inlined at their single call site).
    pub beta: u64,
    /// Small functions inline-expanded.
    pub inlined: u64,
    /// Dead bindings removed.
    pub dead: u64,
}

impl OptStats {
    /// Rewrite counts keyed by rule name, in declaration order (plus the
    /// round counter). The single source of truth for metric emitters.
    pub fn rules(&self) -> [(&'static str, u64); 6] {
        [
            ("rounds", self.rounds as u64),
            ("wrap_cancelled", self.wrap_cancelled),
            ("record_copies", self.record_copies),
            ("beta", self.beta),
            ("inlined", self.inlined),
            ("dead", self.dead),
        ]
    }
}

/// Optimizes a CPS program in place; returns statistics.
pub fn optimize(prog: &mut crate::convert::CpsProgram, cfg: &OptConfig) -> OptStats {
    match optimize_instrumented(prog, cfg, |_, _| Ok::<(), std::convert::Infallible>(())) {
        Ok(stats) => stats,
        Err(never) => match never {},
    }
}

/// [`optimize`] with a per-pass observation hook, used by the pipeline's
/// IR verifier.
///
/// `check` runs after every optimizer pass (one contraction fixpoint
/// plus the inline expansion that follows it, if any) with the pass
/// index and the program as rewritten so far; returning an error stops
/// optimization immediately and propagates the error. The hook is
/// observational — it receives `&CpsProgram` and cannot mutate it — so
/// a run whose hook never fails rewrites exactly as [`optimize`] does.
pub fn optimize_instrumented<E>(
    prog: &mut crate::convert::CpsProgram,
    cfg: &OptConfig,
    mut check: impl FnMut(usize, &crate::convert::CpsProgram) -> Result<(), E>,
) -> Result<OptStats, E> {
    let mut stats = OptStats::default();
    for pass in 0..=cfg.inline_passes {
        // Contraction fixpoint.
        for _ in 0..cfg.max_rounds {
            let mut ctx = Contract::new(&mut stats, prog.next_var);
            let body = std::mem::replace(&mut prog.body, Cexp::Halt { v: Value::Int(0) });
            ctx.census(&body);
            let new = ctx.go(body);
            prog.next_var = ctx.next;
            let changed = ctx.changed;
            prog.body = new;
            stats.rounds += 1;
            if !changed {
                break;
            }
        }
        if pass < cfg.inline_passes {
            let mut inliner = Inline {
                next: prog.next_var,
                size_limit: cfg.inline_size,
                called: callees(&prog.body),
                bodies: FxHashMap::default(),
                stats: &mut stats,
                budget: 4000,
            };
            inliner.go(&mut prog.body);
            prog.next_var = inliner.next;
        }
        check(pass, prog)?;
    }
    Ok(stats)
}

/// What a variable is known to be bound to.
#[derive(Clone, Debug)]
enum Def {
    Record(Vec<(Value, Cty)>, usize),
    Select(Value, usize),
    /// The operator and its first argument, all wrap/unwrap
    /// cancellation looks at.
    Pure(PureOp, Option<Value>),
}

struct Contract<'s> {
    stats: &'s mut OptStats,
    next: u32,
    uses: FxHashMap<CVar, u32>,
    calls: FxHashMap<CVar, u32>,
    defs: FxHashMap<CVar, Def>,
    subst: FxHashMap<CVar, Value>,
    /// Bodies of functions to inline at their unique call site.
    pending_inline: FxHashMap<CVar, FunDef>,
    changed: bool,
}

impl<'s> Contract<'s> {
    fn new(stats: &'s mut OptStats, next: u32) -> Contract<'s> {
        Contract {
            stats,
            next,
            uses: FxHashMap::default(),
            calls: FxHashMap::default(),
            defs: FxHashMap::default(),
            subst: FxHashMap::default(),
            pending_inline: FxHashMap::default(),
            changed: false,
        }
    }

    // ----- census ---------------------------------------------------------

    fn use_val(&mut self, v: &Value) {
        if let Value::Var(x) | Value::Label(x) = v {
            *self.uses.entry(*x).or_insert(0) += 1;
        }
    }

    fn census(&mut self, e: &Cexp) {
        match e {
            Cexp::Record { fields, rest, .. } => {
                fields.iter().for_each(|(v, _)| self.use_val(v));
                self.census(rest);
            }
            Cexp::Select { rec, rest, .. } => {
                self.use_val(rec);
                self.census(rest);
            }
            Cexp::Pure { args, rest, .. }
            | Cexp::Alloc { args, rest, .. }
            | Cexp::Look { args, rest, .. }
            | Cexp::Set { args, rest, .. } => {
                args.iter().for_each(|v| self.use_val(v));
                self.census(rest);
            }
            Cexp::Switch {
                v, arms, default, ..
            } => {
                self.use_val(v);
                arms.iter().for_each(|a| self.census(a));
                self.census(default);
            }
            Cexp::Branch { args, tru, fls, .. } => {
                args.iter().for_each(|v| self.use_val(v));
                self.census(tru);
                self.census(fls);
            }
            Cexp::Fix { funs, rest } => {
                funs.iter().for_each(|f| self.census(&f.body));
                self.census(rest);
            }
            Cexp::App { f, args } => {
                if let Value::Var(x) | Value::Label(x) = f {
                    *self.calls.entry(*x).or_insert(0) += 1;
                }
                self.use_val(f);
                args.iter().for_each(|v| self.use_val(v));
            }
            Cexp::Halt { v } => self.use_val(v),
        }
    }

    fn n_uses(&self, v: CVar) -> u32 {
        self.uses.get(&v).copied().unwrap_or(0)
    }

    // ----- rewriting ---------------------------------------------------------

    fn val(&self, v: Value) -> Value {
        match v {
            Value::Var(x) => match self.subst.get(&x) {
                Some(v2) => self.val(v2.clone()),
                None => Value::Var(x),
            },
            other => other,
        }
    }

    fn vals(&self, vs: Vec<Value>) -> Vec<Value> {
        vs.into_iter().map(|v| self.val(v)).collect()
    }

    fn go(&mut self, e: Cexp) -> Cexp {
        match e {
            Cexp::Record {
                fields,
                nflt,
                dst,
                mut rest,
            } => {
                let fields: Vec<(Value, Cty)> =
                    fields.into_iter().map(|(v, c)| (self.val(v), c)).collect();
                if self.n_uses(dst) == 0 {
                    self.changed = true;
                    self.stats.dead += 1;
                    return self.go(*rest);
                }
                // Record-copy elimination: all fields selected in order
                // from one same-length record.
                if let Some(orig) = self.record_copy_of(&fields, nflt) {
                    self.changed = true;
                    self.stats.record_copies += 1;
                    self.subst.insert(dst, orig);
                    return self.go(*rest);
                }
                self.defs.insert(dst, Def::Record(fields.clone(), nflt));
                *rest = self.go(*rest);
                Cexp::Record {
                    fields,
                    nflt,
                    dst,
                    rest,
                }
            }
            Cexp::Select {
                rec,
                word_off,
                flt,
                dst,
                cty,
                mut rest,
            } => {
                let rec = self.val(rec);
                if self.n_uses(dst) == 0 {
                    self.changed = true;
                    self.stats.dead += 1;
                    return self.go(*rest);
                }
                // Select from a known record.
                if let Value::Var(r) = &rec {
                    if let Some(Def::Record(fields, nflt)) = self.defs.get(r) {
                        let idx = physical_index(fields, *nflt, word_off, flt);
                        if let Some((v, _)) = idx.and_then(|i| fields.get(i)) {
                            let v = v.clone();
                            self.changed = true;
                            self.subst.insert(dst, self.val(v));
                            return self.go(*rest);
                        }
                    }
                }
                self.defs.insert(dst, Def::Select(rec.clone(), word_off));
                *rest = self.go(*rest);
                Cexp::Select {
                    rec,
                    word_off,
                    flt,
                    dst,
                    cty,
                    rest,
                }
            }
            Cexp::Pure {
                op,
                args,
                dst,
                cty,
                mut rest,
            } => {
                let args = self.vals(args);
                if self.n_uses(dst) == 0 {
                    self.changed = true;
                    self.stats.dead += 1;
                    return self.go(*rest);
                }
                // Constant folding.
                if let Some(v) = fold_pure(op, &args) {
                    self.changed = true;
                    self.subst.insert(dst, v);
                    return self.go(*rest);
                }
                // Wrap/unwrap pair cancellation (paper §5.2).
                if let Some(v) = self.cancel_wrap(op, &args) {
                    self.changed = true;
                    self.stats.wrap_cancelled += 1;
                    self.subst.insert(dst, v);
                    return self.go(*rest);
                }
                // Pointer casts of a known record are free.
                if matches!(op, PureOp::PWrap | PureOp::PUnwrap) {
                    if let Some(Value::Var(a)) = args.first().map(|v| self.val(v.clone())) {
                        if matches!(self.defs.get(&a), Some(Def::Record(..))) {
                            self.changed = true;
                            self.stats.wrap_cancelled += 1;
                            self.subst.insert(dst, Value::Var(a));
                            return self.go(*rest);
                        }
                    }
                }
                self.defs.insert(dst, Def::Pure(op, args.first().cloned()));
                *rest = self.go(*rest);
                Cexp::Pure {
                    op,
                    args,
                    dst,
                    cty,
                    rest,
                }
            }
            Cexp::Alloc {
                op,
                args,
                dst,
                mut rest,
            } => {
                let args = self.vals(args);
                if self.n_uses(dst) == 0 {
                    self.changed = true;
                    self.stats.dead += 1;
                    return self.go(*rest);
                }
                *rest = self.go(*rest);
                Cexp::Alloc {
                    op,
                    args,
                    dst,
                    rest,
                }
            }
            Cexp::Look {
                op,
                args,
                dst,
                cty,
                mut rest,
            } => {
                let args = self.vals(args);
                if self.n_uses(dst) == 0 {
                    self.changed = true;
                    self.stats.dead += 1;
                    return self.go(*rest);
                }
                *rest = self.go(*rest);
                Cexp::Look {
                    op,
                    args,
                    dst,
                    cty,
                    rest,
                }
            }
            Cexp::Set { op, args, mut rest } => {
                let args = self.vals(args);
                *rest = self.go(*rest);
                Cexp::Set { op, args, rest }
            }
            Cexp::Switch {
                v,
                lo,
                arms,
                mut default,
            } => {
                let v = self.val(v);
                if let Value::Int(n) = v {
                    self.changed = true;
                    let idx = n - lo;
                    if idx >= 0 && (idx as usize) < arms.len() {
                        let arm = arms.into_iter().nth(idx as usize).expect("in range");
                        return self.go(arm);
                    }
                    return self.go(*default);
                }
                let arms = arms.into_iter().map(|a| self.go(a)).collect();
                *default = self.go(*default);
                Cexp::Switch {
                    v,
                    lo,
                    arms,
                    default,
                }
            }
            Cexp::Branch {
                op,
                args,
                mut tru,
                mut fls,
            } => {
                let args = self.vals(args);
                if let Some(cond) = fold_branch(op, &args) {
                    self.changed = true;
                    return self.go(if cond { *tru } else { *fls });
                }
                *tru = self.go(*tru);
                *fls = self.go(*fls);
                Cexp::Branch { op, args, tru, fls }
            }
            Cexp::Fix { funs, mut rest } => {
                let mut kept: Vec<FunDef> = funs
                    .into_iter()
                    .filter_map(|f| {
                        let uses = self.n_uses(f.name);
                        if uses == 0 {
                            self.changed = true;
                            self.stats.dead += 1;
                            return None;
                        }
                        let calls = self.calls.get(&f.name).copied().unwrap_or(0);
                        // Beta-contraction: exactly one occurrence, and it
                        // is a call.
                        if uses == 1 && calls == 1 {
                            self.changed = true;
                            self.stats.beta += 1;
                            self.pending_inline.insert(f.name, f);
                            return None;
                        }
                        // Eta: fn f(x...) = g(x...)  =>  f := g.
                        if let Cexp::App { f: g, args } = &*f.body {
                            let params_match = args.len() == f.params.len()
                                && args
                                    .iter()
                                    .zip(&f.params)
                                    .all(|(a, (p, _))| matches!(a, Value::Var(x) if x == p));
                            let self_free = !matches!(g, Value::Var(x) if *x == f.name);
                            if params_match && self_free {
                                self.changed = true;
                                self.subst.insert(f.name, g.clone());
                                return None;
                            }
                        }
                        Some(f)
                    })
                    .collect();
                for f in &mut kept {
                    let body = std::mem::replace(&mut *f.body, Cexp::Halt { v: Value::Int(0) });
                    *f.body = self.go(body);
                }
                *rest = self.go(*rest);
                if kept.is_empty() {
                    *rest
                } else {
                    Cexp::Fix { funs: kept, rest }
                }
            }
            Cexp::App { f, args } => {
                let f = self.val(f);
                let args = self.vals(args);
                if let Value::Var(x) | Value::Label(x) = &f {
                    if let Some(def) = self.pending_inline.remove(x) {
                        // Inline the once-called function: bind params to
                        // args.
                        let mut body = *def.body;
                        for ((p, _), a) in def.params.iter().zip(&args) {
                            self.subst.insert(*p, a.clone());
                        }
                        body = self.go(body);
                        return body;
                    }
                }
                Cexp::App { f, args }
            }
            Cexp::Halt { v } => Cexp::Halt { v: self.val(v) },
        }
    }

    fn record_copy_of(&self, fields: &[(Value, Cty)], _nflt: usize) -> Option<Value> {
        let first = fields.first()?;
        let Value::Var(v0) = &first.0 else {
            return None;
        };
        let Def::Select(orig, 0) = self.defs.get(v0)? else {
            return None;
        };
        let orig = orig.clone();
        // The original record must have exactly this many fields.
        if let Value::Var(r) = &orig {
            match self.defs.get(r) {
                Some(Def::Record(ofields, _)) if ofields.len() == fields.len() => {}
                _ => return None,
            }
        } else {
            return None;
        }
        // All subsequent fields must be successive selects from it; only
        // handle the all-word case (offsets equal indices).
        for (i, (v, c)) in fields.iter().enumerate() {
            if *c == Cty::Flt {
                return None;
            }
            let Value::Var(x) = v else { return None };
            match self.defs.get(x) {
                Some(Def::Select(r, off)) if *r == orig && *off == i => {}
                _ => return None,
            }
        }
        Some(orig)
    }

    fn cancel_wrap(&self, op: PureOp, args: &[Value]) -> Option<Value> {
        let inverse = match op {
            PureOp::FUnwrap => PureOp::FWrap,
            PureOp::FWrap => PureOp::FUnwrap,
            PureOp::IUnwrap => PureOp::IWrap,
            PureOp::IWrap => PureOp::IUnwrap,
            PureOp::PUnwrap => PureOp::PWrap,
            PureOp::PWrap => PureOp::PUnwrap,
            _ => return None,
        };
        // Unwrap(Wrap(x)) = x always; Wrap(Unwrap(y)) = y because the
        // unwrapped value originated from a box of the same type.
        let Value::Var(a) = args.first()? else {
            return None;
        };
        match self.defs.get(a)? {
            Def::Pure(op2, arg) if *op2 == inverse => arg.clone(),
            _ => None,
        }
    }
}

/// Physical field list is words-first, floats (2 words each) after.
fn physical_index(
    fields: &[(Value, Cty)],
    nflt: usize,
    word_off: usize,
    flt: bool,
) -> Option<usize> {
    let nwords = fields.len() - nflt;
    if flt {
        let idx = word_off.checked_sub(nwords)? / 2;
        if idx < nflt {
            Some(nwords + idx)
        } else {
            None
        }
    } else if word_off < nwords {
        Some(word_off)
    } else {
        None
    }
}

/// SML floor division (`div`): the quotient rounded toward negative
/// infinity, so `7 div ~2 = ~4` and `~7 div 2 = ~4`. This is **not**
/// Rust's `/` (truncation) nor `i64::div_euclid` (which rounds *up* for
/// negative divisors). Wrapping at the boundary: `i64::MIN div ~1`
/// wraps to `i64::MIN`, matching the VM's ALU. The divisor must be
/// nonzero — zero divisors are a runtime trap, never folded.
pub fn floor_div(a: i64, b: i64) -> i64 {
    let q = a.wrapping_div(b);
    let r = a.wrapping_rem(b);
    if r != 0 && (r < 0) != (b < 0) {
        q.wrapping_sub(1)
    } else {
        q
    }
}

/// SML floor modulus (`mod`): the remainder paired with [`floor_div`],
/// taking the *divisor's* sign, so the quotient–remainder law
/// `a = b * (a div b) + (a mod b)` holds for every sign combination
/// (e.g. `7 mod ~2 = ~1`). The divisor must be nonzero.
pub fn floor_mod(a: i64, b: i64) -> i64 {
    let r = a.wrapping_rem(b);
    if r != 0 && (r < 0) != (b < 0) {
        r.wrapping_add(b)
    } else {
        r
    }
}

fn fold_pure(op: PureOp, args: &[Value]) -> Option<Value> {
    use PureOp::*;
    match (op, args) {
        (IAdd, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.wrapping_add(*b))),
        (ISub, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.wrapping_sub(*b))),
        (IMul, [Value::Int(a), Value::Int(b)]) => Some(Value::Int(a.wrapping_mul(*b))),
        // Floor semantics matching the VM ALU; a zero divisor refuses to
        // fold so the runtime zero test (and its `Div` raise / Fault)
        // survives optimization.
        (IDiv, [Value::Int(a), Value::Int(b)]) if *b != 0 => Some(Value::Int(floor_div(*a, *b))),
        (IMod, [Value::Int(a), Value::Int(b)]) if *b != 0 => Some(Value::Int(floor_mod(*a, *b))),
        (INeg, [Value::Int(a)]) => Some(Value::Int(a.wrapping_neg())),
        (FAdd, [Value::Real(a), Value::Real(b)]) => Some(Value::Real(a + b)),
        (FSub, [Value::Real(a), Value::Real(b)]) => Some(Value::Real(a - b)),
        (FMul, [Value::Real(a), Value::Real(b)]) => Some(Value::Real(a * b)),
        (FNeg, [Value::Real(a)]) => Some(Value::Real(-a)),
        (IntToReal, [Value::Int(a)]) => Some(Value::Real(*a as f64)),
        (Floor, [Value::Real(a)]) => Some(Value::Int(a.floor() as i64)),
        (StrSize, [Value::Str(s)]) => Some(Value::Int(s.len() as i64)),
        _ => None,
    }
}

fn fold_branch(op: BranchOp, args: &[Value]) -> Option<bool> {
    use BranchOp::*;
    match (op, args) {
        (ILt, [Value::Int(a), Value::Int(b)]) => Some(a < b),
        (ILe, [Value::Int(a), Value::Int(b)]) => Some(a <= b),
        (IGt, [Value::Int(a), Value::Int(b)]) => Some(a > b),
        (IGe, [Value::Int(a), Value::Int(b)]) => Some(a >= b),
        (IEq, [Value::Int(a), Value::Int(b)]) => Some(a == b),
        (INe, [Value::Int(a), Value::Int(b)]) => Some(a != b),
        (FLt, [Value::Real(a), Value::Real(b)]) => Some(a < b),
        (FLe, [Value::Real(a), Value::Real(b)]) => Some(a <= b),
        (FGt, [Value::Real(a), Value::Real(b)]) => Some(a > b),
        (FGe, [Value::Real(a), Value::Real(b)]) => Some(a >= b),
        (FEq, [Value::Real(a), Value::Real(b)]) => Some(a == b),
        (FNe, [Value::Real(a), Value::Real(b)]) => Some(a != b),
        (StrEq, [Value::Str(a), Value::Str(b)]) => Some(a == b),
        (StrNe, [Value::Str(a), Value::Str(b)]) => Some(a != b),
        (IsBoxed, [Value::Int(_)]) => Some(false),
        (IsBoxed, [Value::Str(_)]) => Some(true),
        _ => None,
    }
}

// ----- inline expansion ----------------------------------------------------

struct Inline<'s> {
    next: u32,
    size_limit: usize,
    /// The functions some `App` of the tree names as the pass starts.
    /// Only these can be inlined: freshly inlined bodies are not
    /// revisited, so no other call site is ever looked up.
    called: FxHashSet<CVar>,
    bodies: FxHashMap<CVar, FunDef>,
    stats: &'s mut OptStats,
    budget: i64,
}

impl Inline<'_> {
    /// Expands, in place, every call to a registered small function.
    fn go(&mut self, e: &mut Cexp) {
        match e {
            Cexp::Fix { funs, rest } => {
                for f in funs.iter() {
                    if self.called.contains(&f.name)
                        && size_at_most(&f.body, self.size_limit)
                        && !calls_self(f)
                    {
                        self.bodies.insert(f.name, f.clone());
                    }
                }
                for f in funs.iter_mut() {
                    self.go(&mut f.body);
                }
                self.go(rest);
            }
            Cexp::App { f, args } => {
                if self.budget <= 0 {
                    return;
                }
                let (Value::Var(x) | Value::Label(x)) = f else {
                    return;
                };
                let Some(def) = self.bodies.get(x) else {
                    return;
                };
                if def.params.len() != args.len() {
                    return;
                }
                self.stats.inlined += 1;
                self.budget -= def.body.size() as i64;
                let mut map: FxHashMap<CVar, Value> = FxHashMap::default();
                for ((p, _), a) in def.params.iter().zip(args.iter()) {
                    map.insert(*p, a.clone());
                }
                // Do not recursively inline into the freshly inlined body
                // this pass.
                *e = rename(&def.body, &mut map, &mut self.next);
            }
            Cexp::Record { rest, .. }
            | Cexp::Select { rest, .. }
            | Cexp::Pure { rest, .. }
            | Cexp::Alloc { rest, .. }
            | Cexp::Look { rest, .. }
            | Cexp::Set { rest, .. } => self.go(rest),
            Cexp::Switch { arms, default, .. } => {
                for a in arms {
                    self.go(a);
                }
                self.go(default);
            }
            Cexp::Branch { tru, fls, .. } => {
                self.go(tru);
                self.go(fls);
            }
            Cexp::Halt { .. } => {}
        }
    }
}

/// The functions some `App` of `e` names.
fn callees(e: &Cexp) -> FxHashSet<CVar> {
    fn walk(e: &Cexp, out: &mut FxHashSet<CVar>) {
        match e {
            Cexp::Record { rest, .. }
            | Cexp::Select { rest, .. }
            | Cexp::Pure { rest, .. }
            | Cexp::Alloc { rest, .. }
            | Cexp::Look { rest, .. }
            | Cexp::Set { rest, .. } => walk(rest, out),
            Cexp::Switch { arms, default, .. } => {
                for a in arms {
                    walk(a, out);
                }
                walk(default, out);
            }
            Cexp::Branch { tru, fls, .. } => {
                walk(tru, out);
                walk(fls, out);
            }
            Cexp::Fix { funs, rest } => {
                for f in funs {
                    walk(&f.body, out);
                }
                walk(rest, out);
            }
            Cexp::App {
                f: Value::Var(x) | Value::Label(x),
                ..
            } => {
                out.insert(*x);
            }
            Cexp::App { .. } | Cexp::Halt { .. } => {}
        }
    }
    let mut out = FxHashSet::default();
    walk(e, &mut out);
    out
}

/// Whether `e` has at most `limit` nodes ([`Cexp::size`]). Stops
/// counting once the limit is passed, so a large body costs no more
/// than a small one.
fn size_at_most(e: &Cexp, limit: usize) -> bool {
    /// Charges each node to `left`; false once a node finds it empty.
    fn fits(e: &Cexp, left: &mut usize) -> bool {
        if *left == 0 {
            return false;
        }
        *left -= 1;
        match e {
            Cexp::Record { rest, .. }
            | Cexp::Select { rest, .. }
            | Cexp::Pure { rest, .. }
            | Cexp::Alloc { rest, .. }
            | Cexp::Look { rest, .. }
            | Cexp::Set { rest, .. } => fits(rest, left),
            Cexp::Branch { tru, fls, .. } => fits(tru, left) && fits(fls, left),
            Cexp::Switch { arms, default, .. } => {
                fits(default, left) && arms.iter().all(|a| fits(a, left))
            }
            Cexp::Fix { funs, rest } => {
                fits(rest, left) && funs.iter().all(|f| fits(&f.body, left))
            }
            Cexp::App { .. } | Cexp::Halt { .. } => true,
        }
    }
    let mut left = limit;
    fits(e, &mut left)
}

fn calls_self(f: &FunDef) -> bool {
    fn uses(e: &Cexp, name: CVar) -> bool {
        let val = |v: &Value| matches!(v, Value::Var(x) | Value::Label(x) if *x == name);
        match e {
            Cexp::Record { fields, rest, .. } => {
                fields.iter().any(|(v, _)| val(v)) || uses(rest, name)
            }
            Cexp::Select { rec, rest, .. } => val(rec) || uses(rest, name),
            Cexp::Pure { args, rest, .. }
            | Cexp::Alloc { args, rest, .. }
            | Cexp::Look { args, rest, .. }
            | Cexp::Set { args, rest, .. } => args.iter().any(val) || uses(rest, name),
            Cexp::Switch {
                v, arms, default, ..
            } => val(v) || arms.iter().any(|a| uses(a, name)) || uses(default, name),
            Cexp::Branch { args, tru, fls, .. } => {
                args.iter().any(val) || uses(tru, name) || uses(fls, name)
            }
            Cexp::Fix { funs, rest } => {
                funs.iter().any(|g| uses(&g.body, name)) || uses(rest, name)
            }
            Cexp::App { f, args } => val(f) || args.iter().any(val),
            Cexp::Halt { v } => val(v),
        }
    }
    uses(&f.body, f.name)
}

/// Alpha-renames an expression, substituting via `map` and freshening
/// every binder.
pub fn rename(e: &Cexp, map: &mut FxHashMap<CVar, Value>, next: &mut u32) -> Cexp {
    let fresh = |next: &mut u32| {
        let v = *next;
        *next += 1;
        v
    };
    let rv = |v: &Value, map: &FxHashMap<CVar, Value>| match v {
        Value::Var(x) => map.get(x).cloned().unwrap_or(Value::Var(*x)),
        Value::Label(x) => match map.get(x) {
            Some(Value::Var(y)) => Value::Label(*y),
            _ => Value::Label(*x),
        },
        other => other.clone(),
    };
    match e {
        Cexp::Record {
            fields,
            nflt,
            dst,
            rest,
        } => {
            let fields = fields.iter().map(|(v, c)| (rv(v, map), *c)).collect();
            let nd = fresh(next);
            map.insert(*dst, Value::Var(nd));
            Cexp::Record {
                fields,
                nflt: *nflt,
                dst: nd,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::Select {
            rec,
            word_off,
            flt,
            dst,
            cty,
            rest,
        } => {
            let rec = rv(rec, map);
            let nd = fresh(next);
            map.insert(*dst, Value::Var(nd));
            Cexp::Select {
                rec,
                word_off: *word_off,
                flt: *flt,
                dst: nd,
                cty: *cty,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::Pure {
            op,
            args,
            dst,
            cty,
            rest,
        } => {
            let args = args.iter().map(|v| rv(v, map)).collect();
            let nd = fresh(next);
            map.insert(*dst, Value::Var(nd));
            Cexp::Pure {
                op: *op,
                args,
                dst: nd,
                cty: *cty,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::Alloc {
            op,
            args,
            dst,
            rest,
        } => {
            let args = args.iter().map(|v| rv(v, map)).collect();
            let nd = fresh(next);
            map.insert(*dst, Value::Var(nd));
            Cexp::Alloc {
                op: *op,
                args,
                dst: nd,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::Look {
            op,
            args,
            dst,
            cty,
            rest,
        } => {
            let args = args.iter().map(|v| rv(v, map)).collect();
            let nd = fresh(next);
            map.insert(*dst, Value::Var(nd));
            Cexp::Look {
                op: *op,
                args,
                dst: nd,
                cty: *cty,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::Set { op, args, rest } => Cexp::Set {
            op: *op,
            args: args.iter().map(|v| rv(v, map)).collect(),
            rest: Box::new(rename(rest, map, next)),
        },
        Cexp::Switch {
            v,
            lo,
            arms,
            default,
        } => Cexp::Switch {
            v: rv(v, map),
            lo: *lo,
            arms: arms.iter().map(|a| rename(a, map, next)).collect(),
            default: Box::new(rename(default, map, next)),
        },
        Cexp::Branch { op, args, tru, fls } => Cexp::Branch {
            op: *op,
            args: args.iter().map(|v| rv(v, map)).collect(),
            tru: Box::new(rename(tru, map, next)),
            fls: Box::new(rename(fls, map, next)),
        },
        Cexp::Fix { funs, rest } => {
            for f in funs {
                let nf = fresh(next);
                map.insert(f.name, Value::Var(nf));
            }
            let funs = funs
                .iter()
                .map(|f| {
                    let name = match map.get(&f.name) {
                        Some(Value::Var(x)) => *x,
                        _ => f.name,
                    };
                    let params: Vec<(CVar, Cty)> = f
                        .params
                        .iter()
                        .map(|(p, c)| {
                            let np = fresh(next);
                            map.insert(*p, Value::Var(np));
                            (np, *c)
                        })
                        .collect();
                    FunDef {
                        kind: f.kind,
                        name,
                        params,
                        body: Box::new(rename(&f.body, map, next)),
                    }
                })
                .collect();
            Cexp::Fix {
                funs,
                rest: Box::new(rename(rest, map, next)),
            }
        }
        Cexp::App { f, args } => Cexp::App {
            f: rv(f, map),
            args: args.iter().map(|v| rv(v, map)).collect(),
        },
        Cexp::Halt { v } => Cexp::Halt { v: rv(v, map) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `size_at_most` answers `size() <= limit` at every limit, on a
    /// tree with each kind of branching node.
    #[test]
    fn size_at_most_agrees_with_size() {
        let halt = |v| Box::new(Cexp::Halt { v: Value::Var(v) });
        let branch = Cexp::Branch {
            op: BranchOp::ILt,
            args: vec![Value::Var(1), Value::Int(0)],
            tru: halt(1),
            fls: Box::new(Cexp::App {
                f: Value::Var(0),
                args: vec![Value::Var(1)],
            }),
        };
        let e = Cexp::Fix {
            funs: vec![FunDef {
                kind: FunKind::Known,
                name: 0,
                params: vec![(1, Cty::Int)],
                body: Box::new(branch),
            }],
            rest: Box::new(Cexp::Switch {
                v: Value::Var(2),
                lo: 0,
                arms: vec![Cexp::Halt { v: Value::Int(0) }, *halt(2)],
                default: halt(3),
            }),
        };
        assert_eq!(e.size(), 8);
        for limit in 0..=9 {
            assert_eq!(size_at_most(&e, limit), limit >= 8, "limit {limit}");
        }
        assert_eq!(callees(&e), FxHashSet::from_iter([0]));
    }

    /// The SML definition: `a div b` floors, `a mod b` takes the
    /// divisor's sign, and the quotient–remainder law ties them.
    #[test]
    fn floor_div_mod_all_sign_combinations() {
        let cases = [
            (7i64, 2i64, 3i64, 1i64),
            (-7, 2, -4, 1),
            (7, -2, -4, -1),
            (-7, -2, 3, -1),
            (6, 3, 2, 0),
            (-6, 3, -2, 0),
            (6, -3, -2, 0),
            (-6, -3, 2, 0),
            (0, 5, 0, 0),
            (0, -5, 0, 0),
        ];
        for (a, b, q, r) in cases {
            assert_eq!(floor_div(a, b), q, "{a} div {b}");
            assert_eq!(floor_mod(a, b), r, "{a} mod {b}");
            assert_eq!(
                b.wrapping_mul(floor_div(a, b))
                    .wrapping_add(floor_mod(a, b)),
                a
            );
        }
    }

    #[test]
    fn floor_div_wraps_at_i64_min() {
        assert_eq!(floor_div(i64::MIN, -1), i64::MIN);
        assert_eq!(floor_mod(i64::MIN, -1), 0);
        assert_eq!(floor_div(i64::MIN, 1), i64::MIN);
        assert_eq!(floor_mod(i64::MIN, 1), 0);
        assert_eq!(floor_div(i64::MIN, -2), i64::MIN / -2);
        assert_eq!(floor_mod(i64::MIN, -2), 0);
    }

    #[test]
    fn fold_pure_matches_floor_semantics() {
        use PureOp::*;
        let int = |v: Option<Value>| match v {
            Some(Value::Int(n)) => n,
            other => panic!("expected an int fold, got {other:?}"),
        };
        for (a, b) in [(7i64, 2i64), (-7, 2), (7, -2), (-7, -2)] {
            let args = [Value::Int(a), Value::Int(b)];
            assert_eq!(int(fold_pure(IDiv, &args)), floor_div(a, b));
            assert_eq!(int(fold_pure(IMod, &args)), floor_mod(a, b));
        }
    }

    /// Boundary folds must wrap (like the VM ALU), not panic.
    #[test]
    fn fold_pure_survives_i64_min() {
        use PureOp::*;
        let args = [Value::Int(i64::MIN), Value::Int(-1)];
        assert_eq!(fold_pure(IDiv, &args), Some(Value::Int(i64::MIN)));
        assert_eq!(fold_pure(IMod, &args), Some(Value::Int(0)));
        assert_eq!(
            fold_pure(INeg, &[Value::Int(i64::MIN)]),
            Some(Value::Int(i64::MIN))
        );
    }

    /// A zero divisor must never fold: the runtime zero test that
    /// raises `Div` (or the VM Fault) has to survive optimization.
    #[test]
    fn fold_pure_refuses_zero_divisors() {
        use PureOp::*;
        let args = [Value::Int(5), Value::Int(0)];
        assert_eq!(fold_pure(IDiv, &args), None);
        assert_eq!(fold_pure(IMod, &args), None);
    }
}
