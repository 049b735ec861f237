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
use crate::varmap::{set, VarMap};

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
    // One set of per-variable tables for every round and pass.
    let mut ctx = Contract::new(&mut stats);
    for pass in 0..=cfg.inline_passes {
        // Contraction fixpoint.
        for _ in 0..cfg.max_rounds {
            ctx.start_round(prog.next_var);
            ctx.census(&prog.body);
            ctx.go(&mut prog.body);
            ctx.stats.rounds += 1;
            if !ctx.changed {
                break;
            }
        }
        if pass < cfg.inline_passes {
            let mut inliner = Inline {
                next: prog.next_var,
                size_limit: cfg.inline_size,
                called: callees(&prog.body, prog.next_var),
                bodies: VarMap::default(),
                map: VarMap::default(),
                stats: ctx.stats,
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
    /// A record: its `len` fields are `Contract::fields[start..]`, the
    /// last `nflt` of them raw floats.
    Record {
        start: u32,
        len: u32,
        nflt: u32,
    },
    Select(Value, usize),
    /// The operator and its first argument, all wrap/unwrap
    /// cancellation looks at.
    Pure(PureOp, Option<Value>),
}

/// One contraction round's knowledge of each variable, in tables
/// indexed by its number. They are cleared, not rebuilt, at the start
/// of every round, so a whole optimization allocates them once.
struct Contract<'s> {
    stats: &'s mut OptStats,
    uses: Vec<u32>,
    calls: Vec<u32>,
    defs: VarMap<Def>,
    /// The field values of the round's known records, one run per
    /// [`Def::Record`].
    fields: Vec<Value>,
    subst: VarMap<Value>,
    /// Bodies of functions to inline at their unique call site; `None`
    /// once inlined.
    pending_inline: VarMap<Option<FunDef>>,
    changed: bool,
}

impl<'s> Contract<'s> {
    fn new(stats: &'s mut OptStats) -> Contract<'s> {
        Contract {
            stats,
            uses: Vec::new(),
            calls: Vec::new(),
            defs: VarMap::default(),
            fields: Vec::new(),
            subst: VarMap::default(),
            pending_inline: VarMap::default(),
            changed: false,
        }
    }

    /// Forgets the last round: zero counts for `n_vars` variables and no
    /// definitions, substitutions or pending bodies.
    fn start_round(&mut self, n_vars: u32) {
        for counts in [&mut self.uses, &mut self.calls] {
            counts.clear();
            counts.resize(n_vars as usize, 0);
        }
        self.defs.clear();
        self.fields.clear();
        self.subst.clear();
        self.pending_inline.clear();
        self.changed = false;
    }

    /// Counts every occurrence of each variable, and the calls among
    /// them.
    fn census(&mut self, e: &Cexp) {
        for b in &e.binds {
            b.operands().for_each(|v| self.count_use(v));
            for f in b.funs() {
                self.census(&f.body);
            }
        }
        e.exit.operands().for_each(|v| self.count_use(v));
        if let Exit::App {
            f: Value::Var(x) | Value::Label(x),
            ..
        } = &e.exit
        {
            bump(&mut self.calls, *x);
        }
        e.exit.arms().for_each(|a| self.census(a));
    }

    fn count_use(&mut self, v: &Value) {
        if let Value::Var(x) | Value::Label(x) = v {
            bump(&mut self.uses, *x);
        }
    }

    fn n_uses(&self, v: CVar) -> u32 {
        self.uses.get(v as usize).copied().unwrap_or(0)
    }

    // ----- rewriting ---------------------------------------------------------

    fn val(&self, v: Value) -> Value {
        match v {
            Value::Var(x) => match self.subst.get(x) {
                Some(v2) => self.val(v2.clone()),
                None => Value::Var(x),
            },
            other => other,
        }
    }

    /// Applies the substitution to `v` in place.
    fn subst_in(&self, v: &mut Value) {
        *v = self.val(std::mem::replace(v, Value::Int(0)));
    }

    /// Contracts a run in place. A binding is deleted by not keeping
    /// it; an exit that folds to one of its arms, or calls a function
    /// pending beta-contraction, is replaced by that run's bindings and
    /// exit, so the loop goes on in the spliced run.
    fn go(&mut self, e: &mut Cexp) {
        e.binds.retain_mut(|b| self.keep(b));
        while let Some(mut next) = self.exit(&mut e.exit) {
            next.binds.retain_mut(|b| self.keep(b));
            e.binds.append(&mut next.binds);
            e.exit = next.exit;
        }
    }

    /// Contracts one binding; false when it is to be deleted.
    fn keep(&mut self, b: &mut Bind) -> bool {
        b.operands_mut().for_each(|v| self.subst_in(v));
        if let Some((dst, _)) = b.binder() {
            if self.n_uses(dst) == 0 {
                self.changed = true;
                self.stats.dead += 1;
                return false;
            }
        }
        match b {
            Bind::Record { fields, nflt, dst } => {
                // Record-copy elimination: all fields selected in order
                // from one same-length record.
                if let Some(orig) = self.record_copy_of(fields) {
                    self.changed = true;
                    self.stats.record_copies += 1;
                    self.subst.insert(*dst, orig);
                    return false;
                }
                let start = self.fields.len() as u32;
                self.fields.extend(fields.iter().map(|(v, _)| v.clone()));
                let (len, nflt) = (fields.len() as u32, *nflt as u32);
                self.defs.insert(*dst, Def::Record { start, len, nflt });
            }
            Bind::Select {
                rec,
                word_off,
                flt,
                dst,
                ..
            } => {
                // Select from a known record.
                if let Some(&Def::Record { start, len, nflt }) = self.var_def(rec) {
                    let fields = &self.fields[start as usize..(start + len) as usize];
                    let idx = physical_index(fields.len(), nflt as usize, *word_off, *flt);
                    if let Some(v) = idx.and_then(|i| fields.get(i)) {
                        let v = self.val(v.clone());
                        self.changed = true;
                        self.subst.insert(*dst, v);
                        return false;
                    }
                }
                self.defs.insert(*dst, Def::Select(rec.clone(), *word_off));
            }
            Bind::Pure { op, args, dst, .. } => {
                if let Some((v, cancelled)) = self.pure_value(*op, args) {
                    self.changed = true;
                    self.stats.wrap_cancelled += cancelled as u64;
                    self.subst.insert(*dst, v);
                    return false;
                }
                self.defs
                    .insert(*dst, Def::Pure(*op, args.first().cloned()));
            }
            Bind::Fix { funs } => {
                funs.retain_mut(|f| self.keep_fun(f));
                for f in funs.iter_mut() {
                    self.go(&mut f.body);
                }
                return !funs.is_empty();
            }
            Bind::Alloc { .. } | Bind::Look { .. } | Bind::Set { .. } => {}
        }
        true
    }

    /// Whether a `Fix`-bound function stays: false when it is dead,
    /// pending beta-contraction at its one call (its parameters and body
    /// move to `pending_inline`), or an eta-redex.
    fn keep_fun(&mut self, f: &mut FunDef) -> bool {
        let uses = self.n_uses(f.name);
        if uses == 0 {
            self.changed = true;
            self.stats.dead += 1;
            return false;
        }
        let calls = self.calls.get(f.name as usize).copied().unwrap_or(0);
        // Beta-contraction: exactly one occurrence, and it is a call.
        if uses == 1 && calls == 1 {
            self.changed = true;
            self.stats.beta += 1;
            let pending = FunDef {
                kind: f.kind,
                name: f.name,
                params: std::mem::take(&mut f.params),
                body: std::mem::take(&mut f.body),
            };
            self.pending_inline.insert(f.name, Some(pending));
            return false;
        }
        // Eta: fn f(x...) = g(x...)  =>  f := g.
        if let (true, Exit::App { f: g, args }) = (f.body.binds.is_empty(), &f.body.exit) {
            let params_match = args.len() == f.params.len()
                && args
                    .iter()
                    .zip(&f.params)
                    .all(|(a, (p, _))| matches!(a, Value::Var(x) if x == p));
            let self_free = !matches!(g, Value::Var(x) if *x == f.name);
            if params_match && self_free {
                self.changed = true;
                self.subst.insert(f.name, g.clone());
                return false;
            }
        }
        true
    }

    /// Contracts an exit in place, recursing into its arms; returns the
    /// run that replaces it when it folds or beta-contracts.
    fn exit(&mut self, x: &mut Exit) -> Option<Cexp> {
        x.operands_mut().for_each(|v| self.subst_in(v));
        match x {
            Exit::Switch {
                v: Value::Int(n),
                lo,
                arms,
                default,
            } => {
                self.changed = true;
                let idx = *n - *lo;
                if idx >= 0 && (idx as usize) < arms.len() {
                    return Some(arms.swap_remove(idx as usize));
                }
                return Some(std::mem::take(&mut **default));
            }
            Exit::Branch { op, args, tru, fls } => {
                if let Some(cond) = fold_branch(*op, args) {
                    self.changed = true;
                    return Some(std::mem::take(if cond { &mut **tru } else { &mut **fls }));
                }
            }
            Exit::App {
                f: Value::Var(f) | Value::Label(f),
                args,
            } => {
                // Inline the once-called function: bind params to args.
                let def = self.pending_inline.get_mut(*f)?.take()?;
                for ((p, _), a) in def.params.iter().zip(args.iter()) {
                    self.subst.insert(*p, a.clone());
                }
                return Some(def.body);
            }
            _ => {}
        }
        x.arms_mut().for_each(|a| self.go(a));
        None
    }

    /// The value a `Pure` binding contracts to, if any, and whether that
    /// cancels a wrap: constant folding first, then wrap/unwrap pair
    /// cancellation (paper §5.2), of which a pointer cast of a known
    /// record is one.
    fn pure_value(&self, op: PureOp, args: &[Value]) -> Option<(Value, bool)> {
        if let Some(v) = fold_pure(op, args) {
            return Some((v, false));
        }
        if let Some(v) = self.cancel_wrap(op, args) {
            return Some((v, true));
        }
        let a = args.first()?;
        let cast = matches!(op, PureOp::PWrap | PureOp::PUnwrap)
            && matches!(self.var_def(a), Some(Def::Record { .. }));
        cast.then(|| (a.clone(), true))
    }

    /// What the variable `v` names is bound to, if known.
    fn var_def(&self, v: &Value) -> Option<&Def> {
        match v {
            Value::Var(x) => self.defs.get(*x),
            _ => None,
        }
    }

    fn record_copy_of(&self, fields: &[(Value, Cty)]) -> Option<Value> {
        let first = fields.first()?;
        let Value::Var(v0) = &first.0 else {
            return None;
        };
        let Def::Select(orig, 0) = self.defs.get(*v0)? else {
            return None;
        };
        let orig = orig.clone();
        // The original record must have exactly this many fields.
        if let Value::Var(r) = &orig {
            match self.defs.get(*r) {
                Some(Def::Record { len, .. }) if *len as usize == fields.len() => {}
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
            match self.defs.get(*x) {
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
        match self.defs.get(*a)? {
            Def::Pure(op2, arg) if *op2 == inverse => arg.clone(),
            _ => None,
        }
    }
}

/// Adds one to variable `x`'s count.
fn bump(counts: &mut Vec<u32>, x: CVar) {
    let x = x as usize;
    if x >= counts.len() {
        counts.resize(x + 1, 0);
    }
    counts[x] += 1;
}

/// Physical field list is words-first, floats (2 words each) after.
fn physical_index(nfields: usize, nflt: usize, word_off: usize, flt: bool) -> Option<usize> {
    let nwords = nfields - nflt;
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
    /// Whether some `App` of the tree names each variable as the pass
    /// starts. Only these can be inlined: freshly inlined bodies are
    /// not revisited, so no other call site is ever looked up.
    called: Vec<bool>,
    bodies: VarMap<FunDef>,
    /// The renaming of the body being inlined, cleared after each.
    map: VarMap<Value>,
    stats: &'s mut OptStats,
    budget: i64,
}

impl Inline<'_> {
    /// Expands, in place, every call to a registered small function: the
    /// renamed callee's run is spliced onto the caller's, whose exit it
    /// takes.
    fn go(&mut self, e: &mut Cexp) {
        for b in e.binds.iter_mut() {
            let Bind::Fix { funs } = b else { continue };
            for f in funs.iter() {
                if self.called.get(f.name as usize) == Some(&true)
                    && size_at_most(&f.body, self.size_limit)
                    && !calls_self(f)
                {
                    self.bodies.insert(f.name, f.clone());
                }
            }
            for f in funs.iter_mut() {
                self.go(&mut f.body);
            }
        }
        if let Exit::App {
            f: Value::Var(x) | Value::Label(x),
            args,
        } = &e.exit
        {
            match self.bodies.get(*x) {
                Some(def) if self.budget > 0 && def.params.len() == args.len() => {
                    self.stats.inlined += 1;
                    self.budget -= def.body.size() as i64;
                    for ((p, _), a) in def.params.iter().zip(args.iter()) {
                        self.map.insert(*p, a.clone());
                    }
                    // Do not recursively inline into the freshly inlined
                    // body this pass.
                    let mut body = def.body.clone();
                    rename(&mut body, &mut self.map, &mut self.next);
                    self.map.clear();
                    e.binds.append(&mut body.binds);
                    e.exit = body.exit;
                }
                _ => {}
            }
            return;
        }
        e.exit.arms_mut().for_each(|a| self.go(a));
    }
}

/// Whether some `App` of `e` names each of its `n_vars` variables.
fn callees(e: &Cexp, n_vars: u32) -> Vec<bool> {
    let mut called = vec![false; n_vars as usize];
    for r in e.runs() {
        if let Exit::App {
            f: Value::Var(x) | Value::Label(x),
            ..
        } = &r.exit
        {
            set(&mut called, *x, true, false);
        }
    }
    called
}

/// Whether `e` has at most `limit` nodes ([`Cexp::size`]). Stops
/// counting once the limit is passed, so a large body costs no more
/// than a small one.
fn size_at_most(e: &Cexp, limit: usize) -> bool {
    /// Charges each run to `left`; false once a run finds too little.
    fn fits(e: &Cexp, left: &mut usize) -> bool {
        let Some(l) = left.checked_sub(e.binds.len() + 1) else {
            return false;
        };
        *left = l;
        let mut bodies = e.binds.iter().flat_map(Bind::funs);
        bodies.all(|f| fits(&f.body, left)) && e.exit.arms().all(|a| fits(a, left))
    }
    let mut left = limit;
    fits(e, &mut left)
}

fn calls_self(f: &FunDef) -> bool {
    fn uses(e: &Cexp, name: CVar) -> bool {
        let is_name = |v: &Value| matches!(v, Value::Var(x) | Value::Label(x) if *x == name);
        e.binds.iter().any(|b| b.operands().any(is_name))
            || e.exit.operands().any(is_name)
            || e.binds
                .iter()
                .flat_map(Bind::funs)
                .any(|g| uses(&g.body, name))
            || e.exit.arms().any(|a| uses(a, name))
    }
    uses(&f.body, f.name)
}

/// Alpha-renames an expression in place, substituting via `map` and
/// freshening every binder.
fn rename(e: &mut Cexp, map: &mut VarMap<Value>, next: &mut u32) {
    let fresh = |old: CVar, map: &mut VarMap<Value>, next: &mut u32| {
        let v = *next;
        *next += 1;
        map.insert(old, Value::Var(v));
        v
    };
    let rv = |v: &mut Value, map: &VarMap<Value>| match v {
        Value::Var(x) => {
            if let Some(new) = map.get(*x) {
                *v = new.clone();
            }
        }
        Value::Label(x) => {
            if let Some(Value::Var(y)) = map.get(*x) {
                *x = *y;
            }
        }
        _ => {}
    };
    for b in e.binds.iter_mut() {
        b.operands_mut().for_each(|v| rv(v, map));
        if let Some(dst) = b.binder_mut() {
            *dst = fresh(*dst, map, next);
        }
        if let Bind::Fix { funs } = b {
            for f in funs.iter_mut() {
                f.name = fresh(f.name, map, next);
            }
            for f in funs.iter_mut() {
                for (p, _) in f.params.iter_mut() {
                    *p = fresh(*p, map, next);
                }
                rename(&mut f.body, map, next);
            }
        }
    }
    e.exit.operands_mut().for_each(|v| rv(v, map));
    for a in e.exit.arms_mut() {
        rename(a, map, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `size_at_most` answers `size() <= limit` at every limit, on a
    /// tree with each kind of branching node.
    #[test]
    fn size_at_most_agrees_with_size() {
        let halt = |v| Cexp::from(Exit::Halt { v: Value::Var(v) });
        let call = Exit::App {
            f: Value::Var(0),
            args: vec![Value::Var(1)],
        };
        let branch = Exit::Branch {
            op: BranchOp::ILt,
            args: vec![Value::Var(1), Value::Int(0)],
            tru: Box::new(halt(1)),
            fls: Box::new(call.into()),
        };
        let fix = Bind::Fix {
            funs: vec![FunDef {
                kind: FunKind::Known,
                name: 0,
                params: vec![(1, Cty::Int)],
                body: branch.into(),
            }],
        };
        let switch = Exit::Switch {
            v: Value::Var(2),
            lo: 0,
            arms: vec![Exit::Halt { v: Value::Int(0) }.into(), halt(2)],
            default: Box::new(halt(3)),
        };
        let e = Cexp::new(vec![fix], switch);
        assert_eq!(e.size(), 8);
        for limit in 0..=9 {
            assert_eq!(size_at_most(&e, limit), limit >= 8, "limit {limit}");
        }
        assert_eq!(callees(&e, 3), [true, false, false]);
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
