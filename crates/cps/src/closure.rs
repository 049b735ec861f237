//! Closure conversion (paper §5.2, after Shao-Appel "space-efficient
//! closure representations").
//!
//! Produces a first-order program: every function is closed and lifted to
//! the top level.
//!
//! * **Known** functions (every occurrence is a call head) are
//!   lambda-lifted: their free variables become extra parameters.
//! * **Escaping** functions (and continuations that escape, e.g. through
//!   `callcc`) get flat closure records `[code, fv1, ..., fvn]`; raw
//!   float free variables are stored unboxed in the closure (the `ffb`
//!   benefit). Mutually recursive escaping siblings share one free-
//!   variable layout so each can rebuild the others' closures without
//!   cyclic records; self-references use the closure parameter itself.
//! * Unknown calls load the code pointer from offset 0 and pass the
//!   closure as the first argument.

use crate::convert::CpsProgram;
use crate::cps::*;
use crate::varmap::set;
use std::collections::VecDeque;
use std::ops::Range;
use std::rc::Rc;

/// A first-order CPS program: closed functions plus an entry expression.
#[derive(Debug)]
pub struct ClosedProgram {
    /// All functions, closed, in lifting order.
    pub funs: Vec<FunDef>,
    /// The program entry.
    pub entry: Cexp,
    /// First unused variable id.
    pub next_var: u32,
}

/// Converts a CPS program to first-order form.
pub fn close(prog: CpsProgram) -> ClosedProgram {
    let n = prog.next_var as usize;
    let mut var_cty = vec![Cty::Ptr(None); n];
    // Every function, numbered in the order its `Fix` is met: `fun_of[v]`
    // is the number of the function `v` names (`NOT_FUN` for other
    // variables), and `group[i]` the numbers of function `i`'s `Fix`.
    let mut funs: Vec<&FunDef> = Vec::new();
    let mut fun_of = vec![NOT_FUN; n];
    let mut group: Vec<Range<usize>> = Vec::new();
    for b in prog.body.runs().flat_map(|r| &r.binds) {
        if let Some((v, c)) = b.binder() {
            set(&mut var_cty, v, c, Cty::Ptr(None));
        }
        let fix = b.funs();
        let members = funs.len()..funs.len() + fix.len();
        for f in fix {
            set(&mut fun_of, f.name, funs.len() as u32, NOT_FUN);
            set(&mut var_cty, f.name, Cty::Fun, Cty::Ptr(None));
            for &(p, c) in &f.params {
                set(&mut var_cty, p, c, Cty::Ptr(None));
            }
            funs.push(f);
            group.push(members.clone());
        }
    }
    let fun_ix = |v: CVar| match fun_of.get(v as usize) {
        Some(&i) if i != NOT_FUN => Some(i as usize),
        _ => None,
    };
    let escaping = collect_escaping(&prog.body, |v| fun_ix(v).is_some(), n);
    let escapes = |v: CVar| escaping.get(v as usize) == Some(&true);

    // Free variables per function (raw: vars minus params, including
    // function names), each sorted.
    let mut raw_fvs = free_vars(&funs, n);

    // Fixpoint: a reference to a known function adds that function's
    // free variables; a reference to an escaping non-sibling function
    // adds its closure variable (the function name itself stands for the
    // closure value after rewriting, so keep the name). Sibling
    // references stay (handled via the shared layout).
    let mut add = Vec::new();
    loop {
        let mut changed = false;
        for f in 0..funs.len() {
            for &v in &raw_fvs[f] {
                // Known callee: its (current) free vars are needed at the
                // call site. Escaping function names count too — they
                // stand for closure values the caller must have in hand.
                let Some(g) = fun_ix(v).filter(|_| !escapes(v)) else {
                    continue;
                };
                for &w in &raw_fvs[g] {
                    let needed = fun_ix(w).is_none() || escapes(w);
                    if needed && raw_fvs[f].binary_search(&w).is_err() {
                        add.push(w);
                    }
                }
            }
            if !add.is_empty() {
                raw_fvs[f].append(&mut add);
                raw_fvs[f].sort_unstable();
                raw_fvs[f].dedup();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Per-function closure environment: ordered fv list excluding all
    // function names (those are rebuilt or passed as extra args).
    // Escaping groups share the union of their members' lists.
    let mut env_of: Vec<Rc<[CVar]>> = raw_fvs
        .iter()
        .enumerate()
        .map(|(f, fv)| {
            // Escaping callees contribute their closure values, which
            // after rewriting are ordinary variables bound where their
            // Fix was: keep them in the env under the function's name.
            // Exception: an *escaping* function never carries a
            // same-group escaping sibling (it rebuilds the sibling's
            // closure from the shared layout instead, avoiding cyclic
            // records).
            let same_group =
                |v: CVar| escapes(funs[f].name) && fun_ix(v).is_some_and(|g| group[f].contains(&g));
            let keep = |&&v: &&CVar| match fun_ix(v) {
                None => true,
                Some(_) => escapes(v) && !same_group(v),
            };
            // `fv` is sorted and has no duplicates, so neither has this.
            fv.iter().filter(keep).copied().collect()
        })
        .collect();
    // Union environments for escaping sibling groups.
    for (f, members) in group.iter().enumerate() {
        if members.start != f {
            continue;
        }
        let esc: Vec<usize> = members.clone().filter(|&s| escapes(funs[s].name)).collect();
        if esc.len() > 1 {
            let mut union: Vec<CVar> = esc
                .iter()
                .flat_map(|&s| env_of[s].iter().copied())
                .collect();
            union.sort_unstable();
            union.dedup();
            let union: Rc<[CVar]> = union.into();
            for &s in &esc {
                env_of[s] = Rc::clone(&union);
            }
        }
    }

    let mut cl = Closer {
        next: prog.next_var,
        var_cty,
        fun_of,
        escaping,
        env_of,
        sub: Subst::default(),
        out: Vec::new(),
    };
    let entry = cl.go(prog.body);
    ClosedProgram {
        funs: cl.out,
        entry,
        next_var: cl.next,
    }
}

/// `fun_of`'s entry for a variable that names no function.
const NOT_FUN: u32 = u32::MAX;

/// A function escapes if its name appears anywhere but an App head:
/// whether each variable names an escaping function.
fn collect_escaping(e: &Cexp, is_fun: impl Fn(CVar) -> bool, n: usize) -> Vec<bool> {
    let mut out = vec![false; n];
    let mut mark = |v: &Value| {
        if let Value::Var(x) | Value::Label(x) = v {
            if is_fun(*x) {
                set(&mut out, *x, true, false);
            }
        }
    };
    for run in e.runs() {
        run.binds
            .iter()
            .for_each(|b| b.operands().for_each(&mut mark));
        match &run.exit {
            // The head of an App does not escape; its arguments do.
            Exit::App { args, .. } => args.iter().for_each(&mut mark),
            x => x.operands().for_each(&mut mark),
        }
    }
    out
}

/// The raw free variables of each function of `funs`, sorted: the
/// variables its body uses that neither the body binds nor are its
/// name or parameters. Binders are unique, so this is what a walk that
/// tracks scopes finds. `bound[v]` holds the number of the last
/// function whose walk met `v`'s binder, so no set is built or copied.
fn free_vars(funs: &[&FunDef], n: usize) -> Vec<Vec<CVar>> {
    let mut bound = vec![NOT_FUN; n];
    let mut uses = Vec::new();
    funs.iter()
        .enumerate()
        .map(|(i, f)| {
            let stamp = i as u32;
            let mut bind = |v: CVar| set(&mut bound, v, stamp, NOT_FUN);
            bind(f.name);
            f.params.iter().for_each(|&(p, _)| bind(p));
            let mut used = |v: &Value| {
                if let Value::Var(x) | Value::Label(x) = v {
                    uses.push(*x);
                }
            };
            for run in f.body.runs() {
                for b in &run.binds {
                    b.operands().for_each(&mut used);
                    if let Some((d, _)) = b.binder() {
                        bind(d);
                    }
                    for g in b.funs() {
                        bind(g.name);
                        g.params.iter().for_each(|&(p, _)| bind(p));
                    }
                }
                run.exit.operands().for_each(&mut used);
            }
            let mut free: Vec<CVar> = uses
                .drain(..)
                .filter(|&v| bound.get(v as usize) != Some(&stamp))
                .collect();
            free.sort_unstable();
            free.dedup();
            free
        })
        .collect()
}

/// The substitution of the function being rewritten, by variable: an
/// entry counts only while the function that made it is the one being
/// rewritten, and the entries a nested function overwrote are put back
/// when its rewrite ends. Every entry maps a variable to a variable.
#[derive(Default)]
struct Subst {
    /// The function being rewritten, and the next number to hand out.
    owner: u32,
    next_owner: u32,
    /// `(owner, variable)` per variable; `NOT_FUN` owns no entry.
    slot: Vec<(u32, CVar)>,
    /// Entries overwritten by the functions being rewritten.
    saved: Vec<(CVar, (u32, CVar))>,
}

impl Subst {
    fn get(&self, v: CVar) -> Option<CVar> {
        match self.slot.get(v as usize) {
            Some(&(owner, x)) if owner == self.owner => Some(x),
            _ => None,
        }
    }

    /// `v` mapped through the substitution.
    fn value(&self, v: CVar) -> Value {
        Value::Var(self.get(v).unwrap_or(v))
    }

    fn insert(&mut self, v: CVar, x: CVar) {
        let at = v as usize;
        if at >= self.slot.len() {
            self.slot.resize(at + 1, (NOT_FUN, 0));
        }
        let old = std::mem::replace(&mut self.slot[at], (self.owner, x));
        self.saved.push((v, old));
    }

    /// Starts an empty substitution for a nested function; returns what
    /// [`Subst::leave`] needs to come back.
    fn enter(&mut self) -> (u32, usize) {
        let back = (self.owner, self.saved.len());
        self.next_owner += 1;
        self.owner = self.next_owner;
        back
    }

    fn leave(&mut self, (owner, mark): (u32, usize)) {
        for (v, old) in self.saved.drain(mark..).rev() {
            self.slot[v as usize] = old;
        }
        self.owner = owner;
    }
}

struct Closer {
    next: u32,
    var_cty: Vec<Cty>,
    fun_of: Vec<u32>,
    escaping: Vec<bool>,
    env_of: Vec<Rc<[CVar]>>,
    sub: Subst,
    out: Vec<FunDef>,
}

impl Closer {
    fn fresh(&mut self) -> CVar {
        let v = self.next;
        self.next += 1;
        v
    }

    fn cty(&self, v: CVar) -> Cty {
        self.var_cty
            .get(v as usize)
            .copied()
            .unwrap_or(Cty::Ptr(None))
    }

    fn is_fun(&self, v: CVar) -> bool {
        self.fun_of.get(v as usize).is_some_and(|&i| i != NOT_FUN)
    }

    fn escapes(&self, v: CVar) -> bool {
        self.escaping.get(v as usize) == Some(&true)
    }

    /// The closure environment of function `f`.
    fn env_of(&self, f: CVar) -> Rc<[CVar]> {
        Rc::clone(&self.env_of[self.fun_of[f as usize] as usize])
    }

    /// Maps `v` through the substitution in place.
    fn rv(&self, v: &mut Value) {
        if let Value::Var(x) = v {
            if let Some(new) = self.sub.get(*x) {
                *x = new;
            }
        }
    }

    /// Rewrites a run; `self.sub` maps original variables to local
    /// values (closure selects, closure params, rebuilt siblings). Each
    /// `Fix` is lifted out and replaced by the closures of its escaping
    /// members.
    fn go(&mut self, e: Cexp) -> Cexp {
        // In place: each binding comes off the front of the run and its
        // rewrite goes on the back.
        let mut binds = e.binds;
        for _ in 0..binds.len() {
            let Some(mut b) = binds.pop_front() else {
                break;
            };
            if let Bind::Fix { funs } = b {
                self.close_fix(funs, &mut binds);
            } else {
                b.operands_mut().for_each(|v| self.rv(v));
                binds.push_back(b);
            }
        }
        let exit = match e.exit {
            Exit::App { f, args } => self.close_app(f, args, &mut binds),
            mut x => {
                x.operands_mut().for_each(|v| self.rv(v));
                for a in x.arms_mut() {
                    *a = self.go(std::mem::take(a));
                }
                x
            }
        };
        Cexp { binds, exit }
    }

    fn close_app(&mut self, f: Value, mut args: Vec<Value>, binds: &mut VecDeque<Bind>) -> Exit {
        args.iter_mut().for_each(|v| self.rv(v));
        match &f {
            Value::Var(x) | Value::Label(x) if self.is_fun(*x) => {
                if self.escapes(*x) {
                    // Direct call to an escaping function: pass its
                    // closure (which `sub` maps its name to) plus args.
                    args.insert(0, self.sub.value(*x));
                } else {
                    // Known function: append its environment.
                    let env = self.env_of(*x);
                    args.extend(env.iter().map(|&v| self.sub.value(v)));
                }
                Exit::App {
                    f: Value::Label(*x),
                    args,
                }
            }
            _ => {
                // Unknown call: load the code pointer from slot 0.
                let mut fval = f;
                self.rv(&mut fval);
                let code = self.fresh();
                args.insert(0, fval.clone());
                binds.push_back(Bind::Select {
                    rec: fval,
                    word_off: 0,
                    flt: false,
                    dst: code,
                    cty: Cty::Fun,
                });
                Exit::App {
                    f: Value::Var(code),
                    args,
                }
            }
        }
    }

    /// The fields of function `f`'s closure record, each free variable
    /// mapped through the substitution, and how many are raw floats.
    fn closure_fields(&self, f: CVar) -> (Vec<(Value, Cty)>, usize) {
        let env = self.env_of(f);
        let is_word = |v: &&CVar| self.cty(**v).is_word();
        let field = |&v: &CVar| (self.sub.value(v), self.cty(v));
        let mut fields = vec![(Value::Label(f), Cty::Fun)];
        fields.extend(env.iter().filter(is_word).map(field));
        let words = fields.len();
        fields.extend(env.iter().filter(|v| !is_word(v)).map(field));
        let nflt = fields.len() - words;
        (fields, nflt)
    }

    /// Lifts the functions of one `Fix`, then pushes onto `binds` the
    /// closure record of each escaping member.
    fn close_fix(&mut self, funs: Vec<FunDef>, binds: &mut VecDeque<Bind>) {
        let esc_members: Vec<CVar> = funs
            .iter()
            .filter(|f| self.escapes(f.name))
            .map(|f| f.name)
            .collect();

        for f in funs {
            let name = f.name;
            let env = self.env_of(name);
            let back = self.sub.enter();
            if self.escapes(name) {
                // Closure layout: [code, word fvs..., float fvs...].
                let cparam = self.fresh();
                self.sub.insert(name, cparam);
                // Compute physical offsets within the closure.
                let words: Vec<CVar> = env
                    .iter()
                    .copied()
                    .filter(|v| self.cty(*v).is_word())
                    .collect();
                let floats: Vec<CVar> = env
                    .iter()
                    .copied()
                    .filter(|v| !self.cty(*v).is_word())
                    .collect();
                let mut selects: Vec<(CVar, usize, bool, Cty)> = Vec::new();
                for (i, v) in words.iter().enumerate() {
                    let nv = self.fresh();
                    self.sub.insert(*v, nv);
                    selects.push((nv, 1 + i, false, self.cty(*v)));
                }
                for (j, v) in floats.iter().enumerate() {
                    let nv = self.fresh();
                    self.sub.insert(*v, nv);
                    selects.push((nv, 1 + words.len() + 2 * j, true, Cty::Flt));
                }
                // Sibling escaping functions: rebuild their closures from
                // our (shared-layout) environment.
                let mut sibling_builds: Vec<(CVar, CVar)> = Vec::new();
                for s in &esc_members {
                    if *s != name {
                        let nv = self.fresh();
                        self.sub.insert(*s, nv);
                        sibling_builds.push((nv, *s));
                    }
                }
                let mut body = self.go(f.body);
                // Emit sibling closure rebuilds (reverse order so the
                // first build is outermost).
                for (nv, s) in sibling_builds.into_iter().rev() {
                    let (fields, nflt) = self.closure_fields(s);
                    let record = Bind::Record {
                        fields,
                        nflt,
                        dst: nv,
                    };
                    body = Cexp::bind(record, body);
                }
                // Emit the free-variable selects.
                for (nv, off, flt, cty) in selects.into_iter().rev() {
                    let select = Bind::Select {
                        rec: Value::Var(cparam),
                        word_off: off,
                        flt,
                        dst: nv,
                        cty,
                    };
                    body = Cexp::bind(select, body);
                }
                let mut params = vec![(cparam, Cty::Ptr(None))];
                params.extend(f.params.iter().copied());
                self.out.push(FunDef {
                    kind: f.kind,
                    name,
                    params,
                    body,
                });
            } else {
                // Known function: free variables become parameters under
                // their original names, so its substitution is empty
                // (escaping siblings it uses are in `env`, passed by the
                // caller).
                let body = self.go(f.body);
                let mut params = f.params;
                params.extend(env.iter().map(|&v| (v, self.cty(v))));
                self.out.push(FunDef {
                    kind: f.kind,
                    name,
                    params,
                    body,
                });
            }
            self.sub.leave(back);
        }

        // In the continuation of the Fix, build closures for the
        // escaping members.
        for name in esc_members {
            let (fields, nflt) = self.closure_fields(name);
            binds.push_back(Bind::Record {
                fields,
                nflt,
                dst: name,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{CpsConfig, SpreadMode};
    use smlc::Variant;
    use std::collections::{BTreeSet, HashSet};

    /// The reference [`free_vars`] is checked against: a walk that
    /// tracks scopes, copying the bound set for each nested function.
    fn free_vars_by_scope(f: &FunDef) -> BTreeSet<CVar> {
        fn vars(e: &Cexp, bound: &mut HashSet<CVar>, free: &mut BTreeSet<CVar>) {
            let val = |v: &Value, bound: &HashSet<CVar>, free: &mut BTreeSet<CVar>| {
                if let Value::Var(x) | Value::Label(x) = v {
                    if !bound.contains(x) {
                        free.insert(*x);
                    }
                }
            };
            for b in &e.binds {
                b.operands().for_each(|v| val(v, bound, free));
                bound.extend(b.binder().map(|(d, _)| d));
                let funs = b.funs();
                bound.extend(funs.iter().map(|f| f.name));
                for f in funs {
                    let mut b2 = bound.clone();
                    b2.extend(f.params.iter().map(|(p, _)| *p));
                    vars(&f.body, &mut b2, free);
                }
            }
            e.exit.operands().for_each(|v| val(v, bound, free));
            e.exit.arms().for_each(|a| vars(a, bound, free));
        }
        let mut bound: HashSet<CVar> = HashSet::from([f.name]);
        bound.extend(f.params.iter().map(|(p, _)| *p));
        let mut free = BTreeSet::new();
        vars(&f.body, &mut bound, &mut free);
        free
    }

    /// A figure benchmark under one variant, as the compiler's phases
    /// hand it to [`close`].
    fn optimized(src: &str, v: Variant) -> CpsProgram {
        let prog = sml_ast::parse(src).expect("figure programs parse");
        let mut elab = sml_elab::elaborate(&prog).expect("figure programs elaborate");
        if v.uses_mtd() {
            sml_elab::minimum_typing(&mut elab);
        }
        let mut tr = sml_lambda::translate(&elab, &v.lambda_config());
        // `Variant::cps_config`, restated: this crate's own types.
        let spread = match v {
            Variant::Nrp => SpreadMode::None,
            Variant::Fag => SpreadMode::KnownOnly,
            _ => SpreadMode::ByType,
        };
        let cfg = CpsConfig {
            spread,
            ..CpsConfig::default()
        };
        let mut cps = crate::convert(&tr.lexp, &mut tr.interner, tr.n_vars, &cfg);
        crate::optimize(&mut cps, &crate::OptConfig::default());
        cps
    }

    #[test]
    fn free_variables_equal_a_scope_walk_on_figure_programs() {
        let mut checked = 0;
        for b in smlc_bench::benchmarks() {
            let src = b.source();
            for v in Variant::ALL {
                let prog = optimized(&src, v);
                let runs = prog.body.runs().flat_map(|r| &r.binds);
                let funs: Vec<&FunDef> = runs.flat_map(Bind::funs).collect();
                let fvs = free_vars(&funs, prog.next_var as usize);
                for (f, fv) in funs.iter().zip(&fvs) {
                    let want: Vec<CVar> = free_vars_by_scope(f).into_iter().collect();
                    assert_eq!(*fv, want, "{} [{v}]: function v{}", b.name, f.name);
                    checked += 1;
                }
            }
        }
        assert!(checked > 2_500, "only {checked} functions checked");
    }
}
