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
use sml_ast::{FxHashMap, FxHashSet};
use std::collections::{BTreeSet, VecDeque};

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
    let mut var_cty = FxHashMap::default();
    collect_ctys(&prog.body, &mut var_cty);
    let mut fnnames = FxHashSet::default();
    collect_fn_names(&prog.body, &mut fnnames);
    let mut escaping = FxHashSet::default();
    collect_escaping(&prog.body, &fnnames, &mut escaping);

    // Free variables per function (raw: vars minus params, including
    // function names).
    let mut raw_fvs: FxHashMap<CVar, BTreeSet<CVar>> = FxHashMap::default();
    let mut siblings: FxHashMap<CVar, Vec<CVar>> = FxHashMap::default();
    collect_fvs(&prog.body, &mut raw_fvs, &mut siblings);

    // Fixpoint: a reference to a known function adds that function's
    // free variables; a reference to an escaping non-sibling function
    // adds its closure variable (the function name itself stands for the
    // closure value after rewriting, so keep the name). Sibling
    // references stay (handled via the shared layout).
    loop {
        let mut changed = false;
        let names: Vec<CVar> = raw_fvs.keys().copied().collect();
        for f in names {
            let fv: Vec<CVar> = raw_fvs[&f].iter().copied().collect();
            let mut add = BTreeSet::new();
            for v in fv {
                if fnnames.contains(&v) && !escaping.contains(&v) {
                    // Known callee: its (current) free vars are needed at
                    // the call site. Escaping function names count too —
                    // they stand for closure values the caller must have
                    // in hand.
                    if let Some(gfv) = raw_fvs.get(&v) {
                        for w in gfv {
                            let needed = !fnnames.contains(w) || escaping.contains(w);
                            if needed && !raw_fvs[&f].contains(w) {
                                add.insert(*w);
                            }
                        }
                    }
                }
            }
            if !add.is_empty() {
                raw_fvs.get_mut(&f).expect("function present").extend(add);
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
    let mut env_of: FxHashMap<CVar, Vec<CVar>> = FxHashMap::default();
    for (f, fv) in &raw_fvs {
        let mut list: Vec<CVar> = fv
            .iter()
            .copied()
            .filter(|v| !fnnames.contains(v))
            .collect();
        // Escaping callees contribute their closure values, which after
        // rewriting are ordinary variables bound where their Fix was:
        // keep them in the env under the function's name. Exception:
        // an *escaping* function never carries a same-group escaping
        // sibling (it rebuilds the sibling's closure from the shared
        // layout instead, avoiding cyclic records).
        for v in fv {
            if escaping.contains(v) {
                let same_group =
                    escaping.contains(f) && siblings.get(f).is_some_and(|s| s.contains(v));
                if !same_group {
                    list.push(*v);
                }
            }
        }
        list.sort();
        list.dedup();
        env_of.insert(*f, list);
    }
    // Union environments for escaping sibling groups.
    let group_keys: Vec<CVar> = escaping.iter().copied().collect();
    for f in &group_keys {
        if let Some(sibs) = siblings.get(f) {
            let esc_sibs: Vec<CVar> = sibs
                .iter()
                .copied()
                .filter(|s| escaping.contains(s))
                .collect();
            if esc_sibs.len() > 1 {
                let mut union = BTreeSet::new();
                for s in &esc_sibs {
                    union.extend(env_of.get(s).into_iter().flatten().copied());
                }
                let u: Vec<CVar> = union.into_iter().collect();
                for s in &esc_sibs {
                    env_of.insert(*s, u.clone());
                }
            }
        }
    }

    let mut cl = Closer {
        next: prog.next_var,
        var_cty,
        fnnames,
        escaping,
        env_of,
        out: Vec::new(),
    };
    let entry = cl.go(prog.body, &FxHashMap::default());
    ClosedProgram {
        funs: cl.out,
        entry,
        next_var: cl.next,
    }
}

fn collect_ctys(e: &Cexp, out: &mut FxHashMap<CVar, Cty>) {
    for b in e.runs().flat_map(|r| &r.binds) {
        out.extend(b.binder());
        for f in b.funs() {
            out.insert(f.name, Cty::Fun);
            out.extend(f.params.iter().copied());
        }
    }
}

/// Maps `v` through `sub` in place.
fn rv(v: &mut Value, sub: &FxHashMap<CVar, Value>) {
    if let Value::Var(x) = v {
        if let Some(new) = sub.get(x) {
            *v = new.clone();
        }
    }
}

fn collect_fn_names(e: &Cexp, out: &mut FxHashSet<CVar>) {
    for b in e.runs().flat_map(|r| &r.binds) {
        out.extend(b.funs().iter().map(|f| f.name));
    }
}

/// A function escapes if its name appears anywhere but an App head.
fn collect_escaping(e: &Cexp, fnnames: &FxHashSet<CVar>, out: &mut FxHashSet<CVar>) {
    let mut mark = |v: &Value| {
        if let Value::Var(x) | Value::Label(x) = v {
            if fnnames.contains(x) {
                out.insert(*x);
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
}

/// Raw free variables of each function, and sibling groups.
fn collect_fvs(
    e: &Cexp,
    out: &mut FxHashMap<CVar, BTreeSet<CVar>>,
    siblings: &mut FxHashMap<CVar, Vec<CVar>>,
) {
    fn vars(e: &Cexp, bound: &mut FxHashSet<CVar>, free: &mut BTreeSet<CVar>) {
        let val = |v: &Value, bound: &FxHashSet<CVar>, free: &mut BTreeSet<CVar>| {
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
    for b in e.runs().flat_map(|r| &r.binds) {
        let funs = b.funs();
        let names: Vec<CVar> = funs.iter().map(|f| f.name).collect();
        for f in funs {
            let mut bound: FxHashSet<CVar> = FxHashSet::default();
            bound.insert(f.name);
            bound.extend(f.params.iter().map(|(p, _)| *p));
            let mut free = BTreeSet::new();
            vars(&f.body, &mut bound, &mut free);
            out.insert(f.name, free);
            siblings.insert(f.name, names.clone());
        }
    }
}

struct Closer {
    next: u32,
    var_cty: FxHashMap<CVar, Cty>,
    fnnames: FxHashSet<CVar>,
    escaping: FxHashSet<CVar>,
    env_of: FxHashMap<CVar, Vec<CVar>>,
    out: Vec<FunDef>,
}

impl Closer {
    fn fresh(&mut self) -> CVar {
        let v = self.next;
        self.next += 1;
        v
    }

    fn cty(&self, v: CVar) -> Cty {
        self.var_cty.get(&v).copied().unwrap_or(Cty::Ptr(None))
    }

    /// Rewrites a run; `sub` maps original variables to local values
    /// (closure selects, closure params, rebuilt siblings). Each `Fix`
    /// is lifted out and replaced by the closures of its escaping
    /// members.
    fn go(&mut self, e: Cexp, sub: &FxHashMap<CVar, Value>) -> Cexp {
        // In place: each binding comes off the front of the run and its
        // rewrite goes on the back.
        let mut binds = e.binds;
        for _ in 0..binds.len() {
            let Some(mut b) = binds.pop_front() else {
                break;
            };
            if let Bind::Fix { funs } = b {
                self.close_fix(funs, sub, &mut binds);
            } else {
                b.operands_mut().for_each(|v| rv(v, sub));
                binds.push_back(b);
            }
        }
        let exit = match e.exit {
            Exit::App { f, args } => self.close_app(f, args, sub, &mut binds),
            mut x => {
                x.operands_mut().for_each(|v| rv(v, sub));
                for a in x.arms_mut() {
                    *a = self.go(std::mem::take(a), sub);
                }
                x
            }
        };
        Cexp { binds, exit }
    }

    fn close_app(
        &mut self,
        f: Value,
        mut args: Vec<Value>,
        sub: &FxHashMap<CVar, Value>,
        binds: &mut VecDeque<Bind>,
    ) -> Exit {
        args.iter_mut().for_each(|v| rv(v, sub));
        match &f {
            Value::Var(x) | Value::Label(x) if self.fnnames.contains(x) => {
                if self.escaping.contains(x) {
                    // Direct call to an escaping function: pass its
                    // closure (which `sub` maps its name to) plus args.
                    let clos = sub.get(x).cloned().unwrap_or(Value::Var(*x));
                    args.insert(0, clos);
                } else {
                    // Known function: append its environment.
                    let env = self.env_of.get(x).cloned().unwrap_or_default();
                    for v in env {
                        args.push(sub.get(&v).cloned().unwrap_or(Value::Var(v)));
                    }
                }
                Exit::App {
                    f: Value::Label(*x),
                    args,
                }
            }
            _ => {
                // Unknown call: load the code pointer from slot 0.
                let mut fval = f;
                rv(&mut fval, sub);
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

    /// Lifts the functions of one `Fix`, then pushes onto `binds` the
    /// closure record of each escaping member.
    fn close_fix(
        &mut self,
        funs: Vec<FunDef>,
        sub: &FxHashMap<CVar, Value>,
        binds: &mut VecDeque<Bind>,
    ) {
        let esc_members: Vec<CVar> = funs
            .iter()
            .filter(|f| self.escaping.contains(&f.name))
            .map(|f| f.name)
            .collect();

        for f in funs {
            let name = f.name;
            let env = self.env_of.get(&name).cloned().unwrap_or_default();
            if self.escaping.contains(&name) {
                // Closure layout: [code, word fvs..., float fvs...].
                let cparam = self.fresh();
                let mut fsub: FxHashMap<CVar, Value> = FxHashMap::default();
                fsub.insert(name, Value::Var(cparam));
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
                    fsub.insert(*v, Value::Var(nv));
                    selects.push((nv, 1 + i, false, self.cty(*v)));
                }
                for (j, v) in floats.iter().enumerate() {
                    let nv = self.fresh();
                    fsub.insert(*v, Value::Var(nv));
                    selects.push((nv, 1 + words.len() + 2 * j, true, Cty::Flt));
                }
                // Sibling escaping functions: rebuild their closures from
                // our (shared-layout) environment.
                let mut sibling_builds: Vec<(CVar, CVar)> = Vec::new();
                for s in &esc_members {
                    if *s != name {
                        let nv = self.fresh();
                        fsub.insert(*s, Value::Var(nv));
                        sibling_builds.push((nv, *s));
                    }
                }
                let mut body = self.go(f.body, &fsub);
                // Emit sibling closure rebuilds (reverse order so the
                // first build is outermost).
                for (nv, s) in sibling_builds.into_iter().rev() {
                    let senv = self.env_of.get(&s).cloned().unwrap_or_default();
                    let mut fields = vec![(Value::Label(s), Cty::Fun)];
                    let mut nflt = 0;
                    for v in senv.iter().filter(|v| self.cty(**v).is_word()) {
                        fields.push((fsub[v].clone(), self.cty(*v)));
                    }
                    for v in senv.iter().filter(|v| !self.cty(**v).is_word()) {
                        fields.push((fsub[v].clone(), Cty::Flt));
                        nflt += 1;
                    }
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
                // their original names.
                let mut fsub: FxHashMap<CVar, Value> = FxHashMap::default();
                // References to escaping siblings inside a known function
                // are resolved through the caller-passed closure values
                // (they are part of `env` when used).
                let body = {
                    for s in &esc_members {
                        if env.contains(s) {
                            // Closure value passed as a parameter.
                            fsub.insert(*s, Value::Var(*s));
                        }
                    }
                    self.go(f.body, &fsub)
                };
                let mut params = f.params.clone();
                for v in &env {
                    params.push((*v, self.cty(*v)));
                }
                self.out.push(FunDef {
                    kind: f.kind,
                    name,
                    params,
                    body,
                });
            }
        }

        // In the continuation of the Fix, build closures for the
        // escaping members.
        for name in esc_members {
            let env = self.env_of.get(&name).cloned().unwrap_or_default();
            let mut fields = vec![(Value::Label(name), Cty::Fun)];
            let mut nflt = 0;
            for v in env.iter().filter(|v| self.cty(**v).is_word()) {
                fields.push((sub.get(v).cloned().unwrap_or(Value::Var(*v)), self.cty(*v)));
            }
            for v in env.iter().filter(|v| !self.cty(**v).is_word()) {
                fields.push((sub.get(v).cloned().unwrap_or(Value::Var(*v)), Cty::Flt));
                nflt += 1;
            }
            binds.push_back(Bind::Record {
                fields,
                nflt,
                dst: name,
            });
        }
    }
}
