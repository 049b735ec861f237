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
use std::collections::BTreeSet;

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
    match e {
        Cexp::Record {
            dst,
            rest,
            nflt,
            fields,
        } => {
            out.insert(*dst, Cty::Ptr(Some((fields.len() + *nflt) as u32)));
            collect_ctys(rest, out);
        }
        Cexp::Select { dst, cty, rest, .. } => {
            out.insert(*dst, *cty);
            collect_ctys(rest, out);
        }
        Cexp::Pure { dst, cty, rest, .. } => {
            out.insert(*dst, *cty);
            collect_ctys(rest, out);
        }
        Cexp::Alloc { dst, rest, .. } => {
            out.insert(*dst, Cty::Ptr(None));
            collect_ctys(rest, out);
        }
        Cexp::Look { dst, cty, rest, .. } => {
            out.insert(*dst, *cty);
            collect_ctys(rest, out);
        }
        Cexp::Set { rest, .. } => collect_ctys(rest, out),
        Cexp::Switch { arms, default, .. } => {
            arms.iter().for_each(|a| collect_ctys(a, out));
            collect_ctys(default, out);
        }
        Cexp::Branch { tru, fls, .. } => {
            collect_ctys(tru, out);
            collect_ctys(fls, out);
        }
        Cexp::Fix { funs, rest } => {
            for f in funs {
                out.insert(f.name, Cty::Fun);
                for (p, c) in &f.params {
                    out.insert(*p, *c);
                }
                collect_ctys(&f.body, out);
            }
            collect_ctys(rest, out);
        }
        Cexp::App { .. } | Cexp::Halt { .. } => {}
    }
}

fn collect_fn_names(e: &Cexp, out: &mut FxHashSet<CVar>) {
    match e {
        Cexp::Fix { funs, rest } => {
            for f in funs {
                out.insert(f.name);
                collect_fn_names(&f.body, out);
            }
            collect_fn_names(rest, out);
        }
        Cexp::Record { rest, .. }
        | Cexp::Select { rest, .. }
        | Cexp::Pure { rest, .. }
        | Cexp::Alloc { rest, .. }
        | Cexp::Look { rest, .. }
        | Cexp::Set { rest, .. } => collect_fn_names(rest, out),
        Cexp::Switch { arms, default, .. } => {
            arms.iter().for_each(|a| collect_fn_names(a, out));
            collect_fn_names(default, out);
        }
        Cexp::Branch { tru, fls, .. } => {
            collect_fn_names(tru, out);
            collect_fn_names(fls, out);
        }
        Cexp::App { .. } | Cexp::Halt { .. } => {}
    }
}

/// A function escapes if its name appears anywhere but an App head.
fn collect_escaping(e: &Cexp, fnnames: &FxHashSet<CVar>, out: &mut FxHashSet<CVar>) {
    let mark = |v: &Value, out: &mut FxHashSet<CVar>| {
        if let Value::Var(x) | Value::Label(x) = v {
            if fnnames.contains(x) {
                out.insert(*x);
            }
        }
    };
    match e {
        Cexp::Record { fields, rest, .. } => {
            fields.iter().for_each(|(v, _)| mark(v, out));
            collect_escaping(rest, fnnames, out);
        }
        Cexp::Select { rec, rest, .. } => {
            mark(rec, out);
            collect_escaping(rest, fnnames, out);
        }
        Cexp::Pure { args, rest, .. }
        | Cexp::Alloc { args, rest, .. }
        | Cexp::Look { args, rest, .. }
        | Cexp::Set { args, rest, .. } => {
            args.iter().for_each(|v| mark(v, out));
            collect_escaping(rest, fnnames, out);
        }
        Cexp::Switch {
            v, arms, default, ..
        } => {
            mark(v, out);
            arms.iter().for_each(|a| collect_escaping(a, fnnames, out));
            collect_escaping(default, fnnames, out);
        }
        Cexp::Branch { args, tru, fls, .. } => {
            args.iter().for_each(|v| mark(v, out));
            collect_escaping(tru, fnnames, out);
            collect_escaping(fls, fnnames, out);
        }
        Cexp::Fix { funs, rest } => {
            funs.iter()
                .for_each(|f| collect_escaping(&f.body, fnnames, out));
            collect_escaping(rest, fnnames, out);
        }
        Cexp::App { f, args } => {
            // The head does not escape; arguments do.
            let _ = f;
            args.iter().for_each(|v| mark(v, out));
        }
        Cexp::Halt { v } => mark(v, out),
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
        match e {
            Cexp::Record {
                fields, dst, rest, ..
            } => {
                fields.iter().for_each(|(v, _)| val(v, bound, free));
                bound.insert(*dst);
                vars(rest, bound, free);
            }
            Cexp::Select { rec, dst, rest, .. } => {
                val(rec, bound, free);
                bound.insert(*dst);
                vars(rest, bound, free);
            }
            Cexp::Pure {
                args, dst, rest, ..
            }
            | Cexp::Look {
                args, dst, rest, ..
            }
            | Cexp::Alloc {
                args, dst, rest, ..
            } => {
                args.iter().for_each(|v| val(v, bound, free));
                bound.insert(*dst);
                vars(rest, bound, free);
            }
            Cexp::Set { args, rest, .. } => {
                args.iter().for_each(|v| val(v, bound, free));
                vars(rest, bound, free);
            }
            Cexp::Switch {
                v, arms, default, ..
            } => {
                val(v, bound, free);
                arms.iter().for_each(|a| vars(a, bound, free));
                vars(default, bound, free);
            }
            Cexp::Branch { args, tru, fls, .. } => {
                args.iter().for_each(|v| val(v, bound, free));
                vars(tru, bound, free);
                vars(fls, bound, free);
            }
            Cexp::Fix { funs, rest } => {
                for f in funs {
                    bound.insert(f.name);
                }
                for f in funs {
                    let mut b2 = bound.clone();
                    for (p, _) in &f.params {
                        b2.insert(*p);
                    }
                    vars(&f.body, &mut b2, free);
                }
                vars(rest, bound, free);
            }
            Cexp::App { f, args } => {
                val(f, bound, free);
                args.iter().for_each(|v| val(v, bound, free));
            }
            Cexp::Halt { v } => val(v, bound, free),
        }
    }
    match e {
        Cexp::Fix { funs, rest } => {
            let names: Vec<CVar> = funs.iter().map(|f| f.name).collect();
            for f in funs {
                let mut bound: FxHashSet<CVar> = FxHashSet::default();
                bound.insert(f.name);
                for (p, _) in &f.params {
                    bound.insert(*p);
                }
                let mut free = BTreeSet::new();
                vars(&f.body, &mut bound.clone(), &mut free);
                out.insert(f.name, free);
                siblings.insert(f.name, names.clone());
                collect_fvs(&f.body, out, siblings);
            }
            collect_fvs(rest, out, siblings);
        }
        Cexp::Record { rest, .. }
        | Cexp::Select { rest, .. }
        | Cexp::Pure { rest, .. }
        | Cexp::Alloc { rest, .. }
        | Cexp::Look { rest, .. }
        | Cexp::Set { rest, .. } => collect_fvs(rest, out, siblings),
        Cexp::Switch { arms, default, .. } => {
            arms.iter().for_each(|a| collect_fvs(a, out, siblings));
            collect_fvs(default, out, siblings);
        }
        Cexp::Branch { tru, fls, .. } => {
            collect_fvs(tru, out, siblings);
            collect_fvs(fls, out, siblings);
        }
        Cexp::App { .. } | Cexp::Halt { .. } => {}
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

    fn rv(&self, v: &Value, sub: &FxHashMap<CVar, Value>) -> Value {
        match v {
            Value::Var(x) => sub.get(x).cloned().unwrap_or(Value::Var(*x)),
            other => other.clone(),
        }
    }

    /// Rewrites an expression; `sub` maps original variables to local
    /// values (closure selects, closure params, rebuilt siblings).
    fn go(&mut self, e: Cexp, sub: &FxHashMap<CVar, Value>) -> Cexp {
        match e {
            Cexp::Fix { funs, rest } => self.close_fix(funs, *rest, sub),
            Cexp::Record {
                fields,
                nflt,
                dst,
                rest,
            } => {
                let fields = fields
                    .into_iter()
                    .map(|(v, c)| (self.rv(&v, sub), c))
                    .collect();
                let rest = self.go(*rest, sub);
                Cexp::Record {
                    fields,
                    nflt,
                    dst,
                    rest: Box::new(rest),
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
                let rec = self.rv(&rec, sub);
                let rest = self.go(*rest, sub);
                Cexp::Select {
                    rec,
                    word_off,
                    flt,
                    dst,
                    cty,
                    rest: Box::new(rest),
                }
            }
            Cexp::Pure {
                op,
                args,
                dst,
                cty,
                rest,
            } => {
                let args = args.iter().map(|v| self.rv(v, sub)).collect();
                let rest = self.go(*rest, sub);
                Cexp::Pure {
                    op,
                    args,
                    dst,
                    cty,
                    rest: Box::new(rest),
                }
            }
            Cexp::Alloc {
                op,
                args,
                dst,
                rest,
            } => {
                let args = args.iter().map(|v| self.rv(v, sub)).collect();
                let rest = self.go(*rest, sub);
                Cexp::Alloc {
                    op,
                    args,
                    dst,
                    rest: Box::new(rest),
                }
            }
            Cexp::Look {
                op,
                args,
                dst,
                cty,
                rest,
            } => {
                let args = args.iter().map(|v| self.rv(v, sub)).collect();
                let rest = self.go(*rest, sub);
                Cexp::Look {
                    op,
                    args,
                    dst,
                    cty,
                    rest: Box::new(rest),
                }
            }
            Cexp::Set { op, args, rest } => {
                let args = args.iter().map(|v| self.rv(v, sub)).collect();
                let rest = self.go(*rest, sub);
                Cexp::Set {
                    op,
                    args,
                    rest: Box::new(rest),
                }
            }
            Cexp::Switch {
                v,
                lo,
                arms,
                default,
            } => {
                let v = self.rv(&v, sub);
                let arms = arms.into_iter().map(|a| self.go(a, sub)).collect();
                let default = self.go(*default, sub);
                Cexp::Switch {
                    v,
                    lo,
                    arms,
                    default: Box::new(default),
                }
            }
            Cexp::Branch { op, args, tru, fls } => {
                let args = args.iter().map(|v| self.rv(v, sub)).collect();
                let tru = self.go(*tru, sub);
                let fls = self.go(*fls, sub);
                Cexp::Branch {
                    op,
                    args,
                    tru: Box::new(tru),
                    fls: Box::new(fls),
                }
            }
            Cexp::App { f, args } => self.close_app(f, args, sub),
            Cexp::Halt { v } => Cexp::Halt {
                v: self.rv(&v, sub),
            },
        }
    }

    fn close_app(&mut self, f: Value, args: Vec<Value>, sub: &FxHashMap<CVar, Value>) -> Cexp {
        let args: Vec<Value> = args.iter().map(|v| self.rv(v, sub)).collect();
        match &f {
            Value::Var(x) | Value::Label(x) if self.fnnames.contains(x) => {
                if self.escaping.contains(x) {
                    // Direct call to an escaping function: pass its
                    // closure (which `sub` maps its name to) plus args.
                    let clos = sub.get(x).cloned().unwrap_or(Value::Var(*x));
                    let mut all = vec![clos];
                    all.extend(args);
                    Cexp::App {
                        f: Value::Label(*x),
                        args: all,
                    }
                } else {
                    // Known function: append its environment.
                    let env = self.env_of.get(x).cloned().unwrap_or_default();
                    let mut all = args;
                    for v in env {
                        all.push(sub.get(&v).cloned().unwrap_or(Value::Var(v)));
                    }
                    Cexp::App {
                        f: Value::Label(*x),
                        args: all,
                    }
                }
            }
            _ => {
                // Unknown call: load the code pointer from slot 0.
                let fval = self.rv(&f, sub);
                let code = self.fresh();
                let mut all = vec![fval.clone()];
                all.extend(args);
                Cexp::Select {
                    rec: fval,
                    word_off: 0,
                    flt: false,
                    dst: code,
                    cty: Cty::Fun,
                    rest: Box::new(Cexp::App {
                        f: Value::Var(code),
                        args: all,
                    }),
                }
            }
        }
    }

    fn close_fix(&mut self, funs: Vec<FunDef>, rest: Cexp, sub: &FxHashMap<CVar, Value>) -> Cexp {
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
                let mut body = self.go(*f.body, &fsub);
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
                    body = Cexp::Record {
                        fields,
                        nflt,
                        dst: nv,
                        rest: Box::new(body),
                    };
                }
                // Emit the free-variable selects.
                for (nv, off, flt, cty) in selects.into_iter().rev() {
                    body = Cexp::Select {
                        rec: Value::Var(cparam),
                        word_off: off,
                        flt,
                        dst: nv,
                        cty,
                        rest: Box::new(body),
                    };
                }
                let mut params = vec![(cparam, Cty::Ptr(None))];
                params.extend(f.params.iter().copied());
                self.out.push(FunDef {
                    kind: f.kind,
                    name,
                    params,
                    body: Box::new(body),
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
                    self.go(*f.body, &fsub)
                };
                let mut params = f.params.clone();
                for v in &env {
                    params.push((*v, self.cty(*v)));
                }
                self.out.push(FunDef {
                    kind: f.kind,
                    name,
                    params,
                    body: Box::new(body),
                });
            }
        }

        // In the continuation of the Fix, build closures for the
        // escaping members.
        let mut rest = self.go(rest, sub);
        for name in esc_members.into_iter().rev() {
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
            rest = Cexp::Record {
                fields,
                nflt,
                dst: name,
                rest: Box::new(rest),
            };
        }
        rest
    }
}
