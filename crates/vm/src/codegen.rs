//! Code generation: first-order CPS → abstract machine code.
//!
//! Each closed function becomes one code block. CPS variables are
//! assigned to registers greedily along the (tree-shaped) function body,
//! releasing registers as soon as a variable is no longer live in the
//! remaining subtree; pressure beyond the 32 hardware registers flows
//! into spill-modelled registers (32..63), whose accesses the VM charges
//! extra memory cycles for (the register-spilling phase of the paper's
//! Figure 3, folded into assignment). Calls use a fixed convention: word
//! arguments in `r1..`, float arguments in `f0..`, placed by a parallel
//! move with scratch-register cycle breaking.

use crate::isa::*;
use sml_ast::{FxHashMap, FxHashSet};
use sml_cps::{
    AllocOp, BranchOp, CVar, Cexp, ClosedProgram, Cty, FunDef, LookOp, PureOp, SetOp, Value,
};
use std::collections::HashMap;

/// Maximum word parameters before trailing parameters are packed into a
/// record (the spill-record transformation).
const MAX_WORD_PARAMS: usize = 20;
/// Scratch register reserved for parallel-move cycle breaking.
const SCRATCH: Reg = 31;
/// Scratch register reserved for saving a clobbered callee address.
const CSCRATCH: Reg = 30;
const FSCRATCH: FReg = 31;

/// Compiles a closed CPS program to machine code.
pub fn codegen(prog: &ClosedProgram) -> MachineProgram {
    let packed = limit_params(prog);
    let prog = packed.as_ref().unwrap_or(prog);
    let mut pool: Vec<String> = Vec::new();
    // Keyed by source string literals: std's seeded hasher, so crafted
    // source cannot force collisions.
    let mut pool_ix: HashMap<String, u32> = HashMap::new();

    // Label numbering: function name -> block index. Entry gets block 0,
    // the uncaught-exception stub block 1.
    let label_of: FxHashMap<CVar, u32> = prog
        .funs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name, (i + 2) as u32))
        .collect();

    let mut blocks = Vec::new();

    // Block 0: entry. Prologue installs the uncaught-exception handler
    // closure, then runs the program body.
    {
        let live = Liveness::of(&prog.entry);
        let mut g = Gen {
            label_of: &label_of,
            pool: &mut pool,
            pool_ix: &mut pool_ix,
            live: &live,
            next_node: 0,
            instrs: Vec::new(),
            loc: FxHashMap::default(),
            free_r: (SCRATCH + 1..MAX_REGS)
                .rev()
                .chain((1..CSCRATCH).rev())
                .collect(),
            free_f: (FSCRATCH + 1..MAX_REGS)
                .rev()
                .chain((0..FSCRATCH).rev())
                .collect(),
        };
        // handler closure = [label(uncaught)]
        g.instrs.push(Instr::LoadLabel { d: 1, label: 1 });
        g.instrs.push(Instr::Alloc {
            d: 2,
            kind: AllocKind::Record,
            words: vec![1],
            flts: vec![],
        });
        g.instrs.push(Instr::SetHdlr { s: 2 });
        g.gen(&prog.entry);
        blocks.push(CodeBlock {
            name: "entry".into(),
            instrs: g.instrs,
        });
    }

    // Block 1: uncaught-exception stub. Convention: packet arrives in r2
    // (args after the closure in r1).
    blocks.push(CodeBlock {
        name: "uncaught".into(),
        instrs: vec![Instr::Uncaught { s: 2 }],
    });

    for f in &prog.funs {
        let live = Liveness::of(&f.body);
        let mut g = Gen {
            label_of: &label_of,
            pool: &mut pool,
            pool_ix: &mut pool_ix,
            live: &live,
            next_node: 0,
            instrs: Vec::new(),
            loc: FxHashMap::default(),
            free_r: Vec::new(),
            free_f: Vec::new(),
        };
        // Assign parameters per convention.
        let mut next_r: Reg = 1;
        let mut next_f: FReg = 0;
        let mut used_r = FxHashSet::default();
        let mut used_f = FxHashSet::default();
        for (p, c) in &f.params {
            if c.is_word() {
                g.loc.insert(*p, Loc::R(next_r));
                used_r.insert(next_r);
                next_r += 1;
            } else {
                g.loc.insert(*p, Loc::F(next_f));
                used_f.insert(next_f);
                next_f += 1;
            }
        }
        g.free_r = (SCRATCH + 1..MAX_REGS)
            .rev()
            .chain((1..CSCRATCH).rev())
            .filter(|r| !used_r.contains(r))
            .collect();
        g.free_f = (FSCRATCH + 1..MAX_REGS)
            .rev()
            .chain((0..FSCRATCH).rev())
            .filter(|r| !used_f.contains(r))
            .collect();
        g.gen(&f.body);
        blocks.push(CodeBlock {
            name: format!("f{}", f.name),
            instrs: g.instrs,
        });
    }

    MachineProgram {
        blocks,
        entry: 0,
        pool,
    }
}

/// Packs trailing parameters of over-wide functions into records, or
/// returns `None` when no function is over-wide.
fn limit_params(prog: &ClosedProgram) -> Option<ClosedProgram> {
    let mut packed: FxHashMap<CVar, usize> = FxHashMap::default();
    for f in &prog.funs {
        let words = f.params.iter().filter(|(_, c)| c.is_word()).count();
        if words > MAX_WORD_PARAMS || f.params.len() > 24 {
            packed.insert(f.name, MAX_WORD_PARAMS.min(f.params.len() - 1));
        }
    }
    if packed.is_empty() {
        return None;
    }
    let mut next = prog.next_var;
    let funs = prog
        .funs
        .iter()
        .map(|f| {
            let Some(&keep) = packed.get(&f.name) else {
                let mut f2 = f.clone();
                *f2.body = rewrite_calls(&f.body, &packed, &mut next);
                return f2;
            };
            let kept: Vec<(CVar, Cty)> = f.params[..keep].to_vec();
            let rest: Vec<(CVar, Cty)> = f.params[keep..].to_vec();
            let pk = next;
            next += 1;
            let mut body = rewrite_calls(&f.body, &packed, &mut next);
            // Unpack: words first, then floats (record physical layout).
            let words: Vec<&(CVar, Cty)> = rest.iter().filter(|(_, c)| c.is_word()).collect();
            let floats: Vec<&(CVar, Cty)> = rest.iter().filter(|(_, c)| !c.is_word()).collect();
            for (j, (v, _)) in floats.iter().enumerate().rev() {
                body = Cexp::Select {
                    rec: Value::Var(pk),
                    word_off: words.len() + 2 * j,
                    flt: true,
                    dst: *v,
                    cty: Cty::Flt,
                    rest: Box::new(body),
                };
            }
            for (i, (v, c)) in words.iter().enumerate().rev() {
                body = Cexp::Select {
                    rec: Value::Var(pk),
                    word_off: i,
                    flt: false,
                    dst: *v,
                    cty: *c,
                    rest: Box::new(body),
                };
            }
            let mut params = kept;
            params.push((pk, Cty::Ptr(None)));
            FunDef {
                kind: f.kind,
                name: f.name,
                params,
                body: Box::new(body),
            }
        })
        .collect();
    let entry = rewrite_calls(&prog.entry, &packed, &mut next);
    Some(ClosedProgram {
        funs,
        entry,
        next_var: next,
    })
}

fn rewrite_calls(e: &Cexp, packed: &FxHashMap<CVar, usize>, next: &mut u32) -> Cexp {
    match e {
        Cexp::App { f, args } => {
            if let Value::Label(l) | Value::Var(l) = f {
                if let Some(&keep) = packed.get(l) {
                    let kept = args[..keep].to_vec();
                    let rest = &args[keep..];
                    // We do not know CTYs of values here; treat Real
                    // constants as floats, everything else as words
                    // (variables were split by the callee the same way
                    // because CTYs agree by convention).
                    let words: Vec<Value> = rest
                        .iter()
                        .filter(|v| !matches!(v, Value::Real(_)))
                        .cloned()
                        .collect();
                    let floats: Vec<Value> = rest
                        .iter()
                        .filter(|v| matches!(v, Value::Real(_)))
                        .cloned()
                        .collect();
                    let mut fields: Vec<(Value, Cty)> =
                        words.into_iter().map(|v| (v, Cty::Ptr(None))).collect();
                    let nflt = floats.len();
                    fields.extend(floats.into_iter().map(|v| (v, Cty::Flt)));
                    let pk = *next;
                    *next += 1;
                    let mut new_args = kept;
                    new_args.push(Value::Var(pk));
                    return Cexp::Record {
                        fields,
                        nflt,
                        dst: pk,
                        rest: Box::new(Cexp::App {
                            f: f.clone(),
                            args: new_args,
                        }),
                    };
                }
            }
            e.clone()
        }
        Cexp::Record {
            fields,
            nflt,
            dst,
            rest,
        } => Cexp::Record {
            fields: fields.clone(),
            nflt: *nflt,
            dst: *dst,
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Select {
            rec,
            word_off,
            flt,
            dst,
            cty,
            rest,
        } => Cexp::Select {
            rec: rec.clone(),
            word_off: *word_off,
            flt: *flt,
            dst: *dst,
            cty: *cty,
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Pure {
            op,
            args,
            dst,
            cty,
            rest,
        } => Cexp::Pure {
            op: *op,
            args: args.clone(),
            dst: *dst,
            cty: *cty,
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Alloc {
            op,
            args,
            dst,
            rest,
        } => Cexp::Alloc {
            op: *op,
            args: args.clone(),
            dst: *dst,
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Look {
            op,
            args,
            dst,
            cty,
            rest,
        } => Cexp::Look {
            op: *op,
            args: args.clone(),
            dst: *dst,
            cty: *cty,
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Set { op, args, rest } => Cexp::Set {
            op: *op,
            args: args.clone(),
            rest: Box::new(rewrite_calls(rest, packed, next)),
        },
        Cexp::Switch {
            v,
            lo,
            arms,
            default,
        } => Cexp::Switch {
            v: v.clone(),
            lo: *lo,
            arms: arms
                .iter()
                .map(|a| rewrite_calls(a, packed, next))
                .collect(),
            default: Box::new(rewrite_calls(default, packed, next)),
        },
        Cexp::Branch { op, args, tru, fls } => Cexp::Branch {
            op: *op,
            args: args.clone(),
            tru: Box::new(rewrite_calls(tru, packed, next)),
            fls: Box::new(rewrite_calls(fls, packed, next)),
        },
        Cexp::Fix { .. } => unreachable!("closure conversion removed Fix"),
        Cexp::Halt { v } => Cexp::Halt { v: v.clone() },
    }
}

/// Where a CPS variable lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Loc {
    R(Reg),
    F(FReg),
}

/// What is live on entry to every node of one function body, computed
/// in one bottom-up pass: node `i` of the preorder [`Gen::gen`] visits
/// (a switch's arms and then its default, a branch's true and then its
/// false side) gets the sorted free variables of its subtree.
struct Liveness {
    /// Node `i`'s set is `vars[spans[i].0..spans[i].1]`.
    spans: Vec<(u32, u32)>,
    vars: Vec<CVar>,
    /// Scratch for the set being built.
    set: Vec<CVar>,
}

impl Liveness {
    fn of(body: &Cexp) -> Liveness {
        let mut l = Liveness {
            spans: Vec::new(),
            vars: Vec::new(),
            set: Vec::new(),
        };
        l.node(body);
        l
    }

    /// The live set of preorder node `i`.
    fn at(&self, i: usize) -> &[CVar] {
        let (a, b) = self.spans[i];
        &self.vars[a as usize..b as usize]
    }

    /// Numbers `e` and its subtree in preorder, fills in their sets
    /// (children first), and returns `e`'s number.
    fn node(&mut self, e: &Cexp) -> usize {
        let i = self.spans.len();
        self.spans.push((0, 0));
        match e {
            Cexp::Record {
                fields, dst, rest, ..
            } => {
                let k = self.node(rest);
                self.fill(i, &[k], Some(*dst), fields.iter().map(|(v, _)| v));
            }
            Cexp::Select { rec, dst, rest, .. } => {
                let k = self.node(rest);
                self.fill(i, &[k], Some(*dst), std::iter::once(rec));
            }
            Cexp::Pure {
                args, dst, rest, ..
            }
            | Cexp::Alloc {
                args, dst, rest, ..
            }
            | Cexp::Look {
                args, dst, rest, ..
            } => {
                let k = self.node(rest);
                self.fill(i, &[k], Some(*dst), args.iter());
            }
            Cexp::Set { args, rest, .. } => {
                let k = self.node(rest);
                self.fill(i, &[k], None, args.iter());
            }
            Cexp::Switch {
                v, arms, default, ..
            } => {
                let mut kids: Vec<usize> = arms.iter().map(|a| self.node(a)).collect();
                kids.push(self.node(default));
                self.fill(i, &kids, None, std::iter::once(v));
            }
            Cexp::Branch { args, tru, fls, .. } => {
                let t = self.node(tru);
                let f = self.node(fls);
                self.fill(i, &[t, f], None, args.iter());
            }
            Cexp::App { f, args } => self.fill(i, &[], None, std::iter::once(f).chain(args)),
            Cexp::Halt { v } => self.fill(i, &[], None, std::iter::once(v)),
            Cexp::Fix { .. } => unreachable!("closure conversion removed Fix"),
        }
        i
    }

    /// Node `i`'s set: its children's, less the variable it binds, plus
    /// the variables it uses.
    fn fill<'v>(
        &mut self,
        i: usize,
        kids: &[usize],
        dst: Option<CVar>,
        uses: impl Iterator<Item = &'v Value>,
    ) {
        let mut set = std::mem::take(&mut self.set);
        set.clear();
        for &k in kids {
            set.extend_from_slice(self.at(k));
        }
        if let Some(d) = dst {
            set.retain(|v| *v != d);
        }
        set.extend(uses.filter_map(|v| match v {
            Value::Var(x) => Some(*x),
            _ => None,
        }));
        set.sort_unstable();
        set.dedup();
        let start = self.vars.len() as u32;
        self.vars.extend_from_slice(&set);
        self.spans[i] = (start, self.vars.len() as u32);
        self.set = set;
    }
}

struct Gen<'a> {
    label_of: &'a FxHashMap<CVar, u32>,
    pool: &'a mut Vec<String>,
    pool_ix: &'a mut HashMap<String, u32>,
    /// The function body's live sets, and the preorder number of the
    /// next node [`Gen::gen`] visits.
    live: &'a Liveness,
    next_node: usize,
    instrs: Vec<Instr>,
    loc: FxHashMap<CVar, Loc>,
    free_r: Vec<Reg>,
    free_f: Vec<FReg>,
}

impl Gen<'_> {
    fn alloc_r(&mut self) -> Reg {
        self.free_r
            .pop()
            .expect("out of integer registers (including spill slots)")
    }

    fn alloc_f(&mut self) -> FReg {
        self.free_f
            .pop()
            .expect("out of float registers (including spill slots)")
    }

    fn release(&mut self, v: CVar) {
        if let Some(l) = self.loc.remove(&v) {
            match l {
                Loc::R(r) => self.free_r.push(r),
                Loc::F(f) => self.free_f.push(f),
            }
        }
    }

    /// Releases every variable not live on entry to the next node.
    ///
    /// Dead variables are released in sorted order: `loc` is a hash map,
    /// and releasing in its iteration order would push registers onto the
    /// free lists in an order that depends on the hasher, making spill
    /// decisions — and therefore code size and cycle counts — depend on
    /// it too.
    fn prune(&mut self) {
        let live = self.live.at(self.next_node);
        self.next_node += 1;
        let mut dead: Vec<CVar> = self
            .loc
            .keys()
            .copied()
            .filter(|v| live.binary_search(v).is_err())
            .collect();
        dead.sort_unstable();
        for v in dead {
            self.release(v);
        }
    }

    fn pool_id(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.pool_ix.get(s) {
            return i;
        }
        let i = self.pool.len() as u32;
        self.pool.push(s.to_owned());
        self.pool_ix.insert(s.to_owned(), i);
        i
    }

    /// Materializes a word value into a register; returns (reg, temp?).
    fn word_reg(&mut self, v: &Value) -> (Reg, Option<Reg>) {
        match v {
            Value::Var(x) => match self.loc.get(x) {
                Some(Loc::R(r)) => (*r, None),
                other => panic!("v{x} not in an int register: {other:?}"),
            },
            Value::Int(n) => {
                let r = self.alloc_r();
                self.instrs.push(Instr::LoadI { d: r, imm: *n });
                (r, Some(r))
            }
            Value::Label(l) => {
                let r = self.alloc_r();
                let label = self.label_of[l];
                self.instrs.push(Instr::LoadLabel { d: r, label });
                (r, Some(r))
            }
            Value::Str(s) => {
                let r = self.alloc_r();
                let p = self.pool_id(s);
                self.instrs.push(Instr::LoadStr { d: r, pool: p });
                (r, Some(r))
            }
            Value::Real(_) => panic!("float value in word context"),
        }
    }

    fn float_reg(&mut self, v: &Value) -> (FReg, Option<FReg>) {
        match v {
            Value::Var(x) => match self.loc.get(x) {
                Some(Loc::F(f)) => (*f, None),
                other => panic!("v{x} not in a float register: {other:?}"),
            },
            Value::Real(x) => {
                let f = self.alloc_f();
                self.instrs.push(Instr::LoadF { d: f, imm: *x });
                (f, Some(f))
            }
            other => panic!("word value {other:?} in float context"),
        }
    }

    fn free_temp(&mut self, t: Option<Reg>) {
        if let Some(r) = t {
            self.free_r.push(r);
        }
    }

    fn free_ftemp(&mut self, t: Option<FReg>) {
        if let Some(f) = t {
            self.free_f.push(f);
        }
    }

    fn bind_r(&mut self, v: CVar) -> Reg {
        let r = self.alloc_r();
        self.loc.insert(v, Loc::R(r));
        r
    }

    fn bind_f(&mut self, v: CVar) -> FReg {
        let f = self.alloc_f();
        self.loc.insert(v, Loc::F(f));
        f
    }

    fn gen(&mut self, e: &Cexp) {
        self.prune();
        match e {
            Cexp::Record {
                fields, dst, rest, ..
            } => {
                let mut words = Vec::new();
                let mut flts = Vec::new();
                let mut temps = Vec::new();
                let mut ftemps = Vec::new();
                for (v, c) in fields {
                    if c.is_word() {
                        let (r, t) = self.word_reg(v);
                        words.push(r);
                        temps.push(t);
                    } else {
                        let (f, t) = self.float_reg(v);
                        flts.push(f);
                        ftemps.push(t);
                    }
                }
                for t in temps {
                    self.free_temp(t);
                }
                for t in ftemps {
                    self.free_ftemp(t);
                }
                let d = self.bind_r(*dst);
                self.instrs.push(Instr::Alloc {
                    d,
                    kind: AllocKind::Record,
                    words,
                    flts,
                });
                self.gen(rest);
            }
            Cexp::Select {
                rec,
                word_off,
                flt,
                dst,
                rest,
                ..
            } => {
                let (base, t) = self.word_reg(rec);
                self.free_temp(t);
                if *flt {
                    let d = self.bind_f(*dst);
                    self.instrs.push(Instr::FLoad {
                        d,
                        base,
                        off: *word_off as u16,
                    });
                } else {
                    let d = self.bind_r(*dst);
                    self.instrs.push(Instr::Load {
                        d,
                        base,
                        off: *word_off as u16,
                    });
                }
                self.gen(rest);
            }
            Cexp::Pure {
                op,
                args,
                dst,
                cty,
                rest,
            } => {
                self.gen_pure(*op, args, *dst, *cty);
                self.gen(rest);
            }
            Cexp::Alloc {
                op,
                args,
                dst,
                rest,
            } => {
                match op {
                    AllocOp::MakeRef => {
                        let (s, t) = self.word_reg(&args[0]);
                        self.free_temp(t);
                        let d = self.bind_r(*dst);
                        self.instrs.push(Instr::Alloc {
                            d,
                            kind: AllocKind::Ref,
                            words: vec![s],
                            flts: vec![],
                        });
                    }
                    AllocOp::ArrayMake => {
                        let (len, t1) = self.word_reg(&args[0]);
                        let (init, t2) = self.word_reg(&args[1]);
                        self.free_temp(t1);
                        self.free_temp(t2);
                        let d = self.bind_r(*dst);
                        self.instrs.push(Instr::AllocArr { d, len, init });
                    }
                }
                self.gen(rest);
            }
            Cexp::Look {
                op,
                args,
                dst,
                rest,
                ..
            } => {
                match op {
                    LookOp::Deref => {
                        let (base, t) = self.word_reg(&args[0]);
                        self.free_temp(t);
                        let d = self.bind_r(*dst);
                        self.instrs.push(Instr::Load { d, base, off: 0 });
                    }
                    LookOp::ArraySub => {
                        let (base, t1) = self.word_reg(&args[0]);
                        let (idx, t2) = self.word_reg(&args[1]);
                        self.free_temp(t1);
                        self.free_temp(t2);
                        let d = self.bind_r(*dst);
                        self.instrs.push(Instr::LoadIdx { d, base, idx });
                    }
                    LookOp::GetHandler => {
                        let d = self.bind_r(*dst);
                        self.instrs.push(Instr::GetHdlr { d });
                    }
                }
                self.gen(rest);
            }
            Cexp::Set { op, args, rest } => {
                match op {
                    SetOp::Assign | SetOp::UnboxedAssign => {
                        let (base, t1) = self.word_reg(&args[0]);
                        let (s, t2) = self.word_reg(&args[1]);
                        self.free_temp(t1);
                        self.free_temp(t2);
                        if *op == SetOp::Assign {
                            self.instrs.push(Instr::StoreWB { s, base, off: 0 });
                        } else {
                            self.instrs.push(Instr::Store { s, base, off: 0 });
                        }
                    }
                    SetOp::ArrayUpdate | SetOp::UnboxedArrayUpdate => {
                        let (base, t1) = self.word_reg(&args[0]);
                        let (idx, t2) = self.word_reg(&args[1]);
                        let (s, t3) = self.word_reg(&args[2]);
                        self.free_temp(t1);
                        self.free_temp(t2);
                        self.free_temp(t3);
                        if *op == SetOp::ArrayUpdate {
                            self.instrs.push(Instr::StoreIdxWB { s, base, idx });
                        } else {
                            self.instrs.push(Instr::StoreIdx { s, base, idx });
                        }
                    }
                    SetOp::Print => {
                        let (s, t) = self.word_reg(&args[0]);
                        self.free_temp(t);
                        self.instrs.push(Instr::Print { s });
                    }
                    SetOp::SetHandler => {
                        let (s, t) = self.word_reg(&args[0]);
                        self.free_temp(t);
                        self.instrs.push(Instr::SetHdlr { s });
                    }
                }
                self.gen(rest);
            }
            Cexp::Switch {
                v,
                lo,
                arms,
                default,
            } => {
                let (r, t) = self.word_reg(v);
                self.free_temp(t);
                let sw_at = self.instrs.len();
                self.instrs.push(Instr::Switch {
                    r,
                    lo: *lo,
                    table: vec![0; arms.len()],
                    default: 0,
                });
                let saved_loc = self.loc.clone();
                let saved_r = self.free_r.clone();
                let saved_f = self.free_f.clone();
                let mut starts = Vec::with_capacity(arms.len());
                for a in arms {
                    starts.push(self.instrs.len() as u32);
                    self.loc = saved_loc.clone();
                    self.free_r = saved_r.clone();
                    self.free_f = saved_f.clone();
                    self.gen(a);
                }
                let dstart = self.instrs.len() as u32;
                self.loc = saved_loc;
                self.free_r = saved_r;
                self.free_f = saved_f;
                self.gen(default);
                if let Instr::Switch { table, default, .. } = &mut self.instrs[sw_at] {
                    *table = starts;
                    *default = dstart;
                }
            }
            Cexp::Branch { op, args, tru, fls } => {
                let patch_at = self.gen_branch_test(*op, args);
                // True branch with a cloned allocator state.
                let saved_loc = self.loc.clone();
                let saved_r = self.free_r.clone();
                let saved_f = self.free_f.clone();
                self.gen(tru);
                self.loc = saved_loc;
                self.free_r = saved_r;
                self.free_f = saved_f;
                let here = self.instrs.len() as u32;
                self.patch(patch_at, here);
                self.gen(fls);
            }
            Cexp::App { f, args } => self.gen_app(f, args),
            Cexp::Halt { v } => {
                let (r, _) = self.word_reg(v);
                self.instrs.push(Instr::Halt { s: r });
            }
            Cexp::Fix { .. } => unreachable!("closure conversion removed Fix"),
        }
    }

    fn gen_pure(&mut self, op: PureOp, args: &[Value], dst: CVar, _cty: Cty) {
        use PureOp::*;
        match op {
            IAdd | ISub | IMul | IDiv | IMod => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                let d = self.bind_r(dst);
                let aop = match op {
                    IAdd => AOp::Add,
                    ISub => AOp::Sub,
                    IMul => AOp::Mul,
                    IDiv => AOp::Div,
                    _ => AOp::Mod,
                };
                self.instrs.push(Instr::Arith { op: aop, d, a, b });
            }
            INeg => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let zero = self.alloc_r();
                self.instrs.push(Instr::LoadI { d: zero, imm: 0 });
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Arith {
                    op: AOp::Sub,
                    d,
                    a: zero,
                    b: a,
                });
                self.free_r.push(zero);
            }
            FAdd | FSub | FMul | FDiv => {
                let (a, t1) = self.float_reg(&args[0]);
                let (b, t2) = self.float_reg(&args[1]);
                self.free_ftemp(t1);
                self.free_ftemp(t2);
                let d = self.bind_f(dst);
                let fop = match op {
                    FAdd => FOp::Add,
                    FSub => FOp::Sub,
                    FMul => FOp::Mul,
                    _ => FOp::Div,
                };
                self.instrs.push(Instr::FArith { op: fop, d, a, b });
            }
            FNeg | FSqrt | FSin | FCos | FAtan | FExp | FLn => {
                let (a, t) = self.float_reg(&args[0]);
                self.free_ftemp(t);
                let d = self.bind_f(dst);
                let u = match op {
                    FNeg => FUOp::Neg,
                    FSqrt => FUOp::Sqrt,
                    FSin => FUOp::Sin,
                    FCos => FUOp::Cos,
                    FAtan => FUOp::Atan,
                    FExp => FUOp::Exp,
                    _ => FUOp::Ln,
                };
                self.instrs.push(Instr::FUnary { op: u, d, a });
            }
            Floor => {
                let (a, t) = self.float_reg(&args[0]);
                self.free_ftemp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Floor { d, a });
            }
            IntToReal => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_f(dst);
                self.instrs.push(Instr::IntToReal { d, a });
            }
            FWrap => {
                let (s, t) = self.float_reg(&args[0]);
                self.free_ftemp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::FBox { d, s });
            }
            FUnwrap => {
                let (s, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_f(dst);
                self.instrs.push(Instr::FUnbox { d, s });
            }
            IWrap | IUnwrap | PWrap | PUnwrap => {
                // Runtime no-ops with tagged integers: a register move
                // (most such pairs were already cancelled by the
                // optimizer).
                let (s, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Move { d, s });
            }
            StrSize => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Rt {
                    op: RtOp::StrSize,
                    d,
                    a,
                    b: 0,
                    fa: 0,
                });
            }
            StrSub => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Rt {
                    op: RtOp::StrSub,
                    d,
                    a,
                    b,
                    fa: 0,
                });
            }
            StrCat => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Rt {
                    op: RtOp::StrCat,
                    d,
                    a,
                    b,
                    fa: 0,
                });
            }
            IntToString => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Rt {
                    op: RtOp::IntToString,
                    d,
                    a,
                    b: 0,
                    fa: 0,
                });
            }
            RealToString => {
                let (fa, t) = self.float_reg(&args[0]);
                self.free_ftemp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::Rt {
                    op: RtOp::RealToString,
                    d,
                    a: 0,
                    b: 0,
                    fa,
                });
            }
            ArrayLength => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                let d = self.bind_r(dst);
                self.instrs.push(Instr::ArrLen { d, a });
            }
        }
    }

    /// Emits the branch test; returns the index of the instruction whose
    /// target must be patched to the false-branch position.
    fn gen_branch_test(&mut self, op: BranchOp, args: &[Value]) -> usize {
        use BranchOp::*;

        match op {
            ILt | ILe | IGt | IGe | IEq | INe | PtrEq => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                let bop = match op {
                    ILt => BrOp::Lt,
                    ILe => BrOp::Le,
                    IGt => BrOp::Gt,
                    IGe => BrOp::Ge,
                    INe => BrOp::Ne,
                    _ => BrOp::Eq,
                };
                self.instrs.push(Instr::Branch {
                    op: bop,
                    a,
                    b,
                    target: 0,
                });
                self.instrs.len() - 1
            }
            IsBoxed => {
                let (a, t) = self.word_reg(&args[0]);
                self.free_temp(t);
                self.instrs.push(Instr::Branch {
                    op: BrOp::Boxed,
                    a,
                    b: a,
                    target: 0,
                });
                self.instrs.len() - 1
            }
            FLt | FLe | FGt | FGe | FEq | FNe => {
                let (a, t1) = self.float_reg(&args[0]);
                let (b, t2) = self.float_reg(&args[1]);
                self.free_ftemp(t1);
                self.free_ftemp(t2);
                let fop = match op {
                    FLt => FBrOp::Lt,
                    FLe => FBrOp::Le,
                    FGt => FBrOp::Gt,
                    FGe => FBrOp::Ge,
                    FEq => FBrOp::Eq,
                    _ => FBrOp::Ne,
                };
                self.instrs.push(Instr::FBranch {
                    op: fop,
                    a,
                    b,
                    target: 0,
                });
                self.instrs.len() - 1
            }
            StrEq | StrNe | StrLt | StrLe | StrGt | StrGe => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                let sop = match op {
                    StrEq => SBrOp::Eq,
                    StrNe => SBrOp::Ne,
                    StrLt => SBrOp::Lt,
                    StrLe => SBrOp::Le,
                    StrGt => SBrOp::Gt,
                    _ => SBrOp::Ge,
                };
                self.instrs.push(Instr::SBranch {
                    op: sop,
                    a,
                    b,
                    target: 0,
                });
                self.instrs.len() - 1
            }
            PolyEq => {
                let (a, t1) = self.word_reg(&args[0]);
                let (b, t2) = self.word_reg(&args[1]);
                self.free_temp(t1);
                self.free_temp(t2);
                self.instrs.push(Instr::PolyEqBranch { a, b, target: 0 });
                self.instrs.len() - 1
            }
        }
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.instrs[at] {
            Instr::Branch { target: t, .. }
            | Instr::FBranch { target: t, .. }
            | Instr::SBranch { target: t, .. }
            | Instr::PolyEqBranch { target: t, .. } => *t = target,
            other => panic!("patching non-branch {other:?}"),
        }
    }

    fn gen_app(&mut self, f: &Value, args: &[Value]) {
        // If the callee's register would be clobbered by argument moves,
        // save it to scratch first.
        let callee_reg: Option<Reg> = if let Value::Var(x) = f {
            if let Some(Loc::R(r)) = self.loc.get(x) {
                let n_word_args = args
                    .iter()
                    .filter(|a| match a {
                        Value::Real(_) => false,
                        Value::Var(y) => !matches!(self.loc.get(y), Some(Loc::F(_))),
                        _ => true,
                    })
                    .count() as u8;
                if *r >= 1 && *r <= n_word_args {
                    self.instrs.push(Instr::Move { d: CSCRATCH, s: *r });
                    Some(CSCRATCH)
                } else {
                    Some(*r)
                }
            } else {
                None
            }
        } else {
            None
        };
        // Destination registers by convention.
        let mut dest_words: Vec<(Value, Reg)> = Vec::new();
        let mut dest_flts: Vec<(Value, FReg)> = Vec::new();
        let mut next_r: Reg = 1;
        let mut next_f: FReg = 0;
        for a in args {
            let is_flt = match a {
                Value::Real(_) => true,
                Value::Var(x) => matches!(self.loc.get(x), Some(Loc::F(_))),
                _ => false,
            };
            if is_flt {
                dest_flts.push((a.clone(), next_f));
                next_f += 1;
            } else {
                dest_words.push((a.clone(), next_r));
                next_r += 1;
            }
        }
        // Parallel move of word registers: build src->dst list.
        let mut moves: Vec<(Reg, Reg)> = Vec::new();
        let mut consts: Vec<(Value, Reg)> = Vec::new();
        for (v, d) in &dest_words {
            match v {
                Value::Var(x) => {
                    let Some(Loc::R(s)) = self.loc.get(x).copied() else {
                        panic!(
                            "call argument v{x} not in an int register ({:?})",
                            self.loc.get(x)
                        )
                    };
                    if s != *d {
                        moves.push((s, *d));
                    }
                }
                other => consts.push((other.clone(), *d)),
            }
        }
        self.parallel_move(moves);
        for (v, d) in consts {
            match v {
                Value::Int(n) => self.instrs.push(Instr::LoadI { d, imm: n }),
                Value::Label(l) => {
                    let label = self.label_of[&l];
                    self.instrs.push(Instr::LoadLabel { d, label });
                }
                Value::Str(s) => {
                    let p = self.pool_id(&s);
                    self.instrs.push(Instr::LoadStr { d, pool: p });
                }
                _ => unreachable!(),
            }
        }
        // Float moves.
        let mut fmoves: Vec<(FReg, FReg)> = Vec::new();
        let mut fconsts: Vec<(f64, FReg)> = Vec::new();
        for (v, d) in &dest_flts {
            match v {
                Value::Var(x) => {
                    let Loc::F(s) = self.loc[x] else {
                        panic!("cty mismatch")
                    };
                    if s != *d {
                        fmoves.push((s, *d));
                    }
                }
                Value::Real(x) => fconsts.push((*x, *d)),
                _ => unreachable!(),
            }
        }
        self.parallel_fmove(fmoves);
        for (x, d) in fconsts {
            self.instrs.push(Instr::LoadF { d, imm: x });
        }
        // Transfer.
        match f {
            Value::Label(l) => {
                let label = self.label_of[l];
                self.instrs.push(Instr::Jump { label });
            }
            Value::Var(x) => match callee_reg {
                Some(r) => self.instrs.push(Instr::JumpReg { r }),
                None => match self.loc[x] {
                    Loc::R(r) => self.instrs.push(Instr::JumpReg { r }),
                    Loc::F(_) => panic!("calling a float"),
                },
            },
            other => panic!("calling constant {other:?}"),
        }
    }

    fn parallel_move(&mut self, mut moves: Vec<(Reg, Reg)>) {
        // Repeatedly emit moves whose destination is not a pending
        // source; break cycles with the scratch register.
        while !moves.is_empty() {
            let mut progressed = false;
            let mut i = 0;
            while i < moves.len() {
                let (_s, d) = moves[i];
                if moves.iter().all(|(s2, _)| *s2 != d) {
                    let (s, d) = moves.remove(i);
                    self.instrs.push(Instr::Move { d, s });
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                // Cycle: save the destination (a pending source) in the
                // scratch register, retarget its readers, then emit.
                let (s, d) = moves.remove(0);
                self.instrs.push(Instr::Move { d: SCRATCH, s: d });
                for m in &mut moves {
                    if m.0 == d {
                        m.0 = SCRATCH;
                    }
                }
                self.instrs.push(Instr::Move { d, s });
            }
        }
    }

    fn parallel_fmove(&mut self, mut moves: Vec<(FReg, FReg)>) {
        while !moves.is_empty() {
            let mut progressed = false;
            let mut i = 0;
            while i < moves.len() {
                let (_s, d) = moves[i];
                if moves.iter().all(|(s2, _)| *s2 != d) {
                    let (s, d) = moves.remove(i);
                    self.instrs.push(Instr::FMove { d, s });
                    progressed = true;
                } else {
                    i += 1;
                }
            }
            if !progressed {
                let (s, d) = moves.remove(0);
                self.instrs.push(Instr::FMove { d: FSCRATCH, s: d });
                for m in &mut moves {
                    if m.0 == d {
                        m.0 = FSCRATCH;
                    }
                }
                self.instrs.push(Instr::FMove { d, s });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smlc::Variant;
    use std::collections::HashSet;

    /// The reference the live sets are checked against: a walk of the
    /// whole subtree.
    fn free_vars(e: &Cexp) -> HashSet<CVar> {
        fn go(e: &Cexp, bound: &mut HashSet<CVar>, free: &mut HashSet<CVar>) {
            let val = |v: &Value, bound: &HashSet<CVar>, free: &mut HashSet<CVar>| {
                if let Value::Var(x) = v {
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
                    go(rest, bound, free);
                }
                Cexp::Select { rec, dst, rest, .. } => {
                    val(rec, bound, free);
                    bound.insert(*dst);
                    go(rest, bound, free);
                }
                Cexp::Pure {
                    args, dst, rest, ..
                }
                | Cexp::Alloc {
                    args, dst, rest, ..
                }
                | Cexp::Look {
                    args, dst, rest, ..
                } => {
                    args.iter().for_each(|v| val(v, bound, free));
                    bound.insert(*dst);
                    go(rest, bound, free);
                }
                Cexp::Set { args, rest, .. } => {
                    args.iter().for_each(|v| val(v, bound, free));
                    go(rest, bound, free);
                }
                Cexp::Switch {
                    v, arms, default, ..
                } => {
                    val(v, bound, free);
                    arms.iter().for_each(|a| go(a, &mut bound.clone(), free));
                    go(default, &mut bound.clone(), free);
                }
                Cexp::Branch { args, tru, fls, .. } => {
                    args.iter().for_each(|v| val(v, bound, free));
                    go(tru, &mut bound.clone(), free);
                    go(fls, &mut bound.clone(), free);
                }
                Cexp::Fix { funs, rest } => {
                    for f in funs {
                        bound.insert(f.name);
                    }
                    for f in funs {
                        let mut b2 = bound.clone();
                        b2.extend(f.params.iter().map(|(p, _)| *p));
                        go(&f.body, &mut b2, free);
                    }
                    go(rest, bound, free);
                }
                Cexp::App { f, args } => {
                    val(f, bound, free);
                    args.iter().for_each(|v| val(v, bound, free));
                }
                Cexp::Halt { v } => val(v, bound, free),
            }
        }
        let mut free = HashSet::new();
        go(e, &mut HashSet::new(), &mut free);
        free
    }

    /// Every node of `e`, in the preorder `Gen::gen` visits.
    fn preorder<'e>(e: &'e Cexp, out: &mut Vec<&'e Cexp>) {
        out.push(e);
        match e {
            Cexp::Record { rest, .. }
            | Cexp::Select { rest, .. }
            | Cexp::Pure { rest, .. }
            | Cexp::Alloc { rest, .. }
            | Cexp::Look { rest, .. }
            | Cexp::Set { rest, .. } => preorder(rest, out),
            Cexp::Switch { arms, default, .. } => {
                arms.iter().for_each(|a| preorder(a, out));
                preorder(default, out);
            }
            Cexp::Branch { tru, fls, .. } => {
                preorder(tru, out);
                preorder(fls, out);
            }
            Cexp::App { .. } | Cexp::Halt { .. } | Cexp::Fix { .. } => {}
        }
    }

    /// The closed program of a figure benchmark under one variant, as
    /// the compiler's phases hand it to `codegen`.
    fn closed(src: &str, v: Variant) -> ClosedProgram {
        let prog = sml_ast::parse(src).expect("figure programs parse");
        let mut elab = sml_elab::elaborate(&prog).expect("figure programs elaborate");
        if v.uses_mtd() {
            sml_elab::minimum_typing(&mut elab);
        }
        let mut tr = sml_lambda::translate(&elab, &v.lambda_config());
        let mut cps = sml_cps::convert(&tr.lexp, &mut tr.interner, tr.n_vars, &v.cps_config());
        sml_cps::optimize(&mut cps, &sml_cps::OptConfig::default());
        sml_cps::close(cps)
    }

    #[test]
    fn live_sets_equal_free_variables_on_figure_programs() {
        let mut nodes_checked = 0;
        for b in smlc_bench::benchmarks() {
            let src = b.source();
            for v in Variant::ALL {
                let prog = closed(&src, v);
                let bodies = std::iter::once(&prog.entry).chain(prog.funs.iter().map(|f| &*f.body));
                for body in bodies {
                    let live = Liveness::of(body);
                    let mut nodes = Vec::new();
                    preorder(body, &mut nodes);
                    assert_eq!(live.spans.len(), nodes.len(), "{} [{v}]", b.name);
                    for (i, node) in nodes.into_iter().enumerate() {
                        let mut want: Vec<CVar> = free_vars(node).into_iter().collect();
                        want.sort_unstable();
                        assert_eq!(live.at(i), want, "{} [{v}]: node {i}", b.name);
                        nodes_checked += 1;
                    }
                }
            }
        }
        assert!(nodes_checked > 10_000, "only {nodes_checked} nodes checked");
    }
}
