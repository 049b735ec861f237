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
use sml_ast::FxHashMap;
use sml_cps::{
    AllocOp, Bind, BranchOp, CVar, Cexp, ClosedProgram, Cty, Exit, LookOp, PureOp, SetOp, Value,
};
use std::collections::{HashMap, VecDeque};

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
    // Label numbering, by function name: block index. Entry gets block
    // 0, the uncaught-exception stub block 1; a name that is no
    // function's gets an index no block has, which the bytecode
    // verifier rejects.
    let mut label_of = vec![u32::MAX; prog.next_var as usize];
    for (i, f) in prog.funs.iter().enumerate() {
        let name = f.name as usize;
        if name >= label_of.len() {
            label_of.resize(name + 1, u32::MAX);
        }
        label_of[name] = (i + 2) as u32;
    }

    // One generator for every block, so its tables are allocated once.
    let mut g = Gen {
        label_of: &label_of,
        pool: Vec::new(),
        // Keyed by source string literals: std's seeded hasher, so
        // crafted source cannot force collisions.
        pool_ix: HashMap::new(),
        live: Liveness::default(),
        next_node: 0,
        instrs: Vec::new(),
        loc: Vec::new(),
        free_r: Vec::new(),
        free_f: Vec::new(),
    };
    let mut blocks = Vec::with_capacity(prog.funs.len() + 2);

    // Block 0: entry. Prologue installs the uncaught-exception handler
    // closure, then runs the program body.
    // handler closure = [label(uncaught)]
    g.instrs.push(Instr::LoadLabel { d: 1, label: 1 });
    g.instrs.push(Instr::Alloc {
        d: 2,
        kind: AllocKind::Record,
        words: vec![1],
        flts: vec![],
    });
    g.instrs.push(Instr::SetHdlr { s: 2 });
    g.body(&prog.entry, &[]);
    blocks.push(CodeBlock {
        name: "entry".into(),
        instrs: std::mem::take(&mut g.instrs),
    });

    // Block 1: uncaught-exception stub. Convention: packet arrives in r2
    // (args after the closure in r1).
    blocks.push(CodeBlock {
        name: "uncaught".into(),
        instrs: vec![Instr::Uncaught { s: 2 }],
    });

    for f in &prog.funs {
        g.body(&f.body, &f.params);
        blocks.push(CodeBlock {
            name: format!("f{}", f.name),
            instrs: std::mem::take(&mut g.instrs),
        });
    }

    MachineProgram {
        blocks,
        entry: 0,
        pool: g.pool,
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
            let mut f = f.clone();
            let Some(&keep) = packed.get(&f.name) else {
                rewrite_calls(&mut f.body, &packed, &mut next);
                return f;
            };
            let rest = f.params.split_off(keep);
            let pk = next;
            next += 1;
            rewrite_calls(&mut f.body, &packed, &mut next);
            // Unpack: words first, then floats (record physical layout).
            let words: Vec<&(CVar, Cty)> = rest.iter().filter(|(_, c)| c.is_word()).collect();
            let floats: Vec<&(CVar, Cty)> = rest.iter().filter(|(_, c)| !c.is_word()).collect();
            let select = |word_off, flt, &(dst, cty): &(CVar, Cty)| Bind::Select {
                rec: Value::Var(pk),
                word_off,
                flt,
                dst,
                cty,
            };
            let word_sels = words.iter().enumerate().map(|(i, p)| select(i, false, p));
            let flt_sels = floats.iter().enumerate();
            let flt_sels = flt_sels.map(|(j, p)| select(words.len() + 2 * j, true, p));
            let mut binds: VecDeque<Bind> = word_sels.chain(flt_sels).collect();
            binds.append(&mut f.body.binds);
            f.body.binds = binds;
            f.params.push((pk, Cty::Ptr(None)));
            f
        })
        .collect();
    let mut entry = prog.entry.clone();
    rewrite_calls(&mut entry, &packed, &mut next);
    Some(ClosedProgram {
        funs,
        entry,
        next_var: next,
    })
}

/// Packs the trailing arguments of every call to an over-wide function
/// into a record built just before the call.
fn rewrite_calls(e: &mut Cexp, packed: &FxHashMap<CVar, usize>, next: &mut u32) {
    if let Exit::App {
        f: Value::Label(l) | Value::Var(l),
        args,
    } = &mut e.exit
    {
        if let Some(&keep) = packed.get(l) {
            let rest = args.split_off(keep);
            // We do not know CTYs of values here; treat Real constants
            // as floats, everything else as words (variables were split
            // by the callee the same way because CTYs agree by
            // convention).
            let (floats, words): (Vec<Value>, Vec<Value>) =
                rest.into_iter().partition(|v| matches!(v, Value::Real(_)));
            let mut fields: Vec<(Value, Cty)> =
                words.into_iter().map(|v| (v, Cty::Ptr(None))).collect();
            let nflt = floats.len();
            fields.extend(floats.into_iter().map(|v| (v, Cty::Flt)));
            let pk = *next;
            *next += 1;
            args.push(Value::Var(pk));
            e.binds.push_back(Bind::Record {
                fields,
                nflt,
                dst: pk,
            });
        }
    }
    for a in e.exit.arms_mut() {
        rewrite_calls(a, packed, next);
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
/// (a run's bindings, then its exit, then the exit's arms: a switch's
/// arms and then its default, a branch's true and then its false side)
/// gets the sorted free variables of the rest of its run.
#[derive(Default)]
struct Liveness {
    /// Node `i`'s set is `vars[spans[i].0..spans[i].1]`.
    spans: Vec<(u32, u32)>,
    vars: Vec<CVar>,
    /// Scratch for the set being built.
    set: Vec<CVar>,
    /// Scratch: the first nodes of the arms of the exits being filled,
    /// innermost last.
    kids: Vec<usize>,
}

impl Liveness {
    /// Computes the sets of `body`'s nodes, replacing any earlier ones.
    fn compute(&mut self, body: &Cexp) {
        self.spans.clear();
        self.vars.clear();
        self.run(body);
    }

    /// The live set of preorder node `i`.
    fn at(&self, i: usize) -> &[CVar] {
        let (a, b) = self.spans[i];
        &self.vars[a as usize..b as usize]
    }

    /// Numbers the nodes of run `e` and of its arms in preorder, fills
    /// in their sets (arms first, then the run from its exit back), and
    /// returns the number of `e`'s first node.
    fn run(&mut self, e: &Cexp) -> usize {
        let first = self.spans.len();
        let exit = first + e.binds.len();
        self.spans.resize(exit + 1, (0, 0));
        let base = self.kids.len();
        for a in e.exit.arms() {
            let k = self.run(a);
            self.kids.push(k);
        }
        self.fill(exit, base, None, e.exit.operands());
        for (i, b) in e.binds.iter().enumerate().rev() {
            let dst = b.binder().map(|(d, _)| d);
            self.kids.push(first + i + 1);
            self.fill(first + i, base, dst, b.operands());
        }
        first
    }

    /// Node `i`'s set: its children's (the nodes `kids[base..]`, which
    /// this pops), less the variable it binds, plus the variables it
    /// uses.
    fn fill<'v>(
        &mut self,
        i: usize,
        base: usize,
        dst: Option<CVar>,
        uses: impl Iterator<Item = &'v Value>,
    ) {
        let mut set = std::mem::take(&mut self.set);
        set.clear();
        for j in base..self.kids.len() {
            set.extend_from_slice(self.at(self.kids[j]));
        }
        self.kids.truncate(base);
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
    /// Each function name's block index.
    label_of: &'a [u32],
    pool: Vec<String>,
    pool_ix: HashMap<String, u32>,
    /// The function body's live sets, and the preorder number of the
    /// next node [`Gen::gen`] visits.
    live: Liveness,
    next_node: usize,
    instrs: Vec<Instr>,
    /// Where each variable in a register lives, sorted by variable.
    loc: Vec<(CVar, Loc)>,
    free_r: Vec<Reg>,
    free_f: Vec<FReg>,
}

impl Gen<'_> {
    /// Emits a function body onto `instrs`. Its parameters arrive by
    /// the calling convention: word parameters in `r1..`, float ones in
    /// `f0..`; every other register starts free.
    fn body(&mut self, body: &Cexp, params: &[(CVar, Cty)]) {
        self.live.compute(body);
        self.next_node = 0;
        self.loc.clear();
        let mut next_r: Reg = 1;
        let mut next_f: FReg = 0;
        for (p, c) in params {
            if c.is_word() {
                self.set_loc(*p, Loc::R(next_r));
                next_r += 1;
            } else {
                self.set_loc(*p, Loc::F(next_f));
                next_f += 1;
            }
        }
        self.free_r.clear();
        let free_r = (SCRATCH + 1..MAX_REGS).rev().chain((1..CSCRATCH).rev());
        self.free_r.extend(free_r.filter(|r| *r >= next_r));
        self.free_f.clear();
        let free_f = (FSCRATCH + 1..MAX_REGS).rev().chain((0..FSCRATCH).rev());
        self.free_f.extend(free_f.filter(|f| *f >= next_f));
        self.gen(body);
    }

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

    /// Where `v` lives, if it is in a register.
    fn loc_of(&self, v: CVar) -> Option<Loc> {
        let i = self.loc.binary_search_by_key(&v, |&(x, _)| x).ok()?;
        Some(self.loc[i].1)
    }

    /// Puts `v` in `l`.
    fn set_loc(&mut self, v: CVar, l: Loc) {
        match self.loc.binary_search_by_key(&v, |&(x, _)| x) {
            Ok(i) => self.loc[i].1 = l,
            Err(i) => self.loc.insert(i, (v, l)),
        }
    }

    /// Releases every variable not live on entry to the next node, in
    /// the order of their numbers: `loc` and the live set are both
    /// sorted, so one merge finds the dead, and the order registers go
    /// back on the free lists — which decides spills, code size and
    /// cycle counts — depends on nothing else.
    fn prune(&mut self) {
        let live = self.live.at(self.next_node);
        self.next_node += 1;
        let mut next = 0;
        let (free_r, free_f) = (&mut self.free_r, &mut self.free_f);
        self.loc.retain(|&(v, l)| {
            while live.get(next).is_some_and(|&x| x < v) {
                next += 1;
            }
            let keep = live.get(next) == Some(&v);
            if !keep {
                match l {
                    Loc::R(r) => free_r.push(r),
                    Loc::F(f) => free_f.push(f),
                }
            }
            keep
        });
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
            Value::Var(x) => match self.loc_of(*x) {
                Some(Loc::R(r)) => (r, None),
                other => panic!("v{x} not in an int register: {other:?}"),
            },
            Value::Int(n) => {
                let r = self.alloc_r();
                self.instrs.push(Instr::LoadI { d: r, imm: *n });
                (r, Some(r))
            }
            Value::Label(l) => {
                let r = self.alloc_r();
                let label = self.label_of[*l as usize];
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
            Value::Var(x) => match self.loc_of(*x) {
                Some(Loc::F(f)) => (f, None),
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
        self.set_loc(v, Loc::R(r));
        r
    }

    fn bind_f(&mut self, v: CVar) -> FReg {
        let f = self.alloc_f();
        self.set_loc(v, Loc::F(f));
        f
    }

    /// Emits a run: each binding, then the exit, recursing only into
    /// the exit's arms.
    fn gen(&mut self, e: &Cexp) {
        for b in &e.binds {
            self.prune();
            self.gen_bind(b);
        }
        self.prune();
        match &e.exit {
            Exit::Switch {
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
                    self.loc.clone_from(&saved_loc);
                    self.free_r.clone_from(&saved_r);
                    self.free_f.clone_from(&saved_f);
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
            Exit::Branch { op, args, tru, fls } => {
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
            Exit::App { f, args } => self.gen_app(f, args),
            Exit::Halt { v } => {
                let (r, _) = self.word_reg(v);
                self.instrs.push(Instr::Halt { s: r });
            }
        }
    }

    fn gen_bind(&mut self, b: &Bind) {
        match b {
            Bind::Record { fields, dst, .. } => {
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
            }
            Bind::Select {
                rec,
                word_off,
                flt,
                dst,
                ..
            } => {
                let (base, t) = self.word_reg(rec);
                self.free_temp(t);
                let off = *word_off as u16;
                if *flt {
                    let d = self.bind_f(*dst);
                    self.instrs.push(Instr::FLoad { d, base, off });
                } else {
                    let d = self.bind_r(*dst);
                    self.instrs.push(Instr::Load { d, base, off });
                }
            }
            Bind::Pure { op, args, dst, .. } => self.gen_pure(*op, args, *dst),
            Bind::Alloc { op, args, dst } => match op {
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
            },
            Bind::Look { op, args, dst, .. } => match op {
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
            },
            Bind::Set { op, args } => match op {
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
            },
            Bind::Fix { .. } => unreachable!("closure conversion removed Fix"),
        }
    }

    fn gen_pure(&mut self, op: PureOp, args: &[Value], dst: CVar) {
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
            if let Some(Loc::R(r)) = self.loc_of(*x) {
                let n_word_args = args
                    .iter()
                    .filter(|a| match a {
                        Value::Real(_) => false,
                        Value::Var(y) => !matches!(self.loc_of(*y), Some(Loc::F(_))),
                        _ => true,
                    })
                    .count() as u8;
                if r >= 1 && r <= n_word_args {
                    self.instrs.push(Instr::Move { d: CSCRATCH, s: r });
                    Some(CSCRATCH)
                } else {
                    Some(r)
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
                Value::Var(x) => matches!(self.loc_of(*x), Some(Loc::F(_))),
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
                    let Some(Loc::R(s)) = self.loc_of(*x) else {
                        panic!(
                            "call argument v{x} not in an int register ({:?})",
                            self.loc_of(*x)
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
                    let label = self.label_of[l as usize];
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
                    let Some(Loc::F(s)) = self.loc_of(*x) else {
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
                let label = self.label_of[*l as usize];
                self.instrs.push(Instr::Jump { label });
            }
            Value::Var(x) => match callee_reg {
                Some(r) => self.instrs.push(Instr::JumpReg { r }),
                None => match self.loc_of(*x) {
                    Some(Loc::R(r)) => self.instrs.push(Instr::JumpReg { r }),
                    Some(Loc::F(_)) => panic!("calling a float"),
                    None => panic!("callee v{x} not in a register"),
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
    /// rest of a run from its binding `from` on, arms included.
    fn free_vars(e: &Cexp, from: usize) -> HashSet<CVar> {
        fn go(e: &Cexp, from: usize, mut bound: HashSet<CVar>, free: &mut HashSet<CVar>) {
            let mut val = |v: &Value, bound: &HashSet<CVar>| {
                if let Value::Var(x) = v {
                    if !bound.contains(x) {
                        free.insert(*x);
                    }
                }
            };
            for b in e.binds.range(from..) {
                b.operands().for_each(|v| val(v, &bound));
                bound.extend(b.binder().map(|(d, _)| d));
            }
            e.exit.operands().for_each(|v| val(v, &bound));
            for a in e.exit.arms() {
                go(a, 0, bound.clone(), free);
            }
        }
        let mut free = HashSet::new();
        go(e, from, HashSet::new(), &mut free);
        free
    }

    /// Every node of `e`, in the preorder `Gen::gen` visits: a run and
    /// the position of one of its bindings, or of its exit.
    fn preorder<'e>(e: &'e Cexp, out: &mut Vec<(&'e Cexp, usize)>) {
        out.extend((0..=e.binds.len()).map(|i| (e, i)));
        e.exit.arms().for_each(|a| preorder(a, out));
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
                let bodies = std::iter::once(&prog.entry).chain(prog.funs.iter().map(|f| &f.body));
                for body in bodies {
                    let mut live = Liveness::default();
                    live.compute(body);
                    let mut nodes = Vec::new();
                    preorder(body, &mut nodes);
                    assert_eq!(live.spans.len(), nodes.len(), "{} [{v}]", b.name);
                    for (i, (run, from)) in nodes.into_iter().enumerate() {
                        let mut want: Vec<CVar> = free_vars(run, from).into_iter().collect();
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
