//! The threaded execution engine (the default): pre-decoded dispatch
//! with superinstructions and folded static costs.
//!
//! [`predecode`] flattens each [`CodeBlock`]'s `Vec<Instr>` into a
//! stream of compact, fixed-size [`TInstr`] handler records — the
//! heap-carrying `Instr` is ~56 bytes with two levels of bounds-checked
//! indexing per fetch, while a `TInstr` is a 24-byte `Copy` record
//! fetched from one flat slice. Each record carries its instructions'
//! fixed cycle charges ([`Instr::fixed_cost`]: base cost plus spills),
//! computed once here rather than on every execution.
//!
//! A record stands for one instruction or for several (its
//! *constituents*):
//!
//! * a *run*: a maximal sequence of at least two `Move`s, or of at
//!   least two `Load`s from one base register ending at the first load
//!   that overwrites the base. Its `(d, s)` or `(d, off)` pairs sit in
//!   the program's operand pool; the record holds the run's total
//!   charge and the charge of all its constituents but the last;
//! * a fused *pair* observed hot in the figure benchmarks:
//!   `LoadI`+`Arith` (constant operand feeding the ALU),
//!   `LoadI`/`Load`/`Arith` feeding a compare-and-branch, and
//!   `Move`+`Jump` (argument shuffle into a tail call);
//! * a single instruction, `Alloc` and `FBox` included: an `Alloc`'s
//!   operand registers sit in the pool and both fold in their static
//!   charge ([`Instr::alloc_cost`]).
//!
//! No branch targets a record after its first constituent, so every
//! branch lands on a record boundary. The stream is immutable and
//! depends only on the program, so the scheduler builds one per program
//! and shares it between tenants.
//!
//! [`run_slice_threaded`] executes the stream through the same
//! `#[inline(always)]` [`Engine`] handlers as the decode loop, with
//! byte-identical accounting but none of its per-instruction
//! bookkeeping: `cycles` and `instrs` live in locals and reach
//! [`RunStats`](crate::RunStats) only at slice exit and around the
//! synced path; a record charges its folded costs (plus the `sml.fp3`
//! term on a jump) and its classes' counters at constant indices
//! *before* the handler that could trap, so a trapping record pays
//! exactly what the decode loop charges; the read barrier is drained
//! only after loads, the one place it can copy.
//!
//! Every record has a fast path, taken only when it provably does
//! exactly what the decode loop would, and a fallback that runs its
//! constituents one at a time through [`Engine::exec`] (the decode
//! loop's own accounted step, on the synced path: counters written
//! back, then reloaded) with the decode loop's fuel and preemption
//! checks before each. One rule covers every record of several
//! constituents: it takes its fast path only when no such check could
//! fire inside it, i.e. `cycles` plus the charge of all constituents
//! but the last is below the next check point. On top of that, an
//! `Alloc` or `FBox` needs plain nursery allocation to apply, which
//! [`Heap::bump_young`](crate::heap::Heap::bump_young) decides with one
//! compare against the heap's nursery limit; its fields then take plain
//! stores, since the write barrier only remembers slots of tenured
//! objects. With allocation fault injection configured (checked once
//! per slice: it counts allocations one by one) every allocation falls
//! back to the full allocation protocol, which is all the decode loop
//! ever runs. A `Load` run, and `Load`+`Branch`, need no active
//! incremental major; and a `Load` run needs one bounds check covering
//! all its offsets to pass. A slice that ends mid-record
//! resumes through the same fallback loop, at the constituent where it
//! stopped: slice boundaries, like every counter, match the decode loop
//! exactly.
//!
//! `AllocArr`, `Switch`, `Rt`, `Print`, `SBranch`, `PolyEqBranch`,
//! `Alloc`s past the descriptor limits, and branches whose target
//! cannot be mapped into the stream pre-decode to a [`TInstr::Slow`]
//! record, which only has the fallback.
//!
//! The pre-decoded stream is itself verified: `verify::verify_threaded`
//! round-trips every record back to the original instructions through
//! the operand pool and re-checks operand bounds, the folded costs and
//! each run's shape, so the typed chain covers the stream the VM
//! actually executes.

use crate::heap::{MAX_RAW_WORDS, MAX_SCAN_FIELDS};
use crate::isa::*;
use crate::vm::{drain_barrier, Engine, VmInstance, VmResult};

/// One pre-decoded handler record. Flat (no heap indirection), `Copy`,
/// and at most 24 bytes; branch targets are in *threaded* coordinates
/// (record indices within the block's stream), operand lists are
/// ranges of the program's operand pools. `c` is the record's fixed
/// cycle charge; a pair carries one per constituent (`c1`, `c2`), a run
/// its `total` and the charge `pre` of all its constituents but the
/// last, and an allocation its static charge `sc`
/// ([`Instr::alloc_cost`]) too.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TInstr {
    Move {
        d: Reg,
        s: Reg,
        c: u8,
    },
    FMove {
        d: FReg,
        s: FReg,
        c: u8,
    },
    LoadI {
        d: Reg,
        imm: i64,
        c: u8,
    },
    LoadF {
        d: FReg,
        imm: f64,
        c: u8,
    },
    LoadStr {
        d: Reg,
        pool: u32,
        c: u8,
    },
    LoadLabel {
        d: Reg,
        label: u32,
        c: u8,
    },
    /// A run of at least two `Move`s: the `(d, s)` pairs
    /// `run_ops[at..at + n]`.
    MoveRun {
        at: u32,
        n: u32,
        total: u32,
        pre: u32,
    },
    Arith {
        op: AOp,
        d: Reg,
        a: Reg,
        b: Reg,
        c: u8,
    },
    FArith {
        op: FOp,
        d: FReg,
        a: FReg,
        b: FReg,
        c: u8,
    },
    FUnary {
        op: FUOp,
        d: FReg,
        a: FReg,
        c: u8,
    },
    Floor {
        d: Reg,
        a: FReg,
        c: u8,
    },
    IntToReal {
        d: FReg,
        a: Reg,
        c: u8,
    },
    Load {
        d: Reg,
        base: Reg,
        off: u16,
        c: u8,
    },
    /// A run of at least two `Load`s from `base`, ending at the first
    /// that overwrites it: the `(d, off)` pairs `run_ops[at..at + n]`,
    /// `max_off` the largest offset.
    LoadRun {
        base: Reg,
        max_off: u16,
        at: u32,
        n: u32,
        total: u32,
        pre: u32,
    },
    Store {
        s: Reg,
        base: Reg,
        off: u16,
        c: u8,
    },
    StoreWB {
        s: Reg,
        base: Reg,
        off: u16,
        c: u8,
    },
    FLoad {
        d: FReg,
        base: Reg,
        off: u16,
        c: u8,
    },
    FStore {
        s: FReg,
        base: Reg,
        off: u16,
        c: u8,
    },
    LoadIdx {
        d: Reg,
        base: Reg,
        idx: Reg,
        c: u8,
    },
    StoreIdx {
        s: Reg,
        base: Reg,
        idx: Reg,
        c: u8,
    },
    StoreIdxWB {
        s: Reg,
        base: Reg,
        idx: Reg,
        c: u8,
    },
    ArrLen {
        d: Reg,
        a: Reg,
        c: u8,
    },
    /// `Alloc` within the descriptor limits: `nw` word then `nf` float
    /// operand registers at `alloc_ops[at..]`.
    Alloc {
        d: Reg,
        kind: AllocKind,
        nw: u16,
        nf: u16,
        at: u32,
        c: u8,
        sc: u32,
    },
    FBox {
        d: Reg,
        s: FReg,
        c: u8,
        sc: u8,
    },
    FUnbox {
        d: FReg,
        s: Reg,
        c: u8,
    },
    Branch {
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
        c: u8,
    },
    FBranch {
        op: FBrOp,
        a: FReg,
        b: FReg,
        t: u32,
        c: u8,
    },
    Jump {
        label: u32,
        c: u8,
    },
    JumpReg {
        r: Reg,
        c: u8,
    },
    GetHdlr {
        d: Reg,
        c: u8,
    },
    SetHdlr {
        s: Reg,
        c: u8,
    },
    /// Halting costs nothing, so the two terminators carry no charge.
    Halt {
        s: Reg,
    },
    Uncaught {
        s: Reg,
    },
    /// Superinstruction: `LoadI di, imm` then `Arith op d, a, b`.
    LoadIArith {
        imm: i64,
        di: Reg,
        op: AOp,
        d: Reg,
        a: Reg,
        b: Reg,
        c1: u8,
        c2: u8,
    },
    /// Superinstruction: `LoadI di, imm` then `Branch op a, b -> t`.
    LoadIBranch {
        imm: i64,
        di: Reg,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
        c1: u8,
        c2: u8,
    },
    /// Superinstruction: `Load dl, [base+off]` then `Branch op a, b -> t`.
    LoadBranch {
        dl: Reg,
        base: Reg,
        off: u16,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
        c1: u8,
        c2: u8,
    },
    /// Superinstruction: `Arith aop ad, aa, ab` then `Branch op a, b -> t`.
    ArithBranch {
        aop: AOp,
        ad: Reg,
        aa: Reg,
        ab: Reg,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
        c1: u8,
        c2: u8,
    },
    /// Superinstruction: `Move d, s` then `Jump label` (tail-call
    /// argument shuffle).
    MoveJump {
        d: Reg,
        s: Reg,
        label: u32,
        c1: u8,
        c2: u8,
    },
    /// Deferral to [`Engine::exec`] on the original instruction at
    /// `pc`: heap-dependent costs, jump tables, runtime calls, an
    /// oversize `Alloc`, or a branch whose target cannot be mapped into
    /// the stream.
    Slow {
        pc: u32,
    },
}

/// One block's pre-decoded stream plus the two coordinate maps between
/// original pcs and record indices.
pub(crate) struct ThreadedBlock {
    /// The handler records.
    pub(crate) code: Vec<TInstr>,
    /// `pc_map[pc]` is the record containing original instruction `pc`
    /// (length `n + 1`; `pc_map[n] == code.len()` so a fall-off-the-end
    /// pc maps to the one-past-the-end record).
    pub(crate) pc_map: Vec<u32>,
    /// `tpc_to_pc[rec]` is the original pc of record `rec`'s first
    /// constituent (length `code.len() + 1`;
    /// `tpc_to_pc[code.len()] == n`).
    pub(crate) tpc_to_pc: Vec<u32>,
}

/// A whole program's pre-decoded streams: built once per program and
/// shared, read-only, by every instance running it.
pub(crate) struct ThreadedProgram {
    pub(crate) blocks: Vec<ThreadedBlock>,
    /// The operand pools every block's records index: `Alloc` operand
    /// registers (words, then floats), and runs' `(d, s)` or
    /// `(d, off)` pairs.
    pub(crate) alloc_ops: Vec<Reg>,
    pub(crate) run_ops: Vec<(Reg, u16)>,
    /// Superinstructions: records of more than one constituent (pairs
    /// and runs).
    pub(crate) fused: u64,
    /// Total handler records across all blocks.
    pub(crate) stream_len: u64,
}

/// The fixed charge of an instruction the pre-decoder gives a flat
/// record (every such instruction has one).
fn cost(ins: &Instr) -> u8 {
    // At most 24 cycles (a transcendental with two spilled operands);
    // `verify_threaded` re-checks every folded charge.
    ins.fixed_cost() as u8
}

/// Is `(i1, i2)` a fusable pair? Branch-consuming pairs additionally
/// require a mappable target (`target <= n`); an out-of-range target
/// must fault with the original pc, which only the slow path preserves.
fn fusable(i1: &Instr, i2: &Instr, n: usize) -> bool {
    match (i1, i2) {
        (Instr::LoadI { .. }, Instr::Arith { .. }) => true,
        (
            Instr::LoadI { .. } | Instr::Load { .. } | Instr::Arith { .. },
            Instr::Branch { target, .. },
        ) => *target as usize <= n,
        (Instr::Move { .. }, Instr::Jump { .. }) => true,
        _ => false,
    }
}

/// The length of the run starting at `pc`: `Move`s, or `Load`s from
/// one base up to and including the first that overwrites it, never
/// extending onto a branch target. 1 when no run starts there.
fn run_len(instrs: &[Instr], pc: usize, is_target: &[bool]) -> usize {
    let mut k = 1;
    match instrs[pc] {
        Instr::Move { .. } => {
            while matches!(instrs.get(pc + k), Some(Instr::Move { .. })) && !is_target[pc + k] {
                k += 1;
            }
        }
        Instr::Load { d, base, .. } if d != base => {
            while let Some(&Instr::Load { d, base: b, .. }) = instrs.get(pc + k) {
                if b != base || is_target[pc + k] {
                    break;
                }
                k += 1;
                if d == base {
                    break;
                }
            }
        }
        _ => {}
    }
    k
}

/// Translates one unfused instruction into its flat record (an
/// `Alloc`'s operand registers go to `alloc_ops`), or [`TInstr::Slow`]
/// for the deferred set.
fn translate_single(
    ins: &Instr,
    pc: usize,
    pc_map: &[u32],
    n: usize,
    alloc_ops: &mut Vec<Reg>,
) -> TInstr {
    let c = cost(ins);
    match *ins {
        Instr::Move { d, s } => TInstr::Move { d, s, c },
        Instr::FMove { d, s } => TInstr::FMove { d, s, c },
        Instr::LoadI { d, imm } => TInstr::LoadI { d, imm, c },
        Instr::LoadF { d, imm } => TInstr::LoadF { d, imm, c },
        Instr::LoadStr { d, pool } => TInstr::LoadStr { d, pool, c },
        Instr::LoadLabel { d, label } => TInstr::LoadLabel { d, label, c },
        Instr::Arith { op, d, a, b } => TInstr::Arith { op, d, a, b, c },
        Instr::FArith { op, d, a, b } => TInstr::FArith { op, d, a, b, c },
        Instr::FUnary { op, d, a } => TInstr::FUnary { op, d, a, c },
        Instr::Floor { d, a } => TInstr::Floor { d, a, c },
        Instr::IntToReal { d, a } => TInstr::IntToReal { d, a, c },
        Instr::Load { d, base, off } => TInstr::Load { d, base, off, c },
        Instr::Store { s, base, off } => TInstr::Store { s, base, off, c },
        Instr::StoreWB { s, base, off } => TInstr::StoreWB { s, base, off, c },
        Instr::FLoad { d, base, off } => TInstr::FLoad { d, base, off, c },
        Instr::FStore { s, base, off } => TInstr::FStore { s, base, off, c },
        Instr::LoadIdx { d, base, idx } => TInstr::LoadIdx { d, base, idx, c },
        Instr::StoreIdx { s, base, idx } => TInstr::StoreIdx { s, base, idx, c },
        Instr::StoreIdxWB { s, base, idx } => TInstr::StoreIdxWB { s, base, idx, c },
        Instr::ArrLen { d, a } => TInstr::ArrLen { d, a, c },
        Instr::Alloc {
            d,
            kind,
            ref words,
            ref flts,
        } if words.len() <= MAX_SCAN_FIELDS as usize
            && 2 * flts.len() <= MAX_RAW_WORDS as usize =>
        {
            let at = alloc_ops.len() as u32;
            alloc_ops.extend_from_slice(words);
            alloc_ops.extend_from_slice(flts);
            TInstr::Alloc {
                d,
                kind,
                nw: words.len() as u16,
                nf: flts.len() as u16,
                at,
                c,
                sc: ins.alloc_cost() as u32,
            }
        }
        Instr::FBox { d, s } => TInstr::FBox {
            d,
            s,
            c,
            sc: ins.alloc_cost() as u8,
        },
        Instr::FUnbox { d, s } => TInstr::FUnbox { d, s, c },
        Instr::Branch { op, a, b, target } if target as usize <= n => TInstr::Branch {
            op,
            a,
            b,
            t: pc_map[target as usize],
            c,
        },
        Instr::FBranch { op, a, b, target } if target as usize <= n => TInstr::FBranch {
            op,
            a,
            b,
            t: pc_map[target as usize],
            c,
        },
        Instr::Jump { label } => TInstr::Jump { label, c },
        Instr::JumpReg { r } => TInstr::JumpReg { r, c },
        Instr::GetHdlr { d } => TInstr::GetHdlr { d, c },
        Instr::SetHdlr { s } => TInstr::SetHdlr { s, c },
        Instr::Halt { s } => TInstr::Halt { s },
        Instr::Uncaught { s } => TInstr::Uncaught { s },
        // Heap-dependent costs, jump tables, runtime calls and oversize
        // allocations stay on the synced path, as do unmappable branch
        // targets: the decode path faults with the original pc.
        _ => TInstr::Slow { pc: pc as u32 },
    }
}

/// Builds the fused record for a pair selected by [`fusable`].
fn translate_pair(i1: &Instr, i2: &Instr, pc_map: &[u32]) -> TInstr {
    let (c1, c2) = (cost(i1), cost(i2));
    match (i1, i2) {
        (&Instr::LoadI { d: di, imm }, &Instr::Arith { op, d, a, b }) => TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
            c1,
            c2,
        },
        (&Instr::LoadI { d: di, imm }, &Instr::Branch { op, a, b, target }) => {
            TInstr::LoadIBranch {
                imm,
                di,
                op,
                a,
                b,
                t: pc_map[target as usize],
                c1,
                c2,
            }
        }
        (&Instr::Load { d, base, off }, &Instr::Branch { op, a, b, target }) => {
            TInstr::LoadBranch {
                dl: d,
                base,
                off,
                op,
                a,
                b,
                t: pc_map[target as usize],
                c1,
                c2,
            }
        }
        (
            &Instr::Arith { op: aop, d, a, b },
            &Instr::Branch {
                op,
                a: ba,
                b: bb,
                target,
            },
        ) => TInstr::ArithBranch {
            aop,
            ad: d,
            aa: a,
            ab: b,
            op,
            a: ba,
            b: bb,
            t: pc_map[target as usize],
            c1,
            c2,
        },
        (&Instr::Move { d, s }, &Instr::Jump { label }) => TInstr::MoveJump {
            d,
            s,
            label,
            c1,
            c2,
        },
        _ => unreachable!("translate_pair on a pair fusable() rejected"),
    }
}

/// Builds the record for a run selected by [`run_len`], its pairs
/// appended to `run_ops`.
fn translate_run(run: &[Instr], run_ops: &mut Vec<(Reg, u16)>) -> TInstr {
    let at = run_ops.len() as u32;
    let n = run.len() as u32;
    let pre: u32 = run[..run.len() - 1].iter().map(|i| cost(i) as u32).sum();
    let total = pre + cost(&run[run.len() - 1]) as u32;
    match run[0] {
        Instr::Move { .. } => {
            run_ops.extend(run.iter().map(|i| match *i {
                Instr::Move { d, s } => (d, s as u16),
                _ => unreachable!("a Move run holds only moves"),
            }));
            TInstr::MoveRun { at, n, total, pre }
        }
        Instr::Load { base, .. } => {
            let mut max_off = 0;
            run_ops.extend(run.iter().map(|i| match *i {
                Instr::Load { d, off, .. } => {
                    max_off = max_off.max(off);
                    (d, off)
                }
                _ => unreachable!("a Load run holds only loads"),
            }));
            TInstr::LoadRun {
                base,
                max_off,
                at,
                n,
                total,
                pre,
            }
        }
        _ => unreachable!("translate_run on a sequence run_len rejected"),
    }
}

/// Pre-decodes one block: segments the instruction stream into records
/// (pass 1), then emits them with branch targets mapped into threaded
/// coordinates (pass 2). Returns the block and its superinstruction
/// count.
fn predecode_block(
    b: &CodeBlock,
    alloc_ops: &mut Vec<Reg>,
    run_ops: &mut Vec<(Reg, u16)>,
) -> (ThreadedBlock, u64) {
    let instrs = &b.instrs;
    let n = instrs.len();

    // Original pcs that any branch in the block may target (a target
    // beyond the block is left unmapped — the slow path preserves its
    // fault pc). A targeted pc must start a record, so it ends a run
    // and blocks fusion as a second constituent.
    let mut is_target = vec![false; n + 1];
    let mut targets = Vec::new();
    for ins in instrs {
        targets.clear();
        crate::verify::branch_targets(ins, &mut targets);
        for &t in &targets {
            if t as usize <= n {
                is_target[t as usize] = true;
            }
        }
    }

    // Pass 1: segmentation. A run if one starts here, else a pair if
    // the instruction fuses with its successor, else a single; every
    // pc gets its record index.
    let mut pc_map = vec![0u32; n + 1];
    let mut starts: Vec<u32> = Vec::with_capacity(n + 1);
    let mut pc = 0usize;
    while pc < n {
        let len = match run_len(instrs, pc, &is_target) {
            1 if pc + 1 < n && !is_target[pc + 1] && fusable(&instrs[pc], &instrs[pc + 1], n) => 2,
            k => k,
        };
        pc_map[pc..pc + len].fill(starts.len() as u32);
        starts.push(pc as u32);
        pc += len;
    }
    pc_map[n] = starts.len() as u32;
    starts.push(n as u32);

    // Pass 2: emission, now that every branch target's record index is
    // known.
    let mut code = Vec::with_capacity(starts.len() - 1);
    let mut fused = 0u64;
    for w in starts.windows(2) {
        let (start, end) = (w[0] as usize, w[1] as usize);
        code.push(match &instrs[start..end] {
            [one] => translate_single(one, start, &pc_map, n, alloc_ops),
            [i1, i2] if fusable(i1, i2, n) => translate_pair(i1, i2, &pc_map),
            run => translate_run(run, run_ops),
        });
        if end - start > 1 {
            fused += 1;
        }
    }
    (
        ThreadedBlock {
            code,
            pc_map,
            tpc_to_pc: starts,
        },
        fused,
    )
}

/// Pre-decodes a whole program into threaded streams, folding in the
/// fixed costs.
pub(crate) fn predecode(prog: &MachineProgram) -> ThreadedProgram {
    let mut blocks = Vec::with_capacity(prog.blocks.len());
    let (mut alloc_ops, mut run_ops) = (Vec::new(), Vec::new());
    let mut fused = 0u64;
    let mut stream_len = 0u64;
    for b in &prog.blocks {
        let (tb, f) = predecode_block(b, &mut alloc_ops, &mut run_ops);
        fused += f;
        stream_len += tb.code.len() as u64;
        blocks.push(tb);
    }
    ThreadedProgram {
        blocks,
        alloc_ops,
        run_ops,
        fused,
        stream_len,
    }
}

/// A record expanded back into original-coordinate [`Instr`]s, with the
/// charges it folded in.
pub(crate) struct Expansion {
    pub(crate) instrs: Vec<Instr>,
    /// Fixed charge of every constituent but the last.
    pub(crate) pre: u64,
    /// Fixed charge of all the constituents.
    pub(crate) total: u64,
    /// Static allocation charge ([`Instr::alloc_cost`]): 0 but for
    /// `Alloc` and `FBox`.
    pub(crate) alloc: u64,
}

impl Expansion {
    /// Constituents that each carry their own fixed charge.
    fn each(parts: Vec<(Instr, u8)>) -> Expansion {
        let last = parts.last().map_or(0, |&(_, c)| c as u64);
        let total = parts.iter().map(|&(_, c)| c as u64).sum::<u64>();
        Expansion {
            instrs: parts.into_iter().map(|(i, _)| i).collect(),
            pre: total - last,
            total,
            alloc: 0,
        }
    }
}

/// Expands a record back into original-coordinate [`Instr`]s (threaded
/// branch targets mapped back through `tpc_to_pc`, operand lists read
/// from the pools exactly as the engine reads them) with the charges it
/// folded in. Returns `None` for [`TInstr::Slow`], which carries no
/// operand copy to round-trip, and for a record whose operand range
/// lies outside its pool. Used by `verify::verify_threaded`.
pub(crate) fn expand(t: &TInstr, tb: &ThreadedBlock, tp: &ThreadedProgram) -> Option<Expansion> {
    let run = |at: u32, n: u32| tp.run_ops.get(at as usize..at as usize + n as usize);
    Some(match *t {
        TInstr::Alloc {
            d,
            kind,
            nw,
            nf,
            at,
            c,
            sc,
        } => {
            let ops = tp
                .alloc_ops
                .get(at as usize..at as usize + nw as usize + nf as usize)?;
            let (words, flts) = ops.split_at(nw as usize);
            Expansion {
                instrs: vec![Instr::Alloc {
                    d,
                    kind,
                    words: words.to_vec(),
                    flts: flts.to_vec(),
                }],
                pre: 0,
                total: c as u64,
                alloc: sc as u64,
            }
        }
        TInstr::FBox { d, s, c, sc } => Expansion {
            instrs: vec![Instr::FBox { d, s }],
            pre: 0,
            total: c as u64,
            alloc: sc as u64,
        },
        TInstr::MoveRun { at, n, total, pre } => Expansion {
            instrs: run(at, n)?
                .iter()
                .map(|&(d, s)| Instr::Move { d, s: s as Reg })
                .collect(),
            pre: pre as u64,
            total: total as u64,
            alloc: 0,
        },
        TInstr::LoadRun {
            base,
            at,
            n,
            total,
            pre,
            ..
        } => Expansion {
            instrs: run(at, n)?
                .iter()
                .map(|&(d, off)| Instr::Load { d, base, off })
                .collect(),
            pre: pre as u64,
            total: total as u64,
            alloc: 0,
        },
        _ => Expansion::each(constituents(t, tb)?),
    })
}

/// The constituents of a single-instruction or pair record, each with
/// the fixed charge folded in for it; `None` for the other records.
fn constituents(t: &TInstr, tb: &ThreadedBlock) -> Option<Vec<(Instr, u8)>> {
    let back = |t: u32| tb.tpc_to_pc[t as usize];
    Some(match *t {
        TInstr::Move { d, s, c } => vec![(Instr::Move { d, s }, c)],
        TInstr::FMove { d, s, c } => vec![(Instr::FMove { d, s }, c)],
        TInstr::LoadI { d, imm, c } => vec![(Instr::LoadI { d, imm }, c)],
        TInstr::LoadF { d, imm, c } => vec![(Instr::LoadF { d, imm }, c)],
        TInstr::LoadStr { d, pool, c } => vec![(Instr::LoadStr { d, pool }, c)],
        TInstr::LoadLabel { d, label, c } => vec![(Instr::LoadLabel { d, label }, c)],
        TInstr::Arith { op, d, a, b, c } => vec![(Instr::Arith { op, d, a, b }, c)],
        TInstr::FArith { op, d, a, b, c } => vec![(Instr::FArith { op, d, a, b }, c)],
        TInstr::FUnary { op, d, a, c } => vec![(Instr::FUnary { op, d, a }, c)],
        TInstr::Floor { d, a, c } => vec![(Instr::Floor { d, a }, c)],
        TInstr::IntToReal { d, a, c } => vec![(Instr::IntToReal { d, a }, c)],
        TInstr::Load { d, base, off, c } => vec![(Instr::Load { d, base, off }, c)],
        TInstr::Store { s, base, off, c } => vec![(Instr::Store { s, base, off }, c)],
        TInstr::StoreWB { s, base, off, c } => vec![(Instr::StoreWB { s, base, off }, c)],
        TInstr::FLoad { d, base, off, c } => vec![(Instr::FLoad { d, base, off }, c)],
        TInstr::FStore { s, base, off, c } => vec![(Instr::FStore { s, base, off }, c)],
        TInstr::LoadIdx { d, base, idx, c } => vec![(Instr::LoadIdx { d, base, idx }, c)],
        TInstr::StoreIdx { s, base, idx, c } => vec![(Instr::StoreIdx { s, base, idx }, c)],
        TInstr::StoreIdxWB { s, base, idx, c } => {
            vec![(Instr::StoreIdxWB { s, base, idx }, c)]
        }
        TInstr::ArrLen { d, a, c } => vec![(Instr::ArrLen { d, a }, c)],
        TInstr::FUnbox { d, s, c } => vec![(Instr::FUnbox { d, s }, c)],
        TInstr::Branch { op, a, b, t, c } => vec![(
            Instr::Branch {
                op,
                a,
                b,
                target: back(t),
            },
            c,
        )],
        TInstr::FBranch { op, a, b, t, c } => vec![(
            Instr::FBranch {
                op,
                a,
                b,
                target: back(t),
            },
            c,
        )],
        TInstr::Jump { label, c } => vec![(Instr::Jump { label }, c)],
        TInstr::JumpReg { r, c } => vec![(Instr::JumpReg { r }, c)],
        TInstr::GetHdlr { d, c } => vec![(Instr::GetHdlr { d }, c)],
        TInstr::SetHdlr { s, c } => vec![(Instr::SetHdlr { s }, c)],
        TInstr::Halt { s } => vec![(Instr::Halt { s }, 0)],
        TInstr::Uncaught { s } => vec![(Instr::Uncaught { s }, 0)],
        TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
            c1,
            c2,
        } => vec![
            (Instr::LoadI { d: di, imm }, c1),
            (Instr::Arith { op, d, a, b }, c2),
        ],
        TInstr::LoadIBranch {
            imm,
            di,
            op,
            a,
            b,
            t,
            c1,
            c2,
        } => vec![
            (Instr::LoadI { d: di, imm }, c1),
            (
                Instr::Branch {
                    op,
                    a,
                    b,
                    target: back(t),
                },
                c2,
            ),
        ],
        TInstr::LoadBranch {
            dl,
            base,
            off,
            op,
            a,
            b,
            t,
            c1,
            c2,
        } => vec![
            (Instr::Load { d: dl, base, off }, c1),
            (
                Instr::Branch {
                    op,
                    a,
                    b,
                    target: back(t),
                },
                c2,
            ),
        ],
        TInstr::ArithBranch {
            aop,
            ad,
            aa,
            ab,
            op,
            a,
            b,
            t,
            c1,
            c2,
        } => vec![
            (
                Instr::Arith {
                    op: aop,
                    d: ad,
                    a: aa,
                    b: ab,
                },
                c1,
            ),
            (
                Instr::Branch {
                    op,
                    a,
                    b,
                    target: back(t),
                },
                c2,
            ),
        ],
        TInstr::MoveJump {
            d,
            s,
            label,
            c1,
            c2,
        } => vec![(Instr::Move { d, s }, c1), (Instr::Jump { label }, c2)],
        TInstr::Alloc { .. }
        | TInstr::FBox { .. }
        | TInstr::MoveRun { .. }
        | TInstr::LoadRun { .. }
        | TInstr::Slow { .. } => return None,
    })
}

/// The threaded dispatch loop: same contract as the decode loop
/// (`VmInstance::run_slice_decode`), same [`Engine`] handlers, same
/// accounting and slice boundaries — only the fetch/decode mechanics and
/// the bookkeeping per record differ (see the module docs).
pub(crate) fn run_slice_threaded(vm: &mut VmInstance<'_>, quantum: u64) -> bool {
    if vm.finished.is_some() {
        return true;
    }
    let tp = vm
        .threaded
        .as_deref()
        .expect("threaded dispatch without a pre-decoded stream");
    let max_cycles = vm.cfg.max_cycles;
    // The `sml.fp3` callee-save cycle every jump pays on top of its
    // folded charge.
    let fp3 = vm.cfg.fp3_overhead as u64;
    let stop_at = vm.stats.cycles.saturating_add(quantum);
    // One compare per record stands for the decode loop's two
    // top-of-iteration checks: fuel (`cycles > max_cycles`) and
    // preemption (`cycles >= stop_at`).
    let check_at = stop_at.min(max_cycles.saturating_add(1));
    // Allocation fault injection counts allocations one by one, so with
    // it configured every allocation takes the protocol path.
    let young = vm.cfg.fault.fail_alloc_at.is_none() && vm.cfg.fault.gc_every_n_allocs.is_none();
    let mut eng = Engine {
        prog: &vm.prog,
        cfg: &vm.cfg,
        heap: &mut vm.heap,
        pool_ptrs: &vm.pool_ptrs,
        regs: &mut vm.regs,
        fregs: &mut vm.fregs,
        handler: &mut vm.handler,
        stats: &mut vm.stats,
        output: &mut vm.output,
        yield_ctr: &mut vm.yield_ctr,
        block: vm.block,
        pc: vm.pc,
    };
    let prog = eng.prog;
    let (alloc_ops, run_ops) = (&tp.alloc_ops[..], &tp.run_ops[..]);
    // The two counters every record bumps live in locals; `RunStats`
    // sees them at slice exit and around every synced call.
    let mut cycles = eng.stats.cycles;
    let mut instrs = eng.stats.instrs;
    let mut out: Option<VmResult> = None;
    // The cursor: the current block's records and the threaded pc.
    // `exit_pc`, unless it is `NO_PC`, overrides the original pc the
    // position maps back to — for a position with no threaded
    // coordinate (an out-of-range pc or block), or a slice that ended
    // mid-record. A sentinel rather than an `Option`: it is live across
    // every record, and one register where an `Option` takes two keeps
    // the dispatch path free of spills.
    const NO_PC: usize = usize::MAX;
    let mut code: &[TInstr];
    let mut tpc: usize;
    let mut exit_pc: usize;

    'run: {
        // Points the cursor at original position (`eng.block`,
        // `eng.pc`). Fall-through and every branch target land on a
        // record boundary, so the mapping is exact.
        macro_rules! rejoin {
            () => {
                match tp.blocks.get(eng.block) {
                    Some(tb) => {
                        code = &tb.code;
                        match tb.pc_map.get(eng.pc) {
                            Some(&t) => {
                                tpc = t as usize;
                                exit_pc = NO_PC;
                            }
                            None => {
                                tpc = code.len();
                                exit_pc = eng.pc;
                            }
                        }
                    }
                    None => {
                        code = &[];
                        tpc = 0;
                        exit_pc = eng.pc;
                    }
                }
            };
        }
        // Direct transfer to the start of block `label`.
        macro_rules! goto {
            ($label:expr) => {{
                eng.block = $label;
                tpc = 0;
                match tp.blocks.get(eng.block) {
                    Some(tb) => code = &tb.code,
                    None => {
                        code = &[];
                        exit_pc = 0;
                    }
                }
            }};
        }
        // The decode loop's top-of-iteration checks; `$mid` is the pc to
        // resume at when the slice ends mid-record.
        macro_rules! checks {
            ($($mid:expr)?) => {
                if cycles >= check_at {
                    if cycles > max_cycles {
                        out = Some(VmResult::OutOfFuel);
                        break 'run;
                    }
                    if cycles >= stop_at {
                        $(exit_pc = $mid;)?
                        break 'run; // quantum spent: preempted
                    }
                }
            };
        }
        // The one mid-record rule: a record of several constituents
        // takes its fast path only when no fuel or preemption check
        // could fire inside it, i.e. when `cycles` plus `$pre`, the
        // charge of all its constituents but the last, is below
        // `check_at`. Every record starts with `cycles < check_at` (the
        // checks above just passed), so the subtraction cannot
        // overflow.
        macro_rules! fits {
            ($pre:expr) => {
                ($pre as u64) < check_at - cycles
            };
        }
        // Counts `$n` record constituents of one class and charges their
        // folded cost `$c`, before the handler runs.
        macro_rules! charge {
            ($class:expr, $c:expr) => {
                charge!($class, $c, 1)
            };
            ($class:expr, $c:expr, $n:expr) => {{
                let (c, n) = ($c as u64, $n as u64);
                cycles += c;
                instrs += n;
                eng.stats.cycles_by_class[$class as usize] += c;
                eng.stats.instrs_by_class[$class as usize] += n;
            }};
        }
        macro_rules! trap {
            ($r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(end) => {
                        out = Some(end);
                        break 'run;
                    }
                }
            };
        }
        // After a load: charge any read-barrier copy work to the
        // collector.
        macro_rules! drain {
            () => {
                if eng.heap.barrier_words_pending() {
                    let cost = drain_barrier(&mut *eng.heap, &mut *eng.stats);
                    cycles += cost;
                    eng.stats.cycles_by_class[InstrClass::Gc as usize] += cost;
                }
            };
        }
        // The synced path: the current record's constituents from
        // original pc `$from` to its end, one at a time through the
        // decode loop's accounted step with its checks before each, the
        // counters written back before and reloaded after. It is every
        // record's fallback, `Slow`'s only path, and how a slice that
        // ended mid-record resumes.
        macro_rules! one_by_one {
            ($from:expr) => {{
                let end = tp.blocks[eng.block].tpc_to_pc[tpc + 1] as usize;
                let mut pc = $from;
                while pc < end {
                    checks!(pc);
                    let instr = &prog.blocks[eng.block].instrs[pc];
                    eng.pc = pc + 1;
                    eng.stats.cycles = cycles;
                    eng.stats.instrs = instrs;
                    let r = eng.exec(instr);
                    cycles = eng.stats.cycles;
                    instrs = eng.stats.instrs;
                    trap!(r);
                    pc += 1;
                }
                rejoin!();
            }};
        }
        // A record that cannot take its fast path: all of it, one by one.
        macro_rules! fallback {
            () => {
                one_by_one!(tp.blocks[eng.block].tpc_to_pc[tpc] as usize)
            };
        }

        rejoin!();
        // A slice that ended mid-record resumes with the rest of it.
        if exit_pc == NO_PC && tp.blocks[eng.block].tpc_to_pc[tpc] as usize != eng.pc {
            one_by_one!(eng.pc);
        }
        loop {
            checks!();
            let Some(rec) = code.get(tpc) else {
                let pc = if exit_pc == NO_PC {
                    tp.blocks[eng.block].tpc_to_pc[tpc] as usize
                } else {
                    exit_pc
                };
                out = Some(VmResult::Fault(format!(
                    "instruction fetch out of range: block {} pc {}",
                    eng.block, pc
                )));
                break 'run;
            };
            match *rec {
                TInstr::Move { d, s, c } => {
                    charge!(InstrClass::Move, c);
                    eng.m_move(d, s);
                    tpc += 1;
                }
                TInstr::MoveRun { at, n, total, pre } => {
                    if fits!(pre) {
                        charge!(InstrClass::Move, total, n);
                        // In order: a later move sees an earlier one.
                        for &(d, s) in &run_ops[at as usize..at as usize + n as usize] {
                            eng.m_move(d, s as Reg);
                        }
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::FMove { d, s, c } => {
                    charge!(InstrClass::Move, c);
                    eng.m_fmove(d, s);
                    tpc += 1;
                }
                TInstr::LoadI { d, imm, c } => {
                    charge!(InstrClass::Move, c);
                    eng.m_loadi(d, imm);
                    tpc += 1;
                }
                TInstr::LoadF { d, imm, c } => {
                    charge!(InstrClass::Move, c);
                    eng.m_loadf(d, imm);
                    tpc += 1;
                }
                TInstr::LoadStr { d, pool, c } => {
                    charge!(InstrClass::Move, c);
                    trap!(eng.m_loadstr(d, pool));
                    tpc += 1;
                }
                TInstr::LoadLabel { d, label, c } => {
                    charge!(InstrClass::Move, c);
                    eng.m_loadlabel(d, label);
                    tpc += 1;
                }
                TInstr::Arith { op, d, a, b, c } => {
                    charge!(InstrClass::IntArith, c);
                    trap!(eng.m_arith(op, d, a, b));
                    tpc += 1;
                }
                TInstr::FArith { op, d, a, b, c } => {
                    charge!(InstrClass::FloatArith, c);
                    eng.m_farith(op, d, a, b);
                    tpc += 1;
                }
                TInstr::FUnary { op, d, a, c } => {
                    charge!(InstrClass::FloatArith, c);
                    eng.m_funary(op, d, a);
                    tpc += 1;
                }
                TInstr::Floor { d, a, c } => {
                    charge!(InstrClass::FloatArith, c);
                    eng.m_floor(d, a);
                    tpc += 1;
                }
                TInstr::IntToReal { d, a, c } => {
                    charge!(InstrClass::FloatArith, c);
                    eng.m_inttoreal(d, a);
                    tpc += 1;
                }
                TInstr::Load { d, base, off, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_load(d, base, off));
                    drain!();
                    tpc += 1;
                }
                TInstr::LoadRun {
                    base,
                    max_off,
                    at,
                    n,
                    total,
                    pre,
                } => {
                    let pairs = &run_ops[at as usize..at as usize + n as usize];
                    if fits!(pre) && eng.m_loads(base, max_off, pairs) {
                        charge!(InstrClass::Memory, total, n);
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::Store { s, base, off, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_store(s, base, off));
                    tpc += 1;
                }
                TInstr::StoreWB { s, base, off, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_storewb(s, base, off));
                    tpc += 1;
                }
                TInstr::FLoad { d, base, off, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_fload(d, base, off));
                    tpc += 1;
                }
                TInstr::FStore { s, base, off, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_fstore(s, base, off));
                    tpc += 1;
                }
                TInstr::LoadIdx { d, base, idx, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_loadidx(d, base, idx));
                    drain!();
                    tpc += 1;
                }
                TInstr::StoreIdx { s, base, idx, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_storeidx(s, base, idx));
                    tpc += 1;
                }
                TInstr::StoreIdxWB { s, base, idx, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_storeidxwb(s, base, idx));
                    tpc += 1;
                }
                TInstr::ArrLen { d, a, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_arrlen(d, a));
                    tpc += 1;
                }
                TInstr::Alloc {
                    d,
                    kind,
                    nw,
                    nf,
                    at,
                    c,
                    sc,
                } => {
                    let ops = &alloc_ops[at as usize..at as usize + nw as usize + nf as usize];
                    let (words, flts) = ops.split_at(nw as usize);
                    if young && eng.m_alloc_young(d, kind, words, flts) {
                        charge!(InstrClass::Alloc, c as u64 + sc as u64);
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::FBox { d, s, c, sc } => {
                    if young && eng.m_fbox_young(d, s) {
                        charge!(InstrClass::Alloc, c as u64 + sc as u64);
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::FUnbox { d, s, c } => {
                    charge!(InstrClass::Memory, c);
                    trap!(eng.m_funbox(d, s));
                    tpc += 1;
                }
                TInstr::Branch { op, a, b, t, c } => {
                    charge!(InstrClass::Branch, c);
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                }
                TInstr::FBranch { op, a, b, t, c } => {
                    charge!(InstrClass::Branch, c);
                    tpc = if eng.m_fbranch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                }
                TInstr::Jump { label, c } => {
                    charge!(InstrClass::Jump, c as u64 + fp3);
                    goto!(label as usize);
                }
                TInstr::JumpReg { r, c } => {
                    charge!(InstrClass::Jump, c as u64 + fp3);
                    let target = trap!(eng.m_jumpreg(r));
                    goto!(target);
                }
                TInstr::GetHdlr { d, c } => {
                    charge!(InstrClass::Control, c);
                    eng.m_gethdlr(d);
                    tpc += 1;
                }
                TInstr::SetHdlr { s, c } => {
                    charge!(InstrClass::Control, c);
                    eng.m_sethdlr(s);
                    tpc += 1;
                }
                TInstr::Halt { s } => {
                    charge!(InstrClass::Control, 0);
                    out = Some(eng.m_halt(s));
                    break 'run;
                }
                TInstr::Uncaught { s } => {
                    charge!(InstrClass::Control, 0);
                    out = Some(eng.m_uncaught(s));
                    break 'run;
                }
                TInstr::LoadIArith {
                    imm,
                    di,
                    op,
                    d,
                    a,
                    b,
                    c1,
                    c2,
                } => {
                    if fits!(c1) {
                        charge!(InstrClass::Move, c1);
                        eng.m_loadi(di, imm);
                        charge!(InstrClass::IntArith, c2);
                        trap!(eng.m_arith(op, d, a, b));
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::LoadIBranch {
                    imm,
                    di,
                    op,
                    a,
                    b,
                    t,
                    c1,
                    c2,
                } => {
                    if fits!(c1) {
                        charge!(InstrClass::Move, c1);
                        eng.m_loadi(di, imm);
                        charge!(InstrClass::Branch, c2);
                        tpc = if eng.m_branch(op, a, b) {
                            tpc + 1
                        } else {
                            t as usize
                        };
                    } else {
                        fallback!();
                    }
                }
                TInstr::LoadBranch {
                    dl,
                    base,
                    off,
                    op,
                    a,
                    b,
                    t,
                    c1,
                    c2,
                } => {
                    // With no incremental major active the load cannot
                    // copy, so there is nothing to drain and the charge
                    // before the branch is exactly `c1`.
                    if fits!(c1) && !eng.heap.major_active() {
                        charge!(InstrClass::Memory, c1);
                        trap!(eng.m_load(dl, base, off));
                        charge!(InstrClass::Branch, c2);
                        tpc = if eng.m_branch(op, a, b) {
                            tpc + 1
                        } else {
                            t as usize
                        };
                    } else {
                        fallback!();
                    }
                }
                TInstr::ArithBranch {
                    aop,
                    ad,
                    aa,
                    ab,
                    op,
                    a,
                    b,
                    t,
                    c1,
                    c2,
                } => {
                    if fits!(c1) {
                        charge!(InstrClass::IntArith, c1);
                        trap!(eng.m_arith(aop, ad, aa, ab));
                        charge!(InstrClass::Branch, c2);
                        tpc = if eng.m_branch(op, a, b) {
                            tpc + 1
                        } else {
                            t as usize
                        };
                    } else {
                        fallback!();
                    }
                }
                TInstr::MoveJump {
                    d,
                    s,
                    label,
                    c1,
                    c2,
                } => {
                    if fits!(c1) {
                        charge!(InstrClass::Move, c1);
                        eng.m_move(d, s);
                        charge!(InstrClass::Jump, c2 as u64 + fp3);
                        goto!(label as usize);
                    } else {
                        fallback!();
                    }
                }
                TInstr::Slow { pc } => one_by_one!(pc as usize),
            }
        }
    }
    eng.stats.cycles = cycles;
    eng.stats.instrs = instrs;
    // Translate the exit position back into original coordinates so
    // resumption — under either engine — and fault reporting agree with
    // the decode loop.
    let pc = match tp.blocks.get(eng.block) {
        _ if exit_pc != NO_PC => exit_pc,
        Some(tb) => tb.tpc_to_pc[tpc] as usize,
        None => eng.pc,
    };
    vm.block = eng.block;
    vm.pc = pc;
    vm.sync_heap_stats();
    vm.finished = out;
    vm.finished.is_some()
}

#[cfg(test)]
mod tests {
    use super::TInstr;

    #[test]
    fn records_stay_within_24_bytes() {
        assert!(std::mem::size_of::<TInstr>() <= 24);
    }
}
