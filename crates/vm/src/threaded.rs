//! The threaded execution engine (the default): pre-decoded dispatch
//! with peephole superinstructions and folded static costs.
//!
//! [`predecode`] flattens each [`CodeBlock`]'s `Vec<Instr>` into a
//! stream of compact, fixed-size [`TInstr`] handler records — the
//! heap-carrying `Instr` is ~56 bytes with two levels of bounds-checked
//! indexing per fetch, while a `TInstr` is a small `Copy` record
//! fetched from one flat slice. Each record carries its instruction's
//! fixed cycle charge ([`Instr::fixed_cost`]: base cost plus spills),
//! computed once here rather than on every execution.
//! A peephole selector fuses the hot adjacent pairs observed in the
//! figure benchmarks — `LoadI`+`Arith` (constant operand feeding the
//! ALU), `LoadI`/`Load`/`Arith` feeding a compare-and-branch, and
//! `Move`+`Jump` (argument shuffle into a tail call) — into single
//! superinstruction records, eliding one fetch/decode per pair. A pair
//! is only formed when no branch targets its second instruction, so
//! every branch target lands on a record boundary. The stream is
//! immutable and depends only on the program, so the scheduler builds
//! one per program and shares it between tenants.
//!
//! [`run_slice_threaded`] executes the stream through the same
//! `#[inline(always)]` [`Engine`] handlers as the decode loop, with
//! byte-identical accounting but none of its per-instruction
//! bookkeeping: `cycles` and `instrs` live in locals and reach
//! [`RunStats`](crate::RunStats) only at slice exit and around the
//! synced path; each record charges its folded cost (plus the `sml.fp3`
//! term on a jump), and its class's two counters at a constant index,
//! *before* its handler runs, so a trapping record pays exactly what the
//! decode loop charges; the read
//! barrier is drained only after loads, the one place it can copy.
//! Each constituent of a superinstruction is counted and attributed
//! separately, and the decode loop's top-of-iteration fuel and
//! preemption checks run between the halves too, so a slice can end
//! mid-pair (the next slice resumes with the second half alone): slice
//! boundaries, like every counter, match the decode loop exactly.
//!
//! Instructions whose cost depends on heap state or that carry vector
//! operands (`FBox`, `Alloc`, `Switch`, `Rt`, ...) stay in the original
//! stream and execute through a [`TInstr::Slow`] record on the synced
//! path: counters written back, [`Engine::exec`] (the decode loop's own
//! accounted step), counters reloaded.
//!
//! The pre-decoded stream is itself verified: `verify::verify_threaded`
//! round-trips every record back to the original instructions,
//! re-checks operand bounds and the folded costs, so the typed chain
//! covers the stream the VM actually executes.

use crate::isa::*;
use crate::vm::{drain_barrier, Engine, VmInstance, VmResult};

/// One pre-decoded handler record. Flat (no heap indirection), `Copy`,
/// and small; branch targets are in *threaded* coordinates (record
/// indices within the block's stream). `c` is the record's fixed cycle
/// charge; a superinstruction carries one per constituent (`c1`, `c2`).
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
    /// `pc`: heap-dependent costs, vector operands, runtime calls, or a
    /// branch whose target cannot be mapped into the stream.
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
    /// Superinstructions the peephole selector fused.
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

/// Translates one unfused instruction into its flat record, or
/// [`TInstr::Slow`] for the deferred set.
fn translate_single(ins: &Instr, pc: usize, pc_map: &[u32], n: usize) -> TInstr {
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
        // Heap-dependent costs and vector operands stay on the synced
        // path, as do unmappable branch targets: the decode path faults
        // with the original pc.
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

/// Pre-decodes one block: segments the instruction stream into records
/// (pass 1), then emits them with branch targets mapped into threaded
/// coordinates (pass 2).
fn predecode_block(b: &CodeBlock) -> (ThreadedBlock, u64) {
    let instrs = &b.instrs;
    let n = instrs.len();

    // Original pcs that any branch in the block may target (a target
    // beyond the block is left unmapped — the slow path preserves its
    // fault pc). A targeted pc must start a record, so it blocks
    // fusion as a second constituent.
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

    // Pass 1: segmentation. Decide which pcs fuse with their successor
    // and assign every pc its record index.
    let mut pc_map = vec![0u32; n + 1];
    let mut starts: Vec<u32> = Vec::with_capacity(n);
    let mut pair: Vec<bool> = Vec::with_capacity(n);
    let mut pc = 0usize;
    while pc < n {
        let fuse = pc + 1 < n && !is_target[pc + 1] && fusable(&instrs[pc], &instrs[pc + 1], n);
        let rec = starts.len() as u32;
        pc_map[pc] = rec;
        if fuse {
            pc_map[pc + 1] = rec;
        }
        starts.push(pc as u32);
        pair.push(fuse);
        pc += if fuse { 2 } else { 1 };
    }
    pc_map[n] = starts.len() as u32;

    // Pass 2: emission, now that every branch target's record index is
    // known.
    let mut code = Vec::with_capacity(starts.len());
    let mut fused = 0u64;
    for (rec, &start) in starts.iter().enumerate() {
        let start = start as usize;
        if pair[rec] {
            fused += 1;
            code.push(translate_pair(&instrs[start], &instrs[start + 1], &pc_map));
        } else {
            code.push(translate_single(&instrs[start], start, &pc_map, n));
        }
    }
    let mut tpc_to_pc = starts;
    tpc_to_pc.push(n as u32);
    (
        ThreadedBlock {
            code,
            pc_map,
            tpc_to_pc,
        },
        fused,
    )
}

/// Pre-decodes a whole program into threaded streams, folding in the
/// fixed costs.
pub(crate) fn predecode(prog: &MachineProgram) -> ThreadedProgram {
    let mut blocks = Vec::with_capacity(prog.blocks.len());
    let mut fused = 0u64;
    let mut stream_len = 0u64;
    for b in &prog.blocks {
        let (tb, f) = predecode_block(b);
        fused += f;
        stream_len += tb.code.len() as u64;
        blocks.push(tb);
    }
    ThreadedProgram {
        blocks,
        fused,
        stream_len,
    }
}

/// Expands a record back into original-coordinate [`Instr`]s (threaded
/// branch targets mapped back through `tpc_to_pc`), each with the fixed
/// charge the record folded in for it. Returns `None` for
/// [`TInstr::Slow`], which carries no operand copy to round-trip. Used
/// by `verify::verify_threaded`.
pub(crate) fn expand(t: &TInstr, tb: &ThreadedBlock) -> Option<Vec<(Instr, u8)>> {
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
        TInstr::Slow { .. } => return None,
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
    // The two counters every record bumps live in locals; `RunStats`
    // sees them at slice exit and around every synced call.
    let mut cycles = eng.stats.cycles;
    let mut instrs = eng.stats.instrs;
    let mut out: Option<VmResult> = None;
    // The cursor: the current block's records and the threaded pc.
    // `exit_pc` overrides the original pc the position maps back to —
    // for a position with no threaded coordinate (an out-of-range pc or
    // block), or a slice preempted between a pair's halves.
    let mut code: &[TInstr];
    let mut tpc: usize;
    let mut exit_pc: Option<usize>;

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
                                exit_pc = None;
                            }
                            None => {
                                tpc = code.len();
                                exit_pc = Some(eng.pc);
                            }
                        }
                    }
                    None => {
                        code = &[];
                        tpc = 0;
                        exit_pc = Some(eng.pc);
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
                        exit_pc = Some(0);
                    }
                }
            }};
        }
        // The decode loop's top-of-iteration checks; `$mid` is the pc to
        // resume at when preempted between a pair's halves.
        macro_rules! checks {
            ($($mid:expr)?) => {
                if cycles >= check_at {
                    if cycles > max_cycles {
                        out = Some(VmResult::OutOfFuel);
                        break 'run;
                    }
                    if cycles >= stop_at {
                        $(exit_pc = Some($mid);)?
                        break 'run; // quantum spent: preempted
                    }
                }
            };
        }
        // A pair's second half is due: check as the decode loop would
        // before its next instruction.
        macro_rules! between {
            () => {
                checks!(tp.blocks[eng.block].tpc_to_pc[tpc] as usize + 1)
            };
        }
        // Counts one record constituent and charges its folded cost to
        // its class, before the handler runs.
        macro_rules! charge {
            ($class:expr, $c:expr) => {{
                let c = $c as u64;
                cycles += c;
                instrs += 1;
                eng.stats.cycles_by_class[$class as usize] += c;
                eng.stats.instrs_by_class[$class as usize] += 1;
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
        // The synced path: original instruction `pc` of the current
        // block through the decode loop's accounted step, with the
        // counters written back before and reloaded after.
        macro_rules! slow {
            ($pc:expr) => {{
                let pc = $pc;
                let instr = &prog.blocks[eng.block].instrs[pc];
                eng.pc = pc + 1;
                eng.stats.cycles = cycles;
                eng.stats.instrs = instrs;
                let r = eng.exec(instr);
                cycles = eng.stats.cycles;
                instrs = eng.stats.instrs;
                trap!(r);
                rejoin!();
            }};
        }

        rejoin!();
        // A slice preempted mid-pair resumes with the second half alone.
        if exit_pc.is_none() && tp.blocks[eng.block].tpc_to_pc[tpc] as usize != eng.pc {
            checks!(eng.pc);
            slow!(eng.pc);
        }
        loop {
            checks!();
            let Some(rec) = code.get(tpc) else {
                let pc = exit_pc.unwrap_or_else(|| tp.blocks[eng.block].tpc_to_pc[tpc] as usize);
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
                    charge!(InstrClass::Move, c1);
                    eng.m_loadi(di, imm);
                    between!();
                    charge!(InstrClass::IntArith, c2);
                    trap!(eng.m_arith(op, d, a, b));
                    tpc += 1;
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
                    charge!(InstrClass::Move, c1);
                    eng.m_loadi(di, imm);
                    between!();
                    charge!(InstrClass::Branch, c2);
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
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
                    charge!(InstrClass::Memory, c1);
                    trap!(eng.m_load(dl, base, off));
                    drain!();
                    between!();
                    charge!(InstrClass::Branch, c2);
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
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
                    charge!(InstrClass::IntArith, c1);
                    trap!(eng.m_arith(aop, ad, aa, ab));
                    between!();
                    charge!(InstrClass::Branch, c2);
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                }
                TInstr::MoveJump {
                    d,
                    s,
                    label,
                    c1,
                    c2,
                } => {
                    charge!(InstrClass::Move, c1);
                    eng.m_move(d, s);
                    between!();
                    charge!(InstrClass::Jump, c2 as u64 + fp3);
                    goto!(label as usize);
                }
                TInstr::Slow { pc } => slow!(pc as usize),
            }
        }
    }
    eng.stats.cycles = cycles;
    eng.stats.instrs = instrs;
    // Translate the exit position back into original coordinates so
    // resumption — under either engine — and fault reporting agree with
    // the decode loop.
    let pc = exit_pc.unwrap_or_else(|| match tp.blocks.get(eng.block) {
        Some(tb) => tb.tpc_to_pc[tpc] as usize,
        None => eng.pc,
    });
    vm.block = eng.block;
    vm.pc = pc;
    vm.sync_heap_stats();
    vm.finished = out;
    vm.finished.is_some()
}
