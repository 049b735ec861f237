//! The threaded execution engine (the default): pre-decoded dispatch
//! with superinstructions, metered per straight-line segment.
//!
//! [`predecode`] flattens each [`CodeBlock`]'s `Vec<Instr>` into a
//! stream of compact, fixed-size [`TInstr`] handler records — the
//! heap-carrying `Instr` is ~56 bytes with two levels of bounds-checked
//! indexing per fetch, while a `TInstr` is a 24-byte `Copy` record
//! fetched from one flat slice.
//!
//! A record stands for one instruction or for several (its
//! *constituents*):
//!
//! * a *run*: a maximal sequence of at least two `Move`s, or of at
//!   least two `Load`s from one base register ending at the first load
//!   that overwrites the base. Its `(d, s)` or `(d, off)` pairs sit in
//!   the program's operand pool;
//! * a fused *pair* observed hot in the figure benchmarks:
//!   `LoadI`+`Arith` (constant operand feeding the ALU),
//!   `LoadI`/`Load`/`Arith` feeding a compare-and-branch, and
//!   `Move`+`Jump` (argument shuffle into a tail call);
//! * a single instruction, `Alloc` and `FBox` included (an `Alloc`'s
//!   operand registers sit in the pool).
//!
//! No branch targets a record after its first constituent, so every
//! branch lands on a record boundary.
//!
//! The records are grouped into *segments*: maximal straight-line runs
//! of records that control enters only at the first. A segment starts
//! at a block's start, at every branch target and after every record
//! that transfers control (a branch, jump or halt is a segment's last
//! record), and a long block is cut once a segment's charge reaches
//! [`MAX_SEGMENT_CHARGE`]. Each segment opens with a [`TInstr::Seg`]
//! header holding its fixed charge ([`Instr::fixed_cost`] plus
//! [`Instr::alloc_cost`] of every constituent, computed once here) and
//! the charge of all its constituents but the last; its instruction
//! count and per-class counts sit beside the stream in
//! [`ThreadedProgram::segs`]. A `Slow` record (below) stands alone,
//! with no header. The stream is immutable and depends only on the
//! program, so the scheduler builds one per program and shares it
//! between tenants.
//!
//! [`run_slice_threaded`] executes the stream through the same
//! `#[inline(always)]` [`Engine`] handlers as the decode loop, with
//! byte-identical accounting. The decode loop checks fuel and
//! preemption before every instruction; a header decides both once for
//! its whole segment, by one rule: when `cycles` plus the charge of all
//! the segment's constituents but the last is below the next check
//! point, no check could fire inside it. The header then also needs no
//! incremental major to be active, charges the whole segment to a local
//! `cycles` and bumps the segment's hit count, and the segment's records
//! run with no check, charge or read-barrier drain of their own: only
//! the allocation protocol, which no fast record runs, starts a major,
//! so no load can copy. A jump adds the `sml.fp3` term as it goes.
//! `instrs` and the per-class counters of
//! [`RunStats`](crate::RunStats) are folded from the hit counts at
//! every slice exit, in time proportional to the segments the slice
//! touched.
//!
//! A segment that does not fit runs on the synced path: one constituent
//! at a time through [`Engine::exec`] (the decode loop's own accounted
//! step, with `cycles` written back before and reloaded after) with the
//! decode loop's fuel and preemption checks before each. So does the
//! rest of a segment one of whose records cannot take its fast path.
//! An `Alloc` or `FBox` needs plain nursery allocation to apply, which
//! [`Heap::bump_young`](crate::heap::Heap::bump_young) decides with one
//! compare against the heap's nursery limit; its fields then take plain
//! stores, since the write barrier only remembers slots of tenured
//! objects. With allocation fault injection configured (checked once
//! per slice: it counts allocations one by one) every allocation takes
//! the full allocation protocol, which is all the decode loop ever
//! runs. A `Load` run needs one bounds check covering all its offsets
//! to pass. Such a record first refunds the constituents from it to
//! its segment's end: it withdraws the segment's hit, charges the
//! constituents that did run to their classes directly and takes the
//! rest back from `cycles`. A record that traps refunds those after the
//! trapping constituent, so a trap pays exactly what the decode loop
//! charges. A slice that ends inside a segment resumes on the synced
//! path at the constituent where it stopped: slice boundaries, like
//! every counter, match the decode loop exactly.
//!
//! `AllocArr`, `Switch`, `Rt`, `Print`, `SBranch`, `PolyEqBranch`,
//! `Alloc`s past the descriptor limits, and branches whose target
//! cannot be mapped into the stream pre-decode to a [`TInstr::Slow`]
//! record, which only has the synced path.
//!
//! An [`Executable`](crate::vm::Executable) builds its stream once, the
//! first time a threaded run needs it, and every later run and tenant
//! shares it. The stream is itself verified:
//! `Executable::verify_threaded` round-trips every record of the
//! executable's own stream back to the original instructions through
//! the operand pool, re-checks operand bounds and each run's shape, and
//! re-derives every segment — its boundaries, charges, instruction count
//! and per-class counts — from the original instructions, so the typed
//! chain covers the stream the VM actually executes.

use crate::heap::{MAX_RAW_WORDS, MAX_SCAN_FIELDS};
use crate::isa::*;
use crate::vm::{Engine, RunStats, VmInstance, VmResult};

/// A segment takes no further record once its charge reaches this many
/// cycles. A segment that straddles a slice edge runs on the synced
/// path, so a long block must not make one slice's worth of segment.
pub(crate) const MAX_SEGMENT_CHARGE: u64 = 64;

/// One pre-decoded handler record. Flat (no heap indirection), `Copy`,
/// and at most 24 bytes; branch targets are in *threaded* coordinates
/// (record indices within the block's stream), operand lists are
/// ranges of the program's operand pools.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TInstr {
    /// A segment's header: `charge` is the fixed charge of all its
    /// constituents, `pre` that of all but the last, and `id` indexes
    /// [`ThreadedProgram::segs`] and the instance's hit counts.
    Seg {
        id: u32,
        charge: u64,
        pre: u64,
    },
    Move {
        d: Reg,
        s: Reg,
    },
    FMove {
        d: FReg,
        s: FReg,
    },
    LoadI {
        d: Reg,
        imm: i64,
    },
    LoadF {
        d: FReg,
        imm: f64,
    },
    LoadStr {
        d: Reg,
        pool: u32,
    },
    LoadLabel {
        d: Reg,
        label: u32,
    },
    /// A run of at least two `Move`s: the `(d, s)` pairs
    /// `run_ops[at..at + n]`.
    MoveRun {
        at: u32,
        n: u32,
    },
    Arith {
        op: AOp,
        d: Reg,
        a: Reg,
        b: Reg,
    },
    FArith {
        op: FOp,
        d: FReg,
        a: FReg,
        b: FReg,
    },
    FUnary {
        op: FUOp,
        d: FReg,
        a: FReg,
    },
    Floor {
        d: Reg,
        a: FReg,
    },
    IntToReal {
        d: FReg,
        a: Reg,
    },
    Load {
        d: Reg,
        base: Reg,
        off: u16,
    },
    /// A run of at least two `Load`s from `base`, ending at the first
    /// that overwrites it: the `(d, off)` pairs `run_ops[at..at + n]`,
    /// `max_off` the largest offset.
    LoadRun {
        base: Reg,
        max_off: u16,
        at: u32,
        n: u32,
    },
    Store {
        s: Reg,
        base: Reg,
        off: u16,
    },
    StoreWB {
        s: Reg,
        base: Reg,
        off: u16,
    },
    FLoad {
        d: FReg,
        base: Reg,
        off: u16,
    },
    FStore {
        s: FReg,
        base: Reg,
        off: u16,
    },
    LoadIdx {
        d: Reg,
        base: Reg,
        idx: Reg,
    },
    StoreIdx {
        s: Reg,
        base: Reg,
        idx: Reg,
    },
    StoreIdxWB {
        s: Reg,
        base: Reg,
        idx: Reg,
    },
    ArrLen {
        d: Reg,
        a: Reg,
    },
    /// `Alloc` within the descriptor limits: `nw` word then `nf` float
    /// operand registers at `alloc_ops[at..]`.
    Alloc {
        d: Reg,
        kind: AllocKind,
        nw: u16,
        nf: u16,
        at: u32,
    },
    FBox {
        d: Reg,
        s: FReg,
    },
    FUnbox {
        d: FReg,
        s: Reg,
    },
    Branch {
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
    },
    FBranch {
        op: FBrOp,
        a: FReg,
        b: FReg,
        t: u32,
    },
    Jump {
        label: u32,
    },
    JumpReg {
        r: Reg,
    },
    GetHdlr {
        d: Reg,
    },
    SetHdlr {
        s: Reg,
    },
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
    },
    /// Superinstruction: `LoadI di, imm` then `Branch op a, b -> t`.
    LoadIBranch {
        imm: i64,
        di: Reg,
        op: BrOp,
        a: Reg,
        b: Reg,
        t: u32,
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
    },
    /// Superinstruction: `Move d, s` then `Jump label` (tail-call
    /// argument shuffle).
    MoveJump {
        d: Reg,
        s: Reg,
        label: u32,
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
    /// The handler records, segment headers included.
    pub(crate) code: Vec<TInstr>,
    /// `pc_map[pc]` is the header of the segment original instruction
    /// `pc` starts, or else the record containing it (length `n + 1`;
    /// `pc_map[n] == code.len()` so a fall-off-the-end pc maps to the
    /// one-past-the-end record).
    pub(crate) pc_map: Vec<u32>,
    /// `tpc_to_pc[rec]` is the original pc of record `rec`'s first
    /// constituent, or for a header that of its segment's (length
    /// `code.len() + 1`; `tpc_to_pc[code.len()] == n`).
    pub(crate) tpc_to_pc: Vec<u32>,
}

/// What a segment's instructions of one class add up to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ClassCount {
    pub(crate) class: InstrClass,
    /// Instructions of the class.
    pub(crate) n: u32,
    /// Their fixed charge (a jump's `sml.fp3` term not included).
    pub(crate) cycles: u64,
}

/// The accounting of one segment that its header does not hold.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Segment {
    /// Instructions the segment stands for.
    pub(crate) n: u32,
    /// Its counts, one per class it holds, in class order:
    /// `ThreadedProgram::classes[at..at + len]`.
    pub(crate) at: u32,
    pub(crate) len: u32,
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
    /// Every segment of every block, indexed by its header's `id`.
    pub(crate) segs: Vec<Segment>,
    /// The per-class counts the segments index.
    pub(crate) classes: Vec<ClassCount>,
    /// Superinstructions: records of more than one constituent (pairs
    /// and runs).
    pub(crate) fused: u64,
    /// Handler records standing for instructions across all blocks
    /// (segment headers not counted).
    pub(crate) stream_len: u64,
}

/// The fixed charge of one instruction: everything the decode loop
/// charges for it but heap-dependent costs and the `sml.fp3` jump term.
pub(crate) fn charge(ins: &Instr) -> u64 {
    ins.fixed_cost() + ins.alloc_cost()
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
/// for the deferred set. Branch targets stay original pcs.
fn translate_single(ins: &Instr, pc: usize, n: usize, alloc_ops: &mut Vec<Reg>) -> TInstr {
    match *ins {
        Instr::Move { d, s } => TInstr::Move { d, s },
        Instr::FMove { d, s } => TInstr::FMove { d, s },
        Instr::LoadI { d, imm } => TInstr::LoadI { d, imm },
        Instr::LoadF { d, imm } => TInstr::LoadF { d, imm },
        Instr::LoadStr { d, pool } => TInstr::LoadStr { d, pool },
        Instr::LoadLabel { d, label } => TInstr::LoadLabel { d, label },
        Instr::Arith { op, d, a, b } => TInstr::Arith { op, d, a, b },
        Instr::FArith { op, d, a, b } => TInstr::FArith { op, d, a, b },
        Instr::FUnary { op, d, a } => TInstr::FUnary { op, d, a },
        Instr::Floor { d, a } => TInstr::Floor { d, a },
        Instr::IntToReal { d, a } => TInstr::IntToReal { d, a },
        Instr::Load { d, base, off } => TInstr::Load { d, base, off },
        Instr::Store { s, base, off } => TInstr::Store { s, base, off },
        Instr::StoreWB { s, base, off } => TInstr::StoreWB { s, base, off },
        Instr::FLoad { d, base, off } => TInstr::FLoad { d, base, off },
        Instr::FStore { s, base, off } => TInstr::FStore { s, base, off },
        Instr::LoadIdx { d, base, idx } => TInstr::LoadIdx { d, base, idx },
        Instr::StoreIdx { s, base, idx } => TInstr::StoreIdx { s, base, idx },
        Instr::StoreIdxWB { s, base, idx } => TInstr::StoreIdxWB { s, base, idx },
        Instr::ArrLen { d, a } => TInstr::ArrLen { d, a },
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
            }
        }
        Instr::FBox { d, s } => TInstr::FBox { d, s },
        Instr::FUnbox { d, s } => TInstr::FUnbox { d, s },
        Instr::Branch { op, a, b, target } if target as usize <= n => TInstr::Branch {
            op,
            a,
            b,
            t: target,
        },
        Instr::FBranch { op, a, b, target } if target as usize <= n => TInstr::FBranch {
            op,
            a,
            b,
            t: target,
        },
        Instr::Jump { label } => TInstr::Jump { label },
        Instr::JumpReg { r } => TInstr::JumpReg { r },
        Instr::GetHdlr { d } => TInstr::GetHdlr { d },
        Instr::SetHdlr { s } => TInstr::SetHdlr { s },
        Instr::Halt { s } => TInstr::Halt { s },
        Instr::Uncaught { s } => TInstr::Uncaught { s },
        // Heap-dependent costs, jump tables, runtime calls and oversize
        // allocations stay on the synced path, as do unmappable branch
        // targets: the decode path faults with the original pc.
        _ => TInstr::Slow { pc: pc as u32 },
    }
}

/// Builds the fused record for a pair selected by [`fusable`]; the
/// branch target stays an original pc.
fn translate_pair(i1: &Instr, i2: &Instr) -> TInstr {
    match (i1, i2) {
        (&Instr::LoadI { d: di, imm }, &Instr::Arith { op, d, a, b }) => TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
        },
        (&Instr::LoadI { d: di, imm }, &Instr::Branch { op, a, b, target }) => {
            TInstr::LoadIBranch {
                imm,
                di,
                op,
                a,
                b,
                t: target,
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
                t: target,
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
            t: target,
        },
        (&Instr::Move { d, s }, &Instr::Jump { label }) => TInstr::MoveJump { d, s, label },
        _ => unreachable!("translate_pair on a pair fusable() rejected"),
    }
}

/// Builds the record for a run selected by [`run_len`], its pairs
/// appended to `run_ops`.
fn translate_run(run: &[Instr], run_ops: &mut Vec<(Reg, u16)>) -> TInstr {
    let at = run_ops.len() as u32;
    let n = run.len() as u32;
    match run[0] {
        Instr::Move { .. } => {
            run_ops.extend(run.iter().map(|i| match *i {
                Instr::Move { d, s } => (d, s as u16),
                _ => unreachable!("a Move run holds only moves"),
            }));
            TInstr::MoveRun { at, n }
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
            }
        }
        _ => unreachable!("translate_run on a sequence run_len rejected"),
    }
}

/// Does control leave the straight line after this record (its last
/// constituent a branch, jump or halt)? Such a record ends its segment.
fn transfers(t: &TInstr) -> bool {
    matches!(
        t,
        TInstr::Branch { .. }
            | TInstr::FBranch { .. }
            | TInstr::LoadIBranch { .. }
            | TInstr::LoadBranch { .. }
            | TInstr::ArithBranch { .. }
            | TInstr::Jump { .. }
            | TInstr::JumpReg { .. }
            | TInstr::MoveJump { .. }
            | TInstr::Halt { .. }
            | TInstr::Uncaught { .. }
    )
}

/// Does this record start a segment: a header, or a `Slow` record,
/// which stands alone?
pub(crate) fn starts_segment(t: &TInstr) -> bool {
    matches!(t, TInstr::Seg { .. } | TInstr::Slow { .. })
}

/// The original pc where the segment holding record `rec` (a record
/// after its header) ends: where the next header or `Slow` record
/// starts, or the block's end.
#[inline(never)]
fn seg_end(tb: &ThreadedBlock, rec: usize) -> usize {
    let next = tb.code[rec..]
        .iter()
        .position(starts_segment)
        .map_or(tb.code.len(), |k| rec + k);
    tb.tpc_to_pc[next] as usize
}

/// The segment pre-decode is filling: its header's index, and what its
/// instructions so far add up to.
struct OpenSegment {
    h: usize,
    n: u32,
    charge: u64,
    /// The charge of its last instruction so far.
    last: u64,
    by_class: [(u32, u64); N_INSTR_CLASSES],
}

impl OpenSegment {
    fn new(h: usize) -> OpenSegment {
        OpenSegment {
            h,
            n: 0,
            charge: 0,
            last: 0,
            by_class: [(0, 0); N_INSTR_CLASSES],
        }
    }

    /// Adds a record's constituents.
    fn add(&mut self, instrs: &[Instr]) {
        for ins in instrs {
            let c = charge(ins);
            let e = &mut self.by_class[ins.class() as usize];
            e.0 += 1;
            e.1 += c;
            self.n += 1;
            self.charge += c;
            self.last = c;
        }
    }

    /// Fills in the segment's header in `code` and appends its side
    /// entry to `tp`.
    fn close(self, tp: &mut ThreadedProgram, code: &mut [TInstr]) {
        code[self.h] = TInstr::Seg {
            id: tp.segs.len() as u32,
            charge: self.charge,
            pre: self.charge - self.last,
        };
        let at = tp.classes.len() as u32;
        tp.classes.extend(
            InstrClass::all()
                .into_iter()
                .zip(self.by_class)
                .filter(|&(_, (n, _))| n > 0)
                .map(|(class, (n, cycles))| ClassCount { class, n, cycles }),
        );
        tp.segs.push(Segment {
            n: self.n,
            at,
            len: tp.classes.len() as u32 - at,
        });
    }
}

/// Pre-decodes one block into `tp`: splits the instruction stream into
/// records (pass 1), then emits them segment by segment, headers
/// included (pass 2), and finally maps branch targets into threaded
/// coordinates.
fn predecode_block(b: &CodeBlock, tp: &mut ThreadedProgram) -> ThreadedBlock {
    let instrs = &b.instrs;
    let n = instrs.len();

    // Original pcs that any branch in the block may target (a target
    // beyond the block is left unmapped — the slow path preserves its
    // fault pc). A targeted pc must start a segment, so it ends a run
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

    // Pass 1: a run if one starts here, else a pair if the instruction
    // fuses with its successor, else a single.
    let mut starts: Vec<u32> = Vec::with_capacity(n + 1);
    let mut pc = 0usize;
    while pc < n {
        let len = match run_len(instrs, pc, &is_target) {
            1 if pc + 1 < n && !is_target[pc + 1] && fusable(&instrs[pc], &instrs[pc + 1], n) => 2,
            k => k,
        };
        starts.push(pc as u32);
        pc += len;
    }
    starts.push(n as u32);

    // Pass 2: emission, segment by segment; `open` is the segment being
    // filled.
    let mut code = Vec::with_capacity(starts.len() + starts.len() / 2);
    let mut tpc_to_pc = Vec::with_capacity(code.capacity() + 1);
    let mut pc_map = vec![0u32; n + 1];
    let mut open: Option<OpenSegment> = None;
    for w in starts.windows(2) {
        let (start, end) = (w[0] as usize, w[1] as usize);
        let rec = match &instrs[start..end] {
            [one] => translate_single(one, start, n, &mut tp.alloc_ops),
            [i1, i2] if fusable(i1, i2, n) => translate_pair(i1, i2),
            run => translate_run(run, &mut tp.run_ops),
        };
        if end - start > 1 {
            tp.fused += 1;
        }
        tp.stream_len += 1;
        let slow = matches!(rec, TInstr::Slow { .. });
        if let Some(o) =
            open.take_if(|o| slow || is_target[start] || o.charge >= MAX_SEGMENT_CHARGE)
        {
            o.close(tp, &mut code);
        }
        let header = !slow && open.is_none();
        if header {
            open = Some(OpenSegment::new(code.len()));
            tpc_to_pc.push(start as u32);
            code.push(TInstr::Seg {
                id: 0,
                charge: 0,
                pre: 0,
            });
        }
        pc_map[start..end].fill(code.len() as u32);
        if header {
            pc_map[start] -= 1;
        }
        tpc_to_pc.push(start as u32);
        let ends = transfers(&rec);
        code.push(rec);
        if let Some(o) = &mut open {
            o.add(&instrs[start..end]);
        }
        if let Some(o) = open.take_if(|_| ends) {
            o.close(tp, &mut code);
        }
    }
    if let Some(o) = open {
        o.close(tp, &mut code);
    }
    pc_map[n] = code.len() as u32;
    tpc_to_pc.push(n as u32);

    for rec in &mut code {
        if let TInstr::Branch { t, .. }
        | TInstr::FBranch { t, .. }
        | TInstr::LoadIBranch { t, .. }
        | TInstr::LoadBranch { t, .. }
        | TInstr::ArithBranch { t, .. } = rec
        {
            *t = pc_map[*t as usize];
        }
    }
    ThreadedBlock {
        code,
        pc_map,
        tpc_to_pc,
    }
}

/// Pre-decodes a whole program into threaded streams and their
/// segments.
pub(crate) fn predecode(prog: &MachineProgram) -> ThreadedProgram {
    let mut tp = ThreadedProgram {
        blocks: Vec::with_capacity(prog.blocks.len()),
        alloc_ops: Vec::new(),
        run_ops: Vec::new(),
        segs: Vec::new(),
        classes: Vec::new(),
        fused: 0,
        stream_len: 0,
    };
    for b in &prog.blocks {
        let tb = predecode_block(b, &mut tp);
        tp.blocks.push(tb);
    }
    tp
}

/// Expands a record back into original-coordinate [`Instr`]s (threaded
/// branch targets mapped back through `tpc_to_pc`, operand lists read
/// from the pools exactly as the engine reads them). Returns `None` for
/// a header or a [`TInstr::Slow`] record, which carry no instruction
/// copy to round-trip, and for a record whose operand range lies
/// outside its pool. Used by `verify::verify_threaded`.
pub(crate) fn expand(t: &TInstr, tb: &ThreadedBlock, tp: &ThreadedProgram) -> Option<Vec<Instr>> {
    let back = |t: u32| tb.tpc_to_pc.get(t as usize).copied();
    let run = |at: u32, n: u32| tp.run_ops.get(at as usize..at as usize + n as usize);
    Some(match *t {
        TInstr::Move { d, s } => vec![Instr::Move { d, s }],
        TInstr::FMove { d, s } => vec![Instr::FMove { d, s }],
        TInstr::LoadI { d, imm } => vec![Instr::LoadI { d, imm }],
        TInstr::LoadF { d, imm } => vec![Instr::LoadF { d, imm }],
        TInstr::LoadStr { d, pool } => vec![Instr::LoadStr { d, pool }],
        TInstr::LoadLabel { d, label } => vec![Instr::LoadLabel { d, label }],
        TInstr::MoveRun { at, n } => run(at, n)?
            .iter()
            .map(|&(d, s)| Instr::Move { d, s: s as Reg })
            .collect(),
        TInstr::Arith { op, d, a, b } => vec![Instr::Arith { op, d, a, b }],
        TInstr::FArith { op, d, a, b } => vec![Instr::FArith { op, d, a, b }],
        TInstr::FUnary { op, d, a } => vec![Instr::FUnary { op, d, a }],
        TInstr::Floor { d, a } => vec![Instr::Floor { d, a }],
        TInstr::IntToReal { d, a } => vec![Instr::IntToReal { d, a }],
        TInstr::Load { d, base, off } => vec![Instr::Load { d, base, off }],
        TInstr::LoadRun { base, at, n, .. } => run(at, n)?
            .iter()
            .map(|&(d, off)| Instr::Load { d, base, off })
            .collect(),
        TInstr::Store { s, base, off } => vec![Instr::Store { s, base, off }],
        TInstr::StoreWB { s, base, off } => vec![Instr::StoreWB { s, base, off }],
        TInstr::FLoad { d, base, off } => vec![Instr::FLoad { d, base, off }],
        TInstr::FStore { s, base, off } => vec![Instr::FStore { s, base, off }],
        TInstr::LoadIdx { d, base, idx } => vec![Instr::LoadIdx { d, base, idx }],
        TInstr::StoreIdx { s, base, idx } => vec![Instr::StoreIdx { s, base, idx }],
        TInstr::StoreIdxWB { s, base, idx } => vec![Instr::StoreIdxWB { s, base, idx }],
        TInstr::ArrLen { d, a } => vec![Instr::ArrLen { d, a }],
        TInstr::Alloc {
            d,
            kind,
            nw,
            nf,
            at,
        } => {
            let ops = tp
                .alloc_ops
                .get(at as usize..at as usize + nw as usize + nf as usize)?;
            let (words, flts) = ops.split_at(nw as usize);
            vec![Instr::Alloc {
                d,
                kind,
                words: words.to_vec(),
                flts: flts.to_vec(),
            }]
        }
        TInstr::FBox { d, s } => vec![Instr::FBox { d, s }],
        TInstr::FUnbox { d, s } => vec![Instr::FUnbox { d, s }],
        TInstr::Branch { op, a, b, t } => vec![Instr::Branch {
            op,
            a,
            b,
            target: back(t)?,
        }],
        TInstr::FBranch { op, a, b, t } => vec![Instr::FBranch {
            op,
            a,
            b,
            target: back(t)?,
        }],
        TInstr::Jump { label } => vec![Instr::Jump { label }],
        TInstr::JumpReg { r } => vec![Instr::JumpReg { r }],
        TInstr::GetHdlr { d } => vec![Instr::GetHdlr { d }],
        TInstr::SetHdlr { s } => vec![Instr::SetHdlr { s }],
        TInstr::Halt { s } => vec![Instr::Halt { s }],
        TInstr::Uncaught { s } => vec![Instr::Uncaught { s }],
        TInstr::LoadIArith {
            imm,
            di,
            op,
            d,
            a,
            b,
        } => vec![Instr::LoadI { d: di, imm }, Instr::Arith { op, d, a, b }],
        TInstr::LoadIBranch {
            imm,
            di,
            op,
            a,
            b,
            t,
        } => vec![
            Instr::LoadI { d: di, imm },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t)?,
            },
        ],
        TInstr::LoadBranch {
            dl,
            base,
            off,
            op,
            a,
            b,
            t,
        } => vec![
            Instr::Load { d: dl, base, off },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t)?,
            },
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
        } => vec![
            Instr::Arith {
                op: aop,
                d: ad,
                a: aa,
                b: ab,
            },
            Instr::Branch {
                op,
                a,
                b,
                target: back(t)?,
            },
        ],
        TInstr::MoveJump { d, s, label } => vec![Instr::Move { d, s }, Instr::Jump { label }],
        TInstr::Seg { .. } | TInstr::Slow { .. } => return None,
    })
}

/// A running instance's segment hit counts: how many times each
/// segment's header charged it since the last slice exit, and which
/// segments that was.
#[derive(Default)]
pub(crate) struct Meter {
    hits: Vec<u64>,
    touched: Vec<u32>,
}

impl Meter {
    /// Zeroed counts for the segments of `tp`.
    pub(crate) fn new(tp: &ThreadedProgram) -> Meter {
        Meter {
            hits: vec![0; tp.segs.len()],
            touched: Vec::new(),
        }
    }

    /// Folds the slice's hits into `stats`: every hit of a touched
    /// segment adds its instruction count and per-class counts (a
    /// jump's cycles with the `sml.fp3` term `fp3`), and the segment's
    /// count restarts at zero.
    fn fold(&mut self, tp: &ThreadedProgram, stats: &mut RunStats, fp3: u64) {
        for id in self.touched.drain(..) {
            let h = std::mem::take(&mut self.hits[id as usize]);
            let seg = tp.segs[id as usize];
            stats.instrs += h * seg.n as u64;
            for cc in &tp.classes[seg.at as usize..][..seg.len as usize] {
                let jumps = if cc.class == InstrClass::Jump {
                    cc.n as u64 * fp3
                } else {
                    0
                };
                stats.instrs_by_class[cc.class as usize] += h * cc.n as u64;
                stats.cycles_by_class[cc.class as usize] += h * (cc.cycles + jumps);
            }
        }
    }
}

/// Records segment `id`'s first hit of the slice.
#[cold]
#[inline(never)]
fn touch(touched: &mut Vec<u32>, id: u32) {
    touched.push(id);
}

/// Ends a segment's fast path early at original pc `from`, within fast
/// record `rec` of `tb` (`instrs` is the block's code): the rest of the
/// segment will not run there, because a record's fast path does not
/// apply or a constituent trapped. Unless nothing is left, withdraws
/// the segment's hit from `hits` and charges the constituents before
/// `from` to their classes in `stats` directly. Returns the charge of
/// the constituents from `from` on, for the caller to take back from
/// its `cycles`, and the segment's end pc.
#[cold]
#[inline(never)]
fn refund(
    tb: &ThreadedBlock,
    instrs: &[Instr],
    rec: usize,
    from: usize,
    hits: &mut [u64],
    stats: &mut RunStats,
) -> (u64, usize) {
    let h = tb.code[..rec]
        .iter()
        .rposition(|r| matches!(r, TInstr::Seg { .. }))
        .expect("a fast record lies in a segment");
    let TInstr::Seg { id, .. } = tb.code[h] else {
        unreachable!("rposition found a header")
    };
    let (start, end) = (tb.tpc_to_pc[h] as usize, seg_end(tb, rec));
    if from >= end {
        return (0, end);
    }
    hits[id as usize] -= 1;
    for ins in &instrs[start..from] {
        let class = ins.class() as usize;
        stats.instrs += 1;
        stats.instrs_by_class[class] += 1;
        stats.cycles_by_class[class] += charge(ins);
    }
    (instrs[from..end].iter().map(charge).sum(), end)
}

/// How the synced path stopped before its end.
enum Stop {
    /// The quantum is spent before original pc `.0`: preempted.
    Preempted(usize),
    /// The run ended: out of fuel, a trap or a halt.
    Ended(VmResult),
}

/// The synced path: the current block's instructions from original pc
/// `from` up to `end`, one at a time through the decode loop's
/// accounted step ([`Engine::exec`], on `eng.stats.cycles`) with the
/// decode loop's fuel and preemption checks before each.
#[inline(never)]
fn one_by_one(eng: &mut Engine<'_>, from: usize, end: usize, check_at: u64) -> Result<(), Stop> {
    let instrs = &eng.prog.blocks[eng.block].instrs[from..end];
    for (pc, instr) in (from..).zip(instrs) {
        if eng.stats.cycles >= check_at {
            if eng.stats.cycles > eng.cfg.max_cycles {
                return Err(Stop::Ended(VmResult::OutOfFuel));
            }
            return Err(Stop::Preempted(pc));
        }
        eng.pc = pc + 1;
        eng.exec(instr).map_err(Stop::Ended)?;
    }
    Ok(())
}

/// `exit_pc`'s value when the cursor has a threaded coordinate.
const NO_PC: usize = usize::MAX;

/// The cursor for original position (`block`, `pc`): the block's
/// records, the record index, and the `exit_pc` override for a position
/// with no threaded coordinate (an out-of-range pc or block).
/// Fall-through and every branch target land on a record boundary, so
/// the mapping is exact.
fn locate(tp: &ThreadedProgram, block: usize, pc: usize) -> (&[TInstr], usize, usize) {
    match tp.blocks.get(block) {
        Some(tb) => match tb.pc_map.get(pc) {
            Some(&t) => (&tb.code, t as usize, NO_PC),
            None => (&tb.code, tb.code.len(), pc),
        },
        None => (&[], 0, pc),
    }
}

/// The threaded dispatch loop: same contract as the decode loop
/// (`VmInstance::run_slice_decode`), same [`Engine`] handlers, same
/// accounting and slice boundaries — only the fetch/decode mechanics and
/// the bookkeeping per segment differ (see the module docs).
pub(crate) fn run_slice_threaded(vm: &mut VmInstance, quantum: u64) -> bool {
    if vm.finished.is_some() {
        return true;
    }
    let tp = vm.exe.threaded();
    let max_cycles = vm.cfg.max_cycles;
    // The `sml.fp3` callee-save cycle every jump pays on top of its
    // fixed charge.
    let fp3 = vm.cfg.fp3_overhead as u64;
    let stop_at = vm.stats.cycles.saturating_add(quantum);
    // One compare stands for the decode loop's two top-of-iteration
    // checks: fuel (`cycles > max_cycles`) and preemption
    // (`cycles >= stop_at`).
    let check_at = stop_at.min(max_cycles.saturating_add(1));
    // Allocation fault injection counts allocations one by one, so with
    // it configured every allocation takes the protocol path.
    let young = vm.cfg.fault.fail_alloc_at.is_none() && vm.cfg.fault.gc_every_n_allocs.is_none();
    let hits = &mut vm.meter.hits[..];
    let touched = &mut vm.meter.touched;
    let mut eng = Engine {
        prog: &vm.exe,
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
    // The one counter a header bumps lives in a local; `RunStats` sees
    // it at slice exit and around every synced call.
    let mut cycles = eng.stats.cycles;
    let mut out: Option<VmResult> = None;
    // The cursor: the current block's records and the threaded pc.
    // `exit_pc`, unless it is `NO_PC`, overrides the original pc the
    // position maps back to — for a position with no threaded
    // coordinate, or a slice that ended inside a segment. A sentinel
    // rather than an `Option`: it is live across every record, and one
    // register where an `Option` takes two keeps the dispatch path free
    // of spills.
    let mut code: &[TInstr];
    let mut tpc: usize;
    let mut exit_pc: usize;
    // A header takes its fast path when `cycles` plus its charge before
    // its last constituent is below `seg_at`: `check_at`, or 0 while an
    // incremental major is active. Only the synced path can start or
    // end a major, so `rejoin!` recomputes it.
    let mut seg_at: u64;

    'run: {
        // Points the cursor at original position (`eng.block`,
        // `eng.pc`).
        macro_rules! rejoin {
            () => {
                (code, tpc, exit_pc) = locate(tp, eng.block, eng.pc);
                seg_at = if eng.heap.major_active() { 0 } else { check_at };
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
        // The header at `tpc` of a segment with hit index `$id`, charge
        // `$charge` and charge before its last constituent `$pre`: when
        // no check could fire inside the segment, starts its fast path —
        // charges it, counts its hit and steps past the header. True if
        // it did.
        macro_rules! start_segment {
            ($id:expr, $charge:expr, $pre:expr) => {{
                let fits = cycles + $pre < seg_at;
                if fits {
                    cycles += $charge;
                    let h = &mut hits[$id as usize];
                    if *h == 0 {
                        touch(touched, $id);
                    }
                    *h += 1;
                    tpc += 1;
                }
                fits
            }};
        }
        // After a branch or jump: enters the segment it lands on at
        // once, saving the dispatch of its header, when that fits;
        // otherwise the header's own arm runs it.
        macro_rules! enter {
            () => {
                if let Some(&TInstr::Seg { id, charge, pre }) = code.get(tpc) {
                    start_segment!(id, charge, pre);
                }
            };
        }
        // Synced path work `$call` on `eng`, with `cycles` written back
        // before and reloaded after; then `$then` (by default the cursor
        // rejoins the position), or the slice ends where it stopped.
        macro_rules! synced {
            ($call:expr) => {
                synced!($call, {
                    rejoin!();
                })
            };
            ($call:expr, $then:block) => {{
                eng.stats.cycles = cycles;
                let r = $call;
                cycles = eng.stats.cycles;
                match r {
                    Ok(()) => $then
                    Err(Stop::Preempted(pc)) => {
                        exit_pc = pc;
                        break 'run;
                    }
                    Err(Stop::Ended(end)) => {
                        out = Some(end);
                        break 'run;
                    }
                }
            }};
        }
        // The synced path from original pc `$from` up to `$end`. It runs
        // every segment that does not fit, the rest of one whose
        // record's fast path does not apply, and the rest of a segment a
        // slice ended inside.
        macro_rules! one_by_one {
            ($from:expr, $end:expr) => {{
                let (from, end) = ($from, $end);
                synced!(one_by_one(&mut eng, from, end, check_at))
            }};
        }
        // The current record cannot take its fast path: the rest of its
        // segment, refunded, on the synced path.
        macro_rules! fallback {
            () => {{
                let tb = &tp.blocks[eng.block];
                let from = tb.tpc_to_pc[tpc] as usize;
                let instrs = &prog.blocks[eng.block].instrs;
                let (back, end) = refund(tb, instrs, tpc, from, hits, eng.stats);
                cycles -= back;
                one_by_one!(from, end);
            }};
        }
        // A handler that can trap at constituent `$k` (0 for the first)
        // of the current record: on a trap, the constituents after it
        // are refunded and the run ends.
        macro_rules! trap {
            ($r:expr) => {
                trap!($r, 0)
            };
            ($r:expr, $k:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(end) => {
                        let tb = &tp.blocks[eng.block];
                        let from = tb.tpc_to_pc[tpc] as usize + $k + 1;
                        let instrs = &prog.blocks[eng.block].instrs;
                        cycles -= refund(tb, instrs, tpc, from, hits, eng.stats).0;
                        out = Some(end);
                        break 'run;
                    }
                }
            };
        }

        rejoin!();
        // A slice that ended inside a segment resumes with the rest of
        // it.
        if exit_pc == NO_PC && !code.get(tpc).is_none_or(starts_segment) {
            one_by_one!(eng.pc, seg_end(&tp.blocks[eng.block], tpc));
        }
        loop {
            let Some(rec) = code.get(tpc) else {
                // The decode loop's checks come before its fetch.
                if cycles >= check_at {
                    if cycles > max_cycles {
                        out = Some(VmResult::OutOfFuel);
                    }
                    break 'run;
                }
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
                TInstr::Seg { id, charge, pre } => {
                    if !start_segment!(id, charge, pre) {
                        let tb = &tp.blocks[eng.block];
                        one_by_one!(tb.tpc_to_pc[tpc] as usize, seg_end(tb, tpc + 1));
                    }
                }
                TInstr::Move { d, s } => {
                    eng.m_move(d, s);
                    tpc += 1;
                }
                TInstr::MoveRun { at, n } => {
                    // In order: a later move sees an earlier one.
                    for &(d, s) in &run_ops[at as usize..at as usize + n as usize] {
                        eng.m_move(d, s as Reg);
                    }
                    tpc += 1;
                }
                TInstr::FMove { d, s } => {
                    eng.m_fmove(d, s);
                    tpc += 1;
                }
                TInstr::LoadI { d, imm } => {
                    eng.m_loadi(d, imm);
                    tpc += 1;
                }
                TInstr::LoadF { d, imm } => {
                    eng.m_loadf(d, imm);
                    tpc += 1;
                }
                TInstr::LoadStr { d, pool } => {
                    trap!(eng.m_loadstr(d, pool));
                    tpc += 1;
                }
                TInstr::LoadLabel { d, label } => {
                    eng.m_loadlabel(d, label);
                    tpc += 1;
                }
                TInstr::Arith { op, d, a, b } => {
                    trap!(eng.m_arith(op, d, a, b));
                    tpc += 1;
                }
                TInstr::FArith { op, d, a, b } => {
                    eng.m_farith(op, d, a, b);
                    tpc += 1;
                }
                TInstr::FUnary { op, d, a } => {
                    eng.m_funary(op, d, a);
                    tpc += 1;
                }
                TInstr::Floor { d, a } => {
                    eng.m_floor(d, a);
                    tpc += 1;
                }
                TInstr::IntToReal { d, a } => {
                    eng.m_inttoreal(d, a);
                    tpc += 1;
                }
                TInstr::Load { d, base, off } => {
                    trap!(eng.m_load(d, base, off));
                    tpc += 1;
                }
                TInstr::LoadRun {
                    base,
                    max_off,
                    at,
                    n,
                } => {
                    let pairs = &run_ops[at as usize..at as usize + n as usize];
                    if eng.m_loads(base, max_off, pairs) {
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::Store { s, base, off } => {
                    trap!(eng.m_store(s, base, off));
                    tpc += 1;
                }
                TInstr::StoreWB { s, base, off } => {
                    trap!(eng.m_storewb(s, base, off));
                    tpc += 1;
                }
                TInstr::FLoad { d, base, off } => {
                    trap!(eng.m_fload(d, base, off));
                    tpc += 1;
                }
                TInstr::FStore { s, base, off } => {
                    trap!(eng.m_fstore(s, base, off));
                    tpc += 1;
                }
                TInstr::LoadIdx { d, base, idx } => {
                    trap!(eng.m_loadidx(d, base, idx));
                    tpc += 1;
                }
                TInstr::StoreIdx { s, base, idx } => {
                    trap!(eng.m_storeidx(s, base, idx));
                    tpc += 1;
                }
                TInstr::StoreIdxWB { s, base, idx } => {
                    trap!(eng.m_storeidxwb(s, base, idx));
                    tpc += 1;
                }
                TInstr::ArrLen { d, a } => {
                    trap!(eng.m_arrlen(d, a));
                    tpc += 1;
                }
                TInstr::Alloc {
                    d,
                    kind,
                    nw,
                    nf,
                    at,
                } => {
                    let ops = &alloc_ops[at as usize..at as usize + nw as usize + nf as usize];
                    let (words, flts) = ops.split_at(nw as usize);
                    if young && eng.m_alloc_young(d, kind, words, flts) {
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::FBox { d, s } => {
                    if young && eng.m_fbox_young(d, s) {
                        tpc += 1;
                    } else {
                        fallback!();
                    }
                }
                TInstr::FUnbox { d, s } => {
                    trap!(eng.m_funbox(d, s));
                    tpc += 1;
                }
                TInstr::Branch { op, a, b, t } => {
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                    enter!();
                }
                TInstr::FBranch { op, a, b, t } => {
                    tpc = if eng.m_fbranch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                    enter!();
                }
                TInstr::Jump { label } => {
                    cycles += fp3;
                    goto!(label as usize);
                    enter!();
                }
                TInstr::JumpReg { r } => {
                    cycles += fp3;
                    let target = trap!(eng.m_jumpreg(r));
                    goto!(target);
                    enter!();
                }
                TInstr::GetHdlr { d } => {
                    eng.m_gethdlr(d);
                    tpc += 1;
                }
                TInstr::SetHdlr { s } => {
                    eng.m_sethdlr(s);
                    tpc += 1;
                }
                TInstr::Halt { s } => {
                    out = Some(eng.m_halt(s));
                    break 'run;
                }
                TInstr::Uncaught { s } => {
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
                } => {
                    eng.m_loadi(di, imm);
                    trap!(eng.m_arith(op, d, a, b), 1);
                    tpc += 1;
                }
                TInstr::LoadIBranch {
                    imm,
                    di,
                    op,
                    a,
                    b,
                    t,
                } => {
                    eng.m_loadi(di, imm);
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                    enter!();
                }
                TInstr::LoadBranch {
                    dl,
                    base,
                    off,
                    op,
                    a,
                    b,
                    t,
                } => {
                    trap!(eng.m_load(dl, base, off));
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                    enter!();
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
                } => {
                    trap!(eng.m_arith(aop, ad, aa, ab));
                    tpc = if eng.m_branch(op, a, b) {
                        tpc + 1
                    } else {
                        t as usize
                    };
                    enter!();
                }
                TInstr::MoveJump { d, s, label } => {
                    eng.m_move(d, s);
                    cycles += fp3;
                    goto!(label as usize);
                    enter!();
                }
                // One instruction on the synced path. When it neither
                // jumped nor branched, the next record is at hand.
                TInstr::Slow { pc } => {
                    let (pc, block) = (pc as usize, eng.block);
                    synced!(one_by_one(&mut eng, pc, pc + 1, check_at), {
                        if eng.block == block && eng.pc == pc + 1 {
                            tpc += 1;
                            seg_at = if eng.heap.major_active() { 0 } else { check_at };
                        } else {
                            rejoin!();
                        }
                    })
                }
            }
        }
    }
    eng.stats.cycles = cycles;
    vm.meter.fold(tp, eng.stats, fp3);
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
