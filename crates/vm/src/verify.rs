//! Bytecode verifier.
//!
//! Statically validates a [`MachineProgram`] before it reaches the
//! interpreter: control-flow targets, register discipline, string-pool
//! references, and — tying into the generational collector — that every
//! `Alloc` describes an object layout the GC scanner can represent in a
//! descriptor word. Violations carry a stable `rule` tag and cite the
//! offending instruction by its disassembly line (`L<block> @<pc>`),
//! the same rendering `--emit asm` prints (schema in
//! `docs/VERIFY_IR.md`).
//!
//! The interpreter re-checks most of these properties dynamically and
//! faults; the verifier's value is flagging them *statically*, for all
//! paths, at compile time — including paths a given input never drives
//! the VM down.

use crate::heap::{decode, descriptor, Heap, ObjKind, MAX_RAW_WORDS, MAX_SCAN_FIELDS};
use crate::isa::{
    AllocKind, CodeBlock, FReg, Instr, MachineProgram, Reg, MAX_REGS, N_INSTR_CLASSES,
};
use crate::threaded::{expand, starts_segment, TInstr, ThreadedProgram};

/// A structured well-formedness violation found by [`verify_bytecode`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BytecodeViolation {
    /// Stable rule tag, e.g. `"branch-target"`.
    pub rule: &'static str,
    /// What went wrong; instruction-level violations cite the
    /// disassembly line as `L<block> @<pc>: <instr>`.
    pub detail: String,
}

impl std::fmt::Display for BytecodeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// Work counters reported by a successful [`verify_bytecode`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct BytecodeVerifySummary {
    /// Instructions checked.
    pub instrs: u64,
    /// `Alloc` descriptors validated against the GC object layout.
    pub allocs: u64,
}

fn violation(rule: &'static str, detail: String) -> BytecodeViolation {
    BytecodeViolation { rule, detail }
}

/// True for instructions that end a block (control never falls past
/// them); codegen guarantees every block terminates in one.
fn is_terminator(i: &Instr) -> bool {
    matches!(
        i,
        Instr::Jump { .. }
            | Instr::JumpReg { .. }
            | Instr::Switch { .. }
            | Instr::Halt { .. }
            | Instr::Uncaught { .. }
    )
}

/// Collects the integer- and float-register operands of an instruction.
fn operand_regs(i: &Instr, regs: &mut Vec<Reg>, fregs: &mut Vec<FReg>) {
    match i {
        Instr::Move { d, s } => regs.extend([*d, *s]),
        Instr::FMove { d, s } => fregs.extend([*d, *s]),
        Instr::LoadI { d, .. } => regs.push(*d),
        Instr::LoadF { d, .. } => fregs.push(*d),
        Instr::LoadStr { d, .. } | Instr::LoadLabel { d, .. } => regs.push(*d),
        Instr::Arith { d, a, b, .. } => regs.extend([*d, *a, *b]),
        Instr::FArith { d, a, b, .. } => fregs.extend([*d, *a, *b]),
        Instr::FUnary { d, a, .. } => fregs.extend([*d, *a]),
        Instr::Floor { d, a } => {
            regs.push(*d);
            fregs.push(*a);
        }
        Instr::IntToReal { d, a } => {
            fregs.push(*d);
            regs.push(*a);
        }
        Instr::Load { d, base, .. } => regs.extend([*d, *base]),
        Instr::Store { s, base, .. } | Instr::StoreWB { s, base, .. } => regs.extend([*s, *base]),
        Instr::FLoad { d, base, .. } => {
            fregs.push(*d);
            regs.push(*base);
        }
        Instr::FStore { s, base, .. } => {
            fregs.push(*s);
            regs.push(*base);
        }
        Instr::LoadIdx { d, base, idx } => regs.extend([*d, *base, *idx]),
        Instr::StoreIdx { s, base, idx } | Instr::StoreIdxWB { s, base, idx } => {
            regs.extend([*s, *base, *idx])
        }
        Instr::Alloc { d, words, flts, .. } => {
            regs.push(*d);
            regs.extend(words.iter().copied());
            fregs.extend(flts.iter().copied());
        }
        Instr::AllocArr { d, len, init } => regs.extend([*d, *len, *init]),
        Instr::ArrLen { d, a } => regs.extend([*d, *a]),
        Instr::FBox { d, s } => {
            regs.push(*d);
            fregs.push(*s);
        }
        Instr::FUnbox { d, s } => {
            fregs.push(*d);
            regs.push(*s);
        }
        Instr::Branch { a, b, .. } => regs.extend([*a, *b]),
        Instr::FBranch { a, b, .. } => fregs.extend([*a, *b]),
        Instr::SBranch { a, b, .. } | Instr::PolyEqBranch { a, b, .. } => regs.extend([*a, *b]),
        Instr::Switch { r, .. } => regs.push(*r),
        Instr::Jump { .. } => {}
        Instr::JumpReg { r } => regs.push(*r),
        Instr::Rt { op, d, a, b, fa } => {
            use crate::isa::RtOp;
            regs.push(*d);
            match op {
                RtOp::StrCat | RtOp::StrSub => regs.extend([*a, *b]),
                RtOp::StrSize | RtOp::IntToString => regs.push(*a),
                RtOp::RealToString => fregs.push(*fa),
            }
        }
        Instr::GetHdlr { d } => regs.push(*d),
        Instr::SetHdlr { s } | Instr::Print { s } | Instr::Halt { s } | Instr::Uncaught { s } => {
            regs.push(*s)
        }
    }
}

/// Describes the first operand among `regs`/`fregs` that lies outside
/// the register file, e.g. `register r200 out of range (max 63)`.
fn reg_range(regs: &[Reg], fregs: &[FReg]) -> Option<String> {
    if let Some(r) = regs.iter().find(|&&r| r >= MAX_REGS) {
        return Some(format!("register r{r} out of range (max {})", MAX_REGS - 1));
    }
    let f = fregs.iter().find(|&&f| f >= MAX_REGS)?;
    Some(format!(
        "float register f{f} out of range (max {})",
        MAX_REGS - 1
    ))
}

/// The VM's one register check, made once per program when its
/// [`Executable`](crate::vm::Executable) is built: the fault for the
/// first register operand outside the register file, cited like the
/// verifier's `reg-range` rule. After it passes, the interpreter
/// indexes the register file without per-access bounds checks.
pub(crate) fn register_fault(prog: &MachineProgram) -> Option<String> {
    let (mut regs, mut fregs) = (Vec::new(), Vec::new());
    for (ix, b) in prog.blocks.iter().enumerate() {
        for (pc, ins) in b.instrs.iter().enumerate() {
            regs.clear();
            fregs.clear();
            operand_regs(ins, &mut regs, &mut fregs);
            if let Some(what) = reg_range(&regs, &fregs) {
                return Some(format!("{what} at L{ix} @{pc}: {ins}"));
            }
        }
    }
    None
}

/// The intra-block jump targets an instruction may transfer to (also
/// used by the threaded pre-decoder to keep branch targets on record
/// boundaries).
pub(crate) fn branch_targets(i: &Instr, targets: &mut Vec<u32>) {
    match i {
        Instr::Branch { target, .. }
        | Instr::FBranch { target, .. }
        | Instr::SBranch { target, .. }
        | Instr::PolyEqBranch { target, .. } => targets.push(*target),
        Instr::Switch { table, default, .. } => {
            targets.extend(table.iter().copied());
            targets.push(*default);
        }
        _ => {}
    }
}

fn check_instr(
    block_ix: usize,
    pc: usize,
    ins: &Instr,
    block_len: usize,
    n_blocks: usize,
    pool_len: usize,
    sum: &mut BytecodeVerifySummary,
) -> Result<(), BytecodeViolation> {
    let cite = || format!("L{block_ix} @{pc}: {ins}");

    let mut regs = Vec::new();
    let mut fregs = Vec::new();
    operand_regs(ins, &mut regs, &mut fregs);
    if let Some(what) = reg_range(&regs, &fregs) {
        return Err(violation("reg-range", format!("{what} at {}", cite())));
    }

    let mut targets = Vec::new();
    branch_targets(ins, &mut targets);
    if let Some(t) = targets.iter().find(|&&t| t as usize >= block_len) {
        return Err(violation(
            "branch-target",
            format!(
                "branch target @{t} outside block of {block_len} instructions at {}",
                cite()
            ),
        ));
    }

    match ins {
        Instr::Jump { label } | Instr::LoadLabel { label, .. } if *label as usize >= n_blocks => {
            return Err(violation(
                "jump-range",
                format!(
                    "label L{label} outside program of {n_blocks} blocks at {}",
                    cite()
                ),
            ));
        }
        Instr::LoadStr { pool, .. } if *pool as usize >= pool_len => {
            return Err(violation(
                "pool-range",
                format!(
                    "string pool index {pool} outside pool of {pool_len} entries at {}",
                    cite()
                ),
            ));
        }
        Instr::Alloc {
            kind, words, flts, ..
        } => {
            sum.allocs += 1;
            let obj_kind = match kind {
                AllocKind::Record => ObjKind::Record,
                AllocKind::Ref => ObjKind::Ref,
            };
            if *kind == AllocKind::Ref && (words.len() != 1 || !flts.is_empty()) {
                return Err(violation(
                    "ref-shape",
                    format!(
                        "ref cell allocated with {} scanned / {} raw fields at {}",
                        words.len(),
                        flts.len(),
                        cite()
                    ),
                ));
            }
            // Raw float fields occupy two words each, exactly as the
            // interpreter will build the descriptor.
            let nscan = words.len() as u64;
            let nraw = 2 * flts.len() as u64;
            if nscan > MAX_SCAN_FIELDS as u64 || nraw > MAX_RAW_WORDS as u64 {
                return Err(violation(
                    "alloc-descriptor",
                    format!(
                        "object layout ({nscan} scanned, {nraw} raw) exceeds descriptor \
                         capacity ({MAX_SCAN_FIELDS} scanned, {MAX_RAW_WORDS} raw) at {}",
                        cite()
                    ),
                ));
            }
            let desc = descriptor(obj_kind, nscan as u32, nraw as u32);
            if decode(desc) != (obj_kind as u32, nscan as u32, nraw as u32) {
                return Err(violation(
                    "alloc-descriptor",
                    format!("descriptor round-trip failed at {}", cite()),
                ));
            }
        }
        _ => {}
    }
    sum.instrs += 1;
    Ok(())
}

fn check_block(
    block_ix: usize,
    b: &CodeBlock,
    n_blocks: usize,
    pool_len: usize,
    sum: &mut BytecodeVerifySummary,
) -> Result<(), BytecodeViolation> {
    let Some(last) = b.instrs.last() else {
        return Err(violation(
            "block-terminator",
            format!("block L{block_ix} <{}> is empty", b.name),
        ));
    };
    if !is_terminator(last) {
        return Err(violation(
            "block-terminator",
            format!(
                "block L{block_ix} <{}> ends in non-terminator L{block_ix} @{}: {last}",
                b.name,
                b.instrs.len() - 1
            ),
        ));
    }
    for (pc, ins) in b.instrs.iter().enumerate() {
        check_instr(block_ix, pc, ins, b.instrs.len(), n_blocks, pool_len, sum)?;
    }
    Ok(())
}

/// Verifies a machine program.
///
/// Returns work counters on success and the first [`BytecodeViolation`]
/// otherwise. Never mutates the program.
pub fn verify_bytecode(prog: &MachineProgram) -> Result<BytecodeVerifySummary, BytecodeViolation> {
    let mut sum = BytecodeVerifySummary::default();
    if prog.entry as usize >= prog.blocks.len() {
        return Err(violation(
            "entry-range",
            format!(
                "entry block {} outside program of {} blocks",
                prog.entry,
                prog.blocks.len()
            ),
        ));
    }
    for (ix, s) in prog.pool.iter().enumerate() {
        if s.len() > Heap::MAX_STRING_BYTES {
            return Err(violation(
                "pool-string-size",
                format!(
                    "string pool entry {ix} is {} bytes (max {})",
                    s.len(),
                    Heap::MAX_STRING_BYTES
                ),
            ));
        }
    }
    for (ix, b) in prog.blocks.iter().enumerate() {
        check_block(ix, b, prog.blocks.len(), prog.pool.len(), &mut sum)?;
    }
    Ok(sum)
}

/// Work counters reported by a successful [`verify_threaded`] run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadedVerifySummary {
    /// Threaded handler records checked (segment headers not counted).
    pub tinstrs: u64,
    /// Superinstructions among them: records of more than one
    /// constituent (fused pairs and runs), counted as the pre-decoder
    /// counts them.
    pub superinstructions: u64,
    /// Segments checked: straight-line runs of records, each opened by
    /// a header that charges it.
    pub segments: u64,
}

/// Verifies the pre-decoded threaded stream the [`Dispatch::Threaded`]
/// (see [`crate::vm::Dispatch`]) engine would execute for this program:
/// the pc coordinate maps must be mutually consistent, every branch
/// target must start a record and every threaded one stay inside the
/// stream, every record must round-trip through the operand pools
/// (expand back to exactly the instructions it spans, compared by
/// disassembly), the expanded operands must respect register bounds,
/// and a `Load` run must hold its largest offset and overwrite its base
/// only last. Every segment is re-derived from the original
/// instructions: one must start at every branch target and after every
/// branch, jump or halt, and its header's charges, its instruction
/// count and its per-class counts must equal its instructions'
/// [`Instr::fixed_cost`] plus static allocation charge. Pre-decodes
/// a stream of its own and drops it;
/// [`Executable::verify_threaded`](crate::vm::Executable::verify_threaded)
/// checks the stream an executable's runs share instead. A program that
/// passes here executes identically under both engines' *static* views.
pub fn verify_threaded(prog: &MachineProgram) -> Result<ThreadedVerifySummary, BytecodeViolation> {
    verify_stream(prog, &crate::threaded::predecode(prog))
}

/// The header of the segment [`verify_stream`] is walking: its record
/// index and contents, and the original pc the segment starts at.
struct Header {
    rec: usize,
    id: u32,
    charge: u64,
    pre: u64,
    start: usize,
}

/// Re-derives segment `seg` of block `ix`, which spans original pcs
/// `seg.start..end`, from its instructions, and compares its header
/// and side entry with them.
fn check_segment(
    ix: usize,
    b: &CodeBlock,
    tp: &ThreadedProgram,
    seg: &Header,
    end: usize,
) -> Result<(), BytecodeViolation> {
    let (start, id) = (seg.start, seg.id);
    let Some(instrs) = b.instrs.get(start..end) else {
        return Err(violation(
            "threaded-pc-map",
            format!("block L{ix}: segment {id} spans pcs {start}..{end}"),
        ));
    };
    let (mut total, mut pre) = (0, 0);
    let mut want = [(0u64, 0u64); N_INSTR_CLASSES];
    for ins in instrs {
        let c = ins.fixed_cost() + ins.alloc_cost();
        pre = total;
        total += c;
        let e = &mut want[ins.class() as usize];
        e.0 += 1;
        e.1 += c;
    }
    if (seg.charge, seg.pre) != (total, pre) {
        return Err(violation(
            "threaded-cost",
            format!(
                "L{ix} @{start}: segment {id} charges {}/{} cycles (all constituents / all \
                 but the last), where its instructions cost {total}/{pre}",
                seg.charge, seg.pre
            ),
        ));
    }
    let Some(side) = tp.segs.get(id as usize) else {
        return Err(violation(
            "threaded-segment",
            format!(
                "L{ix} @{start}: header names segment {id} of {}",
                tp.segs.len()
            ),
        ));
    };
    if side.n as usize != instrs.len() {
        return Err(violation(
            "threaded-cost",
            format!(
                "L{ix} @{start}: segment {id} counts {} instructions but spans {}",
                side.n,
                instrs.len()
            ),
        ));
    }
    let mut got = [(0u64, 0u64); N_INSTR_CLASSES];
    let entries = tp
        .classes
        .get(side.at as usize..side.at as usize + side.len as usize)
        .unwrap_or_default();
    for e in entries {
        let g = &mut got[e.class as usize];
        g.0 += e.n as u64;
        g.1 += e.cycles;
    }
    if entries.len() != side.len as usize || got != want {
        return Err(violation(
            "threaded-cost",
            format!(
                "L{ix} @{start}: segment {id} counts (instructions, cycles) per class \
                 {got:?}, where its instructions make {want:?}"
            ),
        ));
    }
    Ok(())
}

/// [`verify_threaded`] on a given pre-decode of `prog`.
pub(crate) fn verify_stream(
    prog: &MachineProgram,
    tp: &ThreadedProgram,
) -> Result<ThreadedVerifySummary, BytecodeViolation> {
    let mut sum = ThreadedVerifySummary::default();
    if tp.blocks.len() != prog.blocks.len() {
        return Err(violation(
            "threaded-pc-map",
            format!(
                "stream of {} blocks for a program of {}",
                tp.blocks.len(),
                prog.blocks.len()
            ),
        ));
    }
    let mut next_id = 0u32;
    for (ix, (b, tb)) in prog.blocks.iter().zip(&tp.blocks).enumerate() {
        let n = b.instrs.len();
        let code = &tb.code;
        if tb.pc_map.len() != n + 1
            || tb.tpc_to_pc.len() != code.len() + 1
            || tb.pc_map[n] as usize != code.len()
            || tb.tpc_to_pc[code.len()] as usize != n
        {
            return Err(violation(
                "threaded-pc-map",
                format!(
                    "block L{ix}: coordinate maps sized {}/{} for {} instructions / {} records",
                    tb.pc_map.len(),
                    tb.tpc_to_pc.len(),
                    n,
                    code.len()
                ),
            ));
        }
        let mut targets = Vec::new();
        for ins in &b.instrs {
            branch_targets(ins, &mut targets);
        }
        for t in targets.iter().map(|&t| t as usize).filter(|&t| t <= n) {
            let rec = tb.pc_map[t] as usize;
            if tb.tpc_to_pc.get(rec).map(|&p| p as usize) != Some(t) {
                return Err(violation(
                    "threaded-target",
                    format!("block L{ix}: branch target @{t} lies inside a record"),
                ));
            }
            if t < n && !code.get(rec).is_some_and(starts_segment) {
                return Err(violation(
                    "threaded-segment",
                    format!("block L{ix}: branch target @{t} does not start a segment"),
                ));
            }
        }
        let mut open: Option<Header> = None;
        for (rec, t) in code.iter().enumerate() {
            let start = tb.tpc_to_pc[rec] as usize;
            let span = (tb.tpc_to_pc[rec + 1] as usize).saturating_sub(start);
            // A segment's first pc maps to its header, every other pc to
            // the record holding it.
            let at = match &open {
                Some(seg) if seg.rec + 1 == rec => seg.rec,
                _ => rec,
            };
            if start >= n
                || tb.pc_map[start] as usize != at
                || (1..span).any(|k| tb.pc_map.get(start + k).map(|&r| r as usize) != Some(rec))
            {
                return Err(violation(
                    "threaded-pc-map",
                    format!(
                        "block L{ix}: record {rec} claims start pc {start} but pc_map disagrees"
                    ),
                ));
            }
            if let TInstr::Seg { id, charge, pre } = *t {
                if let Some(seg) = open.take() {
                    check_segment(ix, b, tp, &seg, start)?;
                }
                if span != 0 || code.get(rec + 1).is_none_or(starts_segment) {
                    return Err(violation(
                        "threaded-segment",
                        format!("block L{ix}: header {rec} at @{start} opens no segment"),
                    ));
                }
                if id != next_id {
                    return Err(violation(
                        "threaded-segment",
                        format!("block L{ix}: header {rec} names segment {id}, not {next_id}"),
                    ));
                }
                next_id += 1;
                sum.segments += 1;
                open = Some(Header {
                    rec,
                    id,
                    charge,
                    pre,
                    start,
                });
                continue;
            }
            if let TInstr::Slow { pc } = *t {
                if let Some(seg) = open.take() {
                    check_segment(ix, b, tp, &seg, start)?;
                }
                if pc as usize != start || span != 1 {
                    return Err(violation(
                        "threaded-round-trip",
                        format!(
                            "block L{ix}: slow record {rec} points at pc {pc} spanning {span}, \
                             expected {start} spanning 1"
                        ),
                    ));
                }
                sum.tinstrs += 1;
                continue;
            }
            let Some(seg) = open.take() else {
                return Err(violation(
                    "threaded-segment",
                    format!(
                        "block L{ix}: record {rec} at @{start} belongs to no segment (no header \
                         since a branch target or the last branch, jump or halt)"
                    ),
                ));
            };
            if let TInstr::Branch { t, .. }
            | TInstr::FBranch { t, .. }
            | TInstr::LoadIBranch { t, .. }
            | TInstr::LoadBranch { t, .. }
            | TInstr::ArithBranch { t, .. } = t
            {
                if *t as usize > code.len() {
                    return Err(violation(
                        "threaded-target",
                        format!(
                            "block L{ix}: record {rec} branches to record {t} outside stream \
                             of {} records",
                            code.len()
                        ),
                    ));
                }
            }
            let Some(exp) = expand(t, tb, tp) else {
                return Err(violation(
                    "threaded-round-trip",
                    format!("block L{ix}: record {rec} reads operands outside its pool"),
                ));
            };
            if exp.len() != span {
                return Err(violation(
                    "threaded-round-trip",
                    format!(
                        "block L{ix}: record {rec} spans {span} instructions but expands to {}",
                        exp.len()
                    ),
                ));
            }
            if exp.len() > 1 {
                sum.superinstructions += 1;
            }
            for (k, e) in exp.iter().enumerate() {
                let Some(orig) = b.instrs.get(start + k) else {
                    return Err(violation(
                        "threaded-round-trip",
                        format!(
                            "block L{ix}: record {rec} expands past the end of the block at pc {}",
                            start + k
                        ),
                    ));
                };
                if format!("{e}") != format!("{orig}") {
                    return Err(violation(
                        "threaded-round-trip",
                        format!(
                            "L{ix} @{}: stream decodes to `{e}` but the program has `{orig}`",
                            start + k
                        ),
                    ));
                }
                let mut regs = Vec::new();
                let mut fregs = Vec::new();
                operand_regs(e, &mut regs, &mut fregs);
                if let Some(what) = reg_range(&regs, &fregs) {
                    return Err(violation(
                        "threaded-reg-range",
                        format!("{what} at L{ix} @{}: {e}", start + k),
                    ));
                }
            }
            if let TInstr::LoadRun { base, max_off, .. } = *t {
                // The fast path checks `[0, max_off]` once and reads the
                // base register once.
                let offs = exp.iter().map(|e| match *e {
                    Instr::Load { off, .. } => off,
                    _ => 0,
                });
                if offs.max() != Some(max_off) {
                    return Err(violation(
                        "threaded-run",
                        format!(
                            "L{ix} @{start}: load run records largest offset {max_off}, \
                             not its loads' largest"
                        ),
                    ));
                }
                let early = &exp[..span.saturating_sub(1)];
                if early
                    .iter()
                    .any(|e| matches!(*e, Instr::Load { d, .. } if d == base))
                {
                    return Err(violation(
                        "threaded-run",
                        format!(
                            "L{ix} @{start}: load run overwrites its base before its last load"
                        ),
                    ));
                }
            }
            // Control leaves the straight line after a branch, jump or
            // halt: the segment ends with this record.
            let last = &exp[exp.len() - 1];
            targets.clear();
            branch_targets(last, &mut targets);
            if targets.is_empty() && !is_terminator(last) {
                open = Some(seg);
            } else {
                check_segment(ix, b, tp, &seg, start + span)?;
            }
            sum.tinstrs += 1;
        }
        if let Some(seg) = open {
            check_segment(ix, b, tp, &seg, n)?;
        }
    }
    if next_id as usize != tp.segs.len() {
        return Err(violation(
            "threaded-segment",
            format!("{} segment entries for {next_id} headers", tp.segs.len()),
        ));
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_block(instrs: Vec<Instr>) -> MachineProgram {
        MachineProgram {
            blocks: vec![CodeBlock {
                name: "main".into(),
                instrs,
            }],
            entry: 0,
            pool: Vec::new(),
        }
    }

    #[test]
    fn accepts_minimal_program() {
        let p = one_block(vec![Instr::LoadI { d: 1, imm: 42 }, Instr::Halt { s: 1 }]);
        let sum = verify_bytecode(&p).expect("well-formed");
        assert_eq!(sum.instrs, 2);
    }

    #[test]
    fn rejects_branch_past_block_end() {
        let p = one_block(vec![
            Instr::Branch {
                op: crate::isa::BrOp::Lt,
                a: 1,
                b: 2,
                target: 9,
            },
            Instr::Halt { s: 1 },
        ]);
        let v = verify_bytecode(&p).unwrap_err();
        assert_eq!(v.rule, "branch-target");
        assert!(v.detail.contains("L0 @0"), "{}", v.detail);
    }

    #[test]
    fn rejects_register_out_of_range() {
        let p = one_block(vec![Instr::LoadI { d: 200, imm: 1 }, Instr::Halt { s: 1 }]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "reg-range");
    }

    #[test]
    fn rejects_missing_terminator() {
        let p = one_block(vec![Instr::LoadI { d: 1, imm: 1 }]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "block-terminator");
    }

    #[test]
    fn rejects_ref_with_wrong_shape() {
        let p = one_block(vec![
            Instr::Alloc {
                d: 2,
                kind: AllocKind::Ref,
                words: vec![1, 1],
                flts: vec![],
            },
            Instr::Halt { s: 2 },
        ]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "ref-shape");
    }

    #[test]
    fn rejects_oversized_alloc_descriptor() {
        let p = one_block(vec![
            Instr::Alloc {
                d: 2,
                kind: AllocKind::Record,
                words: vec![1; MAX_SCAN_FIELDS as usize + 1],
                flts: vec![],
            },
            Instr::Halt { s: 2 },
        ]);
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "alloc-descriptor");
    }

    /// Deletes the segment header at record `h` of block 0, shifting
    /// every coordinate after it, as a pre-decoder that never opened
    /// that segment would have laid the stream out.
    fn drop_header(tp: &mut ThreadedProgram, h: usize) {
        let tb = &mut tp.blocks[0];
        assert!(matches!(tb.code.remove(h), TInstr::Seg { .. }));
        tb.tpc_to_pc.remove(h);
        for r in &mut tb.pc_map {
            if *r as usize > h {
                *r -= 1;
            }
        }
        for rec in &mut tb.code {
            if let TInstr::Branch { t, .. } = rec {
                if *t as usize > h {
                    *t -= 1;
                }
            }
        }
    }

    #[test]
    fn rejects_any_corrupted_segment_entry() {
        use crate::isa::{AOp, BrOp};
        use crate::threaded::predecode;
        // Three segments: up to the branch, the fall-through after it,
        // and from the branch target on.
        let p = one_block(vec![
            Instr::LoadI { d: 1, imm: 3 },
            Instr::LoadI { d: 2, imm: 4 },
            Instr::Branch {
                op: BrOp::Lt,
                a: 1,
                b: 2,
                target: 5,
            },
            Instr::Arith {
                op: AOp::Mul,
                d: 3,
                a: 1,
                b: 40,
            },
            Instr::Move { d: 4, s: 3 },
            Instr::Move { d: 5, s: 1 },
            Instr::Halt { s: 5 },
        ]);
        let sum = verify_stream(&p, &predecode(&p)).expect("well-formed");
        assert_eq!(sum.segments, 3);
        let headers: Vec<usize> = predecode(&p).blocks[0]
            .code
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, TInstr::Seg { .. }))
            .map(|(h, _)| h)
            .collect();
        let rule = |corrupt: &dyn Fn(&mut ThreadedProgram)| {
            let mut tp = predecode(&p);
            corrupt(&mut tp);
            verify_stream(&p, &tp).expect_err("a corrupted entry").rule
        };
        let header =
            |tp: &mut ThreadedProgram, k: usize, f: &dyn Fn(&mut u32, &mut u64, &mut u64)| {
                let TInstr::Seg { id, charge, pre } = &mut tp.blocks[0].code[headers[k]] else {
                    unreachable!()
                };
                f(id, charge, pre);
            };
        for k in 0..3 {
            assert_eq!(
                rule(&|tp| header(tp, k, &|_, c, _| *c += 1)),
                "threaded-cost"
            );
            assert_eq!(
                rule(&|tp| header(tp, k, &|_, _, pre| *pre ^= 1)),
                "threaded-cost"
            );
            assert_eq!(rule(&|tp| tp.segs[k].n += 1), "threaded-cost");
            let at = predecode(&p).segs[k].at as usize;
            assert_eq!(rule(&|tp| tp.classes[at].n += 1), "threaded-cost");
            assert_eq!(rule(&|tp| tp.classes[at].cycles -= 1), "threaded-cost");
            assert_eq!(
                rule(&|tp| header(tp, k, &|id, _, _| *id ^= 1)),
                "threaded-segment"
            );
        }
        // No segment after the branch, or none at its target: control
        // would enter a segment elsewhere than at its first record.
        assert_eq!(rule(&|tp| drop_header(tp, headers[1])), "threaded-segment");
        assert_eq!(rule(&|tp| drop_header(tp, headers[2])), "threaded-segment");
        assert_eq!(
            rule(&|tp| {
                tp.segs.pop();
            }),
            "threaded-segment"
        );
    }

    #[test]
    fn rejects_bad_entry() {
        let mut p = one_block(vec![Instr::Halt { s: 1 }]);
        p.entry = 5;
        assert_eq!(verify_bytecode(&p).unwrap_err().rule, "entry-range");
    }
}
