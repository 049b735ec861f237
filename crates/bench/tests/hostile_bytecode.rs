//! Hostile-bytecode engine differential. The threaded engine's fast path
//! indexes the register file without per-access bounds checks (operands
//! are range-checked once per program, when its executable is built)
//! and charges
//! each straight-line segment's costs, summed at pre-decode, at once, so
//! unverified, corrupted bytecode is where the two engines could part
//! ways or the host could panic. Every `bc-*` corruption in
//! `sml_testkit::mutate`, plus seeded operand perturbations (allocation
//! operand lists included), is applied to the compiled figure programs
//! and run — never verified — under both engines inside `catch_unwind`:
//! no run may panic, and `(result, output, stats)` must agree.

use sml_testkit::mutate::bytecode_mutations;
use sml_testkit::Rng;
use sml_vm::heap::MAX_SCAN_FIELDS;
use sml_vm::{run, Dispatch, Instr, MachineProgram, VmConfig};
use smlc::{Session, Variant};
use smlc_bench::benchmarks;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Caps each run, so corrupted loops (and this debug-profile test) stay
/// short; running out of fuel must agree across engines too.
const FUEL: u64 = 300_000;

fn figure_programs() -> Vec<(&'static str, MachineProgram)> {
    let session = Session::with_variant(Variant::Ffb);
    benchmarks()
        .into_iter()
        .map(|b| {
            let c = session
                .compile(&b.source())
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", b.name));
            (b.name, MachineProgram::clone(&c.machine))
        })
        .collect()
}

/// Runs `p` under both engines; panics if either run panics or the two
/// disagree on anything observable.
fn assert_engines_agree(what: &str, p: &MachineProgram) {
    let run_on = |dispatch: Dispatch| {
        let cfg = VmConfig {
            dispatch,
            max_cycles: FUEL,
            ..Variant::Ffb.vm_config()
        };
        catch_unwind(AssertUnwindSafe(|| run(p, &cfg)))
            .unwrap_or_else(|_| panic!("{what}: the VM panicked under {}", dispatch.name()))
    };
    let dec = run_on(Dispatch::Decode);
    let thr = run_on(Dispatch::Threaded);
    assert_eq!(
        (&dec.result, &dec.output, dec.stats),
        (&thr.result, &thr.output, thr.stats),
        "{what}: engines diverge"
    );
}

#[test]
fn catalog_mutants_run_identically_under_both_engines() {
    for (name, clean) in figure_programs() {
        for m in bytecode_mutations() {
            let mut p = clean.clone();
            if (m.apply)(&mut p) {
                assert_engines_agree(&format!("{} on {name}", m.name), &p);
            }
        }
    }
}

/// One of the operands, chosen at random.
fn one<'a, const N: usize>(rng: &mut Rng, operands: [&'a mut u8; N]) -> &'a mut u8 {
    let i = rng.range_usize(0, N);
    operands.into_iter().nth(i).expect("index below N")
}

/// Overwrites one operand of `ins` with a random value: a register (in
/// or past the file), a field offset, a branch target, a block label;
/// or grows an `Alloc`'s word list past what a descriptor can hold.
/// `false` when the instruction has no operand this perturbs.
fn perturb(ins: &mut Instr, rng: &mut Rng, block_len: usize, n_blocks: usize) -> bool {
    let reg = |rng: &mut Rng| rng.range_usize(0, 80) as u8;
    match ins {
        Instr::Alloc { d, words, flts, .. } => {
            if rng.flip() {
                let len = MAX_SCAN_FIELDS as usize + 1 + rng.range_usize(0, 3);
                words.resize(len, 1);
            } else {
                let mut operands: Vec<&mut u8> = words.iter_mut().chain(flts.iter_mut()).collect();
                operands.push(d);
                let i = rng.range_usize(0, operands.len());
                *operands[i] = reg(rng);
            }
        }
        Instr::FBox { d, s } => *one(rng, [d, s]) = reg(rng),
        Instr::Move { d, s } | Instr::FMove { d, s } => *one(rng, [d, s]) = reg(rng),
        Instr::LoadI { d, .. } | Instr::GetHdlr { d } => *d = reg(rng),
        Instr::Arith { d, a, b, .. } => *one(rng, [d, a, b]) = reg(rng),
        Instr::Load { d, base, off } | Instr::FLoad { d, base, off } => {
            if rng.flip() {
                *off = rng.range_usize(0, 8) as u16;
            } else {
                *one(rng, [d, base]) = reg(rng);
            }
        }
        Instr::Store { s, base, off }
        | Instr::StoreWB { s, base, off }
        | Instr::FStore { s, base, off } => {
            if rng.flip() {
                *off = rng.range_usize(0, 8) as u16;
            } else {
                *one(rng, [s, base]) = reg(rng);
            }
        }
        Instr::LoadIdx { d: r, base, idx }
        | Instr::StoreIdx { s: r, base, idx }
        | Instr::StoreIdxWB { s: r, base, idx } => *one(rng, [r, base, idx]) = reg(rng),
        Instr::Branch { a, b, target, .. } | Instr::FBranch { a, b, target, .. } => {
            if rng.flip() {
                *target = rng.range_usize(0, block_len + 3) as u32;
            } else {
                *one(rng, [a, b]) = reg(rng);
            }
        }
        Instr::Jump { label } => *label = rng.range_usize(0, n_blocks + 2) as u32,
        Instr::JumpReg { r } | Instr::SetHdlr { s: r } | Instr::Halt { s: r } => *r = reg(rng),
        _ => return false,
    }
    true
}

#[test]
fn perturbed_operands_run_identically_under_both_engines() {
    let programs = figure_programs();
    let mut rng = Rng::new(0x5eed_b17e);
    let mut applied = 0;
    while applied < 96 {
        let (name, clean) = rng.pick(&programs);
        let mut p = clean.clone();
        let n_blocks = p.blocks.len();
        let b = rng.range_usize(0, n_blocks);
        let block_len = p.blocks[b].instrs.len();
        let pc = rng.range_usize(0, block_len);
        if perturb(&mut p.blocks[b].instrs[pc], &mut rng, block_len, n_blocks) {
            applied += 1;
            let what = format!("{name} L{b} @{pc}: {}", p.blocks[b].instrs[pc]);
            assert_engines_agree(&what, &p);
        }
    }
    // Allocations are a small share of the instructions, and `FBox` a
    // rare one under `sml.ffb`, so eight more perturbations each aim
    // at them directly.
    for is_kind in [
        |i: &Instr| matches!(i, Instr::Alloc { .. }),
        |i: &Instr| matches!(i, Instr::FBox { .. }),
    ] {
        let mut sites = Vec::new();
        for (ix, (_, p)) in programs.iter().enumerate() {
            for (b, blk) in p.blocks.iter().enumerate() {
                for (pc, i) in blk.instrs.iter().enumerate() {
                    if is_kind(i) {
                        sites.push((ix, b, pc));
                    }
                }
            }
        }
        assert!(!sites.is_empty(), "the figure programs allocate");
        for _ in 0..8 {
            let &(ix, b, pc) = rng.pick(&sites);
            let (name, clean) = &programs[ix];
            let mut p = clean.clone();
            let (block_len, n_blocks) = (p.blocks[b].instrs.len(), p.blocks.len());
            assert!(perturb(
                &mut p.blocks[b].instrs[pc],
                &mut rng,
                block_len,
                n_blocks
            ));
            let what = format!("{name} L{b} @{pc}: {}", p.blocks[b].instrs[pc]);
            assert_engines_agree(&what, &p);
        }
    }
}
