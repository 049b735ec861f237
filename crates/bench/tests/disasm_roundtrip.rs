//! Disassembler round-trip over the full figure-benchmark suite: every
//! instruction of every compiled benchmark must survive
//! `Display -> parse_instr -> Display` unchanged. This pins the textual
//! ISA as a faithful, re-parseable encoding of the bytecode — the same
//! property the `smlc compile --emit asm` output relies on.

use sml_vm::parse_instr;
use smlc::{Session, Variant};
use smlc_bench::benchmarks;

/// The representation extremes: fully boxed and fully unboxed with
/// callee-save float registers. Every instruction form the code
/// generator can emit appears under one of the two.
const VARIANTS: &[Variant] = &[Variant::Nrp, Variant::Fp3];

#[test]
fn every_benchmark_instruction_round_trips() {
    for &v in VARIANTS {
        let session = Session::with_variant(v);
        for b in benchmarks() {
            let c = session
                .compile(&b.source())
                .unwrap_or_else(|e| panic!("{} failed under {}: {e}", b.name, v.name()));
            let mut checked = 0usize;
            for block in &c.machine.blocks {
                for ins in &block.instrs {
                    let text = ins.to_string();
                    let reparsed = parse_instr(&text)
                        .unwrap_or_else(|e| panic!("{} [{}] `{text}`: {e}", b.name, v.name()));
                    assert_eq!(
                        reparsed.to_string(),
                        text,
                        "{} [{}]: reparse changed the instruction",
                        b.name,
                        v.name()
                    );
                    checked += 1;
                }
            }
            assert!(checked > 0, "{} compiled to no instructions", b.name);
        }
    }
}
