//! The abstract machine instruction set: a MIPS-like 32-bit RISC with 32
//! general-purpose and 32 floating-point registers (DECstation 5000
//! class), plus "virtual" registers 32..63 that model spill slots (each
//! access pays an extra memory cost).
//!
//! Values are one word: tagged 31-bit integers (low bit set) or 4-byte-
//! aligned heap pointers (low bit clear). Raw IEEE doubles live in the
//! float register file and in the raw parts of heap records.

/// An integer register (0..31 hardware, 32..63 spill-modelled).
pub type Reg = u8;
/// A float register.
pub type FReg = u8;

/// Number of hardware registers; indices beyond this model spill slots.
pub const HW_REGS: u8 = 32;
/// Total addressable registers (hardware + spill-modelled).
pub const MAX_REGS: u8 = 64;

/// Integer ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum AOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Float ALU operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum FOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Float unary operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum FUOp {
    Neg,
    Sqrt,
    Sin,
    Cos,
    Atan,
    Exp,
    Ln,
}

/// Branch comparisons on integer registers (word comparison).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BrOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    /// True when the word is a heap pointer (low bit clear).
    Boxed,
}

/// Branch comparisons on float registers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum FBrOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// String-runtime branch comparisons.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum SBrOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// String/miscellaneous runtime calls producing a value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum RtOp {
    /// `d := a ^ b` (allocates).
    StrCat,
    /// `d := size a`.
    StrSize,
    /// `d := ord (sub (a, b))` (no bounds check; checked upstream).
    StrSub,
    /// `d := itos a` (allocates).
    IntToString,
    /// `d := rtos fa` (allocates) — float argument in `fa`.
    RealToString,
}

/// One machine instruction.
#[derive(Clone, Debug)]
#[allow(missing_docs)]
pub enum Instr {
    /// Register move.
    Move { d: Reg, s: Reg },
    /// Float register move.
    FMove { d: FReg, s: FReg },
    /// Load a tagged integer constant.
    LoadI { d: Reg, imm: i64 },
    /// Load a float constant.
    LoadF { d: FReg, imm: f64 },
    /// Load a pointer to a pooled string literal.
    LoadStr { d: Reg, pool: u32 },
    /// Load a code label (encoded as a tagged integer).
    LoadLabel { d: Reg, label: u32 },
    /// Integer ALU.
    Arith { op: AOp, d: Reg, a: Reg, b: Reg },
    /// Float ALU.
    FArith { op: FOp, d: FReg, a: FReg, b: FReg },
    /// Float unary.
    FUnary { op: FUOp, d: FReg, a: FReg },
    /// `d := floor fa`.
    Floor { d: Reg, a: FReg },
    /// `fd := real a`.
    IntToReal { d: FReg, a: Reg },
    /// Load a word field: `d := mem[base + off]` (word offset).
    Load { d: Reg, base: Reg, off: u16 },
    /// Store a word field.
    Store { s: Reg, base: Reg, off: u16 },
    /// Store a word field with the generational write barrier.
    StoreWB { s: Reg, base: Reg, off: u16 },
    /// Load a raw float field (two single-word loads, paper footnote 7).
    FLoad { d: FReg, base: Reg, off: u16 },
    /// Store a raw float field (two single-word stores).
    FStore { s: FReg, base: Reg, off: u16 },
    /// Indexed word load: `d := mem[base + idx]` (idx is a tagged int
    /// register).
    LoadIdx { d: Reg, base: Reg, idx: Reg },
    /// Indexed word store.
    StoreIdx { s: Reg, base: Reg, idx: Reg },
    /// Indexed word store with write barrier.
    StoreIdxWB { s: Reg, base: Reg, idx: Reg },
    /// Allocate a record: scanned word fields from `words`, raw float
    /// fields from `flts`; `d` receives the pointer.
    Alloc {
        d: Reg,
        kind: AllocKind,
        words: Vec<Reg>,
        flts: Vec<FReg>,
    },
    /// Allocate an array of `len` (tagged int register) elements, all
    /// initialized to `init`.
    AllocArr { d: Reg, len: Reg, init: Reg },
    /// `d := length of array` (from the descriptor).
    ArrLen { d: Reg, a: Reg },
    /// Box a float: allocate a 2-raw-word object.
    FBox { d: Reg, s: FReg },
    /// Unbox a float (two single-word loads).
    FUnbox { d: FReg, s: Reg },
    /// Conditional branch: if the comparison is FALSE, jump to `target`
    /// (instruction index within this block); otherwise fall through.
    Branch {
        op: BrOp,
        a: Reg,
        b: Reg,
        target: u32,
    },
    /// Float conditional branch (if false, jump).
    FBranch {
        op: FBrOp,
        a: FReg,
        b: FReg,
        target: u32,
    },
    /// String conditional branch (if false, jump); runtime compare.
    SBranch {
        op: SBrOp,
        a: Reg,
        b: Reg,
        target: u32,
    },
    /// Structural (polymorphic) equality; if UNEQUAL, jump. Runtime
    /// traversal, cost proportional to the structure visited.
    PolyEqBranch { a: Reg, b: Reg, target: u32 },
    /// Dense jump table on a tagged integer: jump to
    /// `table[value - lo]` (an instruction index within this block), or
    /// to `default` when out of range. Costs ~3 cycles.
    Switch {
        r: Reg,
        lo: i64,
        table: Vec<u32>,
        default: u32,
    },
    /// Tail jump to a known code block (arguments already placed).
    Jump { label: u32 },
    /// Indirect tail jump: code label (tagged int) in `r`.
    JumpReg { r: Reg },
    /// Runtime call producing a value.
    Rt {
        op: RtOp,
        d: Reg,
        a: Reg,
        b: Reg,
        fa: FReg,
    },
    /// Read the exception-handler register.
    GetHdlr { d: Reg },
    /// Write the exception-handler register.
    SetHdlr { s: Reg },
    /// Print the string in `s` to the output buffer.
    Print { s: Reg },
    /// Stop with the value in `s`.
    Halt { s: Reg },
    /// Stop with an uncaught exception whose packet is in `s`.
    Uncaught { s: Reg },
}

/// Coarse classification of instructions for cycle accounting (the
/// breakdown behind the paper's Figure 7 discussion: where do the
/// cycles go — arithmetic, memory traffic, allocation, or control?).
///
/// [`InstrClass::Gc`] is a pseudo-class: no instruction maps to it, but
/// the interpreter attributes collector cycles there so the per-class
/// cycle counts always sum to the total.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InstrClass {
    /// Register-to-register and constant moves.
    Move = 0,
    /// Integer ALU operations.
    IntArith = 1,
    /// Float ALU, unary float ops, and int/float conversions.
    FloatArith = 2,
    /// Loads and stores (word, float, indexed), descriptor reads.
    Memory = 3,
    /// Heap allocation (records, arrays, float boxing).
    Alloc = 4,
    /// Conditional branches, including string and polymorphic equality.
    Branch = 5,
    /// Direct and indirect jumps (inter-block control transfer).
    Jump = 6,
    /// Runtime calls (string ops, number formatting, printing).
    Runtime = 7,
    /// Handler bookkeeping and termination.
    Control = 8,
    /// Cheney-collector work (pseudo-class; see type docs).
    Gc = 9,
}

/// Number of instruction classes (the length of per-class counter
/// arrays in `RunStats`).
pub const N_INSTR_CLASSES: usize = 10;

impl InstrClass {
    /// All classes, in discriminant order.
    pub fn all() -> [InstrClass; N_INSTR_CLASSES] {
        [
            InstrClass::Move,
            InstrClass::IntArith,
            InstrClass::FloatArith,
            InstrClass::Memory,
            InstrClass::Alloc,
            InstrClass::Branch,
            InstrClass::Jump,
            InstrClass::Runtime,
            InstrClass::Control,
            InstrClass::Gc,
        ]
    }

    /// A stable kebab-case name (used as the JSON key in `--stats=json`).
    pub fn name(self) -> &'static str {
        match self {
            InstrClass::Move => "move",
            InstrClass::IntArith => "int-arith",
            InstrClass::FloatArith => "float-arith",
            InstrClass::Memory => "memory",
            InstrClass::Alloc => "alloc",
            InstrClass::Branch => "branch",
            InstrClass::Jump => "jump",
            InstrClass::Runtime => "runtime",
            InstrClass::Control => "control",
            InstrClass::Gc => "gc",
        }
    }
}

impl Instr {
    /// The accounting class of this instruction.
    pub fn class(&self) -> InstrClass {
        match self {
            Instr::Move { .. }
            | Instr::FMove { .. }
            | Instr::LoadI { .. }
            | Instr::LoadF { .. }
            | Instr::LoadStr { .. }
            | Instr::LoadLabel { .. } => InstrClass::Move,
            Instr::Arith { .. } => InstrClass::IntArith,
            Instr::FArith { .. }
            | Instr::FUnary { .. }
            | Instr::Floor { .. }
            | Instr::IntToReal { .. } => InstrClass::FloatArith,
            Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::StoreWB { .. }
            | Instr::FLoad { .. }
            | Instr::FStore { .. }
            | Instr::LoadIdx { .. }
            | Instr::StoreIdx { .. }
            | Instr::StoreIdxWB { .. }
            | Instr::ArrLen { .. }
            | Instr::FUnbox { .. } => InstrClass::Memory,
            Instr::Alloc { .. } | Instr::AllocArr { .. } | Instr::FBox { .. } => InstrClass::Alloc,
            Instr::Branch { .. }
            | Instr::FBranch { .. }
            | Instr::SBranch { .. }
            | Instr::PolyEqBranch { .. }
            | Instr::Switch { .. } => InstrClass::Branch,
            Instr::Jump { .. } | Instr::JumpReg { .. } => InstrClass::Jump,
            Instr::Rt { .. } | Instr::Print { .. } => InstrClass::Runtime,
            Instr::GetHdlr { .. }
            | Instr::SetHdlr { .. }
            | Instr::Halt { .. }
            | Instr::Uncaught { .. } => InstrClass::Control,
        }
    }

    /// The instruction's fixed cycle charge: its base cost plus 2 for
    /// each spill-modelled register operand (32..63). The VM charges it
    /// *before* executing the instruction, so a trapping instruction
    /// pays in full. For the instructions whose cost also depends on
    /// heap state (`FBox`, `Alloc`, `AllocArr`, `Rt`, `Print`,
    /// `SBranch`, `PolyEqBranch`) this is the leading part; the
    /// interpreter charges the rest as it executes them. The one
    /// run-time term, a cycle of `sml.fp3` callee-save traffic per
    /// jump, depends on the configuration, so the jumps charge it
    /// themselves.
    ///
    /// This is the one home of the fixed part of the cost model: the
    /// decode loop calls it per instruction and the threaded
    /// pre-decoder folds it into each handler record.
    #[inline]
    pub fn fixed_cost(&self) -> u64 {
        fn spill<const N: usize>(rs: [Reg; N]) -> u64 {
            2 * rs.iter().filter(|&&r| r >= HW_REGS).count() as u64
        }
        match *self {
            Instr::Move { d, s } | Instr::FMove { d, s } => 1 + spill([d, s]),
            Instr::LoadI { d, .. } | Instr::LoadStr { d, .. } | Instr::LoadLabel { d, .. } => {
                1 + spill([d])
            }
            Instr::LoadF { d, .. } => 2 + spill([d]),
            Instr::Arith { op, d, a, b } => {
                let base = match op {
                    AOp::Add | AOp::Sub => 1,
                    AOp::Mul => 4,
                    AOp::Div | AOp::Mod => 12,
                };
                base + spill([d, a, b])
            }
            Instr::FArith { op, d, a, b } => {
                let base = match op {
                    FOp::Add | FOp::Sub => 2,
                    FOp::Mul => 4,
                    FOp::Div => 12,
                };
                base + spill([d, a, b])
            }
            Instr::FUnary { op, d, a } => {
                let base = match op {
                    FUOp::Neg => 2,
                    _ => 20,
                };
                base + spill([d, a])
            }
            Instr::Floor { d, a } | Instr::IntToReal { d, a } => 3 + spill([d, a]),
            Instr::Load { d: r, base, .. }
            | Instr::Store { s: r, base, .. }
            | Instr::ArrLen { d: r, a: base } => 2 + spill([r, base]),
            // Store plus the generational bookkeeping.
            Instr::StoreWB { s, base, .. } => 4 + spill([s, base]),
            // Raw floats move as two single-word memory operations.
            Instr::FLoad { d: r, base, .. }
            | Instr::FStore { s: r, base, .. }
            | Instr::FUnbox { d: r, s: base } => 4 + spill([r, base]),
            Instr::LoadIdx { d: r, base, idx } | Instr::StoreIdx { s: r, base, idx } => {
                3 + spill([r, base, idx])
            }
            Instr::StoreIdxWB { s, base, idx } => 5 + spill([s, base, idx]),
            Instr::Branch { a, b, .. } => 1 + spill([a, b]),
            Instr::FBranch { a, b, .. } => 2 + spill([a, b]),
            Instr::Jump { .. } => 1,
            Instr::JumpReg { r } => 2 + spill([r]),
            // Bounds check + table load + indirect jump.
            Instr::Switch { r, .. } => 3 + spill([r]),
            Instr::GetHdlr { d: r } | Instr::SetHdlr { s: r } => 1 + spill([r]),
            Instr::Halt { .. } | Instr::Uncaught { .. } | Instr::Print { .. } => 0,
            Instr::FBox { d, s } => spill([d, s]),
            Instr::Alloc { d, .. } => spill([d]),
            Instr::AllocArr { d, len, init } => spill([d, len, init]),
            Instr::Rt { d, a, b, .. } => spill([d, a, b]),
            Instr::SBranch { a, b, .. } | Instr::PolyEqBranch { a, b, .. } => spill([a, b]),
        }
    }

    /// The static part of an allocating instruction's charge, paid on
    /// top of [`Instr::fixed_cost`] once the object is allocated:
    /// `Alloc` pays 1 (descriptor and bump) plus one per body word plus
    /// 2 per raw float field, `FBox` 7 (1, its 2 body words, and 4 for
    /// the two single-word stores of its float). 0 for every other
    /// instruction; `AllocArr` and the string runtime calls charge by
    /// the size they compute.
    ///
    /// `Engine::step` charges it as it allocates and the threaded
    /// pre-decoder folds it into the `Alloc` and `FBox` records.
    #[inline]
    pub(crate) fn alloc_cost(&self) -> u64 {
        match self {
            Instr::Alloc { words, flts, .. } => {
                let body = words.len() + 2 * flts.len();
                1 + body as u64 + 2 * flts.len() as u64
            }
            Instr::FBox { .. } => 7,
            _ => 0,
        }
    }
}

/// What kind of object an `Alloc` creates (drives the descriptor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocKind {
    /// Immutable record (possibly with raw float fields).
    Record,
    /// Mutable reference cell (1 scanned word).
    Ref,
}

/// A compiled function: a straight-line block with internal forward
/// branches, ending in jumps or halt.
#[derive(Clone, Debug, Default)]
pub struct CodeBlock {
    /// Diagnostic name.
    pub name: String,
    /// The instructions.
    pub instrs: Vec<Instr>,
}

/// A complete machine program.
#[derive(Clone, Debug, Default)]
pub struct MachineProgram {
    /// Code blocks; `Jump { label }` indexes this vector.
    pub blocks: Vec<CodeBlock>,
    /// Index of the entry block.
    pub entry: u32,
    /// String literals, pre-allocated in the immortal heap region at
    /// startup.
    pub pool: Vec<String>,
}

impl MachineProgram {
    /// Total instruction count (the paper's code-size metric).
    pub fn code_size(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}
