//! The execution substrate: code generation to a MIPS-like abstract
//! machine, the runtime heap with two-part object descriptors and a
//! two-generation copying collector, and the cycle-accounting
//! interpreter standing in for the paper's DECstation 5000.

#![warn(missing_docs)]

pub mod codegen;
pub mod disasm;
pub mod heap;
pub mod isa;
mod par;
pub mod sched;
mod threaded;
pub mod verify;
pub mod vm;

pub use codegen::codegen;
pub use disasm::parse_instr;
pub use heap::{GcKind, GcMode, Heap, HeapConfig, ObjKind, SliceOutcome};
pub use isa::{CodeBlock, Instr, InstrClass, MachineProgram, N_INSTR_CLASSES};
pub use par::{par_map, spawn_compile_thread};
pub use sched::{
    AdmissionError, SchedConfigError, SchedPolicy, SchedStats, SchedulerBuilder, TenantOutcome,
    TenantReport, TenantSpec, VmScheduler,
};
pub use verify::{
    verify_bytecode, verify_threaded, BytecodeVerifySummary, BytecodeViolation,
    ThreadedVerifySummary,
};
pub use vm::{
    pause_bucket, run, Dispatch, DispatchStats, Executable, FaultInject, Outcome, RunStats,
    VmConfig, VmInstance, VmResult, N_PAUSE_BUCKETS, PAUSE_BUCKET_LIMITS,
};
