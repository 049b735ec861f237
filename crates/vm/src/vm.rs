//! The abstract machine interpreter with a DECstation-5000-class cost
//! model.
//!
//! Cycle costs (documented in DESIGN.md): ALU and moves are 1 cycle;
//! loads/stores 2; raw float loads/stores 4 (two single-word memory
//! operations, paper footnote 7); float add/sub 2, mul 4, div 12,
//! transcendental 20; allocation is 1 + one cycle per word written;
//! write-barriered stores pay 2 extra cycles; the copying collector pays
//! 3 cycles per word copied on top of a fixed pause (150 cycles for a
//! minor collection plus 1 per remembered-set slot scanned, 200 for a
//! major or semispace collection). Accesses to spill-modelled registers
//! (32..63) pay 2 extra cycles each, approximating spill loads/stores.
//! The fixed part of every instruction's cost (base plus spills) lives
//! in one function, [`Instr::fixed_cost`], charged before the
//! instruction executes; heap-dependent costs and the `sml.fp3` jump
//! term are charged as it executes.
//!
//! Integer `div`/`mod` use SML floor semantics ([`sml_cps::floor_div`] /
//! [`sml_cps::floor_mod`]): the quotient rounds toward negative
//! infinity, the remainder takes the divisor's sign, and the
//! quotient–remainder law `a = b*(a div b) + a mod b` holds for every
//! sign combination. A zero divisor traps as [`VmResult::Fault`] (the
//! compiler guards source-level `div`/`mod` with an explicit zero test
//! that raises the `Div` exception first, so this trap is only
//! reachable from hand-built bytecode).
//!
//! # Execution engines
//!
//! Two dispatch engines share these semantics, selected by
//! [`VmConfig::dispatch`]:
//!
//! * [`Dispatch::Threaded`] (the default) — the [`Instr`] stream is
//!   pre-decoded into a flat threaded stream of compact handler records,
//!   allocations included, grouped into straight-line segments whose
//!   headers charge each segment's fixed costs at once; hot pairs
//!   (`LoadI`+`Arith`, load/compare+branch, `Move`+`Jump`) and runs of
//!   `Move`s or same-base `Load`s become superinstructions (see
//!   `threaded.rs`).
//! * [`Dispatch::Decode`] — the classic fetch/decode `match` loop over
//!   [`Instr`], kept as the reference oracle the differential gates
//!   compare the threaded engine against.
//!
//! Both engines call the same `#[inline(always)]` per-instruction
//! handlers on [`Engine`], so results, output, every [`RunStats`]
//! counter and the scheduler's slice boundaries are identical between
//! them; only wall-clock time differs.
//!
//! # Fault containment
//!
//! The interpreter never panics on program behavior: every memory access
//! is bounds-checked against the target object's descriptor and traps as
//! [`VmResult::Fault`] on violation, a register operand outside the
//! register file faults the run before its first step, heap exhaustion
//! (a collection that still leaves no room) traps as
//! [`VmResult::HeapExhausted`], and the cycle budget traps as
//! [`VmResult::OutOfFuel`]. All exit paths —
//! normal and trapping — finalize the heap counters in [`RunStats`], so
//! `cycles_by_class` sums to `cycles` and allocation totals are accurate
//! no matter how the run ended. [`FaultInject`] exposes the trap paths
//! to tests deterministically.

use crate::heap::{
    decode, is_ptr, tag_int, untag_int, GcKind, GcMode, Heap, HeapConfig, ObjKind, SliceOutcome,
    MAX_RAW_WORDS, MAX_SCAN_FIELDS,
};
use crate::isa::*;
use crate::threaded::{predecode, Meter, ThreadedProgram};
use crate::verify::{BytecodeViolation, ThreadedVerifySummary};
use sml_cps::{floor_div, floor_mod};
use std::sync::{Arc, OnceLock};

/// Which execution engine runs the program (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Dispatch {
    /// The classic decode-dispatch interpreter loop: the reference
    /// oracle.
    Decode,
    /// Pre-decoded threaded dispatch with peephole superinstructions
    /// (the default).
    #[default]
    Threaded,
}

impl Dispatch {
    /// Stable lowercase name (the `--dispatch=` spelling and the JSON
    /// `engine` value).
    pub fn name(self) -> &'static str {
        match self {
            Dispatch::Decode => "decode",
            Dispatch::Threaded => "threaded",
        }
    }
}

impl std::str::FromStr for Dispatch {
    type Err = String;

    fn from_str(s: &str) -> Result<Dispatch, String> {
        match s {
            "decode" => Ok(Dispatch::Decode),
            "threaded" => Ok(Dispatch::Threaded),
            other => Err(format!(
                "unknown dispatch engine '{other}' (expected decode|threaded)"
            )),
        }
    }
}

/// Static facts about the execution engine a run used: which engine,
/// and — for [`Dispatch::Threaded`] — how the pre-decoder did. These
/// are properties of the (program, engine) pair, not runtime counters,
/// so they live beside [`RunStats`] rather than inside it and are
/// identical across runs of the same program.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// The engine that executed the program.
    pub engine: Dispatch,
    /// Superinstructions in the pre-decoded stream: records of more
    /// than one instruction, fused pairs and runs (0 under
    /// [`Dispatch::Decode`]).
    pub superinstructions: u64,
    /// Total length of the pre-decoded threaded stream, in handler
    /// records standing for instructions — segment headers not counted
    /// (0 under [`Dispatch::Decode`] — nothing is pre-decoded).
    pub stream_len: u64,
}

/// VM configuration.
#[derive(Clone, Copy, Debug)]
pub struct VmConfig {
    /// Model the three floating-point callee-save registers of `sml.fp3`:
    /// every inter-function control transfer pays 3 extra float moves.
    pub fp3_overhead: bool,
    /// Collector selection (see [`GcMode`]); generational by default.
    pub gc_mode: GcMode,
    /// Nursery semispace size in words (generational mode); in
    /// [`GcMode::Semispace`], the allocation interval between
    /// collections.
    pub nursery_words: usize,
    /// Cycle budget; exceeded runs trap with [`VmResult::OutOfFuel`].
    pub max_cycles: u64,
    /// Tenured semispace size in words — the heap ceiling. When a major
    /// collection still leaves no room for an allocation, the run traps
    /// with [`VmResult::HeapExhausted`] instead of aborting the process.
    pub tenured_words: usize,
    /// Minor collections an object must survive before promotion into
    /// tenured space (generational mode; at least 1).
    pub promote_after: u32,
    /// GC pause budget in cycles; `0` means unbounded, i.e. today's
    /// stop-the-world major collections. When nonzero, major
    /// collections run as incremental slices sized to the budget and
    /// the nursery is clamped so minor pauses fit it too. The invariant
    /// is mutator-visible: no recorded pause exceeds the budget except
    /// for a single oversized object (or an outsized remembered set),
    /// which is *reported* in [`RunStats::pause_overruns`] rather than
    /// silently violated.
    pub max_pause_cycles: u64,
    /// Execution engine (see [`Dispatch`]); threaded by default, with
    /// [`Dispatch::Decode`] kept as the reference oracle. Engine choice
    /// never changes results or [`RunStats`] counters — only wall-clock
    /// speed.
    pub dispatch: Dispatch,
    /// Fault-injection knobs for robustness testing.
    pub fault: FaultInject,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            fp3_overhead: false,
            gc_mode: GcMode::Generational,
            nursery_words: 64 * 1024,
            max_cycles: 20_000_000_000,
            tenured_words: 8 << 20,
            promote_after: 2,
            max_pause_cycles: 0,
            dispatch: Dispatch::Threaded,
            fault: FaultInject::default(),
        }
    }
}

/// Deterministic fault-injection surface (see `docs/ROBUSTNESS.md`).
///
/// Together with a shrunken `max_cycles` or `tenured_words`, these knobs
/// let tests drive the VM down every trap path and assert that the
/// [`RunStats`] counters stay internally consistent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInject {
    /// Simulate allocation failure at the Nth object allocation
    /// (1-based): that allocation traps [`VmResult::HeapExhausted`].
    pub fail_alloc_at: Option<u64>,
    /// Force a collection before every kth object allocation, stressing
    /// GC root handling far beyond what the nursery schedule would.
    /// While an incremental major is active this pumps one slice batch
    /// instead (minors are forbidden mid-major).
    pub gc_every_n_allocs: Option<u64>,
    /// Yield control back to the mutator after every Nth
    /// incremental-major slice (when the pending allocation already
    /// fits), instead of pumping slices back-to-back to completion.
    /// This deterministically forces allocation, loads, and stores to
    /// interleave with an active major — the test hook for the
    /// read-barrier, black-allocation, and write-during-slice paths.
    pub yield_every_n_slices: Option<u64>,
}

/// How a run ended.
#[derive(Clone, Debug, PartialEq)]
pub enum VmResult {
    /// Normal halt with a final word value.
    Value(i64),
    /// An exception reached the top level; the payload is the exception
    /// name.
    Uncaught(String),
    /// The cycle budget was exhausted.
    OutOfFuel,
    /// The heap ceiling was reached: after a major collection — the
    /// final attempt — there was still no room for the requested
    /// allocation (or allocation failure was injected via
    /// [`FaultInject::fail_alloc_at`]).
    HeapExhausted,
    /// A memory-safety or control-flow violation was contained: the
    /// payload says what was attempted (out-of-bounds load/store, jump
    /// through a non-label, division by zero, oversized object, ...).
    Fault(String),
}

/// Counters from a run. Fully deterministic — a program run twice (or
/// under both [`Dispatch`] engines) produces equal `RunStats`, which is
/// what the `PartialEq` derive is for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Modelled machine cycles (the execution-time metric).
    pub cycles: u64,
    /// Instructions executed.
    pub instrs: u64,
    /// Words allocated (the heap-allocation metric).
    pub alloc_words: u64,
    /// Objects allocated (each `Alloc`/`AllocArr`/`FBox`/string alloc).
    pub n_allocs: u64,
    /// Words copied by the collector (minor plus major).
    pub gc_copied_words: u64,
    /// Number of collections (minor plus major).
    pub n_gcs: u64,
    /// Minor (nursery) collections.
    pub n_minor_gcs: u64,
    /// Major (full) collections, including every collection in
    /// [`GcMode::Semispace`].
    pub n_major_gcs: u64,
    /// Words moved from the nursery into tenured space.
    pub promoted_words: u64,
    /// High-water mark of the remembered set, in slots.
    pub remembered_peak: u64,
    /// Cycles spent inside the collector (minor plus major; also
    /// mirrored in `cycles_by_class[InstrClass::Gc]`).
    pub gc_cycles: u64,
    /// Cycles spent in minor collections.
    pub minor_gc_cycles: u64,
    /// Cycles spent in major collections.
    pub major_gc_cycles: u64,
    /// Longest single minor-collection pause, in cycles.
    pub max_minor_pause: u64,
    /// Longest single major-collection pause, in cycles. With a pause
    /// budget set this is the longest *slice*, not the whole major.
    pub max_major_pause: u64,
    /// Major-collection slices run (a stop-the-world major counts as
    /// one slice, so without a budget this equals `n_major_gcs`).
    pub major_slices: u64,
    /// Words copied by the incremental-major read barrier during
    /// mutator time. Charged to GC cycles but to no recorded pause —
    /// this is the smeared-out copy work that bounded pauses buy.
    pub barrier_words: u64,
    /// Recorded pauses that exceeded the configured pause budget
    /// (always 0 when no budget is set). Overruns can only come from a
    /// single oversized object or an outsized remembered set; they are
    /// reported here rather than silently violating the bound.
    pub pause_overruns: u64,
    /// Histogram of minor-collection pause lengths; bucket `i` counts
    /// pauses below [`PAUSE_BUCKET_LIMITS`]`[i]` cycles (last bucket
    /// unbounded).
    pub pause_hist_minor: [u64; N_PAUSE_BUCKETS],
    /// Histogram of major-collection pause lengths (per slice when
    /// incremental), bucketed like `pause_hist_minor`.
    pub pause_hist_major: [u64; N_PAUSE_BUCKETS],
    /// Cycle breakdown indexed by [`InstrClass`] discriminant; sums to
    /// `cycles` on every exit path, normal or trapping.
    pub cycles_by_class: [u64; crate::isa::N_INSTR_CLASSES],
    /// Executed-instruction breakdown indexed by [`InstrClass`]
    /// discriminant; the `Gc` pseudo-class entry stays zero.
    pub instrs_by_class: [u64; crate::isa::N_INSTR_CLASSES],
}

/// Number of buckets in the GC pause histograms.
pub const N_PAUSE_BUCKETS: usize = 8;

/// Exclusive upper bounds of the first seven pause-histogram buckets,
/// in cycles; the eighth bucket is unbounded.
pub const PAUSE_BUCKET_LIMITS: [u64; N_PAUSE_BUCKETS - 1] =
    [256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// The histogram bucket a pause of the given length falls into.
pub fn pause_bucket(cycles: u64) -> usize {
    PAUSE_BUCKET_LIMITS
        .iter()
        .position(|&lim| cycles < lim)
        .unwrap_or(N_PAUSE_BUCKETS - 1)
}

/// The outcome of running a program.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Result value or failure.
    pub result: VmResult,
    /// Performance counters.
    pub stats: RunStats,
    /// Everything `print`ed.
    pub output: String,
    /// Which engine ran, and what its pre-decoder did.
    pub dispatch: DispatchStats,
}

/// Extracts the exception name from an uncaught-exception packet,
/// defensively: any malformed link in the chain yields `"?"` rather
/// than an out-of-bounds access.
fn uncaught_name(heap: &Heap, pkt: u32) -> String {
    // The packet is either a constant-exception tag record `[name]` or a
    // carrying packet `[tag, v]` with `tag = [name]`. Every pointer is
    // resolved first: mid-incremental-major (or after an overflow
    // finalization) a link may still be a from-space forwarding stub.
    let pkt = heap.resolve(pkt);
    if heap.check_access(pkt, 0, 1).is_err() {
        return "?".into();
    }
    let f0 = heap.resolve(heap.load(pkt, 0));
    if heap.check_access(f0, 0, 1).is_err() {
        return "?".into();
    }
    let (k, _, _) = decode(heap.desc(f0));
    if k == ObjKind::Str as u32 {
        return heap.read_string(f0);
    }
    let inner = heap.resolve(heap.load(f0, 0));
    if heap.check_string(inner).is_ok() {
        heap.read_string(inner)
    } else {
        "?".into()
    }
}

/// Runs a machine program to completion. Never panics on program
/// behavior: abnormal executions end in a trapping [`VmResult`]. Builds
/// a throwaway [`Executable`]; a program that runs more than once is
/// better built into one and run through [`Executable::run`].
pub fn run(prog: &MachineProgram, cfg: &VmConfig) -> Outcome {
    Executable::new(prog).run(cfg)
}

/// A program ready to run: its own read-only copy of a
/// [`MachineProgram`], the result of the load checks every run of it
/// needs, and the pre-decoded threaded stream, built the first time a
/// [`Dispatch::Threaded`] run needs it. A clone is an `Arc` clone, so
/// every run, tenant and cache entry of one compile shares one program
/// and one stream, and the stream [`Executable::verify_threaded`]
/// checks is the stream that runs.
///
/// The program cannot change under its stream: an `Executable`
/// dereferences to its [`MachineProgram`] but never mutably. Code that
/// edits bytecode edits a `MachineProgram` and builds a new executable.
///
/// ```compile_fail
/// let mut exe = sml_vm::Executable::new(&sml_vm::MachineProgram::default());
/// exe.blocks.clear(); // no `DerefMut`: the program is read-only
/// ```
#[derive(Clone)]
pub struct Executable(pub(crate) Arc<Image>);

/// What an [`Executable`] shares between its clones.
pub(crate) struct Image {
    prog: MachineProgram,
    /// Why no run of the program can start, found once when the
    /// executable is built: a string literal the descriptor cannot
    /// encode, or a register operand outside the register file.
    fault: Option<String>,
    pub(crate) threaded: OnceLock<ThreadedProgram>,
}

impl Executable {
    /// Copies `prog` and makes its load checks. Nothing is pre-decoded
    /// yet.
    pub fn new(prog: &MachineProgram) -> Executable {
        let fault = prog
            .pool
            .iter()
            .find(|s| s.len() > Heap::MAX_STRING_BYTES)
            .map(|s| {
                format!(
                    "string literal of {} bytes exceeds the descriptor limit of {}",
                    s.len(),
                    Heap::MAX_STRING_BYTES
                )
            })
            .or_else(|| crate::verify::register_fault(prog));
        Executable(Arc::new(Image {
            prog: prog.clone(),
            fault,
            threaded: OnceLock::new(),
        }))
    }

    /// Runs the program to completion. Never panics on program
    /// behavior: abnormal executions end in a trapping [`VmResult`].
    pub fn run(&self, cfg: &VmConfig) -> Outcome {
        let mut vm = VmInstance::new(self, cfg);
        while !vm.run_slice(u64::MAX) {}
        vm.into_outcome()
    }

    /// [`verify_threaded`](crate::verify_threaded) on this executable's
    /// own stream, the one its threaded runs execute (built here if no
    /// run has built it yet).
    pub fn verify_threaded(&self) -> Result<ThreadedVerifySummary, BytecodeViolation> {
        crate::verify::verify_stream(self, self.threaded())
    }

    /// The pre-decoded threaded stream, built on first use.
    pub(crate) fn threaded(&self) -> &ThreadedProgram {
        self.0.threaded.get_or_init(|| predecode(&self.0.prog))
    }
}

impl std::ops::Deref for Executable {
    type Target = MachineProgram;
    #[inline]
    fn deref(&self) -> &MachineProgram {
        &self.0.prog
    }
}

impl std::fmt::Display for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.prog.fmt(f)
    }
}

impl std::fmt::Debug for Executable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.prog.fmt(f)
    }
}

/// A resumable VM instance: one tenant's program, heap, registers, and
/// counters. [`Executable::run`] drives one to completion in a single
/// call; the [`VmScheduler`](crate::sched::VmScheduler) time-slices
/// many of them on a cycle quantum, each against its own heap quota.
pub struct VmInstance {
    pub(crate) exe: Executable,
    pub(crate) cfg: VmConfig,
    pub(crate) heap: Heap,
    pub(crate) pool_ptrs: Vec<u32>,
    pub(crate) regs: [u32; MAX_REGS as usize],
    pub(crate) fregs: [f64; MAX_REGS as usize],
    pub(crate) handler: u32,
    pub(crate) stats: RunStats,
    pub(crate) output: String,
    pub(crate) block: usize,
    pub(crate) pc: usize,
    /// Incremental-major slices run since the last fault-injected
    /// yield (drives [`FaultInject::yield_every_n_slices`]).
    pub(crate) yield_ctr: u64,
    /// The threaded engine's per-segment hit counts (empty under
    /// [`Dispatch::Decode`]).
    pub(crate) meter: Meter,
    pub(crate) finished: Option<VmResult>,
}

impl VmInstance {
    /// Prepares a run of `exe`: builds the heap (sizing the immortal
    /// region to the literal pool so pool loading can never exhaust
    /// it), loads the literals, and — under [`Dispatch::Threaded`] —
    /// builds the executable's stream if no run has yet. An executable
    /// whose load checks failed marks the instance finished with that
    /// `Fault` before the first step.
    pub fn new(exe: &Executable, cfg: &VmConfig) -> VmInstance {
        let static_need: usize = exe
            .pool
            .iter()
            .map(|s| s.len().div_ceil(4).max(1) + 1)
            .sum::<usize>()
            + 1;
        let finished = exe.0.fault.clone().map(VmResult::Fault);
        let mut heap = Heap::new(&HeapConfig {
            mode: cfg.gc_mode,
            nursery_words: cfg.nursery_words,
            tenured_words: cfg.tenured_words,
            promote_after: cfg.promote_after,
            // Exactly the literal pool: nothing else lives there, and
            // padding would be paid once per tenant.
            static_words: static_need,
            max_pause_cycles: cfg.max_pause_cycles,
        });
        let mut pool_ptrs = Vec::with_capacity(exe.pool.len());
        if finished.is_none() {
            for s in &exe.pool {
                pool_ptrs.push(heap.alloc_static_string(s));
            }
        }
        let meter = match cfg.dispatch {
            Dispatch::Decode => Meter::default(),
            Dispatch::Threaded => Meter::new(exe.threaded()),
        };
        VmInstance {
            exe: exe.clone(),
            cfg: *cfg,
            heap,
            pool_ptrs,
            regs: [tag_int(0); MAX_REGS as usize],
            fregs: [0.0f64; MAX_REGS as usize],
            handler: tag_int(0),
            stats: RunStats::default(),
            output: String::new(),
            block: exe.entry as usize,
            pc: 0,
            yield_ctr: 0,
            meter,
            finished,
        }
    }

    /// True once the run has ended (normally or by trap).
    pub fn finished(&self) -> bool {
        self.finished.is_some()
    }

    /// The final result, once finished.
    pub fn result(&self) -> Option<&VmResult> {
        self.finished.as_ref()
    }

    /// Counters so far (heap counters are synced at every slice exit).
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Everything printed so far.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The instance's heap (tests use this to assert consistency on
    /// trap paths).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Which engine this instance runs on, and what its pre-decoder
    /// did (all zeros under [`Dispatch::Decode`]).
    pub fn dispatch_stats(&self) -> DispatchStats {
        match self.cfg.dispatch {
            Dispatch::Threaded => {
                let tp = self.exe.threaded();
                DispatchStats {
                    engine: Dispatch::Threaded,
                    superinstructions: tp.fused,
                    stream_len: tp.stream_len,
                }
            }
            Dispatch::Decode => DispatchStats {
                engine: Dispatch::Decode,
                superinstructions: 0,
                stream_len: 0,
            },
        }
    }

    /// Consumes a finished instance into an [`Outcome`].
    ///
    /// # Panics
    ///
    /// Panics if the run has not finished.
    pub fn into_outcome(self) -> Outcome {
        let dispatch = self.dispatch_stats();
        Outcome {
            result: self.finished.expect("VM instance still running"),
            stats: self.stats,
            output: self.output,
            dispatch,
        }
    }

    /// Executes until roughly `quantum` more cycles have been charged
    /// (preemption is checked between instructions — inside a threaded
    /// segment too — so a slice overruns
    /// by at most one instruction's cost, including its GC pause, which
    /// a pause budget keeps bounded) or the run ends. Returns `true`
    /// when the run is finished, `false` when preempted.
    pub fn run_slice(&mut self, quantum: u64) -> bool {
        match self.cfg.dispatch {
            Dispatch::Decode => self.run_slice_decode(quantum),
            Dispatch::Threaded => crate::threaded::run_slice_threaded(self, quantum),
        }
    }

    /// Mirrors the heap's lifetime counters into [`RunStats`]; called
    /// at every slice exit so the stats are accurate whether the run
    /// ended or was merely preempted.
    pub(crate) fn sync_heap_stats(&mut self) {
        self.stats.alloc_words = self.heap.alloc_words;
        self.stats.n_allocs = self.heap.n_allocs;
        self.stats.gc_copied_words = self.heap.copied_words;
        self.stats.n_gcs = self.heap.n_gcs;
        self.stats.n_minor_gcs = self.heap.n_minor_gcs;
        self.stats.n_major_gcs = self.heap.n_major_gcs;
        self.stats.promoted_words = self.heap.promoted_words;
        self.stats.remembered_peak = self.heap.rs_peak;
    }

    /// The decode-dispatch loop: fetch, then execute with full
    /// accounting via [`Engine::exec`].
    fn run_slice_decode(&mut self, quantum: u64) -> bool {
        if self.finished.is_some() {
            return true;
        }
        let stop_at = self.stats.cycles.saturating_add(quantum);
        let mut out: Option<VmResult> = None;
        let (block, pc) = {
            let mut eng = Engine {
                prog: &self.exe,
                cfg: &self.cfg,
                heap: &mut self.heap,
                pool_ptrs: &self.pool_ptrs,
                regs: &mut self.regs,
                fregs: &mut self.fregs,
                handler: &mut self.handler,
                stats: &mut self.stats,
                output: &mut self.output,
                yield_ctr: &mut self.yield_ctr,
                block: self.block,
                pc: self.pc,
            };
            let prog = eng.prog;
            loop {
                if eng.stats.cycles > eng.cfg.max_cycles {
                    out = Some(VmResult::OutOfFuel);
                    break;
                }
                if eng.stats.cycles >= stop_at {
                    break; // quantum spent: preempted between instructions
                }
                if eng.block >= prog.blocks.len() || eng.pc >= prog.blocks[eng.block].instrs.len() {
                    out = Some(VmResult::Fault(format!(
                        "instruction fetch out of range: block {} pc {}",
                        eng.block, eng.pc
                    )));
                    break;
                }
                let instr = &prog.blocks[eng.block].instrs[eng.pc];
                eng.pc += 1;
                if let Err(end) = eng.exec(instr) {
                    out = Some(end);
                    break;
                }
            }
            (eng.block, eng.pc)
        };
        // Common exit: persist the interpreter state and sync the
        // heap's lifetime counters.
        self.block = block;
        self.pc = pc;
        self.sync_heap_stats();
        self.finished = out;
        self.finished.is_some()
    }
}

/// The per-instruction execution core shared by both dispatch engines:
/// split borrows of one [`VmInstance`]'s state plus the mobile
/// block/pc. Every handler is `#[inline(always)]` so each engine's
/// loop compiles to direct code; a handler returning `Err` ends the
/// run (normal halts travel that path too, exactly like traps, so the
/// loops have a single exit protocol).
pub(crate) struct Engine<'a> {
    pub(crate) prog: &'a MachineProgram,
    pub(crate) cfg: &'a VmConfig,
    pub(crate) heap: &'a mut Heap,
    pub(crate) pool_ptrs: &'a [u32],
    pub(crate) regs: &'a mut [u32; MAX_REGS as usize],
    pub(crate) fregs: &'a mut [f64; MAX_REGS as usize],
    pub(crate) handler: &'a mut u32,
    pub(crate) stats: &'a mut RunStats,
    pub(crate) output: &'a mut String,
    pub(crate) yield_ctr: &'a mut u64,
    pub(crate) block: usize,
    pub(crate) pc: usize,
}

/// The heap object kind an `Alloc` of `kind` builds.
#[inline(always)]
fn obj_kind(kind: AllocKind) -> ObjKind {
    match kind {
        AllocKind::Record => ObjKind::Record,
        AllocKind::Ref => ObjKind::Ref,
    }
}

/// Register-file index. Every register operand is range-checked once
/// per program, when its [`Executable`] is built (an instance of a
/// program that names a register past the file faults before its first
/// step), so the mask never changes an index; it only lets the compiler
/// drop the bounds check.
#[inline(always)]
fn ri(r: u8) -> usize {
    r as usize & (MAX_REGS as usize - 1)
}

impl Engine<'_> {
    #[inline(always)]
    fn r(&self, r: Reg) -> u32 {
        self.regs[ri(r)]
    }

    #[inline(always)]
    fn set(&mut self, r: Reg, v: u32) {
        self.regs[ri(r)] = v;
    }

    #[inline(always)]
    fn f(&self, r: FReg) -> f64 {
        self.fregs[ri(r)]
    }

    #[inline(always)]
    fn set_f(&mut self, r: FReg, v: f64) {
        self.fregs[ri(r)] = v;
    }

    /// Bounds-checks one object access; `Err` is a Fault trap.
    #[inline(always)]
    fn mem(&mut self, ptr: u32, off: usize, n: usize) -> Result<(), VmResult> {
        self.heap.check_access(ptr, off, n).map_err(VmResult::Fault)
    }

    /// Validates a string operand; `Err` is a Fault trap.
    #[inline(always)]
    fn strchk(&mut self, ptr: u32) -> Result<(), VmResult> {
        self.heap.check_string(ptr).map_err(VmResult::Fault)
    }

    /// Does fault injection force a collection before the next
    /// allocation ([`FaultInject::gc_every_n_allocs`])?
    #[inline(always)]
    fn gc_forced(&self) -> bool {
        self.cfg
            .fault
            .gc_every_n_allocs
            .is_some_and(|k| k > 0 && (self.heap.n_allocs + 1).is_multiple_of(k))
    }

    /// Runs the allocation protocol for `want` body words: injected
    /// failure, forced or scheduled minor collection (or slice pumping
    /// while an incremental major is active), then a major collection —
    /// pumped to completion unless a fault-injected yield interleaves
    /// the mutator — as the final attempt before the HeapExhausted
    /// trap. With no failure or collection due, no major active and
    /// room in the target space, it has nothing to do. Every
    /// allocation of the decode loop, and every one the threaded
    /// engine does not take through [`Heap::bump_young`], comes here.
    #[inline(always)]
    fn alloc_guard(&mut self, want: usize) -> Result<(), VmResult> {
        if self.cfg.fault.fail_alloc_at == Some(self.heap.n_allocs + 1) {
            return Err(VmResult::HeapExhausted);
        }
        if self.heap.is_exhausted() {
            return Err(VmResult::HeapExhausted);
        }
        let forced = self.gc_forced();
        if !forced && !self.heap.major_active() && !self.heap.needs_gc(want) {
            return Ok(());
        }
        // `true` once a full major has finished in this guard: if room
        // is still short after that, the heap is genuinely exhausted.
        let mut major_done = false;
        if self.heap.major_active() {
            // Resume the yielded incremental major.
            match pump_major(
                self.heap,
                &mut self.regs[..],
                self.handler,
                self.stats,
                self.cfg,
                self.yield_ctr,
                want,
            ) {
                Pump::Overflow => return Err(VmResult::HeapExhausted),
                Pump::Done => major_done = true,
                Pump::Yielded => {}
            }
        } else if forced || self.heap.needs_gc(want) {
            if self.heap.is_generational() || self.cfg.max_pause_cycles == 0 {
                gc(
                    self.heap,
                    &mut self.regs[..],
                    self.handler,
                    self.stats,
                    GcKind::Minor,
                    self.cfg.max_pause_cycles,
                );
            } else {
                // Semispace with a pause budget: the scheduled full
                // collection is sliced too.
                match pump_major(
                    self.heap,
                    &mut self.regs[..],
                    self.handler,
                    self.stats,
                    self.cfg,
                    self.yield_ctr,
                    want,
                ) {
                    Pump::Overflow => return Err(VmResult::HeapExhausted),
                    Pump::Done => major_done = true,
                    Pump::Yielded => {}
                }
            }
        }
        if !self.heap.has_room(want) {
            if major_done {
                return Err(VmResult::HeapExhausted);
            }
            if let Pump::Overflow = pump_major(
                self.heap,
                &mut self.regs[..],
                self.handler,
                self.stats,
                self.cfg,
                self.yield_ctr,
                want,
            ) {
                return Err(VmResult::HeapExhausted);
            }
            if !self.heap.has_room(want) {
                return Err(VmResult::HeapExhausted);
            }
        }
        Ok(())
    }

    // ----- per-instruction handlers ------------------------------------
    //
    // One method per hot instruction; both engines call these, so trap
    // behavior lives in exactly one place. They charge nothing: the
    // caller has already charged the instruction's fixed cost
    // (`Instr::fixed_cost`) and, for a jump, the `sml.fp3` term, which
    // is why a trapping instruction pays in full. An allocation's
    // static charge (`Instr::alloc_cost`) is the caller's too: `step`
    // pays it once the object is allocated, and a threaded segment's
    // header has paid it with the rest of the segment (refunded if the
    // nursery fast path does not apply).
    // Array, jump-table and runtime-call instructions execute through
    // `step`'s match arms, which charge their heap-dependent costs as
    // they go (the threaded engine routes them via its `Slow` record).

    #[inline(always)]
    pub(crate) fn m_move(&mut self, d: Reg, s: Reg) {
        self.set(d, self.r(s));
    }

    #[inline(always)]
    pub(crate) fn m_fmove(&mut self, d: FReg, s: FReg) {
        self.set_f(d, self.f(s));
    }

    #[inline(always)]
    pub(crate) fn m_loadi(&mut self, d: Reg, imm: i64) {
        self.set(d, tag_int(imm));
    }

    #[inline(always)]
    pub(crate) fn m_loadf(&mut self, d: FReg, imm: f64) {
        self.set_f(d, imm);
    }

    #[inline(always)]
    pub(crate) fn m_loadstr(&mut self, d: Reg, pool: u32) -> Result<(), VmResult> {
        let Some(&p) = self.pool_ptrs.get(pool as usize) else {
            return Err(VmResult::Fault(format!(
                "string pool index {pool} out of range"
            )));
        };
        self.set(d, p);
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_loadlabel(&mut self, d: Reg, label: u32) {
        self.set(d, tag_int(label as i64));
    }

    #[inline(always)]
    pub(crate) fn m_arith(&mut self, op: AOp, d: Reg, a: Reg, b: Reg) -> Result<(), VmResult> {
        let x = untag_int(self.r(a));
        let y = untag_int(self.r(b));
        let v = match op {
            AOp::Add => x.wrapping_add(y),
            AOp::Sub => x.wrapping_sub(y),
            AOp::Mul => x.wrapping_mul(y),
            // SML floor division/modulus, wrapping at `i64::MIN div ~1`.
            // A zero divisor is an arithmetic trap (charged like the
            // divide it attempted); compiled code guards `div`/`mod`
            // with a zero test that raises `Div` before reaching here.
            AOp::Div | AOp::Mod => {
                if y == 0 {
                    return Err(VmResult::Fault("integer division by zero".into()));
                }
                if op == AOp::Div {
                    floor_div(x, y)
                } else {
                    floor_mod(x, y)
                }
            }
        };
        self.set(d, tag_int(v));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_farith(&mut self, op: FOp, d: FReg, a: FReg, b: FReg) {
        let x = self.f(a);
        let y = self.f(b);
        let v = match op {
            FOp::Add => x + y,
            FOp::Sub => x - y,
            FOp::Mul => x * y,
            FOp::Div => x / y,
        };
        self.set_f(d, v);
    }

    #[inline(always)]
    pub(crate) fn m_funary(&mut self, op: FUOp, d: FReg, a: FReg) {
        let x = self.f(a);
        let v = match op {
            FUOp::Neg => -x,
            FUOp::Sqrt => x.sqrt(),
            FUOp::Sin => x.sin(),
            FUOp::Cos => x.cos(),
            FUOp::Atan => x.atan(),
            FUOp::Exp => x.exp(),
            FUOp::Ln => x.ln(),
        };
        self.set_f(d, v);
    }

    #[inline(always)]
    pub(crate) fn m_floor(&mut self, d: Reg, a: FReg) {
        self.set(d, tag_int(self.f(a).floor() as i64));
    }

    #[inline(always)]
    pub(crate) fn m_inttoreal(&mut self, d: FReg, a: Reg) {
        self.set_f(d, untag_int(self.r(a)) as f64);
    }

    #[inline(always)]
    pub(crate) fn m_load(&mut self, d: Reg, base: Reg, off: u16) -> Result<(), VmResult> {
        let p = self.r(base);
        self.mem(p, off as usize, 1)?;
        // Through the read barrier: during an active incremental major
        // a from-space target is evacuated and the slot healed, so
        // registers only ever hold to-space pointers.
        let v = self.heap.load_healed(p, off as usize);
        self.set(d, v);
        Ok(())
    }

    /// A threaded same-base `Load` run's fast path: its `(d, off)`
    /// pairs as plain loads from the one value of `base`, in order.
    /// The caller runs it only while no incremental major is active, so
    /// each `load_healed` would be a plain load with nothing to drain.
    /// Taken when one bounds check of `[0, max_off]` passes, which it
    /// does exactly when every constituent's own check would. Otherwise
    /// returns `false` having done nothing, and the caller runs the
    /// constituents one by one.
    #[inline(always)]
    pub(crate) fn m_loads(&mut self, base: Reg, max_off: u16, pairs: &[(Reg, u16)]) -> bool {
        let p = self.r(base);
        if self.heap.check_access(p, 0, max_off as usize + 1).is_err() {
            return false;
        }
        for &(d, off) in pairs {
            self.set(d, self.heap.load(p, off as usize));
        }
        true
    }

    #[inline(always)]
    pub(crate) fn m_store(&mut self, s: Reg, base: Reg, off: u16) -> Result<(), VmResult> {
        let p = self.r(base);
        self.mem(p, off as usize, 1)?;
        // Unboxed stores skip the barrier; the compiler must prove the
        // value is a non-pointer (paper §4.4).
        debug_assert!(
            !self.heap.would_need_barrier(p, self.r(s)),
            "unbarriered Store created a tenured→nursery pointer"
        );
        self.heap.store(p, off as usize, self.r(s));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_storewb(&mut self, s: Reg, base: Reg, off: u16) -> Result<(), VmResult> {
        let p = self.r(base);
        self.mem(p, off as usize, 1)?;
        self.heap.store_barriered(p, off as usize, self.r(s));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_fload(&mut self, d: FReg, base: Reg, off: u16) -> Result<(), VmResult> {
        let p = self.r(base);
        self.mem(p, off as usize, 2)?;
        self.set_f(d, self.heap.load_f64(p, off as usize));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_fstore(&mut self, s: FReg, base: Reg, off: u16) -> Result<(), VmResult> {
        let p = self.r(base);
        self.mem(p, off as usize, 2)?;
        self.heap.store_f64(p, off as usize, self.f(s));
        Ok(())
    }

    /// The element index in `idx`, or the negative-index Fault.
    #[inline(always)]
    fn index(&self, idx: Reg) -> Result<usize, VmResult> {
        let i = untag_int(self.r(idx));
        if i < 0 {
            return Err(VmResult::Fault(format!("negative index {i}")));
        }
        Ok(i as usize)
    }

    #[inline(always)]
    pub(crate) fn m_loadidx(&mut self, d: Reg, base: Reg, idx: Reg) -> Result<(), VmResult> {
        let i = self.index(idx)?;
        let p = self.r(base);
        self.mem(p, i, 1)?;
        let v = self.heap.load_healed(p, i);
        self.set(d, v);
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_storeidx(&mut self, s: Reg, base: Reg, idx: Reg) -> Result<(), VmResult> {
        let i = self.index(idx)?;
        let p = self.r(base);
        self.mem(p, i, 1)?;
        debug_assert!(
            !self.heap.would_need_barrier(p, self.r(s)),
            "unbarriered StoreIdx created a tenured→nursery pointer"
        );
        self.heap.store(p, i, self.r(s));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_storeidxwb(&mut self, s: Reg, base: Reg, idx: Reg) -> Result<(), VmResult> {
        let i = self.index(idx)?;
        let p = self.r(base);
        self.mem(p, i, 1)?;
        self.heap.store_barriered(p, i, self.r(s));
        Ok(())
    }

    #[inline(always)]
    pub(crate) fn m_arrlen(&mut self, d: Reg, a: Reg) -> Result<(), VmResult> {
        let p = self.r(a);
        self.mem(p, 0, 0)?;
        let (_, nscan, _) = decode(self.heap.desc(p));
        self.set(d, tag_int(nscan as i64));
        Ok(())
    }

    /// Boxes a float: `FBox`'s body in `step`. The caller has run the
    /// allocation protocol and charges [`Instr::alloc_cost`].
    #[inline(always)]
    fn m_fbox(&mut self, d: Reg, s: FReg) -> Result<(), VmResult> {
        let Some(p) = self.heap.alloc(ObjKind::BoxedFloat, 0, 1) else {
            return Err(VmResult::HeapExhausted);
        };
        self.heap.store_f64(p, 0, self.f(s));
        self.set(d, p);
        Ok(())
    }

    /// The threaded `FBox` record's fast path: boxes the float in the
    /// nursery ([`Heap::alloc_young`]) with a plain store. Returns
    /// `false`, having done nothing, when plain nursery allocation does
    /// not apply; the caller then runs the allocation protocol through
    /// `step`.
    #[inline(always)]
    pub(crate) fn m_fbox_young(&mut self, d: Reg, s: FReg) -> bool {
        let Some(p) = self.heap.alloc_young(ObjKind::BoxedFloat, 0, 1) else {
            return false;
        };
        self.heap.store_f64(p, 0, self.f(s));
        self.set(d, p);
        true
    }

    /// Allocates and initialises a record: `Alloc`'s body in `step`. The
    /// caller has checked the descriptor limits, run the allocation
    /// protocol, and charges [`Instr::alloc_cost`].
    #[inline(always)]
    fn m_alloc(
        &mut self,
        d: Reg,
        kind: AllocKind,
        words: &[Reg],
        flts: &[FReg],
    ) -> Result<(), VmResult> {
        let k = obj_kind(kind);
        let Some(p) = self.heap.alloc(k, words.len() as u32, flts.len() as u32) else {
            return Err(VmResult::HeapExhausted);
        };
        // Initializing stores go through the barrier too: large
        // objects allocate directly in tenured space and may be
        // initialized with nursery pointers.
        for (i, &r) in words.iter().enumerate() {
            self.heap.store_barriered(p, i, self.r(r));
        }
        for (j, &f) in flts.iter().enumerate() {
            self.heap.store_f64(p, words.len() + 2 * j, self.f(f));
        }
        self.set(d, p);
        Ok(())
    }

    /// The threaded `Alloc` record's fast path: allocates the record in
    /// the nursery ([`Heap::alloc_young`]) and initialises it with plain
    /// stores, which a young object never needs the barrier for.
    /// Returns `false`, having done nothing, when plain nursery
    /// allocation does not apply; the caller then runs the allocation
    /// protocol through `step`.
    #[inline(always)]
    pub(crate) fn m_alloc_young(
        &mut self,
        d: Reg,
        kind: AllocKind,
        words: &[Reg],
        flts: &[FReg],
    ) -> bool {
        let k = obj_kind(kind);
        let Some(p) = self
            .heap
            .alloc_young(k, words.len() as u32, flts.len() as u32)
        else {
            return false;
        };
        for (i, &r) in words.iter().enumerate() {
            self.heap.store(p, i, self.r(r));
        }
        for (j, &f) in flts.iter().enumerate() {
            self.heap.store_f64(p, words.len() + 2 * j, self.f(f));
        }
        self.set(d, p);
        true
    }

    #[inline(always)]
    pub(crate) fn m_funbox(&mut self, d: FReg, s: Reg) -> Result<(), VmResult> {
        let p = self.r(s);
        self.mem(p, 0, 2)?;
        self.set_f(d, self.heap.load_f64(p, 0));
        Ok(())
    }

    /// Evaluates an integer branch comparison; the *caller* redirects
    /// control when the comparison is false (branch-on-false ISA).
    #[inline(always)]
    pub(crate) fn m_branch(&mut self, op: BrOp, a: Reg, b: Reg) -> bool {
        let x = self.r(a);
        let y = self.r(b);
        match op {
            BrOp::Lt => untag_int(x) < untag_int(y),
            BrOp::Le => untag_int(x) <= untag_int(y),
            BrOp::Gt => untag_int(x) > untag_int(y),
            BrOp::Ge => untag_int(x) >= untag_int(y),
            BrOp::Eq => x == y,
            BrOp::Ne => x != y,
            BrOp::Boxed => is_ptr(x),
        }
    }

    /// Evaluates a float branch comparison (branch-on-false).
    #[inline(always)]
    pub(crate) fn m_fbranch(&mut self, op: FBrOp, a: FReg, b: FReg) -> bool {
        let x = self.f(a);
        let y = self.f(b);
        match op {
            FBrOp::Lt => x < y,
            FBrOp::Le => x <= y,
            FBrOp::Gt => x > y,
            FBrOp::Ge => x >= y,
            FBrOp::Eq => x == y,
            FBrOp::Ne => x != y,
        }
    }

    /// Validates an indirect jump and returns the target block.
    #[inline(always)]
    pub(crate) fn m_jumpreg(&mut self, r: Reg) -> Result<usize, VmResult> {
        let w = self.r(r);
        if is_ptr(w) {
            return Err(VmResult::Fault(format!(
                "jump through non-label {w:#x} from block {} ({})",
                self.block, self.prog.blocks[self.block].name
            )));
        }
        let target = untag_int(w);
        if target < 0 || target as usize >= self.prog.blocks.len() {
            return Err(VmResult::Fault(format!(
                "jump target {target} out of range from block {} ({})",
                self.block, self.prog.blocks[self.block].name
            )));
        }
        Ok(target as usize)
    }

    #[inline(always)]
    pub(crate) fn m_gethdlr(&mut self, d: Reg) {
        self.set(d, *self.handler);
    }

    #[inline(always)]
    pub(crate) fn m_sethdlr(&mut self, s: Reg) {
        *self.handler = self.r(s);
    }

    /// The final result of a normal halt.
    #[inline(always)]
    pub(crate) fn m_halt(&mut self, s: Reg) -> VmResult {
        // Resolve so a pointer-valued result is reported at its
        // canonical address (identity outside an active major).
        let w = self.heap.resolve(self.r(s));
        let v = if is_ptr(w) { w as i64 } else { untag_int(w) };
        VmResult::Value(v)
    }

    /// The final result of an uncaught-exception exit.
    #[inline(always)]
    pub(crate) fn m_uncaught(&mut self, s: Reg) -> VmResult {
        VmResult::Uncaught(uncaught_name(self.heap, self.r(s)))
    }

    /// Executes one instruction with full accounting — the decode
    /// loop's body, and the threaded engine's path for everything it
    /// does not run from a flat record. Counts the instruction, charges
    /// its fixed cost up front, runs [`Engine::step`], drains the read
    /// barrier, and splits the cycles it added between its class and
    /// the `Gc` pseudo-class (collector work), so the breakdown sums to
    /// `cycles` on trap exits too.
    #[inline(always)]
    pub(crate) fn exec(&mut self, instr: &Instr) -> Result<(), VmResult> {
        let class = instr.class() as usize;
        self.stats.instrs += 1;
        self.stats.instrs_by_class[class] += 1;
        let cycles_before = self.stats.cycles;
        let gc_before = self.stats.gc_cycles;
        self.stats.cycles += instr.fixed_cost();
        let r = self.step(instr);
        if self.heap.barrier_words_pending() {
            self.stats.cycles += drain_barrier(self.heap, self.stats);
        }
        let gc_delta = self.stats.gc_cycles - gc_before;
        self.stats.cycles_by_class[class] += self.stats.cycles - cycles_before - gc_delta;
        self.stats.cycles_by_class[InstrClass::Gc as usize] += gc_delta;
        r
    }

    /// Executes one instruction: updates registers/heap/output, charges
    /// any heap-dependent cycles, and advances `self.pc`/`self.block`
    /// for control transfers. The caller has charged the fixed cost
    /// ([`Instr::fixed_cost`]). `Err` ends the run (trap or normal
    /// halt).
    pub(crate) fn step(&mut self, instr: &Instr) -> Result<(), VmResult> {
        match *instr {
            Instr::Move { d, s } => self.m_move(d, s),
            Instr::FMove { d, s } => self.m_fmove(d, s),
            Instr::LoadI { d, imm } => self.m_loadi(d, imm),
            Instr::LoadF { d, imm } => self.m_loadf(d, imm),
            Instr::LoadStr { d, pool } => self.m_loadstr(d, pool)?,
            Instr::LoadLabel { d, label } => self.m_loadlabel(d, label),
            Instr::Arith { op, d, a, b } => self.m_arith(op, d, a, b)?,
            Instr::FArith { op, d, a, b } => self.m_farith(op, d, a, b),
            Instr::FUnary { op, d, a } => self.m_funary(op, d, a),
            Instr::Floor { d, a } => self.m_floor(d, a),
            Instr::IntToReal { d, a } => self.m_inttoreal(d, a),
            Instr::Load { d, base, off } => self.m_load(d, base, off)?,
            Instr::Store { s, base, off } => self.m_store(s, base, off)?,
            Instr::StoreWB { s, base, off } => self.m_storewb(s, base, off)?,
            Instr::FLoad { d, base, off } => self.m_fload(d, base, off)?,
            Instr::FStore { s, base, off } => self.m_fstore(s, base, off)?,
            Instr::LoadIdx { d, base, idx } => self.m_loadidx(d, base, idx)?,
            Instr::StoreIdx { s, base, idx } => self.m_storeidx(s, base, idx)?,
            Instr::StoreIdxWB { s, base, idx } => self.m_storeidxwb(s, base, idx)?,
            Instr::ArrLen { d, a } => self.m_arrlen(d, a)?,
            Instr::FBox { d, s } => {
                self.alloc_guard(2)?;
                self.m_fbox(d, s)?;
                self.stats.cycles += instr.alloc_cost();
            }
            Instr::FUnbox { d, s } => self.m_funbox(d, s)?,
            Instr::Branch { op, a, b, target } => {
                if !self.m_branch(op, a, b) {
                    self.pc = target as usize;
                }
            }
            Instr::FBranch { op, a, b, target } => {
                if !self.m_fbranch(op, a, b) {
                    self.pc = target as usize;
                }
            }
            Instr::SBranch { op, a, b, target } => {
                self.strchk(self.r(a))?;
                self.strchk(self.r(b))?;
                let sa = self.heap.read_string(self.r(a));
                let sb = self.heap.read_string(self.r(b));
                self.stats.cycles += 3 + (sa.len().min(sb.len()) as u64) / 4;
                let taken = match op {
                    SBrOp::Eq => sa == sb,
                    SBrOp::Ne => sa != sb,
                    SBrOp::Lt => sa < sb,
                    SBrOp::Le => sa <= sb,
                    SBrOp::Gt => sa > sb,
                    SBrOp::Ge => sa >= sb,
                };
                if !taken {
                    self.pc = target as usize;
                }
            }
            Instr::PolyEqBranch { a, b, target } => {
                let (wa, wb) = (self.r(a), self.r(b));
                if is_ptr(wa) {
                    self.mem(wa, 0, 0)?;
                }
                if is_ptr(wb) {
                    self.mem(wb, 0, 0)?;
                }
                let (eq, cost) = self.heap.poly_eq(wa, wb);
                // Runtime-call overhead (save/restore, dispatch on the
                // descriptor) plus the traversal.
                self.stats.cycles += 15 + 3 * cost;
                if !eq {
                    self.pc = target as usize;
                }
            }
            Instr::Switch {
                r,
                lo,
                ref table,
                default,
            } => {
                let n = untag_int(self.r(r));
                let idx = n - lo;
                self.pc = if idx >= 0 && (idx as usize) < table.len() {
                    table[idx as usize] as usize
                } else {
                    default as usize
                };
            }
            Instr::Jump { label } => {
                self.stats.cycles += self.cfg.fp3_overhead as u64;
                self.block = label as usize;
                self.pc = 0;
            }
            Instr::JumpReg { r } => {
                self.stats.cycles += self.cfg.fp3_overhead as u64;
                self.block = self.m_jumpreg(r)?;
                self.pc = 0;
            }
            Instr::Rt { op, d, a, b, fa } => match op {
                RtOp::StrCat => {
                    self.strchk(self.r(a))?;
                    self.strchk(self.r(b))?;
                    let sa = self.heap.read_string(self.r(a));
                    let sb = self.heap.read_string(self.r(b));
                    let joined = sa + &sb;
                    if joined.len() > Heap::MAX_STRING_BYTES {
                        return Err(VmResult::Fault(format!(
                            "string of {} bytes exceeds the descriptor limit of {}",
                            joined.len(),
                            Heap::MAX_STRING_BYTES
                        )));
                    }
                    let words = joined.len().div_ceil(4);
                    self.alloc_guard(words)?;
                    self.stats.cycles += 5 + words as u64;
                    let Some(p) = self.heap.alloc_string(&joined) else {
                        return Err(VmResult::HeapExhausted);
                    };
                    self.set(d, p);
                }
                RtOp::StrSize => {
                    self.stats.cycles += 2;
                    self.strchk(self.r(a))?;
                    self.set(d, tag_int(self.heap.string_len(self.r(a)) as i64));
                }
                RtOp::StrSub => {
                    self.stats.cycles += 3;
                    self.strchk(self.r(a))?;
                    let i = untag_int(self.r(b));
                    let len = self.heap.string_len(self.r(a));
                    if i < 0 || i as usize >= len {
                        return Err(VmResult::Fault(format!(
                            "string index {i} out of bounds for length {len}"
                        )));
                    }
                    self.set(
                        d,
                        tag_int(self.heap.string_byte(self.r(a), i as usize) as i64),
                    );
                }
                RtOp::IntToString => {
                    let s = untag_int(self.r(a)).to_string();
                    let words = s.len().div_ceil(4);
                    self.alloc_guard(words)?;
                    self.stats.cycles += 20;
                    let Some(p) = self.heap.alloc_string(&s) else {
                        return Err(VmResult::HeapExhausted);
                    };
                    self.set(d, p);
                }
                RtOp::RealToString => {
                    let s = format!("{:?}", self.f(fa));
                    let words = s.len().div_ceil(4);
                    self.alloc_guard(words)?;
                    self.stats.cycles += 40;
                    let Some(p) = self.heap.alloc_string(&s) else {
                        return Err(VmResult::HeapExhausted);
                    };
                    self.set(d, p);
                }
            },
            Instr::Alloc {
                d,
                kind,
                ref words,
                ref flts,
            } => {
                if words.len() > MAX_SCAN_FIELDS as usize || 2 * flts.len() > MAX_RAW_WORDS as usize
                {
                    return Err(VmResult::Fault(format!(
                        "record of {} scanned and {} raw words exceeds the descriptor limit",
                        words.len(),
                        2 * flts.len()
                    )));
                }
                self.alloc_guard(words.len() + 2 * flts.len())?;
                self.m_alloc(d, kind, words, flts)?;
                self.stats.cycles += instr.alloc_cost();
            }
            Instr::AllocArr { d, len, init } => {
                let n = untag_int(self.r(len)).max(0) as usize;
                if n > Heap::MAX_ARRAY_LEN {
                    return Err(VmResult::Fault(format!(
                        "array of {n} elements exceeds the descriptor limit of {}",
                        Heap::MAX_ARRAY_LEN
                    )));
                }
                self.alloc_guard(n)?;
                let Some(p) = self.heap.alloc(ObjKind::Array, n as u32, 0) else {
                    return Err(VmResult::HeapExhausted);
                };
                let v = self.r(init);
                for i in 0..n {
                    self.heap.store_barriered(p, i, v);
                }
                self.stats.cycles += 1 + n as u64;
                self.set(d, p);
            }
            Instr::GetHdlr { d } => self.m_gethdlr(d),
            Instr::SetHdlr { s } => self.m_sethdlr(s),
            Instr::Print { s } => {
                self.strchk(self.r(s))?;
                let txt = self.heap.read_string(self.r(s));
                self.stats.cycles += 5 + txt.len() as u64 / 4;
                self.output.push_str(&txt);
            }
            Instr::Halt { s } => return Err(self.m_halt(s)),
            Instr::Uncaught { s } => return Err(self.m_uncaught(s)),
        }
        Ok(())
    }
}

/// How a [`pump_major`] call ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Pump {
    /// The major collection completed.
    Done,
    /// A fault-injected yield handed control back to the mutator with
    /// the collection still active (only when the pending allocation
    /// already fits).
    Yielded,
    /// To-space overflow: the heap is finalized exhausted.
    Overflow,
}

/// Flips into a major collection (if one is not already active) and
/// pumps slices. Without a pause budget this is the stop-the-world
/// collector: flip plus one unbounded slice under a single recorded
/// pause, byte-for-byte the pre-incremental behavior. With a budget,
/// the flip and every slice are separate recorded pauses sized by
/// [`Heap::slice_words`]; slices run back-to-back (identical copy order
/// and placement to stop-the-world) unless
/// [`FaultInject::yield_every_n_slices`] interleaves the mutator.
fn pump_major(
    heap: &mut Heap,
    regs: &mut [u32],
    handler: &mut u32,
    stats: &mut RunStats,
    cfg: &VmConfig,
    yield_ctr: &mut u64,
    want: usize,
) -> Pump {
    let budget = cfg.max_pause_cycles;
    let slice_words = Heap::slice_words(budget);
    if !heap.major_active() {
        if budget == 0 {
            let before = heap.copied_words;
            let ok = begin_with_roots(heap, regs, handler)
                && heap.major_slice(u64::MAX) == SliceOutcome::Done;
            stats.major_slices += 1;
            record_pause(stats, false, 200 + 3 * (heap.copied_words - before), budget);
            return if ok { Pump::Done } else { Pump::Overflow };
        }
        // The flip (root forwarding) is the one atomic step and its own
        // recorded pause; roots are few, so it only overruns the budget
        // on a genuinely oversized root object (reported, not hidden).
        let before = heap.copied_words;
        let ok = begin_with_roots(heap, regs, handler);
        record_pause(stats, false, 200 + 3 * (heap.copied_words - before), budget);
        if !ok {
            return Pump::Overflow;
        }
    }
    loop {
        let before = heap.copied_words;
        let outcome = heap.major_slice(slice_words);
        stats.major_slices += 1;
        record_pause(stats, false, 200 + 3 * (heap.copied_words - before), budget);
        match outcome {
            SliceOutcome::Done => return Pump::Done,
            SliceOutcome::Overflow => return Pump::Overflow,
            SliceOutcome::More => {
                *yield_ctr += 1;
                if let Some(n) = cfg.fault.yield_every_n_slices {
                    if n > 0 && (*yield_ctr).is_multiple_of(n) && heap.has_room(want) {
                        return Pump::Yielded;
                    }
                }
            }
        }
    }
}

/// Forwards all VM roots (registers plus the handler) into a fresh
/// major collection.
fn begin_with_roots(heap: &mut Heap, regs: &mut [u32], handler: &mut u32) -> bool {
    heap.begin_major(regs.iter_mut().chain(std::iter::once(handler)))
}

/// Charges one recorded GC pause: total and per-class cycle counters,
/// the max-pause watermark, the pause histogram, and — when a budget is
/// set — the overrun counter for pauses that exceed it.
fn record_pause(stats: &mut RunStats, minor: bool, cost: u64, budget: u64) {
    stats.cycles += cost;
    stats.gc_cycles += cost;
    if minor {
        stats.minor_gc_cycles += cost;
        stats.max_minor_pause = stats.max_minor_pause.max(cost);
        stats.pause_hist_minor[pause_bucket(cost)] += 1;
    } else {
        stats.major_gc_cycles += cost;
        stats.max_major_pause = stats.max_major_pause.max(cost);
        stats.pause_hist_major[pause_bucket(cost)] += 1;
    }
    if budget > 0 && cost > budget {
        stats.pause_overruns += 1;
    }
}

/// Charges read-barrier copy work accumulated since the last drain to
/// GC time (it belongs to no recorded pause — that is the point of the
/// barrier: the copy happens during mutator time). Returns the cycles
/// to add to the run's total, which the caller holds.
#[cold]
fn drain_barrier(heap: &mut Heap, stats: &mut RunStats) -> u64 {
    let words = heap.take_barrier_words();
    let cost = 3 * words;
    stats.gc_cycles += cost;
    stats.major_gc_cycles += cost;
    stats.barrier_words += words;
    cost
}

/// Runs one stop-the-world collection with the VM roots (all registers
/// plus the handler), charges the pause to the stats, and reports
/// whether the collection completed (`false` only when a major
/// collection overflowed: live data exceeds one tenured semispace).
fn gc(
    heap: &mut Heap,
    regs: &mut [u32],
    handler: &mut u32,
    stats: &mut RunStats,
    kind: GcKind,
    budget: u64,
) -> bool {
    let before = heap.copied_words;
    let rs_slots = heap.remembered_len() as u64;
    let complete = heap.collect(regs.iter_mut().chain(std::iter::once(handler)), kind);
    let copied = heap.copied_words - before;
    // In semispace mode every collection is a full one and pays the
    // major-pause cost.
    let minor_ran = kind == GcKind::Minor && heap.is_generational();
    let cost = if minor_ran {
        150 + 3 * copied + rs_slots
    } else {
        200 + 3 * copied
    };
    if !minor_ran {
        stats.major_slices += 1;
    }
    record_pause(stats, minor_ran, cost, budget);
    complete
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts to `n` in a loop.
    fn sum_loop(n: i64) -> MachineProgram {
        let block = |name: &str, instrs| CodeBlock {
            name: name.into(),
            instrs,
        };
        MachineProgram {
            blocks: vec![
                block(
                    "entry",
                    vec![
                        Instr::LoadI { d: 1, imm: 0 },
                        Instr::LoadI { d: 2, imm: n },
                        Instr::LoadI { d: 3, imm: 1 },
                        Instr::Jump { label: 1 },
                    ],
                ),
                block(
                    "loop",
                    vec![
                        Instr::Branch {
                            op: BrOp::Gt,
                            a: 2,
                            b: 1,
                            target: 3,
                        },
                        Instr::Arith {
                            op: AOp::Add,
                            d: 1,
                            a: 1,
                            b: 3,
                        },
                        Instr::Jump { label: 1 },
                        Instr::Halt { s: 1 },
                    ],
                ),
            ],
            entry: 0,
            pool: Vec::new(),
        }
    }

    #[test]
    fn runs_of_one_executable_share_one_stream() {
        let exe = Executable::new(&sum_loop(50));
        let decode = VmConfig {
            dispatch: Dispatch::Decode,
            ..VmConfig::default()
        };
        let d = exe.run(&decode);
        assert!(
            exe.0.threaded.get().is_none(),
            "decode runs build no stream"
        );
        assert_eq!(
            d.dispatch,
            DispatchStats {
                engine: Dispatch::Decode,
                ..DispatchStats::default()
            }
        );

        let first = exe.run(&VmConfig::default());
        let stream: *const ThreadedProgram = exe.0.threaded.get().expect("built by the first run");
        let again = exe.clone().run(&VmConfig::default());
        assert!(std::ptr::eq(stream, exe.threaded()), "built once");
        assert_eq!(first.dispatch, again.dispatch);
        assert!(first.dispatch.stream_len > 0);
        assert_eq!(
            (&first.result, &first.output, first.stats),
            (&d.result, &d.output, d.stats)
        );
        assert_eq!(first.result, VmResult::Value(50));
    }
}
