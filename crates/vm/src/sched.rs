//! Policy-driven multi-tenant VM scheduling: time-slicing N concurrent
//! [`VmInstance`]s on a cycle quantum under a pluggable [`SchedPolicy`].
//!
//! Each tenant is a [`TenantSpec`]: a shared [`Executable`] (so N
//! instances of one program pay one compilation and, under threaded
//! dispatch, one pre-decode), its own [`VmConfig`] (the per-tenant
//! `tenured_words` ceiling *is* the heap quota, and `max_cycles` is the
//! fuel quota), and scheduling attributes (priority, deadline, an optional
//! per-tenant quantum). The scheduler's isolation guarantee is the
//! whole point: a tenant that exhausts its quota, faults, or runs out
//! of fuel degrades **alone** ([`TenantOutcome::HeapExhausted`] /
//! [`TenantOutcome::Fault`] / [`TenantOutcome::OutOfFuel`]) while every
//! other tenant runs to completion with exactly the results it would
//! have produced running solo — tenant heaps share nothing, and
//! preemption sits between instructions, so interleaving cannot change
//! per-tenant behavior. This holds under every policy and both
//! dispatch engines.
//!
//! # Policies
//!
//! * [`SchedPolicy::RoundRobin`] — each pass over the runnable set
//!   gives every tenant one slice, in admission order. Byte-identical
//!   to the pre-policy scheduler's schedule.
//! * [`SchedPolicy::Priority`] — strict priority with
//!   starvation-bounded aging: a runnable tenant is bypassed by
//!   higher-priority work for at most `priority_gap ×`
//!   [`SchedulerBuilder::aging_slices`] slices before its aged key wins.
//! * [`SchedPolicy::Deadline`] — earliest-deadline-first over each
//!   tenant's absolute deadline (`deadline_cycles` on the machine's
//!   deterministic cycle clock). A tenant that completes normally but
//!   past its deadline reports [`TenantOutcome::DeadlineMissed`]; its
//!   result, output, and stats are still solo-identical. Deadline
//!   misses are judged under *every* policy (that is what makes
//!   policies comparable); only EDF orders by them.
//!
//! The ready queue is a binary heap keyed by policy, so picking the
//! next tenant costs O(log n) per slice instead of the former O(n)
//! scan per round — the difference between 16 tenants and a
//! thousand-tenant storm. Schedules remain deterministic: keys are
//! pure functions of (policy, admission order, slices taken), never of
//! wall-clock time.
//!
//! # Admission control
//!
//! [`SchedulerBuilder::heap_capacity_words`] /
//! [`SchedulerBuilder::fuel_capacity_cycles`] cap the machine's
//! aggregate committed quotas. [`VmScheduler::admit`] rejects — with a
//! typed [`AdmissionError`], never a panic — any spec whose quota
//! would oversubscribe the remaining capacity.
//!
//! # Fairness
//!
//! Fairness is bounded, not merely statistical: each slice advances
//! one tenant at most its quantum plus one bounded overshoot (the
//! cycle cost of the single instruction or GC pause straddling the
//! quantum edge — under either dispatch engine, since the threaded
//! engine can preempt between a superinstruction's halves). Overshoot
//! is accounted per tenant against *that tenant's* quantum
//! ([`TenantReport::max_overshoot`]); the largest across tenants is
//! [`SchedStats::max_overshoot`]. With a GC pause budget set
//! ([`VmConfig::max_pause_cycles`]) the overshoot is itself bounded by
//! the pause budget plus the costliest single instruction.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Mutex;

use crate::par::par_map;
use crate::vm::{DispatchStats, Executable, Outcome, RunStats, VmConfig, VmInstance, VmResult};

/// The scheduling discipline of a [`VmScheduler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// One slice per runnable tenant per pass, in admission order.
    #[default]
    RoundRobin,
    /// Strict priority (higher [`TenantSpec::priority`] first) with
    /// starvation-bounded aging.
    Priority,
    /// Earliest-deadline-first over [`TenantSpec::deadline_cycles`];
    /// tenants without a deadline run after every deadline-bearing
    /// tenant.
    Deadline,
}

impl SchedPolicy {
    /// Stable lower-case name, also accepted by the `FromStr` parser
    /// and emitted in the `sched` metrics object.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::Priority => "priority",
            SchedPolicy::Deadline => "deadline",
        }
    }
}

impl std::str::FromStr for SchedPolicy {
    type Err = String;
    fn from_str(s: &str) -> Result<SchedPolicy, String> {
        match s {
            "round-robin" | "rr" => Ok(SchedPolicy::RoundRobin),
            "priority" => Ok(SchedPolicy::Priority),
            "deadline" | "edf" => Ok(SchedPolicy::Deadline),
            other => Err(format!(
                "unknown scheduling policy `{other}` (expected round-robin|priority|deadline)"
            )),
        }
    }
}

/// Everything the scheduler needs to know about one tenant, as a
/// single owned value — per-tenant configuration stops being
/// positional `spawn` arguments.
///
/// The program handle is shared: spawning N tenants of one compiled
/// program clones an `Arc`, not the code.
#[derive(Clone)]
pub struct TenantSpec {
    /// The compiled program (shared code; each tenant gets a private
    /// heap, while tenants of one executable under threaded dispatch
    /// share its one pre-decoded stream).
    pub program: Executable,
    /// The tenant's own VM config: heap quota (`tenured_words`), fuel
    /// quota (`max_cycles`), GC mode, pause budget, dispatch engine,
    /// fault injection.
    pub vm_config: VmConfig,
    /// Scheduling priority ([`SchedPolicy::Priority`]; higher runs
    /// first). Ignored by the other policies.
    pub priority: u32,
    /// Relative deadline in machine cycles from admission. Judged
    /// under every policy; orders the ready queue under
    /// [`SchedPolicy::Deadline`].
    pub deadline_cycles: Option<u64>,
    /// Per-tenant quantum override; `None` uses the scheduler's
    /// quantum. Overshoot accounting is always against the tenant's
    /// effective quantum.
    pub quantum_cycles: Option<u64>,
}

impl TenantSpec {
    /// A spec with default scheduling attributes (priority 0, no
    /// deadline, the scheduler's quantum).
    /// `program` is an [`Executable`], a reference to one or an `Arc`
    /// of one; the spec holds a clone of it.
    pub fn new(program: impl Borrow<Executable>, vm_config: &VmConfig) -> TenantSpec {
        TenantSpec {
            program: program.borrow().clone(),
            vm_config: *vm_config,
            priority: 0,
            deadline_cycles: None,
            quantum_cycles: None,
        }
    }

    /// Sets the scheduling priority (higher runs first under
    /// [`SchedPolicy::Priority`]).
    pub fn priority(mut self, priority: u32) -> TenantSpec {
        self.priority = priority;
        self
    }

    /// Sets the relative deadline, in machine cycles from admission.
    pub fn deadline_cycles(mut self, cycles: u64) -> TenantSpec {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Overrides the scheduler's quantum for this tenant.
    pub fn quantum_cycles(mut self, cycles: u64) -> TenantSpec {
        self.quantum_cycles = Some(cycles);
        self
    }
}

/// Why [`SchedulerBuilder::build`] rejected a configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedConfigError {
    /// A knob that must be at least 1 was 0.
    MustBeNonzero {
        /// Which builder field was zero.
        field: &'static str,
    },
}

impl std::fmt::Display for SchedConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedConfigError::MustBeNonzero { field } => {
                write!(f, "scheduler config: `{field}` must be nonzero")
            }
        }
    }
}

impl std::error::Error for SchedConfigError {}

/// Why [`VmScheduler::admit`] rejected a [`TenantSpec`]: its quota
/// would oversubscribe the machine capacity. Admission never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// The spec's heap quota (`tenured_words`) does not fit the
    /// remaining heap capacity.
    HeapOversubscribed {
        /// Heap words the spec asked for.
        requested: u64,
        /// Heap words already committed to admitted tenants.
        committed: u64,
        /// The machine's total heap capacity.
        capacity: u64,
    },
    /// The spec's fuel quota (`max_cycles`) does not fit the remaining
    /// fuel capacity.
    FuelOversubscribed {
        /// Fuel cycles the spec asked for.
        requested: u64,
        /// Fuel cycles already committed to admitted tenants.
        committed: u64,
        /// The machine's total fuel capacity.
        capacity: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::HeapOversubscribed {
                requested,
                committed,
                capacity,
            } => write!(
                f,
                "admission rejected: heap quota of {requested} words oversubscribes \
                 machine capacity ({committed} of {capacity} already committed)"
            ),
            AdmissionError::FuelOversubscribed {
                requested,
                committed,
                capacity,
            } => write!(
                f,
                "admission rejected: fuel quota of {requested} cycles oversubscribes \
                 machine capacity ({committed} of {capacity} already committed)"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Builds a [`VmScheduler`], validating knobs the same way
/// `SessionBuilder` does: typed errors, no panics, no silent clamping.
///
/// ```
/// use sml_vm::{SchedPolicy, SchedulerBuilder};
/// let sched = SchedulerBuilder::new()
///     .quantum(5_000)
///     .policy(SchedPolicy::Deadline)
///     .heap_capacity_words(1 << 24)
///     .build()
///     .unwrap();
/// assert!(sched.is_empty());
/// assert!(SchedulerBuilder::new().quantum(0).build().is_err());
/// ```
#[derive(Clone, Debug)]
pub struct SchedulerBuilder {
    quantum: u64,
    policy: SchedPolicy,
    heap_capacity_words: Option<u64>,
    fuel_capacity_cycles: Option<u64>,
    aging_slices: u64,
}

impl Default for SchedulerBuilder {
    fn default() -> SchedulerBuilder {
        SchedulerBuilder::new()
    }
}

impl SchedulerBuilder {
    /// Defaults: quantum 10 000 cycles, [`SchedPolicy::RoundRobin`],
    /// unlimited capacity, aging factor 1024 slices per priority step.
    pub fn new() -> SchedulerBuilder {
        SchedulerBuilder {
            quantum: 10_000,
            policy: SchedPolicy::RoundRobin,
            heap_capacity_words: None,
            fuel_capacity_cycles: None,
            aging_slices: 1024,
        }
    }

    /// Default cycle quantum per slice (a [`TenantSpec::quantum_cycles`]
    /// overrides it per tenant). Must be nonzero.
    pub fn quantum(mut self, quantum: u64) -> SchedulerBuilder {
        self.quantum = quantum;
        self
    }

    /// The scheduling discipline.
    pub fn policy(mut self, policy: SchedPolicy) -> SchedulerBuilder {
        self.policy = policy;
        self
    }

    /// Caps the sum of admitted tenants' heap quotas
    /// (`tenured_words`). Unlimited when unset. Must be nonzero.
    pub fn heap_capacity_words(mut self, words: u64) -> SchedulerBuilder {
        self.heap_capacity_words = Some(words);
        self
    }

    /// Caps the sum of admitted tenants' fuel quotas (`max_cycles`).
    /// Unlimited when unset. Must be nonzero.
    pub fn fuel_capacity_cycles(mut self, cycles: u64) -> SchedulerBuilder {
        self.fuel_capacity_cycles = Some(cycles);
        self
    }

    /// Starvation bound for [`SchedPolicy::Priority`]: a runnable
    /// tenant yields to each step of higher priority for at most this
    /// many slices. Must be nonzero (aging is what bounds starvation).
    pub fn aging_slices(mut self, slices: u64) -> SchedulerBuilder {
        self.aging_slices = slices;
        self
    }

    /// Validates and builds the scheduler.
    pub fn build(self) -> Result<VmScheduler, SchedConfigError> {
        if self.quantum == 0 {
            return Err(SchedConfigError::MustBeNonzero { field: "quantum" });
        }
        if self.aging_slices == 0 {
            return Err(SchedConfigError::MustBeNonzero {
                field: "aging_slices",
            });
        }
        if self.heap_capacity_words == Some(0) {
            return Err(SchedConfigError::MustBeNonzero {
                field: "heap_capacity_words",
            });
        }
        if self.fuel_capacity_cycles == Some(0) {
            return Err(SchedConfigError::MustBeNonzero {
                field: "fuel_capacity_cycles",
            });
        }
        Ok(VmScheduler {
            quantum: self.quantum,
            policy: self.policy,
            heap_capacity_words: self.heap_capacity_words,
            fuel_capacity_cycles: self.fuel_capacity_cycles,
            aging_slices: self.aging_slices,
            committed_heap_words: 0,
            committed_fuel_cycles: 0,
            rejected: 0,
            tenants: Vec::new(),
        })
    }
}

/// How a tenant's run ended, from the scheduler's governance
/// perspective. [`VmResult::Value`] and [`VmResult::Uncaught`] are both
/// [`TenantOutcome::Done`]: an uncaught ML exception is a normal,
/// well-defined program result, not a governance event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOutcome {
    /// The program ran to completion (normal halt or uncaught ML
    /// exception).
    Done,
    /// The tenant exhausted its heap quota.
    HeapExhausted,
    /// The tenant tripped a contained memory-safety / control-flow
    /// fault.
    Fault,
    /// The tenant exhausted its cycle (fuel) quota.
    OutOfFuel,
    /// The tenant ran to completion, but the machine's cycle clock had
    /// passed its [`TenantSpec::deadline_cycles`]. Replaces only
    /// [`TenantOutcome::Done`] — resource outcomes take precedence —
    /// and never changes the tenant's result, output, or stats.
    DeadlineMissed,
}

impl TenantOutcome {
    /// Classifies a final [`VmResult`]. Deadline misses are a
    /// scheduler-clock judgment, not a `VmResult`, so this never
    /// returns [`TenantOutcome::DeadlineMissed`].
    pub fn of(result: &VmResult) -> TenantOutcome {
        match result {
            VmResult::Value(_) | VmResult::Uncaught(_) => TenantOutcome::Done,
            VmResult::HeapExhausted => TenantOutcome::HeapExhausted,
            VmResult::Fault(_) => TenantOutcome::Fault,
            VmResult::OutOfFuel => TenantOutcome::OutOfFuel,
        }
    }
}

/// One tenant's final report: governance outcome plus the full
/// [`Outcome`] fields it would have produced running solo.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    /// Governance classification of `result` (plus the deadline
    /// judgment — see [`TenantOutcome::DeadlineMissed`]).
    pub outcome: TenantOutcome,
    /// The tenant's final result, byte-identical to a solo run.
    pub result: VmResult,
    /// Everything the tenant printed.
    pub output: String,
    /// The tenant's own counters (per-tenant `RunStats`).
    pub stats: RunStats,
    /// The tenant's execution engine and pre-decode facts.
    pub dispatch: DispatchStats,
    /// Scheduler slices this tenant consumed.
    pub slices: u64,
    /// Largest single-slice overshoot past *this tenant's* quantum.
    pub max_overshoot: u64,
    /// Global slice index at which the tenant first ran (`None` if it
    /// finished before ever being scheduled, e.g. a pre-run fault).
    /// The starvation bound is an assertion about this number.
    pub first_slice: Option<u64>,
}

/// Scheduler-level fairness, admission, and outcome counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// The scheduling discipline that produced this schedule.
    pub policy: SchedPolicy,
    /// The default cycle quantum tenants were sliced on.
    pub quantum: u64,
    /// Number of tenants admitted and scheduled.
    pub tenants: u64,
    /// Specs rejected by admission control.
    pub rejected: u64,
    /// Scheduling passes: the maximum number of slices any one tenant
    /// consumed (for round-robin, exactly the passes over the runnable
    /// set).
    pub rounds: u64,
    /// Total slices handed out.
    pub slices: u64,
    /// Slices that ended by preemption (quantum expiry) rather than by
    /// the tenant finishing.
    pub preemptions: u64,
    /// Largest single-slice overshoot past the preempted tenant's own
    /// quantum, in cycles: the cost of the instruction or GC pause
    /// straddling the quantum edge.
    pub max_overshoot: u64,
    /// Peak depth of the ready queue (bounds the O(log n) heap cost).
    pub ready_peak: u64,
    /// Tenants that finished [`TenantOutcome::Done`] (in time, when
    /// they carried a deadline). The five outcome tallies partition
    /// `tenants`.
    pub done: u64,
    /// Tenants that ended [`TenantOutcome::HeapExhausted`].
    pub heap_exhausted: u64,
    /// Tenants that ended [`TenantOutcome::Fault`].
    pub fault: u64,
    /// Tenants that ended [`TenantOutcome::OutOfFuel`].
    pub out_of_fuel: u64,
    /// Tenants that completed past their deadline
    /// ([`TenantOutcome::DeadlineMissed`]).
    pub deadline_missed: u64,
}

/// A tenant's run: what building its instance needs until it runs
/// ahead, then the finished run's outcome. The instance, and with it
/// the tenant's heap, exists only in between.
// The outcome stays inline: boxing it allocates once per tenant on the
// worker that ran it, which raised a 1000-tenant storm's peak RSS by
// about 0.6 MiB.
#[allow(clippy::large_enum_variant)]
enum Run {
    Admitted {
        program: Executable,
        config: VmConfig,
    },
    Finished(Outcome),
}

/// One admitted tenant: its run plus its scheduling attributes and
/// per-tenant counters.
struct Tenant {
    run: Run,
    quantum: u64,
    priority: u32,
    /// Absolute deadline on the machine cycle clock.
    deadline: Option<u64>,
    /// Slices the tenant took to finish when it ran ahead.
    ran: u64,
    /// Cycles each of those slices used; recorded only when some
    /// tenant carries a deadline, the machine clock's one reader.
    used: Vec<u64>,
    /// Slices the schedule replay has handed out so far.
    slices: u64,
    max_overshoot: u64,
    first_slice: Option<u64>,
    /// Machine clock when the tenant's final slice ended.
    finished_at: u64,
}

impl Tenant {
    /// Builds the tenant's instance and runs it to completion one
    /// quantum at a time, recording what the schedule replay reads: the
    /// slice count, the largest overshoot and, when `timed`, each
    /// slice's cycles. Only the outcome is kept: the instance and its
    /// heap are freed before the worker takes its next tenant. Nothing
    /// here depends on other tenants or on the order slices are taken
    /// in: the heap, registers and counters are the tenant's own. An
    /// instance that faults at construction finishes with no slice.
    fn run_ahead(&mut self, timed: bool) {
        let Run::Admitted { program, config } = &self.run else {
            return;
        };
        let mut vm = VmInstance::new(program, config);
        let mut finished = vm.finished();
        while !finished {
            let before = vm.stats().cycles;
            finished = vm.run_slice(self.quantum);
            let used = vm.stats().cycles - before;
            self.ran += 1;
            self.max_overshoot = self.max_overshoot.max(used.saturating_sub(self.quantum));
            if timed {
                self.used.push(used);
            }
        }
        self.run = Run::Finished(vm.into_outcome());
    }
}

/// Min-ordered ready-queue entry ([`BinaryHeap`] is a max-heap, so the
/// `Ord` impl is reversed). Keys are policy-specific; ties break on
/// admission index, keeping every schedule deterministic.
#[derive(PartialEq, Eq)]
struct Ready {
    key: u64,
    idx: usize,
}

impl Ord for Ready {
    fn cmp(&self, other: &Ready) -> Ordering {
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Ready) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A policy-driven scheduler over N tenant VM instances.
///
/// ```
/// # use sml_vm::{Executable, SchedulerBuilder, TenantSpec, TenantOutcome, VmConfig};
/// # fn demo(prog: Executable) {
/// let mut sched = SchedulerBuilder::new().quantum(10_000).build().unwrap();
/// sched.admit(TenantSpec::new(&prog, &VmConfig::default())).unwrap();
/// sched.admit(TenantSpec::new(prog, &VmConfig { tenured_words: 4096, ..VmConfig::default() })).unwrap();
/// let (reports, stats) = sched.run_all();
/// assert_eq!(reports.len(), 2);
/// assert_eq!(stats.done + stats.heap_exhausted, 2);
/// # }
/// ```
pub struct VmScheduler {
    quantum: u64,
    policy: SchedPolicy,
    heap_capacity_words: Option<u64>,
    fuel_capacity_cycles: Option<u64>,
    aging_slices: u64,
    committed_heap_words: u64,
    committed_fuel_cycles: u64,
    rejected: u64,
    tenants: Vec<Tenant>,
}

impl VmScheduler {
    /// Admits a tenant, or rejects it (typed error, never a panic) if
    /// its heap/fuel quota would oversubscribe the machine capacity.
    /// Returns the tenant's index, which is also its position in the
    /// [`VmScheduler::run_all`] report vector.
    ///
    /// Admission does no heap work: it records the program and its
    /// config, and [`VmScheduler::run_all`] builds the tenant's instance
    /// when the tenant runs.
    pub fn admit(&mut self, spec: TenantSpec) -> Result<usize, AdmissionError> {
        let heap_req = spec.vm_config.tenured_words as u64;
        let fuel_req = spec.vm_config.max_cycles;
        if let Some(cap) = self.heap_capacity_words {
            if self.committed_heap_words.saturating_add(heap_req) > cap {
                self.rejected += 1;
                return Err(AdmissionError::HeapOversubscribed {
                    requested: heap_req,
                    committed: self.committed_heap_words,
                    capacity: cap,
                });
            }
        }
        if let Some(cap) = self.fuel_capacity_cycles {
            if self.committed_fuel_cycles.saturating_add(fuel_req) > cap {
                self.rejected += 1;
                return Err(AdmissionError::FuelOversubscribed {
                    requested: fuel_req,
                    committed: self.committed_fuel_cycles,
                    capacity: cap,
                });
            }
        }
        self.committed_heap_words = self.committed_heap_words.saturating_add(heap_req);
        self.committed_fuel_cycles = self.committed_fuel_cycles.saturating_add(fuel_req);
        self.tenants.push(Tenant {
            run: Run::Admitted {
                program: spec.program,
                config: spec.vm_config,
            },
            quantum: spec.quantum_cycles.unwrap_or(self.quantum).max(1),
            priority: spec.priority,
            deadline: spec.deadline_cycles,
            ran: 0,
            used: Vec::new(),
            slices: 0,
            max_overshoot: 0,
            first_slice: None,
            finished_at: 0,
        });
        Ok(self.tenants.len() - 1)
    }

    /// Number of tenants admitted.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// True when no tenants have been admitted.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The ready-queue key for tenant `idx`, given how many slices it
    /// has already taken and the global enqueue sequence number.
    fn key_for(&self, idx: usize, seq: u64) -> u64 {
        let t = &self.tenants[idx];
        match self.policy {
            // Pass count: every unfinished tenant takes exactly one
            // slice per pass, in admission order — the pre-policy
            // round-robin schedule, now in O(log n) per slice.
            SchedPolicy::RoundRobin => t.slices,
            // Virtual time: each priority step ages away
            // `aging_slices` enqueues, so strict priority holds until
            // a starving tenant's seniority wins. The bias keeps the
            // subtraction from saturating at low sequence numbers
            // (which would erase priority for the first slices);
            // priorities beyond `bias / aging_slices` saturate
            // together.
            SchedPolicy::Priority => {
                const PRIORITY_BIAS: u64 = 1 << 32;
                PRIORITY_BIAS
                    .saturating_add(seq)
                    .saturating_sub((t.priority as u64).saturating_mul(self.aging_slices))
            }
            // EDF on the absolute deadline; deadline-free tenants sort
            // last.
            SchedPolicy::Deadline => t.deadline.unwrap_or(u64::MAX),
        }
    }

    /// Runs every tenant to completion under the configured policy and
    /// returns the per-tenant reports (indexed by admission order)
    /// plus the scheduler's counters. Deterministic: the schedule is a
    /// pure function of the tenant set, the policy, and the quanta.
    ///
    /// It executes in two steps. First every tenant runs ahead to
    /// completion, slice by slice, on one of W workers: the calling
    /// thread plus W − 1 started ones, W being the host's available
    /// parallelism capped at the tenant count. A worker builds the
    /// tenant's instance, runs it and keeps only its outcome, so at
    /// most W tenant heaps exist at once. Then the ready-queue loop
    /// replays the schedule from what each tenant recorded. A tenant's
    /// slices depend on that tenant alone, and the queue keys read only
    /// slice counts, so every report and counter is the same for every
    /// W; only the host time and memory change (docs/SCHEDULER.md).
    pub fn run_all(self) -> (Vec<TenantReport>, SchedStats) {
        self.run_all_on(0)
    }

    /// [`VmScheduler::run_all`] on `workers` workers (0 = the host's
    /// available parallelism). Tests pick the count; nothing else does.
    fn run_all_on(mut self, workers: usize) -> (Vec<TenantReport>, SchedStats) {
        let timed = self.tenants.iter().any(|t| t.deadline.is_some());
        // Each tenant is run by exactly one worker, so its lock is
        // never contended; it only hands the worker a `&mut`.
        let cells: Vec<Mutex<&mut Tenant>> = self.tenants.iter_mut().map(Mutex::new).collect();
        par_map(&cells, workers, |_, t| {
            t.lock()
                .expect("a tenant lock is poisoned only by a panicking run, which propagates")
                .run_ahead(timed)
        });
        drop(cells);

        let mut stats = SchedStats {
            policy: self.policy,
            quantum: self.quantum,
            tenants: self.tenants.len() as u64,
            rejected: self.rejected,
            ..SchedStats::default()
        };
        // The machine's deterministic cycle clock: total cycles
        // executed across all tenants. Deadlines are judged against it,
        // so it only advances when some tenant carries one.
        let mut clock: u64 = 0;
        let mut seq: u64 = 0;
        let mut ready = BinaryHeap::with_capacity(self.tenants.len());
        for idx in 0..self.tenants.len() {
            if self.tenants[idx].ran > 0 {
                ready.push(Ready {
                    key: self.key_for(idx, seq),
                    idx,
                });
                seq += 1;
            }
        }
        stats.ready_peak = ready.len() as u64;
        while let Some(Ready { idx, .. }) = ready.pop() {
            let t = &mut self.tenants[idx];
            if t.first_slice.is_none() {
                t.first_slice = Some(stats.slices);
            }
            if timed {
                clock += t.used[t.slices as usize];
            }
            t.slices += 1;
            stats.slices += 1;
            stats.rounds = stats.rounds.max(t.slices);
            if t.slices == t.ran {
                t.finished_at = clock;
            } else {
                stats.preemptions += 1;
                ready.push(Ready {
                    key: self.key_for(idx, seq),
                    idx,
                });
                seq += 1;
                stats.ready_peak = stats.ready_peak.max(ready.len() as u64);
            }
        }
        let reports: Vec<TenantReport> = self
            .tenants
            .into_iter()
            .map(|t| {
                let Tenant {
                    run: Run::Finished(outcome),
                    deadline,
                    slices,
                    max_overshoot,
                    first_slice,
                    finished_at,
                    ..
                } = t
                else {
                    unreachable!("every tenant ran ahead to completion")
                };
                let Outcome {
                    result,
                    stats,
                    output,
                    dispatch,
                } = outcome;
                let mut outcome = TenantOutcome::of(&result);
                if outcome == TenantOutcome::Done {
                    if let Some(d) = deadline {
                        if finished_at > d {
                            outcome = TenantOutcome::DeadlineMissed;
                        }
                    }
                }
                TenantReport {
                    outcome,
                    result,
                    output,
                    stats,
                    dispatch,
                    slices,
                    max_overshoot,
                    first_slice,
                }
            })
            .collect();
        for r in &reports {
            stats.max_overshoot = stats.max_overshoot.max(r.max_overshoot);
            match r.outcome {
                TenantOutcome::Done => stats.done += 1,
                TenantOutcome::HeapExhausted => stats.heap_exhausted += 1,
                TenantOutcome::Fault => stats.fault += 1,
                TenantOutcome::OutOfFuel => stats.out_of_fuel += 1,
                TenantOutcome::DeadlineMissed => stats.deadline_missed += 1,
            }
        }
        (reports, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AOp, AllocKind, BrOp, CodeBlock, Instr, MachineProgram};
    use crate::vm::{run, Dispatch};
    use std::sync::Arc;

    /// Sums `0..n` in a loop the pre-decoder fuses (`Arith`+`Branch`,
    /// `LoadI`+`Arith`, `Move`+`Jump`).
    fn sum_loop(n: i64) -> MachineProgram {
        let entry = vec![
            Instr::LoadI { d: 1, imm: 0 },
            Instr::LoadI { d: 2, imm: 0 },
            Instr::LoadI { d: 3, imm: n },
            Instr::Jump { label: 1 },
        ];
        let body = vec![
            Instr::Branch {
                op: BrOp::Lt,
                a: 2,
                b: 3,
                target: 6,
            },
            Instr::Arith {
                op: AOp::Add,
                d: 1,
                a: 1,
                b: 2,
            },
            Instr::LoadI { d: 4, imm: 1 },
            Instr::Arith {
                op: AOp::Add,
                d: 2,
                a: 2,
                b: 4,
            },
            Instr::Move { d: 5, s: 1 },
            Instr::Jump { label: 1 },
            Instr::Halt { s: 1 },
        ];
        MachineProgram {
            blocks: vec![
                CodeBlock {
                    name: "entry".into(),
                    instrs: entry,
                },
                CodeBlock {
                    name: "loop".into(),
                    instrs: body,
                },
            ],
            entry: 0,
            pool: Vec::new(),
        }
    }

    /// `sum_loop(n)` that faults after its loop: the final load goes
    /// through the integer sum instead of a pointer.
    fn faults_after(n: i64) -> MachineProgram {
        let mut p = sum_loop(n);
        p.blocks[1].instrs[6] = Instr::Load {
            d: 6,
            base: 1,
            off: 0,
        };
        p.blocks[1].instrs.push(Instr::Halt { s: 6 });
        p
    }

    /// Conses onto one list forever: any heap quota ends it.
    fn retainer() -> MachineProgram {
        let block = |name: &str, instrs| CodeBlock {
            name: name.into(),
            instrs,
        };
        MachineProgram {
            blocks: vec![
                block(
                    "entry",
                    vec![Instr::LoadI { d: 3, imm: 0 }, Instr::Jump { label: 1 }],
                ),
                block(
                    "loop",
                    vec![
                        Instr::Alloc {
                            d: 4,
                            kind: AllocKind::Record,
                            words: vec![3, 3],
                            flts: vec![],
                        },
                        Instr::Move { d: 3, s: 4 },
                        Instr::Jump { label: 1 },
                    ],
                ),
            ],
            entry: 0,
            pool: Vec::new(),
        }
    }

    /// Seven tenants per dispatch engine under `policy`: a met and a
    /// missed deadline, a quantum override, and one tenant each ending
    /// `HeapExhausted`, `OutOfFuel`, `Fault` mid-run and `Fault` at
    /// admission (an out-of-range register).
    fn mixed(policy: SchedPolicy) -> VmScheduler {
        let long = Executable::new(&sum_loop(400));
        let short = Executable::new(&sum_loop(60));
        let retain = Executable::new(&retainer());
        let faulty = Executable::new(&faults_after(90));
        let bad_reg = Executable::new(&MachineProgram {
            blocks: vec![CodeBlock {
                name: "entry".into(),
                instrs: vec![Instr::LoadI { d: 200, imm: 1 }, Instr::Halt { s: 0 }],
            }],
            entry: 0,
            pool: Vec::new(),
        });
        let mut sched = SchedulerBuilder::new()
            .quantum(97)
            .policy(policy)
            .aging_slices(3)
            .build()
            .unwrap();
        for dispatch in [Dispatch::Threaded, Dispatch::Decode] {
            let cfg = VmConfig {
                dispatch,
                ..VmConfig::default()
            };
            let starved = VmConfig {
                nursery_words: 64,
                tenured_words: 256,
                ..cfg
            };
            let fuel = VmConfig {
                max_cycles: 2_000,
                ..cfg
            };
            for spec in [
                TenantSpec::new(long.clone(), &cfg)
                    .priority(1)
                    .deadline_cycles(1_000_000),
                TenantSpec::new(long.clone(), &cfg).deadline_cycles(500),
                TenantSpec::new(short.clone(), &cfg)
                    .priority(3)
                    .quantum_cycles(31),
                TenantSpec::new(retain.clone(), &starved),
                TenantSpec::new(long.clone(), &fuel).priority(2),
                TenantSpec::new(faulty.clone(), &cfg).quantum_cycles(200),
                TenantSpec::new(bad_reg.clone(), &cfg),
            ] {
                sched.admit(spec).unwrap();
            }
        }
        sched
    }

    #[test]
    fn worker_count_cannot_change_a_report() {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::Priority,
            SchedPolicy::Deadline,
        ] {
            let (reports, stats) = mixed(policy).run_all_on(1);
            let outcomes: Vec<_> = reports.iter().map(|r| r.outcome).collect();
            let per_engine = [
                TenantOutcome::Done,
                TenantOutcome::DeadlineMissed,
                TenantOutcome::Done,
                TenantOutcome::HeapExhausted,
                TenantOutcome::OutOfFuel,
                TenantOutcome::Fault,
                TenantOutcome::Fault,
            ];
            assert_eq!(outcomes, [per_engine, per_engine].concat(), "{policy:?}");
            let unscheduled: Vec<usize> = (0..reports.len())
                .filter(|&i| reports[i].first_slice.is_none())
                .collect();
            assert_eq!(unscheduled, [6, 13], "{policy:?}");
            for workers in [2, 3, 64] {
                assert_eq!(
                    mixed(policy).run_all_on(workers),
                    (reports.clone(), stats),
                    "{policy:?} on {workers} workers"
                );
            }
        }
        for workers in [1, 2, 3] {
            let (reports, stats) = SchedulerBuilder::new().build().unwrap().run_all_on(workers);
            assert!(reports.is_empty());
            assert_eq!(
                stats,
                SchedStats {
                    quantum: 10_000,
                    ..SchedStats::default()
                }
            );
        }
    }

    /// The executable tenant `t` was admitted with.
    fn program(t: &Tenant) -> &Executable {
        match &t.run {
            Run::Admitted { program, .. } => program,
            Run::Finished(_) => panic!("tenant already ran"),
        }
    }

    #[test]
    fn thousand_tenants_of_one_program_share_one_stream() {
        let prog = Executable::new(&sum_loop(300));
        let cfg = VmConfig::default();
        let mut sched = SchedulerBuilder::new().quantum(97).build().unwrap();
        for _ in 0..1000 {
            sched.admit(TenantSpec::new(&prog, &cfg)).unwrap();
        }
        assert!(sched
            .tenants
            .iter()
            .all(|t| Arc::ptr_eq(&program(t).0, &prog.0)));
        // One handle per tenant plus `prog`; admission pre-decodes
        // nothing.
        assert_eq!(Arc::strong_count(&prog.0), 1001);
        assert!(prog.0.threaded.get().is_none());

        let (reports, stats) = sched.run_all();
        assert_eq!(stats.done, 1000);
        let stream: *const _ = prog.0.threaded.get().expect("built by the first tenant");
        let solo = prog.run(&cfg);
        assert!(std::ptr::eq(stream, prog.threaded()));
        for r in &reports {
            assert_eq!(r.result, solo.result);
            assert_eq!(r.output, solo.output);
            assert_eq!(r.stats, solo.stats);
            assert_eq!(r.dispatch, solo.dispatch);
        }
    }

    #[test]
    fn distinct_programs_get_their_own_streams() {
        let a = Executable::new(&sum_loop(40));
        // Equal contents, distinct executables: not shared.
        let b = Executable::new(&a);
        let c = Executable::new(&a);
        let cfg = VmConfig::default();
        let fp3 = VmConfig {
            fp3_overhead: true,
            ..cfg
        };
        let decode = VmConfig {
            dispatch: Dispatch::Decode,
            ..cfg
        };
        let mut sched = SchedulerBuilder::new().quantum(97).build().unwrap();
        for (p, k) in [(&a, &cfg), (&b, &cfg), (&a, &cfg), (&b, &cfg), (&a, &fp3)] {
            sched.admit(TenantSpec::new(p, k)).unwrap();
        }
        sched.admit(TenantSpec::new(&c, &decode)).unwrap();

        let (reports, _) = sched.run_all();
        let (sa, sb) = (a.0.threaded.get(), b.0.threaded.get());
        assert!(sa.is_some() && sb.is_some());
        assert!(!std::ptr::eq(sa.unwrap(), sb.unwrap()));
        // A tenant under decode dispatch builds no stream.
        assert!(c.0.threaded.get().is_none());
        assert_eq!(
            reports[5].dispatch,
            DispatchStats {
                engine: Dispatch::Decode,
                ..DispatchStats::default()
            }
        );
        for (r, k) in reports.iter().zip([&cfg, &cfg, &cfg, &cfg, &fp3, &decode]) {
            let solo = run(&a, k);
            assert_eq!(
                (&r.result, &r.output, r.stats),
                (&solo.result, &solo.output, solo.stats)
            );
        }
        // The `fp3` jump term is charged at run time, so one stream
        // serves both configs.
        assert_eq!(reports[4].dispatch, reports[0].dispatch);
        assert!(
            reports[4].stats.cycles > reports[0].stats.cycles,
            "fp3 jumps cost more"
        );
    }
}
