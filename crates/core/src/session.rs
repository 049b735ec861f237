//! Long-lived compilation sessions (the service-shaped entry point).
//!
//! A [`Session`] consolidates the compiler's scattered knobs —
//! [`Variant`], [`Limits`], [`VmConfig`], and
//! [`FaultInject`] — into one validated configuration object built by
//! [`SessionBuilder`], and owns the state worth amortizing across
//! compiles:
//!
//! * a **content-addressed artifact cache** keyed by `(source_hash,
//!   variant, verification mode)`, the three things that change an
//!   artifact — repeat compiles of the same source under the same
//!   variant and mode return the cached [`Compiled`] artifact, sharing
//!   its program, and record a hit (see [`CacheStats`]);
//! * a **deterministic parallel batch driver**,
//!   [`Session::compile_batch`], which fans jobs out over a shared
//!   atomic work queue and reassembles results in input order.
//!
//! Determinism contract: compilation output is a pure function of
//! `(source, variant, configuration)`. Each compile owns its LTY
//! hash-cons table (`sml_lambda::LtyInterner`), so neither earlier
//! compiles nor batch scheduling can reach its types, handles or
//! counters: a parallel batch is byte-identical to the same jobs
//! compiled serially on fresh sessions, in any worker count and job
//! order — the property the scheduling-permutation differential test
//! pins. See `docs/ARCHITECTURE.md`.
//!
//! # Examples
//!
//! ```
//! use smlc::{Session, Variant, VmResult};
//! let session = Session::builder()
//!     .variant(Variant::Ffb)
//!     .cache_capacity(64)
//!     .build()
//!     .unwrap();
//! let a = session.compile("val _ = print (itos 42)").unwrap();
//! let b = session.compile("val _ = print (itos 42)").unwrap();
//! assert!(!a.from_cache && b.from_cache);
//! assert_eq!(session.cache_stats().hits, 1);
//! assert_eq!(session.run(&a).result, VmResult::Value(0));
//! ```

use crate::config::Variant;
use crate::error::{CompileError, ConfigError};
use crate::fxhash::hash_bytes;
use crate::pipeline::{compile_engine, Compiled, Limits, VerifyIr};
use sml_vm::{
    par_map, AdmissionError, FaultInject, Outcome, SchedStats, SchedulerBuilder, TenantReport,
    TenantSpec, VmConfig, VmScheduler,
};
use std::collections::HashMap;
use std::sync::Mutex;

/// The description of one compilation — the single unit of work every
/// compile entry point reduces to.
///
/// [`Session::compile`] and [`Session::compile_variant`] are thin
/// wrappers that build a `Job` and call [`Session::compile_job`];
/// [`Session::compile_batch`] fans a slice of jobs out in parallel. A
/// job can override the session's variant and IR-verification mode;
/// a `None` field inherits the session's value. The effective
/// verification mode is part of the job's cache key, so cached
/// artifacts never leak between differently-verified jobs.
///
/// # Examples
///
/// ```
/// use smlc::{Job, Session, Variant, VerifyIr};
/// let session = Session::default();
/// let job = Job::with_variant("val x = 1 + 2", Variant::Mtd).verify_ir(VerifyIr::Always);
/// let compiled = session.compile_job(&job).unwrap();
/// assert_eq!(compiled.variant, Variant::Mtd);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Job {
    /// The SML source text.
    pub src: String,
    /// Compiler variant; `None` uses the session's default.
    pub variant: Option<Variant>,
    /// IR-verification mode; `None` uses the session's mode.
    pub verify_ir: Option<VerifyIr>,
}

impl Job {
    /// A job compiled under the session's default configuration.
    pub fn new(src: impl Into<String>) -> Job {
        Job {
            src: src.into(),
            ..Job::default()
        }
    }

    /// A job with an explicit variant.
    pub fn with_variant(src: impl Into<String>, variant: Variant) -> Job {
        Job {
            src: src.into(),
            variant: Some(variant),
            ..Job::default()
        }
    }

    /// Overrides the session's variant for this job.
    pub fn variant(mut self, v: Variant) -> Job {
        self.variant = Some(v);
        self
    }

    /// Overrides the session's IR-verification mode for this job.
    pub fn verify_ir(mut self, mode: VerifyIr) -> Job {
        self.verify_ir = Some(mode);
        self
    }
}

/// A snapshot of the artifact cache's counters (all zero and
/// `enabled: false` for a cache-disabled session). These flow into the
/// metrics schema; see `docs/OBSERVABILITY.md`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whether the cache is enabled at all.
    pub enabled: bool,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to compile (including compiles that then
    /// failed — errors are never cached).
    pub misses: u64,
    /// Artifacts evicted to respect the capacity bound.
    pub evictions: u64,
    /// Artifacts stored.
    pub insertions: u64,
    /// Artifacts currently resident.
    pub entries: usize,
    /// Maximum resident artifacts.
    pub capacity: usize,
}

/// Content address of one compilation: source digest + length (the
/// length guards 64-bit digest collisions cheaply; the full source is
/// verified on lookup), the variant, and the IR-verification mode
/// (recorded in the artifact's `stats.verify`). Nothing else changes an
/// artifact: the VM configuration and fault overlay apply at run time,
/// limits only decide whether a compile fails, errors are never cached,
/// and each session owns its cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    src_hash: u64,
    src_len: usize,
    variant: Variant,
    verify: VerifyIr,
}

struct CacheEntry {
    /// Full source text, compared on lookup so a digest collision costs
    /// a recompile instead of returning the wrong artifact.
    src: String,
    artifact: Compiled,
    last_used: u64,
}

struct ArtifactCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, CacheEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl ArtifactCache {
    fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    fn lookup(&mut self, key: &CacheKey, src: &str) -> Option<Compiled> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) if e.src == src => {
                e.last_used = self.tick;
                self.hits += 1;
                // Shares the entry's program: `Compiled::machine` clones
                // as an `Arc`.
                let mut artifact = e.artifact.clone();
                artifact.from_cache = true;
                Some(artifact)
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: CacheKey, src: &str, artifact: &Compiled) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            // Evict the least-recently-used entry. The linear scan is
            // fine at artifact-cache sizes (dozens to hundreds).
            if let Some(&victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.insertions += 1;
        self.map.insert(
            key,
            CacheEntry {
                src: src.to_owned(),
                artifact: artifact.clone(),
                last_used: self.tick,
            },
        );
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            enabled: true,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Builder for [`Session`]; every compilation knob plus the VM surface
/// in one place. `build` validates the whole configuration up front and
/// reports the first bad field as a [`ConfigError`].
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    variant: Variant,
    limits: Limits,
    vm: Option<VmConfig>,
    fault: Option<FaultInject>,
    cache_enabled: bool,
    cache_capacity: usize,
    batch_workers: usize,
    verify: VerifyIr,
}

impl Default for SessionBuilder {
    fn default() -> SessionBuilder {
        SessionBuilder {
            variant: Variant::Ffb,
            limits: Limits::default(),
            vm: None,
            fault: None,
            cache_enabled: true,
            cache_capacity: 256,
            batch_workers: 0,
            verify: VerifyIr::default(),
        }
    }
}

impl SessionBuilder {
    /// Default compiler variant ([`Variant::Ffb`] if never set).
    pub fn variant(mut self, v: Variant) -> SessionBuilder {
        self.variant = v;
        self
    }

    /// Resource budgets (see `docs/ROBUSTNESS.md`).
    pub fn limits(mut self, limits: Limits) -> SessionBuilder {
        self.limits = limits;
        self
    }

    /// Explicit VM configuration for [`Session::run`] /
    /// [`Session::compile_and_run`]. When never set, each run uses its
    /// variant's default VM configuration (so `sml.fp3` keeps its
    /// callee-save overhead).
    pub fn vm_config(mut self, vm: VmConfig) -> SessionBuilder {
        self.vm = Some(vm);
        self
    }

    /// Fault-injection overlay applied to whatever VM configuration a
    /// run uses (explicit or variant-derived).
    pub fn fault_inject(mut self, fault: FaultInject) -> SessionBuilder {
        self.fault = Some(fault);
        self
    }

    /// Enables or disables the artifact cache (enabled by default).
    pub fn cache(mut self, enabled: bool) -> SessionBuilder {
        self.cache_enabled = enabled;
        self
    }

    /// Maximum cached artifacts (default 256); least-recently-used
    /// artifacts are evicted beyond this.
    pub fn cache_capacity(mut self, capacity: usize) -> SessionBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Worker-thread count for [`Session::compile_batch`]; `0` (the
    /// default) uses the machine's available parallelism, `1` degrades
    /// to a serial in-order loop (the differential-testing reference).
    pub fn batch_workers(mut self, workers: usize) -> SessionBuilder {
        self.batch_workers = workers;
        self
    }

    /// When the typed-IR verification pipeline runs (default
    /// [`VerifyIr::Debug`]: active in debug builds, skipped in release
    /// builds). See `docs/VERIFY_IR.md`. The mode is part of every
    /// cache key, so cached artifacts never cross modes.
    pub fn verify_ir(mut self, mode: VerifyIr) -> SessionBuilder {
        self.verify = mode;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the offending field when a knob
    /// is out of range: a zero resource budget, a zero cache capacity
    /// with the cache enabled, a degenerate VM geometry (zero-sized
    /// nursery or semispace, nursery larger than the heap), or a zero
    /// fault-injection threshold (both are 1-based).
    pub fn build(self) -> Result<Session, ConfigError> {
        let nonzero = |field: &'static str| Err(ConfigError::MustBeNonzero { field });
        if self.limits.max_source_bytes == 0 {
            return nonzero("limits.max_source_bytes");
        }
        if self.limits.max_lexp_nodes == 0 {
            return nonzero("limits.max_lexp_nodes");
        }
        if self.limits.max_cps_ops == 0 {
            return nonzero("limits.max_cps_ops");
        }
        if self.cache_enabled && self.cache_capacity == 0 {
            return nonzero("cache_capacity");
        }
        if let Some(vm) = &self.vm {
            if vm.nursery_words == 0 {
                return nonzero("vm.nursery_words");
            }
            if vm.tenured_words == 0 {
                return nonzero("vm.tenured_words");
            }
            if vm.nursery_words > vm.tenured_words {
                return Err(ConfigError::OutOfRange {
                    field: "vm.nursery_words",
                    given: vm.nursery_words as u64,
                    min: 1,
                    max: vm.tenured_words as u64,
                });
            }
            if vm.promote_after == 0 {
                return nonzero("vm.promote_after");
            }
            if vm.max_cycles == 0 {
                return nonzero("vm.max_cycles");
            }
            // 0 means unbounded; a nonzero budget below the fixed
            // per-collection cost could never be met, so reject it.
            if vm.max_pause_cycles != 0 && vm.max_pause_cycles < 256 {
                return Err(ConfigError::OutOfRange {
                    field: "vm.max_pause_cycles",
                    given: vm.max_pause_cycles,
                    min: 256,
                    max: u64::MAX,
                });
            }
        }
        let faults = [self.fault, self.vm.map(|v| v.fault)];
        for fault in faults.into_iter().flatten() {
            if fault.fail_alloc_at == Some(0) {
                return nonzero("fault.fail_alloc_at");
            }
            if fault.gc_every_n_allocs == Some(0) {
                return nonzero("fault.gc_every_n_allocs");
            }
            if fault.yield_every_n_slices == Some(0) {
                return nonzero("fault.yield_every_n_slices");
            }
        }
        Ok(Session {
            variant: self.variant,
            limits: self.limits,
            vm: self.vm,
            fault: self.fault,
            batch_workers: self.batch_workers,
            verify: self.verify,
            cache: self
                .cache_enabled
                .then(|| Mutex::new(ArtifactCache::new(self.cache_capacity))),
        })
    }
}

/// A reusable compilation session; see the module docs. Cheap to share
/// across threads (`&Session` is all [`Session::compile_batch`]'s
/// workers need), expensive state lives behind internal locks.
pub struct Session {
    variant: Variant,
    limits: Limits,
    vm: Option<VmConfig>,
    fault: Option<FaultInject>,
    batch_workers: usize,
    verify: VerifyIr,
    cache: Option<Mutex<ArtifactCache>>,
}

impl Default for Session {
    fn default() -> Session {
        Session::builder()
            .build()
            .expect("default session configuration is valid")
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("variant", &self.variant)
            .field("verify", &self.verify)
            .field("cache", &self.cache_stats())
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// A default session for the given variant (never fails — every
    /// default knob validates).
    pub fn with_variant(variant: Variant) -> Session {
        Session::builder()
            .variant(variant)
            .build()
            .expect("default session configuration is valid")
    }

    /// The session's default variant.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// The resource budgets every compile runs under.
    pub fn limits(&self) -> &Limits {
        &self.limits
    }

    /// The configured batch worker count (`0` = available parallelism);
    /// see [`SessionBuilder::batch_workers`].
    pub fn batch_workers(&self) -> usize {
        self.batch_workers
    }

    /// The configured IR-verification mode; see
    /// [`SessionBuilder::verify_ir`].
    pub fn verify_ir(&self) -> VerifyIr {
        self.verify
    }

    /// The VM configuration a run of `variant` would use: the explicit
    /// [`SessionBuilder::vm_config`] if one was given (otherwise the
    /// variant's default), with the [`SessionBuilder::fault_inject`]
    /// overlay applied.
    pub fn vm_config(&self, variant: Variant) -> VmConfig {
        let mut vm = self.vm.unwrap_or_else(|| variant.vm_config());
        if let Some(fault) = self.fault {
            vm.fault = fault;
        }
        vm
    }

    /// Compiles under the session's default variant, consulting the
    /// artifact cache first. Equivalent to
    /// `compile_job(&Job::new(src))`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] on syntax or type errors, exceeded
    /// budgets, or contained compiler bugs. Errors are never cached: a
    /// failed source recompiles (and re-fails) on every request.
    pub fn compile(&self, src: &str) -> Result<Compiled, CompileError> {
        self.compile_job(&Job::new(src))
    }

    /// Compiles under an explicit variant (same caching and errors as
    /// [`Session::compile`]). Equivalent to
    /// `compile_job(&Job::with_variant(src, variant))`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`]; see [`Session::compile`].
    pub fn compile_variant(&self, src: &str, variant: Variant) -> Result<Compiled, CompileError> {
        self.compile_job(&Job::with_variant(src, variant))
    }

    /// Compiles one [`Job`] — the single entry point every other
    /// compile surface reduces to. Applies the job's variant and
    /// verification overrides and consults the artifact cache under
    /// the effective ones, so differently-verified jobs never collide
    /// and two jobs with equal effective settings share entries. A
    /// miss runs the pipeline and caches its artifact.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`]; see [`Session::compile`].
    pub fn compile_job(&self, job: &Job) -> Result<Compiled, CompileError> {
        let src = job.src.as_str();
        let key = self.key_of(job);
        if let Some(cache) = &self.cache {
            let hit = cache
                .lock()
                .expect("artifact cache poisoned")
                .lookup(&key, src);
            if let Some(artifact) = hit {
                return Ok(artifact);
            }
        }
        let artifact = compile_engine(src, key.variant, &self.limits, key.verify)?;
        if let Some(cache) = &self.cache {
            cache
                .lock()
                .expect("artifact cache poisoned")
                .insert(key, src, &artifact);
        }
        Ok(artifact)
    }

    /// Runs a compiled program under the session's VM configuration
    /// (see [`Session::vm_config`]) — this is how heap ceilings and
    /// fault injection configured on the session reach the VM.
    pub fn run(&self, compiled: &Compiled) -> Outcome {
        compiled.run_with(&self.vm_config(compiled.variant))
    }

    /// Compiles and runs in one call, honoring the session's VM
    /// configuration — heap sizing and fault injection configured on
    /// the builder reach the run.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`]; see [`Session::compile`].
    pub fn compile_and_run(&self, src: &str) -> Result<Outcome, CompileError> {
        Ok(self.run(&self.compile(src)?))
    }

    /// Runs a set of tenants to completion under a default
    /// (round-robin, uncapped) scheduler — the multi-tenant mirror of
    /// [`Session::compile_job`]: one entry point taking declarative
    /// [`TenantSpec`]s. Reports are indexed by spec order.
    ///
    /// # Errors
    ///
    /// Returns the first [`AdmissionError`] if a spec's heap/fuel
    /// quota oversubscribes the machine capacity (never happens with
    /// the default uncapped scheduler).
    pub fn run_tenants(
        &self,
        specs: &[TenantSpec],
    ) -> Result<(Vec<TenantReport>, SchedStats), AdmissionError> {
        let sched = SchedulerBuilder::new()
            .build()
            .expect("default scheduler config always validates");
        self.run_tenants_with(sched, specs)
    }

    /// Like [`Session::run_tenants`] but against a caller-configured
    /// scheduler (policy, quantum, capacity — see
    /// [`SchedulerBuilder`]). Admission is all-or-nothing: the first
    /// rejected spec fails the whole call, so a partial tenant set
    /// never runs silently.
    ///
    /// # Errors
    ///
    /// Returns the first [`AdmissionError`] raised by
    /// [`VmScheduler::admit`].
    pub fn run_tenants_with(
        &self,
        mut sched: VmScheduler,
        specs: &[TenantSpec],
    ) -> Result<(Vec<TenantReport>, SchedStats), AdmissionError> {
        for spec in specs {
            sched.admit(spec.clone())?;
        }
        Ok(sched.run_all())
    }

    /// Current artifact-cache counters (all zero, `enabled: false`,
    /// when the cache is off).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            Some(cache) => cache.lock().expect("artifact cache poisoned").stats(),
            None => CacheStats::default(),
        }
    }

    /// Compiles a batch of jobs in parallel, returning results in job
    /// order. Duplicate jobs (same source, variant, and configuration)
    /// are compiled once and served to the remaining indices from the
    /// cache. Workers pull from a shared atomic queue (work stealing by
    /// idleness), and the result vector is byte-identical to a serial
    /// run of the same jobs on fresh sessions regardless of worker
    /// count, scheduling, or submission order (see the module docs'
    /// determinism contract).
    pub fn compile_batch(&self, jobs: &[Job]) -> Vec<Result<Compiled, CompileError>> {
        // Within-batch dedup only makes sense when hits can be served
        // from the cache; without it every job compiles independently.
        let class_of: Vec<usize> = if self.cache.is_some() {
            let mut first: HashMap<CacheKey, usize> = HashMap::new();
            jobs.iter()
                .enumerate()
                .map(|(i, job)| *first.entry(self.key_of(job)).or_insert(i))
                .collect()
        } else {
            (0..jobs.len()).collect()
        };
        let unique: Vec<usize> = class_of
            .iter()
            .enumerate()
            .filter(|&(i, &c)| i == c)
            .map(|(i, _)| i)
            .collect();
        let mut compiled: Vec<Option<Result<Compiled, CompileError>>> =
            par_map(&unique, self.batch_workers, |_, &ji| {
                self.compile_job(&jobs[ji])
            })
            .into_iter()
            .map(Some)
            .collect();
        let mut slot_of: HashMap<usize, usize> =
            unique.iter().enumerate().map(|(s, &ji)| (ji, s)).collect();
        class_of
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if let Some(slot) = slot_of.remove(&i) {
                    compiled[slot].take().expect("each unique slot taken once")
                } else {
                    // A duplicate of job `c`: served from the cache when
                    // the original succeeded (a hit by construction), or
                    // recompiled to reproduce its error.
                    self.compile_job(&jobs[c])
                }
            })
            .collect()
    }

    /// A job's cache key, under its effective variant and
    /// verification mode.
    fn key_of(&self, job: &Job) -> CacheKey {
        CacheKey {
            src_hash: hash_bytes(job.src.as_bytes()),
            src_len: job.src.len(),
            variant: job.variant.unwrap_or(self.variant),
            verify: job.verify_ir.unwrap_or(self.verify),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_degenerate_knobs() {
        let e = Session::builder()
            .limits(Limits {
                max_lexp_nodes: 0,
                ..Limits::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(e.field(), "limits.max_lexp_nodes");
        assert_eq!(
            e,
            ConfigError::MustBeNonzero {
                field: "limits.max_lexp_nodes"
            }
        );
        let e = Session::builder().cache_capacity(0).build().unwrap_err();
        assert_eq!(e.field(), "cache_capacity");
        assert!(Session::builder()
            .cache(false)
            .cache_capacity(0)
            .build()
            .is_ok());
        let e = Session::builder()
            .fault_inject(FaultInject {
                fail_alloc_at: Some(0),
                gc_every_n_allocs: None,
                yield_every_n_slices: None,
            })
            .build()
            .unwrap_err();
        assert_eq!(e.field(), "fault.fail_alloc_at");
        let vm = VmConfig {
            nursery_words: 1024,
            tenured_words: 512,
            ..VmConfig::default()
        };
        let e = Session::builder().vm_config(vm).build().unwrap_err();
        assert_eq!(
            e,
            ConfigError::OutOfRange {
                field: "vm.nursery_words",
                given: 1024,
                min: 1,
                max: 512,
            }
        );
        assert_eq!(e.allowed(), "1..=512");
        let vm = VmConfig {
            promote_after: 0,
            ..VmConfig::default()
        };
        let e = Session::builder().vm_config(vm).build().unwrap_err();
        assert_eq!(e.field(), "vm.promote_after");
    }

    #[test]
    fn builder_validates_pause_budget_and_yield_knobs() {
        // A nonzero budget below the fixed minor-pause floor could never
        // be honored; reject it up front. Zero (unbounded) and anything
        // at or above the floor are fine.
        let vm = VmConfig {
            max_pause_cycles: 100,
            ..VmConfig::default()
        };
        let e = Session::builder().vm_config(vm).build().unwrap_err();
        assert_eq!(
            e,
            ConfigError::OutOfRange {
                field: "vm.max_pause_cycles",
                given: 100,
                min: 256,
                max: u64::MAX,
            }
        );
        for ok in [0, 256, 1200, u64::MAX] {
            let vm = VmConfig {
                max_pause_cycles: ok,
                ..VmConfig::default()
            };
            assert!(
                Session::builder().vm_config(vm).build().is_ok(),
                "budget {ok} wrongly rejected"
            );
        }
        let e = Session::builder()
            .fault_inject(FaultInject {
                fail_alloc_at: None,
                gc_every_n_allocs: None,
                yield_every_n_slices: Some(0),
            })
            .build()
            .unwrap_err();
        assert_eq!(e.field(), "fault.yield_every_n_slices");
        assert!(Session::builder()
            .fault_inject(FaultInject {
                fail_alloc_at: None,
                gc_every_n_allocs: None,
                yield_every_n_slices: Some(1),
            })
            .build()
            .is_ok());
    }

    #[test]
    fn config_error_converts_into_compile_error() {
        let e = Session::builder().cache_capacity(0).build().unwrap_err();
        let ce: CompileError = e.into();
        assert_eq!(ce.kind(), "config");
        assert_eq!(ce.phase(), "config");
        assert!(ce.to_string().contains("cache_capacity"));
    }

    #[test]
    fn verify_ir_mode_is_recorded_and_counted() {
        let session = Session::builder()
            .verify_ir(VerifyIr::Always)
            .build()
            .unwrap();
        assert_eq!(session.verify_ir(), VerifyIr::Always);
        let c = session.compile("val _ = print (itos 42)").unwrap();
        assert_eq!(c.stats.verify.mode, VerifyIr::Always);
        assert_eq!(c.stats.verify.lexp_checks, 1);
        assert_eq!(c.stats.verify.bytecode_checks, 1);
        // Post-convert + at least one optimizer pass + closed program.
        assert!(c.stats.verify.cps_checks >= 3);

        let off = Session::builder().verify_ir(VerifyIr::Off).build().unwrap();
        let c_off = off.compile("val _ = print (itos 42)").unwrap();
        assert_eq!(c_off.stats.verify.total_checks(), 0);
        // Verification never rewrites: identical code either way.
        assert_eq!(format!("{}", c.machine), format!("{}", c_off.machine));
    }
}
