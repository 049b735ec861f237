//! Structured pipeline observability: one [`Metrics`] value captures a
//! whole compile (and optionally a run) as machine-readable data.
//!
//! This is the layer behind `smlc run --stats=json` and the bench
//! harness's `BENCH_*.json` trajectory files: every per-phase
//! wall-clock span, LTY hash-cons hit/miss count, coercion-memo hit,
//! optimizer rewrite count, and VM runtime counter (allocation, Cheney
//! collections, cycle breakdown by instruction class) flows through
//! here. The JSON schema is documented field-by-field in
//! `docs/OBSERVABILITY.md`; a golden test pins the serialized shape.

use crate::json::Json;
use crate::pipeline::{CompileStats, Compiled};
use crate::server::ServerStats;
use crate::session::CacheStats;
use sml_vm::{DispatchStats, InstrClass, Outcome, RunStats, SchedStats, VmResult};

/// Version stamped into every emitted document as `schema_version`;
/// bump when a field is renamed, removed, or changes meaning (pure
/// additions keep the version).
///
/// Version history: **1** — initial schema. **2** — `compile.lty`
/// counters became strictly per-compile (a warm session no longer
/// reports `interned` as the shared-table total, so `interned ==
/// hashcons_misses` now holds for every compile, not just a session's
/// first) and the top-level `arena` object (shared LTY arena totals)
/// was added. Still 2 after the bounded-pause GC work: the `gc` pause
/// histograms/slice counters and the top-level `sched` object are pure
/// additions. **3** — the top-level `components` object
/// (SCC-incremental elaboration counters, always present; since
/// elaboration became whole-program again it always reads
/// `enabled: false` with zero counters) and the
/// top-level `server` object (compile-server counters, `null` outside
/// `smlc serve`) were added; bumped because `components` changes what
/// a "complete" document looks like for schema-checking consumers.
/// **4** — the top-level `dispatch` object (execution engine, fused
/// superinstruction count, pre-decoded stream length; `null` for
/// compile-only documents) was added, and `run` counters can now
/// reflect the floor-semantics div/mod (a `"fault"` result where
/// division by zero previously produced a value); bumped because the
/// arithmetic-semantics change alters the meaning of existing runs.
/// **5** — the `sched` object grew the policy-driven scheduler's
/// counters (`policy`, `rejected`, `ready_peak`, `deadline_missed`)
/// and two fields changed meaning: `rounds` is now the maximum slices
/// any one tenant consumed (identical for round-robin, defined for
/// every policy) and `max_overshoot` is measured against each
/// tenant's *own* quantum (identical when all tenants share the
/// global quantum); bumped for those redefinitions. Still 5 now that
/// each compile owns its LTY table: the `arena` object it once filled
/// with the session's shared-table totals is always `null`, which v5
/// already allowed.
pub const METRICS_SCHEMA_VERSION: u64 = 5;

/// A structured snapshot of one compilation and (optionally) one run.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// The paper's name for the compiler variant (`sml.nrp` … `sml.fp3`).
    pub variant: String,
    /// Compile-side statistics: phase spans, IR sizes, hash-consing,
    /// coercions, optimizer rewrites.
    pub compile: CompileStats,
    /// Run-side counters, when the program was executed.
    pub run: Option<RunMetrics>,
    /// Which execution engine ran the program and its pre-decode facts
    /// (fused superinstruction count, threaded stream length), when the
    /// program was executed; `None` serializes as `"dispatch": null`.
    pub dispatch: Option<DispatchStats>,
    /// Session artifact-cache counters, when the compile went through a
    /// session whose counters were captured (see
    /// `Session::cache_stats`); `None` serializes as `"cache": null`.
    pub cache: Option<CacheStats>,
    /// Multi-tenant scheduler fairness counters, when the run went
    /// through a `VmScheduler` (see `smlc run --tenants`); `None`
    /// serializes as `"sched": null`.
    pub sched: Option<SchedStats>,
    /// Compile-server counters, when the compile was served by `smlc
    /// serve` (see `docs/SERVER.md`); `None` serializes as
    /// `"server": null`.
    pub server: Option<ServerStats>,
}

/// Run-side portion of a [`Metrics`] snapshot.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// How the run ended: `"value"`, `"uncaught"`, `"out-of-fuel"`,
    /// `"heap-exhausted"`, or `"fault"`.
    pub result: &'static str,
    /// The VM's performance counters.
    pub stats: RunStats,
}

impl Default for Metrics {
    /// A zeroed snapshot with the run side present — it serializes every
    /// field of the schema, which is what the documentation cross-check
    /// and golden tests want.
    fn default() -> Metrics {
        Metrics {
            variant: "sml.nrp".to_owned(),
            compile: CompileStats::default(),
            run: Some(RunMetrics {
                result: "value",
                stats: RunStats::default(),
            }),
            dispatch: Some(DispatchStats::default()),
            cache: Some(CacheStats::default()),
            sched: Some(SchedStats::default()),
            server: Some(ServerStats::default()),
        }
    }
}

/// The stable tag for a [`VmResult`] in metrics output.
pub fn result_tag(r: &VmResult) -> &'static str {
    match r {
        VmResult::Value(_) => "value",
        VmResult::Uncaught(_) => "uncaught",
        VmResult::OutOfFuel => "out-of-fuel",
        VmResult::HeapExhausted => "heap-exhausted",
        VmResult::Fault(_) => "fault",
    }
}

/// Renders a compile failure as a metrics-schema document: same
/// `schema_version`/`variant` envelope as a successful run, with an
/// `error` object instead of `compile`/`run` payloads, so `--stats=json`
/// consumers see structured output on every path.
pub fn error_json(variant: crate::Variant, e: &crate::CompileError) -> Json {
    let mut err = Json::obj()
        .field("kind", e.kind())
        .field("phase", e.phase())
        .field("message", e.to_string());
    if let crate::CompileError::Config(c) = e {
        err = err
            .field("field", c.field())
            .field("given", c.given())
            .field("allowed", c.allowed());
    }
    err = match e.violation() {
        Some(v) => err.field(
            "violation",
            Json::obj()
                .field("stage", v.stage)
                .field(
                    "pass",
                    v.pass.map(|p| Json::Int(p.into())).unwrap_or(Json::Null),
                )
                .field("rule", v.rule)
                .field("detail", v.detail.as_str()),
        ),
        None => err.field("violation", Json::Null),
    };
    Json::obj()
        .field("schema_version", METRICS_SCHEMA_VERSION)
        .field("variant", variant.name())
        .field("error", err)
        .field("compile", Json::Null)
        .field("run", Json::Null)
        .field("dispatch", Json::Null)
        .field("cache", Json::Null)
        .field("arena", Json::Null)
        .field("sched", Json::Null)
        .field("components", Json::Null)
        .field("server", Json::Null)
}

impl Metrics {
    /// Captures a compile without a run.
    pub fn of_compile(c: &Compiled) -> Metrics {
        Metrics {
            variant: c.variant.name().to_owned(),
            compile: c.stats.clone(),
            run: None,
            dispatch: None,
            cache: None,
            sched: None,
            server: None,
        }
    }

    /// Captures a compile plus the outcome of running it.
    pub fn of_run(c: &Compiled, o: &Outcome) -> Metrics {
        Metrics {
            variant: c.variant.name().to_owned(),
            compile: c.stats.clone(),
            run: Some(RunMetrics {
                result: result_tag(&o.result),
                stats: o.stats,
            }),
            dispatch: Some(o.dispatch),
            cache: None,
            sched: None,
            server: None,
        }
    }

    /// Attaches a session's artifact-cache counters to the snapshot.
    pub fn with_cache(mut self, stats: CacheStats) -> Metrics {
        self.cache = Some(stats);
        self
    }

    /// Attaches multi-tenant scheduler counters to the snapshot (from
    /// `VmScheduler::run_all`).
    pub fn with_sched(mut self, stats: SchedStats) -> Metrics {
        self.sched = Some(stats);
        self
    }

    /// Attaches compile-server counters to the snapshot (from
    /// `CompileServer::stats`).
    pub fn with_server(mut self, stats: ServerStats) -> Metrics {
        self.server = Some(stats);
        self
    }

    /// Renders the snapshot as a JSON document (see
    /// `docs/OBSERVABILITY.md` for the schema).
    pub fn to_json(&self) -> Json {
        let mut doc = Json::obj()
            .field("schema_version", METRICS_SCHEMA_VERSION)
            .field("variant", self.variant.as_str())
            .field("compile", compile_json(&self.compile));
        doc = match &self.run {
            Some(run) => doc.field("run", run_json(run)),
            None => doc.field("run", Json::Null),
        };
        doc = match &self.dispatch {
            Some(dispatch) => doc.field("dispatch", dispatch_json(dispatch)),
            None => doc.field("dispatch", Json::Null),
        };
        doc = match &self.cache {
            Some(cache) => doc.field("cache", cache_json(cache)),
            None => doc.field("cache", Json::Null),
        };
        // Kept for v5 readers; no session-wide LTY table exists.
        doc = doc.field("arena", Json::Null);
        doc = match &self.sched {
            Some(sched) => doc.field("sched", sched_json(sched)),
            None => doc.field("sched", Json::Null),
        };
        // Always present (unlike the optional session attachments) and
        // always `enabled: false` with zero counters: elaboration is
        // whole-program, and the object stays for v5 readers.
        doc = doc.field("components", components_json(&self.compile.components));
        doc = match &self.server {
            Some(server) => doc.field("server", server.to_json()),
            None => doc.field("server", Json::Null),
        };
        doc
    }
}

/// The `components` object, shared by metrics documents and server
/// compile responses.
pub(crate) fn components_json(c: &crate::component::ComponentStats) -> Json {
    Json::obj()
        .field("enabled", c.enabled)
        .field("scc_count", c.scc_count)
        .field("recompiled", c.recompiled)
        .field("cache_hits", c.cache_hits)
        .field("topo_depth", c.topo_depth)
}

fn cache_json(c: &CacheStats) -> Json {
    Json::obj()
        .field("enabled", c.enabled)
        .field("hits", c.hits)
        .field("misses", c.misses)
        .field("evictions", c.evictions)
        .field("insertions", c.insertions)
        .field("entries", c.entries)
        .field("capacity", c.capacity)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn compile_json(s: &CompileStats) -> Json {
    let phases: Vec<Json> = s
        .phase_times
        .iter()
        .map(|(name, d)| Json::obj().field("name", *name).field("ms", ms(*d)))
        .collect();
    let lty = Json::obj()
        .field("interned", s.lty.interned)
        .field("intern_calls", s.lty.intern_calls)
        .field("hashcons_hits", s.lty.hashcons_hits)
        .field("hashcons_misses", s.lty.hashcons_misses)
        .field("deep_compares", s.lty.deep_compares)
        .field("hit_rate", s.lty.hit_rate());
    Json::obj()
        .field("total_ms", ms(s.compile_time))
        .field("phases", Json::Arr(phases))
        .field(
            "sizes",
            Json::obj()
                .field("lexp", s.lexp_size)
                .field("cps_before", s.cps_size_before)
                .field("cps_after", s.cps_size_after)
                .field("code", s.code_size),
        )
        .field("lty", lty)
        .field("coerce", counters_json(&s.coerce.counters()))
        .field("opt", counters_json(&s.opt.rules()))
        .field(
            "verify",
            Json::obj()
                .field("mode", s.verify.mode.as_str())
                .field("lexp_checks", s.verify.lexp_checks)
                .field("cps_checks", s.verify.cps_checks)
                .field("bytecode_checks", s.verify.bytecode_checks)
                .field("ms", ms(s.verify.time)),
        )
        .field("warnings", s.warnings.len())
}

fn counters_json(counters: &[(&'static str, u64)]) -> Json {
    let mut obj = Json::obj();
    for (name, value) in counters {
        obj = obj.field(name, *value);
    }
    obj
}

fn run_json(r: &RunMetrics) -> Json {
    let s = &r.stats;
    Json::obj()
        .field("result", r.result)
        .field("cycles", s.cycles)
        .field("instrs", s.instrs)
        .field("alloc_words", s.alloc_words)
        .field("n_allocs", s.n_allocs)
        .field(
            "gc",
            Json::obj()
                .field("collections", s.n_gcs)
                .field("copied_words", s.gc_copied_words)
                .field("cycles", s.gc_cycles)
                .field("minor_collections", s.n_minor_gcs)
                .field("major_collections", s.n_major_gcs)
                .field("promoted_words", s.promoted_words)
                .field("remembered_set_peak", s.remembered_peak)
                .field("minor_cycles", s.minor_gc_cycles)
                .field("major_cycles", s.major_gc_cycles)
                .field("max_minor_pause_cycles", s.max_minor_pause)
                .field("max_major_pause_cycles", s.max_major_pause)
                .field("major_slices", s.major_slices)
                .field("barrier_words", s.barrier_words)
                .field("pause_overruns", s.pause_overruns)
                .field("pause_hist_minor", hist_json(&s.pause_hist_minor))
                .field("pause_hist_major", hist_json(&s.pause_hist_major)),
        )
        .field("cycles_by_class", by_class_json(&s.cycles_by_class))
        .field("instrs_by_class", by_class_json(&s.instrs_by_class))
}

fn dispatch_json(d: &DispatchStats) -> Json {
    Json::obj()
        .field("engine", d.engine.name())
        .field("superinstructions", d.superinstructions)
        .field("stream_len", d.stream_len)
}

fn hist_json(hist: &[u64; sml_vm::N_PAUSE_BUCKETS]) -> Json {
    Json::Arr(hist.iter().map(|&c| Json::from(c)).collect())
}

fn sched_json(s: &SchedStats) -> Json {
    Json::obj()
        .field("policy", s.policy.name())
        .field("quantum", s.quantum)
        .field("tenants", s.tenants)
        .field("rejected", s.rejected)
        .field("rounds", s.rounds)
        .field("slices", s.slices)
        .field("preemptions", s.preemptions)
        .field("max_overshoot", s.max_overshoot)
        .field("ready_peak", s.ready_peak)
        .field("done", s.done)
        .field("heap_exhausted", s.heap_exhausted)
        .field("fault", s.fault)
        .field("out_of_fuel", s.out_of_fuel)
        .field("deadline_missed", s.deadline_missed)
}

fn by_class_json(counts: &[u64; sml_vm::N_INSTR_CLASSES]) -> Json {
    let mut obj = Json::obj();
    for class in InstrClass::all() {
        obj = obj.field(class.name(), counts[class as usize]);
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_breakdown_covers_every_class() {
        let m = Metrics::default();
        let json = m.to_json().to_string_compact();
        for class in InstrClass::all() {
            assert!(
                json.contains(&format!("\"{}\":", class.name())),
                "class {} missing from {json}",
                class.name()
            );
        }
    }

    #[test]
    fn compile_only_has_null_run() {
        let m = Metrics {
            run: None,
            ..Metrics::default()
        };
        assert!(m.to_json().to_string_compact().contains("\"run\":null"));
    }
}
