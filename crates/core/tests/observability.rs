//! Integration tests for the observability layer: the JSON schema is
//! pinned by a golden test, cross-checked against `docs/OBSERVABILITY.md`,
//! and the hash-cons counters are validated on a polymorphic program.

use std::collections::BTreeSet;

use smlc::{CompileError, Compiled, Json, Metrics, Session, Variant, METRICS_SCHEMA_VERSION};

/// Compiles through a fresh single-variant session. The LTY counters
/// asserted below are per-compile by construction: each compile counts
/// its own LTY table.
fn compile(src: &str, v: Variant) -> Result<Compiled, CompileError> {
    Session::with_variant(v).compile(src)
}

/// Every object key reachable in `j`, recursively.
fn collect_keys(j: &Json, out: &mut BTreeSet<String>) {
    match j {
        Json::Obj(fields) => {
            for (k, v) in fields {
                out.insert(k.clone());
                collect_keys(v, out);
            }
        }
        Json::Arr(items) => {
            for item in items {
                collect_keys(item, out);
            }
        }
        _ => {}
    }
}

/// A default (zeroed, run present) `Metrics` serializes the complete
/// schema; every key it emits must be documented in
/// `docs/OBSERVABILITY.md`.
#[test]
fn metrics_doc_cross_check() {
    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let mut keys = BTreeSet::new();
    collect_keys(&Metrics::default().to_json(), &mut keys);
    assert!(
        keys.len() > 40,
        "schema lost fields: only {} keys",
        keys.len()
    );
    let missing: Vec<&String> = keys
        .iter()
        .filter(|k| {
            // A key counts as documented when it appears backticked, as
            // a dotted path (`sizes.lexp`), or quoted in the worked
            // example.
            !(doc.contains(&format!("`{k}`"))
                || doc.contains(&format!(".{k}`"))
                || doc.contains(&format!("\"{k}\"")))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "keys undocumented in docs/OBSERVABILITY.md: {missing:?}"
    );
}

/// Golden test: the exact serialized form of a zeroed metrics document.
/// A change here is a schema change — update `docs/OBSERVABILITY.md` and
/// bump `METRICS_SCHEMA_VERSION` if a field was renamed, removed, or
/// changed meaning.
#[test]
fn golden_default_metrics_document() {
    assert_eq!(METRICS_SCHEMA_VERSION, 5);
    let compact = Metrics::default().to_json().to_string_compact();
    let expected = concat!(
        "{\"schema_version\":5,\"variant\":\"sml.nrp\",",
        "\"compile\":{\"total_ms\":0.0,\"phases\":[],",
        "\"sizes\":{\"lexp\":0,\"cps_before\":0,\"cps_after\":0,\"code\":0},",
        "\"lty\":{\"interned\":0,\"intern_calls\":0,\"hashcons_hits\":0,",
        "\"hashcons_misses\":0,\"deep_compares\":0,\"hit_rate\":0.0},",
        "\"coerce\":{\"requests\":0,\"identities\":0,\"wraps\":0,",
        "\"fn_wrappers\":0,\"record_rebuilds\":0,\"memo_hits\":0},",
        "\"opt\":{\"rounds\":0,\"wrap_cancelled\":0,\"record_copies\":0,",
        "\"beta\":0,\"inlined\":0,\"dead\":0},",
        "\"verify\":{\"mode\":\"debug\",\"lexp_checks\":0,\"cps_checks\":0,",
        "\"bytecode_checks\":0,\"ms\":0.0},\"warnings\":0},",
        "\"run\":{\"result\":\"value\",\"cycles\":0,\"instrs\":0,",
        "\"alloc_words\":0,\"n_allocs\":0,",
        "\"gc\":{\"collections\":0,\"copied_words\":0,\"cycles\":0,\"minor_collections\":0,\"major_collections\":0,\"promoted_words\":0,\"remembered_set_peak\":0,\"minor_cycles\":0,\"major_cycles\":0,\"max_minor_pause_cycles\":0,\"max_major_pause_cycles\":0,\"major_slices\":0,\"barrier_words\":0,\"pause_overruns\":0,\"pause_hist_minor\":[0,0,0,0,0,0,0,0],\"pause_hist_major\":[0,0,0,0,0,0,0,0]},",
        "\"cycles_by_class\":{\"move\":0,\"int-arith\":0,\"float-arith\":0,",
        "\"memory\":0,\"alloc\":0,\"branch\":0,\"jump\":0,\"runtime\":0,",
        "\"control\":0,\"gc\":0},",
        "\"instrs_by_class\":{\"move\":0,\"int-arith\":0,\"float-arith\":0,",
        "\"memory\":0,\"alloc\":0,\"branch\":0,\"jump\":0,\"runtime\":0,",
        "\"control\":0,\"gc\":0}},",
        "\"dispatch\":{\"engine\":\"threaded\",\"superinstructions\":0,",
        "\"stream_len\":0},",
        "\"cache\":{\"enabled\":false,\"hits\":0,\"misses\":0,",
        "\"evictions\":0,\"insertions\":0,\"entries\":0,\"capacity\":0},",
        "\"arena\":null,",
        "\"sched\":{\"policy\":\"round-robin\",\"quantum\":0,\"tenants\":0,",
        "\"rejected\":0,\"rounds\":0,\"slices\":0,",
        "\"preemptions\":0,\"max_overshoot\":0,\"ready_peak\":0,\"done\":0,",
        "\"heap_exhausted\":0,\"fault\":0,\"out_of_fuel\":0,",
        "\"deadline_missed\":0},",
        "\"components\":{\"enabled\":false,\"scc_count\":0,\"recompiled\":0,",
        "\"cache_hits\":0,\"topo_depth\":0},",
        "\"server\":{\"jobs\":0,\"clients\":0,\"queue_depth_peak\":0,",
        "\"capped_runs\":0,\"overloaded\":0}}"
    );
    assert_eq!(compact, expected);
}

const POLY: &str = "
    fun id x = x
    fun pair x y = (x, y)
    val a = id 1
    val b = id 2.0
    val c = id \"three\"
    val d = pair (id a) (id b)
    val _ = print (itos (id (#1 d)))
";

/// Hash-cons counters on a polymorphic program: hits are nonzero
/// (instantiations re-intern the same types), hits and misses partition
/// the intern calls, and the number of distinct types equals the misses.
#[test]
fn hashcons_hits_nonzero_and_partition_calls() {
    let c = compile(POLY, Variant::Ffb).unwrap();
    let lty = c.stats.lty;
    assert!(
        lty.hashcons_hits > 0,
        "no hash-cons hits on a polymorphic program"
    );
    assert!(lty.hashcons_misses > 0);
    assert_eq!(lty.hashcons_hits + lty.hashcons_misses, lty.intern_calls);
    assert_eq!(lty.interned as u64, lty.hashcons_misses);
    assert_eq!(lty.deep_compares, 0, "hash-cons mode must not deep-compare");
    let rate = lty.hit_rate();
    assert!(rate > 0.0 && rate < 1.0, "hit rate {rate} out of range");
}

/// More polymorphic instantiations can only add hash-cons hits:
/// appending re-uses of `id` to a program strictly increases hits and
/// never decreases the hit rate.
#[test]
fn hashcons_hits_monotone_in_instantiations() {
    let more = format!("{POLY} val e = id 4  val f = id 5.0  val g = id (id \"h\")");
    let small = compile(POLY, Variant::Ffb).unwrap().stats.lty;
    let big = compile(&more, Variant::Ffb).unwrap().stats.lty;
    assert!(
        big.hashcons_hits > small.hashcons_hits,
        "extra instantiations did not add hits: {} vs {}",
        big.hashcons_hits,
        small.hashcons_hits
    );
    assert!(big.hit_rate() >= small.hit_rate());
}

/// The CLI schema and the library schema are the same object: spot-check
/// a real compile+run document for structural invariants.
#[test]
fn run_document_invariants() {
    let c = compile(POLY, Variant::Fp3).unwrap();
    let o = c.run();
    let m = Metrics::of_run(&c, &o);
    let s = &m.run.as_ref().unwrap().stats;
    assert_eq!(s.cycles_by_class.iter().sum::<u64>(), s.cycles);
    assert_eq!(s.instrs_by_class.iter().sum::<u64>(), s.instrs);
    let json = m.to_json().to_string_compact();
    assert!(json.contains("\"variant\":\"sml.fp3\""));
    assert!(json.contains("\"result\":\"value\""));
}
