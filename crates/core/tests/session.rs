//! Integration tests for the session API: artifact-cache correctness
//! (a hit is byte-identical to a forced recompile, including under
//! fault injection), reused-session determinism (what a session compiled
//! before never changes generated code or counters), LRU eviction
//! accounting, batch dedup, VM-configuration routing, and builder
//! validation.

use smlc::{
    CompileError, Compiled, FaultInject, Job, MachineProgram, Session, Variant, VerifyIr, VmConfig,
    VmResult,
};

const PROGRAM: &str = r#"
    fun sq (x : real) = x * x
    fun lp (i, acc) = if i = 0 then acc else lp (i - 1, acc + sq (real i))
    val _ = print (rtos (lp (50, 0.0)))
"#;

const WARMUP: &str = r#"
    fun id x = x
    val p = (id 1, id 2.0, id "three")
    val _ = print (itos (#1 p))
"#;

const ALLOCATOR: &str = r#"
    fun build 0 = nil | build n = (n, real n) :: build (n - 1)
    fun len nil = 0 | len (_ :: r) = 1 + len r
    val _ = print (itos (len (build 2000)))
"#;

/// The machine program rendered to a canonical byte string; two
/// compilations are "byte-identical" when these agree.
fn code_bytes(c: &Compiled) -> String {
    format!("{:?}", c.machine)
}

#[test]
fn cache_hit_is_byte_identical_to_forced_recompile() {
    let session = Session::with_variant(Variant::Ffb);
    let first = session.compile(PROGRAM).expect("compiles");
    assert!(!first.from_cache, "first compile cannot be a hit");
    let hit = session.compile(PROGRAM).expect("compiles");
    assert!(hit.from_cache, "second identical compile must hit");

    // Forced recompile: a cache-disabled session with the same
    // configuration.
    let forced = Session::builder()
        .variant(Variant::Ffb)
        .cache(false)
        .build()
        .expect("valid")
        .compile(PROGRAM)
        .expect("compiles");
    assert!(!forced.from_cache);

    assert_eq!(code_bytes(&hit), code_bytes(&first));
    assert_eq!(code_bytes(&hit), code_bytes(&forced));
    assert_eq!(hit.stats.code_size, forced.stats.code_size);
    assert_eq!(hit.stats.lty, forced.stats.lty);
    assert_eq!(session.run(&hit).output, session.run(&forced).output);

    let stats = session.cache_stats();
    assert!(stats.enabled);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.misses, 1);
}

#[test]
fn cache_hit_shares_the_first_compiles_program() {
    let session = Session::with_variant(Variant::Ffb);
    let first = session.compile(PROGRAM).expect("compiles");
    let hit = session.compile(PROGRAM).expect("compiles");
    assert!(hit.from_cache);
    assert!(std::ptr::eq::<MachineProgram>(
        &*hit.machine,
        &*first.machine
    ));
    // A recompile without the cache builds a program of its own.
    let recompiled = Session::builder()
        .cache(false)
        .build()
        .expect("valid")
        .compile(PROGRAM)
        .expect("compiles");
    assert!(!std::ptr::eq::<MachineProgram>(
        &*recompiled.machine,
        &*first.machine
    ));
    assert_eq!(code_bytes(&recompiled), code_bytes(&first));
}

#[test]
fn verification_override_is_part_of_the_cache_key() {
    let session = Session::builder()
        .verify_ir(VerifyIr::Off)
        .build()
        .expect("valid");
    let plain = session.compile(PROGRAM).expect("compiles");
    assert_eq!(plain.stats.verify.total_checks(), 0);
    // An override that differs from the session's mode misses and
    // verifies.
    let verified = session
        .compile_job(&Job::new(PROGRAM).verify_ir(VerifyIr::Always))
        .expect("compiles");
    assert!(!verified.from_cache);
    assert_eq!(verified.stats.verify.mode, VerifyIr::Always);
    assert_eq!(verified.stats.verify.bytecode_checks, 1);
    assert_eq!(code_bytes(&verified), code_bytes(&plain));
    // One equal to the session's mode hits the session's artifact.
    let hit = session
        .compile_job(&Job::new(PROGRAM).verify_ir(VerifyIr::Off))
        .expect("compiles");
    assert!(hit.from_cache);
    assert_eq!(hit.stats.verify.mode, VerifyIr::Off);
    assert!(std::ptr::eq::<MachineProgram>(
        &*hit.machine,
        &*plain.machine
    ));
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 2));
}

#[test]
fn cache_correct_under_fault_injection_config() {
    // A session whose VM config carries fault injection: the fault knobs
    // reach every run, while the artifact does not depend on them.
    let fault = FaultInject {
        fail_alloc_at: None,
        gc_every_n_allocs: Some(7),
        yield_every_n_slices: None,
    };
    let build = || {
        Session::builder()
            .variant(Variant::Ffb)
            .fault_inject(fault)
            .build()
            .expect("valid")
    };
    let session = build();
    let first = session.compile(ALLOCATOR).expect("compiles");
    let hit = session.compile(ALLOCATOR).expect("compiles");
    assert!(hit.from_cache);
    assert_eq!(code_bytes(&hit), code_bytes(&first));
    let forced = build();
    let recompiled = forced.compile(ALLOCATOR).expect("compiles");
    assert!(!recompiled.from_cache);
    assert_eq!(code_bytes(&hit), code_bytes(&recompiled));

    // Both artifacts run under the injected-GC schedule and agree.
    let (a, b) = (session.run(&hit), forced.run(&recompiled));
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats.n_gcs, b.stats.n_gcs);
    assert!(
        a.stats.n_gcs > 0,
        "gc_every_n_allocs must force collections"
    );

    // Another session has a cache of its own: same source, fault-free
    // config, still compiles cleanly.
    let plain = Session::with_variant(Variant::Ffb);
    let c = plain.compile(ALLOCATOR).expect("compiles");
    assert!(!c.from_cache);
    assert!(plain.run(&c).stats.n_gcs < a.stats.n_gcs);
}

#[test]
fn reused_session_compiles_byte_identical_to_fresh() {
    // Use the reused session on a *different* program first, so the
    // target compile is a cache miss that follows another compile
    // rather than an artifact-cache hit.
    let reused = Session::with_variant(Variant::Ffb);
    reused.compile(WARMUP).expect("warmup compiles");
    let warm = reused.compile(PROGRAM).expect("compiles");
    assert!(!warm.from_cache, "distinct source must miss the cache");

    let fresh = Session::with_variant(Variant::Ffb);
    let cold = fresh.compile(PROGRAM).expect("compiles");

    assert_eq!(
        code_bytes(&warm),
        code_bytes(&cold),
        "an earlier compile must not change generated code"
    );
    assert_eq!(warm.stats.code_size, cold.stats.code_size);
    assert_eq!(reused.run(&warm).output, fresh.run(&cold).output);

    // Each compile counts its own LTY table, so the reused session's
    // statistics are *exactly* the fresh session's. Pinning equality
    // (not `<=`) is the regression guard for per-compile accounting.
    assert_eq!(
        warm.stats.lty, cold.stats.lty,
        "per-compile LTY stats must not depend on earlier compiles"
    );
}

#[test]
fn warm_parallel_batch_is_byte_identical_to_serial_cold() {
    // The core determinism promise: a parallel batch over many distinct
    // programs, run twice on one session, produces byte-identical
    // machine code to compiling each program in its own fresh session.
    let srcs = [PROGRAM, WARMUP, ALLOCATOR];
    let jobs: Vec<Job> = srcs.iter().map(|s| Job::new((*s).to_owned())).collect();

    let reference: Vec<String> = srcs
        .iter()
        .map(|s| {
            let c = Session::with_variant(Variant::Ffb).compile(s).unwrap();
            code_bytes(&c)
        })
        .collect();

    for workers in [1, 2, 8] {
        let session = Session::builder()
            .variant(Variant::Ffb)
            .batch_workers(workers)
            .cache(false)
            .build()
            .expect("valid");
        // Two consecutive batches on one session.
        for round in 0..2 {
            let results = session.compile_batch(&jobs);
            for (i, r) in results.iter().enumerate() {
                let c = r.as_ref().expect("compiles");
                assert_eq!(
                    code_bytes(c),
                    reference[i],
                    "workers={workers} round={round} job={i}"
                );
            }
        }
    }
}

#[test]
fn lru_eviction_respects_capacity() {
    let session = Session::builder()
        .variant(Variant::Ffb)
        .cache_capacity(2)
        .build()
        .expect("valid");
    let srcs = [
        "val _ = print (itos 1)",
        "val _ = print (itos 2)",
        "val _ = print (itos 3)",
    ];
    for s in &srcs {
        session.compile(s).expect("compiles");
    }
    let stats = session.cache_stats();
    assert_eq!(stats.insertions, 3);
    assert_eq!(stats.entries, 2, "capacity bound holds");
    assert_eq!(stats.evictions, 1, "third insert evicts the oldest");
    assert_eq!(stats.capacity, 2);

    // srcs[0] was the least recently used — its re-compile misses.
    let again = session.compile(srcs[0]).expect("compiles");
    assert!(!again.from_cache, "evicted entry must recompile");
    // srcs[2] is still resident.
    let resident = session.compile(srcs[2]).expect("compiles");
    assert!(resident.from_cache, "most recent entry must still hit");
}

#[test]
fn errors_are_never_cached() {
    let session = Session::with_variant(Variant::Ffb);
    let bad = "val x = 1 + \"two\"";
    assert!(session.compile(bad).is_err());
    assert!(session.compile(bad).is_err());
    let stats = session.cache_stats();
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.misses, 2, "failed compiles count as misses");
    assert_eq!(stats.insertions, 0, "errors must not be stored");
}

#[test]
fn compile_batch_matches_serial_and_dedups() {
    let jobs = vec![
        Job::new(PROGRAM.to_owned()),
        Job::with_variant(PROGRAM.to_owned(), Variant::Nrp),
        Job::new(WARMUP.to_owned()),
        Job::new(PROGRAM.to_owned()), // duplicate of jobs[0]
    ];
    let parallel = Session::builder().build().expect("valid");
    let serial = Session::builder().batch_workers(1).build().expect("valid");
    let p: Vec<Result<Compiled, CompileError>> = parallel.compile_batch(&jobs);
    let s: Vec<Result<Compiled, CompileError>> = serial.compile_batch(&jobs);
    assert_eq!(p.len(), jobs.len());
    for (a, b) in p.iter().zip(&s) {
        let (a, b) = (a.as_ref().expect("compiles"), b.as_ref().expect("compiles"));
        assert_eq!(code_bytes(a), code_bytes(b), "parallel == serial");
    }
    // The duplicate job is served from the cache, not recompiled.
    assert!(p[3].as_ref().expect("compiles").from_cache);
    assert_eq!(
        code_bytes(p[0].as_ref().unwrap()),
        code_bytes(p[3].as_ref().unwrap())
    );
    assert!(parallel.cache_stats().hits >= 1);
}

#[test]
fn compile_batch_contains_per_job_errors() {
    let jobs = vec![
        Job::new("val x = 1 + \"two\"".to_owned()),
        Job::new(WARMUP.to_owned()),
        Job::new("val x = 1 + \"two\"".to_owned()), // duplicate error
    ];
    let session = Session::builder().build().expect("valid");
    let results = session.compile_batch(&jobs);
    assert!(results[0].is_err());
    assert!(results[1].is_ok());
    assert!(results[2].is_err(), "duplicate errors reproduce per slot");
    assert_eq!(
        results[0].as_ref().unwrap_err().to_string(),
        results[2].as_ref().unwrap_err().to_string()
    );
}

#[test]
fn compile_and_run_honors_session_vm_config() {
    // A heap far too small for ALLOCATOR: the session's tuned VM config
    // must reach the run.
    let tiny = VmConfig {
        nursery_words: 128,
        tenured_words: 512,
        ..VmConfig::default()
    };
    let session = Session::builder().vm_config(tiny).build().expect("valid");
    let o = session.compile_and_run(ALLOCATOR).expect("compiles");
    assert_eq!(
        o.result,
        VmResult::HeapExhausted,
        "tiny semispace must exhaust: {:?}",
        o.result
    );

    // The same program under the variant's default VM config completes.
    let roomy = Session::with_variant(Variant::Ffb);
    let o = roomy.compile_and_run(ALLOCATOR).expect("compiles");
    assert!(matches!(o.result, VmResult::Value(_)), "{:?}", o.result);
    assert_eq!(o.output, "2000");
}

#[test]
fn fp3_session_defaults_to_fp3_vm_overhead() {
    // `Session::run` routes through the variant-appropriate VM config:
    // sml.fp3 pays the callee-save float-move overhead, so the same
    // machine program costs more cycles than under a default config.
    let session = Session::with_variant(Variant::Fp3);
    let c = session.compile(PROGRAM).expect("compiles");
    let tuned = session.run(&c);
    let plain = c.run_with(&VmConfig::default());
    assert_eq!(tuned.output, plain.output);
    assert!(
        tuned.stats.cycles > plain.stats.cycles,
        "fp3 overhead must cost cycles: {} vs {}",
        tuned.stats.cycles,
        plain.stats.cycles
    );
}

#[test]
fn builder_rejects_invalid_configurations() {
    assert!(
        Session::builder().cache_capacity(0).build().is_err(),
        "zero-capacity enabled cache"
    );
    assert!(
        Session::builder()
            .cache(false)
            .cache_capacity(0)
            .build()
            .is_ok(),
        "capacity is irrelevant when the cache is off"
    );
    let zero_cycles = VmConfig {
        max_cycles: 0,
        ..VmConfig::default()
    };
    assert!(Session::builder().vm_config(zero_cycles).build().is_err());
    let inverted = VmConfig {
        nursery_words: 1024,
        tenured_words: 512,
        ..VmConfig::default()
    };
    assert!(
        Session::builder().vm_config(inverted).build().is_err(),
        "nursery larger than the semispace"
    );
    let bad_fault = FaultInject {
        fail_alloc_at: Some(0),
        gc_every_n_allocs: None,
        yield_every_n_slices: None,
    };
    assert!(
        Session::builder().fault_inject(bad_fault).build().is_err(),
        "fail_alloc_at is 1-based; zero is invalid"
    );
}

#[test]
fn variant_from_str_round_trips() {
    for v in Variant::ALL {
        assert_eq!(v.name().parse::<Variant>(), Ok(v), "full name {}", v.name());
        let short = v.name().strip_prefix("sml.").unwrap();
        assert_eq!(short.parse::<Variant>(), Ok(v), "short name {short}");
    }
    assert!("sml.bogus".parse::<Variant>().is_err());
    let msg = "bogus".parse::<Variant>().unwrap_err().to_string();
    assert!(msg.contains("nrp"), "error lists accepted spellings: {msg}");
}
