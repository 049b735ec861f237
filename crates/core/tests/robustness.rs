//! End-to-end fault containment: adversarial and resource-hungry inputs
//! produce typed errors or traps — never a panic, abort, or stack
//! overflow — and trap paths leave the VM counters consistent.

use smlc::{
    CompileError, Compiled, FaultInject, InstrClass, Limits, RunStats, Session, Variant, VmConfig,
    VmResult,
};

/// Compiles through a fresh single-variant session.
fn compile(src: &str, v: Variant) -> Result<Compiled, CompileError> {
    Session::with_variant(v).compile(src)
}

/// Compiles with explicit limits.
fn compile_limited(src: &str, v: Variant, limits: &Limits) -> Result<Compiled, CompileError> {
    Session::builder()
        .variant(v)
        .limits(*limits)
        .build()
        .expect("test limits are valid")
        .compile(src)
}

fn assert_consistent(stats: &RunStats) {
    assert_eq!(
        stats.cycles_by_class.iter().sum::<u64>(),
        stats.cycles,
        "cycles_by_class must sum to cycles"
    );
    assert_eq!(
        stats.instrs_by_class.iter().sum::<u64>(),
        stats.instrs,
        "instrs_by_class must sum to instrs"
    );
    assert_eq!(
        stats.cycles_by_class[InstrClass::Gc as usize],
        stats.gc_cycles
    );
}

#[test]
fn deeply_nested_parens_hit_the_depth_budget() {
    // Ten thousand nesting levels would overflow the parser's stack
    // without the depth budget; with it, compilation fails fast with a
    // Limit error.
    let depth = 10_000;
    let src = format!("val x = {}1{}", "(".repeat(depth), ")".repeat(depth));
    match compile(&src, Variant::Ffb) {
        Err(CompileError::Limit { phase, msg }) => {
            assert_eq!(phase, "parse");
            assert!(msg.contains("depth budget"), "unexpected message: {msg}");
        }
        other => panic!("expected a parse-limit error, got {other:?}"),
    }
}

#[test]
fn deeply_nested_let_hits_the_depth_budget() {
    let depth = 10_000;
    let src = format!(
        "val x = {}0{}",
        "let val y = 1 in ".repeat(depth),
        " end".repeat(depth)
    );
    match compile(&src, Variant::Nrp) {
        Err(CompileError::Limit { phase, .. }) => assert_eq!(phase, "parse"),
        other => panic!("expected a parse-limit error, got {other:?}"),
    }
}

#[test]
fn long_cons_chain_hits_the_depth_budget() {
    let src = format!("val x = {}nil", "1 :: ".repeat(10_000));
    match compile(&src, Variant::Ffb) {
        Err(CompileError::Limit { phase, .. }) => assert_eq!(phase, "parse"),
        other => panic!("expected a parse-limit error, got {other:?}"),
    }
}

#[test]
fn reasonable_nesting_still_parses() {
    let depth = 50;
    let src = format!("val x = {}1{}", "(".repeat(depth), ")".repeat(depth));
    compile(&src, Variant::Ffb).expect("100 levels is well within budget");
}

#[test]
fn source_size_budget_is_enforced() {
    let limits = Limits {
        max_source_bytes: 64,
        ..Limits::default()
    };
    let src = format!("val x = {}", "1 + ".repeat(50));
    match compile_limited(&src, Variant::Ffb, &limits) {
        Err(CompileError::Limit { phase, msg }) => {
            assert_eq!(phase, "parse");
            assert!(msg.contains("byte"), "unexpected message: {msg}");
        }
        other => panic!("expected a source-size limit error, got {other:?}"),
    }
}

#[test]
fn error_taxonomy_tags_are_stable() {
    let parse = compile("val = =", Variant::Ffb).unwrap_err();
    assert_eq!(parse.kind(), "parse");
    assert_eq!(parse.phase(), "parse");

    let elab = compile("val x = 1 + \"s\"", Variant::Ffb).unwrap_err();
    assert_eq!(elab.kind(), "elab");
    assert_eq!(elab.phase(), "elaborate");

    let limit = CompileError::Limit {
        phase: "translate",
        msg: "x".into(),
    };
    assert_eq!(limit.kind(), "limit");
    let ice = CompileError::Internal {
        phase: "codegen",
        msg: "x".into(),
        violation: None,
    };
    assert_eq!(ice.kind(), "internal");
    assert_eq!(ice.phase(), "codegen");
    assert!(ice.to_string().contains("internal compiler error"));

    let config = CompileError::Config(smlc::ConfigError::MustBeNonzero {
        field: "cache_capacity",
    });
    assert_eq!(config.kind(), "config");
    assert_eq!(config.phase(), "config");
    assert!(config.to_string().contains("cache_capacity"));
}

#[test]
fn error_document_covers_every_failure_class() {
    let e = compile("val = =", Variant::Ffb).unwrap_err();
    let doc = smlc::error_json(Variant::Ffb, &e).to_string_compact();
    assert!(doc.contains(&format!(
        "\"schema_version\":{}",
        smlc::METRICS_SCHEMA_VERSION
    )));
    assert!(doc.contains("\"error\":"));
    assert!(doc.contains("\"kind\":\"parse\""));
    assert!(doc.contains("\"phase\":\"parse\""));
    assert!(doc.contains("\"message\":"));
    assert!(doc.contains("\"compile\":null"));
    assert!(doc.contains("\"run\":null"));
    assert!(doc.contains("\"components\":null"));
    assert!(doc.contains("\"server\":null"));
}

#[test]
fn uncaught_exception_keeps_counters_consistent() {
    let c = compile("exception Boom val _ = raise Boom", Variant::Ffb).unwrap();
    let o = c.run();
    assert_eq!(o.result, VmResult::Uncaught("Boom".into()));
    assert_consistent(&o.stats);
}

#[test]
fn out_of_fuel_keeps_counters_consistent() {
    let c = compile("fun loop n = loop (n + 1) val _ = loop 0", Variant::Ffb).unwrap();
    let o = c.run_with(&VmConfig {
        max_cycles: 50_000,
        ..VmConfig::default()
    });
    assert_eq!(o.result, VmResult::OutOfFuel);
    assert!(o.stats.cycles > 50_000);
    assert_consistent(&o.stats);
}

const LIST_BUILDER: &str = "
    fun build n = if n = 0 then nil else n :: build (n - 1)
    fun len nil = 0 | len (_ :: t) = 1 + len t
    val _ = print (itos (len (build 2000)))
";

#[test]
fn heap_ceiling_traps_instead_of_aborting() {
    let c = compile(LIST_BUILDER, Variant::Ffb).unwrap();
    let o = c.run_with(&VmConfig {
        tenured_words: 2_048,
        nursery_words: 512,
        ..VmConfig::default()
    });
    assert_eq!(o.result, VmResult::HeapExhausted);
    assert!(o.stats.n_gcs >= 1);
    assert_consistent(&o.stats);
}

#[test]
fn injected_alloc_failure_traps_deterministically() {
    let c = compile(LIST_BUILDER, Variant::Ffb).unwrap();
    let o = c.run_with(&VmConfig {
        fault: FaultInject {
            fail_alloc_at: Some(40),
            gc_every_n_allocs: None,
            yield_every_n_slices: None,
        },
        ..VmConfig::default()
    });
    assert_eq!(o.result, VmResult::HeapExhausted);
    assert_eq!(o.stats.n_allocs, 39);
    assert_consistent(&o.stats);
}

#[test]
fn forced_gc_stress_does_not_change_program_behavior() {
    let c = compile(LIST_BUILDER, Variant::Ffb).unwrap();
    let quiet = c.run();
    assert_eq!(quiet.result, VmResult::Value(0));
    assert_eq!(quiet.output, "2000");
    for k in [1, 2, 7] {
        let stressed = c.run_with(&VmConfig {
            fault: FaultInject {
                fail_alloc_at: None,
                gc_every_n_allocs: Some(k),
                yield_every_n_slices: None,
            },
            ..VmConfig::default()
        });
        assert_eq!(stressed.result, quiet.result, "gc_every_n_allocs={k}");
        assert_eq!(stressed.output, quiet.output, "gc_every_n_allocs={k}");
        assert!(stressed.stats.n_gcs > quiet.stats.n_gcs);
        assert_consistent(&stressed.stats);
    }
}

#[test]
fn trap_results_have_stable_metric_tags() {
    assert_eq!(smlc::result_tag(&VmResult::HeapExhausted), "heap-exhausted");
    assert_eq!(smlc::result_tag(&VmResult::Fault("x".into())), "fault");
    assert_eq!(smlc::result_tag(&VmResult::OutOfFuel), "out-of-fuel");
}

#[test]
fn cli_requires_a_subcommand() {
    // The subcommand is required: flags first is a usage error (exit 2)
    // that compiles and prints nothing; the same flags after `run` work.
    let smlc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_smlc"))
            .args(args)
            .output()
            .expect("smlc starts")
    };
    let bare = smlc(&["--stats=json", "-e", "val x = 1"]);
    assert_eq!(bare.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&bare.stdout), "");
    let run = smlc(&["run", "--stats=json", "-e", "val x = 1"]);
    assert_eq!(run.status.code(), Some(0));
    assert!(!run.stdout.is_empty());
}

#[test]
fn closed_stdout_is_not_a_compiler_crash() {
    // A reader that goes away (`smlc ... | head`) is not a compiler
    // fault. The read end of the child's stdout is closed before the
    // child starts, so its first write fails every time; the command
    // must still exit 0, with no panic and no message.
    let fib = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/fib.sml");
    for args in [
        &["compile", "--emit", "asm", fib][..],
        &["run", "--stats=json", fib],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smlc"))
            .args(args)
            .stdout(writer)
            .stderr(std::process::Stdio::piped())
            .output()
            .expect("smlc starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{args:?}: {stderr}");
    }
}

#[test]
fn closed_stderr_is_not_a_compiler_crash() {
    // A compile error with nobody reading stderr keeps its own exit
    // code: the read end of the child's stderr is closed before the
    // child starts, so the diagnostic's write fails every time, and the
    // command must not turn that into an internal-compiler-error exit.
    // Stdout stays open: the `--stats=json` error document still
    // arrives there.
    for (args, code) in [
        (&["run", "-e", "val x = y"][..], 3),
        (&["compile", "-e", "val x = "], 2),
        (&["run", "--stats=json", "-e", "val x = y"], 3),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_smlc"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(writer)
            .output()
            .expect("smlc starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stdout}");
        if args.contains(&"--stats=json") {
            assert!(stdout.contains("\"error\""), "{args:?}: {stdout}");
        }
    }
}
