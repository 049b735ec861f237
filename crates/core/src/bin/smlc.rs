//! The `smlc` command-line compiler driver.
//!
//! ```sh
//! smlc run program.sml                  # compile with sml.ffb and run
//! smlc compile program.sml              # compile only (type-check + codegen)
//! smlc bench program.sml                # compile and run under all six variants
//! smlc serve --socket /tmp/smlc.sock    # start a compile server
//! smlc client --socket /tmp/smlc.sock --run program.sml
//! smlc run --variant nrp program.sml    # pick a compiler variant
//! smlc run --stats program.sml          # print compile/run statistics
//! smlc run --stats=json program.sml     # emit structured metrics as JSON
//! smlc run --all program.sml            # run under all six variants
//! smlc run --batch a.sml b.sml c.sml    # compile a batch in parallel, run in order
//! smlc run -e 'val _ = print "hi\n"'    # compile a command-line snippet
//! smlc compile --emit asm program.sml   # disassemble instead of running
//! smlc run --dispatch=decode p.sml      # reference decode loop (threaded is the default)
//! smlc run --verify-ir always prog.sml  # re-check every IR behind each phase
//! ```
//!
//! The first argument is the subcommand and is required: `compile`,
//! `run`, `bench`, `serve`, or `client`. Anything else prints usage and
//! exits 2.
//!
//! Every compile goes through one [`Session`]: `--batch` fans the
//! file×variant job list out over [`Session::compile_batch`]'s parallel
//! driver (results are reported in input order regardless of
//! scheduling), and repeated sources are served from the session's
//! artifact cache. `serve` keeps that session resident and shares it
//! between every client of a stdio or Unix-socket server speaking
//! newline-delimited JSON (`docs/SERVER.md`); `client` is the matching
//! wire client.
//!
//! `--stats=json` prints one JSON document per compile on stdout (after
//! the program's own output) following the schema in
//! `docs/OBSERVABILITY.md` — the same schema the bench harness writes
//! into `BENCH_*.json` trajectory files — including the session's
//! artifact-cache counters under `"cache"`.

use sml_vm::spawn_compile_thread;
use smlc::{
    error_json, CompileError, CompileServer, Dispatch, Job, Json, Metrics, SchedPolicy,
    SchedulerBuilder, Session, TenantSpec, Variant, VerifyIr, VmResult,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Exit codes, documented in `docs/ROBUSTNESS.md`: syntax errors (and
/// usage mistakes) exit 2, type errors 3, exceeded resource budgets and
/// rejected configuration 4, abnormal VM terminations 5, and contained
/// internal compiler errors (including IR-verifier rejections) 101.
const EXIT_VM_TRAP: u8 = 5;

/// Set by the first stdout / stderr write that finds its reader gone.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);
static STDERR_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes to one standard stream. A reader that went away (`smlc
/// compile --emit asm f.sml | head`, or a closed stderr pipe) is not a
/// compiler fault: the first `BrokenPipe` sets `closed` and quietly
/// drops the rest of that stream, and the command exits with the code
/// it would have returned anyway. Any other write error panics, as
/// `print!` does.
fn write_stream(mut w: impl Write, closed: &AtomicBool, name: &str, args: std::fmt::Arguments) {
    if closed.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = w.write_fmt(args) {
        if e.kind() != ErrorKind::BrokenPipe {
            panic!("failed printing to {name}: {e}");
        }
        closed.store(true, Ordering::Relaxed);
    }
}

/// The one stdout writer of `compile`, `run`, `bench` and `client`
/// (through `out!`/`outln!`).
fn write_stdout(args: std::fmt::Arguments) {
    write_stream(std::io::stdout().lock(), &STDOUT_CLOSED, "stdout", args);
}

/// The one stderr writer of every subcommand (through `errln!`).
fn write_stderr(args: std::fmt::Arguments) {
    write_stream(std::io::stderr().lock(), &STDERR_CLOSED, "stderr", args);
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => { write_stdout(format_args!($($arg)*)) };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => { write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// `eprintln!` through [`write_stderr`].
macro_rules! errln {
    ($($arg:tt)*) => { write_stderr(format_args!("{}\n", format_args!($($arg)*))) };
}

/// How much statistics reporting the user asked for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsMode {
    Off,
    Human,
    Json,
}

/// What the driver subcommand does after compiling.
#[derive(Clone, Copy, PartialEq, Eq)]
enum DriveMode {
    /// `smlc compile`: stop after code generation.
    CompileOnly,
    /// `smlc run`: compile and run.
    Run,
    /// `smlc bench`: `run` forced across all six variants.
    Bench,
}

fn usage() -> ! {
    errln!(
        "usage: smlc (compile|run|bench) [--variant nrp|fag|rep|mtd|ffb|fp3] \
         [--verify-ir off|debug|always] [--stats[=json]] [--all] [--batch] [--emit asm] \
         [--tenants=N] [--policy=round-robin|priority|deadline] [--deadline=CYCLES] \
         [--dispatch=threaded|decode] (<file.sml>... | -e <source>)\n\
         \x20      smlc serve [--socket <path>] [--workers=N] [--variant V] [--verify-ir M]\n\
         \x20      smlc client --socket <path> [--run] [--stats] [--variant V] \
         (<file.sml>... | -e <source>)"
    );
    std::process::exit(2)
}

fn parse_variant(s: &str) -> Variant {
    match s.parse() {
        Ok(v) => v,
        Err(e) => {
            errln!("{e}");
            usage()
        }
    }
}

/// One source text plus the name we report it under.
struct Input {
    label: String,
    src: String,
}

/// Reads positional inputs shared by every subcommand (`<file>` or
/// `-e <source>`).
fn read_input(inputs: &mut Vec<Input>, path: &str) -> Result<(), ExitCode> {
    match std::fs::read_to_string(path) {
        Ok(src) => {
            inputs.push(Input {
                label: path.to_owned(),
                src,
            });
            Ok(())
        }
        Err(e) => {
            errln!("smlc: cannot read {path}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Every subcommand works on a thread with the one compile stack
    // size, so the widest program the CLI compiles does not depend on
    // what `ulimit -s` gives the main thread.
    std::thread::scope(|s| {
        spawn_compile_thread(s, || match args.first().map(String::as_str) {
            Some("compile") => drive(&args[1..], DriveMode::CompileOnly),
            Some("run") => drive(&args[1..], DriveMode::Run),
            Some("bench") => drive(&args[1..], DriveMode::Bench),
            Some("serve") => serve(&args[1..]),
            Some("client") => client(&args[1..]),
            _ => usage(),
        })
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// The `compile` / `run` / `bench` driver.
fn drive(args: &[String], mode: DriveMode) -> ExitCode {
    let mut args = args.iter();
    let mut variant = Variant::Ffb;
    let mut verify: Option<VerifyIr> = None;
    let mut stats = StatsMode::Off;
    let mut all = mode == DriveMode::Bench;
    let mut batch = false;
    let mut emit_asm = false;
    let mut tenants: usize = 1;
    let mut policy = SchedPolicy::RoundRobin;
    let mut deadline: Option<u64> = None;
    let mut dispatch = Dispatch::default();
    let mut inputs: Vec<Input> = Vec::new();

    while let Some(a) = args.next() {
        match a.as_str() {
            "--variant" | "-v" => {
                let Some(v) = args.next() else { usage() };
                variant = parse_variant(v);
            }
            "--verify-ir" => {
                let Some(m) = args.next() else { usage() };
                match m.parse() {
                    Ok(m) => verify = Some(m),
                    Err(e) => {
                        errln!("{e}");
                        usage()
                    }
                }
            }
            "--stats" | "-s" => stats = StatsMode::Human,
            "--stats=json" => stats = StatsMode::Json,
            s if s.starts_with("--stats=") => {
                errln!(
                    "unknown stats format `{}` (only `json`)",
                    &s["--stats=".len()..]
                );
                usage()
            }
            s if s.starts_with("--tenants=") => match s["--tenants=".len()..].parse::<usize>() {
                Ok(n) if (1..=4096).contains(&n) => tenants = n,
                _ => {
                    errln!("--tenants takes a count between 1 and 4096");
                    usage()
                }
            },
            s if s.starts_with("--policy=") => match s["--policy=".len()..].parse() {
                Ok(p) => policy = p,
                Err(e) => {
                    errln!("{e}");
                    usage()
                }
            },
            s if s.starts_with("--deadline=") => match s["--deadline=".len()..].parse::<u64>() {
                Ok(n) if n > 0 => deadline = Some(n),
                _ => {
                    errln!("--deadline takes a nonzero cycle count");
                    usage()
                }
            },
            s if s.starts_with("--dispatch=") => match s["--dispatch=".len()..].parse() {
                Ok(d) => dispatch = d,
                Err(e) => {
                    errln!("{e}");
                    usage()
                }
            },
            "--all" | "-a" => all = true,
            "--batch" | "-b" => batch = true,
            "--emit" => {
                let Some(what) = args.next() else { usage() };
                match what.as_str() {
                    "asm" => emit_asm = true,
                    other => {
                        errln!("unknown --emit target `{other}` (only `asm`)");
                        usage()
                    }
                }
            }
            "-e" => {
                let Some(src) = args.next() else { usage() };
                inputs.push(Input {
                    label: "<cmdline>".to_owned(),
                    src: src.clone(),
                });
            }
            "--help" | "-h" => usage(),
            path => {
                if let Err(code) = read_input(&mut inputs, path) {
                    return code;
                }
            }
        }
    }
    if inputs.is_empty() {
        usage()
    }
    if !batch && inputs.len() > 1 {
        // Historic single-source behavior: the last input wins.
        inputs.drain(..inputs.len() - 1);
    }

    let variants: Vec<Variant> = if all {
        Variant::ALL.to_vec()
    } else {
        vec![variant]
    };

    let mut builder = Session::builder().variant(variant);
    if let Some(mode) = verify {
        builder = builder.verify_ir(mode);
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            let e: CompileError = e.into();
            errln!("smlc: {e}");
            if stats == StatsMode::Json {
                outln!("{}", error_json(variant, &e).to_string_pretty());
            }
            return ExitCode::from(e.exit_code());
        }
    };
    let jobs: Vec<Job> = inputs
        .iter()
        .flat_map(|input| {
            variants
                .iter()
                .map(|&v| Job::with_variant(input.src.clone(), v))
        })
        .collect();
    let results = session.compile_batch(&jobs);

    let mut job_ix = 0;
    for input in &inputs {
        if batch && inputs.len() > 1 {
            outln!("=== {} ===", input.label);
        }
        for &v in &variants {
            if all {
                outln!("== {} ==", v.name());
            }
            let result = &results[job_ix];
            job_ix += 1;
            let compiled = match result {
                Ok(c) => c,
                Err(e) => {
                    errln!("smlc: {e}");
                    // Structured output is emitted on failure paths too, so
                    // JSON consumers never have to parse stderr.
                    if stats == StatsMode::Json {
                        outln!("{}", error_json(v, e).to_string_pretty());
                    }
                    return ExitCode::from(e.exit_code());
                }
            };
            for w in &compiled.stats.warnings {
                errln!("smlc: {w}");
            }
            if emit_asm {
                out!("{}", compiled.machine);
                continue;
            }
            if mode == DriveMode::CompileOnly {
                match stats {
                    StatsMode::Off => {}
                    StatsMode::Human => errln!(
                        "[{}] code {} instrs | compile {:?} | cache {}",
                        v.name(),
                        compiled.stats.code_size,
                        compiled.stats.compile_time,
                        if compiled.from_cache { "hit" } else { "miss" },
                    ),
                    StatsMode::Json => {
                        let m = Metrics::of_compile(compiled).with_cache(session.cache_stats());
                        outln!("{}", m.to_json().to_string_pretty());
                    }
                }
                continue;
            }
            // With --tenants=N the compiled program runs as N
            // identically configured tenants sharing one program
            // handle under the policy-driven VM scheduler; tenant 0's
            // outcome (identical to a solo run) is reported and the
            // scheduler counters land in the metrics document under
            // "sched".
            let mut cfg = session.vm_config(compiled.variant);
            cfg.dispatch = dispatch;
            let (outcome, sched) = if tenants > 1 {
                let mut spec = TenantSpec::new(&compiled.machine, &cfg);
                if let Some(d) = deadline {
                    spec = spec.deadline_cycles(d);
                }
                let specs = vec![spec; tenants];
                let sched = SchedulerBuilder::new()
                    .quantum(10_000)
                    .policy(policy)
                    .build()
                    .expect("the CLI scheduler config always validates");
                match session.run_tenants_with(sched, &specs) {
                    Ok((mut reports, stats)) => {
                        let first = reports.swap_remove(0);
                        (
                            smlc::Outcome {
                                result: first.result,
                                stats: first.stats,
                                output: first.output,
                                dispatch: first.dispatch,
                            },
                            Some(stats),
                        )
                    }
                    Err(e) => {
                        // Rejected configuration: same exit code as
                        // exceeded resource budgets (docs/ROBUSTNESS.md).
                        errln!("smlc: {e}");
                        return ExitCode::from(4);
                    }
                }
            } else {
                (compiled.run_with(&cfg), None)
            };
            out!("{}", outcome.output);
            // Abnormal terminations still report statistics below (the
            // metrics schema carries the result tag), but fail the process.
            let failed = match &outcome.result {
                VmResult::Value(_) => false,
                VmResult::Uncaught(name) => {
                    errln!("smlc: uncaught exception {name}");
                    true
                }
                VmResult::OutOfFuel => {
                    errln!("smlc: cycle budget exhausted");
                    true
                }
                VmResult::HeapExhausted => {
                    errln!("smlc: heap exhausted");
                    true
                }
                VmResult::Fault(why) => {
                    errln!("smlc: vm fault: {why}");
                    true
                }
            };
            match stats {
                StatsMode::Off => {}
                StatsMode::Human => errln!(
                    "[{}] code {} instrs | compile {:?} | cycles {} | instrs {} | \
                     alloc {} words | gcs {} ({} minor, {} major) | cache {}",
                    v.name(),
                    compiled.stats.code_size,
                    compiled.stats.compile_time,
                    outcome.stats.cycles,
                    outcome.stats.instrs,
                    outcome.stats.alloc_words,
                    outcome.stats.n_gcs,
                    outcome.stats.n_minor_gcs,
                    outcome.stats.n_major_gcs,
                    if compiled.from_cache { "hit" } else { "miss" },
                ),
                StatsMode::Json => {
                    let mut m =
                        Metrics::of_run(compiled, &outcome).with_cache(session.cache_stats());
                    if let Some(sched) = sched {
                        m = m.with_sched(sched);
                    }
                    outln!("{}", m.to_json().to_string_pretty());
                }
            }
            if failed {
                return ExitCode::from(EXIT_VM_TRAP);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Raised by the SIGTERM handler; polled by the Unix-socket accept
/// loop so `kill -TERM` drains in-flight jobs and flushes final stats
/// instead of killing the process mid-compile.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler through libc's `signal` (declared by
/// hand — the build environment has no `libc` crate; the symbol is
/// always present because std links libc on this platform).
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// The `serve` subcommand: a newline-delimited-JSON compile server on
/// stdio (default) or a Unix socket (`--socket`).
fn serve(args: &[String]) -> ExitCode {
    let mut args = args.iter();
    let mut variant = Variant::Ffb;
    let mut verify: Option<VerifyIr> = None;
    let mut socket: Option<String> = None;
    let mut workers: usize = 0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--variant" | "-v" => {
                let Some(v) = args.next() else { usage() };
                variant = parse_variant(v);
            }
            "--verify-ir" => {
                let Some(m) = args.next() else { usage() };
                match m.parse() {
                    Ok(m) => verify = Some(m),
                    Err(e) => {
                        errln!("{e}");
                        usage()
                    }
                }
            }
            "--socket" => {
                let Some(p) = args.next() else { usage() };
                socket = Some(p.clone());
            }
            s if s.starts_with("--workers=") => match s["--workers=".len()..].parse::<usize>() {
                Ok(n) => workers = n,
                Err(_) => {
                    errln!("--workers takes a count");
                    usage()
                }
            },
            _ => usage(),
        }
    }
    let mut builder = Session::builder().variant(variant);
    if let Some(mode) = verify {
        builder = builder.verify_ir(mode);
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => {
            let e: CompileError = e.into();
            errln!("smlc: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    let server = CompileServer::new(session).workers(workers);
    install_sigterm_handler();
    let stats = match socket {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            match server.serve_unix(&path, &SHUTDOWN) {
                Ok(stats) => stats,
                Err(e) => {
                    errln!("smlc: serve: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        None => server.serve_stdio(),
    };
    // The final stats flush promised by the shutdown contract: one JSON
    // line on stderr (stdout belongs to the wire protocol).
    errln!(
        "{}",
        Json::obj()
            .field("server", stats.to_json())
            .to_string_compact()
    );
    ExitCode::SUCCESS
}

/// The `client` subcommand: sends one compile request per input to a
/// running `smlc serve --socket` and reports the responses.
fn client(args: &[String]) -> ExitCode {
    let mut args = args.iter();
    let mut socket: Option<String> = None;
    let mut variant: Option<Variant> = None;
    let mut run = false;
    let mut stats = false;
    let mut inputs: Vec<Input> = Vec::new();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--socket" => {
                let Some(p) = args.next() else { usage() };
                socket = Some(p.clone());
            }
            "--variant" | "-v" => {
                let Some(v) = args.next() else { usage() };
                variant = Some(parse_variant(v));
            }
            "--run" => run = true,
            "--stats" => stats = true,
            "-e" => {
                let Some(src) = args.next() else { usage() };
                inputs.push(Input {
                    label: "<cmdline>".to_owned(),
                    src: src.clone(),
                });
            }
            path => {
                if let Err(code) = read_input(&mut inputs, path) {
                    return code;
                }
            }
        }
    }
    let Some(socket) = socket else {
        errln!("smlc: client requires --socket <path>");
        usage()
    };
    if inputs.is_empty() {
        usage()
    }
    let stream = match std::os::unix::net::UnixStream::connect(&socket) {
        Ok(s) => s,
        Err(e) => {
            errln!("smlc: cannot connect to {socket}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut writer = &stream;
    for (i, input) in inputs.iter().enumerate() {
        let mut req = Json::obj()
            .field("id", i as i64)
            .field("op", "compile")
            .field("src", input.src.as_str())
            .field("run", run)
            .field("stats", stats);
        if let Some(v) = variant {
            req = req.field("variant", v.name());
        }
        if writeln!(writer, "{}", req.to_string_compact()).is_err() {
            errln!("smlc: server went away");
            return ExitCode::from(2);
        }
    }
    // Half-close so the server sees EOF after the last request; the
    // responses still flow back on the read half, in request order.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let reader = BufReader::new(&stream);
    let mut code = ExitCode::SUCCESS;
    let mut seen = 0usize;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let resp = match Json::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                errln!("smlc: bad response: {e}");
                return ExitCode::from(2);
            }
        };
        let id = resp.get("id").and_then(Json::as_i64).unwrap_or(0) as usize;
        let label = inputs.get(id).map_or("<unknown>", |i| i.label.as_str());
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            if let Some(output) = resp.get("output").and_then(Json::as_str) {
                out!("{output}");
            }
            if let Some(result) = resp.get("result").and_then(Json::as_str) {
                if result != "value" {
                    errln!("smlc: {label}: abnormal termination: {result}");
                    code = ExitCode::from(EXIT_VM_TRAP);
                }
            }
            if stats {
                if let Some(metrics) = resp.get("metrics") {
                    outln!("{}", metrics.to_string_pretty());
                }
            }
        } else {
            let msg = resp
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("unknown error");
            errln!("smlc: {label}: {msg}");
            let exit = resp.get("exit_code").and_then(Json::as_i64).unwrap_or(2);
            code = ExitCode::from(u8::try_from(exit).unwrap_or(2));
        }
        seen += 1;
        if seen == inputs.len() {
            break;
        }
    }
    if seen < inputs.len() {
        errln!(
            "smlc: server closed after {seen} of {} responses",
            inputs.len()
        );
        return ExitCode::from(2);
    }
    code
}
