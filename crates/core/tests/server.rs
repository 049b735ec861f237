//! Compile-server integration tests: concurrent clients against the
//! in-process Unix-socket server (results byte-identical to solo
//! compiles), the wire protocol's error taxonomy, and the `smlc serve`
//! binary's graceful EOF and SIGTERM shutdown paths with final stats
//! flushed to stderr.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

use smlc::{CompileServer, Json, Limits, Session, Variant};

/// A unique socket path per test (tests run concurrently in one
/// process).
fn socket_path(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("smlc-test-{}-{tag}-{n}.sock", std::process::id()))
}

fn connect(path: &PathBuf) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("server socket never came up: {e}"),
        }
    }
}

/// Sends one request line and reads one response line.
fn roundtrip(stream: &mut UnixStream, request: &str) -> Json {
    writeln!(stream, "{request}").unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
}

/// Builds a JSON string literal for a request field.
fn quoted(src: &str) -> String {
    Json::Str(src.to_owned()).to_string_compact()
}

/// Eight concurrent clients, each compiling and running its own program
/// several times, must all observe exactly the output and value a solo
/// session produces — while sharing one server session.
#[test]
fn eight_concurrent_clients_match_solo_compiles() {
    let path = socket_path("concurrent");
    let shutdown = AtomicBool::new(false);
    let server = CompileServer::new(Session::with_variant(Variant::Ffb)).workers(4);

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());

        // Solo expectations, computed through independent sessions.
        let programs: Vec<String> = (0..8)
            .map(|i| {
                format!(
                    "fun f x = x * {} + 1\nval r = f {i}\nval _ = print (itos r)",
                    i + 2
                )
            })
            .collect();
        let expected: Vec<String> = programs
            .iter()
            .map(|p| {
                let session = Session::with_variant(Variant::Ffb);
                let c = session.compile(p).unwrap();
                session.run(&c).output
            })
            .collect();

        std::thread::scope(|clients| {
            for (i, (program, want)) in programs.iter().zip(&expected).enumerate() {
                let path = &path;
                clients.spawn(move || {
                    let mut stream = connect(path);
                    for round in 0..3 {
                        let req = format!(
                            "{{\"id\": {round}, \"src\": {}, \"run\": true}}",
                            quoted(program)
                        );
                        let resp = roundtrip(&mut stream, &req);
                        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
                        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(round));
                        assert_eq!(
                            resp.get("output").and_then(Json::as_str),
                            Some(want.as_str()),
                            "client {i} diverged from its solo compile"
                        );
                        assert_eq!(resp.get("result").and_then(Json::as_str), Some("value"));
                        if round > 0 {
                            assert_eq!(
                                resp.get("from_cache").and_then(Json::as_bool),
                                Some(true),
                                "client {i}: repeat compile missed the shared cache"
                            );
                        }
                    }
                });
            }
        });

        shutdown.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.clients, 8);
        assert_eq!(stats.jobs, 24);
        assert!(stats.queue_depth_peak >= 1);
    });
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

/// The wire protocol's error taxonomy: malformed JSON, a missing `src`,
/// an unknown op, a parse error, and an elaboration error each map to
/// the documented `exit_code`, and a bad request never wedges the
/// connection.
#[test]
fn error_responses_carry_the_exit_code_taxonomy() {
    let path = socket_path("errors");
    let shutdown = AtomicBool::new(false);
    let server = CompileServer::new(Session::with_variant(Variant::Ffb)).workers(2);

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());
        let mut stream = connect(&path);

        let cases: &[(&str, &str, i64)] = &[
            ("{this is not json", "request", 2),
            ("{\"id\": 1, \"op\": \"compile\"}", "request", 2),
            ("{\"id\": 2, \"op\": \"frobnicate\"}", "request", 2),
            ("{\"id\": 3, \"src\": \"val x = = 1\"}", "parse", 2),
            ("{\"id\": 4, \"src\": \"val x = y\"}", "elab", 3),
            (
                "{\"id\": 5, \"src\": \"val x = 1\", \"variant\": \"sml.bogus\"}",
                "request",
                2,
            ),
        ];
        for (req, kind, exit_code) in cases {
            let resp = roundtrip(&mut stream, req);
            assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false), "{req}");
            let err = resp.get("error").expect("error object");
            assert_eq!(err.get("kind").and_then(Json::as_str), Some(*kind), "{req}");
            assert_eq!(
                resp.get("exit_code").and_then(Json::as_i64),
                Some(*exit_code),
                "{req}"
            );
        }

        // The connection still works after every kind of bad request.
        let resp = roundtrip(
            &mut stream,
            "{\"id\": 9, \"src\": \"val _ = print (itos 7)\", \"run\": true}",
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("output").and_then(Json::as_str), Some("7"));

        // A `stats` op reports server-wide and per-client counters.
        let resp = roundtrip(&mut stream, "{\"id\": 10, \"op\": \"stats\"}");
        let server_obj = resp.get("server").expect("server object");
        assert_eq!(server_obj.get("clients").and_then(Json::as_i64), Some(1));
        assert_eq!(server_obj.get("jobs").and_then(Json::as_i64), Some(8));
        // Only compile ops count as client jobs: the four failed
        // compile attempts above plus the good one.
        let client_obj = resp.get("client").expect("client object");
        assert_eq!(client_obj.get("jobs").and_then(Json::as_i64), Some(5));

        shutdown.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    });
}

/// A one-megabyte line of `[` is answered with a typed request error
/// instead of overflowing the parser's stack, and the same connection
/// then compiles normally. The compile response still carries the v5
/// `components` object, disabled and zeroed.
#[test]
fn deeply_nested_line_is_a_request_error_not_a_crash() {
    let path = socket_path("deep");
    let shutdown = AtomicBool::new(false);
    let server = CompileServer::new(Session::with_variant(Variant::Ffb)).workers(2);

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());
        let mut stream = connect(&path);

        let resp = roundtrip(&mut stream, &"[".repeat(1_000_000));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").expect("error object");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("request"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("nested too deeply")));
        assert_eq!(resp.get("exit_code").and_then(Json::as_i64), Some(2));

        let resp = roundtrip(
            &mut stream,
            "{\"id\": 1, \"src\": \"val _ = print (itos 5)\", \"run\": true}",
        );
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(resp.get("output").and_then(Json::as_str), Some("5"));
        let components = resp.get("components").expect("components object");
        assert_eq!(
            components.get("enabled").and_then(Json::as_bool),
            Some(false)
        );
        for counter in ["scc_count", "recompiled", "cache_hits", "topo_depth"] {
            assert_eq!(
                components.get(counter).and_then(Json::as_i64),
                Some(0),
                "{counter}"
            );
        }

        shutdown.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.jobs, 2);
    });
}

/// A request line one byte over the session's cap (6 x
/// `max_source_bytes` for JSON escaping, plus a 4096-byte envelope) is
/// skipped through its newline and answered with a typed request error;
/// a line of exactly the cap is served, a line that is not UTF-8 gets a
/// request error, and a compile after all three is served, on the same
/// connection.
#[test]
fn overlong_request_line_is_a_request_error_not_a_buffer() {
    let path = socket_path("overlong");
    let shutdown = AtomicBool::new(false);
    let session = Session::builder()
        .variant(Variant::Ffb)
        .limits(Limits {
            max_source_bytes: 64,
            ..Limits::default()
        })
        .build()
        .unwrap();
    let server = CompileServer::new(session).workers(2);
    let cap = 6 * 64 + 4096;

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());
        let mut stream = connect(&path);

        let resp = roundtrip(&mut stream, &"x".repeat(cap + 1));
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let err = resp.get("error").expect("error object");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("request"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains(&format!("longer than {cap} bytes"))));
        assert_eq!(resp.get("exit_code").and_then(Json::as_i64), Some(2));

        // Exactly at the cap: padded out by a field the server ignores.
        let head = "{\"id\": 1, \"src\": \"val _ = print (itos 5)\", \"run\": true, \"pad\": \"";
        let tail = "\"}";
        let at_cap = format!("{head}{}{tail}", " ".repeat(cap - head.len() - tail.len()));
        assert_eq!(at_cap.len(), cap);
        let resp = roundtrip(&mut stream, &at_cap);
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
        assert_eq!(resp.get("output").and_then(Json::as_str), Some("5"));

        // A line that is not UTF-8 is a request error too.
        stream.write_all(b"{\"id\": 9, \xff\xfe}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        let err = resp.get("error").expect("error object");
        assert_eq!(err.get("kind").and_then(Json::as_str), Some("request"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("not valid UTF-8")));

        let resp = roundtrip(
            &mut stream,
            "{\"id\": 2, \"src\": \"val _ = print (itos 7)\", \"run\": true}",
        );
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(2));
        assert_eq!(resp.get("output").and_then(Json::as_str), Some("7"));

        shutdown.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(stats.jobs, 2, "rejected lines never reach a worker");
    });
}

/// With one worker busy on a slow job, a pipelined burst past the queue
/// bound is answered, not buffered: every request gets exactly one
/// response, in request order, the overflow as typed `overloaded`
/// errors, and the connection then serves a later compile normally.
#[test]
fn burst_past_the_queue_bound_is_answered_overloaded_in_order() {
    let path = socket_path("overloaded");
    let shutdown = AtomicBool::new(false);
    let server = CompileServer::new(Session::with_variant(Variant::Ffb)).workers(1);
    // Far more than one worker's queue holds.
    const BURST: i64 = 64;

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());
        let mut stream = connect(&path);
        let slow = "fun spin 0 = 0 | spin n = spin (n - 1)\nval _ = print (itos (spin 10000000))";
        let mut burst = format!("{{\"id\": 0, \"src\": {}, \"run\": true}}\n", quoted(slow));
        for id in 1..=BURST {
            let src = format!("val _ = print (itos {id})");
            burst += &format!(
                "{{\"id\": {id}, \"src\": {}, \"run\": true}}\n",
                quoted(&src)
            );
        }
        stream.write_all(burst.as_bytes()).unwrap();
        stream.flush().unwrap();

        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut overloaded = 0;
        for id in 0..=BURST {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp =
                Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"));
            assert_eq!(resp.get("id").and_then(Json::as_i64), Some(id), "{resp:?}");
            if resp.get("ok").and_then(Json::as_bool) == Some(true) {
                // The slow job prints `spin`'s result, 0; the rest their id.
                let want = id.to_string();
                assert_eq!(resp.get("output").and_then(Json::as_str), Some(&*want));
                continue;
            }
            let err = resp.get("error").expect("error object");
            assert_eq!(
                err.get("kind").and_then(Json::as_str),
                Some("overloaded"),
                "{resp:?}"
            );
            assert!(err
                .get("message")
                .and_then(Json::as_str)
                .is_some_and(|m| m.contains("16 requests already queued")));
            assert_eq!(resp.get("exit_code").and_then(Json::as_i64), Some(4));
            overloaded += 1;
        }
        assert!(overloaded > 0, "the burst never hit the bound");
        assert!(overloaded < BURST, "nothing of the burst was queued");

        let resp = roundtrip(
            &mut stream,
            "{\"id\": 99, \"src\": \"val _ = print (itos 7)\", \"run\": true}",
        );
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(99));
        assert_eq!(resp.get("output").and_then(Json::as_str), Some("7"));

        shutdown.store(true, Ordering::SeqCst);
        let stats = handle.join().unwrap();
        assert_eq!(
            stats.jobs,
            (BURST + 2 - overloaded) as u64,
            "overloaded requests never reach a worker"
        );
        assert!(stats.queue_depth_peak <= 16, "{stats:?}");
    });
}

/// A `{"op":"shutdown"}` request stops the whole server gracefully.
#[test]
fn shutdown_op_stops_the_server() {
    let path = socket_path("shutdown-op");
    let shutdown = AtomicBool::new(false);
    let server = CompileServer::new(Session::with_variant(Variant::Ffb)).workers(2);

    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve_unix(&path, &shutdown).unwrap());
        let mut stream = connect(&path);
        let resp = roundtrip(&mut stream, "{\"id\": 0, \"op\": \"shutdown\"}");
        assert_eq!(
            resp.get("shutting_down").and_then(Json::as_bool),
            Some(true)
        );
        let stats = handle.join().unwrap();
        assert_eq!(stats.jobs, 1);
    });
    assert!(!path.exists());
}

// ---------------------------------------------------------------------
// The `smlc serve` binary: EOF and SIGTERM shutdown
// ---------------------------------------------------------------------

fn smlc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_smlc"))
}

/// The final stderr line a server flushes on shutdown, parsed.
fn final_stats_line(child: Child) -> (std::process::Output, Json) {
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .unwrap_or_else(|| panic!("no stats line on stderr: {stderr:?}"));
    let stats = Json::parse(line).unwrap();
    (out, stats)
}

/// `smlc serve` over stdio answers each request in order and, at EOF,
/// drains in-flight jobs and flushes final stats to stderr.
#[test]
fn serve_stdio_eof_shutdown_flushes_stats() {
    let mut child = smlc()
        .args(["serve", "--workers=2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    {
        let stdin = child.stdin.take().unwrap();
        let mut stdin = stdin;
        for i in 0..3 {
            writeln!(
                stdin,
                "{{\"id\": {i}, \"src\": \"val _ = print (itos ({i} + 40))\", \"run\": true}}"
            )
            .unwrap();
        }
        // Dropping stdin is the EOF that shuts the server down.
    }

    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let responses: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 3, "stdout: {stdout:?}");
    for (i, resp) in responses.iter().enumerate() {
        assert_eq!(resp.get("id").and_then(Json::as_i64), Some(i as i64));
        assert_eq!(
            resp.get("output").and_then(Json::as_str),
            Some(format!("{}", i + 40).as_str())
        );
    }

    let (out, stats) = final_stats_line(child);
    assert!(out.status.success());
    let server = stats.get("server").expect("server stats");
    assert_eq!(server.get("jobs").and_then(Json::as_i64), Some(3));
    assert_eq!(server.get("clients").and_then(Json::as_i64), Some(1));
}

/// A server worker compiles as wide a program as its stack allows, so
/// `smlc serve` must survive a `+` chain that std's 2 MiB default
/// thread stack does not: its workers get the CLI's 8 MiB. The chain is
/// about four times what 2 MiB holds in the test's build profile
/// (unoptimized frames are far larger), and the server answers it and
/// the next request on the same connection. A child process, because a
/// stack overflow aborts the whole process.
#[test]
fn serve_survives_a_chain_that_overflows_a_default_stack() {
    let terms = if cfg!(debug_assertions) { 40 } else { 800 };
    let chain = format!("val s = 1{}", " + 1".repeat(terms - 1));
    let mut child = smlc()
        .args(["serve", "--workers=1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{{\"id\": 0, \"src\": {}}}", quoted(&chain)).unwrap();
        writeln!(stdin, "{{\"id\": 1, \"src\": \"val x = 1\"}}").unwrap();
    }
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let responses: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(
        responses.len(),
        2,
        "status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for resp in &responses {
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "{resp:?}"
        );
    }
    assert!(out.status.success(), "status {:?}", out.status);
}

/// An endless loop sent with `"run": true` is cut off at the server's
/// run cap (500,000,000 cycles) with the typed `out-of-fuel` result,
/// at the same cycle count on every run, while the one worker is busy
/// with it the queue answers the overflow of a burst `overloaded`, and
/// the final stats count both. A child process, so the test also sees
/// the stderr flush.
#[test]
fn serve_caps_a_run_and_counts_what_it_turns_away() {
    const COMPILES: i64 = 20;
    let endless = "fun f (x : int) : int = f (x + 1)\nval y = f 0\n";
    let mut child = smlc()
        .args(["serve", "--workers=1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    {
        let mut stdin = child.stdin.take().unwrap();
        let src = quoted(endless);
        writeln!(stdin, "{{\"id\": 0, \"src\": {src}, \"run\": true}}").unwrap();
        for id in 1..=COMPILES {
            writeln!(stdin, "{{\"id\": {id}, \"src\": \"val x = {id}\"}}").unwrap();
        }
    }
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    let responses: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), COMPILES as usize + 1, "stdout: {stdout:?}");
    let run = &responses[0];
    assert_eq!(
        run.get("result").and_then(Json::as_str),
        Some("out-of-fuel"),
        "{run:?}"
    );
    assert_eq!(run.get("cycles").and_then(Json::as_i64), Some(500_000_001));
    assert_eq!(
        responses[1].get("ok").and_then(Json::as_bool),
        Some(true),
        "the first compile is queued: {:?}",
        responses[1]
    );
    let kind = |r: &Json| {
        r.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
            .map(str::to_owned)
    };
    let overloaded = responses
        .iter()
        .filter(|r| kind(r).as_deref() == Some("overloaded"))
        .count() as i64;
    assert!(overloaded >= 1, "the burst never hit the bound: {stdout}");

    let (out, stats) = final_stats_line(child);
    assert!(out.status.success());
    let server = stats.get("server").expect("server stats");
    assert_eq!(server.get("capped_runs").and_then(Json::as_i64), Some(1));
    assert_eq!(
        server.get("overloaded").and_then(Json::as_i64),
        Some(overloaded)
    );
    assert_eq!(
        server.get("jobs").and_then(Json::as_i64),
        Some(COMPILES + 1 - overloaded)
    );
}

/// The CLI compiles on a thread with the server workers' stack size,
/// not on its main thread, so `ulimit -s` cannot shrink the widest
/// program it compiles: the chain above, which a 2 MiB stack does not
/// hold, compiles with the main thread's stack limited to 2 MiB. A
/// child process, because a stack overflow aborts the whole process.
#[test]
fn cli_compiles_a_chain_that_overflows_a_2_mib_main_stack() {
    let terms = if cfg!(debug_assertions) { 40 } else { 800 };
    let chain = format!("val s = 1{}", " + 1".repeat(terms - 1));
    let out = Command::new("sh")
        .args(["-c", "ulimit -s 2048 && exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_smlc"))
        .args(["compile", "-e", &chain])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "status {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `smlc serve --socket` exits cleanly on SIGTERM: in-flight work
/// drains, final stats reach stderr, and the socket file is removed.
#[test]
fn serve_socket_sigterm_shutdown() {
    let path = socket_path("sigterm");
    let child = smlc()
        .args(["serve", "--workers=2", "--socket"])
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    let mut stream = connect(&path);
    let resp = roundtrip(
        &mut stream,
        "{\"id\": 0, \"src\": \"val _ = print (itos 7)\", \"run\": true}",
    );
    assert_eq!(resp.get("output").and_then(Json::as_str), Some("7"));

    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    let (out, stats) = final_stats_line(child);
    assert!(out.status.success(), "SIGTERM exit was not graceful");
    let server = stats.get("server").expect("server stats");
    assert_eq!(server.get("jobs").and_then(Json::as_i64), Some(1));
    assert_eq!(server.get("clients").and_then(Json::as_i64), Some(1));
    assert!(!path.exists(), "socket file must be removed on SIGTERM");
}

/// The `smlc client` subcommand drives a served socket end to end.
#[test]
fn client_subcommand_round_trips() {
    let path = socket_path("client");
    let server = smlc()
        .args(["serve", "--workers=2", "--socket"])
        .arg(&path)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    connect(&path); // wait for the socket, then drop the probe

    let out = smlc()
        .args([
            "client",
            "--run",
            "-e",
            "val _ = print (itos (3 * 4))",
            "--socket",
        ])
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "client failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "12");

    Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .unwrap();
    let (out, _) = final_stats_line(server);
    assert!(out.status.success());
}
