//! The compile server behind `smlc serve` (see `docs/SERVER.md`).
//!
//! A [`CompileServer`] wraps one [`Session`] in a long-lived daemon
//! speaking newline-delimited JSON: each request line is one job
//! (`compile`, `stats`, or `shutdown`), each response is one line, and
//! responses to a connection come back **in request order** even though
//! jobs from all connections are dispatched onto a shared worker pool.
//! Because every worker compiles through the same session, all clients
//! share the artifact cache — the point of keeping the compiler
//! resident — and the session's determinism contract guarantees each
//! client's artifacts are byte-identical to a solo compile.
//!
//! Two front ends share the machinery: [`CompileServer::serve_stdio`]
//! serves a single client over stdin/stdout and shuts down cleanly at
//! EOF, [`CompileServer::serve_unix`] accepts any number of concurrent
//! clients on a Unix socket and shuts down when the caller's flag is
//! raised (the CLI raises it from a SIGTERM handler) or a client sends
//! `{"op":"shutdown"}`. Both drain in-flight jobs before returning the
//! final [`ServerStats`], which the CLI flushes to stderr.

use crate::error::CompileError;
use crate::json::Json;
use crate::metrics::{components_json, result_tag, Metrics};
use crate::pipeline::{Compiled, VerifyIr};
use crate::session::{Job, Session};
use sml_vm::{spawn_compile_thread, Outcome, VmResult};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Cumulative counters for one server lifetime; the `server` object of
/// the metrics schema (`docs/OBSERVABILITY.md`) and the server's final
/// stderr flush.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests dispatched to workers (all ops, including malformed
    /// requests that produced an error response).
    pub jobs: u64,
    /// Connections accepted (1 for a stdio server).
    pub clients: u64,
    /// Most jobs ever waiting in the dispatch queue at once — the
    /// backlog high-water mark, the number to watch when deciding
    /// whether a server needs more workers.
    pub queue_depth_peak: usize,
    /// `"run": true` jobs that [`SERVER_RUN_MAX_CYCLES`] stopped: out
    /// of fuel at the cap, below the session's own cycle budget.
    pub capped_runs: u64,
    /// Requests answered `overloaded` because the dispatch queue was
    /// full (see [`QUEUE_PER_WORKER`]); they never reach a worker.
    pub overloaded: u64,
}

impl ServerStats {
    /// The `server` object of the metrics schema, of the `stats` op's
    /// response and of the final stderr flush.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("jobs", self.jobs)
            .field("clients", self.clients)
            .field("queue_depth_peak", self.queue_depth_peak)
            .field("capped_runs", self.capped_runs)
            .field("overloaded", self.overloaded)
    }
}

/// One queued request: the raw line, its position in its connection's
/// request order, and the channel its response goes back on.
struct WorkItem {
    seq: u64,
    line: String,
    respond: mpsc::Sender<(u64, String)>,
    client: Arc<ClientState>,
}

/// Per-connection counters, reported by the `stats` op.
#[derive(Default)]
struct ClientState {
    jobs: AtomicU64,
}

/// Requests each worker may have waiting in the dispatch queue. Once
/// `workers × QUEUE_PER_WORKER` are waiting, a new request is not
/// queued: it is answered at once, in its place in the request order,
/// with an `overloaded` error. Clients see backpressure instead of the
/// server buffering without limit.
const QUEUE_PER_WORKER: usize = 16;

/// The most VM cycles a `"run": true` job may use: it runs under the
/// smaller of its session's `max_cycles` and this cap, and a run the
/// cap stops answers with the typed `out-of-fuel` result. Without it an
/// endless loop holds a worker until `VmConfig`'s default budget of
/// 2×10¹⁰ cycles, about a minute. The cap is 7.7× the longest figure
/// cell (KB-C under `sml.nrp`, 65,048,072 cycles) and 40× below that
/// default.
const SERVER_RUN_MAX_CYCLES: u64 = 500_000_000;

struct QueueState {
    items: VecDeque<WorkItem>,
    closed: bool,
}

/// Why [`Shared::enqueue`] turned a request away.
enum Rejected {
    /// The queue is at capacity; the request comes back to be answered
    /// with an `overloaded` error.
    Full(WorkItem),
    /// The server is shutting down; the caller should stop reading.
    Closed,
}

/// Everything workers and connection pumps share.
struct Shared<'a> {
    session: &'a Session,
    queue: Mutex<QueueState>,
    /// The most requests the queue holds (see [`QUEUE_PER_WORKER`]).
    capacity: usize,
    ready: Condvar,
    stats: Mutex<ServerStats>,
    /// Raised by a `shutdown` request; checked alongside the caller's
    /// external flag.
    stop: AtomicBool,
}

impl Shared<'_> {
    /// Enqueues a request for the worker pool, unless the queue is full
    /// or the server is shutting down.
    fn enqueue(&self, item: WorkItem) -> Result<(), Rejected> {
        let mut q = self.queue.lock().expect("server queue poisoned");
        if q.closed {
            return Err(Rejected::Closed);
        }
        if q.items.len() >= self.capacity {
            return Err(Rejected::Full(item));
        }
        q.items.push_back(item);
        let depth = q.items.len();
        drop(q);
        let mut s = self.stats.lock().expect("server stats poisoned");
        s.jobs += 1;
        s.queue_depth_peak = s.queue_depth_peak.max(depth);
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    fn close(&self) {
        self.queue.lock().expect("server queue poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Worker loop: pull requests until the queue is closed and empty.
    fn work(&self) {
        loop {
            let item = {
                let mut q = self.queue.lock().expect("server queue poisoned");
                loop {
                    if let Some(item) = q.items.pop_front() {
                        break Some(item);
                    }
                    if q.closed {
                        break None;
                    }
                    q = self.ready.wait(q).expect("server queue poisoned");
                }
            };
            let Some(item) = item else { return };
            let (response, shutdown) = self.handle(&item.line, &item.client);
            if shutdown {
                self.stop.store(true, Ordering::SeqCst);
            }
            // A disconnected client just drops its remaining responses.
            let _ = item.respond.send((item.seq, response));
        }
    }

    /// Executes one request line, returning the response line and
    /// whether the request asked the whole server to shut down.
    fn handle(&self, line: &str, client: &ClientState) -> (String, bool) {
        let req = match Json::parse(line) {
            Ok(req) => req,
            Err(e) => return (error_response(0, "request", &e.to_string(), 2), false),
        };
        let id = req.get("id").and_then(Json::as_i64).unwrap_or(0);
        match req.get("op").and_then(Json::as_str).unwrap_or("compile") {
            "compile" => (self.compile(id, &req, client), false),
            "stats" => (self.stats_response(id, client), false),
            "shutdown" => (
                Json::obj()
                    .field("id", id)
                    .field("ok", true)
                    .field("shutting_down", true)
                    .to_string_compact(),
                true,
            ),
            other => (
                error_response(id, "request", &format!("unknown op `{other}`"), 2),
                false,
            ),
        }
    }

    fn compile(&self, id: i64, req: &Json, client: &ClientState) -> String {
        client.jobs.fetch_add(1, Ordering::Relaxed);
        let Some(src) = req.get("src").and_then(Json::as_str) else {
            return error_response(id, "request", "compile request without `src`", 2);
        };
        let mut job = Job::new(src);
        if let Some(name) = req.get("variant").and_then(Json::as_str) {
            // `Variant::from_str` takes both the flag spelling (`ffb`)
            // and the paper's full name (`sml.ffb`).
            match name.parse() {
                Ok(v) => job = job.variant(v),
                Err(e) => return error_response(id, "request", &e.to_string(), 2),
            }
        }
        if let Some(mode) = req.get("verify_ir").and_then(Json::as_str) {
            match mode.parse::<VerifyIr>() {
                Ok(m) => job = job.verify_ir(m),
                Err(e) => return error_response(id, "request", &e.to_string(), 2),
            }
        }
        let compiled = match self.session.compile_job(&job) {
            Ok(c) => c,
            Err(e) => return compile_error_response(id, &e),
        };
        let mut resp = Json::obj()
            .field("id", id)
            .field("ok", true)
            .field("variant", compiled.variant.name())
            .field("from_cache", compiled.from_cache)
            .field("components", components_json(&compiled.stats.components));
        let outcome = req
            .get("run")
            .and_then(Json::as_bool)
            .unwrap_or(false)
            .then(|| self.run(&compiled));
        if let Some(outcome) = &outcome {
            resp = resp
                .field("output", outcome.output.as_str())
                .field("result", result_tag(&outcome.result))
                .field(
                    "value",
                    match outcome.result {
                        VmResult::Value(v) => Json::Int(v),
                        _ => Json::Null,
                    },
                )
                .field("cycles", outcome.stats.cycles);
        }
        if req.get("stats").and_then(Json::as_bool).unwrap_or(false) {
            let mut m = match &outcome {
                Some(o) => Metrics::of_run(&compiled, o),
                None => Metrics::of_compile(&compiled),
            };
            m = m
                .with_cache(self.session.cache_stats())
                .with_server(*self.stats.lock().expect("server stats poisoned"));
            resp = resp.field("metrics", m.to_json());
        }
        resp.to_string_compact()
    }

    /// Runs a compiled job under the session's VM configuration with
    /// its cycle budget capped at [`SERVER_RUN_MAX_CYCLES`].
    fn run(&self, compiled: &Compiled) -> Outcome {
        let mut vm = self.session.vm_config(compiled.variant);
        let capped = SERVER_RUN_MAX_CYCLES < vm.max_cycles;
        vm.max_cycles = vm.max_cycles.min(SERVER_RUN_MAX_CYCLES);
        let outcome = compiled.run_with(&vm);
        if capped && outcome.result == VmResult::OutOfFuel {
            self.stats
                .lock()
                .expect("server stats poisoned")
                .capped_runs += 1;
        }
        outcome
    }

    fn stats_response(&self, id: i64, client: &ClientState) -> String {
        let s = *self.stats.lock().expect("server stats poisoned");
        let cache = self.session.cache_stats();
        Json::obj()
            .field("id", id)
            .field("ok", true)
            .field("server", s.to_json())
            .field(
                "client",
                Json::obj().field("jobs", client.jobs.load(Ordering::Relaxed)),
            )
            .field(
                "cache",
                Json::obj()
                    .field("hits", cache.hits)
                    .field("misses", cache.misses)
                    .field("entries", cache.entries),
            )
            .to_string_compact()
    }
}

fn error_response(id: i64, kind: &str, message: &str, exit_code: u8) -> String {
    Json::obj()
        .field("id", id)
        .field("ok", false)
        .field(
            "error",
            Json::obj()
                .field("kind", kind)
                .field("phase", kind)
                .field("message", message),
        )
        .field("exit_code", u64::from(exit_code))
        .to_string_compact()
}

fn compile_error_response(id: i64, e: &CompileError) -> String {
    Json::obj()
        .field("id", id)
        .field("ok", false)
        .field(
            "error",
            Json::obj()
                .field("kind", e.kind())
                .field("phase", e.phase())
                .field("message", e.to_string()),
        )
        .field("exit_code", u64::from(e.exit_code()))
        .to_string_compact()
}

/// A compile daemon around one [`Session`]; see the module docs.
pub struct CompileServer {
    session: Session,
    workers: usize,
}

impl CompileServer {
    /// Wraps a session in a server with the default worker count (the
    /// machine's available parallelism).
    pub fn new(session: Session) -> CompileServer {
        CompileServer {
            session,
            workers: 0,
        }
    }

    /// Sets the worker-pool size (`0`, the default, uses the machine's
    /// available parallelism).
    pub fn workers(mut self, n: usize) -> CompileServer {
        self.workers = n;
        self
    }

    /// The wrapped session (for tests that want to compare a server
    /// response against a solo compile through the same session).
    pub fn session(&self) -> &Session {
        &self.session
    }

    fn worker_count(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    fn shared(&self) -> Shared<'_> {
        Shared {
            session: &self.session,
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            capacity: self.worker_count() * QUEUE_PER_WORKER,
            ready: Condvar::new(),
            stats: Mutex::new(ServerStats::default()),
            stop: AtomicBool::new(false),
        }
    }

    /// Serves one client over stdin/stdout until EOF (or a `shutdown`
    /// request), drains in-flight jobs, and returns the final counters.
    pub fn serve_stdio(&self) -> ServerStats {
        let shared = self.shared();
        let stdin = std::io::stdin();
        std::thread::scope(|s| {
            for _ in 0..self.worker_count() {
                spawn_compile_thread(s, || shared.work());
            }
            // `Stdout` (unlike `StdoutLock`) is `Send`, which the
            // writer thread needs; its internal lock serializes lines.
            serve_connection(
                &shared,
                stdin.lock(),
                std::io::stdout(),
                &AtomicBool::new(false),
            );
            shared.close();
        });
        let stats = *shared.stats.lock().expect("server stats poisoned");
        stats
    }

    /// Binds `path` and serves any number of concurrent clients until
    /// `shutdown` is raised externally (the CLI's SIGTERM handler) or a
    /// client sends `{"op":"shutdown"}`; drains in-flight jobs and
    /// returns the final counters. The socket file is removed on the
    /// way out.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket cannot be bound
    /// or configured.
    pub fn serve_unix(&self, path: &Path, shutdown: &AtomicBool) -> std::io::Result<ServerStats> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let shared = self.shared();
        std::thread::scope(|s| -> std::io::Result<()> {
            for _ in 0..self.worker_count() {
                spawn_compile_thread(s, || shared.work());
            }
            loop {
                if shutdown.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        // Bounded reads so connection pumps notice
                        // shutdown instead of blocking in `read` forever.
                        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
                        let reader = stream.try_clone()?;
                        let shared = &shared;
                        s.spawn(move || {
                            serve_connection(shared, BufReader::new(reader), stream, shutdown);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    Err(e) => return Err(e),
                }
            }
            shared.close();
            Ok(())
        })?;
        let _ = std::fs::remove_file(path);
        let stats = *shared.stats.lock().expect("server stats poisoned");
        Ok(stats)
    }
}

/// Room a request line leaves around its escaped source for the other
/// fields (`id`, `op`, `variant`, `run`, per-job overrides).
const REQUEST_ENVELOPE_BYTES: usize = 4096;

/// The longest request line a session accepts: its largest source at
/// the worst-case JSON escaping (`\u00XX`, six bytes per source byte)
/// plus the envelope. A connection never buffers more than this.
fn max_request_bytes(session: &Session) -> usize {
    session
        .limits()
        .max_source_bytes
        .saturating_mul(6)
        .saturating_add(REQUEST_ENVELOPE_BYTES)
}

/// What [`read_request`] found.
enum Request {
    /// A complete line, without its newline.
    Line(Vec<u8>),
    /// A line longer than the cap, consumed through its newline and
    /// dropped.
    TooLong,
    /// End of input.
    Eof,
}

/// Reads the next request line, holding at most `cap` bytes of it. The
/// partial line (`buf`) and whether an overlong one is being skipped
/// (`skipping`) survive a read timeout, so the caller just calls again.
fn read_request(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    skipping: &mut bool,
    cap: usize,
) -> std::io::Result<Request> {
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // End of input finishes an unterminated last line.
            return Ok(if std::mem::take(skipping) {
                Request::TooLong
            } else if buf.is_empty() {
                Request::Eof
            } else {
                Request::Line(std::mem::take(buf))
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let content = &chunk[..newline.unwrap_or(chunk.len())];
        if !*skipping {
            if buf.len() + content.len() > cap {
                *skipping = true;
                *buf = Vec::new();
            } else {
                buf.extend_from_slice(content);
            }
        }
        let used = newline.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if newline.is_some() {
            return Ok(if std::mem::take(skipping) {
                Request::TooLong
            } else {
                Request::Line(std::mem::take(buf))
            });
        }
    }
}

/// Pumps one connection: reads request lines and enqueues them, while a
/// writer thread puts responses back **in request order** (workers
/// finish out of order; a reorder buffer serializes them). Returns once
/// the peer hits EOF / the server shuts down *and* every accepted
/// request has been answered — which is what makes EOF shutdown
/// graceful. A line over [`max_request_bytes`], or one that is not
/// UTF-8, is answered in order with a typed `request` error, a request
/// that finds the queue full with a typed `overloaded` error, and the
/// connection goes on serving.
fn serve_connection(
    shared: &Shared<'_>,
    mut reader: impl BufRead,
    mut writer: impl Write + Send,
    external_stop: &AtomicBool,
) {
    shared.stats.lock().expect("server stats poisoned").clients += 1;
    let client = Arc::new(ClientState::default());
    let (tx, rx) = mpsc::channel::<(u64, String)>();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut next = 0u64;
            let mut pending: BTreeMap<u64, String> = BTreeMap::new();
            while let Ok((seq, response)) = rx.recv() {
                pending.insert(seq, response);
                while let Some(response) = pending.remove(&next) {
                    if writeln!(writer, "{response}").is_err() {
                        return; // client went away; drain silently
                    }
                    next += 1;
                }
                let _ = writer.flush();
            }
        });
        let cap = max_request_bytes(shared.session);
        let mut seq = 0u64;
        let mut buf = Vec::new();
        let mut skipping = false;
        loop {
            if external_stop.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match read_request(&mut reader, &mut buf, &mut skipping, cap) {
                Ok(Request::Eof) => break,
                Ok(Request::Line(bytes)) => {
                    let line = match String::from_utf8(bytes) {
                        Ok(line) if line.trim().is_empty() => continue,
                        Ok(line) => line,
                        Err(_) => {
                            let why = "request line is not valid UTF-8";
                            let _ = tx.send((seq, error_response(0, "request", why, 2)));
                            seq += 1;
                            continue;
                        }
                    };
                    let item = WorkItem {
                        seq,
                        line,
                        respond: tx.clone(),
                        client: Arc::clone(&client),
                    };
                    match shared.enqueue(item) {
                        Ok(()) => {}
                        Err(Rejected::Full(item)) => {
                            let id = Json::parse(&item.line)
                                .ok()
                                .and_then(|req| req.get("id").and_then(Json::as_i64))
                                .unwrap_or(0);
                            let why = format!(
                                "server overloaded: {} requests already queued \
                                 ({QUEUE_PER_WORKER} per worker); retry later",
                                shared.capacity
                            );
                            shared
                                .stats
                                .lock()
                                .expect("server stats poisoned")
                                .overloaded += 1;
                            let _ = tx.send((seq, error_response(id, "overloaded", &why, 4)));
                        }
                        Err(Rejected::Closed) => break,
                    }
                    seq += 1;
                }
                Ok(Request::TooLong) => {
                    let why = format!(
                        "request line longer than {cap} bytes (6 x max_source_bytes \
                         + {REQUEST_ENVELOPE_BYTES})"
                    );
                    let _ = tx.send((seq, error_response(0, "request", &why, 2)));
                    seq += 1;
                }
                // A read timeout (socket mode) just re-checks shutdown;
                // a partial line stays in `buf` and continues growing.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => break,
            }
        }
        // Dropping our sender ends the writer thread once every queued
        // job's worker has sent (and dropped its clone) — the drain.
        drop(tx);
    });
}
