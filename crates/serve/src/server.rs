//! The HTTP server: accept loop, keep-alive request routing, deadline
//! enforcement, load shedding, and drain-first graceful shutdown.
//!
//! Threading model: one accept thread polls a non-blocking listener; each
//! accepted connection gets a connection thread that serves up to
//! [`ServeConfig::keepalive_max`] requests over one socket, and — for the
//! pipeline endpoints — submits a job to the bounded [`JobQueue`] and
//! waits on a channel with a deadline. A fixed worker pool executes the
//! jobs. `/healthz` and `/metrics` are answered directly on the
//! connection thread so the service stays observable even when every
//! worker is busy.
//!
//! Resilience properties (see DESIGN.md "Resilience"):
//! - idle peers are closed silently after `idle_timeout`; a peer that
//!   stalls *mid-request* gets a 408 and a close;
//! - malformed or oversized input downgrades the connection to
//!   `Connection: close` after the error response;
//! - jobs whose deadline expired while still queued are shed (504, the
//!   handler never runs);
//! - 429/503 responses carry `Retry-After`;
//! - a panicking handler is contained by the worker pool and mapped to a
//!   structured 500 for the requester;
//! - when a [`crate::faults`] spec is configured, the injector is armed
//!   here and threaded through the cache, the request reader, the worker
//!   path, and the response writer.
//!
//! Shutdown ordering guarantees that no *accepted* request is dropped:
//! stop accepting → wait for connection threads (each waits for its job)
//! → stop the queue → drain remaining jobs → join workers.

use crate::api::{self, ApiError};
use crate::cache::{ModelStore, DEFAULT_MEM_CAPACITY};
use crate::faults::{FaultInjector, FaultSpec, TruncatedReader};
use crate::handlers;
use crate::http::{self, ReadError, Request, RequestHead, ResponseOpts};
use crate::jobs::{JobQueue, SubmitError};
use crate::metrics::{Endpoint, Metrics, RuntimeStats};
use gmap_core::cachekey::canonical_json;
use gmap_gpu::hierarchy::LaunchConfig;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Seconds advertised in `Retry-After` on transient-error responses.
const RETRY_AFTER_SECS: u64 = 1;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub listen: String,
    /// Worker threads executing pipeline jobs.
    pub workers: usize,
    /// Maximum number of *pending* jobs before submissions get 429.
    pub queue_capacity: usize,
    /// Per-request deadline; expired requests get 504 and their job is
    /// cooperatively cancelled (or shed before executing).
    pub deadline: Duration,
    /// Optional on-disk tier for the model cache.
    pub cache_dir: Option<PathBuf>,
    /// Memory-tier bound of the model cache (LRU beyond this).
    pub cache_capacity: usize,
    /// Requests served per connection before it is closed.
    pub keepalive_max: usize,
    /// How long a peer may stall *mid-request* before getting 408.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before being closed silently.
    pub idle_timeout: Duration,
    /// Deterministic fault-injection spec (`None` in production).
    pub faults: Option<FaultSpec>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(60),
            cache_dir: None,
            cache_capacity: DEFAULT_MEM_CAPACITY,
            keepalive_max: 100,
            read_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(30),
            faults: None,
        }
    }
}

/// Shared server state reachable from every thread.
pub struct ServerState {
    /// Bounded pipeline job queue.
    pub queue: JobQueue,
    /// Content-addressed model cache.
    pub store: ModelStore,
    /// Metrics registry behind `/metrics`.
    pub metrics: Metrics,
    deadline: Duration,
    keepalive_max: usize,
    read_timeout: Duration,
    idle_timeout: Duration,
    faults: Option<Arc<FaultInjector>>,
    active_connections: AtomicUsize,
}

impl ServerState {
    /// The armed fault injector, when a fault spec is configured.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// Samples the point-in-time values rendered alongside the counters.
    fn runtime_stats(&self) -> RuntimeStats {
        RuntimeStats {
            queue_depth: self.queue.depth(),
            jobs_in_flight: self.queue.in_flight(),
            models_cached: self.store.len(),
            cache_capacity: self.store.capacity(),
            active_connections: self.active_connections.load(Ordering::SeqCst),
            cache_evictions: self.store.evictions(),
            cache_quarantined: self.store.quarantined(),
            worker_panics: self.queue.panics(),
            faults_injected: self.faults.as_ref().map_or(0, |f| f.injected_total()),
        }
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    state: Arc<ServerState>,
    accept_thread: thread::JoinHandle<()>,
    worker_threads: Vec<thread::JoinHandle<()>>,
}

/// Binds the listener and starts the accept loop and worker pool.
///
/// # Errors
///
/// Fails if the listen address cannot be bound or the cache directory
/// cannot be created.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let faults = config.faults.clone().map(|spec| {
        let injector = Arc::new(FaultInjector::new(spec));
        injector.set_armed(true);
        injector
    });
    let state = Arc::new(ServerState {
        queue: JobQueue::new(config.queue_capacity),
        store: ModelStore::with_config(
            config.cache_dir.clone(),
            config.cache_capacity,
            faults.clone(),
        )?,
        metrics: Metrics::new(),
        deadline: config.deadline,
        keepalive_max: config.keepalive_max.max(1),
        read_timeout: config.read_timeout,
        idle_timeout: config.idle_timeout,
        faults,
        active_connections: AtomicUsize::new(0),
    });
    let worker_threads = (0..config.workers.max(1))
        .map(|i| {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("gmap-serve-worker-{i}"))
                .spawn(move || state.queue.worker_loop())
                .expect("spawn worker thread")
        })
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        thread::Builder::new()
            .name("gmap-serve-accept".into())
            .spawn(move || accept_loop(&listener, &state, &stop))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr,
        stop,
        state,
        accept_thread,
        worker_threads,
    })
}

impl ServerHandle {
    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for tests and the CLI.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Graceful shutdown: stop accepting, let in-flight connections
    /// finish (each waits on its job), drain the queue, join the pool.
    /// Every request accepted before the call is answered.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.accept_thread.join().expect("accept thread exits");
        while self.state.active_connections.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(2));
        }
        self.state.queue.shutdown();
        self.state.queue.wait_drained();
        for w in self.worker_threads {
            w.join().expect("worker thread exits");
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>, stop: &Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                state.active_connections.fetch_add(1, Ordering::SeqCst);
                let conn_state = Arc::clone(state);
                let spawned =
                    thread::Builder::new()
                        .name("gmap-serve-conn".into())
                        .spawn(move || {
                            handle_connection(stream, &conn_state);
                            conn_state.active_connections.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    // Could not spawn: undo the count; the stream drops
                    // and the peer sees a reset rather than a hang.
                    state.active_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Serves one connection: up to `keepalive_max` requests over the same
/// socket. Connection threads do the cheap work (parse, route, wait) and
/// leave pipeline execution to the worker pool.
///
/// Timeout policy: between requests the socket runs under `idle_timeout`
/// and an expiry closes the connection silently (the peer simply went
/// quiet); once the request line has arrived the socket runs under
/// `read_timeout` and a stall is answered with 408 before closing.
/// Malformed or oversized input always downgrades to `Connection: close`.
fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    // A `trunc_body` fault cuts the inbound byte stream for this whole
    // connection, simulating a peer that dies mid-send.
    let trunc_budget = state.faults.as_ref().and_then(|f| f.truncate_after());
    let read_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = BufReader::new(TruncatedReader::new(read_half, trunc_budget));
    let mut served = 0usize;
    while served < state.keepalive_max {
        // Idle phase: wait for the first byte of the next request. The
        // read timeout is set on `stream`, which shares the socket with
        // the reader's clone.
        if stream.set_read_timeout(Some(state.idle_timeout)).is_err() {
            return;
        }
        match reader.fill_buf() {
            Ok([]) => return, // peer closed cleanly
            Ok(_) => {}
            Err(_) => return, // idle timeout or transport error
        }
        let _ = stream.set_read_timeout(Some(state.read_timeout));
        let head = match http::read_request_head(&mut reader) {
            Ok(h) => h,
            Err(ReadError::Eof)
            | Err(ReadError::Io(_))
            | Err(ReadError::Timeout { mid_request: false }) => return,
            Err(ReadError::Timeout { mid_request: true }) => {
                let e = ApiError::new(408, "timed out reading request");
                write_reply(&mut stream, state, 408, "application/json", &e.body(), true);
                return;
            }
            Err(ReadError::Malformed(msg)) => {
                let e = ApiError::bad_request(msg);
                write_reply(&mut stream, state, 400, "application/json", &e.body(), true);
                return;
            }
            Err(ReadError::TooLarge(msg)) => {
                let e = ApiError::new(413, msg);
                write_reply(&mut stream, state, 413, "application/json", &e.body(), true);
                return;
            }
        };
        served += 1;
        let started = Instant::now();

        // Streaming ingest: the body is consumed piece by piece *inside*
        // the endpoint (it may be far larger than any materialized-body
        // limit), so it bypasses the read-whole-body path below.
        if head.method == "POST" && head.route_path() == "/v1/ingest" {
            let Some((status, body, consumed)) =
                ingest_endpoint(&head, &mut reader, state, started)
            else {
                return; // transport failed mid-body; nothing to answer
            };
            state
                .metrics
                .record_request(Endpoint::Ingest, started.elapsed(), status);
            // Keep-alive is only sound when the body was fully consumed —
            // otherwise unread trace bytes would be parsed as the next
            // request head.
            let close = !consumed || head.wants_close() || served >= state.keepalive_max;
            if !write_reply(&mut stream, state, status, "application/json", &body, close) || close {
                return;
            }
            continue;
        }

        let request = match http::read_body(&mut reader, &head) {
            Ok(body) => Request::from_parts(head, body),
            Err(ReadError::Eof)
            | Err(ReadError::Io(_))
            | Err(ReadError::Timeout { mid_request: false }) => return,
            Err(ReadError::Timeout { mid_request: true }) => {
                let e = ApiError::new(408, "timed out reading request");
                write_reply(&mut stream, state, 408, "application/json", &e.body(), true);
                return;
            }
            Err(ReadError::Malformed(msg)) => {
                let e = ApiError::bad_request(msg);
                write_reply(&mut stream, state, 400, "application/json", &e.body(), true);
                return;
            }
            Err(ReadError::TooLarge(msg)) => {
                let e = ApiError::new(413, msg);
                write_reply(&mut stream, state, 413, "application/json", &e.body(), true);
                return;
            }
        };
        let endpoint = classify(&request);
        let (status, body, content_type) = route(&request, state, started);
        state
            .metrics
            .record_request(endpoint, started.elapsed(), status);
        let close = request.wants_close() || served >= state.keepalive_max;
        if !write_reply(&mut stream, state, status, content_type, &body, close) || close {
            return;
        }
    }
}

fn classify(request: &Request) -> Endpoint {
    match request.path.as_str() {
        "/v1/profile" => Endpoint::Profile,
        "/v1/clone" => Endpoint::Clone,
        "/v1/evaluate" => Endpoint::Evaluate,
        "/v1/analyze" => Endpoint::Analyze,
        _ => Endpoint::Other,
    }
}

/// `POST /v1/ingest`: stream the request body — the raw trace, text or
/// binary, usually chunked — into an [`gmap_ingest::Ingestor`] on the
/// connection thread, then finalize (drain, profile, report) on a worker
/// through the normal queue/deadline machinery.
///
/// Returns `(status, body, body_fully_consumed)`, or `None` when the
/// transport died mid-body and no response can be delivered. The third
/// element gates keep-alive: an error that abandons the body forces a
/// close.
fn ingest_endpoint<R: BufRead>(
    head: &RequestHead,
    reader: &mut R,
    state: &Arc<ServerState>,
    started: Instant,
) -> Option<(u16, String, bool)> {
    let err = |e: ApiError| Some((e.status, e.body(), false));
    let query = match api::parse_ingest_query(&head.path) {
        Ok(q) => q,
        Err(e) => return err(e),
    };
    let kind = match http::body_kind(head) {
        Ok(k) => k,
        Err(ReadError::Malformed(msg)) => return err(ApiError::bad_request(msg)),
        Err(_) => return None,
    };
    let mut body = match http::BodyReader::new(reader, kind, http::MAX_INGEST_BODY_BYTES) {
        Ok(b) => b,
        Err(ReadError::TooLarge(msg)) => return err(ApiError::new(413, msg)),
        Err(_) => return None,
    };
    let launch = LaunchConfig::new(query.grid, query.block);
    let mut ing =
        gmap_ingest::Ingestor::new(&query.name, launch, gmap_ingest::IngestConfig::default());
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        // The deadline covers the whole request, including a slow
        // uploader: a stream that cannot finish in time is cut off here
        // rather than occupying the connection thread indefinitely.
        if started.elapsed() >= state.deadline {
            state
                .metrics
                .deadline_timeouts
                .fetch_add(1, Ordering::Relaxed);
            return err(ApiError::new(
                504,
                "deadline exceeded while streaming trace",
            ));
        }
        let n = match body.next_piece(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(ReadError::Malformed(msg)) => return err(ApiError::bad_request(msg)),
            Err(ReadError::TooLarge(msg)) => return err(ApiError::new(413, msg)),
            Err(ReadError::Timeout { .. }) => {
                return err(ApiError::new(408, "timed out reading trace body"))
            }
            Err(ReadError::Eof) | Err(ReadError::Io(_)) => return None,
        };
        state
            .metrics
            .ingest_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        if let Err(e) = ing.push_bytes(&buf[..n]) {
            // Parse or overflow error: the rest of the body is abandoned,
            // so the connection must close after the error response.
            return err(ApiError::bad_request(format!("trace rejected: {e}")));
        }
    }
    state.metrics.ingest_streams.fetch_add(1, Ordering::Relaxed);
    // Whatever the upload consumed of the budget is gone; the finalize
    // job runs under the remainder.
    let (status, response) = run_job(state, started, ing, |state, ing, cancel| {
        handlers::ingest_finalize(&state.store, ing, cancel)
    });
    Some((status, response, true))
}

/// Renders and writes one response. Returns `false` when the connection
/// must not serve further requests (write failure or an injected reset).
/// Transient 408/429/500/503/504 responses carry a `Retry-After` hint
/// for well-behaved clients (every `/v1/*` endpoint is idempotent, and
/// a request the server timed out reading is safe to resend).
fn write_reply(
    stream: &mut TcpStream,
    state: &Arc<ServerState>,
    status: u16,
    content_type: &str,
    body: &str,
    close: bool,
) -> bool {
    let opts = ResponseOpts {
        close,
        retry_after: matches!(status, 408 | 429 | 500 | 503 | 504).then_some(RETRY_AFTER_SECS),
    };
    let mut buf = Vec::with_capacity(body.len() + 128);
    if http::write_response_opts(&mut buf, status, content_type, body, opts).is_err() {
        return false;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // A `reset` fault drops the connection after a fault-chosen prefix of
    // the response, simulating a mid-response network reset.
    if let Some(f) = &state.faults {
        if let Some(n) = f.reset_after(buf.len()) {
            let _ = stream.write_all(&buf[..n]);
            let _ = stream.flush();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return false;
        }
    }
    stream.write_all(&buf).is_ok() && stream.flush().is_ok()
}

/// Dispatches a parsed request to its endpoint and renders the response
/// body. Returns `(status, body, content_type)`. The request's deadline
/// runs from `started`.
fn route(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
) -> (u16, String, &'static str) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string(), "application/json"),
        ("GET", "/metrics") => {
            let text = state.metrics.render(state.runtime_stats());
            (200, text, "text/plain; version=0.0.4")
        }
        ("POST", "/v1/profile") => profile_endpoint(request, state, started),
        ("POST", "/v1/analyze") => {
            // Pure static analysis: answered right here on the connection
            // thread — no queue slot, no worker, no deadline machinery.
            match parse_body::<api::AnalyzeRequest>(request).and_then(|req| handlers::analyze(&req))
            {
                Ok(resp) => {
                    let races = handlers::race_finding_count(&resp.report);
                    if races > 0 {
                        state
                            .metrics
                            .analyze_races
                            .fetch_add(races, Ordering::Relaxed);
                    }
                    (200, canonical_json(&resp), "application/json")
                }
                Err(e) => (e.status, e.body(), "application/json"),
            }
        }
        ("POST", "/v1/clone") => json_endpoint(request, state, started, |state, req, cancel| {
            handlers::clone_model(&state.store, &req, cancel)
        }),
        ("POST", "/v1/evaluate") => json_endpoint(request, state, started, |state, req, cancel| {
            handlers::evaluate(&state.store, &req, cancel)
        }),
        ("GET", _) | ("POST", _) => {
            let e = ApiError::new(404, format!("no such route {}", request.path));
            (404, e.body(), "application/json")
        }
        (method, _) => {
            let e = ApiError::new(405, format!("method {method} not supported"));
            (405, e.body(), "application/json")
        }
    }
}

/// Parses a JSON request body into its wire type.
fn parse_body<Req: Deserialize>(request: &Request) -> Result<Req, ApiError> {
    let body = request.body_utf8().map_err(ApiError::bad_request)?;
    serde_json::from_str(body)
        .map_err(|e| ApiError::bad_request(format!("invalid request body: {e}")))
}

/// `POST /v1/profile`: the static-analysis admission gate runs here on
/// the connection thread, *before* the job queue — an inadmissible spec
/// is answered 422 without ever occupying a queue slot or a worker.
fn profile_endpoint(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
) -> (u16, String, &'static str) {
    let parsed: api::ProfileRequest = match parse_body(request) {
        Ok(r) => r,
        Err(e) => return (e.status, e.body(), "application/json"),
    };
    match handlers::admission_report(&parsed) {
        Ok(report) => {
            let races = handlers::race_finding_count(&report);
            if races > 0 {
                state
                    .metrics
                    .analyze_races
                    .fetch_add(races, Ordering::Relaxed);
            }
            if let Err(e) = handlers::gate_report(&report) {
                state
                    .metrics
                    .analyze_rejects
                    .fetch_add(1, Ordering::Relaxed);
                return (e.status, e.body(), "application/json");
            }
        }
        Err(e) => return (e.status, e.body(), "application/json"),
    }
    let (status, body) = run_job(state, started, parsed, |state, req, cancel| {
        handlers::profile(&state.store, &state.metrics, &req, cancel)
    });
    (status, body, "application/json")
}

/// Parses the body, runs `handler` on the worker pool with backpressure
/// and a deadline, and renders the outcome.
fn json_endpoint<Req, Resp, F>(
    request: &Request,
    state: &Arc<ServerState>,
    started: Instant,
    handler: F,
) -> (u16, String, &'static str)
where
    Req: Deserialize + Send + 'static,
    Resp: Serialize,
    F: FnOnce(&ServerState, Req, &AtomicBool) -> Result<Resp, ApiError> + Send + 'static,
{
    let parsed: Req = match parse_body(request) {
        Ok(r) => r,
        Err(e) => return (e.status, e.body(), "application/json"),
    };
    let (status, body) = run_job(state, started, parsed, handler);
    (status, body, "application/json")
}

/// Submits one handler invocation to the queue and waits for its result
/// under what is left of the configured deadline for a request whose
/// head arrived at `started`.
fn run_job<Req, Resp, F>(
    state: &Arc<ServerState>,
    started: Instant,
    parsed: Req,
    handler: F,
) -> (u16, String)
where
    Req: Send + 'static,
    Resp: Serialize,
    F: FnOnce(&ServerState, Req, &AtomicBool) -> Result<Resp, ApiError> + Send + 'static,
{
    let deadline = state.deadline.saturating_sub(started.elapsed());
    let (tx, rx) = mpsc::channel();
    let cancel = Arc::new(AtomicBool::new(false));
    let job_cancel = Arc::clone(&cancel);
    let job_state = Arc::clone(state);
    let enqueued = Instant::now();
    let submitted = state.queue.submit(Box::new(move || {
        // Load shedding: if the deadline expired while this job sat in
        // the queue, the requester has already been answered 504 — do
        // not burn a worker executing a result nobody will read.
        if enqueued.elapsed() >= deadline {
            job_state.metrics.jobs_shed.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(Err(ApiError::new(504, "deadline expired in queue")));
            return;
        }
        if let Some(f) = &job_state.faults {
            // Injected slow handler: occupies this worker like real
            // heavy work would.
            if let Some(pause) = f.slow_for() {
                thread::sleep(pause);
            }
            // Injected handler panic: contained by the worker loop; the
            // requester sees the channel close and answers 500.
            f.maybe_panic();
        }
        let result = handler(&job_state, parsed, &job_cancel).map(|resp| canonical_json(&resp));
        // The requester may have timed out and gone away; that's fine.
        let _ = tx.send(result);
    }));
    match submitted {
        Err(SubmitError::Full) => {
            state.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
            let e = ApiError::new(429, "job queue is full, retry later");
            (e.status, e.body())
        }
        Err(SubmitError::ShuttingDown) => {
            state
                .metrics
                .rejected_shutdown
                .fetch_add(1, Ordering::Relaxed);
            let e = ApiError::new(503, "service is shutting down");
            (e.status, e.body())
        }
        Ok(()) => match rx.recv_timeout(deadline) {
            Ok(Ok(body)) => (200, body),
            Ok(Err(e)) => (e.status, e.body()),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                cancel.store(true, Ordering::Relaxed);
                state
                    .metrics
                    .deadline_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                let e = ApiError::new(504, "deadline exceeded");
                (e.status, e.body())
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The job dropped `tx` without sending: the handler
                // panicked and the worker pool contained it. Structured
                // 500 instead of a hung or reset connection.
                let e = ApiError::new(500, "internal error: handler panicked");
                (e.status, e.body())
            }
        },
    }
}
