//! The `serve_mix` workload: a closed loop of keep-alive clients against
//! a real single-node `gmap serve` child process.
//!
//! The request sequence has a fixed length and is generated from the
//! seed. It mixes `profile` (repeats hit the model cache), `clone`,
//! `evaluate` (fig6a-shaped L1 grids and a few fig6d-shaped L2 +
//! stream-prefetch points, with recurring seeds so the server's capture
//! cache both hits and misses) and chunked `ingest` of text traces the
//! runner writes from executed kernels. Every request kind appears a
//! fixed number of times with evenly used parameters, so the seed changes
//! the order and the clone seeds, not the amount of work.
//!
//! After the timed phase the server is stopped and every 200 response is
//! compared byte for byte with the direct library call.
//!
//! The mix — the shares of each kind, the models, the grids and their
//! weights, the two recurring seeds — is an assumption, not measured
//! traffic: nothing in the repository records how the service is used.
//! Each number is a choice made so that the round exercises every path
//! with enough samples; the reason is given where the number is set.
//! The figures this workload reports describe this mix only.

use crate::host::peak_rss_mb;
use crate::report::{Metric, Outcome};
use crate::spans::Recorder;
use crate::stats;
use gmap_core::application::AppProfile;
use gmap_core::cachekey::{canonical_json, key_of};
use gmap_core::generate::generate_streams;
use gmap_core::{miniaturize, ProfilerConfig};
use gmap_gpu::app::Application;
use gmap_gpu::hierarchy::LaunchConfig;
use gmap_gpu::schedule::WarpStreamEvent;
use gmap_gpu::workloads::{self, Scale};
use gmap_serve::api::{
    self, CloneRequest, CloneResponse, EvaluateRequest, EvaluateResponse, GridPoint,
    IngestResponse, KernelCloneStats, ProfileRequest, ProfileResponse, StreamPoint,
};
use gmap_serve::handlers;
use gmap_trace::AccessKind;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Requests in one round. 45% of 2010 is 904 evaluates, which leaves
/// ten evaluate latencies beyond their p99 (902 is the least that does).
pub const DEFAULT_REQUESTS: usize = 2010;
/// Server spawns per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Chunk size of the chunked ingest uploads.
const INGEST_CHUNK: usize = 64 * 1024;

/// Models the sequence profiles: every workload at tiny, plus
/// [`SMALL_MODELS`] at small.
fn profile_pool() -> Vec<(&'static str, Scale)> {
    let mut pool: Vec<(&'static str, Scale)> =
        workloads::NAMES.iter().map(|n| (*n, Scale::Tiny)).collect();
    for name in SMALL_MODELS {
        pool.push((name, Scale::Small));
    }
    pool
}

/// Workloads also profiled at small scale: an arbitrary four, enough to
/// put small-scale profile misses in the round. kmeans is left out: its
/// small profile costs about ten times any other's.
const SMALL_MODELS: [&str; 4] = ["backprop", "scalarprod", "srad", "blackscholes"];
/// Tiny workloads the sequence clones and evaluates: an arbitrary eight,
/// kmeans among them because it is the slowest to capture. Eight models
/// × two seeds keep most evaluates capture-cache hits, with one miss per
/// (model, seed, capture configuration).
const EVAL_MODELS: [&str; 8] = [
    "kmeans",
    "backprop",
    "bfs",
    "srad",
    "scalarprod",
    "hotspot",
    "lu",
    "heartwall",
];
/// Tiny workloads whose executed traces the sequence ingests: three
/// arbitrary ones.
const INGEST_WORKLOADS: [&str; 3] = ["scalarprod", "backprop", "blackscholes"];

/// Endpoint of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `POST /v1/profile`.
    Profile,
    /// `POST /v1/clone`.
    Clone,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/ingest`, chunked.
    Ingest,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Profile => "serve.profile",
            Kind::Clone => "serve.clone",
            Kind::Evaluate => "serve.evaluate",
            Kind::Ingest => "serve.ingest",
        }
    }
}

/// One request of the sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Endpoint.
    pub kind: Kind,
    /// Request path (with the query string for ingest).
    pub path: String,
    /// JSON body; for ingest, the index of the trace in [`ingest_traces`].
    pub body: String,
    /// Index into the profile pool of the model the request names.
    pub model: Option<usize>,
    /// Whether this is the first profile of its model (a cache miss).
    pub first: bool,
}

/// SplitMix64: the benchmark's own seeded generator, independent of the
/// program's.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `count` items drawn evenly from `options`: each option appears
    /// ⌊count/len⌋ or ⌈count/len⌉ times, in shuffled order.
    fn balanced<T: Clone>(&mut self, options: &[T], count: usize) -> Vec<T> {
        let mut order: Vec<usize> = (0..options.len()).collect();
        self.shuffle(&mut order);
        let mut out: Vec<T> = (0..count)
            .map(|i| options[order[i % order.len()]].clone())
            .collect();
        self.shuffle(&mut out);
        out
    }
}

/// The fig6a grid as service grid points, plus the slices and the
/// fig6d-shaped points the sequence draws from: `(metric, grid)`.
fn grid_variants() -> Vec<(&'static str, Vec<GridPoint>)> {
    let l1 = |size_kb: u64, assoc: u32, line: u64| GridPoint {
        level: None,
        size_kb,
        assoc,
        line: Some(line),
        policy: None,
        stride_prefetch: None,
        stream_prefetch: None,
    };
    let mut fig6a = Vec::new();
    for size_kb in [8u64, 16, 32, 64, 128] {
        for assoc in [1u32, 4, 16] {
            for line in [32u64, 128] {
                fig6a.push(l1(size_kb, assoc, line));
            }
        }
    }
    let slice = |assoc: u32, line: u64| {
        [8u64, 16, 32, 64, 128]
            .iter()
            .map(|&s| l1(s, assoc, line))
            .collect::<Vec<_>>()
    };
    let fig6d: Vec<GridPoint> = [(512u64, 2u32), (512, 4), (1024, 2), (1024, 4)]
        .iter()
        .map(|&(size_kb, degree)| GridPoint {
            level: Some("l2".into()),
            size_kb,
            assoc: 8,
            line: Some(128),
            policy: None,
            stride_prefetch: None,
            stream_prefetch: Some(StreamPoint {
                streams: None,
                window: 16,
                degree,
            }),
        })
        .collect();
    vec![
        ("l1_miss_pct", fig6a),
        ("l1_miss_pct", slice(4, 128)),
        ("l1_miss_pct", slice(16, 32)),
        ("l2_miss_pct", fig6d),
    ]
}

/// The seeded request sequence: `n` requests, 30% profile, 15% clone,
/// 45% evaluate, 10% ingest. Every clone or evaluate comes after the
/// first profile of its model.
///
/// The shares are assumed, not measured. Evaluate gets the largest so
/// that its p99 is defined (see [`DEFAULT_REQUESTS`]). Profile gets 30%
/// so each of the 22 models is missed once and then hit about 26 times.
/// Clone gets half of profile's share, enough for its p50. Ingest gets
/// 10%: an upload costs about twenty median evaluates, and at 10% ingest
/// already holds about a fifth of the connections' busy time.
pub fn sequence(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix::new(seed);
    let pool = profile_pool();
    let pool_index = |name: &str| {
        pool.iter()
            .position(|(n, s)| *n == name && *s == Scale::Tiny)
            .expect("evaluated models are in the pool")
    };
    // Two recurring clone seeds per run (two rather than one so the seed
    // also varies the work): each (model, seed) pair is one capture-cache
    // miss, then hits.
    let seeds = [rng.next_u64() % 10_000 + 1, rng.next_u64() % 10_000 + 1];
    let (n_clone, n_eval, n_ingest) = (n * 15 / 100, n * 45 / 100, n / 10);
    let n_profile = n - n_clone - n_eval - n_ingest;

    let profile = |m: usize| {
        let (name, scale) = pool[m];
        Request {
            kind: Kind::Profile,
            path: "/v1/profile".into(),
            body: canonical_json(&ProfileRequest {
                workload: Some(name.into()),
                scale: Some(api::scale_name(scale).into()),
                spec: None,
            }),
            model: Some(m),
            first: false,
        }
    };
    let mut reqs = Vec::with_capacity(n);
    for m in rng.balanced(&(0..pool.len()).collect::<Vec<_>>(), n_profile) {
        reqs.push(profile(m));
    }
    let model_id = |m: usize| handlers::model_id_for(pool[m].0, api::scale_name(pool[m].1));
    let mut clone_opts = Vec::new();
    for name in EVAL_MODELS {
        for factor in [1.0, 0.5] {
            for seed in seeds {
                clone_opts.push((pool_index(name), factor, seed));
            }
        }
    }
    for (m, factor, seed) in rng.balanced(&clone_opts, n_clone) {
        reqs.push(Request {
            kind: Kind::Clone,
            path: "/v1/clone".into(),
            body: canonical_json(&CloneRequest {
                model_id: model_id(m),
                factor: Some(factor),
                seed: Some(seed),
            }),
            model: Some(m),
            first: false,
        });
    }
    let variants = grid_variants();
    let mut eval_opts = Vec::new();
    for name in EVAL_MODELS {
        for seed in seeds {
            // Assumed weights: four in five evaluates use a fig6a-shaped
            // grid, one in five the fig6d-shaped points, so the L2 +
            // stream-prefetch path is in the round without dominating it.
            for (v, weight) in [(0usize, 3usize), (1, 3), (2, 2), (3, 2)] {
                for _ in 0..weight {
                    eval_opts.push((pool_index(name), seed, v));
                }
            }
        }
    }
    for (m, seed, v) in rng.balanced(&eval_opts, n_eval) {
        let (metric, grid) = &variants[v];
        reqs.push(Request {
            kind: Kind::Evaluate,
            path: "/v1/evaluate".into(),
            body: canonical_json(&EvaluateRequest {
                model_id: model_id(m),
                kernel: None,
                metric: Some((*metric).into()),
                seed: Some(seed),
                grid: grid.clone(),
            }),
            model: Some(m),
            first: false,
        });
    }
    let launches: Vec<(u32, u32)> = INGEST_WORKLOADS
        .iter()
        .map(|w| {
            let k = workloads::by_name(w, Scale::Tiny).expect("known workload");
            (k.launch.num_blocks(), k.launch.threads_per_block())
        })
        .collect();
    for t in rng.balanced(&(0..INGEST_WORKLOADS.len()).collect::<Vec<_>>(), n_ingest) {
        let (grid, block) = launches[t];
        reqs.push(Request {
            kind: Kind::Ingest,
            path: format!(
                "/v1/ingest?grid={grid}&block={block}&name={}",
                INGEST_WORKLOADS[t]
            ),
            body: t.to_string(),
            model: None,
            first: false,
        });
    }
    rng.shuffle(&mut reqs);
    // Move each model's first profile ahead of the model's first use (a
    // sequence too short to profile every model turns the first use into
    // the profile).
    for m in 0..pool.len() {
        let Some(u) = reqs.iter().position(|r| r.model == Some(m)) else {
            continue;
        };
        match reqs
            .iter()
            .position(|r| r.model == Some(m) && r.kind == Kind::Profile)
        {
            Some(p) => reqs.swap(u, p),
            None => reqs[u] = profile(m),
        }
        reqs[u].first = true;
    }
    reqs
}

/// The text traces the ingest requests upload, one per
/// [`INGEST_WORKLOADS`] entry: each workload executed at tiny scale and
/// written with `gmap_trace::io::write_text`.
pub fn ingest_traces() -> Vec<Vec<u8>> {
    INGEST_WORKLOADS
        .iter()
        .map(|w| {
            let kernel = workloads::by_name(w, Scale::Tiny).expect("known workload");
            let entries = gmap_gpu::exec::execute_kernel(&kernel).thread_entries();
            let mut out = Vec::new();
            gmap_trace::io::write_text(&mut out, &entries).expect("writing to memory");
            out
        })
        .collect()
}

/// A keep-alive HTTP/1.1 connection.
struct Conn {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    fn new(addr: &str) -> Self {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    /// Sends one request (`chunked` bodies use chunked transfer encoding)
    /// and reads the response: `(status, body)`.
    fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        chunked: bool,
    ) -> std::io::Result<(u16, String)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let result = exchange(reader, &self.addr, method, path, body, chunked);
        match &result {
            Ok((_, _, keep)) if *keep => {}
            _ => self.stream = None,
        }
        result.map(|(status, body, _)| (status, body))
    }
}

fn exchange(
    reader: &mut BufReader<TcpStream>,
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    chunked: bool,
) -> std::io::Result<(u16, String, bool)> {
    let framing = if chunked {
        "Transfer-Encoding: chunked".to_string()
    } else {
        format!("Content-Length: {}", body.len())
    };
    let mut msg =
        format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n{framing}\r\n\r\n").into_bytes();
    if chunked {
        for piece in body.chunks(INGEST_CHUNK) {
            msg.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            msg.extend_from_slice(piece);
            msg.extend_from_slice(b"\r\n");
        }
        msg.extend_from_slice(b"0\r\n\r\n");
    } else {
        msg.extend_from_slice(body);
    }
    reader.get_mut().write_all(&msg)?;
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let (mut length, mut keep) = (None, true);
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in headers"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((k, v)) = l.split_once(':') {
            let (k, v) = (k.trim(), v.trim());
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse::<usize>().ok();
            } else if k.eq_ignore_ascii_case("connection") {
                keep = !v.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut buf = vec![0u8; length.ok_or_else(|| bad("no Content-Length"))?];
    reader.read_exact(&mut buf)?;
    let body = String::from_utf8(buf).map_err(|_| bad("response is not UTF-8"))?;
    Ok((status, body, keep))
}

/// A `gmap serve` child process; killed and reaped on drop if not
/// stopped cleanly.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Held open until the child exits: the server reports its shutdown
    /// on stdout and must not meet a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns the server and waits until it listens and answers
    /// `/healthz`.
    fn spawn(gmap: &Path, workers: usize) -> Result<Server, String> {
        let mut child = Command::new(gmap)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .args(["--keepalive-max", "1000000"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gmap.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server banner: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("gmap-serve listening on ")
            .ok_or_else(|| format!("unexpected server banner {line:?}"))?
            .to_string();
        match Conn::new(&server.addr).send("GET", "/healthz", b"", false) {
            Ok((200, _)) => Ok(server),
            other => Err(format!("server health check failed: {other:?}")),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Closes stdin (the server's stop signal) and waits for it to drain
    /// and exit.
    fn stop(mut self) {
        self.stdin = None;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills whatever did not drain in time.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The `/metrics` counters the benchmark reports deltas of.
const COUNTERS: [&str; 5] = [
    "gmap_cache_hits_total",
    "gmap_cache_misses_total",
    "gmap_queue_rejected_total",
    "gmap_jobs_shed_total",
    "gmap_deadline_timeouts_total",
];

/// Reads [`COUNTERS`] from one fetch of `/metrics`; a counter that
/// cannot be read is left out.
fn scrape(addr: &str) -> BTreeMap<&'static str, f64> {
    let Ok((200, body)) = Conn::new(addr).send("GET", "/metrics", b"", false) else {
        return BTreeMap::new();
    };
    COUNTERS
        .iter()
        .filter_map(|&c| Some((c, gmap_serve::metrics::scrape(&body, c)?)))
        .collect()
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    status: u16,
    body: String,
    latency_s: f64,
}

/// Per-model readiness: set once the model's first profile completed.
struct Gate {
    done: Mutex<Vec<bool>>,
    cv: Condvar,
}

/// Sends the whole sequence over `conns` closed-loop connections.
/// Returns per-request samples (status 0 = transport error) and the
/// wall time.
fn round(
    rec: &Recorder,
    addr: &str,
    seq: &[Request],
    traces: &[Vec<u8>],
    conns: usize,
    models: usize,
) -> (Vec<Sample>, f64) {
    let next = AtomicUsize::new(0);
    let gate = Gate {
        done: Mutex::new(vec![false; models]),
        cv: Condvar::new(),
    };
    let slots: Vec<Mutex<Option<Sample>>> = seq.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns {
            scope.spawn(|| {
                let mut conn = Conn::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = seq.get(i) else { break };
                    if let (Some(m), false) = (req.model, req.first) {
                        let mut done = gate.done.lock().expect("gate lock");
                        while !done[m] {
                            done = gate.cv.wait(done).expect("gate lock");
                        }
                    }
                    let (body, chunked) = match req.kind {
                        Kind::Ingest => {
                            let t: usize = req.body.parse().expect("trace index");
                            (traces[t].as_slice(), true)
                        }
                        _ => (req.body.as_bytes(), false),
                    };
                    let t0 = Instant::now();
                    let res = rec.span(req.kind.span(), None, i as u64, |_| {
                        conn.send("POST", &req.path, body, chunked)
                    });
                    let latency_s = t0.elapsed().as_secs_f64();
                    let (status, body) = res.unwrap_or_else(|e| (0, e.to_string()));
                    *slots[i].lock().expect("slot lock") = Some(Sample {
                        status,
                        body,
                        latency_s,
                    });
                    if let (Some(m), true) = (req.model, req.first) {
                        gate.done.lock().expect("gate lock")[m] = true;
                        gate.cv.notify_all();
                    }
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let samples = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every request sent")
        })
        .collect();
    (samples, wall)
}

/// Statistics of one kernel's generated streams, as `/v1/clone`
/// reports them.
fn clone_stats(kernel: &str, streams: &[gmap_gpu::schedule::WarpStream]) -> KernelCloneStats {
    let mut s = KernelCloneStats {
        kernel: kernel.to_string(),
        warps: streams.len(),
        accesses: 0,
        reads: 0,
        writes: 0,
        lines: 0,
        syncs: 0,
    };
    for event in streams.iter().flat_map(|w| &w.events) {
        match event {
            WarpStreamEvent::Access(a) => {
                s.accesses += 1;
                s.lines += a.lines.len() as u64;
                match a.kind {
                    AccessKind::Read => s.reads += 1,
                    AccessKind::Write => s.writes += 1,
                }
            }
            WarpStreamEvent::Sync => s.syncs += 1,
        }
    }
    s
}

/// The expected response body of a request, from direct library calls.
fn expected(
    req: &Request,
    pool: &[(&str, Scale)],
    models: &[Option<AppProfile>],
    traces: &[Vec<u8>],
) -> String {
    let model = |m: usize| {
        models[m]
            .as_ref()
            .expect("models of the sequence are built")
    };
    match req.kind {
        Kind::Profile => {
            let m = req.model.expect("profiles name a model");
            canonical_json(&ProfileResponse {
                model_id: handlers::model_id_for(pool[m].0, api::scale_name(pool[m].1)),
                cached: !req.first,
                stats: handlers::profile_stats(model(m)),
            })
        }
        Kind::Clone => {
            let r: CloneRequest = serde_json::from_str(&req.body).expect("own request parses");
            let factor = r.factor.unwrap_or(1.0);
            let seed = r.seed.unwrap_or(api::DEFAULT_SEED);
            let kernels = model(req.model.expect("clones name a model"))
                .kernels
                .iter()
                .map(|p| {
                    let mini = miniaturize(p, factor).expect("valid factor");
                    clone_stats(&p.name, &generate_streams(&mini, seed))
                })
                .collect();
            canonical_json(&CloneResponse {
                model_id: r.model_id,
                factor,
                seed,
                kernels,
            })
        }
        Kind::Evaluate => {
            let r: EvaluateRequest = serde_json::from_str(&req.body).expect("own request parses");
            let seed = r.seed.unwrap_or(api::DEFAULT_SEED);
            let configs: Vec<_> = r
                .grid
                .iter()
                .map(|p| handlers::grid_config(p, seed).expect("valid grid point"))
                .collect();
            let metric = api::parse_metric(r.metric.as_deref()).expect("valid metric");
            let profile = &model(req.model.expect("evaluates name a model")).kernels[0];
            let eval = gmap_bench::evaluate_profile(profile, &configs, metric, seed, None)
                .expect("not cancelled");
            canonical_json(&EvaluateResponse {
                model_id: r.model_id,
                kernel: 0,
                metric: r.metric.unwrap_or_else(|| "l1_miss_pct".into()),
                single_pass: eval.single_pass,
                values: eval.values,
            })
        }
        Kind::Ingest => {
            let t: usize = req.body.parse().expect("trace index");
            let q = api::parse_ingest_query(&req.path).expect("own query parses");
            let outcome = gmap_ingest::ingest_reader(
                &q.name,
                traces[t].as_slice(),
                &LaunchConfig::new(q.grid, q.block),
                gmap_ingest::IngestConfig::default(),
                INGEST_CHUNK,
            )
            .expect("trace ingests");
            let model = AppProfile {
                name: outcome.profile.name.clone(),
                kernels: vec![outcome.profile],
            };
            canonical_json(&IngestResponse {
                model_id: key_of(&model),
                stats: handlers::profile_stats(&model),
                report: outcome.report,
                ingest: outcome.stats,
            })
        }
    }
}

/// Compares every 200 response with its library call; distinct request
/// bodies are computed once. Returns the mismatches.
fn verify(seq: &[Request], samples: &[Sample], traces: &[Vec<u8>], threads: usize) -> Vec<String> {
    let pool = profile_pool();
    let used: Vec<usize> = {
        let mut v: Vec<usize> = seq.iter().filter_map(|r| r.model).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let built = gmap_bench::parallel_map(&used, threads, |&m| {
        let (name, scale) = pool[m];
        let kernel = workloads::by_name(name, scale).expect("known workload");
        gmap_core::profile_application(
            &Application::new(name, vec![kernel]),
            &ProfilerConfig::default(),
        )
    });
    let mut models: Vec<Option<AppProfile>> = vec![None; pool.len()];
    for (m, model) in used.into_iter().zip(built) {
        models[m] = Some(model);
    }
    // One representative per distinct (kind, path, body, first).
    let mut distinct: BTreeMap<(Kind, &str, &str, bool), usize> = BTreeMap::new();
    for (i, r) in seq.iter().enumerate() {
        distinct
            .entry((r.kind, r.path.as_str(), r.body.as_str(), r.first))
            .or_insert(i);
    }
    let reps: Vec<usize> = distinct.values().copied().collect();
    let want = gmap_bench::parallel_map(&reps, threads, |&i| {
        expected(&seq[i], &pool, &models, traces)
    });
    let want: BTreeMap<(Kind, &str, &str, bool), &String> =
        distinct.keys().copied().zip(want.iter()).collect();
    let mut bad = Vec::new();
    for (i, (r, s)) in seq.iter().zip(samples).enumerate() {
        if s.status != 200 {
            continue;
        }
        let w = want[&(r.kind, r.path.as_str(), r.body.as_str(), r.first)];
        if &s.body != w {
            bad.push(format!(
                "request {i} ({:?} {}): response differs from the library call",
                r.kind, r.path
            ));
        }
    }
    bad
}

/// Options of a serve run.
pub struct ServeOpts<'a> {
    /// Sequence seed.
    pub seed: u64,
    /// Requests per round.
    pub requests: usize,
    /// Server workers and client connections.
    pub threads: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `gmap` binary.
    pub gmap: &'a Path,
    /// Where the ingest traces are written.
    pub out_dir: PathBuf,
}

/// What one round measured.
struct RoundResult {
    samples: Vec<Sample>,
    wall_s: f64,
    peak_rss_mb: f64,
    counters: BTreeMap<&'static str, f64>,
}

fn run_round(
    rec: &Recorder,
    server: Server,
    opts: &ServeOpts,
    seq: &[Request],
    traces: &[Vec<u8>],
) -> RoundResult {
    let before = scrape(&server.addr);
    let (samples, wall_s) = round(
        rec,
        &server.addr,
        seq,
        traces,
        opts.threads,
        profile_pool().len(),
    );
    let after = scrape(&server.addr);
    let peak_rss_mb = peak_rss_mb(&server.pid()).unwrap_or(0.0);
    server.stop();
    let counters = after
        .iter()
        .map(|(&k, v)| (k, v - before.get(k).copied().unwrap_or(0.0)))
        .collect();
    RoundResult {
        samples,
        wall_s,
        peak_rss_mb,
        counters,
    }
}

/// Runs the serve workload: trace writing (untimed), set-up (server
/// spawns), one timed round — a traced run adds a traced round on a
/// fresh server — then verification against the library.
pub fn run(opts: &ServeOpts) -> Outcome {
    let seq = sequence(opts.seed, opts.requests);
    let traces = ingest_traces();
    // The runner writes its traces to disk and uploads them from there.
    let trace_dir = opts.out_dir.join("traces");
    let mut on_disk = Vec::with_capacity(traces.len());
    for (w, bytes) in INGEST_WORKLOADS.iter().zip(&traces) {
        let path = trace_dir.join(format!("{w}.trace"));
        let written = std::fs::create_dir_all(&trace_dir)
            .and_then(|()| std::fs::write(&path, bytes))
            .and_then(|()| std::fs::read(&path));
        match written {
            Ok(b) => on_disk.push(b),
            Err(e) => return Outcome::refused(format!("cannot write {}: {e}", path.display())),
        }
    }

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let s = match Server::spawn(opts.gmap, opts.threads) {
            Ok(s) => s,
            Err(e) => return Outcome::refused(e),
        };
        setup.push(t.elapsed().as_secs_f64());
        if let Some(old) = server.replace(s) {
            Server::stop(old);
        }
    }
    let untraced = Recorder::new(false);
    let plain = run_round(
        &untraced,
        server.expect("spawned above"),
        opts,
        &seq,
        &on_disk,
    );
    let mut rounds = vec![plain];
    let traced = Recorder::new(true);
    if opts.trace {
        let s = match Server::spawn(opts.gmap, opts.threads) {
            Ok(s) => s,
            Err(e) => return Outcome::refused(e),
        };
        rounds.push(run_round(&traced, s, opts, &seq, &on_disk));
    }

    let mut problems = Vec::new();
    for r in &rounds {
        problems.extend(verify(&seq, &r.samples, &on_disk, opts.threads));
    }
    let attempted = (seq.len() * rounds.len()) as u64;
    let failed = rounds
        .iter()
        .flat_map(|r| &r.samples)
        .filter(|s| !(200..300).contains(&s.status))
        .count() as u64;
    let mut out = Outcome::new(problems, attempted, failed);
    out.note("requests", seq.len() as f64);
    out.note("connections", opts.threads as f64);
    let rate = |r: &RoundResult| r.samples.len() as f64 / r.wall_s.max(1e-9);
    let first = &rounds[0];
    let latencies_ms: Vec<f64> = first.samples.iter().map(|s| s.latency_s * 1e3).collect();
    let all = stats::summarize(&latencies_ms);
    out.note("p99_ms", all.p99.unwrap_or(0.0));
    if !opts.trace {
        out.metrics = vec![
            Metric::new("setup_s", "s", stats::median(&setup), setup.len()),
            Metric::new("ops_per_s", "1/s", rate(first), first.samples.len()),
            Metric::new("p50_ms", "ms", all.p50, all.count),
            Metric::new("peak_rss_mb", "MB", first.peak_rss_mb, 1),
        ];
        return out;
    }

    // Traced round: per-endpoint latencies from its spans.
    let t = &rounds[1];
    let spans = traced.take();
    let by_kind = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-6)
            .collect()
    };
    let mut metrics = Vec::new();
    for (metric, kind) in [
        ("serve.profile.p50_ms", Kind::Profile),
        ("serve.clone.p50_ms", Kind::Clone),
        ("serve.evaluate.p50_ms", Kind::Evaluate),
        ("serve.ingest.p50_ms", Kind::Ingest),
    ] {
        let s = stats::summarize(&by_kind(kind.span()));
        metrics.push(Metric::new(metric, "ms", s.p50, s.count));
    }
    let eval = stats::sorted(&by_kind("serve.evaluate"));
    let eval_p99 = stats::tail(&eval, 0.99);
    metrics.push(Metric::new(
        "serve.evaluate.p99_ms",
        "ms",
        eval_p99.unwrap_or(0.0),
        if eval_p99.is_some() { eval.len() } else { 0 },
    ));
    let every: Vec<f64> = spans.iter().map(|s| s.duration() as f64 * 1e-6).collect();
    let every = stats::summarize(&every);
    metrics.push(Metric::new(
        "serve.p99_ms",
        "ms",
        every.p99.unwrap_or(0.0),
        if every.p99.is_some() { every.count } else { 0 },
    ));
    let ingest_bytes: usize = seq
        .iter()
        .filter(|r| r.kind == Kind::Ingest)
        .map(|r| on_disk[r.body.parse::<usize>().expect("trace index")].len())
        .sum();
    let ingest_s: f64 = by_kind("serve.ingest").iter().sum::<f64>() * 1e-3;
    metrics.push(Metric::new(
        "serve.ingest.mb_per_s",
        "MB/s",
        ingest_bytes as f64 / 1e6 / ingest_s.max(1e-9),
        by_kind("serve.ingest").len(),
    ));
    let c = |k: &str| t.counters.get(k).copied().unwrap_or(0.0);
    let lookups = c("gmap_cache_hits_total") + c("gmap_cache_misses_total");
    metrics.push(Metric::new(
        "serve.model_cache.hit_ratio",
        "ratio",
        c("gmap_cache_hits_total") / lookups.max(1.0),
        lookups as usize,
    ));
    for (metric, counter) in [
        ("serve.queue_rejected", "gmap_queue_rejected_total"),
        ("serve.jobs_shed", "gmap_jobs_shed_total"),
        ("serve.deadline_timeouts", "gmap_deadline_timeouts_total"),
    ] {
        metrics.push(Metric::new(metric, "count", c(counter), 1));
    }
    crate::report::push_overhead(&mut metrics, rate(first), rate(t), 1);
    out.spans = Some(crate::spans::to_json(&spans));
    out.metrics = metrics;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_is_deterministic_in_the_seed() {
        let a = sequence(7, 200);
        assert_eq!(a, sequence(7, 200));
        assert_ne!(a, sequence(8, 200));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn sequence_has_fixed_composition_and_profiles_first() {
        for seed in [1, 42, 99] {
            let seq = sequence(seed, DEFAULT_REQUESTS);
            let count = |k: Kind| seq.iter().filter(|r| r.kind == k).count();
            assert_eq!(
                (
                    count(Kind::Profile),
                    count(Kind::Clone),
                    count(Kind::Evaluate),
                    count(Kind::Ingest)
                ),
                (604, 301, 904, 201)
            );
            // Enough evaluates for their p99 to have ten samples beyond it.
            assert!(stats::beyond(count(Kind::Evaluate), 0.99) >= stats::MIN_BEYOND);
            for m in 0..profile_pool().len() {
                let uses: Vec<&Request> = seq.iter().filter(|r| r.model == Some(m)).collect();
                if uses.is_empty() {
                    continue;
                }
                assert_eq!(
                    uses[0].kind,
                    Kind::Profile,
                    "model {m} used before profiled"
                );
                assert!(uses[0].first);
                assert_eq!(uses.iter().filter(|r| r.first).count(), 1);
            }
        }
    }

    #[test]
    fn ingest_traces_are_deterministic_text() {
        let a = ingest_traces();
        assert_eq!(a, ingest_traces());
        assert_eq!(a.len(), INGEST_WORKLOADS.len());
        for t in &a {
            assert!(t.starts_with(b"# gmap trace v1"));
            assert!(t.len() > 1000);
        }
    }

    #[test]
    fn balanced_draws_use_every_option_evenly() {
        let mut rng = SplitMix::new(3);
        let v = rng.balanced(&[0, 1, 2], 10);
        for o in 0..3 {
            let n = v.iter().filter(|&&x| x == o).count();
            assert!((3..=4).contains(&n));
        }
    }
}
