//! Service metrics registry and the `/metrics` text rendering.
//!
//! Counters are lock-free atomics; latency distributions reuse the
//! log-bucketed [`LatencyHistogram`] from `gmap-trace`, guarded by a
//! mutex (recording is one bucket increment — contention is negligible
//! next to the work being measured). The output format follows the
//! Prometheus text exposition conventions so the endpoint is scrapable,
//! but no client library is involved.

use gmap_trace::LatencyHistogram;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The service endpoints that report per-endpoint metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/profile`.
    Profile,
    /// `POST /v1/clone`.
    Clone,
    /// `POST /v1/evaluate`.
    Evaluate,
    /// `POST /v1/analyze` (answered on the connection thread).
    Analyze,
    /// `POST /v1/ingest` (streaming trace ingestion).
    Ingest,
    /// Everything else (`/healthz`, `/metrics`, unknown routes).
    Other,
}

impl Endpoint {
    fn label(self) -> &'static str {
        match self {
            Endpoint::Profile => "profile",
            Endpoint::Clone => "clone",
            Endpoint::Evaluate => "evaluate",
            Endpoint::Analyze => "analyze",
            Endpoint::Ingest => "ingest",
            Endpoint::Other => "other",
        }
    }
}

/// Per-endpoint request counters and latency distribution.
#[derive(Debug, Default)]
pub struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

impl EndpointStats {
    fn record(&self, elapsed: Duration, status: u16) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.latency
            .lock()
            .expect("latency lock poisoned")
            .record(elapsed);
    }
}

/// The service-wide metrics registry.
#[derive(Debug, Default)]
pub struct Metrics {
    profile: EndpointStats,
    clone_op: EndpointStats,
    evaluate: EndpointStats,
    analyze: EndpointStats,
    ingest: EndpointStats,
    other: EndpointStats,
    /// Model-cache hits (`/v1/profile` served without re-profiling).
    pub cache_hits: AtomicU64,
    /// Model-cache misses (profile computed and stored).
    pub cache_misses: AtomicU64,
    /// Submissions refused with 429 because the queue was full.
    pub rejected_full: AtomicU64,
    /// Submissions refused with 503 during shutdown.
    pub rejected_shutdown: AtomicU64,
    /// Requests that hit their deadline and were answered 504.
    pub deadline_timeouts: AtomicU64,
    /// Specs rejected with 422 by the static-analysis admission gate
    /// (before ever entering the job queue).
    pub analyze_rejects: AtomicU64,
    /// Race findings (proven or potential, any severity) surfaced by the
    /// barrier-phase detector at the analyze and profile gates.
    pub analyze_races: AtomicU64,
    /// Jobs whose deadline expired while still queued: answered 504
    /// without the handler ever executing.
    pub jobs_shed: AtomicU64,
    /// Trace bytes consumed by the streaming `/v1/ingest` endpoint
    /// (body bytes, excluding chunk framing).
    pub ingest_bytes: AtomicU64,
    /// Trace streams fully received by `/v1/ingest`.
    pub ingest_streams: AtomicU64,
}

/// Point-in-time values that live outside the counter registry (queue
/// state, cache occupancy, fault-injection totals) and are sampled by
/// the caller at render time.
#[derive(Debug, Default, Clone, Copy)]
pub struct RuntimeStats {
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs currently executing on workers.
    pub jobs_in_flight: usize,
    /// Models resident in the memory tier.
    pub models_cached: usize,
    /// Configured memory-tier bound.
    pub cache_capacity: usize,
    /// Open client connections.
    pub active_connections: usize,
    /// Memory-tier evictions so far.
    pub cache_evictions: u64,
    /// Disk entries quarantined after integrity failures.
    pub cache_quarantined: u64,
    /// Worker-pool jobs that panicked (contained).
    pub worker_panics: u64,
    /// Faults injected by the fault-injection layer (0 when disabled).
    pub faults_injected: u64,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    fn endpoint(&self, which: Endpoint) -> &EndpointStats {
        match which {
            Endpoint::Profile => &self.profile,
            Endpoint::Clone => &self.clone_op,
            Endpoint::Evaluate => &self.evaluate,
            Endpoint::Analyze => &self.analyze,
            Endpoint::Ingest => &self.ingest,
            Endpoint::Other => &self.other,
        }
    }

    /// Records one finished request.
    pub fn record_request(&self, which: Endpoint, elapsed: Duration, status: u16) {
        self.endpoint(which).record(elapsed, status);
    }

    /// Renders the Prometheus-style text exposition. Gauges and
    /// externally-owned counters (queue state, cache occupancy, panic and
    /// fault totals) are sampled by the caller into [`RuntimeStats`].
    pub fn render(&self, rt: RuntimeStats) -> String {
        let mut out = String::with_capacity(2048);
        let endpoints = [
            Endpoint::Profile,
            Endpoint::Clone,
            Endpoint::Evaluate,
            Endpoint::Analyze,
            Endpoint::Ingest,
            Endpoint::Other,
        ];
        out.push_str("# TYPE gmap_requests_total counter\n");
        for e in endpoints {
            let _ = writeln!(
                out,
                "gmap_requests_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.endpoint(e).requests.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE gmap_request_errors_total counter\n");
        for e in endpoints {
            let _ = writeln!(
                out,
                "gmap_request_errors_total{{endpoint=\"{}\"}} {}",
                e.label(),
                self.endpoint(e).errors.load(Ordering::Relaxed)
            );
        }
        out.push_str("# TYPE gmap_request_latency_seconds summary\n");
        for e in endpoints {
            let hist = self
                .endpoint(e)
                .latency
                .lock()
                .expect("latency lock poisoned");
            if hist.count() == 0 {
                continue;
            }
            for (q, latency) in [
                ("0.5", hist.p50()),
                ("0.95", hist.p95()),
                ("0.99", hist.p99()),
            ] {
                let _ = writeln!(
                    out,
                    "gmap_request_latency_seconds{{endpoint=\"{}\",quantile=\"{}\"}} {:.9}",
                    e.label(),
                    q,
                    latency.as_secs_f64()
                );
            }
            let _ = writeln!(
                out,
                "gmap_request_latency_seconds_count{{endpoint=\"{}\"}} {}",
                e.label(),
                hist.count()
            );
        }
        for (name, value) in [
            (
                "gmap_cache_hits_total",
                self.cache_hits.load(Ordering::Relaxed),
            ),
            (
                "gmap_cache_misses_total",
                self.cache_misses.load(Ordering::Relaxed),
            ),
            (
                "gmap_queue_rejected_total",
                self.rejected_full.load(Ordering::Relaxed),
            ),
            (
                "gmap_shutdown_rejected_total",
                self.rejected_shutdown.load(Ordering::Relaxed),
            ),
            (
                "gmap_deadline_timeouts_total",
                self.deadline_timeouts.load(Ordering::Relaxed),
            ),
            (
                "gmap_analyze_rejects_total",
                self.analyze_rejects.load(Ordering::Relaxed),
            ),
            (
                "gmap_analyze_races_total",
                self.analyze_races.load(Ordering::Relaxed),
            ),
            (
                "gmap_jobs_shed_total",
                self.jobs_shed.load(Ordering::Relaxed),
            ),
            (
                "gmap_ingest_bytes_total",
                self.ingest_bytes.load(Ordering::Relaxed),
            ),
            (
                "gmap_ingest_streams_total",
                self.ingest_streams.load(Ordering::Relaxed),
            ),
            ("gmap_cache_evictions_total", rt.cache_evictions),
            ("gmap_cache_quarantined_total", rt.cache_quarantined),
            ("gmap_worker_panics_total", rt.worker_panics),
            ("gmap_faults_injected_total", rt.faults_injected),
        ] {
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {value}");
        }
        for (name, value) in [
            ("gmap_queue_depth", rt.queue_depth),
            ("gmap_jobs_in_flight", rt.jobs_in_flight),
            ("gmap_models_cached", rt.models_cached),
            ("gmap_cache_capacity", rt.cache_capacity),
            ("gmap_active_connections", rt.active_connections),
        ] {
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {value}");
        }
        out
    }
}

/// Extracts the value of a metric line from a rendered exposition, for
/// tests and the CLI client.
pub fn scrape(rendered: &str, metric: &str) -> Option<f64> {
    rendered.lines().find_map(|line| {
        if line.starts_with('#') {
            return None;
        }
        line.strip_prefix(metric)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_gauges() {
        let m = Metrics::new();
        m.record_request(Endpoint::Profile, Duration::from_millis(3), 200);
        m.record_request(Endpoint::Profile, Duration::from_millis(5), 400);
        m.cache_hits.fetch_add(2, Ordering::Relaxed);
        m.rejected_full.fetch_add(7, Ordering::Relaxed);
        m.analyze_rejects.fetch_add(5, Ordering::Relaxed);
        m.analyze_races.fetch_add(4, Ordering::Relaxed);
        m.jobs_shed.fetch_add(3, Ordering::Relaxed);
        m.ingest_bytes.fetch_add(4096, Ordering::Relaxed);
        m.ingest_streams.fetch_add(2, Ordering::Relaxed);
        m.record_request(Endpoint::Ingest, Duration::from_millis(2), 200);
        let text = m.render(RuntimeStats {
            queue_depth: 4,
            jobs_in_flight: 1,
            models_cached: 3,
            cache_capacity: 16,
            active_connections: 9,
            cache_evictions: 6,
            cache_quarantined: 2,
            worker_panics: 1,
            faults_injected: 8,
        });
        assert!(text.contains("gmap_requests_total{endpoint=\"profile\"} 2"));
        assert!(text.contains("gmap_request_errors_total{endpoint=\"profile\"} 1"));
        assert!(text.contains("gmap_request_latency_seconds_count{endpoint=\"profile\"} 2"));
        assert_eq!(scrape(&text, "gmap_cache_hits_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_queue_rejected_total"), Some(7.0));
        assert_eq!(scrape(&text, "gmap_analyze_rejects_total"), Some(5.0));
        assert_eq!(scrape(&text, "gmap_analyze_races_total"), Some(4.0));
        assert_eq!(scrape(&text, "gmap_jobs_shed_total"), Some(3.0));
        assert!(text.contains("gmap_requests_total{endpoint=\"ingest\"} 1"));
        assert_eq!(scrape(&text, "gmap_ingest_bytes_total"), Some(4096.0));
        assert_eq!(scrape(&text, "gmap_ingest_streams_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_cache_evictions_total"), Some(6.0));
        assert_eq!(scrape(&text, "gmap_cache_quarantined_total"), Some(2.0));
        assert_eq!(scrape(&text, "gmap_worker_panics_total"), Some(1.0));
        assert_eq!(scrape(&text, "gmap_faults_injected_total"), Some(8.0));
        assert_eq!(scrape(&text, "gmap_queue_depth"), Some(4.0));
        assert_eq!(scrape(&text, "gmap_jobs_in_flight"), Some(1.0));
        assert_eq!(scrape(&text, "gmap_models_cached"), Some(3.0));
        assert_eq!(scrape(&text, "gmap_cache_capacity"), Some(16.0));
        assert_eq!(scrape(&text, "gmap_active_connections"), Some(9.0));
    }

    #[test]
    fn quantiles_appear_once_latency_is_recorded() {
        let m = Metrics::new();
        let empty = m.render(RuntimeStats::default());
        assert!(!empty.contains("quantile"));
        m.record_request(Endpoint::Evaluate, Duration::from_micros(800), 200);
        let text = m.render(RuntimeStats::default());
        assert!(
            text.contains("gmap_request_latency_seconds{endpoint=\"evaluate\",quantile=\"0.5\"}")
        );
    }

    #[test]
    fn scrape_ignores_prefixed_names() {
        // `gmap_cache_hits_total` must not match `gmap_cache_hits_total_foo`.
        let text = "gmap_cache_hits_total_foo 9\ngmap_cache_hits_total 3\n";
        assert_eq!(scrape(text, "gmap_cache_hits_total"), Some(3.0));
    }
}
