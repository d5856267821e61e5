//! `gmap-serve` — a concurrent model-cloning service layer over the
//! G-MAP pipeline.
//!
//! This crate wraps the profile → clone → evaluate pipeline in a small,
//! dependency-free HTTP/1.1 JSON service built directly on [`std::net`]:
//!
//! | Route              | Purpose                                               |
//! |--------------------|-------------------------------------------------------|
//! | `POST /v1/profile` | Profile a named workload into an application model     |
//! | `POST /v1/clone`   | Generate (optionally miniaturized) proxy-stream stats  |
//! | `POST /v1/evaluate`| Run a hierarchy-config grid via the sweep engine       |
//! | `POST /v1/ingest`  | Stream a raw trace (chunked) into a profiled model     |
//! | `POST /v1/analyze` | Static kernel-spec analysis, answered without the queue|
//! | `GET /healthz`     | Liveness probe                                         |
//! | `GET /metrics`     | Prometheus-style counters, gauges, latency quantiles   |
//!
//! Architecture (one module each):
//!
//! * [`http`] — keep-alive HTTP/1.1 framing with size limits and
//!   fine-grained error classification (idle vs mid-request timeouts);
//!   the head/body phases are split so `/v1/ingest` can stream chunked
//!   bodies without materializing them.
//! * [`api`] — wire types; bodies are canonical compact JSON.
//! * [`jobs`] — bounded job queue: full ⇒ 429, shutdown drains fully,
//!   panics contained and counted.
//! * [`cache`] — content-addressed model store, keyed by the hash of
//!   the canonical workload spec: bounded LRU memory tier + optional
//!   checksummed disk tier with corruption quarantine.
//! * [`metrics`] — atomics + [`gmap_trace::LatencyHistogram`] registry.
//! * [`handlers`] — endpoint logic with cooperative cancellation.
//! * [`server`] — accept loop, worker pool, deadlines, load shedding,
//!   graceful shutdown.
//! * [`client`] — the minimal client used by `gmap client` and tests,
//!   with an idempotent-only retry wrapper (backoff + jitter).
//! * [`faults`] — deterministic seeded fault injection for chaos tests.
//!
//! ```no_run
//! let handle = gmap_serve::start(gmap_serve::ServeConfig::default())
//!     .expect("bind ephemeral port");
//! let addr = handle.addr().to_string();
//! let resp = gmap_serve::client::post_json(
//!     &addr,
//!     "/v1/profile",
//!     r#"{"workload":"kmeans","scale":"tiny"}"#,
//! )
//! .expect("server reachable");
//! assert!(resp.is_ok());
//! handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod faults;
pub mod handlers;
pub mod http;
pub mod jobs;
pub mod metrics;
pub mod server;

pub use server::{start, ServeConfig, ServerHandle, ServerState};
