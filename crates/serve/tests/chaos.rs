//! Chaos acceptance test: concurrent clients drive a live server while
//! the deterministic fault injector ([`gmap_serve::faults`]) breaks the
//! disk cache, panics handlers, slows workers, truncates request bodies,
//! and resets connections mid-response.
//!
//! Invariants asserted for every fault spec:
//! * no worker thread dies (shutdown joins the pool; a clean pass after
//!   disarming the injector proves the workers still function),
//! * no corrupted cache entry is ever served (every 200 body is
//!   byte-identical to a direct library call),
//! * every accepted request gets exactly one response (all client
//!   threads complete with a definite outcome, never a hang),
//! * post-chaos results are byte-identical to a fault-free run, even
//!   after reopening a cache directory that holds torn entries.
//!
//! The fault seed is pinned via `GMAP_CHAOS_SEED` (CI does this) so a
//! failing run can be replayed; without it a fixed default applies.

use gmap_core::cachekey::canonical_json;
use gmap_serve::api::{EvaluateRequest, GridPoint, ProfileRequest, ProfileResponse};
use gmap_serve::cache::ModelStore;
use gmap_serve::client::{self, RetryPolicy};
use gmap_serve::faults::{FaultKind, FaultSpec};
use gmap_serve::handlers;
use gmap_serve::metrics::{scrape, Metrics};
use gmap_serve::ServeConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const CHAOS_WORKLOADS: [&str; 3] = ["kmeans", "bfs", "hotspot"];

/// Statuses a client may legitimately observe while faults are armed.
const TRANSIENT: [u16; 5] = [408, 429, 500, 503, 504];

fn chaos_seed() -> u64 {
    std::env::var("GMAP_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_260_807)
}

fn profile_req(workload: &str) -> String {
    canonical_json(&ProfileRequest {
        workload: Some(workload.into()),
        scale: Some("tiny".into()),
        spec: None,
    })
}

fn eval_grid() -> Vec<GridPoint> {
    [16u64, 32]
        .iter()
        .map(|&size_kb| GridPoint {
            level: None,
            size_kb,
            assoc: 4,
            line: None,
            policy: None,
            stride_prefetch: None,
            stream_prefetch: None,
        })
        .collect()
}

fn eval_req(model_id: &str) -> String {
    canonical_json(&EvaluateRequest {
        model_id: model_id.into(),
        kernel: None,
        metric: None,
        seed: None,
        grid: eval_grid(),
    })
}

/// Per-workload fault-free expectations from direct library calls.
struct Expected {
    model_id: String,
    profile_stats: String,
    evaluate_body: String,
}

fn expectations() -> Vec<(String, Expected)> {
    let store = ModelStore::new(None).expect("memory store");
    let metrics = Metrics::new();
    CHAOS_WORKLOADS
        .iter()
        .map(|w| {
            let req = ProfileRequest {
                workload: Some((*w).into()),
                scale: Some("tiny".into()),
                spec: None,
            };
            let p = handlers::profile(&store, &metrics, &req, &AtomicBool::new(false))
                .expect("direct profile");
            let e = handlers::evaluate(
                &store,
                &EvaluateRequest {
                    model_id: p.model_id.clone(),
                    kernel: None,
                    metric: None,
                    seed: None,
                    grid: eval_grid(),
                },
                &AtomicBool::new(false),
            )
            .expect("direct evaluate");
            (
                (*w).to_string(),
                Expected {
                    model_id: p.model_id.clone(),
                    profile_stats: canonical_json(&p.stats),
                    evaluate_body: canonical_json(&e),
                },
            )
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gmap-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        max_retries: 10,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(100),
        seed: chaos_seed(),
    }
}

/// Checks one served profile body against the oracle. Panics on any
/// divergence — a 200 carrying wrong bytes is the worst possible outcome.
fn verify_profile(body: &str, want: &Expected, ctx: &str) {
    let served: ProfileResponse = serde_json::from_str(body)
        .unwrap_or_else(|e| panic!("{ctx}: 200 body must parse: {e}: {body}"));
    assert_eq!(served.model_id, want.model_id, "{ctx}: model id diverged");
    assert_eq!(
        canonical_json(&served.stats),
        want.profile_stats,
        "{ctx}: served stats diverged from direct call"
    );
}

/// Drives one fault spec end to end and returns the total number of
/// injected faults (so callers can assert the spec actually fired).
fn run_chaos_round(tag: &str, spec: FaultSpec, expected: &[(String, Expected)]) -> u64 {
    let cache_dir = temp_dir(tag);
    let handle = gmap_serve::start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        deadline: Duration::from_secs(30),
        cache_dir: Some(cache_dir.clone()),
        faults: Some(spec),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();

    // Phase 1: concurrent clients under fire. Every request must end in
    // a definite outcome — a verified 200, a transient status, or a
    // transport error — never a hang or a wrong payload.
    let successes = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let addr = addr.clone();
            let successes = Arc::clone(&successes);
            let expected: Vec<(String, Expected)> = expected
                .iter()
                .map(|(w, e)| {
                    (
                        w.clone(),
                        Expected {
                            model_id: e.model_id.clone(),
                            profile_stats: e.profile_stats.clone(),
                            evaluate_body: e.evaluate_body.clone(),
                        },
                    )
                })
                .collect();
            thread::spawn(move || {
                let policy = RetryPolicy {
                    seed: retry_policy().seed ^ t,
                    ..retry_policy()
                };
                for round in 0..3 {
                    for (w, want) in &expected {
                        let ctx = format!("thread {t} round {round} workload {w}");
                        let profiled = client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/profile",
                            Some(&profile_req(w)),
                            &policy,
                        );
                        let profile_ok = match profiled {
                            Ok(r) if r.status == 200 => {
                                verify_profile(&r.body, want, &ctx);
                                successes.fetch_add(1, Ordering::Relaxed);
                                true
                            }
                            Ok(r) => {
                                assert!(
                                    TRANSIENT.contains(&r.status),
                                    "{ctx}: unexpected status {}: {}",
                                    r.status,
                                    r.body
                                );
                                false
                            }
                            // Injected resets/truncations surface as
                            // transport errors; a definite outcome.
                            Err(_) => false,
                        };
                        if !profile_ok {
                            continue;
                        }
                        match client::request_with_retry(
                            &addr,
                            "POST",
                            "/v1/evaluate",
                            Some(&eval_req(&want.model_id)),
                            &policy,
                        ) {
                            Ok(r) if r.status == 200 => {
                                assert_eq!(
                                    r.body, want.evaluate_body,
                                    "{ctx}: evaluate body diverged from direct call"
                                );
                                successes.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(r) => assert!(
                                TRANSIENT.contains(&r.status),
                                "{ctx}: unexpected evaluate status {}: {}",
                                r.status,
                                r.body
                            ),
                            Err(_) => {}
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("chaos client thread completes");
    }
    assert!(
        successes.load(Ordering::Relaxed) > 0,
        "{tag}: the service must make progress under faults"
    );

    // Phase 2: disarm and prove the service is fully intact — workers
    // alive, cache serving correct bytes, panics contained and counted.
    let injector = Arc::clone(
        handle
            .state()
            .fault_injector()
            .expect("fault spec configured"),
    );
    injector.set_armed(false);
    for (w, want) in expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("clean profile reachable");
        assert_eq!(r.status, 200, "{tag}: clean profile: {}", r.body);
        verify_profile(&r.body, want, &format!("{tag} clean pass {w}"));
        let r = client::post_json(&addr, "/v1/evaluate", &eval_req(&want.model_id))
            .expect("clean evaluate reachable");
        assert_eq!(r.status, 200, "{tag}: clean evaluate: {}", r.body);
        assert_eq!(
            r.body, want.evaluate_body,
            "{tag}: post-chaos evaluate must be byte-identical to a fault-free run"
        );
    }
    let m = client::get(&addr, "/metrics").expect("metrics reachable");
    assert_eq!(
        scrape(&m.body, "gmap_worker_panics_total"),
        Some(injector.injected(FaultKind::Panic) as f64),
        "{tag}: every injected panic was contained and counted"
    );
    let injected_total = injector.injected_total();
    let injected_short_writes = injector.injected(FaultKind::ShortWrite);
    handle.shutdown();

    // Phase 3: reopen the cache directory with a fresh, fault-free
    // server. Torn disk entries from injected short writes must be
    // quarantined — never served — and results must still match.
    let handle = gmap_serve::start(ServeConfig {
        workers: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("reopen cache dir");
    let addr = handle.addr().to_string();
    for (w, want) in expected {
        let r = client::post_json(&addr, "/v1/profile", &profile_req(w))
            .expect("reopened profile reachable");
        assert_eq!(r.status, 200, "{tag}: reopened profile: {}", r.body);
        verify_profile(&r.body, want, &format!("{tag} reopened {w}"));
    }
    if injected_short_writes > 0 {
        let m = client::get(&addr, "/metrics").expect("metrics reachable");
        let quarantined =
            scrape(&m.body, "gmap_cache_quarantined_total").expect("quarantine counter exported");
        assert!(
            quarantined >= 1.0,
            "{tag}: torn disk entries must be quarantined on reopen"
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
    injected_total
}

#[test]
fn service_survives_every_fault_kind() {
    let seed = chaos_seed();
    let expected = expectations();
    // One spec per fault kind, rates high enough that each kind provably
    // fires, plus a combined everything-at-once spec.
    let specs: Vec<(&str, String)> = vec![
        ("disk-err", format!("{seed}:disk_err=0.5")),
        ("short-write", format!("{seed}:short_write=0.8")),
        ("panic", format!("{seed}:panic=0.3")),
        ("slow", format!("{seed}:slow=0.5,slow_ms=15")),
        ("trunc-body", format!("{seed}:trunc_body=0.3")),
        ("reset", format!("{seed}:reset=0.3")),
        (
            "everything",
            format!(
                "{seed}:disk_err=0.2,short_write=0.3,panic=0.15,slow=0.2,slow_ms=10,\
                 trunc_body=0.15,reset=0.15"
            ),
        ),
    ];
    for (tag, spec) in specs {
        let parsed = FaultSpec::parse(&spec).expect("valid chaos spec");
        let injected = run_chaos_round(tag, parsed, &expected);
        assert!(
            injected > 0,
            "{tag}: spec {spec:?} never injected a fault — the round was vacuous"
        );
    }
}
