//! The single-pass sweep engine is numerically equivalent to an
//! independent per-config replay of the captured reference stream: on
//! every stock figure grid (fig6a–6d, the fig6e LRU/FIFO grid and a
//! write-back L1 grid), and in property tests on *randomized* grids —
//! geometry, replacement policy, and prefetcher parameters all drawn at
//! random, for L1 (stride prefetcher) and L2 (stream prefetcher) sweeps.
//!
//! The oracles mirror `GpuHierarchy`'s demand paths structurally
//! (separate `request` + `demand_fill`, probe-then-fill candidate
//! installation, a banked L2 array) over [`Cache`], and never touch the
//! stack-distance code or the engine's folded L2 bank, so any
//! disagreement is an engine bug, not a shared one. Tolerance 1e-9: both
//! sides count integer hits/misses, so the only slack needed is the final
//! percentage division.

use gmap_bench::engine::{self, CapturedStream};
use gmap_bench::{prepare, sweeps, Metric};
use gmap_core::SimtConfig;
use gmap_gpu::workloads::Scale;
use gmap_memsim::cache::AccessRequest;
use gmap_memsim::hierarchy::L1WritePolicy;
use gmap_memsim::prefetch::{
    StreamPrefetcher, StreamPrefetcherConfig, StridePrefetcher, StridePrefetcherConfig,
};
use gmap_memsim::{Cache, CacheConfig, ReplacementPolicy};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// One captured reference stream, shared by every proptest case: the
/// capture config is the same for every masked L1 grid, so capturing per
/// case would only re-run identical work.
fn capture() -> &'static (Arc<CapturedStream>, SimtConfig) {
    static CAPTURE: OnceLock<(Arc<CapturedStream>, SimtConfig)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let data = prepare("scalarprod", Scale::Tiny, 42);
        let plan = engine::plan_single_pass(&sweeps::l1_sweep(), Metric::L1MissPct)
            .expect("stock L1 grid plans");
        let cap =
            engine::capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
        (Arc::new(cap), plan.capture_cfg)
    })
}

/// The L2 sweeps' shared capture: bfs, irregular enough that random
/// grids score L2 miss rates anywhere from ~4% to ~97%.
fn l2_capture() -> &'static (Arc<CapturedStream>, SimtConfig) {
    static CAPTURE: OnceLock<(Arc<CapturedStream>, SimtConfig)> = OnceLock::new();
    CAPTURE.get_or_init(|| {
        let data = prepare("bfs", Scale::Tiny, 42);
        let plan = engine::plan_single_pass(&sweeps::l2_prefetch_sweep(), Metric::L2MissPct)
            .expect("stock L2 prefetch grid plans");
        let cap =
            engine::capture_stream(&data.orig_streams, &data.kernel.launch, &plan.capture_cfg);
        (Arc::new(cap), plan.capture_cfg)
    })
}

/// Independent per-config replay (the oracle).
fn direct_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
    configs
        .iter()
        .map(|cfg| {
            let shift = cfg.hierarchy.l1.line_size.trailing_zeros();
            let mut l1s: Vec<Cache> = (0..capture.cores)
                .map(|_| Cache::new(cfg.hierarchy.l1))
                .collect();
            let mut pfs: Vec<Option<StridePrefetcher>> = (0..capture.cores)
                .map(|_| cfg.hierarchy.l1_prefetch.map(StridePrefetcher::new))
                .collect();
            for a in &capture.accesses {
                let line = a.addr >> shift;
                let core = a.core as usize;
                if a.is_write {
                    let (allocate_on_miss, mark_dirty) = match cfg.hierarchy.l1_write_policy {
                        L1WritePolicy::WriteThroughNoAllocate => (false, false),
                        L1WritePolicy::WriteBackAllocate => (true, true),
                    };
                    let _ = l1s[core].request(AccessRequest {
                        line,
                        is_write: true,
                        allocate_on_miss,
                        mark_dirty,
                    });
                } else {
                    let hit = l1s[core]
                        .request(AccessRequest {
                            line,
                            is_write: false,
                            allocate_on_miss: false,
                            mark_dirty: false,
                        })
                        .hit;
                    if let Some(pf) = pfs[core].as_mut() {
                        for cand in pf.observe(a.pc, line) {
                            if !l1s[core].probe(cand) {
                                l1s[core].prefetch_fill(cand);
                            }
                        }
                    }
                    if !hit {
                        l1s[core].demand_fill(line);
                    }
                }
            }
            let (acc, miss) = l1s.iter().fold((0u64, 0u64), |(a, m), c| {
                (a + c.stats().accesses, m + c.stats().misses)
            });
            if acc == 0 {
                0.0
            } else {
                miss as f64 / acc as f64 * 100.0
            }
        })
        .collect()
}

/// Independent per-config replay of an L2 sweep (the oracle): per-core
/// write-through no-allocate L1s forward read misses, their victims and
/// every store to a *banked* L2 (bank = line mod banks); the shared
/// stream prefetcher trains on L2 demand misses and each candidate is
/// probed in its home bank and prefetch-filled if absent, as in
/// `GpuHierarchy::l2_demand`.
fn direct_l2_series(capture: &CapturedStream, configs: &[SimtConfig]) -> Vec<f64> {
    configs
        .iter()
        .map(|cfg| {
            let hier = &cfg.hierarchy;
            assert_eq!(hier.l1_write_policy, L1WritePolicy::WriteThroughNoAllocate);
            let l1_shift = hier.l1.line_size.trailing_zeros();
            let l2_shift = hier.l2.line_size.trailing_zeros();
            let banks = hier.l2_banks as u64;
            let bank_cfg = hier.l2_bank_config().expect("strategy geometry is valid");
            let mut l1s: Vec<Cache> = (0..capture.cores).map(|_| Cache::new(hier.l1)).collect();
            let mut l2: Vec<Cache> = (0..banks).map(|_| Cache::new(bank_cfg)).collect();
            let mut pf = hier.l2_prefetch.map(StreamPrefetcher::new);
            let mut l2_access = |addr: u64, is_write: bool| {
                let line = addr >> l2_shift;
                let hit = l2[(line % banks) as usize]
                    .request(AccessRequest {
                        line,
                        is_write,
                        allocate_on_miss: true,
                        mark_dirty: is_write,
                    })
                    .hit;
                if let (false, Some(pf)) = (hit, pf.as_mut()) {
                    for cand in pf.observe(line) {
                        let bank = &mut l2[(cand % banks) as usize];
                        if !bank.probe(cand) {
                            bank.prefetch_fill(cand);
                        }
                    }
                }
            };
            for a in &capture.accesses {
                let line = a.addr >> l1_shift;
                let l1 = &mut l1s[a.core as usize];
                let hit = l1
                    .request(AccessRequest {
                        line,
                        is_write: a.is_write,
                        allocate_on_miss: false,
                        mark_dirty: false,
                    })
                    .hit;
                if a.is_write {
                    l2_access(a.addr, true);
                } else if !hit {
                    l2_access(a.addr, false);
                    if let Some(victim) = l1.demand_fill(line) {
                        l2_access(victim << l1_shift, true);
                    }
                }
            }
            let (acc, miss) = l2.iter().fold((0u64, 0u64), |(a, m), c| {
                (a + c.stats().accesses, m + c.stats().misses)
            });
            if acc == 0 {
                0.0
            } else {
                miss as f64 / acc as f64 * 100.0
            }
        })
        .collect()
}

/// Captures each named benchmark's original stream (and its proxy stream
/// when `with_proxy`) at the plan's reference config, tiny scale, seed 42,
/// and asserts the engine agrees with `oracle` on every config to 1e-9.
fn assert_engine_exact(
    configs: &[SimtConfig],
    metric: Metric,
    benchmarks: &[&str],
    with_proxy: bool,
    oracle: fn(&CapturedStream, &[SimtConfig]) -> Vec<f64>,
) {
    let plan = engine::plan_single_pass(configs, metric).expect("stock grid plans");
    for name in benchmarks {
        let data = prepare(name, Scale::Tiny, 42);
        let mut streams = vec![("original", &data.orig_streams, &data.kernel.launch)];
        if with_proxy {
            streams.push(("proxy", &data.proxy_streams, &data.profile.launch));
        }
        for (stream, warps, launch) in streams {
            let cap = engine::capture_stream(warps, launch, &plan.capture_cfg);
            let engine_vals = engine::eval_captured(&plan, &cap, configs).values;
            let direct_vals = oracle(&cap, configs);
            assert_eq!(engine_vals.len(), direct_vals.len());
            for (i, (e, d)) in engine_vals.iter().zip(&direct_vals).enumerate() {
                assert!(
                    (e - d).abs() < 1e-9,
                    "{name} {stream} config {i}: engine {e} vs direct {d}"
                );
            }
        }
    }
}

#[test]
fn fig6a_engine_matches_direct_replay_within_1e9() {
    assert_engine_exact(
        &sweeps::l1_sweep(),
        Metric::L1MissPct,
        &["kmeans", "bfs"],
        true,
        direct_series,
    );
}

#[test]
fn fig6b_engine_matches_banked_replay_within_1e9() {
    assert_engine_exact(
        &sweeps::l2_sweep(),
        Metric::L2MissPct,
        &["backprop", "srad"],
        false,
        direct_l2_series,
    );
}

#[test]
fn fig6c_prefetch_engine_matches_direct_replay_within_1e9() {
    assert_engine_exact(
        &sweeps::l1_prefetch_sweep(),
        Metric::L1MissPct,
        &["kmeans", "scalarprod"],
        false,
        direct_series,
    );
}

#[test]
fn fig6d_stream_prefetch_engine_matches_banked_replay_within_1e9() {
    assert_engine_exact(
        &sweeps::l2_prefetch_sweep(),
        Metric::L2MissPct,
        &["backprop", "bfs"],
        false,
        direct_l2_series,
    );
}

#[test]
fn fifo_policy_engine_matches_direct_replay_within_1e9() {
    assert_engine_exact(
        &sweeps::replacement_policy_sweep(),
        Metric::L1MissPct,
        &["srad", "pathfinder"],
        false,
        direct_series,
    );
}

#[test]
fn write_back_l1_sweep_is_also_exact() {
    let mut configs = sweeps::l1_sweep();
    for c in &mut configs {
        c.hierarchy.l1_write_policy = L1WritePolicy::WriteBackAllocate;
    }
    assert_engine_exact(
        &configs,
        Metric::L1MissPct,
        &["pathfinder"],
        false,
        direct_series,
    );
}

/// A random single-pass-eligible L1 config: LRU (optionally with a
/// stride prefetcher) or FIFO (never with one — the planner rejects that
/// combination).
fn l1_config() -> impl Strategy<Value = SimtConfig> {
    let geometry = (
        prop_oneof![Just(8u64), Just(16), Just(32), Just(64)],
        prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        prop_oneof![Just(64u64), Just(128)],
    );
    // The vendored proptest subset has no `option::of`; a bool gate over
    // unconditionally drawn parameters is equivalent.
    let prefetch = (
        prop_oneof![Just(16u32), Just(64), Just(256)],
        1u32..=4,
        1u32..=4,
        1u32..=3,
    );
    (geometry, prefetch, any::<bool>(), any::<bool>()).prop_map(
        |((kb, assoc, line), pf_params, use_pf, fifo)| {
            let pf = use_pf.then_some(pf_params);
            let mut cfg = SimtConfig::default();
            let policy = if fifo && pf.is_none() {
                ReplacementPolicy::Fifo
            } else {
                ReplacementPolicy::Lru
            };
            cfg.hierarchy.l1 = CacheConfig::new(kb * 1024, assoc, line, policy)
                .expect("strategy geometry is valid");
            if policy == ReplacementPolicy::Lru {
                cfg.hierarchy.l1_prefetch =
                    pf.map(|(table, degree, distance, conf)| StridePrefetcherConfig {
                        table_size: table,
                        degree,
                        distance,
                        min_confidence: conf,
                    });
            }
            cfg
        },
    )
}

/// A random L2 + stream-prefetcher config `plan_single_pass` accepts:
/// LRU, a per-bank set count that is a power of two no smaller than the
/// bank count (8), any associativity, and prefetcher parameters spanning
/// one stream (constant stream-LRU replacement) to 32.
fn l2_prefetch_config() -> impl Strategy<Value = SimtConfig> {
    let geometry = (3u32..=9, 1u32..=16, prop_oneof![Just(64u64), Just(128)]);
    let prefetch = (1u32..=32, 1u32..=64, 1u32..=8);
    (geometry, prefetch).prop_map(
        |((sets_log2, assoc, line), (num_streams, window, degree))| {
            let mut cfg = SimtConfig::default();
            let banks = cfg.hierarchy.l2_banks as u64;
            let size = (1u64 << sets_log2) * assoc as u64 * line * banks;
            cfg.hierarchy.l2 = CacheConfig::new(size, assoc, line, ReplacementPolicy::Lru)
                .expect("strategy geometry is valid");
            cfg.hierarchy.l2_prefetch = Some(StreamPrefetcherConfig {
                num_streams,
                window,
                degree,
            });
            cfg
        },
    )
}

proptest! {
    // Each case replays the full captured stream once per config on the
    // oracle side; a handful of cases over 2–5 config grids already
    // exercises every evaluator path (LRU, FIFO, prefetch) and the
    // grouping logic between them.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_matches_direct_replay_on_random_grids(
        grid in proptest::collection::vec(l1_config(), 2..=5)
    ) {
        let (cap, capture_cfg) = capture();
        let plan = engine::plan_single_pass(&grid, Metric::L1MissPct)
            .expect("strategy only emits single-pass-eligible grids");
        prop_assert!(
            plan.capture_cfg == *capture_cfg,
            "every masked L1 grid shares the stock reference config"
        );
        let engine_vals = engine::eval_captured(&plan, cap, &grid).values;
        let direct_vals = direct_series(cap, &grid);
        for (i, (e, d)) in engine_vals.iter().zip(&direct_vals).enumerate() {
            prop_assert!(
                (e - d).abs() < 1e-9,
                "config {i}: engine {e} vs direct {d} (cfg {:?})",
                grid[i].hierarchy.l1
            );
        }
    }
}

proptest! {
    // Each case replays a ~23k-access bfs capture per config; all 32
    // cases take about a second, so this block draws more grids than
    // the L1 one.
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn l2_stream_prefetch_engine_matches_banked_replay_on_random_grids(
        grid in proptest::collection::vec(l2_prefetch_config(), 2..=5)
    ) {
        let (cap, capture_cfg) = l2_capture();
        let plan = engine::plan_single_pass(&grid, Metric::L2MissPct)
            .expect("strategy only emits single-pass-eligible grids");
        prop_assert!(
            plan.capture_cfg == *capture_cfg,
            "every masked L2 grid shares the stock reference config"
        );
        prop_assert!(plan.groups.iter().all(|g| g.l2_prefetch.is_some()));
        let engine_vals = engine::eval_captured(&plan, cap, &grid).values;
        let direct_vals = direct_l2_series(cap, &grid);
        for (i, (e, d)) in engine_vals.iter().zip(&direct_vals).enumerate() {
            prop_assert!(
                (e - d).abs() < 1e-9,
                "config {i}: engine {e} vs direct {d} (cfg {:?}, {:?})",
                grid[i].hierarchy.l2,
                grid[i].hierarchy.l2_prefetch
            );
        }
    }
}
