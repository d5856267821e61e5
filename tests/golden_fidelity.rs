//! Golden-fidelity harness: freezes the exact metric series every figure
//! grid produces through the single-pass sweep engine, so an engine
//! refactor that silently changes a number fails loudly.
//!
//! Each figure grid gets one JSON file under `tests/golden/` holding,
//! per benchmark, the original and proxy metric series at `Scale::Tiny`,
//! seed 42. The comparison tolerance is 1e-12 — far below any modeling
//! error, so only true behavioural drift trips it (the engine is
//! deterministic; the slack covers nothing but JSON number formatting).
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fidelity
//! ```
//!
//! and review the diff like any other code change.

use gmap::bench::{engine, parallel_map, prepare, sweeps, BenchData, Metric};
use gmap::core::SimtConfig;
use gmap::gpu::workloads::{self, Scale};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 42;
const TOLERANCE: f64 = 1e-12;

/// One benchmark's frozen series: the metric per grid config, original
/// and proxy streams separately.
#[derive(Debug, Serialize, Deserialize)]
struct SeriesPair {
    original: Vec<f64>,
    proxy: Vec<f64>,
}

/// One figure grid's golden file.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFigure {
    grid: String,
    metric: String,
    scale: String,
    seed: u64,
    configs: usize,
    /// BTreeMap so the serialized file is stable under regeneration.
    benchmarks: BTreeMap<String, SeriesPair>,
}

fn golden_path(grid: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{grid}.json"))
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::L1MissPct => "l1_miss_pct",
        Metric::L2MissPct => "l2_miss_pct",
    }
}

/// The figure grids under golden control: fig6a–6e, every one of which
/// must plan single-pass.
fn grids() -> Vec<(&'static str, Vec<SimtConfig>, Metric)> {
    vec![
        ("fig6a_l1", sweeps::l1_sweep(), Metric::L1MissPct),
        ("fig6b_l2", sweeps::l2_sweep(), Metric::L2MissPct),
        (
            "fig6c_l1_prefetch",
            sweeps::l1_prefetch_sweep(),
            Metric::L1MissPct,
        ),
        (
            "fig6d_l2_prefetch",
            sweeps::l2_prefetch_sweep(),
            Metric::L2MissPct,
        ),
        (
            "fig6e_replacement",
            sweeps::replacement_policy_sweep(),
            Metric::L1MissPct,
        ),
    ]
}

fn compute_figure(
    data: &[Arc<BenchData>],
    threads: usize,
    grid: &str,
    configs: &[SimtConfig],
    metric: Metric,
) -> GoldenFigure {
    let plan = engine::plan_single_pass(configs, metric)
        .unwrap_or_else(|| panic!("{grid} must plan single-pass"));
    let rows = parallel_map(data, threads, |d| {
        let cmp = engine::sweep_benchmark_single_pass(d, &plan, configs);
        (
            d.kernel.name.clone(),
            SeriesPair {
                original: cmp.original,
                proxy: cmp.proxy,
            },
        )
    });
    GoldenFigure {
        grid: grid.to_string(),
        metric: metric_name(metric).to_string(),
        scale: "tiny".to_string(),
        seed: SEED,
        configs: configs.len(),
        benchmarks: rows.into_iter().collect(),
    }
}

fn assert_matches_golden(grid: &str, got: &GoldenFigure, want: &GoldenFigure) {
    assert_eq!(got.metric, want.metric, "{grid}: metric changed");
    assert_eq!(got.configs, want.configs, "{grid}: grid size changed");
    assert_eq!(got.seed, want.seed, "{grid}: seed changed");
    let got_names: Vec<&String> = got.benchmarks.keys().collect();
    let want_names: Vec<&String> = want.benchmarks.keys().collect();
    assert_eq!(got_names, want_names, "{grid}: benchmark set changed");
    for (name, got_pair) in &got.benchmarks {
        let want_pair = &want.benchmarks[name];
        for (stream, got_series, want_series) in [
            ("original", &got_pair.original, &want_pair.original),
            ("proxy", &got_pair.proxy, &want_pair.proxy),
        ] {
            assert_eq!(
                got_series.len(),
                want_series.len(),
                "{grid}/{name}/{stream}: series length changed"
            );
            for (i, (g, w)) in got_series.iter().zip(want_series).enumerate() {
                assert!(
                    (g - w).abs() <= TOLERANCE,
                    "{grid}/{name}/{stream}[{i}]: {g} drifted from golden {w} \
                     (rerun with UPDATE_GOLDEN=1 if the change is intentional)"
                );
            }
        }
    }
}

/// The harness proper: every figure grid's single-pass series, for every
/// one of the 18 benchmarks, must match the checked-in goldens bit-close.
/// With `UPDATE_GOLDEN=1` the goldens are rewritten instead.
#[test]
fn figure_series_match_goldens() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);

    let names: Vec<&str> = workloads::NAMES.to_vec();
    let data = parallel_map(&names, threads, |name| {
        Arc::new(prepare(name, Scale::Tiny, SEED))
    });

    // One capture pair per benchmark serves all five grids; fresh counts
    // keep the cross-figure reuse claim itself under golden control.
    engine::capture_cache_clear();
    for (grid, configs, metric) in grids() {
        let got = compute_figure(&data, threads, grid, &configs, metric);
        let path = golden_path(grid);
        if update {
            std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
            let json = serde_json::to_string_pretty(&got).expect("golden serializes");
            std::fs::write(&path, json + "\n").expect("golden file is writable");
            continue;
        }
        let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); generate it with \
                 UPDATE_GOLDEN=1 cargo test --test golden_fidelity",
                path.display()
            )
        });
        let want: GoldenFigure = serde_json::from_str(&raw)
            .unwrap_or_else(|e| panic!("golden {} is corrupt: {e}", path.display()));
        assert_matches_golden(grid, &got, &want);
    }
    let stats = engine::capture_cache_stats();
    assert_eq!(
        stats.misses,
        2 * names.len() as u64,
        "every grid shares one capture pair per benchmark"
    );
    assert_eq!(
        stats.hits,
        (grids().len() as u64 - 1) * 2 * names.len() as u64,
        "every grid after the first reuses every capture"
    );
    engine::capture_cache_clear();
}
