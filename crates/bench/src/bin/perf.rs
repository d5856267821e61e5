//! Perf tracking for the sweep engine: measures the direct per-config
//! full-simulation path against the single-pass capture/replay engine on
//! every figure grid (fig6a–6e) and emits `BENCH_sweep.json`, so the
//! performance trajectory is comparable across PRs.
//!
//! Defaults to `--scale small`; pass `--scale`/`--seed` to override and
//! `--out PATH` to move the report. `--smoke` skips the (slow) direct
//! timings and instead asserts the planner coverage: every fig6a–6e grid
//! must take the single-pass path, and cross-figure capture reuse must
//! kick in — exiting nonzero otherwise, which is what CI gates on.

use gmap_bench::{engine, prepare, sweep_benchmark, sweeps, BenchData, ExperimentOpts, Metric};
use gmap_core::SimtConfig;
use gmap_dram::mapping::{decompose, AddressMapping, DramGeometry, MappingPlan};
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::stackdist::{evaluate_lru_multi_with_mode, LineAccess, WriteMode};
use gmap_trace::batch::KernelMode;
use gmap_trace::{Histogram, Rng};
use serde::Serialize;
use std::time::Instant;

/// Benchmarks timed by the tracker — a fixed, locality-diverse subset so
/// the report stays comparable across PRs and runs in minutes.
const BENCHMARKS: [&str; 5] = ["kmeans", "backprop", "scalarprod", "bfs", "srad"];

/// The figure grids the tracker covers. Every one of these must plan
/// single-pass; a grid falling off the engine is a regression.
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

#[derive(Debug, Serialize)]
struct PerBenchmark {
    name: String,
    direct_secs: f64,
    single_pass_secs: f64,
    speedup: f64,
}

#[derive(Debug, Serialize)]
struct GridReport {
    sweep: String,
    metric: String,
    configs: usize,
    /// (benchmark × config) points, original and proxy series each.
    validation_points: usize,
    direct_secs: f64,
    single_pass_secs: f64,
    speedup: f64,
    per_benchmark: Vec<PerBenchmark>,
}

#[derive(Debug, Serialize)]
struct CaptureReuse {
    hits: u64,
    misses: u64,
}

/// Scalar-vs-batched timing of one dual-path hot kernel. The scalar side
/// is the live reference implementation (the pre-batching code path), so
/// the speedup column tracks exactly what the lane-unrolled kernels buy.
#[derive(Debug, Serialize)]
struct KernelTiming {
    kernel: String,
    scalar_secs: f64,
    batched_secs: f64,
    speedup: f64,
}

/// Best-of-`rounds` mean over `reps` calls — criterion-lite, enough to
/// keep the JSON numbers stable across runs without minutes of sampling.
fn time_best_of<F: FnMut()>(mut f: F, reps: usize, rounds: usize) -> f64 {
    f(); // warm up caches and allocations outside the timed region
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Times the three dual-path kernels on synthetic workloads shaped like
/// what the engine feeds them (same shapes as `benches/kernels.rs`).
fn kernel_microbench() -> Vec<KernelTiming> {
    let mut out = Vec::new();
    let mut push = |kernel: &str, scalar_secs: f64, batched_secs: f64| {
        out.push(KernelTiming {
            kernel: kernel.to_string(),
            scalar_secs,
            batched_secs,
            speedup: scalar_secs / batched_secs.max(1e-12),
        });
    };

    // Stack-distance counting: 100k-line stream with strided locality
    // against a fig6a-shaped grid — two set-count classes with 15
    // associativity points each, like the L1 sweep the engine runs.
    let mut rng = Rng::seed_from(7);
    let mut cursor = 0u64;
    let stream: Vec<LineAccess> = (0..100_000)
        .map(|i| {
            cursor = if i % 7 == 0 {
                rng.gen_range(4096)
            } else {
                (cursor + 1) % 4096
            };
            LineAccess::new(cursor, rng.gen_range(5) == 0)
        })
        .collect();
    let mut configs = Vec::new();
    for sets in [64u64, 256] {
        for assoc in 1u32..=15 {
            configs.push(
                CacheConfig::new(
                    sets * assoc as u64 * 128,
                    assoc,
                    128,
                    ReplacementPolicy::Lru,
                )
                .expect("valid geometry"),
            );
        }
    }
    let time_stackdist = |kmode| {
        time_best_of(
            || {
                let r = evaluate_lru_multi_with_mode(&configs, &stream, WriteMode::Allocate, kmode)
                    .expect("valid grid");
                assert_eq!(r.counts.len(), configs.len());
            },
            3,
            5,
        )
    };
    push(
        "stackdist",
        time_stackdist(KernelMode::Scalar),
        time_stackdist(KernelMode::Batched),
    );

    // Histogram binning: profiler-shaped stride slices (short runs, few
    // distinct values).
    let mut rng = Rng::seed_from(11);
    let slices: Vec<Vec<i64>> = (0..2_000)
        .map(|_| {
            let len = 8 + rng.gen_range(56) as usize;
            (0..len)
                .map(|_| (rng.gen_range(7) as i64 - 3) * 128)
                .collect()
        })
        .collect();
    let time_hist = |kmode| {
        time_best_of(
            || {
                let mut h = Histogram::new();
                for s in &slices {
                    h.add_slice(s, kmode);
                }
                assert!(!h.is_empty());
            },
            20,
            5,
        )
    };
    push(
        "histogram",
        time_hist(KernelMode::Scalar),
        time_hist(KernelMode::Batched),
    );

    // DRAM decomposition: the scalar side is the original field-consuming
    // `decompose` (per-call width derivation), the batched side the
    // precompiled plan — that pair is exactly what the DRAM front-end
    // switched between in this refactor.
    let mut rng = Rng::seed_from(17);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(1 << 32)).collect();
    let geom = DramGeometry::table2_baseline();
    let mapping = AddressMapping::RoBaRaCoCh;
    let plan = MappingPlan::new(&geom, mapping);
    let scalar_dram = {
        let mut buf = Vec::new();
        time_best_of(
            move || {
                buf.clear();
                buf.extend(addrs.iter().map(|&a| decompose(a, &geom, mapping)));
                assert_eq!(buf.len(), 100_000);
            },
            50,
            5,
        )
    };
    let batched_dram = {
        let mut rng = Rng::seed_from(17);
        let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(1 << 32)).collect();
        let mut buf = Vec::new();
        time_best_of(
            move || {
                plan.decompose_batch(&addrs, KernelMode::Batched, &mut buf);
                assert_eq!(buf.len(), 100_000);
            },
            50,
            5,
        )
    };
    push("dram_decompose", scalar_dram, batched_dram);
    out
}

#[derive(Debug, Serialize)]
struct PerfReport {
    scale: String,
    seed: u64,
    benchmarks: usize,
    /// Totals across every grid, for cross-PR continuity.
    direct_secs: f64,
    single_pass_secs: f64,
    speedup: f64,
    grids: Vec<GridReport>,
    /// Capture-cache counters of the cross-figure reuse pass (all five
    /// grids evaluated back to back without clearing).
    capture_reuse: CaptureReuse,
    /// Scalar-vs-batched microbenchmarks of the three dual-path kernels.
    kernels: Vec<KernelTiming>,
}

fn metric_name(m: Metric) -> &'static str {
    match m {
        Metric::L1MissPct => "l1_miss_pct",
        Metric::L2MissPct => "l2_miss_pct",
    }
}

/// Runs every grid single-pass over already-prepared benchmarks, without
/// clearing the capture cache — all five stock grids mask to one
/// reference config, so each benchmark must capture exactly once (per
/// stream) for the whole set.
fn reuse_pass(data: &[BenchData]) -> CaptureReuse {
    engine::capture_cache_clear();
    for (_, configs, metric) in grids() {
        let plan = engine::plan_single_pass(&configs, metric).expect("grid plans single-pass");
        for d in data {
            let _ = engine::sweep_benchmark_single_pass(d, &plan, &configs);
        }
    }
    let stats = engine::capture_cache_stats();
    engine::capture_cache_clear();
    CaptureReuse {
        hits: stats.hits,
        misses: stats.misses,
    }
}

/// `--smoke`: assert the planner coverage and the capture-cache reuse
/// cheaply (single-pass only), for CI. Panics (nonzero exit) on any grid
/// falling off the single-pass path.
fn smoke(opts: &ExperimentOpts) {
    println!(
        "=== sweep-engine smoke: planner coverage at scale {:?} ===",
        opts.scale
    );
    // The batched kernels must be the live default: CI runs this smoke
    // with a clean environment, so a leaked GMAP_SCALAR_KERNELS (or a
    // default regression) fails the gate here.
    assert!(
        gmap_trace::default_mode().is_batched(),
        "batched kernels must be the default path (GMAP_SCALAR_KERNELS leaked into the environment?)"
    );
    println!(
        "kernel mode: {:?} (default path)",
        gmap_trace::default_mode()
    );
    for (name, configs, metric) in grids() {
        let plan = engine::plan_single_pass(&configs, metric)
            .unwrap_or_else(|| panic!("{name} fell off the single-pass path"));
        println!(
            "{name:<20} plans single-pass: {} configs in {} groups",
            configs.len(),
            plan.groups.len()
        );
    }
    let data: Vec<BenchData> = BENCHMARKS
        .iter()
        .map(|n| prepare(n, opts.scale, opts.seed))
        .collect();
    let t = Instant::now();
    let reuse = reuse_pass(&data);
    let expected_misses = (BENCHMARKS.len() * 2) as u64;
    assert_eq!(
        reuse.misses, expected_misses,
        "every stock grid shares one capture pair per benchmark"
    );
    assert!(
        reuse.hits >= expected_misses,
        "cross-figure capture reuse must kick in (hits {})",
        reuse.hits
    );
    println!(
        "all {} grids single-pass in {:.2}s; capture cache {} hits / {} misses",
        grids().len(),
        t.elapsed().as_secs_f64(),
        reuse.hits,
        reuse.misses
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = ExperimentOpts::parse(&args);
    if !args.iter().any(|a| a == "--scale") {
        opts.scale = gmap_gpu::workloads::Scale::Small;
    }
    if args.iter().any(|a| a == "--smoke") {
        smoke(&opts);
        return;
    }
    if args.iter().any(|a| a == "--kernels") {
        // Quick mode: just the per-kernel scalar-vs-batched timings,
        // without touching BENCH_sweep.json.
        println!("=== kernel microbenchmarks (scalar vs batched) ===");
        for k in kernel_microbench() {
            println!(
                "{:<16} scalar {:9.6}s  batched {:9.6}s  speedup {:5.2}x",
                k.kernel, k.scalar_secs, k.batched_secs, k.speedup
            );
        }
        return;
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sweep.json".to_string());

    let data: Vec<BenchData> = BENCHMARKS
        .iter()
        .map(|n| prepare(n, opts.scale, opts.seed))
        .collect();

    let mut grid_reports = Vec::new();
    let (mut direct_total, mut single_total) = (0.0f64, 0.0f64);
    for (sweep_name, configs, metric) in grids() {
        let plan = engine::plan_single_pass(&configs, metric)
            .unwrap_or_else(|| panic!("{sweep_name} fell off the single-pass path"));
        println!(
            "=== {sweep_name}: {} configs, scale {:?} ===",
            configs.len(),
            opts.scale
        );
        let mut rows = Vec::new();
        let (mut grid_direct, mut grid_single) = (0.0f64, 0.0f64);
        for d in &data {
            let t = Instant::now();
            let direct_cmp = sweep_benchmark(d, &configs, metric);
            let direct_secs = t.elapsed().as_secs_f64();

            // Clear between timed sections: a capture memoized by an
            // earlier grid would otherwise inflate this grid's speedup.
            engine::capture_cache_clear();
            let t = Instant::now();
            let single_cmp = engine::sweep_benchmark_single_pass(d, &plan, &configs);
            let single_pass_secs = t.elapsed().as_secs_f64();

            // Sanity: both paths produce full aligned series.
            assert_eq!(direct_cmp.original.len(), single_cmp.original.len());

            let speedup = direct_secs / single_pass_secs.max(1e-9);
            println!(
                "{:<14} direct {direct_secs:7.3}s  single-pass {single_pass_secs:7.3}s  speedup {speedup:6.1}x",
                d.kernel.name
            );
            grid_direct += direct_secs;
            grid_single += single_pass_secs;
            rows.push(PerBenchmark {
                name: d.kernel.name.clone(),
                direct_secs,
                single_pass_secs,
                speedup,
            });
        }
        let grid_speedup = grid_direct / grid_single.max(1e-9);
        println!(
            "{sweep_name}: direct {grid_direct:.3}s  single-pass {grid_single:.3}s  speedup {grid_speedup:.1}x\n"
        );
        direct_total += grid_direct;
        single_total += grid_single;
        grid_reports.push(GridReport {
            sweep: sweep_name.to_string(),
            metric: metric_name(metric).to_string(),
            configs: configs.len(),
            validation_points: BENCHMARKS.len() * configs.len() * 2,
            direct_secs: grid_direct,
            single_pass_secs: grid_single,
            speedup: grid_speedup,
            per_benchmark: rows,
        });
    }

    // Cross-figure reuse: all grids back to back share captures.
    let reuse = reuse_pass(&data);

    println!("=== kernel microbenchmarks (scalar vs batched) ===");
    let kernels = kernel_microbench();
    for k in &kernels {
        println!(
            "{:<16} scalar {:9.6}s  batched {:9.6}s  speedup {:5.2}x",
            k.kernel, k.scalar_secs, k.batched_secs, k.speedup
        );
    }

    let speedup = direct_total / single_total.max(1e-9);
    let report = PerfReport {
        scale: format!("{:?}", opts.scale).to_lowercase(),
        seed: opts.seed,
        benchmarks: BENCHMARKS.len(),
        direct_secs: direct_total,
        single_pass_secs: single_total,
        speedup,
        grids: grid_reports,
        capture_reuse: reuse,
        kernels,
    };
    println!(
        "total: direct {direct_total:.3}s  single-pass {single_total:.3}s  speedup {speedup:.1}x"
    );
    println!(
        "capture reuse across grids: {} hits / {} misses",
        report.capture_reuse.hits, report.capture_reuse.misses
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("report file is writable");
    println!("report written to {out_path}");
}
