//! The figure-sweep workloads: `sweep_lru` (fig6a, fig6b, fig6e) and
//! `sweep_prefetch` (fig6c, fig6d).
//!
//! Each figure runs the way `scripts/run_experiments.sh` runs it — one
//! process per figure, so nothing carries over: the capture cache is
//! cleared, every benchmark is prepared afresh (execute, profile,
//! generate) in a `parallel_map` over the worker threads, then a second
//! `parallel_map` captures and evaluates each benchmark, and the main
//! thread compares and summarizes. Every library call is wrapped in a
//! span; see [`crate::spans`].

use crate::host;
use crate::report::{Metric, Outcome};
use crate::spans::{self, Recorder, Span, SpanId};
use crate::stats;
use gmap_bench::engine::{self, SweepPlan};
use gmap_bench::{parallel_map, sweeps, BenchData, Metric as SweepMetric};
use gmap_core::generate::generate_streams;
use gmap_core::{compare_series, profile_kernel, summarize, ProfilerConfig, SimtConfig};
use gmap_gpu::workloads::{self, Scale};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Absolute tolerance of the golden comparison (the golden-fidelity
/// suite's own).
const TOLERANCE: f64 = 1e-12;
/// The seed the goldens were frozen at; proxy series are checked only
/// there (original series do not depend on the seed).
const GOLDEN_SEED: u64 = 42;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 101;

/// Which figure group a sweep workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// fig6a, fig6b, fig6e: LRU/FIFO stack-distance evaluation.
    Lru,
    /// fig6c, fig6d: prefetcher evaluation.
    Prefetch,
}

/// One figure's grid, its single-pass plan and where its golden lives.
pub struct Figure {
    /// Evaluate span name, e.g. `"eval.6a"`.
    pub eval_span: &'static str,
    /// Golden file stem under `tests/golden/`.
    pub golden: &'static str,
    /// The configuration grid.
    pub configs: Vec<SimtConfig>,
    /// The plan the engine evaluates the grid with.
    pub plan: SweepPlan,
}

/// Builds the figures of a workload: the grids and their plans. This is
/// the sweep's set-up work.
pub fn figures(sweep: Sweep) -> Vec<Figure> {
    let grids: Vec<(&'static str, &'static str, Vec<SimtConfig>, SweepMetric)> = match sweep {
        Sweep::Lru => vec![
            (
                "eval.6a",
                "fig6a_l1",
                sweeps::l1_sweep(),
                SweepMetric::L1MissPct,
            ),
            (
                "eval.6b",
                "fig6b_l2",
                sweeps::l2_sweep(),
                SweepMetric::L2MissPct,
            ),
            (
                "eval.6e",
                "fig6e_replacement",
                sweeps::replacement_policy_sweep(),
                SweepMetric::L1MissPct,
            ),
        ],
        Sweep::Prefetch => vec![
            (
                "eval.6c",
                "fig6c_l1_prefetch",
                sweeps::l1_prefetch_sweep(),
                SweepMetric::L1MissPct,
            ),
            (
                "eval.6d",
                "fig6d_l2_prefetch",
                sweeps::l2_prefetch_sweep(),
                SweepMetric::L2MissPct,
            ),
        ],
    };
    grids
        .into_iter()
        .map(|(eval_span, golden, configs, metric)| {
            let plan = engine::plan_single_pass(&configs, metric)
                .unwrap_or_else(|| panic!("{golden} must plan single-pass"));
            Figure {
                eval_span,
                golden,
                configs,
                plan,
            }
        })
        .collect()
}

/// One benchmark's frozen series.
#[derive(Debug, Deserialize)]
struct SeriesPair {
    original: Vec<f64>,
    proxy: Vec<f64>,
}

/// A golden file as `tests/golden_fidelity.rs` writes it.
#[derive(Debug, Deserialize)]
struct GoldenFigure {
    configs: usize,
    benchmarks: BTreeMap<String, SeriesPair>,
}

fn load_golden(root: &Path, stem: &str) -> Result<GoldenFigure, String> {
    let path = root.join("tests/golden").join(format!("{stem}.json"));
    let raw = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read golden {}: {e}", path.display()))?;
    serde_json::from_str(&raw).map_err(|e| format!("golden {} is corrupt: {e}", path.display()))
}

/// Series of one benchmark in one figure.
type SeriesOut = (Vec<f64>, Vec<f64>);

/// What one pass produced: per figure, per benchmark, the series (or
/// `None` when its job panicked).
struct PassResult {
    wall_s: f64,
    /// Process CPU seconds (user + system) the pass consumed.
    cpu_s: f64,
    /// Peak resident set size during the pass.
    peak_rss_mb: f64,
    /// Wall time of each figure run, in figure order.
    figure_s: Vec<f64>,
    series: Vec<Vec<Option<SeriesOut>>>,
    accesses: u64,
    capture_hit_ratio: f64,
    avg_err_pp: f64,
    configs: u64,
}

/// Runs one pass over every figure.
fn run_pass(
    rec: &Recorder,
    figs: &[Figure],
    names: &[&str],
    scale: Scale,
    seed: u64,
    threads: usize,
    pass: u64,
) -> PassResult {
    host::reset_peak_rss();
    let cpu0 = host::cpu_seconds();
    let start = Instant::now();
    let mut series = Vec::with_capacity(figs.len());
    let mut accesses = 0;
    let (mut hits, mut lookups) = (0u64, 0u64);
    let mut errs = Vec::new();
    let mut configs = 0u64;
    let mut figure_s = Vec::with_capacity(figs.len());
    rec.span("pass", None, pass, |pass_span| {
        for fig in figs {
            engine::capture_cache_clear();
            let fig_start = Instant::now();
            let fig_out = rec.span("figure", pass_span, pass, |fig_span| {
                run_figure(rec, fig, names, scale, seed, threads, pass, fig_span)
            });
            figure_s.push(fig_start.elapsed().as_secs_f64());
            let cache = engine::capture_cache_stats();
            hits += cache.hits;
            lookups += cache.hits + cache.misses;
            configs += 2 * (fig.configs.len() * fig_out.rows.iter().flatten().count()) as u64;
            accesses += fig_out.accesses;
            errs.push(fig_out.avg_err_pp);
            series.push(fig_out.rows);
        }
    });
    PassResult {
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds() - cpu0,
        peak_rss_mb: host::peak_rss_mb("self").unwrap_or(0.0),
        figure_s,
        series,
        accesses,
        capture_hit_ratio: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        avg_err_pp: errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        configs,
    }
}

struct FigureOut {
    rows: Vec<Option<SeriesOut>>,
    accesses: u64,
    avg_err_pp: f64,
}

/// Prepares one benchmark exactly as [`gmap_bench::prepare`] does, one
/// span per layer.
fn prepare(
    rec: &Recorder,
    name: &str,
    scale: Scale,
    seed: u64,
    parent: Option<SpanId>,
    pass: u64,
) -> BenchData {
    let (kernel, orig_streams) = rec.span("prepare.execute", parent, pass, |_| {
        let kernel = workloads::by_name(name, scale).expect("known benchmark name");
        let streams = gmap_core::model::original_streams(&kernel);
        (kernel, streams)
    });
    let profile = rec.span("prepare.profile", parent, pass, |_| {
        profile_kernel(&kernel, &ProfilerConfig::default())
    });
    let proxy_streams = rec.span("prepare.generate", parent, pass, |_| {
        generate_streams(&profile, seed)
    });
    BenchData {
        kernel,
        orig_streams,
        profile,
        proxy_streams,
        scale,
        seed,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_figure(
    rec: &Recorder,
    fig: &Figure,
    names: &[&str],
    scale: Scale,
    seed: u64,
    threads: usize,
    pass: u64,
    fig_span: Option<SpanId>,
) -> FigureOut {
    let data: Vec<Option<Arc<BenchData>>> = parallel_map(names, threads, |name| {
        catch_unwind(AssertUnwindSafe(|| {
            Arc::new(prepare(rec, name, scale, seed, fig_span, pass))
        }))
        .ok()
    });
    let jobs: Vec<Option<(SeriesOut, u64)>> = parallel_map(&data, threads, |d| {
        let d = d.as_ref()?;
        catch_unwind(AssertUnwindSafe(|| {
            rec.span("job", fig_span, pass, |job| {
                let capture = |proxy: bool| {
                    rec.span("capture", job, pass, |_| {
                        let (streams, launch) = if proxy {
                            (&d.proxy_streams, &d.profile.launch)
                        } else {
                            (&d.orig_streams, &d.kernel.launch)
                        };
                        engine::capture_stream_cached(
                            &d.capture_source(proxy),
                            streams,
                            launch,
                            &fig.plan.capture_cfg,
                        )
                    })
                };
                let (orig, proxy) = (capture(false), capture(true));
                let eval = |c: &engine::CapturedStream| {
                    rec.span(fig.eval_span, job, pass, |_| {
                        engine::eval_captured(&fig.plan, c, &fig.configs).values
                    })
                };
                let series = (eval(&orig), eval(&proxy));
                (series, (orig.accesses.len() + proxy.accesses.len()) as u64)
            })
        }))
        .ok()
    });
    let mut rows = Vec::with_capacity(jobs.len());
    let mut accesses = 0;
    for job in jobs {
        rows.push(job.map(|(series, acc)| {
            accesses += acc;
            series
        }));
    }
    let summary = rec.span("summarize", fig_span, pass, |_| {
        let comparisons = names
            .iter()
            .zip(&rows)
            .filter_map(|(name, row)| {
                let (o, p) = row.as_ref()?;
                Some(compare_series(name, o.clone(), p.clone()))
            })
            .collect();
        summarize(comparisons)
    });
    FigureOut {
        rows,
        accesses,
        avg_err_pp: summary.avg_error,
    }
}

/// FNV-1a over the bit patterns of every series value, in order.
fn digest(series: &[Vec<Option<SeriesOut>>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in series.iter().flatten() {
        let Some((o, p)) = row else {
            h = (h ^ 0xff).wrapping_mul(0x100_0000_01b3);
            continue;
        };
        for v in o.iter().chain(p) {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// Checks one pass's series against the goldens: originals always,
/// proxies at the golden seed and scale. Returns the mismatches found.
fn check_goldens(
    figs: &[Figure],
    goldens: &[GoldenFigure],
    names: &[&str],
    series: &[Vec<Option<SeriesOut>>],
    check_proxy: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    for ((fig, golden), rows) in figs.iter().zip(goldens).zip(series) {
        if golden.configs != fig.configs.len() {
            bad.push(format!("{}: grid size changed", fig.golden));
            continue;
        }
        for (name, row) in names.iter().zip(rows) {
            let Some((o, p)) = row else { continue };
            let Some(want) = golden.benchmarks.get(*name) else {
                bad.push(format!("{}/{name}: missing from golden", fig.golden));
                continue;
            };
            let mut streams = vec![("original", o, &want.original)];
            if check_proxy {
                streams.push(("proxy", p, &want.proxy));
            }
            for (stream, got, want) in streams {
                let same = got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g - w).abs() <= TOLERANCE);
                if !same {
                    bad.push(format!(
                        "{}/{name}/{stream} drifted from golden",
                        fig.golden
                    ));
                }
            }
        }
    }
    bad
}

/// What a pass is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Measured without spans.
    Untraced,
    /// Measured with spans.
    Traced,
    /// The opening pass of a traced run, kept out of the overhead.
    Warmup,
}

/// Options of a sweep run.
pub struct SweepOpts<'a> {
    /// Which figures.
    pub sweep: Sweep,
    /// Clone seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Worker threads.
    pub threads: usize,
    /// Benchmarks to run (all 18 unless shortened for a smoke run).
    pub names: Vec<&'a str>,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Checkout root (where `tests/golden/` lives).
    pub root: &'a Path,
}

/// Per-layer self time of every span name, summed over `spans`.
fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(spans::self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += self_ns as f64 * 1e-9;
    }
    out
}

/// Runs a sweep workload: set-up, then whole passes until the budget is
/// spent (at least one; a traced run alternates untraced and traced
/// passes, at least one of each), then verification.
pub fn run(opts: &SweepOpts) -> Outcome {
    let scale = Scale::Tiny;
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut figs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        figs = std::hint::black_box(figures(opts.sweep));
        setup.push(t.elapsed().as_secs_f64());
    }
    // Verification inputs, loaded outside every timed region.
    let goldens: Result<Vec<GoldenFigure>, String> = figs
        .iter()
        .map(|f| load_golden(opts.root, f.golden))
        .collect();
    let goldens = match goldens {
        Ok(g) => g,
        Err(e) => return Outcome::refused(e),
    };

    let untraced = Recorder::new(false);
    let traced = Recorder::new(true);
    let mut passes: Vec<(Role, PassResult)> = Vec::new();
    let t0 = Instant::now();
    loop {
        let n = passes.len();
        // A traced run opens with an untraced warm-up pass (first-touch
        // costs fall on it), then alternates traced and untraced passes.
        let role = match (opts.trace, n) {
            (false, _) => Role::Untraced,
            (true, 0) => Role::Warmup,
            (true, n) if n % 2 == 1 => Role::Traced,
            (true, _) => Role::Untraced,
        };
        let rec = if role == Role::Traced {
            &traced
        } else {
            &untraced
        };
        let r = run_pass(
            rec,
            &figs,
            &opts.names,
            scale,
            opts.seed,
            opts.threads,
            n as u64,
        );
        passes.push((role, r));
        let has = |role: Role| passes.iter().any(|p| p.0 == role);
        let have_both = !opts.trace || has(Role::Traced) && has(Role::Untraced);
        if have_both && t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    // Verification: goldens per pass, one digest across passes.
    let mut problems = Vec::new();
    let check_proxy = opts.seed == GOLDEN_SEED;
    let first = digest(&passes[0].1.series);
    for (i, (_, p)) in passes.iter().enumerate() {
        problems.extend(check_goldens(
            &figs,
            &goldens,
            &opts.names,
            &p.series,
            check_proxy,
        ));
        if digest(&p.series) != first {
            problems.push(format!("pass {i} series digest differs from pass 0"));
        }
    }
    let jobs_per_pass = (figs.len() * opts.names.len()) as u64;
    let attempted = jobs_per_pass * passes.len() as u64;
    let failed: u64 = passes
        .iter()
        .map(|(_, p)| p.series.iter().flatten().filter(|r| r.is_none()).count() as u64)
        .sum();

    // Per-pass figures of the passes in one role, and their median.
    let of = |want: Role, f: &dyn Fn(&PassResult) -> f64| -> Vec<f64> {
        passes
            .iter()
            .filter(|(r, _)| *r == want)
            .map(|(_, p)| f(p))
            .collect()
    };
    let rate = |want: Role| stats::median(&of(want, &|p| p.configs as f64 / p.wall_s.max(1e-9)));
    let untraced_rate = rate(Role::Untraced);
    let mut out = Outcome::new(problems, attempted, failed);
    out.note("passes", passes.len() as f64);
    out.note("benchmarks", opts.names.len() as f64);
    out.note("points_per_pass", passes[0].1.configs as f64);
    out.note(
        "points_per_cpu_s",
        stats::median(&of(Role::Untraced, &|p| {
            p.configs as f64 / p.cpu_s.max(1e-9)
        })),
    );
    if !opts.trace {
        // What one figure run costs its user: the median over every
        // figure run of every pass.
        let figure_ms: Vec<f64> = passes
            .iter()
            .filter(|(r, _)| *r == Role::Untraced)
            .flat_map(|(_, p)| p.figure_s.iter().map(|s| s * 1e3))
            .collect();
        let rss = of(Role::Untraced, &|p| p.peak_rss_mb);
        out.metrics = vec![
            Metric::new("setup_s", "s", stats::median(&setup), setup.len()),
            Metric::new("ops_per_s", "1/s", untraced_rate, passes.len()),
            Metric::new("p50_ms", "ms", stats::median(&figure_ms), figure_ms.len()),
            Metric::new("peak_rss_mb", "MB", stats::median(&rss), rss.len()),
        ];
        return out;
    }

    // Traced run: per-layer self times, per traced pass, reported as the
    // median over traced passes.
    let spans = traced.take();
    let traced_passes: Vec<&PassResult> = passes
        .iter()
        .filter(|(r, _)| *r == Role::Traced)
        .map(|(_, p)| p)
        .collect();
    let traced_ids: Vec<u64> = (0..passes.len() as u64)
        .filter(|i| passes[*i as usize].0 == Role::Traced)
        .collect();
    let per_pass: Vec<BTreeMap<&'static str, f64>> = traced_ids
        .iter()
        .map(|i| {
            let mine: Vec<Span> = spans.iter().filter(|s| s.group == *i).cloned().collect();
            self_by_name(&mine)
        })
        .collect();
    // (median per-pass self time, number of spans it sums)
    let layer = |name: &str| {
        let v: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        let spans_of = spans.iter().filter(|s| s.name == name).count();
        (stats::median(&v), spans_of)
    };
    let busy_layers = [
        "prepare.execute",
        "prepare.profile",
        "prepare.generate",
        "capture",
        "eval.6a",
        "eval.6b",
        "eval.6c",
        "eval.6d",
        "eval.6e",
        "summarize",
    ];
    let idle: Vec<f64> = traced_passes
        .iter()
        .zip(&per_pass)
        .map(|(p, m)| {
            let busy: f64 = busy_layers.iter().filter_map(|n| m.get(n)).sum();
            opts.threads as f64 * p.wall_s - busy
        })
        .collect();
    let long_pole: Vec<f64> = traced_ids
        .iter()
        .map(|i| {
            spans
                .iter()
                .filter(|s| s.group == *i && s.name == "job")
                .map(|s| s.duration() as f64 * 1e-9)
                .fold(0.0, f64::max)
        })
        .collect();
    let n = traced_passes.len();
    let med = |f: &dyn Fn(&PassResult) -> f64| {
        stats::median(&traced_passes.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let traced_rate = rate(Role::Traced);
    let mut metrics = Vec::new();
    for (metric, span) in [
        ("prepare.execute_s", "prepare.execute"),
        ("prepare.profile_s", "prepare.profile"),
        ("prepare.generate_s", "prepare.generate"),
        ("capture_s", "capture"),
    ] {
        let (v, c) = layer(span);
        metrics.push(Metric::new(metric, "s", v, c));
    }
    metrics.push(Metric::new(
        "capture.accesses",
        "count",
        med(&|p| p.accesses as f64),
        n,
    ));
    metrics.push(Metric::new(
        "capture.cache_hit_ratio",
        "ratio",
        med(&|p| p.capture_hit_ratio),
        n,
    ));
    for (metric, span) in [
        ("eval.6a_s", "eval.6a"),
        ("eval.6b_s", "eval.6b"),
        ("eval.6c_s", "eval.6c"),
        ("eval.6d_s", "eval.6d"),
        ("eval.6e_s", "eval.6e"),
    ] {
        let (v, c) = layer(span);
        metrics.push(Metric::new(metric, "s", v, c));
    }
    metrics.push(Metric::new(
        "eval.configs",
        "count",
        med(&|p| p.configs as f64),
        n,
    ));
    metrics.push(Metric::new(
        "sweep.long_pole_s",
        "s",
        stats::median(&long_pole),
        n,
    ));
    metrics.push(Metric::new("sweep.idle_s", "s", stats::median(&idle), n));
    let (v, c) = layer("summarize");
    metrics.push(Metric::new("summarize_s", "s", v, c));
    metrics.push(Metric::new(
        "sweep.avg_err_pp",
        "pp",
        med(&|p| p.avg_err_pp),
        n,
    ));
    crate::report::push_overhead(&mut metrics, untraced_rate, traced_rate, n);
    // Accounting detail: threads × wall = layer self times + idle.
    out.note("traced_wall_s", med(&|p| p.wall_s));
    out.note(
        "untraced_wall_s",
        stats::median(&of(Role::Untraced, &|p| p.wall_s)),
    );
    out.note("threads", opts.threads as f64);
    for (name, (v, _)) in ["pass", "figure", "job"].iter().map(|s| (s, layer(s))) {
        out.note(&format!("self_s.{name}"), v);
    }
    out.spans = Some(spans::to_json(&spans));
    out.metrics = metrics;
    out
}
