//! Experiment harness for the G-MAP reproduction.
//!
//! One binary per table/figure of the paper (see `src/bin/`); this library
//! holds what they share: the configuration sweeps of §5, benchmark
//! preparation (execute → profile → clone, each done once per benchmark),
//! multi-threaded sweep execution, and result formatting.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — per-application access signatures |
//! | `fig5`   | Figure 5 — reuse distance worked example |
//! | `fig6a`  | Figure 6a — L1 cache sweep (30 configs/benchmark) |
//! | `fig6b`  | Figure 6b — L2 cache sweep (30 configs/benchmark) |
//! | `fig6c`  | Figure 6c — L1 + stride prefetcher (72 configs/benchmark) |
//! | `fig6d`  | Figure 6d — L2 + stream prefetcher (96 configs/benchmark) |
//! | `fig6e`  | Figure 6e — LRR vs GTO scheduling policies |
//! | `fig7`   | Figure 7 — DRAM metrics across 11 GDDR5 configs |
//! | `fig8`   | Figure 8 — miniaturization accuracy/speedup sweep |
//! | `ablation` | DESIGN.md §4 — design-choice ablations |

#![warn(missing_docs)]

use gmap_core::{
    compare_series, generate::generate_streams, profile_kernel, simulate_streams, summarize,
    BenchmarkComparison, GmapProfile, ProfilerConfig, SimtConfig, SweepSummary,
};
use gmap_gpu::kernel::KernelDesc;
use gmap_gpu::schedule::WarpStream;
use gmap_gpu::workloads::{self, Scale};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod engine;
pub mod sweeps;

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Workload scale.
    pub scale: Scale,
    /// Clone-generation / scheduling seed.
    pub seed: u64,
    /// Worker threads (one benchmark per thread).
    pub threads: usize,
    /// Optional CSV output path for the raw per-config series.
    pub csv: Option<String>,
}

impl ExperimentOpts {
    /// Usage text printed for `--help`/`-h`.
    pub const HELP: &'static str = "\
G-MAP experiment options:
  --scale tiny|small|default   workload scale (default: default)
  --seed N                     clone-generation / scheduling seed (default: 42)
  --threads N                  worker threads (default: available parallelism)
  --csv PATH                   write the raw per-config series as CSV
  -h, --help                   print this help and exit
";

    /// Parses the experiment flags from the command line; `--help`/`-h`
    /// prints [`Self::HELP`] and exits.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", Self::HELP);
            std::process::exit(0);
        }
        Self::parse(&args)
    }

    /// Parses an argument list (without the program name). Each flag
    /// consumes the following token as its value — but never another
    /// `--flag`, so `--csv --seed 7` leaves `csv` unset (with a warning)
    /// instead of silently recording `csv = "--seed"`. Unknown tokens are
    /// ignored.
    pub fn parse(args: &[String]) -> Self {
        let mut opts = ExperimentOpts {
            scale: Scale::Default,
            seed: 42,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            csv: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !matches!(flag, "--scale" | "--seed" | "--threads" | "--csv") {
                i += 1;
                continue;
            }
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v,
                _ => {
                    eprintln!("warning: {flag} requires a value; ignored");
                    i += 1;
                    continue;
                }
            };
            match flag {
                "--scale" => {
                    opts.scale = match value.as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        _ => Scale::Default,
                    }
                }
                "--seed" => {
                    if let Ok(s) = value.parse() {
                        opts.seed = s;
                    }
                }
                "--threads" => {
                    if let Ok(t) = value.parse() {
                        opts.threads = t;
                    }
                }
                "--csv" => opts.csv = Some(value.clone()),
                _ => unreachable!("matched above"),
            }
            i += 2;
        }
        opts
    }
}

/// Everything derived once per benchmark: the executed original stream,
/// the statistical profile, and the clone stream.
#[derive(Debug)]
pub struct BenchData {
    /// The kernel description.
    pub kernel: KernelDesc,
    /// Original coalesced per-warp streams.
    pub orig_streams: Vec<WarpStream>,
    /// The statistical profile.
    pub profile: GmapProfile,
    /// Clone streams generated from the profile.
    pub proxy_streams: Vec<WarpStream>,
    /// Workload scale the bundle was prepared at.
    pub scale: Scale,
    /// Clone-generation seed the bundle was prepared with.
    pub seed: u64,
}

impl BenchData {
    /// Stable identity of one of this bundle's streams for the engine's
    /// cross-figure capture cache: `(name, scale, seed)` pin the stream
    /// content exactly — original streams depend on (name, scale), proxy
    /// streams additionally on the seed.
    pub fn capture_source(&self, proxy: bool) -> String {
        format!(
            "bench:{}:{:?}:{}:{}",
            self.kernel.name,
            self.scale,
            self.seed,
            if proxy { "proxy" } else { "orig" }
        )
    }
}

/// Prepares one benchmark: execute, profile, clone.
pub fn prepare(name: &str, scale: Scale, seed: u64) -> BenchData {
    let kernel = workloads::by_name(name, scale).expect("known benchmark name");
    let orig_streams = gmap_core::model::original_streams(&kernel);
    let profile = profile_kernel(&kernel, &ProfilerConfig::default());
    let proxy_streams = generate_streams(&profile, seed);
    BenchData {
        kernel,
        orig_streams,
        profile,
        proxy_streams,
        scale,
        seed,
    }
}

/// Metric extracted from a simulation for figure comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// L1 miss rate, percent.
    L1MissPct,
    /// L2 miss rate, percent.
    L2MissPct,
}

impl Metric {
    fn extract(self, out: &gmap_core::SimOutcome) -> f64 {
        match self {
            Metric::L1MissPct => out.l1_miss_pct(),
            Metric::L2MissPct => out.l2_miss_pct(),
        }
    }
}

/// Runs one benchmark through every configuration, original and proxy,
/// and compares the chosen metric.
pub fn sweep_benchmark(
    data: &BenchData,
    configs: &[SimtConfig],
    metric: Metric,
) -> BenchmarkComparison {
    let mut orig = Vec::with_capacity(configs.len());
    let mut proxy = Vec::with_capacity(configs.len());
    for cfg in configs {
        let o = simulate_streams(&data.orig_streams, &data.kernel.launch, cfg)
            .expect("sweep configurations are valid");
        let p = simulate_streams(&data.proxy_streams, &data.profile.launch, cfg)
            .expect("sweep configurations are valid");
        orig.push(metric.extract(&o));
        proxy.push(metric.extract(&p));
    }
    compare_series(&data.kernel.name, orig, proxy)
}

/// Outcome of evaluating one profile's clone across a configuration grid
/// (see [`evaluate_profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEvaluation {
    /// Metric value in percent per configuration, aligned with the input
    /// config slice.
    pub values: Vec<f64>,
    /// Whether the single-pass stack-distance engine evaluated the grid
    /// (`false` = one full simulation per configuration).
    pub single_pass: bool,
}

/// Evaluates a profile's clone across a configuration grid — the reusable
/// library entry point behind `gmap serve`'s `/v1/evaluate` endpoint and
/// any other caller that has a [`GmapProfile`] rather than a named
/// benchmark.
///
/// The clone stream is generated once from `profile` with `seed`; the
/// grid is then evaluated by the single-pass stack-distance engine when
/// [`engine::plan_single_pass`] proves the sweep eligible, and by direct
/// per-config simulation otherwise.
///
/// `cancel` is a cooperative cancellation token: it is checked between
/// coarse units of work (stream generation, capture, each direct-path
/// configuration), and once observed `true` the function returns `None`
/// without completing the grid.
pub fn evaluate_profile(
    profile: &GmapProfile,
    configs: &[SimtConfig],
    metric: Metric,
    seed: u64,
    cancel: Option<&std::sync::atomic::AtomicBool>,
) -> Option<ProfileEvaluation> {
    let cancelled = || cancel.is_some_and(|c| c.load(std::sync::atomic::Ordering::Relaxed));
    if cancelled() {
        return None;
    }
    let streams = generate_streams(profile, seed);
    if cancelled() {
        return None;
    }
    if let Some(plan) = engine::plan_single_pass(configs, metric) {
        // Keyed by profile content + seed: repeated evaluations of the
        // same model (the common service pattern — one clone, many
        // grids) capture once per process.
        let source = format!("profile:{}:{}", gmap_core::cachekey::key_of(profile), seed);
        let capture =
            engine::capture_stream_cached(&source, &streams, &profile.launch, &plan.capture_cfg);
        if cancelled() {
            return None;
        }
        let series = engine::eval_captured(&plan, &capture, configs);
        return Some(ProfileEvaluation {
            values: series.values,
            single_pass: true,
        });
    }
    let mut values = Vec::with_capacity(configs.len());
    for cfg in configs {
        if cancelled() {
            return None;
        }
        let out = simulate_streams(&streams, &profile.launch, cfg)
            .expect("evaluation configurations are valid");
        values.push(metric.extract(&out));
    }
    Some(ProfileEvaluation {
        values,
        single_pass: false,
    })
}

/// One unit of sweep work: a benchmark and a contiguous config range.
struct SweepJob {
    data: Arc<BenchData>,
    bench: usize,
    lo: usize,
    hi: usize,
}

/// Runs a whole figure: all 18 benchmarks across the sweep.
///
/// Preparation (execute → profile → clone) runs once per benchmark in
/// parallel; the sweep itself is a flat work queue of (benchmark,
/// config-chunk) jobs over shared [`Arc<BenchData>`], so thread
/// utilization no longer collapses to one-thread-per-benchmark when a
/// few benchmarks dominate. Pure-LRU no-prefetcher sweeps are detected
/// by [`engine::plan_single_pass`] and evaluated in one stack-distance
/// pass per (benchmark, line size) instead of one full simulation per
/// config. Once the queue runs dry, the slots of idle workers take over
/// units of the evaluations still running ([`share_idle`]).
pub fn run_figure(
    title: &str,
    configs: &[SimtConfig],
    metric: Metric,
    opts: ExperimentOpts,
) -> SweepSummary {
    print_header(title, configs.len(), &opts);

    let t0 = Instant::now();
    let names: Vec<&str> = workloads::NAMES.to_vec();
    let data: Vec<Arc<BenchData>> = parallel_map(&names, opts.threads, |name| {
        Arc::new(prepare(name, opts.scale, opts.seed))
    });
    let prepare_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let plan = engine::plan_single_pass(configs, metric);
    let jobs: Vec<SweepJob> = match &plan {
        // Single-pass: the whole series per benchmark is one cheap job.
        Some(_) => data
            .iter()
            .enumerate()
            .map(|(b, d)| SweepJob {
                data: Arc::clone(d),
                bench: b,
                lo: 0,
                hi: configs.len(),
            })
            .collect(),
        // Direct: chunk the config grid so the queue stays deeper than
        // the thread pool even with few benchmarks in flight.
        None => {
            let chunk = configs.len().div_ceil(4).max(1);
            let mut jobs = Vec::new();
            for (b, d) in data.iter().enumerate() {
                let mut lo = 0;
                while lo < configs.len() {
                    let hi = (lo + chunk).min(configs.len());
                    jobs.push(SweepJob {
                        data: Arc::clone(d),
                        bench: b,
                        lo,
                        hi,
                    });
                    lo = hi;
                }
            }
            jobs
        }
    };
    let results: Vec<Vec<(f64, f64)>> = parallel_map(&jobs, opts.threads, |job| match &plan {
        Some(plan) => {
            let orig = engine::capture_stream_cached(
                &job.data.capture_source(false),
                &job.data.orig_streams,
                &job.data.kernel.launch,
                &plan.capture_cfg,
            );
            let proxy = engine::capture_stream_cached(
                &job.data.capture_source(true),
                &job.data.proxy_streams,
                &job.data.profile.launch,
                &plan.capture_cfg,
            );
            let o = engine::eval_captured(plan, &orig, configs);
            let p = engine::eval_captured(plan, &proxy, configs);
            o.values.into_iter().zip(p.values).collect()
        }
        None => configs[job.lo..job.hi]
            .iter()
            .map(|cfg| {
                let o = simulate_streams(&job.data.orig_streams, &job.data.kernel.launch, cfg)
                    .expect("sweep configurations are valid");
                let p = simulate_streams(&job.data.proxy_streams, &job.data.profile.launch, cfg)
                    .expect("sweep configurations are valid");
                (metric.extract(&o), metric.extract(&p))
            })
            .collect(),
    });
    // Stitch the chunks back into aligned per-benchmark series.
    let mut orig = vec![vec![0.0f64; configs.len()]; names.len()];
    let mut proxy = vec![vec![0.0f64; configs.len()]; names.len()];
    for (job, values) in jobs.iter().zip(results) {
        for (k, (o, p)) in values.into_iter().enumerate() {
            orig[job.bench][job.lo + k] = o;
            proxy[job.bench][job.lo + k] = p;
        }
    }
    let comparisons: Vec<BenchmarkComparison> = names
        .iter()
        .enumerate()
        .map(|(b, name)| {
            compare_series(
                name,
                std::mem::take(&mut orig[b]),
                std::mem::take(&mut proxy[b]),
            )
        })
        .collect();
    let sweep_secs = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let summary = summarize(comparisons);
    println!("{summary}");
    if let Some(path) = &opts.csv {
        match write_summary_csv(&summary, path) {
            Ok(()) => println!("raw series written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let summarize_secs = t2.elapsed().as_secs_f64();

    let points = names.len() * configs.len();
    println!(
        "phase timings: prepare {prepare_secs:.2}s  sweep {sweep_secs:.2}s  summarize {summarize_secs:.2}s"
    );
    println!(
        "throughput: {:.0} configs/s over {points} validation points ({})",
        points as f64 / sweep_secs.max(1e-9),
        if plan.is_some() {
            "single-pass engine"
        } else {
            "direct simulation"
        }
    );
    summary
}

/// Writes the raw per-config original/proxy series of a sweep as CSV
/// (`benchmark,config,original,proxy`), ready for external plotting.
///
/// # Errors
///
/// Propagates file I/O errors.
pub fn write_summary_csv(summary: &SweepSummary, path: &str) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "benchmark,config,original,proxy")?;
    for b in &summary.per_benchmark {
        for (i, (o, p)) in b.original.iter().zip(&b.proxy).enumerate() {
            writeln!(f, "{},{},{},{}", b.name, i, o, p)?;
        }
    }
    Ok(())
}

/// Prints the experiment banner with the Table 2 baseline reminder.
pub fn print_header(title: &str, num_configs: usize, opts: &ExperimentOpts) {
    println!("=== {title} ===");
    println!(
        "benchmarks: {}  configs/benchmark: {num_configs}  validation points: {}",
        workloads::NAMES.len(),
        workloads::NAMES.len() * num_configs
    );
    println!(
        "scale: {:?}  seed: {}  baseline: 15 SMs, L1 16KB/4-way/128B, L2 1MB/8-way/8-bank (Table 2)\n",
        opts.scale, opts.seed
    );
}

/// Slot accounting of one [`parallel_map`] call: the pool may run at
/// most `threads` compute threads, and `free` counts the slots no worker
/// or helper holds right now. A worker gives its slot back when it runs
/// out of items; [`share_idle`] lends freed slots to helpers.
struct Pool {
    free: AtomicUsize,
}

impl Pool {
    /// Claims a free slot, if any.
    fn try_claim(self: &Arc<Self>) -> Option<Slot> {
        self.free
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .ok()
            .map(|_| Slot(Arc::clone(self)))
    }
}

/// One held slot of a [`Pool`]. Dropping it — also while a panic
/// unwinds the thread holding it — gives the slot back.
struct Slot(Arc<Pool>);

impl Slot {
    /// Marks the current thread as a compute thread of this slot's pool.
    fn enter(&self) {
        CURRENT_POOL.with(|p| *p.borrow_mut() = Some(Arc::clone(&self.0)));
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.free.fetch_add(1, Ordering::AcqRel);
    }
}

thread_local! {
    /// The pool the current thread computes for, if it is a
    /// [`parallel_map`] worker or a [`share_idle`] helper.
    static CURRENT_POOL: RefCell<Option<Arc<Pool>>> = const { RefCell::new(None) };
}

/// Items handed out one at a time through an atomic cursor. The cursor
/// gives each index to exactly one thread, so every result lands in its
/// own cell and there is no shared result funnel to contend on.
struct WorkQueue<'a, T, R, F> {
    items: &'a [T],
    f: F,
    /// Relaxed: the cursor publishes no data; results travel through the
    /// cells' mutexes and the scope's join.
    next: AtomicUsize,
    cells: Vec<Mutex<Option<R>>>,
}

impl<'a, T, R, F: Fn(&T) -> R> WorkQueue<'a, T, R, F> {
    fn new(items: &'a [T], f: F) -> Self {
        WorkQueue {
            items,
            f,
            next: AtomicUsize::new(0),
            cells: (0..items.len()).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Claims the next unclaimed index.
    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.items.len()).then_some(i)
    }

    /// Whether any index is still unclaimed.
    fn has_more(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.items.len()
    }

    fn run(&self, i: usize) {
        let r = (self.f)(&self.items[i]);
        *self.cells[i].lock().expect("no poisoned workers") = Some(r);
    }

    /// Runs items until none is left.
    fn drain(&self) {
        while let Some(i) = self.take() {
            self.run(i);
        }
    }

    fn into_results(self) -> Vec<R> {
        self.cells
            .into_iter()
            .map(|c| {
                c.into_inner()
                    .expect("no poisoned workers")
                    .expect("every slot filled")
            })
            .collect()
    }
}

/// Maps `f` over `items` using up to `threads` worker threads, preserving
/// input order in the output.
///
/// The call is a pool of `threads` slots. A worker that runs out of items
/// gives its slot back, and [`share_idle`] calls inside the remaining
/// items lend it to a helper, so a long last item still uses every slot
/// while never running more than `threads` compute threads.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1);
    let workers = threads.min(items.len());
    let pool = Arc::new(Pool {
        free: AtomicUsize::new(threads - workers),
    });
    let queue = WorkQueue::new(items, f);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let slot = Slot(Arc::clone(&pool));
            let queue = &queue;
            scope.spawn(move || {
                slot.enter();
                queue.drain();
            });
        }
    });
    queue.into_results()
}

/// Maps `f` over `items` in order on the calling thread, lending any slot
/// of the enclosing [`parallel_map`] that an idle worker has given back.
///
/// Between items the calling thread claims each freed slot of its pool
/// and spawns one helper into it; helpers take items from the same queue
/// and give their slot back when none is left (or when an item panics).
/// Outside a pool this is a plain serial map. Results come back in input
/// order whichever thread computed them.
pub fn share_idle<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let Some(pool) = CURRENT_POOL.with(|p| p.borrow().clone()) else {
        return items.iter().map(f).collect();
    };
    let queue = WorkQueue::new(items, f);
    std::thread::scope(|scope| {
        while let Some(i) = queue.take() {
            while queue.has_more() {
                let Some(slot) = pool.try_claim() else { break };
                let queue = &queue;
                scope.spawn(move || {
                    slot.enter();
                    queue.drain();
                });
            }
            queue.run(i);
        }
    });
    queue.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmap_core::compare_series;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 2, 8] {
            let out = parallel_map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, 4, |&x: &u64| x).is_empty());
    }

    /// Free slots of the current thread's pool; `None` outside a pool.
    pub(crate) fn free_slots() -> Option<usize> {
        CURRENT_POOL.with(|p| {
            p.borrow()
                .as_ref()
                .map(|pool| pool.free.load(Ordering::Acquire))
        })
    }

    /// Polls `cond` until it holds, for at most ten seconds; returns
    /// whether it held.
    pub(crate) fn wait_until(cond: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Runs on one worker of a 2-slot pool whose sibling is going idle,
    /// and proves that a helper runs a unit: every unit on the calling
    /// thread blocks until the sibling's slot is free (so the next unit
    /// boundary lends it) or a helper has run a unit. A helper's unit
    /// panics after signalling when `panic_in_helper` is set.
    fn engage_helper(panic_in_helper: bool) {
        let me = std::thread::current().id();
        let helper_ran = std::sync::atomic::AtomicBool::new(false);
        share_idle(&[0, 1, 2], |_| {
            if std::thread::current().id() == me {
                assert!(
                    wait_until(|| free_slots() == Some(1) || helper_ran.load(Ordering::Acquire)),
                    "no helper engaged"
                );
            } else {
                helper_ran.store(true, Ordering::Release);
                assert!(!panic_in_helper, "unit panics on a helper");
            }
        });
        assert!(helper_ran.load(Ordering::Acquire));
    }

    #[test]
    fn share_idle_outside_a_pool_runs_on_the_calling_thread() {
        let me = std::thread::current().id();
        assert_eq!(free_slots(), None);
        let out = share_idle(&[1u64, 2, 3, 4], |&x| (x * 2, std::thread::current().id()));
        assert_eq!(
            out.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![2, 4, 6, 8]
        );
        assert!(out.iter().all(|r| r.1 == me));
    }

    #[test]
    fn single_thread_pool_never_spawns_a_helper() {
        let items: Vec<u64> = (0..4).collect();
        let units: Vec<u64> = (0..16).collect();
        let alone = parallel_map(&items, 1, |_| {
            let me = std::thread::current().id();
            assert_eq!(free_slots(), Some(0));
            share_idle(&units, |_| std::thread::current().id())
                .iter()
                .all(|&id| id == me)
        });
        assert!(alone.iter().all(|&a| a));
    }

    #[test]
    fn helper_engages_once_a_sibling_worker_is_idle() {
        parallel_map(&[true, false], 2, |&real| {
            if real {
                engage_helper(false);
            }
        });
    }

    #[test]
    fn running_units_never_exceed_the_pool_threads() {
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let unit = |_: &u64| {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            // Long enough for preempted threads to overlap inside units.
            let t = Instant::now();
            while t.elapsed() < std::time::Duration::from_micros(200) {
                std::hint::spin_loop();
            }
            running.fetch_sub(1, Ordering::SeqCst);
        };
        let units: Vec<u64> = (0..64).collect();
        for threads in [2, 3] {
            peak.store(0, Ordering::SeqCst);
            let items: Vec<u64> = (0..8).collect();
            parallel_map(&items, threads, |&i| {
                // Even items fan out; odd items are one short unit, so
                // their workers go idle while units remain.
                if i % 2 == 0 {
                    share_idle(&units, unit);
                } else {
                    unit(&i);
                }
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=threads).contains(&peak),
                "{peak} units ran at once with {threads} threads"
            );
        }
    }

    #[test]
    fn panicking_helper_unit_returns_its_slot() {
        parallel_map(&[true, false], 2, |&real| {
            if !real {
                return;
            }
            let caught = std::panic::catch_unwind(|| engage_helper(true));
            assert!(caught.is_err(), "the helper's panic reaches the caller");
            assert_eq!(free_slots(), Some(1), "the panicking helper's slot is back");
            engage_helper(false);
        });
    }

    #[test]
    fn arg_parsing_does_not_eat_flags_as_values() {
        let args: Vec<String> = ["--csv", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = ExperimentOpts::parse(&args);
        // `--csv` has no value (the next token is a flag): left unset.
        assert_eq!(opts.csv, None);
        assert_eq!(opts.seed, 7);
    }

    #[test]
    fn arg_parsing_accepts_the_documented_flags() {
        let args: Vec<String> = [
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--threads",
            "3",
            "--csv",
            "out.csv",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = ExperimentOpts::parse(&args);
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.threads, 3);
        assert_eq!(opts.csv.as_deref(), Some("out.csv"));
        for flag in ["--scale", "--seed", "--threads", "--csv"] {
            assert!(ExperimentOpts::HELP.contains(flag), "help must list {flag}");
        }
    }

    #[test]
    fn prepare_produces_consistent_bundle() {
        let data = prepare("kmeans", Scale::Tiny, 7);
        assert_eq!(data.kernel.name, "kmeans");
        assert_eq!(data.orig_streams.len(), data.proxy_streams.len());
        assert_eq!(
            data.profile.launch.total_warps(data.profile.warp_size) as usize,
            data.proxy_streams.len()
        );
    }

    #[test]
    fn sweep_benchmark_runs_every_config() {
        let data = prepare("scalarprod", Scale::Tiny, 7);
        let configs = vec![SimtConfig::default(); 3];
        let cmp = sweep_benchmark(&data, &configs, Metric::L1MissPct);
        assert_eq!(cmp.original.len(), 3);
        assert_eq!(cmp.proxy.len(), 3);
        // Identical configs: identical values.
        assert_eq!(cmp.original[0], cmp.original[2]);
    }

    #[test]
    fn csv_output_has_expected_shape() {
        let summary = gmap_core::summarize(vec![
            compare_series("a", vec![1.0, 2.0], vec![1.5, 2.5]),
            compare_series("b", vec![3.0], vec![3.0]),
        ]);
        let path = std::env::temp_dir().join(format!("gmap-csv-{}.csv", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        write_summary_csv(&summary, &path_str).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines[0], "benchmark,config,original,proxy");
        assert_eq!(lines.len(), 1 + 3);
        assert!(lines[1].starts_with("a,0,1,1.5"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evaluate_profile_matches_direct_simulation() {
        let data = prepare("kmeans", Scale::Tiny, 7);
        // A grid the single-pass planner accepts...
        let grid = sweeps::l1_sweep();
        let single = evaluate_profile(&data.profile, &grid, Metric::L1MissPct, 7, None)
            .expect("not cancelled");
        assert!(single.single_pass);
        assert_eq!(single.values.len(), grid.len());
        // ...must agree with the direct path on a spot-checked subset.
        let subset = &grid[..3];
        let direct = evaluate_profile(
            &data.profile,
            subset,
            Metric::L2MissPct, // metric/grid mismatch forces the direct path
            7,
            None,
        )
        .expect("not cancelled");
        assert!(!direct.single_pass);
        for (i, v) in direct.values.iter().enumerate() {
            let out = simulate_streams(&data.proxy_streams, &data.profile.launch, &subset[i])
                .expect("valid config");
            assert!((v - Metric::L2MissPct.extract(&out)).abs() < 1e-12);
        }
        // Single-pass values are exact vs direct simulation of the same
        // proxy stream at the captured reference interleaving; here we
        // only assert both series are sane percentages.
        assert!(single.values.iter().all(|v| (0.0..=100.0).contains(v)));
    }

    #[test]
    fn evaluate_profile_honors_cancellation() {
        use std::sync::atomic::AtomicBool;
        let data = prepare("scalarprod", Scale::Tiny, 7);
        let cancelled = AtomicBool::new(true);
        assert_eq!(
            evaluate_profile(
                &data.profile,
                &sweeps::l1_sweep(),
                Metric::L1MissPct,
                7,
                Some(&cancelled)
            ),
            None
        );
    }

    #[test]
    fn metric_extraction_matches_outcome() {
        let data = prepare("aes", Scale::Tiny, 7);
        let cfg = SimtConfig::default();
        let out = simulate_streams(&data.orig_streams, &data.kernel.launch, &cfg)
            .expect("baseline is valid");
        assert_eq!(Metric::L1MissPct.extract(&out), out.l1_miss_pct());
        assert_eq!(Metric::L2MissPct.extract(&out), out.l2_miss_pct());
    }
}
