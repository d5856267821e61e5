//! Criterion benchmarks of the three dual-path hot kernels, scalar vs
//! batched: stack-distance counting, histogram binning, and DRAM address
//! decomposition, on inputs shaped like what the sweep engine, the
//! profiler and the DRAM front end feed them. Run with
//! `cargo bench -p gmap-bench --bench kernels`; perfbench measures the
//! same kernels end to end inside the figure sweeps.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use gmap_dram::mapping::{AddressMapping, DramGeometry, MappingPlan};
use gmap_memsim::cache::{CacheConfig, ReplacementPolicy};
use gmap_memsim::stackdist::{evaluate_lru_multi_with_mode, LineAccess, WriteMode};
use gmap_trace::batch::KernelMode;
use gmap_trace::{Histogram, Rng};

const MODES: [(&str, KernelMode); 2] = [
    ("scalar", KernelMode::Scalar),
    ("batched", KernelMode::Batched),
];

/// A synthetic line-access stream with GPU-ish locality: strided sweeps
/// with periodic revisits, ~20% stores.
fn synth_stream(n: usize, lines: u64, seed: u64) -> Vec<LineAccess> {
    let mut rng = Rng::seed_from(seed);
    let mut cursor = 0u64;
    (0..n)
        .map(|i| {
            cursor = if i % 7 == 0 {
                rng.gen_range(lines)
            } else {
                (cursor + 1) % lines
            };
            LineAccess::new(cursor, rng.gen_range(5) == 0)
        })
        .collect()
}

fn bench_stackdist(c: &mut Criterion) {
    let stream = synth_stream(100_000, 4096, 7);
    // A fig6a-shaped grid: two set-count classes with 15 associativity
    // points each, like the L1 sweep the engine runs.
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
    let mut group = c.benchmark_group("stackdist_100k_30geom");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for (name, kmode) in MODES {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    evaluate_lru_multi_with_mode(
                        &configs,
                        black_box(&stream),
                        WriteMode::Allocate,
                        kmode,
                    )
                    .expect("valid grid"),
                )
            })
        });
    }
    group.finish();
}

fn bench_histogram(c: &mut Criterion) {
    // Stride slices the profiler feeds: short runs, few distinct values.
    let mut rng = Rng::seed_from(11);
    let slices: Vec<Vec<i64>> = (0..2_000)
        .map(|_| {
            let len = 8 + rng.gen_range(56) as usize;
            (0..len)
                .map(|_| (rng.gen_range(7) as i64 - 3) * 128)
                .collect()
        })
        .collect();
    let total: u64 = slices.iter().map(|s| s.len() as u64).sum();
    let mut group = c.benchmark_group("histogram_stride_slices");
    group.throughput(Throughput::Elements(total));
    for (name, kmode) in MODES {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut h = Histogram::new();
                for s in &slices {
                    h.add_slice(black_box(s), kmode);
                }
                black_box(h)
            })
        });
    }
    group.finish();
}

fn bench_dram_decompose(c: &mut Criterion) {
    let mut rng = Rng::seed_from(17);
    let addrs: Vec<u64> = (0..100_000).map(|_| rng.gen_range(1 << 32)).collect();
    let plan = MappingPlan::new(&DramGeometry::table2_baseline(), AddressMapping::RoBaRaCoCh);
    let mut group = c.benchmark_group("dram_decompose_100k");
    group.throughput(Throughput::Elements(addrs.len() as u64));
    for (name, kmode) in MODES {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut out = Vec::new();
                plan.decompose_batch(black_box(&addrs), kmode, &mut out);
                black_box(out)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stackdist, bench_histogram, bench_dram_decompose
}
criterion_main!(benches);
