//! Synthetic models of the paper's 18 GPGPU benchmarks.
//!
//! The paper evaluates G-MAP on 18 applications from Rodinia, the CUDA SDK
//! and the ISPASS-2009 suite. Those binaries (and the CUDA-sim profiler that
//! traced them) are outside this reproduction's reach, so each benchmark is
//! modeled as a [`KernelDesc`] whose *memory-access signature* follows what
//! the paper itself publishes about it:
//!
//! - Table 1's dominant PCs, inter-warp strides, intra-warp strides and
//!   reuse classes for the 10 applications it lists;
//! - the per-benchmark commentary of §5 for the rest (hotspot has "no
//!   dominant intra-/inter-thread stride patterns or reuse locality",
//!   kmeans and heartwall have "significant reuse locality", scalarProd and
//!   srad are "regular \[but\] largely insensitive to L1 prefetching due to
//!   larger footprints and lower temporal locality", nw and kmeans "benefit
//!   from prefetching", ...).
//!
//! Every constructor documents the signature it targets. The `table1`
//! experiment binary regenerates the measured signature for comparison.
//!
//! [`Scale`] shrinks the launches for tests ([`Scale::Tiny`]) or grows them
//! for full experiments ([`Scale::Default`]); geometry *shape* (threads per
//! block, stride structure) is scale-invariant, only grid sizes and trip
//! counts change.

use crate::kernel::dsl::{loop_n, read, write};
use crate::kernel::{IndexExpr, KernelBuilder, KernelDesc, Pred, Stmt, Trip};
use serde::{Deserialize, Serialize};

/// Workload size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Minimal size for unit tests (hundreds of warps, short loops).
    Tiny,
    /// Intermediate size for integration tests.
    Small,
    /// Full experiment size.
    Default,
}

impl Scale {
    /// Parses a scale's canonical name (`tiny`, `small`, `default`).
    ///
    /// # Errors
    ///
    /// Anything else, near misses included, is an error message naming
    /// the bad value and the valid ones.
    pub fn from_name(name: &str) -> Result<Scale, String> {
        match name {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "default" => Ok(Scale::Default),
            _ => Err(format!(
                "unknown scale {name:?} (expected tiny, small, or default)"
            )),
        }
    }

    /// The canonical name [`Scale::from_name`] parses.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Default => "default",
        }
    }

    /// Grid-size multiplier.
    pub fn grid(self, base: u32) -> u32 {
        base * match self {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Default => 6,
        }
    }

    /// Loop-trip multiplier.
    pub fn trip(self, base: u32) -> u32 {
        base * match self {
            Scale::Tiny => 1,
            Scale::Small => 2,
            Scale::Default => 3,
        }
    }
}

/// Affine index helper with every coefficient explicit (in elements).
fn idx(
    base: i64,
    tid_coef: i64,
    lane_coef: i64,
    warp_coef: i64,
    block_coef: i64,
    iter_coefs: Vec<(u8, i64)>,
) -> IndexExpr {
    IndexExpr::Affine {
        base,
        tid_coef,
        lane_coef,
        warp_coef,
        block_coef,
        iter_coefs,
    }
}

/// Rodinia *heartwall* — Table 1: PC 0x900 at 81 % frequency, inter-warp
/// stride 128 B at ~52 %, intra strides {64, −128, 1024} B, **high** reuse.
///
/// Modeled as 64-thread blocks (2 warps, so only half of warp transitions
/// see the 128 B stride) scanning a per-block frame window repeatedly: the
/// inner 16-iteration loop at 0x900 re-reads the same window every outer
/// iteration, giving the high temporal reuse the paper credits for
/// heartwall's >97 % L1 accuracy.
pub fn heartwall(scale: Scale) -> KernelDesc {
    let grid = scale.grid(12);
    let e_trip = scale.trip(4);
    let blocks = grid as u64;
    let warps = blocks * 2;
    let elems = blocks * 136 + warps * 32 + 64 + e_trip as u64 * 256 + 16 * 16 + 64;
    let e_off = (e_trip as i64) * 32;
    KernelBuilder::new("heartwall", grid, 64u32)
        .array("frame", elems)
        .stmt(loop_n(
            e_trip,
            vec![
                // intra-thread stride −128 B (−32 elements per iteration).
                read(0x4a0, 0, idx(e_off, 0, 1, 32, 136, vec![(0, -32)])),
                // intra-thread stride +1024 B (+256 elements per iteration).
                read(0x4a8, 0, idx(0, 0, 1, 32, 136, vec![(0, 256)])),
                // Dominant PC: inner window scan, 64 B steps, re-read every
                // outer iteration (no `e` coefficient) -> high reuse.
                loop_n(
                    16,
                    vec![read(0x900, 0, idx(0, 0, 1, 32, 136, vec![(1, 16)]))],
                ),
            ],
        ))
        .build()
        .expect("heartwall kernel is valid")
}

/// Rodinia *backprop* (BP) — Table 1: three PCs at 19.4 % each, inter-warp
/// 128 B at 64–75 %, intra ±128 B, **medium** reuse.
///
/// 128-thread blocks (4 warps: 3 of 4 warp transitions stride 128 B); two
/// outer passes over the same per-warp regions give ~50 % reuse.
pub fn backprop(scale: Scale) -> KernelDesc {
    let grid = scale.grid(16);
    let j_trip = scale.trip(8);
    let blocks = grid as u64;
    let span = blocks * 96 + blocks * 4 * 32 + 32 + j_trip as u64 * 32 + 64;
    let j_off = (j_trip as i64) * 32;
    KernelBuilder::new("backprop", grid, 128u32)
        .array("input", span)
        .array("weights", span)
        .array("hidden", span)
        .stmt(loop_n(
            2,
            vec![loop_n(
                j_trip,
                vec![
                    read(0x3f8, 0, idx(0, 0, 1, 32, 96, vec![(1, 32)])),
                    read(0x408, 1, idx(j_off, 0, 1, 32, 96, vec![(1, -32)])),
                    read(0x478, 2, idx(0, 0, 1, 32, 96, vec![(1, 32)])),
                    write(0x480, 2, idx(0, 0, 1, 32, 96, vec![])),
                ],
            )],
        ))
        .build()
        .expect("backprop kernel is valid")
}

/// Rodinia *kmeans* — Table 1: a single PC 0xe8 at ~100 % frequency,
/// inter-warp stride 4352 B (feature-major layout: 34 features × 4 B × 32
/// lanes), **high** reuse (every cluster iteration re-reads the thread's
/// feature vector — the paper singles kmeans out for its reuse locality and
/// prefetch benefit).
pub fn kmeans(scale: Scale) -> KernelDesc {
    let grid = scale.grid(24);
    let k_trip = scale.trip(6);
    let total_threads = grid as u64 * 128;
    KernelBuilder::new("kmeans", grid, 128u32)
        .array("features", total_threads * 34 + 34)
        .array("membership", total_threads)
        .stmt(loop_n(
            k_trip,
            vec![loop_n(
                34,
                // Feature walk descends; no `k` coefficient -> the whole
                // vector is re-read for every cluster.
                vec![read(0xe8, 0, idx(33, 34, 0, 0, 0, vec![(1, -1)]))],
            )],
        ))
        .stmt(write(0xf0, 1, IndexExpr::tid_linear(0, 1)))
        .build()
        .expect("kmeans kernel is valid")
}

/// Rodinia *srad* — Table 1: three PCs at 31.2 % each, inter-warp 16384 B
/// (each warp owns two 2048-element image rows), intra −8192 B (walking
/// rows upward), **low** reuse.
pub fn srad(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let j_trip = scale.trip(4);
    let warps = grid as u64 * 8;
    const COLS: i64 = 2048;
    let j_off = (j_trip as i64) * COLS;
    let elems = warps * 4096 + j_trip as u64 * 2048 + 3 * 2048 + 64;
    KernelBuilder::new("srad", grid, 256u32)
        .array("image", elems)
        .array("coeff", elems)
        .array("deriv", elems)
        .stmt(loop_n(
            j_trip,
            vec![
                // Row sweeps over three distinct operand arrays (image,
                // diffusion coefficients, derivatives), −2048 elements per
                // iteration; every row is visited exactly once -> low reuse.
                read(0x230, 0, idx(j_off, 0, 1, 4096, 0, vec![(0, -COLS)])),
                read(0x250, 1, idx(j_off + COLS, 0, 1, 4096, 0, vec![(0, -COLS)])),
                read(
                    0x350,
                    2,
                    idx(j_off + 2 * COLS, 0, 1, 4096, 0, vec![(0, -COLS)]),
                ),
                write(0x360, 0, idx(j_off + COLS, 0, 1, 4096, 0, vec![(0, -COLS)])),
            ],
        ))
        .build()
        .expect("srad kernel is valid")
}

/// CUDA SDK *scalarProd* (SP) — Table 1: two PCs at 48 % each, inter-warp
/// 128 B at 88 % (256-thread blocks), intra 4096 B (grid-stride loop over
/// 1024 threads), **low** reuse. §5 notes it is regular yet insensitive to
/// L1 prefetching because of its large footprint and low temporal locality.
///
/// The thread count is fixed at 1024 so the grid-stride equals the paper's
/// 4096 B; scaling lengthens the streamed vectors instead.
pub fn scalarprod(scale: Scale) -> KernelDesc {
    let j_trip = scale.trip(16);
    const TOTAL: i64 = 1024; // 4 blocks x 256 threads
    let elems = (TOTAL as u64) * (j_trip as u64) + 64;
    KernelBuilder::new("scalarprod", 4u32, 256u32)
        .array("a", elems)
        .array("b", elems)
        .array("partial", TOTAL as u64)
        .stmt(loop_n(
            j_trip,
            vec![
                read(0xd8, 0, idx(0, 1, 0, 0, 0, vec![(0, TOTAL)])),
                read(0xe0, 1, idx(0, 1, 0, 0, 0, vec![(0, TOTAL)])),
            ],
        ))
        .stmt(write(0xf0, 2, IndexExpr::tid_linear(0, 1)))
        .build()
        .expect("scalarprod kernel is valid")
}

/// ISPASS-2009 *CP* (coulombic potential) — Table 1: three PCs at 25 %
/// each, inter-warp 2048 B (16 elements per thread), intra −1024 B,
/// **medium** reuse (each −1024 B step overlaps half of the previous
/// 2048 B warp window).
pub fn cp(scale: Scale) -> KernelDesc {
    let grid = scale.grid(16);
    let j_trip = scale.trip(6);
    let total_threads = grid as u64 * 128;
    let j_off = (j_trip as i64) * 256;
    let elems = total_threads * 16 + j_trip as u64 * 256 + 64;
    KernelBuilder::new("cp", grid, 128u32)
        .array("atoms_x", elems)
        .array("atoms_y", elems)
        .array("atoms_z", elems)
        .array("grid_out", total_threads)
        .stmt(loop_n(
            j_trip,
            vec![
                read(0x208, 0, idx(j_off, 16, 0, 0, 0, vec![(0, -256)])),
                read(0x218, 1, idx(j_off, 16, 0, 0, 0, vec![(0, -256)])),
                read(0x220, 2, idx(j_off, 16, 0, 0, 0, vec![(0, -256)])),
            ],
        ))
        .stmt(write(0x230, 3, IndexExpr::tid_linear(0, 1)))
        .build()
        .expect("cp kernel is valid")
}

/// CUDA SDK *BlackScholes* (BLK) — Table 1: PCs at 20 % each (three reads +
/// two writes), inter-warp 128 B at 77.6 %, intra = 4·total-threads B
/// (grid-stride), **low** reuse. The paper reports 245760 B, i.e. 61440
/// threads; that is reached at `Scale::Default` (480 blocks × 128).
pub fn blackscholes(scale: Scale) -> KernelDesc {
    let grid = scale.grid(80);
    let j_trip = scale.trip(2);
    let total = grid as i64 * 128;
    let elems = (total as u64) * (j_trip as u64) + 64;
    KernelBuilder::new("blackscholes", grid, 128u32)
        .array("price", elems)
        .array("strike", elems)
        .array("time", elems)
        .array("call", elems)
        .array("put", elems)
        .stmt(loop_n(
            j_trip,
            vec![
                read(0x0f0, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                read(0x0f8, 1, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                read(0x100, 2, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                write(0x108, 3, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                write(0x110, 4, idx(0, 1, 0, 0, 0, vec![(0, total)])),
            ],
        ))
        .build()
        .expect("blackscholes kernel is valid")
}

/// ISPASS-2009 *LU* decomposition (LUL) — Table 1: many PCs at only ~4 %
/// each, weakly dominant inter-warp stride 352 B (88-element matrix rows)
/// at 26 %, intra −128 B, **low** reuse. Modeled with hashed participation
/// predicates: the triangular structure means different warps do different
/// amounts of work.
pub fn lu(scale: Scale) -> KernelDesc {
    let grid = scale.grid(32);
    let k_trip = scale.trip(8);
    let warps = grid as u64 * 2;
    let k_off = (k_trip as i64) * 32;
    let elems = warps * 88 + k_trip as u64 * 89 + k_off as u64 + 24576 + 88 + 64;
    // Row reads broadcast one address per warp (lane coefficient 0): a
    // single transaction per access, and the −128 B walk visits each line
    // exactly once — LU's low reuse (Table 1). Offsets are far apart so
    // the PCs touch distinct regions.
    let row = |pc: u64, extra: i64| read(pc, 0, idx(k_off + extra, 0, 0, 88, 0, vec![(0, -32)]));
    KernelBuilder::new("lu", grid, 64u32)
        .array("matrix", elems)
        .stmt(loop_n(
            k_trip,
            vec![
                // Shared pivot row: every warp reads the same address.
                read(0x1c60, 0, idx(0, 0, 1, 0, 0, vec![(0, 89)])),
                Stmt::If {
                    pred: Pred::Hashed {
                        seed: 0x1b,
                        percent: 70,
                    },
                    then_body: vec![row(0x1c85, 0), row(0x1ca8, 4096), row(0x1cc8, 8192)],
                    else_body: vec![],
                },
                Stmt::If {
                    pred: Pred::Hashed {
                        seed: 0x2c,
                        percent: 30,
                    },
                    then_body: vec![
                        row(0x1d00, 12288),
                        row(0x1d08, 16384),
                        row(0x1d10, 20480),
                        write(0x1d18, 0, idx(k_off + 24576, 0, 1, 88, 0, vec![(0, -32)])),
                    ],
                    else_body: vec![],
                },
            ],
        ))
        .build()
        .expect("lu kernel is valid")
}

/// ISPASS-2009 *LIB* (LIBOR) — Table 1: two PCs at 46 % each, inter-warp
/// 128 B at 57 % (96-thread blocks: 2 of 3 transitions), intra 19200 B
/// (= 4·4800 threads), **high** reuse (each Monte-Carlo path re-reads the
/// forward-rate state).
pub fn lib(scale: Scale) -> KernelDesc {
    let p_trip = scale.trip(4);
    const TOTAL: i64 = 4800; // 50 blocks x 96 threads
    let elems = (TOTAL as u64) * 7 + 50 * 80 + 64;
    KernelBuilder::new("lib", 50u32, 96u32)
        .array("rates", elems)
        .array("vols", elems)
        .array("payoff", TOTAL as u64)
        .stmt(loop_n(
            p_trip,
            vec![loop_n(
                6,
                vec![
                    // No path coefficient: every path re-reads the state.
                    // Block coefficient 80 breaks the 128 B inter-warp
                    // stride at every third warp transition (Table 1: 57 %).
                    read(0x1c68, 0, idx(0, 0, 1, 32, 80, vec![(1, TOTAL)])),
                    read(0x1ce0, 1, idx(0, 0, 1, 32, 80, vec![(1, TOTAL)])),
                ],
            )],
        ))
        .stmt(Stmt::If {
            pred: Pred::TidMod { m: 16, r: 0 },
            then_body: vec![read(0x1b40, 0, IndexExpr::tid_linear(0, 1))],
            else_body: vec![],
        })
        .stmt(write(0x1b80, 2, IndexExpr::tid_linear(0, 1)))
        .build()
        .expect("lib kernel is valid")
}

/// CUDA SDK *FWT* (fast Walsh transform) — Table 1: PCs at ~12 % each,
/// inter-warp 128 B at 88.6 % (256-thread blocks), intra 19200 B, **medium**
/// reuse (the second butterfly stage re-reads the vector ⇒ ~1/2 reuse).
pub fn fwt(scale: Scale) -> KernelDesc {
    let j_trip = scale.trip(6);
    const TOTAL: i64 = 4864; // 19 blocks x 256 threads
    let elems = (TOTAL as u64) * (j_trip as u64 + 3) + 3 * 1216 + 64;
    let stride_read = |pc: u64, arr: usize| read(pc, arr, idx(0, 1, 0, 0, 0, vec![(1, TOTAL)]));
    let shifted_read = |pc: u64, arr: usize| read(pc, arr, idx(2432, 1, 0, 0, 0, vec![(1, TOTAL)]));
    let butterfly =
        |pc: u64, arr: usize| read(pc, arr, idx(0, 1, 0, 0, 0, vec![(0, 1216), (1, TOTAL)]));
    KernelBuilder::new("fwt", 19u32, 256u32)
        .array("data", elems)
        .array("twiddle", elems)
        .stmt(loop_n(
            2, // stages; no stage coefficient on 0x458/0x460 -> reuse
            vec![loop_n(
                j_trip,
                vec![
                    stride_read(0x458, 0),
                    stride_read(0x460, 1),
                    butterfly(0x478, 0),
                    write(0x480, 0, idx(0, 1, 0, 0, 0, vec![(1, TOTAL)])),
                    shifted_read(0x490, 1),
                    butterfly(0x498, 1),
                    stride_read(0x4a0, 0),
                    write(0x4a8, 1, idx(0, 1, 0, 0, 0, vec![(1, TOTAL)])),
                ],
            )],
        ))
        .build()
        .expect("fwt kernel is valid")
}

/// Rodinia *hotspot* — §5: "the highest error because it does not have
/// significantly dominant intra-/inter-thread stride patterns or reuse
/// locality", and is "insensitive to prefetching because of non-dominant
/// access patterns and low temporal locality". Modeled with hashed indices
/// over a footprint far larger than any cache.
pub fn hotspot(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let j_trip = scale.trip(4);
    let elems = match scale {
        Scale::Tiny => 1 << 18,
        Scale::Small => 1 << 20,
        Scale::Default => 1 << 22,
    };
    KernelBuilder::new("hotspot", grid, 256u32)
        .array("temp", elems)
        .array("power", elems)
        .stmt(loop_n(
            j_trip,
            vec![
                read(0x100, 0, IndexExpr::Hashed { seed: 0xA1 }),
                read(0x108, 0, IndexExpr::Hashed { seed: 0xA2 }),
                read(0x110, 0, IndexExpr::Hashed { seed: 0xA3 }),
                read(0x118, 1, IndexExpr::Hashed { seed: 0xA4 }),
                read(0x120, 1, IndexExpr::Hashed { seed: 0xA5 }),
                write(0x128, 0, IndexExpr::Hashed { seed: 0xA6 }),
            ],
        ))
        .build()
        .expect("hotspot kernel is valid")
}

/// Rodinia *nw* (Needleman–Wunsch) — §5 groups it with kmeans as an
/// application that "benefits from prefetching": long, regular, unit-stride
/// anti-diagonal sweeps with neighbor reads, low temporal locality but high
/// spatial predictability.
pub fn nw(scale: Scale) -> KernelDesc {
    let grid = scale.grid(12);
    let d_trip = scale.trip(16);
    let total = grid as i64 * 64;
    let elems = (total as u64) * (d_trip as u64 + 1) + 64;
    KernelBuilder::new("nw", grid, 64u32)
        .array("score", elems)
        .array("reference", elems)
        .stmt(loop_n(
            d_trip,
            vec![
                read(0x200, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                read(0x208, 0, idx(1, 1, 0, 0, 0, vec![(0, total)])),
                read(0x210, 1, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                write(0x218, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
            ],
        ))
        .build()
        .expect("nw kernel is valid")
}

/// ISPASS-2009 *AES* — the normalization baseline of Figure 7. Streaming
/// input/output plus hot table lookups: four T-box reads per round hit a
/// 1 KiB table (high reuse, tiny working set), which keeps its miss rates
/// low — a good normalization reference.
pub fn aes(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let r_trip = scale.trip(4);
    let total = grid as i64 * 128;
    let elems = (total as u64) * (r_trip as u64) + 64;
    KernelBuilder::new("aes", grid, 128u32)
        .array("input", elems)
        .array("tbox", 256)
        .array("output", elems)
        .stmt(loop_n(
            r_trip,
            vec![
                read(0x300, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                read(0x310, 1, IndexExpr::Hashed { seed: 0xE1 }),
                read(0x318, 1, IndexExpr::Hashed { seed: 0xE2 }),
                read(0x320, 1, IndexExpr::Hashed { seed: 0xE3 }),
                read(0x328, 1, IndexExpr::Hashed { seed: 0xE4 }),
                write(0x330, 2, idx(0, 1, 0, 0, 0, vec![(0, total)])),
            ],
        ))
        .build()
        .expect("aes kernel is valid")
}

/// Rodinia *bfs* — frontier-driven graph traversal: data-dependent
/// control-flow divergence (different warps execute different dynamic
/// memory paths, exercising G-MAP's π-profile clustering, §4.4) and
/// irregular indirect accesses.
pub fn bfs(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let it_trip = scale.trip(4);
    let total = grid as i64 * 256;
    let nodes = (total as u64) * (it_trip as u64) + 64;
    KernelBuilder::new("bfs", grid, 256u32)
        .array("nodes", nodes)
        .array("edges", nodes * 4)
        .array("visited", nodes)
        .stmt(loop_n(
            it_trip,
            vec![Stmt::If {
                pred: Pred::Hashed {
                    seed: 0xB0,
                    percent: 40,
                },
                then_body: vec![
                    read(0x400, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                    Stmt::Loop {
                        trip: Trip::Hashed {
                            seed: 0xB1,
                            base: 1,
                            spread: 6,
                        },
                        body: vec![
                            read(0x408, 1, IndexExpr::Hashed { seed: 0xB2 }),
                            read(0x410, 2, IndexExpr::Hashed { seed: 0xB3 }),
                        ],
                    },
                    Stmt::If {
                        pred: Pred::Hashed {
                            seed: 0xB4,
                            percent: 30,
                        },
                        then_body: vec![write(0x418, 2, IndexExpr::Hashed { seed: 0xB5 })],
                        else_body: vec![],
                    },
                ],
                else_body: vec![],
            }],
        ))
        .build()
        .expect("bfs kernel is valid")
}

/// Rodinia *gaussian* elimination — row sweeps plus a broadcast pivot row
/// shared by every warp (inter-warp sharing → L2-friendly), medium reuse.
pub fn gaussian(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let k_trip = scale.trip(6);
    const N: i64 = 1024;
    let total = grid as u64 * 128;
    let elems = total + k_trip as u64 * (N as u64 + 1) + N as u64 * k_trip as u64 + 64;
    KernelBuilder::new("gaussian", grid, 128u32)
        .array("matrix", elems)
        .array("vector", elems)
        .stmt(loop_n(
            k_trip,
            vec![
                read(0x500, 0, idx(0, 1, 0, 0, 0, vec![(0, N)])),
                // Pivot row element: identical for all threads (broadcast).
                read(0x508, 1, idx(0, 0, 0, 0, 0, vec![(0, N + 1)])),
                write(0x510, 0, idx(0, 1, 0, 0, 0, vec![(0, N)])),
            ],
        ))
        .build()
        .expect("gaussian kernel is valid")
}

/// Rodinia *pathfinder* — row-wise dynamic programming with ±1 halo reads:
/// neighboring threads' lines overlap, giving line-granular spatial reuse.
pub fn pathfinder(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let t_trip = scale.trip(8);
    let total = grid as i64 * 256;
    let elems = (total as u64) * (t_trip as u64 + 2) + 64;
    KernelBuilder::new("pathfinder", grid, 256u32)
        .array("wall", elems)
        .array("result", elems)
        .stmt(loop_n(
            t_trip,
            vec![
                // The halo window starts one full row in so the -1
                // neighbor never underflows (tid 0, iter 0 would
                // otherwise wrap to the end of the array). `total` is a
                // multiple of 32 elems, so the shift preserves 128 B
                // segment alignment and every stride/reuse statistic.
                read(0x600, 0, idx(total, 1, 0, 0, 0, vec![(0, total)])),
                read(0x608, 0, idx(total - 1, 1, 0, 0, 0, vec![(0, total)])),
                read(0x610, 0, idx(total + 1, 1, 0, 0, 0, vec![(0, total)])),
                write(0x618, 1, idx(0, 1, 0, 0, 0, vec![(0, total)])),
            ],
        ))
        .build()
        .expect("pathfinder kernel is valid")
}

/// Rodinia *streamcluster* — distance evaluation: streams the point set
/// (low reuse) while re-reading a small set of cluster centers (high
/// reuse), a bimodal mix.
pub fn streamcluster(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let p_trip = scale.trip(8);
    let total = grid as i64 * 128;
    let elems = (total as u64) * (p_trip as u64) + 64;
    KernelBuilder::new("streamcluster", grid, 128u32)
        .array("points", elems)
        .array("centers", 512)
        .array("weights", 512)
        .stmt(loop_n(
            p_trip,
            vec![
                read(0x700, 0, idx(0, 1, 0, 0, 0, vec![(0, total)])),
                loop_n(
                    4,
                    vec![
                        read(0x708, 1, idx(0, 0, 1, 0, 0, vec![(1, 32)])),
                        read(0x710, 2, idx(0, 0, 1, 0, 0, vec![(1, 32)])),
                    ],
                ),
            ],
        ))
        .build()
        .expect("streamcluster kernel is valid")
}

/// CUDA SDK *matrixMul* — tiled matrix multiply: tile loads separated by
/// `__syncthreads()` barriers (exercising G-MAP's TB-synchronization
/// modeling, §4.5), with tiles re-read in the inner product loop (high
/// reuse).
pub fn matrixmul(scale: Scale) -> KernelDesc {
    let grid = scale.grid(8);
    let t_trip = scale.trip(4);
    let blocks = grid as u64;
    let elems = blocks * 128 + t_trip as u64 * 2048 + blocks * 8 * 32 + 4 * 128 + 64;
    KernelBuilder::new("matrixmul", grid, 256u32)
        .array("a", elems)
        .array("b", elems)
        .array("c", elems)
        .stmt(loop_n(
            t_trip,
            vec![
                // Tile loads.
                read(0x800, 0, idx(0, 0, 1, 0, 128, vec![(0, 2048)])),
                read(0x808, 1, idx(0, 0, 1, 32, 0, vec![(0, 2048)])),
                Stmt::Sync,
                // Inner product: re-reads the same tile rows (no `kk`
                // dependence on the tile base).
                loop_n(
                    4,
                    vec![
                        read(0x810, 0, idx(0, 0, 1, 0, 128, vec![(1, 32)])),
                        read(0x818, 1, idx(0, 0, 1, 32, 0, vec![(1, 32)])),
                    ],
                ),
                Stmt::Sync,
            ],
        ))
        .stmt(write(0x820, 2, IndexExpr::tid_linear(0, 1)))
        .build()
        .expect("matrixmul kernel is valid")
}

/// Names of all 18 benchmarks, in the order used by the experiment
/// harness.
pub const NAMES: [&str; 18] = [
    "heartwall",
    "backprop",
    "kmeans",
    "srad",
    "scalarprod",
    "cp",
    "blackscholes",
    "lu",
    "lib",
    "fwt",
    "hotspot",
    "nw",
    "aes",
    "bfs",
    "gaussian",
    "pathfinder",
    "streamcluster",
    "matrixmul",
];

/// Builds a benchmark by name, or `None` for an unknown name.
pub fn by_name(name: &str, scale: Scale) -> Option<KernelDesc> {
    let k = match name {
        "heartwall" => heartwall(scale),
        "backprop" => backprop(scale),
        "kmeans" => kmeans(scale),
        "srad" => srad(scale),
        "scalarprod" => scalarprod(scale),
        "cp" => cp(scale),
        "blackscholes" => blackscholes(scale),
        "lu" => lu(scale),
        "lib" => lib(scale),
        "fwt" => fwt(scale),
        "hotspot" => hotspot(scale),
        "nw" => nw(scale),
        "aes" => aes(scale),
        "bfs" => bfs(scale),
        "gaussian" => gaussian(scale),
        "pathfinder" => pathfinder(scale),
        "streamcluster" => streamcluster(scale),
        "matrixmul" => matrixmul(scale),
        _ => return None,
    };
    Some(k)
}

/// All 18 benchmarks at the given scale.
pub fn all(scale: Scale) -> Vec<KernelDesc> {
    NAMES
        .iter()
        .map(|n| by_name(n, scale).expect("known name"))
        .collect()
}

/// The 10 applications listed in Table 1 of the paper, in table order.
pub fn table1(scale: Scale) -> Vec<KernelDesc> {
    [
        "heartwall",
        "backprop",
        "kmeans",
        "srad",
        "scalarprod",
        "cp",
        "blackscholes",
        "lu",
        "lib",
        "fwt",
    ]
    .iter()
    .map(|n| by_name(n, scale).expect("known name"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coalesce::coalesce_app;
    use crate::exec::{execute_kernel, WarpEvent};
    use crate::schedule::WarpStreamEvent;
    use gmap_trace::record::Pc;
    use gmap_trace::reuse::{ReuseClass, ReuseHistogram};
    use std::collections::HashMap;

    #[test]
    fn scale_names_round_trip_and_reject_near_misses() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
            assert_eq!(Scale::from_name(scale.name()), Ok(scale));
        }
        for bad in ["smal", "Small", "TINY", "", "default "] {
            let err = Scale::from_name(bad).expect_err("not a scale name");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn all_18_build_and_validate_at_every_scale() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Default] {
            let kernels = all(scale);
            assert_eq!(kernels.len(), 18);
            for k in &kernels {
                k.validate()
                    .unwrap_or_else(|e| panic!("{} invalid: {e}", k.name));
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for n in NAMES {
            let k = by_name(n, Scale::Tiny).expect("known");
            assert_eq!(k.name, n);
        }
        assert!(by_name("nonesuch", Scale::Tiny).is_none());
    }

    #[test]
    fn table1_subset_is_ten() {
        assert_eq!(table1(Scale::Tiny).len(), 10);
    }

    #[test]
    fn scales_are_monotonic() {
        for n in NAMES {
            let tiny = execute_kernel(&by_name(n, Scale::Tiny).expect("known"));
            let small = execute_kernel(&by_name(n, Scale::Small).expect("known"));
            assert!(
                small.total_thread_accesses() > tiny.total_thread_accesses(),
                "{n}: Small not larger than Tiny"
            );
        }
    }

    /// Measures each warp's first-execution line address per PC and returns
    /// the dominant inter-warp stride for the given PC.
    fn dominant_inter_warp_stride(name: &str, pc: Pc) -> (i64, f64) {
        let k = by_name(name, Scale::Tiny).expect("known");
        let streams = coalesce_app(&execute_kernel(&k), 128);
        let mut firsts: Vec<(u32, u64)> = Vec::new();
        for s in &streams {
            for ev in &s.events {
                if let WarpStreamEvent::Access(a) = ev {
                    if a.pc == pc {
                        firsts.push((s.warp.0, a.lines[0].0));
                        break;
                    }
                }
            }
        }
        firsts.sort_unstable();
        let mut hist = gmap_trace::Histogram::new();
        for w in firsts.windows(2) {
            hist.add(w[1].1 as i64 - w[0].1 as i64);
        }
        hist.dominant().expect("at least two warps")
    }

    #[test]
    fn kmeans_inter_warp_stride_matches_table1() {
        let (stride, freq) = dominant_inter_warp_stride("kmeans", Pc(0xe8));
        assert_eq!(stride, 4352, "kmeans inter-warp stride");
        assert!(freq > 0.5, "kmeans stride frequency {freq}");
    }

    #[test]
    fn srad_inter_warp_stride_matches_table1() {
        let (stride, _) = dominant_inter_warp_stride("srad", Pc(0x250));
        assert_eq!(stride, 16384, "srad inter-warp stride");
    }

    #[test]
    fn scalarprod_inter_warp_stride_matches_table1() {
        let (stride, freq) = dominant_inter_warp_stride("scalarprod", Pc(0xd8));
        assert_eq!(stride, 128, "scalarprod inter-warp stride");
        assert!(freq > 0.8, "scalarprod stride frequency {freq}");
    }

    #[test]
    fn cp_inter_warp_stride_matches_table1() {
        let (stride, _) = dominant_inter_warp_stride("cp", Pc(0x208));
        assert_eq!(stride, 2048, "cp inter-warp stride");
    }

    #[test]
    fn lib_inter_warp_stride_matches_table1() {
        let (stride, freq) = dominant_inter_warp_stride("lib", Pc(0x1c68));
        assert_eq!(stride, 128, "lib inter-warp stride");
        assert!(
            freq > 0.5 && freq < 0.8,
            "lib stride frequency {freq} (expect ~2/3)"
        );
    }

    #[test]
    fn heartwall_inter_warp_stride_is_128_at_half_frequency() {
        let (stride, freq) = dominant_inter_warp_stride("heartwall", Pc(0x900));
        assert_eq!(stride, 128);
        assert!(
            freq > 0.35 && freq < 0.65,
            "heartwall 128B frequency {freq} (expect ~0.5)"
        );
    }

    fn reuse_class_of(name: &str) -> ReuseClass {
        let k = by_name(name, Scale::Tiny).expect("known");
        let streams = coalesce_app(&execute_kernel(&k), 128);
        // Per-warp reuse, merged — mirrors how G-MAP profiles locality.
        let mut merged = ReuseHistogram::new();
        for s in &streams {
            let lines = s.events.iter().flat_map(|e| match e {
                WarpStreamEvent::Access(a) => a.lines.iter().map(|l| l.0 / 128).collect::<Vec<_>>(),
                WarpStreamEvent::Sync => vec![],
            });
            merged.merge(&ReuseHistogram::from_lines(lines));
        }
        merged.class()
    }

    #[test]
    fn reuse_classes_match_table1() {
        assert_eq!(reuse_class_of("kmeans"), ReuseClass::High, "kmeans");
        assert_eq!(reuse_class_of("heartwall"), ReuseClass::High, "heartwall");
        assert_eq!(reuse_class_of("lib"), ReuseClass::High, "lib");
        assert_eq!(reuse_class_of("srad"), ReuseClass::Low, "srad");
        assert_eq!(reuse_class_of("scalarprod"), ReuseClass::Low, "scalarprod");
        assert_eq!(
            reuse_class_of("blackscholes"),
            ReuseClass::Low,
            "blackscholes"
        );
        assert_eq!(reuse_class_of("hotspot"), ReuseClass::Low, "hotspot");
        assert_eq!(reuse_class_of("cp"), ReuseClass::Medium, "cp");
        assert_eq!(reuse_class_of("lu"), ReuseClass::Low, "lu");
        assert_eq!(reuse_class_of("fwt"), ReuseClass::Medium, "fwt");
    }

    #[test]
    fn hotspot_has_no_dominant_stride() {
        let (_, freq) = dominant_inter_warp_stride("hotspot", Pc(0x100));
        assert!(
            freq < 0.3,
            "hotspot should have no dominant stride, got {freq}"
        );
    }

    #[test]
    fn kmeans_single_pc_dominates() {
        let k = kmeans(Scale::Tiny);
        let app = execute_kernel(&k);
        let mut counts: HashMap<Pc, u64> = HashMap::new();
        let mut total = 0u64;
        for w in &app.warps {
            for e in &w.events {
                if let WarpEvent::Access { pc, .. } = e {
                    *counts.entry(*pc).or_insert(0) += 1;
                    total += 1;
                }
            }
        }
        let dom = counts[&Pc(0xe8)] as f64 / total as f64;
        assert!(dom > 0.95, "kmeans PC 0xe8 frequency {dom}");
    }

    #[test]
    fn bfs_warps_have_divergent_paths() {
        let k = bfs(Scale::Tiny);
        let app = execute_kernel(&k);
        let mut lens: Vec<usize> = app.warps.iter().map(|w| w.events.len()).collect();
        lens.sort_unstable();
        lens.dedup();
        assert!(
            lens.len() > 1,
            "bfs warps should have diverse dynamic paths"
        );
    }

    #[test]
    fn matrixmul_emits_barriers() {
        let k = matrixmul(Scale::Tiny);
        let app = execute_kernel(&k);
        let syncs = app.warps[0]
            .events
            .iter()
            .filter(|e| matches!(e, WarpEvent::Sync))
            .count();
        assert!(syncs >= 2, "matrixmul should have barriers, got {syncs}");
    }

    #[test]
    fn blackscholes_pcs_are_equally_frequent() {
        let k = blackscholes(Scale::Tiny);
        let app = execute_kernel(&k);
        let mut counts: HashMap<Pc, u64> = HashMap::new();
        for w in &app.warps {
            for e in &w.events {
                if let WarpEvent::Access { pc, .. } = e {
                    *counts.entry(*pc).or_insert(0) += 1;
                }
            }
        }
        assert_eq!(counts.len(), 5);
        let max = counts.values().max().expect("non-empty");
        let min = counts.values().min().expect("non-empty");
        assert_eq!(max, min, "BLK PCs should be equally frequent");
    }

    #[test]
    fn footprints_are_reasonable() {
        // Every workload should have a non-trivial footprint; streaming
        // workloads should dwarf the 1 MB L2.
        for k in all(Scale::Default) {
            assert!(
                k.footprint_bytes() > 64 * 1024,
                "{} footprint too small",
                k.name
            );
        }
        assert!(hotspot(Scale::Default).footprint_bytes() > 4 << 20);
    }
}
