//! Batch-kernel selection for the vectorized hot paths.
//!
//! The sweep engine's inner passes — stack-distance recency scans,
//! histogram binning, DRAM address decomposition — each ship in two
//! implementations: a straightforward *scalar* loop (the
//! reference every differential test replays against) and a *batched*
//! fixed-width kernel (8/16-lane hand-unrolled, branch-free in the lane
//! body, with a scalar tail) that the autovectorizer turns into SIMD on
//! stable Rust. The batched kernels are bit-exact by construction and by
//! test; selection only ever trades speed.
//!
//! [`default_mode`] is the process-wide switch: batched unless the
//! `GMAP_SCALAR_KERNELS` environment variable is set to `1`/`true` (the
//! escape hatch for A/B perf measurement and for bisecting a suspected
//! kernel bug). The perf tracker asserts the batched path is selected in
//! CI, so a regression to scalar cannot land silently.

use std::sync::OnceLock;

/// Lane width of the unrolled batch kernels.
///
/// Eight 64-bit lanes fill one AVX-512 register or two AVX2 registers;
/// the autovectorizer handles either without a width-specific code path.
pub const LANES: usize = 8;

/// Which implementation of a dual-path kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelMode {
    /// The reference implementation: one element at a time.
    Scalar,
    /// The lane-unrolled implementation (8/16-wide chunks + scalar tail).
    Batched,
}

impl KernelMode {
    /// `true` for [`KernelMode::Batched`].
    #[inline]
    pub fn is_batched(self) -> bool {
        matches!(self, KernelMode::Batched)
    }
}

/// The process-wide kernel mode: [`KernelMode::Batched`] unless the
/// `GMAP_SCALAR_KERNELS` environment variable is `1` or `true`.
///
/// Read once and cached — flipping the variable mid-process has no
/// effect, which keeps every pass of one run on one path.
pub fn default_mode() -> KernelMode {
    static MODE: OnceLock<KernelMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("GMAP_SCALAR_KERNELS") {
        Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => KernelMode::Scalar,
        _ => KernelMode::Batched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_is_the_default() {
        // The test environment does not set the escape hatch.
        assert_eq!(default_mode(), KernelMode::Batched);
        assert!(default_mode().is_batched());
        assert!(!KernelMode::Scalar.is_batched());
    }
}
