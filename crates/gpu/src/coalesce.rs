//! Memory coalescing per CUDA programming guide §G.4.2.
//!
//! On Fermi-class hardware, the memory requests of the (up to) 32 threads of
//! a warp executing one memory instruction are merged into the minimum
//! number of cacheline-sized transactions: one transaction per distinct
//! cacheline touched. G-MAP applies this model *before* the locality
//! analysis (§4), "as it significantly reduces the computational and memory
//! complexity" — and because the cache hierarchy only ever sees coalesced
//! transactions anyway.

use crate::exec::{AppTrace, WarpEvent};
use crate::schedule::{CoalescedAccess, WarpStream, WarpStreamEvent};
use gmap_trace::record::ByteAddr;

/// Coalesces the per-lane byte addresses of one warp instruction into
/// line-aligned transaction addresses (ascending, distinct): map each
/// address to its line base, sort, dedup.
///
/// # Panics
///
/// Panics (in debug builds) if `line_size` is not a power of two.
///
/// ```
/// use gmap_gpu::coalesce::coalesce_addrs;
/// use gmap_trace::record::ByteAddr;
///
/// // 32 consecutive 4-byte accesses starting at 0x1000: one 128 B line.
/// let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(0x1000 + 4 * i)).collect();
/// assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(0x1000)]);
/// ```
pub fn coalesce_addrs(addrs: &[ByteAddr], line_size: u64) -> Vec<ByteAddr> {
    let mut lines: Vec<ByteAddr> = addrs.iter().map(|a| a.line_base(line_size)).collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Coalesces an executed application trace into per-warp transaction
/// streams at the given cacheline size.
pub fn coalesce_app(app: &AppTrace, line_size: u64) -> Vec<WarpStream> {
    let mut addr_scratch: Vec<ByteAddr> = Vec::new();
    let mut streams = Vec::with_capacity(app.warps.len());
    for wt in &app.warps {
        let mut events = Vec::with_capacity(wt.events.len());
        for ev in &wt.events {
            match ev {
                WarpEvent::Access {
                    pc,
                    kind,
                    lane_addrs,
                } => {
                    addr_scratch.clear();
                    addr_scratch.extend(lane_addrs.iter().map(|&(_, a)| a));
                    events.push(WarpStreamEvent::Access(CoalescedAccess {
                        pc: *pc,
                        kind: *kind,
                        lines: coalesce_addrs(&addr_scratch, line_size),
                    }));
                }
                WarpEvent::Sync => events.push(WarpStreamEvent::Sync),
            }
        }
        streams.push(WarpStream {
            warp: wt.warp,
            block: wt.block,
            events,
        });
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_kernel;
    use crate::kernel::{IndexExpr, KernelBuilder};
    use gmap_trace::record::Pc;

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 4 * i)).collect();
        assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(4096)]);
    }

    #[test]
    fn misaligned_warp_spans_two_lines() {
        // Unit-stride but starting 64 bytes into a line.
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 64 + 4 * i)).collect();
        assert_eq!(
            coalesce_addrs(&addrs, 128),
            vec![ByteAddr(4096), ByteAddr(4224)]
        );
    }

    #[test]
    fn strided_warp_explodes_into_many_transactions() {
        // 136-byte stride between lanes (the kmeans pattern): every lane its
        // own line.
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4096 + 136 * i)).collect();
        let txns = coalesce_addrs(&addrs, 128);
        assert!(txns.len() >= 31, "got only {} transactions", txns.len());
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = vec![ByteAddr(256); 32];
        assert_eq!(coalesce_addrs(&addrs, 128), vec![ByteAddr(256)]);
    }

    #[test]
    fn smaller_lines_make_more_transactions() {
        let addrs: Vec<ByteAddr> = (0..32).map(|i| ByteAddr(4 * i)).collect();
        assert_eq!(coalesce_addrs(&addrs, 128).len(), 1);
        assert_eq!(coalesce_addrs(&addrs, 64).len(), 2);
        assert_eq!(coalesce_addrs(&addrs, 32).len(), 4);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(coalesce_addrs(&[], 128).is_empty());
    }

    #[test]
    fn coalesce_app_preserves_structure() {
        let k = KernelBuilder::new("k", 2u32, 64u32)
            .array("a", 1 << 16)
            .read(Pc(0x10), 0, IndexExpr::tid_linear(0, 1))
            .stmt(crate::kernel::Stmt::Sync)
            .read(Pc(0x20), 0, IndexExpr::tid_linear(0, 2))
            .build()
            .expect("valid");
        let app = execute_kernel(&k);
        let streams = coalesce_app(&app, 128);
        assert_eq!(streams.len(), 4);
        let s0 = &streams[0];
        assert_eq!(s0.events.len(), 3);
        match &s0.events[0] {
            WarpStreamEvent::Access(a) => {
                assert_eq!(a.pc, Pc(0x10));
                assert_eq!(a.lines.len(), 1); // unit stride: fully coalesced
            }
            other => panic!("expected access, got {other:?}"),
        }
        assert!(matches!(s0.events[1], WarpStreamEvent::Sync));
        match &s0.events[2] {
            // Stride-2 over 4-byte elements: 32 lanes span 256 B = 2 lines.
            WarpStreamEvent::Access(a) => assert_eq!(a.lines.len(), 2),
            other => panic!("expected access, got {other:?}"),
        }
    }
}
