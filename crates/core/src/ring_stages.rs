//! Per-chunk stage costs shared by the ring family (allreduce,
//! reduce-scatter, reduce, allgather, alltoall).
//!
//! `bgp_ccmi::ring` owns the pipeline; the collectives own which stages a
//! chunk walks and when the next chunk may enter. What sits here are the
//! reservation blocks more than one of them charges for a chunk on the
//! representative node: the two combining ring passes (who combines and who
//! moves is the paper's §V-C difference), the no-arithmetic transit pass of
//! allgather and alltoall, and the worker cores' copy-out.

use bgp_ccmi::ring::{color_dir, ring_fill, ring_hops, StageOut};
use bgp_dcmf::{ops, Machine};
use bgp_machine::geometry::NodeId;
use bgp_sim::SimTime;

/// The representative node whose servers carry the pipeline.
pub(crate) const NODE: NodeId = NodeId(0);

/// When a software message counter published at `t` is seen by its poller.
pub(crate) fn counter_visible(m: &Machine, t: SimTime) -> SimTime {
    t + m.cfg.sw.counter_publish() + m.cfg.sw.counter_poll()
}

/// Per-packet protocol-processing cost for ring forwarding on a core
/// (reuses the calibrated per-packet core cost; torus packets are 240 B).
pub(crate) fn forward_cost(m: &Machine, bytes: u64) -> SimTime {
    let packets = bytes.div_ceil(m.cfg.torus.packet_bytes as u64).max(1);
    SimTime::from_nanos(packets * m.cfg.tree.core_packet_ns)
}

/// `bytes` of color `c` through the node-level (shared-address) ring for
/// `passes` passes: the color's link carries every pass, the DMA moves each
/// pass in and out (coupled to memory), and the dedicated protocol core
/// (local rank 0) does the 2-input combine of the reduction pass. Returns
/// `(wire_done, combined)`; whatever the core does after combining
/// (per-packet forwarding, a descriptor post) is the caller's.
pub(crate) fn shaddr_ring_pass(
    m: &mut Machine,
    now: SimTime,
    c: usize,
    bytes: u64,
    passes: u64,
    ws: u64,
) -> (SimTime, SimTime) {
    let link = m.link(NODE, color_dir(c));
    let link_done = m.pool.reserve(link, now, m.link_time(bytes) * passes);
    let dma_t = m.dma_time(2 * passes * bytes);
    let mem_t = m.mem_time(2 * passes * bytes, ws);
    let (dma, mem) = (m.dma(NODE), m.mem(NODE));
    let dma_done = m.pool.reserve_coupled(dma, dma_t, &[(mem, mem_t)], now);
    let combined = ops::core_reduce(m, now, NODE, 0, bytes, 2, ws);
    (link_done.max(dma_done), combined)
}

/// The single-pass shared-address chunk of reduce and reduce-scatter:
/// worker core `1 + c` reduces the node's contributions through mapped
/// windows, publishes a counter, and the protocol core runs one combining
/// ring pass over the `transit` bytes the node forwards. Returns the finish.
pub(crate) fn shaddr_reduce_pass(
    m: &mut Machine,
    now: SimTime,
    c: usize,
    bytes: u64,
    transit: u64,
    ws: u64,
) -> SimTime {
    let n_ranks = m.cfg.ranks_per_node() as usize;
    let reduced = ops::core_reduce(m, now, NODE, 1 + c as u32, bytes, n_ranks, ws);
    let visible = counter_visible(m, reduced);
    let (wire_done, combined) = shaddr_ring_pass(m, visible, c, transit, 1, ws);
    wire_done.max(combined)
}

/// `bytes` of color `c` through the rank-level ("current") ring for
/// `passes` passes: on top of the inter-node traffic the DMA carries the
/// `ranks - 1` intra-node ring hops of every pass as local copies ("redundant
/// copies of data are transferred by the DMA"), and every rank's core does
/// the 2-input combine — plus per-packet forwarding when a broadcast pass
/// follows the reduction (`passes == 2`). Returns `(dma_done, done)`.
pub(crate) fn rank_ring_pass(
    m: &mut Machine,
    now: SimTime,
    c: usize,
    bytes: u64,
    passes: u64,
    ws: u64,
) -> (SimTime, SimTime) {
    let ranks = u64::from(m.cfg.ranks_per_node());
    let link = m.link(NODE, color_dir(c));
    let link_done = m.pool.reserve(link, now, m.link_time(bytes) * passes);
    let units = 2 * passes * ranks * bytes;
    let dma_t = m.dma_time(units);
    let mem_t = m.mem_time(units, ws);
    let (dma, mem) = (m.dma(NODE), m.mem(NODE));
    let dma_done = m.pool.reserve_coupled(dma, dma_t, &[(mem, mem_t)], now);
    let mut cores_done = now;
    for core in 0..m.cfg.ranks_per_node() {
        let mut t = ops::core_reduce(m, now, NODE, core, bytes, 2, ws);
        if passes == 2 {
            t = ops::core_busy(m, t, NODE, core, forward_cost(m, bytes));
        }
        cores_done = cores_done.max(t);
    }
    (dma_done, link_done.max(dma_done).max(cores_done))
}

/// One-pass fill of the rank-level ring: the inter-node hops plus
/// `ranks - 1` intra-node stages per node, which add core processing
/// latency only (no torus hop).
pub(crate) fn rank_ring_fill(m: &Machine) -> SimTime {
    let ranks = u64::from(m.cfg.ranks_per_node());
    ring_fill(m) + SimTime::from_nanos(m.cfg.tree.core_packet_ns) * (ring_hops(m) * (ranks - 1))
}

/// Shared-address copy-out: once a counter published at `ready` is seen,
/// each worker core copies `bytes` out of the master's reception buffer
/// (single copy through a mapped window). Returns when the last one is done.
pub(crate) fn worker_copy_out(m: &mut Machine, ready: SimTime, bytes: u64, ws: u64) -> SimTime {
    let visible = counter_visible(m, ready);
    let mut done = visible;
    for core in 1..m.cfg.ranks_per_node().min(4) {
        done = done.max(ops::core_copy(m, visible, NODE, core, bytes, ws, true));
    }
    done
}

/// How a received chunk reaches the node's other ranks.
pub(crate) enum Fanout {
    /// Current: the DMA local-copies this many bytes on top of the transit.
    Dma(u64),
    /// Shared address: each worker core copies this many bytes out of the
    /// master's reception buffer.
    Windows(u64),
}

/// One chunk of a no-arithmetic single-pass ring (allgather, alltoall)
/// through the representative node: receive it, forward it on, fan it out.
/// Forwarding is pure DMA work (remote-put chains; no core in the data
/// path) — one descriptor post per chunk on the protocol core is the only
/// processor involvement. The color's next chunk enters once the DMA has
/// taken this one; the fan-out overlaps it.
pub(crate) fn transit_pass(
    m: &mut Machine,
    now: SimTime,
    c: usize,
    bytes: u64,
    fanout: Fanout,
    ws: u64,
) -> StageOut {
    let link = m.link(NODE, color_dir(c));
    let link_done = m.pool.reserve(link, now, m.link_time(bytes));
    // DMA: reception + forwarding injection (+ the local copies).
    let (dma_units, mem_units) = match fanout {
        Fanout::Windows(_) => (2 * bytes, 2 * bytes),
        Fanout::Dma(copied) => (
            2 * bytes + m.cfg.dma.local_copy_traffic(copied),
            2 * bytes + m.cfg.mem.copy_traffic(copied),
        ),
    };
    let dma_t = m.dma_time(dma_units);
    let mem_t = m.mem_time(mem_units, ws);
    let (dma, mem) = (m.dma(NODE), m.mem(NODE));
    let dma_done = m.pool.reserve_coupled(dma, dma_t, &[(mem, mem_t)], now);
    let posted = ops::descriptor_post(m, now, NODE, 0);
    let moved = link_done.max(dma_done).max(posted);
    let done = match fanout {
        Fanout::Windows(each) => worker_copy_out(m, moved, each, ws),
        Fanout::Dma(_) => moved + m.cfg.dma.counter_poll(),
    };
    StageOut {
        next_chunk: dma_done,
        ..StageOut::at(done)
    }
}
