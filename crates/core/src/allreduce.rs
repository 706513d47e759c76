//! Torus allreduce (paper §V-C, Table I).
//!
//! Both algorithms decompose allreduce into (a) a local combine of the four
//! ranks' contributions, (b) a multicolor ring allreduce over the torus
//! (dimension-ordered rings, three edge-disjoint colors, reduction pass
//! pipelined with the broadcast-of-result pass), and (c) a local broadcast
//! of the result. They differ in *who moves and who computes*:
//!
//! * **Current** — the ring runs at *rank* level: intra-node ring hops are
//!   DMA local copies, so the engine carries the inter-node traffic **and**
//!   six redundant local copies per byte across the two passes ("the DMA
//!   cannot keep pace with both the inter- and intra-node data transfers").
//! * **Shaddr-specialized (new)** — the ring runs at *node* level. One
//!   dedicated core (local rank 0) executes the network protocol: ring
//!   arithmetic plus per-packet forwarding for the pipelined broadcast
//!   pass. The other three cores each own one color's partition: they
//!   reduce it across all four application buffers through mapped process
//!   windows (no copies — §V-C: "all the application buffers are mapped
//!   using the system call interfaces, and no extra copy operations are
//!   necessary") and later copy the network result out of the master's
//!   reception buffer.
//!
//! Because the collective is node-symmetric, the steady-state throughput is
//! decided by one node's resources; the executor simulates the
//! representative node's servers with full per-chunk pipelining and adds
//! the analytic ring-fill latency (a constant, not a rate).

use bgp_ccmi::ring::{ring_fill, ring_hops, run_ring_pipeline, Stage, StageOut};
use bgp_dcmf::{ops, Machine};
use bgp_sim::SimTime;

use crate::ring_stages::{
    counter_visible, forward_cost, rank_ring_fill, rank_ring_pass, shaddr_ring_pass,
    worker_copy_out, NODE,
};

/// The allreduce algorithms of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgorithm {
    /// The pre-paper approach: rank-level multicolor ring, DMA-driven
    /// intra-node movement.
    RingCurrent,
    /// The paper's core-specialized shared-address design.
    ShaddrSpecialized,
    /// Node-aware reduce-scatter + allgather: the intra-node combine and
    /// copy-out stages are the shared-address scheme's, but the inter-node
    /// phase replaces the pipelined ring reduce+broadcast with a
    /// reduce-scatter pass followed by an allgather pass (the
    /// locality-aware decomposition of Bienz et al., arXiv:1910.09650,
    /// fused with the intra-node stage per Zhou et al., arXiv:2007.06892).
    /// Each node owns one `1/n` slice of the result, so the combine work
    /// and link traffic drop by `1/n`, and the allgather pass is pure
    /// remote-put descriptor chains — no protocol-core forwarding. The
    /// price is a counter synchronization at every stage boundary, so the
    /// scheme only wins once the message amortizes `2·stages` sync
    /// latencies.
    NodeAwareRsAg,
}

impl AllreduceAlgorithm {
    /// Short label used in reports and probe contexts.
    pub fn label(&self) -> &'static str {
        match self {
            AllreduceAlgorithm::RingCurrent => "Ring (current)",
            AllreduceAlgorithm::ShaddrSpecialized => "Shaddr specialized",
            AllreduceAlgorithm::NodeAwareRsAg => "Node-aware RS+AG",
        }
    }
}

/// Simulate one allreduce of `bytes` (payload bytes, e.g. `8 × doubles`).
/// Returns the completion time including MPI dispatch overhead.
pub fn run_allreduce(m: &mut Machine, alg: AllreduceAlgorithm, bytes: u64) -> SimTime {
    match alg {
        AllreduceAlgorithm::ShaddrSpecialized => run_new(m, bytes),
        AllreduceAlgorithm::RingCurrent => run_current(m, bytes),
        AllreduceAlgorithm::NodeAwareRsAg => run_node_aware(m, bytes),
    }
}

/// The shared-address stage chain around a caller-supplied network stage:
/// worker core `1 + c` reduces the chunk across all ranks' buffers through
/// mapped windows and notifies the protocol core through a software message
/// counter; `net` runs the inter-node phase; the worker cores copy the
/// result out of the master's reception buffer. The color's next chunk
/// enters as soon as its worker core is free again (`reduced`), not when
/// the counter becomes visible — the cores pipeline against the network.
fn run_shaddr_chain(m: &mut Machine, bytes: u64, net: Stage) -> SimTime {
    let n_ranks = m.cfg.ranks_per_node() as usize;
    let ws = 2 * bytes;
    let reduce: Stage = &|m, now, c, b| {
        let reduced = ops::core_reduce(m, now, NODE, 1 + c as u32, b, n_ranks, ws);
        StageOut {
            next_stage: counter_visible(m, reduced),
            ..StageOut::at(reduced)
        }
    };
    let copy_out: Stage = &|m, now, _, b| StageOut::at(worker_copy_out(m, now, b, ws));
    let t0 = m.cfg.sw.mpi_overhead();
    run_ring_pipeline(m, t0, bytes, &[reduce, net, copy_out])
}

/// The paper's core-specialized shared-address allreduce. Network stage:
/// the dedicated protocol core (local rank 0) runs the ring arithmetic and
/// the per-packet forwarding of the pipelined broadcast pass; the DMA and
/// the color's links carry both passes.
fn run_new(m: &mut Machine, bytes: u64) -> SimTime {
    let ws = 2 * bytes;
    let net: Stage = &|m, now, c, b| {
        let (wire_done, combined) = shaddr_ring_pass(m, now, c, b, 2, ws);
        let core_done = ops::core_busy(m, combined, NODE, 0, forward_cost(m, b));
        StageOut::at(wire_done.max(core_done))
    };
    run_shaddr_chain(m, bytes, net) + ring_fill(m) * 2
}

/// Node-aware reduce-scatter + allgather: same intra-node stages as the
/// shared-address scheme. Network stage: a reduce-scatter pass and an
/// allgather pass, each moving `(n-1)/n` of the chunk per node (its ring
/// carries every slice except the one it owns). The protocol core combines
/// only the RS pass; the AG pass is remote-put descriptor chains, so the
/// core posts descriptors instead of forwarding per packet.
fn run_node_aware(m: &mut Machine, bytes: u64) -> SimTime {
    let ws = 2 * bytes;
    let n = u64::from(m.cfg.node_count()).max(2);
    let net: Stage = &|m, now, c, b| {
        let (wire_done, combined) = shaddr_ring_pass(m, now, c, b - b / n, 2, ws);
        let core_done = ops::descriptor_post(m, combined, NODE, 0);
        StageOut::at(wire_done.max(core_done))
    };
    // Every RS and AG stage boundary is a counter handshake between the
    // protocol core and its ring neighbor — the latency the pipelined ring
    // hides, and the reason the scheme loses at small sizes.
    let sync = counter_visible(m, SimTime::ZERO) * (2 * ring_hops(m));
    run_shaddr_chain(m, bytes, net) + ring_fill(m) * 2 + sync
}

/// The current (pre-paper) rank-level ring: one stage per chunk. The node
/// can start its next chunk once the DMA accepted this one.
fn run_current(m: &mut Machine, bytes: u64) -> SimTime {
    let ws = 2 * bytes;
    let pass: Stage = &|m, now, c, b| {
        let (dma_done, done) = rank_ring_pass(m, now, c, b, 2, ws);
        StageOut {
            next_chunk: dma_done.min(done),
            ..StageOut::at(done)
        }
    };
    let t0 = m.cfg.sw.mpi_overhead();
    run_ring_pipeline(m, t0, bytes, &[pass]) + rank_ring_fill(m) * 2
}

/// Throughput in MB/s for a Table-I row of `doubles` doubles.
pub fn throughput_mb(m: &mut Machine, alg: AllreduceAlgorithm, doubles: u64) -> f64 {
    let bytes = doubles * 8;
    let t = run_allreduce(m, alg, bytes);
    bytes as f64 / t.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::MachineConfig;

    fn quad() -> Machine {
        Machine::new(MachineConfig::two_racks_quad())
    }

    #[test]
    fn table1_new_beats_current_at_large_sizes() {
        let doubles = 512 * 1024;
        let new = throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, doubles);
        let cur = throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, doubles);
        let gain = new / cur;
        assert!(
            (1.15..1.75).contains(&gain),
            "512K-doubles gain should be ~1.33x, got {gain:.2} (new={new:.0}, cur={cur:.0})"
        );
    }

    #[test]
    fn table1_absolute_throughputs_are_plausible() {
        let doubles = 512 * 1024;
        let new = throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, doubles);
        let cur = throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, doubles);
        assert!((250.0..900.0).contains(&new), "new={new:.0}");
        assert!((200.0..700.0).contains(&cur), "cur={cur:.0}");
    }

    #[test]
    fn gain_grows_with_message_size() {
        // Paper: "benefits across the different messages but the algorithm
        // is mostly useful for large messages."
        let small_gain = {
            let n = throughput_mb(
                &mut quad(),
                AllreduceAlgorithm::ShaddrSpecialized,
                16 * 1024,
            );
            let c = throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, 16 * 1024);
            n / c
        };
        let large_gain = {
            let n = throughput_mb(
                &mut quad(),
                AllreduceAlgorithm::ShaddrSpecialized,
                512 * 1024,
            );
            let c = throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, 512 * 1024);
            n / c
        };
        assert!(
            large_gain > small_gain * 0.95,
            "gain should not shrink with size: small={small_gain:.2} large={large_gain:.2}"
        );
        assert!(
            small_gain > 1.0,
            "new must win at 16K doubles too: {small_gain:.2}"
        );
    }

    #[test]
    fn throughput_grows_with_size_then_saturates() {
        let t16 = throughput_mb(
            &mut quad(),
            AllreduceAlgorithm::ShaddrSpecialized,
            16 * 1024,
        );
        let t512 = throughput_mb(
            &mut quad(),
            AllreduceAlgorithm::ShaddrSpecialized,
            512 * 1024,
        );
        assert!(
            t512 > t16,
            "throughput should rise with size: {t16:.0} -> {t512:.0}"
        );
    }

    #[test]
    fn node_aware_loses_small_wins_large() {
        // Small: the 2·stages counter handshakes dominate and the
        // pipelined shared-address ring wins.
        let small_sh = run_allreduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 8 * 1024);
        let small_na = run_allreduce(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 8 * 1024);
        assert!(
            small_na > small_sh,
            "node-aware must lose at 8KiB: na={small_na} sh={small_sh}"
        );
        // Large: RS+AG moves (n-1)/n per pass and frees the protocol core
        // of per-packet forwarding — it beats both the pipelined node ring
        // and the flat rank-level ring.
        let doubles = 512 * 1024;
        let na = throughput_mb(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, doubles);
        let sh = throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, doubles);
        let cur = throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, doubles);
        assert!(na > sh * 1.05, "na={na:.0} sh={sh:.0}");
        assert!(na > cur * 1.3, "na={na:.0} cur={cur:.0}");
    }

    #[test]
    fn node_aware_deterministic_and_nonzero() {
        let a = throughput_mb(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 65536);
        let b = throughput_mb(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 65536);
        assert_eq!(a, b);
        let t = run_allreduce(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 0);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    fn deterministic() {
        let a = throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 65536);
        let b = throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 65536);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_size_completes() {
        let t = run_allreduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 0);
        assert!(t > SimTime::ZERO);
    }
}
