//! `MPI_Allgather` — the paper's stated future work (§VII: "we intend to
//! extend the mechanism to other collectives such as MPI_Gather and
//! MPI_Allgather which can also potentially move large volumes of data").
//!
//! The same decomposition as the allreduce, minus the arithmetic: each rank
//! contributes a block; every rank ends with all `P` blocks.
//!
//! * **local gather** — the node's four blocks are assembled in the master
//!   rank's buffer (through mapped windows in the new scheme; via DMA local
//!   copies in the current one);
//! * **node-level ring allgather** — node blocks circulate the multicolor
//!   dimension-ordered rings; unlike allreduce there is a single pass (each
//!   byte crosses each node once) and no arithmetic;
//! * **local distribution** — every incoming node-block must reach all four
//!   ranks: three direct copies out of the master's reception buffer (new)
//!   or three DMA local copies per block (current) — the same DMA-budget
//!   asymmetry that decides Figure 10.
//!
//! Representative-node simulation, like the allreduce (the collective is
//! node-symmetric).

use bgp_ccmi::ring::{ring_fill, run_ring_pipeline, Stage};
use bgp_dcmf::{ops, Machine};
use bgp_sim::SimTime;

use crate::ring_stages::{transit_pass, Fanout, NODE};

/// Allgather algorithm variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgorithm {
    /// DMA-driven local gather + distribution (the pre-paper pattern).
    RingCurrent,
    /// Shared-address local gather + direct-copy distribution (the paper's
    /// mechanism applied as §VII proposes).
    ShaddrSpecialized,
}

impl AllgatherAlgorithm {
    /// Short label used in reports and probe contexts.
    pub fn label(&self) -> &'static str {
        match self {
            AllgatherAlgorithm::RingCurrent => "Ring (current)",
            AllgatherAlgorithm::ShaddrSpecialized => "Shaddr specialized",
        }
    }
}

/// Simulate `MPI_Allgather` with `block_bytes` contributed per rank.
/// Returns completion time; total moved data is `ranks × block_bytes` per
/// rank's receive buffer.
pub fn run_allgather(m: &mut Machine, alg: AllgatherAlgorithm, block_bytes: u64) -> SimTime {
    let t0 = m.cfg.sw.mpi_overhead();
    let ranks = u64::from(m.cfg.ranks_per_node());
    let nodes = u64::from(m.cfg.node_count());
    // Bytes that stream *through* each node over the ring: every other
    // node's node-block (ranks × block each).
    let through = (nodes - 1).max(1) * ranks * block_bytes;
    let ws = 2 * through.min(64 << 20);

    // Local gather of the node's own block (small, one-time): the three
    // peers' blocks reach the master.
    let gather_done = match alg {
        AllgatherAlgorithm::ShaddrSpecialized => {
            // Master core copies each peer block through windows.
            (1..ranks).fold(t0, |t, _| {
                ops::core_copy(m, t, NODE, 0, block_bytes, ws, true)
            })
        }
        AllgatherAlgorithm::RingCurrent => {
            let posted = ops::descriptor_post(m, t0, NODE, 0);
            ops::dma_local_distribute(m, posted, NODE, block_bytes, (ranks - 1) as u32, ws)
        }
    };

    // Every incoming chunk must reach all four ranks: three direct copies
    // of the chunk (new) or three DMA local copies per byte (current).
    let pass: Stage = &|m, now, c, b| {
        let fanout = match alg {
            AllgatherAlgorithm::ShaddrSpecialized => Fanout::Windows(b),
            AllgatherAlgorithm::RingCurrent => Fanout::Dma((ranks - 1) * b),
        };
        transit_pass(m, now, c, b, fanout, ws)
    };
    run_ring_pipeline(m, gather_done, through, &[pass]) + ring_fill(m)
}

/// Aggregate throughput in MB/s (total gathered bytes per unit time).
pub fn allgather_throughput_mb(m: &mut Machine, alg: AllgatherAlgorithm, block_bytes: u64) -> f64 {
    let t = run_allgather(m, alg, block_bytes);
    let total = u64::from(m.cfg.node_count()) * u64::from(m.cfg.ranks_per_node()) * block_bytes;
    total as f64 / t.as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::{MachineConfig, OpMode};

    fn quad() -> Machine {
        Machine::new(MachineConfig::test_small(OpMode::Quad))
    }

    #[test]
    fn shaddr_beats_current() {
        for block in [4u64 << 10, 64 << 10] {
            let new =
                allgather_throughput_mb(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, block);
            let cur = allgather_throughput_mb(&mut quad(), AllgatherAlgorithm::RingCurrent, block);
            assert!(new > cur * 1.2, "block {block}: new={new:.0} cur={cur:.0}");
        }
    }

    #[test]
    fn throughput_is_in_torus_range() {
        // Single ring pass over 3 colors: bounded by 3 x 425 MB/s.
        let new =
            allgather_throughput_mb(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 64 << 10);
        assert!(new < 3.0 * 425.0 * 1.01, "{new:.0}");
        assert!(new > 300.0, "{new:.0}");
    }

    #[test]
    fn deterministic() {
        let a = allgather_throughput_mb(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 8192);
        let b = allgather_throughput_mb(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 8192);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_blocks_complete() {
        let t = run_allgather(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 1);
        assert!(t > SimTime::ZERO);
    }
}
