//! `MPI_Alltoall` — the personalized exchange, rounding out the §VII
//! future-work set alongside `MPI_Allgather`.
//!
//! Each rank holds one `block` for every other rank. The torus schedule is
//! the ring transpose: node blocks circulate the multicolor rings one full
//! pass (like the allgather), but every node *keeps* one `1/n` cut of each
//! passing superblock and forwards the rest, so the transit volume decays
//! along the ring — the per-node average is half the allgather's. There is
//! no arithmetic anywhere; the intra-node side is pure distribution, which
//! is exactly where the paper's shared-address mechanism bites:
//!
//! * **current** — every kept cut is DMA-local-copied to its destination
//!   rank ("redundant copies of data are transferred by the DMA");
//! * **shaddr** — destination cores copy their pieces straight out of the
//!   master's reception buffer through mapped windows.

use bgp_ccmi::ring::{ring_fill, run_ring_pipeline, Stage};
use bgp_dcmf::{ops, Machine};
use bgp_sim::SimTime;

use crate::allgather::AllgatherAlgorithm;
use crate::ring_stages::{transit_pass, Fanout, NODE};

/// Simulate `MPI_Alltoall` with `block_bytes` per rank pair. Returns the
/// completion time; each rank sends and receives `P × block_bytes`.
pub fn run_alltoall(m: &mut Machine, alg: AllgatherAlgorithm, block_bytes: u64) -> SimTime {
    let t0 = m.cfg.sw.mpi_overhead();
    let ranks = u64::from(m.cfg.ranks_per_node());
    let nodes = u64::from(m.cfg.node_count());
    // Average ring transit per node: each of the other nodes' superblocks
    // (ranks² × block for the node pair) travels half the ring on average,
    // decaying as cuts peel off — half the allgather's transit volume.
    let pair_block = ranks * ranks * block_bytes;
    let through = ((nodes - 1).max(1) * pair_block).div_ceil(2);
    let ws = 2 * through.min(64 << 20);

    // Source-side assembly of the outgoing superblocks: the master stages
    // its peers' send buffers (shaddr: window copies by the owning cores;
    // current: DMA local gathers).
    let own = (ranks - 1) * ranks * block_bytes;
    let prep_done = match alg {
        AllgatherAlgorithm::ShaddrSpecialized => {
            let each = own / (ranks - 1).max(1);
            (1..ranks.min(4) as u32).fold(t0, |t, core| {
                t.max(ops::core_copy(m, t0, NODE, core, each, ws, true))
            })
        }
        AllgatherAlgorithm::RingCurrent => {
            let posted = ops::descriptor_post(m, t0, NODE, 0);
            ops::dma_local_distribute(m, posted, NODE, block_bytes * ranks, (ranks - 1) as u32, ws)
        }
    };

    // One transit chunk: receive, keep the local cut, forward the rest. The
    // kept cut (modelled as the chunk's ring-average share) must reach its
    // destination ranks: DMA local copies (current) or one window copy of
    // its piece per destination core (shaddr).
    let pass: Stage = &|m, now, c, b| {
        let kept = b.div_ceil(2);
        let fanout = match alg {
            AllgatherAlgorithm::ShaddrSpecialized => Fanout::Windows(kept / ranks.max(1)),
            AllgatherAlgorithm::RingCurrent => Fanout::Dma(kept),
        };
        transit_pass(m, now, c, b, fanout, ws)
    };
    run_ring_pipeline(m, prep_done, through, &[pass]) + ring_fill(m)
}

/// Aggregate throughput in MB/s (total exchanged bytes per unit time).
pub fn alltoall_throughput_mb(m: &mut Machine, alg: AllgatherAlgorithm, block_bytes: u64) -> f64 {
    let t = run_alltoall(m, alg, block_bytes);
    let p = u64::from(m.cfg.rank_count());
    let total = p * p * block_bytes;
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
    fn schemes_converge_at_large_blocks() {
        // Alltoall is personalized: every kept cut reaches exactly one
        // rank, so shared address saves no fan-out copies and the current
        // scheme's DMA local copies sit off the link-bound critical path.
        // The schemes converge at large blocks (unlike allgather's 1.2×),
        // and the per-chunk counter handshakes make shaddr *lose* at tiny
        // ones — which is why the selection policy never needs a shaddr
        // alltoall region below the convergence point.
        let ratio = |block: u64| {
            let new = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, block);
            let cur = run_alltoall(&mut quad(), AllgatherAlgorithm::RingCurrent, block);
            new.as_secs_f64() / cur.as_secs_f64()
        };
        let small = ratio(256);
        let large = ratio(16 << 10);
        assert!(small > 1.0, "current must win tiny blocks: {small:.3}");
        assert!(
            (large - 1.0).abs() < 0.01,
            "must converge large: {large:.4}"
        );
        assert!(large < small, "gap must shrink with size");
    }

    #[test]
    fn deterministic() {
        let a = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 1024);
        let b = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_and_tiny_complete() {
        for block in [0u64, 1] {
            let t = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, block);
            assert!(t > SimTime::ZERO, "block {block}");
        }
    }

    #[test]
    fn cost_grows_with_block() {
        let small = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 256);
        let large = run_alltoall(&mut quad(), AllgatherAlgorithm::ShaddrSpecialized, 8 << 10);
        assert!(large > small, "small={small} large={large}");
    }
}
