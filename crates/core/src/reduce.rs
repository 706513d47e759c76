//! `MPI_Reduce` and `MPI_Gather` — the remaining large-volume collectives,
//! derived from the paper's machinery.
//!
//! * **Reduce** is the allreduce minus the result-broadcast pass: the
//!   multicolor ring carries one reduction pass to the root, so the network
//!   cost halves while the local-combine structure (and therefore the
//!   new-vs-current asymmetry) is unchanged.
//! * **Gather** (named in §VII alongside allgather) funnels every rank's
//!   block into the root: the root's six ingress links are the hard
//!   bottleneck; the schemes differ in how a node assembles its four local
//!   blocks before sending (mapped windows vs DMA staging copies).

use bgp_ccmi::chunking::chunk_sizes;
use bgp_ccmi::ring::{ring_fill, run_ring_pipeline, Stage, StageOut};
use bgp_dcmf::{ops, Machine};
use bgp_machine::geometry::{Direction, NodeId};
use bgp_sim::SimTime;

use crate::allreduce::AllreduceAlgorithm;
use crate::ring_stages::{rank_ring_fill, rank_ring_pass, shaddr_reduce_pass};

/// Simulate `MPI_Reduce` (sum of doubles, result at the root) of `bytes`.
pub fn run_reduce(m: &mut Machine, alg: AllreduceAlgorithm, bytes: u64) -> SimTime {
    let ws = 2 * bytes;
    // One ring chunk: a single directed pass to the root. `NodeAwareRsAg`
    // shares the shared-address intra-node machinery, and with one pass
    // RS+AG adds nothing. Nothing flows back, so the link rather than the
    // combine paces admission: the color's next chunk enters when this one
    // finishes, or two link times after it entered if that is sooner.
    let pass: Stage = &|m, now, c, b| {
        let finish = match alg {
            AllreduceAlgorithm::RingCurrent => rank_ring_pass(m, now, c, b, 1, ws).1,
            AllreduceAlgorithm::ShaddrSpecialized | AllreduceAlgorithm::NodeAwareRsAg => {
                shaddr_reduce_pass(m, now, c, b, b, ws)
            }
        };
        StageOut {
            next_chunk: finish.min(now + m.link_time(b) * 2),
            ..StageOut::at(finish)
        }
    };
    let t0 = m.cfg.sw.mpi_overhead();
    let done = run_ring_pipeline(m, t0, bytes, &[pass]);
    done + match alg {
        AllreduceAlgorithm::RingCurrent => rank_ring_fill(m),
        AllreduceAlgorithm::ShaddrSpecialized | AllreduceAlgorithm::NodeAwareRsAg => ring_fill(m),
    }
}

/// Simulate `MPI_Gather` of `block_bytes` per rank into the root.
/// Returns completion; the root receives `ranks × nodes × block` bytes.
pub fn run_gather(m: &mut Machine, alg: AllreduceAlgorithm, block_bytes: u64) -> SimTime {
    let t0 = m.cfg.sw.mpi_overhead();
    let root = NodeId(0);
    let ranks = u64::from(m.cfg.ranks_per_node());
    let nodes = u64::from(m.cfg.node_count());
    let node_block = ranks * block_bytes;
    let total_in = (nodes - 1).max(1) * node_block;
    let ws = 2 * total_in.min(64 << 20);
    let pwidth = m.cfg.sw.pwidth as u64;

    // Source-side preparation of the node block (the scheme difference):
    // new — the sending rank maps its peers' buffers and injects straight
    // from them (no staging); current — the DMA stages three copies first.
    let prep_done = match alg {
        AllreduceAlgorithm::ShaddrSpecialized | AllreduceAlgorithm::NodeAwareRsAg => {
            ops::core_busy(m, t0, root, 0, m.cfg.cnk.map_cost(1))
        }
        AllreduceAlgorithm::RingCurrent => {
            let posted = ops::descriptor_post(m, t0, root, 0);
            ops::dma_local_distribute(m, posted, root, block_bytes, (ranks - 1) as u32, ws)
        }
    };

    // Ingress: the root drains the whole machine through its six links;
    // spread chunks round-robin across the six upstream links.
    let dirs = Direction::ALL;
    let mut finish = prep_done;
    let root_coord = m.coord(root);
    for (i, chunk) in chunk_sizes(total_in, pwidth).into_iter().enumerate() {
        let dir = dirs[i % dirs.len()];
        let upstream = m.node_at(m.cfg.dims.neighbor(root_coord, dir.opposite()));
        let link = m.link(upstream, dir);
        let wire = m.pool.reserve(link, prep_done, m.link_time(chunk));
        let landed = ops::dma_recv(m, wire, root, chunk, ws);
        finish = finish.max(landed);
    }
    // Pipeline fill to the farthest source.
    let far = u64::from(m.cfg.dims.x / 2 + m.cfg.dims.y / 2 + m.cfg.dims.z / 2);
    finish + m.cfg.torus.hop_latency(far as u32)
}

/// Gather throughput (total bytes into the root per unit time), MB/s.
pub fn gather_throughput_mb(m: &mut Machine, alg: AllreduceAlgorithm, block_bytes: u64) -> f64 {
    let t = run_gather(m, alg, block_bytes);
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

    fn mbps(bytes: u64, t: SimTime) -> f64 {
        bytes as f64 / t.as_secs_f64() / 1e6
    }

    #[test]
    fn reduce_is_faster_than_allreduce() {
        // One ring pass instead of two: reduce must beat allreduce for the
        // same payload, for both schemes.
        let bytes = 2u64 << 20;
        for alg in [
            AllreduceAlgorithm::ShaddrSpecialized,
            AllreduceAlgorithm::RingCurrent,
        ] {
            let red = run_reduce(&mut quad(), alg, bytes);
            let all = crate::allreduce::run_allreduce(&mut quad(), alg, bytes);
            assert!(red < all, "{alg:?}: reduce {red} vs allreduce {all}");
        }
    }

    #[test]
    fn reduce_new_beats_current() {
        let bytes = 2u64 << 20;
        let new = run_reduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, bytes);
        let cur = run_reduce(&mut quad(), AllreduceAlgorithm::RingCurrent, bytes);
        let gain = cur.as_secs_f64() / new.as_secs_f64();
        assert!(gain > 1.1, "reduce gain {gain:.2}");
    }

    #[test]
    fn reduce_throughput_is_plausible() {
        let bytes = 2u64 << 20;
        let t = run_reduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, bytes);
        let bw = mbps(bytes, t);
        // Single pass over 3 colors: bounded by 3 x 425.
        assert!(bw > 400.0 && bw <= 1275.0 * 1.01, "{bw:.0}");
    }

    #[test]
    fn gather_is_root_ingress_bound() {
        // Root ingress = 6 links: aggregate gather throughput approaches
        // but cannot exceed 2550 MB/s.
        let bw = gather_throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 64 << 10);
        // The metric counts all gathered bytes including the root's own
        // local blocks, which never cross a link — hence the 64/63 factor
        // above the 6-link wire limit on the 64-node machine.
        assert!(
            bw > 1200.0 && bw <= 2550.0 * (64.0 / 63.0) * 1.01,
            "{bw:.0}"
        );
    }

    #[test]
    fn gather_new_wins_on_source_prep() {
        let new =
            gather_throughput_mb(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 16 << 10);
        let cur = gather_throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, 16 << 10);
        assert!(new >= cur, "new={new:.0} cur={cur:.0}");
    }

    #[test]
    fn deterministic() {
        let a = run_reduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 1 << 20);
        let b = run_reduce(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, 1 << 20);
        assert_eq!(a, b);
    }
}
