//! `MPI_Reduce_scatter` — the reduce-scatter half of the node-aware
//! allreduce exposed as its own collective (the stage decomposition of
//! Bienz et al., arXiv:1910.09650: a locality-aware allreduce *is* a
//! reduce-scatter followed by an allgather, so both halves are first-class
//! here).
//!
//! Decomposition mirrors the allreduce:
//!
//! * **local combine** — the node's four contributions are reduced into
//!   the master's buffer (worker cores through mapped windows in the new
//!   scheme; DMA staging copies in the current one);
//! * **node-level ring reduce-scatter** — a *single* directed pass: each
//!   node combines what arrives with its own data and forwards, ending
//!   with the node owning the fully-reduced `1/n` slice;
//! * **local scatter** — each rank copies its quarter of the node slice
//!   out of the master's reception buffer (one small copy; the current
//!   scheme pays DMA local copies instead).

use bgp_ccmi::ring::{ring_fill, run_ring_pipeline, Stage, StageOut};
use bgp_dcmf::Machine;
use bgp_sim::SimTime;

use crate::allreduce::AllreduceAlgorithm;
use crate::ring_stages::{rank_ring_fill, rank_ring_pass, shaddr_reduce_pass};

/// Simulate `MPI_Reduce_scatter` of a `bytes`-byte vector (every rank
/// contributes `bytes`; every rank receives its `bytes / P` slice of the
/// sum). Returns the completion time.
pub fn run_reduce_scatter(m: &mut Machine, alg: AllreduceAlgorithm, bytes: u64) -> SimTime {
    let ranks = u64::from(m.cfg.ranks_per_node());
    let n = u64::from(m.cfg.node_count()).max(2);
    let ws = 2 * bytes;
    // One ring chunk through the representative node: a single pass, with
    // arithmetic. The node forwards what it has combined, so the color's
    // next chunk enters when this one has finished.
    let pass: Stage = &|m, now, c, b| {
        StageOut::at(match alg {
            // The rank-level ring moves whole chunks; the node-level one
            // only the node's transit share.
            AllreduceAlgorithm::RingCurrent => rank_ring_pass(m, now, c, b, 1, ws).1,
            AllreduceAlgorithm::ShaddrSpecialized | AllreduceAlgorithm::NodeAwareRsAg => {
                shaddr_reduce_pass(m, now, c, b, b - b / n, ws)
            }
        })
    };
    let t0 = m.cfg.sw.mpi_overhead();
    let done = run_ring_pipeline(m, t0, bytes, &[pass]);
    let fill = match alg {
        AllreduceAlgorithm::RingCurrent => rank_ring_fill(m),
        AllreduceAlgorithm::ShaddrSpecialized | AllreduceAlgorithm::NodeAwareRsAg => ring_fill(m),
    };
    // Local scatter: each rank's slice of the node's `1/n` share — one
    // small copy per worker core (pipelined with the ring in steady state;
    // the last chunk's copy is what lands on the completion path).
    let slice = (bytes / n / ranks).max(1);
    done + fill + m.mem_time(slice, ws)
}

/// Throughput in MB/s over the contributed vector size.
pub fn reduce_scatter_throughput_mb(m: &mut Machine, alg: AllreduceAlgorithm, bytes: u64) -> f64 {
    let t = run_reduce_scatter(m, alg, bytes);
    bytes as f64 / t.as_secs_f64() / 1e6
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
        for bytes in [64u64 << 10, 1 << 20] {
            let new = reduce_scatter_throughput_mb(
                &mut quad(),
                AllreduceAlgorithm::ShaddrSpecialized,
                bytes,
            );
            let cur =
                reduce_scatter_throughput_mb(&mut quad(), AllreduceAlgorithm::RingCurrent, bytes);
            assert!(new > cur, "bytes {bytes}: new={new:.0} cur={cur:.0}");
        }
    }

    #[test]
    fn single_pass_beats_allreduce() {
        // Reduce-scatter is the cheaper half of the allreduce: one combining
        // pass instead of two, so it must finish sooner at equal size.
        let bytes = 1 << 20;
        let rs = run_reduce_scatter(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, bytes);
        let ar = crate::allreduce::run_allreduce(
            &mut quad(),
            AllreduceAlgorithm::ShaddrSpecialized,
            bytes,
        );
        assert!(rs < ar, "rs={rs} ar={ar}");
    }

    #[test]
    fn deterministic() {
        let a = reduce_scatter_throughput_mb(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 65536);
        let b = reduce_scatter_throughput_mb(&mut quad(), AllreduceAlgorithm::NodeAwareRsAg, 65536);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_and_tiny_complete() {
        for bytes in [0u64, 1, 8] {
            let t = run_reduce_scatter(&mut quad(), AllreduceAlgorithm::ShaddrSpecialized, bytes);
            assert!(t > SimTime::ZERO, "bytes {bytes}");
        }
    }
}
