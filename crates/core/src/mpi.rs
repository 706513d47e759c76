//! The MPI-like front end and the paper's timing microbenchmark.

use bgp_dcmf::Machine;
use bgp_machine::geometry::NodeId;
use bgp_machine::{MachineConfig, OpMode};
use bgp_sim::{Breakdown, Probe, SimTime};

use crate::allgather::{run_allgather, AllgatherAlgorithm};
use crate::allreduce::{run_allreduce, AllreduceAlgorithm};
use crate::bcast_torus::{torus_direct_put, torus_fifo, torus_shaddr};
use crate::bcast_tree::{tree_dma_direct_put, tree_dma_fifo, tree_shaddr, tree_shmem, tree_smp};
use crate::datatype::Datatype;
use crate::select::BcastAlgorithm;
use crate::tune::SelectionPolicy;

/// An MPI "process set" over a simulated machine: the object the examples
/// and the bench harness talk to.
pub struct Mpi {
    machine: Machine,
    /// Elapsed time of the most recent collective (what the probe's spans
    /// are measured against).
    last_elapsed: SimTime,
    /// The algorithm-selection policy, resolved once at construction
    /// (tuning table when available, static thresholds otherwise).
    policy: SelectionPolicy,
}

impl Mpi {
    /// Boot the partition described by `cfg`. The selection policy is
    /// resolved here, once: `BGP_TUNE_TABLE` override, else the builtin
    /// `tuning/default.json`, else the static thresholds (see
    /// [`crate::tune`] for the fallback rules).
    pub fn new(cfg: MachineConfig) -> Self {
        Self::with_policy(cfg, SelectionPolicy::from_env())
    }

    /// Boot with an explicit selection policy (tests, the autotuner, and
    /// anything that must not consult the environment).
    pub fn with_policy(cfg: MachineConfig, policy: SelectionPolicy) -> Self {
        Mpi {
            machine: Machine::new(cfg),
            last_elapsed: SimTime::ZERO,
            policy,
        }
    }

    /// The active selection policy.
    pub fn policy(&self) -> &SelectionPolicy {
        &self.policy
    }

    /// The policy's load-time warning, if it had to fall back to the
    /// static thresholds (missing/corrupt/stale table).
    pub fn tune_warning(&self) -> Option<&str> {
        self.policy.warning()
    }

    /// Turn on span/counter recording for subsequent operations. Recording
    /// never changes simulated timing — it only observes it.
    pub fn enable_probe(&mut self) {
        self.machine.probe.enable();
    }

    /// Turn recording back off (the default).
    pub fn disable_probe(&mut self) {
        self.machine.probe.disable();
    }

    /// The recorded spans and counters of the most recent operation.
    pub fn probe(&self) -> &Probe {
        &self.machine.probe
    }

    /// Per-phase breakdown of the most recent operation. The exclusive
    /// times partition `[0, elapsed)` exactly (gaps are attributed to an
    /// `idle` phase), so they always sum to the end-to-end time.
    pub fn breakdown(&self) -> Breakdown {
        self.machine.probe.breakdown(self.last_elapsed)
    }

    /// The most recent operation as a `chrome://tracing` JSON document.
    pub fn chrome_trace(&self) -> String {
        self.machine.probe.chrome_trace()
    }

    /// The most recent operation in collapsed-stack ("folded") format,
    /// ready for `inferno-flamegraph` / speedscope.
    pub fn collapsed(&self) -> String {
        self.machine.probe.collapsed()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.machine.cfg
    }

    /// Direct access to the simulated machine (diagnostics, utilization).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Total MPI ranks.
    pub fn size(&self) -> u32 {
        self.machine.cfg.rank_count()
    }

    /// `MPI_Bcast` of `bytes` from node-0/rank-0 with an explicit
    /// algorithm. Runs on a quiet machine (fresh servers) and returns the
    /// elapsed time until every rank holds the payload — exactly what one
    /// timed iteration of the paper's Figure 5 microbenchmark observes
    /// (the preceding `MPI_Barrier` quiesces the machine).
    pub fn bcast(&mut self, alg: BcastAlgorithm, bytes: u64) -> SimTime {
        self.bcast_from(alg, NodeId(0), bytes)
    }

    /// `MPI_Bcast` from an arbitrary root node.
    pub fn bcast_from(&mut self, alg: BcastAlgorithm, root: NodeId, bytes: u64) -> SimTime {
        if alg.requires_smp() {
            assert_eq!(
                self.machine.cfg.mode,
                OpMode::Smp,
                "{} requires SMP mode",
                alg.label()
            );
        }
        self.machine.reset();
        self.machine.probe.begin_op("bcast", alg.label());
        let m = &mut self.machine;
        let t = match alg {
            BcastAlgorithm::TorusDirectPut => torus_direct_put(m, root, bytes).completion,
            BcastAlgorithm::TorusFifo => torus_fifo(m, root, bytes).completion,
            BcastAlgorithm::TorusShaddr => torus_shaddr(m, root, bytes).completion,
            BcastAlgorithm::TreeSmp => tree_smp(m, root, bytes),
            BcastAlgorithm::TreeShmem => tree_shmem(m, root, bytes),
            BcastAlgorithm::TreeDmaFifo => tree_dma_fifo(m, root, bytes),
            BcastAlgorithm::TreeDmaDirectPut => tree_dma_direct_put(m, root, bytes),
            BcastAlgorithm::TreeShaddr { caching } => tree_shaddr(m, root, bytes, caching),
        };
        self.last_elapsed = t;
        t
    }

    /// `MPI_Bcast` with the production selection policy; returns the chosen
    /// algorithm and the elapsed time.
    ///
    /// When the probe is enabled, each auto-selected operation records one
    /// of two counters: `tune.table` (a tuning-table region answered) or
    /// `tune.fallback` (the static thresholds answered — either no table
    /// survived loading or the table has no entry for this mode).
    pub fn bcast_auto(&mut self, bytes: u64) -> (BcastAlgorithm, SimTime) {
        let (alg, tuned) = self.policy.select_info(&self.machine.cfg, bytes);
        let t = self.bcast(alg, bytes);
        self.count_selection(tuned);
        (alg, t)
    }

    /// Datatype-aware [`Self::bcast_auto`]: non-contiguous layouts are
    /// demoted off the counter paths (§IV-C) after the policy lookup, so a
    /// tuning table can move crossovers but never force a counter path onto
    /// typed data. Broadcasts the packed size.
    pub fn bcast_auto_typed(&mut self, bytes: u64, dtype: Datatype) -> (BcastAlgorithm, SimTime) {
        let (alg, tuned) = self.policy.select_info(&self.machine.cfg, bytes);
        let alg = dtype.demote(alg);
        let t = self.bcast(alg, dtype.packed_size(bytes));
        self.count_selection(tuned);
        (alg, t)
    }

    /// Record which policy answered the auto-selected operation that just
    /// ran: `tune.table` or `tune.fallback`.
    fn count_selection(&mut self, tuned: bool) {
        self.machine
            .probe
            .count(if tuned { "tune.table" } else { "tune.fallback" }, 1);
    }

    /// `MPI_Allreduce` (sum of doubles) with an explicit algorithm.
    pub fn allreduce(&mut self, alg: AllreduceAlgorithm, doubles: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("allreduce", alg.label());
        let t = run_allreduce(&mut self.machine, alg, doubles * 8);
        self.last_elapsed = t;
        t
    }

    /// `MPI_Allreduce` with the production selection policy; returns the
    /// chosen algorithm and the elapsed time. Same probe contract as
    /// [`Self::bcast_auto`]: `tune.table` when a tuning-table region
    /// answered, `tune.fallback` when the static thresholds did.
    pub fn allreduce_auto(&mut self, doubles: u64) -> (AllreduceAlgorithm, SimTime) {
        let (alg, tuned) = self.policy.select_info(&self.machine.cfg, doubles * 8);
        let t = self.allreduce(alg, doubles);
        self.count_selection(tuned);
        (alg, t)
    }

    /// `MPI_Reduce_scatter` of a vector of `doubles` doubles (every rank
    /// contributes the vector; every rank receives its slice of the sum).
    pub fn reduce_scatter(&mut self, alg: AllreduceAlgorithm, doubles: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("reduce_scatter", alg.label());
        let t = crate::reduce_scatter::run_reduce_scatter(&mut self.machine, alg, doubles * 8);
        self.last_elapsed = t;
        t
    }

    /// `MPI_Alltoall` with `block_bytes` per rank pair.
    pub fn alltoall(&mut self, alg: AllgatherAlgorithm, block_bytes: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("alltoall", alg.label());
        let t = crate::alltoall::run_alltoall(&mut self.machine, alg, block_bytes);
        self.last_elapsed = t;
        t
    }

    /// `MPI_Allgather` (the §VII future-work extension) with `block_bytes`
    /// contributed per rank.
    pub fn allgather(&mut self, alg: AllgatherAlgorithm, block_bytes: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("allgather", alg.label());
        let t = run_allgather(&mut self.machine, alg, block_bytes);
        self.last_elapsed = t;
        t
    }

    /// `MPI_Reduce` (sum of doubles, result at the root).
    pub fn reduce(&mut self, alg: AllreduceAlgorithm, doubles: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("reduce", alg.label());
        let t = crate::reduce::run_reduce(&mut self.machine, alg, doubles * 8);
        self.last_elapsed = t;
        t
    }

    /// `MPI_Gather` of `block_bytes` per rank into the root.
    pub fn gather(&mut self, alg: AllreduceAlgorithm, block_bytes: u64) -> SimTime {
        self.machine.reset();
        self.machine.probe.begin_op("gather", alg.label());
        let t = crate::reduce::run_gather(&mut self.machine, alg, block_bytes);
        self.last_elapsed = t;
        t
    }

    /// The Figure 5 microbenchmark: `ITERS` iterations of
    /// `MPI_Barrier; t = -wtime; MPI_Bcast; t += wtime`, averaged.
    ///
    /// The simulation is deterministic, so every iteration measures the
    /// same value; the loop is kept for fidelity (and to catch algorithms
    /// with cross-iteration state, which would be a bug).
    pub fn measure_bcast(&mut self, alg: BcastAlgorithm, bytes: u64, iters: u32) -> SimTime {
        assert!(iters >= 1);
        let mut total = SimTime::ZERO;
        let mut first = None;
        for _ in 0..iters {
            // The barrier quiesces the machine; its cost is outside the
            // timed region.
            let t = self.bcast_from(alg, NodeId(0), bytes);
            if let Some(f) = first {
                assert_eq!(t, f, "iteration-dependent timing: algorithm leaks state");
            }
            first = Some(t);
            total += t;
        }
        total / u64::from(iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_bcast_all_algorithms_run() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        for alg in [
            BcastAlgorithm::TorusDirectPut,
            BcastAlgorithm::TorusFifo,
            BcastAlgorithm::TorusShaddr,
            BcastAlgorithm::TreeShmem,
            BcastAlgorithm::TreeDmaFifo,
            BcastAlgorithm::TreeDmaDirectPut,
            BcastAlgorithm::TreeShaddr { caching: true },
        ] {
            let t = mpi.bcast(alg, 256 * 1024);
            assert!(t > SimTime::ZERO, "{}", alg.label());
        }
    }

    #[test]
    fn auto_selection_runs_and_picks_by_size() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        let (short_alg, _) = mpi.bcast_auto(1024);
        let (large_alg, _) = mpi.bcast_auto(4 << 20);
        assert_eq!(short_alg, BcastAlgorithm::TreeShmem);
        assert_eq!(large_alg, BcastAlgorithm::TorusShaddr);
    }

    #[test]
    fn measure_is_iteration_stable() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        let t = mpi.measure_bcast(BcastAlgorithm::TorusShaddr, 1 << 20, 5);
        assert!(t > SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "requires SMP mode")]
    fn smp_algorithm_rejected_in_quad() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        let _ = mpi.bcast(BcastAlgorithm::TreeSmp, 1024);
    }

    #[test]
    fn allreduce_runs_both_algorithms() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        let new = mpi.allreduce(AllreduceAlgorithm::ShaddrSpecialized, 16384);
        let cur = mpi.allreduce(AllreduceAlgorithm::RingCurrent, 16384);
        assert!(new < cur, "new={new} cur={cur}");
    }

    #[test]
    fn allreduce_auto_selects_by_size() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        let (small_alg, _) = mpi.allreduce_auto(128);
        let (large_alg, _) = mpi.allreduce_auto(512 * 1024);
        assert_eq!(small_alg, AllreduceAlgorithm::ShaddrSpecialized);
        assert_eq!(large_alg, AllreduceAlgorithm::NodeAwareRsAg);
    }

    #[test]
    fn reduce_scatter_and_alltoall_run() {
        let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
        for alg in [
            AllreduceAlgorithm::RingCurrent,
            AllreduceAlgorithm::ShaddrSpecialized,
            AllreduceAlgorithm::NodeAwareRsAg,
        ] {
            let t = mpi.reduce_scatter(alg, 16384);
            assert!(t > SimTime::ZERO, "{}", alg.label());
        }
        for alg in [
            AllgatherAlgorithm::RingCurrent,
            AllgatherAlgorithm::ShaddrSpecialized,
        ] {
            let t = mpi.alltoall(alg, 2048);
            assert!(t > SimTime::ZERO, "{}", alg.label());
        }
    }

    #[test]
    fn size_reports_ranks() {
        let mpi = Mpi::new(MachineConfig::two_racks_quad());
        assert_eq!(mpi.size(), 8192);
    }
}
