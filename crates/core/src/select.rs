//! Broadcast algorithm identifiers.
//!
//! BG/P's MPI picks the collective-network path for short/medium broadcasts
//! (latency-dominated; the tree has the lowest latency and the ALU combines
//! in-network) and the torus multi-color path for large ones (six 425 MB/s
//! links out-run the single 850 MB/s tree channel). Paper §V: "depending on
//! the message size, either the Torus or the Collective network based
//! algorithms perform optimally."
//!
//! No crossover is frozen here: [`crate::Mpi::bcast_auto`] and
//! [`crate::Mpi::allreduce_auto`] pick through
//! [`crate::tune::SelectionPolicy`], which serves measured crossovers from
//! a checked-in tuning table.

/// Every broadcast algorithm the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgorithm {
    /// Torus multi-color broadcast, DMA Direct Put intra-node (baseline).
    TorusDirectPut,
    /// Torus multi-color broadcast, Bcast FIFO intra-node (proposed).
    TorusFifo,
    /// Torus multi-color broadcast, shared-address counters (proposed).
    TorusShaddr,
    /// Collective network, SMP mode with a helper thread (reference).
    TreeSmp,
    /// Collective network, staged shared-memory segment (proposed, latency).
    TreeShmem,
    /// Collective network, DMA memory-FIFO distribution (baseline).
    TreeDmaFifo,
    /// Collective network, DMA Direct Put distribution (baseline).
    TreeDmaDirectPut,
    /// Collective network, core specialization over shared address space
    /// (proposed, bandwidth). `caching` = reuse window mappings across
    /// operations (Figure 8).
    TreeShaddr {
        /// Window-mapping cache enabled.
        caching: bool,
    },
}

impl BcastAlgorithm {
    /// Short label used by the harness output.
    pub fn label(&self) -> &'static str {
        match self {
            BcastAlgorithm::TorusDirectPut => "Torus Direct Put",
            BcastAlgorithm::TorusFifo => "Torus+FIFO",
            BcastAlgorithm::TorusShaddr => "Torus+Shaddr",
            BcastAlgorithm::TreeSmp => "CollectiveNetwork (SMP)",
            BcastAlgorithm::TreeShmem => "CollectiveNetwork+Shmem",
            BcastAlgorithm::TreeDmaFifo => "CollectiveNetwork+DMA FIFO",
            BcastAlgorithm::TreeDmaDirectPut => "CollectiveNetwork+DMA Direct Put",
            BcastAlgorithm::TreeShaddr { caching: true } => "CollectiveNetwork+Shaddr+caching",
            BcastAlgorithm::TreeShaddr { caching: false } => "CollectiveNetwork+Shaddr+nocaching",
        }
    }

    /// Whether this algorithm requires SMP mode.
    pub fn requires_smp(&self) -> bool {
        matches!(self, BcastAlgorithm::TreeSmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::AllreduceAlgorithm;
    use crate::tune::SelectionPolicy;
    use bgp_machine::{MachineConfig, OpMode};

    #[test]
    fn allreduce_selection_crosses_to_node_aware() {
        let policy = SelectionPolicy::builtin();
        let cfg = MachineConfig::two_racks_quad();
        assert_eq!(
            policy.select_allreduce(&cfg, 4096),
            AllreduceAlgorithm::ShaddrSpecialized
        );
        assert_eq!(
            policy.select_allreduce(&cfg, 1 << 20),
            AllreduceAlgorithm::NodeAwareRsAg
        );
    }

    #[test]
    fn quad_selection_follows_the_paper() {
        let policy = SelectionPolicy::builtin();
        let cfg = MachineConfig::two_racks_quad();
        assert_eq!(policy.select_bcast(&cfg, 64), BcastAlgorithm::TreeShmem);
        assert_eq!(policy.select_bcast(&cfg, 4096), BcastAlgorithm::TreeShmem);
        assert_eq!(
            policy.select_bcast(&cfg, 64 * 1024),
            BcastAlgorithm::TreeShaddr { caching: true }
        );
        assert_eq!(
            policy.select_bcast(&cfg, 1 << 20),
            BcastAlgorithm::TorusShaddr
        );
    }

    #[test]
    fn smp_selection_uses_smp_paths() {
        let policy = SelectionPolicy::builtin();
        let cfg = MachineConfig::racks(2, OpMode::Smp);
        assert_eq!(policy.select_bcast(&cfg, 64), BcastAlgorithm::TreeSmp);
        assert_eq!(
            policy.select_bcast(&cfg, 4 << 20),
            BcastAlgorithm::TorusDirectPut
        );
    }

    #[test]
    fn labels_match_the_figures() {
        assert_eq!(
            BcastAlgorithm::TreeShaddr { caching: true }.label(),
            "CollectiveNetwork+Shaddr+caching"
        );
        assert_eq!(BcastAlgorithm::TorusShaddr.label(), "Torus+Shaddr");
    }
}
