//! # bgp-mpi — the paper's MPI collectives, every algorithm and baseline
//!
//! The top of the stack: an MPI-like interface over the simulated machine
//! with one entry per algorithm the paper evaluates, plus the
//! message-size-based selection logic BG/P's MPI uses.
//!
//! ## Broadcast algorithms (paper §V-A, §V-B; Figures 6–10)
//!
//! | name | network | intra-node data path |
//! |---|---|---|
//! | `TorusDirectPut` | torus, 6 colors | DMA direct-puts 3 local copies (baseline) |
//! | `TorusFifo` | torus, 6 colors | Bcast FIFO: master core stages slots, peers drain |
//! | `TorusShaddr` | torus, 6 colors | message counters + direct copy from master's buffer |
//! | `TreeSmp` | collective network | none (1 rank/node; helper thread drives reception) |
//! | `TreeShmem` | collective network | staged shared-memory segment, master core does all tree work |
//! | `TreeDmaFifo` | collective network | DMA memory-FIFO distribution |
//! | `TreeDmaDirectPut` | collective network | DMA direct-put distribution |
//! | `TreeShaddr` | collective network | core specialization: rank 0 injects, rank 1 receives, ranks 2–3 copy (rank 2 back-fills rank 0) |
//!
//! ## Allreduce algorithms (paper §V-C; Table I)
//!
//! | name | description |
//! |---|---|
//! | `RingCurrent` | rank-level multicolor ring with DMA moving both inter- and intra-node data |
//! | `ShaddrSpecialized` | node-level ring driven by one protocol core; three cores own one color partition each for local reduce + local broadcast via mapped windows |
//! | `NodeAwareRsAg` | node-aware reduce-scatter + allgather inter-node phase over the shared-address intra-node stages (Bienz et al. / Zhou et al.) |
//!
//! All timings come out of the shared `bgp-sim` server model with one
//! calibration (DESIGN.md §5), so cross-algorithm comparisons are fair.

pub mod allgather;
pub mod allreduce;
pub mod alltoall;
pub mod bcast_torus;
pub mod bcast_tree;
pub mod datatype;
pub mod mpi;
pub mod reduce;
pub mod reduce_scatter;
mod ring_stages;
pub mod select;
pub mod tune;

pub use allgather::AllgatherAlgorithm;
pub use allreduce::AllreduceAlgorithm;
pub use datatype::{demote_noncontiguous, Datatype};
pub use mpi::Mpi;
pub use select::{select_bcast, BcastAlgorithm};
pub use tune::{SelectionPolicy, TuningTable};
