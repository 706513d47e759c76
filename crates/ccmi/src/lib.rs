//! # bgp-ccmi — the collective framework
//!
//! Named for BG/P's Component Collective Messaging Interface, the framework
//! layer the paper's algorithms are registered in. It owns the *schedules*
//! and *executors*; the per-algorithm intra-node stages are supplied by
//! `bgp-mpi` as closures.
//!
//! * [`chunking`] — splitting a message across colors and into `Pwidth`
//!   pipeline chunks.
//! * [`torus`] — the event-driven executor for multi-color spanning-tree
//!   broadcast over the torus: every line broadcast of every phase of every
//!   color becomes reservations on link/DMA/memory servers, with per-chunk
//!   dependencies (a node forwards chunk *k* only after receiving chunk
//!   *k*), and a pluggable intra-node distribution stage invoked at every
//!   node per chunk.
//! * [`tree`] — the exact reduced executor for collective-network
//!   operations: because tree channels are per-node (replication happens in
//!   the switches) there is no cross-node contention, so simulating the
//!   root plus the deepest witness node with full per-chunk pipelines is
//!   exact for completion time.
//! * [`ring`] — the representative-node executor for the ring family
//!   (allreduce, reduce-scatter, reduce, allgather, alltoall): the bytes
//!   streaming through one node are split across the three torus-axis
//!   colors and into `Pwidth` chunks, and every chunk walks a
//!   caller-supplied chain of stages, each of which reports when it is
//!   done, when the color's next chunk may enter and when the next stage
//!   runs.
//! * [`barrier`] — the global-interrupt barrier cost.

pub mod barrier;
pub mod chunking;
pub mod ring;
pub mod torus;
pub mod tree;

pub use chunking::{
    chunk_sizes, chunk_spans, color_shares, color_spans, spans_cover_exactly, Span,
};
pub use ring::{run_ring_pipeline, Stage, StageOut};
pub use torus::{run_torus_bcast, BcastOutcome, IntraStage, TorusBcastSpec};
pub use tree::{run_tree_collective, TreeSpec, TreeStages};
