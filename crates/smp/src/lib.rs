//! # bgp-smp — a real four-rank SMP node, as threads
//!
//! The paper's intra-node techniques are ordinary cache-coherent algorithms,
//! so this crate runs them for real: a [`Cluster`] spawns one OS thread per
//! MPI rank (four per node in quad mode) and gives each a [`ClusterCtx`],
//! whose [`RankCtx`] (`ClusterCtx::intra`) is the rank's view of its node.
//! The intra-node collectives in [`collectives`] move actual bytes between
//! actual threads using the `bgp-shmem` primitives — the Bcast FIFO, message
//! counters, completion counters — and the node's window board
//! ([`runtime::WindowBoard`]) standing in for CNK process windows, charged to
//! the window registry's ledger. `Cluster::new(1, n)` is a single node of `n`
//! ranks.
//!
//! Scaling out, the same [`Cluster`] runs M such nodes at once — still all
//! real threads — connected by a [`transport`] fabric of paced byte-chunk
//! channels (tree + ring links, mirroring the simulator's topology), and
//! [`cluster`] implements the paper's two *integrated* protocols end to
//! end: the §V-A/V-B core-specialized broadcast and the §V-C multi-color
//! ring allreduce. The loops that put those protocols on the links are
//! written once, in [`wire`], generic over where the link slots live — so
//! the cross-process cluster in `proc` runs the very same code. Both
//! runtimes are persistent: rank threads park on job queues between
//! operations instead of being respawned per call. Every blocking
//! collective on a node follows one op protocol, described in [`runtime`].
//!
//! This is the half of the reproduction that needs no simulation. It backs:
//!
//! * correctness/stress testing of the §IV data structures under genuine
//!   concurrency;
//! * the `benchmark/` package, the one place a wall-clock number of these
//!   runtimes comes from (per-layer `smp.*` metrics), and the
//!   `intranode_real` bench of §IV-A's FIFO-vs-mutex ablation;
//! * the quickstart example.

pub mod barrier;
pub mod cluster;
pub mod collectives;
pub mod kernels;
pub mod runtime;
pub mod transport;
pub mod wire;

#[cfg(not(feature = "model"))]
pub mod proc;

pub use barrier::SenseBarrier;
pub use cluster::{Cluster, ClusterCtx, ClusterStats, PendingJob};
pub use runtime::{NodeShared, RankCtx, SchedStash};
