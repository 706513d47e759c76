//! # bgp-sched — nonblocking collectives and the per-node progress engine
//!
//! The blocking cluster collectives of `bgp-smp` own every link for the
//! duration of one call: rank 0 drives the whole network phase inside
//! `bcast`/`allreduce_f64` and nothing else can use the fabric meanwhile.
//! This crate lifts that restriction the way DCMF does on the real machine:
//! collectives become *posted operations* identified by a [`Request`]
//! handle, and a per-node **progress engine** (run by rank 0 of each node,
//! the network core of the paper's core-specialization scheme) multiplexes
//! every in-flight operation over the shared [`bgp_smp::transport`] fabric.
//! Chunks carry [`bgp_smp::transport::optag`] tags — op id, kind, sequence —
//! so a consumer can dispatch any arriving chunk to the right operation
//! without consuming it, and chunks of operations a slower node has not
//! posted yet are parked in a node-level stash until the post arrives.
//!
//! Three layers:
//!
//! * [`Sched`] — the rank-level API: [`Sched::ibcast`],
//!   [`Sched::iallreduce`], [`Sched::ireduce_scatter`] and
//!   [`Sched::iallgather`] return [`Request`]s; [`Sched::test`],
//!   [`Sched::wait`] and [`Sched::wait_all`] complete them. Completion has
//!   MPI semantics: *local* completion (the caller's buffers are reusable
//!   and, on the engine rank, the node owes the network nothing more for
//!   the op), not global arrival. Only in-flight operations are tracked.
//! * the progress engine (internal to [`Sched`], on rank 0) — advances the
//!   network side of every posted op a little per [`Sched::poll`]: steps
//!   [`bgp_smp::wire`] — the tree feeder for broadcast injection and
//!   forwarding, the ring protocols (the partial/full flow for the
//!   reductions, the allgather plan) against a per-op node accumulator —
//!   receives into per-op stages, and retires per-op
//!   counters and window exposures once an operation is globally drained on
//!   its node.
//! * [`CollectiveServer`] — a node-external, multi-tenant service
//!   front-end: per-tenant bounded submission queues drained by a
//!   deficit-round-robin dispatcher (register tenants with
//!   [`CollectiveServer::add_tenant`], weights scale each tenant's byte
//!   credit per scan), bounded-depth admission control per tenant and
//!   globally (blocking [`CollectiveServer::submit_bcast`] or failing
//!   [`CollectiveServer::try_submit_bcast`]), coalescing of small
//!   same-root broadcasts into one fused payload, batching of queued ops
//!   into pipelined cluster jobs, communicator subgroups, and per-tenant
//!   counters ([`CollectiveServer::tenant_stats`]). The `bgp-svc` crate
//!   wraps this in named sessions and communicator lifecycle.
//!
//! ## Posting discipline (SPMD)
//!
//! Posts are collective: every rank of every node must post the same
//! operations in the same order with symmetric arguments (the per-rank op
//! sequences in [`bgp_smp::NodeShared`] assign ids from post order).
//! Argument validation is therefore *pre-effect*: a rejected post consumes
//! no op id and leaves no trace, so an error is symmetric across ranks and
//! the SPMD streams stay aligned. Blocking cluster collectives must not be
//! issued while nonblocking operations are in flight — both would
//! interleave differently-tagged chunks on the same links.
//!
//! ## Overlap safety
//!
//! A buffer handed to a posted operation is busy until that operation's
//! request completes; posting another operation on the same region fails
//! with [`SchedError::BufferBusy`] (satellite of the PR: typed, testable,
//! and symmetric). Zero-length operations complete immediately at post.

mod engine;
mod server;

pub use engine::{
    validate_group_shape, Request, Sched, COUNTER_KEY_BUDGET, MAX_GROUP_RANKS,
    RESERVED_COUNTER_KEYS,
};
pub use server::{
    store_max, AllreduceTicket, BcastTicket, CollectiveServer, OpState, ServerConfig, ServerStats,
    TenantId, TenantStats, DEFAULT_TENANT,
};

/// Why a post or submission was refused. All checks happen before any side
/// effect, so a failed call is invisible to the SPMD op-id streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The buffer is already owned by in-flight operation `op`.
    BufferBusy {
        /// Op id of the operation still using the buffer.
        op: u64,
    },
    /// A group member must supply its buffer(s).
    BufferMissing,
    /// A non-member passed a buffer.
    UnexpectedBuffer,
    /// The supplied region is smaller than the operation needs.
    BufferTooShort {
        /// Bytes the operation needs.
        needed: usize,
        /// Bytes the region actually has.
        got: usize,
    },
    /// Allreduce input and output must be distinct regions.
    BufferAliased,
    /// An allreduce payload's byte length is not a whole number of f64
    /// lanes. Surfaced by [`AllreduceTicket::try_wait`] instead of the
    /// pre-fix behavior (`chunks_exact(8)` silently dropping the tail).
    MalformedPayload {
        /// The offending payload length in bytes.
        len: usize,
    },
    /// Malformed group or root. The message says what — including, for an
    /// oversized group, the actual [`MAX_GROUP_RANKS`] limit and where it
    /// comes from.
    BadGroup(String),
    /// The message needs more chunks than an op tag can sequence.
    TooLarge,
    /// `try_submit` found the tenant's queue (or the server's total
    /// admission backstop) at its bound.
    Backpressure,
    /// The submission named a [`TenantId`] the server never registered.
    UnknownTenant,
    /// The server is shutting down and accepts no new work.
    ShuttingDown,
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::BufferBusy { op } => {
                write!(f, "buffer is busy with in-flight operation {op}")
            }
            SchedError::BufferMissing => write!(f, "group member must supply a buffer"),
            SchedError::UnexpectedBuffer => write!(f, "non-member must not supply a buffer"),
            SchedError::BufferTooShort { needed, got } => {
                write!(f, "buffer too short: need {needed} bytes, region has {got}")
            }
            SchedError::BufferAliased => {
                write!(f, "allreduce input and output must be distinct regions")
            }
            SchedError::MalformedPayload { len } => {
                write!(
                    f,
                    "allreduce payload of {len} bytes is not a whole number of f64 values"
                )
            }
            SchedError::BadGroup(why) => write!(f, "bad group: {why}"),
            SchedError::TooLarge => write!(f, "message exceeds the op tag chunk-sequence range"),
            SchedError::Backpressure => write!(f, "server queue is at its admission bound"),
            SchedError::UnknownTenant => write!(f, "tenant was never registered with the server"),
            SchedError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SchedError {}
