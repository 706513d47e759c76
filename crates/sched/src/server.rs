//! The op-scheduling/batching service layer: a [`CollectiveServer`] that
//! accepts collective submissions from ordinary (non-cluster) threads and
//! executes them on a dedicated cluster through the nonblocking [`Sched`]
//! engine.
//!
//! The server adds the service-level behaviors the paper's messaging
//! stack gets from its software layers but the raw engine does not provide:
//!
//! * **Per-tenant admission control** — every registered tenant
//!   ([`CollectiveServer::add_tenant`]) owns a bounded submission queue
//!   ([`ServerConfig::tenant_max_pending`]); `submit_*` blocks when the
//!   tenant's bound (or the server-wide [`ServerConfig::max_pending`]
//!   backstop) is hit, `try_submit_bcast*` fails fast with
//!   [`SchedError::Backpressure`]. One flooding tenant fills *its own*
//!   queue; everybody else keeps submitting.
//! * **Deficit-round-robin dispatch** — queued submissions are drained
//!   into batches by a byte-cost DRR scan over the tenant queues: each
//!   visit credits a tenant [`ServerConfig::drr_quantum`] × weight bytes
//!   of deficit and pops commands while the deficit covers their cost.
//!   Service is proportional to weight over time regardless of who
//!   floods, which is what keeps a well-behaved tenant's latency flat
//!   (the `svc_soak` isolation check).
//! * **Coalescing** — consecutive small broadcasts with the same group and
//!   root are fused into one payload and run as a *single* engine op;
//!   members slice their copies apart on completion. One tree traversal
//!   amortizes per-op overhead across every fused child, the same economics
//!   that make the paper's 64-byte collectives latency-bound.
//! * **Batching + pipelining** — batches become cluster jobs, and up to
//!   [`ServerConfig::pipeline`] jobs overlap: while the rank threads run
//!   batch *k*, the dispatcher is already queueing batch *k+1* behind it.
//!
//! Completion is published through [`OpState`] — a slot-per-member result
//! board whose done flag is release-published by the last finisher and
//! acquire-read by [`BcastTicket::wait`] / [`AllreduceTicket::wait`]. That
//! handshake is the protocol the bgp-check model tests verify (and mutate,
//! via the `sched_done_relaxed` hook).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use bgp_shmem::sync::atomic::{AtomicU64, Ordering};
use bgp_shmem::sync::cell::UnsafeCell;
use bgp_shmem::{model_support, spin, SharedRegion};
use bgp_smp::cluster::DEFAULT_CHUNK_BYTES;
use bgp_smp::collectives::write_f64s;
use bgp_smp::{Cluster, ClusterCtx, PendingJob};

use crate::engine::validate_group_shape;
use crate::{Request, Sched, SchedError};

/// Monotonic-max update of `cell` via a compare-and-swap loop.
///
/// A plain read-then-store max (the `stats_peak_plain_store` seeded bug)
/// can lose the larger value when two updaters interleave: both read the
/// old value, the larger store lands first, and the smaller store then
/// overwrites it. The CAS loop re-reads on interference, so the cell is
/// monotone under any concurrency. Model-checked in `tests/model.rs`
/// (`store_max_keeps_the_largest_value` plus the mutation self-test that
/// proves the plain-store variant is caught).
pub fn store_max(cell: &AtomicU64, value: u64) {
    if model_support::seeded("stats_peak_plain_store") {
        // Seeded bug: racy two-step max.
        if value > cell.load(Ordering::Relaxed) {
            cell.store(value, Ordering::Relaxed);
        }
        return;
    }
    let mut cur = cell.load(Ordering::Relaxed);
    while value > cur {
        match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// Shared completion state of one submitted operation: one result slot per
/// group member (global member order, `node * group_len + index_in_group`),
/// a countdown of unfilled slots, and a done flag.
///
/// The publication protocol: each member fills its slot, then decrements
/// `pending` (AcqRel); whoever hits zero stores the done flag with Release.
/// A waiter's Acquire load of the flag therefore orders *every* slot write
/// before its reads — the RMW chain carries each member's release to the
/// final store. Weakening that store to Relaxed (the `sched_done_relaxed`
/// seeded bug) severs exactly that edge; the model checker catches it as a
/// data race on the slot cells.
pub struct OpState {
    status: AtomicU64,
    pending: AtomicU64,
    slots: Box<[UnsafeCell<Option<Vec<u8>>>]>,
    /// Completion credit attached to server-submitted ops (`None` for
    /// hand-built boards): bumped by the last slot filler *before* the
    /// Release store of the done flag, so a waiter that observes
    /// [`Self::is_done`] also observes the `completed` counters. Crediting
    /// anywhere later (e.g. when the dispatcher collects the cluster job)
    /// lets `wait()` return while the stats still read stale.
    credit: Option<OpCredit>,
}

/// The stat cells an [`OpState`] credits at its done transition: the
/// owning tenant's cell and the server-wide counters.
struct OpCredit {
    tenant: Arc<TenantStatsInner>,
    server: Arc<ServerShared>,
}

impl OpState {
    /// A board of `n_slots` empty slots (already done when `n_slots == 0`).
    pub fn new(n_slots: usize) -> Self {
        OpState {
            status: AtomicU64::new(u64::from(n_slots == 0)),
            pending: AtomicU64::new(n_slots as u64),
            slots: (0..n_slots).map(|_| UnsafeCell::new(None)).collect(),
            credit: None,
        }
    }

    /// [`Self::new`] plus a completion credit for the owning tenant,
    /// applied exactly once when the last slot fills.
    fn credited(n_slots: usize, tenant: Arc<TenantStatsInner>, server: Arc<ServerShared>) -> Self {
        let mut state = Self::new(n_slots);
        state.credit = Some(OpCredit { tenant, server });
        state
    }

    /// A board born complete with the given slot contents (zero-length
    /// operations finish at submission).
    fn completed(slots: Vec<Vec<u8>>) -> Self {
        OpState {
            status: AtomicU64::new(1),
            pending: AtomicU64::new(0),
            slots: slots
                .into_iter()
                .map(|s| UnsafeCell::new(Some(s)))
                .collect(),
            credit: None,
        }
    }

    /// Number of result slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Fill slot `i` (exactly once) and count down; the last filler
    /// publishes the done flag.
    pub fn complete_slot(&self, i: usize, bytes: Vec<u8>) {
        // SAFETY: each slot has exactly one completer (the owning member),
        // and readers only touch slots after `is_done()` — ordered by the
        // release/acquire chain below.
        unsafe {
            self.slots[i].with_mut(|p| {
                debug_assert!((*p).is_none(), "slot {i} completed twice");
                *p = Some(bytes);
            });
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Credit before the Release store: the store synchronizes with
            // the waiter's Acquire load in `is_done`, so a waiter that sees
            // done also sees these (relaxed) increments. This is what makes
            // `ticket.wait(); stats().completed` read consistently even
            // while the dispatcher has not yet collected the cluster job.
            if let Some(c) = &self.credit {
                c.tenant.completed.fetch_add(1, Ordering::Relaxed);
                c.server.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            self.status.store(
                1,
                model_support::relaxed_if("sched_done_relaxed", Ordering::Release),
            );
        }
    }

    /// Has every slot been filled? (Acquire: a `true` answer licenses slot
    /// reads.)
    pub fn is_done(&self) -> bool {
        self.status.load(Ordering::Acquire) == 1
    }

    /// Read slot `i`. Panics unless [`Self::is_done`].
    pub fn slot(&self, i: usize) -> Vec<u8> {
        assert!(self.is_done(), "slot() before the operation completed");
        // SAFETY: done was acquire-loaded, ordering us after every slot
        // write; no writer exists after the done publication.
        unsafe { self.slots[i].with(|p| (*p).clone().expect("done implies every slot filled")) }
    }
}

/// Completion handle of a submitted broadcast.
pub struct BcastTicket {
    state: Arc<OpState>,
}

impl std::fmt::Debug for BcastTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BcastTicket")
            .field("done", &self.state.is_done())
            .finish()
    }
}

impl BcastTicket {
    /// Has the broadcast delivered to every member?
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Spin until done; returns every member's received payload in global
    /// member order (`node * group_len + index_in_group`).
    pub fn wait(self) -> Vec<Vec<u8>> {
        while !self.state.is_done() {
            spin();
        }
        (0..self.state.n_slots())
            .map(|i| self.state.slot(i))
            .collect()
    }
}

/// Completion handle of a submitted allreduce.
pub struct AllreduceTicket {
    state: Arc<OpState>,
}

impl std::fmt::Debug for AllreduceTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllreduceTicket")
            .field("done", &self.state.is_done())
            .finish()
    }
}

impl AllreduceTicket {
    /// Has the reduction delivered to every member?
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// Spin until done; returns every member's result vector in global
    /// member order. All vectors are equal (the reduced sums) — returned
    /// per member so tests can assert exactly that.
    ///
    /// Panics (with the [`SchedError::MalformedPayload`] message) if a slot
    /// was completed with a byte length that is not a multiple of 8; use
    /// [`Self::try_wait`] to handle that as a typed error instead.
    pub fn wait(self) -> Vec<Vec<f64>> {
        self.try_wait().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Spin until done; like [`Self::wait`] but surfacing a malformed slot
    /// length as [`SchedError::MalformedPayload`] instead of panicking.
    ///
    /// Every internal completion path posts `count * 8`-byte payloads, so
    /// this only trips when an [`OpState`] was completed by hand with a
    /// byte length that is not a whole number of f64 lanes. The pre-fix
    /// decode used `chunks_exact(8)`, which silently *dropped* such a tail
    /// — a truncated result, not even a panic.
    pub fn try_wait(self) -> Result<Vec<Vec<f64>>, SchedError> {
        while !self.state.is_done() {
            spin();
        }
        (0..self.state.n_slots())
            .map(|i| {
                let bytes = self.state.slot(i);
                if !bytes.len().is_multiple_of(8) {
                    return Err(SchedError::MalformedPayload { len: bytes.len() });
                }
                Ok(bytes
                    .chunks_exact(8)
                    .map(|b| f64::from_ne_bytes(b.try_into().unwrap()))
                    .collect())
            })
            .collect()
    }
}

/// Handle of a tenant registered with [`CollectiveServer::add_tenant`].
/// Cheap, `Copy`, and only meaningful to the server that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(pub(crate) usize);

impl TenantId {
    /// The tenant's slot index in the server's tenant table (diagnostic;
    /// also the index into [`CollectiveServer::all_tenant_stats`]).
    pub fn index(&self) -> usize {
        self.0
    }

    /// Forge an arbitrary id — only for tests of unknown-tenant handling.
    #[doc(hidden)]
    pub fn from_raw_for_tests(i: usize) -> Self {
        TenantId(i)
    }
}

/// The tenant every server starts with; the tenant-less `submit_*`
/// convenience calls route here (weight 1).
pub const DEFAULT_TENANT: TenantId = TenantId(0);

/// Tuning knobs of the service layer.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Server-wide admission backstop: total queued (undispatched)
    /// submissions across *all* tenants beyond this block `submit_*` /
    /// fail `try_submit_bcast*`.
    pub max_pending: usize,
    /// Per-tenant admission bound: one tenant's queued submissions beyond
    /// this block / fail the same way, leaving other tenants unaffected.
    pub tenant_max_pending: usize,
    /// DRR credit (bytes) granted per weight unit each time the
    /// dispatcher's round-robin scan visits a backlogged tenant.
    pub drr_quantum: usize,
    /// Most children fused into one broadcast (1 disables coalescing).
    pub coalesce_max_ops: usize,
    /// Most submissions drained into one cluster job.
    pub batch_max_ops: usize,
    /// Cluster jobs the dispatcher keeps in flight at once.
    pub pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_pending: 64,
            tenant_max_pending: 16,
            drr_quantum: 64 * 1024,
            coalesce_max_ops: 8,
            batch_max_ops: 16,
            pipeline: 2,
        }
    }
}

/// Point-in-time server counters (all monotonic except the gauges named
/// below).
///
/// **Torn-snapshot semantics:** [`CollectiveServer::stats`] reads each
/// field with an independent relaxed load while the dispatcher and
/// submitters keep mutating them, so a snapshot is *per-field* accurate
/// but not a consistent cut: `completed` may momentarily exceed the
/// `submitted` read a few nanoseconds earlier, and sums across fields can
/// be off by in-flight increments. Every individual counter is still
/// exact and monotone (peaks via the CAS loop in [`store_max`]); consumers
/// that need cross-field invariants must quiesce the server first (e.g.
/// wait on every outstanding ticket, as the tests do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Operations accepted (including immediately-completed zero-length ones).
    pub submitted: u64,
    /// Operations whose cluster job has been fully collected.
    pub completed: u64,
    /// Cluster jobs dispatched.
    pub batches: u64,
    /// Submissions that ran fused with at least one sibling.
    pub coalesced: u64,
    /// `try_submit_bcast*` refusals (admission bound hit), summed over tenants.
    pub rejected: u64,
    /// Deepest the total (all-tenant) submission backlog has been.
    pub peak_queue_depth: u64,
    /// Total nanoseconds submissions spent queued before dispatch.
    pub wait_ns: u64,
    /// Engine chunks dropped by the bounded scheduler stash (summed over
    /// the cluster's nodes). Non-zero means some op flooded a node — a
    /// bogus op id or a protocol violation — and was contained; that op
    /// can no longer complete on the affected node.
    pub stash_evicted: u64,
}

/// Point-in-time counters of one tenant (same torn-snapshot semantics as
/// [`ServerStats`]: per-field accurate, not a consistent cut).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's slot index ([`TenantId::index`]).
    pub tenant: usize,
    /// DRR weight the tenant was registered with.
    pub weight: u32,
    /// Operations accepted from this tenant.
    pub submitted: u64,
    /// This tenant's operations whose cluster job has been collected.
    pub completed: u64,
    /// This tenant's submissions that ran fused with at least one sibling.
    pub coalesced: u64,
    /// `try_submit_bcast*` refusals charged to this tenant.
    pub rejected: u64,
    /// Currently queued (undispatched) submissions — a gauge, not a
    /// monotone counter.
    pub queue_depth: u64,
    /// Deepest this tenant's queue has been.
    pub peak_queue_depth: u64,
    /// Nanoseconds this tenant's submissions spent queued before dispatch.
    pub wait_ns: u64,
}

#[derive(Default)]
struct StatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    peak_queue_depth: AtomicU64,
    wait_ns: AtomicU64,
    stash_evicted: AtomicU64,
}

#[derive(Default)]
struct TenantStatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    queue_depth: AtomicU64,
    peak_queue_depth: AtomicU64,
    wait_ns: AtomicU64,
}

enum Cmd {
    Bcast {
        tenant: usize,
        group: Arc<Vec<usize>>,
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
        state: Arc<OpState>,
        queued_at: Instant,
    },
    Allreduce {
        tenant: usize,
        group: Arc<Vec<usize>>,
        inputs: Vec<Vec<f64>>,
        count: usize,
        state: Arc<OpState>,
        queued_at: Instant,
    },
}

impl Cmd {
    fn tenant(&self) -> usize {
        match self {
            Cmd::Bcast { tenant, .. } | Cmd::Allreduce { tenant, .. } => *tenant,
        }
    }
}

/// Smallest DRR charge: even a 1-byte broadcast spends this much deficit,
/// so a tenant cannot get unbounded service out of tiny payloads.
const MIN_DRR_COST: u64 = 64;
/// Largest DRR charge: a multi-megabyte op is capped here so the deficit
/// accumulation loop stays short; beyond this size the per-op cost is
/// dominated by the cluster job anyway.
const DRR_COST_CAP: u64 = 4 << 20;
/// Only broadcast payloads at most this long are coalescing candidates.
const COALESCE_ELIGIBLE: usize = 4096;
/// A fused broadcast payload never exceeds this many bytes.
const COALESCE_MAX_BYTES: usize = 64 * 1024;

/// DRR byte-cost of one queued command.
fn cmd_cost(cmd: &Cmd) -> u64 {
    let bytes = match cmd {
        Cmd::Bcast { payload, .. } => payload.len() as u64,
        Cmd::Allreduce { count, .. } => (count * 8) as u64,
    };
    bytes.clamp(MIN_DRR_COST, DRR_COST_CAP)
}

/// One engine op of a dispatched batch. A coalesced broadcast carries the
/// fused payload plus each child's `(state, offset, length)` slice.
enum PlanOp {
    Bcast {
        group: Arc<Vec<usize>>,
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
        children: Vec<(Arc<OpState>, usize, usize)>,
    },
    Ar {
        group: Arc<Vec<usize>>,
        inputs: Vec<Vec<f64>>,
        count: usize,
        state: Arc<OpState>,
    },
}

/// One tenant's slot in the queue table: its bounded command queue, DRR
/// scheduling state, and stats cell.
struct Tenant {
    weight: u32,
    deficit: u64,
    cmds: VecDeque<Cmd>,
    stats: Arc<TenantStatsInner>,
}

struct Queue {
    tenants: Vec<Tenant>,
    /// Total queued commands across tenants (the `max_pending` backstop).
    total: usize,
    /// Round-robin cursor of the DRR scan (persists across batches so
    /// service resumes where it left off).
    rr: usize,
    closed: bool,
}

struct ServerShared {
    queue: Mutex<Queue>,
    not_empty: Condvar,
    not_full: Condvar,
    stats: StatsInner,
}

/// A collectives-as-a-service front-end over an owned cluster. See the
/// module docs for the admission / DRR / coalescing / batching behavior.
///
/// Submissions may come from any thread. Dropping the server stops
/// accepting work, drains everything already queued, and joins the
/// dispatcher.
pub struct CollectiveServer {
    shared: Arc<ServerShared>,
    handle: Option<std::thread::JoinHandle<()>>,
    m: usize,
    n: usize,
    cfg: ServerConfig,
}

impl CollectiveServer {
    /// A server over a fresh `m`-node, `n`-ranks-per-node cluster with
    /// default tuning.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_config(m, n, ServerConfig::default())
    }

    /// A server with explicit tuning. Starts with one registered tenant
    /// ([`DEFAULT_TENANT`], weight 1); register more with
    /// [`Self::add_tenant`].
    pub fn with_config(m: usize, n: usize, cfg: ServerConfig) -> Self {
        assert!(m >= 1 && n >= 1, "cluster geometry must be at least 1x1");
        let shared = Arc::new(ServerShared {
            queue: Mutex::new(Queue {
                tenants: vec![Tenant {
                    weight: 1,
                    deficit: 0,
                    cmds: VecDeque::new(),
                    stats: Arc::new(TenantStatsInner::default()),
                }],
                total: 0,
                rr: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            stats: StatsInner::default(),
        });
        let shared2 = shared.clone();
        let handle = std::thread::Builder::new()
            .name("bgp-sched-dispatch".into())
            .spawn(move || dispatch(m, n, cfg, shared2))
            .expect("spawn dispatcher");
        CollectiveServer {
            shared,
            handle: Some(handle),
            m,
            n,
            cfg,
        }
    }

    /// Nodes in the server's cluster.
    pub fn n_nodes(&self) -> usize {
        self.m
    }

    /// Ranks per node in the server's cluster.
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// The server's tuning (as passed to [`Self::with_config`]).
    pub fn config(&self) -> ServerConfig {
        self.cfg
    }

    /// Register a tenant with its own bounded queue and DRR `weight`
    /// (clamped to at least 1). Tenants cannot be removed: a `TenantId`
    /// stays valid for the server's lifetime.
    pub fn add_tenant(&self, weight: u32) -> TenantId {
        let mut q = self.shared.queue.lock().expect("queue lock");
        q.tenants.push(Tenant {
            weight: weight.max(1),
            deficit: 0,
            cmds: VecDeque::new(),
            stats: Arc::new(TenantStatsInner::default()),
        });
        TenantId(q.tenants.len() - 1)
    }

    /// Snapshot the service counters (torn-snapshot semantics — see
    /// [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        ServerStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            coalesced: s.coalesced.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            peak_queue_depth: s.peak_queue_depth.load(Ordering::Relaxed),
            wait_ns: s.wait_ns.load(Ordering::Relaxed),
            stash_evicted: s.stash_evicted.load(Ordering::Relaxed),
        }
    }

    /// Snapshot one tenant's counters, or [`SchedError::UnknownTenant`].
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<TenantStats, SchedError> {
        let q = self.shared.queue.lock().expect("queue lock");
        let t = q.tenants.get(tenant.0).ok_or(SchedError::UnknownTenant)?;
        Ok(snapshot_tenant(tenant.0, t))
    }

    /// Snapshot every tenant's counters, in registration order.
    pub fn all_tenant_stats(&self) -> Vec<TenantStats> {
        let q = self.shared.queue.lock().expect("queue lock");
        q.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| snapshot_tenant(i, t))
            .collect()
    }

    fn check_group(&self, group: &[usize]) -> Result<(), SchedError> {
        validate_group_shape(group, self.n)
    }

    /// Look up a tenant's stats cell (validating the id).
    fn tenant_cell(&self, tenant: TenantId) -> Result<Arc<TenantStatsInner>, SchedError> {
        let q = self.shared.queue.lock().expect("queue lock");
        q.tenants
            .get(tenant.0)
            .map(|t| t.stats.clone())
            .ok_or(SchedError::UnknownTenant)
    }

    /// Submit a broadcast of `payload` from `(root_node, root_rank)` to
    /// every `group` member on every node, as [`DEFAULT_TENANT`], blocking
    /// while the queue is at its admission bound. Zero-length broadcasts
    /// complete immediately.
    pub fn submit_bcast(
        &self,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SchedError> {
        self.submit_bcast_inner(DEFAULT_TENANT, group, root_node, root_rank, payload, true)
    }

    /// Like [`Self::submit_bcast`] but failing with
    /// [`SchedError::Backpressure`] instead of blocking.
    pub fn try_submit_bcast(
        &self,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SchedError> {
        self.submit_bcast_inner(DEFAULT_TENANT, group, root_node, root_rank, payload, false)
    }

    /// [`Self::submit_bcast`] on behalf of a registered tenant.
    pub fn submit_bcast_as(
        &self,
        tenant: TenantId,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SchedError> {
        self.submit_bcast_inner(tenant, group, root_node, root_rank, payload, true)
    }

    /// [`Self::try_submit_bcast`] on behalf of a registered tenant.
    pub fn try_submit_bcast_as(
        &self,
        tenant: TenantId,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    ) -> Result<BcastTicket, SchedError> {
        self.submit_bcast_inner(tenant, group, root_node, root_rank, payload, false)
    }

    fn submit_bcast_inner(
        &self,
        tenant: TenantId,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
        block: bool,
    ) -> Result<BcastTicket, SchedError> {
        let cell = self.tenant_cell(tenant)?;
        self.check_group(group)?;
        if root_node >= self.m {
            return Err(SchedError::BadGroup("root node out of range".into()));
        }
        if group.binary_search(&root_rank).is_err() {
            return Err(SchedError::BadGroup("root rank not in group".into()));
        }
        if payload.len().div_ceil(DEFAULT_CHUNK_BYTES) >= 1 << 24 {
            return Err(SchedError::TooLarge);
        }
        let members = self.m * group.len();
        if payload.is_empty() {
            let state = Arc::new(OpState::completed(vec![Vec::new(); members]));
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            cell.submitted.fetch_add(1, Ordering::Relaxed);
            cell.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(BcastTicket { state });
        }
        let state = Arc::new(OpState::credited(members, cell, self.shared.clone()));
        self.enqueue(
            Cmd::Bcast {
                tenant: tenant.0,
                group: Arc::new(group.to_vec()),
                root_node,
                root_rank,
                payload,
                state: state.clone(),
                queued_at: Instant::now(),
            },
            block,
        )?;
        Ok(BcastTicket { state })
    }

    /// Submit a sum-allreduce over `group` on every node, as
    /// [`DEFAULT_TENANT`]. `inputs` holds one vector per member in global
    /// member order (`node * group_len + index`), all the same length.
    /// Blocks at the admission bound; zero-length reductions complete
    /// immediately.
    pub fn submit_allreduce(
        &self,
        group: &[usize],
        inputs: Vec<Vec<f64>>,
    ) -> Result<AllreduceTicket, SchedError> {
        self.submit_allreduce_as(DEFAULT_TENANT, group, inputs)
    }

    /// [`Self::submit_allreduce`] on behalf of a registered tenant.
    pub fn submit_allreduce_as(
        &self,
        tenant: TenantId,
        group: &[usize],
        inputs: Vec<Vec<f64>>,
    ) -> Result<AllreduceTicket, SchedError> {
        let cell = self.tenant_cell(tenant)?;
        self.check_group(group)?;
        let members = self.m * group.len();
        if inputs.len() != members {
            return Err(SchedError::BadGroup(
                "need one input vector per member".into(),
            ));
        }
        let count = inputs[0].len();
        if inputs.iter().any(|v| v.len() != count) {
            return Err(SchedError::BadGroup(
                "input vectors must all be the same length".into(),
            ));
        }
        if (count * 8).div_ceil(DEFAULT_CHUNK_BYTES) >= 1 << 24 {
            return Err(SchedError::TooLarge);
        }
        if count == 0 {
            let state = Arc::new(OpState::completed(vec![Vec::new(); members]));
            self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            cell.submitted.fetch_add(1, Ordering::Relaxed);
            cell.completed.fetch_add(1, Ordering::Relaxed);
            return Ok(AllreduceTicket { state });
        }
        let state = Arc::new(OpState::credited(members, cell, self.shared.clone()));
        self.enqueue(
            Cmd::Allreduce {
                tenant: tenant.0,
                group: Arc::new(group.to_vec()),
                inputs,
                count,
                state: state.clone(),
                queued_at: Instant::now(),
            },
            true,
        )?;
        Ok(AllreduceTicket { state })
    }

    fn enqueue(&self, cmd: Cmd, block: bool) -> Result<(), SchedError> {
        let t = cmd.tenant();
        let mut q = self.shared.queue.lock().expect("queue lock");
        loop {
            if q.closed {
                return Err(SchedError::ShuttingDown);
            }
            if q.tenants[t].cmds.len() < self.cfg.tenant_max_pending.max(1)
                && q.total < self.cfg.max_pending.max(1)
            {
                break;
            }
            if !block {
                q.tenants[t].stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SchedError::Backpressure);
            }
            q = self.shared.not_full.wait(q).expect("queue lock");
        }
        q.tenants[t].cmds.push_back(cmd);
        q.total += 1;
        let depth = q.tenants[t].cmds.len() as u64;
        let ts = &q.tenants[t].stats;
        ts.submitted.fetch_add(1, Ordering::Relaxed);
        ts.queue_depth.store(depth, Ordering::Relaxed);
        store_max(&ts.peak_queue_depth, depth);
        let total = q.total as u64;
        let s = &self.shared.stats;
        s.submitted.fetch_add(1, Ordering::Relaxed);
        store_max(&s.peak_queue_depth, total);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl Drop for CollectiveServer {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn snapshot_tenant(i: usize, t: &Tenant) -> TenantStats {
    TenantStats {
        tenant: i,
        weight: t.weight,
        submitted: t.stats.submitted.load(Ordering::Relaxed),
        completed: t.stats.completed.load(Ordering::Relaxed),
        coalesced: t.stats.coalesced.load(Ordering::Relaxed),
        rejected: t.stats.rejected.load(Ordering::Relaxed),
        queue_depth: t.stats.queue_depth.load(Ordering::Relaxed),
        peak_queue_depth: t.stats.peak_queue_depth.load(Ordering::Relaxed),
        wait_ns: t.stats.wait_ns.load(Ordering::Relaxed),
    }
}

/// One drained batch: the commands (DRR order) plus the stats cells for
/// `build_plan` accounting. Completion is *not* tracked here — each op's
/// [`OpState`] credits its tenant at the done transition, so the counters
/// are already right by the time a waiter returns.
struct Batch {
    cmds: Vec<Cmd>,
    /// Stats cells indexed by tenant id, for `build_plan` accounting.
    cells: Vec<Arc<TenantStatsInner>>,
}

/// Drain up to `batch_max_ops` commands by deficit round robin: the scan
/// visits tenants in slot order from the persistent cursor, credits each
/// backlogged tenant `drr_quantum * weight` bytes, and pops commands while
/// the deficit covers their byte cost. A tenant that empties its queue
/// forfeits its remaining deficit (standard DRR — credit never accrues to
/// idle tenants).
fn drain_drr(q: &mut Queue, cfg: &ServerConfig) -> Batch {
    let max_ops = cfg.batch_max_ops.max(1);
    let quantum = (cfg.drr_quantum.max(1)) as u64;
    let mut cmds = Vec::new();
    let nt = q.tenants.len();
    while cmds.len() < max_ops && q.total > 0 {
        let i = q.rr % nt;
        q.rr = q.rr.wrapping_add(1);
        let t = &mut q.tenants[i];
        if t.cmds.is_empty() {
            t.deficit = 0;
            continue;
        }
        t.deficit = t.deficit.saturating_add(quantum * u64::from(t.weight));
        while cmds.len() < max_ops {
            let Some(front) = t.cmds.front() else { break };
            let cost = cmd_cost(front);
            if cost > t.deficit {
                break;
            }
            t.deficit -= cost;
            cmds.push(t.cmds.pop_front().expect("front exists"));
            q.total -= 1;
        }
        if t.cmds.is_empty() {
            t.deficit = 0;
        }
        t.stats
            .queue_depth
            .store(t.cmds.len() as u64, Ordering::Relaxed);
    }
    let cells: Vec<Arc<TenantStatsInner>> = q.tenants.iter().map(|t| t.stats.clone()).collect();
    Batch { cmds, cells }
}

/// The dispatcher thread: owns the cluster, drains the tenant queues by
/// DRR into batches, coalesces, and keeps up to `cfg.pipeline` jobs in
/// flight.
fn dispatch(m: usize, n: usize, cfg: ServerConfig, shared: Arc<ServerShared>) {
    let cluster = Cluster::new(m, n);
    let mut in_flight: VecDeque<PendingJob<()>> = VecDeque::new();
    let stats = &shared.stats;
    loop {
        // Mirror the cluster's cumulative stash-eviction count into the
        // service counters so callers see containment events without
        // holding the cluster.
        stats
            .stash_evicted
            .store(cluster.stats().stash_evicted_chunks, Ordering::Relaxed);
        // Opportunistically collect finished jobs (submission order) to
        // free pipeline slots; completion stats were already credited by
        // each op's last slot filler.
        while let Some(job) = in_flight.pop_front() {
            if cluster.try_collect(&job).is_none() {
                in_flight.push_front(job);
                break;
            }
        }
        // Enforce the pipeline depth.
        while in_flight.len() >= cfg.pipeline.max(1) {
            cluster.collect(in_flight.pop_front().expect("nonempty"));
        }
        // Take a batch, or learn there is nothing left to do.
        let batch: Option<Batch> = {
            let mut q = shared.queue.lock().expect("queue lock");
            loop {
                if q.total > 0 {
                    let b = drain_drr(&mut q, &cfg);
                    shared.not_full.notify_all();
                    break Some(b);
                }
                if q.closed {
                    break None;
                }
                if !in_flight.is_empty() {
                    // Nothing queued but jobs running: go collect one
                    // (frees the pipeline slot) instead of sleeping.
                    break Some(Batch {
                        cmds: Vec::new(),
                        cells: Vec::new(),
                    });
                }
                q = shared.not_empty.wait(q).expect("queue lock");
            }
        };
        match batch {
            None => break,
            Some(b) if b.cmds.is_empty() => {
                cluster.collect(in_flight.pop_front().expect("nonempty"));
            }
            Some(b) => {
                let plan = Arc::new(build_plan(b.cmds, &cfg, stats, &b.cells));
                let job = cluster.submit(move |cctx| run_plan(cctx, &plan));
                in_flight.push_back(job);
                stats.batches.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for job in in_flight {
        cluster.collect(job);
    }
    stats
        .stash_evicted
        .store(cluster.stats().stash_evicted_chunks, Ordering::Relaxed);
}

/// An in-progress fusion of consecutive same-(group, root) broadcasts.
struct FusedBcast {
    group: Arc<Vec<usize>>,
    root_node: usize,
    root_rank: usize,
    payload: Vec<u8>,
    children: Vec<(Arc<OpState>, usize, usize)>,
    /// Tenant of each child, parallel to `children` (coalesced-stat
    /// attribution).
    child_tenants: Vec<usize>,
}

/// Turn a drained batch into engine ops, fusing coalescable broadcasts and
/// charging queue-wait time (globally and per tenant).
fn build_plan(
    batch: Vec<Cmd>,
    cfg: &ServerConfig,
    stats: &StatsInner,
    cells: &[Arc<TenantStatsInner>],
) -> Vec<PlanOp> {
    let now = Instant::now();
    let mut wait_ns = 0u64;
    let mut plan: Vec<PlanOp> = Vec::new();
    let mut open: Option<FusedBcast> = None;

    let flush = |open: &mut Option<FusedBcast>, plan: &mut Vec<PlanOp>| {
        if let Some(f) = open.take() {
            if f.children.len() > 1 {
                stats
                    .coalesced
                    .fetch_add(f.children.len() as u64, Ordering::Relaxed);
                for t in &f.child_tenants {
                    cells[*t].coalesced.fetch_add(1, Ordering::Relaxed);
                }
            }
            plan.push(PlanOp::Bcast {
                group: f.group,
                root_node: f.root_node,
                root_rank: f.root_rank,
                payload: f.payload,
                children: f.children,
            });
        }
    };

    for cmd in batch {
        match cmd {
            Cmd::Bcast {
                tenant,
                group,
                root_node,
                root_rank,
                payload,
                state,
                queued_at,
            } => {
                let waited = now.saturating_duration_since(queued_at).as_nanos() as u64;
                wait_ns += waited;
                cells[tenant].wait_ns.fetch_add(waited, Ordering::Relaxed);
                let eligible = cfg.coalesce_max_ops > 1 && payload.len() <= COALESCE_ELIGIBLE;
                if eligible {
                    if let Some(f) = open.as_mut() {
                        if *f.group == *group
                            && f.root_node == root_node
                            && f.root_rank == root_rank
                            && f.children.len() < cfg.coalesce_max_ops
                            && f.payload.len() + payload.len() <= COALESCE_MAX_BYTES
                        {
                            let off = f.payload.len();
                            f.payload.extend_from_slice(&payload);
                            f.children.push((state, off, payload.len()));
                            f.child_tenants.push(tenant);
                            continue;
                        }
                    }
                    flush(&mut open, &mut plan);
                    let len = payload.len();
                    open = Some(FusedBcast {
                        group,
                        root_node,
                        root_rank,
                        payload,
                        children: vec![(state, 0, len)],
                        child_tenants: vec![tenant],
                    });
                } else {
                    flush(&mut open, &mut plan);
                    let len = payload.len();
                    plan.push(PlanOp::Bcast {
                        group,
                        root_node,
                        root_rank,
                        payload,
                        children: vec![(state, 0, len)],
                    });
                }
            }
            Cmd::Allreduce {
                tenant,
                group,
                inputs,
                count,
                state,
                queued_at,
            } => {
                let waited = now.saturating_duration_since(queued_at).as_nanos() as u64;
                wait_ns += waited;
                cells[tenant].wait_ns.fetch_add(waited, Ordering::Relaxed);
                flush(&mut open, &mut plan);
                plan.push(PlanOp::Ar {
                    group,
                    inputs,
                    count,
                    state,
                });
            }
        }
    }
    flush(&mut open, &mut plan);
    stats.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
    plan
}

/// One posted engine op awaiting completion inside the cluster job.
struct Posted<'a> {
    req: Request,
    /// This rank's global member slot (`None` for non-members).
    slot: Option<usize>,
    /// The region completion reads from: the member's broadcast receive
    /// buffer, or its allreduce output.
    buf: Option<Arc<SharedRegion>>,
    len: usize,
    op: &'a PlanOp,
    published: bool,
}

/// The cluster-job body: post every plan op through a [`Sched`], then poll
/// until each completes, publishing member results into the op states as
/// they do. Runs identically (SPMD) on every rank of every node.
fn run_plan(cctx: &mut ClusterCtx, plan: &[PlanOp]) {
    let node = cctx.node();
    let rank = cctx.rank();
    let mut sched = Sched::new(cctx);
    let mut posted: Vec<Posted> = Vec::with_capacity(plan.len());
    for op in plan {
        match op {
            PlanOp::Bcast {
                group,
                root_node,
                root_rank,
                payload,
                ..
            } => {
                let member_idx = group.binary_search(&rank).ok();
                let buf = member_idx.map(|_| Arc::new(SharedRegion::new(payload.len())));
                if node == *root_node && rank == *root_rank {
                    let b = buf.as_ref().expect("root is a member");
                    // SAFETY: freshly allocated, not yet shared.
                    unsafe { b.write(0, payload) };
                }
                let req = sched
                    .ibcast(group, *root_node, *root_rank, buf.as_ref(), payload.len())
                    .expect("validated at submission");
                posted.push(Posted {
                    req,
                    slot: member_idx.map(|i| node * group.len() + i),
                    buf,
                    len: payload.len(),
                    op,
                    published: false,
                });
            }
            PlanOp::Ar {
                group,
                inputs,
                count,
                ..
            } => {
                let member_idx = group.binary_search(&rank).ok();
                let (inb, outb) = match member_idx {
                    Some(i) => {
                        let gi = node * group.len() + i;
                        let inb = Arc::new(SharedRegion::new(count * 8));
                        write_f64s(&inb, 0, &inputs[gi]);
                        (Some(inb), Some(Arc::new(SharedRegion::new(count * 8))))
                    }
                    None => (None, None),
                };
                let req = sched
                    .iallreduce(group, inb.as_ref(), outb.as_ref(), *count)
                    .expect("validated at submission");
                posted.push(Posted {
                    req,
                    slot: member_idx.map(|i| node * group.len() + i),
                    buf: outb,
                    len: count * 8,
                    op,
                    published: false,
                });
            }
        }
    }
    // Complete in any order, publishing each op's results the moment its
    // request finishes — earlier tickets unblock while later ops still run.
    let mut remaining = posted.len();
    while remaining > 0 {
        sched.poll();
        for p in posted.iter_mut() {
            if p.published || !sched.is_complete(p.req) {
                continue;
            }
            if let (Some(slot), Some(buf)) = (p.slot, p.buf.as_ref()) {
                let mut bytes = vec![0u8; p.len];
                // SAFETY: the request is complete, so the buffer holds the
                // operation's final contents and nothing writes it anymore.
                unsafe { buf.read(0, &mut bytes) };
                match p.op {
                    PlanOp::Bcast { children, .. } => {
                        for (state, off, clen) in children {
                            state.complete_slot(slot, bytes[*off..*off + *clen].to_vec());
                        }
                    }
                    PlanOp::Ar { state, .. } => {
                        // The submit path sized this to `count * 8` bytes;
                        // anything else would make `wait` decode garbage.
                        debug_assert_eq!(bytes.len() % 8, 0, "allreduce slot not whole f64 lanes");
                        state.complete_slot(slot, bytes);
                    }
                }
            }
            p.published = true;
            remaining -= 1;
        }
        if remaining > 0 {
            spin();
        }
    }
    // `sched` drops here: quiesces the engine so the next job starts clean.
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite regression: a slot whose byte length is not a multiple of
    /// 8 must surface [`SchedError::MalformedPayload`], not decode. The
    /// pre-fix `wait` ran `chunks_exact(8)` directly, silently dropping
    /// the 7-byte tail and returning a truncated (empty) lane vector.
    #[test]
    fn malformed_slot_length_is_a_typed_error() {
        let state = Arc::new(OpState::completed(vec![vec![0u8; 7]]));
        let ticket = AllreduceTicket { state };
        assert_eq!(
            ticket.try_wait(),
            Err(SchedError::MalformedPayload { len: 7 })
        );
    }

    /// The blocking `wait` surfaces the same condition as a panic carrying
    /// the typed error's message (pre-fix it returned a truncated result).
    #[test]
    #[should_panic(expected = "not a whole number of f64")]
    fn wait_panics_on_malformed_rather_than_truncating() {
        let state = Arc::new(OpState::completed(vec![[
            1.0f64.to_ne_bytes().to_vec(),
            vec![0u8; 3],
        ]
        .concat()]));
        let ticket = AllreduceTicket { state };
        let _ = ticket.wait();
    }

    /// Well-formed slots still decode lane-exactly through the checked path.
    #[test]
    fn well_formed_slots_decode_exactly() {
        let mut bytes = Vec::new();
        for v in [1.5f64, -2.0, 0.25] {
            bytes.extend_from_slice(&v.to_ne_bytes());
        }
        let state = Arc::new(OpState::completed(vec![bytes.clone(), bytes]));
        let ticket = AllreduceTicket { state };
        let got = ticket.try_wait().expect("3 lanes is well-formed");
        assert_eq!(got, vec![vec![1.5, -2.0, 0.25]; 2]);
    }
}
