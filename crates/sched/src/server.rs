//! The op-scheduling/batching service layer: a [`CollectiveServer`] that
//! accepts collective submissions from ordinary (non-cluster) threads and
//! executes them on a dedicated cluster through the nonblocking [`Sched`]
//! engine.
//!
//! The server adds the service-level behaviors the paper's messaging
//! stack gets from its software layers but the raw engine does not provide:
//!
//! * **Per-tenant admission control** — every registered tenant
//!   ([`CollectiveServer::add_tenant`]) owns a submission queue bounded at
//!   [`TENANT_MAX_PENDING`]; `submit_*` blocks when the tenant's bound (or
//!   the server-wide [`MAX_PENDING`] backstop) is hit, `try_submit_bcast*`
//!   fails fast with [`SchedError::Backpressure`]. One flooding tenant
//!   fills *its own* queue; everybody else keeps submitting. Every
//!   submission takes one admission path: validation, tenant lookup, then —
//!   under the queue lock — either completion on the spot (zero bytes) or
//!   the enqueue.
//! * **Deficit-round-robin dispatch** — queued submissions are drained
//!   into batches by a byte-cost DRR scan over the tenant queues: each
//!   visit credits a tenant 64 KiB × weight of deficit and pops commands
//!   while the deficit covers their cost. Service is proportional to
//!   weight over time regardless of who floods, which is what keeps a
//!   well-behaved tenant's latency flat (the `svc_soak` isolation check).
//! * **Coalescing** — consecutive small broadcasts with the same group and
//!   root are fused, up to 8 at a time, into one payload and run as a
//!   *single* engine op; members slice their copies apart on completion.
//!   One tree traversal amortizes per-op overhead across every fused child,
//!   the same economics that make the paper's 64-byte collectives
//!   latency-bound.
//! * **A resident engine, led by its first rank** — the rank threads run
//!   one long-lived body for the server's whole life, each holding one
//!   [`Sched`]; the server has no thread of its own. Global rank 0 — node
//!   0's network core — is the *lead*: inside its loop it drains the queues
//!   into a *plan* whenever fewer than [`ServerConfig::pipeline`] plans
//!   have an unfinished ticket and sends the plan down every rank's
//!   channel, its own included, so every rank posts the same ops in the
//!   same order while earlier plans are still in flight — reception of
//!   batch *k+1* overlaps the copies of batch *k*, as the paper's network
//!   core keeps the protocol running while its peers copy. At the bound
//!   the lead keeps polling; it never blocks on a ticket. An idle rank
//!   spins for a moment, then parks: the lead on the queue, every other
//!   rank in its channel. Only a parked thread costs a wake-up: a
//!   submission wakes the lead only if it sleeps, a drain wakes only
//!   submitters blocked at the admission bound.
//!
//! The admission bounds, the DRR quantum and the coalescing limits are
//! constants; [`ServerConfig`] holds only the plan width
//! (`batch_max_ops`) and the pipeline depth (`pipeline`).
//!
//! Each fact is counted once. What submitters and the lead count under the
//! queue lock — submissions, refusals, queue peaks, plans, queue wait — is
//! a plain field of the tenant or the queue; a queue's depth is its length.
//! Only `completed` (credited by the rank thread that finishes an op) and
//! `coalesced` (credited by the lead) are written outside the lock, into
//! one atomic cell per tenant that each op's [`OpState`] carries. Server
//! totals are sums over the tenants.
//!
//! Completion is published through [`OpState`] — a slot-per-member result
//! board whose done flag is release-published by the last finisher and
//! acquire-read by [`BcastTicket::wait`] / [`AllreduceTicket::wait`]. A
//! waiter spins for a moment, then registers in the board's waiters word
//! and parks; the last finisher takes the park lock only if that word is
//! set. Both handshakes are protocols the bgp-check model tests verify
//! (and mutate, via the `sched_done_relaxed` and `wake_skipped` hooks).
//!
//! Payloads move instead of being copied, and results land in memory that
//! is already mapped. A broadcast's payload is adopted, as it was
//! submitted, as the root's buffer; every other member receives into a
//! region of its own. Once the engine has let go of a member's region, the
//! region moves into the member's slot — the root gets its submitted
//! vector back — and `wait` moves the slots out. Only a coalesced op copies:
//! each child's span of the fused payload, once per member. An allreduce
//! adopts each member's input vector as that member's input region, and
//! its output region moves into the slot the same way. The rank then keeps
//! the spent input as a spare, and its next allreduce zero-fills a spare
//! that fits as its output instead of allocating one, so the engine writes
//! into pages the rank has touched before, not into fresh ones.

use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use bgp_shmem::sync::atomic::{AtomicU64, Ordering};
use bgp_shmem::sync::cell::UnsafeCell;
use bgp_shmem::{model_support, spin, SharedRegion};
use bgp_smp::cluster::DEFAULT_CHUNK_BYTES;
use bgp_smp::{Cluster, ClusterCtx, PendingJob};

use crate::engine::{check_size, validate_group_shape};
use crate::{Request, Sched, SchedError};

/// Shared completion state of one submitted operation: one result slot per
/// group member (global member order, `node * group_len + index_in_group`),
/// a countdown of unfilled slots, and a done flag. A slot holds bytes (a
/// broadcast's, or a hand-filled board's) or an allreduce's `f64`s.
///
/// The publication protocol: each member fills its slot, then decrements
/// `pending` (AcqRel); whoever hits zero stores the done flag with Release.
/// A waiter's Acquire load of the flag therefore orders *every* slot write
/// before its reads — the RMW chain carries each member's release to the
/// final store. Weakening that store to Relaxed (the `sched_done_relaxed`
/// seeded bug) severs exactly that edge; the model checker catches it as a
/// data race on the slot cells.
///
/// Waiters that outlast [`WAIT_SPIN`] park, and only a parked waiter costs
/// the finisher a wake-up. A waiter registers in the `waiters` word under
/// the park lock, issues a SeqCst fence and only then re-checks the done
/// flag; the last filler stores the flag, issues a SeqCst fence and takes
/// the park lock to notify only if the word is non-zero. The fences make
/// one of the two see the other, so either the waiter sees done or the
/// finisher sees the waiter — and registration under the lock keeps the
/// notify from falling between the waiter's re-check and its sleep. Reading the word before the done store
/// (the `wake_skipped` seeded bug) loses the wake-up; the model checker
/// catches it as a deadlock.
pub struct OpState {
    status: AtomicU64,
    pending: AtomicU64,
    slots: Box<[UnsafeCell<Option<Payload>>]>,
    /// The owning tenant's cell, on server-submitted ops (`None` for
    /// hand-built boards). The last slot filler credits `completed`
    /// *before* the Release store of the done flag, so a waiter that
    /// observes [`Self::is_done`] also observes the count. Crediting
    /// anywhere later (e.g. when the lead retires the plan) lets
    /// `wait()` return while the stats still read stale.
    credit: Option<Arc<TenantCell>>,
    /// Waiters that have registered to be woken (see the type docs).
    waiters: AtomicU64,
    #[cfg(not(feature = "model"))]
    park: Mutex<()>,
    #[cfg(not(feature = "model"))]
    woken: Condvar,
    /// Under `model` a std lock is invisible to the checker's scheduler: a
    /// parked waiter spins on this word instead, which the finisher stores
    /// in place of the notify — so a notify that never comes is a model
    /// deadlock.
    #[cfg(feature = "model")]
    rung: AtomicU64,
}

/// How long a waiter on an [`OpState`] spins before it parks: long enough
/// for a small service op to finish without a sleep and a wake-up on its
/// path, short enough that waiting clients leave the cores to the ranks.
/// (Under `model` a waiter parks at once: a model run has no clock.)
const WAIT_SPIN: Duration = Duration::from_micros(if cfg!(feature = "model") { 0 } else { 200 });
/// How long an idle rank thread keeps polling for the next plan before it
/// parks — in its channel, or the lead on the queue.
const RANK_SPIN: Duration = Duration::from_micros(50);

impl OpState {
    /// A board of `n_slots` empty slots (already done when `n_slots == 0`).
    pub fn new(n_slots: usize) -> Self {
        Self::with_slots(n_slots, (0..n_slots).map(|_| None))
    }

    /// A board with `pending` slots still to fill (done when it is 0).
    fn with_slots(pending: usize, slots: impl Iterator<Item = Option<Payload>>) -> Self {
        OpState {
            status: AtomicU64::new(u64::from(pending == 0)),
            pending: AtomicU64::new(pending as u64),
            slots: slots.map(UnsafeCell::new).collect(),
            credit: None,
            waiters: AtomicU64::new(0),
            #[cfg(not(feature = "model"))]
            park: Mutex::new(()),
            #[cfg(not(feature = "model"))]
            woken: Condvar::new(),
            #[cfg(feature = "model")]
            rung: AtomicU64::new(0),
        }
    }

    /// [`Self::new`] plus the owning tenant's cell, credited exactly once
    /// when the last slot fills.
    fn credited(n_slots: usize, cell: Arc<TenantCell>) -> Self {
        let mut state = Self::new(n_slots);
        state.credit = Some(cell);
        state
    }

    /// Fill slot `i` with `bytes` (exactly once) and count down; the last
    /// filler publishes the done flag and wakes a parked waiter, if any.
    pub fn complete_slot(&self, i: usize, bytes: Vec<u8>) {
        self.fill(i, Payload::Bytes(bytes));
    }

    /// [`Self::complete_slot`] with any result: bytes, or an allreduce's
    /// `f64`s, moved in whole.
    fn fill(&self, i: usize, result: Payload) {
        // SAFETY: each slot has exactly one completer (the owning member),
        // and readers only touch slots after `is_done()` — ordered by the
        // release/acquire chain below.
        unsafe {
            self.slots[i].with_mut(|p| {
                debug_assert!((*p).is_none(), "slot {i} completed twice");
                *p = Some(result);
            });
        }
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Credit before the Release store: the store synchronizes with
            // the waiter's Acquire load in `is_done`, so a waiter that sees
            // done also sees this (relaxed) increment. This is what makes
            // `ticket.wait(); stats().completed` read consistently even
            // while the lead has not yet retired the plan.
            if let Some(cell) = &self.credit {
                cell.completed.fetch_add(1, Ordering::Relaxed);
            }
            let early =
                model_support::seeded("wake_skipped").then(|| self.waiters.load(Ordering::Relaxed));
            self.status.store(
                1,
                model_support::relaxed_if("sched_done_relaxed", Ordering::Release),
            );
            fence(Ordering::SeqCst);
            if early.unwrap_or_else(|| self.waiters.load(Ordering::Relaxed)) != 0 {
                #[cfg(not(feature = "model"))]
                let _parked = self.park.lock().expect("park lock");
                #[cfg(not(feature = "model"))]
                self.woken.notify_all();
                #[cfg(feature = "model")]
                self.rung.store(1, Ordering::Release);
            }
        }
    }

    /// Has every slot been filled? (Acquire: a `true` answer licenses slot
    /// reads.)
    pub fn is_done(&self) -> bool {
        self.status.load(Ordering::Acquire) == 1
    }

    /// Block until [`Self::is_done`]: spin for [`WAIT_SPIN`], then register
    /// in the waiters word and park until the last slot filler wakes us.
    pub fn wait(&self) {
        let start = Instant::now();
        while !self.is_done() {
            if start.elapsed() >= WAIT_SPIN {
                #[cfg(not(feature = "model"))]
                let mut parked = self.park.lock().expect("park lock");
                self.waiters.fetch_add(1, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                while !self.is_done() {
                    #[cfg(not(feature = "model"))]
                    {
                        parked = self.woken.wait(parked).expect("park lock");
                    }
                    #[cfg(feature = "model")]
                    while self.rung.load(Ordering::Acquire) == 0 {
                        spin();
                    }
                }
                return;
            }
            spin();
        }
    }

    /// Move slot `i`'s bytes out. Panics unless [`Self::is_done`], and if
    /// the slot holds an allreduce's `f64`s.
    ///
    /// # Safety
    ///
    /// Nothing else reads or takes slot `i`, now or later: a ticket takes
    /// each slot once, as its `wait` consumes it.
    pub unsafe fn take(&self, i: usize) -> Vec<u8> {
        // SAFETY: forwarded to the caller.
        match unsafe { self.take_payload(i) } {
            Payload::Bytes(bytes) => bytes,
            Payload::F64s(_) => panic!("slot {i} holds an allreduce result"),
        }
    }

    /// Move slot `i`'s result out, bytes or `f64`s. Panics unless
    /// [`Self::is_done`].
    ///
    /// # Safety
    ///
    /// As for [`Self::take`].
    unsafe fn take_payload(&self, i: usize) -> Payload {
        assert!(self.is_done(), "take() before the operation completed");
        // SAFETY: done was acquire-loaded, ordering us after every slot
        // write; no writer exists after the done publication, and the
        // caller is the slot's one reader.
        unsafe { self.slots[i].with_mut(|p| (*p).take().expect("done implies every slot filled")) }
    }

    /// Wait, then move every slot out in member order.
    ///
    /// # Safety
    ///
    /// As for [`Self::take`], for every slot.
    unsafe fn take_all(&self) -> impl Iterator<Item = Payload> + '_ {
        self.wait();
        // SAFETY: forwarded to the caller.
        (0..self.slots.len()).map(|i| unsafe { self.take_payload(i) })
    }
}

/// One member's result in an [`OpState`] slot.
enum Payload {
    Bytes(Vec<u8>),
    F64s(Vec<f64>),
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

    /// Block until done — a short spin, then a park — and return every
    /// member's received payload, moved out of the ticket, in global member
    /// order (`node * group_len + index_in_group`).
    pub fn wait(self) -> Vec<Vec<u8>> {
        // SAFETY: this ticket is the slots' one reader, consumed here.
        unsafe { self.state.take_all() }
            .map(|result| match result {
                Payload::Bytes(bytes) => bytes,
                Payload::F64s(_) => unreachable!("a broadcast fills its slots with bytes"),
            })
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

    /// Block until done (as [`BcastTicket::wait`]); returns every member's
    /// result vector in global member order. All vectors are equal (the
    /// reduced sums) — returned per member so tests can assert exactly that.
    /// Each is the member's output region itself, moved out, not a copy.
    pub fn wait(self) -> Vec<Vec<f64>> {
        // SAFETY: this ticket is the slots' one reader, consumed here.
        unsafe { self.state.take_all() }
            .map(|result| match result {
                Payload::F64s(values) => values,
                Payload::Bytes(_) => unreachable!("an allreduce fills its slots with f64s"),
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

/// Per-tenant admission bound: one tenant's queued (undispatched)
/// submissions beyond this block `submit_*` / fail `try_submit_bcast*`,
/// leaving other tenants unaffected.
pub const TENANT_MAX_PENDING: usize = 16;
/// Server-wide admission backstop: total queued submissions across *all*
/// tenants beyond this block / fail the same way.
pub const MAX_PENDING: usize = 64;

/// The service's two settings: how much the lead drains into one plan
/// and how many plans it keeps in flight. Their product bounds how many
/// foreign ops a latency-sensitive op can wait behind (`svc_soak` runs
/// 1 × 1); the default 16 × 2 favors throughput.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most submissions drained into one plan.
    pub batch_max_ops: usize,
    /// Plans with an unfinished ticket the lead keeps in flight at once; at
    /// the bound it drains nothing until one of them finishes.
    pub pipeline: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_max_ops: 16,
            pipeline: 2,
        }
    }
}

/// Point-in-time server counters (all monotonic), each the sum of the
/// tenants' counters or, for `batches` and `peak_queue_depth`, the queue's.
///
/// **Snapshot semantics:** [`CollectiveServer::stats`] reads under the
/// queue lock, so every field written under that lock (`submitted`,
/// `batches`, `rejected`, `peak_queue_depth`, `wait_ns`) belongs to one
/// consistent cut. `completed` and `coalesced` are relaxed reads of
/// counters the rank threads and the lead bump outside the lock:
/// each is exact, monotone and never ahead of `submitted`, but an op that
/// finishes while the snapshot is taken may or may not be in it. Consumers
/// that need the counts to agree (`completed == submitted`) must quiesce
/// the server first (e.g. wait on every outstanding ticket, as the tests
/// do).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Operations accepted (including immediately-completed zero-length ones).
    pub submitted: u64,
    /// Operations whose every member result is in (credited by the last
    /// slot filler, before the ticket can see it done).
    pub completed: u64,
    /// Plans (drained batches) handed to the rank threads.
    pub batches: u64,
    /// Submissions that ran fused with at least one sibling.
    pub coalesced: u64,
    /// `try_submit_bcast*` refusals (admission bound hit), summed over tenants.
    pub rejected: u64,
    /// Deepest the total (all-tenant) submission backlog has been.
    pub peak_queue_depth: u64,
    /// Total nanoseconds submissions spent queued before dispatch.
    pub wait_ns: u64,
    /// Always 0: the engine's stash keeps every chunk it parks (see
    /// `bgp_smp::SchedStash` for why no cap is safe). Kept only until the
    /// `benchmark/` package stops reading it.
    pub stash_evicted: u64,
}

/// Point-in-time counters of one tenant (same snapshot semantics as
/// [`ServerStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant's slot index ([`TenantId::index`]).
    pub tenant: usize,
    /// DRR weight the tenant was registered with.
    pub weight: u32,
    /// Operations accepted from this tenant.
    pub submitted: u64,
    /// This tenant's operations whose every member result is in.
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

/// The two counters of a tenant written outside the queue lock. Every op
/// the tenant submits carries the cell in its [`OpState`]: the rank thread
/// that finishes the op credits `completed`, the lead credits
/// `coalesced` when it fuses the op with a sibling.
#[derive(Default)]
struct TenantCell {
    completed: AtomicU64,
    coalesced: AtomicU64,
}

/// What a submission asks the cluster to do.
enum Op {
    Bcast {
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    },
    Allreduce {
        inputs: Vec<Vec<f64>>,
        count: usize,
    },
}

impl Op {
    /// Bytes the op moves to each member.
    fn bytes(&self) -> usize {
        match self {
            Op::Bcast { payload, .. } => payload.len(),
            Op::Allreduce { count, .. } => count * 8,
        }
    }

    /// One member's result of the op at zero length: no bytes for a
    /// broadcast, no `f64`s for an allreduce.
    fn empty_result(&self) -> Payload {
        match self {
            Op::Bcast { .. } => Payload::Bytes(Vec::new()),
            Op::Allreduce { .. } => Payload::F64s(Vec::new()),
        }
    }
}

/// An admitted submission, queued until the lead drains it.
struct Cmd {
    group: Arc<Vec<usize>>,
    op: Op,
    state: Arc<OpState>,
    queued_at: Instant,
}

/// Smallest DRR charge: even a 1-byte broadcast spends this much deficit,
/// so a tenant cannot get unbounded service out of tiny payloads.
const MIN_DRR_COST: u64 = 64;
/// Largest DRR charge: a multi-megabyte op is capped here so the deficit
/// accumulation loop stays short; beyond this size the per-op cost is
/// dominated by moving the bytes anyway.
const DRR_COST_CAP: u64 = 4 << 20;
/// DRR credit (bytes) granted per weight unit each time the lead's
/// round-robin scan visits a backlogged tenant.
const DRR_QUANTUM: u64 = 64 * 1024;
/// Only broadcast payloads at most this long are coalescing candidates.
const COALESCE_ELIGIBLE: usize = 4096;
/// A fused broadcast payload never exceeds this many bytes.
const COALESCE_MAX_BYTES: usize = 64 * 1024;
/// Most children fused into one broadcast.
const COALESCE_MAX_OPS: usize = 8;

/// One engine op of a plan. A broadcast carries its `len`-byte payload —
/// the fused one of a coalesced op — for the root member's rank to take as
/// its buffer, plus each child's `(state, offset, length)` slice. An
/// allreduce carries each member's input, for that member's rank to take.
enum PlanOp {
    Bcast {
        group: Arc<Vec<usize>>,
        root_node: usize,
        root_rank: usize,
        payload: TakeOnce<Vec<u8>>,
        len: usize,
        children: Vec<(Arc<OpState>, usize, usize)>,
    },
    Ar {
        group: Arc<Vec<usize>>,
        inputs: Box<[TakeOnce<Vec<f64>>]>,
        count: usize,
        state: Arc<OpState>,
    },
}

/// A value one thread of many takes out of a shared plan, without a lock:
/// the first [`Self::take`] gets it, every later one `None`.
struct TakeOnce<T> {
    taken: AtomicBool,
    value: std::cell::UnsafeCell<Option<T>>,
}

// SAFETY: `taken` is an atomic. `value` is moved out by at most one thread
// (the one whose swap of `taken` read `false`), was moved in before the
// cell was shared, and is dropped by whichever thread drops the cell last,
// hence `T: Send`.
unsafe impl<T: Send> Sync for TakeOnce<T> {}

impl<T> TakeOnce<T> {
    fn new(value: T) -> Self {
        TakeOnce {
            taken: AtomicBool::new(false),
            value: std::cell::UnsafeCell::new(Some(value)),
        }
    }

    fn take(&self) -> Option<T> {
        // Relaxed: the flag only elects the taker and publishes nothing.
        // The value is ordered before every taker by the channel send of
        // the plan, and the cell's drop after every taker by the plan's
        // `Arc`.
        if self.taken.swap(true, Ordering::Relaxed) {
            return None;
        }
        // SAFETY: the swap above let exactly one caller through, and no
        // other access touches the value while the cell is shared.
        unsafe { (*self.value.get()).take() }
    }
}

/// One tenant's slot in the queue table: its bounded command queue, DRR
/// scheduling state, and counters — plain fields for everything written
/// under the queue lock, the shared [`TenantCell`] for the rest.
#[derive(Default)]
struct Tenant {
    weight: u32,
    deficit: u64,
    cmds: VecDeque<Cmd>,
    submitted: u64,
    rejected: u64,
    peak_queue_depth: u64,
    wait_ns: u64,
    cell: Arc<TenantCell>,
}

impl Tenant {
    fn snapshot(&self, tenant: usize) -> TenantStats {
        TenantStats {
            tenant,
            weight: self.weight,
            submitted: self.submitted,
            completed: self.cell.completed.load(Ordering::Relaxed),
            coalesced: self.cell.coalesced.load(Ordering::Relaxed),
            rejected: self.rejected,
            queue_depth: self.cmds.len() as u64,
            peak_queue_depth: self.peak_queue_depth,
            wait_ns: self.wait_ns,
        }
    }
}

#[derive(Default)]
struct Queue {
    tenants: Vec<Tenant>,
    /// Total queued commands across tenants (the [`MAX_PENDING`] backstop).
    total: usize,
    /// Deepest `total` has been.
    peak_queue_depth: u64,
    /// Plans drained so far.
    batches: u64,
    /// Round-robin cursor of the DRR scan (persists across batches so
    /// service resumes where it left off).
    rr: usize,
    closed: bool,
    /// The lead sleeps on `not_empty`: the next admission wakes it.
    lead_parked: bool,
    /// Submitters asleep on `not_full`: a drain wakes them.
    blocked: usize,
}

#[derive(Default)]
struct ServerShared {
    queue: Mutex<Queue>,
    /// Set under the queue lock while the queue holds a command or is
    /// closed: the lead's check, without the lock, that a pass has
    /// something to drain.
    ready: AtomicBool,
    not_empty: Condvar,
    not_full: Condvar,
}

/// A collectives-as-a-service front-end over an owned cluster. See the
/// module docs for the admission / DRR / coalescing / batching behavior.
///
/// Submissions may come from any thread. Dropping the server stops
/// accepting work, lets the lead drain everything already queued, and
/// collects the rank threads' resident body.
pub struct CollectiveServer {
    shared: Arc<ServerShared>,
    /// The cluster and its one resident job, collected on drop (behind a
    /// lock only so the server is `Sync`; a `Cluster` is not).
    cluster: Mutex<Option<(Cluster, PendingJob<()>)>>,
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
        let shared = Arc::new(ServerShared::default());
        let cluster = Cluster::new(m, n);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..m * n).map(|_| mpsc::channel()).unzip();
        let mut lead = Some(Lead {
            shared: shared.clone(),
            cfg,
            txs,
            in_flight: Vec::new(),
        });
        let bodies: Vec<_> = rxs
            .into_iter()
            .map(|plans| Mutex::new(Some((plans, lead.take()))))
            .collect();
        let job = cluster.submit(move |cctx| {
            let body = bodies[cctx.global_rank()].lock().expect("body").take();
            let (plans, lead) = body.expect("one resident body per rank");
            resident(cctx, plans, lead)
        });
        let server = CollectiveServer {
            shared,
            cluster: Mutex::new(Some((cluster, job))),
            m,
            n,
            cfg,
        };
        server.add_tenant(1); // DEFAULT_TENANT
        server
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
            ..Tenant::default()
        });
        TenantId(q.tenants.len() - 1)
    }

    /// Snapshot the service counters: the tenants' sums, taken under the
    /// queue lock (see [`ServerStats`]).
    pub fn stats(&self) -> ServerStats {
        let q = self.shared.queue.lock().expect("queue lock");
        let mut s = ServerStats {
            batches: q.batches,
            peak_queue_depth: q.peak_queue_depth,
            ..ServerStats::default()
        };
        for t in q.tenants.iter().map(|t| t.snapshot(0)) {
            s.submitted += t.submitted;
            s.completed += t.completed;
            s.coalesced += t.coalesced;
            s.rejected += t.rejected;
            s.wait_ns += t.wait_ns;
        }
        s
    }

    /// Snapshot one tenant's counters, or [`SchedError::UnknownTenant`].
    pub fn tenant_stats(&self, tenant: TenantId) -> Result<TenantStats, SchedError> {
        let q = self.shared.queue.lock().expect("queue lock");
        let t = q.tenants.get(tenant.0).ok_or(SchedError::UnknownTenant)?;
        Ok(t.snapshot(tenant.0))
    }

    /// Snapshot every tenant's counters, in registration order.
    pub fn all_tenant_stats(&self) -> Vec<TenantStats> {
        let q = self.shared.queue.lock().expect("queue lock");
        q.tenants
            .iter()
            .enumerate()
            .map(|(i, t)| t.snapshot(i))
            .collect()
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
        let op = Op::Bcast {
            root_node,
            root_rank,
            payload,
        };
        let state = self.admit(tenant, group, op, block)?;
        Ok(BcastTicket { state })
    }

    /// Submit a sum-allreduce over `group` on every node, as
    /// [`DEFAULT_TENANT`]. `inputs` holds one vector per member in global
    /// member order (`node * group_len + index`), all the same length; each
    /// becomes its member's input region as it is, uncopied. Blocks at the
    /// admission bound; zero-length reductions complete immediately.
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
        let count = inputs.first().map_or(0, Vec::len);
        let state = self.admit(tenant, group, Op::Allreduce { inputs, count }, true)?;
        Ok(AllreduceTicket { state })
    }

    /// The one admission path. Validates the group (every submission: the
    /// check is O(group) and keeps direct callers safe), the op's root or
    /// inputs and its size; then, under the queue lock, looks the tenant
    /// up and either completes a zero-byte op on the spot or queues the op
    /// — waiting for room, or refusing with [`SchedError::Backpressure`]
    /// unless `block`. Either way the op counts as submitted.
    fn admit(
        &self,
        tenant: TenantId,
        group: &[usize],
        op: Op,
        block: bool,
    ) -> Result<Arc<OpState>, SchedError> {
        validate_group_shape(group, self.n)?;
        let members = self.m * group.len();
        let refusal = match &op {
            Op::Bcast { root_node, .. } if *root_node >= self.m => Some("root node out of range"),
            Op::Bcast { root_rank, .. } if group.binary_search(root_rank).is_err() => {
                Some("root rank not in group")
            }
            Op::Allreduce { inputs, .. } if inputs.len() != members => {
                Some("need one input vector per member")
            }
            Op::Allreduce { inputs, count } if inputs.iter().any(|v| v.len() != *count) => {
                Some("input vectors must all be the same length")
            }
            _ => None,
        };
        if let Some(why) = refusal {
            return Err(SchedError::BadGroup(why.into()));
        }
        check_size(op.bytes(), DEFAULT_CHUNK_BYTES)?;
        let mut q = self.shared.queue.lock().expect("queue lock");
        let t = tenant.0;
        let cell = q
            .tenants
            .get(t)
            .ok_or(SchedError::UnknownTenant)?
            .cell
            .clone();
        let state = if op.bytes() == 0 {
            cell.completed.fetch_add(1, Ordering::Relaxed);
            let empty = (0..members).map(|_| Some(op.empty_result()));
            Arc::new(OpState::with_slots(0, empty))
        } else {
            while q.closed
                || q.tenants[t].cmds.len() >= TENANT_MAX_PENDING
                || q.total >= MAX_PENDING
            {
                if q.closed {
                    return Err(SchedError::ShuttingDown);
                }
                if !block {
                    q.tenants[t].rejected += 1;
                    return Err(SchedError::Backpressure);
                }
                q.blocked += 1;
                q = self.shared.not_full.wait(q).expect("queue lock");
                q.blocked -= 1;
            }
            let state = Arc::new(OpState::credited(members, cell));
            q.tenants[t].cmds.push_back(Cmd {
                group: Arc::new(group.to_vec()),
                op,
                state: state.clone(),
                queued_at: Instant::now(),
            });
            q.total += 1;
            self.shared.ready.store(true, Ordering::Relaxed);
            q.peak_queue_depth = q.peak_queue_depth.max(q.total as u64);
            if q.lead_parked {
                q.lead_parked = false;
                self.shared.not_empty.notify_one();
            }
            state
        };
        let tq = &mut q.tenants[t];
        tq.submitted += 1;
        tq.peak_queue_depth = tq.peak_queue_depth.max(tq.cmds.len() as u64);
        Ok(state)
    }
}

impl Drop for CollectiveServer {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().expect("queue lock");
            q.closed = true;
            self.shared.ready.store(true, Ordering::Relaxed);
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        if let Some((cluster, job)) = self.cluster.get_mut().ok().and_then(Option::take) {
            cluster.finish(job);
        }
    }
}

/// Drain up to `max_ops` commands by deficit round robin: the scan visits
/// tenants in slot order from the persistent cursor, credits each
/// backlogged tenant [`DRR_QUANTUM`] × weight bytes, and pops commands
/// while the deficit covers their byte cost (clamped to
/// [`MIN_DRR_COST`]..=[`DRR_COST_CAP`]). A tenant that empties its queue
/// forfeits its remaining deficit (standard DRR — credit never accrues to
/// idle tenants). Charges each popped command's queue wait to its tenant
/// and counts the batch.
fn drain_drr(q: &mut Queue, max_ops: usize) -> Vec<Cmd> {
    let (now, max_ops) = (Instant::now(), max_ops.max(1));
    let mut cmds = Vec::new();
    let nt = q.tenants.len();
    while cmds.len() < max_ops && q.total > 0 {
        let t = &mut q.tenants[q.rr % nt];
        q.rr = q.rr.wrapping_add(1);
        if t.cmds.is_empty() {
            continue;
        }
        t.deficit = t.deficit.saturating_add(DRR_QUANTUM * u64::from(t.weight));
        while cmds.len() < max_ops {
            let Some(front) = t.cmds.front() else { break };
            let cost = (front.op.bytes() as u64).clamp(MIN_DRR_COST, DRR_COST_CAP);
            if cost > t.deficit {
                break;
            }
            t.deficit -= cost;
            let cmd = t.cmds.pop_front().expect("front exists");
            t.wait_ns += now.saturating_duration_since(cmd.queued_at).as_nanos() as u64;
            cmds.push(cmd);
            q.total -= 1;
        }
        if t.cmds.is_empty() {
            t.deficit = 0;
        }
    }
    q.batches += 1;
    cmds
}

/// An in-progress fusion of consecutive same-(group, root) broadcasts.
struct FusedBcast {
    group: Arc<Vec<usize>>,
    root_node: usize,
    root_rank: usize,
    payload: Vec<u8>,
    children: Vec<(Arc<OpState>, usize, usize)>,
}

impl FusedBcast {
    /// The finished fusion as one plan op, crediting each child's tenant
    /// `coalesced` if it ran with a sibling.
    fn into_op(self) -> PlanOp {
        if self.children.len() > 1 {
            for cell in self.children.iter().filter_map(|c| c.0.credit.as_ref()) {
                cell.coalesced.fetch_add(1, Ordering::Relaxed);
            }
        }
        PlanOp::Bcast {
            group: self.group,
            root_node: self.root_node,
            root_rank: self.root_rank,
            len: self.payload.len(),
            payload: TakeOnce::new(self.payload),
            children: self.children,
        }
    }
}

/// Turn a drained batch into engine ops. Every broadcast opens or joins a
/// fusion: it joins the open one if it is small, has the same group and
/// root, and fits the fusion's op and byte bounds; a broadcast too large
/// to coalesce runs as a one-child fusion.
fn build_plan(batch: Vec<Cmd>) -> Vec<PlanOp> {
    let mut plan: Vec<PlanOp> = Vec::new();
    let mut open: Option<FusedBcast> = None;
    for Cmd {
        group, op, state, ..
    } in batch
    {
        match op {
            Op::Bcast {
                root_node,
                root_rank,
                payload,
            } => {
                let len = payload.len();
                let eligible = len <= COALESCE_ELIGIBLE;
                if let Some(f) = open.as_mut().filter(|f| {
                    eligible
                        && *f.group == *group
                        && (f.root_node, f.root_rank) == (root_node, root_rank)
                        && f.children.len() < COALESCE_MAX_OPS
                        && f.payload.len() + len <= COALESCE_MAX_BYTES
                }) {
                    f.children.push((state, f.payload.len(), len));
                    f.payload.extend_from_slice(&payload);
                    continue;
                }
                plan.extend(open.take().map(FusedBcast::into_op));
                let f = FusedBcast {
                    group,
                    root_node,
                    root_rank,
                    payload,
                    children: vec![(state, 0, len)],
                };
                if eligible {
                    open = Some(f);
                } else {
                    plan.push(f.into_op());
                }
            }
            Op::Allreduce { inputs, count } => {
                plan.extend(open.take().map(FusedBcast::into_op));
                plan.push(PlanOp::Ar {
                    group,
                    inputs: inputs.into_iter().map(TakeOnce::new).collect(),
                    count,
                    state,
                });
            }
        }
    }
    plan.extend(open.map(FusedBcast::into_op));
    plan
}

/// One posted engine op of a plan, until its member results are published.
struct Posted {
    req: Request,
    plan: Arc<Vec<PlanOp>>,
    op: usize,
    /// This rank's global member slot and the region its result lands in
    /// (`None` for non-members, and once published).
    member: Option<(usize, Arc<SharedRegion>)>,
    /// An allreduce member's input region, kept as a spare once published.
    input: Option<Arc<SharedRegion>>,
}

impl Posted {
    /// Fill this rank's slot of every ticket the completed op carries;
    /// `false` while it cannot yet. A coalesced broadcast copies each
    /// child's span out of the result region. Every other op moves the
    /// region itself into its slot — a broadcast's bytes, an allreduce's
    /// vector — once nothing else holds the region, and an allreduce
    /// member's spent input goes to `spares` (its member cleared the op's
    /// input window before reporting). A landing member's region is let go
    /// of by its node's engine when the op retires — it drops its own
    /// mapping and clears the op's landing window — and by each co-member
    /// that chased out of it when that member's record finishes; until then
    /// this rank keeps polling (an engine rank retires everything before it
    /// parks).
    fn publish(&mut self, spares: &mut Spares) -> bool {
        let Some((slot, buf)) = self.member.take() else {
            return true;
        };
        let op = &self.plan[self.op];
        if let PlanOp::Bcast { children, .. } = op {
            if children.len() > 1 {
                for (state, off, len) in children {
                    // SAFETY: the request is complete, so the region holds
                    // the op's final contents and nothing writes it anymore.
                    let span = unsafe { buf.with_bytes(*off, *len, <[u8]>::to_vec) };
                    state.complete_slot(slot, span);
                }
                return true;
            }
        }
        let region = match Arc::try_unwrap(buf) {
            Ok(region) => region,
            Err(buf) => {
                self.member = Some((slot, buf));
                return false;
            }
        };
        match op {
            PlanOp::Bcast { children, .. } => {
                let bytes = region.into_bytes().ok().expect("born from a Vec<u8>");
                children[0].0.complete_slot(slot, bytes);
            }
            PlanOp::Ar { state, .. } => {
                spares.keep(self.input.take().expect("a member has an input"));
                let values = region.into_f64s().ok().expect("born from a Vec<f64>");
                state.fill(slot, Payload::F64s(values));
            }
        }
        true
    }
}

/// The spent allreduce inputs of one rank, reused as its later outputs.
/// One push per publish and one pop per post keep the list within the
/// rank's peak number of allreduces in flight, so it needs no cap; it
/// lives as long as the rank's loop, parked spells included.
#[derive(Default)]
struct Spares(Vec<Vec<f64>>);

impl Spares {
    /// An output of `count` zeros: the last spare, zero-filled to `count`,
    /// if its capacity is `count..=2 * count`; otherwise a fresh vector, and
    /// a spare that does not fit is dropped. A zero-filled spare reads as a
    /// fresh vector does, so no input's bytes reach another op's result.
    fn output(&mut self, count: usize) -> Vec<f64> {
        match self.0.pop() {
            Some(mut v) if (count..=2 * count).contains(&v.capacity()) => {
                v.clear();
                v.resize(count, 0.0);
                v
            }
            _ => vec![0.0; count],
        }
    }

    /// Keep a published op's input vector, unless something still holds
    /// its region: then the last holder frees it.
    fn keep(&mut self, input: Arc<SharedRegion>) {
        if let Some(v) = Arc::try_unwrap(input).ok().and_then(|r| r.into_f64s().ok()) {
            self.0.push(v);
        }
    }
}

/// Post every op of `plan` on this rank, SPMD: each rank of each node posts
/// the same ops in the same order.
fn post_plan(
    sched: &mut Sched,
    at: (usize, usize),
    plan: &Arc<Vec<PlanOp>>,
    posted: &mut Vec<Posted>,
    spares: &mut Spares,
) {
    let (node, rank) = at;
    for (op, p) in plan.iter().enumerate() {
        let (req, member, input) = match p {
            PlanOp::Bcast {
                group,
                root_node,
                root_rank,
                payload,
                len,
                ..
            } => {
                // The root's payload, as submitted, is its buffer; every
                // other member receives into a region its ticket will
                // return.
                let member = group.binary_search(&rank).ok().map(|i| {
                    let buf = if at == (*root_node, *root_rank) {
                        let payload = payload.take().expect("the root's rank takes the payload");
                        SharedRegion::from_vec(payload)
                    } else {
                        SharedRegion::new(*len)
                    };
                    (node * group.len() + i, Arc::new(buf))
                });
                let buf = member.as_ref().map(|(_, b)| b);
                let req = sched.ibcast(group, *root_node, *root_rank, buf, *len);
                (req, member, None)
            }
            PlanOp::Ar {
                group,
                inputs,
                count,
                ..
            } => {
                // The member's input, as submitted, is its input region;
                // its output is the zeroed vector its ticket will return,
                // a spent input where one fits.
                let bufs = group.binary_search(&rank).ok().map(|i| {
                    let slot = node * group.len() + i;
                    let input = inputs[slot]
                        .take()
                        .expect("a member's rank takes its input");
                    let out = spares.output(*count);
                    (
                        slot,
                        Arc::new(SharedRegion::from_f64s(input)),
                        Arc::new(SharedRegion::from_f64s(out)),
                    )
                });
                let (inb, outb) = (bufs.as_ref().map(|b| &b.1), bufs.as_ref().map(|b| &b.2));
                let req = sched.iallreduce(group, inb, outb, *count);
                let (member, input) = bufs.map(|(slot, inb, out)| ((slot, out), inb)).unzip();
                (req, member, input)
            }
        };
        posted.push(Posted {
            req: req.expect("validated at submission"),
            plan: plan.clone(),
            op,
            member,
            input,
        });
        // Start each op's traffic before the next one is posted: a large
        // allreduce's post still zero-fills its output.
        sched.poll();
    }
}

/// What global rank 0 — the lead — needs to turn the tenant queues into
/// plans.
struct Lead {
    shared: Arc<ServerShared>,
    cfg: ServerConfig,
    /// One plan channel per rank, the lead's own included.
    txs: Vec<mpsc::Sender<Arc<Vec<PlanOp>>>>,
    /// The tickets of each plan in flight.
    in_flight: Vec<Vec<Arc<OpState>>>,
}

impl Lead {
    /// While fewer than `cfg.pipeline` plans have an unfinished ticket,
    /// drain a batch by DRR, coalesce it into a plan and send the plan to
    /// every rank, in the same order. With `park` set (nothing posted for
    /// [`RANK_SPIN`]) the engine is drained first and the lead sleeps on
    /// `not_empty` until a command or the close arrives. Returns `false`
    /// once the queue is closed and empty.
    fn feed(&mut self, sched: &mut Sched, park: bool) -> bool {
        let shared = &*self.shared;
        let in_flight = &mut self.in_flight;
        in_flight.retain(|states| !states.iter().all(|s| s.is_done()));
        let ready = park || shared.ready.load(Ordering::Relaxed);
        if !ready || in_flight.len() >= self.cfg.pipeline.max(1) {
            return true;
        }
        if park {
            sched.drain();
        }
        let mut q = shared.queue.lock().expect("queue lock");
        while park && q.total == 0 && !q.closed {
            q.lead_parked = true;
            q = shared.not_empty.wait(q).expect("queue lock");
        }
        q.lead_parked = false;
        if q.total == 0 {
            return !q.closed;
        }
        let cmds = drain_drr(&mut q, self.cfg.batch_max_ops);
        shared
            .ready
            .store(q.total > 0 || q.closed, Ordering::Relaxed);
        if q.blocked > 0 {
            shared.not_full.notify_all();
        }
        drop(q);
        in_flight.push(cmds.iter().map(|c| c.state.clone()).collect());
        let plan = Arc::new(build_plan(cmds));
        for tx in &self.txs {
            tx.send(plan.clone())
                .expect("rank thread exited prematurely");
        }
        true
    }
}

/// The resident body every rank runs for the server's whole life: one
/// [`Sched`], plans posted as they arrive — while earlier ones are still in
/// flight — and member results published the moment each op completes. The
/// lead (`lead` is `Some` on global rank 0 only) first feeds every rank's
/// channel, its own included. A rank with nothing posted polls for
/// [`RANK_SPIN`], then leaves its engine idle and parks — the lead on the
/// queue, every other rank in its channel. Returns once its channel is
/// closed and everything posted has completed; dropping the `Sched`
/// quiesces the engine.
fn resident(
    cctx: &mut ClusterCtx,
    plans: mpsc::Receiver<Arc<Vec<PlanOp>>>,
    mut lead: Option<Lead>,
) {
    let at = (cctx.node(), cctx.rank());
    let mut sched = Sched::new(cctx);
    let mut posted: Vec<Posted> = Vec::new();
    let mut spares = Spares::default();
    let mut idle_since = Instant::now();
    loop {
        let idle = posted.is_empty() && idle_since.elapsed() >= RANK_SPIN;
        if lead.as_mut().is_some_and(|l| !l.feed(&mut sched, idle)) {
            lead = None; // closes every plan channel
        }
        let plan = match plans.try_recv() {
            Ok(plan) => Some(plan),
            Err(TryRecvError::Disconnected) if posted.is_empty() => return,
            Err(TryRecvError::Empty) if idle && lead.is_none() => {
                sched.drain();
                plans.recv().ok()
            }
            Err(_) => None,
        };
        if let Some(plan) = plan {
            post_plan(&mut sched, at, &plan, &mut posted, &mut spares);
        }
        sched.poll();
        let busy = !posted.is_empty();
        posted.retain_mut(|p| !(sched.is_complete(p.req) && p.publish(&mut spares)));
        if busy && posted.is_empty() {
            idle_since = Instant::now();
        }
        spin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spent input of `cap` doubles, all 7.5.
    fn spent(cap: usize) -> Arc<SharedRegion> {
        let mut v = Vec::with_capacity(cap);
        v.resize(cap, 7.5);
        Arc::new(SharedRegion::from_f64s(v))
    }

    /// A spare serves as an output of `count` only if its capacity is
    /// `count..=2 * count`, and then reads as `count` zeros; one that does
    /// not fit is dropped for a fresh vector, and an input something still
    /// holds is not kept.
    #[test]
    fn a_spare_serves_zeroed_only_where_it_fits() {
        let mut spares = Spares::default();
        for (count, reused) in [
            (60, true),
            (50, true),
            (100, true),
            (49, false),
            (101, false),
        ] {
            spares.keep(spent(100));
            let out = spares.output(count);
            assert_eq!(out, vec![0.0; count], "count {count}");
            let cap = if reused { 100 } else { count };
            assert_eq!(out.capacity(), cap, "count {count}");
            assert!(spares.0.is_empty(), "count {count}");
        }
        let held = spent(8);
        spares.keep(held.clone());
        assert!(spares.0.is_empty(), "a held input is no spare");
        assert_eq!(spares.output(8).capacity(), 8);
    }

    /// Trains of `D` allreduces posted at once on each rank of a 2 x 1
    /// cluster, with counts that fit a spare and counts that do not: every
    /// result is the exact sum, and no rank ever keeps more than `D` spares.
    #[test]
    fn a_depth_d_train_leaves_at_most_d_spares() {
        const D: usize = 4;
        const COUNTS: [usize; D] = [1000, 700, 1000, 300];
        let group = Arc::new(vec![0]);
        let trains: Vec<_> = (0..3)
            .map(|train| {
                let cmds: Vec<Cmd> = (0..D)
                    .map(|j| Cmd {
                        group: group.clone(),
                        op: Op::Allreduce {
                            inputs: (0..2)
                                .map(|m| vec![(train * D + j + m) as f64; COUNTS[j]])
                                .collect(),
                            count: COUNTS[j],
                        },
                        state: Arc::new(OpState::new(2)),
                        queued_at: Instant::now(),
                    })
                    .collect();
                let states: Vec<_> = cmds.iter().map(|c| c.state.clone()).collect();
                (Arc::new(build_plan(cmds)), states)
            })
            .collect();
        let plans: Vec<_> = trains.iter().map(|(plan, _)| plan.clone()).collect();
        let most = Cluster::new(2, 1).run(move |c| {
            let at = (c.node(), c.rank());
            let mut sched = Sched::new(c);
            let (mut posted, mut spares, mut most) = (Vec::new(), Spares::default(), 0);
            for plan in &plans {
                post_plan(&mut sched, at, plan, &mut posted, &mut spares);
                while !posted.is_empty() {
                    sched.poll();
                    posted.retain_mut(|p| !(sched.is_complete(p.req) && p.publish(&mut spares)));
                    most = most.max(spares.0.len());
                }
            }
            most
        });
        for (rank, most) in most.iter().flatten().enumerate() {
            assert!((1..=D).contains(most), "rank {rank} kept {most} spares");
        }
        for (train, (_, states)) in trains.into_iter().enumerate() {
            for (j, state) in states.into_iter().enumerate() {
                let sum = (2 * (train * D + j) + 1) as f64;
                let got = AllreduceTicket { state }.wait();
                assert_eq!(got, vec![vec![sum; COUNTS[j]]; 2], "train {train} op {j}");
            }
        }
    }
}
