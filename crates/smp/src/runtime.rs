//! One node's shared state and one rank's view of it.
//!
//! [`NodeShared`] is what the ranks of a node share — the barrier, the
//! window board and registry, the message and completion counters, one
//! node-wide Bcast FIFO, the nonblocking scheduler's counter bank and
//! stash (which keeps every early chunk it parks; [`SchedStash`] says why
//! no cap is safe).
//! [`RankCtx`] is one rank's handle on it: the intra-node collectives of
//! [`crate::collectives`] are its methods, and the cluster collectives reach
//! it through [`ClusterCtx::intra`](crate::ClusterCtx::intra). The rank
//! threads themselves come from [`Cluster`](crate::Cluster), the one
//! rank-thread runtime: `Cluster::new(1, n)` is one node of `n` ranks.
//!
//! ## The op protocol
//!
//! Every blocking collective on a node, `RankCtx`'s and `ClusterCtx`'s
//! alike, follows one protocol:
//!
//! * **Tags.** An op that exposes windows takes both of its window tags
//!   from one [`RankCtx::next_op`] call ([`window_tags`]: `2·op` and
//!   `2·op+1`). Op ids advance identically on every rank (SPMD) and no two
//!   ops share a tag, so a board slot still holding an earlier op's window
//!   never reads as a later op's.
//! * **Window lifetime.** A rank exposes only its own windows
//!   ([`RankCtx::expose`]): it posts each one's address in its slot `tag & 1`
//!   of the node's [`WindowBoard`] and holds the region until
//!   [`RankCtx::close_op`]'s barrier, when no peer can still be reading it.
//!   A peer maps the window (`RankCtx::map_cached`) once the slot reads
//!   the op's tag; the owner posts to that slot again only in a later op,
//!   after the barrier. No lock is taken and nothing is withdrawn: the
//!   [`WindowRegistry`]'s ledger still counts every expose and map made
//!   here, and its map serves no runtime.
//! * **Cumulative counters.** No counter is ever reset. The `RankCtx`
//!   collectives wait past rank-local bases, which `close_op` advances by
//!   the bytes each producer published in the op — the same amounts on
//!   every rank under SPMD, so no start barrier is needed. The cluster
//!   collectives, which have a start barrier, read their bases just before
//!   it.
//! * **Closing barrier.** Every op ends in `close_op`'s barrier, so no
//!   producer publishes the next op's bytes, or reuses a buffer, while a
//!   consumer still copies this op's.

use std::collections::VecDeque;
use std::sync::Arc;

use bgp_shmem::model_support;
use bgp_shmem::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use bgp_shmem::sync::Mutex;

use bgp_shmem::{
    BcastConsumer, BcastFifo, CachePadded, CompletionCounter, CounterBank, IdMap, IdSet,
    MessageCounter, SharedRegion, WindowRegistry,
};

use crate::barrier::{BarrierToken, SenseBarrier};
use crate::collectives::FifoMsg;

/// Parked chunks for one op, in arrival order: `(tag, bytes)`.
type OpQueue = VecDeque<(u64, Box<[u8]>)>;

/// Chunks that arrived for nonblocking ops this node cannot land yet — not
/// posted here, or posted but with the member buffer they land in not
/// exposed yet — keyed by op id: `(link tag, payload)` in arrival order. It
/// keeps every chunk it parks, because no cap is safe. Dropping a chunk
/// wedges its op; refusing to drain the link instead strands chunks of an
/// op this node can land behind chunks of one it cannot. And the memory is
/// bounded anyway: every parked chunk belongs to an op the peers posted
/// ahead of this node's members, who will post it too, with a buffer that
/// size. What keeps it small is the engine's pacing, not a cap: one visit
/// to a port parks at most one window of chunks, then the node's members
/// get a turn to post — and every chunk behind those still drains, on the
/// next pass.
#[derive(Default)]
pub struct SchedStash {
    queues: IdMap<u64, OpQueue>,
    parked: u64,
}

impl SchedStash {
    /// Park one chunk for `op`, copying `bytes`.
    pub fn park(&mut self, op: u64, tag: u64, bytes: &[u8]) {
        let q = self.queues.entry(op).or_default();
        q.push_back((tag, bytes.into()));
        self.parked += 1;
    }

    /// The link tag at the head of `op`'s queue, if any.
    pub fn front_tag(&self, op: u64) -> Option<u64> {
        self.queues.get(&op).and_then(|q| q.front()).map(|e| e.0)
    }

    /// Pop the head of `op`'s queue (removing the queue when it empties).
    pub fn pop_front(&mut self, op: u64) -> Option<(u64, Box<[u8]>)> {
        let q = self.queues.get_mut(&op)?;
        let e = q.pop_front();
        if q.is_empty() {
            self.queues.remove(&op);
        }
        e
    }

    /// Op ids with parked chunks, in no particular order.
    pub fn parked_ops(&self) -> impl Iterator<Item = u64> + '_ {
        self.queues.keys().copied()
    }

    /// Chunks parked over the stash's lifetime.
    pub fn parked(&self) -> u64 {
        self.parked
    }
}

/// Bcast FIFO geometry used by the runtime (paper-plausible defaults:
/// 4 KB slots, 64 of them).
pub const FIFO_SLOT_BYTES: usize = 4096;
/// Number of slots in the node-wide Bcast FIFO.
pub const FIFO_SLOTS: usize = 64;
/// Staging segment for the staged shared-memory broadcast: two halves of
/// 64 KB (double buffering).
pub const STAGING_HALF_BYTES: usize = 64 * 1024;

/// Per-node probe counters for the cluster protocols (relaxed, diagnostic).
#[derive(Default)]
pub struct ClusterNodeStats {
    /// Cluster broadcasts this node participated in as a non-root node.
    pub bcast_recv_ops: AtomicU64,
    /// Copy-out ranks that observed the reception counter *short of the
    /// full message* on their first copy — i.e. intra-node copy-out began
    /// while network chunks were still arriving. Non-zero values are the
    /// probe evidence that the integrated broadcast pipelines reception
    /// with copies (§V-B).
    pub copyout_overlapped: AtomicU64,
}

/// One window slot on the [`WindowBoard`]: the tag its rank last posted
/// here and the address of the region posted under it.
#[derive(Default)]
struct BoardSlot {
    tag: AtomicU64,
    region: AtomicUsize,
}

/// The blocking collectives' window rendezvous: each rank owns a pair of
/// slots on its own cache line and posts the address of every buffer it
/// exposes in slot `tag & 1`, so an op's two `window_tags` never share
/// one. A peer maps the window by waiting until the slot reads its tag —
/// one `Release` store per expose and one `Acquire` load per map, where the
/// [`WindowRegistry`]'s map takes a lock and a hash lookup each way. The
/// nonblocking engine keeps its windows in each op's counter block: they
/// outlive ops, and many are in flight per rank.
pub struct WindowBoard {
    slots: Vec<CachePadded<[BoardSlot; 2]>>,
}

impl WindowBoard {
    /// A board for `n` ranks, every slot empty.
    pub fn new(n: usize) -> Self {
        WindowBoard {
            slots: (0..n).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Owner side: post `region` as `rank`'s window under `tag`. The
    /// address is stored before the tag, and the tag with `Release`, so a
    /// peer that reads the tag reads this address and every write made to
    /// the region before the post.
    pub fn post(&self, rank: usize, tag: u64, region: &Arc<SharedRegion>) {
        let slot = &self.slots[rank][(tag & 1) as usize];
        slot.region
            .store(Arc::as_ptr(region) as usize, Ordering::Relaxed);
        // Seeded bug for the model checker: a relaxed tag no longer
        // publishes the owner's writes to the region it names.
        slot.tag.store(
            tag,
            model_support::relaxed_if("window_board_publish_relaxed", Ordering::Release),
        );
    }

    /// Peer side: wait until `owner` has posted under `tag`, then take a
    /// reference to the region it posted.
    ///
    /// # Safety
    ///
    /// `owner` posts under `tag` a region it keeps alive until this call
    /// has returned, and posts nothing else to that slot before then.
    pub unsafe fn map(&self, owner: usize, tag: u64) -> Arc<SharedRegion> {
        let slot = &self.slots[owner][(tag & 1) as usize];
        while slot.tag.load(Ordering::Acquire) != tag {
            bgp_shmem::spin();
        }
        let region = slot.region.load(Ordering::Relaxed) as *const SharedRegion;
        // SAFETY: the slot reads `tag`, so `region` is the `Arc::as_ptr` of
        // the region posted under it, which the owner still holds.
        unsafe {
            Arc::increment_strong_count(region);
            Arc::from_raw(region)
        }
    }
}

/// State shared by all ranks of the node.
pub struct NodeShared {
    n: usize,
    barrier: SenseBarrier,
    /// The blocking collectives' window board: each rank's two window
    /// slots, posted by `RankCtx::expose` and read by `RankCtx::map_cached`.
    board: WindowBoard,
    /// The window ledger of both the nonblocking engine and the board.
    registry: WindowRegistry,
    /// Per-rank message counter of the intra-node collectives: counter `r`
    /// is published by rank `r` when it acts as a producer (root /
    /// partition owner). Cumulative; every rank keeps its own base of each
    /// (`RankCtx::msg_base`).
    msg_counters: Vec<MessageCounter>,
    /// Ping-pong completion counters for the staged shmem broadcast.
    stage_done: [CompletionCounter; 2],
    /// The staged shared-memory segment (two halves).
    staging: Arc<SharedRegion>,
    /// The node-wide Bcast FIFO (all ranks are consumers; producers drain
    /// their own consumer — see `collectives::bcast_fifo`).
    fifo: Arc<BcastFifo<FifoMsg>>,
    /// Each rank claims its consumer handle at startup.
    consumer_slots: Vec<Mutex<Option<BcastConsumer<FifoMsg>>>>,
    /// Counters for the cluster protocols, cumulative; each op reads its
    /// bases just before its start barrier. Index `r` in
    /// `0..n` is rank `r`'s producer stream (broadcast reception, allreduce
    /// partials); index `n + c` is the allreduce result stream of color `c`.
    aux_counters: Vec<MessageCounter>,
    /// Per-operation counters of the nonblocking scheduler (`bgp-sched`):
    /// one block per op id, created on demand and retired by the progress
    /// engine. A block is handed out at zero, and a recycled one only once
    /// nobody holds it, so no base juggling.
    sched_bank: CounterBank,
    /// Per-rank nonblocking-op sequence. Advanced identically on every rank
    /// (posts are SPMD), persistent across jobs so op ids are never reused
    /// over the node's lifetime. Only rank `r` writes entry `r`.
    sched_seq: Vec<AtomicU64>,
    /// Chunks that arrived for nonblocking ops this node has not posted
    /// yet (a faster peer ran ahead, possibly across a job boundary):
    /// `(link tag, payload)` in arrival order, keyed by op id. Lives here
    /// rather than in the per-job scheduler so parked chunks survive until
    /// the op is finally posted. Only the node's progress engine (rank 0)
    /// touches it, so the lock is never contended.
    sched_stash: Mutex<SchedStash>,
    /// Cluster-protocol probe counters.
    cluster_stats: ClusterNodeStats,
}

impl NodeShared {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        assert!(n >= 1, "a node has at least one rank");
        let (fifo, consumers) = BcastFifo::with_consumers(FIFO_SLOTS, n);
        let consumer_slots = consumers.into_iter().map(|c| Mutex::new(Some(c))).collect();
        Arc::new(NodeShared {
            n,
            barrier: SenseBarrier::new(n),
            board: WindowBoard::new(n),
            registry: WindowRegistry::new(),
            msg_counters: (0..n).map(|_| MessageCounter::new()).collect(),
            stage_done: [
                CompletionCounter::new(n as u64 - 1),
                CompletionCounter::new(n as u64 - 1),
            ],
            staging: Arc::new(SharedRegion::new(2 * STAGING_HALF_BYTES)),
            fifo,
            consumer_slots,
            aux_counters: (0..2 * n).map(|_| MessageCounter::new()).collect(),
            sched_bank: CounterBank::new(),
            sched_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sched_stash: Mutex::new(SchedStash::default()),
            cluster_stats: ClusterNodeStats::default(),
        })
    }

    /// Cluster-protocol probe counters of this node.
    pub fn cluster_stats(&self) -> &ClusterNodeStats {
        &self.cluster_stats
    }

    /// Ranks on the node.
    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// The node's window registry.
    pub fn registry(&self) -> &WindowRegistry {
        &self.registry
    }

    /// The nonblocking scheduler's per-operation counter bank.
    pub fn sched_bank(&self) -> &CounterBank {
        &self.sched_bank
    }

    /// Advance and return rank `rank`'s nonblocking-op sequence number.
    /// Only that rank may call this (the entry is logically rank-private;
    /// it lives here so it survives across jobs on persistent workers).
    pub fn next_sched_op(&self, rank: usize) -> u64 {
        self.sched_seq[rank].fetch_add(1, Ordering::Relaxed)
    }

    /// The progress engine's parking lot for early chunks of not-yet-posted
    /// nonblocking ops (see the field docs).
    pub fn sched_stash(&self) -> &Mutex<SchedStash> {
        &self.sched_stash
    }
}

/// The window tags of collective `op`: two per op, shared with no other op.
pub(crate) fn window_tags(op: u64) -> [u64; 2] {
    [2 * op, 2 * op + 1]
}

/// One rank's view of the node, owned by its rank thread; the collectives of
/// [`crate::collectives`] are implemented as methods on this.
///
/// ```
/// let sums = bgp_smp::Cluster::new(1, 4).run(|c| {
///     let ctx = c.intra();
///     let me = ctx.rank();
///     ctx.barrier();
///     me * 10
/// });
/// assert_eq!(sums, vec![vec![0, 10, 20, 30]]);
/// ```
pub struct RankCtx {
    rank: usize,
    shared: Arc<NodeShared>,
    token: BarrierToken,
    consumer: BcastConsumer<FifoMsg>,
    /// Windowed-collective sequence number; identical across ranks because
    /// collectives are called SPMD in the same order.
    op_seq: u64,
    /// The regions this rank exposed in the current op, held until its
    /// closing barrier so that every peer's board mapping stays valid.
    exposed: Vec<Arc<SharedRegion>>,
    /// Entry `r`: the bytes producer `r` published on its message counter
    /// in every op closed so far — the base of the current op's waits.
    msg_base: Vec<u64>,
    /// Region pointers this rank has mapped before (its window cache, the
    /// subject of Figure 8).
    mapped_before: IdSet<usize>,
    /// Recycled Bcast-FIFO payload buffers (root side of `bcast_fifo`):
    /// buffers come back once every consumer retired the slot holding them,
    /// so the steady state allocates nothing per chunk.
    fifo_pool: VecDeque<Arc<[u8; FIFO_SLOT_BYTES]>>,
}

impl RankCtx {
    pub(crate) fn new(shared: Arc<NodeShared>, rank: usize) -> Self {
        let consumer = shared.consumer_slots[rank]
            .lock()
            .take()
            .expect("consumer already claimed");
        let token = shared.barrier.token();
        RankCtx {
            rank,
            token,
            consumer,
            op_seq: 0,
            exposed: Vec::new(),
            msg_base: vec![0; shared.n],
            mapped_before: IdSet::default(),
            fifo_pool: VecDeque::new(),
            shared,
        }
    }

    /// This rank's id in `0..n_ranks`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Ranks on the node.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.shared.n
    }

    /// Intra-node barrier. Returns `true` on the releasing rank.
    pub fn barrier(&mut self) -> bool {
        self.shared.barrier.wait(&mut self.token)
    }

    /// Allocate an "application buffer" shareable with peers.
    pub fn alloc_buffer(&self, len: usize) -> Arc<SharedRegion> {
        Arc::new(SharedRegion::new(len))
    }

    /// The node's window registry, whose ledger (`stats`) counts every
    /// expose and map on the node.
    pub fn registry(&self) -> &WindowRegistry {
        &self.shared.registry
    }

    /// Start a collective that exposes windows: advance the op sequence and
    /// return the op's two window tags.
    pub(crate) fn next_op(&mut self) -> [u64; 2] {
        self.op_seq += 1;
        window_tags(self.op_seq)
    }

    /// Expose `region` as this rank's window under `tag` until the op's
    /// [`close_op`](Self::close_op): post it on the node's board and hold it.
    pub(crate) fn expose(&mut self, tag: u64, region: Arc<SharedRegion>) {
        self.shared.registry.note_expose();
        self.shared.board.post(self.rank, tag, &region);
        self.exposed.push(region);
    }

    /// Map `owner`'s window under `tag`, waiting until it is exposed, and
    /// charge the map to the ledger as a hit if this rank's window cache
    /// has mapped the region before, else as a miss.
    pub(crate) fn map_cached(&mut self, owner: usize, tag: u64) -> Arc<SharedRegion> {
        // SAFETY: `owner` holds the region it posts under `tag` in its
        // `exposed` until after this op's closing barrier, and this rank
        // maps before it reaches that barrier. The owner can post to the
        // slot again only in its next op, which it cannot start before the
        // barrier either — and a later op's tags differ. So a slot that
        // reads this op's tag still names this op's region, alive.
        let region = unsafe { self.shared.board.map(owner, tag) };
        let cached = !self.mapped_before.insert(Arc::as_ptr(&region) as usize);
        self.shared.registry.note_map(cached);
        region
    }

    /// Close the current collective: the closing barrier, then release this
    /// rank's windows and advance each producer's base by `published(r)`,
    /// the bytes producer `r` published on its message counter in the op
    /// (the same on every rank; `|_| 0` for an op that used none).
    pub(crate) fn close_op(&mut self, published: impl Fn(usize) -> usize) {
        self.barrier();
        self.exposed.clear();
        for (r, base) in self.msg_base.iter_mut().enumerate() {
            *base += published(r) as u64;
        }
    }

    /// Producer: `bytes` more of this rank's message stream are valid.
    pub(crate) fn publish(&self, bytes: usize) {
        self.shared.msg_counters[self.rank].publish(bytes as u64);
    }

    /// Consumer: wait until producer `r` has published at least `bytes` in
    /// the current op; returns how many it has.
    pub(crate) fn wait_msg(&self, r: usize, bytes: usize) -> usize {
        self.shared.msg_counters[r].wait_past(self.msg_base[r], bytes as u64) as usize
    }

    /// Staged-broadcast shared segment.
    pub(crate) fn staging(&self) -> &Arc<SharedRegion> {
        &self.shared.staging
    }

    /// Ping-pong stage counters.
    pub(crate) fn stage_done(&self, half: usize) -> &CompletionCounter {
        &self.shared.stage_done[half]
    }

    /// The node Bcast FIFO.
    pub(crate) fn fifo(&self) -> &Arc<BcastFifo<FifoMsg>> {
        &self.shared.fifo
    }

    /// This rank's FIFO consumer.
    pub(crate) fn consumer(&mut self) -> &mut BcastConsumer<FifoMsg> {
        &mut self.consumer
    }

    /// Cumulative counter `i` of the cluster protocols (`i < 2n`; see
    /// `NodeShared::aux_counters` for the index scheme).
    pub(crate) fn aux_counter(&self, i: usize) -> &MessageCounter {
        &self.shared.aux_counters[i]
    }

    /// This node's cluster probe counters.
    pub(crate) fn cluster_stats(&self) -> &ClusterNodeStats {
        &self.shared.cluster_stats
    }

    /// Take a FIFO payload buffer from the recycle pool (guaranteed to be
    /// uniquely owned), or allocate a fresh zeroed one if every pooled
    /// buffer is still in flight.
    pub(crate) fn take_fifo_buffer(&mut self) -> Arc<[u8; FIFO_SLOT_BYTES]> {
        if let Some(mut front) = self.fifo_pool.pop_front() {
            if Arc::get_mut(&mut front).is_some() {
                return front;
            }
            // Still referenced by an un-retired slot: keep it for later.
            self.fifo_pool.push_back(front);
        }
        Arc::new([0u8; FIFO_SLOT_BYTES])
    }

    /// Return a FIFO payload buffer to the recycle pool. The pool is capped
    /// at one buffer more than the FIFO has slots — the maximum that can be
    /// in flight plus the one being filled.
    pub(crate) fn return_fifo_buffer(&mut self, buf: Arc<[u8; FIFO_SLOT_BYTES]>) {
        if self.fifo_pool.len() <= FIFO_SLOTS {
            self.fifo_pool.push_back(buf);
        }
    }
}

/// One node of `n` rank threads running `body` once; results by rank.
#[cfg(test)]
pub(crate) fn on_node<R: Send + 'static>(
    n: usize,
    body: impl Fn(&mut RankCtx) -> R + Send + Sync + 'static,
) -> Vec<R> {
    crate::Cluster::new(1, n)
        .run(move |c| body(c.intra()))
        .remove(0)
}

/// Run `body` once on an `m` x `n` cluster under a 5 s deadline and return
/// the panic `Cluster::run` reported, with one entry per rank that
/// panicked: whether its panic was a [`bgp_shmem::PeerPanicked`] wait it
/// gave up rather than its own.
#[cfg(test)]
pub(crate) fn panics_within_deadline(
    m: usize,
    n: usize,
    body: impl Fn(&mut crate::ClusterCtx) + Send + Sync + 'static,
) -> (String, Vec<bool>) {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    let gave_up = Arc::new(std::sync::Mutex::new(Vec::new()));
    let log = gave_up.clone();
    let (tx, rx) = std::sync::mpsc::channel();
    let helper = std::thread::spawn(move || {
        let cluster = crate::Cluster::new(m, n);
        let run = catch_unwind(AssertUnwindSafe(|| {
            cluster.run(move |c| {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| body(c))) {
                    log.lock().unwrap().push(p.is::<bgp_shmem::PeerPanicked>());
                    resume_unwind(p);
                }
            })
        }));
        let panic = run.expect_err("a rank must panic");
        let _ = tx.send(panic.downcast_ref::<String>().cloned().unwrap_or_default());
    });
    let msg = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("a rank hung instead of panicking");
    helper.join().expect("the helper thread finished cleanly");
    assert!(msg.starts_with("rank thread panicked"), "{msg}");
    let gave_up = gave_up.lock().unwrap().clone();
    (msg, gave_up)
}

/// Run `body` once on an `m` x `n` cluster under a 5 s deadline and return
/// the panic `Cluster::run` reported: every rank must refuse the op by
/// itself, before any effect — none may wait for a refusing peer, give up
/// and let that peer's message pass for its own.
#[cfg(test)]
pub(crate) fn refusal(
    m: usize,
    n: usize,
    body: impl Fn(&mut crate::ClusterCtx) + Send + Sync + 'static,
) -> String {
    let (msg, gave_up) = panics_within_deadline(m, n, body);
    assert_eq!(gave_up, vec![false; m * n], "not every rank refused: {msg}");
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use std::collections::HashSet;

    #[test]
    fn ranks_are_distinct_and_complete() {
        let out = on_node(4, |ctx| ctx.rank());
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn barrier_is_usable_from_ctx() {
        let out = on_node(3, |ctx| {
            let mut releases = 0;
            for _ in 0..10 {
                if ctx.barrier() {
                    releases += 1;
                }
            }
            releases
        });
        assert_eq!(out.iter().sum::<i32>(), 10);
    }

    #[test]
    fn single_rank_node() {
        let out = on_node(1, |ctx| {
            ctx.barrier();
            ctx.n_ranks()
        });
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn registry_is_node_wide() {
        let out = on_node(2, |ctx| {
            if ctx.rank() == 0 {
                let buf = ctx.alloc_buffer(16);
                unsafe { buf.write(0, &[42; 16]) };
                ctx.registry().expose(0, 999, buf);
            }
            ctx.barrier();
            let mapped = ctx
                .registry()
                .map_auto_blocking(0, 999, &mut HashSet::new());
            let mut b = [0u8; 1];
            unsafe { mapped.read(3, &mut b) };
            ctx.barrier();
            b[0]
        });
        assert_eq!(out, vec![42, 42]);
    }

    #[test]
    fn one_node_cluster_persists_rank_state_across_runs() {
        let rt = Cluster::new(1, 2);
        assert_eq!(rt.n_ranks(), 2);
        // op_seq advances across run() calls: the same RankCtx is reused.
        let first = rt.run(|c| c.intra().next_op());
        let second = rt.run(|c| c.intra().next_op());
        assert_eq!(first, vec![vec![window_tags(1); 2]]);
        assert_eq!(second, vec![vec![window_tags(2); 2]]);
    }

    #[test]
    fn one_node_cluster_runs_many_ops_without_respawn() {
        let rt = Cluster::new(1, 4);
        for round in 0..20u64 {
            let out = rt.run(move |c| {
                c.intra().barrier();
                round + c.rank() as u64
            });
            assert_eq!(out, vec![(0..4).map(|r| round + r).collect::<Vec<_>>()]);
        }
    }

    /// The tag half of the stale-window fix: no tag of op `k` is a tag of
    /// any other op, the next one in particular.
    #[test]
    fn consecutive_op_ids_never_share_a_tag() {
        let mut seen = HashSet::new();
        for op in 1..=1000u64 {
            let [a, b] = window_tags(op);
            assert!(!window_tags(op + 1).contains(&a) && !window_tags(op + 1).contains(&b));
            assert!(seen.insert(a) && seen.insert(b), "op {op} reuses a tag");
        }
    }

    /// The stash keeps everything: ten thousand chunks of one op, far past
    /// what a link window holds, all replay in arrival order.
    #[test]
    fn stash_keeps_every_chunk_it_parks() {
        let mut stash = SchedStash::default();
        for t in 0..10_000u64 {
            stash.park(7, t, &t.to_ne_bytes());
        }
        stash.park(8, 0, &[]);
        for t in 0..10_000u64 {
            let (tag, bytes) = stash.pop_front(7).unwrap();
            assert_eq!((tag, &bytes[..]), (t, &t.to_ne_bytes()[..]));
        }
        assert_eq!(stash.parked_ops().collect::<Vec<_>>(), vec![8]);
        assert_eq!(stash.parked(), 10_001);
    }

    /// Replay order survives park/pop round-trips and the queue is removed
    /// once drained.
    #[test]
    fn stash_pops_in_arrival_order() {
        let mut stash = SchedStash::default();
        for t in 0..5u64 {
            stash.park(9, t, &[t as u8]);
        }
        for t in 0..5u64 {
            assert_eq!(stash.front_tag(9), Some(t));
            let (tag, bytes) = stash.pop_front(9).unwrap();
            assert_eq!((tag, bytes[0] as u64), (t, t));
        }
        assert_eq!(stash.front_tag(9), None);
        assert_eq!(stash.parked_ops().count(), 0);
    }
}
