//! The multi-node cluster runtime: M nodes × n ranks, all real threads.
//!
//! A [`Cluster`] is the real-thread counterpart of the simulator's machine:
//! each node is a [`NodeShared`] exactly as in the single-node runtime, and
//! nodes are connected by a [`Fabric`](crate::transport::Fabric) of paced
//! byte-chunk channels (tree + ring links). The rank threads are
//! **persistent**: spawned once, parked on a job queue between operations,
//! so back-to-back collectives pay neither thread spawn nor `NodeShared`
//! construction — and per-rank hot-path state (window cache, reduce
//! accumulator, FIFO buffer pool) survives across operations.
//!
//! Two integrated protocols from the paper run end-to-end here:
//!
//! * [`ClusterCtx::bcast`] — the §V-A/V-B core-specialized broadcast. On
//!   the root node, rank 0 injects chunks from its application buffer into
//!   the tree ports. On every other node, one rank receives network chunks
//!   directly into *its* application buffer and publishes a cumulative
//!   [`MessageCounter`](bgp_shmem::MessageCounter); rank 0 (the network
//!   core) chases the counter to forward chunks down the tree; the
//!   remaining ranks chase it to copy out — one of them back-filling
//!   rank 0's buffer — so network reception, forwarding, and intra-node
//!   copies all overlap.
//! * [`ClusterCtx::allreduce_f64`] — the §V-C multi-color ring allreduce.
//!   Every non-network rank owns a color: it locally reduces its partition
//!   across the node's inputs into a color buffer, publishing chunk by
//!   chunk. Rank 0 — the network core — drives *all* colors through the
//!   ring concurrently (partials accumulate hop by hop in one direction,
//!   fully-reduced chunks circulate back; the engine is
//!   [`wire::flat_ring`]), and every rank copies finished chunks out as
//!   result counters advance. Even colors ride the `+` ring
//!   direction, odd colors the `-` direction, standing in for the paper's
//!   torus-link parallelism.
//!
//! Synchronization discipline: the cluster protocols never reset counters —
//! they use the cumulative-reuse scheme (base read at operation start,
//! separated from the first publish by the node barrier; see
//! `MessageCounter`'s docs) on a dedicated counter bank, so they compose
//! with the reset-style intra-node collectives on the same node.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use bgp_shmem::sync::Mutex;
use bgp_shmem::SharedRegion;

use crate::runtime::{NodeShared, RankCtx};
use crate::transport::Fabric;
use crate::wire;

/// Default link chunk size (the packetization granularity).
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;
/// Default link window (chunks in flight per link before the sender blocks).
pub const DEFAULT_WINDOW: usize = 8;

/// State shared by every rank of every node.
struct ClusterShared {
    m: usize,
    n: usize,
    nodes: Vec<Arc<NodeShared>>,
    fabric: Arc<Fabric>,
}

/// One worker's buffered, not-yet-collected job results (panics carried
/// as `Err`).
type ReadyResults = VecDeque<std::thread::Result<Box<dyn Any + Send>>>;

/// One rank's view of the cluster: its node-local [`RankCtx`] plus the
/// node id and the fabric.
pub struct ClusterCtx {
    node: usize,
    shared: Arc<ClusterShared>,
    ctx: RankCtx,
}

/// Aggregated cluster probe counters (summed over nodes).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClusterStats {
    /// Broadcast receptions (one per non-root node per broadcast).
    pub bcast_recv_ops: u64,
    /// Copy-out ranks whose first copy began while the producer stream was
    /// still in flight — the §V-B overlap evidence.
    pub copyout_overlapped: u64,
    /// Scheduler chunks parked in the bounded stash (summed over nodes).
    pub stash_parked: u64,
    /// Scheduler chunks dropped by stash eviction — non-zero means an op
    /// flooded a node (bogus op id or protocol violation) and was contained.
    pub stash_evicted_chunks: u64,
    /// Distinct stash queue evictions (summed over nodes).
    pub stash_evicted_ops: u64,
}

type Job = Box<dyn FnOnce(&mut ClusterCtx) -> Box<dyn Any + Send> + Send>;

struct Worker {
    job_tx: Option<mpsc::Sender<Job>>,
    res_rx: mpsc::Receiver<std::thread::Result<Box<dyn Any + Send>>>,
    handle: Option<JoinHandle<()>>,
}

/// A persistent real-thread cluster of `m` nodes × `n` ranks.
///
/// Workers are spawned by [`new`](Self::new) and parked on job queues;
/// [`run`](Self::run) dispatches one SPMD body to all of them and collects
/// the results node-major. Dropping the cluster joins the workers.
pub struct Cluster {
    shared: Arc<ClusterShared>,
    /// Node-major: worker `node * n + rank`.
    workers: Vec<Worker>,
    /// Set when any rank panicked inside a job: the shared state (barrier,
    /// FIFO cursors) may be torn, so further runs are refused.
    poisoned: Cell<bool>,
    /// Jobs submitted via [`submit`](Self::submit) (and [`run`](Self::run)).
    submit_seq: Cell<u64>,
    /// Jobs collected. Pipelined jobs complete per worker in FIFO order, so
    /// collection must follow submission order.
    collect_seq: Cell<u64>,
    /// Per-worker buffer of received-but-uncollected results, so
    /// [`try_collect`](Self::try_collect) can poll without losing partial
    /// progress across calls.
    ready: RefCell<Vec<ReadyResults>>,
}

/// A handle to one in-flight SPMD job dispatched with
/// [`Cluster::submit`]: the cluster-level poll/advance path. Redeem it with
/// [`Cluster::try_collect`] (non-blocking) or [`Cluster::collect`].
pub struct PendingJob<R> {
    seq: u64,
    _result: PhantomData<fn() -> R>,
}

impl Cluster {
    /// Spawn a cluster with the default link geometry.
    pub fn new(m: usize, n: usize) -> Self {
        Self::with_geometry(m, n, DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW)
    }

    /// Spawn a cluster with explicit link geometry: `chunk_bytes` per chunk
    /// (must be a positive multiple of 8 so f64 reductions packetize
    /// cleanly) and a `window`-chunk pacing window per link.
    pub fn with_geometry(m: usize, n: usize, chunk_bytes: usize, window: usize) -> Self {
        assert!(m >= 1, "a cluster has at least one node");
        assert!(n >= 1, "a node has at least one rank");
        assert!(
            chunk_bytes >= 8 && chunk_bytes.is_multiple_of(8),
            "chunk size must be a positive multiple of 8"
        );
        assert!(window >= 2, "the link window needs at least two chunks");
        let shared = Arc::new(ClusterShared {
            m,
            n,
            nodes: (0..m).map(|_| NodeShared::new(n)).collect(),
            fabric: Arc::new(Fabric::new(m, chunk_bytes, window)),
        });
        let workers = (0..m * n)
            .map(|i| {
                let (node, rank) = (i / n, i % n);
                let (job_tx, job_rx) = mpsc::channel::<Job>();
                let (res_tx, res_rx) = mpsc::channel();
                let shared = shared.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("bgp-node{node}-rank{rank}"))
                    .spawn(move || {
                        let mut cctx = ClusterCtx {
                            node,
                            ctx: RankCtx::new(shared.nodes[node].clone(), rank),
                            shared,
                        };
                        while let Ok(job) = job_rx.recv() {
                            let res = catch_unwind(AssertUnwindSafe(|| job(&mut cctx)));
                            if res_tx.send(res).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn rank thread");
                Worker {
                    job_tx: Some(job_tx),
                    res_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        let n_workers = m * n;
        Cluster {
            shared,
            workers,
            poisoned: Cell::new(false),
            submit_seq: Cell::new(0),
            collect_seq: Cell::new(0),
            ready: RefCell::new((0..n_workers).map(|_| VecDeque::new()).collect()),
        }
    }

    /// Nodes in the cluster.
    pub fn n_nodes(&self) -> usize {
        self.shared.m
    }

    /// Ranks per node.
    pub fn n_ranks(&self) -> usize {
        self.shared.n
    }

    /// Aggregated probe counters, summed over nodes.
    pub fn stats(&self) -> ClusterStats {
        let mut s = ClusterStats::default();
        for node in &self.shared.nodes {
            let cs = node.cluster_stats();
            s.bcast_recv_ops += cs.bcast_recv_ops.load(Ordering::Relaxed);
            s.copyout_overlapped += cs.copyout_overlapped.load(Ordering::Relaxed);
            let ss = node.sched_stash().lock().stats();
            s.stash_parked += ss.parked;
            s.stash_evicted_chunks += ss.evicted_chunks;
            s.stash_evicted_ops += ss.evicted_ops;
        }
        s
    }

    /// Run `body` SPMD-style on every rank of every node. Returns results
    /// indexed `[node][rank]`.
    ///
    /// # Panics
    ///
    /// Panics with `"rank thread panicked"` if any rank's body panicked
    /// (after all ranks finished or panicked), and on any later call once
    /// that has happened.
    pub fn run<R, F>(&self, body: F) -> Vec<Vec<R>>
    where
        R: Send + 'static,
        F: Fn(&mut ClusterCtx) -> R + Send + Sync + 'static,
    {
        assert_eq!(
            self.submit_seq.get(),
            self.collect_seq.get(),
            "run() cannot interleave with uncollected pipelined jobs"
        );
        let job = self.submit(body);
        self.collect(job)
    }

    /// Dispatch `body` to every worker **without waiting**: the job queues
    /// behind any earlier submissions (each worker runs its jobs in FIFO
    /// order) and the caller keeps the thread. This is the cluster-level
    /// advance/poll path: a driver — e.g. the `bgp-sched` dispatcher — can
    /// keep a next batch in flight while it assembles the one after,
    /// polling completion with [`try_collect`](Self::try_collect).
    ///
    /// Jobs must be collected in submission order.
    pub fn submit<R, F>(&self, body: F) -> PendingJob<R>
    where
        R: Send + 'static,
        F: Fn(&mut ClusterCtx) -> R + Send + Sync + 'static,
    {
        self.check_usable();
        let body = Arc::new(body);
        for w in &self.workers {
            let b = body.clone();
            let job: Job = Box::new(move |cctx| Box::new(b(cctx)) as Box<dyn Any + Send>);
            w.job_tx
                .as_ref()
                .expect("cluster is live")
                .send(job)
                .expect("rank thread exited prematurely");
        }
        let seq = self.submit_seq.get();
        self.submit_seq.set(seq + 1);
        PendingJob {
            seq,
            _result: PhantomData,
        }
    }

    /// Poll one submitted job: `Some(results)` once **every** worker has
    /// finished it, `None` otherwise (partial completions are buffered, so
    /// polling is cheap and loses nothing).
    ///
    /// # Panics
    ///
    /// Panics if `job` is not the oldest uncollected submission, or —
    /// poisoning the cluster — if any rank's body panicked.
    pub fn try_collect<R: Send + 'static>(&self, job: &PendingJob<R>) -> Option<Vec<Vec<R>>> {
        self.check_usable();
        self.check_order(job.seq);
        {
            let mut ready = self.ready.borrow_mut();
            for (w, buf) in self.workers.iter().zip(ready.iter_mut()) {
                if buf.is_empty() {
                    if let Ok(r) = w.res_rx.try_recv() {
                        buf.push_back(r);
                    }
                }
            }
            if ready.iter().any(|b| b.is_empty()) {
                return None;
            }
        }
        Some(self.finish_front::<R>())
    }

    /// Block until `job` completes on every worker and return its results
    /// node-major (the waiting half of [`submit`](Self::submit); panics
    /// exactly like [`try_collect`](Self::try_collect)).
    pub fn collect<R: Send + 'static>(&self, job: PendingJob<R>) -> Vec<Vec<R>> {
        self.check_usable();
        self.check_order(job.seq);
        {
            let mut ready = self.ready.borrow_mut();
            for (w, buf) in self.workers.iter().zip(ready.iter_mut()) {
                if buf.is_empty() {
                    let r = w.res_rx.recv().expect("rank thread exited prematurely");
                    buf.push_back(r);
                }
            }
        }
        self.finish_front::<R>()
    }

    fn check_order(&self, seq: u64) {
        assert_eq!(
            seq,
            self.collect_seq.get(),
            "pipelined jobs must be collected in submission order"
        );
    }

    /// Pop the buffered front result of every worker (all present by now),
    /// re-panic if any rank panicked, downcast, and shape node-major.
    fn finish_front<R: Send + 'static>(&self) -> Vec<Vec<R>> {
        let results = self
            .ready
            .borrow_mut()
            .iter_mut()
            .map(|b| b.pop_front().expect("every worker's result is buffered"))
            .collect();
        self.collect_seq.set(self.collect_seq.get() + 1);
        let flat: Vec<R> = self
            .unwrap_results(results)
            .into_iter()
            .map(|r| *r.downcast::<R>().expect("result type"))
            .collect();
        self.shape(flat)
    }

    /// `run` for non-`'static` bodies and results — the engine behind
    /// [`crate::run_node`]. The borrows are erased to ship through the
    /// `'static` job queue; this is sound because the call does not return
    /// (normally or by unwind) before **every** worker has acknowledged its
    /// job, so no erased reference outlives the frame.
    pub(crate) fn run_borrowed<R, F>(&self, body: &F) -> Vec<Vec<R>>
    where
        R: Send,
        F: Fn(&mut ClusterCtx) -> R + Sync,
    {
        self.check_usable();
        assert_eq!(
            self.submit_seq.get(),
            self.collect_seq.get(),
            "run_borrowed() cannot interleave with uncollected pipelined jobs"
        );

        struct SendPtr(*const ());
        // SAFETY: the pointees (`body`, `slots`) are Sync/owned by this
        // frame, which outlives every job (see above).
        unsafe impl Send for SendPtr {}

        /// Monomorphized un-eraser: `body_p` is `&F`, `slot_p` is
        /// `&Mutex<Option<R>>`.
        ///
        /// # Safety
        /// Both pointers must be live and correctly typed for `F`/`R`.
        unsafe fn trampoline<R, F: Fn(&mut ClusterCtx) -> R>(
            body_p: *const (),
            slot_p: *const (),
            cctx: &mut ClusterCtx,
        ) {
            let body = unsafe { &*(body_p as *const F) };
            let slot = unsafe { &*(slot_p as *const Mutex<Option<R>>) };
            let r = body(cctx);
            *slot.lock() = Some(r);
        }

        let slots: Vec<Mutex<Option<R>>> =
            (0..self.workers.len()).map(|_| Mutex::new(None)).collect();
        let tramp: unsafe fn(*const (), *const (), &mut ClusterCtx) = trampoline::<R, F>;
        for (i, w) in self.workers.iter().enumerate() {
            let body_p = SendPtr(body as *const F as *const ());
            let slot_p = SendPtr(&slots[i] as *const Mutex<Option<R>> as *const ());
            let job: Job = Box::new(move |cctx| {
                // Move the whole wrappers in (field-precise capture would
                // capture the bare non-Send pointers instead).
                let (SendPtr(body_p), SendPtr(slot_p)) = (body_p, slot_p);
                // SAFETY: pointees outlive the job — run_borrowed collects
                // every ack before returning or unwinding.
                unsafe { tramp(body_p, slot_p, cctx) };
                Box::new(()) as Box<dyn Any + Send>
            });
            w.job_tx
                .as_ref()
                .expect("cluster is live")
                .send(job)
                .expect("rank thread exited prematurely");
        }
        let _acks = self.collect_acks();
        let flat: Vec<R> = slots
            .into_iter()
            .map(|s| s.lock().take().expect("worker stored its result"))
            .collect();
        self.shape(flat)
    }

    fn check_usable(&self) {
        assert!(
            !self.poisoned.get(),
            "cluster unusable: a rank thread panicked in an earlier operation"
        );
    }

    /// Receive one result from every worker — all of them, even if some
    /// panicked, so `run_borrowed`'s erased borrows are dead before this
    /// returns or unwinds.
    fn collect_acks(&self) -> Vec<Box<dyn Any + Send>> {
        let results = self
            .workers
            .iter()
            .map(|w| w.res_rx.recv().expect("rank thread exited prematurely"))
            .collect();
        self.unwrap_results(results)
    }

    /// One job's results, one per worker. If any rank panicked, poison the
    /// cluster and re-panic with the first rank's message.
    fn unwrap_results(
        &self,
        results: Vec<std::thread::Result<Box<dyn Any + Send>>>,
    ) -> Vec<Box<dyn Any + Send>> {
        if let Some(p) = results.iter().find_map(|r| r.as_ref().err()) {
            self.poisoned.set(true);
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            panic!("rank thread panicked: {msg}");
        }
        results.into_iter().map(|r| r.unwrap()).collect()
    }

    fn shape<R>(&self, flat: Vec<R>) -> Vec<Vec<R>> {
        let n = self.shared.n;
        let mut out = Vec::with_capacity(self.shared.m);
        let mut it = flat.into_iter();
        for _ in 0..self.shared.m {
            out.push(it.by_ref().take(n).collect());
        }
        out
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for w in &mut self.workers {
            w.job_tx.take(); // closes the queue; the worker loop exits
        }
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

/// Chunk-tag kinds for the ring protocols (bit 63 of the tag).
/// `pub(crate)`: [`crate::wire`] packs them for every backend.
pub(crate) const KIND_PARTIAL: u64 = 0;
pub(crate) const KIND_FULL: u64 = 1;

/// Exclusive upper bound of the `color` field of a packed chunk tag
/// (23 bits: tag bits 40..63).
pub const TAG_COLOR_LIMIT: usize = 1 << 23;
/// Exclusive upper bound of the `k` (chunk-sequence) field of a packed
/// chunk tag (40 bits: tag bits 0..40).
pub const TAG_CHUNK_LIMIT: usize = 1 << 40;

/// Why a chunk tag could not be packed: a field would overflow its bit
/// range and silently corrupt neighboring fields (the `kind` bit, or an
/// adjacent color). Surfaced by [`try_pack_tag`]; the unchecked
/// [`pack_tag`] debug-asserts the same bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagError {
    /// `color` does not fit the 23-bit field ([`TAG_COLOR_LIMIT`]).
    ColorTooLarge {
        /// The offending color / segment id.
        color: usize,
    },
    /// `k` does not fit the 40-bit field ([`TAG_CHUNK_LIMIT`]).
    ChunkTooLarge {
        /// The offending chunk index.
        k: usize,
    },
    /// `kind` is not a single bit.
    KindTooLarge {
        /// The offending kind value.
        kind: u64,
    },
}

impl std::fmt::Display for TagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TagError::ColorTooLarge { color } => write!(
                f,
                "tag color {color} exceeds the 23-bit field (limit {TAG_COLOR_LIMIT})"
            ),
            TagError::ChunkTooLarge { k } => write!(
                f,
                "tag chunk index {k} exceeds the 40-bit field (limit {TAG_CHUNK_LIMIT})"
            ),
            TagError::KindTooLarge { kind } => {
                write!(f, "tag kind {kind} exceeds the single kind bit")
            }
        }
    }
}

impl std::error::Error for TagError {}

/// Checked tag constructor: packs `(color, kind, k)` into the
/// `kind:1 | color:23 | k:40` wire layout, refusing any field that would
/// overflow into a neighbor. Collectives validate their *largest* tag with
/// this once per operation, so the per-chunk hot path can keep using the
/// unchecked (debug-asserted) [`pack_tag`].
pub(crate) fn try_pack_tag(color: usize, kind: u64, k: usize) -> Result<u64, TagError> {
    if color >= TAG_COLOR_LIMIT {
        return Err(TagError::ColorTooLarge { color });
    }
    if k >= TAG_CHUNK_LIMIT {
        return Err(TagError::ChunkTooLarge { k });
    }
    if kind > 1 {
        return Err(TagError::KindTooLarge { kind });
    }
    Ok((kind << 63) | ((color as u64) << 40) | k as u64)
}

pub(crate) fn pack_tag(color: usize, kind: u64, k: usize) -> u64 {
    debug_assert!(color < TAG_COLOR_LIMIT, "tag color {color} overflows");
    debug_assert!(k < TAG_CHUNK_LIMIT, "tag chunk index {k} overflows");
    debug_assert!(kind <= 1, "tag kind {kind} overflows");
    (kind << 63) | ((color as u64) << 40) | k as u64
}

pub(crate) fn unpack_tag(tag: u64) -> (usize, u64, usize) {
    (
        ((tag >> 40) & 0x7F_FFFF) as usize,
        tag >> 63,
        (tag & 0xFF_FFFF_FFFF) as usize,
    )
}

/// Iterate `(k, byte_off, chunk_len)` over a `len`-byte message in
/// `chunk`-byte chunks.
pub(crate) fn chunks_of(len: usize, chunk: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..len.div_ceil(chunk)).map(move |k| {
        let off = k * chunk;
        (k, off, (len - off).min(chunk))
    })
}

/// Sum bytes `[lo, hi)` of every region in `inputs` (f64 lanes) into `dst`
/// at `dst_off`, `chunk` bytes at a time — seeded with the first input, the
/// rest lane-added over it in place, no scratch vector — calling
/// `done(len)` after each piece so the caller can publish it.
///
/// # Safety
/// The caller is the only writer of the destination range and nobody reads
/// a piece of it before `done` published it; `[lo, hi)` of every input is
/// final.
pub unsafe fn sum_regions(
    dst: &SharedRegion,
    dst_off: usize,
    inputs: &[Arc<SharedRegion>],
    lo: usize,
    hi: usize,
    chunk: usize,
    mut done: impl FnMut(usize),
) {
    for (_, off, len) in chunks_of(hi - lo, chunk) {
        dst.with_bytes_mut(dst_off + off, len, |dst| {
            inputs[0].with_bytes(lo + off, len, |src| dst.copy_from_slice(src));
            for inp in &inputs[1..] {
                inp.with_bytes(lo + off, len, |src| {
                    crate::kernels::add_bytes_assign(dst, src)
                });
            }
        });
        done(len);
    }
}

/// The network core's [`wire::Local`]: flow `c` lives in shared region
/// `bufs[c]`, which other ranks of the node fill concurrently.
/// `ready(c, off, len)` says whether the node's own contribution to that
/// range has been published; `landed(c, off, len)` hands a finished range
/// to the copy-out ranks.
struct RegionLocal<'a, R, F> {
    bufs: &'a [Arc<SharedRegion>],
    ready: R,
    landed: F,
}

impl<R: Fn(usize, usize, usize) -> bool, F: FnMut(usize, usize, usize)> wire::Local
    for RegionLocal<'_, R, F>
{
    fn ready(&self, c: usize, off: usize, len: usize) -> bool {
        (self.ready)(c, off, len)
    }

    fn read<T>(&self, c: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> T) -> T {
        // SAFETY: per the `Local` contract the producer of this range has
        // published it (`ready`, an acquire) or this thread wrote it, and
        // this thread is its only writer from then on.
        unsafe { self.bufs[c].with_bytes(off, len, f) }
    }

    fn write<T>(&mut self, c: usize, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
        // SAFETY: as for `read`; other ranks read the range only after
        // `landed` publishes it.
        unsafe { self.bufs[c].with_bytes_mut(off, len, f) }
    }

    fn landed(&mut self, c: usize, off: usize, len: usize) {
        (self.landed)(c, off, len)
    }
}

/// The node-aware collectives (locality-aware reduce-scatter/allgather
/// stages, the fused hybrid allreduce, and the rounded-out collective set).
#[path = "node_aware.rs"]
mod node_aware;

impl ClusterCtx {
    /// This rank's node id.
    #[inline]
    pub fn node(&self) -> usize {
        self.node
    }

    /// Nodes in the cluster.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.shared.m
    }

    /// This rank's id within its node.
    #[inline]
    pub fn rank(&self) -> usize {
        self.ctx.rank()
    }

    /// Ranks per node.
    #[inline]
    pub fn n_ranks(&self) -> usize {
        self.shared.n
    }

    /// Global rank: `node * n_ranks + rank`.
    #[inline]
    pub fn global_rank(&self) -> usize {
        self.node * self.shared.n + self.ctx.rank()
    }

    /// The node-local context: barrier, buffers, and every intra-node
    /// collective of [`crate::collectives`].
    #[inline]
    pub fn intra(&mut self) -> &mut RankCtx {
        &mut self.ctx
    }

    /// The inter-node link fabric, shared by every rank. The nonblocking
    /// scheduler (`bgp-sched`) holds this so its progress engine can poll
    /// ports without borrowing the context.
    #[inline]
    pub fn fabric(&self) -> Arc<Fabric> {
        self.shared.fabric.clone()
    }

    /// This rank's node-shared state: the window registry, the sched
    /// counter bank, and the persistent per-rank op sequences.
    #[inline]
    pub fn node_shared(&self) -> Arc<NodeShared> {
        self.shared.nodes[self.node].clone()
    }

    fn map_cached(&mut self, owner: u32, tag: u64) -> Arc<SharedRegion> {
        let mut seen = std::mem::take(&mut self.ctx.mapped_before);
        let r = self.ctx.registry().map_auto_blocking(owner, tag, &mut seen);
        self.ctx.mapped_before = seen;
        r
    }

    /// Chase cumulative counter `ctr_idx` from `base` and copy the stream
    /// `[0, len)` from `src` into `dst` (and `also`, if given) as it
    /// becomes valid. Records the overlap probe on the first wait.
    fn chase_copy(
        &mut self,
        dst: &SharedRegion,
        src: &SharedRegion,
        len: usize,
        ctr_idx: usize,
        base: u64,
        also: Option<&SharedRegion>,
    ) {
        let mut seen = 0usize;
        let mut first = true;
        while seen < len {
            let avail = self
                .ctx
                .aux_counter(ctr_idx)
                .wait_past(base, seen as u64 + 1) as usize;
            let avail = avail.min(len);
            if first {
                first = false;
                if avail < len {
                    self.ctx
                        .cluster_stats()
                        .copyout_overlapped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            // SAFETY: the counter acquire ordered us after the producer's
            // writes of [seen, avail); our destination ranges are ours.
            unsafe {
                dst.copy_from(seen, src, seen, avail - seen);
                if let Some(extra) = also {
                    extra.copy_from(seen, src, seen, avail - seen);
                }
            }
            seen = avail;
        }
    }

    /// The intra-node reduce stage: sum bytes `[lo, hi)` of every local
    /// input (exposed under `in_tag`) into `dst` at `dst_off`, one link
    /// chunk at a time — seeded with rank 0's input, the rest lane-added
    /// over it in place, no scratch vector, no f64↔byte round trips —
    /// publishing this rank's producer stream after each chunk.
    fn reduce_span(
        &mut self,
        in_tag: u64,
        dst: &SharedRegion,
        dst_off: usize,
        lo: usize,
        hi: usize,
    ) {
        let (n, me) = (self.shared.n, self.ctx.rank());
        let inputs: Vec<Arc<SharedRegion>> =
            (0..n).map(|r| self.map_cached(r as u32, in_tag)).collect();
        let chunk = self.shared.fabric.chunk_bytes();
        // SAFETY: this rank is the unique writer of the destination range;
        // readers are gated on the publish; the inputs were written before
        // the collective.
        unsafe {
            sum_regions(dst, dst_off, &inputs, lo, hi, chunk, |len| {
                self.ctx.aux_counter(me).publish(len as u64);
            })
        };
    }

    /// Cluster-wide broadcast of `len` bytes from the application buffer of
    /// rank 0 on `root_node` into every rank's `buf` on every node — the
    /// integrated core-specialized broadcast (§V-A/V-B). SPMD: every rank
    /// of every node calls with consistent arguments.
    pub fn bcast(&mut self, root_node: usize, buf: &Arc<SharedRegion>, len: usize) {
        let shared = self.shared.clone();
        let (m, n) = (shared.m, shared.n);
        assert!(root_node < m, "root node out of range");
        assert!(buf.len() >= len, "buffer shorter than message");
        let op = self.ctx.next_op();
        let me = self.ctx.rank();
        let v = self.node;
        let chunk = shared.fabric.chunk_bytes();

        let is_root_node = v == root_node;
        // The producer rank of this node's reception stream: rank 0 injects
        // on the root node; elsewhere the receiver core.
        let recv_rank = if is_root_node {
            0
        } else {
            usize::min(1, n - 1)
        };
        // Which rank back-fills rank 0's buffer on a non-root node.
        let backfill = match (is_root_node, n) {
            (true, _) | (false, 1) => None,
            (false, 2) => Some(0),
            (false, _) => Some(2),
        };

        // Cumulative base, read before the start barrier (stable: the
        // previous operation ended with a barrier after its last publish).
        let base = self.ctx.aux_counter(recv_rank).read();

        if me == recv_rank {
            self.ctx
                .registry()
                .expose(recv_rank as u32, op, buf.clone());
        }
        if backfill == Some(2) && me == 0 {
            self.ctx.registry().expose(0, op, buf.clone());
        }
        self.ctx.barrier();

        if is_root_node {
            if me == 0 {
                // Network core of the root: inject every chunk into every
                // outbound tree port, then publish it for the local peers.
                let ctr = self.ctx.aux_counter(0);
                wire::tree_send(
                    &shared.fabric.bcast_out(v, root_node),
                    chunk,
                    len,
                    || len,
                    // SAFETY: root reads its own buffer.
                    |off, dst| unsafe { buf.read(off, dst) },
                    |_, bytes| {
                        ctr.publish(bytes as u64);
                    },
                );
            } else {
                let src = self.map_cached(0, op);
                self.chase_copy(buf, &src, len, 0, base, None);
            }
        } else if me == recv_rank {
            // The receiver core: network chunks land directly in the
            // application buffer and each landing is published to the
            // node's other ranks. A single-rank node has none; it forwards
            // each chunk itself while the incoming slot is still on loan.
            let outs = if n == 1 {
                shared.fabric.bcast_out(v, root_node)
            } else {
                Vec::new()
            };
            self.ctx
                .cluster_stats()
                .bcast_recv_ops
                .fetch_add(1, Ordering::Relaxed);
            let ctr = self.ctx.aux_counter(recv_rank);
            wire::tree_recv(
                shared.fabric.bcast_in(v, root_node),
                &outs,
                len,
                |off, bytes| {
                    // SAFETY: sole writer; readers gated on the publish.
                    unsafe { buf.write(off, bytes) };
                    if n > 1 {
                        ctr.publish(bytes.len() as u64);
                    }
                },
            );
        } else if me == 0 {
            // The network core: the same `wire::TreeFeed` loop as the
            // root's, fed by the reception counter instead of a whole
            // message; with only two ranks it also back-fills its own
            // buffer with each range that is out.
            let src = self.map_cached(recv_rank as u32, op);
            let ctr = self.ctx.aux_counter(recv_rank);
            wire::tree_send(
                &shared.fabric.bcast_out(v, root_node),
                chunk,
                len,
                || ((ctr.read() - base) as usize).min(len),
                // SAFETY: the counter acquire ordered us after the
                // receiver's write of every byte `tree_send` asks for.
                |off, dst| unsafe { src.read(off, dst) },
                |off, bytes| {
                    if backfill == Some(0) {
                        // SAFETY: as above; our buffer range is ours.
                        unsafe { buf.copy_from(off, &src, off, bytes) };
                    }
                },
            );
        } else {
            // Copy-out cores: chase the counter into our own buffer; the
            // designated back-filler also writes rank 0's buffer.
            let src = self.map_cached(recv_rank as u32, op);
            let fill_zero = if backfill == Some(me) {
                Some(self.map_cached(0, op))
            } else {
                None
            };
            self.chase_copy(buf, &src, len, recv_rank, base, fill_zero.as_deref());
        }

        self.ctx.barrier();
        if me == recv_rank {
            self.ctx.registry().unexpose(recv_rank as u32, op);
        }
        if backfill == Some(2) && me == 0 {
            self.ctx.registry().unexpose(0, op);
        }
    }

    /// Cluster-wide allreduce (sum) over `count` doubles — the §V-C
    /// multi-color ring decomposition. Every rank of every node calls with
    /// its own `input`; every `output` receives the global sum. SPMD.
    pub fn allreduce_f64(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        let shared = self.shared.clone();
        let (m, n) = (shared.m, shared.n);
        assert!(input.len() >= count * 8, "input shorter than count");
        assert!(output.len() >= count * 8, "output shorter than count");
        let op = self.ctx.next_op();
        let in_tag = 2 * op;
        let cb_tag = 2 * op + 1;
        let me = self.ctx.rank();

        let colors = if n == 1 { 1 } else { n - 1 };
        let span = |c: usize| (c * count / colors, (c + 1) * count / colors);
        let owner = |c: usize| if n == 1 { 0 } else { c + 1 };

        // Fulls of color c land on result stream n + c — except on a single
        // node, where the partials *are* the results and the copy-out
        // chases the owner's stream itself.
        let rstream = |c: usize| if m == 1 { owner(c) } else { n + c };

        // Cumulative bases, pre-barrier (see `bcast`): partial stream of
        // each color's owner, result stream of each color.
        let pbase: Vec<u64> = (0..colors)
            .map(|c| self.ctx.aux_counter(owner(c)).read())
            .collect();
        let rbase: Vec<u64> = (0..colors)
            .map(|c| self.ctx.aux_counter(rstream(c)).read())
            .collect();

        self.ctx.registry().expose(me as u32, in_tag, input.clone());
        let my_color = if n == 1 {
            Some(0)
        } else if me >= 1 {
            Some(me - 1)
        } else {
            None
        };
        if let Some(c) = my_color {
            let (lo, hi) = span(c);
            let cbuf = self.ctx.alloc_buffer(((hi - lo) * 8).max(1));
            self.ctx.registry().expose(me as u32, cb_tag, cbuf);
        }
        self.ctx.barrier();

        let cbufs: Vec<Arc<SharedRegion>> = (0..colors)
            .map(|c| self.map_cached(owner(c) as u32, cb_tag))
            .collect();

        // Phase A — color owners: local reduce of the partition across the
        // node's inputs, pipelined chunk by chunk into the color buffer.
        if let Some(c) = my_color {
            let (lo, hi) = span(c);
            self.reduce_span(in_tag, &cbufs[c], 0, lo * 8, hi * 8);
        }

        // Phase B — the network core drives the ring for all colors:
        // partials of color c are ready as its owner's stream passes them,
        // landed fulls go out on its result stream.
        if me == 0 && m > 1 {
            let ctx = &self.ctx;
            let spans = (0..colors).map(|c| (span(c).1 - span(c).0) * 8);
            let mut local = RegionLocal {
                bufs: &cbufs,
                ready: |c, off, len| {
                    ctx.aux_counter(owner(c)).read() - pbase[c] >= (off + len) as u64
                },
                landed: |c, _, len| {
                    ctx.aux_counter(n + c).publish(len as u64);
                },
            };
            wire::flat_ring(&shared.fabric, self.node, spans, &mut local);
        }

        // Phase C — every rank copies every color's finished chunks out,
        // chasing the result counters.
        for c in 0..colors {
            let (lo, hi) = span(c);
            let total = (hi - lo) * 8;
            let mut seen = 0usize;
            while seen < total {
                let avail = self
                    .ctx
                    .aux_counter(rstream(c))
                    .wait_past(rbase[c], seen as u64 + 1) as usize;
                let avail = avail.min(total);
                // SAFETY: result counter acquire ordered us after the full
                // chunks were written; our output is ours.
                unsafe { output.copy_from(lo * 8 + seen, &cbufs[c], seen, avail - seen) };
                seen = avail;
            }
        }

        self.ctx.barrier();
        self.ctx.registry().unexpose(me as u32, in_tag);
        if my_color.is_some() {
            self.ctx.registry().unexpose(me as u32, cb_tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::write_f64s;

    #[test]
    fn run_returns_node_major_results() {
        let cluster = Cluster::new(3, 2);
        let out = cluster.run(|cctx| (cctx.node(), cctx.rank(), cctx.global_rank()));
        assert_eq!(out.len(), 3);
        for (node, ranks) in out.iter().enumerate() {
            assert_eq!(ranks.len(), 2);
            for (rank, &(gn, gr, gg)) in ranks.iter().enumerate() {
                assert_eq!((gn, gr, gg), (node, rank, node * 2 + rank));
            }
        }
    }

    #[test]
    fn persistent_workers_keep_state_across_runs() {
        let cluster = Cluster::new(2, 2);
        let a = cluster.run(|cctx| cctx.intra().next_op());
        let b = cluster.run(|cctx| cctx.intra().next_op());
        assert!(a.iter().flatten().all(|&v| v == 1));
        assert!(b.iter().flatten().all(|&v| v == 2));
    }

    #[test]
    fn pipelined_jobs_run_fifo_per_worker() {
        let cluster = Cluster::new(2, 2);
        let a = cluster.submit(|cctx| cctx.intra().next_op());
        let b = cluster.submit(|cctx| cctx.intra().next_op());
        let ra = cluster.collect(a);
        let rb = cluster.collect(b);
        assert!(ra.iter().flatten().all(|&v| v == 1));
        assert!(rb.iter().flatten().all(|&v| v == 2));
        // The cluster is reusable afterwards.
        let rc = cluster.run(|cctx| cctx.intra().next_op());
        assert!(rc.iter().flatten().all(|&v| v == 3));
    }

    #[test]
    fn try_collect_buffers_partial_completions() {
        let cluster = Cluster::new(1, 2);
        let job = cluster.submit(|cctx| cctx.rank());
        let out = loop {
            if let Some(r) = cluster.try_collect(&job) {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(out, vec![vec![0, 1]]);
    }

    #[test]
    #[should_panic(expected = "collected in submission order")]
    fn out_of_order_collect_is_refused() {
        let cluster = Cluster::new(1, 1);
        let _a = cluster.submit(|_| 0usize);
        let b = cluster.submit(|_| 1usize);
        let _ = cluster.collect(b);
    }

    #[test]
    fn intra_node_collectives_work_inside_a_cluster() {
        // Each node broadcasts independently over its own NodeShared.
        let cluster = Cluster::new(2, 3);
        let out = cluster.run(|cctx| {
            let node = cctx.node();
            let ctx = cctx.intra();
            let buf = ctx.alloc_buffer(1000);
            if ctx.rank() == 0 {
                unsafe { buf.write(0, &vec![node as u8 + 7; 1000]) };
            }
            ctx.barrier();
            ctx.bcast_shaddr(0, &buf, 1000, 256);
            unsafe { buf.snapshot() }
        });
        for (node, ranks) in out.iter().enumerate() {
            for snap in ranks {
                assert!(snap.iter().all(|&b| b == node as u8 + 7));
            }
        }
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rank_panic_is_reported() {
        let cluster = Cluster::new(1, 2);
        cluster.run(|cctx| {
            // Both ranks panic immediately: no rank is left spinning on a
            // half-finished collective, so collection terminates.
            panic!("boom from rank {}", cctx.rank());
        });
    }

    #[test]
    fn poisoned_cluster_refuses_further_runs() {
        let cluster = Cluster::new(1, 2);
        let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|_| panic!("boom"));
        }));
        assert!(first.is_err());
        let second = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cluster.run(|_| 0);
        }));
        assert!(second.is_err(), "a poisoned cluster must refuse to run");
    }

    #[test]
    fn small_cluster_bcast_smoke() {
        // Root node 0 and 1, a couple of sizes; exhaustive coverage lives
        // in the root integration tests.
        let cluster = Cluster::with_geometry(2, 2, 64, 2);
        for root in 0..2usize {
            for len in [0usize, 1, 63, 64, 65, 1000] {
                let out = cluster.run(move |cctx| {
                    let buf = cctx.intra().alloc_buffer(len.max(1));
                    if cctx.node() == root && cctx.rank() == 0 {
                        let pat: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                        unsafe { buf.write(0, &pat) };
                    }
                    cctx.intra().barrier();
                    cctx.bcast(root, &buf, len);
                    unsafe { buf.snapshot() }
                });
                for ranks in &out {
                    for snap in ranks {
                        for (i, &b) in snap[..len].iter().enumerate() {
                            assert_eq!(b, (i % 251) as u8, "root={root} len={len} byte {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tag_fields_round_trip_at_their_boundaries() {
        // The widest legal values in every field survive a round trip with
        // no cross-field bleed.
        for (color, kind, k) in [
            (TAG_COLOR_LIMIT - 1, KIND_PARTIAL, TAG_CHUNK_LIMIT - 1),
            (TAG_COLOR_LIMIT - 1, KIND_FULL, 0),
            (0, KIND_FULL, TAG_CHUNK_LIMIT - 1),
            (0, KIND_PARTIAL, 0),
        ] {
            let tag = try_pack_tag(color, kind, k).expect("boundary values are legal");
            assert_eq!(unpack_tag(tag), (color, kind, k), "fields bled");
            assert_eq!(tag, pack_tag(color, kind, k));
        }
    }

    #[test]
    fn overflowing_tag_fields_are_refused_not_aliased() {
        // Pre-fix, pack_tag(1 << 23, KIND_PARTIAL, k) silently set bit 63:
        // a partial tag aliased a *full* tag of color 0 — the satellite bug.
        assert_eq!(
            try_pack_tag(TAG_COLOR_LIMIT, KIND_PARTIAL, 5),
            Err(TagError::ColorTooLarge {
                color: TAG_COLOR_LIMIT
            })
        );
        // The alias the unchecked shift would have produced:
        let aliased = ((TAG_COLOR_LIMIT as u64) << 40) | 5;
        assert_eq!(aliased, pack_tag(0, KIND_FULL, 5), "the alias is real");
        // A chunk index past 40 bits would corrupt the color field.
        assert_eq!(
            try_pack_tag(0, KIND_PARTIAL, TAG_CHUNK_LIMIT),
            Err(TagError::ChunkTooLarge { k: TAG_CHUNK_LIMIT })
        );
        assert_eq!(
            try_pack_tag(0, 2, 0),
            Err(TagError::KindTooLarge { kind: 2 })
        );
        let msg = TagError::ColorTooLarge {
            color: TAG_COLOR_LIMIT,
        }
        .to_string();
        assert!(msg.contains("23-bit"), "error names the field: {msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "tag color")]
    fn unchecked_pack_tag_guards_color_in_debug() {
        // Regression: the pre-fix pack_tag had no color guard at all.
        let _ = pack_tag(TAG_COLOR_LIMIT, KIND_PARTIAL, 0);
    }

    #[test]
    fn chunks_of_zero_len_yields_nothing() {
        assert_eq!(chunks_of(0, 64).count(), 0);
        assert_eq!(chunks_of(1, 64).count(), 1);
        assert_eq!(chunks_of(64, 64).count(), 1);
        assert_eq!(chunks_of(65, 64).count(), 2);
    }

    #[test]
    fn zero_length_ops_never_touch_the_fabric() {
        // Degenerate broadcasts and reductions must complete without a
        // single chunk crossing a link — no phantom sends, no hangs.
        let cluster = Cluster::with_geometry(3, 2, 64, 2);
        let before = cluster.shared.fabric.total_chunks_sent();
        for root in 0..3usize {
            let out = cluster.run(move |cctx| {
                let buf = cctx.intra().alloc_buffer(1);
                cctx.bcast(root, &buf, 0);
                let input = cctx.intra().alloc_buffer(1);
                let output = cctx.intra().alloc_buffer(1);
                cctx.allreduce_f64(&input, &output, 0);
                cctx.node()
            });
            assert_eq!(out.concat().len(), 6);
        }
        assert_eq!(
            cluster.shared.fabric.total_chunks_sent(),
            before,
            "zero-length collectives sent phantom chunks"
        );
    }

    #[test]
    fn small_cluster_allreduce_smoke() {
        let cluster = Cluster::with_geometry(2, 2, 64, 2);
        for count in [0usize, 1, 7, 129] {
            let out = cluster.run(move |cctx| {
                let g = cctx.global_rank() as f64;
                let input = cctx.intra().alloc_buffer((count * 8).max(1));
                let output = cctx.intra().alloc_buffer((count * 8).max(1));
                let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                write_f64s(&input, 0, &vals);
                cctx.intra().barrier();
                cctx.allreduce_f64(&input, &output, count);
                crate::collectives::read_f64s(&output, 0, count)
            });
            // 4 global ranks: sum_i = 4*i + (0+1+2+3).
            for ranks in &out {
                for got in ranks {
                    for (i, &gv) in got.iter().enumerate() {
                        assert_eq!(gv, 4.0 * i as f64 + 6.0, "count={count} elem {i}");
                    }
                }
            }
        }
    }
}
