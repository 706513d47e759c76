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
//!   across the node's inputs straight into its own output, which is the
//!   color's buffer, publishing chunk by chunk (a one-rank node reduces
//!   nothing: its ring reads the input in place). Rank 0 — the network core —
//!   drives *all* colors through the ring concurrently in the owners'
//!   outputs (partials accumulate hop by hop in one direction,
//!   fully-reduced chunks circulate back; the engine is
//!   [`wire::flat_ring`]), and every other rank copies finished chunks out
//!   as result counters advance. Even colors ride the `+` ring
//!   direction, odd colors the `-` direction, standing in for the paper's
//!   torus-link parallelism.
//!
//! Synchronization discipline: the cluster protocols follow the node's one
//! op protocol (see [`crate::runtime`]) — window tags from
//! `RankCtx::next_op`, windows withdrawn after the closing barrier, counters
//! cumulative. Their counters are a bank of their own whose bases each op
//! reads just before its start barrier, and no collective on a node resets
//! a counter, so any sequence of intra-node and cluster collectives composes.

use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use bgp_shmem::{PeerPanicked, SharedRegion};

use crate::collectives::IN_PLACE;
use crate::kernels;
use crate::runtime::{NodeShared, RankCtx};
use crate::transport::Fabric;
use crate::wire::{self, tag};

/// Default link chunk size (the packetization granularity).
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;
/// Default link window (chunks in flight per link before the sender blocks).
pub const DEFAULT_WINDOW: usize = 8;

/// The link geometry every cluster runtime accepts: chunks a positive
/// multiple of 8 bytes, so f64 reductions packetize into whole lanes, and
/// a window of at least two chunks (the cycle-tag protocol).
pub(crate) fn check_geometry(chunk_bytes: usize, window: usize) {
    assert!(
        chunk_bytes >= 8 && chunk_bytes.is_multiple_of(8),
        "chunk size must be a positive multiple of 8"
    );
    assert!(window >= 2, "the link window needs at least two chunks");
}

/// State shared by every rank of every node.
struct ClusterShared {
    m: usize,
    n: usize,
    nodes: Vec<Arc<NodeShared>>,
    fabric: Arc<Fabric>,
    /// Set by the first rank whose job panics: every other rank's next
    /// `spin` then panics too, instead of waiting for the dead one.
    abort: AtomicBool,
}

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
    /// Scheduler chunks parked in the stash (summed over nodes).
    pub stash_parked: u64,
    /// Always 0: the stash keeps every chunk it parks. Kept only until the
    /// `benchmark/` package stops reading it.
    pub stash_evicted_chunks: u64,
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
}

/// A handle to one in-flight SPMD job dispatched with [`Cluster::submit`];
/// redeem it with [`Cluster::collect`] (or, for the last one,
/// [`Cluster::finish`]).
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
        check_geometry(chunk_bytes, window);
        let shared = Arc::new(ClusterShared {
            m,
            n,
            nodes: (0..m).map(|_| NodeShared::new(n)).collect(),
            fabric: Arc::new(Fabric::new(m, chunk_bytes, window)),
            abort: AtomicBool::new(false),
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
                        // SAFETY: `cctx.shared` holds the flag for the
                        // thread's life.
                        unsafe { bgp_shmem::abort_spins_on(&shared.abort) };
                        let mut cctx = ClusterCtx {
                            node,
                            ctx: RankCtx::new(shared.nodes[node].clone(), rank),
                            shared,
                        };
                        while let Ok(job) = job_rx.recv() {
                            let res = catch_unwind(AssertUnwindSafe(|| job(&mut cctx)));
                            if res.is_err() {
                                cctx.shared.abort.store(true, Ordering::Relaxed);
                            }
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
        Cluster {
            shared,
            workers,
            poisoned: Cell::new(false),
            submit_seq: Cell::new(0),
            collect_seq: Cell::new(0),
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
            s.stash_parked += node.sched_stash().lock().parked();
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
    /// order) and the caller keeps the thread. A body may run for as long
    /// as its caller likes — the `bgp-sched` server submits one resident
    /// body at start-up, feeds it work over channels of its own, and
    /// collects it with [`finish`](Self::finish) when it shuts down.
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

    /// Block until `job` completes on every worker and return its results
    /// node-major (the waiting half of [`submit`](Self::submit)).
    ///
    /// # Panics
    ///
    /// Panics if `job` is not the oldest uncollected submission, or —
    /// poisoning the cluster — if any rank's body panicked.
    pub fn collect<R: Send + 'static>(&self, job: PendingJob<R>) -> Vec<Vec<R>> {
        self.check_usable();
        assert_eq!(
            job.seq,
            self.collect_seq.get(),
            "pipelined jobs must be collected in submission order"
        );
        let results = self
            .workers
            .iter()
            .map(|w| w.res_rx.recv().expect("rank thread exited prematurely"))
            .collect();
        self.collect_seq.set(job.seq + 1);
        let flat: Vec<R> = self
            .unwrap_results(results)
            .into_iter()
            .map(|r| *r.downcast::<R>().expect("result type"))
            .collect();
        self.shape(flat)
    }

    /// Collect `last`, the final job, and shut the cluster down: every job
    /// queue closes first, so each rank thread exits the moment it is done
    /// with `last` rather than after the collect wakes it once more.
    pub fn finish<R: Send + 'static>(mut self, last: PendingJob<R>) -> Vec<Vec<R>> {
        self.close();
        self.collect(last)
    }

    /// Close every job queue; a worker exits once it has run what it got.
    fn close(&mut self) {
        for w in &mut self.workers {
            w.job_tx.take();
        }
    }

    fn check_usable(&self) {
        assert!(
            !self.poisoned.get(),
            "cluster unusable: a rank thread panicked in an earlier operation"
        );
    }

    /// One job's results, one per worker. If any rank panicked, poison the
    /// cluster and re-panic with the message of the first rank whose panic
    /// is its own, not a [`PeerPanicked`] wait it gave up.
    fn unwrap_results(
        &self,
        results: Vec<std::thread::Result<Box<dyn Any + Send>>>,
    ) -> Vec<Box<dyn Any + Send>> {
        let panics = || results.iter().filter_map(|r| r.as_ref().err());
        if let Some(p) = panics()
            .find(|p| !p.is::<PeerPanicked>())
            .or_else(|| panics().next())
        {
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
        self.close();
        for w in &mut self.workers {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
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
/// at `dst_off`, `chunk` bytes at a time — the first two inputs summed
/// straight into `dst` in one pass (a lone input is copied), the rest
/// lane-added over it in place, no scratch vector — calling `done(len)`
/// after each piece so the caller can publish it. The sum runs in input
/// order, so it is bit-identical to copy-then-add.
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
        let at = lo + off;
        dst.with_bytes_mut(dst_off + off, len, |dst| {
            inputs[0].with_bytes(at, len, |a| match inputs.get(1) {
                Some(b) => b.with_bytes(at, len, |b| kernels::add_bytes_into(dst, a, b)),
                None => dst.copy_from_slice(a),
            });
            for inp in inputs.iter().skip(2) {
                inp.with_bytes(at, len, |src| kernels::add_bytes_assign(dst, src));
            }
        });
        done(len);
    }
}

/// The network core's [`wire::Local`]: flow `c` lives in shared region
/// `bufs[c]` from byte `offs[c]` on, which other ranks of the node fill
/// concurrently. `ready(c, off, len)` says whether the node's own
/// contribution to that range has been published; `landed(c, off, len)`
/// hands a finished range to the copy-out ranks (both flow-relative).
/// With `own`, the node's contribution is that region at the same offsets
/// instead — a one-rank node's input, which nobody seeds the result with.
struct RegionLocal<'a, R, F> {
    bufs: &'a [Arc<SharedRegion>],
    offs: &'a [usize],
    own: Option<&'a SharedRegion>,
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
        unsafe { self.bufs[c].with_bytes(self.offs[c] + off, len, f) }
    }

    fn write<T>(&mut self, c: usize, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> T) -> T {
        // SAFETY: as for `read`; other ranks read the range only after
        // `landed` publishes it.
        unsafe { self.bufs[c].with_bytes_mut(self.offs[c] + off, len, f) }
    }

    fn landed(&mut self, c: usize, off: usize, len: usize) {
        (self.landed)(c, off, len)
    }

    fn read_own<T>(&self, c: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> T) -> T {
        match self.own {
            // SAFETY: the input is final from before the collective and
            // nobody writes it during it.
            Some(own) => unsafe { own.with_bytes(self.offs[c] + off, len, f) },
            None => self.read(c, off, len, f),
        }
    }

    fn combine(&mut self, c: usize, off: usize, len: usize, bytes: &[u8]) {
        let Some(own) = self.own else {
            return self.write(c, off, len, |acc| kernels::add_bytes_assign(acc, bytes));
        };
        let at = self.offs[c] + off;
        // SAFETY: as for `write` and `read_own`.
        unsafe {
            self.bufs[c].with_bytes_mut(at, len, |dst| {
                own.with_bytes(at, len, |mine| kernels::add_bytes_into(dst, mine, bytes))
            })
        }
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

    /// The one op-size limit, checked on every rank before any effect and
    /// before the buffer lengths: the widest stream of `bytes` bytes an op
    /// tags must number its chunks within a link [`tag`].
    fn check_size(&self, bytes: usize) {
        let chunk = self.shared.fabric.chunk_bytes();
        assert!(
            tag::fits(bytes, chunk),
            "a {bytes}-byte stream exceeds the link tag's limit of {} chunks of {chunk} bytes",
            tag::CHUNK_LIMIT
        );
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
            (0..n).map(|r| self.ctx.map_cached(r, in_tag)).collect();
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
        self.check_size(len);
        let (m, n) = (self.shared.m, self.shared.n);
        assert!(root_node < m, "root node out of range");
        assert!(buf.len() >= len, "buffer shorter than message");
        let [tag, _] = self.ctx.next_op();
        let me = self.ctx.rank();
        let v = self.node;
        let fabric = &*self.shared.fabric;
        let chunk = fabric.chunk_bytes();

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

        if me == recv_rank || (backfill == Some(2) && me == 0) {
            self.ctx.expose(tag, buf.clone());
        }
        self.ctx.barrier();

        if is_root_node {
            if me == 0 {
                // Network core of the root: inject every chunk into every
                // outbound tree port, then publish it for the local peers.
                let ctr = self.ctx.aux_counter(0);
                wire::tree_send(
                    fabric.bcast_out(v, root_node),
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
                let src = self.ctx.map_cached(0, tag);
                self.chase_copy(buf, &src, len, 0, base, None);
            }
        } else if me == recv_rank {
            // The receiver core: network chunks land directly in the
            // application buffer and each landing is published to the
            // node's other ranks. A single-rank node has none; it forwards
            // each chunk itself while the incoming slot is still on loan.
            let outs = fabric.bcast_out(v, root_node).filter(|_| n == 1);
            self.ctx
                .cluster_stats()
                .bcast_recv_ops
                .fetch_add(1, Ordering::Relaxed);
            let ctr = self.ctx.aux_counter(recv_rank);
            wire::tree_recv(fabric.bcast_in(v, root_node), outs, len, |off, bytes| {
                // SAFETY: sole writer; readers gated on the publish.
                unsafe { buf.write(off, bytes) };
                if n > 1 {
                    ctr.publish(bytes.len() as u64);
                }
            });
        } else if me == 0 {
            // The network core: the same `wire::TreeFeed` loop as the
            // root's, fed by the reception counter instead of a whole
            // message; with only two ranks it also back-fills its own
            // buffer with each range that is out.
            let src = self.ctx.map_cached(recv_rank, tag);
            let ctr = self.ctx.aux_counter(recv_rank);
            wire::tree_send(
                fabric.bcast_out(v, root_node),
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
            let src = self.ctx.map_cached(recv_rank, tag);
            let fill_zero = if backfill == Some(me) {
                Some(self.ctx.map_cached(0, tag))
            } else {
                None
            };
            self.chase_copy(buf, &src, len, recv_rank, base, fill_zero.as_deref());
        }

        self.ctx.close_op(|_| 0);
    }

    /// Cluster-wide allreduce (sum) over `count` doubles — the §V-C
    /// multi-color ring decomposition. Every rank of every node calls with
    /// its own `input`; every `output` receives the global sum, each byte
    /// written once: a color's span is reduced, ringed and landed in its
    /// owner's `output`, and only the other ranks copy it out. A one-rank
    /// node rings straight from its input: nothing is reduced or seeded,
    /// and its output is written only with the result. `input` and
    /// `output` must be distinct regions. SPMD.
    pub fn allreduce_f64(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.check_size(count * 8);
        let (m, n) = (self.shared.m, self.shared.n);
        assert!(input.len() >= count * 8, "input shorter than count");
        assert!(output.len() >= count * 8, "output shorter than count");
        assert!(!Arc::ptr_eq(input, output), "{IN_PLACE}");
        let [in_tag, out_tag] = self.ctx.next_op();
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

        self.ctx.expose(in_tag, input.clone());
        let my_color = if n == 1 {
            Some(0)
        } else if me >= 1 {
            Some(me - 1)
        } else {
            None
        };
        if my_color.is_some() {
            // The owner's output is its color's buffer.
            self.ctx.expose(out_tag, output.clone());
        }
        self.ctx.barrier();

        // Color c lives in its owner's output at its own element offset.
        let cbufs: Vec<Arc<SharedRegion>> = (0..colors)
            .map(|c| self.ctx.map_cached(owner(c), out_tag))
            .collect();
        let offs: Vec<usize> = (0..colors).map(|c| span(c).0 * 8).collect();

        // A one-rank node in a ring has nothing to reduce: the ring reads
        // its input where it is, and the output is written once, with the
        // result.
        let rings_input = n == 1 && m > 1;

        // Phase A — color owners: local reduce of the partition across the
        // node's inputs, pipelined chunk by chunk into their own output.
        if let Some(c) = my_color.filter(|_| !rings_input) {
            let (lo, hi) = span(c);
            self.reduce_span(in_tag, output, lo * 8, lo * 8, hi * 8);
        }

        // Phase B — the network core drives the ring for all colors in the
        // owners' outputs: partials of color c are ready as its owner's
        // stream passes them, landed fulls go out on its result stream.
        if me == 0 && m > 1 {
            let ctx = &self.ctx;
            let spans = (0..colors).map(|c| (span(c).1 - span(c).0) * 8);
            let mut local = RegionLocal {
                bufs: &cbufs,
                offs: &offs,
                own: rings_input.then_some(&**input),
                ready: |c, off, len| {
                    rings_input || ctx.aux_counter(owner(c)).read() - pbase[c] >= (off + len) as u64
                },
                landed: |c, _, len| {
                    ctx.aux_counter(n + c).publish(len as u64);
                },
            };
            wire::flat_ring(&self.shared.fabric, self.node, spans, &mut local);
        }

        // Phase C — every rank copies the other colors' finished chunks out
        // of their owners' outputs, chasing the result counters. An owner
        // skips its own span: it is final by the closing barrier, which rank
        // 0 reaches only after the ring landed every full. A one-rank node
        // owns everything and copies nothing.
        for c in (0..colors).filter(|&c| owner(c) != me) {
            let (lo, hi) = span(c);
            let total = (hi - lo) * 8;
            let mut seen = 0usize;
            while seen < total {
                let avail = self
                    .ctx
                    .aux_counter(rstream(c))
                    .wait_past(rbase[c], seen as u64 + 1) as usize;
                let avail = avail.min(total);
                let at = offs[c] + seen;
                // SAFETY: result counter acquire ordered us after the full
                // chunks were written; our span of our output is ours.
                unsafe { output.copy_from(at, &cbufs[c], at, avail - seen) };
                seen = avail;
            }
        }

        self.ctx.close_op(|_| 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::write_f64s;
    use crate::runtime::window_tags;

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
        assert!(a.iter().flatten().all(|&v| v == window_tags(1)));
        assert!(b.iter().flatten().all(|&v| v == window_tags(2)));
    }

    #[test]
    fn pipelined_jobs_run_fifo_per_worker() {
        let cluster = Cluster::new(2, 2);
        let a = cluster.submit(|cctx| cctx.intra().next_op());
        let b = cluster.submit(|cctx| cctx.intra().next_op());
        let ra = cluster.collect(a);
        let rb = cluster.collect(b);
        assert!(ra.iter().flatten().all(|&v| v == window_tags(1)));
        assert!(rb.iter().flatten().all(|&v| v == window_tags(2)));
        // The cluster is reusable afterwards, up to the job it finishes on.
        let rc = cluster.run(|cctx| cctx.intra().next_op());
        assert!(rc.iter().flatten().all(|&v| v == window_tags(3)));
        let last = cluster.submit(|cctx| cctx.intra().next_op());
        let rd = cluster.finish(last);
        assert!(rd.iter().flatten().all(|&v| v == window_tags(4)));
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

    /// Rank 1 panics while rank 0 waits for it at a barrier: the wait ends
    /// in a `PeerPanicked` of its own, and `run` reports rank 1's panic,
    /// within the deadline instead of never.
    #[test]
    fn rank_panic_ends_a_peer_waiting_on_it() {
        let (msg, mut gave_up) = crate::runtime::panics_within_deadline(1, 2, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
            c.intra().barrier();
        });
        assert_eq!(msg, "rank thread panicked: boom");
        gave_up.sort();
        assert_eq!(gave_up, [false, true], "rank 0 gave up its wait");
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

    /// The fused first pair changes no bit: with 1 to 4 inputs, sums that
    /// round and ragged spans and offsets, `sum_regions` matches
    /// copy-then-add exactly and reports every byte once.
    #[test]
    fn sum_regions_matches_copy_then_add_bit_for_bit() {
        const CHUNK: usize = 64;
        for k in 1..=4usize {
            for (lo, len) in [
                (0, 0),
                (8, 8),
                (0, CHUNK),
                (24, 3 * CHUNK + 40),
                (8, 37 * 8),
            ] {
                let size = lo + len + 16;
                let inputs: Vec<Arc<SharedRegion>> = (0..k)
                    .map(|j| {
                        let r = Arc::new(SharedRegion::new(size));
                        let vals: Vec<f64> = (0..size / 8)
                            .map(|i| (i as f64 + 0.1) / (j as f64 + 3.0))
                            .collect();
                        write_f64s(&r, 0, &vals);
                        r
                    })
                    .collect();
                let mut expect = vec![0u8; len];
                // SAFETY: the regions are this test's alone.
                unsafe { inputs[0].read(lo, &mut expect) };
                for inp in &inputs[1..] {
                    let add = unsafe { inp.snapshot() };
                    kernels::add_bytes_assign(&mut expect, &add[lo..lo + len]);
                }
                let (dst, dst_off) = (SharedRegion::new(len + 16), 16);
                let mut reported = 0;
                // SAFETY: as above.
                unsafe {
                    sum_regions(&dst, dst_off, &inputs, lo, lo + len, CHUNK, |n| {
                        reported += n
                    })
                };
                let got = unsafe { dst.snapshot() };
                assert_eq!(got[dst_off..], expect[..], "{k} inputs, [{lo}, +{len})");
                assert_eq!(reported, len, "{k} inputs, [{lo}, +{len})");
            }
        }
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

    /// Every rank's output is bit-identical to every other rank's, on one
    /// node and across nodes, with inputs whose sums round.
    #[test]
    fn allreduce_outputs_are_bit_identical_on_every_rank() {
        for (m, n) in [(1usize, 3usize), (2, 1), (2, 4), (3, 2)] {
            let cluster = Cluster::with_geometry(m, n, 256, 4);
            for count in [0usize, 1, 31, 1000] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank() as f64;
                    let input = cctx.intra().alloc_buffer((count * 8).max(1));
                    let output = cctx.intra().alloc_buffer((count * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| (i as f64 + 0.1) / (g + 3.0)).collect();
                    write_f64s(&input, 0, &vals);
                    cctx.allreduce_f64(&input, &output, count);
                    crate::collectives::read_f64s(&output, 0, count)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                });
                let first = &out[0][0];
                for (node, ranks) in out.iter().enumerate() {
                    for (rank, got) in ranks.iter().enumerate() {
                        assert_eq!(got, first, "{m}x{n} count={count} node {node} rank {rank}");
                    }
                }
            }
        }
    }

    /// Every blocking collective, the flat ring and the tree included,
    /// refuses an op at the link tag's limit on every rank — before the
    /// buffer lengths, which are 8 bytes here.
    #[test]
    fn collectives_at_the_op_size_limit_are_refused_on_every_rank() {
        type Op = fn(&mut ClusterCtx, &Arc<SharedRegion>, &Arc<SharedRegion>, usize);
        let ops: [Op; 6] = [
            |c, a, _, limit| c.bcast(0, a, limit),
            |c, a, b, limit| c.allreduce_f64(a, b, limit / 8),
            |c, a, b, limit| c.allreduce_f64_node_aware(a, b, limit / 8),
            |c, a, b, limit| c.reduce_scatter_f64(a, b, limit / 8),
            // Two ranks' blocks make one node's segment.
            |c, a, b, limit| c.allgather(a, b, limit / 2),
            // Two by two ranks' blocks make one node pair's payload.
            |c, a, b, limit| c.alltoall(a, b, limit / 4),
        ];
        for op in ops {
            let msg = crate::runtime::refusal(2, 2, move |c| {
                let (a, b) = (c.intra().alloc_buffer(8), c.intra().alloc_buffer(8));
                op(c, &a, &b, tag::CHUNK_LIMIT * DEFAULT_CHUNK_BYTES)
            });
            assert!(
                msg.contains(&format!("limit of {} chunks", tag::CHUNK_LIMIT)),
                "{msg}"
            );
        }
    }

    #[test]
    fn allreduce_refuses_to_run_in_place() {
        let msg = crate::runtime::refusal(2, 2, |c| {
            let buf = c.intra().alloc_buffer(64);
            c.allreduce_f64(&buf, &buf, 8)
        });
        assert!(msg.contains(IN_PLACE), "{msg}");
    }
}
