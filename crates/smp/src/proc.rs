//! The cross-process backend: the cluster protocols over an mmap'd
//! segment, one OS process per node.
//!
//! The thread-backed [`crate::cluster::Cluster`] shares memory because
//! threads share an address space; on a real machine (and on BG/P, where
//! the four cores run separate CNK processes) sharing has to be arranged.
//! This module arranges it: a [`ProcCluster`] creates one
//! [`bgp_shmem::proc::ShmSegment`], lays the *entire* link fabric — every
//! cursor, cycle tag, and chunk payload — inside it, and spawns one worker
//! process per non-zero node (re-executing the current binary; see
//! [`maybe_worker`]). Every process then attaches a [`ProcSlots`] view per
//! link and runs the *same* `ChunkChannel`/`Fabric` protocol the
//! in-process cluster runs: the storage trait is the only thing that
//! changed, so the model-checked heap twin remains the oracle for this
//! backend.
//!
//! ## Segment layout (after the `bgp-shmem` header)
//!
//! ```text
//! job record     1 seqlock     (job id, kind, root, len, seed)
//! status[v]      m-1 seqlocks  (job id done, status), workers v = 1..m
//! result[v]      m-1 regions   (max_msg bytes each; worker v's operand)
//! links          the fabric: up[1..m], down[1..m], plus[0..m), minus[0..m)
//! ```
//!
//! Control flow is seqlock-published ([`bgp_shmem::seqlock::SeqLock`] over
//! segment words): the parent publishes a job record; workers poll it, run
//! the collective and publish their status record. The parent participates
//! as node 0, then gathers statuses. A worker that dies mid-collective is
//! detected by the parent's child-liveness poll; the segment is poisoned
//! and the failure surfaces as a typed [`ProcError::WorkerCrashed`] — never
//! a hang.
//!
//! ## Data path
//!
//! Every payload byte is written once, into the memory it is returned
//! from. A worker's operand *is* its result region: broadcast chunks land
//! in it straight off the slot loan, the ring reduces in it, allreduce
//! inputs are generated into it. Node 0's operand *is* the `Vec` the
//! parent returns as node 0's result. A broadcast root generates its
//! payload chunk by chunk inside the injection loop, so generation
//! overlaps the receivers. The parent copies worker `v`'s region out as
//! soon as it sees status `v`, while later workers are still finishing.
//! What remains per operation is the by-value result: `m` fresh
//! allocations.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bgp_shmem::proc::{ShmError, ShmSegment};
use bgp_shmem::seqlock::{SeqLock, SeqWords};
use bgp_shmem::sync::atomic::{AtomicU64, Ordering};

use crate::transport::{ChunkChannel, Fabric, SlotStore};
use crate::wire;

/// Environment variables that turn a re-exec of the current binary into a
/// worker process. [`maybe_worker`] reads them.
const ENV_WORKER: &str = "BGP_PROC_WORKER";
const ENV_SEG: &str = "BGP_PROC_SEG";
const ENV_NODE: &str = "BGP_PROC_ID";

/// Job kinds carried in the job record. Job id 0 (the zeroed segment)
/// means "no job yet"; kinds start at 1.
const JOB_BCAST: u64 = 1;
const JOB_ALLREDUCE: u64 = 2;
const JOB_EXIT: u64 = 3;
/// Test-only: the worker whose node id equals the job's `root` word exits
/// immediately without running the collective (crash injection).
const JOB_CRASH: u64 = 4;

/// Poison code stored when the parent sees a worker die.
const POISON_WORKER_DEATH: u64 = 1;

/// Typed failures of the cross-process cluster.
#[derive(Debug)]
pub enum ProcError {
    /// Segment creation/attach failed (see [`ShmError`]).
    Segment(ShmError),
    /// Spawning a worker process failed.
    Spawn(std::io::Error),
    /// A worker process exited mid-collective. The segment has been
    /// poisoned; the cluster is unusable afterwards.
    WorkerCrashed {
        /// Node id of the dead worker.
        node: usize,
        /// The job it died under.
        job: u64,
    },
    /// A worker reported a nonzero status for a job.
    WorkerFailed {
        /// Node id of the failing worker.
        node: usize,
        /// Its status code.
        status: u64,
    },
    /// The cluster was already poisoned by an earlier failure.
    Poisoned {
        /// The segment's poison code.
        code: u64,
    },
    /// The message does not fit the result regions the cluster was built
    /// with. Nothing was published; the cluster stays usable.
    MessageTooLarge {
        /// Bytes asked for.
        len: usize,
        /// The cluster's `max_msg`.
        max: usize,
    },
    /// The broadcast root is not a node of this cluster. Nothing was
    /// published; the cluster stays usable.
    BadRoot {
        /// Root asked for.
        root: usize,
        /// Nodes in the cluster.
        nodes: usize,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Segment(e) => write!(f, "segment error: {e}"),
            ProcError::Spawn(e) => write!(f, "failed to spawn a worker: {e}"),
            ProcError::WorkerCrashed { node, job } => {
                write!(f, "worker process for node {node} died during job {job}")
            }
            ProcError::WorkerFailed { node, status } => {
                write!(f, "worker for node {node} reported status {status}")
            }
            ProcError::Poisoned { code } => {
                write!(f, "cluster poisoned by an earlier failure (code {code})")
            }
            ProcError::MessageTooLarge { len, max } => {
                write!(f, "{len}-byte message exceeds the {max}-byte regions")
            }
            ProcError::BadRoot { root, nodes } => {
                write!(f, "root {root} is not one of the cluster's {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for ProcError {}

impl From<ShmError> for ProcError {
    fn from(e: ShmError) -> Self {
        match e {
            ShmError::Poisoned { code } => ProcError::Poisoned { code },
            other => ProcError::Segment(other),
        }
    }
}

// ---------------------------------------------------------------------------
// ProcSlots: SlotStore over segment memory
// ---------------------------------------------------------------------------

/// Cache-line quantum for segment sub-allocations.
const LINE: usize = 64;

const fn round_line(n: usize) -> usize {
    n.div_ceil(LINE) * LINE
}

/// Bytes one channel occupies in the segment: two cache-line cursors, then
/// `cap` slots of a one-line header (`seq`, `tag`, `len`) plus the payload
/// rounded to whole lines.
fn channel_bytes(cap: usize, chunk_bytes: usize) -> usize {
    2 * LINE + cap * (LINE + round_line(chunk_bytes))
}

/// A [`SlotStore`] viewing one channel's storage inside a mapped segment.
///
/// Layout within the channel's range (all offsets line-aligned):
/// `+0` send cursor, `+64` recv cursor, then per slot: `+0` seq, `+8` tag,
/// `+16` len, `+64` payload. Every process constructs its own `ProcSlots`
/// over the same offsets of its own mapping; the atomics address the same
/// physical words.
pub struct ProcSlots {
    base: *mut u8,
    cap: usize,
    chunk_bytes: usize,
    stride: usize,
    /// Keeps the mapping alive for as long as any channel view exists.
    _seg: Arc<ShmSegment>,
}

// SAFETY: all shared-word access goes through atomics; payload access is
// ordered by the channel's cycle-tag protocol (same contract as HeapSlots).
unsafe impl Send for ProcSlots {}
unsafe impl Sync for ProcSlots {}

impl ProcSlots {
    /// View a channel at `byte_off` into `seg`'s payload. `init` must be
    /// true exactly once per channel, in the segment creator *before* any
    /// worker attaches: it writes the initial cycle tags (`seq(i) = i`;
    /// zeroed memory is correct for slot 0 only).
    ///
    /// # Panics
    ///
    /// If the range is unaligned or out of bounds.
    pub fn attach(
        seg: &Arc<ShmSegment>,
        byte_off: usize,
        cap: usize,
        chunk_bytes: usize,
        init: bool,
    ) -> Self {
        assert!(
            byte_off.is_multiple_of(LINE),
            "channel base must be line-aligned"
        );
        let bytes = channel_bytes(cap, chunk_bytes);
        assert!(
            byte_off + bytes <= seg.payload_len(),
            "channel out of segment bounds"
        );
        let s = ProcSlots {
            // SAFETY: in-bounds per the assert above.
            base: unsafe { seg.payload_ptr().add(byte_off) },
            cap,
            chunk_bytes,
            stride: LINE + round_line(chunk_bytes),
            _seg: seg.clone(),
        };
        if init {
            for i in 0..cap {
                s.seq(i).store(i, Ordering::Release);
            }
        }
        s
    }

    /// Segment payload bytes one channel of this shape occupies — for
    /// sizing standalone channels outside a [`ProcLayout`] (benches).
    pub fn bytes_for(cap: usize, chunk_bytes: usize) -> usize {
        channel_bytes(cap, chunk_bytes)
    }

    #[inline]
    fn slot_base(&self, i: usize) -> *mut u8 {
        debug_assert!(i < self.cap);
        // SAFETY: in-bounds per the attach-time assert.
        unsafe { self.base.add(2 * LINE + i * self.stride) }
    }

    #[inline]
    fn word(&self, byte_off: usize) -> *mut u64 {
        // SAFETY: in-bounds per the attach-time assert; 8-aligned because
        // every sub-offset used is a multiple of 8 off a line-aligned base.
        unsafe { self.base.add(byte_off) as *mut u64 }
    }
}

// SAFETY: the words live as long as the mapping (held via `_seg`), `seq(i)`
// of a freshly `init`-ed store reads `i` with both cursors 0 (the segment
// is created zeroed), and slots address disjoint storage shared physically
// by every mapping of the segment.
unsafe impl SlotStore for ProcSlots {
    #[inline]
    fn cap(&self) -> usize {
        self.cap
    }

    #[inline]
    fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    #[inline]
    fn seq(&self, i: usize) -> &AtomicUsize {
        // SAFETY: in-bounds, 8-aligned, accessed only atomically.
        unsafe { AtomicUsize::from_ptr(self.slot_base(i) as *mut usize) }
    }

    #[inline]
    fn send_cursor(&self) -> &AtomicUsize {
        // SAFETY: as for `seq`.
        unsafe { AtomicUsize::from_ptr(self.word(0) as *mut usize) }
    }

    #[inline]
    fn recv_cursor(&self) -> &AtomicUsize {
        // SAFETY: as for `seq`.
        unsafe { AtomicUsize::from_ptr(self.word(LINE) as *mut usize) }
    }

    unsafe fn set_header(&self, i: usize, tag: u64, len: usize) {
        let p = self.slot_base(i);
        // Plain stores: the cycle-tag protocol (Release publish / Acquire
        // observe on `seq`) orders them, exactly as for HeapSlots' cells.
        (p.add(8) as *mut u64).write(tag);
        (p.add(16) as *mut u64).write(len as u64);
    }

    unsafe fn header(&self, i: usize) -> (u64, usize) {
        let p = self.slot_base(i);
        (
            (p.add(8) as *mut u64).read(),
            (p.add(16) as *mut u64).read() as usize,
        )
    }

    unsafe fn with_data<R>(&self, i: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        debug_assert!(len <= self.chunk_bytes);
        f(std::slice::from_raw_parts(self.slot_base(i).add(LINE), len))
    }

    unsafe fn with_data_mut<R>(&self, i: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        debug_assert!(len <= self.chunk_bytes);
        f(std::slice::from_raw_parts_mut(
            self.slot_base(i).add(LINE),
            len,
        ))
    }
}

// ---------------------------------------------------------------------------
// Segment layout
// ---------------------------------------------------------------------------

/// Seqlock record width (data words): a job uses all five, a status the
/// first two.
const REC_WORDS: usize = 5;
/// Bytes one seqlock record occupies (version + data, line-rounded).
const REC_BYTES: usize = round_line(8 * (1 + REC_WORDS));

/// Where everything lives inside the segment payload, computed identically
/// in every process from the geometry words.
#[derive(Clone, Copy)]
pub struct ProcLayout {
    /// Nodes.
    pub m: usize,
    /// Link chunk payload bytes.
    pub chunk_bytes: usize,
    /// Link window (slots per channel).
    pub window: usize,
    /// Per-node result region bytes (the largest message supported).
    pub max_msg: usize,
}

impl ProcLayout {
    fn job_off(&self) -> usize {
        0
    }

    /// Worker `v`'s status record; record slot 0 is the job.
    fn status_off(&self, v: usize) -> usize {
        debug_assert!((1..self.m).contains(&v));
        REC_BYTES * v
    }

    /// Worker `v`'s result region. Node 0's result never enters the
    /// segment, so it has none.
    fn result_off(&self, v: usize) -> usize {
        debug_assert!((1..self.m).contains(&v));
        REC_BYTES * self.m + round_line(self.max_msg) * (v - 1)
    }

    fn links_off(&self) -> usize {
        REC_BYTES * self.m + round_line(self.max_msg) * (self.m - 1)
    }

    fn chan_bytes(&self) -> usize {
        channel_bytes(self.window, self.chunk_bytes)
    }

    /// Total payload bytes the segment needs.
    pub fn payload_len(&self) -> usize {
        // up + down for nodes 1..m, plus + minus for all m nodes (m > 1).
        let links = if self.m > 1 {
            2 * (self.m - 1) + 2 * self.m
        } else {
            0
        };
        self.links_off() + links * self.chan_bytes()
    }

    /// Geometry words stored in the segment header at create time.
    fn geometry(&self) -> [u64; 4] {
        [
            self.m as u64,
            self.chunk_bytes as u64,
            self.window as u64,
            self.max_msg as u64,
        ]
    }

    /// Recover the layout from an attached segment's geometry words.
    fn from_segment(seg: &ShmSegment) -> Self {
        ProcLayout {
            m: seg.geometry(0) as usize,
            chunk_bytes: seg.geometry(1) as usize,
            window: seg.geometry(2) as usize,
            max_msg: seg.geometry(3) as usize,
        }
    }

    /// Build this process's fabric view over the segment. `init` only in
    /// the creator, before workers attach.
    fn fabric(&self, seg: &Arc<ShmSegment>, init: bool) -> Fabric<ProcSlots> {
        let mut off = self.links_off();
        let mut next = |_: &str| {
            let o = off;
            off += self.chan_bytes();
            ChunkChannel::over(ProcSlots::attach(
                seg,
                o,
                self.window,
                self.chunk_bytes,
                init,
            ))
        };
        let mut up = vec![None];
        let mut down = vec![None];
        let (mut plus, mut minus) = (Vec::new(), Vec::new());
        if self.m > 1 {
            for _v in 1..self.m {
                up.push(Some(next("up")));
            }
            for _v in 1..self.m {
                down.push(Some(next("down")));
            }
            for _v in 0..self.m {
                plus.push(next("plus"));
            }
            for _v in 0..self.m {
                minus.push(next("minus"));
            }
        }
        while up.len() < self.m {
            up.push(None); // unreachable (m == 1 has only the root)
        }
        while down.len() < self.m {
            down.push(None);
        }
        Fabric::from_links(self.m, self.chunk_bytes, up, down, plus, minus)
    }
}

// ---------------------------------------------------------------------------
// Single-rank node runners: thin calls into `crate::wire`, the one copy of
// the tree and ring protocols, which the thread cluster runs over heap links
// ---------------------------------------------------------------------------

/// One node's part of a cluster broadcast, single rank per node: the root
/// injects `buf` into every outbound tree port; every other node receives
/// on its root-facing port into `buf`, forwarding each chunk while the
/// incoming slot is still on loan. Byte-for-byte the root and `n == 1` arms
/// of [`crate::cluster::ClusterCtx::bcast`] — they are the same code.
pub fn node_bcast<S: SlotStore>(fabric: &Fabric<S>, v: usize, root: usize, buf: &mut [u8]) {
    let (outs, len) = (fabric.bcast_out(v, root), buf.len());
    if v == root {
        let fill = |off: usize, dst: &mut [u8]| dst.copy_from_slice(&buf[off..off + dst.len()]);
        wire::tree_send(outs, fabric.chunk_bytes(), len, || len, fill, |_, _| {});
    } else {
        wire::tree_recv(fabric.bcast_in(v, root), outs, len, |off, bytes| {
            buf[off..off + bytes.len()].copy_from_slice(bytes)
        });
    }
}

/// The root's part of a [`ProcCluster`] broadcast: `buf` becomes the
/// [`bcast_pattern`] for `seed`, generated a chunk at a time inside the
/// injection loop — once per chunk however many ports the root has — so
/// the receivers work on one chunk while the next is being generated.
fn root_bcast_generated<S: SlotStore>(fabric: &Fabric<S>, root: usize, seed: u64, buf: &mut [u8]) {
    let (outs, len) = (fabric.bcast_out(root, root), buf.len());
    let mut done = 0; // bytes of `buf` generated so far
    let fill = |off: usize, dst: &mut [u8]| {
        let end = off + dst.len();
        if end > done {
            bcast_pattern_into(seed, off, &mut buf[off..end]);
            done = end;
        }
        dst.copy_from_slice(&buf[off..end]);
    };
    wire::tree_send(outs, fabric.chunk_bytes(), len, || len, fill, |_, _| {});
    // A root without ports (m == 1) was never asked for a chunk.
    bcast_pattern_into(seed, done, &mut buf[done..]);
}

/// One node's part of a cluster allreduce (sum of f64s), single rank per
/// node: the flat ring engine of
/// [`crate::cluster::ClusterCtx::allreduce_f64`] with one color (`n == 1`
/// ⇒ color 0 on the `Plus` ring) over a buffer this node owns outright,
/// `data` being both the node's input and, on return, the global sum.
/// Bitwise identical to the thread cluster's result by construction.
pub fn node_allreduce_f64<S: SlotStore>(fabric: &Fabric<S>, v: usize, data: &mut [u8]) {
    debug_assert!(data.len().is_multiple_of(8));
    if fabric.n_nodes() > 1 {
        wire::flat_ring(fabric, v, [data.len()], data);
    } // else the local partial is the result
}

// ---------------------------------------------------------------------------
// Deterministic test patterns (shared by parent and workers)
// ---------------------------------------------------------------------------

/// Byte `i` of the broadcast payload for `seed`.
#[inline]
fn pattern_byte(seed: u64, i: u64) -> u8 {
    (seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8
}

/// Broadcast payload for a given seed: a byte pattern any process can
/// regenerate.
pub fn bcast_pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|i| pattern_byte(seed, i)).collect()
}

/// Bytes `off..off + dst.len()` of [`bcast_pattern`]`(seed, ..)`, written
/// in place: any piece of the payload, with no whole to slice it from.
pub fn bcast_pattern_into(seed: u64, off: usize, dst: &mut [u8]) {
    for (b, i) in dst.iter_mut().zip(off as u64..) {
        *b = pattern_byte(seed, i);
    }
}

/// Node `v`'s allreduce input for a given seed, as raw f64 bytes.
pub fn allreduce_input(seed: u64, v: usize, count: usize) -> Vec<u8> {
    let mut out = vec![0u8; count * 8];
    allreduce_input_into(seed, v, &mut out);
    out
}

/// [`allreduce_input`]`(seed, v, dst.len() / 8)`, written in place.
fn allreduce_input_into(seed: u64, v: usize, dst: &mut [u8]) {
    for (i, out) in dst.chunks_exact_mut(8).enumerate() {
        let x = seed
            .wrapping_mul(31)
            .wrapping_add(v as u64 * 17)
            .wrapping_add(i as u64);
        let val = (x % 1000) as f64 * 0.25 - 100.0;
        out.copy_from_slice(&val.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Records (seqlock-published control words)
// ---------------------------------------------------------------------------

/// `SeqWords` over a record's words in the segment (version + REC_WORDS).
struct RecWords {
    base: *mut u64,
    _seg: Arc<ShmSegment>,
}

// SAFETY: all access is through atomics.
unsafe impl Send for RecWords {}
unsafe impl Sync for RecWords {}

impl RecWords {
    fn at(seg: &Arc<ShmSegment>, byte_off: usize) -> SeqLock<RecWords> {
        assert!(byte_off.is_multiple_of(8) && byte_off + REC_BYTES <= seg.payload_len());
        SeqLock::over(RecWords {
            // SAFETY: in-bounds per the assert.
            base: unsafe { seg.payload_ptr().add(byte_off) } as *mut u64,
            _seg: seg.clone(),
        })
    }
}

impl SeqWords for RecWords {
    fn seq(&self) -> &AtomicU64 {
        // SAFETY: in-bounds, 8-aligned, atomic-only access.
        unsafe { AtomicU64::from_ptr(self.base) }
    }

    fn n_words(&self) -> usize {
        REC_WORDS
    }

    fn word(&self, i: usize) -> &AtomicU64 {
        assert!(i < REC_WORDS);
        // SAFETY: as for `seq`.
        unsafe { AtomicU64::from_ptr(self.base.add(1 + i)) }
    }
}

// ---------------------------------------------------------------------------
// The worker loop
// ---------------------------------------------------------------------------

/// Base pointer of worker `v`'s result region (`l.max_msg` bytes). Written
/// only by worker `v` (before its status publish), read only by the parent
/// (after observing that publish) — release/acquire on the status record
/// orders the two; callers materialize the slice flavor they need.
unsafe fn result_ptr(seg: &ShmSegment, l: &ProcLayout, v: usize) -> *mut u8 {
    seg.payload_ptr().add(l.result_off(v))
}

/// Node `v`'s part of collective `job`, in place over `buf` — the node's
/// operand, exactly the job's `len` bytes, and on return its result.
fn run_job(fabric: &Fabric<ProcSlots>, v: usize, job: &[u64; REC_WORDS], buf: &mut [u8]) {
    let (kind, root, seed) = (job[1], job[2] as usize, job[4]);
    debug_assert_eq!(buf.len() as u64, job[3]);
    match kind {
        JOB_BCAST if v == root => root_bcast_generated(fabric, root, seed, buf),
        JOB_BCAST => node_bcast(fabric, v, root, buf),
        JOB_ALLREDUCE => {
            allreduce_input_into(seed, v, buf);
            node_allreduce_f64(fabric, v, buf);
        }
        _ => {}
    }
}

/// Worker-process entry hook. **Call this first in `main`** of any binary
/// that constructs a [`ProcCluster`] (the re-exec lands back in that same
/// binary): if the worker environment variables are present, this function
/// attaches the segment, serves jobs until [`shutdown`](ProcCluster::shutdown)
/// (or until the parent dies / the segment is poisoned), and **exits the
/// process**. Returns `false` when not a worker.
pub fn maybe_worker() -> bool {
    if std::env::var_os(ENV_WORKER).is_none() {
        return false;
    }
    let path = PathBuf::from(std::env::var_os(ENV_SEG).expect("worker without segment path"));
    let v: usize = std::env::var(ENV_NODE)
        .expect("worker without node id")
        .parse()
        .expect("bad node id");
    let code = match worker_loop(&path, v) {
        Ok(()) => 0,
        Err(_) => 3,
    };
    std::process::exit(code);
}

fn worker_loop(path: &std::path::Path, v: usize) -> Result<(), ProcError> {
    let seg = Arc::new(ShmSegment::open(path)?);
    let l = ProcLayout::from_segment(&seg);
    assert!((1..l.m).contains(&v), "worker node id out of range");
    let fabric = l.fabric(&seg, false);
    let job_rec = RecWords::at(&seg, l.job_off());
    let status = RecWords::at(&seg, l.status_off(v));
    let ppid = bgp_shmem::proc::parent_pid();
    let mut done = 0u64;
    let mut job = [0u64; REC_WORDS];
    let mut idle = 0u32;
    loop {
        job_rec.read_into(&mut job);
        if job[0] <= done {
            // No new job. Poll cheaply; check liveness/poison only every
            // few thousand spins to keep the idle loop light.
            idle = idle.wrapping_add(1);
            if idle.is_multiple_of(4096) {
                if bgp_shmem::proc::parent_pid() != ppid {
                    return Ok(()); // orphaned: the parent died
                }
                seg.check_healthy()?;
            }
            std::thread::yield_now();
            continue;
        }
        done = job[0];
        match job[1] {
            JOB_EXIT => return Ok(()),
            JOB_CRASH if job[2] as usize == v => {
                // Crash injection: die without a status, mid-"collective".
                std::process::exit(42);
            }
            JOB_CRASH => {} // everyone else acknowledges and keeps serving
            _ => {
                let len = job[3] as usize;
                assert!(len <= l.max_msg, "job exceeds the result region");
                // SAFETY: in-bounds per the asserts on `v` and `len`; worker
                // v alone touches its region until the status publish below
                // (`result_ptr`).
                let buf = unsafe { std::slice::from_raw_parts_mut(result_ptr(&seg, &l, v), len) };
                run_job(&fabric, v, &job, buf);
            }
        }
        status.publish(&[job[0], 0]);
    }
}

// ---------------------------------------------------------------------------
// The parent-side cluster
// ---------------------------------------------------------------------------

/// A cluster of `m` single-rank nodes, each its own OS process, over one
/// shared segment. The creating process is node 0 and participates in
/// every collective; nodes `1..m` are spawned workers. See the module docs
/// for the control protocol.
pub struct ProcCluster {
    seg: Arc<ShmSegment>,
    layout: ProcLayout,
    fabric: Fabric<ProcSlots>,
    job_rec: SeqLock<RecWords>,
    workers: Vec<Worker>,
    job_id: u64,
    dead: bool,
}

/// The parent's handle on one worker process.
struct Worker {
    node: usize,
    child: Child,
    status: SeqLock<RecWords>,
}

impl ProcCluster {
    /// Spawn an `m`-node cross-process cluster with `window`-chunk links of
    /// `chunk_bytes`, supporting messages up to `max_msg` bytes.
    ///
    /// # Panics
    ///
    /// Before the segment exists or a worker is forked: on a geometry
    /// [`Cluster::with_geometry`](crate::Cluster::with_geometry) refuses,
    /// or a `max_msg` past the op-size limit of a link [`wire::tag`].
    pub fn new(
        m: usize,
        chunk_bytes: usize,
        window: usize,
        max_msg: usize,
    ) -> Result<Self, ProcError> {
        assert!(m >= 1, "a cluster needs at least one node");
        crate::cluster::check_geometry(chunk_bytes, window);
        assert!(
            wire::tag::fits(max_msg, chunk_bytes),
            "a {max_msg}-byte message exceeds the link tag's limit of {} chunks",
            wire::tag::CHUNK_LIMIT
        );
        let layout = ProcLayout {
            m,
            chunk_bytes,
            window,
            max_msg,
        };
        let seg = Arc::new(ShmSegment::create(
            layout.payload_len(),
            &layout.geometry(),
        )?);
        let fabric = layout.fabric(&seg, true);
        let exe = std::env::current_exe().map_err(ProcError::Spawn)?;
        let mut workers: Vec<Worker> = Vec::new();
        for node in 1..m {
            let child = Command::new(&exe)
                .env(ENV_WORKER, "1")
                .env(ENV_SEG, seg.path())
                .env(ENV_NODE, node.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(ProcError::Spawn);
            match child {
                Ok(child) => workers.push(Worker {
                    node,
                    child,
                    status: RecWords::at(&seg, layout.status_off(node)),
                }),
                Err(e) => {
                    // Kill what we spawned; the Drop impl can't run yet.
                    for mut w in workers {
                        let _ = w.child.kill();
                        let _ = w.child.wait();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ProcCluster {
            job_rec: RecWords::at(&seg, layout.job_off()),
            seg,
            layout,
            fabric,
            workers,
            job_id: 0,
            dead: false,
        })
    }

    /// Nodes.
    pub fn n_nodes(&self) -> usize {
        self.layout.m
    }

    /// This process's (node 0's) fabric view — lets tests observe link
    /// counters across all processes (the cursors are segment words).
    pub fn fabric(&self) -> &Fabric<ProcSlots> {
        &self.fabric
    }

    /// Refuse before anything is published: a poisoned cluster, or a
    /// message the result regions cannot hold.
    fn check_usable(&self, len: usize) -> Result<(), ProcError> {
        if self.dead {
            return Err(ProcError::Poisoned {
                code: self.seg.poisoned().unwrap_or(POISON_WORKER_DEATH),
            });
        }
        self.seg.check_healthy()?;
        if len > self.layout.max_msg {
            return Err(ProcError::MessageTooLarge {
                len,
                max: self.layout.max_msg,
            });
        }
        Ok(())
    }

    fn publish_job(&mut self, kind: u64, root: u64, len: u64, seed: u64) -> [u64; REC_WORDS] {
        self.job_id += 1;
        let job = [self.job_id, kind, root, len, seed];
        self.job_rec.publish(&job);
        job
    }

    /// Publish one collective job, take part in it as node 0 — through
    /// [`run_job`], the very code the workers run, over the `Vec` that is
    /// returned as node 0's result — and gather every worker's `len`
    /// result bytes behind it, in node order.
    fn collective(
        &mut self,
        kind: u64,
        root: usize,
        len: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u8>>, ProcError> {
        self.check_usable(len)?;
        let job = self.publish_job(kind, root as u64, len as u64, seed);
        let mut own = vec![0u8; len];
        run_job(&self.fabric, 0, &job, &mut own);
        let mut out = Vec::with_capacity(self.layout.m);
        out.push(own);
        self.gather(job[0], len, &mut out)?;
        Ok(out)
    }

    /// Wait, worker by worker, for the status of `job`, and push the first
    /// `len` bytes of each worker's result region onto `out` as soon as
    /// its status is seen — later workers are still finishing meanwhile.
    /// Polls worker liveness: on a worker death, poison the segment, mark
    /// the cluster dead, and report which node died — a clean typed error,
    /// not a hang.
    fn gather(&mut self, job: u64, len: usize, out: &mut Vec<Vec<u8>>) -> Result<(), ProcError> {
        let mut rec = [0u64; 2];
        for i in 0..self.workers.len() {
            let mut last_live_check = Instant::now();
            loop {
                self.workers[i].status.read_into(&mut rec);
                if rec[0] == job {
                    break;
                }
                if last_live_check.elapsed() > Duration::from_millis(20) {
                    last_live_check = Instant::now();
                    if let Some(dead) = self.any_dead_worker() {
                        self.seg.poison(POISON_WORKER_DEATH);
                        self.dead = true;
                        self.reap();
                        return Err(ProcError::WorkerCrashed { node: dead, job });
                    }
                }
                std::thread::yield_now();
            }
            let node = self.workers[i].node;
            if rec[1] != 0 {
                return Err(ProcError::WorkerFailed {
                    node,
                    status: rec[1],
                });
            }
            // SAFETY: `len <= max_msg` (`check_usable`), and the acquire
            // read of the status above ordered the worker's writes before
            // this read-only view (`result_ptr`).
            let region = unsafe {
                std::slice::from_raw_parts(result_ptr(&self.seg, &self.layout, node), len)
            };
            out.push(region.to_vec());
        }
        Ok(())
    }

    fn any_dead_worker(&mut self) -> Option<usize> {
        for w in &mut self.workers {
            if let Ok(Some(_)) = w.child.try_wait() {
                return Some(w.node);
            }
        }
        None
    }

    fn reap(&mut self) {
        for w in &mut self.workers {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        self.workers.clear();
    }

    /// Cluster broadcast: node `root`'s deterministic
    /// [`bcast_pattern`]`(seed, len)` payload lands on every node. Returns
    /// each node's received bytes, in node order.
    pub fn bcast(&mut self, root: usize, seed: u64, len: usize) -> Result<Vec<Vec<u8>>, ProcError> {
        if root >= self.layout.m {
            return Err(ProcError::BadRoot {
                root,
                nodes: self.layout.m,
            });
        }
        self.collective(JOB_BCAST, root, len, seed)
    }

    /// Cluster allreduce over `count` doubles: node `v` contributes
    /// [`allreduce_input`]`(seed, v, count)`. Returns each node's result
    /// bytes (all identical on success), in node order.
    pub fn allreduce(&mut self, seed: u64, count: usize) -> Result<Vec<Vec<u8>>, ProcError> {
        self.collective(JOB_ALLREDUCE, 0, count.saturating_mul(8), seed)
    }

    /// Crash injection (tests): direct the worker for `node` to exit
    /// mid-job, then gather — which must report the crash.
    pub fn inject_crash(&mut self, node: usize) -> Result<(), ProcError> {
        assert!(node >= 1 && node < self.layout.m, "can only crash a worker");
        self.check_usable(0)?;
        let job = self.publish_job(JOB_CRASH, node as u64, 0, 0)[0];
        self.gather(job, 0, &mut Vec::new())
    }

    /// Orderly shutdown: direct workers to exit and wait for them.
    pub fn shutdown(mut self) -> Result<(), ProcError> {
        self.shutdown_inner();
        Ok(())
    }

    fn shutdown_inner(&mut self) {
        if !self.workers.is_empty() && !self.dead {
            self.publish_job(JOB_EXIT, 0, 0, 0);
            let deadline = Instant::now() + Duration::from_secs(5);
            for w in &mut self.workers {
                loop {
                    match w.child.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() > deadline => {
                            let _ = w.child.kill();
                            let _ = w.child.wait();
                            break;
                        }
                        _ => std::thread::yield_now(),
                    }
                }
            }
            self.workers.clear();
        }
    }
}

impl Drop for ProcCluster {
    fn drop(&mut self) {
        self.shutdown_inner();
        self.reap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_into_at_any_offset_is_a_slice_of_the_whole_pattern() {
        let whole = bcast_pattern(0xDEAD_BEEF, 10_000);
        for (off, len) in [(0, 0), (0, 1), (1, 4095), (4097, 4096), (9_993, 7)] {
            let mut part = vec![0xAAu8; len];
            bcast_pattern_into(0xDEAD_BEEF, off, &mut part);
            assert_eq!(part, whole[off..off + len], "off={off} len={len}");
        }
    }
}
