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
//! job record     1 seqlock   (job id, kind, root, len, seed)
//! status[v]      m seqlocks  (job id done, status, checksum)
//! result[v]      m regions   (max_msg bytes each; worker v's output)
//! links          the fabric: up[1..m], down[1..m], plus[0..m), minus[0..m)
//! ```
//!
//! Control flow is seqlock-published ([`bgp_shmem::seqlock::SeqLock`] over
//! segment words): the parent publishes a job record; workers poll it, run
//! the collective, write their output into their result region, and
//! publish their status record. The parent participates as node 0, then
//! gathers statuses. A worker that dies mid-collective is detected by the
//! parent's child-liveness poll; the segment is poisoned and the failure
//! surfaces as a typed [`ProcError::WorkerCrashed`] — never a hang.

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

/// Seqlock record width (data words) for jobs and statuses.
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

    fn status_off(&self, v: usize) -> usize {
        debug_assert!(v < self.m);
        REC_BYTES * (1 + v)
    }

    fn result_off(&self, v: usize) -> usize {
        debug_assert!(v < self.m);
        REC_BYTES * (1 + self.m) + round_line(self.max_msg) * v
    }

    fn links_off(&self) -> usize {
        REC_BYTES * (1 + self.m) + round_line(self.max_msg) * self.m
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
        wire::tree_send(&outs, fabric.chunk_bytes(), len, fill, |_, _| {});
    } else {
        wire::tree_recv(fabric.bcast_in(v, root), &outs, len, |off, bytes| {
            buf[off..off + bytes.len()].copy_from_slice(bytes)
        });
    }
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

/// Broadcast payload for a given seed: a byte pattern any process can
/// regenerate.
pub fn bcast_pattern(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            (seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                >> 56) as u8
        })
        .collect()
}

/// Node `v`'s allreduce input for a given seed, as raw f64 bytes.
pub fn allreduce_input(seed: u64, v: usize, count: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(count * 8);
    for i in 0..count {
        let x = seed
            .wrapping_mul(31)
            .wrapping_add(v as u64 * 17)
            .wrapping_add(i as u64);
        let val = (x % 1000) as f64 * 0.25 - 100.0;
        out.extend_from_slice(&val.to_le_bytes());
    }
    out
}

fn checksum(bytes: &[u8]) -> u64 {
    // FNV-1a.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
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

/// Base pointer of node `v`'s result region (`l.max_msg` bytes). Written
/// only by node `v` (before its status publish), read only by the parent
/// (after observing that publish) — release/acquire on the status record
/// orders the two; callers materialize the slice flavor they need.
unsafe fn result_ptr(seg: &ShmSegment, l: &ProcLayout, v: usize) -> *mut u8 {
    seg.payload_ptr().add(l.result_off(v))
}

fn run_job(
    fabric: &Fabric<ProcSlots>,
    seg: &Arc<ShmSegment>,
    l: &ProcLayout,
    v: usize,
    job: &[u64; REC_WORDS],
) {
    let (kind, root, len, seed) = (job[1], job[2] as usize, job[3] as usize, job[4]);
    // SAFETY: node v writes only its own region; see `result_ptr`.
    let region = unsafe { std::slice::from_raw_parts_mut(result_ptr(seg, l, v), l.max_msg) };
    let out_len = match kind {
        JOB_BCAST => {
            let mut buf = if v == root {
                bcast_pattern(seed, len)
            } else {
                vec![0u8; len]
            };
            node_bcast(fabric, v, root, &mut buf);
            region[..len].copy_from_slice(&buf);
            len
        }
        JOB_ALLREDUCE => {
            let mut buf = allreduce_input(seed, v, len / 8);
            node_allreduce_f64(fabric, v, &mut buf);
            region[..len].copy_from_slice(&buf);
            len
        }
        _ => 0,
    };
    let status = RecWords::at(seg, l.status_off(v));
    status.publish(&[job[0], 0, checksum(&region[..out_len]), 0, 0]);
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
    let fabric = l.fabric(&seg, false);
    let job_rec = RecWords::at(&seg, l.job_off());
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
            JOB_CRASH => {
                // Everyone else acknowledges and keeps serving.
                let status = RecWords::at(&seg, l.status_off(v));
                status.publish(&[job[0], 0, 0, 0, 0]);
            }
            _ => run_job(&fabric, &seg, &l, v, &job),
        }
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
    workers: Vec<(usize, Child)>,
    job_id: u64,
    dead: bool,
}

impl ProcCluster {
    /// Spawn an `m`-node cross-process cluster with `window`-chunk links of
    /// `chunk_bytes`, supporting messages up to `max_msg` bytes.
    pub fn new(
        m: usize,
        chunk_bytes: usize,
        window: usize,
        max_msg: usize,
    ) -> Result<Self, ProcError> {
        assert!(m >= 1, "a cluster needs at least one node");
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
        let mut workers = Vec::new();
        for v in 1..m {
            let child = Command::new(&exe)
                .env(ENV_WORKER, "1")
                .env(ENV_SEG, seg.path())
                .env(ENV_NODE, v.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .map_err(ProcError::Spawn);
            match child {
                Ok(c) => workers.push((v, c)),
                Err(e) => {
                    // Kill what we spawned; the Drop impl can't run yet.
                    for (_, mut c) in workers {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(e);
                }
            }
        }
        Ok(ProcCluster {
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

    /// The segment path (diagnostics).
    pub fn segment_path(&self) -> &std::path::Path {
        self.seg.path()
    }

    fn check_usable(&self, len: usize) -> Result<(), ProcError> {
        if self.dead {
            return Err(ProcError::Poisoned {
                code: self.seg.poisoned().unwrap_or(POISON_WORKER_DEATH),
            });
        }
        self.seg.check_healthy()?;
        assert!(
            len <= self.layout.max_msg,
            "message exceeds segment regions"
        );
        Ok(())
    }

    fn publish_job(&mut self, kind: u64, root: u64, len: u64, seed: u64) -> [u64; REC_WORDS] {
        self.job_id += 1;
        let job = [self.job_id, kind, root, len, seed];
        RecWords::at(&self.seg, self.layout.job_off()).publish(&job);
        job
    }

    /// Publish one collective job, take part in it as node 0 — through
    /// [`run_job`], the very code the workers run — and gather every
    /// node's `len` result bytes, in node order.
    fn collective(
        &mut self,
        kind: u64,
        root: usize,
        len: usize,
        seed: u64,
    ) -> Result<Vec<Vec<u8>>, ProcError> {
        self.check_usable(len)?;
        let job = self.publish_job(kind, root as u64, len as u64, seed);
        run_job(&self.fabric, &self.seg, &self.layout, 0, &job);
        self.gather(job[0])?;
        Ok(self.collect_results(len))
    }

    /// Wait until every worker has published a status for `job`, polling
    /// worker liveness. On a worker death: poison the segment, mark the
    /// cluster dead, and report which node died — a clean typed error, not
    /// a hang.
    fn gather(&mut self, job: u64) -> Result<(), ProcError> {
        let mut rec = [0u64; REC_WORDS];
        for i in 0..self.workers.len() {
            let (v, _) = self.workers[i];
            let status = RecWords::at(&self.seg, self.layout.status_off(v));
            let mut last_live_check = Instant::now();
            loop {
                status.read_into(&mut rec);
                if rec[0] == job {
                    if rec[1] != 0 {
                        return Err(ProcError::WorkerFailed {
                            node: v,
                            status: rec[1],
                        });
                    }
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
        }
        Ok(())
    }

    fn any_dead_worker(&mut self) -> Option<usize> {
        for (v, c) in &mut self.workers {
            if let Ok(Some(_)) = c.try_wait() {
                return Some(*v);
            }
        }
        None
    }

    fn reap(&mut self) {
        for (_, c) in &mut self.workers {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.workers.clear();
    }

    /// Cluster broadcast: node `root`'s deterministic
    /// [`bcast_pattern`]`(seed, len)` payload lands on every node. Returns
    /// each node's received bytes, in node order, read back from the
    /// segment's result regions.
    pub fn bcast(&mut self, root: usize, seed: u64, len: usize) -> Result<Vec<Vec<u8>>, ProcError> {
        assert!(root < self.layout.m, "root out of range");
        self.collective(JOB_BCAST, root, len, seed)
    }

    /// Cluster allreduce over `count` doubles: node `v` contributes
    /// [`allreduce_input`]`(seed, v, count)`. Returns each node's result
    /// bytes (all identical on success), in node order.
    pub fn allreduce(&mut self, seed: u64, count: usize) -> Result<Vec<Vec<u8>>, ProcError> {
        self.collective(JOB_ALLREDUCE, 0, count * 8, seed)
    }

    /// Crash injection (tests): direct the worker for `node` to exit
    /// mid-job, then gather — which must report the crash.
    pub fn inject_crash(&mut self, node: usize) -> Result<(), ProcError> {
        assert!(node >= 1 && node < self.layout.m, "can only crash a worker");
        self.check_usable(0)?;
        let job = self.publish_job(JOB_CRASH, node as u64, 0, 0)[0];
        let status = RecWords::at(&self.seg, self.layout.status_off(0));
        status.publish(&[job, 0, 0, 0, 0]);
        self.gather(job)
    }

    fn collect_results(&self, len: usize) -> Vec<Vec<u8>> {
        (0..self.layout.m)
            .map(|v| {
                // SAFETY: read-only view after all statuses acked job
                // completion (acquire on each status record).
                let region = unsafe {
                    std::slice::from_raw_parts(result_ptr(&self.seg, &self.layout, v), len)
                };
                region.to_vec()
            })
            .collect()
    }

    /// Orderly shutdown: direct workers to exit and wait for them.
    pub fn shutdown(mut self) -> Result<(), ProcError> {
        self.shutdown_inner();
        Ok(())
    }

    fn shutdown_inner(&mut self) {
        if !self.workers.is_empty() && !self.dead {
            self.job_id += 1;
            let job = RecWords::at(&self.seg, self.layout.job_off());
            job.publish(&[self.job_id, JOB_EXIT, 0, 0, 0]);
            let deadline = Instant::now() + Duration::from_secs(5);
            for (_, c) in &mut self.workers {
                loop {
                    match c.try_wait() {
                        Ok(Some(_)) => break,
                        _ if Instant::now() > deadline => {
                            let _ = c.kill();
                            let _ = c.wait();
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
