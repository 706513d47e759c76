//! The rank-level nonblocking API ([`Sched`]) and the per-node progress
//! engine it drives.
//!
//! ## Naming schemes
//!
//! Everything an in-flight operation touches is keyed by its **op id** — a
//! per-rank sequence persisted in [`NodeShared`] and advanced identically on
//! every rank at post time, so ids agree across the whole cluster and are
//! never reused:
//!
//! * counter blocks: one [`OpCounters`] per op in the node's bank, keyed
//!   by the op id — result bytes, member-done, and one contribution stream
//!   per member. A post looks the block up once; the rank's member record
//!   and, on the engine rank, the engine share that `Arc`, and the bank
//!   recycles the block once the op retires and nobody holds it.
//! * windows: the block also carries the op's buffer addresses, so they
//!   need no name of their own. Its `land` window holds the buffer the
//!   result lands in on this node (a broadcast's landing buffer, the
//!   landing member's output, or the `ireduce_scatter` stage the engine
//!   posts), and input window `i` member `i`'s reduce input, indexed like
//!   the contribution streams. An owner posts a buffer with one `Release`
//!   store and a peer maps it with one `Acquire` load. A member clears its
//!   own input window once its release holds, so the caller has its input
//!   to itself again when the request completes; the engine clears the
//!   rest when it retires the op.
//! * link tags: [`tag::pack`]`(op, kind, chunk)` — the one layout every
//!   link uses, with the op id in its stream field.
//!
//! ## Landing regions
//!
//! Each result lands once per node, in a member's own buffer — §V-B's
//! master that receives network data straight into its application buffer.
//! On a broadcast root's node that is the root's buffer; on every other
//! node it is the buffer of the group's first member, `group[0]` — for an
//! allreduce or an allgather its output, which holds the whole result. This
//! *landing member* posts the buffer in the op's `land` window at post, the
//! engine maps it lazily — whenever the member gets to its post — and the
//! other members contribute into it and chase their copies out of it. Only
//! `ireduce_scatter`, whose members' outputs cannot hold the whole vector,
//! lands in a region of the engine's, posted in the same window and mapped
//! the same way. An `iallreduce` whose group has one member per node on a
//! ring of nodes maps that member's input beside its output: the ring reads
//! the node's partial there, and the output is written only with the
//! result.
//!
//! ## Protocols
//!
//! The engine steps `bgp_smp::wire` for all three; no link send originates
//! in this file:
//!
//! **ibcast** — the engine on the root node maps the root's buffer and
//! injects all chunks down the re-rooted tree ([`Fabric::bcast_out`]);
//! root-node members copy straight out of the root's buffer (valid in full
//! at post time). On every other node the engine receives chunks straight
//! into the landing member's buffer, publishes received bytes on the op's
//! result counter, and forwards on the remaining tree ports out of that
//! buffer; the other members chase the counter and copy out — §V-B's
//! reception/copy overlap, per op. The outbound half, injection and
//! forwarding alike, is a [`wire::TreeFeed`](TreeFeed) per op — the feeder
//! the blocking broadcast drives to completion, pumped here once per pass
//! with whatever is valid so far. Only the receive half differs from the
//! blocking [`wire::tree_recv`](bgp_smp::wire::tree_recv), which relays
//! from the slot loan and blocks on downstream room: chunks land in a
//! buffer the members chase, so a full downstream link never holds up a
//! receive.
//!
//! **iallreduce / ireduce_scatter** — members post inputs. The local
//! reduce is partitioned by member index (member i sums *all* local inputs
//! over its chunk share into the landing region, publishing its
//! contribution stream), and the network side is a
//! [`wire::RingFlow`](RingFlow) — the very partial/full flow of the
//! blocking `allreduce_f64`, gating and all — over that region, tagged per
//! op and interleaved with every other in-flight op's. Ring direction
//! alternates with op parity so consecutive ops use both links. With one
//! member per node an `iallreduce` has nothing to reduce: as in the
//! blocking one-rank node, the flow reads the member's input in place
//! ([`Local::read_own`], [`Local::combine`]) and nothing is summed first.
//!
//! **iallgather** — members deposit their blocks into the node's superblock
//! of the landing member's output; the network side is
//! [`wire::plan_allgather`] over ring positions under a
//! [`wire::PlanCursor`](PlanCursor), and a [`wire::Prefix`](Prefix) turns
//! superblocks landing in ring order into the node-major byte prefix
//! members chase.
//!
//! What is the engine's own: demultiplexing arrivals by op tag, the stash,
//! receiving broadcast chunks into the landing buffer, and retirement.
//!
//! ## Members
//!
//! A rank's side of any operation is one record ([`Member`]): an optional
//! *contribution* (sum a share of the inputs, deposit a block; a node's
//! only `iallreduce` member contributes nothing, the engine reads its
//! input), one *chase* (copy a span of the landing region into the rank's
//! buffer as a counter passes it), an optional *release* condition, and a
//! final report on the op's done counter, which the release holds back for
//! as long as anyone else may still use a buffer the rank posted; a reduce
//! member then clears its input window, which nobody maps any more. A
//! landing member — a broadcast root included — releases once the node's
//! network flow on its buffer is finished and the other `g - 1` members
//! have reported; a reduce member once every local contribution stream is
//! complete, since co-members read its input. A node's only `iallreduce`
//! member needs nothing more: the engine reads its input only until the
//! flow is finished, which its landing release already waits for.
//! "Finished" is one more count the engine publishes on the result counter
//! after the last result byte: a ring's result is complete before the
//! engine stops reading it, because the last position sends fulls out of
//! the region after landing them. Every member reports, and only after it
//! has looked up the op's counter block: the engine retires the block when
//! all members of the node have reported, and the bank's lookup is
//! get-or-create — a member still to look it up after retirement (a root
//! that posts late, say) would wait on a fresh zero forever.
//!
//! ## Progress, parking, completion
//!
//! Everything the engine sends uses non-blocking sends, and every gate is
//! the stepper's: broadcast data and planned receives land in a mapped
//! landing region unconditionally; a `RingFlow` consume waits for the local
//! partial and for downstream room, which `bgp_smp::wire` shows cannot
//! deadlock the ring cycle however many flows share a link. Chunks that
//! arrive for an op this node has not posted yet (a faster peer ran ahead,
//! possibly across a job boundary), or whose landing region is not mapped
//! yet, are parked in the node's stash ([`NodeShared::sched_stash`]) and
//! replayed, in arrival order, once the region is mapped — a replayed chunk
//! and one on a slot loan enter a stepper the same way. They are never
//! waited on at the head of the port: the landing member may be waiting on
//! an earlier op whose chunks sit behind them. The stash keeps every chunk
//! it parks, and the engine keeps draining the link into it: a node that
//! stopped draining would strand the chunks of an op it can land behind
//! those of one it cannot, and a dropped chunk would wedge its op
//! ([`SchedStash`](bgp_smp::SchedStash)). One visit to a port parks at most
//! one window of chunks, though, then yields to member progress: a peer
//! refilling the link as fast as the engine parks would otherwise keep it
//! parking a whole op its own rank was about to post. A pass with nothing
//! parked takes no stash lock: the engine is the stash's only writer, so
//! it knows when the stash is empty.
//!
//! A request completes when the rank's member record is finished **and**,
//! on the engine rank, the op's network flow on this node is too: all its
//! receives consumed, everything it will ever send in a link. Without the
//! second half a caller could leave `wait` and block somewhere that does not
//! poll while its node still owed the ring a chunk — the peer would wait
//! for it forever. [`Sched`] tracks only in-flight operations, and so does
//! the engine, each in a deque ordered by op id (`OpRing`): a rank's ids
//! increase with every post, so an insert is a push and a lookup a binary
//! search over the live ops, and a completed op leaves nothing behind.
//! Integer keys elsewhere (the overlap guard, the window caches, the stash,
//! the counter bank) hash with [`IdHasher`](bgp_shmem::IdHasher), not
//! SipHash.

use std::collections::VecDeque;
use std::sync::Arc;

use bgp_shmem::{spin, IdMap, IdSet, OpCounters, OpWindow, SharedRegion, WindowRegistry};
use bgp_smp::cluster::sum_regions;
use bgp_smp::kernels;
use bgp_smp::transport::{ChunkChannel, Fabric, RingDir};
use bgp_smp::wire::{
    plan_allgather, tag, Kind, Local, PlanCursor, Prefix, RingFlow, RingPlan, Stepper, TreeFeed,
};
use bgp_smp::{ClusterCtx, NodeShared};

use crate::SchedError;

/// Counters one op's [`OpCounters`] block may hold: the fixed streams,
/// headroom, and one contribution stream per member.
pub const COUNTER_KEY_BUDGET: usize = 256;
/// Counters of the budget kept for the op's fixed streams (result bytes,
/// member-done) and headroom.
pub const RESERVED_COUNTER_KEYS: usize = 8;
/// Largest group one op can address: every member needs a contribution
/// stream out of the [`COUNTER_KEY_BUDGET`] after the
/// [`RESERVED_COUNTER_KEYS`].
pub const MAX_GROUP_RANKS: usize = COUNTER_KEY_BUDGET - RESERVED_COUNTER_KEYS;

/// The one op-size limit, shared by the engine posts and the server
/// submissions: [`SchedError::TooLarge`] unless a `bytes`-byte stream of
/// `chunk`-byte chunks numbers its chunks within a link [`tag`].
pub(crate) fn check_size(bytes: usize, chunk: usize) -> Result<(), SchedError> {
    tag::fits(bytes, chunk)
        .then_some(())
        .ok_or(SchedError::TooLarge)
}

/// Validate a group's *shape* — the checks that depend only on the group
/// and the node geometry, shared by the engine posts, every server
/// submission, and `bgp-svc` communicator creation (so a bad group fails
/// when its `Comm` is made; the server still checks each submission on
/// it, which costs O(group)).
///
/// The size check runs before the range check so the
/// [`MAX_GROUP_RANKS`] boundary is observable regardless of how many
/// ranks the node actually has.
pub fn validate_group_shape(group: &[usize], n_ranks: usize) -> Result<(), SchedError> {
    if group.is_empty() {
        return Err(SchedError::BadGroup("group is empty".into()));
    }
    if !group.windows(2).all(|w| w[0] < w[1]) {
        return Err(SchedError::BadGroup(
            "group must be sorted and duplicate-free".into(),
        ));
    }
    if group.len() > MAX_GROUP_RANKS {
        return Err(SchedError::BadGroup(format!(
            "group of {} ranks exceeds the {MAX_GROUP_RANKS}-rank limit \
             ({COUNTER_KEY_BUDGET} counter keys per op, {RESERVED_COUNTER_KEYS} reserved)",
            group.len()
        )));
    }
    if *group.last().unwrap() >= n_ranks {
        return Err(SchedError::BadGroup("group rank out of range".into()));
    }
    Ok(())
}

/// Handle of one posted nonblocking operation. `Copy`, cheap, and only
/// meaningful to the [`Sched`] that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub(crate) op: u64,
}

impl Request {
    /// The cluster-wide operation id (diagnostic).
    pub fn op_id(&self) -> u64 {
        self.op
    }
}

/// Byte range of member `i`'s share of a node's local reduce: chunks
/// `[i*kt/g, (i+1)*kt/g)` of a `bytes`-byte vector in `chunk`-byte chunks.
fn reduce_share(i: usize, g: usize, bytes: usize, chunk: usize) -> (usize, usize) {
    let kt = bytes.div_ceil(chunk);
    (
        (i * kt / g * chunk).min(bytes),
        ((i + 1) * kt / g * chunk).min(bytes),
    )
}

/// Map `window`: the region its owner posted there, or `None` before the
/// post. Each map charges the node's ledger, as a hit if `seen` (the
/// mapping side's window cache) holds the region already, else as a miss.
fn map(
    window: &OpWindow,
    registry: &WindowRegistry,
    seen: &mut IdSet<usize>,
) -> Option<Arc<SharedRegion>> {
    // SAFETY: a window is mapped by a member of its op before that member
    // reports on the op's done counter, or by the engine on its own thread,
    // and cleared only once nothing maps it any more: an input window by
    // its member once its release holds (`Member::step`), every window in
    // `Engine::retire`, once every member on the node has reported.
    let region = unsafe { window.get() }?;
    registry.note_map(!seen.insert(Arc::as_ptr(&region) as usize));
    Some(region)
}

/// In-flight entries keyed by op id, oldest first. A scheduler's op ids
/// increase with every post, so an insert pushes at the back and a lookup
/// is a binary search over the entries alone. Ops retire in any order, and
/// a retired op leaves nothing behind: memory and the work of every walk
/// follow the live count, however far apart the live ids are.
struct OpRing<T>(VecDeque<(u64, T)>);

impl<T> OpRing<T> {
    /// Track `op`, which is newer than every op tracked so far.
    fn insert(&mut self, op: u64, v: T) {
        assert!(self.0.back().is_none_or(|e| e.0 < op), "op ids increase");
        self.0.push_back((op, v));
    }

    fn get(&self, op: u64) -> Option<&T> {
        let at = self.0.binary_search_by_key(&op, |e| e.0).ok()?;
        Some(&self.0[at].1)
    }

    fn get_mut(&mut self, op: u64) -> Option<&mut T> {
        let at = self.0.binary_search_by_key(&op, |e| e.0).ok()?;
        Some(&mut self.0[at].1)
    }

    fn contains(&self, op: u64) -> bool {
        self.get(op).is_some()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.0.iter_mut().map(|(op, v)| (*op, v))
    }

    /// Keep the entries `keep` says to.
    fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        self.0.retain_mut(|(op, v)| keep(*op, v));
    }
}

/// A region posted in one of the op's windows, mapped on first use.
#[derive(Default)]
struct Mapped(Option<Arc<SharedRegion>>);

impl Mapped {
    /// The region, once its owner has posted it in `window`.
    fn get(
        &mut self,
        window: &OpWindow,
        registry: &WindowRegistry,
        seen: &mut IdSet<usize>,
    ) -> Option<&Arc<SharedRegion>> {
        if self.0.is_none() {
            self.0 = map(window, registry, seen);
        }
        self.0.as_ref()
    }

    fn is_mapped(&self) -> bool {
        self.0.is_some()
    }

    /// The region; nothing lands in or leaves it before it is mapped.
    fn mapped(&self) -> &SharedRegion {
        self.0.as_deref().expect("the landing region is mapped")
    }
}

/// This rank's side of one in-flight operation (see the module docs).
struct Member {
    /// The op's landing region on this node (its block's `land` window):
    /// what a contribution goes into and a chase copies out of. A landing
    /// member holds its own buffer.
    land: Mapped,
    contribute: Option<Contribute>,
    chase: Option<Chase>,
    /// Once it holds, the member lets go of its input window and reports.
    release: Release,
    /// The member's index, when it posted an input in the op's block.
    input: Option<usize>,
    /// The op's counter block, and its windows. Its `done` counter tells
    /// the engine this member is finished — every member, last of all: the
    /// engine retires the block once all have reported, so reporting is the
    /// promise never to look it up again.
    ctr: Arc<OpCounters>,
}

/// The counts a member waits for before it reports: until then a
/// co-member or the engine may still use a buffer it posted.
#[derive(Clone, Copy, Default)]
struct Release {
    /// The result counter at least this far.
    res: u64,
    /// At least this many members reported done.
    done: u64,
    /// `Some((bytes, chunk))`: every member's contribution stream has
    /// summed its [`reduce_share`] of the `bytes`-byte vector, so no
    /// co-member reads this rank's input any more.
    inputs_read: Option<(usize, usize)>,
}

impl Release {
    fn holds(&self, ctr: &OpCounters) -> bool {
        let parts = ctr.parts();
        ctr.res.read() >= self.res
            && ctr.done.read() >= self.done
            && self.inputs_read.is_none_or(|(bytes, chunk)| {
                parts.iter().enumerate().all(|(j, c)| {
                    let (lo, hi) = reduce_share(j, parts.len(), bytes, chunk);
                    c.read() >= (hi - lo) as u64
                })
            })
    }
}

/// What a member puts into the landing region: the f64-lane sum of bytes
/// `[lo, hi)` of every input, at offset `at`, publishing contribution
/// stream `part` as it goes.
/// A reduce member sums every group member's posted input over its share;
/// an allgather member "sums" its one block — a copy.
struct Contribute {
    /// `inputs` are mapped from the op's input windows, in member order;
    /// `false` when they were handed over complete.
    from_block: bool,
    inputs: Vec<Arc<SharedRegion>>,
    lo: usize,
    hi: usize,
    at: usize,
    chunk: usize,
    part: usize,
}

impl Contribute {
    /// Make the contribution into `acc`; `false` (nothing written) while a
    /// co-member's input is not posted yet.
    fn run(
        &mut self,
        acc: &SharedRegion,
        ctr: &OpCounters,
        registry: &WindowRegistry,
        seen: &mut IdSet<usize>,
    ) -> bool {
        if self.from_block {
            for window in &ctr.inputs()[self.inputs.len()..] {
                let Some(input) = map(window, registry, seen) else {
                    return false;
                };
                self.inputs.push(input);
            }
        }
        let part = &ctr.parts()[self.part];
        // SAFETY: this member is the unique writer of its share of the
        // landing region and readers (engine sends, co-member copy-outs)
        // are gated on the publish; inputs are final from before the post,
        // and reading a co-member's ungated is ordered by its window.
        unsafe {
            sum_regions(
                acc,
                self.at,
                &self.inputs,
                self.lo,
                self.hi,
                self.chunk,
                |len| {
                    part.publish(len as u64);
                },
            )
        };
        true
    }
}

/// Copy bytes `[lo, hi)` of the landing region to the start of `dst`, as
/// the result counter passes them.
struct Chase {
    /// Gated on the result counter — bytes of the landing region valid as a
    /// prefix from offset 0; `false` when it was valid in full at post time.
    gate: bool,
    lo: usize,
    hi: usize,
    dst: Arc<SharedRegion>,
    copied: usize,
}

impl Chase {
    /// Copy what became valid; `true` once the whole span is copied.
    fn run(&mut self, src: &SharedRegion, ctr: &OpCounters) -> bool {
        let valid = if self.gate {
            ctr.res.read() as usize
        } else {
            self.hi
        };
        let avail = valid.min(self.hi).saturating_sub(self.lo);
        if avail > self.copied {
            // SAFETY: `[lo + copied, lo + avail)` of the source was
            // published before the counter value we acquired (or before
            // its window was posted, when ungated); dst is exclusively ours.
            unsafe {
                self.dst
                    .copy_from(self.copied, src, self.lo + self.copied, avail - self.copied)
            };
            self.copied = avail;
        }
        self.copied == self.hi - self.lo
    }
}

impl Member {
    /// A member that copies `span` of the landing region `land` to the
    /// start of `dst` — as the result counter passes it when `gate` (see
    /// [`Chase`]) — then reports on the done counter of `ctr`.
    fn chasing(
        gate: bool,
        span: std::ops::Range<usize>,
        dst: Arc<SharedRegion>,
        ctr: Arc<OpCounters>,
    ) -> Member {
        let chase = Chase {
            gate,
            lo: span.start,
            hi: span.end,
            dst,
            copied: 0,
        };
        Member {
            land: Mapped::default(),
            contribute: None,
            chase: Some(chase),
            release: Release::default(),
            input: None,
            ctr,
        }
    }

    /// Advance a little; `true` once finished (and not to be stepped again).
    fn step(&mut self, registry: &WindowRegistry, seen: &mut IdSet<usize>) -> bool {
        if self.contribute.is_some() || self.chase.is_some() {
            let Some(land) = self.land.get(&self.ctr.land, registry, seen) else {
                return false;
            };
            if let Some(c) = self.contribute.as_mut() {
                if !c.run(land, &self.ctr, registry, seen) {
                    return false;
                }
                self.contribute = None;
            }
            if self
                .chase
                .as_mut()
                .is_some_and(|ch| !ch.run(land, &self.ctr))
            {
                return false;
            }
        }
        if !self.release.holds(&self.ctr) {
            return false;
        }
        if let Some(i) = self.input {
            // SAFETY: the release holds, so nothing maps this input again:
            // every co-member that reads inputs mapped them all before its
            // contribution stream ran to completion, and a lone member's
            // engine mapped it before its flow finished. The caller gets
            // its input back to itself once the request completes.
            unsafe { self.ctr.inputs()[i].clear() };
        }
        self.ctr.done.publish(1);
        true
    }
}

/// The network side of one broadcast on this node.
struct NetBcast {
    root_node: usize,
    len: usize,
    is_root_node: bool,
    /// The landing buffer (the block's `land` window): the root's source
    /// on its node (it may lag the post of a co-located root), the landing
    /// member's buffer elsewhere.
    land: Mapped,
    /// What is out on the outbound tree ports (port order of `bcast_out`).
    feed: TreeFeed,
    /// Bytes of the message valid on this node, as a prefix: all of it at
    /// the root, what has been received elsewhere.
    valid: usize,
    /// The op's counter block: received bytes go out on its result counter.
    ctr: Arc<OpCounters>,
}

impl NetBcast {
    fn accept(&mut self, k: usize, bytes: &[u8], chunk: usize) {
        debug_assert_eq!(k * chunk, self.valid, "broadcast chunks arrive in order");
        debug_assert_eq!(bytes.len(), (self.len - k * chunk).min(chunk));
        // SAFETY: the engine is the only writer of the landing buffer; the
        // members' reads are gated on the result counter published below.
        unsafe { self.land.mapped().write(self.valid, bytes) };
        self.valid += bytes.len();
        self.ctr.res.publish(bytes.len() as u64);
    }

    /// Inject (root node) or forward (elsewhere) on every outbound tree
    /// port.
    fn pump<'c>(&mut self, op: u64, outs: impl IntoIterator<Item = &'c ChunkChannel> + Clone) {
        if let Some(buf) = self.land.0.as_ref() {
            let data = |k| tag::pack(op, Kind::Data, k);
            // SAFETY: `feed` only asks for bytes below `valid`.
            (self.feed).pump(outs, self.valid, data, |off, d| unsafe { buf.read(off, d) });
        }
    }

    /// Everything being out implies everything was received.
    fn finished(&self) -> bool {
        self.feed.flushed() == self.len
    }
}

/// The landing region of one ring collective — the one members contribute
/// to and copy results out of — as the [`Local`] the op's stepper runs
/// against.
struct Acc {
    /// The block's `land` window.
    land: Mapped,
    /// A lone member's input (input window 0), which the ring reads as
    /// this node's partial in place of a local sum (`iallreduce` of a
    /// one-member group on a ring of nodes): nothing is summed into the
    /// landing region before its result arrives.
    own: Option<Mapped>,
    /// The op's counter block. One contribution stream per member: bytes of
    /// its reduce share summed, or of its block deposited. The result
    /// counter: bytes of the region holding final values, as a prefix —
    /// what members chase; only the engine publishes it.
    ctr: Arc<OpCounters>,
    total: usize,
    layout: Layout,
}

enum Layout {
    /// One f64 vector in `chunk`-byte ring chunks, member `i` summing
    /// [`reduce_share`]`(i)`.
    Sum { chunk: usize },
    /// One `sb`-byte superblock (the node's member blocks) per node, in node
    /// order. The plan addresses them by ring position: `node_of[w]` is the
    /// node at position `w`.
    Blocks {
        block: usize,
        sb: usize,
        /// This node, until its own superblock is complete.
        own: Option<usize>,
        node_of: Vec<usize>,
        /// Which bytes are valid, superblock by superblock.
        prefix: Prefix,
    },
}

impl Acc {
    /// The region offset of the stepper's offset `off`.
    fn at(&self, off: usize) -> usize {
        match &self.layout {
            Layout::Sum { .. } => off,
            Layout::Blocks { sb, node_of, .. } => node_of[off / sb] * sb + off % sb,
        }
    }

    /// Progress no arrival drives: publish what became final because
    /// *members* moved. Called on every engine pass.
    fn settle(&mut self, solo: bool) {
        match &mut self.layout {
            // A ring of one: every local sum is already the result.
            Layout::Sum { chunk } if solo => {
                let chunk = *chunk;
                let mut off = self.ctr.res.read() as usize;
                while off < self.total {
                    let len = (self.total - off).min(chunk);
                    if !self.ready(0, off, len) {
                        break;
                    }
                    self.ctr.res.publish(len as u64);
                    off += len;
                }
            }
            // Fulls publish as they land.
            Layout::Sum { .. } => {}
            // So do superblocks; this node's own is complete once every
            // local member deposited.
            Layout::Blocks {
                block,
                sb,
                own,
                prefix,
                ..
            } => {
                let ctr = &self.ctr;
                let deposited =
                    |_: &mut usize| ctr.parts().iter().all(|c| c.read() >= *block as u64);
                if let Some(node) = own.take_if(deposited) {
                    ctr.res.publish(prefix.land(node, *sb) as u64);
                }
            }
        }
    }

    fn settled(&self) -> bool {
        self.ctr.res.read() as usize >= self.total
    }

    /// Are the landing region and a lone member's input both mapped?
    /// Nothing lands in or leaves the region before.
    fn is_mapped(&self) -> bool {
        self.land.is_mapped() && self.own.as_ref().is_none_or(Mapped::is_mapped)
    }
}

impl Local for Acc {
    fn ready(&self, _: usize, off: usize, len: usize) -> bool {
        // Members contributed into the region, so it is posted; until the
        // engine has mapped it too, nothing is ready. A lone member's input
        // is final from its post on.
        self.is_mapped()
            && match &self.layout {
                Layout::Sum { .. } if self.own.is_some() => true,
                Layout::Sum { chunk } => {
                    // The chunk's owner in the local reduce, and how far its
                    // stream must have come for the chunk's local sum to
                    // stand.
                    let parts = self.ctr.parts();
                    let (g, kt) = (parts.len(), self.total.div_ceil(*chunk));
                    let i = ((off / chunk + 1) * g - 1) / kt;
                    let (lo, hi) = reduce_share(i, g, self.total, *chunk);
                    debug_assert!(lo <= off && off + len <= hi);
                    parts[i].read() >= (off + len - lo) as u64
                }
                // Only this node's own superblock is ever gated on
                // readiness: have all local members deposited?
                Layout::Blocks { block, .. } => {
                    self.ctr.parts().iter().all(|c| c.read() >= *block as u64)
                }
            }
    }

    fn read<R>(&self, _: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        // SAFETY: per the `Local` contract the range's contributors have
        // published it (`ready`, an acquire) or the engine wrote it, and the
        // engine is its only writer from then on.
        unsafe { self.land.mapped().with_bytes(self.at(off), len, f) }
    }

    fn write<R>(&mut self, _: usize, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        // SAFETY: as for `read`; members read the range only after `res`
        // covers it.
        unsafe { self.land.mapped().with_bytes_mut(self.at(off), len, f) }
    }

    fn read_own<R>(&self, _: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        match &self.own {
            // SAFETY: the member's input is final from before its post and
            // stays unchanged until the engine's flow is finished (its
            // release waits for that count on the result counter).
            Some(own) => unsafe { own.mapped().with_bytes(off, len, f) },
            None => self.read(0, off, len, f),
        }
    }

    fn combine(&mut self, _: usize, off: usize, len: usize, bytes: &[u8]) {
        let Some(own) = &self.own else {
            return self.write(0, off, len, |acc| kernels::add_bytes_assign(acc, bytes));
        };
        // SAFETY: as for `write` and `read_own`.
        unsafe {
            self.land.mapped().with_bytes_mut(off, len, |dst| {
                own.mapped()
                    .with_bytes(off, len, |mine| kernels::add_bytes_into(dst, mine, bytes))
            })
        }
    }

    fn landed(&mut self, _: usize, off: usize, len: usize) {
        match &mut self.layout {
            // Fulls land in order, so the prefix grows chunk by chunk.
            Layout::Sum { .. } => {
                self.ctr.res.publish(len as u64);
            }
            // The node-major prefix members chase grows as they land.
            Layout::Blocks {
                sb,
                node_of,
                prefix,
                ..
            } => {
                let grew = prefix.land(node_of[off / *sb], len);
                if grew > 0 {
                    self.ctr.res.publish(grew as u64);
                }
            }
        }
    }
}

/// Ring direction alternates with op parity: consecutive ops use both torus
/// links (the multi-color idea of §V-C, per op instead of per color).
fn ring_dir(op: u64) -> RingDir {
    if op.is_multiple_of(2) {
        RingDir::Plus
    } else {
        RingDir::Minus
    }
}

/// The two ring steppers, behind the entry points they share.
enum Step {
    Flow(RingFlow),
    Plan(PlanCursor<RingPlan>),
}

/// The network side of one ring collective on this node.
struct NetRing {
    dir: RingDir,
    /// `None` on a one-node cluster: there is no ring to step.
    step: Option<Step>,
    acc: Acc,
}

impl NetRing {
    fn finished(&self) -> bool {
        self.acc.settled()
            && self.step.as_ref().is_none_or(|s| match s {
                Step::Flow(f) => f.finished(),
                Step::Plan(c) => c.finished(),
            })
    }

    fn pump(&mut self, op: u64, out: Option<&ChunkChannel>) {
        let pack = |_, kind, k| tag::pack(op, kind, k);
        match (self.step.as_mut(), out) {
            (Some(Step::Flow(f)), Some(out)) => f.pump(out, &mut self.acc, &pack),
            (Some(Step::Plan(c)), Some(out)) => c.pump(out, &mut self.acc, &pack),
            _ => false,
        };
        self.acc.settle(self.step.is_none());
    }

    fn can_accept(&self, kind: Kind, out: &ChunkChannel) -> bool {
        match self.step.as_ref().expect("chunks arrive over a ring") {
            Step::Flow(f) => f.can_accept(kind, out, &self.acc),
            Step::Plan(c) => c.can_accept(kind, out, &self.acc),
        }
    }

    fn accept(&mut self, op: u64, kind: Kind, k: usize, bytes: &[u8], out: &ChunkChannel) {
        let pack = |_, kind, k| tag::pack(op, kind, k);
        match self.step.as_mut().expect("chunks arrive over a ring") {
            Step::Flow(f) => f.accept(kind, k, bytes, out, &mut self.acc, &pack),
            Step::Plan(c) => c.accept(kind, k, bytes, out, &mut self.acc, &pack),
        }
    }
}

enum Net {
    Bcast(NetBcast),
    Ring(NetRing),
}

/// One operation as the engine sees it.
struct NetOp {
    net: Net,
    /// The op's network flow on this node is finished, and the result
    /// counter said so.
    finished: bool,
    /// Members of this node that must report done before the op's counter
    /// block and windows can go.
    expected_done: u64,
}

impl NetOp {
    /// The op's counter block.
    fn ctr(&self) -> &OpCounters {
        match &self.net {
            Net::Bcast(b) => &b.ctr,
            Net::Ring(r) => &r.acc.ctr,
        }
    }

    /// Map the landing region, and a lone member's input beside it, once
    /// their owners have posted them.
    fn map(&mut self, registry: &WindowRegistry, seen: &mut IdSet<usize>) {
        match &mut self.net {
            Net::Bcast(b) => {
                b.land.get(&b.ctr.land, registry, seen);
            }
            Net::Ring(r) => {
                let acc = &mut r.acc;
                acc.land.get(&acc.ctr.land, registry, seen);
                if let Some(own) = acc.own.as_mut() {
                    own.get(&acc.ctr.inputs()[0], registry, seen);
                }
            }
        }
    }

    /// Can this op's chunks land? Until its landing region (and a lone
    /// member's input) is mapped they are parked.
    fn can_land(&self) -> bool {
        match &self.net {
            Net::Bcast(b) => b.land.is_mapped(),
            Net::Ring(r) => r.acc.is_mapped(),
        }
    }

    /// The link this op's chunks arrive on (`m > 1`).
    fn in_port<'f>(&self, fabric: &'f Fabric, node: usize) -> Option<&'f ChunkChannel> {
        match &self.net {
            Net::Bcast(b) if b.is_root_node => None,
            Net::Bcast(b) => Some(fabric.bcast_in(node, b.root_node)),
            Net::Ring(r) => Some(fabric.ring_recv(node, r.dir)),
        }
    }

    /// Can the next chunk for this op, of `kind`, be consumed right now?
    /// Consuming is only allowed after this and [`Self::can_land`] said
    /// yes.
    fn can_accept(&self, kind: Kind, fabric: &Fabric, node: usize) -> bool {
        match &self.net {
            // Broadcast data lands in the mapped buffer: always.
            Net::Bcast(_) => true,
            Net::Ring(r) => r.can_accept(kind, fabric.ring_send(node, r.dir)),
        }
    }

    /// Consume the chunk tagged `t`. Must be guarded by [`Self::can_accept`].
    fn accept(&mut self, t: u64, bytes: &[u8], fabric: &Fabric, node: usize) {
        let (op, kind, k) = tag::unpack(t);
        match &mut self.net {
            Net::Bcast(b) => b.accept(k, bytes, fabric.chunk_bytes()),
            Net::Ring(r) => r.accept(op, kind, k, bytes, fabric.ring_send(node, r.dir)),
        }
    }

    /// Push outbound progress. Once the flow is finished — all its receives
    /// consumed, everything it will ever send in a link — say so with one
    /// more count on the result counter: that releases the landing member.
    fn pump(&mut self, op: u64, fabric: &Fabric, node: usize, m: usize) {
        let finished = match &mut self.net {
            Net::Bcast(b) => {
                b.pump(op, fabric.bcast_out(node, b.root_node));
                b.finished()
            }
            Net::Ring(r) => {
                r.pump(op, (m > 1).then(|| fabric.ring_send(node, r.dir)));
                r.finished()
            }
        };
        if finished && !self.finished {
            self.ctr().res.publish(1);
            self.finished = true;
        }
    }
}

/// The per-node progress engine, run by rank 0 (the network core).
struct Engine {
    node: usize,
    m: usize,
    chunk: usize,
    shared: Arc<NodeShared>,
    fabric: Arc<Fabric>,
    seen: IdSet<usize>,
    ops: OpRing<NetOp>,
    /// The node's stash may hold chunks: set when this engine parks one,
    /// cleared by a pass that finds the stash empty. Only this engine
    /// parks (one `Sched` per rank per job), so a pass that finds it clear
    /// takes no stash lock. It starts set: a previous job's engine may
    /// have parked chunks of this job's ops.
    stash_held: bool,
}

impl Engine {
    fn is_idle(&self) -> bool {
        self.ops.is_empty()
    }

    /// Has the op's network flow on this node finished? A retired op has.
    fn net_finished(&self, op: u64) -> bool {
        self.ops.get(op).is_none_or(|o| o.finished)
    }

    /// Register a broadcast that lands in the landing member's buffer on
    /// this node.
    fn register_bcast(
        &mut self,
        op: u64,
        ctr: Arc<OpCounters>,
        g: usize,
        root_node: usize,
        len: usize,
    ) {
        let is_root_node = self.node == root_node;
        let net = Net::Bcast(NetBcast {
            root_node,
            len,
            is_root_node,
            land: Mapped::default(),
            feed: TreeFeed::new(
                self.fabric.bcast_out(self.node, root_node).count(),
                len,
                self.chunk,
            ),
            valid: if is_root_node { len } else { 0 },
            ctr,
        });
        self.insert(op, net, g);
    }

    /// Register a ring collective over its landing region `acc`;
    /// `step(pos)` builds its stepper for ring position `pos` (`m > 1`).
    fn register_ring(&mut self, op: u64, acc: Acc, step: impl FnOnce(usize) -> Step) {
        let dir = ring_dir(op);
        let g = acc.ctr.parts().len();
        let net = Net::Ring(NetRing {
            dir,
            step: (self.m > 1).then(|| step(self.fabric.ring_pos(self.node, dir))),
            acc,
        });
        self.insert(op, net, g);
    }

    fn insert(&mut self, op: u64, net: Net, expected_done: usize) {
        let netop = NetOp {
            net,
            finished: false,
            expected_done: expected_done as u64,
        };
        self.ops.insert(op, netop);
    }

    /// One engine pass: map landing regions, replay parked chunks, drain
    /// in-ports and push outbound progress.
    fn advance(&mut self) {
        let Engine {
            node,
            m,
            shared,
            fabric,
            seen,
            ops,
            stash_held,
            ..
        } = self;
        let (node, m, shared, fabric) = (*node, *m, &**shared, &**fabric);
        let registry = shared.registry();

        // Map the landing regions whose members posted after the op
        // registered here.
        for (_, netop) in ops.iter_mut() {
            netop.map(registry, seen);
        }

        // Replay parked chunks of ops that can land now, oldest first. Ops
        // whose stash stays non-empty must keep stashing port arrivals to
        // preserve per-link order. With `stash_held` clear the stash is
        // empty, and so `stashed_ops` stays.
        let mut stashed_ops = IdSet::default();
        if *stash_held {
            let mut stash = shared.sched_stash().lock();
            for (op, netop) in ops.iter_mut().filter(|(_, o)| o.can_land()) {
                while let Some(t) = stash.front_tag(op) {
                    if !netop.can_accept(tag::unpack(t).1, fabric, node) {
                        break;
                    }
                    let (_, bytes) = stash.pop_front(op).expect("front_tag was Some");
                    netop.accept(t, &bytes, fabric, node);
                }
            }
            stashed_ops.extend(stash.parked_ops());
            *stash_held = !stashed_ops.is_empty();
        }

        // Drain the in-port of every active op, with nothing allocated per
        // pass: a port several ops share is emptied on its first visit.
        for at in (0..ops.0.len()).filter(|_| m > 1) {
            let Some(port) = ops.0[at].1.in_port(fabric, node) else {
                continue;
            };
            let mut parked = 0;
            while let Some(t) = port.peek_tag() {
                let (op, kind, _) = tag::unpack(t);
                let target = ops.get_mut(op);
                let Some(netop) = target.filter(|o| o.can_land() && !stashed_ops.contains(&op))
                else {
                    // Not posted here yet, its landing region not mapped
                    // yet, or queuing behind such chunks: park it rather
                    // than wait for it — the member still to post may be
                    // waiting on a chunk behind this one. Parking outlives
                    // the slot loan, so `park` copies the bytes — the one
                    // owned copy left on the engine's receive path; every
                    // in-order arrival is consumed in place. A window's
                    // worth per visit, then the members get a turn.
                    if parked == port.capacity() {
                        break;
                    }
                    let mut stash = shared.sched_stash().lock();
                    port.recv_with(|t, b| stash.park(op, t, b));
                    stashed_ops.insert(op);
                    *stash_held = true;
                    parked += 1;
                    continue;
                };
                if !netop.can_accept(kind, fabric, node) {
                    // Transient head-of-line wait on node-local progress
                    // or downstream room.
                    break;
                }
                port.recv_with(|_, bytes| netop.accept(t, bytes, fabric, node));
            }
        }

        // Outbound progress.
        for (op, netop) in ops.iter_mut() {
            netop.pump(op, fabric, node, m);
        }
    }

    /// Retire ops whose network duties and local member copies are done:
    /// drop every region the op mapped, clear its windows and hand its
    /// counter block back to the bank. A member still holding the block
    /// keeps it alive, and the bank reuses it only once nobody does. Run
    /// after this rank's members stepped, so an op whose last member report
    /// was this rank's goes in the same poll.
    fn retire(&mut self) {
        let bank = self.shared.sched_bank();
        self.ops.retain(|op, o| {
            let ctr = o.ctr();
            if !(o.finished && ctr.done.read() >= o.expected_done) {
                return true;
            }
            // SAFETY: no map of the op's windows runs during or after the
            // clear. Every member maps before it publishes its report on
            // `done` (`Member::step` reports last of all), and every member
            // of the node has reported: `done >= expected_done`, read with
            // `Acquire`. The engine maps only in `advance`, on this thread.
            // A rank that is no member never looks the block up, and the
            // bank hands the block to a later op only once nobody holds it.
            unsafe { ctr.clear_windows() };
            bank.retire(op);
            false
        });
    }
}

/// One rank's nonblocking-collective scheduler.
///
/// Create one per rank per job from the [`ClusterCtx`]; post operations,
/// then complete them with [`test`](Self::test) / [`wait`](Self::wait) /
/// [`wait_all`](Self::wait_all). On rank 0 the scheduler also runs the
/// node's progress engine — every poll advances *all* in-flight ops.
///
/// Dropping a `Sched` quiesces it: it keeps polling until every posted
/// request is complete and the engine is idle, so no chunks, counters, or
/// posted windows leak into the next operation (or job) on these links.
/// Under SPMD discipline every rank reaches its drop, so the quiesce
/// terminates.
pub struct Sched {
    node: usize,
    rank: usize,
    m: usize,
    n: usize,
    shared: Arc<NodeShared>,
    chunk: usize,
    seen: IdSet<usize>,
    /// In-flight operations only, each with the addresses of the buffers
    /// its member posted: its entries in `active_bufs`, which its member's
    /// completion removes. `None`: the member side is finished (or this
    /// rank is no member) and the request waits for the node's network
    /// flow — engine rank only.
    roles: OpRing<(Option<Member>, [Option<usize>; 2])>,
    /// Op ids this scheduler issued (they are consecutive).
    issued: std::ops::Range<u64>,
    /// Region pointer -> op currently owning the buffer (overlap guard).
    active_bufs: IdMap<usize, u64>,
    engine: Option<Engine>,
}

impl Sched {
    /// A scheduler for this rank. Rank 0 of each node also hosts the
    /// node's progress engine.
    pub fn new(cctx: &ClusterCtx) -> Self {
        let shared = cctx.node_shared();
        let fabric = cctx.fabric();
        let chunk = fabric.chunk_bytes();
        let engine = (cctx.rank() == 0).then(|| Engine {
            node: cctx.node(),
            m: cctx.n_nodes(),
            chunk,
            shared: shared.clone(),
            fabric,
            seen: IdSet::default(),
            ops: OpRing(VecDeque::new()),
            stash_held: true,
        });
        Sched {
            node: cctx.node(),
            rank: cctx.rank(),
            m: cctx.n_nodes(),
            n: cctx.n_ranks(),
            shared,
            chunk,
            seen: IdSet::default(),
            roles: OpRing(VecDeque::new()),
            issued: 0..0,
            active_bufs: IdMap::default(),
            engine,
        }
    }

    /// The skeleton every post shares, after its group checks. The op-size
    /// limit on its widest tagged `stream` of bytes, membership against the
    /// buffers supplied, their sizes (`bufs` pairs each with the bytes it
    /// must hold), aliasing and the overlap guard are checked before any
    /// side effect; then the op gets its id and, where a member or the
    /// engine takes part, one lookup of its counter block with `parts`
    /// contribution streams, which a member's record from `member(self,
    /// index in group, block)` and the engine's half from `register(engine,
    /// op, block)` share. An operation of an empty stream is complete at
    /// post.
    fn post<const N: usize>(
        &mut self,
        group: &[usize],
        bufs: [(Option<&Arc<SharedRegion>>, usize); N],
        stream: usize,
        parts: usize,
        member: impl FnOnce(&Sched, usize, Arc<OpCounters>) -> Member,
        register: impl FnOnce(&mut Engine, u64, Arc<OpCounters>),
    ) -> Result<Request, SchedError> {
        // A role entry carries at most two busy buffers.
        const { assert!(N <= 2) };
        check_size(stream, self.chunk)?;
        let me = group.binary_search(&self.rank).ok();
        if me.is_some() && bufs.iter().any(|(b, _)| b.is_none()) {
            return Err(SchedError::BufferMissing);
        }
        if me.is_none() && bufs.iter().any(|(b, _)| b.is_some()) {
            return Err(SchedError::UnexpectedBuffer);
        }
        for (b, needed) in bufs.iter().filter_map(|&(b, needed)| Some((b?, needed))) {
            if b.len() < needed {
                return Err(SchedError::BufferTooShort {
                    needed,
                    got: b.len(),
                });
            }
        }
        let ptrs = bufs.map(|(b, _)| b.map(|b| Arc::as_ptr(b) as usize));
        if let [Some(a), Some(b)] = ptrs[..] {
            if a == b {
                return Err(SchedError::BufferAliased);
            }
        }
        if stream > 0 {
            if let Some(&op) = ptrs.iter().flatten().find_map(|p| self.active_bufs.get(p)) {
                return Err(SchedError::BufferBusy { op });
            }
        }

        // --- all checks passed: side effects may begin ---
        let op = self.shared.next_sched_op(self.rank);
        if self.issued.is_empty() {
            self.issued.start = op;
        }
        self.issued.end = op + 1;
        // A non-member off the engine rank is complete at post, and never
        // looks the op's block up: nothing would retire it.
        if stream == 0 || (me.is_none() && self.engine.is_none()) {
            return Ok(Request { op });
        }
        self.active_bufs
            .extend(ptrs.into_iter().flatten().map(|p| (p, op)));
        // Track a member's record, and on the engine rank even a
        // non-member's wait for the node's network flow.
        let ctr = self.shared.sched_bank().op(op, parts);
        let member = me.map(|i| member(self, i, ctr.clone()));
        if let Some(engine) = self.engine.as_mut() {
            register(engine, op, ctr);
        }
        let busy = std::array::from_fn(|i| ptrs.get(i).copied().flatten());
        self.roles.insert(op, (member, busy));
        Ok(Request { op })
    }

    /// The landing member's record: `buf`, posted in the block's `land`
    /// window, is where the op's result lands on this node. It waits until
    /// the engine is done with the buffer — the result counter one past the
    /// `valid` bytes the engine publishes on this node — and the other
    /// `g - 1` members have reported, then reports.
    fn landing(
        &self,
        ctr: Arc<OpCounters>,
        g: usize,
        buf: Arc<SharedRegion>,
        valid: usize,
    ) -> Member {
        self.shared.registry().note_expose();
        ctr.land.post(buf.clone());
        Member {
            land: Mapped(Some(buf)),
            contribute: None,
            chase: None,
            release: Release {
                res: valid as u64 + 1,
                done: g as u64 - 1,
                inputs_read: None,
            },
            input: None,
            ctr,
        }
    }

    /// Post a nonblocking broadcast of `len` bytes from `(root_node,
    /// root_rank)`'s buffer to every rank in `group` (local rank ids,
    /// replicated on every node) on every node.
    ///
    /// Members pass their buffer (`Some`); non-members pass `None`. The
    /// root's buffer must hold the payload *before* the post and no
    /// participant may touch its buffer until the request completes.
    pub fn ibcast(
        &mut self,
        group: &[usize],
        root_node: usize,
        root_rank: usize,
        buf: Option<&Arc<SharedRegion>>,
        len: usize,
    ) -> Result<Request, SchedError> {
        validate_group_shape(group, self.n)?;
        if root_node >= self.m {
            return Err(SchedError::BadGroup("root node out of range".into()));
        }
        if group.binary_search(&root_rank).is_err() {
            return Err(SchedError::BadGroup("root rank not in group".into()));
        }
        let g = group.len();
        // The landing member: the root on its node, `group[0]` elsewhere.
        let on_root_node = self.node == root_node;
        let lead = if on_root_node { root_rank } else { group[0] };
        let member = |s: &Sched, _, ctr| {
            let buf = buf.expect("a member has a buffer").clone();
            if s.rank == lead {
                // The engine injects from the buffer on the root's node and
                // receives `len` bytes into it elsewhere.
                let valid = if on_root_node { 0 } else { len };
                return s.landing(ctr, g, buf, valid);
            }
            // Copy out of the landing buffer: valid in full at post on the
            // root's node, as the result counter passes it elsewhere.
            Member::chasing(!on_root_node, 0..len, buf, ctr)
        };
        self.post(group, [(buf, len)], len, 0, member, |engine, op, ctr| {
            engine.register_bcast(op, ctr, g, root_node, len)
        })
    }

    /// Post a nonblocking sum-allreduce of `count` `f64`s over every rank
    /// in `group` on every node. Members pass input and output regions
    /// (distinct); non-members pass `None`. Inputs must be final before the
    /// post; neither buffer may be touched until the request completes.
    pub fn iallreduce(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
    ) -> Result<Request, SchedError> {
        self.post_reduce(group, input, output, count, false)
    }

    /// Post a nonblocking sum-reduce-scatter of `count` `f64`s over every
    /// rank in `group` on every node: the reduced vector is partitioned by
    /// global member index (`node * group_len + index_in_group`), member
    /// `gi` of `G` receiving elements `[gi*count/G, (gi+1)*count/G)` at
    /// offset 0 of its output. Shares the allreduce ring flow on the
    /// progress engine — only the member-side copy-out span differs — so
    /// it interleaves with every other in-flight op. A member's output
    /// region only needs its own span (possibly zero bytes when
    /// `count < G`); buffer rules match [`Self::iallreduce`].
    pub fn ireduce_scatter(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
    ) -> Result<Request, SchedError> {
        self.post_reduce(group, input, output, count, true)
    }

    /// Shared body of [`Self::iallreduce`] / [`Self::ireduce_scatter`]:
    /// identical network flow, differing in each member's result span and
    /// so in where the result lands — `group[0]`'s output, or, when no
    /// output holds the whole vector, a region of the engine's.
    fn post_reduce(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        count: usize,
        scatter: bool,
    ) -> Result<Request, SchedError> {
        validate_group_shape(group, self.n)?;
        let (g, m, bytes, chunk) = (group.len(), self.m, count * 8, self.chunk);
        // The member's result span: the whole message for allreduce, its
        // global-member-index slice for reduce-scatter.
        let span = match group.binary_search(&self.rank) {
            Ok(i) if scatter => {
                let (gi, big) = (self.node * g + i, m * g);
                gi * count / big * 8..(gi + 1) * count / big * 8
            }
            _ => 0..bytes,
        };
        let out_len = span.len();
        // A node's only member contributes nothing: the engine's ring reads
        // its input in place (see `Acc`), and its one landing-member release
        // keeps the input unchanged until the flow is finished. A lone
        // reduce-scatter member keeps its contribution — it may sit off the
        // engine rank with no landing release to hold its input.
        let rings_input = !scatter && g == 1 && m > 1;
        let member = |s: &Sched, i: usize, ctr: Arc<OpCounters>| {
            let input = input.expect("a member has an input").clone();
            s.shared.registry().note_expose();
            ctr.inputs()[i].post(input);
            let output = output.expect("a member has an output").clone();
            // Only chunk owners read co-member inputs. A member whose share
            // is empty (`kt < g`) must not wait to map them: owners clear
            // their input windows once every contribution *stream*
            // completes, and an empty share's stream is trivially complete
            // — so an owner can finish before this member ever maps, and
            // waiting would spin forever.
            let (lo, hi) = reduce_share(i, g, bytes, chunk);
            let contribute = (lo < hi && !rings_input).then(|| Contribute {
                from_block: true,
                inputs: Vec::with_capacity(g),
                lo,
                hi,
                at: lo,
                chunk,
                part: i,
            });
            // The member may only report once no co-member can still read
            // its input — i.e. every local stream ran to completion.
            let inputs_read = (!rings_input).then_some((bytes, chunk));
            if !scatter && i == 0 {
                let mut lead = s.landing(ctr, g, output, bytes);
                lead.release.inputs_read = inputs_read;
                return Member {
                    contribute,
                    input: Some(i),
                    ..lead
                };
            }
            // The result counter publishes a whole-message byte prefix; the
            // chase clamps it to this member's span.
            Member {
                contribute,
                release: Release {
                    inputs_read,
                    ..Release::default()
                },
                input: Some(i),
                ..Member::chasing(true, span, output, ctr)
            }
        };
        let register = |engine: &mut Engine, op, ctr: Arc<OpCounters>| {
            // The stage is posted like a landing member's buffer, and the
            // engine maps it on its next pass like any other.
            if scatter {
                engine.shared.registry().note_expose();
                ctr.land.post(Arc::new(SharedRegion::new(bytes)));
            }
            let acc = Acc {
                land: Mapped::default(),
                own: rings_input.then(Mapped::default),
                ctr,
                total: bytes,
                layout: Layout::Sum { chunk },
            };
            engine.register_ring(op, acc, |pos| {
                Step::Flow(RingFlow::new(0, pos, m, bytes, chunk))
            })
        };
        self.post(
            group,
            [(input, bytes), (output, out_len)],
            bytes,
            g,
            member,
            register,
        )
    }

    /// Post a nonblocking allgather of `len`-byte blocks over every rank
    /// in `group` on every node: each member contributes its input block
    /// and every member's output receives all `m * group_len` blocks
    /// concatenated in global member order (`node * group_len +
    /// index_in_group`). Runs a ring allgather of node superblocks on the
    /// progress engine, interleaved with every other in-flight op, landing
    /// in `group[0]`'s output.
    /// Members pass input (`len` bytes) and output (`m * group_len * len`
    /// bytes) regions; non-members pass `None`. Inputs must be final
    /// before the post; neither buffer may be touched until the request
    /// completes.
    pub fn iallgather(
        &mut self,
        group: &[usize],
        input: Option<&Arc<SharedRegion>>,
        output: Option<&Arc<SharedRegion>>,
        len: usize,
    ) -> Result<Request, SchedError> {
        validate_group_shape(group, self.n)?;
        let (g, m, chunk) = (group.len(), self.m, self.chunk);
        // A node's superblock: its members' blocks, in group order.
        let sb = g * len;
        let total = m * sb;
        let member = |s: &Sched, i, ctr| {
            let contribute = Some(Contribute {
                from_block: false,
                inputs: vec![input.expect("a member has an input").clone()],
                lo: 0,
                hi: len,
                at: s.node * sb + i * len,
                chunk,
                part: i,
            });
            let output = output.expect("a member has an output").clone();
            if i == 0 {
                let lead = s.landing(ctr, g, output, total);
                return Member { contribute, ..lead };
            }
            Member {
                contribute,
                ..Member::chasing(true, 0..total, output, ctr)
            }
        };
        let register = |engine: &mut Engine, op, ctr| {
            let layout = Layout::Blocks {
                block: len,
                sb,
                own: Some(engine.node),
                node_of: (0..m)
                    .map(|w| engine.fabric.ring_node(w, ring_dir(op)))
                    .collect(),
                prefix: Prefix::new(total, sb),
            };
            let acc = Acc {
                land: Mapped::default(),
                own: None,
                ctr,
                total,
                layout,
            };
            engine.register_ring(op, acc, |pos| {
                Step::Plan(PlanCursor::new(plan_allgather(m, pos, sb, chunk)))
            })
        };
        self.post(
            group,
            [(input, len), (output, total)],
            sb,
            g,
            member,
            register,
        )
    }

    /// Advance everything a little: the node's progress engine (rank 0)
    /// and this rank's side of every in-flight operation, then, on rank 0,
    /// retire the ops that are done. Never blocks.
    pub fn poll(&mut self) {
        if let Some(engine) = self.engine.as_mut() {
            engine.advance();
        }
        let Sched {
            shared,
            seen,
            roles,
            active_bufs,
            engine,
            ..
        } = self;
        let registry = shared.registry();
        roles.retain(|op, (slot, busy)| {
            if let Some(member) = slot {
                if !member.step(registry, seen) {
                    return true;
                }
                for p in busy.iter().flatten() {
                    active_bufs.remove(p);
                }
                *slot = None;
            }
            // On the engine rank the request stays open until the op's
            // network flow on this node is finished: once `wait` returns
            // the caller may stop polling, and a chunk still owed to the
            // ring would strand the peer.
            engine.as_ref().is_some_and(|e| !e.net_finished(op))
        });
        if let Some(engine) = engine.as_mut() {
            engine.retire();
        }
    }

    /// Is the request locally complete (buffers reusable, nothing owed to
    /// the network)? Does not poll.
    pub fn is_complete(&self, req: Request) -> bool {
        assert!(
            self.issued.contains(&req.op),
            "request was issued by this scheduler"
        );
        !self.roles.contains(req.op)
    }

    /// Poll once and report whether `req` is complete.
    pub fn test(&mut self, req: Request) -> bool {
        self.poll();
        self.is_complete(req)
    }

    /// Block (spin-yield, polling) until `req` completes.
    pub fn wait(&mut self, req: Request) {
        while !self.test(req) {
            spin();
        }
    }

    /// Block until every request in `reqs` completes.
    pub fn wait_all(&mut self, reqs: &[Request]) {
        loop {
            self.poll();
            if reqs.iter().all(|r| self.is_complete(*r)) {
                return;
            }
            spin();
        }
    }

    /// Block until the node's progress engine has fully retired every op it
    /// knows about (rank 0; a no-op elsewhere). Called automatically on
    /// drop; exposed for callers that want the fabric quiet at a known
    /// point.
    pub fn drain(&mut self) {
        while self.engine.as_ref().is_some_and(|e| !e.is_idle()) {
            self.poll();
            spin();
        }
    }

    /// Number of operations this rank posted and not yet completed.
    pub fn in_flight(&self) -> usize {
        self.roles.len()
    }
}

impl Drop for Sched {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        // Quiesce: complete own roles (they publish the done counts the
        // engine waits for) and retire every engine op. See type docs.
        loop {
            self.poll();
            if self.roles.is_empty() && self.engine.as_ref().is_none_or(|e| e.is_idle()) {
                return;
            }
            spin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_smp::Cluster;

    /// Ops retire in any order and leave nothing behind; ids below the
    /// oldest, between two live ones (never tracked, or retired) and past
    /// the newest are absent.
    #[test]
    fn an_op_ring_keeps_only_live_ops() {
        let mut ring = OpRing(VecDeque::new());
        for op in [10, 11, 12, 15] {
            ring.insert(op, op * 2);
        }
        ring.retain(|op, _| op != 11 && op != 12);
        assert_eq!(ring.len(), 2);
        *ring.get_mut(15).unwrap() += 1;
        let found: Vec<_> = (0..20).filter(|&op| ring.contains(op)).collect();
        assert_eq!(found, [10, 15]);
        assert_eq!((ring.get(9), ring.get(13)), (None, None));
        assert_eq!(ring.get_mut(16), None);
        let live: Vec<_> = ring.iter_mut().map(|(op, v)| (op, *v)).collect();
        assert_eq!(live, [(10, 20), (15, 31)]);
        ring.insert(16, 0);
        ring.retain(|op, _| op != 15);
        assert_eq!(ring.0.iter().map(|e| e.0).collect::<Vec<_>>(), [10, 16]);
        ring.retain(|_, _| false);
        assert!(ring.is_empty());
    }

    /// One held op keeps only itself: on 1 x 2, rank 1 posts an `ibcast`
    /// over both ranks and does not poll it while rank 0 completes a
    /// thousand `ibcast`s of its own (rank 1 posts them as a non-member).
    /// Rank 0's rings hold at most the held op and the current one, and
    /// nothing once the held op completes.
    #[test]
    fn a_held_op_keeps_only_itself() {
        const OPS: usize = 1000;
        let cluster = Cluster::new(1, 2);
        let bar = Arc::new(bgp_smp::SenseBarrier::new(2));
        let out = cluster.run(move |cctx| {
            let mut tok = bar.token();
            let [held, buf] = [(); 2].map(|_| Arc::new(SharedRegion::new(64)));
            let mut sched = Sched::new(cctx);
            let first = sched.ibcast(&[0, 1], 0, 0, Some(&held), 64).unwrap();
            let mut widest = 0;
            for _ in 0..OPS {
                let mine = (cctx.rank() == 0).then_some(&buf);
                let req = sched.ibcast(&[0], 0, 0, mine, 64).unwrap();
                // Rank 1 does not poll: its non-member post is complete.
                let Some(e) = sched.engine.as_ref() else {
                    continue;
                };
                widest = widest.max(sched.roles.len().max(e.ops.len()));
                sched.wait(req);
            }
            bar.wait(&mut tok);
            sched.wait(first);
            sched.drain();
            let left = sched.engine.as_ref().map(|e| e.ops.len());
            (widest, sched.roles.len(), left)
        });
        assert_eq!(out[0][0], (2, 0, Some(0)), "{out:?}");
        assert_eq!(out[0][1], (0, 0, None), "{out:?}");
    }

    /// `Sched` keeps only in-flight operations: ten thousand completed ones
    /// leave nothing for `poll` or the engine to walk.
    #[test]
    fn completed_ops_leave_nothing_behind() {
        let cluster = Cluster::new(2, 1);
        let left = cluster.run(|cctx| {
            let bufs: Vec<_> = (0..16).map(|_| Arc::new(SharedRegion::new(64))).collect();
            let mut sched = Sched::new(cctx);
            let mut reqs = Vec::new();
            for i in 0..10_000 {
                // Every eighth op is empty: complete at post, never tracked.
                let len = if i % 8 == 7 { 0 } else { 64 };
                reqs.push(
                    sched
                        .ibcast(&[0], i % 2, 0, Some(&bufs[i % 16]), len)
                        .unwrap(),
                );
                if reqs.len() == 16 {
                    sched.wait_all(&reqs);
                    assert!(reqs.iter().all(|r| sched.is_complete(*r)));
                    reqs.clear();
                }
            }
            (
                sched.roles.len(),
                sched.engine.as_ref().map_or(0, |e| e.ops.len()),
                sched.active_bufs.len(),
                sched.in_flight(),
            )
        });
        assert!(
            left.iter().flatten().all(|&l| l == (0, 0, 0, 0)),
            "{left:?}"
        );
    }

    /// The engine lets go of an `iallreduce` member's output within the
    /// polls that complete the op, so the output's vector can be moved out
    /// (what the service does with every result). A member whose output
    /// the result is chased into holds the only reference once its request
    /// completes. On the engine rank the landing member's last report
    /// retires the op in the same poll. A landing member off the engine
    /// rank gets its output back once the engine rank polls again, which a
    /// rank does before it idles (here: `drain`); waiting for it is bounded.
    #[test]
    fn an_allreduce_output_is_let_go_by_the_polls_that_complete_the_op() {
        const COUNT: usize = 5000;
        let shapes: [(usize, usize, &[usize]); 6] = [
            (2, 1, &[0]),
            (2, 2, &[0, 1]),
            (3, 1, &[0]),
            (1, 2, &[0, 1]),
            (2, 2, &[1]),
            (3, 2, &[1]),
        ];
        for (m, n, group) in shapes {
            let cluster = Cluster::new(m, n);
            cluster.run(move |cctx| {
                let mut sched = Sched::new(cctx);
                let member = group.binary_search(&cctx.rank()).ok();
                for round in 0..8 {
                    let own = |gi: usize| (0..COUNT).map(|k| (k + gi + round) as f64).collect();
                    let bufs = member.map(|i| {
                        let gi = cctx.node() * group.len() + i;
                        let input = Arc::new(SharedRegion::from_f64s(own(gi)));
                        (input, Arc::new(SharedRegion::from_f64s(vec![0.0; COUNT])))
                    });
                    let (input, output) =
                        (bufs.as_ref().map(|b| &b.0), bufs.as_ref().map(|b| &b.1));
                    let req = sched.iallreduce(group, input, output, COUNT).unwrap();
                    sched.wait(req);
                    let engine_ops = sched.engine.as_ref().map(|e| e.ops.contains(req.op));
                    match member {
                        Some(0) if engine_ops.is_some() => {
                            assert_eq!(engine_ops, Some(false), "{m}x{n} {group:?}: not retired")
                        }
                        Some(0) => {}
                        Some(_) => assert_eq!(Arc::strong_count(output.unwrap()), 1),
                        None => sched.drain(),
                    }
                    let Some((input, output)) = bufs else {
                        continue;
                    };
                    drop(input);
                    let start = std::time::Instant::now();
                    while Arc::strong_count(&output) > 1 {
                        assert!(start.elapsed().as_secs() < 30, "{m}x{n} {group:?}: held");
                        sched.poll();
                        spin();
                    }
                    let got = Arc::into_inner(output).unwrap().into_f64s().ok().unwrap();
                    let members = m * group.len();
                    let want =
                        (0..COUNT).map(|k| (0..members).map(|gi| (k + gi + round) as f64).sum());
                    assert!(got.into_iter().eq(want), "{m}x{n} {group:?} round {round}");
                }
            });
        }
    }

    /// The one op-size limit at its boundary: a stream of one chunk less
    /// than a link tag can number is accepted, the limit is not.
    #[test]
    fn check_size_accepts_one_chunk_under_the_limit_and_refuses_the_limit() {
        for chunk in [8, 16 * 1024] {
            assert_eq!(check_size((tag::CHUNK_LIMIT - 1) * chunk, chunk), Ok(()));
            let at = check_size(tag::CHUNK_LIMIT * chunk, chunk);
            assert_eq!(at, Err(SchedError::TooLarge));
        }
    }

    /// Every post at the limit is `TooLarge` on every rank, before the
    /// buffer lengths are looked at (the buffers here are 8 bytes) and
    /// without consuming an op id.
    #[test]
    fn posts_at_the_limit_are_too_large_and_consume_no_op_id() {
        let cluster = Cluster::with_geometry(2, 2, 8, 2);
        let out = cluster.run(|cctx| {
            let (a, b) = (
                Arc::new(SharedRegion::new(8)),
                Arc::new(SharedRegion::new(8)),
            );
            let limit = tag::CHUNK_LIMIT * 8;
            let mut sched = Sched::new(cctx);
            let refused = [
                sched.ibcast(&[0, 1], 0, 0, Some(&a), limit),
                sched.iallreduce(&[0, 1], Some(&a), Some(&b), limit / 8),
                sched.ireduce_scatter(&[0, 1], Some(&a), Some(&b), limit / 8),
                sched.iallgather(&[0, 1], Some(&a), Some(&b), limit / 2),
            ];
            let next = sched.ibcast(&[0, 1], 0, 0, Some(&a), 8).unwrap();
            sched.wait(next);
            (refused.map(|r| r.unwrap_err()), next.op_id())
        });
        for (refused, next) in out.into_iter().flatten() {
            assert_eq!(refused, [(); 4].map(|_| SchedError::TooLarge));
            assert_eq!(next, 0, "a refused post consumed an op id");
        }
    }

    #[test]
    #[should_panic(expected = "request was issued by this scheduler")]
    fn a_request_this_scheduler_never_issued_panics() {
        let cluster = Cluster::new(1, 1);
        cluster.run(|cctx| {
            let buf = Arc::new(SharedRegion::new(8));
            let mut sched = Sched::new(cctx);
            let req = sched.ibcast(&[0], 0, 0, Some(&buf), 8).unwrap();
            sched.wait(req);
            sched.is_complete(Request { op: req.op + 1 })
        });
    }
}
