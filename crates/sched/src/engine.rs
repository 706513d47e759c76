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
//! * window tags: `(1 << 62) | (op << 1) | role` with role 0 = a member's
//!   application buffer (broadcast source, allreduce input) and role 1 = an
//!   engine-owned staging region (broadcast stage, node accumulator).
//!   The high bit keeps sched tags disjoint from the blocking collectives'.
//! * counter-bank keys: `(op << 8) | stream` — reception bytes, net-done,
//!   member-done, result bytes, and one contribution stream per member.
//! * link tags: [`tag::pack`]`(op, kind, chunk)` — the one layout every
//!   link uses, with the op id in its stream field.
//!
//! ## Protocols
//!
//! The engine steps `bgp_smp::wire` for all three; no link send originates
//! in this file:
//!
//! **ibcast** — the root exposes its buffer; the engine on the root node
//! maps it and injects all chunks down the re-rooted tree ([`Fabric::bcast_out`]);
//! root-node members copy straight out of the root's buffer (valid in full
//! at post time). On every other node the engine receives chunks into a
//! staging region, publishes received bytes on the op's reception counter,
//! and forwards on the remaining tree ports out of the stage; members chase
//! the counter and copy out — §V-B's reception/copy overlap, per op. The
//! outbound half, injection and forwarding alike, is a
//! [`wire::TreeFeed`](TreeFeed) per op — the feeder the blocking broadcast
//! drives to completion, pumped here once per pass with whatever is valid
//! so far. Only the receive half differs from the blocking
//! [`wire::tree_recv`](bgp_smp::wire::tree_recv), which relays from the
//! slot loan and blocks on downstream room: chunks land in a stage the
//! members chase, so a full downstream link never holds up a receive.
//!
//! **iallreduce / ireduce_scatter** — members expose inputs; the engine
//! exposes a node accumulator. The local reduce is partitioned by member
//! index (member i sums *all* local inputs over its chunk share, publishing
//! its contribution stream), and the network side is a
//! [`wire::RingFlow`](RingFlow) — the very partial/full flow of the
//! blocking `allreduce_f64`, gating and all — over the accumulator, tagged
//! per op and interleaved with every other in-flight op's. Ring direction
//! alternates with op parity so consecutive ops use both links.
//!
//! **iallgather** — members deposit their blocks into the node's superblock
//! of the accumulator; the network side is [`wire::plan_allgather`] over
//! ring positions under a [`wire::PlanCursor`](PlanCursor), and a
//! [`wire::Prefix`](Prefix) turns superblocks landing in ring order into
//! the node-major byte prefix members chase.
//!
//! What is the engine's own: demultiplexing arrivals by op tag, the stash,
//! the broadcast stage's receive side, and retirement.
//!
//! ## Members
//!
//! A rank's side of any operation is one record ([`Member`]): an optional
//! *contribution* (sum a share of the inputs, deposit a block), one *chase*
//! (copy a span of a source region into the rank's buffer as a counter
//! passes it), an optional *release* condition under which the buffer
//! the rank exposed may be withdrawn (a broadcast root: injection done and
//! every co-located member copied; a reduce member: every local
//! contribution stream complete, since co-members read its input), and a
//! final report on the op's done counter. Every member reports, the
//! broadcast root included, and only after it has looked up every counter
//! it will ever use: the engine retires the op's counters when all members
//! of the node have reported, and the bank's lookup is get-or-create — a
//! member still to look one up after retirement (a root that posts late,
//! say) would wait on a fresh zero forever.
//!
//! ## Progress, parking, completion
//!
//! Everything the engine sends uses non-blocking sends, and every gate is
//! the stepper's: broadcast data and planned receives land in preallocated
//! regions unconditionally; a `RingFlow` consume waits for the local
//! partial and for downstream room, which `bgp_smp::wire` shows cannot
//! deadlock the ring cycle however many flows share a link. Chunks that
//! arrive for an op this node has not posted yet (a faster peer ran ahead,
//! possibly across a job boundary) are parked in the node's stash
//! ([`NodeShared::sched_stash`]) and replayed, in arrival order, once the
//! post happens — a replayed chunk and one on a slot loan enter a stepper
//! the same way. The stash keeps every chunk it parks, and the engine keeps
//! draining the link into it: a node that stopped draining would strand the
//! chunks of an op it has posted behind those of one it has not, and a
//! dropped chunk would wedge its op ([`SchedStash`](bgp_smp::SchedStash)).
//!
//! A request completes when the rank's member record is finished **and**,
//! on the engine rank, the op's network flow on this node is too: all its
//! receives consumed, everything it will ever send in a link. Without the
//! second half a caller could leave `wait` and block somewhere that does not
//! poll while its node still owed the ring a chunk — the peer would wait
//! for it forever. [`Sched`] tracks only in-flight operations; a completed
//! one leaves nothing behind.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use bgp_shmem::{spin, MessageCounter, SharedRegion};
use bgp_smp::cluster::sum_regions;
use bgp_smp::transport::{ChunkChannel, Fabric, RingDir};
use bgp_smp::wire::{
    plan_allgather, tag, Kind, Local, PlanCursor, Prefix, RingFlow, RingPlan, Stepper, TreeFeed,
};
use bgp_smp::{ClusterCtx, NodeShared};

use crate::SchedError;

/// Window-tag role: a member's exposed application buffer.
const ROLE_DATA: u64 = 0;
/// Window-tag role: an engine-owned staging region.
const ROLE_STAGE: u64 = 1;
/// Keeps sched window tags disjoint from the blocking collectives' tags.
const SCHED_TAG_BIT: u64 = 1 << 62;

fn reg_tag(op: u64, role: u64) -> u64 {
    SCHED_TAG_BIT | (op << 1) | role
}

/// Counter-bank streams within one op (key = `(op << 8) | stream`).
const SUB_RECV: u64 = 0;
const SUB_NETDONE: u64 = 1;
const SUB_DONE: u64 = 2;
const SUB_RES: u64 = 3;
/// Per-member partial streams start here: `SUB_PART + member_index`.
const SUB_PART: u64 = 8;

/// Counter-bank sub-keys available to one op: [`bank_key`] packs the
/// stream id into the low 8 bits, so an op owns exactly 256 keys.
pub const COUNTER_KEY_BUDGET: usize = 256;
/// Sub-keys reserved for the op's fixed streams (`SUB_RECV`..`SUB_RES`
/// plus headroom up to `SUB_PART`, where per-member streams begin).
pub const RESERVED_COUNTER_KEYS: usize = SUB_PART as usize;
/// Largest group one op can address: every member needs a partial stream
/// out of the [`COUNTER_KEY_BUDGET`] after the [`RESERVED_COUNTER_KEYS`].
pub const MAX_GROUP_RANKS: usize = COUNTER_KEY_BUDGET - RESERVED_COUNTER_KEYS;

fn bank_key(op: u64, sub: u64) -> u64 {
    (op << 8) | sub
}

/// The one op-size limit, shared by the engine posts and the server
/// submissions: [`SchedError::TooLarge`] unless a `bytes`-byte stream of
/// `chunk`-byte chunks numbers its chunks within a link [`tag`].
pub(crate) fn check_size(bytes: usize, chunk: usize) -> Result<(), SchedError> {
    tag::fits(bytes, chunk)
        .then_some(())
        .ok_or(SchedError::TooLarge)
}

/// Validate a group's *shape* — the checks that depend only on the group
/// and the node geometry, shared by the engine posts, the server
/// submissions, and `bgp-svc` communicator creation (which validates once
/// at `Comm` creation and reuses the group across ops).
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

/// This rank's side of one in-flight operation (see the module docs).
struct Member {
    contribute: Option<Contribute>,
    chase: Option<Chase>,
    /// `(counter, value it must reach)`: once all hold, the buffer this rank
    /// exposed under [`ROLE_DATA`] is withdrawn.
    release: Option<Vec<(Arc<MessageCounter>, u64)>>,
    /// Tells the engine this member is finished — every member, last of
    /// all: the engine retires the op's counters once all have reported,
    /// so reporting is the promise never to look one up again.
    done: Arc<MessageCounter>,
}

/// What a member puts into the node accumulator: the f64-lane sum of bytes
/// `[lo, hi)` of every input, at offset `at`, publishing `part` as it goes.
/// A reduce member sums every group member's exposed input over its share;
/// an allgather member "sums" its one block — a copy.
struct Contribute {
    /// Ranks whose exposed inputs are summed, mapped in this order into
    /// `inputs`; empty when `inputs` was handed over complete.
    owners: Vec<usize>,
    inputs: Vec<Arc<SharedRegion>>,
    lo: usize,
    hi: usize,
    at: usize,
    chunk: usize,
    part: Arc<MessageCounter>,
}

impl Contribute {
    /// Make the contribution into `acc`; `false` (nothing written) while a
    /// co-member's input is not exposed yet.
    fn run(
        &mut self,
        op: u64,
        acc: &SharedRegion,
        shared: &NodeShared,
        seen: &mut HashSet<usize>,
    ) -> bool {
        while let Some(&owner) = self.owners.get(self.inputs.len()) {
            let tag = reg_tag(op, ROLE_DATA);
            let Some(input) = shared.registry().try_map_auto(owner as u32, tag, seen) else {
                return false;
            };
            self.inputs.push(input);
        }
        // SAFETY: this member is the unique writer of its share of the
        // accumulator and readers (engine sends, co-member copy-outs) are
        // gated on the publish; inputs are final from before the post, and
        // reading a co-member's ungated is ordered by the registry map.
        unsafe {
            sum_regions(
                acc,
                self.at,
                &self.inputs,
                self.lo,
                self.hi,
                self.chunk,
                |len| {
                    self.part.publish(len as u64);
                },
            )
        };
        true
    }
}

/// Copy bytes `[lo, hi)` of a source region — exposed by `owner` under
/// `tag` — to the start of `dst`, as the gate counter passes them.
struct Chase {
    owner: u32,
    tag: u64,
    src: Option<Arc<SharedRegion>>,
    /// Bytes of the source that are valid, as a prefix from offset 0;
    /// `None` when the source was valid in full at post time.
    gate: Option<Arc<MessageCounter>>,
    lo: usize,
    hi: usize,
    dst: Arc<SharedRegion>,
    copied: usize,
}

impl Member {
    /// A member that copies `span` of the region `owner` exposed under
    /// `tag` to the start of `dst` as `gate` passes it (see [`Chase`]), then
    /// reports on `done`.
    fn chasing(
        owner: u32,
        tag: u64,
        gate: Option<Arc<MessageCounter>>,
        span: std::ops::Range<usize>,
        dst: Arc<SharedRegion>,
        done: Arc<MessageCounter>,
    ) -> Member {
        let chase = Chase {
            owner,
            tag,
            src: None,
            gate,
            lo: span.start,
            hi: span.end,
            dst,
            copied: 0,
        };
        Member {
            contribute: None,
            chase: Some(chase),
            release: None,
            done,
        }
    }

    /// Advance a little; `true` once finished (and not to be stepped again).
    fn step(
        &mut self,
        op: u64,
        rank: usize,
        shared: &NodeShared,
        seen: &mut HashSet<usize>,
    ) -> bool {
        let registry = shared.registry();
        if let Some(ch) = self.chase.as_mut() {
            if ch.src.is_none() {
                ch.src = registry.try_map_auto(ch.owner, ch.tag, seen);
            }
            let Some(src) = ch.src.as_ref() else {
                return false;
            };
            // A contribution goes into the region the chase reads from.
            if let Some(c) = self.contribute.as_mut() {
                if !c.run(op, src, shared, seen) {
                    return false;
                }
                self.contribute = None;
            }
            let valid = ch.gate.as_ref().map_or(ch.hi, |g| g.read() as usize);
            let avail = valid.min(ch.hi).saturating_sub(ch.lo);
            if avail > ch.copied {
                // SAFETY: `[lo + copied, lo + avail)` of the source was
                // published before the counter value we acquired (or before
                // the exposure, when ungated); dst is exclusively ours.
                unsafe {
                    ch.dst
                        .copy_from(ch.copied, src, ch.lo + ch.copied, avail - ch.copied)
                };
                ch.copied = avail;
            }
            if ch.copied < ch.hi - ch.lo {
                return false;
            }
        }
        if let Some(release) = self.release.as_ref() {
            if !release.iter().all(|(c, v)| c.read() >= *v) {
                return false;
            }
            registry.unexpose(rank as u32, reg_tag(op, ROLE_DATA));
        }
        self.done.publish(1);
        true
    }
}

/// The network side of one broadcast on this node.
struct NetBcast {
    root_node: usize,
    root_rank: usize,
    len: usize,
    is_root_node: bool,
    /// Root node: the mapped source (may lag the post of a co-located
    /// root). Elsewhere: the engine-owned staging region.
    buf: Option<Arc<SharedRegion>>,
    /// What is out on the outbound tree ports (port order of `bcast_out`).
    feed: TreeFeed,
    /// Bytes of the message valid on this node, as a prefix: all of it at
    /// the root, what has been received into the stage elsewhere.
    valid: usize,
    recv_ctr: Option<Arc<MessageCounter>>,
    netdone: Arc<MessageCounter>,
    netdone_published: bool,
}

impl NetBcast {
    fn accept(&mut self, k: usize, bytes: &[u8], chunk: usize) {
        debug_assert_eq!(k * chunk, self.valid, "broadcast chunks arrive in order");
        debug_assert_eq!(bytes.len(), (self.len - k * chunk).min(chunk));
        let stage = self.buf.as_ref().expect("a non-root node has its stage");
        // SAFETY: the engine is the only writer of the stage; member
        // reads are gated on the reception counter published below.
        unsafe { stage.write(self.valid, bytes) };
        self.valid += bytes.len();
        self.recv_ctr
            .as_ref()
            .expect("only non-root nodes receive")
            .publish(bytes.len() as u64);
    }

    /// Inject (root node) or forward (elsewhere) on every outbound tree
    /// port, then publish net-done once nothing is owed.
    fn pump(&mut self, op: u64, outs: &[&ChunkChannel]) {
        if let Some(buf) = self.buf.as_ref() {
            let data = |k| tag::pack(op, Kind::Data, k);
            // SAFETY: `feed` only asks for bytes below `valid`.
            (self.feed).pump(outs, self.valid, data, |off, d| unsafe { buf.read(off, d) });
        }
        // Everything being out implies everything was received.
        if !self.netdone_published && self.feed.flushed() == self.len {
            self.netdone.publish(1);
            self.netdone_published = true;
        }
    }
}

/// The node accumulator of one ring collective — the engine-owned region
/// members contribute to and copy results out of — as the [`Local`] the
/// op's stepper runs against.
struct Acc {
    region: Arc<SharedRegion>,
    /// One contribution stream per member: bytes of its reduce share summed,
    /// or of its block deposited.
    parts: Vec<Arc<MessageCounter>>,
    /// Bytes of the accumulator holding final values, as a prefix: what
    /// members chase. Only the engine publishes it.
    res: Arc<MessageCounter>,
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
    /// The accumulator offset of the stepper's offset `off`.
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
                let mut off = self.res.read() as usize;
                while off < self.total {
                    let len = (self.total - off).min(chunk);
                    if !self.ready(0, off, len) {
                        break;
                    }
                    self.res.publish(len as u64);
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
                let parts = &self.parts;
                let deposited = |_: &mut usize| parts.iter().all(|c| c.read() >= *block as u64);
                if let Some(node) = own.take_if(deposited) {
                    self.res.publish(prefix.land(node, *sb) as u64);
                }
            }
        }
    }

    fn settled(&self) -> bool {
        self.res.read() as usize >= self.total
    }
}

impl Local for Acc {
    fn ready(&self, _: usize, off: usize, len: usize) -> bool {
        match &self.layout {
            Layout::Sum { chunk } => {
                // The chunk's owner in the local reduce, and how far its
                // stream must have come for the chunk's local sum to stand.
                let (g, kt) = (self.parts.len(), self.total.div_ceil(*chunk));
                let i = ((off / chunk + 1) * g - 1) / kt;
                let (lo, hi) = reduce_share(i, g, self.total, *chunk);
                debug_assert!(lo <= off && off + len <= hi);
                self.parts[i].read() >= (off + len - lo) as u64
            }
            // Only this node's own superblock is ever gated on readiness:
            // have all local members deposited?
            Layout::Blocks { block, .. } => self.parts.iter().all(|c| c.read() >= *block as u64),
        }
    }

    fn read<R>(&self, _: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        // SAFETY: per the `Local` contract the range's contributors have
        // published it (`ready`, an acquire) or the engine wrote it, and the
        // engine is its only writer from then on.
        unsafe { self.region.with_bytes(self.at(off), len, f) }
    }

    fn write<R>(&mut self, _: usize, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        // SAFETY: as for `read`; members read the range only after `res`
        // covers it.
        unsafe { self.region.with_bytes_mut(self.at(off), len, f) }
    }

    fn landed(&mut self, _: usize, off: usize, len: usize) {
        match &mut self.layout {
            // Fulls land in order, so the prefix grows chunk by chunk.
            Layout::Sum { .. } => {
                self.res.publish(len as u64);
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
                    self.res.publish(grew as u64);
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
    Ring(Box<NetRing>),
}

/// One operation as the engine sees it.
struct NetOp {
    net: Net,
    /// Members of this node that finished, against how many there are to
    /// wait for before the op's counters and windows can go.
    done: Arc<MessageCounter>,
    expected_done: u64,
}

impl NetOp {
    /// The link this op's chunks arrive on (`m > 1`).
    fn in_port<'f>(&self, fabric: &'f Fabric, node: usize) -> Option<&'f ChunkChannel> {
        match &self.net {
            Net::Bcast(b) if b.is_root_node => None,
            Net::Bcast(b) => Some(fabric.bcast_in(node, b.root_node)),
            Net::Ring(r) => Some(fabric.ring_recv(node, r.dir)),
        }
    }

    /// Can the next chunk for this op, of `kind`, be consumed right now?
    /// Consuming is only allowed after this returns true.
    fn can_accept(&self, kind: Kind, fabric: &Fabric, node: usize) -> bool {
        match &self.net {
            // Broadcast data lands in the preallocated stage: always.
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

    /// Is the op's network flow on this node finished: all its receives
    /// consumed, everything it will ever send in a link?
    fn net_finished(&self) -> bool {
        match &self.net {
            Net::Bcast(b) => b.netdone_published,
            Net::Ring(r) => r.finished(),
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
    seen: HashSet<usize>,
    ops: BTreeMap<u64, NetOp>,
}

impl Engine {
    fn is_idle(&self) -> bool {
        self.ops.is_empty()
    }

    /// See [`NetOp::net_finished`]; a retired op is finished.
    fn net_finished(&self, op: u64) -> bool {
        self.ops.get(&op).is_none_or(NetOp::net_finished)
    }

    fn register_bcast(
        &mut self,
        op: u64,
        group_len: usize,
        root_node: usize,
        root_rank: usize,
        len: usize,
    ) {
        let bank = self.shared.sched_bank();
        let is_root_node = self.node == root_node;
        let (buf, recv_ctr) = if is_root_node {
            // The co-located root's exposed source; it may not have posted
            // yet — `advance` maps it then.
            (None, None)
        } else {
            let stage = Arc::new(SharedRegion::new(len));
            self.shared
                .registry()
                .expose(0, reg_tag(op, ROLE_STAGE), stage.clone());
            (Some(stage), Some(bank.counter(bank_key(op, SUB_RECV))))
        };
        let net = Net::Bcast(NetBcast {
            root_node,
            root_rank,
            len,
            is_root_node,
            buf,
            feed: TreeFeed::new(
                self.fabric.bcast_out(self.node, root_node).len(),
                len,
                self.chunk,
            ),
            valid: if is_root_node { len } else { 0 },
            recv_ctr,
            netdone: bank.counter(bank_key(op, SUB_NETDONE)),
            netdone_published: false,
        });
        self.insert(op, net, group_len);
    }

    /// Register a ring collective over a fresh `total`-byte accumulator;
    /// `step(pos)` builds its stepper for ring position `pos` (`m > 1`).
    fn register_ring(
        &mut self,
        op: u64,
        g: usize,
        total: usize,
        layout: Layout,
        step: impl FnOnce(usize) -> Step,
    ) {
        let bank = self.shared.sched_bank();
        let region = Arc::new(SharedRegion::new(total));
        self.shared
            .registry()
            .expose(0, reg_tag(op, ROLE_STAGE), region.clone());
        let dir = ring_dir(op);
        let net = Net::Ring(Box::new(NetRing {
            dir,
            step: (self.m > 1).then(|| step(self.fabric.ring_pos(self.node, dir))),
            acc: Acc {
                region,
                parts: (0..g)
                    .map(|i| bank.counter(bank_key(op, SUB_PART + i as u64)))
                    .collect(),
                res: bank.counter(bank_key(op, SUB_RES)),
                total,
                layout,
            },
        }));
        self.insert(op, net, g);
    }

    fn insert(&mut self, op: u64, net: Net, expected_done: usize) {
        let done = self.shared.sched_bank().counter(bank_key(op, SUB_DONE));
        let netop = NetOp {
            net,
            done,
            expected_done: expected_done as u64,
        };
        self.ops.insert(op, netop);
    }

    /// One engine pass: replay parked chunks, drain in-ports, push
    /// outbound progress, and retire finished ops.
    fn advance(&mut self) {
        let fabric = self.fabric.clone();
        let shared = self.shared.clone();
        let registry = shared.registry();
        let (node, m) = (self.node, self.m);

        // Resolve broadcast sources whose co-located root posted after us.
        for (op, netop) in self.ops.iter_mut() {
            if let Net::Bcast(b) = &mut netop.net {
                if b.buf.is_none() {
                    b.buf = registry.try_map_auto(
                        b.root_rank as u32,
                        reg_tag(*op, ROLE_DATA),
                        &mut self.seen,
                    );
                }
            }
        }

        // Replay parked chunks of now-posted ops, oldest first. Ops whose
        // stash stays non-empty must keep stashing port arrivals to
        // preserve per-link order.
        let mut stashed_ops: HashSet<u64> = HashSet::new();
        {
            let mut stash = shared.sched_stash().lock();
            for (op, netop) in self.ops.iter_mut() {
                while let Some(t) = stash.front_tag(*op) {
                    if !netop.can_accept(tag::unpack(t).1, &fabric, node) {
                        break;
                    }
                    let (_, bytes) = stash.pop_front(*op).expect("front_tag was Some");
                    netop.accept(t, &bytes, &fabric, node);
                }
            }
            stashed_ops.extend(stash.parked_ops());
        }

        // Drain every distinct in-port of the active ops.
        let mut ports: Vec<&ChunkChannel> = Vec::new();
        if m > 1 {
            ports.extend(self.ops.values().filter_map(|o| o.in_port(&fabric, node)));
            ports.sort_by_key(|c| *c as *const ChunkChannel as usize);
            ports.dedup_by_key(|c| *c as *const ChunkChannel as usize);
        }
        for port in ports {
            while let Some(t) = port.peek_tag() {
                let (op, kind, _) = tag::unpack(t);
                if !self.ops.contains_key(&op) || stashed_ops.contains(&op) {
                    // Not posted here yet (or already queuing behind such
                    // chunks): park it and keep the link draining. Parking
                    // outlives the slot loan, so `park` copies the bytes —
                    // the one owned copy left on the engine's receive path;
                    // every in-order arrival is consumed in place.
                    let mut stash = shared.sched_stash().lock();
                    port.recv_with(|t, b| stash.park(op, t, b));
                    stashed_ops.insert(op);
                    continue;
                }
                let netop = self.ops.get_mut(&op).expect("checked above");
                if !netop.can_accept(kind, &fabric, node) {
                    // Transient head-of-line wait on node-local progress
                    // or downstream room.
                    break;
                }
                port.recv_with(|_, bytes| netop.accept(t, bytes, &fabric, node));
            }
        }

        // Outbound progress.
        for (op, netop) in self.ops.iter_mut() {
            match &mut netop.net {
                Net::Bcast(b) => b.pump(*op, &fabric.bcast_out(node, b.root_node)),
                Net::Ring(r) => r.pump(*op, (m > 1).then(|| fabric.ring_send(node, r.dir))),
            }
        }

        // Retire ops whose network duties and local member copies are done:
        // unexpose engine-owned windows and drop the per-op counters.
        // Members keep their counter Arcs alive, so retirement is pure map
        // cleanup.
        let bank = shared.sched_bank();
        self.ops.retain(|&op, o| {
            if !(o.net_finished() && o.done.read() >= o.expected_done) {
                return true;
            }
            // Whether the op staged a window, and the streams it created.
            let (staged, subs, parts): (bool, &[u64], usize) = match &o.net {
                Net::Bcast(b) if b.is_root_node => (false, &[SUB_NETDONE, SUB_DONE], 0),
                Net::Bcast(_) => (true, &[SUB_RECV, SUB_NETDONE, SUB_DONE], 0),
                Net::Ring(r) => (true, &[SUB_RES, SUB_DONE], r.acc.parts.len()),
            };
            if staged {
                registry.unexpose(0, reg_tag(op, ROLE_STAGE));
            }
            let parts = (0..parts as u64).map(|i| SUB_PART + i);
            for sub in subs.iter().copied().chain(parts) {
                bank.retire(bank_key(op, sub));
            }
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
/// window exposures leak into the next operation (or job) on these links.
/// Under SPMD discipline every rank reaches its drop, so the quiesce
/// terminates.
pub struct Sched {
    node: usize,
    rank: usize,
    m: usize,
    n: usize,
    shared: Arc<NodeShared>,
    chunk: usize,
    seen: HashSet<usize>,
    /// In-flight operations only. `None`: the member side is finished (or
    /// this rank is no member) and the request waits for the node's network
    /// flow — engine rank only.
    roles: BTreeMap<u64, Option<Member>>,
    /// Op ids this scheduler issued (they are consecutive).
    issued: std::ops::Range<u64>,
    /// Region pointer -> op currently owning the buffer (overlap guard).
    active_bufs: HashMap<usize, u64>,
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
            seen: HashSet::new(),
            ops: BTreeMap::new(),
        });
        Sched {
            node: cctx.node(),
            rank: cctx.rank(),
            m: cctx.n_nodes(),
            n: cctx.n_ranks(),
            shared,
            chunk,
            seen: HashSet::new(),
            roles: BTreeMap::new(),
            issued: 0..0,
            active_bufs: HashMap::new(),
            engine,
        }
    }

    /// The skeleton every post shares, after its group checks. The op-size
    /// limit on its widest tagged `stream` of bytes, membership against the
    /// buffers supplied, their sizes (`bufs` pairs each with the bytes it
    /// must hold), aliasing and the overlap guard are checked before any
    /// side effect; then the op gets its id, a member its record from
    /// `member(self, op, index in group)`, and the engine its half from
    /// `register`. An operation of an empty stream is complete at post.
    fn post(
        &mut self,
        group: &[usize],
        bufs: &[(Option<&Arc<SharedRegion>>, usize)],
        stream: usize,
        member: impl FnOnce(&Sched, u64, usize) -> Member,
        register: impl FnOnce(&mut Engine, u64),
    ) -> Result<Request, SchedError> {
        check_size(stream, self.chunk)?;
        let me = group.binary_search(&self.rank).ok();
        if me.is_some() && bufs.iter().any(|(b, _)| b.is_none()) {
            return Err(SchedError::BufferMissing);
        }
        if me.is_none() && bufs.iter().any(|(b, _)| b.is_some()) {
            return Err(SchedError::UnexpectedBuffer);
        }
        let mut ptrs = Vec::with_capacity(bufs.len());
        for (b, needed) in bufs.iter().filter_map(|&(b, needed)| Some((b?, needed))) {
            if b.len() < needed {
                return Err(SchedError::BufferTooShort {
                    needed,
                    got: b.len(),
                });
            }
            ptrs.push(Arc::as_ptr(b) as usize);
        }
        if ptrs.len() == 2 && ptrs[0] == ptrs[1] {
            return Err(SchedError::BufferAliased);
        }
        if stream > 0 {
            if let Some(&op) = ptrs.iter().find_map(|p| self.active_bufs.get(p)) {
                return Err(SchedError::BufferBusy { op });
            }
        }

        // --- all checks passed: side effects may begin ---
        let op = self.shared.next_sched_op(self.rank);
        if self.issued.is_empty() {
            self.issued.start = op;
        }
        self.issued.end = op + 1;
        if stream == 0 {
            return Ok(Request { op });
        }
        self.active_bufs.extend(ptrs.into_iter().map(|p| (p, op)));
        // Track a member's record, and on the engine rank even a
        // non-member's wait for the node's network flow. A non-member
        // elsewhere is complete at post.
        let member = me.map(|i| member(self, op, i));
        if let Some(engine) = self.engine.as_mut() {
            register(engine, op);
            self.roles.insert(op, member);
        } else if member.is_some() {
            self.roles.insert(op, member);
        }
        Ok(Request { op })
    }

    /// The op's counter for stream `sub`.
    fn counter(&self, op: u64, sub: u64) -> Arc<MessageCounter> {
        self.shared.sched_bank().counter(bank_key(op, sub))
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
        let member = |s: &Sched, op, _| {
            let buf = buf.expect("a member has a buffer").clone();
            let done = s.counter(op, SUB_DONE);
            if s.node != root_node {
                // Chase the engine's reception counter over its stage.
                let recv = Some(s.counter(op, SUB_RECV));
                Member::chasing(0, reg_tag(op, ROLE_STAGE), recv, 0..len, buf, done)
            } else if s.rank != root_rank {
                // On the root's node the source was complete at post time.
                Member::chasing(
                    root_rank as u32,
                    reg_tag(op, ROLE_DATA),
                    None,
                    0..len,
                    buf,
                    done,
                )
            } else {
                // The root waits for injection and for the co-located
                // members' copies, withdraws its source, then reports like
                // every member (so the engine cannot retire the counters
                // under a root that posts late and has yet to look them up).
                let tag = reg_tag(op, ROLE_DATA);
                s.shared.registry().expose(s.rank as u32, tag, buf);
                let netdone = s.counter(op, SUB_NETDONE);
                Member {
                    contribute: None,
                    chase: None,
                    release: Some(vec![(netdone, 1), (done.clone(), group.len() as u64 - 1)]),
                    done,
                }
            }
        };
        self.post(group, &[(buf, len)], len, member, |engine, op| {
            engine.register_bcast(op, group.len(), root_node, root_rank, len)
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
    /// identical network flow, differing only in each member's result span.
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
        let member = |s: &Sched, op, i| {
            let input = input.expect("a member has an input").clone();
            let tag = reg_tag(op, ROLE_DATA);
            s.shared.registry().expose(s.rank as u32, tag, input);
            // The result counter publishes a whole-message byte prefix; the
            // chase clamps it to this member's span.
            let (res, output) = (
                s.counter(op, SUB_RES),
                output.expect("a member has an output"),
            );
            let chased = Member::chasing(
                0,
                reg_tag(op, ROLE_STAGE),
                Some(res),
                span,
                output.clone(),
                s.counter(op, SUB_DONE),
            );
            // Only chunk owners read co-member inputs. A member whose share
            // is empty (`kt < g`) must not wait to map them: owners
            // withdraw their inputs once every contribution *stream*
            // completes, and an empty share's stream is trivially complete
            // — so an owner can finish and unexpose before this member ever
            // maps, and waiting would spin forever.
            let (lo, hi) = reduce_share(i, g, bytes, chunk);
            let contribute = (lo < hi).then(|| Contribute {
                owners: group.to_vec(),
                inputs: Vec::with_capacity(g),
                lo,
                hi,
                at: lo,
                chunk,
                part: s.counter(op, SUB_PART + i as u64),
            });
            // The input may only be released once no co-member can still
            // read it — i.e. every local stream ran to completion.
            let release = (0..g).map(|j| {
                let (lo, hi) = reduce_share(j, g, bytes, chunk);
                (s.counter(op, SUB_PART + j as u64), (hi - lo) as u64)
            });
            Member {
                contribute,
                release: Some(release.collect()),
                ..chased
            }
        };
        self.post(
            group,
            &[(input, bytes), (output, out_len)],
            bytes,
            member,
            |engine, op| {
                engine.register_ring(op, g, bytes, Layout::Sum { chunk }, |pos| {
                    Step::Flow(RingFlow::new(0, pos, m, bytes, chunk))
                })
            },
        )
    }

    /// Post a nonblocking allgather of `len`-byte blocks over every rank
    /// in `group` on every node: each member contributes its input block
    /// and every member's output receives all `m * group_len` blocks
    /// concatenated in global member order (`node * group_len +
    /// index_in_group`). Runs a ring allgather of node superblocks on the
    /// progress engine, interleaved with every other in-flight op.
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
        let member = |s: &Sched, op, i| Member {
            contribute: Some(Contribute {
                owners: Vec::new(),
                inputs: vec![input.expect("a member has an input").clone()],
                lo: 0,
                hi: len,
                at: s.node * sb + i * len,
                chunk,
                part: s.counter(op, SUB_PART + i as u64),
            }),
            ..Member::chasing(
                0,
                reg_tag(op, ROLE_STAGE),
                Some(s.counter(op, SUB_RES)),
                0..total,
                output.expect("a member has an output").clone(),
                s.counter(op, SUB_DONE),
            )
        };
        let register = |engine: &mut Engine, op| {
            let layout = Layout::Blocks {
                block: len,
                sb,
                own: Some(engine.node),
                node_of: (0..m)
                    .map(|w| engine.fabric.ring_node(w, ring_dir(op)))
                    .collect(),
                prefix: Prefix::new(total, sb),
            };
            engine.register_ring(op, g, total, layout, |pos| {
                Step::Plan(PlanCursor::new(plan_allgather(m, pos, sb, chunk)))
            })
        };
        self.post(
            group,
            &[(input, len), (output, total)],
            sb,
            member,
            register,
        )
    }

    /// Advance everything a little: the node's progress engine (rank 0)
    /// and this rank's side of every in-flight operation. Never blocks.
    pub fn poll(&mut self) {
        if let Some(engine) = self.engine.as_mut() {
            engine.advance();
        }
        let Sched {
            rank,
            shared,
            seen,
            roles,
            active_bufs,
            engine,
            ..
        } = self;
        roles.retain(|&op, slot| {
            if let Some(member) = slot {
                if !member.step(op, *rank, shared, seen) {
                    return true;
                }
                active_bufs.retain(|_, owner| *owner != op);
                *slot = None;
            }
            // On the engine rank the request stays open until the op's
            // network flow on this node is finished: once `wait` returns
            // the caller may stop polling, and a chunk still owed to the
            // ring would strand the peer.
            engine.as_ref().is_some_and(|e| !e.net_finished(op))
        });
    }

    /// Is the request locally complete (buffers reusable, nothing owed to
    /// the network)? Does not poll.
    pub fn is_complete(&self, req: Request) -> bool {
        assert!(
            self.issued.contains(&req.op),
            "request was issued by this scheduler"
        );
        !self.roles.contains_key(&req.op)
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

    /// `Sched` keeps only in-flight operations: ten thousand completed ones
    /// leave nothing for `poll` to walk.
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
                sched.active_bufs.len(),
                sched.in_flight(),
            )
        });
        assert!(left.iter().flatten().all(|&l| l == (0, 0, 0)), "{left:?}");
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
