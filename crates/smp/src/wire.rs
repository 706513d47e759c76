//! The inter-node wire protocols, written once.
//!
//! The paper has two of them: the §V-A/V-B **tree broadcast** and the §V-C
//! **partial/full ring allreduce**; the node-aware family of Bienz & Olson
//! adds ring **reduce-scatter / allgather stages** that its collectives
//! compose, and `alltoall` is one more plan over the same ring. This module
//! is the only place in `bgp-smp` and `bgp-sched` that originates a chunk on
//! a link (`ci.sh` greps for it) — the thread cluster, the cross-process
//! cluster and the nonblocking engine all call in here:
//!
//! * [`TreeFeed`] — the outbound half of the tree broadcast, re-entrant:
//!   [`tree_send`] drives it blocking at the root, the thread cluster's
//!   forwarding core drives it from its reception counter, the engine holds
//!   one per in-flight broadcast;
//! * [`tree_recv`] — the receive-and-relay-from-loan loop of the blocking
//!   tree broadcast;
//! * [`RingFlow`] — one colour of the partial/full ring allreduce;
//! * [`RingPlan`] + [`PlanCursor`] — an ordered send plan and receive plan
//!   over ring positions, built per algorithm by [`plan_allreduce`],
//!   [`plan_reduce_scatter`] and [`plan_allgather`] from one stage builder,
//!   and by [`plan_alltoall`];
//! * [`Prefix`] — which bytes of a result that lands segment by segment
//!   are valid as a prefix, i.e. what a node's copy-out ranks may chase.
//!
//! The two ring protocols are [`Stepper`]s: re-entrant state machines that
//! never touch an incoming link and never spin. Whoever owns the links
//! offers them chunks and pumps their sends: [`flat_ring`] and [`run_plan`]
//! are one blocking drive loop over them, the engine interleaves the
//! steppers of every in-flight operation, tagged per op.
//!
//! Everything is generic over the [`SlotStore`] (heap links for threads and
//! the model checker, segment links for processes) and over a [`Local`]:
//! how this node's own operand is reached, when a piece of it is ready, and
//! what happens when a final value lands. `[u8]` is the trivial `Local` (a
//! buffer the caller owns outright); the thread cluster and the engine
//! supply theirs over shared regions and message counters. All hooks are
//! statically dispatched; the steppers allocate nothing per chunk.

use std::borrow::Borrow;

use bgp_shmem::spin;

use crate::cluster::{chunks_of, pack_tag, unpack_tag, KIND_FULL, KIND_PARTIAL};
use crate::kernels;
use crate::transport::{ChunkChannel, Fabric, RingDir, SlotStore};

/// This node's own operand of a ring protocol, addressed as
/// `(flow, byte offset, length)`. `flow` is the colour for [`flat_ring`]
/// and always 0 for [`run_plan`].
///
/// The engines call [`read`](Self::read) on a range only after
/// [`ready`](Self::ready) covered it or after they wrote it themselves,
/// and are the only writer of a range between its `ready` and its
/// [`landed`](Self::landed) — implementors over shared memory rest their
/// safety argument on exactly that.
pub trait Local {
    /// Has this node's own contribution to the range been produced?
    fn ready(&self, _flow: usize, _off: usize, _len: usize) -> bool {
        true
    }
    /// Read the range in place.
    fn read<R>(&self, flow: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R;
    /// Update the range in place.
    fn write<R>(
        &mut self,
        flow: usize,
        off: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R;
    /// The range now holds its final value.
    fn landed(&mut self, _flow: usize, _off: usize, _len: usize) {}
}

/// A buffer the caller owns outright: always ready, nobody to notify.
impl Local for [u8] {
    fn read<R>(&self, _: usize, off: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        f(&self[off..off + len])
    }
    fn write<R>(&mut self, _: usize, off: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        f(&mut self[off..off + len])
    }
}

/// The outbound half of the tree broadcast on one node, re-entrant: every
/// port carries every chunk of a `len`-byte message, in order, as the
/// message becomes available and the links have room. A node has at most
/// three tree ports, so the per-port cursors are a fixed array.
pub struct TreeFeed {
    len: usize,
    chunk: usize,
    ports: usize,
    /// Bytes of the message the last [`pump`](Self::pump) was offered.
    offered: usize,
    /// Chunks out, per port.
    sent: [usize; 3],
}

impl TreeFeed {
    /// A feed of a `len`-byte message in `chunk`-byte chunks to `ports`
    /// ports, nothing sent yet.
    pub fn new(ports: usize, len: usize, chunk: usize) -> Self {
        assert!(ports <= 3, "a tree node has at most three ports");
        TreeFeed {
            len,
            chunk,
            ports,
            offered: 0,
            sent: [0; 3],
        }
    }

    /// Send what can go now: the first `avail` bytes of the message are
    /// valid (`avail` only grows), `tag(k)` is chunk `k`'s link tag and
    /// `fill(off, dst)` produces the chunk at byte `off` — once per port.
    /// Ports advance a chunk at a time in turn, so ports in step read a
    /// chunk back to back. Never blocks; returns whether anything went.
    pub fn pump<S: SlotStore>(
        &mut self,
        outs: &[&ChunkChannel<S>],
        avail: usize,
        tag: impl Fn(usize) -> u64,
        mut fill: impl FnMut(usize, &mut [u8]),
    ) -> bool {
        debug_assert!(outs.len() == self.ports && self.offered <= avail && avail <= self.len);
        self.offered = avail;
        let mut progressed = false;
        loop {
            let mut went = false;
            for (ch, sent) in outs.iter().zip(&mut self.sent) {
                let off = *sent * self.chunk;
                let end = (off + self.chunk).min(self.len);
                if off < end
                    && end <= avail
                    && ch.try_send_with(tag(*sent), end - off, |dst| fill(off, dst))
                {
                    *sent += 1;
                    went = true;
                }
            }
            if !went {
                return progressed;
            }
            progressed = true;
        }
    }

    /// Bytes of the message that are out on every port (with no ports:
    /// that were offered).
    pub fn flushed(&self) -> usize {
        let sent = &self.sent[..self.ports];
        sent.iter()
            .fold(self.offered, |least, &k| least.min(k * self.chunk))
    }
}

/// [`TreeFeed`] driven to completion, blocking: put a `len`-byte message
/// on every port in `outs`, `chunk` bytes at a time. `avail()` says how
/// many bytes of it are valid, as a prefix — all of them at the root, the
/// reception counter on a node that forwards out of a buffer another core
/// receives into. `fill(off, dst)` produces the chunk at byte `off`, once
/// per port; `sent(off, bytes)` reports, in order, each further range that
/// is out on all of them.
pub fn tree_send<S: SlotStore>(
    outs: &[&ChunkChannel<S>],
    chunk: usize,
    len: usize,
    mut avail: impl FnMut() -> usize,
    mut fill: impl FnMut(usize, &mut [u8]),
    mut sent: impl FnMut(usize, usize),
) {
    let mut feed = TreeFeed::new(outs.len(), len, chunk);
    let mut done = 0;
    loop {
        let mut progressed = feed.pump(outs, avail(), |k| k as u64, &mut fill);
        let flushed = feed.flushed();
        if flushed > done {
            sent(done, flushed - done);
            (done, progressed) = (flushed, true);
        }
        if done == len {
            return;
        }
        if !progressed {
            spin();
        }
    }
}

/// The receiving half: take a `len`-byte message off the root-facing port
/// `in_ch`. Each incoming slot is held on loan while `land(off, bytes)`
/// puts it in the application buffer *and* while it feeds a slot of every
/// port in `outs` directly — forwarding never re-reads the application
/// buffer. (`outs` is empty on a leaf, and on a multi-rank node, whose
/// network core forwards out of the receiver's buffer instead.)
pub fn tree_recv<S: SlotStore>(
    in_ch: &ChunkChannel<S>,
    outs: &[&ChunkChannel<S>],
    len: usize,
    mut land: impl FnMut(usize, &[u8]),
) {
    for (k, off, clen) in chunks_of(len, in_ch.chunk_bytes()) {
        let rs = in_ch.peek();
        debug_assert_eq!((rs.tag(), rs.len()), (k as u64, clen));
        rs.with_bytes(|bytes| land(off, bytes));
        for ch in outs {
            // Blocking on downstream space while holding the loan is
            // deadlock-free: tree links form no cycle, so the consumer
            // downstream never waits on our retire.
            let mut snd = ch.reserve(clen);
            rs.with_bytes(|bytes| snd.with_bytes_mut(|dst| dst.copy_from_slice(bytes)));
            snd.publish(k as u64);
        }
    }
}

/// What a ring chunk carries.
#[repr(u64)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// A partial sum, accumulating hop by hop.
    Partial = KIND_PARTIAL,
    /// A final value, circulating to the nodes that lack it.
    Full = KIND_FULL,
}

/// One node's side of one ring protocol, re-entrant. The caller owns the
/// links and the progress loop; the stepper owns every decision about what
/// may move. `out` is the ring link this node sends on, `local` its
/// operand, and `pack(flow, kind, k)` the caller's link-tag scheme (the
/// cluster's colour tags for a collective that owns the links, an op-id tag
/// where many share them). An incoming chunk is offered as plain bytes, so one
/// held on a slot loan and one replayed from a stash look the same.
pub trait Stepper {
    /// Chunks this node has yet to receive. A caller must not offer — or
    /// even peek at — more: a chunk of the *next* collective can already be
    /// queued behind the last expected one.
    fn recvs_left(&self) -> usize;

    /// Nothing is left to receive and everything this node will ever send
    /// is in a link.
    fn finished(&self) -> bool;

    /// Originate every chunk that can go now: its gate is open and `out`
    /// has room. Returns whether any went.
    fn pump<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        out: &ChunkChannel<S>,
        local: &mut L,
        pack: &impl Fn(usize, Kind, usize) -> u64,
    ) -> bool;

    /// May the next incoming chunk, of `kind`, be consumed right now? Only
    /// this thread sends on `out` and readiness only grows, so once true it
    /// stays true until the [`accept`](Self::accept).
    fn can_accept<S: SlotStore, L: Local + ?Sized>(
        &self,
        kind: Kind,
        out: &ChunkChannel<S>,
        local: &L,
    ) -> bool;

    /// Consume the next incoming chunk, `(kind, k)` in the sender's
    /// numbering. Only after [`can_accept`](Self::can_accept) said yes.
    fn accept<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        kind: Kind,
        k: usize,
        bytes: &[u8],
        out: &ChunkChannel<S>,
        local: &mut L,
        pack: &impl Fn(usize, Kind, usize) -> u64,
    );
}

/// One colour of the partial/full ring allreduce on one node (`m ≥ 2`),
/// over flow `flow` of the [`Local`]. Partials travel ring position
/// 0 → m-1, accumulating this node's partial at each hop; the last position
/// writes the full result and circulates it back 0 → m-2.
///
/// Every consume is gated on local readiness *and* downstream space — a
/// forward happens in the same step as the consume that feeds it, out of
/// the offered bytes, never re-read from the operand — and still
/// head-of-line blocking cannot deadlock the ring cycle, however many flows
/// share a link: the terminal consumers (last position for partials,
/// position m-2 for fulls) need no link room, so link m-2 → m-1, which
/// carries only partials, always drains once the local partial is ready;
/// that frees position m-2 to consume, and so on back around the ring.
pub struct RingFlow {
    flow: usize,
    pos: usize,
    m: usize,
    span: usize,
    chunk: usize,
    /// Chunks originated: partials at position 0, fulls at m-1.
    sent: usize,
    combined: usize,
    fulls_in: usize,
}

impl RingFlow {
    /// The flow of a `span`-byte operand in `chunk`-byte chunks at ring
    /// position `pos` of `m`.
    pub fn new(flow: usize, pos: usize, m: usize, span: usize, chunk: usize) -> Self {
        debug_assert!(m >= 2 && pos < m, "a ring needs two nodes");
        RingFlow {
            flow,
            pos,
            m,
            span,
            chunk,
            sent: 0,
            combined: 0,
            fulls_in: 0,
        }
    }

    fn kt(&self) -> usize {
        self.span.div_ceil(self.chunk)
    }

    /// `(byte offset, byte length)` of chunk `k`.
    fn at(&self, k: usize) -> (usize, usize) {
        (k * self.chunk, (self.span - k * self.chunk).min(self.chunk))
    }

    fn originates(&self) -> bool {
        self.pos == 0 || self.pos == self.m - 1
    }
}

impl Stepper for RingFlow {
    fn recvs_left(&self) -> usize {
        // Partials at positions 1..m-1, fulls everywhere but their producer.
        let kinds = (self.pos > 0) as usize + (self.pos < self.m - 1) as usize;
        kinds * self.kt() - self.combined - self.fulls_in
    }

    fn finished(&self) -> bool {
        self.recvs_left() == 0 && (!self.originates() || self.sent == self.kt())
    }

    /// Position 0 injects partials as the local contribution becomes ready;
    /// the last position sends the fulls it produced.
    fn pump<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        out: &ChunkChannel<S>,
        local: &mut L,
        pack: &impl Fn(usize, Kind, usize) -> u64,
    ) -> bool {
        if !self.originates() {
            return false;
        }
        let (c, first) = (self.flow, self.pos == 0);
        let kind = if first { Kind::Partial } else { Kind::Full };
        let mut progressed = false;
        while self.sent < self.kt() {
            let (k, (off, len)) = (self.sent, self.at(self.sent));
            let avail = if first {
                local.ready(c, off, len)
            } else {
                k < self.combined
            };
            if !avail || !out.can_send() {
                break;
            }
            let ok = out.try_send_with(pack(c, kind, k), len, |dst| {
                local.read(c, off, len, |src| dst.copy_from_slice(src))
            });
            debug_assert!(ok, "can_send held and we are the sole producer");
            self.sent += 1;
            progressed = true;
        }
        progressed
    }

    fn can_accept<S: SlotStore, L: Local + ?Sized>(
        &self,
        kind: Kind,
        out: &ChunkChannel<S>,
        local: &L,
    ) -> bool {
        match kind {
            // Our own partial must be ready to combine, and (unless we are
            // the last position) the combined chunk must have somewhere to
            // go.
            Kind::Partial => {
                let (off, len) = self.at(self.combined);
                local.ready(self.flow, off, len) && (self.pos == self.m - 1 || out.can_send())
            }
            Kind::Full => self.pos == self.m - 2 || out.can_send(),
        }
    }

    fn accept<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        kind: Kind,
        k: usize,
        bytes: &[u8],
        out: &ChunkChannel<S>,
        local: &mut L,
        pack: &impl Fn(usize, Kind, usize) -> u64,
    ) {
        let (c, (off, len)) = (self.flow, self.at(k));
        debug_assert_eq!(len, bytes.len());
        let last = self.pos == self.m - 1;
        match kind {
            Kind::Partial => {
                debug_assert!(self.pos > 0, "position 0 receives no partials");
                debug_assert_eq!(k, self.combined, "partials must arrive in order");
                if last {
                    // Last hop: accumulate the incoming chunk into the
                    // local partial in place — it *is* the result.
                    local.write(c, off, len, |acc| kernels::add_bytes_assign(acc, bytes));
                    local.landed(c, off, len);
                } else {
                    // Fused combine: local partial + incoming chunk summed
                    // by the lane kernel straight into the reserved
                    // outgoing slot. Zero staging copies.
                    let mut snd = out.reserve(len);
                    local.read(c, off, len, |mine| {
                        snd.with_bytes_mut(|dst| kernels::add_bytes_into(dst, mine, bytes))
                    });
                    snd.publish(pack(c, Kind::Partial, k));
                }
                self.combined += 1;
            }
            Kind::Full => {
                debug_assert!(!last, "the originator never receives fulls");
                debug_assert_eq!(k, self.fulls_in, "fulls must arrive in order");
                // Our earlier consumption of partial chunk k (or, at
                // position 0, its injection) ordered every other reader
                // before this overwrite.
                local.write(c, off, len, |dst| dst.copy_from_slice(bytes));
                local.landed(c, off, len);
                if self.pos != self.m - 2 {
                    let mut snd = out.reserve(len);
                    snd.with_bytes_mut(|dst| dst.copy_from_slice(bytes));
                    snd.publish(pack(c, Kind::Full, k));
                }
                self.fulls_in += 1;
            }
        }
    }
}

/// When a planned chunk may be sent.
enum Gate {
    /// Once [`Local::ready`] covers it (this node's own contribution).
    Local,
    /// Once receive item `i` of the same plan has been consumed.
    After(usize),
}

/// One outbound chunk of a ring plan: chunk `k` of segment `seg`.
struct SendItem {
    seg: usize,
    kind: Kind,
    k: usize,
    off: usize,
    len: usize,
    gate: Gate,
}

/// One expected inbound chunk, in arrival order.
struct RecvItem {
    seg: usize,
    k: usize,
    off: usize,
    len: usize,
    /// A partial: sum it into the local range (after that is
    /// [`Local::ready`]) rather than overwrite it.
    combine: bool,
    /// The range holds its final value afterwards.
    lands: bool,
}

/// The ordered schedule of one ring position: what it sends, in order, and
/// what it receives, in order. Built without touching a link, so the chunk
/// count of a collective is known before (and checked after) it runs; built
/// over positions, so either ring direction runs the same plan (on the
/// `Plus` ring a node's position is its id).
pub struct RingPlan {
    sends: Vec<SendItem>,
    recvs: Vec<RecvItem>,
    /// Per segment: index of the first item of its most recent receive.
    fed: Vec<Option<usize>>,
}

impl RingPlan {
    fn new(m: usize) -> Self {
        RingPlan {
            sends: Vec::new(),
            recvs: Vec::new(),
            fed: vec![None; m],
        }
    }

    /// Chunks this position sends.
    pub fn n_sends(&self) -> usize {
        self.sends.len()
    }

    /// Append one `m-1`-step ring stage, after which ([`Kind::Partial`],
    /// reduce-scatter) or before which ([`Kind::Full`], allgather) this
    /// position holds the finished segment `own`. `seg(w)` is segment `w`
    /// as `(byte offset, byte length, first chunk index)`; its chunks are
    /// numbered `first + j`. A chunk is sent once the most recent receive
    /// of the same chunk — in this stage or an earlier one — has been
    /// consumed, or, if it was never received, once it is locally ready.
    fn stage(
        mut self,
        own: usize,
        kind: Kind,
        seg: impl Fn(usize) -> (usize, usize, usize),
        chunk: usize,
    ) -> Self {
        let m = self.fed.len();
        let ag = (kind == Kind::Full) as usize;
        for s in 1..m {
            let w = (own + ag + m - s) % m;
            let (lo, bytes, k0) = seg(w);
            for (j, off, len) in chunks_of(bytes, chunk) {
                self.sends.push(SendItem {
                    seg: w,
                    kind,
                    k: k0 + j,
                    off: lo + off,
                    len,
                    gate: self.fed[w].map_or(Gate::Local, |base| Gate::After(base + j)),
                });
            }
            let w = (own + ag + 2 * m - s - 1) % m;
            let (lo, bytes, k0) = seg(w);
            self.fed[w] = Some(self.recvs.len());
            for (j, off, len) in chunks_of(bytes, chunk) {
                self.recvs.push(RecvItem {
                    seg: w,
                    k: k0 + j,
                    off: lo + off,
                    len,
                    combine: ag == 0,
                    lands: ag == 1 || s == m - 1,
                });
            }
        }
        self
    }
}

/// Position `v`'s plan for the node-aware allreduce of `bytes` bytes: a
/// ring reduce-scatter then a ring allgather over the global chunk grid,
/// position `w` owning chunk segment `[w*kt/m, (w+1)*kt/m)`.
pub fn plan_allreduce(m: usize, v: usize, bytes: usize, chunk: usize) -> RingPlan {
    let kt = bytes.div_ceil(chunk);
    let seg = |w: usize| {
        let (klo, khi) = (w * kt / m, (w + 1) * kt / m);
        (klo * chunk, bytes.min(khi * chunk) - klo * chunk, klo)
    };
    RingPlan::new(m)
        .stage((v + 1) % m, Kind::Partial, seg, chunk)
        .stage((v + 1) % m, Kind::Full, seg, chunk)
}

/// Position `v`'s plan for a ring reduce-scatter that leaves each position
/// its *own* segment: `segs[w]` is position `w`'s `(byte offset, byte
/// length)`.
pub fn plan_reduce_scatter(v: usize, segs: &[(usize, usize)], chunk: usize) -> RingPlan {
    let seg = |w: usize| (segs[w].0, segs[w].1, 0);
    RingPlan::new(segs.len()).stage(v, Kind::Partial, seg, chunk)
}

/// Position `v`'s plan for a ring allgather of one `block`-byte block per
/// position, position `w`'s at byte offset `w * block`.
pub fn plan_allgather(m: usize, v: usize, block: usize, chunk: usize) -> RingPlan {
    RingPlan::new(m).stage(v, Kind::Full, |w| (w * block, block, 0), chunk)
}

/// Payload slots of the accumulator a [`plan_alltoall`] runs against.
pub fn alltoall_slots(m: usize) -> usize {
    m + m * (m - 1) / 2
}

/// Position `v`'s plan for an all-to-all of one `payload`-byte payload per
/// ordered position pair, store-and-forward around the ring: in step `s`
/// of `m-1` it sends the `m-s` payloads of origin `v-s+1` still in transit
/// (step 1: its own, gated on [`Local::ready`]; later: each chunk once the
/// receive that delivered it is consumed), nearest destination first, and
/// receives origin `v-s`'s, of which the first is addressed here and lands.
/// Segment ids are `origin * m + destination`; chunks are numbered per
/// payload.
///
/// The accumulator is [`alltoall_slots`]`(m)` payload slots: slot `u < m`
/// is the result from origin `u` (the caller fills slot `v` itself), slot
/// `m + e - 1` holds this position's payload for destination `v + e`, and
/// the rest take payloads in transit, one each — a planned receive needs
/// no link room, so reception can never block the ring cycle.
pub fn plan_alltoall(m: usize, v: usize, payload: usize, chunk: usize) -> RingPlan {
    let mut plan = RingPlan::new(0);
    // What goes out next step: (destination's distance from the origin,
    // slot, first receive item of the payload if it came off the ring).
    let mut held: Vec<_> = (1..m).map(|e| (e, m + e - 1, None)).collect();
    let mut free = 2 * m - 1;
    for s in 1..m {
        let o = (v + m + 1 - s) % m;
        for &(e, slot, fed) in &held {
            for (j, off, len) in chunks_of(payload, chunk) {
                plan.sends.push(SendItem {
                    seg: o * m + (o + e) % m,
                    kind: Kind::Full,
                    k: j,
                    off: slot * payload + off,
                    len,
                    gate: fed.map_or(Gate::Local, |base: usize| Gate::After(base + j)),
                });
            }
        }
        let o = (v + m - s) % m;
        held.clear();
        for e in s..m {
            let lands = e == s;
            let slot = if lands { o } else { free };
            if !lands {
                held.push((e, slot, Some(plan.recvs.len())));
                free += 1;
            }
            for (j, off, len) in chunks_of(payload, chunk) {
                plan.recvs.push(RecvItem {
                    seg: o * m + (o + e) % m,
                    k: j,
                    off: slot * payload + off,
                    len,
                    combine: false,
                    lands,
                });
            }
        }
    }
    plan
}

/// Which bytes of a `total`-byte result in `seg`-byte segments are valid
/// as a prefix, when bytes land in order within a segment but segments
/// land in any order.
pub struct Prefix {
    landed: Vec<usize>,
    seg: usize,
    total: usize,
    /// The first segment that is not complete.
    first: usize,
    valid: usize,
}

impl Prefix {
    /// Nothing landed yet.
    pub fn new(total: usize, seg: usize) -> Self {
        let seg = seg.max(1);
        Prefix {
            landed: vec![0; total.div_ceil(seg)],
            seg,
            total,
            first: 0,
            valid: 0,
        }
    }

    /// `bytes` more bytes of `segment` landed; returns how many bytes the
    /// valid prefix grew by.
    pub fn land(&mut self, segment: usize, bytes: usize) -> usize {
        self.landed[segment] += bytes;
        let (total, seg) = (self.total, self.seg);
        let full = |i: usize| (total - i * seg).min(seg);
        while (self.landed.get(self.first)).is_some_and(|&b| b == full(self.first)) {
            self.first += 1;
        }
        let partial = self.landed.get(self.first).copied().unwrap_or(0);
        let valid = (self.first * seg).min(total) + partial;
        let grew = valid - self.valid;
        self.valid = valid;
        grew
    }
}

/// Where one position stands in its [`RingPlan`], against flow 0 of the
/// [`Local`]: sends go out in plan order as their gates open, receives are
/// consumed in plan order. The packer's `flow` is the chunk's segment.
pub struct PlanCursor<P: Borrow<RingPlan>> {
    plan: P,
    si: usize,
    ri: usize,
}

impl<P: Borrow<RingPlan>> PlanCursor<P> {
    /// A cursor at the start of `plan`.
    pub fn new(plan: P) -> Self {
        PlanCursor { plan, si: 0, ri: 0 }
    }
}

impl<P: Borrow<RingPlan>> Stepper for PlanCursor<P> {
    fn recvs_left(&self) -> usize {
        self.plan.borrow().recvs.len() - self.ri
    }

    fn finished(&self) -> bool {
        self.recvs_left() == 0 && self.si == self.plan.borrow().sends.len()
    }

    fn pump<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        out: &ChunkChannel<S>,
        local: &mut L,
        pack: &impl Fn(usize, Kind, usize) -> u64,
    ) -> bool {
        let first = self.si;
        while let Some(it) = self.plan.borrow().sends.get(self.si) {
            let open = match it.gate {
                Gate::Local => local.ready(0, it.off, it.len),
                Gate::After(i) => self.ri > i,
            };
            if !open || !out.can_send() {
                break;
            }
            let ok = out.try_send_with(pack(it.seg, it.kind, it.k), it.len, |dst| {
                local.read(0, it.off, it.len, |src| dst.copy_from_slice(src))
            });
            debug_assert!(ok, "can_send held and we are the sole producer");
            self.si += 1;
        }
        self.si > first
    }

    /// A planned receive needs no link room: it lands in the operand, and
    /// what it feeds goes out through [`pump`](Self::pump).
    fn can_accept<S: SlotStore, L: Local + ?Sized>(
        &self,
        _: Kind,
        _: &ChunkChannel<S>,
        local: &L,
    ) -> bool {
        let it = &self.plan.borrow().recvs[self.ri];
        !it.combine || local.ready(0, it.off, it.len)
    }

    fn accept<S: SlotStore, L: Local + ?Sized>(
        &mut self,
        kind: Kind,
        k: usize,
        bytes: &[u8],
        _: &ChunkChannel<S>,
        local: &mut L,
        _: &impl Fn(usize, Kind, usize) -> u64,
    ) {
        let it = &self.plan.borrow().recvs[self.ri];
        let expected = if it.combine {
            Kind::Partial
        } else {
            Kind::Full
        };
        debug_assert_eq!(
            (kind, k),
            (expected, it.k),
            "chunks arrive in plan order (segment {})",
            it.seg
        );
        local.write(0, it.off, it.len, |acc| {
            if it.combine {
                kernels::add_bytes_assign(acc, bytes)
            } else {
                acc.copy_from_slice(bytes)
            }
        });
        if it.lands {
            local.landed(0, it.off, it.len);
        }
        self.ri += 1;
    }
}

const DIRS: [RingDir; 2] = [RingDir::Plus, RingDir::Minus];

/// The blocking progress loop (`m ≥ 2`): spin node `v`'s `flows` — each
/// with the index into [`DIRS`] of the ring it rides — to completion over
/// links this collective owns, tagged with [`pack_tag`]. `route` maps an
/// incoming tag's colour field to the flow it is for.
fn drive<S: SlotStore, L: Local + ?Sized, F: Stepper>(
    fabric: &Fabric<S>,
    v: usize,
    flows: &mut [(usize, F)],
    local: &mut L,
    route: impl Fn(usize) -> usize,
) {
    let links = DIRS.map(|dir| (fabric.ring_recv(v, dir), fabric.ring_send(v, dir)));
    let pack = |c: usize, kind: Kind, k: usize| pack_tag(c, kind as u64, k);
    // There is no cluster-wide barrier between collectives, so the drain
    // below stops at what this one expects on each incoming direction (see
    // `Stepper::recvs_left`): a later collective's tag is in a different
    // colour space entirely and must be left for its own call.
    let mut expect = [0usize; 2];
    for (di, f) in flows.iter() {
        expect[*di] += f.recvs_left();
    }
    loop {
        let mut progressed = false;
        for (di, f) in flows.iter_mut() {
            progressed |= f.pump(links[*di].1, local, &pack);
        }
        for (di, &(in_ch, out)) in links.iter().enumerate() {
            while expect[di] > 0 {
                let Some(tag) = in_ch.peek_tag() else { break };
                let (c, kind, k) = unpack_tag(tag);
                let kind = if kind == KIND_PARTIAL {
                    Kind::Partial
                } else {
                    Kind::Full
                };
                let (fdi, f) = &mut flows[route(c)];
                debug_assert_eq!(*fdi, di, "flow routed on the wrong ring direction");
                if !f.can_accept(kind, out, local) {
                    break;
                }
                // The slot stays on loan while the stepper lands it and
                // feeds what it forwards.
                let rs = in_ch.peek();
                rs.with_bytes(|bytes| f.accept(kind, k, bytes, out, local, &pack));
                expect[di] -= 1;
                progressed = true;
            }
        }
        if flows.iter().all(|(_, f)| f.finished()) {
            break;
        }
        if !progressed {
            spin();
        }
    }
}

/// The flat ring allreduce (`m ≥ 2`): every colour's [`RingFlow`] advanced
/// concurrently, never blocking on a single one. Colour `c` is flow `c` of
/// `local`, `spans`' `c`-th item in bytes; even colours ride the `Plus`
/// ring, odd ones `Minus`.
pub fn flat_ring<S: SlotStore, L: Local + ?Sized>(
    fabric: &Fabric<S>,
    v: usize,
    spans: impl IntoIterator<Item = usize>,
    local: &mut L,
) {
    let (m, chunk) = (fabric.n_nodes(), fabric.chunk_bytes());
    let mut flows: Vec<_> = spans
        .into_iter()
        .enumerate()
        .map(|(c, span)| {
            let pos = fabric.ring_pos(v, DIRS[c % 2]);
            (c % 2, RingFlow::new(c, pos, m, span, chunk))
        })
        .collect();
    drive(fabric, v, &mut flows, local, |c| c);
}

/// Step node `v`'s `plan` over the `Plus` ring (`m ≥ 2`) against flow 0 of
/// `local`, to completion.
pub fn run_plan<S: SlotStore, L: Local + ?Sized>(
    fabric: &Fabric<S>,
    v: usize,
    plan: &RingPlan,
    local: &mut L,
) {
    drive(fabric, v, &mut [(0, PlanCursor::new(plan))], local, |_| 0);
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHUNK: usize = 64;

    /// The four planners as `(name, plan of position v, bytes that must
    /// land at v)` for `m` positions and size parameter `size`.
    #[allow(clippy::type_complexity)]
    fn planners(m: usize, size: usize) -> Vec<(&'static str, Vec<RingPlan>, Vec<usize>)> {
        // Uneven reduce-scatter segments, one of them empty when it can be.
        let lens: Vec<usize> = (0..m).map(|w| size * w / m.max(2)).collect();
        let segs: Vec<(usize, usize)> = lens
            .iter()
            .scan(0, |lo, &len| {
                *lo += len;
                Some((*lo - len, len))
            })
            .collect();
        let each = |plan: &dyn Fn(usize) -> RingPlan| (0..m).map(plan).collect::<Vec<_>>();
        vec![
            (
                "allreduce",
                each(&|v| plan_allreduce(m, v, size, CHUNK)),
                vec![if m > 1 { size } else { 0 }; m],
            ),
            (
                "reduce_scatter",
                each(&|v| plan_reduce_scatter(v, &segs, CHUNK)),
                if m > 1 { lens.clone() } else { vec![0] },
            ),
            (
                "allgather",
                each(&|v| plan_allgather(m, v, size, CHUNK)),
                vec![(m - 1) * size; m],
            ),
            (
                "alltoall",
                each(&|v| plan_alltoall(m, v, size, CHUNK)),
                vec![(m - 1) * size; m],
            ),
        ]
    }

    /// A mismatched plan would hang the ring; here it fails an assertion.
    /// For every planner, ring size and message size: what position `v`
    /// sends, in order, is exactly what position `v + 1` expects, in order;
    /// every byte that lands lands once; and a send is gated on a receive
    /// of the same length.
    #[test]
    fn every_plan_sends_what_its_successor_expects_and_lands_each_byte_once() {
        for m in 1..=5 {
            for size in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3] {
                for (name, plans, lands) in planners(m, size) {
                    let at = format!("{name} m={m} size={size}");
                    for (v, plan) in plans.iter().enumerate() {
                        let sent: Vec<_> = (plan.sends.iter())
                            .map(|s| (s.seg, s.kind, s.k, s.len))
                            .collect();
                        let expected: Vec<_> = (plans[(v + 1) % m].recvs.iter())
                            .map(|r| {
                                let kind = [Kind::Full, Kind::Partial][r.combine as usize];
                                (r.seg, kind, r.k, r.len)
                            })
                            .collect();
                        assert_eq!(sent, expected, "{at}: link {v} -> {}", (v + 1) % m);

                        let span = plan.recvs.iter().map(|r| r.off + r.len).max();
                        let mut hits = vec![0u8; span.unwrap_or(0)];
                        for r in plan.recvs.iter().filter(|r| r.lands) {
                            hits[r.off..r.off + r.len].iter_mut().for_each(|h| *h += 1);
                        }
                        assert!(hits.iter().all(|&h| h <= 1), "{at}: a byte lands twice");
                        let landed: usize = hits.iter().map(|&h| h as usize).sum();
                        assert_eq!(landed, lands[v], "{at}: bytes landed at {v}");

                        for s in &plan.sends {
                            assert!(s.len > 0 && s.len <= CHUNK, "{at}");
                            if let Gate::After(i) = s.gate {
                                assert_eq!(plan.recvs[i].len, s.len, "{at}: gate of {}", s.seg);
                            }
                        }
                    }
                }
            }
        }
    }

    /// `alltoall` moves `kc * m(m-1)/2` chunks per node and fits the
    /// accumulator it documents.
    #[test]
    fn alltoall_plan_matches_its_traffic_formula_and_slot_count() {
        for m in 1..=5 {
            for payload in [1, CHUNK, 2 * CHUNK + 5] {
                for v in 0..m {
                    let plan = plan_alltoall(m, v, payload, CHUNK);
                    let kc = payload.div_ceil(CHUNK);
                    assert_eq!(plan.n_sends(), kc * m * (m - 1) / 2);
                    let reach = (plan.sends.iter().map(|s| s.off + s.len))
                        .chain(plan.recvs.iter().map(|r| r.off + r.len))
                        .max();
                    assert!(reach.unwrap_or(0) <= alltoall_slots(m) * payload);
                }
            }
        }
    }

    /// Two ports with two-slot links: a port runs at most a window ahead,
    /// `flushed` follows the slower one, and nothing beyond `avail` goes.
    #[test]
    fn tree_feed_follows_the_slower_port_and_the_available_prefix() {
        let (a, b) = (ChunkChannel::new(2, 8), ChunkChannel::new(2, 8));
        let outs = [&a, &b];
        let msg: Vec<u8> = (0..20).collect();
        let fill = |off: usize, dst: &mut [u8]| dst.copy_from_slice(&msg[off..off + dst.len()]);
        let mut feed = TreeFeed::new(2, msg.len(), 8);
        assert!(!feed.pump(&outs, 0, |k| k as u64, fill));
        assert!(feed.pump(&outs, 8, |k| k as u64, fill));
        assert_eq!((feed.flushed(), a.sent(), b.sent()), (8, 1, 1));
        assert!(feed.pump(&outs, 20, |k| k as u64, fill));
        assert_eq!((feed.flushed(), a.sent(), b.sent()), (16, 2, 2));
        // Only port `a` drains: it gets the short last chunk, `b` stays full.
        a.recv_with(|tag, bytes| assert_eq!((tag, bytes), (0, &msg[..8])));
        assert!(feed.pump(&outs, 20, |k| k as u64, fill));
        assert_eq!((feed.flushed(), a.sent(), b.sent()), (16, 3, 2));
        assert!(!feed.pump(&outs, 20, |k| k as u64, fill));
        b.recv_with(|tag, bytes| assert_eq!((tag, bytes), (0, &msg[..8])));
        assert!(feed.pump(&outs, 20, |k| k as u64, fill));
        assert_eq!(feed.flushed(), 20);
        a.recv_with(|_, _| ());
        a.recv_with(|tag, bytes| assert_eq!((tag, bytes), (2, &msg[16..])));
        // Without ports, what was offered counts as out.
        let mut leaf = TreeFeed::new(0, 20, 8);
        assert!(!leaf.pump::<crate::transport::HeapSlots>(&[], 12, |k| k as u64, fill));
        assert_eq!(leaf.flushed(), 12);
    }

    /// Segments land in any order, bytes within one in order; only the
    /// contiguous prefix counts, and every byte is reported exactly once.
    #[test]
    fn prefix_reports_each_newly_contiguous_byte_once() {
        let mut p = Prefix::new(20, 8); // segments of 8, 8 and 4 bytes
        assert_eq!(p.land(1, 8), 0);
        assert_eq!(p.land(0, 3), 3);
        assert_eq!(p.land(2, 2), 0);
        assert_eq!(p.land(0, 5), 5 + 8 + 2);
        assert_eq!(p.land(2, 2), 2);
        assert_eq!(Prefix::new(0, 0).landed.len(), 0);
    }
}
