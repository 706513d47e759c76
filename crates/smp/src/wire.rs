//! The inter-node wire protocols, written once.
//!
//! The paper has two of them: the §V-A/V-B **tree broadcast** and the §V-C
//! **partial/full ring allreduce**; the node-aware family of Bienz & Olson
//! adds ring **reduce-scatter / allgather stages** that its collectives
//! compose. This module is the only place in `bgp-smp` where one of those
//! protocols takes a slot loan or spins on a link — the thread cluster and
//! the cross-process cluster both call in here (the one collective that
//! keeps its own loop is `alltoall`, a store-and-forward ring that shares
//! nothing with these):
//!
//! * [`tree_send`] / [`tree_recv`] — the root's injection loop and the
//!   receive-and-relay-from-loan loop of the tree broadcast;
//! * [`flat_ring`] — the multi-colour partial/full ring engine;
//! * [`RingPlan`] + [`run_plan`] — an ordered send plan and receive plan
//!   over the `Plus` ring, built per algorithm by [`plan_allreduce`],
//!   [`plan_reduce_scatter`] and [`plan_allgather`] from one stage builder,
//!   and stepped by one driver.
//!
//! Everything is generic over the [`SlotStore`] (heap links for threads and
//! the model checker, segment links for processes) and over a [`Local`]:
//! how this node's own operand is reached, when a piece of it is ready, and
//! what happens when a final value lands. `[u8]` is the trivial `Local` (a
//! buffer the caller owns outright); the thread cluster supplies one over
//! shared regions and message counters. All hooks are statically
//! dispatched; the engines allocate nothing per chunk.

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

/// The root's half of the tree broadcast: put a `len`-byte message on
/// every port in `outs`, `chunk` bytes at a time. `fill(off, dst)`
/// produces the chunk at byte `off`, once per port; `sent(off, chunk_len)`
/// runs once the chunk is out on all of them.
pub fn tree_send<S: SlotStore>(
    outs: &[&ChunkChannel<S>],
    chunk: usize,
    len: usize,
    mut fill: impl FnMut(usize, &mut [u8]),
    mut sent: impl FnMut(usize, usize),
) {
    for (k, off, clen) in chunks_of(len, chunk) {
        for ch in outs {
            ch.send_with(k as u64, clen, |dst| fill(off, dst));
        }
        sent(off, clen);
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

/// The flat ring engine (`m ≥ 2`): advances every colour concurrently
/// without ever blocking on a single flow. Colour `c` is flow `c` of
/// `local`, `spans`' `c`-th item in bytes; even colours ride the `Plus`
/// ring, odd ones `Minus`. Partials travel position 0 → m-1 along the
/// colour's direction, accumulating this node's partial at each hop; the
/// last position writes the full result and circulates it back 0 → m-2.
/// Every consume is gated on local readiness *and* downstream space, so
/// head-of-line blocking cannot deadlock: the terminal consumers (last
/// position for partials, position m-2 for fulls) consume unconditionally
/// once their local partial is ready.
pub fn flat_ring<S: SlotStore, L: Local + ?Sized>(
    fabric: &Fabric<S>,
    v: usize,
    spans: impl IntoIterator<Item = usize>,
    local: &mut L,
) {
    let m = fabric.n_nodes();
    debug_assert!(m >= 2, "a ring needs two nodes");
    let chunk = fabric.chunk_bytes();

    struct Flow {
        di: usize, // ring direction: index into `links`
        pos: usize,
        span: usize, // bytes
        kt: usize,   // chunks
        /// Chunks originated: partials at position 0, fulls at m-1.
        sent: usize,
        combined: usize,
        fulls_in: usize,
    }
    // Per ring direction: the link in and the link out.
    let links = [RingDir::Plus, RingDir::Minus]
        .map(|dir| (dir, fabric.ring_recv(v, dir), fabric.ring_send(v, dir)));
    let originates = |pos: usize| pos == 0 || pos == m - 1;
    let clen = |span: usize, k: usize| (span - k * chunk).min(chunk);

    // `expect`: chunks this op still expects on each incoming direction —
    // partials at positions 1..m-1, fulls at every position but their
    // producer m-1. The drain loop below must never peek past this: there
    // is no cluster-wide barrier between collectives, so a chunk of the
    // *next* ring collective can already be queued behind our last expected
    // one (cross-op pipelining), and its tag — a different color space
    // entirely — must be left for that op's engine.
    let mut expect = [0usize; 2];
    let mut flows = Vec::new();
    for (c, span) in spans.into_iter().enumerate() {
        let di = c % 2;
        let (pos, kt) = (fabric.ring_pos(v, links[di].0), span.div_ceil(chunk));
        expect[di] += kt * ((pos > 0) as usize + (pos < m - 1) as usize);
        flows.push(Flow {
            di,
            pos,
            span,
            kt,
            sent: 0,
            combined: 0,
            fulls_in: 0,
        });
    }

    loop {
        let mut progressed = false;

        // Originate: position 0 injects partials as the local contribution
        // becomes ready; the last position sends the fulls it produced when
        // the wrap link has room.
        for (c, f) in flows.iter_mut().enumerate() {
            if !originates(f.pos) {
                continue;
            }
            let kind = if f.pos == 0 { KIND_PARTIAL } else { KIND_FULL };
            let out = links[f.di].2;
            while f.sent < f.kt {
                let (k, off, len) = (f.sent, f.sent * chunk, clen(f.span, f.sent));
                let avail = if f.pos == 0 {
                    local.ready(c, off, len)
                } else {
                    k < f.combined
                };
                if !avail || !out.can_send() {
                    break;
                }
                let ok = out.try_send_with(pack_tag(c, kind, k), len, |dst| {
                    local.read(c, off, len, |src| dst.copy_from_slice(src))
                });
                debug_assert!(ok, "can_send held and we are the sole producer");
                f.sent += 1;
                progressed = true;
            }
        }

        for (di, &(_, in_ch, out)) in links.iter().enumerate() {
            while expect[di] > 0 {
                let Some(tag) = in_ch.peek_tag() else { break };
                let (c, kind, k) = unpack_tag(tag);
                let f = &mut flows[c];
                debug_assert_eq!(f.di, di, "flow routed on the wrong ring direction");
                let (off, len) = (k * chunk, clen(f.span, k));
                let last = f.pos == m - 1;
                if kind == KIND_PARTIAL {
                    debug_assert!(f.pos > 0);
                    debug_assert_eq!(k, f.combined, "partials must arrive in order");
                    // Gate: our own partial must be ready to combine, and
                    // (unless we are the last position) the combined chunk
                    // must have somewhere to go.
                    if !local.ready(c, off, len) || (!last && !out.can_send()) {
                        break;
                    }
                    let rs = in_ch.peek();
                    if last {
                        // Last hop: accumulate the incoming chunk into the
                        // local partial in place — it *is* the result.
                        rs.with_bytes(|inb| {
                            local.write(c, off, len, |acc| kernels::add_bytes_assign(acc, inb))
                        });
                        local.landed(c, off, len);
                    } else {
                        // Fused combine: local partial + incoming chunk
                        // summed by the lane kernel straight into the
                        // reserved outgoing slot. Zero staging copies.
                        let mut snd = out.reserve(len);
                        rs.with_bytes(|inb| {
                            local.read(c, off, len, |mine| {
                                snd.with_bytes_mut(|dst| kernels::add_bytes_into(dst, mine, inb))
                            })
                        });
                        snd.publish(pack_tag(c, KIND_PARTIAL, k));
                    }
                    f.combined += 1;
                } else {
                    debug_assert!(!last, "the originator never receives fulls");
                    debug_assert_eq!(k, f.fulls_in, "fulls must arrive in order");
                    let forwards = f.pos != m - 2;
                    if forwards && !out.can_send() {
                        break;
                    }
                    // Hold the incoming slot on loan: it lands in the local
                    // buffer *and* feeds the outgoing slot directly, never
                    // re-read from the buffer. Our earlier consumption of
                    // partial chunk k (or, at position 0, its injection)
                    // ordered every other reader before this overwrite.
                    let rs = in_ch.peek();
                    rs.with_bytes(|bytes| {
                        local.write(c, off, len, |dst| dst.copy_from_slice(bytes))
                    });
                    local.landed(c, off, len);
                    if forwards {
                        let mut snd = out.reserve(len);
                        rs.with_bytes(|bytes| snd.with_bytes_mut(|dst| dst.copy_from_slice(bytes)));
                        snd.publish(pack_tag(c, KIND_FULL, k));
                    }
                    f.fulls_in += 1;
                }
                expect[di] -= 1;
                progressed = true;
            }
        }

        // Forwards happen in the same step as the consume that feeds them,
        // so nothing is owed once every expected chunk is in and every
        // originated one is out.
        let sent_all = |f: &Flow| !originates(f.pos) || f.sent == f.kt;
        if expect == [0, 0] && flows.iter().all(sent_all) {
            break;
        }
        if !progressed {
            spin();
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

/// One outbound chunk of a ring plan.
struct SendItem {
    tag: u64,
    off: usize,
    len: usize,
    gate: Gate,
}

/// One expected inbound chunk, in arrival order.
struct RecvItem {
    tag: u64,
    off: usize,
    len: usize,
    /// Sum into the local range (after it is [`Local::ready`]) rather than
    /// overwrite it.
    combine: bool,
    /// The range holds its final value afterwards.
    lands: bool,
}

/// One node's ordered schedule on the `Plus` ring: what it sends, in order,
/// and what it receives, in order. Built without touching a link, so the
/// chunk count of a collective is known before (and checked after) it runs.
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

    /// Chunks this node sends.
    pub fn n_sends(&self) -> usize {
        self.sends.len()
    }

    /// Append one `m-1`-step ring stage, after which (`KIND_PARTIAL`,
    /// reduce-scatter) or before which (`KIND_FULL`, allgather) this node
    /// holds the finished segment `own`. `seg(w)` is segment `w` as `(byte
    /// offset, byte length, first chunk index)`; its chunks are tagged
    /// `(w, kind, first + j)`. A chunk is sent once the most recent receive
    /// of the same chunk — in this stage or an earlier one — has been
    /// consumed, or, if it was never received, once it is locally ready.
    fn stage(
        mut self,
        own: usize,
        kind: u64,
        seg: impl Fn(usize) -> (usize, usize, usize),
        chunk: usize,
    ) -> Self {
        let m = self.fed.len();
        let ag = (kind == KIND_FULL) as usize;
        for s in 1..m {
            let w = (own + ag + m - s) % m;
            let (lo, bytes, k0) = seg(w);
            for (j, off, len) in chunks_of(bytes, chunk) {
                self.sends.push(SendItem {
                    tag: pack_tag(w, kind, k0 + j),
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
                    tag: pack_tag(w, kind, k0 + j),
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

/// Node `v`'s plan for the node-aware allreduce of `bytes` bytes: a ring
/// reduce-scatter then a ring allgather over the global chunk grid, node
/// `w` owning chunk segment `[w*kt/m, (w+1)*kt/m)`.
pub fn plan_allreduce(m: usize, v: usize, bytes: usize, chunk: usize) -> RingPlan {
    let kt = bytes.div_ceil(chunk);
    let seg = |w: usize| {
        let (klo, khi) = (w * kt / m, (w + 1) * kt / m);
        (klo * chunk, bytes.min(khi * chunk) - klo * chunk, klo)
    };
    RingPlan::new(m)
        .stage((v + 1) % m, KIND_PARTIAL, seg, chunk)
        .stage((v + 1) % m, KIND_FULL, seg, chunk)
}

/// Node `v`'s plan for a ring reduce-scatter that leaves each node its
/// *own* segment: `segs[w]` is node `w`'s `(byte offset, byte length)`.
pub fn plan_reduce_scatter(v: usize, segs: &[(usize, usize)], chunk: usize) -> RingPlan {
    let seg = |w: usize| (segs[w].0, segs[w].1, 0);
    RingPlan::new(segs.len()).stage(v, KIND_PARTIAL, seg, chunk)
}

/// Node `v`'s plan for a ring allgather of one `block`-byte block per node,
/// node `w`'s at byte offset `w * block`.
pub fn plan_allgather(m: usize, v: usize, block: usize, chunk: usize) -> RingPlan {
    RingPlan::new(m).stage(v, KIND_FULL, |w| (w * block, block, 0), chunk)
}

/// Step node `v`'s `plan` over the `Plus` ring (`m ≥ 2`) against flow 0 of
/// `local`: sends go out in plan order as their gates open and the link has
/// room, receives are consumed in plan order — never more than the plan
/// lists, so a chunk of the next collective queued behind ours stays put.
pub fn run_plan<S: SlotStore, L: Local + ?Sized>(
    fabric: &Fabric<S>,
    v: usize,
    plan: &RingPlan,
    local: &mut L,
) {
    let out = fabric.ring_send(v, RingDir::Plus);
    let in_ch = fabric.ring_recv(v, RingDir::Plus);
    let (mut si, mut ri) = (0usize, 0usize);
    while si < plan.sends.len() || ri < plan.recvs.len() {
        let mut progressed = false;

        while let Some(it) = plan.sends.get(si) {
            let open = match it.gate {
                Gate::Local => local.ready(0, it.off, it.len),
                Gate::After(i) => ri > i,
            };
            if !open || !out.can_send() {
                break;
            }
            let ok = out.try_send_with(it.tag, it.len, |dst| {
                local.read(0, it.off, it.len, |src| dst.copy_from_slice(src))
            });
            debug_assert!(ok, "can_send held and we are the sole producer");
            si += 1;
            progressed = true;
        }

        while let Some(it) = plan.recvs.get(ri) {
            let Some(tag) = in_ch.peek_tag() else { break };
            debug_assert_eq!(tag, it.tag, "chunks arrive in plan order");
            if it.combine && !local.ready(0, it.off, it.len) {
                break;
            }
            let rs = in_ch.peek();
            rs.with_bytes(|inb| {
                local.write(0, it.off, it.len, |acc| {
                    if it.combine {
                        kernels::add_bytes_assign(acc, inb)
                    } else {
                        acc.copy_from_slice(inb)
                    }
                })
            });
            if it.lands {
                local.landed(0, it.off, it.len);
            }
            ri += 1;
            progressed = true;
        }

        if !progressed {
            spin();
        }
    }
}
