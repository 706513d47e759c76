//! Node-aware cluster collectives: the locality-aware reduce-scatter +
//! allgather allreduce of Bienz et al., the fused intra/inter hybrid
//! variant of the MPI+MPI line of work, and the rounded-out collective set
//! (`reduce_scatter_f64`, `allgather`, `alltoall`).
//!
//! ## Stage decomposition
//!
//! The flat §V-C ring (`ClusterCtx::allreduce_f64`) partitions the buffer
//! into `n-1` *color* spans and circulates every color's partials all the
//! way around the ring and the fulls all the way back: every payload byte
//! crosses ~`2(m-1)` links, and each color rounds its span up to whole
//! chunks separately. The node-aware family instead works on the **global
//! chunk grid** (`kt = ceil(bytes/chunk)` chunks for the whole message) in
//! three stages:
//!
//! 1. **Intra-node reduce** (`intra_reduce`) — rank `r` reduces chunk range
//!    `[r*kt/n, (r+1)*kt/n)` of all `n` local inputs into one node
//!    accumulator, publishing cumulative bytes on its producer stream.
//! 2. **Ring reduce-scatter** — node `v` owns chunk segment
//!    `[w*kt/m, (w+1)*kt/m)`; in `m-1` steps each node sends one segment
//!    of partials and combines the incoming segment into its accumulator,
//!    so each chunk crosses each link at most once.
//! 3. **Ring allgather** — the reduced segments circulate back in `m-1`
//!    steps; every rank chases a single prefix-ordered result counter and
//!    copies finished bytes out.
//!
//! This file holds what is node-local: the scaffold every collective here
//! shares ([`ClusterCtx::node_op`]: expose, accumulator, barriers), the
//! intra stage, the deposits, the copy-out. Everything that touches a link
//! is a *plan* — ordered send and receive lists built by
//! [`wire::plan_allreduce`], [`wire::plan_reduce_scatter`],
//! [`wire::plan_allgather`] and [`wire::plan_alltoall`] and stepped by the
//! one driver [`wire::run_plan`] against the node accumulator, whose valid
//! prefix a [`wire::Prefix`] turns into the result stream. No collective
//! here sends, receives, waits on a link or spins.
//!
//! Total inter-node traffic is `2(m-1)/m * kt` chunk-sends per node versus
//! the flat ring's `~2(m-1)/m * kt_flat` with `kt_flat >= kt` (per-color
//! chunk rounding) — strictly fewer chunks whenever color spans misalign
//! with the chunk size. Because a plan is built without a fabric,
//! `tests/node_aware.rs` asserts the `Fabric::total_chunks_sent` delta of
//! every collective — `alltoall` included — *equals* its planned send
//! count.
//!
//! The **fused** variant opens the plan's step-1 send gates *per chunk* on
//! the intra counters, so the inter-node stage starts while slower ranks
//! are still reducing; the non-fused variant waits for the whole intra
//! stage first.
//!
//! Chunks carry the one [`wire::tag`] layout with the plan's segment in
//! the stream field (origin·m + destination for `alltoall`); each
//! collective checks its widest segment against the op-size limit at entry.

use super::*;
use std::slice::from_ref;

/// What [`ClusterCtx::node_op`] set up for the body of one collective.
struct NodeOp {
    /// The window tag every rank's input is exposed under (if it has one).
    in_tag: u64,
    /// The node accumulator, rank 0's.
    acc: Arc<SharedRegion>,
    /// Producer stream `r`'s count at entry, one per rank.
    pbase: Vec<u64>,
    /// The result stream's (`n`) count at entry.
    rbase: u64,
}

/// Extend the node's result stream by `grew` bytes.
fn publish_result(ctx: &RankCtx, grew: usize) {
    if grew > 0 {
        ctx.aux_counter(ctx.n_ranks()).publish(grew as u64);
    }
}

impl ClusterCtx {
    /// The output span (element range of the reduced vector) this rank
    /// receives from [`reduce_scatter_f64`](Self::reduce_scatter_f64):
    /// `[g*count/G, (g+1)*count/G)` for global rank `g` of `G`.
    pub fn scatter_span(&self, count: usize) -> (usize, usize) {
        let world = self.shared.m * self.shared.n;
        let g = self.global_rank();
        (g * count / world, (g + 1) * count / world)
    }

    /// The scaffold of a node-aware collective: take the op's tags, read
    /// the cumulative stream bases, expose `input` (if the ranks read each
    /// other's), have rank 0 allocate and expose an `acc_bytes`-byte
    /// accumulator, barrier, map it, run `body`, close the op (barrier,
    /// withdraw both).
    fn node_op(
        &mut self,
        input: Option<&Arc<SharedRegion>>,
        acc_bytes: usize,
        body: impl FnOnce(&mut Self, &NodeOp),
    ) {
        let n = self.shared.n;
        let [in_tag, acc_tag] = self.ctx.next_op();
        // Pre-barrier, so stable (see `bcast`).
        let pbase = (0..n).map(|r| self.ctx.aux_counter(r).read()).collect();
        let rbase = self.ctx.aux_counter(n).read();
        if let Some(input) = input {
            self.ctx.expose(in_tag, input.clone());
        }
        if self.ctx.rank() == 0 {
            let acc = self.ctx.alloc_buffer(acc_bytes.max(1));
            self.ctx.expose(acc_tag, acc);
        }
        self.ctx.barrier();
        let acc = self.ctx.map_cached(0, acc_tag);
        let op = NodeOp {
            in_tag,
            acc,
            pbase,
            rbase,
        };
        body(self, &op);
        self.ctx.close_op(|_| 0);
    }

    /// Node-aware allreduce (sum) over `count` doubles: intra-node reduce,
    /// ring reduce-scatter, ring allgather. Byte-identical to
    /// [`allreduce_f64`](Self::allreduce_f64) for order-insensitive
    /// (e.g. integer-valued) inputs, with strictly fewer inter-node chunk
    /// sends. SPMD.
    pub fn allreduce_f64_node_aware(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.na_allreduce(input, output, count, false);
    }

    /// The fused hybrid variant of
    /// [`allreduce_f64_node_aware`](Self::allreduce_f64_node_aware): ring
    /// injection is gated per chunk on the intra-node reduce counters, so
    /// the inter-node stage overlaps the intra-node stage instead of
    /// waiting for it. Same results, same traffic. SPMD.
    pub fn allreduce_f64_node_aware_fused(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.na_allreduce(input, output, count, true);
    }

    /// The shared intra-node stage: this rank reduces its chunk partition
    /// `[r*kt/n, (r+1)*kt/n)` of every local input (exposed under `in_tag`)
    /// straight into the node accumulator, chunk by chunk.
    fn intra_reduce(&mut self, in_tag: u64, acc: &SharedRegion, bytes: usize) {
        let (n, me) = (self.shared.n, self.ctx.rank());
        let chunk = self.shared.fabric.chunk_bytes();
        let kt = bytes.div_ceil(chunk);
        let lo = bytes.min(me * kt / n * chunk);
        self.reduce_span(in_tag, acc, lo, lo, bytes.min((me + 1) * kt / n * chunk));
    }

    /// Rank 0: wait until every rank's [`intra_reduce`](Self::intra_reduce)
    /// partition of a `bytes`-byte accumulator is on its producer stream.
    fn wait_intra(&self, pbase: &[u64], bytes: usize) {
        let chunk = self.shared.fabric.chunk_bytes();
        let (n, kt) = (pbase.len(), bytes.div_ceil(chunk));
        for (r, &pb) in pbase.iter().enumerate() {
            let part = bytes.min((r + 1) * kt / n * chunk) - bytes.min(r * kt / n * chunk);
            if part > 0 {
                self.ctx.aux_counter(r).wait_past(pb, part as u64);
            }
        }
    }

    /// Rank 0 of a gather-shaped collective whose result is `m` segments of
    /// `seg > 0` bytes, this node's own already in `acc`: step `plan`
    /// (empty on one node) against `acc`, extending the result stream by
    /// the valid prefix as segments land.
    fn run_gather(
        &self,
        acc: &Arc<SharedRegion>,
        seg: usize,
        plan: wire::RingPlan,
        ready: impl Fn(usize, usize, usize) -> bool,
    ) {
        let (ctx, m, v) = (&self.ctx, self.shared.m, self.node);
        let mut prefix = wire::Prefix::new(m * seg, seg);
        publish_result(ctx, prefix.land(v, seg));
        if m > 1 {
            let mut local = RegionLocal {
                bufs: from_ref(acc),
                offs: &[0],
                ready,
                landed: |_, off, len| publish_result(ctx, prefix.land(off / seg, len)),
            };
            wire::run_plan(&self.shared.fabric, v, &plan, &mut local);
        }
    }

    fn na_allreduce(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
        fused: bool,
    ) {
        self.check_size(count * 8);
        let (m, n) = (self.shared.m, self.shared.n);
        assert!(input.len() >= count * 8, "input shorter than count");
        assert!(output.len() >= count * 8, "output shorter than count");
        let (me, v) = (self.ctx.rank(), self.node);
        let chunk = self.shared.fabric.chunk_bytes();
        let bytes = count * 8;
        let kt = bytes.div_ceil(chunk);
        // The chunk at `[off, off + len)` is reduced by the rank `r` whose
        // partition `[r*kt/n, (r+1)*kt/n)` holds it, and is in the
        // accumulator once `r`'s stream has come this far.
        let reducer = |off: usize, len: usize| {
            let r = ((off / chunk + 1) * n - 1) / kt;
            (r, (off + len - r * kt / n * chunk) as u64)
        };

        self.node_op(Some(input), bytes, |this, op| {
            // Stage 1 — every rank reduces its chunk partition of all local
            // inputs straight into the node accumulator, chunk by chunk.
            this.intra_reduce(op.in_tag, &op.acc, bytes);

            // Stages 2+3 — rank 0 drives the reduce-scatter and allgather
            // rings and publishes results in prefix order on stream n.
            let ctx = &this.ctx;
            if me == 0 && m == 1 {
                for (_, off, len) in chunks_of(bytes, chunk) {
                    let (r, need) = reducer(off, len);
                    ctx.aux_counter(r).wait_past(op.pbase[r], need);
                    publish_result(ctx, len);
                }
            } else if me == 0 {
                if !fused {
                    this.wait_intra(&op.pbase, bytes);
                }
                let mut prefix = wire::Prefix::new(bytes, chunk);
                let mut local = RegionLocal {
                    bufs: from_ref(&op.acc),
                    offs: &[0],
                    ready: |_, off, len| {
                        let (r, need) = reducer(off, len);
                        !fused || ctx.aux_counter(r).read() - op.pbase[r] >= need
                    },
                    landed: |_, off, len| publish_result(ctx, prefix.land(off / chunk, len)),
                };
                let plan = wire::plan_allreduce(m, v, bytes, chunk);
                wire::run_plan(&this.shared.fabric, v, &plan, &mut local);
            }

            // Copy-out — every rank chases the single result stream.
            this.chase_copy(output, &op.acc, bytes, n, op.rbase, None);
        });
    }

    /// Reduce-scatter (sum) over `count` doubles: after the intra-node
    /// reduce and the ring reduce-scatter stage, global rank `g` holds
    /// elements [`scatter_span`](Self::scatter_span) of the reduced vector
    /// at offset 0 of its `output`. Only the reduce-scatter half of the
    /// node-aware allreduce runs, so each payload byte crosses each ring
    /// link at most once. SPMD.
    pub fn reduce_scatter_f64(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        self.check_size(count * 8);
        let (m, n) = (self.shared.m, self.shared.n);
        let world = m * n;
        assert!(input.len() >= count * 8, "input shorter than count");
        let (my_lo, my_hi) = self.scatter_span(count);
        assert!(
            output.len() >= (my_hi - my_lo) * 8,
            "output shorter than this rank's scatter span"
        );
        let (me, v) = (self.ctx.rank(), self.node);
        let chunk = self.shared.fabric.chunk_bytes();
        let bytes = count * 8;
        // Node w's segment: the union of its ranks' output spans, as
        // `(byte offset, byte length)`.
        let lo = |w: usize| w * n * count / world * 8;
        let segs: Vec<_> = (0..m).map(|w| (lo(w), lo(w + 1) - lo(w))).collect();

        self.node_op(Some(input), bytes, |this, op| {
            this.intra_reduce(op.in_tag, &op.acc, bytes);

            if me == 0 {
                // Non-fused: the ring stage starts once the intra stage is done.
                this.wait_intra(&op.pbase, bytes);
                let ctx = &this.ctx;
                if m == 1 {
                    publish_result(ctx, segs[v].1);
                } else {
                    // Ring reduce-scatter over element segments, targeting each
                    // node's *own* segment; its chunks land in order, so each
                    // extends the result stream directly.
                    let mut local = RegionLocal {
                        bufs: from_ref(&op.acc),
                        offs: &[0],
                        ready: |_, _, _| true,
                        landed: |_, _, len| publish_result(ctx, len),
                    };
                    let plan = wire::plan_reduce_scatter(v, &segs, chunk);
                    wire::run_plan(&this.shared.fabric, v, &plan, &mut local);
                }
            }

            // Scatter — each rank waits for its sub-span of the node segment
            // and copies it out of the accumulator.
            if my_hi > my_lo {
                let need = (my_hi * 8 - segs[v].0) as u64;
                this.ctx.aux_counter(n).wait_past(op.rbase, need);
                // SAFETY: the result counter acquire ordered us after the
                // ring combines; our output is ours.
                unsafe { output.copy_from(0, &op.acc, my_lo * 8, (my_hi - my_lo) * 8) };
            }
        });
    }

    /// Allgather: every global rank contributes `len` bytes from `input`;
    /// every rank's `output` receives all `G` blocks in global-rank order.
    /// Ranks deposit their blocks straight into the node accumulator, node
    /// blocks circulate the ring once, and every rank chases one
    /// prefix-ordered result stream. SPMD.
    pub fn allgather(&mut self, input: &Arc<SharedRegion>, output: &Arc<SharedRegion>, len: usize) {
        let (m, n) = (self.shared.m, self.shared.n);
        let bl = n * len; // node block bytes, one segment
        self.check_size(bl);
        assert!(input.len() >= len, "input shorter than block");
        assert!(output.len() >= m * n * len, "output shorter than G blocks");
        let (me, v) = (self.ctx.rank(), self.node);
        let chunk = self.shared.fabric.chunk_bytes();

        self.node_op(None, m * bl, |this, op| {
            // Intra gather — each rank deposits its block into the node's
            // region of the accumulator and publishes its producer stream.
            // SAFETY: this rank's slice of the node block is uniquely ours;
            // readers gate on the publish.
            unsafe { op.acc.copy_from(v * bl + me * len, input, 0, len) };
            this.ctx.aux_counter(me).publish(len as u64);

            if me == 0 && bl > 0 {
                for (r, &pb) in op.pbase.iter().enumerate() {
                    this.ctx.aux_counter(r).wait_past(pb, len as u64);
                }
                // Ring allgather of the node blocks.
                let plan = wire::plan_allgather(m, v, bl, chunk);
                this.run_gather(&op.acc, bl, plan, |_, _, _| true);
            }

            this.chase_copy(output, &op.acc, m * bl, n, op.rbase, None);
        });
    }

    /// All-to-all personalized exchange: every global rank holds `G` blocks
    /// of `len` bytes in `input` (block `g` destined to global rank `g`)
    /// and receives `G` blocks in `output` (block `g` from global rank
    /// `g`). Every rank deposits, per destination node, its `n` blocks for
    /// that node's ranks into the accumulator (they are contiguous in its
    /// input; a node-pair payload is laid out `[source rank][destination
    /// rank]`); the payloads travel the `Plus` ring store-and-forward under
    /// [`wire::plan_alltoall`], up to `m-1` hops; every rank gathers its
    /// column out of the result prefix. SPMD.
    pub fn alltoall(&mut self, input: &Arc<SharedRegion>, output: &Arc<SharedRegion>, len: usize) {
        let (m, n) = (self.shared.m, self.shared.n);
        let nl = n * len; // one rank's slice of a payload
        let pl = n * nl; // payload bytes per (origin, destination) node pair
        self.check_size(pl);
        assert!(input.len() >= m * n * len, "input shorter than G blocks");
        assert!(output.len() >= m * n * len, "output shorter than G blocks");
        let (me, v) = (self.ctx.rank(), self.node);
        let chunk = self.shared.fabric.chunk_bytes();

        self.node_op(None, wire::alltoall_slots(m) * pl, |this, op| {
            let acc = &op.acc;
            // Deposit — own node first, then the destinations in ring
            // order (the order the plan sends them in), one stream publish
            // per slice: the payload for distance `e` is complete once every
            // rank's stream passed `(e + 1) * nl`.
            for e in 0..m {
                let slot = if e == 0 { v } else { m + e - 1 };
                // SAFETY: slice `me` of every payload of this node's is
                // uniquely ours; readers gate on the publish.
                unsafe { acc.copy_from(slot * pl + me * nl, input, (v + e) % m * nl, nl) };
                this.ctx.aux_counter(me).publish(nl as u64);
            }

            if me == 0 && pl > 0 {
                let ctx = &this.ctx;
                for (r, &pb) in op.pbase.iter().enumerate() {
                    ctx.aux_counter(r).wait_past(pb, nl as u64);
                }
                let plan = wire::plan_alltoall(m, v, pl, chunk);
                this.run_gather(acc, pl, plan, |_, off, clen| {
                    // Only this node's own outgoing payloads are gated.
                    let (need, x) = (((off / pl + 2 - m) * nl) as u64, off % pl);
                    (x / nl..=(x + clen - 1) / nl)
                        .all(|r| ctx.aux_counter(r).read() - op.pbase[r] >= need)
                });
            }

            // Copy-out — rank q gathers its column: the block from global
            // rank g = (u, r) lives at acc[u][r][q].
            let result = this.ctx.aux_counter(n);
            for g in 0..m * n {
                let src = g / n * pl + g % n * nl + me * len;
                result.wait_past(op.rbase, (src + len) as u64);
                // SAFETY: the result counter acquire ordered us after the
                // region writes; our output is ours.
                unsafe { output.copy_from(g * len, acc, src, len) };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{read_f64s, write_f64s};

    /// All three allreduce variants agree bitwise with the flat ring on
    /// integer-valued inputs (order-insensitive sums), across geometries
    /// including single-node and single-rank-per-node, and degenerate
    /// counts below the rank/color counts.
    #[test]
    fn node_aware_allreduce_matches_flat() {
        for (m, n) in [(1usize, 3usize), (2, 2), (3, 2), (4, 1)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = (m * n) as f64;
            for count in [0usize, 1, 7, 129] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank() as f64;
                    let input = cctx.intra().alloc_buffer((count * 8).max(1));
                    let flat = cctx.intra().alloc_buffer((count * 8).max(1));
                    let na = cctx.intra().alloc_buffer((count * 8).max(1));
                    let fused = cctx.intra().alloc_buffer((count * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                    write_f64s(&input, 0, &vals);
                    cctx.intra().barrier();
                    cctx.allreduce_f64(&input, &flat, count);
                    cctx.allreduce_f64_node_aware(&input, &na, count);
                    cctx.allreduce_f64_node_aware_fused(&input, &fused, count);
                    (
                        read_f64s(&flat, 0, count),
                        read_f64s(&na, 0, count),
                        read_f64s(&fused, 0, count),
                    )
                });
                for ranks in &out {
                    for (flat, na, fused) in ranks {
                        for i in 0..count {
                            let want = world * i as f64 + world * (world - 1.0) / 2.0;
                            assert_eq!(flat[i], want, "flat m={m} n={n} count={count}");
                            assert_eq!(na[i], want, "node-aware m={m} n={n} count={count}");
                            assert_eq!(fused[i], want, "fused m={m} n={n} count={count}");
                        }
                    }
                }
            }
        }
    }

    /// Regression for the cross-op drain bug in the flat ring engine: with
    /// one rank per node the intra-node barriers do nothing, so node 3 can
    /// finish the flat allreduce, enter the node-aware one, and inject its
    /// seg-3 partial (tag color 3) while node 0's flat engine — whose flow
    /// table has exactly one color — is still draining its ring channel.
    /// The engine used to peek that foreign chunk and panic on
    /// `flows[3]`; it now stops at its own op's expected chunk count.
    #[test]
    fn flat_engine_ignores_next_op_chunks() {
        let cluster = Cluster::with_geometry(4, 1, 64, 2);
        let count = 7usize; // one chunk; only segment 3 is non-empty
        let out = cluster.run(move |cctx| {
            let g = cctx.global_rank() as f64;
            let input = cctx.intra().alloc_buffer(count * 8);
            let flat = cctx.intra().alloc_buffer(count * 8);
            let na = cctx.intra().alloc_buffer(count * 8);
            let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
            write_f64s(&input, 0, &vals);
            cctx.intra().barrier();
            cctx.allreduce_f64(&input, &flat, count);
            cctx.allreduce_f64_node_aware(&input, &na, count);
            (read_f64s(&flat, 0, count), read_f64s(&na, 0, count))
        });
        for ranks in &out {
            for (flat, na) in ranks {
                for i in 0..count {
                    let want = 4.0 * i as f64 + 6.0;
                    assert_eq!(flat[i], want);
                    assert_eq!(na[i], want);
                }
            }
        }
    }

    /// The acceptance-criteria probe: at >= 2 nodes the node-aware
    /// schedule moves strictly fewer chunks over the fabric than the flat
    /// multi-color ring, because it chunks the global buffer once instead
    /// of rounding each color span up separately, and each chunk crosses
    /// each link at most once per stage.
    #[test]
    fn node_aware_allreduce_sends_fewer_chunks() {
        let count = 8192usize; // 64 KiB payload, 16 KiB chunks => kt = 4
        let cluster = Cluster::with_geometry(2, 4, 16 * 1024, 2);
        let run_one = |which: usize| {
            cluster.run(move |cctx| {
                let g = cctx.global_rank() as f64;
                let input = cctx.intra().alloc_buffer(count * 8);
                let output = cctx.intra().alloc_buffer(count * 8);
                let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                write_f64s(&input, 0, &vals);
                cctx.intra().barrier();
                match which {
                    0 => cctx.allreduce_f64(&input, &output, count),
                    1 => cctx.allreduce_f64_node_aware(&input, &output, count),
                    _ => cctx.allreduce_f64_node_aware_fused(&input, &output, count),
                }
                read_f64s(&output, 0, count)
            })
        };
        let base = cluster.shared.fabric.total_chunks_sent();
        let flat_out = run_one(0);
        let flat = cluster.shared.fabric.total_chunks_sent() - base;
        let na_out = run_one(1);
        let na = cluster.shared.fabric.total_chunks_sent() - base - flat;
        let fused_out = run_one(2);
        let fused = cluster.shared.fabric.total_chunks_sent() - base - flat - na;
        assert_eq!(flat_out, na_out, "node-aware result differs from flat");
        assert_eq!(flat_out, fused_out, "fused result differs from flat");
        assert!(
            na < flat,
            "node-aware sent {na} chunks, flat ring sent {flat}"
        );
        assert_eq!(na, fused, "fusion must not change the traffic volume");
        // m=2: each node sends its kt/m = 2-chunk segment once per stage.
        assert_eq!(na, 8, "unexpected node-aware chunk schedule");
    }

    /// `reduce_scatter_f64` delivers each global rank exactly its
    /// [`ClusterCtx::scatter_span`] of the reduced vector, including
    /// degenerate counts where most spans are empty.
    #[test]
    fn reduce_scatter_scatter_spans_and_values() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for count in [0usize, 1, world - 1, 37, 129] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank() as f64;
                    let input = cctx.intra().alloc_buffer((count * 8).max(1));
                    let (lo, hi) = cctx.scatter_span(count);
                    let output = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| 2.0 * i as f64 + g).collect();
                    write_f64s(&input, 0, &vals);
                    cctx.intra().barrier();
                    cctx.reduce_scatter_f64(&input, &output, count);
                    (lo, hi, read_f64s(&output, 0, hi - lo))
                });
                let wf = world as f64;
                for ranks in &out {
                    for (lo, hi, got) in ranks {
                        for (j, &gv) in got.iter().enumerate() {
                            let i = lo + j;
                            let want = wf * 2.0 * i as f64 + wf * (wf - 1.0) / 2.0;
                            assert_eq!(gv, want, "m={m} n={n} count={count} span {lo}..{hi}");
                        }
                    }
                }
            }
        }
    }

    /// `allgather` assembles every rank's block in global-rank order on
    /// every rank, including zero-length blocks.
    #[test]
    fn allgather_gathers_blocks_in_rank_order() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for len in [0usize, 1, 5, 200] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank();
                    let input = cctx.intra().alloc_buffer(len.max(1));
                    let output = cctx.intra().alloc_buffer((world * len).max(1));
                    let bytes: Vec<u8> = (0..len).map(|j| ((g * 31 + j) % 251) as u8).collect();
                    // SAFETY: our buffer, before the collective.
                    unsafe { input.write(0, &bytes) };
                    cctx.intra().barrier();
                    cctx.allgather(&input, &output, len);
                    // SAFETY: the collective completed.
                    let mut all = unsafe { output.snapshot() };
                    all.truncate(world * len);
                    all
                });
                for ranks in &out {
                    for all in ranks {
                        for src in 0..world {
                            for j in 0..len {
                                assert_eq!(
                                    all[src * len + j],
                                    ((src * 31 + j) % 251) as u8,
                                    "m={m} n={n} len={len} block {src} byte {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// `alltoall` routes every (source, destination) block, exercising the
    /// store-and-forward relay path at three nodes.
    #[test]
    fn alltoall_routes_every_block() {
        for (m, n) in [(1usize, 2usize), (2, 2), (3, 2)] {
            let cluster = Cluster::with_geometry(m, n, 64, 2);
            let world = m * n;
            for len in [0usize, 1, 3, 64] {
                let out = cluster.run(move |cctx| {
                    let g = cctx.global_rank();
                    let input = cctx.intra().alloc_buffer((world * len).max(1));
                    let output = cctx.intra().alloc_buffer((world * len).max(1));
                    let bytes: Vec<u8> = (0..world * len)
                        .map(|x| {
                            let (d, j) = (x / len.max(1), x % len.max(1));
                            ((g * 131 + d * 17 + j) % 251) as u8
                        })
                        .collect();
                    // SAFETY: our buffer, before the collective.
                    unsafe { input.write(0, &bytes) };
                    cctx.intra().barrier();
                    cctx.alltoall(&input, &output, len);
                    // SAFETY: the collective completed.
                    let mut all = unsafe { output.snapshot() };
                    all.truncate(world * len);
                    all
                });
                for ranks in &out {
                    for all in ranks.iter().zip(0..n).map(|(a, _)| a) {
                        for src in 0..world {
                            for j in 0..len {
                                let got = all[src * len + j];
                                let _ = got;
                            }
                        }
                    }
                }
                for (node, ranks) in out.iter().enumerate() {
                    for (r, all) in ranks.iter().enumerate() {
                        let g = node * n + r;
                        for src in 0..world {
                            for j in 0..len {
                                assert_eq!(
                                    all[src * len + j],
                                    ((src * 131 + g * 17 + j) % 251) as u8,
                                    "m={m} n={n} len={len} dst {g} src {src} byte {j}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
