//! `intra_node` and `cluster_2node`: the blocking collectives on rank
//! threads. Both run the same SPMD body on a `bgp_smp::Cluster`; they
//! differ in the cluster's shape and in which layer carries the bytes.
//!
//! * `intra_node` — 1 node × 2 ranks (`NodeRuntime::new(2)` is exactly
//!   `Cluster::new(1, 2)`; the cluster form is used so the fabric's chunk
//!   counter can be read and shown to stay 0). `RankCtx::bcast_fifo`,
//!   `bcast_shaddr` and `allreduce_f64`: shmem FIFO / counters / windows
//!   plus `smp::collectives` and `smp::kernels` do all the work.
//! * `cluster_2node` — 2 nodes × 1 rank over 4 KiB × 4 slot-loan links.
//!   `ClusterCtx::bcast` / `allreduce_f64`: `smp::transport` and the
//!   tree/ring protocol in `smp::cluster` carry everything; there is no
//!   intra-node stage.

use std::sync::Arc;

use bgp_shmem::SharedRegion;
use bgp_smp::{Cluster, ClusterCtx, SenseBarrier};

use crate::gen::{self, TrainOp};
use crate::harness::{
    merge_ranks, run_loop, Count, LoopOut, Plan, Shape, Step, SubRun, AR_LARGE, AR_SMALL,
    BCAST_LARGE, BCAST_SMALL, TRAIN,
};
use crate::spans::{RawSpan, Spans};

/// Pipeline width of the shared-address broadcast (bytes per counter publish).
const PWIDTH: usize = 16 * 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    IntraNode,
    Cluster2,
}

impl Kind {
    pub fn construct(self) -> Cluster {
        match self {
            Kind::IntraNode => Cluster::new(1, 2),
            Kind::Cluster2 => Cluster::with_geometry(2, 1, 4096, 4),
        }
    }

    /// This caller's member index and the member count.
    fn place(self, c: &ClusterCtx) -> (usize, usize) {
        match self {
            Kind::IntraNode => (c.rank(), c.n_ranks()),
            Kind::Cluster2 => (c.node(), c.n_nodes()),
        }
    }

    fn bcast(
        self,
        c: &mut ClusterCtx,
        large: bool,
        root: usize,
        buf: &Arc<SharedRegion>,
        len: usize,
    ) {
        match (self, large) {
            (Kind::IntraNode, false) => c.intra().bcast_fifo(root, buf, len, 0),
            (Kind::IntraNode, true) => c.intra().bcast_shaddr(root, buf, len, PWIDTH),
            (Kind::Cluster2, _) => c.bcast(root, buf, len),
        }
    }

    fn allreduce(
        self,
        c: &mut ClusterCtx,
        inp: &Arc<SharedRegion>,
        out: &Arc<SharedRegion>,
        n: usize,
    ) {
        match self {
            Kind::IntraNode => c.intra().allreduce_f64(inp, out, n),
            Kind::Cluster2 => c.allreduce_f64(inp, out, n),
        }
    }
}

pub type RankOut = (Vec<LoopOut>, Vec<RawSpan>, Vec<Count>);

/// One rank's five loops. `sub` salts the op keys so sub-runs differ.
fn rank_body(
    c: &mut ClusterCtx,
    kind: Kind,
    shape: &Shape,
    plan: &Plan,
    sub: usize,
    bar: &SenseBarrier,
) -> RankOut {
    let mut sp = Spans::new(plan.trace);
    let (me, world) = kind.place(c);
    let mut tok = bar.token();
    let seed = plan.seed;

    // Buffers are allocated once per sub-run, outside every timed region.
    let max_ar = shape.allreduce[1].max(shape.mix.allreduce.1);
    let (bbuf, inp, out) = sp.time("alloc", || {
        (
            c.intra()
                .alloc_buffer(shape.bcast[1].max(shape.mix.bcast.1)),
            c.intra().alloc_buffer(max_ar * 8),
            c.intra().alloc_buffer(max_ar * 8),
        )
    });
    // One seeded input per member for every allreduce of the sub-run; a
    // shorter allreduce uses its prefix, so one reference serves them all.
    let in_key = gen::op_key(seed, sub, 7, 0);
    let reference = sp.time("prepare", || {
        gen::put(&inp, &gen::f64_bytes(&gen::f64s(in_key, me, max_ar)));
        gen::f64_bytes(&gen::f64_sum(in_key, world, max_ar))
    });

    let mut sync = |_: &mut ClusterCtx| {
        bar.wait(&mut tok);
    };
    let mut loops = Vec::with_capacity(5);

    for (phase, large) in [(BCAST_SMALL, false), (BCAST_LARGE, true)] {
        let len = shape.bcast[large as usize];
        let key = |i| gen::op_key(seed, sub, phase, i);
        loops.push(run_loop(
            c,
            &mut sp,
            &shape.loop_spec(phase, plan),
            &mut sync,
            &mut |c, step| match step {
                // Only a verified batch rewrites the payload; the ops in
                // between re-broadcast it from rotating roots, so at the
                // end of the batch every member must still hold op i's
                // bytes.
                Step::Begin { i, verify } => {
                    if verify && me == i % world {
                        gen::put_pattern(&bbuf, len, key(i));
                    }
                    true
                }
                Step::Op(i) => {
                    kind.bcast(c, large, i % world, &bbuf, len);
                    true
                }
                Step::End { i, verify } => !verify || gen::region_matches(&bbuf, len, key(i)),
            },
        ));
    }

    for (phase, large) in [(AR_SMALL, false), (AR_LARGE, true)] {
        let n = shape.allreduce[large as usize];
        loops.push(run_loop(
            c,
            &mut sp,
            &shape.loop_spec(phase, plan),
            &mut sync,
            &mut |c, step| match step {
                Step::Begin { verify, .. } => {
                    if verify {
                        gen::clear(&out, n * 8);
                    }
                    true
                }
                Step::Op(_) => {
                    kind.allreduce(c, &inp, &out, n);
                    true
                }
                Step::End { verify, .. } => {
                    !verify || gen::region_equals(&out, &reference[..n * 8])
                }
            },
        ));
    }

    // The mixed train: 3 : 1 small broadcast : small allreduce in seeded
    // order with seeded roots and sizes, one op in flight (the callers
    // block in each collective). The first op of every verified batch is
    // checked right after it returns — inside the timed region, where a
    // <= 1 KiB fill and compare is noise against 32 collectives.
    let train_key = plan.train_key();
    let spec = shape.loop_spec(TRAIN, plan);
    let (mut check_first, mut first_ok) = (false, true);
    loops.push(run_loop(
        c,
        &mut sp,
        &spec,
        &mut sync,
        &mut |c, step| match step {
            Step::Begin { verify, .. } => {
                check_first = verify;
                first_ok = true;
                true
            }
            Step::Op(i) => {
                let checked = check_first && i % spec.batch == 0;
                match gen::train_op(train_key, i, world, shape.mix) {
                    TrainOp::Bcast { root, len } => {
                        let key = gen::op_key(seed, sub, TRAIN, i);
                        if checked && me == root {
                            gen::put_pattern(&bbuf, len, key);
                        }
                        kind.bcast(c, false, root, &bbuf, len);
                        if checked {
                            first_ok = gen::region_matches(&bbuf, len, key);
                        }
                    }
                    TrainOp::Allreduce { count } => {
                        if checked {
                            gen::clear(&out, count * 8);
                        }
                        kind.allreduce(c, &inp, &out, count);
                        if checked {
                            first_ok = gen::region_equals(&out, &reference[..count * 8]);
                        }
                    }
                }
                true
            }
            Step::End { .. } => first_ok,
        },
    ));

    // Layer counts visible from outside, read once the loops are done.
    let mut counts = Vec::new();
    if me == 0 {
        counts.push(Count::exact(
            "smp.transport.chunks_sent",
            c.fabric().total_chunks_sent() as f64,
        ));
    }
    if c.rank() == 0 {
        let (_, misses, hits) = c.intra().registry().stats().snapshot();
        counts.push(Count::exact("window.hits", hits as f64));
        counts.push(Count::exact("window.misses", misses as f64));
    }
    (loops, sp.take(), counts)
}

/// Fold the ranks' results into one [`SubRun`] (batch time = max over
/// ranks; counts summed).
pub fn fold(per_rank: Vec<RankOut>, main_spans: Vec<RawSpan>) -> SubRun {
    let mut sub = SubRun::default();
    let world = per_rank.len();
    let mut by_phase: Vec<Vec<LoopOut>> = (0..5).map(|_| Vec::new()).collect();
    for (track, (loops, spans, counts)) in per_rank.into_iter().enumerate() {
        for (p, l) in loops.into_iter().enumerate() {
            by_phase[p].push(l);
        }
        sub.spans.push((track as u32, spans));
        for c in counts {
            match sub.counts.iter_mut().find(|have| have.name == c.name) {
                Some(have) => have.value += c.value,
                None => sub.counts.push(c),
            }
        }
    }
    sub.spans.push((world as u32, main_spans));
    sub.loops = by_phase.into_iter().map(merge_ranks).collect();
    sub
}

/// One sub-run on a freshly constructed cluster.
pub fn sub_run(kind: Kind, shape: &Shape, plan: &Plan, sub: usize) -> SubRun {
    let mut sp = Spans::new(plan.trace);
    let cluster = sp.time("construct", || kind.construct());
    let world = cluster.n_nodes() * cluster.n_ranks();
    let bar = Arc::new(SenseBarrier::new(world));
    let (shape, plan) = (*shape, *plan);
    let per_rank = sp.time("dispatch", || {
        cluster.run(move |c| rank_body(c, kind, &shape, &plan, sub, &bar))
    });
    sp.time("teardown", || drop(cluster));
    let mut out = fold(per_rank.into_iter().flatten().collect(), sp.take());
    // The window cache is keyed by region address, so a fresh region at a
    // recycled address counts as a hit: close to, but not exactly, fixed.
    let (hits, misses) = (out.count("window.hits"), out.count("window.misses"));
    out.counts.retain(|c| !c.name.starts_with("window."));
    if hits + misses > 0.0 {
        out.counts.push(Count::racy(
            "shmem.window.hit_ratio",
            "ratio",
            hits / (hits + misses),
        ));
    }
    out
}

/// One cold cycle for `setup_s`: construct → one verified 256 B broadcast
/// → teardown. Returns whether the bytes arrived.
pub fn cold_cycle(kind: Kind, seed: u64, cycle: usize) -> bool {
    let cluster = kind.construct();
    let key = gen::op_key(seed, cycle, 8, 0);
    let ok = cluster.run(move |c| {
        let (me, _) = kind.place(c);
        let buf = c.intra().alloc_buffer(256);
        if me == 0 {
            gen::put_pattern(&buf, 256, key);
        }
        kind.bcast(c, false, 0, &buf, 256);
        gen::region_matches(&buf, 256, key)
    });
    ok.iter().flatten().all(|&b| b)
}
