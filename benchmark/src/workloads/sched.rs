//! `sched_train`: the nonblocking engine. A 2 × 1 cluster; every phase
//! posts through `bgp_sched::Sched` and completes with `wait`/`wait_all`.
//! The latency and bandwidth phases use a fresh `Sched` per timed batch
//! (what every existing bench and the server do); the train keeps **one
//! long-lived `Sched`** at depth 16, which is where the engine's cost per
//! *retired* op shows: `Sched::poll` walks every role ever posted. The
//! transport work per op is tiny; server and svc are bypassed.

use std::sync::Arc;

use bgp_sched::{Request, Sched};
use bgp_shmem::SharedRegion;
use bgp_smp::{Cluster, ClusterCtx, SenseBarrier};

use crate::gen::{self, TrainOp};
use crate::harness::{
    run_loop, Count, Plan, Shape, Step, SubRun, AR_LARGE, AR_SMALL, BCAST_LARGE, BCAST_SMALL, TRAIN,
};
use crate::spans::Spans;
use crate::workloads::threads::{fold, RankOut};

/// Ops in flight in the train.
pub const DEPTH: usize = 16;
/// The posting group: the one rank of each node.
const GROUP: [usize; 1] = [0];

/// Link geometry: the 4 KiB chunks of `cluster_2node`, but a window of 8.
/// With the window of 4 used there, a multi-chunk `iallreduce` deadlocks
/// in about 2 % of fresh-`Sched` sub-runs (both engines spin forever; 10
/// of 20 runs hung within seconds); with 8 or 16, 35 000 large allreduces
/// over 30 runs completed. See the README's findings.
const CHUNK_BYTES: usize = 4096;
const WINDOW: usize = 8;

pub fn construct() -> Cluster {
    Cluster::with_geometry(2, 1, CHUNK_BYTES, WINDOW)
}

fn rank_body(
    c: &mut ClusterCtx,
    shape: &Shape,
    plan: &Plan,
    sub: usize,
    bar: &SenseBarrier,
) -> RankOut {
    let mut sp = Spans::new(plan.trace);
    let (me, world) = (c.node(), c.n_nodes());
    let mut tok = bar.token();
    let seed = plan.seed;
    let alloc = |len: usize| Arc::new(SharedRegion::new(len));

    let max_ar = shape.allreduce[1];
    let (bbuf, inp, out) = sp.time("alloc", || {
        (alloc(shape.bcast[1]), alloc(max_ar * 8), alloc(max_ar * 8))
    });
    let in_key = gen::op_key(seed, sub, 7, 0);
    let reference = sp.time("prepare", || {
        gen::put(&inp, &gen::f64_bytes(&gen::f64s(in_key, me, max_ar)));
        gen::f64_bytes(&gen::f64_sum(in_key, world, max_ar))
    });

    let mut sync = |_: &mut ClusterCtx| {
        bar.wait(&mut tok);
    };
    let mut loops = Vec::with_capacity(5);
    // Dropping a `Sched` quiesces it; both happen outside the timed region.
    let mut sched: Option<Sched> = None;

    for (phase, large) in [(BCAST_SMALL, false), (BCAST_LARGE, true)] {
        let len = shape.bcast[large as usize];
        let key = |i| gen::op_key(seed, sub, phase, i);
        loops.push(run_loop(
            c,
            &mut sp,
            &shape.loop_spec(phase, plan),
            &mut sync,
            &mut |c, step| match step {
                Step::Begin { i, verify } => {
                    if verify && me == i % world {
                        gen::put_pattern(&bbuf, len, key(i));
                    }
                    sched = Some(Sched::new(c));
                    true
                }
                Step::Op(i) => {
                    let s = sched.as_mut().expect("created in Begin");
                    match s.ibcast(&GROUP, i % world, 0, Some(&bbuf), len) {
                        Ok(req) => {
                            s.wait(req);
                            true
                        }
                        Err(e) => {
                            eprintln!("sched_train: ibcast refused: {e}");
                            false
                        }
                    }
                }
                Step::End { i, verify } => {
                    sched = None;
                    !verify || gen::region_matches(&bbuf, len, key(i))
                }
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
                    sched = Some(Sched::new(c));
                    true
                }
                Step::Op(_) => {
                    let s = sched.as_mut().expect("created in Begin");
                    match s.iallreduce(&GROUP, Some(&inp), Some(&out), n) {
                        Ok(req) => {
                            s.wait(req);
                            true
                        }
                        Err(e) => {
                            eprintln!("sched_train: iallreduce refused: {e}");
                            false
                        }
                    }
                }
                Step::End { verify, .. } => {
                    sched = None;
                    !verify || gen::region_equals(&out, &reference[..n * 8])
                }
            },
        ));
    }

    // The train: DEPTH ops posted, then all waited, on one `Sched` for the
    // whole loop. Slot s of a round owns its own buffers (a posted buffer
    // is busy until its request completes).
    let (tb, tn) = (shape.mix.bcast.1, shape.mix.allreduce.1);
    let slots: Vec<_> = sp.time("alloc", || {
        (0..DEPTH)
            .map(|_| (alloc(tb), alloc(tn * 8), alloc(tn * 8)))
            .collect()
    });
    for (_, tin, _) in &slots {
        gen::put(tin, &gen::f64_bytes(&gen::f64s(in_key, me, tn)));
    }
    let train_key = plan.train_key();
    let spec = shape.loop_spec(TRAIN, plan);
    let mut reqs: Vec<Request> = Vec::with_capacity(DEPTH);
    // The verified op of a batch is its first (slot 0 of the first round).
    let (mut check_first, mut first_ok, mut first_op) = (false, true, None);
    loops.push(run_loop(
        c,
        &mut sp,
        &spec,
        &mut sync,
        &mut |c, step| match step {
            Step::Begin { i, verify } => {
                if i == 0 {
                    sched = Some(Sched::new(c));
                }
                check_first = verify;
                first_ok = true;
                true
            }
            Step::Op(i) => {
                let s = sched.as_mut().expect("created at op 0");
                let (buf, tin, tout) = &slots[i % DEPTH];
                let checked = check_first && i % spec.batch == 0;
                let op = gen::train_op(train_key, i, world, shape.mix);
                let key = gen::op_key(seed, sub, TRAIN, i);
                let posted = match op {
                    TrainOp::Bcast { root, len } => {
                        if checked && me == root {
                            gen::put_pattern(buf, len, key);
                        }
                        s.ibcast(&GROUP, root, 0, Some(buf), len)
                    }
                    TrainOp::Allreduce { count } => {
                        if checked {
                            gen::clear(tout, count * 8);
                        }
                        s.iallreduce(&GROUP, Some(tin), Some(tout), count)
                    }
                };
                match posted {
                    Ok(req) => reqs.push(req),
                    Err(e) => {
                        eprintln!("sched_train: post refused: {e}");
                        return false;
                    }
                }
                if checked {
                    first_op = Some((op, key));
                }
                if i % DEPTH == DEPTH - 1 {
                    s.wait_all(&reqs);
                    reqs.clear();
                    if let Some((op, key)) = first_op.take() {
                        let (buf, _, tout) = &slots[0];
                        first_ok = match op {
                            TrainOp::Bcast { len, .. } => gen::region_matches(buf, len, key),
                            TrainOp::Allreduce { count } => {
                                gen::region_equals(tout, &reference[..count * 8])
                            }
                        };
                    }
                }
                true
            }
            Step::End { .. } => first_ok,
        },
    ));
    sp.time("teardown", || drop(sched.take()));

    let mut counts = Vec::new();
    if me == 0 {
        counts.push(Count::exact(
            "smp.transport.chunks_sent",
            c.fabric().total_chunks_sent() as f64,
        ));
    }
    (loops, sp.take(), counts)
}

/// One sub-run on a freshly constructed cluster.
pub fn sub_run(shape: &Shape, plan: &Plan, sub: usize) -> SubRun {
    assert!(
        shape.batch[TRAIN].is_multiple_of(DEPTH),
        "a train batch is a whole number of depth-{DEPTH} rounds"
    );
    let mut sp = Spans::new(plan.trace);
    let cluster = sp.time("construct", construct);
    let bar = Arc::new(SenseBarrier::new(2));
    let (shape, plan) = (*shape, *plan);
    let per_rank = sp.time("dispatch", || {
        cluster.run(move |c| rank_body(c, &shape, &plan, sub, &bar))
    });
    let stats = cluster.stats();
    sp.time("teardown", || drop(cluster));
    let mut out = fold(per_rank.into_iter().flatten().collect(), sp.take());
    // How often a chunk outran its post depends on thread timing.
    out.counts.push(Count::racy(
        "sched.engine.stash_parked",
        "count",
        stats.stash_parked as f64,
    ));
    out.counts.push(Count::exact(
        "sched.engine.stash_evicted",
        stats.stash_evicted_chunks as f64,
    ));
    out
}

/// One cold cycle: cluster + `Sched` → one verified 256 B `ibcast` → drop.
pub fn cold_cycle(seed: u64, cycle: usize) -> bool {
    let cluster = construct();
    let key = gen::op_key(seed, cycle, 8, 0);
    let ok = cluster.run(move |c| {
        let buf = Arc::new(SharedRegion::new(256));
        if c.node() == 0 {
            gen::put_pattern(&buf, 256, key);
        }
        let mut s = Sched::new(c);
        let Ok(req) = s.ibcast(&GROUP, 0, 0, Some(&buf), 256) else {
            return false;
        };
        s.wait(req);
        drop(s);
        gen::region_matches(&buf, 256, key)
    });
    ok.iter().flatten().all(|&b| b)
}
