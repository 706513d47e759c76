//! `xproc_2node`: the cluster protocols across forked processes. The same
//! wire protocol as `cluster_2node`, but over `ProcSlots` in an mmap'd
//! segment with a seqlock job/status handshake per op — the only workload
//! where `smp::proc`, `shmem::seqlock` and the segment cost exist. The
//! parent is node 0 and the only caller; the worker is a re-exec of this
//! binary (`maybe_worker()` runs first in `main`).

use bgp_smp::proc::{allreduce_input, bcast_pattern, ProcCluster};

use crate::gen::{self, TrainOp};
use crate::harness::{run_loop, Count, Plan, Shape, Step, SubRun};
use crate::spans::Spans;

pub const NODES: usize = 2;
const CHUNK_BYTES: usize = 4096;
const WINDOW: usize = 4;

pub fn construct(shape: &Shape) -> Result<ProcCluster, bgp_smp::proc::ProcError> {
    let max_msg = shape.bcast[1].max(shape.allreduce[1] * 8);
    ProcCluster::new(NODES, CHUNK_BYTES, WINDOW, max_msg)
}

/// Did every node receive the library's pattern for `seed`?
fn bcast_ok(got: &[Vec<u8>], seed: u64, len: usize) -> bool {
    let want = bcast_pattern(seed, len);
    got.len() == NODES && got.iter().all(|g| *g == want)
}

/// Does every node hold the elementwise sum of the nodes' seeded inputs?
/// Two operands, so the sum is the same in either order, bit for bit.
fn allreduce_ok(got: &[Vec<u8>], seed: u64, count: usize) -> bool {
    let f = |b: &[u8]| f64::from_le_bytes(b.try_into().expect("8 bytes"));
    let (a, b) = (
        allreduce_input(seed, 0, count),
        allreduce_input(seed, 1, count),
    );
    let want: Vec<u8> = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .flat_map(|(x, y)| (f(x) + f(y)).to_le_bytes())
        .collect();
    got.len() == NODES && got.iter().all(|g| *g == want)
}

/// One sub-run on a freshly forked cluster.
pub fn sub_run(shape: &Shape, plan: &Plan, sub: usize) -> SubRun {
    let mut sp = Spans::new(plan.trace);
    let mut out = SubRun::default();
    let mut pc = match sp.time("construct", || construct(shape)) {
        Ok(pc) => pc,
        Err(e) => {
            eprintln!("xproc_2node: cluster construction failed: {e}");
            return SubRun::all_failed(shape, plan);
        }
    };
    let mut sync = |_: &mut ProcCluster| {};
    let train_key = plan.train_key();

    // One op in flight in every phase: the parent's calls are synchronous.
    for phase in 0..5 {
        let spec = shape.loop_spec(phase, plan);
        let key = |i| gen::op_key(plan.seed, sub, phase, i);
        // The first op of a verified batch keeps its results for `End`,
        // so that regenerating the reference stays outside the clock.
        let mut hold_next = false;
        let mut held: Option<(TrainOp, u64, Vec<Vec<u8>>)> = None;
        out.loops.push(run_loop(
            &mut pc,
            &mut sp,
            &spec,
            &mut sync,
            &mut |pc, step| match step {
                Step::Begin { verify, .. } => {
                    hold_next = verify;
                    true
                }
                Step::Op(i) => {
                    let op = shape.op(phase, i, train_key, NODES);
                    let res = match op {
                        TrainOp::Bcast { root, len } => pc.bcast(root, key(i), len),
                        TrainOp::Allreduce { count } => pc.allreduce(key(i), count),
                    };
                    match res {
                        Ok(got) => {
                            if hold_next && i % spec.batch == 0 {
                                held = Some((op, key(i), got));
                            }
                            true
                        }
                        Err(e) => {
                            eprintln!("xproc_2node: {op:?} failed: {e}");
                            false
                        }
                    }
                }
                Step::End { verify, .. } => {
                    !verify
                        || held.take().is_some_and(|(op, key, got)| match op {
                            TrainOp::Bcast { len, .. } => bcast_ok(&got, key, len),
                            TrainOp::Allreduce { count } => allreduce_ok(&got, key, count),
                        })
                }
            },
        ));
    }

    out.counts.push(Count::exact(
        "smp.proc.chunks_sent",
        pc.fabric().total_chunks_sent() as f64,
    ));
    sp.time("teardown", || drop(pc.shutdown()));
    out.spans.push((0, sp.take()));
    out
}

/// One cold cycle: fork + mmap → one verified 256 B broadcast → shutdown.
pub fn cold_cycle(shape: &Shape, seed: u64, cycle: usize) -> bool {
    let Ok(mut pc) = construct(shape) else {
        return false;
    };
    let key = gen::op_key(seed, cycle, 8, 0);
    let ok = pc
        .bcast(0, key, 256)
        .is_ok_and(|got| bcast_ok(&got, key, 256));
    ok && pc.shutdown().is_ok()
}
