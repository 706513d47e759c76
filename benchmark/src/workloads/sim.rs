//! `sim_paper`: the reproduction itself. `Mpi` over the paper's machine
//! (`MachineConfig::two_racks_quad()`, 8192 ranks). Every *simulated*
//! number is bit-deterministic and reported as an exact per-layer metric;
//! the end-to-end metrics here are **host** time — what simulating the op
//! costs — so the workload moves only when the simulator's own speed does.
//! No real-thread layer is used.
//!
//! Phases: `bcast_auto(1 KiB)`, `bcast_auto(256 KiB)`, `allreduce_auto(32)`,
//! `allreduce_auto(512 Ki doubles)`, and as the train one whole pass, in
//! seeded order, over a fixed paper-scale sweep: `bcast_auto` at 1 B …
//! 512 KiB (powers of two), all nine broadcast algorithms at 1 KiB /
//! 128 KiB / 512 KiB, the three allreduce algorithms at 1 Ki … 4 Mi
//! doubles, and the reduce_scatter / alltoall gate points.
//!
//! No broadcast above 512 KiB is timed: simulating one takes host time in
//! proportion to its bytes (0.15 s for a 2 MiB torus broadcast), and an op
//! that long is never undisturbed on a shared host — it straddles the
//! bursts the low-decile estimate steps between (24 % spread on the 2 MiB
//! broadcast where the 1 KiB one held 2 %). The longest op of the sweep now
//! takes about 40 ms, and the large-broadcast phase, which has only its own
//! few positions to average over, uses 256 KiB (19 ms; `torus_shaddr`, the
//! tuned choice from 128 KiB up, so still the large-message path). The
//! simulated 2 MiB figures are exact per-layer metrics.

use std::collections::BTreeMap;

use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::{AllgatherAlgorithm, AllreduceAlgorithm, BcastAlgorithm, Mpi};

use crate::gen;
use crate::harness::{
    run_loop, Plan, Shape, Step, SubRun, AR_LARGE, AR_SMALL, BCAST_LARGE, BCAST_SMALL, TRAIN,
};
use crate::spans::Spans;

pub const BCAST_ALGS: [BcastAlgorithm; 9] = [
    BcastAlgorithm::TorusDirectPut,
    BcastAlgorithm::TorusFifo,
    BcastAlgorithm::TorusShaddr,
    BcastAlgorithm::TreeSmp,
    BcastAlgorithm::TreeShmem,
    BcastAlgorithm::TreeDmaFifo,
    BcastAlgorithm::TreeDmaDirectPut,
    BcastAlgorithm::TreeShaddr { caching: true },
    BcastAlgorithm::TreeShaddr { caching: false },
];
pub const AR_ALGS: [AllreduceAlgorithm; 3] = [
    AllreduceAlgorithm::RingCurrent,
    AllreduceAlgorithm::ShaddrSpecialized,
    AllreduceAlgorithm::NodeAwareRsAg,
];

/// One simulated collective of the sweep.
#[derive(Debug, Clone, Copy)]
pub enum SimOp {
    BcastAuto(u64),
    Bcast(BcastAlgorithm, u64),
    AllreduceAuto(u64),
    Allreduce(AllreduceAlgorithm, u64),
    ReduceScatter(AllreduceAlgorithm, u64),
    Alltoall(AllgatherAlgorithm, u64),
}

/// The fixed sweep (see the module docs), in canonical order.
pub fn sweep() -> Vec<SimOp> {
    let mut ops = Vec::new();
    ops.extend((0..=19).map(|sh| SimOp::BcastAuto(1 << sh)));
    for bytes in [1 << 10, 128 << 10, 512 << 10] {
        ops.extend(BCAST_ALGS.iter().map(|&a| SimOp::Bcast(a, bytes)));
    }
    for alg in AR_ALGS {
        ops.extend((10..=22).map(|sh| SimOp::Allreduce(alg, 1 << sh)));
    }
    for alg in [
        AllreduceAlgorithm::ShaddrSpecialized,
        AllreduceAlgorithm::RingCurrent,
    ] {
        ops.push(SimOp::ReduceScatter(alg, 512 << 10));
    }
    for alg in [
        AllgatherAlgorithm::ShaddrSpecialized,
        AllgatherAlgorithm::RingCurrent,
    ] {
        ops.push(SimOp::Alltoall(alg, 4 << 10));
    }
    ops
}

/// The two simulated partitions: quad mode for everything, SMP mode for
/// the one algorithm that needs it (`TreeSmp`).
pub struct Machines {
    pub quad: Mpi,
    smp: Mpi,
}

pub fn construct() -> Machines {
    Machines {
        quad: Mpi::new(MachineConfig::two_racks_quad()),
        smp: Mpi::new(MachineConfig::racks(2, OpMode::Smp)),
    }
}

impl Machines {
    /// Simulate `op`; returns the simulated nanoseconds.
    pub fn run(&mut self, op: SimOp) -> u64 {
        let t = match op {
            SimOp::BcastAuto(b) => self.quad.bcast_auto(b).1,
            SimOp::Bcast(a, b) if a.requires_smp() => self.smp.bcast(a, b),
            SimOp::Bcast(a, b) => self.quad.bcast(a, b),
            SimOp::AllreduceAuto(d) => self.quad.allreduce_auto(d).1,
            SimOp::Allreduce(a, d) => self.quad.allreduce(a, d),
            SimOp::ReduceScatter(a, d) => self.quad.reduce_scatter(a, d),
            SimOp::Alltoall(a, b) => self.quad.alltoall(a, b),
        };
        t.as_nanos()
    }
}

/// Simulated nanoseconds first seen per op; every later run of the same op
/// — in this sub-run, on a fresh machine in the next, on a machine that has
/// run thousands of ops since — must reproduce it exactly.
pub type Seen = BTreeMap<String, u64>;

fn reproduces(seen: &mut Seen, op: SimOp, ns: u64) -> bool {
    ns > 0 && *seen.entry(format!("{op:?}")).or_insert(ns) == ns
}

/// The op at position `i` of the seeded order over `sweep`.
fn shuffled(order_key: u64, len: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    idx.sort_by_key(|&j| gen::mix(order_key ^ gen::mix(j as u64)));
    idx
}

/// One sub-run on freshly booted machines.
pub fn sub_run(shape: &Shape, plan: &Plan, sub: usize, seen: &mut Seen) -> SubRun {
    let mut sp = Spans::new(plan.trace);
    let mut out = SubRun::default();
    let mut m = sp.time("construct", construct);
    let mut sync = |_: &mut Machines| {};
    let mut last = 0u64;

    let headline = [
        (BCAST_SMALL, SimOp::BcastAuto(shape.bcast[0] as u64)),
        (BCAST_LARGE, SimOp::BcastAuto(shape.bcast[1] as u64)),
        (AR_SMALL, SimOp::AllreduceAuto(shape.allreduce[0] as u64)),
        (AR_LARGE, SimOp::AllreduceAuto(shape.allreduce[1] as u64)),
    ];
    for (phase, op) in headline {
        out.loops.push(run_loop(
            &mut m,
            &mut sp,
            &shape.loop_spec(phase, plan),
            &mut sync,
            &mut |m, step| match step {
                Step::Begin { .. } => true,
                Step::Op(_) => {
                    last = m.run(op);
                    true
                }
                Step::End { verify, .. } => !verify || reproduces(seen, op, last),
            },
        ));
    }

    let ops = sweep();
    let order = shuffled(gen::op_key(plan.seed, sub, TRAIN, 0), ops.len());
    let spec = shape.loop_spec(TRAIN, plan);
    let mut ok = true;
    let mut train = run_loop(
        &mut m,
        &mut sp,
        &spec,
        &mut sync,
        &mut |m, step| match step {
            Step::Begin { .. } => {
                ok = true;
                true
            }
            Step::Op(i) => {
                let op = ops[order[i % ops.len()]];
                ok &= reproduces(seen, op, m.run(op));
                true
            }
            Step::End { .. } => ok,
        },
    );
    // Out of the seeded order into the sweep's own, pass after pass, so
    // that a position means the same op in every sub-run.
    if spec.batch == 1 && train.batch_ns.len() == spec.batches {
        let mut canonical = vec![0; spec.batches];
        for (b, &ns) in train.batch_ns.iter().enumerate() {
            let pass = b / ops.len();
            canonical[pass * ops.len() + order[(spec.warm_batches + b) % ops.len()]] = ns;
        }
        train.batch_ns = canonical;
    }
    out.loops.push(train);
    sp.time("teardown", || drop(m));
    out.spans.push((0, sp.take()));
    out
}

/// One cold cycle: boot both partitions (tuning-table load included) → one
/// checked 256 B `bcast_auto` → drop.
pub fn cold_cycle(seen: &mut Seen) -> bool {
    let mut m = construct();
    let op = SimOp::BcastAuto(256);
    let ns = m.run(op);
    reproduces(seen, op, ns)
}
