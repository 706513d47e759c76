//! The six workloads and the two passes (untraced end-to-end, traced
//! per-layer) that run them.

pub mod sched;
pub mod sim;
pub mod svc;
pub mod threads;
pub mod xproc;

use std::time::Instant;

use crate::gen::TrainMix;
use crate::harness::{e2e_metrics, Metric, Plan, Shape, SubRun};
use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IntraNode,
    Cluster2Node,
    Xproc2Node,
    SchedTrain,
    SvcSaturated,
    SimPaper,
}

pub const ALL: [Workload; 6] = [
    Workload::IntraNode,
    Workload::Cluster2Node,
    Workload::Xproc2Node,
    Workload::SchedTrain,
    Workload::SvcSaturated,
    Workload::SimPaper,
];

/// Train jitter of the blocking runtimes: 64 B – 1 KiB broadcasts,
/// 8 – 128 double allreduces.
const BLOCKING_MIX: TrainMix = TrainMix {
    bcast: (64, 1024),
    allreduce: (8, 128),
};

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::IntraNode => "intra_node",
            Workload::Cluster2Node => "cluster_2node",
            Workload::Xproc2Node => "xproc_2node",
            Workload::SchedTrain => "sched_train",
            Workload::SvcSaturated => "svc_saturated",
            Workload::SimPaper => "sim_paper",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for BENCHMARK.json: which layers carry this workload and
    /// which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::IntraNode => "1 node x 2 rank threads: shmem FIFO/counters/windows + smp collectives/kernels do all the work; fabric, proc, sched, svc do none",
            Workload::Cluster2Node => "2 nodes x 1 rank thread: slot-loan transport + tree/ring protocol carry everything; no intra-node stage, no process boundary (control for shmem and proc work)",
            Workload::Xproc2Node => "parent + 1 forked worker: the same wire protocol over an mmap segment with a seqlock handshake per op; the only workload where smp.proc cost exists",
            Workload::SchedTrain => "2 x 1 cluster through the nonblocking engine, one long-lived Sched at depth 16: engine post/poll cost per in-flight and per retired op; bypasses server and svc",
            Workload::SvcSaturated => "two weighted tenants, 16+16 submissions then wait all: server admission, DRR scan, coalescing, one cluster job per batch and svc bookkeeping dominate",
            Workload::SimPaper => "the reproduction: host time of simulating the paper-scale sweep on two_racks_quad; uses no real-thread layer, so real-runtime work must not move it",
        }
    }

    /// Sizes and op counts, sized on a 2-core host so that one untraced run
    /// (setup cycles + sub-runs) measures for about `--seconds`.
    pub fn shape(self) -> Shape {
        let base = Shape {
            bcast: [256, 4 << 20],
            allreduce: [32, 512 << 10],
            ops: [0; 5],
            batch: [64, 1, 64, 1, 32],
            check_every: [64, 64, 64, 64, 32],
            mix: BLOCKING_MIX,
            sub_runs: 36,
            setup_cycles: 1440,
            whole_passes: 0,
        };
        match self {
            Workload::IntraNode => Shape {
                ops: [64_000, 200, 16_000, 70, 40_000],
                ..base
            },
            Workload::Cluster2Node => Shape {
                ops: [64_000, 100, 40_000, 35, 64_000],
                ..base
            },
            // The segment's result regions bound the message size. A cold
            // cycle forks and maps: milliseconds, not the 0.2 ms of threads.
            Workload::Xproc2Node => Shape {
                bcast: [256, 1 << 20],
                allreduce: [32, 128 << 10],
                ops: [32_000, 20, 32_000, 20, 26_000],
                setup_cycles: 360,
                ..base
            },
            Workload::SchedTrain => Shape {
                ops: [12_800, 50, 6_400, 24, 16_384],
                mix: TrainMix {
                    bcast: (1024, 1024),
                    allreduce: (128, 128),
                },
                ..base
            },
            // Payloads go in and results come out as owned vectors, so a
            // large op costs several copies. 512 KiB is 32 of the service
            // cluster's 16 KiB chunks: four in flight stay well inside the
            // engine's bounded stash (64 chunks per op, 256 in all).
            Workload::SvcSaturated => Shape {
                bcast: [256, 512 << 10],
                allreduce: [32, 64 << 10],
                ops: [6_400, 48, 4_800, 32, 6_400],
                batch: [32, 4, 32, 4, 32],
                check_every: [32, 16, 32, 16, 32],
                mix: TrainMix {
                    bcast: (64, 512),
                    allreduce: (8, 32),
                },
                ..base
            },
            // Shorter sub-runs, more of them: the simulator's ops are the
            // longest timed here, so it needs the most draws per position.
            Workload::SimPaper => Shape {
                bcast: [1 << 10, 256 << 10],
                ops: [1_024, 6, 1_024, 64, 0],
                batch: [64, 1, 64, 1, 1],
                check_every: [64, 1, 64, 16, 1],
                whole_passes: sim::sweep().len(),
                sub_runs: 30,
                setup_cycles: 180,
                ..base
            },
        }
    }
}

/// A few small seeded allocations held for the length of a sub-run.
///
/// Where the runtime's small objects (counters, slots, queue nodes) land
/// relative to cache lines decides how much two ranks falsely share, and
/// the allocator hands a freshly constructed runtime the addresses the
/// previous one just freed: without this, one layout's luck persists over
/// streaks of sub-runs and a whole process, and the median over sub-runs
/// flips between modes from run to run (10 % spread on `sched_train`
/// against 2–3 % with it). Shifting the heap by a seeded amount redraws the
/// layout for every sub-run, like the fresh threads redraw core placement.
fn heap_offset(seed: u64, sub: usize) -> Vec<Vec<u8>> {
    let n = (crate::gen::op_key(seed, sub, 6, 0) % 13) as usize;
    (0..n)
        .map(|j| vec![0u8; 16 * ((crate::gen::op_key(seed, sub, 6, j + 1) % 40) as usize + 1)])
        .collect()
}

/// Runs one workload's sub-runs and cold cycles; holds what must persist
/// across them (the simulator's first-seen results).
pub struct Runner {
    pub workload: Workload,
    pub shape: Shape,
    seen: sim::Seen,
}

impl Runner {
    pub fn new(workload: Workload) -> Self {
        Runner {
            workload,
            shape: workload.shape(),
            seen: sim::Seen::new(),
        }
    }

    /// One sub-run on a freshly constructed runtime.
    pub fn sub_run(&mut self, plan: &Plan, sub: usize) -> SubRun {
        let _offset = heap_offset(plan.seed, sub);
        let shape = &self.shape;
        match self.workload {
            Workload::IntraNode => threads::sub_run(threads::Kind::IntraNode, shape, plan, sub),
            Workload::Cluster2Node => threads::sub_run(threads::Kind::Cluster2, shape, plan, sub),
            Workload::Xproc2Node => xproc::sub_run(shape, plan, sub),
            Workload::SchedTrain => sched::sub_run(shape, plan, sub),
            Workload::SvcSaturated => svc::sub_run(shape, plan, sub),
            Workload::SimPaper => sim::sub_run(shape, plan, sub, &mut self.seen),
        }
    }

    /// One cold cycle: construct → first verified op → teardown.
    pub fn cold_cycle(&mut self, seed: u64, cycle: usize) -> bool {
        match self.workload {
            Workload::IntraNode => threads::cold_cycle(threads::Kind::IntraNode, seed, cycle),
            Workload::Cluster2Node => threads::cold_cycle(threads::Kind::Cluster2, seed, cycle),
            Workload::Xproc2Node => xproc::cold_cycle(&self.shape, seed, cycle),
            Workload::SchedTrain => sched::cold_cycle(seed, cycle),
            Workload::SvcSaturated => svc::cold_cycle(seed, cycle),
            Workload::SimPaper => sim::cold_cycle(&mut self.seen),
        }
    }

    /// Time `cycles` cold cycles (seconds each) starting at cycle index
    /// `first`; returns how many failed verification.
    fn time_cold_cycles(
        &mut self,
        seed: u64,
        first: usize,
        cycles: usize,
        secs: &mut Vec<f64>,
    ) -> u64 {
        let mut failed = 0;
        for cycle in first..first + cycles {
            let t0 = Instant::now();
            let ok = self.cold_cycle(seed, cycle);
            secs.push(t0.elapsed().as_secs_f64());
            failed += u64::from(!ok);
        }
        failed
    }
}

/// What a pass produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Ops the untraced pass will issue (for the watchdog's accounting).
pub fn planned_ops(w: Workload, plan: &Plan) -> u64 {
    let shape = w.shape();
    let cycles = shape.setup_cycles.div_ceil(shape.sub_runs) as u64;
    shape.sub_runs as u64 * (cycles + shape.ops_per_sub_run(plan))
}

/// The untraced pass: every end-to-end metric. `progress` is told the ops
/// attempted so far after each step.
///
/// `setup_s` is the low-decile cold cycle (undisturbed, like every
/// end-to-end metric). The cycles are spread over the run, a share before
/// every sub-run, so that they sample the machine at as many moments as
/// the sub-runs do.
pub fn run_e2e(w: Workload, plan: &Plan, progress: &mut dyn FnMut(u64)) -> Outcome {
    let mut runner = Runner::new(w);
    let (k, cycles) = (
        runner.shape.sub_runs,
        runner.shape.setup_cycles.div_ceil(runner.shape.sub_runs),
    );
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_secs = Vec::with_capacity(k * cycles);
    let mut subs = Vec::with_capacity(k);
    for sub in 0..k {
        failed += runner.time_cold_cycles(plan.seed, sub * cycles, cycles, &mut setup_secs);
        attempted += cycles as u64;
        let s = runner.sub_run(plan, sub);
        attempted += s.attempted();
        failed += s.failed();
        progress(attempted);
        subs.push(s);
    }
    let mut metrics = e2e_metrics(&runner.shape, &subs);
    let undisturbed = crate::stats::quantile(&setup_secs, crate::harness::UNDISTURBED);
    metrics.push(Metric::samples("setup_s", "s", &setup_secs).with_value(undisturbed));
    metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Relative extra time of the traced sub-runs over the untraced ones, on
/// the sum of their timed batches (same op counts on both sides).
pub fn trace_overhead(untraced: &[SubRun], traced: &[SubRun]) -> f64 {
    let t = |s: &[SubRun]| median(&s.iter().map(|r| r.timed_ns() as f64).collect::<Vec<_>>());
    let (u, tr) = (t(untraced), t(traced));
    (tr - u) / u
}

/// The traced pass: every per-layer metric. Short sub-runs alternate
/// untraced and traced at identical op counts (their difference is
/// `trace_overhead_share`); the last traced one is written out as a Chrome
/// trace, collapsed stacks and an exclusive-time breakdown under `out_dir`;
/// then the isolated per-layer microbenchmarks run.
pub fn run_traced(
    w: Workload,
    plan: &Plan,
    effort: crate::layers::Effort,
    out_dir: &std::path::Path,
    progress: &mut dyn FnMut(u64),
) -> Outcome {
    use crate::spans::{write_artifacts, Trace};
    let mut runner = Runner::new(w);
    let short = Plan {
        seconds: plan.seconds * 0.15,
        ..*plan
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for sub in 0..6 {
        let on = sub % 2 == 1;
        let s = runner.sub_run(&Plan { trace: on, ..short }, sub);
        attempted += s.attempted();
        failed += s.failed();
        progress(attempted);
        if on { &mut traced } else { &mut untraced }.push(s);
    }

    let mut metrics = crate::layers::run(effort);

    // Counts the workload's own layers showed from outside.
    let last = untraced.last().expect("three untraced sub-runs");
    for c in &last.counts {
        metrics.push(Metric::scalar(c.name, c.unit, c.value, c.exact));
    }
    if w == Workload::SvcSaturated {
        let us = crate::harness::train_batch_us(&untraced);
        metrics.push(Metric::samples("svc.batch_lat_us_p50", "us", &us));
    }
    if w == Workload::SimPaper {
        let secs: Vec<f64> = untraced
            .iter()
            .map(|s| s.loops[crate::harness::TRAIN].batch_ns.iter().sum::<u64>() as f64 / 1e9)
            .collect();
        metrics.push(Metric::samples("sim.sweep_host_s", "s", &secs));
    }

    // The trace itself.
    metrics.push(Metric::scalar(
        "trace_overhead_share",
        "ratio",
        trace_overhead(&untraced, &traced),
        false,
    ));
    let mut trace = Trace::default();
    for (track, spans) in traced.pop().expect("three traced sub-runs").spans {
        trace.add(track, spans);
    }
    let (probe, total) = trace.into_probe(w.name());
    match write_artifacts(out_dir, w.name(), &probe, total) {
        Ok(b) => {
            if b.exclusive_sum() != total {
                eprintln!(
                    "{}: exclusive times do not sum to the traced wall time",
                    w.name()
                );
                failed += 1;
            }
            for share in crate::spec::TRACE_SHARES {
                let ns: u64 = b
                    .phases
                    .iter()
                    .filter(|p| p.phase == share || (share == "op" && p.phase.starts_with("op.")))
                    .map(|p| p.exclusive.as_nanos())
                    .sum();
                metrics.push(Metric::scalar(
                    &format!("trace.{share}_share"),
                    "ratio",
                    ns as f64 / total.as_nanos() as f64,
                    false,
                ));
            }
        }
        Err(e) => {
            eprintln!(
                "{}: cannot write trace artifacts to {}: {e}",
                w.name(),
                out_dir.display()
            );
            failed += 1;
        }
    }

    // Every per-layer metric of the contract, in its order; a layer this
    // workload bypasses reports 0.
    let metrics = crate::spec::per_layer()
        .into_iter()
        .map(|l| {
            metrics
                .iter()
                .find(|m| m.name == l.name)
                .cloned()
                .unwrap_or_else(|| Metric::scalar(&l.name, l.unit, 0.0, true))
        })
        .collect();
    Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
    }
}
