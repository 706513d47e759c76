//! The run protocol shared by every workload: fixed op counts timed in
//! batches between synchronisation points, seeded verification on the
//! first op of every checked batch, sub-runs on freshly constructed
//! runtimes, and one order statistic over the sub-runs: the low decile of
//! every batch's time for the end-to-end metrics (see [`undisturbed_ns`]),
//! the median for per-layer diagnostics.

use crate::gen::{TrainMix, TrainOp};
use crate::spans::{now_ns, RawSpan, Spans};
use crate::spec::RUN_SECONDS;
use crate::stats::{median, quantile, quartiles, summarize};

/// The five timed phases of every workload, in execution order.
pub const BCAST_SMALL: usize = 0;
pub const BCAST_LARGE: usize = 1;
pub const AR_SMALL: usize = 2;
pub const AR_LARGE: usize = 3;
pub const TRAIN: usize = 4;

/// Span names of the per-op calls, by phase.
pub const OP_SPAN: [&str; 5] = [
    "op.bcast_small",
    "op.bcast_large",
    "op.allreduce_small",
    "op.allreduce_large",
    "op.train",
];

/// Message sizes and op counts of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Small / large broadcast payload in bytes.
    pub bcast: [usize; 2],
    /// Small / large allreduce length in doubles.
    pub allreduce: [usize; 2],
    /// Timed ops per phase per sub-run at `--seconds` = [`RUN_SECONDS`].
    pub ops: [usize; 5],
    /// Ops per timed batch, per phase (`Instant::now` is amortised over it).
    pub batch: [usize; 5],
    /// A batch is verified when its first op index is a multiple of this.
    pub check_every: [usize; 5],
    /// Size jitter of the mixed train.
    pub mix: TrainMix,
    /// Sub-runs, each on a freshly constructed runtime.
    pub sub_runs: usize,
    /// Cold construct → first verified op → teardown cycles for `setup_s`.
    pub setup_cycles: usize,
    /// Non-zero: the train is whole passes over a fixed list of this many
    /// ops (the simulator sweep), so its total work never depends on where
    /// a seeded order is cut.
    pub whole_passes: usize,
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// `--seconds`; op counts scale linearly with it ([`RUN_SECONDS`] = the
    /// table).
    pub seconds: f64,
    /// Record spans.
    pub trace: bool,
}

impl Plan {
    /// Key of the mixed train's seeded order, roots and sizes: one train
    /// per seed, the same in every sub-run, so that a batch position is the
    /// same work in each (see [`undisturbed_ns`]). Payload bytes still
    /// differ from sub-run to sub-run.
    pub fn train_key(&self) -> u64 {
        crate::gen::op_key(self.seed, 0, TRAIN, 0)
    }
}

impl Shape {
    /// Timed ops of `phase` under `plan`: the table count scaled by
    /// `seconds / RUN_SECONDS`, rounded up to whole batches, at least two
    /// batches.
    /// A fixed count, not a fixed duration, so count metrics repeat exactly.
    pub fn ops_for(&self, phase: usize, plan: &Plan) -> usize {
        let scale = plan.seconds / f64::from(RUN_SECONDS);
        if phase == TRAIN && self.whole_passes > 0 {
            return (scale.round().max(1.0) as usize) * self.whole_passes;
        }
        let b = self.batch[phase];
        let want = (self.ops[phase] as f64 * scale).ceil() as usize;
        want.div_ceil(b).max(2) * b
    }

    pub fn loop_spec(&self, phase: usize, plan: &Plan) -> LoopSpec {
        let ops = self.ops_for(phase, plan);
        let b = self.batch[phase];
        LoopSpec {
            phase,
            warm_batches: (ops / 10).div_ceil(b),
            batches: ops / b,
            batch: b,
            check_every: self.check_every[phase],
        }
    }

    /// Ops one sub-run issues (warm-up included): what `attempted` counts.
    pub fn ops_per_sub_run(&self, plan: &Plan) -> u64 {
        (0..5).map(|p| self.loop_spec(p, plan).total_ops()).sum()
    }

    /// Operation `i` of `phase` over `members` possible roots: the phase's
    /// fixed-size broadcast (rotating root) or allreduce, or the seeded
    /// train op under `train_key`.
    pub fn op(&self, phase: usize, i: usize, train_key: u64, members: usize) -> TrainOp {
        match phase {
            BCAST_SMALL | BCAST_LARGE => TrainOp::Bcast {
                root: i % members,
                len: self.bcast[phase - BCAST_SMALL],
            },
            AR_SMALL | AR_LARGE => TrainOp::Allreduce {
                count: self.allreduce[phase - AR_SMALL],
            },
            _ => crate::gen::train_op(train_key, i, members, self.mix),
        }
    }
}

/// One timed loop: `warm_batches` untimed-in-effect batches (10 % of the
/// ops; their timings are discarded), then `batches` timed ones.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    pub phase: usize,
    pub warm_batches: usize,
    pub batches: usize,
    pub batch: usize,
    pub check_every: usize,
}

impl LoopSpec {
    /// Ops the loop issues, warm-up included.
    pub fn total_ops(&self) -> u64 {
        ((self.warm_batches + self.batches) * self.batch) as u64
    }
}

/// What the loop asks of the workload.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Before the batch starting at op `i`, outside the timed region. When
    /// `verify`, write op `i`'s seeded input.
    Begin { i: usize, verify: bool },
    /// Issue op `i` and wait for it (timed). `false` = typed error.
    Op(usize),
    /// After the batch that started at op `i`, outside the timed region.
    /// When `verify`, compare against the seeded reference; `false` =
    /// mismatch.
    End { i: usize, verify: bool },
}

/// Result of one rank's loop.
#[derive(Debug, Clone, Default)]
pub struct LoopOut {
    /// Nanoseconds per timed batch.
    pub batch_ns: Vec<u64>,
    pub batch: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Run one timed loop on context `c`. `sync` aligns the SPMD callers before
/// each batch (a barrier; nothing for single-caller runtimes); `f` performs
/// the [`Step`]s. After a typed error the runtime may be unusable, so the
/// rest of the loop is counted as failed without being issued.
pub fn run_loop<C>(
    c: &mut C,
    sp: &mut Spans,
    spec: &LoopSpec,
    sync: &mut dyn FnMut(&mut C),
    f: &mut dyn FnMut(&mut C, Step) -> bool,
) -> LoopOut {
    let total_batches = spec.warm_batches + spec.batches;
    let mut out = LoopOut {
        batch_ns: Vec::with_capacity(spec.batches),
        batch: spec.batch,
        attempted: spec.total_ops(),
        failed: 0,
    };
    let op_span = OP_SPAN[spec.phase];
    for b in 0..total_batches {
        let i = b * spec.batch;
        // First and last batch are always verified.
        let verify = i.is_multiple_of(spec.check_every) || b + 1 == total_batches;
        sp.time("prepare", || f(c, Step::Begin { i, verify }));
        sp.time("barrier", || sync(c));
        let t0 = now_ns();
        let mut ok = true;
        for j in 0..spec.batch {
            ok &= sp.time(op_span, || f(c, Step::Op(i + j)));
        }
        let dt = now_ns() - t0;
        if !ok {
            out.failed += ((total_batches - b) * spec.batch) as u64;
            return out;
        }
        if !sp.time("verify", || f(c, Step::End { i, verify })) {
            out.failed += 1;
        }
        if b >= spec.warm_batches {
            out.batch_ns.push(dt);
        }
    }
    out
}

/// Merge the ranks' views of one loop: a collective is over when its last
/// rank returns, so a batch takes the maximum over ranks.
pub fn merge_ranks(per_rank: Vec<LoopOut>) -> LoopOut {
    let mut it = per_rank.into_iter();
    let mut acc = it.next().expect("at least one rank");
    for r in it {
        for (a, b) in acc.batch_ns.iter_mut().zip(&r.batch_ns) {
            *a = (*a).max(*b);
        }
        acc.failed += r.failed;
    }
    acc.failed = acc.failed.min(acc.attempted);
    acc
}

/// One sub-run: the five loops on one freshly constructed runtime.
#[derive(Default)]
pub struct SubRun {
    pub loops: Vec<LoopOut>,
    /// Spans by track, when traced.
    pub spans: Vec<(u32, Vec<RawSpan>)>,
    /// Layer counts of this workload, observed from outside.
    pub counts: Vec<Count>,
}

/// A workload-specific per-layer number read off a runtime's public
/// counters once the loops are done.
#[derive(Debug, Clone, Copy)]
pub struct Count {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Fixed by the op counts and sizes alone (repeats exactly).
    pub exact: bool,
}

impl Count {
    pub fn exact(name: &'static str, value: f64) -> Count {
        Count {
            name,
            unit: "count",
            value,
            exact: true,
        }
    }
    pub fn racy(name: &'static str, unit: &'static str, value: f64) -> Count {
        Count {
            name,
            unit,
            value,
            exact: false,
        }
    }
}

impl SubRun {
    /// A sub-run whose runtime could not be constructed: every planned op
    /// counts as attempted and failed.
    pub fn all_failed(shape: &Shape, plan: &Plan) -> SubRun {
        let loops = (0..5)
            .map(|p| {
                let s = shape.loop_spec(p, plan);
                let n = s.total_ops();
                LoopOut {
                    batch: s.batch,
                    attempted: n,
                    failed: n,
                    ..Default::default()
                }
            })
            .collect();
        SubRun {
            loops,
            ..Default::default()
        }
    }

    pub fn attempted(&self) -> u64 {
        self.loops.iter().map(|l| l.attempted).sum()
    }
    pub fn failed(&self) -> u64 {
        self.loops.iter().map(|l| l.failed).sum()
    }
    /// Sum of the timed batches of every loop: the wall time the traced
    /// and untraced passes are compared on.
    pub fn timed_ns(&self) -> u64 {
        self.loops.iter().flat_map(|l| &l.batch_ns).sum()
    }
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value)
    }
}

/// A reported number with the statistics the guide asks for.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The reported value: the median over sub-runs (or over samples), or
    /// the undisturbed figure of an end-to-end metric ([`undisturbed_ns`]).
    pub value: f64,
    /// Quartiles and median of the values `value` was taken over.
    pub q1: f64,
    pub p50: f64,
    pub q3: f64,
    /// High percentile of the pooled per-batch samples (see `stats`), in
    /// the metric's unit; `value` again for counts.
    pub hi: f64,
    pub hi_pct: f64,
    /// Samples behind `hi` / `value`.
    pub n: usize,
    /// Repeats exactly between runs of the same code (counts, simulated
    /// time); compared for equality, never against a bound.
    pub exact: bool,
}

impl Metric {
    /// A count or computed value with no distribution behind it.
    pub fn scalar(name: &str, unit: &str, value: f64, exact: bool) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            q1: value,
            p50: value,
            q3: value,
            hi: value,
            hi_pct: 50.0,
            n: 1,
            exact,
        }
    }

    /// A timing: `per_group` values (one per sub-run) give the median and
    /// quartiles, `pooled` per-batch samples give the tail percentile —
    /// the slow side, which is the low side of a rate (`higher_better`).
    pub fn timing(
        name: &str,
        unit: &str,
        per_group: &[f64],
        pooled: &[f64],
        higher_better: bool,
    ) -> Metric {
        let (q1, p50, q3) = quartiles(per_group);
        let sign = if higher_better { -1.0 } else { 1.0 };
        let signed: Vec<f64> = pooled.iter().map(|v| v * sign).collect();
        let s = summarize(&signed);
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: median(per_group),
            q1,
            p50,
            q3,
            hi: s.hi * sign,
            hi_pct: s.hi_pct,
            n: s.n,
            exact: false,
        }
    }

    /// A lower-is-better timing from one flat sample set.
    pub fn samples(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric::timing(name, unit, samples, samples, false)
    }

    /// A higher-is-better rate from one flat sample set.
    pub fn rates(name: &str, unit: &str, samples: &[f64]) -> Metric {
        Metric::timing(name, unit, samples, samples, true)
    }

    /// The same statistics around another reported value (an end-to-end
    /// metric's undisturbed figure, see [`undisturbed_ns`]).
    pub fn with_value(mut self, value: f64) -> Metric {
        self.value = value;
        self
    }
}

/// Per-op microseconds of every timed batch of `phase`.
fn lat_us(l: &LoopOut) -> Vec<f64> {
    l.batch_ns
        .iter()
        .map(|&ns| ns as f64 / l.batch as f64 / 1e3)
        .collect()
}

/// The quantile of a time that stands for "undisturbed": the low decile.
pub const UNDISTURBED: f64 = 0.10;

/// Nanoseconds the timed batches of `phase` take when nothing disturbs
/// them: every batch position at the low decile of its times over the
/// sub-runs, summed over the positions. Position `j` is the same work in
/// every sub-run (the fixed-size phases repeat one op; the train's seeded
/// order is the same in each; the simulator's sweep is put back into its
/// canonical order).
///
/// Why not the median. What disturbs a run on a shared host only ever slows
/// it — a neighbour on the sibling hyperthread or in the shared cache, a
/// stolen vCPU — and it comes in bursts of 0.1–2 s that take 20–50 % off
/// everything inside them. The samples of one run therefore fall into two
/// groups, the disturbed share drifts between a third and three quarters
/// over minutes, and the median over sub-runs jumps from one group to the
/// other between identical runs: 32–46 % interquartile spread on the
/// single-threaded simulator in the driver's check, 52 % in a soak here.
/// The fast group is what the program does on its own, and the low decile
/// stays inside it until nine tenths of a run are disturbed. It is not the
/// minimum: two vCPUs that the host now and then puts on one core exchange
/// cache lines two to three times faster, and the minimum follows those few
/// sub-runs (53–73 % spread on `intra_node`). Taken per position, not per
/// sub-run, because a burst is shorter than most phases: a sub-run's phase
/// is seldom clean from end to end, a given batch often is.
pub fn undisturbed_ns(subs: &[SubRun], phase: usize) -> f64 {
    let positions = subs
        .iter()
        .map(|s| s.loops[phase].batch_ns.len())
        .max()
        .unwrap_or(0);
    (0..positions)
        .map(|j| {
            let times: Vec<f64> = subs
                .iter()
                .filter_map(|s| s.loops[phase].batch_ns.get(j))
                .map(|&ns| ns as f64)
                .collect();
            quantile(&times, UNDISTURBED)
        })
        .sum()
}

/// The five throughput/latency end-to-end metrics from the sub-runs: the
/// value is the undisturbed figure; the quartiles and median are of the
/// sub-runs' own values (median batch of a fixed-size phase, whole train),
/// the tail percentile of the pooled batches. `setup_s` is measured
/// separately (see `workloads::run_e2e`).
pub fn e2e_metrics(shape: &Shape, subs: &[SubRun]) -> Vec<Metric> {
    // Per-op microseconds of `phase`, undisturbed.
    let op_us = |phase: usize| {
        let ops = subs
            .iter()
            .map(|s| s.loops[phase].batch_ns.len() * s.loops[phase].batch)
            .max()
            .unwrap_or(0);
        undisturbed_ns(subs, phase) / ops as f64 / 1e3
    };
    let mut out = Vec::new();
    for (phase, name) in [
        (BCAST_SMALL, "bcast_small_lat_us"),
        (AR_SMALL, "allreduce_small_lat_us"),
    ] {
        let per_sub: Vec<f64> = subs
            .iter()
            .map(|s| median(&lat_us(&s.loops[phase])))
            .collect();
        let pooled: Vec<f64> = subs.iter().flat_map(|s| lat_us(&s.loops[phase])).collect();
        out.push(Metric::timing(name, "us", &per_sub, &pooled, false).with_value(op_us(phase)));
    }
    // Bandwidth of the large ops: payload bytes over the op time (bytes
    // per microsecond is MB/s with 1 MB = 10^6 B).
    for (phase, name, bytes) in [
        (BCAST_LARGE, "bcast_large_bw_MBps", shape.bcast[1]),
        (AR_LARGE, "allreduce_large_bw_MBps", shape.allreduce[1] * 8),
    ] {
        let bw =
            |l: &LoopOut| -> Vec<f64> { lat_us(l).iter().map(|us| bytes as f64 / us).collect() };
        let per_sub: Vec<f64> = subs.iter().map(|s| median(&bw(&s.loops[phase]))).collect();
        let pooled: Vec<f64> = subs.iter().flat_map(|s| bw(&s.loops[phase])).collect();
        out.push(
            Metric::timing(name, "MB/s", &per_sub, &pooled, true)
                .with_value(bytes as f64 / op_us(phase)),
        );
    }
    // Throughput of the mixed train: completed ops over the wall time of
    // its timed batches.
    let rate = |l: &LoopOut| {
        (l.batch_ns.len() * l.batch) as f64 / (l.batch_ns.iter().sum::<u64>() as f64 / 1e9)
    };
    let per_sub: Vec<f64> = subs.iter().map(|s| rate(&s.loops[TRAIN])).collect();
    let pooled: Vec<f64> = subs
        .iter()
        .flat_map(|s| {
            let l = &s.loops[TRAIN];
            l.batch_ns
                .iter()
                .map(|&ns| l.batch as f64 / (ns as f64 / 1e9))
        })
        .collect();
    out.push(
        Metric::timing("ops_per_s", "ops/s", &per_sub, &pooled, true)
            .with_value(1e6 / op_us(TRAIN)),
    );
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Median microseconds of the train's 32-op batches (the service's
/// submit-32 → all-waited time), pooled over sub-runs.
pub fn train_batch_us(subs: &[SubRun]) -> Vec<f64> {
    subs.iter()
        .flat_map(|s| s.loops[TRAIN].batch_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect()
}
