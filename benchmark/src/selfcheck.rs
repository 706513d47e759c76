//! `--selfcheck`: fast assertions on the benchmark itself — the tables fit
//! the driver's limits, the layer-bypass counts that make the workloads
//! discriminating hold, simulated numbers repeat exactly, every timing
//! carries its statistics, and the watchdog kills a hung child.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::report::RunResult;
use crate::watchdog::{ChildEnd, Dirs};
use crate::workloads::{Workload, ALL};
use crate::{run_watched, spec, Args};

struct Checks {
    failed: usize,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        println!("  [{}] {what}", if ok { " ok " } else { "FAIL" });
        self.failed += usize::from(!ok);
    }
}

fn segment_files(dirs: &Dirs) -> usize {
    std::fs::read_dir(&dirs.shm).map_or(0, |d| d.flatten().count())
}

pub fn run(dirs: &Dirs) -> ExitCode {
    let t0 = Instant::now();
    let mut c = Checks { failed: 0 };
    let base = Args {
        workload: None,
        seed: 1,
        seconds: 1.0,
        trace: true,
        out: None,
        child: false,
        fast: true,
        hang: false,
    };

    println!("tables");
    let bad = spec::violations();
    for b in &bad {
        println!("    {b}");
    }
    c.check(
        bad.is_empty(),
        "names, units, bounds and the 8 / 16 / 128 limits",
    );
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => c.check(
            text == spec::benchmark_json(),
            "BENCHMARK.json in the working directory matches the tables",
        ),
        Err(_) => println!("  [skip] no BENCHMARK.json in the working directory"),
    }

    // Traced pass of every workload at fast op counts.
    let mut traced: Vec<RunResult> = Vec::new();
    for w in ALL {
        println!("{} (traced, fast)", w.name());
        let r = run_watched(&base, w, dirs);
        let v = |name: &str| r.get(name).map_or(f64::NAN, |m| m.value);
        c.check(r.failed == 0 && r.attempted > 0, "every op verified");
        c.check(
            spec::per_layer().iter().all(|l| r.get(&l.name).is_some()),
            "every per-layer metric is reported",
        );
        c.check(
            r.metrics
                .iter()
                .all(|m| m.n >= 1 && m.hi.is_finite() && m.q1 <= m.q3 && m.hi_pct >= 50.0),
            "every timing carries p50, a tail percentile and n",
        );
        let uses_fabric = matches!(w, Workload::Cluster2Node | Workload::SchedTrain);
        c.check(
            (v("smp.transport.chunks_sent") > 0.0) == uses_fabric,
            "smp.transport.chunks_sent is 0 exactly where the fabric is bypassed",
        );
        c.check(
            (v("smp.proc.chunks_sent") > 0.0) == (w == Workload::Xproc2Node),
            "smp.proc.chunks_sent is 0 outside xproc_2node",
        );
        c.check(
            (v("sched.server.batches") > 0.0) == (w == Workload::SvcSaturated),
            "sched.server.batches is 0 outside svc_saturated",
        );
        c.check(
            v("sched.engine.stash_evicted") == 0.0,
            "no engine chunk was evicted",
        );
        c.check(segment_files(dirs) == 0, "no segment file is left behind");
        c.check(
            ["trace", "folded", "phases"].iter().all(|kind| {
                let ext = if *kind == "folded" { "txt" } else { "json" };
                dirs.out
                    .join(format!("{}_{kind}.{ext}", w.name()))
                    .is_file()
            }),
            "Chrome trace, collapsed stacks and breakdown were written",
        );
        let shares: f64 = spec::TRACE_SHARES
            .iter()
            .map(|s| v(&format!("trace.{s}_share")))
            .sum();
        c.check(
            (shares - 1.0).abs() < 1e-6,
            "exclusive span times sum to the traced wall time",
        );
        traced.push(r);
    }

    println!("simulated numbers");
    // Simulated time and rates carry a `sim_` unit; with the policy check
    // they are the numbers that must never move under a host-side change.
    let exact = |r: &RunResult| -> Vec<(String, f64)> {
        r.metrics
            .iter()
            .filter(|m| m.unit.starts_with("sim_") || m.name == "tune.selected_alg_stable")
            .map(|m| (m.name.clone(), m.value))
            .collect()
    };
    let first = exact(&traced[0]);
    c.check(
        first.len() >= 20 && first.iter().any(|(_, v)| *v > 0.0),
        "are reported",
    );
    c.check(
        traced.iter().all(|r| exact(r) == first),
        "identical across six processes (every workload's traced pass)",
    );
    let other_seed = run_watched(
        &Args {
            seed: 2,
            ..base.clone()
        },
        Workload::SimPaper,
        dirs,
    );
    c.check(exact(&other_seed) == first, "identical across two seeds");
    c.check(
        traced[0]
            .get("tune.selected_alg_stable")
            .is_some_and(|m| m.value == 1.0),
        "the algorithms *_auto picks equal the embedded table's, and phase times sum to the total",
    );

    println!("untraced pass");
    let r = run_watched(
        &Args {
            trace: false,
            seconds: 0.5,
            ..base.clone()
        },
        Workload::IntraNode,
        dirs,
    );
    c.check(r.failed == 0, "every op verified");
    c.check(
        spec::E2E.iter().all(|m| {
            r.get(m.name)
                .is_some_and(|x| x.value > 0.0 && x.unit == m.unit)
        }),
        "every end-to-end metric is reported, non-zero, in its unit",
    );

    println!("watchdog");
    let hung = Args {
        hang: true,
        trace: false,
        ..base.clone()
    };
    let t = Instant::now();
    let end = crate::watchdog::run_child(
        &hung.child_argv(Workload::Xproc2Node),
        Duration::from_secs(2),
        dirs,
    );
    c.check(
        matches!(end, Ok(ChildEnd::TimedOut { planned, done: 0 }) if planned > 0),
        "a hung child is killed at its deadline with its planned ops unfinished",
    );
    c.check(
        t.elapsed() < Duration::from_secs(10),
        "within seconds of the deadline",
    );

    println!(
        "selfcheck: {} in {:.1} s",
        if c.failed == 0 {
            "all checks passed".to_string()
        } else {
            format!("{} checks FAILED", c.failed)
        },
        t0.elapsed().as_secs_f64()
    );
    ExitCode::from(u8::from(c.failed > 0))
}
