//! `bgp-benchmark` — the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! bgp-benchmark --workload W --seed N --seconds S --trace 0|1
//!     One workload in a child process under the watchdog. The last line
//!     of stdout is one JSON object: correct, attempted, failed, metrics
//!     (every end-to-end metric with --trace 0, every per-layer metric
//!     with --trace 1).
//! bgp-benchmark [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//!     All six workloads: prints every metric by name with unit, quartiles,
//!     tail percentile, n and pass/fail of output verification, and writes
//!     a results file for `compare`.
//! bgp-benchmark compare A.json B.json
//! bgp-benchmark spec          print BENCHMARK.json from the tables
//! bgp-benchmark --selfcheck   fast assertions on the benchmark itself
//! ```

mod gen;
mod harness;
mod layers;
mod report;
mod selfcheck;
mod spans;
mod spec;
mod stats;
mod watchdog;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use harness::{Metric, Plan};
use report::RunResult;
use watchdog::{ChildEnd, Dirs};
use workloads::Workload;

/// Parsed command line of the run modes.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    /// Internal: this process is the measured child.
    pub child: bool,
    /// Internal (`--selfcheck`): the per-layer suite at a tenth.
    pub fast: bool,
    /// Internal (`--selfcheck`): a child that never finishes.
    pub hang: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        out: None,
        child: false,
        fast: false,
        hang: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--child" => a.child = true,
            "--fast" => a.fast = true,
            "--hang" => a.hang = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

impl Args {
    fn child_argv(&self, w: Workload) -> Vec<String> {
        let mut v = vec![
            "--child".to_string(),
            "--workload".to_string(),
            w.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--seconds".to_string(),
            self.seconds.to_string(),
            "--trace".to_string(),
            u8::from(self.trace).to_string(),
        ];
        if self.fast {
            v.push("--fast".to_string());
        }
        if self.hang {
            v.push("--hang".to_string());
        }
        v
    }

    /// Hard deadline of one child. A run is sized to take about
    /// `--seconds`; three times that would do on a quiet machine, but this
    /// host loses a quarter of its cycles to hypervisor steal for minutes
    /// at a time (runs of 8 s were seen to take 27 s), and a slow run must
    /// not be reported as a hang. So: at least 150 s, under the driver's
    /// own limit of 180 s.
    fn deadline(&self) -> Duration {
        Duration::from_secs_f64((3.0 * self.seconds + 30.0).clamp(150.0, 170.0))
    }
}

/// The measured process: runs one pass of one workload and reports on
/// stdout in the watchdog's line protocol.
fn child_main(a: &Args, dirs: &Dirs) -> ExitCode {
    let w = a.workload.expect("the parent names the workload");
    let plan = Plan {
        seed: a.seed,
        seconds: a.seconds,
        trace: false,
    };
    let stdout = std::io::stdout();
    let say = |line: String| {
        let mut out = stdout.lock();
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say(format!(
        "{}{}",
        watchdog::PLAN,
        workloads::planned_ops(w, &plan)
    ));
    if a.hang {
        // Test hook: the class of bug the watchdog exists for.
        loop {
            std::thread::park();
        }
    }
    let mut progress = |done: u64| say(format!("{}{done}", watchdog::DONE));
    let outcome = if a.trace {
        let effort = if a.fast {
            layers::Effort::FAST
        } else {
            layers::Effort::FULL
        };
        workloads::run_traced(w, &plan, effort, &dirs.out, &mut progress)
    } else {
        workloads::run_e2e(w, &plan, &mut progress)
    };
    let result = RunResult {
        workload: w.name().to_string(),
        seed: a.seed,
        trace: a.trace,
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome.metrics,
    };
    say(format!("{}{}", watchdog::RESULT, result.to_json()));
    ExitCode::SUCCESS
}

/// Run one workload's child under the watchdog and turn however it ended
/// into a result: a child that died or hung yields `correct: false` with
/// its unfinished ops failed and every metric present (as 0).
pub fn run_watched(a: &Args, w: Workload, dirs: &Dirs) -> RunResult {
    let failed_result = |planned: u64, done: u64, why: String| {
        eprintln!(
            "{}: {why}; {} of {planned} planned ops did not finish",
            w.name(),
            planned.saturating_sub(done)
        );
        let names: Vec<(String, String)> = if a.trace {
            spec::per_layer()
                .into_iter()
                .map(|l| (l.name, l.unit.to_string()))
                .collect()
        } else {
            spec::E2E
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        RunResult {
            workload: w.name().to_string(),
            seed: a.seed,
            trace: a.trace,
            attempted: planned.max(1),
            failed: planned.saturating_sub(done).max(1),
            metrics: names
                .iter()
                .map(|(n, u)| Metric::scalar(n, u, 0.0, false))
                .collect(),
        }
    };
    match watchdog::run_child(&a.child_argv(w), a.deadline(), dirs) {
        Ok(ChildEnd::Result(json)) => bgp_sim::json::parse(&json)
            .and_then(|v| RunResult::from_json(&v))
            .unwrap_or_else(|e| failed_result(1, 0, format!("unreadable result ({e})"))),
        Ok(ChildEnd::Died {
            planned,
            done,
            status,
        }) => failed_result(
            planned,
            done,
            format!("child ended without a result ({status})"),
        ),
        Ok(ChildEnd::TimedOut { planned, done }) => failed_result(
            planned,
            done,
            format!(
                "killed by the watchdog after {:.0} s",
                a.deadline().as_secs_f64()
            ),
        ),
        Err(e) => failed_result(1, 0, format!("cannot start the child ({e})")),
    }
}

/// All six workloads: the table, and a results file for `compare`.
fn all_main(a: &Args, dirs: &Dirs) -> ExitCode {
    let mut results = Vec::new();
    let passes: &[bool] = if a.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        for w in workloads::ALL {
            let r = run_watched(&Args { trace, ..a.clone() }, w, dirs);
            print!("{}", report::table(&r));
            results.push(r);
        }
    }
    let path = a
        .out
        .clone()
        .unwrap_or_else(|| dirs.out.join(format!("results-seed{}.json", a.seed)));
    if let Err(e) = std::fs::write(&path, report::results_json(&results)) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    println!(
        "results written to {} — ops failed: {failed}",
        path.display()
    );
    if a.trace {
        println!(
            "trace artifacts (<workload>_trace.json, _folded.txt, _phases.json) in {}",
            dirs.out.display()
        );
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_main(paths: &[String]) -> ExitCode {
    let load = |p: &String| -> Result<Vec<RunResult>, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        report::parse_results(&text).map_err(|e| format!("{p}: {e}"))
    };
    let [a, b] = paths else {
        eprintln!("usage: bgp-benchmark compare A.json B.json");
        return ExitCode::from(2);
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (text, bad) = report::compare(&a, &b);
            print!("{text}");
            println!(
                "{}",
                if bad {
                    "compare: REGRESSION or MISMATCH"
                } else {
                    "compare: within bounds"
                }
            );
            ExitCode::from(u8::from(bad))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // A re-exec of this binary as a ProcCluster worker never returns.
    if bgp_smp::proc::maybe_worker() {
        return ExitCode::SUCCESS;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare_main(&argv[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let dirs = match Dirs::locate() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot prepare the run directories next to the binary: {e}");
            return ExitCode::from(2);
        }
    };
    if argv.first().map(String::as_str) == Some("--selfcheck") {
        return selfcheck::run(&dirs);
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nsee the top of benchmark/src/main.rs or benchmark/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if a.child {
        return child_main(&a, &dirs);
    }
    match a.workload {
        Some(w) => {
            let r = run_watched(&a, w, &dirs);
            eprint!("{}", report::table(&r));
            println!("{}", r.to_driver_json());
            ExitCode::SUCCESS
        }
        None => all_main(&a, &dirs),
    }
}
