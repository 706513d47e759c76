//! The performance-regression gate.
//!
//! ```text
//! bench_gate --small --label baseline        # refresh BENCH_baseline.json
//! bench_gate --small --check                 # compare vs BENCH_baseline.json, exit 1 on regression
//! bench_gate --selftest                      # prove the gate fires on an injected 20% slowdown
//! ```
//!
//! Flags: `--small` (64 nodes, the deterministic CI shape; default is the
//! paper's 2048), `--label <name>` (output `BENCH_<name>.json`, default
//! `current`), `--baseline <path>`, `--tol <pct>` (finite and
//! non-negative; default 10), `--check`, `--selftest`, `--no-write`.
//!
//! Simulated entries are bit-deterministic, so any delta against the
//! committed baseline is a real behavior change, not noise; the three host
//! ratios (`transport/`, `reduce/`, `proc/`) are gated against hand-set
//! floors. Wall-clock numbers of the real runtimes come from `benchmark/`.

use std::process::ExitCode;

use bgp_bench::Scale;
use bgp_tune::gate;

fn main() -> ExitCode {
    let mut scale = Scale::Paper;
    let mut label = "current".to_string();
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut tol = gate::DEFAULT_TOLERANCE_PCT;
    let mut check = false;
    let mut selftest = false;
    let mut write = true;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--small" => scale = Scale::Small,
            "--check" => check = true,
            "--selftest" => selftest = true,
            "--no-write" => write = false,
            "--label" | "--baseline" | "--tol" => {
                let Some(v) = args.next() else {
                    eprintln!("{a} needs a value");
                    return ExitCode::FAILURE;
                };
                match a.as_str() {
                    "--label" => label = v,
                    "--baseline" => baseline_path = v,
                    _ => match gate::parse_tolerance(&v) {
                        Some(t) => tol = t,
                        None => {
                            eprintln!("bad tolerance {v:?} (a finite, non-negative percent)");
                            return ExitCode::FAILURE;
                        }
                    },
                }
            }
            other => {
                eprintln!("unknown flag {other}; see the doc comment in bench_gate.rs for usage");
                return ExitCode::FAILURE;
            }
        }
    }

    if selftest {
        return run_selftest(scale);
    }

    let mut report = gate::run_suite(scale);
    report.label = label.clone();
    // Provenance stamp (label, BGP_GIT_SHA, monotonic seq over the files
    // already in cwd) so the report subsystem can order history without
    // mtimes. Stamped before the first write so even a run that fails the
    // comparison leaves an ordered artifact.
    gate::stamp_meta(&mut report, std::path::Path::new("."));
    let path = format!("BENCH_{label}.json");
    if write {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path} ({} entries)", report.entries.len());
    }

    if !check {
        print!("{}", gate::compare(&report, &report, tol).render());
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match gate::GateReport::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bad baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if baseline.scale != report.scale {
        eprintln!(
            "baseline scale {:?} does not match current {:?}; regenerate with --label baseline",
            baseline.scale, report.scale
        );
        return ExitCode::FAILURE;
    }
    let outcome = gate::compare(&report, &baseline, tol);
    print!("{}", outcome.render());
    // Embed the comparison's violations into the written artifact so
    // `perf_report` can mark the offending points on trend charts.
    report.violations = outcome.violations();
    if write && !report.violations.is_empty() {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("cannot rewrite {path} with violations: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prove the gate can fail: an injected 20% slowdown across the suite must
/// be flagged, and the unmodified suite must pass against itself.
fn run_selftest(scale: Scale) -> ExitCode {
    let base = gate::run_suite(scale);
    let clean = gate::compare(&base, &base, gate::DEFAULT_TOLERANCE_PCT);
    if !clean.passed() {
        eprintln!(
            "selftest: a report failed against itself\n{}",
            clean.render()
        );
        return ExitCode::FAILURE;
    }
    let mut slow = base.clone();
    gate::inject_slowdown(&mut slow, 20.0);
    let outcome = gate::compare(&slow, &base, gate::DEFAULT_TOLERANCE_PCT);
    if outcome.passed() {
        eprintln!(
            "selftest: injected 20% slowdown was NOT flagged\n{}",
            outcome.render()
        );
        return ExitCode::FAILURE;
    }
    eprintln!(
        "selftest ok: injected 20% slowdown flagged ({} regressions), clean run passes",
        outcome.failures()
    );
    ExitCode::SUCCESS
}
