//! perf_report — render the bench history into `report/`.
//!
//! Reads every `BENCH_*.json` in `--dir` (gate suites; files in other
//! schemas are listed as skipped, never fatal) and emits:
//!
//! * `index.md` — the report: history table, gate violations, figure and
//!   artifact links;
//! * paper-layout latency-vs-size figures for broadcast and allreduce
//!   with tuned crossover markers from the tuning table;
//! * a Table-I-style grouped bar chart (baseline vs newest bandwidths);
//! * one cross-PR trend chart per gated series, with the baseline's
//!   tolerance band shaded and gate violations marked;
//! * the latency figures' measured tables, as figure JSON
//!   (`bgp_tune::sweep::Figure::to_json`);
//! * collapsed-stack (`.folded`) exports of representative traced
//!   operations, directly loadable in inferno / speedscope.
//!
//! Output is deterministic: two consecutive runs are byte-identical.
//!
//! ```text
//! perf_report [--dir D] [--out D] [--table FILE] [--tol PCT] [--check]
//!   --dir    history directory to scan (default ".")
//!   --out    output directory (default "report")
//!   --table  tuning table JSON (default: the built-in table)
//!   --tol    tolerance band percent for trend charts (default: the
//!            gate's tolerance)
//!   --check  after writing, re-validate every emitted artifact: SVGs
//!            through the vendored XML well-formedness check, .folded
//!            files through the collapsed-stack format check, sweep
//!            JSONs by re-parsing each into the figure it was written
//!            from, index.md link targets
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::tune::{TuningTable, BUILTIN_TABLE_JSON};
use bgp_mpi::AllreduceAlgorithm;
use bgp_report::history::{History, HistoryPoint};
use bgp_report::plots::{self, TrendPoint};
use bgp_report::{flame, xml};
use bgp_tune::gate::{self, DEFAULT_TOLERANCE_PCT};
use bgp_tune::Figure;

struct Opts {
    dir: PathBuf,
    out: PathBuf,
    table: Option<PathBuf>,
    tol: f64,
    check: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        dir: PathBuf::from("."),
        out: PathBuf::from("report"),
        table: None,
        tol: DEFAULT_TOLERANCE_PCT,
        check: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path_arg = |name: &str| {
            it.next()
                .map(PathBuf::from)
                .ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--dir" => opts.dir = path_arg("--dir")?,
            "--out" => opts.out = path_arg("--out")?,
            "--table" => opts.table = Some(path_arg("--table")?),
            "--tol" => {
                opts.tol = it
                    .next()
                    .and_then(|v| gate::parse_tolerance(v))
                    .ok_or("--tol needs a finite, non-negative number")?
            }
            "--check" => opts.check = true,
            bad => return Err(format!("unknown flag {bad}")),
        }
    }
    Ok(opts)
}

fn fname(id: &str) -> String {
    id.replace('/', "_")
}

/// The trend label of a point: `label#seq`.
fn point_label(p: &HistoryPoint) -> String {
    format!("{}#{}", p.label, p.seq)
}

fn run(opts: &Opts) -> Result<(), String> {
    let history = History::load_dir(&opts.dir).map_err(|e| format!("scan {:?}: {e}", opts.dir))?;
    let baseline = history
        .points
        .iter()
        .find(|p| p.label == "baseline")
        .or(history.points.first())
        .ok_or("no gate reports found (need at least BENCH_baseline.json)")?;
    let scale = baseline.scale.clone();
    let newest = history
        .points
        .iter()
        .rev()
        .find(|p| p.scale == scale)
        .unwrap_or(baseline);
    let table_text = match &opts.table {
        Some(p) => fs::read_to_string(p).map_err(|e| format!("read {p:?}: {e}"))?,
        None => BUILTIN_TABLE_JSON.to_string(),
    };
    let table = TuningTable::parse(&table_text).map_err(|e| format!("tuning table: {e}"))?;
    fs::create_dir_all(&opts.out).map_err(|e| format!("mkdir {:?}: {e}", opts.out))?;
    let write = |name: &str, data: &str| -> Result<(), String> {
        fs::write(opts.out.join(name), data).map_err(|e| format!("write {name}: {e}"))
    };

    // 1. Paper-layout figures + their serialized sweeps. The figure shape
    // matches the small gate scale (64 nodes, quad mode).
    let cfg = MachineConfig::with_nodes(64, OpMode::Quad);
    let algs = bgp_tune::autotune::measured_algorithms(OpMode::Quad);
    let (svg, sweep) = plots::latency_figure(&cfg, &algs, &table);
    write("fig_bcast_latency.svg", &svg)?;
    let mut ar_algs = vec![AllreduceAlgorithm::RingCurrent];
    ar_algs.extend(bgp_tune::autotune::ar_candidates());
    let (svg, ar_sweep) = plots::latency_figure(&cfg, &ar_algs, &table);
    write("fig_allreduce_latency.svg", &svg)?;
    let sweeps = [
        ("sweep_bcast.json", sweep),
        ("sweep_allreduce.json", ar_sweep),
    ];
    for (name, fig) in &sweeps {
        write(name, &fig.to_json())?;
    }

    // 2. Table-I grouped bars (skipped when no bandwidth series overlap).
    let bars = plots::table1_bars(&baseline.report, &newest.report);
    if let Some(svg) = &bars {
        write("fig_table1_bars.svg", svg)?;
    }

    // 3. One trend chart per gated series at the baseline's scale.
    let ids = history.gated_ids(&scale);
    let mut trends: Vec<(String, String, usize)> = Vec::new(); // (id, file, n_violations)
    for id in &ids {
        let entry = baseline.report.entries.iter().find(|e| e.id == *id);
        let pts: Vec<TrendPoint> = history
            .series(id, &scale)
            .into_iter()
            .map(|(p, v)| TrendPoint {
                label: point_label(p),
                value: v,
                violation: p.report.violations.iter().any(|viol| viol.id == *id),
            })
            .collect();
        if pts.is_empty() {
            continue;
        }
        let n_viol = pts.iter().filter(|p| p.violation).count();
        let (unit, better, base) = match entry {
            Some(e) => (e.unit.clone(), e.better, Some(e.value)),
            None => ("".to_string(), bgp_tune::gate::Better::Lower, None),
        };
        let svg = plots::trend_chart(id, &unit, better, base, opts.tol, &pts);
        let file = format!("trend_{}.svg", fname(id));
        write(&file, &svg)?;
        trends.push((id.clone(), file, n_viol));
    }

    // 4. Flamegraph-ready collapsed-stack exports.
    let mut folded_files = Vec::new();
    for a in &flame::FOLDED_ARTIFACTS {
        let text = flame::folded_for(a.name, &cfg).expect("shipped artifact name");
        let file = format!("{}.folded", a.name);
        write(&file, &text)?;
        folded_files.push((file, a.describe));
    }

    // 5. index.md.
    let mut md = String::new();
    md.push_str("# Performance trajectory report\n\n");
    md.push_str(&format!(
        "Generated by `perf_report` from `{}` history files in `{}` \
         (scale `{scale}`, tolerance {}%).\n\n",
        history.points.len(),
        opts.dir.display(),
        bgp_sim::json::fmt_f64(opts.tol),
    ));
    md.push_str("## Bench history\n\n");
    md.push_str("| file | label | git sha | seq | scale | gated series | violations |\n");
    md.push_str("|---|---|---|---|---|---|---|\n");
    for p in &history.points {
        md.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} |\n",
            p.file,
            p.label,
            p.git_sha,
            p.seq,
            p.scale,
            p.report.entries.iter().filter(|e| e.gated).count(),
            p.report.violations.len(),
        ));
    }
    md.push('\n');
    let violating: Vec<&HistoryPoint> = history
        .points
        .iter()
        .filter(|p| !p.report.violations.is_empty())
        .collect();
    if !violating.is_empty() {
        md.push_str("## Gate violations\n\n");
        for p in violating {
            md.push_str(&format!("`{}`:\n\n", p.file));
            for v in &p.report.violations {
                md.push_str(&format!("- {}\n", v.one_line()));
            }
            md.push('\n');
        }
    }
    if !history.skipped.is_empty() {
        md.push_str("## Skipped files\n\n");
        for (f, why) in &history.skipped {
            md.push_str(&format!("- `{f}`: {why}\n"));
        }
        md.push('\n');
    }
    md.push_str("## Paper-layout figures\n\n");
    md.push_str(
        "Latency vs message size on the gate's shape, with the tuning \
         table's crossover boundaries marked:\n\n",
    );
    md.push_str("- ![bcast](fig_bcast_latency.svg) ([data](sweep_bcast.json))\n");
    md.push_str("- ![allreduce](fig_allreduce_latency.svg) ([data](sweep_allreduce.json))\n");
    if bars.is_some() {
        md.push_str("- ![table1](fig_table1_bars.svg)\n");
    }
    md.push('\n');
    md.push_str("## Trend charts (per gated series)\n\n");
    md.push_str(
        "Measured value across the bench history; shaded band is the \
         baseline tolerance zone, red crosses are gate violations.\n\n",
    );
    for (id, file, n_viol) in &trends {
        let suffix = match n_viol {
            0 => String::new(),
            n => format!(" — **{n} violation(s)**"),
        };
        md.push_str(&format!("- [{id}]({file}){suffix}\n"));
    }
    md.push('\n');
    md.push_str("## Flamegraph-ready traces\n\n");
    md.push_str(
        "Collapsed-stack exports (`op;alg;node<N>;phase <ns>` per line); \
         load with `inferno-flamegraph` or speedscope:\n\n",
    );
    for (file, describe) in &folded_files {
        md.push_str(&format!("- [{file}]({file}) — {describe}\n"));
    }
    write("index.md", &md)?;
    println!(
        "perf_report: wrote {} ({} history points, {} trend charts, {} folded traces)",
        opts.out.join("index.md").display(),
        history.points.len(),
        trends.len(),
        folded_files.len(),
    );

    if opts.check {
        check_output(&opts.out, &sweeps)?;
    }
    Ok(())
}

/// Validate everything in `out`: SVGs are well-formed XML, `.folded`
/// files follow the collapsed-stack format, each written sweep JSON
/// re-parses to the figure it was written from, and every relative link
/// in index.md resolves.
fn check_output(out: &Path, sweeps: &[(&str, Figure)]) -> Result<(), String> {
    let mut names: Vec<String> = fs::read_dir(out)
        .map_err(|e| format!("scan {}: {e}", out.display()))?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    let mut svgs = 0;
    let mut folded = 0;
    for name in &names {
        let text = fs::read_to_string(out.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        if name.ends_with(".svg") {
            xml::check_well_formed(&text).map_err(|e| format!("{name}: bad XML: {e}"))?;
            svgs += 1;
        } else if name.ends_with(".folded") {
            flame::check_folded(&text).map_err(|e| format!("{name}: bad folded: {e}"))?;
            folded += 1;
        }
    }
    for (name, fig) in sweeps {
        let text = fs::read_to_string(out.join(name)).map_err(|e| format!("read {name}: {e}"))?;
        if Figure::parse(&text).map_err(|e| format!("{name}: {e}"))? != *fig {
            return Err(format!("{name}: does not re-parse to the figure written"));
        }
    }
    if svgs < 4 {
        return Err(format!("expected at least 4 SVG figures, found {svgs}"));
    }
    if folded == 0 {
        return Err("missing artifacts: no folded traces".into());
    }
    // Every relative link target in index.md must exist.
    let index =
        fs::read_to_string(out.join("index.md")).map_err(|e| format!("read index.md: {e}"))?;
    let mut links = 0;
    for part in index.split('(').skip(1) {
        if let Some(target) = part.split(')').next() {
            if !target.contains('/')
                && (target.ends_with(".svg")
                    || target.ends_with(".json")
                    || target.ends_with(".folded"))
            {
                if !out.join(target).is_file() {
                    return Err(format!("index.md links to missing file {target}"));
                }
                links += 1;
            }
        }
    }
    println!(
        "perf_report check: OK ({svgs} SVGs well-formed, {folded} folded valid, \
         {} sweeps re-parse equal, {links} index links resolve)",
        sweeps.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perf_report: {e}\nusage: perf_report [--dir D] [--out D] [--table FILE] \
                 [--tol PCT] [--check]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf_report: {e}");
            ExitCode::FAILURE
        }
    }
}
