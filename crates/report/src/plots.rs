//! Plot generators: the paper-layout figures and the cross-PR trend
//! charts.
//!
//! The latency-vs-size figures reproduce the layout of the paper's
//! broadcast/allreduce figures (log₂ size axis labeled `64 … 4M`, log₂
//! latency axis, one line per algorithm path) and overlay the *tuned
//! crossovers*: dashed vertical markers at the tuning table's region
//! boundaries, so a reader can see exactly where the table switches
//! algorithms relative to the measured curves.
//!
//! Trend charts plot one gated series across the bench history, with the
//! baseline's tolerance band shaded and gate violations marked.

use bgp_machine::MachineConfig;
use bgp_mpi::tune::{Region, Tunable, TuningTable};
use bgp_tune::gate::{Better, GateReport};
use bgp_tune::sweep::{fmt_size, measure, pow2_sizes, Figure};

use crate::svg::{BarChart, BarGroup, LineChart, PointMark, ScaleKind, Series, VMark};

/// The size grid of the paper-layout figures: 64 B … 4 MiB.
pub fn paper_sizes() -> Vec<u64> {
    pow2_sizes(64, 4 << 20)
}

/// Dashed markers at the boundaries of a tuned region list.
fn crossover_marks<A: Tunable>(regions: &[Region<A>]) -> Vec<VMark> {
    regions
        .windows(2)
        .filter_map(|w| {
            w[0].upto.map(|b| VMark {
                x: b as f64,
                label: format!(
                    "tuned: {}>{}: {}",
                    fmt_size(b),
                    w[0].alg.id(),
                    w[1].alg.id()
                ),
            })
        })
        .collect()
}

/// The latency-vs-size figure of one operation for `cfg`, sweeping `algs`
/// over [`paper_sizes`], with tuned crossover markers from `table`.
/// Returns `(svg, sweep)` so the caller can also serialize the sweep.
pub fn latency_figure<A: Tunable>(
    cfg: &MachineConfig,
    algs: &[A],
    table: &TuningTable,
) -> (String, Figure) {
    let sweep = measure(cfg, algs, &paper_sizes());
    let mut chart = LineChart::new(&sweep.title, "message size (bytes)", "latency (us, log2)");
    chart.x_kind = ScaleKind::Log2;
    chart.y_kind = ScaleKind::Log2;
    chart.x_bytes = true;
    chart.vmarks = table
        .entry_for(cfg)
        .map(|e| crossover_marks(A::regions(e)))
        .unwrap_or_default();
    for (i, name) in sweep.series.iter().enumerate() {
        chart.series.push(Series {
            name: name.clone(),
            points: sweep
                .rows
                .iter()
                .map(|r| (r.x as f64, r.values[i]))
                .collect(),
        });
    }
    (chart.render(), sweep)
}

/// The Table-I-style grouped bars: every bandwidth series (`table1/*`,
/// `fig7/*`, `fig10/*`, `rs/*`, `a2a/*`) of `newest` next to `baseline`.
/// `None` when the two reports share no bandwidth series.
pub fn table1_bars(baseline: &GateReport, newest: &GateReport) -> Option<String> {
    let mut groups = Vec::new();
    for e in baseline.entries.iter().filter(|e| e.unit == "MB/s") {
        if let Some(cur) = newest.entries.iter().find(|c| c.id == e.id) {
            groups.push(BarGroup {
                // Strip the figure prefix; bar labels need to stay short.
                label: e
                    .id
                    .rsplit_once('/')
                    .map(|(_, t)| t)
                    .unwrap_or(&e.id)
                    .to_string(),
                values: vec![e.value, cur.value],
            });
        }
    }
    if groups.is_empty() {
        return None;
    }
    let chart = BarChart {
        title: "Intra-node path bandwidth: baseline vs newest (Table I layout)".to_string(),
        y_label: "bandwidth (MB/s)".to_string(),
        series: vec![
            format!("baseline ({})", baseline.label),
            format!("newest ({})", newest.label),
        ],
        groups,
    };
    Some(chart.render())
}

/// One point on a trend chart.
#[derive(Debug, Clone)]
pub struct TrendPoint {
    /// X tick label (report label, plus seq when stamped).
    pub label: String,
    pub value: f64,
    /// Whether this point's report recorded a gate violation for the
    /// series being charted.
    pub violation: bool,
}

/// The cross-PR trend chart of one gated series: measured values across
/// the history, the baseline's tolerance band shaded, violations marked.
pub fn trend_chart(
    id: &str,
    unit: &str,
    better: Better,
    baseline: Option<f64>,
    tolerance_pct: f64,
    points: &[TrendPoint],
) -> String {
    let mut chart = LineChart::new(
        &format!("{id} across bench history"),
        "report (trajectory order)",
        &format!("{id} ({unit})"),
    );
    chart.series.push(Series {
        name: "measured".to_string(),
        points: points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64, p.value))
            .collect(),
    });
    chart.x_tick_labels = points
        .iter()
        .enumerate()
        .map(|(i, p)| (i as f64, p.label.clone()))
        .collect();
    if let Some(base) = baseline {
        // The band is the gate's tolerance zone around the baseline; the
        // gated direction decides which edge is the hard limit, but the
        // symmetric band is what "within tolerance" means visually.
        let tol = tolerance_pct / 100.0;
        chart.band = Some((base * (1.0 - tol), base * (1.0 + tol)));
        let _ = better; // direction is encoded in the violation marks
    }
    chart.marks = points
        .iter()
        .enumerate()
        .filter(|(_, p)| p.violation)
        .map(|(i, p)| PointMark {
            x: i as f64,
            y: p.value,
            label: "gate violation".to_string(),
        })
        .collect();
    chart.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;
    use bgp_mpi::tune::BUILTIN_TABLE_JSON;
    use bgp_mpi::BcastAlgorithm;
    use bgp_tune::gate::{GateEntry, GateReport};

    fn table() -> TuningTable {
        TuningTable::parse(BUILTIN_TABLE_JSON).unwrap()
    }

    #[test]
    fn bcast_figure_has_crossover_marks_and_is_deterministic() {
        let cfg = MachineConfig::with_nodes(64, OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let t = table();
        let (svg, sweep) = latency_figure(&cfg, &algs, &t);
        assert!(svg.contains("tuned:"), "crossover markers present");
        assert!(svg.contains("tree_shmem"));
        assert_eq!(
            sweep.rows.iter().map(|r| r.x).collect::<Vec<_>>(),
            paper_sizes()
        );
        let (svg2, _) = latency_figure(&cfg, &algs, &t);
        assert_eq!(svg, svg2);
        crate::xml::check_well_formed(&svg).unwrap();
    }

    #[test]
    fn allreduce_figure_marks_the_node_aware_crossover() {
        let cfg = MachineConfig::with_nodes(64, OpMode::Quad);
        let algs = bgp_tune::autotune::ar_candidates();
        let (svg, _) = latency_figure(&cfg, &algs, &table());
        assert!(svg.contains("node_aware_rsag"));
        crate::xml::check_well_formed(&svg).unwrap();
    }

    #[test]
    fn trend_chart_marks_violations_and_bands_the_baseline() {
        let pts = vec![
            TrendPoint {
                label: "baseline".into(),
                value: 100.0,
                violation: false,
            },
            TrendPoint {
                label: "ci#1".into(),
                value: 104.0,
                violation: false,
            },
            TrendPoint {
                label: "ci#2".into(),
                value: 131.0,
                violation: true,
            },
        ];
        let svg = trend_chart("fig6/x", "us", Better::Lower, Some(100.0), 10.0, &pts);
        assert!(svg.contains("gate violation"));
        assert!(svg.contains("fig6/x across bench history"));
        crate::xml::check_well_formed(&svg).unwrap();
    }

    #[test]
    fn table1_bars_pair_baseline_with_newest() {
        let entry = |id: &str, unit: &str, v: f64| GateEntry {
            id: id.into(),
            unit: unit.into(),
            better: Better::Higher,
            gated: true,
            value: v,
        };
        let base = GateReport {
            label: "baseline".into(),
            scale: "small".into(),
            meta: None,
            violations: Vec::new(),
            entries: vec![
                entry("table1/shmem", "MB/s", 800.0),
                entry("fig6/x", "us", 9.0),
            ],
        };
        let mut newest = base.clone();
        newest.label = "ci".into();
        newest.entries[0].value = 820.0;
        let svg = table1_bars(&base, &newest).unwrap();
        assert!(svg.contains("shmem"));
        crate::xml::check_well_formed(&svg).unwrap();
        // No shared bandwidth series -> no chart.
        newest.entries.clear();
        assert!(table1_bars(&base, &newest).is_none());
    }
}
