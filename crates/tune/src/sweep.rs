//! The one size × series table, and the sweep engine that fills it.
//!
//! [`Figure`] is the table model of the tool crates: every regenerated
//! figure of the paper (`bgp-bench`), every latency sweep the autotuner
//! derives its crossovers from, and the grids behind `bgp-report`'s
//! latency plots. [`Figure::to_json`] writes one and [`Figure::parse`]
//! reads it back.
//!
//! Everything in this crate (and the `crossover` exhibit in `bgp-bench`)
//! measures through [`measure`] so that autotuning, crossover reporting,
//! and the report's figures all observe the *same* protocol: one `Mpi` per
//! swept configuration, a quiet machine per point (each operation resets
//! the simulated machine — the Figure 5 microbenchmark's leading barrier),
//! and sim-time microseconds as the unit. Broadcast and allreduce sweep
//! through the same code, generic over [`Tunable`].

use std::fmt;

use bgp_machine::MachineConfig;
use bgp_mpi::tune::{SelectionPolicy, Tunable};
use bgp_mpi::Mpi;
use bgp_sim::json::{self, Json};
use bgp_sim::SimTime;

/// Experiment scale: the machine every figure, exhibit and gate suite is
/// measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Two racks: 2048 nodes / 8192 quad-mode ranks (the paper's system).
    Paper,
    /// 64 nodes (4x4x4) for fast runs and the deterministic CI gate.
    Small,
}

impl Scale {
    /// Nodes in the partition at this scale.
    pub fn nodes(self) -> u32 {
        match self {
            Scale::Paper => 2048,
            Scale::Small => 64,
        }
    }

    /// The scale's name in gate reports (`paper` / `small`).
    pub fn id(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }

    /// Parse from argv: `--small` selects [`Scale::Small`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--small") {
            Scale::Small
        } else {
            Scale::Paper
        }
    }
}

/// Power-of-two sizes from `from` to `to` inclusive.
pub fn pow2_sizes(from: u64, to: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut s = from.max(1);
    while s <= to {
        v.push(s);
        s *= 2;
    }
    v
}

/// Bandwidth in MB/s of moving `bytes` in `t`.
pub fn mbps(bytes: u64, t: SimTime) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// Format a byte count like the paper's axes (64, 1K, 64K, 4M).
pub fn fmt_size(bytes: u64) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// One x-position of a figure (a message size) with one value per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Message size in bytes (or doubles for Table I).
    pub x: u64,
    /// One value per series, aligned with [`Figure::series`].
    pub values: Vec<f64>,
}

/// A regenerated figure or table, or a measured sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Identifier ("fig6", "table1", "sweep_bcast", …).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Meaning of `Row::x`.
    pub xlabel: String,
    /// Meaning of the values.
    pub ylabel: String,
    /// Series names, in `Row::values` order.
    pub series: Vec<String>,
    /// The sweep.
    pub rows: Vec<Row>,
    /// Paper anchor points ("paper: 5.83 us at 8192 procs", …) printed
    /// under the table for eyeball comparison.
    pub paper_anchors: Vec<String>,
}

/// Why [`Figure::parse`] rejected a document.
#[derive(Debug, Clone, PartialEq)]
pub enum FigureError {
    /// The text is not JSON.
    NotJson(String),
    /// The named field (`series`, `rows[3].x`, …) is missing or mistyped.
    BadField(String),
    /// The named row's values (`rows[3].values`) do not match the series
    /// count.
    Ragged(String),
}

impl fmt::Display for FigureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigureError::NotJson(e) => write!(f, "not JSON: {e}"),
            FigureError::BadField(field) => write!(f, "missing or mistyped field {field}"),
            FigureError::Ragged(field) => write!(f, "{field} does not match the series count"),
        }
    }
}

impl Figure {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("   ({} vs {})\n", self.ylabel, self.xlabel));
        let w = 28usize;
        out.push_str(&format!("{:>10}", self.xlabel));
        for s in &self.series {
            out.push_str(&format!("{s:>w$}"));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&format!("{:>10}", fmt_size(row.x)));
            for v in &row.values {
                out.push_str(&format!("{v:>w$.2}"));
            }
            out.push('\n');
        }
        if !self.paper_anchors.is_empty() {
            out.push_str("-- paper anchors --\n");
            for a in &self.paper_anchors {
                out.push_str(&format!("  * {a}\n"));
            }
        }
        out
    }

    /// Print the table to stdout (binaries call this).
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// JSON serialization for downstream plotting; [`Figure::parse`] is
    /// its inverse.
    pub fn to_json(&self) -> String {
        let strings = |items: &[String]| -> String {
            items
                .iter()
                .map(|s| json::escape(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json::escape(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json::escape(&self.title)));
        out.push_str(&format!("  \"xlabel\": {},\n", json::escape(&self.xlabel)));
        out.push_str(&format!("  \"ylabel\": {},\n", json::escape(&self.ylabel)));
        out.push_str(&format!("  \"series\": [{}],\n", strings(&self.series)));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let vals = row
                .values
                .iter()
                .map(|&v| json::fmt_f64(v))
                .collect::<Vec<_>>();
            out.push_str(&format!(
                "    {{\"x\": {}, \"values\": [{}]}}{}\n",
                row.x,
                vals.join(", "),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"paper_anchors\": [{}]\n",
            strings(&self.paper_anchors)
        ));
        out.push('}');
        out
    }

    /// Parse a document written by [`Figure::to_json`]. A missing or
    /// mistyped field, or a row whose values do not line up with the
    /// series, is a [`FigureError`] naming that field.
    pub fn parse(text: &str) -> Result<Figure, FigureError> {
        let doc = json::parse(text).map_err(FigureError::NotJson)?;
        let string = |v: Option<&Json>, field: String| {
            v.and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(FigureError::BadField(field))
        };
        let strings = |key: &str| -> Result<Vec<String>, FigureError> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| FigureError::BadField(key.to_string()))?
                .iter()
                .enumerate()
                .map(|(i, s)| string(Some(s), format!("{key}[{i}]")))
                .collect()
        };
        let series = strings("series")?;
        let rows = doc
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| FigureError::BadField("rows".into()))?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let x = row
                    .get("x")
                    .and_then(Json::as_f64)
                    .filter(|x| x.fract() == 0.0 && *x >= 0.0)
                    .ok_or_else(|| FigureError::BadField(format!("rows[{i}].x")))?;
                let values = row
                    .get("values")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| FigureError::BadField(format!("rows[{i}].values")))?
                    .iter()
                    .enumerate()
                    .map(|(j, v)| {
                        v.as_f64()
                            .ok_or_else(|| FigureError::BadField(format!("rows[{i}].values[{j}]")))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if values.len() != series.len() {
                    return Err(FigureError::Ragged(format!("rows[{i}].values")));
                }
                Ok(Row {
                    x: x as u64,
                    values,
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Figure {
            id: string(doc.get("id"), "id".into())?,
            title: string(doc.get("title"), "title".into())?,
            xlabel: string(doc.get("xlabel"), "xlabel".into())?,
            ylabel: string(doc.get("ylabel"), "ylabel".into())?,
            series,
            rows,
            paper_anchors: strings("paper_anchors")?,
        })
    }

    /// Column index of a series by name.
    pub fn series_index(&self, name: &str) -> Option<usize> {
        self.series.iter().position(|s| s == name)
    }

    /// Value of `series` at x == `x`.
    pub fn value_at(&self, series: &str, x: u64) -> Option<f64> {
        let i = self.series_index(series)?;
        self.rows.iter().find(|r| r.x == x).map(|r| r.values[i])
    }

    /// The largest x at which series `earlier` measures at or below
    /// `later` (`None` if `later` is lower everywhere). On a latency sweep
    /// this is the measured pairwise crossover: above the returned size,
    /// `later` wins every grid point.
    pub fn last_win(&self, earlier: &str, later: &str) -> Option<u64> {
        let e = self.series_index(earlier)?;
        let l = self.series_index(later)?;
        self.rows
            .iter()
            .filter(|r| r.values[e] <= r.values[l])
            .map(|r| r.x)
            .max()
    }
}

/// Measure every `(alg, size)` point on a fresh machine built from `cfg`:
/// a figure with one row per size and one series per [`Tunable::id`],
/// valued in simulated µs.
///
/// The `Mpi` carries the static policy so sweeping never recursively
/// consults a tuning table (the sweep is what *produces* tables).
pub fn measure<A: Tunable>(cfg: &MachineConfig, algs: &[A], sizes: &[u64]) -> Figure {
    let mut mpi = Mpi::with_policy(cfg.clone(), SelectionPolicy::static_policy());
    let rows = sizes
        .iter()
        .map(|&bytes| Row {
            x: bytes,
            values: algs
                .iter()
                .map(|&alg| alg.run(&mut mpi, bytes).as_micros_f64())
                .collect(),
        })
        .collect();
    let (head, tail) = A::OP.split_at(1);
    Figure {
        id: format!("sweep_{}", A::OP),
        title: format!(
            "MPI_{}{tail} latency vs size ({} nodes, {:?} mode)",
            head.to_uppercase(),
            cfg.node_count(),
            cfg.mode
        ),
        xlabel: "bytes".into(),
        ylabel: "latency (us)".into(),
        series: algs.iter().map(|a| a.id().to_string()).collect(),
        rows,
        paper_anchors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;
    use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm};

    fn sample() -> Figure {
        Figure {
            id: "figX".into(),
            title: "test".into(),
            xlabel: "bytes".into(),
            ylabel: "MB/s".into(),
            series: vec!["a".into(), "b".into()],
            rows: vec![
                Row {
                    x: 1024,
                    values: vec![1.0, 2.0],
                },
                Row {
                    x: 1 << 20,
                    values: vec![3.0, 4.0],
                },
            ],
            paper_anchors: vec!["anchor".into()],
        }
    }

    #[test]
    fn pow2_grid() {
        assert_eq!(pow2_sizes(64, 512), vec![64, 128, 256, 512]);
        assert_eq!(pow2_sizes(0, 2), vec![1, 2]);
        assert!(pow2_sizes(8, 4).is_empty());
    }

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(64), "64");
        assert_eq!(fmt_size(512), "512");
        assert_eq!(fmt_size(1024), "1K");
        assert_eq!(fmt_size(65536), "64K");
        assert_eq!(fmt_size(128 << 10), "128K");
        assert_eq!(fmt_size(4 << 20), "4M");
        assert_eq!(fmt_size(1500), "1500");
    }

    #[test]
    fn lookup_by_series_and_x() {
        let f = sample();
        assert_eq!(f.value_at("b", 1024), Some(2.0));
        assert_eq!(f.value_at("a", 1 << 20), Some(3.0));
        assert_eq!(f.value_at("c", 1024), None);
        assert_eq!(f.value_at("a", 7), None);
    }

    #[test]
    fn render_contains_everything() {
        let r = sample().render();
        assert!(r.contains("figX"));
        assert!(r.contains("1K"));
        assert!(r.contains("1M"));
        assert!(r.contains("anchor"));
    }

    #[test]
    fn json_round_trips_structurally() {
        let j = sample().to_json();
        let v = json::parse(&j).unwrap();
        assert_eq!(v.get("series").unwrap().as_arr().unwrap().len(), 2);
        let rows = v.get("rows").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("x").unwrap().as_f64(), Some(1024.0));
        assert_eq!(
            rows[1].get("values").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(4.0)
        );
        assert_eq!(v.get("id").unwrap().as_str(), Some("figX"));
    }

    #[test]
    fn parse_inverts_to_json() {
        let fig = Figure {
            id: "fig\"q\"".into(),
            title: "a \\ title, with: punctuation".into(),
            xlabel: "doubles".into(),
            ylabel: "throughput (MB/s)".into(),
            series: vec!["New".into(), "Current (DMA ring)".into(), "c".into()],
            rows: vec![
                Row {
                    x: 0,
                    values: vec![0.1, 1.0 / 3.0, -2.5e-7],
                },
                Row {
                    x: 3 << 20,
                    values: vec![12345.678, 7.0, 850.25],
                },
            ],
            paper_anchors: vec!["paper: ≈33 % at 512 K".into(), "second".into()],
        };
        assert_eq!(Figure::parse(&fig.to_json()), Ok(fig));
    }

    #[test]
    fn malformed_figure_is_a_typed_error() {
        let bad = |field: &str| Err(FigureError::BadField(field.to_string()));
        assert!(matches!(Figure::parse("{]"), Err(FigureError::NotJson(_))));
        // A missing field is named.
        assert_eq!(Figure::parse("{\"id\": \"fig6\"}"), bad("series"));
        let doc = |rows: &str| {
            format!(
                "{{\"id\": \"sweep_bcast\", \"title\": \"t\", \"xlabel\": \"bytes\", \
                 \"ylabel\": \"latency (us)\", \"series\": [\"tree_shmem\"], \
                 \"rows\": [{rows}], \"paper_anchors\": []}}"
            )
        };
        // Ragged: a row holds two values for one series.
        assert_eq!(
            Figure::parse(&doc(
                "{\"x\": 64, \"values\": [1.0]}, {\"x\": 128, \"values\": [1.0, 2.0]}"
            )),
            Err(FigureError::Ragged("rows[1].values".into()))
        );
        assert_eq!(
            Figure::parse(&doc("{\"x\": 64.5, \"values\": [1.0]}")),
            bad("rows[0].x")
        );
        assert_eq!(
            Figure::parse(&doc("{\"x\": 64, \"values\": [\"1\"]}")),
            bad("rows[0].values[0]")
        );
        let ok = Figure::parse(&doc(
            "{\"x\": 64, \"values\": [1.0]}, {\"x\": 128, \"values\": [2.0]}",
        ))
        .unwrap();
        assert_eq!(ok.rows.iter().map(|r| r.x).collect::<Vec<_>>(), [64, 128]);
        assert_eq!(ok.series, ["tree_shmem"]);
    }

    #[test]
    fn sweep_measures_every_point() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(1 << 10, 8 << 10);
        let s = measure(&cfg, &algs, &sizes);
        assert_eq!(s.rows.len(), sizes.len());
        assert!(s
            .rows
            .iter()
            .all(|row| row.values.len() == 2 && row.values.iter().all(|&v| v > 0.0)));
        // Latency grows with size.
        let first = s.value_at("tree_shmem", sizes[0]).unwrap();
        let last = s.value_at("tree_shmem", 8 << 10).unwrap();
        assert!(last > first);
        assert!(s.series_index(BcastAlgorithm::TreeSmp.id()).is_none());
    }

    #[test]
    fn sweep_json_parses_and_is_deterministic() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(1 << 10, 4 << 10);
        let s = measure(&cfg, &algs, &sizes);
        let j = s.to_json();
        assert_eq!(j, measure(&cfg, &algs, &sizes).to_json());
        let doc = Figure::parse(&j).unwrap();
        assert_eq!(doc.id, "sweep_bcast");
        assert_eq!(doc.series, ["tree_shmem", "torus_shaddr"]);
        assert_eq!(doc.rows.len(), sizes.len());
        assert_eq!(doc, s);
        let ar = measure(&cfg, &[AllreduceAlgorithm::RingCurrent], &sizes);
        let doc = Figure::parse(&ar.to_json()).unwrap();
        assert_eq!(doc.id, "sweep_allreduce");
        assert_eq!(doc.series, ["ring_current"]);
    }

    /// Sweep `earlier` and `later` over 64 B .. 4 MiB on 64 nodes: both
    /// measure everywhere, and `later` takes over below the top size.
    fn crossover_below_the_top<A: Tunable>(earlier: A, later: A) {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let sizes = pow2_sizes(64, 4 << 20);
        let s = measure(&cfg, &[earlier, later], &sizes);
        assert!(s.rows.iter().all(|row| row.values.iter().all(|&v| v > 0.0)));
        let b = s
            .last_win(earlier.id(), later.id())
            .unwrap_or_else(|| panic!("{earlier:?} must win somewhere"));
        assert!(b < 4 << 20, "{earlier:?} -> {later:?} crossover at {b}");
    }

    #[test]
    fn last_win_finds_the_crossover() {
        // The staged tree path must lose to the torus for large messages on
        // any shape, so the crossover exists and is below the top size.
        crossover_below_the_top(BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr);
    }

    #[test]
    fn allreduce_sweep_finds_the_node_aware_crossover() {
        // The shared-address ring wins small allreduces (node-aware RS+AG
        // pays per-stage sync) and loses somewhere below the top of the grid.
        crossover_below_the_top(
            AllreduceAlgorithm::ShaddrSpecialized,
            AllreduceAlgorithm::NodeAwareRsAg,
        );
    }
}
