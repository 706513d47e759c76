//! The performance-regression gate: a pinned suite + baseline comparison.
//!
//! [`run_suite`] replays a fixed set of the paper's key measurement points
//! — fig6 short-message latency, fig7 tree bandwidth, fig10 torus
//! bandwidth, Table I allreduce throughput, the tuned-selection path — and
//! returns a [`GateReport`] that serializes to `BENCH_<label>.json`.
//!
//! The simulated entries are **bit-deterministic**: the same source tree
//! produces the same sim-time values on every host, debug or release, so
//! the checked-in `BENCH_baseline.json` gates exactly and any drift is a
//! real behavior change. Beside them sit the three host **ratios** from
//! [`crate::hotpath`] (`transport/loan_64K`, `reduce/f64x4_1M`,
//! `proc/xproc_overhead_64K`): wall derived but dimensionless — both sides
//! of each ratio run on the same host in the same process — so they are
//! gated, against deliberately conservative floors (ceiling, for the
//! overhead) in the committed baseline. When refreshing the baseline, keep
//! (or re-floor) those values by hand rather than committing a lucky
//! measurement; the gate's job is "the win is still there", not "the win
//! is exactly 2.7x". Raw wall-clock numbers of the real runtimes are not
//! this suite's business: `benchmark/` is the one place they come from.
//!
//! [`compare`] diffs a current report against a baseline with a slowdown
//! tolerance; a gated entry that got worse by more than the tolerance — or
//! a gated baseline entry that vanished — fails the gate. `bench_gate
//! --selftest` (and a unit test here) proves the gate actually fires by
//! injecting an artificial 20% slowdown and requiring a failure.

use bgp_dcmf::Machine;
use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::allreduce::{throughput_mb, AllreduceAlgorithm};
use bgp_mpi::{BcastAlgorithm, Mpi};
use bgp_sim::json::{self, Json};

/// Schema identifier of `BENCH_*.json` gate reports.
pub const GATE_SCHEMA: &str = "bgp-bench-gate-v1";

/// Schema identifier of the per-report provenance block (see [`GateMeta`]).
pub const META_SCHEMA: &str = "bgp-bench-meta-v1";

/// Environment variable carrying the git SHA to stamp into reports
/// (exported by `ci.sh`; `"unknown"` when absent).
pub const GIT_SHA_ENV: &str = "BGP_GIT_SHA";

/// Environment variable overriding the monotonic sequence number
/// ([`next_seq`] scans the output directory when it is unset).
pub const SEQ_ENV: &str = "BGP_BENCH_SEQ";

/// Default slowdown tolerance, percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// Which direction is good for an entry's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Latency-like: smaller is better.
    Lower,
    /// Bandwidth-like: larger is better.
    Higher,
}

impl Better {
    fn id(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured point of the suite.
#[derive(Debug, Clone)]
pub struct GateEntry {
    /// Stable identifier, e.g. `fig10/torus_shaddr/2M`.
    pub id: String,
    /// Unit label (`us`, `MB/s`).
    pub unit: String,
    /// Good direction.
    pub better: Better,
    /// Whether the entry participates in pass/fail.
    pub gated: bool,
    /// The measured value.
    pub value: f64,
}

/// Schema-versioned provenance stamped into each `BENCH_*.json` so the
/// report subsystem can order history points without relying on mtimes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateMeta {
    /// Report label (duplicated from the report for self-containment).
    pub label: String,
    /// Git SHA of the measured tree (from [`GIT_SHA_ENV`]; `"unknown"`
    /// when the environment does not provide one).
    pub git_sha: String,
    /// Monotonic sequence number: strictly greater than every stamped
    /// report already present when this one was written.
    pub seq: u64,
}

/// One gated series that failed the comparison, with everything needed to
/// report it in one line: the baseline, the worst value the tolerance
/// allowed, what was measured, and how many times worse than baseline the
/// measurement is (in the bad direction, so `ratio > 1` always means
/// "worse"). A gated series missing from the current report is carried as
/// `measured == 0` / `ratio == 0`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Series id.
    pub id: String,
    /// Unit label of the series.
    pub unit: String,
    /// Baseline value.
    pub baseline: f64,
    /// Worst value the tolerance allowed.
    pub allowed: f64,
    /// Measured value (0 when the series vanished).
    pub measured: f64,
    /// Measured-vs-baseline factor in the bad direction (0 when missing).
    pub ratio: f64,
}

impl Violation {
    /// The one-line report: series, expected-vs-measured, baseline ratio.
    pub fn one_line(&self) -> String {
        if self.measured == 0.0 {
            format!(
                "{}: gated series missing from current report (baseline {} {})",
                self.id,
                json::fmt_f64(self.baseline),
                self.unit
            )
        } else {
            format!(
                "{}: measured {:.3} {u} vs allowed {:.3} {u} (baseline {:.3} {u}, {:.2}x worse)",
                self.id,
                self.measured,
                self.allowed,
                self.baseline,
                self.ratio,
                u = self.unit
            )
        }
    }
}

/// A full suite run, serializable to/from `BENCH_<label>.json`.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Report label (`baseline`, `ci`, …).
    pub label: String,
    /// Suite scale (`small` / `paper`).
    pub scale: String,
    /// Provenance block: `None` only on an in-memory suite that
    /// [`stamp_meta`] has not stamped yet — every parsed report carries it.
    pub meta: Option<GateMeta>,
    /// Gate violations recorded by `bench_gate --check` (empty on passing
    /// runs and on reports that never went through a comparison). The
    /// report subsystem reads these to mark trend charts.
    pub violations: Vec<Violation>,
    /// The measurements.
    pub entries: Vec<GateEntry>,
}

impl GateReport {
    /// Serialize in the `BENCH_*.json` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(GATE_SCHEMA)));
        out.push_str(&format!("  \"label\": {},\n", json::escape(&self.label)));
        out.push_str(&format!("  \"scale\": {},\n", json::escape(&self.scale)));
        if let Some(m) = &self.meta {
            out.push_str(&format!(
                "  \"meta\": {{\"schema\": {}, \"label\": {}, \"git_sha\": {}, \"seq\": {}}},\n",
                json::escape(META_SCHEMA),
                json::escape(&m.label),
                json::escape(&m.git_sha),
                m.seq
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("  \"violations\": [\n");
            for (i, v) in self.violations.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"id\": {}, \"unit\": {}, \"baseline\": {}, \"allowed\": {}, \"measured\": {}, \"ratio\": {}}}{}\n",
                    json::escape(&v.id),
                    json::escape(&v.unit),
                    json::fmt_f64(v.baseline),
                    json::fmt_f64(v.allowed),
                    json::fmt_f64(v.measured),
                    json::fmt_f64(v.ratio),
                    if i + 1 < self.violations.len() { "," } else { "" }
                ));
            }
            out.push_str("  ],\n");
        }
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {}, \"unit\": {}, \"better\": {}, \"gated\": {}, \"value\": {}}}{}\n",
                json::escape(&e.id),
                json::escape(&e.unit),
                json::escape(e.better.id()),
                e.gated,
                json::fmt_f64(e.value),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse and validate a report document.
    pub fn parse(text: &str) -> Result<GateReport, String> {
        let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != GATE_SCHEMA {
            return Err(format!(
                "stale report schema {schema:?} (expected {GATE_SCHEMA:?})"
            ));
        }
        let entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("missing entries")?
            .iter()
            .map(|e| {
                let id = e
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or("entry missing id")?
                    .to_string();
                let unit = e
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string();
                let better = match e.get("better").and_then(Json::as_str) {
                    Some("lower") => Better::Lower,
                    Some("higher") => Better::Higher,
                    other => return Err(format!("bad better {other:?} in {id}")),
                };
                let gated = match e.get("gated") {
                    Some(Json::Bool(g)) => *g,
                    other => return Err(format!("bad gated {other:?} in {id}")),
                };
                let value = e
                    .get("value")
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .ok_or_else(|| format!("bad value in {id}"))?;
                Ok(GateEntry {
                    id,
                    unit,
                    better,
                    gated,
                    value,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if entries.is_empty() {
            return Err("report has no entries".into());
        }
        let m = doc.get("meta").ok_or("missing meta")?;
        let meta_schema = m.get("schema").and_then(Json::as_str).unwrap_or("");
        if meta_schema != META_SCHEMA {
            return Err(format!(
                "stale meta schema {meta_schema:?} (expected {META_SCHEMA:?})"
            ));
        }
        let seq = m
            .get("seq")
            .and_then(Json::as_f64)
            .filter(|s| s.is_finite() && *s >= 0.0 && s.fract() == 0.0)
            .ok_or("meta missing seq")?;
        let meta = GateMeta {
            label: m
                .get("label")
                .and_then(Json::as_str)
                .ok_or("meta missing label")?
                .to_string(),
            git_sha: m
                .get("git_sha")
                .and_then(Json::as_str)
                .ok_or("meta missing git_sha")?
                .to_string(),
            seq: seq as u64,
        };
        let mut violations = Vec::new();
        if let Some(raw) = doc.get("violations").and_then(Json::as_arr) {
            for v in raw {
                let num = |key: &str| {
                    v.get(key)
                        .and_then(Json::as_f64)
                        .filter(|x| x.is_finite() && *x >= 0.0)
                        .ok_or_else(|| format!("violation missing {key}"))
                };
                violations.push(Violation {
                    id: v
                        .get("id")
                        .and_then(Json::as_str)
                        .ok_or("violation missing id")?
                        .to_string(),
                    unit: v
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    baseline: num("baseline")?,
                    allowed: num("allowed")?,
                    measured: num("measured")?,
                    ratio: num("ratio")?,
                });
            }
        }
        Ok(GateReport {
            label: doc
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            scale: doc
                .get("scale")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            meta: Some(meta),
            violations,
            entries,
        })
    }
}

/// The next monotonic sequence number for a report written into `dir`:
/// one more than the largest stamped `seq` among the parseable
/// `BENCH_*.json` files already there (0 for a pristine directory).
/// Unparseable files are skipped. [`SEQ_ENV`] overrides the scan.
pub fn next_seq(dir: &std::path::Path) -> u64 {
    if let Ok(v) = std::env::var(SEQ_ENV) {
        if let Ok(n) = v.parse::<u64>() {
            return n;
        }
    }
    let mut max_seq: Option<u64> = None;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("BENCH_") || !name.ends_with(".json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(entry.path()) else {
                continue;
            };
            if let Some(m) = GateReport::parse(&text).ok().and_then(|r| r.meta) {
                max_seq = Some(max_seq.map_or(m.seq, |s| s.max(m.seq)));
            }
        }
    }
    max_seq.map_or(0, |s| s + 1)
}

/// Stamp `report` with provenance for a write into `dir`: its own label,
/// the git SHA from [`GIT_SHA_ENV`] (or `"unknown"`), and [`next_seq`].
pub fn stamp_meta(report: &mut GateReport, dir: &std::path::Path) {
    report.meta = Some(GateMeta {
        label: report.label.clone(),
        git_sha: std::env::var(GIT_SHA_ENV).unwrap_or_else(|_| "unknown".into()),
        seq: next_seq(dir),
    });
}

/// Suite scale (mirrors `bgp_bench::Scale` without the dependency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateScale {
    /// 64 nodes — the deterministic CI mode.
    Small,
    /// The paper's two racks.
    Paper,
}

impl GateScale {
    fn nodes(self) -> u32 {
        match self {
            GateScale::Small => 64,
            GateScale::Paper => 2048,
        }
    }

    fn id(self) -> &'static str {
        match self {
            GateScale::Small => "small",
            GateScale::Paper => "paper",
        }
    }
}

fn mbps(bytes: u64, t: bgp_sim::SimTime) -> f64 {
    bytes as f64 / t.as_secs_f64() / 1e6
}

/// Run the pinned suite: the bit-deterministic simulated entries plus
/// the three gated host ratios (the only series that vary between runs).
pub fn run_suite(scale: GateScale) -> GateReport {
    let mut entries = Vec::new();
    let mut sim_us = |id: &str, t: bgp_sim::SimTime| {
        entries.push(GateEntry {
            id: id.into(),
            unit: "us".into(),
            better: Better::Lower,
            gated: true,
            value: t.as_micros_f64(),
        });
    };

    let mut quad = Mpi::new(MachineConfig::with_nodes(scale.nodes(), OpMode::Quad));
    let mut smp = Mpi::new(MachineConfig::with_nodes(scale.nodes(), OpMode::Smp));

    // fig6: short-message latency over the collective network.
    sim_us(
        "fig6/tree_shmem/1K",
        quad.bcast(BcastAlgorithm::TreeShmem, 1024),
    );
    sim_us(
        "fig6/tree_dma_fifo/1K",
        quad.bcast(BcastAlgorithm::TreeDmaFifo, 1024),
    );
    sim_us("fig6/tree_smp/1K", smp.bcast(BcastAlgorithm::TreeSmp, 1024));

    // fig7: medium-message tree bandwidth (the paper's 128K headline point).
    let bw = |entries: &mut Vec<GateEntry>, id: &str, v: f64| {
        entries.push(GateEntry {
            id: id.into(),
            unit: "MB/s".into(),
            better: Better::Higher,
            gated: true,
            value: v,
        });
    };
    let b = 128 << 10;
    bw(
        &mut entries,
        "fig7/tree_shaddr_caching/128K",
        mbps(
            b,
            quad.bcast(BcastAlgorithm::TreeShaddr { caching: true }, b),
        ),
    );
    bw(
        &mut entries,
        "fig7/tree_dma_direct_put/128K",
        mbps(b, quad.bcast(BcastAlgorithm::TreeDmaDirectPut, b)),
    );

    // fig10: large-message torus bandwidth at 2M.
    let b = 2 << 20;
    bw(
        &mut entries,
        "fig10/torus_shaddr/2M",
        mbps(b, quad.bcast(BcastAlgorithm::TorusShaddr, b)),
    );
    bw(
        &mut entries,
        "fig10/torus_fifo/2M",
        mbps(b, quad.bcast(BcastAlgorithm::TorusFifo, b)),
    );
    bw(
        &mut entries,
        "fig10/torus_direct_put/2M",
        mbps(b, quad.bcast(BcastAlgorithm::TorusDirectPut, b)),
    );

    // Table I: allreduce throughput at the paper's headline 512K doubles,
    // plus the node-aware RS+AG schedule at the same point.
    let cfg = MachineConfig::with_nodes(scale.nodes(), OpMode::Quad);
    let mut m1 = Machine::new(cfg.clone());
    let mut m2 = Machine::new(cfg.clone());
    let mut m3 = Machine::new(cfg);
    bw(
        &mut entries,
        "table1/shaddr_specialized/512K",
        throughput_mb(&mut m1, AllreduceAlgorithm::ShaddrSpecialized, 512 << 10),
    );
    bw(
        &mut entries,
        "table1/ring_current/512K",
        throughput_mb(&mut m2, AllreduceAlgorithm::RingCurrent, 512 << 10),
    );
    bw(
        &mut entries,
        "table1/node_aware_rsag/512K",
        throughput_mb(&mut m3, AllreduceAlgorithm::NodeAwareRsAg, 512 << 10),
    );

    // The rest of the collective family: reduce-scatter (one combining
    // pass of the node-aware decomposition) and the personalized
    // all-to-all exchange. Bit-deterministic sim entries like table1.
    {
        use bgp_mpi::allgather::AllgatherAlgorithm;
        use bgp_mpi::alltoall::alltoall_throughput_mb;
        use bgp_mpi::reduce_scatter::reduce_scatter_throughput_mb;
        let cfg = MachineConfig::with_nodes(scale.nodes(), OpMode::Quad);
        let mut m = Machine::new(cfg.clone());
        bw(
            &mut entries,
            "rs/shaddr_specialized/512K",
            reduce_scatter_throughput_mb(&mut m, AllreduceAlgorithm::ShaddrSpecialized, 512 << 10),
        );
        let mut m = Machine::new(cfg.clone());
        bw(
            &mut entries,
            "rs/ring_current/512K",
            reduce_scatter_throughput_mb(&mut m, AllreduceAlgorithm::RingCurrent, 512 << 10),
        );
        let mut m = Machine::new(cfg.clone());
        bw(
            &mut entries,
            "a2a/shaddr_specialized/4K",
            alltoall_throughput_mb(&mut m, AllgatherAlgorithm::ShaddrSpecialized, 4 << 10),
        );
        let mut m = Machine::new(cfg);
        bw(
            &mut entries,
            "a2a/ring_current/4K",
            alltoall_throughput_mb(&mut m, AllgatherAlgorithm::RingCurrent, 4 << 10),
        );
    }

    // The production tuned-selection path end to end: whatever the table
    // picks must stay fast. A selection-policy change that lands on a
    // slower path shows up here even if every executor is unchanged.
    let mut sim_us = |id: &str, t: bgp_sim::SimTime| {
        entries.push(GateEntry {
            id: id.into(),
            unit: "us".into(),
            better: Better::Lower,
            gated: true,
            value: t.as_micros_f64(),
        });
    };
    sim_us("tuned/bcast_auto/1K", quad.bcast_auto(1024).1);
    sim_us("tuned/bcast_auto/64K", quad.bcast_auto(64 << 10).1);
    sim_us("tuned/bcast_auto/2M", quad.bcast_auto(2 << 20).1);
    // The allreduce selection path: small stays on the shared-address
    // ring, large crosses to node-aware RS+AG (region tables or static
    // fallback — either way the landed-on path must stay fast).
    sim_us("tuned/allreduce_auto/1K", quad.allreduce_auto(128).1);
    sim_us("tuned/allreduce_auto/4M", quad.allreduce_auto(512 << 10).1);

    // The hot-path speedup ratios: wall-derived but dimensionless, gated
    // against conservative floors in the baseline (module docs).
    entries.extend(crate::hotpath::ratio_entries());

    // The cross-process storage overhead (segment-backed channel over
    // heap channel): gated against a conservative ceiling.
    entries.push(crate::hotpath::xproc_entry());

    GateReport {
        label: String::new(),
        scale: scale.id().into(),
        meta: None,
        violations: Vec::new(),
        entries,
    }
}

/// Status of one compared entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineStatus {
    /// Within tolerance.
    Ok,
    /// Better than baseline by more than the tolerance.
    Improved,
    /// Worse than baseline by more than the tolerance — fails the gate.
    Regression,
    /// Ungated entry (informational).
    Ungated,
    /// Present now, absent in the baseline (informational; refresh the
    /// baseline to start gating it).
    New,
    /// Gated in the baseline, absent now — fails the gate (the suite
    /// silently shrank).
    Missing,
}

/// One row of the comparison report.
#[derive(Debug, Clone)]
pub struct CompareLine {
    /// Entry id.
    pub id: String,
    /// Unit label of the series.
    pub unit: String,
    /// Good direction of the series.
    pub better: Better,
    /// Outcome.
    pub status: LineStatus,
    /// Baseline value (0 for `New`).
    pub base: f64,
    /// Current value (0 for `Missing`).
    pub cur: f64,
    /// Signed change in the entry's unit, percent (positive = value grew).
    pub delta_pct: f64,
}

/// The full comparison: per-series lines plus the verdict.
#[derive(Debug, Clone)]
pub struct CompareOutcome {
    /// Per-entry rows, in current-report order (then missing ones).
    pub lines: Vec<CompareLine>,
    /// The tolerance used, percent.
    pub tolerance_pct: f64,
}

impl CompareOutcome {
    /// Gated regressions + missing gated entries.
    pub fn failures(&self) -> usize {
        self.lines
            .iter()
            .filter(|l| matches!(l.status, LineStatus::Regression | LineStatus::Missing))
            .count()
    }

    /// Whether the gate passes.
    pub fn passed(&self) -> bool {
        self.failures() == 0
    }

    /// The failing gated series as [`Violation`]s, each reportable in one
    /// line and serializable into the written report for the perf-report
    /// subsystem to mark on trend charts.
    pub fn violations(&self) -> Vec<Violation> {
        let tol = self.tolerance_pct / 100.0;
        self.lines
            .iter()
            .filter_map(|l| match l.status {
                LineStatus::Regression => {
                    let (allowed, ratio) = match l.better {
                        Better::Lower => (l.base * (1.0 + tol), l.cur / l.base),
                        Better::Higher => (l.base * (1.0 - tol), l.base / l.cur),
                    };
                    Some(Violation {
                        id: l.id.clone(),
                        unit: l.unit.clone(),
                        baseline: l.base,
                        allowed,
                        measured: l.cur,
                        ratio,
                    })
                }
                LineStatus::Missing => Some(Violation {
                    id: l.id.clone(),
                    unit: l.unit.clone(),
                    baseline: l.base,
                    allowed: l.base,
                    measured: 0.0,
                    ratio: 0.0,
                }),
                _ => None,
            })
            .collect()
    }

    /// Render the per-series report as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<36} {:>12} {:>12} {:>9}  status\n",
            "series", "baseline", "current", "delta"
        ));
        for l in &self.lines {
            let status = match l.status {
                LineStatus::Ok => "ok",
                LineStatus::Improved => "IMPROVED",
                LineStatus::Regression => "REGRESSION",
                LineStatus::Ungated => "ungated",
                LineStatus::New => "new",
                LineStatus::Missing => "MISSING",
            };
            out.push_str(&format!(
                "{:<36} {:>12.2} {:>12.2} {:>+8.2}%  {status}\n",
                l.id, l.base, l.cur, l.delta_pct
            ));
        }
        // Every failing series again as a self-contained one-liner, so a
        // CI log names the offender with expected-vs-measured and the
        // baseline ratio without anyone diffing two JSON files by hand.
        let violations = self.violations();
        if !violations.is_empty() {
            out.push_str("violations:\n");
            for v in &violations {
                out.push_str(&format!("  {}\n", v.one_line()));
            }
        }
        let f = self.failures();
        out.push_str(&format!(
            "gate: {} (tolerance {}%, {} series, {} failure{})\n",
            if f == 0 { "PASS" } else { "FAIL" },
            self.tolerance_pct,
            self.lines.len(),
            f,
            if f == 1 { "" } else { "s" }
        ));
        out
    }
}

/// Compare `current` against `baseline` with a slowdown tolerance.
pub fn compare(current: &GateReport, baseline: &GateReport, tolerance_pct: f64) -> CompareOutcome {
    let mut lines = Vec::new();
    for e in &current.entries {
        let Some(b) = baseline.entries.iter().find(|b| b.id == e.id) else {
            lines.push(CompareLine {
                id: e.id.clone(),
                unit: e.unit.clone(),
                better: e.better,
                status: if e.gated {
                    LineStatus::New
                } else {
                    LineStatus::Ungated
                },
                base: 0.0,
                cur: e.value,
                delta_pct: 0.0,
            });
            continue;
        };
        let delta_pct = (e.value - b.value) / b.value * 100.0;
        let status = if !e.gated || !b.gated {
            LineStatus::Ungated
        } else {
            // "Worse" follows the entry's good direction.
            let worse = match e.better {
                Better::Lower => delta_pct > tolerance_pct,
                Better::Higher => delta_pct < -tolerance_pct,
            };
            let better = match e.better {
                Better::Lower => delta_pct < -tolerance_pct,
                Better::Higher => delta_pct > tolerance_pct,
            };
            if worse {
                LineStatus::Regression
            } else if better {
                LineStatus::Improved
            } else {
                LineStatus::Ok
            }
        };
        lines.push(CompareLine {
            id: e.id.clone(),
            unit: e.unit.clone(),
            better: e.better,
            status,
            base: b.value,
            cur: e.value,
            delta_pct,
        });
    }
    for b in &baseline.entries {
        if b.gated && !current.entries.iter().any(|e| e.id == b.id) {
            lines.push(CompareLine {
                id: b.id.clone(),
                unit: b.unit.clone(),
                better: b.better,
                status: LineStatus::Missing,
                base: b.value,
                cur: 0.0,
                delta_pct: 0.0,
            });
        }
    }
    CompareOutcome {
        lines,
        tolerance_pct,
    }
}

/// Worsen every gated entry of `report` by `pct` percent (latency up,
/// bandwidth down) — the self-test's artificial regression.
pub fn inject_slowdown(report: &mut GateReport, pct: f64) {
    let f = pct / 100.0;
    for e in report.entries.iter_mut().filter(|e| e.gated) {
        match e.better {
            Better::Lower => e.value *= 1.0 + f,
            Better::Higher => e.value /= 1.0 + f,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> GateReport {
        GateReport {
            label: "t".into(),
            scale: "small".into(),
            meta: Some(GateMeta {
                label: "t".into(),
                git_sha: "abc123def".into(),
                seq: 7,
            }),
            violations: Vec::new(),
            entries: vec![
                GateEntry {
                    id: "a/latency".into(),
                    unit: "us".into(),
                    better: Better::Lower,
                    gated: true,
                    value: 100.0,
                },
                GateEntry {
                    id: "b/bandwidth".into(),
                    unit: "MB/s".into(),
                    better: Better::Higher,
                    gated: true,
                    value: 500.0,
                },
                GateEntry {
                    id: "c/wall".into(),
                    unit: "us".into(),
                    better: Better::Lower,
                    gated: false,
                    value: 42.0,
                },
            ],
        }
    }

    #[test]
    fn report_json_round_trips() {
        let r = synthetic();
        let parsed = GateReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed.entries.len(), 3);
        assert_eq!(parsed.entries[0].id, "a/latency");
        assert_eq!(parsed.entries[1].better, Better::Higher);
        assert!(!parsed.entries[2].gated);
        assert_eq!(parsed.scale, "small");
    }

    #[test]
    fn meta_and_violations_round_trip() {
        let mut r = synthetic();
        r.violations = vec![Violation {
            id: "a/latency".into(),
            unit: "us".into(),
            baseline: 100.0,
            allowed: 110.0,
            measured: 125.0,
            ratio: 1.25,
        }];
        let parsed = GateReport::parse(&r.to_json()).unwrap();
        let m = parsed.meta.expect("meta survives round trip");
        assert_eq!(m.git_sha, "abc123def");
        assert_eq!(m.seq, 7);
        assert_eq!(parsed.violations.len(), 1);
        assert_eq!(parsed.violations[0].id, "a/latency");
        assert_eq!(parsed.violations[0].ratio, 1.25);
    }

    #[test]
    fn reports_without_a_valid_meta_block_are_rejected() {
        let mut unstamped = synthetic();
        unstamped.meta = None;
        assert!(GateReport::parse(&unstamped.to_json())
            .unwrap_err()
            .contains("missing meta"));
        let stale = synthetic()
            .to_json()
            .replace(META_SCHEMA, "bgp-bench-meta-v0");
        assert!(GateReport::parse(&stale)
            .unwrap_err()
            .contains("stale meta schema"));
    }

    #[test]
    fn missing_or_non_boolean_gated_names_the_entry() {
        let doc = synthetic().to_json();
        let absent = doc.replacen(", \"gated\": true", "", 1);
        let err = GateReport::parse(&absent).unwrap_err();
        assert!(err.contains("gated") && err.contains("a/latency"), "{err}");
        let quoted = doc.replace("\"gated\": false", "\"gated\": \"true\"");
        let err = GateReport::parse(&quoted).unwrap_err();
        assert!(err.contains("gated") && err.contains("c/wall"), "{err}");
    }

    #[test]
    fn violations_name_offender_with_expected_vs_measured() {
        let base = synthetic();
        let mut cur = synthetic();
        cur.entries[0].value = 125.0; // latency up 25%
        cur.entries.remove(1); // bandwidth series vanished
        let out = compare(&cur, &base, 10.0);
        let v = out.violations();
        assert_eq!(v.len(), 2);
        let reg = v.iter().find(|v| v.id == "a/latency").unwrap();
        assert_eq!(reg.baseline, 100.0);
        assert!((reg.allowed - 110.0).abs() < 1e-9);
        assert_eq!(reg.measured, 125.0);
        assert!((reg.ratio - 1.25).abs() < 1e-9);
        let line = reg.one_line();
        assert!(line.contains("a/latency"), "{line}");
        assert!(line.contains("125.000"), "{line}");
        assert!(line.contains("110.000"), "{line}");
        assert!(line.contains("1.25x"), "{line}");
        let missing = v.iter().find(|v| v.id == "b/bandwidth").unwrap();
        assert!(missing.one_line().contains("missing"));
        // The rendered report carries the one-liners too.
        assert!(out.render().contains("violations:"));
        assert!(out.render().contains("1.25x worse"));
    }

    #[test]
    fn next_seq_orders_reports_without_mtimes() {
        let dir = std::env::temp_dir().join("bgp_gate_seq_test");
        std::fs::create_dir_all(&dir).unwrap();
        for f in std::fs::read_dir(&dir).unwrap().flatten() {
            std::fs::remove_file(f.path()).ok();
        }
        assert_eq!(next_seq(&dir), 0, "pristine dir starts at 0");
        std::fs::write(dir.join("BENCH_t.json"), synthetic().to_json()).unwrap();
        // Unparseable files never affect ordering.
        std::fs::write(dir.join("BENCH_junk.json"), "not json").unwrap();
        assert_eq!(next_seq(&dir), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_reports_are_rejected() {
        assert!(GateReport::parse("{}").is_err());
        let stale = synthetic()
            .to_json()
            .replace(GATE_SCHEMA, "bgp-bench-gate-v0");
        assert!(GateReport::parse(&stale).unwrap_err().contains("stale"));
        let negative = synthetic().to_json().replace("100", "-100");
        assert!(GateReport::parse(&negative).is_err());
    }

    #[test]
    fn identical_reports_pass() {
        let out = compare(&synthetic(), &synthetic(), 10.0);
        assert!(out.passed());
        assert!(out
            .lines
            .iter()
            .all(|l| matches!(l.status, LineStatus::Ok | LineStatus::Ungated)));
    }

    #[test]
    fn injected_20pct_slowdown_is_flagged() {
        let base = synthetic();
        let mut cur = synthetic();
        inject_slowdown(&mut cur, 20.0);
        let out = compare(&cur, &base, 10.0);
        assert!(!out.passed());
        // Both gated series regressed (latency up 20%, bandwidth down);
        // the ungated wall-time series never fails the gate.
        assert_eq!(out.failures(), 2);
        assert!(out.render().contains("REGRESSION"));
        assert!(out.render().contains("FAIL"));
    }

    #[test]
    fn improvements_and_tolerance_do_not_fail() {
        let base = synthetic();
        let mut cur = synthetic();
        cur.entries[0].value = 50.0; // latency halved: improved
        cur.entries[1].value = 520.0; // +4% within tolerance
        let out = compare(&cur, &base, 10.0);
        assert!(out.passed());
        assert_eq!(out.lines[0].status, LineStatus::Improved);
        assert_eq!(out.lines[1].status, LineStatus::Ok);
    }

    #[test]
    fn shrunken_suite_fails_new_entries_do_not() {
        let base = synthetic();
        let mut cur = synthetic();
        cur.entries.remove(0);
        cur.entries.push(GateEntry {
            id: "d/fresh".into(),
            unit: "us".into(),
            better: Better::Lower,
            gated: true,
            value: 1.0,
        });
        let out = compare(&cur, &base, 10.0);
        assert_eq!(out.failures(), 1, "the vanished gated series must fail");
        assert!(out
            .lines
            .iter()
            .any(|l| l.id == "a/latency" && l.status == LineStatus::Missing));
        assert!(out
            .lines
            .iter()
            .any(|l| l.id == "d/fresh" && l.status == LineStatus::New));
    }

    /// One small-suite run shared by the tests below: they never measure
    /// the host ratios concurrently, and the suite runs twice, not three
    /// times.
    fn small_suite() -> &'static GateReport {
        static SUITE: std::sync::OnceLock<GateReport> = std::sync::OnceLock::new();
        SUITE.get_or_init(|| run_suite(GateScale::Small))
    }

    #[test]
    fn small_suite_gated_ids_match_the_committed_baseline() {
        // A gated series the baseline does not pin reads `new` and passes;
        // a dropped one only fails `bench_gate --check`. Catch both here.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path).expect("committed baseline");
        let baseline = GateReport::parse(&text).expect("baseline parses");
        let gated_ids = |r: &GateReport| -> std::collections::BTreeSet<String> {
            r.entries
                .iter()
                .filter(|e| e.gated)
                .map(|e| e.id.clone())
                .collect()
        };
        assert_eq!(gated_ids(small_suite()), gated_ids(&baseline));
    }

    #[test]
    fn small_suite_runs_and_is_deterministic() {
        let a = small_suite();
        let b = run_suite(GateScale::Small);
        // The hot-path ratio series are measured wall time; everything
        // else must be bit-identical between two runs of the same tree.
        let is_ratio = |id: &str| {
            id.starts_with("transport/") || id.starts_with("reduce/") || id.starts_with("proc/")
        };
        let sim_only = |r: &GateReport| GateReport {
            label: r.label.clone(),
            scale: r.scale.clone(),
            meta: None,
            violations: Vec::new(),
            entries: r
                .entries
                .iter()
                .filter(|e| !is_ratio(&e.id))
                .cloned()
                .collect(),
        };
        assert_eq!(sim_only(a).to_json(), sim_only(&b).to_json());
        assert!(a.entries.iter().all(|e| e.value > 0.0 && e.gated));
        assert!(a.entries.iter().any(|e| e.id.starts_with("fig6/")));
        assert!(a.entries.iter().any(|e| e.id.starts_with("table1/")));
        assert!(a.entries.iter().any(|e| e.id.starts_with("tuned/")));
        // The node-aware family rides in the gated sim suite.
        assert!(a
            .entries
            .iter()
            .any(|e| e.id == "table1/node_aware_rsag/512K"));
        assert!(a.entries.iter().any(|e| e.id.starts_with("rs/")));
        assert!(a.entries.iter().any(|e| e.id.starts_with("a2a/")));
        assert!(a
            .entries
            .iter()
            .any(|e| e.id.starts_with("tuned/allreduce_auto/")));
        // The gated hot-path ratios ride in the suite; the win itself
        // (ratio > 1) is asserted in release builds only — a debug build
        // de-optimizes both sides but not equally.
        let ratios: Vec<_> = a.entries.iter().filter(|e| is_ratio(&e.id)).collect();
        assert_eq!(ratios.len(), 3);
        assert!(ratios
            .iter()
            .all(|e| e.gated && e.unit == "x" && e.value.is_finite() && e.value > 0.0));
        // The win itself (ratio > 1) is asserted in release builds only —
        // a debug build de-optimizes both sides but not equally. The
        // `proc/` entry is an *overhead* (lower is better, near 1.0), so
        // it is excluded from the speedup assertion.
        #[cfg(not(debug_assertions))]
        assert!(
            ratios
                .iter()
                .filter(|e| !e.id.starts_with("proc/"))
                .all(|e| e.value > 1.0),
            "hot-path speedup ratios must beat the staged shapes: {ratios:?}"
        );
    }
}
