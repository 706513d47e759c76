//! The bench-history model: the gate reports the repo emits, parsed into
//! one trajectory.
//!
//! [`ingest`] dispatches on a document's `schema` tag. One schema is read
//! today: `bgp-bench-gate-v1`, the gate suites `bench_gate` writes. (The
//! latency sweeps `perf_report` plots are `bgp_tune::sweep::Figure`s,
//! which `Figure::parse` reads back.)
//!
//! Every parse failure is a *typed* [`IngestError`] — malformed inputs must
//! never panic the reporter (tested in the unit tests below).
//!
//! History ordering: every gate report carries a `bgp-bench-meta-v1`
//! block (one without is a malformed gate report) and points order by its
//! monotonic `seq`, ties in filename order. Ordering never falls back to
//! file mtimes, which a `git checkout` scrambles.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use bgp_sim::json::{self, Json};
use bgp_tune::gate::{self, GateReport};

/// A parse failure, typed by the schema that rejected the document.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The text is not JSON at all.
    NotJson(String),
    /// JSON, but the `schema` tag is absent or unrecognized.
    UnknownSchema(String),
    /// A malformed `bgp-bench-gate-v1` suite report.
    Gate(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NotJson(e) => write!(f, "not JSON: {e}"),
            IngestError::UnknownSchema(s) => write!(f, "unknown schema {s:?}"),
            IngestError::Gate(e) => write!(f, "malformed gate report: {e}"),
        }
    }
}

/// Any successfully ingested document.
#[derive(Debug, Clone)]
pub enum Ingested {
    Gate(Box<GateReport>),
}

/// Parse any supported perf artifact, dispatching on its `schema` tag.
pub fn ingest(text: &str) -> Result<Ingested, IngestError> {
    let doc = json::parse(text).map_err(IngestError::NotJson)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    match schema {
        gate::GATE_SCHEMA => GateReport::parse(text)
            .map(|r| Ingested::Gate(Box::new(r)))
            .map_err(IngestError::Gate),
        other => Err(IngestError::UnknownSchema(other.to_string())),
    }
}

/// One gate report in the history, with its provenance unpacked.
#[derive(Debug, Clone)]
pub struct HistoryPoint {
    /// File name the point was loaded from (e.g. `BENCH_ci.json`).
    pub file: String,
    pub label: String,
    pub git_sha: String,
    /// Points order by this.
    pub seq: u64,
    pub scale: String,
    pub report: GateReport,
}

impl HistoryPoint {
    /// Value of gated series `id` in this point, if present.
    pub fn value(&self, id: &str) -> Option<f64> {
        self.report
            .entries
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.value)
    }
}

/// The loaded bench history: every parseable `BENCH_*.json` gate report in
/// one directory, in trajectory order.
#[derive(Debug, Default)]
pub struct History {
    /// Points in trajectory order: by `(seq, filename)`.
    pub points: Vec<HistoryPoint>,
    /// Files that looked like bench artifacts but did not ingest as gate
    /// reports: `(file, reason)`.
    pub skipped: Vec<(String, String)>,
}

impl History {
    /// Load every `BENCH_*.json` in `dir`.
    pub fn load_dir(dir: &Path) -> io::Result<History> {
        let mut names: Vec<String> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        let mut h = History::default();
        for name in names {
            let text = match fs::read_to_string(dir.join(&name)) {
                Ok(t) => t,
                Err(e) => {
                    h.skipped.push((name, format!("unreadable: {e}")));
                    continue;
                }
            };
            match ingest(&text) {
                Ok(Ingested::Gate(r)) => {
                    let meta = r.meta.clone().expect("parsed gate reports carry meta");
                    h.points.push(HistoryPoint {
                        file: name,
                        label: r.label.clone(),
                        git_sha: meta.git_sha,
                        seq: meta.seq,
                        scale: r.scale.clone(),
                        report: *r,
                    });
                }
                Err(e) => h.skipped.push((name, e.to_string())),
            }
        }
        // By (seq, filename): the sort is stable, and `names` was sorted.
        h.points.sort_by_key(|p| p.seq);
        Ok(h)
    }

    /// The trajectory of gated series `id`, restricted to points at
    /// `scale` (mixing scales would chart incomparable numbers): one
    /// `(point, value)` pair per point that carries the series, in
    /// trajectory order.
    pub fn series(&self, id: &str, scale: &str) -> Vec<(&HistoryPoint, f64)> {
        self.points
            .iter()
            .filter(|p| p.scale == scale)
            .filter_map(|p| p.value(id).map(|v| (p, v)))
            .collect()
    }

    /// Every distinct gated series id across points at `scale`, in first
    /// appearance order.
    pub fn gated_ids(&self, scale: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in self.points.iter().filter(|p| p.scale == scale) {
            for e in p.report.entries.iter().filter(|e| e.gated) {
                if !out.contains(&e.id) {
                    out.push(e.id.clone());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_doc(label: &str, seq: u64) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"label\": \"{label}\",\n  \"scale\": \"small\",\n  \
             \"meta\": {{\"schema\": \"{}\", \"label\": \"{label}\", \"git_sha\": \"abc\", \
             \"seq\": {seq}}},\n  \"entries\": [\n    {{\"id\": \"fig6/x\", \"unit\": \"us\", \
             \"better\": \"lower\", \"gated\": true, \"value\": {}}}\n  ]\n}}\n",
            gate::GATE_SCHEMA,
            gate::META_SCHEMA,
            10.0 + seq as f64
        )
    }

    #[test]
    fn malformed_gate_report_is_a_typed_error() {
        let bad = format!(
            "{{\"schema\": \"{}\", \"label\": \"ci\", \"scale\": \"small\"}}",
            gate::GATE_SCHEMA
        );
        assert!(matches!(ingest(&bad), Err(IngestError::Gate(_))));
        assert!(matches!(ingest("not json"), Err(IngestError::NotJson(_))));
        assert!(matches!(
            ingest("{\"schema\": \"who-knows-v9\"}"),
            Err(IngestError::UnknownSchema(_))
        ));
    }

    #[test]
    fn history_orders_by_seq_not_filename() {
        let dir = std::env::temp_dir().join("bgp_report_history_test");
        fs::create_dir_all(&dir).unwrap();
        // Written "out of order" on purpose; filenames pick a different
        // order than seqs to prove seq wins for stamped points.
        fs::write(dir.join("BENCH_zz.json"), gate_doc("zz", 1)).unwrap();
        fs::write(dir.join("BENCH_aa.json"), gate_doc("aa", 3)).unwrap();
        fs::write(dir.join("BENCH_junk.json"), "{]").unwrap();
        fs::write(dir.join("BENCH_other.json"), "{\"schema\": \"x\"}").unwrap();
        let h = History::load_dir(&dir).unwrap();
        let labels: Vec<&str> = h.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, vec!["zz", "aa"]);
        assert_eq!(h.skipped.len(), 2);
        let series = h.series("fig6/x", "small");
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].1, 13.0); // seq 3 point is last
        assert!(h.series("fig6/x", "paper").is_empty());
        assert_eq!(h.gated_ids("small"), vec!["fig6/x".to_string()]);
        for f in ["BENCH_zz", "BENCH_aa", "BENCH_junk", "BENCH_other"] {
            fs::remove_file(dir.join(format!("{f}.json"))).ok();
        }
    }
}
