//! The bench-history model: every perf artifact the repo emits, parsed
//! into one schema-tagged store.
//!
//! Three input schemas exist today:
//!
//! * `bgp-bench-gate-v1` — gate suites (`bench_gate`);
//! * `bgp-svc-soak-v1` — multi-tenant soak summaries (`svc_soak --json`);
//! * `bgp-sweep-v1` — serialized latency sweeps (`Sweep::to_json`).
//!
//! Every parse failure is a *typed* [`IngestError`] naming the schema it
//! happened in — malformed inputs must never panic the reporter (tested
//! per schema in the unit tests below).
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
use bgp_tune::sweep::SWEEP_SCHEMA;

/// Soak summary schema id (written by `svc_soak --json`).
pub const SOAK_SCHEMA: &str = "bgp-svc-soak-v1";

/// A parse failure, typed by the schema that rejected the document.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// The text is not JSON at all.
    NotJson(String),
    /// JSON, but the `schema` tag is absent or unrecognized.
    UnknownSchema(String),
    /// A malformed `bgp-bench-gate-v1` suite report.
    Gate(String),
    /// A malformed `bgp-svc-soak-v1` summary.
    Soak(String),
    /// A malformed `bgp-sweep-v1` document.
    Sweep(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::NotJson(e) => write!(f, "not JSON: {e}"),
            IngestError::UnknownSchema(s) => write!(f, "unknown schema {s:?}"),
            IngestError::Gate(e) => write!(f, "malformed gate report: {e}"),
            IngestError::Soak(e) => write!(f, "malformed soak summary: {e}"),
            IngestError::Sweep(e) => write!(f, "malformed sweep: {e}"),
        }
    }
}

/// A parsed `bgp-svc-soak-v1` summary (the fields the report renders).
#[derive(Debug, Clone)]
pub struct SoakDoc {
    pub jain: f64,
    pub aggregate_ops_per_s: f64,
    pub flood_p99_vs_solo: f64,
    pub tenants: usize,
}

/// A parsed `bgp-sweep-v1` document.
#[derive(Debug, Clone)]
pub struct SweepDoc {
    pub op: String,
    pub mode: String,
    pub nodes: u64,
    pub algs: Vec<String>,
    pub sizes: Vec<u64>,
    /// `micros[size_idx][alg_idx]`.
    pub micros: Vec<Vec<f64>>,
}

/// Any successfully ingested document.
#[derive(Debug, Clone)]
pub enum Ingested {
    Gate(Box<GateReport>),
    Soak(SoakDoc),
    Sweep(SweepDoc),
}

fn soak_num(doc: &Json, outer: &str, key: &str) -> Result<f64, IngestError> {
    doc.get(outer)
        .and_then(|o| o.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| IngestError::Soak(format!("missing {outer}.{key}")))
}

fn parse_soak(doc: &Json) -> Result<SoakDoc, IngestError> {
    let tenants = doc
        .get("fairness")
        .and_then(|f| f.get("tenants"))
        .and_then(Json::as_arr)
        .ok_or_else(|| IngestError::Soak("missing fairness.tenants".into()))?
        .len();
    Ok(SoakDoc {
        jain: soak_num(doc, "fairness", "jain")?,
        aggregate_ops_per_s: soak_num(doc, "fairness", "aggregate_ops_per_s")?,
        flood_p99_vs_solo: soak_num(doc, "flood", "p99_vs_solo")?,
        tenants,
    })
}

fn parse_sweep(doc: &Json) -> Result<SweepDoc, IngestError> {
    let err = |m: &str| IngestError::Sweep(m.to_string());
    let str_field = |k: &str| {
        doc.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| IngestError::Sweep(format!("missing {k}")))
    };
    let algs = doc
        .get("algs")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("missing algs"))?
        .iter()
        .map(|a| {
            a.as_str()
                .map(str::to_string)
                .ok_or_else(|| err("non-string alg"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let sizes = doc
        .get("sizes")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("missing sizes"))?
        .iter()
        .map(|s| {
            s.as_f64()
                .filter(|v| v.fract() == 0.0 && *v >= 0.0)
                .map(|v| v as u64)
                .ok_or_else(|| err("non-integer size"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let micros = doc
        .get("micros")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("missing micros"))?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| err("micros row is not an array"))?
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| err("non-number micros cell")))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    if micros.len() != sizes.len() || micros.iter().any(|r| r.len() != algs.len()) {
        return Err(err("micros shape does not match sizes x algs"));
    }
    Ok(SweepDoc {
        op: str_field("op")?,
        mode: str_field("mode")?,
        nodes: doc
            .get("nodes")
            .and_then(Json::as_f64)
            .filter(|v| v.fract() == 0.0 && *v > 0.0)
            .map(|v| v as u64)
            .ok_or_else(|| err("missing nodes"))?,
        algs,
        sizes,
        micros,
    })
}

/// Parse any supported perf artifact, dispatching on its `schema` tag.
pub fn ingest(text: &str) -> Result<Ingested, IngestError> {
    let doc = json::parse(text).map_err(IngestError::NotJson)?;
    let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
    match schema {
        gate::GATE_SCHEMA => GateReport::parse(text)
            .map(|r| Ingested::Gate(Box::new(r)))
            .map_err(IngestError::Gate),
        SOAK_SCHEMA => parse_soak(&doc).map(Ingested::Soak),
        SWEEP_SCHEMA => parse_sweep(&doc).map(Ingested::Sweep),
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
                Ok(_) => h.skipped.push((name, "not a gate report".into())),
                Err(e) => h.skipped.push((name, e.to_string())),
            }
        }
        // By (seq, filename): the sort is stable, and `names` was sorted.
        h.points.sort_by_key(|p| p.seq);
        Ok(h)
    }

    /// The trajectory of gated series `id`, restricted to points at
    /// `scale` (mixing scales would chart incomparable numbers):
    /// `(point_index_within_result, point, value)`.
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
    fn malformed_soak_summary_is_a_typed_error() {
        let bad = format!("{{\"schema\": \"{SOAK_SCHEMA}\", \"fairness\": {{}}}}");
        assert!(matches!(ingest(&bad), Err(IngestError::Soak(_))));
        let ok = format!(
            "{{\"schema\": \"{SOAK_SCHEMA}\", \"fairness\": {{\"jain\": 0.99, \
             \"aggregate_ops_per_s\": 1200.5, \"tenants\": [{{}}, {{}}]}}, \
             \"flood\": {{\"p99_vs_solo\": 1.4}}}}"
        );
        match ingest(&ok) {
            Ok(Ingested::Soak(s)) => {
                assert_eq!(s.tenants, 2);
                assert!((s.jain - 0.99).abs() < 1e-12);
                assert!((s.flood_p99_vs_solo - 1.4).abs() < 1e-12);
            }
            other => panic!("expected soak, got {other:?}"),
        }
    }

    #[test]
    fn malformed_sweep_is_a_typed_error() {
        let missing = format!("{{\"schema\": \"{SWEEP_SCHEMA}\", \"op\": \"bcast\"}}");
        assert!(matches!(ingest(&missing), Err(IngestError::Sweep(_))));
        // Shape mismatch: 2 sizes but 1 micros row.
        let ragged = format!(
            "{{\"schema\": \"{SWEEP_SCHEMA}\", \"op\": \"bcast\", \"mode\": \"quad\", \
             \"nodes\": 64, \"algs\": [\"tree_shmem\"], \"sizes\": [64, 128], \
             \"micros\": [[1.0]]}}"
        );
        assert!(matches!(ingest(&ragged), Err(IngestError::Sweep(_))));
        let ok = format!(
            "{{\"schema\": \"{SWEEP_SCHEMA}\", \"op\": \"bcast\", \"mode\": \"quad\", \
             \"nodes\": 64, \"algs\": [\"tree_shmem\"], \"sizes\": [64, 128], \
             \"micros\": [[1.0], [2.0]]}}"
        );
        match ingest(&ok) {
            Ok(Ingested::Sweep(s)) => {
                assert_eq!(s.sizes, vec![64, 128]);
                assert_eq!(s.algs, vec!["tree_shmem"]);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
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
