//! Results as data: the JSON a run prints and stores, the table a person
//! reads, and `compare`, the tool for the two-sets acceptance run and for
//! later parent-vs-change pairs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bgp_sim::json::{self, escape, fmt_f64, Json};

use crate::harness::Metric;
use crate::spec::{Better, E2E};

/// One workload's result of one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Outputs verified and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The full record: every metric with its statistics.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            escape(&self.workload),
            self.seed,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"p50\": {}, \"q3\": {}, \"hi\": {}, \"hi_pct\": {}, \"n\": {}, \"exact\": {}}}",
                if i == 0 { "" } else { ", " },
                escape(&m.name),
                num(m.value),
                escape(&m.unit),
                num(m.q1),
                num(m.p50),
                num(m.q3),
                num(m.hi),
                num(m.hi_pct),
                m.n,
                m.exact
            );
        }
        s.push_str("}}");
        s
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (value and unit only).
    pub fn to_driver_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                escape(&m.name),
                num(m.value),
                escape(&m.unit)
            );
        }
        s.push_str("}}");
        s
    }

    pub fn from_json(v: &Json) -> Result<RunResult, String> {
        let f = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing number {k:?}"))
        };
        let metrics = match v.get("metrics") {
            Some(Json::Obj(m)) => m
                .iter()
                .map(|(name, m)| {
                    let g = |k: &str| {
                        m.get(k)
                            .and_then(Json::as_f64)
                            .ok_or(format!("metric {name}: missing {k:?}"))
                    };
                    Ok(Metric {
                        name: name.clone(),
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        value: g("value")?,
                        q1: g("q1")?,
                        p50: g("p50")?,
                        q3: g("q3")?,
                        hi: g("hi")?,
                        hi_pct: g("hi_pct")?,
                        n: g("n")? as usize,
                        exact: m.get("exact") == Some(&Json::Bool(true)),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("missing object \"metrics\"".to_string()),
        };
        Ok(RunResult {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing string \"workload\"")?
                .to_string(),
            seed: f("seed")? as u64,
            trace: f("trace")? != 0.0,
            attempted: f("attempted")? as u64,
            failed: f("failed")? as u64,
            metrics,
        })
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A JSON number with all its digits. Non-finite values (a rate over zero
/// time) cannot be written; they become 0 and the run is already failed.
fn num(v: f64) -> String {
    if v.is_finite() {
        fmt_f64(v)
    } else {
        "0".to_string()
    }
}

/// A results file: every workload's passes of one invocation.
pub fn results_json(results: &[RunResult]) -> String {
    let rows: Vec<String> = results
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    format!(
        "{{\n  \"schema\": \"bgp-benchmark-v1\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

pub fn parse_results(text: &str) -> Result<Vec<RunResult>, String> {
    let v = json::parse(text)?;
    if v.get("schema").and_then(Json::as_str) != Some("bgp-benchmark-v1") {
        return Err("not a bgp-benchmark-v1 results file".to_string());
    }
    v.get("results")
        .and_then(Json::as_arr)
        .ok_or("missing array \"results\"")?
        .iter()
        .map(RunResult::from_json)
        .collect()
}

/// The table a person reads: every metric by name with unit, the quartiles
/// and median of what the value was taken over, the tail percentile and n.
pub fn table(r: &RunResult) -> String {
    let mut s = format!(
        "{} ({} pass, seed {}): {} — {} ops attempted, {} failed\n",
        r.workload,
        if r.trace { "traced" } else { "untraced" },
        r.seed,
        if r.correct() {
            "outputs verified: PASS"
        } else {
            "outputs verified: FAIL"
        },
        r.attempted,
        r.failed
    );
    for m in &r.metrics {
        let _ = writeln!(
            s,
            "  {:<44} {:>16} {:<9} q1 {:<12} p50 {:<12} q3 {:<12} p{:<5} {:<12} n {}{}",
            m.name,
            short(m.value),
            m.unit,
            short(m.q1),
            short(m.p50),
            short(m.q3),
            m.hi_pct,
            short(m.hi),
            m.n,
            if m.exact { "  exact" } else { "" }
        );
    }
    s
}

/// Six significant digits for the table (the JSON keeps every digit).
fn short(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 0.001 && v.abs() < 1e9 {
        let digits = (5 - v.abs().max(1e-9).log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.5e}")
    }
}

/// The verdict on one workload × metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regression,
    /// The sub-run quartile spread of either side exceeds the bound, so
    /// "unchanged" cannot be claimed.
    Unresolved,
    /// An exact metric that repeats.
    Equal,
    /// An exact metric that differs.
    Mismatch,
    /// Present on one side only.
    Missing,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

fn spread(m: &Metric) -> f64 {
    if m.value == 0.0 {
        0.0
    } else {
        (m.q3 - m.q1).abs() / m.value.abs()
    }
}

pub fn judge(a: &Metric, b: &Metric, better: Better, bound: f64) -> Verdict {
    if a.exact || b.exact {
        return if a.value == b.value {
            Verdict::Equal
        } else {
            Verdict::Mismatch
        };
    }
    if worsening(a.value, b.value, better) > bound {
        Verdict::Regression
    } else if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Compare two results files. Returns the report and whether anything
/// regressed or mismatched.
pub fn compare(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut s = String::new();
    let mut bad = false;
    let key = |r: &RunResult| (r.workload.clone(), r.trace);
    let b_by: BTreeMap<_, _> = b.iter().map(|r| (key(r), r)).collect();
    for ra in a {
        let Some(rb) = b_by.get(&key(ra)) else {
            let _ = writeln!(s, "{}: only in the first file", ra.workload);
            continue;
        };
        let _ = writeln!(
            s,
            "{} ({}): failed {} -> {}",
            ra.workload,
            if ra.trace { "traced" } else { "untraced" },
            ra.failed,
            rb.failed
        );
        bad |= rb.failed > ra.failed;
        for ma in &ra.metrics {
            let e2e = E2E.iter().find(|m| m.name == ma.name);
            let verdict = match (rb.get(&ma.name), e2e) {
                (None, _) => Verdict::Missing,
                (Some(mb), Some(spec)) if !ra.trace => judge(ma, mb, spec.better, spec.bound),
                (Some(mb), _) if ma.exact || mb.exact => judge(ma, mb, Better::Lower, 0.0),
                // Per-layer timings have no bound: the delta is shown, not judged.
                (Some(_), _) => Verdict::Ok,
            };
            bad |= matches!(
                verdict,
                Verdict::Regression | Verdict::Mismatch | Verdict::Missing
            );
            let mb = rb.get(&ma.name);
            let delta = mb.map_or(f64::NAN, |mb| (mb.value - ma.value) / ma.value * 100.0);
            // Exact metrics that repeat are the expected case: keep the
            // report to what a reader must look at.
            if verdict == Verdict::Equal {
                continue;
            }
            let _ = writeln!(
                s,
                "  {:<44} {:>14} -> {:<14} {:>+8.2}%  {}{}",
                ma.name,
                short(ma.value),
                mb.map_or("-".to_string(), |m| short(m.value)),
                delta,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Equal => "equal",
                    Verdict::Mismatch => "MISMATCH (exact metric)",
                    Verdict::Missing => "MISSING",
                },
                e2e.filter(|_| !ra.trace).map_or(String::new(), |m| format!(
                    "  (bound {:.0}%, spread {:.1}% / {:.1}%)",
                    m.bound * 100.0,
                    spread(ma) * 100.0,
                    mb.map_or(0.0, spread) * 100.0
                )),
            );
        }
    }
    (s, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, q1: f64, q3: f64, exact: bool) -> Metric {
        Metric {
            name: "x".into(),
            unit: "us".into(),
            value,
            q1,
            p50: value,
            q3,
            hi: value,
            hi_pct: 50.0,
            n: 7,
            exact,
        }
    }

    #[test]
    fn verdicts() {
        let base = m(100.0, 99.0, 101.0, false);
        assert_eq!(
            judge(&base, &m(105.0, 104.0, 106.0, false), Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &m(115.0, 114.0, 116.0, false), Better::Lower, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&base, &m(115.0, 114.0, 116.0, false), Better::Higher, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &m(85.0, 84.0, 86.0, false), Better::Higher, 0.1),
            Verdict::Regression
        );
        assert_eq!(
            judge(&base, &m(101.0, 90.0, 110.0, false), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(
                &m(5.0, 5.0, 5.0, true),
                &m(5.0, 5.0, 5.0, true),
                Better::Lower,
                0.1
            ),
            Verdict::Equal
        );
        assert_eq!(
            judge(
                &m(5.0, 5.0, 5.0, true),
                &m(6.0, 6.0, 6.0, true),
                Better::Lower,
                0.1
            ),
            Verdict::Mismatch
        );
    }

    #[test]
    fn results_round_trip() {
        let r = RunResult {
            workload: "w".into(),
            seed: 3,
            trace: false,
            attempted: 10,
            failed: 0,
            metrics: vec![
                m(1.25, 1.0, 1.5, false),
                Metric {
                    name: "y".into(),
                    ..m(7.0, 7.0, 7.0, true)
                },
            ],
        };
        let back = parse_results(&results_json(std::slice::from_ref(&r))).unwrap();
        assert_eq!(back, vec![r]);
    }
}
