//! Measurement-driven tuning tables for algorithm selection.
//!
//! The static thresholds in [`crate::select`] encode the paper's reported
//! crossovers, but crossovers move whenever an executor or a calibration
//! constant changes. `bgp-tune` (the `crates/tune` generator) sweeps every
//! broadcast path on the simulated machine, derives the *measured* pairwise
//! crossover points between the production candidate paths, and emits a
//! versioned table that this module parses and serves at `Mpi` construction
//! time.
//!
//! Layering: this module owns the table *format* and the selection-time
//! *policy* (so `bgp_mpi::select` has no dependency on the generator);
//! `crates/tune` owns the sweep engine, the cost-model fits, and the
//! confidence resampling that produce `tuning/default.json`.
//!
//! ## Table resolution order (at [`SelectionPolicy::from_env`])
//!
//! 1. `BGP_TUNE_TABLE=<path>` — an operator-provided table. If the file is
//!    missing, corrupt, or carries a stale schema version, the policy falls
//!    back to the **static thresholds** (never to the builtin table: an
//!    explicit override that fails should not silently pick different
//!    numbers) and records a warning, surfaced as the `tune.fallback` probe
//!    counter on auto-selected operations.
//! 2. The builtin table — `tuning/default.json`, compiled in via
//!    `include_str!` so selection needs no filesystem access.
//! 3. The static thresholds of [`crate::select::select_bcast`].
//!
//! ## Safety clamps
//!
//! A table can never force a semantically wrong pick:
//!
//! * algorithms with [`BcastAlgorithm::requires_smp`] are rejected at parse
//!   time outside `"smp"` entries (and again at selection time, defensively);
//! * non-contiguous datatypes are demoted off the `Shaddr`/counter paths
//!   (§IV-C: message counters need connection-ordered contiguous flow) no
//!   matter what the table says — see [`SelectionPolicy::select_bcast_typed`].

use std::fmt;

use bgp_machine::{MachineConfig, OpMode};
use bgp_sim::json::{self, Json};

use crate::allreduce::AllreduceAlgorithm;
use crate::datatype::{demote_noncontiguous, Datatype};
use crate::select::{select_allreduce, select_bcast, BcastAlgorithm};

/// Schema identifier a table must carry to be accepted. Bump on any
/// incompatible format change; old tables then fall back to the static
/// policy instead of being misread.
pub const TABLE_SCHEMA: &str = "bgp-tune-table-v1";

/// Environment variable naming a table file that overrides the builtin one.
pub const TABLE_ENV: &str = "BGP_TUNE_TABLE";

/// The builtin table, checked in at `tuning/default.json` and regenerated
/// with `cargo run --release -p bgp-tune --bin tune_table`.
pub const BUILTIN_TABLE_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tuning/default.json"
));

/// Stable identifier of an algorithm in table JSON.
pub fn alg_id(alg: BcastAlgorithm) -> &'static str {
    match alg {
        BcastAlgorithm::TorusDirectPut => "torus_direct_put",
        BcastAlgorithm::TorusFifo => "torus_fifo",
        BcastAlgorithm::TorusShaddr => "torus_shaddr",
        BcastAlgorithm::TreeSmp => "tree_smp",
        BcastAlgorithm::TreeShmem => "tree_shmem",
        BcastAlgorithm::TreeDmaFifo => "tree_dma_fifo",
        BcastAlgorithm::TreeDmaDirectPut => "tree_dma_direct_put",
        BcastAlgorithm::TreeShaddr { caching: true } => "tree_shaddr_caching",
        BcastAlgorithm::TreeShaddr { caching: false } => "tree_shaddr_nocaching",
    }
}

/// Stable identifier of an allreduce algorithm in table JSON.
pub fn ar_alg_id(alg: AllreduceAlgorithm) -> &'static str {
    match alg {
        AllreduceAlgorithm::RingCurrent => "ring_current",
        AllreduceAlgorithm::ShaddrSpecialized => "shaddr_specialized",
        AllreduceAlgorithm::NodeAwareRsAg => "node_aware_rsag",
    }
}

/// Inverse of [`ar_alg_id`].
pub fn ar_alg_from_id(id: &str) -> Option<AllreduceAlgorithm> {
    Some(match id {
        "ring_current" => AllreduceAlgorithm::RingCurrent,
        "shaddr_specialized" => AllreduceAlgorithm::ShaddrSpecialized,
        "node_aware_rsag" => AllreduceAlgorithm::NodeAwareRsAg,
        _ => return None,
    })
}

/// Inverse of [`alg_id`].
pub fn alg_from_id(id: &str) -> Option<BcastAlgorithm> {
    Some(match id {
        "torus_direct_put" => BcastAlgorithm::TorusDirectPut,
        "torus_fifo" => BcastAlgorithm::TorusFifo,
        "torus_shaddr" => BcastAlgorithm::TorusShaddr,
        "tree_smp" => BcastAlgorithm::TreeSmp,
        "tree_shmem" => BcastAlgorithm::TreeShmem,
        "tree_dma_fifo" => BcastAlgorithm::TreeDmaFifo,
        "tree_dma_direct_put" => BcastAlgorithm::TreeDmaDirectPut,
        "tree_shaddr_caching" => BcastAlgorithm::TreeShaddr { caching: true },
        "tree_shaddr_nocaching" => BcastAlgorithm::TreeShaddr { caching: false },
        _ => return None,
    })
}

fn mode_id(mode: OpMode) -> &'static str {
    match mode {
        OpMode::Smp => "smp",
        OpMode::Dual => "dual",
        OpMode::Quad => "quad",
    }
}

fn mode_from_id(id: &str) -> Option<OpMode> {
    Some(match id {
        "smp" => OpMode::Smp,
        "dual" => OpMode::Dual,
        "quad" => OpMode::Quad,
        _ => return None,
    })
}

/// Why a table could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The file named by [`TABLE_ENV`] could not be read.
    Unreadable(String),
    /// The document is not the expected schema version (stale or foreign).
    StaleSchema {
        /// What the document declared (empty if absent/not a string).
        found: String,
    },
    /// The document parsed as JSON but violates the table invariants.
    Corrupt(String),
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Unreadable(e) => write!(f, "table unreadable: {e}"),
            TuneError::StaleSchema { found } => write!(
                f,
                "stale table schema {found:?} (expected {TABLE_SCHEMA:?})"
            ),
            TuneError::Corrupt(e) => write!(f, "corrupt table: {e}"),
        }
    }
}

/// One linear piece of a fitted cost model: `t(bytes) = alpha + beta*bytes`
/// in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostPiece {
    /// Fixed latency, µs.
    pub alpha_us: f64,
    /// Marginal cost, µs per byte.
    pub beta_us_per_byte: f64,
}

impl CostPiece {
    /// Predicted time in µs.
    pub fn predict_us(&self, bytes: u64) -> f64 {
        self.alpha_us + self.beta_us_per_byte * bytes as f64
    }
}

/// Two-piece linear cost model (latency regime / bandwidth regime), fitted
/// by `bgp-tune` from the sweep measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sizes `<= split_bytes` use `lo`, larger ones `hi`.
    pub split_bytes: u64,
    /// The small-message piece.
    pub lo: CostPiece,
    /// The large-message piece.
    pub hi: CostPiece,
}

impl CostModel {
    /// Predicted time in µs for a `bytes`-sized broadcast.
    pub fn predict_us(&self, bytes: u64) -> f64 {
        if bytes <= self.split_bytes {
            self.lo.predict_us(bytes)
        } else {
            self.hi.predict_us(bytes)
        }
    }
}

/// One selection region: `alg` is the pick for sizes in
/// `(previous upto, upto]` (the last region has `upto == None`, unbounded).
#[derive(Debug, Clone, PartialEq)]
pub struct Region<A = BcastAlgorithm> {
    /// Inclusive upper size bound; `None` = no bound (must be last).
    pub upto: Option<u64>,
    /// The measured-optimal algorithm for this region.
    pub alg: A,
    /// Fraction of seeded resamples that kept this pick, in `[0, 1]`.
    pub confidence: f64,
}

/// One allreduce selection region.
pub type ArRegion = Region<AllreduceAlgorithm>;

/// The pick of an ordered region list for a message of `bytes`.
///
/// # Panics
///
/// On an empty list (a parsed table never has one).
pub fn pick<A: Copy>(regions: &[Region<A>], bytes: u64) -> A {
    regions
        .iter()
        .find(|r| r.upto.is_none_or(|b| bytes <= b))
        .or(regions.last())
        .expect("a region list is never empty")
        .alg
}

/// The table for one `(mode, machine shape)` point of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeEntry {
    /// Operating mode the regions were measured in.
    pub mode: OpMode,
    /// Node count of the swept partition (the shape key; selection picks
    /// the entry with the nearest node count in log space).
    pub nodes: u32,
    /// Ordered selection regions.
    pub regions: Vec<Region>,
    /// Ordered allreduce selection regions.
    pub ar_regions: Vec<ArRegion>,
    /// Fitted per-algorithm cost models (metadata: used by reports and the
    /// crossover exhibit, not by selection).
    pub models: Vec<(BcastAlgorithm, CostModel)>,
}

impl ShapeEntry {
    /// The region pick for a message of `bytes`.
    pub fn select(&self, bytes: u64) -> BcastAlgorithm {
        pick(&self.regions, bytes)
    }

    /// The allreduce region pick for a message of `bytes`.
    pub fn select_allreduce(&self, bytes: u64) -> AllreduceAlgorithm {
        pick(&self.ar_regions, bytes)
    }

    /// The fitted model for `alg`, if the table carries one.
    pub fn model(&self, alg: BcastAlgorithm) -> Option<&CostModel> {
        self.models.iter().find(|(a, _)| *a == alg).map(|(_, m)| m)
    }
}

/// A parsed, validated tuning table.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningTable {
    /// Free-form provenance string written by the generator.
    pub generator: String,
    /// Seed of the resampling pass that produced the confidences.
    pub seed: u64,
    /// Number of resamples behind the confidences.
    pub resamples: u32,
    /// One entry per swept `(mode, shape)` point.
    pub entries: Vec<ShapeEntry>,
}

impl TuningTable {
    /// Parse and validate a table document.
    pub fn parse(text: &str) -> Result<TuningTable, TuneError> {
        let doc = json::parse(text).map_err(|e| TuneError::Corrupt(format!("not JSON: {e}")))?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != TABLE_SCHEMA {
            return Err(TuneError::StaleSchema {
                found: schema.to_string(),
            });
        }
        let corrupt = |m: &str| TuneError::Corrupt(m.to_string());
        let generator = doc
            .get("generator")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        let seed = doc.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let resamples = doc.get("resamples").and_then(Json::as_f64).unwrap_or(0.0) as u32;
        let raw_entries = doc
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| corrupt("missing entries array"))?;
        if raw_entries.is_empty() {
            return Err(corrupt("entries array is empty"));
        }
        let mut entries = Vec::with_capacity(raw_entries.len());
        for e in raw_entries {
            let mode_s = e
                .get("mode")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("entry missing mode"))?;
            let mode =
                mode_from_id(mode_s).ok_or_else(|| corrupt(&format!("unknown mode {mode_s:?}")))?;
            let nodes =
                e.get("nodes")
                    .and_then(Json::as_f64)
                    .filter(|&n| n >= 1.0 && n == n.trunc())
                    .ok_or_else(|| corrupt("entry missing/invalid nodes"))? as u32;
            let regions = parse_regions(e, "regions", "region", |id| {
                let alg =
                    alg_from_id(id).ok_or_else(|| corrupt(&format!("unknown algorithm {id:?}")))?;
                if alg.requires_smp() && mode != OpMode::Smp {
                    return Err(corrupt(&format!(
                        "{id} requires SMP mode but the entry is {mode_s}"
                    )));
                }
                Ok(alg)
            })?;
            let ar_regions = parse_regions(e, "ar_regions", "ar region", |id| {
                ar_alg_from_id(id)
                    .ok_or_else(|| corrupt(&format!("unknown allreduce algorithm {id:?}")))
            })?;
            let mut models = Vec::new();
            if let Some(raw_models) = e.get("models").and_then(Json::as_arr) {
                for m in raw_models {
                    let alg_s = m
                        .get("alg")
                        .and_then(Json::as_str)
                        .ok_or_else(|| corrupt("model missing alg"))?;
                    let alg = alg_from_id(alg_s)
                        .ok_or_else(|| corrupt(&format!("unknown algorithm {alg_s:?}")))?;
                    let num = |obj: &Json, key: &str| -> Result<f64, TuneError> {
                        obj.get(key)
                            .and_then(Json::as_f64)
                            .filter(|v| v.is_finite())
                            .ok_or_else(|| corrupt(&format!("model missing {key}")))
                    };
                    let piece = |obj: &Json, key: &str| -> Result<CostPiece, TuneError> {
                        let p = obj
                            .get(key)
                            .ok_or_else(|| corrupt(&format!("model missing {key}")))?;
                        Ok(CostPiece {
                            alpha_us: num(p, "alpha_us")?,
                            beta_us_per_byte: num(p, "beta_us_per_byte")?,
                        })
                    };
                    models.push((
                        alg,
                        CostModel {
                            split_bytes: num(m, "split_bytes")? as u64,
                            lo: piece(m, "lo")?,
                            hi: piece(m, "hi")?,
                        },
                    ));
                }
            }
            entries.push(ShapeEntry {
                mode,
                nodes,
                regions,
                ar_regions,
                models,
            });
        }
        Ok(TuningTable {
            generator,
            seed,
            resamples,
            entries,
        })
    }

    /// Serialize in the checked-in `tuning/default.json` layout.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(TABLE_SCHEMA)));
        out.push_str(&format!(
            "  \"generator\": {},\n",
            json::escape(&self.generator)
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"resamples\": {},\n", self.resamples));
        out.push_str("  \"entries\": [\n");
        for (ei, e) in self.entries.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"mode\": {}, \"nodes\": {},\n     \"regions\": [\n",
                json::escape(mode_id(e.mode)),
                e.nodes
            ));
            write_regions(&mut out, &e.regions, alg_id);
            out.push_str("     \"ar_regions\": [\n");
            write_regions(&mut out, &e.ar_regions, ar_alg_id);
            out.push_str("     \"models\": [\n");
            for (mi, (alg, m)) in e.models.iter().enumerate() {
                let piece = |p: &CostPiece| {
                    format!(
                        "{{\"alpha_us\": {}, \"beta_us_per_byte\": {}}}",
                        json::fmt_f64(p.alpha_us),
                        json::fmt_f64(p.beta_us_per_byte)
                    )
                };
                out.push_str(&format!(
                    "       {{\"alg\": {}, \"split_bytes\": {}, \"lo\": {}, \"hi\": {}}}{}\n",
                    json::escape(alg_id(*alg)),
                    m.split_bytes,
                    piece(&m.lo),
                    piece(&m.hi),
                    if mi + 1 < e.models.len() { "," } else { "" }
                ));
            }
            out.push_str(&format!(
                "     ]}}{}\n",
                if ei + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The entry serving `cfg`: same mode (Dual borrows the quad entry when
    /// no dual entry exists), nearest node count in log space (ties prefer
    /// the smaller shape).
    pub fn entry_for(&self, cfg: &MachineConfig) -> Option<&ShapeEntry> {
        let pick = |mode: OpMode| -> Option<&ShapeEntry> {
            self.entries
                .iter()
                .filter(|e| e.mode == mode)
                .min_by(|a, b| {
                    let d = |e: &ShapeEntry| {
                        ((e.nodes.max(1) as f64).log2() - (cfg.node_count().max(1) as f64).log2())
                            .abs()
                    };
                    d(a).partial_cmp(&d(b)).unwrap().then(a.nodes.cmp(&b.nodes))
                })
        };
        match cfg.mode {
            OpMode::Smp => pick(OpMode::Smp),
            OpMode::Quad => pick(OpMode::Quad),
            OpMode::Dual => pick(OpMode::Dual).or_else(|| pick(OpMode::Quad)),
        }
    }
}

/// Parse and validate the region list under `key` of a table entry: a
/// non-empty list of `{upto, alg, confidence}` with strictly increasing
/// bounds, only the last unbounded. `what` names a region in error
/// messages; `alg_of` maps an algorithm id (and rejects what the entry may
/// not pick).
fn parse_regions<A>(
    entry: &Json,
    key: &str,
    what: &str,
    alg_of: impl Fn(&str) -> Result<A, TuneError>,
) -> Result<Vec<Region<A>>, TuneError> {
    let bad = |m: &str| TuneError::Corrupt(format!("{what} {m}"));
    let raw = entry
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| TuneError::Corrupt(format!("entry missing {key}")))?;
    if raw.is_empty() {
        return Err(TuneError::Corrupt(format!("entry has no {key}")));
    }
    let mut regions: Vec<Region<A>> = Vec::with_capacity(raw.len());
    for (i, r) in raw.iter().enumerate() {
        let upto = match r.get("upto") {
            Some(Json::Null) => None,
            Some(Json::Num(n)) if *n >= 1.0 && *n == n.trunc() => Some(*n as u64),
            _ => return Err(bad("upto must be a positive integer or null")),
        };
        let prev = regions.last().and_then(|p| p.upto);
        match (i + 1 == raw.len(), upto) {
            (false, None) => return Err(bad("is unbounded but not last")),
            (true, Some(_)) => return Err(bad("is last but bounded")),
            (_, Some(b)) if prev.is_some_and(|p| b <= p) => {
                return Err(bad("bounds must increase"))
            }
            _ => {}
        }
        let id = r
            .get("alg")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing alg"))?;
        let confidence = r.get("confidence").and_then(Json::as_f64).unwrap_or(1.0);
        if !(0.0..=1.0).contains(&confidence) {
            return Err(bad("confidence must be in [0, 1]"));
        }
        regions.push(Region {
            upto,
            alg: alg_of(id)?,
            confidence,
        });
    }
    Ok(regions)
}

/// Append `regions` to a table document, one per line, and close the list.
fn write_regions<A: Copy>(out: &mut String, regions: &[Region<A>], id: fn(A) -> &'static str) {
    for (ri, r) in regions.iter().enumerate() {
        let upto = r.upto.map_or("null".to_string(), |b| b.to_string());
        out.push_str(&format!(
            "       {{\"upto\": {upto}, \"alg\": {}, \"confidence\": {}}}{}\n",
            json::escape(id(r.alg)),
            json::fmt_f64(r.confidence),
            if ri + 1 < regions.len() { "," } else { "" }
        ));
    }
    out.push_str("     ],\n");
}

/// Where a policy's picks come from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySource {
    /// The static thresholds in [`crate::select`].
    Static,
    /// The compiled-in `tuning/default.json`.
    Builtin,
    /// A table loaded from the path in [`TABLE_ENV`].
    Env(String),
}

/// The selection policy an [`crate::Mpi`] instance carries: a validated
/// tuning table when one is available, the static thresholds otherwise.
#[derive(Debug, Clone)]
pub struct SelectionPolicy {
    table: Option<TuningTable>,
    source: PolicySource,
    warning: Option<String>,
}

impl SelectionPolicy {
    /// The static-thresholds policy (no table).
    pub fn static_policy() -> Self {
        SelectionPolicy {
            table: None,
            source: PolicySource::Static,
            warning: None,
        }
    }

    /// A policy over an explicit, already-validated table.
    pub fn from_table(table: TuningTable, source: PolicySource) -> Self {
        SelectionPolicy {
            table: Some(table),
            source,
            warning: None,
        }
    }

    /// Resolve the policy: `BGP_TUNE_TABLE` override, else the builtin
    /// table, else static (see module docs for the fallback rules).
    pub fn from_env() -> Self {
        if let Ok(path) = std::env::var(TABLE_ENV) {
            let loaded = std::fs::read_to_string(&path)
                .map_err(|e| TuneError::Unreadable(format!("{path}: {e}")))
                .and_then(|text| TuningTable::parse(&text));
            return match loaded {
                Ok(table) => SelectionPolicy {
                    table: Some(table),
                    source: PolicySource::Env(path),
                    warning: None,
                },
                Err(e) => SelectionPolicy {
                    table: None,
                    source: PolicySource::Static,
                    warning: Some(format!("{TABLE_ENV}={path}: {e}; using static thresholds")),
                },
            };
        }
        match TuningTable::parse(BUILTIN_TABLE_JSON) {
            Ok(table) => SelectionPolicy {
                table: Some(table),
                source: PolicySource::Builtin,
                warning: None,
            },
            Err(e) => SelectionPolicy {
                table: None,
                source: PolicySource::Static,
                warning: Some(format!(
                    "builtin tuning table rejected: {e}; using static thresholds"
                )),
            },
        }
    }

    /// The policy's table, when it has one.
    pub fn table(&self) -> Option<&TuningTable> {
        self.table.as_ref()
    }

    /// Where the picks come from.
    pub fn source(&self) -> &PolicySource {
        &self.source
    }

    /// The load-time warning, if the policy had to fall back.
    pub fn warning(&self) -> Option<&str> {
        self.warning.as_deref()
    }

    /// Select an algorithm, and report whether a table entry drove the pick
    /// (`false` = static thresholds answered).
    pub fn select_bcast_info(&self, cfg: &MachineConfig, bytes: u64) -> (BcastAlgorithm, bool) {
        if let Some(entry) = self.table.as_ref().and_then(|t| t.entry_for(cfg)) {
            let alg = entry.select(bytes);
            // Defensive clamp (parse validation already enforces this): a
            // mode-incompatible pick falls back to the static policy.
            if !alg.requires_smp() || cfg.mode == OpMode::Smp {
                return (alg, true);
            }
        }
        (select_bcast(cfg, bytes), false)
    }

    /// The policy's pick for a contiguous broadcast of `bytes`.
    pub fn select_bcast(&self, cfg: &MachineConfig, bytes: u64) -> BcastAlgorithm {
        self.select_bcast_info(cfg, bytes).0
    }

    /// Select an allreduce algorithm, and report whether a table entry
    /// drove the pick (`false` = static thresholds answered — no table or
    /// no matching entry).
    pub fn select_allreduce_info(
        &self,
        cfg: &MachineConfig,
        bytes: u64,
    ) -> (AllreduceAlgorithm, bool) {
        match self.table.as_ref().and_then(|t| t.entry_for(cfg)) {
            Some(e) => (e.select_allreduce(bytes), true),
            None => (select_allreduce(cfg, bytes), false),
        }
    }

    /// The policy's pick for an allreduce of `bytes`.
    pub fn select_allreduce(&self, cfg: &MachineConfig, bytes: u64) -> AllreduceAlgorithm {
        self.select_allreduce_info(cfg, bytes).0
    }

    /// Datatype-aware pick: contiguous layouts follow [`Self::select_bcast`];
    /// non-contiguous ones reuse the tuned region boundaries but are demoted
    /// off the counter (`Shaddr`) paths, which §IV-C restricts to
    /// connection-ordered contiguous flows. A table cannot override the
    /// demotion.
    pub fn select_bcast_typed(
        &self,
        cfg: &MachineConfig,
        bytes: u64,
        dtype: Datatype,
    ) -> BcastAlgorithm {
        let alg = self.select_bcast(cfg, bytes);
        if dtype.is_contiguous() {
            alg
        } else {
            demote_noncontiguous(alg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_json(regions: &str) -> String {
        format!(
            r#"{{"schema": "{TABLE_SCHEMA}", "generator": "test", "seed": 7, "resamples": 4,
                "entries": [{{"mode": "quad", "nodes": 2048, "regions": [{regions}],
                  "ar_regions": [{{"upto": null, "alg": "ring_current"}}]}}]}}"#
        )
    }

    #[test]
    fn alg_ids_round_trip() {
        for alg in [
            BcastAlgorithm::TorusDirectPut,
            BcastAlgorithm::TorusFifo,
            BcastAlgorithm::TorusShaddr,
            BcastAlgorithm::TreeSmp,
            BcastAlgorithm::TreeShmem,
            BcastAlgorithm::TreeDmaFifo,
            BcastAlgorithm::TreeDmaDirectPut,
            BcastAlgorithm::TreeShaddr { caching: true },
            BcastAlgorithm::TreeShaddr { caching: false },
        ] {
            assert_eq!(alg_from_id(alg_id(alg)), Some(alg));
        }
        assert_eq!(alg_from_id("warp_drive"), None);
    }

    #[test]
    fn parses_and_selects_by_region() {
        let t = TuningTable::parse(&table_json(
            r#"{"upto": 4096, "alg": "tree_shmem", "confidence": 1},
               {"upto": 65536, "alg": "tree_shaddr_caching", "confidence": 0.75},
               {"upto": null, "alg": "torus_shaddr", "confidence": 1}"#,
        ))
        .unwrap();
        let e = t.entry_for(&MachineConfig::two_racks_quad()).unwrap();
        assert_eq!(e.select(1), BcastAlgorithm::TreeShmem);
        assert_eq!(e.select(4096), BcastAlgorithm::TreeShmem);
        assert_eq!(e.select(4097), BcastAlgorithm::TreeShaddr { caching: true });
        assert_eq!(e.select(1 << 20), BcastAlgorithm::TorusShaddr);
    }

    #[test]
    fn stale_schema_is_its_own_error() {
        let doc = table_json(r#"{"upto": null, "alg": "tree_shmem"}"#)
            .replace(TABLE_SCHEMA, "bgp-tune-table-v0");
        assert!(matches!(
            TuningTable::parse(&doc),
            Err(TuneError::StaleSchema { .. })
        ));
    }

    #[test]
    fn corrupt_tables_are_rejected() {
        // Not JSON at all.
        assert!(matches!(
            TuningTable::parse("][nonsense"),
            Err(TuneError::Corrupt(_))
        ));
        // Unbounded region not last / bounded last region.
        for bad in [
            r#"{"upto": null, "alg": "tree_shmem"}, {"upto": 4096, "alg": "torus_shaddr"}"#,
            r#"{"upto": 4096, "alg": "tree_shmem"}"#,
            // Non-increasing bounds.
            r#"{"upto": 4096, "alg": "tree_shmem"}, {"upto": 4096, "alg": "torus_fifo"},
               {"upto": null, "alg": "torus_shaddr"}"#,
            // Unknown algorithm.
            r#"{"upto": null, "alg": "quantum_bcast"}"#,
            // SMP-only algorithm in a quad entry.
            r#"{"upto": null, "alg": "tree_smp"}"#,
            // Confidence out of range.
            r#"{"upto": null, "alg": "tree_shmem", "confidence": 1.5}"#,
        ] {
            assert!(
                matches!(
                    TuningTable::parse(&table_json(bad)),
                    Err(TuneError::Corrupt(_))
                ),
                "accepted: {bad}"
            );
        }
    }

    #[test]
    fn json_round_trips() {
        let t = TuningTable {
            generator: "round-trip".into(),
            seed: 99,
            resamples: 16,
            entries: vec![ShapeEntry {
                mode: OpMode::Quad,
                nodes: 64,
                regions: vec![
                    Region {
                        upto: Some(8192),
                        alg: BcastAlgorithm::TreeShmem,
                        confidence: 0.875,
                    },
                    Region {
                        upto: None,
                        alg: BcastAlgorithm::TorusShaddr,
                        confidence: 1.0,
                    },
                ],
                ar_regions: vec![
                    ArRegion {
                        upto: Some(65536),
                        alg: AllreduceAlgorithm::ShaddrSpecialized,
                        confidence: 1.0,
                    },
                    ArRegion {
                        upto: None,
                        alg: AllreduceAlgorithm::NodeAwareRsAg,
                        confidence: 0.75,
                    },
                ],
                models: vec![(
                    BcastAlgorithm::TreeShmem,
                    CostModel {
                        split_bytes: 4096,
                        lo: CostPiece {
                            alpha_us: 5.9,
                            beta_us_per_byte: 0.0031,
                        },
                        hi: CostPiece {
                            alpha_us: 1.2,
                            beta_us_per_byte: 0.0024,
                        },
                    },
                )],
            }],
        };
        let parsed = TuningTable::parse(&t.to_json()).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn nearest_shape_wins() {
        let t = TuningTable {
            generator: String::new(),
            seed: 0,
            resamples: 0,
            entries: vec![
                ShapeEntry {
                    mode: OpMode::Quad,
                    nodes: 64,
                    regions: vec![Region {
                        upto: None,
                        alg: BcastAlgorithm::TorusShaddr,
                        confidence: 1.0,
                    }],
                    ar_regions: vec![],
                    models: vec![],
                },
                ShapeEntry {
                    mode: OpMode::Quad,
                    nodes: 2048,
                    regions: vec![Region {
                        upto: None,
                        alg: BcastAlgorithm::TreeShmem,
                        confidence: 1.0,
                    }],
                    ar_regions: vec![],
                    models: vec![],
                },
            ],
        };
        let small = MachineConfig::test_small(OpMode::Quad); // 64 nodes
        let paper = MachineConfig::two_racks_quad(); // 2048 nodes
        assert_eq!(t.entry_for(&small).unwrap().nodes, 64);
        assert_eq!(t.entry_for(&paper).unwrap().nodes, 2048);
        // Dual mode borrows the quad entry when no dual entry exists.
        let dual = MachineConfig::racks(1, OpMode::Dual);
        assert!(t.entry_for(&dual).is_some());
        // SMP finds nothing in a quad-only table.
        let smp = MachineConfig::racks(1, OpMode::Smp);
        assert!(t.entry_for(&smp).is_none());
    }

    #[test]
    fn policy_falls_back_to_static_without_a_matching_entry() {
        let t = TuningTable::parse(&table_json(
            r#"{"upto": null, "alg": "torus_fifo", "confidence": 1}"#,
        ))
        .unwrap();
        let policy = SelectionPolicy::from_table(t, PolicySource::Builtin);
        let quad = MachineConfig::two_racks_quad();
        let (alg, tuned) = policy.select_bcast_info(&quad, 1 << 20);
        assert!(tuned);
        assert_eq!(alg, BcastAlgorithm::TorusFifo);
        // SMP machine, quad-only table: static thresholds answer.
        let smp = MachineConfig::racks(2, OpMode::Smp);
        let (alg, tuned) = policy.select_bcast_info(&smp, 64);
        assert!(!tuned);
        assert_eq!(alg, select_bcast(&smp, 64));
    }

    #[test]
    fn builtin_table_parses_and_matches_the_paper_regimes() {
        let t = TuningTable::parse(BUILTIN_TABLE_JSON).expect("builtin table must validate");
        let e = t.entry_for(&MachineConfig::two_racks_quad()).unwrap();
        assert_eq!(e.select(1024), BcastAlgorithm::TreeShmem, "short regime");
        assert_eq!(
            e.select(96 << 10),
            BcastAlgorithm::TreeShaddr { caching: true },
            "medium regime"
        );
        assert_eq!(
            e.select(2 << 20),
            BcastAlgorithm::TorusShaddr,
            "large regime"
        );
        // Allreduce regions: shared-address ring small, node-aware RS+AG
        // once the per-stage syncs amortize.
        assert_eq!(
            e.select_allreduce(4096),
            AllreduceAlgorithm::ShaddrSpecialized,
            "small allreduce"
        );
        assert_eq!(
            e.select_allreduce(1 << 20),
            AllreduceAlgorithm::NodeAwareRsAg,
            "large allreduce"
        );
    }

    #[test]
    fn ar_region_validation_rejects_bad_documents() {
        let with_ar = |ar: &str| {
            format!(
                r#"{{"schema": "{TABLE_SCHEMA}", "generator": "t", "seed": 1, "resamples": 1,
                    "entries": [{{"mode": "quad", "nodes": 64,
                      "regions": [{{"upto": null, "alg": "tree_shmem"}}],
                      "ar_regions": [{ar}]}}]}}"#
            )
        };
        // A valid document round-trips with its ar regions intact.
        let ok = TuningTable::parse(&with_ar(
            r#"{"upto": 1024, "alg": "shaddr_specialized"}, {"upto": null, "alg": "node_aware_rsag"}"#,
        ))
        .unwrap();
        assert_eq!(
            ok.entries[0].select_allreduce(2048),
            AllreduceAlgorithm::NodeAwareRsAg
        );
        assert_eq!(TuningTable::parse(&ok.to_json()).unwrap(), ok);
        for bad in [
            // No regions.
            "",
            // Unbounded region not last.
            r#"{"upto": null, "alg": "shaddr_specialized"}, {"upto": 4096, "alg": "node_aware_rsag"}"#,
            // Bounded last region.
            r#"{"upto": 4096, "alg": "shaddr_specialized"}"#,
            // Non-increasing bounds.
            r#"{"upto": 4096, "alg": "shaddr_specialized"}, {"upto": 4096, "alg": "ring_current"},
               {"upto": null, "alg": "node_aware_rsag"}"#,
            // Unknown algorithm.
            r#"{"upto": null, "alg": "quantum_allreduce"}"#,
            // Confidence out of range.
            r#"{"upto": null, "alg": "node_aware_rsag", "confidence": 2}"#,
        ] {
            assert!(
                matches!(
                    TuningTable::parse(&with_ar(bad)),
                    Err(TuneError::Corrupt(_))
                ),
                "accepted: {bad}"
            );
        }
        // An entry without ar_regions (a pre-allreduce-sweep table) is
        // refused like any other incomplete entry.
        let pre_sweep = format!(
            r#"{{"schema": "{TABLE_SCHEMA}", "generator": "t", "seed": 1, "resamples": 1,
                    "entries": [{{"mode": "quad", "nodes": 64,
                      "regions": [{{"upto": null, "alg": "tree_shmem"}}]}}]}}"#
        );
        assert_eq!(
            TuningTable::parse(&pre_sweep),
            Err(TuneError::Corrupt("entry missing ar_regions".into()))
        );
    }

    #[test]
    fn ar_alg_ids_round_trip() {
        for alg in [
            AllreduceAlgorithm::RingCurrent,
            AllreduceAlgorithm::ShaddrSpecialized,
            AllreduceAlgorithm::NodeAwareRsAg,
        ] {
            assert_eq!(ar_alg_from_id(ar_alg_id(alg)), Some(alg));
        }
        assert_eq!(ar_alg_from_id("warp_reduce"), None);
    }

    #[test]
    fn model_prediction_uses_the_right_piece() {
        let m = CostModel {
            split_bytes: 1024,
            lo: CostPiece {
                alpha_us: 10.0,
                beta_us_per_byte: 0.0,
            },
            hi: CostPiece {
                alpha_us: 0.0,
                beta_us_per_byte: 1.0,
            },
        };
        assert_eq!(m.predict_us(512), 10.0);
        assert_eq!(m.predict_us(2048), 2048.0);
    }
}
