//! Measurement-driven tuning tables: the one source of algorithm selection.
//!
//! Crossovers move whenever an executor or a calibration constant changes,
//! so no pick is frozen in code. `bgp-tune` (the `crates/tune` generator)
//! sweeps every broadcast and allreduce path on the simulated machine,
//! derives the *measured* pairwise crossover points between the production
//! candidate paths, and emits a versioned table that this module parses and
//! serves at `Mpi` construction time.
//!
//! Layering: this module owns the table *format*, the selection-time
//! *policy* and the [`Tunable`] trait through which broadcast and allreduce
//! share every stage of the stack; `crates/tune` owns the sweep engine and
//! the confidence resampling that produce `tuning/default.json`.
//!
//! ## Table resolution (at [`SelectionPolicy::from_env`])
//!
//! A policy always holds a table:
//!
//! 1. `BGP_TUNE_TABLE=<path>` — an operator-provided table. If the file is
//!    missing, corrupt, or carries a stale schema version, the policy holds
//!    the builtin table instead and records a warning naming the variable
//!    and the error; every auto-selected operation then counts the
//!    `tune.fallback` probe counter.
//! 2. The builtin table — `tuning/default.json`, compiled in via
//!    `include_str!` so selection needs no filesystem access, and gated by
//!    `tune_table --check`. It has an entry for every mode.
//!
//! The builtin table's entry for the machine's mode also answers whatever
//! the held table cannot: an override with no entry for that mode, or a
//! pick that mode does not allow (see [`SelectionPolicy::select_info`]).
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
use std::sync::OnceLock;

use bgp_machine::{MachineConfig, OpMode};
use bgp_sim::json::{self, Json};
use bgp_sim::SimTime;

use crate::allreduce::AllreduceAlgorithm;
use crate::datatype::Datatype;
use crate::select::BcastAlgorithm;
use crate::Mpi;

/// Schema identifier a table must carry to be accepted. Bump on any
/// incompatible format change; old tables then fall back to the builtin
/// table instead of being misread.
pub const TABLE_SCHEMA: &str = "bgp-tune-table-v1";

/// Environment variable naming a table file that overrides the builtin one.
pub const TABLE_ENV: &str = "BGP_TUNE_TABLE";

/// The builtin table, checked in at `tuning/default.json` and regenerated
/// with `cargo run --release -p bgp-tune --bin tune_table`.
pub const BUILTIN_TABLE_JSON: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tuning/default.json"
));

/// An operation whose algorithm is picked by message size: everything the
/// tuning stack (sweep, crossover regions, table I/O, selection, figures)
/// needs to know about one algorithm family.
pub trait Tunable: Copy + PartialEq + fmt::Debug {
    /// The operation's name in sweep documents.
    const OP: &'static str;
    /// The key of this operation's region list in a table entry.
    const KEY: &'static str;

    /// Stable identifier in table and sweep JSON.
    fn id(self) -> &'static str;

    /// Inverse of [`Tunable::id`].
    fn from_id(id: &str) -> Option<Self>;

    /// Whether an entry measured in `mode` may pick this algorithm.
    fn allowed_in(self, _mode: OpMode) -> bool {
        true
    }

    /// The entry's ordered regions for this operation.
    fn regions(entry: &ShapeEntry) -> &[Region<Self>];

    /// Run one operation of `bytes` payload bytes on a quiet machine.
    fn run(self, mpi: &mut Mpi, bytes: u64) -> SimTime;
}

impl Tunable for BcastAlgorithm {
    const OP: &'static str = "bcast";
    const KEY: &'static str = "regions";

    fn id(self) -> &'static str {
        match self {
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

    fn from_id(id: &str) -> Option<Self> {
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

    fn allowed_in(self, mode: OpMode) -> bool {
        !self.requires_smp() || mode == OpMode::Smp
    }

    fn regions(entry: &ShapeEntry) -> &[Region<Self>] {
        &entry.regions
    }

    fn run(self, mpi: &mut Mpi, bytes: u64) -> SimTime {
        mpi.bcast(self, bytes)
    }
}

impl Tunable for AllreduceAlgorithm {
    const OP: &'static str = "allreduce";
    const KEY: &'static str = "ar_regions";

    fn id(self) -> &'static str {
        match self {
            AllreduceAlgorithm::RingCurrent => "ring_current",
            AllreduceAlgorithm::ShaddrSpecialized => "shaddr_specialized",
            AllreduceAlgorithm::NodeAwareRsAg => "node_aware_rsag",
        }
    }

    fn from_id(id: &str) -> Option<Self> {
        Some(match id {
            "ring_current" => AllreduceAlgorithm::RingCurrent,
            "shaddr_specialized" => AllreduceAlgorithm::ShaddrSpecialized,
            "node_aware_rsag" => AllreduceAlgorithm::NodeAwareRsAg,
            _ => return None,
        })
    }

    fn regions(entry: &ShapeEntry) -> &[Region<Self>] {
        &entry.ar_regions
    }

    /// Reduces `bytes / 8` doubles (at least one).
    fn run(self, mpi: &mut Mpi, bytes: u64) -> SimTime {
        mpi.allreduce(self, (bytes / 8).max(1))
    }
}

/// Stable identifier of a mode in table and sweep JSON.
pub fn mode_id(mode: OpMode) -> &'static str {
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
    /// Ordered broadcast selection regions.
    pub regions: Vec<Region>,
    /// Ordered allreduce selection regions.
    pub ar_regions: Vec<Region<AllreduceAlgorithm>>,
}

impl ShapeEntry {
    /// The broadcast region pick for a message of `bytes`.
    pub fn select(&self, bytes: u64) -> BcastAlgorithm {
        pick(&self.regions, bytes)
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
    /// Parse and validate a table document. Keys the format does not
    /// define (such as the `models` blocks of older tables) are ignored.
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
            entries.push(ShapeEntry {
                mode,
                nodes,
                regions: parse_regions(e, mode)?,
                ar_regions: parse_regions(e, mode)?,
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
                "    {{\"mode\": {}, \"nodes\": {},\n",
                json::escape(mode_id(e.mode)),
                e.nodes
            ));
            write_regions(&mut out, &e.regions);
            out.push_str(",\n");
            write_regions(&mut out, &e.ar_regions);
            out.push_str(&format!(
                "}}{}\n",
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

/// Parse and validate the [`Tunable::KEY`] region list of a table entry
/// measured in `mode`: a non-empty list of `{upto, alg, confidence}` with
/// strictly increasing bounds, only the last unbounded, every pick
/// [`Tunable::allowed_in`] the mode.
fn parse_regions<A: Tunable>(entry: &Json, mode: OpMode) -> Result<Vec<Region<A>>, TuneError> {
    let key = A::KEY;
    let bad = |m: &str| TuneError::Corrupt(format!("{key}: {m}"));
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
            (false, None) => return Err(bad("an unbounded region is not last")),
            (true, Some(_)) => return Err(bad("the last region is bounded")),
            (_, Some(b)) if prev.is_some_and(|p| b <= p) => {
                return Err(bad("bounds must increase"))
            }
            _ => {}
        }
        let id = r
            .get("alg")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("a region is missing alg"))?;
        let alg = A::from_id(id).ok_or_else(|| bad(&format!("unknown algorithm {id:?}")))?;
        if !alg.allowed_in(mode) {
            return Err(bad(&format!(
                "{id} is not allowed in a {} entry",
                mode_id(mode)
            )));
        }
        let confidence = r.get("confidence").and_then(Json::as_f64).unwrap_or(1.0);
        if !(0.0..=1.0).contains(&confidence) {
            return Err(bad("confidence must be in [0, 1]"));
        }
        regions.push(Region {
            upto,
            alg,
            confidence,
        });
    }
    Ok(regions)
}

/// Append the [`Tunable::KEY`] list of `regions` to a table document, one
/// region per line, up to and including its closing bracket.
fn write_regions<A: Tunable>(out: &mut String, regions: &[Region<A>]) {
    out.push_str(&format!("     \"{}\": [\n", A::KEY));
    for (ri, r) in regions.iter().enumerate() {
        let upto = r.upto.map_or("null".to_string(), |b| b.to_string());
        out.push_str(&format!(
            "       {{\"upto\": {upto}, \"alg\": {}, \"confidence\": {}}}{}\n",
            json::escape(r.alg.id()),
            json::fmt_f64(r.confidence),
            if ri + 1 < regions.len() { "," } else { "" }
        ));
    }
    out.push_str("     ]");
}

/// The builtin table, parsed once. It is compiled in and gated by
/// `tune_table --check`, so a parse failure is a build defect.
pub fn builtin_table() -> &'static TuningTable {
    static BUILTIN: OnceLock<TuningTable> = OnceLock::new();
    BUILTIN.get_or_init(|| {
        TuningTable::parse(BUILTIN_TABLE_JSON).expect("the builtin tuning table must validate")
    })
}

/// Where a policy's table comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicySource {
    /// The compiled-in `tuning/default.json`.
    Builtin,
    /// A table loaded from the path in [`TABLE_ENV`].
    Env(String),
}

/// The selection policy an [`crate::Mpi`] instance carries: a validated
/// tuning table, with the builtin table answering what it cannot.
#[derive(Debug, Clone)]
pub struct SelectionPolicy {
    table: TuningTable,
    source: PolicySource,
    warning: Option<String>,
}

impl SelectionPolicy {
    /// The builtin table alone, without reading the environment (the
    /// autotuner's sweeps, the golden tests). Only the `*_auto` operations
    /// consult a policy; an operation that names its algorithm never does,
    /// so such callers read the same numbers under any policy.
    pub fn builtin() -> Self {
        Self::from_table(builtin_table().clone(), PolicySource::Builtin)
    }

    /// A policy over an explicit, already-validated table.
    pub fn from_table(table: TuningTable, source: PolicySource) -> Self {
        SelectionPolicy {
            table,
            source,
            warning: None,
        }
    }

    /// Resolve the policy: the `BGP_TUNE_TABLE` override when it loads,
    /// else the builtin table (see module docs for the fallback rules).
    pub fn from_env() -> Self {
        let Ok(path) = std::env::var(TABLE_ENV) else {
            return Self::builtin();
        };
        let loaded = std::fs::read_to_string(&path)
            .map_err(|e| TuneError::Unreadable(format!("{path}: {e}")))
            .and_then(|text| TuningTable::parse(&text));
        match loaded {
            Ok(table) => Self::from_table(table, PolicySource::Env(path)),
            Err(e) => SelectionPolicy {
                warning: Some(format!("{TABLE_ENV}={path}: {e}; using the builtin table")),
                ..Self::builtin()
            },
        }
    }

    /// The policy's table (the `Option` is kept for the `benchmark/`
    /// package's `tune.selected_alg_stable` read in `layers.rs`; it is
    /// always `Some`).
    pub fn table(&self) -> Option<&TuningTable> {
        Some(&self.table)
    }

    /// Where the held table comes from.
    pub fn source(&self) -> &PolicySource {
        &self.source
    }

    /// The load-time warning, if the override failed and the builtin
    /// table took its place.
    pub fn warning(&self) -> Option<&str> {
        self.warning.as_deref()
    }

    /// Select an algorithm for `bytes`, and report whether the table the
    /// policy was resolved to answered (`false` = the builtin table
    /// answered in its place: the override failed to load, has no entry
    /// for this mode, or picks what this mode does not allow).
    pub fn select_info<A: Tunable>(&self, cfg: &MachineConfig, bytes: u64) -> (A, bool) {
        let held = self
            .table
            .entry_for(cfg)
            .map(|entry| pick(A::regions(entry), bytes))
            .filter(|alg| alg.allowed_in(cfg.mode));
        match held {
            Some(alg) => (alg, self.warning.is_none()),
            None => {
                let entry = builtin_table()
                    .entry_for(cfg)
                    .expect("the builtin table has an entry for every mode");
                (pick(A::regions(entry), bytes), false)
            }
        }
    }

    /// The policy's pick for a contiguous broadcast of `bytes`.
    pub fn select_bcast(&self, cfg: &MachineConfig, bytes: u64) -> BcastAlgorithm {
        self.select_info(cfg, bytes).0
    }

    /// The policy's pick for an allreduce of `bytes`.
    pub fn select_allreduce(&self, cfg: &MachineConfig, bytes: u64) -> AllreduceAlgorithm {
        self.select_info(cfg, bytes).0
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
        dtype.demote(self.select_bcast(cfg, bytes))
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

    fn ids_round_trip<A: Tunable>(algs: &[A], unknown: &str) {
        for &alg in algs {
            assert_eq!(A::from_id(alg.id()), Some(alg));
        }
        assert_eq!(A::from_id(unknown), None);
    }

    #[test]
    fn alg_ids_round_trip() {
        ids_round_trip(
            &[
                BcastAlgorithm::TorusDirectPut,
                BcastAlgorithm::TorusFifo,
                BcastAlgorithm::TorusShaddr,
                BcastAlgorithm::TreeSmp,
                BcastAlgorithm::TreeShmem,
                BcastAlgorithm::TreeDmaFifo,
                BcastAlgorithm::TreeDmaDirectPut,
                BcastAlgorithm::TreeShaddr { caching: true },
                BcastAlgorithm::TreeShaddr { caching: false },
            ],
            "warp_drive",
        );
    }

    #[test]
    fn ar_alg_ids_round_trip() {
        ids_round_trip(
            &[
                AllreduceAlgorithm::RingCurrent,
                AllreduceAlgorithm::ShaddrSpecialized,
                AllreduceAlgorithm::NodeAwareRsAg,
            ],
            "warp_reduce",
        );
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
                    Region {
                        upto: Some(65536),
                        alg: AllreduceAlgorithm::ShaddrSpecialized,
                        confidence: 1.0,
                    },
                    Region {
                        upto: None,
                        alg: AllreduceAlgorithm::NodeAwareRsAg,
                        confidence: 0.75,
                    },
                ],
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

    /// A quad-only table answers quad picks itself; on an SMP machine it has
    /// no entry, and the builtin table's SMP entry answers.
    #[test]
    fn policy_falls_back_to_static_without_a_matching_entry() {
        let t = TuningTable::parse(&table_json(
            r#"{"upto": null, "alg": "torus_fifo", "confidence": 1}"#,
        ))
        .unwrap();
        let policy = SelectionPolicy::from_table(t, PolicySource::Builtin);
        let quad = MachineConfig::two_racks_quad();
        let (alg, tuned) = policy.select_info::<BcastAlgorithm>(&quad, 1 << 20);
        assert!(tuned);
        assert_eq!(alg, BcastAlgorithm::TorusFifo);
        let smp = MachineConfig::racks(2, OpMode::Smp);
        for bytes in [64, 4 << 20] {
            let (alg, tuned) = policy.select_info::<BcastAlgorithm>(&smp, bytes);
            assert!(!tuned);
            assert_eq!(alg, builtin_table().entry_for(&smp).unwrap().select(bytes));
        }
        assert_eq!(
            policy.select_bcast(&smp, 64),
            BcastAlgorithm::TreeSmp,
            "the builtin SMP entry answers"
        );
    }

    #[test]
    fn builtin_table_parses_and_matches_the_paper_regimes() {
        let t = TuningTable::parse(BUILTIN_TABLE_JSON).expect("builtin table must validate");
        // Every mode has an entry, so the builtin fallback always answers.
        for mode in [OpMode::Smp, OpMode::Dual, OpMode::Quad] {
            assert!(
                t.entry_for(&MachineConfig::racks(1, mode)).is_some(),
                "no builtin entry for {mode:?}"
            );
        }
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
            pick(&e.ar_regions, 4096),
            AllreduceAlgorithm::ShaddrSpecialized,
            "small allreduce"
        );
        assert_eq!(
            pick(&e.ar_regions, 1 << 20),
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
            pick(&ok.entries[0].ar_regions, 2048),
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

    /// The quad x 64 entry as tables written before the cost-model fits
    /// were dropped carried it: with its `models` block.
    const ENTRY_WITH_MODELS: &str = r#"
    {"mode": "quad", "nodes": 64,
     "regions": [
       {"upto": 32768, "alg": "tree_shmem", "confidence": 0.975},
       {"upto": 131072, "alg": "tree_shaddr_caching", "confidence": 0.9375},
       {"upto": null, "alg": "torus_shaddr", "confidence": 1}
     ],
     "ar_regions": [
       {"upto": 32768, "alg": "shaddr_specialized", "confidence": 0.9875},
       {"upto": null, "alg": "node_aware_rsag", "confidence": 1}
     ],
     "models": [
       {"alg": "tree_shmem", "split_bytes": 16384, "lo": {"alpha_us": 3.951991423934512, "beta_us_per_byte": 0.0036649231835310706}, "hi": {"alpha_us": 6.176506335147414, "beta_us_per_byte": 0.002466981777141417}},
       {"alg": "tree_shaddr_caching", "split_bytes": 16384, "lo": {"alpha_us": 3.9564218300553686, "beta_us_per_byte": 0.004018047295375405}, "hi": {"alpha_us": 46.607223717977995, "beta_us_per_byte": 0.0012474177811158103}},
       {"alg": "tree_shaddr_nocaching", "split_bytes": 16384, "lo": {"alpha_us": 8.330324238611244, "beta_us_per_byte": 0.004043662880255316}, "hi": {"alpha_us": 46.603384303050674, "beta_us_per_byte": 0.0012474747000012808}},
       {"alg": "tree_dma_fifo", "split_bytes": 16384, "lo": {"alpha_us": 5.607693546379638, "beta_us_per_byte": 0.004979918913185567}, "hi": {"alpha_us": 21.502593867487676, "beta_us_per_byte": 0.0028712712819651794}},
       {"alg": "tree_dma_direct_put", "split_bytes": 16384, "lo": {"alpha_us": 4.107001597217799, "beta_us_per_byte": 0.004240382351365253}, "hi": {"alpha_us": 25.838718553624272, "beta_us_per_byte": 0.002066681395557424}},
       {"alg": "torus_shaddr", "split_bytes": 131072, "lo": {"alpha_us": 12.49106401812513, "beta_us_per_byte": 0.0015960291397138146}, "hi": {"alpha_us": 120.39114342649637, "beta_us_per_byte": 0.0004908859605611653}},
       {"alg": "torus_fifo", "split_bytes": 65536, "lo": {"alpha_us": 7.4533146313887295, "beta_us_per_byte": 0.002350870301509779}, "hi": {"alpha_us": 158.89719320488584, "beta_us_per_byte": 0.001007815332708858}},
       {"alg": "torus_direct_put", "split_bytes": 32768, "lo": {"alpha_us": 6.739533203360272, "beta_us_per_byte": 0.0024397005755346954}, "hi": {"alpha_us": 123.40392932123218, "beta_us_per_byte": 0.0012788131052865477}}
     ]}"#;

    #[test]
    fn an_entry_with_models_parses_and_selects_like_the_regenerated_one() {
        let old = TuningTable::parse(&format!(
            r#"{{"schema": "{TABLE_SCHEMA}", "generator": "older", "seed": 182, "resamples": 8,
                "entries": [{ENTRY_WITH_MODELS}]}}"#
        ))
        .expect("a table with models blocks still parses");
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let builtin = TuningTable::parse(BUILTIN_TABLE_JSON).unwrap();
        let fresh = builtin.entry_for(&cfg).unwrap();
        assert_eq!((fresh.mode, fresh.nodes), (OpMode::Quad, 64));
        assert_eq!(old.entries[0], *fresh);
        let (old, fresh) = (
            SelectionPolicy::from_table(old, PolicySource::Builtin),
            SelectionPolicy::from_table(builtin, PolicySource::Builtin),
        );
        for shift in 0..=32 {
            let bytes = 1u64 << shift;
            assert_eq!(
                old.select_info::<BcastAlgorithm>(&cfg, bytes),
                fresh.select_info::<BcastAlgorithm>(&cfg, bytes),
                "bcast @ {bytes}"
            );
            assert_eq!(
                old.select_info::<AllreduceAlgorithm>(&cfg, bytes),
                fresh.select_info::<AllreduceAlgorithm>(&cfg, bytes),
                "allreduce @ {bytes}"
            );
        }
    }
}
