//! The shared sweep engine: one calibrated measurement grid, many callers.
//!
//! Everything in this crate (and the `crossover` exhibit in `bgp-bench`)
//! measures through this module so that autotuning, crossover reporting,
//! and the regression gate all observe the *same* protocol: one `Mpi` per
//! swept configuration, a quiet machine per point (each `bcast` resets the
//! simulated machine — the Figure 5 microbenchmark's leading barrier), and
//! sim-time microseconds as the unit.

use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::tune::{alg_id, ar_alg_id, SelectionPolicy};
use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm, Mpi};
use bgp_sim::json;

/// Schema identifier of serialized sweep documents (see [`Sweep::to_json`]
/// / [`ArSweep::to_json`]; `bgp-report` ingests and re-validates them).
pub const SWEEP_SCHEMA: &str = "bgp-sweep-v1";

fn mode_str(mode: OpMode) -> &'static str {
    match mode {
        OpMode::Smp => "smp",
        OpMode::Dual => "dual",
        OpMode::Quad => "quad",
    }
}

fn sweep_json(
    op: &str,
    mode: OpMode,
    nodes: u32,
    alg_ids: &[&'static str],
    sizes: &[u64],
    micros: &[Vec<f64>],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json::escape(SWEEP_SCHEMA)));
    out.push_str(&format!("  \"op\": {},\n", json::escape(op)));
    out.push_str(&format!("  \"mode\": {},\n", json::escape(mode_str(mode))));
    out.push_str(&format!("  \"nodes\": {nodes},\n"));
    out.push_str(&format!(
        "  \"algs\": [{}],\n",
        alg_ids
            .iter()
            .map(|id| json::escape(id))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "  \"sizes\": [{}],\n",
        sizes
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"micros\": [\n");
    for (i, row) in micros.iter().enumerate() {
        out.push_str(&format!(
            "    [{}]{}\n",
            row.iter()
                .map(|&v| json::fmt_f64(v))
                .collect::<Vec<_>>()
                .join(", "),
            if i + 1 < micros.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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

/// Measured latencies of a set of algorithms over a size grid on one
/// machine configuration.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The swept configuration.
    pub cfg: MachineConfig,
    /// Algorithms, in column order.
    pub algs: Vec<BcastAlgorithm>,
    /// Message sizes, in row order.
    pub sizes: Vec<u64>,
    /// `micros[size_idx][alg_idx]` — simulated latency in µs.
    pub micros: Vec<Vec<f64>>,
}

impl Sweep {
    /// The latency column of `alg` as `(bytes, µs)` pairs.
    pub fn series(&self, alg: BcastAlgorithm) -> Option<Vec<(u64, f64)>> {
        let col = self.algs.iter().position(|&a| a == alg)?;
        Some(
            self.sizes
                .iter()
                .zip(&self.micros)
                .map(|(&s, row)| (s, row[col]))
                .collect(),
        )
    }

    /// Serialize as a [`SWEEP_SCHEMA`] document (`bgp-report` renders
    /// these as the paper-layout latency-vs-size figures).
    pub fn to_json(&self) -> String {
        sweep_json(
            "bcast",
            self.cfg.mode,
            self.cfg.node_count(),
            &self.algs.iter().map(|&a| alg_id(a)).collect::<Vec<_>>(),
            &self.sizes,
            &self.micros,
        )
    }

    /// The largest size at which `earlier` measures at or below `later`
    /// (`None` if `later` wins everywhere). This is the measured pairwise
    /// crossover: above the returned size, `later` wins every grid point.
    pub fn last_win(&self, earlier: BcastAlgorithm, later: BcastAlgorithm) -> Option<u64> {
        let e = self.algs.iter().position(|&a| a == earlier)?;
        let l = self.algs.iter().position(|&a| a == later)?;
        self.sizes
            .iter()
            .zip(&self.micros)
            .filter(|(_, row)| row[e] <= row[l])
            .map(|(&s, _)| s)
            .max()
    }
}

/// Measure every `(alg, size)` point on a fresh machine built from `cfg`.
///
/// The `Mpi` carries the static policy so sweeping never recursively
/// consults a tuning table (the sweep is what *produces* tables).
pub fn sweep_bcast(cfg: &MachineConfig, algs: &[BcastAlgorithm], sizes: &[u64]) -> Sweep {
    let mut mpi = Mpi::with_policy(cfg.clone(), SelectionPolicy::static_policy());
    let micros = sizes
        .iter()
        .map(|&bytes| {
            algs.iter()
                .map(|&alg| mpi.bcast(alg, bytes).as_micros_f64())
                .collect()
        })
        .collect();
    Sweep {
        cfg: cfg.clone(),
        algs: algs.to_vec(),
        sizes: sizes.to_vec(),
        micros,
    }
}

/// Measured allreduce latencies over a size grid (sizes are payload
/// bytes; the measured call reduces `bytes / 8` doubles).
#[derive(Debug, Clone)]
pub struct ArSweep {
    /// Algorithms, in column order.
    pub algs: Vec<AllreduceAlgorithm>,
    /// Payload sizes in bytes, in row order.
    pub sizes: Vec<u64>,
    /// `micros[size_idx][alg_idx]` — simulated latency in µs.
    pub micros: Vec<Vec<f64>>,
}

impl ArSweep {
    /// Serialize as a [`SWEEP_SCHEMA`] document. The allreduce sweep does
    /// not carry its config, so the swept shape is passed in.
    pub fn to_json(&self, cfg: &MachineConfig) -> String {
        sweep_json(
            "allreduce",
            cfg.mode,
            cfg.node_count(),
            &self.algs.iter().map(|&a| ar_alg_id(a)).collect::<Vec<_>>(),
            &self.sizes,
            &self.micros,
        )
    }

    /// The largest size at which `earlier` measures at or below `later`
    /// (`None` if `later` wins everywhere) — the measured pairwise
    /// crossover, same contract as [`Sweep::last_win`].
    pub fn last_win(&self, earlier: AllreduceAlgorithm, later: AllreduceAlgorithm) -> Option<u64> {
        let e = self.algs.iter().position(|&a| a == earlier)?;
        let l = self.algs.iter().position(|&a| a == later)?;
        self.sizes
            .iter()
            .zip(&self.micros)
            .filter(|(_, row)| row[e] <= row[l])
            .map(|(&s, _)| s)
            .max()
    }
}

/// Measure every allreduce `(alg, size)` point on a fresh machine.
pub fn sweep_allreduce(cfg: &MachineConfig, algs: &[AllreduceAlgorithm], sizes: &[u64]) -> ArSweep {
    let mut mpi = Mpi::with_policy(cfg.clone(), SelectionPolicy::static_policy());
    let micros = sizes
        .iter()
        .map(|&bytes| {
            algs.iter()
                .map(|&alg| mpi.allreduce(alg, (bytes / 8).max(1)).as_micros_f64())
                .collect()
        })
        .collect();
    ArSweep {
        algs: algs.to_vec(),
        sizes: sizes.to_vec(),
        micros,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;

    #[test]
    fn pow2_grid() {
        assert_eq!(pow2_sizes(64, 512), vec![64, 128, 256, 512]);
        assert_eq!(pow2_sizes(0, 2), vec![1, 2]);
        assert!(pow2_sizes(8, 4).is_empty());
    }

    #[test]
    fn sweep_measures_every_point() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(1 << 10, 8 << 10);
        let s = sweep_bcast(&cfg, &algs, &sizes);
        assert_eq!(s.micros.len(), sizes.len());
        assert!(s
            .micros
            .iter()
            .all(|row| row.len() == 2 && row.iter().all(|&v| v > 0.0)));
        let shmem = s.series(BcastAlgorithm::TreeShmem).unwrap();
        assert_eq!(shmem.len(), sizes.len());
        // Latency grows with size.
        assert!(shmem.last().unwrap().1 > shmem[0].1);
        assert!(s.series(BcastAlgorithm::TreeSmp).is_none());
    }

    #[test]
    fn allreduce_sweep_finds_the_node_aware_crossover() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [
            AllreduceAlgorithm::ShaddrSpecialized,
            AllreduceAlgorithm::NodeAwareRsAg,
        ];
        let sizes = pow2_sizes(64, 4 << 20);
        let s = sweep_allreduce(&cfg, &algs, &sizes);
        assert!(s.micros.iter().all(|row| row.iter().all(|&v| v > 0.0)));
        // The shared-address ring wins small sizes (node-aware pays
        // per-stage sync), loses somewhere below the top of the grid.
        let b = s
            .last_win(
                AllreduceAlgorithm::ShaddrSpecialized,
                AllreduceAlgorithm::NodeAwareRsAg,
            )
            .expect("shaddr must win somewhere");
        assert!(b < 4 << 20, "crossover at {b}");
    }

    #[test]
    fn sweep_json_parses_and_is_deterministic() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(1 << 10, 4 << 10);
        let s = sweep_bcast(&cfg, &algs, &sizes);
        let j = s.to_json();
        assert_eq!(j, sweep_bcast(&cfg, &algs, &sizes).to_json());
        let doc = json::parse(&j).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SWEEP_SCHEMA));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("bcast"));
        assert_eq!(doc.get("algs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            doc.get("micros").unwrap().as_arr().unwrap().len(),
            sizes.len()
        );
        let ar = sweep_allreduce(&cfg, &[AllreduceAlgorithm::RingCurrent], &sizes);
        let doc = json::parse(&ar.to_json(&cfg)).unwrap();
        assert_eq!(doc.get("op").unwrap().as_str(), Some("allreduce"));
    }

    #[test]
    fn last_win_finds_the_crossover() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(64, 4 << 20);
        let s = sweep_bcast(&cfg, &algs, &sizes);
        // The staged tree path must lose to the torus for large messages on
        // any shape, so the crossover exists and is below the top size.
        let b = s
            .last_win(BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr)
            .expect("shmem must win somewhere");
        assert!(b < 4 << 20, "crossover at {b}");
    }
}
