//! The shared sweep engine: one calibrated measurement grid, many callers.
//!
//! Everything in this crate (and the `crossover` exhibit in `bgp-bench`)
//! measures through this module so that autotuning, crossover reporting,
//! and the regression gate all observe the *same* protocol: one `Mpi` per
//! swept configuration, a quiet machine per point (each operation resets
//! the simulated machine — the Figure 5 microbenchmark's leading barrier),
//! and sim-time microseconds as the unit. Broadcast and allreduce sweep
//! through the same code, generic over [`Tunable`].

use bgp_machine::MachineConfig;
use bgp_mpi::tune::{mode_id, SelectionPolicy, Tunable};
use bgp_mpi::{BcastAlgorithm, Mpi};
use bgp_sim::{json, SimTime};

/// Schema identifier of serialized sweep documents (see [`Sweep::to_json`];
/// `bgp-report` ingests and re-validates them).
pub const SWEEP_SCHEMA: &str = "bgp-sweep-v1";

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

/// Measured latencies of a set of algorithms over a size grid on one
/// machine configuration (sizes are payload bytes).
#[derive(Debug, Clone)]
pub struct Sweep<A = BcastAlgorithm> {
    /// The swept configuration.
    pub cfg: MachineConfig,
    /// Algorithms, in column order.
    pub algs: Vec<A>,
    /// Message sizes, in row order.
    pub sizes: Vec<u64>,
    /// `micros[size_idx][alg_idx]` — simulated latency in µs.
    pub micros: Vec<Vec<f64>>,
}

impl<A: Tunable> Sweep<A> {
    /// The latency column of `alg` as `(bytes, µs)` pairs.
    pub fn series(&self, alg: A) -> Option<Vec<(u64, f64)>> {
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
        let join = |items: Vec<String>| items.join(", ");
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(SWEEP_SCHEMA)));
        out.push_str(&format!("  \"op\": {},\n", json::escape(A::OP)));
        out.push_str(&format!(
            "  \"mode\": {},\n",
            json::escape(mode_id(self.cfg.mode))
        ));
        out.push_str(&format!("  \"nodes\": {},\n", self.cfg.node_count()));
        out.push_str(&format!(
            "  \"algs\": [{}],\n",
            join(self.algs.iter().map(|a| json::escape(a.id())).collect())
        ));
        out.push_str(&format!(
            "  \"sizes\": [{}],\n",
            join(self.sizes.iter().map(|s| s.to_string()).collect())
        ));
        out.push_str("  \"micros\": [\n");
        for (i, row) in self.micros.iter().enumerate() {
            out.push_str(&format!(
                "    [{}]{}\n",
                join(row.iter().map(|&v| json::fmt_f64(v)).collect()),
                if i + 1 < self.micros.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The largest size at which `earlier` measures at or below `later`
    /// (`None` if `later` wins everywhere). This is the measured pairwise
    /// crossover: above the returned size, `later` wins every grid point.
    pub fn last_win(&self, earlier: A, later: A) -> Option<u64> {
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
pub fn measure<A: Tunable>(cfg: &MachineConfig, algs: &[A], sizes: &[u64]) -> Sweep<A> {
    let mut mpi = Mpi::with_policy(cfg.clone(), SelectionPolicy::static_policy());
    let micros = sizes
        .iter()
        .map(|&bytes| {
            algs.iter()
                .map(|&alg| alg.run(&mut mpi, bytes).as_micros_f64())
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

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;
    use bgp_mpi::AllreduceAlgorithm;

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
        let s = measure(&cfg, &algs, &sizes);
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
    fn sweep_json_parses_and_is_deterministic() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let algs = [BcastAlgorithm::TreeShmem, BcastAlgorithm::TorusShaddr];
        let sizes = pow2_sizes(1 << 10, 4 << 10);
        let s = measure(&cfg, &algs, &sizes);
        let j = s.to_json();
        assert_eq!(j, measure(&cfg, &algs, &sizes).to_json());
        let doc = json::parse(&j).unwrap();
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(SWEEP_SCHEMA));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("bcast"));
        assert_eq!(doc.get("algs").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(
            doc.get("micros").unwrap().as_arr().unwrap().len(),
            sizes.len()
        );
        let ar = measure(&cfg, &[AllreduceAlgorithm::RingCurrent], &sizes);
        let doc = json::parse(&ar.to_json()).unwrap();
        assert_eq!(doc.get("op").unwrap().as_str(), Some("allreduce"));
    }

    /// Sweep `earlier` and `later` over 64 B .. 4 MiB on 64 nodes: both
    /// measure everywhere, and `later` takes over below the top size.
    fn crossover_below_the_top<A: Tunable>(earlier: A, later: A) {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let sizes = pow2_sizes(64, 4 << 20);
        let s = measure(&cfg, &[earlier, later], &sizes);
        assert!(s.micros.iter().all(|row| row.iter().all(|&v| v > 0.0)));
        let b = s
            .last_win(earlier, later)
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
