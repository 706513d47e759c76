//! The autotuner: measured crossover regions + resampled confidence.
//!
//! For each `(machine shape, mode)` grid point the tuner sweeps every
//! mode-compatible broadcast algorithm and the allreduce candidates over
//! the size grid, then derives each operation's selection regions from
//! **measured pairwise crossovers** between its production candidate
//! sequence (quad broadcast: staged-shmem tree → core-specialized Shaddr
//! tree → multi-color Shaddr torus; SMP broadcast: hardware tree → torus;
//! allreduce: shared-address ring → node-aware RS+AG): the boundary
//! between adjacent candidates is the largest size at which the earlier
//! path still measures at or below the later one. Above that size the
//! later path wins every measured point, so the regions are monotone by
//! construction — no algorithm flapping across the sweep, which is also
//! what `bgp_mpi::select`'s property tests demand of any policy. Both
//! operations run the same code, generic over `bgp_mpi::tune::Tunable`.
//!
//! Why pairwise crossovers and not per-size argmin? The measured landscape
//! is not globally ordered: on the paper machine the torus dips below the
//! tree paths around 8–32 KB before the tree Shaddr path wins back the
//! 64–128 KB band. A per-size argmin table would flap between networks
//! twice; the paper's selection framework (§V) is one latency path, one
//! medium path, one bandwidth path with two crossovers, and the tuner's job
//! is to *measure where the crossovers are*, not to invent a new structure.
//! The near-tie bands show up instead as reduced region confidence.
//!
//! Confidence: the sweep is re-evaluated `resamples` times with every
//! measurement perturbed by a seeded ±`perturb_pct`% (SplitMix64 — fully
//! deterministic), regions are re-derived, and each region's confidence is
//! the fraction of (resample, grid size) pairs that kept the same pick.

use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::tune::{pick, Region, ShapeEntry, Tunable, TuningTable};
use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm};
use bgp_sim::Rng;

use crate::sweep::{measure, pow2_sizes, Figure};

/// What to sweep and how to resample.
#[derive(Debug, Clone)]
pub struct AutotuneOpts {
    /// Machine shapes to sweep, as node counts (built via
    /// [`MachineConfig::with_nodes`]).
    pub shapes: Vec<u32>,
    /// Modes to sweep.
    pub modes: Vec<OpMode>,
    /// The message-size grid.
    pub sizes: Vec<u64>,
    /// Seed of the confidence resampling.
    pub seed: u64,
    /// Number of perturbed re-evaluations behind each confidence.
    pub resamples: u32,
    /// Per-measurement perturbation amplitude, percent.
    pub perturb_pct: f64,
}

impl AutotuneOpts {
    /// The configuration behind the checked-in `tuning/default.json`:
    /// quarter-rack, half-rack×2, and the paper's two-rack shape, quad and
    /// SMP modes, 64 B – 4 MB.
    pub fn paper() -> Self {
        AutotuneOpts {
            shapes: vec![64, 512, 2048],
            modes: vec![OpMode::Quad, OpMode::Smp],
            sizes: pow2_sizes(64, 4 << 20),
            seed: 0xB6,
            resamples: 8,
            perturb_pct: 5.0,
        }
    }

    /// A small, fast configuration for tests.
    pub fn quick() -> Self {
        AutotuneOpts {
            shapes: vec![64],
            modes: vec![OpMode::Quad],
            sizes: pow2_sizes(1 << 10, 1 << 20),
            seed: 0xB6,
            resamples: 4,
            perturb_pct: 5.0,
        }
    }
}

/// The production candidate sequence for `mode`, in crossover order
/// (latency path first, bandwidth path last).
pub fn candidates(mode: OpMode) -> Vec<BcastAlgorithm> {
    match mode {
        OpMode::Smp => vec![BcastAlgorithm::TreeSmp, BcastAlgorithm::TorusDirectPut],
        OpMode::Dual | OpMode::Quad => vec![
            BcastAlgorithm::TreeShmem,
            BcastAlgorithm::TreeShaddr { caching: true },
            BcastAlgorithm::TorusShaddr,
        ],
    }
}

/// Every algorithm worth measuring in `mode` (the sweep covers all of
/// them; regions select among [`candidates`] only).
pub fn measured_algorithms(mode: OpMode) -> Vec<BcastAlgorithm> {
    let mut algs = vec![
        BcastAlgorithm::TreeShmem,
        BcastAlgorithm::TreeShaddr { caching: true },
        BcastAlgorithm::TreeShaddr { caching: false },
        BcastAlgorithm::TreeDmaFifo,
        BcastAlgorithm::TreeDmaDirectPut,
        BcastAlgorithm::TorusShaddr,
        BcastAlgorithm::TorusFifo,
        BcastAlgorithm::TorusDirectPut,
    ];
    if mode == OpMode::Smp {
        algs.insert(0, BcastAlgorithm::TreeSmp);
    }
    algs
}

/// The production allreduce candidate sequence, in crossover order: the
/// shared-address ring is the latency path, the node-aware RS+AG the
/// bandwidth path (`RingCurrent` is the pre-paper baseline — measured by
/// the sweeps and the gate, never a production candidate).
pub fn ar_candidates() -> Vec<AllreduceAlgorithm> {
    vec![
        AllreduceAlgorithm::ShaddrSpecialized,
        AllreduceAlgorithm::NodeAwareRsAg,
    ]
}

/// Derive monotone selection regions from measured pairwise crossovers
/// (confidences are filled in by the resampling pass; this returns 1.0).
fn regions_from<A: Tunable>(sweep: &Figure, cands: &[A]) -> Vec<Region<A>> {
    let mut regions = Vec::new();
    let mut prev_bound = 0u64;
    for pair in cands.windows(2) {
        if let Some(b) = sweep.last_win(pair[0].id(), pair[1].id()) {
            if b > prev_bound {
                regions.push(Region {
                    upto: Some(b),
                    alg: pair[0],
                    confidence: 1.0,
                });
                prev_bound = b;
            }
        }
    }
    regions.push(Region {
        upto: None,
        alg: *cands.last().expect("candidates are never empty"),
        confidence: 1.0,
    });
    regions
}

/// Sweep `algs` on `cfg`, derive the regions among `cands` (a subset of
/// `algs`, in crossover order), and score each region's confidence with
/// `opts.resamples` seeded perturbations of the measurements: the fraction
/// of (resample, grid size) pairs whose re-derived pick agrees with the
/// base pick.
fn tuned_regions<A: Tunable>(
    cfg: &MachineConfig,
    algs: &[A],
    cands: &[A],
    opts: &AutotuneOpts,
    seed: u64,
) -> Vec<Region<A>> {
    let sweep = measure(cfg, algs, &opts.sizes);
    let mut regions = regions_from(&sweep, cands);
    let mut agree: Vec<u64> = vec![0; regions.len()];
    let mut total: Vec<u64> = vec![0; regions.len()];
    let mut rng = Rng::new(seed);
    for _ in 0..opts.resamples {
        let mut perturbed = sweep.clone();
        for row in &mut perturbed.rows {
            for v in row.values.iter_mut() {
                let amp = opts.perturb_pct / 100.0;
                *v *= 1.0 + rng.range_f64(-amp, amp);
            }
        }
        let resampled = regions_from(&perturbed, cands);
        for &bytes in &opts.sizes {
            let idx = regions
                .iter()
                .position(|r| r.upto.is_none_or(|b| bytes <= b))
                .unwrap();
            total[idx] += 1;
            if pick(&resampled, bytes) == regions[idx].alg {
                agree[idx] += 1;
            }
        }
    }
    if opts.resamples > 0 {
        for (i, r) in regions.iter_mut().enumerate() {
            if total[i] > 0 {
                r.confidence = agree[i] as f64 / total[i] as f64;
            }
        }
    }
    regions
}

/// Tune one `(shape, mode)` point: broadcast regions among [`candidates`]
/// from a sweep of every [`measured_algorithms`] path, allreduce regions
/// among [`ar_candidates`], each with resampled confidence.
pub fn tune_entry(cfg: &MachineConfig, opts: &AutotuneOpts) -> ShapeEntry {
    // The seed mixes in the shape and mode so each entry's resamples are
    // independent but reproducible.
    let entry_seed = opts
        .seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(cfg.node_count()))
        .wrapping_add(cfg.mode.ranks_per_node() as u64);
    let ar_cands = ar_candidates();
    ShapeEntry {
        mode: cfg.mode,
        nodes: cfg.node_count(),
        regions: tuned_regions(
            cfg,
            &measured_algorithms(cfg.mode),
            &candidates(cfg.mode),
            opts,
            entry_seed,
        ),
        ar_regions: tuned_regions(cfg, &ar_cands, &ar_cands, opts, entry_seed ^ 0xA11D_0CE5),
    }
}

/// Run the full sweep grid and assemble the tuning table.
pub fn autotune(opts: &AutotuneOpts) -> TuningTable {
    let mut entries = Vec::new();
    for &nodes in &opts.shapes {
        for &mode in &opts.modes {
            let cfg = MachineConfig::with_nodes(nodes, mode);
            entries.push(tune_entry(&cfg, opts));
        }
    }
    TuningTable {
        generator: format!(
            "bgp-tune autotune: shapes {:?}, sizes {}..{}, +/-{}% x{} resamples",
            opts.shapes,
            opts.sizes.first().copied().unwrap_or(0),
            opts.sizes.last().copied().unwrap_or(0),
            opts.perturb_pct,
            opts.resamples
        ),
        seed: opts.seed,
        resamples: opts.resamples,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_mpi::tune::SelectionPolicy;

    #[test]
    fn quick_autotune_produces_a_valid_monotone_table() {
        let t = autotune(&AutotuneOpts::quick());
        // Round-trips through the on-disk format and its validation.
        let parsed = TuningTable::parse(&t.to_json()).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        let e = &parsed.entries[0];
        assert_eq!(e.nodes, 64);
        // Regions are monotone and end unbounded (validated by parse), and
        // the large-message pick is the torus bandwidth path.
        assert_eq!(e.regions.last().unwrap().alg, BcastAlgorithm::TorusShaddr);
        // Confidence is a probability.
        assert!(e
            .regions
            .iter()
            .all(|r| (0.0..=1.0).contains(&r.confidence)));
    }

    #[test]
    fn autotune_is_deterministic() {
        let a = autotune(&AutotuneOpts::quick()).to_json();
        let b = autotune(&AutotuneOpts::quick()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn tuned_policy_selects_without_flapping() {
        let t = autotune(&AutotuneOpts::quick());
        let policy = SelectionPolicy::from_table(t);
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let mut seen: Vec<BcastAlgorithm> = Vec::new();
        let mut prev = None;
        for shift in 0..=24 {
            let alg = policy.select_bcast(&cfg, 1u64 << shift);
            if prev != Some(alg) {
                assert!(!seen.contains(&alg), "{alg:?} re-selected");
                seen.push(alg);
                prev = Some(alg);
            }
        }
    }
}
