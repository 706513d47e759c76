//! The algorithm-selection crossover exhibit. `--small` for 64 nodes.
//!
//! Prints the per-path latency sweep (measured through the shared
//! `bgp_tune::sweep` engine) plus a summary of where the *tuned* table
//! places the selection crossovers versus the static §V thresholds.

use bgp_bench::{figures, Scale};
use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::select::{SHORT_MSG_BYTES, TREE_TORUS_CROSSOVER_BYTES};
use bgp_mpi::tune::{SelectionPolicy, Tunable};
use bgp_tune::sweep::fmt_size;

fn main() {
    let scale = Scale::from_args();
    figures::crossover(scale).print();

    let cfg = MachineConfig::with_nodes(scale.nodes(), OpMode::Quad);
    let policy = SelectionPolicy::from_env();
    if let Some(w) = policy.warning() {
        println!("warning: {w}");
    }
    let Some(entry) = policy.table().and_then(|t| t.entry_for(&cfg)) else {
        println!(
            "no tuning-table entry for this shape; selection is static (crossovers {} / {})",
            fmt_size(SHORT_MSG_BYTES),
            fmt_size(TREE_TORUS_CROSSOVER_BYTES)
        );
        return;
    };
    println!(
        "tuned vs static crossovers ({:?}, {} nodes, table entry {:?} x {}):",
        cfg.mode,
        cfg.node_count(),
        entry.mode,
        entry.nodes
    );
    let static_bounds = [SHORT_MSG_BYTES, TREE_TORUS_CROSSOVER_BYTES];
    for (i, r) in entry.regions.iter().enumerate() {
        let tuned = match r.upto {
            Some(b) => fmt_size(b),
            None => "inf".into(),
        };
        let delta = match (r.upto, static_bounds.get(i)) {
            (Some(t), Some(&s)) if t == s => " (same as static)".to_string(),
            (Some(t), Some(&s)) => format!(
                " (static {}, {:+.0}%)",
                fmt_size(s),
                (t as f64 - s as f64) / s as f64 * 100.0
            ),
            _ => String::new(),
        };
        println!(
            "  {:<20} up to {:>6}{delta}  confidence {:.0}%",
            r.alg.id(),
            tuned,
            r.confidence * 100.0
        );
    }
}
