//! The algorithm-selection crossover exhibit. `--small` for 64 nodes.
//!
//! Prints the per-path latency sweep (measured through the shared
//! `bgp_tune::sweep` engine) plus a summary of where the *tuned* table
//! places the selection crossovers versus the paper's reported ones.

use bgp_bench::{figures, Scale};
use bgp_machine::{MachineConfig, OpMode};
use bgp_mpi::tune::{builtin_table, SelectionPolicy, Tunable};
use bgp_tune::sweep::fmt_size;

/// The paper's reported quad-mode broadcast crossovers (§V): the staged
/// shared-memory tree up to 8 KiB, the core-specialized Shaddr tree up to
/// 128 KiB, the multi-color torus above. The summary labels them "static".
const PAPER_SHMEM_SHADDR_BYTES: u64 = 8 * 1024;
const PAPER_TREE_TORUS_BYTES: u64 = 128 * 1024;

fn main() {
    let scale = Scale::from_args();
    figures::crossover(scale).print();

    let cfg = MachineConfig::with_nodes(scale.nodes(), OpMode::Quad);
    let policy = SelectionPolicy::from_env();
    if let Some(w) = policy.warning() {
        println!("warning: {w}");
    }
    // The entry that answers: the held table's, else the builtin one's.
    let entry = policy
        .table()
        .and_then(|t| t.entry_for(&cfg))
        .or_else(|| builtin_table().entry_for(&cfg))
        .expect("the builtin table has a quad entry");
    println!(
        "tuned vs static crossovers ({:?}, {} nodes, table entry {:?} x {}):",
        cfg.mode,
        cfg.node_count(),
        entry.mode,
        entry.nodes
    );
    let paper_bounds = [PAPER_SHMEM_SHADDR_BYTES, PAPER_TREE_TORUS_BYTES];
    for (i, r) in entry.regions.iter().enumerate() {
        let tuned = match r.upto {
            Some(b) => fmt_size(b),
            None => "inf".into(),
        };
        let delta = match (r.upto, paper_bounds.get(i)) {
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
