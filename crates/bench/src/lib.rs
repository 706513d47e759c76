//! # bgp-bench — regenerate every table and figure of the paper
//!
//! One function per experiment ([`figures`]), a common result format
//! ([`report`]), and runnable binaries (`src/bin/fig6.rs` … `table1.rs`,
//! plus the ablations) that print the measured series next to the paper's
//! anchor numbers. Everything here is the deterministic simulator except
//! `proc_cluster`, `svc_soak` and the §IV-A `fifo_vs_mutex` ablation in
//! `benches/`; wall-clock numbers of the real runtimes come from
//! `benchmark/`.
//!
//! Everything runs at two scales:
//!
//! * [`Scale::Paper`] — the evaluation system (two racks, 2048 nodes, 8192
//!   processes in quad mode). Use `--release`.
//! * [`Scale::Small`] — a 64-node 4×4×4 partition for quick runs and tests;
//!   every qualitative shape survives the down-scale (tree depth and ring
//!   fill shrink, so absolute latencies differ).

pub mod figures;
pub mod harness;
pub mod report;
pub mod trace;

pub use report::{Figure, Row};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Two racks: 2048 nodes / 8192 quad-mode ranks (the paper's system).
    Paper,
    /// 64 nodes (4x4x4) for fast runs.
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

    /// Parse from argv: `--small` selects [`Scale::Small`].
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--small") {
            Scale::Small
        } else {
            Scale::Paper
        }
    }
}
