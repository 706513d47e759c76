//! # bgp-bench — regenerate every table and figure of the paper
//!
//! One function per experiment ([`figures`]), each returning the shared
//! size × series table ([`Figure`], re-exported from `bgp_tune::sweep`),
//! and one binary, `all_experiments`, that prints all of them with the
//! paper's anchor numbers under each table (`--json` for one JSON array,
//! `--trace` for the probe artifacts of [`trace`]). Everything here is
//! the deterministic simulator except `proc_cluster`, `svc_soak` and the
//! §IV-A `fifo_vs_mutex` ablation in `benches/`; wall-clock numbers of the
//! real runtimes come from `benchmark/`.
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
pub mod trace;

/// Experiment scale and result table, shared with `bgp-tune`.
pub use bgp_tune::{Figure, Row, Scale};
