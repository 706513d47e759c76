//! # bgp-tune — measurement-driven autotuning and the perf-regression gate
//!
//! Two halves over one sweep engine:
//!
//! * **Autotuner** ([`mod@autotune`]): sweep every broadcast and allreduce path
//!   across message sizes, modes, and machine shapes on the simulated
//!   machine ([`sweep`]), find the measured pairwise crossover points
//!   between the production candidate paths, attach confidence from
//!   deterministic seeded resampling, and emit the versioned tuning table
//!   (`tuning/default.json`) that `bgp_mpi::tune::SelectionPolicy` serves at
//!   `Mpi` construction. Both operations go through the same code, generic
//!   over `bgp_mpi::tune::Tunable`.
//! * **Regression gate** ([`gate`]): replay a pinned suite of the paper's
//!   key measurement points (fig6/fig7/fig10/table1 + the tuned-selection
//!   path + three dimensionless host ratios from [`hotpath`]), emit
//!   `BENCH_<label>.json`, and compare against the checked-in
//!   `BENCH_baseline.json`, failing on slowdowns beyond a tolerance. The
//!   simulated entries are bit-deterministic, so the committed baseline
//!   gates exactly; wall-clock numbers of the real runtimes come from
//!   `benchmark/`, not from here.
//!
//! [`sweep`] also holds [`Figure`], the one size × series table: the
//! autotuner's sweeps, `bgp-bench`'s paper figures and `bgp-report`'s
//! latency plots all use it. [`Scale`], [`Figure`], [`sweep::pow2_sizes`],
//! [`sweep::mbps`] and [`sweep::fmt_size`] are shared with `bgp-bench`,
//! which re-exports `Scale`, `Figure` and `Row`.
//!
//! Binaries: `tune_table` (here) regenerates the table; `bench_gate`
//! (in `bgp-bench`) runs the gate.

pub mod autotune;
pub mod gate;
pub mod hotpath;
pub mod sweep;

pub use autotune::{autotune, AutotuneOpts};
pub use gate::{compare, run_suite, CompareOutcome, GateReport};
pub use sweep::{measure, Figure, Row, Scale};
