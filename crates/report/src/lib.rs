//! bgp-report — the perf-trajectory reporting subsystem.
//!
//! Turns the repo's bench history (the `BENCH_*.json` gate reports) into
//! a browsable report: `report/index.md` plus deterministic SVG figures
//! reproducing the paper's plot layouts (drawn from
//! `bgp_tune::sweep::Figure` sweeps, written next to them as figure
//! JSON), cross-PR trend charts per gated series, and flamegraph-ready
//! collapsed-stack exports of representative traced operations.
//!
//! Everything is vendored — the SVG writer ([`svg`]), the XML
//! well-formedness check ([`xml`]), the history ingestion ([`history`]),
//! and the collapsed-stack validator ([`flame`]) use no external crates,
//! so the report pipeline adds nothing to the dependency graph and its
//! output is byte-reproducible (golden-tested).

pub mod flame;
pub mod history;
pub mod plots;
pub mod svg;
pub mod xml;
