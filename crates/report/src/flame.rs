//! Flamegraph-ready artifacts: collapsed-stack ("folded") export checks
//! and the representative traced operations the report ships.
//!
//! The collapsed-stack format is one sample per line —
//! `frame;frame;...;frame <count>` — the lingua franca of
//! `inferno-flamegraph`, Brendan Gregg's `flamegraph.pl`, and
//! speedscope's collapsed importer. [`bgp_sim::Probe::collapsed`] synthesizes
//! stacks as `op;alg;node<N>;phase` with nanosecond counts;
//! [`check_folded`] enforces the format rules so CI catches an export
//! regression before a viewer does.

use std::fmt;

use bgp_machine::MachineConfig;
use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm, Mpi};

/// Why a document failed the collapsed-stack format check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldedError {
    /// The file has no samples at all.
    Empty,
    /// A line has no space-separated trailing count.
    NoCount(usize),
    /// The trailing token is not a non-negative integer.
    BadCount(usize, String),
    /// The stack part is empty (a line like ` 42`).
    EmptyStack(usize),
}

impl fmt::Display for FoldedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldedError::Empty => write!(f, "no samples"),
            FoldedError::NoCount(l) => write!(f, "line {l}: no trailing count"),
            FoldedError::BadCount(l, t) => write!(f, "line {l}: bad count {t:?}"),
            FoldedError::EmptyStack(l) => write!(f, "line {l}: empty stack"),
        }
    }
}

/// Validate collapsed-stack format: every line is
/// `stack <non-negative integer>` with a non-empty stack, and the file
/// has at least one sample.
pub fn check_folded(text: &str) -> Result<(), FoldedError> {
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, count) = line.rsplit_once(' ').ok_or(FoldedError::NoCount(i + 1))?;
        if stack.is_empty() {
            return Err(FoldedError::EmptyStack(i + 1));
        }
        if count.parse::<u64>().is_err() {
            return Err(FoldedError::BadCount(i + 1, count.to_string()));
        }
        samples += 1;
    }
    if samples == 0 {
        return Err(FoldedError::Empty);
    }
    Ok(())
}

/// A representative traced operation shipped with the report.
pub struct FoldedArtifact {
    /// Output file stem, e.g. `bcast_torus_shaddr_2M`.
    pub name: &'static str,
    /// Human description for the index.
    pub describe: &'static str,
}

/// The traced operations the report exports, in emit order.
pub const FOLDED_ARTIFACTS: [FoldedArtifact; 2] = [
    FoldedArtifact {
        name: "bcast_torus_shaddr_2M",
        describe: "2 MiB broadcast via the shared-address torus path",
    },
    FoldedArtifact {
        name: "allreduce_node_aware_4M",
        describe: "4 MiB allreduce via the node-aware reduce-scatter/allgather",
    },
];

/// Run artifact `name` on a fresh probed machine built from `cfg` and
/// return its collapsed-stack export (deterministic: the sim is
/// bit-exact and the export sorts its lines).
pub fn folded_for(name: &str, cfg: &MachineConfig) -> Option<String> {
    let mut mpi = Mpi::new(cfg.clone());
    mpi.enable_probe();
    match name {
        "bcast_torus_shaddr_2M" => {
            mpi.bcast(BcastAlgorithm::TorusShaddr, 2 << 20);
        }
        "allreduce_node_aware_4M" => {
            mpi.allreduce(AllreduceAlgorithm::NodeAwareRsAg, (4 << 20) / 8);
        }
        _ => return None,
    }
    Some(mpi.collapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;

    #[test]
    fn format_check_accepts_valid_and_rejects_each_failure_mode() {
        assert_eq!(check_folded("a;b;c 10\nx;y 0\n"), Ok(()));
        assert_eq!(check_folded(""), Err(FoldedError::Empty));
        assert_eq!(check_folded("nocount\n"), Err(FoldedError::NoCount(1)));
        assert_eq!(
            check_folded("a;b -3\n"),
            Err(FoldedError::BadCount(1, "-3".into()))
        );
        assert_eq!(check_folded(" 42\n"), Err(FoldedError::EmptyStack(1)));
    }

    #[test]
    fn shipped_artifacts_generate_valid_deterministic_folded_output() {
        let cfg = MachineConfig::test_small(OpMode::Quad);
        for a in &FOLDED_ARTIFACTS {
            let text = folded_for(a.name, &cfg).expect("known artifact");
            check_folded(&text).unwrap_or_else(|e| panic!("{}: {e}", a.name));
            assert_eq!(text, folded_for(a.name, &cfg).unwrap(), "{}", a.name);
            // Stacks carry the op;alg;node<N>;phase synthesis.
            assert!(text.lines().next().unwrap().contains(";node"));
        }
        assert!(folded_for("nope", &cfg).is_none());
    }
}
