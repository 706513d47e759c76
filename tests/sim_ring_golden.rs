//! Exact golden table for the simulated ring family (allreduce ×3,
//! reduce_scatter ×3, reduce ×3, allgather ×2, alltoall ×2).
//!
//! The simulator is deterministic — events are ordered by `(time, insertion
//! sequence)` and shared servers are FIFO — so every completion time is an
//! exact integer that must not move under a refactor of the pipelines. The
//! table in `golden/sim_ring.txt` pins the raw `SimTime` nanoseconds on three
//! machines, plus the per-phase `Mpi::breakdown()` rows of one 512 Ki-double
//! allreduce per algorithm (the `mpi.allreduce_large.*_ns` numbers that
//! `benchmark/` reports).
//!
//! To regenerate after a *deliberate* model change:
//!
//! ```text
//! cargo test -q --test sim_ring_golden -- --ignored --nocapture print_table \
//!     | grep -E '^(two_racks|test_small)_' > tests/golden/sim_ring.txt
//! ```

use std::fmt::Write;

use bgp_collectives::machine::{MachineConfig, OpMode};
use bgp_collectives::mpi::{AllgatherAlgorithm, AllreduceAlgorithm, Mpi, SelectionPolicy};

const GOLDEN: &str = include_str!("golden/sim_ring.txt");

const DOUBLES: [u64; 6] = [0, 1, 1 << 10, 64 << 10, 512 << 10, 4 << 20];
const BLOCKS: [u64; 4] = [0, 1, 4 << 10, 256 << 10];
const BREAKDOWN_DOUBLES: u64 = 512 << 10;

const SUM_ALGS: [(&str, AllreduceAlgorithm); 3] = [
    ("current", AllreduceAlgorithm::RingCurrent),
    ("shaddr", AllreduceAlgorithm::ShaddrSpecialized),
    ("node_aware", AllreduceAlgorithm::NodeAwareRsAg),
];
const BLOCK_ALGS: [(&str, AllgatherAlgorithm); 2] = [
    ("current", AllgatherAlgorithm::RingCurrent),
    ("shaddr", AllgatherAlgorithm::ShaddrSpecialized),
];

fn machines() -> [(&'static str, MachineConfig); 3] {
    [
        ("two_racks_quad", MachineConfig::two_racks_quad()),
        ("test_small_quad", MachineConfig::test_small(OpMode::Quad)),
        ("two_racks_smp", MachineConfig::racks(2, OpMode::Smp)),
    ]
}

/// One line per measurement: `machine op alg size ns`, then the breakdown
/// rows `two_racks_quad breakdown alg phase exclusive_ns busy_ns spans`.
fn table() -> String {
    let mut out = String::new();
    for (name, cfg) in machines() {
        // Explicit-algorithm calls never consult the policy; the builtin one
        // keeps the table independent of `BGP_TUNE_TABLE`.
        let mut mpi = Mpi::with_policy(cfg, SelectionPolicy::builtin());
        for (alg_name, alg) in SUM_ALGS {
            for d in DOUBLES {
                let t = mpi.allreduce(alg, d).as_nanos();
                writeln!(out, "{name} allreduce {alg_name} {d} {t}").unwrap();
                let t = mpi.reduce_scatter(alg, d).as_nanos();
                writeln!(out, "{name} reduce_scatter {alg_name} {d} {t}").unwrap();
                let t = mpi.reduce(alg, d).as_nanos();
                writeln!(out, "{name} reduce {alg_name} {d} {t}").unwrap();
            }
        }
        for (alg_name, alg) in BLOCK_ALGS {
            for b in BLOCKS {
                let t = mpi.allgather(alg, b).as_nanos();
                writeln!(out, "{name} allgather {alg_name} {b} {t}").unwrap();
                let t = mpi.alltoall(alg, b).as_nanos();
                writeln!(out, "{name} alltoall {alg_name} {b} {t}").unwrap();
            }
        }
    }
    let mut mpi = Mpi::with_policy(MachineConfig::two_racks_quad(), SelectionPolicy::builtin());
    mpi.enable_probe();
    for (alg_name, alg) in SUM_ALGS {
        let total = mpi.allreduce(alg, BREAKDOWN_DOUBLES);
        let b = mpi.breakdown();
        assert_eq!(b.exclusive_sum(), total);
        for p in &b.phases {
            writeln!(
                out,
                "two_racks_quad breakdown {alg_name} {} {} {} {}",
                p.phase,
                p.exclusive.as_nanos(),
                p.busy.as_nanos(),
                p.spans
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn ring_family_matches_the_golden_table_exactly() {
    let actual = table();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let moved: Vec<String> = want
        .iter()
        .zip(&got)
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} golden rows moved:\n{}",
        moved.len(),
        want.len(),
        moved.join("\n")
    );
    assert_eq!(want.len(), got.len(), "row count changed");
}

#[test]
#[ignore = "generator: prints the table for tests/golden/sim_ring.txt"]
fn print_table() {
    print!("{}", table());
}
