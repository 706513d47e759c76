//! Probe artifacts of `all_experiments --trace`.
//!
//! With `--trace`, `all_experiments` re-runs one representative operation
//! of fig6 and of table1 with the probe enabled and writes three
//! machine-readable files per figure next to the report:
//!
//! * `BENCH_<id>_phases.json` — the per-phase breakdown (schema
//!   [`bgp_sim::TRACE_SCHEMA`]): per-phase busy and exclusive times, where
//!   the exclusive times partition the end-to-end operation time exactly.
//! * `BENCH_<id>_trace.json` — a `chrome://tracing` / Perfetto JSON trace
//!   of every recorded span (one `tid` per node; load it directly in either
//!   viewer).
//! * `BENCH_<id>_folded.txt` — the same spans in collapsed-stack format
//!   (`op;alg;node<N>;phase <ns>` per line), directly consumable by
//!   `inferno-flamegraph` and speedscope's collapsed importer.
//!
//! The traced run is separate from the measured sweep, so the figure's
//! numbers are never produced with recording on (recording does not change
//! simulated time, but keeping the runs apart makes that fact irrelevant).

use std::fs;
use std::io;
use std::path::PathBuf;

use bgp_machine::MachineConfig;
use bgp_mpi::allreduce::AllreduceAlgorithm;
use bgp_mpi::{BcastAlgorithm, Mpi};

/// Whether `--trace` was passed on the command line.
pub fn requested() -> bool {
    std::env::args().any(|a| a == "--trace")
}

/// The representative operation a figure's trace artifacts describe.
#[derive(Debug, Clone, Copy)]
pub enum TraceOp {
    /// One `MPI_Bcast` of the given size.
    Bcast(BcastAlgorithm, u64),
    /// One `MPI_Allreduce` of the given number of doubles.
    Allreduce(AllreduceAlgorithm, u64),
}

/// Run `op` on a fresh machine with the probe enabled and write the three
/// artifacts for figure `id`; returns `(phases_path, trace_path,
/// folded_path)`.
pub fn emit(id: &str, cfg: MachineConfig, op: TraceOp) -> io::Result<(PathBuf, PathBuf, PathBuf)> {
    let mut mpi = Mpi::new(cfg);
    mpi.enable_probe();
    match op {
        TraceOp::Bcast(alg, bytes) => {
            mpi.bcast(alg, bytes);
        }
        TraceOp::Allreduce(alg, doubles) => {
            mpi.allreduce(alg, doubles);
        }
    }
    let phases_path = PathBuf::from(format!("BENCH_{id}_phases.json"));
    let trace_path = PathBuf::from(format!("BENCH_{id}_trace.json"));
    let folded_path = PathBuf::from(format!("BENCH_{id}_folded.txt"));
    fs::write(&phases_path, mpi.breakdown().to_json())?;
    fs::write(&trace_path, mpi.chrome_trace())?;
    fs::write(&folded_path, mpi.collapsed())?;
    Ok((phases_path, trace_path, folded_path))
}

/// [`emit`] if `--trace` was requested, reporting the written paths on
/// stdout (what `all_experiments` calls after printing its tables).
pub fn emit_if_requested(id: &str, cfg: MachineConfig, op: TraceOp) {
    if !requested() {
        return;
    }
    match emit(id, cfg, op) {
        Ok((p, t, f)) => println!(
            "trace: wrote {}, {} and {}",
            p.display(),
            t.display(),
            f.display()
        ),
        Err(e) => eprintln!("trace: failed to write artifacts: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgp_machine::OpMode;
    use bgp_sim::json;

    #[test]
    fn emit_writes_parseable_artifacts() {
        let dir = std::env::temp_dir().join("bgp_bench_trace_test");
        fs::create_dir_all(&dir).unwrap();
        let old = std::env::current_dir().unwrap();
        // The artifact paths are cwd-relative; run the test in a temp dir.
        std::env::set_current_dir(&dir).unwrap();
        let cfg = MachineConfig::test_small(OpMode::Quad);
        let result = emit(
            "testfig",
            cfg,
            TraceOp::Bcast(BcastAlgorithm::TreeShaddr { caching: true }, 64 << 10),
        );
        std::env::set_current_dir(old).unwrap();
        let (p, t, f) = result.unwrap();
        let phases = fs::read_to_string(dir.join(&p)).unwrap();
        let trace = fs::read_to_string(dir.join(&t)).unwrap();
        let folded = fs::read_to_string(dir.join(&f)).unwrap();
        let pv = json::parse(&phases).unwrap();
        assert_eq!(
            pv.get("schema").unwrap().as_str(),
            Some(bgp_sim::TRACE_SCHEMA)
        );
        assert_eq!(pv.get("op").unwrap().as_str(), Some("bcast"));
        assert!(!pv.get("phases").unwrap().as_arr().unwrap().is_empty());
        let tv = json::parse(&trace).unwrap();
        assert!(tv.as_arr().unwrap().len() > 1);
        // The folded artifact follows the collapsed-stack format rules.
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("space before count");
            assert!(count.parse::<u64>().is_ok(), "integer count: {line}");
            assert!(stack.contains(';'), "stack has frames: {line}");
        }
        fs::remove_file(dir.join(p)).ok();
        fs::remove_file(dir.join(t)).ok();
        fs::remove_file(dir.join(f)).ok();
    }
}
