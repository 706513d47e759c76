//! Spans around every call into a layer, recorded from the benchmark's own
//! files (spans inside the libraries are a later change). They live in
//! memory while the workload runs and are written out when it ends, through
//! `bgp_sim::Probe` — wall nanoseconds carried in `SimTime`, as
//! `sched_real` already does — so self time is the probe's exclusive time
//! and `bgp-report` ingests the files with no new format.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use bgp_sim::{Breakdown, Probe, SimTime};

/// Nanoseconds since the first call in this process: one clock for every
/// thread's spans.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded interval: phase name, start and end on [`now_ns`]'s clock.
pub type RawSpan = (&'static str, u64, u64);

/// One thread's span recorder. Disabled (the untraced pass) it is a single
/// branch around the call.
pub struct Spans {
    on: bool,
    v: Vec<RawSpan>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans { on, v: Vec::new() }
    }

    /// Run `f` inside a span called `name`.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = now_ns();
        let r = f();
        self.v.push((name, t0, now_ns()));
        r
    }

    pub fn take(self) -> Vec<RawSpan> {
        self.v
    }
}

/// Every thread's spans of one traced workload, by track (thread) id.
#[derive(Default)]
pub struct Trace {
    tracks: Vec<(u32, Vec<RawSpan>)>,
}

impl Trace {
    pub fn add(&mut self, track: u32, spans: Vec<RawSpan>) {
        if !spans.is_empty() {
            self.tracks.push((track, spans));
        }
    }

    /// Load the spans into a probe, rebased so the earliest starts at 0.
    /// Returns the probe and the covered wall time.
    pub fn into_probe(self, workload: &str) -> (Probe, SimTime) {
        let all = || self.tracks.iter().flat_map(|(_, s)| s.iter());
        let t0 = all().map(|s| s.1).min().unwrap_or(0);
        let t1 = all().map(|s| s.2).max().unwrap_or(0);
        let mut probe = Probe::new();
        probe.enable();
        probe.begin_op(workload, "bgp-benchmark");
        for (track, spans) in &self.tracks {
            for &(name, a, b) in spans {
                probe.record(
                    name,
                    *track,
                    SimTime::from_nanos(a - t0),
                    SimTime::from_nanos(b - t0),
                );
            }
        }
        (probe, SimTime::from_nanos(t1 - t0))
    }
}

/// Write the three artifacts of one traced workload into `dir`: the
/// exclusive-time breakdown (`bgp-trace-v1`), the Chrome trace, and the
/// collapsed stacks. Returns the breakdown.
pub fn write_artifacts(
    dir: &Path,
    workload: &str,
    probe: &Probe,
    total: SimTime,
) -> std::io::Result<Breakdown> {
    std::fs::create_dir_all(dir)?;
    let breakdown = probe.breakdown(total);
    std::fs::write(
        dir.join(format!("{workload}_phases.json")),
        breakdown.to_json(),
    )?;
    std::fs::write(
        dir.join(format!("{workload}_trace.json")),
        probe.chrome_trace(),
    )?;
    std::fs::write(
        dir.join(format!("{workload}_folded.txt")),
        probe.collapsed(),
    )?;
    Ok(breakdown)
}
