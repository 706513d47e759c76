//! Minimal shared timing harness for the plain (`harness = false`) benches.
//!
//! Deliberately simple: fixed warmup, fixed sample count, median + min/max.
//! Medians are robust enough for trend tracking in EXPERIMENTS.md without
//! pulling a statistics framework into the hermetic build.

use std::time::Instant;

/// Run `f` `samples` times (after `samples/4 + 1` warmup runs) and print
/// `name: median [min .. max]` in microseconds.
pub fn bench_case(name: &str, samples: usize, f: impl FnMut()) {
    bench_case_median(name, samples, f);
}

/// Like [`bench_case`], but also returns the median (µs) for callers that
/// compare cases (e.g. `cluster_real --check`).
pub fn bench_case_median(name: &str, samples: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..samples / 4 + 1 {
        f();
    }
    let times_us = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report_median(name, times_us)
}

/// Print `name: median [min .. max]` for samples (µs) a caller timed
/// itself — e.g. inside one long-lived job — and return the median.
pub fn report_median(name: &str, mut times_us: Vec<f64>) -> f64 {
    times_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = times_us[times_us.len() / 2];
    println!(
        "{name:<45} {median:>12.2} us  [{:.2} .. {:.2}]",
        times_us.first().unwrap(),
        times_us.last().unwrap()
    );
    median
}
