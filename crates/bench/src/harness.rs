//! Minimal shared timing harness: the `fifo_vs_mutex` ablation's timer and
//! the median printer `proc_cluster` feeds with samples it times itself.
//!
//! Deliberately simple: fixed warmup, fixed sample count, median + min/max.
//! Every other wall-clock number of a real runtime comes from `benchmark/`.

use std::time::Instant;

/// Run `f` `samples` times (after `samples/4 + 1` warmup runs) and print
/// `name: median [min .. max]` in microseconds.
pub fn bench_case(name: &str, samples: usize, mut f: impl FnMut()) {
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
    report_median(name, times_us);
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
