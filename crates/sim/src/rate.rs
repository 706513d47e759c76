//! Bandwidth / rate arithmetic.
//!
//! A [`Rate`] is bytes per second. The single operation that matters is
//! "how long does it take to move `n` bytes at this rate", and it must be
//! deterministic, so the division is done in integer nanoseconds with
//! round-up (a transfer never completes *early*).

use std::fmt;

use crate::time::SimTime;

/// A transfer rate in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rate {
    bytes_per_sec: f64,
}

impl Rate {
    /// Construct from bytes per second. Panics on non-positive or non-finite
    /// rates: a zero-rate resource is a modelling bug, not a slow link.
    #[inline]
    pub fn bytes_per_sec(b: f64) -> Self {
        assert!(b.is_finite() && b > 0.0, "invalid rate: {b} B/s");
        Rate { bytes_per_sec: b }
    }

    /// Construct from megabytes per second (decimal MB, matching how the
    /// paper quotes link speeds: 425 MB/s torus links, 850 MB/s tree).
    #[inline]
    pub fn mb_per_sec(mb: f64) -> Self {
        Rate::bytes_per_sec(mb * 1e6)
    }

    /// Construct from gigabytes per second (decimal GB).
    #[inline]
    pub fn gb_per_sec(gb: f64) -> Self {
        Rate::bytes_per_sec(gb * 1e9)
    }

    /// The rate in MB/s (decimal).
    #[inline]
    pub fn as_mb_per_sec(self) -> f64 {
        self.bytes_per_sec / 1e6
    }

    /// Time to move `bytes` at this rate, rounded **up** to the next
    /// nanosecond. Zero bytes takes zero time.
    #[inline]
    pub fn time_for(self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        let ns = (bytes as f64) * 1e9 / self.bytes_per_sec;
        SimTime::from_nanos(ns.ceil() as u64)
    }

    /// Scale the rate by a dimensionless factor (e.g. an efficiency factor
    /// or a cache-cliff derating). Panics if the result is not a valid rate.
    #[inline]
    pub fn scale(self, factor: f64) -> Rate {
        Rate::bytes_per_sec(self.bytes_per_sec * factor)
    }

    /// Effective rate implied by moving `bytes` in `elapsed`. Returns `None`
    /// for a zero elapsed time.
    pub fn observed(bytes: u64, elapsed: SimTime) -> Option<Rate> {
        if elapsed == SimTime::ZERO {
            return None;
        }
        Some(Rate::bytes_per_sec(bytes as f64 / elapsed.as_secs_f64()))
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mb = self.as_mb_per_sec();
        if mb >= 1000.0 {
            write!(f, "{:.2} GB/s", mb / 1000.0)
        } else {
            write!(f, "{mb:.1} MB/s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_for_bytes_rounds_up() {
        let r = Rate::bytes_per_sec(1e9); // 1 byte per ns
        assert_eq!(r.time_for(1000), SimTime::from_nanos(1000));
        let r3 = Rate::bytes_per_sec(3e9); // 3 bytes per ns
        assert_eq!(r3.time_for(10), SimTime::from_nanos(4)); // 3.33 -> 4
        assert_eq!(r3.time_for(0), SimTime::ZERO);
    }

    #[test]
    fn paper_link_speeds() {
        // One torus link: 425 MB/s. 1 MB should take ~2.35 ms.
        let link = Rate::mb_per_sec(425.0);
        let t = link.time_for(1 << 20);
        let expect = (1u64 << 20) as f64 / 425e6;
        assert!((t.as_secs_f64() - expect).abs() < 1e-9);
        // The tree: 850 MB/s, exactly twice as fast.
        let tree = Rate::mb_per_sec(850.0);
        assert!(tree.time_for(1 << 20) <= link.time_for(1 << 20) / 2 + SimTime::from_nanos(1));
    }

    #[test]
    fn scaling() {
        let r = Rate::mb_per_sec(100.0);
        assert!((r.scale(0.5).as_mb_per_sec() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn observed_rate() {
        let r = Rate::observed(1_000_000, SimTime::from_millis(10)).unwrap();
        assert!((r.as_mb_per_sec() - 100.0).abs() < 1e-6);
        assert!(Rate::observed(5, SimTime::ZERO).is_none());
    }

    #[test]
    fn unit_constructors() {
        assert!((Rate::gb_per_sec(1.0).as_mb_per_sec() - 1000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = Rate::bytes_per_sec(0.0);
    }

    #[test]
    fn display() {
        assert_eq!(Rate::mb_per_sec(425.0).to_string(), "425.0 MB/s");
        assert_eq!(Rate::gb_per_sec(13.6).to_string(), "13.60 GB/s");
    }
}
