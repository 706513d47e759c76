//! The process-window registry: shared address space between rank-threads.
//!
//! On BG/P, rank A reads rank B's buffer by (1) B translating its virtual
//! address to physical and (2) A mapping that physical range into its own
//! address space — two system calls, cached by the MPI stack when buffers
//! repeat (paper §III-B, §VI-A). Between threads the mapping itself is free
//! — every thread already sees the whole address space — so the registry's
//! job is the part that still matters off-BG/P:
//!
//! * the *rendezvous*: a rank exposes `(tag → region)` and peers look it up;
//! * the *accounting*: map calls and cache hits/misses are counted so the
//!   simulator and harness can charge the Figure 8 syscall costs for
//!   exactly the operations a real CNK stack would issue.
//!
//! No runtime finds its windows in the map any more. The blocking
//! collectives of `bgp-smp` swap window addresses on a per-rank board
//! (`bgp_smp::runtime::WindowBoard`: one op at a time, two slots per rank,
//! no lock), and the nonblocking engine (`bgp-sched`) keeps each op's
//! windows in the op's counter block ([`crate::OpWindow`]), where many ops
//! can be in flight at once. What both still use is the ledger: each
//! charges it through [`WindowRegistry::note_expose`] and
//! [`WindowRegistry::note_map`], the calls every map here goes through
//! too. The map itself, one mutex over one hash map, remains for the
//! benchmark's window probe and the failure-injection tests.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;
use crate::region::SharedRegion;
use crate::sync::Mutex;

/// Statistics mirroring what the CNK window path would have cost.
#[derive(Debug, Default)]
pub struct WindowStats {
    /// `expose` calls (virtual→physical translations on the owner side).
    pub exposes: AtomicU64,
    /// `map` calls that missed the cache (each costs the syscall pair).
    pub map_misses: AtomicU64,
    /// `map` calls served from the cache.
    pub map_hits: AtomicU64,
}

impl WindowStats {
    /// Snapshot as `(exposes, misses, hits)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.exposes.load(Ordering::Relaxed),
            self.map_misses.load(Ordering::Relaxed),
            self.map_hits.load(Ordering::Relaxed),
        )
    }
}

/// A node-wide registry of exposed buffers, keyed by `(owner rank, tag)`,
/// and the node's window ledger. One registry per node.
#[derive(Default)]
pub struct WindowRegistry {
    windows: Mutex<HashMap<(u32, u64), Arc<SharedRegion>>>,
    /// On a line of its own: every rank charges it per expose and map, and
    /// the registry sits inline among node state the ranks read per op.
    stats: CachePadded<WindowStats>,
}

impl WindowRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge one expose to the ledger: the owner-side translation a CNK
    /// stack pays per exposed buffer. [`Self::expose`] charges it; a path
    /// that exposes a window elsewhere (the blocking collectives' board)
    /// calls it itself.
    pub fn note_expose(&self) {
        self.stats.exposes.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge one map to the ledger: a hit if `cached`, else a miss. The
    /// map calls here charge it; a path that maps a window elsewhere calls
    /// it itself.
    pub fn note_map(&self, cached: bool) {
        let word = if cached {
            &self.stats.map_hits
        } else {
            &self.stats.map_misses
        };
        word.fetch_add(1, Ordering::Relaxed);
    }

    /// Owner side: expose `region` under `(owner, tag)`, replacing any
    /// previous exposure with that key. This is the virtual→physical
    /// translation step on BG/P.
    pub fn expose(&self, owner: u32, tag: u64, region: Arc<SharedRegion>) {
        self.note_expose();
        self.windows.lock().insert((owner, tag), region);
    }

    /// Peer side: map `(owner, tag)`. `cached` reports whether the *caller's*
    /// cache already held it — pass `false` on first use, `true` on reuse —
    /// so the stats ledger matches what a CNK stack would really pay.
    /// Returns `None` if the owner has not exposed the tag yet.
    pub fn map(&self, owner: u32, tag: u64, cached: bool) -> Option<Arc<SharedRegion>> {
        let region = self.windows.lock().get(&(owner, tag)).cloned()?;
        self.note_map(cached);
        Some(region)
    }

    /// Peer side with automatic cache classification, blocking until the
    /// tag is exposed: the caller supplies its private set of region
    /// pointers already mapped (its window cache); a region seen before
    /// counts as a hit, a new one as a miss.
    pub fn map_auto_blocking(
        &self,
        owner: u32,
        tag: u64,
        seen: &mut HashSet<usize>,
    ) -> Arc<SharedRegion> {
        loop {
            let found = self.windows.lock().get(&(owner, tag)).cloned();
            if let Some(region) = found {
                self.note_map(!seen.insert(Arc::as_ptr(&region) as usize));
                return region;
            }
            crate::spin();
        }
    }

    /// The accounting ledger.
    pub fn stats(&self) -> &WindowStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn expose_then_map() {
        let reg = WindowRegistry::new();
        let region = Arc::new(SharedRegion::new(128));
        unsafe { region.write(0, b"window") };
        reg.expose(2, 77, region);
        let mapped = reg.map(2, 77, false).expect("mapped");
        let mut buf = [0u8; 6];
        unsafe { mapped.read(0, &mut buf) };
        assert_eq!(&buf, b"window");
        assert_eq!(reg.stats().snapshot(), (1, 1, 0));
    }

    #[test]
    fn map_missing_returns_none() {
        let reg = WindowRegistry::new();
        assert!(reg.map(0, 0, false).is_none());
    }

    #[test]
    fn cache_accounting() {
        let reg = WindowRegistry::new();
        reg.expose(1, 1, Arc::new(SharedRegion::new(8)));
        reg.map(1, 1, false);
        reg.map(1, 1, true);
        reg.map(1, 1, true);
        let (exposes, misses, hits) = reg.stats().snapshot();
        assert_eq!((exposes, misses, hits), (1, 1, 2));
    }

    #[test]
    fn re_expose_replaces() {
        let reg = WindowRegistry::new();
        let a = Arc::new(SharedRegion::new(4));
        let b = Arc::new(SharedRegion::new(8));
        reg.expose(0, 5, a);
        reg.expose(0, 5, b);
        assert_eq!(reg.map(0, 5, true).unwrap().len(), 8);
        assert!(reg.map(1, 5, true).is_none(), "another owner's key");
    }

    #[test]
    fn map_blocking_waits_for_exposure() {
        let reg = WindowRegistry::new();
        let len = thread::scope(|s| {
            let waiter = s.spawn(|| reg.map_auto_blocking(3, 9, &mut HashSet::new()).len());
            // Give the waiter a moment to start spinning, then expose.
            thread::sleep(Duration::from_millis(5));
            reg.expose(3, 9, Arc::new(SharedRegion::new(321)));
            waiter.join().unwrap()
        });
        assert_eq!(len, 321);
    }

    /// The map the benchmark's window probe times: a region the caller's
    /// cache has not seen is a miss, one it has seen a hit, and a tag
    /// exposed late is waited for and charged once.
    #[test]
    fn map_auto_blocking_charges_misses_then_hits() {
        let reg = WindowRegistry::new();
        let mut seen = HashSet::new();
        let (a, b) = (
            Arc::new(SharedRegion::new(4)),
            Arc::new(SharedRegion::new(8)),
        );
        reg.expose(0, 1, a.clone());
        reg.expose(1, 1, b.clone());
        assert!(Arc::ptr_eq(&reg.map_auto_blocking(0, 1, &mut seen), &a));
        assert!(Arc::ptr_eq(&reg.map_auto_blocking(0, 1, &mut seen), &a));
        assert!(Arc::ptr_eq(&reg.map_auto_blocking(1, 1, &mut seen), &b));
        assert_eq!(reg.stats().snapshot(), (2, 2, 1));
        // The same region under a new tag is a hit: the cache keys regions.
        reg.expose(0, 2, a.clone());
        reg.map_auto_blocking(0, 2, &mut seen);
        assert_eq!(reg.stats().snapshot(), (3, 2, 2));
        let late = thread::scope(|s| {
            let waiter = s.spawn(|| reg.map_auto_blocking(2, 7, &mut seen).len());
            thread::sleep(Duration::from_millis(5));
            assert_eq!(reg.stats().snapshot(), (3, 2, 2), "nothing charged yet");
            reg.expose(2, 7, Arc::new(SharedRegion::new(16)));
            waiter.join().unwrap()
        });
        assert_eq!(late, 16);
        assert_eq!(reg.stats().snapshot(), (4, 3, 2));
    }
}
