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
//! too. The map itself remains for the benchmark's window probe and the
//! failure-injection tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::pad::CachePadded;
use crate::region::SharedRegion;
use crate::sync::RwLock;

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

/// Shards of a registry: owner `o`'s windows live in shard `o % SHARDS`,
/// each behind its own lock on its own cache line, so ranks exposing,
/// mapping and withdrawing different owners' windows never write the same
/// lock word. Nodes have a handful of ranks, so every rank gets a shard of
/// its own.
const SHARDS: usize = 16;

/// One shard: the exposed windows of the owners that map to it.
type Shard = RwLock<HashMap<(u32, u64), Arc<SharedRegion>>>;

/// A node-wide registry of exposed buffers, keyed by `(owner rank, tag)`.
///
/// Cloneable handle (`Arc` inside); one registry per node.
#[derive(Clone)]
pub struct WindowRegistry {
    inner: Arc<Inner>,
}

struct Inner {
    shards: [CachePadded<Shard>; SHARDS],
    stats: WindowStats,
}

impl Default for WindowRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl WindowRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        WindowRegistry {
            inner: Arc::new(Inner {
                shards: std::array::from_fn(|_| CachePadded::new(RwLock::new(HashMap::new()))),
                stats: WindowStats::default(),
            }),
        }
    }

    fn shard(&self, owner: u32) -> &Shard {
        &self.inner.shards[owner as usize % SHARDS]
    }

    fn lookup(&self, owner: u32, tag: u64) -> Option<Arc<SharedRegion>> {
        self.shard(owner).read().get(&(owner, tag)).cloned()
    }

    /// Charge one expose to the ledger: the owner-side translation a CNK
    /// stack pays per exposed buffer. [`Self::expose`] charges it; a path
    /// that exposes a window elsewhere (the blocking collectives' board)
    /// calls it itself.
    pub fn note_expose(&self) {
        self.inner.stats.exposes.fetch_add(1, Ordering::Relaxed);
    }

    /// Charge one map to the ledger: a hit if `cached`, else a miss. The
    /// map calls here charge it; a path that maps a window elsewhere calls
    /// it itself.
    pub fn note_map(&self, cached: bool) {
        let stats = &self.inner.stats;
        let word = if cached {
            &stats.map_hits
        } else {
            &stats.map_misses
        };
        word.fetch_add(1, Ordering::Relaxed);
    }

    /// Owner side: expose `region` under `(owner, tag)`, replacing any
    /// previous exposure with that key. This is the virtual→physical
    /// translation step on BG/P.
    pub fn expose(&self, owner: u32, tag: u64, region: Arc<SharedRegion>) {
        self.note_expose();
        self.shard(owner).write().insert((owner, tag), region);
    }

    /// Remove an exposure (e.g. when the application frees the buffer).
    pub fn unexpose(&self, owner: u32, tag: u64) {
        self.shard(owner).write().remove(&(owner, tag));
    }

    /// Peer side: map `(owner, tag)`. `cached` reports whether the *caller's*
    /// cache already held it — pass `false` on first use, `true` on reuse —
    /// so the stats ledger matches what a CNK stack would really pay.
    /// Returns `None` if the owner has not exposed the tag yet.
    pub fn map(&self, owner: u32, tag: u64, cached: bool) -> Option<Arc<SharedRegion>> {
        let region = self.lookup(owner, tag)?;
        self.note_map(cached);
        Some(region)
    }

    /// Spin until `(owner, tag)` is exposed, then map it. Collectives use
    /// this at operation start: the master exposes its application buffer,
    /// peers block momentarily until it appears.
    pub fn map_blocking(&self, owner: u32, tag: u64, cached: bool) -> Arc<SharedRegion> {
        loop {
            if let Some(r) = self.map(owner, tag, cached) {
                return r;
            }
            std::thread::yield_now();
        }
    }

    /// Peer side with automatic cache classification: the caller supplies
    /// its private set of region pointers already mapped (its window cache);
    /// a region seen before counts as a hit, a new one as a miss. Blocks
    /// until the tag is exposed.
    pub fn map_auto_blocking(
        &self,
        owner: u32,
        tag: u64,
        seen: &mut std::collections::HashSet<usize>,
    ) -> Arc<SharedRegion> {
        loop {
            if let Some(r) = self.try_map_auto(owner, tag, seen) {
                return r;
            }
            std::thread::yield_now();
        }
    }

    /// Non-blocking form of [`map_auto_blocking`](Self::map_auto_blocking):
    /// `None` if the tag is not exposed yet (no stats are charged), so
    /// pollers — the nonblocking progress engine's `test()` path — can
    /// retry later without ever parking.
    pub fn try_map_auto(
        &self,
        owner: u32,
        tag: u64,
        seen: &mut std::collections::HashSet<usize>,
    ) -> Option<Arc<SharedRegion>> {
        let region = self.lookup(owner, tag)?;
        self.note_map(!seen.insert(Arc::as_ptr(&region) as usize));
        Some(region)
    }

    /// The accounting ledger.
    pub fn stats(&self) -> &WindowStats {
        &self.inner.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

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
        reg.unexpose(0, 5);
        assert!(reg.map(0, 5, true).is_none());
    }

    #[test]
    fn owners_sharing_a_shard_stay_distinct() {
        let reg = WindowRegistry::new();
        let (a, b) = (3u32, 3 + SHARDS as u32);
        reg.expose(a, 1, Arc::new(SharedRegion::new(4)));
        reg.expose(b, 1, Arc::new(SharedRegion::new(8)));
        assert_eq!(reg.map(a, 1, false).unwrap().len(), 4);
        assert_eq!(reg.map(b, 1, false).unwrap().len(), 8);
        reg.unexpose(a, 1);
        assert!(reg.map(a, 1, true).is_none());
        assert_eq!(reg.map(b, 1, true).unwrap().len(), 8);
    }

    #[test]
    fn map_blocking_waits_for_exposure() {
        let reg = WindowRegistry::new();
        let reg2 = reg.clone();
        let waiter = thread::spawn(move || {
            let r = reg2.map_blocking(3, 9, false);
            r.len()
        });
        // Give the waiter a moment to start spinning, then expose.
        thread::sleep(std::time::Duration::from_millis(5));
        reg.expose(3, 9, Arc::new(SharedRegion::new(321)));
        assert_eq!(waiter.join().unwrap(), 321);
    }

    #[test]
    fn registry_handle_is_shared() {
        let reg = WindowRegistry::new();
        let clone = reg.clone();
        clone.expose(0, 1, Arc::new(SharedRegion::new(1)));
        assert_eq!(reg.map(0, 1, false).unwrap().len(), 1);
    }
}
