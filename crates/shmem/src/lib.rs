//! # bgp-shmem — the paper's intra-node communication primitives, for real
//!
//! Unlike the network (which must be simulated — see `bgp-sim`/`bgp-dcmf`),
//! the intra-node mechanisms of the paper are ordinary cache-coherent
//! shared-memory algorithms and run natively. This crate implements them
//! exactly as §IV describes, on real atomics, and `bgp-smp` runs them
//! across real threads:
//!
//! * [`ptp_fifo::PtpFifo`] — the Point-to-Point FIFO (§IV-A): slots reserved
//!   by an atomic fetch-and-increment on the tail, drained in reservation
//!   order.
//! * [`bcast_fifo::BcastFifo`] — the Bcast FIFO (§IV-B): same reservation
//!   protocol, but a slot retires only after *every* consumer has read it,
//!   tracked by a per-slot atomic reader count initialised to `n-1`.
//! * [`counter::MessageCounter`] / [`counter::CompletionCounter`] — the
//!   software message counters (§IV-C): a byte counter published by the
//!   producer and polled by consumers, mirroring the DMA hardware counters
//!   at user level; plus the atomic completion counter the master waits on
//!   before reusing its buffer.
//! * [`region::SharedRegion`] / [`window::WindowRegistry`] — the shared
//!   address space: a peer's buffer made directly readable, standing in for
//!   CNK's process-window system calls (which cannot exist off-BG/P; the
//!   registry also keeps the map/cache statistics the simulator charges
//!   time for).
//!
//! ## Memory-ordering discipline
//!
//! Every publication follows the release/acquire message-passing pattern:
//! payload bytes are written plainly, then the flag/counter is stored (or
//! fetch-added) with `Release`; consumers observe it with `Acquire` before
//! touching the payload. Slot recycling in the FIFOs uses the same pattern
//! in the opposite direction. No `SeqCst` is needed anywhere — each
//! synchronization is pairwise.

pub mod bank;
pub mod bcast_fifo;
pub mod counter;
pub mod pad;
pub mod ptp_fifo;
pub mod region;
pub mod seqlock;
pub mod sync;
pub mod window;

#[cfg(not(feature = "model"))]
pub mod proc;

pub use bank::CounterBank;
pub use bcast_fifo::{BcastConsumer, BcastFifo, FifoStats};
pub use counter::{CompletionCounter, MessageCounter};
pub use pad::CachePadded;
pub use ptp_fifo::PtpFifo;
pub use region::SharedRegion;
pub use seqlock::{HeapSeqWords, SeqLock, SeqWords};
pub use window::{WindowRegistry, WindowStats};

/// Wait hint used by all blocking primitives in this crate.
///
/// On a real BG/P node each rank owns a core, so pure `spin_loop` is right;
/// on an oversubscribed host (tests/benches with more rank-threads than
/// cores) a waiting thread must yield or the thread it waits on may not be
/// scheduled. Yielding costs little on dedicated cores and is mandatory for
/// correctness-of-progress when oversubscribed, so we always yield.
///
/// Under the `model` feature this routes to `bgp_check::thread::spin`,
/// which parks the model thread until another thread performs a store —
/// that is what lets the checker explore spin-based protocols exhaustively
/// and report a wait nobody can satisfy as a deadlock.
#[inline]
pub fn spin() {
    #[cfg(feature = "model")]
    bgp_check::thread::spin();
    #[cfg(not(feature = "model"))]
    std::thread::yield_now();
}

/// Named mutation points for the model checker's self-tests.
///
/// The primitives keep a handful of seeded bugs in their real code paths
/// (skip an initialisation, weaken a publication's ordering, publish before
/// the payload write). Each asks [`model_support::seeded`] whether it is
/// active; the answer can only be `true` inside a `bgp_check` model run
/// whose `Config::mutate(..)` named it, so the hooks are inert — and the
/// non-`model` build compiles them to constants — everywhere else.
/// See `tests/model.rs` for the self-tests that prove the checker catches
/// every one of these bugs.
#[doc(hidden)]
pub mod model_support {
    pub use crate::sync::atomic::Ordering;

    /// Is the named seeded bug active? Always `false` outside a model run.
    #[cfg(feature = "model")]
    pub fn seeded(name: &str) -> bool {
        bgp_check::mutation::active(name)
    }

    /// Is the named seeded bug active? Always `false` without `model`.
    #[cfg(not(feature = "model"))]
    #[inline(always)]
    pub fn seeded(_name: &str) -> bool {
        false
    }

    /// `Ordering::Relaxed` if the named mutation is active, else `normal` —
    /// the hook for "weaken this store/RMW" seeded bugs.
    #[inline(always)]
    pub fn relaxed_if(name: &str, normal: Ordering) -> Ordering {
        if seeded(name) {
            Ordering::Relaxed
        } else {
            normal
        }
    }
}

/// Helpers for the workspace's own stress tests (not part of the library
/// API; `pub` so the smp crate and the top-level integration tests share
/// one policy).
pub mod testing {
    /// Scale a stress-test iteration count to the host.
    ///
    /// The spin-based primitives make no progress while a spinning thread
    /// holds the only core, so on low-core CI hosts the full iteration
    /// counts spend almost all their time in `yield` storms. Schedule
    /// *coverage* saturates long before the full count anyway — and the
    /// schedule-sensitive bugs these counts were hoping to hit are now
    /// covered deterministically by the `bgp-check` model tests.
    ///
    /// Policy: with 4+ available cores (a real parallel host) or
    /// `BGP_STRESS_FULL=1` in the environment (CI's full-volume run), use
    /// the full count; otherwise scale it by `cores/8`, keeping at least
    /// `min(full, 64)` iterations so every code path still runs.
    pub fn stress_iters(full: usize) -> usize {
        if std::env::var_os("BGP_STRESS_FULL").is_some_and(|v| v == "1") {
            return full;
        }
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores >= 4 {
            return full;
        }
        (full * cores / 8).clamp(full.min(64), full)
    }
}
