//! Synchronization facade: a lock, atomics, and the unsafe cell the
//! lock-free primitives are written against.
//!
//! The [`atomic`] and [`cell`] modules (and [`crate::spin`]) exist so the
//! primitives can be compiled in two ways from one source:
//!
//! * **Default:** zero-cost re-exports of `std::sync::atomic` and a
//!   `#[repr(transparent)]` wrapper over `std::cell::UnsafeCell` — the
//!   production build, identical codegen to using `std` directly.
//! * **`model` feature:** the same names resolve to `bgp-check`'s model
//!   types, which turn every access into a deterministic-scheduler choice
//!   point and check the release/acquire protocol with vector clocks. See
//!   `tests/model.rs`.
//!
//! The lock is a thin `parking_lot`-style [`Mutex`] over `std::sync`,
//! with two differences from std, both load-bearing for this crate:
//!
//! * `lock()` returns the guard directly instead of a `Result` — lock
//!   poisoning is deliberately ignored. A rank thread that panicked already
//!   fails the whole node operation (the runtime re-panics on join); making
//!   every other rank *also* panic on a poisoned lock only obscures the
//!   original failure.
//! * No poison flag means the mutex-strawman FIFO measures pure lock
//!   hand-off cost, which is the comparison §IV-A actually makes.
//!
//! (The lock is *not* modeled: the mutex-strawman FIFO is a baseline, not
//! a protocol under verification, and a `std` mutex is invisible to the
//! model scheduler. Model tests only exercise the lock-free primitives.)

use std::sync::{Mutex as StdMutex, MutexGuard};

/// Atomic types the primitives use, switched by the `model` feature.
/// `Ordering` is always `std`'s.
pub mod atomic {
    #[cfg(feature = "model")]
    pub use bgp_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    #[cfg(not(feature = "model"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    pub use std::sync::atomic::Ordering;
}

/// The `UnsafeCell` the primitives keep payloads in, switched by the
/// `model` feature. Accesses go through `with`/`with_mut` closures (the
/// `loom` API shape) so the model build can interpose its race checker.
pub mod cell {
    #[cfg(feature = "model")]
    pub use bgp_check::cell::UnsafeCell;

    /// Transparent wrapper over [`std::cell::UnsafeCell`] exposing the
    /// model cell's API at zero cost.
    #[cfg(not(feature = "model"))]
    #[repr(transparent)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(feature = "model"))]
    impl<T> UnsafeCell<T> {
        pub const fn new(value: T) -> Self {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Immutable access to the contents.
        ///
        /// # Safety
        ///
        /// As for dereferencing [`std::cell::UnsafeCell::get`]: the caller's
        /// protocol must order this read after the write that produced the
        /// value (and the model build verifies exactly that).
        #[inline(always)]
        pub unsafe fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Mutable access to the contents.
        ///
        /// # Safety
        ///
        /// As for [`Self::with`], plus exclusivity: the protocol must order
        /// this write after every earlier access.
        #[inline(always)]
        pub unsafe fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }

        /// Access through an exclusive borrow — always race-free.
        #[inline(always)]
        pub fn get_mut(&mut self) -> &mut T {
            self.0.get_mut()
        }

        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }
    }

    // SAFETY: sharing is sound only under the external synchronization the
    // containing primitive provides — the same contract as the std cell (and
    // what the model build actually checks).
    #[cfg(not(feature = "model"))]
    unsafe impl<T: Send> Send for UnsafeCell<T> {}
    #[cfg(not(feature = "model"))]
    unsafe impl<T: Send + Sync> Sync for UnsafeCell<T> {}
}

/// Mutual exclusion lock; `lock()` returns the guard directly and ignores
/// poisoning (see module docs).
#[derive(Default, Debug)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Create the lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// Acquire the lock, blocking; a poisoned lock is recovered, not
    /// propagated.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// The guard excludes: a second locker waits until the first guard
    /// drops, then sees its write.
    #[test]
    fn mutex_basic_and_try() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        let mut g = m.lock();
        std::thread::scope(|s| {
            let other = s.spawn(|| *m.lock());
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert!(
                !other.is_finished(),
                "a second guard while the first is held"
            );
            *g = 3;
            drop(g);
            assert_eq!(other.join().unwrap(), 3);
        });
    }

    #[test]
    fn poisoned_mutex_recovers() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poisoned std mutex would error here; ours hands back the guard.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }
}
