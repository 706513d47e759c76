//! Model atomics.
//!
//! Drop-in replacements for the `std::sync::atomic` types the shmem
//! primitives use. Inside a model run every operation is a scheduling point
//! and moves the vector clocks per its `Ordering` (see `crate::rt`).
//! Outside a model run the operations fall back to mutex-serialized direct
//! access — sequentially consistent, i.e. strictly stronger than anything
//! the caller asked for — so a crate compiled with its `model` feature still
//! behaves correctly when exercised by ordinary unit tests.

pub mod atomic {
    use std::sync::Mutex;

    use crate::rt::{op_cas, op_load, op_rmw, op_store, AtomicData};

    pub use crate::rt::Ordering;

    macro_rules! model_atomic_common {
        ($name:ident, $ty:ty) => {
            /// Model replacement for the `std` atomic of the same name.
            pub struct $name {
                data: Mutex<AtomicData<$ty>>,
            }

            impl $name {
                pub const fn new(value: $ty) -> Self {
                    $name {
                        data: Mutex::new(AtomicData::new(value)),
                    }
                }

                pub fn load(&self, order: Ordering) -> $ty {
                    op_load(&self.data, order)
                }

                pub fn store(&self, value: $ty, order: Ordering) {
                    op_store(&self.data, value, order)
                }

                pub fn swap(&self, value: $ty, order: Ordering) -> $ty {
                    op_rmw(&self.data, order, |_| value)
                }

                pub fn compare_exchange(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    op_cas(&self.data, current, new, success, failure)
                }

                /// Modeled with strong semantics: spurious failures would
                /// only add schedules in which callers retry, and every
                /// caller in this workspace already loops.
                pub fn compare_exchange_weak(
                    &self,
                    current: $ty,
                    new: $ty,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$ty, $ty> {
                    op_cas(&self.data, current, new, success, failure)
                }

                pub fn get_mut(&mut self) -> &mut $ty {
                    &mut self.data.get_mut().unwrap_or_else(|e| e.into_inner()).value
                }

                pub fn into_inner(self) -> $ty {
                    self.data
                        .into_inner()
                        .unwrap_or_else(|e| e.into_inner())
                        .value
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // Peek without a scheduling point: Debug formatting is
                    // diagnostics, not a modeled memory access.
                    let v = self.data.lock().unwrap_or_else(|e| e.into_inner()).value;
                    f.debug_tuple(stringify!($name)).field(&v).finish()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }
        };
    }

    macro_rules! model_atomic_int {
        ($name:ident, $ty:ty) => {
            model_atomic_common!($name, $ty);

            impl $name {
                pub fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                    op_rmw(&self.data, order, |v| v.wrapping_add(value))
                }

                pub fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                    op_rmw(&self.data, order, |v| v.wrapping_sub(value))
                }
            }
        };
    }

    model_atomic_int!(AtomicUsize, usize);
    model_atomic_int!(AtomicU64, u64);
    model_atomic_int!(AtomicU32, u32);
    model_atomic_common!(AtomicBool, bool);
}
