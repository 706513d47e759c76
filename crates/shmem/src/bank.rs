//! A bank of message counters keyed by operation id.
//!
//! The blocking cluster protocols get by with a fixed per-node array of
//! cumulative counters (`aux_counters` in `bgp-smp`) because at most one
//! operation is in flight per node at a time. Nonblocking collectives break
//! that assumption: many operations progress concurrently, each needing its
//! own producer streams (reception, partial-reduce, result) and completion
//! counts. A [`CounterBank`] provides exactly that — a node-wide map from a
//! caller-packed `u64` key (operation id + stream role) to a
//! [`MessageCounter`], created on first touch and retired explicitly when
//! the operation's progress engine garbage-collects it.
//!
//! Two properties make the bank safe to use without the cumulative-base
//! dance of the fixed array:
//!
//! * **Fresh keys start at zero.** Operation ids are never reused (they come
//!   from a monotone per-rank sequence), so a counter obtained for a new key
//!   has no history and waiters can use absolute byte counts.
//! * **Retirement is map cleanup — after the last lookup.**
//!   [`retire`](CounterBank::retire) removes the entry; any participant
//!   still holding the `Arc` keeps the counter alive and sees a frozen final
//!   value, so a stray late *reader* merely observes the final count. A
//!   late *lookup* is a different matter: [`counter`](CounterBank::counter)
//!   is get-or-create, so asking for a retired key silently yields a fresh
//!   counter at zero, and a waiter on it waits forever. Monotone op ids do
//!   not prevent that (they only keep a *new* op from inheriting an old
//!   count); the rule that does is the retiring side's: retire a key only
//!   after every participant that will ever look it up has reported in —
//!   and participants look their counters up before they report. The
//!   `bgp-sched` engine follows it: every member of an op, a broadcast's
//!   root included, reports on the op's done counter last of all.

use std::collections::HashMap;
use std::sync::Arc;

use crate::counter::MessageCounter;
use crate::sync::Mutex;

/// A node-wide bank of [`MessageCounter`]s keyed by `u64`.
///
/// Keys are caller-packed (the `bgp-sched` engine uses
/// `op_id << 8 | stream_role`). Lookup is get-or-create; the returned `Arc`
/// should be cached by the caller for the operation's lifetime — the bank
/// lock is for rendezvous, not for the per-chunk hot path.
pub struct CounterBank {
    inner: Mutex<HashMap<u64, Arc<MessageCounter>>>,
}

impl Default for CounterBank {
    fn default() -> Self {
        Self::new()
    }
}

impl CounterBank {
    /// An empty bank.
    pub fn new() -> Self {
        CounterBank {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// The counter for `key`, created at zero on first touch. All ranks
    /// asking for the same key get the same counter.
    pub fn counter(&self, key: u64) -> Arc<MessageCounter> {
        self.inner
            .lock()
            .entry(key)
            .or_insert_with(|| Arc::new(MessageCounter::new()))
            .clone()
    }

    /// Remove `key` from the bank. Returns whether it was present.
    /// Outstanding `Arc`s stay valid (see the module docs); the key must
    /// never be *looked up* again — which only the caller can guarantee, by
    /// retiring after every participant that looks it up has reported.
    pub fn retire(&self, key: u64) -> bool {
        self.inner.lock().remove(&key).is_some()
    }

    /// Number of live (un-retired) keys — the leak detector for tests.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Is the bank empty (every operation fully retired)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_yields_same_counter() {
        let bank = CounterBank::new();
        let a = bank.counter(42);
        let b = bank.counter(42);
        assert!(Arc::ptr_eq(&a, &b));
        a.publish(10);
        assert_eq!(b.read(), 10);
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let bank = CounterBank::new();
        bank.counter(1).publish(5);
        assert_eq!(bank.counter(2).read(), 0);
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn retire_removes_but_arcs_survive() {
        let bank = CounterBank::new();
        let held = bank.counter(7);
        held.publish(99);
        assert!(bank.retire(7));
        assert!(!bank.retire(7), "double retire reports absence");
        assert!(bank.is_empty());
        // The held Arc still reads the final value.
        assert_eq!(held.read(), 99);
    }

    #[test]
    fn concurrent_get_or_create_converges() {
        let bank = Arc::new(CounterBank::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let bank = bank.clone();
                std::thread::spawn(move || {
                    for key in 0..32u64 {
                        bank.counter(key).publish(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bank.len(), 32);
        for key in 0..32u64 {
            assert_eq!(bank.counter(key).read(), 4, "key {key}");
        }
    }
}
