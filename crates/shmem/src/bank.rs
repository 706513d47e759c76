//! A bank of per-operation counter blocks keyed by operation id.
//!
//! The blocking cluster protocols get by with a fixed per-node array of
//! cumulative counters (`aux_counters` in `bgp-smp`) because at most one
//! operation is in flight per node at a time. Nonblocking collectives break
//! that assumption: many operations progress concurrently, each needing its
//! own result stream, completion count and per-member contribution
//! streams. A [`CounterBank`] provides exactly that — a node-wide map from
//! an operation id to one [`OpCounters`] block holding all of them, created
//! on first touch and retired explicitly, once, when the operation's
//! progress engine garbage-collects it. Like the DMA byte counters the
//! paper's software counters mirror, blocks are a reused set: a retired
//! block goes onto a free list and serves a later operation.
//!
//! Two properties make the bank safe to use without the cumulative-base
//! dance of the fixed array:
//!
//! * **A block is handed out again only when unique.** A retired block is
//!   reset to zero and given to a new operation only if nobody else holds
//!   it — [`Arc::get_mut`] succeeds, so every earlier holder's reads
//!   happened before the reset. A block some participant still holds is
//!   dropped from the free list instead; it lives on for its holders with
//!   its final values. So nothing is ever reset under a reader, waiters can
//!   use absolute byte counts, and the free list never holds more blocks
//!   than the peak number of live operations.
//! * **Retirement is map cleanup — after the last lookup.**
//!   [`retire`](CounterBank::retire) removes the entry; any participant
//!   still holding the `Arc` keeps the block alive and sees frozen final
//!   values, so a stray late *reader* merely observes the final count. A
//!   late *lookup* is a different matter: [`op`](CounterBank::op) is
//!   get-or-create, so asking for a retired operation silently yields a
//!   fresh block at zero, and a waiter on it waits forever. Monotone op ids
//!   do not prevent that (they only keep a *new* op from inheriting an old
//!   count); the rule that does is the retiring side's: retire an operation
//!   only after every participant that will ever look it up has reported
//!   in — and participants look their block up before they report. The
//!   `bgp-sched` engine follows it: every member of an op, a broadcast's
//!   root included, reports on the op's done counter last of all.

use std::collections::HashMap;
use std::sync::Arc;

use crate::counter::MessageCounter;
use crate::sync::Mutex;

/// The counters of one operation on one node.
#[derive(Debug)]
pub struct OpCounters {
    /// Result bytes valid on this node, as a prefix (the `bgp-sched` engine
    /// publishes one more once the node's network flow is finished).
    pub res: MessageCounter,
    /// Members of the operation on this node that reported done.
    pub done: MessageCounter,
    /// One contribution stream per member.
    parts: Vec<MessageCounter>,
}

impl OpCounters {
    fn new(parts: usize) -> Self {
        OpCounters {
            res: MessageCounter::new(),
            done: MessageCounter::new(),
            parts: (0..parts).map(|_| MessageCounter::new()).collect(),
        }
    }

    /// Back to zero, with `parts` streams; allocates only to grow past
    /// every earlier use of the block.
    fn reset(&mut self, parts: usize) {
        self.res = MessageCounter::new();
        self.done = MessageCounter::new();
        self.parts.clear();
        self.parts.resize_with(parts, MessageCounter::new);
    }

    /// The contribution streams, one per member.
    pub fn parts(&self) -> &[MessageCounter] {
        &self.parts
    }
}

#[derive(Default)]
struct Blocks {
    live: HashMap<u64, Arc<OpCounters>>,
    /// Retired blocks, most recent last.
    free: Vec<Arc<OpCounters>>,
}

/// A node-wide bank of [`OpCounters`] blocks keyed by operation id.
///
/// Lookup is get-or-create; the returned `Arc` should be cached by the
/// caller for the operation's lifetime — the bank lock is for rendezvous,
/// not for the per-chunk hot path.
#[derive(Default)]
pub struct CounterBank {
    inner: Mutex<Blocks>,
}

impl CounterBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// The block of operation `op`, with `parts` contribution streams,
    /// created at zero on first touch — from a retired block nobody holds
    /// any more, when there is one. All ranks asking for the same `op` get
    /// the same block, and must ask for the same number of `parts`.
    pub fn op(&self, op: u64, parts: usize) -> Arc<OpCounters> {
        let mut blocks = self.inner.lock();
        let Blocks { live, free } = &mut *blocks;
        let block = live.entry(op).or_insert_with(|| {
            while let Some(mut spare) = free.pop() {
                if let Some(b) = Arc::get_mut(&mut spare) {
                    b.reset(parts);
                    return spare;
                }
            }
            Arc::new(OpCounters::new(parts))
        });
        debug_assert_eq!(block.parts.len(), parts, "op {op}: parts disagree");
        block.clone()
    }

    /// Remove `op` from the bank, keeping its block for reuse. Returns
    /// whether it was present. Outstanding `Arc`s stay valid (see the module
    /// docs); the op must never be *looked up* again — which only the caller
    /// can guarantee, by retiring after every participant that looks it up
    /// has reported.
    pub fn retire(&self, op: u64) -> bool {
        let mut blocks = self.inner.lock();
        let Some(block) = blocks.live.remove(&op) else {
            return false;
        };
        blocks.free.push(block);
        true
    }

    /// Number of live (un-retired) operations — the leak detector for
    /// tests.
    pub fn len(&self) -> usize {
        self.inner.lock().live.len()
    }

    /// Is the bank empty (every operation fully retired)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// Retired blocks kept for reuse.
    fn spare(bank: &CounterBank) -> usize {
        bank.inner.lock().free.len()
    }

    #[test]
    fn same_key_yields_same_counter() {
        let bank = CounterBank::new();
        let a = bank.op(42, 2);
        let b = bank.op(42, 2);
        assert!(Arc::ptr_eq(&a, &b));
        a.res.publish(10);
        a.parts()[1].publish(3);
        assert_eq!(b.res.read(), 10);
        assert_eq!(b.parts()[1].read(), 3);
        assert_eq!(bank.len(), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        let bank = CounterBank::new();
        bank.op(1, 1).done.publish(5);
        let other = bank.op(2, 1);
        assert_eq!(other.done.read(), 0);
        assert_eq!(other.parts()[0].read(), 0);
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn retire_removes_but_arcs_survive() {
        let bank = CounterBank::new();
        let held = bank.op(7, 0);
        held.res.publish(99);
        assert!(bank.retire(7));
        assert!(!bank.retire(7), "double retire reports absence");
        assert!(bank.is_empty());
        // The held Arc still reads the final value.
        assert_eq!(held.res.read(), 99);
    }

    #[test]
    fn concurrent_get_or_create_converges() {
        let bank = Arc::new(CounterBank::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let bank = bank.clone();
                std::thread::spawn(move || {
                    for op in 0..32u64 {
                        bank.op(op, 1).parts()[0].publish(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bank.len(), 32);
        for op in 0..32u64 {
            assert_eq!(bank.op(op, 1).parts()[0].read(), 4, "op {op}");
        }
    }

    /// A retired block a participant still holds is never handed to a new
    /// op, and keeps its final values; once released, the next op gets it
    /// back at zero.
    #[test]
    fn a_held_block_is_never_reused_and_a_released_one_is_reset() {
        let bank = CounterBank::new();
        let held = bank.op(1, 2);
        held.res.publish(7);
        held.parts()[1].publish(3);
        assert!(bank.retire(1));
        let next = bank.op(2, 2);
        assert!(!Arc::ptr_eq(&held, &next), "a held block was handed out");
        assert_eq!(spare(&bank), 0, "a held block is dropped from the list");
        next.res.publish(1);
        assert_eq!((held.res.read(), held.parts()[1].read()), (7, 3));

        let released = Arc::as_ptr(&next);
        next.done.publish(2);
        next.parts()[0].publish(5);
        drop(next);
        assert!(bank.retire(2));
        let reused = bank.op(3, 3);
        assert_eq!(Arc::as_ptr(&reused), released, "the released block");
        assert_eq!((reused.res.read(), reused.done.read()), (0, 0));
        assert!(reused.parts().iter().all(|c| c.read() == 0));
        assert_eq!(reused.parts().len(), 3);
    }

    /// Ten thousand ops, sixteen in flight, each retired while its last
    /// participant may still hold it: the free list never outgrows the
    /// peak number of ops in flight.
    #[test]
    fn the_free_list_stays_within_the_peak_in_flight() {
        const DEPTH: usize = 16;
        let bank = CounterBank::new();
        let (mut flight, mut lingering) = (VecDeque::new(), VecDeque::new());
        let mut peak = 0;
        for op in 0..10_000u64 {
            flight.push_back((op, bank.op(op, 1 + (op % 3) as usize)));
            peak = peak.max(bank.len());
            if flight.len() == DEPTH {
                for (op, block) in flight.drain(..) {
                    block.done.publish(1);
                    assert!(bank.retire(op));
                    // Every third participant lets go only after the next
                    // round has posted.
                    if op % 3 == 0 {
                        lingering.push_back(block);
                    }
                }
            }
            if op as usize % DEPTH == DEPTH / 2 {
                lingering.clear();
            }
            assert!(spare(&bank) <= peak, "op {op}: {} spare", spare(&bank));
        }
        assert_eq!(peak, DEPTH);
    }
}
