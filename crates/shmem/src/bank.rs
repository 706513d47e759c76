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
//! * **A block carries the op's windows, and retirement clears them.** Next
//!   to its counters a block holds the op's buffer addresses: one landing
//!   window and one input window per member ([`OpWindow`]). An owner posts
//!   a buffer with one `Release` store and a peer maps it with one
//!   `Acquire` load, so the members of an op find each other's buffers in
//!   the block they already share, with no lock and no lookup. A posted
//!   window holds its buffer until it is cleared: by its owner, once nobody
//!   maps it any more ([`OpWindow::clear`]), or by the retiring side
//!   ([`OpCounters::clear_windows`], which the `bgp-sched` engine calls
//!   just before [`retire`](CounterBank::retire)). A block handed out
//!   again starts from empty windows whatever it held, and a dropped one
//!   lets go of what it held.
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
use crate::model_support;
use crate::region::SharedRegion;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::Mutex;

/// One buffer address of an op: empty, or the `Arc::into_raw` of a region
/// its owner posted, which the window holds until it is cleared (or
/// dropped). Posting is one `Release` store and mapping one `Acquire`
/// load, so a peer that maps the window sees every write the owner made
/// to the region before posting it.
#[derive(Debug, Default)]
pub struct OpWindow {
    ptr: AtomicUsize,
}

impl OpWindow {
    /// Owner side: post `region`. A window is posted at most once per use
    /// of its block.
    pub fn post(&self, region: Arc<SharedRegion>) {
        // Seeded bug for the model checker: a relaxed store no longer
        // publishes the owner's writes to the region it names.
        self.ptr.store(
            Arc::into_raw(region) as usize,
            model_support::relaxed_if("op_window_publish_relaxed", Ordering::Release),
        );
    }

    /// Peer side: the posted region, or `None` while nothing is posted.
    ///
    /// # Safety
    ///
    /// The window is not cleared before this call returns: in `bgp-sched`
    /// a member maps before it reports on the op's done counter, an owner
    /// clears its input window only once every mapper has mapped it, and
    /// the retiring side clears only after every member reported and only
    /// on its own thread.
    pub unsafe fn get(&self) -> Option<Arc<SharedRegion>> {
        let region = self.ptr.load(Ordering::Acquire) as *const SharedRegion;
        if region.is_null() {
            return None;
        }
        // SAFETY: a non-null word is the `Arc::into_raw` of a posted region
        // whose reference the window holds until it is cleared, which the
        // caller guarantees has not happened yet.
        unsafe {
            Arc::increment_strong_count(region);
            Some(Arc::from_raw(region))
        }
    }

    /// Drop the posted region, if any.
    ///
    /// # Safety
    ///
    /// No [`get`](Self::get) of this window runs during or after the call
    /// (until the block's next use posts again).
    pub unsafe fn clear(&self) {
        let region = self.ptr.swap(0, Ordering::Relaxed) as *const SharedRegion;
        if !region.is_null() {
            // SAFETY: the word held this reference, and no reader can take
            // another from it any more.
            drop(unsafe { Arc::from_raw(region) });
        }
    }
}

impl Drop for OpWindow {
    fn drop(&mut self) {
        let region = std::mem::take(self.ptr.get_mut()) as *const SharedRegion;
        if !region.is_null() {
            // SAFETY: an exclusive borrow: nobody can map the window.
            drop(unsafe { Arc::from_raw(region) });
        }
    }
}

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
    /// Where the op's result lands on this node.
    pub land: OpWindow,
    /// One input window per member, indexed like [`Self::parts`].
    inputs: Vec<OpWindow>,
}

impl OpCounters {
    fn new(parts: usize) -> Self {
        OpCounters {
            res: MessageCounter::new(),
            done: MessageCounter::new(),
            parts: (0..parts).map(|_| MessageCounter::new()).collect(),
            land: OpWindow::default(),
            inputs: (0..parts).map(|_| OpWindow::default()).collect(),
        }
    }

    /// Back to zero, with `parts` streams and empty windows; allocates only
    /// to grow past every earlier use of the block.
    fn reset(&mut self, parts: usize) {
        self.res = MessageCounter::new();
        self.done = MessageCounter::new();
        self.parts.clear();
        self.parts.resize_with(parts, MessageCounter::new);
        self.land = OpWindow::default();
        self.inputs.clear();
        self.inputs.resize_with(parts, OpWindow::default);
    }

    /// The contribution streams, one per member.
    pub fn parts(&self) -> &[MessageCounter] {
        &self.parts
    }

    /// The input windows, one per member.
    pub fn inputs(&self) -> &[OpWindow] {
        &self.inputs
    }

    /// Drop every region posted in the op's windows.
    ///
    /// # Safety
    ///
    /// No [`OpWindow::get`] of the block runs during or after the call:
    /// every member that maps has reported, and the caller is the only
    /// other side that maps.
    pub unsafe fn clear_windows(&self) {
        // SAFETY: per this function's contract.
        unsafe {
            self.land.clear();
            self.inputs.iter().for_each(|w| w.clear());
        }
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

    /// A window holds its region until it is cleared; a block handed out
    /// again starts with empty windows even if nobody cleared it, and a
    /// dropped block lets go of what it holds.
    #[test]
    fn windows_hold_until_cleared_and_a_reused_block_starts_empty() {
        let bank = CounterBank::new();
        let (a, b) = (
            Arc::new(SharedRegion::new(8)),
            Arc::new(SharedRegion::new(8)),
        );
        let counts = || (Arc::strong_count(&a), Arc::strong_count(&b));
        let block = bank.op(1, 2);
        block.land.post(a.clone());
        block.inputs()[1].post(b.clone());
        // SAFETY (every `get` and `clear_windows` here): one thread, so no
        // map runs during or after a clear.
        let got = unsafe { block.inputs()[1].get() }.expect("posted");
        assert!(Arc::ptr_eq(&got, &b));
        assert!(unsafe { block.inputs()[0].get() }.is_none());
        drop(got);
        assert_eq!(counts(), (2, 2));
        unsafe { block.clear_windows() };
        assert_eq!(counts(), (1, 1));
        assert!(unsafe { block.land.get() }.is_none());

        // Posted again and retired without a clear: the reuse empties it.
        block.land.post(a.clone());
        let released = Arc::as_ptr(&block);
        drop(block);
        assert!(bank.retire(1));
        let reused = bank.op(2, 3);
        assert_eq!(Arc::as_ptr(&reused), released, "the released block");
        assert_eq!(counts(), (1, 1), "the reset dropped the posted region");
        assert!(unsafe { reused.land.get() }.is_none());
        assert!(reused.inputs().iter().all(|w| unsafe { w.get() }.is_none()));
        assert_eq!(reused.inputs().len(), 3);

        reused.inputs()[2].post(b.clone());
        drop((reused, bank));
        assert_eq!(counts(), (1, 1), "a dropped block drops its regions");
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
