//! The Bcast FIFO (paper §IV-B, Figure 1) — the paper's proposed concurrent
//! data structure.
//!
//! Enqueueing works exactly like the [Pt-to-Pt FIFO](crate::ptp_fifo): the
//! producer atomically fetch-and-increments the tail to reserve a unique
//! slot, writes the payload and metadata, and completes the write with a
//! publication store. The difference is on the consumer side: a broadcast
//! message must be read by **every** consumer, so alongside the payload each
//! slot carries an atomic counter initialised to the consumer count; every
//! reader decrements it after copying, and the *last* reader retires the
//! slot and advances the shared head — "the last arriving process completes
//! the dequeue operation".
//!
//! Each consumer tracks its own read cursor (a private ticket count); the
//! shared head exists for space accounting, exactly as in Figure 1.
//!
//! The structure works on any platform with fetch-and-increment, which is
//! the paper's portability argument — and here it runs on real hardware
//! atomics rather than simulated ones.

use std::mem::MaybeUninit;
use std::sync::Arc;

use crate::pad::CachePadded;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;

use crate::model_support;
use crate::spin;

struct Slot<T> {
    /// Cycle tag, same protocol as the Pt-to-Pt FIFO: `ticket` = free for
    /// producer, `ticket + 1` = published, `ticket + capacity` = retired.
    seq: AtomicUsize,
    /// Readers that still need this slot; initialised to the consumer count
    /// before publication ("set to (n-1)" in the paper, where the producer
    /// is the n-th process).
    readers_left: AtomicUsize,
    val: UnsafeCell<MaybeUninit<T>>,
}

/// The shared state of a Bcast FIFO with a fixed consumer set.
pub struct BcastFifo<T> {
    slots: Box<[Slot<T>]>,
    cap: usize,
    n_consumers: usize,
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    /// Messages actually published (diagnostic). Distinct from `tail`:
    /// a producer increments `tail` to *reserve* a ticket and may then spin
    /// for space, so `tail` counts reservations, not completed enqueues.
    published: CachePadded<AtomicUsize>,
    /// Total per-consumer reads (diagnostic; own line to keep the hot
    /// head/tail words uncontended).
    dequeues: CachePadded<AtomicUsize>,
}

/// Lifetime operation counts of a [`BcastFifo`] (see [`BcastFifo::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoStats {
    /// Messages ever enqueued.
    pub enqueued: u64,
    /// Per-consumer reads, summed over all consumers.
    pub dequeued: u64,
    /// Slots fully retired (read by every consumer).
    pub retired: u64,
}

// SAFETY: same hand-off discipline as PtpFifo; the payload is only read
// between publication (seq == t+1, acquire) and retirement, and readers only
// clone through a shared reference.
unsafe impl<T: Send + Sync> Send for BcastFifo<T> {}
unsafe impl<T: Send + Sync> Sync for BcastFifo<T> {}

impl<T: Clone> BcastFifo<T> {
    /// Create a Bcast FIFO with `capacity` slots and exactly `n_consumers`
    /// consumers. Returns the shared handle (for producers) plus one
    /// [`BcastConsumer`] per consumer.
    ///
    /// In the paper's broadcast use there is one producer (the master rank
    /// that receives from the network) and `n-1` consumers (its node peers),
    /// but nothing restricts the producer side: any thread may enqueue, and
    /// streams from multiple connections can be multiplexed into one FIFO.
    /// `capacity` must be at least 2 (single-slot tag collision — see
    /// [`crate::PtpFifo::new`]).
    pub fn with_consumers(
        capacity: usize,
        n_consumers: usize,
    ) -> (Arc<Self>, Vec<BcastConsumer<T>>) {
        assert!(capacity >= 2, "FIFO capacity must be at least 2");
        assert!(
            n_consumers >= 1,
            "a broadcast FIFO needs at least one consumer"
        );
        let slots = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                readers_left: AtomicUsize::new(0),
                val: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        let fifo = Arc::new(BcastFifo {
            slots,
            cap: capacity,
            n_consumers,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            published: CachePadded::new(AtomicUsize::new(0)),
            dequeues: CachePadded::new(AtomicUsize::new(0)),
        });
        let consumers = (0..n_consumers)
            .map(|_| BcastConsumer {
                fifo: fifo.clone(),
                cursor: 0,
            })
            .collect();
        (fifo, consumers)
    }

    /// Slot count.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Messages enqueued and not yet fully retired.
    ///
    /// Diagnostic only: `head` and `tail` are read as two independent
    /// relaxed loads, so concurrent enqueues/retirements can be observed
    /// half-way and the raw difference can transiently exceed the slot
    /// count (a producer increments `tail` *before* waiting for its slot,
    /// so `tail - head` reaches `capacity + waiting producers`). The value
    /// is therefore clamped to `capacity()`; an underflow (head observed
    /// ahead of tail) reads as 0. The result is exact whenever the FIFO is
    /// externally quiesced.
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::Relaxed)
            .saturating_sub(self.head.load(Ordering::Relaxed))
            .min(self.cap)
    }

    /// Emptiness snapshot, with the same racy-diagnostic contract as
    /// [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime operation counts `(enqueued, dequeued, retired)`:
    /// messages ever enqueued, per-consumer reads summed over consumers,
    /// and slots fully retired (read by every consumer). Relaxed snapshots;
    /// exact when quiesced.
    ///
    /// `enqueued` counts *publications*, not ticket reservations: a
    /// producer spinning for space in a full FIFO has already incremented
    /// `tail` but has not enqueued anything yet, so `tail` would overcount
    /// by the number of waiting producers.
    pub fn stats(&self) -> FifoStats {
        FifoStats {
            enqueued: self.published.load(Ordering::Relaxed) as u64,
            dequeued: self.dequeues.load(Ordering::Relaxed) as u64,
            retired: self.head.load(Ordering::Relaxed) as u64,
        }
    }

    /// Broadcast `value` to all consumers, spinning while the FIFO is full.
    pub fn enqueue(&self, value: T) {
        let ticket = self.tail.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[ticket % self.cap];
        while slot.seq.load(Ordering::Acquire) != ticket {
            spin();
        }
        // Seeded bug for the model checker: publish before the payload is
        // written (callers can then read uninitialised/stale payload).
        if model_support::seeded("bcast_publish_before_write") {
            slot.readers_left.store(self.n_consumers, Ordering::Relaxed);
            slot.seq.store(ticket + 1, Ordering::Release);
            unsafe { slot.val.with_mut(|p| (*p).write(value)) };
            self.published.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: unique ticket holder for this cycle.
        unsafe { slot.val.with_mut(|p| (*p).write(value)) };
        // Seeded bug: leave `readers_left` at its retired value of 0, so the
        // slot can never retire again (every reader underflows the count).
        if !model_support::seeded("bcast_skip_readers_init") {
            slot.readers_left.store(self.n_consumers, Ordering::Relaxed);
        }
        slot.seq.store(
            ticket + 1,
            // Seeded bug: weaken the publication so payload visibility is
            // no longer ordered before the seq flip.
            model_support::relaxed_if("bcast_publish_relaxed", Ordering::Release),
        );
        self.published.fetch_add(1, Ordering::Relaxed);
    }

    /// Internal: consumer `cursor` reads its next message.
    fn read_at(&self, cursor: usize) -> T {
        let slot = &self.slots[cursor % self.cap];
        while slot.seq.load(Ordering::Acquire) != cursor + 1 {
            spin();
        }
        // SAFETY: published and not yet retired — retirement requires our
        // own decrement below.
        let value = unsafe { slot.val.with(|p| (*p).assume_init_ref().clone()) };
        self.dequeues.fetch_add(1, Ordering::Relaxed);
        // Seeded bug: a relaxed decrement severs the happens-before chain
        // from earlier readers to the last reader's payload drop.
        let dec_order = model_support::relaxed_if("bcast_retire_relaxed", Ordering::AcqRel);
        if slot.readers_left.fetch_sub(1, dec_order) == 1 {
            // Last reader: drop the payload, retire the slot, advance head.
            unsafe { slot.val.with_mut(|p| (*p).assume_init_drop()) };
            self.head.fetch_add(1, Ordering::Relaxed);
            slot.seq.store(cursor + self.cap, Ordering::Release);
        }
        value
    }

    /// Internal: non-blocking variant.
    fn try_read_at(&self, cursor: usize) -> Option<T> {
        let slot = &self.slots[cursor % self.cap];
        if slot.seq.load(Ordering::Acquire) != cursor + 1 {
            return None;
        }
        let value = unsafe { slot.val.with(|p| (*p).assume_init_ref().clone()) };
        self.dequeues.fetch_add(1, Ordering::Relaxed);
        let dec_order = model_support::relaxed_if("bcast_retire_relaxed", Ordering::AcqRel);
        if slot.readers_left.fetch_sub(1, dec_order) == 1 {
            unsafe { slot.val.with_mut(|p| (*p).assume_init_drop()) };
            self.head.fetch_add(1, Ordering::Relaxed);
            slot.seq.store(cursor + self.cap, Ordering::Release);
        }
        Some(value)
    }
}

impl<T> Drop for BcastFifo<T> {
    fn drop(&mut self) {
        // Drop any payloads that were published but not fully consumed.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for ticket in head..tail {
            let cap = self.cap;
            let slot = &mut self.slots[ticket % cap];
            if *slot.seq.get_mut() == ticket + 1 {
                unsafe { slot.val.get_mut().assume_init_drop() };
            }
        }
    }
}

/// One consumer's handle: holds the private read cursor.
pub struct BcastConsumer<T> {
    fifo: Arc<BcastFifo<T>>,
    cursor: usize,
}

impl<T: Clone> BcastConsumer<T> {
    /// Receive the next broadcast message, spinning until one is available.
    pub fn recv(&mut self) -> T {
        let v = self.fifo.read_at(self.cursor);
        self.cursor += 1;
        v
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self) -> Option<T> {
        let v = self.fifo.try_read_at(self.cursor)?;
        self.cursor += 1;
        Some(v)
    }

    /// Messages this consumer has received so far.
    pub fn received(&self) -> usize {
        self.cursor
    }

    /// The shared FIFO (e.g. to enqueue from a consumer thread).
    pub fn fifo(&self) -> &Arc<BcastFifo<T>> {
        &self.fifo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::stress_iters;
    use std::thread;

    #[test]
    fn every_consumer_sees_every_message_in_order() {
        let n = stress_iters(1_000) as u64;
        let (fifo, mut consumers) = BcastFifo::with_consumers(4, 3);
        let producer = thread::spawn(move || {
            for i in 0..n {
                fifo.enqueue(i);
            }
        });
        let handles: Vec<_> = consumers
            .drain(..)
            .map(|mut c| {
                thread::spawn(move || {
                    for i in 0..n {
                        assert_eq!(c.recv(), i);
                    }
                    c.received()
                })
            })
            .collect();
        producer.join().unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), n as usize);
        }
    }

    #[test]
    fn slot_retires_only_after_last_reader() {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 2);
        fifo.enqueue(7u32);
        assert_eq!(fifo.len(), 1);
        assert_eq!(consumers[0].recv(), 7);
        // One reader left: slot still occupied, head unmoved.
        assert_eq!(fifo.len(), 1);
        assert_eq!(consumers[1].recv(), 7);
        assert_eq!(fifo.len(), 0);
        // The FIFO is fully reusable now.
        fifo.enqueue(8);
        assert_eq!(consumers[0].recv(), 8);
        assert_eq!(consumers[1].recv(), 8);
    }

    #[test]
    fn stats_track_enqueues_dequeues_and_retires() {
        let (fifo, mut consumers) = BcastFifo::with_consumers(4, 2);
        for i in 0..3u64 {
            fifo.enqueue(i);
        }
        assert_eq!(fifo.len(), 3);
        for c in consumers.iter_mut() {
            for _ in 0..3 {
                c.recv();
            }
        }
        let s = fifo.stats();
        assert_eq!(
            s,
            FifoStats {
                enqueued: 3,
                dequeued: 6,
                retired: 3
            }
        );
        assert!(fifo.is_empty());
    }

    #[test]
    #[should_panic]
    fn capacity_one_rejected() {
        let _ = BcastFifo::<u8>::with_consumers(1, 2);
    }

    #[test]
    fn stats_enqueued_counts_publications_not_reservations() {
        // Regression: `enqueued` used to read `tail`, which a blocked
        // producer has already incremented while spinning for space — so a
        // full FIFO with a waiting producer overcounted. The publication
        // counter must not move until the message is actually in a slot.
        // (The racing variant of this property is model-checked in
        // tests/model.rs, where the checker can halt the producer exactly
        // between reservation and publication.)
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        fifo.enqueue(1u32);
        fifo.enqueue(2);
        assert_eq!(fifo.stats().enqueued, 2);
        let blocked = {
            let fifo = fifo.clone();
            thread::spawn(move || fifo.enqueue(3))
        };
        // The blocked producer may reserve its ticket at any time, but can
        // publish only after a slot retires; until we consume, `enqueued`
        // must stay at 2 no matter how long it has been spinning.
        for _ in 0..100 {
            assert!(fifo.stats().enqueued <= 2);
            std::thread::yield_now();
        }
        for expect in 1..=3u32 {
            assert_eq!(consumers[0].recv(), expect);
        }
        blocked.join().unwrap();
        assert_eq!(fifo.stats().enqueued, 3);
    }

    #[test]
    fn try_recv_none_until_published() {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        assert_eq!(consumers[0].try_recv(), None);
        fifo.enqueue(1u8);
        assert_eq!(consumers[0].try_recv(), Some(1));
        assert_eq!(consumers[0].try_recv(), None);
    }

    #[test]
    fn backpressure_from_slowest_consumer() {
        // A tiny FIFO with one fast and one slow consumer: the producer and
        // the fast consumer must both be throttled by the slow one, and no
        // message may be lost or reordered.
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 2);
        let n = stress_iters(5_000) as u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                fifo.enqueue(i);
            }
        });
        let fast = {
            let mut c = consumers.remove(0);
            thread::spawn(move || {
                for i in 0..n {
                    assert_eq!(c.recv(), i);
                }
            })
        };
        let slow = {
            let mut c = consumers.remove(0);
            thread::spawn(move || {
                for i in 0..n {
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                    assert_eq!(c.recv(), i);
                }
            })
        };
        producer.join().unwrap();
        fast.join().unwrap();
        slow.join().unwrap();
    }

    #[test]
    fn multiplexed_producers_interleave_without_loss() {
        // Paper: "broadcast streams from multiple connections can be
        // multiplexed into the same FIFO" — metadata carries the connection
        // id. Two producers, three consumers; each consumer must see every
        // message of each connection in that connection's order.
        let (fifo, mut consumers) = BcastFifo::with_consumers(8, 3);
        let per = stress_iters(2_000) as u64;
        let producers: Vec<_> = (0..2u64)
            .map(|conn| {
                let fifo = fifo.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        fifo.enqueue((conn, i));
                    }
                })
            })
            .collect();
        let handles: Vec<_> = consumers
            .drain(..)
            .map(|mut c| {
                thread::spawn(move || {
                    let mut next = [0u64; 2];
                    for _ in 0..(2 * per) {
                        let (conn, i) = c.recv();
                        assert_eq!(i, next[conn as usize], "conn {conn} reordered");
                        next[conn as usize] += 1;
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn payload_drop_correctness() {
        // Arc payloads: after the FIFO is dropped — with some messages
        // consumed by everyone, some by only one reader, and some by none —
        // the refcount must return to exactly 1 (no leak, no double-drop).
        // Note a producer can only run `capacity` tickets ahead of the
        // slowest reader, so all enqueues stay within capacity here.
        let probe = Arc::new(());
        {
            let (fifo, mut consumers) = BcastFifo::with_consumers(4, 2);
            for _ in 0..3 {
                fifo.enqueue(probe.clone());
            }
            // Consumer 0 reads all three; consumer 1 reads one; two
            // messages stay live in their slots at drop time.
            for _ in 0..3 {
                consumers[0].recv();
            }
            consumers[1].recv();
        }
        assert_eq!(Arc::strong_count(&probe), 1);
    }

    #[test]
    #[should_panic]
    fn zero_consumers_rejected() {
        let _ = BcastFifo::<u8>::with_consumers(4, 0);
    }

    #[test]
    fn heavy_contention_smoke() {
        // 1 producer, 3 consumers (the quad-mode shape), small FIFO, many
        // messages with a checksum over payloads.
        let (fifo, mut consumers) = BcastFifo::with_consumers(4, 3);
        let n = stress_iters(20_000) as u64;
        let expect: u64 = (0..n).sum();
        let producer = thread::spawn(move || {
            for i in 0..n {
                fifo.enqueue(i);
            }
        });
        let handles: Vec<_> = consumers
            .drain(..)
            .map(|mut c| thread::spawn(move || (0..n).map(|_| c.recv()).sum::<u64>()))
            .collect();
        producer.join().unwrap();
        for h in handles {
            assert_eq!(h.join().unwrap(), expect);
        }
    }
}
