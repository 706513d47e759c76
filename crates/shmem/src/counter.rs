//! Software message counters (paper §IV-C).
//!
//! The DMA engine tracks progress with hardware byte counters; the paper
//! mirrors that design in software so intra-node consumers can chase a
//! network reception *as it happens*. A [`MessageCounter`] is a single
//! monotonically increasing byte count: the producer (the rank receiving
//! from the network) publishes after each chunk lands; consumers poll and
//! copy the newly valid prefix. The [`CompletionCounter`] is the atomic
//! "all n-1 peers are done" count the master needs before it may reuse or
//! overwrite its buffer.

use crate::pad::CachePadded;
use crate::sync::atomic::{AtomicU64, Ordering};

use crate::model_support;
use crate::spin;

/// A monotone byte counter published by one producer, polled by any number
/// of consumers.
///
/// The counter value is the number of bytes of the stream that are valid in
/// the producer's buffer. `publish` uses `Release` so a consumer that
/// `Acquire`-reads the new value also observes the buffer bytes it covers.
///
/// # Reuse across operations
///
/// The counter is **cumulative**: it never goes back to zero. Each
/// participant of an operation knows the counter's value before the
/// operation's first publish — its *base* — and waits for `base + k`
/// instead of `k`; [`wait_past`](Self::wait_past) packages that wait. Two
/// ways of knowing the base are sound:
///
/// * read it with [`read`](Self::read) while it is stable — after the
///   previous operation's closing barrier (which follows its last publish)
///   and before a barrier that precedes this operation's first publish;
/// * keep it rank-locally and advance it by the bytes each operation
///   published, when those amounts are known to every participant (SPMD
///   arguments make them deterministic) — no start barrier needed.
///
/// Either way the operation must end with a barrier (or another
/// happens-before edge) after its last wait, so the producer cannot run
/// ahead into the next operation's bytes while a consumer still copies this
/// one's. `bgp-smp`'s node collectives use both forms; `tests/model.rs` of
/// `bgp-smp` model-checks the second.
#[derive(Debug)]
pub struct MessageCounter {
    bytes: CachePadded<AtomicU64>,
    /// Lifetime consumer polls (reads inside [`wait_for`](Self::wait_for)
    /// spins). On its own line, and updated once per `wait_for` call rather
    /// than per spin, so accounting never perturbs the hot path.
    polls: CachePadded<AtomicU64>,
}

impl Default for MessageCounter {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageCounter {
    /// A counter at zero.
    pub fn new() -> Self {
        MessageCounter {
            bytes: CachePadded::new(AtomicU64::new(0)),
            polls: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Producer: `delta` more bytes of the stream are now valid.
    ///
    /// Returns the new total.
    #[inline]
    pub fn publish(&self, delta: u64) -> u64 {
        // Seeded bug: a relaxed publication no longer makes the buffer
        // bytes visible to the consumer that observes the new count.
        let order = model_support::relaxed_if("counter_publish_relaxed", Ordering::Release);
        self.bytes.fetch_add(delta, order) + delta
    }

    /// Consumer: the currently valid byte count (acquire: pairs with
    /// [`publish`](Self::publish), making the covered bytes visible).
    #[inline]
    pub fn read(&self) -> u64 {
        self.bytes.load(Ordering::Acquire)
    }

    /// Consumer: spin until at least `target` bytes are valid; returns the
    /// observed count (which may exceed `target`).
    pub fn wait_for(&self, target: u64) -> u64 {
        let mut local_polls = 0u64;
        let got = loop {
            local_polls += 1;
            let v = self.read();
            if v >= target {
                break v;
            }
            spin();
        };
        self.polls.fetch_add(local_polls, Ordering::Relaxed);
        got
    }

    /// Consumer: spin until at least `delta` bytes past `base` are valid;
    /// returns the observed count *relative to `base`* (≥ `delta`). `base`
    /// is the counter's value before the operation's first publish — see
    /// *Reuse across operations* in the type docs.
    #[inline]
    pub fn wait_past(&self, base: u64, delta: u64) -> u64 {
        self.wait_for(base + delta) - base
    }

    /// Lifetime number of consumer polls spent in
    /// [`wait_for`](Self::wait_for) (each loop iteration is one poll).
    /// Relaxed snapshot.
    pub fn poll_count(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }
}

/// The atomic completion counter of §V-A: initialised to zero by the master;
/// every peer increments once when it has finished copying; when the count
/// reaches `n-1` the master may reuse its buffer.
///
/// Reusable across operations through an internal epoch: arrivals and the
/// epoch number are packed into one atomic word (arrivals in the low 32
/// bits, epoch in the high 32), and [`reset`](Self::reset) begins a new
/// epoch with the arrival count back at zero. Arriving into an
/// already-complete, un-reset counter is a protocol violation — the arrival
/// would be credited to a *finished* operation and silently lost to the
/// next one — so [`arrive`](Self::arrive) checks for it in **all** builds
/// and panics, naming the epoch. (On BG/P this is a plain shared word; the
/// paper's flow structure makes the misuse impossible, but a library should
/// check.)
#[derive(Debug)]
pub struct CompletionCounter {
    /// Low 32 bits: arrivals this epoch. High 32 bits: epoch number.
    state: CachePadded<AtomicU64>,
    expected: u64,
}

/// Mask selecting the arrival count from the packed state word.
const ARRIVALS_MASK: u64 = u32::MAX as u64;
/// Shift selecting the epoch from the packed state word.
const EPOCH_SHIFT: u32 = 32;

impl CompletionCounter {
    /// A counter expecting `expected` arrivals (use `n-1` for n ranks).
    pub fn new(expected: u64) -> Self {
        assert!(
            expected < ARRIVALS_MASK,
            "completion counter supports at most {} arrivals per epoch",
            ARRIVALS_MASK - 1
        );
        CompletionCounter {
            state: CachePadded::new(AtomicU64::new(0)),
            expected,
        }
    }

    /// The number of arrivals this counter waits for.
    #[inline]
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// The current epoch (0 before the first [`reset`](Self::reset)).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.state.load(Ordering::Relaxed) >> EPOCH_SHIFT
    }

    /// A peer announces it is done. Returns `true` if this was the final
    /// arrival. Release ordering: the master's acquire in
    /// [`is_complete`](Self::is_complete)/[`wait`](Self::wait) then
    /// happens-after every peer's copies.
    ///
    /// # Panics
    ///
    /// In all builds, if the current epoch was already complete: the caller
    /// skipped the [`reset`](Self::reset) that separates operations, and
    /// its arrival would otherwise leak into the next epoch's count.
    #[inline]
    pub fn arrive(&self) -> bool {
        // Seeded bug: a relaxed arrival breaks the peers' copies → master's
        // buffer-reuse happens-before chain.
        let order = model_support::relaxed_if("completion_arrive_relaxed", Ordering::Release);
        let prev = self.state.fetch_add(1, order);
        let arrivals = prev & ARRIVALS_MASK;
        assert!(
            arrivals < self.expected,
            "completion counter overflow in epoch {}: arrival {} of {} — \
             reset() must separate operations",
            prev >> EPOCH_SHIFT,
            arrivals + 1,
            self.expected
        );
        arrivals + 1 == self.expected
    }

    /// Master: have all peers arrived?
    #[inline]
    pub fn is_complete(&self) -> bool {
        (self.state.load(Ordering::Acquire) & ARRIVALS_MASK) >= self.expected
    }

    /// Master: spin until all peers arrived.
    pub fn wait(&self) {
        while !self.is_complete() {
            spin();
        }
    }

    /// Master only, after completion: rearm for the next operation by
    /// starting a fresh epoch with zero arrivals.
    pub fn reset(&self) {
        // Not an RMW: per the contract no peer may be arriving concurrently
        // (the master only resets after completion), so a computed store is
        // race-free — and keeps reset() a single release publication, like
        // the plain shared word on BG/P.
        let epoch = self.state.load(Ordering::Relaxed) >> EPOCH_SHIFT;
        self.state
            .store((epoch + 1) << EPOCH_SHIFT, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn publish_accumulates() {
        let c = MessageCounter::new();
        assert_eq!(c.read(), 0);
        assert_eq!(c.publish(100), 100);
        assert_eq!(c.publish(28), 128);
        assert_eq!(c.read(), 128);
    }

    #[test]
    fn wait_past_is_base_relative() {
        // Two "operations" on one counter: the second op's consumers wait
        // relative to the base they read at its start.
        let c = MessageCounter::new();
        c.publish(300); // op 1
        assert_eq!(c.wait_past(0, 300), 300);
        let base = c.read();
        assert_eq!(base, 300);
        c.publish(128); // op 2, chunk 1
        c.publish(72); // op 2, chunk 2
        assert_eq!(c.wait_past(base, 128), 200);
        assert_eq!(c.wait_past(base, 200), 200);
    }

    #[test]
    fn wait_for_returns_at_or_above_target() {
        let c = MessageCounter::new();
        c.publish(512);
        assert_eq!(c.wait_for(512), 512);
        assert_eq!(c.wait_for(100), 512);
    }

    #[test]
    fn poll_count_accumulates_per_wait() {
        let c = MessageCounter::new();
        c.publish(512);
        assert_eq!(c.poll_count(), 0);
        c.wait_for(100); // satisfied on the first poll
        assert_eq!(c.poll_count(), 1);
        c.wait_for(512);
        assert_eq!(c.poll_count(), 2);
    }

    #[test]
    fn counter_chase_across_threads() {
        // A producer publishes a buffer chunk by chunk; a consumer chases
        // the counter and must observe every published byte correctly.
        // This is the §V-A broadcast data path in miniature.
        const CHUNK: usize = 1024;
        let chunks = crate::testing::stress_iters(64);
        let buf: Arc<Vec<std::sync::atomic::AtomicU8>> = Arc::new(
            (0..CHUNK * chunks)
                .map(|_| std::sync::atomic::AtomicU8::new(0))
                .collect(),
        );
        let ctr = Arc::new(MessageCounter::new());

        let producer = {
            let buf = buf.clone();
            let ctr = ctr.clone();
            thread::spawn(move || {
                for k in 0..chunks {
                    for i in 0..CHUNK {
                        buf[k * CHUNK + i].store((k % 251) as u8, Ordering::Relaxed);
                    }
                    ctr.publish(CHUNK as u64);
                }
            })
        };
        let consumer = {
            let buf = buf.clone();
            let ctr = ctr.clone();
            thread::spawn(move || {
                let mut seen = 0u64;
                while seen < (CHUNK * chunks) as u64 {
                    let avail = ctr.wait_for(seen + 1);
                    for i in seen..avail {
                        let k = (i as usize) / CHUNK;
                        let v = buf[i as usize].load(Ordering::Relaxed);
                        assert_eq!(v, (k % 251) as u8, "byte {i} not yet visible");
                    }
                    seen = avail;
                }
            })
        };
        producer.join().unwrap();
        consumer.join().unwrap();
    }

    #[test]
    fn completion_counts_to_expected() {
        let c = CompletionCounter::new(3);
        assert!(!c.is_complete());
        assert!(!c.arrive());
        assert!(!c.arrive());
        assert!(c.arrive());
        assert!(c.is_complete());
        c.reset();
        assert!(!c.is_complete());
    }

    #[test]
    fn completion_zero_expected_is_always_complete() {
        let c = CompletionCounter::new(0);
        assert!(c.is_complete());
        c.wait();
    }

    #[test]
    fn epoch_advances_across_resets() {
        let c = CompletionCounter::new(2);
        assert_eq!(c.epoch(), 0);
        for round in 1..=3u64 {
            assert!(!c.arrive());
            assert!(c.arrive());
            assert!(c.is_complete());
            c.reset();
            assert_eq!(c.epoch(), round);
            assert!(!c.is_complete(), "reset must clear the arrival count");
        }
    }

    #[test]
    #[should_panic(expected = "completion counter overflow")]
    fn arrival_into_complete_epoch_is_caught() {
        // Regression: this used to be a debug_assert!, letting release
        // builds silently credit the arrival to a finished operation. The
        // guard is now unconditional.
        let c = CompletionCounter::new(1);
        assert!(c.arrive());
        let _ = c.arrive(); // must panic: epoch 0 was already complete
    }

    #[test]
    fn completion_across_threads() {
        let c = Arc::new(CompletionCounter::new(7));
        let mut handles = Vec::new();
        for _ in 0..7 {
            let c = c.clone();
            handles.push(thread::spawn(move || {
                c.arrive();
            }));
        }
        c.wait();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.is_complete());
    }

    #[test]
    fn exactly_one_final_arrival() {
        // Under concurrency, exactly one arriver sees `true`.
        for _ in 0..50 {
            let c = Arc::new(CompletionCounter::new(8));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let c = c.clone();
                handles.push(thread::spawn(move || u32::from(c.arrive())));
            }
            let finals: u32 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(finals, 1);
        }
    }
}
