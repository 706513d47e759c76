//! §IV-A's claim, measured on real threads: the fetch-and-increment Bcast
//! FIFO against the mutex-per-operation strawman the paper argues against,
//! 1 producer / 3 consumers. Every other real-thread number comes from
//! `benchmark/`; no metric there measures the strawman, so this ablation
//! stays. On a host with few cores the absolute numbers are host-specific;
//! the *ordering* is the paper's.

use std::hint::black_box;

use bgp_bench::harness::bench_case;
use bgp_shmem::BcastFifo;

const MSGS: u64 = 2_000;

fn main() {
    println!("intranode_real: atomic fetch-and-add Bcast FIFO vs mutex FIFO (wall time)");

    bench_case("fifo_vs_mutex/atomic_faa_fifo", 10, || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(64, 3);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..MSGS {
                    fifo.enqueue(i);
                }
            });
            for c in consumers.iter_mut() {
                s.spawn(move || {
                    let mut sum = 0u64;
                    for _ in 0..MSGS {
                        sum += c.recv();
                    }
                    black_box(sum)
                });
            }
        });
    });
    bench_case("fifo_vs_mutex/mutex_fifo", 10, || {
        let (fifo, mut consumers) = MutexBcastFifo::with_consumers(64, 3);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..MSGS {
                    fifo.enqueue(i);
                }
            });
            for c in consumers.iter_mut() {
                s.spawn(move || {
                    let mut sum = 0u64;
                    for _ in 0..MSGS {
                        sum += c.recv();
                    }
                    assert_eq!(sum, MSGS * (MSGS - 1) / 2, "strawman lost a message");
                    black_box(sum)
                });
            }
        });
    });
}

// ---------------------------------------------------------------------------
// The lock-based broadcast FIFO the paper argues *against*.
//
// §IV-A: "One of the ways would be to use a mutex for the FIFO and obtain a
// unique slot … However, one would incur the overhead of lock/unlock for
// every enqueue operation." This is exactly that strawman — a
// mutex-protected broadcast queue with the delivery semantics of
// `bgp_shmem::BcastFifo` — kept here, with its only user, so the claim stays
// testable on real hardware without a bench-only baseline in the library.

use std::collections::VecDeque;
use std::sync::Arc;

use bgp_shmem::spin;
use bgp_shmem::sync::Mutex;

struct Inner<T> {
    /// Messages still needed by at least one consumer, with the count of
    /// consumers that have already read each.
    queue: VecDeque<(T, usize)>,
    /// Ticket of the oldest message still in `queue`.
    head_ticket: usize,
    /// Next ticket to assign.
    tail_ticket: usize,
    capacity: usize,
    n_consumers: usize,
}

/// A mutex-protected broadcast FIFO (the §IV-A baseline).
struct MutexBcastFifo<T> {
    inner: Mutex<Inner<T>>,
}

/// Consumer handle with a private cursor (same shape as
/// `bgp_shmem::BcastConsumer`).
struct MutexBcastConsumer<T> {
    fifo: Arc<MutexBcastFifo<T>>,
    cursor: usize,
}

impl<T: Clone> MutexBcastFifo<T> {
    /// Create with `capacity` slots for `n_consumers` consumers.
    fn with_consumers(
        capacity: usize,
        n_consumers: usize,
    ) -> (Arc<Self>, Vec<MutexBcastConsumer<T>>) {
        assert!(capacity >= 1, "capacity must be at least 1");
        assert!(n_consumers >= 1, "need at least one consumer");
        let fifo = Arc::new(MutexBcastFifo {
            inner: Mutex::new(Inner {
                queue: VecDeque::with_capacity(capacity),
                head_ticket: 0,
                tail_ticket: 0,
                capacity,
                n_consumers,
            }),
        });
        let consumers = (0..n_consumers)
            .map(|_| MutexBcastConsumer {
                fifo: fifo.clone(),
                cursor: 0,
            })
            .collect();
        (fifo, consumers)
    }

    /// Broadcast `value`, blocking (spinning) while the FIFO is full.
    fn enqueue(&self, value: T) {
        loop {
            {
                let mut g = self.inner.lock();
                if g.queue.len() < g.capacity {
                    g.queue.push_back((value, 0));
                    g.tail_ticket += 1;
                    return;
                }
            }
            spin();
        }
    }

    fn try_read(&self, cursor: usize) -> Option<T> {
        let mut g = self.inner.lock();
        if cursor < g.head_ticket || cursor >= g.tail_ticket {
            return None; // already retired (impossible per-consumer) or not yet produced
        }
        let idx = cursor - g.head_ticket;
        let value = g.queue[idx].0.clone();
        g.queue[idx].1 += 1;
        // Retire any fully-read prefix.
        while g
            .queue
            .front()
            .is_some_and(|(_, reads)| *reads == g.n_consumers)
        {
            g.queue.pop_front();
            g.head_ticket += 1;
        }
        Some(value)
    }
}

impl<T: Clone> MutexBcastConsumer<T> {
    /// Receive the next message, spinning until available.
    fn recv(&mut self) -> T {
        loop {
            if let Some(v) = self.fifo.try_read(self.cursor) {
                self.cursor += 1;
                return v;
            }
            spin();
        }
    }
}
