//! Model-checked verification of the shmem primitives.
//!
//! Compiled only with `--features model`, which routes the primitives'
//! atomics, payload cells, and spin loops through the `bgp-check`
//! deterministic scheduler. Run with:
//!
//! ```text
//! cargo test -p bgp-shmem --features model --test model
//! ```
//!
//! Three kinds of tests:
//!
//! * **Protocol oracles** — small producer/consumer scenarios explored
//!   schedule-exhaustively (bounded DFS) or over many seeded random
//!   schedules, with assertions for loss, duplication, reordering,
//!   last-reader retirement, and buffer-visibility-after-publication.
//! * **Mutation self-tests** — every named seeded bug in the primitives
//!   (see `bgp_shmem::model_support`) must be *caught* within a bounded
//!   schedule budget, and the reported trace must replay to the same
//!   failure. A checker that cannot fail proves nothing.
//! * **Regression tests** — the concrete bugs this checker found when it
//!   was first pointed at the crate (stats counting reserved tickets as
//!   enqueues; completion counter overflow being debug-only), pinned as
//!   model scenarios. (The third, `MessageCounter::reset` racing active
//!   waiters, went with `reset`: counters are cumulative now, and the
//!   protocol that replaced it is model-checked in `bgp-smp`.)

#![cfg(feature = "model")]

use std::sync::Arc;

use bgp_check::thread;
use bgp_check::{explore, model_with, Config, Failure, FailureKind};
use bgp_shmem::sync::cell::UnsafeCell;
use bgp_shmem::{
    BcastFifo, CompletionCounter, CounterBank, MessageCounter, PtpFifo, SeqLock, SharedRegion,
};

/// Explore a mutated scenario, require a failure within the budget, then
/// require that replaying the reported trace (with the same mutation)
/// reproduces the same kind of failure deterministically.
fn assert_mutation_caught(name: &str, cfg: Config, scenario: fn()) -> Failure {
    let report = explore(cfg.mutate(name), scenario);
    let failure = report.failure.unwrap_or_else(|| {
        panic!(
            "seeded bug `{name}` was NOT caught in {} schedule(s)",
            report.schedules
        )
    });
    let replay = explore(Config::replay(&failure.trace).mutate(name), scenario);
    assert_eq!(replay.schedules, 1);
    let replayed = replay
        .failure
        .unwrap_or_else(|| panic!("replaying the failing trace of `{name}` found no failure"));
    assert_eq!(replayed.kind, failure.kind, "replay diverged for `{name}`");
    assert_eq!(
        replayed.trace, failure.trace,
        "trace not stable for `{name}`"
    );
    failure
}

// ---------------------------------------------------------------------------
// Pt-to-Pt FIFO
// ---------------------------------------------------------------------------

fn ptp_spsc_scenario() {
    let q = Arc::new(PtpFifo::new(2));
    let producer = {
        let q = q.clone();
        thread::spawn(move || {
            for i in 1..=3u64 {
                q.enqueue(i);
            }
        })
    };
    for i in 1..=3u64 {
        assert_eq!(q.dequeue(), i, "reordered or lost");
    }
    producer.join();
}

/// SPSC through a wrap-around (3 messages, 2 slots): every schedule
/// delivers in order with no loss.
#[test]
fn ptp_spsc_wraparound_in_order() {
    model_with(Config::dfs(5_000), ptp_spsc_scenario);
}

/// Two producers, main consumes: no loss, no duplication, per-producer
/// order preserved, under every explored schedule.
#[test]
fn ptp_mpmc_no_loss_no_duplication() {
    model_with(Config::dfs(5_000), || {
        let q = Arc::new(PtpFifo::new(2));
        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    q.enqueue((p, 0u64));
                    q.enqueue((p, 1u64));
                })
            })
            .collect();
        let mut next = [0u64; 2];
        for _ in 0..4 {
            let (p, i) = q.dequeue();
            assert_eq!(i, next[p as usize], "producer {p} stream reordered");
            next[p as usize] += 1;
        }
        for h in producers {
            h.join();
        }
        assert_eq!(next, [2, 2], "lost or duplicated messages");
    });
}

/// `try_dequeue` under contention with a blocking consumer: each message is
/// delivered exactly once.
#[test]
fn ptp_try_dequeue_exactly_once() {
    model_with(Config::dfs(5_000), || {
        let q = Arc::new(PtpFifo::new(2));
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                q.enqueue(1u64);
                q.enqueue(2u64);
            })
        };
        let mut got = Vec::new();
        while got.len() < 2 {
            if let Some(v) = q.try_dequeue() {
                got.push(v);
            } else {
                // Spin-park: an unbounded poll loop would otherwise be a
                // livelock under exhaustive scheduling.
                thread::spin();
            }
        }
        producer.join();
        assert_eq!(got, [1, 2]);
    });
}

/// Seeded bug: publication store weakened to `Relaxed` — the consumer's
/// payload read is no longer ordered after the producer's write. Must be
/// reported as a data race and replay deterministically.
#[test]
fn mutation_ptp_publish_relaxed_is_caught() {
    let f = assert_mutation_caught("ptp_publish_relaxed", Config::dfs(5_000), || {
        let q = Arc::new(PtpFifo::new(2));
        let producer = {
            let q = q.clone();
            thread::spawn(move || q.enqueue(7u64))
        };
        assert_eq!(q.dequeue(), 7);
        producer.join();
    });
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

/// Seeded bug: the consumer's slot-freeing store weakened to `Relaxed` —
/// the next-cycle producer's payload write races the old read.
#[test]
fn mutation_ptp_free_relaxed_is_caught() {
    let f = assert_mutation_caught("ptp_free_relaxed", Config::dfs(5_000), ptp_spsc_scenario);
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

// ---------------------------------------------------------------------------
// Bcast FIFO
// ---------------------------------------------------------------------------

fn bcast_two_consumer_scenario() {
    let (fifo, mut consumers) = BcastFifo::with_consumers(2, 2);
    let producer = {
        let fifo = fifo.clone();
        thread::spawn(move || {
            fifo.enqueue(10u64);
            fifo.enqueue(20u64);
        })
    };
    let reader = {
        let mut c = consumers.pop().unwrap();
        thread::spawn(move || {
            assert_eq!(c.recv(), 10, "consumer 1 reordered");
            assert_eq!(c.recv(), 20, "consumer 1 reordered");
        })
    };
    let mut c0 = consumers.pop().unwrap();
    assert_eq!(c0.recv(), 10, "consumer 0 reordered");
    assert_eq!(c0.recv(), 20, "consumer 0 reordered");
    producer.join();
    reader.join();
}

/// Both consumers see both messages, in order, under every explored
/// schedule; afterwards both slots are retired.
#[test]
fn bcast_delivers_to_every_consumer_in_order() {
    model_with(Config::dfs(5_000), || {
        bcast_two_consumer_scenario();
    });
}

/// The acceptance smoke: the unmutated Bcast FIFO survives 10,000 seeded
/// random schedules of the two-consumer scenario (loss, duplication,
/// reordering, retirement, and payload-visibility oracles all active).
#[test]
fn bcast_ten_thousand_random_schedules() {
    let report = explore(Config::random(0x00B1_44E5, 10_000), || {
        bcast_two_consumer_scenario();
    });
    if let Some(f) = report.failure {
        panic!("random exploration found a failure:\n{f}");
    }
    assert_eq!(report.schedules, 10_000);
}

/// A slot retires (and its space becomes reusable) only after the *last*
/// reader; with a wrap-around the producer must block until then.
#[test]
fn bcast_last_reader_retirement_allows_reuse() {
    model_with(Config::dfs(5_000), || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        let producer = {
            let fifo = fifo.clone();
            thread::spawn(move || {
                for i in 1..=3u64 {
                    fifo.enqueue(i);
                }
            })
        };
        let mut c = consumers.pop().unwrap();
        for i in 1..=3u64 {
            assert_eq!(c.recv(), i);
        }
        producer.join();
        let stats = fifo.stats();
        assert_eq!(stats.enqueued, 3);
        assert_eq!(stats.dequeued, 3);
        assert_eq!(stats.retired, 3, "all slots must retire");
    });
}

/// Regression (the stats bug this checker found): a producer spinning for
/// space has reserved a ticket but published nothing; `stats().enqueued`
/// must not count it under ANY schedule. With the old `tail`-based stats
/// the checker halts the producer exactly between reservation and
/// publication and the assertion below fails.
#[test]
fn bcast_stats_never_count_waiting_producers() {
    model_with(Config::dfs(5_000), || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        fifo.enqueue(1u64);
        fifo.enqueue(2u64);
        let blocked = {
            let fifo = fifo.clone();
            thread::spawn(move || fifo.enqueue(3u64))
        };
        assert!(
            fifo.stats().enqueued <= 2,
            "a waiting producer was counted as an enqueue"
        );
        let mut c = consumers.pop().unwrap();
        for i in 1..=3u64 {
            assert_eq!(c.recv(), i);
        }
        blocked.join();
        assert_eq!(fifo.stats().enqueued, 3);
    });
}

/// Seeded bug: publication weakened to `Relaxed`.
#[test]
fn mutation_bcast_publish_relaxed_is_caught() {
    let f = assert_mutation_caught("bcast_publish_relaxed", Config::dfs(5_000), || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        let producer = {
            let fifo = fifo.clone();
            thread::spawn(move || fifo.enqueue(5u64))
        };
        assert_eq!(consumers[0].recv(), 5);
        producer.join();
    });
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

/// Seeded bug: slot published before the payload write (the "write
/// completion step" moved above the write). Depending on the schedule this
/// surfaces as a data race or as a consumer observing the wrong payload;
/// either way every explored failure must replay.
#[test]
fn mutation_bcast_publish_before_write_is_caught() {
    let f = assert_mutation_caught("bcast_publish_before_write", Config::dfs(5_000), || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        let producer = {
            let fifo = fifo.clone();
            thread::spawn(move || fifo.enqueue(0xDEADu64))
        };
        assert_eq!(consumers[0].recv(), 0xDEAD);
        producer.join();
    });
    assert!(
        matches!(f.kind, FailureKind::Race | FailureKind::Panic),
        "{f}"
    );
}

/// Seeded bug: `readers_left` never initialised — no slot can ever retire,
/// so a wrap-around wedges every thread. Must be reported as a deadlock.
#[test]
fn mutation_bcast_skip_readers_init_is_caught() {
    let f = assert_mutation_caught("bcast_skip_readers_init", Config::dfs(5_000), || {
        let (fifo, mut consumers) = BcastFifo::with_consumers(2, 1);
        let producer = {
            let fifo = fifo.clone();
            thread::spawn(move || {
                for i in 1..=3u64 {
                    fifo.enqueue(i);
                }
            })
        };
        let mut c = consumers.pop().unwrap();
        for i in 1..=3u64 {
            assert_eq!(c.recv(), i);
        }
        producer.join();
    });
    assert_eq!(f.kind, FailureKind::Deadlock, "{f}");
}

/// Seeded bug: the reader-count decrement weakened to `Relaxed` — the last
/// reader's payload drop is no longer ordered after the other readers'
/// payload reads. Must be reported as a data race.
#[test]
fn mutation_bcast_retire_relaxed_is_caught() {
    let f = assert_mutation_caught(
        "bcast_retire_relaxed",
        Config::dfs(10_000),
        bcast_two_consumer_scenario,
    );
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

// ---------------------------------------------------------------------------
// Seqlock (the cross-process status/job record primitive)
// ---------------------------------------------------------------------------

/// Writer publishes `[k, 2k]` records; the reader accepts only stable
/// snapshots, so every accepted snapshot must satisfy `w1 == 2·w0`. This
/// heap-backed run is the oracle for the mmap-backed twin in `bgp-smp`'s
/// process backend — same `SeqLock` code, different `SeqWords` storage.
fn seqlock_scenario() {
    let l = Arc::new(SeqLock::heap(2));
    let writer = {
        let l = l.clone();
        thread::spawn(move || {
            l.publish(&[1, 2]);
            l.publish(&[2, 4]);
        })
    };
    let mut out = [0u64; 2];
    // A few racing reads (bounded — an acceptance-gated spin loop could
    // park after the writer's final store and read as a deadlock): every
    // accepted snapshot must be internally consistent.
    for _ in 0..3 {
        if l.try_read_into(&mut out).is_some() {
            assert_eq!(out[1], 2 * out[0], "torn seqlock snapshot");
        }
    }
    writer.join();
    // Quiescent read: the final record must be fully visible.
    l.read_into(&mut out);
    assert_eq!(out, [2, 4], "final record not fully visible");
}

/// Every explored schedule of writer-vs-reader yields only consistent
/// snapshots.
#[test]
fn seqlock_snapshots_are_never_torn() {
    model_with(Config::dfs(5_000), seqlock_scenario);
}

/// Seeded bug: the writer skips the odd "write in progress" mark — a
/// reader overlapping the data stores sees an even, unchanged version and
/// accepts a half-applied record. The torn-snapshot oracle must catch it.
#[test]
fn mutation_seqlock_enter_skipped_is_caught() {
    let f = assert_mutation_caught(
        "seqlock_enter_skipped",
        Config::dfs(5_000),
        seqlock_scenario,
    );
    assert_eq!(f.kind, FailureKind::Panic, "{f}");
}

/// Seeded bug: the reader trusts its first pass without re-checking the
/// version — a concurrent writer's half-applied record is returned as
/// stable. Must be caught by the same oracle.
#[test]
fn mutation_seqlock_validate_skipped_is_caught() {
    let f = assert_mutation_caught(
        "seqlock_validate_skipped",
        Config::dfs(5_000),
        seqlock_scenario,
    );
    assert_eq!(f.kind, FailureKind::Panic, "{f}");
}

// ---------------------------------------------------------------------------
// Message counter
// ---------------------------------------------------------------------------

/// The §IV-C contract: a consumer that observes the published count also
/// observes the buffer bytes it covers — under every explored schedule.
#[test]
fn counter_publish_makes_buffer_visible() {
    model_with(Config::dfs(5_000), || {
        let buf = Arc::new(UnsafeCell::new(0u64));
        let ctr = Arc::new(MessageCounter::new());
        let producer = {
            let (buf, ctr) = (buf.clone(), ctr.clone());
            thread::spawn(move || {
                unsafe { buf.with_mut(|p| *p = 0xAB) };
                ctr.publish(8);
            })
        };
        if ctr.read() >= 8 {
            unsafe { buf.with(|p| assert_eq!(*p, 0xAB)) };
        }
        producer.join();
    });
}

/// Seeded bug: the publication fetch-add weakened to `Relaxed` — the
/// consumer can observe the count without the bytes. Must be a data race.
#[test]
fn mutation_counter_publish_relaxed_is_caught() {
    let f = assert_mutation_caught("counter_publish_relaxed", Config::dfs(5_000), || {
        let buf = Arc::new(UnsafeCell::new(0u64));
        let ctr = Arc::new(MessageCounter::new());
        let producer = {
            let (buf, ctr) = (buf.clone(), ctr.clone());
            thread::spawn(move || {
                unsafe { buf.with_mut(|p| *p = 1) };
                ctr.publish(8);
            })
        };
        let got = ctr.wait_for(8);
        assert_eq!(got, 8);
        unsafe { buf.with(|p| assert_eq!(*p, 1)) };
        producer.join();
    });
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

// ---------------------------------------------------------------------------
// Op windows: buffer addresses in a recycled counter block
// ---------------------------------------------------------------------------

/// Two members, two ops, one bank. In each op the owner writes its payload
/// (model cells) and posts its region in the block's landing window; the
/// peer maps the window, reads the payload and reports on `done`; the owner,
/// as the retiring side, waits for the report, clears the block's windows
/// and retires the op. The peer looks the second op up only once the first
/// is retired, so the second op gets the first one's block back, and its
/// owner posts a different region in it — before or after the peer starts
/// polling. The peer must map each op's own region — never the block's
/// previous one — and see the payload written before the post.
fn op_window_scenario() {
    let bank = Arc::new(CounterBank::new());
    let retired = Arc::new(MessageCounter::new());
    let regions: Arc<[Arc<SharedRegion>; 2]> =
        Arc::new([0, 1].map(|_| Arc::new(SharedRegion::new(8))));
    let payload: Arc<[UnsafeCell<u64>; 2]> = Arc::new([0, 1].map(|_| UnsafeCell::new(0)));
    let peer = {
        let (bank, retired) = (bank.clone(), retired.clone());
        let (regions, payload) = (regions.clone(), payload.clone());
        thread::spawn(move || {
            for op in 0..2u64 {
                let k = op as usize;
                retired.wait_for(op);
                let block = bank.op(op, 2);
                let window = loop {
                    // SAFETY: the owner clears the block's windows only
                    // after this peer reported below.
                    if let Some(window) = unsafe { block.land.get() } {
                        break window;
                    }
                    bgp_shmem::spin();
                };
                assert!(
                    Arc::ptr_eq(&window, &regions[k]),
                    "op {op} mapped a stale window"
                );
                unsafe { payload[k].with(|p| assert_eq!(*p, op + 1, "op {op} payload")) };
                block.done.publish(1);
            }
        })
    };
    let mut first = None;
    for op in 0..2u64 {
        let k = op as usize;
        let block = bank.op(op, 2);
        let at = *first.get_or_insert(Arc::as_ptr(&block));
        assert_eq!(Arc::as_ptr(&block), at, "op {op} got a fresh block");
        unsafe { payload[k].with_mut(|p| *p = op + 1) };
        block.land.post(regions[k].clone());
        block.done.wait_for(1);
        // SAFETY: the peer mapped before it reported, and this side maps
        // nothing.
        unsafe { block.clear_windows() };
        drop(block);
        assert!(bank.retire(op));
        retired.publish(1);
    }
    peer.join();
}

/// Under every explored schedule the peer maps the op's own region, with
/// its payload visible, across the block's reuse.
#[test]
fn op_window_hands_each_op_its_own_region() {
    model_with(Config::dfs(5_000), op_window_scenario);
}

/// Seeded bug: the window posted with a `Relaxed` store — a peer that maps
/// the region no longer sees the owner's writes made before the post. The
/// checker must report the race on the payload.
#[test]
fn mutation_op_window_publish_relaxed_is_caught() {
    let f = assert_mutation_caught(
        "op_window_publish_relaxed",
        Config::dfs(5_000),
        op_window_scenario,
    );
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

// ---------------------------------------------------------------------------
// Completion counter
// ---------------------------------------------------------------------------

/// §V-A: the master that observes completion also observes every peer's
/// writes, and exactly one arrival is the final one — every schedule.
#[test]
fn completion_counter_orders_peer_writes_before_master() {
    model_with(Config::dfs(5_000), || {
        let cells: Arc<Vec<UnsafeCell<u64>>> =
            Arc::new((0..2).map(|_| UnsafeCell::new(0)).collect());
        let done = Arc::new(CompletionCounter::new(2));
        let peers: Vec<_> = (0..2usize)
            .map(|i| {
                let (cells, done) = (cells.clone(), done.clone());
                thread::spawn(move || {
                    unsafe { cells[i].with_mut(|p| *p = i as u64 + 1) };
                    u32::from(done.arrive())
                })
            })
            .collect();
        done.wait();
        for (i, cell) in cells.iter().enumerate() {
            unsafe { cell.with(|p| assert_eq!(*p, i as u64 + 1, "peer {i} write invisible")) };
        }
        let finals: u32 = peers.into_iter().map(|h| h.join()).sum();
        assert_eq!(finals, 1, "exactly one final arrival");
    });
}

/// Seeded bug: `arrive` weakened to `Relaxed` — the master's buffer reuse
/// is no longer ordered after the peers' copies. Must be a data race.
#[test]
fn mutation_completion_arrive_relaxed_is_caught() {
    let f = assert_mutation_caught("completion_arrive_relaxed", Config::dfs(5_000), || {
        let cell = Arc::new(UnsafeCell::new(0u64));
        let done = Arc::new(CompletionCounter::new(1));
        let peer = {
            let (cell, done) = (cell.clone(), done.clone());
            thread::spawn(move || {
                unsafe { cell.with_mut(|p| *p = 9) };
                done.arrive();
            })
        };
        done.wait();
        unsafe { cell.with(|p| assert_eq!(*p, 9)) };
        peer.join();
    });
    assert_eq!(f.kind, FailureKind::Race, "{f}");
}

/// The epoch guard (always on, not just in debug): arriving into a
/// complete, un-reset epoch panics on every schedule that reaches it —
/// and the checker reports it with a replayable trace.
#[test]
fn completion_epoch_overflow_is_caught_by_the_checker() {
    let report = explore(Config::dfs(100), || {
        let done = CompletionCounter::new(1);
        assert!(done.arrive());
        let _ = done.arrive(); // BUG (deliberate): no reset between ops
    });
    let failure = report.failure.expect("overflow must be caught");
    assert_eq!(failure.kind, FailureKind::Panic, "{failure}");
    assert!(
        failure.message.contains("completion counter overflow"),
        "{failure}"
    );
}
