//! Model-checked verification of the SMP sense-reversing barrier.
//!
//! Compiled only with `--features model` (which forwards to
//! `bgp-shmem/model` and routes the barrier's atomics and spin loop
//! through the `bgp-check` deterministic scheduler):
//!
//! ```text
//! cargo test -p bgp-smp --features model --test model
//! ```

#![cfg(feature = "model")]

use std::sync::Arc;

use bgp_check::thread;
use bgp_check::{explore, model_with, Config, FailureKind};
use bgp_shmem::sync::cell::UnsafeCell;
use bgp_smp::barrier::SenseBarrier;

/// Two threads, each writing its own cell before the barrier and reading
/// the other's after it.
fn cross_visibility_scenario() {
    let cells: Arc<Vec<UnsafeCell<u64>>> = Arc::new((0..2).map(|_| UnsafeCell::new(0)).collect());
    let barrier = Arc::new(SenseBarrier::new(2));
    let peer = {
        let (cells, barrier) = (cells.clone(), barrier.clone());
        thread::spawn(move || {
            let mut token = barrier.token();
            unsafe { cells[1].with_mut(|p| *p = 11) };
            barrier.wait(&mut token);
            unsafe { cells[0].with(|p| assert_eq!(*p, 10, "peer missed main's write")) };
        })
    };
    let mut token = barrier.token();
    unsafe { cells[0].with_mut(|p| *p = 10) };
    barrier.wait(&mut token);
    unsafe { cells[1].with(|p| assert_eq!(*p, 11, "main missed peer's write")) };
    peer.join();
}

/// §V: crossing the barrier makes every participant's pre-barrier writes
/// visible to every other participant — under every explored schedule,
/// whichever thread ends up being the releaser.
#[test]
fn barrier_publishes_pre_barrier_writes() {
    model_with(Config::dfs(5_000), cross_visibility_scenario);
}

/// Two back-to-back episodes with three participants: exactly one releaser
/// per episode and no thread leaks past a barrier early.
#[test]
fn barrier_has_one_releaser_and_separates_phases() {
    model_with(Config::dfs(5_000), || {
        let barrier = Arc::new(SenseBarrier::new(3));
        let phase = Arc::new(UnsafeCell::new(0u64));
        // The designated writer bumps the phase between barriers; everyone
        // else only reads, so any leak is a data race or a wrong value.
        let writer = {
            let (barrier, phase) = (barrier.clone(), phase.clone());
            thread::spawn(move || {
                let mut token = barrier.token();
                let mut releases = 0u32;
                unsafe { phase.with_mut(|p| *p = 1) };
                releases += u32::from(barrier.wait(&mut token));
                releases += u32::from(barrier.wait(&mut token));
                unsafe { phase.with_mut(|p| *p = 2) };
                releases += u32::from(barrier.wait(&mut token));
                releases
            })
        };
        let reader = {
            let (barrier, phase) = (barrier.clone(), phase.clone());
            thread::spawn(move || {
                let mut token = barrier.token();
                let mut releases = 0u32;
                releases += u32::from(barrier.wait(&mut token));
                unsafe { phase.with(|p| assert_eq!(*p, 1)) };
                releases += u32::from(barrier.wait(&mut token));
                releases += u32::from(barrier.wait(&mut token));
                unsafe { phase.with(|p| assert_eq!(*p, 2)) };
                releases
            })
        };
        let mut token = barrier.token();
        let mut releases = 0u32;
        releases += u32::from(barrier.wait(&mut token));
        unsafe { phase.with(|p| assert_eq!(*p, 1)) };
        releases += u32::from(barrier.wait(&mut token));
        releases += u32::from(barrier.wait(&mut token));
        releases += writer.join() + reader.join();
        assert_eq!(releases, 3, "exactly one releaser per episode");
    });
}

/// Seeded bug: the episode flip weakened to `Relaxed` — the releaser's
/// store no longer publishes the arrivers' pre-barrier writes to the
/// waiters it wakes. The checker must report a data race on the payload
/// cells, and the trace must replay to the same failure.
#[test]
fn mutation_barrier_release_relaxed_is_caught() {
    let report = explore(
        Config::dfs(5_000).mutate("barrier_release_relaxed"),
        cross_visibility_scenario,
    );
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `barrier_release_relaxed` was NOT caught"));
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
    let replay = explore(
        Config::replay(&failure.trace).mutate("barrier_release_relaxed"),
        cross_visibility_scenario,
    );
    let replayed = replay.failure.expect("replay reproduces the race");
    assert_eq!(replayed.kind, failure.kind);
    assert_eq!(replayed.trace, failure.trace);
}

// ---------------------------------------------------------------------------
// Cluster transport: the paced inter-node chunk channel and the integrated
// channel → shared-region → message-counter pipeline the cluster
// collectives are built from.

use bgp_shmem::{MessageCounter, SharedRegion};
use bgp_smp::transport::ChunkChannel;

/// One producer streaming three tagged chunks through a two-slot channel;
/// the consumer must observe tags in order and every payload byte.
fn channel_round_trip_scenario() {
    let ch = Arc::new(ChunkChannel::new(2, 8));
    let producer = {
        let ch = ch.clone();
        thread::spawn(move || {
            for k in 0..3u64 {
                ch.send_with(k, 8, |dst| dst.fill(k as u8 + 1));
            }
        })
    };
    for k in 0..3u64 {
        ch.recv_with(|tag, bytes| {
            assert_eq!(tag, k, "chunks must arrive in order");
            assert!(
                bytes.iter().all(|&b| b == k as u8 + 1),
                "payload of chunk {k} not fully visible"
            );
        });
    }
    producer.join();
}

/// Under every explored schedule, the channel's slot protocol delivers
/// tags in order and publishes payload writes to the consumer.
#[test]
fn chunk_channel_delivers_in_order_with_visible_payloads() {
    model_with(Config::dfs(20_000), channel_round_trip_scenario);
}

/// The pacing window actually blocks: with two slots, the third send can
/// only land after the consumer retires the first — and then must land.
#[test]
fn chunk_channel_window_blocks_until_consumed() {
    model_with(Config::dfs(10_000), || {
        let ch = Arc::new(ChunkChannel::new(2, 4));
        let producer = {
            let ch = ch.clone();
            thread::spawn(move || {
                assert!(
                    ch.try_send_with(7, 4, |d| d.fill(7)),
                    "an empty window must accept a chunk"
                );
                assert!(ch.try_send_with(8, 4, |d| d.fill(8)));
                // Window of two: this send blocks until the consume below.
                ch.send_with(9, 4, |d| d.fill(9));
            })
        };
        for k in 7u64..=9 {
            ch.recv_with(|tag, bytes| {
                assert_eq!(tag, k);
                assert!(bytes.iter().all(|&b| b == k as u8));
            });
        }
        producer.join();
    });
}

/// The cluster broadcast pipeline in miniature: an injector streams chunks
/// into the channel, a receiver lands them in a shared region and publishes
/// a cumulative counter, and the main thread chases the counter to copy
/// out. Every schedule must yield the full assembled message.
#[test]
fn channel_region_counter_pipeline_assembles_message() {
    model_with(Config::dfs(20_000), || {
        let ch = Arc::new(ChunkChannel::new(2, 4));
        let region = Arc::new(SharedRegion::new(8));
        let ctr = Arc::new(MessageCounter::new());
        let injector = {
            let ch = ch.clone();
            thread::spawn(move || {
                for k in 0..2u64 {
                    ch.send_with(k, 4, |d| d.fill(k as u8 + 3));
                }
            })
        };
        let receiver = {
            let (ch, region, ctr) = (ch.clone(), region.clone(), ctr.clone());
            thread::spawn(move || {
                for k in 0..2usize {
                    // SAFETY: sole writer; readers gated on the publish.
                    ch.recv_with(|_, bytes| unsafe { region.write(k * 4, bytes) });
                    ctr.publish(4);
                }
            })
        };
        let mut out = [0u8; 8];
        let mut seen = 0u64;
        while seen < 8 {
            let avail = ctr.wait_past(0, seen + 1);
            // SAFETY: counter acquire ordered us after the receiver's write.
            unsafe { region.read(0, &mut out[..avail as usize]) };
            seen = avail;
        }
        assert_eq!(out, [3, 3, 3, 3, 4, 4, 4, 4]);
        injector.join();
        receiver.join();
    });
}

/// Seeded bug: the channel's slot publish weakened to `Relaxed` — the
/// consumer can see a slot as published without the payload write. The
/// checker must flag the payload race.
#[test]
fn mutation_chunk_publish_relaxed_is_caught() {
    let report = explore(
        Config::dfs(20_000).mutate("chunk_publish_relaxed"),
        channel_round_trip_scenario,
    );
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `chunk_publish_relaxed` was NOT caught"));
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
}

// ---------------------------------------------------------------------------
// The slot-loan protocol: in-place produce/consume through guards, with the
// cycle-tag discipline carrying all synchronization.

/// Producer loans slots and fills them in place; consumer loans published
/// chunks and reads tag/len/payload through the guard. Capacity 2, three
/// chunks: the third publication reuses the first slot, so the retire edge
/// (guard drop → producer's re-acquire) is load-bearing in every schedule.
fn loan_round_trip_scenario() {
    let ch = Arc::new(ChunkChannel::new(2, 4));
    let producer = {
        let ch = ch.clone();
        thread::spawn(move || {
            for k in 0..3u64 {
                let mut s = ch.reserve(4);
                s.with_bytes_mut(|b| b.fill(k as u8 + 1));
                s.publish(k);
            }
        })
    };
    for k in 0..3u64 {
        let r = ch.peek();
        assert_eq!(r.tag(), k, "chunks must arrive in order");
        assert_eq!(r.len(), 4);
        r.with_bytes(|b| {
            assert!(
                b.iter().all(|&x| x == k as u8 + 1),
                "payload of chunk {k} not fully visible through the loan"
            )
        });
    }
    producer.join();
}

/// Under every explored schedule the loan guards deliver chunks in order
/// with fully visible payloads — the in-order/exclusivity oracle for the
/// guard protocol itself.
#[test]
fn slot_loans_are_in_order_and_exclusive() {
    model_with(Config::dfs(20_000), loan_round_trip_scenario);
}

/// A producer guard dropped without publishing must release the cycle
/// cleanly: nothing reaches the consumer, and the next loan of the same
/// ticket works normally — under every schedule.
#[test]
fn abandoned_send_loan_is_clean_under_model() {
    model_with(Config::dfs(10_000), || {
        let ch = Arc::new(ChunkChannel::new(2, 4));
        let producer = {
            let ch = ch.clone();
            thread::spawn(move || {
                {
                    let mut s = ch.reserve(4);
                    s.with_bytes_mut(|b| b.fill(0xEE));
                    // Dropped unpublished: the ticket stays free.
                }
                let mut s = ch.reserve(4);
                s.with_bytes_mut(|b| b.fill(5));
                s.publish(1);
            })
        };
        let r = ch.peek();
        assert_eq!(r.tag(), 1, "an abandoned loan must publish nothing");
        r.with_bytes(|b| assert!(b.iter().all(|&x| x == 5)));
        drop(r);
        assert!(ch.try_peek().is_none());
        producer.join();
    });
}

/// Seeded bug: the consumer guard's retire weakened to `Relaxed` — the
/// producer can re-acquire the slot without being ordered after the reads
/// the guard performed, so its next-round fill races them. The checker must
/// flag the race, and the trace must replay to the same failure.
#[test]
fn mutation_chunk_retire_relaxed_is_caught() {
    let report = explore(
        Config::dfs(20_000).mutate("chunk_retire_relaxed"),
        loan_round_trip_scenario,
    );
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `chunk_retire_relaxed` was NOT caught"));
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
    let replay = explore(
        Config::replay(&failure.trace).mutate("chunk_retire_relaxed"),
        loan_round_trip_scenario,
    );
    let replayed = replay.failure.expect("replay reproduces the race");
    assert_eq!(replayed.kind, failure.kind);
    assert_eq!(replayed.trace, failure.trace);
}

/// The cap >= 2 guard is still enforced: a single-slot channel would
/// collide round `t`'s published tag with round `t+1`'s free tag.
#[test]
#[should_panic(expected = "at least two slots")]
fn single_slot_channel_is_still_rejected() {
    let _ = ChunkChannel::new(1, 4);
}

// ---------------------------------------------------------------------------
// peek_tag: the non-consuming dispatch probe must be acquire-validated.

/// A producer publishes one tagged chunk while the consumer polls
/// `peek_tag` (bounded — no spin, so every interleaving terminates), then
/// drains after the join. Correct behavior: every `Some` ever returned is
/// the real tag, never a stale or mid-write header.
fn peek_tag_dispatch_scenario() {
    let ch = Arc::new(ChunkChannel::new(2, 4));
    let producer = {
        let ch = ch.clone();
        thread::spawn(move || {
            ch.send_with(7, 4, |b| b.fill(9));
        })
    };
    for _ in 0..3 {
        if let Some(t) = ch.peek_tag() {
            assert_eq!(t, 7, "peek_tag yielded a tag that was never published");
        }
    }
    producer.join();
    assert_eq!(ch.peek_tag(), Some(7));
    ch.recv_with(|t, b| {
        assert_eq!(t, 7);
        assert!(b.iter().all(|&x| x == 9));
    });
}

/// Under every explored schedule `peek_tag` returns `None` or the real
/// published tag — never garbage.
#[test]
fn peek_tag_never_yields_an_unpublished_tag() {
    model_with(Config::dfs(20_000), peek_tag_dispatch_scenario);
}

/// Seeded bug (the behavior `peek_tag` originally shipped with): skipping
/// the `published()` gate reads the header of a slot the producer may
/// still be writing. The checker must flag it and the trace must replay.
#[test]
fn mutation_chunk_peek_tag_unvalidated_is_caught() {
    let report = explore(
        Config::dfs(20_000).mutate("chunk_peek_tag_unvalidated"),
        peek_tag_dispatch_scenario,
    );
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `chunk_peek_tag_unvalidated` was NOT caught"));
    let replay = explore(
        Config::replay(&failure.trace).mutate("chunk_peek_tag_unvalidated"),
        peek_tag_dispatch_scenario,
    );
    let replayed = replay.failure.expect("replay reproduces the failure");
    assert_eq!(replayed.kind, failure.kind);
    assert_eq!(replayed.trace, failure.trace);
}

// ---------------------------------------------------------------------------
// The wire protocols themselves: `bgp_smp::wire` takes a fabric and a
// `Local`, not a `ClusterCtx`, so the very loops both clusters run — not
// miniatures of them — go under the checker. Two nodes, one double per
// chunk, each node's operand a buffer it owns (`[u8]`, the trivial
// `Local`); the links are the only shared state.

use bgp_smp::transport::Fabric;
use bgp_smp::wire;

/// Node `v`'s `chunks`-double operand: element `i` is `10·v + i + 1`.
fn operand(v: usize, chunks: usize) -> Vec<u8> {
    (0..chunks)
        .flat_map(|i| ((10 * v + i + 1) as f64).to_ne_bytes())
        .collect()
}

/// Both nodes must end up holding the element-wise sum.
fn assert_summed(v: usize, data: &[u8], chunks: usize) {
    let want: Vec<u8> = (0..chunks)
        .flat_map(|i| ((10 + 2 * (i + 1)) as f64).to_ne_bytes())
        .collect();
    assert_eq!(data, want, "node {v} does not hold the sum");
}

/// Run `node(fabric, v, operand)` for `v = 1` on a model thread and for
/// `v = 0` on the root thread over a two-node fabric of 8-byte chunks and
/// two-slot links, then check both results.
fn two_node_scenario(chunks: usize, node: fn(&Fabric, usize, &mut [u8])) {
    let fabric = Arc::new(Fabric::new(2, 8, 2));
    let peer = {
        let fabric = fabric.clone();
        thread::spawn(move || {
            let mut data = operand(1, chunks);
            node(&fabric, 1, &mut data);
            assert_summed(1, &data, chunks);
        })
    };
    let mut data = operand(0, chunks);
    node(&fabric, 0, &mut data);
    assert_summed(0, &data, chunks);
    peer.join();
}

/// The one-flow flat ring — all of `proc::node_allreduce_f64` above one
/// node (that module is compiled out under the model facade).
fn flat_ring_node(fabric: &Fabric, v: usize, data: &mut [u8]) {
    wire::flat_ring(fabric, v, [data.len()], data);
}

/// The ordered stepper on the node-aware allreduce plan (ring
/// reduce-scatter + allgather over the chunk grid). With one chunk, node
/// 0's segment `[0·1/2, 1·1/2)` is empty: the schedule that used to hang.
fn plan_node(fabric: &Fabric, v: usize, data: &mut [u8]) {
    let plan = wire::plan_allreduce(2, v, data.len(), fabric.chunk_bytes());
    wire::run_plan(fabric, v, &plan, data);
}

/// One chunk, a full window, and past it (a third chunk reuses the first
/// slot), each under a bounded DFS (which varies the tail of the schedule
/// exhaustively) and a seeded random sample (which varies all of it).
fn check_ring_engine(node: fn(&Fabric, usize, &mut [u8])) {
    for chunks in 1..=3 {
        model_with(Config::dfs(3_000), move || two_node_scenario(chunks, node));
        let seed = 0xB6_0000 + chunks as u64;
        model_with(Config::random(seed, 2_000), move || {
            two_node_scenario(chunks, node)
        });
    }
}

/// Every explored schedule of the flat ring terminates (a stuck progress
/// loop is a reported deadlock) with the sum on both nodes.
#[test]
fn flat_ring_terminates_with_the_sum_on_both_nodes() {
    check_ring_engine(flat_ring_node);
}

/// The same for the ordered plan stepper, including the empty segment.
#[test]
fn ring_plan_terminates_with_the_sum_on_both_nodes() {
    check_ring_engine(plan_node);
}

/// The scenarios can fail: with the slot publish weakened to `Relaxed`
/// (the existing `chunk_publish_relaxed` hook) a consumer combines a chunk
/// it was never ordered after, and the checker flags the race in both
/// engines.
#[test]
fn mutation_chunk_publish_relaxed_breaks_both_ring_engines() {
    for node in [flat_ring_node, plan_node] {
        let report = explore(
            Config::dfs(20_000).mutate("chunk_publish_relaxed"),
            move || two_node_scenario(2, node),
        );
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("seeded bug `chunk_publish_relaxed` was NOT caught"));
        assert_eq!(failure.kind, FailureKind::Race, "{failure}");
    }
}

// ---------------------------------------------------------------------------
// The steppers as the nonblocking engine of `bgp-sched` uses them: several
// flows share one link pair, told apart by an op prefix in the tag, and the
// caller's loop — not `wire::flat_ring`'s — peeks a tag, routes it, offers
// the chunk and pumps every flow.

use bgp_smp::transport::RingDir;
use bgp_smp::wire::{Kind, RingFlow, Stepper};

/// Two `RingFlow`s on the `Plus` ring, one over each half of the operand,
/// tagged `op:32 | kind:8 | k:24` with ops 7 and 8.
fn multiplexed_node(fabric: &Fabric, v: usize, data: &mut [u8]) {
    const OPS: [u64; 2] = [7, 8];
    let tagger =
        |op: u64| move |_, kind: Kind, k: usize| (op << 32) | ((kind as u64) << 24) | k as u64;
    let (in_ch, out) = (
        fabric.ring_recv(v, RingDir::Plus),
        fabric.ring_send(v, RingDir::Plus),
    );
    let half = data.len() / 2;
    let (a, b) = data.split_at_mut(half);
    let flow = || RingFlow::new(0, v, 2, half, fabric.chunk_bytes());
    let mut ops = [(flow(), a), (flow(), b)];
    while !ops.iter().all(|(f, _)| f.finished()) {
        let mut progressed = false;
        while let Some(tag) = in_ch.peek_tag() {
            let i = OPS
                .iter()
                .position(|&op| op == tag >> 32)
                .expect("a chunk of one of the two ops");
            let kind = [Kind::Partial, Kind::Full][(tag >> 24) as usize & 1];
            let (f, local) = &mut ops[i];
            if !f.can_accept(kind, out, &**local) {
                break;
            }
            let k = (tag & 0xFF_FFFF) as usize;
            in_ch
                .recv_with(|_, bytes| f.accept(kind, k, bytes, out, &mut **local, &tagger(OPS[i])));
            progressed = true;
        }
        for (i, (f, local)) in ops.iter_mut().enumerate() {
            progressed |= f.pump(out, &mut **local, &tagger(OPS[i]));
        }
        if !progressed {
            bgp_shmem::spin();
        }
    }
}

/// Both multiplexed flows terminate with the sum on both nodes, one and two
/// chunks each (two fill the shared two-slot link).
#[test]
fn multiplexed_ring_flows_terminate_with_the_sum_on_both_nodes() {
    for chunks in 1..=2 {
        model_with(Config::dfs(3_000), move || {
            two_node_scenario(2 * chunks, multiplexed_node)
        });
        let seed = 0xB7_0000 + chunks as u64;
        model_with(Config::random(seed, 2_000), move || {
            two_node_scenario(2 * chunks, multiplexed_node)
        });
    }
}

/// The weakened slot publish is still caught when the steppers run under
/// somebody else's loop.
#[test]
fn mutation_chunk_publish_relaxed_breaks_multiplexed_flows() {
    let report = explore(Config::dfs(20_000).mutate("chunk_publish_relaxed"), || {
        two_node_scenario(2, multiplexed_node)
    });
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `chunk_publish_relaxed` was NOT caught"));
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
}

// ---------------------------------------------------------------------------
// `alltoall` as a plan, on the smallest ring with a middle position: three
// nodes, so every node relays one payload for each neighbour while its own
// are still going out — the receive-with-a-full-downstream-link shape the
// old hand-rolled loop kept an owned relay queue for. A planned receive
// needs no link room, so there is nothing to park.

/// Byte `i` of the payload node `o` addresses to node `w`.
fn a2a_byte(o: usize, w: usize, i: usize) -> u8 {
    (16 * o + 4 * w + i % 4 + 1) as u8
}

/// Node `v`'s part of a three-node all-to-all of `payload`-byte payloads:
/// fill the accumulator's own slots, run the plan, check the transpose.
fn alltoall_node(fabric: &Fabric, v: usize, payload: usize) {
    const M: usize = 3;
    let mut acc = vec![0u8; wire::alltoall_slots(M) * payload];
    for e in 0..M {
        let slot = if e == 0 { v } else { M + e - 1 };
        for (i, b) in acc[slot * payload..][..payload].iter_mut().enumerate() {
            *b = a2a_byte(v, (v + e) % M, i);
        }
    }
    let plan = wire::plan_alltoall(M, v, payload, fabric.chunk_bytes());
    wire::run_plan(fabric, v, &plan, &mut acc[..]);
    for u in 0..M {
        let want: Vec<u8> = (0..payload).map(|i| a2a_byte(u, v, i)).collect();
        assert_eq!(
            &acc[u * payload..][..payload],
            &want[..],
            "node {v} does not hold node {u}'s payload for it"
        );
    }
}

/// Nodes 1 and 2 on model threads, node 0 on the root thread, over 8-byte
/// chunks and two-slot links.
fn three_node_alltoall_scenario(chunks: usize) {
    let fabric = Arc::new(Fabric::new(3, 8, 2));
    let peers: Vec<_> = (1..3)
        .map(|v| {
            let fabric = fabric.clone();
            thread::spawn(move || alltoall_node(&fabric, v, 8 * chunks))
        })
        .collect();
    alltoall_node(&fabric, 0, 8 * chunks);
    for p in peers {
        p.join();
    }
}

/// One chunk per payload, a full window, and past it: every explored
/// schedule terminates (a stuck ring is a reported deadlock) with the
/// transpose on all three nodes.
#[test]
fn alltoall_plan_terminates_with_the_transpose_on_three_nodes() {
    for chunks in 1..=3 {
        model_with(Config::dfs(2_000), move || {
            three_node_alltoall_scenario(chunks)
        });
        let seed = 0xB8_0000 + chunks as u64;
        model_with(Config::random(seed, 1_000), move || {
            three_node_alltoall_scenario(chunks)
        });
    }
}

/// The scenario can fail: a relaxed slot publish lets a node land — or
/// relay — a payload chunk it was never ordered after.
#[test]
fn mutation_chunk_publish_relaxed_breaks_the_alltoall_plan() {
    let report = explore(Config::dfs(20_000).mutate("chunk_publish_relaxed"), || {
        three_node_alltoall_scenario(2)
    });
    let failure = report
        .failure
        .unwrap_or_else(|| panic!("seeded bug `chunk_publish_relaxed` was NOT caught"));
    assert_eq!(failure.kind, FailureKind::Race, "{failure}");
}

// ---------------------------------------------------------------------------
// The outbound half of the tree broadcast: one `TreeFeed` under its
// blocking driver, two ports, two independent consumers.

/// Three chunks (the third reuses each link's first slot) to two ports.
/// Each consumer must see every chunk, in order, whole; and whatever the
/// feed reports as out must be out on the slower port too.
fn tree_feed_scenario() {
    let msg: Vec<u8> = (1..=20).collect();
    let ports: Vec<_> = (0..2).map(|_| Arc::new(ChunkChannel::new(2, 8))).collect();
    let consumers: Vec<_> = ports
        .iter()
        .map(|ch| {
            let (ch, msg) = (ch.clone(), msg.clone());
            thread::spawn(move || {
                for (k, want) in msg.chunks(8).enumerate() {
                    ch.recv_with(|tag, bytes| {
                        assert_eq!(tag, k as u64, "chunks must arrive in order");
                        assert_eq!(bytes, want, "payload of chunk {k} not fully visible");
                    });
                }
            })
        })
        .collect();
    let outs = [&*ports[0], &*ports[1]];
    let mut reported = 0;
    wire::tree_send(
        &outs,
        8,
        msg.len(),
        || msg.len(),
        |off, dst| dst.copy_from_slice(&msg[off..off + dst.len()]),
        |off, bytes| {
            assert_eq!(off, reported, "ranges are reported in order, once");
            reported += bytes;
            let slower = outs.iter().map(|ch| ch.sent()).min().unwrap();
            assert!(reported <= slower * 8, "flushed overtook the slower port");
        },
    );
    assert_eq!(reported, msg.len());
    for c in consumers {
        c.join();
    }
}

/// Under every explored schedule both ports get the whole message in order
/// and `flushed` never runs ahead of the slower one.
#[test]
fn tree_feed_reaches_both_ports_in_order() {
    model_with(Config::dfs(5_000), tree_feed_scenario);
    model_with(Config::random(0xB9_0001, 3_000), tree_feed_scenario);
}
