//! Correctness of the nonblocking engine: delivery, reduction values,
//! concurrency across ops and subgroups, the overlap guard, the
//! pre-effect validation contract, the park rule for chunks whose landing
//! buffer is not mapped yet, and retirement leaving nothing behind.

use std::sync::Arc;

use bgp_sched::{Sched, SchedError};
use bgp_shmem::SharedRegion;
use bgp_smp::cluster::DEFAULT_WINDOW;
use bgp_smp::collectives::{read_f64s, write_f64s};
use bgp_smp::{Cluster, SenseBarrier};

mod common;
use common::{payload, within};

fn read_bytes(r: &Arc<SharedRegion>, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    // SAFETY: tests only read after the owning request completed.
    unsafe { r.read(0, &mut v) };
    v
}

fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn ibcast_delivers_multi_chunk_payload() {
    let cluster = Cluster::new(2, 4);
    let len = 40_000; // 3 chunks at the default 16 KiB
    let results = cluster.run(move |cctx| {
        let buf = Arc::new(SharedRegion::new(len));
        if cctx.node() == 1 && cctx.rank() == 2 {
            // SAFETY: freshly allocated, not yet shared.
            unsafe { buf.write(0, &pattern(7, len)) };
        }
        let mut sched = Sched::new(cctx);
        let req = sched.ibcast(&[0, 1, 2, 3], 1, 2, Some(&buf), len).unwrap();
        sched.wait(req);
        read_bytes(&buf, len)
    });
    let expect = pattern(7, len);
    for node in &results {
        for got in node {
            assert_eq!(*got, expect);
        }
    }
}

#[test]
fn iallreduce_sums_across_cluster() {
    let cluster = Cluster::new(2, 4);
    let count = 5000; // 3 chunks at 2048 elements per chunk
    let results = cluster.run(move |cctx| {
        let vals: Vec<f64> = (0..count)
            .map(|i| cctx.global_rank() as f64 + i as f64)
            .collect();
        let input = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&input, 0, &vals);
        let output = Arc::new(SharedRegion::new(count * 8));
        let mut sched = Sched::new(cctx);
        let req = sched
            .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait(req);
        read_f64s(&output, 0, count)
    });
    let rank_sum: f64 = (0..8).map(|r| r as f64).sum();
    for node in &results {
        for got in node {
            for (i, v) in got.iter().enumerate() {
                assert_eq!(*v, rank_sum + 8.0 * i as f64, "element {i}");
            }
        }
    }
}

#[test]
fn concurrent_subgroup_ops_do_not_interfere() {
    // Two disjoint subgroups run a broadcast each, concurrently, while the
    // full group runs an allreduce — three ops in flight over shared links.
    let cluster = Cluster::new(2, 4);
    let len = 20_000;
    let count = 3000;
    let results = cluster.run(move |cctx| {
        let rank = cctx.rank();
        let even = [0usize, 2];
        let odd = [1usize, 3];
        let mut sched = Sched::new(cctx);

        let b_even = even.binary_search(&rank).is_ok().then(|| {
            let b = Arc::new(SharedRegion::new(len));
            if cctx.node() == 0 && rank == 0 {
                // SAFETY: fresh region.
                unsafe { b.write(0, &pattern(11, len)) };
            }
            b
        });
        let b_odd = odd.binary_search(&rank).is_ok().then(|| {
            let b = Arc::new(SharedRegion::new(len));
            if cctx.node() == 1 && rank == 3 {
                // SAFETY: fresh region.
                unsafe { b.write(0, &pattern(23, len)) };
            }
            b
        });
        let input = Arc::new(SharedRegion::new(count * 8));
        let vals: Vec<f64> = (0..count)
            .map(|i| (i + cctx.global_rank()) as f64)
            .collect();
        write_f64s(&input, 0, &vals);
        let output = Arc::new(SharedRegion::new(count * 8));

        let r1 = sched.ibcast(&even, 0, 0, b_even.as_ref(), len).unwrap();
        let r2 = sched.ibcast(&odd, 1, 3, b_odd.as_ref(), len).unwrap();
        let r3 = sched
            .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&output), count)
            .unwrap();
        sched.wait_all(&[r1, r2, r3]);

        let bytes = b_even
            .or(b_odd)
            .map(|b| read_bytes(&b, len))
            .expect("every rank is in one subgroup");
        (bytes, read_f64s(&output, 0, count))
    });
    let sum0: f64 = (0..8).map(|r| r as f64).sum();
    for node in &results {
        for (rank, (bytes, sums)) in node.iter().enumerate() {
            let expect = if rank % 2 == 0 {
                pattern(11, len)
            } else {
                pattern(23, len)
            };
            assert_eq!(*bytes, expect, "rank {rank}");
            for (i, v) in sums.iter().enumerate() {
                assert_eq!(*v, sum0 + 8.0 * i as f64);
            }
        }
    }
}

#[test]
fn busy_buffer_is_rejected_and_freed_on_completion() {
    let cluster = Cluster::new(1, 2);
    let oks = cluster.run(|cctx| {
        let buf = Arc::new(SharedRegion::new(1024));
        if cctx.rank() == 0 {
            // SAFETY: fresh region.
            unsafe { buf.write(0, &pattern(3, 1024)) };
        }
        let mut sched = Sched::new(cctx);
        let req = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap();
        // Same buffer, still in flight: typed error naming the owner, and
        // (pre-effect validation) no op id consumed — streams stay aligned.
        let err = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap_err();
        let busy_ok = err == SchedError::BufferBusy { op: req.op_id() };
        sched.wait(req);
        // Completion releases the buffer.
        let req2 = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 1024).unwrap();
        sched.wait(req2);
        busy_ok
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn zero_length_ops_complete_at_post() {
    let cluster = Cluster::new(2, 2);
    let oks = cluster.run(|cctx| {
        let mut sched = Sched::new(cctx);
        let buf = Arc::new(SharedRegion::new(8));
        let r1 = sched.ibcast(&[0, 1], 0, 0, Some(&buf), 0).unwrap();
        let input = Arc::new(SharedRegion::new(8));
        let output = Arc::new(SharedRegion::new(8));
        let r2 = sched
            .iallreduce(&[0, 1], Some(&input), Some(&output), 0)
            .unwrap();
        // Complete without a single poll.
        sched.is_complete(r1) && sched.is_complete(r2)
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn posts_validate_before_any_effect() {
    let cluster = Cluster::new(1, 2);
    let oks = cluster.run(|cctx| {
        let mut sched = Sched::new(cctx);
        let buf = Arc::new(SharedRegion::new(64));
        let small = Arc::new(SharedRegion::new(8));
        let member = |r: Result<_, SchedError>| r.unwrap_err();

        let mut ok = true;
        ok &= matches!(
            member(sched.ibcast(&[], 0, 0, None, 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[1, 0], 0, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 5], 0, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 1], 3, 0, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        ok &= matches!(
            member(sched.ibcast(&[0, 1], 0, 7, Some(&buf), 16)),
            SchedError::BadGroup(_)
        );
        // Member without a buffer / non-member with one. Both ranks fail
        // (differently), so neither consumes an op id: still symmetric.
        ok &= member(sched.ibcast(&[0, 1], 0, 0, None, 16)) == SchedError::BufferMissing;
        ok &= if cctx.rank() == 0 {
            member(sched.ibcast(&[0], 0, 0, None, 16)) == SchedError::BufferMissing
        } else {
            member(sched.ibcast(&[0], 0, 0, Some(&buf), 16)) == SchedError::UnexpectedBuffer
        };
        ok &= member(sched.ibcast(&[0, 1], 0, 0, Some(&small), 64))
            == SchedError::BufferTooShort { needed: 64, got: 8 };
        ok &= member(sched.iallreduce(&[0, 1], Some(&buf), Some(&buf), 8))
            == SchedError::BufferAliased;
        ok &= member(sched.iallreduce(&[0, 1], Some(&small), None, 1)) == SchedError::BufferMissing;

        // After all those rejections, a correct post still works and the
        // op-id streams are still aligned across ranks.
        let input = Arc::new(SharedRegion::new(64));
        write_f64s(&input, 0, &[1.0; 8]);
        let output = Arc::new(SharedRegion::new(64));
        let req = sched
            .iallreduce(&[0, 1], Some(&input), Some(&output), 8)
            .unwrap();
        sched.wait(req);
        ok && read_f64s(&output, 0, 8) == vec![2.0; 8]
    });
    assert!(oks.iter().flatten().all(|&ok| ok));
}

#[test]
fn many_ops_in_flight_deep_pipeline() {
    // Eight broadcasts posted back-to-back before any wait; all complete
    // and deliver their own payloads.
    let cluster = Cluster::new(2, 4);
    let len = 6000;
    let results = cluster.run(move |cctx| {
        let mut sched = Sched::new(cctx);
        let mut bufs = Vec::new();
        let mut reqs = Vec::new();
        for i in 0..8u8 {
            let root_node = (i as usize) % 2;
            let root_rank = (i as usize) % 4;
            let buf = Arc::new(SharedRegion::new(len));
            if cctx.node() == root_node && cctx.rank() == root_rank {
                // SAFETY: fresh region.
                unsafe { buf.write(0, &pattern(i, len)) };
            }
            let req = sched
                .ibcast(&[0, 1, 2, 3], root_node, root_rank, Some(&buf), len)
                .unwrap();
            bufs.push(buf);
            reqs.push(req);
        }
        sched.wait_all(&reqs);
        bufs.iter().map(|b| read_bytes(b, len)).collect::<Vec<_>>()
    });
    for node in &results {
        for per_rank in node {
            for (i, got) in per_rank.iter().enumerate() {
                assert_eq!(*got, pattern(i as u8, len), "op {i}");
            }
        }
    }
}

#[test]
fn mixed_collectives_in_flight_concurrently() {
    // Both op types posted back-to-back before any wait.
    let cluster = Cluster::new(2, 4);
    let len = 6000;
    let count = 3000;
    let results = cluster.run(move |cctx| {
        let gi = cctx.global_rank();
        let mut sched = Sched::new(cctx);

        let bbuf = Arc::new(SharedRegion::new(len));
        if gi == 5 {
            // SAFETY: fresh region.
            unsafe { bbuf.write(0, &pattern(42, len)) };
        }
        let ain = Arc::new(SharedRegion::new(count * 8));
        write_f64s(&ain, 0, &vec![gi as f64; count]);
        let aout = Arc::new(SharedRegion::new(count * 8));

        let grp = [0usize, 1, 2, 3];
        let r1 = sched.ibcast(&grp, 1, 1, Some(&bbuf), len).unwrap();
        let r2 = sched
            .iallreduce(&grp, Some(&ain), Some(&aout), count)
            .unwrap();
        sched.wait_all(&[r1, r2]);

        (read_bytes(&bbuf, len), read_f64s(&aout, 0, count))
    });
    let sum: f64 = (0..8).map(|r| r as f64).sum();
    for (node, per_node) in results.iter().enumerate() {
        for (rank, (b, a)) in per_node.iter().enumerate() {
            let gi = node * 4 + rank;
            assert_eq!(*b, pattern(42, len), "bcast at member {gi}");
            assert!(a.iter().all(|&v| v == sum), "allreduce at member {gi}");
        }
    }
}

/// Regression: with fewer chunks than members (`kt < g`) the members with
/// an empty reduce partition never read co-member inputs, so they must not
/// wait to map them — a chunk owner may finish and clear its input window
/// first (its await-parts gate sees the empty partials trivially done),
/// after which the map could never succeed and `wait` spun forever. The
/// single-chunk shape below idles three of four members per node; the loop
/// gives the scheduler chances to order the owner's clear first.
#[test]
fn single_chunk_ops_with_idle_partitions_terminate() {
    let cluster = Cluster::new(2, 4);
    for _ in 0..10 {
        let count = 64; // one chunk at 2048 elements per chunk, g = 4
        let results = cluster.run(move |cctx| {
            let gi = cctx.global_rank();
            let input = Arc::new(SharedRegion::new(count * 8));
            write_f64s(&input, 0, &vec![gi as f64 + 1.0; count]);
            let ar_out = Arc::new(SharedRegion::new(count * 8));
            let mut sched = Sched::new(cctx);
            let req = sched
                .iallreduce(&[0, 1, 2, 3], Some(&input), Some(&ar_out), count)
                .unwrap();
            sched.wait(req);
            read_f64s(&ar_out, 0, count)
        });
        let sum: f64 = (1..=8).map(|r| r as f64).sum();
        for ar in results.iter().flatten() {
            assert!(ar.iter().all(|&v| v == sum), "allreduce: {ar:?}");
        }
    }
}

/// Regression: a request must not complete while its node still owes the
/// ring a chunk. Node 1 is the last ring position of every even op: it
/// consumes the partial, lands the result — its member is done — and then
/// still has to send the full back. With a 2-slot window the link is often
/// full at that moment; if `wait_all` returned anyway, node 1 would sit in
/// the barrier below (which does not poll) while node 0 waits for that full
/// forever. Before the fix this hung within the first few rounds.
#[test]
fn wait_all_then_unpolled_barrier_cannot_strand_the_peer() {
    use std::sync::mpsc;
    use std::time::Duration;

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::with_geometry(2, 1, 4096, 2);
        let bar = Arc::new(bgp_smp::SenseBarrier::new(2));
        cluster.run(move |cctx| {
            let mut tok = bar.token();
            let slots: Vec<_> = (0..16)
                .map(|_| {
                    let input = Arc::new(SharedRegion::new(128 * 8));
                    write_f64s(&input, 0, &[1.0; 128]);
                    (input, Arc::new(SharedRegion::new(128 * 8)))
                })
                .collect();
            let mut sched = Sched::new(cctx);
            for _ in 0..2000 {
                let reqs: Vec<_> = slots
                    .iter()
                    .map(|(i, o)| sched.iallreduce(&[0], Some(i), Some(o), 128).unwrap())
                    .collect();
                sched.wait_all(&reqs);
                bar.wait(&mut tok);
            }
            assert_eq!(read_f64s(&slots[15].1, 0, 128), vec![2.0; 128]);
        });
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(20))
        .expect("an engine stopped polling while its node still owed the ring a chunk");
}

/// Three nodes put a middle position on every ring — the fused
/// combine-and-forward and the full relay — and a 2-slot window keeps
/// every link full while both op types are in flight four deep.
#[test]
fn three_node_window_two_deep_pipeline() {
    let cluster = Cluster::with_geometry(3, 2, 256, 2);
    let (len, count, depth) = (700, 100, 4); // 3 chunks, 4 chunks
    let results = cluster.run(move |cctx| {
        let gi = cctx.global_rank();
        let grp = [0usize, 1];
        let mut sched = Sched::new(cctx);
        let mut reqs = Vec::new();
        let mut outs = Vec::new();
        for round in 0..depth {
            let root = (round % 3, round % 2);
            let bbuf = Arc::new(SharedRegion::new(len));
            if (cctx.node(), cctx.rank()) == root {
                // SAFETY: fresh region.
                unsafe { bbuf.write(0, &pattern(round as u8, len)) };
            }
            let ain = Arc::new(SharedRegion::new(count * 8));
            write_f64s(&ain, 0, &vec![(gi + round) as f64; count]);
            let aout = Arc::new(SharedRegion::new(count * 8));
            reqs.extend([
                sched
                    .ibcast(&grp, root.0, root.1, Some(&bbuf), len)
                    .unwrap(),
                sched
                    .iallreduce(&grp, Some(&ain), Some(&aout), count)
                    .unwrap(),
            ]);
            outs.push((bbuf, aout));
        }
        sched.wait_all(&reqs);
        outs.iter()
            .map(|(b, a)| (read_bytes(b, len), read_f64s(a, 0, count)))
            .collect::<Vec<_>>()
    });
    for per_rank in results.iter().flatten() {
        for (round, (b, a)) in per_rank.iter().enumerate() {
            let sum = (0..6).map(|gi| (gi + round) as f64).sum::<f64>();
            assert_eq!(*b, pattern(round as u8, len), "bcast, round {round}");
            assert!(a.iter().all(|&v| v == sum), "allreduce, round {round}");
        }
    }
}

/// `iallreduce`s over the one-member group `[member]` on an `m` x `n`
/// cluster, 16 in flight on one long-lived `Sched` per rank, of ragged
/// sizes over 256 B chunks. The engine's ring reads the lone member's input
/// in place, so the member overwrites it right after each `wait` — a
/// release before the node's flow is finished shows as a wrong sum or, if
/// the input is withdrawn before the engine mapped it, as a wedge — and
/// every node's result must still be exact.
fn lone_member_rings_from_its_input(m: usize, n: usize, member: usize) {
    const OPS: usize = 64;
    const DEPTH: usize = 16;
    const COUNTS: [usize; 5] = [1, 31, 32, 33, 300];
    let got = within(60, move || {
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        cluster.run(move |cctx| {
            let (node, is_member) = (cctx.node(), cctx.rank() == member);
            let mut sched = Sched::new(cctx);
            let mut in_flight = std::collections::VecDeque::new();
            let mut results = Vec::new();
            for i in 0..OPS + DEPTH {
                if i < OPS {
                    let count = COUNTS[i % COUNTS.len()];
                    let bufs = is_member.then(|| {
                        let input = Arc::new(SharedRegion::new(count * 8));
                        let vals: Vec<f64> =
                            (0..count).map(|k| (node * 1000 + i + k) as f64).collect();
                        write_f64s(&input, 0, &vals);
                        (input, Arc::new(SharedRegion::new(count * 8)))
                    });
                    let (input, output) =
                        (bufs.as_ref().map(|b| &b.0), bufs.as_ref().map(|b| &b.1));
                    let req = sched.iallreduce(&[member], input, output, count).unwrap();
                    in_flight.push_back((i, count, req, bufs));
                }
                if in_flight.len() == DEPTH || i >= OPS {
                    let Some((i, count, req, bufs)) = in_flight.pop_front() else {
                        break;
                    };
                    sched.wait(req);
                    if let Some((input, output)) = bufs {
                        write_f64s(&input, 0, &vec![1e300; count]);
                        results.push((i, read_f64s(&output, 0, count)));
                    }
                }
            }
            results
        })
    });
    for (node, ranks) in got.iter().enumerate() {
        assert_eq!(ranks[member].len(), OPS, "node {node}: every op completed");
        for (i, result) in &ranks[member] {
            let expect: Vec<f64> = (0..COUNTS[i % COUNTS.len()])
                .map(|k| (1000 * m * (m - 1) / 2 + m * (i + k)) as f64)
                .collect();
            assert_eq!(*result, expect, "{m}x{n}, node {node}, op {i}");
        }
    }
}

/// One-rank nodes: the node's only member is the engine rank, and middle
/// ring positions (3 and 4 nodes) combine straight from its input.
#[test]
fn iallreduce_rings_one_rank_nodes_from_their_inputs() {
    for m in [3, 4] {
        lone_member_rings_from_its_input(m, 1, 0);
    }
}

/// A lone member off the engine rank: only its landing-member release —
/// the engine's "flow finished" count past the result bytes — keeps its
/// input exposed and unchanged while the engine reads it.
#[test]
fn a_lone_member_off_the_engine_rank_keeps_its_input_until_the_flow_is_done() {
    for m in [2, 3] {
        lone_member_rings_from_its_input(m, 2, 1);
    }
}

/// A broadcast from rank 1 of node 0 over `group` on an `m` x `n` cluster,
/// the root posting only after its node's engine has registered the op and
/// run over it — under a progress deadline, so a rank left waiting is a
/// failed assertion, not a hung test run.
fn late_off_engine_root(m: usize, n: usize, group: &'static [usize]) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let cluster = Cluster::new(m, n);
        let len = 20_000; // two chunks
        let engine_ran = Arc::new(AtomicBool::new(false));
        let got = cluster.run(move |cctx| {
            let (on_root_node, rank) = (cctx.node() == 0, cctx.rank());
            let is_root = on_root_node && rank == 1;
            let buf = group.contains(&rank).then(|| {
                let buf = Arc::new(SharedRegion::new(len));
                if is_root {
                    // SAFETY: freshly allocated, not yet shared.
                    unsafe { buf.write(0, &pattern(5, len)) };
                }
                buf
            });
            let mut sched = Sched::new(cctx);
            while is_root && !engine_ran.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let req = sched.ibcast(group, 0, 1, buf.as_ref(), len).unwrap();
            if on_root_node && rank == 0 {
                for _ in 0..3 {
                    sched.test(req);
                }
                engine_ran.store(true, Ordering::Release);
            }
            sched.wait(req);
            buf.map(|b| read_bytes(&b, len))
        });
        for bytes in got.into_iter().flatten().flatten() {
            assert_eq!(bytes, pattern(5, len));
        }
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(20)).expect(
        "a rank never left the broadcast: the engine retired the op's \
         counters before the late root looked them up",
    );
}

/// Regression (the tier-1 livelock): on the root's node the engine used
/// not to wait for the root before retiring a broadcast's counters. With
/// no outbound port and no other member, net-done was published and the op
/// retired before the root had posted; the counter bank's lookup is
/// get-or-create, so the root got a fresh zero net-done counter and waited
/// on it forever. Hung every run.
#[test]
fn late_root_alone_in_its_group_on_one_node() {
    late_off_engine_root(1, 2, &[1]);
}

/// The same with the engine rank a member: it can copy, report, and retire
/// the op between the root's expose and the root's counter lookups.
#[test]
fn late_root_with_the_engine_rank_in_its_group() {
    late_off_engine_root(1, 2, &[0, 1]);
}

/// The same across two nodes: the root node's engine maps the late root's
/// source, injects it and retires while the root is still posting; the
/// other node's member posts on time and waits for the data.
#[test]
fn late_root_alone_in_its_group_on_two_nodes() {
    late_off_engine_root(2, 2, &[1]);
}

/// The park rule, for broadcasts. On a 2 x 2 cluster op A runs over
/// `[0, 1]` and op B over `[1]`, both rooted at rank 1 of node 0, so on
/// node 1 B lands in rank 1's buffer. Rank 1 of node 1 waits on A before it
/// posts B, while B's chunks queue behind A's: node 1's engine has
/// registered B but cannot map its landing buffer yet, so it must park B's
/// chunks. Eight rounds on one long-lived `Sched`, every byte checked,
/// under a deadline.
#[test]
fn park_rule_ibcast_landing_member_posts_after_a_wait() {
    const ROUNDS: usize = 8;
    const A: usize = 64 << 10; // 64 chunks of 1 KiB
    const B: usize = 32 << 10;
    let got = within(30, || {
        let cluster = Cluster::with_geometry(2, 2, 1024, 4);
        cluster.run(|cctx| {
            let (node, rank) = (cctx.node(), cctx.rank());
            let mut sched = Sched::new(cctx);
            let mut out = Vec::new();
            for round in 0..ROUNDS {
                let a = Arc::new(SharedRegion::new(A));
                let b = (rank == 1).then(|| Arc::new(SharedRegion::new(B)));
                if (node, rank) == (0, 1) {
                    let b = b.as_ref().expect("rank 1 is in B's group");
                    // SAFETY: fresh regions, before any post.
                    unsafe {
                        a.write(0, &payload(2 * round, A));
                        b.write(0, &payload(2 * round + 1, B));
                    }
                }
                let ra = sched.ibcast(&[0, 1], 0, 1, Some(&a), A).unwrap();
                if (node, rank) == (1, 1) {
                    sched.wait(ra);
                }
                let rb = sched.ibcast(&[1], 0, 1, b.as_ref(), B).unwrap();
                sched.wait_all(&[ra, rb]);
                out.push((read_bytes(&a, A), b.map(|b| read_bytes(&b, B))));
            }
            out
        })
    });
    for (node, ranks) in got.iter().enumerate() {
        for (rank, rounds) in ranks.iter().enumerate() {
            for (round, (a, b)) in rounds.iter().enumerate() {
                let at = format!("node {node} rank {rank} round {round}");
                assert!(*a == payload(2 * round, A), "{at}: op A");
                assert!(
                    b.iter().all(|b| *b == payload(2 * round + 1, B)),
                    "{at}: op B"
                );
            }
        }
    }
}

/// The same for allreduces, where waiting at the head of the port would
/// deadlock: A runs over `[0, 1]` and B over `[1]`, with an empty op
/// between them so that both ride the same ring direction. Node 0 injects
/// B's partials as soon as its rank 1 has posted, possibly ahead of some of
/// A's, whose shares wait on both of node 0's ranks; node 1 must park them
/// until its rank 1, waiting on A, posts B.
#[test]
fn park_rule_iallreduce_landing_member_posts_after_a_wait() {
    const ROUNDS: usize = 8;
    const A: usize = 8 << 10; // doubles: 64 chunks of 1 KiB
    const B: usize = 4 << 10;
    let got = within(30, || {
        let cluster = Cluster::with_geometry(2, 2, 1024, 4);
        cluster.run(|cctx| {
            let (node, rank, gr) = (cctx.node(), cctx.rank(), cctx.global_rank());
            let empty = Arc::new(SharedRegion::new(8));
            let mut sched = Sched::new(cctx);
            let mut out = Vec::new();
            for round in 0..ROUNDS {
                let input = |count: usize| {
                    let vals: Vec<f64> = (0..count)
                        .map(|i| (1000 * (gr + round) + i % 100) as f64)
                        .collect();
                    let r = Arc::new(SharedRegion::new(count * 8));
                    write_f64s(&r, 0, &vals);
                    (r, Arc::new(SharedRegion::new(count * 8)))
                };
                let (a_in, a_out) = input(A);
                let b = (rank == 1).then(|| input(B));
                let ra = sched
                    .iallreduce(&[0, 1], Some(&a_in), Some(&a_out), A)
                    .unwrap();
                sched.ibcast(&[0, 1], 0, 0, Some(&empty), 0).unwrap();
                if (node, rank) == (1, 1) {
                    sched.wait(ra);
                }
                let (b_in, b_out) = (b.as_ref().map(|b| &b.0), b.as_ref().map(|b| &b.1));
                let rb = sched.iallreduce(&[1], b_in, b_out, B).unwrap();
                sched.wait_all(&[ra, rb]);
                out.push((read_f64s(&a_out, 0, A), b.map(|b| read_f64s(&b.1, 0, B))));
            }
            out
        })
    });
    // A sums global ranks 0..4, B the rank-1s: global ranks 1 and 3.
    let sum = |ranks: &[usize], round: usize, i: usize| -> f64 {
        let each = |gr: usize| (1000 * (gr + round) + i % 100) as f64;
        ranks.iter().map(|&gr| each(gr)).sum()
    };
    for (node, ranks) in got.iter().enumerate() {
        for (rank, rounds) in ranks.iter().enumerate() {
            for (round, (a, b)) in rounds.iter().enumerate() {
                let at = format!("node {node} rank {rank} round {round}");
                let a_wrong = (0..A).find(|&i| a[i] != sum(&[0, 1, 2, 3], round, i));
                assert_eq!(a_wrong, None, "{at}: op A, first wrong element");
                if let Some(b) = b {
                    let b_wrong = (0..B).find(|&i| b[i] != sum(&[1, 3], round, i));
                    assert_eq!(b_wrong, None, "{at}: op B, first wrong element");
                }
            }
        }
    }
}

/// One visit to a port parks at most a window of chunks, then lets the
/// members run. Node 0 roots a depth-1 loop of 4 MiB broadcasts on one
/// long-lived 2 x 1 `Sched`, out of two buffers it filled up front; it
/// finishes each op as soon as its last chunk is in the link and injects
/// the next one right behind it, while node 1 is still receiving. Node 1
/// parks what arrives between its last chunk of op i and its post of op
/// i+1 — a window or two, not most of the op.
#[test]
fn park_rule_bounds_what_a_depth_1_loop_parks() {
    const OPS: usize = 16;
    const LEN: usize = 4 << 20;
    let (parked, wrong) = within(60, || {
        let sent = Arc::new([payload(0, LEN), payload(1, LEN)]);
        let cluster = Cluster::new(2, 1);
        let wrong = cluster.run(move |cctx| {
            let bufs = [0, 1].map(|_| Arc::new(SharedRegion::new(LEN)));
            if cctx.node() == 0 {
                for (buf, bytes) in bufs.iter().zip(sent.iter()) {
                    // SAFETY: fresh regions, before any post.
                    unsafe { buf.write(0, bytes) };
                }
            }
            let mut sched = Sched::new(cctx);
            let mut wrong = Vec::new();
            for i in 0..OPS {
                let buf = &bufs[i % 2];
                let req = sched.ibcast(&[0], 0, 0, Some(buf), LEN).unwrap();
                sched.wait(req);
                // Only the receiver checks: the root goes straight on.
                if cctx.node() == 1 {
                    if read_bytes(buf, LEN) != sent[i % 2] {
                        wrong.push(i);
                    }
                    // The next op must fill the other buffer afresh.
                    // SAFETY: no request on it is in flight.
                    unsafe { bufs[(i + 1) % 2].write(0, &[0; LEN]) };
                }
            }
            wrong
        });
        (cluster.stats().stash_parked, wrong)
    });
    assert!(wrong.iter().flatten().all(|w| w.is_empty()), "{wrong:?}");
    let bound = (2 * DEFAULT_WINDOW * OPS) as u64;
    assert!(
        parked <= bound,
        "{parked} chunks parked over {OPS} ops of 256 (bound {bound})"
    );
}

/// Input `k` of global member `gi` in the recycled-block test: small
/// integers, so every sum is exact.
fn ar_input(k: usize, gi: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|e| ((k * 7 + gi * 3 + e) % 1000) as f64)
        .collect()
}

/// A recycled counter block never hands an op the windows of an op that
/// used the block before. On 2 x 2, 1 000 ops at depth 4 — broadcasts with
/// rotating roots and allreduces, alternating — over eight sets of buffers,
/// so the ops in flight around any op use other buffers than it does. Each
/// op's landing member posts last: its co-member posts and polls first,
/// looking into a block an earlier op retired, and only then does the
/// landing member post. Every byte of every result is checked, and once the
/// schedulers are dropped nothing else holds any of the buffers.
#[test]
fn a_recycled_block_never_shows_an_earlier_ops_window() {
    const OPS: usize = 1000;
    const DEPTH: usize = 4;
    const SETS: usize = 2 * DEPTH;
    const LEN: usize = 700; // 3 chunks
    const COUNT: usize = 100; // 4 chunks
    let out = within(120, || {
        let cluster = Cluster::with_geometry(2, 2, 256, 4);
        let bars: Arc<[SenseBarrier; 3]> = Arc::new([2, 2, 4].map(SenseBarrier::new));
        cluster.run(move |cctx| {
            let (node, rank) = (cctx.node(), cctx.rank());
            let gi = node * 2 + rank;
            let mut tok = bars[node].token();
            let sets: Vec<[Arc<SharedRegion>; 3]> = (0..SETS)
                .map(|_| [LEN, 8 * COUNT, 8 * COUNT].map(|l| Arc::new(SharedRegion::new(l))))
                .collect();
            let mut sched = Sched::new(cctx);
            let mut flight = std::collections::VecDeque::new();
            let mut wrong = Vec::new();
            let mut check = |j: usize| {
                let [b, _, output] = &sets[j % SETS];
                let ok = if j.is_multiple_of(2) {
                    read_bytes(b, LEN) == payload(j, LEN)
                } else {
                    let sum = (0..4).map(|gi| ar_input(j, gi, COUNT));
                    let want = sum.reduce(|a, b| a.iter().zip(b).map(|(x, y)| x + y).collect());
                    read_f64s(output, 0, COUNT) == want.unwrap()
                };
                if !ok {
                    wrong.push(j);
                }
            };
            for k in 0..OPS {
                let [b, input, output] = &sets[k % SETS];
                let bcast = k.is_multiple_of(2);
                let root = ((k / 2) % 2, (k / 4) % 2);
                // The landing member: the root on its node, else group[0].
                let lead = if bcast && node == root.0 { root.1 } else { 0 };
                if bcast && (node, rank) == root {
                    // SAFETY: the op that last used the buffer completed.
                    unsafe { b.write(0, &payload(k, LEN)) };
                } else if !bcast {
                    write_f64s(input, 0, &ar_input(k, gi, COUNT));
                }
                let post = |s: &mut Sched| {
                    let group = [0, 1];
                    let req = if bcast {
                        s.ibcast(&group, root.0, root.1, Some(b), LEN)
                    } else {
                        s.iallreduce(&group, Some(input), Some(output), COUNT)
                    };
                    req.unwrap()
                };
                let req = if rank == lead {
                    bars[node].wait(&mut tok);
                    post(&mut sched)
                } else {
                    let req = post(&mut sched);
                    for _ in 0..4 {
                        sched.poll();
                    }
                    bars[node].wait(&mut tok);
                    req
                };
                flight.push_back((k, req));
                if flight.len() > DEPTH {
                    let (j, req) = flight.pop_front().unwrap();
                    sched.wait(req);
                    check(j);
                }
            }
            for (j, req) in flight {
                sched.wait(req);
                check(j);
            }
            drop(sched);
            let mut all = bars[2].token();
            bars[2].wait(&mut all);
            let held = sets.iter().flatten().filter(|r| Arc::strong_count(r) > 1);
            (wrong, held.count())
        })
    });
    for (node, ranks) in out.iter().enumerate() {
        for (rank, (wrong, held)) in ranks.iter().enumerate() {
            assert!(
                wrong.is_empty(),
                "node {node} rank {rank}: ops {wrong:?} wrong"
            );
            assert_eq!(*held, 0, "node {node} rank {rank}: buffers still held");
        }
    }
}

/// Counter blocks left on each node of an `m` x `n` cluster once every
/// rank has dropped its `Sched` and passed a barrier, and buffers of the
/// rank's that something besides the rank still holds. Each rank posts two
/// rounds of both collectives over `group`; the first round is waited for,
/// the second left to the drop's quiesce.
fn left_after_drop(m: usize, n: usize, group: Vec<usize>) -> Vec<(usize, usize)> {
    let cluster = Cluster::with_geometry(m, n, 256, 2);
    let bar = Arc::new(SenseBarrier::new(m * n));
    let (len, count) = (700, 100); // 3 and 4 chunks
    let left = cluster.run(move |cctx| {
        let mut tok = bar.token();
        let member = group.contains(&cctx.rank());
        let region = |len: usize| member.then(|| Arc::new(SharedRegion::new(len)));
        let mut sched = Sched::new(cctx);
        let mut held = Vec::new();
        let mut reqs = Vec::new();
        for round in 0..2 {
            let [b, ain, aout] = [len, 8 * count, 8 * count].map(region);
            let root = (round % m, group[group.len() - 1]);
            if round == 1 {
                sched.wait_all(&reqs);
            }
            reqs = vec![
                sched
                    .ibcast(&group, root.0, root.1, b.as_ref(), len)
                    .unwrap(),
                sched
                    .iallreduce(&group, ain.as_ref(), aout.as_ref(), count)
                    .unwrap(),
            ];
            held.push([b, ain, aout]);
        }
        drop(sched);
        bar.wait(&mut tok);
        let held = held.iter().flatten().flatten();
        let held = held.filter(|r| Arc::strong_count(r) > 1).count();
        (cctx.node_shared().sched_bank().len(), held)
    });
    left.into_iter().flatten().collect()
}

/// Each op is retired exactly once per node, after its last member
/// reported: once every rank has dropped its `Sched` — the engine rank's
/// drop retires the node's last op — nothing is left in the counter bank
/// and no window holds a buffer, for a group of every rank, one without the
/// engine rank, and one of the last rank alone.
#[test]
fn dropped_scheds_leave_no_counter_block_and_no_window() {
    for (m, n) in [(2, 2), (3, 2), (1, 3)] {
        for group in [(0..n).collect(), (1..n).collect(), vec![n - 1]] {
            let at = format!("{m}x{n}, group {group:?}");
            let left = within(30, move || left_after_drop(m, n, group));
            assert!(left.iter().all(|&l| l == (0, 0)), "{at}: {left:?}");
        }
    }
}

/// The window ledger after each of two passes of a fixed 2 x 2 sequence
/// over a group of both ranks, summed over the nodes: `ibcast` and
/// `iallreduce`, each waited for and retired before the next, on the same
/// buffers both times.
fn engine_ledger() -> [(u64, u64, u64); 2] {
    let cluster = Cluster::new(2, 2);
    let bar = Arc::new(SenseBarrier::new(4));
    let (len, count) = (700, 100);
    let ledgers = cluster.run(move |cctx| {
        let mut tok = bar.token();
        let [b, ain, aout] =
            [len, 8 * count, 8 * count].map(|len| Arc::new(SharedRegion::new(len)));
        let group = [0, 1];
        let mut sched = Sched::new(cctx);
        [0, 1].map(|_| {
            for op in 0..2 {
                let req = match op {
                    0 => sched.ibcast(&group, 1, 1, Some(&b), len),
                    _ => sched.iallreduce(&group, Some(&ain), Some(&aout), count),
                };
                sched.wait(req.unwrap());
                sched.drain();
                bar.wait(&mut tok);
            }
            let ledger = cctx.node_shared().registry().stats().snapshot();
            // Nobody starts the next pass before every snapshot is taken:
            // its `ibcast` root, rank 1 of node 1, charges an expose at post.
            bar.wait(&mut tok);
            ledger
        })
    });
    [0, 1].map(|pass| {
        let per_node = ledgers.iter().map(|node| node[0][pass]);
        per_node.fold((0, 0, 0), |t, l| (t.0 + l.0, t.1 + l.1, t.2 + l.2))
    })
}

/// The engine charges the window ledger exactly what it charged when its
/// windows lived in the registry map. Per node and pass: `ibcast` exposes
/// the landing buffer, which the co-member and the engine map; `iallreduce`
/// exposes two inputs and the output, and the one member with a non-empty
/// share (one chunk, two members) maps both inputs while the co-member and
/// the engine map the output. That is 4 exposes and 6 maps a node, all
/// misses on the first pass; every window holds a member's own buffer, the
/// same on both passes, so every map of the second pass hits.
#[test]
fn engine_window_ledger_is_exact() {
    let [first, both] = engine_ledger();
    assert_eq!(first, (8, 12, 0), "first pass");
    assert_eq!(both, (16, 12, 12), "both passes");
}
