//! The engine's stash keeps every chunk that outruns its post.
//!
//! A node still busy with one broadcast receives the chunks of the next one
//! a peer has already posted; the engine parks them until this node posts
//! that op too. A 64-chunk eviction cap on the stash used to drop them, and
//! the op never completed: under it the two `wait_then_post` cases below
//! wedged in 8 of 10 and 10 of 10 debug runs on a 2-core host. Every case
//! runs under a deadline on a helper thread, so a wedge fails in seconds
//! instead of hanging the suite.
//!
//! The large service ops at the end run 4 MiB end to end through the
//! server, byte-identical; they are what the cap used to rule out, not
//! regressions (four 2 MiB service broadcasts in flight completed under it).

use std::sync::Arc;

use bgp_sched::{CollectiveServer, Sched};
use bgp_shmem::SharedRegion;
use bgp_smp::cluster::{DEFAULT_CHUNK_BYTES, DEFAULT_WINDOW};
use bgp_smp::Cluster;

mod common;
use common::{payload, within};

/// On a 2 x 1 cluster of `chunk`-byte chunks, node 0 posts broadcasts `W`
/// (`w` bytes) and `X` (`x` bytes) back to back, both rooted at node 0;
/// node 1 waits for `W` before it posts `X`, so the chunks of `X` that
/// arrive meanwhile are parked. `rounds` times, each on a fresh `Sched`,
/// every byte checked on both nodes.
fn wait_then_post(chunk: usize, w: usize, x: usize, rounds: usize) {
    let evicted = within(20, move || {
        let cluster = Cluster::with_geometry(2, 1, chunk, DEFAULT_WINDOW);
        for round in 0..rounds {
            let sent = Arc::new([payload(2 * round, w), payload(2 * round + 1, x)]);
            let src = sent.clone();
            let got = cluster.run(move |cctx| {
                let bufs = [w, x].map(|len| Arc::new(SharedRegion::new(len)));
                if cctx.node() == 0 {
                    for (b, bytes) in bufs.iter().zip(src.iter()) {
                        // SAFETY: our buffer, before any post.
                        unsafe { b.write(0, bytes) };
                    }
                }
                let mut sched = Sched::new(cctx);
                let rw = sched.ibcast(&[0], 0, 0, Some(&bufs[0]), w).unwrap();
                if cctx.node() == 1 {
                    sched.wait(rw);
                }
                let rx = sched.ibcast(&[0], 0, 0, Some(&bufs[1]), x).unwrap();
                sched.wait_all(&[rw, rx]);
                // SAFETY: both requests completed.
                bufs.map(|b| unsafe { b.snapshot() })
            });
            for (node, ranks) in got.iter().enumerate() {
                for (got, sent) in ranks[0].iter().zip(sent.iter()) {
                    assert!(
                        got == sent,
                        "round {round}: node {node} got a wrong {}-byte payload",
                        sent.len()
                    );
                }
            }
        }
        cluster.stats().stash_evicted_chunks
    });
    assert_eq!(evicted, 0);
}

/// The default geometry: `W` is 64 chunks of 16 KiB, `X` 128.
#[test]
fn a_2_mib_ibcast_posted_after_a_wait_completes() {
    wait_then_post(DEFAULT_CHUNK_BYTES, 1 << 20, 2 << 20, 4);
}

/// The same shape in 1 KiB chunks: 64 and 128 of them.
#[test]
fn a_128_kib_ibcast_in_1_kib_chunks_posted_after_a_wait_completes() {
    wait_then_post(1024, 64 << 10, 128 << 10, 10);
}

/// A 4 MiB server broadcast: 256 chunks at the default geometry.
#[test]
fn a_4_mib_server_bcast_is_byte_identical_on_every_member() {
    let (got, sent) = within(120, || {
        let server = CollectiveServer::new(2, 2);
        let sent = payload(9, 4 << 20);
        let got = server.submit_bcast(&[0, 1], 1, 1, sent.clone()).unwrap();
        (got.wait(), sent)
    });
    assert_eq!(got.len(), 4);
    for (member, bytes) in got.iter().enumerate() {
        assert!(*bytes == sent, "member {member} got a wrong payload");
    }
}

/// A server allreduce of 512 Ki doubles (4 MiB), integer-valued so every
/// order of summation is exact.
#[test]
fn a_512_ki_double_server_allreduce_is_exact_on_every_member() {
    let count = 512 << 10;
    let got = within(120, move || {
        let server = CollectiveServer::new(2, 2);
        let inputs: Vec<Vec<f64>> = (0..4)
            .map(|g| (0..count).map(|i| (i % 1000 + g * 1000) as f64).collect())
            .collect();
        server.submit_allreduce(&[0, 1], inputs).unwrap().wait()
    });
    assert_eq!(got.len(), 4);
    for (member, sums) in got.iter().enumerate() {
        assert_eq!(sums.len(), count);
        let wrong = (0..count).find(|&i| sums[i] != (4 * (i % 1000) + 6000) as f64);
        assert_eq!(wrong, None, "member {member}: first wrong element");
    }
}

/// The stash outlives a `Sched`: a job's engine parks the chunks of an op
/// its rank posts only on its next `Sched`, and that one's engine replays
/// them. On 2 x 2, each rank posts a 64-byte broadcast from rank 1 of node
/// 1 to rank 1 of every node on one `Sched`, drops it, and posts a second
/// on a fresh one. Node 0's member waits 300 ms before it completes the
/// first, so node 0's old engine is still draining the link when node 1's
/// second broadcast arrives, and parks it.
#[test]
fn chunks_a_dropped_sched_parked_reach_the_next_one() {
    let (got, parked) = within(20, || {
        let cluster = Cluster::new(2, 2);
        let got = cluster.run(|cctx| {
            let at = (cctx.node(), cctx.rank());
            let bufs = [(); 2].map(|_| Arc::new(SharedRegion::new(64)));
            if at == (1, 1) {
                for (seed, b) in bufs.iter().enumerate() {
                    // SAFETY: our buffer, before any post.
                    unsafe { b.write(0, &payload(seed, 64)) };
                }
            }
            let mine = |b| (at.1 == 1).then_some(b);
            {
                let mut sched = Sched::new(cctx);
                let req = sched.ibcast(&[1], 1, 1, mine(&bufs[0]), 64).unwrap();
                if at == (0, 1) {
                    std::thread::sleep(std::time::Duration::from_millis(300));
                }
                sched.wait(req);
            }
            let mut sched = Sched::new(cctx);
            let req = sched.ibcast(&[1], 1, 1, mine(&bufs[1]), 64).unwrap();
            sched.wait(req);
            // SAFETY: both requests completed.
            bufs.map(|b| unsafe { b.snapshot() })
        });
        (got, cluster.stats().stash_parked)
    });
    assert!(parked > 0, "nothing was parked: the test proved nothing");
    let sent = [payload(0, 64), payload(1, 64)];
    for (node, ranks) in got.iter().enumerate() {
        assert_eq!(ranks[1], sent, "node {node}");
    }
}
