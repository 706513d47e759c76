//! Integration tests of the real-thread multi-node cluster runtime: the
//! §V-A/V-B integrated broadcast and the §V-C multi-color ring allreduce,
//! checked byte-for-byte against the single-node reference, plus the
//! persistence and overlap properties the runtime exists for.

use std::sync::Arc;

use bgp_collectives::shmem::testing::stress_iters;
use bgp_collectives::shmem::SharedRegion;
use bgp_collectives::smp::collectives::{read_f64s, write_f64s};
use bgp_collectives::smp::{Cluster, ClusterCtx};

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// Broadcast `len` bytes from rank 0 of `root_node` across the cluster and
/// assert every rank of every node holds the exact payload.
fn check_cluster_bcast(cluster: &Cluster, root_node: usize, len: usize) {
    let out = cluster.run(move |cctx: &mut ClusterCtx| {
        let buf = cctx.intra().alloc_buffer(len.max(1));
        if cctx.node() == root_node && cctx.rank() == 0 {
            unsafe { buf.write(0, &pattern(len, 0x41)) };
        }
        cctx.intra().barrier();
        cctx.bcast(root_node, &buf, len);
        unsafe { buf.snapshot() }
    });
    let expect = pattern(len, 0x41);
    for (node, ranks) in out.iter().enumerate() {
        for (rank, snap) in ranks.iter().enumerate() {
            assert_eq!(
                &snap[..len],
                &expect[..],
                "node {node} rank {rank} (root_node={root_node}, len={len})"
            );
        }
    }
}

#[test]
fn bcast_matches_reference_across_sizes_2x4() {
    // The acceptance shape: 2 nodes × 4 ranks, 1 B .. 1 MB.
    let cluster = Cluster::new(2, 4);
    let chunk = 16 * 1024;
    for len in [
        0usize,
        1,
        3,
        chunk - 1,
        chunk,
        chunk + 1,
        65_537,
        stress_iters(1 << 20),
    ] {
        check_cluster_bcast(&cluster, 0, len);
    }
    check_cluster_bcast(&cluster, 1, 100_000);
}

#[test]
fn bcast_covers_many_shapes_and_roots() {
    for (m, n) in [
        (1usize, 1usize),
        (1, 4),
        (2, 1),
        (3, 1),
        (4, 1),
        (2, 2),
        (3, 4),
        (4, 2),
    ] {
        let cluster = Cluster::with_geometry(m, n, 4096, 4);
        for root_node in [0, m - 1] {
            for len in [0usize, 1, 4095, 4097, 40_000] {
                check_cluster_bcast(&cluster, root_node, len);
            }
        }
    }
}

#[test]
fn allreduce_matches_single_node_reference_2x4() {
    // 2 nodes × 4 ranks must be byte-identical to one node of 8 ranks fed
    // the same per-global-rank inputs. Integer-valued doubles make the sum
    // order-insensitive, so "byte-identical" is meaningful.
    let vals_for = |g: usize, count: usize| -> Vec<f64> {
        (0..count)
            .map(|i| ((i * 7 + g * 13) % 1000) as f64)
            .collect()
    };
    for count in [0usize, 1, 5, 2047, 2048, 2049, stress_iters(150_000)] {
        let reference: Vec<Vec<u8>> = Cluster::new(1, 8)
            .run(move |c| {
                let ctx = c.intra();
                let input = ctx.alloc_buffer((count * 8).max(1));
                let output = ctx.alloc_buffer((count * 8).max(1));
                write_f64s(&input, 0, &vals_for(ctx.rank(), count));
                ctx.barrier();
                ctx.allreduce_f64(&input, &output, count);
                unsafe { output.snapshot() }
            })
            .remove(0);

        let cluster = Cluster::new(2, 4);
        let out = cluster.run(move |cctx: &mut ClusterCtx| {
            let input = cctx.intra().alloc_buffer((count * 8).max(1));
            let output = cctx.intra().alloc_buffer((count * 8).max(1));
            write_f64s(&input, 0, &vals_for(cctx.global_rank(), count));
            cctx.intra().barrier();
            cctx.allreduce_f64(&input, &output, count);
            unsafe { output.snapshot() }
        });
        for (node, ranks) in out.iter().enumerate() {
            for (rank, snap) in ranks.iter().enumerate() {
                assert_eq!(
                    &snap[..count * 8],
                    &reference[0][..count * 8],
                    "node {node} rank {rank} diverges from reference (count={count})"
                );
            }
        }
    }
}

#[test]
fn allreduce_covers_many_shapes() {
    for (m, n) in [
        (1usize, 1usize),
        (1, 4),
        (2, 1),
        (3, 1),
        (4, 1),
        (2, 2),
        (3, 4),
        (4, 2),
    ] {
        let cluster = Cluster::with_geometry(m, n, 1024, 2);
        let world = m * n;
        for count in [0usize, 1, 127, 128, 129, 5000] {
            let out = cluster.run(move |cctx: &mut ClusterCtx| {
                let input = cctx.intra().alloc_buffer((count * 8).max(1));
                let output = cctx.intra().alloc_buffer((count * 8).max(1));
                let g = cctx.global_rank() as f64;
                let vals: Vec<f64> = (0..count).map(|i| i as f64 + g).collect();
                write_f64s(&input, 0, &vals);
                cctx.intra().barrier();
                cctx.allreduce_f64(&input, &output, count);
                read_f64s(&output, 0, count)
            });
            for ranks in &out {
                for got in ranks {
                    for (i, &gv) in got.iter().enumerate() {
                        let e = world as f64 * i as f64 + (world * (world - 1) / 2) as f64;
                        assert_eq!(gv, e, "m={m} n={n} count={count} elem {i}");
                    }
                }
            }
        }
    }
}

#[test]
fn bcast_overlaps_reception_with_copyout() {
    // The §V-B probe: with many small network chunks on a node with
    // dedicated copy-out cores, some copy-out must begin before the last
    // chunk has been received. Aggregate over several operations so a
    // single unlucky scheduling order cannot fail the test.
    let cluster = Cluster::with_geometry(2, 4, 512, 2);
    let len = 512 * 128; // 128 network chunks per broadcast
    for _ in 0..10 {
        check_cluster_bcast(&cluster, 0, len);
    }
    let stats = cluster.stats();
    assert_eq!(stats.bcast_recv_ops, 10, "one reception per non-root node");
    assert!(
        stats.copyout_overlapped > 0,
        "no copy-out ever started before reception finished \
         (10 ops x 128 chunks); the pipeline is not overlapping"
    );
    // Blocking collectives never touch the scheduler stash.
    assert_eq!(stats.stash_parked, 0);
    assert_eq!(stats.stash_evicted_chunks, 0);
}

#[test]
fn persistent_cluster_reuses_state_across_mixed_ops() {
    // One cluster, a train of mixed cluster and intra-node collectives;
    // counters/channels/windows must rearm correctly every time.
    let cluster = Cluster::with_geometry(2, 3, 2048, 4);
    let len = 9000usize;
    let count = 700usize;
    let out = cluster.run(move |cctx: &mut ClusterCtx| {
        let buf = cctx.intra().alloc_buffer(len);
        let input = cctx.intra().alloc_buffer(count * 8);
        let output = cctx.intra().alloc_buffer(count * 8);
        let mut ok = true;
        for round in 0..10usize {
            let root_node = round % 2;
            let salt = round as u8;
            if cctx.node() == root_node && cctx.rank() == 0 {
                unsafe { buf.write(0, &pattern(len, salt)) };
            }
            cctx.intra().barrier();
            cctx.bcast(root_node, &buf, len);
            ok &= unsafe { buf.snapshot() } == pattern(len, salt);

            write_f64s(&input, 0, &vec![(round + 1) as f64; count]);
            cctx.intra().barrier();
            cctx.allreduce_f64(&input, &output, count);
            ok &= read_f64s(&output, 0, count)
                .iter()
                .all(|&v| v == 6.0 * (round + 1) as f64);

            // An intra-node collective interleaved with the cluster ops:
            // both counter disciplines coexist on the same node.
            let n = cctx.n_ranks();
            let small: Arc<SharedRegion> = cctx.intra().alloc_buffer(1024);
            if cctx.rank() == n - 1 {
                unsafe { small.write(0, &pattern(1024, salt ^ 0x7f)) };
            }
            cctx.intra().barrier();
            cctx.intra().bcast_shaddr(n - 1, &small, 1024, 256);
            ok &= unsafe { small.snapshot() } == pattern(1024, salt ^ 0x7f);
        }
        ok
    });
    assert!(out.iter().flatten().all(|&ok| ok));
}

#[test]
fn back_to_back_node_allreduce_needs_no_barrier_between_ops() {
    // Regression: `proc::node_allreduce_f64` used to be a hand copy of the
    // flat ring engine without its bound on how many chunks one op may
    // consume, so with three nodes and no barrier between operations a
    // fast node's next-op partial was taken for this op's (debug: "partials
    // must arrive in order"; release: a hang). `ProcCluster` only escaped
    // because its job handshake happens to serialise ops. The single-rank
    // runner is now the shared engine; every iteration must match a serial
    // fold in ring order, bit for bit, well inside the deadline.
    use bgp_collectives::smp::kernels::add_bytes_assign;
    use bgp_collectives::smp::proc::{allreduce_input, node_allreduce_f64};
    use bgp_collectives::smp::transport::Fabric;
    use std::sync::mpsc;
    use std::time::Duration;

    let iters = stress_iters(4_000).max(1_000);
    for m in [2usize, 3] {
        // 64-byte chunks, window 4: one chunk, then more chunks than slots.
        for count in [8usize, 40] {
            let fabric = Arc::new(Fabric::new(m, 64, 4));
            let (done_tx, done_rx) = mpsc::channel();
            for v in 0..m {
                let (fabric, done_tx) = (fabric.clone(), done_tx.clone());
                std::thread::spawn(move || {
                    for i in 0..iters as u64 {
                        let mut want = allreduce_input(i, 0, count);
                        for u in 1..m {
                            add_bytes_assign(&mut want, &allreduce_input(i, u, count));
                        }
                        let mut data = allreduce_input(i, v, count);
                        node_allreduce_f64(&fabric, v, &mut data);
                        assert_eq!(data, want, "m={m} count={count} node {v} op {i}");
                    }
                    let _ = done_tx.send(v);
                });
            }
            drop(done_tx);
            for _ in 0..m {
                // A node that panicked drops its sender and strands its
                // neighbours: both show up here as a missing completion.
                done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("m={m} count={count}: a node never finished ({e})"));
            }
        }
    }
}
