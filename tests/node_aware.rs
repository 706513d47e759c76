//! Cross-runtime acceptance matrix for the node-aware collective family.
//!
//! Three runtimes answer the same questions and must agree:
//!
//! * the **single-node SMP runtime** (a 1×G cluster) is the byte-exact
//!   reference — no inter-node fabric at all;
//! * the **thread-cluster flat ring** (`allreduce_f64`, §V-C) is the
//!   pre-PR baseline;
//! * the **node-aware family** (`allreduce_f64_node_aware`, the fused
//!   hybrid, `reduce_scatter_f64`, `allgather`, `alltoall`) is the new
//!   path, which must be byte-identical for order-insensitive inputs while
//!   sending strictly fewer inter-node chunks;
//! * the **simulator** (`bgp_mpi`) models the same decomposition; its
//!   tuned selection must order the algorithms the same way the models do.
//!
//! Shapes cover 2–4 nodes; sizes cover 1 B (allgather/alltoall blocks) to
//! 1 MiB (allreduce payload, scaled by `stress_iters` on small hosts).

use bgp_collectives::shmem::testing::stress_iters;
use bgp_collectives::smp::collectives::{read_f64s, write_f64s};
use bgp_collectives::smp::wire::{
    plan_allgather, plan_allreduce, plan_alltoall, plan_reduce_scatter, RingPlan,
};
use bgp_collectives::smp::{Cluster, ClusterCtx};

/// Integer-valued per-global-rank inputs: f64 summation over them is
/// order-insensitive, so "byte-identical across schedules" is meaningful.
fn vals_for(g: usize, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((i * 7 + g * 3) % 1000) as f64)
        .collect()
}

/// The fabric's cumulative chunk counter (cluster-global, read via any
/// rank's context).
fn chunks_sent(cluster: &Cluster) -> usize {
    cluster.run(|cctx: &mut ClusterCtx| cctx.fabric().total_chunks_sent())[0][0]
}

/// Run `op` and return its result with the number of chunks it put on the
/// fabric.
fn counting<R>(cluster: &Cluster, op: impl FnOnce() -> R) -> (R, usize) {
    let before = chunks_sent(cluster);
    let out = op();
    (out, chunks_sent(cluster) - before)
}

/// Inter-node chunk sends a collective plans, summed over its `m` nodes.
/// The planners run without a fabric, so what a collective *will* send is
/// known exactly — the probe below is an identity, not a spot check.
fn planned(m: usize, plan: impl Fn(usize) -> RingPlan) -> usize {
    (0..m).map(|v| plan(v).n_sends()).sum()
}

/// Node `w`'s `(byte offset, byte length)` in a reduce-scatter of `count`
/// doubles: the union of its ranks' scatter spans.
fn scatter_segs(m: usize, n: usize, count: usize) -> Vec<(usize, usize)> {
    let lo = |w: usize| w * n * count / (m * n);
    (0..m)
        .map(|w| (lo(w) * 8, (lo(w + 1) - lo(w)) * 8))
        .collect()
}

/// `reduce_scatter_f64` on every rank; returns `(span start, output)`.
fn run_reduce_scatter(cluster: &Cluster, count: usize) -> Vec<Vec<(usize, Vec<f64>)>> {
    cluster.run(move |cctx: &mut ClusterCtx| {
        let g = cctx.global_rank();
        let input = cctx.intra().alloc_buffer((count * 8).max(1));
        let (lo, hi) = cctx.scatter_span(count);
        let output = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
        write_f64s(&input, 0, &vals_for(g, count));
        cctx.intra().barrier();
        cctx.reduce_scatter_f64(&input, &output, count);
        (lo, read_f64s(&output, 0, hi - lo))
    })
}

/// `allgather` of `len` bytes of `g + 1` per global rank `g`.
fn run_allgather(cluster: &Cluster, len: usize) -> Vec<Vec<Vec<u8>>> {
    let world = cluster.n_nodes() * cluster.n_ranks();
    cluster.run(move |cctx: &mut ClusterCtx| {
        let g = cctx.global_rank();
        let input = cctx.intra().alloc_buffer(len.max(1));
        let output = cctx.intra().alloc_buffer((world * len).max(1));
        // SAFETY: our buffer, before the collective.
        unsafe { input.write(0, &vec![g as u8 + 1; len]) };
        cctx.intra().barrier();
        cctx.allgather(&input, &output, len);
        // SAFETY: the collective completed.
        let mut all = unsafe { output.snapshot() };
        all.truncate(world * len);
        all
    })
}

/// Run one allreduce variant on every rank; returns `[node][rank]` outputs.
fn run_allreduce(cluster: &Cluster, count: usize, which: usize) -> Vec<Vec<Vec<f64>>> {
    cluster.run(move |cctx: &mut ClusterCtx| {
        let g = cctx.global_rank();
        let input = cctx.intra().alloc_buffer((count * 8).max(1));
        let output = cctx.intra().alloc_buffer((count * 8).max(1));
        write_f64s(&input, 0, &vals_for(g, count));
        cctx.intra().barrier();
        match which {
            0 => cctx.allreduce_f64(&input, &output, count),
            1 => cctx.allreduce_f64_node_aware(&input, &output, count),
            _ => cctx.allreduce_f64_node_aware_fused(&input, &output, count),
        }
        read_f64s(&output, 0, count)
    })
}

#[test]
fn allreduce_matrix_flat_node_aware_fused_and_reference_agree() {
    // The reference: all G ranks on one node — no fabric, pure shared
    // memory. Every multi-node schedule must reproduce its bytes exactly.
    for (m, n) in [(2usize, 4usize), (3, 2), (4, 2)] {
        let world = m * n;
        let reference = Cluster::with_geometry(1, world, 16 * 1024, 4);
        let cluster = Cluster::with_geometry(m, n, 16 * 1024, 4);
        for count in [1usize, 2047, 2048, 2049, stress_iters(131_072)] {
            let want = run_allreduce(&reference, count, 0);
            let flat = run_allreduce(&cluster, count, 0);
            let na = run_allreduce(&cluster, count, 1);
            let fused = run_allreduce(&cluster, count, 2);
            let expect = &want[0][0];
            for out in [&flat, &na, &fused] {
                for ranks in out.iter() {
                    for got in ranks {
                        assert_eq!(
                            got, expect,
                            "({m},{n}) count={count}: multi-node output differs from reference"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn node_aware_sends_fewer_inter_node_chunks_than_flat() {
    // The acceptance probe at 2, 3 and 4 quad-core nodes: same results,
    // strictly fewer chunks on the fabric. The flat multi-color ring
    // rounds each of the n color spans up to the chunk grid separately,
    // so its waste scales with ranks-per-node; node-aware chunks the
    // global buffer once (at n = 2 the two schedules tie — the win is a
    // quad-mode property, matching the paper's SMP geometry).
    for (m, n) in [(2usize, 4usize), (3, 4), (4, 4)] {
        let chunk = 16 * 1024;
        let cluster = Cluster::with_geometry(m, n, chunk, 2);
        let count = 8192; // 64 KiB payload => kt = 4 chunks
        let (flat_out, flat) = counting(&cluster, || run_allreduce(&cluster, count, 0));
        let (na_out, na) = counting(&cluster, || run_allreduce(&cluster, count, 1));
        assert_eq!(flat_out, na_out, "({m},{n}): results must match");
        // Every node-aware collective sends exactly what its plan lists.
        assert_eq!(
            na,
            planned(m, |v| plan_allreduce(m, v, count * 8, chunk)),
            "({m},{n})"
        );
        let (_, fused) = counting(&cluster, || run_allreduce(&cluster, count, 2));
        assert_eq!(fused, na, "({m},{n}): fusion must not change the traffic");
        let (_, rs) = counting(&cluster, || run_reduce_scatter(&cluster, count));
        let segs = scatter_segs(m, n, count);
        assert_eq!(
            rs,
            planned(m, |v| plan_reduce_scatter(v, &segs, chunk)),
            "({m},{n})"
        );
        let (_, ag) = counting(&cluster, || run_allgather(&cluster, count));
        assert_eq!(
            ag,
            planned(m, |v| plan_allgather(m, v, n * count, chunk)),
            "({m},{n})"
        );
        assert!(
            na < flat,
            "({m},{n}): node-aware sent {na} chunks, flat sent {flat}"
        );
        // Two ring stages (RS + AG); per stage each of the m nodes sends
        // one kt/m-chunk segment in each of its m-1 steps (exact when the
        // chunk grid divides evenly across nodes).
        let kt = 4usize;
        if kt.is_multiple_of(m) {
            assert_eq!(na, 2 * m * (m - 1) * (kt / m), "({m},{n})");
        }
    }
}

#[test]
fn reduce_scatter_then_allgather_equals_allreduce() {
    // The defining identity of the decomposition, on the real runtime:
    // allgather over the scatter spans reassembles the allreduce result.
    let (m, n) = (2usize, 4usize);
    let world = m * n;
    let cluster = Cluster::with_geometry(m, n, 4096, 4);
    for count in [world, 8 * world, stress_iters(8192) / world * world] {
        let composed = cluster.run(move |cctx: &mut ClusterCtx| {
            let g = cctx.global_rank();
            let input = cctx.intra().alloc_buffer(count * 8);
            let (lo, hi) = cctx.scatter_span(count);
            let slice = cctx.intra().alloc_buffer(((hi - lo) * 8).max(1));
            let gathered = cctx.intra().alloc_buffer(count * 8);
            write_f64s(&input, 0, &vals_for(g, count));
            cctx.intra().barrier();
            cctx.reduce_scatter_f64(&input, &slice, count);
            // count is divisible by world, so every span has equal bytes
            // and the allgather reassembles them in global-rank order.
            cctx.allgather(&slice, &gathered, (hi - lo) * 8);
            read_f64s(&gathered, 0, count)
        });
        let direct = run_allreduce(&cluster, count, 1);
        let expect = &direct[0][0];
        for ranks in &composed {
            for got in ranks {
                assert_eq!(got, expect, "count={count}: RS∘AG != allreduce");
            }
        }
    }
}

/// `alltoall` of `len`-byte blocks, block `h` of rank `g`'s input being
/// bytes `[h*len, (h+1)*len)` of the stream `(g*131 + j) % 251`; asserts
/// every rank ends up with the block transpose.
fn alltoall_transposes(cluster: &Cluster, len: usize) {
    let (m, n) = (cluster.n_nodes(), cluster.n_ranks());
    let world = m * n;
    let out = cluster.run(move |cctx: &mut ClusterCtx| {
        let g = cctx.global_rank();
        let input = cctx.intra().alloc_buffer((world * len).max(1));
        let output = cctx.intra().alloc_buffer((world * len).max(1));
        // Block h of rank g's input is addressed to rank h.
        let bytes: Vec<u8> = (0..world * len)
            .map(|j| ((g * 131 + j) % 251) as u8)
            .collect();
        // SAFETY: our buffer, before the collective.
        unsafe { input.write(0, &bytes) };
        cctx.intra().barrier();
        cctx.alltoall(&input, &output, len);
        // SAFETY: the collective completed.
        let mut all = unsafe { output.snapshot() };
        all.truncate(world * len);
        all
    });
    for (node, ranks) in out.iter().enumerate() {
        for (rank, got) in ranks.iter().enumerate() {
            let g = node * n + rank;
            for h in 0..world {
                let want: Vec<u8> = (0..len)
                    .map(|j| ((h * 131 + (g * len + j)) % 251) as u8)
                    .collect();
                assert_eq!(
                    &got[h * len..(h + 1) * len],
                    &want[..],
                    "({m},{n}) len={len}: rank {g} block from {h}"
                );
            }
        }
    }
}

#[test]
fn alltoall_is_the_block_transpose() {
    for (m, n) in [(2usize, 2usize), (3, 2)] {
        let cluster = Cluster::with_geometry(m, n, 256, 2);
        for len in [1usize, 33, 300] {
            alltoall_transposes(&cluster, len);
        }
    }
}

#[test]
fn alltoall_sends_exactly_the_chunks_it_plans() {
    // `alltoall` is a `RingPlan` like the rest of the family, so its
    // traffic is an identity too. 64-byte chunks on the smallest links the
    // fabric allows (a window of 1 is refused: the cycle-tag protocol needs
    // two slots) keep every link full while payloads are still in transit
    // at 3 and 4 nodes — the shape the old relay queue existed for.
    for (m, n) in [(2usize, 2usize), (3, 2), (4, 1), (2, 4)] {
        for window in [2usize, 3] {
            let cluster = Cluster::with_geometry(m, n, 64, window);
            for len in [0usize, 1, 33, 300] {
                let ((), sent) = counting(&cluster, || alltoall_transposes(&cluster, len));
                assert_eq!(
                    sent,
                    planned(m, |v| plan_alltoall(m, v, n * n * len, 64)),
                    "({m},{n}) window={window} len={len}"
                );
            }
        }
    }
}

#[test]
fn degenerate_counts_terminate_and_stay_byte_identical() {
    // Satellite: count ∈ {0, 1, world-1} across every collective — most
    // scatter spans are empty, some nodes contribute no chunks, and every
    // schedule must still terminate with reference-identical bytes.
    for (m, n) in [(1usize, 1usize), (1, 4), (2, 1), (2, 4), (3, 2)] {
        let world = m * n;
        let cluster = Cluster::with_geometry(m, n, 64, 2);
        for count in [0usize, 1, world.saturating_sub(1)] {
            let flat = run_allreduce(&cluster, count, 0);
            let (na, na_sent) = counting(&cluster, || run_allreduce(&cluster, count, 1));
            let (fused, fused_sent) = counting(&cluster, || run_allreduce(&cluster, count, 2));
            assert_eq!(flat, na, "({m},{n}) count={count}");
            assert_eq!(flat, fused, "({m},{n}) count={count}");
            // Empty segments plan — and send — nothing.
            let want = planned(m, |v| plan_allreduce(m, v, count * 8, 64));
            assert_eq!(
                (na_sent, fused_sent),
                (want, want),
                "({m},{n}) count={count}"
            );
            let wf = world as f64;
            for (i, &v) in flat[0][0].iter().enumerate() {
                let want: f64 = (0..world).map(|g| ((i * 7 + g * 3) % 1000) as f64).sum();
                assert_eq!(v, want, "({m},{n}) count={count} elem {i} (world={wf})");
            }
            // Reduce-scatter: empty spans complete; occupied spans match.
            let (rs, rs_sent) = counting(&cluster, || run_reduce_scatter(&cluster, count));
            let segs = scatter_segs(m, n, count);
            assert_eq!(
                rs_sent,
                planned(m, |v| plan_reduce_scatter(v, &segs, 64)),
                "({m},{n}) count={count}"
            );
            for ranks in &rs {
                for (lo, got) in ranks {
                    for (j, &v) in got.iter().enumerate() {
                        assert_eq!(
                            v,
                            flat[0][0][lo + j],
                            "({m},{n}) count={count} scatter elem {}",
                            lo + j
                        );
                    }
                }
            }
        }
        // Allgather and alltoall degenerate block lengths.
        for len in [0usize, 1] {
            let (ag, ag_sent) = counting(&cluster, || run_allgather(&cluster, len));
            assert_eq!(
                ag_sent,
                planned(m, |v| plan_allgather(m, v, n * len, 64)),
                "({m},{n}) allgather len={len}"
            );
            let want: Vec<u8> = (0..world).flat_map(|g| vec![g as u8 + 1; len]).collect();
            for ranks in &ag {
                for got in ranks {
                    assert_eq!(got, &want, "({m},{n}) allgather len={len}");
                }
            }
            let a2a = cluster.run(move |cctx: &mut ClusterCtx| {
                let g = cctx.global_rank();
                let input = cctx.intra().alloc_buffer((world * len).max(1));
                let output = cctx.intra().alloc_buffer((world * len).max(1));
                // SAFETY: our buffer, before the collective.
                unsafe { input.write(0, &vec![g as u8 + 1; world * len]) };
                cctx.intra().barrier();
                cctx.alltoall(&input, &output, len);
                // SAFETY: the collective completed.
                let mut all = unsafe { output.snapshot() };
                all.truncate(world * len);
                all
            });
            let want: Vec<u8> = (0..world).flat_map(|h| vec![h as u8 + 1; len]).collect();
            for ranks in &a2a {
                for got in ranks {
                    assert_eq!(got, &want, "({m},{n}) alltoall len={len}");
                }
            }
        }
    }
}

#[test]
fn simulator_selection_orders_the_same_family() {
    // The fourth runtime of the matrix: the simulator's tuned table must
    // pick the shared-address ring for small allreduces and the node-aware
    // RS+AG once the per-stage syncs amortize — the same ordering the
    // thread cluster's chunk probe demonstrates structurally.
    use bgp_collectives::machine::{MachineConfig, OpMode};
    use bgp_collectives::mpi::{AllreduceAlgorithm, Mpi};

    let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
    let (small, _) = mpi.allreduce_auto(128); // 1 KiB
    let (large, _) = mpi.allreduce_auto(512 * 1024); // 4 MiB
    assert_eq!(small, AllreduceAlgorithm::ShaddrSpecialized);
    assert_eq!(large, AllreduceAlgorithm::NodeAwareRsAg);
    // And the models agree with the pick: node-aware is measurably faster
    // at the large point on the same machine.
    let na = mpi.allreduce(AllreduceAlgorithm::NodeAwareRsAg, 512 * 1024);
    let sh = mpi.allreduce(AllreduceAlgorithm::ShaddrSpecialized, 512 * 1024);
    let flat = mpi.allreduce(AllreduceAlgorithm::RingCurrent, 512 * 1024);
    assert!(na < sh, "na={na} sh={sh}");
    assert!(na < flat, "na={na} flat={flat}");
}
