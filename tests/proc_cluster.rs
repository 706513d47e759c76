//! End-to-end tests of the cross-process backend: a real `ProcCluster`
//! forks worker processes (re-execs of this very test binary — see the
//! `maybe_worker` call at the top of `main`) over one mmap'd segment and
//! runs the broadcast and ring-allreduce protocols, byte-compared against
//! the in-process thread cluster.
//!
//! `harness = false`: the standard test harness would not give us a `main`
//! to intercept before libtest forks its own threads, and a worker re-exec
//! must never start running tests.

use bgp_collectives::shmem::testing::stress_iters;
use bgp_collectives::smp::collectives::write_f64s;
use bgp_collectives::smp::proc::{
    allreduce_input, bcast_pattern, maybe_worker, ProcCluster, ProcError,
};
use bgp_collectives::smp::{Cluster, ClusterCtx};

const CHUNK: usize = 4096;
const WINDOW: usize = 4;

fn one_rank_cluster_round_trips() {
    let mut c = ProcCluster::new(1, 512, 4, 1 << 12).expect("1-rank segment");
    let out = c.bcast(0, 7, 100).expect("bcast");
    assert_eq!(out, vec![bcast_pattern(7, 100)]);
    let out = c.allreduce(7, 16).expect("allreduce");
    assert_eq!(out, vec![allreduce_input(7, 0, 16)]);
    c.shutdown().expect("shutdown");
}

fn zero_length_ops_never_touch_the_links() {
    let mut c = ProcCluster::new(2, CHUNK, WINDOW, 1 << 12).expect("cluster");
    let out = c.bcast(0, 1, 0).expect("empty bcast");
    assert!(out.iter().all(|r| r.is_empty()));
    let out = c.allreduce(1, 0).expect("empty allreduce");
    assert!(out.iter().all(|r| r.is_empty()));
    assert_eq!(
        c.fabric().total_chunks_sent(),
        0,
        "zero-length collectives must not move a single chunk"
    );
    c.shutdown().expect("shutdown");
}

fn bcast_matches_the_pattern_across_sizes_and_roots() {
    let max = stress_iters(1 << 20).max(70_000);
    let mut c = ProcCluster::new(3, CHUNK, WINDOW, max).expect("cluster");
    for root in [0usize, 2] {
        for len in [1usize, 7, CHUNK - 1, CHUNK + 1, 65_536, max] {
            let seed = (root * 1000 + len) as u64;
            let out = c.bcast(root, seed, len).expect("bcast");
            let expect = bcast_pattern(seed, len);
            for (v, got) in out.iter().enumerate() {
                assert_eq!(got, &expect, "node {v} (root={root}, len={len})");
            }
        }
    }
    c.shutdown().expect("shutdown");
}

/// The thread cluster's allreduce of the same seeded inputs: per node, per
/// rank, the output buffer's bytes (at least `count * 8` of them).
fn thread_allreduce(threads: &Cluster, seed: u64, count: usize) -> Vec<Vec<Vec<u8>>> {
    threads.run(move |cctx: &mut ClusterCtx| {
        let input = cctx.intra().alloc_buffer((count * 8).max(1));
        let output = cctx.intra().alloc_buffer((count * 8).max(1));
        let bytes = allreduce_input(seed, cctx.node(), count);
        let vals: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        write_f64s(&input, 0, &vals);
        cctx.intra().barrier();
        cctx.allreduce_f64(&input, &output, count);
        unsafe { output.snapshot() }
    })
}

/// The acceptance bar: the forked multi-process allreduce must be
/// *bitwise* identical to the in-process thread cluster of the same
/// geometry fed the same inputs — both run the same kernel calls in the
/// same hop order, so f64 rounding cannot diverge.
fn allreduce_is_bitwise_identical_to_the_thread_cluster() {
    let counts = [1usize, 127, 2048, stress_iters(1 << 17) / 8];
    let max = counts.iter().max().unwrap() * 8;
    for m in [2usize, 3, 4] {
        let mut c = ProcCluster::new(m, CHUNK, WINDOW, max).expect("cluster");
        let threads = Cluster::with_geometry(m, 1, CHUNK, WINDOW);
        for count in counts {
            let seed = (m * 100 + count) as u64;
            let got = c.allreduce(seed, count).expect("proc allreduce");

            let reference = thread_allreduce(&threads, seed, count);

            for (v, got_v) in got.iter().enumerate() {
                assert_eq!(
                    &got_v[..count * 8],
                    &reference[v][0][..count * 8],
                    "process backend diverges from thread backend \
                     (m={m}, count={count}, node={v})"
                );
            }
        }
        c.shutdown().expect("shutdown");
    }
}

/// Every node's operand is a fixed region (or, on node 0, a fresh `Vec`)
/// that collectives run in place: after an op that fills the regions to
/// `max_msg`, shorter ops of both kinds must return exactly `len` bytes
/// of their own data. Three nodes give a multi-port root (0) and a relay
/// (node 0 under roots 1 and 2).
fn short_ops_after_a_full_region_never_leak_stale_bytes() {
    let max = 3 * CHUNK + 8;
    let mut c = ProcCluster::new(3, CHUNK, WINDOW, max).expect("cluster");
    let threads = Cluster::with_geometry(3, 1, CHUNK, WINDOW);
    let mut seed = 900u64;
    for fill_root in [1usize, 2] {
        let out = c.bcast(fill_root, seed, max).expect("full bcast");
        assert_eq!(out, vec![bcast_pattern(seed, max); 3]);
        for len in [1usize, CHUNK - 1, CHUNK + 1, 0] {
            for root in [0usize, 1, 2] {
                seed += 1;
                let out = c.bcast(root, seed, len).expect("short bcast");
                assert_eq!(
                    out,
                    vec![bcast_pattern(seed, len); 3],
                    "bcast root={root} len={len}"
                );
            }
        }
        seed += 1;
        let out = c.allreduce(seed, max / 8).expect("full allreduce");
        assert!(out.iter().all(|r| r.len() == max));
        for count in [1usize, CHUNK / 8 - 1, CHUNK / 8 + 1, 0] {
            seed += 1;
            let out = c.allreduce(seed, count).expect("short allreduce");
            let reference = thread_allreduce(&threads, seed, count);
            for (v, got) in out.iter().enumerate() {
                assert_eq!(
                    got[..],
                    reference[v][0][..count * 8],
                    "allreduce count={count} node={v}"
                );
            }
        }
    }
    c.shutdown().expect("shutdown");
}

/// Misuse is refused before anything is published — no job, no chunk —
/// and the cluster keeps working.
fn misuse_is_a_typed_error_and_the_cluster_stays_usable() {
    let max = 1 << 12;
    let mut c = ProcCluster::new(2, CHUNK, WINDOW, max).expect("cluster");
    match c.bcast(0, 1, max + 1) {
        Err(ProcError::MessageTooLarge { len, max: m }) => assert_eq!((len, m), (max + 1, max)),
        other => panic!("expected MessageTooLarge, got {other:?}"),
    }
    for count in [max / 8 + 1, usize::MAX] {
        match c.allreduce(1, count) {
            Err(ProcError::MessageTooLarge { max: m, .. }) => assert_eq!(m, max),
            other => panic!("expected MessageTooLarge, got {other:?}"),
        }
    }
    match c.bcast(2, 1, 8) {
        Err(ProcError::BadRoot { root: 2, nodes: 2 }) => {}
        other => panic!("expected BadRoot, got {other:?}"),
    }
    assert_eq!(c.fabric().total_chunks_sent(), 0, "a refused op moved data");
    let out = c.bcast(1, 5, max).expect("bcast after misuse");
    assert_eq!(out, vec![bcast_pattern(5, max); 2]);
    let out = c.allreduce(5, 0).expect("allreduce after misuse");
    assert!(out.iter().all(|r| r.is_empty()));
    c.shutdown().expect("shutdown");
}

fn worker_crash_is_a_typed_error_not_a_hang() {
    let mut c = ProcCluster::new(2, CHUNK, WINDOW, 1 << 12).expect("cluster");
    match c.inject_crash(1) {
        Err(ProcError::WorkerCrashed { node: 1, .. }) => {}
        other => panic!("expected WorkerCrashed for node 1, got {other:?}"),
    }
    // The segment is poisoned: every later collective refuses cleanly.
    match c.bcast(0, 1, 64) {
        Err(ProcError::Poisoned { code }) => assert_ne!(code, 0),
        other => panic!("expected Poisoned after a crash, got {other:?}"),
    }
}

fn main() {
    // A worker re-exec serves collectives and exits inside this call; only
    // the parent (the actual test run) continues past it.
    maybe_worker();

    let tests: &[(&str, fn())] = &[
        ("one_rank_cluster_round_trips", one_rank_cluster_round_trips),
        (
            "zero_length_ops_never_touch_the_links",
            zero_length_ops_never_touch_the_links,
        ),
        (
            "bcast_matches_the_pattern_across_sizes_and_roots",
            bcast_matches_the_pattern_across_sizes_and_roots,
        ),
        (
            "allreduce_is_bitwise_identical_to_the_thread_cluster",
            allreduce_is_bitwise_identical_to_the_thread_cluster,
        ),
        (
            "short_ops_after_a_full_region_never_leak_stale_bytes",
            short_ops_after_a_full_region_never_leak_stale_bytes,
        ),
        (
            "misuse_is_a_typed_error_and_the_cluster_stays_usable",
            misuse_is_a_typed_error_and_the_cluster_stays_usable,
        ),
        (
            "worker_crash_is_a_typed_error_not_a_hang",
            worker_crash_is_a_typed_error_not_a_hang,
        ),
    ];
    for (name, f) in tests {
        print!("test {name} ... ");
        f();
        println!("ok");
    }
    println!("proc_cluster: {} tests passed", tests.len());
}
