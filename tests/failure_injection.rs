//! Failure-injection and edge-condition tests: tiny FIFOs, window denial,
//! degenerate machines, and misuse that must be caught loudly.

use std::sync::Arc;

use bgp_collectives::dcmf::Machine;
use bgp_collectives::machine::cnk::{WindowCache, WindowConfig};
use bgp_collectives::machine::geometry::{Dims, NodeId};
use bgp_collectives::machine::{MachineConfig, OpMode};
use bgp_collectives::mpi::bcast_torus::torus_shaddr;
use bgp_collectives::mpi::{BcastAlgorithm, Mpi};
use bgp_collectives::shmem::{BcastFifo, PtpFifo, SharedRegion, WindowRegistry};
use bgp_collectives::smp::Cluster;

#[test]
fn minimum_capacity_bcast_fifo_under_three_consumers() {
    // The tightest legal FIFO (capacity 2 — capacity 1 is rejected because
    // its publish/free tags collide): every slot must fully retire one
    // cycle later. No loss, no deadlock.
    let (fifo, mut consumers) = BcastFifo::with_consumers(2, 3);
    std::thread::scope(|s| {
        s.spawn(|| {
            for i in 0..500u64 {
                fifo.enqueue(i);
            }
        });
        for c in consumers.iter_mut() {
            s.spawn(move || {
                for i in 0..500u64 {
                    assert_eq!(c.recv(), i);
                }
            });
        }
    });
}

#[test]
fn ptp_fifo_survives_pathological_producer_burst() {
    let q = Arc::new(PtpFifo::new(2));
    let producers: Vec<_> = (0..4)
        .map(|p| {
            let q = q.clone();
            std::thread::spawn(move || {
                for i in 0..250u64 {
                    q.enqueue(p * 1000 + i);
                }
            })
        })
        .collect();
    let mut got = 0;
    while got < 1000 {
        if q.try_dequeue().is_some() {
            got += 1;
        } else {
            std::thread::yield_now();
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    assert!(q.is_empty());
}

#[test]
fn window_map_denial_is_reported_not_hidden() {
    // Mapping a buffer that was never exposed returns None — the caller
    // must fall back (e.g. to the staged shmem path) rather than crash.
    let reg = WindowRegistry::new();
    assert!(reg.map(3, 42, false).is_none());
    // After exposure it succeeds.
    reg.expose(3, 42, Arc::new(SharedRegion::new(8)));
    assert!(reg.map(3, 42, false).is_some());
}

#[test]
fn tlb_slot_exhaustion_forces_remapping_costs() {
    // Quad mode has exactly one window slot per peer. Alternating between
    // two far-apart buffers of one peer must miss every time — the
    // situation the paper's caching cannot help with.
    let cfg = WindowConfig::default();
    let mut cache = WindowCache::new();
    let a = 0u64;
    let b = 512 << 20; // beyond any slot span
    let mut misses = 0;
    for _ in 0..10 {
        if !cache.map(&cfg, 1, a, 4096, true).cached {
            misses += 1;
        }
        if !cache.map(&cfg, 1, b, 4096, true).cached {
            misses += 1;
        }
    }
    assert_eq!(misses, 20, "alternating buffers must thrash the slot");
}

#[test]
fn degenerate_machines_still_work() {
    // 1x1x1 "machine": no network at all; collectives degrade to
    // intra-node work.
    let mut cfg = MachineConfig::test_small(OpMode::Quad);
    cfg.dims = Dims::new(1, 1, 1);
    let mut m = Machine::new(cfg);
    let out = torus_shaddr(&mut m, NodeId(0), 100_000);
    assert_eq!(out.delivered, vec![100_000]);

    // 2x1x1: the smallest machine with a link.
    let mut cfg = MachineConfig::test_small(OpMode::Quad);
    cfg.dims = Dims::new(2, 1, 1);
    let mut m = Machine::new(cfg);
    let out = torus_shaddr(&mut m, NodeId(0), 100_000);
    assert_eq!(out.delivered, vec![100_000, 100_000]);
}

#[test]
fn zero_byte_collectives_are_latency_only() {
    let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Quad));
    let t_zero = mpi.bcast(BcastAlgorithm::TreeShmem, 0);
    let t_small = mpi.bcast(BcastAlgorithm::TreeShmem, 1024);
    assert!(t_zero > bgp_collectives::sim::SimTime::ZERO);
    assert!(t_zero <= t_small);
}

#[test]
fn threaded_bcast_with_two_ranks_only() {
    // Quad is the paper's mode, but the code must not bake in "3 peers".
    let results = Cluster::new(1, 2).run(|c| {
        let ctx = c.intra();
        let buf = ctx.alloc_buffer(10_000);
        if ctx.rank() == 0 {
            unsafe { buf.write(0, &[0xAB; 10_000]) };
        }
        ctx.barrier();
        ctx.bcast_shaddr(0, &buf, 10_000, 4096);
        unsafe { buf.snapshot() }
    });
    assert!(results[0].iter().all(|r| r.iter().all(|&b| b == 0xAB)));
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn oversized_broadcast_is_rejected() {
    // The undersized-buffer assertion fires inside a rank thread; the
    // runtime surfaces it as a panic on join.
    Cluster::new(1, 2).run(|c| {
        let ctx = c.intra();
        let buf = ctx.alloc_buffer(16);
        ctx.bcast_shmem(0, &buf, 1024);
    });
}

#[test]
fn smp_mode_quad_algorithms_degrade_to_no_peers() {
    // Running a quad-mode algorithm on an SMP machine must work (zero
    // peers, no intra-node stage), not panic.
    let mut mpi = Mpi::new(MachineConfig::test_small(OpMode::Smp));
    let t = mpi.bcast(BcastAlgorithm::TorusShaddr, 1 << 20);
    assert!(t > bgp_collectives::sim::SimTime::ZERO);
}
