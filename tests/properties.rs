//! Property-style tests across the stack.
//!
//! Invariants, not examples: randomized machine shapes, message sizes,
//! pipeline widths, and thread interleavings — driven by the deterministic
//! [`bgp_sim::Rng`] so every run checks the same inputs on every host.

use bgp_collectives::ccmi::{chunk_sizes, color_shares};
use bgp_collectives::dcmf::Machine;
use bgp_collectives::machine::geometry::{Coord, Dims, NodeId};
use bgp_collectives::machine::routing::{color_routes, coverage, nr_schedule};
use bgp_collectives::machine::{MachineConfig, OpMode};
use bgp_collectives::mpi::bcast_torus::torus_shaddr;
use bgp_collectives::mpi::select::{select_bcast, BcastAlgorithm};
use bgp_collectives::sim::Rng;
use bgp_collectives::smp::collectives::{read_f64s, write_f64s};
use bgp_collectives::smp::Cluster;

/// Message splitting never loses or duplicates a byte, whatever the total,
/// color count, or pipeline width.
#[test]
fn chunking_partitions_exactly() {
    let mut rng = Rng::new(0xC0FFEE);
    for _ in 0..32 {
        let total = rng.range_u64(0, 10_000_000);
        let colors = rng.range_usize(1, 8);
        let pwidth = rng.range_u64(1, 100_000);
        let shares = color_shares(total, colors);
        assert_eq!(
            shares.iter().sum::<u64>(),
            total,
            "total={total} colors={colors}"
        );
        let chunked: u64 = shares.iter().flat_map(|&s| chunk_sizes(s, pwidth)).sum();
        assert_eq!(
            chunked, total,
            "total={total} colors={colors} pwidth={pwidth}"
        );
    }
}

/// Every color of every torus shape covers every node exactly once from any
/// root (the no-loss/no-duplication invariant of the multi-color schedule).
#[test]
fn color_coverage_is_a_partition() {
    let mut rng = Rng::new(0xBEEF);
    for _ in 0..32 {
        let dims = Dims::new(
            rng.range_u32(1, 6),
            rng.range_u32(1, 6),
            rng.range_u32(1, 6),
        );
        let root = Coord::new(
            rng.range_u32(0, dims.x),
            rng.range_u32(0, dims.y),
            rng.range_u32(0, dims.z),
        );
        let wrap = rng.bool();
        for route in color_routes(dims, wrap) {
            let cov = coverage(dims, root, &route);
            assert_eq!(
                cov.len() as u32,
                dims.node_count(),
                "{dims:?} {root:?} wrap={wrap}"
            );
            let set: std::collections::HashSet<Coord> = cov.into_iter().collect();
            assert_eq!(
                set.len() as u32,
                dims.node_count(),
                "{dims:?} {root:?} wrap={wrap}"
            );
        }
    }
}

/// The neighbor-rooted schedule also reaches everyone, including a
/// redundant copy at the root, for arbitrary wrap-torus shapes.
#[test]
fn nr_schedule_reaches_everyone() {
    let mut rng = Rng::new(0xABCD);
    for _ in 0..32 {
        let dims = Dims::new(
            rng.range_u32(2, 6),
            rng.range_u32(2, 6),
            rng.range_u32(2, 6),
        );
        let root = Coord::new(
            rng.range_u32(0, dims.x),
            rng.range_u32(0, dims.y),
            rng.range_u32(0, dims.z),
        );
        for route in color_routes(dims, true) {
            let s = nr_schedule(dims, root, &route);
            let mut covered = vec![s.relay];
            for phase in &s.phases {
                let mut next = covered.clone();
                for lb in phase {
                    next.extend(dims.line_from(lb.from, lb.dir));
                }
                covered = next;
            }
            assert_eq!(covered.len() as u32, dims.node_count(), "{dims:?} {root:?}");
            let set: std::collections::HashSet<Coord> = covered.into_iter().collect();
            assert_eq!(set.len() as u32, dims.node_count(), "{dims:?} {root:?}");
        }
    }
}

/// The simulated torus broadcast delivers exactly the message size to every
/// node for arbitrary sizes and pipeline widths.
#[test]
fn simulated_bcast_conserves_payload() {
    let mut rng = Rng::new(0x51E);
    for _ in 0..16 {
        let bytes = rng.range_u64(1, 3_000_000);
        let pwidth_kb = rng.range_u32(1, 64);
        let root = rng.range_u32(0, 27);
        let mut cfg = MachineConfig::test_small(OpMode::Quad);
        cfg.dims = Dims::new(3, 3, 3);
        cfg.sw.pwidth = pwidth_kb * 1024;
        let mut m = Machine::new(cfg);
        let out = torus_shaddr(&mut m, NodeId(root), bytes);
        for (i, &d) in out.delivered.iter().enumerate() {
            assert_eq!(
                d, bytes,
                "node {i} (bytes={bytes} pwidth={pwidth_kb}K root={root})"
            );
        }
        assert!(
            out.coverage_exact(bytes),
            "span tiling violated (bytes={bytes})"
        );
    }
}

/// The selection policy is monotone in message size: as the message grows
/// the chosen algorithm only ever moves forward through the policy's
/// sequence — it never flips back (no flip-flopping across a crossover) —
/// and `requires_smp()` algorithms are only ever chosen in SMP mode.
#[test]
fn select_bcast_is_monotone_and_mode_correct() {
    for mode in [OpMode::Smp, OpMode::Dual, OpMode::Quad] {
        let cfg = MachineConfig::racks(2, mode);
        // Dense sweep around the crossovers plus randomized fill-in.
        let mut sizes: Vec<u64> = vec![
            0,
            1,
            8,
            1024,
            8 << 10,
            (8 << 10) + 1,
            64 << 10,
            128 << 10,
            (128 << 10) + 1,
            256 << 10,
            1 << 20,
            16 << 20,
        ];
        let mut rng = Rng::new(0xD15C0 + mode as u64);
        for _ in 0..200 {
            sizes.push(rng.range_u64(0, 32 << 20));
        }
        sizes.sort_unstable();

        let mut transitions = 0u32;
        let mut prev: Option<BcastAlgorithm> = None;
        let mut seen: Vec<BcastAlgorithm> = Vec::new();
        for &bytes in &sizes {
            let alg = select_bcast(&cfg, bytes);
            assert!(
                !alg.requires_smp() || mode == OpMode::Smp,
                "{alg:?} needs SMP but mode is {mode:?} (bytes={bytes})"
            );
            if prev != Some(alg) {
                transitions += 1;
                assert!(
                    !seen.contains(&alg),
                    "{alg:?} re-selected after switching away (bytes={bytes}, mode={mode:?})"
                );
                seen.push(alg);
                prev = Some(alg);
            }
        }
        assert!(
            (1..=3).contains(&transitions),
            "expected 1..=3 regimes over the size sweep, got {transitions} (mode={mode:?})"
        );
    }
}

/// The real threaded intra-node broadcast moves arbitrary payloads intact
/// through all three data paths.
#[test]
fn threaded_bcast_payload_integrity() {
    let mut rng = Rng::new(0xF00D);
    let max_len = bgp_collectives::shmem::testing::stress_iters(200_000);
    for case in 0..8 {
        let len = rng.range_usize(1, max_len);
        let seed = rng.range_u64(0, 255) as u8;
        let path = case % 3;
        let results = Cluster::new(1, 4).run(move |c| {
            let ctx = c.intra();
            let buf = ctx.alloc_buffer(len);
            if ctx.rank() == 2 {
                let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
                unsafe { buf.write(0, &payload) };
            }
            ctx.barrier();
            match path {
                0 => ctx.bcast_shmem(2, &buf, len),
                1 => ctx.bcast_fifo(2, &buf, len, 0),
                _ => ctx.bcast_shaddr(2, &buf, len, 8192),
            }
            unsafe { buf.snapshot() }
        });
        let expect: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_add(seed)).collect();
        for (rank, got) in results[0].iter().enumerate() {
            assert_eq!(got, &expect, "rank {rank} path {path} len {len}");
        }
    }
}

/// The threaded allreduce equals a sequential reduction for arbitrary
/// inputs (within fp tolerance: summation order is fixed by partition).
#[test]
fn threaded_allreduce_matches_sequential() {
    let mut rng = Rng::new(0xA11);
    let max_count = bgp_collectives::shmem::testing::stress_iters(5_000);
    for _ in 0..8 {
        let count = rng.range_usize(1, max_count);
        let scale = rng.range_f64(-100.0, 100.0);
        let results = Cluster::new(1, 4).run(move |c| {
            let ctx = c.intra();
            let me = ctx.rank();
            let input = ctx.alloc_buffer(count * 8);
            let output = ctx.alloc_buffer(count * 8);
            let vals: Vec<f64> = (0..count)
                .map(|i| scale * (me as f64 + 1.0) / (i as f64 + 1.0))
                .collect();
            write_f64s(&input, 0, &vals);
            ctx.barrier();
            ctx.allreduce_f64(&input, &output, count);
            read_f64s(&output, 0, count)
        });
        for got in &results[0] {
            for (i, g) in got.iter().enumerate() {
                let expect: f64 = (0..4)
                    .map(|r| scale * (r as f64 + 1.0) / (i as f64 + 1.0))
                    .sum();
                assert!(
                    (g - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                    "element {i}: got {g}, expect {expect} (count={count}, scale={scale})"
                );
            }
        }
    }
}
