//! Scenario: a conjugate-gradient-style solver where every iteration ends
//! in `MPI_Allreduce` over a vector of partial sums — the workload of the
//! paper's §V-C.
//!
//! Two parts:
//!
//! 1. **Numerics, for real**: four rank-threads run the §V-C intra-node
//!    decomposition (partitioned local reduce through mapped windows) and
//!    the result is checked against a sequential reduction.
//! 2. **Performance, simulated**: the two-rack machine runs the paper's
//!    core-specialized allreduce vs the current DMA ring across the
//!    Table I sizes, reporting the per-CG-iteration cost.
//!
//! Run: `cargo run --release --example allreduce_stencil [-- --small]`

use bgp_collectives::machine::{MachineConfig, OpMode};
use bgp_collectives::mpi::allreduce::AllreduceAlgorithm;
use bgp_collectives::mpi::Mpi;
use bgp_collectives::smp::collectives::{read_f64s, write_f64s};
use bgp_collectives::smp::Cluster;

fn main() {
    // --- Part 1: verify the intra-node decomposition numerically --------
    const COUNT: usize = 8192;
    // One node of four rank threads; `c.intra()` is a rank's node context.
    let results = Cluster::new(1, 4).run(|c| {
        let ctx = c.intra();
        let me = ctx.rank();
        let input = ctx.alloc_buffer(COUNT * 8);
        let output = ctx.alloc_buffer(COUNT * 8);
        // Each rank contributes partial dot-products: x_i = rank + i/N.
        let vals: Vec<f64> = (0..COUNT)
            .map(|i| me as f64 + i as f64 / COUNT as f64)
            .collect();
        write_f64s(&input, 0, &vals);
        ctx.barrier();
        ctx.allreduce_f64(&input, &output, COUNT);
        read_f64s(&output, 0, COUNT)
    });
    for (rank, got) in results[0].iter().enumerate() {
        for (i, g) in got.iter().enumerate() {
            let expect = 6.0 + 4.0 * (i as f64) / COUNT as f64; // sum over ranks 0..4
            assert!((g - expect).abs() < 1e-9, "rank {rank} elem {i}");
        }
    }
    println!(
        "intra-node allreduce over 4 threads: {} doubles verified\n",
        COUNT
    );

    // --- Part 2: simulated per-iteration cost at scale -------------------
    let small = std::env::args().any(|a| a == "--small");
    let nodes = if small { 64 } else { 2048 };
    let mut mpi = Mpi::new(MachineConfig::with_nodes(nodes, OpMode::Quad));
    println!(
        "CG-iteration allreduce on {} ranks (sum of doubles):",
        mpi.size()
    );
    println!(
        "{:>12} {:>16} {:>16} {:>9}",
        "doubles", "new (Shaddr)", "current (ring)", "gain"
    );
    for doubles in [16u64 << 10, 64 << 10, 256 << 10, 512 << 10] {
        let new = mpi.allreduce(AllreduceAlgorithm::ShaddrSpecialized, doubles);
        let cur = mpi.allreduce(AllreduceAlgorithm::RingCurrent, doubles);
        println!(
            "{:>12} {:>16} {:>16} {:>8.2}x",
            doubles,
            new.to_string(),
            cur.to_string(),
            cur.as_secs_f64() / new.as_secs_f64()
        );
    }
    println!();
    println!("paper anchor: ~33% improvement at 512K doubles (Table I)");
}
