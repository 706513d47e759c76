//! Quickstart: the two halves of the reproduction in one minute.
//!
//! 1. **Real intra-node collectives** — four rank-threads broadcast actual
//!    bytes through the paper's Bcast FIFO and shared-address counters.
//! 2. **Simulated full-machine collectives** — the two-rack BG/P (8192
//!    ranks, quad mode) runs `MPI_Bcast` with the production algorithm
//!    selection.
//!
//! Run: `cargo run --release --example quickstart`

use bgp_collectives::machine::MachineConfig;
use bgp_collectives::mpi::Mpi;
use bgp_collectives::smp::Cluster;

fn main() {
    // --- Part 1: real threads, real bytes -------------------------------
    println!("== intra-node, for real (4 rank-threads on this host) ==");
    const LEN: usize = 64 * 1024;
    // One node of four rank threads; `c.intra()` is a rank's node context.
    let results = Cluster::new(1, 4).run(|c| {
        let ctx = c.intra();
        let buf = ctx.alloc_buffer(LEN);
        if ctx.rank() == 0 {
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            // SAFETY: single writer before the barrier; peers read only
            // after the collective's internal synchronization.
            unsafe { buf.write(0, &payload) };
        }
        ctx.barrier();
        // The paper's Bcast FIFO (atomic fetch-and-increment slots)...
        ctx.bcast_fifo(0, &buf, LEN, 0);
        // ...and the shared-address path (peers copy straight out of the
        // root's buffer, chasing a message counter).
        ctx.bcast_shaddr(0, &buf, LEN, 16 * 1024);
        let snap = unsafe { buf.snapshot() };
        snap.iter().map(|&b| b as u64).sum::<u64>()
    });
    let results = &results[0];
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    println!(
        "   4 ranks agree on {} broadcast bytes (checksum {})\n",
        LEN, results[0]
    );

    // --- Part 2: the simulated two-rack BG/P ----------------------------
    println!("== simulated Blue Gene/P: 2048 nodes x 4 ranks (quad mode) ==");
    let mut mpi = Mpi::new(MachineConfig::two_racks_quad());
    println!("   MPI size: {} processes", mpi.size());
    for bytes in [64u64, 8 << 10, 128 << 10, 2 << 20] {
        let (alg, t) = mpi.bcast_auto(bytes);
        let mb = bytes as f64 / t.as_secs_f64() / 1e6;
        println!(
            "   MPI_Bcast {:>8} bytes -> {:<34} {:>10}   ({:>7.1} MB/s)",
            bytes,
            alg.label(),
            t.to_string(),
            mb
        );
    }
}
