//! Hot-path ratios: the slot-loan transport vs the staged
//! copy-in/copy-out shape it replaced, the `[f64; 4]`-lane reduce kernel
//! vs the staged scalar loop it replaced, and segment-backed vs heap slot
//! storage.
//!
//! [`ratio_entries`] yields `transport/loan_64K` (one 64 KiB
//! produce→consume through a [`ChunkChannel`], old staged shape over new
//! loaned shape) and `reduce/f64x4_1M` (one reduce pass over 1 Mi doubles,
//! old 1 KiB-staging scalar shape over the in-place lane kernel);
//! [`xproc_entry`] yields `proc/xproc_overhead_64K`. A ratio is
//! dimensionless — both sides run on the same host in the same process —
//! so unlike raw wall times it *can* be gated: the committed baseline pins
//! a conservative floor (ceiling, for the overhead) and the gate fails if
//! the win mostly evaporates. The absolute per-stage times behind these
//! ratios are `benchmark/`'s `smp.transport.*` / `smp.kernels.*` metrics.
//!
//! The old shapes are reproduced here verbatim-in-miniature
//! ([`staged_scalar_reduce`], the scratch-buffer transfer in
//! [`transport_ratio`]) so the comparison survives the old code's
//! deletion — and so the scalar side is an honest *staged* scalar loop,
//! not a strawman the autovectorizer quietly fixes.

use std::hint::black_box;
use std::time::Instant;

use bgp_smp::kernels;
use bgp_smp::transport::ChunkChannel;

use crate::gate::{Better, GateEntry};

/// Gated series id: staged-over-loaned 64 KiB transfer speedup.
pub const TRANSPORT_ID: &str = "transport/loan_64K";

/// Gated series id: staged-scalar-over-lane-kernel 1 Mi-double reduce
/// speedup.
pub const REDUCE_ID: &str = "reduce/f64x4_1M";

/// Payload of the transport measurements (one chunk).
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Element count of the reduce measurements.
pub const REDUCE_DOUBLES: usize = 1 << 20;

/// Median wall time of `f` over `samples` runs (after one warmup), secs.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// The pre-loan reduce shape: pull region bytes through a 1 KiB stack
/// stage, decode to a staged `f64` block, scalar-add into the
/// accumulator. Kept as the measured "before" so `reduce/f64x4_1M` keeps
/// comparing against what the code actually used to do.
pub fn staged_scalar_reduce(acc: &mut [f64], bytes: &[u8]) {
    const STAGE: usize = 1024;
    assert_eq!(acc.len() * 8, bytes.len(), "kernel operand length mismatch");
    let mut stage = [0u8; STAGE];
    let mut vals = [0f64; STAGE / 8];
    let mut off = 0;
    while off < bytes.len() {
        let n = STAGE.min(bytes.len() - off);
        stage[..n].copy_from_slice(&bytes[off..off + n]);
        for i in 0..n / 8 {
            vals[i] = f64::from_ne_bytes(stage[i * 8..i * 8 + 8].try_into().unwrap());
        }
        for i in 0..n / 8 {
            acc[off / 8 + i] += vals[i];
        }
        off += n;
    }
}

/// Staged-over-loaned speedup for one 64 KiB produce→consume through a
/// [`ChunkChannel`]. Single-threaded — the one thread is trivially both
/// SPSC ends — so the ratio isolates the copies, not core-to-core
/// transit. The staged side reproduces the old caller shape: produce
/// into a scratch buffer, `send_with` copies it into the slot,
/// `recv_with` copies the slot out to a destination, consume the
/// destination. The loaned side produces straight into the reserved slot
/// and consumes straight out of the peeked one.
pub fn transport_ratio(iters: usize, samples: usize) -> f64 {
    let ch = ChunkChannel::new(4, CHUNK_BYTES);
    let mut scratch = vec![0u8; CHUNK_BYTES];
    let mut dest = vec![0u8; CHUNK_BYTES];
    let staged = median_secs(samples, || {
        for i in 0..iters {
            scratch.fill(i as u8);
            ch.send_with(i as u64, CHUNK_BYTES, |b| b.copy_from_slice(&scratch));
            ch.recv_with(|_, b| dest.copy_from_slice(b));
            black_box((dest[0], dest[CHUNK_BYTES - 1]));
        }
    });
    let loaned = median_secs(samples, || {
        for i in 0..iters {
            let mut s = ch.reserve(CHUNK_BYTES);
            s.with_bytes_mut(|b| b.fill(i as u8));
            s.publish(i as u64);
            let r = ch.peek();
            r.with_bytes(|b| black_box((b[0], b[b.len() - 1])));
        }
    });
    staged / loaned
}

/// Staged-scalar-over-lane speedup for one reduce pass over
/// [`REDUCE_DOUBLES`] doubles: [`staged_scalar_reduce`] (the old shape)
/// against [`kernels::add_bytes_f64`] (the lane kernel, in place on the
/// byte image).
pub fn reduce_ratio(samples: usize) -> f64 {
    let mut src = vec![0u8; REDUCE_DOUBLES * 8];
    for (i, b) in src.chunks_exact_mut(8).enumerate() {
        b.copy_from_slice(&((i % 97) as f64).to_ne_bytes());
    }
    let mut acc = vec![0f64; REDUCE_DOUBLES];
    let staged = median_secs(samples, || {
        staged_scalar_reduce(&mut acc, &src);
        black_box(acc[REDUCE_DOUBLES - 1]);
    });
    let lane = median_secs(samples, || {
        kernels::add_bytes_f64(&mut acc, &src);
        black_box(acc[REDUCE_DOUBLES - 1]);
    });
    staged / lane
}

/// The two gated speedup series, measured at the committed shapes
/// (64 KiB transfer, 1 Mi-double reduce). Sample counts are sized for a
/// stable median on a busy one-core host while keeping the pinned gate
/// suite quick (both series finish in tens of milliseconds).
pub fn ratio_entries() -> Vec<GateEntry> {
    let ratio = |id: &str, value: f64| GateEntry {
        id: id.into(),
        unit: "x".into(),
        better: Better::Higher,
        gated: true,
        value,
    };
    vec![
        ratio(TRANSPORT_ID, transport_ratio(64, 9)),
        ratio(REDUCE_ID, reduce_ratio(9)),
    ]
}

/// Gated series id: mmap-segment-over-heap per-chunk transfer overhead
/// (lower is better; 1.0 would be "the process backend is free").
pub const XPROC_ID: &str = "proc/xproc_overhead_64K";

/// Cross-process-storage overhead ratio: the loaned 64 KiB produce→consume
/// cycle over a segment-backed channel viewed through **two separate
/// mappings** of one `ShmSegment` (producer on the creator's mapping,
/// consumer on a reopened one — the exact memory topology two processes
/// see), divided by the same cycle over the heap channel. Dimensionless
/// like the other ratios, so it can be gated: the committed baseline pins
/// a conservative ceiling and the gate fails if segment-backed transport
/// ever becomes dramatically more expensive than the heap path.
pub fn xproc_overhead_ratio(iters: usize, samples: usize) -> f64 {
    use bgp_shmem::proc::ShmSegment;
    use bgp_smp::proc::ProcSlots;
    use std::sync::Arc;

    fn cycle<S: bgp_smp::transport::SlotStore>(
        tx: &ChunkChannel<S>,
        rx: &ChunkChannel<S>,
        i: usize,
    ) {
        let mut s = tx.reserve(CHUNK_BYTES);
        s.with_bytes_mut(|b| b.fill(i as u8));
        s.publish(i as u64);
        let r = rx.peek();
        r.with_bytes(|b| black_box((b[0], b[b.len() - 1])));
    }

    let heap = ChunkChannel::new(4, CHUNK_BYTES);
    let inproc = median_secs(samples, || {
        for i in 0..iters {
            cycle(&heap, &heap, i);
        }
    });

    let seg_tx = Arc::new(
        ShmSegment::create(ProcSlots::bytes_for(4, CHUNK_BYTES), &[]).expect("bench segment"),
    );
    let seg_rx = Arc::new(ShmSegment::open(seg_tx.path()).expect("bench segment reopen"));
    let tx = ChunkChannel::over(ProcSlots::attach(&seg_tx, 0, 4, CHUNK_BYTES, true));
    let rx = ChunkChannel::over(ProcSlots::attach(&seg_rx, 0, 4, CHUNK_BYTES, false));
    let xproc = median_secs(samples, || {
        for i in 0..iters {
            cycle(&tx, &rx, i);
        }
    });
    xproc / inproc
}

/// The gated cross-process overhead entry (see [`xproc_overhead_ratio`]).
pub fn xproc_entry() -> GateEntry {
    GateEntry {
        id: XPROC_ID.into(),
        unit: "x".into(),
        better: Better::Lower,
        gated: true,
        value: xproc_overhead_ratio(64, 9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_reduce_matches_kernel_on_ragged_sizes() {
        for n in [0usize, 1, 3, 128, 129, 1003] {
            let mut bytes = vec![0u8; n * 8];
            for (i, b) in bytes.chunks_exact_mut(8).enumerate() {
                b.copy_from_slice(&(i as f64).to_ne_bytes());
            }
            let mut a = vec![2.0f64; n];
            let mut b2 = a.clone();
            staged_scalar_reduce(&mut a, &bytes);
            kernels::add_bytes_f64(&mut b2, &bytes);
            assert_eq!(a, b2, "n={n}");
        }
    }

    #[test]
    fn xproc_overhead_is_sane() {
        // Small shape: this is a correctness smoke (the ratio is finite
        // and positive over real two-mapping segment storage), not a
        // perf assertion — that lives in the committed gate baseline.
        let r = xproc_overhead_ratio(4, 3);
        assert!(r.is_finite() && r > 0.0, "xproc ratio {r}");
    }
}
