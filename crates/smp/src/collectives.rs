//! Real intra-node collectives over threads — the paper's §V mechanisms,
//! minus the (simulated) network.
//!
//! Three broadcast data paths, exactly the paper's intra-node options:
//!
//! * [`RankCtx::bcast_shmem`] — **staged shared memory**: the root copies
//!   through a fixed double-buffered shared segment; peers copy out. Two
//!   copies per byte; the baseline every prior-work scheme uses.
//! * [`RankCtx::bcast_fifo`] — the **Bcast FIFO** (§IV-B): the root
//!   packetizes into FIFO slots (payload + `{conn, len}` metadata); each
//!   peer drains every slot. Concurrent, multiplexable, but still staged.
//! * [`RankCtx::bcast_shaddr`] — **shared address + message counters**
//!   (§IV-C/§V-A): the root exposes its *application buffer* on the node's
//!   window board and publishes a byte counter chunk by chunk; peers
//!   copy directly out of the root's buffer — one copy, pipelined.
//!
//! Plus [`RankCtx::allreduce_f64`] — the §V-C decomposition (local reduce by
//! partition, then local broadcast), here in its intra-node form: every rank
//! owns a partition, reduces it once across all exposed inputs straight into
//! its own output, and pushes each finished piece into every peer's exposed
//! output — nothing staged, nothing copied out, only the closing barrier.
//!
//! All operations are SPMD: every rank of the node must call them in the
//! same order with consistent arguments. They follow the node's one op
//! protocol (see [`crate::runtime`]): a windowed op takes both window tags
//! from `RankCtx::next_op`, every rank exposes only its own windows, message
//! counters are cumulative and waited on past rank-local bases, and every op
//! ends in `RankCtx::close_op` — the node barrier, then its windows are
//! withdrawn and the bases advanced — so buffers may be reused immediately
//! after return. A `root` that is not a rank of the node panics on every
//! rank before any effect.

use std::sync::Arc;

use bgp_shmem::SharedRegion;

use crate::cluster::sum_regions;
use crate::runtime::{RankCtx, FIFO_SLOT_BYTES, STAGING_HALF_BYTES};

/// Pipeline piece of [`RankCtx::allreduce_f64`]: an owner reduces this many
/// bytes of its partition, then pushes them into every peer's output.
pub const PUSH_PIECE_BYTES: usize = 16 * 1024;

/// Why both node allreduces refuse `input == output`: the result lands in
/// the outputs, so an owner would overwrite its own input before adding it.
pub(crate) const IN_PLACE: &str = "allreduce_f64 cannot run in place: input == output";

/// One Bcast-FIFO slot: payload plus the metadata the paper stores alongside
/// it ("the number of data bytes copied into the slot and the connection id
/// of the global broadcast flow").
#[derive(Clone)]
pub struct FifoMsg {
    /// Connection id of the broadcast flow (the color / stream id).
    pub conn: u32,
    /// Valid bytes in `data`.
    pub len: u32,
    /// Slot payload. Shared (`Arc`) so handing the message to each consumer
    /// is a refcount bump rather than a 4 KB allocate-and-copy; the producer
    /// recycles payload buffers through its [`RankCtx`] pool once every
    /// consumer has dropped its clone.
    pub data: Arc<[u8; FIFO_SLOT_BYTES]>,
}

/// Write a slice of `f64`s into a region at byte `offset` — serialized
/// directly into the region bytes, no staging buffer.
pub fn write_f64s(region: &SharedRegion, offset: usize, vals: &[f64]) {
    // SAFETY: caller is the unique writer of this range (SPMD
    // partitioning), for the duration of the conversion.
    unsafe { region.with_bytes_mut(offset, vals.len() * 8, |b| f64s_to_bytes(vals, b)) };
}

/// Read `out.len()` `f64`s from a region at byte `offset` into `out` —
/// decoded straight off the region bytes, no staging buffer.
pub fn read_f64s_into(region: &SharedRegion, offset: usize, out: &mut [f64]) {
    // SAFETY: caller ordered this read after the producing writes.
    unsafe {
        region.with_bytes(offset, out.len() * 8, |bytes| {
            for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                *v = f64::from_ne_bytes(b.try_into().unwrap());
            }
        })
    };
}

/// Read `count` `f64`s from a region at byte `offset` (allocating wrapper
/// over [`read_f64s_into`]).
pub fn read_f64s(region: &SharedRegion, offset: usize, count: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; count];
    read_f64s_into(region, offset, &mut out);
    out
}

/// Serialize `vals` into `dst` (native-endian); `dst` must be exactly 8×
/// as long as `vals`.
pub fn f64s_to_bytes(vals: &[f64], dst: &mut [u8]) {
    assert_eq!(dst.len(), vals.len() * 8);
    for (v, d) in vals.iter().zip(dst.chunks_exact_mut(8)) {
        d.copy_from_slice(&v.to_ne_bytes());
    }
}

impl RankCtx {
    /// Refuse a `root` that is not a rank of the node — on every rank alike,
    /// before any effect, instead of waiting for a producer that does not
    /// exist.
    fn check_root(&self, root: usize) {
        let n = self.n_ranks();
        assert!(root < n, "root {root} out of range for a node of {n} ranks");
    }

    /// Staged shared-memory broadcast of `len` bytes from `root`'s `buf`
    /// into every other rank's `buf`.
    pub fn bcast_shmem(&mut self, root: usize, buf: &Arc<SharedRegion>, len: usize) {
        self.check_root(root);
        assert!(buf.len() >= len, "buffer shorter than message");
        let n_chunks = len.div_ceil(STAGING_HALF_BYTES);

        if self.rank() == root {
            for k in 0..n_chunks {
                let off = k * STAGING_HALF_BYTES;
                let clen = (len - off).min(STAGING_HALF_BYTES);
                let half = k % 2;
                if k >= 2 {
                    // Wait until every peer finished the previous use of
                    // this half, then rearm it.
                    self.stage_done(half).wait();
                    self.stage_done(half).reset();
                }
                // SAFETY: root is the only writer of buf/staging here;
                // peers read staging only after the counter publish below.
                // Region-to-region: exactly the two copies per byte the
                // staged scheme is charged for (buf→staging, staging→buf).
                unsafe {
                    self.staging()
                        .copy_from(half * STAGING_HALF_BYTES, buf, off, clen)
                };
                self.publish(clen);
            }
            // Drain the last (up to two) outstanding half-uses and rearm.
            for k in n_chunks.saturating_sub(2)..n_chunks {
                self.stage_done(k % 2).wait();
                self.stage_done(k % 2).reset();
            }
        } else {
            for k in 0..n_chunks {
                let off = k * STAGING_HALF_BYTES;
                let clen = (len - off).min(STAGING_HALF_BYTES);
                let half = k % 2;
                self.wait_msg(root, off + clen);
                // SAFETY: the counter acquire ordered us after the root's
                // staging write; we write a disjoint range of our own buf.
                unsafe { buf.copy_from(off, self.staging(), half * STAGING_HALF_BYTES, clen) };
                self.stage_done(half).arrive();
            }
        }
        self.close_op(|r| if r == root { len } else { 0 });
    }

    /// Bcast-FIFO broadcast of `len` bytes from `root`'s `buf`.
    ///
    /// `conn` tags the flow (multiple colors can share the FIFO). The root
    /// is also a FIFO consumer (the runtime's FIFO has one consumer per
    /// rank), so it drains — and discards — its own messages as it
    /// produces, which keeps slot retirement uniform for any root.
    pub fn bcast_fifo(&mut self, root: usize, buf: &Arc<SharedRegion>, len: usize, conn: u32) {
        self.check_root(root);
        assert!(buf.len() >= len, "buffer shorter than message");
        let n_msgs = len.div_ceil(FIFO_SLOT_BYTES);

        if self.rank() == root {
            let mut drained = 0usize;
            for k in 0..n_msgs {
                // Drain our own consumer opportunistically so our lag never
                // blocks slot retirement.
                while self.consumer().try_recv().is_some() {
                    drained += 1;
                }
                let off = k * FIFO_SLOT_BYTES;
                let clen = (len - off).min(FIFO_SLOT_BYTES);
                // Recycle a payload buffer from the pool (a fresh one is
                // allocated — without zero-fill of live bytes — only while
                // consumers still hold clones of every pooled buffer).
                let mut data = self.take_fifo_buffer();
                let dst = Arc::get_mut(&mut data).expect("pooled buffer is uniquely owned");
                // SAFETY: root reads its own buffer.
                unsafe { buf.read(off, &mut dst[..clen]) };
                self.fifo().enqueue(FifoMsg {
                    conn,
                    len: clen as u32,
                    data: data.clone(),
                });
                self.return_fifo_buffer(data);
            }
            while drained < n_msgs {
                let _ = self.consumer().recv();
                drained += 1;
            }
        } else {
            let mut off = 0usize;
            for _ in 0..n_msgs {
                let msg = self.consumer().recv();
                debug_assert_eq!(msg.conn, conn, "flow multiplexing mismatch");
                let clen = msg.len as usize;
                // SAFETY: we are the only writer of our own buf range.
                unsafe { buf.write(off, &msg.data[..clen]) };
                off += clen;
            }
            debug_assert_eq!(off, len);
        }
        self.close_op(|_| 0);
    }

    /// Shared-address broadcast with software message counters: peers copy
    /// `len` bytes directly from `root`'s application buffer, chasing the
    /// root's counter in `pwidth`-byte pipeline chunks.
    pub fn bcast_shaddr(
        &mut self,
        root: usize,
        buf: &Arc<SharedRegion>,
        len: usize,
        pwidth: usize,
    ) {
        self.check_root(root);
        assert!(buf.len() >= len, "buffer shorter than message");
        assert!(pwidth > 0, "pipeline width must be positive");
        let [tag, _] = self.next_op();

        if self.rank() == root {
            // Expose the application buffer (the process-window step).
            self.expose(tag, buf.clone());
            // Publish availability chunk by chunk. In the integrated
            // (networked) algorithm each publish follows a network chunk
            // reception; intra-node the data is already present, so this
            // exercises the pipeline protocol itself.
            let mut published = 0usize;
            while published < len {
                let c = (len - published).min(pwidth);
                published += c;
                self.publish(c);
            }
        } else {
            let src = self.map_cached(root, tag);
            let mut seen = 0usize;
            while seen < len {
                let avail = self.wait_msg(root, seen + 1).min(len);
                // SAFETY: counter acquire orders us after the root's writes
                // of [seen, avail); our own range is exclusively ours.
                unsafe { buf.copy_from(seen, &src, seen, avail - seen) };
                seen = avail;
            }
        }
        self.close_op(|r| if r == root { len } else { 0 });
    }

    /// Intra-node allreduce (sum) over `count` doubles: the §V-C local
    /// decomposition, each result byte written once. Every rank exposes
    /// `input` and `output` and owns one contiguous partition: it reduces
    /// the partition across all ranks' inputs straight into its own
    /// `output` (seeded with rank 0's input, the others added in rank
    /// order) and pushes every finished [`PUSH_PIECE_BYTES`] piece into each
    /// peer's `output` at the same offset while the piece is still in
    /// cache. Nothing is allocated or copied out, and the closing barrier
    /// is the only wait. `input` and `output` must be distinct regions.
    pub fn allreduce_f64(
        &mut self,
        input: &Arc<SharedRegion>,
        output: &Arc<SharedRegion>,
        count: usize,
    ) {
        assert!(input.len() >= count * 8, "input shorter than count");
        assert!(output.len() >= count * 8, "output shorter than count");
        assert!(!Arc::ptr_eq(input, output), "{IN_PLACE}");
        let [in_tag, out_tag] = self.next_op();
        let (me, n) = (self.rank(), self.n_ranks());
        let (lo, hi) = (me * count / n * 8, (me + 1) * count / n * 8);

        self.expose(in_tag, input.clone());
        self.expose(out_tag, output.clone());
        let inputs: Vec<Arc<SharedRegion>> = (0..n).map(|r| self.map_cached(r, in_tag)).collect();
        // The rendezvous: a peer exposes its output under this op's tag
        // only once it has entered the op, i.e. is done with the last one.
        let peers: Vec<Arc<SharedRegion>> = (0..n)
            .filter(|&r| r != me)
            .map(|r| self.map_cached(r, out_tag))
            .collect();

        let mut at = lo;
        // SAFETY: this rank is the only writer of its partition of every
        // output, its own included, and reads back only what it wrote; the
        // inputs were written before the collective and none is an output.
        unsafe {
            sum_regions(output, lo, &inputs, lo, hi, PUSH_PIECE_BYTES, |len| {
                peers.iter().for_each(|p| p.copy_from(at, output, at, len));
                at += len;
            })
        };
        self.close_op(|_| 0);
    }

    /// Intra-node gather: every rank's `len`-byte block lands in `root`'s
    /// `recv` buffer at offset `rank * len` — through the shared address
    /// space (each rank writes its own slice of the exposed buffer
    /// directly; the paper's §VII extension applied intra-node).
    pub fn gather(
        &mut self,
        root: usize,
        send: &Arc<SharedRegion>,
        recv: &Arc<SharedRegion>,
        len: usize,
    ) {
        self.check_root(root);
        let n = self.n_ranks();
        assert!(send.len() >= len, "send buffer shorter than block");
        let [tag, _] = self.next_op();
        let me = self.rank();
        if me == root {
            assert!(recv.len() >= n * len, "recv buffer shorter than n blocks");
            self.expose(tag, recv.clone());
            // Root contributes its own block locally.
            // SAFETY: each rank writes a disjoint slice of the exposed
            // buffer; the closing barrier orders the root's reads.
            unsafe { recv.copy_from(me * len, send, 0, len) };
        } else {
            let dst = self.map_cached(root, tag);
            // SAFETY: as above — our slice only, read after the barrier.
            unsafe { dst.copy_from(me * len, send, 0, len) };
        }
        self.close_op(|_| 0);
    }

    /// Intra-node allgather: every rank ends with all `n` blocks in its
    /// `recv` buffer (block `r` at offset `r * len`). Every rank exposes its
    /// send block and copies every block straight out of its owner's — the
    /// shared-address single-copy pattern.
    pub fn allgather(&mut self, send: &Arc<SharedRegion>, recv: &Arc<SharedRegion>, len: usize) {
        let n = self.n_ranks();
        assert!(send.len() >= len, "send buffer shorter than block");
        assert!(recv.len() >= n * len, "recv buffer shorter than n blocks");
        let [tag, _] = self.next_op();
        self.expose(tag, send.clone());
        self.publish(len);
        for r in 0..n {
            let src = self.map_cached(r, tag);
            self.wait_msg(r, len);
            // SAFETY: counter acquire orders us after r's block write (done
            // before the collective per contract); our recv slice is ours.
            unsafe { recv.copy_from(r * len, &src, 0, len) };
        }
        self.close_op(|_| len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::runtime::{on_node, refusal};
    use bgp_shmem::testing::stress_iters;

    fn pattern(len: usize, salt: u8) -> Vec<u8> {
        (0..len).map(|i| (i as u8) ^ salt).collect()
    }

    fn check_bcast(
        n_ranks: usize,
        root: usize,
        len: usize,
        run: impl Fn(&mut RankCtx, usize, &Arc<SharedRegion>, usize) + Send + Sync + 'static,
    ) {
        let results = on_node(n_ranks, move |ctx| {
            let buf = ctx.alloc_buffer(len.max(1));
            if ctx.rank() == root {
                unsafe { buf.write(0, &pattern(len, 0x5a)) };
            }
            ctx.barrier();
            run(ctx, root, &buf, len);
            unsafe { buf.snapshot() }
        });
        for (rank, got) in results.iter().enumerate() {
            assert_eq!(
                &got[..len],
                &pattern(len, 0x5a)[..],
                "rank {rank} payload mismatch (n={n_ranks}, root={root}, len={len})"
            );
        }
    }

    #[test]
    fn shmem_bcast_various_sizes() {
        for len in [
            0usize,
            1,
            100,
            STAGING_HALF_BYTES,
            STAGING_HALF_BYTES + 1,
            stress_iters(500_000),
        ] {
            check_bcast(4, 0, len, |ctx, root, buf, len| {
                ctx.bcast_shmem(root, buf, len)
            });
        }
    }

    #[test]
    fn shmem_bcast_nonzero_root() {
        check_bcast(4, 2, stress_iters(200_000), |ctx, root, buf, len| {
            ctx.bcast_shmem(root, buf, len)
        });
    }

    #[test]
    fn fifo_bcast_various_sizes() {
        for len in [
            0usize,
            1,
            FIFO_SLOT_BYTES - 1,
            FIFO_SLOT_BYTES,
            3 * FIFO_SLOT_BYTES + 17,
            stress_iters(400_000),
        ] {
            check_bcast(4, 0, len, |ctx, root, buf, len| {
                ctx.bcast_fifo(root, buf, len, 0)
            });
        }
    }

    #[test]
    fn fifo_bcast_rotating_roots_back_to_back() {
        // Exercises slot retirement when the producer role moves around.
        let len = 10 * FIFO_SLOT_BYTES;
        let results = on_node(4, move |ctx| {
            let buf = ctx.alloc_buffer(len);
            let mut sums = Vec::new();
            for root in 0..4usize {
                if ctx.rank() == root {
                    unsafe { buf.write(0, &pattern(len, root as u8)) };
                }
                ctx.barrier();
                ctx.bcast_fifo(root, &buf, len, root as u32);
                let snap = unsafe { buf.snapshot() };
                sums.push(snap.iter().map(|&b| b as u64).sum::<u64>());
            }
            sums
        });
        for r in 1..4 {
            assert_eq!(results[r], results[0]);
        }
    }

    #[test]
    fn shaddr_bcast_various_sizes_and_pwidths() {
        for (len, pw) in [
            (0usize, 4096usize),
            (1, 4096),
            (65_536, 1024),
            (65_536, 65_536),
            (stress_iters(300_000) + 1, 16 * 1024),
        ] {
            check_bcast(4, 0, len, move |ctx, root, buf, len| {
                ctx.bcast_shaddr(root, buf, len, pw)
            });
        }
    }

    #[test]
    fn shaddr_bcast_two_ranks() {
        check_bcast(2, 1, stress_iters(100_000), |ctx, root, buf, len| {
            ctx.bcast_shaddr(root, buf, len, 8192)
        });
    }

    #[test]
    fn shaddr_repeated_ops_reuse_window_cache() {
        let len = 64 * 1024;
        let results = on_node(4, move |ctx| {
            let buf = ctx.alloc_buffer(len);
            if ctx.rank() == 0 {
                unsafe { buf.write(0, &pattern(len, 1)) };
            }
            ctx.barrier();
            for _ in 0..5 {
                ctx.bcast_shaddr(0, &buf, len, 16 * 1024);
            }
            ctx.barrier();
            let (_, misses, hits) = ctx.registry().stats().snapshot();
            (misses, hits)
        });
        // Same root buffer each time: 3 peers miss once, hit 4 times each.
        let (misses, hits) = results[0];
        assert_eq!(misses, 3, "each peer should map the root buffer once");
        assert_eq!(hits, 12, "subsequent ops should hit the window cache");
    }

    #[test]
    fn allreduce_matches_sequential_sum() {
        for count in [0usize, 1, 7, 1024, stress_iters(10_000)] {
            let results = on_node(4, move |ctx| {
                let me = ctx.rank();
                let input = ctx.alloc_buffer((count * 8).max(1));
                let output = ctx.alloc_buffer((count * 8).max(1));
                let vals: Vec<f64> = (0..count)
                    .map(|i| (i as f64) + (me as f64) * 0.25)
                    .collect();
                write_f64s(&input, 0, &vals);
                ctx.barrier();
                ctx.allreduce_f64(&input, &output, count);
                read_f64s(&output, 0, count)
            });
            let expect: Vec<f64> = (0..count)
                .map(|i| (0..4).map(|r| (i as f64) + (r as f64) * 0.25).sum())
                .collect();
            for (rank, got) in results.iter().enumerate() {
                assert_eq!(got.len(), count);
                for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
                    assert!(
                        (g - e).abs() < 1e-9,
                        "rank {rank} element {i}: got {g}, expect {e} (count={count})"
                    );
                }
            }
        }
    }

    #[test]
    fn allreduce_repeats_are_stable() {
        let count = 4096;
        let results = on_node(4, move |ctx| {
            let me = ctx.rank();
            let input = ctx.alloc_buffer(count * 8);
            let output = ctx.alloc_buffer(count * 8);
            write_f64s(&input, 0, &vec![me as f64 + 1.0; count]);
            ctx.barrier();
            let mut checks = Vec::new();
            for _ in 0..10 {
                ctx.allreduce_f64(&input, &output, count);
                let out = read_f64s(&output, 0, count);
                checks.push(out.iter().all(|&v| (v - 10.0).abs() < 1e-12));
            }
            checks
        });
        for rank_checks in results {
            assert!(rank_checks.into_iter().all(|ok| ok));
        }
    }

    #[test]
    fn gather_assembles_blocks_in_rank_order() {
        for (n, root, len) in [
            (4usize, 0usize, 1000usize),
            (4, 3, 8192),
            (2, 1, 1),
            (3, 0, 0),
        ] {
            let results = on_node(n, move |ctx| {
                let me = ctx.rank();
                let send = ctx.alloc_buffer(len.max(1));
                let recv = ctx.alloc_buffer((n * len).max(1));
                unsafe { send.write(0, &vec![me as u8 + 1; len]) };
                ctx.barrier();
                ctx.gather(root, &send, &recv, len);
                unsafe { recv.snapshot() }
            });
            let got = &results[root];
            for r in 0..n {
                for i in 0..len {
                    assert_eq!(
                        got[r * len + i],
                        r as u8 + 1,
                        "n={n} root={root} block {r} byte {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn allgather_gives_everyone_everything() {
        let len = 5000usize;
        let results = on_node(4, move |ctx| {
            let me = ctx.rank();
            let send = ctx.alloc_buffer(len);
            let recv = ctx.alloc_buffer(4 * len);
            unsafe { send.write(0, &vec![(me as u8) ^ 0x3C; len]) };
            ctx.barrier();
            ctx.allgather(&send, &recv, len);
            unsafe { recv.snapshot() }
        });
        for (rank, got) in results.iter().enumerate() {
            for r in 0..4usize {
                assert!(
                    got[r * len..(r + 1) * len]
                        .iter()
                        .all(|&b| b == (r as u8) ^ 0x3C),
                    "rank {rank} block {r}"
                );
            }
        }
    }

    #[test]
    fn allgather_repeats_rearm_cleanly() {
        let len = 2048usize;
        let results = on_node(4, move |ctx| {
            let me = ctx.rank();
            let send = ctx.alloc_buffer(len);
            let recv = ctx.alloc_buffer(4 * len);
            unsafe { send.write(0, &vec![me as u8; len]) };
            ctx.barrier();
            let mut ok = true;
            for _ in 0..5 {
                ctx.allgather(&send, &recv, len);
                let snap = unsafe { recv.snapshot() };
                ok &= (0..4).all(|r| snap[r * len..(r + 1) * len].iter().all(|&b| b == r as u8));
            }
            ok
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn mixed_collectives_in_sequence() {
        // Interleave all three broadcast paths and the allreduce in one
        // program, ensuring shared structures rearm correctly between ops.
        let len = stress_iters(150_000);
        let results = on_node(4, move |ctx| {
            let buf = ctx.alloc_buffer(len);
            if ctx.rank() == 3 {
                unsafe { buf.write(0, &pattern(len, 9)) };
            }
            ctx.barrier();
            ctx.bcast_shmem(3, &buf, len);
            ctx.bcast_fifo(3, &buf, len, 1);
            ctx.bcast_shaddr(3, &buf, len, 32 * 1024);
            let input = ctx.alloc_buffer(1024 * 8);
            let output = ctx.alloc_buffer(1024 * 8);
            write_f64s(&input, 0, &vec![1.0; 1024]);
            ctx.barrier();
            ctx.allreduce_f64(&input, &output, 1024);
            let b = unsafe { buf.snapshot() };
            let s = read_f64s(&output, 0, 1024);
            (b, s)
        });
        for (b, s) in results {
            assert_eq!(b, pattern(len, 9));
            assert!(s.iter().all(|&v| (v - 4.0).abs() < 1e-12));
        }
    }

    #[test]
    fn f64_helpers_round_trip() {
        let region = SharedRegion::new(4096 * 8 + 16);
        let vals: Vec<f64> = (0..300).map(|i| i as f64 * 0.5 - 7.0).collect();
        write_f64s(&region, 16, &vals);
        assert_eq!(read_f64s(&region, 16, 300), vals);
        let mut bytes = vec![0u8; 300 * 8];
        f64s_to_bytes(&vals, &mut bytes);
        let decoded: Vec<f64> = bytes
            .chunks_exact(8)
            .map(|b| f64::from_ne_bytes(b.try_into().unwrap()))
            .collect();
        assert_eq!(decoded, vals);
    }

    #[test]
    fn all_bcast_paths_degenerate_shapes() {
        // root ∈ {1, n−1}, length edge cases around the staging half, and
        // the single-rank node, for every broadcast path.
        for n in [1usize, 2, 4] {
            for root in [1usize.min(n - 1), n - 1] {
                for len in [0usize, 1, STAGING_HALF_BYTES - 1, STAGING_HALF_BYTES + 1] {
                    check_bcast(n, root, len, |ctx, root, buf, len| {
                        ctx.bcast_shmem(root, buf, len)
                    });
                    check_bcast(n, root, len, |ctx, root, buf, len| {
                        ctx.bcast_fifo(root, buf, len, 5)
                    });
                    check_bcast(n, root, len, |ctx, root, buf, len| {
                        ctx.bcast_shaddr(root, buf, len, 4096)
                    });
                }
            }
        }
    }

    #[test]
    fn allreduce_degenerate_shapes() {
        // n = 1 (self-reduce) and odd rank counts; counts that do not split
        // evenly across ranks, including zero and one element.
        for n in [1usize, 2, 3] {
            for count in [0usize, 1, 1023] {
                let results = on_node(n, move |ctx| {
                    let me = ctx.rank();
                    let input = ctx.alloc_buffer((count * 8).max(1));
                    let output = ctx.alloc_buffer((count * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| (i + me) as f64).collect();
                    write_f64s(&input, 0, &vals);
                    ctx.barrier();
                    ctx.allreduce_f64(&input, &output, count);
                    read_f64s(&output, 0, count)
                });
                for (rank, got) in results.iter().enumerate() {
                    for (i, &g) in got.iter().enumerate() {
                        let e: f64 = (0..n).map(|r| (i + r) as f64).sum();
                        assert_eq!(g, e, "n={n} rank={rank} count={count} elem {i}");
                    }
                }
            }
        }
    }

    /// A value whose sums round, so a changed summation order shows.
    fn inexact(rank: usize, i: usize) -> f64 {
        (i as f64 + 0.1) / (rank as f64 + 3.0) + (rank * 7919 % 13) as f64 * 1e-3
    }

    /// Every rank's output equals, bit for bit, the serial fold in rank
    /// order (seed rank 0, add 1..n) — including partitions of several
    /// pipeline pieces and a ragged tail.
    #[test]
    fn allreduce_equals_a_serial_fold_in_rank_order_bit_for_bit() {
        let pieces = PUSH_PIECE_BYTES / 8;
        for n in [1usize, 2, 3, 4] {
            for count in [0, 1, n - 1, 1023, n * (3 * pieces + 5) + n - 1] {
                let results = on_node(n, move |ctx| {
                    let me = ctx.rank();
                    let input = ctx.alloc_buffer((count * 8).max(1));
                    let output = ctx.alloc_buffer((count * 8).max(1));
                    let vals: Vec<f64> = (0..count).map(|i| inexact(me, i)).collect();
                    write_f64s(&input, 0, &vals);
                    ctx.allreduce_f64(&input, &output, count);
                    read_f64s(&output, 0, count)
                });
                for (rank, got) in results.iter().enumerate() {
                    for (i, g) in got.iter().enumerate() {
                        let e = (1..n).fold(inexact(0, i), |s, r| s + inexact(r, i));
                        assert_eq!(
                            g.to_bits(),
                            e.to_bits(),
                            "n={n} rank={rank} count={count} elem {i}: {g} vs {e}"
                        );
                    }
                }
            }
        }
    }

    /// The rendezvous: after op k returns, each rank re-reads its output
    /// and must find op k's sums while its peer races into op k + 1 with
    /// other inputs. A peer reads an input and writes an output only once
    /// it mapped them under op k + 1's tags, i.e. once their owner entered
    /// op k + 1.
    #[test]
    fn a_returned_result_is_never_overwritten_by_the_next_op() {
        const ITERS: usize = 1000;
        let count = 2 * PUSH_PIECE_BYTES / 8 + 3;
        let wrong = on_node(2, move |ctx| {
            let me = ctx.rank();
            let input = ctx.alloc_buffer(count * 8);
            let output = ctx.alloc_buffer(count * 8);
            let mut got = vec![0.0; count];
            let mut wrong = 0;
            for k in 0..ITERS {
                write_f64s(&input, 0, &vec![(2 * k + me) as f64; count]);
                ctx.allreduce_f64(&input, &output, count);
                read_f64s_into(&output, 0, &mut got);
                wrong += got.iter().filter(|&&v| v != (4 * k + 1) as f64).count();
            }
            wrong
        });
        assert_eq!(wrong, vec![0, 0], "elements overwritten after return");
    }

    #[test]
    fn allreduce_refuses_to_run_in_place() {
        let msg = refusal(1, 2, |c| {
            let buf = c.intra().alloc_buffer(64);
            c.intra().allreduce_f64(&buf, &buf, 8)
        });
        assert!(msg.contains(IN_PLACE), "{msg}");
    }

    /// Regression (stale window): op 1 withdraws its windows only after its
    /// closing barrier, and op 2 has no start barrier, so op 2's peers can
    /// look a window up while op 1's are still exposed. When `bcast_shaddr`
    /// and `gather` used tag `op` and the op before used `2·op` (op 1 → 2,
    /// op 2 → 2), rank 1 could map rank 0's op-1 buffer and copy — or write
    /// — the wrong bytes. Fresh clusters, so op ids start at 1 every time;
    /// every rank checks op 2's bytes.
    #[test]
    fn an_op_never_maps_a_window_of_the_op_before() {
        const LEN: usize = 64;
        const ITERS: usize = 500;
        for op1_is_allgather in [true, false] {
            for op2_is_bcast in [true, false] {
                for i in 0..ITERS {
                    let ok = Cluster::new(1, 2).run(move |c| {
                        let me = c.rank();
                        let a = c.intra().alloc_buffer(2 * LEN);
                        let b = c.intra().alloc_buffer(2 * LEN);
                        // SAFETY: our own buffer, before the collective.
                        unsafe { a.write(0, &[0xEE; 2 * LEN]) };
                        if op1_is_allgather {
                            c.intra().allgather(&a, &b, LEN);
                        } else {
                            c.allreduce_f64(&a, &b, LEN / 8);
                        }
                        let ctx = c.intra();
                        if op2_is_bcast {
                            let buf = ctx.alloc_buffer(LEN);
                            if me == 0 {
                                // SAFETY: our buffer, before the collective.
                                unsafe { buf.write(0, &[0x5A; LEN]) };
                            }
                            ctx.bcast_shaddr(0, &buf, LEN, 16);
                            // SAFETY: the collective completed.
                            let got = unsafe { buf.snapshot() };
                            got == [0x5A; LEN]
                        } else {
                            let send = ctx.alloc_buffer(LEN);
                            let recv = ctx.alloc_buffer(2 * LEN);
                            // SAFETY: our buffer, before the collective.
                            unsafe { send.write(0, &[me as u8 + 1; LEN]) };
                            ctx.gather(0, &send, &recv, LEN);
                            // SAFETY: the collective completed.
                            me != 0 || unsafe { recv.snapshot() } == [[1; LEN], [2; LEN]].concat()
                        }
                    });
                    assert_eq!(
                        ok,
                        vec![vec![true, true]],
                        "iteration {i}: op 2 ({}) after op 1 ({}) delivered stale bytes",
                        if op2_is_bcast {
                            "bcast_shaddr"
                        } else {
                            "gather"
                        },
                        if op1_is_allgather {
                            "allgather"
                        } else {
                            "cluster allreduce"
                        },
                    );
                }
            }
        }
    }

    /// Regression (board slot reuse): a rank posts every op's windows in
    /// the same two board slots, so a peer that took whatever a slot holds
    /// would find an earlier op's buffer there. 1 000 ops on a 1 x 4 node,
    /// each rank alternating between two buffers with different payloads:
    /// `bcast_shaddr` from rotating roots, and `allreduce_f64` on
    /// alternating input/output pairs. Every byte must be this op's.
    #[test]
    fn a_reused_board_slot_never_yields_a_stale_window() {
        const OPS: usize = 1000;
        const COUNT: usize = 125;
        // One length for every buffer: a stale window copies wrong bytes
        // rather than running past a shorter region's end.
        const LEN: usize = COUNT * 8;
        let wrong = on_node(4, |ctx| {
            let me = ctx.rank();
            let bufs = [ctx.alloc_buffer(LEN), ctx.alloc_buffer(LEN)];
            let pairs = [0, 1].map(|_| (ctx.alloc_buffer(LEN), ctx.alloc_buffer(LEN)));
            let mut got = vec![0.0; COUNT];
            let mut wrong = 0;
            for k in 0..OPS / 2 {
                let (root, buf) = (k % 4, &bufs[k % 2]);
                let payload = pattern(LEN, k as u8);
                if me == root {
                    // SAFETY: our own buffer, before the collective.
                    unsafe { buf.write(0, &payload) };
                }
                ctx.bcast_shaddr(root, buf, LEN, 256);
                // SAFETY: the collective completed.
                wrong += usize::from(unsafe { buf.snapshot() } != payload);
                let (input, output) = &pairs[k % 2];
                write_f64s(input, 0, &vec![(4 * k + me) as f64; COUNT]);
                ctx.allreduce_f64(input, output, COUNT);
                read_f64s_into(output, 0, &mut got);
                wrong += got.iter().filter(|&&v| v != (16 * k + 6) as f64).count();
            }
            wrong
        });
        assert_eq!(wrong, vec![0; 4], "ops delivered another op's bytes");
    }

    /// The window ledger charges what a CNK stack would pay, whatever path
    /// maps the windows: per pass on n ranks, `allreduce_f64` exposes two
    /// windows a rank and maps n inputs and n - 1 outputs, `bcast_shaddr`
    /// and `gather` expose the root's one and map it n - 1 times, and
    /// `allgather` exposes one a rank and maps n. Every buffer stays alive,
    /// so the first pass misses on every map and the second hits on every
    /// one.
    #[test]
    fn window_ledger_charges_the_closed_form() {
        const N: u64 = 4;
        let ledger = on_node(N as usize, |ctx| {
            let [input, output, buf, send, recv] =
                [8, 8, 64, 16, 64].map(|len| ctx.alloc_buffer(len));
            for _ in 0..2 {
                ctx.allreduce_f64(&input, &output, 1);
                ctx.bcast_shaddr(0, &buf, 64, 16);
                ctx.gather(0, &send, &recv, 16);
                ctx.allgather(&send, &recv, 16);
            }
            ctx.registry().stats().snapshot()
        });
        let exposes = 2 * N + 1 + 1 + N;
        let maps = N * (2 * N - 1) + (N - 1) + (N - 1) + N * N;
        assert_eq!(ledger[0], (2 * exposes, maps, maps));
    }

    /// Run `op` with root 2 on a 1 x 2 cluster: every rank must panic on
    /// the root before any effect, so `Cluster::run` reports it; nothing may
    /// wait for a producer that does not exist.
    fn out_of_range_root_panics(op: fn(&mut RankCtx, usize, &Arc<SharedRegion>)) {
        let msg = refusal(1, 2, move |c| {
            let buf = c.intra().alloc_buffer(4 * 64);
            op(c.intra(), 2, &buf)
        });
        assert!(
            msg.contains("root 2 out of range for a node of 2 ranks"),
            "{msg}"
        );
    }

    #[test]
    fn bcast_shmem_refuses_an_out_of_range_root() {
        out_of_range_root_panics(|ctx, root, buf| ctx.bcast_shmem(root, buf, 64));
    }

    #[test]
    fn bcast_fifo_refuses_an_out_of_range_root() {
        out_of_range_root_panics(|ctx, root, buf| ctx.bcast_fifo(root, buf, 64, 0));
    }

    #[test]
    fn bcast_shaddr_refuses_an_out_of_range_root() {
        out_of_range_root_panics(|ctx, root, buf| ctx.bcast_shaddr(root, buf, 64, 16));
    }

    #[test]
    fn gather_refuses_an_out_of_range_root() {
        out_of_range_root_panics(|ctx, root, buf| {
            let send = ctx.alloc_buffer(64);
            ctx.gather(root, &send, buf, 64)
        });
    }
}
