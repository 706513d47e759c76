//! Shared application buffers.
//!
//! On BG/P a process window makes a peer's *application buffer* directly
//! addressable. Off-BG/P the closest equivalent with identical semantics is
//! a byte region shared between threads, with writes and reads coordinated
//! by the message counters (release/acquire), never by locks.
//!
//! [`SharedRegion`] is that region. Raw byte access is `unsafe` with an
//! explicit contract; the safe pairings used by the collectives —
//! "producer writes `[a, b)` then publishes a counter; consumer observes the
//! counter then reads `[a, b)`" — are provided by `bgp-smp`'s collectives
//! and validated by the stress tests there and in
//! [`crate::counter`].

use std::cell::UnsafeCell;

/// A fixed-size byte region shareable across threads.
///
/// # Safety contract for the `unsafe` accessors
///
/// A byte may be written by at most one thread at a time, and a read of a
/// byte must happen-after the write that produced it (established through a
/// `Release` publication / `Acquire` observation of a
/// [`MessageCounter`](crate::MessageCounter) or FIFO slot flag). The
/// collectives uphold this by construction: ranges are partitioned between
/// writers, and every consumer copy is gated on a counter.
pub struct SharedRegion {
    data: Box<[UnsafeCell<u8>]>,
}

// SAFETY: access discipline is delegated to callers per the contract above.
unsafe impl Send for SharedRegion {}
unsafe impl Sync for SharedRegion {}

impl SharedRegion {
    /// Allocate a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        let data = (0..len).map(|_| UnsafeCell::new(0u8)).collect();
        SharedRegion { data }
    }

    /// Adopt `bytes` as a region without copying them (a spare capacity is
    /// given back first, which may reallocate).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let raw = Box::into_raw(bytes.into_boxed_slice()) as *mut [UnsafeCell<u8>];
        // SAFETY: `UnsafeCell<u8>` is `repr(transparent)` over `u8`, so the
        // slice keeps its layout and its allocation.
        SharedRegion {
            data: unsafe { Box::from_raw(raw) },
        }
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the region is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Write `src` at `offset`.
    ///
    /// # Safety
    /// Caller must guarantee exclusive write access to `[offset,
    /// offset+src.len())` for the duration of the call, and readers must be
    /// ordered after it (see type-level contract).
    pub unsafe fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset + src.len() <= self.data.len(),
            "write of {} bytes at {} exceeds region of {}",
            src.len(),
            offset,
            self.data.len()
        );
        if src.is_empty() {
            return;
        }
        let dst = self.data[offset].get();
        // SAFETY: bounds checked above; exclusivity per contract.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), dst, src.len()) };
    }

    /// Read `dst.len()` bytes from `offset` into `dst`.
    ///
    /// # Safety
    /// Caller must guarantee the range was fully written by operations that
    /// happen-before this call and that no concurrent writer overlaps it.
    pub unsafe fn read(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset + dst.len() <= self.data.len(),
            "read of {} bytes at {} exceeds region of {}",
            dst.len(),
            offset,
            self.data.len()
        );
        if dst.is_empty() {
            return;
        }
        let src = self.data[offset].get();
        // SAFETY: bounds checked above; happens-before per contract.
        unsafe { std::ptr::copy_nonoverlapping(src, dst.as_mut_ptr(), dst.len()) };
    }

    /// Copy `len` bytes from `src` (at `src_off`) into this region at
    /// `dst_off` — the "direct copy from the master's application buffer"
    /// primitive.
    ///
    /// # Safety
    /// Combines the contracts of [`read`](Self::read) and
    /// [`write`](Self::write); additionally the two regions must not be the
    /// same region with overlapping ranges.
    pub unsafe fn copy_from(&self, dst_off: usize, src: &SharedRegion, src_off: usize, len: usize) {
        assert!(src_off + len <= src.len(), "source range out of bounds");
        assert!(
            dst_off + len <= self.len(),
            "destination range out of bounds"
        );
        if len == 0 {
            return;
        }
        let s = src.data[src_off].get();
        let d = self.data[dst_off].get();
        // SAFETY: bounds checked; disjointness per contract.
        unsafe { std::ptr::copy_nonoverlapping(s, d, len) };
    }

    /// Borrow `len` bytes at `offset` as a slice for an in-place read — the
    /// zero-copy counterpart of [`read`](Self::read), for consumers (reduce
    /// kernels, slot fills) that want the region bytes without staging them
    /// through a caller buffer.
    ///
    /// # Safety
    /// The contract of [`read`](Self::read), extended over the whole call:
    /// no writer may touch `[offset, offset + len)` while `f` runs.
    pub unsafe fn with_bytes<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        assert!(
            offset + len <= self.data.len(),
            "borrow of {} bytes at {} exceeds region of {}",
            len,
            offset,
            self.data.len()
        );
        if len == 0 {
            return f(&[]);
        }
        // SAFETY: `UnsafeCell<u8>` is layout-identical to `u8` and the cells
        // are contiguous; bounds checked above, exclusivity per contract.
        unsafe { f(std::slice::from_raw_parts(self.data[offset].get(), len)) }
    }

    /// Borrow `len` bytes at `offset` as a mutable slice for an in-place
    /// write — the zero-copy counterpart of [`write`](Self::write).
    ///
    /// # Safety
    /// The contract of [`write`](Self::write), extended over the whole call:
    /// no other access may touch `[offset, offset + len)` while `f` runs.
    pub unsafe fn with_bytes_mut<R>(
        &self,
        offset: usize,
        len: usize,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> R {
        assert!(
            offset + len <= self.data.len(),
            "borrow of {} bytes at {} exceeds region of {}",
            len,
            offset,
            self.data.len()
        );
        if len == 0 {
            return f(&mut []);
        }
        // SAFETY: as in `with_bytes`, plus exclusive access per contract.
        unsafe { f(std::slice::from_raw_parts_mut(self.data[offset].get(), len)) }
    }

    /// Snapshot the whole region into a `Vec` (test/diagnostic helper).
    ///
    /// # Safety
    /// All writers must have been ordered before this call.
    pub unsafe fn snapshot(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        // SAFETY: per contract.
        unsafe { self.read(0, &mut out) };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MessageCounter;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn write_then_read_round_trip() {
        let r = SharedRegion::new(64);
        assert_eq!(r.len(), 64);
        unsafe {
            r.write(10, b"hello");
            let mut buf = [0u8; 5];
            r.read(10, &mut buf);
            assert_eq!(&buf, b"hello");
        }
    }

    #[test]
    fn an_adopted_vec_keeps_its_bytes_and_its_buffer() {
        let bytes: Vec<u8> = (0..100).collect();
        let ptr = bytes.as_ptr();
        let r = SharedRegion::from_vec(bytes);
        assert_eq!(r.len(), 100);
        unsafe {
            r.with_bytes(0, 100, |b| assert_eq!(b.as_ptr(), ptr));
            assert_eq!(r.snapshot(), (0..100).collect::<Vec<u8>>());
        }
    }

    #[test]
    fn copy_between_regions() {
        let a = SharedRegion::new(32);
        let b = SharedRegion::new(32);
        unsafe {
            a.write(0, &[1, 2, 3, 4]);
            b.copy_from(8, &a, 0, 4);
            let mut buf = [0u8; 4];
            b.read(8, &mut buf);
            assert_eq!(buf, [1, 2, 3, 4]);
        }
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let r = SharedRegion::new(0);
        assert!(r.is_empty());
        unsafe {
            r.write(0, &[]);
            r.read(0, &mut []);
        }
        let a = SharedRegion::new(4);
        unsafe { a.copy_from(0, &r, 0, 0) };
    }

    #[test]
    fn in_place_borrows_see_and_mutate_the_region() {
        let r = SharedRegion::new(16);
        unsafe {
            r.with_bytes_mut(4, 8, |b| {
                assert_eq!(b.len(), 8);
                for (i, x) in b.iter_mut().enumerate() {
                    *x = i as u8 + 1;
                }
            });
            r.with_bytes(4, 8, |b| assert_eq!(b, [1, 2, 3, 4, 5, 6, 7, 8]));
            let mut out = [0u8; 2];
            r.read(5, &mut out);
            assert_eq!(out, [2, 3]);
            // Zero-length borrows are valid anywhere in bounds.
            r.with_bytes(16, 0, |b| assert!(b.is_empty()));
            r.with_bytes_mut(0, 0, |b| assert!(b.is_empty()));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_borrow_panics() {
        let r = SharedRegion::new(4);
        unsafe { r.with_bytes(2, 4, |_| ()) };
    }

    #[test]
    #[should_panic(expected = "exceeds region")]
    fn out_of_bounds_write_panics() {
        let r = SharedRegion::new(4);
        unsafe { r.write(2, &[0u8; 4]) };
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_copy_panics() {
        let a = SharedRegion::new(4);
        let b = SharedRegion::new(4);
        unsafe { b.copy_from(0, &a, 2, 4) };
    }

    #[test]
    fn counter_gated_cross_thread_publication() {
        // The exact §V-A pattern: master writes its application buffer and
        // publishes through a counter; three peers chase the counter and
        // copy directly out of the master's region.
        const LEN: usize = 1 << 16;
        const CHUNK: usize = 4096;
        let master = Arc::new(SharedRegion::new(LEN));
        let counter = Arc::new(MessageCounter::new());

        let producer = {
            let master = master.clone();
            let counter = counter.clone();
            thread::spawn(move || {
                let mut off = 0;
                while off < LEN {
                    let chunk: Vec<u8> = (off..off + CHUNK).map(|i| (i % 255) as u8).collect();
                    // SAFETY: single writer; readers gated on the counter.
                    unsafe { master.write(off, &chunk) };
                    counter.publish(CHUNK as u64);
                    off += CHUNK;
                }
            })
        };

        let peers: Vec<_> = (0..3)
            .map(|_| {
                let master = master.clone();
                let counter = counter.clone();
                thread::spawn(move || {
                    let dst = SharedRegion::new(LEN);
                    let mut seen = 0usize;
                    while seen < LEN {
                        let avail = counter.wait_for(seen as u64 + 1) as usize;
                        // SAFETY: [seen, avail) published before the counter
                        // we acquired.
                        unsafe { dst.copy_from(seen, &master, seen, avail - seen) };
                        seen = avail;
                    }
                    let snap = unsafe { dst.snapshot() };
                    for (i, &b) in snap.iter().enumerate() {
                        assert_eq!(b, (i % 255) as u8, "byte {i}");
                    }
                })
            })
            .collect();

        producer.join().unwrap();
        for p in peers {
            p.join().unwrap();
        }
    }
}
