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

use std::alloc::{self, Layout};
use std::mem::{self, ManuallyDrop};
use std::ptr::NonNull;

/// A fixed-size byte region shareable across threads.
///
/// The region owns one heap allocation: its own (zeroed at birth) or an
/// adopted `Vec`'s, whole capacity included, so adoption never copies. It
/// keeps the allocation's [`Layout`] and frees it with that layout. A
/// region adopted from a `Vec<f64>` can hand its vector back
/// ([`Self::into_f64s`]), any other its bytes ([`Self::into_bytes`]).
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
    ptr: NonNull<u8>,
    len: usize,
    /// The allocation behind `ptr`; zero-sized when nothing was allocated.
    layout: Layout,
}

// SAFETY: the region owns its allocation (freed once, by `Drop`, with its
// `layout`), so it may move and be dropped on any thread; `len` and
// `layout` never change, and byte access discipline is delegated to
// callers per the contract above.
unsafe impl Send for SharedRegion {}
unsafe impl Sync for SharedRegion {}

impl SharedRegion {
    /// Allocate a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        let layout = Layout::array::<u8>(len).expect("region length overflows");
        if len == 0 {
            return SharedRegion {
                ptr: NonNull::dangling(),
                len,
                layout,
            };
        }
        // SAFETY: the layout is not zero-sized.
        let raw = unsafe { alloc::alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| alloc::handle_alloc_error(layout));
        SharedRegion { ptr, len, layout }
    }

    /// Adopt `bytes` as a region, its spare capacity included: no byte is
    /// copied and nothing is reallocated.
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        let mut bytes = ManuallyDrop::new(bytes);
        SharedRegion {
            ptr: NonNull::new(bytes.as_mut_ptr()).expect("a Vec's pointer is non-null"),
            len: bytes.len(),
            layout: Layout::array::<u8>(bytes.capacity()).expect("a Vec's layout is valid"),
        }
    }

    /// Adopt `values` as a region of `8 * values.len()` bytes (native
    /// byte order), its spare capacity included, without copying;
    /// [`Self::into_f64s`] hands the vector back.
    pub fn from_f64s(values: Vec<f64>) -> Self {
        let mut values = ManuallyDrop::new(values);
        SharedRegion {
            ptr: NonNull::new(values.as_mut_ptr().cast()).expect("a Vec's pointer is non-null"),
            len: values.len() * mem::size_of::<f64>(),
            layout: Layout::array::<f64>(values.capacity()).expect("a Vec's layout is valid"),
        }
    }

    /// The adopted vector of a region made by [`Self::from_f64s`], as it
    /// now reads — moved out, not copied. Any other region comes back as
    /// `Err(self)`.
    pub fn into_f64s(self) -> Result<Vec<f64>, Self> {
        let lane = mem::size_of::<f64>();
        if self.layout.align() != mem::align_of::<f64>() {
            return Err(self);
        }
        let region = ManuallyDrop::new(self);
        // SAFETY: only `from_f64s` makes an f64-aligned layout: the
        // allocation is a `Vec<f64>`'s of `layout.size() / 8` lanes, of
        // which the first `len / 8` were initialized by it.
        Ok(unsafe {
            Vec::from_raw_parts(
                region.ptr.as_ptr().cast(),
                region.len / lane,
                region.layout.size() / lane,
            )
        })
    }

    /// The bytes of a region made by [`Self::new`] or [`Self::from_vec`],
    /// as they now read — moved out, not copied, spare capacity included.
    /// A region adopted from a `Vec<f64>` comes back as `Err(self)`.
    pub fn into_bytes(self) -> Result<Vec<u8>, Self> {
        if self.layout.align() != 1 {
            return Err(self);
        }
        let region = ManuallyDrop::new(self);
        // SAFETY: a byte-aligned layout is a `Vec<u8>`'s of `layout.size()`
        // bytes — adopted by `from_vec`, or allocated by `new` with the
        // layout a `Vec<u8>` of that capacity has — of which the first
        // `len` are initialized (by the `Vec`, or zeroed).
        Ok(unsafe { Vec::from_raw_parts(region.ptr.as_ptr(), region.len, region.layout.size()) })
    }

    /// Region length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region is zero-sized.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The address of byte `offset` (`offset <= len`, bounds-checked by
    /// the caller).
    #[inline]
    fn at(&self, offset: usize) -> *mut u8 {
        debug_assert!(offset <= self.len);
        // SAFETY: in bounds of the allocation, or one past its end.
        unsafe { self.ptr.as_ptr().add(offset) }
    }

    /// Write `src` at `offset`.
    ///
    /// # Safety
    /// Caller must guarantee exclusive write access to `[offset,
    /// offset+src.len())` for the duration of the call, and readers must be
    /// ordered after it (see type-level contract).
    pub unsafe fn write(&self, offset: usize, src: &[u8]) {
        assert!(
            offset + src.len() <= self.len,
            "write of {} bytes at {} exceeds region of {}",
            src.len(),
            offset,
            self.len
        );
        if src.is_empty() {
            return;
        }
        let dst = self.at(offset);
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
            offset + dst.len() <= self.len,
            "read of {} bytes at {} exceeds region of {}",
            dst.len(),
            offset,
            self.len
        );
        if dst.is_empty() {
            return;
        }
        let src = self.at(offset);
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
        let s = src.at(src_off);
        let d = self.at(dst_off);
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
            offset + len <= self.len,
            "borrow of {} bytes at {} exceeds region of {}",
            len,
            offset,
            self.len
        );
        if len == 0 {
            return f(&[]);
        }
        // SAFETY: bounds checked above, exclusivity per contract.
        unsafe { f(std::slice::from_raw_parts(self.at(offset), len)) }
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
            offset + len <= self.len,
            "borrow of {} bytes at {} exceeds region of {}",
            len,
            offset,
            self.len
        );
        if len == 0 {
            return f(&mut []);
        }
        // SAFETY: as in `with_bytes`, plus exclusive access per contract.
        unsafe { f(std::slice::from_raw_parts_mut(self.at(offset), len)) }
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

impl Drop for SharedRegion {
    fn drop(&mut self) {
        if self.layout.size() != 0 {
            // SAFETY: `ptr` was allocated with `layout` (by `new`, or by
            // the `Vec` it was adopted from) and is freed only here.
            unsafe { alloc::dealloc(self.ptr.as_ptr(), self.layout) };
        }
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
        // Exact and spare capacity: adoption never reallocates.
        for capacity in [100, 4096] {
            let mut bytes = Vec::with_capacity(capacity);
            bytes.extend(0..100u8);
            let ptr = bytes.as_ptr();
            let r = SharedRegion::from_vec(bytes);
            assert_eq!(r.len(), 100);
            unsafe {
                r.with_bytes(0, 100, |b| assert_eq!(b.as_ptr(), ptr));
                assert_eq!(r.snapshot(), (0..100).collect::<Vec<u8>>());
            }
        }
    }

    #[test]
    fn an_adopted_f64_vector_comes_back_as_it_now_reads() {
        let mut values = Vec::with_capacity(1000);
        values.extend([1.5f64, -2.0, 0.25]);
        let ptr = values.as_ptr();
        let r = SharedRegion::from_f64s(values);
        assert_eq!(r.len(), 24);
        unsafe {
            r.with_bytes(0, 24, |b| assert_eq!(b.as_ptr(), ptr.cast()));
            r.write(8, &4.0f64.to_ne_bytes());
        }
        let back = r
            .into_f64s()
            .ok()
            .expect("an adopted f64 vector comes back");
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.capacity(), 1000);
        assert_eq!(back, [1.5, 4.0, 0.25]);
    }

    #[test]
    fn only_an_adopted_f64_vector_comes_back() {
        let r = SharedRegion::new(64);
        let r = r
            .into_f64s()
            .expect_err("a zeroed byte region is no f64 vector");
        assert_eq!(r.len(), 64);
        let adopted = SharedRegion::from_vec(vec![0u8; 64]);
        assert!(adopted.into_f64s().is_err());
        let empty = SharedRegion::from_f64s(Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.into_f64s().ok(), Some(Vec::new()));
    }

    #[test]
    fn a_new_region_comes_back_as_its_bytes() {
        let r = SharedRegion::new(64);
        unsafe { r.write(60, &[1, 2, 3, 4]) };
        let bytes = r.into_bytes().ok().expect("a new region is bytes");
        assert_eq!(bytes.len(), 64);
        assert!(bytes[..60].iter().all(|&b| b == 0));
        assert_eq!(bytes[60..], [1, 2, 3, 4]);
        let zeros = SharedRegion::new(4096).into_bytes().ok();
        assert_eq!(zeros, Some(vec![0u8; 4096]));
    }

    #[test]
    fn an_adopted_vec_comes_back_with_its_capacity() {
        let mut bytes = Vec::with_capacity(4096);
        bytes.extend(0..100u8);
        let ptr = bytes.as_ptr();
        let r = SharedRegion::from_vec(bytes);
        unsafe { r.write(0, &[0xFF]) };
        let back = r.into_bytes().ok().expect("an adopted Vec comes back");
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.capacity(), 4096);
        assert_eq!(back[0], 0xFF);
        assert_eq!(back[1..], (1..100).collect::<Vec<u8>>());
    }

    #[test]
    fn only_a_byte_region_comes_back_as_bytes() {
        let r = SharedRegion::from_f64s(vec![1.5, -2.0]);
        let r = r
            .into_bytes()
            .expect_err("an adopted f64 vector is no byte vector");
        assert_eq!(r.into_f64s().ok(), Some(vec![1.5, -2.0]));
        assert!(SharedRegion::from_f64s(Vec::new()).into_bytes().is_err());
        for empty in [SharedRegion::new(0), SharedRegion::from_vec(Vec::new())] {
            assert_eq!(empty.into_bytes().ok(), Some(Vec::new()));
        }
    }

    #[test]
    fn a_new_region_reads_all_zeros() {
        for len in [0, 1, 7, 4096, 1 << 20] {
            let r = SharedRegion::new(len);
            assert_eq!(r.len(), len);
            assert!(unsafe { r.snapshot() }.iter().all(|&b| b == 0), "len {len}");
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
