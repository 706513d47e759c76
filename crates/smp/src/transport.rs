//! The inter-node transport: paced byte-chunk channels and the fabric
//! wiring them into the BG/P collective topology.
//!
//! The real machine moves collective traffic over the combining **tree**
//! (broadcast down, reduce up) and the 3-D **torus** (the ring phases of the
//! multi-color allreduce). `bgp-sim` models both as bandwidth servers; this
//! module is their *real-thread* counterpart: a [`ChunkChannel`] is a
//! bounded single-producer/single-consumer ring of fixed-size byte chunks —
//! the bounded capacity is the link's pacing window (a producer that runs
//! ahead of the consumer blocks, exactly like a full injection FIFO), and
//! the chunk size is the packetization granularity. A [`Fabric`] owns one
//! channel per directed link: tree `up`/`down` edges over a fixed binary
//! tree of node ids, plus `plus`/`minus` ring edges standing in for the
//! torus neighbor links, mirroring the `bgp-sim` server topology.
//!
//! What is real vs. modeled: the *synchronization* (slot cycle-tags with
//! release/acquire hand-off, backpressure, per-chunk copies) is real and
//! runs under the `bgp-check` model scheduler like every other primitive in
//! the workspace; the *timing* (link bandwidth, router hops) is not modeled
//! here — that remains `bgp-sim`'s job.
//!
//! ## Storage backends
//!
//! The cycle-tag protocol is written once, generic over a [`SlotStore`] —
//! the piece that says *where the slots live*:
//!
//! * [`HeapSlots`] (the default; `ChunkChannel` with no type argument) keeps
//!   the slots in process memory behind the `bgp-shmem` sync facade, so the
//!   whole protocol runs under the `bgp-check` model scheduler.
//! * `ProcSlots` (in [`crate::proc`], non-`model` builds) views the same
//!   slot layout inside an mmap'd [`bgp_shmem::proc::ShmSegment`] shared by
//!   several *processes*. The protocol code — every load, store, ordering,
//!   and mutation hook — is byte-for-byte the same generic functions; only
//!   the storage differs, which is what lets the model-checked in-process
//!   channel stand as the correctness oracle for the cross-process one.
//!
//! ## The slot-loan protocol
//!
//! The channel's primary interface is a pair of **loans** over the slot
//! buffers themselves, so protocols can produce and consume payloads *in
//! place* instead of staging them through caller-owned buffers:
//!
//! * [`reserve`](ChunkChannel::reserve) hands the producer a [`SendSlot`]
//!   guard for a declared payload length: exactly `len` bytes of the slot
//!   are writable through it, and nothing becomes visible to the consumer
//!   until [`publish`](SendSlot::publish). Dropping the guard without
//!   publishing releases the cycle cleanly — the ticket stays free and the
//!   next `reserve` returns the same slot.
//! * [`peek`](ChunkChannel::peek) hands the consumer a [`RecvSlot`] guard:
//!   tag, length, and payload are readable in place; dropping the guard
//!   retires the slot back to the producer. The guard's lifetime *is* the
//!   loan — no consumer access can outlive the retire.
//!
//! The cycle-tagged SPSC discipline already guarantees exclusivity (ticket
//! `t` owns its slot from the producer's acquire of `seq == t` to the
//! publish, and from the consumer's acquire of `seq == t + 1` to the
//! retire), so the loans add no synchronization — only access. The
//! closure-style [`send_with`](ChunkChannel::send_with) /
//! [`recv_with`](ChunkChannel::recv_with) helpers are thin wrappers over
//! the loans; a copy through them is the *caller's* copy, never the
//! transport's. Per chunk, the transport itself imposes **zero** payload
//! memcpys.

use bgp_shmem::pad::CachePadded;
use bgp_shmem::sync::atomic::{AtomicUsize, Ordering};
use bgp_shmem::sync::cell::UnsafeCell;
use bgp_shmem::{model_support, spin};

/// Where a [`ChunkChannel`]'s slots live.
///
/// An implementor provides `cap` slots of `chunk_bytes` payload each, one
/// cycle-tag `seq` word per slot, and the producer/consumer cursors. The
/// protocol layered on top never touches storage except through these
/// methods, so a store can be heap memory behind the model facade
/// ([`HeapSlots`]) or a view into an mmap'd segment shared across processes
/// (`ProcSlots` in [`crate::proc`]).
///
/// # Safety
///
/// Implementors must guarantee, for the lifetime of the store:
///
/// * `seq(i)`, `send_cursor()`, and `recv_cursor()` return references to
///   atomics at stable addresses, and `seq(i)` of a fresh store reads `i`
///   with both cursors 0 (the protocol's initial state);
/// * the header and data accessors address disjoint per-slot storage of at
///   least `chunk_bytes` payload bytes, stable for the store's lifetime and
///   shared with every other view of the same channel (for a cross-process
///   store: the same physical bytes in every mapping).
///
/// The *callers* (the protocol methods below) uphold the exclusivity
/// contract on the unsafe accessors: header/data of slot `i` are only
/// touched by the ticket that owns the slot per the cycle-tag discipline.
pub unsafe trait SlotStore: Send + Sync {
    /// Number of slots (the pacing window).
    fn cap(&self) -> usize;
    /// Payload capacity of one slot.
    fn chunk_bytes(&self) -> usize;
    /// The cycle tag of slot `i`.
    fn seq(&self, i: usize) -> &AtomicUsize;
    /// Next ticket to send; written only by the producer.
    fn send_cursor(&self) -> &AtomicUsize;
    /// Next ticket to receive; written only by the consumer.
    fn recv_cursor(&self) -> &AtomicUsize;
    /// Write slot `i`'s header (tag + payload length).
    ///
    /// # Safety
    ///
    /// Caller must own slot `i`'s cycle (producer side, before publish).
    unsafe fn set_header(&self, i: usize, tag: u64, len: usize);
    /// Read slot `i`'s header `(tag, len)`.
    ///
    /// # Safety
    ///
    /// Caller must have acquire-observed the slot as published and not yet
    /// retired it.
    unsafe fn header(&self, i: usize) -> (u64, usize);
    /// Read `len` bytes of slot `i`'s payload in place.
    ///
    /// # Safety
    ///
    /// As [`Self::header`], with `len` no larger than the published length.
    unsafe fn with_data<R>(&self, i: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R;
    /// Write `len` bytes of slot `i`'s payload in place.
    ///
    /// # Safety
    ///
    /// Caller must own slot `i`'s cycle exclusively (producer side, before
    /// publish), with `len` at most `chunk_bytes`.
    unsafe fn with_data_mut<R>(&self, i: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R;
}

/// One slot of a [`HeapSlots`] store: a cycle-tagged header plus a
/// fixed-size payload. `seq` follows the workspace's slot protocol: `t` =
/// free for ticket `t`, `t + 1` = published, `t + cap` = consumed (free for
/// ticket `t + cap`).
struct Slot {
    seq: AtomicUsize,
    tag: UnsafeCell<u64>,
    len: UnsafeCell<usize>,
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: the seq protocol orders all cell accesses (publish with Release,
// observe with Acquire), exactly as in the FIFOs of `bgp-shmem`.
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

/// The in-process slot store: heap slots behind the `bgp-shmem` sync
/// facade, so `model` builds run the whole protocol under `bgp-check`.
pub struct HeapSlots {
    slots: Box<[Slot]>,
    cap: usize,
    chunk_bytes: usize,
    send_cursor: CachePadded<AtomicUsize>,
    recv_cursor: CachePadded<AtomicUsize>,
}

impl HeapSlots {
    fn new(cap: usize, chunk_bytes: usize) -> Self {
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                tag: UnsafeCell::new(0),
                len: UnsafeCell::new(0),
                data: UnsafeCell::new(vec![0u8; chunk_bytes].into_boxed_slice()),
            })
            .collect();
        HeapSlots {
            slots,
            cap,
            chunk_bytes,
            send_cursor: CachePadded::new(AtomicUsize::new(0)),
            recv_cursor: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

// SAFETY: slots live as long as the store, `seq(i)` initializes to `i`, and
// the cell accessors hand out disjoint per-slot storage.
unsafe impl SlotStore for HeapSlots {
    #[inline]
    fn cap(&self) -> usize {
        self.cap
    }

    #[inline]
    fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    #[inline]
    fn seq(&self, i: usize) -> &AtomicUsize {
        &self.slots[i].seq
    }

    #[inline]
    fn send_cursor(&self) -> &AtomicUsize {
        &self.send_cursor
    }

    #[inline]
    fn recv_cursor(&self) -> &AtomicUsize {
        &self.recv_cursor
    }

    unsafe fn set_header(&self, i: usize, tag: u64, len: usize) {
        let slot = &self.slots[i];
        slot.tag.with_mut(|p| *p = tag);
        slot.len.with_mut(|p| *p = len);
    }

    unsafe fn header(&self, i: usize) -> (u64, usize) {
        let slot = &self.slots[i];
        (slot.tag.with(|p| *p), slot.len.with(|p| *p))
    }

    unsafe fn with_data<R>(&self, i: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        self.slots[i].data.with(|p| f(&(&*p)[..len]))
    }

    unsafe fn with_data_mut<R>(&self, i: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.slots[i].data.with_mut(|p| f(&mut (&mut *p)[..len]))
    }
}

/// A bounded SPSC channel of fixed-size byte chunks with a pacing window.
///
/// * **Single producer, single consumer** — one thread sends, one receives,
///   at any given time. The collectives uphold this by fixed endpoint
///   ownership: each directed link is produced by one node's network rank
///   and consumed by one neighbor rank.
/// * **Paced**: capacity is the link window; `send_*` blocks (spin-yield)
///   when the consumer lags by `capacity` chunks.
/// * **Tagged**: each chunk carries a `u64` tag (flow id / kind / sequence,
///   packed by the caller) so multiple flows can share a link and the
///   consumer can dispatch without consuming ([`peek_tag`](Self::peek_tag)).
/// * **Backend-generic**: the default store is the in-process [`HeapSlots`];
///   `crate::proc` instantiates the same protocol over an mmap'd segment
///   shared by separate worker processes.
pub struct ChunkChannel<S: SlotStore = HeapSlots> {
    store: S,
}

impl ChunkChannel {
    /// An in-process channel of `cap` in-flight chunks of `chunk_bytes`
    /// each.
    ///
    /// `cap` must be at least 2: with a single slot the cycle tags
    /// degenerate — round `t`'s *published* tag (`t + 1`) equals round
    /// `t + 1`'s *free* tag (`t + cap`), so a producer could reclaim a slot
    /// the consumer has not read yet (found by the `bgp-check` model).
    pub fn new(cap: usize, chunk_bytes: usize) -> Self {
        assert!(
            cap >= 2,
            "channel needs at least two slots (cycle-tag protocol)"
        );
        assert!(chunk_bytes >= 1, "chunks must hold at least one byte");
        ChunkChannel {
            store: HeapSlots::new(cap, chunk_bytes),
        }
    }
}

impl<S: SlotStore> ChunkChannel<S> {
    /// The same protocol over caller-provided storage (the cross-process
    /// backend). The store must be freshly initialized per the [`SlotStore`]
    /// contract; geometry rules are as for [`ChunkChannel::new`].
    pub fn over(store: S) -> Self {
        assert!(
            store.cap() >= 2,
            "channel needs at least two slots (cycle-tag protocol)"
        );
        assert!(
            store.chunk_bytes() >= 1,
            "chunks must hold at least one byte"
        );
        ChunkChannel { store }
    }

    /// Payload capacity of one chunk.
    #[inline]
    pub fn chunk_bytes(&self) -> usize {
        self.store.chunk_bytes()
    }

    /// In-flight chunk capacity (the pacing window).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.store.cap()
    }

    /// Chunks ever sent (producer-side view).
    pub fn sent(&self) -> usize {
        self.store.send_cursor().load(Ordering::Relaxed)
    }

    /// Chunks ever received (consumer-side view).
    pub fn received(&self) -> usize {
        self.store.recv_cursor().load(Ordering::Relaxed)
    }

    /// Consumer-side: has ticket `h` been published (and not yet retired by
    /// us)? This acquire is *the* validated load every consumer entry point
    /// goes through — `peek`, `try_peek`, and `peek_tag` all gate header
    /// access on it, so a slot mid-write by the producer is never readable.
    #[inline]
    fn published(&self, h: usize) -> bool {
        self.store.seq(h % self.store.cap()).load(Ordering::Acquire) == h + 1
    }

    /// Producer: is there room to send without blocking? Once true it stays
    /// true until this producer sends (space only grows from the producer's
    /// point of view), so it can safely gate work that must not block.
    pub fn can_send(&self) -> bool {
        let t = self.store.send_cursor().load(Ordering::Relaxed);
        self.store.seq(t % self.store.cap()).load(Ordering::Acquire) == t
    }

    /// Producer: loan the next slot for an in-place write of `len` payload
    /// bytes, blocking while the window is full. The loan exposes exactly
    /// `len` bytes — never the rest of the slot, whose contents are stale
    /// payloads from prior tickets. Nothing is visible to the consumer
    /// until [`SendSlot::publish`]; dropping the guard unpublished releases
    /// the cycle cleanly (the ticket stays free).
    pub fn reserve(&self, len: usize) -> SendSlot<'_, S> {
        self.check_len(len);
        let t = self.store.send_cursor().load(Ordering::Relaxed);
        let seq = self.store.seq(t % self.store.cap());
        while seq.load(Ordering::Acquire) != t {
            spin();
        }
        SendSlot { ch: self, t, len }
    }

    /// Producer: loan the next slot for `len` payload bytes if the window
    /// has room, `None` when full.
    pub fn try_reserve(&self, len: usize) -> Option<SendSlot<'_, S>> {
        self.check_len(len);
        let t = self.store.send_cursor().load(Ordering::Relaxed);
        if self.store.seq(t % self.store.cap()).load(Ordering::Acquire) != t {
            return None;
        }
        Some(SendSlot { ch: self, t, len })
    }

    #[inline]
    fn check_len(&self, len: usize) {
        assert!(
            len <= self.store.chunk_bytes(),
            "chunk of {len} bytes exceeds channel chunk size {}",
            self.store.chunk_bytes()
        );
    }

    /// Producer: publish a chunk, blocking while the window is full. `fill`
    /// writes the payload directly into the slot (it receives exactly `len`
    /// bytes of it — every byte it is handed is exactly what `publish`
    /// exposes, so covering the slice covers the chunk).
    pub fn send_with(&self, tag: u64, len: usize, fill: impl FnOnce(&mut [u8])) {
        let mut s = self.reserve(len);
        s.with_bytes_mut(fill);
        s.publish(tag);
    }

    /// Producer: publish a chunk if the window has room; returns `false`
    /// (without calling `fill`) when full.
    pub fn try_send_with(&self, tag: u64, len: usize, fill: impl FnOnce(&mut [u8])) -> bool {
        let Some(mut s) = self.try_reserve(len) else {
            return false;
        };
        s.with_bytes_mut(fill);
        s.publish(tag);
        true
    }

    /// Consumer: the tag of the next chunk, if one is ready. Does not
    /// consume — the dispatch primitive for links shared by several flows.
    /// Routed through the same acquire-validated cycle check as
    /// [`peek`](Self::peek): without it, a concurrent producer mid-publish
    /// could yield a stale or torn tag.
    pub fn peek_tag(&self) -> Option<u64> {
        let h = self.store.recv_cursor().load(Ordering::Relaxed);
        // Seeded bug: the unvalidated read peek_tag originally shipped with
        // — skipping the published() gate makes the header load race the
        // producer's header write, which the model checker reports.
        if !model_support::seeded("chunk_peek_tag_unvalidated") && !self.published(h) {
            return None;
        }
        // SAFETY: published and not yet consumed — header is stable.
        Some(unsafe { self.store.header(h % self.store.cap()) }.0)
    }

    /// Consumer: loan the next published chunk for in-place reads, blocking
    /// until one is published. The slot retires (returns to the producer)
    /// when the guard drops.
    pub fn peek(&self) -> RecvSlot<'_, S> {
        let h = self.store.recv_cursor().load(Ordering::Relaxed);
        while !self.published(h) {
            spin();
        }
        RecvSlot::acquired(self, h)
    }

    /// Consumer: loan the next chunk if one is published, `None` otherwise.
    pub fn try_peek(&self) -> Option<RecvSlot<'_, S>> {
        let h = self.store.recv_cursor().load(Ordering::Relaxed);
        if !self.published(h) {
            return None;
        }
        Some(RecvSlot::acquired(self, h))
    }

    /// Consumer: receive the next chunk, blocking until one is published.
    /// `f` reads the payload in place (no intermediate copy); the slot is
    /// recycled after it returns.
    pub fn recv_with<R>(&self, f: impl FnOnce(u64, &[u8]) -> R) -> R {
        let s = self.peek();
        s.with_bytes(|b| f(s.tag(), b))
    }

    /// Consumer: receive if a chunk is ready; `None` (without calling `f`)
    /// otherwise.
    pub fn try_recv_with<R>(&self, f: impl FnOnce(u64, &[u8]) -> R) -> Option<R> {
        let s = self.try_peek()?;
        Some(s.with_bytes(|b| f(s.tag(), b)))
    }
}

/// A producer's loan of one channel slot (see [`ChunkChannel::reserve`]).
///
/// The cycle-tag acquire in `reserve` made ticket `t`'s slot exclusively
/// ours; writes through [`with_bytes_mut`](Self::with_bytes_mut) land
/// directly in the slot buffer, clamped to the `len` declared at `reserve` —
/// stale bytes beyond it (payloads from `cap` tickets ago) are never handed
/// out as writable scratch. [`publish`](Self::publish) makes those `len`
/// bytes (plus the tag) visible to the consumer and advances the window;
/// dropping the guard without publishing leaves the ticket free — the next
/// `reserve` re-loans the same slot, so an abandoned loan costs nothing.
///
/// SPSC discipline: at most one `SendSlot` may be live per channel (a
/// second `reserve` before `publish` would loan the same ticket twice).
pub struct SendSlot<'a, S: SlotStore = HeapSlots> {
    ch: &'a ChunkChannel<S>,
    t: usize,
    len: usize,
}

impl<S: SlotStore> SendSlot<'_, S> {
    /// Payload capacity of the loaned slot (the channel's chunk size).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ch.store.chunk_bytes()
    }

    /// The payload length declared at `reserve` — what `publish` will ship
    /// and exactly how many bytes [`with_bytes_mut`](Self::with_bytes_mut)
    /// exposes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the loan carries no payload.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write the slot payload in place. The slice covers exactly the `len`
    /// bytes declared at `reserve`. The slot is *not* zeroed between loans:
    /// within that slice, bytes the closure does not write still hold the
    /// payload from `cap` tickets ago.
    pub fn with_bytes_mut<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let i = self.t % self.ch.store.cap();
        // SAFETY: ticket t owns this slot exclusively until publish, and
        // len was checked against chunk_bytes at reserve.
        unsafe { self.ch.store.with_data_mut(i, self.len, f) }
    }

    /// Publish the loaned bytes under `tag` and advance the window.
    pub fn publish(self, tag: u64) {
        let ch = self.ch;
        let i = self.t % ch.store.cap();
        // SAFETY: seq == t means ticket t owns the slot exclusively.
        unsafe { ch.store.set_header(i, tag, self.len) };
        // Seeded bug: a relaxed publication no longer carries the payload.
        let order = model_support::relaxed_if("chunk_publish_relaxed", Ordering::Release);
        ch.store.seq(i).store(self.t + 1, order);
        ch.store.send_cursor().store(self.t + 1, Ordering::Relaxed);
    }
}

/// A consumer's loan of one published chunk (see [`ChunkChannel::peek`]).
///
/// Tag, length, and payload are readable in place for the guard's
/// lifetime; dropping it retires the slot back to the producer. No access
/// can outlive the retire — the borrow checker enforces what the FIFO
/// protocol promises.
pub struct RecvSlot<'a, S: SlotStore = HeapSlots> {
    ch: &'a ChunkChannel<S>,
    h: usize,
    tag: u64,
    len: usize,
}

impl<'a, S: SlotStore> RecvSlot<'a, S> {
    /// Build the guard after the `seq == h + 1` acquire (header is stable
    /// until we retire).
    fn acquired(ch: &'a ChunkChannel<S>, h: usize) -> Self {
        // SAFETY: published and exclusively ours until the retire on drop.
        let (tag, len) = unsafe { ch.store.header(h % ch.store.cap()) };
        RecvSlot { ch, h, tag, len }
    }

    /// The chunk's tag.
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The chunk's payload length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the chunk carries no payload.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read the payload in place (exactly [`len`](Self::len) bytes).
    pub fn with_bytes<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let i = self.h % self.ch.store.cap();
        // SAFETY: the Acquire of seq == h + 1 ordered us after the
        // producer's writes; the producer cannot touch the slot again
        // until the release store in drop.
        unsafe { self.ch.store.with_data(i, self.len, f) }
    }
}

impl<S: SlotStore> Drop for RecvSlot<'_, S> {
    fn drop(&mut self) {
        let ch = self.ch;
        let i = self.h % ch.store.cap();
        // Seeded bug: a relaxed retire lets the producer's next-round write
        // race the reads this guard performed.
        let order = model_support::relaxed_if("chunk_retire_relaxed", Ordering::Release);
        ch.store.seq(i).store(self.h + ch.store.cap(), order);
        ch.store.recv_cursor().store(self.h + 1, Ordering::Relaxed);
    }
}

/// Per-operation chunk tags for links multiplexing many in-flight
/// operations (the nonblocking scheduler in `bgp-sched`).
///
/// The blocking collectives own every link for the duration of one call, so
/// a bare chunk index (or a small color/kind pack) suffices as a tag. Once
/// operations overlap, a consumer must be able to dispatch any arriving
/// chunk to the right operation *without consuming it* — so the tag carries
/// the operation id, a kind (broadcast data / allreduce partial / allreduce
/// full), and the chunk sequence number:
///
/// ```text
/// bit 63..26: op id      (38 bits, monotone, never reused)
/// bit 25..24: kind       (2 bits)
/// bit 23..0 : chunk seq  (24 bits → 16M chunks per op)
/// ```
pub mod optag {
    use crate::wire::Kind;

    /// Broadcast payload chunk.
    pub const KIND_DATA: u64 = 0;
    /// Allreduce partial (accumulating hop by hop along the ring).
    pub const KIND_PARTIAL: u64 = 1;
    /// Allreduce fully-reduced chunk circulating back.
    pub const KIND_FULL: u64 = 2;

    const KIND_SHIFT: u32 = 24;
    const OP_SHIFT: u32 = 26;
    const K_MASK: u64 = (1 << KIND_SHIFT) - 1;

    /// Pack an operation id, kind, and chunk sequence into a link tag.
    #[inline]
    pub fn pack(op: u64, kind: u64, k: usize) -> u64 {
        debug_assert!(op < (1 << (64 - OP_SHIFT)), "op id overflows the tag");
        debug_assert!(kind < 4);
        debug_assert!((k as u64) < (1 << KIND_SHIFT), "chunk seq overflows");
        (op << OP_SHIFT) | (kind << KIND_SHIFT) | k as u64
    }

    /// Unpack a link tag into `(op, kind, chunk seq)`.
    #[inline]
    pub fn unpack(tag: u64) -> (u64, u64, usize) {
        (
            tag >> OP_SHIFT,
            (tag >> KIND_SHIFT) & 0x3,
            (tag & K_MASK) as usize,
        )
    }

    /// The tag kind of a [`crate::wire`] ring chunk.
    #[inline]
    pub fn of_ring(kind: Kind) -> u64 {
        match kind {
            Kind::Partial => KIND_PARTIAL,
            Kind::Full => KIND_FULL,
        }
    }

    /// The ring kind a tag kind stands for: whatever is not a partial is
    /// final data.
    #[inline]
    pub fn ring_kind(kind: u64) -> Kind {
        if kind == KIND_PARTIAL {
            Kind::Partial
        } else {
            Kind::Full
        }
    }
}

/// Ring direction over the node ids (the torus stand-in): `Plus` sends
/// `v → (v+1) mod m`, `Minus` sends `v → (v-1) mod m`. The multi-color
/// allreduce runs different colors in different directions to use both
/// links at once (§V-C).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RingDir {
    /// Ascending node ids (wraps at `m-1 → 0`).
    Plus,
    /// Descending node ids (wraps at `0 → m-1`).
    Minus,
}

/// The inter-node link fabric: one [`ChunkChannel`] per directed link.
///
/// Tree links follow a fixed binary tree over node ids (`parent(v) =
/// (v-1)/2`, children `2v+1`/`2v+2` — the same shape `bgp-sim` gives its
/// tree network): `up[v]` carries `v → parent(v)`, `down[v]` carries
/// `parent(v) → v`. Ring links `plus[v]`/`minus[v]` connect ring neighbors
/// in each direction. Broadcast routing for an arbitrary root is computed
/// per operation by re-rooting the fixed tree: every non-root node receives
/// on the one port facing the root and forwards on all other incident
/// ports.
///
/// Like the channel itself, the fabric is generic over the slot store:
/// `Fabric` (default) wires in-process links; `crate::proc` attaches the
/// identical link set over one mmap'd segment so each node can live in its
/// own OS process.
pub struct Fabric<S: SlotStore = HeapSlots> {
    m: usize,
    chunk_bytes: usize,
    /// `up[v]`: v → parent(v). `None` for v = 0.
    up: Vec<Option<ChunkChannel<S>>>,
    /// `down[v]`: parent(v) → v. `None` for v = 0.
    down: Vec<Option<ChunkChannel<S>>>,
    /// `plus[v]`: v → (v+1) mod m. Empty when m == 1.
    plus: Vec<ChunkChannel<S>>,
    /// `minus[v]`: v → (v-1) mod m. Empty when m == 1.
    minus: Vec<ChunkChannel<S>>,
}

impl Fabric {
    /// An in-process fabric over `m` nodes with `window`-chunk links of
    /// `chunk_bytes` per chunk.
    pub fn new(m: usize, chunk_bytes: usize, window: usize) -> Self {
        assert!(m >= 1, "a fabric needs at least one node");
        let tree_link = |v: usize| {
            if v == 0 {
                None
            } else {
                Some(ChunkChannel::new(window, chunk_bytes))
            }
        };
        let ring = |m: usize| -> Vec<ChunkChannel> {
            if m > 1 {
                (0..m)
                    .map(|_| ChunkChannel::new(window, chunk_bytes))
                    .collect()
            } else {
                Vec::new()
            }
        };
        Fabric {
            m,
            chunk_bytes,
            up: (0..m).map(tree_link).collect(),
            down: (0..m).map(tree_link).collect(),
            plus: ring(m),
            minus: ring(m),
        }
    }
}

impl<S: SlotStore> Fabric<S> {
    /// Assemble a fabric from pre-built links (the cross-process attach
    /// path in `crate::proc`). Link vectors must follow the `new` shape:
    /// `up[0]`/`down[0]` are `None`, ring vectors are empty iff `m == 1`.
    // `crate::proc` is compiled out under the model facade (real syscalls).
    #[cfg_attr(feature = "model", allow(dead_code))]
    pub(crate) fn from_links(
        m: usize,
        chunk_bytes: usize,
        up: Vec<Option<ChunkChannel<S>>>,
        down: Vec<Option<ChunkChannel<S>>>,
        plus: Vec<ChunkChannel<S>>,
        minus: Vec<ChunkChannel<S>>,
    ) -> Self {
        assert!(m >= 1, "a fabric needs at least one node");
        assert_eq!(up.len(), m);
        assert_eq!(down.len(), m);
        assert_eq!(plus.len(), if m > 1 { m } else { 0 });
        assert_eq!(minus.len(), plus.len());
        Fabric {
            m,
            chunk_bytes,
            up,
            down,
            plus,
            minus,
        }
    }

    /// Node count.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.m
    }

    /// Payload capacity of every link's chunks.
    #[inline]
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Chunks ever sent across *all* links of the fabric (diagnostic: lets
    /// tests assert that degenerate operations — zero-length broadcasts,
    /// empty reductions — never touch the network).
    pub fn total_chunks_sent(&self) -> usize {
        let tree: usize = self
            .up
            .iter()
            .chain(self.down.iter())
            .flatten()
            .map(|ch| ch.sent())
            .sum();
        let ring: usize = self
            .plus
            .iter()
            .chain(self.minus.iter())
            .map(|ch| ch.sent())
            .sum();
        tree + ring
    }

    /// Tree parent of `v` (v > 0).
    pub fn parent(v: usize) -> usize {
        debug_assert!(v > 0);
        (v - 1) / 2
    }

    /// Tree children of `v` that exist in an `m`-node fabric.
    pub fn children(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        [2 * v + 1, 2 * v + 2].into_iter().filter(|&c| c < self.m)
    }

    /// The tree neighbor of `v` on the path toward `root` (v ≠ root): walk
    /// `root` upward; if the walk passes through `v`, the previous hop is
    /// the child of `v` facing the root, otherwise the path leaves `v`
    /// through its parent.
    fn toward(v: usize, root: usize) -> usize {
        debug_assert_ne!(v, root);
        let mut x = root;
        while x != v && x != 0 {
            let p = Self::parent(x);
            if p == v {
                return x;
            }
            x = p;
        }
        debug_assert_ne!(v, 0, "the tree root reaches every node downward");
        Self::parent(v)
    }

    /// The channel a non-root node `v` receives broadcast chunks on when
    /// the broadcast is rooted at node `root`.
    pub fn bcast_in(&self, v: usize, root: usize) -> &ChunkChannel<S> {
        assert_ne!(v, root, "the root has no inbound broadcast port");
        let t = Self::toward(v, root);
        if v > 0 && t == Self::parent(v) {
            self.down[v].as_ref().expect("v > 0 has a down link")
        } else {
            // t is the child of v facing the root: chunks flow up from it.
            self.up[t].as_ref().expect("children have up links")
        }
    }

    /// The channels node `v` forwards (or, at the root, injects) broadcast
    /// chunks on: every incident tree port except the inbound one.
    pub fn bcast_out(&self, v: usize, root: usize) -> Vec<&ChunkChannel<S>> {
        let toward = if v == root {
            None
        } else {
            Some(Self::toward(v, root))
        };
        let mut out = Vec::new();
        for c in self.children(v) {
            if Some(c) != toward {
                out.push(self.down[c].as_ref().expect("children have down links"));
            }
        }
        if v > 0 && Some(Self::parent(v)) != toward {
            out.push(self.up[v].as_ref().expect("v > 0 has an up link"));
        }
        out
    }

    /// The ring channel node `v` sends on in direction `dir` (m > 1).
    pub fn ring_send(&self, v: usize, dir: RingDir) -> &ChunkChannel<S> {
        match dir {
            RingDir::Plus => &self.plus[v],
            RingDir::Minus => &self.minus[v],
        }
    }

    /// The ring channel node `v` receives on in direction `dir` (m > 1):
    /// the sending channel of its upstream neighbor.
    pub fn ring_recv(&self, v: usize, dir: RingDir) -> &ChunkChannel<S> {
        match dir {
            RingDir::Plus => &self.plus[(v + self.m - 1) % self.m],
            RingDir::Minus => &self.minus[(v + 1) % self.m],
        }
    }

    /// Node `v`'s 0-based position along the ring in direction `dir`
    /// (position 0 is node 0 in both directions; the chain visits nodes in
    /// link order).
    pub fn ring_pos(&self, v: usize, dir: RingDir) -> usize {
        match dir {
            RingDir::Plus => v,
            RingDir::Minus => (self.m - v) % self.m,
        }
    }

    /// The node at ring position `pos` in direction `dir`.
    pub fn ring_node(&self, pos: usize, dir: RingDir) -> usize {
        match dir {
            RingDir::Plus => pos,
            RingDir::Minus => (self.m - pos) % self.m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn chunk_round_trip_preserves_tag_len_payload() {
        let ch = ChunkChannel::new(4, 64);
        assert!(ch.can_send());
        ch.send_with(0xBEEF, 5, |d| d.copy_from_slice(b"hello"));
        assert_eq!(ch.peek_tag(), Some(0xBEEF));
        let got = ch.recv_with(|tag, bytes| (tag, bytes.to_vec()));
        assert_eq!(got, (0xBEEF, b"hello".to_vec()));
        assert_eq!(ch.sent(), 1);
        assert_eq!(ch.received(), 1);
    }

    #[test]
    fn try_send_respects_window_and_recv_frees_it() {
        let ch = ChunkChannel::new(2, 8);
        assert!(ch.try_send_with(1, 1, |d| d[0] = 1));
        assert!(ch.try_send_with(2, 1, |d| d[0] = 2));
        assert!(!ch.can_send());
        assert!(!ch.try_send_with(3, 1, |_| panic!("fill must not run on a full window")));
        assert_eq!(ch.recv_with(|t, b| (t, b[0])), (1, 1));
        assert!(ch.can_send());
        assert!(ch.try_send_with(3, 1, |d| d[0] = 3));
        assert_eq!(ch.recv_with(|t, b| (t, b[0])), (2, 2));
        assert_eq!(ch.recv_with(|t, b| (t, b[0])), (3, 3));
        assert_eq!(ch.try_recv_with(|_, _| ()), None);
        assert_eq!(ch.peek_tag(), None);
    }

    #[test]
    fn paced_stream_across_threads_stays_in_order() {
        let ch = Arc::new(ChunkChannel::new(3, 16));
        let chunks = bgp_shmem::testing::stress_iters(10_000);
        let producer = {
            let ch = ch.clone();
            thread::spawn(move || {
                for k in 0..chunks {
                    ch.send_with(k as u64, 8, |d| {
                        d.copy_from_slice(&(k as u64).to_ne_bytes())
                    });
                }
            })
        };
        for k in 0..chunks {
            ch.recv_with(|tag, bytes| {
                assert_eq!(tag, k as u64);
                assert_eq!(bytes, (k as u64).to_ne_bytes());
            });
        }
        producer.join().unwrap();
    }

    #[test]
    fn zero_len_chunks_are_valid() {
        let ch = ChunkChannel::new(2, 4);
        ch.send_with(7, 0, |d| assert!(d.is_empty()));
        ch.recv_with(|tag, bytes| {
            assert_eq!(tag, 7);
            assert!(bytes.is_empty());
        });
    }

    #[test]
    #[should_panic(expected = "exceeds channel chunk size")]
    fn oversized_chunk_is_rejected() {
        let ch = ChunkChannel::new(2, 4);
        ch.send_with(0, 5, |_| {});
    }

    #[test]
    #[should_panic(expected = "exceeds channel chunk size")]
    fn oversized_reserve_is_rejected() {
        let ch = ChunkChannel::new(2, 4);
        let _ = ch.reserve(5);
    }

    #[test]
    fn loan_round_trip_in_place() {
        let ch = ChunkChannel::new(2, 16);
        for round in 0..5u64 {
            let mut s = ch.reserve(9);
            assert_eq!(s.capacity(), 16);
            assert_eq!(s.len(), 9);
            s.with_bytes_mut(|b| {
                for (i, x) in b.iter_mut().enumerate() {
                    *x = round as u8 ^ i as u8;
                }
            });
            s.publish(round);
            let r = ch.peek();
            assert_eq!(r.tag(), round);
            assert_eq!(r.len(), 9);
            assert!(!r.is_empty());
            r.with_bytes(|b| {
                assert_eq!(b.len(), 9);
                for (i, x) in b.iter().enumerate() {
                    assert_eq!(*x, round as u8 ^ i as u8);
                }
            });
            drop(r);
        }
        assert_eq!(ch.sent(), 5);
        assert_eq!(ch.received(), 5);
    }

    #[test]
    fn send_loan_is_clamped_to_declared_len() {
        // The producer loan must expose exactly the declared length — the
        // rest of the slot holds stale bytes from prior messages and
        // handing them out as writable scratch was the §IV loan bug this
        // test pins. (Fails on the unclamped SendSlot::with_bytes_mut,
        // which handed out the full chunk capacity.)
        let ch = ChunkChannel::new(2, 16);
        ch.send_with(0, 16, |d| d.fill(0x55));
        ch.recv_with(|_, _| ());
        let mut s = ch.reserve(3);
        s.with_bytes_mut(|b| {
            assert_eq!(b.len(), 3, "loan exposes declared len, not capacity");
            b.copy_from_slice(b"abc");
        });
        s.publish(1);
        ch.recv_with(|t, b| {
            assert_eq!(t, 1);
            assert_eq!(b, b"abc");
        });
    }

    #[test]
    fn abandoned_send_loan_releases_the_cycle() {
        let ch = ChunkChannel::new(2, 8);
        {
            let mut s = ch.reserve(8);
            s.with_bytes_mut(|b| b.fill(0xAA));
            // Dropped without publish: nothing reaches the consumer.
        }
        assert_eq!(ch.sent(), 0);
        assert_eq!(ch.peek_tag(), None);
        assert!(ch.try_peek().is_none());
        // The same ticket is re-loanable and works normally.
        ch.send_with(3, 2, |d| d.copy_from_slice(b"ok"));
        assert_eq!(ch.recv_with(|t, b| (t, b.to_vec())), (3, b"ok".to_vec()));
    }

    #[test]
    fn recv_loan_holds_the_window_until_drop() {
        let ch = ChunkChannel::new(2, 4);
        ch.send_with(1, 1, |d| d[0] = 1);
        ch.send_with(2, 1, |d| d[0] = 2);
        assert!(!ch.can_send());
        let r = ch.peek();
        assert_eq!(r.tag(), 1);
        // The loan is still live: the slot has not retired yet.
        assert!(!ch.can_send());
        assert_eq!(ch.received(), 0);
        drop(r);
        assert_eq!(ch.received(), 1);
        assert!(ch.can_send());
        assert_eq!(ch.recv_with(|t, b| (t, b[0])), (2, 2));
    }

    #[test]
    fn zero_len_loans_are_valid() {
        let ch = ChunkChannel::new(2, 4);
        let s = ch.reserve(0);
        assert!(s.is_empty());
        s.publish(9);
        let r = ch.peek();
        assert_eq!((r.tag(), r.len(), r.is_empty()), (9, 0, true));
        r.with_bytes(|b| assert!(b.is_empty()));
    }

    #[test]
    fn slot_bytes_are_not_rezeroed_between_loans() {
        // The protocol promises no per-loan initialization: within the
        // declared length, bytes a fill does not write survive from `cap`
        // tickets ago. Pin that down so a "helpful" pre-zero (a pure copy
        // bug) cannot sneak back in.
        let ch = ChunkChannel::new(2, 4);
        ch.send_with(0, 4, |d| d.copy_from_slice(b"wxyz"));
        ch.recv_with(|_, _| ());
        ch.send_with(0, 4, |d| d.copy_from_slice(b"competing"[..4].as_ref()));
        ch.recv_with(|_, _| ());
        // Ticket 2 reuses ticket 0's slot; declare the full width but only
        // write the first byte — the rest must still read "xyz".
        let mut s = ch.reserve(4);
        s.with_bytes_mut(|b| b[0] = b'!');
        s.publish(0);
        ch.recv_with(|_, b| assert_eq!(b, b"!xyz"));
    }

    #[test]
    fn tree_routing_covers_every_node_from_every_root() {
        // For each root, following bcast_in/bcast_out edges must form a
        // spanning tree: every non-root node's in-port is some other node's
        // out-port, and each node forwards on all remaining incident ports.
        for m in 1..=9usize {
            let f = Fabric::new(m, 64, 2);
            for root in 0..m {
                let mut in_ports: Vec<*const ChunkChannel> = Vec::new();
                let mut out_ports: Vec<*const ChunkChannel> = Vec::new();
                for v in 0..m {
                    if v != root {
                        in_ports.push(f.bcast_in(v, root) as *const _);
                    }
                    for ch in f.bcast_out(v, root) {
                        out_ports.push(ch as *const _);
                    }
                }
                assert_eq!(in_ports.len(), m - 1, "m={m} root={root}");
                assert_eq!(out_ports.len(), m - 1, "m={m} root={root}");
                let mut matched = 0;
                for p in &in_ports {
                    assert!(
                        out_ports.contains(p),
                        "unmatched in-port (m={m} root={root})"
                    );
                    matched += 1;
                }
                assert_eq!(matched, m - 1);
            }
        }
    }

    #[test]
    fn ring_geometry_is_consistent() {
        for m in 2..=5usize {
            let f = Fabric::new(m, 32, 2);
            for dir in [RingDir::Plus, RingDir::Minus] {
                for v in 0..m {
                    let pos = f.ring_pos(v, dir);
                    assert_eq!(f.ring_node(pos, dir), v);
                    // My send channel is my downstream neighbor's recv.
                    let succ = f.ring_node((pos + 1) % m, dir);
                    assert!(std::ptr::eq(f.ring_send(v, dir), f.ring_recv(succ, dir)));
                }
                // Positions are a permutation of 0..m.
                let mut seen: Vec<usize> = (0..m).map(|v| f.ring_pos(v, dir)).collect();
                seen.sort_unstable();
                assert_eq!(seen, (0..m).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn optag_round_trips() {
        for (op, kind, k) in [
            (0u64, optag::KIND_DATA, 0usize),
            (1, optag::KIND_PARTIAL, 7),
            (123_456_789, optag::KIND_FULL, (1 << 24) - 1),
        ] {
            let tag = optag::pack(op, kind, k);
            assert_eq!(optag::unpack(tag), (op, kind, k));
        }
        // Distinct ops never collide even at equal kind/seq.
        assert_ne!(optag::pack(5, 0, 3), optag::pack(6, 0, 3));
    }

    #[test]
    fn toward_picks_the_root_facing_port() {
        let f = Fabric::new(7, 16, 2);
        // Tree: 0-(1,2), 1-(3,4), 2-(5,6).
        assert_eq!(Fabric::<HeapSlots>::toward(0, 5), 2);
        assert_eq!(Fabric::<HeapSlots>::toward(1, 5), 0);
        assert_eq!(Fabric::<HeapSlots>::toward(3, 4), 1);
        assert_eq!(Fabric::<HeapSlots>::toward(5, 6), 2);
        assert_eq!(Fabric::<HeapSlots>::toward(2, 5), 5);
        assert_eq!(Fabric::<HeapSlots>::toward(6, 0), 2);
        let _ = f;
    }
}
