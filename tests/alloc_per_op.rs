//! Allocation budgets at steady state.
//!
//! A counting global allocator (std only) sums the bytes every thread
//! allocates, and the allocation calls the cluster's rank threads make. The
//! blocking node allreduces loop 4 MiB ops after a warm-up: each result byte
//! is written straight into the callers' outputs, so an op may allocate its
//! small bookkeeping (the `Vec`s of mapped windows) but never a result-sized
//! region. So do the nonblocking engine's broadcasts and allreduces, whose
//! results land in a member's own buffer. A small engine op allocates no
//! counter — each node's bank recycles the op's counter block — and a
//! broadcast nothing at all. A service op moves its results: a broadcast
//! allocates only the region a non-root member receives into, and a
//! steady-state allreduce nothing payload-sized, since each member's output
//! is a spent input of an earlier op.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use bgp_collectives::sched::{CollectiveServer, Request, Sched, ServerConfig, DEFAULT_TENANT};
use bgp_collectives::shmem::SharedRegion;
use bgp_collectives::smp::{Cluster, ClusterCtx, SenseBarrier};
use bgp_collectives::svc::Service;

/// Bytes handed out by the allocator since the process started.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) made on a
/// [`RANK`] thread since the process started.
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Do this thread's allocation calls count? Only the rank threads of
    /// the cluster under test say so: the test harness spawns and retires
    /// its own threads while a count runs.
    static RANK: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    if RANK.with(Cell::get) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 4 MiB of doubles.
const COUNT: usize = 512 << 10;
/// Ops before the count starts (window caches and registry tables grown).
const WARM: usize = 2;
/// Ops counted.
const OPS: u64 = 8;
/// The per-op budget: bookkeeping only.
const BUDGET: u64 = 4 << 10;

/// The allocator is process-wide, so the tests of this binary take turns.
static SERIAL: Mutex<()> = Mutex::new(());

type Allreduce = fn(&mut ClusterCtx, &Arc<SharedRegion>, &Arc<SharedRegion>, usize);

/// Bytes allocated by all threads per steady-state `op` on an `m` x `n`
/// cluster.
fn bytes_per_op(m: usize, n: usize, op: Allreduce) -> u64 {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = Cluster::new(m, n);
    let bar = Arc::new(SenseBarrier::new(m * n));
    let counted = cluster.run(move |c| {
        let mut tok = bar.token();
        let input = c.intra().alloc_buffer(COUNT * 8);
        let output = c.intra().alloc_buffer(COUNT * 8);
        for _ in 0..WARM {
            op(c, &input, &output, COUNT);
        }
        let first = c.global_rank() == 0;
        bar.wait(&mut tok);
        let before = ALLOCATED.load(Ordering::Relaxed);
        bar.wait(&mut tok);
        for _ in 0..OPS {
            op(c, &input, &output, COUNT);
        }
        bar.wait(&mut tok);
        let after = ALLOCATED.load(Ordering::Relaxed);
        first.then_some(after - before)
    });
    counted.into_iter().flatten().flatten().sum::<u64>() / OPS
}

fn assert_within_budget(what: &str, m: usize, n: usize, op: Allreduce) {
    let per_op = bytes_per_op(m, n, op);
    assert!(
        per_op < BUDGET,
        "{what} on {m}x{n} allocates {per_op} B per 4 MiB op (budget {BUDGET} B)"
    );
}

#[test]
fn rank_allreduce_allocates_no_result_region() {
    assert_within_budget("RankCtx::allreduce_f64", 1, 2, |c, i, o, n| {
        c.intra().allreduce_f64(i, o, n)
    });
}

#[test]
fn cluster_allreduce_allocates_no_colour_buffer_across_one_rank_nodes() {
    assert_within_budget("ClusterCtx::allreduce_f64", 2, 1, |c, i, o, n| {
        c.allreduce_f64(i, o, n)
    });
}

#[test]
fn cluster_allreduce_allocates_no_colour_buffer_across_two_rank_nodes() {
    assert_within_budget("ClusterCtx::allreduce_f64", 2, 2, |c, i, o, n| {
        c.allreduce_f64(i, o, n)
    });
}

/// One depth-1 nonblocking op of `bytes` bytes, posted on a rank's
/// long-lived `Sched` over `group`, its `i`-th of the loop; `bufs` are the
/// rank's two `bytes`-byte regions.
type Nonblocking = fn(&mut Sched, &[usize], [&Arc<SharedRegion>; 2], usize, usize) -> Request;

/// Allocation calls of the cluster's rank threads and bytes of all threads
/// over [`OPS`] steady-state nonblocking `op`s of `bytes` bytes on an `m` x
/// `n` cluster, every rank a member, with a barrier between ops.
fn sched_allocs(m: usize, n: usize, bytes: usize, op: Nonblocking) -> (u64, u64) {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = Cluster::new(m, n);
    let bar = Arc::new(SenseBarrier::new(m * n));
    let counted = cluster.run(move |c| {
        RANK.set(true);
        let mut tok = bar.token();
        let group: Vec<usize> = (0..n).collect();
        let bufs = [0, 1].map(|_| Arc::new(SharedRegion::new(bytes)));
        let mut sched = Sched::new(c);
        let mut step = |i| {
            let req = op(&mut sched, &group, [&bufs[0], &bufs[1]], bytes, i);
            sched.wait(req);
        };
        for i in 0..WARM {
            step(i);
            bar.wait(&mut tok);
        }
        let first = c.global_rank() == 0;
        let read = || [&CALLS, &ALLOCATED].map(|a| a.load(Ordering::Relaxed));
        let before = read();
        bar.wait(&mut tok);
        for i in WARM..WARM + OPS as usize {
            step(i);
            bar.wait(&mut tok);
        }
        let after = read();
        RANK.set(false);
        first.then_some((after[0] - before[0], after[1] - before[1]))
    });
    counted.into_iter().flatten().flatten().next().unwrap()
}

/// The nonblocking per-op budget: bookkeeping only.
const SCHED_BUDGET: u64 = 8 << 10;

fn assert_sched_within_budget(what: &str, m: usize, n: usize, op: Nonblocking) {
    let per_op = sched_allocs(m, n, COUNT * 8, op).1 / OPS;
    assert!(
        per_op < SCHED_BUDGET,
        "{what} on {m}x{n} allocates {per_op} B per 4 MiB op (budget {SCHED_BUDGET} B)"
    );
}

/// A small op allocates at most `budget` times per op, cluster-wide.
fn assert_sched_calls_within(
    what: &str,
    m: usize,
    n: usize,
    bytes: usize,
    op: Nonblocking,
    budget: u64,
) {
    let (calls, b) = sched_allocs(m, n, bytes, op);
    assert!(
        calls <= budget * OPS,
        "{what} of {bytes} B on {m}x{n} allocates {calls} times in {OPS} ops \
         ({b} B; budget {budget} per op)"
    );
}

/// Roots alternate between the two nodes.
fn ibcast(
    s: &mut Sched,
    group: &[usize],
    [buf, _]: [&Arc<SharedRegion>; 2],
    bytes: usize,
    i: usize,
) -> Request {
    s.ibcast(group, i % 2, 0, Some(buf), bytes).unwrap()
}

fn iallreduce(
    s: &mut Sched,
    group: &[usize],
    [i, o]: [&Arc<SharedRegion>; 2],
    bytes: usize,
    _: usize,
) -> Request {
    s.iallreduce(group, Some(i), Some(o), bytes / 8).unwrap()
}

#[test]
fn ibcast_lands_in_member_buffers_across_one_rank_nodes() {
    assert_sched_within_budget("Sched::ibcast", 2, 1, ibcast);
}

#[test]
fn ibcast_lands_in_member_buffers_across_two_rank_nodes() {
    assert_sched_within_budget("Sched::ibcast", 2, 2, ibcast);
}

#[test]
fn iallreduce_lands_in_member_outputs_across_one_rank_nodes() {
    assert_sched_within_budget("Sched::iallreduce", 2, 1, iallreduce);
}

#[test]
fn iallreduce_lands_in_member_outputs_across_two_rank_nodes() {
    assert_sched_within_budget("Sched::iallreduce", 2, 2, iallreduce);
}

/// A steady-state broadcast allocates nothing: its counter block is a
/// recycled one and every other piece of bookkeeping reuses its capacity.
#[test]
fn small_ibcast_allocates_nothing_across_one_rank_nodes() {
    assert_sched_calls_within("Sched::ibcast", 2, 1, 256, ibcast, 0);
}

#[test]
fn small_ibcast_allocates_nothing_across_two_rank_nodes() {
    assert_sched_calls_within("Sched::ibcast", 2, 2, 256, ibcast, 0);
}

/// A steady-state allreduce allocates nothing: no counter (its block is a
/// recycled one), no contribution (a node's only member has none; the ring
/// reads its input in place) and no ring state (each node's engine keeps it
/// inline in its op deque, whose buffer is reused).
#[test]
fn small_iallreduce_allocates_no_counter_across_one_rank_nodes() {
    assert_sched_calls_within("Sched::iallreduce", 2, 1, 32 * 8, iallreduce, 0);
}

/// A 512 KiB broadcast on a 2 x 1 service, rooted at node 0, counted from
/// its submit to the return of its `wait`. The root's payload becomes its
/// buffer as it is and comes back as the root's result; node 1's engine
/// receives straight into its member region, which moves into its ticket
/// slot: one payload's worth, plus bookkeeping. (3.00 payloads per op
/// before results moved: the landing region and a copy of each member's
/// result into its slot.)
#[test]
fn service_bcast_moves_each_member_result() {
    const LEN: usize = 512 << 10;
    const BUDGET: u64 = LEN as u64 + (64 << 10);
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let svc = Service::new(2, 1);
    let session = svc.open_session("alloc", 1).unwrap();
    let comm = session.comm_world();
    let mut counted = 0;
    for i in 0..WARM + OPS as usize {
        let sent = vec![i as u8; LEN];
        let payload = sent.clone();
        let before = ALLOCATED.load(Ordering::Relaxed);
        let got = comm.bcast(0, 0, payload).unwrap().wait();
        let after = ALLOCATED.load(Ordering::Relaxed);
        assert_eq!(got, vec![sent; 2], "op {i}");
        if i >= WARM {
            counted += after - before;
        }
    }
    let per_op = counted / OPS;
    assert!(
        per_op <= BUDGET,
        "a 512 KiB service bcast allocates {per_op} B per op, {:.2} payloads \
         (budget {BUDGET} B)",
        per_op as f64 / LEN as f64
    );
}

/// Eight 4 KiB broadcasts from one root on a 2 x 1 service, queued behind
/// a held lead so that they share a plan, counted from the submit of the
/// op that holds the lead to the return of the last `wait`. Each runs as an
/// engine op of its own, so each costs what a lone one does: node 1's
/// landing region, which moves into its ticket slot (1.15 payloads per op
/// with bookkeeping), and in some rounds a copy of the chunks node 1's
/// engine parks in its stash because they arrived before its rank posted
/// the op (up to one payload more). The held op is an allreduce whose
/// outputs are the ranks' spent inputs of the previous round, so it adds
/// bookkeeping only. (4.90 payloads per op while same-root broadcasts were
/// fused into one op: the fused payload grown from the first one's, its
/// landing region, and a copy of each broadcast's span for each member.)
#[test]
fn small_service_bcasts_sharing_a_plan_move_each_member_result() {
    const LEN: usize = 4 << 10;
    const SMALL: usize = 8;
    const HELD_COUNT: usize = 64 << 10;
    const BUDGET: u64 = LEN as u64 * 5 / 2;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = ServerConfig {
        batch_max_ops: 16,
        pipeline: 1,
    };
    let server = CollectiveServer::with_config(2, 1, cfg);
    let mut counted = 0;
    for round in 0..WARM + OPS as usize {
        let held_inputs = vec![vec![1.0; HELD_COUNT]; 2];
        let sent: Vec<Vec<u8>> = (0..SMALL)
            .map(|i| vec![(round * SMALL + i) as u8; LEN])
            .collect();
        let payloads = sent.clone();
        let mut tickets = Vec::with_capacity(SMALL);
        let before = ALLOCATED.load(Ordering::Relaxed);
        // The lead takes the allreduce as a plan of its own and, at the
        // pipeline bound, drains nothing more until it is done.
        let held = server.submit_allreduce(&[0], held_inputs).unwrap();
        while server.tenant_stats(DEFAULT_TENANT).unwrap().queue_depth > 0 {
            std::thread::yield_now();
        }
        for payload in payloads {
            tickets.push(server.submit_bcast(&[0], 0, 0, payload).unwrap());
        }
        let reduced = held.wait();
        let got: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
        let after = ALLOCATED.load(Ordering::Relaxed);
        assert_eq!(reduced, vec![vec![2.0; HELD_COUNT]; 2], "round {round}");
        for (i, (got, sent)) in got.into_iter().zip(sent).enumerate() {
            assert_eq!(got, vec![sent; 2], "round {round} broadcast {i}");
        }
        if round >= WARM {
            counted += after - before;
        }
    }
    let per_op = counted / (OPS * SMALL as u64);
    assert!(
        per_op <= BUDGET,
        "a 4 KiB service bcast sharing a plan allocates {per_op} B per op, {:.2} \
         payloads (budget {BUDGET} B)",
        per_op as f64 / LEN as f64
    );
}

/// A 512 KiB allreduce on a 2 x 1 service at depth 1, counted from its
/// submit to the return of its `wait`. Each member's input vector becomes
/// its input region as it is, and each member's output region is the input
/// vector of the member's previous op, zero-filled, which moves into its
/// ticket slot and out of `wait`: nothing payload-sized at steady state,
/// only bookkeeping. (2.00 payloads per op while each output was a fresh
/// zeroed vector; 8.00 before inputs and results moved: a zeroed input
/// region filled from the input, a zeroed output region, a copy of it into
/// the ticket slot and a decode of that copy, per member.)
#[test]
fn service_allreduce_moves_each_member_input_and_result() {
    assert_service_allreduce_within_budget(1);
}

/// The same on 2 x 2, where each node's second member reduces its share
/// and chases the result out of the first's output: its spent input must
/// be its own again by the time it publishes, or its next output is a
/// fresh vector (2.00 payloads per op while the engine held every input
/// until the op retired).
#[test]
fn service_allreduce_on_two_ranks_a_node_reuses_every_spent_input() {
    assert_service_allreduce_within_budget(2);
}

/// Depth-1 512 KiB allreduces over every rank of a 2 x `n` service: at
/// steady state each allocates at most bookkeeping.
fn assert_service_allreduce_within_budget(n: usize) {
    const COUNT: usize = 64 << 10;
    const LEN: u64 = COUNT as u64 * 8;
    const BUDGET: u64 = 64 << 10;
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let svc = Service::new(2, n);
    let session = svc.open_session("alloc", 1).unwrap();
    let comm = session.comm_world();
    let mut counted = 0;
    for i in 0..WARM + OPS as usize {
        let inputs: Vec<Vec<f64>> = (0..2 * n)
            .map(|m| {
                (0..COUNT)
                    .map(|k| (k * 3 + m * 7 + i) as f64 * 0.5)
                    .collect()
            })
            .collect();
        let want: Vec<f64> = (0..COUNT)
            .map(|k| inputs.iter().map(|v| v[k]).sum())
            .collect();
        let before = ALLOCATED.load(Ordering::Relaxed);
        let got = comm.allreduce(inputs).unwrap().wait();
        let after = ALLOCATED.load(Ordering::Relaxed);
        assert_eq!(got, vec![want; 2 * n], "op {i}");
        if i >= WARM {
            counted += after - before;
        }
    }
    let per_op = counted / OPS;
    assert!(
        per_op <= BUDGET,
        "a 512 KiB service allreduce on 2 x {n} allocates {per_op} B per op, {:.2} \
         payloads (budget {BUDGET} B)",
        per_op as f64 / LEN as f64
    );
}
