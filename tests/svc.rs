//! Cross-crate acceptance of the multi-tenant service layer: many
//! sessions on real threads submitting interleaved operations on
//! overlapping communicators must produce byte-identical results to the
//! same op trains run sequentially (one op submitted and waited at a
//! time), a weight-1 tenant must keep completing while a weight-8 tenant
//! floods, and lifecycle misuse must stay typed through the facade.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bgp_collectives::sim::rng::Rng;
use bgp_collectives::svc::{Comm, Service, Session, SvcError};

// Only `within` is used here; the module is the sched tests' own.
#[allow(dead_code)]
#[path = "../crates/sched/tests/common/mod.rs"]
mod common;
use common::within;

const NODES: usize = 2;
const RANKS: usize = 4;
/// Overlapping communicator groups every session creates (rank 1 is in
/// all three, so concurrent trains genuinely contend on members).
const GROUPS: [&[usize]; 3] = [&[0, 1, 2, 3], &[0, 1], &[1, 2, 3]];

enum OpSpec {
    Bcast {
        comm: usize,
        root_node: usize,
        root_rank: usize,
        payload: Vec<u8>,
    },
    Allreduce {
        comm: usize,
        inputs: Vec<Vec<f64>>,
    },
}

/// A seeded train of mixed operations over the overlapping groups.
fn op_train(seed: u64, len: usize) -> Vec<OpSpec> {
    let mut rng = Rng::new(seed);
    (0..len)
        .map(|_| {
            let comm = rng.range_usize(0, GROUPS.len());
            let group = GROUPS[comm];
            if rng.bool() {
                let payload: Vec<u8> = (0..64 + rng.range_usize(0, 961))
                    .map(|_| rng.range_u32(0, 256) as u8)
                    .collect();
                OpSpec::Bcast {
                    comm,
                    root_node: rng.range_usize(0, NODES),
                    root_rank: group[rng.range_usize(0, group.len())],
                    payload,
                }
            } else {
                let count = 8 + rng.range_usize(0, 57);
                let inputs = (0..NODES * group.len())
                    .map(|_| (0..count).map(|_| rng.range_u32(0, 1000) as f64).collect())
                    .collect();
                OpSpec::Allreduce { comm, inputs }
            }
        })
        .collect()
}

/// Run one train on pre-created comms. `window`: how many tickets may be
/// outstanding at once (1 = sequential submit-and-wait, the reference).
fn run_train(comms: &[Comm], train: &[OpSpec], window: usize) -> Vec<Vec<Vec<u8>>> {
    enum Ticket {
        B(bgp_collectives::svc::BcastTicket),
        A(bgp_collectives::svc::AllreduceTicket),
    }
    let collect = |t: Ticket| -> Vec<Vec<u8>> {
        match t {
            Ticket::B(t) => t.wait(),
            Ticket::A(t) => t
                .wait()
                .into_iter()
                .map(|v| v.iter().flat_map(|x| x.to_ne_bytes()).collect())
                .collect(),
        }
    };
    let mut results = Vec::with_capacity(train.len());
    let mut pending: Vec<Ticket> = Vec::new();
    for op in train {
        if pending.len() >= window {
            results.push(collect(pending.remove(0)));
        }
        let t = match op {
            OpSpec::Bcast {
                comm,
                root_node,
                root_rank,
                payload,
            } => Ticket::B(
                comms[*comm]
                    .bcast(*root_node, *root_rank, payload.clone())
                    .unwrap(),
            ),
            OpSpec::Allreduce { comm, inputs } => {
                Ticket::A(comms[*comm].allreduce(inputs.clone()).unwrap())
            }
        };
        pending.push(t);
    }
    for t in pending {
        results.push(collect(t));
    }
    results
}

fn make_comms(session: &Session) -> Vec<Comm> {
    GROUPS
        .iter()
        .map(|g| session.comm_create(g).unwrap())
        .collect()
}

/// 3 tenants x 2 sessions, each on its own thread with a 4-deep
/// submission window, interleaving bcast/allreduce trains on overlapping
/// comms — every result must be byte-identical to the same train run
/// sequentially (window 1, one op in flight) on a fresh service.
#[test]
fn concurrent_sessions_match_sequential_reference() {
    const THREADS: usize = 6;
    const TRAIN: usize = 12;
    let svc = Arc::new(Service::new(NODES, RANKS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let session = svc
                    .open_session(&format!("tenant-{}", i / 2), 1 + (i / 2) as u32)
                    .unwrap();
                let comms = make_comms(&session);
                run_train(&comms, &op_train(0xC0FFEE + i as u64, TRAIN), 4)
            })
        })
        .collect();
    let concurrent: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sequential blocking reference: same trains, one op in flight at a
    // time, one after another on a fresh single-tenant service.
    let ref_svc = Service::new(NODES, RANKS);
    let session = ref_svc.open_session("reference", 1).unwrap();
    let comms = make_comms(&session);
    for (i, got) in concurrent.iter().enumerate() {
        let expect = run_train(&comms, &op_train(0xC0FFEE + i as u64, TRAIN), 1);
        assert_eq!(got.len(), expect.len());
        for (op, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(g, e, "thread {i} op {op}: concurrent result diverged");
        }
    }
    // All three tenants really did the work.
    for t in 0..THREADS / 2 {
        let stats = svc.tenant_stats(&format!("tenant-{t}")).unwrap();
        assert_eq!(stats.submitted, 2 * TRAIN as u64);
        assert_eq!(stats.completed, 2 * TRAIN as u64);
    }
}

/// The three shapes of the move-out tests: 2 x 2, 3 x 1 (one member per
/// node: the ring reads each input in place) and the subgroup comm `[1]` of
/// 2 x 2 (a lone member off the engine rank, whose buffer the engine lands
/// in and lets go of only when it retires the op).
const MOVE_OUT_SHAPES: [(usize, usize, &[usize]); 3] =
    [(2, 2, &[0, 1]), (3, 1, &[0]), (2, 2, &[1])];

/// Broadcasts of 512 KiB, 16 in flight, on the move-out shapes, the root
/// rotating over every node and group rank; every fourth op is small, so
/// small ops run alone too. Every member's result — the root's own
/// payload, or the region it received into, moved out — must equal the
/// payload. A result the server never manages to move out would wedge its
/// `wait`: the deadline turns that into a failure.
#[test]
fn bcast_results_move_out_equal_to_the_payload() {
    const LEN: usize = 512 << 10;
    const DEPTH: usize = 16;
    for (shape, (nodes, ranks, group)) in MOVE_OUT_SHAPES.into_iter().enumerate() {
        let mut rng = Rng::new(0x5EED_0B0C + shape as u64);
        let train: Vec<(usize, usize, Vec<u8>)> = (0..DEPTH)
            .map(|op| {
                let len = if op % 4 == 3 { 1000 + op } else { LEN };
                let seed = rng.range_u32(0, u32::MAX);
                let payload = (0..len as u32)
                    .map(|k| (k.wrapping_mul(0x9E37_79B9) ^ seed) as u8)
                    .collect();
                (op % nodes, group[op / nodes % group.len()], payload)
            })
            .collect();
        within(120, move || {
            let svc = Service::new(nodes, ranks);
            let session = svc.open_session("bcast", 1).unwrap();
            let comm = session.comm_create(group).unwrap();
            let tickets: Vec<_> = train
                .iter()
                .map(|(node, rank, payload)| comm.bcast(*node, *rank, payload.clone()).unwrap())
                .collect();
            for (op, (t, (node, rank, payload))) in tickets.into_iter().zip(&train).enumerate() {
                let got = t.wait();
                assert_eq!(
                    got.len(),
                    nodes * group.len(),
                    "{nodes}x{ranks} {group:?} op {op}"
                );
                for (member, bytes) in got.iter().enumerate() {
                    assert!(
                        bytes == payload,
                        "{nodes}x{ranks} {group:?} op {op} from ({node}, {rank}): \
                         member {member} diverged"
                    );
                }
            }
        });
    }
}

/// Allreduces of 64 Ki doubles, 16 in flight, on the move-out shapes.
/// Every member's input is its own seeded vector, and every member's
/// result — its output region, moved out — must be bit-identical to the
/// sequential sum of the inputs. A second train, 8 deep, then alternates
/// two tenants, the second reducing 3/4 or 1/4 as many doubles: a rank's spent
/// inputs of the first train fit the 3/4 outputs and are too large for the
/// 1/4 ones, and the second tenant's spent inputs are too short for the
/// first tenant's outputs. Each result is the exact sum, as long as its
/// count, and holds at most twice its count. A result the server
/// never manages to move out would wedge its `wait`: the deadline turns
/// that into a failure.
#[test]
fn allreduce_results_move_out_bit_identical_to_the_sequential_sum() {
    const COUNT: usize = 64 << 10;
    /// What the second tenant reduces, alternately.
    const SHORT: [usize; 2] = [COUNT - COUNT / 4, COUNT / 4];
    const DEPTH: usize = 16;
    for (shape, (nodes, ranks, group)) in MOVE_OUT_SHAPES.into_iter().enumerate() {
        let members = nodes * group.len();
        let mut rng = Rng::new(0x5EED_0A11 + shape as u64);
        // `members + 1` seeded vectors of multiples of 1/8 below 2^17, so
        // every partial sum is exact and any summation order gives the
        // same bits. Op `j` hands member `i` vector `(j + i) % pool`:
        // members get distinct inputs, consecutive ops distinct sums.
        let pool: Vec<Vec<f64>> = (0..=members)
            .map(|_| {
                let seed = rng.range_u32(0, u32::MAX);
                (0..COUNT as u32)
                    .map(|k| f64::from((k.wrapping_mul(0x9E37_79B9) ^ seed) >> 12) * 0.125)
                    .collect()
            })
            .collect();
        let inputs = |op: usize| -> Vec<Vec<f64>> {
            (0..members)
                .map(|i| pool[(op + i) % pool.len()].clone())
                .collect()
        };
        let sums: Vec<Vec<u64>> = (0..pool.len())
            .map(|op| {
                let inputs = inputs(op);
                (0..COUNT)
                    .map(|k| inputs.iter().fold(0.0, |acc, v| acc + v[k]).to_bits())
                    .collect()
            })
            .collect();
        // Train 0 is one tenant's; train 1 alternates the two tenants, the
        // second's op taking a prefix of its inputs (and of the sum).
        let tenant = |train: usize, op: usize| train * (op % 2);
        let count = move |train, op| match tenant(train, op) {
            0 => COUNT,
            _ => SHORT[op / 2 % 2],
        };
        let trains: Vec<Vec<Vec<Vec<f64>>>> = [DEPTH, DEPTH / 2]
            .into_iter()
            .enumerate()
            .map(|(train, depth)| {
                (0..depth)
                    .map(|op| {
                        // Each input's capacity is its count, as submitted.
                        let mut v = inputs(op + train);
                        for x in &mut v {
                            x.truncate(count(train, op));
                            x.shrink_to_fit();
                        }
                        v
                    })
                    .collect()
            })
            .collect();
        within(120, move || {
            let svc = Service::new(nodes, ranks);
            let sessions = ["ar", "ar-short"].map(|t| svc.open_session(t, 1).unwrap());
            let comms = sessions.each_ref().map(|s| s.comm_create(group).unwrap());
            for (train, ops) in trains.into_iter().enumerate() {
                let tickets: Vec<_> = ops
                    .into_iter()
                    .enumerate()
                    .map(|(op, inputs)| comms[tenant(train, op)].allreduce(inputs).unwrap())
                    .collect();
                for (op, t) in tickets.into_iter().enumerate() {
                    let (got, n) = (t.wait(), count(train, op));
                    let sum = &sums[(op + train) % sums.len()][..n];
                    let what = format!("{nodes}x{ranks} {group:?} train {train} op {op}");
                    assert_eq!(got.len(), members, "{what}");
                    for (member, v) in got.iter().enumerate() {
                        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                        assert!(bits == sum, "{what}: member {member} diverged");
                        assert!(
                            v.capacity() <= 2 * n,
                            "{what}: member {member} holds {}",
                            v.capacity()
                        );
                    }
                }
            }
        });
    }
}

/// A weight-1 tenant keeps completing a fixed train while a weight-8
/// tenant floods the service as fast as admission allows: DRR gives the
/// light tenant its share, so its train finishes (no starvation), while
/// the flooder provably outpaces it.
#[test]
fn weight_one_tenant_completes_under_weight_eight_flood() {
    const VICTIM_OPS: usize = 24;
    let svc = Arc::new(Service::new(1, RANKS));
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let svc = svc.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let session = svc.open_session("flooder", 8).unwrap();
            let comm = session.comm_world();
            let mut sent = 0u64;
            let mut pending = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match comm.try_bcast(0, 0, vec![0xABu8; 512]) {
                    Ok(t) => {
                        sent += 1;
                        pending.push(t);
                        if pending.len() > 64 {
                            pending.remove(0).wait();
                        }
                    }
                    Err(SvcError::Sched(_)) => std::thread::yield_now(),
                    Err(e) => panic!("flooder hit unexpected error: {e}"),
                }
            }
            for t in pending {
                t.wait();
            }
            sent
        })
    };
    // The train starts once the flooder has submitted more ops than the
    // victim will: the flood the last assertion checks then exists by
    // construction, however the threads are scheduled.
    let flood_submitted = || svc.tenant_stats("flooder").map_or(0, |s| s.submitted);
    while flood_submitted() <= VICTIM_OPS as u64 && !flooder.is_finished() {
        std::thread::yield_now();
    }
    let session = svc.open_session("victim", 1).unwrap();
    let comm = session.comm_world();
    for i in 0..VICTIM_OPS {
        let t = comm.bcast(0, 0, vec![i as u8; 256]).unwrap();
        assert_eq!(t.wait(), vec![vec![i as u8; 256]; RANKS]);
    }
    stop.store(true, Ordering::Relaxed);
    let flooded = flooder.join().unwrap();
    let vs = svc.tenant_stats("victim").unwrap();
    assert_eq!(vs.completed, VICTIM_OPS as u64, "victim was starved");
    assert!(
        flooded > VICTIM_OPS as u64,
        "flood never materialized ({flooded} ops) — the test proved nothing"
    );
}

/// Lifecycle misuse through the facade stays typed: destroy-while-busy,
/// submit-after-destroy, unknown tenant. None of these hang or panic.
#[test]
fn lifecycle_misuse_is_typed_through_the_facade() {
    let svc = Service::new(1, 2);
    assert!(matches!(
        svc.tenant_stats("ghost"),
        Err(SvcError::UnknownTenant(_))
    ));
    let session = svc.open_session("t", 1).unwrap();
    let comm = session.comm_world();
    let ticket = comm.bcast(0, 0, vec![5u8; 64]).unwrap();
    assert!(matches!(comm.destroy(), Err(SvcError::CommBusy { .. })));
    ticket.wait();
    comm.destroy().unwrap();
    assert!(matches!(
        comm.try_bcast(0, 0, vec![1]),
        Err(SvcError::CommDestroyed)
    ));
    assert!(matches!(comm.destroy(), Err(SvcError::CommDestroyed)));
}
