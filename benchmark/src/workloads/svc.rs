//! `svc_saturated`: the multi-tenant service. One client thread, two
//! tenants (weights 1 and 3) with one session each, over a 2 × 1 cluster.
//! Every phase is closed-loop at saturation: a batch is submitted in full —
//! the first half as tenant w1, the second as w3 — and then every ticket is
//! waited in submission order (16 + 16 small ops, 2 + 2 large ones). That
//! keeps the dispatcher busy, which is what makes the numbers repeatable;
//! with one ticket in flight the four threads (client, dispatcher, two
//! ranks) on two cores swing 28k–39k ops/s between identical runs, so
//! depth-1 round trips are per-layer diagnostics (`svc.depth1_rtt_us_p50`,
//! `svc.lat_us_p99`), not end-to-end metrics. `sched::server` admission,
//! the DRR scan, coalescing and one `Cluster` job per batch, plus `svc`
//! session/comm bookkeeping, dominate; a "latency" here is the batch time
//! per op.

use std::collections::VecDeque;

use bgp_sched::ServerConfig;
use bgp_svc::{AllreduceTicket, BcastTicket, Comm, Service, Session, SvcError};

use crate::gen::{self, TrainOp};
use crate::harness::{run_loop, Count, Plan, Shape, Step, SubRun};
use crate::spans::Spans;

/// Members of the world communicator: 2 nodes × 1 rank.
const MEMBERS: usize = 2;
/// Tenant names and DRR weights.
pub const TENANTS: [(&str, u32); 2] = [("w1", 1), ("w3", 3)];

/// A live service with one session and world communicator per tenant.
pub struct Client {
    pub svc: Service,
    _sessions: Vec<Session>,
    pub comms: Vec<Comm>,
}

pub fn construct() -> Result<Client, SvcError> {
    let svc = Service::with_config(MEMBERS, 1, ServerConfig::default());
    let sessions = TENANTS
        .iter()
        .map(|(name, w)| svc.open_session(name, *w))
        .collect::<Result<Vec<_>, _>>()?;
    let comms = sessions.iter().map(Session::comm_world).collect();
    Ok(Client {
        svc,
        _sessions: sessions,
        comms,
    })
}

enum Ticket {
    Bcast(BcastTicket),
    Allreduce(AllreduceTicket),
}

fn bcast_ok(got: &[Vec<u8>], len: usize, key: u64) -> bool {
    got.len() == MEMBERS && got.iter().all(|g| g.len() == len && gen::matches(g, key))
}

fn allreduce_ok(got: &[Vec<f64>], want: &[f64]) -> bool {
    got.len() == MEMBERS
        && got
            .iter()
            .all(|g| gen::f64_bytes(g) == gen::f64_bytes(want))
}

/// One sub-run on a freshly constructed service.
pub fn sub_run(shape: &Shape, plan: &Plan, sub: usize) -> SubRun {
    let mut sp = Spans::new(plan.trace);
    // Submit and wait get their own spans inside the per-op span.
    let mut inner = Spans::new(plan.trace);
    let mut out = SubRun::default();
    let mut cl = match sp.time("construct", construct) {
        Ok(cl) => cl,
        Err(e) => {
            eprintln!("svc_saturated: service construction failed: {e}");
            return SubRun::all_failed(shape, plan);
        }
    };
    let seed = plan.seed;
    let mut sync = |_: &mut Client| {};

    // Inputs and the reference of every allreduce of the sub-run (a
    // shorter allreduce uses the prefix).
    let max_ar = shape.allreduce[1];
    let in_key = gen::op_key(seed, sub, 7, 0);
    let (inputs, sum) = sp.time("prepare", || {
        let inputs: Vec<Vec<f64>> = (0..MEMBERS).map(|m| gen::f64s(in_key, m, max_ar)).collect();
        (inputs, gen::f64_sum(in_key, MEMBERS, max_ar))
    });
    let prefix = |n: usize| -> Vec<Vec<f64>> { inputs.iter().map(|v| v[..n].to_vec()).collect() };

    for phase in 0..5 {
        let spec = shape.loop_spec(phase, plan);
        let train_key = plan.train_key();
        let op_of = |i: usize| shape.op(phase, i, train_key, MEMBERS);
        let key = |i| gen::op_key(seed, sub, phase, i);
        // The service is handed owned vectors, built before the batch.
        let mut payloads: VecDeque<Vec<u8>> = VecDeque::new();
        let mut ar_inputs: VecDeque<Vec<Vec<f64>>> = VecDeque::new();
        let mut tickets: Vec<Ticket> = Vec::with_capacity(spec.batch);
        let (mut check_first, mut first_ok) = (false, true);
        out.loops.push(run_loop(
            &mut cl,
            &mut sp,
            &spec,
            &mut sync,
            &mut |cl, step| match step {
                Step::Begin { i, verify } => {
                    check_first = verify;
                    first_ok = true;
                    for j in i..i + spec.batch {
                        match op_of(j) {
                            TrainOp::Bcast { len, .. } => {
                                payloads.push_back(gen::bytes(len, key(j)))
                            }
                            TrainOp::Allreduce { count } => ar_inputs.push_back(prefix(count)),
                        }
                    }
                    true
                }
                Step::Op(i) => {
                    let comm = &cl.comms[(i % spec.batch) * 2 / spec.batch];
                    let submitted = inner.time("submit", || match op_of(i) {
                        TrainOp::Bcast { root, .. } => comm
                            .bcast(root, 0, payloads.pop_front().expect("payload"))
                            .map(Ticket::Bcast),
                        TrainOp::Allreduce { .. } => comm
                            .allreduce(ar_inputs.pop_front().expect("inputs"))
                            .map(Ticket::Allreduce),
                    });
                    match submitted {
                        Ok(t) => tickets.push(t),
                        Err(e) => {
                            eprintln!("svc_saturated: submission refused: {e}");
                            return false;
                        }
                    }
                    if i % spec.batch == spec.batch - 1 {
                        let first = i + 1 - spec.batch;
                        for (j, t) in tickets.drain(..).enumerate() {
                            // The first op of a verified batch is checked.
                            let checked = check_first && j == 0;
                            match (t, op_of(first + j)) {
                                (Ticket::Bcast(t), TrainOp::Bcast { len, .. }) => {
                                    let got = inner.time("wait", || t.wait());
                                    if checked {
                                        first_ok = bcast_ok(&got, len, key(first));
                                    }
                                }
                                (Ticket::Allreduce(t), TrainOp::Allreduce { count }) => {
                                    let got = inner.time("wait", || t.wait());
                                    if checked {
                                        first_ok = allreduce_ok(&got, &sum[..count]);
                                    }
                                }
                                _ => unreachable!("the ticket kind follows the seeded op kind"),
                            }
                        }
                    }
                    true
                }
                Step::End { .. } => first_ok,
            },
        ));
    }

    // Server and tenant counters over the whole sub-run, read with every
    // ticket waited (a quiesced server gives a consistent snapshot).
    let s = cl.svc.stats();
    let per_op = |ns: u64, ops: u64| {
        if ops == 0 {
            0.0
        } else {
            ns as f64 / 1e3 / ops as f64
        }
    };
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    out.counts.extend([
        Count::racy("sched.server.batches", "count", s.batches as f64),
        Count::racy(
            "sched.server.ops_per_batch",
            "ratio",
            share(s.completed, s.batches),
        ),
        Count::racy(
            "sched.server.coalesced_share",
            "ratio",
            share(s.coalesced, s.completed),
        ),
        Count::racy(
            "sched.server.rejected_share",
            "ratio",
            share(s.rejected, s.submitted + s.rejected),
        ),
        Count::racy(
            "sched.server.peak_queue_depth",
            "count",
            s.peak_queue_depth as f64,
        ),
        Count::racy(
            "sched.server.queue_wait_us_per_op",
            "us",
            per_op(s.wait_ns, s.completed),
        ),
        Count::exact("sched.engine.stash_evicted", s.stash_evicted as f64),
    ]);
    let waits = ["svc.tenant_wait_us_w1", "svc.tenant_wait_us_w3"];
    for (name, (tenant, _)) in waits.into_iter().zip(TENANTS) {
        if let Ok(t) = cl.svc.tenant_stats(tenant) {
            out.counts
                .push(Count::racy(name, "us", per_op(t.wait_ns, t.completed)));
            if tenant == "w3" {
                out.counts.push(Count::racy(
                    "svc.completed_share_w3",
                    "ratio",
                    share(t.completed, s.completed),
                ));
            }
        }
    }
    sp.time("teardown", || drop(cl));
    let mut spans = sp.take();
    spans.extend(inner.take());
    out.spans.push((0, spans));
    out
}

/// One cold cycle: service + dispatcher + cluster, two sessions and world
/// communicators → one verified 256 B broadcast → teardown.
pub fn cold_cycle(seed: u64, cycle: usize) -> bool {
    let Ok(cl) = construct() else {
        return false;
    };
    let key = gen::op_key(seed, cycle, 8, 0);
    cl.comms[0]
        .bcast(0, 0, gen::bytes(256, key))
        .is_ok_and(|t| bcast_ok(&t.wait(), 256, key))
}
