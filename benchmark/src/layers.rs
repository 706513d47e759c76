//! The isolated per-layer microbenchmarks of the traced pass. Each one
//! times calls into public functions of one layer (layer = module) from
//! outside, on at most two runnable threads; the paper's quad shape
//! (2 × 4 = 8 threads) contributes exact counts only, never wall time.
//! Every timing is a set of samples (each the mean over a few calls), so it
//! carries a median, a tail percentile and n like everything else.

use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bgp_machine::MachineConfig;
use bgp_mpi::Mpi;
use bgp_sched::{CollectiveServer, Sched, ServerConfig};
use bgp_shmem::proc::ShmSegment;
use bgp_shmem::{
    BcastFifo, CompletionCounter, MessageCounter, PtpFifo, SeqLock, SharedRegion, WindowRegistry,
};
use bgp_smp::proc::{bcast_pattern, node_bcast, ProcCluster};
use bgp_smp::transport::{ChunkChannel, Fabric};
use bgp_smp::{kernels, Cluster, ClusterCtx, SenseBarrier};
use bgp_svc::Service;

use crate::harness::Metric;
use crate::stats::median;

/// How hard the suite works: `groups` samples per timing, each the mean of
/// `iters(base)` calls. `--selfcheck` runs it at a tenth.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub groups: usize,
    pub scale: f64,
}

impl Effort {
    pub const FULL: Effort = Effort {
        groups: 30,
        scale: 1.0,
    };
    pub const FAST: Effort = Effort {
        groups: 10,
        scale: 0.1,
    };
    fn iters(&self, base: usize) -> usize {
        ((base as f64 * self.scale) as usize).max(1)
    }
}

/// `groups` samples of the mean nanoseconds per call of `f`.
fn sample_ns(groups: usize, iters: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut i = 0;
    (0..groups)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect()
}

fn ns(name: &str, v: &[f64]) -> Metric {
    Metric::samples(name, "ns", v)
}
fn us(name: &str, v: &[f64]) -> Metric {
    let v: Vec<f64> = v.iter().map(|x| x / 1e3).collect();
    Metric::samples(name, "us", &v)
}
/// MB/s from ns-per-call samples of a call that moves `bytes`.
fn mbps(name: &str, bytes: usize, v: &[f64]) -> Metric {
    let v: Vec<f64> = v.iter().map(|x| bytes as f64 / x * 1e3).collect();
    Metric::rates(name, "MB/s", &v)
}
/// The tail of single-op samples (ns) as the metric's value, in us.
fn tail_us(name: &str, v: &[f64]) -> Metric {
    let mut m = us(name, v);
    m.value = m.hi;
    m
}
fn count(name: &str, v: f64) -> Metric {
    Metric::scalar(name, "count", v, true)
}

// ---------------------------------------------------------------------------
// shmem
// ---------------------------------------------------------------------------

fn shmem(e: Effort, out: &mut Vec<Metric>) {
    let (g, n) = (e.groups, e.iters(4000));

    // Bcast FIFO, one producer thread → one consumer (this thread), 64 B.
    let (fifo, mut cons) = BcastFifo::<[u8; 64]>::with_consumers(64, 1);
    let mut c = cons.pop().expect("one consumer");
    let v = std::thread::scope(|s| {
        s.spawn(|| (0..g * n).for_each(|i| fifo.enqueue([i as u8; 64])));
        sample_ns(g, n, |_| {
            black_box(c.recv());
        })
    });
    out.push(ns("shmem.bcast_fifo.msg_ns", &v));
    let st = fifo.stats();
    out.push(count("shmem.fifo.enqueued", st.enqueued as f64));
    out.push(count("shmem.fifo.retired", st.retired as f64));

    let ptp = PtpFifo::<[u8; 64]>::new(64);
    let v = std::thread::scope(|s| {
        s.spawn(|| (0..g * n).for_each(|i| ptp.enqueue([i as u8; 64])));
        sample_ns(g, n, |_| {
            black_box(ptp.dequeue());
        })
    });
    out.push(ns("shmem.ptp_fifo.msg_ns", &v));

    // Message-counter ping-pong: one round trip is two publish → wait_past
    // hand-offs. polls_per_wait is the wasted work per wait.
    let (a, b) = (MessageCounter::new(), MessageCounter::new());
    let rounds = g * n;
    let v = std::thread::scope(|s| {
        s.spawn(|| {
            for r in 1..=rounds as u64 {
                a.wait_past(0, r);
                b.publish(1);
            }
        });
        sample_ns(g, n, |i| {
            a.publish(1);
            b.wait_past(0, i as u64 + 1);
        })
    });
    let half: Vec<f64> = v.iter().map(|x| x / 2.0).collect();
    out.push(ns("shmem.counter.handoff_ns", &half));
    out.push(Metric::scalar(
        "shmem.counter.polls_per_wait",
        "ratio",
        (a.poll_count() + b.poll_count()) as f64 / (2 * rounds) as f64,
        false,
    ));

    // Completion counter: peer arrives, this thread waits and rearms.
    let (cc, back) = (CompletionCounter::new(1), MessageCounter::new());
    let v = std::thread::scope(|s| {
        s.spawn(|| {
            for r in 1..=rounds as u64 {
                cc.arrive();
                back.wait_past(0, r);
            }
        });
        sample_ns(g, n, |_| {
            cc.wait();
            cc.reset();
            back.publish(1);
        })
    });
    out.push(ns("shmem.completion.arrive_wait_ns", &v));

    // Window registry: a mapping the caller has seen (hit) or not (miss).
    let reg = WindowRegistry::new();
    reg.expose(0, 1, Arc::new(SharedRegion::new(64)));
    let mut seen = HashSet::new();
    reg.map_auto_blocking(0, 1, &mut seen);
    let v = sample_ns(g, n, |_| {
        black_box(reg.map_auto_blocking(0, 1, &mut seen));
    });
    out.push(ns("shmem.window.map_hit_ns", &v));
    let v = sample_ns(g, n, |_| {
        seen.clear();
        black_box(reg.map_auto_blocking(0, 1, &mut seen));
    });
    out.push(ns("shmem.window.map_miss_ns", &v));

    // Plain single-threaded copy of 4 MiB: the baseline every
    // *_large_bw_MBps is read against (cache-resident here, see README).
    let len = 4 << 20;
    let (src, dst) = (SharedRegion::new(len), SharedRegion::new(len));
    let v = sample_ns(g, e.iters(10), |_| {
        // SAFETY: both regions are private to this thread and distinct.
        unsafe { dst.copy_from(0, &src, 0, len) };
    });
    out.push(mbps("shmem.region.copy_MBps", len, &v));

    // Seqlock ping-pong over heap words: publish here, the peer reads it
    // and publishes back.
    let (there, here) = (SeqLock::heap(1), SeqLock::heap(1));
    let v = std::thread::scope(|s| {
        s.spawn(|| {
            let mut w = [0u64];
            for r in 1..=rounds as u64 {
                while w[0] != r {
                    there.read_into(&mut w);
                    bgp_shmem::spin();
                }
                here.publish(&[r]);
            }
        });
        let mut w = [0u64];
        sample_ns(g, n, |i| {
            let r = i as u64 + 1;
            there.publish(&[r]);
            while w[0] != r {
                here.read_into(&mut w);
                bgp_shmem::spin();
            }
        })
    });
    out.push(ns("shmem.seqlock.roundtrip_ns", &v));

    // Segment file: create + map, open + map, unmap both, unlink.
    let v = sample_ns(g, e.iters(3), |_| {
        let seg = ShmSegment::create(1 << 20, &[1, 2]).expect("create segment");
        drop(ShmSegment::open(seg.path()).expect("open segment"));
    });
    out.push(us("shmem.segment.create_attach_us", &v));
}

// ---------------------------------------------------------------------------
// smp.kernels, smp.transport
// ---------------------------------------------------------------------------

fn kernels_and_transport(e: Effort, out: &mut Vec<Metric>) {
    let g = e.groups;
    let n = 512 << 10;
    let mut acc = vec![0.0f64; n];
    let src = vec![0.5f64; n];
    let src_bytes: Vec<u8> = src.iter().flat_map(|v| v.to_ne_bytes()).collect();
    let mut dst_bytes = vec![0u8; n * 8];
    let it = e.iters(6);
    let v = sample_ns(g, it, |_| kernels::add_bytes_f64(&mut acc, &src_bytes));
    out.push(mbps("smp.kernels.add_bytes_f64_MBps", n * 8, &v));
    let v = sample_ns(g, it, |_| {
        kernels::add_bytes_into(&mut dst_bytes, &src_bytes, &src_bytes)
    });
    out.push(mbps("smp.kernels.add_bytes_into_MBps", n * 8, &v));
    let v = sample_ns(g, it, |_| kernels::add_assign_f64(&mut acc, &src));
    out.push(mbps("smp.kernels.add_assign_f64_MBps", n * 8, &v));
    black_box((&acc, &dst_bytes));
    // Computed, not measured: acc[i] += src[i] reads 16 B and writes 8 B
    // per floating-point add.
    out.push(Metric::scalar(
        "smp.kernels.bytes_per_flop",
        "B/flop",
        24.0,
        true,
    ));

    // One thread: reserve a slot, publish it, peek and release it.
    let ch = ChunkChannel::new(4, 4096);
    let v = sample_ns(g, e.iters(4000), |i| {
        ch.reserve(64).publish(i as u64);
        drop(ch.peek());
    });
    out.push(ns("smp.transport.reserve_publish_ns", &v));

    // Two threads: produce into the loaned slot, consume in place.
    for (name, chunk, base) in [
        ("smp.transport.chunk_xthread_ns", 4096usize, 2000usize),
        ("smp.transport.stream_MBps", 64 << 10, 200),
    ] {
        let ch = ChunkChannel::new(4, chunk);
        let payload = vec![7u8; chunk];
        let n = e.iters(base);
        let v = std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..(g * n) as u64 {
                    ch.send_with(k, chunk, |dst| dst.copy_from_slice(&payload));
                }
            });
            sample_ns(g, n, |_| {
                black_box(ch.recv_with(|_, b| b[chunk - 1]));
            })
        });
        out.push(if name.ends_with("_ns") {
            ns(name, &v)
        } else {
            mbps(name, chunk, &v)
        });
    }
}

// ---------------------------------------------------------------------------
// SPMD cases on a thread cluster: smp.collectives, smp.cluster,
// smp.node_aware
// ---------------------------------------------------------------------------

/// Three regions every case may use; 4 MiB each, ×2 for gather-type outputs.
struct Bufs {
    a: Arc<SharedRegion>,
    b: Arc<SharedRegion>,
    wide: Arc<SharedRegion>,
}

type CaseFn = Box<dyn Fn(&mut ClusterCtx, &Bufs, usize) + Send + Sync>;
struct Case {
    name: &'static str,
    iters: usize,
    op: CaseFn,
}

fn case(
    name: &'static str,
    iters: usize,
    op: impl Fn(&mut ClusterCtx, &Bufs, usize) + Send + Sync + 'static,
) -> Case {
    Case {
        name,
        iters,
        op: Box::new(op),
    }
}

/// Run every case SPMD on `cluster`: per sample, all ranks meet at a
/// barrier, then time `iters` calls; a sample is the maximum over ranks.
/// Returns ns-per-call samples by case name.
fn run_cases(cluster: &Cluster, groups: usize, cases: Vec<Case>) -> Vec<(&'static str, Vec<f64>)> {
    let world = cluster.n_nodes() * cluster.n_ranks();
    let bar = Arc::new(SenseBarrier::new(world));
    let cases = Arc::new(cases);
    let shared = cases.clone();
    let per_rank = cluster.run(move |c| {
        let mut tok = bar.token();
        let bufs = Bufs {
            a: Arc::new(SharedRegion::new(4 << 20)),
            b: Arc::new(SharedRegion::new(4 << 20)),
            wide: Arc::new(SharedRegion::new(8 << 20)),
        };
        shared
            .iter()
            .map(|case| {
                (case.op)(c, &bufs, 0); // warm
                let mut i = 1;
                (0..groups)
                    .map(|_| {
                        bar.wait(&mut tok);
                        let t0 = Instant::now();
                        for _ in 0..case.iters {
                            (case.op)(c, &bufs, i);
                            i += 1;
                        }
                        t0.elapsed().as_nanos() as f64 / case.iters as f64
                    })
                    .collect::<Vec<f64>>()
            })
            .collect::<Vec<_>>()
    });
    let ranks: Vec<Vec<Vec<f64>>> = per_rank.into_iter().flatten().collect();
    cases
        .iter()
        .enumerate()
        .map(|(ci, case)| {
            let merged = (0..groups)
                .map(|gi| ranks.iter().map(|r| r[ci][gi]).fold(0.0, f64::max))
                .collect();
            (case.name, merged)
        })
        .collect()
}

fn intra_collectives(e: Effort, out: &mut Vec<Metric>) {
    let cluster = Cluster::new(1, 2);
    let mut cases = Vec::new();
    // The Fig. 6/7 crossover on real threads: three intra-node broadcast
    // mechanisms at a latency, a mid and a bandwidth size.
    for (size, base, names) in [
        (
            256usize,
            600usize,
            [
                "smp.collectives.bcast_shmem_256B_us",
                "smp.collectives.bcast_fifo_256B_us",
                "smp.collectives.bcast_shaddr_256B_us",
            ],
        ),
        (
            16 << 10,
            300,
            [
                "smp.collectives.bcast_shmem_16K_us",
                "smp.collectives.bcast_fifo_16K_us",
                "smp.collectives.bcast_shaddr_16K_us",
            ],
        ),
        (
            4 << 20,
            6,
            [
                "smp.collectives.bcast_shmem_4M_MBps",
                "smp.collectives.bcast_fifo_4M_MBps",
                "smp.collectives.bcast_shaddr_4M_MBps",
            ],
        ),
    ] {
        let it = e.iters(base);
        cases.push(case(names[0], it, move |c, b, i| {
            c.intra().bcast_shmem(i % 2, &b.a, size)
        }));
        cases.push(case(names[1], it, move |c, b, i| {
            c.intra().bcast_fifo(i % 2, &b.a, size, 0)
        }));
        cases.push(case(names[2], it, move |c, b, i| {
            c.intra().bcast_shaddr(i % 2, &b.a, size, 16 << 10)
        }));
    }
    cases.push(case(
        "smp.collectives.allreduce_16K_us",
        e.iters(300),
        |c, b, _| c.intra().allreduce_f64(&b.a, &b.b, 2048),
    ));
    cases.push(case(
        "smp.collectives.allgather_16K_us",
        e.iters(300),
        |c, b, _| c.intra().allgather(&b.a, &b.wide, 16 << 10),
    ));
    cases.push(case("smp.cluster.barrier_ns", e.iters(2000), |c, _, _| {
        c.intra().barrier();
    }));
    for (name, v) in run_cases(&cluster, e.groups, cases) {
        out.push(if name.ends_with("_MBps") {
            mbps(name, 4 << 20, &v)
        } else if name.ends_with("_ns") {
            ns(name, &v)
        } else {
            us(name, &v)
        });
    }
}

/// The link geometry shared with the `cluster_2node` / `xproc_2node`
/// workloads, so the thread and process numbers are comparable.
fn two_node_cluster() -> Cluster {
    Cluster::with_geometry(2, 1, 4096, 4)
}

fn cluster_and_node_aware(e: Effort, out: &mut Vec<Metric>) {
    let v = sample_ns(e.groups, e.iters(3), |_| drop(two_node_cluster()));
    out.push(us("smp.cluster.new_us", &v));
    let cluster = two_node_cluster();
    let v = sample_ns(e.groups, e.iters(30), |_| {
        cluster.run(|_| ());
    });
    out.push(us("smp.cluster.dispatch_us", &v));

    let (k64, m4) = (8 << 10, 512 << 10); // doubles in 64 KiB / 4 MiB
    let cases = vec![
        case("smp.cluster.bcast_4K_us", e.iters(300), |c, b, i| {
            c.bcast(i % 2, &b.a, 4 << 10)
        }),
        case("smp.cluster.bcast_64K_us", e.iters(100), |c, b, i| {
            c.bcast(i % 2, &b.a, 64 << 10)
        }),
        case("smp.cluster.allreduce_4K_us", e.iters(300), |c, b, _| {
            c.allreduce_f64(&b.a, &b.b, 512)
        }),
        case(
            "smp.cluster.allreduce_64K_us",
            e.iters(100),
            move |c, b, _| c.allreduce_f64(&b.a, &b.b, k64),
        ),
        case(
            "smp.node_aware.allreduce_64K_us",
            e.iters(100),
            move |c, b, _| c.allreduce_f64_node_aware(&b.a, &b.b, k64),
        ),
        case(
            "smp.node_aware.allreduce_4M_us",
            e.iters(3),
            move |c, b, _| c.allreduce_f64_node_aware(&b.a, &b.b, m4),
        ),
        case(
            "smp.node_aware.fused_64K_us",
            e.iters(100),
            move |c, b, _| c.allreduce_f64_node_aware_fused(&b.a, &b.b, k64),
        ),
        case("smp.node_aware.fused_4M_us", e.iters(3), move |c, b, _| {
            c.allreduce_f64_node_aware_fused(&b.a, &b.b, m4)
        }),
        case(
            "smp.node_aware.reduce_scatter_64K_us",
            e.iters(100),
            move |c, b, _| c.reduce_scatter_f64(&b.a, &b.b, k64),
        ),
        case(
            "smp.node_aware.allgather_64K_us",
            e.iters(100),
            |c, b, _| c.allgather(&b.a, &b.wide, 64 << 10),
        ),
        case("smp.node_aware.alltoall_4K_us", e.iters(300), |c, b, _| {
            c.alltoall(&b.a, &b.wide, 4 << 10)
        }),
    ];
    for (name, v) in run_cases(&cluster, e.groups, cases) {
        out.push(us(name, &v));
    }
}

/// The paper's quad shape, 2 nodes × 4 ranks: eight threads on two cores,
/// so only counts are taken. 16 Ki doubles = 128 KiB.
fn quad_counts(out: &mut Vec<Metric>) {
    const DOUBLES: usize = 16 << 10;
    let cluster = Cluster::new(2, 4);
    let chunks = |cluster: &Cluster| cluster.run(|c| c.fabric().total_chunks_sent())[0][0] as f64;
    let regions = || {
        (
            Arc::new(SharedRegion::new(DOUBLES * 8)),
            Arc::new(SharedRegion::new(DOUBLES * 8)),
        )
    };
    cluster.run(move |c| {
        let (a, b) = regions();
        c.allreduce_f64(&a, &b, DOUBLES);
    });
    let flat = chunks(&cluster);
    cluster.run(move |c| {
        let (a, b) = regions();
        c.allreduce_f64_node_aware(&a, &b, DOUBLES);
    });
    let node_aware = chunks(&cluster) - flat;
    cluster.run(move |c| {
        let (a, _) = regions();
        c.bcast(0, &a, DOUBLES * 8);
    });
    let windows = cluster.run(|c| {
        let (_, misses, hits) = c.intra().registry().stats().snapshot();
        if c.rank() == 0 {
            (hits, misses)
        } else {
            (0, 0)
        }
    });
    let (hits, misses) = windows
        .iter()
        .flatten()
        .fold((0, 0), |acc, w| (acc.0 + w.0, acc.1 + w.1));
    let st = cluster.stats();
    out.push(count("smp.cluster.quad_chunks_flat", flat));
    out.push(count("smp.node_aware.quad_chunks", node_aware));
    out.push(count(
        "smp.cluster.quad_bcast_recv_ops",
        st.bcast_recv_ops as f64,
    ));
    // hits + misses is fixed by the shape; the split is not: the window
    // cache is keyed by region address and counts a fresh region at a
    // recycled address as a hit.
    for (name, v) in [
        ("smp.cluster.quad_window_hits", hits),
        ("smp.cluster.quad_window_misses", misses),
    ] {
        out.push(Metric::scalar(name, "count", v as f64, false));
    }
    // Racy by nature (did copy-out start before the last chunk landed?).
    out.push(Metric::scalar(
        "smp.cluster.quad_copyout_overlapped",
        "count",
        st.copyout_overlapped as f64,
        false,
    ));
}

// ---------------------------------------------------------------------------
// smp.proc
// ---------------------------------------------------------------------------

fn proc_layer(e: Effort, out: &mut Vec<Metric>) {
    let new = || ProcCluster::new(2, 4096, 4, 1 << 20).expect("spawn proc cluster");
    let v = sample_ns(e.groups.min(10), 1, |_| {
        new().shutdown().expect("shutdown");
    });
    let ms: Vec<f64> = v.iter().map(|x| x / 1e6).collect();
    out.push(Metric::samples("smp.proc.spawn_ms", "ms", &ms));

    let mut pc = new();
    let mut timed = |len: usize, iters: usize, groups: usize| {
        sample_ns(groups, iters, |i| {
            black_box(pc.bcast(i % 2, i as u64, len).expect("proc bcast"));
        })
    };
    // 8 bytes: the seqlock job publish + status gather and little else.
    out.push(us(
        "smp.proc.handshake_us",
        &timed(8, e.iters(200), e.groups),
    ));
    out.push(us(
        "smp.proc.bcast_64K_us",
        &timed(64 << 10, e.iters(40), e.groups),
    ));
    // Single-op samples so the tail is a tail of ops, not of means.
    let lat = timed(256, 1, e.iters(3000).max(200));
    out.push(tail_us("smp.proc.lat_us_p99", &lat));
    pc.shutdown().expect("shutdown");

    // What the parent spends generating the payload, alone.
    for (name, len) in [
        ("smp.proc.pattern_gen_64K_us", 64 << 10),
        ("smp.proc.pattern_gen_1M_us", 1 << 20),
    ] {
        let v = sample_ns(e.groups, e.iters(10), |i| {
            black_box(bcast_pattern(i as u64, len));
        });
        out.push(us(name, &v));
    }

    // The same node_bcast protocol over heap links on two threads: the
    // storage-independent protocol cost.
    let fabric = Fabric::new(2, 4096, 4);
    let (g, n) = (e.groups, e.iters(100));
    let v = std::thread::scope(|s| {
        s.spawn(|| {
            let mut buf = vec![1u8; 64 << 10];
            (0..g * n).for_each(|_| node_bcast(&fabric, 0, 0, &mut buf));
        });
        let mut buf = vec![0u8; 64 << 10];
        sample_ns(g, n, |_| node_bcast(&fabric, 1, 0, &mut buf))
    });
    out.push(us("smp.proc.node_bcast_heap_64K_us", &v));
}

// ---------------------------------------------------------------------------
// sched.engine, sched.server, svc
// ---------------------------------------------------------------------------

/// Post `ops` 1 KiB broadcasts on `s` at `depth` and wait for them;
/// returns the nanoseconds spent inside the `ibcast` calls alone.
fn post_train(
    s: &mut Sched,
    bufs: &[Arc<SharedRegion>],
    world: usize,
    ops: usize,
    depth: usize,
) -> u64 {
    let mut reqs = Vec::with_capacity(depth);
    let mut post_ns = 0;
    for i in 0..ops {
        let t0 = Instant::now();
        let req = s
            .ibcast(&[0], i % world, 0, Some(&bufs[i % depth]), 1024)
            .expect("valid post");
        post_ns += t0.elapsed().as_nanos() as u64;
        reqs.push(req);
        if reqs.len() == depth {
            s.wait_all(&reqs);
            reqs.clear();
        }
    }
    s.wait_all(&reqs);
    post_ns
}

fn sched_engine(e: Effort, out: &mut Vec<Metric>) {
    let cluster = crate::workloads::sched::construct();
    let groups = e.groups.min(10);
    let burst = 1600;
    let train = e.iters(8192).max(burst);
    let bar = Arc::new(SenseBarrier::new(2));
    let res = cluster.run(move |c| {
        let mut tok = bar.token();
        let world = c.n_nodes();
        let bufs: Vec<_> = (0..16).map(|_| Arc::new(SharedRegion::new(1024))).collect();
        let mut rate = |depth: usize, ops: usize| -> (f64, f64) {
            bar.wait(&mut tok);
            let mut s = Sched::new(c);
            let t0 = Instant::now();
            let post = post_train(&mut s, &bufs, world, ops, depth);
            let dt = t0.elapsed().as_secs_f64();
            drop(s);
            (ops as f64 / dt, post as f64 / ops as f64)
        };
        let bursts: Vec<(f64, f64)> = (0..groups).map(|_| rate(16, burst)).collect();
        let depth1: Vec<f64> = (0..groups).map(|_| rate(1, burst).0).collect();
        let long = rate(16, train).0;
        // Idle poll() with N completed ops behind it: zero-length posts
        // complete at post and leave the same retired role behind.
        let polls: Vec<Vec<f64>> = [1 << 10, 8 << 10, 32 << 10]
            .iter()
            .map(|&done| {
                bar.wait(&mut tok);
                let mut s = Sched::new(c);
                for _ in 0..done {
                    s.ibcast(&[0], 0, 0, Some(&bufs[0]), 0)
                        .expect("zero-length post");
                }
                sample_ns(groups, 20, |_| s.poll())
            })
            .collect();
        (bursts, depth1, long, polls)
    });
    // Max over ranks of time = min over ranks of rate; node 0 runs the same
    // loop, so rank [0][0] stands for both.
    let (bursts, depth1, long, polls) = res.into_iter().flatten().next().expect("rank 0");
    let burst_rates: Vec<f64> = bursts.iter().map(|b| b.0).collect();
    let post: Vec<f64> = bursts.iter().map(|b| b.1).collect();
    out.push(Metric::rates(
        "sched.engine.burst_ops_per_s",
        "ops/s",
        &burst_rates,
    ));
    out.push(Metric::rates(
        "sched.engine.depth1_ops_per_s",
        "ops/s",
        &depth1,
    ));
    out.push(ns("sched.engine.post_ns", &post));
    for (name, v) in ["1K", "8K", "32K"].iter().zip(&polls) {
        out.push(ns(&format!("sched.engine.poll_ns_after_{name}_ops"), v));
    }
    out.push(Metric::scalar(
        "sched.engine.train_decay",
        "ratio",
        median(&burst_rates) / long,
        false,
    ));
}

fn server_and_svc(e: Effort, out: &mut Vec<Metric>) {
    let server = CollectiveServer::with_config(2, 1, ServerConfig::default());
    // The submit call alone, with the wait outside the clock.
    let mut submit = Vec::with_capacity(e.groups);
    for _ in 0..e.groups {
        let mut ns_in_submit = 0u64;
        let n = e.iters(100);
        for i in 0..n {
            let t0 = Instant::now();
            let t = server.submit_bcast(&[0], 0, 0, vec![i as u8; 256]);
            ns_in_submit += t0.elapsed().as_nanos() as u64;
            black_box(t.expect("submit").wait());
        }
        submit.push(ns_in_submit as f64 / n as f64);
    }
    out.push(ns("sched.server.submit_ns", &submit));
    drop(server);

    let svc = Service::with_config(2, 1, ServerConfig::default());
    let session = svc.open_session("bench", 1).expect("first session");
    let v = sample_ns(e.groups, e.iters(200), |_| {
        black_box(svc.open_session("bench", 1).expect("reopen"));
    });
    out.push(us("svc.open_session_us", &v));
    let v = sample_ns(e.groups, e.iters(200), |_| {
        black_box(session.comm_create(&[0]).expect("comm"));
    });
    out.push(us("svc.comm_create_us", &v));
    let comm = session.comm_world();
    let rtt = sample_ns(e.iters(3000).max(200), 1, |i| {
        black_box(
            comm.bcast(i % 2, 0, vec![i as u8; 256])
                .expect("bcast")
                .wait(),
        );
    });
    out.push(us("svc.depth1_rtt_us_p50", &rtt));
    out.push(tail_us("svc.lat_us_p99", &rtt));
}

// ---------------------------------------------------------------------------
// mpi / tune / sim
// ---------------------------------------------------------------------------

/// The phases of `Mpi::breakdown()` the three headline ops have today.
/// Anything else a later algorithm choice introduces lands in `other_ns`,
/// so the exclusive times always sum to the op's total.
pub const MPI_PHASES: [(&str, &[&str]); 3] = [
    (
        "bcast_small",
        &[
            "recv_stage",
            "tree_down",
            "tree_inject",
            "core_copy",
            "protocol",
            "tree_recv",
            "idle",
        ],
    ),
    (
        "bcast_large",
        &[
            "protocol",
            "core_copy",
            "intra_stage",
            "link_transfer",
            "dma_recv",
            "dma_inject",
            "idle",
        ],
    ),
    (
        "allreduce_large",
        &["core_reduce", "core_copy", "descriptor_post", "idle"],
    ),
];

/// Headline simulated ops: name, bytes moved, and how to run them.
const SIM_SMALL_BCAST: u64 = 1 << 10;
const SIM_LARGE_BCAST: u64 = 2 << 20;
const SIM_LARGE_AR_DOUBLES: u64 = 512 << 10;

fn sim_layer(e: Effort, out: &mut Vec<Metric>) {
    let cfg = MachineConfig::two_racks_quad();
    let mut mpi = Mpi::new(cfg.clone());
    mpi.enable_probe();
    let sim = |name: &str, unit: &'static str, v: f64| Metric::scalar(name, unit, v, true);
    let mut stable = true;

    for (op, phases) in MPI_PHASES {
        let (total, bytes) = match op {
            "bcast_small" => {
                let (alg, t) = mpi.bcast_auto(SIM_SMALL_BCAST);
                stable &= alg == mpi.policy().select_bcast(&cfg, SIM_SMALL_BCAST);
                (t, SIM_SMALL_BCAST)
            }
            "bcast_large" => {
                let (alg, t) = mpi.bcast_auto(SIM_LARGE_BCAST);
                stable &= alg == mpi.policy().select_bcast(&cfg, SIM_LARGE_BCAST);
                (t, SIM_LARGE_BCAST)
            }
            _ => {
                let (alg, t) = mpi.allreduce_auto(SIM_LARGE_AR_DOUBLES);
                stable &= alg
                    == mpi
                        .policy()
                        .select_allreduce(&cfg, SIM_LARGE_AR_DOUBLES * 8);
                (t, SIM_LARGE_AR_DOUBLES * 8)
            }
        };
        let b = mpi.breakdown();
        let mut other = 0;
        for p in &b.phases {
            if phases.contains(&p.phase.as_str()) {
                out.push(sim(
                    &format!("mpi.{op}.{}_ns", p.phase),
                    "sim_ns",
                    p.exclusive.as_nanos() as f64,
                ));
            } else {
                other += p.exclusive.as_nanos();
            }
        }
        out.push(sim(&format!("mpi.{op}.other_ns"), "sim_ns", other as f64));
        // The partition is exact by construction; a mismatch is a bug in
        // the probe and must show.
        stable &= b.exclusive_sum() == total;
        if op == "bcast_small" {
            out.push(sim(
                "sim.bcast_small_lat_ns",
                "sim_ns",
                total.as_nanos() as f64,
            ));
        } else {
            // bytes per simulated microsecond = simulated MB/s.
            out.push(sim(
                &format!("sim.{op}_bw_MBps"),
                "sim_MB/s",
                bytes as f64 / total.as_micros_f64(),
            ));
        }
    }
    mpi.disable_probe();

    // The algorithms *_auto picks equal the embedded table's at every
    // power-of-two size (a pure policy lookup, nothing is simulated).
    if let Some(entry) = mpi.policy().table().and_then(|t| t.entry_for(&cfg)) {
        for sh in 0..=22 {
            stable &= mpi.policy().select_bcast(&cfg, 1 << sh) == entry.select(1 << sh);
        }
    } else {
        stable = false;
    }
    out.push(sim(
        "tune.selected_alg_stable",
        "bool",
        f64::from(u8::from(stable)),
    ));

    // Host cost of one simulated op per algorithm family, at 128 KiB.
    use bgp_mpi::{AllreduceAlgorithm, BcastAlgorithm};
    let v = sample_ns(e.groups, e.iters(50), |_| {
        black_box(mpi.bcast(BcastAlgorithm::TreeShmem, 128 << 10));
    });
    out.push(us("sim.host_us_per_op_tree", &v));
    let v = sample_ns(e.groups.min(10), 1, |_| {
        black_box(mpi.bcast(BcastAlgorithm::TorusShaddr, 128 << 10));
    });
    out.push(us("sim.host_us_per_op_torus", &v));
    let v = sample_ns(e.groups, e.iters(50), |_| {
        black_box(mpi.allreduce(AllreduceAlgorithm::ShaddrSpecialized, 16 << 10));
    });
    out.push(us("sim.host_us_per_op_allreduce", &v));
}

/// Run the whole suite. `smp.proc.tax_64K` and the two residual shares are
/// computed from the timings above them.
pub fn run(e: Effort) -> Vec<Metric> {
    let mut out = Vec::new();
    shmem(e, &mut out);
    kernels_and_transport(e, &mut out);
    intra_collectives(e, &mut out);
    cluster_and_node_aware(e, &mut out);
    quad_counts(&mut out);
    proc_layer(e, &mut out);
    sched_engine(e, &mut out);
    server_and_svc(e, &mut out);
    sim_layer(e, &mut out);

    let get = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    // Proc over thread at identical geometry and size.
    let tax = get("smp.proc.bcast_64K_us") / get("smp.cluster.bcast_64K_us");
    // Transit: the share of a measured cluster broadcast that the isolated
    // stage times do not explain. Small = one 4 KiB chunk handed across
    // threads; large = 64 KiB streamed at the isolated link rate.
    let small = get("smp.cluster.bcast_4K_us");
    let small_stages = get("smp.transport.chunk_xthread_ns") / 1e3;
    let large = get("smp.cluster.bcast_64K_us");
    let large_stages = (64 << 10) as f64 / get("smp.transport.stream_MBps");
    out.push(Metric::scalar("smp.proc.tax_64K", "ratio", tax, false));
    out.push(Metric::scalar(
        "smp.cluster.bcast_small_residual_share",
        "ratio",
        (small - small_stages) / small,
        false,
    ));
    out.push(Metric::scalar(
        "smp.cluster.bcast_large_residual_share",
        "ratio",
        (large - large_stages) / large,
        false,
    ));
    out
}
