//! The benchmark's contract: every workload, end-to-end metric and
//! per-layer metric by name, with unit, direction and (end-to-end only)
//! the bound by which it may worsen before a change counts as a
//! regression. `BENCHMARK.json` at the repository root is generated from
//! these tables (`bgp-benchmark spec`) and `--selfcheck` verifies them.

use crate::layers::MPI_PHASES;
use crate::workloads::ALL;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median.
    pub bound: f64,
}

/// What one `--seconds` means for the driver, and how long one run
/// measures: BENCHMARK.json's `run_seconds`.
pub const RUN_SECONDS: u32 = 15;

/// The end-to-end metrics. Every workload reports every one of them (on
/// `sim_paper` they are host time of simulating the op, see the README).
///
/// One bound serves a metric on all six workloads, so the noisiest sets
/// it, and this host sets all of them to the contract's maximum: on a quiet
/// host identical runs spread 1–5 %, but in the disturbed periods that last
/// minutes here (see `harness::undisturbed_ns`) `svc_saturated` (four
/// threads on two cores) spreads up to 19 % and the others up to 14 %. The
/// README has the measured spreads per workload.
pub const E2E: [E2e; 6] = [
    E2e {
        name: "allreduce_large_bw_MBps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "allreduce_small_lat_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "bcast_large_bw_MBps",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "bcast_small_lat_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    E2e {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    E2e {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn l(name: &str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name: name.to_string(),
        unit,
        better,
    }
}

/// Span names whose exclusive share of a traced workload's wall time is
/// reported as `trace.<name>_share` (`op` sums every `op.*` span).
pub const TRACE_SHARES: [&str; 11] = [
    "construct",
    "dispatch",
    "alloc",
    "prepare",
    "barrier",
    "op",
    "submit",
    "wait",
    "verify",
    "teardown",
    "idle",
];

/// The per-layer metrics, grouped by layer (= module) in the order the
/// README discusses them.
pub fn per_layer() -> Vec<Layer> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // shmem
        l("shmem.bcast_fifo.msg_ns", "ns", Lower),
        l("shmem.ptp_fifo.msg_ns", "ns", Lower),
        l("shmem.counter.handoff_ns", "ns", Lower),
        l("shmem.counter.polls_per_wait", "ratio", Lower),
        l("shmem.completion.arrive_wait_ns", "ns", Lower),
        l("shmem.window.map_hit_ns", "ns", Lower),
        l("shmem.window.map_miss_ns", "ns", Lower),
        l("shmem.window.hit_ratio", "ratio", Higher),
        l("shmem.region.copy_MBps", "MB/s", Higher),
        l("shmem.seqlock.roundtrip_ns", "ns", Lower),
        l("shmem.segment.create_attach_us", "us", Lower),
        l("shmem.fifo.enqueued", "count", Lower),
        l("shmem.fifo.retired", "count", Lower),
        // smp.kernels
        l("smp.kernels.add_bytes_f64_MBps", "MB/s", Higher),
        l("smp.kernels.add_bytes_into_MBps", "MB/s", Higher),
        l("smp.kernels.add_assign_f64_MBps", "MB/s", Higher),
        l("smp.kernels.bytes_per_flop", "B/flop", Lower),
        // smp.transport
        l("smp.transport.reserve_publish_ns", "ns", Lower),
        l("smp.transport.chunk_xthread_ns", "ns", Lower),
        l("smp.transport.stream_MBps", "MB/s", Higher),
        l("smp.transport.chunks_sent", "count", Lower),
    ];
    // smp.collectives
    for alg in ["shmem", "fifo", "shaddr"] {
        v.push(l(
            &format!("smp.collectives.bcast_{alg}_256B_us"),
            "us",
            Lower,
        ));
        v.push(l(
            &format!("smp.collectives.bcast_{alg}_16K_us"),
            "us",
            Lower,
        ));
        v.push(l(
            &format!("smp.collectives.bcast_{alg}_4M_MBps"),
            "MB/s",
            Higher,
        ));
    }
    v.extend([
        l("smp.collectives.allreduce_16K_us", "us", Lower),
        l("smp.collectives.allgather_16K_us", "us", Lower),
        // smp.cluster
        l("smp.cluster.new_us", "us", Lower),
        l("smp.cluster.dispatch_us", "us", Lower),
        l("smp.cluster.barrier_ns", "ns", Lower),
        l("smp.cluster.bcast_4K_us", "us", Lower),
        l("smp.cluster.bcast_64K_us", "us", Lower),
        l("smp.cluster.allreduce_4K_us", "us", Lower),
        l("smp.cluster.allreduce_64K_us", "us", Lower),
        l("smp.cluster.bcast_small_residual_share", "ratio", Lower),
        l("smp.cluster.bcast_large_residual_share", "ratio", Lower),
        l("smp.cluster.quad_chunks_flat", "count", Lower),
        l("smp.cluster.quad_bcast_recv_ops", "count", Lower),
        l("smp.cluster.quad_window_hits", "count", Higher),
        l("smp.cluster.quad_window_misses", "count", Lower),
        l("smp.cluster.quad_copyout_overlapped", "count", Higher),
        // smp.node_aware
        l("smp.node_aware.allreduce_64K_us", "us", Lower),
        l("smp.node_aware.allreduce_4M_us", "us", Lower),
        l("smp.node_aware.fused_64K_us", "us", Lower),
        l("smp.node_aware.fused_4M_us", "us", Lower),
        l("smp.node_aware.reduce_scatter_64K_us", "us", Lower),
        l("smp.node_aware.allgather_64K_us", "us", Lower),
        l("smp.node_aware.alltoall_4K_us", "us", Lower),
        l("smp.node_aware.quad_chunks", "count", Lower),
        // smp.proc
        l("smp.proc.spawn_ms", "ms", Lower),
        l("smp.proc.handshake_us", "us", Lower),
        l("smp.proc.pattern_gen_64K_us", "us", Lower),
        l("smp.proc.pattern_gen_1M_us", "us", Lower),
        l("smp.proc.node_bcast_heap_64K_us", "us", Lower),
        l("smp.proc.bcast_64K_us", "us", Lower),
        l("smp.proc.tax_64K", "ratio", Lower),
        l("smp.proc.chunks_sent", "count", Lower),
        l("smp.proc.lat_us_p99", "us", Lower),
        // sched.engine
        l("sched.engine.burst_ops_per_s", "ops/s", Higher),
        l("sched.engine.depth1_ops_per_s", "ops/s", Higher),
        l("sched.engine.post_ns", "ns", Lower),
        l("sched.engine.poll_ns_after_1K_ops", "ns", Lower),
        l("sched.engine.poll_ns_after_8K_ops", "ns", Lower),
        l("sched.engine.poll_ns_after_32K_ops", "ns", Lower),
        l("sched.engine.train_decay", "ratio", Lower),
        l("sched.engine.stash_parked", "count", Lower),
        l("sched.engine.stash_evicted", "count", Lower),
        // sched.server
        l("sched.server.submit_ns", "ns", Lower),
        l("sched.server.queue_wait_us_per_op", "us", Lower),
        l("sched.server.ops_per_batch", "ratio", Higher),
        l("sched.server.coalesced_share", "ratio", Higher),
        l("sched.server.rejected_share", "ratio", Lower),
        l("sched.server.peak_queue_depth", "count", Lower),
        l("sched.server.batches", "count", Lower),
        // svc
        l("svc.open_session_us", "us", Lower),
        l("svc.comm_create_us", "us", Lower),
        l("svc.depth1_rtt_us_p50", "us", Lower),
        l("svc.lat_us_p99", "us", Lower),
        l("svc.batch_lat_us_p50", "us", Lower),
        l("svc.tenant_wait_us_w1", "us", Lower),
        l("svc.tenant_wait_us_w3", "us", Lower),
        l("svc.completed_share_w3", "ratio", Higher),
    ]);
    // mpi / tune / sim: exclusive simulated ns per phase of the three
    // headline ops, and the headline simulated numbers themselves.
    for (op, phases) in MPI_PHASES {
        for p in phases.iter().chain(["other"].iter()) {
            v.push(l(&format!("mpi.{op}.{p}_ns"), "sim_ns", Lower));
        }
    }
    v.extend([
        l("sim.bcast_small_lat_ns", "sim_ns", Lower),
        l("sim.bcast_large_bw_MBps", "sim_MB/s", Higher),
        l("sim.allreduce_large_bw_MBps", "sim_MB/s", Higher),
        l("tune.selected_alg_stable", "bool", Higher),
        l("sim.host_us_per_op_tree", "us", Lower),
        l("sim.host_us_per_op_torus", "us", Lower),
        l("sim.host_us_per_op_allreduce", "us", Lower),
        l("sim.sweep_host_s", "s", Lower),
    ]);
    // The traced workload itself.
    v.push(l("trace_overhead_share", "ratio", Lower));
    for s in TRACE_SHARES {
        v.push(l(&format!("trace.{s}_share"), "ratio", Lower));
    }
    v
}

fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

/// Check the tables against the driver's limits. Returns every violation.
pub fn violations() -> Vec<String> {
    let mut bad = Vec::new();
    let layers = per_layer();
    let mut names: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    names.extend(E2E.iter().map(|m| m.name));
    names.extend(layers.iter().map(|m| m.name.as_str()));
    for n in &names {
        if !valid_name(n) {
            bad.push(format!(
                "name {n:?} is outside [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            bad.push(format!("name {:?} is used twice", w[0]));
        }
    }
    for (unit, name) in E2E
        .iter()
        .map(|m| (m.unit, m.name))
        .chain(layers.iter().map(|m| (m.unit, m.name.as_str())))
    {
        if !valid_unit(unit) {
            bad.push(format!("unit {unit:?} of {name} is not allowed"));
        }
    }
    if !(2..=8).contains(&ALL.len()) {
        bad.push(format!("{} workloads, allowed 2..=8", ALL.len()));
    }
    if !(1..=16).contains(&E2E.len()) {
        bad.push(format!("{} end-to-end metrics, allowed 1..=16", E2E.len()));
    }
    if !(1..=128).contains(&layers.len()) {
        bad.push(format!(
            "{} per-layer metrics, allowed 1..=128",
            layers.len()
        ));
    }
    for m in &E2E {
        if !(m.bound > 0.0 && m.bound <= 0.25) {
            bad.push(format!(
                "bound {} of {} is outside (0, 0.25]",
                m.bound, m.name
            ));
        }
    }
    let setup = E2E.iter().find(|m| m.name == "setup_s");
    if !setup.is_some_and(|m| m.unit == "s" && m.better == Better::Lower) {
        bad.push("setup_s (unit s, lower is better) is missing".to_string());
    }
    for w in ALL {
        if w.why().len() > 200 || w.why().contains('\n') {
            bad.push(format!(
                "why of {} is not one line of <= 200 characters",
                w.name()
            ));
        }
    }
    bad
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    use bgp_sim::json::{escape, fmt_f64};
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                escape(w.name()),
                escape(w.why())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = E2E
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                escape(m.name),
                escape(m.unit),
                escape(m.better.as_str()),
                fmt_f64(m.bound)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                escape(&m.name),
                escape(m.unit),
                escape(m.better.as_str())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}
