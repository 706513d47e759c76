//! # Probe — the per-phase observability layer
//!
//! The paper's argument is a *breakdown* argument: staging copies vs. direct
//! copies, network injection overlapped with intra-node `Pwidth`-chunk
//! copies, per-color partitions. End-to-end `SimTime` alone cannot localize
//! a drifted cost model, so every simulated transfer primitive can report
//! *where* its time went through a [`Probe`]:
//!
//! * **Spans** — `(op, algorithm, phase)`-keyed intervals of simulated time,
//!   tagged with the node they ran on. The op/algorithm pair is set once per
//!   operation via [`Probe::begin_op`]; phases are static names like
//!   `"dma_inject"` or `"core_copy"`.
//! * **Counters** — named event counts (chunks sent, counter polls, FIFO
//!   slots) for protocol-level accounting.
//!
//! ## Zero cost when disabled
//!
//! A probe starts disabled; every record method is a single branch on
//! [`Probe::is_enabled`] in that state, and recording never influences the
//! simulation itself (it reserves no server time and schedules no events),
//! so timing tests and determinism are unaffected either way.
//!
//! ## Exclusive attribution
//!
//! Spans overlap freely — every node copies while the network injects. The
//! wall-clock question "where did the time go" needs a partition, so
//! [`Probe::breakdown`] attributes every instant of `[0, total]` to exactly
//! one phase: the **latest-started** span covering it (ties broken by record
//! order), or `"idle"` when nothing covers it. By construction the reported
//! exclusive times (including idle) sum to `total` *exactly*; per-phase
//! `busy` times additionally report the raw (overlapping) span sums.
//!
//! The Chrome-trace exporter ([`Probe::chrome_trace`]) emits the standard
//! `chrome://tracing` / Perfetto JSON array format, one track per node.
//! Schema version: see [`TRACE_SCHEMA`].

use crate::json;
use crate::time::SimTime;

/// Version tag stamped into every exported breakdown and trace.
pub const TRACE_SCHEMA: &str = "bgp-trace-v1";

/// One recorded interval of simulated time on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase name (static: `"dma_inject"`, `"core_copy"`, ...).
    pub phase: &'static str,
    /// Node the phase ran on.
    pub node: u32,
    /// Interval start (simulated).
    pub start: SimTime,
    /// Interval end (simulated), `>= start`.
    pub end: SimTime,
}

/// One phase row of a [`Breakdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Phase name.
    pub phase: String,
    /// Sum of raw span durations (overlaps counted multiply).
    pub busy: SimTime,
    /// Exclusively attributed time (see module docs); slices sum to the
    /// breakdown total.
    pub exclusive: SimTime,
    /// Number of spans recorded under this phase.
    pub spans: u64,
}

/// The per-phase account of one operation's makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breakdown {
    /// Operation name (e.g. `"bcast"`).
    pub op: String,
    /// Algorithm name (e.g. `"TorusShaddr"`).
    pub alg: String,
    /// The makespan being attributed.
    pub total: SimTime,
    /// Phase rows, sorted by descending exclusive time; includes an
    /// `"idle"` row when part of the makespan is uncovered.
    pub phases: Vec<PhaseSlice>,
}

impl Breakdown {
    /// Exclusive times summed over all rows — equals `total` by
    /// construction (the invariant the integration tests assert).
    pub fn exclusive_sum(&self) -> SimTime {
        SimTime::from_nanos(self.phases.iter().map(|p| p.exclusive.as_nanos()).sum())
    }

    /// Machine-readable JSON (schema [`TRACE_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::escape(TRACE_SCHEMA)));
        out.push_str(&format!("  \"op\": {},\n", json::escape(&self.op)));
        out.push_str(&format!("  \"algorithm\": {},\n", json::escape(&self.alg)));
        out.push_str(&format!("  \"total_ns\": {},\n", self.total.as_nanos()));
        out.push_str("  \"phases\": [\n");
        for (i, p) in self.phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\": {}, \"exclusive_ns\": {}, \"busy_ns\": {}, \"spans\": {}}}{}\n",
                json::escape(&p.phase),
                p.exclusive.as_nanos(),
                p.busy.as_nanos(),
                p.spans,
                if i + 1 < self.phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

/// Span + counter recorder for one simulated operation. See module docs.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    enabled: bool,
    op: String,
    alg: String,
    spans: Vec<Span>,
    counters: Vec<(&'static str, u64)>,
}

impl Probe {
    /// A disabled probe: all record calls are no-ops until
    /// [`enable`](Self::enable).
    pub fn new() -> Self {
        Probe::default()
    }

    /// Start recording. Also clears any previously recorded data.
    pub fn enable(&mut self) {
        self.enabled = true;
        self.clear();
    }

    /// Stop recording (recorded data is kept until `enable`/`clear`).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether record calls currently capture anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drop all spans, counters, and the op context.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.op.clear();
        self.alg.clear();
    }

    /// Set the `(op, algorithm)` context for subsequent spans and clear the
    /// previous operation's data — each operation's recording is
    /// self-contained so its breakdown can be checked against its own
    /// makespan.
    pub fn begin_op(&mut self, op: &str, alg: &str) {
        if !self.enabled {
            return;
        }
        self.spans.clear();
        self.counters.clear();
        self.op.clear();
        self.op.push_str(op);
        self.alg.clear();
        self.alg.push_str(alg);
    }

    /// Record a `[start, end]` span of `phase` on `node`.
    #[inline]
    pub fn record(&mut self, phase: &'static str, node: u32, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        debug_assert!(end >= start, "span ends before it starts: {phase}");
        self.spans.push(Span {
            phase,
            node,
            start,
            end,
        });
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn count(&mut self, name: &'static str, delta: u64) {
        if !self.enabled {
            return;
        }
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += delta,
            None => self.counters.push((name, delta)),
        }
    }

    /// All recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All counters, in first-touch order.
    pub fn counters(&self) -> &[(&'static str, u64)] {
        &self.counters
    }

    /// Value of one counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The current op context as `(op, algorithm)`.
    pub fn context(&self) -> (&str, &str) {
        (&self.op, &self.alg)
    }

    /// Attribute `[0, total]` exclusively across phases (see module docs).
    pub fn breakdown(&self, total: SimTime) -> Breakdown {
        // Sweep events: (time, kind, key). Kind orders removals before
        // insertions at equal time so zero-length and back-to-back spans
        // behave; key = (start, seq) picks the latest-started active span.
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        struct Key {
            start: u64,
            seq: usize,
        }
        let horizon = total.as_nanos();
        let mut events: Vec<(u64, bool, Key)> = Vec::with_capacity(self.spans.len() * 2);
        for (seq, s) in self.spans.iter().enumerate() {
            let a = s.start.as_nanos().min(horizon);
            let b = s.end.as_nanos().min(horizon);
            if a >= b {
                continue; // zero length (or clipped away): no time to attribute
            }
            let key = Key { start: a, seq };
            events.push((a, true, key));
            events.push((b, false, key));
        }
        // At a tie, process removals (false < true) first.
        events.sort_by_key(|&(t, add, k)| (t, add, k));

        let mut active = std::collections::BTreeSet::<Key>::new();
        let mut excl: std::collections::HashMap<&'static str, u64> = Default::default();
        let mut idle = 0u64;
        let mut cursor = 0u64;
        let mut i = 0;
        while i <= events.len() {
            let t = if i == events.len() {
                horizon
            } else {
                events[i].0
            };
            if t > cursor {
                let dur = t - cursor;
                match active.iter().next_back() {
                    Some(k) => *excl.entry(self.spans[k.seq].phase).or_default() += dur,
                    None => idle += dur,
                }
                cursor = t;
            }
            if i == events.len() {
                break;
            }
            // Apply every event at time t.
            while i < events.len() && events[i].0 == t {
                let (_, add, k) = events[i];
                if add {
                    active.insert(k);
                } else {
                    active.remove(&k);
                }
                i += 1;
            }
        }

        // Raw (overlapping) busy sums and span counts per phase.
        let mut rows: Vec<PhaseSlice> = Vec::new();
        for s in &self.spans {
            match rows.iter_mut().find(|r| r.phase == s.phase) {
                Some(r) => {
                    r.busy += s.end - s.start;
                    r.spans += 1;
                }
                None => rows.push(PhaseSlice {
                    phase: s.phase.to_string(),
                    busy: s.end - s.start,
                    exclusive: SimTime::ZERO,
                    spans: 1,
                }),
            }
        }
        for r in rows.iter_mut() {
            r.exclusive = SimTime::from_nanos(excl.get(r.phase.as_str()).copied().unwrap_or(0));
        }
        if idle > 0 {
            rows.push(PhaseSlice {
                phase: "idle".to_string(),
                busy: SimTime::ZERO,
                exclusive: SimTime::from_nanos(idle),
                spans: 0,
            });
        }
        rows.sort_by(|a, b| {
            b.exclusive
                .cmp(&a.exclusive)
                .then_with(|| a.phase.cmp(&b.phase))
        });
        Breakdown {
            op: self.op.clone(),
            alg: self.alg.clone(),
            total,
            phases: rows,
        }
    }

    /// Export all spans in collapsed-stack ("folded") format — the input
    /// of `inferno-flamegraph` and speedscope's "collapsed" importer: one
    /// line per distinct stack, `frame;frame;...;frame <count>`, counts
    /// summed over spans and expressed in nanoseconds of span time. The
    /// synthesized stack is `op;alg;node<N>;phase`, so a flamegraph groups
    /// by operation, then algorithm, then node track, then phase (empty
    /// op/alg frames are skipped). Lines are sorted lexicographically —
    /// the output is byte-stable for identical recordings.
    pub fn collapsed(&self) -> String {
        let mut stacks: std::collections::BTreeMap<String, u64> = Default::default();
        for s in &self.spans {
            let mut frames: Vec<String> = Vec::with_capacity(4);
            if !self.op.is_empty() {
                frames.push(self.op.clone());
            }
            if !self.alg.is_empty() {
                frames.push(self.alg.clone());
            }
            frames.push(format!("node{}", s.node));
            frames.push(s.phase.to_string());
            *stacks.entry(frames.join(";")).or_default() += (s.end - s.start).as_nanos();
        }
        let mut out = String::new();
        for (stack, ns) in stacks {
            out.push_str(&format!("{stack} {ns}\n"));
        }
        out
    }

    /// Export all spans in the Chrome tracing (`chrome://tracing`,
    /// Perfetto) JSON array format: complete (`"ph": "X"`) events,
    /// microsecond timestamps, one `tid` track per node. Schema
    /// [`TRACE_SCHEMA`] is stamped into the first metadata event. Any
    /// recorded [`Self::count`] totals follow as counter (`"ph": "C"`)
    /// events so service-level gauges (queue depth, wait time,
    /// refusals) land in the same artifact as the phase timeline.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        out.push_str(&format!(
            "{{\"name\": \"schema\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"args\": {{\"version\": {}, \"op\": {}, \"algorithm\": {}}}}}",
            json::escape(TRACE_SCHEMA),
            json::escape(&self.op),
            json::escape(&self.alg),
        ));
        for s in &self.spans {
            out.push_str(",\n");
            out.push_str(&format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \"tid\": {}}}",
                json::escape(s.phase),
                json::escape(&self.alg),
                json::fmt_f64(s.start.as_nanos() as f64 / 1000.0),
                json::fmt_f64((s.end - s.start).as_nanos() as f64 / 1000.0),
                s.node,
            ));
        }
        for (name, value) in self.counters() {
            out.push_str(",\n");
            out.push_str(&format!(
                "{{\"name\": {}, \"ph\": \"C\", \"ts\": 0, \"pid\": 0, \"args\": {{\"value\": {}}}}}",
                json::escape(name),
                value,
            ));
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = Probe::new();
        p.begin_op("bcast", "X");
        p.record("a", 0, t(0), t(10));
        p.count("c", 3);
        assert!(p.spans().is_empty());
        assert_eq!(p.counter("c"), 0);
        assert_eq!(p.context(), ("", ""));
    }

    #[test]
    fn counters_accumulate() {
        let mut p = Probe::new();
        p.enable();
        p.count("chunks", 2);
        p.count("chunks", 3);
        p.count("polls", 1);
        assert_eq!(p.counter("chunks"), 5);
        assert_eq!(p.counter("polls"), 1);
        assert_eq!(p.counter("absent"), 0);
    }

    #[test]
    fn begin_op_isolates_operations() {
        let mut p = Probe::new();
        p.enable();
        p.begin_op("bcast", "A");
        p.record("a", 0, t(0), t(5));
        p.begin_op("allreduce", "B");
        assert!(p.spans().is_empty());
        assert_eq!(p.context(), ("allreduce", "B"));
    }

    #[test]
    fn breakdown_partitions_exactly_with_gaps_and_overlap() {
        let mut p = Probe::new();
        p.enable();
        p.begin_op("bcast", "X");
        // [0,10] a; [5,20] b (later start wins on [5,10]); gap [20,30];
        // [30,40] a again.
        p.record("a", 0, t(0), t(10));
        p.record("b", 1, t(5), t(20));
        p.record("a", 0, t(30), t(40));
        let bd = p.breakdown(t(50));
        assert_eq!(bd.exclusive_sum(), t(50));
        let get = |name: &str| bd.phases.iter().find(|r| r.phase == name).unwrap();
        assert_eq!(get("a").exclusive, t(15)); // [0,5] + [30,40]
        assert_eq!(get("b").exclusive, t(15)); // [5,20]
        assert_eq!(get("idle").exclusive, t(20)); // [20,30] + [40,50]
        assert_eq!(get("a").busy, t(20));
        assert_eq!(get("a").spans, 2);
    }

    #[test]
    fn breakdown_clips_to_horizon_and_skips_empty_spans() {
        let mut p = Probe::new();
        p.enable();
        p.record("a", 0, t(0), t(0)); // zero length
        p.record("b", 0, t(5), t(100)); // runs past horizon
        let bd = p.breakdown(t(10));
        assert_eq!(bd.exclusive_sum(), t(10));
        let b = bd.phases.iter().find(|r| r.phase == "b").unwrap();
        assert_eq!(b.exclusive, t(5));
        let idle = bd.phases.iter().find(|r| r.phase == "idle").unwrap();
        assert_eq!(idle.exclusive, t(5));
    }

    #[test]
    fn latest_started_span_wins_ties_by_record_order() {
        let mut p = Probe::new();
        p.enable();
        p.record("first", 0, t(0), t(10));
        p.record("second", 1, t(0), t(10));
        let bd = p.breakdown(t(10));
        let second = bd.phases.iter().find(|r| r.phase == "second").unwrap();
        assert_eq!(second.exclusive, t(10));
        let first = bd.phases.iter().find(|r| r.phase == "first").unwrap();
        assert_eq!(first.exclusive, t(0));
        assert_eq!(first.busy, t(10));
    }

    #[test]
    fn breakdown_json_and_trace_parse() {
        let mut p = Probe::new();
        p.enable();
        p.begin_op("bcast", "TorusShaddr");
        p.record("dma_inject", 3, t(100), t(2500));
        p.record("core_copy", 3, t(2500), t(4000));
        let bd = p.breakdown(t(5000));
        let parsed = json::parse(&bd.to_json()).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(TRACE_SCHEMA));
        assert_eq!(parsed.get("total_ns").unwrap().as_f64(), Some(5000.0));
        let phases = parsed.get("phases").unwrap().as_arr().unwrap();
        let sum: f64 = phases
            .iter()
            .map(|ph| ph.get("exclusive_ns").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(sum, 5000.0);

        let trace = json::parse(&p.chrome_trace()).unwrap();
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 3); // metadata + 2 spans
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("ts").unwrap().as_f64(), Some(0.1));
        assert_eq!(events[1].get("dur").unwrap().as_f64(), Some(2.4));
        assert_eq!(events[2].get("tid").unwrap().as_f64(), Some(3.0));
    }

    #[test]
    fn collapsed_export_is_folded_format_and_stable() {
        let mut p = Probe::new();
        p.enable();
        p.begin_op("bcast", "TorusShaddr");
        p.record("dma_inject", 3, t(100), t(2500));
        p.record("core_copy", 3, t(2500), t(4000));
        p.record("dma_inject", 3, t(4000), t(4100)); // same stack: summed
        p.record("core_copy", 0, t(0), t(500)); // other node: own stack
        let folded = p.collapsed();
        assert_eq!(folded, p.collapsed(), "byte-stable");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            // inferno/speedscope collapsed rules: frames;...;frames <int>
            let (stack, count) = line.rsplit_once(' ').expect("space before count");
            assert!(count.parse::<u64>().is_ok(), "integer count: {line}");
            assert!(!stack.is_empty() && !stack.starts_with(';') && !stack.ends_with(';'));
            assert!(stack.starts_with("bcast;TorusShaddr;node"), "{line}");
        }
        assert!(folded.contains("bcast;TorusShaddr;node3;dma_inject 2500\n"));
        assert!(folded.contains("bcast;TorusShaddr;node0;core_copy 500\n"));
        // Sorted lexicographically: node0 line first.
        assert!(lines[0].contains("node0"));
    }

    #[test]
    fn chrome_trace_emits_counter_events() {
        let mut p = Probe::new();
        p.enable();
        p.begin_op("sched", "Server");
        p.record("dispatch", 0, t(0), t(1000));
        p.count("sched.queue_depth", 4);
        p.count("sched.coalesced", 6);
        let trace = json::parse(&p.chrome_trace()).unwrap();
        let events = trace.as_arr().unwrap();
        assert_eq!(events.len(), 4); // metadata + 1 span + 2 counters
        let counters: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("C"))
            .collect();
        assert_eq!(counters.len(), 2);
        let depth = counters
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("sched.queue_depth"))
            .expect("queue depth counter present");
        assert_eq!(
            depth.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(4.0)
        );
    }
}
