#!/usr/bin/env bash
# CI gate: the one-file rule for link sends, every bin/bench target the
# docs name resolving to a source file, formatting, lints, the tier-1
# verify (release build + every member's unit, integration and doc tests),
# an offline build of benchmark/ against the workspace, bounded soaks of
# the formerly livelocking service test, of the scheduler-stash
# regression and of the service's park/wake, shutdown and admission cases, the
# bgp-check model-checking
# suites, a smoke run
# of all_experiments checking that its JSON report (one array of the 11
# figures) and its --trace probe artifacts parse, the performance-regression gate (bench_gate) against the
# committed baseline, and the two committed simulator artifacts
# (experiments_paper_scale.txt, tuning/default.json) reproducing exactly.
set -euo pipefail
cd "$(dirname "$0")"

# Provenance for bench artifacts: bench_gate stamps this SHA (plus a
# monotonic sequence number) into its BENCH_*.json metadata
# so the report subsystem can order history without file mtimes.
BGP_GIT_SHA="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
export BGP_GIT_SHA

# Every smoke artifact is removed on exit — success, failure, or ^C — so a
# failing step can no longer leak ci_*.json/BENCH_*.json into the tree
# (the committed BENCH_baseline.json / BENCH_pr<N>.json are history points,
# not smoke artifacts, and stay).
cleanup() {
  rm -f ci_figures.json BENCH_fig6_phases.json BENCH_fig6_trace.json \
    BENCH_fig6_folded.txt BENCH_table1_phases.json BENCH_table1_trace.json \
    BENCH_table1_folded.txt BENCH_ci.json ci_svc_soak.json
  rm -rf ci_report
  # Stray cross-process segments from an interrupted proc_cluster run.
  # (Worker processes need no kill here: they watch getppid and exit on
  # their own once the parent is gone.)
  rm -f /dev/shm/bgp-proc-*.seg "${TMPDIR:-/tmp}"/bgp-proc-*.seg 2>/dev/null || true
}
trap cleanup EXIT

# Link sends live in one file. bgp_smp::wire is the only module of bgp-smp /
# bgp-sched that may originate a chunk on a ChunkChannel (transport.rs
# defines the calls); a send loop growing back anywhere else fails here.
echo "== guard: no link send outside crates/smp/src/wire.rs"
if grep -nE 'send_with\(|try_send_with\(|\.reserve\(|\.try_reserve\(' \
  crates/smp/src/{cluster,node_aware,proc,runtime}.rs crates/sched/src/*.rs; then
  echo "link send outside bgp_smp::wire (see DESIGN 5e)" >&2
  exit 1
fi

# The blocking node allreduces write their results straight into the
# callers' outputs: no region is allocated on their per-op path. Only the
# non-test part of each file (up to its first #[cfg(test)]) is searched.
# node_aware.rs is out of scope: node_op still allocates its accumulator.
echo "== guard: no alloc_buffer( on the per-op path of collectives.rs / cluster.rs"
for f in crates/smp/src/{collectives,cluster}.rs; do
  if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
    grep -F 'alloc_buffer('; then
    echo "per-op region allocation in $f (results belong in the callers' outputs)" >&2
    exit 1
  fi
done

# The blocking ops find a peer's window on the node's window board
# (bgp_smp::runtime::WindowBoard), not in the registry map: a registry map
# or withdrawal in the non-test part of crates/smp/src fails here.
echo "== guard: no registry map or unexpose on the blocking path of crates/smp/src"
for f in crates/smp/src/*.rs; do
  if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f" |
    grep -E 'map_auto_blocking\(|try_map_auto\(|\.unexpose\('; then
    echo "registry map in $f (blocking ops map through the window board)" >&2
    exit 1
  fi
done

# The nonblocking engine keeps an op's windows in the op's counter block
# (bgp_shmem::OpWindow): an owner posts its buffer there and a peer maps it,
# so nothing in crates/sched/src exposes, maps or withdraws a window in the
# registry map.
echo "== guard: no registry expose, map or unexpose in crates/sched/src"
if grep -nE 'try_map_auto\(|\.unexpose\(|registry\(\)\.expose\(' crates/sched/src/*.rs; then
  echo "registry map in crates/sched/src (engine windows live in the op's OpCounters block)" >&2
  exit 1
fi

# Every spin-wait on a peer yields through bgp_shmem::spin, the one place
# that sees the cluster's abort flag: a wait that yields on its own would
# hang on a peer that panicked. (The service's resident rank loop also
# parks outside spin, the lead on the queue's not_empty Condvar and the
# other ranks in their plan channel's recv; those are waits for work, not
# for a peer, and the close or the dropped sender ends them.) A yield_now
# in the non-test part of crates/smp/src (but proc.rs, whose processes
# have no such flag), crates/sched/src or crates/shmem/src (but lib.rs,
# which defines spin) fails here.
echo "== guard: no yield_now outside bgp_shmem::spin"
if for f in crates/smp/src/*.rs crates/sched/src/*.rs crates/shmem/src/*.rs; do
  case "$f" in crates/smp/src/proc.rs | crates/shmem/src/lib.rs) continue ;; esac
  awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -F 'yield_now'; then
  echo "a wait yields outside bgp_shmem::spin (it would miss the abort flag)" >&2
  exit 1
fi

# A per-op path clones no cluster-wide Arc: an Arc clone writes its
# refcount, which shares a cache line with what every rank of every node
# reads per op (the fabric's link table, the cluster's geometry). The
# engine's pass and the blocking cluster collectives borrow instead; a
# clone of self.fabric or self.shared in the non-test part of engine.rs or
# cluster.rs fails here.
echo "== guard: no self.fabric.clone() / self.shared.clone() in engine.rs and cluster.rs"
if for f in crates/sched/src/engine.rs crates/smp/src/cluster.rs; do
  awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'self\.fabric\.clone\(\)|self\.shared\.clone\(\)'; then
  echo "cluster-wide Arc cloned on a per-op path (borrow it)" >&2
  exit 1
fi

# The service adopts each allreduce member's input vector as its input
# region: filling a fresh region from the input (a copy per member) in the
# non-test part of server.rs fails here.
echo "== guard: no write_f64s( on the service's allreduce path in crates/sched/src/server.rs"
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
  crates/sched/src/server.rs | grep -F 'write_f64s('; then
  echo "server.rs copies an input into a region (adopt it: SharedRegion::from_f64s)" >&2
  exit 1
fi

# The service moves every member's result out of the region it landed in
# (SharedRegion::into_bytes / into_f64s) and never copies it: a read-out of
# a region in the non-test part of server.rs fails here.
echo "== guard: no with_bytes( on the service's result path in crates/sched/src/server.rs"
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
  crates/sched/src/server.rs | grep -F 'with_bytes('; then
  echo "server.rs copies a result out of its region (move it: into_bytes / into_f64s)" >&2
  exit 1
fi

# The nonblocking engine reaches its counters only through each op's one
# counter block (bgp_shmem::OpCounters), looked up once per post and
# recycled by the bank: a per-stream MessageCounter growing back in the
# non-test part of engine.rs fails here.
echo "== guard: no MessageCounter outside the op's counter block in crates/sched/src/engine.rs"
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
  crates/sched/src/engine.rs | grep -F 'MessageCounter'; then
  echo "engine.rs names MessageCounter (counters belong in the op's OpCounters block)" >&2
  exit 1
fi

# The engine keys its in-flight ops by op id (its OpRing: an index, no
# tree) and hashes integer keys with bgp_shmem::IdHasher (IdMap / IdSet,
# no SipHash); so do the counter bank and a rank's window cache. A std map
# or set in the non-test part of engine.rs, bank.rs or runtime.rs fails
# here.
echo "== guard: no BTreeMap / HashMap / HashSet in engine.rs, bank.rs and runtime.rs"
if for f in crates/sched/src/engine.rs crates/shmem/src/bank.rs crates/smp/src/runtime.rs; do
  awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' "$f"
done | grep -E 'BTreeMap|HashMap|HashSet'; then
  echo "std map or set on the engine's per-op path (use OpRing or IdMap / IdSet)" >&2
  exit 1
fi

# The service has no thread of its own: global rank 0 (the lead) drains the
# tenant queues inside its resident loop. A thread spawned in the non-test
# part of server.rs — a dispatcher coming back — fails here.
echo "== guard: no thread spawned in crates/sched/src/server.rs"
if awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
  crates/sched/src/server.rs | grep -E 'thread::spawn|thread::Builder'; then
  echo "server.rs spawns a thread (the lead rank drains the queues)" >&2
  exit 1
fi

# Docs name runnable targets; a deletion must not leave one dangling. Every
# `--bin X` / `--bench X` in the docs, this script and the verify skill must
# resolve to a source file of that name.
echo "== guard: every bin/bench target named in the docs exists"
grep -ohE -e '--(bin|bench) [a-z0-9_]+' README.md DESIGN.md EXPERIMENTS.md ci.sh \
  .claude/skills/verify/SKILL.md | sort -u | while read -r kind name; do
  case "$kind" in
  --bin) ls crates/*/src/bin/"$name".rs >/dev/null 2>&1 ;;
  --bench) ls crates/*/benches/"$name".rs >/dev/null 2>&1 ;;
  esac || {
    echo "docs name a missing target: $kind $name" >&2
    exit 1
  }
done

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy --features model (-D warnings)"
cargo clippy -p bgp-shmem -p bgp-smp -p bgp-sched --all-targets --features model -- -D warnings

# BGP_STRESS_FULL=1 restores the full stress-test iteration counts that
# bgp_shmem::testing::stress_iters would otherwise scale down on small
# (1-2 core) hosts. CI always runs the full volumes. The root Cargo.toml's
# default-members make these cover every workspace member.
echo "== tier-1: cargo build --release && cargo test -q (full stress volumes)"
cargo build --release
BGP_STRESS_FULL=1 cargo test -q

# benchmark/ is a package of its own (outside the workspace, so clippy and
# tier-1 never compile it) and the only source of real-runtime wall-clock
# numbers: a public item it compiles against must not disappear unnoticed.
echo "== benchmark/ builds offline against the workspace crates"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# The path of built integration-test binary $1 (cargo test args follow).
built_test() {
  local name="$1"
  shift
  cargo test "$@" --test "$name" --no-run --message-format=json 2>/dev/null |
    python3 -c 'import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m["target"]["name"] == sys.argv[1] and m.get("executable"):
        print(m["executable"])' "$name"
}

# Bounded soak of the test that used to livelock in ~1 % of debug runs (the
# engine retired a broadcast's counters before a late root had looked them
# up): the built tests/svc.rs binary, 200 times, each under a timeout — a
# reintroduced wait of that class costs CI a minute, not forever.
echo "== soak: tests/svc.rs x 200 (timeout 60 s each)"
svc_bin="$(built_test svc)"
for i in $(seq 1 200); do
  timeout 60 "$svc_bin" -q >/dev/null || {
    echo "tests/svc.rs failed or hung on soak run $i" >&2
    exit 1
  }
done

# Bounded soak of the scheduler-stash regressions: the two wait-then-post
# cases of stash.rs wedged 8 of 10 and 10 of 10 runs under the old eviction
# cap, and the park-rule cases of nonblocking.rs wedge whenever the engine
# waits at the head of a port for a chunk whose landing buffer is not mapped
# yet; how often a run parks anything at all depends on thread timing, so
# one green run proves little. 50 runs of each built binary (~70-80 s in all
# on 2 cores), each under a timeout; the cases' own deadlines report a
# wedge first.
echo "== soak: crates/sched/tests/{stash,nonblocking}.rs parking cases x 50 (timeout 30 s each)"
stash_bin="$(built_test stash -p bgp-sched)"
park_bin="$(built_test nonblocking -p bgp-sched)"
for i in $(seq 1 50); do
  { timeout 30 "$stash_bin" -q posted_after_a_wait >/dev/null &&
    timeout 30 "$park_bin" -q park_rule >/dev/null; } || {
    echo "a stash.rs or nonblocking.rs parking case failed or hung on soak run $i" >&2
    exit 1
  }
done

# Bounded soak of the service's resident engine and admission: a parked
# ticket waiter that misses its wake-up, a rank thread that never parks, a
# drop that strands a plan in flight or misses a parked lead, or an
# admission test whose held lead lets go too early shows up only under some
# thread timings. 50 runs of each built binary, each under a timeout; the
# cases' own deadlines report a hang first.
echo "== soak: crates/sched/tests/{park,shutdown,server}.rs x 50 each (timeout 30 s each)"
for t in park shutdown server; do
  bin="$(built_test "$t" -p bgp-sched)"
  for i in $(seq 1 50); do
    timeout 30 "$bin" -q >/dev/null || {
      echo "crates/sched/tests/$t.rs failed or hung on soak run $i" >&2
      exit 1
    }
  done
done

echo "== model checker self-tests (bgp-check)"
cargo test -q -p bgp-check

echo "== model-checked shmem primitives (oracles + mutation self-tests)"
cargo test -q -p bgp-shmem --features model --test model
cargo test -q -p bgp-smp --features model --test model
cargo test -q -p bgp-sched --features model --test model

# Seeded-exploration smoke: the unmutated Bcast FIFO over 10,000 random
# schedules with a pinned seed (deterministic; part of the model suite,
# re-run here by name so a CI failure points straight at it).
echo "== seeded exploration smoke (10,000 random schedules)"
cargo test -q -p bgp-shmem --features model --test model bcast_ten_thousand_random_schedules

# The cross-process backend: fork 1 worker process (2 nodes total) over a
# real mmap'd segment, checked payloads on every operation including the
# bitwise thread-vs-process allreduce comparison, and a hand-set ceiling on
# proc/bcast_tax_64K (process / thread time per 64 KiB broadcast).
echo "== smoke: proc_cluster --small --check (2 nodes, forked workers)"
cargo run --release -p bgp-bench --bin proc_cluster -- --small --check

# The multi-tenant service layer: checked payloads on every op, Jain
# fairness >= 0.9 across equal-weight tenants, and flood-isolation (victim
# p99 under a flooding tenant within 2x its solo p99); the JSON report
# must parse.
echo "== smoke: svc_soak --small --check (3 tenants x 2 sessions)"
cargo run --release -p bgp-bench --bin svc_soak -- --small --check --json ci_svc_soak.json
python3 -m json.tool ci_svc_soak.json >/dev/null

echo "== smoke: all_experiments --small --json is one array of 11 figures"
cargo run --release -p bgp-bench --bin all_experiments -- --small --json >ci_figures.json
python3 -m json.tool ci_figures.json >/dev/null
python3 -c 'import json, sys
figs = json.load(open(sys.argv[1]))
assert isinstance(figs, list) and len(figs) == 11, f"expected 11 figures, got {len(figs)}"' ci_figures.json

echo "== smoke: all_experiments --small --trace artifacts (fig6, table1) parse"
cargo run --release -p bgp-bench --bin all_experiments -- --small --trace >/dev/null
for id in fig6 table1; do
  python3 -m json.tool "BENCH_${id}_phases.json" >/dev/null
  python3 -m json.tool "BENCH_${id}_trace.json" >/dev/null
done

# The perf gate: the pinned suite at the small deterministic shape must
# match the committed BENCH_baseline.json within tolerance, its report
# must be valid JSON, and the gate must prove it *can* fail by flagging an
# injected 20% slowdown.
echo "== perf gate: bench_gate --small --check vs BENCH_baseline.json"
cargo run --release -p bgp-bench --bin bench_gate -- --small --check --label ci
python3 -m json.tool BENCH_ci.json >/dev/null

echo "== perf gate self-test: injected 20% slowdown is flagged"
cargo run --release -p bgp-bench --bin bench_gate -- --small --selftest

# The committed simulator artifacts: the simulator is deterministic, so the
# paper-scale transcript and the tuning table reproduce byte for byte. A
# cost-model or executor change that moves a number must regenerate them
# in the same change (and say so), not leave them stale.
echo "== transcript: all_experiments reproduces experiments_paper_scale.txt"
cargo run --release -p bgp-bench --bin all_experiments | diff - experiments_paper_scale.txt
echo "== tuning table: tune_table --check vs tuning/default.json"
cargo run --release -p bgp-tune --bin tune_table -- --check

# The reporting subsystem: unit + golden-file tests (byte-stable SVG
# writer, typed ingestion errors per schema), then a full report build
# from the committed baseline plus the BENCH_ci.json the gate step just
# wrote. --check re-validates every emitted artifact: SVGs through the
# vendored XML well-formedness scanner, .folded files through the
# collapsed-stack format check, sweep JSONs by re-parsing each into the
# figure it was written from.
echo "== report: bgp-report tests"
cargo test -q -p bgp-report
echo "== report: perf_report --check (history -> ci_report/)"
cargo run --release -p bgp-report --bin perf_report -- --out ci_report --check

echo "CI OK"
