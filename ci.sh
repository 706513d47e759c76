#!/usr/bin/env bash
# CI gate: the one-file rule for link sends, every bin/bench target the
# docs name resolving to a source file, formatting, lints, the tier-1
# verify (release build + tests), an offline build of benchmark/ against
# the workspace, a bounded soak of the formerly livelocking service test,
# every crate's unit tests, the bgp-check model-checking suites, a smoke run
# of a figure binary checking that its JSON report and its --trace probe
# artifacts parse, the performance-regression gate (bench_gate) against the
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
  rm -f ci_fig6.json BENCH_fig6_phases.json BENCH_fig6_trace.json \
    BENCH_fig6_folded.txt BENCH_ci.json ci_svc_soak.json
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
# (1-2 core) hosts. CI always runs the full volumes.
echo "== tier-1: cargo build --release && cargo test -q (full stress volumes)"
cargo build --release
BGP_STRESS_FULL=1 cargo test -q

# benchmark/ is a package of its own (outside the workspace, so clippy and
# tier-1 never compile it) and the only source of real-runtime wall-clock
# numbers: a public item it compiles against must not disappear unnoticed.
echo "== benchmark/ builds offline against the workspace crates"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Bounded soak of the test that used to livelock in ~1 % of debug runs (the
# engine retired a broadcast's counters before a late root had looked them
# up): the built tests/svc.rs binary, 200 times, each under a timeout — a
# reintroduced wait of that class costs CI a minute, not forever.
echo "== soak: tests/svc.rs x 200 (timeout 60 s each)"
svc_bin="$(cargo test --test svc --no-run --message-format=json 2>/dev/null |
  python3 -c 'import json, sys
for line in sys.stdin:
    m = json.loads(line)
    if m.get("reason") == "compiler-artifact" and m["target"]["name"] == "svc" and m.get("executable"):
        print(m["executable"])')"
for i in $(seq 1 200); do
  timeout 60 "$svc_bin" -q >/dev/null || {
    echo "tests/svc.rs failed or hung on soak run $i" >&2
    exit 1
  }
done

# `cargo test` at the root only runs the facade package. The in-crate unit
# tests of every workspace member (the kernels' tail-shape suite, the flat
# ring's cross-op regression, ...) and the crate-level integration suites
# (crates/sched/tests/{nonblocking,server}.rs, the machine and sim property
# tests, ...) are otherwise compiled by clippy but executed by nothing.
echo "== unit + crate-level integration tests: cargo test --workspace --lib --tests"
cargo test -q --workspace --lib --tests

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

echo "== smoke: fig6 --small --json parses"
cargo run --release -p bgp-bench --bin fig6 -- --small --json >ci_fig6.json
python3 -m json.tool ci_fig6.json >/dev/null

echo "== smoke: fig6 --small --trace artifacts parse"
cargo run --release -p bgp-bench --bin fig6 -- --small --trace >/dev/null
python3 -m json.tool BENCH_fig6_phases.json >/dev/null
python3 -m json.tool BENCH_fig6_trace.json >/dev/null

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
# collapsed-stack format check, sweep JSONs through history ingestion.
echo "== report: bgp-report tests"
cargo test -q -p bgp-report
echo "== report: perf_report --check (history -> ci_report/)"
cargo run --release -p bgp-report --bin perf_report -- --out ci_report --check

echo "CI OK"
