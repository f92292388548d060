#!/usr/bin/env bash
# Local CI gate: the tier-1 verification plus lint and a telemetry smoke
# test. Run before every PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (every crate, linter self-tests and adversarial gate included)"
cargo test --workspace -q

echo "==> perfbench tests (legality audit accept/reject + corruption self-test)"
# The benchmark's independent audit must reject an illegal routing, so
# kernel or router work that breaks legality fails here, not only in a
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> fpga_lint: workspace invariants (cone-scoped, JSON report)"
# Aux-path waiver budgets: bench harnesses time phases with Instant and
# report float percentages by design; the budget keeps that bounded
# instead of demanding a waiver comment in every bench body.
cargo build --release -p fpga-lint
lint_json="$(mktemp /tmp/fpga_lint_report.XXXXXX.json)"
lint_status=0
./target/release/fpga_lint --root . --json \
    --waiver-budget determinism-wall-clock=8 \
    --waiver-budget determinism-float-weight=2 \
    > "$lint_json" || lint_status=$?
python3 - "$lint_json" <<'PY'
import json, sys

report = json.load(open(sys.argv[1]))
cone = report["cone"]
print(f"hot-path cone: {cone['functions']} function(s) across {cone['files']} file(s)")
for entry in cone["entries"]:
    reach = entry["reachable"]
    print(f"  {entry['entry']}: {'MISSING' if reach is None else reach}")
if report["summary"]:
    print("per-rule violations:")
    for rule, n in sorted(report["summary"].items()):
        print(f"  {rule}: {n}")
for d in report["diagnostics"]:
    if not d["budget_waived"]:
        print(f"  {d['code']} {d['path']}:{d['line']}: {d['message']}")
PY
rm -f "$lint_json"
if [ "$lint_status" -ne 0 ]; then
    echo "fpga_lint found violations (exit $lint_status)" >&2
    exit 1
fi

echo "==> fpga_lint: failure-mode smoke (bad file must exit nonzero)"
bad_file="$(mktemp /tmp/fpga_lint_bad.XXXXXX.rs)"
trap 'rm -f "$bad_file"' EXIT
printf 'pub fn f(v: &[u32]) -> u32 { v.first().copied().unwrap() }\n' > "$bad_file"
lint_status=0
./target/release/fpga_lint --check-file "$bad_file" --as crates/fpga/src/router.rs || lint_status=$?
if [ "$lint_status" -ne 1 ]; then
    echo "fpga_lint must exit 1 on a known-bad file (got $lint_status)" >&2
    exit 1
fi

echo "==> fpga_lint: determinism smoke (seeded hash-iter fixture must exit nonzero)"
lint_status=0
./target/release/fpga_lint \
    --check-file crates/lint/tests/fixtures/det_hash_iter.rs \
    --as crates/fpga/src/det_hash_iter.rs || lint_status=$?
if [ "$lint_status" -ne 1 ]; then
    echo "fpga_lint must exit 1 on the determinism fixture (got $lint_status)" >&2
    exit 1
fi

# Fails unless the line of counter $1 in the `--metrics` summary in $2
# reads at most $3 ($4 names the smoke). The counts repeat exactly from
# run to run. On `dijkstra_heap_pops`, a construction whose distance
# runs go farther again fails here: IKMB stops each run after the
# source's at the terminals' MST bottleneck, IDOM each run at the
# source's radius. On `lane_rows_packed`, a per-net view that packs
# rows its runs never read fails here: each row packs on first read.
require_count_at_most() {
    local count
    count="$(awk -v name="$1" '$1 == name { print $2 }' <<< "$2")"
    if [ -z "$count" ] || [ "$count" -gt "$3" ]; then
        echo "$4: $1 ${count:-missing} above the ceiling $3" >&2
        exit 1
    fi
}

echo "==> telemetry smoke: width --threads 0 --trace --stream"
trace_file="$(mktemp /tmp/fpga_route_trace.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$bad_file"' EXIT
width_out="$(./target/release/fpga_route width --circuit term1 --arch 4000 \
    --threads 0 --trace "$trace_file" --stream --metrics)"
printf '%s\n' "$width_out"
# term1 routes at W = 7. The search probes the midpoint 13, walks down
# from its peak occupancy and fails only at 6: five attempts at most.
if ! grep -Eq 'minimum channel width 7 with .* \([1-5] routing attempts' <<< "$width_out"; then
    echo "width smoke: expected W = 7 in at most 5 routing attempts" >&2
    exit 1
fi
# About 1.50 M with bottleneck-stopped runs, 2.30 M with radius-stopped
# runs, 4.84 M when they flood the pool.
require_count_at_most dijkstra_heap_pops "$width_out" 1800000 "width smoke"
# About 0.53 M rows packed on first read; packing every row of the
# device for every net reads 2.14 M.
require_count_at_most lane_rows_packed "$width_out" 800000 "width smoke"
./target/release/fpga_route trace-check "$trace_file"
grep -q '"mode":"stream"' "$trace_file"
grep -q '"type":"span"' "$trace_file"
grep -q '"kind":"pass"' "$trace_file"
grep -q '"name":"dijkstra_runs"' "$trace_file"

echo "==> pathfinder smoke: route --mode pathfinder --trace --stream"
pf_trace="$(mktemp /tmp/fpga_route_pf.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$bad_file" "$pf_trace"' EXIT
./target/release/fpga_route route --circuit term1 --arch 4000 --width 10 \
    --mode pathfinder --threads 2 --trace "$pf_trace" --stream --metrics
./target/release/fpga_route trace-check "$pf_trace"
grep -q '"kind":"pass"' "$pf_trace"
grep -q '"name":"pathfinder_iterations"' "$pf_trace"
grep -q '"type":"histogram"' "$pf_trace"
grep -q '"type":"gauge"' "$pf_trace"
grep -q '"type":"profile"' "$pf_trace"
grep -q '"type":"convergence"' "$pf_trace"
grep -q '"type":"timeline"' "$pf_trace"

echo "==> trace-report renders the pathfinder smoke trace"
./target/release/fpga_route trace-report "$pf_trace"

echo "==> selective pathfinder smoke: route --pf-selective --trace --stream"
sel_trace="$(mktemp /tmp/fpga_route_sel.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$bad_file" "$pf_trace" "$sel_trace"' EXIT
./target/release/fpga_route route --circuit term1 --arch 4000 --width 10 \
    --mode pathfinder --pf-selective --threads 2 --trace "$sel_trace" --stream --metrics
./target/release/fpga_route trace-check "$sel_trace"
grep -q '"dirty_nets"' "$sel_trace"
grep -q '"name":"pathfinder_dirty_nets"' "$sel_trace"
grep -q '"name":"pathfinder_skipped_nets"' "$sel_trace"
grep -q '"name":"pathfinder_repriced_edges"' "$sel_trace"

echo "==> IDOM smoke: route --algorithm idom --trace --stream"
idom_trace="$(mktemp /tmp/fpga_route_idom.XXXXXX.jsonl)"
trap 'rm -f "$trace_file" "$bad_file" "$pf_trace" "$sel_trace" "$idom_trace"' EXIT
idom_out="$(./target/release/fpga_route route --circuit term1 --arch 4000 --width 10 \
    --algorithm idom --trace "$idom_trace" --stream --metrics)"
printf '%s\n' "$idom_out"
# About 0.54 M with radius-stopped runs, 1.20 M when they flood the pool.
require_count_at_most dijkstra_heap_pops "$idom_out" 800000 "IDOM smoke"
./target/release/fpga_route trace-check "$idom_trace"
grep -q '"name":"dom_connections"' "$idom_trace"
grep -q '"name":"steiner_screen_ns"' "$idom_trace"
grep -q '"name":"steiner_verify_ns"' "$idom_trace"

echo "==> bench-diff self-check (identical snapshots must pass the gate)"
./target/release/fpga_route bench-diff BENCH_pathfinder.json BENCH_pathfinder.json --threshold 5

echo "==> pathfinder bench smoke (release, BENCH_QUICK)"
BENCH_QUICK=1 cargo bench -p bench --bench pathfinder

echo "==> bench-diff perf gate (checked-in baseline vs fresh run, warn-only)"
fresh_bench="$(mktemp /tmp/fpga_bench_fresh.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bad_file" "$pf_trace" "$sel_trace" "$idom_trace" "$fresh_bench"' EXIT
cp BENCH_pathfinder.json "$fresh_bench"
git checkout -- BENCH_pathfinder.json 2>/dev/null || true
./target/release/fpga_route bench-diff BENCH_pathfinder.json "$fresh_bench" \
    --threshold 25 --warn-only

echo "==> kernel bench + bench-diff perf gate (hard fail, retried)"
# The kernel bench runs full reps (it takes under a second) so the
# comparison matches the checked-in baseline's rep count. Sub-ms
# medians on this shared container can transiently blow out several
# hundred percent when a CPU slice lands mid-bench, so the gate is
# hard but retried: a transient spike passes on a later attempt, a
# real regression fails all three. The 60% threshold on every `*_us`
# field (seed, csr, scratch_minpath) absorbs steady cross-session drift
# while still catching integer-factor slowdowns.
fresh_kernel="$(mktemp /tmp/fpga_bench_kernel.XXXXXX.json)"
trap 'rm -f "$trace_file" "$bad_file" "$pf_trace" "$sel_trace" "$idom_trace" "$fresh_bench" "$fresh_kernel"' EXIT
kernel_gate_ok=0
for attempt in 1 2 3; do
    if cargo bench -p bench --bench kernel \
        && cp BENCH_kernel.json "$fresh_kernel" \
        && { git checkout -- BENCH_kernel.json 2>/dev/null || true; } \
        && ./target/release/fpga_route bench-diff BENCH_kernel.json "$fresh_kernel" \
            --threshold 60; then
        kernel_gate_ok=1
        break
    fi
    echo "kernel perf gate attempt ${attempt}/3 regressed; settling before retry" >&2
    sleep 5
done
if [ "$kernel_gate_ok" -ne 1 ]; then
    echo "kernel perf gate failed on all 3 attempts" >&2
    exit 1
fi

echo "==> ci.sh: all green"
