#!/usr/bin/env bash
# Release gate: build, test, and static-analysis pass (DESIGN.md Sec. 7).
# Every step runs even after a failure, so one run reports the full
# damage; the summary table at the bottom is the verdict.
#
# The old shell grep/diff wall-clock allowlist audit now lives inside
# fl-lint itself (rule `allowlist-drift`), so the `fl-lint` step covers
# it; scripts/wall_clock_allowlist.txt remains the data file.
set -uo pipefail
cd "$(dirname "$0")/.."

steps=()
results=()
tree_before="$(git status --porcelain)"

run_step() {
  local name="$1"
  shift
  echo "==> ${name}: $*"
  if "$@"; then
    results+=("PASS")
  else
    results+=("FAIL")
  fi
  steps+=("${name}")
}

run_step "build" cargo build --release
run_step "test" cargo test -q
run_step "fl-lint" cargo run -q -p fl-lint
# The `test` step is the root package only. The channel every mailbox,
# transport half and reply rides on, and the runtime that lends actors
# their threads, have their own unit tests (wake-ups, MPMC delivery,
# bounded threads under 10 000 ephemeral spawns, worker reuse after a
# panic); this is the gate they run in.
run_step "actors-runtime" cargo test -q -p crossbeam -p fl-actors
# The simulator engine's own unit tests (the event queue against its
# BTreeMap model, the availability queries against the full scan, the
# fleet loop) are in `fl-sim`, which the root `test` step does not run.
run_step "sim-engine" cargo test -q -p fl-sim
# Wire-protocol gate: codec round-trip/rejection tests plus the golden
# frame fixture, so accidental frame-layout changes fail loudly; the
# bench step fails if the 1M-parameter frame moves under 1 500 MB/s
# either way (a byte-serial digest cannot reach it). The three bench
# steps print their JSON here and write no file; a committed
# BENCH_*.json is refreshed by redirecting a bin's stdout onto it.
run_step "wire-codec" cargo test -q -p fl-wire
run_step "wire-bench" cargo run --release -q -p fl-bench --bin bench_wire
# Network-chaos gate: seeded faulty-transport scripts mangle report
# frames through the live sharded topology (plain + SecAgg); per seed
# the run must commit exactly once, keep write_count == 1 + committed,
# incorporate one contribution per accepted key, and render
# byte-identically across replays.
run_step "wire-chaos" cargo test -q --test wire_chaos
run_step "chaos-sweep" cargo test -q --test chaos_sweep
run_step "overload-sweep" cargo test -q --test overload_sweep
run_step "live-topology" cargo test -q --test live_topology
# Multi-tenant gate: several populations share one fleet and one
# Selector layer, live (routed actor tree) and simulated (seeded flash
# crowd); cross-population fairness, the per-device single-session
# arbitration, and per-population accounting conservation must all
# hold. The bench step fails if, at any population count, a check-in
# against a sixteen-fold larger held set costs over 4x one against the
# small set (a scan of the held set per check-in read 9-13x).
run_step "multi-tenant" cargo test -q --test multi_tenant
run_step "selector-bench" cargo run --release -q -p fl-bench --bin bench_selector
# Lock-graph deadlock gate: the workspace's observed lock-acquisition
# graph must stay acyclic and rank-clean (fl-race).
run_step "lock-audit" cargo test -q --test lock_audit
# Schedule exploration: K=64 seeded delivery/timing permutations of the
# live round and a chaos plan, invariants checked per seed.
run_step "schedule-explore" cargo test -q --test schedule_explore
# SecAgg through the live tree: scripted advertise/share dropouts must
# commit the exact unmasked sum (or abort a stranded shard cleanly), and
# the bench step fails unless 64 devices in groups of 16 finalize at
# least 1.5x faster than as one quadratic group.
run_step "secagg-live" cargo test -q --test secagg_live
# The `test` step is the root package only: the field, Shamir, masking
# and protocol unit tests, the golden mask pins, the differential tests
# of `field::mul` and the mask stream, the two pipeline proptests, and
# the fixed-point codec's tests in `fl-ml` run here.
run_step "secagg-kernel" cargo test -q -p fl-secagg -p fl-ml
# The `test` step only compiles the examples. This one drives the stepwise
# client and server types round by round, with a drop-out at each stage,
# and ends asserting the unmasked sum.
run_step "secagg-example" cargo run --release -q --example secure_aggregation
run_step "secagg-bench" cargo run --release -q -p fl-bench --bin bench_secagg
# End-to-end floor (ROADMAP 8(b)): one 2 s run of each `benchmark/`
# workload must end `correct: true`, `failed` 0 and at `rounds_per_s` over
# the floor `fl_bench::gate::e2e` holds for it (half the last committed
# median: it catches a broken output oracle and a 2x slowdown, not a 10 %
# drift). `benchmark/target` and `benchmark/out` are ignored paths.
e2e_floor() {
  local workload status=0
  for workload in round_plain_tcp checkin_storm round_secagg fleet_des; do
    bash benchmark/run.sh --workload "${workload}" --seed 1 --seconds 2 --trace 0 |
      cargo run --release -q -p fl-bench --bin e2e_floor -- "${workload}" || status=1
  done
  return "${status}"
}
run_step "e2e-floor" e2e_floor
# `figures_output.txt` says what `figures` prints: the three reports that
# are pure functions of the code (the Fig. 1 round trace, the pace-steering
# regimes, the Sec. 4.3 pipelining model; milliseconds to run) are diffed
# against their blocks of the committed file. The other blocks need the
# ~5 min paper-scale run and are refreshed by redirect (EXPERIMENTS.md).
figures_static() {
  diff <(cargo run --release -q -p fl-bench --bin figures -- fig1 pace pipeline) \
    <(awk '/^=== / { keep = /^=== (Figure 1|Section 2\.3|Section 4\.3):/ } keep' figures_output.txt)
}
run_step "figures-static" figures_static
# Size ledger (ROADMAP aim 2): non-test, non-comment Rust lines per
# crate. Informational — it prints the table and always passes; growth
# is argued in CHANGES.md, not gated here.
run_step "loc" bash -c 'scripts/loc.sh || true'
# The gate leaves the tree as it found it: a step that rewrites a
# tracked file or drops an unignored one fails here, with the file named.
tree_unchanged() { diff <(echo "${tree_before}") <(echo "$(git status --porcelain)"); }
run_step "tree-clean" tree_unchanged

echo
echo "release gate summary"
echo "--------------------------------"
failed=0
for i in "${!steps[@]}"; do
  printf '%-18s %s\n' "${steps[$i]}" "${results[$i]}"
  if [[ "${results[$i]}" == "FAIL" ]]; then
    failed=1
  fi
done
echo "--------------------------------"

if [[ "${failed}" -ne 0 ]]; then
  echo "release gate: FAILED"
  exit 1
fi
echo "release gate: all checks passed"
