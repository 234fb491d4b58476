#!/usr/bin/env bash
# Release gate: build, test, and static-analysis pass (DESIGN.md Sec. 7).
# Every step runs even after a failure, so one run reports the full
# damage; the summary table at the bottom is the verdict.
#
# The static-analysis pass is mostly the compiler's: the `fl-lint` step
# runs fl-lint (its `lock-order` rule and the `allowlist-drift` audit of
# scripts/wall_clock_allowlist.txt), then clippy on every workspace
# target with the root Cargo.toml's `[workspace.lints]`, the crate roots'
# `deny` attributes and clippy.toml. The `test-only-pub` audit (a `pub fn`
# in crates/*/src that only tests reach) asks the compiler too, and is
# its own step, `dead-pub`, after it.
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
# The workspace is rustfmt-clean (`vendor/` included, as `--all` reaches
# the path dependencies); `benchmark/` is its own package and not read.
run_step "fmt" cargo fmt --all --check
# The root package: every `tests/*.rs` binary, and so every integration
# gate, runs here once. Among them: the one live harness,
# `fl_sim::live::run(wire_seed, schedule_seed, secagg)`, over its two
# seeds (`wire_chaos`: 32 seeded faulty-transport scripts mangle report
# frames through the live tree, plain and SecAgg; `schedule_explore`:
# K=64 seeded mailbox-delivery permutations of a clean-wire round, plain
# and SecAgg, and a wire x schedule grid); every run ends in its one
# audit (exactly one commit, write_count == 1 + committed, one
# incorporated contribution per accepted key, the exact average of six
# distinct updates, one send per device on a clean wire, every obituary
# exactly once) and renders byte-identically across replays; the fault
# and overload sweeps (`chaos_sweep`, `overload_sweep`: seeded
# `scenario::run`s of the chaos and overload configs, each ending in the
# engine's one audit); the pinned render digests of every seeded harness
# (`render_digests`); the live tree
# (`live_topology`); multi-tenancy (`multi_tenant`: several populations
# share one fleet and one Selector layer, live and simulated under a
# seeded flash crowd, and cross-population fairness, the per-device
# single-session arbitration and per-population accounting conservation
# must all hold); the lock-graph deadlock gate (`lock_audit`: the
# workspace's observed lock-acquisition graph stays acyclic and
# rank-clean); schedule exploration of the engine (`schedule_explore`
# also runs K=64 timing permutations of a chaos plan, each ending in the
# engine's audit); SecAgg through the live tree
# (`secagg_live`: scripted advertise/share dropouts commit the exact
# unmasked sum, or abort a stranded shard cleanly); and the allocation
# budget (`alloc_budget`: a counting global allocator holds one
# `round_secagg`-shaped round over in-memory links under a ceiling of
# allocations per device session, of every size and of 16 KiB or more);
# and the memory held per round (`round_memory`: once warm-up has filled
# the Coordinator's metric ring and the actor system's obituary ring, a
# `checkin_storm`-shaped tree's live heap must stay flat over 1 000 more
# rounds, and one round's allocations per check-in stay under a ceiling).
run_step "test" cargo test -q
# fl-lint, then the clippy pass, in target/clippy (tier-1's
# `tests/lint_gate.rs` runs the same pass there, so it is warm). Clippy
# fails on a denied lint (wall clock and sleep, raw locks, unwrap, panic,
# print, missing docs, undocumented `unsafe`) and on an `#[expect]` that
# no longer fires. Both run even when the first fails.
fl_lint() {
  local status=0
  cargo run -q -p fl-lint || status=1
  cargo clippy --offline --workspace --all-targets --target-dir target/clippy || status=1
  return "${status}"
}
run_step "fl-lint" fl_lint
# The compiler's `test-only-pub` audit (DESIGN.md Sec. 7): in a mirror
# under target/dead_pub, every `pub fn` of crates/*/src no allow covers
# becomes `pub(crate)`; `cargo check --offline` of the workspace's lib,
# bins and examples and of `benchmark/` (target dirs under
# target/dead_pub, so reruns stay warm) gives `pub` back to whatever an
# E0603, E0624 or E0364 names, until none is left; a `dead_code` warning
# left is a finding. Its fixture test (a two-crate workspace whose one
# test-only function must be the one finding) runs first. Warm on 2
# vCPUs: 25-30 `cargo check` passes in 28-31 s (about 45 s cold).
dead_pub() {
  cargo test -q -p fl-lint --test dead_pub && cargo run -q -p fl-lint -- --dead-pub
}
run_step "dead-pub" dead_pub
# The `test` step is the root package only. The channel every mailbox,
# transport half and reply rides on is vendored, not a workspace member;
# its own unit tests (wake-ups, MPMC delivery) run here.
run_step "actors-runtime" cargo test -q -p crossbeam
# Every workspace crate's own tests, which the root `test` step does not
# run: the runtime (bounded threads under 10 000 ephemeral spawns, worker
# reuse after a panic, the respawn loop), the simulator engine (the event
# queue's runs, slots and levels against its BTreeMap model, across bucket
# and block edges, and its chunk reuse; availability queries against the
# full scan; the fleet loop and its session-shape literals), the wire codec and its golden frame
# fixture, the field, Shamir, masking and protocol tests with the golden
# mask pins and the out-of-order `compile_fail` doctests, the fixed-point
# codec, the server's state machines, and the bench gates' floors.
run_step "crates" cargo test -q --workspace --exclude federated
# The bench step fails if the 1M-parameter frame moves under 1 500 MB/s
# either way (a byte-serial digest cannot reach it), if a CPU with AVX2
# runs the dispatched 1 MiB frame digest under 1.5x its portable build (a
# lost `#[target_feature]`), or if its `configuration_tcp` row's warm
# Configuration (the tenth of one 262 208-param plan down one loopback
# connection) is more than its checkpoint, population and a 30-byte
# envelope: a connection that sent the plan again. The four bench
# steps print their JSON here and write no file; a committed
# BENCH_*.json is refreshed by redirecting a bin's stdout onto it.
run_step "wire-bench" cargo run --release -q -p fl-bench --bin bench_wire
# The bench step fails if, at any population count, a check-in against a
# sixteen-fold larger held set costs over 4x one against the small set
# (a scan of the held set per check-in read 9-13x).
run_step "selector-bench" cargo run --release -q -p fl-bench --bin bench_selector
# The bench step fails if an event of the simulator's queue (a pop and a
# push) costs over 1.5x as much at 1 000 000 pending as at 10 000: a
# queue whose work per event grows with what is pending read 1.6-2.6x.
# Its `day` row (a million-device day: best ms, events, peak pending) fails
# the step when the day pops other than the events pinned in
# `fl_bench::gate::DES_DAY_EVENTS` (a changed simulation), or holds more
# pending than `DES_DAY_PEAK_PENDING` (events the day cannot fire stored).
run_step "des-bench" cargo run --release -q -p fl-bench --bin bench_des
# The `test` step only compiles the examples. This one drives the stepwise
# client and server types round by round, with a drop-out at each stage,
# and ends asserting the unmasked sum.
run_step "secagg-example" cargo run --release -q --example secure_aggregation
# The live tree behind its TCP front door, every device an
# `fl_device::session` on its own socket: it asserts that both rounds
# commit, that each reaches its goal, and that exactly one respawn racer
# wins; a turned-away device checks in a bounded number of times.
run_step "live-server-example" cargo run --release -q --example live_server
# The bench step fails unless 64 devices in groups of 16 finalize at
# least 1.5x faster than as one quadratic group. Its `kernel` row (ns per
# mask draw in Z_2^32, two draws a generator step: the dispatched and
# portable kernels, and the per-stream loop restated in the ring) and
# `instance` row (one `round_secagg` shard's SecAgg close: best ms,
# exponentiations, the mask kernel's share) carry no floor.
run_step "secagg-bench" cargo run --release -q -p fl-bench --bin bench_secagg
# End-to-end floor (ROADMAP aim 1): one 2 s run of each `benchmark/`
# workload must end `correct: true`, `failed` 0 and at `rounds_per_s` over
# its floor in `fl_bench::gate::E2E_FLOORS`, which `fl_bench::gate::e2e`
# applies (half the highest median among the last three `BENCH_e2e.json`
# entries: it catches a broken output oracle and a 2x slowdown, not a 10 %
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
# `figures_output.txt` says what `figures` prints: the reports that are
# pure functions of the code and run in well under a second (the Fig. 1
# round trace, the fleet's Figs. 5-9 and Table 1 from one seeded 20 000-
# device, three-day `fl_sim::fleet::run`, the pace-steering regimes, the
# Sec. 4.3 pipelining model) are diffed against their blocks of the
# committed file, in the file's order. The other blocks need the ~5 min
# paper-scale run and are refreshed by redirect (EXPERIMENTS.md).
figures_static() {
  diff <(cargo run --release -q -p fl-bench --bin figures -- \
    fig1 fig5 fig6 fig7 fig8 fig9 table1 pace pipeline) \
    <(awk '/^=== / { keep = /^=== (Figure (1|5|6|7|8|9)|Table 1|Section 2\.3|Section 4\.3):/ } keep' \
      figures_output.txt)
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
  printf '%-20s %s\n' "${steps[$i]}" "${results[$i]}"
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
