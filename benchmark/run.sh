#!/usr/bin/env bash
# Builds the benchmark and runs it. From the repository root:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (what BENCHMARK.json's command does). The
#       last line of standard output is the JSON result.
#
#   bash benchmark/run.sh [--seed N] [--seconds S] [--workload W] [--traced] [--repeat K]
#       K sets (default 1) of every workload (or of W), set i on seed N+i,
#       each run in its own process; --traced adds the traced run and the
#       layer probes. Prints every metric's median, quartiles and spread
#       over the sets, and fails if two sets disagree by more than the
#       metric's bound.
set -euo pipefail

dir="$(dirname "${BASH_SOURCE[0]}")"
workload="" seed=1 seconds="" trace="" traced=0 repeat=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --traced) traced=1; shift ;;
        --repeat) repeat="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$dir/../BENCHMARK.json")"
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$dir/target}"
build() { cargo build --release --offline --locked --manifest-path "$dir/Cargo.toml" --bin "$1" >&2; }
# `e2e` must build. `layers` calls a wider surface: if it no longer
# compiles, its rows are absent and the end-to-end gate still stands.
build e2e
layers=1
build layers || { layers=0; echo "run.sh: layers did not build; its metrics are absent" >&2; }
bin="$CARGO_TARGET_DIR/release"
mkdir -p "$dir/out"

# one_run WORKLOAD SEED TRACE: the run's output, JSON result last.
one_run() {
    local extra=()
    if [ "$3" = 1 ] && [ "$layers" = 1 ]; then
        "$bin/layers" --seed "$2" --out "$dir/out/layers_$1.tsv" > /dev/null
        extra=(--layer-metrics "$dir/out/layers_$1.tsv")
    fi
    "$bin/e2e" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
        --out "$dir/out" "${extra[@]}"
}

if [ -n "$workload" ] && [ -n "$trace" ] && [ -z "$repeat" ]; then
    one_run "$workload" "$seed" "$trace"
    exit
fi

workloads="${workload:-round_plain_tcp checkin_storm round_secagg fleet_des}"
rm -f "$dir"/out/run_*.json
status=0
for set in $(seq 0 $((${repeat:-1} - 1))); do
    for w in $workloads; do
        for t in 0 $([ "$traced" = 1 ] && echo 1); do
            echo "== set $set: $w (seed $((seed + set)), trace $t)" >&2
            one_run "$w" "$((seed + set))" "$t" | tail -n 1 > "$dir/out/run_${w}_${set}_${t}.json" || status=1
        done
    done
done
python3 "$dir/summarize.py" "$dir/../BENCHMARK.json" "$dir"/out/run_*.json || status=1
exit "$status"
