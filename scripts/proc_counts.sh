#!/usr/bin/env bash
# Threads, CPU and context switches of one live e2e workload, read from
# /proc at two instants in the middle of a run (the counts item 14 of
# ROADMAP.md records beside the timed medians).
#
#   scripts/proc_counts.sh WORKLOAD SEED [E2E_BINARY]
#
# Runs the built `e2e` binary (default benchmark/target/release/e2e, which
# `bash benchmark/run.sh` builds) on WORKLOAD and SEED, sums utime, stime
# and the context-switch counters over every thread in /proc/<pid>/task
# at 2 s and at 5 s, and divides the differences by the check-ins of
# those 3 s, taken from the run's own `checkins_per_s`. Both instants
# must fall inside the measured rounds, after which the binary builds
# and times two fresh trees, so `--seconds` is set per workload to make
# those rounds last some 6-9 s on a two-core box (`round_plain_tcp` and
# `round_secagg` run far faster than the rate their `--seconds` is
# scaled by). A run that ended before the second instant, or whose
# counters went down between the two, is refused.
# Prints the threads seen at each instant, CPU us per check-in,
# involuntary and voluntary switches per check-in, and the system share
# of the CPU. Sampling is two reads of /proc, so it barely disturbs the
# run; compare rates from unsampled runs all the same. `fleet_des` runs
# no actor and is not a live workload.
set -euo pipefail

if [ $# -lt 2 ]; then
    echo "usage: $0 WORKLOAD SEED [E2E_BINARY]" >&2
    exit 2
fi
workload="$1" seed="$2"
root="$(cd "$(dirname "$0")/.." && pwd)"
e2e="${3:-$root/benchmark/target/release/e2e}"
[ -x "$e2e" ] || { echo "$0: no e2e binary at $e2e (run bash benchmark/run.sh first)" >&2; exit 2; }

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# sample PID: "threads ticks_user ticks_system nonvoluntary voluntary nanos"
sample() {
    local threads=0 utime=0 stime=0 invol=0 vol=0 task line rest key value
    for task in /proc/"$1"/task/*; do
        line="$(cat "$task/stat" 2>/dev/null)" || continue
        # Fields after the parenthesised command name start at field 3,
        # so utime (14) and stime (15) are the 12th and 13th of the rest.
        rest="${line##*) }"
        # shellcheck disable=SC2086
        set -- $rest
        utime=$((utime + ${12})) stime=$((stime + ${13}))
        threads=$((threads + 1))
        while read -r key value; do
            case "$key" in
                nonvoluntary_ctxt_switches:) invol=$((invol + value)) ;;
                voluntary_ctxt_switches:) vol=$((vol + value)) ;;
            esac
        done < "$task/status"
    done
    echo "$threads $utime $stime $invol $vol $(date +%s%N)"
}

case "$workload" in
    round_plain_tcp) seconds=60 ;;
    round_secagg) seconds=40 ;;
    *) seconds=10 ;;
esac
"$e2e" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" > "$out/stdout" &
pid=$!
sleep 2
first="$(sample "$pid")"
sleep 3
second="$(sample "$pid")"
kill -0 "$pid" 2>/dev/null || { echo "$0: the run ended before the second sample" >&2; exit 1; }
wait "$pid"
rate="$(tail -n 1 "$out/stdout" | sed -n 's/.*"checkins_per_s": {"value": \([0-9.eE+-]*\).*/\1/p')"
[ -n "$rate" ] || { echo "$0: no checkins_per_s in the run's result" >&2; exit 1; }

echo "$first $second $rate $(getconf CLK_TCK)" | awk -v workload="$workload" -v seed="$seed" '{
    if ($8 + $9 < $2 + $3 || $10 < $4) {
        print "proc_counts: the counters went down: the samples straddle two trees" > "/dev/stderr"
        exit 1
    }
    secs = ($12 - $6) / 1e9
    checkins = $13 * secs
    user = ($8 - $2) / $14; sys = ($9 - $3) / $14
    printf "%s seed %s: threads %d/%d, cpu_us_per_checkin %.2f, invol_per_checkin %.3f, vol_per_checkin %.4f, sys_share %.3f\n",
        workload, seed, $1, $7, (user + sys) * 1e6 / checkins, ($10 - $4) / checkins,
        ($11 - $5) / checkins, (user + sys > 0 ? sys / (user + sys) : 0)
}'
