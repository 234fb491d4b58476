"""Summarises the runs `run.sh --repeat K` left in benchmark/out.

usage: summarize.py BENCHMARK.json run_<workload>_<set>_<trace>.json...

Prints, per workload and metric, the median, quartiles and relative spread
over the sets. Exits 1 if a run was not correct, or if two sets disagree
on an end-to-end metric by more than its bound; a spread above half the
bound gets a warning row.
"""
import json
import os
import statistics
import sys


def main():
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    gated = {m["name"]: m for m in spec["end_to_end"]}
    values = {}  # (workload, metric) -> [value per set]
    units = {}
    bad = False
    for path in sys.argv[2:]:
        workload = os.path.basename(path)[len("run_"):].rsplit("_", 2)[0]
        with open(path) as f:
            text = f.read().strip()
        if not text:
            print(f"FAIL  {path}: the run printed no result")
            bad = True
            continue
        run = json.loads(text)
        if not run["correct"] or run["failed"]:
            print(f"FAIL  {path}: {run['failed']} of {run['attempted']} operations failed")
            bad = True
        for name, m in run["metrics"].items():
            values.setdefault((workload, name), []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'workload':<16} {'metric':<38} {'n':>2} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  unit")
    for (workload, name), vs in sorted(values.items()):
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        note = ""
        gate = gated.get(name)
        if gate and len(vs) > 1:
            lo, hi = min(vs), max(vs)
            base = lo if gate["better"] == "lower" else hi
            if base and (hi - lo) / abs(base) > gate["bound"]:
                note = f"  FAIL: sets disagree by {(hi - lo) / abs(base):.1%}, bound {gate['bound']:.0%}"
                bad = True
            elif spread > gate["bound"] / 2:
                note = f"  warning: spread above half the bound ({gate['bound']:.0%})"
        print(f"{workload:<16} {name:<38} {len(vs):>2} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.2%}  {units[name]}{note}")
    sys.exit(1 if bad else 0)


main()
