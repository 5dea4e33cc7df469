#!/usr/bin/env python3
"""Summarise or compare benchmark result files.

    python3 perfbench/compare.py RESULTS_DIR            # one side
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR  # A/B

A results directory holds the JSON files run.py writes (by default
.bench_build/results/).  For each workload and trace mode this prints,
per metric, the median over the runs and the spread (inter-quartile
distance as a share of the median).  With two directories it also
prints the change's median relative to the parent's and flags metrics
that got worse by more than their bound (end-to-end metrics).

It refuses to compare at all when any two results were measured on
different machines, builds or filesystems (the MACHINE_FIELDS of their
host blocks differ), when runs paired by seed saw different inputs, or
when two results of a workload take a metric at different percentiles.
Differing tool versions are expected between a parent and a change, so
they are printed, not refused.
"""

import glob
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfstats  # noqa: E402

MACHINE_FIELDS = ("nproc", "cpu_model", "machine", "build_type", "compiler",
                  "work_filesystem")


def load(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def summary(runs):
    """metric -> (median, spread, n) over a list of result files."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = (perfstats.spread(values) if len(values) >= 2 and med
                  else float("nan"))
        out[name] = (med, spread, len(values))
    return out


def refuse(message):
    print("compare: refusing: " + message, file=sys.stderr)
    sys.exit(2)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    sides = [load(d) for d in argv[1:]]
    every = [r for side in sides for runs in side.values() for r in runs]
    hosts = {json.dumps([r["host"][f] for f in MACHINE_FIELDS]) for r in every}
    if len(hosts) > 1:
        refuse("results come from %d different machines or builds" % len(hosts))
    for key in sides[0].keys() | sides[-1].keys():
        for name in perfstats.END_TO_END:
            pcts = {r["metrics"][name]["percentile"]
                    for side in sides for r in side.get(key, [])
                    if "percentile" in r["metrics"].get(name, {})}
            if len(pcts) > 1:
                refuse(f"{key[0]} {name} is taken at percentiles {sorted(pcts)}")
    versions = {json.dumps(r["host"]["tool_versions"], sort_keys=True) for r in every}
    if len(versions) > 1:
        print(f"compare: note: {len(versions)} different tool versions")
    if len(sides) == 2:
        for key in sides[0].keys() & sides[1].keys():
            digests = [{r["seed"]: r["input_digest"] for r in side[key]}
                       for side in sides]
            for seed in digests[0].keys() & digests[1].keys():
                if digests[0][seed] != digests[1][seed]:
                    refuse(f"{key[0]} seed {seed} generated different inputs")
    worse = 0
    for key in sorted(sides[0]):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        base = summary(sides[0][key])
        other = summary(sides[1][key]) if len(sides) == 2 and key in sides[1] else None
        for name, (med, spread, n) in sorted(base.items()):
            line = f"  {name:44s} {med:12.6g}  spread {spread:6.3f}  n={n}"
            if other and name in other:
                med2, spread2, n2 = other[name]
                rel = (med2 - med) / med if med else float("nan")
                line += f" | {med2:12.6g}  spread {spread2:6.3f}  n={n2}  {rel:+.1%}"
                if name in perfstats.END_TO_END:
                    _, better, bound, _ = perfstats.END_TO_END[name]
                    loss = rel if better == "lower" else -rel
                    if loss > bound:
                        line += f"  WORSE than bound {bound}"
                        worse += 1
            print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
