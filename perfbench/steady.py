#!/usr/bin/env python3
"""Steadiness runs for perfbench.

Runs each workload once per seed, untraced, and reports for every
end-to-end metric the median, the quartiles and the spread (the distance
between the first and third quartile as a share of the median, as
statistics.quantiles(values, n=4) gives them). With --write it records the
seeds, these figures and the deterministic counters in
perfbench/baseline.json.

    python3 perfbench/steady.py --seeds 1-10 --write
    python3 perfbench/steady.py --workloads ingest-bdcc --seeds 1-5

Run from the repository root.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    exact = {}
    flags = []
    for line in lines:
        if line.startswith(f"{workload} exact "):
            exact = json.loads(line[len(workload) + 7:])
        if "FLAG" in line:
            flags.append(line)
    return result, exact, flags, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def record_exact(workload, exacts):
    """Returns the counters to record for one workload: under "*" the set
    most seeds agree on, when more than half do, and per seed otherwise.
    A rare run that differs (on serve a racing shard unit can be lost) is
    reported and not recorded as that seed's counters."""
    counts = collections.Counter(json.dumps(e, sort_keys=True) for e in exacts.values())
    common, n = counts.most_common(1)[0]
    if n <= len(exacts) / 2:
        return exacts
    for seed, e in exacts.items():
        if json.dumps(e, sort_keys=True) != common:
            print(f"{workload} seed {seed}: counters differ from the other {n} seeds: {e}")
    return {"*": json.loads(common)}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--write", action="store_true")
    args = ap.parse_args()

    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)

    out = {"workloads": {}, "exact": {}}
    worst = 0.0
    for w in names:
        values = {}
        exacts = {}
        for s in seeds:
            result, exact, flags, wall = run_once(w, s, seconds)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            exacts[str(s)] = exact
            for f in flags:
                print(f"  seed {s}: {f}")
            print(f"{w} seed {s} ({wall:.0f} s): " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        figures = {name: spread(v) for name, v in values.items()}
        for name, f in figures.items():
            ratio = f["spread"] / bounds[name]
            mark = "" if ratio < 1 / 3 else "  <-- over a third of its bound"
            worst = max(worst, ratio)
            print(f"{w:14s} {name:14s} median {f['median']:.5g} q1 {f['q1']:.5g} q3 {f['q3']:.5g} spread {f['spread']:.4f} (bound {bounds[name]}){mark}")
        out["workloads"][w] = {"seeds": seeds, "run_seconds": seconds, "metrics": figures, "runs": values}
        out["exact"][w] = record_exact(w, exacts)
    print(f"largest spread/bound: {worst:.3f}")

    if args.write:
        path = os.path.join(HERE, "baseline.json")
        old = json.load(open(path)) if os.path.exists(path) else {}
        old.setdefault("workloads", {}).update(out["workloads"])
        old.setdefault("exact", {}).update(out["exact"])
        old["about"] = ("Steadiness runs of perfbench: per workload the seeds, each end-to-end "
                        "metric's median, quartiles and spread, and the deterministic counters "
                        "('*' for the set more than half the seeds gave). Measured on %d CPUs." % os.cpu_count())
        with open(path, "w") as fh:
            json.dump(old, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
