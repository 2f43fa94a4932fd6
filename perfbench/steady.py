#!/usr/bin/env python3
"""Steadiness report: do two separate sets of runs of the same code agree?

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--workloads a,b]

Runs set A (seeds 1, 2, ...) and then the hold-out set B (seeds 1001,
1002, ...), each as `--runs` rounds over the workloads in alternation,
through perfbench/run.py. For every end-to-end metric of every workload
it prints each set's median, quartiles and sample count, the spread
(distance between the quartiles over the median), and whether the
spreads and the two medians stay within the metric's bound from
BENCHMARK.json. Each run also records nproc, the load average and the
CPU steal ticks it saw, so that an outlier can be explained. The case
counts of every run must not depend on the seed. Exits 1 if any check
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def one_run(workload, seed, seconds):
    start = time.perf_counter()
    r = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"], stdout=subprocess.PIPE)
    elapsed = time.perf_counter() - start
    lines = r.stdout.decode().strip().splitlines()
    tagged = {l.split(": ", 1)[0]: json.loads(l.split(": ", 1)[1])
              for l in lines[:-1] if l.startswith(("host: ", "info: "))}
    result = json.loads(lines[-1]) if r.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "exit": r.returncode, "elapsed": elapsed,
            "result": result, "host": tagged.get("host", {}), "info": tagged.get("info", {}),
            "notes": [l for l in lines if l.startswith("check failed")]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float)
    p.add_argument("--workloads")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    sets = {}
    problems = []
    for name, base in (("A", 1), ("B", 1001)):
        runs = []
        for i in range(args.runs):
            for w in workloads:
                r = one_run(w, base + i, seconds)
                runs.append(r)
                res = r["result"]
                print(f"set {name} {w:20s} seed {r['seed']:5d} {r['elapsed']:6.1f}s "
                      f"load {r['host'].get('loadavg')} steal {r['host'].get('steal_ticks')} "
                      f"samples {r['info'].get('samples')} "
                      + (" ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                         if res else f"EXIT {r['exit']}"),
                      flush=True)
                if not res or not res["correct"]:
                    problems.append(f"set {name} {w} seed {r['seed']}: failed run {r['notes']}")
        sets[name] = runs

    print()
    print(f"{'workload':20s} {'metric':28s} {'set':3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>3s} {'spread':>7s} {'bound':>6s} verdict")
    for w in workloads:
        cases = {tuple(r["info"].get("cases", [])[:1]) for s in sets.values() for r in s
                 if r["workload"] == w}
        if len(cases) > 1:
            problems.append(f"{w}: case count depends on the seed: {sorted(cases)}")
        for m in metrics:
            meds = {}
            for name, runs in sets.items():
                values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                          if r["workload"] == w and r["result"]]
                if not values:
                    continue
                q1, med, q3 = quartiles(values)
                meds[name] = med
                spread = (q3 - q1) / med if med else 0.0
                bound = m["bound"]
                verdict = "steady" if spread <= bound / 3 else (
                    "within bound" if spread <= bound else "TOO NOISY")
                if spread > bound:
                    problems.append(f"{w} {m['name']} set {name}: spread {spread:.3f} > {bound}")
                print(f"{w:20s} {m['name']:28s} {name:3s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{len(values):3d} {spread:7.3f} {bound:>6} {verdict}")
            bound = m["bound"]
            if len(meds) == 2 and meds["A"]:
                worse = (meds["B"] - meds["A"]) / meds["A"]
                if m["better"] == "higher":
                    worse = -worse
                ok = abs(worse) <= bound
                print(f"{w:20s} {m['name']:28s} A~B {'':12s} B vs A {worse:+.3f} -> "
                      f"{'agree' if ok else 'DISAGREE'}")
                if not ok:
                    problems.append(f"{w} {m['name']}: set medians differ by {worse:+.3f}")
    for prob in problems:
        print(f"steadiness: {prob}")
    print("steadiness ok" if not problems else "steadiness FAILED")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
