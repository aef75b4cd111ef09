"""Steadiness procedure: two sets of runs of every workload, compared against
the bounds in BENCHMARK.json.

    python3 bench/steady.py

Run from the repository root.  Each of two sets runs ``bench/run.py --trace 0``
once per workload of BENCHMARK.json and seed (set s uses seeds s*100+1 ..
s*100+10), workloads interleaved so that a drift in machine load falls on all of them alike.  It
prints every run's metrics with their units, its attempted and failed counts
and whether its outputs passed the checks; then, per workload and metric, each
set's median and quartile spread (Q3 - Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and how much worse
the second set's median is than the first's.  A spread above its bound, a
median worse by more than its bound, a failed share that differs between the
runs or an output that fails a check makes the verdict FAIL.  Results also go
to ``bench/out/steady.json``.  Traced runs are ``bench/run.py --trace 1``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    for s in range(SETS):
        for i in range(RUNS):
            seed = (s + 1) * 100 + i + 1
            for w in workloads:
                res = run_once(w, seed, seconds)
                results[w][s].append(res)
                vals = ", ".join(f"{k}={v['value']:.4g} {v['unit']}"
                                 for k, v in res["metrics"].items())
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']}; {vals}",
                      flush=True)
                ok = ok and res["correct"]

    print()
    for w in workloads:
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in results[w]]
        print(f"{w}: failed share per set {[sorted(x) for x in shares]}")
        if any(len(x) != 1 for x in shares) or len({next(iter(x)) for x in shares}) != 1:
            ok = False
            print("  FAIL: failed share differs between runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs] for runs in results[w]]
            line = f"  {name} [{m['unit']}] bound {bound}:"
            for s, vals in enumerate(sets):
                sp = spread(vals)
                line += f" set{s + 1} median {statistics.median(vals):.4g} spread {sp:.3f};"
                if sp > bound:
                    ok = False
                    line += " SPREAD>BOUND;"
            wb = worse_by(sets[0], sets[1], m["better"])
            line += f" set2 worse by {wb:+.3f}"
            if wb > bound:
                ok = False
                line += " WORSE>BOUND"
            print(line)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    print("\nverdict: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
