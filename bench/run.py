"""Benchmark entry point.

    python3 bench/run.py --workload families|lattice|lattice-emit \
        --seed N --seconds T --trace 0|1

Run from the repository root.  With ``--trace 0`` it measures set-up eleven
times in fresh interpreters (``setup_s`` is their median), then runs the
workload in one worker process (see ``worker.py``) and reports the
end-to-end metrics.  With ``--trace 1`` the worker wraps each layer's public
functions and the run reports the per-layer metrics instead; the two are
never measured together.  Every output of every run is checked by
``checks.py``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go
to ``bench/out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_REPEATS = 11
# The driver allows 180 s per run; keep the worker inside that.
RUN_LIMIT_S = 170


def _worker(args, extra, limit):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=limit)


def measure_setup(args, work):
    """Median set-up time of fresh worker processes, at the reference speed."""
    times = []
    kernel_before = calib.kernel_seconds()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = _worker(args, ["--dir", os.path.join(work, "setup"), "--setup-only"], 60)
        dt = time.perf_counter() - t0
        if proc.returncode:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        kernel_after = calib.kernel_seconds()
        times.append(dt * calib.REF_S / ((kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
    return statistics.median(times)


def end_to_end(result, setup_s):
    med = [statistics.median(result["times"][n]) for n in result["inputs"]]
    return {
        "solve_s": (sum(med), "s"),
        "input_s.gmean": (math.exp(sum(math.log(t) for t in med) / len(med)), "s"),
        "input_s.max": (max(med), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(result):
    per_input = []
    for n in result["inputs"]:
        recs = result["records"][n]
        per_input.append({key: statistics.median(r[key] for r in recs) for key in recs[0]})
    total = {key: sum(r[key] for r in per_input) for key in per_input[0]}
    total["abelian.lattice_bits_max"] = max(r["abelian.lattice_bits_max"] for r in per_input)
    total["abelian.homology_pct"] = 100 * total["abelian.homology_s"] / total["trace.solve_s"]
    called = set(result["called"]) - set(result["missing_spans"])
    metrics, missing = {}, []
    for name, unit, span in PER_LAYER:
        if span in called:
            metrics[name] = (total[name], unit)
        else:
            missing.append(name)
    return metrics, missing


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join("src", "kktheory", "cli.py")):
        print("bench/run.py: run from the repository root; src/kktheory is missing",
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)

    try:
        setup_s = None if args.trace else measure_setup(args, work)
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        proc = _worker(args, ["--dir", work, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], limit)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1
    if proc.returncode:
        print(f"bench/run.py: worker failed:\n{proc.stderr.strip()[-2000:]}", file=sys.stderr)
        return 1
    with open(os.path.join(work, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)

    manifest = {inp["name"]: inp for inp in inputs.seeded_inputs(args.workload, args.seed)}
    ext = "json" if args.workload == "lattice-emit" else "txt"
    correct = result["consistent"]
    if not correct:
        print("check: outputs differ between passes", file=sys.stderr)
    attempted = failed = 0
    for name in result["inputs"]:
        codes = result["codes"][name]
        attempted += len(codes)
        failed += sum(1 for c in codes if c)
        if all(codes):
            # No output to check, so the input cannot count as correct.
            print(f"{name}: failed every time: {result['errors'].get(name, '')}")
            correct = False
            continue
        with open(os.path.join(work, "outputs", f"{name}.{ext}"), encoding="utf-8") as fh:
            fails = checks.check_output(args.workload, manifest[name], fh.read())
        correct = correct and not fails
        med = statistics.median(result["times"][name])
        raw = statistics.median(result["raw_times"][name])
        print(f"{name}: median {med:.4f} s at reference speed ({raw:.4f} s wall) "
              f"over {len(codes)} calls; checks " + ("passed" if not fails else "FAILED"))
        for msg in fails:
            print(f"  check failed: {msg}")

    if args.trace:
        metrics, missing = per_layer(result)
        if missing:
            print("missing (function no longer called): " + ", ".join(missing))
    else:
        metrics = end_to_end(result, setup_s)
    print(f"passes: {result['passes']}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
