"""The workload process: one closed loop, one thread, one process.

    python3 bench/worker.py --workload W --seed N --dir D --setup-only
    python3 bench/worker.py --workload W --seed N --dir D --seconds T --trace 0|1

Run from the repository root.  Set-up is interpreter start, importing
``kktheory`` from ``src`` and writing the seeded inputs to ``D/inputs``;
``--setup-only`` stops there.  Otherwise the process makes whole passes over
the inputs, in an order rotated by one input each pass, until another pass
would end after T seconds.  Each input is one call of the public CLI entry
point ``kktheory.cli.run`` into an in-memory buffer, so the time covers
load, compute and render.  Before each call the process-global Smith normal
form memo (where one exists) is cleared and ``gc.collect()`` runs, so every
call pays what one ``kktheory compute`` pays.  The reference kernel of
``calib.py`` runs between calls, and each call's time is also recorded at the
reference speed.  The first pass writes each output to ``D/outputs``; later
passes must reproduce it byte for byte.  ``D/result.json`` receives the
per-call times, raw and at the reference speed (with ``--trace 1`` also the
per-layer records), and the process's peak resident memory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import inputs  # noqa: E402


def job_options(workload):
    if workload == "lattice-emit":
        return {"output_format": "json", "emit_intermediate": True, "emit_lifts": True}
    return {}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from kktheory import abelian, cli

    manifest = inputs.write_inputs(args.workload, args.seed,
                                   os.path.join(args.dir, "inputs"))
    if args.setup_only:
        return 0

    memo = abelian.smith_normal_form
    clear = getattr(memo, "cache_clear", None)
    cache_info = getattr(memo, "cache_info", None)
    run = cli.run
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        run = tracer.install()

    opts = job_options(args.workload)
    ext = "json" if opts else "txt"
    out_dir = os.path.join(args.dir, "outputs")
    os.makedirs(out_dir, exist_ok=True)
    names = [inp["name"] for inp in manifest]
    times = {n: [] for n in names}
    raw = {n: [] for n in names}
    codes = {n: [] for n in names}
    records = {n: [] for n in names}
    errors = {}
    digests = {}
    consistent = True
    called = set()

    start = time.perf_counter()
    passes = 0
    kernel_before = calib.kernel_seconds()
    while True:
        pass_start = time.perf_counter()
        order = manifest[passes % len(manifest):] + manifest[:passes % len(manifest)]
        for inp in order:
            name = inp["name"]
            config = cli.JobConfig(inp["path"], **opts)
            if clear is not None:
                clear()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            misses0 = cache_info().misses if cache_info else None
            if tracer is not None:
                tracer.reset()
            t0 = time.perf_counter()
            code = run(config, stdout=out, stderr=err)
            dt = time.perf_counter() - t0
            kernel_after = calib.kernel_seconds()
            scale = calib.REF_S / ((kernel_before + kernel_after) / 2)
            kernel_before = kernel_after
            text = out.getvalue()
            raw[name].append(dt)
            times[name].append(dt * scale)
            codes[name].append(code)
            if code:
                errors.setdefault(name, err.getvalue().strip())
            if tracer is not None:
                misses = cache_info().misses - misses0 if cache_info else None
                rec, spans = tracer.record(len(text), misses, scale)
                records[name].append(rec)
                called.update(spans)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if name not in digests:
                digests[name] = digest
                with open(os.path.join(out_dir, f"{name}.{ext}"), "w", encoding="utf-8") as fh:
                    fh.write(text)
            elif digests[name] != digest:
                consistent = False
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > args.seconds:
            break

    result = {
        "passes": passes,
        "inputs": names,
        "times": times,
        "raw_times": raw,
        "codes": codes,
        "errors": errors,
        "consistent": consistent,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["records"] = records
        result["called"] = sorted(called)
        result["missing_spans"] = tracer.missing
    with open(os.path.join(args.dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
