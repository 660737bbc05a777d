"""One pass of one workload in a fresh process; prints its record as one
JSON line. run.py starts one of these per pass with the thread variables
pinned, so every pass pays the set-up a `kinb` call pays.

    python3 bench/worker.py --workload kac-line --seed 1 --src src --spawned-at T

`--spawned-at` is the parent's time.monotonic() just before the spawn;
CLOCK_MONOTONIC is system-wide on Linux, so set-up time is measured from
process start. Every timed section runs between two runs of the
calibration kernel (calibrate.py); times are reported in reference and in
raw seconds. `--exact` runs the workload's untimed exact-reference run
instead of a pass; `--setup-only` stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _environment(kinb, np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import threadpoolctl  # noqa: F401
        have_tpc = True
    except ImportError:
        have_tpc = False
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threadpoolctl": have_tpc,
        "thread_vars": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS", "KINB_THREADS")},
        "kinb_file": kinb.__file__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--src", required=True, help="directory that must hold kinb")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--exact", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np
    import calibrate
    kernel = calibrate.Kernel()
    import kinb
    if not os.path.abspath(kinb.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"kinb imported from {kinb.__file__}, not from {args.src}", file=sys.stderr)
        return 2
    import workloads
    wl = workloads.WORKLOADS[args.workload]

    if args.exact:
        print(json.dumps({"err_exact": wl.exact()}))
        return 0

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer(args.run_id)
        tracer.install()   # before set-up, so the operator build is recorded
    inputs = wl.setup(args.seed)
    raw_setup_s = time.monotonic() - args.spawned_at
    watch = calibrate.Stopwatch(kernel, wl.sensitivity)
    setup_s = raw_setup_s / calibrate.speed(watch.first, watch.first, wl.sensitivity)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    t0 = time.perf_counter()
    out = wl.run_pass(inputs, watch)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.restore()
    res = wl.check(inputs, out)
    tally = res.pop("tally")
    steps = res.pop("steps")
    rec = {"wall_s": watch.ref_s, "raw_wall_s": watch.raw_s,
           "setup_s": setup_s, "raw_setup_s": raw_setup_s,
           "steps": steps, "peak_rss_mb": peak_rss_mb,
           "attempted": tally.attempted, "failed": tally.failed,
           "failures": tally.failures, "sections": watch.sections,
           "kernel_runs": watch.kernel_runs, **res}
    if steps:
        runs = [(raw, ref) for label, raw, ref in watch.sections if label == "run"]
        rec["steps_per_s"] = steps / sum(ref for _, ref in runs)
        rec["raw_steps_per_s"] = steps / sum(raw for raw, _ in runs)
    if tracer is not None:
        rec["trace"] = spans.summarize(tracer.spans, since=t0, steps=steps)
        rec["hooked"] = tracer.hooked
        if args.spans_out:
            tracer.write(args.spans_out, workload=args.workload, seed=args.seed)
    if args.env:
        rec["env"] = _environment(kinb, np)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
