#!/usr/bin/env python3
"""Alternating pairs of one benchmark workload on two checkouts.

    python3 tools/ab_pairs.py --workload analysis --pairs 10 BASE HEAD

BASE and HEAD are two checkouts of this repository (each with bench/ and
src/). Their paths must have the same length: the calibrated timings move
with the length of the checkout path, so unequal lengths are refused. Each
pair runs one pass of the unchanged bench/worker.py on each side, each in a
fresh process, and alternates which side goes first. Every pass gets the
thread variables bench/run.py pins (OPENBLAS_NUM_THREADS=1,
OMP_NUM_THREADS=1, KINB_THREADS unset) and the same arguments and run id,
so no pass differs from another by the size of its argv. When the timed
passes report no err_exact, one untimed `--exact` pass per side supplies it,
as in bench/run.py.

The summary is printed and written to BENCH_<workload>.json at the root of
this repository: both sides' medians of every end-to-end metric that
BENCHMARK.json declares, the number of pairs each side won, every pass's
values in pair order, and the environment (cores, numpy and BLAS, thread
variables, both commits).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
RUN_ID = "ab"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
WORKER_TIMEOUT_S = 150


def _env(checkout: Path) -> dict:
    env = dict(os.environ)
    env.pop("KINB_THREADS", None)
    env.update(PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "bench")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    return env


def _pass(checkout: Path, workload: str, seed: int, *extra: str) -> dict:
    """One bench/worker.py pass on `checkout`; returns its record."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(checkout / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(checkout / "src"),
           "--spawned-at", f"{spawned:.6f}", "--run-id", RUN_ID, *extra]
    proc = subprocess.run(cmd, env=_env(checkout), cwd=str(checkout),
                          stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker in {checkout} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _median(values: list) -> float | None:
    present = [x for x in values if x is not None]
    return statistics.median(present) if present else None


def summarize(workload: str, seed: int, pairs: list, metrics: list, environment: dict) -> dict:
    """Medians, wins and per-pass values of each end-to-end metric.

    `pairs` is a list of {"base": record, "head": record} worker records;
    `metrics` the end_to_end entries of BENCHMARK.json (name, unit, better).
    A pair counts for neither side when the values are equal or one is
    missing; a median is taken over the passes that report the metric.
    """
    out = {}
    for m in metrics:
        name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
        vals = {s: [p[s].get(name) for p in pairs] for s in SIDES}
        med = {s: _median(vals[s]) for s in SIDES}
        won = {"base": 0, "head": 0}
        for b, h in zip(vals["base"], vals["head"]):
            if b is not None and h is not None and b != h:
                won["head" if sign * (h - b) < 0 else "base"] += 1
        change = med["head"] / med["base"] - 1.0 if med["base"] and med["head"] is not None else None
        out[name] = {"unit": m["unit"], "better": m["better"], **med, "change": change,
                     "won": won, "passes": vals}
    return {"workload": workload, "seed": seed, "pairs": len(pairs),
            "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
            "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
            "metrics": out, "environment": environment}


def _git(checkout: Path, *args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(paths: dict) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    env = _env(paths["base"])
    sides = {}
    for s in SIDES:
        status = _git(paths[s], "status", "--porcelain", "--untracked-files=no")
        sides[s] = {"commit": _git(paths[s], "rev-parse", "HEAD"),
                    "src_tree": _git(paths[s], "rev-parse", "HEAD:src"),
                    "dirty": None if status is None else bool(status)}
    return {"cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_vars": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS", "KINB_THREADS")},
            "path_length": len(str(paths["base"])), **sides}


def report(summary: dict) -> str:
    lines = [f"== {summary['workload']}: {summary['pairs']} alternating pairs, seed {summary['seed']}",
             f"{'metric':14s}{'base':>14s}{'head':>14s}{'change':>10s}   won base/head"]
    for name, m in summary["metrics"].items():
        cells = "".join(f"{m[s]:14.6g}" if m[s] is not None else f"{'-':>14s}" for s in SIDES)
        change = f"{m['change']:+10.2%}" if m["change"] is not None else f"{'-':>10s}"
        lines.append(f"{name:14s}{cells}{change}   {m['won']['base']}/{m['won']['head']}")
    lines.append("failed operations: " + ", ".join(
        f"{s} {summary['failed'][s]} of {summary['attempted'][s]}" for s in SIDES))
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    paths = {"base": args.base.resolve(), "head": args.head.resolve()}
    if len(str(paths["base"])) != len(str(paths["head"])):
        print("the two checkouts' paths must have the same length", file=sys.stderr)
        return 2
    for s in SIDES:
        if not (paths[s] / "bench" / "worker.py").is_file():
            print(f"no bench/worker.py under the {s} checkout", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("--pairs must be at least 1", file=sys.stderr)
        return 2
    pairs = []
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pairs.append({s: _pass(paths[s], args.workload, args.seed) for s in order})
        for s in SIDES:
            if any(p[s].get("err_exact") is None for p in pairs):
                err = _pass(paths[s], args.workload, args.seed, "--exact")["err_exact"]
                for p in pairs:
                    p[s]["err_exact"] = err
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize(args.workload, args.seed, pairs, metrics, environment(paths))
    print(report(summary))
    (ROOT / f"BENCH_{args.workload}.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
