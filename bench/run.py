#!/usr/bin/env python3
"""kinb benchmark: time to solution at stated accuracy on four workloads.

    python3 bench/run.py --workload kac-line --seed 1 --seconds 26 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 26

One run repeats passes of the workload for `--seconds` seconds. Each pass
is a fresh process (bench/worker.py) with OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1, KINB_THREADS unset, importing kinb from the checkout's
src/. Times are in reference seconds (see bench/calibrate.py) and are
medians over the passes. With `--trace 0` the last line
of output is a JSON object with the end-to-end metrics; with `--trace 1`
passes alternate untraced and traced and the metrics are the per-layer
ones. `--workload all` runs every workload and then records, ungated,
planar-2d at the default thread settings. The full record of a run goes
to .bench_out/ in the checkout. See bench/README.md.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("kac-line", "radial-3d", "planar-2d", "analysis")

END_TO_END = (("wall_s", "s"), ("steps_per_s", "1/s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("err_exact", "rel"), ("energy_drift", "rel"))

SELF_S = ("spectral.moments", "spectral.to_physical", "evolution.entropy",
          "spectral.state_with_values", "evolution.run",
          "diagnostics.commutation_error", "diagnostics.check_hypotheses",
          "diagnostics.build_induction_schedule", "diagnostics.fit_gevrey_order",
          "inequalities.pointwise_from_l2_check", "inequalities.optimize_lambdas",
          "inequalities.expdiff_check", "inequalities.kl_check")
SUITES = ("epsilon", "kl", "ddlemma", "expdiff", "geometry")

WORKER_TIMEOUT_S = 150
# a median needs more than one pass, however long a pass takes
MIN_PASSES = 2
# set-up is short and noisy: runs with fewer passes add set-up-only processes
MIN_SETUPS = 7


class BenchError(Exception):
    pass


def _env(pinned: bool) -> dict:
    env = dict(os.environ)
    env.pop("KINB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if pinned:
            env[var] = "1"
        else:
            env.pop(var, None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _worker(workload: str, seed: int, env: dict, *extra: str) -> tuple:
    """Run bench/worker.py once; returns (record, process wall seconds)."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(SRC), "--spawned-at", repr(spawned),
           *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(ROOT), stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded {WORKER_TIMEOUT_S} s")
    wall = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1]), wall


def _passes(workload: str, seed: int, seconds: float, trace: bool,
            pinned: bool = True) -> list:
    """Fresh-process passes until the next one would overrun `seconds`.
    Traced runs alternate untraced and traced passes, untraced first."""
    env = _env(pinned)
    start = time.monotonic()
    recs, last = [], 0.0
    while len(recs) < MIN_PASSES or time.monotonic() - start + last <= seconds:
        i = len(recs)
        traced = trace and i % 2 == 1
        extra = ["--run-id", f"{workload}-s{seed}-p{i}"]
        if i == 0:
            extra.append("--env")
        if traced:
            extra += ["--trace", "1", "--spans-out",
                      str(OUT / f"spans-{workload}-s{seed}-p{i}.json")]
        rec, last = _worker(workload, seed, env, *extra)
        rec["traced"] = traced
        recs.append(rec)
    return recs


def _median(recs: list, key: str) -> float:
    vals = [r[key] for r in recs if r.get(key) is not None]
    if not vals:
        raise BenchError(f"no pass reported {key}")
    return statistics.median(vals)


def end_to_end(workload: str, seed: int, recs: list, env: dict) -> dict:
    vals = {k: _median(recs, k) for k in
            ("wall_s", "steps_per_s", "peak_rss_mb", "energy_drift")}
    setups = [r["setup_s"] for r in recs]
    while len(setups) < MIN_SETUPS:
        setups.append(_worker(workload, seed, env, "--setup-only")[0]["setup_s"])
    vals["setup_s"] = statistics.median(setups)
    if any(r.get("err_exact") is None for r in recs):
        # the timed datum has no exact solution: untimed side run
        vals["err_exact"] = _worker(workload, seed, env, "--exact")[0]["err_exact"]
    else:
        vals["err_exact"] = _median(recs, "err_exact")
    return {name: {"value": vals[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(recs: list) -> dict:
    traced = [r for r in recs if r["traced"]]
    plain = [r for r in recs if not r["traced"]]

    def mean(fn):
        return statistics.fmean(fn(r["trace"]) for r in traced)

    def name_stat(name, stat):
        return mean(lambda t: t["per_name"].get(name, {}).get(stat, 0))

    wall = statistics.fmean(r["raw_wall_s"] for r in traced)
    m = {
        "spectral.refine_array.calls": (name_stat("spectral.refine_array", "calls"), "count"),
        "spectral.refine_array.self_s": (name_stat("spectral.refine_array", "self_s"), "s"),
        "spectral.refine_array.bytes": (name_stat("spectral.refine_array", "bytes"), "B"),
        "spectral.refine_array.share": (name_stat("spectral.refine_array", "self_s") / wall, "ratio"),
        "spectral.refine_array.per_rhs": (mean(lambda t: t["refine_per_rhs"]), "ratio"),
        "collision.rhs_bilinear.calls": (name_stat("collision.rhs_bilinear", "calls"), "count"),
        "collision.rhs_bilinear.self_s": (name_stat("collision.rhs_bilinear", "self_s"), "s"),
        "collision.rhs_bilinear.share": (name_stat("collision.rhs_bilinear", "self_s") / wall, "ratio"),
        "collision.build_s": (mean(lambda t: t["build_s"]), "s"),
        "spectral.moments.total_s": (name_stat("spectral.moments", "total_s"), "s"),
        "evolution.steps": (statistics.fmean(r["steps"] for r in traced), "count"),
        "evolution.rhs_per_step": (mean(lambda t: t["rhs_per_step"]), "ratio"),
        "inequalities.epsilon.calls": (name_stat("inequalities.epsilon", "calls"), "count"),
        "inequalities.epsilon.self_s": (name_stat("inequalities.epsilon", "self_s"), "s"),
    }
    for name in SELF_S:
        m[f"{name}.self_s"] = (name_stat(name, "self_s"), "s")
    for suite in SUITES:
        m[f"verify.run_suite.{suite}.self_s"] = (
            name_stat(f"verify.run_suite.{suite}", "self_s"), "s")
    m["trace.spans"] = (mean(lambda t: t["spans"]), "count")
    m["trace.overhead"] = (_median(traced, "wall_s") / _median(plain, "wall_s") - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _git(*args: str) -> str | None:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(worker_env: dict) -> dict:
    top = _git("rev-parse", "--show-toplevel")
    commit = _git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT else None
    dirty = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit or "unknown",
        "dirty": None if dirty is None else bool(dirty),
        "src_lines": src_lines,
        **worker_env,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    recs = _passes(workload, seed, seconds, trace)
    metrics = per_layer(recs) if trace else end_to_end(workload, seed, recs, _env(True))
    attempted = sum(r["attempted"] for r in recs)
    failed = sum(r["failed"] for r in recs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    env = environment(recs[0].get("env", {}))
    absent = sorted({n for r in recs if r["traced"] for n in _absent(r)})
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "passes": recs, "absent": absent, "result": result}
    (OUT / f"result-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    _report(workload, recs, result, env, absent)
    return result


def _absent(rec: dict) -> list:
    """Names the per-layer metrics read that were not hooked or not called."""
    called = rec["trace"]["per_name"]
    wanted = {"spectral.refine_array", "collision.rhs_bilinear", "evolution.run",
              "collision.stability_limit", *SELF_S, "inequalities.epsilon",
              *(f"verify.run_suite.{s}" for s in SUITES)}
    return [n for n in wanted if n not in called]


def _report(workload: str, recs: list, result: dict, env: dict, absent: list) -> None:
    print(f"== {workload}: {len(recs)} passes, one fresh process each "
          f"(OPENBLAS_NUM_THREADS=1, OMP_NUM_THREADS=1, KINB_THREADS unset)")
    for name, m in result["metrics"].items():
        raw = [r.get("raw_" + name) for r in recs if not r["traced"]]
        note = f"   (raw {statistics.median(raw):.6g})" if raw and None not in raw else ""
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}{note}")
    a, f = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':44s} {f / a:.6g} ({f} failed of {a} attempted operations)")
    for r in recs:
        for what in r["failures"]:
            print(f"  FAILED: {what}")
        suites = sum(raw for label, raw, _ in r["sections"] if label.startswith("suite "))
        if suites:
            print(f"  pass: suites {suites:.3f} s, diagnostics "
                  f"{r['raw_wall_s'] - suites:.3f} s (raw)")
    if absent:
        print(f"  absent (not hooked or never called): {', '.join(absent)}")
    print("  environment: " + json.dumps(env, default=str))


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    results = {w: run_workload(w, seed, seconds, trace) for w in WORKLOADS}
    recs = _passes("planar-2d", seed, seconds, trace=False, pinned=False)
    print(f"== planar-2d at default BLAS threads (recorded, not gated): "
          f"steps_per_s {_median(recs, 'steps_per_s'):.6g} 1/s "
          f"(raw {_median(recs, 'raw_steps_per_s'):.6g}) over {len(recs)} passes")
    print(f"{'workload':12s}" + "".join(f"{n:>14s}" for n, _ in END_TO_END) + f"{'fail_ratio':>12s}")
    merged = {}
    attempted = failed = 0
    for w, res in results.items():
        attempted += res["attempted"]
        failed += res["failed"]
        row = f"{w:12s}"
        for name, m in res["metrics"].items():
            merged[f"{w}.{name}"] = m
            row += f"{m['value']:14.6g}" if not trace else ""
        print(row + f"{res['failed'] / res['attempted']:12.3g}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": merged}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=26.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kinb" / "__init__.py").is_file():
        print(f"no kinb package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
