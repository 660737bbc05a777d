"""Smoke runs of the scripts in scripts/ at toy sizes."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("script,args,written", [
    ("reference_chain.py", ["--n", "64", "--n-fine", "128"],
     ["run.csv", "induction.csv", "hinf.csv"]),
    ("fixed_point_drift.py", ["--n", "64", "--t-end", "0.02"], []),
    ("smoothing_study.py", ["--t-end", "0.005"], ["alpha_fit.csv"]),
], ids=["reference_chain", "fixed_point_drift", "smoothing_study"])
def test_script_runs(tmp_path, script, args, written):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if written:
        args = args + ["--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script)]
                          + args, cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in written:
        raw = (tmp_path / "out" / name).read_bytes()
        assert b"\r" not in raw, name   # every line ends in a bare newline
        assert len(raw.decode().splitlines()) >= 2, name   # a header and a row
