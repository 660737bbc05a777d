"""The alternating-pairs summary of tools/ab_pairs.py, on canned worker
records: no worker process is started."""
import importlib.util
import json
import os
import subprocess

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(ROOT, "tools", "ab_pairs.py"))
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())["end_to_end"]


def _rec(wall, steps_per_s, rss, failed=0, err=1e-10):
    return {"wall_s": wall, "steps_per_s": steps_per_s, "setup_s": 0.3,
            "peak_rss_mb": rss, "err_exact": err, "energy_drift": 1e-9,
            "attempted": 72, "failed": failed}


@pytest.fixture(autouse=True)
def no_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary must not start a process")
    monkeypatch.setattr(subprocess, "run", refuse)


def test_summary_medians_wins_and_passes():
    pairs = [
        {"base": _rec(0.50, 450.0, 54.0), "head": _rec(0.44, 455.0, 54.5)},
        {"head": _rec(0.45, 440.0, 54.0), "base": _rec(0.52, 460.0, 54.0)},
        {"base": _rec(0.51, 450.0, 54.2), "head": _rec(0.52, 450.0, 54.1, failed=1)},
    ]
    s = ab.summarize("analysis", 1, pairs, METRICS, {"cores": 2})
    assert s["pairs"] == 3 and s["seed"] == 1 and s["environment"] == {"cores": 2}
    assert s["attempted"] == {"base": 216, "head": 216}
    assert s["failed"] == {"base": 0, "head": 1}
    assert list(s["metrics"]) == [m["name"] for m in METRICS]
    wall = s["metrics"]["wall_s"]
    assert (wall["base"], wall["head"]) == (0.51, 0.45)
    assert wall["change"] == pytest.approx(0.45 / 0.51 - 1.0)
    assert wall["won"] == {"base": 1, "head": 2}     # lower is better
    assert wall["passes"] == {"base": [0.50, 0.52, 0.51], "head": [0.44, 0.45, 0.52]}
    steps = s["metrics"]["steps_per_s"]
    assert steps["won"] == {"base": 1, "head": 1}    # higher is better; one tie
    assert s["metrics"]["setup_s"]["won"] == {"base": 0, "head": 0}
    assert s["metrics"]["setup_s"]["change"] == 0.0
    rss = s["metrics"]["peak_rss_mb"]
    assert (rss["base"], rss["head"], rss["won"]) == (54.0, 54.1, {"base": 1, "head": 1})
    text = ab.report(s)
    assert "3 alternating pairs" in text and "base 0 of 216, head 1 of 216" in text
    json.dumps(s)   # what main writes


def test_summary_skips_missing_values():
    pairs = [{"base": _rec(0.5, 450.0, 54.0, err=None), "head": _rec(0.4, 450.0, 54.0)},
             {"head": _rec(0.4, 450.0, 54.0, err=2e-10), "base": _rec(0.5, 450.0, 54.0, err=3e-10)}]
    for p in pairs:
        del p["base"]["steps_per_s"], p["head"]["steps_per_s"]
    s = ab.summarize("kac-line", 1, pairs, METRICS, {})
    assert s["metrics"]["steps_per_s"]["base"] is None
    assert s["metrics"]["steps_per_s"]["change"] is None
    err = s["metrics"]["err_exact"]
    assert (err["base"], err["head"]) == (3e-10, 1.5e-10)
    assert err["won"] == {"base": 0, "head": 1}
    assert "-" in ab.report(s)


def test_unequal_checkout_paths_are_refused(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "bb").mkdir()
    assert ab.main([str(tmp_path / "a"), str(tmp_path / "bb"), "--workload", "analysis"]) == 2
    assert "same length" in capsys.readouterr().err
