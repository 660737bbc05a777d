"""Checks of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math
import sys
import types

import numpy as np
import pytest

import calibrate
import kinb
import run
from exact import bkw_lambda, bkw_rhs0, bkw_values
from spans import Tracer, self_times, summarize


def _span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_of_nested_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 11.0, 0),   # overlaps b and runs past its parent
    ]
    # root is covered by [1, 4] and [5, 10] (c clipped to the parent)
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_summary_counts_and_ratios():
    spans = [
        _span("evolution.run", 0.0, 10.0, -1),
        _span("collision.rhs_bilinear", 1.0, 4.0, 0),
        _span("spectral.refine_array", 1.0, 2.0, 1),
        _span("spectral.refine_array", 2.0, 3.0, 1),
        _span("collision.rhs_bilinear", 5.0, 8.0, 0),
        _span("spectral.refine_array", 5.0, 6.0, 4),
        _span("spectral.refine_array", 6.5, 7.0, 4),
        _span("spectral.refine_array", 9.0, 9.5, 0),
    ]
    s = summarize(spans, since=0.0, steps=1)
    assert s["per_name"]["spectral.refine_array"]["calls"] == 5
    assert s["per_name"]["collision.rhs_bilinear"]["self_s"] == pytest.approx(2.5)
    assert s["per_name"]["evolution.run"]["self_s"] == pytest.approx(3.5)
    assert s["refine_per_rhs"] == 2.0
    assert s["rhs_per_step"] == 2.0
    # spans before `since` are left out of the per-name figures
    assert summarize(spans, since=5.0, steps=1)["per_name"]["spectral.refine_array"]["calls"] == 3


def test_tracer_wraps_every_namespace_and_restores():
    before = (kinb.collision.rhs_bilinear, kinb.evolution.rhs_bilinear,
              kinb.spectral.refine_array, kinb.run)
    tracer = Tracer("test")
    tracer.install()
    try:
        assert kinb.evolution.rhs_bilinear is kinb.collision.rhs_bilinear
        assert kinb.evolution.rhs_bilinear is not before[0]
        assert "collision.rhs_bilinear" in tracer.hooked
        grid = kinb.GridSpec(dimension=1, mode="full-1d", n=32, eta_max=4.0)
        st = kinb.init_state(grid, kinb.InitialDatum(kind="gaussian", dimension=1))
        quad = kinb.AngularQuadrature(theta_min=0.05, panels=2, nodes_per_panel=3)
        kinb.run(st, kinb.CrossSection(nu=0.25), quad, dt=1e-3, t_end=2e-3)
    finally:
        tracer.restore()
    assert (kinb.collision.rhs_bilinear, kinb.evolution.rhs_bilinear,
            kinb.spectral.refine_array, kinb.run) == before
    s = summarize(tracer.spans, since=0.0, steps=2)
    assert s["per_name"]["collision.rhs_bilinear"]["calls"] == 8
    assert s["rhs_per_step"] == 4.0
    assert s["refine_per_rhs"] == 2.0
    assert s["per_name"]["spectral.refine_array"]["bytes"] > 0


def test_missing_layer_function_is_absent_not_a_crash(monkeypatch):
    pkg = types.ModuleType("fakekinb")
    mod = types.ModuleType("fakekinb.collision")
    mod.__all__ = ["rhs", "gone"]   # "gone" no longer exists

    def rhs(x):
        return x

    rhs.__module__ = "fakekinb.collision"
    mod.rhs = rhs
    monkeypatch.setitem(sys.modules, "fakekinb", pkg)
    monkeypatch.setitem(sys.modules, "fakekinb.collision", mod)
    tracer = Tracer("test")
    tracer.install(package="fakekinb")
    try:
        assert mod.rhs(3) == 3
    finally:
        tracer.restore()
    assert tracer.hooked == ["collision.rhs"]
    rec = {"trace": summarize(tracer.spans, since=0.0, steps=0)}
    assert "collision.rhs_bilinear" in run._absent(rec)
    assert rec["trace"]["refine_per_rhs"] == 0.0


@pytest.mark.parametrize("grid, quad, c0, a0, floor", [
    # kac-line: the interpolation floor of the 4-point stencil
    (kinb.GridSpec(dimension=1, mode="full-1d", n=512, eta_max=32.0),
     kinb.AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5),
     2 * math.pi ** 2, -2 * math.pi ** 2, 2.5e-7),
    (kinb.GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0),
     kinb.AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5),
     0.5 * math.pi ** 2, -math.pi ** 2 / 3, 5e-8),
    (kinb.GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0),
     kinb.AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5),
     0.72 * math.pi ** 2, -0.72 * math.pi ** 2, 1e-6),
])
def test_bkw_rate_matches_the_operator(grid, quad, c0, a0, floor):
    cs = kinb.CrossSection(nu=0.25)
    lam = bkw_lambda(grid, cs, quad)
    vals = bkw_values(grid, 0.0, a0, c0, lam)
    q = kinb.rhs_bilinear(grid, cs, quad, vals, vals)
    assert np.abs(q - bkw_rhs0(grid, a0, c0, lam)).max() <= floor


def test_bkw_rejects_negative_densities():
    grid = kinb.GridSpec(dimension=3, mode="radial", n=32, eta_max=4.0)
    with pytest.raises(ValueError):
        bkw_values(grid, 0.0, -1.0, 1.0, 0.5)   # a0 < -2 c0 / 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    traced = {"traced": True, "trace": summarize([], since=0.0, steps=0),
              "raw_wall_s": 1.0, "wall_s": 1.0, "steps": 0}
    layers = run.per_layer([{"traced": False, "wall_s": 1.0}, traced])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, v["unit"]) for k, v in layers.items()]


def test_stopwatch_divides_by_the_damped_slowdown():
    class FakeKernel:
        times = iter([0.16, 0.16, 0.08])

        def run(self):
            return next(self.times)

    watch = calibrate.Stopwatch(FakeKernel(), sensitivity=0.7)
    assert watch.time("a", lambda: 7) == 7
    watch.time("b", lambda: None)
    (_, raw_a, ref_a), (_, raw_b, ref_b) = watch.sections
    assert ref_a == pytest.approx(raw_a / (0.16 / calibrate.REFERENCE_S) ** 0.7)
    # the second section saw the host speed up halfway: mean kernel 0.12
    assert ref_b == pytest.approx(raw_b / (0.12 / calibrate.REFERENCE_S) ** 0.7)
    assert watch.raw_s == pytest.approx(raw_a + raw_b)
    assert watch.ref_s == pytest.approx(ref_a + ref_b)
