"""The planar gather on two threads: every output equals the one-thread
path bit for bit, a failure on either thread reaches the caller, and a
process pinned to one CPU computes the same bytes."""

import math
import os
import pathlib
import subprocess
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import kinb
from kinb import (AngularQuadrature, CrossSection, GevreyWeight, GridSpec, InitialDatum,
                  commutation_error, init_state, interpolate_array, rhs_bilinear)
from kinb import spectral

# the planar-2d bench grid and rule (scripts/boltzmann_2d.ini)
_GRID = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
_QUAD = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5, azimuthal_nodes=8)
_CS = CrossSection(nu=0.25)
_MIXTURE = InitialDatum(kind="gaussian-mixture", dimension=2,
                        components=((0.5, (0.75, 0.0), 0.6), (0.5, (-0.75, 0.0), 0.6)))


@pytest.fixture
def both_paths(monkeypatch):
    """fn() on the one-thread gather, which must start no helper thread,
    then on the two-thread gather, which must start one at least; returns
    both results."""
    helpers = []

    class Helper(threading.Thread):
        def start(self):
            helpers.append(self)
            super().start()

    monkeypatch.setattr(spectral, "threading", SimpleNamespace(Thread=Helper))

    def run(fn):
        helpers.clear()
        monkeypatch.setattr(spectral, "_TWO_CORES", False)
        one = fn()
        assert not helpers, "a gather was split on the one-thread path"
        monkeypatch.setattr(spectral, "_TWO_CORES", True)
        two = fn()
        assert helpers, "no gather was split"
        return one, two
    return run


def _planar_rhs(g_is_h: bool) -> np.ndarray:
    f = init_state(_GRID, _MIXTURE).values
    g = f if g_is_h else init_state(
        _GRID, InitialDatum(kind="gaussian", dimension=2, sigma=0.5, center=(0.2, -0.1))).values
    return rhs_bilinear(_GRID, _CS, _QUAD, g, f)


@pytest.mark.parametrize("g_is_h", [True, False], ids=["g-is-h", "g-ne-h"])
def test_planar_rhs_is_the_same_on_both_paths(both_paths, g_is_h):
    one, two = both_paths(lambda: _planar_rhs(g_is_h))
    assert np.array_equal(one, two)


def test_interpolation_is_the_same_on_both_paths(both_paths, monkeypatch):
    # 20,000 points hold less than two blocks, so the blocks shrink on
    # both paths: the split then falls inside the points
    monkeypatch.setattr(spectral, "_GATHER_BLOCK", 2048)
    g = GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)
    values = init_state(g, _MIXTURE).values
    pts = np.random.default_rng(3).uniform(-1.1 * g.eta_max, 1.1 * g.eta_max, (20000, 2))
    one, two = both_paths(lambda: interpolate_array(g, values, pts))
    assert np.array_equal(one, two)


def test_commutators_are_the_same_on_both_paths(both_paths):
    # three 48^2 cases in the manner of the analysis workload: a kernel,
    # a datum and a weight each
    g = GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)
    quad = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4)
    lam = g.eta_max / math.sqrt(2)
    cases = [
        (InitialDatum(kind="gaussian-mixture", dimension=2,
                      components=((0.6, (0.2, 0.2), 0.4), (0.4, (-0.1, -0.1), 0.38))),
         CrossSection(nu=0.35), GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=lam)),
        (InitialDatum(kind="gaussian", dimension=2, sigma=0.42, center=(0.1, -0.25)),
         CrossSection(nu=0.6), GevreyWeight(alpha=0.7, beta=0.25, t=0.45, lam=lam)),
        (InitialDatum(kind="gaussian-mixture", dimension=2,
                      components=((0.3, (0.0, 0.3), 0.36), (0.5, (0.25, -0.2), 0.44),
                                  (0.2, (-0.3, 0.0), 0.4))),
         CrossSection(nu=0.27), GevreyWeight(alpha=0.35, beta=0.05, t=0.08, lam=lam)),
    ]
    for datum, cs, w in cases:
        st = init_state(g, datum)
        one, two = both_paths(lambda: commutation_error(st, w, cs, quad))
        assert np.array_equal([one.lhs, one.rhs_bound, one.i_term, one.i_plus_term],
                              [two.lhs, two.rhs_bound, two.i_term, two.i_plus_term])


def test_concurrent_callers_each_get_their_own_sums(monkeypatch):
    # four callers on two cores, switching threads every microsecond, each
    # gathering its own lattice with the one operator: a gather keeps its
    # state in the call, so each caller reads its own one-thread sums
    monkeypatch.setattr(spectral, "_TWO_CORES", True)
    g = GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)
    pts = np.random.default_rng(5).uniform(-g.eta_max, g.eta_max, (60000, 2))
    plan = spectral._InterpPlan(g, pts)
    fines = [spectral.refine_array(g, init_state(g, InitialDatum(
        kind="gaussian", dimension=2, sigma=0.3 + 0.05 * k)).values) for k in range(4)]
    got = [None] * 4

    def call(k):
        got[k] = plan.apply(fines[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    monkeypatch.setattr(spectral, "_TWO_CORES", False)
    for k in range(4):
        assert np.array_equal(got[k], plan.apply(fines[k]))


@pytest.mark.parametrize("failing", ["helper", "caller"])
def test_a_lattice_too_small_for_the_stencil_raises_in_the_caller(monkeypatch, capfd,
                                                                  failing):
    # two blocks of points far out in kx and two near kx = 0, on a lattice
    # cut to its first half of rows: the far points read rows past its
    # end. The helper thread sums the first half of the points, so the far
    # points come first to make it fail
    monkeypatch.setattr(spectral, "_TWO_CORES", True)
    monkeypatch.setattr(spectral, "_GATHER_BLOCK", 1024)
    g = GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)
    y = np.linspace(-1.0, 1.0, 2048)
    far, near = np.full(2048, 0.9 * g.eta_max), np.full(2048, 0.05 * g.eta_max)
    x = np.concatenate([far, near] if failing == "helper" else [near, far])
    stencil = spectral._planar_stencil(g, x, np.concatenate([y, y]))
    fine = spectral.refine_array(g, init_state(g, _MIXTURE).values)
    running = threading.active_count()
    with pytest.raises(IndexError):
        spectral._planar_gather(*stencil, fine[:fine.shape[0] // 2])
    assert threading.active_count() == running   # the helper has stopped
    assert capfd.readouterr().err == ""
    # the whole lattice serves the same stencil
    assert np.all(np.isfinite(spectral._planar_gather(*stencil, fine)))


_CHILD = """
import os, sys
os.sched_setaffinity(0, {{{cpu}}})
import numpy as np
from kinb import (AngularQuadrature, CrossSection, GridSpec, InitialDatum,
                  init_state, rhs_bilinear, spectral)
assert not spectral._TWO_CORES
grid = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
quad = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5, azimuthal_nodes=8)
datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                     components=((0.5, (0.75, 0.0), 0.6), (0.5, (-0.75, 0.0), 0.6)))
f = init_state(grid, datum).values
sys.stdout.buffer.write(rhs_bilinear(grid, CrossSection(nu=0.25), quad, f, f).tobytes())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is not supported on this platform")
def test_a_process_pinned_to_one_cpu_computes_the_same_bytes(both_paths):
    # the child pins only itself, before kinb reads its CPU set, so it
    # takes the one-thread path; this process takes the two-thread one
    _, two = both_paths(lambda: _planar_rhs(True))
    src = str(pathlib.Path(kinb.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cpu = min(os.sched_getaffinity(0))
    child = subprocess.run([sys.executable, "-c", _CHILD.format(cpu=cpu)],
                           capture_output=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout == two.tobytes()
