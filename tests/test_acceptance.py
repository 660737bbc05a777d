"""End-to-end acceptance checks, one per numbered criterion.

Run with -v to get one pass/fail line per criterion.  The slowest entries
are the two full simulations (criterion 3 runs a 64x64 planar grid for
125 steps; criterion 9 drives the induction chain on a 1023-node line).
"""

import math
import time

import numpy as np
import pytest

from kinb import (
    AngularQuadrature,
    CrossSection,
    GevreyWeight,
    GridSpec,
    InitialDatum,
    alpha_md,
    build_induction_schedule,
    check_hypotheses,
    commutation_error,
    embedding_constant,
    fit_gevrey_order,
    fractional_heat_evolve,
    hinf_weighted_norm,
    init_state,
    negative_sobolev_norm,
    run,
    run_suite,
    state_with_values,
    to_physical,
)
from kinb.cli import _write_induction_csv
from kinb.collision import _evaluator


# ---------------------------------------------------------------------------
# shared reference run: Kac line, laplace datum, nu = 1/4, T0 = 1
# ---------------------------------------------------------------------------

REF_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def _reference_run(n):
    g = GridSpec(dimension=1, mode="full-1d", n=n, eta_max=32.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5)
    traj = run(st, cs, quad, dt=2e-3, t_end=1.0, snapshot_times=REF_TIMES,
               monitor_every=25)
    return traj, cs


@pytest.fixture(scope="module")
def reference_run():
    return _reference_run(512)


@pytest.fixture(scope="module")
def reference_run_fine():
    # resolution twin: halving h keeps the dual velocity box ahead of the
    # slowly decaying laplace tail, so the amplified high-frequency weight
    # sees resolved data on both grids
    return _reference_run(1024)


# ---------------------------------------------------------------------------


def test_criterion_01_alpha_constants():
    frozen = {(2, 1): 0.847997, (2, 2): 0.736966, (2, 3): 0.652077,
              (2, 6): 0.485427}
    for (m, n), want in frozen.items():
        assert abs(alpha_md(m, n) - want) <= 1e-6


def test_criterion_02_maxwellian_fixed_point():
    t0 = time.time()
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-4, panels=12, nodes_per_panel=6)
    traj = run(st, cs, quad, dt=1e-3, t_end=1.0, monitor_every=50)
    drift = np.abs(traj.final.values - st.values).max()
    mass_drift = max(abs(r.mass - st.mass) for r in traj.rows)
    elapsed = time.time() - t0
    assert drift <= 1e-5
    assert mass_drift <= 1e-10
    assert elapsed < 120.0


def test_criterion_03_conservation_and_entropy_decay():
    t0 = time.time()
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.5, (0.75, 0.0), 0.6),
                                     (0.5, (-0.75, 0.0), 0.6)))
    st = init_state(g, datum)
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5,
                             azimuthal_nodes=8)
    traj = run(st, cs, quad, dt=4e-3, t_end=0.5,
               snapshot_times=(0.0, 0.04, 0.1, 0.2, 0.5))
    energy = traj.column("energy")
    assert np.abs(energy - energy[0]).max() <= 1e-4 * energy[0]
    H = traj.column("entropy")
    tol = 1e-3 * abs(H[0])
    assert np.all(np.diff(H) <= tol)
    assert H[-1] <= H[0] + tol
    # the traceless pressure A = P_xx - P_yy of centred data relaxes as
    # A(0) exp(-m0 S t) exactly for the discrete operator, with S the sum
    # over +-theta of w b sin^2(theta) on its own nodes, and P_xy stays 0.
    # Measured: A(0) = 0.5625 to 8.6e-13; defects -5.3e-7, -1.2e-6, -2.0e-6
    # and -2.8e-6 of A(0) at t = 0.04, 0.1, 0.2 and 0.5, beside an energy
    # drift of 7.8e-6 by t = 0.5; |P_xy| <= 7.0e-10
    ev = _evaluator(g, cs, quad)
    S = float(np.sum(ev.weights * np.sin(ev.theta) ** 2))
    tensors = []
    for t, s in traj.snapshots:
        v, f, dv = to_physical(s)
        vx, vy = v[:, None], v[None, :]
        tensors.append((t, *(float(np.sum(f * p)) * dv ** 2
                             for p in (vx * vx - vy * vy, vx * vy))))
    a0 = tensors[0][1]
    assert abs(a0 - 0.5625) <= 1e-11
    for t, a, pxy in tensors:
        assert abs(a - a0 * math.exp(-st.mass * S * t)) <= 5e-6 * a0
        assert abs(pxy) <= 2e-9
    assert time.time() - t0 < 600.0


def test_criterion_04_fitter_calibration():
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    base = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    flat = state_with_values(base, np.ones(g.shape, dtype=complex))
    for nu in (0.25, 0.5, 0.75):
        rep = fit_gevrey_order(fractional_heat_evolve(flat, nu, 0.3))
        assert abs(rep.alpha_hat - nu) <= 0.01 * nu
        want_b = 0.3 * (2 * math.pi) ** (2 * nu)
        assert abs(rep.beta_t_hat - want_b) <= 0.05 * want_b


def test_criterion_05_gevrey_smoothing_observed():
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.5, kappa=1.0)
    quad = AngularQuadrature(theta_min=2.5e-3, panels=10, nodes_per_panel=5)
    traj = run(st, cs, quad, dt=5e-4, t_end=0.5, snapshot_times=(0.05, 0.5),
               monitor_every=100)
    # the decaying envelope sits above the window-aliasing floor only for
    # |eta| below ~2 at these parameters: the density is not small at the
    # edge of the physical window (half-width 8), so |fhat| flattens like
    # |eta|^-2 beyond. Raising the refinement factor from 8 to 32 moves
    # |fhat(4)| = 6.04e-7 by 9e-6 of itself; doubling n to 512 brings it to
    # 2.8e-12. The fit window tracks that transition
    window = (0.5, 1.5)
    fits = {t: fit_gevrey_order(s, fit_window=window) for t, s in traj.snapshots}
    a_early, a_late = fits[0.05].alpha_hat, fits[0.5].alpha_hat
    assert 0.375 <= a_late <= 0.625
    assert a_late > a_early


def test_criterion_06_commutator_sandwich():
    rng = np.random.default_rng(2024)
    cs_pool = [CrossSection(nu=float(nu), kappa=1.0)
               for nu in rng.uniform(0.25, 0.75, size=20)]
    quad1 = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4)
    quad2 = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4,
                              azimuthal_nodes=8)

    def mixture(dim):
        k = int(rng.integers(1, 4))
        comps = []
        for _ in range(k):
            w = float(rng.uniform(0.2, 1.0))
            c = tuple(float(x) for x in rng.uniform(-0.3, 0.3, size=dim))
            s = float(rng.uniform(0.35, 0.45))
            comps.append((w, c, s))
        return InitialDatum(kind="gaussian-mixture", dimension=dim,
                            components=tuple(comps))

    grids = ([GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)] * 14
             + [GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)] * 3
             + [GridSpec(dimension=2, mode="radial", n=128, eta_max=6.0)] * 2
             + [GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0)])
    passed = 0
    for g, cs in zip(grids, cs_pool):
        if g.mode == "radial":
            datum = InitialDatum(kind="gaussian", dimension=g.dimension,
                                 sigma=float(rng.uniform(0.35, 0.45)))
        else:
            datum = mixture(g.dimension)
        st = init_state(g, datum)
        quad = quad1 if g.dimension == 1 else quad2
        lam = g.eta_max / math.sqrt(2)
        alpha = float(rng.uniform(0.3, min(0.95, cs.nu + 0.2)))
        beta = float(rng.uniform(0.05, 0.3))
        t = float(rng.uniform(0.05, 0.5))
        rep = commutation_error(st, GevreyWeight(alpha=alpha, beta=beta,
                                                 t=t, lam=lam), cs, quad)
        assert rep.sandwich_ok, (g.mode, g.dimension, cs.nu, alpha, beta, t)
        passed += 1
        # linear vanishing as t -> 0
        l_t = commutation_error(st, GevreyWeight(alpha=alpha, beta=beta,
                                                 t=0.1, lam=lam), cs, quad).lhs
        l_h = commutation_error(st, GevreyWeight(alpha=alpha, beta=beta,
                                                 t=0.05, lam=lam), cs, quad).lhs
        assert abs(2.0 * l_h - l_t) <= 0.05 * abs(l_t)
    assert passed == 20


def test_criterion_07_geometry_suite():
    res = run_suite("geometry", seed=0, n=1000)
    assert res.ok, res.message
    assert res.checked >= 1000


def test_criterion_08_inequality_suites():
    sizes = {"epsilon": 10000, "expdiff": 10000, "kl": 1000, "ddlemma": 50}
    for seed in (0, 1, 2):
        for name, n in sizes.items():
            res = run_suite(name, seed=seed, n=n)
            assert res.ok, (name, seed, res.counterexample, res.message)


def test_criterion_09_induction_chain(reference_run, tmp_path):
    traj, cs = reference_run
    states = [s for _, s in traj.snapshots]
    sched = build_induction_schedule(states, part="I", m=2, alpha=0.25,
                                     T0=1.0, cs=cs)
    # rate comes from the recommendation formula at the final bound
    assert sched.beta == sched.beta_formula
    assert sched.M >= max(2.0 * sched.A_m + 1.0, sched.K_empirical) - 1e-12
    cap = 32.0 / math.sqrt(2)
    assert all(lam <= cap * (1 + 1e-12) for lam in sched.scales)
    assert len(sched.scales) >= 3
    rows = check_hypotheses(traj, sched, n_random=64, seed=0)
    assert len(rows) == len(sched.scales) * len(REF_TIMES)
    for r in rows:
        assert r.hyp1 <= sched.M * (1 + 1e-9), (r.scale, r.t, r.hyp1)
    _write_induction_csv(rows, sched, str(tmp_path / "induction.csv"))
    text = (tmp_path / "induction.csv").read_text().splitlines()
    assert text[0].startswith("t,scale,hyp1")
    assert len(text) == 1 + len(rows)


def test_criterion_10_mass_embedding_and_multiplier_norm(
        reference_run, reference_run_fine):
    catalog = [
        (GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0),
         InitialDatum(kind="gaussian", dimension=1, sigma=1.0, mass=1.2)),
        (GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0),
         InitialDatum(kind="laplace", dimension=1, a=1.0, mass=0.8)),
        (GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0),
         InitialDatum(kind="gaussian-mixture", dimension=1,
                      components=((0.5, (0.4,), 0.5), (0.7, (-0.2,), 0.8)))),
        (GridSpec(dimension=2, mode="radial", n=128, eta_max=8.0),
         InitialDatum(kind="gaussian", dimension=2, sigma=0.8)),
        (GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0),
         InitialDatum(kind="gaussian-mixture", dimension=2,
                      components=((0.6, (0.2, -0.1), 0.45),
                                  (0.4, (-0.2, 0.1), 0.4)))),
        (GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0),
         InitialDatum(kind="laplace", dimension=3, a=1.0)),
    ]
    for g, datum in catalog:
        st = init_state(g, datum)
        d = g.dimension
        assert negative_sobolev_norm(st, d) <= embedding_constant(d) * st.mass

    # polynomial-multiplier norm along the reference run, two resolutions;
    # beta t - d <= 4 holds with beta = 5 up to t = 1 in d = 1
    base, _ = reference_run
    fine, _ = reference_run_fine
    for (t1, s1), (t2, s2) in zip(base.snapshots, fine.snapshots):
        assert t1 == t2
        v1 = hinf_weighted_norm(s1, beta=5.0)
        v2 = hinf_weighted_norm(s2, beta=5.0)
        assert np.isfinite(v1) and np.isfinite(v2)
        assert abs(v1 - v2) <= 0.05 * v1
