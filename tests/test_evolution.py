"""Time integrator tests: order, conservation, entropy decay, bookkeeping."""

from dataclasses import replace

import numpy as np
import pytest

from kinb import (
    AngularQuadrature,
    ConfigError,
    CrossSection,
    GridSpec,
    InitialDatum,
    NumericalFailure,
    RunConfig,
    SpectralState,
    entropy,
    init_state,
    moments,
    run,
    simulate,
)
from kinb.evolution import _rk4_step
from kinb.spectral import _hermitize

CS = CrossSection(nu=0.25, kappa=1.0)
QUAD = AngularQuadrature(theta_min=0.05, panels=8, nodes_per_panel=6)


def _kac_state(n=129, eta_max=12.0, kind="laplace"):
    g = GridSpec(dimension=1, mode="full-1d", n=n, eta_max=eta_max)
    return init_state(g, InitialDatum(kind=kind, dimension=1, a=1.0, sigma=1.0))


def test_local_error_is_fifth_order():
    # Richardson: one step of dt vs two of dt/2 differ by O(dt^5) for RK4
    st = _kac_state()

    def local_err(dt):
        one = run(st, CS, QUAD, dt=dt, t_end=dt).final
        half = run(st, CS, QUAD, dt=dt / 2, t_end=dt).final
        return np.abs(one.values - half.values).max()

    rate = np.log2(local_err(0.02) / local_err(0.01))
    assert 4.5 < rate < 5.5


def test_step_halving_agreement():
    st = _kac_state()
    r1 = run(st, CS, QUAD, dt=0.02, t_end=0.04)
    r2 = run(st, CS, QUAD, dt=0.01, t_end=0.04)
    assert np.abs(r1.final.values - r2.final.values).max() < 1e-7
    assert r1.final.t == r2.final.t == 0.04


def test_mass_energy_supremum_invariants():
    st = _kac_state(n=257, eta_max=16.0)
    quad = AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5)
    traj = run(st, CS, quad, dt=2e-3, t_end=0.05)
    m0 = traj.rows[0].mass
    e0 = traj.rows[0].energy
    assert all(abs(r.mass - m0) <= 1e-12 * m0 for r in traj.rows)
    assert all(abs(r.energy - e0) <= 1e-4 * e0 for r in traj.rows)
    # |fhat| <= fhat(0) along the whole run
    assert all(r.sup_ratio <= 1.0 + 1e-8 for r in traj.rows)


def test_entropy_decays():
    st = _kac_state(n=257, eta_max=16.0)
    quad = AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5)
    traj = run(st, CS, quad, dt=2e-3, t_end=0.05)
    H = traj.column("entropy")
    assert np.all(np.diff(H) <= 1e-12)
    assert H[-1] < H[0]


def test_fourth_moment_decay_rate():
    # laplace datum, d = 1: m4' = J (6 m2^2 - 2 m4) with
    # J = 2 int_0^{pi/4} sin^2 cos^2 theta^{-3/2}; reference value below
    # comes from adaptive quadrature with m0 = 1, m2 = 2, m4 = 24
    g = GridSpec(dimension=1, mode="full-1d", n=512, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    quad = AngularQuadrature(theta_min=1e-4, panels=12, nodes_per_panel=6)
    h = 5e-4
    s2 = run(st, CS, quad, dt=h, t_end=2 * h).final
    m_before = moments(st, 4)
    m_after = moments(s2, 4)
    assert abs(m_before[4] - 24.0) < 0.02
    rate = (m_after[4] - m_before[4]) / (2 * h)
    assert abs(rate - (-1.587081052571e+01)) < 0.02 * 1.587081052571e+01


def test_stability_guard():
    st = _kac_state()
    with pytest.raises(NumericalFailure):
        run(st, CS, QUAD, dt=10.0, t_end=20.0)
    # a mild overrun is refused too: the guard has no opt-out
    lim = run(st, CS, QUAD, dt=1e-3, t_end=1e-3).dt_limit
    with pytest.raises(NumericalFailure, match="exceeds the stability limit"):
        run(st, CS, QUAD, dt=1.2 * lim, t_end=4.8 * lim)


def test_continued_run_matches_one_run():
    # the convention segmented runs rely on: a run continued from another's
    # final state restarts its clock at 0, ends at its own t_end, and steps
    # the values exactly as one run over both segments does
    st = _kac_state()
    dt, k = 1e-3, 3
    whole = run(st, CS, QUAD, dt=dt, t_end=2 * k * dt)
    first = run(st, CS, QUAD, dt=dt, t_end=k * dt)
    second = run(first.final, CS, QUAD, dt=dt, t_end=k * dt)
    assert np.array_equal(second.final.values, whole.final.values)
    assert second.rows[0].t == 0.0
    assert second.final.t == second.rows[-1].t == k * dt
    assert [replace(r, t=0.0) for r in second.rows] == \
        [replace(r, t=0.0) for r in whole.rows[k:]]


def test_continued_run_snapshots_carry_their_own_clock():
    st = _kac_state()
    dt, k = 1e-3, 3
    first = run(st, CS, QUAD, dt=dt, t_end=k * dt)
    second = run(first.final, CS, QUAD, dt=dt, t_end=k * dt,
                 snapshot_times=(0.0, k * dt))
    assert [t for t, _ in second.snapshots] == [0.0, k * dt]
    for t, s in second.snapshots:
        assert s.t == t
    assert np.array_equal(second.snapshots[0][1].values, first.final.values)


def test_run_validation():
    st = _kac_state()
    with pytest.raises(ConfigError):
        run(st, CS, QUAD, dt=-0.01, t_end=1.0)
    with pytest.raises(ConfigError):
        run(st, CS, QUAD, dt=0.01, t_end=0.0)
    with pytest.raises(ConfigError):
        run(st, CS, QUAD, dt=0.01, t_end=0.1, monitor_every=0)
    with pytest.raises(ConfigError):
        run(st, CS, QUAD, dt=0.01, t_end=0.1, snapshot_times=(0.2,))
    for dt, t_end in ((np.nan, 0.1), (0.01, np.nan), (0.01, np.inf), (np.inf, 0.1)):
        with pytest.raises(ConfigError, match="finite"):
            run(st, CS, QUAD, dt=dt, t_end=t_end)


@pytest.mark.parametrize("ts", [np.nan, np.inf, -np.inf])
def test_run_refuses_non_finite_snapshot_times(ts):
    # nan fails both bounds of a `ts < lo or ts > hi` test and reached
    # int(round(nan)) as a bare ValueError
    with pytest.raises(ConfigError, match="outside"):
        run(_kac_state(), CS, QUAD, dt=0.01, t_end=0.1, snapshot_times=(ts,))


def test_non_finite_sizes_are_config_errors():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    datum = InitialDatum(kind="laplace", dimension=1, a=1.0)
    for dt, t_end in ((np.nan, 1.0), (0.01, np.nan), (0.01, np.inf), (np.inf, 1.0)):
        with pytest.raises(ConfigError, match="finite"):
            RunConfig(grid=g, cross_section=CS, quadrature=QUAD, datum=datum,
                      dt=dt, t_end=t_end)
    for eta_max in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="eta_max"):
            GridSpec(dimension=1, mode="full-1d", n=129, eta_max=eta_max)
    for kappa in (np.inf, np.nan):
        with pytest.raises(ConfigError, match="kappa"):
            CrossSection(nu=0.25, kappa=kappa)


def test_snapshot_bookkeeping():
    st = _kac_state()
    traj = run(st, CS, QUAD, dt=0.002, t_end=0.05,
               snapshot_times=(0.0, 0.025, 0.05))
    times = [t for t, _ in traj.snapshots]
    # 0.025 is not a step boundary; it rounds to the nearest one
    assert times == [0.0, 0.024, 0.05]
    for t, s in traj.snapshots:
        assert s.t == t
    assert traj.snapshots[0][1] is st
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 0.05
    # two times that round to one step are refused, not merged
    with pytest.raises(ConfigError, match="0.024 and 0.0245 both fall on step 12"):
        run(st, CS, QUAD, dt=0.002, t_end=0.05, snapshot_times=(0.024, 0.0245))
    cfg = RunConfig(grid=st.grid, cross_section=CS, quadrature=QUAD,
                    datum=InitialDatum(kind="laplace", dimension=1, a=1.0),
                    dt=1e-2, t_end=2e-2, snapshots=5)
    assert len(cfg.snapshot_times()) == 5
    with pytest.raises(ConfigError, match="0 and 0.005 both fall on step 0"):
        simulate(cfg)


def test_snapshot_at_t_end_when_dt_does_not_divide_it():
    # boundaries are 0, 3e-3, 6e-3, 9e-3 and t_end = 1e-2 (a short last
    # step); 1e-2 is nearest to t_end, 5e-3 to 6e-3
    st = _kac_state()
    traj = run(st, CS, QUAD, dt=3e-3, t_end=1e-2, snapshot_times=(0.0, 5e-3, 1e-2))
    assert [t for t, _ in traj.snapshots] == [0.0, 6e-3, 1e-2]
    assert traj.snapshots[-1][1] is traj.final
    assert traj.final.t == traj.rows[-1].t == 1e-2
    # a time nearer to the last full step than to t_end stays there
    traj = run(st, CS, QUAD, dt=3e-3, t_end=1e-2, snapshot_times=(9.4e-3,))
    assert [t for t, _ in traj.snapshots] == [3 * 3e-3]


def test_monitor_every_thins_rows():
    st = _kac_state()
    t1 = run(st, CS, QUAD, dt=0.01, t_end=0.05)
    t5 = run(st, CS, QUAD, dt=0.01, t_end=0.05, monitor_every=5)
    assert len(t1.rows) == 6
    assert len(t5.rows) == 2  # t = 0 and the final row
    assert t5.rows[-1].t == 0.05


def test_last_step_carries_t_end():
    # the ninth step boundary k * dt rounds to 0.009000000000000001, not t_end
    assert 9 * 1e-3 != 9e-3
    st = _kac_state()
    traj = run(st, CS, QUAD, dt=1e-3, t_end=9e-3, snapshot_times=(9e-3,))
    assert traj.rows[-1].t == traj.final.t == 9e-3
    assert traj.snapshots[-1][0] == traj.snapshots[-1][1].t == 9e-3
    assert traj.snapshots[-1][1] is traj.final
    stepped = st
    for _ in range(9):
        stepped = run(stepped, CS, QUAD, dt=1e-3, t_end=1e-3).final
    assert np.array_equal(traj.final.values, stepped.values)
    # a t_end below the remainder threshold still takes its one step
    traj = run(st, CS, QUAD, dt=1e-3, t_end=5e-13, snapshot_times=(5e-13,))
    assert [r.t for r in traj.rows] == [0.0, 5e-13]
    assert traj.final.t == 5e-13
    assert traj.snapshots == [(5e-13, traj.final)]


def test_radial_runs_skip_entropy():
    g = GridSpec(dimension=2, mode="radial", n=96, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.6))
    quad = AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5,
                             azimuthal_nodes=8)
    traj = run(st, CS, quad, dt=5e-3, t_end=0.02)
    with pytest.raises(ValueError):
        traj.column("entropy")
    assert np.isclose(traj.column("mass")[-1], st.mass, rtol=1e-12)


def _bkw_kac_state():
    # the BKW-type solution (1 + a x) exp(-c x), x = eta^2, at a = -c
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    x = g.abs_nodes() ** 2
    c = 2.0 * np.pi ** 2
    return SpectralState(grid=g, t=0.0, values=(1.0 - c * x) * np.exp(-c * x))


@pytest.mark.parametrize("make", [
    _bkw_kac_state,
    lambda: init_state(GridSpec(dimension=3, mode="radial", n=64, eta_max=8.0),
                       InitialDatum(kind="laplace", dimension=3, a=1.0)),
    lambda: init_state(GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0),
                       InitialDatum(kind="gaussian-mixture", dimension=2,
                                    components=((0.6, (0.4, -0.2), 0.3),
                                                (0.4, (-0.3, 0.5), 0.35)))),
], ids=["full-1d-bkw", "radial-laplace", "full-2d-mixture"])
def test_rk4_step_stays_exactly_hermitian(make):
    # real multiples and sums of exactly Hermitian arrays, 0 on the unpaired
    # nodes, stay so bit for bit: the step needs no projection
    st = make()
    out = _rk4_step(st.grid, CS, QUAD, st.values, 1e-3)
    assert out.tobytes() == _hermitize(st.grid, out).tobytes()


def test_full2d_keeps_unpaired_edge_empty():
    # the -eta_max row/column of the even lattice has no conjugate partner;
    # the stepper must keep it at zero or the density turns complex
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0)
    datum = InitialDatum(kind="gaussian", dimension=2, sigma=0.5, center=(0.2, 0.0))
    st = init_state(g, datum)
    quad = AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5,
                             azimuthal_nodes=8)
    traj = run(st, CS, quad, dt=5e-3, t_end=0.02)
    assert np.all(traj.final.values[0, :] == 0.0)
    assert np.all(traj.final.values[:, 0] == 0.0)
    H = traj.column("entropy")
    assert H[-1] <= H[0] + 1e-10


def test_entropy_closed_form():
    # gaussian: H = m (log m - log(2 pi sigma^2)^{d/2} - d/2) with m = 1
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    want = -0.5 * (1.0 + np.log(2 * np.pi))
    assert abs(entropy(st) - want) < 1e-10
    sl = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    # exact value -(1 + log 2); the density kink at v = 0 costs ~1e-3
    assert abs(entropy(sl) - (-1.0 - np.log(2.0))) < 5e-3


def test_runconfig_and_simulate():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    datum = InitialDatum(kind="laplace", dimension=1, a=1.0)
    with pytest.raises(ConfigError):
        RunConfig(grid=g, cross_section=CS, quadrature=QUAD, datum=datum,
                  dt=0.0, t_end=1.0)
    with pytest.raises(ConfigError):
        RunConfig(grid=g, cross_section=CS, quadrature=QUAD,
                  datum=InitialDatum(kind="laplace", dimension=2, a=1.0),
                  dt=0.01, t_end=1.0)
    cfg = RunConfig(grid=g, cross_section=CS, quadrature=QUAD, datum=datum,
                    dt=0.01, t_end=0.03, snapshots=4)
    # k snapshots evenly spaced on [0, t_end], both ends included
    assert cfg.snapshot_times() == (0.0, 0.01, 0.02, 0.03)
    assert replace(cfg, snapshots=1).snapshot_times() == (0.03,)
    assert replace(cfg, snapshots=0).snapshot_times() == ()
    traj = simulate(cfg)
    assert [t for t, _ in traj.snapshots] == [0.0, 0.01, 0.02, 0.03]
    # the first snapshot is the initial datum itself
    assert np.array_equal(traj.snapshots[0][1].values, init_state(g, datum).values)
    assert traj.final.t == 0.03
