"""Grid geometry, state guards, catalog data, interpolation, moments."""
import math

import numpy as np
import pytest

from kinb import spectral
from kinb.errors import ConfigError, NumericalFailure
from kinb.spectral import (GridSpec, InitialDatum, SpectralState, init_state,
                           interpolate_array, moments, refine_array,
                           state_with_values, to_physical)

# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_grid_full1d_layout():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    nodes = g.axis_nodes()
    assert g.shape == (129,)
    assert abs(g.spacing - 8.0 / 64.0) < 1e-15
    assert nodes[g.zero_index] == 0.0
    assert abs(nodes[0] + 8.0) < 1e-12 and abs(nodes[-1] - 8.0) < 1e-12


def test_grid_radial_layout():
    g = GridSpec(dimension=3, mode="radial", n=96, eta_max=12.0)
    r = g.abs_nodes()
    assert r.shape == (96,)
    assert r[0] == 0.0 and abs(r[-1] - 12.0) < 1e-12
    # trapezoid weights integrate r^2 over the ball boundary measure
    cells = g.cell_weights()
    got = float(np.sum(cells))
    want = 4.0 * math.pi * 12.0 ** 3 / 3.0
    assert abs(got - want) < 1e-2 * want


def test_grid_full2d_layout():
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    ax = g.axis_nodes()
    assert g.shape == (64, 64)
    assert abs(g.spacing - 4.0 / 64.0) < 1e-15
    assert ax[g.zero_index[0]] == 0.0
    assert abs(ax[0] + 2.0) < 1e-12  # the unpaired -eta_max edge


def test_grid_validation():
    with pytest.raises(ConfigError):
        GridSpec(dimension=2, mode="full-1d", n=64, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="radial", n=64, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="full-1d", n=3, eta_max=8.0)
    with pytest.raises(ConfigError):
        GridSpec(dimension=1, mode="full-1d", n=64, eta_max=-1.0)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_state_guards():
    g = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    vals = np.ones(g.shape, dtype=complex)
    st = SpectralState(grid=g, t=0.0, values=vals)
    assert st.mass == 1.0
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=0.0, values=np.ones(7, dtype=complex))
    bad = vals.copy()
    bad[g.zero_index] = 1.0 + 0.5j  # mass must be real
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=0.0, values=bad)
    with pytest.raises(ConfigError):
        SpectralState(grid=g, t=-1.0, values=vals)


def test_state_with_values_keeps_grid():
    g = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    st2 = state_with_values(st, st.values * 0.5, t=0.25)
    assert st2.t == 0.25 and st2.grid is g
    assert abs(st2.mass - 0.5) < 1e-12


# ---------------------------------------------------------------------------
# catalog data
# ---------------------------------------------------------------------------


def test_laplace_hat_frozen_oracles():
    # direct numeric transform of the heavy-tailed density, frozen
    for d, want in ((1, 5.936113595207627e-02), (2, 1.022676571650874e-02),
                    (3, 1.761872230760441e-03)):
        datum = InitialDatum(kind="laplace", dimension=d, a=1.3, mass=2.0)
        got = float(datum.hat(np.array([0.7]))[0])
        assert abs(got - want) < 1e-12, (d, got, want)


def test_laplace_moment2_closed_form():
    for d in (1, 2, 3):
        datum = InitialDatum(kind="laplace", dimension=d, a=0.8, mass=1.5)
        assert abs(datum.moment2() - 1.5 * 0.64 * d * (d + 1)) < 1e-12


def test_gaussian_mixture_mass_and_moment2():
    comps = ((0.4, (0.5,), 0.7), (0.6, (-1.0,), 1.2))
    datum = InitialDatum(kind="gaussian-mixture", dimension=1, components=comps)
    assert abs(datum.total_mass - 1.0) < 1e-15
    want = 0.4 * (0.49 + 0.25) + 0.6 * (1.44 + 1.0)
    assert abs(datum.moment2() - want) < 1e-12
    assert abs(complex(datum.hat(np.array([0.0]))[0]) - 1.0) < 1e-15


def test_grid_moments_match_datum():
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=1,
                         components=((0.5, (0.6,), 0.9), (0.5, (-0.6,), 0.9)))
    st = init_state(g, datum)
    m = moments(st, order=2)
    assert abs(m[0] - 1.0) < 1e-12
    assert abs(m[2] - datum.moment2()) < 1e-7


def test_radial_requires_symmetry():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    datum = InitialDatum(kind="gaussian", dimension=2, center=(0.5, 0.0))
    with pytest.raises(ConfigError):
        init_state(g, datum)


def test_datum_validation():
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=1, sigma=-1.0)
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=4)
    with pytest.raises(ConfigError):
        InitialDatum(kind="laplace", dimension=1, a=0.0)
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian-mixture", dimension=1, components=())
    with pytest.raises(ConfigError):
        InitialDatum(kind="gaussian", dimension=2, center=(1.0,))


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_interpolation_accuracy_1d():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=8.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=0.8)
    st = init_state(g, datum)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-6.0, 6.0, size=200)
    got = interpolate_array(g, st.values, pts)
    want = datum.hat(pts)
    assert np.max(np.abs(got - want)) < 1e-6


def test_interpolation_accuracy_2d():
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((1.0, (0.2, -0.1), 0.5),))
    st = init_state(g, datum)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-3.0, 3.0, size=(200, 2))
    got = interpolate_array(g, st.values, pts)
    want = datum.hat(pts)
    assert np.max(np.abs(got - want)) < 1e-5


def test_interpolation_outside_cutoff_is_zero():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    got = interpolate_array(g, st.values, np.array([9.0, -11.0]))
    assert np.all(got == 0.0)


def test_interpolation_exact_at_grid_nodes():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    got = interpolate_array(g, st.values, g.axis_nodes())
    np.testing.assert_allclose(got, st.values, atol=1e-9)


_REFINE_CASES = {
    "full-1d": (GridSpec(dimension=1, mode="full-1d", n=48, eta_max=6.0),
                InitialDatum(kind="gaussian-mixture", dimension=1,
                             components=((0.6, (0.7,), 0.35), (0.4, (-0.4,), 0.5)))),
    "radial-2": (GridSpec(dimension=2, mode="radial", n=48, eta_max=6.0),
                 InitialDatum(kind="gaussian-mixture", dimension=2,
                              components=((0.5, (), 0.3), (0.5, (), 0.6)))),
    "radial-3": (GridSpec(dimension=3, mode="radial", n=48, eta_max=6.0),
                 InitialDatum(kind="laplace", dimension=3, a=0.5)),
}


@pytest.mark.parametrize("case", sorted(_REFINE_CASES))
def test_refine_array_matches_direct_trigonometric_sum(case):
    # the refinement is the trigonometric polynomial sum_j c_j e^{-2 pi i v_j eta}
    # through the 2n - 1 nodes k h (radial: the even extension), read at
    # eta = (i - 1) h/U on the eta >= 0 half-axis; both the coefficients and
    # the sum are evaluated directly here, without an FFT
    grid, datum = _REFINE_CASES[case]
    values = init_state(grid, datum).values
    n, h = grid.n, grid.spacing
    full = values if grid.mode == "full-1d" else np.concatenate([values[:0:-1], values])
    M = 2 * n - 1
    k = np.arange(-(n - 1), n)
    v = k / (M * h)
    c = np.exp(2j * np.pi * np.outer(v, k * h)) @ full / M
    fine = refine_array(grid, values)
    U = spectral._UPSAMPLE[grid.mode]
    assert fine.shape == (U * M // 2 + 2,)
    assert fine.dtype == (complex if grid.mode == "full-1d" else float)
    rng = np.random.default_rng(7)
    idx = np.concatenate([[0, 1, 2, fine.size - 1],
                          rng.choice(fine.size, size=196, replace=False)])
    eta = (idx - 1) * h / U
    want = np.exp(-2j * np.pi * np.outer(eta, v)) @ c
    assert np.abs(fine[idx] - want).max() < 1e-13 * values[grid.zero_index].real
    if grid.mode == "full-1d":
        pts = rng.uniform(0.0, grid.eta_max, size=100)
        np.testing.assert_array_equal(interpolate_array(grid, values, -pts),
                                      np.conj(interpolate_array(grid, values, pts)))


def test_planar_plan_matches_direct_16_tap_sum():
    # the planar plan keeps only in-disk points, sorted by refined row; its
    # sums must equal, bit for bit and in the caller's order, the 16-tap sum
    # over all points (y-taps first, then x-taps) with beyond-disk points 0
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=3.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.6, (0.4, -0.3), 0.5), (0.4, (-0.6, 0.2), 0.7)))
    fine = refine_array(g, init_state(g, datum).values)
    x0, hf, cnt = spectral._fine_axis(g)
    e = g.eta_max
    rng = np.random.default_rng(11)
    edge = np.array([[e, 0.0], [-e, 0.0], [0.0, -e], [e - 0.5 * hf, 0.1],
                     [-0.2, e - 0.3 * hf], [-e + 0.4 * hf, 0.05],
                     [e * (1 + 1e-13), 0.0], [0.6 * e, -0.8 * e]])
    beyond = np.array([[e * 1.001, 0.0], [0.0, -e * 1.2], [e, e], [-0.9 * e, 0.9 * e]])
    pts = np.concatenate([g.nodes(), rng.uniform(-1.1 * e, 1.1 * e, (20000, 2)),
                          edge, beyond])
    pts = pts[rng.permutation(len(pts))]

    x = x0 + rng.uniform(-1.5, cnt + 1.5, 1000) * hf
    i, w = spectral._cubic_stencil(x, x0, hf, cnt)
    u = (x - x0) / hf
    np.testing.assert_array_equal(i, np.clip(np.floor(u), 1, cnt - 3))
    t = u - i
    np.testing.assert_array_equal(w, [-t * (t - 1) * (t - 2) / 6.0,
                                      (t + 1) * (t - 1) * (t - 2) / 2.0,
                                      -(t + 1) * t * (t - 2) / 2.0,
                                      (t + 1) * t * (t - 1) / 6.0])

    mask = np.hypot(pts[:, 0], pts[:, 1]) <= e * (1 + 1e-12)
    ix, wx = spectral._cubic_stencil(np.where(mask, pts[:, 0], 0.0), x0, hf, cnt)
    iy, wy = spectral._cubic_stencil(np.where(mask, pts[:, 1], 0.0), x0, hf, cnt)
    # the clipped strips at both edges are hit
    assert ix.min() == iy.min() == 1 and ix.max() == iy.max() == cnt - 3
    want = np.zeros(len(pts), dtype=complex)
    for a in range(4):
        partial = np.zeros(len(pts), dtype=complex)
        for b in range(4):
            partial += wy[b] * fine[ix + a - 1, iy + b - 1]
        want += wx[a] * partial
    want = np.where(mask, want, 0.0)

    got = spectral._InterpPlan(g, pts).apply(fine)
    np.testing.assert_array_equal(got, want)
    assert np.all(got[~mask] == 0.0) and (~mask).sum() >= len(beyond)
    assert np.count_nonzero(got[mask]) > 0.99 * mask.sum()
    # the caller's layout comes back, whatever order the points arrive in
    perm = rng.permutation(len(pts))
    np.testing.assert_array_equal(
        spectral._InterpPlan(g, pts[perm].reshape(-1, 4, 2)).apply(fine), got[perm])


def test_interpolate_array_rejects_non_real_samples():
    # full-1d and radial refinements read only eta >= 0, so samples that are
    # not transforms of real densities would give wrong values silently
    g1 = GridSpec(dimension=1, mode="full-1d", n=33, eta_max=4.0)
    vals = init_state(g1, InitialDatum(kind="gaussian", dimension=1)).values.copy()
    vals[g1.zero_index[0] + 3] += 1e-6j
    with pytest.raises(ConfigError, match="Hermitian"):
        interpolate_array(g1, vals, np.array([0.5, 1.5]))
    gr = GridSpec(dimension=3, mode="radial", n=33, eta_max=4.0)
    vals = init_state(gr, InitialDatum(kind="gaussian", dimension=3)).values.copy()
    vals[5] += 1e-6j
    with pytest.raises(ConfigError, match="real"):
        interpolate_array(gr, vals, np.array([0.5, 1.5]))


# ---------------------------------------------------------------------------
# moments and reconstruction
# ---------------------------------------------------------------------------


def test_moments_orders_1d():
    g = GridSpec(dimension=1, mode="full-1d", n=512, eta_max=16.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=1.0,
                         center=(0.3,))
    st = init_state(g, datum)
    m = moments(st, order=4)
    assert abs(m[0] - 1.0) < 1e-10
    assert abs(m[1] - 0.3) < 1e-8
    assert abs(m[2] - (1.0 + 0.09)) < 1e-7
    # E[v^4] for N(c, 1): 3 + 6 c^2 + c^4
    assert abs(m[4] - (3.0 + 6.0 * 0.09 + 0.3 ** 4)) < 1e-3


def test_moments_order3_unavailable():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2))
    with pytest.raises(NotImplementedError):
        moments(st, order=3)


def test_moments_radial_vs_full2d():
    datum = InitialDatum(kind="gaussian", dimension=2, sigma=0.5)
    gr = GridSpec(dimension=2, mode="radial", n=128, eta_max=4.0)
    gf = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    mr = moments(init_state(gr, datum), order=4)
    mf = moments(init_state(gf, datum), order=4)
    assert abs(mr[0] - mf[0]) < 1e-9
    assert abs(mr[2] - mf[2]) < 1e-7
    assert abs(mr[-1] - mf[-1]) < 1e-3
    assert abs(mr[2] - 2.0 * 0.25) < 1e-8


def test_planar_moments_are_exact_sums():
    # an off-centre planar mixture: the moments of the trigonometric
    # polynomial through the samples match the closed forms to roundoff
    comps = ((0.7, (0.9, -0.4), 0.5), (0.3, (-0.6, 0.8), 0.55))
    datum = InitialDatum(kind="gaussian-mixture", dimension=2, components=comps)
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.5)
    m0, m1, m2 = moments(init_state(g, datum), order=2)
    want_m1 = sum(w * np.asarray(c) for w, c, _ in comps)
    assert abs(m0 - 1.0) < 1e-12
    assert np.abs(m1 - want_m1).max() < 1e-12 * np.abs(want_m1).max()
    assert abs(m2 - datum.moment2()) < 1e-12 * datum.moment2()


def test_to_physical_gaussian():
    g = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    datum = InitialDatum(kind="gaussian", dimension=1, sigma=1.0)
    st = init_state(g, datum)
    v, dens, dv = to_physical(st)
    want = datum.density(v)
    assert np.max(np.abs(dens - want)) < 1e-10
    assert abs(np.sum(dens) * dv - 1.0) < 1e-10


def test_to_physical_radial_unavailable():
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2))
    with pytest.raises(ConfigError):
        to_physical(st)


def test_broken_symmetry_rejected_at_construction():
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    vals = st.values.copy()
    vals += 1e-3j * np.exp(-g.abs_nodes() ** 2)  # breaks hermitian symmetry
    vals[g.zero_index] = st.values[g.zero_index]
    with pytest.raises(ConfigError):
        state_with_values(st, vals)


def test_radial_state_must_be_real():
    # the radial refinement reads the profile as real; an imaginary part
    # would be dropped without notice, so construction rejects it
    g = GridSpec(dimension=3, mode="radial", n=33, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=3))
    vals = st.values.copy()
    vals[4] += 1e-6j
    with pytest.raises(ConfigError, match="real"):
        state_with_values(st, vals)


def test_to_physical_flags_unpaired_edge_junk():
    # the -n/2 row of an even lattice has no conjugate partner, so values
    # parked there slip past the symmetry guard but break reconstruction
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.5))
    vals = st.values.copy()
    vals[0, :] = 1e-3j
    bad = state_with_values(st, vals)
    with pytest.raises(NumericalFailure):
        to_physical(bad)
