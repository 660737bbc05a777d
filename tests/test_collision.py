"""Collision kernel, angular quadrature, geometry, and rhs oracle tests."""

import weakref

import numpy as np
import pytest

from kinb import (
    AngularQuadrature,
    ConfigError,
    CrossSection,
    GridSpec,
    InitialDatum,
    collision_geometry,
    init_state,
    interpolate_array,
    kac_pair,
    transform_jacobian,
)
from kinb import collision as col
from kinb import spectral
from kinb.spectral import _hermitize


# ---------------------------------------------------------------------------
# kernel parameters
# ---------------------------------------------------------------------------

def test_cross_section_validation():
    for bad_nu in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ConfigError):
            CrossSection(nu=bad_nu)
    with pytest.raises(ConfigError):
        CrossSection(nu=0.5, kappa=0.0)


def test_collapsed_kernel_power_law():
    cs = CrossSection(nu=0.3, kappa=2.0)
    th = 0.17
    assert np.isclose(cs.collapsed(th), 2.0 * th ** (-1.6), rtol=1e-14)
    # even in theta
    assert cs.collapsed(-th) == cs.collapsed(th)
    # b_value strips the sin^{d-2} factor
    assert np.isclose(cs.b_value(th, 3), cs.collapsed(th) / np.sin(th), rtol=1e-14)
    assert np.isclose(cs.b_value(th, 2), cs.collapsed(th), rtol=1e-14)


# ---------------------------------------------------------------------------
# angular quadrature
# ---------------------------------------------------------------------------

def test_quadrature_validation():
    with pytest.raises(ConfigError):
        AngularQuadrature(theta_min=0.0)
    with pytest.raises(ConfigError):
        AngularQuadrature(theta_min=1.0)  # above pi/4
    with pytest.raises(ConfigError):
        AngularQuadrature(theta_min=0.1, panels=0)
    with pytest.raises(ConfigError):
        AngularQuadrature(theta_min=0.1, nodes_per_panel=1)
    with pytest.raises(ConfigError):
        AngularQuadrature(theta_min=0.1, azimuthal_nodes=0)
    q = AngularQuadrature(theta_min=0.1)
    with pytest.raises(ConfigError):
        q.angles(0.05)  # upper limit below theta_min


def test_quadrature_weights_and_range():
    q = AngularQuadrature(theta_min=1e-3, panels=10, nodes_per_panel=6)
    th, w = q.angles(np.pi / 4)
    assert th.shape == w.shape == (60,)
    assert np.all(np.diff(th) > 0)
    assert th[0] > 1e-3 and th[-1] < np.pi / 4
    # plain weights integrate the constant 1 over [theta_min, theta_max]
    assert np.isclose(w.sum(), np.pi / 4 - 1e-3, rtol=1e-13)


def test_quadrature_singular_integral():
    # 2 * int_0^{pi/4} theta^{-3/2} sin^2 cos^2 dtheta, adaptive reference
    q = AngularQuadrature(theta_min=1e-6, panels=40, nodes_per_panel=8)
    th, w = q.angles(np.pi / 4)
    approx = 2.0 * float(np.sum(w * th ** -1.5 * np.sin(th) ** 2 * np.cos(th) ** 2))
    assert abs(approx - 6.612837719046e-01) < 1e-8


# ---------------------------------------------------------------------------
# collision geometry
# ---------------------------------------------------------------------------

def test_geometry_hand_example():
    eta = np.array([1.0, 0.0])
    sigma = np.array([0.0, 1.0])
    minus, plus = collision_geometry(eta, sigma)
    assert np.allclose(plus, [0.5, 0.5], atol=1e-15)
    assert np.allclose(minus, [0.5, -0.5], atol=1e-15)
    assert np.isclose(transform_jacobian(eta, sigma), 0.25, rtol=1e-15)


def test_geometry_identities():
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(50):
            eta = rng.normal(size=d) * 3.0
            u = rng.normal(size=d)
            sigma = u / np.linalg.norm(u)
            minus, plus = collision_geometry(eta, sigma)
            r = np.linalg.norm(eta)
            cos_t = float(eta @ sigma) / r
            theta = np.arccos(np.clip(cos_t, -1.0, 1.0))
            assert np.isclose(np.linalg.norm(minus), r * np.sin(theta / 2), atol=1e-12)
            assert np.isclose(
                np.linalg.norm(minus) ** 2 + np.linalg.norm(plus) ** 2, r * r,
                rtol=1e-12)
            assert np.allclose(minus + plus, eta, atol=1e-12)


def test_planar_split_from_signed_angle():
    # the planar operator's own construction: sigma at a signed deviation
    # angle theta from etahat, then the split; commutation_error reads
    # |eta-| and |eta+| through the half angle phi = theta/2
    rng = np.random.default_rng(13)
    eta = rng.normal(size=(200, 2)) * 3.0
    r = np.linalg.norm(eta, axis=-1)
    ehat = eta / r[:, None]
    theta = rng.uniform(-np.pi, np.pi, size=200)
    sigma = col.sigma_from_angle(ehat, theta)
    assert np.allclose(np.linalg.norm(sigma, axis=-1), 1.0, rtol=0, atol=1e-15)
    assert np.allclose((sigma * ehat).sum(-1), np.cos(theta), rtol=0, atol=1e-15)
    assert np.allclose((sigma * col.perp_unit(ehat)).sum(-1), np.sin(theta),
                       rtol=0, atol=1e-15)
    minus, plus = collision_geometry(eta, sigma)
    assert np.allclose(np.linalg.norm(minus, axis=-1), r * np.abs(np.sin(theta / 2)),
                       rtol=0, atol=1e-14 * r.max())
    assert np.allclose(np.linalg.norm(plus, axis=-1), r * np.cos(theta / 2),
                       rtol=0, atol=1e-14 * r.max())


def test_transform_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for d in (2, 3):
        for _ in range(10):
            eta = rng.normal(size=d) * 2.0 + 0.5
            u = rng.normal(size=d)
            sigma = u / np.linalg.norm(u)

            def plus_of(e):
                return 0.5 * (e + np.linalg.norm(e) * sigma)

            jac = np.empty((d, d))
            for j in range(d):
                step = np.zeros(d)
                step[j] = h
                jac[:, j] = (plus_of(eta + step) - plus_of(eta - step)) / (2 * h)
            det_fd = np.linalg.det(jac)
            assert np.isclose(det_fd, transform_jacobian(eta, sigma), atol=1e-6)


def test_kac_pair():
    minus, plus = kac_pair(1.5, 0.3)
    assert np.isclose(minus, 1.5 * np.sin(0.3), rtol=1e-15)
    assert np.isclose(plus, 1.5 * np.cos(0.3), rtol=1e-15)
    assert np.isclose(minus ** 2 + plus ** 2, 1.5 ** 2, rtol=1e-14)


# ---------------------------------------------------------------------------
# collision rhs against an adaptive-quadrature reference
# ---------------------------------------------------------------------------

def test_kac_rhs_matches_reference():
    # reference values from adaptive quadrature on the continuum transform
    # of the unit-mass laplace datum (a = 1), nu = 1/4, kappa = 1
    g = GridSpec(dimension=1, mode="full-1d", n=513, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0, mass=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-6, panels=40, nodes_per_panel=8)
    r = col.rhs_bilinear(g, cs, quad, st.values, st.values)
    nodes = g.axis_nodes()
    frozen = {0.5: -2.820703452665e-01, 1.0: -1.590762400331e-01,
              2.5: -5.260283608478e-02}
    for xi, want in frozen.items():
        i = int(np.argmin(np.abs(nodes - xi)))
        assert abs(nodes[i] - xi) < 1e-12  # on-grid by construction
        assert abs(r[i].real - want) < 1e-5
        assert abs(r[i].imag) < 1e-10


def test_gaussian_is_a_fixed_point():
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-4, panels=12, nodes_per_panel=6)
    g1 = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    s1 = init_state(g1, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    assert np.abs(col.rhs_bilinear(g1, cs, quad, s1.values, s1.values)).max() < 1e-5

    q2 = AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5,
                           azimuthal_nodes=8)
    g2 = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    s2 = init_state(g2, InitialDatum(kind="gaussian", dimension=2, sigma=0.4))
    assert np.abs(col.rhs_bilinear(g2, cs, q2, s2.values, s2.values)).max() < 1e-5

    g3 = GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0)
    s3 = init_state(g3, InitialDatum(kind="gaussian", dimension=3, sigma=0.7))
    assert np.abs(col.rhs_bilinear(g3, cs, q2, s3.values, s3.values)).max() < 1e-5


@pytest.mark.parametrize("grid,sigma,theta_min,sign,bound", [
    # the bench kac-line grid; the energy mode of the Kac line is -eta^2 M
    (GridSpec(dimension=1, mode="full-1d", n=512, eta_max=32.0), 1.0, 1e-3, -1, 5e-8),
    (GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0), 1.0, 1e-3, 1, 1.3e-7),
    (GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0), 0.6, 4e-3, 1, 1.6e-5),
], ids=["kac-line", "radial-3d", "planar-2d"])
def test_linearized_operator_annihilates_the_energy_mode(grid, sigma, theta_min,
                                                          sign, bound):
    # L h = Qhat(M, h) + Qhat(h, M) around a centred Gaussian M is exactly 0
    # for the conserved energy mode h = +-|eta|^2 Mhat. The discrete residual
    # sits at the interpolation floor times the total weight W, not at
    # roundoff: max|L h| measured 5.1e-9 (kac-line), 1.27e-8 (radial-3d) and
    # 1.6e-6 (planar-2d) with h at max 1; each bound is 10x that
    cs = CrossSection(nu=0.25)
    quad = AngularQuadrature(theta_min=theta_min, panels=8, nodes_per_panel=5)
    m_hat = init_state(grid, InitialDatum(kind="gaussian", dimension=grid.dimension,
                                          sigma=sigma)).values
    h = sign * grid.abs_nodes() ** 2 * m_hat
    h /= np.abs(h).max()
    lh = col.rhs_bilinear(grid, cs, quad, m_hat, h) + col.rhs_bilinear(grid, cs, quad, h, m_hat)
    assert np.abs(lh).max() < bound


def test_rhs_vanishes_at_zero_frequency():
    # gain and loss cancel exactly at eta = 0: mass is conserved
    cs = CrossSection(nu=0.5, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5)
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    datum = InitialDatum(kind="gaussian-mixture", dimension=1,
                         components=((0.6, (0.8,), 0.5), (0.4, (-0.5,), 0.7)))
    st = init_state(g, datum)
    r = col.rhs_bilinear(g, cs, quad, st.values, st.values)
    assert abs(r[g.shape[0] // 2]) < 1e-12 * st.mass

    g2 = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0)
    d2 = InitialDatum(kind="gaussian", dimension=2, sigma=0.5, center=(0.2, -0.1))
    s2 = init_state(g2, d2)
    r2 = col.rhs_bilinear(g2, cs, quad, s2.values, s2.values)
    assert abs(r2[g2.shape[0] // 2, g2.shape[1] // 2]) < 1e-12 * s2.mass


# ---------------------------------------------------------------------------
# bounds and probes
# ---------------------------------------------------------------------------

def test_stability_limit_identity():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0, mass=3.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-2, panels=10, nodes_per_panel=6)
    W = col.total_weight(g, cs, quad)
    assert W > 0
    assert np.isclose(col.stability_limit(st, cs, quad), 0.5 / (3.0 * W), rtol=1e-13)
    # smaller cutoff keeps more of the singular kernel
    quad2 = AngularQuadrature(theta_min=1e-3, panels=10, nodes_per_panel=6)
    assert col.total_weight(g, cs, quad2) > W


def test_truncation_bound_dominates_cutoff_change():
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    qa = AngularQuadrature(theta_min=1e-5, panels=30, nodes_per_panel=8)
    qb = AngularQuadrature(theta_min=1e-2, panels=18, nodes_per_panel=8)
    diff = np.abs(col.rhs_bilinear(g, cs, qa, st.values, st.values)
                  - col.rhs_bilinear(g, cs, qb, st.values, st.values))
    bound = col.truncation_error_bound(st, st, cs, qb)
    assert np.all(bound >= 0)
    assert np.all(diff <= bound + 1e-12)
    # theta_min^{2-2nu} scaling, exact because the moment factor is shared
    qc = AngularQuadrature(theta_min=2e-2, panels=18, nodes_per_panel=8)
    b2 = col.truncation_error_bound(st, st, cs, qc)
    assert np.allclose(b2, bound * 2.0 ** (2 - 2 * cs.nu), rtol=1e-13)


@pytest.mark.parametrize("g, datum", [
    (GridSpec(dimension=2, mode="radial", n=128, eta_max=8.0),
     InitialDatum(kind="laplace", dimension=2, a=1.0)),
    (GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0),
     InitialDatum(kind="laplace", dimension=3, a=1.0)),
    (GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.0),
     InitialDatum(kind="gaussian-mixture", dimension=2,
                  components=((0.5, (0.75, 0.0), 0.6), (0.5, (-0.75, 0.0), 0.6)))),
], ids=["radial-2d", "radial-3d", "planar"])
def test_truncation_bound_dominates_cutoff_change_for_d_ge_2(g, datum):
    # the 1-d test's rules; the largest |difference| / bound reads 0.011,
    # 0.007 and 0.073 on these three grids
    st = init_state(g, datum)
    cs = CrossSection(nu=0.25, kappa=1.0)
    qa = AngularQuadrature(theta_min=1e-5, panels=30, nodes_per_panel=8)
    qb = AngularQuadrature(theta_min=1e-2, panels=18, nodes_per_panel=8)
    diff = np.abs(col.rhs_bilinear(g, cs, qa, st.values, st.values)
                  - col.rhs_bilinear(g, cs, qb, st.values, st.values))
    bound = col.truncation_error_bound(st, st, cs, qb)
    assert np.all(bound >= 0)
    assert np.all(diff <= bound + 1e-12)


def test_planar_operator_keeps_exactly_the_live_pairs():
    # the planar-2d bench grid: 1,985 kept nodes x 80 angles. A pair whose
    # eta+ lies beyond eta_max reads hhat(eta+) = 0 and is not gathered;
    # |eta+| <= |eta| makes that happen only at nodes beyond eta_max
    grid = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    quad = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5)
    ev = col._Evaluator(grid, CrossSection(nu=0.25), quad)
    K, A = ev.keep.size, ev.theta.size
    node, angle = ev.pairs()
    assert K * A == 158_800 and node.size == angle.size == ev.slot.size == 132_256
    assert node.dtype == angle.dtype == np.int32
    r = np.linalg.norm(ev.pts, axis=-1, keepdims=True)
    ehat = np.divide(ev.pts, r, out=np.zeros_like(ev.pts), where=r > 0)
    minus, plus = collision_geometry(ev.pts[:, None, :],
                                     col.sigma_from_angle(ehat[:, None, :], ev.theta))
    live = np.linalg.norm(plus, axis=-1) <= grid.eta_max * (1 + 1e-12)
    kept = np.zeros((K, A), dtype=int)
    np.add.at(kept, (node, angle), 1)
    assert np.array_equal(kept, live.astype(int))   # each live pair once
    assert np.all(r[:, 0][~live.all(axis=1)] > grid.eta_max)
    # the pairs come in the band order of their eta+, and both gathers
    # return a plan's values at the pairs' points in that order
    pair_plus, pair_minus = plus[node, angle], minus[node, angle]
    assert np.array_equal(spectral._band_order(grid, pair_plus[:, 0]),
                          np.arange(node.size))
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.5, (0.75, 0.0), 0.6), (0.5, (-0.75, 0.0), 0.6)))
    fine = spectral.refine_array(grid, init_state(grid, datum).values)
    for gather, pts in ((ev.gather_plus, pair_plus), (ev.gather_minus, pair_minus)):
        assert np.array_equal(gather(fine), spectral._InterpPlan(grid, pts).apply(fine))
    # the node sums run over (kept, angles) rows: each live pair at its
    # node and angle, 0 at every dropped pair
    values = ev.gather_plus(fine)
    dense = np.zeros((K, A), dtype=complex)
    dense[node, angle] = values
    assert np.array_equal(ev.node_sum(values, ev.weights),
                          ev.expand((dense * ev.weights).sum(axis=1)))


@pytest.mark.parametrize("grid", [
    GridSpec(dimension=1, mode="full-1d", n=64, eta_max=8.0),
    GridSpec(dimension=3, mode="radial", n=64, eta_max=8.0),
], ids=["kac-line", "radial-3d"])
def test_line_operator_pairs_are_the_dense_rows(grid):
    # on the line modes every (kept node, angle) pair is gathered, node-major,
    # and a node sum is the row sum of pairs * kernel, mirrored
    quad = AngularQuadrature(theta_min=1e-2, panels=4, nodes_per_panel=4)
    ev = col._Evaluator(grid, CrossSection(nu=0.3), quad)
    assert ev.slot is None
    node, angle = ev.pairs()
    K, A = ev.keep.size, ev.theta.size
    assert np.broadcast_shapes(node.shape, angle.shape) == (K, A)
    datum = InitialDatum(kind="gaussian", dimension=grid.dimension, sigma=0.4)
    fine = spectral.refine_array(grid, init_state(grid, datum).values)
    pairs = ev.gather_plus(fine)
    assert pairs.shape == (K, A)
    eta = ev.pts.reshape(-1)
    np.testing.assert_array_equal(
        spectral._InterpPlan(grid, eta[node] * np.cos(ev.phi[angle])).apply(fine), pairs)
    kernel = ev.weights * np.sin(ev.theta) ** 2
    want = ev.expand((pairs * kernel).sum(axis=1))
    assert np.array_equal(ev.node_sum(pairs.copy(), kernel), want)


# ---------------------------------------------------------------------------
# the live operator
# ---------------------------------------------------------------------------

def test_one_operator_stays_live(monkeypatch):
    refs = []

    class Recording(col._Evaluator):
        def __init__(self, *key):
            # the previous operator is gone before the next one is built
            assert all(r() is None for r in refs)
            super().__init__(*key)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(col, "_Evaluator", Recording)
    monkeypatch.setattr(col, "_live", None)
    cs = CrossSection(nu=0.3, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-2, panels=4, nodes_per_panel=4)
    g = GridSpec(dimension=1, mode="full-1d", n=64, eta_max=8.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1))
    q = col.rhs_bilinear(g, cs, quad, st.values, st.values)
    # an equal key, of new objects, reuses the operator without a rebuild
    same = (GridSpec(dimension=1, mode="full-1d", n=64, eta_max=8.0),
            CrossSection(nu=0.3, kappa=1.0),
            AngularQuadrature(theta_min=1e-2, panels=4, nodes_per_panel=4))
    assert col._evaluator(*same) is refs[0]()
    assert np.array_equal(col.rhs_bilinear(*same, st.values, st.values), q)
    assert len(refs) == 1
    # another kernel builds a second operator and the first one dies
    col.total_weight(g, CrossSection(nu=0.4, kappa=1.0), quad)
    assert len(refs) == 2 and refs[0]() is None and refs[1]() is not None
    # going back rebuilds: one slot, no history
    col.total_weight(g, cs, quad)
    assert len(refs) == 3 and refs[1]() is None


# ---------------------------------------------------------------------------
# the mirrored, folded operator against a direct all-node evaluation
# ---------------------------------------------------------------------------

def _direct_rhs(grid, cs, quad, g_values, h_values):
    """Qhat(g, h) by brute force: every node, both signs of theta, and the
    public geometry and interpolation routines."""
    if grid.mode == "full-1d":
        th, w = quad.angles(np.pi / 4)
        theta = np.concatenate([-th, th])
        weights = np.concatenate([w, w]) * cs.collapsed(theta)
        minus, plus = kac_pair(grid.nodes()[:, None], theta[None, :])
    else:
        th, w = quad.angles(np.pi / 2)
        eta = grid.nodes()
        r = np.linalg.norm(eta, axis=-1, keepdims=True)
        ehat = np.divide(eta, r, out=np.zeros_like(eta), where=r > 0)
        sigma = np.concatenate([col.sigma_from_angle(ehat[:, None, :], s * th[None, :])
                                for s in (-1, +1)], axis=1)
        weights = np.concatenate([w, w]) * cs.collapsed(np.concatenate([th, th]))
        minus, plus = collision_geometry(eta[:, None, :], sigma)
    gain = (interpolate_array(grid, g_values, minus)
            * interpolate_array(grid, h_values, plus)) @ weights
    loss = weights.sum() * g_values[grid.zero_index] * h_values.reshape(-1)
    out = (gain - loss).reshape(grid.shape)
    out[grid.zero_index] = 0.0
    return out


@pytest.mark.parametrize("mode", ["full-1d", "full-2d"])
def test_rhs_bilinear_matches_direct_evaluation(mode):
    cs = CrossSection(nu=0.3, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-2, panels=4, nodes_per_panel=4)
    if mode == "full-1d":
        grid = GridSpec(dimension=1, mode="full-1d", n=64, eta_max=8.0)
        dg = InitialDatum(kind="gaussian-mixture", dimension=1,
                          components=((0.6, (0.7,), 0.35), (0.4, (-0.4,), 0.5)))
        dh = InitialDatum(kind="gaussian-mixture", dimension=1,
                          components=((0.3, (-0.9,), 0.3), (0.7, (0.2,), 0.45)))
    else:
        # small sigmas keep the transforms well above roundoff out to the
        # -eta_max edge
        grid = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=4.0)
        dg = InitialDatum(kind="gaussian-mixture", dimension=2,
                          components=((0.6, (0.4, -0.2), 0.12), (0.4, (-0.3, 0.5), 0.15)))
        dh = InitialDatum(kind="gaussian-mixture", dimension=2,
                          components=((0.5, (-0.5, 0.1), 0.13), (0.5, (0.2, 0.3), 0.2)))
    g_vals = init_state(grid, dg).values
    h_vals = init_state(grid, dh).values
    paired = grid.mirror().reshape(grid.shape) >= 0
    for a, b in ((g_vals, h_vals), (g_vals, g_vals)):
        got = col.rhs_bilinear(grid, cs, quad, a, b)
        want = _direct_rhs(grid, cs, quad, a, b)
        scale = float(a[grid.zero_index].real)
        assert np.abs(got - want)[paired].max() < 1e-12 * scale
        # state values in, an exactly Hermitian Qhat out, 0 where unpaired
        assert np.array_equal(got, _hermitize(grid, got))
        assert np.all(got[~paired] == 0.0)


def test_radial_rhs_matches_full2d_on_axis():
    # the radial d = 2 operator (real half-axis refinement, real gathers)
    # against the planar one on the eta_x axis: same spacing h = 1/8, same
    # angular rule, a centred mixture. Both carry a 4-point interpolation
    # error (planar refinement 16x, radial 32x); the bound is set from the
    # 1.70e-6 * mass they agreed to with the complex 1-d refinement.
    cs = CrossSection(nu=0.3, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-2, panels=4, nodes_per_panel=4)
    datum = InitialDatum(kind="gaussian-mixture", dimension=2,
                         components=((0.5, (), 0.3), (0.5, (), 0.6)))
    gr = GridSpec(dimension=2, mode="radial", n=33, eta_max=4.0)
    gf = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    radial = init_state(gr, datum)
    planar = init_state(gf, datum)
    qr = col.rhs_bilinear(gr, cs, quad, radial.values, radial.values)
    qf = col.rhs_bilinear(gf, cs, quad, planar.values, planar.values)
    i0 = gf.zero_index[0]
    axis = qf[i0:, i0]   # eta_x = k h, k = 0..31
    np.testing.assert_allclose(gf.axis_nodes()[i0:], gr.axis_nodes()[:axis.size],
                               rtol=0, atol=1e-14)
    assert np.abs(qr).max() > 0.1 * radial.mass
    assert np.abs(qr[:axis.size] - axis).max() < 2e-6 * radial.mass
