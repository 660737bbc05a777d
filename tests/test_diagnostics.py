"""Weights, norms, decay-order fitting, commutator bounds, induction pieces."""

import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from kinb import (
    AngularQuadrature,
    ConfigError,
    CrossSection,
    GevreyWeight,
    GridSpec,
    InitialDatum,
    NumericalFailure,
    beta_recommendation,
    build_induction_schedule,
    cb_constant,
    check_hypotheses,
    commutation_error,
    embedding_constant,
    entropy,
    entropy_and_llogl,
    fit_gevrey_order,
    fractional_heat_evolve,
    hinf_weighted_norm,
    init_state,
    negative_sobolev_norm,
    rhs_bilinear,
    run,
    state_with_values,
    weighted_norms,
)
import kinb.collision as col
import kinb.diagnostics as diag
from kinb.diagnostics import (_grow, _unit_directions, angle_thresholds,
                              bracket_integral)
from kinb.spectral import _InterpPlan, refine_array, to_physical
from kinb.inequalities import alpha_md, epsilon


def _flat_state(n=257, eta_max=16.0):
    g = GridSpec(dimension=1, mode="full-1d", n=n, eta_max=eta_max)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    return state_with_values(st, np.ones(g.shape, dtype=complex))


# ---------------------------------------------------------------------------
# weights and norms
# ---------------------------------------------------------------------------

def test_gevrey_weight_validation():
    for bad in (0.0, -0.3, 1.2):
        with pytest.raises(ConfigError):
            GevreyWeight(alpha=bad, beta=0.1)
    with pytest.raises(ConfigError):
        GevreyWeight(alpha=0.5, beta=-0.1)
    with pytest.raises(ConfigError):
        GevreyWeight(alpha=0.5, beta=0.1, t=-1.0)
    # nan compares false, so the checks must not be written as x < 0
    with pytest.raises(ConfigError):
        GevreyWeight(alpha=0.5, beta=math.nan)
    with pytest.raises(ConfigError):
        GevreyWeight(alpha=0.5, beta=0.1, t=math.nan)
    with pytest.raises(ConfigError):
        GevreyWeight(alpha=0.5, beta=0.1, lam=0.0)
    w2 = GevreyWeight(alpha=0.5, beta=0.2, t=0.7)
    # profile at the origin is exp(beta * t)
    assert np.isclose(w2.profile(0.0), math.exp(0.2 * 0.7), rtol=1e-14)


def test_weight_cutoff_zeroes_tail():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    w = GevreyWeight(alpha=0.5, beta=0.3, t=0.5, lam=5.0)
    vals = w.values(g)
    r = g.abs_nodes()
    assert np.all(vals[r > 5.0 * (1 + 1e-12)] == 0.0)
    assert np.all(vals[r <= 5.0] >= 1.0)


def test_weighted_norms_at_t0():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    w = GevreyWeight(alpha=0.5, beta=0.4, t=0.0)
    nm = weighted_norms(st, w)
    cells = g.cell_weights()
    plain = math.sqrt(float(np.sum(cells * np.abs(st.values) ** 2)))
    assert np.isclose(nm.l2, plain, rtol=1e-13)
    assert nm.h_alpha >= nm.l2
    assert np.isclose(nm.sup, 1.0, rtol=1e-13)  # fhat(0)/mass with unit weight
    with pytest.raises(ConfigError):
        weighted_norms(st, GevreyWeight(alpha=0.5, beta=0.4, lam=20.0))


# ---------------------------------------------------------------------------
# fractional heat oracle and the decay-order fitter
# ---------------------------------------------------------------------------

def test_fractional_heat_factor():
    # exp(-t (2 pi |eta|)^{2 nu}) at t = 0.3, nu = 0.5, |eta| = 1.7,
    # adaptive-reference value frozen below
    g = GridSpec(dimension=1, mode="full-1d", n=171, eta_max=17.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    ev = fractional_heat_evolve(st, 0.5, 0.3)
    i = int(np.argmin(np.abs(g.axis_nodes() - 1.7)))
    ratio = float(np.abs(ev.values[i]) / np.abs(st.values[i]))
    assert abs(ratio - 4.058224973327e-02) < 1e-12
    assert ev.t == st.t + 0.3
    with pytest.raises(ConfigError):
        fractional_heat_evolve(st, 0.5, -0.1)
    with pytest.raises(ConfigError):
        fractional_heat_evolve(st, 1.0, 0.1)


def test_fitter_recovers_heat_exponent_exactly():
    flat = _flat_state()
    for nu in (0.25, 0.5, 0.75):
        ev = fractional_heat_evolve(flat, nu, 0.3)
        rep = fit_gevrey_order(ev)
        want_b = 0.3 * (2 * math.pi) ** (2 * nu)
        assert abs(rep.alpha_hat - nu) < 1e-10
        assert abs(rep.beta_t_hat - want_b) < 1e-10 * want_b
        assert rep.residual < 1e-12
        assert rep.beta_hat(0.3) == rep.beta_t_hat / 0.3


def test_fitter_gaussian_slope_one():
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=0.8))
    rep = fit_gevrey_order(st, fit_window=(0.5, 2.0))
    assert abs(rep.alpha_hat - 1.0) < 1e-9
    assert abs(rep.beta_t_hat - 2 * math.pi ** 2 * 0.64) < 1e-8


def test_fit_window_errors():
    flat = _flat_state()
    ev = fractional_heat_evolve(flat, 0.5, 0.3)
    with pytest.raises(ConfigError):
        fit_gevrey_order(ev, fit_window=(0.0, 4.0))
    with pytest.raises(ConfigError):
        fit_gevrey_order(ev, fit_window=(5.0, 2.0))
    with pytest.raises(ConfigError):
        fit_gevrey_order(ev, fit_window=(16.5, 17.0))  # beyond the grid
    with pytest.raises(NumericalFailure):
        fit_gevrey_order(ev, fit_window=(2.0, 2.2))


# ---------------------------------------------------------------------------
# commutator sandwich
# ---------------------------------------------------------------------------

_CS = CrossSection(nu=0.35, kappa=1.0)
_QUAD = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4,
                          azimuthal_nodes=8)


def _mixture_state(grid):
    d = grid.dimension
    if grid.mode == "radial":
        datum = InitialDatum(kind="gaussian", dimension=d, sigma=0.45)
    else:
        c1 = (0.2,) * d
        c2 = (-0.1,) * d
        datum = InitialDatum(kind="gaussian-mixture", dimension=d,
                             components=((0.6, c1, 0.4), (0.4, c2, 0.38)))
    return init_state(grid, datum)


def test_sandwich_holds_on_every_mode():
    grids = (
        GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        GridSpec(dimension=2, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5),
    )
    for g in grids:
        st = _mixture_state(g)
        w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=g.eta_max / math.sqrt(2))
        rep = commutation_error(st, w, _CS, _QUAD)
        assert rep.sandwich_ok, (g.mode, g.dimension, rep)
        assert abs(rep.lhs) <= rep.i_term + rep.i_plus_term + 1e-12
        assert abs(rep.lhs) <= rep.rhs_bound + 1e-12


def test_commutator_values_are_pinned():
    # the sandwich is loose enough to hold for a wrong split angle (phi = theta
    # instead of theta/2 for d >= 2 about triples rhs_bound), so pin the values
    want = {
        ("full-1d", 1): (-0.0007108451141041764, 0.02232641653175379,
                         0.010640819411895359, 0.014728419878359298),
        ("radial", 2): (-0.0004517639367901879, 0.008330426464846828,
                        0.012265082271249634, 0.007338985028710604),
        ("radial", 3): (-0.0013081882575562936, 0.016840658442121303,
                        0.02392987385026964, 0.01566327865507704),
        ("full-2d", 2): (-0.0005915185567503888, 0.009690924879223786,
                         0.01431785314805448, 0.00854855419972529),
    }
    grids = (
        GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        GridSpec(dimension=2, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5),
    )
    for g in grids:
        w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=g.eta_max / math.sqrt(2))
        rep = commutation_error(_mixture_state(g), w, _CS, _QUAD)
        got = (rep.lhs, rep.rhs_bound, rep.i_term, rep.i_plus_term)
        np.testing.assert_allclose(got, want[g.mode, g.dimension], rtol=1e-14,
                                   atol=0, err_msg=f"{g.mode} d={g.dimension}")


def _i_plus_through_a_plan(state, w):
    """I+ over eta+ on the nodes: |fhat(eta-)| read through a plan of its
    own at the points |eta| tan(phi) perpendicular to eta, with the kernel
    2 sin^2(phi) / cos^{d-2}(phi) (d >= 2) or sqrt(2) sin^2(phi) (d = 1)
    times the operator's weights."""
    grid, d = state.grid, state.grid.dimension
    ev = col._evaluator(grid, _CS, _QUAD)
    node, angle = ev.pairs()
    tan_phi = np.tan(ev.phi)[angle]
    r_pair = grid.abs_nodes().reshape(-1)[ev.keep][node]
    if grid.mode == "full-2d":
        pts = tan_phi[:, None] * col.perp_unit(ev.pts)[node]
    else:
        pts = r_pair * tan_phi
    fmp = np.abs(_InterpPlan(grid, pts).apply(refine_array(grid, state.values)))
    abs_pts = np.abs(r_pair * tan_phi)
    eps_lem = epsilon(w.alpha, 1.0 / np.tan(ev.theta / 2.0) ** 2)
    g_minus = _grow(w.beta * w.t, abs_pts ** 2, power=eps_lem[angle], alpha=w.alpha)
    ind = abs_pts <= w.lam / math.sqrt(2.0) * (1.0 + 1e-12)
    ab_t = w.alpha * w.beta * w.t
    kernel = ev.weights * np.sin(ev.phi) ** 2
    if d == 1:
        pref = math.sqrt(2.0) * ab_t
    else:
        kernel, pref = kernel / np.cos(ev.phi) ** (d - 2), 2.0 * ab_t
    inner = ev.node_sum(g_minus * fmp * ind, kernel).reshape(-1)
    cells = grid.cell_weights().reshape(-1)
    r = grid.abs_nodes().reshape(-1)
    g_mag = (w.values(grid) * np.abs(state.values)).reshape(-1)
    return pref * float(np.sum(cells * g_mag ** 2 * (1.0 + r * r) ** w.alpha * inner))


@pytest.mark.parametrize("grid, old, rtol", [
    (GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
     0.014728419878359187, 1e-13),
    (GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0),
     0.01566327865507684, 1e-13),
    (GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5),
     0.008548554915248913, 1e-6),
], ids=["full-1d", "radial-3d", "full-2d"])
def test_i_plus_by_substitution_matches_its_plan_reference(grid, old, rtol):
    # the reference is the I+ these grids pinned before it became a sum over
    # the operator's pairs; on the plane the two read |fhat(eta-)| at
    # different points, so they agree to the interpolation floor
    st = _mixture_state(grid)
    w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=grid.eta_max / math.sqrt(2))
    ref = _i_plus_through_a_plan(st, w)
    np.testing.assert_allclose(ref, old, rtol=1e-14, atol=0)
    np.testing.assert_allclose(commutation_error(st, w, _CS, _QUAD).i_plus_term,
                               ref, rtol=rtol, atol=0)


def test_i_plus_radial_d2_converges_to_its_continuum_value():
    # the pinned radial d=2 case with the radius integrated exactly and the
    # operator's angular rule kept: tools/make_oracles.py,
    # commutator_i_plus_radial_d2. Both discretizations of I+ are trapezoid
    # rules in the radius, with gaps of about 1.1 h^2 (sum over the pairs)
    # and 1.4 h^2 (plan reference) at n = 128 and 256
    oracle = 7.357754834909e-3
    gaps = []
    for n in (128, 256):
        g = GridSpec(dimension=2, mode="radial", n=n, eta_max=6.0)
        st = _mixture_state(g)
        w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=g.eta_max / math.sqrt(2))
        new = abs(commutation_error(st, w, _CS, _QUAD).i_plus_term / oracle - 1.0)
        ref = abs(_i_plus_through_a_plan(st, w) / oracle - 1.0)
        h2 = g.spacing ** 2
        assert new <= ref <= 2.0 * h2, (n, new, ref, h2)
        gaps.append((new, ref))
    for coarse, fine in zip(*gaps):
        assert 3.5 <= coarse / fine <= 4.5


def test_commutator_builds_no_interpolation_plan(monkeypatch):
    built = []

    class CountedPlan(_InterpPlan):
        def __init__(self, grid, points, *order):
            built.append(grid)
            super().__init__(grid, points, *order)

    grids = (
        GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        GridSpec(dimension=2, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5),
    )
    for g in grids:
        st = _mixture_state(g)
        w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=g.eta_max / math.sqrt(2))
        ev = col._evaluator(g, _CS, _QUAD)
        with monkeypatch.context() as m:
            m.setattr(diag, "_InterpPlan", CountedPlan)
            m.setattr(col, "_InterpPlan", CountedPlan)
            commutation_error(st, w, _CS, _QUAD)
        # every off-grid read is one of the live operator's gathers
        assert built == [] and col._evaluator(g, _CS, _QUAD) is ev, g.mode


def test_commutator_refines_f_and_gf_once(monkeypatch):
    calls = []

    def counting(grid, values):
        calls.append(grid)
        return refine_array(grid, values)

    monkeypatch.setattr(diag, "refine_array", counting)
    monkeypatch.setattr(col, "refine_array", counting)
    grids = (
        GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0),
        GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5),
    )
    for g in grids:
        st = _mixture_state(g)
        w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=g.eta_max / math.sqrt(2))
        calls.clear()
        rep = commutation_error(st, w, _CS, _QUAD)
        assert len(calls) == 2, g.mode
        # the lhs is the pairing of the operator's own Q(f, Gf) - G Q(f, f),
        # bit for bit
        gv = w.values(g)
        gf = gv * st.values
        dq = (rhs_bilinear(g, _CS, _QUAD, st.values, gf)
              - gv * rhs_bilinear(g, _CS, _QUAD, st.values, st.values))
        cells = g.cell_weights().reshape(-1)
        assert rep.lhs == float(np.sum(cells * (dq * np.conj(gf)).reshape(-1)).real)


def test_sandwich_zero_at_t0():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    st = _mixture_state(g)
    w = GevreyWeight(alpha=0.5, beta=0.15, t=0.0, lam=g.eta_max / math.sqrt(2))
    rep = commutation_error(st, w, _CS, _QUAD)
    assert rep.lhs == 0.0
    assert rep.i_term == 0.0 and rep.i_plus_term == 0.0 and rep.rhs_bound == 0.0


def test_lhs_linear_in_small_t():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    st = _mixture_state(g)
    lam = g.eta_max / math.sqrt(2)
    l_t = commutation_error(st, GevreyWeight(alpha=0.6, beta=0.2, t=0.1, lam=lam),
                            _CS, _QUAD).lhs
    l_half = commutation_error(st, GevreyWeight(alpha=0.6, beta=0.2, t=0.05, lam=lam),
                               _CS, _QUAD).lhs
    assert abs(2.0 * l_half - l_t) <= 0.05 * abs(l_t)


def test_commutator_radial_matches_full_grid():
    datum = InitialDatum(kind="gaussian", dimension=2, sigma=0.45)
    sr = init_state(GridSpec(dimension=2, mode="radial", n=128, eta_max=6.0), datum)
    sf = init_state(GridSpec(dimension=2, mode="full-2d", n=64, eta_max=6.0), datum)
    w = GevreyWeight(alpha=0.5, beta=0.15, t=0.2, lam=6.0 / math.sqrt(2))
    rr = commutation_error(sr, w, _CS, _QUAD)
    rf = commutation_error(sf, w, _CS, _QUAD)
    assert abs(rr.lhs - rf.lhs) <= 1e-3 * abs(rf.lhs)
    assert abs(rr.i_term - rf.i_term) <= 0.02 * rf.i_term
    assert abs(rr.i_plus_term - rf.i_plus_term) <= 0.02 * rf.i_plus_term


def test_commutator_needs_finite_cutoff():
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    st = _mixture_state(g)
    with pytest.raises(ConfigError):
        commutation_error(st, GevreyWeight(alpha=0.5, beta=0.1, t=0.1), _CS, _QUAD)
    with pytest.raises(ConfigError):
        commutation_error(
            st, GevreyWeight(alpha=0.5, beta=0.1, t=0.1, lam=10.0), _CS, _QUAD)


# ---------------------------------------------------------------------------
# kernel constants, rate selection, split angles
# ---------------------------------------------------------------------------

def test_cb_constants_frozen():
    # adaptive-quadrature references
    assert abs(cb_constant(CrossSection(nu=0.25), 1) - 8.504181197542e-01) < 1e-10
    assert abs(cb_constant(CrossSection(nu=0.25), 2, "plain") - 9.351964787591e-01) < 1e-10
    assert abs(cb_constant(CrossSection(nu=0.5), 1) - 1.468284791574e+00) < 1e-10
    assert abs(cb_constant(CrossSection(nu=0.5), 2, "plain") - 1.215317279615e+00) < 1e-10
    # 50-digit references (tools/make_oracles.py: a Taylor head on [0, 0.05]
    # plus mp.quad), c_b1 over [-pi/4, pi/4] and c_bd2 over (0, pi/2]; the
    # series is exact from theta = 0, where a graded rule cut at 1e-12 read
    # -1.2e-6, -4.2e-3 and -58% at nu = 0.75, 0.9 and 0.99
    frozen = {0.25: (0.850418119755384612490053775251, 0.935196478759717559213836737523),
              0.5: (1.46828479157381427398828646978, 1.21531727961488482728551831667),
              0.75: (3.40559122731079573257370113215, 2.16119646026135487408480167685),
              0.9: (9.35769671231178363004246268612, 5.12617105763557949237082543779),
              0.99: (99.3235681478288181854267808769, 50.1033184163692116216482268252)}
    for nu, (cb1, cbd2) in frozen.items():
        cs = CrossSection(nu=nu)
        for d, want in ((1, cb1), (2, cbd2), (3, 2 * math.pi * cbd2)):
            assert abs(cb_constant(cs, d) / want - 1.0) < 1e-13, (nu, d)
    cs = CrossSection(nu=0.4)
    assert cb_constant(cs, 2, "scaled") == cb_constant(cs, 2, "plain")
    assert np.isclose(cb_constant(cs, 3, "scaled"),
                      2 * math.pi * cb_constant(cs, 3, "plain"), rtol=1e-13)
    with pytest.raises(ConfigError):
        cb_constant(cs, 1, "plain")
    with pytest.raises(ConfigError):
        cb_constant(cs, 4)


@pytest.mark.parametrize("nu, bound", [(0.25, 2e-9), (0.75, 3e-8)])
def test_planar_rule_prices_the_sin2_moment(nu, bound):
    # the planar operator's S = sum over +-theta of w b sin^2(theta), read
    # from its own weights and angles, is 2 c_b less the cone below theta_min
    # that the rule leaves out. The difference is the graded rule's own
    # error: 8.3e-10 relative at nu = 1/4 and 1.4e-8 at 3/4 on the
    # planar-2d bench grid; each bound is about twice that
    grid = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    quad = AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5)
    cs = CrossSection(nu=nu)
    ev = col._Evaluator(grid, cs, quad)
    s = float(np.sum(ev.weights * np.sin(ev.theta) ** 2))
    want = 2.0 * cb_constant(cs, 2) - 2.0 * diag._sin2_moment(nu, quad.theta_min)
    assert abs(s / want - 1.0) < bound


def test_beta_recommendation_formulas():
    cs = CrossSection(nu=0.25)
    cb1 = cb_constant(cs, 1)
    want = 1.0 / ((1 + math.sqrt(2)) * cb1 * 0.5 * 1.0 * 3.0 + 1.0)
    assert np.isclose(beta_recommendation(3.0, 1.0, 0.5, cs, 1), want, rtol=1e-13)
    cb2 = cb_constant(cs, 2, "plain")
    want2 = 1.0 / ((1 + 2.0) * cb2 * 0.5 * 1.0 * 3.0 + 1.0)
    assert np.isclose(beta_recommendation(3.0, 1.0, 0.5, cs, 2, part="II"),
                      want2, rtol=1e-13)
    # part III needs the second moment bound and both split angles
    with pytest.raises(ConfigError):
        beta_recommendation(3.0, 1.0, 0.5, cs, 2, part="III")
    v = beta_recommendation(3.0, 1.0, 0.5, cs, 2, part="III", M2=5.0,
                            theta0=0.5, vartheta0=0.4)
    assert 0.0 < v < 1.0
    for part in ("II", "III"):
        with pytest.raises(ConfigError):
            beta_recommendation(3.0, 1.0, 0.5, cs, 1, part=part,
                                M2=5.0, theta0=0.5, vartheta0=0.4)
    with pytest.raises(ConfigError):
        beta_recommendation(3.0, 1.0, 0.5, cs, 2, part="IV")
    with pytest.raises(ConfigError):
        beta_recommendation(-1.0, 1.0, 0.5, cs, 1)


def test_angle_thresholds_defining_property():
    with pytest.raises(ConfigError):
        angle_thresholds(0.5, 1)
    cap = math.pi / 4 * (1 - 1e-9)
    # mild alpha: the exponent never reaches the target, both hit the cap
    th0, vt0 = angle_thresholds(0.6, 2)
    assert th0 == cap and vt0 == cap
    # sharp alpha and large m force an interior threshold
    th0, vt0 = angle_thresholds(0.98, 8)
    target = 16.0 / 18.0
    assert vt0 < cap
    assert epsilon(0.98, 1.0 / math.tan(vt0) ** 2) <= target + 1e-9
    assert epsilon(0.98, 1.0 / math.tan(min(vt0 * 1.01, cap)) ** 2) > target
    assert epsilon(0.98, 1.0 / math.tan(th0 / 2) ** 2) <= target + 1e-9
    assert vt0 <= th0  # eta+ window closes first: cot(v)^2 > cot^2(th/2) at v=th


# ---------------------------------------------------------------------------
# induction schedule on a short reference run
# ---------------------------------------------------------------------------

def _short_kac_run():
    g = GridSpec(dimension=1, mode="full-1d", n=161, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5)
    traj = run(st, cs, quad, dt=2e-3, t_end=0.2,
               snapshot_times=(0.0, 0.1, 0.2))
    return traj, cs


def test_schedule_chain_geometry():
    traj, cs = _short_kac_run()
    states = [s for _, s in traj.snapshots]
    sched = build_induction_schedule(states, part="I", m=2, alpha=0.2,
                                     T0=0.2, cs=cs)
    factor = (1 + math.sqrt(2)) / 2
    assert abs(sched.scales[0] - 4.0 / (math.sqrt(2) - 1)) < 1e-12
    for a, b in zip(sched.scales, sched.scales[1:]):
        assert np.isclose(b, a * factor, rtol=1e-13)
    cap = 16.0 / math.sqrt(2)
    assert sched.scales[-1] <= cap * (1 + 1e-12)
    assert sched.scales[-1] * factor > cap
    assert sched.M >= 2 * sched.A_m + 1 - 1e-12
    assert 0 < sched.beta <= sched.beta_formula + 1e-15
    with pytest.raises(ConfigError):
        build_induction_schedule(states, part="II", m=2, alpha=0.2, T0=0.2, cs=cs)
    with pytest.raises(ConfigError):
        build_induction_schedule(states, part="I", m=2, alpha=0.9, T0=0.2, cs=cs)


def test_schedule_chain_reaches_the_grid_cap():
    # a wide grid needs 18 scales from the part-III base 3.0 to
    # eta_max/sqrt(2) = 84.85; the chain must not stop short of it
    g = GridSpec(dimension=3, mode="radial", n=128, eta_max=120.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=3, sigma=0.05))
    sched = build_induction_schedule([st], part="III", m=2, alpha=0.25,
                                     T0=0.2, cs=CrossSection(nu=0.5))
    cap = 120.0 / math.sqrt(2)
    factor = (1 + math.sqrt(2)) / 2
    assert len(sched.scales) == 18
    assert abs(sched.scales[-1] - 73.59) < 5e-3
    assert sched.scales[-1] <= cap < sched.scales[-1] * factor


def test_hypothesis_rows_pass_on_short_run():
    traj, cs = _short_kac_run()
    states = [s for _, s in traj.snapshots]
    sched = build_induction_schedule(states, part="I", m=2, alpha=0.2,
                                     T0=0.2, cs=cs)
    rows = check_hypotheses(traj, sched, n_random=16, seed=0)
    assert len(rows) == len(sched.scales) * len(traj.snapshots)
    for r in rows:
        assert r.hyp1 <= sched.M * (1 + 1e-9)
        assert r.hyp2 is None and r.hyp3 is None  # part I tracks Hyp1 only
        assert r.weighted_l2 <= sched.B * (1 + 1e-9)
        assert r.passed


def test_schedule_refuses_moment_orders_above_four():
    g = GridSpec(dimension=1, mode="full-1d", n=161, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.25)
    assert build_induction_schedule([st], part="I", m=4, alpha=0.2, T0=0.2,
                                    cs=cs).m == 4
    # A_m is priced with the order-4 moment, an upper bound only up to m = 4
    with pytest.raises(ConfigError, match="moments stop at order 4"):
        build_induction_schedule([st], part="I", m=5, alpha=0.2, T0=0.2, cs=cs)


@pytest.mark.parametrize("m", [3, 4])
def test_moment_norm_bounds_its_integral(m):
    # unit Gaussian on the line: A_m = 1 + 2 + 3 = 6 against the integrals
    # 3.27 (m = 3) and 6 (m = 4); planar sigma = 0.7 reads 4.8807987 (closed
    # form 4.8808) against 3.02 and 4.88
    cases = ((GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0), 1.0),
             (GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0), 0.7))
    for g, sigma in cases:
        d = g.dimension
        st = init_state(g, InitialDatum(kind="gaussian", dimension=d, sigma=sigma))
        v, f, dv = to_physical(st)
        v2 = sum(a ** 2 for a in np.meshgrid(*([v] * d), indexing="ij"))
        exact = float(np.sum(f * (1.0 + v2) ** (m / 2.0)) * dv ** d)
        a_m = diag._l1m_norm(st, m)
        assert a_m >= exact * (1.0 - 1e-12)
        assert np.isclose(a_m, 1.0 + 2.0 * d * sigma ** 2
                          + d * (d + 2) * sigma ** 4, rtol=1e-6)


def test_hypotheses_price_each_snapshot_at_its_state_time():
    g = GridSpec(dimension=1, mode="full-1d", n=161, eta_max=16.0)
    s0 = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    s1 = fractional_heat_evolve(s0, 0.25, 0.2)
    sched = build_induction_schedule([s0, s1], part="I", m=2, alpha=0.2,
                                     T0=0.2, cs=CrossSection(nu=0.25))
    rows = check_hypotheses(SimpleNamespace(snapshots=[(0.0, s0), (0.2, s1)],
                                            final=s1), sched)
    assert {r.t for r in rows} == {0.0, 0.2}
    # pair times that disagree with their states are not read
    assert check_hypotheses(SimpleNamespace(snapshots=[(0.1, s0), (0.0, s1)],
                                            final=s1), sched) == rows


def _planar_frame(ehat):
    """The two unit vectors orthogonal to a planar direction, weight 1 each."""
    return np.array([[-ehat[1], ehat[0]], [ehat[1], -ehat[0]]]), np.ones(2)


def _hyp3_per_direction(state, fine, sched, lam, dirs, theta_nodes=48,
                        n_radii=24):
    """Part-III supremum with one interpolation plan per (direction, radius,
    angle branch)."""
    grid = state.grid
    d = grid.dimension
    p = 2.0 * sched.m / (2.0 * sched.m + 1.0)
    bt = sched.beta * state.t
    sq2lam = math.sqrt(2.0) * lam
    radii = np.linspace(sq2lam / n_radii, sq2lam, n_radii)
    th_a, w_a = diag._gl_rule(sched.theta0, math.pi / 2.0, theta_nodes)
    th_b, w_b = diag._gl_rule(sched.vartheta0, math.pi / 4.0, theta_nodes)
    sup = 0.0
    for ehat in dirs:
        om, om_w = _planar_frame(ehat)
        for r0 in radii:
            half = th_a / 2.0
            base = (r0 * np.sin(half) ** 2)[:, None] * ehat[None, :]
            swing = (r0 * np.sin(half) * np.cos(half))
            pts = base[:, None, :] - swing[:, None, None] * om[None, :, :]
            rad = np.linalg.norm(pts, axis=-1)
            vals = np.abs(_InterpPlan(grid, pts.reshape(-1, d)).apply(fine))
            vals = vals.reshape(len(th_a), len(om))
            g = _grow(bt, rad ** 2, power=p, alpha=sched.alpha)
            ind = rad <= lam * (1.0 + 1e-12)
            sup = max(sup, float(np.sum(w_a * ((g * vals * ind) @ om_w))))
            pts = -(r0 * np.tan(th_b))[:, None, None] * om[None, :, :]
            rad = np.linalg.norm(pts, axis=-1)
            vals = np.abs(_InterpPlan(grid, pts.reshape(-1, d)).apply(fine))
            vals = vals.reshape(len(th_b), len(om))
            g = _grow(bt, rad ** 2, power=p, alpha=sched.alpha)
            ind = rad <= lam * (1.0 + 1e-12)
            sup = max(sup, float(np.sum(w_b * ((g * vals * ind) @ om_w))))
    return sup


def _keep_one_angle_branch(monkeypatch, branch):
    """Zero the angle rule of the other part-III branch, so that the
    supremum comes from this one (the theta_a branch dominates otherwise)."""
    if branch is None:
        return
    rule = diag._gl_rule
    other = math.pi / 4.0 if branch == "theta_a" else math.pi / 2.0

    def one_branch(lo, hi, n):
        x, w = rule(lo, hi, n)
        return x, w * (hi != other)
    monkeypatch.setattr(diag, "_gl_rule", one_branch)


@pytest.mark.parametrize("branch", [None, "theta_a", "theta_b"])
def test_part3_hypotheses_match_per_direction_sweep(branch, monkeypatch):
    _keep_one_angle_branch(monkeypatch, branch)
    g = GridSpec(dimension=2, mode="full-2d", n=32, eta_max=8.0)
    s0 = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.3))
    s1 = fractional_heat_evolve(s0, 0.8, 0.5)
    # alpha = 0.8 opens the theta_b window: vartheta0 = 0.61 < pi/4
    sched = build_induction_schedule([s0, s1], part="III", m=2, alpha=0.8,
                                     T0=0.5, cs=CrossSection(nu=0.8))
    assert sched.vartheta0 < 0.7
    # a flat transform at t > 0: the weighted integrand grows with the
    # radius, so the cutoff at the scale decides the supremum
    flat = state_with_values(s0, np.ones(g.shape, dtype=complex), t=0.25)
    flow = SimpleNamespace(snapshots=[(0.0, s0), (0.25, flat), (0.5, s1)],
                           final=s1)
    rows = check_hypotheses(flow, sched, n_random=8, seed=3)
    assert len(sched.scales) >= 3
    assert len(rows) == 3 * len(sched.scales)
    dirs = _unit_directions(2, 8, np.random.default_rng(3))
    states = dict(flow.snapshots)
    for r in rows:
        s = states[r.t]
        want = _hyp3_per_direction(s, refine_array(g, s.values), sched,
                                   r.scale, dirs)
        assert want > 0.0
        assert r.hyp3 == want


def _hyp2_per_direction(state, fine, sched, lam, dirs):
    """Part-II supremum with one interpolation plan per direction, over the
    32 x 32 polar (z, rho) lattice of the sector pi/4 < phi < pi/2."""
    idx = np.arange(32)
    rad = lam * (idx + 1) / 32.0
    phi = math.pi / 4.0 + math.pi / 4.0 * (idx + 0.5) / 32.0
    rr, pp = np.meshgrid(rad, phi, indexing="ij")
    z = rr.reshape(-1) * np.cos(pp.reshape(-1))
    rho = rr.reshape(-1) * np.sin(pp.reshape(-1))
    g = _grow(sched.beta * state.t, z ** 2 + rho ** 2,
              power=epsilon(sched.alpha, 1.0), alpha=sched.alpha)
    sup = 0.0
    for zeta in dirs:
        om, om_w = _planar_frame(zeta)
        pts = (z[:, None, None] * zeta[None, None, :]
               - rho[:, None, None] * om[None, :, :])
        vals = np.abs(_InterpPlan(state.grid, pts.reshape(-1, 2)).apply(fine))
        sup = max(sup, float((g * (vals.reshape(len(z), 2) @ om_w)).max()))
    return sup


def test_part2_hypotheses_match_per_direction_sweep():
    g = GridSpec(dimension=2, mode="full-2d", n=48, eta_max=24.0)
    comps = ((0.6, (0.8, -0.3), 0.12), (0.4, (-0.5, 0.6), 0.08))
    s0 = init_state(g, InitialDatum(kind="gaussian-mixture", dimension=2,
                                    components=comps))
    s1 = fractional_heat_evolve(s0, 0.5, 0.5)
    sched = build_induction_schedule([s0, s1], part="II", m=2, alpha=0.5,
                                     T0=0.5, cs=CrossSection(nu=0.5))
    # off-center components make |fhat| depend on the direction; the flat
    # transform puts the supremum at the edge of the lattice
    flat = state_with_values(s0, np.ones(g.shape, dtype=complex), t=0.25)
    flow = SimpleNamespace(snapshots=[(0.0, s0), (0.25, flat), (0.5, s1)],
                           final=s1)
    rows = check_hypotheses(flow, sched, n_random=8, seed=3)
    assert len(sched.scales) == 2
    assert len(rows) == 3 * len(sched.scales)
    dirs = _unit_directions(2, 8, np.random.default_rng(3))
    states = dict(flow.snapshots)
    for r in rows:
        s = states[r.t]
        want = _hyp2_per_direction(s, refine_array(g, s.values), sched,
                                   r.scale, dirs)
        assert want > 0.0
        assert r.hyp2 == want and r.hyp1 is not None and r.hyp3 is None


def _radial_flow(d):
    """A laplace datum and its fractional-heat flow, which the schedule is
    built from, and between them a flat transform at t > 0, whose weighted
    supremum sits at the cutoff."""
    g = GridSpec(dimension=d, mode="radial", n=128, eta_max=24.0)
    s0 = init_state(g, InitialDatum(kind="laplace", dimension=d, a=0.5))
    s1 = fractional_heat_evolve(s0, 0.5, 0.5)
    flat = state_with_values(s0, np.ones(g.shape, dtype=complex), t=0.25)
    return SimpleNamespace(snapshots=[(0.0, s0), (0.25, flat), (0.5, s1)],
                           final=s1), [s0, s1]


# |S^{d-2}|: the two points of S^0, the circumference of S^1
_RADIAL_MEASURE = {2: 2.0, 3: 2.0 * math.pi}


@pytest.mark.parametrize("d", [2, 3])
def test_part2_hypotheses_on_radial_grids(d):
    flow, states = _radial_flow(d)
    sched = build_induction_schedule(states, part="II", m=2, alpha=0.5,
                                     T0=0.5, cs=CrossSection(nu=0.5))
    rows = check_hypotheses(flow, sched, seed=2)
    assert len(rows) == 3 * len(sched.scales)
    for r in rows:
        s = dict(flow.snapshots)[r.t]
        radii = s.grid.axis_nodes()
        inside = radii <= r.scale * (1.0 + 1e-12)
        g = _grow(sched.beta * s.t, radii[inside] ** 2,
                  power=epsilon(sched.alpha, 1.0), alpha=sched.alpha)
        want = _RADIAL_MEASURE[d] * float((g * np.abs(s.values)[inside]).max())
        assert r.hyp2 == want and r.hyp3 is None
    assert rows[0].hyp2 == _RADIAL_MEASURE[d]  # fhat(0) = 1 at t = 0


def _hyp3_per_radius(state, fine, sched, lam, theta_nodes=48, n_radii=24):
    """Radial part-III supremum with one interpolation plan per radius and
    angle branch."""
    grid = state.grid
    p = 2.0 * sched.m / (2.0 * sched.m + 1.0)
    sq2lam = math.sqrt(2.0) * lam
    th_a, w_a = diag._gl_rule(sched.theta0, math.pi / 2.0, theta_nodes)
    th_b, w_b = diag._gl_rule(sched.vartheta0, math.pi / 4.0, theta_nodes)
    sup = 0.0
    for r0 in np.linspace(sq2lam / n_radii, sq2lam, n_radii):
        for rm, wq in ((r0 * np.sin(th_a / 2.0), w_a), (r0 * np.tan(th_b), w_b)):
            vals = np.abs(_InterpPlan(grid, rm).apply(fine))
            g = _grow(sched.beta * state.t, rm ** 2, power=p, alpha=sched.alpha)
            ind = rm <= lam * (1.0 + 1e-12)
            sup = max(sup, _RADIAL_MEASURE[grid.dimension]
                      * float(np.sum(wq * g * vals * ind)))
    return sup


@pytest.mark.parametrize("branch", [None, "theta_a", "theta_b"])
@pytest.mark.parametrize("d", [2, 3])
def test_part3_hypotheses_on_radial_grids(d, branch, monkeypatch):
    _keep_one_angle_branch(monkeypatch, branch)
    flow, states = _radial_flow(d)
    # nu = 0.9 lets alpha reach alpha_{2,1} = 0.848: vartheta0 = 0.45 < pi/4
    sched = build_induction_schedule(states, part="III", m=2,
                                     alpha=alpha_md(2, 1), T0=0.5,
                                     cs=CrossSection(nu=0.9))
    assert sched.vartheta0 < 0.5
    rows = check_hypotheses(flow, sched, seed=2)
    assert len(rows) == 3 * len(sched.scales) and len(sched.scales) >= 3
    for r in rows:
        s = dict(flow.snapshots)[r.t]
        want = _hyp3_per_radius(s, refine_array(s.grid, s.values), sched, r.scale)
        assert want > 0.0
        assert r.hyp3 == pytest.approx(want, rel=1e-13, abs=0.0)
        assert r.hyp2 is None


def test_hypotheses_of_a_run_without_snapshots_and_the_window_guard():
    flow, states = _radial_flow(2)
    sched = build_induction_schedule(states, part="III", m=2,
                                     alpha=alpha_md(2, 1), T0=0.5,
                                     cs=CrossSection(nu=0.9))
    # no snapshots: the final state is checked
    rows = check_hypotheses(SimpleNamespace(snapshots=[], final=states[1]),
                            sched, seed=2)
    assert rows == [r for r in check_hypotheses(flow, sched, seed=2)
                    if r.t == 0.5]
    # the schedule's upper scales do not fit this grid's sqrt(2) window
    g = GridSpec(dimension=2, mode="radial", n=64, eta_max=8.0)
    s = init_state(g, InitialDatum(kind="laplace", dimension=2, a=0.5))
    with pytest.raises(ConfigError, match="exceeds the grid"):
        check_hypotheses(SimpleNamespace(snapshots=[(0.0, s)], final=s), sched)


def _sweep_case(case):
    """A three-snapshot flow and its schedule: planar 32 x 32 parts II and
    III (off-center data, a flat transform at t > 0) and radial part III."""
    if case == "radial-III":
        flow, states = _radial_flow(2)
        return flow, build_induction_schedule(states, part="III", m=2,
                                              alpha=alpha_md(2, 1), T0=0.5,
                                              cs=CrossSection(nu=0.9))
    part = case.split("-")[1]
    g = GridSpec(dimension=2, mode="full-2d", n=32,
                 eta_max=24.0 if part == "II" else 8.0)
    comps = ((0.6, (0.8, -0.3), 0.12), (0.4, (-0.5, 0.6), 0.08))
    s0 = init_state(g, InitialDatum(kind="gaussian-mixture", dimension=2,
                                    components=comps))
    # alpha = 0.8 opens the part-III theta_b window; part II stops at 0.737
    alpha = 0.5 if part == "II" else 0.8
    s1 = fractional_heat_evolve(s0, alpha, 0.5)
    flat = state_with_values(s0, np.ones(g.shape, dtype=complex), t=0.25)
    sched = build_induction_schedule([s0, s1], part=part, m=2, alpha=alpha,
                                     T0=0.5, cs=CrossSection(nu=alpha))
    return SimpleNamespace(snapshots=[(0.0, s0), (0.25, flat), (0.5, s1)],
                           final=s1), sched


@pytest.mark.parametrize("case", ["planar-II", "planar-III", "radial-III"])
def test_hypotheses_of_a_flow_are_those_of_its_snapshots(case):
    flow, sched = _sweep_case(case)
    alone = [r for t, s in flow.snapshots
             for r in check_hypotheses(SimpleNamespace(snapshots=[(t, s)], final=s),
                                       sched, n_random=8, seed=3)]
    rows = check_hypotheses(flow, sched, n_random=8, seed=3)
    assert len(rows) == 3 * len(sched.scales) >= 6
    assert rows == sorted(alone, key=lambda r: (r.scale, r.t))


@pytest.mark.parametrize("case, per_scale", [("planar-II", 1), ("planar-III", 2),
                                             ("radial-III", 2)])
def test_hypothesis_sweeps_build_each_plan_once_per_scale(case, per_scale,
                                                          monkeypatch):
    flow, sched = _sweep_case(case)
    live, alive_at_build = weakref.WeakSet(), []

    class CountedPlan(_InterpPlan):
        def __init__(self, grid, points):
            alive_at_build.append(len(live))
            live.add(self)
            super().__init__(grid, points)

    monkeypatch.setattr(diag, "_InterpPlan", CountedPlan)
    for k in (1, 2, 3):
        alive_at_build.clear()
        part = SimpleNamespace(snapshots=flow.snapshots[:k], final=flow.final)
        assert len(check_hypotheses(part, sched, n_random=8, seed=3)) == \
            k * len(sched.scales)
        assert len(alive_at_build) == per_scale * len(sched.scales)
        # each plan is dropped before the next one is built
        assert max(alive_at_build) == 0


# ---------------------------------------------------------------------------
# mass to negative-Sobolev embedding, polynomial multiplier norm, L log L
# ---------------------------------------------------------------------------

def test_embedding_constants():
    assert abs(embedding_constant(1) - math.sqrt(math.pi)) < 1e-12
    assert abs(embedding_constant(2) - math.sqrt(math.pi)) < 1e-12
    assert abs(embedding_constant(3) - math.pi / 2) < 1e-12
    assert abs(bracket_integral(1, 2.0) - math.pi) < 1e-12
    with pytest.raises(ConfigError):
        bracket_integral(2, 2.0)


def test_mass_controls_negative_sobolev_norm():
    cases = [
        (GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0),
         InitialDatum(kind="laplace", dimension=1, a=1.0, mass=1.3)),
        (GridSpec(dimension=2, mode="radial", n=128, eta_max=8.0),
         InitialDatum(kind="gaussian", dimension=2, sigma=0.8, mass=0.7)),
        (GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0),
         InitialDatum(kind="laplace", dimension=3, a=0.9, mass=2.0)),
    ]
    for g, datum in cases:
        st = init_state(g, datum)
        d = g.dimension
        assert negative_sobolev_norm(st, d) <= embedding_constant(d) * datum.mass


def test_hinf_norm_monotone_under_heat_flow():
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    vals = [hinf_weighted_norm(fractional_heat_evolve(st, 0.5, t), beta=2.0)
            for t in (0.0, 0.2, 0.4)]
    assert all(np.isfinite(v) for v in vals)
    assert vals[0] >= vals[1] >= vals[2]
    assert np.isclose(vals[0], negative_sobolev_norm(st, 1.0), rtol=1e-13)
    with pytest.raises(ConfigError):
        hinf_weighted_norm(st, beta=-1.0)


def test_llogl_bound_and_entropy_values():
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    sg = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    rg = entropy_and_llogl(sg)
    assert rg.bound_ok
    assert abs(rg.entropy - (-1.418938533205)) < 1e-10
    sl = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    rl = entropy_and_llogl(sl)
    assert rl.bound_ok
    assert abs(rl.entropy - (-1.693147180560)) < 5e-3
    assert rl.llogl >= 0.0


def test_llogl_on_a_planar_state():
    g = GridSpec(dimension=2, mode="full-2d", n=64, eta_max=4.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.7))
    rep = entropy_and_llogl(st)
    assert rep.bound_ok
    assert rep.entropy == entropy(st)
    # closed form -log(2 pi e sigma^2) = -2.1245271785; the grid reads
    # -2.1245271116
    assert abs(rep.entropy + math.log(2.0 * math.pi * math.e * 0.49)) < 1e-7
