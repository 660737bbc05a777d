"""Closed-form constants and the elementary inequality checks."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kinb.inequalities as ineq
from kinb.errors import ConfigError
from kinb.inequalities import (LambdaPoints, TrigPoly, alpha_md, epsilon,
                               expdiff_check, kl_check, kl_constant,
                               optimize_lambdas, pointwise_from_l2_check,
                               required_moment)

# ---------------------------------------------------------------------------
# epsilon
# ---------------------------------------------------------------------------


def test_epsilon_frozen_values():
    assert abs(epsilon(0.5, 1.0) - (2.0 ** 0.5 - 1.0)) < 1e-15
    assert abs(epsilon(0.5, 1.0) - 0.4142136) < 1e-6
    # 2 - sqrt(3), evaluated in high precision beforehand
    assert abs(epsilon(0.5, 3.0) - 0.267949192431) < 1e-11


def test_epsilon_alpha_one_telescopes():
    for u in (0.0, 0.3, 1.0, 7.5, 120.0):
        assert abs(epsilon(1.0, u) - 1.0) < 1e-12


@given(alpha=st.floats(1e-3, 1.0 - 1e-9),
       u1=st.floats(0.0, 80.0), u2=st.floats(0.0, 80.0))
def test_epsilon_decreasing_in_u(alpha, u1, u2):
    lo, hi = min(u1, u2), max(u1, u2)
    assert epsilon(alpha, hi) <= epsilon(alpha, lo) + 1e-12


@given(a1=st.floats(1e-3, 1.0), a2=st.floats(1e-3, 1.0),
       u=st.floats(1e-6, 80.0))
def test_epsilon_increasing_in_alpha(a1, a2, u):
    lo, hi = min(a1, a2), max(a1, a2)
    assert epsilon(hi, u) >= epsilon(lo, u) - 1e-12


@given(alpha=st.floats(1e-3, 1.0 - 1e-6), u=st.floats(1e-9, 200.0))
def test_epsilon_power_bound(alpha, u):
    assert epsilon(alpha, u) <= u ** (alpha - 1.0) + 1e-12


@given(alpha=st.floats(1e-3, 1.0), sm=st.floats(1e-9, 40.0),
       rel=st.floats(0.0, 60.0))
def test_epsilon_subadditivity(alpha, sm, rel):
    sp = sm + rel
    lhs = (1.0 + sm + sp) ** alpha
    rhs = epsilon(alpha, sp / sm) * (1.0 + sm) ** alpha + (1.0 + sp) ** alpha
    assert lhs <= rhs * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# smoothing exponents
# ---------------------------------------------------------------------------


def test_alpha_md_defining_identity():
    for m in range(1, 17):
        for n in range(1, 9):
            got = epsilon(alpha_md(m, n), 1.0)
            assert abs(got - 2.0 * m / (2.0 * m + n)) < 1e-12


def test_alpha_md_increasing_to_one():
    vals = [alpha_md(m, 2) for m in (1, 2, 4, 16, 64, 1024)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0
    assert alpha_md(10 ** 6, 2) > 0.999999


# ---------------------------------------------------------------------------
# moment requirement
# ---------------------------------------------------------------------------


def test_required_moment_threshold():
    # at nu* = log(9/5)/log 2 the bounded ratio is exactly 2
    nu_star = math.log(9.0 / 5.0) / math.log(2.0)
    assert required_moment(nu_star, bounded=True) == 2
    assert required_moment(nu_star, bounded=False) == 4
    assert required_moment(0.25, bounded=False) == 2
    assert required_moment(0.25, bounded=True) == 2
    # (2^0.9-1)/(2-2^0.9) = 6.466..., halved for the bounded variant
    assert required_moment(0.9, bounded=False) == 7
    assert required_moment(0.9, bounded=True) == 4


# ---------------------------------------------------------------------------
# derivative interpolation constants
# ---------------------------------------------------------------------------


def test_kl_constant_m2_hand_value():
    assert abs(kl_constant(2, [1.0]) - 8.0) < 1e-12


def _kl_vandermonde_norm_matrix(m, lam):
    """||V^{-1}|| by direct matrix inversion, V with rows (l, l^2, .., l^{m-1})."""
    V = np.vander(np.asarray(lam, dtype=float), N=m, increasing=True)[:, 1:]
    return float(np.abs(np.linalg.inv(V)).sum(axis=0).max())


def test_kl_constant_matches_matrix_inverse():
    rng = np.random.default_rng(7)
    for m in range(2, 7):
        for _ in range(20):
            lam = np.sort(rng.uniform(0.05, 1.0, size=m - 1))
            if m > 2 and np.min(np.diff(lam)) < 1e-3:
                continue
            formula = kl_constant(m, lam)
            direct = (2.0 ** m * math.factorial(m) * (m - 1)
                      * _kl_vandermonde_norm_matrix(m, lam))
            assert abs(formula - direct) < 1e-10 * max(1.0, direct)


def test_kl_constant_duplicate_points_rejected():
    with pytest.raises(Exception):
        kl_constant(3, [0.5, 0.5])


def test_kl_constant_blows_up_near_zero():
    assert kl_constant(2, [1e-6]) > 1e6


def test_optimize_lambdas_m2_and_determinism():
    lp = optimize_lambdas(2)
    assert lp.points == (1.0,)
    assert abs(lp.constant - 8.0) < 1e-12
    again = optimize_lambdas(3)
    assert optimize_lambdas(3) == again
    assert again.constant <= kl_constant(3, [0.5, 1.0]) + 1e-9


# optimize_lambdas(m) as the per-point line search returned it
_PINNED_LAMBDAS = (
    LambdaPoints(m=2, points=(1.0,), constant=8.0),
    LambdaPoints(m=3, points=(0.5, 1.0), constant=768.0),
    LambdaPoints(m=4, points=(0.26045394803329514, 0.8440014265382731, 1.0),
                 constant=37798.22123991975),
    LambdaPoints(m=5, points=(0.15658100424918756, 0.5672090054968679,
                              0.8765865132862163, 1.0),
                 constant=2313928.2481047427),
    LambdaPoints(m=6, points=(0.09142064403446253, 0.3966702859800407,
                              0.6901593972193657, 0.924959963389065, 1.0),
                 constant=165474076.31988192),
    # the longest descents
    LambdaPoints(m=7, points=(0.07947780843245307, 0.23658412742683704,
                              0.5516050275193679, 0.7343296763329169,
                              0.9730237310893548, 1.0),
                 constant=16006551490.031961),
    LambdaPoints(m=8, points=(0.04469131873802769, 0.16824790583728072,
                              0.4489003037308098, 0.6205981813093272,
                              0.8182670151602254, 0.9794122868736193, 1.0),
                 constant=1606776575430.6736),
)


def test_optimize_lambdas_pinned():
    for want in _PINNED_LAMBDAS:
        assert optimize_lambdas(want.m) == want


def _optimize_lambdas_per_start(m):
    """optimize_lambdas as one coordinate descent per start, run one start
    after another: the same starts, intervals, improvement rule and sweep
    cap, each line scored by its own `_kl_constants` call."""
    rng = np.random.default_rng(0)
    dim = m - 1

    def cost(rows):
        bad = (np.any((rows <= 0) | (rows > 1), axis=1)
               | np.any(np.diff(rows, axis=1) <= 1e-9, axis=1))
        return np.where(bad, math.inf, ineq._kl_constants(m, rows))

    def descend(lam):
        lam = lam.copy()
        best = cost(lam[None, :])[0]
        for _ in range(200):
            improved = False
            for j in range(dim):
                lo = lam[j - 1] + 1e-6 if j > 0 else 1e-6
                hi = lam[j + 1] - 1e-6 if j < dim - 1 else 1.0
                if hi <= lo:
                    continue
                grid = np.linspace(lo, hi, 257)
                rows = np.tile(lam, (grid.size, 1))
                rows[:, j] = grid
                vals = cost(rows)
                k = int(np.argmin(vals))
                if vals[k] < best - 1e-13:
                    lam[j] = grid[k]
                    best = vals[k]
                    improved = True
            if not improved:
                break
        return lam, best

    candidates = [np.linspace(1.0 / dim, 1.0, dim)]
    for _ in range(16):
        candidates.append(np.sort(rng.uniform(0.02, 1.0, size=dim)))
    best_lam, best_c = None, math.inf
    for c0 in candidates:
        lam, c = descend(np.asarray(c0, dtype=float))
        if c < best_c:
            best_lam, best_c = lam, c
    return LambdaPoints(m=m, points=tuple(float(x) for x in best_lam),
                        constant=float(best_c))


@pytest.mark.parametrize("m", range(2, 9))
def test_batched_descent_matches_one_descent_per_start(m):
    assert optimize_lambdas(m) == _optimize_lambdas_per_start(m)


def test_batched_kl_constants_match_scalar_formula():
    rng = np.random.default_rng(11)
    for m in range(2, 9):
        lam = np.sort(rng.uniform(0.01, 1.0, size=(300, m - 1)), axis=1)
        lam = lam[np.all(np.diff(lam, axis=1) > 1e-6, axis=1)]
        rows = ineq._kl_constants(m, lam)
        for point, got in zip(lam, rows):
            # the closed form as a scalar loop, in the same operation order
            best = 0.0
            for b in range(m - 1):
                prod = 1.0
                for v in range(m - 1):
                    if v != b:
                        prod *= (1.0 + point[v]) / abs(point[v] - point[b])
                best = max(best, prod / point[b])
            want = 2.0 ** m * math.factorial(m) * (m - 1) * best
            assert got == want
            assert kl_constant(m, point) == want


def test_kl_check_hand_example():
    # w(x) = x^2, m=2, k=1, u=1: ||w'|| = 2 <= 8 * (1 + 0 ... wait, with
    # ||w|| = 1 and ||w''|| = 2 the additive bound is 8 * (1 + 2) = 24
    res = kl_check([0.0, 0.0, 1.0], m=2, k=1, u=1.0)
    assert res.ok
    assert abs(res.lhs - 2.0) < 1e-9
    assert abs(res.additive_bound - 24.0) < 1e-9


def test_kl_check_constant_polynomial():
    res = kl_check([3.7], m=2, k=1, u=0.5)
    assert res.ok and res.lhs == 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kl_check_random_polynomials(data):
    deg = data.draw(st.integers(1, 6))
    coeffs = [data.draw(st.floats(-5.0, 5.0)) for _ in range(deg + 1)]
    m = data.draw(st.integers(2, 4))
    k = data.draw(st.integers(1, m - 1))
    u = data.draw(st.floats(0.05, 1.0))
    assert kl_check(coeffs, m=m, k=k, u=u).ok


def _poly_sup_01_oracle(p):
    """Sup norm on [0, 1] as _poly_sup_01 computes it, through
    np.polynomial.Polynomial objects."""
    best = float(np.abs(p(np.linspace(0.0, 1.0, 2048))).max())
    dp = p.deriv()
    scale = float(np.abs(dp.coef).max())
    if scale > 0.0:
        dp = dp.trim(tol=1e-250 + 1e-14 * scale)
    if dp.degree() >= 1:
        try:
            roots = dp.roots()
        except np.linalg.LinAlgError:
            return best
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = real[(real >= 0.0) & (real <= 1.0)]
        if inside.size:
            best = max(best, float(np.abs(p(inside)).max()))
    return best


@pytest.mark.parametrize("coeffs, order", [
    ([3.7], 0), ([0.0], 0), ([-2.5, 1.0], 1),        # constants
    ([1.0, -2.0, 0.5, 4.0], 4),                      # order above the degree
    ([1.0, -2.0, 0.5, 4.0], 9),
    ([0.0, 0.0, 1.0, -2.0, 1.0], 0),                 # x^2 (1 - x)^2: p' = 0 at 0, 1/2, 1
    ([0.0, 1.0, -1.5, 0.5], 0),                      # x (x - 1)(x - 2) / 2
    ([8.0 / 9.0, 2.0 / 3.0, -1.0], 0),               # peak 1 at 1/3, off the grid
    # a subnormal leader, trimmed: untrimmed, the companion matrix overflows
    # and the peak at 1/3 is missed
    ([8.0 / 9.0, 2.0 / 3.0, -1.0, 0.0, 1e-310], 0),
    ([0.3, -1.0, 2.0, -0.7, 5e-324], 1),
] + [(np.random.default_rng(deg).normal(size=deg + 1) * 3.0, order)
     for deg in range(1, 7) for order in range(4)])
def test_poly_sup_matches_polynomial_objects(coeffs, order):
    c = np.asarray(coeffs, dtype=float)
    want = _poly_sup_01_oracle(np.polynomial.Polynomial(c).deriv(order))
    assert ineq._poly_sup_01(np.polynomial.polynomial.polyder(c, order)) == want
    if coeffs[0] == 8.0 / 9.0:
        assert want == pytest.approx(1.0, rel=1e-15) and want > 1.0 - 1e-9


@pytest.mark.parametrize("coeffs", [
    np.random.default_rng(deg).normal(size=deg + 1) * 3.0 for deg in range(8)
] + [
    [1.0, -2.0], [-1.5, 2.0], [-0.0], [0.0, -3.0, 1.0],   # signs of the zero
    [8.0 / 9.0, 2.0 / 3.0, -1.0, 0.0, 1e-310],          # subnormal leaders
    [0.3, -1.0, 2.0, -0.7, 5e-324],
])
def test_deriv_matches_polyder_bit_for_bit(coeffs):
    c = np.asarray(coeffs, dtype=float)
    for k in range(9):
        got = ineq._deriv(c, k)
        want = np.polynomial.polynomial.polyder(c, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (k, got, want)


def test_kl_check_refuses_empty_coefficients():
    with pytest.raises(ConfigError, match="nonempty"):
        kl_check([], m=2, k=1, u=0.5)
    with pytest.raises(ConfigError, match="nonempty"):
        kl_check([[1.0, 2.0]], m=2, k=1, u=0.5)


# ---------------------------------------------------------------------------
# pointwise-from-L2
# ---------------------------------------------------------------------------


def test_pointwise_from_l2_constant_function():
    H = TrigPoly(1, 8.0, {(0,): 1.0})
    res = pointwise_from_l2_check(H, m=2, points=np.array([[0.4], [-1.2]]))
    assert res.ok
    # constant 1: per-axis factor 2*3*C_2 + 1 = 49, exponent 2/5, and the
    # cube integral is 2, so the right side is 98^(2/5)
    assert abs(res.constant * 2.0 ** 0.4 - 6.258790724606) < 1e-9


def test_pointwise_from_l2_zero_function():
    H = TrigPoly(1, 8.0, {(0,): 0.0})
    res = pointwise_from_l2_check(H, m=2, points=np.array([[0.0]]))
    assert res.ok


def test_pointwise_from_l2_random_2d():
    rng = np.random.default_rng(3)
    for trial in range(5):
        H = TrigPoly.random(2, kmax=2, period=8.0, seed=trial)
        pts = rng.uniform(-3.0, 3.0, size=(100, 2))
        res = pointwise_from_l2_check(H, m=2, points=pts)
        assert res.ok, res.failures


def _pointwise_reference(H, m, pts, L, side=2.0):
    """Per-point margins and failing indices of the pointwise-from-L2 check,
    with the cube integral of H^2 summed term by term."""
    sq = {}
    for k1, c1 in H.coeffs.items():
        for k2, c2 in H.coeffs.items():
            key = tuple(a + b for a, b in zip(k1, k2))
            sq[key] = sq.get(key, 0.0) + c1 * c2
    w = 2.0j * math.pi / H.period
    expo = m / (2.0 * m + H.n)
    integrals, margins, lhss, bad = [], [], [], []
    for i, x in enumerate(pts):
        total = 0.0j
        for k, c in sq.items():
            term = c
            for ki, xi in zip(k, x):
                a = xi if xi >= 0 else xi - side
                if ki == 0:
                    term *= side
                else:
                    term *= (cmath.exp(w * ki * (a + side)) - cmath.exp(w * ki * a)) / (w * ki)
            total += term
        lhs = abs(float(H.eval(x[None, :])[0]))
        margin = L * max(total.real, 0.0) ** expo - lhs
        integrals.append(total.real)
        margins.append(margin)
        lhss.append(lhs)
        if margin < -1e-9 * max(1.0, lhs):
            bad.append(i)
    return np.array(integrals), np.array(margins), np.array(lhss), bad


@pytest.mark.parametrize("dim,kmax", [(1, 4), (2, 2)])
def test_pointwise_from_l2_matches_per_point_reference(dim, kmax, monkeypatch):
    rng = np.random.default_rng(20 + dim)
    H = TrigPoly.random(dim, kmax, period=8.0, seed=dim)
    pts = rng.uniform(-3.0, 3.0, size=(400, dim))
    corners = np.where(pts >= 0, pts, pts - 2.0)
    for m in (2, 3):
        res = pointwise_from_l2_check(H, m, pts)
        assert res.constant == ineq._chain_constant(H, m)
        integrals, margins, lhs, bad = _pointwise_reference(H, m, pts, res.constant)
        scale = np.maximum(1.0, lhs)
        got = H.cube_integral_sq(corners)
        assert got.shape == (pts.shape[0],)
        assert np.all(np.abs(got - integrals) <= 1e-12 * np.maximum(1.0, np.abs(integrals)))
        # the separable sum reorders the term-by-term one: measured at most
        # 6.5e-16 (1-d) and 1.8e-15 (2-d) of max(1, |integral|) here; against
        # a 40-digit sum the two err alike (5.8e-15 and 9.2e-15 of the 2-d
        # integral)
        assert np.all(np.abs(got - integrals) <= 1e-14 * np.maximum(1.0, np.abs(integrals)))
        assert isinstance(H.cube_integral_sq(corners[0]), float)
        i = int(np.argmin(margins))
        assert abs(res.worst_margin - margins[i]) <= 1e-12 * scale[i]
        # measured at most 1.6e-15 of the margin itself
        assert abs(res.worst_margin - margins[i]) <= 1e-14 * abs(margins[i])
        assert res.ok and not bad and res.failures == ()
    # a constant far too small: most points fail, the first five are reported
    chain = ineq._chain_constant
    monkeypatch.setattr(ineq, "_chain_constant", lambda H, m: 1e-3 * chain(H, m))
    res = pointwise_from_l2_check(H, 2, pts)
    _, margins, lhs, bad = _pointwise_reference(H, 2, pts, res.constant)
    assert not res.ok and len(bad) > 5
    assert len(res.failures) == 5
    for (x, f_lhs, f_rhs), j in zip(res.failures, bad):
        assert x == tuple(pts[j])
        assert abs(f_lhs - lhs[j]) <= 1e-12 * max(1.0, lhs[j])
        assert abs((f_rhs - f_lhs) - margins[j]) <= 1e-12 * max(1.0, lhs[j])
    assert abs(res.worst_margin - margins.min()) <= 1e-12 * max(1.0, lhs.max())


# ---------------------------------------------------------------------------
# exponential difference bound
# ---------------------------------------------------------------------------


def test_expdiff_zero_minus_leg():
    res = expdiff_check(0.5, 1.0, 0.0, 2.0)
    assert res.ok and res.lhs == 0.0


def test_expdiff_frozen_oracle():
    # both sides checked against a 50-digit evaluation
    res = expdiff_check(0.5, 1.0, 1.0, 1.0)
    assert res.ok
    assert abs(res.lhs - 1.5389832952511646) < 1e-12


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.01, 0.99), bt=st.floats(0.0, 2.0),
       sm=st.floats(0.0, 10.0), rel=st.floats(0.0, 20.0))
# both sides near 1e-31: the direct difference Gt(s) - Gt(s_plus) at 30
# digits is roundoff there (1.97e-31 against the true 7.59e-32)
@example(alpha=0.34375, bt=1e-15, sm=1e-15, rel=9.0)
def test_expdiff_random(alpha, bt, sm, rel):
    assert expdiff_check(alpha, bt, sm, sm + rel, dps=30).ok
