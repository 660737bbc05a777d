"""Closed-form constants and quantitative inequalities used by the smoothing
diagnostics, together with numerical checkers for each of them.

Everything here is exact arithmetic on scalars/arrays; no grids are involved.
The checkers are written so a randomized driver can hammer them: each returns
a small result object with the evaluated sides instead of just a boolean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError

__all__ = [
    "epsilon",
    "alpha_md",
    "required_moment",
    "LambdaPoints",
    "kl_constant",
    "optimize_lambdas",
    "kl_check",
    "KLCheckResult",
    "TrigPoly",
    "pointwise_from_l2_check",
    "DDCheckResult",
    "expdiff_check",
    "ExpDiffResult",
]


# ----------------------------------------------------------------------------
# epsilon(alpha, u) = (1 + u)^alpha - u^alpha
# ----------------------------------------------------------------------------

def epsilon(alpha, u):
    """Evaluate (1 + u)^alpha - u^alpha stably for u in [0, inf].

    For large u the two powers agree to many digits, so the difference is
    computed as u^alpha * expm1(alpha * log1p(1/u)). Key facts relied on
    elsewhere: for fixed alpha in (0,1) the function strictly decreases in u
    from 1 to 0, is bounded by u^(alpha-1), and increases in alpha for u > 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(alpha < 0) or np.any(alpha > 1):
        raise ConfigError("alpha must lie in [0, 1]")
    if np.any(u < 0):
        raise ConfigError("u must be nonnegative")
    small = u <= 1.0
    us = np.where(small, u, 1.0)
    ul = np.where(small, 1.0, u)
    direct = (1.0 + us) ** alpha - us ** alpha
    with np.errstate(divide="ignore"):
        tail = ul ** alpha * np.expm1(alpha * np.log1p(1.0 / ul))
    out = np.where(small, direct, tail)
    out = np.where(np.isinf(u), np.zeros_like(out), out)
    if out.ndim == 0:
        return float(out)
    return out


# ----------------------------------------------------------------------------
# admissible weight exponents and moment requirements
# ----------------------------------------------------------------------------

def alpha_md(m: int, n: int) -> float:
    """Largest weight exponent with eps(alpha, 1) = 2m/(2m + n).

    alpha_md = log((4m + n)/(2m + n)) / log 2; increasing in m with limit 1,
    decreasing in the dimension-like index n.
    """
    if m < 1 or n < 1:
        raise ConfigError("m and n must be positive integers")
    return math.log((4 * m + n) / (2 * m + n)) / math.log(2.0)


def required_moment(nu: float, bounded: bool = False) -> int:
    """Smallest integer moment order m compatible with singularity strength nu.

    bounded=False: m >= max(2, (2^nu - 1)/(2 - 2^nu));
    bounded=True:  m >= max(2, (2^nu - 1)/(2 (2 - 2^nu))).
    """
    if not 0 < nu < 1:
        raise ConfigError("nu must lie in (0, 1)")
    r = (2.0 ** nu - 1.0) / (2.0 - 2.0 ** nu)
    if bounded:
        r /= 2.0
    return max(2, math.ceil(r - 1e-12))


# ----------------------------------------------------------------------------
# Kolmogorov-Landau constant via the Vandermonde construction
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaPoints:
    """Interior evaluation points 0 < l_1 < ... < l_{m-1} <= 1 together with
    the derivative-interpolation constant they induce."""
    m: int
    points: tuple
    constant: float


def _validate_lambdas(m: int, lambdas: Sequence[float]) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=float)
    if m < 2:
        raise ConfigError("m must be >= 2")
    if lam.shape != (m - 1,):
        raise ConfigError(f"need {m - 1} points for m={m}")
    if not (np.all(lam > 0) and np.all(lam <= 1)):
        raise ConfigError("points must lie in (0, 1]")
    if m > 2 and not np.all(np.diff(lam) > 0):
        raise ConfigError("points must be strictly increasing")
    return lam


def _kl_constants(m: int, lam: np.ndarray) -> np.ndarray:
    """kl_constant for each row of a (k, m-1) array of points; rows are not
    validated (callers mask the ones they cannot use)."""
    best = np.zeros(lam.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        for b in range(m - 1):
            prod = np.ones(lam.shape[0])
            for v in range(m - 1):
                if v != b:
                    prod *= (1.0 + lam[:, v]) / np.abs(lam[:, v] - lam[:, b])
            best = np.maximum(best, prod / lam[:, b])
    return 2.0 ** m * math.factorial(m) * (m - 1) * best


def kl_constant(m: int, lambdas: Sequence[float]) -> float:
    """C_m = 2^m m! (m-1) * ||V^{-1}||, with the l1-induced inverse norm in
    closed form: max over beta of (1/l_beta) prod_{v != beta} (1+l_v)/|l_v - l_beta|.

    V is the Vandermonde-type matrix with rows (l_s, l_s^2, ..., l_s^{m-1}).
    """
    lam = _validate_lambdas(m, lambdas)
    return float(_kl_constants(m, lam[None, :])[0])


def optimize_lambdas(m: int) -> LambdaPoints:
    """Coordinate-descent minimization of C_m over (0,1]^{m-1}.

    Multistart from the equispaced points and 16 sorted uniform draws on
    [0.02, 1) (seed 0), run as one batch: each coordinate step scores the
    257-point lines of all moving starts in one array evaluation, and each
    start keeps its own best, interval and stopping rule, so it takes the
    steps it takes alone. The first best start wins; m=2 gives l=[1], C_2 = 8.
    """
    if not 2 <= m <= 8:
        raise ConfigError("optimize_lambdas supports 2 <= m <= 8")
    rng = np.random.default_rng(0)
    dim = m - 1

    def cost(rows: np.ndarray) -> np.ndarray:
        bad = (np.any((rows <= 0) | (rows > 1), axis=1)
               | np.any(np.diff(rows, axis=1) <= 1e-9, axis=1))
        return np.where(bad, math.inf, _kl_constants(m, rows))

    lam = np.array([np.linspace(1.0 / dim, 1.0, dim)]
                   + [np.sort(rng.uniform(0.02, 1.0, size=dim)) for _ in range(16)])
    best = cost(lam)
    moving = np.ones(len(lam), dtype=bool)
    for _ in range(200):
        improved = np.zeros(len(lam), dtype=bool)
        for j in range(dim):
            lo = lam[:, j - 1] + 1e-6 if j > 0 else np.full(len(lam), 1e-6)
            hi = lam[:, j + 1] - 1e-6 if j < dim - 1 else np.ones(len(lam))
            s = np.flatnonzero(moving & (hi > lo))
            grid = np.linspace(lo[s], hi[s], 257, axis=1)
            rows = np.repeat(lam[s], 257, axis=0)
            rows[:, j] = grid.ravel()
            vals = cost(rows).reshape(grid.shape)
            k = np.argmin(vals, axis=1)
            low = vals[np.arange(s.size), k]
            step = low < best[s] - 1e-13
            lam[s[step], j] = grid[step, k[step]]
            best[s[step]] = low[step]
            improved[s[step]] = True
        moving &= improved
        if not moving.any():
            break
    i = int(np.argmin(best))
    return LambdaPoints(m=m, points=tuple(float(x) for x in lam[i]), constant=float(best[i]))


@lru_cache(maxsize=16)
def _default_cm(m: int) -> float:
    return optimize_lambdas(m).constant


# ----------------------------------------------------------------------------
# derivative-sandwich check on [0, 1] for polynomials
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KLCheckResult:
    ok_additive: bool
    ok_multiplicative: bool
    lhs: float
    additive_bound: float
    multiplicative_bound: float

    @property
    def ok(self) -> bool:
        return self.ok_additive and self.ok_multiplicative


_SUP_GRID = np.linspace(0.0, 1.0, 2048)


def _deriv(c: np.ndarray, k: int) -> np.ndarray:
    """np.polynomial.polynomial.polyder(c, k) bit for bit, without its
    per-call overhead (c[:1] * 0 once k reaches len(c), as polyder does)."""
    if k >= c.size:
        return c[:1] * 0
    for _ in range(k):
        c = c[1:] * np.arange(1, c.size)
    return c


def _poly_sup_01(c: np.ndarray) -> float:
    """Sup norm on [0,1] of the polynomial with ascending coefficients c:
    dense sampling (_SUP_GRID) refined with its real critical points."""
    poly = np.polynomial.polynomial   # numpy loads it on first use
    best = float(np.abs(poly.polyval(_SUP_GRID, c)).max())
    dc = _deriv(c, 1)
    scale = float(np.abs(dc).max())
    if scale > 0.0:
        # drop leading coefficients too small to matter; a subnormal leader
        # overflows the companion-matrix eigenproblem
        dc = poly.polytrim(dc, tol=1e-250 + 1e-14 * scale)
    if dc.size >= 2:
        try:
            roots = poly.polyroots(dc)
        except np.linalg.LinAlgError:
            return best
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = real[(real >= 0.0) & (real <= 1.0)]
        if inside.size:
            best = max(best, float(np.abs(poly.polyval(inside, c)).max()))
    return best


def kl_check(coeffs: Sequence[float], m: int, k: int, u: float,
             cm: float | None = None) -> KLCheckResult:
    """Check both derivative interpolation bounds for a polynomial on [0,1].

    additive:        ||w^(k)|| <= C_m (||w|| / u^k + u^{m-k} ||w^(m)||)
    multiplicative'  ||w^(k)|| <= 2 C_m ||w||^{1-k/m} max(||w||, ||w^(m)||)^{k/m}

    coeffs are ascending power-basis coefficients; 1 <= k < m, 0 < u <= 1.
    cm defaults to the optimized constant for this m.
    """
    if not (m >= 2 and 1 <= k < m):
        raise ConfigError("need m >= 2 and 1 <= k < m")
    if not 0 < u <= 1:
        raise ConfigError("u must lie in (0, 1]")
    if cm is None:
        cm = _default_cm(m)
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or not c.size:
        raise ConfigError("coeffs must be a nonempty 1-d sequence")
    nw = _poly_sup_01(c)
    nk = _poly_sup_01(_deriv(c, k))
    nm = _poly_sup_01(_deriv(c, m))
    add = cm * (nw / u ** k + u ** (m - k) * nm)
    mult = 2.0 * cm * nw ** (1.0 - k / m) * max(nw, nm) ** (k / m)
    tol = 1e-9 * max(1.0, nk)
    return KLCheckResult(ok_additive=nk <= add + tol,
                         ok_multiplicative=nk <= mult + tol,
                         lhs=nk, additive_bound=add, multiplicative_bound=mult)


# ----------------------------------------------------------------------------
# band-limited test functions and the pointwise-from-L2 bound
# ----------------------------------------------------------------------------

class TrigPoly:
    """Real trigonometric polynomial on R^n, periodic with period L per axis.

    Stored as {wavevector tuple: complex coefficient} with Hermitian symmetry
    so evaluations are real. Smooth and band-limited, hence all sup norms and
    cube integrals below are numerically trustworthy.
    """

    def __init__(self, n: int, period: float, coeffs: dict):
        if n not in (1, 2):
            raise ConfigError("TrigPoly supports n in {1, 2}")
        self.n = n
        self.period = float(period)
        self.coeffs = {tuple(k): complex(c) for k, c in coeffs.items()}

    @classmethod
    def random(cls, n: int, kmax: int, period: float, seed: int) -> "TrigPoly":
        rng = np.random.default_rng(seed)
        coeffs: dict = {}
        rng_keys = []
        if n == 1:
            rng_keys = [(k,) for k in range(0, kmax + 1)]
        else:
            rng_keys = [(kx, ky) for kx in range(-kmax, kmax + 1)
                        for ky in range(0, kmax + 1)]
            rng_keys = [k for k in rng_keys if k[1] > 0 or k[0] >= 0]
        for key in rng_keys:
            c = complex(rng.normal(), rng.normal()) / (1 + sum(abs(x) for x in key)) ** 2
            if all(x == 0 for x in key):
                c = complex(c.real, 0.0)
            coeffs[key] = coeffs.get(key, 0) + c
            neg = tuple(-x for x in key)
            if neg != key:
                coeffs[neg] = coeffs.get(neg, 0) + c.conjugate()
        return cls(n, period, coeffs)

    def eval(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            x = x.reshape(1, 1)
        elif x.ndim == 1:
            x = x[:, None] if self.n == 1 else x[None, :]
        out = np.zeros(x.shape[0], dtype=complex)
        w = 2.0j * np.pi / self.period
        for k, c in self.coeffs.items():
            phase = np.zeros(x.shape[0], dtype=complex)
            for i, ki in enumerate(k):
                phase += ki * x[:, i]
            out += c * np.exp(w * phase)
        return out.real

    def axis_derivative(self, axis: int, order: int) -> "TrigPoly":
        w = 2.0j * np.pi / self.period
        coeffs = {k: c * (w * k[axis]) ** order for k, c in self.coeffs.items()}
        return TrigPoly(self.n, self.period, coeffs)

    def sup_norm(self) -> float:
        """Max |H| on 4096 points (n = 1) or 256 x 256 (n = 2) per period."""
        if self.n == 1:
            xs = np.linspace(0, self.period, 4096, endpoint=False)[:, None]
            return float(np.abs(self.eval(xs)).max())
        g = np.linspace(0, self.period, 256, endpoint=False)
        # separable evaluation: sum_k c_k e1[kx] (x) e2[ky]
        keys = list(self.coeffs.keys())
        kx = np.array([k[0] for k in keys])
        ky = np.array([k[1] for k in keys])
        cc = np.array([self.coeffs[k] for k in keys])
        w = 2.0j * np.pi / self.period
        ex = np.exp(w * np.outer(g, kx))
        ey = np.exp(w * np.outer(ky, g))
        vals = (ex * cc[None, :]) @ ey
        return float(np.abs(vals.real).max())

    def cube_integral_sq(self, corner: np.ndarray):
        """Exact integral of H^2 over the axis-aligned cube of side 2
        starting at `corner` and extending in the positive direction of
        each axis (the caller orients it). Corners of shape (..., n) give
        an array of integrals; a single corner gives a float. H^2's
        coefficients (H's self-convolution) are contracted with one factor
        table per axis, int_a^{a+2} e^{w k x} dx over its wavenumbers k."""
        keys = np.array(list(self.coeffs)).reshape(-1, self.n)
        vals = np.array(list(self.coeffs.values()))
        lo = keys.min(axis=0)
        sq = np.zeros(2 * (keys.max(axis=0) - lo) + 1, dtype=complex)
        pair = tuple((keys[:, None, i] + keys[None, :, i] - 2 * lo[i]).ravel()
                     for i in range(self.n))
        np.add.at(sq, pair, np.outer(vals, vals).ravel())
        corner = np.asarray(corner, dtype=float)
        a = corner.reshape(-1, self.n)
        w = 2.0j * np.pi / self.period
        fac = []
        for i in range(self.n):
            k = 2 * lo[i] + np.arange(sq.shape[i])
            kw = w * np.where(k == 0, 1, k)   # the k = 0 column is set below
            x0 = a[:, i:i + 1]
            f = (np.exp(kw * (x0 + 2.0)) - np.exp(kw * x0)) / kw
            f[:, k == 0] = (x0 + 2.0) - x0
            fac.append(f)
        total = fac[0] @ sq
        if self.n == 2:
            total = (total * fac[1]).sum(axis=1)
        total = total.real.reshape(corner.shape[:-1])
        return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class DDCheckResult:
    ok: bool
    worst_margin: float
    constant: float
    failures: tuple


def _chain_constant(H: TrigPoly, m: int) -> float:
    """Constant for |H(x)| <= L (int_{Q_x} H^2)^{m/(2m+n)}.

    Per-axis factors L_i = 2 p_i C_m max(||H||^{1/m}, ||d_i^m H||^{1/m})
    + ||H||^{1/m} with p_i = 3 + (n - i)/m from the exponent ladder
    q_i = 2 + (n - i + 1)/m; the product is raised to m/(2m+n) so both sides
    scale identically under H -> t H.
    """
    n = H.n
    cm = _default_cm(m)
    sup_h = H.sup_norm()
    prod = 1.0
    for i in range(1, n + 1):
        sup_dm = H.axis_derivative(i - 1, m).sup_norm()
        p_i = 3.0 + (n - i) / m
        prod *= 2.0 * p_i * cm * max(sup_h, sup_dm) ** (1.0 / m) + sup_h ** (1.0 / m)
    return prod ** (m / (2.0 * m + n))


def pointwise_from_l2_check(H: TrigPoly, m: int, points: np.ndarray) -> DDCheckResult:
    """Check |H(x)| <= L_{m,n} (int_{Q_x} H^2)^{m/(2m+n)} at each point.

    Q_x is the cube of side 2 with corner x, oriented away from the origin
    per axis (so x . (xi - x) >= 0 on Q_x).
    """
    pts = np.asarray(points, dtype=float)
    n = H.n
    if pts.ndim == 1:
        pts = pts[:, None] if n == 1 else pts[None, :]
    if pts.shape[1] != n:
        raise ConfigError("points dimension mismatch")
    L = _chain_constant(H, m)
    expo = m / (2.0 * m + n)
    corners = np.where(pts >= 0, pts, pts - 2.0)
    integral = np.maximum(H.cube_integral_sq(corners), 0.0)
    lhs = np.abs(H.eval(pts))
    rhs = L * integral ** expo
    margin = rhs - lhs
    bad = np.flatnonzero(margin < -1e-9 * np.maximum(1.0, lhs))
    failures = tuple((tuple(pts[i]), float(lhs[i]), float(rhs[i])) for i in bad[:5])
    worst = float(margin.min()) if margin.size else math.inf
    return DDCheckResult(ok=not bad.size, worst_margin=worst, constant=L,
                         failures=failures)


# ----------------------------------------------------------------------------
# two-sided exponential difference bound, high precision
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpDiffResult:
    ok: bool
    lhs: float
    rhs: float


def expdiff_check(alpha: float, beta_t: float, s_minus: float, s_plus: float,
                  dps: int = 50) -> ExpDiffResult:
    """Verify, at `dps` decimal digits, that for Gt(s) = exp(beta_t (1+s)^alpha)
    and s = s_minus + s_plus with 0 <= s_minus <= s_plus:

      |Gt(s) - Gt(s_plus)| <=
        2 alpha beta_t (1+s_plus)^alpha (s_minus/s)
        * Gt(s_minus)^eps(alpha, s_plus/s_minus) * Gt(s_plus).

    The left side is taken as Gt(s_plus) |expm1(y)| with
    y = beta_t (1+s_plus)^alpha expm1(alpha log1p(s_minus/(1+s_plus))),
    the form `_expdiff_screen` uses: the direct difference cancels to
    roundoff when beta_t and s_minus are tiny.
    """
    import mpmath as mp
    if not 0 <= s_minus <= s_plus:
        raise ConfigError("need 0 <= s_minus <= s_plus")
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        bt = mp.mpf(beta_t)
        sm = mp.mpf(s_minus)
        sp = mp.mpf(s_plus)
        s = sm + sp
        gt = lambda x: mp.e ** (bt * (1 + x) ** a)
        y = bt * (1 + sp) ** a * mp.expm1(a * mp.log1p(sm / (1 + sp)))
        lhs = gt(sp) * abs(mp.expm1(y))
        if s == 0:
            rhs = mp.mpf(0)
        else:
            eps = mp.mpf(0) if sm == 0 else (1 + sp / sm) ** a - (sp / sm) ** a
            rhs = 2 * a * bt * (1 + sp) ** a * (sm / s) * gt(sm) ** eps * gt(sp)
        ok = bool(lhs <= rhs * (1 + mp.mpf(10) ** (5 - dps)))
        return ExpDiffResult(ok=ok, lhs=float(lhs), rhs=float(rhs))


def _expdiff_screen(alpha, beta_t, s_minus, s_plus) -> np.ndarray:
    """True where float64 arithmetic proves that `expdiff_check` passes.

    Both sides are divided by Gt(s_plus). With s = s_minus + s_plus,
    y = beta_t ((1+s)^alpha - (1+s_plus)^alpha) and
    x = beta_t (1+s_minus)^alpha eps(alpha, s_plus/s_minus),

      lhs = expm1(y),  y = beta_t (1+s_plus)^alpha
                           * expm1(alpha log1p(s_minus / (1+s_plus))),
      rhs = 2 alpha beta_t (1+s_plus)^alpha (s_minus/s) exp(x).

    The difference in y is taken in the stable form that `epsilon` uses, so
    nothing cancels. A case is certified when beta_t > 0, s_minus > 0, both
    sides are finite, lhs > 1e-15 and rhs >= lhs (1 + 1e-9).

    Why 1e-9 is safe (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3): let u = 2^-53, let each operation err by at
    most u, and each of pow, exp, expm1, log1p by at most 8u (4 ulp).
    - y: s_minus/(1+s_plus) < 1, so the expm1 argument is below log 2 and
      expm1 amplifies its error at most twofold; the chain carries a
      relative error below 45u. expm1(y) amplifies that by
      y e^y/(e^y - 1) <= 1 + y, so lhs errs by at most (1 + X) 45u + 8u,
      where X bounds both exponent arguments y and x.
    - x: eps(alpha, r) at r = s_plus/s_minus >= 1 is at most 1 and has an
      absolute error below 45u (the tail form is well conditioned; at r = 1
      the direct difference 2^alpha - 1 errs by a few u absolutely). So x
      errs absolutely by at most 56u X, which is exp's relative error; the
      prefactor and the last product add 16u.
    Both sides are finite, so X < 710, and the computed ratio rhs/lhs is
    within a factor 1 +- 110u (1 + X) < 1 +- 9e-12 of the exact one. A
    certified case therefore holds in exact arithmetic with a relative
    margin above 9.9e-10. The verify suite draws beta_t < 2 and s < 40,
    so there X < 2 * 41 and the factor is about 1 +- 1e-12.

    `expdiff_check` at 30 digits then passes it: its lhs, a difference of
    two exponentials of arguments below 710, errs by about 1e-27 Gt(s_plus),
    under 1e-12 of an lhs above 1e-15, and its rhs is a product good to far
    more digits. Every case not certified must be decided by
    `expdiff_check`.
    """
    a, bt, sm, sp = (np.asarray(v, dtype=float)
                     for v in (alpha, beta_t, s_minus, s_plus))
    pos = (bt > 0) & (sm > 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gp = (1.0 + sp) ** a
        lhs = np.expm1(bt * gp * np.expm1(a * np.log1p(sm / (1.0 + sp))))
        x = bt * (1.0 + sm) ** a * epsilon(a, sp / np.where(pos, sm, 1.0))
        rhs = 2.0 * a * bt * gp * (sm / (sm + sp)) * np.exp(x)
    return (pos & np.isfinite(lhs) & np.isfinite(rhs) & (lhs > 1e-15)
            & (rhs >= lhs * (1.0 + 1e-9)))
