"""Randomized self-check suites.

Each suite draws its cases from a seeded generator, runs one family of
inequality or conservation checks, and reports the first counterexample it
finds. All suites are deterministic for a fixed seed so a reported failure
can be replayed exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import inequalities as ineq
from .collision import (AngularQuadrature, CrossSection, collision_geometry,
                        kac_pair, sigma_from_angle, transform_jacobian)
from .diagnostics import GevreyWeight, commutation_error
from .errors import ConfigError
from .evolution import run
from .spectral import GridSpec, InitialDatum, init_state, moments

__all__ = ["VerifyResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    checked: int
    counterexample: str | None
    message: str


def _passed(checked: int, label: str) -> VerifyResult:
    return VerifyResult(True, checked, None, "%s: %d checks passed" % (label, checked))


def _failed(checked: int, label: str, counterexample: str) -> VerifyResult:
    return VerifyResult(False, checked, counterexample,
                        "%s: counterexample after %d checks" % (label, checked))


# ----------------------------------------------------------------------------
# epsilon suite: monotonicity, the power bound, subadditivity, and the
# defining identity of the smoothing exponents
# ----------------------------------------------------------------------------

def _uniform(x: np.ndarray, lo, hi) -> np.ndarray:
    """Map `Generator.random` draws onto [lo, hi) by the expression
    `Generator.uniform` uses, so a batched draw repeats a scalar one bit for
    bit."""
    return lo + (hi - lo) * x


def suite_epsilon(seed: int = 0, n: int = 10_000) -> VerifyResult:
    # one row of uniforms per case, in the order its checks read them:
    # alpha, a u pair, an alpha pair, u, alpha, u, s-, s+
    x = np.random.default_rng(seed).random((n, 10))
    a0 = _uniform(x[:, 0], 1e-3, 1.0)
    u1, u2 = np.sort(_uniform(x[:, 1:3], 0.0, 50.0), axis=1).T
    a1, a2 = np.sort(_uniform(x[:, 3:5], 1e-3, 1.0), axis=1).T
    ua = _uniform(x[:, 5], 1e-6, 50.0)
    a = _uniform(x[:, 6], 1e-3, 1.0 - 1e-3)
    u = _uniform(x[:, 7], 1e-6, 50.0)
    sm = _uniform(x[:, 8], 1e-6, 20.0)
    sp = _uniform(x[:, 9], sm, 40.0)
    eps = ineq.epsilon
    lhs = (1.0 + sm + sp) ** a
    rhs = eps(a, sp / sm) * (1.0 + sm) ** a + (1.0 + sp) ** a
    fails = np.stack([
        (u2 > u1) & (eps(a0, u2) > eps(a0, u1) + 1e-12),
        (a2 > a1) & (eps(a2, ua) < eps(a1, ua) - 1e-12),
        eps(a, u) > u ** (a - 1.0) + 1e-12,
        lhs > rhs + 1e-10 * rhs,
    ])
    bad = np.flatnonzero(fails.any(axis=0))
    if bad.size:
        # the first failing case, and within it the first failing check;
        # scalar draws print as float, sorted pairs as np.float64
        i = int(bad[0])
        msg = ("not decreasing in u: alpha=%r u=(%r,%r)" % (float(a0[i]), u1[i], u2[i]),
               "not increasing in alpha: u=%r alpha=(%r,%r)" % (float(ua[i]), a1[i], a2[i]),
               "power bound fails: alpha=%r u=%r" % (float(a[i]), float(u[i])),
               "subadditivity fails: alpha=%r s=(%r,%r)" % (float(a[i]), float(sm[i]),
                                                            float(sp[i])))
        return _failed(i + 1, "epsilon", msg[int(np.argmax(fails[:, i]))])
    checked = n
    for m in range(1, 17):
        for d in range(1, 9):
            checked += 1
            got = ineq.epsilon(ineq.alpha_md(m, d), 1.0)
            want = 2.0 * m / (2.0 * m + d)
            if abs(got - want) > 1e-12:
                return _failed(checked, "epsilon",
                               "exponent identity fails at (m,d)=(%d,%d)" % (m, d))
    return _passed(checked, "epsilon")


# ----------------------------------------------------------------------------
# kl suite: derivative interpolation bounds for random polynomials
# ----------------------------------------------------------------------------

def suite_kl(seed: int = 0, n: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(seed)
    # constants computed per run (not cached) so a corrupted kl_constant is
    # caught rather than masked by memoization
    cms = {m: ineq.kl_constant(m, ineq.optimize_lambdas(m).points)
           for m in (2, 3, 4)}
    checked = 0
    for _ in range(n):
        deg = int(rng.integers(1, 7))
        coeffs = rng.normal(size=deg + 1) * rng.uniform(0.1, 10.0)
        m = int(rng.integers(2, 5))
        k = int(rng.integers(1, m))
        u = float(rng.uniform(0.05, 1.0))
        res = ineq.kl_check(coeffs, m, k, u, cm=cms[m])
        checked += 1
        if not res.ok:
            return _failed(checked, "kl",
                           "coeffs=%s m=%d k=%d u=%r lhs=%r add=%r mult=%r" %
                           (np.array2string(coeffs, precision=6), m, k, u,
                            res.lhs, res.additive_bound, res.multiplicative_bound))
    return _passed(checked, "kl")


# ----------------------------------------------------------------------------
# ddlemma suite: pointwise-from-L2 bound for band-limited functions
# ----------------------------------------------------------------------------

def suite_ddlemma(seed: int = 0, n: int = 50) -> VerifyResult:
    rng = np.random.default_rng(seed)
    checked = 0
    n1 = n - n // 2
    for i in range(n):
        dim = 1 if i < n1 else 2
        kmax = 4 if dim == 1 else 2
        H = ineq.TrigPoly.random(dim, kmax, period=8.0,
                                 seed=int(rng.integers(0, 2 ** 31)))
        m = int(rng.integers(2, 4))
        pts = rng.uniform(-3.0, 3.0, size=(1000, dim))
        res = ineq.pointwise_from_l2_check(H, m, pts)
        checked += 1
        if not res.ok:
            return _failed(checked, "ddlemma",
                           "dim=%d m=%d constant=%r failures=%s" %
                           (dim, m, res.constant, res.failures[:2]))
    return _passed(checked, "ddlemma")


# ----------------------------------------------------------------------------
# expdiff suite: two-sided exponential difference bound
# ----------------------------------------------------------------------------

def suite_expdiff(seed: int = 0, n: int = 10_000) -> VerifyResult:
    x = np.random.default_rng(seed).random((n, 4))
    a = _uniform(x[:, 0], 0.01, 0.99)
    bt = _uniform(x[:, 1], 0.0, 2.0)
    sm = _uniform(x[:, 2], 0.0, 10.0)
    sp = _uniform(x[:, 3], sm, 20.0 + sm)
    # the 30-digit check decides, in draw order, what float64 cannot certify
    for i in np.flatnonzero(~ineq._expdiff_screen(a, bt, sm, sp)):
        draw = (float(a[i]), float(bt[i]), float(sm[i]), float(sp[i]))
        res = ineq.expdiff_check(*draw, dps=30)
        if not res.ok:
            return _failed(int(i) + 1, "expdiff",
                           "alpha=%r beta_t=%r s_minus=%r s_plus=%r lhs=%r rhs=%r" %
                           (*draw, res.lhs, res.rhs))
    return _passed(n, "expdiff")


# ----------------------------------------------------------------------------
# geometry suite: frequency-split identities and the change-of-variables
# Jacobian, against finite differences
# ----------------------------------------------------------------------------

def _random_sigma(eta_hat: np.ndarray, theta: float, rng) -> np.ndarray:
    d = eta_hat.shape[-1]
    if d == 2:
        s = 1 if rng.uniform() < 0.5 else -1
        return sigma_from_angle(eta_hat, s * theta)
    a = rng.normal(size=3)
    e1 = np.cross(eta_hat, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(eta_hat, e1)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return (math.cos(theta) * eta_hat
            + math.sin(theta) * (math.cos(phi) * e1 + math.sin(phi) * e2))


def _fd_jacobian(eta: np.ndarray, sigma: np.ndarray, h: float = 1e-6) -> float:
    d = eta.shape[-1]
    J = np.zeros((d, d))
    for j in range(d):
        dp = eta.copy(); dp[j] += h
        dm = eta.copy(); dm[j] -= h
        _, plus_p = collision_geometry(dp, sigma)
        _, plus_m = collision_geometry(dm, sigma)
        J[:, j] = (plus_p - plus_m) / (2.0 * h)
    return float(abs(np.linalg.det(J)))


def suite_geometry(seed: int = 0, n: int = 1000) -> VerifyResult:
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(n):
        d = int(rng.integers(2, 4))
        eta = rng.normal(size=d) * rng.uniform(0.5, 8.0)
        r = np.linalg.norm(eta)
        if r < 1e-6:
            continue
        theta = float(rng.uniform(1e-3, math.pi / 2))
        sigma = _random_sigma(eta / r, theta, rng)
        minus, plus = collision_geometry(eta, sigma)
        checked += 1
        if abs(np.linalg.norm(minus) - r * math.sin(theta / 2.0)) > 1e-6 * max(1.0, r):
            return _failed(checked, "geometry",
                           "minus-leg length: eta=%s theta=%r" % (eta, theta))
        pyth = np.linalg.norm(plus) ** 2 + np.linalg.norm(minus) ** 2 - r ** 2
        if abs(pyth) > 1e-6 * max(1.0, r ** 2):
            return _failed(checked, "geometry",
                           "pythagoras: eta=%s theta=%r defect=%r" % (eta, theta, pyth))
        jac = transform_jacobian(eta, sigma)
        want = 2.0 ** (-d) * (1.0 + math.cos(theta))
        if abs(jac - want) > 1e-9:
            return _failed(checked, "geometry",
                           "jacobian formula: eta=%s theta=%r" % (eta, theta))
        if abs(_fd_jacobian(eta, sigma) - want) > 1e-6:
            return _failed(checked, "geometry",
                           "fd jacobian: eta=%s theta=%r" % (eta, theta))
        x = float(rng.uniform(-8.0, 8.0))
        km, kp = kac_pair(x, theta)
        if abs(km ** 2 + kp ** 2 - x ** 2) > 1e-9 * max(1.0, x ** 2):
            return _failed(checked, "geometry", "kac split: x=%r theta=%r" % (x, theta))
    return _passed(checked, "geometry")


# ----------------------------------------------------------------------------
# commutator suite: the two-sided sandwich on random mixture states
# ----------------------------------------------------------------------------

def _random_mixture(dim: int, rng, max_center: float, sig_lo: float,
                    sig_hi: float) -> InitialDatum:
    k = int(rng.integers(1, 4))
    comps = []
    for _ in range(k):
        w = float(rng.uniform(0.2, 1.0))
        c = tuple(float(x) for x in rng.uniform(-max_center, max_center, size=dim))
        s = float(rng.uniform(sig_lo, sig_hi))
        comps.append((w, c, s))
    return InitialDatum(kind="gaussian-mixture", dimension=dim,
                        components=tuple(comps))


def suite_commutator(seed: int = 0, n: int = 6) -> VerifyResult:
    rng = np.random.default_rng(seed)
    quad = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4)
    checked = 0
    for i in range(n):
        mode = ("full-1d", "radial", "full-2d")[i % 3]
        if mode == "full-1d":
            grid = GridSpec(dimension=1, mode=mode, n=129, eta_max=12.0)
            datum = _random_mixture(1, rng, 1.0, 0.7, 1.3)
        elif mode == "radial":
            d = int(rng.integers(2, 4))
            grid = GridSpec(dimension=d, mode=mode, n=128, eta_max=12.0)
            datum = InitialDatum(kind="gaussian", dimension=d,
                                 sigma=float(rng.uniform(0.7, 1.3)))
        else:
            grid = GridSpec(dimension=2, mode=mode, n=64, eta_max=8.0)
            datum = _random_mixture(2, rng, 0.3, 0.35, 0.45)
        state = init_state(grid, datum)
        cs = CrossSection(nu=float(rng.uniform(0.2, 0.8)), kappa=1.0)
        alpha = float(rng.uniform(0.3, min(0.95, cs.nu + 0.2)))
        w = GevreyWeight(alpha=alpha, beta=float(rng.uniform(0.05, 0.3)),
                         t=float(rng.uniform(0.05, 0.5)),
                         lam=grid.eta_max / math.sqrt(2.0))
        rep = commutation_error(state, w, cs, quad)
        checked += 1
        if not rep.sandwich_ok:
            return _failed(checked, "commutator",
                           "mode=%s nu=%r alpha=%r beta=%r t=%r lhs=%r i=%r i+=%r rhs=%r" %
                           (mode, cs.nu, w.alpha, w.beta, w.t, rep.lhs,
                            rep.i_term, rep.i_plus_term, rep.rhs_bound))
    return _passed(checked, "commutator")


# ----------------------------------------------------------------------------
# conservation suite: short runs conserve mass and energy and do not grow sup
# ----------------------------------------------------------------------------

def suite_conservation(seed: int = 0, n: int = 2) -> VerifyResult:
    rng = np.random.default_rng(seed)
    quad = AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4)
    checked = 0
    for i in range(n):
        if i % 2 == 0:
            grid = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
            datum = _random_mixture(1, rng, 0.8, 0.7, 1.2)
        else:
            d = int(rng.integers(2, 4))
            grid = GridSpec(dimension=d, mode="radial", n=128, eta_max=12.0)
            datum = InitialDatum(kind="gaussian", dimension=d,
                                 sigma=float(rng.uniform(0.7, 1.2)))
        state = init_state(grid, datum)
        cs = CrossSection(nu=float(rng.uniform(0.2, 0.6)), kappa=1.0)
        traj = run(state, cs, quad, dt=1e-3, t_end=0.05)
        m0 = moments(state, order=2)
        m1 = moments(traj.final, order=2)
        e0, e1 = float(m0[2]), float(m1[2])
        checked += 1
        if abs(m1[0] - m0[0]) > 1e-10 * abs(m0[0]):
            return _failed(checked, "conservation",
                           "mass drift %r on %s" % (abs(m1[0] - m0[0]), grid.mode))
        if abs(e1 - e0) > 1e-4 * abs(e0):
            return _failed(checked, "conservation",
                           "energy drift %r on %s" % (abs(e1 - e0), grid.mode))
        sup0 = float(np.abs(state.values).max())
        sup1 = float(np.abs(traj.final.values).max())
        if sup1 > sup0 * (1.0 + 1e-8):
            return _failed(checked, "conservation",
                           "sup grew %r -> %r on %s" % (sup0, sup1, grid.mode))
    return _passed(checked, "conservation")


_SUITES = {
    "epsilon": suite_epsilon,
    "kl": suite_kl,
    "ddlemma": suite_ddlemma,
    "expdiff": suite_expdiff,
    "commutator": suite_commutator,
    "geometry": suite_geometry,
    "conservation": suite_conservation,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0, n: int | None = None) -> VerifyResult:
    """Run one named suite. Unknown names raise KeyError; a negative seed
    or n < 1 raises ConfigError."""
    fn = _SUITES[name]
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n is None:
        return fn(seed=seed)
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    return fn(seed=seed, n=n)
