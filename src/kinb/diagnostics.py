"""Weighted norms, smoothing-order measurement, commutator bounds, and the
scale-induction machinery.

Everything here reads node arrays off SpectralState objects and evaluates
weighted quadratures over the grid and over the collision angles.  The
stretched-exponential weight is

    G(t, eta) = exp(beta * t * (1 + |eta|^2)^alpha),

optionally cut off at a frequency radius Lambda.  The commutator and the
hypothesis integrals all combine this weight with off-grid samples of
|fhat|, pulled through the same band-limited interpolation the collision
operator uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .inequalities import alpha_md, epsilon
from .spectral import (GridSpec, SpectralState, moments, refine_array,
                       state_with_values, to_physical, _InterpPlan, _SPHERE_AREA)
from .collision import (AngularQuadrature, CrossSection, _bilinear, _evaluator,
                        _gl_rule, kac_pair, perp_unit)
from .evolution import entropy

__all__ = [
    "GevreyWeight", "WeightedNorms", "weighted_norms",
    "fractional_heat_evolve", "FitReport", "fit_gevrey_order",
    "CommutatorReport", "commutation_error",
    "cb_constant", "beta_recommendation", "angle_thresholds",
    "InductionSchedule", "build_induction_schedule",
    "HypothesisRow", "check_hypotheses",
    "hinf_weighted_norm", "negative_sobolev_norm", "embedding_constant",
    "bracket_integral", "LloglReport", "entropy_and_llogl",
]

_SCALE_FACTOR = (1.0 + math.sqrt(2.0)) / 2.0
# exp() overflows at ~709; anything this large is a configuration error
_MAX_EXP_ARG = 700.0


def _grow(beta_t: float, r2, power=1.0, alpha=1.0):
    """exp(beta*t * power * (1+r2)^alpha) with an overflow guard."""
    arg = beta_t * np.asarray(power) * (1.0 + np.asarray(r2)) ** alpha
    if np.any(arg > _MAX_EXP_ARG):
        raise NumericalFailure("weight exponent overflows; reduce beta*t")
    return np.exp(arg)


@dataclass(frozen=True)
class GevreyWeight:
    """Stretched-exponential frequency weight with optional cutoff.

    lam = inf means no cutoff.  The weight value at eta is
    exp(beta*t*(1+|eta|^2)^alpha) * 1_{|eta| <= lam}.
    """
    alpha: float
    beta: float
    t: float = 0.0
    lam: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("alpha must be in (0, 1]")
        if not (self.beta >= 0.0 and self.t >= 0.0):
            raise ConfigError("beta and t must be nonnegative")
        if not self.lam > 0.0:
            raise ConfigError("lam must be positive (use math.inf for none)")

    def profile(self, radii) -> np.ndarray:
        """Weight without the cutoff, as a function of |eta|."""
        r = np.asarray(radii, dtype=float)
        return _grow(self.beta * self.t, r * r, alpha=self.alpha)

    def values(self, grid: GridSpec) -> np.ndarray:
        r = grid.abs_nodes()
        out = self.profile(r)
        if math.isfinite(self.lam):
            out = np.where(r <= self.lam * (1.0 + 1e-12), out, 0.0)
        return out


@dataclass(frozen=True)
class WeightedNorms:
    l2: float
    sup: float
    h_alpha: float


def weighted_norms(state: SpectralState, w: GevreyWeight) -> WeightedNorms:
    """Cut-off weighted L2 and H^alpha norms, plus the pointwise sup of
    G^{eps(alpha,1)} |fhat| over the nodes inside the cutoff."""
    grid = state.grid
    if math.isfinite(w.lam) and w.lam > grid.eta_max * (1.0 + 1e-12):
        raise ConfigError("cutoff lies beyond the grid radius")
    cells = grid.cell_weights().reshape(-1)
    r = grid.abs_nodes().reshape(-1)
    mag = np.abs(state.values).reshape(-1)
    gv = w.values(grid).reshape(-1)
    w2 = (gv * mag) ** 2
    l2 = math.sqrt(float(np.sum(cells * w2)))
    h_alpha = math.sqrt(float(np.sum(cells * (1.0 + r * r) ** w.alpha * w2)))
    sup = _weighted_sup(state, w.beta * w.t, w.lam, epsilon(w.alpha, 1.0), w.alpha)
    return WeightedNorms(l2=l2, sup=sup, h_alpha=h_alpha)


def _weighted_sup(state: SpectralState, beta_t: float, lam: float, power,
                  alpha: float) -> float:
    """max over the nodes with |eta| <= lam of
    exp(beta_t * power * <eta>^{2 alpha}) |fhat(eta)|."""
    r = state.grid.abs_nodes().reshape(-1)
    inside = r <= lam * (1.0 + 1e-12)
    g = _grow(beta_t, r[inside] ** 2, power=power, alpha=alpha)
    return float((g * np.abs(state.values).reshape(-1)[inside]).max())


def fractional_heat_evolve(state: SpectralState, nu: float,
                           t: float) -> SpectralState:
    """Exact flow of the fractional heat semigroup on the transform side:
    multiplication by exp(-t (2 pi |eta|)^{2 nu}).  Calibration oracle for
    the smoothing-order fit."""
    if t < 0:
        raise ConfigError("t must be nonnegative")
    if not 0.0 < nu < 1.0:
        raise ConfigError("nu must be in (0, 1)")
    r = state.grid.abs_nodes()
    factor = np.exp(-t * (2.0 * math.pi * r) ** (2.0 * nu))
    return state_with_values(state, state.values * factor, t=state.t + t)


# ----------------------------------------------------------------------------
# smoothing-order measurement
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class FitReport:
    alpha_hat: float
    beta_t_hat: float
    residual: float
    window: tuple
    n_points: int

    def beta_hat(self, t: float) -> float:
        return self.beta_t_hat / t


def fit_gevrey_order(state: SpectralState, fit_window=None) -> FitReport:
    """Least-squares estimate of the stretched-exponential decay order.

    Model: |fhat(eta)| / fhat(0) = exp(-b * |eta|^{2a}), fitted as
    log(-log ratio) = log(b) + a*log|eta|^2 over shell averages inside the
    window.  Returns a = alpha_hat and b = beta_t_hat (the product of rate
    and elapsed time; divide by t to get a rate).  Shells whose ratio is
    outside (1e-14, 1) carry no decay information and are dropped; fewer
    than 8 usable shells raise NumericalFailure.
    """
    grid = state.grid
    if fit_window is None:
        fit_window = (2.0, grid.eta_max / 2.0)
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not 0.0 < lo < hi:
        raise ConfigError("fit window must satisfy 0 < lo < hi")
    r = grid.abs_nodes().reshape(-1)
    mag = np.abs(state.values).reshape(-1)
    mask = (r >= lo) & (r <= hi)
    if not mask.any():
        raise ConfigError("empty fit window: no grid shells inside it")
    shells, inverse = np.unique(np.round(r[mask], 9), return_inverse=True)
    mean_mag = np.bincount(inverse, weights=mag[mask]) / np.bincount(inverse)
    ratio = mean_mag / state.mass
    keep = (ratio > 1e-14) & (ratio < 1.0 - 1e-12)
    if keep.sum() < 8:
        raise NumericalFailure(
            f"only {int(keep.sum())} usable shells in window (need 8)")
    x = np.log(shells[keep] ** 2)
    y = np.log(-np.log(ratio[keep]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return FitReport(alpha_hat=float(slope), beta_t_hat=float(np.exp(intercept)),
                     residual=resid, window=(lo, hi), n_points=int(keep.sum()))


# ----------------------------------------------------------------------------
# commutator: exact value and its two quadrature bounds
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutatorReport:
    lhs: float
    rhs_bound: float
    i_term: float
    i_plus_term: float

    @property
    def sandwich_ok(self) -> bool:
        tol = 1e-12 + 1e-9 * max(self.rhs_bound, self.i_term + self.i_plus_term)
        return (abs(self.lhs) <= self.i_term + self.i_plus_term + tol
                and abs(self.lhs) <= self.rhs_bound + tol)


def commutation_error(state: SpectralState, w: GevreyWeight, cs: CrossSection,
                      quad: AngularQuadrature) -> CommutatorReport:
    """The weighted-commutator inner product and two upper bounds for it.

    lhs: sum of cell * (Q(f, Gf) - G Q(f, f)) * conj(Gf), the discrete
    frequency-side pairing.  rhs_bound: collision-sphere quadrature of the
    product bound with the factor (1 - |eta+|^2/|eta|^2) and exponent
    eps(alpha, |eta+|^2/|eta-|^2).  i_term / i_plus_term: the two
    square-weighted integrals (parametrized by eta and by eta+), with the
    indicator restricting |eta-| below lam/sqrt(2) and prefactor
    alpha*beta*t.

    Every angular sum runs on the operator's own nodes: split angle phi
    (ev.phi) and weights ev.weights = sin^{d-2}(theta) b(cos theta) dtheta
    (sphere factor included).  The eta+ integral comes from the change of
    variables eta -> eta+ with Jacobian 2^-d (1 + etahat.sigma); its inner
    variable is the point |eta| tan(phi), along perp(etahat) for full-2d,
    and its kernel follows from

        2^d sin^d(v) b(cos 2v) dv
            = 2 sin^2(phi) / cos^{d-2}(phi) * sin^{d-2}(theta) b(cos theta) dtheta,

    with v = phi = theta/2, for d >= 2; the one-dimensional model has the
    kernel sqrt(2) sin^2(phi) b1(theta) dtheta with phi = theta.
    """
    grid = state.grid
    d = grid.dimension
    if not math.isfinite(w.lam):
        raise ConfigError("commutator bounds need a finite cutoff")
    if w.lam > grid.eta_max / math.sqrt(2.0) * (1.0 + 1e-12):
        raise ConfigError("cutoff must stay within eta_max/sqrt(2)")

    alpha, beta, t, lam = w.alpha, w.beta, w.t, w.lam
    ab_t = alpha * beta * t
    g_nodes = w.values(grid)
    f = state.values
    gf = g_nodes * f
    # Q(f, Gf) and Q(f, f) as rhs_bilinear forms them, from one refinement
    # of f and of Gf and one gather of each on each side; the bounds below
    # read the same gathers of f
    ev = _evaluator(grid, cs, quad)
    fine = refine_array(grid, f)
    f_minus = ev.gather_minus(fine)
    f_plus = ev.gather_plus(fine)
    fm, fp = np.abs(f_minus), np.abs(f_plus)
    gm = f_minus.real if d == 1 else f_minus
    q1 = _bilinear(ev, gm, ev.gather_plus(refine_array(grid, gf)), f, gf)
    q2 = g_nodes * _bilinear(ev, gm, f_plus, f, f)
    # the complex gathers are spent; the bounds need only their moduli
    del f_minus, f_plus, gm
    cells = grid.cell_weights().reshape(-1)
    lhs = float(np.sum(cells * ((q1 - q2) * np.conj(gf)).reshape(-1)).real)

    # |fhat| and every weight below are even in eta, so the angular sums run
    # over the operator's pairs of a kept node and an angle, indexed by
    # ev.pairs(), and ev.node_sum mirrors them onto the rest. The plane has
    # no pair where |eta+| > eta_max, which happens only at nodes beyond
    # eta_max > lam, where G_Lam fhat is 0
    theta, phi = ev.theta, ev.phi
    node, angle = ev.pairs()

    r_pair = grid.abs_nodes().reshape(-1)[ev.keep][node]
    sin_sq = np.sin(phi) ** 2          # = 1 - |eta+|^2/|eta|^2
    ratio_pm = 1.0 / np.tan(phi) ** 2   # |eta+|^2 / |eta-|^2
    abs_minus, abs_plus = np.abs(kac_pair(r_pair, phi[angle]))   # planar phi is signed
    eps_prop = epsilon(alpha, ratio_pm)
    eps_lem = epsilon(alpha, 1.0 / np.tan(theta / 2.0) ** 2)

    r_nodes = grid.abs_nodes().reshape(-1)
    mag = np.abs(f).reshape(-1)
    g_mag = (g_nodes.reshape(-1)) * mag      # |G_Lam fhat| on nodes
    bt = beta * t

    # product bound over the collision sphere
    g_minus_eps = _grow(bt, abs_minus ** 2, power=eps_prop[angle], alpha=alpha)
    glam_plus = _grow(bt, abs_plus ** 2, alpha=alpha)
    glam_plus = np.where(abs_plus <= lam * (1.0 + 1e-12), glam_plus, 0.0)
    bracket_plus = (1.0 + abs_plus ** 2) ** alpha
    inner = ev.node_sum(g_minus_eps * fm * glam_plus * fp * bracket_plus,
                        ev.weights * sin_sq).reshape(-1)
    rhs_bound = 2.0 * ab_t * float(np.sum(cells * g_mag * inner))

    # square-weighted bound, outer variable eta; the evaluator weights carry
    # b(cos t)*sin^{d-2}t, so sin^2 of the full angle completes sin^d t * b
    ind_minus = abs_minus <= lam / math.sqrt(2.0) * (1.0 + 1e-12)
    g_minus_lem = _grow(bt, abs_minus ** 2, power=eps_lem[angle], alpha=alpha)
    inner_i = ev.node_sum(g_minus_lem * fm * ind_minus,
                          ev.weights * np.sin(theta) ** 2).reshape(-1)
    bracket_nodes = (1.0 + r_nodes ** 2) ** alpha
    i_term = ab_t * float(np.sum(cells * g_mag ** 2 * bracket_nodes * inner_i))

    # square-weighted bound, outer variable eta+ (see the docstring)
    tan_phi = np.tan(phi)[angle]
    abs_pts = np.abs(r_pair * tan_phi)
    if grid.mode == "full-2d":
        pts = tan_phi[:, None] * perp_unit(ev.pts)[node]
    else:
        pts = r_pair * tan_phi
    if d == 1:
        kernel_plus, pref = ev.weights * sin_sq, math.sqrt(2.0) * ab_t
    else:
        kernel_plus, pref = ev.weights * sin_sq / np.cos(phi) ** (d - 2), 2.0 * ab_t
    fmp = np.abs(_InterpPlan(grid, pts).apply(fine))
    ind_plus = abs_pts <= lam / math.sqrt(2.0) * (1.0 + 1e-12)
    g_minus_plus = _grow(bt, abs_pts ** 2, power=eps_lem[angle], alpha=alpha)
    inner_p = ev.node_sum(g_minus_plus * fmp * ind_plus, kernel_plus).reshape(-1)
    i_plus_term = pref * float(np.sum(cells * g_mag ** 2 * bracket_nodes * inner_p))

    return CommutatorReport(lhs=lhs, rhs_bound=rhs_bound, i_term=i_term,
                            i_plus_term=i_plus_term)


# ----------------------------------------------------------------------------
# kernel moment constants and the rate budget
# ----------------------------------------------------------------------------

def _sin2_moment(nu: float, a: float) -> float:
    """int_0^a theta^(-1-2 nu) sin^2(theta) dtheta for a <= pi/2, by the series
    of sin^2 = (1 - cos 2 theta)/2: sum_k (-1)^(k+1) 2^(2k-1) a^(2k-2 nu) /
    ((2k)! (2k - 2 nu)), whose terms beyond k = 15 are below 1e-20 of it."""
    return math.fsum((-1) ** (k + 1) * 2.0 ** (2 * k - 1) * a ** (2 * k - 2 * nu)
                     / (math.factorial(2 * k) * (2 * k - 2 * nu)) for k in range(1, 16))


def cb_constant(cs: CrossSection, d: int, variant: str = "scaled") -> float:
    """Angular moment of the kernel against sin^2 (the grazing-safe weight),
    from theta = 0 with no cutoff: kappa times the exact `_sin2_moment`.

    variant "scaled": includes the sphere factor |S^{d-2}| for d >= 3 and
    uses the symmetric quarter-range for d = 1.  variant "plain": the bare
    integral of sin^d(theta) b(cos theta) over (0, pi/2], identical to
    "scaled" for d = 2.
    """
    if d not in (1, 2, 3):
        raise ConfigError("dimension must be 1, 2 or 3")
    if variant not in ("scaled", "plain"):
        raise ConfigError("variant must be 'scaled' or 'plain'")
    if d == 1:
        if variant == "plain":
            raise ConfigError("the plain variant needs d >= 2")
        return 2.0 * cs.kappa * _sin2_moment(cs.nu, math.pi / 4.0)
    base = cs.kappa * _sin2_moment(cs.nu, math.pi / 2.0)
    if variant == "plain" or d == 2:
        return base
    return _SPHERE_AREA[d - 1] * base


def beta_recommendation(M: float, T0: float, alpha: float, cs: CrossSection,
                        d: int, part="I", M2: float | None = None,
                        theta0: float | None = None,
                        vartheta0: float | None = None) -> float:
    """Largest admissible weight growth rate for a hypothesis bound M.

    Part I:   1 / ((1 + 2^{d-1}) c_b alpha T0 M + 1), with the sqrt(2)
              combination replacing 2^{d-1} in the one-dimensional model.
    Part II:  same shape with the plain kernel constant.
    Part III: 1 / (alpha T0 [(1+2^{d-1}) c_b2 M2 + (C_t0 + 2^d C_v0) M] + 1).
    """
    _check_chain(part, d=d)
    if M < 0 or T0 <= 0 or not 0 < alpha <= 1:
        raise ConfigError("need M >= 0, T0 > 0, alpha in (0, 1]")
    if part == "I":
        cb = cb_constant(cs, d, "scaled")
        comb = 1.0 + (math.sqrt(2.0) if d == 1 else 2.0 ** (d - 1))
        return 1.0 / (comb * cb * alpha * T0 * M + 1.0)
    cb2 = cb_constant(cs, d, "plain")
    if part == "II":
        return 1.0 / ((1.0 + 2.0 ** (d - 1)) * cb2 * alpha * T0 * M + 1.0)
    if M2 is None or theta0 is None or vartheta0 is None:
        raise ConfigError("part III needs M2, theta0, and vartheta0")
    c_t0 = cs.b_value(theta0, d)
    c_v0 = cs.b_value(2.0 * vartheta0, d)
    denom = alpha * T0 * ((1.0 + 2.0 ** (d - 1)) * cb2 * M2
                          + (c_t0 + 2.0 ** d * c_v0) * M) + 1.0
    # b_value returns a numpy scalar
    return float(1.0 / denom)


# what differs between the three parts of the scale induction: the index
# n(d) of alpha_{m,n} and of the decay exponent 2m/(2m + n), the chain's
# base scale as a function of d, and the smallest dimension of the part
_PARTS = {
    "I": (lambda d: d, lambda d: 4.0 * math.sqrt(d) / (math.sqrt(2.0) - 1.0), 1),
    "II": (lambda d: 2, lambda d: 4.0 * math.sqrt(2.0) / (math.sqrt(2.0) - 1.0), 2),
    "III": (lambda d: 1, lambda d: 3.0, 2),
}


def _check_chain(part: str, m: int = 2, d: int | None = None) -> None:
    """Check that `part` is one of the induction parts I, II and III, that
    the moment order m lies in 2..4 and, when the dimension d is given,
    that the part applies in it.  A config's [induction] section is checked
    when it loads, against its [grid] dimension if it has one."""
    if part not in _PARTS:
        raise ConfigError(f"unknown induction part {part!r}")
    if m < 2:
        raise ConfigError("m must be >= 2")
    if m > 4:
        raise ConfigError(f"m = {m}: moments stop at order 4, so 2 <= m <= 4")
    if d is not None and d < _PARTS[part][2]:
        raise ConfigError("parts II and III need d >= 2")


def angle_thresholds(alpha: float, m: int) -> tuple:
    """Largest split angles (theta0, vartheta0) in (0, pi/4) keeping the
    grazing-cone exponent at or below 2m/(2m+2).

    eps(alpha, cot^2(theta0/2)) <= 2m/(2m+2) for the eta window and
    eps(alpha, cot^2(vartheta0)) <= 2m/(2m+2) for the eta+ window; both
    left sides increase in the angle, so bisection finds the threshold.
    """
    if m < 2:
        raise ConfigError("m must be >= 2")
    target = 2.0 * m / (2.0 * m + 2.0)
    cap = math.pi / 4.0 * (1.0 - 1e-9)

    def largest(fn):
        if fn(cap) <= target:
            return cap
        lo, hi = 1e-12, cap
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if fn(mid) <= target:
                lo = mid
            else:
                hi = mid
        return lo

    theta0 = largest(lambda th: epsilon(alpha, 1.0 / math.tan(th / 2.0) ** 2))
    vartheta0 = largest(lambda th: epsilon(alpha, 1.0 / math.tan(th) ** 2))
    return theta0, vartheta0


# ----------------------------------------------------------------------------
# scale induction: schedule construction and hypothesis checking
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class InductionSchedule:
    part: str
    alpha: float
    m: int
    scales: tuple
    M: float
    B: float
    beta: float
    A_m: float
    K_empirical: float
    beta_formula: float
    theta0: float | None = None
    vartheta0: float | None = None


def _l1m_norm(state: SpectralState, m: int) -> float:
    """Moment norm int f <v>^m dv for 2 <= m <= 4, via conserved even
    moments.  m = 2 is exact; m = 3 and 4 use the order-4 majorant
    int f (1 + |v|^2)^2 dv, which bounds the integral from above only up to
    m = 4."""
    if m == 2:
        m0, _, m2 = moments(state, order=2)
        return m0 + m2
    mom = moments(state, order=4)
    return mom[0] + 2.0 * mom[2] + mom[-1]


def _decay_exponent(part: str, m: int, d: int) -> float:
    return 2.0 * m / (2.0 * m + _PARTS[part][0](d))


def _alpha_cap(part: str, m: int, d: int, nu: float) -> float:
    """Largest admissible weight order min(alpha_{m,n}, nu) for a part."""
    return min(alpha_md(m, _PARTS[part][0](d)), nu)


def build_induction_schedule(states, part: str, m: int, alpha: float, T0: float,
                             cs: CrossSection) -> InductionSchedule:
    """Two-pass schedule for the geometric chain of frequency scales.

    states: snapshots along one run covering [0, T0], first entry at t=0,
    all on one grid (states from different grids raise ConfigError).
    The chain starts at the part's base scale and grows by (1 + sqrt 2)/2
    up to the last scale at or below eta_max/sqrt(2), so every hypothesis
    window stays inside the grid.  Pass one prices the weight with the
    moment floor M = 2 A_m + 1 (times the direction-sphere measure for
    parts II/III); the resulting rate is used to measure the empirical
    decay constant, and the final rate is the minimum of the pass-one rate
    and the formula at the enlarged M.  The L2 cap B is the L2 norm of
    states[0] times exp(T0).
    """
    if not states:
        raise ConfigError("need at least one snapshot state")
    grid = states[0].grid
    if any(s.grid != grid for s in states):
        raise ConfigError("snapshot states come from different grids")
    d = grid.dimension
    _check_chain(part, m, d)
    a_cap = _alpha_cap(part, m, d, cs.nu)
    if alpha > a_cap * (1.0 + 1e-12):
        raise ConfigError(f"alpha {alpha:g} exceeds min(alpha_m_n, nu) = {a_cap:g}")

    lam0 = _PARTS[part][1](d)
    cap = grid.eta_max / math.sqrt(2.0)
    scales = []
    lam = lam0
    while lam <= cap * (1.0 + 1e-12):
        scales.append(lam)
        lam *= _SCALE_FACTOR
    if not scales:
        raise ConfigError("no scale fits below eta_max/sqrt(2); raise eta_max")

    sphere = _SPHERE_AREA[d - 1] if d >= 2 else 1.0  # |S^{d-2}| measure
    omega_measure = 1.0 if part == "I" else sphere
    A_m = max(_l1m_norm(s, m) for s in states)
    cells = grid.cell_weights().reshape(-1)
    l2_f0 = math.sqrt(float(np.sum(cells * np.abs(states[0].values).reshape(-1) ** 2)))
    B = l2_f0 * math.exp(T0)

    theta0 = vartheta0 = M2 = None
    if part == "III":
        theta0, vartheta0 = angle_thresholds(alpha, m)
        M2 = 2.0 * sphere * A_m + 1.0

    def formula(M):
        return beta_recommendation(M, T0, alpha, cs, d, part, M2=M2,
                                   theta0=theta0, vartheta0=vartheta0)

    # crude start bound: the base-scale hypothesis value is at most
    # start_measure * A_m * exp(rate * T0 * <Lambda_0>^..)
    start_measure = omega_measure * (math.pi / 2.0 if part == "III" else 1.0)

    def start_rate(M):
        # rate below which the chain hypothesis holds at the base scale
        if M <= start_measure * A_m:
            return 0.0
        lg = math.log(M / (start_measure * A_m))
        if part == "I":
            return lg / (epsilon(alpha, 1.0) * T0 * (1.0 + lam0 ** 2) ** alpha)
        return lg / (T0 * (1.0 + lam0 ** 2))

    def cap_parts(M):
        vals = [formula(M), start_rate(M)]
        if part != "I":
            vals.append(1.0 / T0)
        return min(v for v in vals if v > 0)

    floor = 2.0 * omega_measure * A_m + 1.0
    beta_a = cap_parts(floor)

    # measure the decay constant the chain would certify, then re-price;
    # the pointwise sup times the angular measure bounds the averaged
    # hypothesis functionals of parts II and III
    p = _decay_exponent(part, m, d)
    tilde_max = _SCALE_FACTOR * scales[-1]
    window = min(tilde_max, grid.eta_max)
    k_emp = start_measure * max(_weighted_sup(s, beta_a * s.t, window, p, alpha)
                                for s in states)
    M_final = max(floor, k_emp)
    beta = min(beta_a, cap_parts(M_final))

    return InductionSchedule(
        part=part, alpha=alpha, m=m,
        scales=tuple(scales), M=M_final, B=B, beta=beta,
        A_m=A_m, K_empirical=k_emp, beta_formula=formula(M_final),
        theta0=theta0, vartheta0=vartheta0)


def _unit_directions(d: int, n_random: int, rng) -> np.ndarray:
    axes = np.eye(d)
    extra = rng.normal(size=(n_random, d))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    return np.concatenate([axes, extra])


def _omega_frames(dirs: np.ndarray) -> np.ndarray:
    """The unit circle S^0 orthogonal to each planar direction: the two
    vectors +-zeta_perp, axes (direction, omega node, coordinate).  Its
    measure |S^0| = 2 counts the two nodes, so the omega average is the sum
    over the omega axis."""
    perp = perp_unit(dirs)
    return np.stack([perp, -perp], axis=1)


def _hyp2_sups(grid, states, fines, alpha, beta, lam, dirs) -> list:
    # (z, rho) on a 32 x 32 polar lattice of the sector pi/4 < phi < pi/2
    # of the disk of radius lam; one plan for every direction and snapshot,
    # with axes (direction, lattice point, omega node, coordinate)
    idx = np.arange(32)
    rad = (lam * (idx + 1) / 32.0)[:, None]
    phi = math.pi / 4.0 + math.pi / 4.0 * (idx + 0.5) / 32.0
    z, rho = (rad * np.cos(phi)).reshape(-1), (rad * np.sin(phi)).reshape(-1)
    plan = _InterpPlan(grid, z[:, None, None] * dirs[:, None, None, :]
                       - rho[:, None, None] * _omega_frames(dirs)[:, None])
    return [float((_grow(beta * s.t, z ** 2 + rho ** 2, power=epsilon(alpha, 1.0),
                         alpha=alpha) * np.abs(plan.apply(fine)).sum(axis=-1)).max())
            for s, fine in zip(states, fines)]


def _hyp3_sups(grid, states, fines, alpha, beta, lam, m, rules, dirs) -> list:
    """Part-III suprema of the snapshots over the planar directions `dirs`.
    A radial grid sweeps one direction: its plan reads the radius |point|,
    and the two omega nodes stand for the sphere S^{d-2}, so their sum is
    scaled by |S^{d-2}|/2."""
    p = _decay_exponent("III", m, grid.dimension)
    sq2lam = math.sqrt(2.0) * lam
    if sq2lam > grid.eta_max * (1.0 + 1e-9):
        raise ConfigError("hypothesis window sqrt(2)*lam exceeds the grid")
    radial = grid.mode == "radial"
    omega_scale = _SPHERE_AREA[grid.dimension - 1] / 2.0 if radial else 1.0
    (th_a, w_a), (th_b, w_b) = rules

    # one plan per angle branch, one at a time, for every direction, radius
    # and snapshot; axes are (direction, radius, angle, omega node, coordinate)
    om = _omega_frames(dirs)[:, None, None]
    r = np.linspace(sq2lam / 24, sq2lam, 24)[:, None, None, None]
    sa, ca = np.sin(th_a / 2.0)[:, None, None], np.cos(th_a / 2.0)[:, None, None]
    branches = ((r * sa ** 2 * dirs[:, None, None, None, :] - r * sa * ca * om, w_a),
                (-(r * np.tan(th_b)[:, None, None]) * om, w_b))
    sups = [0.0] * len(fines)
    for pts, wq in branches:
        rad = np.linalg.norm(pts, axis=-1)
        ind = rad <= lam * (1.0 + 1e-12)
        plan = _InterpPlan(grid, rad if radial else pts)
        for i, (s, fine) in enumerate(zip(states, fines)):
            g = _grow(beta * s.t, rad ** 2, power=p, alpha=alpha)
            omega_avg = omega_scale * (g * np.abs(plan.apply(fine)) * ind).sum(axis=-1)
            sups[i] = max(sups[i], float(np.sum(wq * omega_avg, axis=-1).max()))
        del plan
    return sups


@dataclass(frozen=True)
class HypothesisRow:
    scale: float
    t: float
    hyp1: float
    hyp2: float | None
    hyp3: float | None
    weighted_l2: float
    passed: bool


def check_hypotheses(trajectory, schedule: InductionSchedule,
                     n_random: int = 64, seed: int = 0) -> list:
    """Evaluate the chain hypotheses on every (scale, snapshot) pair.

    `trajectory` is any object with `snapshots`, a list of (t, state)
    pairs, and `final`, the state checked alone when that list is empty:
    a Trajectory from `run`, or a plain namespace of stored snapshots.
    Each snapshot is priced at its state's own time `state.t`; the t of
    the pair is not read.  On full-2d grids the direction sweeps read the
    two axes plus `n_random` random unit directions; part III reads the
    axes and at most the first 16 random ones.  Radial grids sweep one
    direction; a negative `n_random` or `seed` raises ConfigError.
    Each scale builds its sweep plans once for all snapshots, whose
    refinements are held together (2.1 MB each on a 64 x 64 planar grid).
    Returns HypothesisRow records sorted by (scale, t);
    `passed` requires the part's hypothesis supremum to stay at or below
    schedule.M and the weighted L2 norm at sqrt(2)*scale to stay at or
    below schedule.B (small relative slack for quadrature noise).
    """
    if seed < 0 or n_random < 0:
        raise ConfigError(f"seed and n_random must be >= 0, got {seed} and {n_random}")
    part = schedule.part
    states = [s for _, s in trajectory.snapshots] or [trajectory.final]
    grid = states[0].grid
    d = grid.dimension
    radial = grid.mode == "radial"
    dirs = dirs3 = None
    if d >= 2:
        # radial data read every direction alike: one planar direction
        # stands for them all
        dirs = np.eye(2)[:1] if radial else \
            _unit_directions(d, n_random, np.random.default_rng(seed))
        dirs3 = dirs[: d + min(n_random, 16)]
    alpha, beta = schedule.alpha, schedule.beta
    need_fine = part == "III" or (part == "II" and not radial)
    fines = [refine_array(grid, s.values) if need_fine else None for s in states]
    if part == "III":
        rules = (_gl_rule(schedule.theta0, math.pi / 2.0, 48),
                 _gl_rule(schedule.vartheta0, math.pi / 4.0, 48))

    rows = []
    slack = 1.0 + 1e-9
    for lam in schedule.scales:
        h1s = [_weighted_sup(s, beta * s.t, lam, epsilon(alpha, 1.0), alpha)
               for s in states]
        h2s = h3s = [None] * len(states)
        if part == "II":
            # radial data: the direction average is |S^{d-2}| times the
            # profile at radius sqrt(z^2 + rho^2), which h1 maximizes
            h2s = ([_SPHERE_AREA[d - 1] * h1 for h1 in h1s] if radial
                   else _hyp2_sups(grid, states, fines, alpha, beta, lam, dirs))
        if part == "III":
            h3s = _hyp3_sups(grid, states, fines, alpha, beta, lam, schedule.m, rules, dirs3)
        for s, h1, h2, h3 in zip(states, h1s, h2s, h3s):
            wn = weighted_norms(s, GevreyWeight(alpha, beta, t=s.t,
                                                lam=math.sqrt(2.0) * lam))
            relevant = {"I": h1, "II": h2, "III": h3}[part]
            ok = relevant <= schedule.M * slack and wn.l2 <= schedule.B * slack
            rows.append(HypothesisRow(scale=lam, t=s.t, hyp1=h1, hyp2=h2, hyp3=h3,
                                      weighted_l2=wn.l2, passed=bool(ok)))
    rows.sort(key=lambda r: (r.scale, r.t))
    return rows


# ----------------------------------------------------------------------------
# polynomial-weight norms and the entropy functionals
# ----------------------------------------------------------------------------

def bracket_integral(d: int, p: float) -> float:
    """int (1+|v|^2)^{-p/2} dv over R^d, p > d (radial beta-function form)."""
    if p <= d:
        raise ConfigError("need p > d for integrability")
    radial = math.gamma(d / 2.0) * math.gamma((p - d) / 2.0) / (2.0 * math.gamma(p / 2.0))
    return _SPHERE_AREA[d] * radial


def embedding_constant(d: int) -> float:
    """Constant turning a mass bound into a negative-order Sobolev bound."""
    return math.sqrt(bracket_integral(d, 2.0 * d))


def negative_sobolev_norm(state: SpectralState, s: float) -> float:
    """Grid quadrature of the order -s Sobolev norm of the density."""
    grid = state.grid
    cells = grid.cell_weights().reshape(-1)
    r = grid.abs_nodes().reshape(-1)
    mag2 = np.abs(state.values).reshape(-1) ** 2
    return math.sqrt(float(np.sum(cells * (1.0 + r * r) ** (-s) * mag2)))


def hinf_weighted_norm(state: SpectralState, beta: float) -> float:
    """Polynomial-multiplier norm |<eta>^{beta*t - d} fhat|_{L2} at the
    state's own time; at t = 0 this is the order -d norm."""
    if beta < 0:
        raise ConfigError("beta must be nonnegative")
    s = state.grid.dimension - beta * state.t
    return negative_sobolev_norm(state, s)


@dataclass(frozen=True)
class LloglReport:
    entropy: float
    llogl: float
    bound_ok: bool


def entropy_and_llogl(state: SpectralState) -> LloglReport:
    """Entropy int f log f (`evolution.entropy`) and the companion
    functional int f log(1+f) of a full-grid state, with the comparison
    bound

        llogl <= log(2)*mass + entropy + C * (int f <v>^2 dv)^{1-delta},

    where C packs the largest constant in log(u) <= u^delta / (e*delta)
    against the integrable bracket weight.  delta = 1/(d+2), strictly
    inside the admissible range (0, 2/(d+2))."""
    v, dens, dv = to_physical(state)
    d = state.grid.dimension
    cell = dv ** d
    f = dens.reshape(-1)
    v2 = sum(a ** 2 for a in np.meshgrid(*([v] * d), indexing="ij")).reshape(-1)
    delta = 1.0 / (d + 2.0)
    mass = float(np.sum(f) * cell)
    ent = entropy(state)
    llogl = float(np.sum(f * np.log1p(f)) * cell)
    l12 = float(np.sum(f * (1.0 + v2)) * cell)
    c_delta = (bracket_integral(d, 2.0 * (1.0 - delta) / delta) ** delta
               / (math.e * delta))
    rhs = math.log(2.0) * mass + ent + c_delta * l12 ** (1.0 - delta)
    ok = llogl <= rhs + 1e-12 * max(1.0, abs(rhs))
    return LloglReport(entropy=ent, llogl=llogl, bound_ok=bool(ok))
