"""Non-cutoff collision operator in frequency space.

For d >= 2 the operator acts on transforms through a sphere average,

    Qhat(g, h)(eta) = int_{S^{d-1}} b(etahat.sigma)
                      [ghat(eta-) hhat(eta+) - ghat(0) hhat(eta)] dsigma,
    eta+ = (eta + |eta| sigma)/2,   eta- = eta - eta+,

with |eta+| = |eta| cos(theta/2), |eta-| = |eta| sin(theta/2) for the
deviation angle theta between eta and sigma. The d = 1 caricature replaces
the sphere by theta in [-pi/4, pi/4] with eta+ = eta cos(theta),
eta- = eta sin(theta).

The angular kernel is the standard non-integrable model

    sin^{d-2}(theta) b(cos theta) = kappa * theta^(-1-2 nu)   (0 < theta <= pi/2)

(d = 1: b1(theta) = kappa |theta|^(-1-2 nu)), truncated at theta_min and
integrated by Gauss-Legendre on geometrically graded panels. All sigma
multiplicity (mirror directions for d = 2, the azimuthal circle for d = 3)
is folded into the quadrature weights, so sum(weights) is the truncated
total cross-section.

Every transform here is Hermitian (the density is real), and so is Qhat:
Qhat(-eta) = conj Qhat(eta). The gain is therefore evaluated on one node
of each conjugate pair and mirrored; the unpaired nodes (the -n/2 row and
column of the planar lattice), where a state holds 0, get no gain. For
d = 1 the mirror theta -> -theta maps eta- to -eta- and keeps eta+, so
the two angles fold into one with doubled weight:

    gain(eta) = sum_{theta > 0} 2 w Re ghat(eta sin theta) hhat(eta cos theta).

The gain is a sum over (kept node, angle) pairs: gather ghat at eta- and
hhat at eta+ of every pair, form ghat hhat w, and sum each node's pairs.
On the line modes every pair is kept, node-major. On the plane a pair
whose eta+ lies beyond eta_max contributes 0, since hhat reads 0 there,
so only the live pairs, |eta+| <= eta_max, are gathered; |eta-| <= |eta+|
for |theta| <= pi/2 puts their eta- inside too, and |eta+| <= |eta|
leaves every node inside the eta_max disk all its pairs. Both gathers
are spectral._InterpPlan gathers: the eta+ plan keeps exactly the live
pairs, its points inside the disk, in its band order of the lattice rows
eta+ reads, and the eta- plan reads the same pairs in that order, so both
return their sums in one pair order. The eta+ plan's scatter puts the
products back in (kept node, angle) rows, the dead pairs as exact zeros,
and each node sums its row in angle order, so every node's gain is the
same sum on any pair order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral import (GridSpec, SpectralState, _InterpPlan, _SPHERE_AREA, moments,
                       refine_array)

__all__ = [
    "CrossSection",
    "AngularQuadrature",
    "collision_geometry",
    "sigma_from_angle",
    "perp_unit",
    "transform_jacobian",
    "kac_pair",
    "rhs_bilinear",
    "total_weight",
    "stability_limit",
    "truncation_error_bound",
]


@dataclass(frozen=True)
class CrossSection:
    """Angular collision kernel with singularity exponent nu in (0, 1)."""
    nu: float
    kappa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.nu < 1.0:
            raise ConfigError(f"nu must lie in (0, 1), got {self.nu}")
        if not 0 < self.kappa < math.inf:
            raise ConfigError(f"kappa must be positive and finite, got {self.kappa!r}")

    def collapsed(self, theta) -> np.ndarray:
        """sin^{d-2}(theta) b(cos theta) = kappa |theta|^(-1-2 nu); also the
        d = 1 kernel b1(theta)."""
        th = np.abs(np.asarray(theta, dtype=float))
        return self.kappa * th ** (-1.0 - 2.0 * self.nu)

    def b_value(self, theta, dimension: int) -> np.ndarray:
        """b(cos theta) itself (the collapsed kernel divided by sin^{d-2})."""
        th = np.abs(np.asarray(theta, dtype=float))
        if dimension == 1:
            return self.collapsed(th)
        return self.collapsed(th) / np.sin(th) ** (dimension - 2)


@dataclass(frozen=True)
class AngularQuadrature:
    """Graded-panel Gauss-Legendre rule for the singular angular integral.

    Panels shrink geometrically from the upper angle limit down to theta_min,
    which matches the theta^(-1-2 nu) singularity: each panel sees a bounded
    relative variation of the kernel.
    """
    theta_min: float
    panels: int = 8
    nodes_per_panel: int = 5
    azimuthal_nodes: int = 8

    def __post_init__(self):
        if not 0.0 < self.theta_min < math.pi / 4:
            raise ConfigError("theta_min must lie in (0, pi/4)")
        if self.panels < 1 or self.nodes_per_panel < 2:
            raise ConfigError("need panels >= 1 and nodes_per_panel >= 2")
        if self.azimuthal_nodes < 1:
            raise ConfigError("azimuthal_nodes must be >= 1")

    def angles(self, theta_max: float) -> tuple:
        """Positive nodes and plain quadrature weights on [theta_min, theta_max].

        This is the one angular rule: the operator and its commutator bounds
        read their angles from it.
        """
        if not self.theta_min < theta_max:
            raise ConfigError("theta_min must be below the upper angle limit")
        rho = (self.theta_min / theta_max) ** (1.0 / self.panels)
        edges = theta_max * rho ** np.arange(self.panels, -1, -1)
        nodes, weights = zip(*(_gl_rule(lo, hi, self.nodes_per_panel)
                               for lo, hi in zip(edges[:-1], edges[1:])))
        return np.concatenate(nodes), np.concatenate(weights)


def _gl_rule(lo, hi, n):
    """n-point Gauss-Legendre nodes and weights on [lo, hi]."""
    x, wq = np.polynomial.legendre.leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * wq


# ----------------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------------

def perp_unit(u: np.ndarray) -> np.ndarray:
    """Counter-clockwise perpendicular of 2-vectors (last axis)."""
    u = np.asarray(u, dtype=float)
    return np.stack([-u[..., 1], u[..., 0]], axis=-1)


def sigma_from_angle(eta_hat: np.ndarray, theta) -> np.ndarray:
    """Unit sigma at signed deviation angle theta from eta_hat, rotated
    toward perp(eta_hat) for theta > 0 (d = 2)."""
    th = np.asarray(theta, dtype=float)[..., None]
    return np.cos(th) * eta_hat + np.sin(th) * perp_unit(eta_hat)


def collision_geometry(eta: np.ndarray, sigma: np.ndarray) -> tuple:
    """(eta_minus, eta_plus) for the frequency split eta+ = (eta + |eta| sigma)/2."""
    eta = np.asarray(eta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    r = np.linalg.norm(eta, axis=-1, keepdims=True)
    plus = 0.5 * (eta + r * sigma)
    return eta - plus, plus


def transform_jacobian(eta: np.ndarray, sigma: np.ndarray) -> float:
    """Determinant of d(eta+)/d(eta) at fixed sigma: 2^-d (1 + etahat.sigma)."""
    eta = np.asarray(eta, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    d = eta.shape[-1]
    ehat = eta / np.linalg.norm(eta, axis=-1, keepdims=True)
    return 2.0 ** (-d) * (1.0 + (ehat * sigma).sum(-1))


def kac_pair(eta, theta) -> tuple:
    """(eta_minus, eta_plus) = (eta sin theta, eta cos theta) for d = 1; at
    half the deviation angle, also |eta-| and |eta+| for radii eta."""
    eta = np.asarray(eta, dtype=float)
    th = np.asarray(theta, dtype=float)
    return eta * np.sin(th), eta * np.cos(th)


# ----------------------------------------------------------------------------
# the live evaluator
# ----------------------------------------------------------------------------

class _Evaluator:
    """Precomputed angular nodes, sample coordinates, and gathers for one
    (grid, cross-section, quadrature) triple.

    Everything is built on the kept nodes, one node of each conjugate pair
    (eta, -eta); `expand` restores the full array, with 0 on the unpaired
    nodes.
    For d = 1 only theta > 0 is stored, with doubled weights. `phi` is the
    split angle of each angular node, |eta-| = |eta| |sin phi| and
    |eta+| = |eta| cos phi: theta for d = 1, theta/2 for d >= 2.

    The gain sums over the (kept node, angle) pairs of the module
    docstring, in the order of `plan`, the eta+ plan. `gather_minus` and
    `gather_plus` return a refinement's values at eta- and eta+ of every
    pair, `pairs()` gives each pair's node and angle index, and `node_sum`
    sums pair values by node. `slot` is the plan's order: None on the line
    modes, whose pairs are the (kept, angles) array, node-major; on the
    plane each live pair's flat position in that array.
    """

    def __init__(self, grid: GridSpec, cs: CrossSection, quad: AngularQuadrature):
        self.grid = grid
        d = grid.dimension
        mirror = grid.mirror()
        flat = np.arange(mirror.size)
        self.keep = np.flatnonzero((mirror >= 0) & (mirror <= flat))
        self.drop = np.flatnonzero(mirror > flat)
        self.partner = mirror[self.drop]
        self.pts = grid.nodes()[self.keep]
        # the Kac line folds theta < 0 onto theta > 0, radial data integrate
        # the sphere of directions in closed form; the plane keeps both signs
        planar = grid.mode == "full-2d"
        theta, w = quad.angles(math.pi / 4 if d == 1 else math.pi / 2)
        if planar:
            theta, w = np.concatenate([-theta[::-1], theta]), np.concatenate([w[::-1], w])
        mult = 1.0 if planar else 2.0 if d == 1 else _SPHERE_AREA[d - 1]
        self.theta, self.phi = theta, theta if d == 1 else theta / 2.0
        self.weights = mult * w * cs.collapsed(theta)
        self.total_weight = float(self.weights.sum())
        if planar:
            pts = self.pts[:, None, :]
            r = np.linalg.norm(pts, axis=-1, keepdims=True)
            ehat = np.divide(pts, r, out=np.zeros_like(pts), where=r > 0)
            minus, plus = collision_geometry(pts, sigma_from_angle(ehat, theta))
        else:
            minus, plus = kac_pair(self.pts[:, None], self.phi[None, :])
        # the eta+ plan orders the pairs and the eta- plan reads them in its
        # order; freeing the dense eta+ coordinates before the eta- stencils
        # are built keeps them out of the build's peak
        self.plan = _InterpPlan(grid, plus)
        del plus
        self.gather_minus = _InterpPlan(grid, minus, self.plan.order).gather
        self.gather_plus = self.plan.gather
        self.slot = self.plan.order

    def pairs(self) -> tuple:
        """(node, angle): each pair's kept-node and angle index, as arrays that
        broadcast to the pairs' shape; int32 on the plane, with no int64 copy."""
        if self.slot is None:
            return np.arange(self.keep.size)[:, None], np.arange(self.theta.size)
        node, angle = np.empty((2, self.slot.size), dtype=np.int32)
        return np.divmod(self.slot, self.theta.size, out=(node, angle), casting="unsafe")

    def node_sum(self, pairs: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        """Each kept node's sum of pairs * kernel over its pairs (the kernel
        indexed by angle), mirrored by `expand`; on the line modes `pairs`
        is overwritten.

        The pairs are scattered to their (kept, angles) rows, so that a row
        adds a node's pairs in angle order, the dead ones as exact zeros,
        whatever order they come in.
        """
        rows = self.plan.scatter(pairs)
        rows *= kernel
        return self.expand(rows.sum(axis=1))

    def expand(self, kept: np.ndarray) -> np.ndarray:
        """Full node array from kept-node values by x(-eta) = conj x(eta),
        0 on the unpaired nodes."""
        out = np.zeros(self.grid.shape, dtype=kept.dtype)
        flat = out.reshape(-1)
        flat[self.keep] = kept
        flat[self.drop] = np.conj(flat[self.partner])
        return out


# ((grid, cs, quad), evaluator) of the last build, or None
_live = None


def _evaluator(grid: GridSpec, cs: CrossSection, quad: AngularQuadrature) -> _Evaluator:
    """The evaluator of (grid, cs, quad). The last one built stays live and
    is reused while callers ask for the same triple; it is dropped before
    another is built, so at most one is resident."""
    global _live
    key = (grid, cs, quad)
    if _live is None or _live[0] != key:
        _live = None   # release the old operator before building the new one
        _live = (key, _Evaluator(grid, cs, quad))
    return _live[1]


# ----------------------------------------------------------------------------
# operator evaluation
# ----------------------------------------------------------------------------

def _bilinear(ev: _Evaluator, gm: np.ndarray, hp: np.ndarray,
              g_values: np.ndarray, h_values: np.ndarray) -> np.ndarray:
    """Qhat(g, h) on the grid nodes from the pair gathers gm of ghat at eta-
    (its real part for d = 1) and hp of hhat at eta+; hp is overwritten.

    The products are formed in place: no point-sized temporary beyond the
    two gathers and, on the plane, their (kept, angles) rows, so the
    allocator does not trim the heap and fault it in on every call.
    """
    grid = ev.grid
    np.multiply(gm, hp, out=hp)
    gain = ev.node_sum(hp, ev.weights)
    out = gain - ev.total_weight * g_values[grid.zero_index] * h_values
    out[grid.zero_index] = 0.0
    return out


def rhs_bilinear(grid: GridSpec, cs: CrossSection, quad: AngularQuadrature,
                 g_values: np.ndarray, h_values: np.ndarray) -> np.ndarray:
    """Qhat(g, h) on the grid nodes from raw transform samples.

    g and h must be Hermitian, ghat(-eta) = conj ghat(eta), as transforms of
    real densities are: the gain is evaluated on one node of each conjugate
    pair and mirrored by Qhat(-eta) = conj Qhat(eta), and for d = 1 the
    angles theta < 0 are folded onto theta > 0. The unpaired nodes get no
    gain, so Qhat of state values is exactly Hermitian with 0 there too.
    Passing the same array as g and h refines it once.

    The zero node is set to exactly 0: there eta+ = eta- = 0 and the
    gain/loss terms cancel identically, so any residue is pure roundoff.
    """
    ev = _evaluator(grid, cs, quad)
    same = g_values is h_values
    g_values = np.asarray(g_values, dtype=complex).reshape(grid.shape)
    h_values = g_values if same else np.asarray(h_values, dtype=complex).reshape(grid.shape)
    fine_g = refine_array(grid, g_values)
    fine_h = fine_g if same else refine_array(grid, h_values)
    # d = 1: ghat(-x) = conj ghat(x) pairs theta with -theta, so only
    # Re ghat enters, gathered from one contiguous copy (np.take copies a
    # strided source on every tap); radial refinements are real
    gm = ev.gather_minus(np.ascontiguousarray(fine_g.real)
                         if grid.dimension == 1 else fine_g)
    hp = ev.gather_plus(fine_h)
    # the refinements are spent; free them before the rows are allocated
    del fine_g, fine_h
    return _bilinear(ev, gm, hp, g_values, h_values)


def total_weight(grid: GridSpec, cs: CrossSection, quad: AngularQuadrature) -> float:
    """Truncated total cross-section (the loss-term coefficient)."""
    return _evaluator(grid, cs, quad).total_weight


def stability_limit(state: SpectralState, cs: CrossSection,
                    quad: AngularQuadrature) -> float:
    """Largest safe time step 0.5 / (fhat(0) * total cross-section); the loss
    term makes the stiffest mode decay at rate fhat(0) * W."""
    lam = state.mass * total_weight(state.grid, cs, quad)
    return 0.5 / lam


def truncation_error_bound(state_g: SpectralState, state_h: SpectralState,
                           cs: CrossSection, quad: AngularQuadrature) -> np.ndarray:
    """Pointwise bound on the discarded |theta| < theta_min part of
    Qhat(g, h), valid for nonnegative densities g, h.

    Pairing each sigma with its mirror kills the odd-in-omega linear terms;
    what remains is controlled by second differences of the transforms, giving
    an integrand bound C(|eta|) theta^2 with

        C = pi^2 |eta|^2 (m2(g) m0(h) + m0(g) m2(h))
            + pi |eta| (M1(g) m0(h) + m0(g) M1(h)),      d >= 2,
        C = (2 pi)^2 m2(g) m0(h) |eta|^2 + 2 pi m0(g) M1(h) |eta|,   d = 1,

    where M1 = int |v| f is replaced by its Cauchy-Schwarz bound
    sqrt(m0 m2). Integrating kappa theta^(-1-2nu) theta^2 over the discarded
    range gives the factor theta_min^(2-2nu)/(2-2nu) times the sigma
    multiplicity.
    """
    grid = state_g.grid
    d = grid.dimension
    mg = moments(state_g, 2)
    mh = moments(state_h, 2)
    m0g, m2g = mg[0], mg[2]
    m0h, m2h = mh[0], mh[2]
    M1g = math.sqrt(max(m0g * m2g, 0.0))
    M1h = math.sqrt(max(m0h * m2h, 0.0))
    r = grid.abs_nodes()
    if d == 1:
        c = (2 * math.pi) ** 2 * m2g * m0h * r ** 2 + 2 * math.pi * m0g * M1h * r
        mult = 2.0
    else:
        c = (math.pi ** 2 * (m2g * m0h + m0g * m2h) * r ** 2
             + math.pi * (M1g * m0h + m0g * M1h) * r)
        mult = _SPHERE_AREA[d - 1]
    tail = cs.kappa * quad.theta_min ** (2.0 - 2.0 * cs.nu) / (2.0 - 2.0 * cs.nu)
    return mult * tail * c
