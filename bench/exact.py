"""BKW-type exact solution of the discrete collision dynamics.

For Maxwellian molecules in Bobylev's form every mode of kinb pairs the
frequencies eta- and eta+ with |eta-|^2 = s |eta|^2 and |eta+|^2 = (1 - s)
|eta|^2 (Kac: s = sin^2 theta; radial and planar: s = sin^2(theta/2)).
For an isotropic transform phi(x), x = |eta|^2, of the form

    phi(t, x) = (1 + a(t) x) exp(-c(t) x)

the gain minus loss is Lambda a^2 x^2 exp(-c x) with Lambda = sum_i w_i
s_i (1 - s_i), so phi solves d phi/dt = Q(phi, phi) exactly when

    a(t) = a0 exp(-Lambda t),   c(t) = c0 - a0 (1 - exp(-Lambda t)).

Lambda is summed over the same angular nodes and kernel weights the
operator uses, which makes the reference exact for the discrete operator:
what remains is the interpolation and time-stepping error. The density is
nonnegative for -2 c0 / d <= a0 <= 0.
"""

from __future__ import annotations

import math

import numpy as np


def bkw_lambda(grid, cs, quad) -> float:
    """Lambda = sum w s (1 - s) over the operator's angular rule."""
    if grid.mode == "full-1d":
        th, w = quad.angles(math.pi / 4)
        theta = np.concatenate([-th[::-1], th])
        weights = np.concatenate([w[::-1], w]) * cs.collapsed(theta)
        s = np.sin(theta) ** 2
    elif grid.mode == "radial":
        theta, w = quad.angles(math.pi / 2)
        mult = 2.0 * math.pi if grid.dimension == 3 else 2.0
        weights = mult * w * cs.collapsed(theta)
        s = np.sin(theta / 2.0) ** 2
    else:
        th, w = quad.angles(math.pi / 2)
        theta = np.concatenate([-th[::-1], th])
        weights = np.concatenate([w[::-1], w]) * cs.collapsed(theta)
        s = np.sin(theta / 2.0) ** 2
    return float(np.sum(weights * s * (1.0 - s)))


def bkw_values(grid, t: float, a0: float, c0: float, lam: float) -> np.ndarray:
    """phi(t, |eta|^2) on the grid nodes (unit mass)."""
    if not -2.0 * c0 / grid.dimension <= a0 <= 0.0:
        raise ValueError("need -2 c0 / d <= a0 <= 0 for a nonnegative density")
    x = grid.abs_nodes() ** 2
    decay = math.exp(-lam * t)
    a = a0 * decay
    c = c0 - a0 * (1.0 - decay)
    return ((1.0 + a * x) * np.exp(-c * x)).astype(complex)


def bkw_rhs0(grid, a0: float, c0: float, lam: float) -> np.ndarray:
    """Q(phi, phi) at t = 0: Lambda a0^2 x^2 exp(-c0 x)."""
    x = grid.abs_nodes() ** 2
    return lam * a0 * a0 * x * x * np.exp(-c0 * x)


def max_error(values: np.ndarray, grid, t: float, a0: float, c0: float,
              lam: float) -> float:
    """max |fhat - phi(t)| / fhat(0)."""
    mass = float(values[grid.zero_index].real)
    return float(np.abs(values - bkw_values(grid, t, a0, c0, lam)).max()) / mass
