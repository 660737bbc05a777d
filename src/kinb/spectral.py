"""Frequency-space grids, states, catalog data, interpolation, and moments.

Conventions
-----------
The continuous transform used throughout is fhat(eta) = int f(v) e^{-2 pi i v.eta} dv,
so fhat(0) is the mass and derivatives at 0 give signed moments with powers of
(-2 pi i). Grids:

  full-1d : nodes k*h for k = -(n-1)..(n-1), h = eta_max/(n-1)  (2n-1 nodes)
  full-2d : nodes (kx, ky)*h for k = -n/2..n/2-1, h = 2*eta_max/n (n^2 nodes)
  radial  : nodes j*h for j = 0..n-1, h = eta_max/(n-1), rotation-invariant data

Off-grid evaluation first refines the stored samples by exact band-limited
zero-padding in physical space (valid because every density this package
evolves is compactly supported well inside the physical window 1/h), then
applies local 4-point cubic interpolation on the refined grid. Plain cubic on
the coarse grid cannot reach the advertised tolerances for sharply peaked
spectra; the refinement factor is an implementation constant, not a knob.

Every sample set must be the transform of a real density: Hermitian on full
grids, real in radial mode. The full-1d and radial refinements use this:
irfft of the eta >= 0 nodes gives the real physical samples, rfft of their
zero-padding gives the refined eta >= 0 half-axis (real in radial mode), and
points eta < 0 are read at |eta| and conjugated. interpolate_array rejects
samples that break the requirement. The planar refinement transforms only
the nonzero columns of the padded coefficient block before the row
transforms.

Moments need no refinement: the refined transform is the trigonometric
polynomial sum_j c_j e^{-2 pi i v_j . eta} whose coefficients are the
inverse-DFT samples c_j = f(v_j) dv^d, so int v^k f dv is the exact sum
sum_j c_j v_j^k (radial: over the even extension of the profile).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalFailure

__all__ = [
    "GridSpec",
    "SpectralState",
    "InitialDatum",
    "init_state",
    "refine_array",
    "interpolate",
    "interpolate_array",
    "moments",
    "to_physical",
    "state_with_values",
]

_MODES = ("full-1d", "full-2d", "radial")
# band-limited refinement factors per mode (see module docstring)
_UPSAMPLE = {"full-1d": 32, "radial": 32, "full-2d": 16}

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^{d-1}|
_GATHER_BLOCK = 8192  # points per block of a planar gather (see _InterpPlan)


@dataclass(frozen=True)
class GridSpec:
    """Frequency-grid geometry.

    Parameters
    ----------
    dimension : velocity dimension d in {1, 2, 3}
    mode : "full-1d" (d=1), "full-2d" (d=2), or "radial" (d in {2, 3})
    n : nodes per axis (full-1d counts nodes per half axis including 0)
    eta_max : outer frequency radius
    """
    dimension: int
    mode: str
    n: int
    eta_max: float

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ConfigError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        ok = {"full-1d": (1,), "full-2d": (2,), "radial": (2, 3)}[self.mode]
        if self.dimension not in ok:
            raise ConfigError(f"mode {self.mode!r} requires dimension in {ok}")
        if self.n < 16:
            raise ConfigError(f"n must be >= 16, got {self.n}")
        if not self.eta_max > 0:
            raise ConfigError("eta_max must be positive")

    @property
    def spacing(self) -> float:
        if self.mode == "full-2d":
            return 2.0 * self.eta_max / self.n
        return self.eta_max / (self.n - 1)

    @property
    def shape(self) -> tuple:
        if self.mode == "full-1d":
            return (2 * self.n - 1,)
        if self.mode == "full-2d":
            return (self.n, self.n)
        return (self.n,)

    @property
    def zero_index(self) -> tuple:
        if self.mode == "full-1d":
            return (self.n - 1,)
        if self.mode == "full-2d":
            return (self.n // 2, self.n // 2)
        return (0,)

    def axis_nodes(self) -> np.ndarray:
        h = self.spacing
        if self.mode == "full-1d":
            return h * np.arange(-(self.n - 1), self.n)
        if self.mode == "full-2d":
            return h * np.arange(-self.n // 2, self.n // 2)
        return h * np.arange(self.n)

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (N, d) flattened in C order (radial: radii)."""
        ax = self.axis_nodes()
        if self.mode == "full-2d":
            gx, gy = np.meshgrid(ax, ax, indexing="ij")
            return np.stack([gx.ravel(), gy.ravel()], axis=1)
        return ax

    def abs_nodes(self) -> np.ndarray:
        """|eta| per node, same layout as the stored values."""
        if self.mode == "full-2d":
            ax = self.axis_nodes()
            return np.hypot(ax[:, None], ax[None, :])
        return np.abs(self.axis_nodes())

    def cell_weights(self) -> np.ndarray:
        """Quadrature weights turning a node sum into int . d eta."""
        h = self.spacing
        if self.mode == "full-1d":
            return np.full(self.shape, h)
        if self.mode == "full-2d":
            return np.full(self.shape, h * h)
        r = self.axis_nodes()
        w = _SPHERE_AREA[self.dimension] * r ** (self.dimension - 1) * h
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class SpectralState:
    """Immutable snapshot (grid, time, complex node values).

    Invariants enforced at construction: fhat(0) real and positive,
    |fhat| <= fhat(0) up to a 1e-9 relative slack (the stepping guard),
    Hermitian symmetry within 1e-12 on full grids, real values within
    1e-12 in radial mode (the transform of a radial real density), finite
    values.
    """
    grid: GridSpec
    t: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if self.t < 0:
            raise ConfigError("state time must be nonnegative")
        if vals.shape != self.grid.shape:
            raise ConfigError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise NumericalFailure("non-finite values in state")
        z = vals[self.grid.zero_index]
        if not (z.real > 0):
            raise ConfigError("fhat(0) must be positive")
        if abs(z.imag) > 1e-12 * z.real:
            raise ConfigError("fhat(0) must be real")
        vals[self.grid.zero_index] = z.real
        sup = np.abs(vals).max()
        if sup > z.real * (1 + 1e-9):
            raise NumericalFailure(
                f"|fhat| exceeds fhat(0) by {sup / z.real - 1:.3e} (instability)")
        if self.grid.mode == "full-1d":
            mirror = vals[::-1]
            if np.abs(vals - mirror.conj()).max() > 1e-12 * z.real:
                raise ConfigError("values are not Hermitian")
        elif self.grid.mode == "full-2d":
            # index -n/2 has no mirror on the even lattice; check the rest
            sub = vals[1:, 1:]
            if np.abs(sub - sub[::-1, ::-1].conj()).max() > 1e-12 * z.real:
                raise ConfigError("values are not Hermitian")
        elif np.abs(vals.imag).max() > 1e-12 * z.real:
            raise ConfigError("radial values are not real")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        return float(self.values[self.grid.zero_index].real)


def state_with_values(state: SpectralState, values: np.ndarray,
                      t: float | None = None) -> SpectralState:
    return SpectralState(grid=state.grid, t=state.t if t is None else t, values=values)


# ----------------------------------------------------------------------------
# catalog of initial data with closed-form transforms
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialDatum:
    """Catalog datum. Kinds:

    gaussian           : sigma, center, mass
    gaussian-mixture   : components = ((weight, center, sigma), ...)
    laplace            : a (scale), mass;  fhat = mass (1+4 pi^2 a^2 |eta|^2)^{-(d+1)/2}
    """
    kind: str
    dimension: int
    sigma: float = 1.0
    center: tuple = ()
    mass: float = 1.0
    a: float = 1.0
    components: tuple = ()

    def __post_init__(self):
        d = self.dimension
        if d not in (1, 2, 3):
            raise ConfigError("dimension must be 1, 2 or 3")
        if self.kind == "gaussian":
            if self.sigma <= 0 or self.mass <= 0:
                raise ConfigError("gaussian needs sigma > 0 and mass > 0")
            c = self.center or tuple(0.0 for _ in range(d))
            if len(c) != d:
                raise ConfigError("center dimension mismatch")
            object.__setattr__(self, "center", tuple(float(x) for x in c))
        elif self.kind == "gaussian-mixture":
            if not self.components:
                raise ConfigError("gaussian-mixture needs at least one component")
            comps = []
            for w, c, s in self.components:
                if w <= 0 or s <= 0:
                    raise ConfigError("mixture weights and sigmas must be positive")
                c = tuple(float(x) for x in (c or tuple(0.0 for _ in range(d))))
                if len(c) != d:
                    raise ConfigError("mixture center dimension mismatch")
                comps.append((float(w), c, float(s)))
            object.__setattr__(self, "components", tuple(comps))
        elif self.kind == "laplace":
            if self.a <= 0 or self.mass <= 0:
                raise ConfigError("laplace needs a > 0 and mass > 0")
        else:
            raise ConfigError(f"unknown datum kind {self.kind!r}")

    def _triples(self):
        if self.kind == "gaussian":
            return ((self.mass, self.center, self.sigma),)
        return self.components

    def hat(self, eta: np.ndarray) -> np.ndarray:
        """Analytic transform at points eta (shape (..., d)); 1-d arrays are
        read as |eta| radii when the datum is radially symmetric."""
        eta = np.asarray(eta, dtype=float)
        d = self.dimension
        if d > 1 and eta.ndim >= 1 and eta.shape[-1] == d:
            r2 = (eta ** 2).sum(-1)
            dot = lambda c: eta @ np.asarray(c)
        else:
            r2 = eta ** 2
            dot = lambda c: eta * (c[0] if c else 0.0)
        if self.kind == "laplace":
            return self.mass * (1.0 + 4.0 * np.pi ** 2 * self.a ** 2 * r2) ** (-(d + 1) / 2.0)
        out = np.zeros(np.shape(r2), dtype=complex)
        for w, c, s in self._triples():
            out = out + w * np.exp(-2.0 * np.pi ** 2 * s ** 2 * r2
                                   - 2.0j * np.pi * dot(c))
        return out

    def density(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        d = self.dimension
        if self.kind == "laplace":
            r = np.abs(v) if (v.ndim <= 1 or v.shape[-1] != d) else np.linalg.norm(v, axis=-1)
            norm = self.a ** d * _SPHERE_AREA[d] * math.gamma(d)
            return self.mass * np.exp(-r / self.a) / norm
        out = 0.0
        for w, c, s in self._triples():
            if v.ndim >= 1 and d > 1 and v.shape[-1] == d:
                q = ((v - np.asarray(c)) ** 2).sum(-1)
            else:
                q = (v - (c[0] if c else 0.0)) ** 2
            out = out + w * np.exp(-q / (2 * s * s)) / (2 * np.pi * s * s) ** (d / 2.0)
        return out

    @property
    def total_mass(self) -> float:
        if self.kind == "gaussian-mixture":
            return float(sum(w for w, _, _ in self.components))
        return float(self.mass)

    def moment2(self) -> float:
        """int |v|^2 f dv in closed form."""
        d = self.dimension
        if self.kind == "laplace":
            return self.mass * self.a ** 2 * d * (d + 1)
        tot = 0.0
        for w, c, s in self._triples():
            tot += w * (d * s * s + sum(x * x for x in c))
        return tot

    def radially_symmetric(self) -> bool:
        if self.kind == "laplace":
            return True
        return all(all(x == 0 for x in c) for _, c, _ in self._triples())


def init_state(grid: GridSpec, datum: InitialDatum) -> SpectralState:
    if datum.dimension != grid.dimension:
        raise ConfigError("datum/grid dimension mismatch")
    if grid.mode == "radial" and not datum.radially_symmetric():
        raise ConfigError("radial mode requires a centered, radially symmetric datum")
    pts = grid.nodes()
    vals = datum.hat(pts)
    return SpectralState(grid=grid, t=0.0, values=np.asarray(vals).reshape(grid.shape))


# ----------------------------------------------------------------------------
# band-limited refinement + local cubic interpolation
# ----------------------------------------------------------------------------

def _refine_half(half: np.ndarray, upsample: int) -> np.ndarray:
    """Real band-limited refinement read on the eta >= 0 half-axis.

    `half` holds the node values at k h, k = 0..n-1, of a Hermitian set of
    M = 2n - 1 samples; their inverse DFT is M real physical samples, which
    are zero-padded to U*M and transformed back by rfft. Returns the values
    at k h/U for k = -1..U*M/2: the node at -h/U is the mirror conj of the
    one at +h/U, so the 4-point stencil also works at eta = 0. Valid when
    the physical signal is supported inside the window 1/h.
    """
    n = half.shape[0]
    M = 2 * n - 1
    Mf = upsample * M
    c = np.fft.irfft(half, M)
    ext = np.zeros(Mf)
    ext[:n] = c[:n]            # v_j for j = 0..n-1
    ext[Mf - n + 1:] = c[n:]   # j = -(n-1)..-1, wrapped to the end
    spec = np.fft.rfft(ext)
    return np.concatenate([spec[1:2].conj(), spec])


def _refine_2d(values: np.ndarray, upsample: int) -> np.ndarray:
    """2-D refinement of an even M x M lattice, pruned to the nonzero data.

    Only M of the U*M zero-padded columns are nonzero, so those are
    transformed along axis 0 first and the rows after. For even M and U*M
    the ifftshift of the input and the fftshift of the output are sign
    modulations that cancel, so neither is applied.
    """
    M = values.shape[0]
    half = M // 2  # indices 0..M/2-1 hold v >= 0
    Mf = upsample * M
    A = np.fft.ifft2(values)
    cols = np.zeros((Mf, M), dtype=complex)
    cols[:half] = A[:half]
    cols[half - M:] = A[half:]
    cols = np.fft.fft(cols, axis=0)
    ext = np.zeros((Mf, Mf), dtype=complex)
    ext[:, :half] = cols[:, :half]
    ext[:, half - M:] = cols[:, half:]
    return np.fft.fft(ext, axis=1)


def _fine_axis(grid: GridSpec) -> tuple:
    """(origin, spacing, count) of the refined axis for each mode: the
    whole periodic lattice for full-2d, the eta >= 0 half-axis with one
    mirrored node at -h/U for full-1d and radial."""
    U = _UPSAMPLE[grid.mode]
    h = grid.spacing
    if grid.mode == "full-2d":
        M = grid.n
        Mf = U * M
        x0 = -(Mf // 2) * (h / U)
        return x0, h / U, Mf
    Mf = U * (2 * grid.n - 1)
    return -h / U, h / U, Mf // 2 + 2


def refine_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """Band-limited refinement of node samples on the axis of _fine_axis.

    The samples must be transforms of real densities: Hermitian on full
    grids, real in radial mode (the even extension of a real profile).
    full-1d and radial read only the eta >= 0 nodes, so for other input
    the result is wrong without warning; interpolate_array checks this.
    Radial results are real and returned as float64.
    """
    U = _UPSAMPLE[grid.mode]
    values = np.asarray(values, dtype=complex)
    if grid.mode == "full-2d":
        return _refine_2d(values, U)
    if grid.mode == "full-1d":
        return _refine_half(values[grid.n - 1:], U)
    return np.ascontiguousarray(_refine_half(values, U).real)


def _fine_cell(u: np.ndarray, x0: float, hf: float, count: int) -> tuple:
    """Fine-lattice coordinate u = (x - x0)/hf, computed in place from the
    float array x passed as u, and the index floor(u), clipped to
    1..count-3 so that the 4-point stencil stays on the lattice; the index
    is returned as float."""
    u -= x0
    u /= hf
    i = np.floor(u)
    np.clip(i, 1, count - 3, out=i)
    return u, i


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """4-point cubic Lagrange weights at offset t from the second node:
    w0 = -t (t-1) (t-2)/6, w1 = (t+1) (t-1) (t-2)/2, w2 = -(t+1) t (t-2)/2,
    w3 = (t+1) t (t-1)/6, products taken left to right. Overwrites t; a
    planar plan holds ~10^5 points, so the buffers are reused."""
    w = np.empty((4,) + t.shape)
    tm1 = t - 1
    np.add(t, 1, out=w[2])
    np.multiply(w[2], tm1, out=w[1])
    np.multiply(w[2], t, out=w[3])
    w[3] *= tm1
    np.negative(w[2], out=w[2])
    w[2] *= t
    np.negative(t, out=w[0])
    w[0] *= tm1
    t -= 2
    w[:3] *= t
    w[0::3] /= 6.0
    w[1:3] /= 2.0
    return w


def _cubic_stencil(x: np.ndarray, x0: float, hf: float, count: int) -> tuple:
    """4-point local cubic Lagrange stencil: base indices and weights."""
    u, i = _fine_cell(np.array(x, dtype=float), x0, hf, count)
    u -= i
    return i.astype(np.int64), _cubic_weights(u)


class _InterpPlan:
    """Precomputed stencil for evaluating many fixed points repeatedly.

    full-2d keeps only the points inside the eta_max disk, ordered by the
    band of refined-lattice rows they read, and `apply` sums them in blocks
    of consecutive points, so that a block's 16 taps read a few rows that
    stay in cache; it scatters the sums back to the caller's order.
    """

    def __init__(self, grid: GridSpec, points: np.ndarray):
        g = grid
        x0, hf, cnt = _fine_axis(g)
        self.planar = g.mode == "full-2d"
        if self.planar:
            pts = np.asarray(points, dtype=float).reshape(-1, 2)
            self.size = pts.shape[0]
            order = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1])
                                   <= g.eta_max * (1 + 1e-12))
            u, row = _fine_cell(pts[order, 0], x0, hf, cnt)
            # sorted by bands of cnt/256 rows: the stable argsort of an
            # 8-bit key is a one-pass radix sort
            perm = np.argsort((row * (256 / cnt)).astype(np.uint8), kind="stable")
            order, u, row = order[perm], u[perm], row[perm]
            u -= row
            self.wx = _cubic_weights(u)
            u, col = _fine_cell(pts[order, 1], x0, hf, cnt)
            u -= col
            self.wy = _cubic_weights(u)
            # tap (a, b) of a point reads flat[a*cnt + b:][base]
            row *= cnt
            row += col
            row -= cnt + 1
            self.base = row.astype(np.int64)
            self.order, self.count = order, cnt
        else:
            # the refined axis holds eta >= 0: full-1d reads x < 0 at |x|
            # and conjugates, radial data are even
            x = np.asarray(points, dtype=float).reshape(-1)
            neg = x < 0
            self.conj = neg if g.mode == "full-1d" and neg.any() else None
            x = np.abs(x)
            self.mask = x <= g.eta_max * (1 + 1e-12)
            xq = np.where(self.mask, x, 0.0)
            ix, self.wx = _cubic_stencil(xq, x0, hf, cnt)
            self.first = ix - 1   # stencil a reads fine[a:][first]

    def apply(self, fine: np.ndarray) -> np.ndarray:
        """Stencil sums on a refine_array result, in its dtype."""
        if self.planar:
            flat, cnt = fine.ravel(), self.count
            acc = np.empty(self.base.size, dtype=complex)
            for s in range(0, acc.size, _GATHER_BLOCK):
                blk = slice(s, s + _GATHER_BLOCK)
                base, wx, wy = self.base[blk], self.wx[:, blk], self.wy[:, blk]
                for a in range(4):
                    row = flat[a * cnt:]
                    partial = wy[0] * row[base]
                    for b in range(1, 4):
                        partial += wy[b] * row[b:][base]
                    if a == 0:
                        np.multiply(wx[0], partial, out=acc[blk])
                    else:
                        acc[blk] += wx[a] * partial
            out = np.zeros(self.size, dtype=complex)
            out[self.order] = acc
            return out
        out = self.wx[0] * fine[self.first]
        for a in range(1, 4):
            out += self.wx[a] * fine[a:][self.first]
        if self.conj is not None:
            out = np.where(self.conj, out.conj(), out)
        if self.mask.all():
            return out
        return np.where(self.mask, out, 0.0)


def interpolate_array(grid: GridSpec, values: np.ndarray, points) -> np.ndarray:
    """Evaluate node samples off-grid; points beyond eta_max return 0.

    points: scalars/arrays of eta (full-1d), radii (radial), or (..., 2)
    coordinates (full-2d). Exact at grid nodes up to refinement roundoff.
    The samples must be transforms of real densities, as refine_array
    requires: full-1d samples Hermitian and radial samples real, within
    1e-12 of max |values|; other input raises ConfigError.
    """
    values = np.asarray(values, dtype=complex).reshape(grid.shape)
    if grid.mode != "full-2d":
        if grid.mode == "full-1d":
            resid = np.abs(values - values[::-1].conj()).max()
        else:
            resid = np.abs(values.imag).max()
        if resid > 1e-12 * np.abs(values).max():
            kind = "Hermitian" if grid.mode == "full-1d" else "real"
            raise ConfigError(f"{grid.mode} samples must be {kind} "
                              f"(residue {resid:.2e})")
    pts = np.asarray(points, dtype=float)
    scalar = pts.ndim == 0 or (grid.mode == "full-2d" and pts.ndim == 1)
    plan = _InterpPlan(grid, pts)
    out = plan.apply(refine_array(grid, values)).astype(complex, copy=False)
    if scalar:
        return complex(out[0])
    shape = pts.shape[:-1] if grid.mode == "full-2d" else pts.shape
    return out.reshape(shape)


def interpolate(state: SpectralState, points) -> np.ndarray:
    """Evaluate the state off-grid (see interpolate_array)."""
    return interpolate_array(state.grid, state.values, points)


# ----------------------------------------------------------------------------
# dual samples: moments and physical-space reconstruction
# ----------------------------------------------------------------------------

def _dual_samples(grid: GridSpec, values: np.ndarray) -> tuple:
    """(v, c, dv): coefficients of the trigonometric polynomial
    fhat(eta) = sum_j c_j exp(-2 pi i v_j . eta) through the node samples,
    on the dual axis v_j = j dv with dv = 1/(M h), both in DFT order
    (j = 0, 1, ..., then the negative j). c_j = f(v_j) dv^d is the inverse
    DFT; radial data use the even extension along one axis.
    """
    h = grid.spacing
    if grid.mode == "full-2d":
        M = grid.n
        c = np.fft.ifft2(np.fft.ifftshift(values))
    else:
        M = 2 * grid.n - 1
        if grid.mode == "radial":
            # the even extension of a real profile: real, even samples
            c = np.fft.irfft(values, M)
        else:
            c = np.fft.ifft(np.fft.ifftshift(values))
    return np.fft.fftfreq(M, h), c, 1.0 / (M * h)


def moments(state: SpectralState, order: int = 4):
    """Moments as exact sums over the dual samples.

    The refined transform is the trigonometric polynomial of _dual_samples,
    so its derivatives at eta = 0 are the sums sum_j c_j (-2 pi i v_j)^k and
    int v^k f dv = sum_j c_j v_j^k holds without a difference stencil.

    d = 1: returns (m0, ..., m_order) with signed moments int v^k f dv.
    d >= 2: order 3 is unavailable (raises); order <= 2 returns
    (m0, m1, m2) truncated at order, order = 4 returns (m0, m1, m2, m4)
    with m1 a vector, m2 = int |v|^2 f, m4 = int |v|^4 f. Radial data sum
    the one-axis profile: m2 = d sum c v^2, m4 = d (d + 2)/3 sum c v^4.
    """
    g = state.grid
    if not 0 <= order <= 4:
        raise ValueError("order must be in 0..4")
    v, c, _ = _dual_samples(g, state.values)
    c = c.real
    if g.mode == "full-1d":
        return tuple(float((c * v ** k).sum()) for k in range(order + 1))
    if order == 3:
        raise NotImplementedError("order 3 is not available for d >= 2")
    d = g.dimension
    if g.mode == "radial":
        v2 = v * v
        out = (float(c.sum()), np.zeros(d), d * float((c * v2).sum()),
               d * (d + 2) / 3.0 * float((c * v2 * v2).sum()))
    else:
        vx, vy = v[:, None], v[None, :]
        m1 = np.array([np.sum(c * vx), np.sum(c * vy)])
        q2 = vx ** 2 + vy ** 2
        out = (float(np.sum(c)), m1, float(np.sum(c * q2)), float(np.sum(c * q2 ** 2)))
    return out if order == 4 else out[:order + 1]


def to_physical(state: SpectralState) -> tuple:
    """Inverse transform on the dual grid (full modes only).

    Returns (v_axis, samples, dv). The dual spacing dv = 1/(M h) makes the
    discrete mass identity sum f dv^d = fhat(0) exact. Imaginary residue must
    be tiny (Hermitian data); samples below -1e-8 raise (under-resolution),
    small negatives are clipped to 0.
    """
    g = state.grid
    if g.mode == "radial":
        raise ConfigError("physical reconstruction requires a full grid mode")
    v, c, dv = _dual_samples(g, state.values)
    phys = np.fft.fftshift(c) / dv ** g.dimension
    scale = float(np.abs(phys).max())
    if float(np.abs(phys.imag).max()) > 1e-9 * max(scale, 1e-300):
        raise NumericalFailure("reconstruction has a non-negligible imaginary part")
    f = phys.real.copy()
    if f.min() < -1e-8:
        raise NumericalFailure(
            f"negative physical samples ({f.min():.2e}) signal under-resolution")
    np.clip(f, 0.0, None, out=f)
    return np.fft.fftshift(v), f, dv
