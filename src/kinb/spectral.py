"""Frequency-space grids, states, catalog data, interpolation, and moments.

Conventions
-----------
The continuous transform used throughout is fhat(eta) = int f(v) e^{-2 pi i v.eta} dv,
so fhat(0) is the mass and derivatives at 0 give signed moments with powers of
(-2 pi i). Grids:

  full-1d : nodes k*h for k = -(n-1)..(n-1), h = eta_max/(n-1)  (2n-1 nodes)
  full-2d : nodes (kx, ky)*h for k = -n/2..n/2-1, h = 2*eta_max/n (n^2 nodes)
  radial  : nodes j*h for j = 0..n-1, h = eta_max/(n-1), rotation-invariant data

Off-grid evaluation refines the stored samples 8-fold by exact band-limited
zero-padding in physical space (valid because every density this package
evolves is compactly supported well inside the physical window 1/h) and
sums a B-spline interpolant of the refined grid: quintic, 6 taps, on the
full-1d and radial half-axis (on the laplace datum at n=512, eta_max=32 it
errs by at most 3.1e-10 mass), cubic, 4x4 taps, on the planar lattice
(3.5e-8 mass on the planar operator's own points), both weighted by
_bspline_weights. The refined lattice is periodic, and the planar stencils
read its periodic continuation at ky = +-eta_max. The refinement factor
and the stencils are constants, not knobs.

Every sample set must be the transform of a real density: x(-eta) =
conj x(eta) on the node pairs of GridSpec.mirror (radial values are real).
SpectralState owns this contract: it checks the residue and stores the
projection _hermitize, with exact pairs and exact zeros on the unpaired
-n/2 row and column of the planar lattice, which carry no real-density
content. Every mode therefore refines by one routine, _refine, from the
real physical samples of _samples (irfft of the last n values, the
eta >= 0 nodes, on both line modes; Re ifft2 on the plane). It divides
them by the spline's symbol, which is the spline prefilter, so
refine_array returns spline coefficients, not samples; it stores the half
where the first coordinate is >= 0 (rfft along the first axis), with
mirrored margins at both ends of that axis. Every mode reads the other
half by one rule: a point whose first coordinate is < 0 is evaluated at
-eta and its sum conjugated (radial points read |eta|, their data being
real and even). interpolate_array checks raw samples, whose unpaired nodes
enter through their Hermitian part.

_InterpPlan is the one reader of refine_array: every off-grid value, the
collision operator's included, is a plan's stencil sum. A planar plan
sums its points inside the eta_max disk in band order (by the rows they
read) and scatters the sums back to the caller's points. Where the
process may run on more than one CPU it sums the lower half of those
points on a helper thread and the upper half on the calling thread;
numpy releases the GIL inside its gathers and ufuncs, and every point's
arithmetic is the same on either path, so the sums are bit-identical.

Moments need no refinement: the refined transform is the trigonometric
polynomial sum_j c_j e^{-2 pi i v_j . eta} whose coefficients are the
physical samples c_j = f(v_j) dv^d, so int v^k f dv is the exact sum
sum_j c_j v_j^k (radial: over the even extension of the profile).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError, NumericalFailure

__all__ = [
    "GridSpec",
    "SpectralState",
    "InitialDatum",
    "init_state",
    "refine_array",
    "interpolate_array",
    "moments",
    "to_physical",
    "state_with_values",
]

_MODES = ("full-1d", "full-2d", "radial")
_UPSAMPLE = 8    # band-limited refinement factor of every mode
_HALF_TAPS = 6   # quintic B-spline stencil width on the full-1d and radial half-axis

_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^{d-1}|
_GATHER_BLOCK = 16384  # points per block of a planar gather (see _InterpPlan.gather)
# whether a planar gather sums its two halves on two threads: only where
# this process may run on more than one CPU
_TWO_CORES = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


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
        if self.mode == "full-2d" and self.n % 2:
            raise ConfigError(f"full-2d needs an even n, got {self.n}")
        if not 0 < self.eta_max < math.inf:
            raise ConfigError(f"eta_max must be positive and finite, got {self.eta_max!r}")

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

    def mirror(self) -> np.ndarray:
        """Flat index of the node at -eta for every node. Radial nodes and
        the zero node are their own mirror; the -n/2 row and column of
        full-2d have no partner on the even lattice and read -1."""
        if self.mode == "full-1d":
            return np.arange(self.shape[0])[::-1]
        if self.mode == "radial":
            return np.arange(self.n)
        n = self.n
        k = np.arange(n)
        m = np.where(k > 0, n - k, -1)
        return np.where((m[:, None] >= 0) & (m >= 0), m[:, None] * n + m, -1).ravel()

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

    Checked at construction: finite values, fhat(0) positive and a
    Hermitian residue within 1e-12 fhat(0) (radial values real). The state
    stores _hermitize of the values: exact conjugate pairs, exact zeros on
    the unpaired nodes, real radial values and a real fhat(0). Then
    |fhat| <= fhat(0) must hold up to a 1e-9 relative slack (the stepping
    guard).
    """
    grid: GridSpec
    t: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if not 0 <= self.t < math.inf:
            raise ConfigError(f"state time must be nonnegative and finite, got {self.t!r}")
        if vals.shape != self.grid.shape:
            raise ConfigError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals.view(float))):
            raise NumericalFailure("non-finite values in state")
        m0 = vals[self.grid.zero_index].real
        if not (m0 > 0):
            raise ConfigError("fhat(0) must be positive")
        _check_hermitian(self.grid, vals, m0)
        vals = _hermitize(self.grid, vals)
        sup = np.abs(vals).max()
        if sup > m0 * (1 + 1e-9):
            raise NumericalFailure(
                f"|fhat| exceeds fhat(0) by {sup / m0 - 1:.3e} (instability)")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        return float(self.values[self.grid.zero_index].real)


def _check_hermitian(grid: GridSpec, values: np.ndarray, scale: float) -> None:
    """Raise ConfigError unless max |x(eta) - conj x(-eta)| over the paired
    nodes is within 1e-12 scale (twice |Im x| for radial values)."""
    mirror = grid.mirror()
    paired = mirror >= 0
    flat = values.reshape(-1)
    resid = np.abs(flat[paired] - flat[mirror[paired]].conj()).max()
    if resid > 1e-12 * scale:
        raise ConfigError(f"{grid.mode} values must be Hermitian, as transforms "
                          f"of real densities are (residue {resid:.2e})")


def _hermitize(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The nearest transform of a real density: 0.5 (x(eta) + conj x(-eta))
    on every node, 0 on the unpaired ones (their value would make the
    reconstruction complex). Radial data keep their real part."""
    mirror = grid.mirror()
    flat = values.reshape(-1)
    out = 0.5 * (flat + np.conj(flat[mirror]))
    out[mirror < 0] = 0.0
    return out.reshape(grid.shape)


def state_with_values(state: SpectralState, values: np.ndarray,
                      t: float | None = None) -> SpectralState:
    return SpectralState(grid=state.grid, t=state.t if t is None else t, values=values)


# ----------------------------------------------------------------------------
# catalog of initial data with closed-form transforms
# ----------------------------------------------------------------------------

# the parameters each datum kind reads; the others must keep their defaults
_DATUM_PARAMS = {
    "gaussian": ("sigma", "mass", "center"),
    "gaussian-mixture": ("components",),
    "laplace": ("a", "mass"),
}


def _real(x) -> float:
    """A datum parameter as a float. Text raises TypeError although float
    reads numerals: a datum takes numbers, not strings."""
    if isinstance(x, (str, bytes)):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


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
        # array-valued centers and components are read as the tuples the
        # checks below compare and test for emptiness
        try:
            object.__setattr__(self, "center", tuple(self.center))
            object.__setattr__(self, "components", tuple(self.components))
        except TypeError:
            raise ConfigError("center and components must be sequences") from None
        d = self.dimension
        if d not in (1, 2, 3):
            raise ConfigError("dimension must be 1, 2 or 3")
        if self.kind not in _DATUM_PARAMS:
            raise ConfigError(f"unknown datum kind {self.kind!r}")
        for f in fields(self):
            if (f.default is not MISSING and f.name not in _DATUM_PARAMS[self.kind]
                    and getattr(self, f.name) != f.default):
                raise ConfigError(f"datum kind {self.kind!r} takes no {f.name!r}")
        if self.kind == "laplace":
            try:
                a, mass = _real(self.a), _real(self.mass)
            except (TypeError, ValueError):
                raise ConfigError("laplace a and mass must be numbers") from None
            if not (0 < a < math.inf and 0 < mass < math.inf):
                raise ConfigError("laplace needs positive finite a and mass")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "mass", mass)
            return
        # a gaussian is the one component (mass, center, sigma); every
        # center is stored as d finite floats, an empty one as the origin
        if not self._triples():
            raise ConfigError("gaussian-mixture needs at least one component")
        comps = []
        for comp in self._triples():
            try:
                w, c, s = comp
                w, c, s = _real(w), tuple(_real(x) for x in c) or (0.0,) * d, _real(s)
            except (TypeError, ValueError):
                raise ConfigError(f"{self.kind} component {comp} is not "
                                  "(weight, center, sigma) in numbers") from None
            if not (0 < w < math.inf and 0 < s < math.inf):
                raise ConfigError("masses, weights and sigmas must be positive and finite")
            if len(c) != d or not all(map(math.isfinite, c)):
                raise ConfigError(f"{self.kind} center {c} needs {d} finite coordinates")
            comps.append((w, c, s))
        if self.kind == "gaussian":
            for name, x in zip(("mass", "center", "sigma"), comps[0]):
                object.__setattr__(self, name, x)
        else:
            object.__setattr__(self, "components", tuple(comps))

    def _triples(self):
        if self.kind == "gaussian":
            return ((self.mass, self.center, self.sigma),)
        return self.components

    def _points(self, x: np.ndarray) -> bool:
        """Whether the last axis of x holds d-vectors (d >= 2 and length d).
        Otherwise every entry is one coordinate: the point itself for
        d = 1, a radius |x| for d >= 2, which only radially symmetric data
        can read (others raise ConfigError)."""
        d = self.dimension
        if d > 1 and x.ndim >= 1 and x.shape[-1] == d:
            return True
        if d > 1 and not self.radially_symmetric():
            raise ConfigError(f"a {self.kind} datum that is not radially symmetric "
                              f"reads ({d},)-points, not radii")
        return False

    def hat(self, eta: np.ndarray) -> np.ndarray:
        """Analytic transform at eta, points or radii as `_points` reads
        them."""
        eta = np.asarray(eta, dtype=float)
        d = self.dimension
        if self._points(eta):
            r2 = (eta ** 2).sum(-1)
            dot = lambda c: eta @ np.asarray(c)
        else:
            r2 = eta ** 2
            dot = lambda c: eta * c[0]
        if self.kind == "laplace":
            return self.mass * (1.0 + 4.0 * np.pi ** 2 * self.a ** 2 * r2) ** (-(d + 1) / 2.0)
        out = np.zeros(np.shape(r2), dtype=complex)
        for w, c, s in self._triples():
            out = out + w * np.exp(-2.0 * np.pi ** 2 * s ** 2 * r2
                                   - 2.0j * np.pi * dot(c))
        return out

    def density(self, v: np.ndarray) -> np.ndarray:
        """Density at v, points or radii as `_points` reads them."""
        v = np.asarray(v, dtype=float)
        d = self.dimension
        points = self._points(v)
        if self.kind == "laplace":
            r = np.linalg.norm(v, axis=-1) if points else np.abs(v)
            norm = self.a ** d * _SPHERE_AREA[d] * math.gamma(d)
            return self.mass * np.exp(-r / self.a) / norm
        out = 0.0
        for w, c, s in self._triples():
            if points:
                q = ((v - np.asarray(c)) ** 2).sum(-1)
            else:
                q = (v - c[0]) ** 2
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
# band-limited refinement + local B-spline interpolation
# ----------------------------------------------------------------------------

def _samples(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The real physical samples c_j = f(v_j) dv^d of the node values, the
    inverse DFT on the dual axis v_j = j dv, dv = 1/(M h), in DFT order
    along each axis (j = 0, 1, ..., then the negative j). Both line modes
    read the last n values, the eta >= 0 nodes (radial: the even extension
    of the profile); the plane reads the Hermitian part of its samples."""
    if grid.mode == "full-2d":
        return np.fft.ifft2(np.fft.ifftshift(values)).real
    return np.fft.irfft(values[-grid.n:], 2 * grid.n - 1)


def _refine(c: np.ndarray, taps: int) -> np.ndarray:
    """B-spline coefficients of the band-limited refinement by U = _UPSAMPLE
    of the physical samples c (M per axis, overwritten), on the half where
    the first coordinate is >= 0.

    The refined transform at k hf, hf = h/U, is the DFT of c zero-padded to
    Mf = U*M per axis. Each c_j is first divided by the spline's symbol
    along every axis at w = 2 pi j/Mf, which is the spline prefilter:
    B5(w) = (66 + 52 cos w + 2 cos 2w)/120 for 6 taps (quintic),
    B3(w) = (2 + cos w)/3 for 4 (cubic). The coefficients a_k then make
    sum_k a_k beta(eta/hf - k) equal the trigonometric polynomial of c at
    every k hf. rfft along the first axis gives its entries k = 0..Mf/2;
    on the plane the ky axis also takes (-1)^j in the same divisor, so that
    the fft along it gives columns s = 0..Mf-1 at ky = (s - Mf/2) hf.

    Stored entry e along the first axis holds k = e - m, m = taps/2 - 1:
    the m entries at each end, k < 0 and k > Mf/2, are the mirror conj of
    k = 1..m and Mf/2 - 1..Mf/2 - m (on the plane with ky -> -ky, a stored
    row reversed), so the taps of every cell 0..Mf/2 - 1 lie on the array.
    On the plane, stored column s holds lattice column s - 1: columns -1,
    Mf and Mf + 1 are the periodic copies of Mf - 1, 0 and 1, the lattice
    having period Mf (2 eta_max). Valid when the physical signal is
    supported inside the window 1/h.
    """
    M = c.shape[0]
    Mf = _UPSAMPLE * M
    H = Mf // 2
    m = taps // 2 - 1
    lo = (M + 1) // 2   # DFT-order entries 0..lo-1 hold v >= 0
    x = np.cos((2.0 * np.pi / _UPSAMPLE) * np.fft.fftfreq(M))
    # B5 (cos 2w = 2 x^2 - 1) or B3
    b = (16.0 + x * (13.0 + x)) / 30.0 if taps == 6 else (2.0 + x) / 3.0
    if c.ndim == 2:
        c /= np.outer(b, b * (-1.0) ** np.arange(M))
    else:
        c /= b
    ext = np.zeros((Mf,) + c.shape[1:])
    ext[:lo] = c[:lo]
    ext[lo - M:] = c[lo:]
    if c.ndim == 2:
        rows = np.fft.rfft(ext, axis=0)
        fine = np.empty((H + 1 + 2 * m, Mf + 3), dtype=complex)
        body = fine[m:H + m + 1, 1:Mf + 1]
        body[:, :lo] = rows[:, :lo]
        body[:, lo:lo - M] = 0.0
        body[:, lo - M:] = rows[:, lo:]
        np.fft.fft(body, axis=1, out=body)
        fine[m:H + m + 1, 0] = fine[m:H + m + 1, Mf]
        fine[m:H + m + 1, Mf + 1:] = fine[m:H + m + 1, 1:3]
        mirror = fine[:, ::-1]   # ky -> -ky
    else:
        fine = mirror = np.empty(H + 1 + 2 * m, dtype=complex)
        np.fft.rfft(ext, out=fine[m:H + m + 1])
    np.conjugate(mirror[2 * m:m:-1], out=fine[:m])
    np.conjugate(mirror[H + m - 1:H - 1:-1], out=fine[H + m + 1:])
    return fine


def refine_array(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The B-spline coefficient lattice that _InterpPlan reads: _refine of
    the physical samples of _samples, quintic on the line modes, cubic on
    the plane, on the half where the first coordinate is >= 0.

    The samples must be transforms of real densities, as every state is:
    the line modes read only the eta >= 0 nodes and full-2d only the
    Hermitian part of the samples, so for other input the result is wrong
    without warning. full-1d and radial return the coefficients at k hf,
    k = -2..Mf/2 + 2, shape (Mf/2 + 5,) (radial ones are real and returned
    as float64); full-2d returns the lattice rows kx = k hf, k = -1..Mf/2 + 1,
    and columns ky = -eta_max + s hf, s = -1..Mf + 1, shape
    (Mf/2 + 3, Mf + 3). The coefficients are not samples of the transform:
    only the spline sum of _InterpPlan is.
    """
    values = np.asarray(values, dtype=complex)
    fine = _refine(_samples(grid, values), 4 if grid.mode == "full-2d" else _HALF_TAPS)
    return np.ascontiguousarray(fine.real) if grid.mode == "radial" else fine


def _fine_axis(grid: GridSpec) -> tuple:
    """(hf, cells) of the first axis of refine_array, which every plan
    reads at |x|: hf = h/U and the Mf/2 cells in every mode, from the
    origin. A point at x lies in the cell floor(x/hf), clipped to
    0..cells-1, and the taps of cell i read the entries i..i+taps-1 along
    the axis. The periodic ky axis of the plane starts at -eta_max and has
    twice the cells."""
    M = grid.n if grid.mode == "full-2d" else 2 * grid.n - 1
    return grid.spacing / _UPSAMPLE, _UPSAMPLE * M // 2


def _fine_cell(u: np.ndarray, x0: float, hf: float, last: int) -> tuple:
    """Fine-lattice coordinate u = (x - x0)/hf, computed in place from the
    float array x passed as u, and the cell index floor(u), clipped to
    0..last and returned as float. A point on the upper end of the last
    cell keeps that cell with u - floor(u) = 1, where the B-spline weights
    are still exact."""
    u -= x0
    u /= hf
    i = np.floor(u)
    np.clip(i, 0, last, out=i)
    return u, i


# uniform B-spline weights of the taps at offsets 1-taps/2..taps/2 from a
# point's cell, as polynomials in the offset t in [0, 1] of the point in
# its cell: column k holds the coefficients of tap k's cubic (4 taps) or
# quintic (6 taps) basis function, highest power of t first
_BSPLINE = {
    4: np.array([[-1, 3, -3, 1], [3, -6, 0, 4], [-3, 3, 3, 1],
                 [1, 0, 0, 0]]).T / 6.0,
    6: np.array([[-1, 5, -10, 10, -5, 1], [5, -20, 20, 20, -50, 26],
                 [-10, 30, 0, -60, 0, 66], [10, -20, -20, 20, 50, 26],
                 [-5, 5, 10, 10, 5, 1], [1, 0, 0, 0, 0, 0]]).T / 120.0,
}


def _bspline_weights(t: np.ndarray, taps: int) -> np.ndarray:
    """B-spline weights of shape (taps,) + t.shape, by Horner's rule on
    every tap at once: w = c0 t + c1, then w = w t + c_p. The weight array
    is the only allocation; a planar plan holds ~10^5 points."""
    coef = _BSPLINE[taps]
    w = np.multiply.outer(coef[0], t)
    w += coef[1][:, None]
    for c in coef[2:]:
        w *= t
        w += c[:, None]
    return w


class _InterpPlan:
    """Precomputed stencils for evaluating many fixed points repeatedly:
    the one code that decides how a point is read off a refine_array
    result.

    refine_array stores the half of the B-spline coefficient lattice where
    the first coordinate is >= 0, and in every mode a point whose first
    coordinate is < 0 is read at -eta with its sum conjugated (radial
    points read |eta| with no conjugation, the data being real and even).
    Each point then sums the taps around its cell on the stored half with
    B-spline weights: full-1d and radial the 6 coefficients i-2..i+3 of the
    refined half-axis with quintic weights, points beyond eta_max reading
    0; full-2d the 4x4 coefficients (i-1..i+2, j-1..j+2) of the refined
    lattice with cubic weights, for the points inside the eta_max disk
    only. Near kx = 0, kx = eta_max and ky = +-eta_max the taps read the
    margins of refine_array.

    `gather` returns the sums in plan order and `scatter` puts values in
    plan order back at the caller's points, with 0 beyond the disk; `apply`
    is the two in turn. On the line modes the plan order is the caller's
    and `scatter` returns its input. On the plane the plan order `order`
    holds the flat indices of the points inside the disk, stably sorted by
    128 bands of the rows of |kx| their stencils read, a band's points in
    kx < 0 last, so that the ufuncs masked by the flip meet at most 256
    runs (they pay per run); the stable argsort of an 8-bit key is a
    one-pass radix sort. A plan given `order` reads the points at those
    flat indices, in that order, instead (the collision operator reads its
    eta- pairs in the order of its eta+ plan). `apply` returns the caller's
    point shape (planar: without the coordinate axis).
    """

    def __init__(self, grid: GridSpec, points: np.ndarray, order: np.ndarray | None = None):
        g = grid
        hf, cells = _fine_axis(g)
        points = np.asarray(points, dtype=float)
        self.planar = g.mode == "full-2d"
        self.shape = points.shape[:-1] if self.planar else points.shape
        if not self.planar:
            self.order = None
            x = points.reshape(-1)
            flip = x < 0
            self.flip = None if g.mode == "radial" or not flip.any() else flip
            x = np.abs(x)
            mask = x <= g.eta_max * (1 + 1e-12)
            self.mask = None if mask.all() else mask
            u, i = _fine_cell(np.where(mask, x, 0.0), 0.0, hf, cells - 1)
            u -= i
            self.wx = _bspline_weights(u, _HALF_TAPS)
            # tap a of the cell i reads fine[a:][first], the coefficient at
            # (i + a - 2) h/U
            self.first = i.astype(np.int64)
            return
        pts = points.reshape(-1, 2)
        self.size = pts.shape[0]
        if order is None:
            order = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1])
                                   <= g.eta_max * (1 + 1e-12))
            x = pts[order, 0]
            row = _fine_cell(np.abs(x), 0.0, hf, cells - 1)[1]
            key = (row * (128 / cells)).astype(np.uint8) * 2 + (x < 0)
            order = order[np.argsort(key, kind="stable")]
            # freed before the stencils are built, which set the build's peak
            del x, row, key
        self.order = order
        # the cubic stencils: a point with kx < 0 (flip) is read at -eta, its
        # cells clipped to kx < eta_max and ky < eta_max (a point on the
        # upper edge of a cell reads it at t = 1). With the row stride
        # W = Mf + 3 of refine_array, tap (a, b) of the cell (i, j) reads
        # flat[a*W + b:][base] from the stored (i, j), the lattice (i-1, j-1)
        u, y = pts[order, 0], pts[order, 1]
        self.flip = u < 0
        u, row = _fine_cell(np.abs(u, out=u), 0.0, hf, cells - 1)
        u -= row
        self.wx = _bspline_weights(u, 4)
        np.negative(y, out=y, where=self.flip)
        u, col = _fine_cell(y, -g.eta_max, hf, 2 * cells - 1)
        u -= col
        self.wy = _bspline_weights(u, 4)
        self.stride = 2 * cells + 3
        row *= self.stride
        row += col
        self.base = row.astype(np.int64)

    def gather(self, fine: np.ndarray) -> np.ndarray:
        """Stencil sums on a refine_array result, in its dtype and in plan
        order (line modes: the caller's point shape).

        The planar points are summed in blocks of consecutive points, so
        that a block's taps read a few rows that stay in cache in the band
        order. With _TWO_CORES and at least one block in each half, a
        helper thread sums the first size // (2 _GATHER_BLOCK) blocks while
        the calling thread sums the rest, each into its own slice of the
        result; an exception on either thread is raised here, after both
        have stopped. Every point is summed by the same operations on
        either path. The split is uneven when the blocks are few (16,384 of
        45,292 points on the helper for a 48 x 48 operator), but the helper
        starts late, so its smaller share evens the two out: a split at the
        middle point was no faster (2-core host, eta+ gather, 2.10 against
        2.05 ms median).
        """
        if not self.planar:
            # two point-sized arrays per call, each tap taken into the same
            # buffer; mode="clip" clips nothing (every first + a is on the
            # axis) and, unlike "raise", writes to `out` without a copy
            out = np.take(fine, self.first, mode="clip")
            out *= self.wx[0]
            tap = np.empty_like(out)
            for a in range(1, _HALF_TAPS):
                np.take(fine[a:], self.first, out=tap, mode="clip")
                tap *= self.wx[a]
                out += tap
            if self.flip is not None:
                np.conjugate(out, out=out, where=self.flip)
            if self.mask is not None:
                out = np.where(self.mask, out, 0.0)
            return out.reshape(self.shape)
        flat = fine.ravel()
        base, wx, wy, flip, W = self.base, self.wx, self.wy, self.flip, self.stride
        out = np.empty(base.size, dtype=complex)

        def blocks(start, stop):
            for s in range(start, stop, _GATHER_BLOCK):
                blk = slice(s, s + _GATHER_BLOCK)
                b0, x, y, acc = base[blk], wx[:, blk], wy[:, blk], out[blk]
                for a in range(4):
                    row = flat[a * W:]
                    partial = y[0] * row[b0]
                    for b in range(1, 4):
                        partial += y[b] * row[b:][b0]
                    if a == 0:
                        np.multiply(x[0], partial, out=acc)
                    else:
                        acc += x[a] * partial
                np.conjugate(acc, out=acc, where=flip[blk])

        mid = base.size // (2 * _GATHER_BLOCK) * _GATHER_BLOCK
        if not (_TWO_CORES and mid):
            blocks(0, base.size)
            return out
        failed = []

        def lower():
            try:
                blocks(0, mid)
            except BaseException as exc:
                failed.append(exc)

        helper = threading.Thread(target=lower)
        helper.start()
        try:
            blocks(mid, base.size)
        finally:
            helper.join()
        if failed:
            raise failed[0]
        return out

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Values in plan order at the caller's points, in their dtype, 0 at
        the planar points beyond the disk; the line modes return `values`."""
        if not self.planar:
            return values
        out = np.zeros(self.size, dtype=values.dtype)
        out[self.order] = values
        return out.reshape(self.shape)

    def apply(self, fine: np.ndarray) -> np.ndarray:
        """Stencil sums on a refine_array result at the caller's points."""
        return self.scatter(self.gather(fine))


def interpolate_array(grid: GridSpec, values: np.ndarray, points) -> np.ndarray:
    """Evaluate node samples off-grid; points beyond eta_max return 0.

    points: scalars/arrays of eta (full-1d), radii (radial), or (..., 2)
    coordinates (full-2d). Exact at grid nodes up to refinement roundoff.
    The samples must be transforms of real densities, as refine_array
    requires: Hermitian over the paired nodes (radial samples real) within
    1e-12 of max |values|; other input raises ConfigError.
    """
    values = np.asarray(values, dtype=complex).reshape(grid.shape)
    _check_hermitian(grid, values, np.abs(values).max())
    out = _InterpPlan(grid, points).apply(refine_array(grid, values))
    out = out.astype(complex, copy=False)
    return complex(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------------
# dual samples: moments and physical-space reconstruction
# ----------------------------------------------------------------------------

def _dual_samples(grid: GridSpec, values: np.ndarray) -> tuple:
    """(v, c, dv): the physical samples c of _samples, coefficients of the
    trigonometric polynomial fhat(eta) = sum_j c_j exp(-2 pi i v_j . eta)
    through the node samples, and their dual axis v_j = j dv, dv = 1/(M h),
    in DFT order."""
    c = _samples(grid, values)
    M, h = c.shape[0], grid.spacing
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

    Returns (v_axis, samples, dv): the real samples of _samples on a
    centred axis. The dual spacing dv = 1/(M h) makes the discrete mass
    identity sum f dv^d = fhat(0) exact. Samples below -1e-8 raise
    (under-resolution), small negatives are clipped to 0.
    """
    g = state.grid
    if g.mode == "radial":
        raise ConfigError("physical reconstruction requires a full grid mode")
    v, c, dv = _dual_samples(g, state.values)
    f = np.fft.fftshift(c) / dv ** g.dimension
    if f.min() < -1e-8:
        raise NumericalFailure(
            f"negative physical samples ({f.min():.2e}) signal under-resolution")
    np.clip(f, 0.0, None, out=f)
    return np.fft.fftshift(v), f, dv
