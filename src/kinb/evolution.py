"""Time integration of the spectral collision dynamics.

The state is advanced with classical RK4 on the Fourier lattice.  States,
and the collision rhs of state values, are exactly Hermitian with 0 on the
unpaired nodes; real multiples and sums keep that bit for bit, so no stage
or step needs a projection.  The update is revalidated through the state
constructor, so a blown-up run fails fast with NumericalFailure instead of
producing garbage monitor rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalFailure
from .spectral import (GridSpec, InitialDatum, SpectralState, init_state,
                       moments, state_with_values, to_physical)
from .collision import (AngularQuadrature, CrossSection, rhs_bilinear,
                        stability_limit)

__all__ = [
    "RunConfig", "MonitorRow", "Trajectory", "entropy", "run", "simulate",
]

# fraction of eta_max beyond which nodes count as the spectral tail
_TAIL_FRACTION = 0.875


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation."""

    grid: GridSpec
    cross_section: CrossSection
    quadrature: AngularQuadrature
    datum: InitialDatum
    dt: float
    t_end: float
    snapshots: int = 0

    def __post_init__(self):
        _check_times(self.dt, self.t_end)
        if self.snapshots < 0:
            raise ConfigError("snapshots must be >= 0")
        if self.grid.dimension != self.datum.dimension:
            raise ConfigError("grid and datum dimensions disagree")

    def snapshot_times(self) -> tuple:
        """snapshots = k asks for k evenly spaced times on [0, t_end], both
        ends included; k = 1 gives (t_end,)."""
        k = self.snapshots
        if k == 1:
            return (self.t_end,)
        return tuple(i * self.t_end / (k - 1) for i in range(k))


@dataclass(frozen=True)
class MonitorRow:
    t: float
    mass: float
    energy: float
    entropy: float | None
    sup_ratio: float
    tail: float


@dataclass
class Trajectory:
    grid: GridSpec
    rows: list
    snapshots: list
    final: SpectralState
    dt_limit: float

    @property
    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        vals = [getattr(r, name) for r in self.rows]
        if name == "entropy" and vals and vals[0] is None:
            raise ValueError("entropy is not tracked for radial runs")
        return np.array(vals, dtype=float)


def entropy(state: SpectralState) -> float:
    """int f log f dv from the physical-space reconstruction.

    Cells where the density vanishes contribute zero (f log f -> 0).
    Radial grids have no physical-space reconstruction here.
    """
    v, dens, dv = to_physical(state)
    cell = dv ** state.grid.dimension
    pos = dens > 0.0
    return float(np.sum(dens[pos] * np.log(dens[pos])) * cell)


def _rk4_step(grid, cs, quad, values, dt):
    k1 = rhs_bilinear(grid, cs, quad, values, values)
    v = values + (0.5 * dt) * k1
    k2 = rhs_bilinear(grid, cs, quad, v, v)
    v = values + (0.5 * dt) * k2
    k3 = rhs_bilinear(grid, cs, quad, v, v)
    v = values + dt * k3
    k4 = rhs_bilinear(grid, cs, quad, v, v)
    return values + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _monitor(state: SpectralState, t: float, tail_mask: np.ndarray,
             track_entropy: bool) -> MonitorRow:
    m = moments(state, order=2)
    mass = state.mass
    mag = np.abs(state.values)
    ent = entropy(state) if track_entropy else None
    return MonitorRow(
        t=t,
        mass=mass,
        energy=float(m[2]),
        entropy=ent,
        sup_ratio=float(mag.max() / mass),
        tail=float(mag[tail_mask].max()) if tail_mask.any() else 0.0,
    )


def _check_times(dt: float, t_end: float) -> None:
    if not (0 < dt < math.inf and 0 < t_end < math.inf):
        raise ConfigError(f"dt and t_end must be positive and finite, "
                          f"got {dt!r} and {t_end!r}")


def run(state: SpectralState, cs: CrossSection, quad: AngularQuadrature,
        dt: float, t_end: float, snapshot_times=(),
        monitor_every: int = 1) -> Trajectory:
    """Advance to t_end, recording monitor rows and snapshot states.

    The clock starts at 0 whatever state.t holds, so a run continued from
    another's final state counts its rows from 0 again, and every snapshot
    pair (t, s), the one at t = 0 included, has s.t == t.  At least one step
    is taken: a remainder below 1e-12 max(1, t_end) is dropped only when a
    full step absorbs it.  Snapshot times are rounded to the nearest step
    boundary, t_end counting as one when dt does not divide it; two that
    round to one step raise ConfigError.  The last step, its monitor row
    and the final state carry t_end itself.  dt above 0.5 / (mass * total
    cross-section weight) raises NumericalFailure; mass and the truncated
    cross-section are both constant along the flow, so one check at the
    start covers the whole run.
    """
    _check_times(dt, t_end)
    if monitor_every < 1:
        raise ConfigError("monitor_every must be >= 1")
    n_full = int(math.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    if n_full >= 1 and remainder < 1e-12 * max(1.0, t_end):
        remainder = 0.0
    n_total = n_full + (1 if remainder > 0.0 else 0)

    want: dict[int, float] = {}   # step -> the snapshot time asked for
    for ts in snapshot_times:
        if not -1e-12 <= ts <= t_end * (1 + 1e-12):
            raise ConfigError(f"snapshot time {ts:g} outside [0, t_end]")
        k = min(int(round(ts / dt)), n_full)
        if t_end - ts < abs(ts - k * dt):
            k = n_total
        if k in want:
            raise ConfigError(f"snapshot times {want[k]:g} and {ts:g} both "
                              f"fall on step {k} (dt = {dt:g})")
        want[k] = ts

    grid = state.grid
    limit = stability_limit(state, cs, quad)
    if dt > limit:
        raise NumericalFailure(
            f"dt {dt:g} exceeds the stability limit {limit:g}")

    tail_mask = grid.abs_nodes() >= _TAIL_FRACTION * grid.eta_max
    track_entropy = grid.mode != "radial"

    rows = [_monitor(state, 0.0, tail_mask, track_entropy)]
    snaps = []
    if 0 in want:
        snaps.append((0.0, state if state.t == 0.0
                      else state_with_values(state, state.values, t=0.0)))

    vals = state.values
    for k in range(1, n_total + 1):
        h = dt if k <= n_full else remainder
        vals = _rk4_step(grid, cs, quad, vals, h)
        t = t_end if k == n_total else k * dt
        cur = state_with_values(state, vals, t=t)
        if k % monitor_every == 0 or k == n_total:
            rows.append(_monitor(cur, t, tail_mask, track_entropy))
        if k in want:
            snaps.append((t, cur))

    return Trajectory(grid=grid, rows=rows, snapshots=snaps, final=cur,
                      dt_limit=limit)


def simulate(config: RunConfig) -> Trajectory:
    state = init_state(config.grid, config.datum)
    return run(state, config.cross_section, config.quadrature,
               config.dt, config.t_end,
               snapshot_times=config.snapshot_times())
