"""The benchmark's workloads: inputs built from the seed, one timed pass,
and the correctness checks on the pass's outputs.

Every kinb function is looked up on the package at call time (``kinb.run``,
not a name imported once), so the tracer's wrappers are the ones called.

An operation is one RK4 step with its monitor row, or one certified check
(an exact-solution comparison, a property suite, a commutator sandwich, a
hypothesis row, a schedule, a fit). A check that fails, or a
NumericalFailure raised where the operation runs, counts as one failed
operation; neither stops the run.
"""

from __future__ import annotations

import math
import types

import numpy as np

import kinb
from exact import bkw_lambda, bkw_values, max_error

# fixed accuracy threshold on err_exact; the seed commit reads 5.3e-8 on
# kac-line and below that on the other exact runs
ERR_EXACT_MAX = 5e-7
MASS_RTOL = 1e-10
SUP_SLACK = 1e-9


def _kac_quad():
    return kinb.AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5)


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def _bkw_state(grid, c0, a0, lam):
    return kinb.SpectralState(grid=grid, t=0.0,
                              values=bkw_values(grid, 0.0, a0, c0, lam))


def _check_rows(tally: _Tally, rows, planar: bool) -> float:
    """Tier-1 monitor rules; returns the energy drift max |E - E0| / E0."""
    m0, e0, h0 = rows[0].mass, rows[0].energy, rows[0].entropy
    drift = 0.0
    for prev, r in zip(rows, rows[1:]):
        ok = (abs(r.mass - m0) <= MASS_RTOL * m0
              and r.sup_ratio <= 1.0 + SUP_SLACK)
        drift = max(drift, abs(r.energy - e0) / abs(e0))
        if planar:
            ok = (ok and abs(r.energy - e0) <= 1e-4 * abs(e0)
                  and r.entropy - prev.entropy <= 1e-3 * abs(h0))
        tally.check(ok, f"monitor row t={r.t:g}")
    return drift


class Simulation:
    """`kinb.run` with a monitor row every step, as `kinb simulate` does.

    A pass runs `steps` steps as consecutive `kinb.run` calls of `segment`
    steps, each starting from the previous one's final state, so that the
    host-speed calibration (calibrate.py) samples between them. The grid,
    kernel, quadrature and dt are fixed: the per-step cost depends on them
    alone. The seed does not enter; the datum is fixed too.
    """

    sensitivity = 0.7   # to host slowdowns, relative to the kernel (calibrate.py)

    def __init__(self, grid, cs, quad, dt, steps, segment, datum=None,
                 bkw=None, exact_steps=0, planar=False):
        self.grid, self.cs, self.quad = grid, cs, quad
        self.dt, self.steps, self.segment = dt, steps, segment
        self.datum = datum          # InitialDatum, or None for the BKW datum
        self.bkw = bkw              # (c0, a0) of the BKW-type exact solution
        self.exact_steps = exact_steps
        self.planar = planar

    def _bkw(self):
        c0, a0 = self.bkw
        return c0, a0, bkw_lambda(self.grid, self.cs, self.quad)

    def setup(self, seed: int):
        if self.datum is None:
            state = _bkw_state(self.grid, *self._bkw())
        else:
            state = kinb.init_state(self.grid, self.datum)
        kinb.stability_limit(state, self.cs, self.quad)   # operator build
        return state

    def run_pass(self, state, watch):
        rows, cur = [], state
        try:
            for _ in range(self.steps // self.segment):
                traj = watch.time("run", lambda: kinb.run(
                    cur, self.cs, self.quad, dt=self.dt, t_end=self.segment * self.dt))
                rows += traj.rows[1:] if rows else traj.rows
                cur = traj.final
        except kinb.NumericalFailure as exc:
            return {"error": str(exc), "rows": rows}
        return {"rows": rows, "final": cur}

    def check(self, state, out) -> dict:
        tally = _Tally()
        if "error" in out:
            tally.check(False, "NumericalFailure: " + out["error"])
            return {"tally": tally, "steps": 0}
        rows = out["rows"]
        steps = len(rows) - 1
        tally.check(steps == self.steps, f"ran {steps} of {self.steps} steps")
        res = {"tally": tally, "steps": steps,
               "energy_drift": _check_rows(tally, rows, self.planar)}
        if self.datum is None:
            c0, a0, lam = self._bkw()
            err = max_error(out["final"].values, self.grid, self.steps * self.dt,
                            a0, c0, lam)
            tally.check(err <= ERR_EXACT_MAX, f"err_exact {err:.3e}")
            res["err_exact"] = err
        return res

    def exact(self) -> float:
        """err_exact of a short untimed BKW run on this workload's grid,
        kernel, quadrature and dt (workloads whose timed datum has no exact
        solution)."""
        c0, a0, lam = self._bkw()
        state = _bkw_state(self.grid, c0, a0, lam)
        t_end = self.exact_steps * self.dt
        traj = kinb.run(state, self.cs, self.quad, dt=self.dt, t_end=t_end)
        return max_error(traj.final.values, self.grid, traj.final.t, a0, c0, lam)


# ----------------------------------------------------------------------------
# analysis: suites, commutators, the hypothesis chain, the decay-order fit
# ----------------------------------------------------------------------------

# sized so that neither the suites nor the diagnostics fall below about a
# third of the pass; kl recomputes its constants on every call
SUITES = (("epsilon", 1000), ("kl", 200), ("ddlemma", 4), ("expdiff", 500),
          ("geometry", 200))
PART1_T_END = 0.1
PART1_TIMES = (0.0, 0.025, 0.05, 0.075, 0.1)
PART3_T0 = 0.5
PART3_DIRECTIONS = 16


class Analysis:
    sensitivity = 1.0   # interpreter-bound, like the calibration kernel

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        quad = kinb.AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4)
        # criterion 6 grids; every case draws its own kernel, so every
        # commutator builds its own collision operator
        grids = ([kinb.GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)] * 3
                 + [kinb.GridSpec(dimension=2, mode="full-2d", n=48, eta_max=4.5)] * 3
                 + [kinb.GridSpec(dimension=3, mode="radial", n=128, eta_max=6.0)] * 3)
        commutators = []
        for g in grids:
            if g.mode == "radial":
                datum = kinb.InitialDatum(kind="gaussian", dimension=g.dimension,
                                          sigma=float(rng.uniform(0.35, 0.45)))
            else:
                comps = tuple(
                    (float(rng.uniform(0.2, 1.0)),
                     tuple(float(x) for x in rng.uniform(-0.3, 0.3, size=g.dimension)),
                     float(rng.uniform(0.35, 0.45)))
                    for _ in range(int(rng.integers(1, 4))))
                datum = kinb.InitialDatum(kind="gaussian-mixture",
                                          dimension=g.dimension, components=comps)
            cs = kinb.CrossSection(nu=float(rng.uniform(0.25, 0.75)))
            w = kinb.GevreyWeight(alpha=float(rng.uniform(0.3, min(0.95, cs.nu + 0.2))),
                                  beta=float(rng.uniform(0.05, 0.3)),
                                  t=float(rng.uniform(0.05, 0.5)),
                                  lam=g.eta_max / math.sqrt(2.0))
            commutators.append((kinb.init_state(g, datum), w, cs, quad))

        # part I: short Kac run from the BKW datum
        kac_grid = kinb.GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
        kac_cs, kac_quad = kinb.CrossSection(nu=0.25), _kac_quad()
        c0 = 2.0 * math.pi ** 2
        lam = bkw_lambda(kac_grid, kac_cs, kac_quad)
        kac_state = _bkw_state(kac_grid, c0, -c0, lam)
        kinb.stability_limit(kac_state, kac_cs, kac_quad)   # operator build

        # part III: planar Gaussian and its fractional-heat flow at T0
        p3_grid = kinb.GridSpec(dimension=2, mode="full-2d", n=64, eta_max=8.0)
        p3_0 = kinb.init_state(p3_grid, kinb.InitialDatum(kind="gaussian",
                                                          dimension=2, sigma=0.3))
        p3_1 = kinb.fractional_heat_evolve(p3_0, 0.25, PART3_T0)

        # decay-order fit on the calibration oracle of criterion 4
        fit_grid = kinb.GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
        base = kinb.init_state(fit_grid, kinb.InitialDatum(kind="gaussian", dimension=1))
        flat = kinb.state_with_values(base, np.ones(fit_grid.shape, dtype=complex))
        fit_nu = float(rng.choice([0.25, 0.5, 0.75]))
        return types.SimpleNamespace(
            seed=seed, commutators=commutators,
            kac=(kac_state, kac_cs, kac_quad, c0, -c0, lam),
            part3=(p3_0, p3_1), fit=(kinb.fractional_heat_evolve(flat, fit_nu, 0.3), fit_nu))

    def run_pass(self, inp, watch):
        out: dict = {"errors": []}

        def timed(label, fn):
            try:
                return watch.time(label, fn)
            except kinb.NumericalFailure as exc:
                out["errors"].append(f"{label}: NumericalFailure: {exc}")
                return None

        out["suites"] = [(name, timed("suite " + name,
                                      lambda: kinb.run_suite(name, seed=inp.seed, n=n)))
                         for name, n in SUITES]
        state, cs, quad, _, _, _ = inp.kac
        traj = out["traj"] = timed("run", lambda: kinb.run(
            state, cs, quad, dt=2e-3, t_end=PART1_T_END, snapshot_times=PART1_TIMES))
        if traj is not None:
            sched = timed("part I schedule", lambda: kinb.build_induction_schedule(
                [s for _, s in traj.snapshots], part="I", m=2, alpha=0.25,
                T0=PART1_T_END, cs=cs))
            out["part1"] = (sched, sched and timed("part I hypotheses",
                                                   lambda: kinb.check_hypotheses(
                                                       traj, sched, seed=inp.seed)))
        # one section per grid family
        out["commutators"] = []
        for i in range(0, len(inp.commutators), 3):
            reps = timed("commutators", lambda: [kinb.commutation_error(*c)
                                                 for c in inp.commutators[i:i + 3]])
            out["commutators"] += reps or [None]
        s0, s1 = inp.part3
        cs3 = kinb.CrossSection(nu=0.25)
        flow = types.SimpleNamespace(snapshots=[(0.0, s0), (PART3_T0, s1)], final=s1)

        def part3():
            sched3 = kinb.build_induction_schedule([s0, s1], part="III", m=2, alpha=0.25,
                                                   T0=PART3_T0, cs=cs3)
            return kinb.check_hypotheses(flow, sched3, n_random=PART3_DIRECTIONS,
                                         seed=inp.seed)

        out["part3"] = timed("part III", part3)
        out["fit"] = timed("fit", lambda: kinb.fit_gevrey_order(inp.fit[0]))
        return out

    def check(self, inp, out) -> dict:
        tally = _Tally()
        for err in out["errors"]:
            tally.check(False, err)
        for name, res in out["suites"]:
            if res is not None:
                tally.check(res.ok, f"suite {name}: {res.message}")
        res = {"tally": tally, "steps": 0}
        traj = out["traj"]
        if traj is not None:
            res["steps"] = len(traj.rows) - 1
            res["energy_drift"] = _check_rows(tally, traj.rows, planar=False)
            _, _, _, c0, a0, lam = inp.kac
            err = max_error(traj.final.values, traj.grid, traj.final.t, a0, c0, lam)
            tally.check(err <= ERR_EXACT_MAX, f"part I err_exact {err:.3e}")
            res["err_exact"] = err
            sched, rows = out.get("part1", (None, None))
            if rows is not None:
                for r in rows:
                    tally.check(r.hyp1 <= sched.M * (1 + 1e-9),
                                f"hyp1 {r.hyp1:g} > M {sched.M:g} at scale {r.scale:g}")
        for rep in out["commutators"]:
            if rep is not None:
                tally.check(rep.sandwich_ok, f"commutator sandwich lhs={rep.lhs:g}")
        if out["part3"] is not None:
            tally.check(len(out["part3"]) > 0, "part III produced no rows")
        fit, nu = out["fit"], inp.fit[1]
        if fit is not None:
            want = 0.3 * (2 * math.pi) ** (2 * nu)
            tally.check(abs(fit.alpha_hat - nu) <= 0.01 * nu
                        and abs(fit.beta_t_hat - want) <= 0.05 * want,
                        f"fit alpha {fit.alpha_hat:g} for nu {nu:g}")
        return res


def _workloads() -> dict:
    cs = kinb.CrossSection(nu=0.25)
    c_kac = 2.0 * math.pi ** 2
    return {
        # scripts/kac_reference.ini grid, kernel, quadrature and dt with the
        # BKW datum; cost does not depend on the datum
        "kac-line": Simulation(
            kinb.GridSpec(dimension=1, mode="full-1d", n=512, eta_max=32.0),
            cs, _kac_quad(), dt=2e-3, steps=100, segment=20, bkw=(c_kac, -c_kac)),
        # criterion 10's radial d=3 grid and datum; dt below the 1.29e-3 limit
        "radial-3d": Simulation(
            kinb.GridSpec(dimension=3, mode="radial", n=128, eta_max=8.0),
            cs, _kac_quad(), dt=1e-3, steps=1000, segment=200,
            datum=kinb.InitialDatum(kind="laplace", dimension=3, a=1.0),
            bkw=(0.5 * math.pi ** 2, -math.pi ** 2 / 3.0), exact_steps=200),
        # scripts/boltzmann_2d.ini (criterion 3)
        "planar-2d": Simulation(
            kinb.GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0),
            cs, kinb.AngularQuadrature(theta_min=4e-3, panels=8, nodes_per_panel=5,
                                       azimuthal_nodes=8),
            dt=4e-3, steps=4, segment=1,
            datum=kinb.InitialDatum(kind="gaussian-mixture", dimension=2,
                                    components=((0.5, (0.75, 0.0), 0.6),
                                                (0.5, (-0.75, 0.0), 0.6))),
            bkw=(0.72 * math.pi ** 2, -0.72 * math.pi ** 2), exact_steps=2, planar=True),
        "analysis": Analysis(),
    }


WORKLOADS = _workloads()
