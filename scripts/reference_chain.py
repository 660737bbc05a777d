#!/usr/bin/env python3
"""Kac reference run with the full induction chain and multiplier-norm table.

Simulates the unit-mass laplace datum under the nu = 1/4 kernel on two
resolutions, builds the part-I schedule, checks Hyp1 at every scale and
snapshot, and writes run.csv / induction.csv / hinf.csv to the
output directory.
"""

import argparse
import math
import os
import time

from kinb import (
    AngularQuadrature,
    CrossSection,
    GridSpec,
    InitialDatum,
    build_induction_schedule,
    check_hypotheses,
    hinf_weighted_norm,
    init_state,
    run,
)
from kinb.cli import _write_csv, _write_induction_csv, _write_run_csv

SNAPSHOT_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


def reference_run(n, eta_max=32.0, dt=2e-3, t_end=1.0):
    grid = GridSpec(dimension=1, mode="full-1d", n=n, eta_max=eta_max)
    state = init_state(grid, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=0.25, kappa=1.0)
    quad = AngularQuadrature(theta_min=1e-3, panels=8, nodes_per_panel=5)
    traj = run(state, cs, quad, dt=dt, t_end=t_end,
               snapshot_times=SNAPSHOT_TIMES, monitor_every=25)
    return traj, cs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_reference")
    ap.add_argument("--n", type=int, default=512)
    ap.add_argument("--n-fine", type=int, default=1024)
    ap.add_argument("--beta-weight", type=float, default=5.0,
                    help="rate for the polynomial multiplier norm table")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    t0 = time.time()
    traj, cs = reference_run(args.n)
    print(f"reference run n={args.n}: {time.time() - t0:.1f}s, "
          f"dt_limit={traj.dt_limit:.4g}")
    _write_run_csv(traj, os.path.join(args.out, "run.csv"))

    states = [s for _, s in traj.snapshots]
    sched = build_induction_schedule(states, part="I", m=2, alpha=0.25,
                                     T0=1.0, cs=cs)
    print(f"schedule: scales={['%.4f' % s for s in sched.scales]}")
    print(f"  A_m={sched.A_m:.6f} M={sched.M:.6f} B={sched.B:.6f}")
    print(f"  K_empirical={sched.K_empirical:.6f} beta={sched.beta:.6f} "
          f"(formula {sched.beta_formula:.6f})")
    rows = check_hypotheses(traj, sched, n_random=64, seed=0)
    _write_induction_csv(rows, sched, os.path.join(args.out, "induction.csv"))
    worst = max(r.hyp1 for r in rows)
    n_pass = sum(r.passed for r in rows)
    print(f"hypothesis rows: {n_pass}/{len(rows)} pass, "
          f"worst Hyp1 {worst:.6f} vs M {sched.M:.6f}")

    t1 = time.time()
    fine, _ = reference_run(args.n_fine)
    print(f"resolution twin n={args.n_fine}: {time.time() - t1:.1f}s")
    hinf_rows = []
    for (t, s1), (_, s2) in zip(traj.snapshots, fine.snapshots):
        v1 = hinf_weighted_norm(s1, beta=args.beta_weight)
        v2 = hinf_weighted_norm(s2, beta=args.beta_weight)
        gap = abs(v1 - v2) / v1
        hinf_rows.append([repr(t), repr(v1), repr(v2), f"{gap:.3e}"])
        print(f"  t={t:.2f}: hinf {v1:.6f} vs {v2:.6f} (rel {gap:.2e})")
    _write_csv(os.path.join(args.out, "hinf.csv"),
               (f"t,hinf_n{args.n},hinf_n{args.n_fine},rel_gap",), hinf_rows)
    lam_cap = 32.0 / math.sqrt(2)
    print(f"largest scale checked: {sched.scales[-1]:.4f} (cap {lam_cap:.4f})")
    print(f"wrote {args.out}/run.csv, induction.csv, hinf.csv")


if __name__ == "__main__":
    main()
