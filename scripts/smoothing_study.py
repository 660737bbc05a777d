#!/usr/bin/env python3
"""Measure the growth of the fitted decay order along a Kac nu = 1/2 run.

The laplace datum starts with power-law transform decay (fitted order well
below 1/2); collisions build up stretched-exponential decay whose fitted
order climbs toward the kernel exponent.  The fit window stays at small
frequency because beyond it the transform sits at the quadrature error
floor.  Writes alpha_fit.csv with one row per snapshot.
"""

import argparse
import os
import time

from kinb import (
    AngularQuadrature,
    CrossSection,
    GridSpec,
    InitialDatum,
    fit_gevrey_order,
    init_state,
    run,
)
from kinb.cli import _write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out_smoothing")
    ap.add_argument("--nu", type=float, default=0.5)
    ap.add_argument("--t-end", type=float, default=0.5)
    ap.add_argument("--dt", type=float, default=5e-4)
    ap.add_argument("--window", type=float, nargs=2, default=(0.5, 1.5))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    grid = GridSpec(dimension=1, mode="full-1d", n=256, eta_max=16.0)
    state = init_state(grid, InitialDatum(kind="laplace", dimension=1, a=1.0))
    cs = CrossSection(nu=args.nu, kappa=1.0)
    quad = AngularQuadrature(theta_min=2.5e-3, panels=10, nodes_per_panel=5)
    times = tuple(args.t_end * k / 10 for k in range(1, 11))

    t0 = time.time()
    traj = run(state, cs, quad, dt=args.dt, t_end=args.t_end,
               snapshot_times=times, monitor_every=100)
    print(f"run: {time.time() - t0:.1f}s ({int(args.t_end / args.dt)} steps)")

    rows = []
    for t, s in traj.snapshots:
        rep = fit_gevrey_order(s, fit_window=tuple(args.window))
        rows.append([repr(t), repr(rep.alpha_hat), repr(rep.beta_t_hat),
                     repr(rep.beta_hat(t)), repr(rep.residual), rep.n_points])
        print(f"  t={t:.3f}: alpha_hat={rep.alpha_hat:.4f} "
              f"beta_hat={rep.beta_hat(t):.4f} resid={rep.residual:.4f}")
    path = os.path.join(args.out, "alpha_fit.csv")
    _write_csv(path, ("t,alpha_hat,beta_t_hat,beta_hat,residual,n_points",), rows)
    print(f"kernel exponent nu={args.nu}; wrote {path}")


if __name__ == "__main__":
    main()
