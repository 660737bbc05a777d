"""Command-line front end.

Subcommands: simulate, diagnose, constants, verify, induction.
Exit codes: 0 success, 1 configuration or parse error, 2 numerical
failure, 3 property-suite counterexample.

Configuration files are INI text with a fixed schema; unknown sections or
keys are rejected so typos fail loudly instead of silently using defaults.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import math
import os
import sys
import types
import typing
from dataclasses import MISSING, fields, replace

import numpy as np

from .collision import AngularQuadrature, CrossSection
from .diagnostics import (GevreyWeight, build_induction_schedule,
                          cb_constant, check_hypotheses, commutation_error,
                          fit_gevrey_order, weighted_norms, _alpha_cap,
                          _check_chain, _PARTS)
from .evolution import MonitorRow, RunConfig, Trajectory, simulate
from .inequalities import alpha_md, optimize_lambdas, required_moment
from .spectral import (ConfigError, GridSpec, InitialDatum, NumericalFailure,
                       SpectralState, _DATUM_PARAMS)
from .verify import SUITE_NAMES, run_suite

__all__ = ["main", "load_config", "write_manifest", "read_snapshot",
           "write_snapshot"]


# ----------------------------------------------------------------------------
# configuration schema
# ----------------------------------------------------------------------------

def _section(cls) -> tuple:
    """(key types, required keys, defaults) of the config section that builds
    the dataclass `cls`: its int, float and str fields, required when they
    have no default."""
    hints = typing.get_type_hints(cls)
    types_ = {f.name: hints[f.name] for f in fields(cls)
              if hints[f.name] in (int, float, str)}
    defaults = {f.name: f.default for f in fields(cls)
                if f.name in types_ and f.default is not MISSING}
    return types_, tuple(k for k in types_ if k not in defaults), defaults


# {section: (key types, required keys, defaults)}; [init] and [induction]
# build no dataclass of their own
_SECTIONS = {
    "grid": _section(GridSpec),
    "kernel": _section(CrossSection),
    "quad": _section(AngularQuadrature),
    "time": _section(RunConfig),
    "init": ({"kind": str, "params": str}, ("kind",), {"params": ""}),
    "induction": ({"part": str, "m": int}, ("part",), {}),
}


def _parse(raw: str, typ, where: str):
    """`raw` as `typ` (str, int or float); a float must be finite."""
    if typ is str:
        return raw
    try:
        val = typ(raw)
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse {raw!r} as {typ.__name__}") from None
    if typ is float and not math.isfinite(val):
        raise ConfigError(f"{where}: {raw!r} is not finite")
    return val


def load_config(path: str) -> dict:
    """Parse and validate an INI config into {section: {key: typed value}}.

    Malformed INI text or text that is not UTF-8, unknown sections or
    keys, type errors, non-finite floats, missing required keys and an
    [induction] part or m that the chain refuses, or a part II or III on a
    one-dimensional [grid], all raise ConfigError.
    Keys are read case-insensitively, so every schema key is lower case.
    Optional keys are filled with their defaults, so the result is fully
    resolved.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg: dict = {}
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown config section [{sec}]")
        types_, required, defaults = _SECTIONS[sec]
        out = {}
        for key, raw in cp.items(sec):
            if key not in types_:
                raise ConfigError(f"unknown key {key!r} in [{sec}]")
            out[key] = _parse(raw, types_[key], f"key {key!r} in [{sec}]")
        for key in required:
            if key not in out:
                raise ConfigError(f"missing key {key!r} in [{sec}]")
        for key, val in defaults.items():
            out.setdefault(key, val)
        cfg[sec] = out
    if "induction" in cfg:
        _check_chain(cfg["induction"]["part"], cfg["induction"].get("m", 2),
                     cfg["grid"]["dimension"] if "grid" in cfg else None)
    return cfg


def _require_sections(cfg: dict, names) -> None:
    for name in names:
        if name not in cfg:
            missing = ", ".join(repr(k) for k in _SECTIONS[name][1])
            raise ConfigError(f"missing section [{name}] (needs {missing})")


def write_manifest(cfg: dict, path: str) -> None:
    cp = configparser.ConfigParser(interpolation=None)
    for sec, kv in cfg.items():
        cp[sec] = {k: (v if isinstance(v, str) else repr(v))
                   for k, v in kv.items()}
    with open(path, "w") as fh:
        cp.write(fh)


# ----------------------------------------------------------------------------
# object construction from config
# ----------------------------------------------------------------------------

def _parse_params(raw: str) -> dict:
    """Parse the [init] params string: space-separated key=value tokens.

    Values are finite floats, comma-separated float tuples, or for
    `components` a semicolon list of weight:center:sigma with a
    comma-separated center.
    """
    out: dict = {}
    for tok in raw.split():
        if "=" not in tok:
            raise ConfigError(f"init params token {tok!r} is not key=value")
        key, val = tok.split("=", 1)
        where = f"init param {key!r}"
        if key == "components":
            comps = []
            for item in val.split(";"):
                parts = item.split(":")
                if len(parts) != 3:
                    raise ConfigError(
                        f"component {item!r} is not weight:center:sigma")
                w, c, s = parts
                comps.append((_parse(w, float, where),
                              tuple(_parse(x, float, where) for x in c.split(",")),
                              _parse(s, float, where)))
            out[key] = tuple(comps)
        elif "," in val:
            out[key] = tuple(_parse(x, float, where) for x in val.split(","))
        else:
            out[key] = _parse(val, float, where)
    return out


def _build_datum(dimension: int, kind: str, params: str) -> InitialDatum:
    if kind not in _DATUM_PARAMS:
        raise ConfigError(f"unknown init kind {kind!r}")
    p = _parse_params(params)
    for key, val in p.items():
        if key not in _DATUM_PARAMS[kind]:
            raise ConfigError(f"init kind {kind!r} takes no param {key!r}")
        if isinstance(val, tuple) and key not in ("center", "components"):
            raise ConfigError(f"init param {key!r} takes one number")
    if "center" in p and not isinstance(p["center"], tuple):
        p["center"] = (p["center"],)
    return InitialDatum(kind=kind, dimension=dimension, **p)


def _operator(cfg: dict) -> tuple:
    """(CrossSection, AngularQuadrature) of a config's [kernel] and [quad]."""
    return CrossSection(**cfg["kernel"]), AngularQuadrature(**cfg["quad"])


def _run_config(cfg: dict) -> RunConfig:
    grid = GridSpec(**cfg["grid"])
    cs, quad = _operator(cfg)
    return RunConfig(
        grid=grid, cross_section=cs, quadrature=quad,
        datum=_build_datum(grid.dimension, cfg["init"]["kind"],
                           cfg["init"]["params"]),
        **cfg["time"])


# ----------------------------------------------------------------------------
# snapshot and CSV files
# ----------------------------------------------------------------------------

def _write_csv(path: str, head, rows) -> None:
    """Write the `head` lines, then `rows` as CSV records; every line ends
    in a bare newline."""
    with open(path, "w", newline="") as fh:
        for line in head:
            fh.write(line + "\n")
        csv.writer(fh, lineterminator="\n").writerows(rows)


def write_snapshot(state: SpectralState, path: str) -> None:
    g = state.grid
    _write_csv(path, ("# spectral snapshot", f"# dimension={g.dimension}",
                      f"# mode={g.mode}", f"# n={g.n}",
                      f"# eta_max={g.eta_max!r}", f"# t={state.t!r}", "re,im"),
               ([repr(float(z.real)), repr(float(z.imag))]
                for z in state.values.reshape(-1)))


def read_snapshot(path: str) -> SpectralState:
    meta: dict = {}
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    body = line[1:].strip()
                    if "=" in body:
                        k, v = body.split("=", 1)
                        meta[k.strip()] = v.strip()
                    continue
                if line.startswith("re,"):
                    continue
                try:
                    a, b = line.split(",")
                    rows.append(complex(float(a), float(b)))
                except ValueError:
                    raise ConfigError(f"snapshot {path!r} has a malformed "
                                      f"row {line!r}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"snapshot {path!r} is not UTF-8 text: {exc}") from None
    try:
        grid = GridSpec(dimension=int(meta["dimension"]), mode=meta["mode"],
                        n=int(meta["n"]), eta_max=float(meta["eta_max"]))
        t = float(meta["t"])
    except KeyError as exc:
        raise ConfigError(f"snapshot {path!r} is missing header {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"snapshot {path!r} has a malformed header: {exc}") from None
    vals = np.array(rows, dtype=complex)
    if vals.size != int(np.prod(grid.shape)):
        raise ConfigError(f"snapshot {path!r} has {vals.size} values, "
                          f"grid wants {int(np.prod(grid.shape))}")
    return SpectralState(grid=grid, t=t, values=vals.reshape(grid.shape))


def _fmt(x) -> str:
    if x is None:
        return ""
    if not math.isfinite(x):
        raise NumericalFailure("refusing to write a non-finite value to CSV")
    return repr(float(x))


def _write_run_csv(traj: Trajectory, path: str) -> None:
    names = [f.name for f in fields(MonitorRow)]
    _write_csv(path, (",".join(names),),
               ([_fmt(getattr(r, name)) for name in names] for r in traj.rows))


def _write_induction_csv(rows, schedule, path: str) -> None:
    _write_csv(path, ("t,scale,hyp1,hyp2,hyp3,empirical_M,weighted_l2,cap_ok",),
               ([_fmt(r.t), _fmt(r.scale), _fmt(r.hyp1), _fmt(r.hyp2),
                 _fmt(r.hyp3), _fmt(schedule.M), _fmt(r.weighted_l2),
                 "1" if r.passed else "0"] for r in rows))


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

@contextlib.contextmanager
def _output_dir(path: str):
    """Create `path` and its missing parents for the body; if the body
    raises, remove the directories this call created. A directory that
    already existed is kept."""
    made = []
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        made.append(probe)
        probe = os.path.dirname(probe)
    os.makedirs(path, exist_ok=True)
    try:
        yield
    except BaseException:
        # keep the command's own exit code if something else wrote there
        with contextlib.suppress(OSError):
            for made_dir in made:
                os.rmdir(made_dir)
        raise


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    _require_sections(cfg, ("grid", "kernel", "quad", "time", "init"))
    rc = _run_config(cfg)
    with _output_dir(args.out):
        traj = simulate(rc)
    _write_run_csv(traj, os.path.join(args.out, "run.csv"))
    for i, (t, snap) in enumerate(traj.snapshots):
        write_snapshot(snap, os.path.join(args.out,
                                          f"snapshot_{i:04d}_t{t:.6f}.csv"))
    write_manifest(cfg, os.path.join(args.out, "manifest.ini"))
    last = traj.rows[-1]
    print(f"simulate: {len(traj.rows)} monitor rows, "
          f"{len(traj.snapshots)} snapshots -> {args.out}")
    print(f"final t={last.t:g} mass={last.mass:.12g} energy={last.energy:.12g}")
    return 0


def _diagnose_operator(snapshot: str) -> tuple:
    """Kernel and quadrature of the run that wrote `snapshot`, read from the
    manifest.ini beside it, and that manifest's path."""
    path = os.path.join(os.path.dirname(snapshot), "manifest.ini")
    if not os.path.isfile(path):
        raise ConfigError(f"the commutator needs the run's manifest.ini "
                          f"beside the first snapshot; {path!r} is missing")
    cfg = load_config(path)
    _require_sections(cfg, ("kernel", "quad"))
    return (*_operator(cfg), path)


def cmd_diagnose(args) -> int:
    if (args.alpha is None) != (args.beta is None):
        raise ConfigError("--alpha and --beta must be given together")
    if args.lam is not None and args.alpha is None:
        raise ConfigError("--lambda needs --alpha and --beta")
    if args.alpha is not None:
        lam = args.lam if args.lam is not None else math.inf
        weight = GevreyWeight(alpha=args.alpha, beta=args.beta, lam=lam)
        cs, quad, source = _diagnose_operator(args.snapshots[0])
        print(f"commutator kernel nu={cs.nu!r} kappa={cs.kappa!r}, quadrature "
              f"theta_min={quad.theta_min!r} panels={quad.panels} "
              f"nodes_per_panel={quad.nodes_per_panel} ({source})")
    with _output_dir(args.out):
        reports = []
        for path in args.snapshots:
            state = read_snapshot(path)
            window = tuple(args.fit_window) if args.fit_window else None
            rep = fit_gevrey_order(state, fit_window=window)
            reports.append((path, state, rep))
            print(f"{path}: t={state.t!r}")
            print(f"  alpha_hat  = {rep.alpha_hat!r}")
            print(f"  beta_t_hat = {rep.beta_t_hat!r}")
            if state.t > 0:
                print(f"  beta_hat   = {rep.beta_hat(state.t)!r}")
            print(f"  residual   = {rep.residual!r}")
            print(f"  window     = {rep.window!r}  n_points = {rep.n_points}")
            if args.alpha is not None:
                w = replace(weight, t=state.t)
                norms = weighted_norms(state, w)
                print(f"  weighted l2={norms.l2!r} sup={norms.sup!r} "
                      f"h_alpha={norms.h_alpha!r}")
                clam = lam if math.isfinite(lam) else \
                    state.grid.eta_max / math.sqrt(2.0)
                cw = w if math.isfinite(lam) else replace(w, lam=clam)
                com = commutation_error(state, cw, cs, quad)
                print(f"  commutator lhs={com.lhs!r} rhs_bound={com.rhs_bound!r}")
                print(f"             i_term={com.i_term!r} "
                      f"i_plus_term={com.i_plus_term!r}")
    _write_csv(os.path.join(args.out, "fit.csv"),
               ("snapshot,t,alpha_hat,beta_t_hat,residual,"
                "window_lo,window_hi,n_points",),
               ([path, _fmt(state.t), _fmt(rep.alpha_hat),
                 _fmt(rep.beta_t_hat), _fmt(rep.residual),
                 _fmt(rep.window[0]), _fmt(rep.window[1]), rep.n_points]
                for path, state, rep in reports))
    return 0


def cmd_constants(args) -> int:
    m = args.m
    dims = (args.d,) if args.d else (1, 2, 3)
    print("smoothing exponents")
    for d in dims:
        a = alpha_md(m, d)
        print(f"  alpha(m={m}, n={d}) = {a:.6f}")
    lp = optimize_lambdas(m)
    pts = ";".join(f"{x:.6f}" for x in lp.points)
    print(f"derivative interpolation constant (m={m})")
    print(f"  C_{m} = {lp.constant:.6f}  at lambda = {pts}")
    if args.nu is not None:
        mm = required_moment(args.nu, bounded=args.bounded)
        label = "bounded" if args.bounded else "unbounded"
        print(f"required moment order (nu={args.nu:g}, {label}): m = {mm}")
        cs = CrossSection(nu=args.nu)
        print("kernel constants")
        for d in dims:
            parts = [f"scaled={cb_constant(cs, d, 'scaled'):.6f}"]
            if d >= 2:
                parts.append(f"plain={cb_constant(cs, d, 'plain'):.6f}")
            print(f"  c_b(d={d}): " + "  ".join(parts))
    print("base scales of the induction chain")
    for d in dims:
        cells = [f"part {part}: {base(d):.4f}"
                 for part, (_, base, d_min) in _PARTS.items() if d >= d_min]
        print(f"  d={d}  " + "  ".join(cells))
    if args.csv:
        _write_csv(args.csv, ("m,n,alpha_md,C_m,lambda_points",),
                   ([m, d, _fmt(alpha_md(m, d)), _fmt(lp.constant), pts]
                    for d in dims))
    return 0


def cmd_verify(args) -> int:
    res = run_suite(args.suite, seed=args.seed, n=args.n)
    print(res.message)
    if res.ok:
        return 0
    print(f"counterexample: {res.counterexample}")
    return 3


def cmd_induction(args) -> int:
    """Check the hypothesis chain on the snapshots stored in a run directory.

    The config (the run's manifest.ini unless --config is given) supplies
    the kernel and [induction] part and m (default 2); every other number
    is the schedule's own: alpha = min(alpha_{m,n}, nu) and T0 the time of
    the last snapshot."""
    cfg_path = args.config or os.path.join(args.rundir, "manifest.ini")
    cfg = load_config(cfg_path)
    _require_sections(cfg, ("kernel", "induction"))
    ind = cfg["induction"]
    cs = CrossSection(**cfg["kernel"])

    paths = sorted(p for p in os.listdir(args.rundir)
                   if p.startswith("snapshot_") and p.endswith(".csv"))
    if not paths:
        raise ConfigError(f"run dir {args.rundir!r} contains no snapshots")
    states = [read_snapshot(os.path.join(args.rundir, p)) for p in paths]
    states.sort(key=lambda s: s.t)

    part = ind["part"]
    m = ind.get("m", 2)
    alpha = _alpha_cap(part, m, states[0].grid.dimension, cs.nu)
    schedule = build_induction_schedule(states, part=part, m=m, alpha=alpha,
                                        T0=states[-1].t, cs=cs)

    stored = types.SimpleNamespace(snapshots=[(s.t, s) for s in states],
                                   final=states[-1])
    rows = check_hypotheses(stored, schedule, n_random=args.n_random,
                            seed=args.seed)
    _write_induction_csv(rows, schedule,
                         os.path.join(args.rundir, "induction.csv"))
    by_scale: dict = {}
    for r in rows:
        by_scale.setdefault(r.scale, []).append(r.passed)
    print(f"induction part {schedule.part}: beta={schedule.beta!r} "
          f"M={schedule.M!r} B={schedule.B!r}")
    print(f"moment order m={m} (nu={cs.nu:g} requires m >= "
          f"{required_moment(cs.nu)})")
    best = None
    for scale in sorted(by_scale):
        ok = all(by_scale[scale])
        print(f"  scale {scale:.6f}: {'pass' if ok else 'FAIL'} "
              f"({len(by_scale[scale])} snapshots)")
        if ok:
            best = scale
    if best is None:
        print("no scale passes the hypothesis chain")
    else:
        print(f"largest passing scale: {best:.6f}")
    return 0


# ----------------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kinb",
        description="Spectral simulator and certificate checker for "
                    "non-cutoff kinetic equations")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a configured simulation")
    ps.add_argument("config")
    ps.add_argument("--out", default="out")
    ps.set_defaults(fn=cmd_simulate)

    pd = sub.add_parser("diagnose", help="fit decay rates on snapshots")
    pd.add_argument("snapshots", nargs="+")
    pd.add_argument("--fit-window", nargs=2, type=float, metavar=("LO", "HI"))
    pd.add_argument("--alpha", type=float)
    pd.add_argument("--beta", type=float)
    pd.add_argument("--lambda", dest="lam", type=float)
    pd.add_argument("--out", default=".")
    pd.set_defaults(fn=cmd_diagnose)

    pc = sub.add_parser("constants", help="print the closed-form constants")
    pc.add_argument("--m", type=int, default=2)
    pc.add_argument("--d", type=int, choices=(1, 2, 3))
    pc.add_argument("--nu", type=float)
    pc.add_argument("--bounded", action="store_true")
    pc.add_argument("--csv")
    pc.set_defaults(fn=cmd_constants)

    pv = sub.add_parser("verify", help="run a randomized property suite")
    pv.add_argument("suite", choices=SUITE_NAMES)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--n", type=int)
    pv.set_defaults(fn=cmd_verify)

    pi = sub.add_parser("induction",
                        help="check the hypothesis chain over a stored run")
    pi.add_argument("rundir")
    pi.add_argument("--config")
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--n-random", type=int, default=64)
    pi.set_defaults(fn=cmd_induction)
    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"kinb: config error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailure as exc:
        print(f"kinb: numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"kinb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
