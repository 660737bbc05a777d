"""Command-line interface: config parsing, file formats, exit codes."""

import argparse
import csv
import dataclasses
import math
import os
import re

import numpy as np
import pytest

from kinb import (AngularQuadrature, CrossSection, GevreyWeight, GridSpec,
                  InitialDatum, RunConfig, build_induction_schedule,
                  commutation_error, fractional_heat_evolve, init_state,
                  simulate, state_with_values)
from kinb.cli import (_SECTIONS, _parser, _run_config, load_config, main,
                      read_snapshot, write_manifest, write_snapshot)
from kinb.errors import ConfigError

KAC_INI = """\
[grid]
dimension = 1
mode = full-1d
n = 129
eta_max = 12.0

[kernel]
nu = 0.25

[quad]
theta_min = 5e-3

[time]
dt = 2e-3
t_end = 0.01
snapshots = 2

[init]
kind = laplace
params = a=1.0

[induction]
part = I
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_config_defaults_and_manifest_roundtrip(tmp_path):
    path = _write(tmp_path, "kac.ini", KAC_INI)
    cfg = load_config(path)
    assert cfg["grid"]["n"] == 129
    assert cfg["kernel"]["kappa"] == 1.0  # default filled in
    assert cfg["quad"]["panels"] == 8
    out = str(tmp_path / "manifest.ini")
    write_manifest(cfg, out)
    assert load_config(out) == cfg


def test_config_sections_match_the_objects_they_build(tmp_path):
    # a key the object does not take would escape the CLI as a TypeError
    # instead of exit 1, and a filled default would disagree with the library
    for section, cls in (("grid", GridSpec), ("kernel", CrossSection),
                         ("quad", AngularQuadrature), ("time", RunConfig)):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        keys, _, filled = _SECTIONS[section]
        if section != "time":
            assert set(keys) == set(defaults), section
        for key, val in filled.items():
            assert val == defaults[key], (section, key)
    # a config that sets only the required keys runs the library defaults
    ini = KAC_INI.replace("snapshots = 2\n", "")
    rc = _run_config(load_config(_write(tmp_path, "kac.ini", ini)))
    assert rc == RunConfig(
        grid=GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        cross_section=CrossSection(nu=0.25),
        quadrature=AngularQuadrature(theta_min=5e-3),
        datum=InitialDatum(kind="laplace", dimension=1, a=1.0),
        dt=2e-3, t_end=0.01)


def test_load_config_rejects_unknown_and_missing(tmp_path):
    bad1 = _write(tmp_path, "a.ini", KAC_INI + "\n[extra]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad1)
    bad2 = _write(tmp_path, "b.ini", KAC_INI.replace("nu = 0.25", "nu = 0.25\nxx = 3"))
    with pytest.raises(ConfigError):
        load_config(bad2)
    bad3 = _write(tmp_path, "c.ini", KAC_INI.replace("nu = 0.25", ""))
    with pytest.raises(ConfigError, match="nu"):
        load_config(bad3)
    bad4 = _write(tmp_path, "d.ini", KAC_INI.replace("n = 129", "n = many"))
    with pytest.raises(ConfigError):
        load_config(bad4)
    bad5 = _write(tmp_path, "e.ini", KAC_INI + "\n[weight]\nlambda = 3.0\n")
    with pytest.raises(ConfigError, match=r"unknown config section \[weight\]"):
        load_config(bad5)
    bad6 = _write(tmp_path, "f.ini", KAC_INI.replace("theta_min = 5e-3", ""))
    with pytest.raises(ConfigError, match=r"missing key 'theta_min' in \[quad\]"):
        load_config(bad6)


def test_schema_keys_are_lower_case():
    # configparser folds keys to lower case, so a mixed-case key is unreachable
    for section, (keys, _, _) in _SECTIONS.items():
        assert all(k == k.lower() for k in keys), section


@pytest.mark.parametrize("text", [
    "n = 129\n" + KAC_INI,                                  # no section header
    KAC_INI + "\n[kernel]\nkappa = 1.0\n",                   # repeated section
    KAC_INI.replace("nu = 0.25", "nu = 0.25\nnu = 0.5"),     # repeated key
    KAC_INI.replace("part = I", "part = I\nm = 2\nM = 3"),   # m next to M
    KAC_INI.replace("laplace", "laplace\xff"),                # byte 0xff
], ids=["no-section", "duplicate-section", "duplicate-key", "folded-key",
        "not-utf8"])
def test_malformed_ini_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(text.encode("latin-1"))
    assert main(["simulate", str(cfg), "--out", str(tmp_path / "run")]) == 1
    assert "kinb: config error: malformed config file" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_simulate_writes_run_and_snapshots(tmp_path, capsys):
    cfg = _write(tmp_path, "kac.ini", KAC_INI)
    out = str(tmp_path / "run")
    assert main(["simulate", cfg, "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "run.csv")) as fh:
        rows = list(csv.DictReader(fh))
    ts = [float(r["t"]) for r in rows]
    ms = [float(r["mass"]) for r in rows]
    assert ts == sorted(ts) and ts[0] == 0.0 and ts[-1] == 0.01
    assert max(abs(m - ms[0]) for m in ms) < 1e-12
    snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot_"))
    assert len(snaps) == 2
    st = read_snapshot(os.path.join(out, snaps[-1]))
    assert st.t == 0.01
    assert os.path.exists(os.path.join(out, "manifest.ini"))


def test_simulate_rejects_unstable_dt(tmp_path, capsys):
    cfg = _write(tmp_path, "kac.ini", KAC_INI.replace("dt = 2e-3", "dt = 10.0")
                 .replace("t_end = 0.01", "t_end = 20.0"))
    # a failed run removes the directories it made and keeps one that existed
    assert main(["simulate", cfg, "--out", str(tmp_path / "new" / "x")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "new")
    (tmp_path / "kept").mkdir()
    assert main(["simulate", cfg, "--out", str(tmp_path / "kept")]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert os.path.isdir(tmp_path / "kept")


@pytest.mark.parametrize("old,new", [
    ("t_end = 0.01", "t_end = nan"),
    ("dt = 2e-3", "dt = nan"),
    ("t_end = 0.01", "t_end = inf"),
    ("eta_max = 12.0", "eta_max = inf"),
    ("nu = 0.25", "nu = 0.25\nkappa = inf"),
])
def test_simulate_rejects_non_finite_values(tmp_path, capsys, old, new):
    cfg = _write(tmp_path, "kac.ini", KAC_INI.replace(old, new))
    with pytest.raises(ConfigError, match="not finite"):
        load_config(cfg)
    out = tmp_path / "run"
    assert main(["simulate", cfg, "--out", str(out)]) == 1
    assert "kinb: config error" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_simulate_rejects_snapshots_that_share_a_step(tmp_path, capsys):
    # five snapshots on [0, 0.008] at dt = 0.004: 0 and 0.002 fall on step 0
    cfg = _write(tmp_path, "kac.ini", KAC_INI.replace("dt = 2e-3", "dt = 4e-3")
                 .replace("t_end = 0.01", "t_end = 8e-3")
                 .replace("snapshots = 2", "snapshots = 5"))
    out = tmp_path / "run"
    assert main(["simulate", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kinb: config error" in err
    assert "snapshot times 0 and 0.002 both fall on step 0" in err
    assert not os.path.exists(out)


def test_simulate_names_an_under_resolved_planar_datum(tmp_path, capsys):
    # sigma = 0.3 has not decayed by eta_max = 2 (the unpaired edge reads
    # 8.2e-4 of the mass); the state drops that edge, and the t = 0 monitor
    # row finds the negative samples the truncated spectrum leaves
    ini = (KAC_INI.replace("dimension = 1", "dimension = 2")
           .replace("mode = full-1d", "mode = full-2d").replace("n = 129", "n = 64")
           .replace("eta_max = 12.0", "eta_max = 2.0")
           .replace("kind = laplace", "kind = gaussian")
           .replace("params = a=1.0", "params = sigma=0.3 center=0.5,-0.4"))
    out = tmp_path / "run"
    assert main(["simulate", _write(tmp_path, "planar.ini", ini),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "negative physical samples (-1.72e-04) signal under-resolution" in err
    assert not os.path.exists(out)


def test_snapshot_roundtrip(tmp_path):
    g = GridSpec(dimension=2, mode="full-2d", n=16, eta_max=2.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=2, sigma=0.5,
                                    center=(0.2, -0.1)))
    p = str(tmp_path / "snap.csv")
    write_snapshot(st, p)
    back = read_snapshot(p)
    assert back.grid == g
    assert back.t == st.t
    assert np.array_equal(back.values, st.values)


def test_verify_exit_codes(capsys):
    assert main(["verify", "epsilon", "--n", "200"]) == 0
    capsys.readouterr()
    # argparse rejects the unknown choice; main maps that to exit 1
    assert main(["verify", "nosuchsuite"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("suite", ["epsilon", "kl", "expdiff", "ddlemma", "geometry"])
def test_verify_rejects_sizes_below_one(suite, capsys):
    for n in ("0", "-1"):
        assert main(["verify", suite, "--n", n]) == 1
        assert "n must be >= 1" in capsys.readouterr().err


def test_verify_detects_broken_constant(monkeypatch, capsys):
    import kinb.inequalities as ineq
    good = ineq.kl_constant
    monkeypatch.setattr(ineq, "kl_constant", lambda m, lam: 1e-3 * good(m, lam))
    assert main(["verify", "kl", "--n", "50"]) == 3
    out = capsys.readouterr().out
    assert "counterexample" in out.lower()


def test_constants_prints_frozen_value(capsys):
    assert main(["constants", "--m", "2", "--d", "1", "--nu", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "0.847997" in out


def test_diagnose_snapshot(tmp_path, capsys):
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    p = str(tmp_path / "snap.csv")
    write_snapshot(st, p)
    assert main(["diagnose", p, "--fit-window", "0.5", "2.0",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "alpha_hat" in out
    with open(tmp_path / "fit.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert abs(float(rows[0]["alpha_hat"]) - 1.0) < 1e-9
    # window with no usable shells
    assert main(["diagnose", p, "--fit-window", "16.5", "17.0",
                 "--out", str(tmp_path)]) == 1


def test_diagnose_numerical_failure_exits_2(tmp_path, capsys):
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0))
    p = str(tmp_path / "snap.csv")
    write_snapshot(st, p)
    # four shells inside the window, fewer than the fit needs; the failed
    # command removes the directories it made and keeps one that existed
    for out in (tmp_path, tmp_path / "new" / "sub"):
        assert main(["diagnose", p, "--fit-window", "0.5", "0.7",
                     "--out", str(out)]) == 2
        assert "only 4 usable shells" in capsys.readouterr().err
    assert os.path.isdir(tmp_path)
    assert not os.path.exists(tmp_path / "new")


@pytest.mark.parametrize("weight", [
    ["--alpha", "0.3"],
    ["--beta", "0.1"],
    ["--lambda", "3"],
    ["--alpha", "0.3", "--lambda", "3"],
], ids=["alpha-alone", "beta-alone", "lambda-alone", "lambda-without-beta"])
def test_diagnose_rejects_half_a_weight(tmp_path, capsys, monkeypatch, weight):
    calls = []
    monkeypatch.setattr("kinb.cli.fit_gevrey_order", lambda *a, **k: calls.append(a))
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    snap = str(tmp_path / "snap.csv")
    write_snapshot(init_state(g, InitialDatum(kind="gaussian", dimension=1)), snap)
    out = tmp_path / "out"
    assert main(["diagnose", snap, *weight, "--out", str(out)]) == 1
    assert "kinb: config error:" in capsys.readouterr().err
    assert calls == [] and not os.path.exists(out)


def test_induction_needs_room_for_scales(tmp_path, capsys):
    cfg = _write(tmp_path, "kac.ini", KAC_INI)
    out = str(tmp_path / "run")
    assert main(["simulate", cfg, "--out", out]) == 0
    capsys.readouterr()
    # eta_max = 12 puts the part-I base scale above eta_max/sqrt(2)
    assert main(["induction", out]) == 1
    assert "no scale fits" in capsys.readouterr().err


def test_induction_refuses_moment_orders_above_four(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", _write(tmp_path, "kac.ini", KAC_INI),
                 "--out", out]) == 0
    capsys.readouterr()
    cfg = _write(tmp_path, "ind.ini", KAC_INI.replace("part = I", "part = I\nm = 5"))
    assert main(["induction", out, "--config", cfg]) == 1
    assert "moments stop at order 4" in capsys.readouterr().err


def test_induction_chain_end_to_end(tmp_path, capsys):
    ini = KAC_INI.replace("n = 129", "n = 161").replace(
        "eta_max = 12.0", "eta_max = 16.0").replace(
        "t_end = 0.01", "t_end = 0.2").replace(
        "snapshots = 2", "snapshots = 3")
    cfg = _write(tmp_path, "kac.ini", ini)
    out = str(tmp_path / "run")
    assert main(["simulate", cfg, "--out", out]) == 0
    capsys.readouterr()
    assert main(["induction", out, "--n-random", "16"]) == 0
    text = capsys.readouterr().out
    assert "largest passing scale" in text
    with open(os.path.join(out, "induction.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    scale0 = 4.0 / (math.sqrt(2) - 1)
    assert abs(float(rows[0]["scale"]) - scale0) < 1e-9
    assert all(r["cap_ok"] == "1" for r in rows)


def test_library_and_cli_share_the_snapshot_convention(tmp_path, capsys):
    ini = KAC_INI.replace("snapshots = 2", "snapshots = 3")
    out = str(tmp_path / "run")
    assert main(["simulate", _write(tmp_path, "kac.ini", ini), "--out", out]) == 0
    capsys.readouterr()
    traj = simulate(RunConfig(
        grid=GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0),
        cross_section=CrossSection(nu=0.25),
        quadrature=AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5),
        datum=InitialDatum(kind="laplace", dimension=1, a=1.0),
        dt=2e-3, t_end=0.01, snapshots=3))
    snaps = sorted(f for f in os.listdir(out) if f.startswith("snapshot_"))
    states = [read_snapshot(os.path.join(out, f)) for f in snaps]
    assert [st.t for st in states] == [t for t, _ in traj.snapshots]
    assert states[0].t == 0.0 and states[-1].t == 0.01
    for st, (_, snap) in zip(states, traj.snapshots):
        assert np.array_equal(st.values, snap.values)
    with open(os.path.join(out, "run.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(traj.rows)
    for r, want in zip(rows, traj.rows):
        assert [float(r[k]) for k in ("t", "mass", "energy", "entropy",
                                      "sup_ratio", "tail")] == [
            want.t, want.mass, want.energy, want.entropy, want.sup_ratio,
            want.tail]


def test_malformed_snapshot_is_a_config_error(tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["simulate", _write(tmp_path, "kac.ini", KAC_INI),
                 "--out", out]) == 0
    capsys.readouterr()
    path = os.path.join(out, sorted(f for f in os.listdir(out)
                                    if f.startswith("snapshot_"))[-1])
    with open(path) as fh:
        good = fh.read()
    with open(path, "w") as fh:
        fh.write(good + "1.0,0.0,7\n")
    assert main(["induction", out]) == 1
    assert "malformed row" in capsys.readouterr().err
    with open(path, "w") as fh:
        fh.write(good.replace("# n=129", "# n=many"))
    with pytest.raises(ConfigError, match="malformed header"):
        read_snapshot(path)


def test_snapshot_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    snap = tmp_path / "snap.csv"
    write_snapshot(init_state(g, InitialDatum(kind="gaussian", dimension=1)),
                   str(snap))
    snap.write_bytes(snap.read_bytes().replace(b"spectral", b"spectr\xe9l"))
    out = tmp_path / "out"
    assert main(["diagnose", str(snap), "--out", str(out)]) == 1
    assert "is not UTF-8 text" in capsys.readouterr().err
    assert not os.path.exists(out)


def _induction_run(tmp_path):
    """A run directory whose hypothesis chain `kinb induction` checks:
    eta_max = 16 leaves room for the part-I scales."""
    ini = KAC_INI.replace("n = 129", "n = 161").replace("eta_max = 12.0", "eta_max = 16.0")
    out = str(tmp_path / "run")
    assert main(["simulate", _write(tmp_path, "kac.ini", ini), "--out", out]) == 0
    return out


@pytest.mark.parametrize("t", ["nan", "inf"])
def test_snapshot_with_a_non_finite_time_is_a_config_error(tmp_path, capsys, t):
    # `t < 0` is false for nan: induction ended in a traceback and diagnose
    # printed the whole fit before exiting 2
    out = _induction_run(tmp_path)
    assert main(["induction", out]) == 0
    capsys.readouterr()
    path = os.path.join(out, sorted(f for f in os.listdir(out)
                                    if f.startswith("snapshot_"))[-1])
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(re.sub(r"# t=.*", f"# t={t}", text))
    for argv in (["induction", out], ["diagnose", path, "--out", str(tmp_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "kinb: config error: state time must be nonnegative and finite" in captured.err
        assert "alpha_hat" not in captured.out


def test_induction_refuses_snapshots_from_another_grid(tmp_path, capsys):
    # a stray snapshot of another run's grid would be priced on the scales
    # and L2 cap of the first snapshot's grid without notice
    out = _induction_run(tmp_path)
    capsys.readouterr()
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=16.0)
    st = init_state(g, InitialDatum(kind="laplace", dimension=1, a=1.0))
    write_snapshot(state_with_values(st, st.values, t=0.005),
                   os.path.join(out, "snapshot_0009_t0.005000.csv"))
    assert main(["induction", out]) == 1
    assert "kinb: config error: snapshot states come from different grids" \
        in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "induction.csv"))


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "seed and n_random must be >= 0, got -1 and 64"),
    (["--n-random", "-3"], "seed and n_random must be >= 0, got 0 and -3"),
], ids=["seed", "n-random"])
def test_induction_refuses_negative_seed_and_n_random(tmp_path, capsys, flags, message):
    out = _induction_run(tmp_path)
    capsys.readouterr()
    assert main(["induction", out, *flags]) == 1
    assert f"kinb: config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["epsilon", "kl", "expdiff", "ddlemma", "geometry"])
def test_verify_refuses_a_negative_seed(suite, capsys):
    for n in ([], ["--n", "10"]):
        assert main(["verify", suite, "--seed", "-1", *n]) == 1
        assert "kinb: config error: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["commutator", "conservation"])
def test_verify_operator_suites_pass(suite, capsys):
    # three commutator cases draw each grid mode once: full-1d, radial, full-2d
    assert main(["verify", suite, "--n", "3"]) == 0
    assert "counterexample" not in capsys.readouterr().out.lower()


@pytest.mark.parametrize("suite,checks", [
    ("epsilon", 10128), ("expdiff", 10000), ("geometry", 1000)])
def test_verify_runs_its_default_size(suite, checks, capsys):
    # without --n each suite runs its own default number of cases
    assert main(["verify", suite]) == 0
    assert capsys.readouterr().out == f"{suite}: {checks} checks passed\n"


RADIAL_PART3_INI = """\
[grid]
dimension = 2
mode = radial
n = 64
eta_max = 8.0

[kernel]
nu = 0.9

[quad]
theta_min = 0.05

[time]
dt = 1e-3
t_end = 0.01
snapshots = 2

[init]
kind = laplace
params = a=1.0

[induction]
part = III
"""


@pytest.mark.parametrize("extra", [
    "lambda0 = 10.0", "n_max = 4", "theta0 = 0.1", "vartheta0 = 0.1",
    "\n[weight]\nalpha = 0.2",
], ids=["lambda0", "n_max", "theta0", "vartheta0", "weight"])
def test_induction_takes_its_schedule_from_the_run(tmp_path, capsys,
                                                   monkeypatch, extra):
    # [induction] sets part and m only (KAC_INI ends inside that section);
    # any other key or a [weight] section fails before any work
    calls = []
    monkeypatch.setattr("kinb.cli.read_snapshot", lambda *a, **k: calls.append(a))
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    write_snapshot(init_state(g, InitialDatum(kind="gaussian", dimension=1)),
                   str(tmp_path / "snapshot_0000_t0.000000.csv"))
    cfg = _write(tmp_path, "ind.ini", KAC_INI + extra + "\n")
    assert main(["induction", str(tmp_path), "--config", cfg]) == 1
    assert "kinb: config error:" in capsys.readouterr().err
    assert calls == []


def test_part3_schedule_holds_plain_floats(tmp_path, capsys):
    out = str(tmp_path / "rad")
    assert main(["simulate", _write(tmp_path, "rad.ini", RADIAL_PART3_INI),
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["induction", out, "--n-random", "4"]) == 0
    text = capsys.readouterr().out
    assert "induction part III: beta=" in text and "np.float64(" not in text
    assert "moment order m=2 (nu=0.9 requires m >= 7)" in text
    states = [read_snapshot(os.path.join(out, f)) for f in sorted(os.listdir(out))
              if f.startswith("snapshot_")]
    sched = build_induction_schedule(states, part="III", m=2, alpha=0.3,
                                     T0=states[-1].t, cs=CrossSection(nu=0.9))
    for f in dataclasses.fields(sched):
        value = getattr(sched, f.name)
        if f.name != "scales":
            assert type(value) in (str, int, float), (f.name, type(value))
    assert all(type(s) is float for s in sched.scales)


def test_output_paths_are_checked_before_the_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kinb.cli.simulate", lambda *a, **k: calls.append(a))
    monkeypatch.setattr("kinb.cli.fit_gevrey_order", lambda *a, **k: calls.append(a))
    (tmp_path / "taken").write_text("")
    taken = str(tmp_path / "taken")
    assert main(["simulate", _write(tmp_path, "kac.ini", KAC_INI),
                 "--out", taken]) == 1
    assert "kinb:" in capsys.readouterr().err and calls == []
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    snap = str(tmp_path / "snap.csv")
    write_snapshot(init_state(g, InitialDatum(kind="gaussian", dimension=1)), snap)
    assert main(["diagnose", snap, "--out", os.path.join(taken, "sub")]) == 1
    assert "kinb:" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("kind,params", [
    ("laplace", "a=1.0 sigma=7 center=3"),
    ("gaussian", "sigma=1.0 a=2"),
    ("gaussian-mixture", "components=1:0:0.5 mass=2"),
])
def test_init_params_of_another_kind_are_rejected(tmp_path, capsys, kind, params):
    ini = KAC_INI.replace("kind = laplace", f"kind = {kind}").replace(
        "params = a=1.0", f"params = {params}")
    assert main(["simulate", _write(tmp_path, "kac.ini", ini),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"init kind {kind!r} takes no param" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


@pytest.mark.parametrize("kind,params,message", [
    ("laplace", "a=abc", "init param 'a': cannot parse 'abc' as float"),
    ("gaussian-mixture", "components=1:0:x",
     "init param 'components': cannot parse 'x' as float"),
    ("laplace", "a=nan", "init param 'a': 'nan' is not finite"),
    ("laplace", "a=inf", "init param 'a': 'inf' is not finite"),
    ("laplace", "mass=inf", "init param 'mass': 'inf' is not finite"),
    ("gaussian", "sigma=nan", "init param 'sigma': 'nan' is not finite"),
], ids=["a-abc", "component-x", "a-nan", "a-inf", "mass-inf", "sigma-nan"])
def test_init_params_follow_the_config_number_rule(tmp_path, capsys, kind,
                                                   params, message):
    ini = KAC_INI.replace("kind = laplace", f"kind = {kind}").replace(
        "params = a=1.0", f"params = {params}")
    assert main(["simulate", _write(tmp_path, "kac.ini", ini),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"kinb: config error: {message}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


_SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
_SCRIPT_INIS = sorted(name for name in os.listdir(_SCRIPTS) if name.endswith(".ini"))


def test_every_script_config_is_collected():
    assert {"boltzmann_2d.ini", "kac_reference.ini"} <= set(_SCRIPT_INIS)


@pytest.mark.parametrize("name", _SCRIPT_INIS)
def test_script_config_loads(name):
    # the shipped configs, the README's reference run among them, build a
    # run without error
    rc = _run_config(load_config(os.path.join(_SCRIPTS, name)))
    assert isinstance(rc, RunConfig)


def test_planar_script_config_is_the_bench_mixture():
    path = os.path.join(_SCRIPTS, "boltzmann_2d.ini")
    rc = _run_config(load_config(path))
    assert rc.grid == GridSpec(dimension=2, mode="full-2d", n=64, eta_max=2.0)
    assert rc.quadrature == AngularQuadrature(theta_min=4e-3, panels=8,
                                              nodes_per_panel=5)
    assert rc.datum == InitialDatum(kind="gaussian-mixture", dimension=2,
                                    components=((0.5, (0.75, 0.0), 0.6),
                                                (0.5, (-0.75, 0.0), 0.6)))
    assert (rc.dt, rc.t_end, rc.snapshots) == (4e-3, 0.5, 4)


def _missing_csv_dir(tmp_path):
    return ["constants", "--csv", str(tmp_path / "missing" / "x.csv")]


def _simulate_onto_a_file(tmp_path):
    (tmp_path / "taken").write_text("")
    return ["simulate", _write(tmp_path, "kac.ini", KAC_INI),
            "--out", str(tmp_path / "taken")]


def _simulate_list_for_a_number(tmp_path):
    ini = KAC_INI.replace("params = a=1.0", "params = a=0.5,1")
    return ["simulate", _write(tmp_path, "kac.ini", ini),
            "--out", str(tmp_path / "run")]


def _induction_missing_dir(tmp_path):
    return ["induction", str(tmp_path / "missing"),
            "--config", _write(tmp_path, "kac.ini", KAC_INI)]


@pytest.mark.parametrize("argv", [
    lambda tmp_path: ["constants", "--m", "9"],
    lambda tmp_path: ["constants", "--nu", "1.5"],
    _simulate_onto_a_file,
    _simulate_list_for_a_number,
    _missing_csv_dir,
    _induction_missing_dir,
], ids=["constants-m9", "constants-nu1.5", "simulate-out-file",
        "simulate-list-for-a-number", "constants-csv-missing-dir",
        "induction-missing-dir"])
def test_bad_arguments_and_paths_exit_1(tmp_path, capsys, argv):
    assert main(argv(tmp_path)) == 1
    assert "kinb:" in capsys.readouterr().err


def test_diagnose_commutator_matches_library(tmp_path, capsys):
    g = GridSpec(dimension=1, mode="full-1d", n=257, eta_max=16.0)
    st = fractional_heat_evolve(
        init_state(g, InitialDatum(kind="gaussian", dimension=1, sigma=1.0)),
        0.5, 0.2)
    p = str(tmp_path / "snap.csv")
    write_snapshot(st, p)
    manifest = _write(tmp_path, "manifest.ini",
                      "[kernel]\nnu = 0.5\nkappa = 1.0\n\n[quad]\n"
                      "theta_min = 0.05\npanels = 6\nnodes_per_panel = 4\n")
    assert main(["diagnose", p, "--fit-window", "0.5", "2.0", "--alpha", "0.3",
                 "--beta", "0.1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    # no --lambda: the commutator cutoff is eta_max/sqrt(2); the kernel and
    # quadrature are those of the manifest.ini beside the snapshot
    com = commutation_error(
        read_snapshot(p), GevreyWeight(alpha=0.3, beta=0.1, t=st.t,
                                       lam=16.0 / math.sqrt(2.0)),
        CrossSection(nu=0.5, kappa=1.0),
        AngularQuadrature(theta_min=0.05, panels=6, nodes_per_panel=4))
    assert ("commutator kernel nu=0.5 kappa=1.0, quadrature theta_min=0.05 "
            f"panels=6 nodes_per_panel=4 ({manifest})\n") in out
    assert f"  commutator lhs={com.lhs!r} rhs_bound={com.rhs_bound!r}\n" in out
    assert f"i_term={com.i_term!r} i_plus_term={com.i_plus_term!r}\n" in out


def test_diagnose_commutator_uses_the_run_manifest(tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["simulate", _write(tmp_path, "kac.ini", KAC_INI), "--out", run]) == 0
    capsys.readouterr()
    snap = os.path.join(run, sorted(p for p in os.listdir(run)
                                    if p.startswith("snapshot_"))[-1])
    args = ["diagnose", snap, "--fit-window", "0.5", "2.0", "--alpha", "0.3",
            "--beta", "0.1", "--out"]
    assert main(args + [str(tmp_path / "diag")]) == 0
    out = capsys.readouterr().out
    # KAC_INI's kernel and quadrature, with the defaults load_config fills in
    assert ("commutator kernel nu=0.25 kappa=1.0, quadrature theta_min=0.005 "
            f"panels=8 nodes_per_panel=5 ({os.path.join(run, 'manifest.ini')})\n") in out
    st = read_snapshot(snap)
    com = commutation_error(
        st, GevreyWeight(alpha=0.3, beta=0.1, t=st.t, lam=12.0 / math.sqrt(2.0)),
        CrossSection(nu=0.25, kappa=1.0),
        AngularQuadrature(theta_min=5e-3, panels=8, nodes_per_panel=5))
    assert f"  commutator lhs={com.lhs!r} rhs_bound={com.rhs_bound!r}\n" in out
    assert f"i_term={com.i_term!r} i_plus_term={com.i_plus_term!r}\n" in out


def test_diagnose_commutator_needs_the_run_manifest(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("kinb.cli.fit_gevrey_order", lambda *a, **k: calls.append(a))
    g = GridSpec(dimension=1, mode="full-1d", n=65, eta_max=8.0)
    snap = str(tmp_path / "snap.csv")
    write_snapshot(init_state(g, InitialDatum(kind="gaussian", dimension=1)), snap)
    out = tmp_path / "out"
    # no manifest.ini beside the snapshot: no operator, so no work at all
    assert main(["diagnose", snap, "--alpha", "0.3", "--beta", "0.1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "kinb: config error:" in err and "manifest.ini" in err
    assert calls == [] and not os.path.exists(out)
    # the operator has no flag of its own
    assert main(["diagnose", snap, "--alpha", "0.3", "--beta", "0.1",
                 "--nu", "0.5", "--out", str(out)]) == 1
    assert "unrecognized arguments: --nu" in capsys.readouterr().err
    assert calls == [] and not os.path.exists(out)


def test_constants_writes_one_csv_row_per_dimension(tmp_path, capsys):
    path = tmp_path / "constants.csv"
    assert main(["constants", "--m", "3", "--nu", "0.5", "--csv", str(path)]) == 0
    capsys.readouterr()
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["m"], r["n"]) for r in rows] == [("3", "1"), ("3", "2"), ("3", "3")]
    assert all(float(r["alpha_md"]) > 0 and float(r["C_m"]) > 0 for r in rows)


def test_every_file_kinb_writes_ends_its_lines_in_a_bare_newline(tmp_path, capsys):
    ini = KAC_INI.replace("n = 129", "n = 161").replace("eta_max = 12.0",
                                                          "eta_max = 16.0")
    run = tmp_path / "run"
    assert main(["simulate", _write(tmp_path, "kac.ini", ini),
                 "--out", str(run)]) == 0
    assert main(["induction", str(run), "--n-random", "4"]) == 0
    snap = sorted(run.glob("snapshot_*.csv"))[-1]
    assert main(["diagnose", str(snap), "--alpha", "0.3", "--beta", "0.1",
                 "--out", str(tmp_path / "diag")]) == 0
    assert main(["constants", "--nu", "0.25",
                 "--csv", str(tmp_path / "constants.csv")]) == 0
    capsys.readouterr()
    written = [p for p in tmp_path.rglob("*") if p.is_file() and p.name != "kac.ini"]
    assert {p.name for p in written} == {
        "run.csv", "manifest.ini", "induction.csv", "fit.csv", "constants.csv",
        *(p.name for p in run.glob("snapshot_*.csv"))}
    for p in written:
        assert b"\r" not in p.read_bytes(), p.name


@pytest.mark.parametrize("induction, message", [
    ("part = IV", "unknown induction part 'IV'"),
    ("part = I\nm = 9", "moments stop at order 4"),
    ("part = I\nm = 1", "m must be >= 2"),
    ("part = II", "parts II and III need d >= 2"),
    ("part = 2", "unknown induction part '2'"),
], ids=["part-IV", "m-9", "m-1", "part-II-on-a-line", "part-2"])
def test_simulate_checks_the_induction_section(tmp_path, capsys, induction,
                                               message):
    cfg = _write(tmp_path, "kac.ini", KAC_INI.replace("part = I", induction))
    out = tmp_path / "run"
    assert main(["simulate", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("weight", [
    ["--alpha", "1.5", "--beta", "0.1"],
    ["--alpha", "nan", "--beta", "0.1"],
    ["--alpha", "0.3", "--beta", "-1"],
    ["--alpha", "0.3", "--beta", "nan"],
    ["--alpha", "0.3", "--beta", "0.1", "--lambda", "-2"],
], ids=["alpha-above-1", "alpha-nan", "beta-negative", "beta-nan",
        "lambda-negative"])
def test_diagnose_checks_the_weight_before_the_work(tmp_path, capsys, weight):
    g = GridSpec(dimension=1, mode="full-1d", n=129, eta_max=12.0)
    snap = str(tmp_path / "snap.csv")
    write_snapshot(init_state(g, InitialDatum(kind="laplace", dimension=1)), snap)
    write_manifest(load_config(_write(tmp_path, "kac.ini", KAC_INI)),
                   str(tmp_path / "manifest.ini"))
    out = tmp_path / "out"
    assert main(["diagnose", snap, *weight, "--out", str(out)]) == 1
    io = capsys.readouterr()
    assert "kinb: config error:" in io.err
    assert "alpha_hat" not in io.out
    assert not os.path.exists(out)



def test_readme_command_line_lists_every_flag():
    # the "Command line" block of the README names each subcommand's options
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                  for line in block.splitlines() if line.startswith("kinb ")}
    subparsers = next(a for a in _parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    actual = {name: {s for act in sub._actions for s in act.option_strings
                     if s.startswith("--") and s != "--help"}
              for name, sub in subparsers.choices.items()}
    assert documented == actual
