"""The batched epsilon and expdiff suites against the one-draw-at-a-time
loops they replace, and the soundness of the float64 expdiff screen."""
import numpy as np
import pytest

import kinb.inequalities as ineq
from kinb.verify import _uniform, run_suite


def _loop_epsilon(seed, n):
    """The epsilon suite as a loop over scalar draws (reference)."""
    rng = np.random.default_rng(seed)
    checked = 0

    def failed(text):
        return (False, checked, text, "epsilon: counterexample after %d checks" % checked)

    for _ in range(n):
        a = rng.uniform(1e-3, 1.0)
        u1, u2 = np.sort(rng.uniform(0.0, 50.0, size=2))
        e1, e2 = ineq.epsilon(a, u1), ineq.epsilon(a, u2)
        checked += 1
        if u2 > u1 and e2 > e1 + 1e-12:
            return failed("not decreasing in u: alpha=%r u=(%r,%r)" % (a, u1, u2))
        a1, a2 = np.sort(rng.uniform(1e-3, 1.0, size=2))
        u = rng.uniform(1e-6, 50.0)
        if a2 > a1 and ineq.epsilon(a2, u) < ineq.epsilon(a1, u) - 1e-12:
            return failed("not increasing in alpha: u=%r alpha=(%r,%r)" % (u, a1, a2))
        a = rng.uniform(1e-3, 1.0 - 1e-3)
        u = rng.uniform(1e-6, 50.0)
        if ineq.epsilon(a, u) > u ** (a - 1.0) + 1e-12:
            return failed("power bound fails: alpha=%r u=%r" % (a, u))
        sm = rng.uniform(1e-6, 20.0)
        sp = rng.uniform(sm, 40.0)
        lhs = (1.0 + sm + sp) ** a
        rhs = ineq.epsilon(a, sp / sm) * (1.0 + sm) ** a + (1.0 + sp) ** a
        if lhs > rhs + 1e-10 * rhs:
            return failed("subadditivity fails: alpha=%r s=(%r,%r)" % (a, sm, sp))
    for m in range(1, 17):
        for d in range(1, 9):
            checked += 1
            got = ineq.epsilon(ineq.alpha_md(m, d), 1.0)
            if abs(got - 2.0 * m / (2.0 * m + d)) > 1e-12:
                return failed("exponent identity fails at (m,d)=(%d,%d)" % (m, d))
    return (True, checked, None, "epsilon: %d checks passed" % checked)


def _loop_expdiff(seed, n):
    """The expdiff suite as a loop of 30-digit checks (reference)."""
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(n):
        a = float(rng.uniform(0.01, 0.99))
        bt = float(rng.uniform(0.0, 2.0))
        sm = float(rng.uniform(0.0, 10.0))
        sp = float(rng.uniform(sm, 20.0 + sm))
        res = ineq.expdiff_check(a, bt, sm, sp, dps=30)
        checked += 1
        if not res.ok:
            return (False, checked,
                    "alpha=%r beta_t=%r s_minus=%r s_plus=%r lhs=%r rhs=%r" %
                    (a, bt, sm, sp, res.lhs, res.rhs),
                    "expdiff: counterexample after %d checks" % checked)
    return (True, checked, None, "expdiff: %d checks passed" % checked)


def _fields(res):
    return (res.ok, res.checked, res.counterexample, res.message)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_suites_match_the_loops(seed):
    assert _fields(run_suite("epsilon", seed=seed, n=1000)) == _loop_epsilon(seed, 1000)
    assert _fields(run_suite("expdiff", seed=seed, n=1000)) == _loop_expdiff(seed, 1000)


_good_epsilon = ineq.epsilon


def test_batched_suites_draw_what_the_loops_draw(monkeypatch):
    seen = []
    good_check = ineq.expdiff_check

    def epsilon(a, u):
        pairs = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(u, dtype=float))
        seen.extend(zip(pairs[0].ravel().tolist(), pairs[1].ravel().tolist()))
        return _good_epsilon(a, u)

    def expdiff_check(*args, dps=50):
        seen.append(args)
        return good_check(*args, dps=dps)

    monkeypatch.setattr(ineq, "epsilon", epsilon)
    monkeypatch.setattr(ineq, "expdiff_check", expdiff_check)
    monkeypatch.setattr(ineq, "_expdiff_screen",
                        lambda *args: np.zeros(np.shape(args[0]), dtype=bool))
    _loop_epsilon(2, 1000)
    want, seen[:] = sorted(seen), []
    run_suite("epsilon", seed=2, n=1000)
    assert sorted(seen) == want     # every (alpha, u) pair, bit for bit
    seen.clear()
    _loop_expdiff(2, 500)
    want, seen[:] = list(seen), []
    run_suite("expdiff", seed=2, n=500)
    assert seen == want             # every draw, in order


# each breaks one property of epsilon, and the last all of the first three at
# the first draw, where the order of the checks decides the message
_BROKEN_EPSILON = {
    "increasing-in-u": (lambda a, u: _good_epsilon(a, u) + 1e-5 * np.asarray(u),
                        "not decreasing in u"),
    "decreasing-in-alpha": (lambda a, u: (_good_epsilon(a, u) + (1.0 - np.asarray(a))
                                          * np.maximum(0.0, 1.0 - np.asarray(u))),
                            "not increasing in alpha"),
    "above-the-power-bound": (lambda a, u: _good_epsilon(a, u) + 0.05,
                              "power bound fails"),
    "not-subadditive": (lambda a, u: 0.9 * _good_epsilon(a, u), "subadditivity fails"),
    "everything": (lambda a, u: 1e3 + np.asarray(u) * (1.0 - np.asarray(a)),
                   "not decreasing in u"),
}


@pytest.mark.parametrize("name", list(_BROKEN_EPSILON))
def test_broken_epsilon_fails_where_the_loop_does(monkeypatch, name):
    broken, message = _BROKEN_EPSILON[name]
    monkeypatch.setattr(ineq, "epsilon", broken)
    want = _loop_epsilon(0, 1000)
    assert not want[0] and want[2].startswith(message)
    assert _fields(run_suite("epsilon", seed=0, n=1000)) == want


def test_broken_expdiff_check_fails_where_the_loop_does(monkeypatch):
    good = ineq.expdiff_check

    def broken(alpha, beta_t, s_minus, s_plus, dps=50):
        res = good(alpha, beta_t, s_minus, s_plus, dps=dps)
        return ineq.ExpDiffResult(ok=res.ok and alpha < 0.95, lhs=res.lhs, rhs=res.rhs)

    monkeypatch.setattr(ineq, "expdiff_check", broken)
    monkeypatch.setattr(ineq, "_expdiff_screen",
                        lambda *args: np.zeros(np.shape(args[0]), dtype=bool))
    want = _loop_expdiff(1, 500)
    assert not want[0] and want[1] > 1
    assert _fields(run_suite("expdiff", seed=1, n=500)) == want


def _expdiff_draws(seed, n):
    x = np.random.default_rng(seed).random((n, 4))
    sm = _uniform(x[:, 2], 0.0, 10.0)
    return (_uniform(x[:, 0], 0.01, 0.99), _uniform(x[:, 1], 0.0, 2.0), sm,
            _uniform(x[:, 3], sm, 20.0 + sm))


def test_expdiff_screen_certifies_only_what_the_30_digit_check_passes():
    edges = [(a, bt, sm, sp)
             for a in (0.01, 0.5, 0.99)
             for bt in (0.0, 1e-3, 1.0, 2.0)
             for sm, sp in ((0.0, 0.0), (0.0, 5.0), (1e-6, 1e-6), (3.0, 3.0),
                            (10.0, 10.0), (1e-6, 20.0 + 1e-6), (10.0, 30.0))]
    cases = [np.array(c) for c in zip(*edges)]
    for seed in (0, 1, 2):
        cases = [np.concatenate(pair) for pair in zip(cases, _expdiff_draws(seed, 1000))]
    certified = ineq._expdiff_screen(*cases)
    for i in np.flatnonzero(certified):
        args = [float(c[i]) for c in cases]
        assert ineq.expdiff_check(*args, dps=30).ok, args
    _, bt, sm, _ = cases
    assert not np.any(certified & ((bt == 0) | (sm == 0)))
    assert certified[len(edges):].all()


def test_expdiff_screen_leaves_near_equality_to_the_30_digit_check():
    # alpha -> 1, beta_t -> 0 and s_minus = s_plus -> inf make the bound
    # tight: here rhs/lhs - 1 is about 1e-12, below the screen's 1e-9 slack
    case = (1.0 - 1e-12, 1e-25, 1e13, 1e13)
    res = ineq.expdiff_check(*case, dps=50)
    assert res.ok and 0.0 < res.rhs / res.lhs - 1.0 < 1e-9
    assert not ineq._expdiff_screen(*case)
