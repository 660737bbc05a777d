"""Independent oracle computations whose outputs are frozen into the test suite.

Run:  python tools/make_oracles.py

Every value printed here is computed from closed forms or adaptive
quadrature/symbolics (scipy, sympy, mpmath) without importing kinb, so the
package implementation can be tested against genuinely independent numbers.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
import sympy as sp
from scipy import integrate

mp.mp.dps = 50


def laplace_hat(eta_abs: float, a: float, mass: float, d: int) -> float:
    return mass * (1.0 + 4.0 * np.pi**2 * a**2 * eta_abs**2) ** (-(d + 1) / 2.0)


def check_laplace_transform() -> None:
    print("# laplace transform spot checks (direct integral vs closed form)")
    a, m = 1.3, 2.0
    # d = 1
    eta = 0.7
    val, _ = integrate.quad(
        lambda v: m / (2 * a) * np.exp(-abs(v) / a) * np.cos(2 * np.pi * v * eta),
        -np.inf, np.inf, limit=400)
    print(f"laplace_d1  direct={val:.12e} closed={laplace_hat(eta, a, m, 1):.12e}")
    # d = 2 via radial integral: fhat(r) = int_0^inf f(v) 2 pi v J0(2 pi r v) dv
    from scipy.special import j0
    norm2 = m / (2 * np.pi * a**2 * sp.gamma(2))  # mass/(a^d |S^{d-1}| Gamma(d))
    val2, _ = integrate.quad(
        lambda v: float(norm2) * np.exp(-v / a) * 2 * np.pi * v * j0(2 * np.pi * eta * v),
        0, np.inf, limit=400)
    print(f"laplace_d2  direct={val2:.12e} closed={laplace_hat(eta, a, m, 2):.12e}")
    # d = 3 radial: fhat(r) = (2/r) int_0^inf sin(2 pi r v) v f(v) dv
    norm3 = m / (a**3 * 4 * np.pi * 2.0)
    val3, _ = integrate.quad(
        lambda v: float(norm3) * np.exp(-v / a) * 2.0 / eta * np.sin(2 * np.pi * eta * v) * v,
        0, np.inf, limit=400)
    print(f"laplace_d3  direct={val3:.12e} closed={laplace_hat(eta, a, m, 3):.12e}")
    print(f"FREEZE laplace_hat(0.7, a=1.3, m=2.0, d=1) = {laplace_hat(0.7, 1.3, 2.0, 1):.15e}")
    print(f"FREEZE laplace_hat(0.7, a=1.3, m=2.0, d=2) = {laplace_hat(0.7, 1.3, 2.0, 2):.15e}")
    print(f"FREEZE laplace_hat(0.7, a=1.3, m=2.0, d=3) = {laplace_hat(0.7, 1.3, 2.0, 3):.15e}")


def kac_rhs_oracle() -> None:
    """Adaptive-quadrature Kac collision rhs for the laplace datum, nu=.25, kappa=1."""
    print("# Kac rhs oracle, laplace a=1 mass=1, b1 = |theta|^{-1.5} on [-pi/4, pi/4]")
    nu, kappa = 0.25, 1.0

    def fhat(x: float) -> float:
        return 1.0 / (1.0 + 4.0 * np.pi**2 * x * x)

    def J(xi: float) -> float:
        def integrand(th: float) -> float:
            br = fhat(xi * np.sin(th)) * fhat(xi * np.cos(th)) - fhat(0.0) * fhat(xi)
            return kappa * th ** (-1.0 - 2.0 * nu) * br
        # integrand ~ theta^{1-2nu} = theta^{0.5} near 0; even in theta
        val, err = integrate.quad(integrand, 0, np.pi / 4, limit=800,
                                  points=[1e-8, 1e-6, 1e-4, 1e-2])
        return 2.0 * val

    for xi in (0.5, 1.0, 2.5):
        print(f"FREEZE kac_rhs_laplace_nu025 xi={xi}: {J(xi):.12e}")

    # Gaussian fixed point: rhs identically zero for fhat = exp(-2 pi^2 s^2 x^2)
    def Jg(xi: float, s: float) -> float:
        def g(x: float) -> float:
            return np.exp(-2 * np.pi**2 * s**2 * x * x)
        def integrand(th: float) -> float:
            return kappa * th ** (-1.5) * (g(xi * np.sin(th)) * g(xi * np.cos(th)) - g(0) * g(xi))
        val, _ = integrate.quad(integrand, 0, np.pi / 4, limit=800,
                                points=[1e-8, 1e-6, 1e-4, 1e-2])
        return 2 * val

    print(f"gaussian fixed point residual at xi=1, sigma=1: {Jg(1.0, 1.0):.3e} (expect ~0)")
    print(f"gaussian fixed point residual at xi=3, sigma=0.7: {Jg(3.0, 0.7):.3e} (expect ~0)")


def expdiff_oracle() -> None:
    """Two-sided exponential-difference inequality at 50 digits."""
    print("# expdiff oracle (mpmath, 50 digits)")

    def eps(alpha, u):
        return (1 + u) ** alpha - u ** alpha

    cases = [
        (mp.mpf("0.5"), mp.mpf("1.0"), mp.mpf("1.0"), mp.mpf("1.0")),
        (mp.mpf("0.25"), mp.mpf("0.3"), mp.mpf("0.2"), mp.mpf("1.7")),
        (mp.mpf("0.7371"), mp.mpf("2.0"), mp.mpf("4.0"), mp.mpf("4.0")),
    ]
    for alpha, bt, sm, sp_ in cases:
        s = sm + sp_
        Gt = lambda x: mp.e ** (bt * (1 + x) ** alpha)
        lhs = abs(Gt(s) - Gt(sp_))
        rhs = 2 * alpha * bt * (1 + sp_) ** alpha * (1 - sp_ / s) * Gt(sm) ** eps(alpha, sp_ / sm) * Gt(sp_)
        print(f"alpha={alpha} bt={bt} sm={sm} sp={sp_}: lhs={mp.nstr(lhs, 20)} rhs={mp.nstr(rhs, 20)} ok={lhs <= rhs}")
    a, b, c, d_ = cases[0]
    s = c + d_
    lhs0 = abs(mp.e ** (b * (1 + s) ** a) - mp.e ** (b * (1 + d_) ** a))
    print(f"FREEZE expdiff lhs(alpha=.5,bt=1,sm=1,sp=1) = {mp.nstr(lhs0, 20)}")


def moment_system() -> None:
    """Symbolic eta-expansion of the Kac rhs; closed moment ODEs."""
    print("# moment system (sympy series)")
    eta, th = sp.symbols("eta theta", real=True)
    m0, m1, m2, m3, m4 = sp.symbols("m0 m1 m2 m3 m4", real=True)
    tp = 2 * sp.pi
    # fhat(x) = sum_k (-2 pi i)^k m_k x^k / k!
    def fh(x):
        return (m0 - sp.I * tp * m1 * x - tp**2 * m2 * x**2 / 2
                + sp.I * tp**3 * m3 * x**3 / 6 + tp**4 * m4 * x**4 / 24)
    br = sp.expand(fh(eta * sp.sin(th)) * fh(eta * sp.cos(th)) - fh(0) * fh(eta))
    series = sp.series(br, eta, 0, 5).removeO()
    poly = sp.Poly(sp.expand(series), eta)
    # even b1: odd-in-theta terms integrate to zero; substitute moments of sin/cos
    c2 = poly.coeff_monomial(eta**2)
    c4 = poly.coeff_monomial(eta**4)
    # symmetrized kernel: int b1 sin cos = 0, int b1 sin^3 cos = 0 etc (odd in theta)
    s, c = sp.sin(th), sp.cos(th)
    even2 = sp.simplify(sp.expand_trig(c2 + c2.subs(th, -th)) / 2)
    even4 = sp.simplify(sp.expand_trig(c4 + c4.subs(th, -th)) / 2)
    print("eta^2 coeff (theta-even part):", sp.simplify(even2))
    print("eta^4 coeff (theta-even part):", sp.factor(sp.simplify(even4 / (s**2 * c**2))), "* sin^2 cos^2")
    # numeric J for nu=0.25, kappa=1
    Jval, _ = integrate.quad(lambda t: t**-1.5 * np.sin(t)**2 * np.cos(t)**2, 0, np.pi / 4,
                             limit=400, points=[1e-8, 1e-4])
    J = 2 * Jval
    print(f"FREEZE J_nu025 = 2*int_0^pi/4 sin^2 cos^2 th^-1.5 = {J:.12e}")
    print(f"FREEZE dm4/dt laplace t=0 (m0=1,m2=2,m4=24) = J*(6*4-2*24) = {J * (6 * 4 - 2 * 24):.12e}")


def misc_constants() -> None:
    print("# misc constants")
    for d, expected in ((1, "sqrt(pi)"), (2, "sqrt(pi)"), (3, "pi/2")):
        if d == 1:
            v, _ = integrate.quad(lambda x: (1 + x * x) ** (-1.0), -np.inf, np.inf)
        elif d == 2:
            v, _ = integrate.quad(lambda r: 2 * np.pi * r * (1 + r * r) ** (-2.0), 0, np.inf)
        else:
            v, _ = integrate.quad(lambda r: 4 * np.pi * r * r * (1 + r * r) ** (-3.0), 0, np.inf)
        print(f"FREEZE C_{d}{d} = sqrt({v:.12f}) = {np.sqrt(v):.12f}  ({expected})")
    for nu in (0.25, 0.5):
        v, _ = integrate.quad(lambda t: np.sin(t) ** 2 * t ** (-1 - 2 * nu), 0, np.pi / 4,
                              limit=400, points=[1e-10, 1e-6, 1e-3])
        print(f"FREEZE c_b1(nu={nu}, kappa=1) = {2 * v:.12e}")
        v2, _ = integrate.quad(lambda t: np.sin(t) ** 2 * t ** (-1 - 2 * nu), 0, np.pi / 2,
                               limit=400, points=[1e-10, 1e-6, 1e-3])
        print(f"FREEZE c_bd2(nu={nu}, kappa=1) = {v2:.12e}   (= c_b2; x|S^{{d-2}}| for d>=3)")
    kernel_constants_50_digits()
    print(f"FREEZE gaussian entropy d=1 sigma=1: {-0.5 * np.log(2 * np.pi * np.e):.12f}")
    print(f"FREEZE laplace entropy a=1 m=1: {-(1 + np.log(2)):.12f}")
    print(f"FREEZE eps(0.5, 3) = 2 - sqrt(3) = {2 - np.sqrt(3):.12f}")
    print(f"FREEZE alpha_md(2,1) = {np.log(9 / 5) / np.log(2):.9f}")
    print(f"FREEZE alpha_md(2,2) = {np.log(10 / 6) / np.log(2):.9f}")
    print(f"FREEZE alpha_md(2,3) = {np.log(11 / 7) / np.log(2):.9f}")
    print(f"FREEZE alpha_md(2,6) = {np.log(14 / 10) / np.log(2):.9f}")
    r = (2 ** 0.9 - 1) / (2 - 2 ** 0.9)
    print(f"FREEZE required_moment ratio nu=0.9: {r:.9f} -> unbounded m={int(np.ceil(max(2, r)))}, "
          f"bounded m={int(np.ceil(max(2, r / 2)))}")
    lam0 = 3.0
    fac = (1 + np.sqrt(2)) / 2
    print(f"FREEZE Lambda chain lam0=3: L1={lam0 * fac:.6f} L2={lam0 * fac**2:.6f}")
    print(f"FREEZE Lambda0 part I d=3: {4 * np.sqrt(3) / (np.sqrt(2) - 1):.6f}")
    print(f"FREEZE Lambda0 part II: {4 * np.sqrt(2) / (np.sqrt(2) - 1):.6f}")
    # 2x2 Vandermonde at lambdas = [1/2, 1]
    V = np.array([[0.5, 0.25], [1.0, 1.0]])
    Vi = np.linalg.inv(V)
    l1 = np.abs(Vi).sum(axis=0).max()
    print(f"FREEZE ||V^-1||_l1 lambdas=[0.5,1]: {l1:.12f} (formula says 8)")
    print(f"FREEZE KL C_2 (lambda=[1]) = 2^2*2!*1*1 = 8")
    print(f"FREEZE ddlemma const example 98^0.4 = {98 ** 0.4:.12f}")
    # Kac energy functional J used in the m4 ODE is above; nothing else.


def kernel_constants_50_digits() -> None:
    """int_0^a theta^(-1-2 nu) sin^2(theta) dtheta at 50 digits, for the d = 1
    range a = pi/4 (printed doubled, as c_b1) and the d >= 2 range a = pi/2.

    The head [0, s] is integrated term by term from the Taylor series of
    sin^2 and `mp.quad` does [s, a]: a plain `mp.quad` from 0 loses digits
    to the theta^(-1-2 nu) singularity as nu nears 1. Each value is also
    checked against a second split point."""
    print("# kernel constants, 50 digits (Taylor head + mp.quad)")

    def head(nu, s):
        # sin^2 t = sum_k (-1)^(k+1) 2^(2k-1) t^(2k) / (2k)!
        return mp.nsum(lambda k: (-1) ** (k + 1) * mp.mpf(2) ** (2 * k - 1)
                       * s ** (2 * k - 2 * nu) / (mp.factorial(2 * k) * (2 * k - 2 * nu)),
                       [1, mp.inf])

    def moment(nu, a, s):
        f = lambda t: t ** (-1 - 2 * nu) * mp.sin(t) ** 2
        return head(nu, s) + mp.quad(f, mp.linspace(s, a, 5))

    for nu_s in ("0.25", "0.5", "0.75", "0.9", "0.99"):
        nu = mp.mpf(nu_s)
        for a, label, factor in ((mp.pi / 4, "c_b1", 2), (mp.pi / 2, "c_bd2", 1)):
            v = factor * moment(nu, a, mp.mpf("0.05"))
            check = factor * moment(nu, a, mp.mpf("0.2"))
            print(f"FREEZE {label}(nu={nu_s}, kappa=1) = {mp.nstr(v, 30)}"
                  f"   (split 0.2 differs by {mp.nstr(abs(v - check) / v, 3)})")


def commutator_i_plus_radial_d2() -> None:
    """I+ of the commutator bound on the pinned radial d = 2 case, continuous
    in the radius: the operator's discrete angular rule, each angle's radial
    integral by adaptive quadrature over the Gaussian's closed form.

    Case: Gaussian sigma = 0.45 (fhat = exp(-2 pi^2 sigma^2 r^2)), kernel
    kappa theta^(-1-2 nu) with nu = 0.35, the rule of 6 graded panels of 4
    Gauss-Legendre nodes on [0.05, pi/2], weight alpha = 0.5, beta = 0.15,
    t = 0.2, cutoff lam = 6/sqrt(2), grid radius eta_max = 6. At the split
    angle phi = theta/2, |eta+| = r cos phi and |eta-| = r sin phi, and

        I+ = 2 alpha beta t sum_k w_k sin^2 phi_k cos^2 phi_k
             int_0^eta_max 2 pi r [G fhat](r cos phi_k)^2 <r cos phi_k>^(2 alpha)
             G^eps_k(r sin phi_k) fhat(r sin phi_k) dr,

    with w_k = 2 * (Gauss-Legendre weight) * theta_k^(-1-2 nu), G = 0 beyond
    lam, the eta- factor 0 beyond lam/sqrt(2), and
    eps_k = (1 + u)^alpha - u^alpha at u = cot^2(phi_k).
    """
    print("# commutator I+, radial d=2, continuous in the radius")
    nu, sigma, alpha, beta, t = 0.35, 0.45, 0.5, 0.15, 0.2
    theta_min, panels, per_panel = 0.05, 6, 4
    eta_max = 6.0
    lam = eta_max / np.sqrt(2.0)
    bt = beta * t
    rho = (theta_min / (np.pi / 2)) ** (1.0 / panels)
    edges = (np.pi / 2) * rho ** np.arange(panels, -1, -1)
    x, wq = np.polynomial.legendre.leggauss(per_panel)
    theta = np.concatenate([0.5 * (b - a) * x + 0.5 * (b + a)
                            for a, b in zip(edges[:-1], edges[1:])])
    wgl = np.concatenate([0.5 * (b - a) * wq for a, b in zip(edges[:-1], edges[1:])])
    weights = 2.0 * wgl * theta ** (-1.0 - 2.0 * nu)

    def fhat(r):
        return np.exp(-2.0 * np.pi ** 2 * sigma ** 2 * r * r)

    def grow(r, power=1.0):
        return np.exp(bt * power * (1.0 + r * r) ** alpha)

    total = 0.0
    for th, wk in zip(theta, weights):
        phi = th / 2.0
        c, s = np.cos(phi), np.sin(phi)
        u = 1.0 / np.tan(phi) ** 2
        eps = (1.0 + u) ** alpha - u ** alpha
        top = min(eta_max, lam / c, lam / np.sqrt(2.0) / s)

        def integrand(r):
            rp, rm = r * c, r * s
            return (2.0 * np.pi * r * (grow(rp) * fhat(rp)) ** 2 * (1.0 + rp * rp) ** alpha
                    * grow(rm, eps) * fhat(rm))

        val, _ = integrate.quad(integrand, 0.0, top, limit=400, epsabs=0.0, epsrel=1e-13)
        total += wk * s * s * c * c * val
    print(f"FREEZE commutator I+ radial d=2 (continuum in r) = "
          f"{2.0 * alpha * beta * t * total:.12e}")


def fractional_heat() -> None:
    print("# fractional heat closed form")
    nu, t, x = 0.5, 0.3, 1.7
    print(f"FREEZE exp(-t(2pi|xi|)^(2nu)) t=.3 nu=.5 xi=1.7: {np.exp(-t * (2 * np.pi * x) ** (2 * nu)):.12e}")


if __name__ == "__main__":
    check_laplace_transform()
    kac_rhs_oracle()
    expdiff_oracle()
    moment_system()
    misc_constants()
    commutator_i_plus_radial_d2()
    fractional_heat()
