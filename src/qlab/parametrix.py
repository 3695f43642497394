"""Hadamard parametrix kernels in the flat model: modified Bessel functions
K_m of complex argument, the radial kernels F_nu(r, lambda), and the kernel
checks (the recursion residual, the n=3 closed form and the n=2 L^6 bound).

Branch convention: z = -(lambda+i)^2 with sqrt(z) = 1 - i lambda, so the
Bessel argument sqrt(z) r always has positive real part.  The normalization
c_nu = 2^{-nu} (2 pi)^{-n/2} is anchored to the n=3, nu=0 closed form
F_0 = e^{i(lambda+i) r} / (4 pi r) and to the recursion
(-Delta - (lambda+i)^2) F_nu = nu F_{nu-1}.
"""

from __future__ import annotations

import math

import numpy as np

from . import estimators, geometry
from .errors import ConfigError, DomainError, NumericError

OVERLAP_BAND = (0.8, 1.25)
_STITCH_AT = 1.0
_TRAPEZOID_TOL = 1e-10
_MAX_DOUBLINGS = 22
_L6_DELTA = 0.5  # radius of the ball of the L^6 kernel check


def bessel_k_integral(m: float, z: complex) -> complex:
    """K_m(z) by trapezoid quadrature of int_0^inf e^{-z cosh t} cosh(mt) dt.

    The integrand is analytic and decays double-exponentially, so the
    trapezoid rule converges geometrically under node doubling; doubles
    until two successive values agree to 1e-10 relative, and raises
    NumericError if they do not within 22 doublings.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("bessel_k needs Re z > 0")
    m = abs(float(m))
    t_max = max(10.0, 20.0 / math.sqrt(abs(z))) + m
    n_nodes = 64
    prev = None
    for _ in range(_MAX_DOUBLINGS):
        t = np.linspace(0.0, t_max, n_nodes + 1)
        ch = np.cosh(t)
        vals = np.exp(-z * ch) * np.cosh(m * t)
        h = t_max / n_nodes
        cur = h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))
        if prev is not None and abs(cur - prev) <= _TRAPEZOID_TOL * max(abs(cur), 1e-300):
            return complex(cur)
        prev = cur
        n_nodes *= 2
    raise NumericError("Bessel integral did not stabilize under doubling")


def bessel_k_asymptotic(m: float, z: complex) -> complex:
    """K_m(z) = sqrt(pi/2z) e^{-z} a_m(z) with the exact symbol

    a_m(z) = int_0^inf e^{-u} u^{m-1/2} (1 + u/2z)^{m-1/2} du / Gamma(m+1/2),

    evaluated after u = v^2 (removing the endpoint singularity for m < 1/2)
    by 24 composite Gauss panels on v in [0, 12].  Exact representation,
    good for |z| >~ 1.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("bessel_k needs Re z > 0")
    m = abs(float(m))
    v, w = geometry._panel_gauss(0.0, 12.0, 24, 8)
    u = v ** 2
    integrand = np.exp(-u) * v ** (2.0 * m) * (1.0 + u / (2.0 * z)) ** (m - 0.5)
    a = 2.0 * np.sum(w * integrand) / math.gamma(m + 0.5)
    return complex(np.sqrt(math.pi / (2.0 * z)) * np.exp(-z) * a)


def bessel_k(m: float, z: complex) -> complex:
    """Modified Bessel function of the second kind, complex argument.

    Integral representation for |z| below the stitch point, exact
    asymptotic-symbol representation above; K_{-m} = K_m by construction.
    An order |m| >= 2 runs the upward recurrence K_{v+1} = K_{v-1} + (2v/z) K_v,
    stable for K, from the two lowest orders of its fractional part; there
    the integral's terms dwarf K_m and cancel to about 1e-8 only.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("bessel_k needs Re z > 0")
    m = abs(float(m))
    if m >= 2.0:
        frac = m - math.floor(m)
        lo, hi = bessel_k(frac, z), bessel_k(frac + 1.0, z)
        for k in range(1, int(m - frac)):
            lo, hi = hi, lo + 2.0 * (frac + k) / z * hi
        return hi
    if abs(z) < _STITCH_AT:
        return bessel_k_integral(m, z)
    return bessel_k_asymptotic(m, z)


def c_nu(n: int, nu: int) -> float:
    """Normalization constants of the radial kernels, anchored to the n=3
    closed form and the first-order recursion."""
    return 2.0 ** (-nu) * (2.0 * math.pi) ** (-n / 2.0)


def _check_kernel(n: int, nu: int, rs, lams) -> None:
    """At least one radius and one lambda, each radius positive, each lambda
    at least 1, nu >= 0, and a K_m within the double range at the smallest |z|:
    its small-argument size Gamma(|m|)/2 (2/|z|)^|m| at most 1e300."""
    if len(rs) == 0 or len(lams) == 0:
        raise DomainError("the kernel grid needs at least one radius and one lambda")
    if min(rs) <= 0:
        raise DomainError("radius must be positive")
    for lam in lams:
        estimators._check_lambda(lam)
    if nu < 0:
        raise DomainError("order nu must be nonnegative")
    m, z = abs(n / 2.0 - nu - 1.0), min(rs) * math.hypot(1.0, min(lams))
    if m >= 2.0 and math.lgamma(m) + m * math.log(2.0 / z) > math.log(2e300):
        raise DomainError(f"K_{m:g} at |z| = {z:.3g} (the smallest r and lambda) leaves "
                          f"the double range at nu = {nu}; lower nu")


def f_nu(n: int, nu: int, r: float, lam: float) -> complex:
    """Radial parametrix kernel
    F_nu = c_nu r^{1+nu-n/2} (sqrt z)^{n/2-nu-1} K_{n/2-nu-1}(sqrt(z) r)."""
    _check_kernel(n, nu, (r,), (lam,))
    w = complex(1.0, -lam)  # sqrt(z) for z = -(lambda+i)^2, Re > 0
    order = n / 2.0 - nu - 1.0
    return c_nu(n, nu) * r ** (-n / 2.0 + nu + 1.0) * w ** order \
        * bessel_k(order, w * r)


def f0_closed_form_3d(r: float, lam: float) -> complex:
    """n=3 oracle: F_0(r, lambda) = e^{i (lambda + i) r} / (4 pi r)."""
    return np.exp(1j * (lam + 1j) * r) / (4.0 * math.pi * r)


def recursion_residual(n: int, lam: float) -> float:
    """Max relative residual of (-Delta_radial - (lambda+i)^2) F_1 = F_0 over
    19 radii in [0.1, 1].

    The radial Laplacian f'' + (n-1)/r f' is applied by central finite
    differences; the step is tied to the oscillation scale 1/lambda.
    """
    h = 1e-4 / max(1.0, lam / 5.0)
    zsq = complex(lam, 1.0) ** 2
    worst = 0.0
    for r in np.linspace(0.1, 1.0, 19):
        fm, f0v, fp = (f_nu(n, 1, r + s, lam) for s in (-h, 0.0, h))
        d2 = (fp - 2.0 * f0v + fm) / h ** 2
        d1 = (fp - fm) / (2.0 * h)
        lhs = -(d2 + (n - 1) / r * d1) - zsq * f0v
        rhs = f_nu(n, 0, r, lam)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def kernel_table(n: int, nu: int, rs, lams):
    """(r, lambda, Re F, Im F) rows over the grid lams x rs."""
    rows = []
    for lam in lams:
        for r in rs:
            val = f_nu(n, nu, float(r), float(lam))
            rows.append([float(r), float(lam), val.real, val.imag])
    return rows


# ---------------------------------------------------------------------------
# the n=2 L^6 kernel bound


def t_lambda_model(lam: float, d):
    """Two-regime flat model of |T_lambda| in n=2: |log(lam d / 2)| inside
    d <= 1/lam, matched to log(2) (lam d)^{-1/2} outside."""
    d = np.asarray(d, dtype=float)
    u = lam * d
    inner = np.abs(np.log(np.maximum(u, 1e-300) / 2.0))
    outer = math.log(2.0) / np.sqrt(np.maximum(u, 1e-300))
    return np.where(u <= 1.0, inner, outer)


def kernel_l6_value(lam: float, delta: float) -> float:
    """(int_{d <= delta} |T_lambda|^6 dx)^{1/6} by log-graded radial quadrature."""
    s, w = geometry._panel_gauss(math.log(delta) - 30.0, math.log(delta), 40, 8)
    d = np.exp(s)
    wd = w * d
    integrand = t_lambda_model(lam, d) ** 6 * 2.0 * math.pi * d
    return float(np.sum(wd * integrand)) ** (1.0 / 6.0)


def kernel_report(n: int, nu: int, rs, lams, l6_lams) -> estimators.ExperimentReport:
    """F_nu(r, lambda) over the grid lams x rs; verdict: the recursion
    residual at the middle lambda at most 1e-4, the n = 3, nu = 0 closed-form
    error at most 1e-8, and, given 4 or more ``l6_lams``, the L^6 check."""
    _check_kernel(n, nu, rs, lams)
    rows = kernel_table(n, nu, rs, lams)
    summary = {}
    lam_mid = float(sorted(lams)[len(lams) // 2])
    summary["recursion_residual"] = recursion_residual(n, lam_mid)
    ok = summary["recursion_residual"] <= 1e-4
    if n == 3 and nu == 0:
        err = max(abs(f_nu(3, 0, r, lam) - f0_closed_form_3d(r, lam))
                  / abs(f0_closed_form_3d(r, lam))
                  for lam in lams for r in rs)
        summary["closed_form_max_rel_error"] = float(err)
        ok = ok and err <= 1e-8
    if len(l6_lams) >= 4:
        l6 = kernel_l6_check(l6_lams)
        summary["l6_slope"] = l6.summary["slope"]
        summary["l6_verdict"] = l6.verdict
        ok = ok and l6.verdict == "pass"
    summary["verdict"] = "pass" if ok else "fail"
    return estimators.ExperimentReport(columns=["r", "lambda", "re_f", "im_f"],
                                       rows=rows, summary=summary)


def kernel_l6_check(lams) -> estimators.ExperimentReport:
    """Slope of the L^6 kernel norm on the ball d <= 1/2 against lambda;
    verdict: within 0.05 of -1/3."""
    lams = np.asarray(lams, dtype=float)
    if lams.size < 4:
        raise ConfigError("need at least 4 lambda points")
    rows = [[lam, kernel_l6_value(lam, _L6_DELTA)] for lam in lams]
    return estimators.slope_report(["lambda", "l6_norm"], rows, lams, [r[1] for r in rows],
                                   -1.0 / 3.0, 0.05, delta=_L6_DELTA)

