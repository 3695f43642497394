"""Growth exponents and norm probes: sigma(p), the critical exponent p_c,
Bochner-Riesz indices, quasimode ratios, spectral-projector operator norms,
log-log exponent fitting, local Weyl sums, the divergent quasimode sum, and
the uniform torus resolvent probe.

Operator-norm probes report lower bounds (from deterministic test-function
ascent) together with interpolation upper bounds; the scientifically
meaningful output is the growth trend over a frequency grid, not a claimed
supremum.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import geometry, operator_core
from .errors import ConfigError, DomainError, ResolutionError

def _sibling_file(path: str) -> tuple[int, str]:
    """Create a new hidden file next to ``path``, open for writing, with the
    mode a plain ``open`` would give it under the umask."""
    head, tail = os.path.split(path)
    while True:
        tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}")
        try:
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
        except FileExistsError:
            continue


def atomic_write_text(path: str, text: str) -> None:
    """Write a whole file via a sibling temp file and rename, so interrupted
    runs never leave a half-written result behind."""
    fd, tmp = _sibling_file(os.path.abspath(path))
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# exponent algebra


def sigma(p: float, n: int) -> float:
    """Sharp eigenfunction-growth exponent; kink exactly at p_critical(n)."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    if p < 2:
        raise DomainError("sigma is defined for p in [2, infinity]")
    if math.isinf(p):
        return max(n / 2.0 - 0.5, (n - 1) / 4.0)
    # single-quotient forms keep the kink identity sigma(p_c) = 1/p_c
    # bit-exact whenever p_c is itself representable
    return max((n * (p - 2.0) - p) / (2.0 * p),
               (n - 1.0) * (p - 2.0) / (4.0 * p))


def p_critical(n: int) -> float:
    if n < 2:
        raise DomainError("dimension must be >= 2")
    return 2.0 * (n + 1) / (n - 1)


def br_delta(p: float, n: int) -> float:
    """Critical Bochner-Riesz index max(n|1/2 - 1/p| - 1/2, 0)."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    if p < 1:
        raise DomainError("p must be at least 1")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    return max(n * abs(0.5 - inv_p) - 0.5, 0.0)


# ---------------------------------------------------------------------------
# log-log fitting and the generic report container


@dataclass
class PowerFit:
    slope: float
    intercept: float
    residual: float  # RMS deviation in log space


def _check_fit_points(lams, values=(1.0,)) -> None:
    """The points ``fit_exponent`` accepts: 4 or more at two or more finite
    abscissae, all positive."""
    lams = np.asarray(lams, dtype=float)
    if lams.size < 4:
        raise DomainError("need at least 4 points for an exponent fit")
    if np.min(lams) == np.max(lams):
        raise DomainError("exponent fits need two distinct abscissae")
    if not np.all(np.isfinite(lams) & (lams > 0)) or np.any(np.asarray(values) <= 0):
        raise DomainError("exponent fits need finite positive abscissae and positive values")


def fit_exponent(lams, values) -> PowerFit:
    """Least-squares slope of log(value) against log(lambda)."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_fit_points(lams, values)
    x, y = np.log(lams), np.log(values)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return PowerFit(slope=float(slope), intercept=float(intercept), residual=resid)


@dataclass
class ExperimentReport:
    """Uniform result container: a table plus a fit/verdict summary.

    ``summary`` carries slope, target, tolerance, verdict and whatever else
    the experiment resolved; the caller of ``write_json`` adds its own echo
    of the inputs.
    """

    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def verdict(self):
        return self.summary.get("verdict")

    def write_csv(self, path: str) -> None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([repr(float(v)) if isinstance(v, (int, float, np.floating))
                             else str(v) for v in row])
        atomic_write_text(path, buf.getvalue())

    def write_json(self, path: str, **echo) -> None:
        payload = {"columns": self.columns, "rows": self.rows,
                   "summary": self.summary, **echo}
        atomic_write_text(
            path, json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n")


_RESIDUAL_CAP = 0.5  # RMS log-space fit residual above which no verdict is given


def slope_report(columns, rows, x, y, target: float, tol: float,
                 **summary) -> ExperimentReport:
    """The report of a slope verdict, the one rule of every fitted exponent:
    fit log y against log x and pass iff |slope - target| <= tol, or give
    "no-verdict" with its reason when the fit residual reaches ``_RESIDUAL_CAP``.
    The summary holds the fit, the rule and the experiment's ``summary`` keys."""
    fit = fit_exponent(x, y)
    verdict = {"verdict": "pass" if abs(fit.slope - target) <= tol else "fail"}
    if not fit.residual < _RESIDUAL_CAP:
        verdict = {"verdict": "no-verdict", "reason": "fit residual above cap"}
    return ExperimentReport(
        columns=columns, rows=rows,
        summary={"slope": fit.slope, "intercept": fit.intercept, "residual": fit.residual,
                 "target": target, "tolerance": tol, "residual_cap": _RESIDUAL_CAP,
                 **verdict, **summary})


# ---------------------------------------------------------------------------
# quasimode ratio


def _check_lambda(lam: float) -> None:
    if lam < 1:
        raise DomainError("lambda must be at least 1")


def quasimode_ratio(decomp: operator_core.SpectralDecomposition, u: np.ndarray,
                    lam: float, p: float) -> float:
    """||u||_p / (lam^{sigma-1} ||(H - (lam+i)^2) u||_2 + lam^sigma ||u||_2).

    The operator acts spectrally on the Galerkin projection of u, with the
    complex spectral parameter (lam + i)^2; the ratio is scale invariant.
    On a sphere the sup norm (p = inf) includes the two poles.
    """
    _check_lambda(lam)
    basis = decomp.basis
    n = basis.grid.manifold.n
    c = decomp.project(np.asarray(u, dtype=float))
    norm2 = float(np.sqrt(np.sum(c ** 2)))
    if norm2 == 0.0:
        raise DomainError("quasimode ratio of the zero function")
    z = (lam + 1j) ** 2
    resid = float(np.sqrt(np.sum(np.abs(decomp.eigenvalues - z) ** 2 * c ** 2)))
    norm_p = float(geometry.lp_norm(basis.grid, decomp.synthesize(c), p))
    if math.isinf(p) and basis.manifold.kind != geometry.TORUS:
        pole = decomp.synthesize(c, basis.pole_values)
        norm_p = max(norm_p, float(np.max(np.abs(pole))))
    s = sigma(p, n)
    return norm_p / (lam ** (s - 1.0) * resid + lam ** s * norm2)


def _quasimode_modes(freq: np.ndarray, lams) -> list:
    """Index of the frequency nearest each lambda, the eigenfunction a
    quasimode row reads; each of these frequencies must be at least 1."""
    if len(lams) == 0:
        raise DomainError("need at least one lambda")
    modes = [int(np.argmin(np.abs(freq - lam))) for lam in lams]
    for i in modes:
        _check_lambda(freq[i])
    return modes


def quasimode_report(decomp: operator_core.SpectralDecomposition, p: float,
                     lams) -> ExperimentReport:
    """Quasimode ratios of the eigenfunction nearest each lambda; verdict
    `ok`, with the smallest and largest ratio in the summary."""
    rows = []
    for lam, i in zip(lams, _quasimode_modes(decomp.frequencies, lams)):
        lam_used = float(decomp.frequencies[i])
        u = decomp.node_values()[:, i]
        ratio = quasimode_ratio(decomp, u, lam_used, p)
        rows.append([float(lam), lam_used, float(ratio)])
    ratios = [r[2] for r in rows]
    return ExperimentReport(
        columns=["lambda_requested", "lambda_used", "ratio"], rows=rows,
        summary={"p": p, "max_ratio": max(ratios), "min_ratio": min(ratios),
                 "verdict": "ok"})


# ---------------------------------------------------------------------------
# projector operator norms


@dataclass
class ProjectorNormResult:
    lower: float
    upper: float
    p: float
    rank: int
    stagnation: bool = False


# p-norm power method: starts per band, iterations per start, and the
# relative gain below which a start counts as converged
_ASCENT_RESTARTS = 8
_ASCENT_MAX_ITER = 400
_ASCENT_TOL = 1e-6


def _ascent_starts(num_modes: int) -> list:
    """Deterministic initial coefficient vectors on the unit sphere."""
    starts = [np.full(num_modes, 1.0 / math.sqrt(num_modes))]
    alt = np.ones(num_modes)
    alt[1::2] = -1.0
    starts.append(alt / np.sqrt(num_modes))
    for j in range(min(2, num_modes)):
        e = np.zeros(num_modes)
        e[j] = 1.0
        starts.append(e)
    rng = np.random.default_rng(20240801)
    while len(starts) < _ASCENT_RESTARTS:
        v = rng.standard_normal(num_modes)
        starts.append(v / np.linalg.norm(v))
    return starts[:_ASCENT_RESTARTS]


def _band(freq: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the frequencies in (lo, hi]; raises DomainError if none."""
    idx = operator_core.band_indices(freq, lo, hi)
    if idx.size == 0:
        raise DomainError(f"no eigenvalues with frequency in ({lo}, {hi}]")
    return idx


def projector_norm(decomp: operator_core.SpectralDecomposition, lo: float, hi: float,
                   p: float) -> ProjectorNormResult:
    """L^2 -> L^p norm of the spectral projector onto frequencies in (lo, hi].

    p = 2 is exactly 1; p = infinity is exact on the grid (pointwise l2 norm
    of the band eigenfunction vector); intermediate p on a rank-one band is
    the closed form ||e||_p, and on a band of rank >= 2 runs the p-norm power
    method c <- grad ||Uc||_p^p / |grad| over unit coefficient vectors from
    deterministic restarts.  The result carries a Riesz-Thorin
    interpolation upper bound.
    """
    if p < 2:
        raise DomainError("projector norms are probed for p in [2, infinity]")
    idx = _band(decomp.frequencies, lo, hi)
    U = decomp.node_values()[:, idx]
    grid = decomp.basis.grid
    sup_line = float(np.max(np.sqrt(np.sum(U ** 2, axis=1))))
    if grid.manifold.kind != geometry.TORUS:
        # zonal (m = 0) eigenfunctions peak at the poles, which quadrature
        # grids exclude; include them in the sup explicitly
        pole_vals = decomp.values_at(decomp.basis.pole_values, idx)
        sup_line = max(sup_line, float(np.max(np.sqrt(np.sum(pole_vals ** 2, axis=1)))))
    if math.isinf(p):
        return ProjectorNormResult(lower=sup_line, upper=sup_line, p=p, rank=int(idx.size))
    if p == 2:
        return ProjectorNormResult(lower=1.0, upper=1.0, p=p, rank=int(idx.size))
    theta = 1.0 - 2.0 / p
    upper = sup_line ** theta  # ||P||_{2->2} = 1 interpolated against 2->inf
    if idx.size == 1:
        # the unit vectors of a rank-one band are +-1 and both give ||U 1||_p;
        # the ascent ends there at its first step from every start
        return ProjectorNormResult(lower=min(geometry.lp_norm(grid, U[:, 0], p), upper),
                                   upper=upper, p=p, rank=1)
    w = grid.weights
    best = 0.0
    all_stagnated = True
    for c in _ascent_starts(idx.size):
        g = U @ c
        val = geometry.lp_norm(grid, g, p)
        for _ in range(_ASCENT_MAX_ITER):
            # gradient of ||Uc||_p^p up to the constant p; by convexity the
            # normalized gradient never lowers it
            grad = U.T @ (w * np.abs(g) ** (p - 1) * np.sign(g))
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            c = grad / gnorm
            g = U @ c
            prev, val = val, geometry.lp_norm(grid, g, p)
            if val - prev < _ASCENT_TOL * val:
                all_stagnated = False  # stationary within tolerance
                break
        best = max(best, val)
    return ProjectorNormResult(lower=min(best, upper), upper=upper, p=p,
                               rank=int(idx.size), stagnation=all_stagnated)


def _projector_lams(freq: np.ndarray, lams, width: float) -> list:
    """The lambdas whose band (lambda, lambda + width] holds a frequency."""
    used = [lam for lam in lams if operator_core.band_indices(freq, lam, lam + width).size]
    if len(used) < 4:
        raise ResolutionError("fewer than 4 nonempty bands; increase K or widen bands")
    return used


def projector_growth_report(decomp: operator_core.SpectralDecomposition, p: float,
                            lams, width: float = 1.0) -> ExperimentReport:
    """Fit the growth of ||chi_lambda||_{2->p} over a frequency grid; verdict:
    slope within 0.1 of sigma(p)."""
    n = decomp.basis.grid.manifold.n
    used_lams = _projector_lams(decomp.frequencies, lams, width)
    norms = [projector_norm(decomp, lam, lam + width, p) for lam in used_lams]
    rows = [[lam, res.lower, res.upper, res.rank, int(res.stagnation)]
            for lam, res in zip(used_lams, norms)]
    return slope_report(["lambda", "norm_lower", "norm_upper", "rank", "stagnation"],
                        rows, used_lams, [r[1] for r in rows], sigma(p, n), 0.1, p=p)


# ---------------------------------------------------------------------------
# local Weyl sums


def _check_weyl(mus, top: float, least: float = -math.inf) -> None:
    """At least one mu, none below ``least`` or above the top frequency ``top``."""
    if len(mus) == 0:
        raise DomainError("local Weyl sums need at least one mu")
    if min(mus) < least:
        raise DomainError(f"local Weyl ratios need mu >= {least:g}")
    if max(mus) > top:
        raise ResolutionError(f"mu={max(mus)} exceeds the truncation frequency {top:.3f}")


def local_weyl(decomp: operator_core.SpectralDecomposition, point, mus) -> list:
    """Partial sums of |e_j(x0)|^2 over frequencies <= mu, one per mu; the
    point is evaluated once for all of them."""
    freqs = decomp.frequencies
    basis = decomp.basis
    geometry._require_zonal(basis.manifold.kind, "the local Weyl sum")
    _check_weyl(mus, float(freqs[-1]))
    e0 = decomp.values_at(basis.evaluate(np.atleast_1d(np.asarray(point, dtype=float))))
    sq = e0 ** 2
    return [float(np.sum(sq[..., freqs <= mu])) for mu in mus]


def weyl_constant(n: int) -> float:
    """Leading coefficient of the local Weyl law: vol(B^n) / (2 pi)^n."""
    ball = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    return ball / (2.0 * math.pi) ** n


def local_weyl_report(decomp: operator_core.SpectralDecomposition, point,
                      mus) -> ExperimentReport:
    """Local Weyl sums against c_n mu^n, for mu >= 1; verdict: every ratio in
    [0.9, 1.1]."""
    _check_weyl(mus, float(decomp.frequencies[-1]), least=1.0)
    n = decomp.basis.grid.manifold.n
    c_n = weyl_constant(n)
    rows = []
    ratios = []
    for mu, s in zip(mus, local_weyl(decomp, point, mus)):
        ratio = s / (c_n * mu ** n)
        rows.append([mu, s, ratio])
        ratios.append(ratio)
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    return ExperimentReport(columns=["mu", "partial_sum", "ratio"], rows=rows,
                            summary={"ratio_min": min(ratios), "ratio_max": max(ratios),
                                     "band": [0.9, 1.1],
                                     "verdict": "pass" if ok else "fail"})


# ---------------------------------------------------------------------------
# divergent quasimode (zonal S^n dimension counts)


def harmonic_dimension(n: int, l: int):
    """dim of the degree-l spherical-harmonic space on S^n."""
    if l == 0:
        return 1
    return (2 * l + n - 1) * math.comb(l + n - 2, n - 2) // (n - 1)


_MIN_GROWTH = 0.6  # partial-sum growth the divergent ladder must exceed


def _check_divergent(n: int, eps: float, k_min: int, k_max: int) -> None:
    if n < 4:
        raise DomainError("the construction diverges only for n >= 4")
    if not 0.0 < eps < 0.5:
        raise DomainError("eps must lie in (0, 1/2)")
    if k_min < 1 or k_max <= k_min:
        raise DomainError("need 1 <= k_min < k_max")


def divergent_quasimode(n: int, eps: float, k_min: int = 4,
                        k_max: int = 14) -> ExperimentReport:
    """Partial sums of the pointwise-divergent quasimode correction at x0,
    with lam = 2^k_min.

    u_lam = e_lam + sum_{2^k >= lam} 2^{-(n/2+2)k} k^{-1/2-eps} beta(P/2^k)(x, x0)
    evaluated at x = x0 through exact dimension counts: beta(P/2^k)(x0,x0) =
    sum_l beta(lam_l / 2^k) dim(H_l) / vol(S^n).  Diverges for n >= 4; the
    companion L^2 diagnostics confirm the tail stays small in norm.

    Rows are (k, term, partial sum).  The summary's ``normalization``,
    lam^{-1} ||(-Delta - (lam+i)^2)(u - e_lam)||_2 + ||u||_2, uses the
    residual of the tail u - e_lam: the sharp eigenfunction term contributes
    |1 - 2 i lam| / lam ~ 2 to the full residual by construction, which is
    recorded separately as ``normalization_full``.  Verdict: growth above
    ``_MIN_GROWTH`` and normalization in [0.5, 2].
    """
    _check_divergent(n, eps, k_min, k_max)
    vol = geometry.sphere_volume(n)
    l_max = 2 ** (k_max + 1) + 8
    ls = np.arange(l_max + 1)
    dims = np.fromiter((harmonic_dimension(n, l) for l in range(l_max + 1)),
                       dtype=float, count=l_max + 1)
    freqs = np.sqrt(ls * (ls + n - 1.0))
    lam = float(2 ** k_min)
    ks = np.arange(k_min, k_max + 1)
    amps = 2.0 ** (-(n / 2.0 + 2.0) * ks) * ks ** (-0.5 - eps)
    # row k is the bump beta(freqs / 2^k), written only on its support
    # 2^(k-1) < freq < 2^(k+1): lp_profile is exactly +0.0 elsewhere
    beta_lk = np.zeros((ks.size, freqs.size))
    for row, k in zip(beta_lk, ks):
        lo, hi = np.searchsorted(freqs, [2.0 ** (k - 1), 2.0 ** (k + 1)], side="right")
        row[lo:hi] = operator_core.lp_profile(freqs[lo:hi] / 2.0 ** k)
    terms = amps * (beta_lk @ dims) / vol
    partial = np.cumsum(terms)
    growth = float(partial[-1] / partial[0] - 1.0)
    # tail g = u - e_lam: coefficient g_l in the orthonormal zonal-kernel
    # basis z_l = Z_l / ||Z_l||_2, with ||Z_l||_2^2 = dim_l / vol
    w_l = amps @ beta_lk
    g_l = w_l * np.sqrt(dims / vol)
    tail_l2 = float(np.sqrt(np.sum(g_l ** 2)))
    # e_lam = z_{l*} at the degree with frequency closest to lam
    l_star = int(np.argmin(np.abs(freqs - lam)))
    lam_star = float(freqs[l_star])
    z = (lam_star + 1j) ** 2
    gaps = np.abs(freqs ** 2 - z)
    resid_tail = float(np.sqrt(np.sum(gaps ** 2 * g_l ** 2)))
    u_l = g_l.copy()
    u_l[l_star] += 1.0
    u_norm = float(np.sqrt(np.sum(u_l ** 2)))
    resid_full = float(np.sqrt(np.sum(gaps ** 2 * u_l ** 2)))
    normalization = resid_tail / lam_star + u_norm
    rows = [[int(k), float(t), float(s)] for k, t, s in zip(ks, terms, partial)]
    ok = growth > _MIN_GROWTH and 0.5 <= normalization <= 2.0
    return ExperimentReport(
        columns=["k", "term", "partial_sum"], rows=rows,
        summary={"growth": growth, "tail_l2": tail_l2, "normalization": normalization,
                 "normalization_full": resid_full / lam_star + u_norm,
                 "lam": lam_star, "min_growth": _MIN_GROWTH,
                 "verdict": "pass" if ok else "fail"})


# ---------------------------------------------------------------------------
# uniform resolvent probe on the torus


def sobolev_dual_pair(n: int) -> tuple[float, float]:
    """The unique dual pair (p, p') with n (1/p - 1/p') = 2 and 1/p + 1/p' = 1."""
    if n < 3:
        raise DomainError("the uniform resolvent pair needs n >= 3")
    return 2.0 * n / (n + 2.0), 2.0 * n / (n - 2.0)


def _resolvent_grid(lams) -> int:  # points per axis of the (even) DFT grid
    return max(32, 2 * int(max(lams) + 4))


def _half_axis_folds(N: int) -> np.ndarray:
    """f_k for k = 0..N/2 of an even N: how many of the indices k, N - k of
    the full axis the half-axis index k stands for (1 at 0 and N/2, else 2)."""
    folds = np.full(N // 2 + 1, 2.0)
    folds[0] = folds[-1] = 1.0
    return folds


def _even_inverse_dft(spectrum: np.ndarray, N: int) -> np.ndarray:
    """The inverse DFT on N^n points of a spectrum even in every coordinate,
    given and returned on the half cube {0..N/2}^n.

    Folding the k and N - k terms of each axis turns the DFT into the cosine
    matrix C[x, k] = f_k cos(2 pi k x / N) / N, applied along every axis.
    """
    k = np.arange(N // 2 + 1)
    cos = _half_axis_folds(N) * np.cos(2.0 * math.pi * (np.outer(k, k) % N) / N) / N
    g = spectrum
    for _ in range(g.ndim):  # contract the leading axis; n passes restore the order
        g = np.tensordot(g, cos, axes=([0], [1]))
    return g


def _folded_sum(a: np.ndarray, folds: np.ndarray) -> float:
    """Sum over the full grid of an even function given on the half cube."""
    for _ in range(a.ndim):
        a = a @ folds
    return float(a)


def uniform_resolvent_probe(n: int, lams) -> ExperimentReport:
    """Lower bounds on ||(-Delta - (lam+i)^2)^{-1}||_{L^p -> L^p'} on T^n.

    The resolvent is diagonal in the Fourier basis and, like both test
    functions, depends on |k|^2 alone, so every spectrum and function here
    is even in each coordinate.  The inverse DFT on a uniform grid of N =
    max(32, 2 (max lams + 4)) points per axis is therefore taken as a cosine
    transform on the half cube {0..N/2}^n, and each L^q sum weights a point
    by the number of grid points it stands for.  Test battery: a
    point-concentrated function and a shell-concentrated function per
    lambda.  Verdict: fitted slope of the probed norm against lambda within
    0.15 of 0.
    """
    lams = np.asarray(lams, dtype=float)
    if lams.size < 4:
        raise ConfigError("need at least 4 lambda points")
    p_star, p_dual = sobolev_dual_pair(n)
    N = _resolvent_grid(lams)
    half = np.arange(N // 2 + 1, dtype=float)
    ksq = sum(np.meshgrid(*([half ** 2] * n), indexing="ij", sparse=True))
    folds = _half_axis_folds(N)
    cell = (2.0 * math.pi / N) ** n

    def norm(f, q):
        return (_folded_sum(np.abs(f) ** q, folds) * cell) ** (1.0 / q)

    # the point-concentrated test function (a unit mass at the origin, whose
    # DFT is identically 1) has L^p norm cell^{1/p} exactly
    fp_pt = cell ** (1.0 / p_star)
    rows = []
    for lam in lams:
        mult = 1.0 / (ksq - (lam + 1j) ** 2)
        lower = max(0.0, norm(_even_inverse_dft(mult, N), p_dual) / fp_pt)
        # shell-concentrated test function: Fourier mass on ||m| - lam| <= 1
        shell = (np.abs(np.sqrt(ksq) - lam) <= 1.0).astype(float)
        fp_sh = norm(_even_inverse_dft(shell, N), p_star)
        if fp_sh > 0:
            mult *= shell
            lower = max(lower, norm(_even_inverse_dft(mult, N), p_dual) / fp_sh)
        rows.append([float(lam), lower])
    return slope_report(["lambda", "norm_lower"], rows, lams, [r[1] for r in rows],
                        0.0, 0.15, p=p_star, p_prime=p_dual, grid_size=N)
