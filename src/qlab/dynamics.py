"""Functional calculus in motion: heat semigroup, wave propagators and the
finite-propagation-speed diagnostic, Bochner-Riesz means, the Hörmander
symbol check, the Littlewood-Paley square function, and Strichartz ratios.

Everything acts through a SpectralDecomposition, so all operators here are
finite-rank multipliers m(sqrt(H_V)); probes report lower bounds and growth
trends over frequency grids, never claimed suprema.
"""

from __future__ import annotations

import math

import numpy as np

from . import estimators, geometry, operator_core
from .errors import ConfigError, DomainError, ResolutionError

# ---------------------------------------------------------------------------
# heat semigroup


def heat_report(decomp: operator_core.SpectralDecomposition,
                ts) -> estimators.ExperimentReport:
    """Fit against t of the sup over the grid, and the poles of a sphere, of
    the on-diagonal heat kernel sum_i e^{-t mu_i} v_i(x)^2; the squared values
    are formed once for all t.  Verdict: slope within 0.1 of -n/2."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts <= 0):
        raise DomainError("heat time must be positive")
    n = decomp.basis.grid.manifold.n
    values = decomp.node_values() ** 2
    pole = None
    if decomp.basis.grid.manifold.kind != geometry.TORUS:
        pole = decomp.values_at(decomp.basis.pole_values) ** 2
    rows = []
    for t in ts:
        decay = np.exp(-t * decomp.eigenvalues)
        sup = float(np.max(values @ decay))
        if pole is not None:
            sup = max(sup, float(np.max(pole @ decay)))
        rows.append([t, sup])
    return estimators.slope_report(["t", "kernel_sup"], rows, ts, [r[1] for r in rows],
                                   -n / 2.0, 0.1, shift=decomp.shift)


# ---------------------------------------------------------------------------
# wave propagators


def _wave_coefficients(freq, c0, c1, t):
    """cos(t freq) c0 + sin(t freq)/freq c1, with the limit t c1 at freq = 0."""
    sinc = np.where(freq > 0, np.sin(t * freq) / np.where(freq > 0, freq, 1.0), t)
    return np.cos(t * freq) * c0 + sinc * c1


def _check_leakage(t: float, cutoff: float, lam_max: float) -> None:
    """|t| within pi/2 and, for t != 0, a mollifier scale ``cutoff`` that a
    truncation with top frequency ``lam_max`` resolves."""
    if abs(t) > math.pi / 2:
        raise DomainError("|t| must stay within the injectivity scale pi/2")
    if t != 0.0 and (cutoff <= 0 or 4.0 / cutoff > math.pi / 4 or cutoff > lam_max):
        raise ResolutionError("truncation too small for the mollifier scale; "
                              "increase K")


def cone_leakage(decomp: operator_core.SpectralDecomposition, t: float,
                 cutoff: float | None = None) -> float:
    """L^2 kernel-mass fraction of the mollified cosine propagator outside
    the light cone {d_g <= |t| + margin} on the zonal sector.

    The Gaussian frequency mollifier e^{-(lambda/cutoff)^2} (default cutoff
    lambda_max / 4) suppresses Gibbs oscillation of the sharp kernel; the
    cone margin 4/cutoff absorbs the mollifier width.  For zonal modes the
    rotation-orbit distance between polar angles is |phi_x - phi_y|.
    """
    grid = decomp.basis.grid
    geometry._require_zonal(grid.manifold.kind, "cone leakage")
    lam_max = float(decomp.frequencies[-1])
    if cutoff is None:
        cutoff = lam_max / 4.0
    _check_leakage(t, cutoff, lam_max)
    if t == 0.0:
        return 0.0
    margin = 4.0 / cutoff
    kernel = operator_core.multiplier_kernel(
        decomp, lambda fr: np.cos(t * fr) * np.exp(-(fr / cutoff) ** 2))
    phi = grid.nodes
    w = grid.weights
    # the kernel is squared in place, and its buffer, free once mass exists,
    # then takes the distances |phi_i - phi_j|; it is dropped before the copy
    # of the mass outside the cone is made
    np.square(kernel, out=kernel)
    mass = np.multiply.outer(w, w)
    mass *= kernel
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    dist = np.subtract.outer(phi, phi, out=kernel)
    outside = np.abs(dist, out=dist) > abs(t) + margin
    del kernel, dist
    return float(np.sum(mass[outside]) / total)


def cone_leakage_trend(n: int, t: float, Ks, V=None) -> estimators.ExperimentReport:
    """cone_leakage across truncations at a fixed mollifier scale; verdict:
    monotone decreasing and below 1e-3 at the largest K.

    The mollifier scale lambda_max(K_max)/4 is held fixed across the K
    sweep, so growing the truncation converges to one and the same mollified
    propagator and the leakage trend is a genuine truncation convergence
    (rescaling the mollifier with K would be scale invariant)."""
    Ks = sorted(int(K) for K in Ks)
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, n)
    top = operator_core.solve(V, manifold, Ks[-1])  # first, for the cutoff
    cutoff = float(top.frequencies[-1]) / 4.0
    last = cone_leakage(top, t, cutoff=cutoff)
    del top  # one decomposition is held at a time
    leaks = [cone_leakage(operator_core.solve(V, manifold, K), t, cutoff=cutoff)
             for K in Ks[:-1]] + [last]
    rows = [[K, leak] for K, leak in zip(Ks, leaks)]
    monotone = all(leaks[i + 1] < leaks[i] for i in range(len(leaks) - 1))
    ok = monotone and leaks[-1] < 1e-3
    return estimators.ExperimentReport(
        columns=["K", "leakage"], rows=rows,
        summary={"monotone_decreasing": monotone, "final_leakage": leaks[-1],
                 "threshold": 1e-3, "cutoff": cutoff,
                 "verdict": "pass" if ok else "fail"})


# ---------------------------------------------------------------------------
# Bochner-Riesz


def bochner_riesz(lam: float, delta: float):
    """Symbol of S_lambda^delta: (1 - (s/lam)^2)^delta on s <= lam, 0 beyond."""
    if delta < 0:
        raise DomainError("Bochner-Riesz index must be nonnegative")
    if lam <= 0:
        raise DomainError("lambda must be positive")

    def fn(fr):
        fr = np.asarray(fr, dtype=float)
        inside = fr <= lam
        out = np.zeros_like(fr)
        if delta == 0.0:
            out[inside] = 1.0
        else:
            out[inside] = (1.0 - (fr[inside] / lam) ** 2) ** delta
        return out

    return fn


def br_l1_row_norm(decomp: operator_core.SpectralDecomposition, lam: float,
                   delta: float) -> float:
    """Exact L^1 norm of the kernel row at the pole: int |K(x, pole)| dx.

    For zonal kernels of functions of the Laplacian this row norm equals the
    L^1 -> L^1 operator norm on the full sphere (the kernel is a function of
    geodesic distance, so all rows integrate identically).
    """
    geometry._require_zonal(decomp.basis.manifold.kind, "the Bochner-Riesz row norm")
    weights = bochner_riesz(lam, delta)(decomp.frequencies)
    pole = decomp.values_at(decomp.basis.pole_values[:1])[0]
    row = decomp.node_values() @ (weights * pole)
    return float(decomp.basis.grid.integrate(np.abs(row)))


def br_norm_probe(decomp: operator_core.SpectralDecomposition, delta: float,
                  lams) -> estimators.ExperimentReport:
    """L^1 operator-norm growth of S_lambda^delta over a lambda grid;
    verdict: fitted slope within 0.15 of 0, the bound above the critical
    index.  A delta below it grows and fails (the negative control)."""
    lams = np.asarray(lams, dtype=float)
    rows = [[lam, br_l1_row_norm(decomp, lam, delta)] for lam in lams]
    return estimators.slope_report(["lambda", "l1_norm"], rows, lams, [r[1] for r in rows],
                                   0.0, 0.15, delta=delta)


# ---------------------------------------------------------------------------
# Littlewood-Paley square function


def default_lp_family(lam_max: float):
    """Dyadic partition beta_0, ..., beta_J covering [0, lam_max]."""
    J = max(1, int(math.ceil(math.log2(max(lam_max, 2.0)))) + 1)
    return [(lambda fr, j=j: operator_core.lp_beta(j, fr)) for j in range(J + 1)]


_PARTITION_TOL = 1e-8  # allowed deviation of sum_j beta_j from 1 on the spectrum


def square_function(decomp: operator_core.SpectralDecomposition, f: np.ndarray,
                    family=None) -> np.ndarray:
    """Sf = (sum_j |beta_j(sqrt(H_V)) f|^2)^{1/2} on the grid, for one grid
    function or a column stack of them (one Sf column each).  The symbols and
    their partition check are built once per call."""
    freq = decomp.frequencies
    if family is None:
        family = default_lp_family(float(freq[-1]))
    # one symbol column per piece
    symbols = np.column_stack([np.asarray(beta(freq), dtype=float) for beta in family])
    total = np.sum(symbols, axis=1)
    if float(np.max(np.abs(total - 1.0))) > _PARTITION_TOL:
        raise ConfigError("beta family is not a partition of unity on the "
                          f"spectrum (max deviation {np.max(np.abs(total - 1.0)):.2e})")
    U = decomp.node_values()
    F = np.asarray(f, dtype=float)
    cols = F.T if F.ndim == 2 else [F]
    # every (column, piece) pair is one right-hand side, each column's pieces
    # side by side, so all columns come from one GEMM and each Sf sums its
    # pieces along a contiguous axis
    rhs = np.concatenate([symbols * decomp.project(g)[:, None] for g in cols], axis=1)
    pieces = (U @ rhs).reshape(U.shape[0], len(cols), symbols.shape[1])
    sf = np.sqrt(np.sum(pieces ** 2, axis=-1))
    return sf if F.ndim == 2 else sf[:, 0]


_PRESETS = ("zonal-ladder", "point-concentrated", "random-band")


def _battery_modes(freq: np.ndarray, preset: str) -> list:
    """(label, mode indices) of each function of a battery preset, from the
    frequencies alone; raises ResolutionError when the battery is empty."""
    top = float(freq[-1])
    if preset == "zonal-ladder":
        bands = [(f"ladder-{k}", k / 2.0, k + 0.75) for k in (4, 8, 16, 32) if top >= k]
    elif preset == "point-concentrated":
        bands = [(f"point-{frac}", -np.inf, frac * top) for frac in (0.25, 0.5, 0.9)]
    elif preset == "random-band":
        bands = [(f"band-{j}", lo, hi)
                 for j, (lo, hi) in enumerate(((2, 8), (8, 24), (24, top)))]
    else:
        raise ConfigError(f"unknown battery preset {preset!r}; choose from "
                          + ", ".join(_PRESETS))
    out = []
    for label, lo, hi in bands:
        idx = operator_core.band_indices(freq, lo, hi)
        if preset == "zonal-ladder":
            idx = idx[idx > 0]  # the rungs leave out the constant mode
        if idx.size:
            out.append((label, idx))
    if not out:
        raise ResolutionError(f"battery {preset!r} is empty at this truncation")
    return out


def test_battery(decomp: operator_core.SpectralDecomposition, preset: str,
                 seed: int = 20240801) -> list:
    """Deterministic test-function batteries, by preset name."""
    U = decomp.node_values()
    rng = np.random.default_rng(seed)
    out = []
    for label, idx in _battery_modes(decomp.frequencies, preset):
        if preset == "zonal-ladder":
            out.append((label, U[:, idx].sum(axis=1)))
            continue
        c = np.zeros(decomp.size)
        c[idx] = rng.standard_normal(idx.size) if preset == "random-band" else 1.0
        out.append((label, decomp.synthesize(c)))
    return out


def norm_equivalence_probe(decomp: operator_core.SpectralDecomposition,
                           rs=(4 / 3, 2.0, 4.0),
                           seed: int = 20240801) -> estimators.ExperimentReport:
    """min/max of ||Sf||_r / ||f||_r over all three batteries, per r; ``seed``
    draws the random-band battery."""
    grid = decomp.basis.grid
    pairs = [pair for preset in _PRESETS for pair in test_battery(decomp, preset, seed=seed)]
    sfs = square_function(decomp, np.column_stack([f for _, f in pairs]))
    battery = [(label, f, sf) for (label, f), sf in zip(pairs, sfs.T)]
    rows = []
    summary = {}
    for r in rs:
        ratios = []
        for label, f, sf in battery:
            nf = float(geometry.lp_norm(grid, f, r))
            if nf == 0.0:
                continue
            ratio = float(geometry.lp_norm(grid, sf, r)) / nf
            rows.append([r, label, ratio])
            ratios.append(ratio)
        summary[f"c_{r:g}"] = min(ratios)
        summary[f"C_{r:g}"] = max(ratios)
    two_sided = all(summary[f"c_{r:g}"] > 0.05 and summary[f"C_{r:g}"] < 20.0 for r in rs)
    summary["verdict"] = "pass" if two_sided else "fail"
    return estimators.ExperimentReport(columns=["r", "test_function", "ratio"],
                                       rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# Hörmander multipliers


def _check_sobolev(s: float) -> None:
    if s < 0:
        raise DomainError("Sobolev order must be nonnegative")


def besov_check(m, s: float, lam_max: float = 256.0, samples: int = 4096) -> float:
    """sup over dyadic mu <= lam_max of ||beta(.) m(mu .)||_{H^s(R)}.

    The window beta is the standard bump supported in (1/2, 2); the Sobolev
    norm is computed by FFT on a fine periodic grid that contains the
    support with padding.
    """
    _check_sobolev(s)
    L = 4.0
    xi = np.linspace(0.0, L, samples, endpoint=False)
    window = operator_core.lp_profile(xi)
    best = 0.0
    mu = 1.0
    while mu <= lam_max:
        g = window * np.asarray(m(mu * xi), dtype=complex)
        ghat = np.fft.fft(g) / samples
        om = 2.0 * math.pi * np.fft.fftfreq(samples, d=L / samples)
        norm = math.sqrt(float(np.sum((1.0 + om ** 2) ** s * np.abs(ghat) ** 2) * L))
        best = max(best, norm)
        mu *= 2.0
    return best


# ---------------------------------------------------------------------------
# Strichartz


_TIME_BLOCK = 64


def _time_quadrature(omega: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss panels on [0, 1] for an integrand whose fastest
    oscillation has angular frequency ``omega``: at least 8 nodes per period
    and 32 nodes in all."""
    periods = omega / (2.0 * math.pi)
    needed = max(32.0, 8.0 * periods)
    panels = int(math.ceil(needed / 8.0)) + 1
    return geometry._panel_gauss(0.0, 1.0, panels, 8)


def strichartz_ratio(decomp: operator_core.SpectralDecomposition, c0: np.ndarray,
                     c1: np.ndarray) -> float:
    """||u||_{L^{p_c}([0,1] x M)} of u(t) = cos(tP) f0 + sin(tP)/P f1, given by
    the eigen-coefficients c0 of f0 and c1 of f1, over the shifted-Sobolev
    data norm ||(I+P)^{1/2} f0||_2 + ||(I+P)^{-1/2} f1||_2.  The time sweep
    reads only the modes on the support of (c0, c1); u oscillates at most as
    fast as the largest frequency there, so |u|^{p_c} at p_c times it, which
    sizes the time rule."""
    n = decomp.basis.grid.manifold.n
    pc = estimators.p_critical(n)
    freq = decomp.frequencies
    denom = float(np.sqrt(np.sum((1.0 + freq) * c0 ** 2)))
    denom += float(np.sqrt(np.sum(c1 ** 2 / (1.0 + freq))))
    if denom == 0.0:
        raise DomainError("zero initial data")
    support = np.flatnonzero((c0 != 0.0) | (c1 != 0.0))
    U = decomp.node_values()[:, support]
    freq, c0, c1 = freq[support], c0[support], c1[support]
    ts, wts = _time_quadrature(pc * float(np.max(freq)))
    w = decomp.basis.grid.weights
    acc = 0.0
    # one GEMM per block of time nodes; the block size bounds the N x block temporaries
    for start in range(0, ts.size, _TIME_BLOCK):
        block = slice(start, start + _TIME_BLOCK)
        vals = U @ _wave_coefficients(freq, c0, c1, ts[block, None]).T
        acc += float(wts[block] @ (w @ np.abs(vals) ** pc))
    return acc ** (1.0 / pc) / denom


def _ladder_rung(freq: np.ndarray, k: float) -> np.ndarray:
    """Mode indices of zonal-ladder rung k, the modes in (k/2, k + 3/4] but
    the first; raises when the truncation stops below k + 3/4 or there are none."""
    if float(freq[-1]) < k + 0.75:
        raise ResolutionError(f"truncation frequency {freq[-1]:.1f} below "
                              f"battery rung k={k}")
    idx = operator_core.band_indices(freq, k / 2.0, k + 0.75)
    idx = idx[idx > 0]
    if idx.size == 0:
        raise DomainError(f"battery rung k={k} holds no mode")
    return idx


def strichartz_report(decomp: operator_core.SpectralDecomposition,
                      ks=(4, 8, 16, 32)) -> estimators.ExperimentReport:
    """Zonal-ladder battery: no growth trend of the Strichartz ratio in k
    (verdict: slope within 0.1 of 0).  Each rung sums the modes in
    (k/2, k + 3/4]: its coefficients are their indicator."""
    rows = []
    for k in ks:
        c0 = np.zeros(decomp.size)
        c0[_ladder_rung(decomp.frequencies, k)] = 1.0
        rows.append([k, strichartz_ratio(decomp, c0, np.zeros_like(c0))])
    return estimators.slope_report(["k", "ratio"], rows, ks, [r[1] for r in rows], 0.0, 0.1)


def band_bound_report(decomp: operator_core.SpectralDecomposition,
                      ks=(4, 8, 16, 32)) -> estimators.ExperimentReport:
    """||chi_k f||_{p_c} <= C (1+k)^{1/p_c} ||f||_2 reproduced as a slope fit
    of the 2 -> p_c projector norm against 1+k; verdict: slope within 0.1 of
    1/p_c."""
    n = decomp.basis.grid.manifold.n
    pc = estimators.p_critical(n)
    norms = [estimators.projector_norm(decomp, k - 0.5, k + 0.5, pc) for k in ks]
    rows = [[k, res.lower, res.upper] for k, res in zip(ks, norms)]
    return estimators.slope_report(["k", "norm_lower", "norm_upper"], rows,
                                   [1.0 + k for k in ks], [r[1] for r in rows],
                                   1.0 / pc, 0.1, p=pc)
