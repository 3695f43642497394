import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import estimators, geometry, operator_core, potentials
from qlab.errors import ConfigError, DomainError, ResolutionError


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sigma_anchor_values(n):
    pc = estimators.p_critical(n)
    assert estimators.sigma(2.0, n) == 0.0
    # machine precision at the kink: bit-exact whenever p_c is itself a
    # representable float (n = 2, 3, 5), and within 4 ulps otherwise (the
    # rounding of p_c = 2(n+1)/(n-1) perturbs the kink identity by an ulp)
    if n in (2, 3, 5):
        assert estimators.sigma(pc, n) == 1.0 / pc
    else:
        assert abs(estimators.sigma(pc, n) - 1.0 / pc) <= 4 * math.ulp(1.0 / pc)
    assert estimators.sigma(math.inf, n) == (n - 1) / 2.0


def test_p_critical_values():
    assert estimators.p_critical(3) == 4.0
    assert estimators.p_critical(5) == 3.0
    assert estimators.p_critical(2) == 6.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sigma_nondecreasing(n):
    ps = np.linspace(2.0, 40.0, 200)
    vals = [estimators.sigma(p, n) for p in ps]
    assert np.all(np.diff(vals) >= -1e-15)


def test_br_delta_threshold():
    assert estimators.br_delta(2.0, 2) == 0.0
    assert estimators.br_delta(1.0, 2) == 0.5
    assert estimators.br_delta(math.inf, 3) == 1.0


def test_exponent_table_invariants():
    pc = estimators.p_critical(3)
    assert pc == 4.0
    ps = np.linspace(2.0, 2 * pc, 25)
    assert np.all(np.isfinite([estimators.sigma(p, 3) for p in ps]))


def test_fit_exponent_exact_power_law():
    lams = np.geomspace(2.0, 64.0, 8)
    fit = estimators.fit_exponent(lams, 3.0 * lams ** -1.5)
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual < 1e-12


def test_fit_exponent_guards():
    with pytest.raises(DomainError):
        estimators.fit_exponent([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        estimators.fit_exponent([1, 2, 3, 4], [1, -1, 1, 1])


@given(c=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=20, deadline=None)
def test_quasimode_ratio_scale_invariant(c, s2_free_24):
    u = s2_free_24.node_values()[:, 9]
    lam = float(s2_free_24.frequencies[9])
    r1 = estimators.quasimode_ratio(s2_free_24, u, lam, 6.0)
    r2 = estimators.quasimode_ratio(s2_free_24, c * u, lam, 6.0)
    assert r2 == pytest.approx(r1, rel=1e-9)


def test_quasimode_ratio_eigenfunction_closed_form(s2_free_24):
    """On an exact eigenfunction the denominator collapses to the one-mode
    spectral calculus value."""
    i = 12
    u = s2_free_24.node_values()[:, i]
    lam = float(s2_free_24.frequencies[i])
    got = estimators.quasimode_ratio(s2_free_24, u, lam, 6.0)
    s = estimators.sigma(6.0, 2)
    resid = abs(s2_free_24.eigenvalues[i] - (lam + 1j) ** 2)
    denom = lam ** (s - 1) * resid + lam ** s
    norm_p = geometry.lp_norm(s2_free_24.basis.grid, u, 6.0)
    assert got == pytest.approx(norm_p / denom, rel=1e-10)


def test_quasimode_sup_includes_the_poles(s2_free_72):
    """At p = inf the eigenfunction nearest lambda has its sup at the pole,
    sqrt((2l+1)/(4 pi)), which the grid leaves out; the ratio reads it."""
    report = estimators.quasimode_report(s2_free_72, math.inf, [8.0, 40.0])
    for (_, lam, ratio), l in zip(report.rows, (8, 40)):
        assert lam == pytest.approx(math.sqrt(l * (l + 1)), rel=1e-15)
        denom = lam ** -0.5 * abs(1.0 - 2.0j * lam) + lam ** 0.5  # sigma(inf, 2) = 1/2
        assert ratio == pytest.approx(math.sqrt((2 * l + 1) / (4 * math.pi)) / denom,
                                      rel=1e-10)


def test_full_sphere_quasimode_sup_includes_the_poles():
    """On the full S^2 the eigenfunction nearest lambda = 24 is the degree-24
    m = 0 harmonic, whose sup sqrt(49/(4 pi)) = 1.9748 sits at the poles; the
    grid alone reads 0.781."""
    decomp = operator_core.solve(None, geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2), 24)
    (_, lam, ratio), = estimators.quasimode_report(decomp, math.inf, [24.0]).rows
    i = int(np.argmin(np.abs(decomp.frequencies - 24.0)))
    assert decomp.basis.modes[i] == (24, 0, "c")
    assert lam == pytest.approx(math.sqrt(24 * 25), rel=1e-15)
    denom = lam ** -0.5 * abs(1.0 - 2.0j * lam) + lam ** 0.5  # sigma(inf, 2) = 1/2
    assert ratio * denom == pytest.approx(math.sqrt(49 / (4 * math.pi)), rel=1e-12)


def test_projector_norm_p2_and_bounds(s2_free_24):
    res = estimators.projector_norm(s2_free_24, 10.0, 11.0, 2.0)
    assert res.lower == pytest.approx(1.0, abs=1e-12)
    res6 = estimators.projector_norm(s2_free_24, 10.0, 11.0, 6.0)
    assert res6.lower <= res6.upper + 1e-12


def test_projector_norm_sup_zonal_closed_form(s2_free_24):
    """Rank-one band: the 2->inf norm is the sup of the normalized zonal
    harmonic, attained at the pole: sqrt((2k+1)/(4 pi))."""
    k = 10
    lam = math.sqrt(k * (k + 1))
    res = estimators.projector_norm(s2_free_24, lam - 0.1, lam + 0.1, math.inf)
    oracle = math.sqrt((2 * k + 1) / (4 * math.pi))
    assert res.lower == pytest.approx(oracle, rel=1e-12)
    assert res.lower == pytest.approx(res.upper, rel=1e-12)


def _line_search_ascent(decomp, lo, hi, p):
    """Reference: projected-gradient ascent with a halving and doubling line
    search from the same starts; returns the best ||Uc||_p and whether every
    start stagnated."""
    U = decomp.node_values()[:, operator_core.band_indices(decomp.frequencies, lo, hi)]
    grid = decomp.basis.grid
    best, all_stagnated = 0.0, True
    for c in estimators._ascent_starts(U.shape[1]):
        val = geometry.lp_norm(grid, U @ c, p)
        step, converged = 0.5, False
        for _ in range(estimators._ASCENT_MAX_ITER):
            g = U @ c
            grad = U.T @ (grid.weights * np.abs(g) ** (p - 1) * np.sign(g))
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            prev, improved = val, False
            while step > 1e-12:
                trial = c + step * grad / gnorm
                trial /= np.linalg.norm(trial)
                if np.array_equal(trial, c):
                    break
                tval = geometry.lp_norm(grid, U @ trial, p)
                if tval > val:
                    c, val, improved = trial, tval, True
                    break
                step *= 0.5
            if not improved or val - prev < estimators._ASCENT_TOL * val:
                converged = True
                break
            step = min(step * 2.0, 1.0)
        all_stagnated &= not converged
        best = max(best, val)
    return best, all_stagnated


def test_power_method_equals_line_search_on_rank_one_bands(s2_free_72):
    """On the criterion-3 bands (rank 1, p = 6) both ascents stop at the
    start they are given, so the values agree bit for bit."""
    for lam in (10.0, 14.0, 20.0, 28.0, 40.0, 56.0):
        res = estimators.projector_norm(s2_free_72, lam, lam + 1.0, 6.0)
        best, stagnated = _line_search_ascent(s2_free_72, lam, lam + 1.0, 6.0)
        assert res.rank == 1
        assert res.lower == min(best, res.upper)
        assert res.stagnation == stagnated


def _power_ascent(decomp, lo, hi, p):
    """Reference: the power method of projector_norm from every start of
    _ascent_starts, as it ran on bands of any rank; returns the best
    ||Uc||_p and whether every start stagnated."""
    U = decomp.node_values()[:, operator_core.band_indices(decomp.frequencies, lo, hi)]
    grid = decomp.basis.grid
    best, all_stagnated = 0.0, True
    for c in estimators._ascent_starts(U.shape[1]):
        g = U @ c
        val = geometry.lp_norm(grid, g, p)
        for _ in range(estimators._ASCENT_MAX_ITER):
            grad = U.T @ (grid.weights * np.abs(g) ** (p - 1) * np.sign(g))
            gnorm = float(np.linalg.norm(grad))
            if gnorm == 0.0:
                break
            c = grad / gnorm
            g = U @ c
            prev, val = val, geometry.lp_norm(grid, g, p)
            if val - prev < estimators._ASCENT_TOL * val:
                all_stagnated = False
                break
        best = max(best, val)
    return best, all_stagnated


def _rank_one_bands(freq, count):
    """(lo, hi] around each of ``count`` frequencies spread over the
    spectrum, each holding that frequency alone."""
    out = []
    for j in np.linspace(1, freq.size - 2, count).astype(int):
        lo, hi = (freq[j - 1] + freq[j]) / 2.0, (freq[j] + freq[j + 1]) / 2.0
        if operator_core.band_indices(freq, lo, hi).size == 1:
            out.append((lo, hi))
    return out


@pytest.fixture(scope="module")
def s3_kato_40():
    """Bounded (truncated) singular potential on S^3, truncation K = 40."""
    return operator_core.solve(potentials.truncated_counterexample(3),
                               geometry.ModelManifold(geometry.SPHERE_ZONAL, 3), 40)


@pytest.mark.parametrize("name", ["s2_free_72", "s2_kato_72", "s3_free_40", "s3_kato_40"])
def test_rank_one_closed_form_equals_the_ascent(name, request):
    """On a rank-one band ||e||_p is the power method's value bit for bit,
    with stagnation 0, on free and Kato-truncated zonal S^2 and S^3."""
    decomp = request.getfixturevalue(name)
    bands = _rank_one_bands(decomp.frequencies, 6)
    assert len(bands) == 6
    for p in (3.0, 4.0, 6.0, 8.0):
        for lo, hi in bands:
            res = estimators.projector_norm(decomp, lo, hi, p)
            best, stagnated = _power_ascent(decomp, lo, hi, p)
            assert res.rank == 1
            assert res.lower == min(best, res.upper)
            assert res.stagnation == stagnated is False


def test_rank_one_closed_form_on_the_torus_constant_band():
    """The constant mode is the torus's one rank-one band; its value is the
    ascent's bit for bit, and vol^(1/p - 1/2) to rounding."""
    decomp = operator_core.solve(None, geometry.ModelManifold(geometry.TORUS, 2), 6)
    vol = decomp.basis.grid.manifold.volume
    for p in (3.0, 4.0, 6.0, 8.0):
        res = estimators.projector_norm(decomp, -0.5, 0.5, p)
        best, stagnated = _power_ascent(decomp, -0.5, 0.5, p)
        assert res.rank == 1
        assert res.lower == min(best, res.upper) and res.stagnation == stagnated
        assert res.lower == pytest.approx(vol ** (1.0 / p - 0.5), rel=1e-13)


def test_rank_one_bands_run_no_ascent(s2_free_72, monkeypatch):
    """Rank-one bands build no ascent starts and seed no generator; a rank-3
    band still runs the ascent."""
    starts = []
    ascent_starts = estimators._ascent_starts

    def record(num_modes):
        starts.append(num_modes)
        return ascent_starts(num_modes)

    def no_rng(*args, **kwargs):
        raise AssertionError("a rank-one band seeded a generator")

    monkeypatch.setattr(estimators, "_ascent_starts", record)
    monkeypatch.setattr(np.random, "default_rng", no_rng)
    lams = (10.0, 14.0, 20.0, 28.0, 40.0, 56.0)
    rep = estimators.projector_growth_report(s2_free_72, 6.0, lams)
    assert [row[3] for row in rep.rows] == [1] * len(lams)
    assert starts == []
    monkeypatch.undo()
    monkeypatch.setattr(estimators, "_ascent_starts", record)
    assert estimators.projector_norm(s2_free_72, 10.0, 13.0, 6.0).rank == 3
    assert starts == [3]


@pytest.mark.parametrize("name, p", [("s2_free_72", 4.0), ("s2_kato_72", 6.0)])
def test_power_method_reaches_line_search_on_rank_three_bands(name, p, request):
    """Each power step raises ||Uc||_p (it is convex in c), so the power
    method ends at least as high as the line search, converged on every band."""
    decomp = request.getfixturevalue(name)
    for lam in (10.0, 14.0, 20.0, 28.0, 40.0, 56.0):
        res = estimators.projector_norm(decomp, lam, lam + 3.0, p)
        best, _ = _line_search_ascent(decomp, lam, lam + 3.0, p)
        assert res.rank == 3
        assert min(best, res.upper) <= res.lower <= res.upper
        assert not res.stagnation


def test_projector_growth_report_rejects_p_below_2(s2_free_24):
    """An invalid exponent is reported as such, not as a run of empty bands."""
    with pytest.raises(DomainError, match=r"p in \[2, infinity\]"):
        estimators.projector_growth_report(s2_free_24, 1.0, (4.0, 6.0, 8.0, 10.0))


def test_local_weyl_constant_mode(s2_free_24):
    [val] = estimators.local_weyl(s2_free_24, 0.7, [0.5])
    assert val == pytest.approx(1.0 / (4 * math.pi), rel=1e-12)


def test_local_weyl_truncation_guard(s2_free_24):
    with pytest.raises(ResolutionError):
        estimators.local_weyl(s2_free_24, 0.0, [1e6])


def test_harmonic_dimension_counts():
    # dim of degree-l spherical harmonics: 2l+1 on S^2, (l+1)^2 on S^3
    assert estimators.harmonic_dimension(2, 5) == 11
    assert estimators.harmonic_dimension(3, 5) == 36


def test_divergent_quasimode_guards():
    with pytest.raises(DomainError):
        estimators.divergent_quasimode(3, 0.25)
    with pytest.raises(DomainError):
        estimators.divergent_quasimode(4, 0.75)


def test_divergent_quasimode_n5_partial_sums_bounded():
    """For n = 5 the ladder terms grow like 2^{k/2}: the sum diverges even
    faster; growth over the window must exceed the n=4 growth."""
    r4 = estimators.divergent_quasimode(4, 0.25)
    r5 = estimators.divergent_quasimode(5, 0.25)
    assert r5.summary["growth"] > r4.summary["growth"] > 0.0


@pytest.mark.parametrize("n, k_min, k_max", [(4, 4, 14), (5, 1, 9), (9, 2, 12)])
def test_divergent_quasimode_matches_the_dense_bump_table(n, k_min, k_max):
    """Writing each bump only on its support 2^(k-1) < freq < 2^(k+1) gives
    the terms of the full rungs x degrees table bit for bit."""
    ls = np.arange(2 ** (k_max + 1) + 9)
    dims = np.array([estimators.harmonic_dimension(n, int(l)) for l in ls], dtype=float)
    freqs = np.sqrt(ls * (ls + n - 1.0))
    ks = np.arange(k_min, k_max + 1)
    beta = operator_core.lp_profile(freqs[None, :] / 2.0 ** ks[:, None])
    amps = 2.0 ** (-(n / 2.0 + 2.0) * ks) * ks ** (-0.5 - 0.25)
    vol = geometry.sphere_volume(n)
    terms = amps * (beta @ dims) / vol
    tail_l2 = float(np.sqrt(np.sum(((amps @ beta) * np.sqrt(dims / vol)) ** 2)))
    rep = estimators.divergent_quasimode(n, 0.25, k_min=k_min, k_max=k_max)
    assert [row[0] for row in rep.rows] == ks.tolist()
    assert np.array([row[1] for row in rep.rows]).tobytes() == terms.tobytes()
    assert rep.summary["tail_l2"] == tail_l2


def test_sobolev_dual_pair():
    assert estimators.sobolev_dual_pair(3) == (1.2, 6.0)
    with pytest.raises(DomainError):
        estimators.sobolev_dual_pair(2)


def test_resolvent_probe_wrong_p_rejected():
    with pytest.raises(ConfigError):
        estimators.uniform_resolvent_probe(3, (4.0, 6.0))


def _fft_reference(n, lams):
    """The probe's rows by np.fft.ifftn on the full N^n grid."""
    p_star, p_dual = estimators.sobolev_dual_pair(n)
    N = estimators._resolvent_grid(lams)
    freqs = np.fft.fftfreq(N, d=1.0 / N)
    ksq = sum(np.meshgrid(*([freqs ** 2] * n), indexing="ij", sparse=True))
    cell = (2.0 * math.pi / N) ** n

    def norm(f, q):
        return (np.sum(np.abs(f) ** q) * cell) ** (1.0 / q)

    fp_pt = cell ** (1.0 / p_star)
    rows = []
    for lam in lams:
        mult = 1.0 / (ksq - (lam + 1j) ** 2)
        shell = (np.abs(np.sqrt(ksq) - lam) <= 1.0).astype(float)
        fp_sh = norm(np.fft.ifftn(shell), p_star)
        lower = max(0.0, norm(np.fft.ifftn(mult), p_dual) / fp_pt)
        if fp_sh > 0:
            lower = max(lower, norm(np.fft.ifftn(shell * mult), p_dual) / fp_sh)
        rows.append([float(lam), lower])
    return rows


@pytest.mark.parametrize("n,lams", [(3, (8.0, 11.0, 16.0, 22.0, 32.0)),
                                    (4, (1.0, 2.0, 3.0, 4.0))])
def test_resolvent_probe_matches_fft_reference(n, lams, monkeypatch):
    """The half-cube cosine transform reproduces the full-grid FFT rows, and
    the probe calls no FFT."""
    expected = _fft_reference(n, lams)

    def no_fft(*args, **kwargs):
        raise AssertionError("uniform_resolvent_probe called np.fft")

    for name in np.fft.__all__:
        monkeypatch.setattr(np.fft, name, no_fft)
    rows = estimators.uniform_resolvent_probe(n, lams).rows
    assert [r[0] for r in rows] == [r[0] for r in expected]
    for (_, got), (_, want) in zip(rows, expected):
        assert abs(got - want) <= 1e-13 * want


@given(n=st.integers(min_value=1, max_value=4),
       N=st.integers(min_value=2, max_value=20).map(lambda m: 2 * m),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_even_inverse_dft_is_the_fft(n, N, seed):
    """For a complex spectrum even in every coordinate, the half-cube cosine
    transform is np.fft.ifftn on the points {0..N/2}^n, and the fold-weighted
    sums of |g|^q are the full-grid sums."""
    rng = np.random.default_rng(seed)
    h = N // 2 + 1
    half = rng.standard_normal((h,) * n) + 1j * rng.standard_normal((h,) * n)
    mirror = np.minimum(np.arange(N), N - np.arange(N))  # k and N - k share a value
    full = np.fft.ifftn(half[np.ix_(*[mirror] * n)])
    got = estimators._even_inverse_dft(half, N)
    scale = float(np.max(np.abs(full)))
    assert np.max(np.abs(got - full[(slice(0, h),) * n])) <= 1e-13 * scale
    folds = estimators._half_axis_folds(N)
    for q in (1.2, 2.0, 6.0):
        want = float(np.sum(np.abs(full) ** q))
        assert abs(estimators._folded_sum(np.abs(got) ** q, folds) - want) <= 1e-13 * want


def test_resolvent_probe_memory():
    """The shipped probe works on the 37^3 half cube of its 72^3 grid: its
    peak allocation (3.3 MB) stays far below that of one 72^3 pass."""
    tracemalloc.start()
    try:
        estimators.uniform_resolvent_probe(3, (8, 11, 16, 22, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2 ** 20


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_atomic_write_text_mode_follows_the_umask(tmp_path, umask):
    """Results get the mode a plain open would give them, 0o666 under the
    umask, not the 0o600 of a private temp file."""
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        estimators.atomic_write_text(str(path), "a,b\n")
    finally:
        os.umask(old)
    assert path.read_text() == "a,b\n"
    assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_text_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    """A write or a rename that fails removes its temp file and keeps the
    old result."""
    path = tmp_path / "out.json"
    path.write_text("old")
    with pytest.raises(TypeError):
        estimators.atomic_write_text(str(path), None)
    assert os.listdir(tmp_path) == ["out.json"]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(estimators.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        estimators.atomic_write_text(str(path), "new")
    assert os.listdir(tmp_path) == ["out.json"]
    assert path.read_text() == "old"
