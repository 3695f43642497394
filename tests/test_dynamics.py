import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import dynamics, estimators, geometry, operator_core, potentials
from qlab.errors import ConfigError, DomainError, ResolutionError


def test_heat_requires_positive_time(s2_free_24):
    with pytest.raises(DomainError):
        dynamics.heat_report(s2_free_24, (-1.0, 0.1, 0.2, 0.3))


def test_heat_kernel_sup_decreasing(s2_free_24):
    sups = [row[1] for row in dynamics.heat_report(s2_free_24, (0.05, 0.1, 0.2, 0.4)).rows]
    assert sups[0] > sups[1] > sups[2] > sups[3]


def _wave_values(decomp, c0, c1, t):
    """u(t) on the grid from the one propagator, _wave_coefficients."""
    return decomp.synthesize(dynamics._wave_coefficients(decomp.frequencies, c0, c1, t))


def test_wave_initial_data(s2_free_24):
    """u(0) = f0, and u_t(0) = f1 by a central difference of the propagator."""
    f0 = s2_free_24.node_values()[:, 4] + 0.3 * s2_free_24.node_values()[:, 2]
    f1 = s2_free_24.node_values()[:, 6]
    c0, c1 = s2_free_24.project(f0), s2_free_24.project(f1)
    assert np.allclose(_wave_values(s2_free_24, c0, c1, 0.0), f0, atol=1e-11)
    h = 1e-5
    vel0 = (_wave_values(s2_free_24, c0, c1, h) - _wave_values(s2_free_24, c0, c1, -h)) / (2 * h)
    assert np.allclose(vel0, f1, atol=1e-8)


def test_wave_energy_conserved(s2_free_24):
    """||P u||^2 + ||u_t||^2 of the propagator's coefficients is constant in t,
    with u_t = -P sin(tP) f0 + cos(tP) f1 in closed form."""
    f0 = np.sum(s2_free_24.node_values()[:, :9], axis=1)
    c0 = s2_free_24.project(f0)
    freq = s2_free_24.frequencies

    def energy(t):
        u = dynamics._wave_coefficients(freq, c0, c0, t)
        u_t = -freq * np.sin(t * freq) * c0 + np.cos(t * freq) * c0
        return float(np.sum((freq * u) ** 2) + np.sum(u_t ** 2))

    e0 = energy(0.0)
    for t in (0.1, 0.5, 1.3):
        assert energy(t) == pytest.approx(e0, rel=1e-12)


def test_wave_cosine_double_angle(s2_free_24):
    """cos(2tP) = 2 cos(tP)^2 - 1 as multipliers."""
    t = 0.37
    f = np.sum(s2_free_24.node_values()[:, :7], axis=1)

    def c_t(g):
        return operator_core.multiplier(s2_free_24, lambda fr: np.cos(t * fr), g)

    lhs = operator_core.multiplier(s2_free_24, lambda fr: np.cos(2 * t * fr), f)
    rhs = 2.0 * c_t(c_t(f)) - f
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_cone_leakage_zero_time(s2_free_24):
    assert dynamics.cone_leakage(s2_free_24, 0.0) == 0.0


def test_cone_leakage_guards(s2_free_24):
    with pytest.raises(DomainError):
        dynamics.cone_leakage(s2_free_24, 2.0)
    with pytest.raises(ResolutionError):
        dynamics.cone_leakage(s2_free_24, 0.5, cutoff=1e6)
    with pytest.raises(ResolutionError):
        dynamics.cone_leakage(s2_free_24, 0.5, cutoff=1.0)


def test_bochner_riesz_delta_zero_is_sharp_cutoff(s2_free_24):
    lam = 10.5

    def chi(fr):
        return (fr <= lam).astype(float)

    f = np.sum(s2_free_24.node_values(), axis=1)
    br = operator_core.multiplier(s2_free_24, dynamics.bochner_riesz(lam, 0.0), f)
    assert np.allclose(br, operator_core.multiplier(s2_free_24, chi, f), atol=1e-10)


@pytest.mark.parametrize("kind", [geometry.TORUS, geometry.SPHERE_FULL_2D])
def test_br_l1_row_norm_needs_zonal_sector(kind):
    decomp = operator_core.solve(None, geometry.ModelManifold(kind, 2), 4)
    with pytest.raises(DomainError, match="zonal sector"):
        dynamics.br_l1_row_norm(decomp, 3.0, 0.6)


def test_br_l1_row_norm_is_exact_for_projector(s2_free_24):
    """delta = 0, lam below the first nonzero frequency: the kernel is the
    constant mode, |K| = 1/(4 pi), L^1 row integral = 1."""
    val = dynamics.br_l1_row_norm(s2_free_24, 0.5, 0.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_square_function_single_mode_plateau(s2_free_24):
    """A single mode inside a Littlewood-Paley plateau passes through one
    window: ||Sf||_2 = ||f||_2."""
    i = 16  # frequency ~ 16.5, inside the beta_4 plateau [14.4, 19.2]
    f = s2_free_24.node_values()[:, i]
    sf = dynamics.square_function(s2_free_24, f)
    grid = s2_free_24.basis.grid
    assert geometry.lp_norm(grid, sf, 2.0) == pytest.approx(
        geometry.lp_norm(grid, f, 2.0), rel=1e-10)


def test_square_function_partition_guard(s2_free_24):
    bad = [(lambda fr, j=j: np.full_like(np.asarray(fr, dtype=float), 0.4))
           for j in range(3)]
    f = s2_free_24.node_values()[:, 3]
    with pytest.raises(ConfigError):
        dynamics.square_function(s2_free_24, f, family=bad)


def test_battery_presets(s2_free_24):
    for preset in ("zonal-ladder", "point-concentrated", "random-band"):
        battery = dynamics.test_battery(s2_free_24, preset)
        assert battery
    with pytest.raises(ConfigError):
        dynamics.test_battery(s2_free_24, "nonsense")


@pytest.mark.parametrize("name", ["s2_free_72", "s2_kato_72"])
def test_square_function_plancherel_band(name, request):
    """The beta_j are >= 0, at most two overlap and they sum to 1, so
    1/2 <= sum_j beta_j^2 <= 1 and ||Sf||_2 / ||f||_2 lies in [2^{-1/2}, 1]
    for every function of the three batteries."""
    decomp = request.getfixturevalue(name)
    grid = decomp.basis.grid
    battery = [f for preset in dynamics._PRESETS
               for _, f in dynamics.test_battery(decomp, preset)]
    sfs = dynamics.square_function(decomp, np.column_stack(battery))
    for f, sf in zip(battery, sfs.T):
        ratio = geometry.lp_norm(grid, sf, 2.0) / geometry.lp_norm(grid, f, 2.0)
        assert 2.0 ** -0.5 - 1e-12 <= ratio <= 1.0 + 1e-12


def test_random_band_battery_seed_determinism(s2_free_24):
    a = dynamics.test_battery(s2_free_24, "random-band", seed=5)
    b = dynamics.test_battery(s2_free_24, "random-band", seed=5)
    for (la, fa), (lb, fb) in zip(a, b):
        assert la == lb
        assert np.array_equal(fa, fb)


def test_strichartz_constant_mode_closed_form(s2_free_24):
    """Constant data on the unit time window: the wave solution is the
    constant itself, so the ratio collapses to vol^{1/p_c - 1/2}."""
    c0 = s2_free_24.project(np.ones(s2_free_24.basis.grid.size))
    ratio = dynamics.strichartz_ratio(s2_free_24, c0, np.zeros_like(c0))
    pc = estimators.p_critical(2)
    vol = geometry.sphere_volume(2)
    assert ratio == pytest.approx(vol ** (1 / pc - 0.5), rel=1e-10)


@pytest.mark.parametrize("name", ["s2_free_72", "s2_kato_72"])
def test_strichartz_blocks_match_per_node_sweep(name, request):
    """The blocked time sweep equals the per-time-node sum.  The rule is sized
    by p_c times the top frequency on the support of the data (projected from
    grid values, so every mode carries at least rounding), which gives a
    partial last block, and the data carries the constant mode (the
    zero-frequency limit t * f1 on the free sphere)."""
    decomp = request.getfixturevalue(name)
    U = decomp.node_values()
    f0 = U[:, 0] + np.sum(U[:, 3:12], axis=1)
    f1 = 0.7 * U[:, 0] - 0.4 * U[:, 5] + 0.2 * U[:, 20]
    grid = decomp.basis.grid
    pc = estimators.p_critical(2)
    c0, c1 = decomp.project(f0), decomp.project(f1)
    freq = decomp.frequencies
    support = np.flatnonzero((c0 != 0.0) | (c1 != 0.0))
    ts, wts = dynamics._time_quadrature(pc * float(np.max(freq[support])))
    assert ts.size > dynamics._TIME_BLOCK and ts.size % dynamics._TIME_BLOCK
    acc = sum(wt * geometry.lp_norm(grid, _wave_values(decomp, c0, c1, t), pc) ** pc
              for t, wt in zip(ts, wts))
    denom = (np.sqrt(np.sum((1.0 + freq) * c0 ** 2))
             + np.sqrt(np.sum(c1 ** 2 / (1.0 + freq))))
    expected = acc ** (1.0 / pc) / denom
    assert dynamics.strichartz_ratio(decomp, c0, c1) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("name", ["s2_free_40", "s2_kato_40", "s3_free_40"])
def test_strichartz_report_matches_fine_time_rule(name, request, monkeypatch):
    """Every rung equals the ratio on a 400-panel time rule: |u|^{p_c}
    oscillates p_c times faster than the top mode of the rung, and the rule
    resolves it (sized by the mode alone, rung 32 was off by 1.9e-5 on S^2)."""
    decomp = request.getfixturevalue(name)
    report = dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32))
    monkeypatch.setattr(dynamics, "_time_quadrature",
                        lambda omega: geometry._panel_gauss(0.0, 1.0, 400, 8))
    fine = dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32))
    for (k, ratio), (_, expected) in zip(report.rows, fine.rows):
        assert ratio == pytest.approx(expected, rel=1e-12), k


def test_strichartz_time_rule_sized_by_the_rung(monkeypatch):
    """At K = 512 each ladder rung takes the time nodes its own top frequency
    needs, not those of the truncation's top mode (664 per rung)."""
    decomp = operator_core.solve(None, geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 512)
    sizes = []
    original = dynamics._time_quadrature

    def recording(omega):
        ts, wts = original(omega)
        sizes.append(ts.size)
        return ts, wts

    monkeypatch.setattr(dynamics, "_time_quadrature", recording)
    dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32))
    assert sizes == [48, 80, 136, 264]


@pytest.mark.parametrize("manifold, K", [
    (geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 72),
    (geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2), 12),
    (geometry.ModelManifold(geometry.TORUS, 2), 8),
])
def test_heat_report_rows_match_per_t_squares(manifold, K):
    """heat_report, which squares the values once for all t, gives bit for bit
    the sups of the per-t squares of the grid values and pole rows (the torus
    has no pole rows)."""
    decomp = operator_core.solve(None, manifold, K)
    ts = (0.01, 0.016, 0.025, 0.04, 0.063, 0.1)
    rows = dynamics.heat_report(decomp, ts).rows
    U = decomp.node_values()
    for t, (_, sup) in zip(ts, rows):
        expected = float(np.max((U ** 2) @ np.exp(-t * decomp.eigenvalues)))
        if manifold.kind != geometry.TORUS:
            pole = decomp.basis.pole_values @ decomp.eigenvectors
            expected = max(expected, float(np.max((pole ** 2) @ np.exp(-t * decomp.eigenvalues))))
        assert sup == expected


def _square_function_per_piece(decomp, f, family):
    """Reference: one project/synthesize pair per dyadic piece."""
    c = decomp.project(f)
    freq = decomp.frequencies
    acc = np.zeros(decomp.basis.grid.size)
    for beta in family:
        acc += decomp.synthesize(np.asarray(beta(freq)) * c) ** 2
    return np.sqrt(acc)


@pytest.mark.parametrize("name", ["s2_free_72", "s2_kato_72"])
@pytest.mark.parametrize("custom", [False, True])
def test_square_function_matches_per_piece_reference(name, custom, request, monkeypatch):
    """All pieces come from one GEMM on node_values(), with no synthesize
    call, and equal the per-piece path."""
    decomp = request.getfixturevalue(name)
    psi = operator_core.lp_psi
    family = ([lambda fr: psi(fr / 4.0), lambda fr: psi(fr / 16.0) - psi(fr / 4.0),
               lambda fr: 1.0 - psi(fr / 16.0)] if custom
              else dynamics.default_lp_family(float(decomp.frequencies[-1])))
    f = np.exp(np.cos(decomp.basis.grid.nodes)) + decomp.node_values()[:, 30]
    expected = _square_function_per_piece(decomp, f, family)
    synth = []
    original = operator_core.SpectralDecomposition.synthesize
    monkeypatch.setattr(operator_core.SpectralDecomposition, "synthesize",
                        lambda self, c: synth.append(1) or original(self, c))
    sf = dynamics.square_function(decomp, f, family=family)
    assert not synth
    assert np.max(np.abs(sf - expected)) <= 1e-12 * np.max(expected)


def test_square_function_column_stack(s2_kato_72):
    """A column stack gives one Sf column per function, each equal bit for
    bit to the single-function call, with each symbol evaluated once."""
    U = s2_kato_72.node_values()
    F = np.column_stack([U[:, 5], U[:, 12] + U[:, 40], np.cos(s2_kato_72.basis.grid.nodes)])
    calls = []
    family = [(lambda fr, beta=beta: calls.append(1) or beta(fr))
              for beta in dynamics.default_lp_family(float(s2_kato_72.frequencies[-1]))]
    sfs = dynamics.square_function(s2_kato_72, F, family=family)
    assert len(calls) == len(family)
    assert sfs.shape == F.shape
    for j in range(F.shape[1]):
        assert np.array_equal(sfs[:, j], dynamics.square_function(s2_kato_72, F[:, j]))


@pytest.mark.parametrize("name", ["s2_free_72", "s2_kato_72"])
def test_strichartz_report_matches_grid_data(name, request):
    """Ladder data built as eigen-coefficients (swept on their support only)
    gives the ratios of the same data projected from grid values."""
    decomp = request.getfixturevalue(name)
    U = decomp.node_values()
    freq = decomp.frequencies
    report = dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32))
    for k, ratio in report.rows:
        idx = np.nonzero((freq > k / 2.0) & (freq <= k + 0.75))[0]
        idx = idx[idx > 0]
        c0 = decomp.project(U[:, idx].sum(axis=1))
        assert ratio == pytest.approx(dynamics.strichartz_ratio(decomp, c0, np.zeros_like(c0)),
                                      rel=1e-12)


def test_spectral_battery_evaluates_the_poles_once(monkeypatch):
    """The eight probes of the spectral battery read the pole values of a
    fresh K = 72 basis from one evaluation; the only other evaluation is the
    Weyl point."""
    decomp = operator_core.solve(None, geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 72)
    points = []
    original = geometry.ZonalSphereBasis.evaluate
    monkeypatch.setattr(geometry.ZonalSphereBasis, "evaluate",
                        lambda self, p: points.append(list(np.atleast_1d(p)))
                        or original(self, p))
    lams = [8.0, 12.0, 20.0, 32.0, 50.0]
    estimators.projector_growth_report(decomp, math.inf, lams)
    estimators.projector_growth_report(decomp, 6.0, lams)
    dynamics.heat_report(decomp, (0.01, 0.016, 0.025, 0.04, 0.063, 0.1))
    dynamics.br_norm_probe(decomp, 1.0, [8.0, 16.0, 32.0, 64.0])
    dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32))
    dynamics.band_bound_report(decomp, ks=(4, 8, 16, 32, 64))
    dynamics.norm_equivalence_probe(decomp)
    estimators.local_weyl_report(decomp, 0.0, lams)
    assert points == [[0.0, math.pi], [0.0]]


def _spectral_battery(decomp):
    """The reports of the spectral-probe battery at K = 512."""
    lams = [20.0, 40.0, 80.0, 160.0, 320.0]
    return [estimators.projector_growth_report(decomp, math.inf, lams),
            estimators.projector_growth_report(decomp, 6.0, lams),
            dynamics.heat_report(decomp, (0.01, 0.016, 0.025, 0.04, 0.063, 0.1)),
            dynamics.br_norm_probe(decomp, 1.0, [32.0, 64.0, 128.0, 256.0, 500.0]),
            dynamics.strichartz_report(decomp, ks=(4, 8, 16, 32)),
            dynamics.band_bound_report(decomp, ks=(4, 8, 16, 32, 64)),
            dynamics.norm_equivalence_probe(decomp),
            estimators.local_weyl_report(decomp, 0.0, lams)]


@pytest.fixture(scope="module")
def s2_kato_512():
    return operator_core.solve(potentials.truncated_counterexample(2),
                               geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 512)


def test_free_battery_builds_no_eigenvector_matrix(s2_free_512, monkeypatch):
    """The spectral-probe battery on a free K = 512 decomposition reads no
    eigenvector matrix and builds none, and every report row equals, bit
    for bit, that of the same decomposition with the dense identity as its
    eigenvectors."""
    free = s2_free_512
    dense = operator_core.SpectralDecomposition(free.eigenvalues, np.eye(free.size), free.basis)
    assert dense._vectors is not None
    expected = _spectral_battery(dense)
    monkeypatch.setattr(operator_core.SpectralDecomposition, "eigenvectors",
                        property(lambda self: pytest.fail("eigenvectors read")))
    reports = _spectral_battery(free)
    assert free._vectors is None
    assert [r.summary["verdict"] for r in reports] == ["pass"] * len(reports)
    for got, want in zip(reports, expected):
        assert np.asarray(got.rows).tobytes() == np.asarray(want.rows).tobytes()


def _square_function_per_column(decomp, F, family):
    """Reference: one GEMM per column of F, its pieces summed along a row."""
    freq = decomp.frequencies
    symbols = np.column_stack([np.asarray(beta(freq), dtype=float) for beta in family])
    U = decomp.node_values()
    out = []
    for g in F.T:
        pieces = U @ (symbols * decomp.project(g)[:, None])
        out.append(np.sqrt(np.sum(pieces ** 2, axis=1)))
    return np.column_stack(out)


def test_square_function_batch_matches_per_column_on_the_battery(s2_free_512):
    """The one-GEMM square function equals the per-column loop bit for bit on
    the three test-function batteries at K = 512, as a stack and column by
    column."""
    decomp = s2_free_512
    F = np.column_stack([f for preset in dynamics._PRESETS
                         for _, f in dynamics.test_battery(decomp, preset)])
    family = dynamics.default_lp_family(float(decomp.frequencies[-1]))
    expected = _square_function_per_column(decomp, F, family)
    assert dynamics.square_function(decomp, F).tobytes() == expected.tobytes()
    for j in range(F.shape[1]):
        assert dynamics.square_function(decomp, F[:, j]).tobytes() == expected[:, j].tobytes()


@given(scales=st.lists(st.floats(min_value=1.0, max_value=80.0), min_size=1, max_size=9,
                       unique=True),
       columns=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       kato=st.booleans())
@settings(max_examples=25, deadline=None)
def test_square_function_batch_matches_per_column(s2_free_512, s2_kato_512, scales, columns,
                                                  seed, kato):
    """On drawn partitions of unity (low-pass at drawn scales, then their
    differences, then the remainder) and drawn column stacks at K = 512, the
    one-GEMM square function equals the per-column loop bit for bit.  (On
    small products OpenBLAS may round a GEMM column differently with the
    number of columns: at K = 72, with 2 or 3 pieces, some stacks differ in
    their last bits.)"""
    decomp = s2_kato_512 if kato else s2_free_512
    psi = operator_core.lp_psi
    scales = sorted(scales)
    family = [lambda fr: psi(fr / scales[0])]
    family += [lambda fr, a=a, b=b: psi(fr / b) - psi(fr / a)
               for a, b in zip(scales, scales[1:])]
    family.append(lambda fr: 1.0 - psi(fr / scales[-1]))
    F = np.random.default_rng(seed).standard_normal((decomp.basis.grid.size, columns))
    expected = _square_function_per_column(decomp, F, family)
    assert dynamics.square_function(decomp, F, family=family).tobytes() == expected.tobytes()


def test_norm_equivalence_one_square_function_per_test_function(s2_free_72, monkeypatch):
    """One square_function call for the whole battery, with one column per
    test function, so the symbols and their check are built once."""
    calls = []
    original = dynamics.square_function

    def counting(decomp, f, *args, **kwargs):
        calls.append(np.shape(f))
        return original(decomp, f, *args, **kwargs)

    monkeypatch.setattr(dynamics, "square_function", counting)
    rs = (4 / 3, 2.0, 4.0)
    report = dynamics.norm_equivalence_probe(s2_free_72, rs=rs)
    assert calls == [(s2_free_72.basis.grid.size, len(report.rows) // len(rs))]


def test_besov_check_identity_symbol():
    val = dynamics.besov_check(lambda s: np.ones_like(np.asarray(s, float)),
                               1.0, lam_max=64.0, samples=2048)
    assert np.isfinite(val) and val > 0


def test_besov_check_sharp_cutoff_grows():
    """Negative control: a discontinuous symbol has H^1 localization norms
    that grow without bound as the sampling refines."""
    cut = lambda s: (np.asarray(s, float) <= 1.0).astype(float)
    vals = [dynamics.besov_check(cut, 1.0, lam_max=64.0, samples=m)
            for m in (1024, 4096, 16384)]
    assert vals[0] < vals[1] < vals[2]
