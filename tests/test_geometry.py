import hashlib
import math
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import geometry
from qlab.errors import DomainError, NumericError, ResolutionError


def test_sphere_volumes():
    assert geometry.sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert geometry.sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)


def test_sphere_volume_past_the_gamma_range():
    """vol(S^{n+2}) = 2 pi vol(S^n) / (n + 1) holds on both sides of S^342,
    where Gamma((n+1)/2) overflows and the volume comes from its logarithm;
    far beyond, where pi^((n+1)/2) overflows too, the volume is 0."""
    for n in range(336, 348):
        ratio = geometry.sphere_volume(n + 2) * (n + 1) / (2 * math.pi * geometry.sphere_volume(n))
        assert ratio == pytest.approx(1.0, rel=1e-10)
    assert geometry.sphere_volume(1300) == 0.0


def test_gauss_gegenbauer_legendre_moments():
    # alpha = 0 is Gauss-Legendre on [-1, 1]: integrates x^k exactly
    x, w = geometry.gauss_gegenbauer(8, 0.0)
    for k in range(0, 15):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert np.sum(w * x ** k) == pytest.approx(exact, abs=1e-14)


def test_gauss_gegenbauer_chebyshev_moments():
    # alpha = -1/2: weight (1-x^2)^{-1/2}, mu_0 = pi, mu_2 = pi/2
    x, w = geometry.gauss_gegenbauer(6, -0.5)
    assert np.sum(w) == pytest.approx(math.pi, rel=1e-14)
    assert np.sum(w * x ** 2) == pytest.approx(math.pi / 2, rel=1e-14)


GAUSS_ALPHAS = (-0.5, 0.0, 0.5, 1.0, 1.5)


def _mu0(alpha):
    return math.sqrt(math.pi) * math.gamma(alpha + 1.0) / math.gamma(alpha + 1.5)


def _mpmath_gauss(m, alpha):
    """Gauss rule for (1-x^2)^alpha from the roots of mpmath's Jacobi
    polynomial P_m^(alpha, alpha) at 50 digits, ascending."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        def poly(x):  # zeroprec: a root is 0, not a failed series
            return mpmath.jacobi(m, a, a, x, zeroprec=300)
        def deriv(x):
            return (m + 2 * a + 1) / 2 * mpmath.jacobi(m - 1, a + 1, a + 1, x)
        starts = [mpmath.cos(mpmath.pi * (i - 0.25 + a / 2) / (m + a + 0.5))
                  for i in range(m, 0, -1)]
        roots = [mpmath.findroot(poly, s, solver="newton", df=deriv) for s in starts]
        assert all(lo < hi for lo, hi in zip(roots, roots[1:]))  # m distinct roots
        scale = (2 ** (2 * a + 1) * mpmath.gamma(m + a + 1) ** 2
                 / (mpmath.gamma(m + 2 * a + 1) * mpmath.factorial(m)))
        weights = [scale / ((1 - x * x) * deriv(x) ** 2) for x in roots]
        return (np.array([float(x) for x in roots]),
                np.array([float(w) for w in weights]))


@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("m", [1, 2, 5, 16, 40])
def test_gauss_gegenbauer_matches_mpmath(m, alpha):
    x, w = geometry.gauss_gegenbauer(m, alpha)
    x_ref, w_ref = _mpmath_gauss(m, alpha)
    assert np.max(np.abs(x - x_ref)) <= 2e-15
    assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-13


@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
def test_gauss_gegenbauer_exact_to_degree_2m_minus_1(alpha):
    m = 64
    x, w = geometry.gauss_gegenbauer(m, alpha)
    for k in range(2 * m):
        got = float(np.sum(w * x ** k))
        if k % 2:
            assert abs(got) <= 1e-15 * _mu0(alpha)
        else:  # Beta((k+1)/2, alpha+1)
            exact = math.exp(math.lgamma((k + 1) / 2) + math.lgamma(alpha + 1)
                             - math.lgamma(k / 2 + alpha + 1.5))
            # x^k multiplies the few-ulp node error by k; near the endpoints,
            # which dominate large k, the weights carry up to ~m ulps
            assert got == pytest.approx(exact, rel=(k + m) * 1e-15)


@pytest.mark.parametrize("alpha", GAUSS_ALPHAS)
@pytest.mark.parametrize("m", [1, 2, 7, 64, 65])
def test_gauss_gegenbauer_exactly_symmetric(m, alpha):
    x, w = geometry.gauss_gegenbauer(m, alpha)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0)
    if m % 2:
        assert x[m // 2] == 0.0
    if m == 1:
        assert w[0] == pytest.approx(_mu0(alpha), rel=1e-15)
        assert math.fsum(w) == pytest.approx(_mu0(alpha), rel=1e-15)


@pytest.mark.parametrize("alpha", [-1.0, -1.5])
def test_gauss_gegenbauer_rejects_non_integrable_weight(alpha):
    with pytest.raises(DomainError, match="alpha"):
        geometry.gauss_gegenbauer(8, alpha)


@pytest.mark.parametrize("m,alpha,reason", [(16, 11.0, "did not converge"),
                                            (40, 12.0, "repeated or out-of-range")])
def test_gauss_gegenbauer_newton_failure_raises(m, alpha, reason, monkeypatch):
    # beyond the alpha bound the node estimates are too rough; with the bound
    # lifted, the rule must fail loudly, not return wrong nodes
    monkeypatch.setattr(geometry, "_ALPHA_MAX", math.inf)
    with pytest.raises(NumericError, match=reason):
        geometry.gauss_gegenbauer(m, alpha)


def test_gauss_gegenbauer_alpha_bound():
    """alpha = 10.5 (S^23) is the largest weight with a rule; alpha = 11 (S^24)
    is rejected before Newton starts, at every size."""
    x, w = geometry.gauss_gegenbauer(200, 10.5)
    assert np.all(np.diff(x) > 0) and math.fsum(w) == pytest.approx(_mu0(10.5), rel=1e-13)
    for m in (1, 12, 32):
        with pytest.raises(DomainError, match="n <= 23"):
            geometry.gauss_gegenbauer(m, 11.0)


@pytest.mark.parametrize("n", [23, 24, 25, 26, 40, 100])
def test_zonal_grid_lowers_the_weight_past_s23(n):
    """Up to S^23 the zonal Gauss grid is the rule of the S^n weight; from
    S^24 on it is the rule of (1-x^2)^(alpha-j) with its weights times
    (1-x^2)^j, on the j extra nodes that ``_default_axes`` counts: it keeps
    the exactness of 2K + 16 nodes (every even moment of cos(phi) up to
    degree 4K + 30 against a 50-digit Beta integral, to 1e-13), stays
    mirror-symmetric, and the default basis on it is orthonormal."""
    alpha, K = (n - 2) / 2.0, 8
    j = geometry._weight_drop(n)
    assert j == max(0, math.ceil(alpha - 10.5)) and (j == 0) == (n <= 23)
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, n)
    grid = geometry.default_grid(manifold, K)
    assert grid.size == 2 * K + 16 + j
    assert np.max(np.abs(grid.nodes + grid.nodes[::-1] - math.pi)) <= 1e-15
    assert np.array_equal(grid.weights, grid.weights[::-1])
    x = np.cos(grid.nodes)
    surf = geometry.sphere_volume(n - 1)
    for k in range(0, 4 * K + 31, 2):
        with mpmath.workdps(50):  # int x^k (1-x^2)^alpha dx = B((k+1)/2, alpha+1)
            exact = float(surf * mpmath.beta((k + 1) / mpmath.mpf(2), alpha + 1))
        assert math.fsum(grid.weights * x ** k) == pytest.approx(exact, rel=1e-13), k
    basis = geometry.build_basis(manifold, K)
    gram = basis.values.T @ (grid.weights[:, None] * basis.values)
    assert np.max(np.abs(gram - np.eye(K + 1))) <= 1e-14


def test_panel_gauss_cache_is_read_only():
    x0, w0 = geometry._gauss_rule(8, 0.0)
    with pytest.raises(ValueError):
        x0[0] = 0.0
    x, w = geometry._panel_gauss(0.0, 2.0, 3, 8)
    x[:] = 0.0  # the composite rule is a fresh array; the cache is untouched
    again, w_again = geometry._panel_gauss(0.0, 2.0, 3, 8)
    assert np.sum(w_again) == pytest.approx(2.0, rel=1e-14)
    assert np.sum(w_again * again ** 2) == pytest.approx(8.0 / 3.0, rel=1e-14)


@given(n=st.integers(min_value=2, max_value=6),
       size=st.integers(min_value=8, max_value=120))
@settings(max_examples=25, deadline=None)
def test_zonal_grid_volume(n, size):
    grid = geometry.zonal_grid(n, size)
    assert np.all(grid.weights > 0)
    assert float(np.sum(grid.weights)) == pytest.approx(
        geometry.sphere_volume(n), rel=1e-12)


def test_zonal_grid_pole_refinement_volume():
    grid = geometry.zonal_grid(3, 64, pole_levels=6)
    assert float(np.sum(grid.weights)) == pytest.approx(
        geometry.sphere_volume(3), rel=1e-12)
    assert np.all(grid.nodes > 0) and np.all(grid.nodes < math.pi)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("levels", [7, 8])
def test_zonal_grid_deep_pole_levels(n, levels):
    """Level 8 grades the caps out to s = 256, where sin^{n-1}(e^{-s})
    underflows for n >= 3; those nodes are dropped, and the grid still
    integrates 1 to the sphere volume."""
    grid = geometry.zonal_grid(n, 144, pole_levels=levels)
    assert np.all(grid.weights > 0)
    vol = geometry.sphere_volume(n)
    assert abs(float(np.sum(grid.weights)) - vol) <= 1e-13 * vol


def test_pole_capped_grids_up_to_level_7_unchanged():
    """SHA-256 over nodes and weights of the pole-capped grids with caps up
    to s = 128 (zonal_grid levels 2..7, the potential_lq_norm rules), as
    built before underflowed cap nodes were dropped."""
    h = hashlib.sha256()
    for n in range(2, 6):
        for levels in range(2, 8):
            for size in (16, 144, 1040):
                grid = geometry.zonal_grid(n, size, pole_levels=levels)
                h.update(grid.nodes.tobytes())
                h.update(grid.weights.tobytes())
        for step in range(3):
            per_unit = 2 * 4 ** step
            grid = geometry._pole_capped_grid(n, 8 * per_unit, 40.0 + 8.0 * step, per_unit)
            h.update(grid.nodes.tobytes())
            h.update(grid.weights.tobytes())
    assert h.hexdigest() == "436520bb80ef6565ea8f0fdba45a3f7833e85c8a2b6e434607a00eb62e3630fe"


def test_torus_and_full_sphere_volumes():
    grid = geometry.torus_grid(3, 10)
    assert float(np.sum(grid.weights)) == pytest.approx((2 * math.pi) ** 3,
                                                        rel=1e-12)
    grid2 = geometry.full_sphere_grid(16, 32)
    assert float(np.sum(grid2.weights)) == pytest.approx(4 * math.pi, rel=1e-12)


@pytest.mark.parametrize("kind,n,K", [
    (geometry.SPHERE_ZONAL, 2, 16),
    (geometry.SPHERE_ZONAL, 4, 12),
    (geometry.SPHERE_FULL_2D, 2, 6),
    (geometry.TORUS, 2, 3),
])
def test_basis_orthonormality(kind, n, K):
    manifold = geometry.ModelManifold(kind, n)
    basis = geometry.build_basis(manifold, K)
    V = basis.values
    gram = (V * basis.grid.weights[:, None]).conj().T @ V
    assert np.allclose(gram, np.eye(gram.shape[0]), atol=1e-10)


def test_zonal_eigenfrequencies():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    basis = geometry.build_basis(manifold, 10)
    ks = np.arange(11.0)
    assert np.allclose(basis.freqs ** 2, ks * (ks + 1), atol=1e-12)


def test_lp_norm_constant_function():
    grid = geometry.zonal_grid(2, 32)
    ones = np.ones(grid.size)
    vol = geometry.sphere_volume(2)
    assert geometry.lp_norm(grid, ones, 2.0) == pytest.approx(math.sqrt(vol))
    assert geometry.lp_norm(grid, ones, math.inf) == pytest.approx(1.0)


def test_basis_resolution_guard():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    grid = geometry.zonal_grid(2, 8)
    with pytest.raises(ResolutionError):
        geometry.build_basis(manifold, 32, grid=grid)


def test_bad_manifold_rejected():
    with pytest.raises(DomainError):
        geometry.ModelManifold("klein-bottle", 2)
    with pytest.raises(DomainError):
        geometry.ModelManifold(geometry.SPHERE_ZONAL, 1)


def _full_sphere_reference(basis, points):
    """One column per mode, as FullSphereBasis evaluated before its
    per-order vectorization."""
    phi, theta = points[:, 0], points[:, 1]
    K = max(k for k, _, _ in basis.modes)
    ptab = {m: geometry._normalized_assoc_legendre(K, m, phi) for m in range(K + 1)}
    cols = []
    for k, m, parity in basis.modes:
        radial = ptab[m][k - m]
        if m == 0:
            cols.append(radial)
        elif parity == "c":
            cols.append(math.sqrt(2.0) * radial * np.cos(m * theta))
        else:
            cols.append(math.sqrt(2.0) * radial * np.sin(m * theta))
    return np.column_stack(cols)


@pytest.mark.parametrize("K", [0, 1, 5, 16, 31])
def test_full_sphere_values_match_per_mode_loop(K):
    """The per-order evaluation reproduces the per-mode loop bit for bit,
    signed zeros included, on the grid and at off-grid points."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2), K)
    ref = _full_sphere_reference(basis, basis.grid.nodes)
    assert basis.values.flags.c_contiguous
    assert basis.values.tobytes() == ref.tobytes()
    points = np.array([[0.0, 0.0], [0.3, 1.7], [math.pi, 4.0]])
    assert basis.evaluate(points).tobytes() == _full_sphere_reference(basis, points).tobytes()


@pytest.mark.parametrize("n,K,levels", [(2, 64, 0), (3, 32, 6)])
def test_zonal_values_match_normalized_table(n, K, levels):
    """Zonal values are the Gegenbauer table divided by its quadrature norms,
    bit for bit."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, n)
    basis = geometry.build_basis(manifold, K, geometry.default_grid(manifold, K, levels))
    table = geometry._gegenbauer_table(K, (n - 1) / 2.0, np.cos(basis.grid.nodes))
    norms = np.sqrt(np.sum(basis.grid.weights * table ** 2, axis=1))
    assert basis.values.tobytes() == (table / norms[:, None]).T.tobytes()


def test_zonal_bases_unchanged():
    """SHA-256 over the values and norms of zonal bases at n = 2..5, K up to
    512, on Gauss and pole-capped grids, recorded from the out-of-place
    recurrence a * x * c[k-1] - b * c[k-2] and a full N x J normalization."""
    h = hashlib.sha256()
    for n in (2, 3, 4, 5):
        for K in (0, 1, 2, 7, 64, 512):
            for levels in (0, 6):
                grid = geometry.zonal_grid(n, 2 * K + 16, pole_levels=levels)
                basis = geometry.ZonalSphereBasis(n, K, grid)
                h.update(np.ascontiguousarray(basis.values).tobytes())
                h.update(basis._norms.tobytes())
    assert h.hexdigest() == "04fb28ec69721716971ba0f836270049a7ae0fd4340c6c40f5e826d05e2d8178"


@given(n=st.integers(min_value=2, max_value=5), K=st.integers(min_value=0, max_value=600),
       extra=st.lists(st.floats(min_value=0.0, max_value=math.pi), max_size=3))
@settings(max_examples=40, deadline=None)
def test_gegenbauer_scalar_rows_match_array_table(n, K, extra):
    """The Python-float recurrence of a few points reproduces the array
    recurrence bit for bit, at the poles, the equator and random angles."""
    x = np.cos(np.array([0.0, math.pi, math.pi / 2] + extra))
    lam = (n - 1) / 2.0
    with mock.patch.object(geometry, "_SCALAR_POINTS", x.size):
        rows = geometry._gegenbauer_table(K, lam, x)
    with mock.patch.object(geometry, "_SCALAR_POINTS", 0):
        table = geometry._gegenbauer_table(K, lam, x)
    assert rows.flags.c_contiguous and rows.shape == table.shape == (K + 1, x.size)
    assert rows.tobytes() == table.tobytes()


def test_pole_rows_take_the_scalar_path(monkeypatch):
    """pole_values and a one-point evaluate recur on Python floats, and the
    grid table on arrays (built here first: the zonal table and its norms are
    built on the first read of values, evaluate or pole_values)."""
    calls = []
    multiply = np.multiply

    def record(*args, **kwargs):
        calls.append(1)
        return multiply(*args, **kwargs)

    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 64)
    basis.values
    monkeypatch.setattr(geometry.np, "multiply", record)
    basis.pole_values
    basis.evaluate(0.7)
    assert calls == []
    geometry._gegenbauer_table(64, 0.5, np.cos(basis.grid.nodes))
    assert len(calls) == 2 * 63


@pytest.mark.parametrize("n,size,levels", [(2, 7, 0), (3, 8, 0), (3, 31, 0), (5, 144, 0),
                                           (3, 144, 6), (2, 272, 6)])
def test_hemisphere_folds_even_integrands(n, size, levels):
    """The fold is a prefix of the grid with doubled weights (an equator node
    keeps its own), and integrates even integrands as the full rule does."""
    grid = geometry.zonal_grid(n, size, pole_levels=levels)
    half = geometry.hemisphere(grid)
    h = half.size
    assert np.array_equal(half.nodes, grid.nodes[:h])
    assert np.all(grid.nodes[h:] > math.pi / 2)
    equator = half.nodes[-1] == math.pi / 2
    assert equator == (levels == 0 and size % 2 == 1)
    north = h - int(equator)
    assert np.array_equal(half.weights[:north], 2.0 * grid.weights[:north])
    if equator:
        assert half.weights[-1] == grid.weights[h - 1]
    for f in (lambda phi: np.ones_like(phi), lambda phi: np.cos(phi) ** 4 + np.sin(phi)):
        full = grid.integrate(f(grid.nodes))
        assert abs(half.integrate(f(half.nodes)) - full) <= 1e-14 * abs(full)


def test_hemisphere_rejects_product_grids():
    with pytest.raises(DomainError, match="zonal"):
        geometry.hemisphere(geometry.full_sphere_grid(8, 16))


def test_grid_shape_matches_its_nodes():
    """A full-S^2 product grid keeps its (n_phi, n_theta) axes, phi-major;
    every other grid has shape (); a shape whose product is not the node
    count is refused, and the full-S^2 basis refuses a grid without axes."""
    grid = geometry.full_sphere_grid(6, 10)
    assert grid.shape == (6, 10)
    assert np.array_equal(grid.nodes[::10, 0], np.unique(grid.nodes[:, 0]))
    assert np.array_equal(grid.nodes[:10, 1], np.unique(grid.nodes[:, 1]))
    for other in (geometry.zonal_grid(3, 20), geometry.zonal_grid(3, 20, pole_levels=6),
                  geometry.torus_grid(2, 6)):
        assert other.shape == ()
    with pytest.raises(DomainError, match=r"shape \(6, 11\) does not match its 60 nodes"):
        geometry.QuadratureGrid(grid.manifold, grid.nodes, grid.weights, shape=(6, 11))
    with pytest.raises(DomainError, match="shape"):
        geometry.FullSphereBasis(4, replace(grid, shape=()))
