import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import geometry
from qlab.errors import DomainError, ResolutionError


def test_sphere_volumes():
    assert geometry.sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert geometry.sphere_volume(3) == pytest.approx(2 * math.pi ** 2, rel=1e-15)


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


def test_panel_gauss_cache_is_read_only():
    x0, w0 = geometry._gauss_legendre(8)
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
    assert grid.pole_refined
    assert float(np.sum(grid.weights)) == pytest.approx(
        geometry.sphere_volume(3), rel=1e-12)
    assert np.all(grid.nodes > 0) and np.all(grid.nodes < math.pi)


def test_torus_and_full_sphere_volumes():
    grid = geometry.torus_grid(3, 10)
    assert float(np.sum(grid.weights)) == pytest.approx((2 * math.pi) ** 3,
                                                        rel=1e-12)
    grid2 = geometry.full_sphere_grid(16)
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
