import pytest

from qlab import geometry, operator_core, potentials


def _zonal_decomp(n, K, V=None):
    return operator_core.solve(V, geometry.ModelManifold(geometry.SPHERE_ZONAL, n), K)


@pytest.fixture(scope="session")
def s2_free_24():
    """V = 0 on the zonal 2-sphere, truncation K = 24."""
    return _zonal_decomp(2, 24)


@pytest.fixture(scope="session")
def s2_free_72():
    """V = 0 on the zonal 2-sphere, truncation K = 72."""
    return _zonal_decomp(2, 72)


@pytest.fixture(scope="session")
def s2_free_512():
    """V = 0 on the zonal 2-sphere, truncation K = 512."""
    return _zonal_decomp(2, 512)


@pytest.fixture(scope="session")
def s2_kato_72():
    """Bounded (truncated) singular potential on S^2, truncation K = 72."""
    return _zonal_decomp(2, 72, potentials.truncated_counterexample(2))


@pytest.fixture(scope="session")
def s2_free_40():
    return _zonal_decomp(2, 40)


@pytest.fixture(scope="session")
def s2_kato_40():
    return _zonal_decomp(2, 40, potentials.truncated_counterexample(2))


@pytest.fixture(scope="session")
def s3_free_40():
    """V = 0 on the zonal 3-sphere (p_c = 4), truncation K = 40."""
    return _zonal_decomp(3, 40)
