import math

import mpmath
import numpy as np
import pytest

from qlab import cli, estimators, parametrix
from qlab.errors import ConfigError, DomainError


def test_k_half_identity():
    """K_{1/2}(z) = sqrt(pi/2z) e^{-z}, both evaluation routes."""
    for z in (0.3, 1.0, 2.5, 1.0 + 2.0j, 0.1 - 0.4j):
        oracle = np.sqrt(math.pi / (2 * complex(z))) * np.exp(-complex(z))
        assert abs(parametrix.bessel_k_integral(0.5, z) - oracle) <= 1e-10 * abs(oracle)
        assert abs(parametrix.bessel_k_asymptotic(0.5, z) - oracle) <= 1e-10 * abs(oracle)


@pytest.mark.parametrize("m", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("z", [0.2, 0.9, 1.7, 4.0, 0.5 + 1.5j, 3.0 - 5.0j])
def test_bessel_k_against_mpmath(m, z):
    oracle = complex(mpmath.besselk(m, mpmath.mpmathify(complex(z))))
    got = parametrix.bessel_k(m, z)
    assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_bessel_k_overlap_band_agreement():
    lo, hi = parametrix.OVERLAP_BAND
    for m in (0.0, 0.5, 1.5):
        for az in (lo, 1.0, hi):
            for ang in (0.0, -0.6, -1.3):
                z = az * complex(math.cos(ang), math.sin(ang))
                a = parametrix.bessel_k_integral(m, z)
                b = parametrix.bessel_k_asymptotic(m, z)
                assert abs(a - b) <= 1e-8 * abs(a)


def test_bessel_k_symmetry_and_domain():
    assert parametrix.bessel_k(-1.5, 2.0 + 1.0j) == parametrix.bessel_k(1.5, 2.0 + 1.0j)
    with pytest.raises(DomainError):
        parametrix.bessel_k(0.5, -1.0)
    with pytest.raises(DomainError):
        parametrix.bessel_k(0.5, 1j)


def test_bessel_k_small_argument_bounds():
    """|z K_1(z)| bounded, |K_0(z) / log(z/2)| bounded as z -> 0."""
    for z in (0.001, 0.01, 0.1):
        assert abs(parametrix.bessel_k(1.0, z)) * z <= 1.1
        assert abs(parametrix.bessel_k(0.0, z)) / abs(math.log(z / 2)) <= 1.0


@pytest.mark.parametrize("lam", [5.0, 50.0])
def test_f0_closed_form_3d(lam):
    for r in np.linspace(0.05, 1.0, 39):
        oracle = parametrix.f0_closed_form_3d(r, lam)
        got = parametrix.f_nu(3, 0, float(r), lam)
        assert abs(got - oracle) <= 1e-8 * abs(oracle)


def test_f_nu_domain_guards():
    with pytest.raises(DomainError):
        parametrix.f_nu(3, 0, -0.1, 5.0)
    with pytest.raises(DomainError):
        parametrix.f_nu(3, 0, 0.5, 0.5)
    with pytest.raises(DomainError):
        parametrix.f_nu(3, -1, 0.5, 5.0)


@pytest.mark.parametrize("n,lam", [(3, 5.0), (3, 50.0), (4, 20.0)])
def test_recursion_f1_to_f0(n, lam):
    assert parametrix.recursion_residual(n, lam) <= 1e-4


@pytest.mark.parametrize("n,lam,target", [(3, 20.0, -1.0), (4, 20.0, -2.0)])
def test_small_r_regime_slope(n, lam, target):
    """Local log-log slope of |F_0(r)| over the decade r in [0.02, 0.2]/lambda."""
    rs = np.geomspace(0.02 / lam, 0.2 / lam, 9)
    fit = estimators.fit_exponent(rs, [abs(parametrix.f_nu(n, 0, float(r), lam)) for r in rs])
    assert abs(fit.slope - target) <= 0.1


@pytest.mark.parametrize("n,target", [(3, 0.0), (4, 0.5), (5, 1.0)])
def test_lambda_regime_slope(n, target):
    """log-log slope of |F_0| against lambda at fixed r = 0.3."""
    lams = np.geomspace(8.0, 128.0, 9)
    fit = estimators.fit_exponent(lams, [abs(parametrix.f_nu(n, 0, 0.3, float(lam)))
                                         for lam in lams])
    assert abs(fit.slope - target) <= 0.1


def test_kernel_l6_slope():
    rep = parametrix.kernel_l6_check(np.geomspace(8.0, 256.0, 9))
    assert rep.verdict == "pass"
    assert abs(rep.summary["slope"] + 1.0 / 3.0) <= 0.05


def test_kernel_l6_delta_stability():
    a = parametrix.kernel_l6_value(256.0, 0.5)
    b = parametrix.kernel_l6_value(256.0, 1.0)
    assert abs(b - a) <= 0.01 * a


def test_kernel_l6_grid_guard():
    with pytest.raises(ConfigError):
        parametrix.kernel_l6_check([8.0, 16.0])


def test_kernel_table_rows():
    assert len(parametrix.kernel_table(3, 0, [0.1, 0.5], [5.0])) == 2


def test_kernel_table_csv(tmp_path):
    """The parametrix run writes the kernel table through the report's CSV
    writer."""
    rc = cli.main(["parametrix", "--rs", "0.1,0.5", "--lams", "5", "--l6_lams", "8",
                   "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "parametrix.csv").read_text().splitlines()
    assert text[0] == "r,lambda,re_f,im_f"
    assert len(text) == 3
