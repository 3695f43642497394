import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlab import geometry, operator_core, potentials
from qlab.errors import DomainError


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_counterexample_eigenfunction_identity(n):
    """(-Delta + V) f = 0, with the Laplacian from an independent
    closed-form differentiation of f (no reuse of the V formula)."""
    phi = np.linspace(0.05, math.pi - 0.05, 400)
    f = potentials.counterexample_eigenfunction(n, phi)
    lap = potentials.counterexample_eigenfunction_laplacian(n, phi)
    V = potentials.counterexample(n).fn(phi)
    resid = np.abs(-lap + V * f)
    assert np.all(resid <= 1e-8 * (1.0 + np.abs(lap)))


def test_counterexample_pole_blowup():
    f = potentials.counterexample_eigenfunction(3, np.array([1e-3, 1e-6, 1e-9]))
    assert f[0] < f[1] < f[2]
    assert f[2] > 2 * f[0]


def test_counterexample_l2_finite():
    grid = geometry.zonal_grid(3, 256, pole_levels=6)
    f = potentials.counterexample_eigenfunction(3, grid.nodes)
    assert np.isfinite(geometry.lp_norm(grid, f, 2.0))


def test_expression_parser_matches_numpy():
    V = potentials.parse_zonal_expression("cos(phi) / sin(phi) + pi")
    phi = np.linspace(0.1, 3.0, 17)
    assert np.allclose(V(phi), np.cos(phi) / np.sin(phi) + math.pi)


@pytest.mark.parametrize("bad", [
    "__import__('os')", "phi.real", "lambda x: x", "open('x')",
    "sin(phi)[0]", "unknown(phi)",
])
def test_expression_parser_rejects(bad):
    with pytest.raises(DomainError):
        potentials.parse_zonal_expression(bad)


def test_kato_weight_forms():
    r = np.array([0.01, 0.1])
    assert np.allclose(potentials.kato_weight(2, r), -np.log(r))
    assert np.allclose(potentials.kato_weight(4, r), r ** -2)


@pytest.mark.parametrize("n,r", [(3, 0.05), (3, 0.1), (4, 0.05)])
def test_kato_modulus_flat_ball_oracle(n, r):
    """For V = 1 the modulus equals the flat-ball closed form up to O(r^2)
    curvature corrections."""
    got = potentials.kato_modulus(potentials.constant(1.0), r, n)[0]
    oracle = potentials.flat_ball_kato_oracle(n, r)
    assert got == pytest.approx(oracle, rel=5 * r ** 2 + 1e-6)


def _exhaustive_kato_modulus(V, r, n):
    """Reference: every candidate center integrated, then one refinement at
    the argmax."""
    coarse = np.linspace(0.02, math.pi - 0.02, 64)
    centers = np.concatenate([np.asarray(V.singularities, dtype=float), coarse])
    vals = np.array([potentials._ball_integral(V, n, a, r, 0.5) for a in centers])
    best = float(np.max(vals))
    refined = potentials._ball_integral(V, n, float(centers[int(np.argmax(vals))]), r, 1.0)
    converged = abs(refined - best) <= 0.05 * max(abs(refined), 1e-300)
    return max(best, refined), converged


@pytest.mark.parametrize("name", ["counterexample", "truncated", "constant", "expression"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_kato_modulus_pruning_matches_exhaustive_sweep(name, n):
    """Integrating only the centers whose bound can still win gives the
    exhaustive sweep's modulus and flag bit for bit."""
    V = {"counterexample": lambda: potentials.counterexample(n),
         "truncated": lambda: potentials.truncated_counterexample(n),
         "constant": lambda: potentials.constant(-2.0),
         "expression": lambda: potentials.from_expression("1/sin(phi) + cos(3*phi)")}[name]()
    for r in (0.1, 0.01, 0.001):
        assert potentials.kato_modulus(V, r, n) == _exhaustive_kato_modulus(V, r, n)


def test_kato_report_integrates_few_balls(monkeypatch):
    """counterexample(3) needs at most 24 ball integrals over its three
    radii (201 for the exhaustive sweep): per radius one V = 1 reference,
    the few centers near the poles and one refinement."""
    calls = []
    original = potentials._ball_integral
    monkeypatch.setattr(potentials, "_ball_integral",
                        lambda *args: calls.append(1) or original(*args))
    rep = potentials.kato_report(potentials.counterexample(3), 3)
    assert rep.verdict == potentials.NOT_IN_KATO
    assert len(calls) <= 24


def test_kato_report_counterexample_not_in_kato():
    rep = potentials.kato_report(potentials.counterexample(3), 3)
    assert rep.verdict == potentials.NOT_IN_KATO
    assert rep.stagnation_ratio > 0.3


def test_kato_report_truncated_in_kato():
    rep = potentials.kato_report(potentials.truncated_counterexample(3), 3)
    assert rep.verdict == potentials.IN_KATO


_KATO_VS = {"constant": lambda n: potentials.constant(1.0),
            "truncated": potentials.truncated_counterexample,
            "critical": potentials.counterexample}


@pytest.mark.parametrize("name", list(_KATO_VS))
@pytest.mark.parametrize("n", [2, 3])
def test_kato_report_narrow_radii_are_inconclusive(n, name):
    """A bounded V's modulus falls like r^2 (r^2 |log r| at n = 2), so across
    radii 0.1 to 0.08 it keeps 0.64-0.70 of its top value, as the critical V
    does: below a 10x span no V is not-in-Kato."""
    rep = potentials.kato_report(_KATO_VS[name](n), n, radii=(0.1, 0.09, 0.08))
    assert rep.verdict == potentials.INCONCLUSIVE
    assert rep.stagnation_ratio > 0.3


@pytest.mark.parametrize("name", ["constant", "truncated"])
@pytest.mark.parametrize("n", [2, 3])
def test_kato_report_rejects_repeated_radii(n, name):
    with pytest.raises(DomainError, match="ball radii must be distinct"):
        potentials.kato_report(_KATO_VS[name](n), n, radii=(0.1, 0.1, 0.1))


def test_lq_norm_folds_an_even_v():
    """An even V is summed on the hemisphere fold of each pole-capped rule,
    which reads the whole north cap where the south cap is cut (s ~ 33.2):
    the L^{3/2} norm of the critical V on S^3 is 13.9505 (13.7736 on the
    full rules; the closed tail gives 15.12)."""
    assert potentials.ln_half_norm(potentials.counterexample(3), 3).value == pytest.approx(
        13.950476591909915, rel=1e-12)


def test_lq_norm_divergence_detection():
    V = potentials.counterexample(3)
    finite = potentials.potential_lq_norm(V, 3, 1.5)
    assert not finite.divergent and np.isfinite(finite.value)
    divergent = potentials.potential_lq_norm(V, 3, 1.75)
    assert divergent.divergent and math.isinf(divergent.value)


@pytest.mark.parametrize("n", [13, 18, 21, 400])
def test_lnhalf_norm_and_kato_modulus_stay_finite_far_up_in_n(n):
    """Far up in n, |V|^(n/2) overflows on the deepest cap nodes (from
    n = 13 on), the Kato weight dist^(2-n) overflows near the ball centre
    (NaN from n = 21 at r = 1e-3) and the bulk weights of the pole-capped
    rule underflow (DomainError at n = 400).  Only those terms are summed in
    logarithms, and only those nodes dropped: the critical V is in
    L^(n/2) at every n, so its norm is finite and not flagged divergent, and
    every Kato modulus and the stagnation ratio are finite."""
    V = potentials.counterexample(n)
    norm = potentials.ln_half_norm(V, n)
    assert math.isfinite(norm.value) and not norm.divergent
    rep = potentials.kato_report(V, n)
    assert all(map(math.isfinite, rep.moduli + (rep.stagnation_ratio,)))
    assert all(m > 0.0 for m in rep.moduli)


def test_truncated_counterexample_is_bounded():
    V = potentials.truncated_counterexample(3)
    phi = np.linspace(1e-6, math.pi - 1e-6, 3000)
    vals = V.fn(phi)
    assert np.all(np.isfinite(vals))
    assert V.smooth_bound is not None
    assert np.max(np.abs(vals)) <= V.smooth_bound


@given(t=st.floats(min_value=-2.0, max_value=3.0))
@settings(max_examples=50, deadline=None)
def test_smoothstep_range_and_monotonicity(t):
    s = potentials._smoothstep(np.array([t, t + 1e-3]))
    assert 0.0 <= s[0] <= 1.0
    assert s[1] >= s[0] - 1e-12


def test_kato_modulus_domain_guard():
    with pytest.raises(DomainError):
        potentials.kato_modulus(potentials.constant(1.0), 2.0, 3)[0]


def test_positivity_shift_zero_for_free():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    assert operator_core.solve(potentials.zero(), manifold, 8, shift="auto").shift == 1
    assert operator_core.solve(potentials.constant(-5.0), manifold, 8, shift="auto").shift == 6


@pytest.mark.parametrize("V", [potentials.counterexample(n) for n in (2, 3, 4, 5)]
                         + [potentials.truncated_counterexample(n, phi0)
                            for n in (2, 3, 5) for phi0 in (0.25, 0.3, 0.35)])
def test_even_potentials_are_mirror_symmetric(V):
    """Every potential annotated even satisfies V(pi - phi) = V(phi) to 1e-12
    relative on the bulk nodes of a Gauss grid."""
    assert V.even
    phi = geometry.zonal_grid(3, 200).nodes
    phi = phi[(phi >= 0.1) & (phi <= math.pi - 0.1)]
    v = V(phi)
    np.testing.assert_allclose(V(math.pi - phi), v, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(v)))


def test_only_the_counterexamples_are_annotated_even():
    assert not potentials.constant(-5.0).even
    assert not potentials.zero().even
    assert not potentials.from_expression("cos(phi)**2").even
