import hashlib
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlab import geometry, operator_core, potentials
from qlab.errors import DomainError, NumericError


def test_two_by_two_closed_form():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    decomp = operator_core.diagonalize(A)
    assert np.allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eigensolver_matches_numpy_oracle():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((40, 40))
    A = (A + A.T) / 2
    decomp = operator_core.diagonalize(A)
    oracle = np.linalg.eigvalsh(A)
    assert np.allclose(decomp.eigenvalues, oracle, atol=1e-12)
    # eigenvector residuals
    R = A @ decomp.eigenvectors - decomp.eigenvectors * decomp.eigenvalues
    assert np.max(np.abs(R)) < 1e-11


@given(size=st.integers(min_value=1, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       integer=st.booleans(), log_scale=st.integers(min_value=-6, max_value=6))
@settings(max_examples=60, deadline=None)
def test_diagonalize_contract_on_random_symmetric(size, seed, integer, log_scale):
    """Sort, sign, residual and orthogonality on random symmetric matrices;
    small integer entries give repeated eigenvalues."""
    rng = np.random.default_rng(seed)
    B = (rng.integers(-2, 3, (size, size)) if integer
         else rng.standard_normal((size, size))) * 10.0 ** log_scale
    A = (B + B.T) / 2
    decomp = operator_core.diagonalize(A)
    mu, V = decomp.eigenvalues, decomp.eigenvectors
    assert np.all(np.diff(mu) >= 0.0)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(size)] > 0.0)
    assert np.linalg.norm(A @ V - V * mu, 2) <= 1e-12 * np.linalg.norm(A, 2)
    assert np.linalg.norm(V.T @ V - np.eye(size), 2) <= 1e-12


def _eigh_reference(A, values):
    """diagonalize's eigh path: eigh, stable sort, sign rule, then the node
    values as one GEMM."""
    mu, vecs = np.linalg.eigh(0.5 * (A + A.T))
    order = np.argsort(mu, kind="stable")
    mu, vecs = mu[order], vecs[:, order]
    signs = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    vecs = vecs * signs
    return mu, vecs, values @ vecs


_DIAGONAL_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 6.0, -3.5]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@given(diag=st.lists(_DIAGONAL_ENTRIES, min_size=1, max_size=30),
       ascending=st.booleans(), fortran=st.booleans(),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
# eigh rescales a matrix whose largest |entry| is below about 1.4e-146 and is
# then off by an ulp, so the diagonal shortcut must not take this one
@example(diag=[0.0, 5.339253999904105e-154], ascending=False, fortran=False, seed=0)
def test_diagonalize_diagonal_matches_eigh_bit_for_bit(diag, ascending, fortran, seed):
    """On diagonal matrices (repeated, negative and -0.0 entries included),
    ascending or not, diagonalize returns the eigh path's eigenvalues,
    eigenvectors and C-contiguous node values bit for bit, and so do its
    projections, its syntheses (on the grid and at other points) and its
    pole, band and point rows, on inputs holding -0.0.  The diagonal
    shortcut builds no eigenvector matrix for any of these."""
    d = np.sort(diag, kind="stable") if ascending else np.array(diag)
    A = np.diag(d)
    rng = np.random.default_rng(seed)

    def draw(*shape):  # standard normal, with about a quarter of the entries -0.0
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.25] = -0.0
        return x

    values = draw(d.size + 5, d.size)
    if fortran:  # the zonal basis stores its values in F order
        values = np.asfortranarray(values)
    grid = geometry.QuadratureGrid(None, np.arange(d.size + 5.0),
                                   rng.uniform(0.5, 2.0, d.size + 5))
    basis = geometry.Basis(None, 0, grid, np.zeros(d.size), values)
    decomp = operator_core.diagonalize(A, basis)
    mu, vecs, nodes = _eigh_reference(A, values)
    f, c = draw(d.size + 5), draw(d.size)
    poles = draw(d.size, 2).T  # two rows in F order, as pole_values
    point = draw(1, d.size)
    band = np.flatnonzero(rng.random(d.size) < 0.5)
    products = [(decomp.project(f), vecs.T @ basis.project(f)),
                (decomp.synthesize(c), values @ (vecs @ c)),
                (decomp.synthesize(c, poles), poles @ (vecs @ c)),
                (decomp.values_at(poles), poles @ vecs),
                (decomp.values_at(poles[:1]), poles[:1] @ vecs),
                (decomp.values_at(poles, band), poles @ vecs[:, band]),
                (decomp.values_at(point), point @ vecs)]
    node_values = decomp.node_values()
    top = float(np.max(np.abs(d)))
    lo, hi = operator_core._EIGH_UNSCALED
    shortcut = bool(np.all(d[1:] >= d[:-1])) and (top == 0.0 or lo <= top <= hi)
    assert (decomp._vectors is None) == shortcut
    assert decomp.eigenvalues.tobytes() == mu.tobytes()
    assert decomp.eigenvectors.tobytes() == vecs.tobytes()
    for got, expected in products:
        assert got.shape == expected.shape and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()
    assert node_values.flags.c_contiguous and not node_values.flags.writeable
    assert node_values.tobytes() == nodes.tobytes()
    assert not np.shares_memory(node_values, values)


def test_diagonalize_free_matrices_skip_eigh(monkeypatch):
    """Every free Galerkin matrix is diagonal and ascending, so none reaches
    eigh; the free spectra stay exact."""
    def fail(a):
        raise AssertionError("eigh called on a free matrix")
    monkeypatch.setattr(operator_core.np.linalg, "eigh", fail)
    for kind, n, K in ((geometry.SPHERE_ZONAL, 2, 64), (geometry.SPHERE_FULL_2D, 2, 8),
                       (geometry.TORUS, 2, 6), (geometry.TORUS, 3, 3)):
        decomp = operator_core.solve(None, geometry.ModelManifold(kind, n), K)
        assert np.array_equal(decomp.eigenvalues, np.rint(decomp.basis.freqs ** 2))


@given(size=st.integers(min_value=3, max_value=40),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       integer=st.booleans(), shared=st.booleans())
@settings(max_examples=60, deadline=None)
def test_diagonalize_parity_blocks_contract(size, seed, integer, shared):
    """A non-diagonal symmetric matrix with exact zeros between even and odd
    indices is solved by parity blocks: eigenvalues ascend, the sign rule holds,
    residual and orthogonality stay below 1e-12, every eigenvector lives on
    one parity, and within a tie the even ones come first.  ``shared`` gives
    the odd block the even block's leading part, so eigenvalues repeat
    exactly across the blocks."""
    rng = np.random.default_rng(seed)
    B = (rng.integers(-2, 3, (size, size)) if integer
         else rng.standard_normal((size, size))).astype(float)
    A = (B + B.T) / 2
    A[0::2, 1::2] = 0.0
    A[1::2, 0::2] = 0.0
    if A[0, 2] == 0.0:  # a diagonal matrix takes the full eigh path
        A[0, 2] = A[2, 0] = 1.0
    if shared:
        no = A[1::2, 1::2].shape[0]
        A[1::2, 1::2] = A[0::2, 0::2][:no, :no]
    decomp = operator_core.diagonalize(A)
    mu, V = decomp.eigenvalues, decomp.eigenvectors
    assert np.all(np.diff(mu) >= 0.0)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(size)] > 0.0)
    scale = max(np.linalg.norm(A, 2), 1e-300)
    assert np.linalg.norm(A @ V - V * mu, 2) <= 1e-12 * scale
    assert np.linalg.norm(V.T @ V - np.eye(size), 2) <= 1e-12
    even = ~np.any(V[1::2], axis=0)
    assert np.all(even | ~np.any(V[0::2], axis=0))
    tie = mu[1:] == mu[:-1]
    assert not np.any(tie & ~even[:-1] & even[1:])
    mu_ref, V_ref = _parity_reference(A)
    assert mu.tobytes() == mu_ref.tobytes()
    assert V.tobytes() == V_ref.tobytes()  # signed zeros included


def _parity_reference(A):
    """The parity path as first written: both blocks merged into a zero J x J
    matrix, sorted by a column copy, then the sign rule on the whole matrix."""
    A = 0.5 * (A + A.T)
    (mu_e, vec_e), (mu_o, vec_o) = np.linalg.eigh(A[0::2, 0::2]), np.linalg.eigh(A[1::2, 1::2])
    ne = mu_e.size
    mu = np.concatenate([mu_e, mu_o])
    vecs = np.zeros(A.shape)
    vecs[0::2, :ne] = vec_e
    vecs[1::2, ne:] = vec_o
    order = np.argsort(mu, kind="stable")
    mu, vecs = mu[order], vecs[:, order]
    signs = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return mu, vecs * signs


@given(size=st.integers(min_value=2, max_value=40),
       nclasses=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       integer=st.booleans(), twins=st.booleans(), couple=st.booleans())
@settings(max_examples=80, deadline=None)
def test_diagonalize_class_merge_contract(size, nclasses, seed, integer, twins, couple):
    """A non-diagonal symmetric matrix with exact zeros between the classes of
    a random interleaved label vector, solved with those labels: eigenvalues
    ascend, the sign rule holds, residual and orthogonality stay below
    1e-12, every eigenvector lives on one class, ties across classes list
    the class with the lower first index first, and the result is the
    per-class reference bit for bit.  ``twins`` copies the block of the
    first class into the second where they have one size (equal spectra,
    shared eigh); ``couple`` joins two classes by one entry, which merges
    them."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, nclasses, size) * 7 + 3  # any integers name the classes
    B = (rng.integers(-2, 3, (size, size)) if integer
         else rng.standard_normal((size, size))).astype(float)
    A = (B + B.T) / 2
    A[labels[:, None] != labels[None, :]] = 0.0
    firsts = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    firsts.sort(key=lambda idx: idx[0])
    if twins and len(firsts) > 1 and firsts[0].size == firsts[1].size:
        A[np.ix_(firsts[1], firsts[1])] = A[np.ix_(firsts[0], firsts[0])]
    merged = labels.copy()
    if couple and len(firsts) > 2:
        i, j = firsts[1][0], firsts[2][-1]
        A[i, j] = A[j, i] = 0.5
        merged[firsts[2]] = labels[i]
    pairs = [idx for idx in firsts if idx.size > 1]
    if not pairs:
        return  # every class is one index: a diagonal matrix, solved whole
    i, j = pairs[0][:2]
    if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
        A[i, j] = A[j, i] = 1.0  # a diagonal matrix takes the whole-matrix path
    decomp = operator_core.diagonalize(A, SimpleNamespace(classes=labels))
    mu, V = decomp.eigenvalues, decomp.eigenvectors
    assert np.all(np.diff(mu) >= 0.0)
    assert np.all(V[np.argmax(np.abs(V), axis=0), np.arange(size)] > 0.0)
    scale = max(np.linalg.norm(A, 2), 1e-300)
    assert np.linalg.norm(A @ V - V * mu, 2) <= 1e-12 * scale
    assert np.linalg.norm(V.T @ V - np.eye(size), 2) <= 1e-12
    support = [np.unique(merged[np.flatnonzero(V[:, c])]) for c in range(size)]
    assert all(s.size == 1 for s in support)
    first = {c: int(np.flatnonzero(merged == c)[0]) for c in np.unique(merged)}
    lowest = np.array([first[s[0]] for s in support])
    tie = (mu[1:] == mu[:-1]) & (lowest[1:] != lowest[:-1])
    assert np.all(lowest[:-1][tie] < lowest[1:][tie])
    mu_ref, V_ref = _class_reference(A, merged)
    assert mu.tobytes() == mu_ref.tobytes()
    assert V.tobytes() == V_ref.tobytes()  # signed zeros included


def _class_reference(A, labels):
    """One eigh per class in the order of its lowest index, the spectra
    concatenated and scattered into a zero J x J matrix, sorted by a column
    copy, then the sign rule on the whole matrix."""
    A = 0.5 * (A + A.T)
    classes = sorted((np.flatnonzero(labels == c) for c in np.unique(labels)),
                     key=lambda idx: idx[0])
    parts = [np.linalg.eigh(A[np.ix_(idx, idx)]) for idx in classes]
    mu = np.concatenate([w for w, _ in parts])
    vecs = np.zeros(A.shape)
    start = 0
    for idx, (w, v) in zip(classes, parts):
        vecs[np.ix_(idx, np.arange(start, start + w.size))] = v
        start += w.size
    order = np.argsort(mu, kind="stable")
    mu, vecs = mu[order], vecs[:, order]
    signs = np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return mu, vecs * signs


def test_checked_critical_solve_calls_eigh_on_parity_blocks(monkeypatch):
    """The checked critical solve at n = 4, K = 64 (J = 65) runs eigh on the
    33- and 32-mode parity blocks only, never on the J x J matrix, and
    returns the full-matrix eigenvalues."""
    shapes = []
    eigh = np.linalg.eigh

    def record(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(operator_core.np.linalg, "eigh", record)
    decomp = operator_core.solve(potentials.counterexample(4),
                                 geometry.ModelManifold(geometry.SPHERE_ZONAL, 4), 64)
    assert sorted(shapes) == [(32, 32), (33, 33)]
    monkeypatch.undo()
    A = operator_core.assemble(potentials.counterexample(4), decomp.basis, check=True)
    ref = np.linalg.eigvalsh(A)
    assert np.max(np.abs(decomp.eigenvalues - ref)) <= 1e-13 * np.linalg.norm(A, 2)


def test_eigensolver_bit_deterministic():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((30, 30))
    A = (A + A.T) / 2
    d1 = operator_core.diagonalize(A)
    d2 = operator_core.diagonalize(A.copy())
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)


def test_diagonalize_rejects_non_square_and_non_symmetric():
    with pytest.raises(DomainError, match="square"):
        operator_core.diagonalize(np.ones((3, 2)))
    A = np.arange(9.0).reshape(3, 3)
    with pytest.raises(DomainError, match="symmetric"):
        operator_core.diagonalize(A)


def test_near_symmetric_matrix_is_symmetrized():
    """A matrix symmetric to rounding is solved as 0.5 (A + A^T); one that
    holds NaN or inf, or an entry whose symmetrization overflows, is rejected
    as not finite."""
    rng = np.random.default_rng(5)
    S = rng.standard_normal((24, 24))
    S = S + S.T
    B = S + 1e-14 * rng.standard_normal(S.shape)
    d1 = operator_core.diagonalize(B)
    d2 = operator_core.diagonalize(0.5 * (B + B.T))
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.eigenvectors, d2.eigenvectors)
    for bad in (np.nan, np.inf, 0.6 * np.finfo(float).max):
        T = S.copy()
        T[3, 3] = bad
        with pytest.raises(NumericError, match="not finite"):
            operator_core.diagonalize(T)


def test_diagonalize_maps_solver_failure_to_numeric_error(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(operator_core.np.linalg, "eigh", fail)
    with pytest.raises(NumericError, match="did not converge"):
        operator_core.diagonalize(np.array([[2.0, 1.0], [1.0, 2.0]]))


def test_positivity_shift_forgives_round_off():
    rule = operator_core._positivity_shift
    assert rule(np.array([np.nextafter(-5.0, -np.inf), 2.0])) == 6
    assert rule(np.array([-5.0, 2.0])) == 6
    assert rule(np.array([-5.5, 2.0])) == 7
    assert rule(np.array([1.0, 2.0])) == 0
    assert rule(np.array([0.5, 2.0])) == 1


def test_free_zonal_s3_spectrum_exact():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 3)
    ks = np.arange(65.0)
    assert np.array_equal(operator_core.solve(None, manifold, 64).eigenvalues, ks * (ks + 2))


def test_node_values_cached_read_only():
    decomp = operator_core.solve(None, geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 24)
    first = decomp.node_values()
    assert decomp.node_values() is first
    assert not first.flags.writeable
    assert np.array_equal(first, decomp.basis.values @ decomp.eigenvectors)


def test_free_sphere_spectrum(s2_free_24):
    ks = np.arange(25.0)
    assert np.allclose(s2_free_24.eigenvalues, ks * (ks + 1), atol=1e-10)


def test_counterexample_zero_eigenvalue():
    """The singular potential has the explicit zero mode f: the lowest
    Galerkin eigenvalue of the checked solve sits near 0 and roughly halves
    with each doubling of the truncation."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 3)
    V = potentials.counterexample(3)
    lows = [float(operator_core.solve(V, manifold, K).eigenvalues[0]) for K in (32, 128)]
    assert lows[0] == pytest.approx(0.0430, abs=1e-4)
    assert lows[1] == pytest.approx(0.0126, abs=1e-4)


_S3 = geometry.ModelManifold(geometry.SPHERE_ZONAL, 3)
_EPS = np.finfo(float).eps


@pytest.mark.parametrize("a", [1, 3])
def test_manufactured_ground_state_on_s3(a):
    """f = exp(a cos phi) > 0 solves H_V f = 0 for V_a = a^2 sin^2 phi -
    3 a cos phi on S^3, so 0 is the bottom of the spectrum.  V_a is not even,
    so its block reads the odd cosine moments (subtrahend cos phi): mu_0 >=
    -eps ||A|| at every K, and once K passes the coefficient tail of f
    (K = 32), |mu_0| <= eps ||A|| and the ground state is f / ||f||_2 to
    1e-14 in L^2 on the solve's grid."""
    V = potentials.from_expression(f"{a * a}*sin(phi)**2 - {3 * a}*cos(phi)")
    assert not V.even
    for K in (8, 16, 32):
        decomp = operator_core.solve(V, _S3, K)
        A = operator_core.assemble(V, decomp.basis, check=True)
        floor = _EPS * np.linalg.norm(A, 2)
        assert decomp.eigenvalues[0] >= -floor
    assert abs(decomp.eigenvalues[0]) <= floor
    grid = decomp.basis.grid
    f = np.exp(a * np.cos(grid.nodes))
    f /= math.sqrt(np.sum(grid.weights * f * f))
    u = decomp.node_values()[:, 0]
    assert math.sqrt(np.sum(grid.weights * (u - f) ** 2)) <= 1e-14


def test_critical_zero_mode_oracle_on_s3():
    """Rayleigh-Ritz on the exact Galerkin block of the critical V (f =
    -ln(sin(phi)/2) > 0 in H^1, H_V f = 0): mu_0(K) >= -eps ||A|| for K = 64
    .. 512, with a fitted slope of log mu_0 against log K of -1 within 0.1
    (K^{-(n-2)}; the next exponent, 0, is far outside), and the values of
    the exact block pinned to 7 digits."""
    V = potentials.counterexample(3)
    Ks = (64, 128, 256, 512)
    lows = []
    for K in Ks:
        decomp = operator_core.solve(V, _S3, K)
        A = operator_core.assemble(V, decomp.basis, check=True)
        assert decomp.eigenvalues[0] >= -_EPS * np.linalg.norm(A, 2)
        lows.append(float(decomp.eigenvalues[0]))
    slope = np.polyfit(np.log(Ks), np.log(lows), 1)[0]
    assert abs(slope + 1.0) <= 0.1, slope
    pins = {32: 4.2963965e-2, 128: 1.2629002e-2, 256: 6.629920e-3, 512: 3.438251e-3}
    for K, mu in pins.items():
        low = lows[Ks.index(K)] if K in Ks else float(
            operator_core.solve(V, _S3, K).eigenvalues[0])
        assert low == pytest.approx(mu, rel=2e-7), K


def test_s3_blocks_nest():
    """Entry (j, k) of the S^3 block reads d_|j-k| and d_(j+k+2) only, so the
    leading 257 x 257 block of the checked critical matrix at K = 512
    matches the K = 256 matrix to 1e-12 of its largest entry."""
    V = potentials.counterexample(3)
    big, small = (operator_core.assemble(V, geometry.build_basis(_S3, K), check=True)
                  for K in (512, 256))
    assert np.max(np.abs(big[:257, :257] - small)) <= 1e-12 * np.max(np.abs(small))


@pytest.mark.parametrize("expr", ["sin(phi)-0.5", "exp(cos(phi))", "truncated"])
def test_s3_block_matches_a_resolving_rule(expr):
    """The S^3 block of a bounded V matches the GEMM of the exact modes
    sin((k+1) phi) / (pi sqrt(2) sin phi) on 600 16-point Gauss panels in phi
    (where the integrand is smooth, so the rule resolves it) to 1e-13 of its
    largest entry at K = 64; the Gauss-Gegenbauer grid does not resolve
    sin(phi) on S^3 (the node path is off by about 7e-10 there)."""
    V = (potentials.truncated_counterexample(3, 0.3) if expr == "truncated"
         else potentials.from_expression(expr))
    K = 64
    x, w = geometry._panel_gauss(0.0, math.pi, 600, 16)
    E = np.sin(np.outer(x, np.arange(1, K + 2))) / (math.pi * math.sqrt(2) * np.sin(x))[:, None]
    ref = E.T @ (E * (w * 4 * math.pi * np.sin(x) ** 2 * V(x))[:, None])
    basis = geometry.build_basis(_S3, K)
    M = operator_core._moment_matrix(operator_core._cosine_moments(V, 2 * K + 2), K, V.even)
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
    A = operator_core.assemble(V, basis, check=True)  # the block of the rule, checked
    assert A.tobytes() == (np.diag(np.rint(basis.freqs ** 2)) + M).tobytes()


@pytest.mark.parametrize("expr", ["abs(phi-1)", "1/sin(phi)**3"])
def test_s3_check_refuses_unresolved_moments(expr):
    """The check recomputes the moments with every panel halved, the DCT
    doubled and the pole cap deeper: a kink (|phi - 1|) moves them by about
    1e-8 and a log-divergent pole (sin^-3 phi) by about 0.4 of the largest,
    both above 1e-10, so the checked assembly stops."""
    V = potentials.from_expression(expr)
    basis = geometry.build_basis(_S3, 32)
    with pytest.raises(NumericError, match=r"potential assembly not converged: cosine "
                       r"moment \d+ moved by .* under refinement of the moment rule"):
        operator_core.assemble(V, basis, check=True)
    operator_core.assemble(V, basis)  # unchecked, the rule's block is returned


def test_s3_solve_builds_no_node_values(monkeypatch):
    """The checked critical solve on S^3 at K = 256 never evaluates the
    Gegenbauer table on its grid; the first node_values() builds it once,
    and is bit for bit the eager basis values times the eigenvectors."""
    sizes = []
    table = geometry._gegenbauer_table

    def record(kmax, lam, x):
        sizes.append(x.shape[0])
        return table(kmax, lam, x)

    monkeypatch.setattr(geometry, "_gegenbauer_table", record)
    decomp = operator_core.solve(potentials.counterexample(3), _S3, 256)
    assert sizes == []
    values = decomp.node_values()
    assert sizes == [decomp.basis.grid.size]
    monkeypatch.undo()
    eager = geometry.ZonalSphereBasis(3, 256, decomp.basis.grid).values
    assert values.tobytes() == (eager @ decomp.eigenvectors).tobytes()


def test_auto_shift(s2_free_24):
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    decomp = operator_core.solve(potentials.constant(-5.0), manifold, 8, shift="auto")
    assert decomp.shift == 6
    assert decomp.eigenvalues[0] >= 1.0


def test_fixed_shift_adds_to_eigenvalues():
    """A fixed shift N is added to the eigenvalues of H_V, as `auto` adds its N."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    V = potentials.constant(-5.0)
    base = operator_core.solve(V, manifold, 8)
    shifted = operator_core.solve(V, manifold, 8, shift=3)
    assert base.shift == 0 and shifted.shift == 3
    assert np.array_equal(shifted.eigenvalues, base.eigenvalues + 3)
    assert np.array_equal(shifted.eigenvectors, base.eigenvectors)


def test_shifted_free_solve_keeps_node_values():
    """A shift moves only the eigenvalues: a free shifted solve forms no node
    values until they are first read (on the full S^2 not even the basis
    table), and then has those of the unshifted solve bit for bit, the
    C-order copy of the basis values that basis.values @ I gives."""
    for kind in (geometry.TORUS, geometry.SPHERE_FULL_2D):
        manifold = geometry.ModelManifold(kind, 2)
        base = operator_core.solve(None, manifold, 6)
        shifted = operator_core.solve(None, manifold, 6, shift=1)
        assert shifted._node_values is None
        assert kind == geometry.TORUS or "values" not in vars(shifted.basis)
        values = shifted.node_values()
        assert values.flags.c_contiguous and not values.flags.writeable
        assert values.tobytes() == base.node_values().tobytes()
        assert values.tobytes() == (shifted.basis.values @ shifted.eigenvectors).tobytes()
        assert np.array_equal(shifted.eigenvalues, base.eigenvalues + 1)


def test_multiplier_identity(s2_free_24):
    f = s2_free_24.node_values()[:, 3] + 0.5 * s2_free_24.node_values()[:, 7]

    def one(fr):
        return np.ones_like(fr)

    out = operator_core.multiplier(s2_free_24, one, f)
    assert np.allclose(out, f, atol=1e-10)


def test_band_projector_idempotent(s2_free_24):
    def chi(fr):
        return ((fr > 5.0) & (fr <= 9.0)).astype(float)

    f = np.sum(s2_free_24.node_values(), axis=1)
    once = operator_core.multiplier(s2_free_24, chi, f)
    twice = operator_core.multiplier(s2_free_24, chi, once)
    assert np.allclose(once, twice, atol=1e-10)
    idx = operator_core.band_indices(s2_free_24.frequencies, 5.0, 9.0)
    assert np.all(s2_free_24.frequencies[idx] > 5.0)
    assert np.all(s2_free_24.frequencies[idx] <= 9.0)


def test_littlewood_paley_partition():
    xi = np.linspace(1.0, 200.0, 4001)
    total = operator_core.lp_psi(xi / 2.0 ** 0)  # j = 0 low part
    total = operator_core.lp_psi(xi)
    for j in range(1, 12):
        total = total + operator_core.lp_beta(j, xi)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def _gemm_potential(V, basis, grid=None):
    """The potential block as the symmetrized full GEMM E^T (w V E), with E
    the basis values on the basis grid, or the basis functions at the nodes
    of a zonal ``grid``."""
    E = basis.values if grid is None else basis.evaluate(grid.nodes)
    grid = basis.grid if grid is None else grid
    nodes = grid.nodes  # on the full S^2 a zonal V reads the polar angle
    wv = grid.weights * V(nodes[:, 0] if nodes.ndim == 2 else nodes)
    M = E.T @ (E * wv[:, None])
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("n,V,levels", [
    (2, potentials.constant(-2.0), 0),
    (2, potentials.from_expression("cos(phi)"), 0),
    (3, potentials.truncated_counterexample(3, 0.3), 0),
    (3, potentials.counterexample(3), 6),
])
def test_potential_matrix_sign_split_matches_gemm(n, V, levels):
    """The sign-split rank-k update summed on the basis grid (on S^3
    ``assemble`` forms the block from the cosine moments instead) is exactly
    symmetric and within 1e-13 of the GEMM formula, relative to the largest
    entry."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, n)
    basis = geometry.build_basis(manifold, 48, geometry.default_grid(manifold, 48, levels))
    M = operator_core._rule_matrix(V, basis, basis.grid)
    assert np.array_equal(M, M.T)
    ref = _gemm_potential(V, basis)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
    A = operator_core.assemble(V, basis)
    assert np.array_equal(A, A.T)


_EVEN_POTENTIALS = [(n, V) for n in (2, 3, 4, 5)
                    for V in (potentials.counterexample(n),
                              potentials.truncated_counterexample(n, 0.3))]


@pytest.mark.parametrize("n,V", _EVEN_POTENTIALS)
def test_even_potential_matrix_parity_blocks_match_full_grid(n, V):
    """An even V summed on the Gauss grid (on S^3 ``assemble`` forms the
    block from the cosine moments instead): the entries across degree parity
    are exactly 0, and the two blocks, summed on the hemisphere, are within
    1e-13 of the full-grid GEMM relative to its largest entry."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, n)
    basis = geometry.build_basis(manifold, 48)
    M = operator_core._rule_matrix(V, basis, basis.grid)
    assert np.array_equal(M, M.T)
    assert not np.any(M[0::2, 1::2])
    ref = _gemm_potential(V, basis)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


def _assert_split_matches_gemm(M, ref, parity):
    """Exactly symmetric and within 1e-13 of the GEMM ``ref`` relative to its
    largest entry; where the block is split by parity, exactly 0 across
    parity and compared with the parity blocks of ``ref`` (on a hemisphere
    the GEMM's cross-parity entries do not cancel)."""
    assert np.array_equal(M, M.T)
    if parity:
        assert not np.any(M[0::2, 1::2])
        ref = ref.copy()
        ref[0::2, 1::2] = ref[1::2, 0::2] = 0.0
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


# w V of each sign pattern, every one even about the equator; "mixed" is
# exactly 0 wherever |cos(2 phi)| <= 0.3 and takes both signs elsewhere
_SIGN_PATTERNS = {
    "mixed": lambda phi: (np.maximum(np.cos(2.0 * phi) - 0.3, 0.0) ** 3
                          - np.maximum(-np.cos(2.0 * phi) - 0.3, 0.0) ** 3),
    "positive": lambda phi: 2.0 + np.cos(phi) ** 2,
    "negative": lambda phi: -2.0 - np.cos(phi) ** 2,
    "zero": lambda phi: 0.0 * phi,
}
# whether w V > 0, w V < 0 and w V = 0 occur on the grid, by pattern
_SIGNS_PRESENT = {"mixed": (True, True, True), "positive": (True, False, False),
                  "negative": (False, True, False), "zero": (False, False, True)}


@pytest.mark.parametrize("signs", sorted(_SIGN_PATTERNS))
@pytest.mark.parametrize("kind,levels,even", [
    (geometry.SPHERE_ZONAL, 0, True), (geometry.SPHERE_ZONAL, 6, True),
    (geometry.SPHERE_ZONAL, 0, False), (geometry.SPHERE_ZONAL, 6, False),
    (geometry.SPHERE_FULL_2D, 0, False)])
def test_split_gram_matches_gemm(kind, levels, even, signs):
    """The block summed on a rule and the checked assembly match the GEMM on the rule
    they sum on (``_zonal_rule``, pole-capped at level 6 for a V marked
    singular): on a zonal basis, on the default grid, the basis functions at
    the nodes of the rule, or of its hemisphere fold for an even V, and of
    its refined copy, or its fold, for assemble(check=True), which adds the
    refined block to the free diagonal; on the full S^2 the product grids
    whose polar axes are the zonal S^2 rule and its refined copy.  Both are
    exactly symmetric with exact zeros across parity on the fold, for w V of
    mixed signs with zeros, all positive, all negative and all zero.  The
    zonal case runs on S^4, where the check still sums on the refined rule."""
    manifold = geometry.ModelManifold(kind, 4 if kind == geometry.SPHERE_ZONAL else 2)
    basis = geometry.build_basis(manifold, 24)
    V = potentials.Potential(fn=_SIGN_PATTERNS[signs], even=even,
                             singularities=(0.0, math.pi) if levels else ())
    parity = even and kind == geometry.SPHERE_ZONAL
    fold = geometry.hemisphere if parity else (lambda grid: grid)
    rule = operator_core._zonal_rule(V, manifold.n, 24)
    fine_grid = operator_core._zonal_rule(V, manifold.n, 24, refine=rule)
    assert (rule.size > 2 * 24 + 16) == bool(levels)  # the caps add nodes
    if kind == geometry.SPHERE_FULL_2D:
        ref, fine_ref = (_gemm_potential(V, geometry.build_basis(manifold, 24,
                                                                 _product_grid(g, 24)))
                         for g in (rule, fine_grid))
    else:
        ref, fine_ref = (_gemm_potential(V, basis, fold(g)) for g in (rule, fine_grid))
    M = operator_core._rule_matrix(V, basis, rule)
    _assert_split_matches_gemm(M, ref, parity)
    pot_fine = operator_core._rule_matrix(V, basis, fine_grid)
    _assert_split_matches_gemm(pot_fine, fine_ref, parity)
    A = operator_core.assemble(V, basis, check=True)
    assert A.tobytes() == (np.diag(np.rint(basis.freqs ** 2)) + pot_fine).tobytes()
    _, wv, npos, nneg = operator_core._signed_nodes(V, rule)
    assert (npos > 0, nneg > 0, npos + nneg < wv.size) == _SIGNS_PRESENT[signs]


@pytest.mark.parametrize("n,V", _EVEN_POTENTIALS)
def test_partitioned_check_matches_unpartitioned(n, V):
    """The check of an even V evaluates the basis at the fold of the refined
    rule partitioned by the sign of w V; its matrix matches the GEMM on the
    unpartitioned fold (rule order), with exact zeros across parity.  The
    critical V at n = 2 is positive at every node, so there the partition is
    the rule's own order."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, n), 48)
    fine_grid = operator_core._zonal_rule(V, n, 48,
                                          refine=operator_core._zonal_rule(V, n, 48))
    half = geometry.hemisphere(fine_grid)
    ref = _gemm_potential(V, basis, half)
    _assert_split_matches_gemm(operator_core._rule_matrix(V, basis, fine_grid), ref, True)
    nodes = operator_core._signed_nodes(V, fine_grid)[0]
    assert np.array_equal(nodes, half.nodes) == (n == 2 and V.singular)


_FULL_S2 = geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2)


def _product_grid(rule, K):
    """The full-S^2 product grid whose polar axis is the zonal S^2 ``rule``
    and whose azimuthal axis is the trapezoid rule of 2K + 4 points, which is
    exact for the product of two modes of degree <= K.  On the Gauss rule of
    n_phi nodes it is full_sphere_grid(n_phi, 2K + 4) up to rounding."""
    ntheta = 2 * K + 4
    theta = 2.0 * math.pi * np.arange(ntheta) / ntheta
    pp, tt = np.meshgrid(rule.nodes, theta, indexing="ij")
    return geometry.QuadratureGrid(_FULL_S2, np.column_stack([pp.ravel(), tt.ravel()]),
                                   np.repeat(rule.weights / ntheta, ntheta),
                                   shape=(rule.size, ntheta))


@pytest.mark.parametrize("expr", ["1", "cos(phi)", "cos(phi)**2 - 0.3"])
def test_full_sphere_check_matches_refined_basis(expr):
    """On the full S^2 the check sums by order on the refined zonal S^2 rule
    (twice the 2K + 16 Gauss nodes, node for node), partitioned by the sign
    of w V: it matches the GEMM of a basis on the product grid whose polar
    axis is that refined rule within 1e-13 of its largest entry, also where
    w V changes sign, with exact zeros between orders and between cos and
    sin."""
    basis = geometry.build_basis(_FULL_S2, 10)
    V = potentials.from_expression(expr)
    fine_grid = operator_core._zonal_rule(V, 2, 10,
                                          refine=operator_core._zonal_rule(V, 2, 10))
    expected = geometry.zonal_grid(2, 2 * (2 * 10 + 16))  # twice the zonal S^2 rule
    assert np.array_equal(fine_grid.nodes, expected.nodes)
    assert np.array_equal(fine_grid.weights, expected.weights)
    M = operator_core._rule_matrix(V, basis, fine_grid)
    ref = _gemm_potential(V, geometry.build_basis(_FULL_S2, 10, _product_grid(fine_grid, 10)))
    _assert_split_matches_gemm(M, ref, False)
    classes = basis.classes // 2
    assert not np.any(M[classes[:, None] != classes[None, :]])


_ZONAL_ON_S2 = {"1": potentials.from_expression("1"),
                "cos(phi)**2-0.3": potentials.from_expression("cos(phi)**2-0.3"),
                "sin(phi)-0.5": potentials.from_expression("sin(phi)-0.5"),
                "cos(phi)": potentials.from_expression("cos(phi)"),
                "truncated-counterexample": potentials.truncated_counterexample(2, 0.3)}


@pytest.mark.parametrize("name", sorted(_ZONAL_ON_S2))
def test_full_sphere_blocks_match_dense_quadrature(name):
    """On the full S^2 the potential block is formed by order on the zonal
    S^2 rule: it is within 1e-13 of values^T (w V values) on the product grid
    whose polar axis is that rule, relative to its largest entry, with exact
    zeros between orders and between cos and sin (and across the parity of
    k - m for an even V); the K = 24 eigenvalues lie within 1e-12 ||A|| of
    eigvalsh of the dense matrix."""
    V = _ZONAL_ON_S2[name]
    basis = geometry.build_basis(_FULL_S2, 24)
    rule = operator_core._zonal_rule(V, 2, 24)
    M = operator_core._rule_matrix(V, basis, rule)
    grid = _product_grid(rule, 24)
    ref = _gemm_potential(V, geometry.build_basis(_FULL_S2, 24, grid))
    assert np.array_equal(M, M.T)
    assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
    classes = basis.classes
    apart = (classes[:, None] if V.even else classes[:, None] // 2) != (
        classes[None, :] if V.even else classes[None, :] // 2)
    assert not np.any(M[apart])
    A = operator_core.assemble(V, basis)
    dense = np.diag(np.rint(basis.freqs ** 2)) + ref
    mu = operator_core.diagonalize(A, basis).eigenvalues
    norm = np.linalg.norm(dense, 2)
    assert np.max(np.abs(mu - np.linalg.eigvalsh(dense))) <= 1e-12 * norm


def test_full_sphere_even_solve_calls_eigh_per_class_block(monkeypatch):
    """An even V at K = 24 is solved as one eigh per class block, one per
    (m, parity of k - m, cos or sin), 4K in all (order 0 has no sin block):
    no block has more than ceil((K + 1) / 2) modes.  Each eigenvector lives
    on one class, and each degenerate cos/sin pair lists the cos eigenvector
    first."""
    shapes = []
    eigh = np.linalg.eigh

    def record(a):
        shapes.append(a.shape[0])
        return eigh(a)

    K = 24
    basis = geometry.build_basis(_FULL_S2, K)
    A = operator_core.assemble(_ZONAL_ON_S2["truncated-counterexample"], basis)
    monkeypatch.setattr(operator_core.np.linalg, "eigh", record)
    decomp = operator_core.diagonalize(A, basis)
    assert len(shapes) == len(np.unique(basis.classes)) == 4 * K
    assert max(shapes) == math.ceil((K + 1) / 2)
    classes, vecs = basis.classes, decomp.eigenvectors
    support = [np.unique(classes[np.flatnonzero(vecs[:, c])]) for c in range(basis.size)]
    assert all(s.size == 1 for s in support)
    cls = np.array([s[0] for s in support])
    mu = decomp.eigenvalues
    twins = (mu[1:] == mu[:-1]) & (cls[1:] // 4 == cls[:-1] // 4)
    assert np.count_nonzero(twins) == K * (K + 1) // 2  # one pair per (k, m >= 1)
    assert np.all(cls[:-1][twins] % 4 < 2) and np.all(cls[1:][twins] % 4 >= 2)


def test_full_sphere_solve_builds_no_node_values(monkeypatch):
    """The checked assembly and the eigensolve on the full S^2 never evaluate
    the N x J basis table; the node values are built on their first read,
    from one table of each factor on the grid's axes."""
    axes = []
    tables = geometry.FullSphereBasis._tables

    def record(self, phi, theta):
        axes.append((phi.shape[0], theta.shape[0]))
        return tables(self, phi, theta)

    monkeypatch.setattr(geometry.FullSphereBasis, "_tables", record)
    basis = geometry.build_basis(_FULL_S2, 16)
    decomp = operator_core.diagonalize(
        operator_core.assemble(_ZONAL_ON_S2["cos(phi)"], basis, check=True), basis)
    assert axes == []
    assert decomp.node_values().shape == (basis.grid.size, basis.size)
    assert axes == [basis.grid.shape]


# the worst entry of the check of cos(phi)/sin(phi), its move and its scale, by K
_COT_STOPS = {16: (225, "2.996e-01", "2.970e+00"), 48: (2209, "4.025e-01", "3.584e+00")}


@pytest.mark.parametrize("K", sorted(_COT_STOPS))
def test_full_sphere_check_resolves_the_counterexamples(K):
    """The checked solve of the truncated and of the critical V on the full
    S^2 runs, within a second each at K = 48: both are summed on the zonal
    S^2 rule, whose refined copy moves no entry by 1%.  cos(phi)/sin(phi),
    which the zonal S^2 rule does not resolve at the poles, still stops, as
    on the zonal S^2, naming the worst entry, an order-0 pair of degrees
    K - 1 and K, and its move."""
    for V in (_ZONAL_ON_S2["truncated-counterexample"], potentials.counterexample(2)):
        start = time.perf_counter()
        decomp = operator_core.solve(V, _FULL_S2, K)
        assert time.perf_counter() - start < 1.0
        assert decomp.size == (K + 1) ** 2
    entry, move, scale = _COT_STOPS[K]
    basis = geometry.build_basis(_FULL_S2, K)
    assert (basis.modes[entry], basis.modes[entry + 2 * K - 1]) == ((K - 1, 0, "c"),
                                                                   (K, 0, "c"))
    with pytest.raises(NumericError, match=rf"entry \({entry}, {entry + 2 * K - 1}\) moved by "
                       rf"{re.escape(move)} \(scale {re.escape(scale)}\)"):
        operator_core.solve(potentials.from_expression("cos(phi)/sin(phi)"), _FULL_S2, K)


_ZONAL_S2 = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)


@pytest.mark.parametrize("K", [16, 48])
@pytest.mark.parametrize("ref", ["sin(phi)-0.5", "truncated-counterexample",
                                 "1*sin(phi)**2 - 2*cos(phi)", "9*sin(phi)**2 - 6*cos(phi)",
                                 "counterexample"])
def test_full_sphere_holds_the_zonal_spectrum(ref, K):
    """The full S^2 sums a zonal V on the rule of the zonal S^2 solve of V at
    the same K, so its order-0 block is the zonal S^2 matrix, and the bottom
    of both checked spectra agree within 1e-12 ||A|| (the critical V, on the
    pole-capped rule, agrees to 7e-16 ||A|| at K = 48 and is held to 1e-10
    ||A||).  For V_a = a^2 sin^2 phi - 2a cos phi, f = exp(a cos phi) > 0
    solves H_V f = 0 on S^2, so there |mu_0| <= eps ||A||."""
    V = potentials.from_reference(ref, 2)
    full = operator_core.solve(V, _FULL_S2, K).eigenvalues
    zonal = operator_core.solve(V, _ZONAL_S2, K).eigenvalues
    norm = max(abs(full[0]), abs(full[-1]))
    assert abs(full[0] - zonal[0]) <= (1e-10 if V.singular else 1e-12) * norm
    if "cos(phi)" in ref:
        assert abs(full[0]) <= _EPS * norm
        assert abs(zonal[0]) <= _EPS * norm


@pytest.mark.parametrize("n", [2, 3, 4])
def test_even_checked_assembly_matches_unfolded(n):
    """The check of an even V reassembles on the fold of the refined grid (on
    S^3 it recomputes the folded cosine moments); it returns the full-grid
    matrix of the same V without the annotation to 1e-13, with exact zeros
    across parity."""
    V = potentials.truncated_counterexample(n, 0.3)
    plain = potentials.Potential(fn=V.fn, smooth_bound=V.smooth_bound)
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, n), 32)
    A = operator_core.assemble(V, basis, check=True)
    ref = operator_core.assemble(plain, basis, check=True)
    assert not np.any(A[0::2, 1::2])
    assert np.max(np.abs(A - ref)) <= 1e-13 * np.max(np.abs(ref))


# the checked V != 0 solves whose node values the probes read: the zonal
# S^2..S^5 at K = 48 and 512, the full S^2 at K = 24, and the zonal S^24,
# whose Gauss grid lowers the weight
_CHECKED_SOLVES = [(geometry.SPHERE_ZONAL, n, K) for n in (2, 3, 4, 5) for K in (48, 512)]
_CHECKED_SOLVES += [(geometry.SPHERE_FULL_2D, 2, 24), (geometry.SPHERE_ZONAL, 24, 48)]


@pytest.mark.parametrize("ref", ["counterexample", "truncated-counterexample"])
@pytest.mark.parametrize("kind,n,K", _CHECKED_SOLVES)
def test_checked_solve_node_values_are_orthonormal(kind, n, K, ref):
    """Every solve builds its basis on the Gauss grid of its manifold,
    whatever V is, and sums V on its own rule, so the node values U of a
    checked solve are orthonormal under the grid weights W, max |U^T W U - I|
    <= 1e-12 (1.3e-13 at worst, the critical V at n = 2, K = 512), also for
    the critical V, whose rule is pole-capped (a basis on that rule was off
    by about 1e-3 at K = 48 and 4e-2 to 5e-2 at K = 512)."""
    decomp = operator_core.solve(potentials.from_reference(ref, n),
                                 geometry.ModelManifold(kind, n), K)
    U, w = decomp.node_values(), decomp.basis.grid.weights
    assert np.max(np.abs(U.T @ (w[:, None] * U) - np.eye(decomp.size))) <= 1e-12


# SHA-256 of the unchecked potential matrix on the default zonal basis at
# K = 64, as the basis rows gathered on the basis grid gave it
_GAUSS_BLOCK_DIGESTS = {
    (2, "sin(phi)-0.5"): "cc5f6f48976076204593b78f65fd2ebae77f22b4df76a1e9d4d77af80c50f113",
    (2, "truncated-counterexample"):
        "182c2d6bfaa0376aa6caf99f6bf9cf0652a351b9493946aa665d71bd67b2aa8b",
    (4, "sin(phi)-0.5"): "2b6ff16b95da76ec57e9c8d62324c246ab2c7cef4c4475aa79b008c353e380dd",
    (4, "truncated-counterexample"):
        "3a23ab8fa21c81f82bd56380f8d5908561c8a1d063a0c39aa8be850255f51a73",
    (5, "sin(phi)-0.5"): "56d9b0066475a10256f128b7bd547f6f4990ca3daab4cec377deb46fdee206f4",
    (5, "truncated-counterexample"):
        "4f5cad682822344baf1575502b7280697edd693df2ab9439c4813d7a967fe2f0",
}


@pytest.mark.parametrize("n,ref", sorted(_GAUSS_BLOCK_DIGESTS))
def test_gauss_rule_block_is_bit_stable(n, ref):
    """For a V without poles the rule is the basis grid, and the rows that
    ``basis.evaluate`` gives at its nodes are the basis rows bit for bit, so
    the potential matrix is the one the gathered basis rows gave."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, n), 64)
    V = potentials.from_reference(ref, n)
    M = operator_core._rule_matrix(V, basis, operator_core._zonal_rule(V, n, 64))
    assert hashlib.sha256(M.tobytes()).hexdigest() == _GAUSS_BLOCK_DIGESTS[n, ref]


# SHA-256 of the checked Galerkin matrix, recorded when a public
# potential_matrix still chose the route apart from assemble; one pin per
# route: the rule sum at n = 2 and 5, the cosine moments at n = 3, and the
# order blocks of the full S^2
_CHECKED_ASSEMBLY_DIGESTS = {
    (geometry.SPHERE_ZONAL, 2, "counterexample", 48):
        "b366da16b7907c9ed6ea251336194ee50876c6d352144256a095f0d2fae6eeb5",
    (geometry.SPHERE_ZONAL, 5, "counterexample", 48):
        "872eb44c6f5799d08b794fd1f55865cb78769fee24c4946f46ac1532b1811feb",
    (geometry.SPHERE_ZONAL, 3, "counterexample", 128):
        "ad5fe2fb9fc44e71853fdbc975908c843e3508d0b70146e5bc9035a5d97a5676",
    (geometry.SPHERE_FULL_2D, 2, "truncated-counterexample", 16):
        "ecba0bb4d34aa7adf607c8805cfffda9c5bebc6c43d4cc00ba524f814fc7d276",
}


@pytest.mark.parametrize("kind,n,ref,K", sorted(_CHECKED_ASSEMBLY_DIGESTS))
def test_checked_assembly_is_bit_stable(kind, n, ref, K):
    """assemble(check=True) gives the same bytes on every route of V."""
    basis = geometry.build_basis(geometry.ModelManifold(kind, n), K)
    A = operator_core.assemble(potentials.from_reference(ref, n), basis, check=True)
    assert hashlib.sha256(A.tobytes()).hexdigest() == _CHECKED_ASSEMBLY_DIGESTS[kind, n, ref, K]


@pytest.mark.parametrize("kind,n,K", [(geometry.SPHERE_ZONAL, 2, 16),
                                      (geometry.SPHERE_ZONAL, 3, 16),
                                      (geometry.SPHERE_ZONAL, 4, 16),
                                      (geometry.SPHERE_ZONAL, 5, 16),
                                      (geometry.SPHERE_FULL_2D, 2, 8)])
def test_unchecked_overflowing_potential_gives_no_spectrum(kind, n, K):
    """V = 1e308 assembled without the check gives a block of entries near
    1e308 (NaN on S^3, from NaN moments), whose symmetrization is not
    finite: ``diagonalize`` stops it with NumericError rather than return
    NaN or inf eigenvalues.  The checked runs are in tests/test_cli.py."""
    manifold = geometry.ModelManifold(kind, n)
    with np.errstate(all="ignore"):
        A = operator_core.assemble(potentials.constant(1e308), geometry.build_basis(manifold, K))
    with pytest.raises(NumericError, match="not finite"):
        operator_core.diagonalize(A)


def test_refinement_gate_fails_a_nan_move(monkeypatch):
    """A refined rule sum that is NaN where the rule's is finite stops the
    checked assembly at the gate, naming the first NaN entry, instead of
    passing a NaN matrix on (a move compared as ``diff > tol`` passes NaN)."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, 4), 8)
    rule_matrix = operator_core._rule_matrix
    calls = []

    def refined_nan(V, basis, rule):
        M = rule_matrix(V, basis, rule)
        calls.append(rule.size)
        if len(calls) == 2:
            M[1, 2] = M[2, 1] = np.nan
        return M

    monkeypatch.setattr(operator_core, "_rule_matrix", refined_nan)
    with pytest.raises(NumericError, match=r"not converged: entry \(1, 2\) moved by nan"):
        operator_core.assemble(potentials.from_expression("cos(phi)"), basis, check=True)


@pytest.mark.parametrize("kind,n,ref,rules", [
    (geometry.SPHERE_ZONAL, 2, "sin(phi)-0.5", [(96, 0.0), (192, 0.0)]),
    (geometry.SPHERE_ZONAL, 4, "truncated-counterexample", [(96, 1.0), (192, 1.0)]),
    (geometry.SPHERE_ZONAL, 2, "counterexample", [(96, 0.0), (8, 0.0)]),
    (geometry.SPHERE_ZONAL, 24, "counterexample", [(97, 10.0), (8, 0.0)]),
    (geometry.SPHERE_FULL_2D, 2, "cos(phi)", [(49, 0.0), (96, 0.0), (192, 0.0)])])
def test_checked_solve_runs_one_newton_pass_per_gauss_rule(kind, n, ref, rules, monkeypatch):
    """A checked solve at K = 40 runs ``gauss_gegenbauer`` once for each
    distinct Gauss rule it reads: for a V without poles the basis grid and
    the rule V is summed on are one rule, then its refined copy (on the full
    S^2 the polar axis of the basis grid comes first); for the critical V
    the basis grid and the order-8 rule of every cap and bulk panel."""
    calls = []
    gauss = geometry.gauss_gegenbauer

    def record(m, alpha):
        calls.append((m, alpha))
        return gauss(m, alpha)

    monkeypatch.setattr(geometry, "gauss_gegenbauer", record)
    geometry._gauss_rule.cache_clear()
    operator_core.solve(potentials.from_reference(ref, n), geometry.ModelManifold(kind, n), 40)
    assert calls == rules


def test_n2_critical_cross_parity_block_is_exactly_zero():
    """The level-6 rule drops the south cap from s ~ 33.2 on, which at n = 2
    (w V ~ 2/s^2) used to leave cross-parity entries of 4e-4 of the largest
    entry; the fold integrates both caps as the full north cap."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 64)
    A = operator_core.assemble(potentials.counterexample(2), basis, check=True)
    assert np.array_equal(A, A.T)
    assert not np.any(A[0::2, 1::2])
    assert np.all(np.diagonal(A[1::2, 1::2]) != 0.0)


def test_even_non_finite_potential_names_full_grid_node():
    """For an even V only the hemisphere is evaluated, and the error names
    the node by its index and coordinates in the full grid."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 8)
    V = potentials.Potential(fn=lambda phi: np.where(phi > 1.0, np.nan, 1.0), even=True)
    i = int(np.flatnonzero(basis.grid.nodes > 1.0)[0])
    with pytest.raises(NumericError, match=f"not finite at node {i} of {basis.grid.size} "
                       rf"\(coordinates {basis.grid.nodes[i]}\)"):
        operator_core.assemble(V, basis, check=True)


@pytest.mark.parametrize("expr,bad", [("log(phi-1)", "nan"), ("1/(phi-phi)", "inf")])
def test_assemble_rejects_non_finite_potential(expr, bad):
    """A V that is not finite on the grid stops at assembly, naming the first
    such node, before a NaN row could be dropped by the sign split."""
    basis = geometry.build_basis(geometry.ModelManifold(geometry.SPHERE_ZONAL, 2), 8)
    V = potentials.from_expression(expr)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError, match=f"not finite at node 0 of {basis.grid.size} "
                           rf"\(coordinates .*\): w\*V = {bad}"):
            operator_core.assemble(V, basis, check=True)


def test_assembly_refinement_check_passes_smooth():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    basis = geometry.build_basis(manifold, 12)
    V = potentials.from_expression("cos(phi)")
    A = operator_core.assemble(V, basis, check=True)
    assert A.shape == (13, 13)
    assert np.allclose(A, A.T, atol=0)


@pytest.mark.parametrize("levels", [3, 6, 8])
def test_zonal_refined_copy_keeps_cap_depth(levels):
    """Twice the nodes of a pole-capped grid at its own cap depth rebuild
    both caps node for node and double the bulk; at level 6 these are the
    rule of a singular V and the refined rule of its check
    (``_zonal_rule``)."""
    grid = geometry.zonal_grid(3, 2 * 64 + 16, pole_levels=levels)
    fine = geometry.zonal_grid(3, 2 * grid.size, pole_levels=levels)
    for cap in (lambda phi: phi < 0.1, lambda phi: phi > math.pi - 0.1):
        assert np.array_equal(fine.nodes[cap(fine.nodes)], grid.nodes[cap(grid.nodes)])
        assert np.array_equal(fine.weights[cap(fine.nodes)], grid.weights[cap(grid.nodes)])
    bulk = (grid.nodes >= 0.1) & (grid.nodes <= math.pi - 0.1)
    fine_bulk = (fine.nodes >= 0.1) & (fine.nodes <= math.pi - 0.1)
    assert np.count_nonzero(fine_bulk) >= 2 * np.count_nonzero(bulk)
    if levels == geometry.SINGULAR_POLE_LEVELS:
        V = potentials.counterexample(3)
        rule = operator_core._zonal_rule(V, 3, 64)
        for got, expected in ((rule, grid), (operator_core._zonal_rule(V, 3, 64, refine=rule),
                                              fine)):
            assert np.array_equal(got.nodes, expected.nodes)
            assert np.array_equal(got.weights, expected.weights)


def test_potential_on_torus_rejected():
    manifold = geometry.ModelManifold(geometry.TORUS, 2)
    basis = geometry.build_basis(manifold, 3)
    with pytest.raises(DomainError):
        operator_core.assemble(potentials.counterexample(2), basis)


def test_heat_semigroup_composition(s2_free_24):
    """e^{-0.2 H} e^{-0.3 H} = e^{-0.5 H} as multipliers in sqrt(H)."""
    def heat(t):
        return lambda fr: np.exp(-t * fr ** 2)

    f = np.sum(s2_free_24.node_values()[:, :6], axis=1)
    composed = operator_core.multiplier(
        s2_free_24, heat(0.2), operator_core.multiplier(s2_free_24, heat(0.3), f))
    assert np.allclose(composed, operator_core.multiplier(s2_free_24, heat(0.5), f),
                       rtol=1e-12, atol=1e-13)
