"""Galerkin assembly and diagonalization of H_V = -Delta_g + V, plus the
spectral calculus built on the resulting decomposition.  A multiplier
m(sqrt(H_V)) is a symbol ``fn`` (a function of the frequencies), applied to
grid values by ``multiplier(decomp, fn, f)``; ``multiplier_kernel`` gives
its node-space kernel and ``lp_psi``/``lp_beta``/``lp_profile`` are the
Littlewood-Paley symbols.

The eigensolver is LAPACK's symmetric ``eigh`` followed by a stable
ascending sort and a fixed sign convention for the eigenvectors.  For the
same input, the same BLAS thread count and the same BLAS build, repeated runs
produce bit-identical decompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry
from .errors import DomainError, NumericError
from .potentials import Potential


def _potential_values(V: Potential | None, grid: geometry.QuadratureGrid) -> np.ndarray:
    if V is None:
        return np.zeros(grid.size)
    nodes = grid.nodes
    if nodes.ndim == 2 and grid.manifold.kind == geometry.SPHERE_FULL_2D:
        return np.asarray(V(nodes[:, 0]), dtype=float)
    if nodes.ndim == 2:
        raise DomainError("zonal potentials are not defined on the torus; "
                          "pass V=None or assemble on a sphere")
    return np.asarray(V(nodes), dtype=float)


def potential_matrix(V: Potential | None, basis: geometry.Basis) -> np.ndarray:
    """Galerkin matrix <V e_j, e_k> on the basis quadrature grid, exactly
    symmetric: S+^T S+ - S-^T S-, where S+- are the basis rows of the nodes
    with +-w V > 0 scaled by sqrt(+-w V), each product a rank-k update (SYRK).
    V = None gives the zero matrix.  Raises NumericError naming the first
    node where w V is not finite."""
    J = basis.size
    if V is None:
        return np.zeros((J, J))
    wv = basis.grid.weights * _potential_values(V, basis.grid)
    bad = np.flatnonzero(~np.isfinite(wv))
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"potential not finite at node {i} of {basis.grid.size} "
                           f"(coordinates {basis.grid.nodes[i]}): w*V = {float(wv[i])}; "
                           "V must be finite on the quadrature grid")
    Et = basis.values.T

    def gram(keep: np.ndarray, weight: np.ndarray) -> np.ndarray:
        S = np.compress(keep, Et, axis=1)
        S *= np.sqrt(weight[keep])
        return S @ S.T  # numpy sends S @ S.T to SYRK: exactly symmetric

    return gram(wv > 0.0, wv) - gram(wv < 0.0, -wv)


_CHECK_TOL = 0.01  # largest entry move under refinement, relative to the matrix scale


def assemble(V: Potential | None, basis: geometry.Basis,
             check: bool = False) -> np.ndarray:
    """Galerkin matrix of -Delta_g + V in the given basis.

    ``check=True`` reassembles the potential block on a refined grid and
    raises, naming the worst entry, when any coefficient moves by more than
    1% (``_CHECK_TOL``) of the matrix scale; otherwise it returns the refined
    matrix.  A pole-capped zonal grid keeps its caps (its ``pole_levels``) node
    for node and refines only the bulk, so the check never tests the cap rule.
    """
    pot = potential_matrix(V, basis)
    if check and V is not None:
        fine = _refined_copy(basis)
        pot_fine = potential_matrix(V, fine)
        scale = max(float(np.max(np.abs(pot_fine))), 1e-300)
        diff = np.abs(pot_fine - pot)
        j, k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[j, k] > _CHECK_TOL * scale:
            raise NumericError(
                f"potential assembly not converged: entry ({j}, {k}) moved by "
                f"{diff[j, k]:.3e} (scale {scale:.3e}) under grid refinement; "
                "this grid cannot resolve the potential (see 'Potential "
                "references' in docs/configuration.md)")
        pot = pot_fine
    # every model Laplace eigenvalue is an integer (k(k+n-1), l(l+1), |m|^2);
    # rounding keeps the free spectrum exact where sqrt(.)**2 misses by an ulp
    return np.diag(np.rint(basis.freqs ** 2)) + pot


def _refined_copy(basis: geometry.Basis) -> geometry.Basis:
    grid = basis.grid
    m = grid.manifold
    if m.kind == geometry.SPHERE_ZONAL:
        fine = geometry.zonal_grid(m.n, 2 * grid.size, pole_levels=grid.pole_levels)
        return geometry.ZonalSphereBasis(m.n, basis.K, fine)
    if m.kind == geometry.SPHERE_FULL_2D:
        nphi = np.unique(grid.nodes[:, 0]).size
        ntheta = np.unique(grid.nodes[:, 1]).size
        fine = geometry.full_sphere_grid(2 * nphi + 1, 2 * ntheta + 2)
        return geometry.FullSphereBasis(basis.K, fine)
    per_dim = int(round(grid.size ** (1.0 / m.n)))
    fine = geometry.torus_grid(m.n, 2 * per_dim)
    return geometry.TorusBasis(m.n, basis.K, fine)


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a Galerkin matrix, in ascending eigenvalue order.

    ``eigenvalues`` are the (shifted) Galerkin eigenvalues mu_i,
    ``eigenvectors`` their coefficient columns in the basis, and
    ``frequencies`` sqrt(max(mu_i, 0)); ``shift`` records the constant that
    ``solve`` added to the eigenvalues of H_V.

    ``node_values()`` is computed once per decomposition, on its first call,
    and every call returns that same read-only array; pole values are read
    from the basis the same way.  ``eigenvectors`` and ``basis`` must
    therefore not be mutated after that first call.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    basis: geometry.Basis | None = None
    shift: int = 0
    _node_values: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def frequencies(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.eigenvalues, 0.0))

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def node_values(self) -> np.ndarray:
        """Eigenfunction values on the basis quadrature grid, one column each
        (computed on the first call, then returned as the same read-only array)."""
        if self.basis is None:
            raise DomainError("decomposition carries no basis")
        if self._node_values is None:
            values = self.basis.values @ self.eigenvectors
            values.flags.writeable = False
            self._node_values = values
        return self._node_values

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        if self.basis is None:
            raise DomainError("decomposition carries no basis")
        return self.basis.values @ (self.eigenvectors @ coeffs)

    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of f in the eigenbasis (quadrature inner products)."""
        if self.basis is None:
            raise DomainError("decomposition carries no basis")
        return self.eigenvectors.T @ self.basis.project(f)


def diagonalize(matrix: np.ndarray,
                basis: geometry.Basis | None = None) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Eigenvalues ascend (stable sort) and each eigenvector has its
    largest-magnitude component positive.  A diagonal matrix with a finite,
    non-decreasing diagonal skips ``eigh`` and returns its output bit for
    bit: the diagonal, the identity, and as node values a C-contiguous copy
    of the basis values.  Raises DomainError for a non-square or
    non-symmetric matrix and NumericError when the solver does not converge.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    d = np.diagonal(A)
    if (np.count_nonzero(A) == np.count_nonzero(d) and np.all(np.isfinite(d))
            and np.all(d[1:] >= d[:-1])):
        # diagonal and ascending, as every free Galerkin matrix is: eigh
        # returns exactly (d, I) here, so skip it
        decomp = SpectralDecomposition(eigenvalues=d.copy(),
                                       eigenvectors=np.eye(A.shape[0]), basis=basis)
        if basis is not None:
            # what basis.values @ I gives: C order, and +0.0 for each -0.0
            values = np.add(basis.values, 0.0, order="C")
            values.flags.writeable = False
            decomp._node_values = values
        return decomp
    if not np.allclose(A, A.T, atol=1e-10 * max(1.0, float(np.max(np.abs(A))))):
        raise DomainError("matrix must be symmetric")
    try:
        mu, vecs = np.linalg.eigh(0.5 * (A + A.T))
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    vecs = vecs[:, order]
    # fixed sign convention: largest-magnitude component positive
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    vecs = vecs * signs
    return SpectralDecomposition(eigenvalues=mu, eigenvectors=vecs, basis=basis)


def _positivity_shift(mu: np.ndarray) -> int:
    """Smallest integer N >= 0 with mu[0] + N >= 1 for ascending eigenvalues
    ``mu``, forgiving a round-off of a few ulps of the matrix norm in mu[0]
    (so mu[0] = -5 - 1 ulp gives 6, not 7)."""
    scale = max(1.0, abs(float(mu[0])), abs(float(mu[-1])))
    slack = 8.0 * np.finfo(float).eps * scale
    return max(0, int(math.ceil(1.0 - float(mu[0]) - slack)))


def solve(V: Potential | None, manifold: geometry.ModelManifold, K: int,
          shift: int | str = 0) -> SpectralDecomposition:
    """Assemble and diagonalize H_V truncated at K, on a grid chosen for V:
    the pole-capped grid of depth ``geometry.SINGULAR_POLE_LEVELS`` when V has
    annotated singularities (``V.singular``), else the default grid.  Every V
    other than None is assembled with ``check=True``, so a grid that cannot
    resolve V raises NumericError.  The shift N is added to the eigenvalues
    of H_V; ``shift='auto'`` picks the smallest integer N >= 0 making the
    lowest of them at least 1, up to round-off.
    """
    levels = geometry.SINGULAR_POLE_LEVELS if V is not None and V.singular else 0
    basis = geometry.build_basis(manifold, K,
                                 geometry.default_grid(manifold, K, pole_levels=levels))
    decomp = diagonalize(assemble(V, basis, check=True), basis)
    n_shift = _positivity_shift(decomp.eigenvalues) if shift == "auto" else int(shift)
    if n_shift == 0:
        return decomp
    return SpectralDecomposition(eigenvalues=decomp.eigenvalues + n_shift,
                                 eigenvectors=decomp.eigenvectors, basis=basis, shift=n_shift)


def multiplier(decomp: SpectralDecomposition, fn: Callable[[np.ndarray], np.ndarray],
               f: np.ndarray) -> np.ndarray:
    """Apply m(sqrt(H)) to grid values f through the eigenbasis."""
    coeffs = decomp.project(f)
    weights = np.asarray(fn(decomp.frequencies))
    return decomp.synthesize(weights * coeffs)


def multiplier_kernel(decomp: SpectralDecomposition,
                      fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Node-space kernel K(x_i, y_j) = sum_k m(lambda_k) e_k(x_i) e_k(y_j)."""
    U = decomp.node_values()
    weights = np.asarray(fn(decomp.frequencies))
    return (U * weights[None, :]) @ U.T


def band_indices(decomp: SpectralDecomposition, lo: float, hi: float) -> np.ndarray:
    freq = decomp.frequencies
    return np.nonzero((freq > lo) & (freq <= hi))[0]


def lp_psi(xi) -> np.ndarray:
    """Smooth low-pass profile: 1 on [0, 1.2], 0 on [1.8, infinity).

    The transition sits strictly inside the octave so the dyadic bumps
    lp_beta have genuine plateaus where they equal 1."""
    from .potentials import _smoothstep
    return 1.0 - _smoothstep((np.asarray(xi, dtype=float) - 1.2) / 0.6)


def lp_beta(j: int, xi) -> np.ndarray:
    """Dyadic Littlewood-Paley bumps: beta_0 = psi, beta_j = psi(./2^j) -
    psi(./2^{j-1}) for j >= 1; they telescope to 1 on [0, 2^J]."""
    xi = np.asarray(xi, dtype=float)
    if j < 0:
        raise DomainError("dyadic index must be nonnegative")
    if j == 0:
        return lp_psi(xi)
    return lp_psi(xi / 2.0 ** j) - lp_psi(xi / 2.0 ** (j - 1))


def lp_profile(s) -> np.ndarray:
    """The single smooth bump supported in (1/2, 2): psi(s) - psi(2s)."""
    s = np.asarray(s, dtype=float)
    return lp_psi(s) - lp_psi(2.0 * s)
