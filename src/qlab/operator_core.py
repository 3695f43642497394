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
from .potentials import Potential, _smoothstep


def _check_potential(V: Potential | None, manifold: geometry.ModelManifold) -> None:
    if V is not None and manifold.kind == geometry.TORUS:
        raise DomainError("zonal potentials are not defined on the torus; "
                          "pass V=None or assemble on a sphere")


def _signed_nodes(V: Potential, rule: geometry.QuadratureGrid
                  ) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The nodes of the zonal ``rule`` V is summed on (folded by
    ``geometry.hemisphere`` for an even V), ordered w V > 0, then < 0, then
    = 0, each in rule order: the nodes in that order, w V in that order, and
    the number of nodes with w V > 0 and with w V < 0.  Raises NumericError
    naming the first node, by its index and coordinates in the unfolded
    rule, where w V is not finite."""
    grid = geometry.hemisphere(rule) if V.even else rule
    wv = grid.weights * np.asarray(V(grid.nodes), dtype=float)
    bad = np.flatnonzero(~np.isfinite(wv))
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"potential not finite at node {i} of {rule.size} "
                           f"(coordinates {rule.nodes[i]}): w*V = {float(wv[i])}; "
                           "V must be finite on the quadrature grid")
    plus, minus = np.flatnonzero(wv > 0.0), np.flatnonzero(wv < 0.0)
    order = np.concatenate([plus, minus, np.flatnonzero(wv == 0.0)])
    return grid.nodes[order], wv[order], plus.size, minus.size


def _zonal_rule(V: Potential, n: int, K: int,
                refine: geometry.QuadratureGrid | None = None) -> geometry.QuadratureGrid:
    """The zonal rule of S^n a zonal V is summed on at truncation K, on the
    zonal sphere and on the full S^2 (n = 2) alike: the Gauss nodes of
    ``geometry.default_grid``, pole-capped at ``SINGULAR_POLE_LEVELS`` for a
    singular V.  Given that rule as ``refine``, it gives instead the rule of
    ``assemble``'s check: twice its nodes, at the same cap depth, so a
    pole-capped rule keeps its caps node for node and doubles its bulk."""
    levels = geometry.SINGULAR_POLE_LEVELS if V.singular else 0
    if refine is not None:
        return geometry.zonal_grid(n, 2 * refine.size, levels)
    return geometry.default_grid(geometry.ModelManifold(geometry.SPHERE_ZONAL, n), K, levels)


# the degree-parity pair: the blocks of the Galerkin matrix of an even zonal V
# (and of each order's block on the full S^2, by the parity of k - m)
_PARITY = (slice(0, None, 2), slice(1, None, 2))


def _split_gram(E: np.ndarray, wv: np.ndarray, npos: int, nneg: int,
                parity: bool) -> np.ndarray:
    """E^T diag(wv) E as S+^T S+ - S-^T S-, exactly symmetric.  ``E`` holds
    rows private to the call, at nodes ordered w V > 0 (the first ``npos``),
    then < 0 (the next ``nneg``), then = 0, and ``wv`` is w V in that order
    (entries past the first npos + nneg are not read).  The rows are scaled
    by sqrt(|w V|) in place, so S+- are views of E and numpy sends each
    S^T S to SYRK, a rank-k update.  With ``parity`` only the blocks of
    ``_PARITY`` are formed and every entry across parity is exactly 0.  E is
    freed before the J x J matrix is allocated."""
    pos, neg = slice(0, npos), slice(npos, npos + nneg)
    E[pos] *= np.sqrt(wv[pos])[:, None]
    E[neg] *= np.sqrt(-wv[neg])[:, None]
    J = E.shape[1]
    cols = _PARITY if parity else (slice(None),)
    blocks = []
    for c in cols:
        blocks.append(E[pos, c].T @ E[pos, c])
        blocks[-1] -= E[neg, c].T @ E[neg, c]
    del E
    if not parity:
        return blocks[0]
    M = np.zeros((J, J))
    for c, block in zip(cols, blocks):
        M[c, c] = block
    return M


def _by_moments(manifold: geometry.ModelManifold) -> bool:
    """Whether ``assemble`` forms the potential block on ``manifold`` from the
    cosine moments of V (``_moment_matrix``): the zonal S^3, where it is
    exact and is summed on no grid."""
    return manifold.kind == geometry.SPHERE_ZONAL and manifold.n == 3


# the moment rule of ``_cosine_moments``: the cap cutoff chi falls from 1 to 0
# on [_CUT[0], _CUT[1]]; no Gauss cap panel is wider than _PANEL; the Taylor
# terms and the depth exp(-depth) of the innermost cap, for the rule and for
# its check; and the check's tolerance, relative to the largest moment
_CUT = (0.05, 0.15)
_PANEL = 0.005
_TAYLOR = (14, 18)
_DEPTH = (80.0, 120.0)
_MOMENT_TOL = 1e-10


def _finite_values(V: Potential, phi: np.ndarray) -> np.ndarray:
    """V at the nodes ``phi`` of the moment rule; raises NumericError naming
    the first node where V is not finite."""
    v = np.asarray(V(phi), dtype=float)
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        i = int(bad[0])
        raise NumericError(f"potential not finite at phi = {float(phi[i])!r}, a node of "
                           f"the cosine-moment rule: V = {float(v[i])}; V must be finite "
                           "on (0, pi)")
    return v


def _ramp(phi: np.ndarray) -> np.ndarray:
    """1 - chi: the smooth rise from 0 at phi = _CUT[0] to 1 at _CUT[1]."""
    return _smoothstep((phi - _CUT[0]) / (_CUT[1] - _CUT[0]))


def _cap_moments(V: Potential, M: int, fine: bool, south: bool) -> np.ndarray:
    """(1/pi) int_0^{_CUT[1]} V chi (cos m phi - s_m) dphi, m = 0..M, with chi
    the cap cutoff, for the north cap, or with ``south`` for the south cap
    read from pi (V at pi - phi, times (-1)^m).  On [0, t], t = min(1/M,
    _CUT[0]), where chi = 1 and m phi <= 1, cos m phi - s_m is its Taylor
    series, so the cap needs the power moments of V there, on Gauss panels
    graded geometrically down to exp(-depth); on [t, _CUT[1]] the Gauss
    panels are graded geometrically from t up to a width of min(pi/M,
    _PANEL).  ``fine`` halves every panel, and goes deeper with more Taylor
    terms."""
    terms, depth = _TAYLOR[fine], _DEPTH[fine]
    t = min(1.0 / M, _CUT[0])
    inner = t * 1.5 ** -np.arange(math.ceil((depth + math.log(t)) / math.log(1.5)), -1, -1)
    outer = [t]
    while outer[-1] < _CUT[1]:
        outer.append(min(outer[-1] + min(0.5 * outer[-1], math.pi / M, _PANEL), _CUT[1]))
    m = np.arange(M + 1)
    odd = m % 2 == 1
    out = np.zeros(M + 1)
    for taylor, edges in ((True, inner), (False, np.array(outer))):
        if fine:  # every panel split at its midpoint
            edges = np.sort(np.append(edges, 0.5 * (edges[:-1] + edges[1:])))
        x, w = geometry._gauss_panels(edges, 8)
        if south:  # pi - x rounds to pi below about 4e-15: those nodes are dropped
            keep = x > 4e-15
            w, x = w[keep], x[keep]
        chi = 1.0 if taylor else 1.0 - _ramp(x)  # chi = 1 on [0, t]
        h = w * chi * _finite_values(V, math.pi - x if south else x) / math.pi
        if not np.any(h):
            continue
        if taylor:
            # cos m x - 1 and cos m x - cos x as sums over p >= 1 of
            # (-1)^p (m^2p - [m odd]) x^2p / (2p)!, scaled by t^2p
            p = np.arange(1, terms + 1)
            coef = (-1.0) ** p / np.array([float(math.factorial(2 * k)) for k in p])
            u, hu, powers = (x / t) ** 2, h.copy(), np.empty(terms)
            for i in range(terms):
                hu *= u
                powers[i] = hu.sum()
            out += ((m[:, None] * t) ** (2 * p) - odd[:, None] * t ** (2 * p)) @ (coef * powers)
            continue
        # sum_i h_i exp(i (qR + r) x_i) for all q, r as one product of the
        # tables of exp(i qR x) and exp(i r x): 2 sqrt(M) rows, not M
        R = math.isqrt(M) + 1
        low = np.exp(1j * np.multiply.outer(np.arange(R), x))
        high = np.exp(1j * np.multiply.outer(R * np.arange(-(-(M + 1) // R)), x))
        out += (high * h @ low.T).real.ravel()[:M + 1]
        out -= np.where(odd, h @ low[1].real, h.sum())
    return out * (-1.0) ** m if south else out


def _cosine_moments(V: Potential, M: int, fine: bool = False) -> np.ndarray:
    """d_m = (1/pi) int_0^pi V (cos m phi - s_m) dphi, m = 0..M, with s_m = 1
    for even m and cos phi for odd m, so that cos m phi - s_m vanishes to
    second order at both poles and d_m is finite for every V with V phi^2
    integrable there.  V chi at each pole comes from ``_cap_moments`` (one
    cap, doubled, for an even V), and the bulk V (1 - chi) from one DCT-I
    (``np.fft.rfft`` of its even extension) on a uniform grid of 2M
    intervals or more, at least 4096, rounded up to a power of 2 (``fine``:
    twice as many).  An even V has d_m = 0 for odd m, and is evaluated on
    [0, pi/2] only."""
    N = 2 ** max(12, math.ceil(math.log2(2 * M))) * (1 + fine)
    phi = math.pi * np.arange(N + 1) / N
    g = np.zeros(N + 1)
    top = N // 2 + 1 if V.even else N + 1
    live = np.flatnonzero((phi[:top] > _CUT[0]) & (phi[:top] < math.pi - _CUT[0]))
    x = phi[live]
    g[live] = _finite_values(V, x) * _ramp(x) * _ramp(math.pi - x)
    if V.even:
        g[top:] = g[N - top::-1]
    c = np.fft.rfft(np.concatenate([g, g[-2:0:-1]]))[:M + 1].real / (2 * N)
    d = c - np.where(np.arange(M + 1) % 2 == 1, c[1], c[0])
    north = _cap_moments(V, M, fine, south=False)
    if V.even:
        d += 2.0 * north
        d[1::2] = 0.0
    else:
        d += north + _cap_moments(V, M, fine, south=True)
    return d


def _toeplitz_hankel(t: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix T - H with T[j, k] = t[|j - k|] and H[j, k] = h[j + k],
    exactly symmetric, from two strided views."""
    window = np.lib.stride_tricks.sliding_window_view
    return window(np.concatenate([t[n - 1:0:-1], t[:n]]), n)[::-1] - window(h[:2 * n - 1], n)


def _moment_matrix(d: np.ndarray, K: int, even: bool) -> np.ndarray:
    """The exact Galerkin block on the zonal S^3 at truncation K from the
    cosine moments d_m of V, m = 0..2K+2 (``_cosine_moments``).  There
    e_k = sin((k+1) phi) / (pi sqrt(2) sin phi) and dvol = 4 pi sin^2 phi dphi,
    so <V e_j, e_k> = d_{|j-k|} - d_{j+k+2}: Toeplitz minus Hankel, and every
    leading block is the matrix of a smaller K.  For an ``even`` V the two
    parity blocks read the even moments only and are filled apart; every
    entry across parity is exactly 0."""
    if not even:
        return _toeplitz_hankel(d, d[2:], K + 1)
    even_d = d[0::2]
    out = np.zeros((K + 1, K + 1))
    out[0::2, 0::2] = _toeplitz_hankel(even_d, even_d[1:], K // 2 + 1)
    out[1::2, 1::2] = _toeplitz_hankel(even_d, even_d[2:], (K + 1) // 2)
    return out


def _rule_matrix(V: Potential, basis: geometry.Basis,
                 rule: geometry.QuadratureGrid) -> np.ndarray:
    """Galerkin matrix <V e_j, e_k> summed on ``rule``, a zonal rule of the
    basis's S^n, by ``_split_gram``, exactly symmetric.  On the zonal sphere
    its rows are one table of the basis functions at the nodes where
    w V != 0, in sign order (``_signed_nodes``), from ``basis.evaluate``: on
    a Gauss rule equal to the basis grid, the basis rows bit for bit.  On
    the full S^2 a zonal V couples only modes of one order m and one
    trigonometric factor: one block per order, from the associated-Legendre
    table on the rule, is written at the cos and at the sin columns of that
    order, every other entry is exactly 0, and no N x J table is built.  An
    even V is summed on the hemisphere fold of the rule, by parity blocks
    (of k - m on the full S^2) with exact zeros across parity.  Raises
    NumericError naming the first node where w V is not finite."""
    nodes, wv, npos, nneg = _signed_nodes(V, rule)
    phi = nodes[:npos + nneg]
    if basis.manifold.kind != geometry.SPHERE_FULL_2D:
        return _split_gram(basis.evaluate(phi), wv, npos, nneg, V.even)
    M = np.zeros((basis.size, basis.size))
    for m in range(basis.K + 1):
        # the table of P~_k^m, k = m..K, one column per degree
        block = _split_gram(geometry._normalized_assoc_legendre(basis.K, m, phi).T,
                            wv, npos, nneg, V.even)
        for cols in basis._order_columns(m):
            M[np.ix_(cols, cols)] = block
    return M


_CHECK_TOL = 0.01  # largest entry move under grid refinement, relative to the matrix scale


def assemble(V: Potential | None, basis: geometry.Basis,
             check: bool = False) -> np.ndarray:
    """Galerkin matrix of -Delta_g + V in the given basis, exactly symmetric:
    the one place where V becomes a block, by the route picked here.

    On the zonal S^3 the block is the Toeplitz-minus-Hankel fill
    (``_moment_matrix``) of the cosine moments of V, read from no grid, and
    ``check=True`` recomputes the moments on the refined moment rule (every
    panel halved, the DCT doubled, the pole cap deeper), each move measured
    against the largest |moment| with a tolerance of 1e-10 (``_MOMENT_TOL``);
    the block is that of the rule.  Elsewhere the block is summed on the
    rule of ``_zonal_rule`` (``_rule_matrix``), and ``check=True`` sums it
    again on the rule's refined copy, which keeps the caps of a pole-capped
    rule node for node, each entry's move measured against the largest
    |entry| of the refined block with a tolerance of 1% (``_CHECK_TOL``);
    the block is the refined one.  w V is checked on the rule before any
    refined work, so the NumericError for a V that is not finite names a
    node of that rule.  Both checks go through one gate, which raises
    NumericError naming the worst moment or entry unless every move is at
    most the tolerance times the scale; a NaN move or scale fails it.
    V = None gives the free matrix; a V on the torus raises DomainError.
    """
    _check_potential(V, basis.manifold)
    J, n, K = basis.size, basis.manifold.n, basis.K
    move = None
    if V is None:
        pot = np.zeros((J, J))  # all +0.0: the pass of + 0.0 below is skipped
    elif _by_moments(basis.manifold):
        d = _cosine_moments(V, 2 * K + 2)
        if check:
            move = np.abs(_cosine_moments(V, 2 * K + 2, fine=True) - d)
            scale, tol, refined = float(np.max(np.abs(d))), _MOMENT_TOL, "moment rule"
        pot = _moment_matrix(d, K, V.even)
    else:
        rule = _zonal_rule(V, n, K)
        pot = _rule_matrix(V, basis, rule)  # checks w V on the rule first
        if check:
            fine = _rule_matrix(V, basis, _zonal_rule(V, n, K, refine=rule))
            scale = max(float(np.max(fine)), -float(np.min(fine)), 1e-300)
            move = np.abs(np.subtract(fine, pot, out=pot), out=pot)
            pot, tol, refined = fine, _CHECK_TOL, "grid"
    if move is not None:
        i = int(np.argmax(move))  # the first NaN if there is one, which fails
        if not move.flat[i] <= tol * scale:
            where = (f"cosine moment {i}" if move.ndim == 1
                     else "entry ({}, {})".format(*divmod(i, J)))
            raise NumericError(
                f"potential assembly not converged: {where} moved by {move.flat[i]:.3e} "
                f"(scale {scale:.3e}) under refinement of the {refined}; this {refined} cannot "
                "resolve the potential (see 'Potential references' in docs/configuration.md)")
    # every model Laplace eigenvalue is an integer (k(k+n-1), l(l+1), |m|^2);
    # rounding keeps the free spectrum exact where sqrt(.)**2 misses by an ulp.
    # In place this is np.diag(.) + pot bit for bit: the + 0.0 turns each
    # -0.0 off the diagonal into the +0.0 that sum gives
    if V is not None:
        np.add(pot, 0.0, out=pot)
    pot[np.diag_indices(J)] += np.rint(basis.freqs ** 2)
    return pot


@dataclass
class SpectralDecomposition:
    """Eigenpairs of a Galerkin matrix, in ascending eigenvalue order.

    ``eigenvalues`` are the (shifted) Galerkin eigenvalues mu_i,
    ``eigenvectors`` their coefficient columns in the basis, and
    ``frequencies`` sqrt(max(mu_i, 0)); ``shift`` records the constant that
    ``solve`` added to the eigenvalues of H_V.

    Every product with the eigenvectors goes through ``node_values``,
    ``values_at``, ``synthesize`` or ``project``.  A free decomposition
    (``diagonalize``'s diagonal shortcut, ``_vectors`` None) holds no
    eigenvector matrix: its eigenvectors are the identity, and these
    methods read the basis rows and coefficients directly, plus 0.0 and in
    C order, which is what a product with the identity gives for finite
    input.  Its ``eigenvectors`` are built on each read, which no probe
    makes.

    ``node_values()`` is computed once per decomposition, on its first call,
    and every call returns that same read-only array; pole values are read
    from the basis the same way.  ``eigenvectors`` and ``basis`` must
    therefore not be mutated after that first call.
    """

    eigenvalues: np.ndarray
    _vectors: np.ndarray | None = field(repr=False)
    basis: geometry.Basis | None = None
    shift: int = 0
    _node_values: np.ndarray | None = field(default=None, init=False, repr=False,
                                            compare=False)

    @property
    def eigenvectors(self) -> np.ndarray:
        """The J x J coefficient columns; for a free decomposition, a new
        ``np.eye(J)`` on each read."""
        return np.eye(self.size) if self._vectors is None else self._vectors

    @property
    def frequencies(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.eigenvalues, 0.0))

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]

    def _basis(self) -> geometry.Basis:
        if self.basis is None:
            raise DomainError("decomposition carries no basis")
        return self.basis

    def values_at(self, rows: np.ndarray, idx: np.ndarray | None = None) -> np.ndarray:
        """The eigenfunctions (those of ``idx``, all by default) at the points
        whose basis values are ``rows``, one column each: rows @
        eigenvectors[:, idx]."""
        if self._vectors is None:
            return np.add(rows if idx is None else rows[..., idx], 0.0, order="C")
        return rows @ (self._vectors if idx is None else self._vectors[:, idx])

    def node_values(self) -> np.ndarray:
        """Eigenfunction values on the basis quadrature grid, one column each
        (computed on the first call, then returned as the same read-only array)."""
        if self._node_values is None:
            values = self.values_at(self._basis().values)
            values.flags.writeable = False
            self._node_values = values
        return self._node_values

    def synthesize(self, coeffs: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The function with eigen-coefficients ``coeffs`` on the grid, or at
        the points whose basis values are ``rows``."""
        table = self._basis().values if rows is None else rows
        if self._vectors is None:
            return table @ np.add(coeffs, 0.0, order="C")
        return table @ (self._vectors @ coeffs)

    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients of f in the eigenbasis (quadrature inner products)."""
        c = self._basis().project(f)
        return np.add(c, 0.0, order="C") if self._vectors is None else self._vectors.T @ c


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver did not converge: {exc}") from exc


# LAPACK's dsyevd rescales a matrix whose largest |entry| lies outside
# [sqrt(tiny/u), sqrt(u/tiny)] (u = eps/2; about [1.5e-146, 6.7e145]), which
# may move the last bits of its eigenvalues
_EIGH_UNSCALED = (math.sqrt(np.finfo(float).tiny / (np.finfo(float).eps / 2)),
                  math.sqrt(np.finfo(float).eps / 2 / np.finfo(float).tiny))


def diagonalize(matrix: np.ndarray,
                basis: geometry.Basis | None = None) -> SpectralDecomposition:
    """Full eigendecomposition of a symmetric matrix via LAPACK ``eigh``.

    Eigenvalues ascend (stable sort) and each eigenvector has its
    largest-magnitude component positive.  A diagonal matrix with a
    non-decreasing diagonal whose largest |entry| is 0 or lies in the range
    where ``eigh`` does not rescale (``_EIGH_UNSCALED``) skips ``eigh`` and
    returns its output bit for bit: the diagonal, and the identity as a free
    decomposition that holds no eigenvector matrix, whose node values are a
    C-contiguous copy of the basis values, made on their first read (so a
    free full-S^2 solve builds no N x J table until then).  Any other
    diagonal matrix is solved whole.  A non-diagonal matrix is solved by symmetry
    class (``basis.classes``; index parity without a basis): classes that
    the matrix couples by any nonzero entry are merged (``_coupled``), and
    each merged class gets one ``eigh``.  The spectra are concatenated in
    the order of each class's lowest index and go through one stable sort
    and one sign rule, so a tie lists the eigenvector of the class with the
    lower first index first (even before odd on the zonal sphere, cos before
    sin on the full S^2).  Raises
    DomainError for a non-square or non-symmetric matrix, and NumericError
    for a matrix with an entry that is not finite or whose symmetrization
    0.5 (A + A^T) overflows, and when the solver does not converge.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("matrix must be square")
    d = np.diagonal(A)
    nonzero = A != 0.0
    diagonal = np.count_nonzero(nonzero) == np.count_nonzero(d)
    top = float(np.max(np.abs(d), initial=0.0))
    unscaled = top == 0.0 or _EIGH_UNSCALED[0] <= top <= _EIGH_UNSCALED[1]
    if diagonal and unscaled and np.all(d[1:] >= d[:-1]):
        # diagonal and ascending, as every free Galerkin matrix is, and in the
        # range eigh does not rescale: eigh returns exactly (d, I) here, so skip it
        return SpectralDecomposition(d.copy(), None, basis)
    J = A.shape[0]
    # a diagonal matrix is solved whole: LAPACK orders its repeated
    # eigenvalues in its own way, which the classes would not reproduce
    classes = [np.arange(J)] if diagonal else _coupled(
        nonzero, np.arange(J) % 2 if basis is None else basis.classes)
    del nonzero
    # eigh reads 0.5 (A + A^T): no |entry| may pass half the largest float, nor be NaN
    top = max(float(np.max(A)), -float(np.min(A)))
    if not top <= np.finfo(float).max / 2:
        raise NumericError(f"matrix not finite: largest |entry| {top:.3e} overflows 0.5 (A + A^T)")
    # every entry between merged classes is 0, so the matrix is symmetric
    # where its blocks are
    atol = 1e-10 * max(1.0, top)
    parts = []
    for idx in classes:
        block = A if len(classes) == 1 else A.take(idx, axis=0).take(idx, axis=1)
        if not np.allclose(block, block.T, atol=atol):
            raise DomainError("matrix must be symmetric")
        block = block + block.T
        block *= 0.5
        w, v = _eigh(block)
        signs = _signs(v)
        v *= signs
        parts.append((w, v, signs))
    del A, block
    mu = np.concatenate([w for w, _, _ in parts])
    order = np.argsort(mu, kind="stable")
    mu = mu[order]
    # each class's eigenvectors go straight to their sorted columns, and the
    # entries off its class get the sign of their column as a signed 0, as
    # the sign rule on the whole matrix gives them; a column's largest
    # component lies in its class (first on ties too)
    column = np.empty_like(order)
    column[order] = np.arange(J)
    vecs = np.empty((J, J))
    vecs[:] = np.copysign(0.0, np.concatenate([signs for _, _, signs in parts])[order])
    start = 0
    for idx, (w, v, _) in zip(classes, parts):
        vecs[np.ix_(idx, column[start:start + w.size])] = v
        start += w.size
    return SpectralDecomposition(mu, vecs, basis)


def _coupled(nonzero: np.ndarray, labels: np.ndarray) -> list[np.ndarray]:
    """The classes of ``labels`` with every two that a matrix couples by a
    nonzero entry (``nonzero``, its pattern; either triangle counts) merged,
    transitively, each as its ascending indices, in the order of their
    lowest index."""
    _, first, label = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    label = rank[label]  # classes numbered by their lowest index
    perm = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[perm])) + 1
    # touch[c, d]: an entry in the rows of class c and the columns of class d
    touch = np.array([rows.any(axis=0) for rows in np.split(nonzero[perm], bounds)])
    touch = np.array([cols.any(axis=1)
                      for cols in np.split(touch[:, perm], bounds, axis=1)]).T
    reach = touch | touch.T | np.eye(first.size, dtype=bool)
    while True:  # the transitive closure, by squaring
        closure = (reach.astype(float) @ reach.astype(float)) > 0.0
        if np.array_equal(closure, reach):
            break
        reach = closure
    merged = np.argmax(reach, axis=1)[label]  # the lowest class each one reaches
    perm = np.argsort(merged, kind="stable")
    return np.split(perm, np.flatnonzero(np.diff(merged[perm])) + 1)


def _signs(vecs: np.ndarray) -> np.ndarray:
    """The fixed sign convention: the sign of each column's largest-magnitude
    component (the first on ties), 1 for a zero column."""
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return signs


def _positivity_shift(mu: np.ndarray) -> int:
    """Smallest integer N >= 0 with mu[0] + N >= 1 for ascending eigenvalues
    ``mu``, forgiving a round-off of a few ulps of the matrix norm in mu[0]
    (so mu[0] = -5 - 1 ulp gives 6, not 7)."""
    scale = max(1.0, abs(float(mu[0])), abs(float(mu[-1])))
    slack = 8.0 * np.finfo(float).eps * scale
    return max(0, int(math.ceil(1.0 - float(mu[0]) - slack)))


def _solve_rules(V: Potential | None, manifold: geometry.ModelManifold, K: int
                 ) -> tuple[geometry.Basis, int]:
    """The basis ``solve`` builds at K (its N x J table built on first read)
    and the number F of nodes its check evaluates the basis at: the refined
    copy of V's ``_zonal_rule`` (both built here), or its ``hemisphere`` fold
    for an even V; 0 where the check builds no refined table (V = None, the
    full S^2, the zonal S^3).  DomainError: weights underflow (about S^150 on)."""
    try:
        basis = geometry.build_basis(manifold, K)
        if V is None or manifold.kind != geometry.SPHERE_ZONAL or _by_moments(manifold):
            return basis, 0
        fine = _zonal_rule(V, manifold.n, K, refine=_zonal_rule(V, manifold.n, K))
    except DomainError as exc:
        raise DomainError(f"{exc}: the rules of S^{manifold.n} at K={K} have weights that "
                          "underflow to 0 near the poles; lower n or K") from None
    return basis, (geometry.hemisphere(fine) if V.even else fine).size


def solve(V: Potential | None, manifold: geometry.ModelManifold, K: int,
          shift: int | str = 0) -> SpectralDecomposition:
    """Assemble and diagonalize H_V truncated at K: the basis on
    ``geometry.default_grid``, where it is orthonormal, and V through
    ``assemble(check=True)``, so a V that its route cannot resolve, or a
    matrix that is not finite, raises NumericError.  The shift N is added to
    the eigenvalues of H_V; ``shift='auto'`` picks the smallest integer
    N >= 0 making the lowest of them at least 1, up to round-off."""
    return _solve_on(V, geometry.build_basis(manifold, K), shift)


def _solve_on(V: Potential | None, basis: geometry.Basis, shift) -> SpectralDecomposition:
    """``solve`` on a built basis, such as the one a plan's ``_solve_rules`` built."""
    decomp = diagonalize(assemble(V, basis, check=True), basis)
    decomp.shift = _positivity_shift(decomp.eigenvalues) if shift == "auto" else int(shift)
    if decomp.shift:  # a shift moves only the eigenvalues: the node values stay
        decomp.eigenvalues = decomp.eigenvalues + decomp.shift
    return decomp


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


def band_indices(freq: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the frequencies ``freq`` in (lo, hi]."""
    return np.nonzero((freq > lo) & (freq <= hi))[0]


def lp_psi(xi) -> np.ndarray:
    """Smooth low-pass profile: 1 on [0, 1.2], 0 on [1.8, infinity).

    The transition sits strictly inside the octave so the dyadic bumps
    lp_beta have genuine plateaus where they equal 1."""
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
