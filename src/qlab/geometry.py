"""Model manifolds, Laplace eigenbases, quadrature grids and L^p norms.

Three model geometries are supported:

* ``sphere-zonal(n)`` -- the rotation-invariant (zonal) sector of the unit
  round sphere S^n, where every function depends only on the polar angle
  ``phi`` and the Laplacian reduces to a weighted Sturm-Liouville operator
  in ``phi``.
* ``sphere-full-2d`` -- the full unit sphere S^2 with a real spherical
  harmonic basis.
* ``torus(n)`` -- the flat torus [0, 2pi)^n with a real Fourier basis.

Every basis is orthonormal under the weights of the Gauss, product or torus
grid of ``default_grid``, not of a pole-capped rule, and frequencies follow
``lambda_j = sqrt(mu_j)`` with ``mu_j`` the Laplace eigenvalue (``k(k+n-1)``
on spheres, ``|m|^2`` on the torus).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError, ResolutionError

SPHERE_ZONAL = "sphere-zonal"
SPHERE_FULL_2D = "sphere-full-2d"
TORUS = "torus"

_KINDS = (SPHERE_ZONAL, SPHERE_FULL_2D, TORUS)


def sphere_volume(n: int) -> float:
    """Volume of the unit round sphere S^n (surface measure), past S^342 by log-gamma."""
    h = (n + 1) / 2.0
    if h < 172.0:
        return 2.0 * math.pi ** h / math.gamma(h)
    return 2.0 * math.exp(h * math.log(math.pi) - math.lgamma(h))


@dataclass(frozen=True)
class ModelManifold:
    """One of the model geometries, with unit metric normalization."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown manifold kind {self.kind!r}; expected one of {_KINDS}")
        if self.n < 2:
            raise DomainError(f"dimension must be >= 2, got {self.n}")
        if self.kind == SPHERE_FULL_2D and self.n != 2:
            raise DomainError("sphere-full-2d requires n = 2")

    @property
    def volume(self) -> float:
        if self.kind == TORUS:
            return (2.0 * math.pi) ** self.n
        return sphere_volume(self.n)


@dataclass(frozen=True)
class QuadratureGrid:
    """Quadrature nodes and weights carrying the full volume element.

    ``nodes`` has shape (N,) for zonal grids (polar angles ``phi``) and
    (N, d) for product grids (``(phi, theta)`` on S^2, angles on a torus).
    ``weights`` sum to the manifold volume.  ``shape`` is (n_phi, n_theta)
    for a full-S^2 product grid, whose nodes run phi-major, so its axes are
    ``nodes[::n_theta, 0]`` and ``nodes[:n_theta, 1]``; it is () for every
    other grid.
    """

    manifold: ModelManifold
    nodes: np.ndarray
    weights: np.ndarray
    shape: tuple[int, ...] = ()

    def __post_init__(self):
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise DomainError("nodes and weights must have matching lengths")
        if self.nodes.shape[0] == 0:
            raise DomainError("empty quadrature grid")
        if self.shape and math.prod(self.shape) != self.nodes.shape[0]:
            raise DomainError(f"grid shape {self.shape} does not match its "
                              f"{self.nodes.shape[0]} nodes")
        if np.any(self.weights <= 0):
            raise DomainError("quadrature weights must be positive")

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, values: np.ndarray) -> complex:
        values = np.asarray(values)
        if values.shape[0] != self.size:
            raise DomainError("grid function length does not match grid size")
        return np.sum(self.weights * values, axis=0)


_NEWTON_STEPS = 10  # alpha <= 10 (S^n with n <= 22) takes at most 9
_NEWTON_TOL = 4.0 * np.finfo(float).eps  # absolute, since |x| <= 1
_ALPHA_MAX = 10.5  # Newton settles every rule up to S^23; at alpha = 11 every m >= 13 fails


def _recurrence(x: np.ndarray, b: list[float], christoffel: bool = False):
    """Run b_{k+1} p_{k+1} = x p_k - b_k p_{k-1} at the points ``x`` from
    p_{-1} = 0, p_0 = 1, one step per entry of ``b``: the orthonormal
    polynomials of the weight, times sqrt(mu_0).  Returns the last two p_k,
    or with ``christoffel`` the sum of the squares of all of them."""
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    total = np.ones_like(x)
    bk = 0.0
    for bnext in b:
        p2 = x * p1
        p2 -= bk * p0
        p2 /= bnext
        if christoffel:
            total += p2 * p2
        p0, p1, bk = p1, p2, bnext
    return total if christoffel else (p0, p1)


def gauss_gegenbauer(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes/weights for the weight (1-x^2)^alpha on [-1, 1].

    Newton's method on the orthonormal three-term recurrence, vectorized over
    the non-negative nodes, which are then mirrored: the rule is exactly
    symmetric and an odd m has its centre node at exactly 0.  The weights are
    the Christoffel numbers mu_0 / sum_{k<m} p_k(x_i)^2.  O(m^2) flops and O(m)
    memory.  Raises DomainError unless -1 < alpha <= 10.5, and NumericError if
    Newton has not settled to a few ulps within a fixed number of steps or has
    missed a node.  alpha = 0 recovers Gauss-Legendre; on S^n the polar volume
    element needs alpha = (n-2)/2.
    """
    if m < 1:
        raise DomainError("need at least one quadrature node")
    if not -1.0 < alpha <= _ALPHA_MAX:
        raise DomainError(f"no Gauss rule for the weight (1-x^2)^alpha at alpha = {alpha:g} "
                          f"(S^{2 * alpha + 2:g}): need -1 < alpha <= {_ALPHA_MAX:g}, "
                          "the weight of S^n with n <= 23")
    k = np.arange(1, m + 1)
    a = alpha
    num = 4.0 * k * (k + a) * (k + a) * (k + 2 * a)
    den = (2 * k + 2 * a) ** 2 * (2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        bsq = num / den
    bsq[0] = 1.0 / (2.0 * a + 3.0)  # moment ratio mu_2/mu_0; the general
    # expression is 0/0 at k = 1 for the Chebyshev case a = -1/2
    b = np.sqrt(bsq).tolist()
    half = m // 2
    rho = m + a + 0.5
    t = np.pi * (np.arange(1, half + 1) - 0.25 + a / 2.0) / rho
    # Gatteschi-Pittaluga estimates of the positive nodes, descending
    x = np.cos(t + (0.25 - a * a) / (2.0 * rho * rho * np.tan(t)))
    # (1 - x^2) p_m' = (2m + 2 alpha + 1) b_m p_{m-1} - m x p_m
    c = (2 * m + 2 * a + 1) * b[-1]
    for _ in range(_NEWTON_STEPS):
        prev, p = _recurrence(x, b)
        dx = p * ((1.0 - x) * (1.0 + x)) / (c * prev - m * x * p)
        x -= dx
        if np.max(np.abs(dx), initial=0.0) <= _NEWTON_TOL:
            break
    else:
        raise NumericError(f"Gauss rule m={m}, alpha={alpha}: Newton did not converge "
                           f"in {_NEWTON_STEPS} steps")
    if half and not (0.0 < x[-1] and x[0] < 1.0 and np.all(np.diff(x) < 0.0)):
        # two starts fell into one root's basin, so some root was missed
        raise NumericError(f"Gauss rule m={m}, alpha={alpha}: Newton converged to "
                           "repeated or out-of-range nodes")
    if m % 2:
        x = np.append(x, 0.0)
    mu0 = math.sqrt(math.pi) * math.gamma(a + 1.0) / math.gamma(a + 1.5)
    w = mu0 / _recurrence(x, b[:-1], christoffel=True)
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    return nodes, weights


def _weight_drop(n: int) -> int:
    """The j >= 0 that ``zonal_grid`` takes off the S^n weight (1-x^2)^alpha,
    alpha = (n-2)/2, for a Gauss rule that Newton settles: the least j with
    alpha - j <= 10.5, so j = 0 up to S^23."""
    return max(0, math.ceil((n - 2) / 2.0 - _ALPHA_MAX))


def zonal_grid(n: int, size: int, pole_levels: int = 0) -> QuadratureGrid:
    """Zonal quadrature on S^n: Gauss nodes in cos(phi) with the
    sin^{n-1}(phi) volume element folded into the weights.  From S^24 on it
    is the Gauss rule of (1-x^2)^(alpha-j), j = ``_weight_drop(n)``, with
    its weights times (1-x^2)^j: positive, mirror-symmetric and exact to
    degree 2 size - 1 - 2j, so ``_default_axes`` adds j nodes.

    ``pole_levels > 0`` appends geometrically graded segments near both
    poles via the substitution phi = exp(-s), with s ranging up to
    2**pole_levels; these resolve integrands with pole singularities.
    """
    if pole_levels <= 0:
        j = _weight_drop(n)
        x, w = _gauss_rule(size, (n - 2) / 2.0 - j)
        w = w * ((1.0 - x) * (1.0 + x)) ** j  # w itself, bit for bit, at j = 0
        phi = np.arccos(x)[::-1]
        weights = (w * sphere_volume(n - 1))[::-1].copy()
        return QuadratureGrid(ModelManifold(SPHERE_ZONAL, n), phi, weights)
    return _pole_capped_grid(n, max(8, size // 8), float(2 ** pole_levels), 1)


SINGULAR_POLE_LEVELS = 6  # cap depth of the grid that solves a V with poles

_CAP_CUT = 0.1  # polar angle where the log-graded caps meet the bulk


def _pole_capped_grid(n: int, bulk_panels: int, s_hi: float,
                      cap_panels_per_unit: int) -> QuadratureGrid:
    """Split zonal rule on S^n: ``bulk_panels`` Gauss panels on
    [phi_c, pi - phi_c] with phi_c = 0.1, and two caps phi = exp(-s),
    pi - exp(-s) for s in [-ln(phi_c), s_hi], with ``cap_panels_per_unit``
    panels per unit of s (at least 8)."""
    surf = sphere_volume(n - 1)
    s_lo = -math.log(_CAP_CUT)
    if s_hi <= s_lo:
        raise ResolutionError("pole grading level too small for the cap cut")
    phi_b, w_b = _panel_gauss(_CAP_CUT, math.pi - _CAP_CUT, bulk_panels, 8)
    w_b = w_b * np.sin(phi_b) ** (n - 1) * surf
    sp, swp = _panel_gauss(s_lo, s_hi,
                           max(8, int(math.ceil((s_hi - s_lo) * cap_panels_per_unit))), 8)
    phi_seg = np.exp(-sp)
    # d(phi) = -exp(-s) ds; volume element sin^{n-1}(phi) * vol(S^{n-1})
    w_seg = swp * phi_seg * np.sin(phi_seg) ** (n - 1) * surf
    # the mirrored cap pi - exp(-s) keeps almost no bits of exp(-s) from
    # s ~ 33 on and is not representable beyond s ~ 36; drop the nodes with
    # exp(-s) <= 4e-15 (s >= 33.2).  Their weight is tiny, but at n = 2 the
    # critical w V decays only like 2/s^2, so an even V is assembled on
    # ``hemisphere``, which reads the whole north cap instead
    mirror = phi_seg > 4e-15
    phi = np.concatenate([phi_seg, phi_b, np.pi - phi_seg[mirror]])
    weights = np.concatenate([w_seg, w_b, w_seg[mirror]])
    # from s ~ 256 on (pole level 8, n >= 3), and in the bulk from about
    # S^210 on, a weight underflows to 0; drop those nodes, whose share of
    # the integral is below the underflow threshold
    live = weights > 0.0
    phi, weights = phi[live], weights[live]
    order = np.argsort(phi)
    return QuadratureGrid(ModelManifold(SPHERE_ZONAL, n), phi[order], weights[order])


def hemisphere(grid: QuadratureGrid) -> QuadratureGrid:
    """The zonal rule folded onto the northern hemisphere: the nodes
    phi < pi/2 with weight 2w, plus a node at exactly phi = pi/2 (odd Gauss
    sizes) with its own weight w.  These nodes are a prefix of the ascending
    grid, so a basis on ``grid`` has the rows ``values[:size]`` there.

    For an integrand even about the equator, f(pi - phi) = f(phi), the fold
    reproduces the full rule when the grid is mirror-symmetric.  Every grid
    that ``zonal_grid`` builds is: the Gauss rule is mirrored exactly, and the
    pole caps are mirror images.  The full pole-capped grid drops the south
    cap's nodes beyond s ~ 33.2, where pi - exp(-s) is barely representable;
    the fold uses the whole north cap there, which is what that south cap
    would have held."""
    if grid.manifold.kind != SPHERE_ZONAL:
        raise DomainError("only a zonal grid folds onto a hemisphere")
    h = int(np.searchsorted(grid.nodes, math.pi / 2.0))
    weights = 2.0 * grid.weights[:h]
    if h < grid.size and grid.nodes[h] == math.pi / 2.0:
        weights = np.append(weights, grid.weights[h])
    return replace(grid, nodes=grid.nodes[:weights.size], weights=weights)


@functools.lru_cache(maxsize=None)
def _gauss_rule(m: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``gauss_gegenbauer(m, alpha)``, computed once per (m, alpha): a basis
    grid that is also the rule V is summed on costs one Newton pass.  The
    cached arrays are read-only so no caller can change them."""
    x, w = gauss_gegenbauer(m, alpha)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_gauss(a: float, b: float, panels: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with ``panels`` equal panels on [a, b]."""
    return _gauss_panels(np.linspace(a, b, panels + 1), order)


def _gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on the panels between consecutive ``edges``."""
    x0, w0 = _gauss_rule(order, 0.0)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2.0
    return ((lo + hi) / 2.0 + half * x0).ravel(), (half * w0).ravel()


def full_sphere_grid(size_phi: int, size_theta: int) -> QuadratureGrid:
    """Product quadrature on the full S^2: Gauss in cos(phi), trapezoid in theta."""
    x, w = _gauss_rule(size_phi, 0.0)
    phi = np.arccos(x)[::-1]
    wphi = w[::-1]
    theta = 2.0 * math.pi * np.arange(size_theta) / size_theta
    pp, tt = np.meshgrid(phi, theta, indexing="ij")
    nodes = np.column_stack([pp.ravel(), tt.ravel()])
    weights = np.repeat(wphi, size_theta) * (2.0 * math.pi / size_theta)
    return QuadratureGrid(ModelManifold(SPHERE_FULL_2D, 2), nodes, weights,
                          shape=(size_phi, size_theta))


def torus_grid(n: int, size: int) -> QuadratureGrid:
    """Uniform (spectrally exact) trapezoid grid on [0, 2pi)^n."""
    axis = 2.0 * math.pi * np.arange(size) / size
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    weights = np.full(nodes.shape[0], (2.0 * math.pi / size) ** n)
    return QuadratureGrid(ModelManifold(TORUS, n), nodes, weights)


def _require_zonal(kind: str, what: str) -> None:
    if kind != SPHERE_ZONAL:
        raise DomainError(f"{what} is implemented on the zonal sector")


def _check_exponent(p: float) -> None:
    if p < 1:
        raise DomainError(f"p must be >= 1 or inf, got {p}")


def lp_norm(grid: QuadratureGrid, f: np.ndarray, p: float) -> float:
    """L^p norm of a grid function; p = inf gives the grid sup norm."""
    f = np.asarray(f)
    if f.shape[0] != grid.size:
        raise DomainError("grid function length does not match grid size")
    _check_exponent(p)
    if math.isinf(p):
        return float(np.max(np.abs(f)))
    return float(np.sum(grid.weights * np.abs(f) ** p) ** (1.0 / p))


def _gegenbauer_coefficients(kmax: int, lam: float) -> list:
    """(a_k, b_k), k = 2..kmax, of C_k(x) = a_k x C_{k-1}(x) - b_k C_{k-2}(x)."""
    return [(2.0 * (k + lam - 1.0) / k, (k + 2.0 * lam - 2.0) / k)
            for k in range(2, kmax + 1)]


# up to this many points _gegenbauer_table recurs on Python floats: that
# costs about 0.15 ms + 0.09 ms a point at K = 512, and the array recurrence
# about 2.8 ms for its 4K numpy calls whatever the points, so the two meet
# near 25 points (the same at K = 64)
_SCALAR_POINTS = 16


def _gegenbauer_table(kmax: int, lam: float, x: np.ndarray) -> np.ndarray:
    """Values of C_k^(lam)(x), k = 0..kmax, one row per degree.

    Three-term recurrence; stable for the degrees used here (k <= ~512,
    lam <= 5/2).  Both paths compute (x a_k) c[k-1] - c[k-2] b_k in that
    order, so their values agree bit for bit.
    """
    coef = _gegenbauer_coefficients(kmax, lam)
    c = np.empty((kmax + 1, x.shape[0]))
    if x.shape[0] <= _SCALAR_POINTS:
        for j, xj in enumerate(x.tolist()):
            col = [1.0, 2.0 * lam * xj]
            for a, b in coef:
                col.append(xj * a * col[-1] - col[-2] * b)
            c[:, j] = col[:kmax + 1]
        return c
    c[0] = 1.0
    if kmax >= 1:
        c[1] = 2.0 * lam * x
    tmp = np.empty_like(c[0])
    for k, (a, b) in enumerate(coef, start=2):
        # a * x * c[k-1] - b * c[k-2], the same operations in place
        np.multiply(x, a, out=c[k])
        c[k] *= c[k - 1]
        c[k] -= np.multiply(c[k - 2], b, out=tmp)
    return c


class Basis:
    """Truncated Laplace eigenbasis on a model manifold.

    Attributes
    ----------
    freqs : (J,) frequencies lambda_j = sqrt(eigenvalue), ascending
    values : (N, J) basis values on the grid, orthonormal under the weights
        (a subclass that passes None builds them on their first read)
    """

    def __init__(self, manifold, K, grid, freqs, values=None):
        self.manifold = manifold
        self.K = K
        self.grid = grid
        self.freqs = freqs
        if values is not None:
            self.values = values

    @property
    def size(self) -> int:
        return self.freqs.shape[0]

    @property
    def classes(self) -> np.ndarray:
        """Symmetry class of each mode, one integer each: the blocks that
        ``operator_core.diagonalize`` solves apart where the matrix has
        exact zeros between them.  Here index parity, which on the zonal
        sphere is degree parity (the classes of an even zonal V)."""
        return np.arange(self.size) % 2

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, f: np.ndarray) -> np.ndarray:
        """Coefficients <f, e_j> of a grid function."""
        f = np.asarray(f)
        if f.shape[0] != self.grid.size:
            raise DomainError("grid function length does not match grid size")
        return self.values.T @ (self.grid.weights * f)


# degree rows squared at a time when ZonalSphereBasis sums its norms
_NORM_ROWS = 32


class ZonalSphereBasis(Basis):
    """Zonal (Gegenbauer/Legendre) eigenbasis on S^n, degrees 0..K.  ``values``
    and the norms it is divided by, summed on the grid, are built together
    on the first read of ``values``, ``evaluate`` or ``pole_values``, so a
    solve that reads no node values builds no N x J table.  ``pole_values``
    (rows phi = 0, pi) is computed once, read-only: do not mutate the basis."""

    def __init__(self, n: int, K: int, grid: QuadratureGrid):
        if grid.manifold.kind != SPHERE_ZONAL or grid.manifold.n != n:
            raise DomainError("grid does not match requested zonal sphere")
        self.lam_geg = (n - 1) / 2.0
        degrees = np.arange(K + 1)
        freqs = np.sqrt(degrees * (degrees + n - 1.0))
        super().__init__(grid.manifold, K, grid, freqs)

    @functools.cached_property
    def _normalized(self) -> tuple[np.ndarray, np.ndarray]:
        """The values (N x J) and the quadrature norms of the degrees."""
        K, grid = self.K, self.grid
        table = _gegenbauer_table(K, self.lam_geg, np.cos(grid.nodes))
        norms = np.empty(K + 1)
        for lo in range(0, K + 1, _NORM_ROWS):
            block = np.square(table[lo:lo + _NORM_ROWS])
            block *= grid.weights
            np.sum(block, axis=1, out=norms[lo:lo + _NORM_ROWS])
        np.sqrt(norms, out=norms)
        if np.any(norms <= 0) or not np.all(np.isfinite(norms)):
            raise ResolutionError(f"grid of {grid.size} nodes cannot normalize degree {K}; "
                                  f"need at least {K + 8} Gauss nodes")
        table /= norms[:, None]
        return table.T, norms

    @property
    def values(self) -> np.ndarray:
        return self._normalized[0]

    @property
    def _norms(self) -> np.ndarray:
        return self._normalized[1]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        x = np.cos(np.atleast_1d(np.asarray(points, dtype=float)))
        table = _gegenbauer_table(self.K, self.lam_geg, x)
        table /= self._norms[:, None]
        return table.T

    @functools.cached_property
    def pole_values(self) -> np.ndarray:
        values = self.evaluate(np.array([0.0, math.pi]))
        values.flags.writeable = False
        return values


def _normalized_assoc_legendre(K: int, m: int, phi: np.ndarray) -> np.ndarray:
    """Fully normalized P~_k^m(cos phi), k = m..K, so that the real harmonics
    built from them are orthonormal on S^2."""
    ct, st = np.cos(phi), np.sin(phi)
    pmm = np.full_like(ct, 1.0 / math.sqrt(4.0 * math.pi))
    for mm in range(1, m + 1):
        pmm = st * math.sqrt((2.0 * mm + 1.0) / (2.0 * mm)) * pmm
    rows = [pmm]
    if K > m:
        rows.append(math.sqrt(2.0 * m + 3.0) * ct * pmm)
    for k in range(m + 2, K + 1):
        a = math.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = math.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1.0) ** 2 - 1.0))
        rows.append(a * (ct * rows[-1] - b * rows[-2]))
    return np.array(rows)


class FullSphereBasis(Basis):
    """Real spherical harmonics on S^2, degrees 0..K, all orders, on a
    product grid of ``full_sphere_grid``.  ``values`` (N x J) is built on its
    first read; it and ``pole_values`` (rows at the poles (phi, theta) =
    (0, 0), (pi, 0)) are computed once: do not mutate the basis."""

    def __init__(self, K: int, grid: QuadratureGrid):
        if grid.manifold.kind != SPHERE_FULL_2D:
            raise DomainError("grid does not match the full S^2 manifold")
        if len(grid.shape) != 2:
            raise DomainError("the full S^2 basis needs a product grid with its "
                              "(n_phi, n_theta) shape, as full_sphere_grid builds")
        modes = []
        for k in range(K + 1):
            modes.append((k, 0, "c"))
            for m in range(1, k + 1):
                modes.append((k, m, "c"))
                modes.append((k, m, "s"))
        degrees = np.array([k for k, _, _ in modes])
        freqs = np.sqrt(degrees * (degrees + 1.0))
        order = np.argsort(freqs, kind="stable")
        self.modes = [modes[i] for i in order]
        self._degrees = degrees[order]
        self._orders = np.array([m for _, m, _ in self.modes])
        self._sine = np.array([trig == "s" for _, _, trig in self.modes])
        super().__init__(grid.manifold, K, grid, freqs[order])

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The product of the radial rows on the grid's polar axis and the
        trigonometric rows on its azimuthal axis, phi-major as the nodes."""
        (n_phi, n_theta), nodes = self.grid.shape, self.grid.nodes
        radial, trig = self._tables(nodes[::n_theta, 0], nodes[:n_theta, 1])
        out = np.empty((n_phi, n_theta, self.size))
        np.multiply(radial[:, None, :], trig[None, :, :], out=out)
        return out.reshape(self.grid.size, self.size)

    @property
    def classes(self) -> np.ndarray:
        """(m, cos or sin, parity of k - m) of each mode: a zonal V couples
        only modes of one order and one trigonometric factor, and an even one
        only those whose k - m has the same parity."""
        return 4 * self._orders + 2 * self._sine + (self._degrees - self._orders) % 2

    def _order_columns(self, m: int) -> list[np.ndarray]:
        """The columns of order m, the cos ones and (for m > 0) the sin ones,
        each by ascending degree k = m..K."""
        at = self._orders == m
        return [np.flatnonzero(at & ~self._sine)] + ([np.flatnonzero(at & self._sine)]
                                                     if m else [])

    def _tables(self, phi: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The factors of each mode's value radial(k, m, phi) * trig(m theta),
        one column per mode: the radial rows (sqrt(2) P~_k^m(cos phi), or
        P~_k^0) at ``phi`` and the trigonometric rows (cos or sin of m theta,
        or 1) at ``theta``."""
        radial = np.empty((phi.shape[0], self.size))
        trig = np.empty((theta.shape[0], self.size))
        for m in range(self.K + 1):
            table = _normalized_assoc_legendre(self.K, m, phi)
            if m:
                table *= math.sqrt(2.0)
            for f, cols in zip((np.cos, np.sin), self._order_columns(m)):
                radial[:, cols] = table[self._degrees[cols] - m].T
                trig[:, cols] = f(m * theta)[:, None] if m else 1.0
        return radial, trig

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        radial, trig = self._tables(points[:, 0], points[:, 1])
        return radial * trig

    @functools.cached_property
    def pole_values(self) -> np.ndarray:
        values = self.evaluate(np.array([[0.0, 0.0], [math.pi, 0.0]]))
        values.flags.writeable = False
        return values


class TorusBasis(Basis):
    """Real Fourier basis on [0, 2pi)^n for lattice vectors with |m| <= K.
    ``values`` (N x J) is built on its first read, from ``evaluate``."""

    def __init__(self, n: int, K: int, grid: QuadratureGrid):
        if grid.manifold.kind != TORUS or grid.manifold.n != n:
            raise DomainError("grid does not match requested torus")
        vecs = self._half_lattice(n, K)
        modes = [((0,) * n, "c")]
        for m in vecs:
            modes.append((m, "c"))
            modes.append((m, "s"))
        freqs = np.array([math.sqrt(sum(c * c for c in m)) for m, _ in modes])
        order = np.argsort(freqs, kind="stable")
        self.modes = [modes[i] for i in order]
        freqs = freqs[order]
        self._vol = grid.manifold.volume
        super().__init__(grid.manifold, K, grid, freqs)

    @functools.cached_property
    def values(self) -> np.ndarray:
        return self.evaluate(self.grid.nodes)

    @staticmethod
    def _half_lattice(n: int, K: int) -> list[tuple[int, ...]]:
        rng = range(-K, K + 1)
        out = []
        grids = np.meshgrid(*([list(rng)] * n), indexing="ij")
        lattice = np.column_stack([g.ravel() for g in grids])
        norms2 = np.sum(lattice ** 2, axis=1)
        for vec, n2 in zip(lattice, norms2):
            if n2 == 0 or n2 > K * K:
                continue
            tup = tuple(int(c) for c in vec)
            # one representative per {m, -m} pair: first nonzero entry positive
            lead = next(c for c in tup if c != 0)
            if lead > 0:
                out.append(tup)
        out.sort()
        return out

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vol = self._vol
        cols = []
        for m, parity in self.modes:
            phase = points @ np.asarray(m, dtype=float)
            if all(c == 0 for c in m):
                cols.append(np.full(points.shape[0], 1.0 / math.sqrt(vol)))
            elif parity == "c":
                cols.append(np.cos(phase) * math.sqrt(2.0 / vol))
            else:
                cols.append(np.sin(phase) * math.sqrt(2.0 / vol))
        return np.column_stack(cols)


def _default_axes(manifold: ModelManifold, K: int) -> tuple[int, ...]:
    """Axis sizes of ``default_grid`` without pole caps, whose node count is
    their product: the Gauss nodes on the zonal sphere (``_weight_drop`` more
    from S^24 on), (n_phi, n_theta) on the full S^2, and the points of each
    of the n axes of a torus."""
    if manifold.kind == SPHERE_ZONAL:
        return (2 * K + 16 + _weight_drop(manifold.n),)
    if manifold.kind == SPHERE_FULL_2D:
        return (K + 9, 2 * K + 4)
    return (2 * K + 2,) * manifold.n


def default_grid(manifold: ModelManifold, K: int, pole_levels: int = 0) -> QuadratureGrid:
    """Grid sized for degree-2K Gauss exactness on the given manifold."""
    axes = _default_axes(manifold, K)
    if manifold.kind == SPHERE_ZONAL:
        return zonal_grid(manifold.n, axes[0], pole_levels=pole_levels)
    if manifold.kind == SPHERE_FULL_2D:
        return full_sphere_grid(*axes)
    return torus_grid(manifold.n, axes[0])


def build_basis(manifold: ModelManifold, K: int, grid: QuadratureGrid | None = None) -> Basis:
    """Build the truncated eigenbasis of -Delta_g on the manifold."""
    if K < 0:
        raise DomainError("truncation K must be >= 0")
    if grid is None:
        grid = default_grid(manifold, K)
    if manifold.kind == SPHERE_ZONAL:
        if grid.size < 2 * K + 1:
            raise ResolutionError(f"grid of {grid.size} nodes cannot resolve degree {K}; "
                                  f"need at least {2 * K + 1} nodes")
        return ZonalSphereBasis(manifold.n, K, grid)
    if manifold.kind == SPHERE_FULL_2D:
        return FullSphereBasis(K, grid)
    return TorusBasis(manifold.n, K, grid)

