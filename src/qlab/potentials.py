"""Potentials, the Kato-class diagnostic, singular norms and the explicit
zero-eigenvalue counterexamples on S^n.

The counterexample pair (V, f) satisfies (-Delta_g + V) f = 0 with f
unbounded at the poles:

* n >= 3:  f = -ln(sin(phi)/2),
           V = ((n-2)cos^2(phi) - sin^2(phi)) / (sin^2(phi) ln(sin(phi)/2))
* n = 2:   f = ln(sin(phi)/2)^2,
           V = 2 (cos^2(phi) - sin^2(phi) ln(sin(phi)/2))
               / (sin^2(phi) ln(sin(phi)/2)^2)

V lies in L^{n/2}(S^n) but in no L^{n/2+delta}, and its Kato modulus does
not vanish as the ball radius shrinks.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry
from .errors import DomainError

INJECTIVITY_SCALE = math.pi / 2.0


@dataclass(frozen=True)
class Potential:
    """A real zonal potential V(phi) with annotations of facts about V.

    ``singularities`` lists the polar angles where V blows up (these select
    the pole-capped rule V is summed on), ``smooth_bound`` bounds |V| when V
    is bounded, and ``even`` states the equatorial symmetry V(pi - phi) =
    V(phi).  An even V couples only zonal modes of equal degree parity, so
    ``operator_core`` assembles it on the folded hemisphere rule, as two
    parity blocks.  Only the two counterexample potentials set it; an
    expression, and a constant, leave it False.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    singularities: tuple[float, ...] = ()
    smooth_bound: float | None = None
    even: bool = False

    def __call__(self, phi):
        return self.fn(np.asarray(phi, dtype=float))

    @property
    def singular(self) -> bool:
        return len(self.singularities) > 0


def constant(c: float) -> Potential:
    return Potential(fn=lambda phi: np.full_like(phi, float(c)),
                     smooth_bound=abs(float(c)) + 1e-12)


def zero() -> Potential:
    return constant(0.0)


def counterexample_potential(n: int, phi):
    """The singular potential with a zero-eigenvalue unbounded eigenfunction."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr <= 0.0) or np.any(phi_arr >= math.pi):
        raise DomainError("potential is singular at phi in {0, pi}")
    s, c = np.sin(phi_arr), np.cos(phi_arr)
    log_half_sin = np.log(0.5 * s)
    if n >= 3:
        val = ((n - 2) * c ** 2 - s ** 2) / (s ** 2 * log_half_sin)
    else:
        val = 2.0 * (c ** 2 - s ** 2 * log_half_sin) / (s ** 2 * log_half_sin ** 2)
    return val if isinstance(phi, np.ndarray) else float(val)


def counterexample_eigenfunction(n: int, phi):
    """The unbounded zero mode paired with counterexample_potential."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    phi_arr = np.asarray(phi, dtype=float)
    if np.any(phi_arr <= 0.0) or np.any(phi_arr >= math.pi):
        raise DomainError("eigenfunction is singular at phi in {0, pi}")
    log_half_sin = np.log(0.5 * np.sin(phi_arr))
    val = log_half_sin ** 2 if n == 2 else -log_half_sin
    return val if isinstance(phi, np.ndarray) else float(val)


def counterexample_eigenfunction_laplacian(n: int, phi):
    """Delta_g f by the zonal chain rule f'' + (n-1) cot(phi) f'.

    Independent floating-point route from V*f, so the residual
    (-Delta_g + V) f is a genuine numerical check rather than an identity.
    """
    phi_arr = np.asarray(phi, dtype=float)
    s, c = np.sin(phi_arr), np.cos(phi_arr)
    cot = c / s
    if n >= 3:
        fp = -cot
        fpp = 1.0 / s ** 2
    else:
        log_half_sin = np.log(0.5 * s)
        fp = 2.0 * log_half_sin * cot
        fpp = 2.0 * cot ** 2 - 2.0 * log_half_sin / s ** 2
    val = fpp + (n - 1) * cot * fp
    return val if isinstance(phi, np.ndarray) else float(val)


def counterexample(n: int) -> Potential:
    return Potential(fn=lambda phi: counterexample_potential(n, np.asarray(phi)),
                     singularities=(0.0, math.pi), even=True)


def _smoothstep(t):
    """C-infinity transition: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        h0 = np.where(t > 0.0, np.exp(-1.0 / np.where(t > 0.0, t, 1.0)), 0.0)
        h1 = np.where(t < 1.0, np.exp(-1.0 / np.where(t < 1.0, 1.0 - t, 1.0)), 0.0)
    return h0 / (h0 + h1)


def truncated_counterexample(n: int, phi0: float = 0.3) -> Potential:
    """Counterexample potential smoothly tapered to zero in both pole caps;
    bounded, hence a Kato-class perturbation.  The taper ramps over
    [phi0, 2 phi0] (mirrored at the far pole)."""
    def fn(phi):
        phi = np.asarray(phi, dtype=float)
        out = np.zeros_like(phi)
        mask = (phi > phi0) & (phi < math.pi - phi0)
        if np.any(mask):
            pm = phi[mask]
            taper = _smoothstep((pm - phi0) / phi0) \
                * _smoothstep((math.pi - phi0 - pm) / phi0)
            out[mask] = counterexample_potential(n, pm) * taper
        return out
    bound = float(np.max(np.abs(counterexample_potential(
        n, np.linspace(phi0, math.pi - phi0, 4001)))))
    return Potential(fn=fn, smooth_bound=bound * 1.01, even=True)


_ALLOWED_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "ln": np.log, "log": np.log,
    "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs, "pow": np.power,
}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}


def parse_zonal_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a small arithmetic expression in phi (sin/cos/ln/pow etc.)."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"invalid expression {text!r}: {exc}") from exc

    def check(node):
        if isinstance(node, ast.Expression):
            return check(node.body)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult,
                                                                ast.Div, ast.Pow)):
            check(node.left)
            check(node.right)
            return
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            check(node.operand)
            return
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _ALLOWED_FUNCS and not node.keywords:
            for arg in node.args:
                check(arg)
            return
        if isinstance(node, ast.Name) and (node.id == "phi" or node.id in _ALLOWED_NAMES):
            return
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return
        raise DomainError(f"disallowed construct in expression: {ast.dump(node)}")

    check(tree)
    code = compile(tree, "<potential>", "eval")

    def fn(phi):
        env = {"phi": np.asarray(phi, dtype=float), **_ALLOWED_FUNCS, **_ALLOWED_NAMES}
        out = eval(code, {"__builtins__": {}}, env)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(phi)).copy()

    return fn


def from_expression(text: str) -> Potential:
    return Potential(fn=parse_zonal_expression(text))


def from_reference(text: str, n: int) -> Potential | None:
    """The potential a config names: '0' (None, the free operator),
    'counterexample', 'truncated-counterexample[:phi0]', 'constant:<c>', or a
    zonal expression in phi."""
    text = text.strip()

    def number(arg: str) -> float:
        try:
            return float(arg)
        except ValueError:
            raise DomainError(f"{arg!r} in {text!r} is not a number") from None

    if text in ("0", "", "none", "zero"):
        return None
    if text == "counterexample":
        return counterexample(n)
    if text.startswith("truncated-counterexample"):
        _, _, arg = text.partition(":")
        return truncated_counterexample(n, number(arg) if arg else 0.3)
    if text.startswith("constant:"):
        return constant(number(text.partition(":")[2]))
    return from_expression(text)


def kato_weight(n: int, r):
    """h_n(r): |log r| for n = 2, r^(2-n) for n >= 3."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        return np.abs(np.log(r))
    return r ** (2.0 - n)


def _graded_half(a: float, b: float, toward_a: bool, depth: float,
                 per_unit: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on (a, b) log-graded toward one endpoint.

    Substituting the distance-to-endpoint u = exp(-s) turns an endpoint
    singularity into a slowly varying integrand in s; the rule covers the
    whole interval, with nodes accumulating at the graded end down to
    (b - a) exp(-depth)."""
    length = b - a
    if length <= 1e-300:
        return np.empty(0), np.empty(0)
    s_lo = -math.log(length)
    panels = max(4, int(math.ceil(depth * per_unit)))
    s, w = geometry._panel_gauss(s_lo, s_lo + depth, panels, 8)
    u = np.exp(-s)
    x = a + u if toward_a else b - u
    return x, w * u


_KATO_DEPTH = 30.0  # grading depth of the outer polar-angle rule
_KATO_PER_UNIT = 0.5  # panels per unit of grading depth, doubled for the refinement


@functools.lru_cache(maxsize=128)
def _polar_rule(center: float, r: float, per_unit: float) -> tuple[np.ndarray, np.ndarray]:
    """Outer polar-angle rule of the ball B_r(center): the phi range of the
    ball, split at the center and at each half's midpoint, each piece
    log-graded toward the sphere poles (poles of V) and toward the ball
    center (peak of h).  Nodes that round onto a pole are dropped.  Cached,
    with read-only arrays, so a center's bound and its integral share one
    rule."""
    lo, hi = max(0.0, center - r), min(math.pi, center + r)
    pts = sorted({lo, center, hi})
    phis, wphis = [np.empty(0)], [np.empty(0)]  # no piece if r is below the float spacing
    for p, q in zip(pts, pts[1:]):
        mid = 0.5 * (p + q)
        for a, b, toward_a in ((p, mid, True), (mid, q, False)):
            x, w = _graded_half(a, b, toward_a, _KATO_DEPTH, per_unit)
            phis.append(x)
            wphis.append(w)
    phi = np.concatenate(phis)
    w_phi = np.concatenate(wphis)
    # deepest graded nodes at the pi pole can round onto the pole itself
    keep = (phi > 0.0) & (phi < math.pi)
    phi, w_phi = phi[keep], w_phi[keep]
    phi.flags.writeable = False
    w_phi.flags.writeable = False
    return phi, w_phi


def _ball_integral(V: Potential, n: int, center: float, r: float,
                   per_unit: float) -> float:
    """Integral of h_n(d(x,y)) |V(y)| over the geodesic ball B_r(x) on S^n.

    Sliced along the polar angle phi (V is zonal) on ``_polar_rule``; the
    inner bearing integral uses the haversine form of the geodesic
    distance, which stays accurate when y is close to x.  Both rules use
    ``per_unit`` panels per unit of grading depth.  Every coefficient of
    the rule is >= 0, so the value is at most max |V| over the polar nodes
    times the same rule applied to V = 1.
    """
    phi, w_phi = _polar_rule(center, r, per_unit)
    if phi.size == 0:
        return 0.0
    tau, w_tau = _graded_half(0.0, 1.0, True, 25.0, per_unit)
    sa, ca = math.sin(center), math.cos(center)
    b_fac = sa * np.sin(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_psi_max = (math.cos(r) - ca * np.cos(phi)) / np.where(b_fac > 0, b_fac, 1.0)
    # degenerate slices (center or node at a pole): the whole circle is
    # inside the ball whenever |phi - center| <= r, which holds on this grid
    psi_max = np.where(b_fac > 1e-300,
                       np.arccos(np.clip(cos_psi_max, -1.0, 1.0)), math.pi)
    psi = psi_max[:, None] * tau[None, :]
    hav = np.sin(0.5 * (phi - center))[:, None] ** 2 \
        + b_fac[:, None] * np.sin(0.5 * psi) ** 2
    dist = 2.0 * np.arcsin(np.sqrt(np.clip(hav, 0.0, 1.0)))
    dist = np.maximum(dist, 1e-300)
    surf = geometry.sphere_volume(max(n - 2, 0))
    vabs = np.abs(V(phi))
    with np.errstate(over="ignore", invalid="ignore"):
        inner = (kato_weight(n, dist) * np.sin(psi) ** (n - 2)) @ w_tau * psi_max
        terms = w_phi * vabs * np.sin(phi) ** (n - 1) * surf * inner
    # far up in n, dist^(2-n) overflows near the ball centre and
    # sin(phi)^(n-1) underflows: only such a slice is summed in logarithms
    redo = ~np.isfinite(terms) | ((vabs > 0.0) & (terms < np.finfo(float).tiny))
    if np.any(redo):
        with np.errstate(divide="ignore"):
            log_kernel = ((n - 2) * (np.log(np.sin(psi[redo])) - np.log(dist[redo]))
                          if n > 2 else np.log(kato_weight(n, dist[redo])))
            log_inner = np.logaddexp.reduce(log_kernel + np.log(w_tau), axis=1)
            terms[redo] = np.exp(np.log(w_phi[redo]) + np.log(vabs[redo])
                                 + (n - 1) * np.log(np.sin(phi[redo])) + np.log(surf)
                                 + log_inner + np.log(psi_max[redo]))
    return float(np.sum(terms))


_KATO_BOUND_MARGIN = 1.5  # safety factor on the per-center bound (its spread is 0.63%)
_UNIT = constant(1.0)


def _check_radii(radii) -> None:
    if len(radii) == 0:
        raise DomainError("need at least one ball radius")
    for r in radii:
        if not 0.0 < r < INJECTIVITY_SCALE:
            raise DomainError(f"radius must lie in (0, {INJECTIVITY_SCALE:.4f}), got {r}")
    if len(set(radii)) < len(radii):
        raise DomainError(f"ball radii must be distinct, got {list(radii)}")


def kato_modulus(V: Potential, r: float, n: int) -> tuple[float, bool]:
    """(sup_x of the h_n-weighted integral of |V| over geodesic r-balls,
    converged flag).

    The sup runs over the annotated singular points plus 64 evenly spaced
    candidate centers in [0.02, pi - 0.02].  Only centers that can still
    win are integrated: a center's value is at most its bound, max |V| over
    its polar nodes times the ball integral of V = 1 (one reference call at
    phi = pi/2, since that integral depends on r alone up to quadrature
    error).  Centers are visited in descending order of bound, and the
    sweep stops once ``_KATO_BOUND_MARGIN`` times the bound falls below the
    best value so far; a non-finite bound is always integrated.  Whenever
    the bound holds, value, argmax and flag equal the exhaustive sweep's
    bit for bit.  Raises on r outside (0, pi/2); the flag is false when one
    refinement of the ball quadrature at the argmax moves the value by more
    than 5%.
    """
    _check_radii((r,))
    coarse = np.linspace(0.02, math.pi - 0.02, 64)
    sing = list(V.singularities)
    centers = np.concatenate([np.asarray(sing, dtype=float), coarse]) if sing else coarse
    reference = _ball_integral(_UNIT, n, 0.5 * math.pi, r, _KATO_PER_UNIT)
    vmax = [float(np.max(np.abs(V(_polar_rule(a, r, _KATO_PER_UNIT)[0])), initial=0.0))
            for a in centers]
    bounds = np.array([reference * v for v in vmax])  # python floats: no overflow warning
    bounds[~np.isfinite(bounds)] = np.inf
    vals = np.full(centers.size, -np.inf)  # skipped centers cannot win
    for i in np.argsort(-bounds, kind="stable"):
        if _KATO_BOUND_MARGIN * bounds[i] < np.max(vals):
            break
        vals[i] = _ball_integral(V, n, centers[i], r, _KATO_PER_UNIT)
    best = float(np.max(vals))
    a_best = float(centers[int(np.argmax(vals))])
    refined = _ball_integral(V, n, a_best, r, 2 * _KATO_PER_UNIT)
    converged = abs(refined - best) <= 0.05 * max(abs(refined), 1e-300)
    return max(best, refined), converged


@dataclass
class LpNormResult:
    value: float
    divergent: bool


def potential_lq_norm(V: Potential, n: int, q: float) -> LpNormResult:
    """(integral of |V|^q over S^n)^(1/q) with singularity-graded quadrature.

    Three pole-capped rules: cap depth 40, 48, 56 in s = -ln(phi), with 2, 8,
    32 panels per unit of s and 8 times that many bulk panels.  An even V is
    summed on the ``geometry.hemisphere`` fold of each rule, as the assembly
    sums it, so the south cap, cut from s ~ 33.2 on, does not bias the sum
    low.  Divergence detection: either refinement growing the integral by
    more than 10% flags it as divergent and returns an infinite sentinel.
    """
    if q <= 0:
        raise DomainError("exponent must be positive")
    sums = []
    for step in range(3):
        per_unit = 2 * 4 ** step
        grid = geometry._pole_capped_grid(n, 8 * per_unit, 40.0 + 8.0 * step, per_unit)
        if V.even:
            grid = geometry.hemisphere(grid)
        vabs = np.abs(V(grid.nodes))
        with np.errstate(over="ignore"):  # far up in q, on the deepest cap nodes
            terms = grid.weights * vabs ** q
        bad = ~np.isfinite(terms)  # only those terms are summed in logarithms
        terms[bad] = np.exp(np.log(grid.weights[bad]) + q * np.log(vabs[bad]))
        sums.append(float(np.sum(terms)))
    growth1 = sums[1] / sums[0] if sums[0] > 0 else 1.0
    growth2 = sums[2] / sums[1] if sums[1] > 0 else 1.0
    divergent = growth1 > 1.10 or growth2 > 1.10
    value = math.inf if divergent else sums[-1] ** (1.0 / q)
    return LpNormResult(value=value, divergent=divergent)


def ln_half_norm(V: Potential, n: int) -> LpNormResult:
    """The L^{n/2}(S^n) norm of V (L^1 for n = 2), with divergence flag."""
    if n < 2:
        raise DomainError("dimension must be >= 2")
    return potential_lq_norm(V, n, n / 2.0)


IN_KATO = "in-Kato"
NOT_IN_KATO = "not-in-Kato"
INCONCLUSIVE = "inconclusive"


@dataclass
class KatoReport:
    """Kato modulus across shrinking radii plus the verdict bookkeeping."""

    radii: tuple[float, ...]
    moduli: tuple[float, ...]
    converged: tuple[bool, ...]
    verdict: str
    stagnation_ratio: float
    lnhalf_norm: float
    lnhalf_divergent: bool


# verdict thresholds on the ratio of the modulus at the smallest radius to
# the modulus at the largest: engineering choices at finite resolution
_IN_KATO_RATIO = 0.1
_NOT_IN_KATO_RATIO = 0.3
# least largest/smallest radius of a not-in-Kato verdict: a bounded V's
# modulus falls like r^2 (r^2 |log r| at n = 2), so across a narrow span it
# stays above _NOT_IN_KATO_RATIO (0.64 to 0.70 on radii 0.1 to 0.08)
_NOT_IN_KATO_SPAN = 10.0


def kato_report(V: Potential, n: int,
                radii: tuple[float, ...] = (1e-1, 1e-2, 1e-3)) -> KatoReport:
    """Evaluate the Kato modulus on a decreasing radius grid and classify.

    ``in-Kato`` when the modulus at the smallest radius has dropped below
    ``_IN_KATO_RATIO`` times the largest-radius value; ``not-in-Kato`` when it
    stagnates above ``_NOT_IN_KATO_RATIO`` of it across at least three radii
    whose largest is at least ``_NOT_IN_KATO_SPAN`` times the smallest.
    """
    _check_radii(radii)
    radii = tuple(sorted(radii, reverse=True))
    vals, flags = [], []
    for r in radii:
        v, ok = kato_modulus(V, r, n)
        vals.append(v)
        flags.append(ok)
    ratio = vals[-1] / vals[0] if vals[0] > 0 else 0.0
    if vals[0] == 0.0:
        verdict = IN_KATO
    elif (len(radii) >= 3 and radii[0] >= _NOT_IN_KATO_SPAN * radii[-1]
          and ratio > _NOT_IN_KATO_RATIO):
        verdict = NOT_IN_KATO
    elif ratio < _IN_KATO_RATIO:
        verdict = IN_KATO
    else:
        verdict = INCONCLUSIVE
    if not all(flags):
        verdict = INCONCLUSIVE
    norm = ln_half_norm(V, n)
    return KatoReport(radii=radii, moduli=tuple(vals),
                      converged=tuple(flags), verdict=verdict, stagnation_ratio=ratio,
                      lnhalf_norm=norm.value, lnhalf_divergent=norm.divergent)


def flat_ball_kato_oracle(n: int, r: float) -> float:
    """Closed-form flat-space value of the Kato ball integral for V = 1;
    small-radius oracle for the sphere computation."""
    if n == 2:
        return 2.0 * math.pi * (-(r ** 2 / 2.0) * math.log(r) + r ** 2 / 4.0)
    surf = geometry.sphere_volume(n - 1)
    return surf * r ** 2 / 2.0
