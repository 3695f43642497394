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
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry
from .errors import DomainError, NumericError

INJECTIVITY_SCALE = math.pi / 2.0


@dataclass(frozen=True)
class Potential:
    """A real zonal potential V(phi) with singularity annotations."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    singularities: tuple[float, ...] = ()
    smooth_bound: float | None = None
    real: bool = True

    def __call__(self, phi):
        return self.fn(np.asarray(phi, dtype=float))

    @property
    def singular(self) -> bool:
        return len(self.singularities) > 0

    def to_dict(self) -> dict:
        return {"name": self.name, "singularities": list(self.singularities),
                "smooth_bound": self.smooth_bound}


def constant(c: float) -> Potential:
    return Potential(name=f"constant({c})", fn=lambda phi: np.full_like(phi, float(c)),
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
    return Potential(name=f"counterexample(n={n})",
                     fn=lambda phi: counterexample_potential(n, np.asarray(phi)),
                     singularities=(0.0, math.pi))


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
    return Potential(name=f"truncated-counterexample(n={n},phi0={phi0})", fn=fn,
                     smooth_bound=bound * 1.01)


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


def from_expression(text: str, singularities: tuple[float, ...] = ()) -> Potential:
    return Potential(name=f"expr({text})", fn=parse_zonal_expression(text),
                     singularities=singularities)


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


def _ball_integral(V: Potential, n: int, center: float, r: float,
                   depth: float = 30.0, per_unit: float = 0.5,
                   tau_per_unit: float = 0.5) -> float:
    """Integral of h_n(d(x,y)) |V(y)| over the geodesic ball B_r(x) on S^n.

    Sliced along the polar angle phi (V is zonal): the outer phi grid is
    graded toward the sphere poles (poles of V) and toward the ball center
    (peak of h); the inner bearing integral uses the haversine form of the
    geodesic distance, which stays accurate when y is close to x.
    """
    lo, hi = max(0.0, center - r), min(math.pi, center + r)
    pts = sorted({lo, center, hi})
    phis, wphis = [], []
    for p, q in zip(pts, pts[1:]):
        mid = 0.5 * (p + q)
        for a, b, toward_a in ((p, mid, True), (mid, q, False)):
            x, w = _graded_half(a, b, toward_a, depth, per_unit)
            phis.append(x)
            wphis.append(w)
    phi = np.concatenate(phis)
    w_phi = np.concatenate(wphis)
    # deepest graded nodes at the pi pole can round onto the pole itself
    keep = (phi > 0.0) & (phi < math.pi)
    phi, w_phi = phi[keep], w_phi[keep]
    if phi.size == 0:
        return 0.0
    tau, w_tau = _graded_half(0.0, 1.0, True, 25.0, tau_per_unit)
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
    inner = (kato_weight(n, dist) * np.sin(psi) ** (n - 2)) @ w_tau * psi_max
    surf = geometry.sphere_volume(max(n - 2, 0))
    vabs = np.abs(V(phi))
    return float(np.sum(w_phi * vabs * np.sin(phi) ** (n - 1) * surf * inner))


def kato_modulus(V: Potential, r: float, n: int, centers: np.ndarray | None = None,
                 depth: float = 30.0, per_unit: float = 0.5,
                 return_status: bool = False):
    """sup_x of the h_n-weighted integral of |V| over geodesic r-balls.

    The sup runs over the annotated singular points plus a coarse grid of
    candidate centers.  Raises on r outside (0, pi/2); reports a
    non-convergence flag (via ``return_status``) when one refinement of the
    ball quadrature moves the value by more than 5%.
    """
    if not 0.0 < r < INJECTIVITY_SCALE:
        raise DomainError(f"radius must lie in (0, {INJECTIVITY_SCALE:.4f}), got {r}")
    if centers is None:
        coarse = np.linspace(0.02, math.pi - 0.02, 64)
        sing = list(V.singularities)
        centers = np.concatenate([np.asarray(sing, dtype=float), coarse]) if sing else coarse
    vals = np.array([_ball_integral(V, n, a, r, depth, per_unit, per_unit)
                     for a in centers])
    best = float(np.max(vals))
    a_best = float(centers[int(np.argmax(vals))])
    refined = _ball_integral(V, n, a_best, r, depth, 2 * per_unit, 2 * per_unit)
    converged = abs(refined - best) <= 0.05 * max(abs(refined), 1e-300)
    value = max(best, refined)
    if return_status:
        return value, converged
    return value


@dataclass
class LpNormResult:
    value: float
    divergent: bool
    history: tuple[float, ...]


def potential_lq_norm(V: Potential, n: int, q: float, base_depth: float = 40.0,
                      base_panels: int = 2) -> LpNormResult:
    """(integral of |V|^q over S^n)^(1/q) with singularity-graded quadrature.

    Divergence detection: two successive refinements (4x the panel count,
    depth extended by 8) growing by more than 10% flag the integral as
    divergent and return an infinite sentinel.
    """
    if q <= 0:
        raise DomainError("exponent must be positive")
    history = []
    for step in range(3):
        depth = base_depth + 8.0 * step
        per_unit = base_panels * 4 ** step
        grid = _graded_sphere_grid(n, depth, per_unit)
        vals = np.abs(V(grid.nodes)) ** q
        history.append(float(np.sum(grid.weights * vals)))
    growth1 = history[1] / history[0] if history[0] > 0 else 1.0
    growth2 = history[2] / history[1] if history[1] > 0 else 1.0
    divergent = growth1 > 1.10 or growth2 > 1.10
    value = math.inf if divergent else history[-1] ** (1.0 / q)
    return LpNormResult(value=value, divergent=divergent, history=tuple(history))


def _graded_sphere_grid(n: int, depth: float, panels_per_unit: int) -> geometry.QuadratureGrid:
    surf = geometry.sphere_volume(n - 1)
    phi_c = 0.1
    s_lo = -math.log(phi_c)
    phi_b, w_b = geometry._panel_gauss(phi_c, math.pi - phi_c, 8 * panels_per_unit, 8)
    w_b = w_b * np.sin(phi_b) ** (n - 1) * surf
    sp, swp = geometry._panel_gauss(s_lo, depth,
                                    max(8, int(math.ceil((depth - s_lo) * panels_per_unit))), 8)
    phi_seg = np.exp(-sp)
    w_seg = swp * phi_seg * np.sin(phi_seg) ** (n - 1) * surf
    # the mirrored cap pi - exp(-s) stops being representable in double
    # precision around s = 35, so it is truncated there
    mirror = phi_seg > 4e-15
    phi = np.concatenate([phi_seg, phi_b, np.pi - phi_seg[mirror]])
    weights = np.concatenate([w_seg, w_b, w_seg[mirror]])
    order = np.argsort(phi)
    return geometry.QuadratureGrid(geometry.ModelManifold(geometry.SPHERE_ZONAL, n),
                                   phi[order], weights[order], pole_refined=True)


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

    n: int
    potential: str
    radii: tuple[float, ...]
    moduli: tuple[float, ...]
    converged: tuple[bool, ...]
    verdict: str
    stagnation_ratio: float
    in_kato_ratio_threshold: float
    not_in_kato_ratio_threshold: float
    lnhalf_norm: float
    lnhalf_divergent: bool
    shift: int | None = None

    def to_dict(self) -> dict:
        return {
            "n": self.n, "potential": self.potential,
            "radii": list(self.radii), "moduli": list(self.moduli),
            "converged": list(self.converged), "verdict": self.verdict,
            "stagnation_ratio": self.stagnation_ratio,
            "in_kato_ratio_threshold": self.in_kato_ratio_threshold,
            "not_in_kato_ratio_threshold": self.not_in_kato_ratio_threshold,
            "lnhalf_norm": self.lnhalf_norm, "lnhalf_divergent": self.lnhalf_divergent,
            "shift": self.shift,
        }


def kato_report(V: Potential, n: int, radii: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
                in_kato_threshold: float = 0.1, not_in_kato_threshold: float = 0.3,
                shift: int | None = None, **kwargs) -> KatoReport:
    """Evaluate the Kato modulus on a decreasing radius grid and classify.

    The verdict thresholds are engineering choices at finite resolution and
    are echoed in the report: ``in-Kato`` when the modulus at the smallest
    radius has dropped below ``in_kato_threshold`` times the largest-radius
    value; ``not-in-Kato`` when it stagnates above ``not_in_kato_threshold``
    of it across at least three radii.
    """
    radii = tuple(sorted(radii, reverse=True))
    vals, flags = [], []
    for r in radii:
        v, ok = kato_modulus(V, r, n, return_status=True, **kwargs)
        vals.append(v)
        flags.append(ok)
    ratio = vals[-1] / vals[0] if vals[0] > 0 else 0.0
    if vals[0] == 0.0:
        verdict = IN_KATO
    elif len(radii) >= 3 and ratio > not_in_kato_threshold:
        verdict = NOT_IN_KATO
    elif ratio < in_kato_threshold:
        verdict = IN_KATO
    else:
        verdict = INCONCLUSIVE
    if not all(flags):
        verdict = INCONCLUSIVE
    norm = ln_half_norm(V, n)
    return KatoReport(n=n, potential=V.name, radii=radii, moduli=tuple(vals),
                      converged=tuple(flags), verdict=verdict, stagnation_ratio=ratio,
                      in_kato_ratio_threshold=in_kato_threshold,
                      not_in_kato_ratio_threshold=not_in_kato_threshold,
                      lnhalf_norm=norm.value, lnhalf_divergent=norm.divergent,
                      shift=shift)


def flat_ball_kato_oracle(n: int, r: float, vconst: float = 1.0) -> float:
    """Closed-form flat-space value of the Kato ball integral for a constant
    potential; small-radius oracle for the sphere computation."""
    if n == 2:
        return vconst * 2.0 * math.pi * (-(r ** 2 / 2.0) * math.log(r) + r ** 2 / 4.0)
    surf = geometry.sphere_volume(n - 1)
    return vconst * surf * r ** 2 / 2.0


def positivity_shift(V: Potential, basis) -> int:
    """Smallest integer N >= 0 with the lowest Galerkin eigenvalue of
    H_{V+N} at the working truncation at least 1, up to round-off."""
    from . import operator_core
    return operator_core.solve(V, basis, shift="auto").shift
