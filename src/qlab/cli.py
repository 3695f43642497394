"""Experiment runner: `qlab <experiment> [--config FILE] [--key value ...]
[--jobs N] [--out DIR]`.

Configs are flat key/value INI files with sections (sections are purely
organizational; all keys live in one namespace and unknown keys are
rejected).  Each run writes `<experiment>.csv` and `<experiment>.json`
atomically into the output directory (--out, else the QLAB_OUT environment
variable, else the current directory).  Exit codes: 0 completed, 2 a
verdict in the report is "fail", 1 configuration or numeric error.

Heavy numerical imports happen after argument parsing so that --jobs can
cap the worker-thread pools of the numerical backend for the whole run.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import subprocess
import sys
import time

from . import __version__
from .errors import ConfigError, DomainError, QlabError, ResolutionError


class CliError(Exception):
    """Configuration problem with user-facing diagnostics."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# ---------------------------------------------------------------------------
# typed config values


_to_int = int
_to_str = str.strip


def _to_float(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _to_floats(text: str):
    return tuple(_to_float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _to_ints(text: str):
    return tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _to_shift(text: str):
    text = text.strip()
    return text if text == "auto" else int(text)


def _choice(*names):
    """Parser for a key whose value must be one of ``names``."""
    def parse(text: str) -> str:
        text = text.strip()
        if text not in names:
            raise ValueError(text)
        return text
    parse.choices = names
    return parse


_COMMON = {
    "manifold": (_to_str, "sphere-zonal"),
    "n": (_to_int, 2),
    "K": (_to_int, 48),
    "potential": (_to_str, "0"),
    "shift": (_to_shift, 0),
    "seed": (_to_int, 20240801),
}

# experiment name -> schema of {key: (parser, default)}
SCHEMAS = {
    "spectrum": dict(_COMMON),
    "kato": {"n": (_to_int, 3), "potential": (_to_str, "counterexample"),
             "radii": (_to_floats, (1e-1, 1e-2, 1e-3)), "seed": (_to_int, 20240801)},
    "counterexample": {"n": (_to_int, 3), "K": (_to_int, 128),
                       "seed": (_to_int, 20240801)},
    "projector-norms": {**_COMMON, "K": (_to_int, 72),
                        "p": (_to_float, math.inf),
                        "lams": (_to_floats, (10.0, 14.0, 20.0, 28.0, 40.0, 56.0)),
                        "width": (_to_float, 1.0)},
    "quasimode": {**_COMMON, "p": (_to_float, 6.0),
                  "lams": (_to_floats, (8.0, 12.0, 16.0, 24.0, 32.0, 40.0))},
    "bochner-riesz": {**_COMMON, "K": (_to_int, 512),
                      "delta": (_to_float, 0.6),
                      "lams": (_to_floats, (32.0, 64.0, 128.0, 256.0, 512.0))},
    "multiplier": {**_COMMON,
                   "symbol": (_choice("one", "imaginary-power", "bump"), "imaginary-power"),
                   "rs": (_to_floats, (4.0 / 3.0, 2.0, 4.0)),
                   "besov_s": (_to_float, 1.0)},
    "heat": {**_COMMON, "K": (_to_int, 128),
             "ts": (_to_floats, (0.01, 0.016, 0.025, 0.04, 0.063, 0.1))},
    "wave-speed": {"n": (_to_int, 2), "potential": (_to_str, "0"),
                   "t": (_to_float, 0.5), "Ks": (_to_ints, (64, 128, 256)),
                   "seed": (_to_int, 20240801)},
    "strichartz": {**_COMMON, "K": (_to_int, 40), "ks": (_to_ints, (4, 8, 16, 32))},
    "parametrix": {"n": (_to_int, 3), "nu": (_to_int, 0),
                   "lams": (_to_floats, (5.0, 50.0)),
                   "rs": (_to_floats, tuple(0.05 + 0.05 * i for i in range(20))),
                   "l6_lams": (_to_floats, (8.0, 16.0, 32.0, 64.0, 128.0, 256.0)),
                   "seed": (_to_int, 20240801)},
    "weyl": {**_COMMON, "point": (_to_float, 0.0),
             "mus": (_to_floats, (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0))},
    "divergent-quasimode": {"n": (_to_int, 4), "eps": (_to_float, 0.25),
                            "k_min": (_to_int, 4), "k_max": (_to_int, 14),
                            "seed": (_to_int, 20240801)},
    "resolvent-probe": {"n": (_to_int, 3),
                        "lams": (_to_floats, (8.0, 11.0, 16.0, 22.0, 32.0)),
                        "seed": (_to_int, 20240801)},
}


def list_experiments() -> str:
    return "\n".join(sorted(SCHEMAS))


# ---------------------------------------------------------------------------
# config assembly and validation


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (K vs k_min)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise CliError(f"config {path}: {exc}")
    flat = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            if key in flat:
                raise CliError(f"config {path}: duplicate key {key!r} "
                               f"(second occurrence in section [{section}])")
            flat[key] = value
    return flat


def build_config(experiment: str, raw: dict) -> dict:
    """Type and range-check raw string key/values against the schema."""
    if experiment not in SCHEMAS:
        raise CliError(f"unknown experiment {experiment!r}; valid names:\n"
                       + list_experiments())
    schema = SCHEMAS[experiment]
    diagnostics = []
    cfg = {key: default for key, (_, default) in schema.items()}
    for key, value in raw.items():
        if key not in schema:
            diagnostics.append(f"unknown key {key!r} for experiment {experiment!r}")
            continue
        parser = schema[key][0]
        try:
            cfg[key] = parser(value)
        except (ValueError, TypeError):
            choices = getattr(parser, "choices", None)
            diagnostics.append(f"key {key!r}: cannot parse value {value!r}"
                               + (f"; choose from {', '.join(choices)}" if choices else ""))
    if diagnostics:
        raise CliError(diagnostics)
    cfg["experiment"] = experiment
    return cfg


# ---------------------------------------------------------------------------
# plans: each takes the typed config, checks every precondition of the run
# before its first product, and returns the run, which returns an ExperimentReport


def _key(key: str, check, *args):
    """check(*args), with a DomainError reported against config key ``key``."""
    try:
        return check(*args)
    except DomainError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from None


_RUN_BYTES = 2 ** 30  # the largest working set a config may ask for


def _check_bytes(size: int, what: str, key: str, exact: bool = True) -> None:
    """Rejects a run whose working set, ``size`` bytes as its plan charges
    it, exceeds the limit; tests/test_memory.py holds the tracemalloc peak
    of each charged run to at most 1.25x its charge."""
    if size > _RUN_BYTES:
        # rounded up to 3 digits, so a size just above the limit never reads as 1
        scale = 10.0 ** (2 - math.floor(math.log10(size / 2 ** 30)))
        raise ResolutionError(f"key {key!r}: {what} needs {'' if exact else 'at least '}"
                              f"{math.ceil(size / 2 ** 30 * scale) / scale:g} GiB, above "
                              f"the {_RUN_BYTES / 2 ** 30:g} GiB limit; lower {key}")


def _solve_bytes(nodes: int, modes: int, fine: int = 0, free: bool = False) -> int:
    """Peak bytes of a solve and its node values on N basis nodes and J
    modes, with ``fine`` refined-rule nodes in its check (0: none, or the
    full S^2's check, which builds no refined table).  Without a refined
    table it holds the basis and the node values, plus, unless it is
    ``free`` (V = None, whose decomposition holds no eigenvector matrix),
    the J x J eigenvectors (0.9x-1.05x of the tracemalloc peak); with one
    it peaks in its check: the basis, the table of the basis at the refined
    nodes (which ``operator_core._split_gram`` takes whole, copying no row)
    and three J x J matrices for the Galerkin matrix, the split's blocks and
    the check's transients (0.91x-1.01x)."""
    if fine:
        return 8 * modes * (nodes + fine + 3 * modes)
    return 8 * modes * (2 * nodes + (0 if free else modes))


def _check_K(key: str, *Ks: int) -> None:
    """Rejects a truncation K < 2 among the ``Ks`` read from config key ``key``."""
    if min(Ks) < 2:
        raise ConfigError(f"key {key!r}: truncation too small (K must be at least 2)")


def _lattice_points(n: int, r2: int) -> int:
    """Number of m in Z^n with |m|^2 <= r2, the mode count of a torus basis."""
    top = math.isqrt(r2)
    if n == 1:
        return 2 * top + 1
    return _lattice_points(n - 1, r2) + 2 * sum(_lattice_points(n - 1, r2 - x * x)
                                                for x in range(1, top + 1))


def _decomposition(cfg: dict, top: float = 0.0):
    """Plan of the solve of a spectral experiment: resolves the manifold and V,
    checks the truncation (K >= 2 and K >= ``top``) and the working set of the
    solve on the dense N x J basis (``_solve_bytes``): free before anything is
    built, then at the F nodes of ``operator_core._solve_rules``.  Returns the
    solve on the basis built there and the frequencies of H_0 + shift read off
    it, which plans check a run's reads against (V moves them; the run rechecks)."""
    import numpy as np

    from . import geometry, operator_core, potentials
    n, K = cfg["n"], cfg["K"]
    manifold = _key("manifold", geometry.ModelManifold, cfg["manifold"], n)
    V = _key("potential", potentials.from_reference, cfg["potential"], n)
    _key("potential", operator_core._check_potential, V, manifold)
    _check_K("K", K)
    if K < top:
        raise ConfigError(f"truncation too small (K={K} below the largest "
                          f"requested frequency {top:g})")
    full, torus = manifold.kind == geometry.SPHERE_FULL_2D, manifold.kind == geometry.TORUS
    nodes = math.prod(geometry._default_axes(manifold, K))
    what = f"solve on the dense {manifold.kind} basis at K={K} ({nodes} nodes per mode"
    if torus:  # one mode bounds the solve and keeps the lattice count cheap
        _check_bytes(_solve_bytes(nodes, 1, free=V is None), f"the {what})", "K",
                     exact=False)
    # J is K + 1, (K + 1)^2 or the lattice count
    modes = _lattice_points(n, K * K) if torus else (K + 1) ** (1 + full)
    _check_bytes(_solve_bytes(nodes, modes, free=V is None), f"the {what})", "K")
    basis, fine = _key("n", operator_core._solve_rules, V, manifold, K)
    if fine:
        _check_bytes(_solve_bytes(basis.grid.size, basis.size, fine),
                     f"the checked {what}, {fine} in the check)", "K")
    mu = np.rint(basis.freqs ** 2)  # the free diagonal of ``operator_core.assemble``
    shift = operator_core._positivity_shift(mu) if cfg["shift"] == "auto" else cfg["shift"]
    return (lambda: operator_core._solve_on(V, basis, cfg["shift"]),
            np.sqrt(np.maximum(mu + shift, 0.0)))


def _plan_spectrum(cfg):
    from . import estimators
    solve, _ = _decomposition(cfg)

    def run():
        decomp = solve()
        rows = [[i, float(mu), float(fr)] for i, (mu, fr)
                in enumerate(zip(decomp.eigenvalues, decomp.frequencies))]
        return estimators.ExperimentReport(
            columns=["index", "eigenvalue", "frequency"], rows=rows,
            summary={"shift": decomp.shift,
                     "min_eigenvalue": float(decomp.eigenvalues[0]),
                     "max_eigenvalue": float(decomp.eigenvalues[-1]),
                     "verdict": "ok"})
    return run


def _plan_kato(cfg):
    from . import estimators, geometry, potentials
    n, radii = cfg["n"], tuple(cfg["radii"])
    _key("n", geometry.ModelManifold, geometry.SPHERE_ZONAL, n)
    V = _key("potential", potentials.from_reference, cfg["potential"], n) or potentials.zero()
    potentials._check_radii(radii)

    def run():
        rep = potentials.kato_report(V, n, radii=radii)
        rows = [[r, m, int(c)] for r, m, c in zip(rep.radii, rep.moduli, rep.converged)]
        summary = {"classification": rep.verdict,
                   "stagnation_ratio": rep.stagnation_ratio,
                   "lnhalf_norm": rep.lnhalf_norm, "lnhalf_divergent": rep.lnhalf_divergent,
                   "verdict": "ok"}
        return estimators.ExperimentReport(columns=["radius", "modulus", "converged"],
                                           rows=rows, summary=summary)
    return run


def _plan_counterexample(cfg):
    import numpy as np

    from . import estimators, geometry, operator_core, potentials
    n, K = cfg["n"], cfg["K"]
    manifold = _key("n", geometry.ModelManifold, geometry.SPHERE_ZONAL, n)
    V = potentials.counterexample(n)
    _check_K("K", K)
    # the rows of Python floats and the arrays of the table, 264 bytes per node,
    # held while the Kato report peaks at 5.6 MB (tracemalloc, n = 2..5); charged
    # on the Gauss count at K first, so no rule is built far above the limit
    gauss = geometry._default_axes(manifold, K)[0]
    _check_bytes(264 * gauss + 6 * 2 ** 20,
                 f"the counterexample table at K={K} (a Gauss count of {gauss} nodes)", "K")
    grid = _key("n", operator_core._zonal_rule, V, n, K)
    _check_bytes(264 * grid.size + 6 * 2 ** 20,
                 f"the counterexample table at K={K} ({grid.size} nodes)", "K")

    def run():
        phi = grid.nodes
        f = potentials.counterexample_eigenfunction(n, phi)
        lap = potentials.counterexample_eigenfunction_laplacian(n, phi)
        vv = V.fn(phi)
        residual = np.abs(-lap + vv * f)
        bound = 1e-8 * (1.0 + np.abs(lap))
        rows = [[float(a), float(b), float(c), float(d)]
                for a, b, c, d in zip(phi, f, vv, residual)]
        coarse = geometry.default_grid(manifold, K, pole_levels=3)
        pole_growth = float(np.max(f) / np.max(
            potentials.counterexample_eigenfunction(n, coarse.nodes)))
        kato = potentials.kato_report(V, n)
        summary = {
            # near the poles the absolute residual is rounding noise of the huge
            # |V f|, so the verdict bounds it relative to 1 + |Delta f|
            "residual_rel_max": float(np.max(residual / (1.0 + np.abs(lap)))),
            "residual_within_bound": bool(np.all(residual <= bound)),
            "l2_norm": float(geometry.lp_norm(grid, f, 2.0)),
            "pole_growth_3_to_6": pole_growth,
            "kato_classification": kato.verdict,
            "kato_stagnation_ratio": kato.stagnation_ratio,
            "lnhalf_norm": kato.lnhalf_norm,
            "lnhalf_divergent": kato.lnhalf_divergent,
        }
        ok = (summary["residual_within_bound"] and pole_growth >= 2.0
              and kato.verdict == potentials.NOT_IN_KATO)
        if n >= 3:
            ok = ok and not kato.lnhalf_divergent
        summary["verdict"] = "pass" if ok else "fail"
        return estimators.ExperimentReport(columns=["phi", "f", "V", "residual"],
                                           rows=rows, summary=summary)
    return run


def _plan_projector_norms(cfg):
    from . import estimators, geometry
    n, p, lams, width = cfg["n"], cfg["p"], cfg["lams"], cfg["width"]
    solve, free = _decomposition(cfg, top=max(lams, default=0.0))
    estimators.sigma(p, n)  # the verdict's target: p in [2, inf]
    if cfg["manifold"] == geometry.SPHERE_ZONAL and 2 < p < estimators.p_critical(n):
        raise ConfigError(f"p = {p:g} lies below p_c = {estimators.p_critical(n):g}: "
                          "zonal functions cannot reach the p < p_c regime of sigma(p); "
                          "use p = 2 or p >= p_c")
    estimators._check_fit_points(estimators._projector_lams(free, lams, width))
    return lambda: estimators.projector_growth_report(solve(), p, lams, width=width)


def _plan_quasimode(cfg):
    from . import estimators
    p, lams = cfg["p"], cfg["lams"]
    solve, free = _decomposition(cfg, top=max(lams, default=0.0))
    estimators.sigma(p, cfg["n"])  # the exponent of the ratio: p in [2, inf]
    estimators._quasimode_modes(free, lams)
    return lambda: estimators.quasimode_report(solve(), p, lams)


def _plan_bochner_riesz(cfg):
    from . import dynamics, estimators, geometry
    delta, lams = cfg["delta"], cfg["lams"]
    _key("manifold", geometry._require_zonal, cfg["manifold"], "the Bochner-Riesz row norm")
    solve, free = _decomposition(cfg, top=max(lams, default=0.0))
    # a row norm is positive iff the falling symbol is positive at the lowest frequency
    estimators._check_fit_points(lams, [dynamics.bochner_riesz(lam, delta)(free[:1])[0]
                                        for lam in lams])
    return lambda: dynamics.br_norm_probe(solve(), delta, lams)


def _imaginary_power(s):
    import numpy as np
    s = np.asarray(s, dtype=complex)
    return np.where(s != 0, np.where(s != 0, s, 1.0) ** 1j, 1.0)


def _plan_multiplier(cfg):
    import numpy as np

    from . import dynamics, geometry, operator_core
    rs, besov_s = cfg["rs"], cfg["besov_s"]
    symbol = {"one": lambda s: np.ones_like(np.asarray(s, dtype=float)),
              "imaginary-power": _imaginary_power,
              "bump": operator_core.lp_profile}[cfg["symbol"]]
    solve, free = _decomposition(cfg)
    for preset in dynamics._PRESETS:
        dynamics._battery_modes(free, preset)
    for r in rs:
        geometry._check_exponent(r)
    dynamics._check_sobolev(besov_s)

    def run():
        decomp = solve()
        report = dynamics.norm_equivalence_probe(decomp, rs=rs, seed=cfg["seed"])
        report.summary["besov_norm"] = dynamics.besov_check(
            symbol, besov_s, lam_max=max(2.0, float(decomp.frequencies[-1])))
        return report
    return run


def _plan_heat(cfg):
    from . import dynamics, estimators
    solve, _ = _decomposition(cfg)
    estimators._check_fit_points(cfg["ts"])  # the fit of the sups in t, so each t > 0
    return lambda: dynamics.heat_report(solve(), cfg["ts"])


def _plan_wave_speed(cfg):
    from . import dynamics, geometry, operator_core, potentials
    n, t, Ks = cfg["n"], cfg["t"], sorted(cfg["Ks"])
    manifold = _key("n", geometry.ModelManifold, geometry.SPHERE_ZONAL, n)
    V = _key("potential", potentials.from_reference, cfg["potential"], n)
    if not Ks:
        raise ConfigError("key 'Ks': need at least one truncation")
    if len(set(Ks)) < len(Ks):
        raise ConfigError(f"key 'Ks': truncations must be distinct, got {Ks} (the leakage "
                          "must decrease strictly from one K to the next)")
    if t == 0.0:
        raise ConfigError("key 't': t must be non-zero (at t = 0 every leakage is exactly "
                          "0, so the leakage cannot decrease with K)")
    _check_K("Ks", *Ks)
    # one solve at a time, the largest first: its check's refined table is
    # freed before its leakage holds the solve, its N x N kernel (then
    # distances) with the mass and the cone mask, and then, the kernel
    # freed, the mass, the mask and mass[outside]; both phases are charged,
    # with the 128 KiB of buffers numpy's ufunc.outer iterates through
    nodes, modes = math.prod(geometry._default_axes(manifold, Ks[-1])), Ks[-1] + 1
    what = f"the leakage run up to K={Ks[-1]} ({nodes} nodes)"
    _check_bytes(_solve_bytes(nodes, modes, free=V is None) + 17 * nodes ** 2 + 2 ** 17,
                 what, "Ks")
    rungs = [_key("n", operator_core._solve_rules, V, manifold, K) for K in Ks]
    largest, fine = rungs[-1]
    if fine:
        _check_bytes(_solve_bytes(largest.grid.size, largest.size, fine), what, "Ks")
    for basis, _ in rungs:  # the free top frequency; the cutoff is a quarter of the largest
        dynamics._check_leakage(t, float(largest.freqs[-1]) / 4.0, float(basis.freqs[-1]))
    return lambda: dynamics.cone_leakage_trend(n, t, Ks, V=V)


def _plan_strichartz(cfg):
    from . import dynamics, estimators
    ks = cfg["ks"]
    solve, free = _decomposition(cfg)
    for k in ks:
        dynamics._ladder_rung(free, k)
    estimators._check_fit_points(ks)
    return lambda: dynamics.strichartz_report(solve(), ks=ks)


def _plan_parametrix(cfg):
    from . import estimators, parametrix
    n, nu, lams, rs, l6_lams = cfg["n"], cfg["nu"], cfg["lams"], cfg["rs"], cfg["l6_lams"]
    parametrix._check_kernel(n, nu, rs, lams)
    if len(l6_lams) >= 4:
        estimators._check_fit_points(l6_lams)
    return lambda: parametrix.kernel_report(n, nu, rs, lams, l6_lams)


def _plan_weyl(cfg):
    from . import estimators, geometry
    point, mus = cfg["point"], cfg["mus"]
    _key("manifold", geometry._require_zonal, cfg["manifold"], "the local Weyl sum")
    solve, free = _decomposition(cfg)
    estimators._check_weyl(mus, float(free[-1]), least=1.0)
    return lambda: estimators.local_weyl_report(solve(), point, mus)


def _plan_divergent_quasimode(cfg):
    from . import estimators
    n, eps, k_min, k_max = cfg["n"], cfg["eps"], cfg["k_min"], cfg["k_max"]
    estimators._check_divergent(n, eps, k_min, k_max)
    # the rungs x degrees table of dyadic bumps and 9 vectors over the degrees
    # (the tracemalloc peak at k_max = 14 and 17); exponents beyond 64 are
    # far above the limit, and are capped so that the estimate stays cheap
    _check_bytes(8 * (2 ** min(k_max + 1, 64) + 9) * (k_max - k_min + 1 + 9),
                 f"the ladder of 2^{k_max + 1} + 9 degrees x {k_max - k_min + 1} rungs",
                 "k_max", exact=k_max < 64)
    return lambda: estimators.divergent_quasimode(n, eps, k_min=k_min, k_max=k_max)


# bytes per point of the half cube {0..N/2}^n that uniform_resolvent_probe
# holds at its peak (64-66 measured with tracemalloc at n = 3 and 4)
_RESOLVENT_BYTES = 72


def _plan_resolvent_probe(cfg):
    from . import estimators
    n, lams = cfg["n"], cfg["lams"]
    estimators.sobolev_dual_pair(n)
    estimators._check_fit_points(lams)
    N = estimators._resolvent_grid(lams)
    _check_bytes(_RESOLVENT_BYTES * (N // 2 + 1) ** n,
                 f"the resolvent probe on the {N // 2 + 1}^{n} half cube of the {N}^{n} grid",
                 "n")
    return lambda: estimators.uniform_resolvent_probe(n, lams)


RUNNERS = {
    "spectrum": _plan_spectrum,
    "kato": _plan_kato,
    "counterexample": _plan_counterexample,
    "projector-norms": _plan_projector_norms,
    "quasimode": _plan_quasimode,
    "bochner-riesz": _plan_bochner_riesz,
    "multiplier": _plan_multiplier,
    "heat": _plan_heat,
    "wave-speed": _plan_wave_speed,
    "strichartz": _plan_strichartz,
    "parametrix": _plan_parametrix,
    "weyl": _plan_weyl,
    "divergent-quasimode": _plan_divergent_quasimode,
    "resolvent-probe": _plan_resolvent_probe,
}


def validate(experiment: str, cfg: dict) -> list:
    """The error of the run's own plan as a diagnostic, [] when the run would
    start; writes nothing, and builds only the grids and bases a plan checks."""
    try:
        RUNNERS[experiment](cfg)
    except QlabError as exc:
        return [str(exc)]
    return []


# ---------------------------------------------------------------------------
# entry point


def _version() -> str:
    """The package version, with the git description appended in a checkout."""
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=here,
            capture_output=True, text=True, timeout=5)
        if described.returncode == 0 and described.stdout.strip():
            return f"{__version__}+{described.stdout.strip()}"
    except Exception:
        pass
    return __version__


def _cap_workers(jobs: int) -> None:
    jobs = max(1, jobs)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = str(jobs)


def _parse_overrides(pairs) -> dict:
    out = {}
    it = iter(pairs)
    for token in it:
        if not token.startswith("--"):
            raise CliError(f"expected --key, got {token!r}")
        key = token[2:].replace("-", "_")
        try:
            value = next(it)
        except StopIteration:
            raise CliError(f"missing value for {token}")
        out[key] = value
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="numerical laboratory for Schrodinger operators with "
                    "critically singular potentials on model manifolds",
        allow_abbrev=False)
    parser.add_argument("experiment", help="experiment name, or 'list'/'validate'")
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--jobs", type=int, default=1, help="worker thread cap")
    parser.add_argument("--out", default=None, help="output directory")
    args, extra = parser.parse_known_args(argv)

    try:
        if args.experiment == "list":
            print(list_experiments())
            return 0

        _cap_workers(args.jobs)

        raw = {}
        is_validate = args.experiment == "validate"
        experiment = args.experiment
        if args.config:
            raw.update(_load_config_file(args.config))
        if "experiment" in raw:
            file_experiment = raw.pop("experiment")
            if is_validate or experiment == file_experiment:
                experiment = file_experiment
            else:
                raise CliError(f"config requests experiment {file_experiment!r} "
                               f"but the command line says {experiment!r}")
        raw.update(_parse_overrides(extra))

        if is_validate:
            if not args.config:
                raise CliError("validate requires --config FILE")
            try:
                diagnostics = validate(experiment, build_config(experiment, raw))
            except CliError as exc:
                diagnostics = exc.diagnostics
            print("\n".join(diagnostics) or "ok")
            return 1 if diagnostics else 0

        cfg = build_config(experiment, raw)
        run = RUNNERS[experiment](cfg)

        out_dir = args.out or os.environ.get("QLAB_OUT") or "."
        os.makedirs(out_dir, exist_ok=True)

        start = time.perf_counter()
        report = run()
        runtime = time.perf_counter() - start

        report.summary.setdefault("verdict", "ok")
        csv_path = os.path.join(out_dir, f"{experiment}.csv")
        json_path = os.path.join(out_dir, f"{experiment}.json")
        report.write_csv(csv_path)
        report.write_json(json_path, config=cfg, version=_version(),
                          runtime_seconds=runtime, jobs=args.jobs)

        verdict = report.summary.get("verdict", "ok")
        print(f"{experiment}: verdict={verdict} "
              f"(csv={csv_path}, json={json_path}, {runtime:.2f}s)")
        return 2 if verdict == "fail" else 0

    except CliError as exc:
        for line in exc.diagnostics:
            print(f"error: {line}", file=sys.stderr)
        return 1
    except Exception as exc:  # numeric/domain failures from the modules
        print(f"error: {type(exc).__module__}.{type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
