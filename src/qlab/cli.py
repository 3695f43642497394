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
from .errors import DomainError


class CliError(Exception):
    """Configuration problem with user-facing diagnostics."""

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


# ---------------------------------------------------------------------------
# typed config values


def _to_int(text: str) -> int:
    return int(text)


def _to_float(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(text)


def _to_floats(text: str):
    return tuple(_to_float(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _to_ints(text: str):
    return tuple(int(tok) for tok in text.replace(";", ",").split(",") if tok.strip())


def _to_str(text: str) -> str:
    return text.strip()


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
    "square-function": {**_COMMON, "K": (_to_int, 64),
                        "preset": (_choice("zonal-ladder", "point-concentrated",
                                           "random-band"), "zonal-ladder")},
    "multiplier": {**_COMMON,
                   "symbol": (_choice("one", "imaginary-power", "bump"), "imaginary-power"),
                   "rs": (_to_floats, (4.0 / 3.0, 2.0, 4.0)),
                   "besov_s": (_to_float, 1.0)},
    "heat": {**_COMMON, "K": (_to_int, 128),
             "ts": (_to_floats, (0.01, 0.016, 0.025, 0.04, 0.063, 0.1))},
    "wave-speed": {"n": (_to_int, 2), "potential": (_to_str, "0"),
                   "t": (_to_float, 0.5), "Ks": (_to_ints, (64, 128, 256)),
                   "seed": (_to_int, 20240801)},
    "strichartz": {**_COMMON, "K": (_to_int, 40),
                   "battery": (_choice("zonal-ladder", "band-bound"), "zonal-ladder"),
                   "ks": (_to_ints, (4, 8, 16, 32))},
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


_TORUS_BASIS_BYTES = 2 ** 30  # largest dense N x J torus basis a config may ask for


def _lattice_points(n: int, r2: int) -> int:
    """Number of m in Z^n with |m|^2 <= r2, the mode count of a torus basis."""
    top = math.isqrt(r2)
    if n == 1:
        return 2 * top + 1
    return _lattice_points(n - 1, r2) + 2 * sum(_lattice_points(n - 1, r2 - x * x)
                                                for x in range(1, top + 1))


def _size_diagnostics(experiment: str, cfg: dict) -> list:
    """Truncations a valid manifold cannot run: a torus basis too large to
    hold densely, or a zonal-ladder rung above the free top frequency (V
    moves that frequency, so the run can still stop)."""
    from . import geometry
    out = []
    K, n, torus = cfg["K"], cfg["n"], cfg["manifold"] == geometry.TORUS
    if torus and K >= 0:
        nodes = (2 * K + 2) ** n  # default_grid's torus grid
        size, exact = 8 * nodes, False  # one column: a lower bound
        if size <= _TORUS_BASIS_BYTES:  # then counting the modes is cheap
            size, exact = size * _lattice_points(n, K * K), True
        if size > _TORUS_BASIS_BYTES:
            out.append(f"key 'K': the dense torus basis at K={K} ({nodes} nodes per mode) "
                       f"needs {'' if exact else 'at least '}{size / 2 ** 30:.3g} GiB, "
                       f"above the {_TORUS_BASIS_BYTES / 2 ** 30:g} GiB limit; lower K")
    if experiment == "strichartz" and cfg["battery"] == "zonal-ladder" and K >= 0:
        top = K if torus else math.sqrt(K * (K + n - 1))
        short = [k for k in cfg["ks"] if top < k + 0.75]
        if short:
            out.append(f"truncation frequency {top:.1f} (K={K}) below battery rung "
                       f"k={short[0]}, which needs frequencies up to k + 3/4")
    return out


def validate(experiment: str, cfg: dict) -> list:
    """Semantic diagnostics beyond type checking; never mutates state."""
    from . import geometry
    out = []
    spectral = "manifold" in cfg  # the schemas built on _COMMON solve for a decomposition
    if spectral and cfg["K"] < 2:
        out.append("truncation too small (K must be at least 2)")
    if "lams" in cfg:
        lam_max = max(cfg["lams"]) if cfg["lams"] else 0.0
        if spectral and cfg["K"] < lam_max:
            out.append(f"truncation too small (K={cfg.get('K')} below the "
                       f"largest requested frequency {lam_max:g})")
    if experiment == "divergent-quasimode":
        if cfg["n"] < 4:
            out.append("dimension must be >= 4 for the divergent construction")
        if not 0.0 < cfg["eps"] < 0.5:
            out.append("eps must lie in (0, 1/2)")
    if experiment == "projector-norms" and cfg["p"] < 2:
        out.append("p must lie in [2, inf] for projector norms")
    elif experiment == "projector-norms" and cfg["manifold"] == geometry.SPHERE_ZONAL:
        from .estimators import p_critical
        if cfg["n"] >= 2 and 2 < cfg["p"] < p_critical(cfg["n"]):
            out.append(f"p = {cfg['p']:g} lies below p_c = {p_critical(cfg['n']):g}: "
                       "zonal functions cannot reach the p < p_c regime of sigma(p); "
                       "use p = 2 or p >= p_c")
    if experiment == "wave-speed" and abs(cfg["t"]) > math.pi / 2:
        out.append("time t must satisfy |t| <= pi/2")
    if experiment == "resolvent-probe" and cfg["n"] < 3:
        out.append("dimension must be >= 3 for the uniform resolvent pair")
    if spectral:
        try:
            geometry.ModelManifold(cfg["manifold"], cfg["n"])
        except DomainError as exc:
            out.append(f"key 'manifold': {exc}")
        else:
            out += _size_diagnostics(experiment, cfg)
        if experiment in ("bochner-riesz", "weyl") and cfg["manifold"] != geometry.SPHERE_ZONAL:
            out.append(f"key 'manifold': {experiment} evaluates zonal modes at a polar "
                       "angle, so it runs on sphere-zonal only")
    if "potential" in cfg:
        try:
            V = _resolve_potential(cfg["potential"], cfg["n"])
        except DomainError as exc:
            out.append(f"key 'potential': {exc}")
        else:
            if V is not None and cfg.get("manifold") == geometry.TORUS:
                out.append("key 'potential': zonal potentials are not defined on the torus")
    return out


def _resolve_potential(text: str, n: int):
    """Potential reference: '0', 'counterexample',
    'truncated-counterexample[:phi0]', 'constant:<c>', or a zonal expression."""
    from . import potentials
    text = text.strip()

    def number(arg: str) -> float:
        try:
            return float(arg)
        except ValueError:
            raise DomainError(f"{arg!r} in {text!r} is not a number") from None

    if text in ("0", "", "none", "zero"):
        return None
    if text == "counterexample":
        return potentials.counterexample(n)
    if text.startswith("truncated-counterexample"):
        _, _, arg = text.partition(":")
        return potentials.truncated_counterexample(n, number(arg) if arg else 0.3)
    if text.startswith("constant:"):
        return potentials.constant(number(text.partition(":")[2]))
    return potentials.from_expression(text)


def _solve(cfg: dict):
    from . import geometry, operator_core
    manifold = geometry.ModelManifold(cfg["manifold"], cfg["n"])
    V = _resolve_potential(cfg["potential"], cfg["n"])
    return operator_core.solve(V, manifold, cfg["K"], shift=cfg["shift"])


# ---------------------------------------------------------------------------
# runners: each takes the typed config and returns an ExperimentReport


def _run_spectrum(cfg):
    from . import estimators
    decomp = _solve(cfg)
    rows = [[i, float(mu), float(fr)] for i, (mu, fr)
            in enumerate(zip(decomp.eigenvalues, decomp.frequencies))]
    return estimators.ExperimentReport(
        columns=["index", "eigenvalue", "frequency"], rows=rows,
        summary={"shift": decomp.shift,
                 "min_eigenvalue": float(decomp.eigenvalues[0]),
                 "max_eigenvalue": float(decomp.eigenvalues[-1]),
                 "verdict": "ok"})


def _run_kato(cfg):
    from . import estimators, potentials
    V = _resolve_potential(cfg["potential"], cfg["n"]) or potentials.zero()
    rep = potentials.kato_report(V, cfg["n"], radii=tuple(cfg["radii"]))
    rows = [[r, m, int(c)] for r, m, c in zip(rep.radii, rep.moduli, rep.converged)]
    summary = {"classification": rep.verdict,
               "stagnation_ratio": rep.stagnation_ratio,
               "lnhalf_norm": rep.lnhalf_norm,
               "lnhalf_divergent": rep.lnhalf_divergent,
               "verdict": "ok"}
    return estimators.ExperimentReport(columns=["radius", "modulus", "converged"],
                                       rows=rows, summary=summary)


def _run_counterexample(cfg):
    import numpy as np

    from . import estimators, geometry, potentials
    n = cfg["n"]
    V = potentials.counterexample(n)
    grid = geometry.zonal_grid(n, 2 * cfg["K"] + 16, pole_levels=geometry.SINGULAR_POLE_LEVELS)
    phi = grid.nodes
    f = potentials.counterexample_eigenfunction(n, phi)
    lap = potentials.counterexample_eigenfunction_laplacian(n, phi)
    vv = V.fn(phi)
    residual = np.abs(-lap + vv * f)
    bound = 1e-8 * (1.0 + np.abs(lap))
    rows = [[float(a), float(b), float(c), float(d)]
            for a, b, c, d in zip(phi, f, vv, residual)]
    coarse = geometry.zonal_grid(n, 2 * cfg["K"] + 16, pole_levels=3)
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


def _run_projector_norms(cfg):
    from . import estimators
    decomp = _solve(cfg)
    return estimators.projector_growth_report(decomp, cfg["p"], cfg["lams"],
                                              width=cfg["width"])


def _run_quasimode(cfg):
    import numpy as np

    from . import estimators
    decomp = _solve(cfg)
    rows = []
    for lam in cfg["lams"]:
        i = int(np.argmin(np.abs(decomp.frequencies - lam)))
        lam_used = float(decomp.frequencies[i])
        u = decomp.node_values()[:, i]
        ratio = estimators.quasimode_ratio(decomp, u, lam_used, cfg["p"])
        rows.append([float(lam), lam_used, float(ratio)])
    ratios = [r[2] for r in rows]
    return estimators.ExperimentReport(
        columns=["lambda_requested", "lambda_used", "ratio"], rows=rows,
        summary={"p": cfg["p"], "max_ratio": max(ratios), "min_ratio": min(ratios),
                 "verdict": "ok"})


def _run_bochner_riesz(cfg):
    from . import dynamics
    decomp = _solve(cfg)
    return dynamics.br_norm_probe(decomp, cfg["delta"], cfg["lams"])


_SQUARE_FUNCTION_BAND = (0.2, 5.0)  # the verdict's bounds on ||Sf||_2 / ||f||_2


def _run_square_function(cfg):
    import numpy as np
    from . import dynamics, estimators, geometry
    decomp = _solve(cfg)
    grid = decomp.basis.grid
    battery = dynamics.test_battery(decomp, cfg["preset"], seed=cfg["seed"])
    sfs = dynamics.square_function(decomp, np.column_stack([f for _, f in battery]))
    rows = [[label, float(geometry.lp_norm(grid, sf, 2.0) / geometry.lp_norm(grid, f, 2.0))]
            for (label, f), sf in zip(battery, sfs.T)]
    ratios = [r[1] for r in rows]
    lo, hi = _SQUARE_FUNCTION_BAND
    ok = lo <= min(ratios) and max(ratios) <= hi
    return estimators.ExperimentReport(
        columns=["test_function", "l2_ratio"], rows=rows,
        summary={"min_ratio": min(ratios), "max_ratio": max(ratios),
                 "band": [lo, hi],
                 "verdict": "pass" if ok else "fail"})


def _multiplier_symbol(name: str):
    import numpy as np
    if name == "one":
        return lambda s: np.ones_like(np.asarray(s, dtype=float))
    if name == "imaginary-power":
        def imaginary_power(s):
            s = np.asarray(s, dtype=complex)
            return np.where(s != 0, np.where(s != 0, s, 1.0) ** 1j, 1.0)
        return imaginary_power
    from . import operator_core
    return operator_core.lp_profile


def _run_multiplier(cfg):
    from . import dynamics
    decomp = _solve(cfg)
    m = _multiplier_symbol(cfg["symbol"])
    report = dynamics.norm_equivalence_probe(decomp, rs=cfg["rs"])
    lam_max = float(decomp.frequencies[-1])
    report.summary["besov_norm"] = dynamics.besov_check(
        m, cfg["besov_s"], lam_max=max(2.0, lam_max))
    return report


def _run_heat(cfg):
    from . import dynamics
    decomp = _solve(cfg)
    return dynamics.heat_report(decomp, cfg["ts"])


def _run_wave_speed(cfg):
    from . import dynamics
    V = _resolve_potential(cfg["potential"], cfg["n"])
    return dynamics.cone_leakage_trend(cfg["n"], cfg["t"], cfg["Ks"], V=V)


def _run_strichartz(cfg):
    from . import dynamics
    decomp = _solve(cfg)
    if cfg["battery"] == "zonal-ladder":
        return dynamics.strichartz_report(decomp, ks=cfg["ks"])
    return dynamics.band_bound_report(decomp, ks=cfg["ks"])


def _run_parametrix(cfg):
    from . import estimators, parametrix
    n, nu = cfg["n"], cfg["nu"]
    rows = parametrix.kernel_table(n, nu, cfg["rs"], cfg["lams"])
    summary = {}
    lam_mid = float(sorted(cfg["lams"])[len(cfg["lams"]) // 2])
    summary["recursion_residual"] = parametrix.recursion_residual(n, lam_mid)
    ok = summary["recursion_residual"] <= 1e-4
    if n == 3 and nu == 0:
        err = max(abs(parametrix.f_nu(3, 0, r, lam)
                      - parametrix.f0_closed_form_3d(r, lam))
                  / abs(parametrix.f0_closed_form_3d(r, lam))
                  for lam in cfg["lams"] for r in cfg["rs"])
        summary["closed_form_max_rel_error"] = float(err)
        ok = ok and err <= 1e-8
    if len(cfg["l6_lams"]) >= 4:
        l6 = parametrix.kernel_l6_check(cfg["l6_lams"])
        summary["l6_slope"] = l6.summary["slope"]
        summary["l6_verdict"] = l6.verdict
        ok = ok and l6.verdict == "pass"
    summary["verdict"] = "pass" if ok else "fail"
    return estimators.ExperimentReport(columns=["r", "lambda", "re_f", "im_f"],
                                       rows=rows, summary=summary)


def _run_weyl(cfg):
    from . import estimators
    decomp = _solve(cfg)
    return estimators.local_weyl_report(decomp, cfg["point"], cfg["mus"])


_MIN_GROWTH = 0.6  # partial-sum growth the divergent ladder must exceed


def _run_divergent_quasimode(cfg):
    from . import estimators
    rep = estimators.divergent_quasimode(cfg["n"], cfg["eps"],
                                         k_min=cfg["k_min"], k_max=cfg["k_max"])
    rows = [[int(k), float(t), float(s)]
            for k, t, s in zip(rep.ks, rep.terms, rep.partial_sums)]
    ok = (rep.growth > _MIN_GROWTH
          and 0.5 <= rep.normalization <= 2.0)
    return estimators.ExperimentReport(
        columns=["k", "term", "partial_sum"], rows=rows,
        summary={"growth": rep.growth, "tail_l2": rep.tail_l2,
                 "normalization": rep.normalization,
                 "normalization_full": rep.normalization_full,
                 "lam": rep.lam, "min_growth": _MIN_GROWTH,
                 "verdict": "pass" if ok else "fail"})


def _run_resolvent_probe(cfg):
    from . import estimators
    return estimators.uniform_resolvent_probe(cfg["n"], cfg["lams"])


RUNNERS = {
    "spectrum": _run_spectrum,
    "kato": _run_kato,
    "counterexample": _run_counterexample,
    "projector-norms": _run_projector_norms,
    "quasimode": _run_quasimode,
    "bochner-riesz": _run_bochner_riesz,
    "square-function": _run_square_function,
    "multiplier": _run_multiplier,
    "heat": _run_heat,
    "wave-speed": _run_wave_speed,
    "strichartz": _run_strichartz,
    "parametrix": _run_parametrix,
    "weyl": _run_weyl,
    "divergent-quasimode": _run_divergent_quasimode,
    "resolvent-probe": _run_resolvent_probe,
}


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
                cfg = build_config(experiment, raw)
                diagnostics = validate(experiment, cfg)
            except CliError as exc:
                diagnostics = exc.diagnostics
            for line in diagnostics:
                print(line)
            if not diagnostics:
                print("ok")
            return 1 if diagnostics else 0

        cfg = build_config(experiment, raw)
        diagnostics = validate(experiment, cfg)
        if diagnostics:
            raise CliError(diagnostics)

        out_dir = args.out or os.environ.get("QLAB_OUT") or "."
        os.makedirs(out_dir, exist_ok=True)

        start = time.perf_counter()
        report = RUNNERS[experiment](cfg)
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
