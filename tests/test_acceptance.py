"""Acceptance criteria, one test and one printed PASS/FAIL line each.

Tolerances are pinned here and intentionally not shared with library
defaults, so a drive-by change of a default cannot silently weaken a
criterion.
"""

import glob
import json
import math
import os

import numpy as np
import pytest

from qlab import (cli, dynamics, estimators, geometry, operator_core,
                  parametrix, potentials)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _report(idx, label, ok):
    print(f"CRITERION {idx} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {idx}: {label}"


def test_criterion_1_exponent_algebra():
    ok = True
    for n in range(2, 7):
        pc = estimators.p_critical(n)
        ok &= pc == 2.0 * (n + 1) / (n - 1)
        ok &= estimators.sigma(2.0, n) == 0.0
        ok &= estimators.sigma(math.inf, n) == (n - 1) / 2.0
        # machine precision at the kink: bit-exact when p_c is a
        # representable float, within a few ulps otherwise
        ok &= abs(estimators.sigma(pc, n) - 1.0 / pc) <= 4 * math.ulp(1.0 / pc)
    ok &= estimators.p_critical(3) == 4.0 and estimators.p_critical(5) == 3.0
    _report(1, "sigma / p_critical closed forms", bool(ok))


def test_criterion_2_counterexample_identity():
    ok = True
    for n in (2, 3, 4, 5):
        grid = geometry.zonal_grid(n, 272, pole_levels=6)
        phi = grid.nodes
        f = potentials.counterexample_eigenfunction(n, phi)
        lap = potentials.counterexample_eigenfunction_laplacian(n, phi)
        V = potentials.counterexample(n)
        resid = np.abs(-lap + V.fn(phi) * f)
        ok &= bool(np.all(resid <= 1e-8 * (1.0 + np.abs(lap))))
        ok &= bool(np.isfinite(geometry.lp_norm(grid, f, 2.0)))
        coarse = geometry.zonal_grid(n, 272, pole_levels=3)
        f3 = potentials.counterexample_eigenfunction(n, coarse.nodes)
        ok &= bool(np.max(f) >= 2.0 * np.max(f3))
        rep = potentials.kato_report(V, n, radii=(1e-1, 1e-2, 1e-3))
        ok &= rep.stagnation_ratio > 0.3
        if n >= 3:
            ok &= not potentials.potential_lq_norm(V, n, n / 2.0).divergent
        ok &= potentials.potential_lq_norm(V, n, n / 2.0 + 0.25).divergent
    _report(2, "singular counterexample family", bool(ok))


def test_criterion_3_projection_growth(s2_free_72, s2_kato_72):
    lams = (10.0, 14.0, 20.0, 28.0, 40.0, 56.0)
    free = estimators.projector_growth_report(s2_free_72, math.inf, lams)
    kato = estimators.projector_growth_report(s2_kato_72, math.inf, lams)
    pc_rep = estimators.projector_growth_report(s2_free_72, 6.0, lams)
    ok = abs(free.summary["slope"] - 0.5) <= 0.1
    ok &= abs(kato.summary["slope"] - 0.5) <= 0.15
    ok &= abs(pc_rep.summary["slope"] - 1.0 / 6.0) <= 0.1
    _report(3, "spectral projection growth on S^2", bool(ok))


def test_criterion_4_bochner_riesz(s2_free_512):
    lams = (32.0, 64.0, 128.0, 256.0, 512.0)
    above = dynamics.br_norm_probe(s2_free_512, 0.6, lams)
    below = dynamics.br_norm_probe(s2_free_512, 0.3, lams)
    ok = abs(above.summary["slope"]) <= 0.15
    ok &= below.summary["slope"] >= 0.1
    _report(4, "Bochner-Riesz L^1 norms around delta(1) = 1/2", bool(ok))


def test_criterion_5_finite_propagation_speed():
    rep = dynamics.cone_leakage_trend(2, 0.5, (64, 128, 256))
    leaks = [row[-1] for row in rep.rows]
    ok = all(b < a for a, b in zip(leaks, leaks[1:]))
    ok &= leaks[-1] < 1e-3
    _report(5, "finite propagation speed / cone leakage", bool(ok))


def test_criterion_6_strichartz(s2_free_40, s2_kato_40):
    free = dynamics.strichartz_report(s2_free_40, ks=(4, 8, 16, 32))
    kato = dynamics.strichartz_report(s2_kato_40, ks=(4, 8, 16, 32))
    band = dynamics.band_bound_report(s2_free_40, ks=(4, 8, 16, 32))
    ok = abs(free.summary["slope"]) <= 0.1
    ok &= abs(kato.summary["slope"]) <= 0.1
    ok &= abs(band.summary["slope"] - 1.0 / 6.0) <= 0.1
    _report(6, "Strichartz ratios and band bound", bool(ok))


def test_criterion_7_heat_smoothing():
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 2)
    decomp = operator_core.solve(None, manifold, 128)
    ts = (0.01, 0.016, 0.025, 0.04, 0.063, 0.1)
    rep = dynamics.heat_report(decomp, ts)
    ok = abs(rep.summary["slope"] + 1.0) <= 0.1
    _report(7, "on-diagonal heat kernel decay", bool(ok))


def test_criterion_8_parametrix():
    # K_{1/2} identity to 1e-10 on both routes
    ok = True
    for z in (0.3, 1.0, 2.5, 1.0 - 3.0j):
        oracle = np.sqrt(math.pi / (2 * complex(z))) * np.exp(-complex(z))
        ok &= abs(parametrix.bessel_k_integral(0.5, z) - oracle) <= 1e-10 * abs(oracle)
        ok &= abs(parametrix.bessel_k_asymptotic(0.5, z) - oracle) <= 1e-10 * abs(oracle)
    # n=3 closed form to 1e-8 relative on r in [0.05, 1], lam in {5, 50}
    for lam in (5.0, 50.0):
        for r in np.linspace(0.05, 1.0, 39):
            oracle = parametrix.f0_closed_form_3d(float(r), lam)
            got = parametrix.f_nu(3, 0, float(r), lam)
            ok &= abs(got - oracle) <= 1e-8 * abs(oracle)
    # regime slopes: |F_0| against r over [0.02, 0.2]/lambda at lambda = 20
    # (target 2 - n), and against lambda at r = 0.3 (target (n - 3)/2)
    rs = np.geomspace(0.02 / 20.0, 0.2 / 20.0, 9)
    fit = estimators.fit_exponent(rs, [abs(parametrix.f_nu(3, 0, float(r), 20.0)) for r in rs])
    ok &= abs(fit.slope + 1.0) <= 0.1
    lams = np.geomspace(8, 128, 9)
    fit = estimators.fit_exponent(lams, [abs(parametrix.f_nu(3, 0, 0.3, float(lam)))
                                         for lam in lams])
    ok &= abs(fit.slope) <= 0.1
    # L^6 kernel bound slope
    l6 = parametrix.kernel_l6_check(np.geomspace(8.0, 256.0, 9))
    ok &= abs(l6.summary["slope"] + 1.0 / 3.0) <= 0.05
    # recursion residual
    ok &= parametrix.recursion_residual(3, 20.0) <= 1e-4
    _report(8, "Hadamard parametrix kernels", bool(ok))


def test_criterion_9_weyl_and_divergent_quasimode(s2_free_40):
    mus = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    rep = estimators.local_weyl_report(s2_free_40, 0.0, mus)
    ratios = [row[-1] for row in rep.rows]
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    dq = estimators.divergent_quasimode(4, 0.25, k_min=4, k_max=14).summary
    ok &= dq["growth"] > 0.6
    ok &= 0.5 <= dq["normalization"] <= 2.0
    _report(9, "local Weyl law and divergent quasimode", bool(ok))


def test_criterion_10_determinism(tmp_path):
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.ini")))
    names = [os.path.splitext(os.path.basename(path))[0] for path in configs]
    # one shipped config per experiment, each naming its own
    assert set(names) == set(cli.SCHEMAS)
    ok = True
    for name, path in zip(names, configs):
        assert cli._load_config_file(path)["experiment"] == name, path
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            out.mkdir()
            rc = cli.main([name, "--config", path, "--out", str(out)])
            ok &= rc == 0
            outs.append((out / f"{name}.csv").read_bytes())
        ok &= outs[0] == outs[1]
    _report(10, "byte-identical CSVs for shipped configs", bool(ok))
