"""One fresh benchmark worker: import qlab, generate the seeded inputs, then
either stop (a set-up sample) or run one pass over the workload's jobs,
verify every job, and write a JSON result file.

Usage (started by run.py, one process per pass):
    python bench/worker.py '<json request>'

The request names the workload, seed, mode (setup, pass or env), trace flag
and result path.  The parent sets the BLAS thread variables in this
process's environment before numpy is first imported.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time

from run import FREE_TOL, THREAD_VARS, monotonic, seeded_inputs
from tracing import Tracer

# eigen-residual and orthogonality tolerances: a backward-stable solver
# reaches ~J * 1e-16; a decomposition of another matrix is off by O(1)
RESIDUAL_TOL = 1e-9
ORTHO_TOL = 1e-9


# ---------------------------------------------------------------------------
# singular-solve: one decomposition per job, diagonalize dominates


def singular_jobs(inp: dict, smoke: bool) -> list:
    phi0 = inp["phi0"]
    if smoke:
        return [dict(id="zonal3-trunc-K32", kind="sphere-zonal", n=3, K=32,
                     potential="truncated", phi0=phi0, pole_levels=0, check=False)]
    jobs = [dict(id=f"zonal3-trunc-K{K}", kind="sphere-zonal", n=3, K=K,
                 potential="truncated", phi0=phi0, pole_levels=0, check=False)
            for K in (128, 256)]
    jobs += [dict(id=f"zonal3-critical-K{K}", kind="sphere-zonal", n=3, K=K,
                  potential="critical", phi0=None, pole_levels=6, check=True)
             for K in (128, 256, 512)]
    # unchecked, as the CLI solves it: with check=True the default full-S^2
    # grid raises NumericError (the refinement check does not converge)
    jobs.append(dict(id="s2-trunc-K16", kind="sphere-full-2d", n=2, K=16,
                     potential="truncated", phi0=phi0, pole_levels=0, check=False))
    return jobs


def prepare_singular(job: dict):
    from qlab import potentials
    if job["potential"] == "critical":
        return potentials.counterexample(job["n"])
    return potentials.truncated_counterexample(job["n"], job["phi0"])


def run_singular(job: dict, V):
    from qlab import geometry, operator_core
    manifold = geometry.ModelManifold(job["kind"], job["n"])
    grid = None
    if job["pole_levels"]:
        grid = geometry.default_grid(manifold, job["K"], pole_levels=job["pole_levels"])
    basis = geometry.build_basis(manifold, job["K"], grid)
    matrix = operator_core.assemble(V, basis, check=job["check"])
    decomp = operator_core.diagonalize(matrix, basis)
    return matrix, decomp


def eigen_checks(matrix, decomp) -> list:
    """Residual max_i ||A v_i - mu_i v_i|| / ||A|| and ||V^T V - I||_max."""
    import numpy as np
    mu, vecs = decomp.eigenvalues, decomp.eigenvectors
    problems = []
    if not (np.all(np.isfinite(mu)) and np.all(np.diff(mu) >= 0)):
        problems.append("eigenvalues not finite and ascending")
        return problems
    scale = max(float(np.max(np.abs(mu))), 1e-300)
    resid = float(np.max(np.linalg.norm(matrix @ vecs - vecs * mu, axis=0))) / scale
    ortho = float(np.max(np.abs(vecs.T @ vecs - np.eye(vecs.shape[1]))))
    if not resid <= RESIDUAL_TOL:
        problems.append(f"eigen-residual {resid:.2e} > {RESIDUAL_TOL:g}")
    if not ortho <= ORTHO_TOL:
        problems.append(f"orthogonality defect {ortho:.2e} > {ORTHO_TOL:g}")
    return problems


def check_singular(job: dict, V, matrix, decomp) -> list:
    import numpy as np
    problems = eigen_checks(matrix, decomp)
    if job["potential"] == "truncated" and not problems:
        # |V| <= smooth_bound on the grid and the basis is orthonormal under
        # positive weights, so each Galerkin eigenvalue lies within the bound
        # of the free eigenvalue of the same rank (Weyl's inequality)
        free = np.sort(decomp.basis.freqs ** 2)
        gap = float(np.max(np.abs(decomp.eigenvalues - free)))
        if not gap <= V.smooth_bound:
            problems.append(f"eigenvalue moved {gap:.3e} from the free spectrum, "
                            f"beyond sup|V| = {V.smooth_bound:.3e}")
    return problems


# ---------------------------------------------------------------------------
# spectral-probes: one free decomposition, read by the probe battery


def spectral_probes(inp: dict, smoke: bool) -> list:
    """(id, callable(decomp) -> ExperimentReport) for the probe battery."""
    from qlab import dynamics, estimators
    off = inp["lam_offset"]
    if smoke:
        return [("weyl", lambda d: estimators.local_weyl_report(
            d, 0.0, [20.0 + off, 30.0 + off, 40.0 + off]))]
    lams = [20.0 + off, 40.0 + off, 80.0 + off, 160.0 + off, 320.0 + off]
    return [
        ("projector-inf", lambda d: estimators.projector_growth_report(d, math.inf, lams)),
        ("projector-6", lambda d: estimators.projector_growth_report(d, 6.0, lams)),
        ("heat", lambda d: dynamics.heat_report(
            d, (0.01, 0.016, 0.025, 0.04, 0.063, 0.1))),
        ("bochner-riesz", lambda d: dynamics.br_norm_probe(
            d, 1.0, [32.0 + off, 64.0 + off, 128.0 + off, 256.0 + off, 500.0 + off])),
        ("strichartz", lambda d: dynamics.strichartz_report(d, ks=(4, 8, 16, 32))),
        ("band-bound", lambda d: dynamics.band_bound_report(d, ks=(4, 8, 16, 32, 64))),
        ("square-function", lambda d: dynamics.norm_equivalence_probe(d)),
        ("weyl", lambda d: estimators.local_weyl_report(d, 0.0, lams)),
    ]


def spectral_K(smoke: bool) -> int:
    return 64 if smoke else 512


def solve_free(K: int):
    from qlab import geometry, operator_core
    basis = geometry.build_basis(geometry.ModelManifold("sphere-zonal", 2), K)
    matrix = operator_core.assemble(None, basis)
    return matrix, operator_core.diagonalize(matrix, basis)


def check_free(matrix, decomp) -> list:
    """Free zonal S^2 spectrum is k(k+1), k = 0..K, up to rounding."""
    import numpy as np
    k = np.arange(decomp.size, dtype=float)
    problems = eigen_checks(matrix, decomp)
    exact = k * (k + 1.0)
    err = float(np.max(np.abs(decomp.eigenvalues - exact))) / exact[-1]
    if not err <= FREE_TOL:
        problems.append(f"free spectrum off k(k+n-1) by {err:.2e} (relative) > {FREE_TOL:g}")
    return problems


def rows_digest(rows) -> str:
    text = "\n".join(",".join(repr(v) for v in row) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------


def library_versions() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS}}


def prepare(req: dict, inp: dict):
    """The workload's generated inputs, built before the worker reports
    ready: job specs with their potentials, or the probe battery."""
    if req["workload"] == "singular-solve":
        specs = singular_jobs(inp, req["smoke"])
        return [(job, prepare_singular(job)) for job in specs]
    if req["workload"] == "spectral-probes":
        return spectral_probes(inp, req["smoke"])
    return None  # cli-shipped starts workers only to record the environment


def error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def singular_pass(jobs: list, tracer, corrupt: bool) -> dict:
    outs = []
    t0 = time.perf_counter()
    for job, V in jobs:
        if tracer:
            tracer.job = job["id"]
        try:
            outs.append(run_singular(job, V))
        except Exception as exc:  # a failed job counts, the pass goes on
            outs.append(error_text(exc))
    wall = time.perf_counter() - t0
    results = []
    for (job, V), out in zip(jobs, outs):
        if isinstance(out, str):
            results.append({"id": job["id"], "problems": [out], "digest": None})
            continue
        matrix, decomp = out
        if corrupt:
            decomp.eigenvalues[0] += 1e-3 * float(abs(decomp.eigenvalues[-1]))
        results.append({"id": job["id"], "problems": check_singular(job, V, matrix, decomp),
                        "digest": hashlib.sha256(decomp.eigenvalues.tobytes()).hexdigest()})
    return {"wall_s": wall, "jobs": results}


def spectral_pass(probes: list, K: int, tracer, corrupt: bool) -> dict:
    reports = []
    t0 = time.perf_counter()
    if tracer:
        tracer.job = "solve"
    try:
        matrix, decomp = solve_free(K)
        error = None
    except Exception as exc:  # every probe then fails with it
        error = error_text(exc)
    for name, probe in probes:
        if tracer:
            tracer.job = name
        try:
            reports.append(probe(decomp) if error is None else error)
        except Exception as exc:
            reports.append(error_text(exc))
    wall = time.perf_counter() - t0
    if error is None:
        if corrupt:
            decomp.eigenvalues[1] += 1e-6 * float(decomp.eigenvalues[-1])
        problems = check_free(matrix, decomp)
    else:
        problems = [error]
    results = [{"id": "solve", "problems": problems, "digest": None}]
    for (name, _), rep in zip(probes, reports):
        if isinstance(rep, str):
            results.append({"id": name, "problems": [rep], "digest": None})
            continue
        verdict = rep.summary.get("verdict")
        problems = [] if verdict == "pass" else [f"verdict {verdict!r}, expected 'pass'"]
        results.append({"id": name, "problems": problems, "digest": rows_digest(rep.rows)})
    return {"wall_s": wall, "jobs": results}


def main(argv) -> int:
    req = json.loads(argv[1])
    t0 = time.perf_counter()
    import qlab
    import_s = time.perf_counter() - t0
    src = os.path.join(req["root"], "src")
    if not os.path.abspath(qlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"qlab imported from {qlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = prepare(req, seeded_inputs(req["seed"]))
    result = {"ready_at": monotonic(), "import_s": import_s}
    if req["mode"] == "env":
        result["env"] = library_versions()
    elif req["mode"] == "pass":
        tracer = None
        if req["trace"]:
            tracer = Tracer()
            tracer.install(qlab)
        if req["workload"] == "singular-solve":
            result.update(singular_pass(inputs, tracer, req["corrupt"]))
        else:
            result.update(spectral_pass(inputs, spectral_K(req["smoke"]), tracer,
                                        req["corrupt"]))
        if tracer:
            result["trace"] = tracer.dump()
    with open(req["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
