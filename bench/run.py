"""qlab benchmark runner.

    python3 bench/run.py --workload singular-solve|spectral-probes|cli-shipped|all
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--corrupt]

Runs from the root of a qlab source checkout and measures the package in
``src/``.  Each workload runs closed loop, one job at a time, with every
numerical process pinned to one BLAS thread.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("singular-solve", "spectral-probes", "cli-shipped")
DEFAULT_SEED = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 8    # dedicated set-up processes per run, besides the pass workers
MIN_PASSES = 2       # the determinism check compares two passes
RUN_BUDGET_S = 170   # every child is killed past this point of a run
NOT_IN_KATO = "not-in-Kato"
# free spectra must equal k(k+n-1) up to rounding, relative to the largest
# eigenvalue: the assembled diagonal is sqrt(k(k+n-1))**2, which misses
# k(k+n-1) by an ulp for some k, and a backward-stable solver stays near 1e-15
FREE_TOL = 1e-12


def seeded_inputs(seed: int) -> dict:
    """Everything the seed varies: the config ``seed`` keys of the shipped
    configs, the taper phi0 of the truncated counterexample, and the
    frequency offset added to every probe's lambda grid."""
    rng = random.Random(seed)
    return {"config_seed": rng.randrange(1, 2 ** 31),
            "phi0": 0.25 + 0.1 * rng.random(),
            "lam_offset": 0.5 * rng.random()}


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values):
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run: its scratch directory, the environment of its
    children and its time budget."""

    def __init__(self, args):
        self.args = args
        self.started = monotonic()
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
        env = dict(os.environ)
        env.update({v: "1" for v in THREAD_VARS})
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # the CLI's version lookup runs `git describe`; keep it inside the checkout
        env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
        self.env = env
        self.counter = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (monotonic() - self.started)

    def path(self, name: str) -> str:
        self.counter += 1
        return os.path.join(self.work, f"{self.counter:04d}-{name}")

    def spawn(self, cmd):
        """Run one child to completion; returns (returncode, spawn time,
        exit time, stderr tail).  A child still running at the end of the
        run budget is killed and waited for; its returncode is None."""
        t0 = monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None, t0, monotonic(), "timed out"
        return proc.returncode, t0, monotonic(), proc.stderr[-2000:]

    def worker(self, mode: str, trace: bool = False) -> dict:
        result = self.path(f"{mode}.json")
        req = {"workload": self.args.workload, "seed": self.args.seed, "mode": mode,
               "trace": trace, "smoke": self.args.smoke, "corrupt": self.args.corrupt,
               "root": ROOT, "result": result}
        rc, t0, t1, err = self.spawn([sys.executable, os.path.join(HERE, "worker.py"),
                                      json.dumps(req)])
        if rc != 0:
            raise RuntimeError(f"worker ({mode}) exited with {rc}: {err.strip()}")
        with open(result) as fh:
            out = json.load(fh)
        out["setup_s"] = out["ready_at"] - t0
        out["process_s"] = t1 - t0
        return out

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it


# ---------------------------------------------------------------------------
# workloads run in fresh worker processes, one per pass


def keep_going(run: Run, t_start: float, passes: list, last_s: float) -> bool:
    """Start another pass while it fits into --seconds (and the run budget)."""
    if run.remaining() < 1.5 * last_s + 5.0:
        return False
    if len(passes) < MIN_PASSES:
        return True
    return monotonic() - t_start + last_s <= run.args.seconds


def run_worker_workload(run: Run) -> dict:
    setups = [run.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    env = run.worker("env")["env"]
    passes, traced = [], []
    t_start = monotonic()
    while True:
        trace = bool(run.args.trace) and len(passes + traced) % 2 == 1
        out = run.worker("pass", trace=trace)
        setups.append(out["setup_s"])
        (traced if trace else passes).append(out)
        if not keep_going(run, t_start, passes + traced, out["process_s"]):
            break
    # the same job must give the same bytes in every pass of the run
    first = {job["id"]: job["digest"] for job in passes[0]["jobs"]}
    attempted = failed = 0
    problems = []
    for out in passes + traced:
        for job in out["jobs"]:
            attempted += 1
            probs = list(job["problems"])
            if job["digest"] != first.get(job["id"]):
                probs.append("result differs from the first pass of this run")
            if probs:
                failed += 1
                problems.append(f"{job['id']}: {'; '.join(probs)}")
    res = {"walls": [p["wall_s"] for p in passes], "setups": setups,
           "attempted": attempted, "failed": failed, "problems": problems, "env": env}
    if traced:
        sums = {}
        for t in traced:
            add_scaled(sums, t["trace"], 1.0 / len(traced))
        res["layers"] = tracing.layer_metrics(
            sums, median([t["import_s"] for t in traced]), 0.0)
        res["traced_walls"] = [t["wall_s"] for t in traced]
    return res


def add_scaled(total: dict, trace: dict, scale: float) -> None:
    """Add one traced process's layer sums, times scale, into total."""
    for key, value in tracing.process_sums(trace).items():
        total[key] = total.get(key, 0) + value * scale


# ---------------------------------------------------------------------------
# cli-shipped: every shipped config through a fresh CLI process


def shipped_configs(smoke: bool) -> list:
    configs = sorted(glob.glob(os.path.join(ROOT, "configs", "*.ini")))
    if smoke:
        configs = [c for c in configs if c.endswith(os.sep + "spectrum.ini")]
    return configs


def check_cli_outputs(exp: str, out_dir: str, corrupt: bool) -> tuple:
    """Verdict oracles on one CLI run; returns (problems, csv bytes)."""
    problems = []
    with open(os.path.join(out_dir, f"{exp}.csv"), "rb") as fh:
        csv_bytes = fh.read()
    with open(os.path.join(out_dir, f"{exp}.json")) as fh:
        summary = json.load(fh)["summary"]
    if corrupt:
        csv_bytes = csv_bytes.replace(b"2.0", b"2.5", 1)
    verdict = summary.get("verdict")
    if verdict not in ("pass", "ok"):
        problems.append(f"verdict {verdict!r}")
    if exp == "kato" and summary.get("classification") != NOT_IN_KATO:
        problems.append(f"kato classification {summary.get('classification')!r}")
    if exp == "counterexample" and summary.get("kato_classification") != NOT_IN_KATO:
        problems.append(f"kato classification {summary.get('kato_classification')!r}")
    if exp == "spectrum":
        # V = 0 on the zonal S^2: eigenvalue k(k+1) up to rounding
        rows = [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]
        exact = [k * (k + 1.0) for k in range(len(rows))]
        err = max(abs(float(mu) - e) for (_, mu, _), e in zip(rows, exact)) / exact[-1]
        if not err <= FREE_TOL:
            problems.append(f"free spectrum off k(k+1) by {err:.2e} (relative)")
    return problems, csv_bytes


def run_cli_workload(run: Run) -> dict:
    cfg_seed = str(seeded_inputs(run.args.seed)["config_seed"])
    list_cmd = [sys.executable, "-m", "qlab.cli", "list"]
    setups = []
    for _ in range(SETUP_SAMPLES):
        rc, t0, t1, err = run.spawn(list_cmd)
        if rc != 0:
            raise RuntimeError(f"`qlab list` exited with {rc}: {err.strip()}")
        setups.append(t1 - t0)
    env = run.worker("env")["env"]
    configs = shipped_configs(run.args.smoke)
    passes, traced = [], []
    first_csv = {}
    attempted = failed = 0
    problems = []
    t_start = monotonic()
    while True:
        trace = bool(run.args.trace) and len(passes + traced) % 2 == 1
        out_dir = run.path("out")
        os.makedirs(out_dir)
        wall = 0.0
        procs = []
        for cfg in configs:
            exp = os.path.basename(cfg)[:-len(".ini")]
            args = [exp, "--config", cfg, "--jobs", "1", "--out", out_dir,
                    "--seed", cfg_seed]
            trace_file = run.path(f"{exp}.trace.json")
            cmd = ([sys.executable, os.path.join(HERE, "traced_cli.py"), trace_file] + args
                   if trace else [sys.executable, "-m", "qlab.cli"] + args)
            rc, t0, t1, err = run.spawn(cmd)
            wall += t1 - t0
            attempted += 1
            probs = []
            if rc != 0:
                probs.append(f"exit code {rc}: {err.strip()[-300:]}")
            else:
                probs, csv_bytes = check_cli_outputs(exp, out_dir, run.args.corrupt)
                if first_csv.setdefault(exp, csv_bytes) != csv_bytes:
                    probs.append("CSV differs from the first pass of this run")
            if probs:
                failed += 1
                problems.append(f"{exp}: {'; '.join(probs)}")
            if trace and rc is not None and os.path.exists(trace_file):
                with open(trace_file) as fh:
                    procs.append((json.load(fh), t1 - t0))
        (traced if trace else passes).append({"wall_s": wall, "procs": procs})
        if not keep_going(run, t_start, passes + traced, wall):
            break
    res = {"walls": [p["wall_s"] for p in passes], "setups": setups,
           "attempted": attempted, "failed": failed, "problems": problems, "env": env}
    if traced:
        sums, startup, imports = {}, 0.0, []
        scale = 1.0 / len(traced)
        for t in traced:
            for trace, process_s in t["procs"]:
                add_scaled(sums, trace, scale)
                main_s = tracing.covered(trace["spans"], ("cli.main",))
                startup += (process_s - main_s) * scale
                imports.append(trace["import_s"])
        res["layers"] = tracing.layer_metrics(sums, median(imports), startup)
        res["traced_walls"] = [t["wall_s"] for t in traced]
    return res


# ---------------------------------------------------------------------------
# reporting


def environment(worker_env: dict) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qlab", "*.py"))):
        with open(path, "rb") as fh:
            src.update(fh.read())
    return {"nproc": os.cpu_count(), "cpu_model": model, **worker_env,
            "git_revision": git_revision(), "source_sha256": src.hexdigest()[:16]}


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "none (not a git checkout)"


def run_one(args) -> dict:
    run = Run(args)
    try:
        if args.workload == "cli-shipped":
            res = run_cli_workload(run)
        else:
            res = run_worker_workload(run)
    finally:
        run.close()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return res


def end_to_end(res: dict) -> dict:
    return {"wall_s": {"value": median(res["walls"]), "unit": "s"},
            "setup_s": {"value": median(res["setups"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"}}


def per_layer(res: dict) -> dict:
    values = dict(res["layers"])
    untraced, traced = median(res["walls"]), median(res["traced_walls"])
    values["bench.wall_s_untraced"] = untraced
    values["bench.wall_s_traced"] = traced
    values["bench.trace_overhead_s"] = traced - untraced
    return {name: {"value": values[name], "unit": unit}
            for name, unit in tracing.PER_LAYER.items()}


def summary_line(workload: str, res: dict) -> str:
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    return (f"{workload}: wall_s={median(res['walls']):.4f} s (median of "
            f"{len(res['walls'])} passes)  setup_s={median(res['setups']):.4f} s "
            f"(median of {len(res['setups'])})  peak_rss_mb={res['peak_rss_mb']:.1f} MB  "
            f"failed_ratio={ratio:.4f} ({res['failed']}/{res['attempted']} jobs)\n"
            f"  passes_s={[round(w, 3) for w in res['walls']]}"
            f"  traced_passes_s={[round(w, 3) for w in res.get('traced_walls', [])]}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0,
                   help="measuring time per workload (at least two passes run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one small job per workload, for testing the benchmark")
    p.add_argument("--corrupt", action="store_true",
                   help="corrupt each result before it is checked (tests the gate)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qlab", "__init__.py")):
        print(f"error: no qlab sources under {os.path.join(ROOT, 'src')}; run the "
              "benchmark from a qlab checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])
    try:
        res = run_one(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    print(summary_line(args.workload, res))
    for line in res["problems"][:20]:
        print(f"  FAILED {line}")
    print("env " + json.dumps(environment(res["env"]), sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0 and res["attempted"] > 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": per_layer(res) if args.trace else end_to_end(res)}))
    return 0


def run_all(argv) -> int:
    """Every workload in its own run.py process, so that peak RSS is per
    workload; prints their reports and one combined result line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), *argv, "--workload", name]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_BUDGET_S + 10)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
