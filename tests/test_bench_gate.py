"""The benchmark's correctness gate, run in process: one singular-solve pass
and one spectral-probes pass of ``bench/worker.py`` report no problem on any
job.  A change to the calls the benchmark makes into qlab then fails here."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def worker():
    """``bench/worker.py`` and the modules it imports by their bare names
    (``run``, ``tracing``), removed again afterwards."""
    sys.path.insert(0, BENCH)
    try:
        import worker as module
        yield module
    finally:
        sys.path.remove(BENCH)
        for name in ("worker", "run", "tracing"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [1, 7])
def test_benchmark_passes_have_no_problems(worker, seed):
    inputs = worker.seeded_inputs(seed)
    singular = worker.singular_pass(
        worker.prepare({"workload": "singular-solve", "smoke": False}, inputs), None, False)
    spectral = worker.spectral_pass(
        worker.prepare({"workload": "spectral-probes", "smoke": False}, inputs),
        worker.spectral_K(False), None, False)
    jobs = singular["jobs"] + spectral["jobs"]
    assert len(jobs) == 6 + 9
    assert {job["id"]: job["problems"] for job in jobs} == {job["id"]: [] for job in jobs}
