"""Every size check of a plan in qlab.cli charges the working set of its run:
the tracemalloc peak of the run stays within 1.25x of the bytes the plan
passed to ``cli._check_bytes``, and above half of them.  The checked assembly
of a singular V holds no copy of the basis rows it evaluates."""

import ast
import inspect
import sys
import tracemalloc

import numpy as np
import pytest

from qlab import cli, geometry, operator_core, potentials

# caller of cli._check_bytes -> the configs its rows plan; a _decomposition
# row runs the free solve and its node values, every other row the plan's run
_ROWS = {
    "_plan_divergent_quasimode": [("divergent-quasimode", {"k_max": "14"}),
                                  ("divergent-quasimode", {"k_max": "17"})],
    "_plan_wave_speed": [("wave-speed", {"Ks": "64"}), ("wave-speed", {"Ks": "128"}),
                         ("wave-speed", {"Ks": "256"}),
                         ("wave-speed", {"Ks": "64,128,256", "potential": "counterexample"})],
    "_decomposition": [("spectrum", {"K": "512"}),
                       ("spectrum", {"manifold": "sphere-full-2d", "K": "24"}),
                       ("spectrum", {"manifold": "torus", "K": "16"}),
                       ("spectrum", {"manifold": "torus", "n": "3", "K": "5"}),
                       # checked V != 0 solves: pole caps, the fold and the full S^2,
                       # which sums on the zonal S^2 rule; on S^3 the check reads
                       # cosine moments and builds no table
                       ("spectrum", {"n": "3", "K": "256", "potential": "counterexample"}),
                       ("spectrum", {"n": "3", "K": "512", "potential": "counterexample"}),
                       ("spectrum", {"n": "4", "K": "256", "potential": "counterexample"}),
                       ("spectrum", {"K": "256", "potential": "sin(phi)"}),
                       ("spectrum", {"n": "3", "K": "256",
                                     "potential": "truncated-counterexample"}),
                       ("spectrum", {"manifold": "sphere-full-2d", "K": "24",
                                     "potential": "constant:1"}),
                       ("spectrum", {"manifold": "sphere-full-2d", "K": "24",
                                     "potential": "truncated-counterexample"}),
                       ("spectrum", {"manifold": "sphere-full-2d", "K": "24",
                                     "potential": "counterexample"})],
    "_plan_resolvent_probe": [("resolvent-probe", {})],
    "_plan_counterexample": [("counterexample", {}),
                             ("counterexample", {"K": "16384"})],
}


def test_every_size_check_has_a_row():
    """A plan that charges bytes without a row here would go unmeasured; a
    call in a nested function counts for the module function around it."""
    callers = {node.name for node in ast.parse(inspect.getsource(cli)).body
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                       and call.func.id == "_check_bytes" for call in ast.walk(node))}
    assert callers == set(_ROWS)


def _row_id(value):
    if isinstance(value, dict):
        return ",".join(f"{k}={x}" for k, x in value.items()) or "defaults"
    return value


@pytest.mark.parametrize("caller, experiment, raw",
                         [(caller, *row) for caller, rows in _ROWS.items() for row in rows],
                         ids=_row_id)
def test_peak_within_the_charge(caller, experiment, raw, monkeypatch):
    charged = []
    check = cli._check_bytes

    def record(size, *args, **kw):
        charged.append(size)
        check(size, *args, **kw)

    monkeypatch.setattr(cli, "_check_bytes", record)
    cfg = cli.build_config(experiment, raw)
    if caller == "_decomposition":
        solve, _ = cli._decomposition(cfg)

        def run():
            solve().node_values()
    else:
        run = cli.RUNNERS[experiment](cfg)
    assert charged
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 * max(charged) <= peak <= 1.25 * max(charged), peak / max(charged)


def test_checked_assembly_copies_no_basis_row():
    """The checked assembly of the critical V at n = 4 at K = 256, on the
    default Gauss basis, peaks, basis build included, within the basis, one
    table of the basis at the fold of the refined rule and 3 J x J matrices
    (5.76 MB against a bound of 6.31 MB): ``basis.evaluate`` divides its
    table by the norms in place, and ``_split_gram`` scales it in place
    (an evaluate that divides a copy peaked at 9.07 MB).  S^3 reads the
    cosine moments of V and builds no table, so the node path runs at n = 4."""
    manifold = geometry.ModelManifold(geometry.SPHERE_ZONAL, 4)
    V = potentials.counterexample(4)
    rule = operator_core._zonal_rule(V, 4, 256)
    fine = geometry.hemisphere(operator_core._zonal_rule(V, 4, 256, refine=rule)).size
    tracemalloc.start()
    try:
        basis = geometry.build_basis(manifold, 256)
        operator_core.assemble(V, basis, check=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    J = basis.size
    assert peak <= basis.values.nbytes + 8 * J * fine + 3 * 8 * J * J


def _counts(E):
    """Reference counts of rows E and of the array E views (None if it owns
    its data), as seen from a function that was handed E."""
    base = E.base
    return sys.getrefcount(E), None if base is None else sys.getrefcount(base)


def test_split_gram_takes_its_rows_as_temporaries(monkeypatch):
    """``_split_gram`` frees its rows (``del E``) before it allocates the
    J x J matrix, which frees them only if no caller holds a reference to
    them or to the array they view: every call sees the reference counts of
    a fresh temporary passed the same way, a new array or a view of one.
    Covered: the zonal calls on the rule and on its refined copy (the
    transposed tables of ``basis.evaluate``) and every order on the full
    S^2."""
    split = operator_core._split_gram
    seen = []

    def record(E, wv, npos, nneg, parity):
        seen.append((E.base is not None, _counts(E)))
        return split(E, wv, npos, nneg, parity)

    def probe(E, wv, npos, nneg, parity):
        return _counts(E)

    fresh = {False: probe(np.ones((3, 2)), None, 0, 0, False),
             True: probe(np.ones((2, 3)).T, None, 0, 0, False)}
    monkeypatch.setattr(operator_core, "_split_gram", record)
    zonal = geometry.ModelManifold(geometry.SPHERE_ZONAL, 4)
    full = geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2)
    for basis, V in ((geometry.build_basis(zonal, 32), potentials.counterexample(4)),
                     (geometry.build_basis(zonal, 32),
                      potentials.from_expression("sin(phi)-0.5")),
                     (geometry.build_basis(full, 8),
                      potentials.Potential(fn=lambda phi: np.cos(phi) ** 2 - 0.3, even=True)),
                     (geometry.build_basis(full, 8), potentials.from_expression("cos(phi)"))):
        seen.clear()
        operator_core.assemble(V, basis, check=True)
        assert len(seen) == (2 if basis.manifold == zonal else 2 * (basis.K + 1))
        assert [counts for _, counts in seen] == [fresh[view] for view, _ in seen]
