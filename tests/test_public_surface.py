"""Every public top-level function or class in ``src/qlab``, and every public
method of a public class, has a caller.

A name counts as used when ``src/qlab`` refers to it (as a name or an
attribute) outside its own definition, or when ``bench/`` refers to it.
Tests do not count: a function only its own tests call is dead surface.
Methods are matched by name, so a method counts as used when any attribute
of that name is read.
"""

import ast
import glob
import inspect
import os
from collections import Counter

ROOT = os.path.join(os.path.dirname(__file__), "..")

# public names kept without a caller in src/qlab or bench/, one reason each
ALLOWED = {
    "multiplier": "the one apply path for m(sqrt(H_V)), which ROADMAP item 13's "
                  "multiplier runs apply; the benchmark tracer names it",
    "br_delta": "critical Bochner-Riesz index, the competitor exponent of ROADMAP "
                "item 7's Bochner-Riesz verdicts",
    "flat_ball_kato_oracle": "closed-form test oracle for the Kato ball integral",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree: ast.AST):
    """(qualified name, node) of each public top-level function or class and
    of each public method of a public top-level class."""
    for stmt in tree.body:
        if isinstance(stmt, _FUNCS + (ast.ClassDef,)) and not stmt.name.startswith("_"):
            yield stmt.name, stmt
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, _FUNCS) and not item.name.startswith("_"):
                        yield f"{stmt.name}.{item.name}", item


def _references(node: ast.AST) -> Counter:
    """How often each name is referenced (as a name or an attribute) in ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_public_definition_has_a_caller():
    defined = {}
    used = Counter()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qlab", "*.py"))):
        tree = ast.parse(open(path).read(), filename=path)
        used += _references(tree)
        for qualname, node in _definitions(tree):
            defined[qualname] = (os.path.basename(path), node)
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        used += _references(ast.parse(open(path).read()))
    unused = sorted(
        f"{module}:{qualname}" for qualname, (module, node) in defined.items()
        if qualname not in ALLOWED
        and used[qualname.rpartition(".")[2]] <= _references(node)[node.name])
    assert not unused, f"public definitions nothing calls: {unused}"
    assert set(ALLOWED) <= set(defined), sorted(set(ALLOWED) - set(defined))


def test_every_slope_verdict_comes_from_slope_report():
    """One slope rule: no ``slope_verdict`` is defined or referenced in
    ``src/qlab`` or ``bench/``, and the only function that calls
    ``fit_exponent`` is ``slope_report``."""
    callers = set()
    paths = glob.glob(os.path.join(ROOT, "src", "qlab", "*.py")) \
        + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    for path in sorted(paths):
        tree = ast.parse(open(path).read(), filename=path)
        assert _references(tree)["slope_verdict"] == 0, path
        for func in ast.walk(tree):
            if not isinstance(func, _FUNCS):
                continue
            assert func.name != "slope_verdict", path
            for sub in ast.walk(func):
                if isinstance(sub, ast.Call) and "fit_exponent" in _references(sub.func):
                    callers.add(func.name)
    assert callers == {"slope_report"}


# the retired split paths and the helpers that re-derived the axes of a
# full-S^2 product grid, which now keeps them (``QuadratureGrid.shape``)
_RETIRED = ("_sign_split", "_parity_blocks", "_refined_matrix", "_order_tables",
            "_by_order", "_distinct", "_distinct_bits", "_EVAL_ROWS", "_eval_modes")


def test_one_sign_split_for_the_potential_block():
    """One path for S+^T S+ - S-^T S-: none of ``_RETIRED`` is defined or
    referenced in ``src/qlab`` or ``bench/``, and the only function that
    calls ``_split_gram`` is ``_rule_matrix``, which sums V on any rule
    (``assemble``'s rule, or the refined rule of its check)."""
    callers = set()
    paths = glob.glob(os.path.join(ROOT, "src", "qlab", "*.py")) \
        + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    for path in sorted(paths):
        tree = ast.parse(open(path).read(), filename=path)
        refs = _references(tree)
        assert not any(refs[name] for name in _RETIRED), path
        for func in ast.walk(tree):
            if not isinstance(func, _FUNCS):
                continue
            assert func.name not in _RETIRED, path
            for sub in ast.walk(func):
                if isinstance(sub, ast.Call) and "_split_gram" in _references(sub.func):
                    callers.add(func.name)
    assert callers == {"_rule_matrix"}


def _source_functions():
    """Every function (and method) defined in ``src/qlab`` or ``bench/``."""
    paths = glob.glob(os.path.join(ROOT, "src", "qlab", "*.py")) \
        + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    for path in sorted(paths):
        tree = ast.parse(open(path).read(), filename=path)
        yield from (func for func in ast.walk(tree) if isinstance(func, _FUNCS))


def test_operator_core_defines_no_potential_matrix():
    """V becomes a block through ``assemble`` alone: no public
    ``potential_matrix`` (with a ``grid`` knob of its own) remains."""
    from qlab import operator_core
    assert not hasattr(operator_core, "potential_matrix")


def test_assemble_alone_picks_the_route_of_the_potential():
    """The route of V (the cosine moments on the zonal S^3, a rule sum
    elsewhere) is decided once: ``assemble`` is the only function that
    calls ``_moment_matrix`` or ``_rule_matrix``."""
    callers = {"_moment_matrix": set(), "_rule_matrix": set()}
    for func in _source_functions():
        for sub in ast.walk(func):
            if isinstance(sub, ast.Call):
                for name in callers:
                    if _references(sub.func)[name]:
                        callers[name].add(func.name)
    assert callers == {"_moment_matrix": {"assemble"}, "_rule_matrix": {"assemble"}}


def test_one_refinement_gate():
    """Both refinement checks of the potential block go through one gate:
    exactly one function raises "potential assembly not converged"."""
    raisers = set()
    for func in _source_functions():
        for sub in ast.walk(func):
            if isinstance(sub, ast.Raise) and any(
                    isinstance(c, ast.Constant) and isinstance(c.value, str)
                    and "potential assembly not converged" in c.value for c in ast.walk(sub)):
                raisers.add(func.name)
    assert raisers == {"assemble"}


# the names a plan would read to re-derive the grid of a solve and its check
_SOLVE_GRID_NAMES = ("SINGULAR_POLE_LEVELS", "_refined_grid", "hemisphere",
                     "_weight_drop", "_checked_nodes")


def test_plans_read_the_solve_grid_from_operator_core():
    """One statement of the grid a solve builds and of the refined rule its
    check reads (``operator_core._solve_rules``, which builds them):
    ``cli.py`` calls it and references none of ``_SOLVE_GRID_NAMES``."""
    path = os.path.join(ROOT, "src", "qlab", "cli.py")
    refs = _references(ast.parse(open(path).read(), filename=path))
    assert not [name for name in _SOLVE_GRID_NAMES if refs[name]]
    assert refs["_solve_rules"]


# the plan helpers that counted the rules of a solve without building them
_RETIRED_COUNTS = ("_rule_sizes", "_solve_grid")


def test_no_plan_counts_a_rule_it_does_not_build():
    """A plan reads the node counts of a solve off the grid and rules it
    builds: none of ``_RETIRED_COUNTS`` is defined or referenced in
    ``src/qlab`` or ``bench/``."""
    paths = glob.glob(os.path.join(ROOT, "src", "qlab", "*.py")) \
        + glob.glob(os.path.join(ROOT, "bench", "*.py"))
    for path in sorted(paths):
        tree = ast.parse(open(path).read(), filename=path)
        refs = _references(tree)
        assert not [name for name in _RETIRED_COUNTS if refs[name]], path
        assert not [func.name for func in ast.walk(tree)
                    if isinstance(func, _FUNCS) and func.name in _RETIRED_COUNTS], path


def test_one_statement_of_the_pole_capped_rule():
    """The cap depth of the rule a singular V is summed on is stated once:
    ``SINGULAR_POLE_LEVELS`` is named in one function of ``src/qlab``
    (``operator_core._zonal_rule``), and ``src/qlab`` reads no
    ``pole_levels`` attribute of a grid, so no rule is re-derived from a
    grid's cap depth."""
    naming = []
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qlab", "*.py"))):
        tree = ast.parse(open(path).read(), filename=path)
        assert not [sub for sub in ast.walk(tree)
                    if isinstance(sub, ast.Attribute) and sub.attr == "pole_levels"], path
        naming += [func.name for func in ast.walk(tree) if isinstance(func, _FUNCS)
                   and _references(func)["SINGULAR_POLE_LEVELS"]]
    assert naming == ["_zonal_rule"]


def test_gauss_gegenbauer_stays_a_plain_function():
    """The benchmark tracer wraps the plain functions of each layer
    (``inspect.isfunction``), and counts Newton passes at
    ``geometry.gauss_gegenbauer``; a cache belongs on the private
    ``geometry._gauss_rule``, which calls it, not on the public rule."""
    from qlab import geometry
    assert inspect.isfunction(geometry.gauss_gegenbauer)
    assert geometry.gauss_gegenbauer.__module__ == geometry.__name__


def test_only_operator_core_reads_eigenvectors():
    """A free decomposition holds no eigenvector matrix and builds the
    identity on each read of ``eigenvectors``, so every product with
    the eigenvectors goes through a ``SpectralDecomposition`` method: no
    module of ``src/qlab`` but ``operator_core`` reads an ``eigenvectors``
    attribute.  The methods the benchmark tracer wraps by name stay plain
    methods."""
    from qlab import operator_core
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qlab", "*.py"))):
        if os.path.basename(path) == "operator_core.py":
            continue
        tree = ast.parse(open(path).read(), filename=path)
        assert not [sub for sub in ast.walk(tree)
                    if isinstance(sub, ast.Attribute) and sub.attr == "eigenvectors"], path
    for name in ("node_values", "project", "synthesize"):
        assert inspect.isfunction(getattr(operator_core.SpectralDecomposition, name)), name
