"""Every public top-level function or class in ``src/qlab`` has a caller.

A name counts as used when ``src/qlab`` refers to it (as a name or an
attribute) outside its own definition, or when ``bench/`` refers to it.
Tests do not count: a function only its own tests call is dead surface.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")

# public names kept without a caller in src/qlab or bench/, one reason each
ALLOWED = {
    "multiplier": "the one apply path for m(sqrt(H_V)); the benchmark tracer names it",
    "br_delta": "critical Bochner-Riesz index, the exponent algebra beside sigma and p_c",
    "small_r_slope": "parametrix small-r kernel slope, read by acceptance criterion 8",
    "lambda_slope": "parametrix frequency slope, read by acceptance criterion 8",
    "remainder_scale_check": "parametrix remainder-norm slope, one of the parametrix checks",
    "flat_ball_kato_oracle": "closed-form oracle for the Kato ball integral",
}


def _references(tree: ast.AST):
    """(enclosing top-level definition or None, referenced name) pairs."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr


def test_every_public_definition_has_a_caller():
    defined = {}
    used = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "qlab", "*.py"))):
        tree = ast.parse(open(path).read(), filename=path)
        for stmt in tree.body:
            if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = os.path.basename(path)
        used |= {name for owner, name in _references(tree) if owner != name}
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        used |= {name for _, name in _references(ast.parse(open(path).read()))}
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, f"public definitions nothing calls: {unused}"
    assert set(ALLOWED) <= set(defined), sorted(set(ALLOWED) - set(defined))
