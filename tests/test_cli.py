import ast
import glob
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlab import cli

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
DOCS = os.path.join(os.path.dirname(__file__), "..", "docs", "configuration.md")


def run_cli(args, capsys=None):
    return cli.main(args)


def test_list_contains_all_experiments(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("strichartz", "kato", "parametrix", "wave-speed"):
        assert name in out


def test_unknown_experiment_lists_valid_names(capsys):
    assert cli.main(["no-such-thing"]) == 1
    err = capsys.readouterr().err
    assert "strichartz" in err and "unknown experiment" in err


def test_unknown_key_rejected(capsys):
    assert cli.main(["spectrum", "--frobnicate", "3"]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_spectrum_run_exact_eigenvalues(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--n", "2", "--K", "8"])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    ks = rows[:, 0]
    assert np.allclose(rows[:, 1], ks * (ks + 1), atol=1e-10)
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["config"]["K"] == 8
    assert "version" in payload and "runtime_seconds" in payload


def test_validate_shipped_configs(capsys):
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.ini")))
    assert len(configs) == 15
    for path in configs:
        rc = cli.main(["validate", "--config", path])
        out = capsys.readouterr()
        assert rc == 0, f"{path}: {out.out or out.err}"
        assert out.out.strip() == "ok"


def test_validate_truncation_too_small(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nexperiment = projector-norms\nK = 0\n")
    rc = cli.main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "truncation too small" in out


# (experiment, config line, expected diagnostic): values the run would reject
_BAD_VALUES = [
    ("wave-speed", "cutoff = abc", "unknown key 'cutoff' for experiment 'wave-speed'"),
    ("heat", "tol = 10", "unknown key 'tol' for experiment 'heat'"),
    ("weyl", "band_lo = 0.5", "unknown key 'band_lo' for experiment 'weyl'"),
    ("bochner-riesz", "min_growth = 0.1",
     "unknown key 'min_growth' for experiment 'bochner-riesz'"),
    ("resolvent-probe", "grid_size = 40",
     "unknown key 'grid_size' for experiment 'resolvent-probe'"),
    ("bochner-riesz", "manifold = torus", "bochner-riesz evaluates zonal modes at a polar "
     "angle, so it runs on sphere-zonal only"),
    ("bochner-riesz", "manifold = sphere-full-2d", "runs on sphere-zonal only"),
    ("weyl", "manifold = torus", "weyl evaluates zonal modes at a polar angle, "
     "so it runs on sphere-zonal only"),
    ("weyl", "manifold = sphere-full-2d", "runs on sphere-zonal only"),
    ("strichartz", "battery = nonsense",
     "key 'battery': cannot parse value 'nonsense'; choose from zonal-ladder, band-bound"),
    ("multiplier", "symbol = nonsense",
     "key 'symbol': cannot parse value 'nonsense'; choose from one, imaginary-power, bump"),
    ("square-function", "preset = nonsense",
     "key 'preset': cannot parse value 'nonsense'; choose from zonal-ladder, "
     "point-concentrated, random-band"),
    ("resolvent-probe", "p = 1.5", "unknown key 'p' for experiment 'resolvent-probe'"),
    ("resolvent-probe", "n = 2", "dimension must be >= 3 for the uniform resolvent pair"),
    ("spectrum", "potential = foo(phi", "key 'potential': invalid expression 'foo(phi'"),
    ("spectrum", "potential = bogus(phi)", "key 'potential': disallowed construct"),
    ("spectrum", "potential = constant:abc",
     "key 'potential': 'abc' in 'constant:abc' is not a number"),
    ("spectrum", "manifold = torus\npotential = counterexample",
     "key 'potential': zonal potentials are not defined on the torus"),
    ("spectrum", "manifold = sphere-full-2d\nn = 3",
     "key 'manifold': sphere-full-2d requires n = 2"),
    ("projector-norms", "p = 1", "p must lie in [2, inf] for projector norms"),
    ("projector-norms", "n = 3\np = 3.5",
     "zonal functions cannot reach the p < p_c regime of sigma(p)"),
    ("strichartz", "K = 12", "truncation frequency 12.5 (K=12) below battery rung k=16"),
    ("strichartz", "manifold = torus\nK = 20", "truncation frequency 20.0 (K=20) below "
     "battery rung k=32"),
    ("heat", "manifold = torus\nK = 64", "the dense torus basis at K=64 (16900 nodes per "
     "mode) needs 1.62 GiB, above the 1 GiB limit"),
    ("spectrum", "manifold = torus\nn = 3\nK = 1000", "needs at least 59.8 GiB"),
]


def test_validate_rejects_unparseable_optional_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    for experiment, line, expected in _BAD_VALUES:
        cfg.write_text(f"[experiment]\nexperiment = {experiment}\n{line}\n")
        rc = cli.main(["validate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 1, experiment
        assert expected in out, out


def test_validate_size_limits_pass_at_the_edge():
    """A torus basis of 112 MB and a zonal ladder whose top rung fits pass;
    the band-bound battery has no rung check."""
    def diagnostics(experiment, **raw):
        return cli.validate(experiment, cli.build_config(experiment, raw))

    assert diagnostics("heat", manifold="torus", K="32") == []
    assert diagnostics("strichartz", K="33") == []  # sqrt(33 * 34) = 33.5 >= 32.75
    assert diagnostics("strichartz", K="32") != []  # sqrt(32 * 33) = 32.5
    assert diagnostics("strichartz", manifold="torus", K="33") == []
    assert diagnostics("strichartz", manifold="torus", K="32") != []
    assert diagnostics("strichartz", K="12", battery="band-bound") == []
    assert cli._lattice_points(2, 64 * 64) == 12853
    assert cli._lattice_points(3, 2) == 19


def test_validate_projector_norms_zonal_p_range():
    """On the zonal sphere only 2 < p < p_c is rejected; p = 2, p = p_c and
    any p on the full S^2 pass."""
    def diagnostics(**raw):
        return cli.validate("projector-norms", cli.build_config("projector-norms", raw))

    for n, p in (("2", "2"), ("2", "6"), ("3", "4"), ("3", "inf")):
        assert diagnostics(n=n, p=p) == []
    assert diagnostics(manifold="sphere-full-2d", p="4") == []
    assert len(diagnostics(n="2", p="5.9")) == 1


_INTS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
_FLOATS = st.floats(allow_nan=False)
# parser -> (strategy of typed values, their config text)
_TYPED = {
    cli._to_int: (_INTS, repr),
    cli._to_float: (_FLOATS, repr),
    cli._to_floats: (st.lists(_FLOATS, max_size=4).map(tuple),
                     lambda v: ", ".join(map(repr, v))),
    cli._to_ints: (st.lists(_INTS, max_size=4).map(tuple),
                   lambda v: ",".join(map(repr, v))),
    cli._to_shift: (st.one_of(st.just("auto"), _INTS), str),
    cli._to_str: (st.text(min_size=1).map(str.strip), lambda v: f" {v} "),
}


def _typed_key(parser):
    """(strategy, formatter) for one schema key."""
    if hasattr(parser, "choices"):
        return st.sampled_from(parser.choices), str
    return _TYPED[parser]


@pytest.mark.parametrize("experiment", sorted(cli.SCHEMAS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_build_config_typed_round_trip(experiment, data):
    """Every key of every schema parses the text of a typed value back to that
    value; keys left out keep their defaults."""
    schema = cli.SCHEMAS[experiment]
    typed = {key: _typed_key(parser) for key, (parser, _) in schema.items()}
    values = data.draw(st.fixed_dictionaries(
        {}, optional={key: strategy for key, (strategy, _) in typed.items()}))
    cfg = cli.build_config(experiment, {key: typed[key][1](v) for key, v in values.items()})
    assert cfg.pop("experiment") == experiment
    assert cfg == {key: values.get(key, default) for key, (_, default) in schema.items()}


@settings(max_examples=50, deadline=None)
@given(experiment=st.sampled_from(sorted(cli.SCHEMAS)),
       key=st.text(alphabet="abcdefghijklmnopqrstuvwxyzK_", min_size=1, max_size=12),
       value=st.text(max_size=8))
def test_build_config_rejects_unknown_keys(experiment, key, value):
    assume(key not in cli.SCHEMAS[experiment])
    with pytest.raises(cli.CliError) as exc:
        cli.build_config(experiment, {key: value})
    assert exc.value.diagnostics == [f"unknown key {key!r} for experiment {experiment!r}"]


def test_docs_key_lists_match_schemas():
    """Each experiment's `Keys:` line in docs/configuration.md names exactly
    its schema keys; "common" stands for the common keys."""
    text = open(DOCS).read()
    sections = dict(re.findall(r"^### (\S+)\n(.*?)(?=^### |\Z)", text, re.S | re.M))
    assert set(sections) == set(cli.SCHEMAS)
    for name, body in sections.items():
        keys_line = body.split("Keys:", 1)[1].split("CSV", 1)[0]
        keys_line = re.sub(r"\([^)]*\)", "", keys_line)  # drop value notes
        documented = set(re.findall(r"`([^`]+)`", keys_line))
        if "common" in keys_line:
            documented |= set(cli._COMMON)
        assert documented == set(cli.SCHEMAS[name]), name


def _cfg_keys_read(fn) -> set:
    """The string subscripts of `cfg` in the source of ``fn``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}


def test_every_schema_key_is_read():
    """Every key an experiment accepts is read by its runner, or by `_solve`
    for runners that call it.  `seed` is the one exception: every experiment
    accepts it, so a script can pass one seed to any run, and only the
    randomized square-function battery reads it."""
    solve_keys = _cfg_keys_read(cli._solve)
    for experiment, runner in cli.RUNNERS.items():
        read = _cfg_keys_read(runner)
        if "_solve" in runner.__code__.co_names:
            read |= solve_keys
        unread = set(cli.SCHEMAS[experiment]) - read - {"seed"}
        assert not unread, (experiment, unread)
    assert "seed" in _cfg_keys_read(cli.RUNNERS["square-function"])


def test_json_keys_match_docs(tmp_path):
    """The `<experiment>.json` bullet in docs/configuration.md names exactly
    the top-level keys a run writes."""
    text = open(DOCS).read()
    bullet = text.split("- `<experiment>.json`", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", bullet)))
    assert cli.main(["spectrum", "--out", str(tmp_path), "--K", "4"]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert set(payload) == documented


def test_validate_never_writes_outputs(tmp_path):
    cfg = tmp_path / "ok.ini"
    cfg.write_text("[experiment]\nexperiment = spectrum\nK = 4\n")
    rc = cli.main(["validate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert not (tmp_path / "spectrum.csv").exists()


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "mismatch.ini"
    cfg.write_text("[experiment]\nexperiment = kato\n")
    assert cli.main(["spectrum", "--config", str(cfg)]) == 1
    assert "config requests experiment" in capsys.readouterr().err


def test_qlab_out_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("QLAB_OUT", str(tmp_path))
    rc = cli.main(["spectrum", "--n", "2", "--K", "4"])
    assert rc == 0
    assert (tmp_path / "spectrum.csv").exists()


def test_counterexample_json_contents(tmp_path):
    rc = cli.main(["counterexample", "--out", str(tmp_path), "--n", "3",
                   "--K", "128"])
    assert rc == 0
    payload = json.loads((tmp_path / "counterexample.json").read_text())
    assert payload["summary"]["residual_within_bound"] is True
    assert payload["summary"]["residual_rel_max"] <= 1e-8
    assert payload["summary"]["kato_classification"] == "not-in-Kato"
    assert payload["summary"]["verdict"] == "pass"


def test_spectrum_counterexample_on_pole_capped_grid(tmp_path):
    """The critical potential is solved on the checked pole-capped grid; the
    default grid would report mu_0 = 0.0629 at n = 3, K = 64."""
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--potential", "counterexample",
                   "--n", "3", "--K", "64"])
    assert rc == 0
    rows = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert rows[0, 1] == pytest.approx(0.023618, abs=1e-5)


@pytest.mark.parametrize("args", [
    ["--manifold", "sphere-full-2d", "--potential", "truncated-counterexample",
     "--K", "16"],
    ["--potential", "cos(phi)/sin(phi)", "--K", "48"],
])
def test_spectrum_unresolved_potential_stops(tmp_path, capsys, args):
    """A grid that cannot resolve V stops the run with exit 1 and no CSV."""
    assert cli.main(["spectrum", "--out", str(tmp_path)] + args) == 1
    err = capsys.readouterr().err
    assert "potential assembly not converged" in err
    assert "this grid cannot resolve the potential" in err
    assert "'Potential references' in docs/configuration.md" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_non_finite_potential_stops(tmp_path, capsys):
    """log(phi - 1) is NaN below phi = 1: the run stops at assembly with the
    first such node, exit 1 and no CSV."""
    with np.errstate(all="ignore"):
        rc = cli.main(["spectrum", "--config", os.path.join(CONFIG_DIR, "spectrum.ini"),
                       "--out", str(tmp_path), "--potential", "log(phi-1)", "--K", "8"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "NumericError: potential not finite at node 0 of 32" in err
    assert "w*V = nan" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_constant_auto_shift(tmp_path):
    rc = cli.main(["spectrum", "--out", str(tmp_path), "--potential", "constant:-5",
                   "--shift", "auto", "--K", "8"])
    assert rc == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["summary"]["shift"] == 6
    assert payload["summary"]["min_eigenvalue"] >= 1.0


def test_repeat_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert cli.main(["square-function", "--out", str(out), "--K", "32"]) == 0
    assert (a / "square-function.csv").read_bytes() == \
        (b / "square-function.csv").read_bytes()


def test_failed_verdict_exit_code(tmp_path):
    # delta = 0.3 lies below the critical index 1/2, so the L^1 norms grow
    # (slope 0.306) and the bounded verdict (0 +- 0.15) fails -> exit 2
    rc = cli.main(["bochner-riesz", "--out", str(tmp_path), "--K", "128",
                   "--lams", "16,32,64,128", "--delta", "0.3"])
    assert rc == 2
    payload = json.loads((tmp_path / "bochner-riesz.json").read_text())
    assert payload["summary"]["verdict"] == "fail"
    assert payload["summary"]["slope"] > 0.15


def test_cli_import_leaves_numpy_unloaded():
    # --jobs sets the BLAS thread variables, which only act before numpy loads
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, qlab.cli; assert 'numpy' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
