import ast
import glob
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tempfile
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


def shipped_configs():
    """The shipped configs, checked to be one per experiment: each file's stem
    is an experiment of `cli.SCHEMAS`, named again by its `experiment` key."""
    configs = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.ini")))
    stems = [os.path.splitext(os.path.basename(path))[0] for path in configs]
    assert set(stems) == set(cli.SCHEMAS)
    for stem, path in zip(stems, configs):
        assert cli._load_config_file(path)["experiment"] == stem, path
    return configs


def test_validate_shipped_configs(capsys):
    for path in shipped_configs():
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
    ("wave-speed", "t = 0", "key 't': t must be non-zero"),
    ("heat", "tol = 10", "unknown key 'tol' for experiment 'heat'"),
    ("weyl", "band_lo = 0.5", "unknown key 'band_lo' for experiment 'weyl'"),
    ("bochner-riesz", "min_growth = 0.1",
     "unknown key 'min_growth' for experiment 'bochner-riesz'"),
    ("resolvent-probe", "grid_size = 40",
     "unknown key 'grid_size' for experiment 'resolvent-probe'"),
    ("bochner-riesz", "manifold = torus", "key 'manifold': the Bochner-Riesz row norm is "
     "implemented on the zonal sector"),
    ("bochner-riesz", "manifold = sphere-full-2d", "is implemented on the zonal sector"),
    ("weyl", "manifold = torus", "key 'manifold': the local Weyl sum is implemented on "
     "the zonal sector"),
    ("weyl", "manifold = sphere-full-2d", "is implemented on the zonal sector"),
    ("strichartz", "battery = zonal-ladder",
     "unknown key 'battery' for experiment 'strichartz'"),
    ("multiplier", "symbol = nonsense",
     "key 'symbol': cannot parse value 'nonsense'; choose from one, imaginary-power, bump"),
    ("resolvent-probe", "p = 1.5", "unknown key 'p' for experiment 'resolvent-probe'"),
    ("resolvent-probe", "n = 2", "the uniform resolvent pair needs n >= 3"),
    ("spectrum", "potential = foo(phi", "key 'potential': invalid expression 'foo(phi'"),
    ("spectrum", "potential = bogus(phi)", "key 'potential': disallowed construct"),
    ("spectrum", "potential = constant:abc",
     "key 'potential': 'abc' in 'constant:abc' is not a number"),
    ("spectrum", "manifold = torus\npotential = counterexample",
     "key 'potential': zonal potentials are not defined on the torus"),
    ("spectrum", "manifold = sphere-full-2d\nn = 3",
     "key 'manifold': sphere-full-2d requires n = 2"),
    ("projector-norms", "p = 1", "sigma is defined for p in [2, infinity]"),
    ("projector-norms", "n = 3\np = 3.5",
     "zonal functions cannot reach the p < p_c regime of sigma(p)"),
    ("strichartz", "K = 12", "truncation frequency 12.5 below battery rung k=16"),
    ("strichartz", "manifold = torus\nK = 20", "truncation frequency 20.0 below "
     "battery rung k=32"),
    ("heat", "manifold = torus\nK = 64", "the solve on the dense torus basis at K=64 (16900 "
     "nodes per mode) needs 3.24 GiB, above the 1 GiB limit"),
    ("spectrum", "manifold = torus\nn = 3\nK = 1000", "needs at least 120 GiB"),
    ("heat", "manifold = sphere-full-2d", "the solve on the dense sphere-full-2d basis at "
     "K=128 (35620 nodes per mode) needs 8.84 GiB, above the 1 GiB limit"),
    # the first truncations whose free solve exceeds the limit
    ("spectrum", "manifold = torus\nK = 48", "the solve on the dense torus basis at K=48 "
     "(9604 nodes per mode) needs 1.04 GiB"),
    ("spectrum", "manifold = torus\nn = 3\nK = 11", "the solve on the dense torus basis at "
     "K=11 (13824 nodes per mode) needs 1.15 GiB"),
    ("spectrum", "manifold = sphere-full-2d\nK = 73", "the solve on the dense "
     "sphere-full-2d basis at K=73 (12300 nodes per mode) needs 1.01 GiB"),
    ("spectrum", "K = 5789", "the solve on the dense sphere-zonal basis at K=5789 (11594 "
     "nodes per mode) needs 1.01 GiB"),
    # the first truncations whose checked V != 0 solve exceeds the limit
    ("spectrum", "potential = sin(phi)\nK = 3859", "the checked solve on the dense "
     "sphere-zonal basis at K=3859 (7734 nodes per mode, 15468 in the check) needs 1.01 GiB"),
    ("spectrum", "potential = truncated-counterexample\nK = 4376", "the checked solve on the "
     "dense sphere-zonal basis at K=4376 (8768 nodes per mode, 8768 in the check) needs "
     "1.01 GiB"),
    ("spectrum", "n = 4\npotential = counterexample\nK = 4289", "the checked solve on the "
     "dense sphere-zonal basis at K=4289 (8594 nodes per mode, 9832 in the check) needs "
     "1.01 GiB"),
    # the checked zonal S^3 solve reads the cosine moments of V and builds no
    # refined table, so it is charged as a solve on its Gauss grid that holds
    # its J x J eigenvectors
    ("spectrum", "n = 3\npotential = counterexample\nK = 5178", "the solve on the dense "
     "sphere-zonal basis at K=5178 (10372 nodes per mode) needs 1.01 GiB"),
    # the checked full-S^2 solve builds no refined table: V != 0 stops where the
    # J x J eigenvectors take the solve past the limit
    ("spectrum", "manifold = sphere-full-2d\npotential = constant:1\nK = 70",
     "the solve on the dense sphere-full-2d basis at K=70 (11376 nodes per mode) needs "
     "1.05 GiB"),
    ("divergent-quasimode", "k_max = 22", "key 'k_max': the ladder of 2^23 + 9 degrees x "
     "19 rungs needs 1.76 GiB, above the 1 GiB limit"),
    ("wave-speed", "Ks = 3270", "key 'Ks': the leakage run up to K=3270 (6556 nodes) "
     "needs 1.01 GiB, above the 1 GiB limit"),
    ("wave-speed", "Ks = 3147\npotential = counterexample", "key 'Ks': the leakage run "
     "up to K=3147 (6310 nodes) needs 1.01 GiB, above the 1 GiB limit"),
    ("counterexample", "K = 2021308", "key 'K': the counterexample table at K=2021308 "
     "(4043376 nodes) needs 1.01 GiB, above the 1 GiB limit"),
    # charged on the Gauss count at K, before the rule is built
    ("counterexample", "K = 100000000", "the counterexample table at K=100000000 "
     "(a Gauss count of 200000016 nodes) needs 49.2 GiB"),
    ("counterexample", "K = -5", "key 'K': truncation too small (K must be at least 2)"),
    # single-key overrides of the shipped configs that the run rejected
    ("divergent-quasimode", "k_min = 0", "need 1 <= k_min < k_max"),
    ("divergent-quasimode", "k_max = 30", "key 'k_max': the ladder of 2^31 + 9 degrees x "
     "27 rungs needs 577 GiB, above the 1 GiB limit"),
    ("kato", "radii = 5", "radius must lie in (0, 1.5708), got 5.0"),
    ("kato", "radii =", "need at least one ball radius"),
    ("kato", "radii = 0.1,0.1,0.1", "ball radii must be distinct, got [0.1, 0.1, 0.1]"),
    ("wave-speed", "Ks = 4", "truncation too small for the mollifier scale"),
    ("wave-speed", "Ks = 64,64,128", "key 'Ks': truncations must be distinct, got "
     "[64, 64, 128]"),
    ("wave-speed", "t = 2", "|t| must stay within the injectivity scale pi/2"),
    ("parametrix", "lams = 0.5,50", "lambda must be at least 1"),
    ("parametrix", "l6_lams = -1,2,3,4", "exponent fits need finite positive abscissae"),
    ("parametrix", "nu = -1", "order nu must be nonnegative"),
    ("quasimode", "lams = 0.5,8,12,16", "lambda must be at least 1"),
    ("quasimode", "lams =", "need at least one lambda"),
    ("heat", "ts = -1,0.1,0.2,0.3", "exponent fits need finite positive abscissae"),
    ("heat", "ts = 0.01,0.02", "need at least 4 points for an exponent fit"),
    ("projector-norms", "lams = 10,14", "fewer than 4 nonempty bands"),
    ("projector-norms", "width = -1", "fewer than 4 nonempty bands"),
    ("bochner-riesz", "delta = -1", "Bochner-Riesz index must be nonnegative"),
    ("bochner-riesz", "lams = 32,64", "need at least 4 points for an exponent fit"),
    ("multiplier", "rs = 0.5", "p must be >= 1 or inf, got 0.5"),
    ("strichartz", "ks = 4", "need at least 4 points for an exponent fit"),
    ("resolvent-probe", "lams = 8,11", "need at least 4 points for an exponent fit"),
    ("resolvent-probe", "lams = 8,11,16,inf", "need finite positive abscissae"),
    ("weyl", "mus = 0,10,20,30", "local Weyl ratios need mu >= 1"),
    # the fuzz of the shipped configs under one override each
    ("weyl", "K = 3", "mu=40.0 exceeds the truncation frequency 3.464"),
    ("weyl", "K = 39", "mu=40.0 exceeds the truncation frequency 39.497"),
    ("multiplier", "K = 3", "battery 'zonal-ladder' is empty at this truncation"),
    ("resolvent-probe", "n = 5", "key 'n': the resolvent probe on the 37^5 half cube of "
     "the 72^5 grid needs 4.65 GiB, above the 1 GiB limit"),
    ("resolvent-probe", "n = 6\nlams = 1,2,3,4", "the resolvent probe on the 17^6 half "
     "cube of the 32^6 grid needs 1.62 GiB"),
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
    """The last truncations whose free, V != 0 or checked solve fits the 1 GiB
    working set pass (the next ones are rows of _BAD_VALUES), as do the
    largest counterexample table, ladder and leakage runs (free and with the
    critical V); a zonal ladder passes when its top rung fits."""
    def diagnostics(experiment, **raw):
        return cli.validate(experiment, cli.build_config(experiment, raw))

    assert diagnostics("heat", manifold="torus", K="32") == []
    assert diagnostics("spectrum", manifold="torus", K="47") == []
    assert diagnostics("spectrum", manifold="torus", n="3", K="10") == []
    assert diagnostics("spectrum", manifold="sphere-full-2d", K="72") == []
    assert diagnostics("spectrum", K="5788") == []
    assert diagnostics("spectrum", potential="sin(phi)", K="3858") == []
    assert diagnostics("spectrum", potential="truncated-counterexample", K="4375") == []
    assert diagnostics("spectrum", n="4", potential="counterexample", K="4288") == []
    assert diagnostics("spectrum", n="3", potential="counterexample", K="5177") == []
    assert diagnostics("spectrum", manifold="sphere-full-2d", potential="constant:1",
                       K="69") == []
    assert diagnostics("counterexample", K="2021307") == []
    assert diagnostics("divergent-quasimode", k_max="21") == []
    assert diagnostics("wave-speed", Ks="3269") == []
    assert diagnostics("wave-speed", Ks="3146", potential="counterexample") == []
    assert diagnostics("strichartz", K="33") == []  # sqrt(33 * 34) = 33.5 >= 32.75
    assert diagnostics("strichartz", K="32") != []  # sqrt(32 * 33) = 32.5
    assert diagnostics("strichartz", manifold="torus", K="33") == []
    assert diagnostics("strichartz", manifold="torus", K="32") != []
    assert cli._lattice_points(2, 64 * 64) == 12853
    assert cli._lattice_points(3, 2) == 19


@pytest.mark.parametrize("n,K,potential", [("200", "128", "0"), ("400", "128", "0"),
                                           ("152", "128", "sin(phi)"), ("214", "8", "0")])
def test_plan_refuses_the_rules_that_underflow(tmp_path, capsys, n, K, potential):
    """Far up in n the weights of a zonal rule underflow to 0 near the poles,
    the sooner the larger K and the refined rule of a check: validate and the
    run both refuse such a solve with a ConfigError naming key 'n', where
    validate used to print ok and the run to stop with DomainError (or
    OverflowError past S^342).  S^150 at K = 128 still runs."""
    raw = {"n": n, "K": K, "potential": potential}
    assert cli.validate("spectrum", cli.build_config("spectrum", raw)) == [
        f"key 'n': quadrature weights must be positive: the rules of S^{n} at K={K} have "
        "weights that underflow to 0 near the poles; lower n or K"]
    assert cli.main(["spectrum", "--out", str(tmp_path), "--n", n, "--K", K,
                     "--potential", potential]) == 1
    assert "ConfigError: key 'n'" in capsys.readouterr().err
    assert cli.main(["spectrum", "--out", str(tmp_path), "--n", "150", "--K", "128"]) == 0


def test_zonal_gauss_limit_and_parametrix_orders(tmp_path):
    """Past S^23, where Newton settles no Gauss rule of the S^n weight, the
    default zonal grid lowers the weight, so every solve still has a Gauss
    basis grid there: spectrum and wave-speed pass at n = 24 with and
    without a V, and the counterexample table, on the pole-capped rule of
    Gauss-Legendre panels, passes at any n.  kato writes finite moduli at
    n = 21 (a NaN at r = 1e-3 before) and n = 400 (its pole-capped rule drops
    the bulk nodes whose weights underflow).  parametrix runs orders whose
    Bessel integral cancels (nu = 11, 12) and rejects the nu whose K_m
    leaves the double range."""
    def diagnostics(experiment, **raw):
        return cli.validate(experiment, cli.build_config(experiment, raw))

    assert diagnostics("spectrum", n="24", potential="counterexample") == []
    assert diagnostics("wave-speed", n="24", potential="counterexample") == []
    assert diagnostics("spectrum", n="24") == []
    assert diagnostics("counterexample", n="24") == []
    for n, potential in (("23", "0"), ("24", "0"), ("24", "counterexample")):
        assert cli.main(["spectrum", "--n", n, "--K", "8", "--potential", potential,
                         "--out", str(tmp_path)]) == 0
    for n in ("21", "400"):
        assert cli.main(["kato", "--n", n, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "kato.json").read_text())
        assert payload["summary"]["verdict"] == "ok"
        assert all(map(math.isfinite, _numbers([payload["rows"], payload["summary"]])))
    for nu in ("11", "12"):
        assert cli.main(["parametrix", "--nu", nu, "--l6_lams", "",
                         "--out", str(tmp_path)]) == 0
    assert diagnostics("parametrix", nu="119") == []
    assert "leaves the double range at nu = 120" in diagnostics("parametrix", nu="120")[0]


def test_resolvent_probe_budget_follows_the_half_cube(tmp_path):
    """The budget counts the (N/2 + 1)^n half cube: n = 4 at the default lams
    (37^4 points) and n = 5 below lambda = 13 (17^5 points) pass validate,
    and the latter runs to a verdict."""
    def diagnostics(**raw):
        return cli.validate("resolvent-probe", cli.build_config("resolvent-probe", raw))

    assert diagnostics(n="4") == []
    assert diagnostics(n="5", lams="1,2,3,4") == []
    assert cli.main(["resolvent-probe", "--n", "5", "--lams", "1,2,3,4",
                     "--out", str(tmp_path)]) in (0, 2)


def test_validate_projector_norms_zonal_p_range():
    """On the zonal sphere only 2 < p < p_c is rejected; p = 2, p = p_c and
    any p on the full S^2 pass (at K = 66, the largest full-S^2 solve that
    fits the working-set limit; the default K = 72 does not)."""
    def diagnostics(**raw):
        return cli.validate("projector-norms", cli.build_config("projector-norms", raw))

    for n, p in (("2", "2"), ("2", "6"), ("3", "4"), ("3", "inf")):
        assert diagnostics(n=n, p=p) == []
    assert diagnostics(manifold="sphere-full-2d", K="66", p="4") == []
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
    """Every key an experiment accepts is read by its plan (the source
    includes the run it returns), or by `_decomposition` for plans that call
    it.  `seed` is the one exception: every experiment accepts it, so a script
    can pass one seed to any run, and only multiplier's randomized
    `random-band` battery reads it."""
    solve_keys = _cfg_keys_read(cli._decomposition)
    for experiment, plan in cli.RUNNERS.items():
        read = _cfg_keys_read(plan)
        if "_decomposition" in plan.__code__.co_names:
            read |= solve_keys
        unread = set(cli.SCHEMAS[experiment]) - read - {"seed"}
        assert not unread, (experiment, unread)
    assert "seed" in _cfg_keys_read(cli.RUNNERS["multiplier"])


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
    """The counterexample passes far up in n too: at n = 13 its L^(n/2)
    norm read inf and was flagged divergent, at n = 18 it read inf."""
    for n in ("3", "13", "18"):
        rc = cli.main(["counterexample", "--out", str(tmp_path), "--n", n,
                       "--K", "128"])
        assert rc == 0, n
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
    ["--manifold", "sphere-full-2d", "--potential", "cos(phi)/sin(phi)", "--K", "16"],
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


@pytest.mark.parametrize("args", [["--n", "2"], ["--n", "3"], ["--n", "4"], ["--n", "5"],
                                  ["--manifold", "sphere-full-2d", "--K", "8"]])
def test_spectrum_overflowing_potential_stops(tmp_path, capsys, args):
    """V = 1e308 gives a block whose symmetrization overflows (NaN moments on
    S^3): the run stops with NumericError, exit 1 and no CSV, where it used
    to write NaN or inf eigenvalues with verdict ok."""
    with np.errstate(all="ignore"):
        rc = cli.main(["spectrum", "--out", str(tmp_path), "--potential", "constant:1e308",
                       "--K", "16"] + args)
    assert rc == 1
    assert "NumericError" in capsys.readouterr().err
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
        assert cli.main(["multiplier", "--out", str(out), "--K", "32", "--seed", "7"]) == 0
    assert (a / "multiplier.csv").read_bytes() == (b / "multiplier.csv").read_bytes()


def test_multiplier_seed_moves_only_the_random_band_rows(tmp_path):
    """`seed` draws the random-band battery: two seeds give other `band-*`
    ratios, and every other row of the CSV stays byte-identical."""
    rows = {}
    for seed in ("20240801", "7"):
        out = tmp_path / seed
        assert cli.main(["multiplier", "--out", str(out), "--K", "32", "--seed", seed]) == 0
        rows[seed] = (out / "multiplier.csv").read_text().splitlines()
    a, b = rows.values()
    assert len(a) == len(b)
    band = [x.split(",")[1].startswith("band-") for x in a]
    assert any(band)
    assert all((x == y) != moved for x, y, moved in zip(a, b, band))


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


def _either(valid, invalid):
    """A key's values, mostly from inside its range."""
    return st.one_of(valid, invalid, valid)


def _listed(valid, invalid, min_size=1, max_size=5):
    """Lists of a key's values: mostly distinct values inside its range, at
    least ``min_size`` of them, else values from both sides."""
    inside = st.lists(valid, min_size=min_size, max_size=max_size, unique=True)
    return st.one_of(inside, st.lists(_either(valid, invalid), max_size=max_size), inside)


def _reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


def _ints(lo, hi):
    return st.integers(min_value=lo, max_value=hi)


# small values of every schema key, drawn on both sides of each key's range
# and mostly inside it, so that many draws reach a run
_KS = [16, 12, 8, 2, 1, -1, 3, 4, 6, 12, 16]
_SMALL = {
    "manifold": st.sampled_from(["sphere-zonal", "sphere-full-2d", "torus", "sphere-zonal"]),
    "n": st.sampled_from([2, 3, 4] * 2 + [1]),
    "K": st.sampled_from(_KS),
    "potential": st.just("0"),
    "shift": st.one_of(_ints(-3, 3), st.just("auto")),
    "seed": _ints(0, 3),
    "p": st.sampled_from([6.0, 1.0, 2.0, 3.0, 4.0, math.inf]),
    "lams": _listed(_reals(1.0, 8.0), _reals(-1.0, 1.0), min_size=4),
    "width": _either(_reals(0.5, 2.0), _reals(-1.0, 0.5)),
    "delta": _either(_reals(0.0, 1.5), _reals(-0.5, 0.0)),
    "symbol": st.sampled_from(["one", "imaginary-power", "bump"]),
    "rs": _listed(_reals(1.0, 4.0), _reals(0.5, 1.0), max_size=3),
    "besov_s": _either(_reals(0.0, 2.0), _reals(-0.5, 0.0)),
    "ts": _listed(_reals(0.005, 0.2), _reals(-0.02, 0.0), min_size=4),
    "t": st.one_of(st.just(0.0), _reals(-1.5, 1.5), _reals(1.6, 2.0)),
    "Ks": _listed(_ints(2, 32), _ints(-1, 1), max_size=3),
    "ks": _listed(_ints(1, 12), _ints(-1, 0), min_size=4),
    "point": _reals(0.0, math.pi),
    "radii": _listed(_reals(1e-3, 1.5), _reals(-0.5, 0.0) | _reals(1.58, 2.0), max_size=3),
    "eps": _either(_reals(0.01, 0.49), _reals(-0.1, 0.0) | _reals(0.5, 0.6)),
    "k_min": st.sampled_from([2, 0, 1, 4]),
    "k_max": st.sampled_from([6, 0, 2, 8]),
}
# the dimensions of the runs that read no basis, past the Gauss limit S^23
# and far up in n, where |V|^(n/2) and the Kato weight overflow
_EXTREME_N = [400, 21, 18, 13, 5, 3, 2]
_ZONAL_MOSTLY = st.sampled_from(["sphere-zonal"] * 5 + ["torus"])
_K_ABOVE_LAMS = st.sampled_from([16, 12] * 3 + [2])  # mostly above the lams drawn
# keys whose range differs in one experiment
_SMALL_IN = {
    "bochner-riesz": {"manifold": _ZONAL_MOSTLY, "K": _K_ABOVE_LAMS,
                      "lams": _listed(_reals(1.0, 8.0), _reals(-1.0, 1.0), min_size=4)},
    # p = 2 and inf are exact; a p in between runs the power method, too slow here
    "projector-norms": {"manifold": _ZONAL_MOSTLY, "K": _K_ABOVE_LAMS,
                        "p": st.sampled_from([math.inf, 2.0] * 2 + [1.0]),
                        "lams": _listed(_reals(1.0, 8.0), _reals(-1.0, 1.0), min_size=4),
                        "width": _either(_reals(1.0, 2.0), _reals(-1.0, 1.0))},
    "weyl": {"manifold": _ZONAL_MOSTLY,
             "mus": _listed(_reals(1.0, 8.0), _reals(-1.0, 1.0), max_size=4)},
    "kato": {"n": st.sampled_from(_EXTREME_N),
             "potential": st.sampled_from(["0", "counterexample",
                                           "truncated-counterexample", "constant:1"])},
    "counterexample": {"n": st.sampled_from(_EXTREME_N)},
    "divergent-quasimode": {"n": st.sampled_from([4, 3, 4])},
    "parametrix": {"nu": _ints(-1, 2),
                   "lams": _listed(_reals(1.0, 60.0), _reals(-1.0, 1.0), max_size=3),
                   "rs": _listed(_reals(0.05, 1.0), _reals(-0.1, 0.0), max_size=4),
                   "l6_lams": _listed(_reals(1.0, 64.0), _reals(-1.0, 1.0), min_size=4)},
    "resolvent-probe": {"n": st.sampled_from([3, 2, 3]),
                        "lams": _listed(_reals(1.0, 12.0), _reals(-1.0, 1.0), min_size=4)},
}


# largest torus K drawn per n, so that each dense torus basis stays below 20 MB
_TORUS_K = {1: 16, 2: 16, 3: 6, 4: 3}


def _cli_text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


# draws per experiment: kato and counterexample take 0.1-0.3 s a run
_DRAWS = {"kato": 8, "counterexample": 8}


def _numbers(value):
    """Every number in a JSON value, its lists and its objects."""
    if isinstance(value, (int, float)):
        yield value
    elif isinstance(value, (list, dict)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _numbers(item)


@pytest.mark.parametrize("experiment", sorted(cli.SCHEMAS))
def test_validated_configs_run(experiment):
    """A small config that `validate` accepts runs to a verdict: exit 0 or 2,
    never 1, and every number of its rows and summary is finite.  A config
    that `validate` rejects is never run.  The draws are derandomized so
    that every run of the suite checks the same configs."""
    strategies = {**_SMALL, **_SMALL_IN.get(experiment, {})}

    @settings(max_examples=_DRAWS.get(experiment, 25), deadline=None, derandomize=True)
    @given(data=st.data())
    def check(data):
        values = data.draw(st.fixed_dictionaries(
            {key: strategies[key] for key in cli.SCHEMAS[experiment]}))
        if values.get("manifold") == "torus":
            values["K"] = data.draw(st.sampled_from(
                [K for K in _KS if K <= _TORUS_K[values["n"]]]))
        raw = {key: _cli_text(v) for key, v in values.items()}
        if cli.validate(experiment, cli.build_config(experiment, raw)):
            return
        args = [token for key, text in raw.items() for token in (f"--{key}", text)]
        with tempfile.TemporaryDirectory() as out, np.errstate(all="ignore"):
            assert cli.main([experiment, "--out", out] + args) in (0, 2), raw
            with open(os.path.join(out, f"{experiment}.json")) as fh:
                report = json.load(fh)
        assert all(map(math.isfinite, _numbers([report["rows"], report["summary"]]))), raw

    check()


def test_plans_size_the_default_grid(monkeypatch):
    """Every charge of a solve plan reads its (N, F) off what the plan built
    with ``operator_core._solve_rules``: N the node count of the basis grid
    that ``operator_core.solve`` builds for its run (the default Gauss grid,
    whatever V is), and F that of the refined rule its check evaluates the
    basis at (``hemisphere`` of ``_zonal_rule(..., refine=rule)`` for an
    even V, the rule itself for an odd one; 0 without a check, on the full
    S^2 and on the zonal S^3, whose check reads the cosine moments of V).
    The charge of the solve comes first, on the default axes, before
    anything is built, and every charge is a free one (no J x J
    eigenvectors) exactly when V = None; a checked solve then adds the
    check's charge.  Covered: the solve of a spectral experiment, free on
    the three manifolds and checked for the critical, truncated and
    sin(phi) V at a few K on S^3 and S^4, and
    the wave-speed solve at the largest K, free and with the critical V.
    The counterexample run tabulates V and f on the rule its plan charged."""
    from qlab import geometry, operator_core, potentials
    charged, built, frees = [], [], []

    def solve_bytes(nodes, modes, fine=0, free=False):
        charged.append((nodes, fine))
        frees.append(free)
        return 0

    monkeypatch.setattr(cli, "_solve_bytes", solve_bytes)
    solve_rules = operator_core._solve_rules

    def record(V, manifold, K):
        basis, fine = solve_rules(V, manifold, K)
        built.append((basis.grid.size, fine))
        return basis, fine

    monkeypatch.setattr(operator_core, "_solve_rules", record)

    def sizes(potential, manifold, K):  # (N, F) of the basis grid and the check
        V = potentials.from_reference(potential, manifold.n)
        N = geometry.default_grid(manifold, K).size
        if V is None or manifold.kind != geometry.SPHERE_ZONAL or manifold.n == 3:
            return N, 0
        rule = operator_core._zonal_rule(V, manifold.n, K)
        refined = operator_core._zonal_rule(V, manifold.n, K, refine=rule)
        return N, (geometry.hemisphere(refined) if V.even else refined).size

    zonal = geometry.ModelManifold(geometry.SPHERE_ZONAL, 3)
    cases = [(manifold, "0", K) for K in (2, 7, 24)
             for manifold in (zonal, geometry.ModelManifold(geometry.SPHERE_FULL_2D, 2),
                              geometry.ModelManifold(geometry.TORUS, 2),
                              geometry.ModelManifold(geometry.TORUS, 3))]
    cases += [(sphere, potential, K) for K in (7, 24)
              for sphere in (zonal, geometry.ModelManifold(geometry.SPHERE_ZONAL, 4))
              for potential in ("counterexample", "truncated-counterexample", "sin(phi)")]
    for manifold, potential, K in cases:
        charged.clear()
        built.clear()
        frees.clear()
        cli._decomposition(cli.build_config("spectrum", {
            "manifold": manifold.kind, "n": str(manifold.n), "K": str(K),
            "potential": potential}))
        N, F = sizes(potential, manifold, K)
        assert built == [(N, F)]
        assert set(charged) == {(N, 0), (N, F)}
        assert frees == [potential == "0"] * len(charged)
    for potential in ("0", "counterexample"):
        charged.clear()
        built.clear()
        frees.clear()
        cli.RUNNERS["wave-speed"](cli.build_config("wave-speed", {
            "n": "3", "Ks": "8,24", "potential": potential}))
        assert built == [sizes(potential, zonal, 8), sizes(potential, zonal, 24)]
        # one solve is held at a time: the largest with its kernel, then its check
        N, F = built[-1]
        assert charged == [(N, 0), (N, F)][:1 + bool(F)]
        assert frees == [potential == "0"] * len(charged)
    plan = cli.RUNNERS["counterexample"](cli.build_config("counterexample",
                                                          {"n": "3", "K": "8"}))
    grid = operator_core._zonal_rule(potentials.counterexample(3), 3, 8)
    assert [row[0] for row in plan().rows] == grid.nodes.tolist()


def test_spectral_run_solves_on_the_basis_its_plan_built(monkeypatch):
    """A spectral experiment's run solves on the basis its plan built with
    ``operator_core._solve_rules``, builds no other, and gives the
    decomposition of ``operator_core.solve`` bit for bit."""
    from qlab import geometry, operator_core, potentials
    cases = [("torus", "2", "6", "0"), ("sphere-zonal", "4", "7", "counterexample"),
             ("sphere-full-2d", "2", "5", "sin(phi)")]
    for kind, n, K, potential in cases:
        cfg = cli.build_config("spectrum", {"manifold": kind, "n": n, "K": K,
                                            "potential": potential, "shift": "auto"})
        expected = operator_core.solve(potentials.from_reference(potential, int(n)),
                                       geometry.ModelManifold(kind, int(n)), int(K),
                                       shift="auto")
        bases, build = [], geometry.build_basis
        with monkeypatch.context() as patch:
            patch.setattr(geometry, "build_basis",
                          lambda *args: bases.append(build(*args)) or bases[-1])
            decomp = cli._decomposition(cfg)[0]()
        assert len(bases) == 1 and decomp.basis is bases[0]
        assert np.array_equal(decomp.eigenvalues, expected.eigenvalues)
        assert decomp.shift == expected.shift
