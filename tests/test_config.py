import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from opinionlab.cli import main
from opinionlab.config import KEYS, KINDS, ConfigError, parse_config, theta_value
from opinionlab.distributions import Mixture, Point, Uniform, VectorDist
from opinionlab.harness import config_hash
from opinionlab.metrics import burn_in_steps

MINIMAL = """
kind = error
seed = 7
n_grid = 100
theta = const:5
model.K = 1
model.ell = 1
model.pi = 1
model.kappa = 1
"""

FULL_K3 = """
# three-community example
kind = chaos
seed = 99
out = runs/demo
n_grid = 400
theta = pow:0.8
inner_reps = 12
threads = 2
k = 3
vertex_sets = 0 1 ; 2 3
functions = proj:0,3 proj:0,3 ; proj:1,2 poly:0,3,2
measure_functions = one proj:0,3
model.K = 3
model.ell = 2
model.pi = 0.2 0.3 0.5
model.kappa = 2 1 0.5 ; 1 2 1 ; 0.5 1 2
model.c = 0.25
model.d = 0.3
model.H = 2
model.weights = uniform:0,2 point:1 beta:2,2,0,2 ; point:0.5 uniform:0.5,1.5 point:1 ; point:1 point:1 mix:0.5*point:0.2+0.5*uniform:0,1
model.beliefs = uniform:-1,1 point:0.2 | point:-0.3 uniform:-0.2,0.2 | uniform:-1,0 uniform:0,1
model.signals = uniform:-0.5,0.5 point:0 | point:0.1 point:-0.1 | uniform:0,0.4 point:0.2
model.signal_belief_weight = 0.25
model.init = beliefs
model.fixed_composition = true
"""


def test_minimal_config_parses():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "error"
    assert cfg.model.K == 1
    assert cfg.n_grid == [100]
    assert cfg.thetas() == [5.0]


def test_bad_shares_reported_with_key_path():
    text = MINIMAL.replace("model.pi = 1", "model.pi = 0.7 0.7").replace(
        "model.K = 1", "model.K = 2"
    ).replace("model.kappa = 1", "model.kappa = 1 1 ; 1 1")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("model.pi" in p for p in err.value.problems)


def test_stationary_k_long_burn_in_boundary():
    text = MINIMAL.replace("kind = error", "kind = stationary") + "model.d = 0.25\nburn_tol = 1e-4\n"
    k_burn = burn_in_steps(0.25, 1e-4)
    assert parse_config(text).k_max == k_burn
    assert 0.75**k_burn < 1e-4 <= 0.75 ** (k_burn - 1)
    assert parse_config(text + f"k_max = {k_burn + 5}\n").k_max == k_burn + 5
    with pytest.raises(ConfigError) as err:
        parse_config(text + f"k_max = {k_burn - 1}\n")
    assert [p.split(":")[0] for p in err.value.problems] == ["k_max"]


@pytest.mark.parametrize("kind, k_max", [("error", 21), ("simulate", 21), ("stationary", 42)])
def test_zero_k_max_is_the_burn_in(kind, k_max):
    # d = 0.2: 21 steps bring the memory below 1e-2, 42 below the stationary burn_tol 1e-4
    assert parse_config(f"kind = {kind}\nmodel.d = 0.2\n").k_max == k_max


def test_all_violations_collected():
    text = """
kind = nosuch
seed = 1
n_grid =
theta = pow:0.5
inner_reps = 0
model.K = 2
model.ell = 1
model.pi = 0.2 0.2
model.kappa = 1 1 ; 1 1
model.d = 0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    text_problems = " | ".join(err.value.problems)
    for frag in ("kind", "n_grid", "inner_reps", "model.pi", "d:"):
        assert frag in text_problems


@pytest.mark.parametrize("kind, lines, problem", [
    ("chaos", "model.K = two\nmodel.pi = 0.5 0.5\nmodel.kappa = 1 2 ; 2 1\nmodel.weights = point:1",
     "model.K: not an integer: 'two'"),
    ("chaos", "model.ell = x\nmodel.beliefs = uniform:-1,1 point:0.2\nmodel.init = point:0 point:0\n"
     "functions = proj:1,2\nmeasure_functions = proj:1,2", "model.ell: not an integer: 'x'"),
    ("chaos", "model.H = abc\nmodel.weights = uniform:0,2", "model.H: not a number: 'abc'"),
    ("chaos", "k = x\nfunctions = proj:0,3\nmeasure_functions = proj:0,3", "k: not an integer: 'x'"),
    ("chaos", "vertex_sets = 0 x\nfunctions = proj:0,1 proj:0,1", "vertex_sets: not an integer: 'x'"),
    ("chaos", "model.c = x\nmodel.d = 0.9", "model.c: not a number: 'x'"),
    ("chaos", "model.c = 0.9\nmodel.d = abc", "model.d: not a number: 'abc'"),
    ("error", "n_grid = 2x00\ntheta = pow:1e10", "n_grid: not an integer: '2x00'"),
    ("chaos", "n_grid = 2x00\nvertex_sets = 1500", "n_grid: not an integer: '2x00'"),
    ("simulate", "n_grid = 2x00\nrecord = 1500", "n_grid: not an integer: '2x00'"),
    ("concentration", "model.H = abc\nconc_weight = uniform:0,5", "model.H: not a number: 'abc'"),
    ("stationary", "burn_tol = nan\nk_max = 1", "burn_tol: must be finite, got 'nan'"),
    ("stationary", "model.d = 0\nk_max = 1", "model.d: external weight must be positive"),
], ids=["K", "ell", "H", "k", "vertex_sets", "c-d", "d-c", "n_grid-theta", "n_grid-vertex_sets",
        "n_grid-record", "H-conc_weight", "burn_tol-k_max", "d-k_max"])
def test_bad_sizing_key_reports_only_itself(kind, lines, problem):
    # the keys that read it are skipped; inner_reps = 0, an unrelated problem, is still reported
    with pytest.raises(ConfigError) as err:
        parse_config(f"kind = {kind}\ninner_reps = 0\n{lines}\n")
    assert sorted(err.value.problems) == sorted([problem, "inner_reps: must be >= 1, got 0"])


# a valid K = 2 model; each BOUNDS case replaces some of its keys
BOUND_BASE = {"model.K": "2", "model.pi": "0.5 0.5", "model.kappa": "1 1 ; 1 1",
              "model.weights": "point:0.5", "model.signals": "point:0.1"}

# one config per bound: (kind, keys replaced, the one problem reported)
BOUNDS = [
    ("error", {"kind": "nosuch"}, "kind: unknown experiment kind 'nosuch'; options: "
                                  "simulate, meanfield, error, chaos, stationary, concentration, tree"),
    ("error", {"seed": "-1"}, "seed: must be >= 0, got -1"),
    ("error", {"threads": "0"}, "threads: must be >= 1, got 0"),
    ("error", {"model.K": "0"}, "model.K: must be >= 1, got 0"),
    ("error", {"model.ell": "0"}, "model.ell: must be >= 1, got 0"),
    ("error", {"model.pi": "0.5"}, "model.pi: expected length 2, got shape (1,)"),
    ("error", {"model.pi": "1 0"}, "model.pi: all community shares must be positive"),
    ("error", {"model.pi": "0.5 0.6"}, "model.pi: shares sum to 1.1, expected 1"),
    ("error", {"model.pi": "0.5 nan"}, "model.pi: must be finite, got 'nan'"),
    ("error", {"model.kappa": "1 1"}, "model.kappa: expected shape (2, 2), got (1, 2)"),
    ("error", {"model.kappa": "1 1 ; 1"}, "model.kappa: rows differ in length"),
    ("error", {"model.kappa": "1 -0.1 ; 1 1"}, "model.kappa: kernel entries must be nonnegative"),
    ("error", {"model.c": "-0.1"}, "model.c: network weight must be nonnegative"),
    ("error", {"model.d": "0"}, "model.d: external weight must be positive"),
    ("error", {"model.c": "0.9", "model.d": "0.2"}, "model.d: c + d = 1.1 exceeds 1"),
    ("error", {"model.H": "0"}, "model.H: weight cap must be positive"),
    ("error", {"model.signal_belief_weight": "1.5"},
     "model.signal_belief_weight: must lie in [0, 1]"),
    ("error", {"model.weights": "point:0.5 point:0.5"}, "model.weights: expected 2x2 entries"),
    ("error", {"model.weights": "point:0.5 uniform:0,2 ; point:0.5 point:0.5"},
     "model.weights: entry [0][1]: support outside [0, 1.0]"),
    ("error", {"model.beliefs": "uniform:-1,1 | point:0 | point:0"},
     "model.beliefs: expected 2 entries"),
    ("error", {"model.ell": "2", "model.beliefs": "point:0 point:0 point:0"},
     "model.beliefs: expected 1 or 2 component tokens, got 3"),
    ("error", {"model.ell": "1", "model.beliefs": "point:0 point:0"},
     "model.beliefs: expected 1 component token, got 2"),
    ("error", {"model.beliefs": "uniform:-2,1"}, "model.beliefs: entry [0]: support outside [-1, 1]"),
    ("error", {"model.signals": "point:0.1 | point:1.5"},
     "model.signals: entry [1]: support outside [-1, 1]"),
    ("error", {"model.init": "uniform:0,2"}, "model.init: entry [0]: support outside [-1, 1]"),
    ("error", {"model.fixed_composition": "ture"},
     "model.fixed_composition: not a boolean: 'ture'; use true/false, 1/0 or yes/no"),
    ("error", {"n_grid": ""}, "n_grid: must not be empty"),
    ("simulate", {"n_grid": "100 200"}, "n_grid: kind simulate runs one graph size, got 2: 100 200"),
    ("error", {"theta": "cubic:1"}, "theta: unknown rule 'cubic:1'"),
    ("error", {"theta": "const:0"},
     "theta: rule 'const:0' gives theta=0.0 at n=1000; need a finite positive value"),
    ("error", {"inner_reps": "0"}, "inner_reps: must be >= 1, got 0"),
    ("error", {"outer_reps": "0"}, "outer_reps: must be >= 1, got 0"),
    ("stationary", {"burn_tol": "0"}, "burn_tol: must be positive, got 0.0"),
    ("error", {"k_max": "-1"}, "k_max: must be >= 0, got -1"),
    ("stationary", {"k_max": "2"},
     "k_max: 2 steps do not burn in to burn_tol=0.0001: (1-d)^k = 0.64"),
    ("stationary", {"stationary_reps": "0"}, "stationary_reps: must be >= 1, got 0"),
    ("chaos", {"k": "-1"}, "k: must be >= 0, got -1"),
    ("chaos", {"vertex_sets": "0 ; 1000"},
     "vertex_sets: vertex ids must be below n = 1000, got 1000"),
    ("chaos", {"functions": "proj:0,2 ; proj:0,2"},
     "functions: 2 rows for 1 vertex sets; give one row per set"),
    ("chaos", {"functions": "proj:0,2 proj:0,2"}, "functions: row 0 has 2 ids for 1 vertices"),
    ("chaos", {"functions": "proj:1,2"}, "functions: function 'proj:1,2' indexes outside ell=1, k=2"),
    ("chaos", {"measure_functions": "proj:0,3"},
     "measure_functions: function 'proj:0,3' indexes outside ell=1, k=2"),
    ("chaos", {"limit_reps": "0"}, "limit_reps: must be >= 1, got 0"),
    ("tree", {"depth": "0"}, "depth: must be >= 1, got 0"),
    ("tree", {"tree_reps": "0"}, "tree_reps: must be >= 1, got 0"),
    ("tree", {"vertices_checked": "0"}, "vertices_checked: must be >= 1, got 0"),
    ("concentration", {"eps_grid": "0.1 0"}, "eps_grid: must be positive, got 0.0"),
    ("concentration", {"count_means": "-5"}, "count_means: must be positive, got -5.0"),
    ("concentration", {"conc_weight": "uniform:0,5"}, "conc_weight: support outside [0, 1]"),
    ("concentration", {"conc_value": "uniform:-3,3"}, "conc_value: support outside [-1, 1]"),
    ("simulate", {"record": "0 1000"}, "record: vertex ids must be below n = 1000, got 1000"),
]


@pytest.mark.parametrize("kind, keys, problem", BOUNDS)
def test_each_bound_reports_one_problem_named_by_its_key(kind, keys, problem):
    def text(keys):
        return "".join(f"{key} = {val}\n" for key, val in {"kind": kind, **BOUND_BASE, **keys}.items())

    parse_config(text({}))
    with pytest.raises(ConfigError) as err:
        parse_config(text(keys))
    assert err.value.problems == [problem]
    assert problem.split(": ", 1)[0] in KEYS


class _Recording(dict):
    """The values of the keys parsed before, recording which are read."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)

    def get(self, name, default=None):
        self.read.add(name)
        return super().get(name, default)


@pytest.mark.parametrize("kind", KINDS)
def test_every_key_reads_only_the_keys_it_declares(kind):
    # a key that reads an undeclared key would be parsed while that key failed
    values = {}
    for name, key in KEYS.items():
        seen = _Recording(values)
        values[name] = key.parse(kind if name == "kind" else key.default_text(seen), seen)
        assert seen.read <= set(key.reads) | {"kind"}, name


@pytest.mark.parametrize("flag, fixed", [
    ("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False),
])
def test_fixed_composition_flag_values(flag, fixed):
    cfg = parse_config(MINIMAL + f"model.fixed_composition = {flag}\n")
    assert cfg.model.fixed_composition is fixed


@pytest.mark.parametrize("flag", ["ture", "2", "on"])
def test_fixed_composition_rejects_non_boolean(flag):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"model.fixed_composition = {flag}\n")
    assert any(p.startswith("model.fixed_composition") for p in err.value.problems)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\nmystery = 3\n")
    assert any("mystery" in p for p in err.value.problems)


def test_full_config_parses():
    cfg = parse_config(FULL_K3)
    assert cfg.model.K == 3
    assert cfg.model.init_dists == "beliefs"
    assert cfg.vertex_sets == [[0, 1], [2, 3]]
    assert cfg.model.weight_dists[2][2] == Mixture((0.5, 0.5), (Point(0.2), Uniform(0.0, 1.0)))
    assert np.allclose(cfg.model.pi, [0.2, 0.3, 0.5])


# one changed value for every output-relevant field of FULL_K3
CONFIG_CHANGES = {
    "kind": "error", "seed": 100, "n_grid": [401], "theta_rule": "pow:0.7", "inner_reps": 13,
    "outer_reps": 3, "k_max": 7, "burn_tol": 1e-5, "k": 4, "vertex_sets": [[0, 1], [2, 4]],
    "functions": [["proj:0,3", "proj:0,3"], ["proj:1,2", "one"]], "measure_functions": ["one"],
    "limit_reps": 4001, "depth": 3, "tree_reps": 10001, "vertices_checked": 101,
    "stationary_reps": 20001, "eps_grid": [0.1, 0.2], "count_means": [60.0],
    "conc_weight": Point(0.5), "conc_value": Uniform(-1.0, 0.0), "record": [1],
}
SPEC_CHANGES = {
    "K": 4, "ell": 3, "pi": [0.3, 0.2, 0.5], "kappa": [[2, 1, 0.5], [1, 2, 1], [0.5, 1, 2.5]],
    "c": math.nextafter(0.25, 1.0), "d": 0.35, "H": 3.0,
    "weight_dists": lambda w: [[Point(1.5), *w[0][1:]], *w[1:]],
    "belief_dists": lambda b: b[::-1], "signal_dists": lambda s: s[::-1],
    "signal_belief_weight": 0.5, "init_dists": [VectorDist((Uniform(-1.0, 1.0),) * 2)] * 3,
    "fixed_composition": False,
}


def test_config_hash_sees_every_output_field():
    cfg = parse_config(FULL_K3)
    base = config_hash(cfg)
    assert config_hash(dataclasses.replace(cfg, threads=1, out="elsewhere")) == base
    assert set(CONFIG_CHANGES) == {f.name for f in dataclasses.fields(cfg)} - {"threads", "out", "model"}
    assert set(SPEC_CHANGES) == {f.name for f in dataclasses.fields(cfg.model)}
    for name, value in CONFIG_CHANGES.items():
        assert config_hash(dataclasses.replace(cfg, **{name: value})) != base, name
    for name, value in SPEC_CHANGES.items():
        if callable(value):
            value = value(getattr(cfg.model, name))
        spec = dataclasses.replace(cfg.model, **{name: value})
        assert config_hash(dataclasses.replace(cfg, model=spec)) != base, name


def test_json_config_accepted():
    doc = {
        "kind": "meanfield",
        "seed": 3,
        "n_grid": [50],
        "theta": "log:2",
        "model": {
            "K": 2, "ell": 1, "pi": [0.5, 0.5],
            "kappa": [2, 1, ";", 1, 2],
            "weights": "point:1",
            "beliefs": "uniform:-1,1",
            "signals": "point:0.2",
        },
    }
    cfg = parse_config(json.dumps(doc))
    assert cfg.kind == "meanfield"
    assert cfg.model.kappa.tolist() == [[2.0, 1.0], [1.0, 2.0]]
    assert cfg.model.weight_dists[0][1] == Point(1.0)


def test_theta_rules():
    assert theta_value("const:4", 100) == 4.0
    assert theta_value("log:2", 100) == pytest.approx(2 * math.log(100))
    assert theta_value("loglog:3", 100) == pytest.approx(3 * math.log(math.log(100)))
    assert theta_value("pow:0.5", 100) == pytest.approx(10.0)
    assert theta_value("linear:0.25", 100) == pytest.approx(25.0)
    with pytest.raises(ConfigError):
        theta_value("cubic:1", 100)


def test_nonpositive_theta_rejected():
    text = MINIMAL.replace("theta = const:5", "theta = loglog:1").replace(
        "n_grid = 100", "n_grid = 2"
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("theta" in p for p in err.value.problems)


@pytest.mark.parametrize("K", [3, 6, 7])
def test_default_shares_are_valid(K):
    # shares written with full precision sum to 1 within the validation tolerance
    cfg = parse_config(f"model.K = {K}")
    assert cfg.model.pi.tolist() == pytest.approx([1.0 / K] * K)


# one key each kind does not read, and the kinds that read it
FOREIGN = {
    "simulate": ("depth = 3", "depth", "tree"),
    "meanfield": ("inner_reps = 5", "inner_reps",
                  "simulate, error, chaos, stationary, concentration"),
    "error": ("limit_reps = 5", "limit_reps", "chaos"),
    "chaos": ("record = 1", "record", "simulate"),
    "stationary": ("k = 3", "k", "chaos"),
    "concentration": ("theta = const:5", "theta",
                      "simulate, meanfield, error, chaos, stationary, tree"),
    "tree": ("k_max = 4", "k_max", "simulate, error, stationary"),
}


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_rejects_a_key_it_does_not_read(kind):
    line, key, readers = FOREIGN[kind]
    with pytest.raises(ConfigError) as err:
        parse_config(f"kind = {kind}\n{line}\n")
    assert err.value.problems == [f"{key}: kind {kind} does not read this key; it is read by {readers}"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_key_table_matches_config_keys():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells
    assert list(rows) == list(KEYS)
    for name, (_, default, _, readers) in rows.items():
        key = KEYS[name]
        assert (KINDS if readers == "all" else tuple(re.findall(r"`(\w+)`", readers))) == key.kinds, name
        if isinstance(key.default, str):
            assert default == (f"`{key.default}`" if key.default else "empty"), name


def test_readme_example_configs_validate(tmp_path, capsys):
    lines = README.read_text(encoding="utf-8").splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("    kind = ")]
    assert starts
    for i in starts:
        block = []
        for line in lines[i:]:
            if not line.startswith("    "):
                break
            block.append(line[4:])
        path = tmp_path / f"example{i}.cfg"
        path.write_text("\n".join(block) + "\n")
        assert main(["validate", "--config", str(path)]) == 0, capsys.readouterr().err
