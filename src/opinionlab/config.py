"""Experiment configuration: plain key-value text or JSON.

The native format is one ``key = value`` pair per line with ``#``
comments; hierarchy uses dotted keys.  Vectors are space-separated,
matrices separate rows with ``;``, per-community distribution lists
separate entries with ``|``.  A JSON document (detected by a leading
``{``) with the same keys, possibly nested, is accepted as alternative
input.

Example::

    kind = error
    seed = 42
    out = results
    n_grid = 500 1000 2000
    theta = pow:0.8
    inner_reps = 20
    outer_reps = 3
    model.K = 2
    model.ell = 1
    model.pi = 0.5 0.5
    model.kappa = 2 1 ; 1 2
    model.c = 0.3
    model.d = 0.2
    model.H = 1
    model.weights = point:1 point:1 ; point:1 point:1
    model.beliefs = uniform:-1,1 | uniform:-1,1
    model.signals = uniform:-0.5,0.5 | uniform:-0.5,0.5
"""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .distributions import DistributionError, parse_scalar, parse_vector, supported_in
from .metrics import burn_in_steps, check_burned_in, parse_function
from .model import ModelSpec

KINDS = ("simulate", "meanfield", "error", "chaos", "stationary", "concentration", "tree")

THETA_RULES = ("const", "log", "loglog", "pow", "linear")
# kinds that run one graph size
SINGLE_SIZE_KINDS = ("simulate", "meanfield", "chaos", "stationary")
# the chaos kind's vertex sets when the config lists none
DEFAULT_VERTEX_SETS = [[0]]


class ConfigError(ValueError):
    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def theta_value(rule, n):
    """Evaluate a density rule string at graph size n."""
    kind, _, arg = rule.partition(":")
    if kind not in THETA_RULES:
        raise ConfigError(f"theta: unknown rule {rule!r}")
    try:
        x = float(arg)
    except ValueError:
        raise ConfigError(f"theta: malformed argument in {rule!r}") from None
    if kind == "const":
        return x
    if kind == "log":
        return x * math.log(n)
    if kind == "loglog":
        if n < 2:
            raise ConfigError(f"theta: {rule!r} is undefined at n={n}; loglog needs n >= 2")
        return x * math.log(math.log(n))
    if kind == "pow":
        try:
            return float(n) ** x
        except OverflowError:
            raise ConfigError(f"theta: {rule!r} overflows at n={n}") from None
    return x * n


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    out: str
    model: ModelSpec
    n_grid: list
    theta_rule: str
    inner_reps: int = 10
    outer_reps: int = 1
    threads: int = 1
    k_max: int = 0              # 0: derive from the contraction burn-in
    burn_tol: float = 1e-4
    k: int = 2                  # chaos trajectory length
    vertex_sets: list = field(default_factory=list)
    functions: list = field(default_factory=list)
    measure_functions: list = field(default_factory=list)
    limit_reps: int = 4000
    depth: int = 2              # tree generation depth
    tree_reps: int = 10000
    vertices_checked: int = 100
    stationary_reps: int = 20000
    eps_grid: list = field(default_factory=lambda: [0.1, 0.2, 0.5])
    count_means: list = field(default_factory=lambda: [50.0])
    conc_weight: str = "point:1"
    conc_value: str = "uniform:-1,1"
    record: list = field(default_factory=lambda: [0])

    def thetas(self):
        return [theta_value(self.theta_rule, n) for n in self.n_grid]


_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}


def stationary_k_long(cfg):
    """Steps the stationary kind runs: k_max, else the burn-in to
    burn_tol.  Raises ConfigError unless (1-d)^k_long is below burn_tol."""
    d, tol = cfg.model.d, cfg.burn_tol
    k_long = cfg.k_max if cfg.k_max > 0 else burn_in_steps(d, tol)
    try:
        check_burned_in(d, k_long, tol)
    except ValueError as exc:
        raise ConfigError(f"k_max: {exc}") from None
    return k_long


def graph_size(cfg):
    """The one graph size of a kind in SINGLE_SIZE_KINDS.  Raises
    ConfigError when n_grid lists more than one."""
    if len(cfg.n_grid) > 1:
        raise ConfigError(f"n_grid: kind {cfg.kind} runs one graph size, "
                          f"got {len(cfg.n_grid)}: {' '.join(map(str, cfg.n_grid))}")
    return cfg.n_grid[0]


def concentration_laws(cfg):
    """The concentration kind's weight and value laws.  Raises
    ConfigError when either is malformed or has support outside [0, H]
    or [-1, 1]."""
    laws, problems = [], []
    for key, lo, hi in (("conc_weight", 0.0, cfg.model.H), ("conc_value", -1.0, 1.0)):
        try:
            law = parse_scalar(getattr(cfg, key))
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
            continue
        if not supported_in(law, lo, hi):
            problems.append(f"{key}: support outside [{lo:g}, {hi:g}]")
        laws.append(law)
    if problems:
        raise ConfigError(problems)
    return laws


def _flatten_json(obj, prefix=""):
    """(dotted key, value text) of every leaf of a JSON object read with
    object_pairs_hook=tuple, so that a repeated key stays visible."""
    for key, val in obj:
        dotted = f"{prefix}{key}"
        if isinstance(val, tuple):
            yield from _flatten_json(val, prefix=f"{dotted}.")
        elif isinstance(val, list):
            yield dotted, " ".join(
                ";" if item == ";" else ("|" if item == "|" else str(item)) for item in val
            )
        elif isinstance(val, bool):
            yield dotted, "true" if val else "false"
        else:
            yield dotted, str(val)


def _read_pairs(text):
    """The key -> value text of a config and its problems, among them a
    key given twice (in JSON also a dotted key repeating a nested one)."""
    text = text.strip()
    is_json = text.startswith("{")
    entries, problems = [], []
    if is_json:
        try:
            entries = [(key, val, None) for key, val in
                       _flatten_json(json.loads(text, object_pairs_hook=tuple))]
        except json.JSONDecodeError as exc:
            return {}, [f"malformed JSON: {exc}"]
    for lineno, raw in enumerate([] if is_json else text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        entries.append((key.strip(), value.strip(), lineno))
    pairs, first_line = {}, {}
    for key, value, lineno in entries:
        if key in pairs:
            where = "" if lineno is None else f" on lines {first_line[key]} and {lineno}"
            problems.append(f"{key}: duplicate key{where}")
            continue
        pairs[key], first_line[key] = value, lineno
    return pairs, problems


def _parse_vector_field(text):
    return [float(tok) for tok in text.split()]


def _parse_matrix_field(text):
    rows = [r.strip() for r in text.split(";")]
    # np.array raises ValueError on ragged rows, like float() on a bad token
    return np.array([[float(tok) for tok in row.split()] for row in rows if row])


def _parse_model(pairs, problems):
    def take(key, default=None):
        return pairs.pop(f"model.{key}", default)

    def bad(key, msg):
        problems.append(f"model.{key}: {msg}")

    def count(key, what):
        # a bad count is reported, then replaced by 1 to size the defaults below
        try:
            val = int(take(key, "1"))
        except ValueError:
            bad(key, "not an integer")
            return 1
        if val < 1:
            bad(key, f"{what} count must be >= 1, got {val}")
            return 1
        return val

    K = count("K", "community")
    ell = count("ell", "topic")

    def number(key, default):
        txt = take(key, default)
        try:
            return float(txt)
        except ValueError:
            bad(key, f"not a number: {txt!r}")
            return float(default)

    c = number("c", "0.3")
    d = number("d", "0.2")
    H = number("H", "1")
    w = number("signal_belief_weight", "0")

    try:
        pi = _parse_vector_field(take("pi", " ".join([repr(1.0 / K)] * K)))
    except ValueError:
        bad("pi", "malformed vector")
        pi = [1.0 / K] * K
    try:
        kappa = _parse_matrix_field(take("kappa", ";".join([" ".join(["1"] * K)] * K)))
    except ValueError:
        bad("kappa", "malformed matrix")
        kappa = [[1.0] * K for _ in range(K)]

    def dist_matrix(key, default_tok):
        text = take(key, None)
        if text is None:
            return [[parse_scalar(default_tok)] * K for _ in range(K)]
        try:
            rows = [r.strip() for r in text.split(";") if r.strip()]
            if len(rows) == 1 and K > 1 and len(rows[0].split()) == 1:
                return [[parse_scalar(rows[0])] * K for _ in range(K)]
            return [[parse_scalar(tok) for tok in row.split()] for row in rows]
        except DistributionError as exc:
            bad(key, str(exc))
            return [[parse_scalar(default_tok)] * K for _ in range(K)]

    def dist_list(key, default_tok):
        text = take(key, None)
        if text is None:
            return [parse_vector(default_tok, ell) for _ in range(K)]
        if text == "beliefs":
            return "beliefs"
        try:
            entries = [e.strip() for e in text.split("|") if e.strip()]
            if len(entries) == 1 and K > 1:
                entries = entries * K
            return [parse_vector(entry, ell) for entry in entries]
        except DistributionError as exc:
            bad(key, str(exc))
            return [parse_vector(default_tok, ell) for _ in range(K)]

    weights = dist_matrix("weights", "uniform:0,1")
    beliefs = dist_list("beliefs", "uniform:-1,1")
    signals = dist_list("signals", "uniform:-1,1")
    init = dist_list("init", "uniform:-1,1")
    flag = take("fixed_composition", "false")
    fixed = flag.lower() in ("true", "1", "yes")
    if not fixed and flag.lower() not in ("false", "0", "no"):
        bad("fixed_composition", f"not a boolean: {flag!r}; use true/false, 1/0 or yes/no")

    spec = ModelSpec(
        K=K, ell=ell, pi=np.asarray(pi), kappa=np.asarray(kappa), c=c, d=d, H=H,
        weight_dists=weights,
        belief_dists=beliefs if beliefs != "beliefs" else [],
        signal_dists=signals if signals != "beliefs" else [],
        signal_belief_weight=w, init_dists=init, fixed_composition=fixed,
    )
    if beliefs == "beliefs" or signals == "beliefs":
        problems.append("model.beliefs/model.signals: 'beliefs' only valid for model.init")
    for issue in spec.validate():
        problems.append(f"model.{issue}")
    return spec


def parse_config(text):
    """Parse and validate; raises ConfigError carrying every violation."""
    pairs, problems = _read_pairs(text)
    model = _parse_model(pairs, problems)

    def take(key, default=None):
        return pairs.pop(key, default)

    kind = take("kind", "error")
    if kind not in KINDS:
        problems.append(f"kind: unknown experiment kind {kind!r}; options: {', '.join(KINDS)}")

    def integer(key, default, minimum=None):
        txt = take(key, str(default))
        try:
            val = int(txt)
        except ValueError:
            problems.append(f"{key}: not an integer: {txt!r}")
            return default
        if minimum is not None and val < minimum:
            problems.append(f"{key}: must be >= {minimum}, got {val}")
        return val

    def floating(key, default, positive=False):
        txt = take(key, str(default))
        try:
            val = float(txt)
        except ValueError:
            problems.append(f"{key}: not a number: {txt!r}")
            return default
        if not math.isfinite(val):
            problems.append(f"{key}: must be finite, got {txt!r}")
        elif positive and val <= 0:
            problems.append(f"{key}: must be positive, got {val}")
        return val

    seed = integer("seed", 0, minimum=0)
    out = take("out", "results")

    def listed(key, default, parse):
        txt = take(key, default)
        try:
            return parse(txt)
        except ValueError:
            problems.append(f"{key}: malformed list {txt!r}")
            return parse(default)

    def ints(txt):
        return [int(tok) for tok in txt.split()]

    n_grid = listed("n_grid", "1000", ints)
    if not n_grid:
        problems.append("n_grid: must not be empty")
    if any(n < 1 for n in n_grid):
        problems.append("n_grid: entries must be >= 1")
    record = listed("record", "0", ints)

    theta_rule = take("theta", "log:1")
    for n in n_grid:
        if n < 1:
            continue
        try:
            theta = theta_value(theta_rule, n)
        except ConfigError as exc:
            problems.extend(exc.problems)
            break
        if not 0 < theta < math.inf:
            problems.append(f"theta: rule {theta_rule!r} gives theta={theta} at n={n}; "
                            "need a finite positive value")
            break

    vertex_sets = listed(
        "vertex_sets", "", lambda txt: [ints(part) for part in txt.split(";") if part.strip()]
    )
    # simulate records and chaos samples vertices of its one graph size
    for key, ids in (("record", record), ("vertex_sets", [v for vs in vertex_sets for v in vs])):
        if any(v < 0 for v in ids):
            problems.append(f"{key}: vertex ids must be >= 0, got {min(ids)}")
        elif n_grid and any(v >= n_grid[0] for v in ids):
            problems.append(f"{key}: vertex ids must be below n = {n_grid[0]}, got {max(ids)}")
    functions = [
        part.split() for part in take("functions", "").split(";") if part.strip()
    ]
    measure_functions = take("measure_functions", "").split()
    k = integer("k", _DEFAULTS["k"], minimum=0)
    if functions:
        sets = vertex_sets or DEFAULT_VERTEX_SETS
        if len(functions) != len(sets):
            problems.append(f"functions: {len(functions)} rows for {len(sets)} vertex sets; "
                            "give one row per set")
        for i, (vs, fids) in enumerate(zip(sets, functions)):
            if len(fids) != len(vs):
                problems.append(f"functions: row {i} has {len(fids)} ids for {len(vs)} vertices")
    for key, fids in (("functions", [f for fs in functions for f in fs]),
                      ("measure_functions", measure_functions)):
        for fid in fids:
            try:
                parse_function(fid, model.ell, k)
            except ValueError as exc:
                problems.append(f"{key}: {exc}")
    conc = {}
    for key in ("conc_weight", "conc_value"):
        conc[key] = take(key, _DEFAULTS[key])
        try:
            parse_scalar(conc[key])
        except ValueError as exc:
            problems.append(f"{key}: {exc}")
    eps_grid = listed("eps_grid", "0.1 0.2 0.5", _parse_vector_field)
    count_means = listed("count_means", "50", _parse_vector_field)
    for key, vals in (("eps_grid", eps_grid), ("count_means", count_means)):
        if not all(0 < v < math.inf for v in vals):
            problems.append(f"{key}: entries must be finite and positive")

    cfg = ExperimentConfig(
        kind=kind, seed=seed, out=out, model=model, n_grid=n_grid, theta_rule=theta_rule,
        inner_reps=integer("inner_reps", _DEFAULTS["inner_reps"], minimum=1),
        outer_reps=integer("outer_reps", _DEFAULTS["outer_reps"], minimum=1),
        threads=integer("threads", _DEFAULTS["threads"], minimum=1),
        k_max=integer("k_max", _DEFAULTS["k_max"], minimum=0),
        burn_tol=floating("burn_tol", _DEFAULTS["burn_tol"], positive=True),
        k=k,
        vertex_sets=vertex_sets,
        functions=functions,
        measure_functions=measure_functions,
        limit_reps=integer("limit_reps", _DEFAULTS["limit_reps"], minimum=1),
        depth=integer("depth", _DEFAULTS["depth"], minimum=1),
        tree_reps=integer("tree_reps", _DEFAULTS["tree_reps"], minimum=1),
        vertices_checked=integer("vertices_checked", _DEFAULTS["vertices_checked"], minimum=1),
        stationary_reps=integer("stationary_reps", _DEFAULTS["stationary_reps"], minimum=1),
        eps_grid=eps_grid,
        count_means=count_means,
        conc_weight=conc["conc_weight"],
        conc_value=conc["conc_value"],
        record=record,
    )
    if kind in SINGLE_SIZE_KINDS and n_grid:
        try:
            graph_size(cfg)
        except ConfigError as exc:
            problems.extend(exc.problems)
    if kind == "concentration":
        try:
            concentration_laws(cfg)
        except ConfigError as exc:  # a malformed law is already listed
            problems.extend(p for p in exc.problems if p not in problems)
    if kind == "stationary" and not problems:
        try:
            stationary_k_long(cfg)
        except ConfigError as exc:
            problems.extend(exc.problems)
    for key in pairs:
        problems.append(f"{key}: unknown key")
    if problems:
        raise ConfigError(problems)
    return cfg
