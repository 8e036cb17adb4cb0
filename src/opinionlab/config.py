"""Experiment configuration: plain key-value text or JSON.

The native format is one ``key = value`` pair per line with ``#``
comments; hierarchy uses dotted keys.  Vectors are space-separated,
matrices separate rows with ``;``, per-community distribution lists
separate entries with ``|``.  A JSON document (detected by a leading
``{``) with the same keys, possibly nested, is accepted as alternative
input.

Every key is declared once, in ``KEYS``: its default, its parser, the
experiment kinds that read it and the keys its default or parser reads.
The parser holds every bound on the key, also the bounds that read other
keys (c + d <= 1 is ``model.d``'s, vertex ids below n are ``record``'s
and ``vertex_sets``'s), and no check runs after the keys are parsed.  A
key that the kind being run does not read is an error.  A key that reads
an invalid key is skipped, so only the root key is reported.

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
from dataclasses import dataclass

import numpy as np

from .distributions import parse_scalar, parse_vector, supported_in
from .metrics import burn_in_steps, check_burned_in, parse_function
from .model import ModelSpec

KINDS = ("simulate", "meanfield", "error", "chaos", "stationary", "concentration", "tree")

THETA_RULES = ("const", "log", "loglog", "pow", "linear")
# kinds that run one graph size
SINGLE_SIZE_KINDS = ("simulate", "meanfield", "chaos", "stationary")


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
        raise ConfigError(f"unknown rule {rule!r}")
    try:
        x = float(arg)
    except ValueError:
        raise ConfigError(f"malformed argument in {rule!r}") from None
    if kind == "const":
        return x
    if kind == "log":
        return x * math.log(n)
    if kind == "loglog":
        if n < 2:
            raise ConfigError(f"{rule!r} is undefined at n={n}; loglog needs n >= 2")
        return x * math.log(math.log(n))
    if kind == "pow":
        try:
            return float(n) ** x
        except OverflowError:
            raise ConfigError(f"{rule!r} overflows at n={n}") from None
    return x * n


@dataclass
class ExperimentConfig:
    """A parsed config; ``KEYS`` gives each field's key, default and bound."""

    kind: str
    seed: int
    out: str
    model: ModelSpec
    n_grid: list
    theta_rule: str
    inner_reps: int
    outer_reps: int
    threads: int
    k_max: int
    burn_tol: float
    k: int
    vertex_sets: list
    functions: list
    measure_functions: list
    limit_reps: int
    depth: int
    tree_reps: int
    vertices_checked: int
    stationary_reps: int
    eps_grid: list
    count_means: list
    conc_weight: object
    conc_value: object
    record: list

    def thetas(self):
        return [theta_value(self.theta_rule, n) for n in self.n_grid]


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




# ---------------------------------------------------------------------------
# Value parsers: (text, the values of the keys parsed before) -> value.  A
# parser holds its key's whole bound, also where the bound reads other keys;
# a text out of bounds raises ValueError naming the problem.  values holds
# "kind" only when the kind is valid, so a parser reads it with get.


def _text(text, values):
    return text


def _kind(text, values):
    if text not in KINDS:
        raise ValueError(f"unknown experiment kind {text!r}; options: {', '.join(KINDS)}")
    return text


def _integer(minimum):
    def parse(text, values):
        try:
            val = int(text)
        except ValueError:
            raise ValueError(f"not an integer: {text!r}") from None
        if val < minimum:
            raise ValueError(f"must be >= {minimum}, got {val}")
        return val
    return parse


def _real(within=lambda x: True, need=""):
    """A finite number x with within(x); need, formatted with x, is the
    problem when it fails."""
    def parse(text, values):
        try:
            val = float(text)
        except ValueError:
            raise ValueError(f"not a number: {text!r}") from None
        if not math.isfinite(val):
            raise ValueError(f"must be finite, got {text!r}")
        if not within(val):
            raise ValueError(need.format(x=val))
        return val
    return parse


_positive = _real(lambda x: x > 0, "must be positive, got {x}")


def _boolean(text, values):
    flag = text.lower()
    if flag not in ("true", "1", "yes", "false", "0", "no"):
        raise ValueError(f"not a boolean: {text!r}; use true/false, 1/0 or yes/no")
    return flag in ("true", "1", "yes")


def _tokens(item):
    """A space-separated list, each token read by item."""
    def parse(text, values):
        return [item(tok, values) for tok in text.split()]
    return parse


def _rows(row):
    """A ';'-separated list of rows, each read by row; blank rows are skipped."""
    def parse(text, values):
        return [row(part, values) for part in text.split(";") if part.strip()]
    return parse


def _shares(text, values):
    K = values["model.K"]
    pi = np.array(_tokens(_real())(text, values))
    if pi.shape != (K,):
        raise ValueError(f"expected length {K}, got shape {pi.shape}")
    if np.any(pi <= 0):
        raise ValueError("all community shares must be positive")
    if abs(pi.sum() - 1.0) > 1e-9:
        raise ValueError(f"shares sum to {pi.sum()}, expected 1")
    return pi


def _kernel(text, values):
    K = values["model.K"]
    rows = _rows(_tokens(_real()))(text, values)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("rows differ in length")
    kappa = np.array(rows)
    if kappa.shape != (K, K):
        raise ValueError(f"expected shape {(K, K)}, got {kappa.shape}")
    if np.any(kappa < 0):
        raise ValueError("kernel entries must be nonnegative")
    return kappa


def _external_weight(text, values):
    d = _real(lambda x: x > 0, "external weight must be positive")(text, values)
    c = values["model.c"]
    if c + d > 1 + 1e-12:
        raise ValueError(f"c + d = {c + d} exceeds 1")
    return d


def _weight_laws(text, values):
    """K x K laws on [0, H], rows ';'-separated; one token is every entry's law."""
    K, H = values["model.K"], values["model.H"]
    rows = _rows(lambda row, _: [parse_scalar(tok) for tok in row.split()])(text, values)
    if len(rows) == 1 and len(rows[0]) == 1:
        rows = [rows[0] * K for _ in range(K)]
    if len(rows) != K or any(len(row) != K for row in rows):
        raise ValueError(f"expected {K}x{K} entries")
    for r, row in enumerate(rows):
        for s, law in enumerate(row):
            if not supported_in(law, 0.0, H):
                raise ValueError(f"entry [{r}][{s}]: support outside [0, {H}]")
    return rows


def _vector_laws(text, values):
    """K ell-vector laws on [-1, 1]^ell, '|'-separated; one entry is every
    community's law."""
    K = values["model.K"]
    laws = [parse_vector(part, values["model.ell"]) for part in text.split("|") if part.strip()]
    laws = laws * K if len(laws) == 1 else laws
    if len(laws) != K:
        raise ValueError(f"expected {K} entries")
    for r, law in enumerate(laws):
        if not supported_in(law, -1.0, 1.0):
            raise ValueError(f"entry [{r}]: support outside [-1, 1]")
    return laws


def _initial_laws(text, values):
    return text if text == "beliefs" else _vector_laws(text, values)


def _sizes(text, values):
    sizes = _tokens(_integer(1))(text, values)
    if not sizes:
        raise ValueError("must not be empty")
    kind = values.get("kind")
    if kind in SINGLE_SIZE_KINDS and len(sizes) > 1:
        raise ValueError(f"kind {kind} runs one graph size, "
                         f"got {len(sizes)}: {' '.join(map(str, sizes))}")
    return sizes


def _theta_rule(text, values):
    for n in values["n_grid"]:
        theta = theta_value(text, n)
        if not 0 < theta < math.inf:
            raise ValueError(f"rule {text!r} gives theta={theta} at n={n}; "
                             "need a finite positive value")
    return text


def _steps(text, values):
    """k_max, where 0 runs the burn-in steps.  The stationary kind burns
    in to burn_tol, and k_max must reach it: (1-d)^k_max below burn_tol."""
    k, d = _integer(0)(text, values), values["model.d"]
    if values.get("kind") != "stationary":
        return k or burn_in_steps(d)
    tol = values["burn_tol"]
    k = k or burn_in_steps(d, tol)
    check_burned_in(d, k, tol)
    return k


def _vertex_ids(text, values):
    """Vertex ids below the one graph size n."""
    ids, n = _tokens(_integer(0))(text, values), values["n_grid"][0]
    if ids and max(ids) >= n:
        raise ValueError(f"vertex ids must be below n = {n}, got {max(ids)}")
    return ids


def _function_ids(text, values):
    fids = text.split()
    for fid in fids:
        parse_function(fid, values["model.ell"], values["k"])
    return fids


def _set_functions(text, values):
    """One ';'-separated row of function ids per vertex set, one id per vertex."""
    rows, sets = _rows(_function_ids)(text, values), values["vertex_sets"]
    if len(rows) != len(sets):
        raise ValueError(f"{len(rows)} rows for {len(sets)} vertex sets; give one row per set")
    for i, (vs, fids) in enumerate(zip(sets, rows)):
        if len(fids) != len(vs):
            raise ValueError(f"row {i} has {len(fids)} ids for {len(vs)} vertices")
    return rows


def _concentration_law(bounds):
    """A scalar law; the concentration kind draws it, which needs its
    support inside bounds(values)."""
    def parse(text, values):
        law = parse_scalar(text)
        lo, hi = bounds(values)
        if values.get("kind") == "concentration" and not supported_in(law, lo, hi):
            raise ValueError(f"support outside [{lo:g}, {hi:g}]")
        return law
    return parse


@dataclass
class Key:
    """One config key.  ``default`` is the text the key takes when a
    config omits it, or a function of the values parsed before it that
    returns that text.  ``parse`` turns text into the value and holds
    the whole bound; ``kinds`` are the experiment kinds that read the
    key; ``field`` is the ExperimentConfig or ModelSpec field it fills;
    ``reads`` are the keys whose values its default or its parser reads,
    besides ``kind``."""

    name: str
    default: object
    parse: object
    kinds: tuple = KINDS
    field: str = ""
    reads: tuple = ()

    def __post_init__(self):
        self.field = self.field or self.name.removeprefix("model.")

    def default_text(self, values):
        return self.default(values) if callable(self.default) else self.default


_GRAPH_KINDS = tuple(kind for kind in KINDS if kind != "concentration")
_SIZES = ("model.K", "model.ell")

# in parse order: a parser and a default may read the values of the keys above them
KEYS = {key.name: key for key in (
    Key("kind", "error", _kind),
    Key("seed", "0", _integer(0)),
    Key("out", "results", _text),
    Key("threads", "1", _integer(1)),
    Key("model.K", "1", _integer(1)),
    Key("model.ell", "1", _integer(1)),
    Key("model.pi", lambda v: " ".join([repr(1.0 / v["model.K"])] * v["model.K"]),
        _shares, reads=("model.K",)),
    Key("model.kappa", lambda v: ";".join([" ".join(["1"] * v["model.K"])] * v["model.K"]),
        _kernel, reads=("model.K",)),
    Key("model.c", "0.3", _real(lambda x: x >= 0, "network weight must be nonnegative")),
    Key("model.d", "0.2", _external_weight, reads=("model.c",)),
    Key("model.H", "1", _real(lambda x: x > 0, "weight cap must be positive")),
    Key("model.signal_belief_weight", "0", _real(lambda x: 0 <= x <= 1, "must lie in [0, 1]")),
    Key("model.weights", "uniform:0,1", _weight_laws, field="weight_dists",
        reads=("model.K", "model.H")),
    Key("model.beliefs", "uniform:-1,1", _vector_laws, field="belief_dists", reads=_SIZES),
    Key("model.signals", "uniform:-1,1", _vector_laws, field="signal_dists", reads=_SIZES),
    Key("model.init", "uniform:-1,1", _initial_laws, field="init_dists", reads=_SIZES),
    Key("model.fixed_composition", "false", _boolean),
    Key("n_grid", "1000", _sizes, _GRAPH_KINDS),
    Key("theta", "log:1", _theta_rule, _GRAPH_KINDS, field="theta_rule", reads=("n_grid",)),
    Key("inner_reps", "10", _integer(1),
        ("simulate", "error", "chaos", "stationary", "concentration")),
    Key("outer_reps", "1", _integer(1), ("error", "tree")),
    Key("burn_tol", "1e-4", _positive, ("stationary",)),
    Key("k_max", "0", _steps, ("simulate", "error", "stationary"),
        reads=("model.d", "burn_tol")),
    Key("stationary_reps", "20000", _integer(1), ("stationary",)),
    Key("k", "2", _integer(0), ("chaos",)),
    Key("vertex_sets", "0", _rows(_vertex_ids), ("chaos",), reads=("n_grid",)),
    Key("functions",
        lambda v: ";".join(" ".join([f"proj:0,{v['k']}"] * len(vs)) for vs in v["vertex_sets"]),
        _set_functions, ("chaos",), reads=("model.ell", "k", "vertex_sets")),
    Key("measure_functions", "", _function_ids, ("chaos",), reads=("model.ell", "k")),
    Key("limit_reps", "4000", _integer(1), ("chaos",)),
    Key("depth", "2", _integer(1), ("tree",)),
    Key("tree_reps", "10000", _integer(1), ("tree",)),
    Key("vertices_checked", "100", _integer(1), ("tree",)),
    Key("eps_grid", "0.1 0.2 0.5", _tokens(_positive), ("concentration",)),
    Key("count_means", "50", _tokens(_positive), ("concentration",)),
    Key("conc_weight", "point:1", _concentration_law(lambda v: (0.0, v["model.H"])),
        ("concentration",), reads=("model.H",)),
    Key("conc_value", "uniform:-1,1", _concentration_law(lambda v: (-1.0, 1.0)),
        ("concentration",)),
    Key("record", "0", _vertex_ids, ("simulate",), reads=("n_grid",)),
)}


def parse_config(text, **overrides):
    """Parse and validate a config for the kind that runs; raises
    ConfigError carrying every violation.  Each override is the value
    text of a key (a run command's kind, --seed or --out) and replaces
    the config's own, so that key's parser checks it.  A key that fails
    holds no value, and a key that reads one that failed is skipped, so
    only the root key is reported."""
    pairs, problems = _read_pairs(text)
    pairs.update(overrides)
    kind = pairs.get("kind", KEYS["kind"].default)
    values, failed = {}, set()
    for name, key in KEYS.items():
        given = pairs.pop(name, None)
        if given is not None and kind in KINDS and kind not in key.kinds:
            problems.append(f"{name}: kind {kind} does not read this key; "
                            f"it is read by {', '.join(key.kinds)}")
            given = None
        if not failed.isdisjoint(key.reads):
            failed.add(name)
            continue
        try:
            values[name] = key.parse(key.default_text(values) if given is None else given,
                                     values)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
            failed.add(name)
        except MemoryError:  # a default or value sized by a huge key, as K x K model.kappa
            at = ", ".join(f"{read} = {values[read]}" for read in key.reads)
            problems.append(f"{name}: does not fit in memory" + (at and f" at {at}"))
            raise ConfigError(problems) from None
    problems.extend(f"{name}: unknown key" for name in pairs)
    if problems:
        raise ConfigError(problems)

    def filled(model_keys):
        return {key.field: values[name] for name, key in KEYS.items()
                if name.startswith("model.") == model_keys}

    return ExperimentConfig(model=ModelSpec(**filled(True)), **filled(False))
