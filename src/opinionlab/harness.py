"""Experiment orchestration, CSV/JSON persistence, run manifest.

Each kind returns its summary and its files, a map from output name to
(header, rows) for a CSV and to a JSON-able object for a JSON file.
``run`` creates the output directory and writes the files only after
the kind has finished, so a run that fails leaves no output directory,
and a directory that already existed is left as it was.

For a fixed (config, seed) every output byte is reproducible except the
manifest's timestamp, wall time, thread count, cores available and peak
RSS.  CSVs are UTF-8, comma-separated with LF line endings and a header
on the first line; a field holding a comma or a quote is quoted as RFC
4180 does; numbers use Python's shortest round-trip representation.
"""

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import rng as rngmod
from .rng import substream
from .config import theta_value
from .graph import normalize_weights, sample_graph, sample_labels
from .dynamics import simulate
from .meanfield import mixing_matrix, regime_stats
from .gwtree import a_s_profile, neighborhood_diagnostic, offspring_means
from .metrics import (
    ConcentrationCase, chaos_experiment, concentration_check,
    error_experiment, label_point, stationarity_experiment,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_field(value):
    """A field as RFC 4180 writes it: quoted, with inner quotes doubled,
    when it holds a comma or a quote (function ids such as proj:0,3)."""
    text = _fmt(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_field(v) for v in row) + "\n")


def config_hash(cfg):
    """Digest of the config fields that can change output bytes: the
    canonical JSON of the parsed config with threads and out blanked."""
    text = json.dumps(dataclasses.replace(cfg, threads=1, out=""), sort_keys=True,
                      default=_json_default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(cfg, out_dir=None):
    """Execute one experiment; returns the machine-readable summary."""
    started = time.time()
    dispatch = {
        "error": _run_error,
        "chaos": _run_chaos,
        "stationary": _run_stationary,
        "concentration": _run_concentration,
        "tree": _run_tree,
        "simulate": _run_simulate,
        "meanfield": _run_meanfield,
    }
    summary, files = dispatch[cfg.kind](cfg)
    # a copy: the meanfield summary is also its model_report.json
    summary = dict(summary, kind=cfg.kind, seed=cfg.seed)
    files["summary.json"] = summary
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if name.endswith(".csv"):
            write_csv(out / name, *content)
        else:
            _write_json(out / name, content)
    _write_json(out / "manifest.json", {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "kind": cfg.kind,
        "threads": cfg.threads,
        "cores_available": os.cpu_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "versions": {
            "opinionlab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": sorted(files),
        "wall_time_s": time.time() - started,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })
    return summary


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    """A dataclass as its type name and field values; numpy scalars and
    arrays as Python values."""
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _run_error(cfg):
    curve = error_experiment(
        cfg.model, cfg.n_grid, lambda n: theta_value(cfg.theta_rule, n),
        cfg.k_max, cfg.inner_reps, cfg.outer_reps, cfg.seed, threads=cfg.threads,
    )
    by_n = curve.by_n()
    rows = []
    for n in cfg.n_grid:
        agg = by_n[n]
        theta, reps, dense = agg["theta"], agg["reps"], agg["dense_ok"]
        for k in range(curve.k_max + 1):
            for norm in ("inf", "row_l1"):
                est, se = agg[norm][k]
                rows.append((n, theta, k, norm, est, se, reps, dense))
        for norm, key in (("inf", "sup_inf"), ("row_l1", "sup_row")):
            rows.append((n, theta, -1, norm, agg[key], agg[key + "_se"], reps, dense))
    summary = {
        "k_max": curve.k_max,
        "points": [
            {
                "n": p.n, "theta": p.theta, "outer": p.outer, "reps": p.reps,
                "sup_inf": p.sup_inf, "sup_inf_se": p.sup_inf_se,
                "sup_row": p.sup_row, "sup_row_se": p.sup_row_se,
                "dense_ok": p.dense_ok, "edge_prob_clipped": p.edge_prob_clipped,
                "share_mismatch": p.share_mismatch,
            }
            for p in curve.points
        ],
    }
    return summary, {"error_curve.csv": (
        ["n", "theta", "k", "norm_type", "estimate", "stderr", "reps", "dense_ok"], rows)}


def _run_chaos(cfg):
    n = cfg.n_grid[0]
    theta = theta_value(cfg.theta_rule, n)
    chaos_rows = chaos_experiment(
        cfg.model, n, theta, cfg.k, cfg.vertex_sets, cfg.functions, cfg.inner_reps, cfg.seed,
        measure_functions=cfg.measure_functions, limit_reps=cfg.limit_reps,
        threads=cfg.threads,
    )
    rows = [
        (n, cfg.k, row["statistic"], _joined(row["vertices"]), _joined(row["communities"]),
         _joined(row["functions"]), row["graph_estimate"], row["graph_se"],
         row["limit_estimate"], row["limit_se"], row["gap"])
        for row in chaos_rows
    ]
    return {"n": n, "theta": theta, "rows": chaos_rows}, {"chaos.csv": (
        ["n", "k", "statistic", "vertices", "communities", "functions",
         "graph_estimate", "graph_stderr", "limit_estimate", "limit_stderr", "gap"], rows)}


def _joined(values):
    """A row's vertex, community or function list as one space-separated
    field; a text value (the vertices of a pooled row) as it is."""
    return values if isinstance(values, str) else " ".join(map(str, values))


def _run_stationary(cfg):
    n = cfg.n_grid[0]
    theta = theta_value(cfg.theta_rule, n)
    stat_rows, horizon = stationarity_experiment(
        cfg.model, n, theta, cfg.k_max, cfg.inner_reps, cfg.burn_tol, cfg.seed,
        stationary_reps=cfg.stationary_reps, threads=cfg.threads,
    )
    rows = [
        (n, theta, row["community"], row["topic"], row["moment"],
         row["graph_estimate"], row["graph_se"], row["limit_estimate"],
         row["limit_se"], row["gap"], row["combined_se"])
        for row in stat_rows
    ]
    return {"n": n, "theta": theta, "k_long": cfg.k_max, "horizon": horizon,
            "rows": stat_rows}, {"stationarity.csv": (
        ["n", "theta", "community", "topic", "moment", "graph_estimate", "graph_stderr",
         "stationary_estimate", "stationary_stderr", "gap", "combined_stderr"], rows)}


def _run_concentration(cfg):
    rows = []
    summaries = []
    for case_idx, mean in enumerate(cfg.count_means):
        case = ConcentrationCase(
            count_dists=[("poisson", mean)],
            weight_dist=cfg.conc_weight,
            value_dist=cfg.conc_value,
            H=cfg.model.H,
            eps_grid=tuple(cfg.eps_grid),
        )
        report = concentration_check(case, cfg.inner_reps, (cfg.seed, case_idx))
        for row in report.rows:
            rows.append(
                (f"poisson:{mean:g}", row["epsilon"], row["statistic"],
                 row["empirical_tail"], row["stderr"], row["bound"], cfg.inner_reps)
            )
        summaries.append({"case": f"poisson:{mean:g}", "mu": report.mu, "nu": report.nu,
                          "rows": report.rows})
    return {"cases": summaries}, {"concentration.csv": (
        ["case", "epsilon", "statistic", "empirical_tail", "stderr", "bound", "replications"],
        rows)}


def _run_tree(cfg):
    spec = cfg.model
    scaling_rows = []
    diag_rows = []
    # node values drawn from the first-topic belief law of each community
    value_dists = [dist.components[0] for dist in spec.belief_dists]
    mixing = mixing_matrix(spec.pi, spec.kappa, spec.weight_mean_matrix())
    for point_idx, n in enumerate(cfg.n_grid):
        theta = theta_value(cfg.theta_rule, n)
        q = offspring_means(spec, spec.pi, theta)
        for root_type in range(spec.K):
            ests, ses = a_s_profile(
                spec, root_type, cfg.depth, value_dists, q, mixing,
                cfg.tree_reps, (cfg.seed, point_idx, root_type), threads=cfg.threads,
            )
            for s in range(1, cfg.depth + 1):
                scaling_rows.append((theta, root_type, s, float(ests[s - 1]),
                                     float(ses[s - 1]), cfg.tree_reps))
        non_tree = 0
        checked = 0
        for g in range(cfg.outer_reps):
            labels = sample_labels(spec, n, (cfg.seed, point_idx, g))
            graph = sample_graph(spec, labels, theta, (cfg.seed, point_idx, g))
            pick = substream((cfg.seed, point_idx, g), rngmod.TREE)
            vertices = pick.choice(n, size=min(cfg.vertices_checked, n), replace=False)
            for v in vertices:
                checked += 1
                non_tree += neighborhood_diagnostic(graph, int(v), cfg.depth) < cfg.depth
        diag_rows.append((n, theta, cfg.depth, checked,
                          non_tree / checked if checked else 0.0))
    return {"scaling": scaling_rows, "diagnostic": diag_rows}, {
        "tree_scaling.csv": (
            ["theta", "root_type", "s", "estimate", "stderr", "replications"], scaling_rows),
        "tree_diagnostic.csv": (
            ["n", "theta", "depth", "vertex_count_checked", "non_tree_fraction"], diag_rows),
    }


def _run_simulate(cfg):
    spec = cfg.model
    n, k_max = cfg.n_grid[0], cfg.k_max
    theta = theta_value(cfg.theta_rule, n)
    rows = []
    for rep in range(cfg.inner_reps):
        seed = (cfg.seed, rep)
        graph = sample_graph(spec, sample_labels(spec, n, seed), theta, seed)
        traj, _ = simulate(spec, graph, normalize_weights(graph), k_max, seed, record=cfg.record)
        for v, community, values in zip(traj.vertices, traj.communities, traj.values):
            for t in range(k_max + 1):
                for topic in range(spec.ell):
                    rows.append((rep, int(v), int(community), t, topic, float(values[topic, t])))
    return {"n": n, "theta": theta, "k_max": k_max, "recorded": cfg.record}, {
        "trajectories.csv": (["replication", "vertex", "community", "time", "topic", "value"],
                             rows)}


def _run_meanfield(cfg):
    spec = cfg.model
    n = cfg.n_grid[0]
    theta = theta_value(cfg.theta_rule, n)
    _, census, model, _ = label_point(spec, n, theta, (cfg.seed, 0))
    stats = regime_stats(spec, census / n, n, theta)
    report = {
        "n": n,
        "theta": theta,
        "mixing": model.mixing.tolist(),
        "mixing_empirical": model.mixing_emp.tolist(),
        "signal_mean": model.signal_mean.tolist(),
        "initial_mean": model.initial_mean.tolist(),
        "no_inbound_prob": model.no_inbound_prob.tolist(),
        "regime": {
            "mu": stats.mu.tolist(),
            "nu": stats.nu.tolist(),
            "delta": stats.delta,
            "lambda": stats.lam,
            "share_mismatch": stats.share_mismatch,
            "dense_ok": stats.dense_ok,
            "edge_prob_clipped": stats.edge_prob_clipped,
            "nonzero_rows": stats.nonzero_rows.tolist(),
        },
    }
    return report, {"model_report.json": report}
