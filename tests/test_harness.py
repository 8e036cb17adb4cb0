import csv
import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from opinionlab.config import KEYS, parse_config
from opinionlab.harness import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, run
from opinionlab.cli import main

BASE_MODEL = """
model.K = 2
model.ell = 1
model.pi = 0.5 0.5
model.kappa = 2 1 ; 1 2
model.c = 0.3
model.d = 0.25
model.H = 1
model.weights = point:1
model.beliefs = uniform:-1,1
model.signals = uniform:-0.4,0.4 | uniform:-0.2,0.6
"""


def make_config(kind, extra=""):
    """A config of the given kind; of the base keys it holds those the kind reads."""
    base = "".join(f"{key} = {val}\n" for key, val in (
        ("seed", "5"), ("n_grid", "120"), ("theta", "const:10"), ("inner_reps", "3"),
    ) if kind in KEYS[key].kinds)
    return f"kind = {kind}\n{base}{extra}\n{BASE_MODEL}"


def read_lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines()


def test_error_run_outputs(tmp_path):
    cfg = parse_config(make_config("error", "outer_reps = 2\nk_max = 5"))
    summary = run(cfg, tmp_path)
    lines = read_lines(tmp_path / "error_curve.csv")
    assert lines[0] == "n,theta,k,norm_type,estimate,stderr,reps,dense_ok"
    assert len(lines) == 1 + 2 * (5 + 2)  # per-k rows plus sup rows, two norms
    assert (tmp_path / "manifest.json").exists()
    assert len(summary["points"]) == 2


def test_rerun_byte_identical_csv(tmp_path):
    cfg = parse_config(make_config("error", "outer_reps = 1\nk_max = 4"))
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    body_a = (tmp_path / "a" / "error_curve.csv").read_bytes()
    body_b = (tmp_path / "b" / "error_curve.csv").read_bytes()
    assert body_a == body_b
    sum_a = json.loads((tmp_path / "a" / "summary.json").read_text())
    sum_b = json.loads((tmp_path / "b" / "summary.json").read_text())
    assert sum_a == sum_b


def test_thread_count_does_not_change_outputs(tmp_path):
    base = make_config("error", "outer_reps = 1\nk_max = 4")
    cfg1 = parse_config(base + "threads = 1\n")
    cfg2 = parse_config(base + "threads = 3\n")
    run(cfg1, tmp_path / "t1")
    run(cfg2, tmp_path / "t3")
    assert (tmp_path / "t1" / "error_curve.csv").read_bytes() == (
        tmp_path / "t3" / "error_curve.csv"
    ).read_bytes()


def test_simulate_trajectory_csv(tmp_path):
    cfg = parse_config(make_config("simulate", "k_max = 3\nrecord = 0 5"))
    run(cfg, tmp_path)
    lines = read_lines(tmp_path / "trajectories.csv")
    assert lines[0] == "replication,vertex,community,time,topic,value"
    assert len(lines) == 1 + 3 * 2 * 4  # reps * vertices * (k_max + 1) rows
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert all(-1.0 <= v <= 1.0 for v in values)


def test_meanfield_report(tmp_path):
    cfg = parse_config(make_config("meanfield"))
    report = run(cfg, tmp_path)
    doc = json.loads((tmp_path / "model_report.json").read_text())
    assert np.allclose(doc["mixing"], [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    assert "regime" in doc and "dense_ok" in doc["regime"]
    assert doc["regime"]["share_mismatch"] >= 0.0


def test_stationary_run(tmp_path):
    cfg = parse_config(make_config("stationary", "stationary_reps = 500\nburn_tol = 1e-3"))
    run(cfg, tmp_path)
    lines = read_lines(tmp_path / "stationarity.csv")
    assert lines[0].startswith("n,theta,community,topic,moment")
    assert len(lines) == 1 + 2 * 2  # two communities x two moments


def test_concentration_run(tmp_path):
    cfg = parse_config(
        make_config("concentration", "count_means = 20 50\neps_grid = 0.2 0.5")
        .replace("inner_reps = 3", "inner_reps = 2000")
    )
    run(cfg, tmp_path)
    lines = read_lines(tmp_path / "concentration.csv")
    assert lines[0] == "case,epsilon,statistic,empirical_tail,stderr,bound,replications"
    assert len(lines) == 1 + 2 * 2 * 2


def test_tree_run(tmp_path):
    cfg = parse_config(
        make_config("tree", "depth = 2\ntree_reps = 300\nvertices_checked = 30\nouter_reps = 2")
    )
    run(cfg, tmp_path)
    scaling = read_lines(tmp_path / "tree_scaling.csv")
    diag = read_lines(tmp_path / "tree_diagnostic.csv")
    assert scaling[0] == "theta,root_type,s,estimate,stderr,replications"
    assert diag[0] == "n,theta,depth,vertex_count_checked,non_tree_fraction"
    assert len(diag) == 2
    frac = float(diag[1].split(",")[-1])
    assert 0.0 <= frac <= 1.0
    # non-degenerate belief laws give strictly positive deviation estimates
    assert all(float(line.split(",")[3]) > 0.0 for line in scaling[1:])


def test_chaos_run(tmp_path):
    cfg = parse_config(
        make_config(
            "chaos",
            "k = 2\nvertex_sets = 0 1\nfunctions = proj:0,2 proj:0,2\n"
            "measure_functions = one\nlimit_reps = 200",
        )
    )
    run(cfg, tmp_path)
    lines = read_lines(tmp_path / "chaos.csv")
    assert lines[0].startswith("n,k,statistic")
    kinds = {line.split(",")[2] for line in lines[1:]}
    assert kinds == {"product", "measure"}


def test_chaos_csv_rows_have_header_width(tmp_path):
    """Function ids hold commas; quoted, each stays in one CSV field."""
    cfg = parse_config(
        make_config(
            "chaos",
            "k = 2\nvertex_sets = 0 1 ; 2\nfunctions = proj:0,2 prod:0,1,0,2 ; proj:0,1\n"
            "measure_functions = proj:0,2 one\nlimit_reps = 50",
        )
    )
    run(cfg, tmp_path)
    with open(tmp_path / "chaos.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 2 + 2 * 2  # two product rows, two functions x two communities
    assert all(len(row) == len(header) for row in rows)
    functions = [row[header.index("functions")] for row in rows]
    assert functions[:2] == ["proj:0,2 prod:0,1,0,2", "proj:0,1"]
    assert set(functions[2:]) == {"proj:0,2", "one"}


def test_error_smoke_run_under_budget(tmp_path):
    import time

    cfg = parse_config(
        "kind = error\nseed = 5\nn_grid = 200\ntheta = const:12\ninner_reps = 3\n"
        "outer_reps = 1\nk_max = 8\n" + BASE_MODEL
    )
    t0 = time.time()
    run(cfg, tmp_path)
    assert time.time() - t0 < 60.0


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(make_config("error", "k_max = 3"))
    assert main(["validate", "--config", str(good)]) == EXIT_OK

    bad = tmp_path / "bad.cfg"
    bad.write_text(make_config("error").replace("model.pi = 0.5 0.5", "model.pi = 0.9 0.5"))
    assert main(["validate", "--config", str(bad)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "model.pi" in captured.err

    assert main(["error", "--config", str(tmp_path / "missing.cfg")]) == EXIT_CONFIG


def test_cli_runs_experiment_with_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(make_config("error", "k_max = 3\nouter_reps = 1"))
    out = tmp_path / "out"
    code = main(["error", "--config", str(cfg_path), "--out", str(out), "--seed", "11"])
    assert code == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["kind"] == "error"
    assert "error_curve.csv" in manifest["outputs"]
    assert manifest["cores_available"] == os.cpu_count()
    assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 0


def test_cli_command_selects_kind(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    # the command overrides the config's kind
    cfg_path.write_text(make_config("meanfield").replace("kind = meanfield", "kind = error"))
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    assert (out / "model_report.json").exists()


def test_cli_budget_error_exit_code(tmp_path):
    # expected tree size 10^20 blows the node budget -> runtime error (3)
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(
        make_config("tree", "depth = 10\ntree_reps = 10\ntheta = const:100").replace(
            "theta = const:10\n", ""
        )
    )
    assert main(["tree", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_RUNTIME


def test_cli_tiny_kernel_entry_runs(tmp_path):
    # p = 1e-19 * 20 / 2000 off the diagonal: every geometric gap leaves the grid
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        make_config("simulate", "k_max = 3\nseed = 1\nn_grid = 2000\ntheta = const:20")
        .replace("model.kappa = 2 1 ; 1 2", "model.kappa = 1.5 1e-19 ; 1e-19 1.5")
        .replace("seed = 5\nn_grid = 120\ntheta = const:10\n", "")
    )
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_threads_env_override(monkeypatch):
    from opinionlab.parallel import resolve_threads

    monkeypatch.setenv("OPINIONLAB_THREADS", "6")
    assert resolve_threads(None) == 6
    assert resolve_threads(2) == 2
    monkeypatch.delenv("OPINIONLAB_THREADS")
    assert resolve_threads(None) == 1


def test_cli_entry_point_subprocess(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(make_config("meanfield"))
    out = tmp_path / "sub"
    proc = subprocess.run(
        [sys.executable, "-m", "opinionlab.cli", "meanfield",
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "model_report.json").exists()


def test_cli_allocation_failure_is_runtime_error(tmp_path):
    # n = 1e13 passes validation, but one n-long float64 array needs 72.8 TiB; the
    # address-space limit makes the allocation fail whatever the overcommit policy
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text("kind = meanfield\nseed = 1\nn_grid = 10000000000000\ntheta = const:5\n"
                        "model.K = 1\nmodel.ell = 1\nmodel.pi = 1\nmodel.kappa = 1\n")
    limit = 3 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "opinionlab.cli", "meanfield",
         "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),  # BLAS buffers per core count toward the limit
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 3, proc.stderr
    assert any(line.startswith("runtime error:") for line in proc.stderr.splitlines())


def test_cli_validate_default_out_of_memory_is_config_error(tmp_path):
    # model.K = 1e5 without model.kappa: the all-ones K x K default is 2e10 characters of text;
    # the address-space limit makes that allocation fail whatever the overcommit policy
    cfg_path = tmp_path / "wide.cfg"
    cfg_path.write_text("kind = meanfield\nn_grid = 100\nmodel.K = 100000\n")
    limit = 3 * 2**30
    proc = subprocess.run(
        [sys.executable, "-m", "opinionlab.cli", "validate", "--config", str(cfg_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.splitlines() == [
        "config error: model.kappa: does not fit in memory at model.K = 100000"]


def _run_cli(tmp_path, name, extra_cfg="", flags=()):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(make_config("error", "k_max = 2\n" + extra_cfg)
                        .replace("inner_reps = 3", "inner_reps = 2"))
    out = tmp_path / name
    code = main(["error", "--config", str(cfg_path), "--out", str(out), *flags])
    return code, out


@pytest.mark.parametrize("env, flags", [
    ("abc", ()), ("0", ()), (None, ("--threads", "0")), (None, ("--threads", "-5")),
])
def test_cli_rejects_bad_thread_count(tmp_path, monkeypatch, capsys, env, flags):
    if env is None:
        monkeypatch.delenv("OPINIONLAB_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPINIONLAB_THREADS", env)
    code, out = _run_cli(tmp_path, "bad", flags=flags)
    assert code == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_cli_thread_precedence_flag_env_config(tmp_path, monkeypatch):
    def threads_used(name, flags=()):
        code, out = _run_cli(tmp_path, name, "threads = 3", flags)
        assert code == EXIT_OK
        return json.loads((out / "manifest.json").read_text())["threads"]

    monkeypatch.delenv("OPINIONLAB_THREADS", raising=False)
    assert threads_used("config") == 3
    monkeypatch.setenv("OPINIONLAB_THREADS", "2")
    assert threads_used("env") == 2
    assert threads_used("flag", ("--threads", "1")) == 1


def test_config_hash_covers_only_output_fields(tmp_path):
    from opinionlab.harness import config_hash

    base = make_config("error", "k_max = 2")
    one = parse_config(base + "threads = 1\nout = a\n")
    two = parse_config(base + "threads = 2\nout = b\n")
    assert config_hash(one) == config_hash(two)
    other_seed = parse_config(base.replace("seed = 5", "seed = 6"))
    assert config_hash(other_seed) != config_hash(one)


def test_negative_record_id_rejected_at_parse(tmp_path, capsys):
    cfg_path = tmp_path / "neg.cfg"
    cfg_path.write_text(make_config("simulate", "k_max = 2\nrecord = -1 3"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "record" in capsys.readouterr().err


def test_record_id_not_below_n_rejected_at_run(tmp_path, capsys):
    cfg_path = tmp_path / "big.cfg"
    cfg_path.write_text(make_config("simulate", "k_max = 2\nrecord = 0 120"))  # n = 120
    out = tmp_path / "big"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert "record" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    (make_config("simulate", "record = a"), "record"),
    (make_config("chaos", "vertex_sets = 0 1 ; x"), "vertex_sets"),
    (make_config("concentration", "eps_grid = 0.2 x"), "eps_grid"),
    (make_config("concentration", "count_means = 20 y"), "count_means"),
    ('{"kind": "error",', "malformed JSON"),
    (make_config("error") + "model.K = 0\n", "model.K"),
    (make_config("error") + "model.ell = 0\n", "model.ell"),
    (make_config("error") + "model.kappa = 2 1 ; 1\n", "model.kappa"),
    (make_config("chaos", "vertex_sets = 0 1\nfunctions = proj:a"), "functions"),
    (make_config("chaos", "measure_functions = foo"), "measure_functions"),
    (make_config("chaos", "vertex_sets = 0 1 ; 2 3\nfunctions = proj:0,1 proj:0,1"), "functions"),
    (make_config("chaos", "vertex_sets = 0 1\nfunctions = proj:0,1 ; proj:0,1 proj:0,1"),
     "functions"),
    (make_config("chaos", "vertex_sets = 0 1\nfunctions = proj:0,1"), "functions"),
    (make_config("chaos", "functions = proj:0,1 proj:0,1"), "functions"),
    (make_config("concentration", "conc_weight = bogus"), "conc_weight"),
    (make_config("concentration", "conc_value = nope"), "conc_value"),
    (make_config("concentration", "count_law = binomial"), "count_law"),
    (make_config("stationary", "burn_tol = nan"), "burn_tol"),
    (make_config("stationary", "burn_tol = inf"), "burn_tol"),
    (make_config("error").replace("const:10", "const:inf"), "theta"),
    (make_config("error").replace("const:10", "pow:1e10"), "theta"),
    (make_config("error").replace("seed = 5", "seed = -1"), "seed"),
    (make_config("tree", "depth = 0"), "depth"),
    (make_config("error") + "model.c = nan\n", "model.c"),
    (make_config("error") + "model.kappa = 2 inf ; 1 2\n", "model.kappa"),
    (make_config("concentration", "eps_grid = 0.2 nan"), "eps_grid"),
    (make_config("concentration", "count_means = inf"), "count_means"),
    (make_config("chaos", "vertex_sets = 5000"), "vertex_sets"),  # n = 120
    (make_config("chaos", "vertex_sets = -1"), "vertex_sets"),
    (make_config("simulate", "record = 0 120"), "record"),
    (make_config("error") + "model.fixed_composition = ture\n", "model.fixed_composition"),
    (make_config("error").replace("n_grid = 120", "n_grid = 1 120")
     .replace("const:10", "loglog:3"), "theta"),
    (make_config("stationary", "k_max = 2\nburn_tol = 1e-4"), "k_max"),  # 0.75^2 >= 1e-4
    (make_config("concentration", "conc_weight = uniform:0,5"), "conc_weight"),  # H = 1
    (make_config("concentration", "conc_value = uniform:-3,3"), "conc_value"),
    (make_config("stationary").replace("n_grid = 120", "n_grid = 100 200"), "n_grid"),
    (make_config("error", "inner_reps = 50"), "inner_reps: duplicate key on lines 5 and 6"),
    ('{"kind": "error", "seed": 1, "seed": 2}', "seed: duplicate key"),
    ('{"kind": "error", "model": {"K": 1}, "model.K": 2}', "model.K: duplicate key"),
])
def test_cli_malformed_value_is_config_error(tmp_path, capsys, text, key):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"config error: {key}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "error"])
def test_cli_negative_seed_flag_is_config_error(tmp_path, capsys, command):
    cfg_path = tmp_path / "ok.cfg"
    cfg_path.write_text(make_config("error", "k_max = 2"))
    argv = [command, "--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "config error: seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_stationary_empty_community_is_runtime_error(tmp_path, capsys, monkeypatch):
    # n = 2 at shares 0.9 / 0.1 with fixed composition puts both vertices in community 0
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text(make_config("stationary", "stationary_reps = 10")
                        .replace("n_grid = 120", "n_grid = 2")
                        .replace("model.pi = 0.5 0.5", "model.pi = 0.9 0.1\nmodel.fixed_composition = true"))

    def no_replica(*args, **kwargs):
        raise AssertionError("a replica ran")

    import opinionlab.metrics

    monkeypatch.setattr(opinionlab.metrics, "run_graph", no_replica)
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["stationary", "--config", str(cfg_path), "--out", str(out)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "runtime error: no vertices in community 1 at n=2\n"
    assert not out.exists()


def test_cli_stationary_short_k_max_exits_before_any_graph(tmp_path, capsys, monkeypatch):
    # the config's own kind is error, so only the stationary command sees the short run
    cfg_path = tmp_path / "short.cfg"
    cfg_path.write_text(make_config("error", "k_max = 2"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    import opinionlab.dynamics
    import opinionlab.metrics

    monkeypatch.setattr(opinionlab.metrics, "sample_labels", no_graph)
    monkeypatch.setattr(opinionlab.dynamics, "sample_graph", no_graph)
    out = tmp_path / "o"
    assert main(["stationary", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: k_max" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["simulate", "meanfield", "chaos", "stationary"])
def test_cli_single_size_command_rejects_extra_sizes(tmp_path, capsys, monkeypatch, command):
    # the config's own kind, error, runs every size; these commands run one
    cfg_path = tmp_path / "sizes.cfg"
    cfg_path.write_text(make_config(command).replace(f"kind = {command}", "kind = error")
                        .replace("n_grid = 120", "n_grid = 100 200"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    import opinionlab.dynamics
    import opinionlab.harness
    import opinionlab.metrics

    for module in (opinionlab.metrics, opinionlab.harness):
        monkeypatch.setattr(module, "sample_labels", no_graph)
    for module in (opinionlab.dynamics, opinionlab.harness):
        monkeypatch.setattr(module, "sample_graph", no_graph)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: n_grid" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_validate_h_below_default_conc_weight_is_ok(tmp_path, capsys):
    # the default conc_weight point:1 lies outside [0, H]; only the concentration kind draws it
    cfg_path = tmp_path / "h.cfg"
    cfg_path.write_text(make_config("error").replace("model.H = 1", "model.H = 0.5")
                        .replace("model.weights = point:1", "model.weights = uniform:0,0.5"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK
    assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("extra, key", [
    ("conc_weight = uniform:0,5", "conc_weight"),  # H = 1
    ("conc_value = uniform:-3,3", "conc_value"),
])
def test_cli_concentration_command_checks_law_supports(tmp_path, capsys, extra, key):
    # the config's own kind, error, does not read these laws; the concentration command does
    cfg_path = tmp_path / "conc.cfg"
    cfg_path.write_text(make_config("concentration", extra)
                        .replace("kind = concentration", "kind = error"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert f"config error: {key}: kind error does not read" in capsys.readouterr().err
    out = tmp_path / "o"
    assert main(["concentration", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: {key}: support outside" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_cli_validate_lists_every_key_the_kind_does_not_read(tmp_path, capsys):
    cfg_path = tmp_path / "foreign.cfg"
    cfg_path.write_text(make_config("error", "limit_reps = 5\ntree_reps = 7\nstationary_reps = 3\n"
                                             "vertex_sets = 1 2"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for key, readers in (("limit_reps", "chaos"), ("tree_reps", "tree"),
                         ("stationary_reps", "stationary"), ("vertex_sets", "chaos")):
        assert f"config error: {key}: kind error does not read this key; it is read by {readers}\n" in err


def test_cli_tree_rejects_chaos_config_before_any_graph(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "chaos.cfg"
    cfg_path.write_text(make_config("chaos", "vertex_sets = 0 1"))
    assert main(["validate", "--config", str(cfg_path)]) == EXIT_OK

    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    import opinionlab.harness

    monkeypatch.setattr(opinionlab.harness, "sample_labels", no_graph)
    monkeypatch.setattr(opinionlab.harness, "sample_graph", no_graph)
    out = tmp_path / "o"
    assert main(["tree", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: vertex_sets: kind tree does not read this key; it is read by chaos" in (
        capsys.readouterr().err)
    assert not out.exists()
