"""Benchmark runner for opinionlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from workloads.py as a closed loop of single
experiments: each experiment is ``opinionlab.harness.run`` in a fresh
child process (child.py), started only after the previous one exits, so
at most two worker threads (``threads = 2``) ever run at once on the
2-core reference box.  Children get ``OPENBLAS_NUM_THREADS=1`` so dense
products do not add BLAS threads on top of the experiment's workers.

``--trace 0`` alternates ``threads = 1`` and ``threads = 2`` runs for S
seconds and reports the end-to-end metrics as medians: wall time at each
thread count, peak RSS and set-up time (``import opinionlab`` plus
``parse_config``).  Peak RSS is taken from the single-thread runs: with
two workers it depends on how their allocations happen to overlap and
moves by tens of MB between identical runs.

``--trace 1`` makes three untraced pairs of single- and two-thread runs,
one traced single-thread run, and the layer microbenchmarks (micro.py),
and reports the per-layer metrics: span self times, counts and coverage
of the traced run (spans.py), tracing overhead (traced minus median
untraced single-thread wall time), thread speed-up and the
microbenchmark timings.

Every experiment's outputs are checked: the child exits 0 (so no
opinion left [-1, 1]), every expected CSV has its header, row count and
only finite numbers, and its bytes match those of the first run of this
invocation, since outputs for one (config, seed) must not depend on the
run or the thread count.  A run failing any check counts as failed.
CSV digests are recorded for information.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Details (machine facts, spans, digests, skipped grid points) go to
``.perfbench_runs/`` in the checkout and to the earlier stdout lines.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, config_text

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
CHILD = os.path.join(HERE, "child.py")
MICRO = os.path.join(HERE, "micro.py")
# a run must end within 180 s; stop starting children well before that
DEADLINE_S = 165.0
SETUP_RUNS = 3
# untraced (threads 1, threads 2) pairs of a per-layer run
LAYER_PAIRS = 3
# traced spans present in every workload, reported by self time
COMMON_SPANS = ("graph.sample_labels", "graph.sample_graph", "harness.run", "harness.write_csv")


class Session:
    """Children of one benchmark invocation and the checks on their outputs."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = time.perf_counter()
        self.records = []
        self.reference = None   # CSV digests of the first passing experiment

    def elapsed(self):
        return time.perf_counter() - self.started

    def _spawn(self, cmd, record):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env.pop("OPINIONLAB_THREADS", None)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(DEADLINE_S + 10.0 - self.elapsed(), 1.0))
        except subprocess.TimeoutExpired:
            record["error"] = "timed out"
            return False
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            record["error"] = f"exit {proc.returncode}: {tail}"
            return False
        return True

    def _finish(self, record, run_dir):
        shutil.rmtree(run_dir, ignore_errors=True)
        self.records.append(record)
        if "error" in record:
            print(f"[{self.workload}] {record['kind']} failed: {record['error']}", file=sys.stderr)
        return record

    def experiment(self, threads, traced=False, setup_only=False):
        """One child: set up, and unless setup_only run and check the workload."""
        kind = "setup" if setup_only else f"t{threads}" + ("-traced" if traced else "")
        record = {"kind": kind, "threads": threads}
        run_dir = os.path.join(self.work_dir, f"c{len(self.records)}")
        os.makedirs(run_dir)
        config_path = os.path.join(run_dir, "config.txt")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(self.workload, self.seed, threads))
        out_dir = os.path.join(run_dir, "out")
        result_path = os.path.join(run_dir, "result.json")
        flags = ["--trace"] if traced else []
        flags += ["--setup-only"] if setup_only else []
        if self._spawn([sys.executable, CHILD, config_path, out_dir, result_path, *flags], record):
            with open(result_path, encoding="utf-8") as fh:
                record.update(json.load(fh))
            if not setup_only:
                self._check(record, out_dir)
        return self._finish(record, run_dir)

    def _check(self, record, out_dir):
        error, digests = check_outputs(self.workload, out_dir)
        record["digests"] = digests
        if error is None and self.reference is None:
            self.reference = digests
        elif error is None and digests != self.reference:
            error = "output bytes differ from the first run of this invocation"
        if error is not None:
            record["error"] = error

    def micro(self, seconds):
        record = {"kind": "micro"}
        run_dir = os.path.join(self.work_dir, f"c{len(self.records)}")
        os.makedirs(run_dir)
        result_path = os.path.join(run_dir, "result.json")
        cmd = [sys.executable, MICRO, result_path, run_dir, self.workload, str(self.seed),
               str(seconds)]
        if self._spawn(cmd, record):
            with open(result_path, encoding="utf-8") as fh:
                record.update(json.load(fh))
        return self._finish(record, run_dir)

    def passed(self, kind):
        return [r for r in self.records if r["kind"] == kind and "error" not in r]


def check_outputs(workload, out_dir):
    """(first problem found or None, sha256 of each expected CSV)."""
    digests = {}
    for name in ("summary.json", "manifest.json"):
        if not os.path.isfile(os.path.join(out_dir, name)):
            return f"{name} missing", digests
    for name, (header, n_rows, text_columns) in WORKLOADS[workload]["csv"].items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            return f"{name} missing", digests
        with open(path, "rb") as fh:
            data = fh.read()
        digests[name] = hashlib.sha256(data).hexdigest()
        lines = data.decode("utf-8").split("\n")
        if lines[-1] != "":
            return f"{name} does not end with a newline", digests
        lines = lines[:-1]
        if not lines or lines[0].split(",") != header:
            return f"{name} header is not {header}", digests
        if len(lines) - 1 != n_rows:
            return f"{name} has {len(lines) - 1} rows, expected {n_rows}", digests
        text = {header.index(col) for col in text_columns}
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(header):
                return f"{name} row {line!r} has {len(cells)} cells", digests
            for j, cell in enumerate(cells):
                if j in text:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    return f"{name} column {header[j]} holds {cell!r}", digests
                if not math.isfinite(value):
                    return f"{name} column {header[j]} holds {cell!r}", digests
    return None, digests


def git_commit():
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts(records):
    libraries = next((r["libraries"] for r in records if "libraries" in r), {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "git_commit": git_commit(),
        **libraries,
    }


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if re.search(r"_s($|[._])", name):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "B"
    if name.endswith(("coverage", "share", "speedup_t2")):
        return "ratio"
    return "count"


def median_of(records, key):
    values = [r[key] for r in records]
    if not values:
        raise SystemExit(f"no passing run to measure {key} from")
    return statistics.median(values)


def run_pair(session, pair):
    """One threads=1 and one threads=2 experiment, alternating which goes first."""
    for threads in ((1, 2) if pair % 2 == 0 else (2, 1)):
        session.experiment(threads)


def end_to_end(session, seconds):
    # the first child byte-compiles the package and fills the file cache
    session.experiment(1, setup_only=True)
    for _ in range(SETUP_RUNS):
        session.experiment(1, setup_only=True)
    pair = 0
    while True:
        pair_start = session.elapsed()
        run_pair(session, pair)
        pair += 1
        # stop when the next pair would end after the measuring window
        if session.elapsed() + (session.elapsed() - pair_start) > min(seconds, DEADLINE_S):
            break
    setups = [r for r in session.records[1:] if "setup_s" in r and "error" not in r]
    t1, t2 = session.passed("t1"), session.passed("t2")
    return {
        "wall_s_t1": median_of(t1, "wall_s"),
        "wall_s_t2": median_of(t2, "wall_s"),
        "peak_rss_mb": median_of(t1, "peak_rss_mb"),
        "setup_s": median_of(setups, "setup_s"),
    }, {"samples": {"t1": len(t1), "t2": len(t2), "setup": len(setups)}}


def per_layer(session, seconds):
    session.experiment(1, setup_only=True)
    for pair in range(LAYER_PAIRS):
        run_pair(session, pair)
    traced = session.experiment(1, traced=True)
    micro = session.micro(seconds)
    if any("error" in r for r in session.records):
        raise SystemExit("a per-layer run failed; no layer metrics")
    wall_t1 = median_of(session.passed("t1"), "wall_s")
    trace = traced["trace"]
    spans = trace["spans"]
    target = WORKLOADS[session.workload]["target"]
    metrics = {
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - wall_t1,
        "trace.coverage": trace["coverage"],
        "trace.target_share": spans.get(target, {}).get("self_s", 0.0) / trace["wall_s"],
    }
    for name in COMMON_SPANS:
        metrics[f"trace.{name}.self_s"] = spans.get(name, {}).get("self_s", 0.0)
    metrics["trace.graphs"] = trace["counts"]["graphs"]
    metrics["trace.edges"] = trace["counts"]["edges"]
    metrics["trace.steps"] = spans.get("dynamics.step", {}).get("calls", 0)
    metrics["trace.propagate_calls"] = spans.get("graph.InfluenceMatrix.propagate", {}).get("calls", 0)
    metrics["trace.tree_nodes_expected"] = trace["counts"]["tree_nodes_expected"]
    metrics["parallel.speedup_t2"] = wall_t1 / median_of(session.passed("t2"), "wall_s")
    metrics.update(micro["metrics"])
    shares = {name: entry["self_s"] / trace["wall_s"] for name, entry in spans.items()}
    for name in sorted(shares, key=shares.get, reverse=True):
        entry = spans[name]
        print(f"span {name}: calls {entry['calls']}, self {entry['self_s']:.4f} s "
              f"({100 * shares[name]:.1f}%), inclusive {entry['total_s']:.4f} s")
    return metrics, {"trace": trace, "target": target, "skipped": micro["skipped"],
                     "missing_spans": trace["missing"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "opinionlab", "__init__.py")):
        print(f"no opinionlab source tree under {ROOT}", file=sys.stderr)
        return 2

    work_dir = os.path.join(RUNS_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    session = Session(args.workload, args.seed, work_dir)
    try:
        measure = per_layer if args.trace else end_to_end
        values, detail = measure(session, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    facts = machine_facts(session.records)
    failed = sum("error" in r for r in session.records)
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": session.elapsed(), "machine": facts,
        "runs": [{k: v for k, v in r.items() if k not in ("trace", "metrics", "libraries")}
                 for r in session.records],
    })
    detail_path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    digests = next((r["digests"] for r in session.records if "digests" in r), {})
    print("machine " + json.dumps(facts, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    print(f"detail {os.path.relpath(detail_path, ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(session.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
