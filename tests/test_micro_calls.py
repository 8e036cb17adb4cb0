"""The benchmark's microbenchmarks (perfbench/micro.py) call package
functions with fixed signatures; a changed signature would break the
benchmark while every other test stays green, so each layer bench that
builds small inputs runs once here.  bench_propagate is left out: it
builds influence matrices of up to 512 MiB."""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
from child import import_opinionlab
import_opinionlab()
import micro
from opinionlab import config
from workloads import WORKLOADS, config_text
cfgs = {{name: config.parse_config(config_text(name, 7, 1)) for name in WORKLOADS}}
b = micro.Bench(budget=0)
g = micro.bench_graph(b, cfgs, 7)
micro.bench_dynamics(b, cfgs, 7, g)
micro.bench_meanfield(b, cfgs, 7, g)
micro.bench_metrics(b, cfgs, 7)
print(json.dumps(b.failures))
"""


def test_micro_layer_benches_run_without_failures():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
