"""The benchmark traces opinionlab's layer functions by name from
outside the package (perfbench/spans.py); a renamed or deleted traced
function would silently zero its metrics, so every name must resolve."""

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
from opinionlab import config, harness
from spans import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_every_traced_name_resolves():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
