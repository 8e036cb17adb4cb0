"""scripts/seed_sweep.py rejects bad arguments with exit code 2 before
it runs any criterion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["--criterion", "8", "--n-grid", "500", "1000"],
    ["--criterion", "5", "--n-grid", "1000", "500"],
    ["--criterion", "5", "--n-grid", "500"],
    ["--criterion", "12"],
    ["--criterion", "9", "--threads", "2"],
], ids=["n-grid-on-8", "descending-grid", "one-size-grid", "criterion-12", "threads-on-9"])
def test_bad_arguments_exit_2_before_any_run(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "seed_sweep.py"), "--seeds", "1",
                           *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error:" in proc.stderr
