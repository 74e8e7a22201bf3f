import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# the demo whose custom potential takes stacks of points, the two that
# reach markov.structure() and the one that runs the quantum refine end to end
@pytest.mark.parametrize(
    "demo", ["04_bregman_bounds.py", "05_markov_chains.py", "06_contraction_and_mixing.py",
             "07_quantum_petz.py"]
)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
