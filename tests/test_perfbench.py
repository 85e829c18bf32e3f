"""Smoke test of the traced benchmark.

A traced run exits 3 when a layer or counter that its workload expects
records nothing, so a short run of each workload catches a program change
that the benchmark no longer sees (a function no longer looked up through
its module, a trace event no longer sent).  ``--seconds 0`` runs the two
ops a traced run needs: one untraced, one traced.  The work counters of
the traced ``solve`` and ``compare`` ops are pinned, so a kernel or
schedule rewrite that skips or repeats a restore changes them.  Each of
the two updating solves of ``solve`` restores 30,200 columns and
eliminates 60,300 entries with kernels of at most 3 rows.  The traced
``compare`` op at seed 1 solves one 26-dimensional instance by all three
solvers: its two updating solves restore 334 columns and eliminate 590
entries with kernels of at most 5 rows, and Arnoldi takes 26 steps.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["solve", "roots", "lsq", "compare"])
def test_traced_run_reaches_every_layer(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    pinned = {
        "solve": {"hiep.restore_steps": 60400, "hiep.eliminated": 120600, "hiep.kernel_max": 3},
        "compare": {"hiep.restore_steps": 334, "hiep.eliminated": 590, "hiep.kernel_max": 5,
                    "hiep.arnoldi_steps": 26},
    }.get(workload, {})
    assert {name: result["metrics"][name]["value"] for name in pinned} == pinned
