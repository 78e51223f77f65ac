"""Smoke test: the batch-verification microbenchmark must run and record.

Invokes ``benchmarks/bench_micro_core_ops.py --smoke`` the way a user
would (as a subprocess) and asserts the trajectory point has the
bit-identity checks green and the speedup above the acceptance floor.
The smoke run writes to a temporary path so the committed full-scale
``BENCH_batch_verify.json`` at the repo root is not overwritten by test
runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_smoke_records_trajectory_point(tmp_path):
    out_path = tmp_path / "BENCH_batch_verify.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_micro_core_ops.py"),
            "--smoke",
            "--out",
            str(out_path),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.exists()
    payload = json.loads(out_path.read_text())
    assert payload["benchmark"] == "batch_verify"
    assert payload["n_users"] >= 1000
    assert payload["decisions_equal"] is True
    assert payload["stats_equal"] is True
    assert payload["speedup"] >= 3.0
