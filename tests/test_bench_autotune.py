"""Smoke test: the autotune benchmark must run and record a valid point.

Invokes ``benchmarks/bench_autotune.py --smoke`` as a subprocess and
asserts all three benchmark invariants: replays are deterministic,
exact configs reproduce recorded selections, and the tuned config's
measured P50 beats the all-defaults baseline.  The smoke run writes to a
temporary path so the committed full-scale ``BENCH_autotune.json`` at
the repo root is not overwritten by test runs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_smoke_records_trajectory_point(tmp_path):
    out_path = tmp_path / "BENCH_autotune.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_autotune.py"),
            "--smoke",
            "--out",
            str(out_path),
        ],
        capture_output=True,
        text=True,
        timeout=580,
        cwd=REPO_ROOT,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.exists()
    payload = json.loads(out_path.read_text())
    assert payload["benchmark"] == "autotune"
    assert payload["trace_queries"] >= 40
    # The tuner scores the whole grid: one config per combination.
    assert payload["candidates_scored"] == math.prod(payload["grid_axes"].values())
    assert payload["replay_deterministic"] is True
    assert payload["replay_exact"] is True
    assert payload["tuned_beats_baseline"] is True
    # Stage timings follow the repeats/median/spread discipline.
    assert set(payload["stages"]) == {"record", "calibrate", "tune"}
    for name, stage in payload["stages"].items():
        assert stage["repeats"] == payload["stage_repeats"]
        assert stage["spread_s"] >= 0.0
        assert payload[f"{name}_s"] == stage["median_s"]


def test_committed_trajectory_point_is_full_scale():
    """The recorded repo-root point meets the acceptance floor:
    the tuned config's replayed P50 beats the all-defaults config."""
    payload = json.loads((REPO_ROOT / "BENCH_autotune.json").read_text())
    assert payload["n_users"] >= 400
    assert payload["n_candidates"] >= 40
    assert payload["candidates_scored"] == math.prod(payload["grid_axes"].values())
    assert payload["replay_deterministic"] is True
    assert payload["replay_exact"] is True
    assert payload["tuned_beats_baseline"] is True
    assert payload["tuned_p50_s"] < payload["baseline_p50_s"]
    assert payload["speedup_p50"] > 1.0
    # Full scale runs every stage >= 3 times (median/spread discipline)
    # and calibrates CELF-path fits for the set-aware capture models.
    assert payload["stage_repeats"] >= 3
    for stage in payload["stages"].values():
        assert stage["repeats"] >= 3
        assert stage["median_s"] > 0.0
    capture_coeff = payload["cost_model"]["capture_select_coeff"]
    assert set(capture_coeff) == {"mnl", "fixed-worlds"}
