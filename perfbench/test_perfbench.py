"""The benchmark's own tests: smoke runs, the correctness gate, the rules.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
Every workload runs in its reduced-scale ``--smoke`` mode.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import env

env.ensure_src()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.service import SelectionEngine  # noqa: E402
from repro.solvers import IQTSolver  # noqa: E402

BENCHMARK = json.loads((env.ROOT / "BENCHMARK.json").read_text())


def invoke(*args: str, cwd=env.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_what_the_code_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        tuple(m) for m in tracing.PER_LAYER
    ]
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    provenance = json.loads(proc.stdout.strip().splitlines()[-2])["provenance"]
    assert provenance["error_rate"] == 0.0
    assert provenance["cpu_count"] >= 1 and provenance["seed"] == 3


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_metric(workload):
    proc = invoke("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"]
    assert [*result["metrics"]] == [name for name, _, _ in tracing.PER_LAYER]
    assert result["metrics"]["trace.residual_s"]["value"] >= 0


def _session_members(sid: int) -> list:
    """(pid, state) of every process in session ``sid``, zombies included."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = open(f"/proc/{entry}/stat").read()
        except OSError:
            continue
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            members.append((int(entry), fields[0]))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_run_leaves_no_process_behind(workload):
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "0", "--smoke"],
        cwd=env.ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    _, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    assert _session_members(proc.pid) == []


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(env.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = invoke("--workload", "cold-solve", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _swap_first_two(outcome_source):
    """Wrap a callable so its answer's first two picks trade places."""

    def corrupted(*args, **kwargs):
        result = outcome_source(*args, **kwargs)
        picks = list(result.selected)
        if len(picks) >= 2:
            picks[0], picks[1] = picks[1], picks[0]
        return dataclasses.replace(result, selected=tuple(picks))

    return corrupted


@pytest.mark.parametrize(
    "workload, owner, attr",
    [
        ("cold-solve", IQTSolver, "solve"),
        ("warm-serve", SelectionEngine, "execute"),
        ("churn-serve", SelectionEngine, "execute"),
    ],
)
def test_correctness_gate_fires_on_a_wrong_answer(
    workload, owner, attr, monkeypatch, capsys
):
    monkeypatch.setattr(owner, attr, _swap_first_two(getattr(owner, attr)))
    code = run.main(["--workload", workload, "--seed", "2", "--seconds", "0.5",
                     "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0


def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond():
    # Up to the workload's ceiling.
    lat = [float(i) for i in range(1, 1001)]
    assert run.tail(lat) == (990.0, 99.0, True)
    assert run.tail(lat[:100]) == (90.0, 90.0, True)
    assert run.tail(lat[:8]) == (4.5, 50.0, False)
    assert run.tail(lat, ceiling=95.0) == (950.0, 95.0, True)


def test_warm_stream_hits_come_only_from_repeats():
    import numpy as np

    from repro.capture import CaptureSpec

    stream = workloads.QueryStream(
        np.random.default_rng(0), range(100), (0.5, 0.7), CaptureSpec(model="mnl")
    )
    queries = [stream.next() for _ in range(4000)]
    seen, repeats = set(), 0
    for q in queries:
        repeats += q in seen
        seen.add(q)
    assert len(stream.history) == len(seen)  # fresh queries never collide
    assert 0.2 < repeats / len(queries) < 0.3
    assert sum(q.candidate_ids is None for q in seen) == 2 * stream.k_max
