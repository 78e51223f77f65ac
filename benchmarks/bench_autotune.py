"""Autotuner benchmark: record a workload, tune the knobs, prove the win.

The full pipeline under one timer:

1. **record** the bursty canned workload (its τ working set is wider
   than the default prepared cache, so the all-defaults engine cyclically
   thrashes and re-resolves every burst);
2. **calibrate** the machine-local :class:`~repro.tuning.CostModel`;
3. **tune** — screen the full knob grid analytically, then confirm the
   finalists by measured replay against the all-defaults baseline;
4. **verify** — replay the trace twice under the recommended config and
   check (a) both replays are identical in selections and cache-event
   sequence (the determinism invariant), (b) every replayed selection
   matches the recording (exact configs cannot change results), and
   (c) the tuned measured P50 beats the baseline's.

Stages 1–3 are repeat-timed (median/spread via
:mod:`repro.bench.timing`); the headline ``*_s`` numbers are medians.
Writes the ``BENCH_autotune.json`` trajectory point at the repo root;
``--smoke`` (wired into the test suite and CI) runs a reduced scale to a
temporary path so the committed point cannot rot.
"""

import argparse
import json
import tempfile
from pathlib import Path

from repro.bench.timing import repeat_timed
from repro.tuning import (
    CostModel,
    KnobTuner,
    TraceReplayer,
    record_canned,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_autotune_benchmark(
    n_users: int = 400,
    n_candidates: int = 40,
    n_facilities: int = 80,
    validate_top: int = 2,
    calibrate_repeats: int = 2,
    stage_repeats: int = 3,
    out_path: Path = None,
) -> dict:
    """Record → calibrate → tune → verify, each stage repeat-timed.

    Stage timings follow the repeats/median/spread discipline of
    :mod:`repro.bench.timing`: each stage runs ``stage_repeats`` times,
    the headline ``record_s``/``calibrate_s``/``tune_s`` numbers are
    medians, and the full summaries land under ``stages``.
    """
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "bursty.jsonl"
        record_timing = repeat_timed(
            lambda: record_canned(
                "bursty",
                trace_path,
                n_users=n_users,
                n_candidates=n_candidates,
                n_facilities=n_facilities,
                seed=0,
            ),
            stage_repeats,
        )
        trace = record_timing.result

        calibrate_timing = repeat_timed(
            lambda: CostModel.calibrate(repeats=calibrate_repeats),
            stage_repeats,
        )
        cost_model = calibrate_timing.result

        tuner = KnobTuner(trace, cost_model=cost_model)
        tune_timing = repeat_timed(
            lambda: tuner.tune(validate_top=validate_top), stage_repeats
        )
        recommendation = tune_timing.result

        replayer = TraceReplayer(trace)
        first = replayer.replay(recommendation.config)
        second = replayer.replay(recommendation.config)

    deterministic = (
        first.selections() == second.selections()
        and first.cache_sequence() == second.cache_sequence()
        and first.outcomes() == second.outcomes()
    )
    exact = (
        recommendation.config.exact
        and first.selection_mismatches(trace) == 0
    )
    baseline_p50 = recommendation.measured["baseline"]["p50_s"]
    tuned_p50 = recommendation.measured["tuned"]["p50_s"]

    payload = {
        "benchmark": "autotune",
        "n_users": n_users,
        "n_candidates": n_candidates,
        "n_facilities": n_facilities,
        "trace_events": len(trace),
        "trace_queries": sum(1 for _ in trace.query_events()),
        "record_s": record_timing.summary()["median_s"],
        "calibrate_s": calibrate_timing.summary()["median_s"],
        "tune_s": tune_timing.summary()["median_s"],
        "stage_repeats": stage_repeats,
        "stages": {
            "record": record_timing.summary(),
            "calibrate": calibrate_timing.summary(),
            "tune": tune_timing.summary(),
        },
        "grid_axes": {
            knob: len(values) for knob, values in sorted(tuner.search_space.items())
        },
        "candidates_scored": recommendation.candidates_scored,
        "cost_model": cost_model.as_dict(),
        "recommendation": recommendation.as_dict(),
        "baseline_p50_s": baseline_p50,
        "tuned_p50_s": tuned_p50,
        "speedup_p50": recommendation.speedup_p50,
        "tuned_beats_baseline": tuned_p50 < baseline_p50,
        "replay_deterministic": deterministic,
        "replay_exact": exact,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Workload autotuner: record, calibrate, tune, verify"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick run at reduced scale; used by the test suite and CI",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--candidates", type=int, default=None)
    parser.add_argument(
        "--stage-repeats", type=int, default=None,
        help="timing repeats per pipeline stage (default: 3 full, 1 smoke)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_autotune.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = dict(
            n_users=120, n_candidates=12, n_facilities=24,
            validate_top=1, calibrate_repeats=1, stage_repeats=1,
        )
    else:
        scale = dict(
            n_users=400, n_candidates=40, n_facilities=80,
            validate_top=2, calibrate_repeats=2, stage_repeats=3,
        )
    if args.users:
        scale["n_users"] = args.users
    if args.candidates:
        scale["n_candidates"] = args.candidates
    if args.stage_repeats:
        scale["stage_repeats"] = args.stage_repeats

    out = args.out or REPO_ROOT / "BENCH_autotune.json"
    payload = run_autotune_benchmark(out_path=out, **scale)
    print(json.dumps(payload, indent=2))
    failures = [
        key
        for key in ("replay_deterministic", "replay_exact", "tuned_beats_baseline")
        if not payload[key]
    ]
    if failures:
        print(f"ERROR: benchmark invariants failed: {', '.join(failures)}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
