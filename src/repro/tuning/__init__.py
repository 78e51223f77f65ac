"""Workload record/replay and cost-model-driven knob autotuning.

The serving stack has several performance knobs — cache capacities,
scheduler/shard workers, capture parameters — and the right
setting depends on the *workload*: a bursty what-if sweep wants a
prepared cache wider than its τ working set, a cold-start storm gains
nothing from any cache, and choice-model knobs trade accuracy against
evaluation cost.  This package closes that loop:

* :mod:`~repro.tuning.trace` — :class:`TraceRecorder` journals every
  :class:`~repro.service.SelectionQuery` (arrival offset, outcome,
  :class:`~repro.service.QueryStats`) to JSONL; :class:`TraceReplayer`
  replays a trace against any :class:`EngineConfig` with open-loop or
  as-fast-as-possible pacing and reports latencies plus the exact
  cache-event sequence.
* :mod:`~repro.tuning.cost_model` — an analytic :class:`CostModel`
  predicting resolve/select/cache-hit cost from
  :func:`~repro.data.cost_features` features, fitted per machine by a
  short calibration run.
* :mod:`~repro.tuning.tuner` — :class:`KnobTuner` searches the knob
  space against a recorded trace (cost-model screening over a simulated
  cache, measured replay of the finalists) and emits a recommended
  config as JSON.
* :mod:`~repro.tuning.canned` — the three canned workloads (bursty
  what-if sweep, streaming churn, cold-start storm) shipped as both
  regression fixtures and the ``BENCH_autotune`` benchmark.
"""

from .canned import CANNED_WORKLOADS, jitter_users, record_canned
from .config import EngineConfig
from .cost_model import CostModel, PredictedCost
from .trace import (
    ReplayReport,
    TraceEvent,
    TraceRecorder,
    TraceReplayer,
    WorkloadTrace,
    build_dataset,
)
from .tuner import DEFAULT_SEARCH_SPACE, KnobTuner, TuningRecommendation, default_search_space

__all__ = [
    "CANNED_WORKLOADS",
    "DEFAULT_SEARCH_SPACE",
    "CostModel",
    "EngineConfig",
    "KnobTuner",
    "PredictedCost",
    "ReplayReport",
    "TraceEvent",
    "TraceRecorder",
    "TraceReplayer",
    "TuningRecommendation",
    "WorkloadTrace",
    "build_dataset",
    "default_search_space",
    "jitter_users",
    "record_canned",
]
