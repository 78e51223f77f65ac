"""Knob search against a recorded trace: screen by cost model, confirm by replay.

:class:`KnobTuner` turns a :class:`~repro.tuning.WorkloadTrace` into a
recommended :class:`~repro.tuning.EngineConfig` in two stages:

1. **Screening** — every candidate in the knob grid (cache capacities,
   scheduler/shard workers, optionally the fixed-worlds world count) is scored by
   :meth:`~repro.tuning.CostModel.predict_trace`, which simulates the
   engine's caches over the trace and prices each query analytically.
   Thousands of configs cost milliseconds here.  Ties break toward the
   smaller memory footprint (cache entries are not free) and then
   toward the default worker count.
2. **Confirmation** — the top ``validate_top`` configs plus the
   all-defaults baseline are actually replayed (deterministic ``asap``
   pacing) and the measured P50 latency decides the winner, so a
   mispredicting model cannot ship a regression: the baseline is always
   in the final and wins ties.

The recommendation serialises to the JSON schema the CLI's ``tune``
subcommand emits (see ``docs/API.md``).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TuningError
from .config import EngineConfig
from .cost_model import CostModel, PredictedCost
from .trace import ReplayReport, TraceReplayer, WorkloadTrace

#: Default knob grid.
DEFAULT_SEARCH_SPACE: Dict[str, Tuple[Any, ...]] = {
    "prepared_cache_size": (4, 8, 16, 24, 32, 64),
    "result_cache_size": (64, 256, 1024, 4096),
    "max_workers": (1, 2, 4),
}


def default_search_space() -> Dict[str, Tuple[Any, ...]]:
    """The default knob grid for the machine the tuner runs on.

    On multi-core machines the grid additionally searches
    ``shard_workers`` (``0`` keeps the in-process path; ``>= 2`` runs
    the sharded executor, results bit-identical).  Single-core machines
    exclude the knob — sharding there only adds process overhead, and
    every candidate would waste a replay slot confirming it.
    """
    space = dict(DEFAULT_SEARCH_SPACE)
    if (os.cpu_count() or 1) > 1:
        space["shard_workers"] = (0, 2, 4)
    return space


@dataclass(frozen=True)
class TuningRecommendation:
    """The tuner's verdict: a config plus the evidence behind it."""

    trace_name: str
    config: EngineConfig
    predicted: PredictedCost
    baseline_predicted: PredictedCost
    measured: Dict[str, Any] = field(compare=False, default_factory=dict)
    candidates_scored: int = 0

    @property
    def speedup_p50(self) -> float:
        """Measured baseline P50 over tuned P50 (1.0 when not measured)."""
        tuned = self.measured.get("tuned", {}).get("p50_s")
        base = self.measured.get("baseline", {}).get("p50_s")
        if not tuned or not base:
            return 1.0
        return base / tuned

    def as_dict(self) -> Dict[str, Any]:
        """The ``tune`` output schema (JSON-ready)."""
        return {
            "trace": self.trace_name,
            "recommended": self.config.as_dict(),
            "predicted": self.predicted.as_dict(),
            "baseline_predicted": self.baseline_predicted.as_dict(),
            "measured": self.measured,
            "speedup_p50": self.speedup_p50,
            "candidates_scored": self.candidates_scored,
        }


def _memory_proxy(config: EngineConfig) -> float:
    """Relative memory weight of a config's caches.

    Prepared entries hold a full influence table; result entries are a
    few tuples.  The 512:1 weight only needs to order configs sensibly.
    """
    return config.prepared_cache_size * 512 + config.result_cache_size


class KnobTuner:
    """Search the serving knob space against one recorded trace.

    Args:
        trace: The recorded workload to optimise for.
        cost_model: Machine-local cost coefficients; calibrated on the
            spot (a few seconds) when not supplied.
        search_space: Knob grid to search instead of
            :func:`default_search_space`.  It is used as given: knobs it
            leaves out keep their engine defaults, and no
            machine-dependent axis is added.  ``tune_worlds`` adds the
            fixed-worlds world count to the grid when the trace's
            queries use that capture model (semantics-changing: the
            recommendation stops being exact).
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        cost_model: Optional[CostModel] = None,
        search_space: Optional[Dict[str, Sequence[Any]]] = None,
        tune_worlds: bool = False,
    ) -> None:
        self.trace = trace
        self.cost_model = cost_model or CostModel.calibrate(repeats=1)
        if search_space:
            space = {k: tuple(v) for k, v in search_space.items()}
        else:
            space = default_search_space()
        if tune_worlds and self._recorded_worlds():
            space.setdefault("worlds", (None, 8, 16, 32, 64))
        self.search_space = space

    def _recorded_worlds(self) -> List[int]:
        worlds = []
        for event in self.trace.query_events():
            capture = (event.query or {}).get("capture") or {}
            if capture.get("model") == "fixed-worlds":
                worlds.append(int(capture.get("worlds", 32)))
        return worlds

    # ------------------------------------------------------------------
    def candidates(self) -> Iterable[EngineConfig]:
        """The knob grid as configs (defaults fill unsearched knobs).

        ``shard_workers >= 2`` implies the sharded executor; lower
        values keep the in-process path (matching the engine's own
        fallback), so the grid never emits an inconsistent pair.
        """
        keys = sorted(self.search_space)
        for values in itertools.product(*(self.search_space[k] for k in keys)):
            knobs = dict(zip(keys, values))
            if knobs.get("shard_workers", 0) >= 2:
                knobs["execution"] = "sharded"
            yield EngineConfig(**knobs)

    def tune(
        self,
        validate_top: int = 2,
        pacing: str = "asap",
    ) -> TuningRecommendation:
        """Screen the grid, replay the finalists, recommend the winner.

        The all-defaults baseline is always replayed alongside the
        finalists and wins ties, so the recommendation can only beat or
        match what the operator already has.
        """
        if validate_top < 1:
            raise TuningError(f"validate_top must be >= 1, got {validate_top}")
        if not any(True for _ in self.trace.query_events()):
            raise TuningError(f"trace {self.trace.name!r} records no queries")
        baseline = EngineConfig()
        features = None
        scored: List[Tuple[float, float, EngineConfig, PredictedCost]] = []
        for config in self.candidates():
            predicted = self.cost_model.predict_trace(
                self.trace, config, features=features
            )
            scored.append(
                (predicted.total_s, _memory_proxy(config), config, predicted)
            )
        if not scored:
            raise TuningError("empty search space")
        scored.sort(key=lambda item: (item[0], item[1]))
        baseline_predicted = self.cost_model.predict_trace(self.trace, baseline)

        replayer = TraceReplayer(self.trace)
        finalists = [item[2] for item in scored[:validate_top]]
        reports: List[Tuple[EngineConfig, ReplayReport]] = []
        for config in finalists:
            reports.append((config, replayer.replay(config, pacing=pacing)))
        baseline_report = replayer.replay(baseline, pacing=pacing)

        best_config, best_report = min(
            reports, key=lambda item: (item[1].p50_s, item[1].wall_s)
        )
        if (baseline_report.p50_s, baseline_report.wall_s) <= (
            best_report.p50_s,
            best_report.wall_s,
        ):
            best_config, best_report = baseline, baseline_report
        predicted = next(
            item[3] for item in scored if item[2] == best_config
        ) if best_config is not baseline else baseline_predicted
        return TuningRecommendation(
            trace_name=self.trace.name,
            config=best_config,
            predicted=predicted,
            baseline_predicted=baseline_predicted,
            measured={
                "pacing": pacing,
                "baseline": baseline_report.as_dict(),
                "tuned": best_report.as_dict(),
            },
            candidates_scored=len(scored),
        )
