"""Analytic serving-cost model, fitted per machine by a calibration run.

The model predicts the three costs a served query can pay, from the
:func:`~repro.data.cost_features` of the population:

* **resolve** — building the influence table with the batched
  verifier: affine in the position-candidate verification pair count
  (``verify_pairs``);
* **select** — one greedy ``k``-selection through the CSR kernel:
  affine in ``k × n_users`` (the CELF-screened segmented-sum work
  bound);
* **hit** — returning a cached result: a constant.

Calibration (:meth:`CostModel.calibrate`) times those operations on a
ladder of small synthetic populations and least-squares fits the
coefficients — a few seconds of work that localises the model to the
machine it will predict for.  :meth:`CostModel.predict_trace` then walks
a recorded :class:`~repro.tuning.WorkloadTrace` under a candidate
:class:`~repro.tuning.EngineConfig`, simulating the engine's two LRU
caches exactly (same keys, same capacities, same invalidation on
publish), and prices every query by where the simulation says it would
be served from.  That simulation is what lets the tuner score thousands
of knob combinations without replaying any of them.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from ..data import california_like, cost_features
from ..exceptions import TuningError
from ..influence import paper_default_pf
from ..service import DatasetSnapshot, PreparedInstance
from ..solvers import IQTSolver
from .config import EngineConfig
from .trace import WorkloadTrace


def _fit_affine(features: Sequence[float], seconds: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``t ≈ c0 + c1·x`` with non-negative coefficients."""
    if len(features) != len(seconds) or not features:
        raise TuningError("calibration needs at least one (feature, time) sample")
    x = np.asarray(features, dtype=float)
    y = np.asarray(seconds, dtype=float)
    if len(x) == 1:
        if x[0]:
            return 0.0, float(y[0] / x[0])
        return float(y[0]), 0.0
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    c0, c1 = float(coef[0]), float(coef[1])
    # A slightly negative intercept/slope from noise would let the search
    # "pay" negative time; clamp and refit the slope through the origin.
    if c1 < 0:
        c1 = 0.0
    if c0 < 0:
        c0 = 0.0
        c1 = float((x @ y) / (x @ x)) if float(x @ x) else 0.0
        c1 = max(c1, 0.0)
    return c0, c1


@dataclass(frozen=True)
class PredictedCost:
    """The cache simulation's verdict on one (trace, config) pair."""

    total_s: float
    result_hits: int
    prepared_hits: int
    resolves: int
    queries: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_s": self.total_s,
            "result_hits": self.result_hits,
            "prepared_hits": self.prepared_hits,
            "resolves": self.resolves,
            "queries": self.queries,
        }


@dataclass(frozen=True)
class CostModel:
    """Per-machine coefficients for resolve / select / hit costs.

    ``resolve_coeff`` / ``select_coeff`` are the ``(c0, c1)`` of the
    affine fit for the batched verifier and the CSR selector.
    ``capture_select_coeff`` maps a set-aware capture model name
    (``"mnl"``, ``"fixed-worlds"``) to its own ``(c0, c1)`` — those
    selections run the CELF loop (:func:`repro.capture.capture_select`)
    instead of the CSR kernel, so pricing them with the kernel
    coefficients underestimates badly.  Empty on models loaded from old
    serialisations; :meth:`select_seconds` then falls back to the
    kernel fit.  ``calibrated_worlds`` records the fixed-worlds world
    count the coefficient was measured at, so predictions scale
    linearly to other world counts.
    """

    resolve_coeff: Tuple[float, float]
    select_coeff: Tuple[float, float]
    hit_seconds: float
    capture_select_coeff: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )
    calibrated_worlds: int = 8

    # ------------------------------------------------------------------
    def resolve_seconds(self, features: Dict[str, float]) -> float:
        c0, c1 = self.resolve_coeff
        return c0 + c1 * features["verify_pairs"]

    def select_seconds(
        self,
        features: Dict[str, float],
        k: int,
        worlds_factor: float = 1.0,
        capture_model: Optional[str] = None,
    ) -> float:
        """One greedy selection, priced by the path the engine would take.

        Set-aware capture models with a calibrated coefficient use their
        own CELF fit; everything else (and models from old
        serialisations) uses the CSR-kernel fit.
        """
        if capture_model is not None and capture_model in self.capture_select_coeff:
            c0, c1 = self.capture_select_coeff[capture_model]
        else:
            c0, c1 = self.select_coeff
        return (c0 + c1 * k * features["n_users"]) * max(worlds_factor, 0.0)

    # ------------------------------------------------------------------
    def predict_trace(
        self,
        trace: WorkloadTrace,
        config: EngineConfig,
        features: Optional[Dict[str, float]] = None,
    ) -> PredictedCost:
        """Total predicted serve seconds for a trace under a config.

        Simulates the engine's result and prepared caches exactly — keys
        ``(generation, solver, τ, PF, capture)`` (+ ``k`` and mask for
        results), the configured capacities, LRU order refreshed on hit,
        everything dropped on publish except prepared entries kept (at a
        churn-proportional patch cost) when ``config.incremental``.
        """
        if features is None:
            features = cost_features(trace.build_dataset())
        result_lru: "OrderedDict[Tuple, None]" = OrderedDict()
        prepared_lru: "OrderedDict[Tuple, None]" = OrderedDict()
        generation = 0
        total = 0.0
        result_hits = prepared_hits = resolves = queries = 0
        n_users = max(features["n_users"], 1)
        for event in trace.events:
            if event.kind == "publish":
                generation += 1
                result_lru.clear()
                churn_fraction = min(
                    1.0, (event.churn or {}).get("moves", 0) / n_users
                )
                if config.incremental and churn_fraction <= 0.5:
                    # Migrated entries survive under the new generation
                    # at dirty-row patch cost each.
                    patch = churn_fraction * self.resolve_seconds(features)
                    total += patch * len(prepared_lru)
                    prepared_lru = OrderedDict(
                        ((generation,) + key[1:], None) for key in prepared_lru
                    )
                else:
                    prepared_lru.clear()
                continue
            spec = event.query or {}
            if event.outcome not in (None, "ok"):
                continue  # cancelled/expired queries never reach the solver
            queries += 1
            k = int(spec.get("k", 1))
            capture = spec.get("capture") or {}
            capture_model = capture.get("model", "evenly-split")
            worlds_factor = 1.0
            if capture_model == "fixed-worlds":
                recorded = max(int(capture.get("worlds", 32)), 1)
                effective = config.worlds if config.worlds is not None else recorded
                if "fixed-worlds" in self.capture_select_coeff:
                    # The capture fit was measured at calibrated_worlds
                    # worlds; cost is linear in the world count.
                    worlds_factor = max(effective, 1) / max(
                        self.calibrated_worlds, 1
                    )
                else:
                    worlds_factor = max(effective, 1) / recorded
            base = (
                generation,
                spec.get("solver", "iqt"),
                float(spec.get("tau", 0.7)),
                str(spec.get("pf")),
                (capture.get("model", "evenly-split"),
                 capture.get("mnl_beta"), capture.get("worlds"),
                 capture.get("world_seed"), capture.get("huff_utility")),
            )
            mask = spec.get("candidate_ids")
            rkey = base + (k, tuple(mask) if mask else None)
            use_cache = bool(spec.get("use_cache", True))
            if use_cache and rkey in result_lru:
                result_lru.move_to_end(rkey)
                result_hits += 1
                total += self.hit_seconds
                continue
            cost = self.select_seconds(
                features, k, worlds_factor=worlds_factor, capture_model=capture_model
            )
            if use_cache and base in prepared_lru:
                prepared_lru.move_to_end(base)
                prepared_hits += 1
            else:
                cost += self.resolve_seconds(features)
                resolves += 1
                if use_cache:
                    prepared_lru[base] = None
                    while len(prepared_lru) > config.prepared_cache_size:
                        prepared_lru.popitem(last=False)
            if use_cache:
                result_lru[rkey] = None
                while len(result_lru) > config.result_cache_size:
                    result_lru.popitem(last=False)
            total += cost
        return PredictedCost(
            total_s=total,
            result_hits=result_hits,
            prepared_hits=prepared_hits,
            resolves=resolves,
            queries=queries,
        )

    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """JSON-portable coefficients."""
        return {
            "resolve_coeff": list(self.resolve_coeff),
            "select_coeff": list(self.select_coeff),
            "hit_seconds": self.hit_seconds,
            "capture_select_coeff": {
                model: list(c)
                for model, c in sorted(self.capture_select_coeff.items())
            },
            "calibrated_worlds": self.calibrated_worlds,
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "CostModel":
        """Rebuild from :meth:`as_dict` output.

        Old dumps load too: those lacking the capture coefficients get
        an empty mapping (and fall back to the kernel fit), and those
        fitted per kernel toggle (``{"true": [...], "false": [...]}``)
        keep the ``"true"`` fit, the kernel the engine runs.
        """
        def coeff(value: Any) -> Tuple[float, float]:
            if isinstance(value, dict):
                value = value["true"]
            return float(value[0]), float(value[1])

        return cls(
            resolve_coeff=coeff(spec["resolve_coeff"]),
            select_coeff=coeff(spec["select_coeff"]),
            hit_seconds=float(spec["hit_seconds"]),
            capture_select_coeff={
                model: (float(c[0]), float(c[1]))
                for model, c in spec.get("capture_select_coeff", {}).items()
            },
            calibrated_worlds=int(spec.get("calibrated_worlds", 8)),
        )

    # ------------------------------------------------------------------
    @classmethod
    def calibrate(
        cls,
        scales: Sequence[Tuple[int, int]] = ((120, 12), (240, 20), (360, 28)),
        tau: float = 0.65,
        k: int = 4,
        repeats: int = 2,
        seed: int = 0,
        calibrate_worlds: int = 8,
    ) -> "CostModel":
        """Fit the machine-local coefficients from a short measured run.

        ``scales`` is a ladder of ``(n_users, n_candidates)`` synthetic
        populations; each is resolved and selected, best-of-``repeats``
        timed, and the affine coefficients least-squares fitted.  The
        set-aware capture models (MNL and fixed-worlds at
        ``calibrate_worlds`` worlds) get their own CELF-path select
        fits from the same ladder.
        """
        if repeats < 1:
            raise TuningError(f"repeats must be >= 1, got {repeats}")
        from ..capture import CaptureSpec, capture_select

        pf = paper_default_pf()
        resolve_samples: Tuple[list, list] = ([], [])
        select_samples: Tuple[list, list] = ([], [])
        capture_specs = {
            "mnl": CaptureSpec(model="mnl", mnl_beta=2.0),
            "fixed-worlds": CaptureSpec(
                model="fixed-worlds", mnl_beta=2.0,
                worlds=calibrate_worlds, world_seed=seed,
            ),
        }
        capture_samples: Dict[str, Tuple[list, list]] = {
            name: ([], []) for name in capture_specs
        }
        hit_times = []
        for n_users, n_candidates in scales:
            dataset = california_like(
                n_users=n_users,
                n_candidates=n_candidates,
                n_facilities=2 * n_candidates,
                seed=seed,
            )
            features = cost_features(dataset)
            best = min(
                _timed(lambda: IQTSolver().resolve(dataset, tau, pf))
                for _ in range(repeats)
            )
            resolve_samples[0].append(features["verify_pairs"])
            resolve_samples[1].append(best)
            snapshot = DatasetSnapshot(dataset)
            prepared = PreparedInstance(snapshot, IQTSolver(), tau, pf)
            prepared.select(k)  # build the CSR matrix outside the timing
            best = min(_timed(lambda: prepared.select(k)) for _ in range(repeats))
            select_samples[0].append(k * features["n_users"])
            select_samples[1].append(best)
            resolved = IQTSolver().resolve(dataset, tau, pf)
            cids = [c.fid for c in dataset.candidates]
            for name, cspec in capture_specs.items():
                model = cspec.build(dataset, pf)
                best = min(
                    _timed(
                        lambda m=model: capture_select(
                            resolved.table, cids, k, m
                        )
                    )
                    for _ in range(repeats)
                )
                xs, ys = capture_samples[name]
                xs.append(k * features["n_users"])
                ys.append(best)
            hit_times.append(_hit_seconds(dataset, tau, k))
        return cls(
            resolve_coeff=_fit_affine(*resolve_samples),
            select_coeff=_fit_affine(*select_samples),
            hit_seconds=float(np.median(hit_times)),
            capture_select_coeff={
                name: _fit_affine(xs, ys)
                for name, (xs, ys) in capture_samples.items()
            },
            calibrated_worlds=calibrate_worlds,
        )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _hit_seconds(dataset, tau: float, k: int) -> float:
    """Median measured latency of a warm result-cache hit."""
    from ..service import SelectionEngine, SelectionQuery

    engine = SelectionEngine(dataset, max_workers=1)
    try:
        query = SelectionQuery(k=k, tau=tau)
        engine.execute(query)
        samples = [
            engine.execute(query).stats.total_seconds for _ in range(5)
        ]
    finally:
        engine.shutdown()
    return float(np.median(samples))
