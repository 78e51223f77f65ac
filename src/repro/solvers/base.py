"""Solver interface and result types for the MC²LS problem.

An :class:`MC2LSProblem` fixes the instance (dataset, ``k``, ``τ``, ``PF``);
a :class:`Solver` turns it into a :class:`SolverResult`.  All solvers in
this package resolve the same influence relationships (soundly pruned,
exactly verified) and therefore return *identical* selections — they differ
only in how much work the resolution phase needs, which is what the
paper's evaluation measures.  The result object carries the timing
breakdown and work counters the benchmark harness reports.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..entities import SpatialDataset
from ..exceptions import SolverError
from ..influence import (
    BatchInfluenceEvaluator,
    EvaluationStats,
    ProbabilityFunction,
    paper_default_pf,
)
from ..pruning import PruningStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..capture import CaptureModel


@dataclass(frozen=True)
class MC2LSProblem:
    """A fully specified MC²LS instance (Definition 7).

    Attributes:
        dataset: Users ``Ω``, competitors ``F`` and candidates ``C``.
        k: Number of locations to select.
        tau: Influence probability threshold.
        pf: Distance-decay probability function (paper default when ``None``).
        capture: Customer-choice capture model (:mod:`repro.capture`);
            ``None`` means the paper's evenly-split model.  Resolution is
            capture-agnostic — only the greedy phase consults it — so
            the iQT/baseline/k-CIFP solvers accept any registered model;
            structure-exploiting solvers (exact, budgeted, capacitated)
            reject set-aware models explicitly.
    """

    dataset: SpatialDataset
    k: int
    tau: float = 0.7
    pf: ProbabilityFunction = field(default_factory=paper_default_pf)
    capture: Optional["CaptureModel"] = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SolverError(f"k must be >= 1, got {self.k}")
        if self.k > len(self.dataset.candidates):
            raise SolverError(
                f"k={self.k} exceeds the {len(self.dataset.candidates)} candidates"
            )
        if not 0.0 < self.tau < 1.0:
            raise SolverError(f"tau must be in (0, 1), got {self.tau}")


@dataclass
class SolverResult:
    """Outcome of one solver run.

    Attributes:
        selected: Candidate ids in greedy selection order.
        objective: ``cinf(selected)`` under the evenly-split model.
        table: The resolved influence relationships (``Ω_c`` / ``F_o``).
        timings: Per-phase wall-clock seconds (keys are solver-specific;
            ``"total"`` is always present).
        evaluation: Probability-evaluation counters (verification cost).
        pruning: Pair-classification counters, when the solver prunes.
        gains: Marginal gain recorded at each greedy round.
    """

    selected: Tuple[int, ...]
    objective: float
    table: InfluenceTable
    timings: Dict[str, float]
    evaluation: EvaluationStats
    pruning: Optional[PruningStats] = None
    gains: Tuple[float, ...] = ()

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds, indexing plus querying."""
        return self.timings.get("total", 0.0)


@dataclass
class ResolvedInstance:
    """Everything a solver computes *before* the selection phase.

    The expensive part of every solver is resolving the influence
    relationships for a ``(dataset, PF, τ)`` configuration; the greedy
    phase that consumes them is cheap and parameterised only by ``k``
    (and optionally a candidate subset).  Splitting the two lets the
    serving engine (:mod:`repro.service`) resolve once and answer many
    queries against the same table.

    Attributes:
        table: The resolved influence relationships (``Ω_c`` / ``F_o``).
        evaluation: Probability-evaluation counters of the resolution.
        pruning: Pair-classification counters, when the solver prunes.
        timings: Per-phase wall-clock seconds of the resolution.
    """

    table: InfluenceTable
    evaluation: EvaluationStats
    pruning: Optional[PruningStats] = None
    timings: Dict[str, float] = field(default_factory=dict)


def patch_resolution(
    parent: ResolvedInstance,
    dataset: SpatialDataset,
    dirty_uids: Tuple[int, ...],
    removed_uids: Tuple[int, ...],
    tau: float,
    pf: ProbabilityFunction,
) -> Tuple[ResolvedInstance, Dict[int, Set[int]]]:
    """Re-resolve only the dirty user rows of a previously resolved table.

    ``parent`` resolved some earlier version of the population under the
    same ``(PF, τ)``; ``dataset`` is the mutated version, ``dirty_uids``
    the users whose rows must be verified afresh (added or re-positioned)
    and ``removed_uids`` the users that left.  Every other user's
    relationships are carried over untouched — sound because influence is
    decided per ``(facility, user)`` pair, so churn in one user's history
    cannot change any other user's row.

    Each dirty user is decided against *all* candidates and facilities
    through the batched kernel.  The resulting ``omega_c`` therefore
    matches a fresh resolve of ``dataset`` exactly; ``f_o`` matches on
    every user a candidate influences, which is the subset selection
    ever reads.

    Returns:
        ``(resolved, added_cover)`` — the patched resolution (timings
        carry a ``"patch"`` phase; the evaluation counters cover only the
        dirty-row work) and the ``uid -> covering candidate ids`` map the
        CSR splice (:meth:`CoverageMatrix.patched`) consumes.

    Raises:
        SolverError: When a dirty uid is missing from ``dataset`` or a
            removed uid is still present — the delta does not describe
            this dataset.
    """
    timer = PhaseTimer()
    users_by_uid = {u.uid: u for u in dataset.users}
    present_removed = [uid for uid in removed_uids if uid in users_by_uid]
    if present_removed:
        raise SolverError(
            f"removed uids {present_removed} are still present in the dataset"
        )
    missing_dirty = [uid for uid in dirty_uids if uid not in users_by_uid]
    if missing_dirty:
        raise SolverError(
            f"dirty uids {missing_dirty} are absent from the dataset"
        )
    doomed = set(dirty_uids) | set(removed_uids)
    omega_c: Dict[int, Set[int]] = {
        cid: (users - doomed if users & doomed else set(users))
        for cid, users in parent.table.omega_c.items()
    }
    f_o: Dict[int, Set[int]] = {
        uid: set(fids)
        for uid, fids in parent.table.f_o.items()
        if uid not in doomed
    }

    batch = BatchInfluenceEvaluator(pf, tau)
    added_cover: Dict[int, Set[int]] = {}
    with timer.mark("patch"):
        cand_xy = np.array(
            [[c.x, c.y] for c in dataset.candidates], dtype=np.float64
        ).reshape(-1, 2)
        fac_xy = np.array(
            [[f.x, f.y] for f in dataset.facilities], dtype=np.float64
        ).reshape(-1, 2)
        for uid in dirty_uids:
            pos = users_by_uid[uid].positions
            hit = batch.influences_facilities(cand_xy, pos)
            added_cover[uid] = {c.fid for c, h in zip(dataset.candidates, hit) if h}
            hit = batch.influences_facilities(fac_xy, pos)
            f_o[uid] = {f.fid for f, h in zip(dataset.facilities, hit) if h}
        for uid, covering in added_cover.items():
            for cid in covering:
                omega_c[cid].add(uid)
    resolved = ResolvedInstance(
        table=InfluenceTable(omega_c, f_o),
        evaluation=batch.stats,
        pruning=None,
        timings=timer.finish(),
    )
    return resolved, added_cover


def require_default_capture(problem: MC2LSProblem, solver_name: str) -> None:
    """Reject non-evenly-split capture on structure-exploiting solvers.

    The exact, budgeted and capacitated solvers exploit the evenly-split
    objective's structure (precomputed per-user weights, cost ratios,
    load-aware swaps); silently running them under another capture model
    would optimise the wrong objective, so they refuse loudly instead.
    """
    capture = problem.capture
    if capture is None:
        return
    from ..capture import DEFAULT_CAPTURE_KEY

    if capture.cache_key() != DEFAULT_CAPTURE_KEY:
        raise SolverError(
            f"solver {solver_name!r} supports only the evenly-split "
            f"capture model, got {capture.name!r}; use the iqt/baseline/"
            "k-cifp solvers for other capture models"
        )


class Solver(ABC):
    """Base class for MC²LS solvers.

    Thread-safety contract: a solver instance holds *configuration only*.
    Every mutable accumulator (:class:`~repro.influence.EvaluationStats`,
    :class:`~repro.pruning.PruningStats`, phase timers) is created inside
    :meth:`solve` / :meth:`resolve` per call, so one instance may serve
    concurrent calls from multiple threads and each returned result
    carries exactly its own query's counters.  Subclasses must not write
    to ``self`` during ``solve`` — the serving engine and its two-thread
    regression test rely on this.
    """

    name: str = "solver"

    @abstractmethod
    def solve(self, problem: MC2LSProblem) -> SolverResult:
        """Solve the instance and return the selection with its metrics."""

    def resolve(
        self,
        dataset: SpatialDataset,
        tau: float,
        pf: Optional[ProbabilityFunction] = None,
    ) -> ResolvedInstance:
        """Resolve the influence relationships without selecting.

        Solvers that separate resolution from selection override this;
        the serving engine only accepts those.  The returned timings
        include a ``"total"`` entry covering the resolution.
        """
        raise SolverError(
            f"solver {self.name!r} does not support resolution-only preparation"
        )


def resolve_all_pairs(
    dataset: SpatialDataset,
    batch: BatchInfluenceEvaluator,
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Brute-force resolution of every ``(facility, user)`` relationship.

    Shared by the baseline and exact solvers.  ``batch`` names the
    ``(PF, τ)`` configuration and receives the counters; the decisions
    take one vectorised pass per abstract facility over the dataset's
    position arena.

    Returns:
        ``(omega_c, f_o)`` — candidate coverage sets and per-user
        competitor sets, keyed by id.
    """
    f_o: Dict[int, Set[int]] = {u.uid: set() for u in dataset.users}
    arena = dataset.arena
    omega_c = {
        c.fid: set(arena.uids[batch.influences_users(c.x, c.y, arena)].tolist())
        for c in dataset.candidates
    }
    for f in dataset.facilities:
        hit = batch.influences_users(f.x, f.y, arena)
        for uid in arena.uids[hit].tolist():
            f_o[uid].add(f.fid)
    return omega_c, f_o


class PhaseTimer:
    """Accumulates named wall-clock phases into a timings dict."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}
        self._start = time.perf_counter()

    def mark(self, name: str) -> "_Phase":
        """Return a context manager timing one named phase."""
        return _Phase(self, name)

    def finish(self) -> Dict[str, float]:
        """Record the total elapsed time and return the dict."""
        self.timings["total"] = time.perf_counter() - self._start
        return self.timings


class _Phase:
    def __init__(self, timer: PhaseTimer, name: str):
        self._timer = timer
        self._name = name

    def __enter__(self) -> "_Phase":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        self._timer.timings[self._name] = (
            self._timer.timings.get(self._name, 0.0) + elapsed
        )
