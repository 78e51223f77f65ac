"""Greedy k-selection over a resolved influence table.

This is the phase shared by every solver (Algorithm 1, lines 16–24): pick
the candidate with the maximum competitive influence, remove its users,
repeat ``k`` times.

* :func:`run_selection` — the solvers' one production path: the
  vectorized CSR kernel (:mod:`repro.solvers.coverage`), or the capture
  loop (:func:`repro.capture.capture_select`) for set-aware capture
  models.
* :func:`greedy_select` — the paper's recompute-every-round greedy, kept
  for the ablation benchmarks and as the differential suites' reference.
* :func:`lazy_greedy_select` — CELF-style lazy evaluation exploiting
  submodularity; returns the identical selection with far fewer candidate
  evaluations on large candidate sets (ablation A2).

All three select identically.

Ties are broken toward the smallest candidate id so all solvers produce
exactly the same sequence, which the paper's Fig. 14 relies on ("all the
algorithms achieve identical k result candidates").

Every entry point validates the table against the candidate set up
front: a table referencing unknown candidate ids raises
:class:`~repro.exceptions.SolverError` instead of silently selecting
from a mismatched universe.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..competition import CompetitionModel, EvenlySplitModel, InfluenceTable
from ..exceptions import SolverError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..capture import CaptureModel

#: Cooperative cancellation hook: called at the top of every greedy round;
#: raises (e.g. :class:`~repro.exceptions.DeadlineExceededError`) to abort.
CancelCheck = Optional[Callable[[], None]]


@dataclass(frozen=True)
class GreedyOutcome:
    """Selection order, objective value and per-round marginal gains."""

    selected: Tuple[int, ...]
    objective: float
    gains: Tuple[float, ...]
    evaluations: int


def greedy_select(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    model: CompetitionModel | None = None,
    cancel_check: CancelCheck = None,
) -> GreedyOutcome:
    """Paper-faithful greedy: recompute every candidate's gain each round."""
    if k < 1 or k > len(candidate_ids):
        raise SolverError(f"k={k} infeasible for {len(candidate_ids)} candidates")
    table.validate_against(set(candidate_ids))
    model = model or EvenlySplitModel()
    remaining = sorted(candidate_ids)
    covered: Set[int] = set()
    selected: List[int] = []
    gains: List[float] = []
    evaluations = 0
    for _ in range(k):
        if cancel_check is not None:
            cancel_check()
        best_cid = None
        best_gain = -1.0
        for cid in remaining:
            gain = model.candidate_value(table, cid, excluded=covered)
            evaluations += 1
            if gain > best_gain:
                best_gain = gain
                best_cid = cid
        assert best_cid is not None
        selected.append(best_cid)
        gains.append(best_gain)
        remaining.remove(best_cid)
        covered |= table.omega_c.get(best_cid, set())
    return GreedyOutcome(tuple(selected), sum(gains), tuple(gains), evaluations)


def lazy_greedy_select(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    model: CompetitionModel | None = None,
    cancel_check: CancelCheck = None,
) -> GreedyOutcome:
    """CELF lazy greedy: identical output, far fewer gain evaluations.

    Submodularity guarantees a candidate's marginal gain only shrinks as
    the selection grows, so a stale upper bound at the top of a max-heap
    that still beats every other bound is already the round winner.
    """
    if k < 1 or k > len(candidate_ids):
        raise SolverError(f"k={k} infeasible for {len(candidate_ids)} candidates")
    table.validate_against(set(candidate_ids))
    model = model or EvenlySplitModel()
    covered: Set[int] = set()
    evaluations = 0
    # Heap of (-gain, cid, round_when_computed); cid ordering in the tuple
    # gives the smallest-id tie-break for equal gains.
    heap: List[Tuple[float, int, int]] = []
    for cid in sorted(candidate_ids):
        gain = model.candidate_value(table, cid, excluded=covered)
        evaluations += 1
        heap.append((-gain, cid, 0))
    heapq.heapify(heap)
    selected: List[int] = []
    gains: List[float] = []
    for round_no in range(1, k + 1):
        if cancel_check is not None:
            cancel_check()
        while True:
            neg_gain, cid, computed_at = heapq.heappop(heap)
            if computed_at == round_no:
                selected.append(cid)
                gains.append(-neg_gain)
                covered |= table.omega_c.get(cid, set())
                break
            gain = model.candidate_value(table, cid, excluded=covered)
            evaluations += 1
            heapq.heappush(heap, (-gain, cid, round_no))
    return GreedyOutcome(tuple(selected), sum(gains), tuple(gains), evaluations)


def run_selection(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    model: CompetitionModel | None = None,
    cancel_check: CancelCheck = None,
    capture: "CaptureModel | None" = None,
) -> GreedyOutcome:
    """Run the greedy phase through the CSR kernel.

    The solvers' shared selection entry point: selection runs through
    :class:`~repro.solvers.coverage.CoverageMatrix` and returns the
    selection and gains of :func:`greedy_select`.  ``cancel_check``
    (when given) runs at the top of every greedy round; the serving
    engine passes its deadline/cancellation probe here.

    ``capture`` selects the customer-choice capture model
    (:mod:`repro.capture`).  Set-independent models (evenly-split, Huff)
    reduce to a per-user weight model for the CSR kernel — passing
    ``capture=evenly_split_capture()`` is bit-identical to passing
    nothing.  Set-aware models (MNL, fixed-worlds) dispatch to the CELF
    loop of :func:`repro.capture.capture_select` instead.  ``capture``
    and ``model`` are mutually exclusive ways of naming the weights.
    """
    if capture is not None:
        if model is not None:
            raise SolverError(
                "pass either model= or capture=, not both; a capture "
                "model names its own per-user weights"
            )
        if capture.set_independent:
            model = capture.weight_model
        else:
            from ..capture.select import capture_select

            return capture_select(
                table, candidate_ids, k, capture, cancel_check=cancel_check
            )
    from .coverage import coverage_select

    return coverage_select(
        table, candidate_ids, k, model=model, cancel_check=cancel_check
    )
