"""Greedy selection over a set-aware capture oracle.

The CSR kernel's one-pass ``reduceat`` screen is only valid when a
user's weight is independent of the selected set; set-aware models get
this loop instead: CELF lazy evaluation over the model's *vectorized*
marginal-gain state (:meth:`~repro.capture.CaptureModel.make_state`) —
one numpy pass over a candidate's CSR segment per refresh.  Models with
``submodular = False`` would make stale CELF bounds unsound, so they
fall back to a full per-round rescan.

Ties break toward the smallest candidate id, matching the CSR
evenly-split path, so selections stay reproducible across execution
modes.  The model's scalar :meth:`~repro.capture.CaptureModel.gain`,
recomputed every round, is the reference the differential suites
compare this loop against.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from ..competition import InfluenceTable
from ..exceptions import SolverError
from ..solvers.selection import CancelCheck, GreedyOutcome
from .base import CaptureModel


def capture_select(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    model: CaptureModel,
    cancel_check: CancelCheck = None,
) -> GreedyOutcome:
    """Greedy ``k``-selection under a set-aware capture model.

    CELF over the vectorized oracle when the model declares
    submodularity; full per-round rescans otherwise.  ``cancel_check``
    runs at the top of every greedy round (the serving engine threads
    its deadline probe here, like every other selection path).
    """
    cids = tuple(sorted(set(int(c) for c in candidate_ids)))
    if k < 1 or k > len(cids):
        raise SolverError(f"k={k} infeasible for {len(cids)} candidates")
    table.validate_against(set(cids))
    state = model.make_state(table, cids)
    n = len(state.candidate_ids)
    selected: List[int] = []
    gains: List[float] = []
    evaluations = 0
    in_play = [True] * n

    if model.submodular:
        # CELF: (-gain, j) heap — equal gains pop the smallest index,
        # i.e. the smallest candidate id.
        heap: List[Tuple[float, int]] = []
        stamp = [0] * n
        for j in range(n):
            if cancel_check is not None and j == 0:
                cancel_check()
            heap.append((-state.gain(j), j))
            evaluations += 1
        heapq.heapify(heap)
        for rnd in range(k):
            if cancel_check is not None:
                cancel_check()
            while True:
                neg_gain, j = heapq.heappop(heap)
                if stamp[j] == rnd:
                    break
                gain = state.gain(j)
                evaluations += 1
                stamp[j] = rnd
                heapq.heappush(heap, (-gain, j))
            selected.append(int(state.candidate_ids[j]))
            gains.append(-neg_gain)
            in_play[j] = False
            state.add(j)
    else:
        for _ in range(k):
            if cancel_check is not None:
                cancel_check()
            best_j = -1
            best_gain = -1.0
            for j in range(n):
                if not in_play[j]:
                    continue
                gain = state.gain(j)
                evaluations += 1
                if gain > best_gain:
                    best_gain = gain
                    best_j = j
            assert best_j >= 0
            selected.append(int(state.candidate_ids[best_j]))
            gains.append(best_gain)
            in_play[best_j] = False
            state.add(best_j)

    return GreedyOutcome(tuple(selected), sum(gains), tuple(gains), evaluations)
