"""Capacitated MC²LS: selected sites can each serve at most ``L`` users.

Warehouses, clinics and parcel lockers saturate (the capacitated CLS
variants in the paper's related work, e.g. Chen et al.'s warehouse
placement).  With a per-site capacity ``L`` the value of a selection is
an *assignment*: every covered user may be served by at most one selected
site, every site serves at most ``L`` users, and the objective is the
total evenly-split weight of the served users.

For a fixed selection the optimal assignment is a maximum-weight
b-matching; because every user has the same weight at every site that
covers them, the greedy "serve the heaviest unserved users first" rule
is exact per site set *given an order*, and the overall selection uses
the standard greedy over the capacitated marginal gain.  The objective
remains monotone submodular (it is a weighted matroid-rank-style
coverage), so the greedy keeps a constant-factor guarantee; the exact
assignment for the final set is recomputed globally for reporting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..exceptions import SolverError
from .base import (
    MC2LSProblem,
    PhaseTimer,
    Solver,
    SolverResult,
    require_default_capture,
)
from .coverage import CoverageMatrix
from .iqt import IQTSolver


@dataclass(frozen=True)
class CapacitatedOutcome:
    """Selection with the serving assignment realised at the end."""

    selected: Tuple[int, ...]
    objective: float
    gains: Tuple[float, ...]
    assignment: Dict[int, Tuple[int, ...]]  # cid -> served user ids


def _assignment_value(
    table: InfluenceTable,
    cids: Sequence[int],
    capacity: int,
    weight: Dict[int, float],
) -> Tuple[float, Dict[int, List[int]]]:
    """Optimal maximum-weight assignment of users to capacitated sites.

    A user's weight is the same at every covering site, so the servable
    user sets form a transversal matroid: processing users in decreasing
    weight and admitting each one iff an *augmenting path* exists (move
    already-served users between their covering sites to free a slot)
    yields the maximum-weight b-matching exactly.  Ties break by user id
    then site id for determinism.
    """
    served: Dict[int, List[int]] = {cid: [] for cid in cids}
    assigned_to: Dict[int, int] = {}  # uid -> cid currently serving it
    coverers: Dict[int, List[int]] = {}
    for cid in cids:
        for uid in table.omega_c.get(cid, ()):
            coverers.setdefault(uid, []).append(cid)
    for sites in coverers.values():
        sites.sort()

    def try_serve(uid: int, blocked_sites: Set[int]) -> bool:
        """DFS for an augmenting path admitting ``uid``."""
        for cid in coverers[uid]:
            if cid in blocked_sites:
                continue
            blocked_sites.add(cid)
            if len(served[cid]) < capacity:
                served[cid].append(uid)
                assigned_to[uid] = cid
                return True
            # Full: try to relocate one of its users to another site.
            for other in served[cid]:
                if try_serve_move(other, blocked_sites):
                    served[cid].remove(other)
                    served[cid].append(uid)
                    assigned_to[uid] = cid
                    return True
        return False

    def try_serve_move(uid: int, blocked_sites: Set[int]) -> bool:
        """Find an alternative slot for an already-served user."""
        for cid in coverers[uid]:
            if cid in blocked_sites:
                continue
            blocked_sites.add(cid)
            if len(served[cid]) < capacity:
                served[cid].append(uid)
                assigned_to[uid] = cid
                return True
            for other in served[cid]:
                if other == uid:
                    continue
                if try_serve_move(other, blocked_sites):
                    served[cid].remove(other)
                    served[cid].append(uid)
                    assigned_to[uid] = cid
                    return True
        return False

    total = 0.0
    for uid in sorted(coverers, key=lambda u: (-weight[u], u)):
        if try_serve(uid, set()):
            total += weight[uid]
    for uids in served.values():
        uids.sort()
    return total, served


class CapacitatedGreedySolver(Solver):
    """Greedy site selection under per-site capacity ``L``.

    Args:
        capacity: Maximum users one selected site can serve.
        base_solver: Relationship-resolution solver (defaults to IQT);
            only its influence table is used.

    The greedy runs lazily (CELF) with initial upper bounds from the
    vectorized CSR coverage kernel — the uncapacitated coverage gain
    bounds the capacitated marginal (``f(S ∪ c) − f(S) ≤ f({c}) ≤
    Σ_{o ∈ Ω_c} w_o``), and the capacitated objective is submodular, so
    stale marginals are valid bounds across rounds.  The selection is
    that of the evaluate-everything greedy.
    """

    name = "capacitated"

    def __init__(
        self,
        capacity: int,
        base_solver: Optional[Solver] = None,
    ):
        if capacity < 1:
            raise SolverError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.base_solver = base_solver or IQTSolver()

    def solve(self, problem: MC2LSProblem) -> SolverResult:
        require_default_capture(problem, self.name)
        timer = PhaseTimer()
        with timer.mark("resolve"):
            base = self.base_solver.solve(problem)
        table = base.table
        weight = {
            uid: 1.0 / (table.competitor_count(uid) + 1)
            for users in table.omega_c.values()
            for uid in users
        }
        candidate_ids = sorted(c.fid for c in problem.dataset.candidates)

        with timer.mark("greedy"):
            selected, gains = self._lazy_greedy(
                table, weight, candidate_ids, problem.k
            )
            final_value, assignment = _assignment_value(
                table, selected, self.capacity, weight
            )

        return SolverResult(
            selected=tuple(selected),
            objective=final_value,
            table=table,
            timings=timer.finish(),
            evaluation=base.evaluation,
            pruning=base.pruning,
            gains=tuple(gains),
        )

    # ------------------------------------------------------------------
    def _lazy_greedy(
        self,
        table: InfluenceTable,
        weight: Dict[int, float],
        candidate_ids: Sequence[int],
        k: int,
    ) -> Tuple[List[int], List[float]]:
        """CELF over assignment marginals, seeded with CSR coverage bounds.

        The heap starts from one vectorized kernel pass (screened
        coverage gain + tolerance, an upper bound on any round's
        capacitated marginal) with stamp 0, so a candidate is only ever
        selected after an exact assignment evaluation in the current
        round; hopeless candidates are never assignment-evaluated at
        all.  Heap order ``(-gain, cid)`` reproduces the eager loop's
        smallest-id tie-break.
        """
        cover = CoverageMatrix(table, candidate_ids)
        g, t = cover.screened_gains(
            np.arange(cover.n_candidates), cover.new_covered_mask()
        )
        # Entries are (-gain, cid, stamp, value); cids are unique so the
        # comparison never reaches the stamp.
        heap: List[Tuple[float, int, int, float]] = [
            (-(gi + ti), int(cid), 0, 0.0)
            for gi, ti, cid in zip(g.tolist(), t.tolist(), cover.candidate_ids)
        ]
        heapq.heapify(heap)
        selected: List[int] = []
        gains: List[float] = []
        current_value = 0.0
        for round_no in range(1, k + 1):
            while True:
                neg_gain, cid, stamp, value = heapq.heappop(heap)
                if stamp == round_no:
                    gains.append(-neg_gain)
                    current_value = value
                    selected.append(cid)
                    break
                value, _ = _assignment_value(
                    table, selected + [cid], self.capacity, weight
                )
                heapq.heappush(
                    heap, (-(value - current_value), cid, round_no, value)
                )
        return selected, gains

    def outcome_details(
        self, problem: MC2LSProblem
    ) -> CapacitatedOutcome:
        """Solve and return the full per-site serving assignment."""
        result = self.solve(problem)
        weight = {
            uid: 1.0 / (result.table.competitor_count(uid) + 1)
            for users in result.table.omega_c.values()
            for uid in users
        }
        value, served = _assignment_value(
            result.table, list(result.selected), self.capacity, weight
        )
        return CapacitatedOutcome(
            selected=result.selected,
            objective=value,
            gains=result.gains,
            assignment={cid: tuple(uids) for cid, uids in served.items()},
        )
