"""Budget-constrained MC²LS: opening costs replace the cardinality k.

The paper's introduction notes that *budget* is what actually determines
``k`` in practice.  This variant makes the budget explicit: candidate
``c`` costs ``cost[c]`` to open, the constraint is ``Σ cost ≤ B``, and
the objective is unchanged.  This is budgeted maximum coverage
(Khuller–Moss–Naor): the cost-effectiveness greedy (pick the best
gain/cost ratio that still fits) compared against the best single
affordable candidate guarantees a ``(1 − 1/e)/2`` approximation; the
implementation returns whichever of the two is better.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

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


class BudgetedGreedySolver(Solver):
    """Cost-effectiveness greedy under an opening budget.

    Args:
        costs: ``candidate id -> opening cost`` (positive).
        budget: Total budget ``B``.
        base_solver: Relationship-resolution solver (defaults to IQT).

    Each round evaluates the gain/cost ratios of all affordable
    candidates in one vectorized CSR pass and confirms the round winner
    at exact (``fsum``) precision, so the selection is the scalar ratio
    greedy's.  The problem's ``k`` is ignored (the budget is the binding
    constraint); it must still be a valid value for problem construction.
    """

    name = "budgeted"

    def __init__(
        self,
        costs: Dict[int, float],
        budget: float,
        base_solver: Optional[Solver] = None,
    ):
        if budget <= 0:
            raise SolverError(f"budget must be positive, got {budget}")
        if any(c <= 0 for c in costs.values()):
            raise SolverError("all opening costs must be positive")
        self.costs = dict(costs)
        self.budget = budget
        self.base_solver = base_solver or IQTSolver()

    # ------------------------------------------------------------------
    def solve(self, problem: MC2LSProblem) -> SolverResult:
        require_default_capture(problem, self.name)
        timer = PhaseTimer()
        with timer.mark("resolve"):
            base = self.base_solver.solve(problem)
        table = base.table
        candidate_ids = sorted(c.fid for c in problem.dataset.candidates)
        missing = [cid for cid in candidate_ids if cid not in self.costs]
        if missing:
            raise SolverError(f"no cost given for candidates {missing[:5]}")

        with timer.mark("greedy"):
            cover = CoverageMatrix(table, candidate_ids)
            ratio_sel, ratio_gains = self._ratio_greedy(cover)
            single = self._best_single(cover)
            # Objective reporting through the matrix's vectorized union —
            # fsum over the covered-weight multiset, bit-equal to the
            # scalar ``EvenlySplitModel.group_value``.
            ratio_value = cover.objective_of(ratio_sel)
            single_value = (
                cover.objective_of([single]) if single is not None else None
            )
            if single_value is not None and single_value > ratio_value:
                selected: List[int] = [single]
                gains = (single_value,)
                objective = gains[0]
            else:
                selected = ratio_sel
                gains = tuple(ratio_gains)
                objective = ratio_value

        return SolverResult(
            selected=tuple(selected),
            objective=objective,
            table=table,
            timings=timer.finish(),
            evaluation=base.evaluation,
            pruning=base.pruning,
            gains=gains,
        )

    # ------------------------------------------------------------------
    def _ratio_greedy(
        self, cover: CoverageMatrix
    ) -> tuple[List[int], List[float]]:
        """Vectorized ratio greedy, selection-identical to the scalar one.

        Screened gains bound each candidate's exact gain/cost ratio from
        both sides (the 1e-12 slack swallows the division rounding);
        only candidates whose upper edge reaches the best lower edge are
        confirmed with exact ``fsum`` gains, scanned in ascending id with
        the scalar loop's strict-``>`` rule.
        """
        cand = cover.candidate_ids
        costs = np.array([self.costs[int(cid)] for cid in cand], dtype=np.float64)
        covered = cover.new_covered_mask()
        remaining = np.flatnonzero(costs <= self.budget)
        selected: List[int] = []
        gains: List[float] = []
        spent = 0.0
        while remaining.size:
            g, t = cover.screened_gains(remaining, covered)
            c = costs[remaining]
            ub = (g + t) / c * (1.0 + 1e-12)
            lb = (g - t) / c * (1.0 - 1e-12)
            near = remaining[ub >= lb.max()]
            best_j = None
            best_ratio = -1.0
            best_gain = 0.0
            for j in near.tolist():  # ascending index == ascending cid
                gain = cover.exact_gain(j, covered)
                ratio = gain / costs[j]
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_gain = gain
                    best_j = j
            if best_j is None or best_gain <= 0.0:
                break
            selected.append(int(cand[best_j]))
            gains.append(best_gain)
            cover.cover(best_j, covered)
            spent += costs[best_j]
            remaining = remaining[
                (remaining != best_j) & (spent + costs[remaining] <= self.budget)
            ]
        return selected, gains

    def _best_single(self, cover: CoverageMatrix) -> Optional[int]:
        costs = np.array(
            [self.costs[int(cid)] for cid in cover.candidate_ids],
            dtype=np.float64,
        )
        affordable = np.flatnonzero(costs <= self.budget)
        if affordable.size == 0:
            return None
        covered = cover.new_covered_mask()
        g, t = cover.screened_gains(affordable, covered)
        near = affordable[(g + t) >= (g - t).max()]
        best = None
        best_value = -1.0
        for j in near.tolist():
            value = cover.exact_gain(j, covered)
            if value > best_value:
                best_value = value
                best = int(cover.candidate_ids[j])
        return best

    def total_cost(self, selected: Sequence[int]) -> float:
        """Opening cost of a selection under this solver's cost map."""
        return sum(self.costs[cid] for cid in selected)
