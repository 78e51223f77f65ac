"""Exact (exhaustive) solver — the ground truth for small instances.

Enumerates every size-``k`` candidate combination and returns the one
maximising ``cinf(G)``.  Exponential in ``k`` (the problem is NP-hard), so
this exists for correctness testing and the approximation-ratio benchmark,
not for real workloads; a guard refuses instances with too many
combinations rather than silently burning hours.
"""

from __future__ import annotations

from math import comb
from typing import List, Sequence, Tuple

import numpy as np

from ..competition import InfluenceTable, cinf_group
from ..exceptions import SolverError
from ..influence import BatchInfluenceEvaluator
from .base import (
    MC2LSProblem,
    PhaseTimer,
    Solver,
    SolverResult,
    require_default_capture,
    resolve_all_pairs,
)


class ExactSolver(Solver):
    """Brute-force enumeration of all k-subsets.

    Args:
        max_combinations: Safety cap on ``C(n, k)``; exceeding it raises
            :class:`SolverError` instead of running forever.

    The enumeration uses vectorised coverage masks — prefix unions
    shared across the lexicographic recursion, one boolean OR plus one
    dot product per combination — instead of Python set unions;
    screened values only ever *shortlist* combinations, and every
    shortlisted one is re-scored with the exact ``cinf_group`` in
    lexicographic order, so the returned group is identical to a plain
    scan of ``cinf_group`` over all combinations.
    """

    name = "exact"

    def __init__(self, max_combinations: int = 2_000_000):
        self.max_combinations = max_combinations

    def solve(self, problem: MC2LSProblem) -> SolverResult:
        require_default_capture(problem, self.name)
        dataset = problem.dataset
        n = len(dataset.candidates)
        n_combos = comb(n, problem.k)
        if n_combos > self.max_combinations:
            raise SolverError(
                f"C({n}, {problem.k}) = {n_combos} combinations exceed the "
                f"{self.max_combinations} cap; the exact solver is for small "
                "instances only"
            )
        timer = PhaseTimer()
        batch = BatchInfluenceEvaluator(problem.pf, problem.tau)

        with timer.mark("influence"):
            omega_c, f_o = resolve_all_pairs(dataset, batch)
        table = InfluenceTable(omega_c, f_o)

        with timer.mark("enumeration"):
            cids = sorted(c.fid for c in dataset.candidates)
            table.validate_against(set(cids))
            best_group, best_value = self._enumerate(table, cids, problem.k)

        return SolverResult(
            selected=best_group,
            objective=best_value,
            table=table,
            timings=timer.finish(),
            evaluation=batch.stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _enumerate(
        table: InfluenceTable, cids: Sequence[int], k: int
    ) -> Tuple[Tuple[int, ...], float]:
        """Two-pass vectorised enumeration, identical to a scalar scan.

        Pass 1 finds the maximum *screened* value (dot products carry a
        bounded rounding error); pass 2 re-walks the combinations and
        scores every one whose screened value reaches the maximum minus
        that bound with the exact ``cinf_group``, applying the scalar
        loop's first-strictly-greater rule in the same lexicographic
        order.  The winner therefore matches a scalar scan of every
        combination exactly, ties included.
        """
        from .coverage import CoverageMatrix

        cover = CoverageMatrix(table, cids)
        n = cover.n_candidates
        n_users = cover.n_users
        w = cover.weights
        masks = np.zeros((n, max(n_users, 1)), dtype=bool)
        for j in range(n):
            masks[j, cover.col[cover.indptr[j] : cover.indptr[j + 1]]] = True
        # Worst-case dot-product error over a combo: n_users · ulp · Σw,
        # doubled for slack; any combo within it of the screened maximum
        # is shortlisted for exact rescoring.
        tol = 2.0 * n_users * (2.0 ** -52) * float(w.sum()) if n_users else 0.0
        root = np.zeros(masks.shape[1], dtype=bool)

        best_screened = -np.inf

        def scan(start: int, depth: int, prefix: np.ndarray) -> None:
            nonlocal best_screened
            for j in range(start, n - (k - depth) + 1):
                union = prefix | masks[j]
                if depth + 1 == k:
                    value = float(union @ w)
                    if value > best_screened:
                        best_screened = value
                else:
                    scan(j + 1, depth + 1, union)

        scan(0, 0, root)

        best_group: Tuple[int, ...] = ()
        best_value = -1.0
        path: List[int] = []

        def confirm(start: int, depth: int, prefix: np.ndarray) -> None:
            nonlocal best_group, best_value
            for j in range(start, n - (k - depth) + 1):
                union = prefix | masks[j]
                path.append(j)
                if depth + 1 == k:
                    if float(union @ w) >= best_screened - tol:
                        group = tuple(cover.candidate_ids[i] for i in path)
                        value = cinf_group(table, group)
                        if value > best_value:
                            best_value = value
                            best_group = group
                else:
                    confirm(j + 1, depth + 1, union)
                path.pop()

        confirm(0, 0, root)
        return best_group, best_value
