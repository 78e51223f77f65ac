"""The Baseline greedy solver (paper §IV-A).

Resolves every influence relationship by brute force — each of the
``(|C| + |F|) × |Ω|`` pairs is evaluated with the exact cumulative
probability over all of the user's positions — then runs the shared
greedy selection.  This is the yardstick the pruning solvers are measured
against: its cost is ``O((n + m)·u·r + 2kn)``.
"""

from __future__ import annotations

from typing import Optional

from ..competition import InfluenceTable
from ..entities import SpatialDataset
from ..influence import (
    BatchInfluenceEvaluator,
    ProbabilityFunction,
    paper_default_pf,
)
from .base import (
    MC2LSProblem,
    PhaseTimer,
    ResolvedInstance,
    Solver,
    SolverResult,
    resolve_all_pairs,
)
from .selection import run_selection


class BaselineGreedySolver(Solver):
    """Exhaustive relationship resolution + greedy selection.

    Each facility is evaluated against the whole population through the
    batched kernel; the greedy phase runs through the CSR kernel.
    """

    name = "baseline"

    def solve(self, problem: MC2LSProblem) -> SolverResult:
        timer = PhaseTimer()
        resolved = self._resolve(timer, problem.dataset, problem.tau, problem.pf)
        with timer.mark("greedy"):
            outcome = run_selection(
                resolved.table,
                [c.fid for c in problem.dataset.candidates],
                problem.k,
                capture=problem.capture,
            )
        return SolverResult(
            selected=outcome.selected,
            objective=outcome.objective,
            table=resolved.table,
            timings=timer.finish(),
            evaluation=resolved.evaluation,
            gains=outcome.gains,
        )

    def resolve(
        self,
        dataset: SpatialDataset,
        tau: float,
        pf: Optional[ProbabilityFunction] = None,
    ) -> ResolvedInstance:
        """Brute-force resolution only: the full influence table."""
        timer = PhaseTimer()
        resolved = self._resolve(timer, dataset, tau, pf or paper_default_pf())
        resolved.timings = timer.finish()
        return resolved

    def _resolve(
        self,
        timer: PhaseTimer,
        dataset: SpatialDataset,
        tau: float,
        pf: ProbabilityFunction,
    ) -> ResolvedInstance:
        batch = BatchInfluenceEvaluator(pf, tau)
        with timer.mark("influence"):
            omega_c, f_o = resolve_all_pairs(dataset, batch)
        return ResolvedInstance(
            table=InfluenceTable(omega_c, f_o), evaluation=batch.stats
        )
