"""The adapted k-CIFP solver (paper §IV-B, Algorithm 1).

Prunes *abstract facilities* per user with the PINOCCHIO IA/NIB regions
over two R-trees (``RT_C`` for candidates, ``RT_F`` for competitors),
verifies the interstitial pairs exactly, and runs the shared greedy.

Per Algorithm 1, line 10, the competitor relationships ``F_o`` are only
resolved for users already influenced by at least one candidate — users
no candidate can reach never contribute to any ``cinf`` and are skipped.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..competition import InfluenceTable
from ..entities import SpatialDataset
from ..influence import InfluenceEvaluator, ProbabilityFunction, paper_default_pf
from ..pruning import PinocchioPruner, PruningStats
from .base import (
    MC2LSProblem,
    PhaseTimer,
    ResolvedInstance,
    Solver,
    SolverResult,
)
from .selection import run_selection


class AdaptedKCIFPSolver(Solver):
    """IA/NIB facility pruning + exact verification + greedy selection.

    Algorithm 1 verifies each interstitial pair with the plain cumulative
    probability (Definition 2), one scalar call per pair.
    """

    name = "k-cifp"

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
            pruning=resolved.pruning,
            gains=outcome.gains,
        )

    def resolve(
        self,
        dataset: SpatialDataset,
        tau: float,
        pf: Optional[ProbabilityFunction] = None,
    ) -> ResolvedInstance:
        """IA/NIB pruning + verification only: the influence table."""
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
        evaluator = InfluenceEvaluator(pf, tau, early_stopping=False)
        pruning = PruningStats()

        with timer.mark("index"):
            pruner_c = PinocchioPruner(dataset.candidates, tau, pf)
            pruner_f = PinocchioPruner(dataset.facilities, tau, pf)

        omega_c: Dict[int, Set[int]] = {c.fid: set() for c in dataset.candidates}
        f_o: Dict[int, Set[int]] = {}

        # Lines 3–9: resolve candidate relationships for every user.
        with timer.mark("candidates"):
            for user in dataset.users:
                result = pruner_c.classify_user(user)
                for c in result.confirmed:
                    omega_c[c.fid].add(user.uid)
                for c in result.verify:
                    if evaluator.influences(c.x, c.y, user.positions):
                        omega_c[c.fid].add(user.uid)

        # Lines 10–15: resolve competitor relationships, but only for users
        # influenced by at least one candidate.
        influenced_uids: Set[int] = set()
        for users in omega_c.values():
            influenced_uids |= users
        users_by_uid = {u.uid: u for u in dataset.users}
        with timer.mark("facilities"):
            for uid in influenced_uids:
                user = users_by_uid[uid]
                fo: Set[int] = set()
                result = pruner_f.classify_user(user)
                for f in result.confirmed:
                    fo.add(f.fid)
                for f in result.verify:
                    if evaluator.influences(f.x, f.y, user.positions):
                        fo.add(f.fid)
                f_o[uid] = fo

        pruning.merge(pruner_c.stats)
        pruning.merge(pruner_f.stats)

        return ResolvedInstance(
            table=InfluenceTable(omega_c, f_o),
            evaluation=evaluator.stats,
            pruning=pruning,
        )
