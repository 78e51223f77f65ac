"""The IQuad-tree solver (paper §V-D, Algorithms 2–3) and its variants.

Four phases:

1. **Pruning** — build the IQuad-tree over the position arena; traverse
   it once per abstract facility (memoised per leaf) to split users into
   IS-confirmed / NIR-pruned / to-verify.
2. **NIB integration** (variant-dependent) — each facility's to-verify
   set shrinks to the users whose NIB region contains the facility
   (Algorithm 2, lines 5–12).  The IQT-PINO variant also applies the IA
   confirmation; plain IQT skips IA because the IS rule subsumes it at
   lower cost (Table I); IQT-C skips NIB entirely.
3. **Verification** — exact influence decision for every surviving pair
   (line 14), one segmented survival product per pair.
4. **Greedy selection** — the shared ``(1 − 1/e)`` greedy.

From the traversal to the influence table, each facility's confirmed
and to-verify pairs are sorted int64 arrays of arena rows
(``dataset.arena``), one per facility position: the tree indexes the
arena and its traversal returns the rows.  NIB runs on them as one
numpy pass per facility over per-row MBR and ``mMR`` arrays
(:class:`~repro.pruning.PruningRegionArrays`); the paper's R-tree range
query becomes the equivalent NIB-rectangle test.  Distances within a
relative ``1e-9`` of ``mMR`` are re-decided by the scalar
``UserPruningRegions`` rule, because ``np.hypot`` and ``math.hypot`` can
differ in the last ulp; the surviving pairs therefore equal those of the
per-user ``PinocchioPruner.classify_user`` loop pair for pair, and so do
the pruning and evaluation counters.  Verification passes the rows
straight to :class:`~repro.influence.BatchInfluenceEvaluator`, and the
competitors' candidate-coverage filter is a boolean row mask.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set

import numpy as np

from ..competition import InfluenceTable
from ..entities import AbstractFacility, SpatialDataset
from ..geo import Point
from ..influence import (
    BatchInfluenceEvaluator,
    ProbabilityFunction,
    paper_default_pf,
)
from ..pruning import PruningRegionArrays, PruningStats
from ..spatial import IQuadTree
from .base import (
    MC2LSProblem,
    PhaseTimer,
    ResolvedInstance,
    Solver,
    SolverResult,
)
from .selection import run_selection


class IQTVariant(enum.Enum):
    """Which classical pruning rules are layered on top of IS/NIR."""

    IQT = "iqt"  # IS + NIR + NIB (the paper's default)
    IQT_C = "iqt-c"  # IS + NIR only
    IQT_PINO = "iqt-pino"  # IS + NIR + NIB + IA


class IQTSolver(Solver):
    """IQuad-tree pruning + verification + greedy selection.

    Args:
        d_hat: Leaf diagonal ``d̂`` of the IQuad-tree, km (paper default 2).
        variant: Which classical rules to combine with IS/NIR.
        exact_rounded: Tighten the NIR rule from the rounded square's MBR
            to the exact rounded square (ablation knob; paper uses MBR).
    """

    def __init__(
        self,
        d_hat: float = 2.0,
        variant: IQTVariant = IQTVariant.IQT,
        exact_rounded: bool = False,
    ):
        self.d_hat = d_hat
        self.variant = variant
        self.exact_rounded = exact_rounded
        self.name = variant.value

    # ------------------------------------------------------------------
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
        """Phases 1–3 only: the influence table for ``(dataset, PF, τ)``."""
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
        arena = dataset.arena
        facilities = dataset.abstract_facilities
        n_cand = len(dataset.candidates)

        with timer.mark("index"):
            tree = IQuadTree(
                arena,
                d_hat=self.d_hat,
                tau=tau,
                pf=pf,
                region=dataset.region,
                exact_rounded=self.exact_rounded,
            )

        # Phase 1: IS/NIR pruning via one traversal per abstract facility.
        # From here on a facility's pair sets are sorted arena-row arrays
        # at its position in ``facilities`` (candidates first); the tree
        # returns them as such and caches them per leaf.
        confirmed: List[np.ndarray] = []
        to_verify: List[np.ndarray] = []
        with timer.mark("pruning"):
            for v in facilities:
                result = tree.traverse(v.x, v.y)
                confirmed.append(result.influenced)
                to_verify.append(result.to_verify)

        # Phase 2: optional NIB (and IA) integration.
        if self.variant in (IQTVariant.IQT, IQTVariant.IQT_PINO):
            with timer.mark("nib"):
                self._apply_nib(
                    dataset,
                    tau,
                    pf,
                    confirmed,
                    to_verify,
                    use_ia=self.variant is IQTVariant.IQT_PINO,
                )

        # Phase 3: exact verification of the survivors.  Candidates are
        # verified first; competitor verification is then restricted to
        # users influenced by at least one candidate (the same optimisation
        # Algorithm 1 line 10 grants k-CIFP — uncovered users never enter
        # any cinf computation).  Competitor pairs already confirmed by the
        # traversal cost nothing and are kept for every user.  A
        # facility's confirmed and to-verify rows are disjoint, so the
        # to-verify rows are exactly the pairs left to decide.
        def verify(v: AbstractFacility, rows: np.ndarray) -> np.ndarray:
            return rows[batch.influences_users(v.x, v.y, arena, rows)]

        uids = arena.uids
        omega_c: Dict[int, Set[int]] = {}
        f_o: Dict[int, Set[int]] = {uid: set() for uid in uids.tolist()}
        with timer.mark("verification"):
            covered = np.zeros(len(arena), dtype=bool)
            for i, v in enumerate(dataset.candidates):
                rows = np.concatenate((confirmed[i], verify(v, to_verify[i])))
                covered[rows] = True
                omega_c.setdefault(v.fid, set()).update(uids[rows].tolist())
            for i, v in enumerate(dataset.facilities, start=n_cand):
                survivors = to_verify[i][covered[to_verify[i]]]
                for rows in (confirmed[i], verify(v, survivors)):
                    for uid in uids[rows].tolist():
                        f_o[uid].add(v.fid)

        # Final pair accounting: confirmed by IS (and IA for IQT-PINO),
        # still-to-verify after every enabled rule, pruned = the rest.
        n_pairs = len(dataset.users) * len(facilities)
        n_confirmed = sum(rows.size for rows in confirmed)
        n_verify = sum(rows.size for rows in to_verify)
        pruning = PruningStats(
            confirmed=n_confirmed,
            pruned=n_pairs - n_confirmed - n_verify,
            verify=n_verify,
        )

        return ResolvedInstance(
            table=InfluenceTable(omega_c, f_o),
            evaluation=batch.stats,
            pruning=pruning,
        )

    # ------------------------------------------------------------------
    def _apply_nib(
        self,
        dataset: SpatialDataset,
        tau: float,
        pf: ProbabilityFunction,
        confirmed: List[np.ndarray],
        to_verify: List[np.ndarray],
        use_ia: bool,
    ) -> None:
        """Shrink each facility's to-verify rows to its NIB survivors.

        Implements Algorithm 2 lines 5–12 in array form.  The per-row
        MBR and ``mMR`` arrays are built once
        (:class:`~repro.pruning.PruningRegionArrays`); then one numpy
        pass per facility keeps the rows whose NIB region contains it:
        the NIB-rectangle test that the paper's R-tree range query makes,
        then the exact rounded-rectangle test.  Distances within a
        relative ``1e-9`` of ``mMR`` are re-decided by the scalar
        ``UserPruningRegions`` rule, so the surviving pairs equal the
        per-user ``PinocchioPruner.classify_user`` loop pair for pair.

        When ``use_ia`` is set (IQT-PINO), the IA rule also confirms, for
        each facility, every user still to verify against *any* facility
        whose IA region contains it; those rows join the facility's
        confirmed rows and leave its to-verify rows.  Both lists are
        updated in place.
        """
        regions = PruningRegionArrays(dataset.users, dataset.arena, tau, pf)
        if use_ia:
            # IA is tested on the users still to verify against some
            # facility: the users the per-user NIB loop classifies.
            relevant = np.zeros(len(regions), dtype=bool)
            for rows in to_verify:
                relevant[rows] = True
            relevant_rows = np.flatnonzero(relevant)
        for i, v in enumerate(dataset.abstract_facilities):
            p = v.location
            if not use_ia:
                to_verify[i] = _nib_survivors(regions, p, to_verify[i])
                continue
            inside = _nib_survivors(regions, p, relevant_rows)
            in_ia = regions.ia_contains(p, inside)
            confirmed[i] = np.union1d(confirmed[i], inside[in_ia])
            to_verify[i] = np.intersect1d(
                to_verify[i], inside[~in_ia], assume_unique=True
            )


def _nib_survivors(
    regions: PruningRegionArrays, p: Point, rows: np.ndarray
) -> np.ndarray:
    """The rows whose NIB region contains ``p``, in ``rows`` order."""
    rows = rows[regions.nib_rect_contains(p, rows)]
    return rows[regions.nib_contains(p, rows)]
