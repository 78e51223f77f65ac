"""The four pruning rules as first-class, measurable objects.

Two families:

* **Facility-pruning** (PINOCCHIO; used by adapted k-CIFP): for each user,
  the IA region confirms facilities and the NIB region eliminates them —
  :class:`PinocchioPruner` runs both against an R-tree of facilities.
* **User-pruning** (this paper's contribution): the IS rule (Lemma 2)
  confirms users within a square by position count; the NIR rule (Lemma 3)
  eliminates users with no position near the square.  The stateless
  single-square forms live here for direct testing and for the rule-level
  benchmarks (Fig. 8); the hierarchical, memoised deployment lives in
  :class:`repro.spatial.iquadtree.IQuadTree`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..entities import AbstractFacility, MovingUser
from ..geo import Rect, RoundedSquare, Square
from ..influence import PositionArena, ProbabilityFunction
from ..spatial.rtree import RTree
from .regions import UserPruningRegions, regions_for
from .stats import PruningStats


# ----------------------------------------------------------------------
# Single-square forms of the paper's rules (Lemmas 2 and 3)
# ----------------------------------------------------------------------
def is_rule_confirms(
    square: Rect,
    eta: int,
    positions: np.ndarray,
) -> bool:
    """Lemma 2 (IS rule): ``True`` when any facility inside ``square``
    necessarily influences the user.

    ``square`` must be a square whose diagonal is the ``d̂`` from which
    ``eta = ⌈η(τ, PF, d̂)⌉`` was computed; the rule holds when at least
    ``eta`` of the user's positions fall inside the square.
    """
    if eta >= 2**62:
        return False
    return square.count_inside(positions) >= eta


def nir_rule_prunes(
    square: Rect,
    nir: float,
    positions: np.ndarray,
    exact_rounded: bool = False,
) -> bool:
    """Lemma 3 (NIR rule): ``True`` when no facility inside ``square`` can
    influence the user.

    The sound test is "no position inside the NIR rounded square"; the
    paper relaxes to the rounded square's MBR (rectangle ``EFGH``), which
    is what ``exact_rounded=False`` checks.
    """
    if exact_rounded:
        shape = RoundedSquare(Square.from_rect(square), nir)
        return not shape.contains_mask(positions).any()
    expanded = square.expanded(nir)
    return not expanded.contains_mask(positions).any()


# ----------------------------------------------------------------------
# PINOCCHIO facility pruning (IA + NIB over an R-tree)
# ----------------------------------------------------------------------
@dataclass
class FacilityClassification:
    """Outcome of IA/NIB pruning of all facilities against one user."""

    confirmed: List[AbstractFacility]
    verify: List[AbstractFacility]


class PinocchioPruner:
    """Runs the IA and NIB rules for users against an indexed facility set.

    Args:
        facilities: The abstract facilities to classify (candidates or
            competitors — Algorithm 1 uses one pruner per set).
        tau: Influence threshold.
        pf: Distance-decay probability function.
        use_ia: When ``False``, the IA confirmation step is skipped and
            everything inside NIB goes to verification (this is how the
            IQT algorithm consumes NIB — the paper drops IA because the IS
            rule subsumes it, cf. Table I).
    """

    def __init__(
        self,
        facilities: Sequence[AbstractFacility],
        tau: float,
        pf: ProbabilityFunction,
        use_ia: bool = True,
        max_entries: int = 8,
    ):
        self.facilities = list(facilities)
        self.tau = tau
        self.pf = pf
        self.use_ia = use_ia
        self.stats = PruningStats()
        self.range_queries = 0
        self._tree = RTree.from_points(
            ((f.location, f) for f in self.facilities), max_entries=max_entries
        )

    def regions_for_user(self, user: MovingUser) -> UserPruningRegions:
        """Build the user's IA/NIB regions under this pruner's ``(τ, PF)``."""
        return regions_for(user, self.tau, self.pf)

    def classify_user(self, user: MovingUser) -> FacilityClassification:
        """Classify every indexed facility against ``user``.

        Facilities not returned in either list were pruned by NIB.
        """
        regions = self.regions_for_user(user)
        self.range_queries += 1
        in_nib_rect = self._tree.range_query(regions.nib_rect())
        confirmed: List[AbstractFacility] = []
        verify: List[AbstractFacility] = []
        for facility in in_nib_rect:
            # The range query uses the NIB MBR; refine with the exact
            # rounded-rectangle NIB shape.
            if not regions.nib_contains(facility.location):
                continue
            if self.use_ia and regions.ia_contains(facility.location):
                confirmed.append(facility)
            else:
                verify.append(facility)
        self.stats.add(
            confirmed=len(confirmed),
            verify=len(verify),
            pruned=len(self.facilities) - len(confirmed) - len(verify),
        )
        return FacilityClassification(confirmed, verify)


# ----------------------------------------------------------------------
# Rule-level measurement helpers (Fig. 8 compares these head-to-head)
# ----------------------------------------------------------------------
def measure_pinocchio_pruning(
    users: Sequence[MovingUser],
    facilities: Sequence[AbstractFacility],
    tau: float,
    pf: ProbabilityFunction,
    use_ia: bool = True,
) -> PruningStats:
    """Classify all (facility, user) pairs with IA/NIB and return the stats."""
    pruner = PinocchioPruner(facilities, tau, pf, use_ia=use_ia)
    for user in users:
        pruner.classify_user(user)
    return pruner.stats


def measure_iquadtree_pruning(
    users: Sequence[MovingUser],
    facilities: Sequence[AbstractFacility],
    tau: float,
    pf: ProbabilityFunction,
    d_hat: float,
    region: Rect,
    exact_rounded: bool = False,
) -> Tuple[PruningStats, "IQuadTreeStatsView"]:
    """Classify all (facility, user) pairs with the IS/NIR rules.

    Returns aggregate :class:`PruningStats` plus a view of the underlying
    IQuad-tree counters (cache hits etc.) for the deeper analyses.
    """
    from ..spatial.iquadtree import IQuadTree  # local import avoids a cycle

    tree = IQuadTree(PositionArena.from_users(users), d_hat=d_hat, tau=tau,
                     pf=pf, region=region, exact_rounded=exact_rounded)
    for facility in facilities:
        tree.traverse(facility.x, facility.y)
    stats = PruningStats(
        confirmed=tree.stats.pairs_is_confirmed,
        pruned=tree.stats.pairs_nir_pruned,
        verify=tree.stats.pairs_to_verify,
    )
    return stats, IQuadTreeStatsView(
        traversals=tree.stats.traversals,
        leaf_cache_hits=tree.stats.leaf_cache_hits,
        nodes=tree.node_count,
        leaves=tree.leaf_count,
    )


@dataclass
class IQuadTreeStatsView:
    """Read-only snapshot of IQuad-tree traversal counters."""

    traversals: int
    leaf_cache_hits: int
    nodes: int
    leaves: int
