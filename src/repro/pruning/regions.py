"""IA and NIB pruning regions (PINOCCHIO, used by adapted k-CIFP).

These are the *facility-pruning* regions of Wang et al.'s PINOCCHIO,
derived from a user's position MBR and the influence radius ``mMR(τ, r)``:

* **IA (Influence Arcs)** — the locus of abstract facilities that
  *necessarily* influence the user: every position is within ``mMR`` of
  the facility.  Because positions lie inside the user MBR, a facility
  whose distance to the *farthest MBR corner* is at most ``mMR`` qualifies
  (Corollary 1).
* **NIB (Non-Influence Boundary)** — the locus outside of which a facility
  *cannot* influence the user: if even the *nearest point of the MBR* is
  farther than ``mMR``, no position can be within reach (Corollary 2).
  The NIB shape is the Minkowski sum of the MBR with a disc of radius
  ``mMR``; its own MBR is the rectangle used for R-tree range queries.

Facilities inside NIB but not inside IA fall in the interstitial region of
Fig. 2(a) and must be verified with the exact cumulative probability.

:class:`UserPruningRegions` is the scalar form for one user;
:class:`PruningRegionArrays` decides the same rules for many users at
once, one numpy pass per facility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..entities import MovingUser
from ..geo import Point, Rect
from ..influence import PositionArena, ProbabilityFunction, min_max_radius

#: Relative half-width of the band around ``mMR`` inside which a
#: vectorised distance is re-decided by the scalar rule.  ``np.hypot``
#: and ``math.hypot`` can disagree in the last ulp (~1e-16 relative), so
#: outside this band both round to the same side of ``mMR``.
ULP_BAND = 1e-9


@dataclass(frozen=True)
class UserPruningRegions:
    """The IA/NIB machinery of one user for a fixed ``(τ, PF)``.

    Attributes:
        user: The moving user.
        mmr: The user's influence radius ``mMR(τ, r)``.
    """

    user: MovingUser
    mmr: float

    # ------------------------------------------------------------------
    # Query rectangles (what goes into the R-tree range query)
    # ------------------------------------------------------------------
    def nib_rect(self) -> Rect:
        """MBR of the NIB region: the user MBR expanded by ``mMR``.

        Any facility outside this rectangle is certainly outside NIB and
        therefore cannot influence the user.
        """
        return self.user.mbr.expanded(self.mmr)

    # ------------------------------------------------------------------
    # Point classification
    # ------------------------------------------------------------------
    def ia_contains(self, p: Point) -> bool:
        """``True`` when a facility at ``p`` *necessarily* influences the user.

        Sound via the MBR: if the farthest MBR corner is within ``mMR``,
        all positions are.  When ``mMR`` is 0 (threshold unreachable for
        this position count) the IA region is empty.
        """
        if self.mmr <= 0.0:
            return False
        return self.user.mbr.max_distance_to_point(p) <= self.mmr

    def nib_contains(self, p: Point) -> bool:
        """``True`` when a facility at ``p`` might influence the user.

        Exact NIB shape test (rounded rectangle): distance from ``p`` to
        the user MBR at most ``mMR``.  ``False`` certifies non-influence.
        """
        return self.user.mbr.min_distance_to_point(p) <= self.mmr

    def classify(self, p: Point) -> str:
        """Classify a facility location: ``"influenced"`` (IA),
        ``"pruned"`` (outside NIB) or ``"verify"`` (interstitial)."""
        if self.ia_contains(p):
            return "influenced"
        if not self.nib_contains(p):
            return "pruned"
        return "verify"


def regions_for(
    user: MovingUser, tau: float, pf: ProbabilityFunction
) -> UserPruningRegions:
    """Build the IA/NIB regions of ``user`` for threshold ``τ`` and ``PF``."""
    return UserPruningRegions(user, min_max_radius(tau, user.r, pf))


class PruningRegionArrays:
    """The IA/NIB machinery of a whole population as per-row arrays.

    Built once per ``(population, τ, PF)`` from a :class:`PositionArena`:
    each arena row gets its MBR (``np.minimum/maximum.reduceat``; min and
    max are exact, so these equal ``user.mbr``) and its ``mMR`` (one
    :func:`min_max_radius` call per distinct position count).  Each test
    then decides one facility against any set of rows in one numpy pass,
    returning exactly what the scalar :class:`UserPruningRegions` method
    returns for every pair:

    * :meth:`nib_rect_contains` repeats the float operations of
      ``nib_rect().contains_point`` (the R-tree range query), so it is
      exact as is.
    * :meth:`nib_contains` and :meth:`ia_contains` compare ``np.hypot``
      distances with ``mMR``.  Pairs within a relative :data:`ULP_BAND`
      of ``mMR`` are re-decided by the scalar method, which keeps the
      decisions identical where ``np.hypot`` and ``math.hypot`` differ.

    Args:
        users: The population in arena row order (``dataset.users`` for
            ``dataset.arena``); read only for the boundary re-checks.
        arena: The packed positions of ``users``.
        tau: Influence threshold.
        pf: Distance-decay probability function.
    """

    def __init__(
        self,
        users: Sequence[MovingUser],
        arena: PositionArena,
        tau: float,
        pf: ProbabilityFunction,
    ):
        self.users = users
        starts = arena.offsets[:-1]
        xs = arena.positions[:, 0]
        ys = arena.positions[:, 1]
        self.min_x = np.minimum.reduceat(xs, starts)
        self.min_y = np.minimum.reduceat(ys, starts)
        self.max_x = np.maximum.reduceat(xs, starts)
        self.max_y = np.maximum.reduceat(ys, starts)
        counts, inverse = np.unique(arena.lengths(), return_inverse=True)
        radii = np.array([min_max_radius(tau, int(r), pf) for r in counts])
        self.mmr = radii[inverse]

    def __len__(self) -> int:
        return self.mmr.shape[0]

    # ------------------------------------------------------------------
    def nib_rect_contains(self, p: Point, rows: np.ndarray) -> np.ndarray:
        """Per row: is ``p`` inside the MBR of the row's NIB region?"""
        mmr = self.mmr[rows]
        return (
            (self.min_x[rows] - mmr <= p.x)
            & (p.x <= self.max_x[rows] + mmr)
            & (self.min_y[rows] - mmr <= p.y)
            & (p.y <= self.max_y[rows] + mmr)
        )

    def nib_contains(self, p: Point, rows: np.ndarray) -> np.ndarray:
        """Per row: :meth:`UserPruningRegions.nib_contains` of ``p``."""
        dx = np.maximum(self.min_x[rows] - p.x, 0.0)
        dx = np.maximum(dx, p.x - self.max_x[rows])
        dy = np.maximum(self.min_y[rows] - p.y, 0.0)
        dy = np.maximum(dy, p.y - self.max_y[rows])
        dist = np.hypot(dx, dy)
        return self._within(dist, p, rows, UserPruningRegions.nib_contains)

    def ia_contains(self, p: Point, rows: np.ndarray) -> np.ndarray:
        """Per row: :meth:`UserPruningRegions.ia_contains` of ``p``."""
        dx = np.maximum(np.abs(p.x - self.min_x[rows]), np.abs(p.x - self.max_x[rows]))
        dy = np.maximum(np.abs(p.y - self.min_y[rows]), np.abs(p.y - self.max_y[rows]))
        dist = np.hypot(dx, dy)
        inside = self._within(dist, p, rows, UserPruningRegions.ia_contains)
        return inside & (self.mmr[rows] > 0.0)

    def _within(
        self,
        dist: np.ndarray,
        p: Point,
        rows: np.ndarray,
        scalar: Callable[[UserPruningRegions, Point], bool],
    ) -> np.ndarray:
        """``dist <= mMR`` per row, with the ulp band decided by ``scalar``."""
        mmr = self.mmr[rows]
        out = dist <= mmr
        for i in np.flatnonzero(np.abs(dist - mmr) <= ULP_BAND * mmr).tolist():
            row = int(rows[i])
            regions = UserPruningRegions(self.users[row], float(self.mmr[row]))
            out[i] = scalar(regions, p)
        return out
