"""The IQuad-tree: the paper's user-MBR-free pruning index (§V-C).

The IQuad-tree partitions the (squared-up) region into a full quad-tree
whose leaves have diagonal at most ``d̂``.  Because the subdivision always
quarters squares, every level is a regular ``2^l × 2^l`` grid: the node
``(l, nx, ny)`` is the ``2^(depth−l) × 2^(depth−l)`` block of leaf cells
under it.  The tree is implicit.  Construction is one stable sort of the
position arena by row-major leaf-cell key (``iy·2^depth + ix``), which
leaves three aligned arrays — cell key, position and arena row — with
arena-row order kept inside each cell.  Any block of cells is one
contiguous slice per cell row, found by binary search.

Per node the structure keeps the paper's entry components:

* ``rect``  — implicit from ``(level, nx, ny)``;
* ``P``     — the node's slices of the sorted arrays (the IS rule counts
  a user's positions in them, the NIR rule reads their coordinates);
* ``Ω_inf`` — users IS-confirmed for the node, counted lazily on first
  traversal with one ``bincount`` over the block's rows and memoised
  (the paper's ``visited`` flag).  A level whose ``η`` exceeds ``r_max``
  confirms nobody and costs nothing;
* ``Ω_vrf`` — at leaves, users with a position inside the NIR region.

The attached *Hash* structure ``{level diagonal -> η}`` is the ``_eta``
list, giving O(1) position-count thresholds per level.

Traversal (Algorithm 3) walks the root→leaf path of an abstract facility,
unions the ``Ω_inf`` rows along the path (IS rule, Lemmas 1–2 via the
square hierarchy of Fig. 4) and subtracts them from the leaf's ``Ω_vrf``
(NIR rule, Lemma 3).  Both sets are sorted arena-row arrays.  Results are
memoised per *leaf*, which is exactly the paper's batch-wise property:
every abstract facility in the same leaf reuses the first traversal's
answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..exceptions import IndexError_
from ..geo import Rect, RoundedSquare, Square
from ..influence import (
    PositionArena,
    ProbabilityFunction,
    non_influence_radius,
    position_count_threshold_int,
)

_CellKey = Tuple[int, int]

_MAX_DEPTH = 16  # Cell keys stay well inside int64 at 2^16 × 2^16 leaves.

_NO_ROWS = np.zeros(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)


@dataclass
class IQuadTreeStats:
    """Counters describing pruning effectiveness (Figs. 7–8 read these)."""

    traversals: int = 0
    leaf_cache_hits: int = 0
    omega_inf_computations: int = 0
    omega_vrf_computations: int = 0
    pairs_is_confirmed: int = 0
    pairs_nir_pruned: int = 0
    pairs_to_verify: int = 0

    @property
    def pairs_total(self) -> int:
        """All (facility, user) relationships the traversals decided on."""
        return self.pairs_is_confirmed + self.pairs_nir_pruned + self.pairs_to_verify

    def reset(self) -> None:
        """Zero all counters."""
        self.traversals = 0
        self.leaf_cache_hits = 0
        self.omega_inf_computations = 0
        self.omega_vrf_computations = 0
        self.pairs_is_confirmed = 0
        self.pairs_nir_pruned = 0
        self.pairs_to_verify = 0


@dataclass
class TraversalResult:
    """Outcome of pruning one abstract facility against all users.

    Both fields are sorted, read-only int64 arrays of arena rows.
    """

    influenced: np.ndarray
    to_verify: np.ndarray


def _frozen(rows: np.ndarray) -> np.ndarray:
    rows.setflags(write=False)
    return rows


class IQuadTree:
    """The Influence Quad-tree over a moving-user population.

    Args:
        arena: The user population ``Ω`` to index, packed as a
            :class:`~repro.influence.PositionArena` (``dataset.arena``).
        d_hat: Target leaf diagonal ``d̂`` in km (the paper sweeps 1–2.5).
        tau: Influence threshold.
        pf: Distance-decay probability function.
        region: Spatial extent; must cover all user positions and every
            abstract facility that will be traversed.  Typically
            ``dataset.region``.
        exact_rounded: When ``True`` the NIR rule tests the exact rounded
            square instead of its MBR (``EFGH``), pruning slightly more at
            the cost of a distance computation per position.  The paper
            uses the MBR; the exact variant exists for the ablation bench.
    """

    def __init__(
        self,
        arena: PositionArena,
        d_hat: float,
        tau: float,
        pf: ProbabilityFunction,
        region: Rect,
        exact_rounded: bool = False,
    ):
        if d_hat <= 0:
            raise IndexError_(f"d_hat must be positive, got {d_hat}")
        if len(arena) == 0:
            raise IndexError_("IQuadTree needs at least one user")
        self.d_hat = d_hat
        self.tau = tau
        self.pf = pf
        self.exact_rounded = exact_rounded
        self.stats = IQuadTreeStats()

        # Square-up the region anchored at its lower-left corner.  A
        # degenerate (single-point) region still gets one d̂-sized leaf.
        side = max(region.width, region.height)
        if side <= 0:
            side = d_hat
        self._x0 = region.min_x
        self._y0 = region.min_y
        self._side = side

        # Depth so the leaf diagonal (side / 2^depth * sqrt(2)) is <= d_hat.
        root_diagonal = side * math.sqrt(2.0)
        self.depth = max(0, math.ceil(math.log2(root_diagonal / d_hat)))
        if self.depth > _MAX_DEPTH:
            raise IndexError_(
                f"d_hat={d_hat} needs tree depth {self.depth} > {_MAX_DEPTH}; "
                "choose a larger leaf diagonal for this region"
            )
        self._grid = 1 << self.depth
        self._cell_side = side / self._grid

        # The eta "Hash": position-count threshold per level, keyed by the
        # level's node diagonal.
        self._eta: List[int] = [
            position_count_threshold_int(tau, pf, side / (1 << level) * math.sqrt(2.0))
            for level in range(self.depth + 1)
        ]

        lengths = arena.lengths()
        self.r_max = int(lengths.max())
        self.nir = non_influence_radius(tau, self.r_max, pf)
        self.n_users = len(arena)
        self._uids = arena.uids

        # One stable sort by row-major leaf-cell key.  Every node block is
        # one slice per cell row; arena rows stay ascending inside a cell.
        pos = arena.positions
        cells = ((pos - (self._x0, self._y0)) / self._cell_side).astype(np.int64)
        np.clip(cells, 0, self._grid - 1, out=cells)
        keys = cells[:, 1] * self._grid + cells[:, 0]
        order = np.argsort(keys, kind="stable")
        self._keys = keys[order]
        self._pos = pos[order]
        self._rows = np.repeat(np.arange(self.n_users, dtype=np.int64), lengths)[order]

        # Lazily memoised Ω_inf rows per (level, node key) and the
        # traversal result per leaf key (the paper's `visited` flags).
        self._omega_inf: List[Dict[int, np.ndarray]] = [
            {} for _ in range(self.depth + 1)
        ]
        self._leaf_result_cache: Dict[int, TraversalResult] = {}

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def leaf_cell_of(self, x: float, y: float) -> _CellKey:
        """Return the leaf cell containing ``(x, y)`` (clamped to the grid)."""
        ix = int((x - self._x0) / self._cell_side)
        iy = int((y - self._y0) / self._cell_side)
        return (
            min(max(ix, 0), self._grid - 1),
            min(max(iy, 0), self._grid - 1),
        )

    def node_rect(self, level: int, ix: int, iy: int) -> Rect:
        """Return the spatial extent of node ``(level, ix, iy)``."""
        side = self._side / (1 << level)
        x0 = self._x0 + ix * side
        y0 = self._y0 + iy * side
        return Rect(x0, y0, x0 + side, y0 + side)

    def level_diagonal(self, level: int) -> float:
        """Diagonal of nodes at ``level`` (level 0 is the root)."""
        return self._side / (1 << level) * math.sqrt(2.0)

    def eta_for_level(self, level: int) -> int:
        """Position-count threshold ``⌈η⌉`` for nodes at ``level``."""
        return self._eta[level]

    @property
    def leaf_count(self) -> int:
        """Number of non-empty leaf cells."""
        return int(np.count_nonzero(np.diff(self._keys)) + 1)

    @property
    def node_count(self) -> int:
        """Number of non-empty nodes across all levels."""
        cells = np.unique(self._keys)
        ix = cells % self._grid
        iy = cells // self._grid
        return sum(
            np.unique((iy >> shift) * (self._grid >> shift) + (ix >> shift)).size
            for shift in range(self.depth + 1)
        )

    # ------------------------------------------------------------------
    # Block slicing
    # ------------------------------------------------------------------
    def _block(self, ix0: int, ix1: int, iy0: int, iy1: int) -> np.ndarray:
        """Sorted-array indices of the positions in cells ``[ix0, ix1] × [iy0, iy1]``.

        In row-major key order each cell row's overlap with the block is
        one contiguous slice, found by two binary searches.
        """
        base = np.arange(iy0, iy1 + 1, dtype=np.int64) * self._grid
        lo = np.searchsorted(self._keys, base + ix0, side="left")
        hi = np.searchsorted(self._keys, base + ix1 + 1, side="left")
        lens = hi - lo
        total = int(lens.sum())
        # The CSR repeat/arange gather of the per-row slices.
        return np.repeat(lo + lens - np.cumsum(lens), lens) + np.arange(total)

    def _node_block(self, level: int, nx: int, ny: int) -> np.ndarray:
        """Sorted-array indices of the positions under node ``(level, nx, ny)``."""
        s = 1 << (self.depth - level)
        return self._block(nx * s, nx * s + s - 1, ny * s, ny * s + s - 1)

    # ------------------------------------------------------------------
    # Pruning sets
    # ------------------------------------------------------------------
    def _omega_inf_of(self, level: int, nx: int, ny: int) -> np.ndarray:
        """IS-confirmed rows of a node: users with ``≥ η_level`` positions in it."""
        key = ny * (1 << level) + nx
        cached = self._omega_inf[level].get(key)
        if cached is not None:
            return cached
        eta = self._eta[level]
        if eta > self.r_max:
            result = _NO_ROWS
        else:
            counts = np.bincount(self._rows[self._node_block(level, nx, ny)])
            result = _frozen(np.flatnonzero(counts >= eta))
        self._omega_inf[level][key] = result
        self.stats.omega_inf_computations += 1
        return result

    def _omega_vrf_mask(self, ix: int, iy: int) -> np.ndarray:
        """Row mask of the users with a position inside the leaf's NIR region.

        The query rectangle (the rounded square's MBR) spans a block of
        cells; its positions are gathered and masked in one vectorised
        pass.  With ``exact_rounded`` the mask tightens to the exact
        (convex) rounded square.
        """
        self.stats.omega_vrf_computations += 1
        leaf = self.node_rect(self.depth, ix, iy)
        if self.exact_rounded:
            shape = RoundedSquare(Square.from_rect(leaf), self.nir)
            rect = shape.mbr()
        else:
            shape = rect = leaf.expanded(self.nir)
        ix0, iy0 = self.leaf_cell_of(rect.min_x, rect.min_y)
        ix1, iy1 = self.leaf_cell_of(rect.max_x, rect.max_y)
        idx = self._block(ix0, ix1, iy0, iy1)
        inside = idx[shape.contains_mask(self._pos[idx])]
        mask = np.zeros(self.n_users, dtype=bool)
        mask[self._rows[inside]] = True
        return mask

    # ------------------------------------------------------------------
    # Traversal (Algorithm 3)
    # ------------------------------------------------------------------
    def traverse(self, x: float, y: float) -> TraversalResult:
        """Prune all users against an abstract facility at ``(x, y)``.

        Returns the arena rows of the users necessarily influenced (IS
        rule along the root-to-leaf path) and of the users needing
        verification (NIR survivors minus the confirmed ones), each a
        sorted read-only array.  Everyone else is certified uninfluenced.
        Results are cached per leaf, so co-located abstract facilities
        cost one dictionary lookup (the batch-wise property).
        """
        self.stats.traversals += 1
        ix, iy = self.leaf_cell_of(x, y)
        leaf_key = iy * self._grid + ix
        cached = self._leaf_result_cache.get(leaf_key)
        if cached is not None:
            self.stats.leaf_cache_hits += 1
            self._account_pairs(cached)
            return cached
        influenced = np.zeros(self.n_users, dtype=bool)
        for level in range(self.depth, -1, -1):
            shift = self.depth - level
            influenced[self._omega_inf_of(level, ix >> shift, iy >> shift)] = True
        to_verify = self._omega_vrf_mask(ix, iy) & ~influenced
        result = TraversalResult(
            _frozen(np.flatnonzero(influenced)), _frozen(np.flatnonzero(to_verify))
        )
        self._leaf_result_cache[leaf_key] = result
        self._account_pairs(result)
        return result

    def _account_pairs(self, result: TraversalResult) -> None:
        n_is = result.influenced.size
        n_vrf = result.to_verify.size
        self.stats.pairs_is_confirmed += n_is
        self.stats.pairs_to_verify += n_vrf
        self.stats.pairs_nir_pruned += self.n_users - n_is - n_vrf

    # ------------------------------------------------------------------
    # Introspection used by tests and benchmarks
    # ------------------------------------------------------------------
    def positions_in_leaf(self, cell: _CellKey) -> Dict[int, np.ndarray]:
        """Return the per-user position arrays stored at a leaf cell."""
        idx = self._node_block(self.depth, cell[0], cell[1])
        uids = self._uids[self._rows[idx]]
        positions = self._pos[idx]
        return {uid: positions[uids == uid] for uid in np.unique(uids).tolist()}

    def describe(self) -> str:
        """One-line structural summary."""
        return (
            f"IQuadTree(depth={self.depth}, grid={self._grid}x{self._grid}, "
            f"leaf_side={self._cell_side:.3f} km, leaves={self.leaf_count}, "
            f"nodes={self.node_count}, NIR={self.nir:.3f} km)"
        )
