"""Batched influence verification — one facility against many users.

The verification phase (Algorithm 2, line 14) decides thousands of
surviving ``(facility, user)`` pairs, and the scalar
:class:`~repro.influence.model.InfluenceEvaluator` pays Python-call and
small-array overhead on every one of them.  This module packs all users'
position multisets into one CSR-style arena (a flat ``(N, 2)`` float64
array plus segment offsets) and decides an entire batch in a handful of
large numpy passes: distances, survival factors, and one segmented
product per pair via ``np.multiply.reduceat``.

The kernel is decision-only.  PINOCCHIO early stopping saves work only
in a per-position scan, so the batch path never replays it: every pair
is decided on its full survival product.  Early stopping lives on in the
scalar evaluator, as the reference and for ablation A1; its decisions
equal the full scan's.

**Bit-identity contract.**  Every decision the batch kernel emits is
bit-identical to the scalar evaluator's full-scan call
(``early_stopping=False``):

* survival factors are computed with the same elementwise expression
  ``1 − PF(sqrt(dx² + dy²))``;
* the survival product is the same left-to-right chain (1-D ``np.prod``,
  row-wise reduction, and ``reduceat`` segments all multiply in order,
  which the test suite verifies bitwise against the scalar path);
* decisions are made on the survival product ``q <= 1 − τ``, never the
  complement.

**Stats-equivalence contract.**  Each decided pair counts as one full
evaluation touching all of the user's positions, exactly as the scalar
full-scan path counts it, so the Figs. 15–16 cost accounting is the same
whether a solver verifies pair-by-pair or in batches.  The early-stop
counters of :class:`EvaluationStats` stay 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import DataError, ProbabilityError
from .model import EvaluationStats
from .probability import ProbabilityFunction


class PositionArena:
    """CSR-style packing of many users' position multisets.

    Attributes:
        positions: ``(N, 2)`` float64 array — every user's positions,
            concatenated in arena row order.
        offsets: ``(n_users + 1,)`` int64 array; user in row ``i`` owns
            ``positions[offsets[i]:offsets[i + 1]]``.
        uids: ``(n_users,)`` int64 array of user ids in arena row order.
    """

    __slots__ = ("positions", "offsets", "uids", "_uid_order")

    def __init__(self, positions: np.ndarray, offsets: np.ndarray, uids: np.ndarray):
        self.positions = positions
        self.offsets = offsets
        self.uids = uids
        # Row order that sorts ``uids``, built lazily on first id lookup:
        # the batched kernels address rows by index, and shard workers
        # mapping a million-user arena out of shared memory never need it.
        self._uid_order: Optional[np.ndarray] = None
        if offsets.shape[0] != uids.shape[0] + 1:
            raise DataError("arena offsets must have one entry per user plus one")

    def __len__(self) -> int:
        return self.uids.shape[0]

    @property
    def n_positions(self) -> int:
        """Total number of packed positions."""
        return self.positions.shape[0]

    def lengths(self) -> np.ndarray:
        """Per-row position counts."""
        return np.diff(self.offsets)

    def row_of(self, uid: int) -> int:
        """Arena row index of a user id."""
        return int(self.rows_for((uid,))[0])

    def rows_for(self, uids: Iterable[int]) -> np.ndarray:
        """Arena row indices for user ids (an iterable or an int array).

        One binary search per id over the sorted ids; raises
        ``KeyError`` for an id the arena does not hold.
        """
        if isinstance(uids, np.ndarray):
            ids = uids.astype(np.int64, copy=False)
        else:
            ids = np.fromiter(uids, dtype=np.int64)
        if self._uid_order is None:
            self._uid_order = np.argsort(self.uids, kind="stable")
        order = self._uid_order
        if order.size == 0 and ids.size:
            raise KeyError(int(ids[0]))
        rows = order.take(np.searchsorted(self.uids, ids, sorter=order), mode="clip")
        missing = self.uids[rows] != ids
        if missing.any():
            raise KeyError(int(ids[np.flatnonzero(missing)[0]]))
        return rows

    def gather(self, rows: Optional[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(flat_positions, lengths)`` for a row subset.

        ``rows=None`` selects every user without copying.  Otherwise the
        selected segments are gathered into a fresh contiguous array in
        ``rows`` order (the standard CSR repeat/arange trick).
        """
        if rows is None:
            return self.positions, self.lengths()
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return self.positions[:0], np.zeros(0, dtype=np.int64)
        starts = self.offsets[rows]
        lens = self.offsets[rows + 1] - starts
        out_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        idx = np.repeat(starts - out_starts, lens) + np.arange(int(lens.sum()))
        return self.positions[idx], lens

    @staticmethod
    def from_users(users: Sequence) -> "PositionArena":
        """Pack objects exposing ``.uid`` and ``.positions`` (``(r, 2)``)."""
        users = list(users)
        if not users:
            raise DataError("cannot build an arena over zero users")
        lens = np.array([u.positions.shape[0] for u in users], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(lens)))
        flat = np.concatenate([np.asarray(u.positions, dtype=np.float64) for u in users])
        flat = np.ascontiguousarray(flat)
        flat.setflags(write=False)
        uids = np.array([u.uid for u in users], dtype=np.int64)
        return PositionArena(flat, offsets, uids)


@dataclass
class BatchInfluenceEvaluator:
    """Vectorised influence decisions for a fixed ``(PF, τ)`` configuration.

    Decides exactly what the scalar
    :class:`~repro.influence.model.InfluenceEvaluator` decides with
    ``early_stopping=False`` — same boundary call, same
    :class:`EvaluationStats` accounting — but for whole batches per
    numpy pass.

    Args:
        pf: Distance-decay probability function.
        tau: Influence threshold in ``(0, 1)``.
        stats: Counter object to accumulate into (fresh by default).
    """

    pf: ProbabilityFunction
    tau: float
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ProbabilityError(f"tau must be in (0, 1), got {self.tau}")

    def influences_users(
        self,
        vx: float,
        vy: float,
        arena: PositionArena,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Decide one facility against a set of arena rows.

        Args:
            vx, vy: Facility coordinates.
            arena: The packed user positions.
            rows: Arena row indices to decide (``None`` = every user).

        Returns:
            Boolean array of influence decisions, one per requested row,
            in ``rows`` order.
        """
        flat, lens = arena.gather(rows)
        if lens.size == 0:
            return np.zeros(0, dtype=bool)
        dx = flat[:, 0] - vx
        dy = flat[:, 1] - vy
        survival = 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))
        seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        q = np.multiply.reduceat(survival, seg_starts)
        self._account(lens.size, survival.size)
        return q <= 1.0 - self.tau

    def influences_facilities(
        self, xy: np.ndarray, positions: np.ndarray
    ) -> np.ndarray:
        """Decide many facilities against one user's positions.

        Args:
            xy: ``(n, 2)`` facility coordinate array.
            positions: The user's ``(r, 2)`` position array.

        Returns:
            Boolean influence decision per facility row.
        """
        xy = np.asarray(xy, dtype=np.float64)
        if xy.size == 0:
            return np.zeros(0, dtype=bool)
        dx = positions[None, :, 0] - xy[:, 0, None]
        dy = positions[None, :, 1] - xy[:, 1, None]
        survival = 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))
        q = np.multiply.reduce(survival, axis=1)
        self._account(xy.shape[0], survival.size)
        return q <= 1.0 - self.tau

    def _account(self, pairs: int, positions: int) -> None:
        self.stats.full_evaluations += pairs
        self.stats.positions_touched += positions
