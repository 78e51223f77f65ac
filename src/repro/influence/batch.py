"""Batched influence verification — one facility against many users.

The verification phase (Algorithm 2, line 14) decides thousands of
surviving ``(facility, user)`` pairs, and the scalar
:class:`~repro.influence.model.InfluenceEvaluator` pays Python-call and
small-array overhead on every one of them.  This module packs all users'
position multisets into one CSR-style arena (a flat ``(N, 2)`` float64
array plus segment offsets) and decides an entire batch in a handful of
large numpy passes: distances, survival factors, segmented products via
``np.multiply.reduceat`` for the exact path, and a padded per-segment
cumulative product for the early-stopping path.

**Bit-identity contract.**  Every decision (and probability) the batch
kernel emits is bit-identical to the scalar evaluator's corrected
boundary call:

* survival factors are computed with the same elementwise expression
  ``1 − PF(sqrt(dx² + dy²))``;
* sequential products come from ``np.cumprod`` (1-D, 2-D rows, and
  reduceat segments all perform the same left-to-right chain, which the
  test suite verifies bitwise against the scalar path);
* decisions are made on the survival product ``q <= 1 − τ``, never the
  complement;
* the negative-certificate bound multiplies by powers read from the
  shared :func:`~repro.influence.model.survival_powers` table, exactly
  as the scalar path does.

**Stats-equivalence contract.**  :class:`EvaluationStats` counters are
computed from the per-segment cumulative certificates — the position at
which a left-to-right scanner would have stopped — not from the work the
vectorised kernel actually performs, so Figs. 15–16 cost accounting is
unchanged whether a solver verifies pair-by-pair or in batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from ..exceptions import DataError, ProbabilityError
from .model import EvaluationStats, survival_powers
from .probability import ProbabilityFunction

# Padded (rows x r_max) work matrices are processed in chunks of at most
# this many elements so one batch over long histories cannot blow memory.
_CHUNK_ELEMENTS = 1 << 22


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

    Mirrors :class:`~repro.influence.model.InfluenceEvaluator` semantics
    exactly — same boundary call, same early-stopping certificates, same
    :class:`EvaluationStats` accounting — but decides whole batches per
    numpy pass.  Pass the scalar evaluator's ``stats`` object to keep one
    combined set of counters for a solver run.

    Args:
        pf: Distance-decay probability function.
        tau: Influence threshold in ``(0, 1)``.
        early_stopping: Account (and decide) with the PINOCCHIO
            per-position certificates; when ``False`` the exact full-scan
            path is used, as in the baseline solvers.
        stats: Counter object to accumulate into (fresh by default).
    """

    pf: ProbabilityFunction
    tau: float
    early_stopping: bool = True
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ProbabilityError(f"tau must be in (0, 1), got {self.tau}")
        self._min_survival = 1.0 - self.pf.max_probability
        self._pow_table = survival_powers(self._min_survival, 1)

    def _powers(self, n: int) -> np.ndarray:
        """Cached ``min_survival ** [0..n)`` table (grown geometrically)."""
        if self._pow_table.shape[0] < n:
            self._pow_table = survival_powers(
                self._min_survival, max(n, 2 * self._pow_table.shape[0])
            )
        return self._pow_table

    # ------------------------------------------------------------------
    # One facility vs. many users
    # ------------------------------------------------------------------
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
        survival = self._survival(flat, vx, vy)
        if self.early_stopping:
            return self._decide_early_stop(survival, lens)
        return self._decide_exact(survival, lens)

    def probabilities_users(
        self,
        vx: float,
        vy: float,
        arena: PositionArena,
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Exact ``Pr_v(o)`` per requested row (counts full evaluations)."""
        flat, lens = arena.gather(rows)
        if lens.size == 0:
            return np.zeros(0, dtype=np.float64)
        survival = self._survival(flat, vx, vy)
        seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        q = np.multiply.reduceat(survival, seg_starts)
        self.stats.full_evaluations += lens.size
        self.stats.positions_touched += int(survival.shape[0])
        return 1.0 - q

    # ------------------------------------------------------------------
    # One user vs. many facilities
    # ------------------------------------------------------------------
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
        n = xy.shape[0]
        r = positions.shape[0]
        dx = positions[None, :, 0] - xy[:, 0, None]
        dy = positions[None, :, 1] - xy[:, 1, None]
        survival = 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))
        target = 1.0 - self.tau
        chain = np.cumprod(survival, axis=1)
        if not self.early_stopping:
            self.stats.full_evaluations += n
            self.stats.positions_touched += n * r
            return chain[:, -1] <= target
        pos_hit = chain <= target
        neg_hit = chain * self._powers(r)[r - 1 :: -1] > target
        first = (pos_hit | neg_hit).argmax(axis=1)
        decisions = pos_hit[np.arange(n), first]
        touched = first + 1
        self._account_early_stop(decisions, touched, np.full(n, r, dtype=np.int64))
        return decisions

    # ------------------------------------------------------------------
    # Kernel internals
    # ------------------------------------------------------------------
    def _survival(self, flat: np.ndarray, vx: float, vy: float) -> np.ndarray:
        dx = flat[:, 0] - vx
        dy = flat[:, 1] - vy
        return 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))

    def _decide_exact(self, survival: np.ndarray, lens: np.ndarray) -> np.ndarray:
        seg_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        q = np.multiply.reduceat(survival, seg_starts)
        self.stats.full_evaluations += lens.size
        self.stats.positions_touched += int(survival.shape[0])
        return q <= 1.0 - self.tau

    def _decide_early_stop(self, survival: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Early-stop decisions + accounting over packed segments.

        Segments are scattered into padded ``(rows, width)`` matrices; the
        row-wise cumprod of a padded row equals the 1-D cumprod of the
        segment bitwise, and the first index where either certificate
        fires yields the decision and the touched count, exactly as the
        scalar scanner would.  Rows are grouped into power-of-two length
        bands (further bounded by ``_CHUNK_ELEMENTS``) so padding waste
        stays under 2× even when a few long histories share a batch with
        many short ones; grouping only reorders independent rows, so the
        per-row arithmetic — and therefore every decision and counter —
        is unchanged.
        """
        n = lens.size
        target = 1.0 - self.tau
        offsets = np.concatenate(([0], np.cumsum(lens)))
        decisions = np.empty(n, dtype=bool)
        touched = np.empty(n, dtype=np.int64)
        order = np.argsort(lens, kind="stable")
        sorted_lens = lens[order]
        max_len = int(sorted_lens[-1])
        band_edges = np.unique(
            np.concatenate(
                (
                    [0, n],
                    np.searchsorted(sorted_lens, 2 ** np.arange(1, max_len.bit_length())),
                )
            )
        )
        for band_a, band_b in zip(band_edges[:-1], band_edges[1:]):
            width = int(sorted_lens[band_b - 1])
            rows_per_chunk = max(1, _CHUNK_ELEMENTS // width)
            for a in range(band_a, band_b, rows_per_chunk):
                b = min(band_b, a + rows_per_chunk)
                rows = order[a:b]
                ls = lens[rows]
                starts = offsets[rows]
                out_starts = np.concatenate(([0], np.cumsum(ls)[:-1]))
                idx = np.repeat(starts - out_starts, ls) + np.arange(int(ls.sum()))
                cols = np.arange(width)
                valid = cols[None, :] < ls[:, None]
                mat = np.ones((b - a, width))
                mat[valid] = survival[idx]
                chain = np.cumprod(mat, axis=1)
                rem = ls[:, None] - 1 - cols[None, :]
                bound = chain * self._powers(width)[np.where(rem >= 0, rem, 0)]
                pos_hit = (chain <= target) & valid
                hit = pos_hit | ((bound > target) & valid)
                first = hit.argmax(axis=1)
                decisions[rows] = pos_hit[np.arange(b - a), first]
                touched[rows] = first + 1
        self._account_early_stop(decisions, touched, lens)
        return decisions

    def _account_early_stop(
        self, decisions: np.ndarray, touched: np.ndarray, lens: np.ndarray
    ) -> None:
        self.stats.early_stop_evaluations += decisions.size
        self.stats.positions_touched += int(touched.sum())
        early = touched < lens
        self.stats.early_stops_positive += int(np.count_nonzero(decisions & early))
        self.stats.early_stops_negative += int(np.count_nonzero(~decisions & early))
