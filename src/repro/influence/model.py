"""Cumulative influence probability over moving users (Definitions 1–2).

The probability that an abstract facility ``v`` influences a moving user
``o = {p_1 .. p_r}`` is ``Pr_v(o) = 1 − Π_i (1 − PF(d(v, p_i)))``; ``v``
*influences* ``o`` iff ``Pr_v(o) >= τ``.

Two evaluation strategies are provided:

* :func:`cumulative_probability` — exact, vectorised over all positions.
* :class:`InfluenceEvaluator.influences_early_stop` — the PINOCCHIO
  *early stopping strategy*: scan positions one at a time, stop as soon as
  the running product of survival probabilities already certifies the
  decision in either direction.

The evaluator also keeps counters (full evaluations, early stops, positions
touched) because the paper's Figs. 15–16 report *verification computation
cost*, which the benchmark harness reads off these counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ..exceptions import ProbabilityError
from .probability import ProbabilityFunction


def survival_powers(min_survival: float, n: int) -> np.ndarray:
    """Table of ``min_survival ** e`` for ``e = 0 .. n − 1``.

    The early-stopping path reads the negative-certificate bound off
    this table (never a scalar ``**``), so its short-history and blocked
    paths make bit-identical comparisons against ``1 − τ``.
    """
    return np.power(min_survival, np.arange(n, dtype=np.float64))


def cumulative_probability(
    vx: float, vy: float, positions: np.ndarray, pf: ProbabilityFunction
) -> float:
    """Return ``Pr_v(o)`` for a facility at ``(vx, vy)`` exactly.

    ``positions`` is the user's ``(r, 2)`` coordinate array.  The product of
    survival probabilities is evaluated in log-space-free form because ``r``
    is small (tens of positions) and ``1 − PF(d)`` is bounded away from 0
    for d > 0 under every provided ``PF``.
    """
    dx = positions[:, 0] - vx
    dy = positions[:, 1] - vy
    d = np.sqrt(dx * dx + dy * dy)
    survival = 1.0 - pf(d)
    return float(1.0 - np.prod(survival))


@dataclass
class EvaluationStats:
    """Counters describing how much verification work an evaluator did."""

    full_evaluations: int = 0
    early_stop_evaluations: int = 0
    early_stops_positive: int = 0
    early_stops_negative: int = 0
    positions_touched: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.full_evaluations = 0
        self.early_stop_evaluations = 0
        self.early_stops_positive = 0
        self.early_stops_negative = 0
        self.positions_touched = 0

    @property
    def total_evaluations(self) -> int:
        """Total number of (facility, user) probability checks performed."""
        return self.full_evaluations + self.early_stop_evaluations

    def merge(self, other: "EvaluationStats") -> None:
        """Accumulate another stats object into this one."""
        self.full_evaluations += other.full_evaluations
        self.early_stop_evaluations += other.early_stop_evaluations
        self.early_stops_positive += other.early_stops_positive
        self.early_stops_negative += other.early_stops_negative
        self.positions_touched += other.positions_touched


@dataclass
class InfluenceEvaluator:
    """Decides influence relationships for a fixed ``(PF, τ)`` configuration.

    Args:
        pf: Distance-decay probability function.
        tau: Influence threshold in ``(0, 1)``.
        early_stopping: When ``True`` (default), the per-pair decision scans
            positions sorted by proximity-free order and stops as soon as the
            decision is certified; when ``False`` the exact vectorised path
            is always used (ablation A1).
    """

    pf: ProbabilityFunction
    tau: float
    early_stopping: bool = True
    stats: EvaluationStats = field(default_factory=EvaluationStats)

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ProbabilityError(f"tau must be in (0, 1), got {self.tau}")
        # Survival floor: the largest possible per-position influence
        # probability is PF(0), so each remaining position can shrink the
        # survival product by at most (1 - PF(0)).
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
    # Exact path
    # ------------------------------------------------------------------
    def probability(self, vx: float, vy: float, positions: np.ndarray) -> float:
        """Return ``Pr_v(o)`` exactly (vectorised); counts a full evaluation."""
        self.stats.full_evaluations += 1
        self.stats.positions_touched += positions.shape[0]
        return cumulative_probability(vx, vy, positions, self.pf)

    def influences(self, vx: float, vy: float, positions: np.ndarray) -> bool:
        """Return whether the facility influences the user (Definition 2).

        Both paths decide on the *survival product* ``q <= 1 − τ`` (never
        on the complement ``1 − q >= τ``): the two are equivalent in exact
        arithmetic but can differ by one ulp in floats, and every solver
        must make the identical boundary call.
        """
        if self.early_stopping:
            return self.influences_early_stop(vx, vy, positions)
        self.stats.full_evaluations += 1
        self.stats.positions_touched += positions.shape[0]
        dx = positions[:, 0] - vx
        dy = positions[:, 1] - vy
        survival = 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))
        return float(np.prod(survival)) <= 1.0 - self.tau

    # ------------------------------------------------------------------
    # Early stopping path (PINOCCHIO)
    # ------------------------------------------------------------------
    def influences_early_stop(self, vx: float, vy: float, positions: np.ndarray) -> bool:
        """Early-stopped influence decision.

        Maintains the survival product ``q = Π (1 − PF(d_i))`` over the
        positions and stops at the first index certifying either way:

        * ``q <= 1 − τ`` — influence is already certain (the product can
          only shrink further), or
        * ``q · (1 − PF(0))^{remaining} > 1 − τ`` — influence is impossible
          even if every remaining position sat on top of the facility.

        At the last position exactly one of the two certificates fires, so
        the decision and the touched-position count are both defined by the
        first hit.  ``positions_touched`` counts that logical stop point
        (``r' ≤ r``, the metric of the paper's Figs. 15–16), not the work
        done: for ``r ≤ 128`` the method computes the whole ``cumprod`` and
        both certificates over all ``r`` positions and only reads the stop
        point off them.  Both the short-history fast path and the blocked path
        for long histories apply *both* certificates at per-position
        granularity, so the Figs. 15–16 cost counters mean the same thing
        on either side of the ``r = 128`` cutoff; the blocked path chains
        the running product through ``cumprod`` (never a scalar
        re-multiplication) so every intermediate ``q`` is bit-identical to
        a single full cumulative product — the contract the batched kernel
        (:mod:`repro.influence.batch`) relies on.
        """
        self.stats.early_stop_evaluations += 1
        r = positions.shape[0]
        target = 1.0 - self.tau
        if r <= 128:
            # One vectorised pass over all r positions; the stop point is
            # read off the cumulative product and counted as r' <= r, the
            # logical cost the paper's Figs. 15-16 report.
            dx = positions[:, 0] - vx
            dy = positions[:, 1] - vy
            chain = np.cumprod(1.0 - self.pf(np.sqrt(dx * dx + dy * dy)))
            pos_hit = chain <= target
            neg_hit = chain * self._powers(r)[r - 1 :: -1] > target
            first = int(np.argmax(pos_hit | neg_hit))
            touched = first + 1
            self.stats.positions_touched += touched
            decided = bool(pos_hit[first])
            if touched < r:
                if decided:
                    self.stats.early_stops_positive += 1
                else:
                    self.stats.early_stops_negative += 1
            return decided
        # Very long histories: consume in blocks so a decision early in the
        # sequence skips the bulk of the distance computations.
        q = 1.0
        block = 64
        powers = self._powers(r)
        for start in range(0, r, block):
            chunk = positions[start : start + block]
            b = chunk.shape[0]
            dx = chunk[:, 0] - vx
            dy = chunk[:, 1] - vy
            chain = np.cumprod(
                np.concatenate(((q,), 1.0 - self.pf(np.sqrt(dx * dx + dy * dy))))
            )[1:]
            rem = np.arange(r - 1 - start, r - 1 - start - b, -1)
            pos_hit = chain <= target
            neg_hit = chain * powers[rem] > target
            hit = pos_hit | neg_hit
            if hit.any():
                first = int(np.argmax(hit))
                self.stats.positions_touched += first + 1
                decided = bool(pos_hit[first])
                if start + first + 1 < r:
                    if decided:
                        self.stats.early_stops_positive += 1
                    else:
                        self.stats.early_stops_negative += 1
                return decided
            q = float(chain[-1])
            self.stats.positions_touched += b
        return q <= target  # unreachable: the last position always certifies

    # ------------------------------------------------------------------
    # Derived helpers
    # ------------------------------------------------------------------
    def decision_with_probability(
        self, vx: float, vy: float, positions: np.ndarray
    ) -> Tuple[bool, float]:
        """Return ``(influences, Pr_v(o))`` using the exact path.

        The decision is made on the survival product ``q <= 1 − τ`` — the
        identical boundary call :meth:`influences` makes — never on the
        complement ``1 − q >= τ``, which can disagree by one ulp when
        ``1 − q`` rounds onto the threshold.
        """
        self.stats.full_evaluations += 1
        self.stats.positions_touched += positions.shape[0]
        dx = positions[:, 0] - vx
        dy = positions[:, 1] - vy
        q = float(np.prod(1.0 - self.pf(np.sqrt(dx * dx + dy * dy))))
        return q <= 1.0 - self.tau, 1.0 - q
