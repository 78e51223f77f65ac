"""Sketch-based approximate greedy — the k-CIFP acceleration.

For the *uncompeted* coverage objective ``inf(G) = |Ω_G|`` (the setting
of the k-CIFP paper), each candidate's covered-user set is summarised as
an FM sketch; the greedy's marginal gain for candidate ``c`` given the
running union sketch ``S`` is estimated as
``estimate(S ∪ sketch(c)) − estimate(S)`` — O(m) per evaluation no
matter how large the coverage sets grow.

The trade is exactness for memory/time at scale: the selection can
deviate from the exact greedy when two candidates' gains fall within the
sketch's noise (σ ≈ 1.3/√m relative), which the ablation bench
quantifies against the exact coverage greedy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..exceptions import SolverError
from .fm import _ALPHA, FMSketch


def _estimate_from_counts(m: int, empty: int, total: int) -> float:
    """:meth:`FMSketch.estimate` as a function of its integer aggregates.

    The estimate depends on the registers only through ``empty`` (count
    of untouched registers) and ``total`` (sum of ``rank + 1`` over the
    touched ones); replicating the same scalar float expressions here
    makes estimates computed from vectorized register maxima bit-equal
    to building the union sketch and calling ``estimate()``.
    """
    if empty == m:
        return 0.0
    mean = total / m
    raw = m * (2.0**mean) * _ALPHA
    if empty > 0 and (raw < 2.5 * m or 2 * empty > m):
        return m * math.log(m / empty)
    return raw


@dataclass(frozen=True)
class SketchedOutcome:
    """Selection of the sketch-based coverage greedy.

    Attributes:
        selected: Candidate ids in greedy order.
        estimated_coverage: The sketch's estimate of ``|Ω_G|``.
        exact_coverage: The true ``|Ω_G|`` of the returned selection
            (cheap to compute once at the end, for reporting).
        gains: Estimated marginal gains per round.
    """

    selected: Tuple[int, ...]
    estimated_coverage: float
    exact_coverage: int
    gains: Tuple[float, ...]


def sketched_coverage_greedy(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    n_registers: int = 256,
    seed: int = 0,
) -> SketchedOutcome:
    """Greedy maximisation of ``|Ω_G|`` using FM sketches.

    Estimated marginal gains are clamped at zero: a union sketch covers
    the running union register-wise, but the estimator's small-range
    correction is not monotone across its branch boundary, so raw
    estimate differences can go negative — previously, a round where
    every remaining gain fell at or below the ``-1.0`` sentinel crashed
    the selection outright.

    Args:
        table: Resolved influence relationships (only ``omega_c`` is read
            — the plain-coverage objective ignores competition weights).
        candidate_ids: Candidates to choose from.
        k: Selection size.
        n_registers: Sketch size; more registers → estimates closer to the
            exact greedy.
        seed: Sketch hash seed.

    Each round's estimates come from register-wise maxima over a dense
    ``(n, m)`` register matrix instead of a throwaway union sketch per
    candidate; the estimates, and hence the selection, are bit-identical
    to the sketch-object loop.
    """
    if k < 1 or k > len(candidate_ids):
        raise SolverError(f"k={k} infeasible for {len(candidate_ids)} candidates")
    sketches: Dict[int, FMSketch] = {
        cid: FMSketch.of(table.omega_c.get(cid, ()), n_registers, seed)
        for cid in candidate_ids
    }
    selected, gains, current = _sketched_rounds(
        sketches, sorted(candidate_ids), k, n_registers
    )
    covered: Set[int] = set()
    for cid in selected:
        covered |= table.omega_c.get(cid, set())
    return SketchedOutcome(
        selected=tuple(selected),
        estimated_coverage=current,
        exact_coverage=len(covered),
        gains=tuple(gains),
    )


def _sketched_rounds(
    sketches: Dict[int, FMSketch],
    remaining_ids: List[int],
    k: int,
    n_registers: int,
) -> Tuple[List[int], List[float], float]:
    """Vectorized rounds: register maxima in place, no union objects.

    A round's estimates need only each candidate's ``empty``/``total``
    aggregates over ``max(union, registers)``; those are integer
    reductions over a dense matrix, and the float estimate itself is
    formed with the exact scalar arithmetic of ``FMSketch.estimate``,
    so every gain — and therefore the selection — is bit-equal to a loop
    over union sketch objects.
    """
    cand = np.array(remaining_ids, dtype=np.int64)
    regs = np.array(
        [sketches[int(cid)]._registers for cid in cand], dtype=np.int64
    )
    union_regs = np.full(n_registers, -1, dtype=np.int64)
    current = 0.0
    alive = np.ones(len(cand), dtype=bool)
    selected: List[int] = []
    gains: List[float] = []
    for _ in range(k):
        live = np.flatnonzero(alive)
        mx = np.maximum(regs[live], union_regs)
        touched = mx >= 0
        empties = n_registers - touched.sum(axis=1)
        totals = np.where(touched, mx + 1, 0).sum(axis=1)
        best_i = None
        best_gain = 0.0
        for i, e, t in zip(
            live.tolist(), empties.tolist(), totals.tolist()
        ):  # ascending index == ascending cid
            gain = max(
                0.0, _estimate_from_counts(n_registers, e, t) - current
            )
            if best_i is None or gain > best_gain:
                best_gain = gain
                best_i = i
        assert best_i is not None
        selected.append(int(cand[best_i]))
        gains.append(best_gain)
        np.maximum(union_regs, regs[best_i], out=union_regs)
        touched_u = union_regs >= 0
        current = _estimate_from_counts(
            n_registers,
            int(n_registers - touched_u.sum()),
            int(np.where(touched_u, union_regs + 1, 0).sum()),
        )
        alive[best_i] = False
    return selected, gains, current


def exact_coverage_greedy(
    table: InfluenceTable, candidate_ids: Sequence[int], k: int
) -> Tuple[Tuple[int, ...], int]:
    """Exact greedy for ``|Ω_G|`` (the sketched greedy's reference)."""
    if k < 1 or k > len(candidate_ids):
        raise SolverError(f"k={k} infeasible for {len(candidate_ids)} candidates")
    covered: Set[int] = set()
    remaining = sorted(candidate_ids)
    selected: List[int] = []
    for _ in range(k):
        best_cid = None
        best_gain = -1
        for cid in remaining:
            gain = len(table.omega_c.get(cid, set()) - covered)
            if gain > best_gain:
                best_gain = gain
                best_cid = cid
        assert best_cid is not None
        selected.append(best_cid)
        covered |= table.omega_c.get(best_cid, set())
        remaining.remove(best_cid)
    return tuple(selected), len(covered)
