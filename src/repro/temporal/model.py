"""Time-aware influence: positions carry timestamps, facilities have hours.

The CLS literature the paper builds on includes time-aware variants
(TAILOR; MaxBRNN over time slots): a coffee kiosk only competes for the
positions users record while it is open.  This module adds the temporal
layer:

* :class:`TimeWindow` — a wrap-around hour-of-day interval;
* :class:`TimedUser` — a moving user whose positions carry hour labels;
* :func:`windowed_positions` / :class:`TimedInfluenceEvaluator` — the
  cumulative influence model restricted to the positions falling inside
  a facility's opening window.

With the full-day window the model reduces exactly to the base MC²LS
influence semantics (tested), so the temporal layer is a strict
generalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from ..entities import MovingUser
from ..exceptions import DataError
from ..influence import InfluenceEvaluator, ProbabilityFunction

HOURS_PER_DAY = 24


@dataclass(frozen=True, slots=True)
class TimeWindow:
    """A half-open hour-of-day interval ``[start, end)`` with wrap-around.

    ``TimeWindow(22, 6)`` covers the night hours 22, 23, 0 … 5.  The
    full-day window is ``TimeWindow(0, 24)`` (alias :data:`ALL_DAY`).
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < HOURS_PER_DAY:
            raise DataError(f"start hour must be in [0, 24), got {self.start}")
        if not 0 < self.end <= HOURS_PER_DAY:
            raise DataError(f"end hour must be in (0, 24], got {self.end}")

    @property
    def wraps(self) -> bool:
        """Whether the window crosses midnight."""
        return self.end <= self.start

    @property
    def duration(self) -> int:
        """Number of covered hours."""
        if self.wraps:
            return HOURS_PER_DAY - self.start + self.end
        return self.end - self.start

    def contains(self, hour: int) -> bool:
        """Whether an hour label falls inside the window."""
        hour %= HOURS_PER_DAY
        if self.wraps:
            return hour >= self.start or hour < self.end
        return self.start <= hour < self.end

    def mask(self, hours: np.ndarray) -> np.ndarray:
        """Vectorised membership over an hour-label array."""
        h = np.mod(hours, HOURS_PER_DAY)
        if self.wraps:
            return (h >= self.start) | (h < self.end)
        return (h >= self.start) & (h < self.end)

    def __str__(self) -> str:
        return f"{self.start:02d}-{self.end % HOURS_PER_DAY:02d}h"


ALL_DAY = TimeWindow(0, 24)
"""The always-open window; reduces the temporal model to base MC²LS."""


@dataclass(frozen=True)
class TimedUser:
    """A moving user whose positions carry hour-of-day labels.

    Attributes:
        user: The underlying :class:`MovingUser` (positions, MBR, uid).
        hours: ``(r,)`` integer array, ``hours[i]`` labelling
            ``user.positions[i]``.
    """

    user: MovingUser
    hours: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        hours = np.asarray(self.hours, dtype=np.int64)
        if hours.shape != (self.user.r,):
            raise DataError(
                f"user {self.user.uid}: need {self.user.r} hour labels, "
                f"got shape {hours.shape}"
            )
        if ((hours < 0) | (hours >= HOURS_PER_DAY)).any():
            raise DataError(f"user {self.user.uid}: hour labels must be in [0, 24)")
        hours = np.ascontiguousarray(hours)
        hours.setflags(write=False)
        object.__setattr__(self, "hours", hours)

    @property
    def uid(self) -> int:
        """The user id."""
        return self.user.uid

    def positions_in(self, window: TimeWindow) -> np.ndarray:
        """The positions recorded during ``window`` (possibly empty)."""
        return self.user.positions[window.mask(self.hours)]


class TimedInfluenceEvaluator:
    """Influence decisions restricted to a facility's opening window."""

    def __init__(self, pf: ProbabilityFunction, tau: float):
        self._inner = InfluenceEvaluator(pf, tau)

    @property
    def stats(self):
        """Work counters of the underlying evaluator."""
        return self._inner.stats

    def influences(
        self, vx: float, vy: float, user: TimedUser, window: TimeWindow
    ) -> bool:
        """Definition 2 over the positions recorded while ``v`` is open."""
        positions = user.positions_in(window)
        if positions.shape[0] == 0:
            return False
        return self._inner.influences(vx, vy, positions)


def attach_hours(
    users: Sequence[MovingUser],
    seed: int = 0,
    peaks: Tuple[Tuple[float, float], ...] = ((8.5, 1.5), (12.5, 1.0), (19.0, 2.0)),
) -> Tuple[TimedUser, ...]:
    """Label positions with realistic daily-rhythm hours.

    Hours are drawn from a mixture of Gaussians at the given
    ``(mean hour, std)`` peaks — commute, lunch, evening — mirroring the
    check-in time histograms of the LBS datasets.
    """
    rng = np.random.default_rng(seed)
    out = []
    means = np.array([p[0] for p in peaks])
    stds = np.array([p[1] for p in peaks])
    for user in users:
        which = rng.integers(len(peaks), size=user.r)
        hours = rng.normal(means[which], stds[which])
        out.append(TimedUser(user, np.mod(np.round(hours), HOURS_PER_DAY).astype(int)))
    return tuple(out)
