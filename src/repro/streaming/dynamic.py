"""Incremental MC²LS over a streaming user population.

Check-in populations are not static: users appear, accumulate positions
and churn away.  Re-solving from scratch per event wastes exactly the
work the paper's pruning machinery saves, so this module maintains the
resolved influence relationships *incrementally*:

* **arrival** — the new user is classified against the facility and
  candidate R-trees with the per-user NIB/IA rules (one range query per
  tree, exact verification only inside the interstitial region);
* **departure** — the user id is dropped from every coverage set through
  a reverse index (O(#covering facilities));
* **selection** — the greedy runs on the maintained table on demand; it
  is the cheap phase (Fig. 14), so recomputing it per query keeps the
  ``(1 − 1/e)`` guarantee at every instant.

The session is equivalent, after any event sequence, to solving the
batch problem on the surviving population — the invariant the test suite
checks, including under property-based random event streams.

For the serving engine the session additionally maintains a
:class:`DeltaLog`: the net set of users added, removed and re-positioned
since the last published snapshot.  ``snapshot()`` drains the log and
attaches it to the returned snapshot, which lets
:meth:`repro.service.PreparedInstance.patched` splice only the dirty
rows of a cached influence table instead of re-resolving every user.
Mutations that raise (unknown uid, mid-update failure) leave the log —
like every other piece of session state — bit-for-bit untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..entities import AbstractFacility, MovingUser, SpatialDataset
from ..exceptions import SolverError
from ..influence import (
    BatchInfluenceEvaluator,
    ProbabilityFunction,
    paper_default_pf,
)
from ..pruning import PinocchioPruner
from ..solvers import GreedyOutcome, run_selection

#: Sentinel distinguishing "no dirty entry" from any recorded state when
#: saving/restoring the delta log across a failed update.
_NO_ENTRY = object()


@dataclass(frozen=True)
class DeltaLog:
    """Net user churn between two consecutive session snapshots.

    The three uid tuples are disjoint and describe the *net* effect of
    every event since the parent snapshot (add-then-remove collapses to
    nothing, remove-then-re-add to ``updated``, and so on):

    Attributes:
        parent_hash: Content hash of the snapshot this delta is relative
            to, or ``None`` when no snapshot preceded it (a patch is
            impossible; consumers must fall back to a full resolve).
        added: Uids present now that were absent at the parent.
        removed: Uids absent now that were present at the parent.
        updated: Uids present at both ends whose position history may
            have changed (re-verification decides their rows afresh).
    """

    parent_hash: Optional[str]
    added: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()
    updated: Tuple[int, ...] = ()

    @property
    def dirty(self) -> Tuple[int, ...]:
        """Uids whose influence rows must be re-verified (added ∪ updated)."""
        return tuple(sorted(set(self.added) | set(self.updated)))

    @property
    def doomed(self) -> Tuple[int, ...]:
        """Uids whose old rows must be dropped (removed ∪ updated)."""
        return tuple(sorted(set(self.removed) | set(self.updated)))

    def __len__(self) -> int:
        return len(self.added) + len(self.removed) + len(self.updated)

    def __bool__(self) -> bool:
        return len(self) > 0


class StreamingMC2LS:
    """A live MC²LS session over fixed facilities and a streaming user set.

    Args:
        facilities: Existing competitor facilities (fixed for the session).
        candidates: Candidate sites (fixed for the session).
        k: Selection budget.
        tau: Influence threshold.
        pf: Distance-decay probability function (paper default when
            ``None``).

    Each arriving user is verified against all its interstitial
    facilities in one batched kernel call; selection queries run through
    the CSR kernel.
    """

    def __init__(
        self,
        facilities: Tuple[AbstractFacility, ...],
        candidates: Tuple[AbstractFacility, ...],
        k: int,
        tau: float = 0.7,
        pf: Optional[ProbabilityFunction] = None,
    ):
        if k < 1 or k > len(candidates):
            raise SolverError(f"k={k} infeasible for {len(candidates)} candidates")
        self.k = k
        self.tau = tau
        self.pf = pf or paper_default_pf()
        self.facilities = tuple(facilities)
        self.candidates = tuple(candidates)
        self._batch = BatchInfluenceEvaluator(self.pf, tau)
        self._pruner_c = PinocchioPruner(self.candidates, tau, self.pf)
        self._pruner_f = PinocchioPruner(self.facilities, tau, self.pf)
        self._users: Dict[int, MovingUser] = {}
        self._omega_c: Dict[int, Set[int]] = {c.fid: set() for c in self.candidates}
        self._f_o: Dict[int, Set[int]] = {}
        # Reverse index: uid -> candidate ids covering it (for O(deg) removal).
        self._covering: Dict[int, Set[int]] = {}
        self.events_processed = 0
        # Net churn since the last drained snapshot: uid -> "added" |
        # "removed" | "updated" (collapsed per the DeltaLog semantics).
        self._dirty: Dict[int, str] = {}
        self._parent_hash: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._users)

    def __contains__(self, uid: int) -> bool:
        return uid in self._users

    def table(self) -> InfluenceTable:
        """A snapshot of the maintained influence relationships."""
        return InfluenceTable.from_mappings(self._omega_c, self._f_o)

    def pending_delta(self) -> DeltaLog:
        """The churn accumulated since the last drained snapshot (a view;
        the log keeps accumulating)."""
        return DeltaLog(
            parent_hash=self._parent_hash,
            added=tuple(sorted(u for u, s in self._dirty.items() if s == "added")),
            removed=tuple(sorted(u for u, s in self._dirty.items() if s == "removed")),
            updated=tuple(sorted(u for u, s in self._dirty.items() if s == "updated")),
        )

    def drain_delta(self, content_hash: str) -> DeltaLog:
        """Seal the accumulated churn against a newly published snapshot.

        Returns the delta relative to the *previous* snapshot mark, then
        advances the mark to ``content_hash`` and clears the log, so the
        next drain describes churn relative to this publication.  Called
        by :meth:`repro.service.DatasetSnapshot.from_streaming`.
        """
        delta = self.pending_delta()
        self._parent_hash = content_hash
        self._dirty.clear()
        return delta

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _verify_interstitial(
        self, facilities: Sequence[AbstractFacility], user: MovingUser
    ) -> Set[int]:
        """Ids of ``facilities`` that influence ``user``."""
        if not facilities:
            return set()
        xy = np.array([[v.x, v.y] for v in facilities], dtype=np.float64)
        hit = self._batch.influences_facilities(xy, user.positions)
        return {v.fid for v, h in zip(facilities, hit) if h}

    def add_user(self, user: MovingUser) -> None:
        """Process an arrival; the user is classified against all facilities."""
        if user.uid in self._users:
            raise SolverError(f"user {user.uid} already present")
        self._users[user.uid] = user
        decision = self._pruner_c.classify_user(user)
        covering = {c.fid for c in decision.confirmed}
        covering |= self._verify_interstitial(list(decision.verify), user)
        for cid in covering:
            self._omega_c[cid].add(user.uid)
        self._covering[user.uid] = covering
        # Competitor relationships are only material for covered users, but
        # coverage can appear later if candidates change — resolving now
        # keeps events O(1) in session length and the table exact.
        decision = self._pruner_f.classify_user(user)
        competitors = {f.fid for f in decision.confirmed}
        competitors |= self._verify_interstitial(list(decision.verify), user)
        self._f_o[user.uid] = competitors
        # Delta collapse: a user removed since the mark re-appearing means
        # "present at both ends, history suspect" — i.e. updated.
        if self._dirty.get(user.uid) == "removed":
            self._dirty[user.uid] = "updated"
        else:
            self._dirty[user.uid] = "added"
        self.events_processed += 1

    def remove_user(self, uid: int) -> MovingUser:
        """Process a departure; returns the removed user."""
        user = self._users.pop(uid, None)
        if user is None:
            raise SolverError(f"user {uid} not present")
        for cid in self._covering.pop(uid, ()):
            self._omega_c[cid].discard(uid)
        self._f_o.pop(uid, None)
        # Delta collapse: a user added since the mark and removed again
        # nets out to nothing relative to the parent snapshot.
        if self._dirty.get(uid) == "added":
            del self._dirty[uid]
        else:
            self._dirty[uid] = "removed"
        self.events_processed += 1
        return user

    def update_user(self, user: MovingUser) -> None:
        """Re-classify a user whose position history changed.

        Exception-safe: if re-classification of the new history fails
        after the removal succeeded, the user's prior state (position
        history, coverage, competitors, event count) is restored before
        the exception propagates, so a failed update never silently
        drops the user or skews ``events_processed``.
        """
        uid = user.uid
        if uid not in self._users:
            raise SolverError(f"user {uid} not present")
        old_user = self._users[uid]
        old_covering = set(self._covering.get(uid, ()))
        old_fo = self._f_o.get(uid)
        old_fo = set(old_fo) if old_fo is not None else None
        old_dirty = self._dirty.get(uid, _NO_ENTRY)
        events_before = self.events_processed
        self.remove_user(uid)
        try:
            self.add_user(user)
        except BaseException:
            # Drop whatever add_user managed to record before failing,
            # then put the pre-update state back.
            self._users.pop(uid, None)
            for cid in self._covering.pop(uid, ()):
                self._omega_c[cid].discard(uid)
            self._f_o.pop(uid, None)
            self._users[uid] = old_user
            for cid in old_covering:
                self._omega_c[cid].add(uid)
            self._covering[uid] = old_covering
            if old_fo is not None:
                self._f_o[uid] = old_fo
            # The remove/add pair may have rewritten (or deleted) the
            # user's delta entry; restore it so a failed update cannot
            # corrupt the next snapshot's patch.
            if old_dirty is _NO_ENTRY:
                self._dirty.pop(uid, None)
            else:
                self._dirty[uid] = old_dirty
            self.events_processed = events_before
            raise
        self.events_processed = events_before + 1  # one event per update

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def current_selection(self) -> GreedyOutcome:
        """Greedy ``k``-selection over the live population."""
        return run_selection(
            self.table(), [c.fid for c in self.candidates], self.k
        )

    def current_dataset(self) -> SpatialDataset:
        """The surviving population as a batch dataset (for validation)."""
        if not self._users:
            raise SolverError("no users in the session")
        return SpatialDataset.build(
            [self._users[uid] for uid in sorted(self._users)],
            self.facilities,
            self.candidates,
            name="streaming-snapshot",
        )

    def snapshot(self, label: str = ""):
        """Publish the current population as a serving-engine snapshot.

        Returns a :class:`~repro.service.DatasetSnapshot` of the
        surviving users, versioned by ``events_processed`` — hand it to
        :meth:`~repro.service.SelectionEngine.publish` (or call
        ``engine.publish_streaming(session)`` directly) after a batch of
        events to make the new population queryable.  Imported lazily to
        keep the streaming module importable without the service layer.
        """
        from ..service import DatasetSnapshot

        return DatasetSnapshot.from_streaming(self, label=label)

    @staticmethod
    def from_dataset(dataset: SpatialDataset, k: int, tau: float = 0.7,
                     pf: Optional[ProbabilityFunction] = None) -> "StreamingMC2LS":
        """Bootstrap a session pre-loaded with a dataset's users."""
        session = StreamingMC2LS(
            dataset.facilities, dataset.candidates, k=k, tau=tau, pf=pf
        )
        for user in dataset.users:
            session.add_user(user)
        return session
