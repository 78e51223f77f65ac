"""Prepared instances: resolve once, select many times.

A :class:`PreparedInstance` is the serving-side unit of amortisation: the
influence table for one ``(snapshot, solver, PF, τ)`` configuration,
resolved once through the solver's :meth:`~repro.solvers.Solver.resolve`
layer, plus the CSR :class:`~repro.solvers.CoverageMatrix` densification
built lazily on the first selection.  Queries that differ only in ``k``
or candidate mask reuse all of it.

Candidate-mask queries exploit the matrix column structure via
:meth:`~repro.solvers.CoverageMatrix.restrict` (CSR segment gathering, no
re-resolution); set-aware capture models use
:meth:`~repro.competition.InfluenceTable.restricted`.  Either way the
selection is identical to solving the instance whose candidate set *is*
the subset — the differential suite pins this against direct solver runs.

Thread-safety: after construction the table and matrices are only read;
``CoverageMatrix.select`` keeps all mutable state (covered masks, CELF
bounds) in locals, so any number of queries may select concurrently.  The
lazy matrix builds are double-checked under a lock.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

from ..capture import DEFAULT_CAPTURE_KEY, CaptureModel
from ..capture.select import capture_select
from ..exceptions import ServiceError, SolverError
from ..influence import ProbabilityFunction, paper_default_pf
from ..solvers import ResolvedInstance, Solver, patch_resolution
from ..solvers.coverage import CoverageMatrix
from ..solvers.selection import CancelCheck, GreedyOutcome
from .cache import LRUCache
from .snapshot import DatasetSnapshot

#: Bound on memoised restricted matrices per prepared instance.
_MAX_RESTRICTED = 32


class PreparedInstance:
    """A resolved ``(snapshot, solver, PF, τ)`` ready to answer queries.

    Args:
        snapshot: The population version this instance is bound to.
        solver: A solver supporting resolution-only preparation
            (:meth:`~repro.solvers.Solver.resolve`).
        tau: Influence threshold.
        pf: Distance-decay probability function (paper default if
            ``None``).
        capture: Customer-choice capture model (:mod:`repro.capture`);
            ``None`` means the paper's evenly-split model.  Resolution
            is capture-agnostic, so the amortised table is shared in
            shape with every other model — but the engine keys prepared
            instances by the capture cache key, because the *selection*
            phase consults it: set-independent models feed their weight
            model into the CSR densification, set-aware models route
            every select through the CELF capture loop.
    """

    def __init__(
        self,
        snapshot: DatasetSnapshot,
        solver: Solver,
        tau: float,
        pf: Optional[ProbabilityFunction] = None,
        capture: Optional[CaptureModel] = None,
    ) -> None:
        self.snapshot = snapshot
        self.solver_name = solver.name
        self.tau = tau
        self.capture = capture
        self.pf = pf or paper_default_pf()
        self.resolved: ResolvedInstance = solver.resolve(
            snapshot.dataset, tau, self.pf
        )
        self.table = self.resolved.table
        self.candidate_ids: Tuple[int, ...] = tuple(
            sorted(c.fid for c in snapshot.dataset.candidates)
        )
        #: How this instance came to be: ``"resolved"`` (full resolve) or
        #: ``"patched"`` (delta-spliced from a previous instance).
        self.provenance = "resolved"
        #: Dirty rows re-verified when provenance is ``"patched"``.
        self.patched_users = 0
        self._warm = False
        self._lock = threading.Lock()
        self._matrix: Optional[CoverageMatrix] = None
        # Counted LRU (satellite of PR 6): the old per-instance OrderedDict
        # memo grew one full CSR matrix per distinct mask with only a local
        # bound and no accounting; the shared cache class bounds it *and*
        # surfaces eviction counters through restricted_cache_stats().
        self._restricted = LRUCache(_MAX_RESTRICTED)

    # ------------------------------------------------------------------
    @classmethod
    def patched(
        cls,
        old: "PreparedInstance",
        snapshot: DatasetSnapshot,
        warm_start: bool = True,
    ) -> "PreparedInstance":
        """Delta-splice a prepared instance onto a successor snapshot.

        ``snapshot`` must carry a :class:`~repro.streaming.DeltaLog`
        chained from ``old``'s snapshot (``delta.parent_hash`` equal to
        its content hash): only the delta's dirty rows are re-verified
        (:func:`~repro.solvers.patch_resolution`) and, when ``old`` has a
        built CSR matrix, its rows are spliced rather than redensified
        (:meth:`~repro.solvers.CoverageMatrix.restrict`'s sibling,
        :meth:`~repro.solvers.CoverageMatrix.patched`).

        **Bit-identity contract.**  Every query observable — selections,
        gains, objectives, for any ``k`` / candidate mask —
        is bit-identical to a fresh ``PreparedInstance`` resolved against
        ``snapshot``; the property suite pins this across all solvers.
        Only the *cost* accounting differs (that is the point): the
        patched ``resolved.evaluation`` counts the dirty rows alone, and
        ``warm_start`` reuses the parent's CELF round-0 bounds so repeat
        selections do strictly less screening work.

        Raises:
            ServiceError: When the snapshot carries no delta, the delta
                chains from a different (e.g. superseded-and-replaced)
                snapshot, or the candidate sites changed.
        """
        if (
            old.capture is not None
            and old.capture.cache_key() != DEFAULT_CAPTURE_KEY
        ):
            # Non-default capture models hold utilities bound to the old
            # population; splicing the table alone would serve stale
            # masses.  Raising here routes the engine's migration sweep
            # to its patch_failed accounting and the plain-invalidation
            # fallback (the first query re-resolves fresh).
            raise ServiceError(
                f"prepared instance under capture model "
                f"{old.capture.name!r} cannot be delta-patched; "
                "republish falls back to full invalidation"
            )
        delta = snapshot.delta
        if delta is None:
            raise ServiceError(
                "snapshot carries no delta log; republish from the "
                "streaming session or fall back to a full resolve"
            )
        if delta.parent_hash != old.snapshot.content_hash:
            raise ServiceError(
                f"delta chains from snapshot {str(delta.parent_hash)[:12]}, "
                f"not from this instance's {old.snapshot.content_hash[:12]} "
                "(superseded out of order?)"
            )
        candidate_ids = tuple(sorted(c.fid for c in snapshot.dataset.candidates))
        if candidate_ids != old.candidate_ids:
            raise ServiceError("candidate sites changed; patching is impossible")

        inst = cls.__new__(cls)
        inst.snapshot = snapshot
        inst.solver_name = old.solver_name
        inst.tau = old.tau
        inst.capture = old.capture
        inst.pf = old.pf
        inst.resolved, added_cover = patch_resolution(
            old.resolved,
            snapshot.dataset,
            delta.dirty,
            delta.removed,
            old.tau,
            old.pf,
        )
        inst.table = inst.resolved.table
        inst.candidate_ids = candidate_ids
        inst.provenance = "patched"
        inst.patched_users = len(delta.dirty)
        inst._warm = bool(warm_start)
        inst._lock = threading.Lock()
        old_matrix = old._matrix
        inst._matrix = (
            old_matrix.patched(inst.table, added_cover, delta.removed)
            if old_matrix is not None
            else None
        )
        inst._restricted = LRUCache(_MAX_RESTRICTED)
        return inst

    # ------------------------------------------------------------------
    @property
    def prepare_seconds(self) -> float:
        """Wall-clock cost of the resolution (or patch) this amortises."""
        return self.resolved.timings.get("total", 0.0)

    def matrix(self) -> CoverageMatrix:
        """The full CSR coverage matrix, built once on first use."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    self._matrix = CoverageMatrix(
                        self.table, self.candidate_ids, model=self._weight_model()
                    )
        return self._matrix

    def _restricted_matrix(self, subset: Tuple[int, ...]) -> CoverageMatrix:
        key = (self.snapshot.content_hash, subset)
        sub, _ = self._restricted.get_or_create(
            key, lambda: self.matrix().restrict(subset)
        )
        return sub

    def _weight_model(self):
        """Per-user weight model of a set-independent capture (or None)."""
        if self.capture is not None and self.capture.set_independent:
            return self.capture.weight_model
        return None

    def restricted_cache_stats(self):
        """Counters of the per-instance restricted-matrix LRU."""
        return self._restricted.stats()

    # ------------------------------------------------------------------
    def select(
        self,
        k: int,
        candidate_ids: Optional[Sequence[int]] = None,
        cancel_check: CancelCheck = None,
    ) -> GreedyOutcome:
        """Greedy ``k``-selection over all candidates or a subset.

        Identical output to running the owning solver's ``solve`` on the
        (possibly candidate-restricted) instance: same selection order,
        same bit-exact gains.

        Under a set-aware capture model every select runs the CELF
        capture loop over the amortised table; set-independent models
        select through the CSR matrix.
        """
        subset = None
        if candidate_ids is not None:
            subset = tuple(sorted(set(int(c) for c in candidate_ids)))
            unknown = set(subset) - set(self.candidate_ids)
            if unknown:
                raise SolverError(
                    f"candidate mask references unknown sites {unknown}"
                )
            if not subset:
                raise SolverError("candidate mask is empty")
        cap = self.capture
        if cap is not None and not cap.set_independent:
            if subset is None:
                return capture_select(
                    self.table, self.candidate_ids, k, cap, cancel_check=cancel_check
                )
            return capture_select(
                self.table.restricted(set(subset)),
                subset,
                k,
                cap,
                cancel_check=cancel_check,
            )
        if subset is None:
            return self.matrix().select(
                k, cancel_check=cancel_check, warm_start=self._warm
            )
        return self._restricted_matrix(subset).select(k, cancel_check=cancel_check)
