"""The in-process query-serving engine.

:class:`SelectionEngine` answers repeated MC²LS selection queries against
one published :class:`~repro.service.DatasetSnapshot`:

1. **Result cache** — a selection already computed for the same
   ``(snapshot, solver, PF, τ, k, candidate mask)`` is returned directly.
2. **Prepared-instance cache** — otherwise the engine fetches (or
   resolves) the :class:`~repro.service.PreparedInstance` for
   ``(snapshot, solver, PF, τ)`` and runs only the cheap greedy phase
   with the query's ``k`` / mask.
3. **Scheduler** — :meth:`SelectionEngine.submit` executes queries on a
   bounded thread pool with admission control and per-query deadlines;
   the deadline probe is threaded into every greedy round.

Each phase runs one kernel — the batched verifier and the CSR
selector — so a query names no kernel and cache keys carry none.  Keys
always lead with the snapshot content hash — a republished population
gets a new hash, making stale service impossible by construction;
supersession additionally sweeps the old hash's entries out of both
caches.

Every result carries :class:`QueryStats`: where it came from (cache
provenance), what it cost (phase timings, verification counters), and
which snapshot version served it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..capture import CaptureSpec
from ..entities import SpatialDataset
from ..exceptions import ServiceError, ShardError, SolverError
from ..influence import (
    ProbabilityFunction,
    paper_default_pf,
    pf_from_dict,
    pf_to_dict,
)
from ..solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    IQTSolver,
    IQTVariant,
    Solver,
)
from .cache import LRUCache
from .prepared import PreparedInstance
from .scheduler import CancelToken, QueryHandle, QueryScheduler
from .shared import SharedArrayStore
from .sharding import ShardCoordinator
from .snapshot import DatasetSnapshot

#: Churn fraction (delta events over serving population) above which the
#: engine republish stops migrating prepared instances and falls back to
#: plain invalidation — a mostly-new population re-resolves about as fast
#: as it patches, and eager migration of instances that may never be
#: queried again is pure waste at that point.
_MIGRATE_FRACTION = 0.5

#: Solvers the engine can prepare with, by CLI-compatible name; each
#: factory builds the solver with its defaults.
SOLVER_FACTORIES: Dict[str, Callable[[], Solver]] = {
    "baseline": BaselineGreedySolver,
    "k-cifp": AdaptedKCIFPSolver,
    "iqt": lambda: IQTSolver(variant=IQTVariant.IQT),
    "iqt-c": lambda: IQTSolver(variant=IQTVariant.IQT_C),
    "iqt-pino": lambda: IQTSolver(variant=IQTVariant.IQT_PINO),
}


@dataclass(frozen=True)
class SelectionQuery:
    """One what-if selection request against the published snapshot.

    Attributes:
        k: Number of locations to select.
        tau: Influence threshold.
        solver: Resolution strategy (key of :data:`SOLVER_FACTORIES`).
        pf: Probability function (paper default when ``None``).
        candidate_ids: Optional candidate mask — select only from this
            subset of the snapshot's candidates.
        deadline_s: Cooperative deadline in seconds, measured from
            submission; ``None`` disables it.
        use_cache: Look up / populate the engine caches (disable for
            benchmarking cold paths).
        capture: Customer-choice capture model spec
            (:class:`~repro.capture.CaptureSpec`); ``None`` means the
            paper's evenly-split model.  The spec's cache key joins the
            engine cache keys, so queries share cached work exactly when
            their capture semantics are identical; sharded execution
            supports only the evenly-split key and falls back to the
            threaded path (counted in :meth:`SelectionEngine.stats`)
            for anything else.
    """

    k: int
    tau: float = 0.7
    solver: str = "iqt"
    pf: Optional[ProbabilityFunction] = None
    candidate_ids: Optional[Tuple[int, ...]] = None
    deadline_s: Optional[float] = None
    use_cache: bool = True
    capture: Optional[CaptureSpec] = None

    @property
    def capture_spec(self) -> CaptureSpec:
        """The effective capture spec (evenly-split when unset)."""
        return self.capture if self.capture is not None else CaptureSpec()

    def __post_init__(self) -> None:
        if self.candidate_ids is not None:
            object.__setattr__(
                self,
                "candidate_ids",
                tuple(sorted(set(int(c) for c in self.candidate_ids))),
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-portable form of this query (trace journaling).

        Round-trips through :meth:`from_dict` to an equal query —
        including the engine cache keys it produces — so a replayed
        trace exercises exactly the cache behaviour it recorded.  A
        custom :class:`~repro.influence.ProbabilityFunction` outside the
        provided families is not portable and raises.
        """
        return {
            "k": self.k,
            "tau": self.tau,
            "solver": self.solver,
            "pf": None if self.pf is None else pf_to_dict(self.pf),
            "candidate_ids": (
                None if self.candidate_ids is None else list(self.candidate_ids)
            ),
            "deadline_s": self.deadline_s,
            "use_cache": self.use_cache,
            "capture": (
                None if self.capture is None else asdict(self.capture)
            ),
        }

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "SelectionQuery":
        """Rebuild a query serialised by :meth:`as_dict`.

        Keys this version no longer reads, such as the retired kernel
        toggles of older recordings, are ignored.
        """
        pf_spec = spec.get("pf")
        capture_spec = spec.get("capture")
        candidate_ids = spec.get("candidate_ids")
        return cls(
            k=int(spec["k"]),
            tau=float(spec.get("tau", 0.7)),
            solver=spec.get("solver", "iqt"),
            pf=None if pf_spec is None else pf_from_dict(pf_spec),
            candidate_ids=(
                None if candidate_ids is None else tuple(candidate_ids)
            ),
            deadline_s=spec.get("deadline_s"),
            use_cache=bool(spec.get("use_cache", True)),
            capture=(
                None if capture_spec is None else CaptureSpec(**capture_spec)
            ),
        )


@dataclass(frozen=True)
class QueryStats:
    """Provenance and cost accounting for one served query."""

    snapshot_hash: str
    snapshot_version: int
    solver: str
    k: int
    tau: float
    result_cache: str  # "hit" | "miss" | "bypass"
    prepared_cache: str  # "hit" | "miss" | "bypass" | "skip"
    prepare_seconds: float
    select_seconds: float
    total_seconds: float
    evaluations: int
    positions_touched: int
    selection_evaluations: int

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON reports and the CLI."""
        return {
            "snapshot_hash": self.snapshot_hash[:12],
            "snapshot_version": self.snapshot_version,
            "solver": self.solver,
            "k": self.k,
            "tau": self.tau,
            "result_cache": self.result_cache,
            "prepared_cache": self.prepared_cache,
            "prepare_seconds": self.prepare_seconds,
            "select_seconds": self.select_seconds,
            "total_seconds": self.total_seconds,
            "evaluations": self.evaluations,
            "positions_touched": self.positions_touched,
            "selection_evaluations": self.selection_evaluations,
        }


@dataclass(frozen=True)
class QueryResult:
    """A served selection plus its provenance.

    ``selected`` / ``objective`` / ``gains`` are bit-identical to the
    corresponding direct ``Solver.solve`` call on the snapshot's dataset
    (candidate-restricted when the query carried a mask).
    """

    selected: Tuple[int, ...]
    objective: float
    gains: Tuple[float, ...]
    stats: QueryStats = field(compare=False)


class SelectionEngine:
    """Serve selection queries against published dataset snapshots.

    Args:
        snapshot: Initial population (a snapshot or a bare dataset);
            may also be published later.
        max_workers: Scheduler thread count.
        max_queued: Admission-control bound on in-flight queries.
        prepared_cache_size: LRU bound for prepared instances (each holds
            a full influence table — keep this small).
        result_cache_size: LRU bound for final selections (cheap entries).
        incremental: Migrate cached prepared instances across streaming
            republishes by delta-patching them
            (:meth:`~repro.service.PreparedInstance.patched`) instead of
            dropping them; disable to measure the full-invalidation
            baseline (the CLI exposes this as ``--no-incremental``).
        execution: ``"threaded"`` (default) serves queries with the
            in-process kernels; ``"sharded"`` fans resolution and the
            greedy rounds out over ``shard_workers`` worker *processes*
            through a :class:`~repro.service.ShardCoordinator`
            (bit-identical results, GIL-free scaling).  Falls back to
            the threaded path — with a counter in :meth:`stats` — when
            ``shard_workers < 2`` or shared memory / process spawning is
            unavailable on the platform.
        shard_workers: Worker-process count for sharded execution.
        shard_start_method: ``multiprocessing`` start method override
            for the worker fleet (default: ``fork`` where available).
    """

    def __init__(
        self,
        snapshot: Optional[Any] = None,
        *,
        max_workers: int = 4,
        max_queued: int = 64,
        prepared_cache_size: int = 16,
        result_cache_size: int = 4096,
        incremental: bool = True,
        execution: str = "threaded",
        shard_workers: int = 0,
        shard_start_method: Optional[str] = None,
    ) -> None:
        if execution not in ("threaded", "sharded"):
            raise ServiceError(
                f"unknown execution mode {execution!r}; "
                "expected 'threaded' or 'sharded'"
            )
        self._prepared = LRUCache(prepared_cache_size)
        self._results = LRUCache(result_cache_size)
        self._scheduler = QueryScheduler(max_workers, max_queued)
        self._snapshot: Optional[DatasetSnapshot] = None
        self.incremental = incremental
        self._patched = 0
        self._patch_skipped = 0
        self._patch_failed = 0
        self.execution = execution
        self.shard_workers = shard_workers
        self._shard_start_method = shard_start_method
        self._shard_lock = threading.Lock()
        self._coordinator: Optional[ShardCoordinator] = None
        self._shard_disabled = shard_workers < 2
        self._shard_queries = 0
        self._shard_fallbacks = 0
        self._shard_failures = 0
        self._shard_recoveries = 0
        self._recovery_pending = False
        self._capture_fallbacks = 0
        if snapshot is not None:
            self.publish(snapshot)

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    def publish(self, snapshot: Any) -> DatasetSnapshot:
        """Install a new population version; supersede the previous one.

        Accepts a :class:`DatasetSnapshot` or a bare
        :class:`~repro.entities.SpatialDataset` (wrapped on the fly).
        The superseded snapshot's cache entries are invalidated unless
        the content hash is unchanged (republishing identical data keeps
        the warm caches — they are still correct).
        """
        if isinstance(snapshot, SpatialDataset):
            snapshot = DatasetSnapshot(snapshot)
        if not isinstance(snapshot, DatasetSnapshot):
            raise ServiceError(
                f"cannot publish {type(snapshot).__name__}; expected a "
                "DatasetSnapshot or SpatialDataset"
            )
        old = self._snapshot
        if snapshot.version == 0:
            snapshot.version = old.version + 1 if old is not None else 1
        self._snapshot = snapshot
        if old is not None:
            old.supersede()
            if old.content_hash != snapshot.content_hash:
                self._migrate_prepared(old, snapshot)
                self._prepared.invalidate_snapshot(old.content_hash)
                self._results.invalidate_snapshot(old.content_hash)
                self._detach_sharded()
        return snapshot

    def _migrate_prepared(
        self, old: DatasetSnapshot, snapshot: DatasetSnapshot
    ) -> None:
        """Delta-patch the old snapshot's prepared instances onto the new.

        Runs just before the old hash's entries are swept: each prepared
        instance whose key chains to the new snapshot's delta is spliced
        via :meth:`~repro.service.PreparedInstance.patched` and inserted
        under the new content hash, so the first query after a streaming
        republish pays dirty-row work instead of a full re-resolve.
        Skipped entirely when incremental serving is off, the delta is
        missing or chains elsewhere, or churn exceeds
        :data:`_MIGRATE_FRACTION` of the new population.
        """
        delta = snapshot.delta
        entries = self._prepared.entries_for(old.content_hash)
        if not entries:
            return
        n_users = len(snapshot.dataset.users)
        if (
            not self.incremental
            or delta is None
            or delta.parent_hash != old.content_hash
            or (n_users and len(delta) > _MIGRATE_FRACTION * n_users)
        ):
            self._patch_skipped += len(entries)
            return
        for key, inst in entries:
            try:
                patched = PreparedInstance.patched(inst, snapshot)
            except (ServiceError, SolverError):
                self._patch_failed += 1
                continue
            self._prepared.put((snapshot.content_hash,) + key[1:], patched)
            self._patched += 1

    def publish_streaming(self, session: Any) -> DatasetSnapshot:
        """Publish the current state of a :class:`StreamingMC2LS` session."""
        return self.publish(DatasetSnapshot.from_streaming(session))

    def snapshot(self) -> DatasetSnapshot:
        """The currently published snapshot."""
        if self._snapshot is None:
            raise ServiceError("no snapshot published")
        return self._snapshot

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def _validate(self, query: SelectionQuery, snapshot: DatasetSnapshot) -> None:
        if query.solver not in SOLVER_FACTORIES:
            raise ServiceError(
                f"unknown solver {query.solver!r}; "
                f"expected one of {sorted(SOLVER_FACTORIES)}"
            )
        if not 0.0 < query.tau < 1.0:
            raise SolverError(f"tau must be in (0, 1), got {query.tau}")
        n = (
            len(query.candidate_ids)
            if query.candidate_ids is not None
            else len(snapshot.dataset.candidates)
        )
        if query.k < 1 or query.k > n:
            raise SolverError(f"k={query.k} infeasible for {n} candidates")

    def _prepared_for(
        self,
        snapshot: DatasetSnapshot,
        query: SelectionQuery,
        pf: ProbabilityFunction,
        pkey: Tuple[Any, ...],
    ) -> Tuple[PreparedInstance, str]:
        def build() -> PreparedInstance:
            solver: Solver = SOLVER_FACTORIES[query.solver]()
            spec = query.capture_spec
            # The default spec passes capture=None: the prepared instance
            # then takes the untouched legacy path, keeping evenly-split
            # serving bit-identical to pre-capture builds.
            capture = (
                None if spec.is_default else spec.build(snapshot.dataset, pf)
            )
            return PreparedInstance(snapshot, solver, query.tau, pf, capture)

        if not query.use_cache:
            return build(), "bypass"
        prepared, was_hit = self._prepared.get_or_create(pkey, build)
        return prepared, "hit" if was_hit else "miss"

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    def _detach_sharded(self) -> None:
        """Drop the worker fleet's shared state (on republish)."""
        with self._shard_lock:
            coord = self._coordinator
            if coord is not None and coord.broken is None:
                coord.detach()

    def _ensure_coordinator(self) -> Optional[ShardCoordinator]:
        """The live worker fleet, or ``None`` when falling back.

        Spawns the fleet on first use, after probing that shared memory
        actually works here (some platforms mount no ``/dev/shm``); any
        setup failure permanently disables sharded execution for this
        engine — queries silently take the threaded path and the
        ``sharded.fallbacks`` counter records it.
        """
        if self._shard_disabled:
            return None
        with self._shard_lock:
            if self._coordinator is not None:
                if self._coordinator.broken is None:
                    return self._coordinator
                # A broken fleet left behind by a failed query: tear it
                # down before respawning so its workers/segments never
                # outlive the coordinator that owns them.
                try:
                    self._coordinator.close()
                except Exception:
                    pass
                self._coordinator = None
                self._recovery_pending = True
            try:
                probe = SharedArrayStore.create(
                    {"probe": np.zeros(1, dtype=np.float64)},
                    "0" * 64,
                    label="probe",
                )
                probe.close()
                probe.unlink()
                self._coordinator = ShardCoordinator(
                    self.shard_workers, start_method=self._shard_start_method
                )
                if self._recovery_pending:
                    # Fresh fleet replacing a broken one — a recovery,
                    # not a fallback: the query stays on the sharded
                    # path, so neither fallback counter fires for it.
                    self._shard_recoveries += 1
                    self._recovery_pending = False
                return self._coordinator
            except Exception:
                self._shard_disabled = True
                self._coordinator = None
                return None

    def _execute_sharded(
        self,
        query: SelectionQuery,
        snapshot: DatasetSnapshot,
        pf: ProbabilityFunction,
        token: CancelToken,
        t0: float,
    ) -> Optional[QueryResult]:
        """Serve one query on the worker fleet; ``None`` means fall back.

        Preparation (shared-arena fan-out + sharded resolve) is
        amortised per ``(snapshot, PF, τ)`` exactly like the threaded
        path's prepared-instance cache; the distributed greedy returns
        selections, gains and objective bit-identical to the in-process
        kernels, so the result cache is shared with the threaded path.
        A worker dying mid-query is *not* a fallback: the coordinator
        tears down (unlinking every shared segment) and the query fails
        with :class:`~repro.exceptions.ShardError` — silently recomputing
        could hide a systematically crashing fleet.  The engine drops the
        broken coordinator so the *next* query starts a fresh one.
        """
        coord = self._ensure_coordinator()
        if coord is None:
            self._shard_fallbacks += 1
            return None
        try:
            did_prepare = coord.prepare(snapshot, query.tau, pf)
            token.check()
            t_sel = time.perf_counter()
            outcome = coord.select(
                query.k,
                candidate_ids=query.candidate_ids,
                cancel_check=token.check,
            )
            stats = coord.stats
        except ShardError:
            with self._shard_lock:
                if self._coordinator is not None and self._coordinator.broken:
                    # The coordinator already tore itself down (ShardError
                    # always follows teardown); mark the break so the next
                    # successful respawn counts as one recovery.
                    self._coordinator = None
                    self._recovery_pending = True
            self._shard_failures += 1
            raise
        self._shard_queries += 1
        now = time.perf_counter()
        qstats = QueryStats(
            snapshot_hash=snapshot.content_hash,
            snapshot_version=snapshot.version,
            solver=query.solver,
            k=query.k,
            tau=query.tau,
            result_cache="miss" if query.use_cache else "bypass",
            prepared_cache="sharded-miss" if did_prepare else "sharded-hit",
            prepare_seconds=coord.last_prepare_seconds,
            select_seconds=now - t_sel,
            total_seconds=now - t0,
            evaluations=stats.total_evaluations if stats else 0,
            positions_touched=stats.positions_touched if stats else 0,
            selection_evaluations=outcome.evaluations,
        )
        return QueryResult(
            selected=outcome.selected,
            objective=outcome.objective,
            gains=outcome.gains,
            stats=qstats,
        )

    def execute(
        self, query: SelectionQuery, cancel: Optional[CancelToken] = None
    ) -> QueryResult:
        """Serve one query synchronously on the calling thread.

        The query's clock is its token: for scheduled queries the token
        was created at submission, so ``total_seconds`` includes queue
        wait — the same span the deadline is measured over.  A token
        that is already cancelled or expired aborts *before* the cache
        lookup: an expired query is never served, not even for free, so
        record/replay sees the same outcome regardless of cache warmth.
        """
        token = cancel or CancelToken.with_timeout(query.deadline_s)
        t0 = token.started_at
        token.check()
        snapshot = self.snapshot()
        self._validate(query, snapshot)
        pf = query.pf or paper_default_pf()
        pf_key = pf.cache_key()
        base_key = (
            snapshot.content_hash,
            query.solver,
            pf_key,
            float(query.tau),
            query.capture_spec.cache_key(),
        )
        rkey = base_key + ("result", int(query.k), query.candidate_ids)
        if query.use_cache:
            cached = self._results.get(rkey)
            if cached is not None:
                # Fresh stats for this hit — never a mutated/shared view
                # of the cached result's own QueryStats (concurrent hits
                # would race) and never the original solve's numbers:
                # ``total_seconds`` measures *this* query and the work
                # counters are zero because this query did no work.
                stats = QueryStats(
                    snapshot_hash=snapshot.content_hash,
                    snapshot_version=snapshot.version,
                    solver=query.solver,
                    k=query.k,
                    tau=query.tau,
                    result_cache="hit",
                    prepared_cache="skip",
                    prepare_seconds=0.0,
                    select_seconds=0.0,
                    total_seconds=time.perf_counter() - t0,
                    evaluations=0,
                    positions_touched=0,
                    selection_evaluations=0,
                )
                return replace(cached, stats=stats)

        if self.execution == "sharded":
            if not query.capture_spec.is_default:
                # The worker fleet's distinct-weight exact merge encodes
                # the evenly-split weight family; other capture models
                # degrade cleanly to the threaded path below.  Exactly
                # one fallback counter fires per fallen-back query:
                # ``capture_fallbacks`` here, or ``fallbacks`` inside
                # ``_execute_sharded`` when the fleet is unavailable —
                # never both, so replayed traces can attribute every
                # degraded query to one cause.
                self._capture_fallbacks += 1
                result = None
            else:
                result = self._execute_sharded(query, snapshot, pf, token, t0)
            if result is not None:
                if (
                    query.use_cache
                    and self._snapshot is snapshot
                    and not snapshot.superseded
                ):
                    self._results.put(rkey, result)
                return result
            # Fleet unavailable on this platform / worker count: the
            # threaded path below serves the query bit-identically.

        prepared, prepared_provenance = self._prepared_for(
            snapshot, query, pf, base_key + ("prepared",)
        )
        token.check()

        t_sel = time.perf_counter()
        outcome = prepared.select(
            query.k,
            candidate_ids=query.candidate_ids,
            cancel_check=token.check,
        )
        now = time.perf_counter()
        stats = QueryStats(
            snapshot_hash=snapshot.content_hash,
            snapshot_version=snapshot.version,
            solver=query.solver,
            k=query.k,
            tau=query.tau,
            result_cache="miss" if query.use_cache else "bypass",
            prepared_cache=prepared_provenance,
            prepare_seconds=prepared.prepare_seconds,
            select_seconds=now - t_sel,
            total_seconds=now - t0,
            evaluations=prepared.resolved.evaluation.total_evaluations,
            positions_touched=prepared.resolved.evaluation.positions_touched,
            selection_evaluations=outcome.evaluations,
        )
        result = QueryResult(
            selected=outcome.selected,
            objective=outcome.objective,
            gains=outcome.gains,
            stats=stats,
        )
        # Never cache under a snapshot that was superseded mid-flight:
        # the entry would be unreachable after the invalidation sweep
        # anyway, but a sweep racing this insert could miss it.
        if query.use_cache and self._snapshot is snapshot and not snapshot.superseded:
            self._results.put(rkey, result)
        return result

    def submit(self, query: SelectionQuery) -> QueryHandle:
        """Enqueue one query on the scheduler.

        Raises :class:`~repro.exceptions.EngineSaturatedError` when the
        in-flight bound is hit.  The returned handle exposes ``result``
        and ``cancel``; the deadline clock starts now, so queue wait
        counts against ``deadline_s``.
        """
        token = CancelToken.with_timeout(query.deadline_s)
        return self._scheduler.submit(
            lambda tok: self.execute(query, cancel=tok), token
        )

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Engine-level counters: caches, scheduler, current snapshot."""
        out: Dict[str, Any] = {
            "prepared_cache": self._prepared.stats().as_dict(),
            "result_cache": self._results.stats().as_dict(),
            "incremental": {
                "enabled": self.incremental,
                "patched": self._patched,
                "skipped": self._patch_skipped,
                "failed": self._patch_failed,
            },
            "scheduler": {
                "max_workers": self._scheduler.max_workers,
                "max_queued": self._scheduler.max_queued,
                "in_flight": self._scheduler.in_flight,
                "submitted": self._scheduler.submitted,
                "rejected": self._scheduler.rejected,
            },
            "sharded": {
                "execution": self.execution,
                "workers": self.shard_workers,
                "active": self._coordinator is not None
                and self._coordinator.broken is None,
                "queries": self._shard_queries,
                "fallbacks": self._shard_fallbacks,
                "failures": self._shard_failures,
                "recoveries": self._shard_recoveries,
                "capture_fallbacks": self._capture_fallbacks,
                "capture_supported": ["evenly-split"],
            },
        }
        if self._snapshot is not None:
            out["snapshot"] = {
                "hash": self._snapshot.content_hash[:12],
                "version": self._snapshot.version,
                "label": self._snapshot.label,
            }
        return out

    def shutdown(self, wait: bool = True) -> None:
        """Stop the scheduler and the shard fleet (if one is running)."""
        self._scheduler.shutdown(wait=wait)
        with self._shard_lock:
            if self._coordinator is not None:
                self._coordinator.close()
                self._coordinator = None

    def __enter__(self) -> "SelectionEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()


def solve_queries(
    engine: SelectionEngine, queries: Sequence[SelectionQuery]
) -> Tuple[QueryResult, ...]:
    """Submit a batch and gather results in order (helper for benchmarks)."""
    handles = [engine.submit(q) for q in queries]
    return tuple(h.result() for h in handles)
