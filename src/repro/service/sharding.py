"""Sharded multi-process selection: coordinator/worker greedy over shards.

The serving engine's thread pool (PR 5) still runs every kernel in one
process, so resolve-heavy work serializes on the GIL and one address
space must hold the entire population.  This module splits the work
across persistent worker *processes*:

* The numeric payloads — the :class:`~repro.influence.PositionArena`
  arrays and the CSR :class:`~repro.solvers.CoverageMatrix` arrays — live
  in one :class:`~repro.service.shared.SharedArrayStore` segment per
  snapshot, mapped zero-copy by every worker (content-hash handshake
  included).
* A :class:`ShardPlan` partitions users into contiguous shards (CSR rows
  stay contiguous per shard; the candidate axis is replicated), and each
  worker holds a :class:`ShardedCoverageMatrix` over its shard that
  reuses the existing ``screened_gains`` / ``cover`` kernels unchanged.
* The :class:`ShardCoordinator` drives persistent :class:`ShardWorker`
  processes over ``multiprocessing`` pipes: it fans out resolution (each
  worker batch-verifies its user shard against every candidate and
  competitor), then runs the distributed CELF greedy — workers return
  per-shard screened gains, the coordinator merges them, confirms the
  round winner exactly, and broadcasts the winner so workers update
  their covered masks.

**Bit-identity contract.**  Distributed selection returns the *same*
selections, per-round gains and objective as the single-process
:meth:`CoverageMatrix.select <repro.solvers.CoverageMatrix.select>`:

* The evenly-split objective is a sum over users, so per-shard screened
  gains are shard-additive.  The merged screened value may differ from
  the whole-matrix ``reduceat`` by a few ulps, but screened values only
  *gate* exact confirmation; the merged tolerance ``Σ tᵢ + K·2⁻⁵²·g``
  rigorously bounds both the per-shard summation error and the K-term
  merge error, so no candidate that could win the round is ever skipped
  (the same argument that makes the single-process CELF screen safe).
* Winner confirmation is exact by construction: the weights take few
  distinct values (``1/(c+1)``), each worker returns the *integer count*
  of live users per distinct weight, counts add exactly across shards,
  and :func:`~repro.solvers.merged_exact_gain` applies one correctly
  rounded ``fsum`` to the merged multiset — bit-equal to
  ``exact_gain`` on the whole matrix, which is bit-equal to the scalar
  path.  The winner scan then runs in the same ascending-candidate order
  with the same ``gain > best`` comparison.
* Sharded resolution decides each ``(facility, user)`` pair through the
  batched kernel, whose decisions and counters are bit-identical to the
  scalar evaluator per pair; per-user counters are additive, so the
  merged :class:`~repro.influence.EvaluationStats` equals a
  single-process all-pairs batched resolve.

Failure handling is leak-proof: worker death or a broken pipe triggers
:meth:`ShardCoordinator._fail`, which terminates every worker, closes
and unlinks every shared segment, and raises
:class:`~repro.exceptions.ShardError`; the module-level ``atexit`` guard
in :mod:`~repro.service.shared` covers coordinator death.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing
import numpy as np

from ..exceptions import ShardError, SolverError
from ..influence import BatchInfluenceEvaluator, EvaluationStats, PositionArena
from ..solvers.coverage import _SUM_ULP, CoverageMatrix, merged_exact_gain
from ..solvers.selection import CancelCheck, GreedyOutcome
from .shared import SharedArrayStore
from .snapshot import DatasetSnapshot


# ----------------------------------------------------------------------
# Shard planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Contiguous partition of user rows into shards.

    ``boundaries`` has ``n_shards + 1`` nondecreasing entries;
    shard ``i`` owns rows ``[boundaries[i], boundaries[i + 1])``.
    Contiguity is what keeps every shard's CSR slice a *slice*: shared
    ``weights`` / ``winv`` sub-arrays are zero-copy views and the
    per-candidate segment split is a ``searchsorted`` range per shard.
    """

    boundaries: Tuple[int, ...]

    @property
    def n_shards(self) -> int:
        return len(self.boundaries) - 1

    def shard(self, i: int) -> Tuple[int, int]:
        """``(lo, hi)`` row range of shard ``i``."""
        return self.boundaries[i], self.boundaries[i + 1]

    def __iter__(self):
        return (self.shard(i) for i in range(self.n_shards))

    @classmethod
    def balanced(cls, costs: Sequence[float], n_shards: int) -> "ShardPlan":
        """Split rows into ``n_shards`` contiguous runs of ~equal cost.

        ``costs`` is a per-row work estimate (positions per user for
        resolution, CSR entries per user for selection).  The split
        places cuts at the cost quantiles, then nudges them so every
        shard is non-empty while ``n_shards <= len(costs)``.  When there
        are more shards than rows, the tail shards are *empty* rather
        than dropped — every worker in a fixed-size fleet must receive a
        (possibly trivial) shard, or the coordinator's lockstep fan-out
        would wait forever on the unassigned ones.
        """
        costs_arr = np.asarray(costs, dtype=np.float64)
        n = int(costs_arr.shape[0])
        if n == 0:
            raise SolverError("cannot shard zero rows")
        n_shards = max(1, int(n_shards))
        effective = min(n_shards, n)
        cum = np.cumsum(costs_arr)
        total = float(cum[-1])
        if total <= 0.0:
            cuts = [round(n * i / effective) for i in range(1, effective)]
        else:
            targets = total * np.arange(1, effective) / effective
            cuts = (np.searchsorted(cum, targets, side="left") + 1).tolist()
        bounds = [0]
        for i, cut in enumerate(cuts):
            lo = bounds[-1] + 1  # leave at least one row per shard so far
            hi = n - (effective - 1 - i)  # ... and one per remaining shard
            bounds.append(min(max(int(cut), lo), hi))
        bounds.append(n)
        bounds.extend([n] * (n_shards - effective))
        return cls(tuple(bounds))


# ----------------------------------------------------------------------
# Per-shard matrix view
# ----------------------------------------------------------------------
class ShardedCoverageMatrix:
    """One shard's view of a coverage matrix, reusing the CSR kernels.

    Wraps a shard-local :class:`~repro.solvers.CoverageMatrix` whose user
    axis is the shard's rows only (candidate axis replicated), plus the
    shard's slice of the distinct-weight inverse map used for exact
    cross-shard confirmation.  ``screened_gains`` / ``cover`` /
    ``exact_live_counts`` run the existing kernels unchanged on the local
    arrays.
    """

    def __init__(
        self,
        local: CoverageMatrix,
        lo: int,
        hi: int,
        winv: np.ndarray,
        n_distinct: int,
    ) -> None:
        self.local = local
        self.lo = lo
        self.hi = hi
        self.winv = winv
        self.n_distinct = n_distinct

    @classmethod
    def from_global_arrays(
        cls,
        candidate_ids: Sequence[int],
        user_ids: np.ndarray,
        weights: np.ndarray,
        indptr: np.ndarray,
        col: np.ndarray,
        winv: np.ndarray,
        n_distinct: int,
        lo: int,
        hi: int,
    ) -> "ShardedCoverageMatrix":
        """Slice rows ``[lo, hi)`` out of a whole-matrix CSR payload.

        Within each candidate's segment the user indices are ascending,
        so the shard's portion is the ``searchsorted`` range
        ``[lo, hi)`` — gathered once into a local ``col`` (rebased to
        shard-local indices); ``user_ids`` / ``weights`` / ``winv`` are
        zero-copy slices of the (typically shared-memory) inputs.  Every
        segment carries the shard's exact sub-multiset of the global
        segment, which is all the merge logic needs.
        """
        n = len(candidate_ids)
        local_indptr = np.zeros(n + 1, dtype=np.int64)
        segments: List[np.ndarray] = []
        for j in range(n):
            seg = col[indptr[j] : indptr[j + 1]]
            a, b = np.searchsorted(seg, (lo, hi))
            segments.append(seg[a:b])
            local_indptr[j + 1] = local_indptr[j] + (b - a)
        local_col = (
            np.concatenate(segments) - lo
            if segments
            else np.zeros(0, dtype=np.int64)
        )
        local = CoverageMatrix.from_csr_arrays(
            candidate_ids,
            user_ids[lo:hi],
            weights[lo:hi],
            local_indptr,
            np.ascontiguousarray(local_col),
        )
        return cls(local, lo, hi, winv[lo:hi], n_distinct)

    @classmethod
    def from_local(
        cls,
        local: CoverageMatrix,
        lo: int,
        hi: int,
        winv: np.ndarray,
        n_distinct: int,
    ) -> "ShardedCoverageMatrix":
        """Adopt a matrix a worker built directly over its own shard."""
        return cls(local, lo, hi, winv, n_distinct)

    # Kernel delegation --------------------------------------------------
    def new_covered_mask(self) -> np.ndarray:
        return self.local.new_covered_mask()

    def screened_gains(
        self, js: np.ndarray, covered: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.local.screened_gains(js, covered)

    def exact_live_counts(self, j: int, covered: np.ndarray) -> np.ndarray:
        return self.local.exact_live_counts(
            j, covered, self.winv, self.n_distinct
        )

    def cover(self, j: int, covered: np.ndarray) -> None:
        self.local.cover(j, covered)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerState:
    """Everything one worker process holds between commands."""

    def __init__(self) -> None:
        self.stores: List[SharedArrayStore] = []
        self.arena: Optional[PositionArena] = None
        self.lo = 0
        self.hi = 0
        self.fcounts: Optional[np.ndarray] = None
        self.shard: Optional[ShardedCoverageMatrix] = None
        self.covered: Optional[np.ndarray] = None

    def detach(self) -> None:
        self.arena = None
        self.shard = None
        self.covered = None
        self.fcounts = None
        for store in self.stores:
            store.close()
        self.stores.clear()


def _require(obj: Any, what: str) -> Any:
    if obj is None:
        raise ShardError(f"worker has no {what}; protocol out of order")
    return obj


def _handle_ping(state: _WorkerState, payload: Any) -> Dict[str, int]:
    return {"pid": os.getpid()}


def _handle_attach_arena(state: _WorkerState, payload: Dict[str, Any]) -> None:
    state.detach()
    store = SharedArrayStore.attach(payload["manifest"])
    state.stores.append(store)
    state.arena = PositionArena(
        store["positions"], store["offsets"], store["uids"]
    )
    state.lo, state.hi = int(payload["lo"]), int(payload["hi"])


def _handle_resolve(
    state: _WorkerState, payload: Dict[str, Any]
) -> Dict[str, Any]:
    """Batch-verify this worker's user shard against every site.

    Builds the shard-local candidate-major CSR matrix (ascending-cid
    candidate order, ascending local user index per segment) and the
    per-user competitor counts that determine the evenly-split weights
    ``1/(|F_o|+1)``.  Decisions and counters go through the batched
    kernel, so they are bit-identical per pair to the scalar evaluator —
    and per-user additive, so coordinator-merged stats equal a
    single-process all-pairs resolve.
    """
    arena = _require(state.arena, "attached arena")
    lo, hi = state.lo, state.hi
    rows = np.arange(lo, hi, dtype=np.int64)
    stats = EvaluationStats()
    batch = BatchInfluenceEvaluator(payload["pf"], payload["tau"], stats=stats)
    cand_ids: Tuple[int, ...] = tuple(payload["cand_ids"])
    cand_xy: np.ndarray = payload["cand_xy"]
    fac_xy: np.ndarray = payload["fac_xy"]

    n = len(cand_ids)
    indptr = np.zeros(n + 1, dtype=np.int64)
    segments: List[np.ndarray] = []
    for j in range(n):
        hit = batch.influences_users(cand_xy[j, 0], cand_xy[j, 1], arena, rows=rows)
        seg = np.flatnonzero(hit).astype(np.int64)
        segments.append(seg)
        indptr[j + 1] = indptr[j] + seg.shape[0]
    col = (
        np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)
    )
    fcounts = np.zeros(hi - lo, dtype=np.int64)
    for i in range(fac_xy.shape[0]):
        hit = batch.influences_users(fac_xy[i, 0], fac_xy[i, 1], arena, rows=rows)
        fcounts += hit
    # Same IEEE division as EvenlySplitModel.user_share: 1.0 / (c + 1).
    weights = 1.0 / (fcounts + 1.0)
    local = CoverageMatrix.from_csr_arrays(
        cand_ids,
        arena.uids[lo:hi],
        weights,
        indptr,
        np.ascontiguousarray(col),
    )
    state.fcounts = fcounts
    # winv arrives with the coordinator's merged distinct-count table in
    # the follow-up set_weight_table command.
    state.shard = ShardedCoverageMatrix.from_local(local, lo, hi, fcounts, 0)
    state.covered = None
    return {
        "stats": stats,
        "distinct_fcounts": np.unique(fcounts),
        "nnz": int(col.shape[0]),
    }


def _handle_set_weight_table(
    state: _WorkerState, payload: Dict[str, Any]
) -> None:
    """Install the merged distinct-competitor-count table.

    Every worker indexes its counts into the same global table, so the
    coordinator can add count vectors across shards elementwise.
    """
    shard = _require(state.shard, "resolved shard")
    distinct = payload["distinct_fcounts"]
    shard.winv = np.searchsorted(distinct, _require(state.fcounts, "fcounts"))
    shard.n_distinct = int(distinct.shape[0])


def _handle_load_matrix(state: _WorkerState, payload: Dict[str, Any]) -> None:
    """Map a whole-matrix CSR payload and slice out this worker's shard."""
    store = SharedArrayStore.attach(payload["manifest"])
    state.stores.append(store)
    state.lo, state.hi = int(payload["lo"]), int(payload["hi"])
    state.shard = ShardedCoverageMatrix.from_global_arrays(
        payload["candidate_ids"],
        store["user_ids"],
        store["weights"],
        store["indptr"],
        store["col"],
        store["winv"],
        int(payload["n_distinct"]),
        state.lo,
        state.hi,
    )
    state.fcounts = None
    state.covered = None


def _handle_reset(state: _WorkerState, payload: Any) -> None:
    state.covered = _require(state.shard, "shard matrix").new_covered_mask()


def _handle_screen(
    state: _WorkerState, payload: Dict[str, Any]
) -> Tuple[np.ndarray, np.ndarray]:
    shard = _require(state.shard, "shard matrix")
    covered = _require(state.covered, "covered mask (reset first)")
    return shard.screened_gains(payload["js"], covered)


def _handle_confirm(state: _WorkerState, payload: Dict[str, Any]) -> np.ndarray:
    shard = _require(state.shard, "shard matrix")
    covered = _require(state.covered, "covered mask (reset first)")
    js = payload["js"]
    counts = np.zeros((js.shape[0], shard.n_distinct), dtype=np.int64)
    for i, j in enumerate(js.tolist()):
        counts[i] = shard.exact_live_counts(j, covered)
    return counts


def _handle_cover(state: _WorkerState, payload: Dict[str, Any]) -> None:
    shard = _require(state.shard, "shard matrix")
    covered = _require(state.covered, "covered mask (reset first)")
    shard.cover(int(payload["j"]), covered)


def _handle_detach(state: _WorkerState, payload: Any) -> None:
    state.detach()


_HANDLERS = {
    "ping": _handle_ping,
    "attach_arena": _handle_attach_arena,
    "resolve": _handle_resolve,
    "set_weight_table": _handle_set_weight_table,
    "load_matrix": _handle_load_matrix,
    "reset": _handle_reset,
    "screen": _handle_screen,
    "confirm": _handle_confirm,
    "cover": _handle_cover,
    "detach": _handle_detach,
}


def _shard_worker_main(conn: Any) -> None:
    """Worker loop: one reply per request, until shutdown or EOF.

    Module-level so it pickles under the ``spawn`` start method.  Any
    exception inside a handler is reported as an ``("err", ...)`` reply;
    the loop survives so the coordinator decides what to do.
    """
    state = _WorkerState()
    try:
        while True:
            try:
                cmd, payload = conn.recv()
            except (EOFError, OSError):
                break
            if cmd == "shutdown":
                conn.send(("ok", None))
                break
            handler = _HANDLERS.get(cmd)
            try:
                if handler is None:
                    raise ShardError(f"unknown worker command {cmd!r}")
                conn.send(("ok", handler(state, payload)))
            except BaseException as exc:  # noqa: BLE001 - reported upstream
                try:
                    conn.send(
                        ("err", (type(exc).__name__, str(exc), traceback.format_exc()))
                    )
                except (BrokenPipeError, OSError):
                    break
    finally:
        state.detach()
        try:
            conn.close()
        except OSError:
            pass


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ShardWorker:
    """Coordinator-side handle on one persistent worker process."""

    def __init__(self, ctx: Any, worker_id: int) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.worker_id = worker_id
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn,),
            name=f"mc2ls-shard-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, cmd: str, payload: Any = None) -> None:
        self.conn.send((cmd, payload))

    def recv(self) -> Any:
        status, payload = self.conn.recv()
        if status != "ok":
            name, message, tb = payload
            raise ShardError(
                f"worker {self.worker_id} failed: {name}: {message}\n{tb}"
            )
        return payload

    def stop(self) -> None:
        """Best-effort orderly shutdown; terminate if the pipe is gone."""
        try:
            self.send("shutdown")
            if self.conn.poll(2.0):
                self.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            pass
        self.terminate()

    def terminate(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck process
            self.process.kill()
            self.process.join(timeout=5.0)


class ShardCoordinator:
    """Fan resolution and greedy selection out over shard workers.

    One coordinator owns ``n_workers`` persistent processes plus the
    shared segments they map.  It serves one prepared configuration at a
    time — ``(snapshot content hash, PF, τ)`` — re-fanning out resolution
    when the configuration changes (the engine's result cache absorbs
    repeats).  All public methods are serialized by an internal lock, so
    the engine's scheduler threads can share one coordinator.

    Args:
        n_workers: Worker process count (>= 1).
        start_method: ``multiprocessing`` start method; default is
            ``fork`` where available (fast, no re-import) else ``spawn``.
    """

    def __init__(self, n_workers: int, start_method: Optional[str] = None) -> None:
        if n_workers < 1:
            raise ShardError(f"need at least one worker, got {n_workers}")
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self.n_workers = n_workers
        self._lock = threading.RLock()
        self._broken: Optional[str] = None
        self._stores: List[SharedArrayStore] = []
        self._snapshot_hash: Optional[str] = None
        self._config: Optional[Tuple[Any, ...]] = None
        self._plan: Optional[ShardPlan] = None
        self._candidate_ids: Tuple[int, ...] = ()
        self._uw: Optional[np.ndarray] = None
        self._stats: Optional[EvaluationStats] = None
        self.last_prepare_seconds = 0.0
        ctx = multiprocessing.get_context(start_method)
        self._workers: List[ShardWorker] = []
        try:
            for i in range(n_workers):
                self._workers.append(ShardWorker(ctx, i))
            for w in self._workers:
                w.send("ping")
            for w in self._workers:
                w.recv()
        except BaseException:
            self._teardown()
            raise

    # ------------------------------------------------------------------
    # Fan-out plumbing
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._broken is not None:
            raise ShardError(f"coordinator is broken: {self._broken}")

    def _fail(self, reason: str) -> None:
        """Tear everything down, then surface the failure.

        Terminates every worker, closes + unlinks every shared segment
        (so ``/dev/shm`` is clean even though workers died mid-map), and
        marks the coordinator unusable.
        """
        self._broken = reason
        self._teardown()
        raise ShardError(f"sharded execution failed: {reason}")

    def _teardown(self) -> None:
        for w in self._workers:
            w.terminate()
        self._workers = []
        for store in self._stores:
            store.close()
            store.unlink()
        self._stores = []
        self._snapshot_hash = None
        self._config = None

    def _broadcast(self, cmd: str, payloads: Any = None) -> List[Any]:
        """Send to every worker, then collect every reply (in order).

        ``payloads`` is either one object for all workers or a per-worker
        list.  Pipe failures — a dead worker — escalate to :meth:`_fail`.
        """
        per_worker = (
            payloads
            if isinstance(payloads, list)
            else [payloads] * len(self._workers)
        )
        try:
            for w, p in zip(self._workers, per_worker):
                w.send(cmd, p)
            return [w.recv() for w in self._workers]
        except (BrokenPipeError, EOFError, OSError) as exc:
            self._fail(f"worker pipe broke during {cmd!r}: {exc!r}")
        except ShardError as exc:
            # Handler-level error on the worker: the processes are alive
            # but the fleet's state may now be inconsistent — drop the
            # prepared configuration so the next query re-fans out.
            self._config = None
            raise
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def prepare(
        self,
        snapshot: DatasetSnapshot,
        tau: float,
        pf: Any,
    ) -> bool:
        """Ensure workers hold a resolved shard state for this config.

        Shares the snapshot's arena (once per snapshot), fans resolution
        out over the user shards, merges the distinct-weight tables and
        broadcasts them back.  Returns ``True`` when work was done,
        ``False`` on a hit (same snapshot + PF + τ already prepared).
        """
        with self._lock:
            self._check_open()
            config = (snapshot.content_hash, pf.cache_key(), float(tau))
            if config == self._config:
                return False
            t0 = time.perf_counter()
            self._attach_snapshot(snapshot)
            dataset = snapshot.dataset
            cands = sorted(dataset.candidates, key=lambda c: c.fid)
            cand_ids = tuple(c.fid for c in cands)
            cand_xy = np.array(
                [[c.x, c.y] for c in cands], dtype=np.float64
            ).reshape(-1, 2)
            fac_xy = np.array(
                [[f.x, f.y] for f in dataset.facilities], dtype=np.float64
            ).reshape(-1, 2)
            replies = self._broadcast(
                "resolve",
                {
                    "pf": pf,
                    "tau": float(tau),
                    "cand_ids": cand_ids,
                    "cand_xy": cand_xy,
                    "fac_xy": fac_xy,
                },
            )
            stats = EvaluationStats()
            for reply in replies:
                stats.merge(reply["stats"])
            distinct = np.unique(
                np.concatenate([r["distinct_fcounts"] for r in replies])
            )
            self._broadcast("set_weight_table", {"distinct_fcounts": distinct})
            self._uw = 1.0 / (distinct + 1.0)
            self._stats = stats
            self._candidate_ids = cand_ids
            self._config = config
            self.last_prepare_seconds = time.perf_counter() - t0
            return True

    def _attach_snapshot(self, snapshot: DatasetSnapshot) -> None:
        if snapshot.content_hash == self._snapshot_hash:
            return
        self.detach()
        arena = snapshot.arena
        store = SharedArrayStore.create(
            {
                "positions": arena.positions,
                "offsets": arena.offsets,
                "uids": arena.uids,
            },
            snapshot.content_hash,
            label="arena",
        )
        self._stores.append(store)
        plan = ShardPlan.balanced(arena.lengths(), self.n_workers)
        self._plan = plan
        self._broadcast(
            "attach_arena",
            [
                {"manifest": store.manifest, "lo": lo, "hi": hi}
                for lo, hi in plan
            ],
        )
        self._snapshot_hash = snapshot.content_hash

    def load_matrix(self, matrix: CoverageMatrix, content_hash: str) -> None:
        """Hand a prebuilt whole matrix to the workers as shard views.

        The alternative preparation path: share the matrix's CSR payload
        plus the distinct-weight inverse map, and have each worker slice
        its contiguous user range out of it
        (:meth:`ShardedCoverageMatrix.from_global_arrays`).  Used when a
        single process already resolved the instance (e.g. migrating a
        prepared instance into sharded serving, or the differential
        tests) — selection over the handed-off matrix is bit-identical
        to ``matrix.select``.
        """
        with self._lock:
            self._check_open()
            uw, winv = np.unique(matrix.weights, return_inverse=True)
            payload = dict(matrix.csr_arrays())
            payload["winv"] = np.ascontiguousarray(winv.astype(np.int64))
            store = SharedArrayStore.create(
                payload, content_hash, label="matrix"
            )
            self._stores.append(store)
            entry_cost = np.bincount(matrix.col, minlength=matrix.n_users)
            plan = ShardPlan.balanced(entry_cost + 1.0, self.n_workers)
            self._plan = plan
            self._broadcast(
                "load_matrix",
                [
                    {
                        "manifest": store.manifest,
                        "candidate_ids": matrix.candidate_ids,
                        "n_distinct": int(uw.shape[0]),
                        "lo": lo,
                        "hi": hi,
                    }
                    for lo, hi in plan
                ],
            )
            self._uw = uw
            self._stats = None
            self._candidate_ids = matrix.candidate_ids
            self._config = ("matrix", content_hash)
            self._snapshot_hash = None

    @property
    def stats(self) -> Optional[EvaluationStats]:
        """Merged resolution counters of the current preparation."""
        return self._stats

    @property
    def broken(self) -> Optional[str]:
        """Why this coordinator is unusable, or ``None`` while healthy."""
        return self._broken

    # ------------------------------------------------------------------
    # Distributed CELF greedy
    # ------------------------------------------------------------------
    def select(
        self,
        k: int,
        candidate_ids: Optional[Sequence[int]] = None,
        cancel_check: CancelCheck = None,
    ) -> GreedyOutcome:
        """Distributed greedy ``k``-selection over the prepared shards.

        Mirrors :meth:`CoverageMatrix.select` round for round: lazy CELF
        refresh in merged-bound order with geometrically growing chunks,
        exact confirmation of every candidate whose merged interval
        reaches the round maximum, ascending-id ``gain > best`` winner
        scan.  Selections, gains and objective are bit-identical to the
        single-process kernel (see the module docstring for why).
        """
        with self._lock:
            self._check_open()
            if self._config is None:
                raise ShardError("no prepared configuration; call prepare() first")
            all_ids = self._candidate_ids
            if candidate_ids is None:
                js_subset = np.arange(len(all_ids), dtype=np.int64)
                sub_ids: Tuple[int, ...] = all_ids
            else:
                sub_ids = tuple(sorted(set(int(c) for c in candidate_ids)))
                unknown = set(sub_ids) - set(all_ids)
                if unknown:
                    raise SolverError(
                        f"candidate mask references unknown sites {unknown}"
                    )
                if not sub_ids:
                    raise SolverError("candidate mask is empty")
                js_subset = np.searchsorted(
                    np.asarray(all_ids, dtype=np.int64),
                    np.asarray(sub_ids, dtype=np.int64),
                )
            n = js_subset.shape[0]
            if k < 1 or k > n:
                raise SolverError(f"k={k} infeasible for {n} candidates")
            self._broadcast("reset")
            uw = self._uw
            assert uw is not None
            in_play = np.ones(n, dtype=bool)
            ub = np.full(n, np.inf)
            flb = np.full(n, -np.inf)
            stamp = np.full(n, -1, dtype=np.int64)
            evaluations = 0
            selected: List[int] = []
            gains: List[float] = []
            for rnd in range(k):
                if cancel_check is not None:
                    cancel_check()
                best_flb = -np.inf
                chunk = n if rnd == 0 else 1
                while True:
                    cand = np.flatnonzero(
                        in_play & (stamp < rnd) & (ub >= best_flb)
                    )
                    if cand.size == 0:
                        break
                    if cand.size > chunk:
                        top = np.argpartition(-ub[cand], chunk - 1)[:chunk]
                        cand = cand[top]
                    g, t = self._merged_screen(js_subset[cand])
                    evaluations += int(cand.size)
                    stamp[cand] = rnd
                    ub[cand] = g + t
                    flb[cand] = g - t
                    best_flb = max(best_flb, float((g - t).max()))
                    chunk = min(n, chunk * 8)
                fresh = np.flatnonzero(in_play & (stamp == rnd))
                round_flb = float(flb[fresh].max())
                near = fresh[ub[fresh] >= round_flb]
                counts = self._merged_confirm(js_subset[near])
                best_i = -1
                best_gain = -1.0
                for row, i in enumerate(near.tolist()):  # ascending cid
                    gain = merged_exact_gain(uw, counts[row])
                    if gain > best_gain:
                        best_gain = gain
                        best_i = i
                assert best_i >= 0
                selected.append(int(sub_ids[best_i]))
                gains.append(best_gain)
                in_play[best_i] = False
                self._broadcast("cover", {"j": int(js_subset[best_i])})
            return GreedyOutcome(
                tuple(selected), sum(gains), tuple(gains), evaluations
            )

    def _merged_screen(self, js: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Merge per-shard screened gains with a rigorous tolerance.

        The merged value is a K-term float sum of per-shard screens; its
        distance from the exact whole-matrix gain is at most the sum of
        the per-shard tolerances plus the K-term merge error, bounded by
        ``K · 2⁻⁵² · g`` for non-negative terms.  Extra slack only costs
        exact re-screens — never a missed winner.
        """
        replies = self._broadcast("screen", {"js": js})
        g = np.zeros(js.shape[0], dtype=np.float64)
        t = np.zeros(js.shape[0], dtype=np.float64)
        for shard_g, shard_t in replies:
            g += shard_g
            t += shard_t
        t += len(replies) * _SUM_ULP * g
        return g, t

    def _merged_confirm(self, js: np.ndarray) -> np.ndarray:
        """Sum per-shard distinct-weight live counts (integer-exact)."""
        replies = self._broadcast("confirm", {"js": js})
        total = replies[0].copy()
        for counts in replies[1:]:
            total += counts
        return total

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Drop shared segments and worker state (workers stay up)."""
        with self._lock:
            if self._workers and self._broken is None:
                self._broadcast("detach")
            for store in self._stores:
                store.close()
                store.unlink()
            self._stores = []
            self._snapshot_hash = None
            self._config = None
            self._stats = None

    def close(self) -> None:
        """Shut workers down and unlink every shared segment."""
        with self._lock:
            for w in self._workers:
                w.stop()
            self._workers = []
            for store in self._stores:
                store.close()
                store.unlink()
            self._stores = []
            self._snapshot_hash = None
            self._config = None
            if self._broken is None:
                self._broken = "closed"

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardCoordinator(workers={self.n_workers}, "
            f"config={self._config!r}, broken={self._broken!r})"
        )
