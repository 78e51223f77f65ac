"""Span recording around the library's public callables.

A traced run replaces each callable named in :func:`_targets` with a thin
wrapper that records one span per call: ``(id, parent id, name, start,
end)``.  Parents come from a per-thread stack; the scheduler wrapper
carries the submitting span over to the worker thread, so a served query
is one tree from the client's ``bench.op`` root down to the kernels.
Spans stay in memory until the run ends.

Span names are ``layer.call``.  A span's *self time* is its duration
minus the durations of its child spans, so the self times of all spans
under the benchmark's roots (``bench.setup``, ``bench.op``,
``bench.publish``) add up to the roots' total duration; the roots' own
self time is the residual no wrapped layer accounts for.

Nothing here changes what the library computes: wrappers call through
and return the original result, and :func:`instrumented` restores every
original on exit.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

ROOTS = ("bench.setup", "bench.op", "bench.publish")

#: Every per-layer metric, in report order: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("data.generate_s", "s", "lower"),
    ("data.dataset_s", "s", "lower"),
    ("snapshot.hash_s", "s", "lower"),
    ("snapshot.hash_calls", "count", "lower"),
    ("snapshot.from_streaming_s", "s", "lower"),
    ("arena.build_s", "s", "lower"),
    ("iquadtree.build_s", "s", "lower"),
    ("iquadtree.traverse_s", "s", "lower"),
    ("iquadtree.traversals", "count", "lower"),
    ("iquadtree.leaf_cache_hits", "count", "higher"),
    ("iquadtree.pairs_to_verify", "count", "lower"),
    ("pruning.nib_s", "s", "lower"),
    ("pruning.nib_calls", "count", "lower"),
    ("pruning.pairs_confirmed", "count", "higher"),
    ("pruning.pairs_pruned", "count", "higher"),
    ("pruning.pairs_verify", "count", "lower"),
    ("pruning.prune_ratio", "ratio", "higher"),
    ("verify.s", "s", "lower"),
    ("verify.calls", "count", "lower"),
    ("verify.evaluations", "count", "lower"),
    ("verify.positions_touched", "count", "lower"),
    ("verify.early_stops", "count", "higher"),
    ("verify.hit_ratio", "ratio", "higher"),
    ("solver.index_s", "s", "lower"),
    ("solver.pruning_s", "s", "lower"),
    ("solver.nib_s", "s", "lower"),
    ("solver.verification_s", "s", "lower"),
    ("solver.greedy_s", "s", "lower"),
    ("solver.glue_s", "s", "lower"),
    ("table.build_s", "s", "lower"),
    ("csr.build_s", "s", "lower"),
    ("csr.restrict_s", "s", "lower"),
    ("csr.restrict_calls", "count", "lower"),
    ("csr.patch_s", "s", "lower"),
    ("select.s", "s", "lower"),
    ("select.calls", "count", "lower"),
    ("select.evaluations_per_round", "count", "lower"),
    ("capture.build_s", "s", "lower"),
    ("capture.select_s", "s", "lower"),
    ("capture.select_calls", "count", "lower"),
    ("cache.lookup_s", "s", "lower"),
    ("cache.result_hit_ratio", "ratio", "higher"),
    ("cache.prepared_hit_ratio", "ratio", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("prepared.build_s", "s", "lower"),
    ("prepared.patch_s", "s", "lower"),
    ("prepared.select_s", "s", "lower"),
    ("scheduler.wait_p50_ms", "ms", "lower"),
    ("scheduler.rejected", "count", "lower"),
    ("engine.self_s", "s", "lower"),
    ("streaming.update_s", "s", "lower"),
    ("streaming.events", "count", "higher"),
    ("trace.residual_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

Span = Tuple[int, int, str, float, float]


class SpanRecorder:
    """In-memory span store plus the counters the wrappers collect.

    ``enabled`` gates recording: wrappers installed by
    :func:`instrumented` call straight through while it is false, which
    keeps reference checks out of the per-layer numbers.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.sums: Dict[str, float] = defaultdict(float)
        self.stats_objects: Dict[str, Dict[int, Any]] = defaultdict(dict)

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def add(self, key: str, value: float) -> None:
        """Accumulate a counter (thread-safe)."""
        with self._lock:
            self.sums[key] += value

    def keep(self, kind: str, obj: Any) -> None:
        """Remember a live counter object to read at the end of the run."""
        with self._lock:
            self.stats_objects[kind][id(obj)] = obj

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Stop recording for the block (reference checks inside a run)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record ``name`` around the block (no-op while disabled)."""
        if not self.enabled:
            yield 0
            return
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[["SpanRecorder", tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        """A call-through wrapper recording one ``name`` span per call."""
        rec = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not rec.enabled:
                return fn(*args, **kwargs)
            stack = rec._stack()
            parent = stack[-1] if stack else 0
            sid = next(rec._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                rec.spans.append((sid, parent, name, t0, t1))
            if on_result is not None:
                on_result(rec, args, out)
            return out

        return traced

    def wrap_submit(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``QueryScheduler.submit`` to link worker spans to the caller.

        Records a ``scheduler.wait`` span from the submit call to the
        moment a worker thread starts the query, then runs the query with
        the submitting span as its parent.
        """
        rec = self

        @functools.wraps(fn)
        def submit(sched: Any, work: Callable[..., Any], token: Any) -> Any:
            if not rec.enabled:
                return fn(sched, work, token)
            parent = rec.current()
            t_submit = time.perf_counter()

            def run(tok: Any) -> Any:
                t_start = time.perf_counter()
                rec.spans.append(
                    (next(rec._ids), parent, "scheduler.wait", t_submit, t_start)
                )
                stack = rec._stack()
                stack.append(parent)
                try:
                    return work(tok)
                finally:
                    stack.pop()

            return fn(sched, run, token)

        return submit

    # ------------------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self seconds and call count."""
        child: Dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for sid, _, name, t0, t1 in self.spans:
            self_s[name] += max(0.0, (t1 - t0) - child.get(sid, 0.0))
            calls[name] += 1
        return self_s, calls

    def durations(self, name: str) -> List[float]:
        return [t1 - t0 for _, _, n, t0, t1 in self.spans if n == name]


# ----------------------------------------------------------------------
# Result hooks: read the counters public calls already return
# ----------------------------------------------------------------------
def _keep_tree_stats(rec: SpanRecorder, args: tuple, out: Any) -> None:
    rec.keep("iquadtree", args[0].stats)


def _keep_eval_stats(rec: SpanRecorder, args: tuple, out: Any) -> None:
    rec.keep("evaluation", args[0].stats)


def _count_hits(rec: SpanRecorder, args: tuple, out: Any) -> None:
    rec.add("verify.hits", int(out.sum()))
    rec.add("verify.decided", int(out.size))


def _solver_result(rec: SpanRecorder, args: tuple, out: Any) -> None:
    for phase, seconds in out.timings.items():
        rec.add(f"solver.timing.{phase}", seconds)
    if out.pruning is not None:
        rec.add("pruning.confirmed", out.pruning.confirmed)
        rec.add("pruning.pruned", out.pruning.pruned)
        rec.add("pruning.verify", out.pruning.verify)


def _select_outcome(rec: SpanRecorder, args: tuple, out: Any) -> None:
    rec.add("select.evaluations", out.evaluations)
    rec.add("select.rounds", len(out.selected))


def _targets() -> List[Tuple[Any, str, str, Any]]:
    """(owner, attribute, span name, result hook) for every wrapped call."""
    from repro.capture import registry
    from repro.capture import select as capture_select
    from repro.competition.table import InfluenceTable
    from repro.data import synthetic
    from repro.influence.batch import BatchInfluenceEvaluator, PositionArena
    from repro.pruning.rules import PinocchioPruner
    from repro.service import engine, prepared, snapshot
    from repro.service.cache import LRUCache
    from repro.solvers import selection
    from repro.solvers.coverage import CoverageMatrix
    from repro.solvers.iqt import IQTSolver
    from repro.spatial.iquadtree import IQuadTree
    from repro.streaming.dynamic import StreamingMC2LS

    return [
        (synthetic, "generate_population", "data.generate", None),
        (synthetic.SyntheticPopulation, "dataset", "data.dataset", None),
        (snapshot, "dataset_content_hash", "snapshot.hash", None),
        (snapshot.DatasetSnapshot, "__init__", "snapshot.build", None),
        (snapshot.DatasetSnapshot, "from_streaming", "snapshot.from_streaming", None),
        (PositionArena, "from_users", "arena.build", None),
        (IQuadTree, "__init__", "iquadtree.build", _keep_tree_stats),
        (IQuadTree, "traverse", "iquadtree.traverse", None),
        (PinocchioPruner, "classify_user", "pruning.nib", None),
        (BatchInfluenceEvaluator, "__init__", "verify.setup", _keep_eval_stats),
        (BatchInfluenceEvaluator, "influences_users", "verify.users", _count_hits),
        (
            BatchInfluenceEvaluator,
            "influences_facilities",
            "verify.facilities",
            _count_hits,
        ),
        (IQTSolver, "solve", "solver.solve", _solver_result),
        (IQTSolver, "resolve", "solver.resolve", _solver_result),
        (InfluenceTable, "__init__", "table.build", None),
        (InfluenceTable, "from_mappings", "table.build", None),
        (InfluenceTable, "restricted", "table.restrict", None),
        (CoverageMatrix, "__init__", "csr.build", None),
        (CoverageMatrix, "restrict", "csr.restrict", None),
        (CoverageMatrix, "patched", "csr.patch", None),
        (CoverageMatrix, "select", "select.csr", _select_outcome),
        (selection, "run_selection", "select.run", None),
        (registry.CaptureSpec, "build", "capture.build", None),
        (capture_select, "capture_select", "capture.select", None),
        (LRUCache, "get", "cache.get", None),
        (LRUCache, "get_or_create", "cache.get_or_create", None),
        (prepared.PreparedInstance, "__init__", "prepared.build", None),
        (prepared.PreparedInstance, "patched", "prepared.patch", None),
        (prepared.PreparedInstance, "select", "prepared.select", None),
        (engine.SelectionEngine, "execute", "engine.execute", None),
        (engine.SelectionEngine, "publish", "engine.publish", None),
        (StreamingMC2LS, "update_user", "streaming.update", None),
        (StreamingMC2LS, "add_user", "streaming.add", None),
        (StreamingMC2LS, "remove_user", "streaming.remove", None),
    ]


@contextmanager
def instrumented(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the wrappers for the duration of the block.

    Module-level functions are also replaced in every loaded ``repro``
    module that imported them by name, so calls through those aliases
    are traced too.
    """
    from repro.service.scheduler import QueryScheduler

    undo: List[Tuple[Any, str, Any]] = []

    def install(owner: Any, attr: str, replacement: Any) -> None:
        undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name, hook in _targets():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                install(owner, attr, staticmethod(rec.wrap(name, raw.__func__, hook)))
            elif isinstance(raw, classmethod):
                install(owner, attr, classmethod(rec.wrap(name, raw.__func__, hook)))
            elif inspect.ismodule(owner):
                wrapped = rec.wrap(name, raw, hook)
                for mod in list(sys.modules.values()):
                    modname = getattr(mod, "__name__", "")
                    if modname.startswith("repro") and getattr(mod, attr, None) is raw:
                        install(mod, attr, wrapped)
            else:
                install(owner, attr, rec.wrap(name, raw, hook))
        install(
            QueryScheduler,
            "submit",
            rec.wrap_submit(inspect.getattr_static(QueryScheduler, "submit")),
        )
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _layer_self(self_s: Dict[str, float], prefix: str) -> float:
    return sum(v for k, v in self_s.items() if k.startswith(prefix))


def layer_metrics(
    rec: SpanRecorder, public: Dict[str, float], overhead_frac: float
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the spans and public counters.

    ``public`` carries the counters the workload read from the library's
    own stats (engine caches, scheduler, streaming events);
    layers a workload never calls report 0.
    """
    self_s, calls = rec.self_times()
    sums = rec.sums
    trees = list(rec.stats_objects["iquadtree"].values())
    evals = list(rec.stats_objects["evaluation"].values())
    pairs = sums["pruning.confirmed"] + sums["pruning.pruned"] + sums["pruning.verify"]
    waits = [d * 1e3 for d in rec.durations("scheduler.wait")]
    rounds = sums["select.rounds"]
    out = {
        "data.generate_s": self_s["data.generate"],
        "data.dataset_s": self_s["data.dataset"],
        "snapshot.hash_s": self_s["snapshot.hash"],
        "snapshot.hash_calls": calls["snapshot.hash"],
        "snapshot.from_streaming_s": self_s["snapshot.from_streaming"],
        "arena.build_s": self_s["arena.build"],
        "iquadtree.build_s": self_s["iquadtree.build"],
        "iquadtree.traverse_s": self_s["iquadtree.traverse"],
        "iquadtree.traversals": sum(t.traversals for t in trees),
        "iquadtree.leaf_cache_hits": sum(t.leaf_cache_hits for t in trees),
        "iquadtree.pairs_to_verify": sum(t.pairs_to_verify for t in trees),
        "pruning.nib_s": self_s["pruning.nib"],
        "pruning.nib_calls": calls["pruning.nib"],
        "pruning.pairs_confirmed": sums["pruning.confirmed"],
        "pruning.pairs_pruned": sums["pruning.pruned"],
        "pruning.pairs_verify": sums["pruning.verify"],
        "pruning.prune_ratio": sums["pruning.pruned"] / pairs if pairs else 0.0,
        "verify.s": _layer_self(self_s, "verify."),
        "verify.calls": calls["verify.users"] + calls["verify.facilities"],
        "verify.evaluations": sum(e.total_evaluations for e in evals),
        "verify.positions_touched": sum(e.positions_touched for e in evals),
        "verify.early_stops": sum(
            e.early_stops_positive + e.early_stops_negative for e in evals
        ),
        "verify.hit_ratio": (
            sums["verify.hits"] / sums["verify.decided"]
            if sums["verify.decided"]
            else 0.0
        ),
        "solver.index_s": sums["solver.timing.index"],
        "solver.pruning_s": sums["solver.timing.pruning"],
        "solver.nib_s": sums["solver.timing.nib"],
        "solver.verification_s": sums["solver.timing.verification"],
        "solver.greedy_s": sums["solver.timing.greedy"],
        "solver.glue_s": _layer_self(self_s, "solver."),
        "table.build_s": self_s["table.build"],
        "csr.build_s": self_s["csr.build"],
        "csr.restrict_s": self_s["csr.restrict"],
        "csr.restrict_calls": calls["csr.restrict"],
        "csr.patch_s": self_s["csr.patch"],
        "select.s": _layer_self(self_s, "select."),
        "select.calls": calls["select.csr"],
        "select.evaluations_per_round": (
            sums["select.evaluations"] / rounds if rounds else 0.0
        ),
        "capture.build_s": self_s["capture.build"],
        "capture.select_s": self_s["capture.select"],
        "capture.select_calls": calls["capture.select"],
        "cache.lookup_s": _layer_self(self_s, "cache."),
        "prepared.build_s": self_s["prepared.build"],
        "prepared.patch_s": self_s["prepared.patch"],
        "prepared.select_s": self_s["prepared.select"],
        "scheduler.wait_p50_ms": statistics.median(waits) if waits else 0.0,
        "engine.self_s": self_s["engine.execute"],
        "streaming.update_s": _layer_self(self_s, "streaming."),
        "trace.residual_s": sum(self_s[name] for name in ROOTS),
        "trace.overhead_frac": overhead_frac,
    }
    for name in (
        "cache.result_hit_ratio",
        "cache.prepared_hit_ratio",
        "cache.invalidations",
        "scheduler.rejected",
        "streaming.events",
    ):
        out[name] = public.get(name, 0.0)
    return out


def span_summary(rec: SpanRecorder) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds and total seconds."""
    self_s, calls = rec.self_times()
    total: Dict[str, float] = defaultdict(float)
    for _, _, name, t0, t1 in rec.spans:
        total[name] += t1 - t0
    return {
        name: {"calls": calls[name], "self_s": self_s[name], "total_s": total[name]}
        for name in sorted(calls)
    }
