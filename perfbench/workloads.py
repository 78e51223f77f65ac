"""The three benchmark workloads and their correctness references.

Each workload is a closed loop: every caller of this in-process library
waits for its reply, so a client sends its next operation only after the
previous one returned.  A workload object goes through ``setup`` (timed
as ``setup_s``), ``sample_publish``, ``run`` (the timed phase),
``check`` (the reference comparison, outside every timed region) and
``close``.

The host this benchmark was tuned on changes its single-thread speed by
up to 1.8x, over periods from seconds to minutes.  Each workload
therefore spreads its samples over the whole run: cold-solve checks each
solve right after it returns and takes a republish sample there,
warm-serve pauses once a second for a republish sample, and churn-serve
publishes in every step.  None of this is timed.

Library entry points are looked up through their modules at call time
(``synthetic.generate_population``, not a name imported once), so the
span wrappers of a traced run see every call.

Why each workload exists, and which layers it stresses, is written down
in ``README.md`` beside this file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.capture import CaptureSpec
from repro.capture import select as capture_select_mod
from repro.competition import InfluenceTable
from repro.data import synthetic
from repro.entities import MovingUser, SpatialDataset
from repro.exceptions import EngineSaturatedError
from repro.influence import paper_default_pf
from repro.service import DatasetSnapshot, SelectionEngine, SelectionQuery
from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
)
from repro.solvers.selection import greedy_select
from repro.streaming import StreamingMC2LS

from tracing import SpanRecorder

Outcome = Tuple[Tuple[int, ...], Tuple[float, ...], float]


@dataclass
class Op:
    """One operation of the timed phase.

    ``kind`` is ``"query"`` (a solve or a served selection) or
    ``"publish"`` (a write made queryable); ``key`` is what the
    workload's reference needs to recompute the answer; ``error`` is
    ``"raised"`` or ``"refused"`` for an operation that returned none.
    """

    seq: int
    kind: str
    latency_s: float
    key: Any
    outcome: Optional[Outcome] = None
    error: str = ""
    detail: str = ""


def outcome_of(result: Any) -> Outcome:
    return (tuple(result.selected), tuple(result.gains), float(result.objective))


def prefix(ref: Any, k: int) -> Outcome:
    """The k-prefix of a greedy run: greedy round i never depends on k."""
    gains = tuple(ref.gains[:k])
    return (tuple(ref.selected[:k]), gains, sum(gains))


def timed_call(
    rec: SpanRecorder, root: str, fn: Any, *args: Any
) -> Tuple[float, Any, str, str]:
    """Run ``fn`` under a root span; (latency, result, error, detail).

    The benchmark is the boundary that must keep running, so any
    exception becomes a failed operation with its text kept for the
    report.
    """
    with rec.span(root):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
            err = detail = ""
        except EngineSaturatedError as exc:
            out, err, detail = None, "refused", repr(exc)
        except Exception as exc:  # noqa: BLE001 - counted, never hidden
            out, err, detail = None, "raised", repr(exc)
        latency = time.perf_counter() - t0
    return latency, out, err, detail


def run_units(seconds: float, unit: Any) -> float:
    """Run whole units until the boundary nearest ``seconds`` of timed work.

    ``unit()`` returns the seconds it spent in timed operations; work it
    does between them (reference checks) is not counted.  Whole units
    keep every run's mix of operations the same, so medians compare
    across runs.  Returns the total timed seconds.
    """
    timed = 0.0
    n = 0
    while True:
        timed += unit()
        n += 1
        if timed + 0.5 * timed / n >= seconds:
            return timed


def compare(op: Op, expected: Outcome) -> Optional[str]:
    """A mismatch description, or ``None`` when the answer is right."""
    if op.outcome == expected:
        return None
    return f"op {op.seq} {op.key!r}: got {op.outcome!r}, expected {expected!r}"


class Workload:
    """Shared plumbing; subclasses fill in setup/run/check."""

    name = ""

    #: Republish samples taken after each set-up and after the run.
    PUBLISH_SAMPLES = 3
    #: Highest tail percentile reported (see ``run.tail``).
    TAIL_CEILING = 99.9

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.warmup_ops = 0
        self.public: Dict[str, float] = {}
        self.mismatches: List[str] = []
        self.publish_s: List[float] = []
        self._seq = 0

    def next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def setup(self, rec: SpanRecorder) -> None:
        raise NotImplementedError

    def run(self, seconds: float, rec: SpanRecorder) -> Tuple[List[Op], float]:
        raise NotImplementedError

    def sample_publish(self, rec: SpanRecorder, repeats: int = PUBLISH_SAMPLES) -> None:
        """Time republishing the unchanged population (see README.md §3)."""
        self.publish_s += republish(self.engine, self.datasets, rec, repeats)

    def check(self, ops: Sequence[Op]) -> List[str]:
        """Mismatches against the reference (including those found in run)."""
        return self.mismatches

    def close(self) -> None:
        """Stop the engine's threads (also after a set-up that failed)."""
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()


def _engine_counters(engine: SelectionEngine) -> Dict[str, float]:
    s = engine.stats()
    return {
        "result_hits": s["result_cache"]["hits"],
        "result_misses": s["result_cache"]["misses"],
        "prepared_hits": s["prepared_cache"]["hits"],
        "prepared_misses": s["prepared_cache"]["misses"],
        "invalidations": s["result_cache"]["invalidations"]
        + s["prepared_cache"]["invalidations"],
        "rejected": s["scheduler"]["rejected"],
    }


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def engine_deltas(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-layer public counters over the timed phase."""
    d = {key: after[key] - before[key] for key in before}
    return {
        "cache.result_hit_ratio": _ratio(d["result_hits"], d["result_misses"]),
        "cache.prepared_hit_ratio": _ratio(d["prepared_hits"], d["prepared_misses"]),
        "cache.invalidations": d["invalidations"],
        "scheduler.rejected": d["rejected"],
    }


def republish(
    engine: SelectionEngine,
    datasets: Sequence[SpatialDataset],
    rec: SpanRecorder,
    repeats: int,
) -> List[float]:
    """Time publishing each dataset as a fresh snapshot, ``repeats`` times."""
    samples = []
    for _ in range(repeats):
        with rec.span("bench.publish"):
            t0 = time.perf_counter()
            for ds in datasets:
                engine.publish(DatasetSnapshot(ds))
            samples.append(time.perf_counter() - t0)
    return samples


# ----------------------------------------------------------------------
# cold-solve
# ----------------------------------------------------------------------
class ColdSolve(Workload):
    """One client calling ``IQTSolver().solve`` — the ``repro solve`` path.

    A cycle solves the C-like population at every τ and one N-like
    population per τ.  The N-like generator places four random activity
    clusters, and one layout can cost twice another (verified pairs
    ranged from 0.63M to 1.1M over seeds 1-10), so each run draws four
    N-like layouts instead of betting the whole run on one.
    """

    name = "cold-solve"
    TAUS = (0.3, 0.5, 0.7, 0.9)
    K = 10

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        self.n_c, self.n_n = (600, 300) if smoke else (10_000, 4_000)
        self.n_cand, self.n_fac = (20, 40) if smoke else (100, 200)

    def setup(self, rec: SpanRecorder) -> None:
        c = synthetic.generate_population(
            synthetic.california_spec(self.n_c), seed=self.seed
        )
        self.by_pop = {
            "C": c.dataset(self.n_cand, self.n_fac, seed=self.seed + 1, name="C-like")
        }
        for i in range(len(self.TAUS)):
            n = synthetic.generate_population(
                synthetic.new_york_spec(self.n_n), seed=self.seed + 10 + i
            )
            self.by_pop[f"N{i + 1}"] = n.dataset(
                self.n_cand, self.n_fac, seed=self.seed + 20 + i, name="N-like"
            )
        self.datasets = list(self.by_pop.values())
        for ds in self.datasets:
            ds.arena  # built once here, as every later solve reuses it
        # One discarded solve on a small slice loads every code path.
        head = self.by_pop["N1"]
        tiny = SpatialDataset.build(head.users[:200], head.facilities, head.candidates)
        IQTSolver().solve(MC2LSProblem(tiny, k=self.K, tau=0.7))
        self.warmup_ops = 1
        self.cycle = [
            (pop, tau)
            for i, tau in enumerate(self.TAUS)
            for pop in ("C", f"N{i + 1}")
        ]
        self.engine = SelectionEngine(max_workers=1)  # for publish samples only
        self.refs: Dict[Tuple[str, float], Outcome] = {}

    def _solve(self, pop: str, tau: float) -> Outcome:
        problem = MC2LSProblem(self.by_pop[pop], k=self.K, tau=tau)
        return outcome_of(IQTSolver().solve(problem))

    def _check(self, op: Op) -> None:
        """Reference: the exhaustive baseline solver on the same instance."""
        if op.error:
            return
        if op.key not in self.refs:
            pop, tau = op.key
            problem = MC2LSProblem(self.by_pop[pop], k=self.K, tau=tau)
            self.refs[op.key] = outcome_of(BaselineGreedySolver().solve(problem))
        msg = compare(op, self.refs[op.key])
        if msg:
            self.mismatches.append(msg)

    def run(self, seconds: float, rec: SpanRecorder) -> Tuple[List[Op], float]:
        ops: List[Op] = []

        def cycle() -> float:
            timed = 0.0
            for pop, tau in self.cycle:
                lat, out, err, detail = timed_call(rec, "bench.op", self._solve, pop, tau)
                ops.append(Op(self.next_seq(), "query", lat, (pop, tau), out, err, detail))
                timed += lat
                with rec.paused():
                    self._check(ops[-1])
                self.sample_publish(rec, 1)
            return timed

        return ops, run_units(seconds, cycle)

    def paper_shape(self) -> Dict[str, Any]:
        """Time the four paper solvers on one query per population.

        DESIGN.md §4 expects IQT > IQT-C > k-CIFP >> Baseline in speed.
        The verdict is information for the report, never a gate.
        """
        solvers = (
            ("baseline", BaselineGreedySolver),
            ("k-cifp", AdaptedKCIFPSolver),
            ("iqt-c", lambda: IQTSolver(variant=IQTVariant.IQT_C)),
            ("iqt", IQTSolver),
        )
        record: Dict[str, Any] = {"expected": "IQT > IQT-C > k-CIFP >> Baseline"}
        for pop in ("C", "N1"):
            ds = self.by_pop[pop]
            times: Dict[str, float] = {}
            selections = set()
            for name, make in solvers:
                problem = MC2LSProblem(ds, k=self.K, tau=0.7)
                t0 = time.perf_counter()
                result = make().solve(problem)
                times[name] = time.perf_counter() - t0
                selections.add(tuple(result.selected))
            # Margin: how many times slower each solver is than the one
            # the paper expects to beat it (> 1 where the order holds).
            margins = {
                "iqt-c/iqt": times["iqt-c"] / times["iqt"],
                "k-cifp/iqt-c": times["k-cifp"] / times["iqt-c"],
                "baseline/k-cifp": times["baseline"] / times["k-cifp"],
            }
            record[pop] = {
                "users": len(ds.users),
                "tau": 0.7,
                "times_s": times,
                "same_k_set": len(selections) == 1,
                "margins": margins,
                "order_holds": all(m > 1.0 for m in margins.values()),
                "iqt_vs_baseline": times["baseline"] / times["iqt"],
            }
        return record


# ----------------------------------------------------------------------
# warm-serve
# ----------------------------------------------------------------------
class QueryStream:
    """The deterministic warm-serve query sequence.

    Fresh queries come in blocks of ``GROUPS`` groups.  A group is one
    (capture, τ, candidate mask) and asks all ``k`` in ``1..k_max``; a
    block's keys are shuffled together.  Masks are random, so no fresh
    query repeats an earlier key and every result-cache hit comes from
    the ``REPEAT`` share, which re-asks a uniformly chosen earlier
    fresh query.  Unmasked queries are keyed by (τ, k) only, so they
    get one group per τ instead of a share of the mix (see README.md,
    "the hit/miss-median pitfall").
    """

    REPEAT = 0.25
    MNL = 0.05
    UNMASKED = 0.1
    GROUPS = 8

    def __init__(
        self,
        rng: np.random.Generator,
        candidate_ids: Sequence[int],
        taus: Sequence[float],
        capture: CaptureSpec,
    ) -> None:
        self.rng = rng
        self.cids = np.asarray(sorted(candidate_ids))
        self.mask_size = len(candidate_ids) // 2
        self.k_max = min(25, self.mask_size)
        self.taus = tuple(taus)
        self.capture = capture
        self.unmasked_left = set(self.taus)
        self.history: List[SelectionQuery] = []
        self.pending: List[Tuple[Optional[CaptureSpec], float, Any, int]] = []

    def _block(self) -> None:
        keys = []
        for _ in range(self.GROUPS):
            if self.rng.random() < self.MNL:
                capture, tau = self.capture, self.taus[-1]
            else:
                capture, tau = None, self.taus[int(self.rng.integers(len(self.taus)))]
            if (
                capture is None
                and tau in self.unmasked_left
                and self.rng.random() < self.UNMASKED
            ):
                mask = None
                self.unmasked_left.discard(tau)
            else:
                mask = tuple(
                    sorted(
                        self.rng.choice(self.cids, self.mask_size, replace=False).tolist()
                    )
                )
            keys.extend((capture, tau, mask, k) for k in range(1, self.k_max + 1))
        order = self.rng.permutation(len(keys))
        self.pending = [keys[i] for i in order[::-1]]

    def next(self) -> SelectionQuery:
        if self.history and self.rng.random() < self.REPEAT:
            return self.history[int(self.rng.integers(len(self.history)))]
        if not self.pending:
            self._block()
        capture, tau, mask, k = self.pending.pop()
        query = SelectionQuery(k=k, tau=tau, candidate_ids=mask, capture=capture)
        self.history.append(query)
        return query


class WarmServe(Workload):
    """One client calling ``engine.submit(q).result()`` on a warm engine.

    A second client on a 2-vCPU host gave no more queries per second (the
    GIL serialises them) and made every latency figure follow the host's
    load: whenever the host was busy, GIL hand-offs between the two
    engine threads doubled p99 and raised the median by a fifth.
    """

    name = "warm-serve"
    TAIL_CEILING = 99.0  # about 16k queries per 20 s run: p99 has 160 beyond
    TAUS = (0.5, 0.7)
    WARMUP_QUERIES = 50
    MNL = CaptureSpec(model="mnl", mnl_beta=1.0)
    #: Seconds of serving between two republish samples.
    PUBLISH_EVERY = 1.0

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        self.n_users = 800 if smoke else 10_000
        self.n_cand, self.n_fac = (20, 40) if smoke else (100, 200)

    def setup(self, rec: SpanRecorder) -> None:
        pop = synthetic.generate_population(
            synthetic.california_spec(self.n_users), seed=self.seed
        )
        self.dataset = pop.dataset(self.n_cand, self.n_fac, seed=self.seed + 1, name="C-like")
        self.datasets = [self.dataset]
        self.dataset.arena
        self.engine = SelectionEngine(DatasetSnapshot(self.dataset), max_workers=1)
        for tau in self.TAUS:
            self.engine.execute(SelectionQuery(k=10, tau=tau))
        self.engine.execute(SelectionQuery(k=10, tau=self.TAUS[-1], capture=self.MNL))
        cids = [c.fid for c in self.dataset.candidates]
        warm = QueryStream(
            np.random.default_rng([self.seed, 1]), cids, self.TAUS, self.MNL
        )
        for _ in range(self.WARMUP_QUERIES):
            self.engine.submit(warm.next()).result()
        self.warmup_ops = len(self.TAUS) + 1 + self.WARMUP_QUERIES
        self.stream = QueryStream(
            np.random.default_rng([self.seed, 2]), cids, self.TAUS, self.MNL
        )

    def _serve(self, query: SelectionQuery) -> Outcome:
        return outcome_of(self.engine.submit(query).result())

    def run(self, seconds: float, rec: SpanRecorder) -> Tuple[List[Op], float]:
        """Serve for ``seconds``, pausing every ``PUBLISH_EVERY`` s.

        At each pause one republish sample is taken with no query in
        flight.  The samples are so spread over the whole timed phase,
        and the pauses are not part of its timed wall time.
        """
        ops: List[Op] = []
        before = _engine_counters(self.engine)
        served = 0.0
        t0 = time.perf_counter()
        while True:
            query = self.stream.next()
            lat, out, err, detail = timed_call(rec, "bench.op", self._serve, query)
            ops.append(Op(self.next_seq(), "query", lat, query, out, err, detail))
            elapsed = time.perf_counter() - t0
            if elapsed >= self.PUBLISH_EVERY or served + elapsed >= seconds:
                served += elapsed
                if served >= seconds:
                    break
                self.sample_publish(rec, 1)
                t0 = time.perf_counter()
        self.public = engine_deltas(before, _engine_counters(self.engine))
        return ops, served

    def check(self, ops: Sequence[Op]) -> List[str]:
        """Reference: a direct solve of each query on the published dataset.

        Resolution is done once per τ by a fresh ``IQTSolver.resolve``
        (no engine, no cache); selection runs the scalar greedy (MNL: a
        fresh capture model's greedy) over the candidate-restricted
        table.  One greedy run to ``k_max`` per (capture, τ, mask)
        answers every ``k`` by its prefix.
        """
        pf = paper_default_pf()
        tables: Dict[float, InfluenceTable] = {}
        mnl_model = self.MNL.build(self.dataset, pf)
        all_ids = tuple(sorted(c.fid for c in self.dataset.candidates))
        k_max = self.stream.k_max
        refs: Dict[Tuple[Any, ...], Any] = {}
        bad = []
        for op in ops:
            if op.error:
                continue
            q: SelectionQuery = op.key
            group = (q.capture_spec.cache_key(), q.tau, q.candidate_ids)
            if group not in refs:
                if q.tau not in tables:
                    tables[q.tau] = IQTSolver().resolve(self.dataset, q.tau, pf).table
                ids = q.candidate_ids or all_ids
                table = tables[q.tau]
                if q.candidate_ids is not None:
                    table = table.restricted(set(ids))
                if q.capture_spec.is_default:
                    refs[group] = greedy_select(table, ids, k_max)
                else:
                    refs[group] = capture_select_mod.capture_select(
                        table, ids, k_max, mnl_model
                    )
            msg = compare(op, prefix(refs[group], q.k))
            if msg:
                bad.append(msg)
        return bad


# ----------------------------------------------------------------------
# churn-serve
# ----------------------------------------------------------------------
class ChurnServe(Workload):
    """One client interleaving streaming writes, publishes and queries."""

    name = "churn-serve"
    TAU = 0.7
    TAIL_CEILING = 95.0  # 750-1000 queries per 20 s run: p95 has 35 or more beyond
    CHURN = 0.01
    ADDS = 2
    REMOVES = 2
    JITTER_KM = 0.5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__(seed)
        self.n_users = 600 if smoke else 10_000
        self.n_cand, self.n_fac = (20, 40) if smoke else (100, 200)
        self.ks = tuple(k for k in (5, 10, 15, 20, 25) if k <= self.n_cand)

    def setup(self, rec: SpanRecorder) -> None:
        n_spare = max(40, self.n_users // 50)
        spec = synthetic.california_spec(self.n_users + n_spare)
        pop = synthetic.generate_population(spec, seed=self.seed)
        full = pop.dataset(self.n_cand, self.n_fac, seed=self.seed + 1, name="C-like")
        self.side = spec.side
        self.initial = SpatialDataset.build(
            full.users[: self.n_users], full.facilities, full.candidates, name="C-like"
        )
        self.spare = list(full.users[self.n_users :])
        self.session = StreamingMC2LS.from_dataset(self.initial, k=10, tau=self.TAU)
        self.engine = SelectionEngine(max_workers=1)
        self.engine.publish_streaming(self.session)
        self.engine.execute(SelectionQuery(k=10, tau=self.TAU))
        self.warmup_ops = 1
        self.users = {u.uid: u for u in self.initial.users}
        self.present = sorted(self.users)
        self.cids = np.asarray(sorted(c.fid for c in self.initial.candidates))
        self.rng = np.random.default_rng([self.seed, 3])
        self.steps: List[Tuple[List[MovingUser], List[MovingUser], List[int]]] = []

    def _write(
        self, moved: List[MovingUser], added: List[MovingUser], removed: List[int]
    ) -> None:
        for user in moved:
            self.session.update_user(user)
        for user in added:
            self.session.add_user(user)
        for uid in removed:
            self.session.remove_user(uid)
        self.engine.publish_streaming(self.session)

    def _draw_step(self) -> Tuple[List[MovingUser], List[MovingUser], List[int], Tuple[int, ...]]:
        m = max(1, round(self.CHURN * len(self.present)))
        picks = self.rng.choice(len(self.present), m + self.REMOVES, replace=False)
        moved = []
        for i in picks[:m]:
            uid = self.present[int(i)]
            pos = self.users[uid].positions
            new = pos + self.rng.normal(0.0, self.JITTER_KM, size=pos.shape)
            moved.append(MovingUser(uid, np.clip(new, 0.0, self.side)))
        removed = [self.present[int(i)] for i in picks[m:]]
        added = [self.spare.pop() for _ in range(min(self.ADDS, len(self.spare)))]
        mask = tuple(
            sorted(self.rng.choice(self.cids, len(self.cids) // 2, replace=False).tolist())
        )
        return moved, added, removed, mask

    def run(self, seconds: float, rec: SpanRecorder) -> Tuple[List[Op], float]:
        ops: List[Op] = []
        before = _engine_counters(self.engine)
        events_before = self.session.events_processed

        def step() -> float:
            moved, added, removed, mask = self._draw_step()
            index = len(self.steps)
            lat, _, err, detail = timed_call(
                rec, "bench.publish", self._write, moved, added, removed
            )
            ops.append(Op(self.next_seq(), "publish", lat, index, None, err, detail))
            self.publish_s.append(lat)
            timed = lat
            self.steps.append((moved, added, removed))
            for user in moved + added:
                self.users[user.uid] = user
            for uid in removed:
                del self.users[uid]
            self.present = sorted(self.users)
            burst = [SelectionQuery(k=k, tau=self.TAU) for k in self.ks]
            burst.append(SelectionQuery(k=10, tau=self.TAU, candidate_ids=mask))
            for q in burst:
                lat, out, err, detail = timed_call(rec, "bench.op", self.engine.execute, q)
                ops.append(
                    Op(self.next_seq(), "query", lat, (index, q),
                       outcome_of(out) if out is not None else None, err, detail)
                )
                timed += lat
            return timed

        timed = run_units(seconds, step)
        self.public = engine_deltas(before, _engine_counters(self.engine))
        self.public["streaming.events"] = self.session.events_processed - events_before
        return ops, timed

    def sample_publish(self, rec: SpanRecorder, repeats: int = 0) -> None:
        """Churn-serve's publish samples are its timed write steps."""

    def _oracle(self, sites: np.ndarray, positions: np.ndarray, pf: Any) -> np.ndarray:
        """Definition 2 evaluated directly: Π(1 − PF(d)) <= 1 − τ per site."""
        d = np.sqrt(
            (positions[None, :, 0] - sites[:, None, 0]) ** 2
            + (positions[None, :, 1] - sites[:, None, 1]) ** 2
        )
        return np.prod(1.0 - pf(d), axis=1) <= 1.0 - self.TAU

    def check(self, ops: Sequence[Op]) -> List[str]:
        """Reference: the published dataset's solve, maintained per step.

        Starts from a direct ``IQTSolver.resolve`` of the first published
        dataset; each step's written users are re-decided from the
        influence definition itself, so the reference shares no code with
        the streaming session, the patch path or the engine caches.  The
        final reference must equal a direct resolve of
        ``session.current_dataset()``.
        """
        pf = paper_default_pf()
        cands = sorted(self.initial.candidates, key=lambda c: c.fid)
        facs = list(self.initial.facilities)
        cand_xy = np.array([[c.x, c.y] for c in cands])
        fac_xy = np.array([[f.x, f.y] for f in facs])
        cand_ids = np.array([c.fid for c in cands])
        fac_ids = np.array([f.fid for f in facs])
        start = IQTSolver().resolve(self.initial, self.TAU, pf).table
        omega = {cid: set(users) for cid, users in start.omega_c.items()}
        f_o = {uid: set(fids) for uid, fids in start.f_o.items()}
        covering: Dict[int, set] = {}
        for cid, users in omega.items():
            for uid in users:
                covering.setdefault(uid, set()).add(cid)
        queries: Dict[int, List[Op]] = {}
        for op in ops:
            if op.kind == "query" and not op.error:
                queries.setdefault(op.key[0], []).append(op)
        bad = []
        all_ids = tuple(int(c) for c in cand_ids)
        for index, (moved, added, removed) in enumerate(self.steps):
            for uid in [u.uid for u in moved] + removed:
                for cid in covering.pop(uid, ()):
                    omega[cid].discard(uid)
                f_o.pop(uid, None)
            for user in moved + added:
                cov = {int(c) for c in cand_ids[self._oracle(cand_xy, user.positions, pf)]}
                for cid in cov:
                    omega[cid].add(user.uid)
                covering[user.uid] = cov
                f_o[user.uid] = {
                    int(f) for f in fac_ids[self._oracle(fac_xy, user.positions, pf)]
                }
            table = InfluenceTable(omega, f_o)
            full = None
            for op in queries.get(index, []):
                q = op.key[1]
                if q.candidate_ids is None:
                    if full is None:
                        full = greedy_select(table, all_ids, max(self.ks))
                    ref = prefix(full, q.k)
                else:
                    ids = q.candidate_ids
                    ref = prefix(greedy_select(table.restricted(set(ids)), ids, q.k), q.k)
                msg = compare(op, ref)
                if msg:
                    bad.append(msg)
        # f_o is only complete for covered users: the solver skips
        # competitor checks for users no candidate influences.
        final = IQTSolver().resolve(self.session.current_dataset(), self.TAU, pf).table
        covered = [uid for uid, cids in covering.items() if cids]
        if final.omega_c != omega or any(final.f_o[u] != f_o[u] for u in covered):
            bad.append("maintained reference diverged from a direct solve of the final dataset")
        return bad


WORKLOADS = {cls.name: cls for cls in (ColdSolve, WarmServe, ChurnServe)}
