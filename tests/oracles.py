"""Scalar reference oracles for the differential suites.

Each production phase runs one kernel: ``BatchInfluenceEvaluator``
verifies and ``CoverageMatrix`` (or a capture model's vectorised state)
selects.  The loops here decide the same pairs and pick the same sites
one scalar call at a time, the way the paper states the algorithms.
The suites assert that the production path equals them: influence
tables, ``EvaluationStats``, ``PruningStats``, selections, gains and
objective.  Verification oracles use the scalar full-scan evaluator
(``early_stopping=False``), the path the batched kernel mirrors decision
for decision and counter for counter.  The pruning oracle
(:func:`reference_is_nir`) splits users by the IS/NIR definitions over
all positions, without the IQuad-tree, so the tree's traversal can be
checked against something that does not share its code.

Nothing outside ``tests/`` imports this module.  The scalar greedy
(:func:`repro.solvers.greedy_select`) and the scalar evaluator
(:class:`repro.influence.InfluenceEvaluator`) stay in the library
because the ablation benchmarks time them.
"""

import math
from contextlib import contextmanager
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple
from unittest import mock

import numpy as np

from repro.capture import best_response
from repro.competition import EvenlySplitModel, InfluenceTable, cinf_group
from repro.influence import (
    BatchInfluenceEvaluator,
    InfluenceEvaluator,
    non_influence_radius,
    paper_default_pf,
    position_count_threshold_int,
)
from repro.pruning import PinocchioPruner, PruningStats
from repro.sketches import FMSketch
from repro.sketches.greedy import SketchedOutcome
from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    GreedyOutcome,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
    ResolvedInstance,
    Solver,
    SolverResult,
    greedy_select,
    run_selection,
)
from repro.solvers.capacitated import _assignment_value
from repro.spatial import IQuadTree
from repro.streaming import StreamingMC2LS

PF = paper_default_pf()


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def scalar_resolve_all_pairs(
    dataset, evaluator: InfluenceEvaluator
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """``resolve_all_pairs`` with one scalar decision per pair."""
    omega_c: Dict[int, Set[int]] = {c.fid: set() for c in dataset.candidates}
    f_o: Dict[int, Set[int]] = {u.uid: set() for u in dataset.users}
    for user in dataset.users:
        pos = user.positions
        for c in dataset.candidates:
            if evaluator.influences(c.x, c.y, pos):
                omega_c[c.fid].add(user.uid)
        for f in dataset.facilities:
            if evaluator.influences(f.x, f.y, pos):
                f_o[user.uid].add(f.fid)
    return omega_c, f_o


def scalar_patch_resolution(
    parent: ResolvedInstance,
    dataset,
    dirty_uids: Sequence[int],
    removed_uids: Sequence[int],
    tau: float,
    pf=PF,
) -> ResolvedInstance:
    """``patch_resolution`` with each dirty user decided pair by pair."""
    evaluator = InfluenceEvaluator(pf, tau, early_stopping=False)
    users = {u.uid: u for u in dataset.users}
    doomed = set(dirty_uids) | set(removed_uids)
    omega_c = {cid: uids - doomed for cid, uids in parent.table.omega_c.items()}
    f_o = {
        uid: set(fids) for uid, fids in parent.table.f_o.items() if uid not in doomed
    }
    for uid in dirty_uids:
        pos = users[uid].positions
        for c in dataset.candidates:
            if evaluator.influences(c.x, c.y, pos):
                omega_c[c.fid].add(uid)
        f_o[uid] = {
            f.fid for f in dataset.facilities if evaluator.influences(f.x, f.y, pos)
        }
    return ResolvedInstance(InfluenceTable(omega_c, f_o), evaluator.stats)


def reference_iqt_resolve(
    dataset,
    tau: float,
    pf=PF,
    variant: IQTVariant = IQTVariant.IQT,
    d_hat: float = 2.0,
    exact_rounded: bool = False,
    batch_verify: bool = False,
) -> ResolvedInstance:
    """The set-based IQT resolve with the per-user NIB loop.

    IS/NIR sets come from the IQuad-tree; NIB (and IA for IQT-PINO) runs
    as one ``PinocchioPruner.classify_user`` call per relevant user (an
    R-tree range query plus the scalar region tests); survivors are
    verified one scalar call per pair, or through the batched kernel
    when ``batch_verify`` is set.
    """
    evaluator = InfluenceEvaluator(pf, tau, early_stopping=False)
    tree = IQuadTree(
        dataset.arena,
        d_hat=d_hat,
        tau=tau,
        pf=pf,
        region=dataset.region,
        exact_rounded=exact_rounded,
    )
    facilities = dataset.abstract_facilities
    uids = dataset.arena.uids
    confirmed, to_verify = {}, {}
    for v in facilities:
        result = tree.traverse(v.x, v.y)
        confirmed[v] = frozenset(uids[result.influenced].tolist())
        to_verify[v] = set(uids[result.to_verify].tolist())

    if variant is not IQTVariant.IQT_C:
        use_ia = variant is IQTVariant.IQT_PINO
        pruners = [
            PinocchioPruner(dataset.candidates, tau, pf, use_ia=use_ia),
            PinocchioPruner(dataset.facilities, tau, pf, use_ia=use_ia),
        ]
        nib_possible = {v: set() for v in facilities}
        ia_confirmed = {v: set() for v in facilities}
        relevant = set().union(*to_verify.values())
        for user in dataset.users:
            if user.uid not in relevant:
                continue
            for pruner in pruners:
                result = pruner.classify_user(user)
                for v in result.verify:
                    nib_possible[v].add(user.uid)
                for v in result.confirmed:
                    ia_confirmed[v].add(user.uid)
        for v in facilities:
            to_verify[v] &= nib_possible[v] | ia_confirmed[v]
            to_verify[v] -= ia_confirmed[v]
            confirmed[v] = confirmed[v] | ia_confirmed[v]

    users_by_uid = {u.uid: u for u in dataset.users}
    arena = dataset.arena
    batch = BatchInfluenceEvaluator(pf, tau, stats=evaluator.stats)

    def verify(v, uids):
        if batch_verify:
            hit = batch.influences_users(v.x, v.y, arena, arena.rows_for(uids))
            return {uid for uid, h in zip(uids, hit) if h}
        return {
            uid
            for uid in uids
            if evaluator.influences(v.x, v.y, users_by_uid[uid].positions)
        }

    omega_c = {}
    for v in dataset.candidates:
        survivors = sorted(to_verify[v] - confirmed[v])
        omega_c[v.fid] = set(confirmed[v]) | verify(v, survivors)
    influenced = set().union(*omega_c.values())
    f_o = {u.uid: set() for u in dataset.users}
    for v in dataset.facilities:
        survivors = sorted((to_verify[v] - confirmed[v]) & influenced)
        for uid in set(confirmed[v]) | verify(v, survivors):
            f_o[uid].add(v.fid)

    n_pairs = len(dataset.users) * len(facilities)
    n_confirmed = sum(len(s) for s in confirmed.values())
    n_verify = sum(len(s) for s in to_verify.values())
    pruning = PruningStats(n_confirmed, n_pairs - n_confirmed - n_verify, n_verify)
    return ResolvedInstance(InfluenceTable(omega_c, f_o), evaluator.stats, pruning)


def reference_is_nir(
    arena,
    facility,
    d_hat: float,
    tau: float,
    pf,
    region,
    exact_rounded: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """The IS/NIR split of every user against one facility, by brute force.

    Works from the definitions over all positions, without the tree's
    sorted arrays or memoised node sets.  The region is squared up at its
    lower-left corner and cut into a ``2^depth`` grid whose leaf diagonal
    is at most ``d_hat``; positions and the facility are mapped to
    clipped cell indices.

    * IS-confirmed: users with at least ``η_l`` positions in the level-l
      node block on the facility's root→leaf path, for some level ``l``.
    * To verify: users with a position inside the facility's leaf rect
      grown by ``NIR`` (or inside the exact rounded square), minus the
      confirmed users.

    Returns the two sets as sorted arena-row arrays.
    """
    side = max(region.width, region.height)
    if side <= 0:
        side = d_hat
    depth = max(0, math.ceil(math.log2(side * math.sqrt(2.0) / d_hat)))
    grid = 1 << depth
    cell = side / grid
    n = len(arena)
    lengths = arena.lengths()
    owner = np.repeat(np.arange(n), lengths)
    x, y = arena.positions[:, 0], arena.positions[:, 1]

    def cells(coords, origin):
        raw = np.trunc((np.asarray(coords, dtype=float) - origin) / cell)
        return np.clip(raw, 0, grid - 1).astype(np.int64)

    ix, iy = cells(x, region.min_x), cells(y, region.min_y)
    fx, fy = int(cells(facility.x, region.min_x)), int(cells(facility.y, region.min_y))

    confirmed = np.zeros(n, dtype=bool)
    for level in range(depth + 1):
        shift = depth - level
        in_node = ((ix >> shift) == (fx >> shift)) & ((iy >> shift) == (fy >> shift))
        counts = np.bincount(owner[in_node], minlength=n)
        eta = position_count_threshold_int(
            tau, pf, side / (1 << level) * math.sqrt(2.0)
        )
        confirmed |= counts >= eta

    nir = non_influence_radius(tau, int(lengths.max()), pf)
    lx0 = region.min_x + fx * cell
    ly0 = region.min_y + fy * cell
    lx1, ly1 = lx0 + cell, ly0 + cell
    if exact_rounded:
        dx = np.maximum(np.maximum(lx0 - x, x - lx1), 0.0)
        dy = np.maximum(np.maximum(ly0 - y, y - ly1), 0.0)
        inside = dx * dx + dy * dy <= nir * nir
    else:
        inside = (x >= lx0 - nir) & (x <= lx1 + nir) & (y >= ly0 - nir) & (y <= ly1 + nir)
    reached = np.zeros(n, dtype=bool)
    reached[owner[inside]] = True
    return np.flatnonzero(confirmed), np.flatnonzero(reached & ~confirmed)


class ScalarStreamingMC2LS(StreamingMC2LS):
    """A streaming session that verifies interstitial pairs one at a time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._scalar = InfluenceEvaluator(
            self.pf, self.tau, early_stopping=False, stats=self._batch.stats
        )

    def _verify_interstitial(self, facilities, user) -> Set[int]:
        return {
            v.fid
            for v in facilities
            if self._scalar.influences(v.x, v.y, user.positions)
        }


def reference_resolve(
    solver: Solver, dataset, tau: float, pf=PF, batch_verify: bool = False
) -> ResolvedInstance:
    """``solver.resolve``, with scalar verification unless ``batch_verify``.

    k-CIFP verifies with the scalar evaluator in production already.
    """
    if batch_verify or isinstance(solver, AdaptedKCIFPSolver):
        return solver.resolve(dataset, tau, pf)
    if isinstance(solver, IQTSolver):
        return reference_iqt_resolve(
            dataset,
            tau,
            pf,
            variant=solver.variant,
            d_hat=solver.d_hat,
            exact_rounded=solver.exact_rounded,
        )
    if isinstance(solver, BaselineGreedySolver):
        evaluator = InfluenceEvaluator(pf, tau, early_stopping=False)
        omega_c, f_o = scalar_resolve_all_pairs(dataset, evaluator)
        return ResolvedInstance(InfluenceTable(omega_c, f_o), evaluator.stats)
    raise TypeError(f"no scalar resolve oracle for {type(solver).__name__}")


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def scalar_capture_greedy(
    table: InfluenceTable, candidate_ids: Sequence[int], k: int, model
) -> GreedyOutcome:
    """Recompute-every-round greedy over a capture model's scalar gain."""
    remaining = sorted(set(int(c) for c in candidate_ids))
    table.validate_against(set(remaining))
    selected: List[int] = []
    gains: List[float] = []
    evaluations = 0
    chosen: Set[int] = set()
    for _ in range(k):
        best_cid = None
        best_gain = -1.0
        for cid in remaining:
            gain = model.gain(table, chosen, cid)
            evaluations += 1
            if gain > best_gain:
                best_gain = gain
                best_cid = cid
        selected.append(best_cid)
        gains.append(best_gain)
        chosen.add(best_cid)
        remaining.remove(best_cid)
    return GreedyOutcome(tuple(selected), sum(gains), tuple(gains), evaluations)


def scalar_select(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    model=None,
    capture=None,
) -> GreedyOutcome:
    """``run_selection`` through the scalar greedies."""
    if capture is not None:
        if not capture.set_independent:
            return scalar_capture_greedy(table, candidate_ids, k, capture)
        model = capture.weight_model
    return greedy_select(table, candidate_ids, k, model=model)


def reference_solve(
    solver: Solver,
    problem: MC2LSProblem,
    batch_verify: bool = True,
    fast_select: bool = True,
) -> SolverResult:
    """``solver.solve`` with scalar oracles swapped in per phase.

    ``batch_verify=False`` resolves through :func:`reference_resolve`;
    ``fast_select=False`` selects through :func:`scalar_select`.  With
    both set this is the production ``solver.solve``.
    """
    if batch_verify and fast_select:
        return solver.solve(problem)
    resolved = reference_resolve(
        solver, problem.dataset, problem.tau, problem.pf, batch_verify
    )
    select = run_selection if fast_select else scalar_select
    outcome = select(
        resolved.table,
        [c.fid for c in problem.dataset.candidates],
        problem.k,
        capture=problem.capture,
    )
    return SolverResult(
        selected=outcome.selected,
        objective=outcome.objective,
        table=resolved.table,
        timings=resolved.timings,
        evaluation=resolved.evaluation,
        pruning=resolved.pruning,
        gains=outcome.gains,
    )


def enumerate_scalar(
    table: InfluenceTable, cids: Sequence[int], k: int
) -> Tuple[Tuple[int, ...], float]:
    """The exact solver's answer: scan every k-subset with ``cinf_group``."""
    best_group: Tuple[int, ...] = ()
    best_value = -1.0
    for group in combinations(sorted(cids), k):
        value = cinf_group(table, group)
        if value > best_value:
            best_value = value
            best_group = group
    return best_group, best_value


def _ratio_greedy(
    table: InfluenceTable,
    costs: Dict[int, float],
    budget: float,
    candidate_ids: Sequence[int],
) -> Tuple[List[int], List[float]]:
    model = EvenlySplitModel()
    selected: List[int] = []
    gains: List[float] = []
    covered: Set[int] = set()
    spent = 0.0
    remaining = [cid for cid in candidate_ids if costs[cid] <= budget]
    while remaining:
        best_cid = None
        best_ratio = -1.0
        best_gain = 0.0
        for cid in remaining:
            gain = model.candidate_value(table, cid, excluded=covered)
            ratio = gain / costs[cid]
            if ratio > best_ratio:
                best_ratio = ratio
                best_gain = gain
                best_cid = cid
        if best_cid is None or best_gain <= 0.0:
            break
        selected.append(best_cid)
        gains.append(best_gain)
        covered |= table.omega_c.get(best_cid, set())
        spent += costs[best_cid]
        remaining = [
            cid
            for cid in remaining
            if cid != best_cid and spent + costs[cid] <= budget
        ]
    return selected, gains


def _best_single(
    table: InfluenceTable,
    costs: Dict[int, float],
    budget: float,
    candidate_ids: Sequence[int],
) -> Optional[int]:
    model = EvenlySplitModel()
    affordable = [cid for cid in candidate_ids if costs[cid] <= budget]
    if not affordable:
        return None
    return max(affordable, key=lambda cid: (model.candidate_value(table, cid), -cid))


def scalar_budgeted_select(
    table: InfluenceTable,
    costs: Dict[int, float],
    budget: float,
    candidate_ids: Sequence[int],
) -> Tuple[Tuple[int, ...], Tuple[float, ...], float]:
    """The budgeted greedy: the better of the ratio greedy and the best
    affordable single site, as ``(selected, gains, objective)``."""
    model = EvenlySplitModel()
    cids = sorted(candidate_ids)
    ratio_sel, ratio_gains = _ratio_greedy(table, costs, budget, cids)
    ratio_value = model.group_value(table, ratio_sel)
    single = _best_single(table, costs, budget, cids)
    if single is not None:
        single_value = model.group_value(table, [single])
        if single_value > ratio_value:
            return (single,), (single_value,), single_value
    return tuple(ratio_sel), tuple(ratio_gains), ratio_value


def eager_capacitated_greedy(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    capacity: int,
) -> Tuple[Tuple[int, ...], Tuple[float, ...], float]:
    """Capacitated greedy evaluating every remaining candidate's
    marginal each round, as ``(selected, gains, objective)``."""
    weight = {
        uid: 1.0 / (table.competitor_count(uid) + 1)
        for users in table.omega_c.values()
        for uid in users
    }
    selected: List[int] = []
    gains: List[float] = []
    current_value = 0.0
    remaining = sorted(candidate_ids)
    for _ in range(k):
        best_cid = None
        best_value = current_value
        best_gain = -1.0
        for cid in remaining:
            value, _ = _assignment_value(table, selected + [cid], capacity, weight)
            gain = value - current_value
            if gain > best_gain:
                best_gain = gain
                best_value = value
                best_cid = cid
        gains.append(best_gain)
        current_value = best_value
        selected.append(best_cid)
        remaining.remove(best_cid)
    objective, _ = _assignment_value(table, selected, capacity, weight)
    return tuple(selected), tuple(gains), objective


def scalar_sketched_greedy(
    table: InfluenceTable,
    candidate_ids: Sequence[int],
    k: int,
    n_registers: int = 256,
    seed: int = 0,
) -> SketchedOutcome:
    """``sketched_coverage_greedy`` with one throwaway union sketch per
    evaluation."""
    sketches = {
        cid: FMSketch.of(table.omega_c.get(cid, ()), n_registers, seed)
        for cid in candidate_ids
    }
    remaining = sorted(candidate_ids)
    union = FMSketch(n_registers, seed)
    current = 0.0
    selected: List[int] = []
    gains: List[float] = []
    for _ in range(k):
        best_cid = None
        best_gain = 0.0
        for cid in remaining:
            gain = max(0.0, union.union(sketches[cid]).estimate() - current)
            if best_cid is None or gain > best_gain:
                best_gain = gain
                best_cid = cid
        selected.append(best_cid)
        gains.append(best_gain)
        union.union_update(sketches[best_cid])
        current = union.estimate()
        remaining.remove(best_cid)
    covered: Set[int] = set()
    for cid in selected:
        covered |= table.omega_c.get(cid, set())
    return SketchedOutcome(
        selected=tuple(selected),
        estimated_coverage=current,
        exact_coverage=len(covered),
        gains=tuple(gains),
    )


@contextmanager
def scalar_best_response() -> Iterator[None]:
    """Route every solve of ``best_response_round`` through the scalar
    greedies for the duration of the block."""

    def solve(table, candidate_ids, k, model, cancel_check):
        return scalar_select(table, candidate_ids, k, capture=model)

    with mock.patch.object(best_response, "_solve", solve):
        yield

