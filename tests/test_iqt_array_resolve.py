"""The array-native IQT resolve equals the per-user PINOCCHIO pipeline.

``IQTSolver`` carries pair sets as sorted arena-row arrays and runs NIB
as one numpy pass per facility.  The reference below is the set-based
pipeline it replaced: IS/NIR sets from the IQuad-tree, then one
``PinocchioPruner.classify_user`` call per relevant user (R-tree range
query plus the scalar NIB/IA tests), then verification.  Every variant,
with both verification kernels, must produce the same influence table,
the same pruning and evaluation counters, and the same selection, gains
and objective — and select what the exhaustive baseline selects.
"""

import dataclasses

import pytest

from repro.competition import InfluenceTable
from repro.data import synthetic
from repro.influence import (
    BatchInfluenceEvaluator,
    InfluenceEvaluator,
    paper_default_pf,
)
from repro.pruning import PinocchioPruner, PruningStats
from repro.solvers import BaselineGreedySolver, IQTSolver, MC2LSProblem
from repro.solvers.iqt import IQTVariant
from repro.solvers.selection import run_selection
from repro.spatial import IQuadTree

PF = paper_default_pf()
K = 5


def _reference_resolve(dataset, tau, variant, batch_verify):
    """The set-based IQT resolve with the per-user NIB loop."""
    evaluator = InfluenceEvaluator(PF, tau, early_stopping=True)
    tree = IQuadTree(dataset.users, d_hat=2.0, tau=tau, pf=PF, region=dataset.region)
    facilities = dataset.abstract_facilities
    confirmed, to_verify = {}, {}
    for v in facilities:
        result = tree.traverse(v.x, v.y)
        confirmed[v] = result.influenced
        to_verify[v] = set(result.to_verify)

    if variant is not IQTVariant.IQT_C:
        use_ia = variant is IQTVariant.IQT_PINO
        pruners = [
            PinocchioPruner(dataset.candidates, tau, PF, use_ia=use_ia),
            PinocchioPruner(dataset.facilities, tau, PF, use_ia=use_ia),
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
    batch = BatchInfluenceEvaluator(PF, tau, early_stopping=True, stats=evaluator.stats)

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
    return InfluenceTable(omega_c, f_o), pruning, evaluator.stats


@pytest.fixture(scope="module")
def datasets():
    c = synthetic.generate_population(synthetic.california_spec(700), seed=3)
    n = synthetic.generate_population(synthetic.new_york_spec(400), seed=4)
    return {
        "C-like": c.dataset(20, 40, seed=5, name="C-like"),
        "N-like": n.dataset(20, 40, seed=6, name="N-like"),
    }


@pytest.mark.parametrize("pop", ["C-like", "N-like"])
@pytest.mark.parametrize("tau", [0.3, 0.9])
@pytest.mark.parametrize("variant", list(IQTVariant))
@pytest.mark.parametrize("batch_verify", [True, False])
def test_resolve_and_solve_equal_the_per_user_reference(
    datasets, pop, tau, variant, batch_verify
):
    dataset = datasets[pop]
    table, pruning, evaluation = _reference_resolve(dataset, tau, variant, batch_verify)
    solver = IQTSolver(variant=variant, batch_verify=batch_verify)

    resolved = solver.resolve(dataset, tau, PF)
    assert resolved.table.omega_c == table.omega_c
    assert resolved.table.f_o == table.f_o
    assert resolved.pruning == pruning
    assert dataclasses.asdict(resolved.evaluation) == dataclasses.asdict(evaluation)
    if variant is not IQTVariant.IQT_C:
        assert pruning.verify > 0  # NIB had pairs to decide

    result = solver.solve(MC2LSProblem(dataset, k=K, tau=tau))
    expected = run_selection(table, [c.fid for c in dataset.candidates], K)
    assert result.selected == expected.selected
    assert result.gains == expected.gains
    assert result.objective == expected.objective
    assert result.pruning == pruning
    assert dataclasses.asdict(result.evaluation) == dataclasses.asdict(evaluation)

    baseline = BaselineGreedySolver().solve(MC2LSProblem(dataset, k=K, tau=tau))
    assert result.selected == baseline.selected


@pytest.mark.parametrize("tau", [0.3, 0.9])
def test_ia_rule_confirms_pairs_on_the_n_like_population(datasets, tau):
    """The IQT-PINO cases above exercise the IA branch, not just NIB."""
    dataset = datasets["N-like"]
    with_ia = IQTSolver(variant=IQTVariant.IQT_PINO).resolve(dataset, tau, PF)
    without = IQTSolver(variant=IQTVariant.IQT).resolve(dataset, tau, PF)
    assert with_ia.pruning.confirmed > without.pruning.confirmed
    assert with_ia.pruning.pruned == without.pruning.pruned
