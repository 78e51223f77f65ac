"""The array-native IQT resolve equals the per-user PINOCCHIO pipeline.

``IQTSolver`` carries pair sets as sorted arena-row arrays and runs NIB
as one numpy pass per facility.  The reference
(``tests.oracles.reference_iqt_resolve``) is the set-based pipeline it
replaced: IS/NIR sets from the IQuad-tree, then one
``PinocchioPruner.classify_user`` call per relevant user (R-tree range
query plus the scalar NIB/IA tests), then verification, scalar or
batched.  Every variant, against either reference verification, must
produce the same influence table,
the same pruning and evaluation counters, and the same selection, gains
and objective — and select what the exhaustive baseline selects.
"""

import dataclasses

import pytest

from repro.data import synthetic
from repro.solvers import BaselineGreedySolver, IQTSolver, MC2LSProblem
from repro.solvers.iqt import IQTVariant
from repro.solvers.selection import run_selection
from tests.oracles import PF, reference_iqt_resolve

K = 5


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
    reference = reference_iqt_resolve(
        dataset, tau, variant=variant, batch_verify=batch_verify
    )
    table, pruning, evaluation = (
        reference.table, reference.pruning, reference.evaluation
    )
    solver = IQTSolver(variant=variant)

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
