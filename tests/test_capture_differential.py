"""Property-based differential suite for the capture subsystem.

Two pinned contracts:

* **Degenerate-case bit-identity** — evenly-split routed through the
  new :class:`~repro.capture.CaptureModel` contract produces *the same
  bits* (selections, per-round gains, objective, evaluation counters'
  observable outputs) as the legacy no-capture path, across solvers,
  with the legacy side also run through the scalar verification and
  selection oracles of ``tests/oracles.py``.  This is what makes the subsystem a refactor-safe
  extension point rather than a fork of the objective.
* **Set-aware sanity** — the vectorized CELF path agrees with the
  scalar reference oracle, and MNL greedy gains are monotone
  non-increasing per round (the submodularity CELF relies on).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import paper_default_pf
from repro.capture import (
    FixedWorldsCaptureModel,
    MNLCaptureModel,
    SiteUtilities,
    capture_select,
    evenly_split_capture,
)
from repro.competition import InfluenceTable
from repro.influence import BatchInfluenceEvaluator
from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    IQTSolver,
    MC2LSProblem,
    run_selection,
)
from repro.solvers.base import resolve_all_pairs
from tests.conftest import build_instance
from tests.oracles import reference_solve, scalar_capture_greedy

SOLVER_FACTORIES = {
    "baseline": BaselineGreedySolver,
    "k-cifp": AdaptedKCIFPSolver,
    "iqt": IQTSolver,
}


def _table_for(dataset, tau=0.7):
    ev = BatchInfluenceEvaluator(paper_default_pf(), tau)
    omega_c, f_o = resolve_all_pairs(dataset, ev)
    return InfluenceTable.from_mappings(omega_c, f_o), sorted(omega_c)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=5),
    solver_name=st.sampled_from(sorted(SOLVER_FACTORIES)),
    fast_select=st.booleans(),
    batch_verify=st.booleans(),
)
def test_evenly_split_capture_bit_identical_to_legacy(
    seed, k, solver_name, fast_select, batch_verify
):
    dataset = build_instance(
        seed=seed, n_users=30, n_candidates=max(8, k + 3), n_facilities=6
    )
    solver = SOLVER_FACTORIES[solver_name]()
    legacy = reference_solve(
        solver, MC2LSProblem(dataset, k=k, tau=0.7), batch_verify, fast_select
    )
    via_capture = solver.solve(
        MC2LSProblem(dataset, k=k, tau=0.7, capture=evenly_split_capture())
    )
    assert via_capture.selected == legacy.selected
    assert via_capture.gains == legacy.gains
    assert via_capture.objective == legacy.objective


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=5),
    beta=st.floats(min_value=0.25, max_value=4.0),
)
def test_mnl_fast_matches_scalar_oracle_and_gains_decrease(seed, k, beta):
    dataset = build_instance(
        seed=seed, n_users=30, n_candidates=max(8, k + 3), n_facilities=6
    )
    table, cids = _table_for(dataset)
    model = MNLCaptureModel(SiteUtilities(dataset, paper_default_pf()), beta=beta)
    fast = capture_select(table, cids, k, model)
    slow = scalar_capture_greedy(table, cids, k, model)
    assert fast.selected == slow.selected
    assert fast.objective == pytest.approx(slow.objective, abs=1e-9)
    for a, b in zip(fast.gains, fast.gains[1:]):
        assert b <= a + 1e-12  # CELF precondition: non-increasing gains
    # CELF must evaluate no more than the rescan loop.
    assert fast.evaluations <= slow.evaluations


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=4),
    worlds=st.integers(min_value=1, max_value=64),
    world_seed=st.integers(min_value=0, max_value=2**32),
)
def test_fixed_worlds_fast_matches_scalar_oracle(seed, k, worlds, world_seed):
    dataset = build_instance(
        seed=seed, n_users=25, n_candidates=max(8, k + 3), n_facilities=5
    )
    table, cids = _table_for(dataset)
    model = FixedWorldsCaptureModel(
        SiteUtilities(dataset, paper_default_pf()),
        n_worlds=worlds,
        seed=world_seed,
    )
    fast = capture_select(table, cids, k, model)
    slow = scalar_capture_greedy(table, cids, k, model)
    assert fast.selected == slow.selected
    assert fast.objective == pytest.approx(slow.objective, abs=1e-9)
    for a, b in zip(fast.gains, fast.gains[1:]):
        assert b <= a + 1e-12


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    k=st.integers(min_value=1, max_value=4),
)
def test_run_selection_capture_dispatch_matches_direct(seed, k):
    """run_selection(capture=...) equals calling capture_select directly."""
    dataset = build_instance(seed=seed, n_users=25, n_candidates=8, n_facilities=5)
    table, cids = _table_for(dataset)
    model = MNLCaptureModel(SiteUtilities(dataset, paper_default_pf()), beta=2.0)
    via_dispatch = run_selection(table, cids, k, capture=model)
    direct = capture_select(table, cids, k, model)
    assert via_dispatch == direct


def test_evenly_split_capture_bit_identical_on_sharded_arrays():
    """Evenly-split through the capture contract densifies to the exact
    CSR weights the sharded kernels consume (weights are the seam the
    coordinator hardcodes)."""
    import numpy as np

    from repro.solvers.coverage import CoverageMatrix

    dataset = build_instance(seed=5, n_users=40, n_candidates=12, n_facilities=8)
    table, cids = _table_for(dataset)
    legacy = CoverageMatrix(table, cids)
    via = CoverageMatrix(table, cids, model=evenly_split_capture().weight_model)
    np.testing.assert_array_equal(legacy.weights, via.weights)
    np.testing.assert_array_equal(legacy.user_ids, via.user_ids)
    np.testing.assert_array_equal(legacy.indptr, via.indptr)
    np.testing.assert_array_equal(legacy.col, via.col)
