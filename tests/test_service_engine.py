"""The serving engine: differential identity, caching, deadlines, admission.

The core acceptance property: every engine result is **bit-identical**
(selection order, per-round gains, objective) to the corresponding direct
``Solver.solve`` call, across all supported solvers, with and without
candidate masks — and equal to the scalar verification and selection
oracles of ``tests/oracles.py`` on the same instance.
"""

import itertools

import pytest

from repro.exceptions import (
    DeadlineExceededError,
    EngineSaturatedError,
    QueryCancelledError,
    ServiceError,
    SolverError,
)
from repro.service import (
    SOLVER_FACTORIES,
    CancelToken,
    SelectionEngine,
    SelectionQuery,
)
from repro.solvers import MC2LSProblem

from .conftest import build_instance
from .oracles import reference_solve


@pytest.fixture(scope="module")
def dataset():
    return build_instance(seed=11, n_users=40, n_candidates=14, n_facilities=10)


@pytest.fixture()
def engine(dataset):
    eng = SelectionEngine(dataset, max_workers=2, max_queued=16)
    yield eng
    eng.shutdown()


class TestDifferentialIdentity:
    @pytest.mark.parametrize("solver_name", sorted(SOLVER_FACTORIES))
    @pytest.mark.parametrize(
        "batch_verify,fast_select", list(itertools.product([True, False], repeat=2))
    )
    def test_engine_matches_direct_solve(
        self, engine, dataset, solver_name, batch_verify, fast_select
    ):
        """``batch_verify`` / ``fast_select`` off swap the direct solve's
        verification / selection for the scalar oracles."""
        served = engine.execute(SelectionQuery(k=4, tau=0.6, solver=solver_name))
        direct = reference_solve(
            SOLVER_FACTORIES[solver_name](),
            MC2LSProblem(dataset, k=4, tau=0.6),
            batch_verify,
            fast_select,
        )
        assert served.selected == direct.selected
        assert served.gains == direct.gains
        assert served.objective == direct.objective

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_varying_k_reuses_prepared(self, engine, dataset, k):
        served = engine.execute(SelectionQuery(k=k, tau=0.7))
        direct = SOLVER_FACTORIES["iqt"]().solve(
            MC2LSProblem(dataset, k=k, tau=0.7)
        )
        assert served.selected == direct.selected
        assert served.gains == direct.gains

    @pytest.mark.parametrize("fast_select", [True, False])
    def test_candidate_mask_matches_restricted_instance(
        self, engine, dataset, fast_select
    ):
        subset = tuple(c.fid for c in dataset.candidates[::2])
        served = engine.execute(SelectionQuery(k=3, candidate_ids=subset))
        restricted = dataset.with_candidates(dataset.candidates[::2])
        direct = reference_solve(
            SOLVER_FACTORIES["iqt"](),
            MC2LSProblem(restricted, k=3, tau=0.7),
            fast_select=fast_select,
        )
        assert served.selected == direct.selected
        assert served.gains == direct.gains
        assert served.objective == direct.objective

    def test_cached_result_identical_to_cold(self, engine):
        query = SelectionQuery(k=5, tau=0.65)
        cold = engine.execute(query)
        warm = engine.execute(query)
        assert warm.selected == cold.selected
        assert warm.gains == cold.gains
        assert warm.objective == cold.objective
        assert cold.stats.result_cache == "miss"
        assert warm.stats.result_cache == "hit"


class TestCachingBehaviour:
    def test_prepared_reused_across_k(self, engine):
        first = engine.execute(SelectionQuery(k=2, tau=0.55))
        second = engine.execute(SelectionQuery(k=6, tau=0.55))
        assert first.stats.prepared_cache == "miss"
        assert second.stats.prepared_cache == "hit"
        # Different tau needs a fresh preparation.
        third = engine.execute(SelectionQuery(k=2, tau=0.75))
        assert third.stats.prepared_cache == "miss"

    def test_use_cache_false_bypasses(self, engine):
        query = SelectionQuery(k=3, use_cache=False)
        r1 = engine.execute(query)
        r2 = engine.execute(query)
        assert r1.stats.result_cache == "bypass"
        assert r2.stats.result_cache == "bypass"
        assert r2.stats.prepared_cache == "bypass"
        assert r1.selected == r2.selected

    def test_publish_new_version_invalidates(self, engine, dataset):
        query = SelectionQuery(k=3)
        engine.execute(query)
        old = engine.snapshot()
        mutated = dataset.with_facilities(dataset.facilities[:-2])
        new = engine.publish(mutated)
        assert old.superseded
        assert new.version == old.version + 1
        served = engine.execute(query)
        assert served.stats.result_cache == "miss"
        assert served.stats.snapshot_version == new.version
        direct = SOLVER_FACTORIES["iqt"]().solve(
            MC2LSProblem(mutated, k=3, tau=0.7)
        )
        assert served.selected == direct.selected

    def test_republish_identical_dataset_keeps_caches(self, engine, dataset):
        query = SelectionQuery(k=3)
        engine.execute(query)
        engine.publish(build_instance(seed=11, n_users=40, n_candidates=14,
                                      n_facilities=10))
        served = engine.execute(query)
        assert served.stats.result_cache == "hit"


class TestValidationAndControl:
    def test_requires_snapshot(self):
        eng = SelectionEngine()
        with pytest.raises(ServiceError, match="no snapshot"):
            eng.execute(SelectionQuery(k=1))
        eng.shutdown()

    def test_unknown_solver(self, engine):
        with pytest.raises(ServiceError, match="unknown solver"):
            engine.execute(SelectionQuery(k=1, solver="nope"))

    def test_infeasible_k(self, engine):
        with pytest.raises(SolverError):
            engine.execute(SelectionQuery(k=999))

    def test_infeasible_k_for_mask(self, engine, dataset):
        subset = (dataset.candidates[0].fid,)
        with pytest.raises(SolverError):
            engine.execute(SelectionQuery(k=2, candidate_ids=subset))

    def test_unknown_mask_candidate(self, engine):
        with pytest.raises(SolverError, match="unknown"):
            engine.execute(SelectionQuery(k=1, candidate_ids=(987654,)))

    def test_deadline_expired_before_start(self, engine):
        with pytest.raises(DeadlineExceededError):
            engine.execute(SelectionQuery(k=3, tau=0.51, deadline_s=0.0))

    def test_cancel_token_aborts_rounds(self, engine):
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            engine.execute(SelectionQuery(k=3, tau=0.52), cancel=token)

    def test_admission_control_rejects_when_saturated(self, dataset):
        eng = SelectionEngine(dataset, max_workers=1, max_queued=1)
        try:
            # Saturate the single slot with an uncached slow-ish query,
            # then the next submission must bounce.
            with pytest.raises(EngineSaturatedError):
                for i in range(50):
                    eng.submit(SelectionQuery(k=3, tau=0.5 + i * 1e-3,
                                              use_cache=False))
            assert eng.stats()["scheduler"]["rejected"] >= 1
        finally:
            eng.shutdown()

    def test_submit_returns_result(self, engine):
        handle = engine.submit(SelectionQuery(k=4))
        result = handle.result(timeout=30)
        assert len(result.selected) == 4

    def test_context_manager(self, dataset):
        with SelectionEngine(dataset) as eng:
            assert eng.execute(SelectionQuery(k=1)).selected
