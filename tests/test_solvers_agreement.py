"""Integration tests: every solver resolves the same relationships and
returns the same selection; greedy respects the (1 - 1/e) guarantee.

This is the paper's own consistency claim (§VII, effect of k: "All the
algorithms achieve identical k result candidates").
"""

import math

import pytest

from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    ExactSolver,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
)
from tests.conftest import build_instance

ALL_SOLVERS = [
    BaselineGreedySolver(),
    AdaptedKCIFPSolver(),
    IQTSolver(variant=IQTVariant.IQT),
    IQTSolver(variant=IQTVariant.IQT_C),
    IQTSolver(variant=IQTVariant.IQT_PINO),
    IQTSolver(variant=IQTVariant.IQT, exact_rounded=True),
]


def solver_id(s):
    return s.name + ("-exact" if getattr(s, "exact_rounded", False) else "")


@pytest.mark.parametrize("clustered", [False, True], ids=["uniform", "skewed"])
@pytest.mark.parametrize("tau", [0.3, 0.7])
class TestSolverAgreement:
    def test_identical_tables_and_selection(self, clustered, tau):
        dataset = build_instance(seed=7, clustered=clustered, n_users=25)
        problem = MC2LSProblem(dataset, k=4, tau=tau)
        reference = BaselineGreedySolver().solve(problem)
        for solver in ALL_SOLVERS[1:]:
            result = solver.solve(problem)
            # Identical candidate coverage sets...
            assert result.table.omega_c == reference.table.omega_c, solver_id(solver)
            # ...identical competitor counts on every covered user...
            for uid in reference.table.influenced_users():
                assert result.table.competitor_count(uid) == (
                    reference.table.competitor_count(uid)
                ), solver_id(solver)
            # ...hence identical greedy selection and objective.
            assert result.selected == reference.selected, solver_id(solver)
            assert result.objective == pytest.approx(reference.objective)


class TestApproximationGuarantee:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_greedy_at_least_1_minus_1_over_e_of_exact(self, seed):
        dataset = build_instance(seed=seed, n_users=20, n_candidates=8, n_facilities=5)
        problem = MC2LSProblem(dataset, k=3, tau=0.4)
        exact = ExactSolver().solve(problem)
        greedy = BaselineGreedySolver().solve(problem)
        assert greedy.objective >= (1 - 1 / math.e) * exact.objective - 1e-9
        # And never better than the optimum, obviously.
        assert greedy.objective <= exact.objective + 1e-9

    def test_exact_refuses_oversized_instances(self):
        dataset = build_instance(seed=1, n_candidates=40)
        problem = MC2LSProblem(dataset, k=15, tau=0.5)
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            ExactSolver(max_combinations=1000).solve(problem)


class TestResultMetadata:
    def test_timings_present(self, small_instance):
        problem = MC2LSProblem(small_instance, k=3)
        for solver in [BaselineGreedySolver(), IQTSolver()]:
            result = solver.solve(problem)
            assert result.total_time > 0
            assert "greedy" in result.timings
            assert result.timings["total"] >= result.timings["greedy"]

    def test_iqt_pruning_stats_cover_all_pairs(self, small_instance):
        problem = MC2LSProblem(small_instance, k=3)
        result = IQTSolver().solve(problem)
        n_pairs = len(small_instance.users) * len(small_instance.abstract_facilities)
        assert result.pruning is not None
        assert result.pruning.total == n_pairs

    def test_iqt_verifies_fewer_pairs_than_baseline_evaluates(self, small_instance):
        problem = MC2LSProblem(small_instance, k=3)
        baseline = BaselineGreedySolver().solve(problem)
        iqt = IQTSolver().solve(problem)
        assert iqt.evaluation.total_evaluations < baseline.evaluation.total_evaluations

    def test_gains_length_equals_k(self, small_instance):
        problem = MC2LSProblem(small_instance, k=4)
        result = IQTSolver().solve(problem)
        assert len(result.gains) == 4

    def test_selected_are_valid_candidates(self, small_instance):
        problem = MC2LSProblem(small_instance, k=3)
        result = IQTSolver().solve(problem)
        cids = {c.fid for c in small_instance.candidates}
        assert set(result.selected) <= cids
        assert len(set(result.selected)) == 3


class TestProblemValidation:
    def test_bad_k(self, small_instance):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            MC2LSProblem(small_instance, k=0)
        with pytest.raises(SolverError):
            MC2LSProblem(small_instance, k=999)

    def test_bad_tau(self, small_instance):
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            MC2LSProblem(small_instance, k=2, tau=0.0)
        with pytest.raises(SolverError):
            MC2LSProblem(small_instance, k=2, tau=1.0)
