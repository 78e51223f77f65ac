"""Differential tests: the CSR coverage kernel vs the scalar greedies.

The vectorized kernel (`CoverageMatrix.select`) must be *selection
identical* to the eager scalar greedy — same selected tuple (smallest-id
tie-break included), gains within 1e-9 (they are in fact bit-equal: the
kernel confirms every round winner with correctly-rounded ``fsum``
gains) — across random tables, adversarial exact-tie tables, degenerate
shapes and every solver, whose production selection is compared with
the scalar oracles of ``tests/oracles.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.competition import InfluenceTable
from repro.exceptions import SolverError
from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    CoverageMatrix,
    ExactSolver,
    IQTSolver,
    MC2LSProblem,
    coverage_select,
    greedy_select,
    lazy_greedy_select,
)
from repro.solvers.budgeted import BudgetedGreedySolver
from repro.solvers.capacitated import CapacitatedGreedySolver
from tests.conftest import build_instance
from tests.oracles import (
    eager_capacitated_greedy,
    enumerate_scalar,
    reference_solve,
    scalar_budgeted_select,
)


def random_table(seed, n_candidates=15, n_users=60, n_facilities=6):
    rng = np.random.default_rng(seed)
    omega = {
        cid: set(
            rng.choice(n_users, size=rng.integers(0, n_users // 2),
                       replace=False).tolist()
        )
        for cid in range(n_candidates)
    }
    f_o = {
        uid: set(
            rng.choice(n_facilities, size=rng.integers(0, n_facilities),
                       replace=False).tolist()
        )
        for uid in range(n_users)
    }
    return InfluenceTable.from_mappings(omega, f_o)


def assert_same_selection(a, b):
    assert a.selected == b.selected
    assert len(a.gains) == len(b.gains)
    for ga, gb in zip(a.gains, b.gains):
        assert ga == pytest.approx(gb, abs=1e-9)
    assert a.objective == pytest.approx(b.objective, abs=1e-9)


class TestKernelDifferential:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_random_tables(self, seed, k):
        table = random_table(seed)
        cids = list(range(15))
        eager = greedy_select(table, cids, k)
        lazy = lazy_greedy_select(table, cids, k)
        fast = coverage_select(table, cids, k)
        assert_same_selection(eager, fast)
        assert_same_selection(eager, lazy)
        # The kernel's gains are bit-equal, not just approximately equal:
        # round winners are confirmed with correctly-rounded fsum sums.
        assert fast.gains == eager.gains

    @given(
        omega=st.dictionaries(
            st.integers(0, 9),
            st.sets(st.integers(0, 30), max_size=12),
            min_size=1,
            max_size=10,
        ),
        k=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_random_tables(self, omega, k):
        cids = sorted(omega)
        k = min(k, len(cids))
        table = InfluenceTable.from_mappings(omega, {})
        eager = greedy_select(table, cids, k)
        lazy = lazy_greedy_select(table, cids, k)
        fast = coverage_select(table, cids, k)
        assert fast.selected == eager.selected == lazy.selected
        assert fast.gains == eager.gains

    def test_exact_tie_table(self):
        """Candidates with *identical* coverage: smallest id must win."""
        shared = set(range(20))
        omega = {5: set(shared), 3: set(shared), 9: set(shared), 7: {1, 2}}
        table = InfluenceTable.from_mappings(omega, {})
        cids = [3, 5, 7, 9]
        for k in (1, 2, 4):
            eager = greedy_select(table, cids, k)
            fast = coverage_select(table, cids, k)
            assert fast.selected == eager.selected
            assert fast.gains == eager.gains
        assert coverage_select(table, cids, 1).selected == (3,)

    def test_tie_after_partial_overlap(self):
        """Ties that only appear at later rounds, under competition weights."""
        omega = {
            0: {0, 1, 2, 3},
            1: {0, 1, 4, 5},   # same marginal as 2 once 0 is taken
            2: {2, 3, 4, 5},
            3: {6},
        }
        f_o = {u: ({10} if u % 2 else set()) for u in range(7)}
        table = InfluenceTable.from_mappings(omega, f_o)
        for k in (1, 2, 3, 4):
            eager = greedy_select(table, [0, 1, 2, 3], k)
            fast = coverage_select(table, [0, 1, 2, 3], k)
            assert fast.selected == eager.selected
            assert fast.gains == eager.gains

    def test_empty_coverage_candidates(self):
        """Candidates covering nobody are still selectable (zero gain)."""
        omega = {0: {1, 2}, 1: set(), 2: set()}
        table = InfluenceTable.from_mappings(omega, {1: set(), 2: set()})
        eager = greedy_select(table, [0, 1, 2], 3)
        fast = coverage_select(table, [0, 1, 2], 3)
        assert fast.selected == eager.selected == (0, 1, 2)
        assert fast.gains == eager.gains

    def test_all_empty_table(self):
        table = InfluenceTable.from_mappings({0: set(), 1: set()}, {})
        fast = coverage_select(table, [0, 1], 2)
        assert fast.selected == (0, 1)
        assert fast.gains == (0.0, 0.0)
        assert fast.objective == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_k_equals_all_candidates(self, seed):
        table = random_table(seed, n_candidates=8)
        eager = greedy_select(table, list(range(8)), 8)
        fast = coverage_select(table, list(range(8)), 8)
        assert fast.selected == eager.selected
        assert fast.gains == eager.gains

    @pytest.mark.parametrize("seed", range(10))
    def test_lazy_evaluates_no_more_than_eager(self, seed):
        table = random_table(seed)
        cids = list(range(15))
        eager = greedy_select(table, cids, 5)
        lazy = lazy_greedy_select(table, cids, 5)
        fast = coverage_select(table, cids, 5)
        assert lazy.evaluations <= eager.evaluations
        assert fast.evaluations <= eager.evaluations

    def test_kernel_validates_k(self):
        table = random_table(0)
        with pytest.raises(SolverError):
            coverage_select(table, list(range(15)), 0)
        with pytest.raises(SolverError):
            coverage_select(table, list(range(15)), 16)


class TestCoverageMatrixShape:
    def test_csr_layout(self):
        omega = {2: {10, 30}, 7: {20}, 5: set()}
        table = InfluenceTable.from_mappings(omega, {})
        cover = CoverageMatrix(table, [2, 5, 7])
        assert list(cover.candidate_ids) == [2, 5, 7]
        assert cover.n_candidates == 3
        assert cover.n_users == 3  # users 10, 20, 30
        assert list(cover.indptr) == [0, 2, 2, 3]

    def test_weights_follow_competition(self):
        omega = {0: {1, 2}}
        f_o = {1: {100, 200}, 2: set()}
        table = InfluenceTable.from_mappings(omega, f_o)
        cover = CoverageMatrix(table, [0])
        w = dict(zip(cover.user_ids.tolist(), cover.weights.tolist()))
        assert w[1] == pytest.approx(1.0 / 3.0)
        assert w[2] == pytest.approx(1.0)


class TestSolverKnobDifferential:
    """Every solver: the production selection equals the scalar oracle's."""

    @pytest.fixture(scope="class")
    def instance(self):
        return build_instance(seed=5, n_users=30, n_candidates=8, n_facilities=5)

    @staticmethod
    def problem(instance, k=3):
        return MC2LSProblem(instance, k=k, tau=0.5)

    @staticmethod
    def cids(instance):
        return [c.fid for c in instance.candidates]

    def assert_same(self, on, selected, gains, objective):
        assert on.selected == selected
        assert on.gains == gains
        assert on.objective == pytest.approx(objective, abs=1e-9)

    def both(self, solver, instance):
        prob = self.problem(instance)
        on = solver.solve(prob)
        off = reference_solve(solver, prob, fast_select=False)
        self.assert_same(on, off.selected, off.gains, off.objective)

    def test_iqt(self, instance):
        self.both(IQTSolver(), instance)

    def test_baseline(self, instance):
        self.both(BaselineGreedySolver(), instance)

    def test_kcifp(self, instance):
        self.both(AdaptedKCIFPSolver(), instance)

    def test_exact(self, instance):
        on = ExactSolver().solve(self.problem(instance))
        selected, objective = enumerate_scalar(on.table, self.cids(instance), 3)
        self.assert_same(on, selected, (), objective)

    def test_budgeted(self, instance):
        costs = {c.fid: 1.0 + (c.fid % 3) for c in instance.candidates}
        on = BudgetedGreedySolver(costs=costs, budget=5.0).solve(
            self.problem(instance)
        )
        self.assert_same(
            on, *scalar_budgeted_select(on.table, costs, 5.0, self.cids(instance))
        )

    def test_capacitated(self, instance):
        on = CapacitatedGreedySolver(capacity=3).solve(self.problem(instance))
        self.assert_same(
            on, *eager_capacitated_greedy(on.table, self.cids(instance), 3, 3)
        )
