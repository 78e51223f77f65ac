"""Unit tests for the greedy selection phase (eager and lazy/CELF)."""

import numpy as np
import pytest

from repro.competition import InfluenceTable, cinf_group
from repro.exceptions import SolverError
from repro.solvers import greedy_select, lazy_greedy_select


@pytest.fixture
def paper_table() -> InfluenceTable:
    """Examples 1/3/4 of the paper."""
    return InfluenceTable.from_mappings(
        omega_c={1: {1, 2}, 2: {2, 4}, 3: {1, 3}},
        f_o={1: {1}, 2: {1, 2}, 3: set(), 4: {2}},
    )


def random_table(seed, n_candidates=15, n_users=60, n_facilities=6):
    rng = np.random.default_rng(seed)
    omega = {
        cid: set(
            rng.choice(n_users, size=rng.integers(0, n_users // 2), replace=False).tolist()
        )
        for cid in range(n_candidates)
    }
    f_o = {
        uid: set(
            rng.choice(n_facilities, size=rng.integers(0, n_facilities), replace=False).tolist()
        )
        for uid in range(n_users)
    }
    return InfluenceTable.from_mappings(omega, f_o)


class TestGreedySelect:
    def test_paper_example_4(self, paper_table):
        """Greedy with k=2 selects c3 first, then c2 (Example 4)."""
        outcome = greedy_select(paper_table, [1, 2, 3], k=2)
        assert outcome.selected == (3, 2)
        assert outcome.gains[0] == pytest.approx(3.0 / 2.0)
        assert outcome.gains[1] == pytest.approx(5.0 / 6.0)
        assert outcome.objective == pytest.approx(cinf_group(paper_table, [2, 3]))

    def test_k_equals_n_selects_everything(self, paper_table):
        outcome = greedy_select(paper_table, [1, 2, 3], k=3)
        assert set(outcome.selected) == {1, 2, 3}

    def test_validation(self, paper_table):
        with pytest.raises(SolverError):
            greedy_select(paper_table, [1, 2, 3], k=0)
        with pytest.raises(SolverError):
            greedy_select(paper_table, [1, 2, 3], k=4)

    def test_gains_non_increasing(self):
        """Submodularity: greedy marginal gains never increase."""
        for seed in range(5):
            t = random_table(seed)
            outcome = greedy_select(t, list(range(15)), k=10)
            assert all(
                a >= b - 1e-12 for a, b in zip(outcome.gains, outcome.gains[1:])
            )

    def test_objective_equals_group_value(self):
        t = random_table(3)
        outcome = greedy_select(t, list(range(15)), k=5)
        assert outcome.objective == pytest.approx(
            cinf_group(t, list(outcome.selected))
        )

    def test_tie_break_smallest_id(self):
        t = InfluenceTable.from_mappings({5: {1}, 2: {2}, 9: {3}}, {})
        outcome = greedy_select(t, [5, 2, 9], k=1)
        assert outcome.selected == (2,)

    def test_candidate_with_no_users(self):
        t = InfluenceTable.from_mappings({1: {1, 2}, 2: set()}, {})
        outcome = greedy_select(t, [1, 2], k=2)
        assert outcome.selected == (1, 2)
        assert outcome.gains[1] == 0.0


class TestLazyGreedy:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_matches_eager_greedy(self, seed, k):
        t = random_table(seed)
        eager = greedy_select(t, list(range(15)), k=k)
        lazy = lazy_greedy_select(t, list(range(15)), k=k)
        assert lazy.selected == eager.selected
        assert lazy.objective == pytest.approx(eager.objective)
        assert lazy.gains == pytest.approx(eager.gains)

    def test_fewer_evaluations_than_eager(self):
        t = random_table(42, n_candidates=60, n_users=300)
        eager = greedy_select(t, list(range(60)), k=15)
        lazy = lazy_greedy_select(t, list(range(60)), k=15)
        assert lazy.evaluations < eager.evaluations

    def test_validation(self):
        t = random_table(0)
        with pytest.raises(SolverError):
            lazy_greedy_select(t, [1], k=2)

    def test_paper_example(self, paper_table):
        outcome = lazy_greedy_select(paper_table, [1, 2, 3], k=2)
        assert outcome.selected == (3, 2)


class TestTableValidation:
    """Selection entry points reject tables naming unknown candidates."""

    def stale_table(self):
        # Candidate 99 exists in the table but not in the candidate list —
        # e.g. a table resolved against a stale candidate set.
        return InfluenceTable.from_mappings(
            omega_c={1: {1, 2}, 2: {2}, 99: {1}},
            f_o={1: set(), 2: {1}},
        )

    def test_greedy_select_rejects_unknown_candidates(self):
        with pytest.raises(SolverError, match="unknown candidates"):
            greedy_select(self.stale_table(), [1, 2], k=1)

    def test_lazy_greedy_rejects_unknown_candidates(self):
        with pytest.raises(SolverError, match="unknown candidates"):
            lazy_greedy_select(self.stale_table(), [1, 2], k=1)

    def test_coverage_kernel_rejects_unknown_candidates(self):
        from repro.solvers import coverage_select, run_selection

        with pytest.raises(SolverError, match="unknown candidates"):
            coverage_select(self.stale_table(), [1, 2], k=1)
        with pytest.raises(SolverError, match="unknown candidates"):
            run_selection(self.stale_table(), [1, 2], k=1)

    def test_full_candidate_set_accepted(self):
        outcome = greedy_select(self.stale_table(), [1, 2, 99], k=1)
        assert len(outcome.selected) == 1
