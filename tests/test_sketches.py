"""Tests for FM sketches and the sketch-based coverage greedy."""

import statistics

import numpy as np
import pytest

from repro.competition import InfluenceTable
from repro.exceptions import DataError, SolverError
from repro.sketches import FMSketch, exact_coverage_greedy, sketched_coverage_greedy
from repro.solvers import IQTSolver, MC2LSProblem
from tests.conftest import build_instance
from tests.oracles import scalar_sketched_greedy


class TestFMSketch:
    def test_validation(self):
        with pytest.raises(DataError):
            FMSketch(n_registers=0)
        with pytest.raises(DataError):
            FMSketch(n_registers=48)  # not a power of two

    def test_empty_estimates_zero(self):
        assert FMSketch().estimate() == 0.0

    def test_idempotent_inserts(self):
        a = FMSketch(64, seed=1)
        b = FMSketch(64, seed=1)
        a.add_many([1, 2, 3])
        b.add_many([1, 2, 3, 1, 2, 3, 3, 3])
        assert a.estimate() == b.estimate()

    @pytest.mark.parametrize("true_n", [100, 1000, 10000])
    def test_estimate_accuracy(self, true_n):
        """Mean relative error across seeds within the LogLog bound."""
        estimates = [
            FMSketch.of(range(true_n), 64, seed).estimate() for seed in range(25)
        ]
        ratio = statistics.mean(estimates) / true_n
        assert 0.8 <= ratio <= 1.25

    def test_more_registers_tighter(self):
        true_n = 5000
        def spread(m):
            vals = [FMSketch.of(range(true_n), m, s).estimate() for s in range(25)]
            return statistics.pstdev(vals) / true_n
        assert spread(256) < spread(16)

    def test_union_equals_sketch_of_union(self):
        rng = np.random.default_rng(0)
        a_items = set(rng.integers(0, 10_000, 500).tolist())
        b_items = set(rng.integers(5_000, 15_000, 500).tolist())
        a = FMSketch.of(a_items, 128, seed=3)
        b = FMSketch.of(b_items, 128, seed=3)
        direct = FMSketch.of(a_items | b_items, 128, seed=3)
        assert a.union(b).estimate() == direct.estimate()

    def test_union_update_matches_union(self):
        a = FMSketch.of(range(100), 64, 0)
        b = FMSketch.of(range(50, 200), 64, 0)
        combined = a.union(b)
        a.union_update(b)
        assert a.estimate() == combined.estimate()

    def test_incompatible_union_rejected(self):
        with pytest.raises(DataError):
            FMSketch(64, 0).union(FMSketch(128, 0))
        with pytest.raises(DataError):
            FMSketch(64, 0).union(FMSketch(64, 1))

    def test_copy_is_independent(self):
        a = FMSketch.of(range(100), 64, 0)
        b = a.copy()
        b.add_many(range(100, 5000))
        assert a.estimate() < b.estimate()

    def test_monotone_under_union(self):
        a = FMSketch.of(range(200), 64, 2)
        b = FMSketch.of(range(150, 400), 64, 2)
        assert a.union(b).estimate() >= max(a.estimate(), b.estimate())


class TestFMSketchBoundaries:
    """Regression tests for empty / sparse register (−1 sentinel) handling."""

    def test_empty_sketch_estimates_zero_any_register_count(self):
        for m in (1, 16, 64, 1024):
            sketch = FMSketch(m)
            assert sketch.is_empty
            assert sketch.estimate() == 0.0

    def test_single_item_estimates_about_one(self):
        # One insert occupies one register; a 2^mean over the untouched
        # -1 registers must not leak into the estimate.
        for seed in range(10):
            sketch = FMSketch(64, seed=seed)
            sketch.add(12345)
            assert not sketch.is_empty
            assert 0.5 <= sketch.estimate() <= 3.0

    def test_single_item_high_rank_not_garbage(self):
        # Force a pathologically high rank into a tiny sparse sketch: the
        # mostly-empty guard must keep the estimate near the occupancy
        # count instead of reporting 2^rank-scale garbage.
        sketch = FMSketch(n_registers=4)
        sketch._registers[0] = 60
        assert sketch.estimate() < 10.0

    def test_union_of_empties_is_empty(self):
        merged = FMSketch(64, 1).union(FMSketch(64, 1))
        assert merged.is_empty
        assert merged.estimate() == 0.0

    def test_union_with_empty_is_identity(self):
        a = FMSketch.of(range(500), 128, 7)
        merged = a.union(FMSketch(128, 7))
        assert merged.estimate() == a.estimate()

    def test_merged_disjoint_sketches(self):
        a = FMSketch.of(range(0, 2000), 256, 5)
        b = FMSketch.of(range(2000, 4000), 256, 5)
        merged = a.union(b)
        # Union-by-max of disjoint sets estimates the combined cardinality.
        assert merged.estimate() >= max(a.estimate(), b.estimate())
        assert merged.estimate() == pytest.approx(4000, rel=0.35)
        # And equals the sketch built from the union directly.
        direct = FMSketch.of(range(4000), 256, 5)
        assert merged.estimate() == direct.estimate()


class TestSketchedGreedy:
    def random_table(self, seed, n_c=20, n_u=400):
        rng = np.random.default_rng(seed)
        omega = {
            cid: set(rng.choice(n_u, size=int(rng.integers(5, n_u // 3)),
                                replace=False).tolist())
            for cid in range(n_c)
        }
        return InfluenceTable.from_mappings(omega, {})

    def test_validation(self):
        t = self.random_table(0)
        with pytest.raises(SolverError):
            sketched_coverage_greedy(t, list(range(20)), k=0)
        with pytest.raises(SolverError):
            exact_coverage_greedy(t, [1], k=2)

    @pytest.mark.parametrize("seed", range(4))
    def test_close_to_exact_greedy(self, seed):
        """The sketched selection's true coverage is within 10 % of exact."""
        t = self.random_table(seed)
        exact_sel, exact_cov = exact_coverage_greedy(t, list(range(20)), k=5)
        sketched = sketched_coverage_greedy(t, list(range(20)), k=5,
                                            n_registers=256, seed=seed)
        assert sketched.exact_coverage >= 0.9 * exact_cov

    def test_estimate_tracks_truth(self):
        t = self.random_table(7)
        out = sketched_coverage_greedy(t, list(range(20)), k=6, n_registers=512)
        assert out.estimated_coverage == pytest.approx(
            out.exact_coverage, rel=0.25
        )

    def test_deterministic(self):
        t = self.random_table(9)
        a = sketched_coverage_greedy(t, list(range(20)), k=4, seed=5)
        b = sketched_coverage_greedy(t, list(range(20)), k=4, seed=5)
        assert a.selected == b.selected

    def test_on_solver_table(self, small_instance):
        result = IQTSolver().solve(MC2LSProblem(small_instance, k=3, tau=0.5))
        cids = [c.fid for c in small_instance.candidates]
        out = sketched_coverage_greedy(result.table, cids, k=3)
        assert len(out.selected) == 3
        assert out.exact_coverage >= 1


class TestSentinelRegression:
    """Pinned instance where the pre-fix ``-1.0`` sentinel crashed.

    Four near-identical coverage sets with m=16 registers and seed 44:
    round 0 ties at the linear-counting estimate 16·ln(16) ≈ 44.36 (one
    register still empty — the correction side of the estimator's branch
    boundary), but every remaining candidate's union fills that last
    register, switching the estimator to the raw LogLog branch at
    ≈ 42.73.  Every round-1 gain is then ≈ −1.63 ≤ −1.0, below the old
    sentinel, so no candidate was ever picked and the selection crashed.
    """

    BASE = [
        0, 1, 2, 5, 6, 7, 8, 9, 11, 12, 14, 17, 18, 21, 22, 24, 25, 26,
        28, 30, 31, 32, 33, 34, 37, 39, 40, 42, 43, 44, 45, 46, 47, 48,
        49, 50, 51, 52, 53, 56, 59, 60, 63, 65, 68, 69,
    ]
    M = 16
    SEED = 44

    def pinned_table(self):
        base = set(self.BASE)
        omega = {
            0: base - {25, 46, 59},
            1: set(base),
            2: set(base),
            3: (base | {19}) - {40, 47},
        }
        f_o = {uid: set() for uid in base | {19}}
        return InfluenceTable.from_mappings(omega, f_o)

    def test_instance_triggers_negative_gains(self):
        """The pinned sets genuinely reproduce the old crash condition."""
        table = self.pinned_table()
        after_round0 = FMSketch.of(table.omega_c[0], self.M, self.SEED)
        current = after_round0.estimate()
        for cid in (1, 2, 3):
            cand = FMSketch.of(table.omega_c[cid], self.M, self.SEED)
            est = after_round0.union(cand).estimate()
            # Strictly below the -1.0 sentinel: the old loop never
            # accepted any candidate in round 1.
            assert est - current <= -1.0

    @pytest.mark.parametrize("fast_select", [True, False])
    def test_selection_completes_with_clamped_gains(self, fast_select):
        """``fast_select=False`` runs the scalar sketch-loop oracle."""
        table = self.pinned_table()
        greedy = sketched_coverage_greedy if fast_select else scalar_sketched_greedy
        out = greedy(
            table, [0, 1, 2, 3], k=4, n_registers=self.M, seed=self.SEED
        )
        assert len(out.selected) == 4
        assert sorted(out.selected) == [0, 1, 2, 3]
        assert all(g >= 0.0 for g in out.gains)
        # Rounds 1-3 add (near-)nothing: clamped to exactly zero.
        assert out.gains[0] > 0.0
        assert out.gains[1:] == (0.0, 0.0, 0.0)

    def test_fast_path_bit_identical(self):
        table = self.pinned_table()
        fast = sketched_coverage_greedy(
            table, [0, 1, 2, 3], k=4, n_registers=self.M, seed=self.SEED
        )
        scalar = scalar_sketched_greedy(
            table, [0, 1, 2, 3], k=4, n_registers=self.M, seed=self.SEED
        )
        assert fast == scalar


class TestFastPathEquivalence:
    """The register-matrix fast path is bit-equal to the sketch loop."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_bit_identical_selections(self, seed, m):
        rng = np.random.default_rng(seed)
        omega = {
            cid: set(rng.choice(300, size=int(rng.integers(0, 120)),
                                replace=False).tolist())
            for cid in range(12)
        }
        t = InfluenceTable.from_mappings(omega, {})
        fast = sketched_coverage_greedy(
            t, list(range(12)), k=6, n_registers=m, seed=seed
        )
        scalar = scalar_sketched_greedy(
            t, list(range(12)), k=6, n_registers=m, seed=seed
        )
        assert fast == scalar
