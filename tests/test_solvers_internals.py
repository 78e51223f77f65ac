"""White-box tests of solver internals: the optimisations must hold the
invariants they claim, not just produce the right final answer."""

import pytest

from repro.pruning import measure_iquadtree_pruning
from repro.influence import InfluenceEvaluator, paper_default_pf
from repro.solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
)
from tests.conftest import build_instance
from tests.oracles import scalar_resolve_all_pairs


class TestKCifpLine10:
    """Algorithm 1 line 10: competitor relationships only for covered users."""

    def test_f_o_restricted_to_influenced_users(self):
        ds = build_instance(seed=31, n_users=30)
        problem = MC2LSProblem(ds, k=3, tau=0.5)
        result = AdaptedKCIFPSolver().solve(problem)
        influenced = result.table.influenced_users()
        assert set(result.table.f_o) <= set(influenced)

    def test_baseline_tracks_everyone(self):
        ds = build_instance(seed=31, n_users=30)
        problem = MC2LSProblem(ds, k=3, tau=0.5)
        result = BaselineGreedySolver().solve(problem)
        assert set(result.table.f_o) == {u.uid for u in ds.users}


class TestIQTVariants:
    def test_nib_never_grows_verification(self):
        """IQT (with NIB) verifies a subset of what IQT-C verifies."""
        ds = build_instance(seed=32, n_users=40, clustered=True)
        problem = MC2LSProblem(ds, k=3, tau=0.5)
        iqt_c = IQTSolver(variant=IQTVariant.IQT_C).solve(problem)
        iqt = IQTSolver(variant=IQTVariant.IQT).solve(problem)
        assert iqt.pruning is not None and iqt_c.pruning is not None
        assert iqt.pruning.verify <= iqt_c.pruning.verify

    def test_pino_confirms_at_least_iqt(self):
        ds = build_instance(seed=33, n_users=40, clustered=True)
        problem = MC2LSProblem(ds, k=3, tau=0.3)
        iqt = IQTSolver(variant=IQTVariant.IQT).solve(problem)
        pino = IQTSolver(variant=IQTVariant.IQT_PINO).solve(problem)
        assert pino.pruning.confirmed >= iqt.pruning.confirmed

    def test_early_stopping_does_not_change_table(self):
        """Production verification takes full products; a table resolved
        pair by pair with scalar early stopping is the same table."""
        ds = build_instance(seed=34, n_users=30)
        problem = MC2LSProblem(ds, k=3, tau=0.5)
        result = IQTSolver().solve(problem)
        with_es = InfluenceEvaluator(problem.pf, problem.tau, early_stopping=True)
        omega_c, f_o = scalar_resolve_all_pairs(ds, with_es)
        assert result.table.omega_c == omega_c
        for uid in result.table.influenced_users():
            assert result.table.f_o[uid] == f_o[uid]
        assert with_es.stats.early_stops_positive > 0  # scans did stop early

    def test_pruning_totals_cover_all_pairs(self):
        ds = build_instance(seed=35, n_users=25)
        problem = MC2LSProblem(ds, k=2, tau=0.5)
        for variant in IQTVariant:
            result = IQTSolver(variant=variant).solve(problem)
            n_pairs = len(ds.users) * len(ds.abstract_facilities)
            assert result.pruning.total == n_pairs, variant

    def test_d_hat_does_not_change_result(self):
        ds = build_instance(seed=36, n_users=30)
        problem = MC2LSProblem(ds, k=3, tau=0.5)
        results = [
            IQTSolver(d_hat=d).solve(problem) for d in (1.0, 2.0, 3.5)
        ]
        assert len({r.selected for r in results}) == 1
        assert len({round(r.objective, 9) for r in results}) == 1


class TestMeasurementConsistency:
    def test_rule_measurement_matches_solver_counters(self):
        """The standalone IS/NIR measurement and IQT-C's counters agree on
        the pair classification for identical inputs."""
        ds = build_instance(seed=37, n_users=30)
        tau = 0.5
        stats, _ = measure_iquadtree_pruning(
            ds.users, ds.abstract_facilities, tau, paper_default_pf(), 2.0, ds.region
        )
        result = IQTSolver(variant=IQTVariant.IQT_C).solve(
            MC2LSProblem(ds, k=2, tau=tau)
        )
        assert result.pruning.confirmed == stats.confirmed
        assert result.pruning.verify == stats.verify
        assert result.pruning.pruned == stats.pruned
