"""Differential tests: the batched kernel vs. the scalar evaluator.

The contract under test (see ``repro/influence/batch.py``): for every
``PF`` variant, every ``τ``, and every user geometry — single positions,
positions at exactly distance 0, histories longer than the scalar
fast-path cutoff — the batch kernel's decisions are *bit-identical* to
the scalar full-scan evaluator's and equal the scalar early-stopping
evaluator's, and its :class:`EvaluationStats` counters equal the scalar
full-scan path's pair-by-pair accounting exactly.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.entities import MovingUser
from repro.exceptions import ProbabilityError
from repro.influence import (
    BatchInfluenceEvaluator,
    ExponentialPF,
    InfluenceEvaluator,
    LinearPF,
    PositionArena,
    PowerLawPF,
    paper_default_pf,
)

PF_VARIANTS = [
    paper_default_pf(),
    ExponentialPF(p0=0.9, scale=1.0),
    ExponentialPF(p0=1.0, scale=2.0),  # max_probability = 1: survival floor 0
    LinearPF(p0=0.9, cutoff=5.0),  # survival exactly 1 beyond the cutoff
    PowerLawPF(p0=0.9, scale=1.0, alpha=2.0),
]
TAUS = (0.3, 0.7, 0.95)


def _scalar_pair(pf, tau, early_stopping):
    """The scalar evaluator in the given mode, plus the full-scan one.

    The batch kernel's decisions must equal the first; its counters
    always equal the second's.
    """
    return (
        InfluenceEvaluator(pf, tau, early_stopping=early_stopping),
        InfluenceEvaluator(pf, tau, early_stopping=False),
    )


def _population(seed: int, n_users: int = 120) -> list:
    """Users covering the interesting geometry: r = 1, d = 0, r > 128."""
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n_users):
        if uid % 10 == 0:
            r = 1  # single-position users
        elif uid % 17 == 0:
            r = int(rng.integers(129, 260))  # scalar blocked path
        else:
            r = int(rng.integers(2, 40))
        pos = rng.normal(rng.uniform(-6, 6, 2), 2.5, size=(r, 2))
        if uid % 5 == 0:
            pos[rng.integers(r)] = [0.25, -0.75]  # exactly on the facility
        users.append(MovingUser(uid, pos))
    return users


FACILITY = (0.25, -0.75)


class TestDifferentialAgainstScalar:
    @pytest.mark.parametrize("pf", PF_VARIANTS, ids=repr)
    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("early_stopping", [True, False])
    def test_decisions_and_stats(self, pf, tau, early_stopping):
        users = _population(seed=1)
        arena = PositionArena.from_users(users)
        scalar, full = _scalar_pair(pf, tau, early_stopping)
        expected = np.array(
            [scalar.influences(*FACILITY, u.positions) for u in users]
        )
        for u in users:
            full.influences(*FACILITY, u.positions)
        batch = BatchInfluenceEvaluator(pf, tau)
        got = batch.influences_users(*FACILITY, arena)
        assert np.array_equal(expected, got)
        assert batch.stats.total_evaluations == scalar.stats.total_evaluations
        # The full counter set, not just the total: every pair is one
        # full evaluation touching all of the user's positions.
        assert batch.stats.__dict__ == full.stats.__dict__

    @pytest.mark.parametrize("pf", PF_VARIANTS, ids=repr)
    @pytest.mark.parametrize("early_stopping", [True, False])
    def test_facility_batch_kernel(self, pf, early_stopping):
        """One user vs. many facilities: the streaming re-verification shape."""
        rng = np.random.default_rng(3)
        xy = rng.uniform(-6, 6, (80, 2))
        for user in (_population(seed=3, n_users=8))[:8]:
            scalar, full = _scalar_pair(pf, 0.6, early_stopping)
            expected = np.array(
                [scalar.influences(x, y, user.positions) for x, y in xy]
            )
            for x, y in xy:
                full.influences(x, y, user.positions)
            batch = BatchInfluenceEvaluator(pf, 0.6)
            got = batch.influences_facilities(xy, user.positions)
            assert np.array_equal(expected, got)
            assert batch.stats.__dict__ == full.stats.__dict__

    def test_row_subsets_arbitrary_order(self):
        users = _population(seed=4)
        arena = PositionArena.from_users(users)
        pf = paper_default_pf()
        uids = [13, 2, 77, 2 + 17 * 5, 0, 119]
        rows = arena.rows_for(uids)
        batch = BatchInfluenceEvaluator(pf, 0.7)
        got = batch.influences_users(*FACILITY, arena, rows)
        scalar = InfluenceEvaluator(pf, 0.7)
        expected = [scalar.influences(*FACILITY, users[u].positions) for u in uids]
        assert got.tolist() == expected

    def test_empty_row_set(self):
        arena = PositionArena.from_users(_population(seed=5, n_users=4))
        batch = BatchInfluenceEvaluator(paper_default_pf(), 0.7)
        out = batch.influences_users(0.0, 0.0, arena, np.zeros(0, dtype=np.int64))
        assert out.shape == (0,)
        assert batch.stats.total_evaluations == 0

    @given(
        hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(1, 40), st.just(2)),
            elements=st.floats(min_value=-30, max_value=30, allow_nan=False),
        ),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-5, max_value=5),
        st.floats(min_value=-5, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_single_user_agrees(self, pos, tau, vx, vy):
        """Hypothesis sweep: arbitrary geometry, threshold and facility."""
        user = MovingUser(0, pos)
        arena = PositionArena.from_users([user])
        for early_stopping in (True, False):
            scalar, full = _scalar_pair(paper_default_pf(), tau, early_stopping)
            batch = BatchInfluenceEvaluator(paper_default_pf(), tau)
            expected = scalar.influences(vx, vy, user.positions)
            full.influences(vx, vy, user.positions)
            got = batch.influences_users(vx, vy, arena)
            assert got.tolist() == [expected]
            assert batch.stats.__dict__ == full.stats.__dict__

    @given(
        st.lists(
            st.one_of(
                st.just((0.0, 0.0)),  # exactly on the facility
                st.tuples(
                    st.floats(min_value=-4, max_value=4),
                    st.floats(min_value=-4, max_value=4),
                ),
            ),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(PF_VARIANTS),
        st.integers(min_value=-4, max_value=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_property_boundary_within_ulps(self, points, pf, ulps):
        """τ within a few ulps of ``1 − Π(1 − PF(d))``: the boundary call.

        The batch decision must equal the scalar full scan (decision and
        counters) and the scalar early-stopping scan, whose certificates
        are tightest exactly here.
        """
        pos = np.array(points, dtype=np.float64)
        d = np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1])
        tau = 1.0 - float(np.prod(1.0 - pf(d)))
        step = 2.0 if ulps > 0 else -1.0
        for _ in range(abs(ulps)):
            tau = float(np.nextafter(tau, step))
        assume(0.0 < tau < 1.0)
        arena = PositionArena.from_users([MovingUser(0, pos)])
        early, full = _scalar_pair(pf, tau, True)
        batch = BatchInfluenceEvaluator(pf, tau)
        got = batch.influences_users(0.0, 0.0, arena).tolist()
        assert got == [full.influences(0.0, 0.0, pos)]
        assert got == [early.influences(0.0, 0.0, pos)]
        assert batch.stats.__dict__ == full.stats.__dict__


class TestArena:
    def test_layout(self):
        users = [
            MovingUser(7, np.array([[0.0, 1.0], [2.0, 3.0]])),
            MovingUser(3, np.array([[4.0, 5.0]])),
        ]
        arena = PositionArena.from_users(users)
        assert len(arena) == 2
        assert arena.n_positions == 3
        assert arena.offsets.tolist() == [0, 2, 3]
        assert arena.uids.tolist() == [7, 3]
        assert arena.row_of(3) == 1
        assert arena.lengths().tolist() == [2, 1]
        flat, lens = arena.gather(np.array([1, 0]))
        assert flat.tolist() == [[4.0, 5.0], [0.0, 1.0], [2.0, 3.0]]
        assert lens.tolist() == [1, 2]

    def test_gather_all_is_zero_copy(self):
        arena = PositionArena.from_users(_population(seed=6, n_users=5))
        flat, _ = arena.gather(None)
        assert flat is arena.positions

    def test_dataset_arena_cached(self):
        from tests.conftest import build_instance

        ds = build_instance(seed=0, n_users=10)
        assert ds.arena is ds.arena
        assert len(ds.arena) == 10
        assert ds.arena.n_positions == ds.n_positions

    def test_validation(self):
        with pytest.raises(Exception):
            PositionArena.from_users([])
        with pytest.raises(ProbabilityError):
            BatchInfluenceEvaluator(paper_default_pf(), 0.0)


class TestSolverLevelIdentity:
    """The batched production solvers equal the scalar-verification
    oracles (``tests/oracles.py``) in results and counters."""

    def _problem(self):
        from repro.solvers import MC2LSProblem
        from tests.conftest import build_instance

        return MC2LSProblem(build_instance(seed=9, n_users=40, r=8), k=3, tau=0.6)

    def test_iqt(self):
        from repro.solvers import IQTSolver
        from tests.oracles import reference_solve

        problem = self._problem()
        solver = IQTSolver()
        a = solver.solve(problem)
        b = reference_solve(solver, problem, batch_verify=False)
        assert a.selected == b.selected
        assert a.objective == b.objective
        assert a.table.omega_c == b.table.omega_c
        assert a.table.f_o == b.table.f_o
        assert a.evaluation.__dict__ == b.evaluation.__dict__

    def test_baseline_and_exact(self):
        from repro.competition import InfluenceTable
        from repro.solvers import BaselineGreedySolver, ExactSolver
        from tests.oracles import (
            enumerate_scalar,
            reference_solve,
            scalar_resolve_all_pairs,
        )

        problem = self._problem()
        solver = BaselineGreedySolver()
        a = solver.solve(problem)
        b = reference_solve(solver, problem, batch_verify=False)
        assert a.selected == b.selected
        assert a.table.omega_c == b.table.omega_c
        assert a.evaluation.__dict__ == b.evaluation.__dict__
        c = ExactSolver().solve(problem)
        evaluator = InfluenceEvaluator(problem.pf, problem.tau, early_stopping=False)
        omega_c, f_o = scalar_resolve_all_pairs(problem.dataset, evaluator)
        table = InfluenceTable(omega_c, f_o)
        cids = [cand.fid for cand in problem.dataset.candidates]
        d_selected, _ = enumerate_scalar(table, cids, problem.k)
        assert c.selected == d_selected
        assert c.evaluation.__dict__ == evaluator.stats.__dict__

    def test_streaming(self):
        from repro.streaming import StreamingMC2LS
        from tests.conftest import build_instance
        from tests.oracles import ScalarStreamingMC2LS

        ds = build_instance(seed=10, n_users=30, r=6)
        fast = StreamingMC2LS(ds.facilities, ds.candidates, k=3)
        slow = ScalarStreamingMC2LS(ds.facilities, ds.candidates, k=3)
        for u in ds.users:
            fast.add_user(u)
            slow.add_user(u)
        assert fast.table().omega_c == slow.table().omega_c
        assert fast.table().f_o == slow.table().f_o
        assert fast._batch.stats.__dict__ == slow._batch.stats.__dict__

    def test_production_resolvers_never_early_stop(self):
        """Every production resolver decides on full products: its
        counters hold full evaluations only, never an early stop."""
        from repro.service import ShardCoordinator
        from repro.service.snapshot import DatasetSnapshot
        from repro.solvers import (
            BaselineGreedySolver,
            ExactSolver,
            IQTSolver,
            IQTVariant,
            patch_resolution,
        )
        from repro.streaming import StreamingMC2LS

        problem = self._problem()
        ds, tau, pf = problem.dataset, problem.tau, problem.pf
        stats = {
            v.value: IQTSolver(variant=v).solve(problem).evaluation
            for v in IQTVariant
        }
        stats["baseline"] = BaselineGreedySolver().solve(problem).evaluation
        stats["exact"] = ExactSolver().solve(problem).evaluation
        parent = IQTSolver().resolve(ds, tau, pf)
        dirty = tuple(u.uid for u in ds.users[:5])
        patched, _ = patch_resolution(parent, ds, dirty, (), tau, pf)
        stats["patch"] = patched.evaluation
        session = StreamingMC2LS.from_dataset(ds, k=problem.k, tau=tau)
        stats["streaming"] = session._batch.stats
        with ShardCoordinator(2) as coord:
            coord.prepare(DatasetSnapshot(ds), tau, pf)
            stats["sharded"] = coord.stats
        for name, s in stats.items():
            assert s.full_evaluations > 0, name
            assert (
                s.early_stop_evaluations
                == s.early_stops_positive
                == s.early_stops_negative
                == 0
            ), name
