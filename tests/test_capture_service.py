"""Serving-engine behaviour under pluggable capture models.

Covers the cache-key seam (capture joins the base key; the default spec
shares the legacy key), sharded degradation (set-aware queries fall back
with a counter, never wrong answers), and the streaming-republish guard
(non-default prepared instances refuse delta-patching and land in the
``patch_failed`` accounting).
"""

import pytest

from repro import paper_default_pf
from repro.capture import CaptureSpec, MNLCaptureModel, SiteUtilities
from repro.entities import MovingUser
from repro.service import SelectionEngine, SelectionQuery
from repro.solvers import IQTSolver, MC2LSProblem
from repro.streaming import StreamingMC2LS
from tests.conftest import build_instance
from tests.oracles import scalar_capture_greedy


@pytest.fixture()
def dataset():
    return build_instance(seed=9, n_users=45, n_candidates=12, n_facilities=7)


class TestCacheKeys:
    def test_capture_key_separates_results(self, dataset):
        with SelectionEngine(dataset) as engine:
            default = engine.execute(SelectionQuery(k=3))
            mnl = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0))
            )
            assert mnl.stats.result_cache == "miss"
            # Different betas are different keys.
            mnl_b3 = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=3.0))
            )
            assert mnl_b3.stats.result_cache == "miss"
            again = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0))
            )
            assert again.stats.result_cache == "hit"
            assert again.selected == mnl.selected
            assert default.selected is not None

    def test_default_spec_shares_legacy_key(self, dataset):
        with SelectionEngine(dataset) as engine:
            engine.execute(SelectionQuery(k=3))
            explicit = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="evenly-split"))
            )
            assert explicit.stats.result_cache == "hit"

    def test_world_seed_is_part_of_the_key(self, dataset):
        with SelectionEngine(dataset) as engine:
            a = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=1),
                )
            )
            b = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=2),
                )
            )
            assert b.stats.result_cache == "miss"
            again = engine.execute(
                SelectionQuery(
                    k=3,
                    capture=CaptureSpec(model="fixed-worlds", worlds=8, world_seed=1),
                )
            )
            assert again.stats.result_cache == "hit"
            assert again.selected == a.selected


class TestBitIdentityWithDirectSolve:
    def test_mnl_engine_matches_direct_solver(self, dataset):
        pf = paper_default_pf()
        model = MNLCaptureModel(SiteUtilities(dataset, pf), beta=2.0)
        direct = IQTSolver().solve(
            MC2LSProblem(dataset, k=4, tau=0.7, pf=pf, capture=model)
        )
        with SelectionEngine(dataset) as engine:
            served = engine.execute(
                SelectionQuery(
                    k=4, pf=pf, capture=CaptureSpec(model="mnl", mnl_beta=2.0)
                )
            )
        assert served.selected == direct.selected
        assert served.objective == direct.objective
        assert served.gains == direct.gains

    def test_candidate_mask_and_scalar_kernel(self, dataset):
        """A masked engine query equals the scalar capture oracle."""
        pf = paper_default_pf()
        spec = CaptureSpec(model="mnl", mnl_beta=1.5)
        mask = tuple(range(0, 8))
        with SelectionEngine(dataset) as engine:
            fast = engine.execute(
                SelectionQuery(k=3, capture=spec, candidate_ids=mask)
            )
        table = IQTSolver().resolve(dataset, 0.7, pf).table
        slow = scalar_capture_greedy(
            table.restricted(set(mask)), mask, 3, spec.build(dataset, pf)
        )
        assert fast.selected == slow.selected
        assert set(fast.selected) <= set(mask)


class TestShardedDegradation:
    def test_set_aware_falls_back_with_counter(self, dataset):
        with SelectionEngine(
            dataset, execution="sharded", shard_workers=2
        ) as engine:
            threaded_ref = IQTSolver().solve(
                MC2LSProblem(
                    dataset,
                    k=3,
                    tau=0.7,
                    capture=MNLCaptureModel(
                        SiteUtilities(dataset, paper_default_pf()), beta=2.0
                    ),
                )
            )
            served = engine.execute(
                SelectionQuery(k=3, capture=CaptureSpec(model="mnl", mnl_beta=2.0))
            )
            stats = engine.stats()["sharded"]
            assert stats["capture_fallbacks"] == 1
            assert stats["capture_supported"] == ["evenly-split"]
            assert served.selected == threaded_ref.selected

    def test_default_capture_does_not_fall_back(self, dataset):
        with SelectionEngine(
            dataset, execution="sharded", shard_workers=2
        ) as engine:
            engine.execute(SelectionQuery(k=3))
            assert engine.stats()["sharded"]["capture_fallbacks"] == 0


class TestStreamingRepublish:
    def _churned(self, session, seed=0):
        import numpy as np

        rng = np.random.default_rng(seed)
        uids = sorted(session._users)[:3]
        for uid in uids:
            user = session._users[uid]
            session.update_user(
                MovingUser(uid, user.positions + rng.normal(0, 0.4, user.positions.shape))
            )

    def test_non_default_prepared_instances_fail_patching(self, dataset):
        session = StreamingMC2LS.from_dataset(dataset, k=3, tau=0.7)
        with SelectionEngine(session.snapshot()) as engine:
            spec = CaptureSpec(model="mnl", mnl_beta=2.0)
            engine.execute(SelectionQuery(k=3, capture=spec))
            self._churned(session)
            engine.publish(session.snapshot())
            inc = engine.stats()["incremental"]
            assert inc["failed"] >= 1
            # Service continues correctly on the new population.
            after = engine.execute(SelectionQuery(k=3, capture=spec))
            assert after.stats.result_cache == "miss"
            assert len(after.selected) == 3

    def test_default_prepared_instances_still_patch(self, dataset):
        session = StreamingMC2LS.from_dataset(dataset, k=3, tau=0.7)
        with SelectionEngine(session.snapshot()) as engine:
            engine.execute(SelectionQuery(k=3))
            self._churned(session)
            engine.publish(session.snapshot())
            inc = engine.stats()["incremental"]
            assert inc["patched"] >= 1
            assert inc["failed"] == 0
