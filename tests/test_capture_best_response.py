"""The two-player best-response round: structure, determinism, bounds."""

import pytest

from repro import paper_default_pf
from repro.capture import (
    FixedWorldsCaptureModel,
    MNLCaptureModel,
    SiteUtilities,
    best_response_round,
    evenly_split_capture,
    rival_competitor_id,
    rival_table,
)
from repro.competition import InfluenceTable
from repro.exceptions import CaptureError
from repro.influence import BatchInfluenceEvaluator
from repro.solvers.base import resolve_all_pairs
from tests.conftest import build_instance
from tests.oracles import scalar_best_response


@pytest.fixture(scope="module")
def instance():
    dataset = build_instance(seed=21, n_users=50, n_candidates=14, n_facilities=6)
    pf = paper_default_pf()
    ev = BatchInfluenceEvaluator(pf, 0.6)
    omega_c, f_o = resolve_all_pairs(dataset, ev)
    table = InfluenceTable.from_mappings(omega_c, f_o)
    return dataset, pf, table, sorted(omega_c)


class TestRivalTable:
    def test_rivals_move_to_competitor_sets(self, instance):
        _, _, table, cids = instance
        rivals = cids[:2]
        out = rival_table(table, rivals)
        for cid in rivals:
            assert cid not in out.omega_c
            rid = rival_competitor_id(cid)
            for uid in table.omega_c[cid]:
                assert rid in out.f_o[uid]
        # Untouched rows are preserved.
        for cid in cids[2:]:
            assert out.omega_c[cid] == table.omega_c[cid]

    def test_unknown_rival_raises(self, instance):
        _, _, table, _ = instance
        with pytest.raises(CaptureError):
            rival_table(table, [10**9])

    def test_original_table_is_not_mutated(self, instance):
        _, _, table, cids = instance
        before = {uid: set(f) for uid, f in table.f_o.items()}
        rival_table(table, cids[:3])
        assert {uid: set(f) for uid, f in table.f_o.items()} == before


class TestBestResponseRound:
    @pytest.mark.parametrize("model_name", ["evenly-split", "mnl", "fixed-worlds"])
    def test_erosion_non_negative_and_deterministic(self, instance, model_name):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        model = {
            "evenly-split": lambda: evenly_split_capture(),
            "mnl": lambda: MNLCaptureModel(util, beta=2.0),
            "fixed-worlds": lambda: FixedWorldsCaptureModel(
                util, beta=2.0, n_worlds=32, seed=7
            ),
        }[model_name]()
        r1 = best_response_round(table, cids, 3, model)
        r2 = best_response_round(table, cids, 3, model)
        assert r1 == r2  # bit-reproducible
        assert r1.erosion >= 0.0
        assert r1.eroded_objective <= r1.leader_objective
        assert 0.0 <= r1.erosion_fraction <= 1.0
        assert set(r1.rival_selected).isdisjoint(r1.leader_initial)
        assert len(r1.leader_initial) == 3

    def test_fast_and_scalar_rounds_agree(self, instance):
        dataset, pf, table, cids = instance
        model = MNLCaptureModel(SiteUtilities(dataset, pf), beta=2.0)
        fast = best_response_round(table, cids, 3, model)
        with scalar_best_response():
            slow = best_response_round(table, cids, 3, model)
        assert fast.leader_initial == slow.leader_initial
        assert fast.rival_selected == slow.rival_selected
        assert fast.leader_adapted == slow.leader_adapted
        assert fast.eroded_objective == pytest.approx(
            slow.eroded_objective, abs=1e-9
        )

    def test_k_rival_zero_means_no_erosion(self, instance):
        dataset, pf, table, cids = instance
        model = MNLCaptureModel(SiteUtilities(dataset, pf), beta=2.0)
        report = best_response_round(table, cids, 3, model, k_rival=0)
        assert report.rival_selected == ()
        assert report.erosion == pytest.approx(0.0, abs=1e-12)
        assert report.eroded_objective == pytest.approx(
            report.leader_objective, abs=1e-12
        )

    def test_adapted_leader_recovers_some_capture(self, instance):
        dataset, pf, table, cids = instance
        model = evenly_split_capture()
        report = best_response_round(table, cids, 4, model)
        # Re-solving against the rival-aware world can never do worse
        # than keeping the eroded plan: greedy sees the eroded table and
        # the old plan remains available (minus rival-taken candidates).
        assert report.recovered >= -1e-12

    def test_world_seed_changes_fixed_worlds_round(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        a = best_response_round(
            table, cids, 3, FixedWorldsCaptureModel(util, n_worlds=16, seed=1)
        )
        b = best_response_round(
            table, cids, 3, FixedWorldsCaptureModel(util, n_worlds=16, seed=1)
        )
        assert a == b
