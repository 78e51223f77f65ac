"""Unit tests of the capture subsystem's models and plumbing."""

import numpy as np
import pytest

from repro import paper_default_pf
from repro.capture import (
    DEFAULT_CAPTURE_KEY,
    REGISTERED_MODELS,
    CaptureSpec,
    FixedWorldsCaptureModel,
    MNLCaptureModel,
    SiteUtilities,
    densify_coverage,
    evenly_split_capture,
    pair_uniforms,
    rival_candidate_id,
    rival_competitor_id,
)
from repro.competition import EvenlySplitModel, InfluenceTable, cinf_group
from repro.exceptions import CaptureError, SolverError
from repro.influence import BatchInfluenceEvaluator
from repro.solvers.base import resolve_all_pairs
from tests.conftest import build_instance


def resolved_table(dataset, tau=0.7, pf=None):
    ev = BatchInfluenceEvaluator(pf or paper_default_pf(), tau)
    omega_c, f_o = resolve_all_pairs(dataset, ev)
    return InfluenceTable.from_mappings(omega_c, f_o), sorted(omega_c)


@pytest.fixture(scope="module")
def instance():
    dataset = build_instance(seed=11, n_users=40, n_candidates=14, n_facilities=8)
    pf = paper_default_pf()
    table, cids = resolved_table(dataset, pf=pf)
    return dataset, pf, table, cids


class TestSiteUtilities:
    def test_utilities_in_unit_interval(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        for cid in cids[:5]:
            for user in dataset.users[:5]:
                u = util.candidate_utility(cid, user.uid)
                assert 0.0 <= u <= 1.0

    def test_unknown_ids_raise(self, instance):
        dataset, pf, _, _ = instance
        util = SiteUtilities(dataset, pf)
        with pytest.raises(CaptureError):
            util.candidate_utility(10**9, dataset.users[0].uid)
        with pytest.raises(CaptureError):
            util.competitor_utility(10**9, dataset.users[0].uid)
        with pytest.raises(CaptureError):
            util.candidate_utility(0, 10**9)

    def test_rival_id_roundtrip(self):
        for cid in (0, 1, 7, 10**6):
            rid = rival_competitor_id(cid)
            assert rid < 0
            assert rival_candidate_id(rid) == cid
        with pytest.raises(CaptureError):
            rival_candidate_id(3)

    def test_rival_utility_resolves_to_candidate(self, instance):
        dataset, pf, _, cids = instance
        util = SiteUtilities(dataset, pf)
        uid = dataset.users[0].uid
        cid = cids[0]
        assert util.competitor_utility(
            rival_competitor_id(cid), uid
        ) == util.candidate_utility(cid, uid)


class TestPairUniforms:
    def test_deterministic_and_in_range(self):
        cids = np.array([0, 1, 2, 99], dtype=np.int64)
        uids = np.array([5, 5, 7, 7], dtype=np.int64)
        a = pair_uniforms(13, cids, uids, 32)
        b = pair_uniforms(13, cids, uids, 32)
        assert a.shape == (4, 32)
        np.testing.assert_array_equal(a, b)
        assert (a >= 0.0).all() and (a < 1.0).all()

    def test_independent_of_other_pairs(self):
        # The defining property: a pair's coins do not depend on which
        # other pairs are evaluated alongside it.
        full = pair_uniforms(
            3, np.array([4, 9, 2]), np.array([1, 1, 8]), 16
        )
        solo = pair_uniforms(3, np.array([9]), np.array([1]), 16)
        np.testing.assert_array_equal(full[1], solo[0])

    def test_seed_changes_coins(self):
        cids = np.array([0], dtype=np.int64)
        uids = np.array([0], dtype=np.int64)
        assert not np.array_equal(
            pair_uniforms(0, cids, uids, 64), pair_uniforms(1, cids, uids, 64)
        )


class TestDensify:
    def test_csr_matches_table(self, instance):
        _, _, table, cids = instance
        out_cids, user_ids, indptr, col, entry_cid = densify_coverage(table, cids)
        assert out_cids == tuple(cids)
        for j, cid in enumerate(out_cids):
            seg = col[indptr[j] : indptr[j + 1]]
            assert set(user_ids[seg].tolist()) == table.omega_c.get(cid, set())
            assert (entry_cid[indptr[j] : indptr[j + 1]] == cid).all()


class TestMNL:
    def test_beta_validation(self, instance):
        dataset, pf, _, _ = instance
        util = SiteUtilities(dataset, pf)
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(CaptureError):
                MNLCaptureModel(util, beta=bad)

    def test_capture_weights_bounded_and_monotone(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        model = MNLCaptureModel(util, beta=2.0)
        uids = sorted({u for users in table.omega_c.values() for u in users})
        small = model.capture_weights(table, uids, set(cids[:2]))
        large = model.capture_weights(table, uids, set(cids))
        assert (small >= 0.0).all() and (large <= 1.0).all()
        assert (large >= small - 1e-15).all()  # monotone in the offer set

    def test_state_gain_matches_scalar_oracle(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        model = MNLCaptureModel(util, beta=1.5)
        state = model.make_state(table, cids)
        chosen = []
        for j in (0, 3, 5):
            for jj in range(len(state.candidate_ids)):
                if jj in (0, 3, 5)[: len(chosen)]:
                    continue  # gain() is defined only for unselected js
                got = state.gain(jj)
                want = model.gain(table, chosen, state.candidate_ids[jj])
                assert got == pytest.approx(want, abs=1e-12)
            state.add(j)
            chosen.append(state.candidate_ids[j])

    def test_set_aware_flags(self, instance):
        dataset, pf, _, _ = instance
        model = MNLCaptureModel(SiteUtilities(dataset, pf))
        assert model.submodular and not model.set_independent
        with pytest.raises(CaptureError):
            model.weight_model


class TestFixedWorlds:
    def test_world_count_validation(self, instance):
        dataset, pf, _, _ = instance
        util = SiteUtilities(dataset, pf)
        for bad in (0, 65, -1):
            with pytest.raises(CaptureError):
                FixedWorldsCaptureModel(util, n_worlds=bad)

    def test_deterministic_per_seed(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        uids = sorted({u for users in table.omega_c.values() for u in users})
        a = FixedWorldsCaptureModel(util, n_worlds=16, seed=4)
        b = FixedWorldsCaptureModel(util, n_worlds=16, seed=4)
        c = FixedWorldsCaptureModel(util, n_worlds=16, seed=5)
        sel = set(cids[:4])
        np.testing.assert_array_equal(
            a.capture_weights(table, uids, sel),
            b.capture_weights(table, uids, sel),
        )
        assert a.cache_key() != c.cache_key()

    def test_state_gain_matches_scalar_oracle(self, instance):
        dataset, pf, table, cids = instance
        util = SiteUtilities(dataset, pf)
        model = FixedWorldsCaptureModel(util, n_worlds=24, seed=2)
        state = model.make_state(table, cids)
        chosen = []
        for j in (1, 4):
            for jj in range(len(state.candidate_ids)):
                if jj in (1, 4)[: len(chosen)]:
                    continue  # gain() is defined only for unselected js
                got = state.gain(jj)
                want = model.gain(table, chosen, state.candidate_ids[jj])
                assert got == pytest.approx(want, abs=1e-12)
            state.add(j)
            chosen.append(state.candidate_ids[j])


class TestEvenlySplitAdapter:
    def test_objective_bit_equal_to_cinf_group(self, instance):
        _, _, table, cids = instance
        model = evenly_split_capture()
        group = cids[:5]
        assert model.objective(table, group) == cinf_group(table, list(group))

    def test_set_independent_contract(self, instance):
        _, _, table, cids = instance
        model = evenly_split_capture()
        assert model.set_independent and model.submodular
        assert isinstance(model.weight_model, EvenlySplitModel)
        assert model.cache_key() == DEFAULT_CAPTURE_KEY
        with pytest.raises(CaptureError):
            model.make_state(table, cids)


class TestRegistry:
    def test_unknown_model_lists_registry(self):
        with pytest.raises(CaptureError) as exc:
            CaptureSpec(model="nope")
        msg = str(exc.value)
        for name in REGISTERED_MODELS:
            assert name in msg

    def test_cache_keys_ignore_foreign_params(self):
        a = CaptureSpec(model="evenly-split", mnl_beta=1.0)
        b = CaptureSpec(model="evenly-split", mnl_beta=99.0)
        assert a.cache_key() == b.cache_key() == DEFAULT_CAPTURE_KEY
        assert a.is_default and b.is_default
        m1 = CaptureSpec(model="mnl", mnl_beta=2.0, worlds=8)
        m2 = CaptureSpec(model="mnl", mnl_beta=2.0, worlds=64)
        assert m1.cache_key() == m2.cache_key()
        assert m1.cache_key() != CaptureSpec(model="mnl", mnl_beta=3.0).cache_key()

    def test_build_every_registered_model(self, instance):
        dataset, pf, table, cids = instance
        for name in REGISTERED_MODELS:
            model = CaptureSpec(model=name).build(dataset, pf)
            assert model.cache_key()[0] in (name, "evenly-split")
            obj = model.objective(table, cids[:3])
            assert obj >= 0.0

    def test_huff_utility_validation(self, instance):
        dataset, pf, _, _ = instance
        with pytest.raises(CaptureError):
            CaptureSpec(model="huff", huff_utility=0.0).build(dataset, pf)


class TestRunSelectionDispatch:
    def test_model_and_capture_are_exclusive(self, instance):
        _, pf, table, cids = instance
        from repro.solvers import run_selection

        with pytest.raises(SolverError):
            run_selection(
                table,
                cids,
                2,
                model=EvenlySplitModel(),
                capture=evenly_split_capture(),
            )
