"""KnobTuner: grid screening, measured confirmation, output schema."""

import json

import pytest

from repro.exceptions import TuningError
from repro.tuning import (
    CostModel,
    EngineConfig,
    KnobTuner,
    WorkloadTrace,
    record_canned,
)
from repro.tuning.tuner import (
    DEFAULT_SEARCH_SPACE,
    _memory_proxy,
    default_search_space,
)

SMALL = dict(n_users=50, n_candidates=8, n_facilities=16, seed=3)

#: A tiny grid keeping tuner tests fast; the default grid is exercised
#: by the autotune benchmark.
TINY_SPACE = {
    "prepared_cache_size": (8, 32),
    "result_cache_size": (64,),
    "max_workers": (1,),
    "shard_workers": (0,),  # pin: the default grid adds it on multi-core
}


def _toy_model():
    return CostModel(
        resolve_coeff=(0.010, 0.0),
        select_coeff=(0.001, 0.0),
        hit_seconds=1e-5,
    )


@pytest.fixture(scope="module")
def bursty_trace():
    return record_canned("bursty", None, **SMALL)


class TestCandidates:
    def test_grid_is_full_product(self, bursty_trace):
        tuner = KnobTuner(
            bursty_trace, cost_model=_toy_model(), search_space=TINY_SPACE
        )
        configs = list(tuner.candidates())
        assert len(configs) == 2
        assert {c.prepared_cache_size for c in configs} == {8, 32}
        # Unsearched knobs keep engine defaults.
        assert all(c.max_queued == 64 for c in configs)

    def test_memory_proxy_orders_cache_sizes(self):
        small = EngineConfig(prepared_cache_size=8, result_cache_size=64)
        big = EngineConfig(prepared_cache_size=64, result_cache_size=64)
        assert _memory_proxy(small) < _memory_proxy(big)

    def test_shard_workers_imply_sharded_execution(self, bursty_trace):
        space = dict(TINY_SPACE, shard_workers=(0, 2))
        tuner = KnobTuner(
            bursty_trace, cost_model=_toy_model(), search_space=space
        )
        by_workers = {c.shard_workers: c for c in tuner.candidates()
                      if c.prepared_cache_size == 8}
        assert by_workers[0].execution == "threaded"
        assert by_workers[2].execution == "sharded"


class TestDefaultSearchSpace:
    def test_multi_core_searches_shard_workers(self, monkeypatch):
        monkeypatch.setattr("repro.tuning.tuner.os.cpu_count", lambda: 4)
        space = default_search_space()
        assert space["shard_workers"] == (0, 2, 4)
        # The machine-independent knobs are unchanged.
        for key, values in DEFAULT_SEARCH_SPACE.items():
            assert space[key] == values

    def test_single_core_excludes_shard_workers(self, monkeypatch):
        monkeypatch.setattr("repro.tuning.tuner.os.cpu_count", lambda: 1)
        assert "shard_workers" not in default_search_space()

    def test_unknown_core_count_excludes_shard_workers(self, monkeypatch):
        monkeypatch.setattr("repro.tuning.tuner.os.cpu_count", lambda: None)
        assert "shard_workers" not in default_search_space()

    def test_tuner_picks_up_machine_grid(self, bursty_trace, monkeypatch):
        monkeypatch.setattr("repro.tuning.tuner.os.cpu_count", lambda: 4)
        tuner = KnobTuner(bursty_trace, cost_model=_toy_model())
        assert tuner.search_space["shard_workers"] == (0, 2, 4)

    def test_explicit_grid_is_used_unchanged(self, bursty_trace, monkeypatch):
        """A caller's grid replaces the machine grid: no sharding axis."""
        monkeypatch.setattr("repro.tuning.tuner.os.cpu_count", lambda: 2)
        space = {"prepared_cache_size": [8, 32], "max_workers": (1,)}
        tuner = KnobTuner(bursty_trace, cost_model=_toy_model(), search_space=space)
        assert tuner.search_space == {
            "prepared_cache_size": (8, 32),
            "max_workers": (1,),
        }
        assert len(list(tuner.candidates())) == 2


class TestTune:
    def test_recommends_wider_prepared_cache_for_bursty(self, bursty_trace):
        recommendation = KnobTuner(
            bursty_trace, cost_model=_toy_model(), search_space=TINY_SPACE
        ).tune(validate_top=1)
        assert recommendation.config.prepared_cache_size == 32
        assert recommendation.predicted.prepared_hits == 20
        assert recommendation.baseline_predicted.prepared_hits == 0
        assert recommendation.candidates_scored == 2

    def test_measured_section_carries_both_replays(self, bursty_trace):
        recommendation = KnobTuner(
            bursty_trace, cost_model=_toy_model(), search_space=TINY_SPACE
        ).tune(validate_top=1)
        measured = recommendation.measured
        assert measured["pacing"] == "asap"
        assert measured["baseline"]["queries"] == 44
        assert measured["tuned"]["queries"] == 44
        assert recommendation.speedup_p50 > 0

    def test_recommendation_never_worse_than_baseline(self, bursty_trace):
        """A grid holding only the baseline's own knob values can only
        recommend the baseline — ties go to what the operator has."""
        default = EngineConfig()
        recommendation = KnobTuner(
            bursty_trace,
            cost_model=_toy_model(),
            search_space={
                "prepared_cache_size": (default.prepared_cache_size,),
                "result_cache_size": (default.result_cache_size,),
                "max_workers": (default.max_workers,),
            },
        ).tune(validate_top=1)
        assert recommendation.config == default
        assert recommendation.candidates_scored == 1

    def test_output_schema_is_json_portable(self, bursty_trace):
        recommendation = KnobTuner(
            bursty_trace, cost_model=_toy_model(), search_space=TINY_SPACE
        ).tune(validate_top=1)
        payload = json.loads(json.dumps(recommendation.as_dict()))
        assert payload["trace"] == "bursty"
        assert set(payload) == {
            "trace", "recommended", "predicted", "baseline_predicted",
            "measured", "speedup_p50", "candidates_scored",
        }
        assert payload["recommended"]["exact"] is True
        # The emitted config round-trips back into an EngineConfig.
        assert EngineConfig.from_dict(payload["recommended"]) == (
            recommendation.config
        )

    def test_validate_top_must_be_positive(self, bursty_trace):
        with pytest.raises(TuningError, match="validate_top"):
            KnobTuner(bursty_trace, cost_model=_toy_model()).tune(
                validate_top=0
            )

    def test_empty_trace_rejected(self):
        trace = WorkloadTrace("empty", {"kind": "california"})
        with pytest.raises(TuningError, match="no queries"):
            KnobTuner(trace, cost_model=_toy_model()).tune()
