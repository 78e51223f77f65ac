"""Cost model: affine fits, calibration, the exact cache simulation.

Also covers the degenerate-input satellite: ``compute_stats`` and
``cost_features`` must return defined zeros (never divide by zero) on
empty or candidate-free populations.
"""

import pytest

from repro.data import california_like, compute_stats, cost_features
from repro.exceptions import TuningError
from repro.tuning import CostModel, EngineConfig, record_canned
from repro.tuning.cost_model import _fit_affine

SMALL = dict(n_users=50, n_candidates=8, n_facilities=16, seed=3)


def _toy_model(resolve=0.010, select=0.001, hit=1e-5):
    """A hand-built model: resolve/select constant per call, so predicted
    totals count cache events exactly."""
    return CostModel(
        resolve_coeff=(resolve, 0.0),
        select_coeff=(select, 0.0),
        hit_seconds=hit,
    )


# ----------------------------------------------------------------------
# Affine fitting
# ----------------------------------------------------------------------
class TestFitAffine:
    def test_exact_affine_recovered(self):
        xs = [10.0, 20.0, 40.0]
        ys = [0.001 + 2e-5 * x for x in xs]
        c0, c1 = _fit_affine(xs, ys)
        assert c0 == pytest.approx(0.001, rel=1e-6)
        assert c1 == pytest.approx(2e-5, rel=1e-6)

    def test_coefficients_never_negative(self):
        # A decreasing series would fit a negative slope; it is clamped.
        c0, c1 = _fit_affine([10.0, 20.0, 40.0], [0.003, 0.002, 0.001])
        assert c0 >= 0 and c1 >= 0
        # A negative intercept refits the slope through the origin.
        c0, c1 = _fit_affine([10.0, 20.0], [1e-5, 2e-2])
        assert c0 >= 0 and c1 >= 0

    def test_single_sample(self):
        assert _fit_affine([10.0], [0.01]) == (0.0, 0.001)
        assert _fit_affine([0.0], [0.01]) == (0.01, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(TuningError):
            _fit_affine([], [])


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------
class TestCalibration:
    def test_calibrate_produces_positive_costs(self):
        model = CostModel.calibrate(
            scales=((40, 6), (80, 10)), repeats=1
        )
        features = cost_features(california_like(
            n_users=60, n_candidates=8, n_facilities=16, seed=0
        ))
        assert model.resolve_seconds(features) > 0
        assert model.select_seconds(features, 3) > 0
        assert model.hit_seconds > 0

    def test_calibrate_rejects_zero_repeats(self):
        with pytest.raises(TuningError, match="repeats"):
            CostModel.calibrate(repeats=0)

    def test_round_trips_through_json_dict(self):
        model = _toy_model()
        back = CostModel.from_dict(model.as_dict())
        assert back.resolve_coeff == model.resolve_coeff
        assert back.select_coeff == model.select_coeff
        assert back.hit_seconds == model.hit_seconds

    def test_calibrate_fits_capture_select_coefficients(self):
        model = CostModel.calibrate(scales=((40, 6),), repeats=1)
        assert set(model.capture_select_coeff) == {"mnl", "fixed-worlds"}
        features = cost_features(california_like(
            n_users=60, n_candidates=8, n_facilities=16, seed=0
        ))
        for name in ("mnl", "fixed-worlds"):
            assert model.select_seconds(features, 3, capture_model=name) > 0

    def test_capture_coefficients_round_trip(self):
        model = _toy_model()
        model = CostModel(
            resolve_coeff=model.resolve_coeff,
            select_coeff=model.select_coeff,
            hit_seconds=model.hit_seconds,
            capture_select_coeff={"mnl": (0.5, 0.0)},
            calibrated_worlds=16,
        )
        back = CostModel.from_dict(model.as_dict())
        assert back == model

    def test_old_serialisations_load_without_capture_coefficients(self):
        old = _toy_model().as_dict()
        del old["capture_select_coeff"]
        del old["calibrated_worlds"]
        back = CostModel.from_dict(old)
        assert back.capture_select_coeff == {}
        assert back.calibrated_worlds == 8

    def test_old_two_kernel_dump_loads_the_production_fit(self):
        """Dumps fitted per kernel toggle keep the ``"true"`` fit: the
        batched verifier and the CSR selector the engine runs."""
        old = _toy_model(resolve=0.010, select=0.001).as_dict()
        old["resolve_coeff"] = {"true": [0.010, 2e-6], "false": [0.020, 4e-6]}
        old["select_coeff"] = {"true": [0.001, 3e-7], "false": [0.002, 6e-7]}
        back = CostModel.from_dict(old)
        assert back.resolve_coeff == (0.010, 2e-6)
        assert back.select_coeff == (0.001, 3e-7)
        assert CostModel.from_dict(back.as_dict()) == back


# ----------------------------------------------------------------------
# Trace cost prediction (the cache simulation)
# ----------------------------------------------------------------------
class TestPredictTrace:
    def test_detects_prepared_cache_thrash(self):
        """The bursty workload's τ set is wider than the default prepared
        cache: the simulation must predict all-miss at default size and
        hits once capacity covers the working set."""
        trace = record_canned("bursty", None, **SMALL)
        model = _toy_model()
        thrashed = model.predict_trace(trace, EngineConfig())
        roomy = model.predict_trace(
            trace, EngineConfig(prepared_cache_size=32)
        )
        assert thrashed.prepared_hits == 0
        assert thrashed.resolves == 40
        assert roomy.prepared_hits == 20
        assert roomy.resolves == 20
        assert roomy.total_s < thrashed.total_s

    def test_result_cache_hits_priced_as_hits(self):
        trace = record_canned("cold-start", None, **SMALL)
        # Duplicate the whole query stream: second pass is all result hits.
        trace.events = trace.events + trace.events
        model = _toy_model()
        predicted = model.predict_trace(trace, EngineConfig())
        assert predicted.result_hits == 30
        assert predicted.resolves == 30

    def test_failed_queries_cost_nothing(self):
        trace = record_canned("bursty", None, **SMALL)
        model = _toy_model()
        predicted = model.predict_trace(trace, EngineConfig())
        # 44 journaled query events, 4 of them deadline/cancelled.
        assert predicted.queries == 40

    def test_publish_invalidates_result_cache(self):
        trace = record_canned("churn", None, **SMALL)
        model = _toy_model()
        incremental = model.predict_trace(trace, EngineConfig())
        dropped = model.predict_trace(
            trace, EngineConfig(incremental=False)
        )
        # Non-incremental republish re-resolves after each publish.
        assert dropped.resolves > incremental.resolves
        assert dropped.total_s > incremental.total_s

    def test_capture_model_routes_to_its_own_coefficient(self):
        """A set-aware capture model with a calibrated CELF fit must be
        priced by that fit, not the kernel fit; models without one keep
        the kernel fallback."""
        base = _toy_model()
        fitted = CostModel(
            resolve_coeff=base.resolve_coeff,
            select_coeff=base.select_coeff,
            hit_seconds=base.hit_seconds,
            capture_select_coeff={"mnl": (0.010, 0.0)},  # 10x the kernel fit
        )
        features = {"n_users": 50, "verify_pairs": 100}
        kernel = fitted.select_seconds(features, 3)
        assert fitted.select_seconds(features, 3, capture_model="mnl") == \
            pytest.approx(10 * kernel)
        # huff has no CELF fit: falls back to the kernel coefficient.
        assert fitted.select_seconds(features, 3, capture_model="huff") == \
            pytest.approx(kernel)

    def test_fixed_worlds_cost_scales_from_calibrated_worlds(self):
        base = _toy_model()
        fitted = CostModel(
            resolve_coeff=base.resolve_coeff,
            select_coeff=base.select_coeff,
            hit_seconds=base.hit_seconds,
            capture_select_coeff={"fixed-worlds": (0.004, 0.0)},
            calibrated_worlds=8,
        )
        trace = record_canned("cold-start", None, **SMALL)
        for event in trace.events:
            if event.kind == "query":
                event.query["capture"] = {
                    "model": "fixed-worlds", "mnl_beta": 2.0,
                    "worlds": 16, "world_seed": 0,
                }
        narrow = fitted.predict_trace(trace, EngineConfig(worlds=8))
        wide = fitted.predict_trace(trace, EngineConfig(worlds=32))
        # 8 worlds = the calibrated cost, 32 worlds = 4x of it.
        assert wide.total_s > narrow.total_s
        resolves = narrow.resolves
        assert (wide.total_s - narrow.total_s) == pytest.approx(
            narrow.queries * (32 / 8 - 1) * 0.004, rel=1e-6
        )
        assert resolves == wide.resolves

    def test_mnl_queries_priced_by_celf_fit_in_simulation(self):
        trace = record_canned("cold-start", None, **SMALL)
        for event in trace.events:
            if event.kind == "query":
                event.query["capture"] = {"model": "mnl", "mnl_beta": 2.0}
        base = _toy_model()
        fitted = CostModel(
            resolve_coeff=base.resolve_coeff,
            select_coeff=base.select_coeff,
            hit_seconds=base.hit_seconds,
            capture_select_coeff={"mnl": (0.010, 0.0)},
        )
        assert fitted.predict_trace(trace, EngineConfig()).total_s > \
            base.predict_trace(trace, EngineConfig()).total_s


# ----------------------------------------------------------------------
# Degenerate dataset features (satellite)
# ----------------------------------------------------------------------
class _Stub:
    """The minimal surface ``compute_stats``/``cost_features`` touch."""

    def __init__(self, users=(), candidates=(), facilities=()):
        self.users = list(users)
        self.candidates = list(candidates)
        self.facilities = list(facilities)
        self.name = "stub"
        self.region = (0.0, 0.0, 1.0, 1.0)


class TestDegenerateFeatures:
    def test_compute_stats_empty_dataset_is_all_zeros(self):
        stats = compute_stats(_Stub())
        assert stats.n_users == 0
        assert stats.n_positions == 0
        assert stats.mean_positions_per_user == 0.0
        assert stats.max_positions_per_user == 0
        assert stats.positions_per_km2 == 0.0
        assert stats.mean_mbr_area_ratio == 0.0

    def test_cost_features_empty_dataset_is_all_zeros(self):
        features = cost_features(_Stub())
        assert features["n_users"] == 0
        assert features["verify_pairs"] == 0
        assert features["candidate_fan_in"] == 0.0
        assert features["select_cells"] == 0

    def test_cost_features_zero_candidates_no_division_error(self):
        dataset = california_like(
            n_users=20, n_candidates=2, n_facilities=4, seed=0
        )
        stub = _Stub(users=dataset.users, candidates=(), facilities=dataset.facilities)
        features = cost_features(stub)
        assert features["n_candidates"] == 0
        assert features["verify_pairs"] == 0
        assert features["candidate_fan_in"] == 0.0

    def test_cost_features_real_dataset_consistent(self):
        dataset = california_like(
            n_users=30, n_candidates=5, n_facilities=10, seed=0
        )
        features = cost_features(dataset)
        assert features["n_users"] == 30
        assert features["n_candidates"] == 5
        assert features["verify_pairs"] == features["n_positions"] * 5
        assert features["candidate_fan_in"] == pytest.approx(
            features["verify_pairs"] / 30
        )

    def test_model_prices_degenerate_features_finitely(self):
        model = _toy_model()
        features = cost_features(_Stub())
        assert model.resolve_seconds(features) == pytest.approx(0.010)
        assert model.select_seconds(features, 5) == pytest.approx(0.001)
