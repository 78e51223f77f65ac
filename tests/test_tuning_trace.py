"""Record → replay round trips: bit-identity, failure outcomes, fixtures.

The invariants pinned here are the tuner's foundation:

* a recorded trace replayed under any **exact** config reproduces the
  recorded selections bit-for-bit — including traces with cancelled and
  deadline-expired queries, which replay to the same outcomes;
* replaying one trace twice under one config yields identical
  selections *and* identical cache-event sequences (determinism);
* the JSONL serialisation round-trips every event field, and malformed
  files fail with :class:`~repro.exceptions.TuningError`;
* the committed canned fixtures stay replayable.
"""

import json

import pytest

from repro.capture import CaptureSpec
from repro.data import california_like
from repro.exceptions import TuningError
from repro.influence import ExponentialPF, SigmoidPF
from repro.service import SelectionEngine, SelectionQuery
from repro.solvers import IQTSolver, MC2LSProblem
from repro.tuning import (
    CANNED_WORKLOADS,
    EngineConfig,
    TraceRecorder,
    TraceReplayer,
    WorkloadTrace,
    record_canned,
)
from repro.tuning.trace import TraceEvent, dataset_spec

SMALL = dict(n_users=50, n_candidates=8, n_facilities=16, seed=3)

FIXTURES = {
    "bursty": "tests/fixtures/traces/bursty_sweep.jsonl",
    "churn": "tests/fixtures/traces/streaming_churn.jsonl",
    "cold-start": "tests/fixtures/traces/cold_start_storm.jsonl",
}


# ----------------------------------------------------------------------
# SelectionQuery serialisation
# ----------------------------------------------------------------------
class TestQuerySerialisation:
    def test_default_query_round_trips(self):
        q = SelectionQuery(k=3, tau=0.65)
        assert SelectionQuery.from_dict(q.as_dict()) == q

    def test_full_query_round_trips(self):
        q = SelectionQuery(
            k=2,
            tau=0.6,
            solver="iqt-c",
            pf=ExponentialPF(p0=0.9, scale=2.0),
            candidate_ids=(1, 3, 5),
            deadline_s=1.5,
            use_cache=False,
            capture=CaptureSpec(model="mnl", mnl_beta=2.0),
        )
        back = SelectionQuery.from_dict(q.as_dict())
        # PF instances define no __eq__; their cache keys are identity.
        assert back.pf.cache_key() == q.pf.cache_key()
        assert isinstance(back.pf, ExponentialPF)
        assert back.as_dict() == q.as_dict()
        assert back.capture.model == "mnl"

    def test_as_dict_is_json_portable(self):
        q = SelectionQuery(k=2, tau=0.6, pf=SigmoidPF(rho=1.2))
        back = SelectionQuery.from_dict(json.loads(json.dumps(q.as_dict())))
        assert back.as_dict() == q.as_dict()
        assert back.pf.cache_key() == q.pf.cache_key()

    def test_retired_kernel_keys_are_ignored(self):
        """Recordings made when queries named a kernel still parse: the
        retired toggles drop out, leaving the same query, cache keys and
        selection."""
        plain = SelectionQuery(k=3, tau=0.65)
        legacy = dict(plain.as_dict(), batch_verify=False, fast_select=False)
        parsed = SelectionQuery.from_dict(legacy)
        assert parsed == plain
        assert parsed.as_dict() == plain.as_dict()
        dataset = california_like(**SMALL)
        with SelectionEngine(dataset) as engine:
            first = engine.execute(parsed)
            again = engine.execute(plain)
        assert first.stats.result_cache == "miss"
        assert again.stats.result_cache == "hit"
        direct = IQTSolver().solve(MC2LSProblem(dataset, k=3, tau=0.65))
        assert first.selected == again.selected == direct.selected
        assert first.gains == direct.gains


# ----------------------------------------------------------------------
# Trace JSONL round trip
# ----------------------------------------------------------------------
class TestTraceSerialisation:
    def test_save_load_round_trip(self, tmp_path):
        trace = record_canned("bursty", None, **SMALL)
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert loaded.name == trace.name
        assert loaded.dataset == trace.dataset
        assert loaded.streaming == trace.streaming
        assert loaded.engine == trace.engine
        assert len(loaded) == len(trace)
        for a, b in zip(loaded.events, trace.events):
            assert a.as_dict() == b.as_dict()

    def test_header_records_engine_config(self, tmp_path):
        config = EngineConfig(prepared_cache_size=8)
        trace = record_canned("cold-start", None, config=config, **SMALL)
        assert trace.engine["prepared_cache_size"] == 8

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TuningError, match="empty"):
            WorkloadTrace.load(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "no_header.jsonl"
        path.write_text('{"kind": "query", "offset_s": 0.0}\n')
        with pytest.raises(TuningError, match="header"):
            WorkloadTrace.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v99.jsonl"
        path.write_text(
            '{"kind": "header", "version": 99, "dataset": {}}\n'
        )
        with pytest.raises(TuningError, match="version"):
            WorkloadTrace.load(path)

    def test_malformed_event_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"kind": "header", "version": 1, "dataset": dataset_spec()}
            )
            + "\nnot json\n"
        )
        with pytest.raises(TuningError, match="line 2"):
            WorkloadTrace.load(path)

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(TuningError, match="kind"):
            TraceEvent.from_dict({"kind": "mystery"})

    def test_unknown_dataset_kind_rejected(self):
        with pytest.raises(TuningError, match="dataset kind"):
            dataset_spec(kind="mars")


# ----------------------------------------------------------------------
# Record → replay bit-identity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("workload", CANNED_WORKLOADS)
    def test_replay_reproduces_recorded_selections(self, workload):
        trace = record_canned(workload, None, **SMALL)
        report = TraceReplayer(trace).replay(EngineConfig())
        assert report.selection_mismatches(trace) == 0
        assert report.outcomes() == tuple(
            e.outcome for e in trace.query_events()
        )

    def test_bursty_replays_failure_outcomes(self):
        """The bursty plan ends in deadline-expired and cancelled queries,
        and replays reproduce both failure modes."""
        trace = record_canned("bursty", None, **SMALL)
        recorded = [e.outcome for e in trace.query_events()]
        assert recorded.count("deadline") == 2
        assert recorded.count("cancelled") == 2
        report = TraceReplayer(trace).replay(EngineConfig())
        assert report.outcomes().count("deadline") == 2
        assert report.outcomes().count("cancelled") == 2

    @pytest.mark.parametrize("workload", CANNED_WORKLOADS)
    def test_replay_twice_is_deterministic(self, workload):
        trace = record_canned(workload, None, **SMALL)
        replayer = TraceReplayer(trace)
        config = EngineConfig(prepared_cache_size=8, result_cache_size=64)
        first = replayer.replay(config)
        second = replayer.replay(config)
        assert first.selections() == second.selections()
        assert first.cache_sequence() == second.cache_sequence()
        assert first.outcomes() == second.outcomes()

    def test_streaming_churn_replay_matches_recording(self):
        """Publishes replayed from ``(moves, seed)`` rebuild identical
        snapshots, so post-churn selections match the recording too."""
        trace = record_canned("churn", None, **SMALL)
        assert any(e.kind == "publish" for e in trace.events)
        replayer = TraceReplayer(trace)
        first = replayer.replay(EngineConfig())
        second = replayer.replay(EngineConfig())
        assert first.selection_mismatches(trace) == 0
        assert first.selections() == second.selections()
        assert first.cache_sequence() == second.cache_sequence()

    def test_kernel_knob_overrides_keep_results(self):
        """Queries recorded with the scalar kernels forced replay to the
        recorded selections."""
        trace = record_canned("cold-start", None, **SMALL)
        for event in trace.query_events():
            event.query.update(batch_verify=False, fast_select=False)
        report = TraceReplayer(trace).replay(EngineConfig())
        assert report.selection_mismatches(trace) == 0

    def test_open_loop_pacing_matches_recorded_selections(self):
        trace = record_canned("cold-start", None, **SMALL)
        report = TraceReplayer(trace).replay(
            EngineConfig(), pacing="open-loop"
        )
        assert report.selection_mismatches(trace) == 0
        assert len(report.events) == sum(1 for _ in trace.query_events())

    def test_unknown_pacing_rejected(self):
        trace = record_canned("cold-start", None, **SMALL)
        with pytest.raises(TuningError, match="pacing"):
            TraceReplayer(trace).replay(EngineConfig(), pacing="warp")


# ----------------------------------------------------------------------
# Recorder journaling details
# ----------------------------------------------------------------------
class TestRecorder:
    def test_recorder_journals_stats_and_objective(self):
        from repro.tuning.trace import build_dataset

        spec = dataset_spec(**SMALL)
        engine = EngineConfig().make_engine(build_dataset(spec))
        try:
            recorder = TraceRecorder(engine, spec, name="unit")
            result = recorder.execute(SelectionQuery(k=2, tau=0.6))
        finally:
            engine.shutdown()
        event = recorder.trace.events[0]
        assert event.outcome == "ok"
        assert event.selected == list(result.selected)
        assert event.objective == result.objective
        assert event.stats["total_seconds"] > 0
        assert event.offset_s >= 0

    def test_submit_fills_journal_on_completion(self):
        from repro.tuning.trace import build_dataset

        spec = dataset_spec(**SMALL)
        engine = EngineConfig().make_engine(build_dataset(spec))
        try:
            recorder = TraceRecorder(engine, spec, name="unit")
            handle = recorder.submit(SelectionQuery(k=2, tau=0.6))
            result = handle.result(10.0)
        finally:
            engine.shutdown()
        event = recorder.trace.events[0]
        assert event.outcome == "ok"
        assert event.selected == list(result.selected)


# ----------------------------------------------------------------------
# Committed fixtures
# ----------------------------------------------------------------------
class TestCannedFixtures:
    @pytest.mark.parametrize("workload", CANNED_WORKLOADS)
    def test_fixture_loads(self, workload):
        trace = WorkloadTrace.load(FIXTURES[workload])
        assert trace.name == workload
        assert sum(1 for _ in trace.query_events()) >= 20

    def test_bursty_fixture_replay_is_deterministic(self):
        """The CI determinism smoke: two replays of the committed bursty
        fixture are identical in selections and cache events, and match
        the recording."""
        trace = WorkloadTrace.load(FIXTURES["bursty"])
        replayer = TraceReplayer(trace)
        first = replayer.replay(EngineConfig())
        second = replayer.replay(EngineConfig())
        assert first.selections() == second.selections()
        assert first.cache_sequence() == second.cache_sequence()
        assert first.outcomes() == second.outcomes()
        assert first.selection_mismatches(trace) == 0

    @pytest.mark.parametrize("workload", ["churn", "cold-start"])
    def test_fixture_replays_to_its_recording(self, workload):
        """The other committed fixtures, recorded when queries still
        named their kernels, replay deterministically to the recorded
        selections."""
        trace = WorkloadTrace.load(FIXTURES[workload])
        replayer = TraceReplayer(trace)
        first = replayer.replay(EngineConfig())
        second = replayer.replay(EngineConfig())
        assert first.selections() == second.selections()
        assert first.cache_sequence() == second.cache_sequence()
        assert first.selection_mismatches(trace) == 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(TuningError, match="unknown canned workload"):
            record_canned("quiet", None)
