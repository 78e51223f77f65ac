"""Sharded execution through the coordinator and the serving engine.

Covers the tentpole's observable guarantees: bit-identity to the
single-process path across solvers and kernel knobs, graceful fallback,
publish/republish hygiene, and the leak-proof worker-crash path.
"""

import glob

import numpy as np
import pytest

from tests.conftest import build_instance
from repro.competition import InfluenceTable
from repro.exceptions import ServiceError, ShardError, SolverError
from repro.influence import BatchInfluenceEvaluator, paper_default_pf
from repro.service import (
    SOLVER_FACTORIES,
    SelectionEngine,
    SelectionQuery,
    ShardCoordinator,
)
from repro.service.shared import SEGMENT_PREFIX
from repro.service.snapshot import DatasetSnapshot
from repro.solvers import CoverageMatrix, MC2LSProblem
from repro.solvers.base import resolve_all_pairs
from tests.oracles import reference_solve

TAU = 0.7


def _devshm_segments():
    return set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))


@pytest.fixture
def preexisting_segments():
    """Segments owned by other processes (e.g. a concurrently running
    benchmark); leak assertions only check for *new* orphans."""
    return _devshm_segments()


@pytest.fixture(scope="module")
def instance():
    return build_instance(seed=21, n_users=180, n_candidates=30, n_facilities=10)


@pytest.fixture(scope="module")
def snapshot(instance):
    return DatasetSnapshot(instance)


def _reference_matrix(dataset, tau=TAU):
    ev = BatchInfluenceEvaluator(paper_default_pf(), tau)
    omega, f_o = resolve_all_pairs(dataset, ev)
    table = InfluenceTable.from_mappings(omega, f_o)
    cids = sorted(c.fid for c in dataset.candidates)
    return CoverageMatrix(table, cids), ev.stats


# ----------------------------------------------------------------------
# Coordinator-level identity
# ----------------------------------------------------------------------
def test_coordinator_matches_single_process(instance, snapshot, preexisting_segments):
    matrix, ref_stats = _reference_matrix(instance)
    ref = matrix.select(5)
    with ShardCoordinator(3) as coord:
        assert coord.prepare(snapshot, TAU, paper_default_pf()) is True
        out = coord.select(5)
        assert out.selected == ref.selected
        assert out.gains == ref.gains
        assert out.objective == ref.objective
        # Merged resolution counters equal the single-process resolve.
        assert coord.stats.__dict__ == ref_stats.__dict__
        # Same config again: preparation is a hit.
        assert coord.prepare(snapshot, TAU, paper_default_pf()) is False
    assert _devshm_segments() <= preexisting_segments


def test_coordinator_candidate_mask(instance, snapshot):
    matrix, _ = _reference_matrix(instance)
    cids = matrix.candidate_ids
    mask = list(cids[::3])
    ref = matrix.restrict(mask).select(3)
    with ShardCoordinator(2) as coord:
        coord.prepare(snapshot, TAU, paper_default_pf())
        out = coord.select(3, candidate_ids=mask)
        assert out.selected == ref.selected
        assert out.gains == ref.gains


def test_coordinator_more_workers_than_users():
    tiny = build_instance(seed=5, n_users=3, n_candidates=6, n_facilities=2)
    matrix, _ = _reference_matrix(tiny)
    ref = matrix.select(2)
    with ShardCoordinator(5) as coord:
        coord.prepare(DatasetSnapshot(tiny), TAU, paper_default_pf())
        out = coord.select(2)
        assert out.selected == ref.selected
        assert out.gains == ref.gains


def test_coordinator_load_matrix_handoff(instance):
    matrix, _ = _reference_matrix(instance)
    ref = matrix.select(4)
    with ShardCoordinator(3) as coord:
        coord.load_matrix(matrix, "d" * 64)
        out = coord.select(4)
        assert out.selected == ref.selected
        assert out.gains == ref.gains
        assert out.objective == ref.objective


def test_coordinator_protocol_errors(instance, snapshot):
    with ShardCoordinator(2) as coord:
        with pytest.raises(ShardError, match="prepare"):
            coord.select(3)
        coord.prepare(snapshot, TAU, paper_default_pf())
        with pytest.raises(SolverError):
            coord.select(0)
        with pytest.raises(SolverError):
            coord.select(10_000)
        with pytest.raises(SolverError, match="unknown"):
            coord.select(2, candidate_ids=[999_999])
        # Handler-level errors leave the fleet alive; re-prepare recovers.
        assert coord.broken is None
        coord.prepare(snapshot, TAU, paper_default_pf())
        assert coord.select(2).selected


def test_coordinator_close_is_idempotent(snapshot, preexisting_segments):
    coord = ShardCoordinator(2)
    coord.prepare(snapshot, TAU, paper_default_pf())
    coord.close()
    coord.close()
    with pytest.raises(ShardError, match="broken"):
        coord.select(1)
    assert _devshm_segments() <= preexisting_segments


# ----------------------------------------------------------------------
# Engine-level identity across solvers, and against the scalar greedy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("solver", ["baseline", "iqt", "iqt-pino"])
@pytest.mark.parametrize("fast_select", [True, False])
def test_engine_sharded_matches_threaded(instance, solver, fast_select, preexisting_segments):
    """``fast_select=False`` checks the sharded result against a direct
    solve whose selection runs the scalar greedy oracle instead."""
    sharded = SelectionEngine(instance, execution="sharded", shard_workers=2)
    threaded = SelectionEngine(instance)
    try:
        for k, tau in [(1, 0.7), (4, 0.7), (3, 0.6)]:
            q = SelectionQuery(k=k, tau=tau, solver=solver, use_cache=False)
            rs = sharded.execute(q)
            rt = threaded.execute(q)
            if not fast_select:
                rt = reference_solve(
                    SOLVER_FACTORIES[solver](),
                    MC2LSProblem(instance, k=k, tau=tau),
                    fast_select=False,
                )
            assert rs.selected == rt.selected
            assert rs.gains == rt.gains
            assert rs.objective == rt.objective
    finally:
        sharded.shutdown()
        threaded.shutdown()
    assert _devshm_segments() <= preexisting_segments


def test_engine_sharded_candidate_mask(instance):
    cids = sorted(c.fid for c in instance.candidates)
    mask = tuple(cids[:10])
    sharded = SelectionEngine(instance, execution="sharded", shard_workers=2)
    threaded = SelectionEngine(instance)
    try:
        q = SelectionQuery(k=3, candidate_ids=mask, use_cache=False)
        rs = sharded.execute(q)
        rt = threaded.execute(q)
        assert rs.selected == rt.selected
        assert rs.gains == rt.gains
    finally:
        sharded.shutdown()
        threaded.shutdown()


def test_engine_sharded_provenance_and_result_cache(instance):
    engine = SelectionEngine(instance, execution="sharded", shard_workers=2)
    try:
        q = SelectionQuery(k=3)
        first = engine.execute(q)
        assert first.stats.prepared_cache == "sharded-miss"
        # Identical query: result cache absorbs it before the fleet runs.
        second = engine.execute(q)
        assert second.stats.result_cache == "hit"
        # Same prepared config, different k: fleet runs, prepare hits.
        third = engine.execute(SelectionQuery(k=4))
        assert third.stats.prepared_cache == "sharded-hit"
        stats = engine.stats()["sharded"]
        assert stats["execution"] == "sharded"
        assert stats["queries"] == 2
        assert stats["failures"] == 0
    finally:
        engine.shutdown()


def test_engine_fallback_below_two_workers(instance):
    engine = SelectionEngine(instance, execution="sharded", shard_workers=1)
    try:
        result = engine.execute(SelectionQuery(k=3))
        assert result.selected  # served on the threaded path
        stats = engine.stats()["sharded"]
        assert stats["fallbacks"] == 1
        assert stats["queries"] == 0
        assert stats["active"] is False
    finally:
        engine.shutdown()


def test_engine_rejects_unknown_execution(instance):
    with pytest.raises(ServiceError, match="execution"):
        SelectionEngine(instance, execution="gpu")


def test_engine_republish_detaches_fleet(instance, preexisting_segments):
    other = build_instance(seed=77, n_users=150, n_candidates=25, n_facilities=8)
    engine = SelectionEngine(instance, execution="sharded", shard_workers=2)
    threaded = SelectionEngine(other)
    try:
        engine.execute(SelectionQuery(k=3))
        engine.publish(other)
        result = engine.execute(SelectionQuery(k=3, use_cache=False))
        reference = threaded.execute(SelectionQuery(k=3, use_cache=False))
        assert result.stats.prepared_cache == "sharded-miss"
        assert result.selected == reference.selected
        assert result.gains == reference.gains
    finally:
        engine.shutdown()
        threaded.shutdown()
    assert _devshm_segments() <= preexisting_segments


# ----------------------------------------------------------------------
# Worker-crash path
# ----------------------------------------------------------------------
def test_worker_kill_raises_cleanly_and_leaves_no_segments(instance, preexisting_segments):
    engine = SelectionEngine(instance, execution="sharded", shard_workers=2)
    try:
        engine.execute(SelectionQuery(k=2))
        coord = engine._coordinator
        assert coord is not None and (_devshm_segments() - preexisting_segments)
        coord._workers[0].process.kill()
        coord._workers[0].process.join(timeout=5.0)
        # Next fleet round trips over the dead pipe: clean ShardError,
        # full teardown, nothing orphaned in /dev/shm.
        with pytest.raises(ShardError):
            engine.execute(SelectionQuery(k=5, use_cache=False))
        assert _devshm_segments() <= preexisting_segments
        assert engine.stats()["sharded"]["failures"] == 1
        # The engine dropped the broken coordinator: the next query
        # starts a fresh fleet and serves correctly.
        revived = engine.execute(SelectionQuery(k=2, use_cache=False))
        reference = SelectionEngine(instance)
        try:
            expect = reference.execute(SelectionQuery(k=2, use_cache=False))
        finally:
            reference.shutdown()
        assert revived.selected == expect.selected
        assert revived.gains == expect.gains
    finally:
        engine.shutdown()
    assert _devshm_segments() <= preexisting_segments


def test_coordinator_fail_unlinks_segments(snapshot, preexisting_segments):
    coord = ShardCoordinator(2)
    try:
        coord.prepare(snapshot, TAU, paper_default_pf())
        assert _devshm_segments() - preexisting_segments
        for w in coord._workers:
            w.process.kill()
            w.process.join(timeout=5.0)
        with pytest.raises(ShardError):
            coord.select(2)
        assert coord.broken is not None
        assert _devshm_segments() <= preexisting_segments
    finally:
        coord.close()
