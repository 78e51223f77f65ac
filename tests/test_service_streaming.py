"""Cache correctness under streaming updates (never serve stale results).

The property: after any sequence of streaming mutations followed by a
``publish_streaming``, the engine's answer equals a fresh, fully scalar
greedy solve on ``session.current_dataset()`` — the cache may speed
things up but can never change (or lag) the result.
"""

import numpy as np
import pytest

from repro.entities import MovingUser
from repro.service import SelectionEngine, SelectionQuery
from repro.solvers import BaselineGreedySolver, MC2LSProblem
from repro.streaming import StreamingMC2LS

from .conftest import build_instance
from .oracles import reference_solve


def fresh_scalar_reference(dataset, k, tau):
    problem = MC2LSProblem(dataset, k=k, tau=tau)
    return reference_solve(
        BaselineGreedySolver(), problem, batch_verify=False, fast_select=False
    )


def assert_matches_fresh(engine, session, k, tau):
    served = engine.execute(SelectionQuery(k=k, tau=tau))
    reference = fresh_scalar_reference(session.current_dataset(), k, tau)
    assert served.selected == reference.selected
    assert served.gains == reference.gains
    assert served.objective == reference.objective
    return served


def test_republish_after_mutation_serves_fresh_result():
    dataset = build_instance(seed=31, n_users=30, n_candidates=10)
    session = StreamingMC2LS.from_dataset(dataset, k=3, tau=0.6)
    with SelectionEngine(max_workers=2) as engine:
        engine.publish_streaming(session)
        before = assert_matches_fresh(engine, session, k=3, tau=0.6)
        # Warm hit on the same version.
        again = engine.execute(SelectionQuery(k=3, tau=0.6))
        assert again.stats.result_cache == "hit"
        assert again.selected == before.selected

        # Mutate hard enough to matter: drop a third of the users.
        for user in dataset.users[::3]:
            session.remove_user(user.uid)
        snap = engine.publish_streaming(session)
        assert snap.version == session.events_processed

        after = assert_matches_fresh(engine, session, k=3, tau=0.6)
        assert after.stats.result_cache == "miss"  # never the stale entry
        assert after.stats.snapshot_hash == snap.content_hash


@pytest.mark.parametrize("seed", [41, 42, 43])
def test_random_event_stream_property(seed):
    """Seeded random add/remove/update streams, re-checked after each burst."""
    rng = np.random.default_rng(seed)
    dataset = build_instance(seed=seed, n_users=24, n_candidates=8, r=6)
    session = StreamingMC2LS.from_dataset(dataset, k=2, tau=0.6)
    live = {u.uid: u for u in dataset.users}
    next_uid = max(live) + 1

    def random_user(uid):
        positions = np.clip(rng.normal(12.0, 4.0, size=(6, 2)), 0, 25)
        return MovingUser(uid, positions)

    with SelectionEngine(max_workers=2) as engine:
        engine.publish_streaming(session)
        assert_matches_fresh(engine, session, k=2, tau=0.6)
        for _burst in range(3):
            for _event in range(4):
                op = rng.integers(3)
                if op == 0 or not live:
                    user = random_user(next_uid)
                    session.add_user(user)
                    live[user.uid] = user
                    next_uid += 1
                elif op == 1:
                    uid = int(rng.choice(sorted(live)))
                    session.remove_user(uid)
                    del live[uid]
                else:
                    uid = int(rng.choice(sorted(live)))
                    user = random_user(uid)
                    session.update_user(user)
                    live[uid] = user
            engine.publish_streaming(session)
            # Both a fresh k and a previously queried k must be fresh.
            assert_matches_fresh(engine, session, k=2, tau=0.6)
            assert_matches_fresh(engine, session, k=3, tau=0.6)


def test_stale_entry_never_served_when_selection_changes():
    """Engineer a mutation that flips the winning candidate, then check
    the engine does not return the pre-mutation selection."""
    dataset = build_instance(seed=51, n_users=30, n_candidates=10)
    session = StreamingMC2LS.from_dataset(dataset, k=1, tau=0.6)
    with SelectionEngine(max_workers=2) as engine:
        engine.publish_streaming(session)
        before = engine.execute(SelectionQuery(k=1, tau=0.6))
        winner = before.selected[0]

        # Remove every user the winner influences: its gain drops to
        # zero, so the fresh selection must differ.
        reference = fresh_scalar_reference(session.current_dataset(), k=1, tau=0.6)
        covered = set(reference.table.omega_c.get(winner, ()))
        removable = [uid for uid in covered if uid in {u.uid for u in dataset.users}]
        if len(removable) == len(dataset.users):
            removable = removable[:-2]  # keep the instance non-degenerate
        for uid in removable:
            session.remove_user(uid)
        engine.publish_streaming(session)

        after = assert_matches_fresh(engine, session, k=1, tau=0.6)
        assert after.selected != before.selected or not removable
