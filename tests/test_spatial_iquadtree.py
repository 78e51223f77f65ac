"""Unit and property tests for the IQuad-tree (the paper's index)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entities import MovingUser
from repro.exceptions import IndexError_
from repro.geo import Point, Rect
from repro.influence import InfluenceEvaluator, PositionArena, paper_default_pf
from repro.spatial import IQuadTree
from tests.oracles import reference_is_nir

PF = paper_default_pf()
REGION = Rect(0, 0, 40, 40)


def make_users(n=40, r=12, seed=0, region=REGION):
    """Users with Gaussian activity clouds scattered over the region."""
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n):
        center = rng.uniform(
            [region.min_x + 3, region.min_y + 3],
            [region.max_x - 3, region.max_y - 3],
        )
        pos = rng.normal(center, scale=1.5, size=(r, 2))
        pos = np.clip(pos, [region.min_x, region.min_y], [region.max_x, region.max_y])
        users.append(MovingUser(uid, pos))
    return users


def arena_of(users):
    return PositionArena.from_users(users)


@pytest.fixture(scope="module")
def tree():
    return IQuadTree(arena_of(make_users()), d_hat=2.0, tau=0.7, pf=PF, region=REGION)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(IndexError_):
            IQuadTree(arena_of(make_users(2)), d_hat=0, tau=0.7, pf=PF, region=REGION)
        empty = PositionArena(
            np.zeros((0, 2)), np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        with pytest.raises(IndexError_):
            IQuadTree(empty, d_hat=2.0, tau=0.7, pf=PF, region=REGION)

    def test_leaf_diagonal_at_most_d_hat(self, tree):
        assert tree.level_diagonal(tree.depth) <= tree.d_hat + 1e-9

    def test_depth_not_excessive(self, tree):
        # one level shallower would violate the diagonal bound
        if tree.depth > 0:
            assert tree.level_diagonal(tree.depth - 1) > tree.d_hat

    def test_counts_conserve_positions(self, tree):
        users = make_users()
        total_positions = sum(u.r for u in users)
        # The node blocks of every level partition the positions.
        for level in range(tree.depth + 1):
            n = 1 << level
            in_nodes = sum(
                tree._node_block(level, nx, ny).size
                for nx in range(n)
                for ny in range(n)
            )
            assert in_nodes == total_positions

    def test_eta_monotone_in_level(self, tree):
        # deeper level -> smaller diagonal -> smaller eta
        etas = [tree.eta_for_level(level) for level in range(tree.depth + 1)]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_nir_positive(self, tree):
        assert tree.nir > 0

    def test_describe(self, tree):
        assert "IQuadTree" in tree.describe()


class TestLeafAddressing:
    def test_inside_points(self, tree):
        cell = tree.leaf_cell_of(1.0, 1.0)
        rect = tree.node_rect(tree.depth, *cell)
        assert rect.contains_xy(1.0, 1.0)

    def test_boundary_clamps(self, tree):
        cell = tree.leaf_cell_of(40.0, 40.0)
        assert all(0 <= c < tree._grid for c in cell)
        cell = tree.leaf_cell_of(-5.0, 500.0)
        assert all(0 <= c < tree._grid for c in cell)


class TestTraversalSoundness:
    """The heart of the index: its three-way split must be *sound*.

    For every abstract facility position v:
      * every user in `influenced` must satisfy Pr_v(o) >= tau,
      * every user pruned (neither influenced nor to_verify) must satisfy
        Pr_v(o) < tau.
    Users in `to_verify` may fall either way.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.3, 0.7])
    @pytest.mark.parametrize("exact_rounded", [False, True])
    def test_sound_against_exact_model(self, seed, tau, exact_rounded):
        users = make_users(n=30, r=10, seed=seed)
        arena = arena_of(users)
        t = IQuadTree(
            arena, d_hat=2.0, tau=tau, pf=PF, region=REGION, exact_rounded=exact_rounded
        )
        ev = InfluenceEvaluator(PF, tau=tau, early_stopping=False)
        by_uid = {u.uid: u for u in users}
        rng = np.random.default_rng(seed + 50)
        for vx, vy in rng.uniform(0, 40, size=(25, 2)):
            res = t.traverse(float(vx), float(vy))
            influenced = arena.uids[res.influenced].tolist()
            for uid in influenced:
                assert ev.probability(vx, vy, by_uid[uid].positions) >= tau - 1e-9
            to_verify = arena.uids[res.to_verify].tolist()
            pruned = set(by_uid) - set(influenced) - set(to_verify)
            for uid in pruned:
                assert ev.probability(vx, vy, by_uid[uid].positions) < tau

    def test_disjoint_sets(self, tree):
        res = tree.traverse(20.0, 20.0)
        assert not (set(res.influenced) & set(res.to_verify))

    def test_exact_rounded_prunes_no_less(self):
        users = make_users(n=30, r=10, seed=4)
        loose = IQuadTree(arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        tight = IQuadTree(
            arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION, exact_rounded=True
        )
        rng = np.random.default_rng(99)
        for vx, vy in rng.uniform(0, 40, size=(10, 2)):
            a = loose.traverse(float(vx), float(vy))
            b = tight.traverse(float(vx), float(vy))
            assert set(b.influenced) == set(a.influenced)
            assert set(b.to_verify) <= set(a.to_verify)


class TestBatchWiseMemoisation:
    def test_same_leaf_hits_cache(self):
        users = make_users(n=20, seed=5)
        t = IQuadTree(arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        a = t.traverse(10.0, 10.0)
        hits_before = t.stats.leaf_cache_hits
        b = t.traverse(10.1, 10.1)  # same 1.41-km leaf cell
        assert t.leaf_cell_of(10.0, 10.0) == t.leaf_cell_of(10.1, 10.1)
        assert t.stats.leaf_cache_hits == hits_before + 1
        assert np.array_equal(a.influenced, b.influenced)
        assert np.array_equal(a.to_verify, b.to_verify)

    def test_omega_inf_computed_once_per_node(self):
        users = make_users(n=20, seed=6)
        t = IQuadTree(arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        t.traverse(5.0, 5.0)
        first = t.stats.omega_inf_computations
        t.traverse(5.0, 35.0)  # different leaf, shares only upper levels
        second = t.stats.omega_inf_computations - first
        # The second traversal reuses at least the root's omega_inf.
        assert second < t.depth + 1

    def test_pair_accounting(self):
        users = make_users(n=25, seed=7)
        t = IQuadTree(arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        t.traverse(12.0, 12.0)
        t.traverse(30.0, 8.0)
        assert t.stats.traversals == 2
        assert t.stats.pairs_total == 2 * len(users)

    def test_stats_reset(self):
        users = make_users(n=10, seed=8)
        t = IQuadTree(arena_of(users), d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        t.traverse(1.0, 1.0)
        t.stats.reset()
        assert t.stats.traversals == 0
        assert t.stats.pairs_total == 0


class TestISRuleAtScale:
    def test_concentrated_user_is_confirmed_via_is(self):
        """A user with many positions piled next to a facility must be
        IS-confirmed (not merely sent to verification)."""
        pos = np.random.default_rng(0).normal([20.0, 20.0], 0.05, size=(40, 2))
        users = [MovingUser(0, pos)] + make_users(n=5, seed=9)
        users = [MovingUser(i, u.positions) for i, u in enumerate(users)]
        arena = arena_of(users)
        t = IQuadTree(arena, d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        res = t.traverse(20.0, 20.0)
        assert 0 in arena.uids[res.influenced].tolist()

    def test_remote_user_is_nir_pruned(self):
        far = MovingUser(0, np.full((10, 2), 39.0))
        near = MovingUser(1, np.full((10, 2), 1.0))
        arena = arena_of([far, near])
        t = IQuadTree(arena, d_hat=2.0, tau=0.7, pf=PF, region=REGION)
        res = t.traverse(1.0, 1.0)
        assert 0 not in arena.uids[res.influenced].tolist()
        assert 0 not in arena.uids[res.to_verify].tolist()  # pruned by NIR


class TestPositionsInLeaf:
    def test_returns_copy_with_right_positions(self, tree):
        users = make_users()
        u = users[0]
        cell = tree.leaf_cell_of(float(u.positions[0, 0]), float(u.positions[0, 1]))
        stored = tree.positions_in_leaf(cell)
        assert u.uid in stored
        rect = tree.node_rect(tree.depth, *cell)
        assert rect.expanded(1e-9).contains_mask(stored[u.uid]).all()


class TestAgainstBruteForceOracle:
    """Every traversal equals the brute-force IS/NIR split of the oracle.

    The populations always hold one user on exact cell edges and corners
    and one user outside the region (clipped into the border cells), plus
    random users drawn from edge, inside and outside coordinates.
    Regions cover a square, a wide rectangle, a single point (one
    d̂-sized root) and a d̂ large enough for a depth-0 tree.
    """

    @pytest.mark.parametrize("kind", ["square", "wide", "point", "depth0"])
    @pytest.mark.parametrize("exact_rounded", [False, True])
    @pytest.mark.parametrize("tau", [0.1, 0.5, 0.9])
    @given(data=st.data())
    @settings(max_examples=12, deadline=None)
    def test_rows_and_pair_counters_match(self, kind, exact_rounded, tau, data):
        ox = data.draw(st.floats(-5, 5), label="ox")
        oy = data.draw(st.floats(-5, 5), label="oy")
        width = data.draw(st.floats(0.5, 12), label="width")
        height = data.draw(st.floats(0.5, 12), label="height") if kind == "wide" else width
        if kind == "point":
            width = height = 0.0
        region = Rect(ox, oy, ox + width, oy + height)
        side = max(region.width, region.height)
        if kind == "depth0":
            d_hat = side * math.sqrt(2.0) * data.draw(st.floats(1.0, 2.0), label="k")
        else:
            d_hat = data.draw(st.floats(0.3, 3.0), label="d_hat")
        side = side or d_hat
        depth = max(0, math.ceil(math.log2(side * math.sqrt(2.0) / d_hat)))
        cell = side / (1 << depth)

        def edge(k, origin):
            return origin + k * cell

        coord_x = st.one_of(
            st.integers(-1, (1 << depth) + 1).map(lambda k: edge(k, ox)),
            st.floats(ox - 5, ox + side + 5),
        )
        coord_y = st.one_of(
            st.integers(-1, (1 << depth) + 1).map(lambda k: edge(k, oy)),
            st.floats(oy - 5, oy + side + 5),
        )
        point = st.tuples(coord_x, coord_y)
        corners = [(edge(k, ox), edge(j, oy)) for k in range(3) for j in range(2)]
        users = [
            MovingUser(0, np.array(corners * 2)),
            MovingUser(1, np.array([[ox - 1.0, oy + side + 1.5]] * 3)),
        ]
        for uid in range(2, 2 + data.draw(st.integers(0, 6), label="n")):
            pts = data.draw(st.lists(point, min_size=1, max_size=12), label="pts")
            users.append(MovingUser(uid, np.array(pts)))
        facilities = data.draw(st.lists(point, min_size=1, max_size=5), label="f")
        facilities += corners[:2] + [(ox - 2.0, oy + side + 3.0)]

        arena = arena_of(users)
        tree = IQuadTree(
            arena, d_hat=d_hat, tau=tau, pf=PF, region=region,
            exact_rounded=exact_rounded,
        )
        assert tree.depth == depth
        n_is = n_vrf = 0
        for fx, fy in facilities:
            res = tree.traverse(fx, fy)
            confirmed, to_verify = reference_is_nir(
                arena, Point(fx, fy), d_hat, tau, PF, region, exact_rounded
            )
            assert res.influenced.tolist() == confirmed.tolist()
            assert res.to_verify.tolist() == to_verify.tolist()
            n_is += confirmed.size
            n_vrf += to_verify.size
        assert tree.stats.pairs_is_confirmed == n_is
        assert tree.stats.pairs_to_verify == n_vrf
        assert tree.stats.pairs_nir_pruned == len(facilities) * len(users) - n_is - n_vrf
