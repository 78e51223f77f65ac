"""The array NIB/IA kernel decides every pair exactly like the scalar rules.

``PruningRegionArrays`` compares ``np.hypot`` distances with ``mMR`` and
re-decides the pairs near ``mMR`` with the scalar
``UserPruningRegions`` methods.  These tests place facilities on and
around each user's NIB and IA boundaries — at ``mMR`` from an MBR edge
and from an MBR corner, a few ulps either side — and check the three
vectorised tests pair for pair against the scalar ones.  They also show
the re-check is needed: the sampled boundary placements include pairs
where ``np.hypot`` and ``math.hypot`` round to opposite sides of
``mMR``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entities import MovingUser
from repro.geo import Point
from repro.influence import PositionArena, min_max_radius, paper_default_pf
from repro.pruning import PruningRegionArrays, UserPruningRegions

PF = paper_default_pf()


def _population(seed, n_users=40, max_r=12):
    """Users with 1..max_r positions, some with a single (degenerate) MBR."""
    rng = np.random.default_rng(seed)
    users = []
    for uid in range(n_users):
        r = int(rng.integers(1, max_r + 1))
        center = rng.uniform(0.0, 30.0, size=2)
        positions = center + rng.normal(0.0, 1.5, size=(r, 2))
        users.append(MovingUser(uid * 3 + 1, positions))
    return users


def _boundary_points(user, mmr, rng, per_kind=6):
    """Facility locations on and just off the user's NIB/IA boundaries."""
    mbr = user.mbr
    points = []
    for _ in range(per_kind):
        # At mMR beyond an edge (the NIB boundary's straight part).
        t = rng.uniform(0.0, 1.0)
        points.append((mbr.max_x + mmr, mbr.min_y + t * (mbr.max_y - mbr.min_y)))
        points.append((mbr.min_x + t * (mbr.max_x - mbr.min_x), mbr.min_y - mmr))
        # At mMR from a corner, outwards (the NIB boundary's arcs).
        theta = rng.uniform(0.0, math.pi / 2)
        ox, oy = mmr * math.cos(theta), mmr * math.sin(theta)
        points.append((mbr.max_x + ox, mbr.max_y + oy))
        # At mMR from the far corner, inwards (the IA boundary).
        points.append((mbr.min_x + ox, mbr.min_y + oy))
    points.append((mbr.min_x, mbr.min_y))  # on the MBR: distance 0
    out = []
    for x, y in points:
        for step in (-2, -1, 0, 1, 2):
            out.append(Point(_ulps(x, step), y))
    return out


def _ulps(x, n):
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.inf if n > 0 else -math.inf))
    return x


def _assert_matches_scalar(users, tau, points_for):
    arena = PositionArena.from_users(users)
    arrays = PruningRegionArrays(users, arena, tau, PF)
    rows = np.arange(len(users), dtype=np.int64)
    for row, user in enumerate(users):
        scalar = UserPruningRegions(user, min_max_radius(tau, user.r, PF))
        assert arrays.mmr[row] == scalar.mmr
        for p in points_for(user, scalar.mmr):
            nib_rect = arrays.nib_rect_contains(p, rows)
            nib = arrays.nib_contains(p, rows)
            ia = arrays.ia_contains(p, rows)
            for other, u in enumerate(users):
                regions = UserPruningRegions(u, float(arrays.mmr[other]))
                assert nib_rect[other] == regions.nib_rect().contains_point(p)
                assert nib[other] == regions.nib_contains(p)
                assert ia[other] == regions.ia_contains(p)


class TestPerRowArrays:
    def test_mbr_and_mmr_equal_the_scalar_regions(self):
        users = _population(seed=1)
        arrays = PruningRegionArrays(users, PositionArena.from_users(users), 0.7, PF)
        assert len(arrays) == len(users)
        for row, user in enumerate(users):
            mbr = user.mbr
            assert (arrays.min_x[row], arrays.min_y[row]) == (mbr.min_x, mbr.min_y)
            assert (arrays.max_x[row], arrays.max_y[row]) == (mbr.max_x, mbr.max_y)
            assert arrays.mmr[row] == min_max_radius(0.7, user.r, PF)

    def test_row_subsets_answer_in_row_order(self):
        users = _population(seed=2)
        arrays = PruningRegionArrays(users, PositionArena.from_users(users), 0.3, PF)
        p = Point(15.0, 15.0)
        rows = np.array([7, 3, 3, 0], dtype=np.int64)
        full = arrays.nib_contains(p, np.arange(len(users)))
        assert arrays.nib_contains(p, rows).tolist() == full[rows].tolist()
        assert arrays.nib_contains(p, rows[:0]).shape == (0,)


class TestBoundaryAgreement:
    @pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 0.9])
    def test_boundary_placements_match_scalar(self, tau):
        rng = np.random.default_rng(int(tau * 10))
        users = _population(seed=int(tau * 100), n_users=25)
        _assert_matches_scalar(
            users, tau, lambda user, mmr: _boundary_points(user, mmr, rng, per_kind=3)
        )

    def test_zero_mmr_users(self):
        """Single-position users at τ=0.9 have ``mMR`` 0: NIB is the
        point itself and IA is empty, even for a facility on it."""
        assert min_max_radius(0.9, 1, PF) == 0.0
        rng = np.random.default_rng(9)
        users = [MovingUser(i, rng.uniform(0, 5, size=(1, 2))) for i in range(6)]
        users.append(MovingUser(99, rng.uniform(0, 5, size=(20, 2))))
        _assert_matches_scalar(
            users,
            0.9,
            lambda user, mmr: [Point(*user.positions[0])]
            + _boundary_points(user, mmr, rng, per_kind=2),
        )

    def test_ulp_disagreements_are_decided_by_the_scalar_rule(self):
        """Find placements where ``np.hypot`` and ``math.hypot`` fall on
        opposite sides of ``mMR``; the kernel must follow ``math.hypot``."""
        rng = np.random.default_rng(2024)
        users = _population(seed=5, n_users=60)
        arena = PositionArena.from_users(users)
        arrays = PruningRegionArrays(users, arena, 0.5, PF)
        flips = 0
        for row, user in enumerate(users):
            mmr = float(arrays.mmr[row])
            if mmr == 0.0:
                continue
            regions = UserPruningRegions(user, mmr)
            one = np.array([row], dtype=np.int64)
            for p in _boundary_points(user, mmr, rng, per_kind=40):
                dx = max(user.mbr.min_x - p.x, 0.0, p.x - user.mbr.max_x)
                dy = max(user.mbr.min_y - p.y, 0.0, p.y - user.mbr.max_y)
                if (float(np.hypot(dx, dy)) <= mmr) != (math.hypot(dx, dy) <= mmr):
                    flips += 1
                    assert arrays.nib_contains(p, one)[0] == regions.nib_contains(p)
        assert flips > 0

    @given(
        seed=st.integers(0, 2**16),
        tau=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
        x=st.floats(-5.0, 35.0),
        y=st.floats(-5.0, 35.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_placements_match_scalar(self, seed, tau, x, y):
        users = _population(seed, n_users=12)
        _assert_matches_scalar(
            users, tau, lambda user, mmr: [Point(x, y)] if user is users[0] else []
        )
