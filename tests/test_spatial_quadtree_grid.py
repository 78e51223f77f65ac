"""Unit tests for the PR quad-tree."""

import numpy as np
import pytest

from repro.exceptions import IndexError_
from repro.geo import Point, Rect
from repro.spatial import QuadTree

REGION = Rect(0, 0, 100, 100)


def random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, size=(n, 2))]


def brute_force(points, rect):
    return {i for i, p in enumerate(points) if rect.contains_point(p)}


class TestQuadTree:
    def test_validation(self):
        with pytest.raises(IndexError_):
            QuadTree(REGION, capacity=0)
        with pytest.raises(IndexError_):
            QuadTree(REGION, max_depth=0)
        with pytest.raises(IndexError_):
            QuadTree(Rect(0, 0, 0, 5), capacity=4)

    def test_insert_outside_region_raises(self):
        qt = QuadTree(REGION)
        with pytest.raises(IndexError_):
            qt.insert(Point(200, 50))

    @pytest.mark.parametrize("n", [1, 20, 300])
    def test_range_matches_brute_force(self, n):
        points = random_points(n, seed=n)
        qt = QuadTree(REGION, capacity=8)
        for i, p in enumerate(points):
            qt.insert(p, i)
        assert len(qt) == n
        for rect in [Rect(0, 0, 100, 100), Rect(25, 25, 50, 75), Rect(99, 99, 100, 100)]:
            assert set(qt.range_query(rect)) == brute_force(points, rect)

    def test_splitting_occurs(self):
        qt = QuadTree(REGION, capacity=4)
        for i, p in enumerate(random_points(100, seed=1)):
            qt.insert(p, i)
        assert qt.leaf_count() > 1
        assert qt.depth() >= 1

    def test_duplicate_points_respect_max_depth(self):
        qt = QuadTree(REGION, capacity=2, max_depth=5)
        for i in range(50):
            qt.insert(Point(10.0, 10.0), i)
        assert len(qt) == 50
        assert qt.depth() <= 5
        assert set(qt.range_query(Rect(9, 9, 11, 11))) == set(range(50))

    def test_iter_range_returns_points(self):
        qt = QuadTree(REGION)
        qt.insert(Point(5, 5), "a")
        pairs = list(qt.iter_range(Rect(0, 0, 10, 10)))
        assert pairs == [(Point(5, 5), "a")]

