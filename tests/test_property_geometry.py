"""Property-based tests of the geometry algebra and the point quad-tree.

These invariants are what the spatial indexes silently rely on; a
violation anywhere would corrupt pruning soundness downstream.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import Point, Rect
from repro.spatial import QuadTree

coords = st.floats(min_value=-500, max_value=500, allow_nan=False, width=32)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coords), draw(coords)))
    y1, y2 = sorted((draw(coords), draw(coords)))
    return Rect(x1, y1, x2, y2)


@st.composite
def points(draw):
    return Point(draw(coords), draw(coords))


class TestRectAlgebra:
    @given(rects(), rects())
    @settings(max_examples=100)
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    @settings(max_examples=100)
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rects(), rects())
    @settings(max_examples=100)
    def test_intersection_symmetric_and_contained(self, a, b):
        i1 = a.intersection(b)
        i2 = b.intersection(a)
        assert i1 == i2
        if i1 is not None:
            assert a.contains_rect(i1) and b.contains_rect(i1)

    @given(rects(), rects())
    @settings(max_examples=100)
    def test_intersects_iff_intersection_exists(self, a, b):
        assert a.intersects(b) == (a.intersection(b) is not None)

    @given(rects(), points())
    @settings(max_examples=100)
    def test_min_le_max_distance(self, r, p):
        assert r.min_distance_to_point(p) <= r.max_distance_to_point(p) + 1e-9

    @given(rects(), points())
    @settings(max_examples=100)
    def test_containment_iff_zero_min_distance(self, r, p):
        inside = r.contains_point(p)
        assert inside == (r.min_distance_to_point(p) == 0.0)

    @given(rects(), st.floats(min_value=0, max_value=100))
    @settings(max_examples=100)
    def test_expand_monotone(self, r, margin):
        assert r.expanded(margin).contains_rect(r)
        assert r.expanded(margin).area >= r.area

    @given(rects(), rects())
    @settings(max_examples=100)
    def test_enlargement_non_negative(self, a, b):
        assert a.enlargement(b) >= -1e-9

    @given(rects())
    @settings(max_examples=50)
    def test_corners_inside(self, r):
        for c in r.corners():
            assert r.contains_point(c)
        assert r.diagonal == pytest.approx(
            r.corners()[0].distance_to(r.corners()[2])
        )


class TestQuadTreeNearest:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        region = Rect(0, 0, 100, 100)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 100, (150, 2))]
        qt = QuadTree(region, capacity=8)
        for i, p in enumerate(pts):
            qt.insert(p, i)
        q = Point(42.0, 57.0)
        expected = sorted(range(150), key=lambda i: q.distance_to(pts[i]))[:5]
        assert qt.nearest(q, k=5) == expected

    def test_k_larger_than_population(self):
        qt = QuadTree(Rect(0, 0, 10, 10))
        qt.insert(Point(1, 1), "a")
        assert qt.nearest(Point(0, 0), k=3) == ["a"]

    def test_validation(self):
        from repro.exceptions import IndexError_

        qt = QuadTree(Rect(0, 0, 10, 10))
        with pytest.raises(IndexError_):
            qt.nearest(Point(0, 0), k=0)
