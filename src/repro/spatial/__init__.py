"""Spatial index substrate: R-tree, quad-tree and the IQuad-tree."""

from .iquadtree import IQuadTree, IQuadTreeStats, TraversalResult
from .quadtree import QuadTree
from .rtree import RTree

__all__ = [
    "IQuadTree",
    "IQuadTreeStats",
    "QuadTree",
    "RTree",
    "TraversalResult",
]
