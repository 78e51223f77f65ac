"""Pruning rules: IA / NIB (facility-pruning) and IS / NIR (user-pruning)."""

from .regions import PruningRegionArrays, UserPruningRegions, regions_for
from .rules import (
    FacilityClassification,
    IQuadTreeStatsView,
    PinocchioPruner,
    is_rule_confirms,
    measure_iquadtree_pruning,
    measure_pinocchio_pruning,
    nir_rule_prunes,
)
from .stats import PruningStats

__all__ = [
    "FacilityClassification",
    "IQuadTreeStatsView",
    "PinocchioPruner",
    "PruningRegionArrays",
    "PruningStats",
    "UserPruningRegions",
    "is_rule_confirms",
    "measure_iquadtree_pruning",
    "measure_pinocchio_pruning",
    "nir_rule_prunes",
    "regions_for",
]
