"""Influence evaluation under road-network distances.

Replaces the Euclidean metric in the cumulative influence model with
*network* distance: user positions and facilities snap to their nearest
road nodes, and ``d(v, p) = snap(v) + shortest_path + snap(p)``.  One
Dijkstra per abstract facility (with a cutoff beyond which ``PF`` is
numerically zero) resolves that facility against the whole population —
the network analogue of the batch-wise property.

Positions farther than the cutoff contribute a survival factor of
exactly 1 (``PF = 0``), which truncates the logistic tail below 1e-12;
the truncation is part of the network model's definition and the tests
compare against a brute-force evaluator with the same semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

import numpy as np

from ..competition import InfluenceTable
from ..entities import AbstractFacility, SpatialDataset
from ..exceptions import DataError
from ..influence import ProbabilityFunction, paper_default_pf
from ..solvers import GreedyOutcome, run_selection
from .network import RoadNetwork

_PF_EPSILON = 1e-12


def _default_cutoff(pf: ProbabilityFunction) -> float:
    """Distance beyond which PF is numerically negligible (< 1e-12)."""
    try:
        return pf.inverse(_PF_EPSILON)
    except Exception:  # pragma: no cover - exotic PFs without tiny support
        return 50.0


class NetworkInfluenceModel:
    """Cumulative influence over a road network for a fixed population.

    Args:
        network: The road graph.
        dataset: Users (and the facility sets resolved later).
        pf: Distance-decay probability function.
        tau: Influence threshold.
        cutoff: Search radius per facility; defaults to the distance at
            which ``PF`` falls below 1e-12.
    """

    def __init__(
        self,
        network: RoadNetwork,
        dataset: SpatialDataset,
        pf: Optional[ProbabilityFunction] = None,
        tau: float = 0.7,
        cutoff: Optional[float] = None,
    ):
        if len(network) == 0:
            raise DataError("road network is empty")
        self.network = network
        self.dataset = dataset
        self.pf = pf or paper_default_pf()
        self.tau = tau
        self.cutoff = cutoff if cutoff is not None else _default_cutoff(self.pf)
        # Snap every user position once; group rows per snapped node so a
        # facility's Dijkstra result maps straight onto positions.
        self._user_nodes: Dict[int, np.ndarray] = {}
        self._user_offsets: Dict[int, np.ndarray] = {}
        for user in dataset.users:
            nodes, offsets = network.snap_many(user.positions)
            self._user_nodes[user.uid] = nodes
            self._user_offsets[user.uid] = offsets
        self.dijkstra_runs = 0

    # ------------------------------------------------------------------
    def influenced_users(self, facility: AbstractFacility) -> Set[int]:
        """All users influenced by ``facility`` under network distance."""
        v_node, v_offset = self.network.nearest_node(facility.x, facility.y)
        reach = self.network.shortest_paths(
            v_node, cutoff=max(self.cutoff - v_offset, 0.0)
        )
        self.dijkstra_runs += 1
        target = 1.0 - self.tau
        out: Set[int] = set()
        for user in self.dataset.users:
            nodes = self._user_nodes[user.uid]
            offsets = self._user_offsets[user.uid]
            q = 1.0
            for node, offset in zip(nodes.tolist(), offsets.tolist()):
                base = reach.get(node)
                if base is None:
                    continue  # beyond cutoff: survival factor 1
                d = v_offset + base + offset
                if d >= self.cutoff:
                    continue
                q *= 1.0 - float(self.pf(d))
                if q <= target:
                    break
            if q <= target:
                out.add(user.uid)
        return out

    def build_table(self) -> InfluenceTable:
        """Resolve ``Ω_c`` and ``F_o`` for the dataset's facility sets."""
        omega_c = {
            c.fid: self.influenced_users(c) for c in self.dataset.candidates
        }
        f_o: Dict[int, Set[int]] = {u.uid: set() for u in self.dataset.users}
        for f in self.dataset.facilities:
            for uid in self.influenced_users(f):
                f_o[uid].add(f.fid)
        return InfluenceTable(omega_c, f_o)


@dataclass(frozen=True)
class NetworkSolveResult:
    """Selection under the network metric, with the resolved table."""

    selected: Tuple[int, ...]
    objective: float
    gains: Tuple[float, ...]
    table: InfluenceTable
    dijkstra_runs: int


def solve_on_network(
    dataset: SpatialDataset,
    network: RoadNetwork,
    k: int,
    tau: float = 0.7,
    pf: Optional[ProbabilityFunction] = None,
    cutoff: Optional[float] = None,
) -> NetworkSolveResult:
    """Solve MC²LS with network distances end to end."""
    model = NetworkInfluenceModel(network, dataset, pf=pf, tau=tau, cutoff=cutoff)
    table = model.build_table()
    outcome: GreedyOutcome = run_selection(
        table, [c.fid for c in dataset.candidates], k
    )
    return NetworkSolveResult(
        selected=outcome.selected,
        objective=outcome.objective,
        gains=outcome.gains,
        table=table,
        dijkstra_runs=model.dijkstra_runs,
    )
