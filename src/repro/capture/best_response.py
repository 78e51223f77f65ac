"""Two-player competitive round: leader, rival best response, re-solve.

The paper treats the competitor set as static.  This module plays one
best-response round of the induced two-player game on top of any
:class:`~repro.capture.CaptureModel`:

1. **Leader move** — greedily select the leader's set ``G₀`` on the
   original table (this is exactly the single-player MC²LS solve).
2. **Rival best response** — the rival, holding the *same* capture
   machinery, picks its ``k_rival`` sites from the remaining candidates
   against a world where ``G₀`` already operates: each selected leader
   candidate joins every covered user's competitor set under its
   synthetic rival id (:func:`~repro.capture.rival_competitor_id`), and
   the rival solves on that table restricted to ``C ∖ G₀``.
3. **Erosion accounting** — the leader's objective is re-evaluated on
   the table where the *rival's* sites ``B`` compete
   (``eroded = objective(table ⊕ B, G₀)``); the drop versus the
   uncontested objective is the **capture erosion**.
4. **Leader re-solve** — the leader re-selects ``G₁`` against the
   rival-aware table, measuring how much of the erosion a forewarned
   leader can win back.

All four steps reuse the production selection paths (CSR kernel for
set-independent models, CELF for set-aware ones), so the round doubles
as an end-to-end exercise of the capture subsystem; with a fixed-worlds
model the whole report is bit-reproducible for a given world seed, and
because pair coins are counter-based, rival entry can only flip users
*away* from the leader — erosion is exactly ``≥ 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from ..competition import InfluenceTable
from ..exceptions import CaptureError
from ..solvers.selection import CancelCheck
from .base import CaptureModel
from .utilities import rival_competitor_id


def rival_table(table: InfluenceTable, rivals: Iterable[int]) -> InfluenceTable:
    """The table after rival candidates ``rivals`` start operating.

    Each rival candidate leaves the selectable pool (its ``Ω_c`` row is
    dropped) and joins the competitor set ``F_o`` of every user it
    covers, under its synthetic negative id — candidate and facility id
    namespaces may collide, so rivals never reuse their raw cid.
    """
    rset = {int(c) for c in rivals}
    unknown = rset - set(table.omega_c)
    if unknown:
        raise CaptureError(
            f"rival candidates {sorted(unknown)} are not in the table"
        )
    omega_c = {
        cid: set(users)
        for cid, users in table.omega_c.items()
        if cid not in rset
    }
    f_o = {uid: set(fids) for uid, fids in table.f_o.items()}
    for cid in sorted(rset):
        rid = rival_competitor_id(cid)
        for uid in table.omega_c[cid]:
            f_o.setdefault(uid, set()).add(rid)
    return InfluenceTable(omega_c=omega_c, f_o=f_o)


def _solve(
    table: InfluenceTable,
    candidate_ids: Tuple[int, ...],
    k: int,
    model: CaptureModel,
    cancel_check: CancelCheck,
):
    """One greedy solve through the model's production path."""
    # Imported here to avoid a package cycle.
    from ..solvers.selection import run_selection

    return run_selection(
        table, candidate_ids, k, cancel_check=cancel_check, capture=model
    )


@dataclass(frozen=True)
class BestResponseReport:
    """Outcome of one two-player best-response round.

    Attributes:
        leader_initial: The leader's uncontested selection ``G₀``.
        leader_objective: Uncontested objective of ``G₀``.
        rival_selected: The rival's best-response set ``B``.
        rival_objective: The rival's captured demand on its table.
        eroded_objective: ``G₀``'s objective once ``B`` competes.
        erosion: Absolute capture lost, ``leader − eroded`` (``≥ 0``).
        erosion_fraction: ``erosion / leader_objective`` (0 when the
            uncontested objective is 0).
        leader_adapted: The forewarned leader's re-solve ``G₁`` against
            the rival-aware table.
        adapted_objective: Objective of ``G₁`` on that table.
        recovered: ``adapted − eroded`` — erosion won back by adapting.
    """

    leader_initial: Tuple[int, ...]
    leader_objective: float
    rival_selected: Tuple[int, ...]
    rival_objective: float
    eroded_objective: float
    erosion: float
    erosion_fraction: float
    leader_adapted: Tuple[int, ...]
    adapted_objective: float
    recovered: float


def best_response_round(
    table: InfluenceTable,
    candidate_ids: Iterable[int],
    k: int,
    model: CaptureModel,
    k_rival: Optional[int] = None,
    cancel_check: CancelCheck = None,
) -> BestResponseReport:
    """Play one leader/rival best-response round (see module docstring).

    Args:
        table: The uncontested influence table.
        candidate_ids: The shared candidate pool.
        k: Leader cardinality.
        model: Capture model both players optimise under.
        k_rival: Rival cardinality (defaults to ``k``, capped by the
            candidates remaining after the leader moves).
        cancel_check: Optional deadline probe, threaded into every solve.
    """
    cids = tuple(sorted({int(c) for c in candidate_ids}))
    leader = _solve(table, cids, k, model, cancel_check)
    g0 = tuple(sorted(leader.selected))

    pool = tuple(c for c in cids if c not in set(g0))
    k_riv = k if k_rival is None else int(k_rival)
    k_riv = min(k_riv, len(pool))
    contested = rival_table(table, g0)
    if k_riv > 0 and pool:
        riv_restricted = contested.restricted(set(pool))
        rival = _solve(riv_restricted, pool, k_riv, model, cancel_check)
        b = tuple(sorted(rival.selected))
        rival_objective = rival.objective
    else:
        b = ()
        rival_objective = 0.0

    eroded_table = rival_table(table, b) if b else table
    eroded = model.objective(eroded_table.restricted(set(g0)), g0)
    erosion = leader.objective - eroded
    fraction = erosion / leader.objective if leader.objective > 0 else 0.0

    adapted_pool = tuple(c for c in cids if c not in set(b))
    k_adapt = min(k, len(adapted_pool))
    if k_adapt > 0 and adapted_pool:
        adapted_restricted = eroded_table.restricted(set(adapted_pool))
        adapted = _solve(
            adapted_restricted, adapted_pool, k_adapt, model, cancel_check
        )
        g1 = tuple(sorted(adapted.selected))
        adapted_objective = adapted.objective
    else:
        g1 = ()
        adapted_objective = 0.0

    return BestResponseReport(
        leader_initial=g0,
        leader_objective=leader.objective,
        rival_selected=b,
        rival_objective=rival_objective,
        eroded_objective=eroded,
        erosion=erosion,
        erosion_fraction=fraction,
        leader_adapted=g1,
        adapted_objective=adapted_objective,
        recovered=adapted_objective - eroded,
    )
