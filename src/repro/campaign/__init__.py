"""Campaign runner: declarative grid sweeps, memoized and resumable.

The campaign layer turns the repo's one-shot benchmark protocols into
incremental experiments:

* :class:`CampaignSpec` / :class:`CampaignGrid` / :class:`DatasetAxis`
  — a declarative parameter grid (dataset spec × solver × capture
  model × τ × k × repeats), JSON-portable;
* :class:`RunPoint` — one pinned combination, keyed by the realized
  dataset content hash plus a canonical hash of the run parameters;
* :class:`ResultStore` — atomic per-point JSON records on disk, so a
  kill can never lose a completed point or persist a partial one;
* :class:`CampaignRunner` — plans the missing points and fans them out
  over persistent worker processes with per-point timeout and crash
  isolation (``--resume`` semantics fall out of the store);
* :class:`Aggregator` — median/spread row tables per grid, rendered
  through :mod:`repro.bench.reporting` and
  :mod:`repro.bench.svg_charts` like every committed benchmark;
* :mod:`~repro.campaign.shipped` — the standing campaigns
  (``fig-runtime-sweep``, ``capture-duel``, ``smoke``).

CLI: ``python -m repro campaign run|status|report|clean|smoke``.
"""

from .aggregate import Aggregator
from .points import SOLVER_FACTORIES, build_solver, execute_point
from .runner import CampaignPlan, CampaignRunner, PointTask, RunReport, plan_campaign
from .shipped import (
    SHIPPED_SPECS,
    capture_duel_spec,
    fig_runtime_sweep_spec,
    get_spec,
    smoke_spec,
)
from .spec import (
    CAMPAIGN_SOLVERS,
    CampaignGrid,
    CampaignSpec,
    DatasetAxis,
    RunPoint,
    canonical_capture,
    canonical_json,
    grid,
)
from .store import ResultStore

__all__ = [
    "Aggregator",
    "CAMPAIGN_SOLVERS",
    "CampaignGrid",
    "CampaignPlan",
    "CampaignRunner",
    "CampaignSpec",
    "DatasetAxis",
    "PointTask",
    "ResultStore",
    "RunPoint",
    "RunReport",
    "SHIPPED_SPECS",
    "SOLVER_FACTORIES",
    "build_solver",
    "canonical_capture",
    "canonical_json",
    "capture_duel_spec",
    "execute_point",
    "fig_runtime_sweep_spec",
    "get_spec",
    "grid",
    "plan_campaign",
    "smoke_spec",
]
