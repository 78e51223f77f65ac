"""Selection cost across the pluggable capture models.

Times greedy ``k``-selection on one synthetic population under every
registered capture model (:data:`repro.capture.REGISTERED_MODELS`):

* **evenly-split** / **huff** — set-independent; selection routes
  through the unchanged CSR ``reduceat``-screened kernel via
  ``run_selection(capture=...)``;
* **mnl** / **fixed-worlds** — set-aware; selection runs the CELF loop
  over the model's vectorized marginal-gain state
  (:func:`repro.capture.capture_select`).

Before any timing is reported, evenly-split through the capture contract
is checked **bit-identical** (selection, gains, objective) to the legacy
no-capture path — the degenerate-case guarantee the differential suite
pins at property scale, re-asserted here at benchmark scale.  For the
CELF models the payload records the lazy-evaluation count next to the
full-rescan count ``Σ_{i<k} (n − i)`` the non-submodular fallback would
pay, so the saving is visible in the trajectory point.

Timings follow the repeats/median/spread discipline of
:mod:`repro.bench.timing`.  Writes ``BENCH_capture_models.json`` at the
repo root; ``--smoke`` (wired into the test suite and CI) runs a reduced
scale to a temporary path so the committed point cannot rot.
"""

import argparse
import json
import os
from pathlib import Path

from repro.bench.timing import repeat_timed
from repro.capture import CaptureSpec, REGISTERED_MODELS, capture_select
from repro.competition import InfluenceTable
from repro.data.synthetic import SyntheticSpec, generate_population
from repro.influence import BatchInfluenceEvaluator, paper_default_pf
from repro.solvers import run_selection
from repro.solvers.base import resolve_all_pairs

REPO_ROOT = Path(__file__).resolve().parents[1]

DEFAULT_TAU = 0.7


def _population_dataset(n_users, n_candidates, n_facilities, seed=0):
    spec = SyntheticSpec(
        n_users=n_users,
        mean_positions=8.0,
        side=200.0,
        mbr_area_ratio=0.085,
        n_clusters=0,
        cluster_sigma_fraction=0.0,
        n_pois=max(2000, n_candidates + n_facilities),
        venues_per_user=4.0,
        venue_jitter=0.2,
    )
    population = generate_population(spec, seed=seed)
    return population.dataset(
        n_candidates, n_facilities, seed=seed + 1, name="capture-bench"
    )


def _rescan_evaluations(n_candidates: int, k: int) -> int:
    """Evaluations a full per-round rescan would pay for the same run."""
    return sum(n_candidates - i for i in range(k))


def run_capture_models_benchmark(
    n_users: int = 60_000,
    n_candidates: int = 40,
    n_facilities: int = 24,
    k: int = 8,
    tau: float = DEFAULT_TAU,
    mnl_beta: float = 2.0,
    worlds: int = 32,
    world_seed: int = 0,
    repeats: int = 5,
    out_path: Path = None,
) -> dict:
    """Time selection under every registered capture model."""
    dataset = _population_dataset(n_users, n_candidates, n_facilities)
    pf = paper_default_pf()
    ev = BatchInfluenceEvaluator(pf, tau)
    resolve_timing = repeat_timed(
        lambda: resolve_all_pairs(dataset, ev), repeats
    )
    omega, f_o = resolve_timing.result
    table = InfluenceTable.from_mappings(omega, f_o)
    cids = sorted(omega)

    # Degenerate-case guarantee at benchmark scale: evenly-split through
    # the capture contract is bit-identical to the legacy path.
    legacy = run_selection(table, cids, k)
    via_capture = run_selection(
        table, cids, k, capture=CaptureSpec().build(dataset, pf)
    )
    evenly_split_identical = (
        legacy.selected == via_capture.selected
        and legacy.gains == via_capture.gains
        and legacy.objective == via_capture.objective
    )

    specs = {
        "evenly-split": CaptureSpec(),
        "huff": CaptureSpec(model="huff"),
        "mnl": CaptureSpec(model="mnl", mnl_beta=mnl_beta),
        "fixed-worlds": CaptureSpec(
            model="fixed-worlds",
            mnl_beta=mnl_beta,
            worlds=worlds,
            world_seed=world_seed,
        ),
    }
    assert set(specs) == set(REGISTERED_MODELS)

    models_payload = {}
    for name in REGISTERED_MODELS:
        model = specs[name].build(dataset, pf)
        if model.set_independent:
            timing = repeat_timed(
                lambda m=model: run_selection(table, cids, k, capture=m), repeats
            )
            path = "csr-kernel"
        else:
            timing = repeat_timed(
                lambda m=model: capture_select(table, cids, k, m), repeats
            )
            path = "celf"
        outcome = timing.result
        record = {
            "path": path,
            "select": timing.summary(),
            "selected": list(outcome.selected),
            "objective": outcome.objective,
            "evaluations": outcome.evaluations,
        }
        if path == "celf":
            rescan = _rescan_evaluations(len(cids), k)
            record["rescan_evaluations"] = rescan
            record["celf_saving"] = 1.0 - outcome.evaluations / rescan
        models_payload[name] = record

    base = models_payload["evenly-split"]["select"]["median_s"]
    for record in models_payload.values():
        record["slowdown_vs_evenly_split"] = record["select"]["median_s"] / base

    payload = {
        "benchmark": "capture_models",
        "n_users": n_users,
        "n_candidates": n_candidates,
        "n_facilities": n_facilities,
        "n_resolved_candidates": len(cids),
        "k": k,
        "tau": tau,
        "mnl_beta": mnl_beta,
        "worlds": worlds,
        "world_seed": world_seed,
        "cpu_count": os.cpu_count(),
        "evenly_split_bit_identical": evenly_split_identical,
        "resolve": resolve_timing.summary(),
        "models": models_payload,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Selection cost across the pluggable capture models"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="quick run at reduced scale; used by the test suite and CI",
    )
    parser.add_argument("--users", type=int, default=None)
    parser.add_argument("--candidates", type=int, default=None)
    parser.add_argument("--facilities", type=int, default=None)
    parser.add_argument("--k", type=int, default=None)
    parser.add_argument("--mnl-beta", type=float, default=None)
    parser.add_argument("--worlds", type=int, default=None)
    parser.add_argument("--world-seed", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_capture_models.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = dict(
            n_users=3_000, n_candidates=16, n_facilities=12, k=4, repeats=3
        )
    else:
        scale = dict(
            n_users=60_000, n_candidates=40, n_facilities=24, k=8, repeats=5
        )
    if args.users:
        scale["n_users"] = args.users
    if args.candidates:
        scale["n_candidates"] = args.candidates
    if args.facilities:
        scale["n_facilities"] = args.facilities
    if args.k:
        scale["k"] = args.k
    if args.mnl_beta:
        scale["mnl_beta"] = args.mnl_beta
    if args.worlds:
        scale["worlds"] = args.worlds
    if args.world_seed is not None:
        scale["world_seed"] = args.world_seed
    if args.repeats:
        scale["repeats"] = args.repeats

    out = args.out or REPO_ROOT / "BENCH_capture_models.json"
    payload = run_capture_models_benchmark(out_path=out, **scale)
    print(json.dumps(payload, indent=2))
    if not payload["evenly_split_bit_identical"]:
        print("ERROR: evenly-split via the capture contract diverged from legacy")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
