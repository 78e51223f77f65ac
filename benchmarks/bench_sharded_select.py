"""Sharded resolve+select scaling on a large synthetic population.

Times the full engine seam — influence resolution plus greedy selection —
three ways on one >= 500k-user synthetic population:

1. **single-process** — the engine's in-process path:
   ``resolve_all_pairs`` (batched kernel) into an ``InfluenceTable``,
   then the CSR ``CoverageMatrix.select``;
2. **sharded x W** — a :class:`~repro.service.ShardCoordinator` with
   ``W`` worker processes for each requested worker count (1/2/4 by
   default): shared-memory arena fan-out, per-shard batched resolve,
   distributed CELF greedy.

Every sharded outcome is checked bit-identical (selections, per-round
gains, objective) to the single-process reference, and the merged
resolution counters must equal the single-process ``EvaluationStats``,
before any timing is reported.  Timings follow the repeats/median/spread
discipline of :mod:`repro.bench.timing`; the payload records
``cpu_count`` so single-core containers (where worker processes time-slice
one core and the parallel speedup is structural, not superlinear) read
honestly.  Writes the ``BENCH_sharded_select.json`` trajectory point at
the repo root; ``--smoke`` (wired into the test suite and CI) runs a
reduced scale to a temporary path so the committed point cannot rot.
"""

import argparse
import json
import os
from pathlib import Path

from repro.bench.timing import repeat_timed
from repro.competition import InfluenceTable
from repro.data.synthetic import SyntheticSpec, generate_population
from repro.influence import BatchInfluenceEvaluator, paper_default_pf
from repro.service import ShardCoordinator
from repro.service.snapshot import DatasetSnapshot
from repro.solvers import CoverageMatrix
from repro.solvers.base import resolve_all_pairs

REPO_ROOT = Path(__file__).resolve().parents[1]

DEFAULT_TAU = 0.7


def _population_dataset(n_users, n_candidates, n_facilities, seed=0):
    """A uniform synthetic population sized for the scaling runs.

    Mirrors the California-like fingerprint but with a lighter
    positions-per-user mean so the >= 500k-user full-scale resolve stays
    tractable on one container core.
    """
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
        n_candidates, n_facilities, seed=seed + 1, name="sharded-bench"
    )


def run_sharded_select_benchmark(
    n_users: int = 500_000,
    n_candidates: int = 24,
    n_facilities: int = 24,
    k: int = 8,
    tau: float = DEFAULT_TAU,
    worker_counts=(1, 2, 4),
    prepare_repeats: int = 3,
    select_repeats: int = 5,
    out_path: Path = None,
) -> dict:
    """Time single-process vs sharded resolve+select and check identity."""
    dataset = _population_dataset(n_users, n_candidates, n_facilities)
    snapshot = DatasetSnapshot.from_dataset(dataset)
    pf = paper_default_pf()

    # Single-process reference: the engine's in-process resolve + select.
    def single_resolve():
        ev = BatchInfluenceEvaluator(pf, tau)
        omega, f_o = resolve_all_pairs(dataset, ev)
        return InfluenceTable.from_mappings(omega, f_o), ev.stats

    ref_prepare = repeat_timed(single_resolve, prepare_repeats)
    table, ref_stats = ref_prepare.result
    cids = [c.fid for c in dataset.candidates]
    matrix = CoverageMatrix(table, cids)
    ref_select = repeat_timed(lambda: matrix.select(k), select_repeats)
    ref_out = ref_select.result
    ref_total = ref_prepare.median_s + ref_select.median_s

    workers_payload = {}
    identical = True
    for w in worker_counts:
        with ShardCoordinator(w) as coord:

            def sharded_prepare():
                coord.detach()  # defeat the config cache: re-fan-out
                coord.prepare(snapshot, tau, pf)

            prep = repeat_timed(sharded_prepare, prepare_repeats)
            sel = repeat_timed(lambda: coord.select(k), select_repeats)
            out = sel.result
            stats = coord.stats
        total = prep.median_s + sel.median_s
        record = {
            "prepare": prep.summary(),
            "select": sel.summary(),
            "total_median_s": total,
            "speedup_vs_single_process": ref_total / total,
            "selections_equal": out.selected == ref_out.selected,
            "gains_equal": out.gains == ref_out.gains,
            "objective_equal": out.objective == ref_out.objective,
            "stats_equal": stats.__dict__ == ref_stats.__dict__,
        }
        identical = identical and all(
            record[key]
            for key in (
                "selections_equal",
                "gains_equal",
                "objective_equal",
                "stats_equal",
            )
        )
        workers_payload[str(w)] = record
    base = workers_payload[str(worker_counts[0])]["total_median_s"]
    for w in worker_counts:
        workers_payload[str(w)]["scaling_vs_1_worker"] = (
            base / workers_payload[str(w)]["total_median_s"]
        )

    payload = {
        "benchmark": "sharded_select",
        "n_users": n_users,
        "n_candidates": n_candidates,
        "n_facilities": n_facilities,
        "n_positions": int(dataset.arena.n_positions),
        "k": k,
        "tau": tau,
        "cpu_count": os.cpu_count(),
        "worker_counts": list(worker_counts),
        "single_process": {
            "prepare": ref_prepare.summary(),
            "select": ref_select.summary(),
            "total_median_s": ref_total,
        },
        "workers": workers_payload,
        "max_speedup_vs_single_process": max(
            r["speedup_vs_single_process"] for r in workers_payload.values()
        ),
        "results_identical": identical,
    }
    if out_path is not None:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sharded resolve+select scaling vs the single-process path"
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
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=None,
        help="worker counts to sweep (default: 1 2 4; smoke: 1 2)",
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_sharded_select.json at the repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        scale = dict(
            n_users=4_000,
            n_candidates=12,
            n_facilities=12,
            k=4,
            worker_counts=(1, 2),
            prepare_repeats=2,
            select_repeats=3,
        )
    else:
        scale = dict(
            n_users=500_000,
            n_candidates=24,
            n_facilities=24,
            k=8,
            worker_counts=(1, 2, 4),
            prepare_repeats=3,
            select_repeats=5,
        )
    if args.users:
        scale["n_users"] = args.users
    if args.candidates:
        scale["n_candidates"] = args.candidates
    if args.facilities:
        scale["n_facilities"] = args.facilities
    if args.k:
        scale["k"] = args.k
    if args.workers:
        scale["worker_counts"] = tuple(args.workers)
    if args.repeats:
        scale["prepare_repeats"] = args.repeats
        scale["select_repeats"] = args.repeats

    out = args.out or REPO_ROOT / "BENCH_sharded_select.json"
    payload = run_sharded_select_benchmark(out_path=out, **scale)
    print(json.dumps(payload, indent=2))
    if not payload["results_identical"]:
        print("ERROR: sharded results disagree with the single-process path")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
