"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``solve``    — solve one MC²LS instance and print the selection.
* ``compare``  — run all four algorithms on one instance, check they
  agree, and print the runtime/work comparison.
* ``compete``  — play a two-player best-response round (leader solve,
  rival best response, erosion accounting, leader re-solve).
* ``serve``    — run a what-if query batch through the serving engine
  and print per-query cache provenance plus engine stats.
* ``stats``    — print the distribution statistics of a dataset.
* ``generate`` — write a synthetic SNAP-format check-in file.
* ``record``   — record a canned workload trace (JSONL) against a live
  engine for later replay/tuning.
* ``replay``   — replay a recorded trace under any engine config and
  print the latency/cache report (optionally verifying that replayed
  selections match the recording).
* ``tune``     — search the serving knob space against a recorded trace
  (cost-model screening + measured replay) and emit the recommended
  config as JSON.

Datasets are either the calibrated synthetic populations (``--dataset c``
/ ``--dataset n``) or a real SNAP check-in dump (``--checkins FILE``).
Every command runs the one production kernel per phase: batched
verification and CSR selection.

``solve`` / ``compare`` / ``serve`` / ``compete`` accept
``--capture-model`` to swap the customer-choice capture model (the
paper's ``evenly-split`` by default; ``huff``, ``mnl``, ``fixed-worlds``
via :mod:`repro.capture`), plus its parameters ``--mnl-beta``,
``--worlds``, ``--world-seed`` and ``--huff-utility``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from .bench.reporting import format_table
from .data import california_like, compute_stats, load_checkins, new_york_like
from .entities import SpatialDataset
from .capture import CaptureSpec
from .exceptions import ReproError
from .influence import paper_default_pf
from .service import SOLVER_FACTORIES
from .solvers import MC2LSProblem, Solver

def _add_capture_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--capture-model", default="evenly-split", metavar="MODEL",
        help="customer-choice capture model: evenly-split (paper default), "
             "huff, mnl, or fixed-worlds; unknown names list the registry")
    parser.add_argument(
        "--mnl-beta", type=float, default=1.0, metavar="B",
        help="choice sharpness for mnl / fixed-worlds (default: 1.0)")
    parser.add_argument(
        "--worlds", type=int, default=32, metavar="W",
        help="sampled worlds for fixed-worlds, at most 64 (default: 32)")
    parser.add_argument(
        "--world-seed", type=int, default=0, metavar="S",
        help="world seed for fixed-worlds; results are deterministic "
             "per seed (default: 0)")
    parser.add_argument(
        "--huff-utility", type=float, default=0.5, metavar="U",
        help="new-candidate utility for huff (default: 0.5)")


def _capture_spec(args: argparse.Namespace) -> CaptureSpec:
    """The query/problem capture spec named by the CLI flags.

    Unknown model names raise
    :class:`~repro.exceptions.CaptureError` (a :class:`ReproError`)
    listing every registered model, which ``main`` renders as the
    actionable CLI error.
    """
    return CaptureSpec(
        model=args.capture_model,
        mnl_beta=args.mnl_beta,
        worlds=args.worlds,
        world_seed=args.world_seed,
        huff_utility=args.huff_utility,
    )


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=("c", "n"), default="c",
                        help="calibrated synthetic population (default: c)")
    parser.add_argument("--checkins", metavar="FILE",
                        help="SNAP-format check-in file instead of synthetic data")
    parser.add_argument("--users", type=int, default=800,
                        help="synthetic user count (default: 800)")
    parser.add_argument("--candidates", type=int, default=60)
    parser.add_argument("--facilities", type=int, default=120)
    parser.add_argument("--seed", type=int, default=0)


def _build_dataset(args: argparse.Namespace) -> SpatialDataset:
    if args.checkins:
        data = load_checkins(args.checkins)
        return data.dataset(args.candidates, args.facilities, seed=args.seed)
    maker = california_like if args.dataset == "c" else new_york_like
    return maker(
        n_users=args.users,
        n_candidates=args.candidates,
        n_facilities=args.facilities,
        seed=args.seed,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    spec = _capture_spec(args)
    problem = MC2LSProblem(
        dataset,
        k=args.k,
        tau=args.tau,
        capture=None if spec.is_default else spec.build(
            dataset, paper_default_pf()
        ),
    )
    solver: Solver = SOLVER_FACTORIES[args.solver]()
    result = solver.solve(problem)
    print(dataset.describe())
    print(f"capture: {spec.model}")
    rows = [
        {
            "round": i + 1,
            "candidate": cid,
            "marginal_gain": gain,
            "users_covered": len(result.table.omega_c.get(cid, ())),
        }
        for i, (cid, gain) in enumerate(zip(result.selected, result.gains))
    ]
    print(format_table(rows))
    print(f"\ncinf(G) = {result.objective:.4f}   "
          f"solver = {solver.name}   time = {result.total_time * 1e3:.1f} ms")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    spec = _capture_spec(args)
    problem = MC2LSProblem(
        dataset,
        k=args.k,
        tau=args.tau,
        capture=None if spec.is_default else spec.build(
            dataset, paper_default_pf()
        ),
    )
    print(dataset.describe())
    print(f"capture: {spec.model}")
    rows = []
    reference = None
    for name, factory in SOLVER_FACTORIES.items():
        if name == "baseline" and args.skip_baseline:
            continue
        solver = factory()
        result = solver.solve(problem)
        if reference is None:
            reference = result.selected
        agree = "yes" if result.selected == reference else "NO"
        rows.append(
            {
                "solver": name,
                "time_s": result.total_time,
                "evaluations": result.evaluation.total_evaluations,
                "positions_touched": result.evaluation.positions_touched,
                "objective": result.objective,
                "agrees": agree,
            }
        )
    print(format_table(rows))
    if any(r["agrees"] == "NO" for r in rows):
        print("\nERROR: solvers disagree", file=sys.stderr)
        return 1
    return 0


def _churn_session(session, n_moves: int, seed: int) -> None:
    """Jitter ``n_moves`` users' position histories in a streaming session.

    Delegates to :func:`repro.tuning.jitter_users` so ``serve --churn``
    and recorded-trace publishes share one deterministic churn function.
    """
    from .tuning import jitter_users

    jitter_users(session, n_moves, seed)


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import SelectionEngine, SelectionQuery

    dataset = _build_dataset(args)
    spec = _capture_spec(args)
    taus = [float(t) for t in args.taus.split(",") if t]
    ks = list(range(1, args.k_max + 1))
    queries = [
        SelectionQuery(
            k=k,
            tau=tau,
            solver=args.solver,
            capture=None if spec.is_default else spec,
        )
        for tau in taus
        for k in ks
    ]
    session = None
    first: object = dataset
    if args.churn:
        from .streaming import StreamingMC2LS

        session = StreamingMC2LS.from_dataset(dataset, k=max(ks))
        first = session.snapshot()
    with SelectionEngine(
        first,
        max_workers=args.threads,
        incremental=not args.no_incremental,
        execution=args.execution,
        shard_workers=args.shard_workers,
    ) as engine:
        print(engine.snapshot().describe())
        mode = args.execution
        if mode == "sharded":
            mode += f" ({args.shard_workers} worker processes)"
        print(f"{len(queries)} queries x {args.repeat} passes "
              f"on {args.threads} worker thread(s), execution={mode}\n")
        rows = []
        for pass_no in range(1, args.repeat + 1):
            republish = 0.0
            if session is not None and pass_no > 1:
                t0 = time.perf_counter()
                _churn_session(session, args.churn, seed=args.seed + pass_no)
                engine.publish(session.snapshot())
                republish = time.perf_counter() - t0
            t0 = time.perf_counter()
            handles = [engine.submit(q) for q in queries]
            results = [h.result() for h in handles]
            elapsed = time.perf_counter() - t0
            hits = sum(1 for r in results if r.stats.result_cache == "hit")
            rows.append(
                {
                    "pass": pass_no,
                    "queries": len(results),
                    "result_hits": hits,
                    "republish_s": republish,
                    "wall_s": elapsed,
                    "qps": len(results) / elapsed if elapsed > 0 else float("inf"),
                }
            )
        print(format_table(rows))
        stats = engine.stats()
        for cache in ("prepared_cache", "result_cache"):
            c = stats[cache]
            print(f"\n{cache}: {c['hits']} hits / {c['misses']} misses "
                  f"(hit rate {c['hit_rate']:.1%}), {c['evictions']} evictions")
        inc = stats["incremental"]
        print(f"\nincremental republish: enabled={inc['enabled']} "
              f"patched={inc['patched']} skipped={inc['skipped']} "
              f"failed={inc['failed']}")
        sharded = stats["sharded"]
        if sharded["execution"] == "sharded":
            print(f"sharded execution: workers={sharded['workers']} "
                  f"queries={sharded['queries']} "
                  f"fallbacks={sharded['fallbacks']} "
                  f"failures={sharded['failures']} "
                  f"capture_fallbacks={sharded['capture_fallbacks']} "
                  f"(supported: {', '.join(sharded['capture_supported'])})")
    return 0


def _cmd_compete(args: argparse.Namespace) -> int:
    from .capture import best_response_round

    dataset = _build_dataset(args)
    spec = _capture_spec(args)
    pf = paper_default_pf()
    solver: Solver = SOLVER_FACTORIES[args.solver]()
    resolved = solver.resolve(dataset, args.tau, pf)
    model = spec.build(dataset, pf)
    report = best_response_round(
        resolved.table,
        [c.fid for c in dataset.candidates],
        args.k,
        model,
        k_rival=args.k_rival,
    )
    print(dataset.describe())
    print(f"capture: {spec.model}   solver: {solver.name}   "
          f"k = {args.k}   k_rival = {args.k_rival or args.k}\n")
    rows = [
        {"phase": "leader (uncontested)",
         "selected": ",".join(map(str, report.leader_initial)),
         "objective": report.leader_objective},
        {"phase": "rival best response",
         "selected": ",".join(map(str, report.rival_selected)),
         "objective": report.rival_objective},
        {"phase": "leader (eroded)",
         "selected": ",".join(map(str, report.leader_initial)),
         "objective": report.eroded_objective},
        {"phase": "leader (re-solved)",
         "selected": ",".join(map(str, report.leader_adapted)),
         "objective": report.adapted_objective},
    ]
    print(format_table(rows))
    print(f"\ncapture erosion = {report.erosion:.4f} "
          f"({report.erosion_fraction:.1%} of uncontested)   "
          f"recovered by re-solving = {report.recovered:.4f}")
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from .tuning import record_canned

    trace = record_canned(
        args.workload,
        args.out,
        n_users=args.users,
        n_candidates=args.candidates,
        n_facilities=args.facilities,
        seed=args.seed,
        solver=args.solver,
    )
    n_queries = sum(1 for _ in trace.query_events())
    print(f"recorded {args.workload!r}: {len(trace)} events "
          f"({n_queries} queries) -> {args.out}")
    return 0


def _load_engine_config(path: Optional[str]):
    import json

    from .exceptions import TuningError
    from .tuning import EngineConfig

    if not path:
        return EngineConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise TuningError(f"cannot read engine config {path}: {exc}") from exc
    # Accept both a bare config and the tuner's recommendation output.
    if "recommended" in spec:
        spec = spec["recommended"]
    return EngineConfig.from_dict(spec)


def _cmd_replay(args: argparse.Namespace) -> int:
    from .tuning import TraceReplayer, WorkloadTrace

    trace = WorkloadTrace.load(args.trace)
    config = _load_engine_config(args.config)
    report = TraceReplayer(trace).replay(config, pacing=args.pacing)
    summary = report.as_dict()
    rows = [{k: summary[k] for k in
             ("queries", "ok", "p50_s", "p95_s", "mean_s",
              "result_hits", "prepared_hits", "wall_s")}]
    print(f"trace {trace.name!r} replayed with pacing={args.pacing} "
          f"(exact={config.exact})")
    print(format_table(rows))
    if args.check:
        mismatches = report.selection_mismatches(trace)
        if mismatches:
            print(f"\nERROR: {mismatches} replayed selections differ from "
                  f"the recording", file=sys.stderr)
            return 1
        print("\nall replayed selections match the recording")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    import json

    from .tuning import CostModel, KnobTuner, WorkloadTrace

    trace = WorkloadTrace.load(args.trace)
    cost_model = CostModel.calibrate(repeats=args.calibrate_repeats)
    tuner = KnobTuner(trace, cost_model=cost_model)
    recommendation = tuner.tune(validate_top=args.validate_top)
    payload = recommendation.as_dict()
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote recommendation to {args.out}")
    print(text)
    print(f"\nmeasured P50 speedup over defaults: "
          f"{recommendation.speedup_p50:.2f}x "
          f"({payload['candidates_scored']} configs screened)",
          file=sys.stderr)
    return 0


def _campaign_spec(name_or_path: str):
    from .campaign import CampaignSpec, get_spec

    if name_or_path.endswith(".json"):
        return CampaignSpec.from_json(name_or_path)
    return get_spec(name_or_path)


def _campaign_store(args: argparse.Namespace, spec):
    from pathlib import Path

    from .campaign import ResultStore

    return ResultStore(Path(args.store) / spec.name)


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from .campaign import CampaignRunner

    spec = _campaign_spec(args.spec)
    store = _campaign_store(args, spec)
    runner = CampaignRunner(
        spec, store, workers=args.workers, timeout_s=args.timeout
    )
    report = runner.run(resume=not args.no_resume, progress=print)
    print(f"\ncampaign {spec.name!r}: {report.executed} executed, "
          f"{report.cached} cached, {len(report.failed)} failed "
          f"of {report.total} points in {report.wall_s:.1f}s "
          f"(store: {store.root})")
    return 0 if report.ok else 1


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from .campaign import Aggregator

    spec = _campaign_spec(args.spec)
    store = _campaign_store(args, spec)
    agg = Aggregator(spec, store)
    completion = agg.completion()
    rows = []
    for grid in spec.grids:
        counts = completion[grid.name]
        rows.append({
            "grid": grid.name,
            "points": counts["total"],
            "complete": counts["complete"],
            "missing": counts["total"] - counts["complete"],
            "pct": (counts["complete"] / counts["total"] * 100.0
                    if counts["total"] else 100.0),
        })
    total = sum(r["points"] for r in rows)
    complete = sum(r["complete"] for r in rows)
    print(f"campaign {spec.name!r} at {store.root}:")
    print(format_table(rows))
    print(f"\n{complete}/{total} points complete")
    if args.list_missing:
        for grid_name, key in agg.missing_keys():
            print(f"missing  {grid_name}  {key}")
    return 0 if complete == total else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from .campaign import Aggregator

    spec = _campaign_spec(args.spec)
    store = _campaign_store(args, spec)
    rendered = Aggregator(spec, store).report(
        results_dir=args.results_dir, svg=not args.no_svg
    )
    if not rendered:
        print("no completed points to report; run `campaign run` first",
              file=sys.stderr)
        return 1
    for grid_name, table in rendered.items():
        print(f"\n== {grid_name} ==")
        print(table)
    print(f"\nwrote {len(rendered)} table(s) to {args.results_dir}")
    return 0


def _cmd_campaign_clean(args: argparse.Namespace) -> int:
    spec = _campaign_spec(args.spec)
    store = _campaign_store(args, spec)
    dropped = store.clean()
    print(f"dropped {dropped} stored point(s) from {store.root}")
    return 0


def _cmd_campaign_smoke(args: argparse.Namespace) -> int:
    """Run the smoke grid twice; the second pass must be pure cache."""
    import tempfile
    from pathlib import Path

    from .campaign import CampaignRunner, ResultStore, smoke_spec

    spec = smoke_spec()
    if args.store:
        root = Path(args.store) / spec.name
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-campaign-smoke-")
        root = Path(cleanup.name) / spec.name
    try:
        store = ResultStore(root)
        store.clean()
        first = CampaignRunner(spec, store, workers=args.workers).run(
            progress=print
        )
        second = CampaignRunner(spec, store, workers=args.workers).run(
            progress=print
        )
        print(f"first pass: {first.executed} executed / {first.total} points; "
              f"second pass: {second.cached} cached, "
              f"{second.executed} executed")
        if not first.ok or first.executed != first.total:
            print("ERROR: first smoke pass did not execute every point",
                  file=sys.stderr)
            return 1
        if second.executed != 0 or second.cached != first.total:
            print("ERROR: second smoke pass was not 100% cache hits",
                  file=sys.stderr)
            return 1
        print("campaign smoke ok: second pass was 100% cache hits")
        return 0
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args)
    print(format_table([compute_stats(dataset).as_row()]))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data.io import write_checkin_file

    n = write_checkin_file(
        args.output, n_users=args.users, seed=args.seed, clustered=args.dataset == "n"
    )
    print(f"wrote {n} check-ins to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MC2LS: collective location selection in competition",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance")
    _add_dataset_args(solve)
    solve.add_argument("--k", type=int, default=5)
    solve.add_argument("--tau", type=float, default=0.7)
    solve.add_argument("--solver", choices=sorted(SOLVER_FACTORIES), default="iqt")
    _add_capture_args(solve)
    solve.set_defaults(func=_cmd_solve)

    compare = sub.add_parser("compare", help="run all algorithms and compare")
    _add_dataset_args(compare)
    compare.add_argument("--k", type=int, default=5)
    compare.add_argument("--tau", type=float, default=0.7)
    compare.add_argument("--skip-baseline", action="store_true",
                         help="skip the slow exhaustive baseline")
    _add_capture_args(compare)
    compare.set_defaults(func=_cmd_compare)

    serve = sub.add_parser(
        "serve", help="run a what-if query batch through the serving engine")
    _add_dataset_args(serve)
    serve.add_argument("--solver", choices=sorted(SOLVER_FACTORIES), default="iqt")
    serve.add_argument("--k-max", type=int, default=8,
                       help="queries sweep k = 1 .. k-max (default: 8)")
    serve.add_argument("--taus", default="0.6,0.7",
                       help="comma-separated tau values (default: 0.6,0.7)")
    serve.add_argument("--threads", type=int, default=2,
                       help="scheduler worker threads (default: 2)")
    serve.add_argument("--repeat", type=int, default=2,
                       help="passes over the query batch; later passes "
                            "exercise the warm caches (default: 2)")
    serve.add_argument("--churn", type=int, default=0, metavar="N",
                       help="move N users and republish between passes "
                            "(streaming write traffic; default: 0)")
    serve.add_argument("--no-incremental", action="store_true",
                       help="drop prepared instances on republish instead "
                            "of delta-patching them (ablation; results are "
                            "identical)")
    serve.add_argument("--execution", choices=("threaded", "sharded"),
                       default="threaded",
                       help="run kernels in-process (threaded) or fan "
                            "resolve+select out over worker processes "
                            "with shared-memory arrays (sharded; results "
                            "are bit-identical)")
    serve.add_argument("--shard-workers", type=int, default=2, metavar="N",
                       help="worker processes for --execution sharded; "
                            "N < 2 falls back to the in-process path "
                            "(default: 2)")
    _add_capture_args(serve)
    serve.set_defaults(func=_cmd_serve)

    compete = sub.add_parser(
        "compete",
        help="two-player best-response round: leader, rival, erosion")
    _add_dataset_args(compete)
    compete.add_argument("--k", type=int, default=5,
                         help="leader cardinality (default: 5)")
    compete.add_argument("--k-rival", type=int, default=None, metavar="K",
                         help="rival cardinality (default: same as --k)")
    compete.add_argument("--tau", type=float, default=0.7)
    compete.add_argument("--solver", choices=sorted(SOLVER_FACTORIES), default="iqt")
    _add_capture_args(compete)
    compete.set_defaults(func=_cmd_compete)

    record = sub.add_parser(
        "record", help="record a canned workload trace for replay/tuning")
    record.add_argument("workload", choices=("bursty", "churn", "cold-start"),
                        help="canned workload: bursty what-if sweep, "
                             "streaming churn, or cold-start storm")
    record.add_argument("--out", required=True, metavar="FILE",
                        help="output trace path (JSONL)")
    record.add_argument("--users", type=int, default=160,
                        help="synthetic user count (default: 160)")
    record.add_argument("--candidates", type=int, default=20)
    record.add_argument("--facilities", type=int, default=40)
    record.add_argument("--seed", type=int, default=0)
    record.add_argument("--solver", choices=sorted(SOLVER_FACTORIES), default="iqt")
    record.set_defaults(func=_cmd_record)

    replay = sub.add_parser(
        "replay", help="replay a recorded trace under an engine config")
    replay.add_argument("--trace", required=True, metavar="FILE",
                        help="recorded trace (JSONL, from `record`)")
    replay.add_argument("--config", metavar="FILE",
                        help="engine config JSON (accepts `tune` output; "
                             "default: all engine defaults)")
    replay.add_argument("--pacing", choices=("asap", "open-loop"),
                        default="asap",
                        help="asap = sequential deterministic replay; "
                             "open-loop = submit at recorded arrival offsets "
                             "(default: asap)")
    replay.add_argument("--check", action="store_true",
                        help="fail unless every replayed selection matches "
                             "the recording")
    replay.set_defaults(func=_cmd_replay)

    tune = sub.add_parser(
        "tune", help="recommend engine knobs for a recorded trace")
    tune.add_argument("--trace", required=True, metavar="FILE",
                      help="recorded trace to optimise for")
    tune.add_argument("--out", metavar="FILE",
                      help="also write the recommendation JSON here")
    tune.add_argument("--validate-top", type=int, default=2, metavar="N",
                      help="replay the N best predicted configs plus the "
                           "baseline to confirm (default: 2)")
    tune.add_argument("--calibrate-repeats", type=int, default=2, metavar="N",
                      help="timing repeats per cost-model calibration point "
                           "(default: 2)")
    tune.set_defaults(func=_cmd_tune)

    campaign = sub.add_parser(
        "campaign",
        help="declarative grid sweeps: memoized, resumable experiment runs")
    campaign_sub = campaign.add_subparsers(dest="action", required=True)

    def _campaign_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--spec", default="smoke", metavar="NAME|FILE",
                       help="shipped campaign name (fig-runtime-sweep, "
                            "capture-duel, smoke) or a spec JSON path "
                            "(default: smoke)")
        p.add_argument("--store", default="campaigns", metavar="DIR",
                       help="store root; points live under "
                            "DIR/<campaign-name>/ (default: campaigns)")

    c_run = campaign_sub.add_parser(
        "run", help="execute every point missing from the store")
    _campaign_common(c_run)
    c_run.add_argument("--workers", type=int, default=0, metavar="N",
                       help="worker processes; 0 runs points inline "
                            "(default: 0)")
    c_run.add_argument("--no-resume", action="store_true",
                       help="re-execute every point, overwriting stored "
                            "records (resume is the default)")
    c_run.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-point timeout in seconds (workers >= 1 "
                            "only); overrides grid timeouts")
    c_run.set_defaults(func=_cmd_campaign_run)

    c_status = campaign_sub.add_parser(
        "status", help="per-grid completion counts (exit 1 if incomplete)")
    _campaign_common(c_status)
    c_status.add_argument("--list-missing", action="store_true",
                          help="also print every missing point key")
    c_status.set_defaults(func=_cmd_campaign_status)

    c_report = campaign_sub.add_parser(
        "report", help="aggregate stored points into row tables + SVGs")
    _campaign_common(c_report)
    c_report.add_argument("--results-dir", default="benchmarks/results",
                          metavar="DIR",
                          help="where tables/figures land "
                               "(default: benchmarks/results)")
    c_report.add_argument("--no-svg", action="store_true",
                          help="skip SVG chart rendering")
    c_report.set_defaults(func=_cmd_campaign_report)

    c_clean = campaign_sub.add_parser(
        "clean", help="drop every stored point for the campaign")
    _campaign_common(c_clean)
    c_clean.set_defaults(func=_cmd_campaign_clean)

    c_smoke = campaign_sub.add_parser(
        "smoke",
        help="CI check: run the tiny smoke grid twice, assert the second "
             "pass is 100%% cache hits")
    c_smoke.add_argument("--store", default=None, metavar="DIR",
                         help="persist the smoke store here instead of a "
                              "temporary directory")
    c_smoke.add_argument("--workers", type=int, default=0, metavar="N")
    c_smoke.set_defaults(func=_cmd_campaign_smoke)

    stats = sub.add_parser("stats", help="dataset distribution statistics")
    _add_dataset_args(stats)
    stats.set_defaults(func=_cmd_stats)

    generate = sub.add_parser("generate", help="write a synthetic check-in file")
    _add_dataset_args(generate)
    generate.add_argument("output", help="output path (SNAP check-in format)")
    generate.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
