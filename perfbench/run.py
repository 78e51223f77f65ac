"""Run one benchmark workload and print its metrics.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of an untraced run; ``--trace 1`` reports
the per-layer metrics of a traced run (see ``README.md``).  The line
before it is the run's provenance record.  The exit code is 0 only when
every answer matched its reference.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import math
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

import env
from tracing import PER_LAYER, SpanRecorder, instrumented, layer_metrics, span_summary

#: The end-to-end metrics, in report order: (name, unit).
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("publish_p50_ms", "ms"),
)

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail(
    latencies: Sequence[float], ceiling: float = TAIL_LADDER[0]
) -> Tuple[float, float, bool]:
    """(value, percentile, above_median) of the supported tail.

    The tail is the highest percentile of :data:`TAIL_LADDER`, up to the
    workload's ``ceiling``, with at least ``TAIL_BEYOND`` samples beyond
    it, by nearest rank.  A ladder step rather than the exact rank
    ``n - 10`` keeps the statistic away from the handful of rarest
    stalls, whose count varies from run to run.  The ceiling is set per
    workload to a percentile its usual sample count supports with room
    to spare, so the percentile does not change between runs, or between
    commits, when the sample count moves with the speed of the host or
    of the program.  When the sample supports none of the ladder, the
    median is reported and flagged.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in (p for p in TAIL_LADDER if p <= ceiling):
        rank = math.ceil(n * pct / 100.0)  # 1-based nearest rank
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct, True
    return statistics.median(ordered), 50.0, False


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def error_counts(ops: Sequence[Any], wrong: int) -> Dict[str, int]:
    return {
        "raised": sum(op.error == "raised" for op in ops),
        "refused": sum(op.error == "refused" for op in ops),
        "wrong": wrong,
    }


def end_to_end(
    setup_s: List[float],
    ops: Sequence[Any],
    timed: float,
    publish: List[float],
    tail_ceiling: float,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """The end-to-end metrics plus the sample facts recorded beside them.

    ``timed`` is the seconds spent in timed operations: the wall time of
    the timed phase, less any reference checks between operations.
    """
    lat = [op.latency_s for op in ops if op.kind == "query"]
    completed = sum(not op.error for op in ops)
    tail_value, tail_pct, above = tail(lat, tail_ceiling)
    values = {
        "setup_s": statistics.median(setup_s),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "throughput_ops_s": completed / timed,
        "peak_rss_mb": peak_rss_mb(),
        "publish_p50_ms": statistics.median(publish) * 1e3,
    }
    samples = {
        "setup": len(setup_s),
        "latency": len(lat),
        "latency_tail": {
            "percentile": tail_pct,
            "samples_beyond": len(lat) - math.ceil(tail_pct / 100.0 * len(lat)),
            "above_median": above,
        },
        "publish": len(publish),
        "operations": len(ops),
        "timed_s": timed,
    }
    return values, samples


def untraced(cls: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Three set-ups, one timed phase, the check; end-to-end metrics."""
    rec = SpanRecorder()
    setup_s: List[float] = []
    publish: List[float] = []
    wl = None
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
                gc.collect()
            wl = cls(args.seed, smoke=args.smoke)
            t0 = time.perf_counter()
            wl.setup(rec)
            setup_s.append(time.perf_counter() - t0)
            wl.sample_publish(rec)
            publish += wl.publish_s
            wl.publish_s = []
        ops, timed = wl.run(args.seconds, rec)
        wl.sample_publish(rec)
        publish += wl.publish_s
        mismatches = wl.check(ops)
    finally:
        if wl is not None:
            wl.close()
    values, samples = end_to_end(setup_s, ops, timed, publish, cls.TAIL_CEILING)
    return {
        "ops": ops,
        "mismatches": mismatches,
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "record": {"samples": samples, "warmup_ops_discarded": wl.warmup_ops},
    }


def traced(cls: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """An untraced pass, then the same pass traced; per-layer metrics."""
    plain = SpanRecorder()
    wl = cls(args.seed, smoke=args.smoke)
    try:
        wl.setup(plain)
        ops0, _ = wl.run(args.seconds, plain)
        mismatches = list(wl.check(ops0))
    finally:
        wl.close()
    del wl
    gc.collect()

    rec = SpanRecorder()
    with instrumented(rec):
        wl = cls(args.seed, smoke=args.smoke)
        try:
            rec.enabled = True
            with rec.span("bench.setup"):
                wl.setup(rec)
            wl.sample_publish(rec)
            ops1, _ = wl.run(args.seconds, rec)
            wl.sample_publish(rec)
            rec.enabled = False
            mismatches += wl.check(ops1)
            shape = wl.paper_shape() if hasattr(wl, "paper_shape") else None
        finally:
            rec.enabled = False
            wl.close()

    # Overhead: the same operations (matched by sequence number), traced
    # against untraced.
    base = {op.seq: op.latency_s for op in ops0}
    common = [op for op in ops1 if op.seq in base]
    overhead = (
        sum(op.latency_s for op in common) / sum(base[op.seq] for op in common) - 1.0
        if common
        else 0.0
    )
    values = layer_metrics(rec, wl.public, overhead)
    record = {
        "warmup_ops_discarded": wl.warmup_ops,
        "spans": len(rec.spans),
        "traced_operations": len(ops1),
        "overhead_operations_compared": len(common),
        "paper_shape": shape,
    }
    dump_spans(args, rec, span_summary(rec), record)
    return {
        "ops": list(ops0) + list(ops1),
        "mismatches": mismatches,
        "metrics": {name: (values[name], unit) for name, unit, _ in PER_LAYER},
        "record": record,
    }


def dump_spans(
    args: argparse.Namespace, rec: Any, summary: Dict[str, Any], record: Dict[str, Any]
) -> None:
    """Write every span of a traced run (gzip JSON) inside the checkout."""
    env.OUT_DIR.mkdir(exist_ok=True)
    t_base = rec.spans[0][3] if rec.spans else 0.0
    path = env.OUT_DIR / f"{args.workload}-seed{args.seed}.trace.json.gz"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "record": record,
        "summary": summary,
        "span_fields": ["id", "parent", "name", "start_s", "end_s"],
        "spans": [
            (sid, parent, name, round(t0 - t_base, 7), round(t1 - t_base, 7))
            for sid, parent, name, t0, t1 in rec.spans
        ],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
    record["span_file"] = str(path.relative_to(env.ROOT))


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="reduced-scale populations, for the benchmark's own tests",
    )
    return p.parse_args(argv)


def main(argv: Sequence[str] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        env.ensure_src()
    except env.MissingSource as exc:
        print(f"perfbench: {exc}; run from the root of a source checkout", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result = (traced if args.trace else untraced)(cls, args)
    ops, mismatches = result["ops"], result["mismatches"]
    errors = error_counts(ops, len(mismatches))
    failed = sum(errors.values())
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **env.host_provenance(),
        **result["record"],
        "error_rate": failed / max(1, len(ops)),
        "errors": errors,
        "first_failures": mismatches[:3]
        + [f"op {op.seq}: {op.error}: {op.detail}" for op in ops if op.error][:3],
    }
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(ops),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
