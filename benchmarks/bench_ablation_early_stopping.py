"""Ablation A1 — PINOCCHIO early stopping and the NIR shape refinement.

Expected shape: on the same (site, user) pairs, the scalar evaluator's
early stopping cuts the positions touched during verification with the
same number of evaluations; the exact rounded-square NIR test prunes at
least as many pairs as the paper's MBR relaxation.
"""

from repro.bench import record_table
from repro.bench.experiments import ablation_early_stopping, ablation_exact_rounded


def test_ablation_early_stopping(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation_early_stopping("C") + ablation_early_stopping("N"),
        rounds=1,
        iterations=1,
    )
    record_table("Ablation - early stopping on/off", rows)
    by_key = {(r["dataset"], r["early_stopping"]): r for r in rows}
    for kind in ("C", "N"):
        on, off = by_key[(kind, True)], by_key[(kind, False)]
        assert on["positions_touched"] < off["positions_touched"]
        assert on["evaluations"] == off["evaluations"]


def test_ablation_exact_rounded(benchmark):
    rows = benchmark.pedantic(
        lambda: ablation_exact_rounded("C") + ablation_exact_rounded("N"),
        rounds=1,
        iterations=1,
    )
    record_table("Ablation - NIR via MBR vs exact rounded square", rows)
    by_key = {(r["dataset"], r["exact_rounded"]): r for r in rows}
    for kind in ("C", "N"):
        assert (
            by_key[(kind, True)]["pruned_frac"]
            >= by_key[(kind, False)]["pruned_frac"] - 1e-9
        )
