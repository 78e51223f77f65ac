"""Experiment definitions: one function per table/figure of the paper.

Each function runs the paper's protocol at the configured benchmark scale
and returns the rows the corresponding artifact reports.  The bench files
under ``benchmarks/`` are thin wrappers that time a headline operation
with pytest-benchmark and register these row tables for the terminal
summary.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from ..data import compute_stats, mbr_overlap_fraction
from ..influence import InfluenceEvaluator
from ..pruning import (
    PinocchioPruner,
    measure_iquadtree_pruning,
    measure_pinocchio_pruning,
)
from ..solvers import (
    AdaptedKCIFPSolver,
    BaselineGreedySolver,
    ExactSolver,
    IQTSolver,
    IQTVariant,
    MC2LSProblem,
    Solver,
    SolverResult,
    greedy_select,
    lazy_greedy_select,
)
from . import datasets
from .datasets import (
    DEFAULT_D_HAT,
    DEFAULT_K,
    DEFAULT_TAU,
    K_SWEEP,
    R_SWEEP,
    SIZE_SWEEP,
    TAU_SWEEP,
)


def standard_solvers(d_hat: float = DEFAULT_D_HAT) -> List[Solver]:
    """The four algorithms every runtime figure compares (Figs. 10–16)."""
    return [
        BaselineGreedySolver(),
        AdaptedKCIFPSolver(),
        IQTSolver(d_hat=d_hat, variant=IQTVariant.IQT_C),
        IQTSolver(d_hat=d_hat, variant=IQTVariant.IQT),
    ]


def _run(solver: Solver, problem: MC2LSProblem) -> SolverResult:
    return solver.solve(problem)


def _runtime_row(base: Dict, results: Dict[str, SolverResult]) -> Dict:
    row = dict(base)
    for name, result in results.items():
        row[f"{name}_s"] = result.total_time
    return row


def _sweep_solvers(
    problems: Sequence[tuple[Dict, MC2LSProblem]],
    solvers: Sequence[Solver] | None = None,
    check_agreement: bool = True,
) -> List[Dict]:
    """Run every solver on every problem; report per-point runtimes."""
    solvers = solvers if solvers is not None else standard_solvers()
    rows = []
    for base, problem in problems:
        results = {s.name: _run(s, problem) for s in solvers}
        if check_agreement:
            selections = {r.selected for r in results.values()}
            assert len(selections) == 1, f"solver disagreement at {base}: {selections}"
        rows.append(_runtime_row(base, results))
    return rows


# ----------------------------------------------------------------------
# Fig. 7 — effect of the IS and NIR pruning rules
# ----------------------------------------------------------------------
def fig07a_rule_effect(kind: str) -> List[Dict]:
    """Fraction of (facility, user) pairs decided by IS vs NIR, per τ."""
    ds = datasets.dataset(kind)
    rows = []
    for tau in TAU_SWEEP:
        stats, _ = measure_iquadtree_pruning(
            ds.users, ds.abstract_facilities, tau, _pf(), DEFAULT_D_HAT, ds.region
        )
        rows.append(
            {
                "dataset": kind,
                "tau": tau,
                "IS_confirmed_frac": stats.confirmed_fraction,
                "NIR_pruned_frac": stats.pruned_fraction,
                "verify_frac": stats.verify_fraction,
            }
        )
    return rows


def fig07b_variant_effect(kind: str) -> List[Dict]:
    """Pruning effect and runtime of IQT-C vs IQT vs IQT-PINO, per τ."""
    ds = datasets.dataset(kind)
    variants = [IQTVariant.IQT_C, IQTVariant.IQT, IQTVariant.IQT_PINO]
    rows = []
    for tau in TAU_SWEEP:
        row: Dict = {"dataset": kind, "tau": tau}
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=tau)
        for variant in variants:
            result = IQTSolver(variant=variant).solve(problem)
            assert result.pruning is not None
            row[f"{variant.value}_saved_frac"] = result.pruning.saved_fraction
            row[f"{variant.value}_s"] = result.total_time
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fig. 8 — IS vs IA and NIR vs NIB, head to head
# ----------------------------------------------------------------------
def fig08_rule_comparison(kind: str) -> List[Dict]:
    """Confirmed/pruned pair fractions of the four rules, per τ."""
    ds = datasets.dataset(kind)
    rows = []
    for tau in TAU_SWEEP:
        iq_stats, _ = measure_iquadtree_pruning(
            ds.users, ds.abstract_facilities, tau, _pf(), DEFAULT_D_HAT, ds.region
        )
        pino_stats = measure_pinocchio_pruning(
            ds.users, ds.abstract_facilities, tau, _pf(), use_ia=True
        )
        rows.append(
            {
                "dataset": kind,
                "tau": tau,
                "IS_confirmed": iq_stats.confirmed_fraction,
                "IA_confirmed": pino_stats.confirmed_fraction,
                "NIR_pruned": iq_stats.pruned_fraction,
                "NIB_pruned": pino_stats.pruned_fraction,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig. 9 — dataset characterisation
# ----------------------------------------------------------------------
def fig09_distributions() -> List[Dict]:
    """Distribution statistics distinguishing the C and N datasets."""
    rows = []
    for kind in ("C", "N"):
        ds = datasets.dataset(kind)
        row = compute_stats(ds).as_row()
        row["mbr_overlap_frac"] = mbr_overlap_fraction(ds)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table I — IQT vs IQT-PINO runtime as abstract facilities grow
# ----------------------------------------------------------------------
def table1_iqt_vs_pino(kind: str = "N", tau: float = 0.9) -> List[Dict]:
    """Wall time of IQT vs IQT-PINO varying |C ∪ F| (paper: 300 → 1100).

    The paper runs this at τ = 0.9, the only setting where IQT-PINO's
    extra IA pruning shows any gain — and still loses on time.
    """
    rows = []
    for total in (300, 500, 700, 900, 1100):
        n_c = total // 3
        n_f = total - n_c
        ds = datasets.dataset(kind, n_candidates=n_c, n_facilities=n_f)
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=tau)
        iqt = IQTSolver(variant=IQTVariant.IQT).solve(problem)
        pino = IQTSolver(variant=IQTVariant.IQT_PINO).solve(problem)
        rows.append(
            {
                "abstract_facilities": total,
                "IQT_s": iqt.total_time,
                "IQT-PINO_s": pino.total_time,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table II — index construction cost
# ----------------------------------------------------------------------
def table2_index_build() -> List[Dict]:
    """IQuad-tree vs R-tree construction time, total and per object."""
    from ..spatial import IQuadTree, RTree

    rows = []
    for kind in ("C", "N"):
        ds = datasets.dataset(kind, n_candidates=100, n_facilities=200)
        arena = ds.arena  # cached by the dataset, so not part of the build
        t0 = time.perf_counter()
        IQuadTree(arena, DEFAULT_D_HAT, DEFAULT_TAU, _pf(), ds.region)
        iq_elapsed = time.perf_counter() - t0
        n_positions = ds.n_positions
        t0 = time.perf_counter()
        tree = RTree()
        for v in ds.abstract_facilities:
            tree.insert_point(v.location, v)
        rt_elapsed = time.perf_counter() - t0
        rows.append(
            {
                "dataset": kind,
                "IQuadTree_s": iq_elapsed,
                "IQT_positions": n_positions,
                "IQT_ms_per_obj": iq_elapsed / n_positions * 1e3,
                "RTree_s": rt_elapsed,
                "RT_objects": len(ds.abstract_facilities),
                "RT_ms_per_obj": rt_elapsed / len(ds.abstract_facilities) * 1e3,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figs. 10–14 — runtime sweeps
# ----------------------------------------------------------------------
def fig10_vary_users(kind: str) -> List[Dict]:
    """Runtime and verification work of all four algorithms as |Ω| grows."""
    full = datasets.dataset(kind)
    n_total = len(full.users)
    fractions = (0.2, 0.4, 0.6, 0.8, 1.0)
    rows = []
    for frac in fractions:
        n = max(1, int(n_total * frac))
        ds = full if n == n_total else full.subsample_users(n, seed=3)
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
        row: Dict = {"dataset": kind, "users": n}
        reference = None
        for solver in standard_solvers():
            result = solver.solve(problem)
            if reference is None:
                reference = result.selected
            assert result.selected == reference
            row[f"{solver.name}_s"] = result.total_time
            row[f"{solver.name}_evals"] = result.evaluation.total_evaluations
        rows.append(row)
    return rows


def fig11_vary_candidates(kind: str) -> List[Dict]:
    """Runtime as |C| sweeps 100 → 500."""
    problems = []
    for n_c in SIZE_SWEEP:
        ds = datasets.dataset(kind, n_candidates=n_c)
        problems.append(
            ({"dataset": kind, "candidates": n_c}, MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU))
        )
    return _sweep_solvers(problems)


def fig12_vary_facilities(kind: str) -> List[Dict]:
    """Runtime as |F| sweeps 100 → 500."""
    problems = []
    for n_f in SIZE_SWEEP:
        ds = datasets.dataset(kind, n_facilities=n_f)
        problems.append(
            ({"dataset": kind, "facilities": n_f}, MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU))
        )
    return _sweep_solvers(problems)


def fig13_vary_tau(kind: str) -> List[Dict]:
    """Runtime as τ sweeps 0.1 → 0.9."""
    ds = datasets.dataset(kind)
    problems = [
        ({"dataset": kind, "tau": tau}, MC2LSProblem(ds, k=DEFAULT_K, tau=tau))
        for tau in TAU_SWEEP
    ]
    return _sweep_solvers(problems)


def fig14_vary_k(kind: str) -> List[Dict]:
    """Runtime as k sweeps 5 → 25; all algorithms must return the same set."""
    ds = datasets.dataset(kind)
    problems = [
        ({"dataset": kind, "k": k}, MC2LSProblem(ds, k=k, tau=DEFAULT_TAU))
        for k in K_SWEEP
    ]
    return _sweep_solvers(problems, check_agreement=True)


# ----------------------------------------------------------------------
# Figs. 15–16 — effect of r (positions per user)
# ----------------------------------------------------------------------
def fig15_16_vary_r(kind: str) -> List[Dict]:
    """Runtime and verification cost as r grows (users with ≥ 30 positions).

    Mirrors the paper's protocol: keep only users with more than 30
    positions and sample exactly r of them.  Verification cost is the
    number of positions actually touched by exact probability checks.
    """
    full = datasets.dataset(kind)
    rows = []
    for r in R_SWEEP:
        ds = full.subsample_positions(r, seed=4)
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
        row: Dict = {"dataset": kind, "r": r, "eligible_users": len(ds.users)}
        for solver in standard_solvers():
            result = solver.solve(problem)
            row[f"{solver.name}_s"] = result.total_time
            row[f"{solver.name}_pos_touched"] = result.evaluation.positions_touched
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Effect of d̂ (§VII prose) and ablations
# ----------------------------------------------------------------------
def fig_dhat_leaf_diagonal(kind: str) -> List[Dict]:
    """IQT runtime and index share as the leaf diagonal d̂ sweeps 1 → 2.5 km."""
    ds = datasets.dataset(kind)
    rows = []
    for d_hat in (1.0, 1.5, 2.0, 2.5):
        problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
        result = IQTSolver(d_hat=d_hat).solve(problem)
        rows.append(
            {
                "dataset": kind,
                "d_hat_km": d_hat,
                "IQT_s": result.total_time,
                "index_s": result.timings.get("index", 0.0),
                "index_share": result.timings.get("index", 0.0) / result.total_time,
                "saved_frac": result.pruning.saved_fraction if result.pruning else 0.0,
            }
        )
    return rows


def ablation_early_stopping(kind: str) -> List[Dict]:
    """Scalar verification with and without PINOCCHIO early stopping.

    Both modes decide the same ``(site, user)`` pairs: every pair the
    IA/NIB rules leave to verification, over candidates and competitors.
    Early stopping lives only in the scalar evaluator, where a
    per-position scan can stop; the production batch kernel always
    takes the full product.
    """
    ds = datasets.dataset(kind)
    pf = _pf()
    pruner = PinocchioPruner(ds.abstract_facilities, DEFAULT_TAU, pf)
    pairs = [(v, u) for u in ds.users for v in pruner.classify_user(u).verify]
    rows = []
    for early in (True, False):
        evaluator = InfluenceEvaluator(pf, DEFAULT_TAU, early_stopping=early)
        t0 = time.perf_counter()
        for v, u in pairs:
            evaluator.influences(v.x, v.y, u.positions)
        rows.append(
            {
                "dataset": kind,
                "early_stopping": early,
                "verify_s": time.perf_counter() - t0,
                "positions_touched": evaluator.stats.positions_touched,
                "evaluations": evaluator.stats.total_evaluations,
            }
        )
    return rows


def ablation_exact_rounded(kind: str) -> List[Dict]:
    """NIR via the rounded square's MBR (paper) vs the exact shape."""
    ds = datasets.dataset(kind)
    problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
    rows = []
    for exact in (False, True):
        result = IQTSolver(exact_rounded=exact).solve(problem)
        assert result.pruning is not None
        rows.append(
            {
                "dataset": kind,
                "exact_rounded": exact,
                "IQT_s": result.total_time,
                "pruned_frac": result.pruning.pruned_fraction,
                "verify_frac": result.pruning.verify_fraction,
            }
        )
    return rows


def ablation_greedy(kind: str = "N") -> List[Dict]:
    """Eager vs CELF lazy greedy, plus quality vs the exact optimum.

    The exact solver runs on a reduced instance (|C| = 12, k = 4) to keep
    enumeration tractable; the greedy comparison runs at full scale.
    """
    ds = datasets.dataset(kind)
    problem = MC2LSProblem(ds, k=DEFAULT_K, tau=DEFAULT_TAU)
    reference = BaselineGreedySolver().solve(problem)
    cids = [c.fid for c in ds.candidates]

    t0 = time.perf_counter()
    eager = greedy_select(reference.table, cids, problem.k)
    eager_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    lazy = lazy_greedy_select(reference.table, cids, problem.k)
    lazy_s = time.perf_counter() - t0
    assert lazy.selected == eager.selected

    small = datasets.dataset(kind, n_candidates=12, n_facilities=50)
    small_problem = MC2LSProblem(small, k=4, tau=DEFAULT_TAU)
    exact = ExactSolver().solve(small_problem)
    greedy_small = BaselineGreedySolver().solve(small_problem)
    ratio = (
        greedy_small.objective / exact.objective if exact.objective > 0 else 1.0
    )
    return [
        {
            "dataset": kind,
            "eager_evals": eager.evaluations,
            "lazy_evals": lazy.evaluations,
            "eager_s": eager_s,
            "lazy_s": lazy_s,
            "greedy_over_exact": ratio,
            "guarantee": 1 - 1 / 2.718281828,
        }
    ]


def _pf():
    from ..influence import paper_default_pf

    return paper_default_pf()
