#!/usr/bin/env python
"""Choice models change the portfolio; a rival erodes it.

Solves one city under each registered capture model — the paper's
evenly-split split, Huff-style shares, maximum-capture under an MNL
choice model, and simulation-based fixed-worlds capture — and shows how
the selected portfolio shifts as the model sharpens (under MNL a second
site next to the first cannibalises its own capture, so the plan
spreads out).

Then plays the two-player best-response round under MNL: a rival chain
picks the best leftover sites, the leader's captured demand erodes, and
the leader re-solves against the rival-aware world.

Run:  python examples/capture_duel.py
"""

from repro import paper_default_pf
from repro.capture import CaptureSpec, best_response_round
from repro.competition import InfluenceTable
from repro.data import new_york_like
from repro.influence import BatchInfluenceEvaluator
from repro.solvers import run_selection
from repro.solvers.base import resolve_all_pairs


def main() -> None:
    # Clustered city: candidate coverage overlaps, so sites contest the
    # same users — exactly the regime where the choice model matters.
    dataset = new_york_like(n_users=400, n_candidates=60, n_facilities=40, seed=7)
    print(dataset.describe())
    pf = paper_default_pf()
    omega_c, f_o = resolve_all_pairs(dataset, BatchInfluenceEvaluator(pf, 0.5))
    table = InfluenceTable.from_mappings(omega_c, f_o)
    cids = sorted(omega_c)

    specs = {
        "evenly-split": CaptureSpec(),
        "huff": CaptureSpec(model="huff"),
        "mnl (beta=4)": CaptureSpec(model="mnl", mnl_beta=4.0),
        "fixed-worlds": CaptureSpec(model="fixed-worlds", mnl_beta=4.0,
                                    worlds=48, world_seed=11),
    }
    print(f"\n{'capture model':>14}  {'objective':>9}  portfolio")
    models = {}
    for label, spec in specs.items():
        models[label] = spec.build(dataset, pf)
        outcome = run_selection(table, cids, 5, capture=models[label])
        print(f"{label:>14}  {outcome.objective:>9.3f}  {sorted(outcome.selected)}")

    print("\nTwo-player round under MNL (rival picks from the leftovers):")
    report = best_response_round(table, cids, 5, models["mnl (beta=4)"])
    rows = [
        ("leader (initial)", report.leader_objective, report.leader_initial),
        ("rival best response", report.rival_objective, report.rival_selected),
        ("leader (eroded)", report.eroded_objective, report.leader_initial),
        ("leader (re-solved)", report.adapted_objective, report.leader_adapted),
    ]
    for label, objective, sites in rows:
        print(f"  {label:<20} {objective:>8.3f}  {sorted(sites)}")
    print(f"  capture erosion: {report.erosion:.3f} "
          f"({report.erosion_fraction:.1%} of the initial objective), "
          f"recovered {report.recovered:.3f} by re-solving")


if __name__ == "__main__":
    main()
