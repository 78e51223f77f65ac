"""Fig. 15 — effect of the position count r on the C-like data.

Protocol: keep users with ≥ 30 positions, sample exactly r ∈ {10..30}
from each.  Expected shape: runtime and verification cost (positions
touched) rise with r; IQT stays ahead throughout because pruning leaves
only a small share of the pairs to verify.
"""

from repro.bench import record_table
from repro.bench.experiments import fig15_16_vary_r


def test_fig15_vary_r_california(benchmark):
    rows = benchmark.pedantic(lambda: fig15_16_vary_r("C"), rounds=1, iterations=1)
    record_table("Fig 15 - runtime and verification cost vs r (C-like)", rows)
    # Verification cost grows with r for the un-pruned baseline...
    assert rows[-1]["baseline_pos_touched"] > rows[0]["baseline_pos_touched"]
    # ...and IQT touches far fewer positions than Baseline at every r.
    for row in rows:
        assert row["iqt_pos_touched"] < row["baseline_pos_touched"]
