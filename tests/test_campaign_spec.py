"""Campaign specs: grid expansion, the hash-key contract, round-trips.

The key property the resumability machinery leans on: a point's key is
a pure function of the realized dataset content hash plus the canonical
run parameters — stable across processes, axis orderings and foreign
capture parameters, and sensitive to every coordinate that changes what
the point computes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignSpec,
    DatasetAxis,
    RunPoint,
    canonical_capture,
    capture_duel_spec,
    fig_runtime_sweep_spec,
    get_spec,
    grid,
    smoke_spec,
)
from repro.exceptions import CampaignError

REPO_ROOT = Path(__file__).resolve().parent.parent

FAKE_HASH = "0" * 32  # key tests never need a real dataset


def _point(**overrides):
    params = dict(
        workload="solve",
        solver="iqt",
        capture={"model": "evenly-split"},
        tau=0.7,
        k=5,
        repeats=3,
        dataset={"kind": "C", "users_frac": 0.5},
    )
    params.update(overrides)
    return RunPoint.from_params("g", params)


# ----------------------------------------------------------------------
# Hash-key contract
# ----------------------------------------------------------------------
class TestKeys:
    def test_key_is_stable_across_param_orderings(self):
        a = _point()
        b = RunPoint.from_params("g", dict(reversed(list(_point().params().items()))))
        assert a.key(FAKE_HASH) == b.key(FAKE_HASH)

    def test_key_is_stable_across_processes(self):
        """The key must be a pure content hash — no per-process salt
        (PYTHONHASHSEED must not leak in)."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.campaign import RunPoint\n"
            "p = RunPoint.from_params('g', {params!r})\n"
            "print(p.key({h!r}))\n"
        ).format(
            src=str(REPO_ROOT / "src"), params=_point().params(), h=FAKE_HASH
        )
        keys = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout.strip()
            for _ in range(2)
        }
        keys.add(_point().key(FAKE_HASH))
        assert len(keys) == 1

    def test_foreign_capture_params_do_not_change_key(self):
        plain = _point(capture={"model": "evenly-split"})
        noisy = _point(capture={"model": "evenly-split", "mnl_beta": 9.0,
                                "worlds": 64})
        assert plain.key(FAKE_HASH) == noisy.key(FAKE_HASH)

    def test_relevant_capture_params_change_key(self):
        a = _point(capture={"model": "mnl", "mnl_beta": 1.0})
        b = _point(capture={"model": "mnl", "mnl_beta": 2.0})
        assert a.key(FAKE_HASH) != b.key(FAKE_HASH)

    @pytest.mark.parametrize("override", [
        {"tau": 0.6}, {"k": 6}, {"repeats": 4}, {"solver": "iqt-c"},
    ])
    def test_every_run_param_is_key_relevant(self, override):
        assert _point().key(FAKE_HASH) != _point(**override).key(FAKE_HASH)

    def test_dataset_enters_by_content_hash_only(self):
        """Two axis specs produce the same key iff the realized data
        hashes equal — the axis params themselves never enter."""
        a = _point(dataset={"kind": "C", "users_frac": 0.5})
        b = _point(dataset={"kind": "N", "n_candidates": 9})
        assert a.key(FAKE_HASH) == b.key(FAKE_HASH)
        assert a.key("1" * 32) != a.key(FAKE_HASH)

    def test_k_rival_only_keys_compete_points(self):
        solve = _point()
        assert "k_rival" not in solve.run_params()
        duel = _point(workload="compete", k_rival=4)
        duel2 = _point(workload="compete", k_rival=6)
        assert duel.key(FAKE_HASH) != duel2.key(FAKE_HASH)


# ----------------------------------------------------------------------
# Canonical capture params
# ----------------------------------------------------------------------
class TestCanonicalCapture:
    def test_default_is_evenly_split(self):
        assert canonical_capture(None) == {"model": "evenly-split"}
        assert canonical_capture({}) == {"model": "evenly-split"}

    def test_foreign_params_dropped(self):
        got = canonical_capture({"model": "huff", "mnl_beta": 3.0,
                                 "huff_utility": 0.4})
        assert got == {"model": "huff", "huff_utility": 0.4}

    def test_fixed_worlds_keeps_world_params(self):
        got = canonical_capture({"model": "fixed-worlds", "mnl_beta": 2.0,
                                 "worlds": 16, "world_seed": 3})
        assert got == {"model": "fixed-worlds", "mnl_beta": 2.0,
                       "worlds": 16, "world_seed": 3}

    def test_unknown_model_rejected(self):
        with pytest.raises(Exception):
            canonical_capture({"model": "no-such-model"})


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
class TestExpansion:
    def test_points_cartesian_and_deterministic(self):
        g = grid(
            "g",
            [DatasetAxis(kind="C"), DatasetAxis(kind="N")],
            solvers=("iqt", "baseline"),
            taus=(0.6, 0.7),
            ks=(2, 3),
        )
        points = list(g.points())
        assert len(points) == 2 * 2 * 2 * 2
        assert [(p.dataset.kind, p.solver, p.tau, p.k) for p in points] == \
            [(d, s, t, k)
             for d in ("C", "N") for s in ("iqt", "baseline")
             for t in (0.6, 0.7) for k in (2, 3)]

    def test_shipped_specs_expand(self):
        assert len(fig_runtime_sweep_spec().points()) == 240
        assert len(capture_duel_spec().points()) == 12
        assert len(smoke_spec().points()) == 4

    def test_get_spec_rejects_unknown_name(self):
        with pytest.raises(CampaignError, match="fig-runtime-sweep"):
            get_spec("nope")


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestRoundTrip:
    @pytest.mark.parametrize("factory", [
        fig_runtime_sweep_spec, capture_duel_spec, smoke_spec,
    ])
    def test_spec_round_trips_through_dict(self, factory):
        spec = factory()
        back = CampaignSpec.from_dict(spec.as_dict())
        assert back == spec
        assert back.as_dict() == spec.as_dict()

    def test_spec_round_trips_through_json_file(self, tmp_path):
        spec = smoke_spec()
        path = tmp_path / "spec.json"
        spec.save_json(path)
        assert CampaignSpec.from_json(path) == spec

    def test_unreadable_spec_file_rejected(self, tmp_path):
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignSpec.from_json(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(CampaignError, match="cannot read"):
            CampaignSpec.from_json(bad)

    def test_newer_spec_version_rejected(self):
        payload = smoke_spec().as_dict()
        payload["version"] = 99
        with pytest.raises(CampaignError, match="version 99"):
            CampaignSpec.from_dict(payload)


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_bad_dataset_kind(self):
        with pytest.raises(CampaignError, match="kind"):
            DatasetAxis(kind="X")

    def test_bad_users_frac(self):
        with pytest.raises(CampaignError, match="users_frac"):
            DatasetAxis(users_frac=1.5)

    def test_unknown_dataset_field(self):
        with pytest.raises(CampaignError, match="unknown dataset axis"):
            DatasetAxis.from_dict({"kind": "C", "n_user": 10})

    def test_unknown_grid_field(self):
        with pytest.raises(CampaignError, match="unknown grid fields"):
            CampaignSpec.from_dict({
                "name": "s",
                "grids": [{"name": "g", "datasets": [{"kind": "C"}],
                           "solver": "iqt"}],
            })

    @pytest.mark.parametrize("field", ["batch_verify", "fast_select"])
    def test_removed_kernel_fields_rejected(self, field):
        with pytest.raises(CampaignError, match=field):
            CampaignSpec.from_dict({
                "name": "s",
                "grids": [{"name": "g", "datasets": [{"kind": "C"}],
                           field: False}],
            })

    def test_unknown_solver(self):
        with pytest.raises(CampaignError, match="unknown solver"):
            _point(solver="dijkstra")

    def test_unknown_workload(self):
        with pytest.raises(CampaignError, match="unknown workload"):
            _point(workload="train")

    def test_bad_x_axis(self):
        with pytest.raises(CampaignError, match="x axis"):
            grid("g", [DatasetAxis()], x="speed")

    def test_bad_series(self):
        with pytest.raises(CampaignError, match="series"):
            grid("g", [DatasetAxis()], series="dataset")

    def test_duplicate_grid_names(self):
        g1 = grid("g", [DatasetAxis()])
        with pytest.raises(CampaignError, match="duplicate"):
            CampaignSpec(name="s", grids=(g1, g1))

    def test_nonpositive_repeats(self):
        with pytest.raises(CampaignError, match="repeats"):
            _point(repeats=0)
