"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.solver == "iqt"
        assert args.k == 5
        assert args.dataset == "c"


class TestSolve:
    def test_solve_prints_selection(self, capsys):
        code = main(
            [
                "solve",
                "--dataset", "n",
                "--users", "120",
                "--candidates", "15",
                "--facilities", "20",
                "--k", "3",
                "--tau", "0.5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cinf(G)" in out
        assert "candidate" in out
        assert out.count("\n") > 5

    def test_solver_choice(self, capsys):
        code = main(
            [
                "solve", "--users", "80", "--candidates", "10",
                "--facilities", "10", "--k", "2", "--solver", "k-cifp",
            ]
        )
        assert code == 0
        assert "k-cifp" in capsys.readouterr().out

    def test_removed_kernel_flags_are_rejected(self, capsys):
        for command in ("solve", "compare", "serve", "compete"):
            for flag in ("--no-batch-verify", "--no-fast-select"):
                with pytest.raises(SystemExit) as exc:
                    main([command, "--users", "80", flag])
                assert exc.value.code == 2
                assert flag in capsys.readouterr().err


class TestCompare:
    def test_compare_agreement(self, capsys):
        code = main(
            [
                "compare", "--dataset", "n", "--users", "100",
                "--candidates", "12", "--facilities", "15", "--k", "2",
                "--skip-baseline",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "iqt" in out and "k-cifp" in out
        assert "NO" not in out


class TestServe:
    def test_serve_warm_passes_hit_cache(self, capsys):
        code = main(
            [
                "serve", "--users", "80", "--candidates", "10",
                "--facilities", "12", "--k-max", "3", "--taus", "0.6",
                "--threads", "2", "--repeat", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result_hits" in out
        assert "prepared_cache" in out and "result_cache" in out
        # The second pass must be answered from the result cache.
        assert "hit rate" in out


class TestStats:
    def test_stats_row(self, capsys):
        code = main(["stats", "--users", "60", "--candidates", "5",
                     "--facilities", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mbr_ratio" in out


class TestGenerate:
    def test_generate_then_solve(self, tmp_path, capsys):
        path = tmp_path / "checkins.txt"
        code = main(["generate", str(path), "--users", "60", "--seed", "4"])
        assert code == 0
        assert path.exists()
        capsys.readouterr()
        code = main(
            [
                "solve", "--checkins", str(path), "--candidates", "8",
                "--facilities", "10", "--k", "2", "--tau", "0.4",
            ]
        )
        assert code == 0
        assert "cinf(G)" in capsys.readouterr().out

    def test_error_reporting(self, tmp_path, capsys):
        code = main(
            ["solve", "--checkins", str(tmp_path / "missing.txt"), "--k", "2"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err
