"""Smoke tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in (
            ["datasets"],
            ["order", "--dataset", "epinion"],
            ["run", "--dataset", "epinion"],
        ):
            assert parser.parse_args(command).command == command[0]

    def test_ordering_backend_flag_removed(self, capsys):
        """Gorder has one kernel; the former kernel flag is unknown."""
        with pytest.raises(SystemExit) as excinfo:
            main(["order", "--dataset", "epinion",
                  "--ordering-backend", "loop"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --ordering-backend loop" in err


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "epinion" in output
        assert "sdarc" in output

    def test_order_to_stdout(self, capsys):
        assert main(
            ["order", "--dataset", "epinion", "--ordering", "indegsort"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert sorted(int(line) for line in lines) == list(
            range(len(lines))
        )

    def test_order_to_file(self, tmp_path, capsys):
        target = tmp_path / "perm.txt"
        assert main(
            [
                "order", "--dataset", "epinion",
                "--ordering", "rcm", "-o", str(target),
            ]
        ) == 0
        perm = np.loadtxt(target, dtype=np.int64)
        assert sorted(perm.tolist()) == list(range(perm.shape[0]))

    def test_order_from_edge_list(self, tmp_path, capsys):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 1\n1 2\n2 0\n")
        assert main(
            ["order", "--input", str(edge_file), "--ordering", "chdfs"]
        ) == 0

    def test_run(self, capsys):
        assert main(
            [
                "run", "--dataset", "epinion",
                "--algorithm", "nq", "--ordering", "gorder",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "cycles" in output
        assert "L1 miss rate" in output

    def test_cache_stats(self, capsys):
        assert main(["cache-stats", "--dataset", "epinion"]) == 0
        output = capsys.readouterr().out
        assert "L1-mr" in output
        assert "gorder" in output

    def test_window(self, capsys):
        assert main(["window", "--dataset", "epinion"]) == 0
        assert "window" in capsys.readouterr().out

    def test_annealing(self, capsys):
        assert main(["annealing", "--dataset", "epinion"]) == 0
        assert "energy" in capsys.readouterr().out

    def test_error_reported_cleanly(self, capsys):
        assert main(["run", "--dataset", "doesnotexist"]) == 1
        assert "error" in capsys.readouterr().err

    def test_stats_single_dataset(self, capsys):
        assert main(["stats", "--dataset", "epinion"]) == 0
        output = capsys.readouterr().out
        assert "reciprocity" in output
        assert "epinion" in output

    def test_stats_all_datasets(self, capsys):
        assert main(["stats"]) == 0
        output = capsys.readouterr().out
        assert "sdarc" in output

    def test_stats_from_file(self, tmp_path, capsys):
        edge_file = tmp_path / "edges.txt"
        edge_file.write_text("0 1\n1 2\n2 0\n")
        assert main(["stats", "--input", str(edge_file)]) == 0
        assert "edges" in capsys.readouterr().out

    def test_compress(self, capsys):
        assert main(["compress", "--dataset", "epinion"]) == 0
        output = capsys.readouterr().out
        assert "bits/edge" in output
        assert "gorder" in output

    def test_reuse(self, capsys):
        assert main(
            [
                "reuse", "--dataset", "epinion",
                "--algorithm", "nq", "--ordering", "rcm",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "median RD" in output
        assert "miss rate" in output

    def test_evaluate(self, capsys):
        assert main(["evaluate", "--dataset", "epinion"]) == 0
        output = capsys.readouterr().out
        assert "F(pi)" in output
        assert "bits/edge" in output


class TestCacheBackendFlag:
    def test_parser_accepts_backends(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--dataset", "epinion", "--cache-backend", "step"]
        )
        assert args.cache_backend == "step"
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["run", "--dataset", "epinion",
                 "--cache-backend", "magic"]
            )

    def test_run_backends_agree(self, capsys):
        outputs = []
        for backend in ("step", "replay"):
            assert main(
                ["run", "--dataset", "epinion",
                 "--algorithm", "nq", "--ordering", "gorder",
                 "--cache-backend", backend]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "cycles" in outputs[0]
