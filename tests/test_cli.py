"""Smoke tests for the command-line interface."""

from dataclasses import replace

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


    def test_removed_ordering_is_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["order", "--ordering", "gorder-lazy"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'gorder-lazy'" in capsys.readouterr().err


class TestOrderingFlags:
    """``order``/``run`` reject a knob their ordering does not
    declare, as serve does; the profile-wide commands apply each knob
    to the orderings that declare it."""

    @pytest.mark.parametrize("command", ["order", "run"])
    def test_undeclared_flag_is_an_error(self, command, capsys):
        assert main(
            [command, "--dataset", "epinion", "--ordering", "gorder",
             "--workers", "2"]
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "does not accept parameter(s) workers" in err
        assert "accepted: hub_threshold, window" in err

    def test_profile_wide_flag_reaches_declaring_orderings(
        self, monkeypatch, capsys
    ):
        from repro.perf import experiments

        seen = []
        real = experiments.time_ordering

        def spy(graph, config, repeats=1):
            seen.append(config)
            return real(graph, config, repeats)

        monkeypatch.setenv("REPRO_DATASETS", "epinion")
        monkeypatch.setattr(experiments, "time_ordering", spy)
        monkeypatch.setitem(
            experiments.PROFILES,
            "quick",
            replace(
                experiments.PROFILES["quick"],
                orderings=("rcm", "gorder-part"),
            ),
        )
        assert main(
            ["ordering-time", "--profile", "quick", "--workers", "1"]
        ) == 0
        assert {c.ordering: c.params for c in seen} == {
            "rcm": (),
            "gorder-part": (("workers", 1),),
        }


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
        output = capsys.readouterr().out
        assert "MinLA energy" in output
        assert "MinLogA energy" in output

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


class TestEvaluate:
    """``evaluate`` is the NQ probe's amortisation table over every
    headline ordering, plus the locality columns."""

    HEADERS = [
        "ordering", "F(pi)", "E_LA", "avg-gap", "bandwidth",
        "bits/edge", "L1-mr", "Cache-mr", "NQ cycles", "speedup",
        "order-s", "break-even",
    ]

    @pytest.fixture(scope="class")
    def table(self):
        import contextlib
        import io

        from repro.ordering import ORDERING_NAMES

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["evaluate", "--dataset", "epinion"]) == 0
        lines = out.getvalue().splitlines()
        rows = [line.split() for line in lines[3:] if line.strip()]
        assert len(rows) == len(ORDERING_NAMES)
        return lines[1], rows

    def test_headers(self, table):
        header_line, _ = table
        positions = [header_line.find(name) for name in self.HEADERS]
        assert -1 not in positions
        assert positions == sorted(positions)

    def test_one_row_per_ordering(self, table):
        from repro.ordering import ORDERING_NAMES

        _, rows = table
        assert sorted(row[0] for row in rows) == sorted(ORDERING_NAMES)

    def test_fastest_probe_first(self, table):
        _, rows = table
        speedups = [float(row[self.HEADERS.index("speedup")])
                    for row in rows]
        assert speedups == sorted(speedups, reverse=True)

    def test_break_even_against_original(self, table):
        _, rows = table
        by_name = {row[0]: row for row in rows}
        assert by_name["original"][-1] == "baseline"
        assert by_name["original"][self.HEADERS.index("speedup")] == (
            "1.000"
        )


class TestRetiredBackendFlags:
    def test_parser_rejects_backend_flags(self):
        parser = build_parser()
        for command in ("run", "speedup", "stall", "cache-stats",
                        "window"):
            for flag, value in (("--cache-backend", "step"),
                                ("--algo-backend", "scalar")):
                with pytest.raises(SystemExit) as excinfo:
                    parser.parse_args([command, flag, value])
                assert excinfo.value.code == 2
