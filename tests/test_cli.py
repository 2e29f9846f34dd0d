"""Unit tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_detector, build_parser, load_series, main, save_series
from repro.core.ensemble import EnsembleGrammarDetector
from repro.discord.discords import DiscordDetector
from repro.grammar.rra import RRADetector


@pytest.fixture
def series_file(tmp_path):
    series = np.sin(np.linspace(0, 40 * np.pi, 2000))
    series[1000:1100] = np.sin(np.linspace(0, 8 * np.pi, 100))
    path = tmp_path / "series.csv"
    save_series(path, series)
    return path


class TestSeriesIO:
    def test_round_trip(self, tmp_path):
        series = np.array([1.5, -2.25, 3.0])
        path = tmp_path / "x.csv"
        save_series(path, series)
        assert np.allclose(load_series(path), series)

    def test_header_tolerated(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.0\n2.0\n")
        assert load_series(path).tolist() == [1.0, 2.0]

    def test_comma_rows_take_first_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0,99\n2.0,98\n")
        assert load_series(path).tolist() == [1.0, 2.0]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "absent.csv")

    def test_bad_value_mid_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="not a number"):
            load_series(path)

    def test_too_short(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_series(path)


class TestBuildDetector:
    def _args(self, **overrides):
        parser = build_parser()
        base = [
            "detect", "--input", "x", "--window", "100", "--method", "ensemble",
        ]
        args = parser.parse_args(base)
        for key, value in overrides.items():
            setattr(args, key, value)
        return args

    def test_ensemble(self):
        detector = build_detector("ensemble", 100, self._args())
        assert isinstance(detector, EnsembleGrammarDetector)

    def test_discord(self):
        assert isinstance(build_detector("discord", 100, self._args()), DiscordDetector)

    def test_rra(self):
        assert isinstance(build_detector("rra", 100, self._args()), RRADetector)

    def test_parameters_forwarded(self):
        args = self._args(wmax=12, amax=8, ensemble_size=7, selectivity=0.2)
        detector = build_detector("ensemble", 100, args)
        assert detector.max_paa_size == 12
        assert detector.max_alphabet_size == 8
        assert detector.ensemble_size == 7
        assert detector.selectivity == 0.2

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            build_detector("nope", 100, self._args())


class TestDetectCommand:
    def test_detect_prints_table_and_writes_json(self, series_file, tmp_path, capsys):
        out = tmp_path / "detections.json"
        code = main(
            [
                "detect", "--input", str(series_file), "--window", "100",
                "--method", "gi", "--paa-size", "5", "--alphabet-size", "5",
                "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "rank" in captured and "position" in captured
        document = json.loads(out.read_text())
        assert document["metadata"]["window"] == 100
        assert len(document["anomalies"]) >= 1
        positions = [a["position"] for a in document["anomalies"]]
        assert any(900 <= p <= 1100 for p in positions)

    def test_detect_csv_output(self, series_file, tmp_path):
        out = tmp_path / "detections.csv"
        code = main(
            [
                "detect", "--input", str(series_file), "--window", "100",
                "--method", "gi-fix", "--csv", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "rank,position,length,score"
        assert len(lines) >= 2

    def test_missing_input_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["detect", "--input", str(tmp_path / "nope.csv"), "--window", "10"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def _two_series_files(self, tmp_path):
        first = np.sin(np.linspace(0, 40 * np.pi, 2000))
        first[1000:1100] = np.sin(np.linspace(0, 8 * np.pi, 100))
        second = np.sin(np.linspace(0, 40 * np.pi, 2000))
        second[400:500] = np.sin(np.linspace(0, 8 * np.pi, 100))
        paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
        save_series(paths[0], first)
        save_series(paths[1], second)
        return paths

    def test_batch_detect_multiple_inputs(self, tmp_path, capsys):
        """Several --input files run as one batch: one table per input, in
        input order, and numbered JSON sidecars per series."""
        paths = self._two_series_files(tmp_path)
        out = tmp_path / "out.json"
        code = main(
            [
                "detect", "--input", str(paths[0]), str(paths[1]),
                "--window", "100", "--ensemble-size", "6", "--seed", "3",
                "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        # One table per input, in input order.
        assert captured.index(str(paths[0])) < captured.index(str(paths[1]))
        for index, path in enumerate(paths):
            sidecar = tmp_path / f"out.{index}.json"
            document = json.loads(sidecar.read_text())
            assert document["metadata"]["input"] == str(path)
            assert len(document["anomalies"]) >= 1
        # Results follow their inputs: the planted anomaly of each file is
        # found near its own position, not the other file's.
        first_doc = json.loads((tmp_path / "out.0.json").read_text())
        second_doc = json.loads((tmp_path / "out.1.json").read_text())
        assert any(900 <= a["position"] <= 1100 for a in first_doc["anomalies"])
        assert any(300 <= a["position"] <= 500 for a in second_doc["anomalies"])

    def test_batch_detect_n_jobs_identical_output(self, tmp_path, capsys):
        paths = self._two_series_files(tmp_path)
        base = [
            "detect", "--input", str(paths[0]), str(paths[1]),
            "--window", "100", "--ensemble-size", "6", "--seed", "3",
        ]
        assert main(base + ["--n-jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--n-jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_invalid_n_jobs_is_clean_error(self, series_file, capsys):
        code = main(
            ["detect", "--input", str(series_file), "--window", "100", "--n-jobs", "0"]
        )
        assert code == 2
        assert "n_jobs" in capsys.readouterr().err


class TestGenerateCommand:
    def test_generate_dataset_with_truth(self, tmp_path, capsys):
        out = tmp_path / "case.csv"
        code = main(["generate", "--dataset", "Wafer", "--seed", "3", "--out", str(out)])
        assert code == 0
        series = load_series(out)
        assert len(series) == 21 * 150
        truth = json.loads((tmp_path / "case.truth.json").read_text())
        assert truth[0]["length"] == 150

    @pytest.mark.parametrize("kind", ["rw", "ecg", "eeg"])
    def test_generate_kinds(self, tmp_path, kind):
        out = tmp_path / f"{kind}.csv"
        code = main(["generate", "--kind", kind, "--length", "3000", "--out", str(out)])
        assert code == 0
        assert len(load_series(out)) == 3000

    def test_generate_fridge_has_truth(self, tmp_path):
        out = tmp_path / "fridge.csv"
        code = main(
            ["generate", "--kind", "fridge", "--length", "20000", "--out", str(out)]
        )
        assert code == 0
        truth = json.loads((tmp_path / "fridge.truth.json").read_text())
        assert {t["kind"] for t in truth} == {"distorted-cycle", "spiky-event"}

    def test_generate_without_source_errors(self, tmp_path, capsys):
        code = main(["generate", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "needs --dataset or --kind" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_evaluate_prints_methods(self, capsys, tmp_path):
        out = tmp_path / "eval.json"
        code = main(
            [
                "evaluate", "--dataset", "TwoLeadECG", "--cases", "2",
                "--methods", "gi-fix", "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "gi-fix" in captured
        document = json.loads(out.read_text())
        assert "gi-fix" in document["methods"]
        assert len(document["methods"]["gi-fix"]["scores"]) == 2


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestUnifiedExecutorFlag:
    """Regression tests: one shared --executor parser across subcommands.

    Executor flags used to be wired per subcommand (with argparse
    ``choices`` in some places and ad-hoc strings in others); they are now
    parsed by one helper with a single help string, and unknown names fail
    up front naming every valid choice.
    """

    COMMANDS_WITH_EXECUTOR = ("detect", "stream", "evaluate", "serve")

    def _help_for(self, command: str) -> str:
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0]
        return subparsers.choices[command].format_help()

    def test_every_subcommand_documents_the_same_backends(self):
        for command in self.COMMANDS_WITH_EXECUTOR:
            text = self._help_for(command)
            assert "--executor" in text
            assert "--scheduler" in text
            for backend in ("serial", "thread", "process", "cluster"):
                assert f"'{backend}'" in text, (command, backend)

    def test_executor_help_identical_across_subcommands(self):
        from repro.cli import EXECUTOR_HELP

        for command in self.COMMANDS_WITH_EXECUTOR:
            parser = build_parser()
            sub = parser._subparsers._group_actions[0].choices[command]
            actions = {a.dest: a for a in sub._actions}
            assert actions["executor"].help == EXECUTOR_HELP, command

    def test_unknown_executor_rejected_with_choices(self, capsys):
        for name in ("bogus", "dask"):
            with pytest.raises(SystemExit) as excinfo:
                main(["detect", "--input", "x.csv", "--window", "10",
                      "--executor", name])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert f"unknown executor {name!r}" in err
            for backend in ("serial", "thread", "process", "cluster"):
                assert backend in err

    def test_unknown_executor_rejected_on_every_subcommand(self, capsys):
        cases = {
            "detect": ["detect", "--input", "x.csv", "--window", "10"],
            "stream": ["stream", "--input", "x.csv", "--window", "10"],
            "evaluate": ["evaluate", "--dataset", "Wafer"],
            "serve": ["serve"],
        }
        for command in self.COMMANDS_WITH_EXECUTOR:
            with pytest.raises(SystemExit) as excinfo:
                main(cases[command] + ["--executor", "nope"])
            assert excinfo.value.code == 2, command
            assert "unknown executor" in capsys.readouterr().err, command

    def test_scheduler_without_cluster_is_clean_error(self, series_file, capsys):
        code = main(
            ["detect", "--input", str(series_file), "--window", "100",
             "--executor", "process", "--scheduler", "127.0.0.1:9"]
        )
        assert code == 2
        assert "--scheduler requires --executor cluster" in capsys.readouterr().err

    def test_scheduler_without_executor_is_clean_error(self, series_file, capsys):
        code = main(
            ["detect", "--input", str(series_file), "--window", "100",
             "--scheduler", "127.0.0.1:9"]
        )
        assert code == 2
        assert "--scheduler requires --executor cluster" in capsys.readouterr().err

    def test_worker_subcommand_in_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "worker" in capsys.readouterr().out

    def test_detect_with_cluster_executor_matches_serial(self, tmp_path, capsys):
        """End to end through the CLI: a localhost cluster batch is bitwise
        identical to the serial run of the same command."""
        first = np.sin(np.linspace(0, 30 * np.pi, 1200))
        first[600:660] = np.sin(np.linspace(0, 6 * np.pi, 60))
        second = np.sin(np.linspace(0, 30 * np.pi, 1200))
        second[300:360] = np.sin(np.linspace(0, 6 * np.pi, 60))
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        save_series(paths[0], first)
        save_series(paths[1], second)
        base = [
            "detect", "--input", str(paths[0]), str(paths[1]),
            "--window", "60", "--ensemble-size", "5", "--seed", "2",
        ]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--executor", "cluster", "--n-jobs", "2"]) == 0
        clustered = capsys.readouterr().out
        assert clustered == serial


class TestStreamCommand:
    def _feed_file(self, tmp_path, length=6000, anomaly_at=5200):
        series = np.sin(np.linspace(0, 40 * np.pi * length / 2000, length))
        series[anomaly_at : anomaly_at + 100] = np.sin(np.linspace(0, 8 * np.pi, 100))
        path = tmp_path / "feed.csv"
        save_series(path, series)
        return path

    def test_stream_bounded_reports_absolute_positions(self, tmp_path, capsys):
        path = self._feed_file(tmp_path)
        out = tmp_path / "stream.json"
        code = main(
            [
                "stream", "--input", str(path), "--window", "100",
                "--stream-capacity", "2000", "--eviction-policy", "sliding",
                "--chunk-size", "512", "--ensemble-size", "6", "--seed", "1",
                "--json", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "live range [4000, 6000)" in captured
        document = json.loads(out.read_text())
        assert document["metadata"]["stream_capacity"] == 2000
        assert document["metadata"]["eviction_policy"] == "sliding"
        assert document["metadata"]["horizon_start"] == 4000
        # Positions are absolute stream indices inside the live horizon.
        for anomaly in document["anomalies"]:
            assert 4000 <= anomaly["position"] < 6000
        assert any(
            5100 <= a["position"] <= 5300 for a in document["anomalies"]
        )

    def test_stream_decay_policy_runs(self, tmp_path, capsys):
        path = self._feed_file(tmp_path)
        code = main(
            [
                "stream", "--input", str(path), "--window", "100",
                "--stream-capacity", "2000", "--eviction-policy", "decay",
                "--ensemble-size", "5", "--seed", "0",
            ]
        )
        assert code == 0
        assert "decay eviction" in capsys.readouterr().out

    def test_stream_unbounded_by_default(self, tmp_path, capsys):
        path = self._feed_file(tmp_path, length=3000, anomaly_at=2000)
        code = main(
            [
                "stream", "--input", str(path), "--window", "100",
                "--ensemble-size", "5", "--seed", "0",
            ]
        )
        assert code == 0
        assert "live range [0, 3000)" in capsys.readouterr().out

    def test_stream_capacity_below_window_is_clean_error(self, tmp_path, capsys):
        path = self._feed_file(tmp_path, length=3000, anomaly_at=2000)
        code = main(
            [
                "stream", "--input", str(path), "--window", "100",
                "--stream-capacity", "50",
            ]
        )
        assert code == 2
        assert "smaller than one window" in capsys.readouterr().err

    def test_stream_rejects_bad_chunk_size(self, tmp_path, capsys):
        path = self._feed_file(tmp_path, length=3000, anomaly_at=2000)
        code = main(
            ["stream", "--input", str(path), "--window", "100", "--chunk-size", "0"]
        )
        assert code == 2
        assert "chunk-size" in capsys.readouterr().err


class TestExecutorLifecycle:
    """CLI-created pools must die on every path — especially failing ones.

    Regression tests for leaked ``/dev/shm`` segments when an input fails
    mid-batch or mid-stream: the CLI wraps every executor/detector it builds
    in an ``ExitStack``, so a worker exception (or a rejected chunk) still
    releases the pool and every shared-memory segment it published.
    """

    def _series(self, length=1500, anomaly_at=700):
        series = np.sin(np.linspace(0, 30 * np.pi, length))
        series[anomaly_at : anomaly_at + 60] = np.sin(np.linspace(0, 6 * np.pi, 60))
        return series

    def test_failing_batch_leaves_no_shm(self, tmp_path, capsys, shm_segments):
        good = tmp_path / "good.csv"
        save_series(good, self._series())
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnan\n2.0\n" * 200)  # NaN fails inside the worker
        before = shm_segments()
        code = main(
            [
                "detect", "--input", str(good), str(bad), "--window", "60",
                "--method", "ensemble", "--ensemble-size", "4", "--seed", "0",
                "--executor", "process", "--n-jobs", "2",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err  # the failing file is named
        assert shm_segments() == before  # no leaked segments on the error path

    def test_failing_batch_without_executor_flag(self, tmp_path, capsys, shm_segments):
        """Same regression via the default n_jobs pool (no --executor)."""
        good = tmp_path / "good.csv"
        save_series(good, self._series())
        bad = tmp_path / "bad.csv"
        save_series(bad, np.arange(10.0))  # far too short for the window
        before = shm_segments()
        code = main(
            [
                "detect", "--input", str(good), str(bad), "--window", "60",
                "--method", "ensemble", "--ensemble-size", "4", "--seed", "0",
                "--n-jobs", "2",
            ]
        )
        assert code == 2
        assert shm_segments() == before

    def test_failing_stream_closes_executor(self, tmp_path, capsys, shm_segments):
        """A chunk rejected mid-stream must tear down the snapshot pool."""
        path = tmp_path / "feed.csv"
        values = [f"{v:.6f}" for v in self._series(1200)]
        values[900] = "nan"  # rejected by the stream state mid-feed
        path.write_text("\n".join(values) + "\n")
        before = shm_segments()
        code = main(
            [
                "stream", "--input", str(path), "--window", "60",
                "--ensemble-size", "4", "--seed", "0",
                "--executor", "process", "--n-jobs", "2",
            ]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert shm_segments() == before


class TestPartialBatchFailure:
    """One bad file in a multi-file batch must not abort the others.

    Regression tests for the PR 4 bugfix: `detect` with several --input
    files now emits every successful result, names the failing path(s) on
    stderr, and exits nonzero — instead of discarding the whole batch on
    the first BatchItemError.
    """

    def _write_good(self, path, length=1500):
        series = np.sin(np.linspace(0, 30 * np.pi, length))
        series[700:760] = np.sin(np.linspace(0, 6 * np.pi, 60))
        save_series(path, series)

    def test_corrupt_middle_file_still_reports_neighbours(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        corrupt = tmp_path / "corrupt.csv"
        last = tmp_path / "last.csv"
        self._write_good(first)
        corrupt.write_text("1.0\nnot-a-number\n2.0\n")
        self._write_good(last)
        code = main(
            [
                "detect", "--input", str(first), str(corrupt), str(last),
                "--window", "60", "--method", "ensemble",
                "--ensemble-size", "4", "--seed", "0",
            ]
        )
        assert code != 0
        captured = capsys.readouterr()
        # Both healthy files were fully reported...
        assert "first.csv" in captured.out
        assert "last.csv" in captured.out
        # ...the corrupt one was named on stderr with its parse error...
        assert "corrupt.csv" in captured.err
        assert "not-a-number" in captured.err
        assert "1 of 3 input file(s) failed" in captured.err
        # ...and never leaked into stdout as a result.
        assert "corrupt.csv" not in captured.out

    def test_worker_failure_mid_batch(self, tmp_path, capsys):
        """A series that loads but fails inside the worker is also contained."""
        good = tmp_path / "good.csv"
        short = tmp_path / "short.csv"
        tail = tmp_path / "tail.csv"
        self._write_good(good)
        save_series(short, np.arange(10.0))  # loads, but window=60 rejects it
        self._write_good(tail)
        code = main(
            [
                "detect", "--input", str(good), str(short), str(tail),
                "--window", "60", "--method", "ensemble",
                "--ensemble-size", "4", "--seed", "0", "--n-jobs", "2",
            ]
        )
        assert code != 0
        captured = capsys.readouterr()
        assert "good.csv" in captured.out
        assert "tail.csv" in captured.out
        assert "short.csv" in captured.err

    def test_partial_failure_with_executor_no_shm_leak(self, tmp_path, capsys, shm_segments):
        good = tmp_path / "good.csv"
        bad = tmp_path / "bad.csv"
        self._write_good(good)
        bad.write_text("1.0\nnan\n2.0\n" * 200)  # NaN fails inside the worker
        before = shm_segments()
        code = main(
            [
                "detect", "--input", str(good), str(bad),
                "--window", "60", "--method", "ensemble",
                "--ensemble-size", "4", "--seed", "0",
                "--executor", "process", "--n-jobs", "2",
            ]
        )
        assert code != 0
        captured = capsys.readouterr()
        assert "good.csv" in captured.out  # the healthy file was reported
        assert "bad.csv" in captured.err
        assert shm_segments() == before

    def test_json_sidecars_written_for_successes_only(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        bad = tmp_path / "bad.csv"
        self._write_good(good)
        bad.write_text("oops\nnope\n")
        out = tmp_path / "out.json"
        code = main(
            [
                "detect", "--input", str(good), str(bad),
                "--window", "60", "--method", "ensemble",
                "--ensemble-size", "4", "--seed", "0",
                "--json", str(out),
            ]
        )
        assert code != 0
        capsys.readouterr()
        assert (tmp_path / "out.0.json").exists()  # slot 0: the good file
        assert not (tmp_path / "out.1.json").exists()  # slot 1 failed

    def test_single_bad_file_still_hard_fails(self, tmp_path, capsys):
        """With exactly one input the old contract stands: error + exit 2."""
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n2.0\n")
        code = main(
            ["detect", "--input", str(bad), "--window", "60", "--method", "ensemble"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "not-a-number" in captured.err
        assert not captured.out.strip()

    def test_all_good_files_exit_zero(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            self._write_good(path)
            paths.append(str(path))
        code = main(
            [
                "detect", "--input", *paths, "--window", "60",
                "--method", "ensemble", "--ensemble-size", "4", "--seed", "0",
            ]
        )
        assert code == 0
        assert "failed" not in capsys.readouterr().err

    def test_survivor_results_independent_of_neighbour_load_failure(self, tmp_path, capsys):
        """A file's batch result must not depend on a neighbour failing to load.

        Seeds are spawned over all inputs and passed explicitly, so slot i
        sees the same seed whether its neighbours loaded, failed in the
        worker, or failed at load time.
        """
        first = tmp_path / "first.csv"
        middle_good = tmp_path / "middle.csv"
        last = tmp_path / "last.csv"
        self._write_good(first)
        self._write_good(middle_good, length=1400)
        self._write_good(last)

        def run_batch(middle_path):
            out = tmp_path / "out.json"
            code = main(
                [
                    "detect", "--input", str(first), str(middle_path), str(last),
                    "--window", "60", "--method", "ensemble",
                    "--ensemble-size", "4", "--seed", "5", "--json", str(out),
                ]
            )
            capsys.readouterr()
            results = {}
            for index in (0, 1, 2):
                sidecar = tmp_path / f"out.{index}.json"
                if sidecar.exists():
                    results[index] = sidecar.read_text()
                    sidecar.unlink()
            return code, results

        code_ok, all_good = run_batch(middle_good)
        assert code_ok == 0 and set(all_good) == {0, 1, 2}
        corrupt = tmp_path / "corrupt.csv"
        corrupt.write_text("1.0\nbroken\n2.0\n")
        code_bad, partial = run_batch(corrupt)
        assert code_bad != 0 and set(partial) == {0, 2}
        # Survivors' detections are bitwise identical to the all-good run.
        assert partial[0] == all_good[0]
        assert partial[2] == all_good[2]

    def test_directory_input_contained(self, tmp_path, capsys):
        """A non-file input (IsADirectoryError) is contained like any other."""
        good = tmp_path / "good.csv"
        self._write_good(good)
        folder = tmp_path / "folder.csv"
        folder.mkdir()
        code = main(
            [
                "detect", "--input", str(good), str(folder), "--window", "60",
                "--method", "ensemble", "--ensemble-size", "4", "--seed", "0",
            ]
        )
        assert code != 0
        captured = capsys.readouterr()
        assert "good.csv" in captured.out
        assert "folder.csv" in captured.err
