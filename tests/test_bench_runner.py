"""Tests for the bench matrix runner: schema, fingerprint, gate math, CLI.

The runner lives under ``benchmarks/runner`` (not an installed package);
tests locate it the same way ``repro bench`` does and put it on the path.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from repro.cli import find_benchmarks_dir, main
from repro.utils.timing import Measurement, collect, measure

BENCH_DIR = find_benchmarks_dir()
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from runner.compare import (  # noqa: E402
    baseline_from_record,
    compare_record,
    compare_records,
    comparison_report,
    load_baselines,
    write_baselines,
)
from runner.machine import FINGERPRINT_FIELDS, git_sha, machine_fingerprint  # noqa: E402
from runner.matrix import load_matrix  # noqa: E402
from runner.schema import (  # noqa: E402
    SCHEMA_VERSION,
    BenchRecord,
    read_ndjson,
    record_from_measurement,
    summarize,
    write_ndjson,
)


def _record(metric="w.m", value=1.0, iqr=0.0, direction="lower", tolerance=0.5, machine=None):
    """A hand-built record with a controlled median/IQR for gate tests."""
    samples = (value - iqr / 2, value, value + iqr / 2)
    return BenchRecord(
        metric=metric,
        workload="w",
        unit="us",
        value=value,
        iqr=iqr,
        best=min(samples),
        mean=value,
        repeats=len(samples),
        warmup=1,
        direction=direction,
        tolerance=tolerance,
        samples=samples,
        params={"points": 10},
        machine=machine or dict(machine_fingerprint()),
    )


class TestMeasurementCore:
    def test_median_iqr_best_from_samples(self):
        m = Measurement(samples=(3.0, 1.0, 2.0, 10.0))
        assert m.median == 2.5
        assert m.best == 1.0
        assert m.iqr == pytest.approx(3.0)  # q3 (4.75) - q1 (1.75)
        assert m.mean == 4.0

    def test_measure_runs_warmup_plus_repeats(self):
        calls = []
        m = measure(lambda: calls.append(1), warmup=2, repeats=3)
        assert len(calls) == 5
        assert len(m.samples) == 3

    def test_collect_rejects_metric_drift(self):
        results = iter([{"a": 1.0}, {"b": 2.0}])
        with pytest.raises(ValueError, match="metric"):
            collect(lambda: next(results), warmup=0, repeats=2)


class TestSchema:
    def test_record_round_trips_through_json(self):
        record = _record(value=2.5, iqr=0.1)
        assert BenchRecord.from_json(record.as_json()) == record

    def test_from_json_rejects_unknown_schema_version(self):
        payload = _record().as_json()
        payload["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            BenchRecord.from_json(payload)

    def test_ndjson_round_trip_and_summary(self, tmp_path):
        records = [_record(metric="w.a", value=1.0), _record(metric="w.b", value=2.0)]
        path = write_ndjson(tmp_path / "run.ndjson", records)
        assert read_ndjson(path) == records

        summary = summarize(records)
        assert set(summary["metrics"]) == {"w.a", "w.b"}
        assert "samples" not in summary["metrics"]["w.a"]
        assert summary["machine"]["cpu_model"] == records[0].machine["cpu_model"]

    def test_summary_rejects_duplicate_metric_ids(self):
        with pytest.raises(ValueError, match="duplicate"):
            summarize([_record(metric="w.a"), _record(metric="w.a")])

    def test_record_from_measurement_carries_protocol(self):
        m = Measurement(samples=(1.0, 2.0, 3.0))
        record = record_from_measurement(
            metric="w.m",
            workload="w",
            unit="us",
            measurement=m,
            warmup=2,
            params={"n": 1},
            machine=dict(machine_fingerprint()),
        )
        assert record.value == m.median
        assert record.repeats == 3
        assert record.warmup == 2


class TestMachineFingerprint:
    def test_stable_within_process(self):
        assert machine_fingerprint() is machine_fingerprint()

    def test_carries_all_provenance_fields(self):
        fingerprint = machine_fingerprint()
        for field in FINGERPRINT_FIELDS:
            assert fingerprint[field], field
        assert isinstance(fingerprint["cpu_count"], int)

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_sha_marks_a_tree_that_differs_from_head(self, tmp_path, monkeypatch):
        monkeypatch.delenv("GITHUB_SHA", raising=False)
        # Keep git from finding a checkout above the temporary directory.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))

        def git(*args):
            subprocess.run(
                ["git", "-C", str(tmp_path), "-c", "user.name=bench", "-c",
                 "user.email=bench@example.invalid", *args],
                check=True, capture_output=True,
            )

        assert git_sha(tmp_path) == "unknown"  # not a checkout yet
        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "first")
        head = subprocess.run(
            ["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert git_sha(tmp_path) == head
        (tmp_path / "untracked.txt").write_text("ignored\n")
        assert git_sha(tmp_path) == head  # untracked files do not count
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_sha(tmp_path) == head + "+dirty"
        git("add", "tracked.txt")
        assert git_sha(tmp_path) == head + "+dirty"  # staged, not committed
        git("commit", "-q", "-m", "second")
        assert git_sha(tmp_path) not in (head, head + "+dirty")
        assert not git_sha(tmp_path).endswith("+dirty")


class TestGateMath:
    def test_flags_3x_slowdown(self):
        baseline = baseline_from_record(_record(value=1.0, iqr=0.05))
        verdict = compare_record(_record(value=3.0, iqr=0.05), baseline)
        assert verdict.regressed and not verdict.improved

    def test_passes_within_noise_jitter(self):
        baseline = baseline_from_record(_record(value=1.0, iqr=0.05))
        verdict = compare_record(_record(value=1.2, iqr=0.05), baseline)
        assert not verdict.regressed and not verdict.improved

    def test_noise_margin_forgives_wide_iqr(self):
        # 1.6x exceeds the 1.5x tolerance band, but the IQR says the runs
        # are too noisy for that to be significant.
        baseline = baseline_from_record(_record(value=1.0, iqr=0.3))
        assert not compare_record(_record(value=1.6, iqr=0.05), baseline).regressed

    def test_reports_improvement_beyond_tolerance(self):
        baseline = baseline_from_record(_record(value=3.0, iqr=0.01))
        verdict = compare_record(_record(value=1.0, iqr=0.01), baseline)
        assert verdict.improved and not verdict.regressed

    def test_higher_is_better_direction_inverts(self):
        baseline = baseline_from_record(_record(value=300.0, iqr=1.0, direction="higher"))
        slower = compare_record(_record(value=100.0, iqr=1.0, direction="higher"), baseline)
        assert slower.regressed
        faster = compare_record(_record(value=900.0, iqr=1.0, direction="higher"), baseline)
        assert faster.improved and not faster.regressed

    def test_cross_machine_slack_widens_the_gate(self):
        other = dict(machine_fingerprint())
        other["cpu_model"] = "some other cpu"
        baseline = baseline_from_record(_record(value=1.0, iqr=0.0, machine=other))
        # 1.9x: over the same-machine 1.5x gate, under the 2x-slack 2.5x gate.
        verdict = compare_record(
            _record(value=1.9, iqr=0.0), baseline, cross_machine_slack=2.0
        )
        assert not verdict.machine_match
        assert not verdict.regressed
        assert compare_record(_record(value=1.9, iqr=0.0), baseline).regressed

    def test_report_exit_codes_honor_strict(self):
        baseline = baseline_from_record(_record(value=1.0, iqr=0.0))
        comparisons, untracked = compare_records(
            [_record(value=3.0, iqr=0.0), _record(metric="w.new", value=1.0)],
            {"w.m": baseline},
        )
        assert untracked == ["w.new"]
        text, code = comparison_report(comparisons, untracked, strict=True)
        assert code == 1 and "REGRESSED" in text and "w.new" in text
        text, code = comparison_report(comparisons, untracked, strict=False)
        assert code == 0 and "REGRESSED" in text

    def test_clean_report_exits_zero(self):
        baseline = baseline_from_record(_record(value=1.0, iqr=0.0))
        comparisons, untracked = compare_records([_record(value=1.1, iqr=0.0)], {"w.m": baseline})
        _, code = comparison_report(comparisons, untracked, strict=True)
        assert code == 0


class TestBaselineFiles:
    def test_write_load_round_trip(self, tmp_path):
        record = _record(metric="w.m", value=2.0, iqr=0.1)
        write_baselines(tmp_path, [record])
        baselines = load_baselines(tmp_path)
        assert set(baselines) == {"w.m"}
        assert baselines["w.m"]["value"] == 2.0
        assert "samples" not in baselines["w.m"]

    def test_load_rejects_renamed_file(self, tmp_path):
        (path,) = write_baselines(tmp_path, [_record(metric="w.m")])
        path.rename(tmp_path / "w.other.json")
        with pytest.raises(ValueError, match="does not match"):
            load_baselines(tmp_path)


class TestBenchCli:
    CELL = "grammar_tokens"

    def test_list_prints_tier1_cells(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert self.CELL in out and "sliding_poll" in out
        assert "dispatch" not in out  # tier 2 stays out of the default listing

    def test_list_all_includes_tier2(self, capsys):
        assert main(["bench", "--list", "--tier", "all"]) == 0
        assert "service_throughput" in capsys.readouterr().out

    def test_empty_selection_is_an_error(self, capsys):
        assert main(["bench", "--list", "--filter", "no-such-cell"]) == 2
        assert "no matrix cells" in capsys.readouterr().err

    def test_run_and_compare_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        out_dir = tmp_path / "results"
        base_dir = tmp_path / "baselines"

        # First run seeds the baselines through the runner's own writer.
        from runner.cli import run_cells

        matrix = load_matrix(BENCH_DIR / "bench_matrix.toml")
        cells = matrix.cells(tier=1, pattern=self.CELL)
        assert len(cells) == 1
        records = run_cells(cells, warmup=0, repeats=2)
        write_baselines(base_dir, records)

        # Unchanged tree: the same cell gates green against itself.
        code = main(
            [
                "bench",
                "--filter", self.CELL,
                "--warmup", "0",
                "--repeats", "2",
                "--output", str(out_dir),
                "--compare", str(base_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 regression(s)" in out
        assert (out_dir / "bench_matrix.ndjson").is_file()
        assert (out_dir / "bench_matrix_summary.json").is_file()
        (loaded,) = read_ndjson(out_dir / "bench_matrix.ndjson")
        assert loaded.metric == f"{self.CELL}.us_per_token"

        # Injected 10x slowdown (by shrinking the committed baseline):
        # nonzero exit when strict, zero when REPRO_BENCH_STRICT=0.
        baseline_file = base_dir / f"{self.CELL}.us_per_token.json"
        payload = json.loads(baseline_file.read_text())
        payload["value"] /= 10.0
        payload["iqr"] = 0.0
        baseline_file.write_text(json.dumps(payload))

        args = [
            "bench",
            "--filter", self.CELL,
            "--warmup", "0",
            "--repeats", "2",
            "--output", str(out_dir),
            "--compare", str(base_dir),
        ]
        assert main(args) == 1
        assert "REGRESSED" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        assert main(args) == 0
