"""Regression tests for benchlib's disk caches and the strict() switch.

Three cache bugs are pinned here:

- ``sweep_ensemble_scores`` built its cache key with
  ``int(selectivity * 100)``, so 0.29 truncated to 28 (binary float) and
  collided with 0.28's file — and ``k`` was missing from the key entirely,
  so callers varying ``k`` were served each other's scores.
- ``run_main_suite`` validated a cached suite by its dataset set alone, so
  a method added to ``METHOD_ORDER`` silently reused a stale suite that
  did not contain it.
- Neither key covered the detector's code, so scores cached before a change
  to ``src/repro`` were served after it.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

from repro.cli import find_benchmarks_dir

BENCH_DIR = find_benchmarks_dir()
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import benchlib  # noqa: E402


class TestStrictSwitch:
    def test_default_is_strict(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_STRICT", raising=False)
        assert benchlib.strict() is True

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        assert benchlib.strict() is False

    def test_read_per_call_not_cached(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_STRICT", "1")
        assert benchlib.strict() is True
        monkeypatch.setenv("REPRO_BENCH_STRICT", "0")
        assert benchlib.strict() is False


class TestSweepCacheKey:
    SWEEP_KWARGS = dict(ensemble_size=2, n_cases=1, window=40)

    def test_nearby_selectivities_get_distinct_cache_files(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchlib, "RESULTS_DIR", tmp_path)
        # 0.29 truncates to int(28.999...) = 28 under the old key scheme,
        # which collided with selectivity=0.28's file.
        first = benchlib.sweep_ensemble_scores(
            "GunPoint", selectivity=0.28, **self.SWEEP_KWARGS
        )
        benchlib.sweep_ensemble_scores("GunPoint", selectivity=0.29, **self.SWEEP_KWARGS)
        assert len(list(tmp_path.glob("sweep_*.json"))) == 2

        # Re-reading 0.28 must hit its own cache, not 0.29's.
        poison = [999.0]
        for path in tmp_path.glob("sweep_*.json"):
            if "t0.29" in path.name:
                path.write_text(json.dumps(poison))
        assert (
            benchlib.sweep_ensemble_scores("GunPoint", selectivity=0.28, **self.SWEEP_KWARGS)
            == first
        )
        assert (
            benchlib.sweep_ensemble_scores("GunPoint", selectivity=0.29, **self.SWEEP_KWARGS)
            == poison
        )

    def test_k_is_part_of_the_key(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchlib, "RESULTS_DIR", tmp_path)
        benchlib.sweep_ensemble_scores("GunPoint", k=1, **self.SWEEP_KWARGS)
        benchlib.sweep_ensemble_scores("GunPoint", k=3, **self.SWEEP_KWARGS)
        names = sorted(path.name for path in tmp_path.glob("sweep_*.json"))
        assert len(names) == 2
        assert any("_k1" in name for name in names)
        assert any("_k3" in name for name in names)

    def test_cache_hit_skips_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchlib, "RESULTS_DIR", tmp_path)
        first = benchlib.sweep_ensemble_scores("GunPoint", **self.SWEEP_KWARGS)
        (cache,) = tmp_path.glob("sweep_*.json")
        canned = [0.123]
        cache.write_text(json.dumps(canned))
        assert benchlib.sweep_ensemble_scores("GunPoint", **self.SWEEP_KWARGS) == canned
        assert first != canned

    def test_changed_source_digest_forces_a_recompute(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchlib, "RESULTS_DIR", tmp_path)
        first = benchlib.sweep_ensemble_scores("GunPoint", **self.SWEEP_KWARGS)
        (cache,) = tmp_path.glob("sweep_*.json")
        assert f"_src{benchlib.source_digest()}" in cache.name
        cache.write_text(json.dumps([0.123]))
        monkeypatch.setattr(benchlib, "source_digest", lambda: "0123456789ab")
        assert benchlib.sweep_ensemble_scores("GunPoint", **self.SWEEP_KWARGS) == first
        assert len(list(tmp_path.glob("sweep_*.json"))) == 2


class TestSourceDigest:
    def test_covers_python_and_c_sources(self, tmp_path, monkeypatch):
        package = tmp_path / "repro"
        (package / "grammar").mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "grammar" / "_kernel.c").write_text("int f(void) { return 0; }\n")
        (package / "notes.txt").write_text("not a source")
        fake = SimpleNamespace(__file__=str(package / "__init__.py"))
        monkeypatch.setattr(benchlib, "repro", fake)

        def digest() -> str:
            benchlib.source_digest.cache_clear()
            return benchlib.source_digest()

        try:
            first = digest()
            assert len(first) == 12
            (package / "notes.txt").write_text("still not a source")
            assert digest() == first
            (package / "grammar" / "_kernel.c").write_text("int f(void) { return 1; }\n")
            second = digest()
            assert second != first
            (package / "__init__.py").write_text("VERSION = 2\n")
            assert digest() not in (first, second)
        finally:
            benchlib.source_digest.cache_clear()


class _StubScores(SimpleNamespace):
    pass


class TestSuiteCacheValidation:
    def _stub_suite(self, monkeypatch, tmp_path):
        """Point benchlib at tmp results and replace the heavy evaluation."""
        monkeypatch.setattr(benchlib, "RESULTS_DIR", tmp_path)
        calls = []

        def fake_evaluate(corpus, factories):
            calls.append(corpus)
            return {
                name: _StubScores(scores=(0.5,)) for name in benchlib.METHOD_ORDER
            }

        monkeypatch.setattr(benchlib, "corpus_for", lambda name, n: name)
        monkeypatch.setattr(benchlib, "make_baseline_factories", lambda seed: {})
        monkeypatch.setattr(benchlib, "evaluate_methods_on_corpus", fake_evaluate)
        return calls

    def _write_cache(self, payload):
        path = benchlib._suite_cache_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))

    def test_complete_cache_is_reused(self, tmp_path, monkeypatch):
        calls = self._stub_suite(monkeypatch, tmp_path)
        cached = {
            dataset: {method: [0.9] for method in benchlib.METHOD_ORDER}
            for dataset in benchlib.DATASET_ORDER
        }
        self._write_cache(cached)
        assert benchlib.run_main_suite() == cached
        assert calls == []

    def test_missing_method_triggers_recompute(self, tmp_path, monkeypatch):
        calls = self._stub_suite(monkeypatch, tmp_path)
        stale = {
            dataset: {method: [0.9] for method in benchlib.METHOD_ORDER}
            for dataset in benchlib.DATASET_ORDER
        }
        # The old validator only checked the dataset set, so a suite cached
        # before a method joined METHOD_ORDER was reused and downstream
        # benches KeyError'd on the missing method.
        del stale[benchlib.DATASET_ORDER[0]][benchlib.METHOD_ORDER[-1]]
        self._write_cache(stale)
        suite = benchlib.run_main_suite()
        assert len(calls) == len(benchlib.DATASET_ORDER)
        for dataset in benchlib.DATASET_ORDER:
            assert set(suite[dataset]) == set(benchlib.METHOD_ORDER)
        # The stale file was replaced on disk, not just bypassed.
        reloaded = json.loads(benchlib._suite_cache_path().read_text())
        assert set(reloaded[benchlib.DATASET_ORDER[0]]) == set(benchlib.METHOD_ORDER)

    def test_changed_source_digest_triggers_recompute(self, tmp_path, monkeypatch):
        calls = self._stub_suite(monkeypatch, tmp_path)
        cached = {
            dataset: {method: [0.9] for method in benchlib.METHOD_ORDER}
            for dataset in benchlib.DATASET_ORDER
        }
        self._write_cache(cached)
        monkeypatch.setattr(benchlib, "source_digest", lambda: "0123456789ab")
        suite = benchlib.run_main_suite()
        assert len(calls) == len(benchlib.DATASET_ORDER)
        assert suite[benchlib.DATASET_ORDER[0]][benchlib.METHOD_ORDER[0]] == [0.5]
        assert len(list(tmp_path.glob("suite_*.json"))) == 2

    def test_missing_dataset_triggers_recompute(self, tmp_path, monkeypatch):
        calls = self._stub_suite(monkeypatch, tmp_path)
        stale = {
            dataset: {method: [0.9] for method in benchlib.METHOD_ORDER}
            for dataset in benchlib.DATASET_ORDER[:-1]
        }
        self._write_cache(stale)
        suite = benchlib.run_main_suite()
        assert len(calls) == len(benchlib.DATASET_ORDER)
        assert set(suite) == set(benchlib.DATASET_ORDER)
