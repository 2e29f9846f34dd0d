"""Session snapshots: bitwise restore, versioning, stores, DetectorConfig.

The contract under test is the crash-recovery foundation of the sharded
serving tier: ``StreamingEnsembleDetector.restore(snapshot())`` yields a
detector whose every *future* poll and append is bitwise identical to the
original's — across kernels (``python``/``fast``), across eviction
policies (unbounded/sliding/decay), and across the wire encoding
(:func:`~repro.service.snapshot.encode_snapshot` /
:func:`~repro.service.snapshot.decode_snapshot`). Version skew — container
or state — is rejected loudly, never half-restored; the recorded kernel name
is informational, so a snapshot naming a kernel this build lacks restores.
"""

from __future__ import annotations

import argparse

import numpy as np
import pytest

import repro.core.streaming as streaming_mod
import repro.service.snapshot as snapshot_mod
from oracles.interner import StreamingOracleInterner
from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.streaming import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_STATE_VERSION,
    SnapshotVersionError,
    StreamingEnsembleDetector,
)
from repro.grammar import _kernel
from repro.service.config import DETECT_FIELDS, DetectorConfig
from repro.service.snapshot import (
    LocalSnapshotStore,
    decode_snapshot,
    encode_snapshot,
)

KERNELS = ("python", "fast")

POLICIES = (
    {},
    {"capacity": 700, "policy": "sliding"},
    {"capacity": 700, "policy": "decay", "segments": 4},
)


def make_feed(seed: int = 9, n: int = 1100) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 22.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[640:700] *= 0.2
    return series


def build(policy: dict, seed: int = 5) -> StreamingEnsembleDetector:
    return StreamingEnsembleDetector(
        window=50,
        max_paa_size=5,
        max_alphabet_size=5,
        ensemble_size=5,
        seed=seed,
        **policy,
    )


def ranked(detector: StreamingEnsembleDetector, k: int = 4) -> list[tuple]:
    return [(a.rank, a.position, a.length, a.score) for a in detector.detect(k)]


class TestBitwiseRestore:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("policy", POLICIES, ids=("unbounded", "sliding", "decay"))
    def test_restore_is_bitwise_identical_now_and_later(self, kernel, policy):
        feed = make_feed()
        with _kernel.use_kernel(kernel):
            original = build(policy)
            original.extend(feed[:600])
            restored = StreamingEnsembleDetector.restore(original.snapshot())
            # Identical immediately...
            assert ranked(restored) == ranked(original)
            np.testing.assert_array_equal(
                restored.density_curve(), original.density_curve()
            )
            # ...and bitwise identical on every future poll as both keep
            # consuming the stream (uneven chunking on purpose).
            boundaries = (600, 733, 901, len(feed))
            for start, stop in zip(boundaries, boundaries[1:]):
                original.extend(feed[start:stop])
                restored.extend(feed[start:stop])
                assert ranked(restored) == ranked(original)
            assert len(restored) == len(original) == len(feed)

    @pytest.mark.parametrize("policy", POLICIES, ids=("unbounded", "sliding", "decay"))
    def test_restore_is_kernel_portable(self, policy):
        """Snapshot under one kernel, restore under the other: identical."""
        feed = make_feed()
        with _kernel.use_kernel("fast"):
            original = build(policy)
            original.extend(feed[:700])
            state = original.snapshot()
            original.extend(feed[700:])
            reference = ranked(original)
        with _kernel.use_kernel("python"):
            restored = StreamingEnsembleDetector.restore(state)
            restored.extend(feed[700:])
            assert ranked(restored) == reference

    def test_snapshot_survives_the_wire_encoding(self):
        feed = make_feed()
        original = build({"capacity": 700, "policy": "decay", "segments": 3})
        original.extend(feed[:800])
        restored = StreamingEnsembleDetector.restore(
            decode_snapshot(encode_snapshot(original.snapshot()))
        )
        original.extend(feed[800:])
        restored.extend(feed[800:])
        assert ranked(restored) == ranked(original)

    def test_restored_session_matches_never_interrupted_run(self):
        """The serving-tier contract in one line: resume == never crashed."""
        feed = make_feed()
        uninterrupted = build({})
        uninterrupted.extend(feed)

        crashed = build({})
        crashed.extend(feed[:500])
        resumed = StreamingEnsembleDetector.restore(crashed.snapshot())
        resumed.extend(feed[500:])
        assert ranked(resumed) == ranked(uninterrupted)


def assert_same_state(ours, theirs, path="snapshot") -> None:
    """Recursive equality of snapshot structures; arrays compare by dtype
    and value, everything else by type and ``==``."""
    assert type(ours) is type(theirs), path
    if isinstance(ours, dict):
        assert ours.keys() == theirs.keys(), path
        for key in ours:
            assert_same_state(ours[key], theirs[key], f"{path}[{key!r}]")
    elif isinstance(ours, (list, tuple)):
        assert len(ours) == len(theirs), path
        for index, (a, b) in enumerate(zip(ours, theirs)):
            assert_same_state(a, b, f"{path}[{index}]")
    elif isinstance(ours, np.ndarray):
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), path
    else:
        assert ours == theirs, path


def noisy_feed() -> np.ndarray:
    """``make_feed`` riding a random walk: hundreds of distinct words."""
    walk = np.cumsum(np.random.default_rng(4).standard_normal(1500))
    return make_feed(n=1500) + 0.3 * walk


class TestInternerStability:
    """Token ids go into snapshots, so the native interner must export what
    the pure-Python oracle interner exports, id value for id value, and a
    snapshot taken on either must resume bitwise on the other."""

    @pytest.mark.parametrize("policy", POLICIES, ids=("unbounded", "sliding", "decay"))
    def test_export_state_equals_the_oracle_interners(self, policy, monkeypatch):
        feed = noisy_feed()
        native = build(policy)
        with monkeypatch.context() as patch:
            patch.setattr(streaming_mod, "WordInterner", StreamingOracleInterner)
            oracle = build(policy)
        assert all(type(m._interner) is StreamingOracleInterner for m in oracle.members)
        boundaries = (0, 1, 260, 333, 900, 901, len(feed))
        for start, stop in zip(boundaries, boundaries[1:]):
            native.extend(feed[start:stop])
            oracle.extend(feed[start:stop])
            assert_same_state(
                [m.export_state() for m in native.members],
                [m.export_state() for m in oracle.members],
            )
            if stop >= 100:
                assert ranked(native) == ranked(oracle)
        assert_same_state(native.snapshot(), oracle.snapshot())
        assert sum(len(m._interner) for m in native.members) > 150

    @pytest.mark.parametrize("policy", POLICIES, ids=("unbounded", "sliding", "decay"))
    def test_restore_across_interners_continues_bitwise(self, policy, monkeypatch):
        feed = noisy_feed()
        uninterrupted = build(policy)
        uninterrupted.extend(feed)
        reference = ranked(uninterrupted)
        curve = uninterrupted.density_curve()
        native = build(policy)
        native.extend(feed[:800])
        with monkeypatch.context() as patch:
            patch.setattr(streaming_mod, "WordInterner", StreamingOracleInterner)
            oracle = build(policy)
            oracle.extend(feed[:800])
            # Native snapshot, resumed on the oracle interner.
            on_oracle = StreamingEnsembleDetector.restore(native.snapshot())
            on_oracle.extend(feed[800:1111])
            on_oracle.extend(feed[1111:])
        # Oracle snapshot, resumed on the native interner.
        on_native = StreamingEnsembleDetector.restore(oracle.snapshot())
        on_native.extend(feed[800:1111])
        on_native.extend(feed[1111:])
        assert type(on_oracle.members[0]._interner) is StreamingOracleInterner
        assert type(on_native.members[0]._interner) is streaming_mod.WordInterner
        for resumed in (on_oracle, on_native):
            assert ranked(resumed) == reference
            np.testing.assert_array_equal(resumed.density_curve(), curve)
        assert_same_state(on_native.snapshot(), on_oracle.snapshot())
        assert_same_state(on_native.snapshot()["members"], uninterrupted.snapshot()["members"])
        assert SNAPSHOT_STATE_VERSION == 1


class TestVersioning:
    def test_state_version_skew_is_rejected(self):
        state = build({}).snapshot()
        assert state["format"] == SNAPSHOT_FORMAT
        assert state["state_version"] == SNAPSHOT_STATE_VERSION
        state["state_version"] = SNAPSHOT_STATE_VERSION + 1
        with pytest.raises(SnapshotVersionError, match="state_version"):
            StreamingEnsembleDetector.restore(state)

    @pytest.mark.parametrize("policy", POLICIES, ids=("unbounded", "sliding", "decay"))
    def test_snapshot_naming_a_retired_kernel_restores(self, policy):
        """A snapshot recording a kernel this build lacks (older builds shipped
        ``compiled``) restores under the current kernel, bitwise unchanged."""
        feed = make_feed()
        uninterrupted = build(policy)
        uninterrupted.extend(feed)

        checkpointed = build(policy)
        checkpointed.extend(feed[:600])
        state = checkpointed.snapshot()
        state["kernel"] = "compiled"
        resumed = StreamingEnsembleDetector.restore(decode_snapshot(encode_snapshot(state)))
        boundaries = (600, 733, 901, len(feed))
        for start, stop in zip(boundaries, boundaries[1:]):
            checkpointed.extend(feed[start:stop])
            resumed.extend(feed[start:stop])
            assert ranked(resumed) == ranked(checkpointed)
            np.testing.assert_array_equal(
                resumed.density_curve(), checkpointed.density_curve()
            )
        assert ranked(resumed) == ranked(uninterrupted)
        np.testing.assert_array_equal(
            resumed.density_curve(), uninterrupted.density_curve()
        )

    def test_foreign_payload_is_rejected(self):
        with pytest.raises(SnapshotVersionError, match="snapshot"):
            StreamingEnsembleDetector.restore({"format": "something-else"})
        with pytest.raises(SnapshotVersionError):
            StreamingEnsembleDetector.restore(42)

    def test_container_version_skew_is_rejected(self, monkeypatch):
        detector = build({})
        detector.extend(make_feed()[:200])
        state = detector.snapshot()
        monkeypatch.setattr(snapshot_mod, "CONTAINER_VERSION", 99)
        future = encode_snapshot(state)
        monkeypatch.undo()
        with pytest.raises(SnapshotVersionError, match="container version"):
            decode_snapshot(future)

    def test_corrupt_container_is_rejected(self):
        with pytest.raises(SnapshotVersionError, match="not a readable"):
            decode_snapshot(b"this is not a zip archive")

    def test_encode_preserves_arrays_bitwise(self):
        state = {
            "floats": np.array([0.1, -1.5e-300, np.pi]),
            "ids": np.array([3, 1, 4], dtype=np.int64),
            "nested": {"inner": np.arange(5, dtype=np.float64), "scalar": 2.5},
            "plain": [1, "two", None],
        }
        decoded = decode_snapshot(encode_snapshot(state))
        np.testing.assert_array_equal(decoded["floats"], state["floats"])
        assert decoded["ids"].dtype == np.int64
        np.testing.assert_array_equal(decoded["ids"], state["ids"])
        np.testing.assert_array_equal(decoded["nested"]["inner"], state["nested"]["inner"])
        assert decoded["nested"]["scalar"] == 2.5
        assert decoded["plain"] == [1, "two", None]


class TestLocalSnapshotStore:
    def test_save_latest_seqs_delete(self, tmp_path):
        store = LocalSnapshotStore(tmp_path, keep=3)
        assert store.latest("feed") is None
        for seq in (1, 2, 3):
            store.save("feed", seq, f"payload-{seq}".encode())
        assert store.seqs("feed") == [1, 2, 3]
        assert store.latest("feed") == (3, b"payload-3")
        assert store.delete("feed") == 3
        assert store.latest("feed") is None

    def test_pruned_to_newest_keep(self, tmp_path):
        store = LocalSnapshotStore(tmp_path, keep=2)
        for seq in range(1, 6):
            store.save("feed", seq, b"x")
        assert store.seqs("feed") == [4, 5]

    def test_sessions_are_isolated(self, tmp_path):
        store = LocalSnapshotStore(tmp_path)
        store.save("a", 1, b"for-a")
        store.save("b", 1, b"for-b")
        assert store.latest("a") == (1, b"for-a")
        assert store.delete("a") == 1
        assert store.latest("b") == (1, b"for-b")

    @pytest.mark.parametrize("name", ["..", ".", "a/b", "", "x" * 65, "nul\x00"])
    def test_traversal_and_junk_names_rejected(self, tmp_path, name):
        store = LocalSnapshotStore(tmp_path)
        with pytest.raises(ValueError, match="session name"):
            store.save(name, 1, b"x")

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            LocalSnapshotStore(tmp_path, keep=0)
        store = LocalSnapshotStore(tmp_path)
        with pytest.raises(ValueError, match="seq"):
            store.save("feed", -1, b"x")


class TestDetectorConfig:
    def test_fingerprint_matches_engine_canonicalization(self):
        config = DetectorConfig(window=50, ensemble_size=5, max_paa_size=5)
        template = EnsembleGrammarDetector(window=50, ensemble_size=5, max_paa_size=5)
        assert config.to_fingerprint() == tuple(sorted(template.clone_kwargs().items()))

    def test_equivalent_spellings_share_a_fingerprint(self):
        loose = DetectorConfig(window=50.0, selectivity=0.4)
        strict = DetectorConfig(window=50)
        assert loose.to_fingerprint() == strict.to_fingerprint()

    def test_sparse_none_keeps_divergent_engine_defaults(self):
        config = DetectorConfig(window=100)
        # One-shot detection defaults to 50 members...
        assert config.resolve()[0]["ensemble_size"] == 50
        # ...while streaming sessions default to 20 — the sparse config
        # must preserve both rather than bake either in.
        detector = StreamingEnsembleDetector(**config.session_kwargs())
        assert detector.ensemble_size == 20

    def test_json_round_trip(self):
        config = DetectorConfig(
            window=80, ensemble_size=6, capacity=500, policy="decay", segments=3, seed=7
        )
        assert DetectorConfig.from_json(config.to_json()) == config
        assert "max_paa_size" not in config.to_json()  # sparse

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration field"):
            DetectorConfig.from_mapping({"window": 50, "wibble": 1})
        with pytest.raises(ValueError, match="unknown configuration field"):
            DetectorConfig.from_mapping({"window": 50, "capacity": 100}, allowed=DETECT_FIELDS)

    def test_window_required(self):
        with pytest.raises(ValueError, match="window"):
            DetectorConfig.from_mapping({"ensemble_size": 5})

    def test_coercion(self):
        assert DetectorConfig(window=50.0).window == 50
        with pytest.raises(ValueError, match="integer"):
            DetectorConfig(window=50.5)
        with pytest.raises(ValueError, match="integer"):
            DetectorConfig(window=True)
        with pytest.raises(ValueError, match="policy"):
            DetectorConfig(window=50, policy="ringbuffer")

    def test_from_cli_args(self):
        args = argparse.Namespace(
            window=60,
            wmax=6,
            amax=6,
            ensemble_size=8,
            selectivity=0.5,
            seed=3,
            stream_capacity=400,
            eviction_policy="sliding",
            segments=4,
        )
        config = DetectorConfig.from_cli_args(args)
        assert config.window == 60
        assert config.max_paa_size == 6
        assert config.capacity == 400
        assert config.policy == "sliding"
        # Without bounded retention the policy knobs stay unset.
        args.stream_capacity = None
        unbounded = DetectorConfig.from_cli_args(args)
        assert unbounded.policy is None and unbounded.segments is None

    def test_describe_is_total(self):
        described = DetectorConfig(window=50).describe()
        assert described["window"] == 50
        assert described["ensemble_size"] is None
        assert set(described) == {
            "window", "max_paa_size", "max_alphabet_size", "ensemble_size",
            "selectivity", "combiner", "numerosity", "znorm_threshold",
            "capacity", "policy", "segments", "seed",
        }
