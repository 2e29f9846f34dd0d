"""Unit tests for the async serving core (repro.service).

Covers the micro-batcher's coalescing/backpressure/deadline semantics, the
LRU result cache, the multi-tenant session manager's policies, and — the
load-bearing contract — **bitwise parity**: a served request equals the
equivalent direct ``detect()``/streaming call across every executor
backend.

The suite drives the asyncio core directly via ``asyncio.run`` (no HTTP);
the end-to-end subprocess coverage lives in ``tests/test_service_http.py``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.ensemble import EnsembleGrammarDetector
from repro.core.executors import BatchItemError, as_executor
from repro.core.streaming import StreamingEnsembleDetector
from repro.service import (
    BadRequest,
    DeadlineExceeded,
    DetectService,
    LRUCache,
    MemoryBudgetExceeded,
    MicroBatcher,
    ServiceClosed,
    ServiceOverloaded,
    SessionExists,
    SessionNotFound,
    series_digest,
)

#: One small ensemble configuration reused across the parity tests.
CONFIG = dict(window=50, ensemble_size=5, max_paa_size=5, max_alphabet_size=5)


def make_series(seed: int, n: int = 700) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 14.0 * np.pi, n)
    series = np.sin(t) + 0.05 * rng.standard_normal(n)
    series[n // 2 : n // 2 + 60] *= 0.2
    return series


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# series_digest / LRUCache.
# ----------------------------------------------------------------------


class TestSeriesDigest:
    def test_equal_series_equal_digest(self):
        a = make_series(0)
        assert series_digest(a) == series_digest(a.copy())

    def test_different_series_different_digest(self):
        assert series_digest(make_series(0)) != series_digest(make_series(1))

    def test_length_is_part_of_the_digest(self):
        a = make_series(0)
        assert series_digest(a) != series_digest(a[:-1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            series_digest(np.zeros((3, 3)))


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(4)
        hit, _ = cache.get("a")
        assert not hit
        cache.put("a", 1)
        hit, value = cache.get("a")
        assert hit and value == 1
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a" — "b" becomes LRU
        cache.put("c", 3)
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]
        assert cache.stats()["evictions"] == 1

    def test_zero_entries_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert not cache.get("a")[0]
        assert not cache.enabled

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LRUCache(-1)


# ----------------------------------------------------------------------
# MicroBatcher.
# ----------------------------------------------------------------------


class TestMicroBatcher:
    def test_concurrent_submits_coalesce(self):
        batch_sizes = []

        def runner(key, payloads):
            batch_sizes.append(len(payloads))
            return [(i, p * 10) for i, p in enumerate(payloads)]

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.02, max_batch_size=8)
            results = await asyncio.gather(*(batcher.submit("g", i) for i in range(8)))
            await batcher.aclose()
            return results

        results = run(main())
        assert results == [i * 10 for i in range(8)]
        # All eight arrived within one coalescing window.
        assert batch_sizes == [8]

    def test_groups_do_not_mix(self):
        seen = []

        def runner(key, payloads):
            seen.append((key, sorted(payloads)))
            return [(i, p) for i, p in enumerate(payloads)]

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.02)
            await asyncio.gather(
                *(batcher.submit("a", i) for i in range(3)),
                *(batcher.submit("b", 100 + i) for i in range(3)),
            )
            await batcher.aclose()

        run(main())
        assert sorted(seen) == [("a", [0, 1, 2]), ("b", [100, 101, 102])]

    def test_max_batch_size_splits(self):
        batch_sizes = []

        def runner(key, payloads):
            batch_sizes.append(len(payloads))
            return [(i, p) for i, p in enumerate(payloads)]

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.02, max_batch_size=3)
            await asyncio.gather(*(batcher.submit("g", i) for i in range(7)))
            await batcher.aclose()

        run(main())
        assert max(batch_sizes) <= 3
        assert sum(batch_sizes) == 7

    def test_backpressure_rejects_beyond_max_pending(self):
        release = None

        def runner(key, payloads):
            release.wait(timeout=10)
            return [(i, p) for i, p in enumerate(payloads)]

        async def main():
            import threading

            nonlocal release
            release = threading.Event()
            batcher = MicroBatcher(runner, batch_window=0.0, max_batch_size=1, max_pending=2)
            first = asyncio.ensure_future(batcher.submit("g", 0))
            await asyncio.sleep(0.05)  # dispatched; runner now blocks
            second = asyncio.ensure_future(batcher.submit("g", 1))
            third = asyncio.ensure_future(batcher.submit("g", 2))
            await asyncio.sleep(0.05)
            with pytest.raises(ServiceOverloaded):
                await batcher.submit("g", 3)
            assert batcher.stats()["rejected_overload"] == 1
            release.set()
            assert await asyncio.gather(first, second, third) == [0, 1, 2]
            await batcher.aclose()

        run(main())

    def test_deadline_expires_queued_request(self):
        def runner(key, payloads):
            import time

            time.sleep(0.2)
            return [(i, p) for i, p in enumerate(payloads)]

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.0, max_batch_size=1)
            first = asyncio.ensure_future(batcher.submit("g", 0))
            await asyncio.sleep(0.01)
            # Second request waits behind the slow batch; its deadline fires
            # long before dispatch.
            with pytest.raises(DeadlineExceeded):
                await batcher.submit("g", 1, timeout=0.05)
            assert batcher.stats()["expired_deadline"] == 1
            assert await first == 0
            await batcher.aclose()

        run(main())

    def test_per_item_exception_fails_only_that_caller(self):
        def runner(key, payloads):
            out = []
            for i, p in enumerate(payloads):
                out.append((i, ValueError(f"bad {p}") if p == 1 else p))
            return out

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.02, max_batch_size=8)
            results = await asyncio.gather(
                *(batcher.submit("g", i) for i in range(3)), return_exceptions=True
            )
            await batcher.aclose()
            return results

        results = run(main())
        assert results[0] == 0 and results[2] == 2
        assert isinstance(results[1], ValueError)

    def test_runner_crash_fails_whole_batch(self):
        def runner(key, payloads):
            raise RuntimeError("pool died")

        async def main():
            batcher = MicroBatcher(runner, batch_window=0.01)
            with pytest.raises(RuntimeError, match="pool died"):
                await batcher.submit("g", 0)
            await batcher.aclose()

        run(main())

    def test_closed_batcher_rejects(self):
        async def main():
            batcher = MicroBatcher(lambda key, payloads: [])
            await batcher.aclose()
            with pytest.raises(ServiceClosed):
                await batcher.submit("g", 0)

        run(main())


# ----------------------------------------------------------------------
# DetectService: one-shot parity, caching, failure containment.
# ----------------------------------------------------------------------


class TestDetectServiceParity:
    def test_served_equals_direct_detect(self, executor_kind):
        """Micro-batched, coalesced requests == direct detect(), bitwise."""
        series = [make_series(i) for i in range(5)]

        async def main():
            async with DetectService(
                executor=executor_kind, n_jobs=2, batch_window=0.02, max_batch_size=8
            ) as service:
                return await asyncio.gather(
                    *(
                        service.detect(s, k=3, seed=i, **CONFIG)
                        for i, s in enumerate(series)
                    )
                )

        results = run(main())
        for i, (s, result) in enumerate(zip(series, results)):
            direct = EnsembleGrammarDetector(seed=i, **CONFIG).detect(s, 3)
            assert list(result.anomalies) == direct
            assert not result.cached

    def test_detect_many_equals_direct_detect_batch(self, executor_kind):
        series = [make_series(10 + i) for i in range(4)]

        async def main():
            async with DetectService(
                executor=executor_kind, n_jobs=2, batch_window=0.01
            ) as service:
                return await service.detect_many(series, k=3, seed=7, **CONFIG)

        results = run(main())
        direct = EnsembleGrammarDetector(seed=7, **CONFIG).detect_batch(series, 3)
        assert [list(r.anomalies) for r in results] == direct

    def test_detect_many_partial_failure(self):
        series = [make_series(0), np.arange(10.0), make_series(2)]  # middle too short

        async def main():
            async with DetectService(batch_window=0.01) as service:
                return await service.detect_many(series, k=3, seed=7, **CONFIG)

        results = run(main())
        assert isinstance(results[1], BatchItemError)
        assert results[1].index == 1
        direct = EnsembleGrammarDetector(seed=7, **CONFIG).detect_batch(
            series, 3, return_exceptions=True
        )
        assert list(results[0].anomalies) == direct[0]
        assert list(results[2].anomalies) == direct[2]

    def test_borrowed_executor_not_closed(self):
        async def main():
            with as_executor("thread", 2) as executor:
                async with DetectService(executor=executor, batch_window=0.0) as service:
                    await service.detect(make_series(0), seed=0, **CONFIG)
                assert not executor.closed  # borrowed — service must not close it

        run(main())


class TestDetectServiceCache:
    def test_identical_request_hits_cache(self):
        series = make_series(3)

        async def main():
            async with DetectService(batch_window=0.0, cache_entries=32) as service:
                first = await service.detect(series, k=3, seed=1, **CONFIG)
                second = await service.detect(series.copy(), k=3, seed=1, **CONFIG)
                stats = service.stats()
                return first, second, stats

        first, second, stats = run(main())
        assert not first.cached and second.cached
        assert list(first.anomalies) == list(second.anomalies)
        # The cached request never reached the batcher.
        assert stats["batcher"]["submitted"] == 1
        assert stats["cache"]["hits"] == 1

    def test_different_seed_misses_cache(self):
        series = make_series(3)

        async def main():
            async with DetectService(batch_window=0.0, cache_entries=32) as service:
                await service.detect(series, k=3, seed=1, **CONFIG)
                second = await service.detect(series, k=3, seed=2, **CONFIG)
                return second

        assert not run(main()).cached

    def test_cache_disabled(self):
        series = make_series(3)

        async def main():
            async with DetectService(batch_window=0.0, cache_entries=0) as service:
                await service.detect(series, k=3, seed=1, **CONFIG)
                return await service.detect(series, k=3, seed=1, **CONFIG)

        assert not run(main()).cached


class TestDetectServiceValidation:
    def test_bad_config_is_bad_request(self):
        async def main():
            async with DetectService() as service:
                with pytest.raises(BadRequest, match="invalid detector configuration"):
                    await service.detect(make_series(0), window=1)
                with pytest.raises(BadRequest, match="invalid detector configuration"):
                    await service.detect(make_series(0), window=50, no_such_option=1)
                with pytest.raises(BadRequest, match="1-dimensional"):
                    await service.detect(np.zeros((4, 4)), window=50)
                with pytest.raises(BadRequest, match="k must be positive"):
                    await service.detect(make_series(0), window=50, k=0)

        run(main())

    def test_closed_service_rejects(self):
        async def main():
            service = DetectService()
            await service.aclose()
            with pytest.raises(ServiceClosed):
                await service.detect(make_series(0), **CONFIG)

        run(main())


# ----------------------------------------------------------------------
# Streaming sessions.
# ----------------------------------------------------------------------


class TestStreamingSessions:
    def test_session_poll_equals_direct_streaming(self, executor_kind):
        """A served session == driving the same detector directly, bitwise."""
        series = make_series(42, 1600)
        chunks = [series[offset : offset + 400] for offset in range(0, 1600, 400)]

        async def main():
            async with DetectService(executor=executor_kind, n_jobs=2) as service:
                await service.create_session("feed", seed=3, **CONFIG)
                polls = []
                for chunk in chunks:
                    await service.append("feed", chunk)
                    polls.append(await service.poll("feed", 3))
                return polls

        polls = run(main())
        reference = StreamingEnsembleDetector(seed=3, **CONFIG)
        for chunk, poll in zip(chunks, polls):
            reference.extend(chunk)
            direct = [
                {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
                for a in reference.detect(3)
            ]
            assert poll["anomalies"] == direct

    def test_bounded_session_parity(self):
        """Capacity/policy from PR 3 flow through the session layer intact."""
        series = make_series(5, 2000)

        async def main():
            async with DetectService() as service:
                await service.create_session(
                    "bounded", seed=3, capacity=600, policy="sliding", **CONFIG
                )
                for offset in range(0, 2000, 500):
                    await service.append("bounded", series[offset : offset + 500])
                return await service.poll("bounded", 3)

        poll = run(main())
        reference = StreamingEnsembleDetector(seed=3, capacity=600, policy="sliding", **CONFIG)
        for offset in range(0, 2000, 500):
            reference.extend(series[offset : offset + 500])
        direct = [
            {"rank": a.rank, "position": a.position, "length": a.length, "score": a.score}
            for a in reference.detect(3)
        ]
        assert poll["anomalies"] == direct
        assert poll["horizon_start"] == reference.horizon_start

    def test_repeated_poll_is_cached(self):
        async def main():
            async with DetectService(cache_entries=32) as service:
                await service.create_session("feed", seed=0, **CONFIG)
                await service.append("feed", make_series(1))
                first = await service.poll("feed", 3)
                second = await service.poll("feed", 3)
                await service.append("feed", make_series(2))
                third = await service.poll("feed", 3)
                return first, second, third

        first, second, third = run(main())
        assert not first["cached"] and second["cached"] and not third["cached"]
        assert first["anomalies"] == second["anomalies"]

    def test_session_name_rules(self):
        async def main():
            async with DetectService() as service:
                with pytest.raises(BadRequest, match="session names"):
                    await service.create_session("bad name!", **CONFIG)
                await service.create_session("ok-1", **CONFIG)
                with pytest.raises(SessionExists):
                    await service.create_session("ok-1", **CONFIG)
                with pytest.raises(SessionNotFound):
                    await service.poll("missing")
                with pytest.raises(SessionNotFound):
                    await service.append("missing", [1.0, 2.0])

        run(main())

    def test_max_sessions_cap(self):
        async def main():
            async with DetectService(max_sessions=2) as service:
                await service.create_session("a", **CONFIG)
                await service.create_session("b", **CONFIG)
                with pytest.raises(ServiceOverloaded, match="live sessions"):
                    await service.create_session("c", **CONFIG)
                await service.close_session("a")
                await service.create_session("c", **CONFIG)  # slot freed

        run(main())

    def test_memory_budget_rejects_large_append(self):
        async def main():
            async with DetectService(memory_budget=400_000) as service:
                await service.create_session("big", **CONFIG)
                with pytest.raises(MemoryBudgetExceeded):
                    await service.append("big", np.zeros(200_000) + np.sin(np.arange(200_000)))
                # A bounded session under the same budget is admitted: its
                # retention is flat.
                await service.create_session(
                    "small", capacity=200, policy="sliding", **CONFIG
                )
                for _ in range(4):
                    await service.append("small", make_series(1, 400))

        run(main())

    def test_idle_eviction(self):
        async def main():
            async with DetectService(idle_timeout=0.1) as service:
                await service.create_session("stale", **CONFIG)
                await service.append("stale", make_series(0))
                await asyncio.sleep(0.4)
                with pytest.raises(SessionNotFound):
                    await service.poll("stale")
                assert service.stats()["sessions"]["evicted_idle"] == 1

        run(main())

    def test_invalid_chunk_is_bad_request_and_atomic(self):
        async def main():
            async with DetectService() as service:
                await service.create_session("feed", seed=0, **CONFIG)
                await service.append("feed", make_series(0, 200))
                with pytest.raises(BadRequest, match="finite"):
                    await service.append("feed", [1.0, float("nan"), 2.0])
                info = await service.append("feed", make_series(1, 200))
                return info

        assert run(main())["length"] == 400


# ----------------------------------------------------------------------
# Stats plumbing.
# ----------------------------------------------------------------------


class TestStats:
    def test_stats_shape(self):
        async def main():
            async with DetectService(executor="serial") as service:
                await service.detect(make_series(0), seed=0, **CONFIG)
                return service.stats()

        stats = run(main())
        assert stats["executor"]["kind"] == "serial"
        assert stats["batcher"]["submitted"] == 1
        assert stats["batcher"]["batches"] == 1
        assert "memory_used" in stats["sessions"]


class TestNoPermanentPerConfigState:
    def test_group_state_reaped_after_completion(self):
        """A long tail of distinct configs must leave no state behind."""

        async def main():
            async with DetectService(batch_window=0.0) as service:
                for window in range(40, 56):
                    await service.detect(
                        make_series(1), k=3, seed=0, window=window, ensemble_size=4
                    )
                # Queues and dispatch workers are reaped once drained — no
                # per-config registry survives the requests.
                return len(service.batcher._queues), len(service.batcher._workers)

        queues, workers = run(main())
        assert queues == 0
        assert workers == 0


class TestSessionCloseRace:
    def test_append_racing_close_gets_not_found(self):
        """A request that loses the lock race to close() must 404, not 200."""

        async def main():
            async with DetectService() as service:
                await service.create_session("r", seed=0, **CONFIG)
                session = service.sessions._sessions["r"]
                # Hold the lock the way a winning close() would, then close.
                async with session.lock:
                    append_task = asyncio.ensure_future(
                        service.append("r", make_series(0))
                    )
                    await asyncio.sleep(0.01)  # append is now waiting on the lock
                    service.sessions._sessions.pop("r")  # close() wins
                    session.detector.close()
                with pytest.raises(SessionNotFound):
                    await append_task

        run(main())

    def test_recreated_same_name_not_confused(self):
        """A same-named session created after a close is a different session."""

        async def main():
            async with DetectService() as service:
                await service.create_session("n", seed=0, **CONFIG)
                old = service.sessions._sessions["n"]
                async with old.lock:
                    poll_task = asyncio.ensure_future(service.poll("n"))
                    await asyncio.sleep(0.01)
                    service.sessions._sessions.pop("n")
                    old.detector.close()
                    await service.create_session("n", seed=1, **CONFIG)
                with pytest.raises(SessionNotFound):
                    await poll_task

        run(main())
