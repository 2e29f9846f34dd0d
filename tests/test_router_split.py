"""A ``/v1/detect_batch`` split by the router over its live nodes.

With live nodes on two or more hosts, the router cuts a batch of several
series into one contiguous chunk per host, sends the chunks at once (each
with ``offset``, its first index in the client's batch) and joins the
results in order. Different 127.x.y.z addresses stand for different
hosts. Covers:

- the node's ``offset`` field: ``offset=o`` on ``series[o:]`` is the tail
  of the whole batch, error slots name the client's index, bad values are
  a 400;
- in process, against :class:`FakeNode` stand-ins: the chunk bodies and
  sizes (uneven batches, exact floats, more hosts than series with
  successive batches rotating over them), the summed ``failed`` count, a
  chunk whose node drops the connection moving to the next live node, the
  relay of a refused chunk with its ``Retry-After``, and the cases that
  stay an unparsed relay (one live node, nodes on one host, one series, a
  body that does not parse);
- end to end (subprocess fleet of two nodes on two loopback addresses and
  a router): a mixed batch with a failing series in the middle equals the
  direct ``detect_batch``, also with one node SIGKILLed while the router
  still counts it alive.
"""

from __future__ import annotations

import asyncio
import json
import signal

import numpy as np
import pytest
from test_router import start_fleet, stop_fleet
from test_router_relay import FakeNode, make_series, post, response, start_router, stop_router

from repro.core.ensemble import EnsembleGrammarDetector
from repro.service import DetectService
from repro.service.http import ServiceHTTPServer

CONFIG = dict(window=40, ensemble_size=4, max_paa_size=5, max_alphabet_size=5)

#: Mixed lengths. Index 3 (the first series of the second chunk when split
#: in two) is too short for the window and fails in the engine; index 5
#: holds one point and fails the node's own input check. Only ``offset``
#: names them right.
LENGTHS = (400, 900, 650, 3, 1200, 1, 700)
FAILING = (3, 5)


def mixed_batch() -> list[list[float]]:
    return [make_series(index, n) for index, n in enumerate(LENGTHS)]


def direct_results(series: list[list[float]], seed: int, k: int) -> list:
    """What ``EnsembleGrammarDetector.detect_batch`` finds, slot by slot."""
    detector = EnsembleGrammarDetector(seed=seed, **CONFIG)
    out = []
    for result in detector.detect_batch(series, k, return_exceptions=True):
        if isinstance(result, BaseException):
            out.append(("error", result.index))
        else:
            out.append([(a.rank, a.position, a.length, a.score) for a in result])
    return out


def served_results(document: dict) -> list:
    out = []
    for slot in document["results"]:
        if "error" in slot:
            message = slot["error"]["message"]
            out.append(("error", int(message.split("batch series ")[1].split()[0])))
        else:
            out.append(
                [(a["rank"], a["position"], a["length"], a["score"]) for a in slot["anomalies"]]
            )
    return out


# ----------------------------------------------------------------------
# The node's offset field.
# ----------------------------------------------------------------------


def test_offset_on_the_tail_equals_the_tail_of_the_whole_batch():
    series = mixed_batch()

    async def main():
        async with DetectService(cache_entries=0) as service:
            whole = await service.detect_many(series, k=2, seed=5, **CONFIG)
            tails = {
                offset: await service.detect_many(
                    series[offset:], k=2, seed=5, offset=offset, **CONFIG
                )
                for offset in (1, *FAILING, len(series) - 1)
            }
        return whole, tails

    whole, tails = asyncio.run(main())

    def shape(result):
        if isinstance(result, BaseException):
            return ("error", result.index, result.cause_message)
        return result.anomalies

    for offset, tail in tails.items():
        assert [shape(r) for r in tail] == [shape(r) for r in whole[offset:]]
    for index in FAILING:
        assert shape(tails[index][0])[:2] == ("error", index)


@pytest.mark.parametrize("offset", [-1, True, 1.5, "2", None])
def test_a_bad_offset_is_a_400(offset):
    async def main():
        async with DetectService(cache_entries=0) as service:
            node = ServiceHTTPServer(service, "127.0.0.1", 0)
            await node.start()
            try:
                body = {"series": [make_series(0), make_series(1)], "offset": offset, **CONFIG}
                return await post(node.port, "/v1/detect_batch", json.dumps(body).encode())
            finally:
                await node.aclose()

    status, _headers, body = asyncio.run(main())
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-request"


def test_an_offset_with_a_generator_seed_is_refused_without_drawing():
    async def main():
        async with DetectService(cache_entries=0) as service:
            with pytest.raises(ValueError, match="Generator"):
                await service.detect_many(
                    mixed_batch()[:2], k=2, seed=np.random.default_rng(0), offset=3, **CONFIG
                )

    asyncio.run(main())


# ----------------------------------------------------------------------
# The split, in process.
# ----------------------------------------------------------------------


def _batch_reply(path: str, body: bytes) -> tuple[float, bytes]:
    """A node that answers one result per series, naming its global index."""
    request = json.loads(body)
    results = [
        {"anomalies": [], "index": request.get("offset", 0) + i}
        for i in range(len(request["series"]))
    ]
    return 0.0, response(200, json.dumps({"results": results, "failed": 0}).encode())


async def _fleet(*answers, host: str | None = None) -> tuple[list[FakeNode], list[str]]:
    """Fake nodes, each on its own loopback host unless ``host`` is given."""
    nodes = [FakeNode(answer) for answer in answers]
    return nodes, [
        await node.start(host=host or f"127.0.0.{index + 1}") for index, node in enumerate(nodes)
    ]


def test_chunks_are_contiguous_carry_their_offset_and_join_in_order():
    series = [[float(i), float(i) + 1.0] for i in range(5)]
    request = {"series": series, "seed": 9, "offset": 10, "window": 2}

    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply)
        router, server = await start_router(addrs)
        try:
            reply = await post(server.port, "/v1/detect_batch", json.dumps(request).encode())
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()
        return reply, [[json.loads(b) for b in node.bodies("/v1/detect_batch")] for node in nodes]

    (status, _headers, body), received = asyncio.run(main())
    assert status == 200
    assert [slot["index"] for slot in json.loads(body)["results"]] == [10, 11, 12, 13, 14]
    assert json.loads(body)["failed"] == 0
    # One chunk per node, each starting on its own node.
    assert [len(bodies) for bodies in received] == [1, 1]
    first, second = received[0][0], received[1][0]
    assert first == {**request, "series": series[:2], "offset": 10}
    assert second == {**request, "series": series[2:], "offset": 12}


def test_each_chunk_carries_its_values_exactly():
    # Decoded and re-encoded by the router: every float must come back as
    # the same double, extremes and signed zero included.
    values = [0.1, -0.0, 5e-324, 1.7976931348623157e308, 2.0 / 3.0, 1e22, 3]
    series = [values, values[::-1], [1.5, 2.5]]

    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply)
        router, server = await start_router(addrs)
        try:
            body = json.dumps({"series": series, "window": 2}).encode()
            reply = await post(server.port, "/v1/detect_batch", body)
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()
        return reply, [json.loads(b) for node in nodes for b in node.bodies("/v1/detect_batch")]

    (status, _headers, _reply), chunks = asyncio.run(main())
    assert status == 200
    received = [values for chunk in chunks for values in chunk["series"]]
    assert [[(type(v), v.hex() if isinstance(v, float) else v) for v in s] for s in received] == [
        [(type(v), v.hex() if isinstance(v, float) else v) for v in s] for s in series
    ]


def test_a_refused_chunk_is_relayed_with_its_retry_after():
    refusal = b'{"error": {"code": "overloaded", "message": "full", "retry_after": 0.05}}'

    def overloaded(path, body):
        return 0.0, response(429, refusal, "Retry-After: 1")

    async def main():
        nodes, addrs = await _fleet(_batch_reply, overloaded)
        router, server = await start_router(addrs)
        try:
            body = json.dumps({"series": [[1.0, 2.0]] * 4, "window": 2}).encode()
            return await post(server.port, "/v1/detect_batch", body)
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    status, headers, body = asyncio.run(main())
    assert (status, headers.get("Retry-After"), body) == (429, "1", refusal)


@pytest.mark.parametrize(
    "body",
    [
        b'{"series" : [[1.0, 2.0]],  "window": 2}',  # one series
        b'{"series": [[1.0, 2.0], [3.0, 4.0]], "offset": -1, "window": 2}',
        b'{"series": [[1.0, 2.0], [3.0, 4.0]',  # not JSON
        b'{"series": [[1.0, 2.0], [3.0, 4.0],], "window": 2}',  # trailing comma
        b'{"series": [[1.0, 2.0], [3.0, 4.0]]} x',  # trailing bytes
        b'[[1.0, 2.0], [3.0, 4.0]]',  # not an object
    ],
)
def test_what_cannot_be_split_is_relayed_unparsed_to_one_node(body):
    async def main():
        nodes, addrs = await _fleet(
            *[lambda path, body: (0.0, response(200, b'{"relayed": true}'))] * 2
        )
        router, server = await start_router(addrs)
        try:
            return await post(server.port, "/v1/detect_batch", body), nodes
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    (status, _headers, reply), nodes = asyncio.run(main())
    assert (status, reply) == (200, b'{"relayed": true}')
    assert sorted(node.bodies("/v1/detect_batch") for node in nodes) == [[], [body]]


def test_with_one_live_node_the_batch_is_relayed_unparsed():
    body = b'{"series": [[1.0, 2.0], [3.0,  4.0]], "window": 2}'

    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply)
        router, server = await start_router(addrs)
        router.alive[addrs[1]] = False
        try:
            return await post(server.port, "/v1/detect_batch", body), nodes
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    (status, _headers, _reply), nodes = asyncio.run(main())
    assert status == 200
    assert nodes[0].bodies("/v1/detect_batch") == [body]
    assert nodes[1].requests == []


def test_nodes_on_one_host_take_the_batch_unsplit_in_turn():
    body = b'{"series": [[1.0, 2.0], [3.0,  4.0]], "window": 2}'

    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply, host="127.0.0.1")
        router, server = await start_router(addrs)
        try:
            return [await post(server.port, "/v1/detect_batch", body) for _ in range(2)], nodes
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    replies, nodes = asyncio.run(main())
    assert [status for status, _headers, _reply in replies] == [200, 200]
    assert [node.bodies("/v1/detect_batch") for node in nodes] == [[body], [body]]


def test_an_uneven_batch_is_cut_into_chunks_that_differ_by_at_most_one():
    series = [[float(i), float(i) + 1.0] for i in range(7)]

    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply, _batch_reply)
        router, server = await start_router(addrs)
        try:
            body = json.dumps({"series": series, "window": 2}).encode()
            reply = await post(server.port, "/v1/detect_batch", body)
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()
        return reply, [[json.loads(b) for b in node.bodies("/v1/detect_batch")] for node in nodes]

    (status, _headers, body), received = asyncio.run(main())
    assert status == 200
    assert [slot["index"] for slot in json.loads(body)["results"]] == list(range(7))
    assert [(chunk["offset"], chunk["series"]) for [chunk] in received] == [
        (0, series[0:2]),
        (2, series[2:4]),
        (4, series[4:7]),
    ]


def test_successive_batches_start_on_successive_nodes():
    # Two series on three live nodes: each batch uses two nodes, and the
    # round-robin moves the pair along, so all three share the load.
    async def main():
        nodes, addrs = await _fleet(_batch_reply, _batch_reply, _batch_reply)
        router, server = await start_router(addrs)
        try:
            body = b'{"series": [[1.0, 2.0], [3.0, 4.0]], "window": 2}'
            replies = [await post(server.port, "/v1/detect_batch", body) for _ in range(3)]
            return replies, nodes
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    replies, nodes = asyncio.run(main())
    for status, _headers, body in replies:
        assert status == 200
        assert [slot["index"] for slot in json.loads(body)["results"]] == [0, 1]
    offsets = [[json.loads(b)["offset"] for b in node.bodies("/v1/detect_batch")] for node in nodes]
    # Batch 1 on nodes 0, 1; batch 2 on nodes 1, 2; batch 3 on nodes 2, 0.
    assert offsets == [[0, 1], [1, 0], [1, 0]]


def test_the_failed_counts_of_the_chunks_are_summed():
    def one_failure_per_chunk(path, body):
        request = json.loads(body)
        results = [{"anomalies": []} for _ in request["series"]]
        results[0] = {"error": {"code": "bad-request", "message": f"{request['offset']}"}}
        return 0.0, response(200, json.dumps({"results": results, "failed": 1}).encode())

    async def main():
        nodes, addrs = await _fleet(one_failure_per_chunk, one_failure_per_chunk)
        router, server = await start_router(addrs)
        try:
            body = json.dumps({"series": [[1.0, 2.0]] * 4, "window": 2}).encode()
            return await post(server.port, "/v1/detect_batch", body)
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    status, _headers, body = asyncio.run(main())
    document = json.loads(body)
    assert status == 200
    assert document["failed"] == 2
    assert [slot.get("error", {}).get("message") for slot in document["results"]] == [
        "0",
        None,
        "2",
        None,
    ]


def test_a_chunk_whose_node_drops_the_connection_goes_to_the_next_live_node():
    def drops(path, body):
        return 0.0, None

    async def main():
        nodes, addrs = await _fleet(_batch_reply, drops)
        router, server = await start_router(addrs)
        try:
            body = json.dumps({"series": [[1.0, 2.0]] * 4, "window": 2}).encode()
            reply = await post(server.port, "/v1/detect_batch", body)
            return reply, dict(router.alive), addrs, nodes
        finally:
            await stop_router(router, server)
            for node in nodes:
                await node.aclose()

    (status, _headers, body), alive, addrs, nodes = asyncio.run(main())
    assert status == 200
    assert [slot["index"] for slot in json.loads(body)["results"]] == [0, 1, 2, 3]
    assert alive == {addrs[0]: True, addrs[1]: False}
    # The dropped chunk is sent again, unchanged, to the surviving node.
    dropped = nodes[1].bodies("/v1/detect_batch")
    assert dropped and dropped[-1] in nodes[0].bodies("/v1/detect_batch")
    assert sorted(json.loads(b)["offset"] for b in nodes[0].bodies("/v1/detect_batch")) == [0, 2]


# ----------------------------------------------------------------------
# End to end: two serve nodes behind a router.
# ----------------------------------------------------------------------


def _check_split_batch(fleet: dict) -> None:
    series = mixed_batch()
    client = fleet["client"]
    routed = client.detect_batch(series, k=2, seed=17, **CONFIG)
    assert served_results(routed) == direct_results(series, 17, 2)
    assert routed["failed"] == len(FAILING)
    for index in FAILING:
        assert f"batch series {index} failed" in routed["results"][index]["error"]["message"]
    # The same document a single node answers for the unsplit batch.
    direct = fleet["node_client"].detect_batch(series, k=2, seed=17, **CONFIG)
    assert routed == direct


@pytest.fixture()
def split_fleet(tmp_path):
    from repro.service import ServiceClient

    fleet = start_fleet(str(tmp_path / "snapshots"), hosts=("127.0.0.1", "127.0.0.2"))
    fleet["node_client"] = ServiceClient(f"http://{fleet['nodes'][0]}")
    yield fleet
    stop_fleet(fleet)


def test_a_split_batch_equals_the_direct_batch(split_fleet):
    before = split_fleet["client"].stats()["proxied"]
    _check_split_batch(split_fleet)
    assert split_fleet["client"].stats()["proxied"] == before + 2  # one chunk per node


def test_a_node_killed_before_the_batch_loses_no_series(split_fleet):
    victim_addr = split_fleet["nodes"][1]
    victim = split_fleet["node_processes"][victim_addr]
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    assert split_fleet["client"].stats()["nodes"][victim_addr] is True  # not noticed yet
    _check_split_batch(split_fleet)
    assert split_fleet["client"].stats()["nodes"][victim_addr] is False
