"""Wire-protocol conformance for the network edge.

Three walls, per ISSUE 10:

* **Golden byte fixtures** — the exact request bytes and the exact
  response bytes for every endpoint (and the typed error envelopes),
  pinned as literals.  The edge's responses are deterministic by
  construction (fixed header order, no Date header, sorted-key compact
  JSON, sorted witnesses, canonical pickles), so any drift in the wire
  format fails here first, byte-for-byte.
* **Fuzzed malformed frames** — truncated bodies, lying lengths,
  oversized payloads, invalid JSON, wrong content types, mangled batch
  framing — each answered with a *typed* 4xx.
* **The server survives all of it** — after every abuse the same
  connection-or-successor serves a golden request verbatim, and the
  ERROR-level log stays empty (the :class:`LogSentry` asserts the
  "never an unhandled exception" half of the contract).

Plus the drain contract (satellite 4): a draining edge answers 503 +
Retry-After on new work while in-flight requests run to completion, and
``python -m repro.edge`` wires SIGTERM to exactly that.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from _edge_harness import RunningEdge, wait_for
from repro.edge import EdgeConfig
from repro.edge import protocol
from repro.exceptions import EdgeProtocolError
from repro.structures.graphs import clique, random_graph
from repro.structures.io import structure_from_dict, structure_to_dict

# ---------------------------------------------------------------------------
# Golden fixtures (captured from a live edge; pinned as literals)
# ---------------------------------------------------------------------------

SOLVE_REQUEST = (
    b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 163\r\n\r\n"
    b'{"source":{"relations":{"R":[["a","b"]]},"universe":["a","b"],'
    b'"vocabulary":{"R":2}},"target":{"relations":{"R":[["x","x"]]},'
    b'"universe":["x"],"vocabulary":{"R":2}}}'
)
SOLVE_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 137\r\n\r\n"
    b'{"coalesced":false,"route":"solve","shard":0,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["a","x"],["b","x"]]}'
)

CONTAINMENT_REQUEST = (
    b"POST /v1/containment HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 53\r\n\r\n"
    b'{"q1":"Q(x) :- R(x,y), R(y,z)","q2":"Q(x) :- R(x,y)"}'
)
CONTAINMENT_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 143\r\n\r\n"
    b'{"coalesced":false,"route":"containment","shard":1,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["x","x"],["y","y"]]}'
)

DATALOG_REQUEST = (
    b"POST /v1/datalog HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/json\r\ncontent-length: 169\r\n\r\n"
    b'{"k":2,"source":{"relations":{"R":[["a","b"]]},"universe":["a","b"],'
    b'"vocabulary":{"R":2}},"target":{"relations":{"R":[["x","x"]]},'
    b'"universe":["x"],"vocabulary":{"R":2}}}'
)
DATALOG_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/json\r\ncontent-length: 139\r\n\r\n"
    b'{"coalesced":false,"route":"datalog","shard":0,'
    b'"strategy":"width-planner(route=dp,width=1)","verdict":true,'
    b'"witness":[["a","x"],["b","x"]]}'
)

BATCH_REQUEST = (
    b"POST /v1/batch HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/x-repro-batch\r\ncontent-length: 99\r\n\r\n"
    b"REB1\x00\x00\x00\x01\x00\x00\x00W\x80\x05\x95L\x00\x00\x00\x00\x00\x00"
    b"\x00}\x94(\x8c\x02op\x94\x8c\x0bcontainment\x94\x8c\x02q1\x94\x8c\x0e"
    b"Q(x) :- R(x,y)\x94\x8c\x02q2\x94\x8c\x16Q(x) :- R(x,y), R(y,z)\x94u."
)
BATCH_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
    b"content-type: application/x-repro-batch\r\ncontent-length: 140\r\n\r\n"
    b"REB1\x00\x00\x00\x01\x00\x00\x00\x80\x80\x05\x95u\x00\x00\x00\x00\x00"
    b"\x00\x00}\x94(\x8c\x07verdict\x94\x89\x8c\x07witness\x94N\x8c\x08"
    b"strategy\x94\x8c\x1fwidth-planner(route=dp,width=1)\x94\x8c\x05route"
    b"\x94\x8c\x0bcontainment\x94\x8c\tcoalesced\x94\x89\x8c\x05shard\x94K"
    b"\x01u."
)

GOLDEN_EXCHANGES = [
    ("solve", SOLVE_REQUEST, SOLVE_RESPONSE),
    ("containment", CONTAINMENT_REQUEST, CONTAINMENT_RESPONSE),
    ("datalog", DATALOG_REQUEST, DATALOG_RESPONSE),
    ("batch", BATCH_REQUEST, BATCH_RESPONSE),
]

#: Malformed frames → the exact typed error response, per ISSUE 10's
#: fuzz list (truncated bodies and oversized payloads are exercised
#: separately — their fixtures depend on the configured body cap).
GOLDEN_ERRORS = [
    (
        "not_found",
        b"POST /v1/nope HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 2\r\n\r\n{}",
        b"HTTP/1.1 404 Not Found\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 90\r\n\r\n"
        b'{"error":{"message":"no such endpoint: /v1/nope","status":404,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_method",
        b"GET /v1/solve HTTP/1.1\r\nhost: t\r\n\r\n",
        b"HTTP/1.1 405 Method Not Allowed\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 91\r\n\r\n"
        b'{"error":{"message":"/v1/solve only accepts POST","status":405,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "invalid_json",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 5\r\n\r\n{nope",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 158\r\n\r\n"
        b'{"error":{"message":"invalid JSON body: Expecting property name '
        b"enclosed in double quotes: line 1 column 2 (char 1)\",\"status\""
        b':400,"type":"EdgeProtocolError"}}',
    ),
    (
        "wrong_content_type",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: text/plain\r\n"
        b"content-length: 2\r\n\r\n{}",
        b"HTTP/1.1 415 Unsupported Media Type\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 114\r\n\r\n"
        b"{\"error\":{\"message\":\"/v1/solve takes application/json, not "
        b"'text/plain'\",\"status\":415,\"type\":\"EdgeProtocolError\"}}",
    ),
    (
        "bad_structure",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\ncontent-length: 37\r\n\r\n"
        b'{"source":{"universe":[]},"target":3}',
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 126\r\n\r\n"
        b"{\"error\":{\"message\":\"bad 'source' structure: malformed "
        b"structure dict: 'vocabulary'\",\"status\":400,"
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_k",
        b"POST /v1/datalog HTTP/1.1\r\nhost: t\r\ncontent-type: "
        b"application/json\r\ncontent-length: 120\r\n\r\n"
        b'{"k":99,"source":{"relations":{},"universe":[],"vocabulary":{}},'
        b'"target":{"relations":{},"universe":[],"vocabulary":{}}}',
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 98\r\n\r\n"
        b'{"error":{"message":"k must be an int in [1, 8], got 99",'
        b'"status":400,"type":"EdgeProtocolError"}}',
    ),
    (
        "missing_length",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-type: application/json"
        b"\r\n\r\n",
        b"HTTP/1.1 411 Length Required\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 94\r\n"
        b"connection: close\r\n\r\n"
        b'{"error":{"message":"POST requires a content-length","status":411,'
        b'"type":"EdgeProtocolError"}}',
    ),
    (
        "bad_length",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\ncontent-length: abc\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 93\r\n"
        b"connection: close\r\n\r\n"
        b"{\"error\":{\"message\":\"invalid content-length: 'abc'\","
        b'"status":400,"type":"EdgeProtocolError"}}',
    ),
    (
        "chunked",
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"transfer-encoding: chunked\r\n\r\n",
        b"HTTP/1.1 501 Not Implemented\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 103\r\n"
        b"connection: close\r\n\r\n"
        b'{"error":{"message":"chunked transfer encoding not supported",'
        b'"status":501,"type":"EdgeProtocolError"}}',
    ),
    (
        "garbage_request_line",
        b"\x00\x01\x02 garbage\r\n\r\n",
        b"HTTP/1.1 400 Bad Request\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\ncontent-length: 113\r\n"
        b"connection: close\r\n\r\n"
        b"{\"error\":{\"message\":\"malformed request line: "
        b"'\\\\x00\\\\x01\\\\x02 garbage'\",\"status\":400,"
        b'"type":"EdgeProtocolError"}}',
    ),
]

#: Small on purpose: lets the 413 tests stay cheap.
MAX_BODY = 65536


@pytest.fixture(scope="module")
def edge():
    """One live edge (2 shards) shared by the whole conformance run."""
    config = EdgeConfig(num_shards=2, max_body_bytes=MAX_BODY)
    with RunningEdge(config) as running:
        yield running
    assert running.sentry.messages() == []


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


# ---------------------------------------------------------------------------
# Golden bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,request_bytes,response_bytes",
    GOLDEN_EXCHANGES,
    ids=[name for name, _, _ in GOLDEN_EXCHANGES],
)
def test_golden_endpoint(edge, name, request_bytes, response_bytes):
    assert edge.raw(request_bytes) == response_bytes


@pytest.mark.parametrize(
    "name,request_bytes,response_bytes",
    GOLDEN_ERRORS,
    ids=[name for name, _, _ in GOLDEN_ERRORS],
)
def test_golden_error(edge, name, request_bytes, response_bytes):
    assert edge.raw(request_bytes) == response_bytes
    # The server is still serving after every typed refusal.
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_golden_healthz(edge):
    response = edge.raw(b"GET /v1/healthz HTTP/1.1\r\nhost: t\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(
        b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
        b"content-type: application/json\r\n"
    )
    health = json.loads(body)
    assert health["status"] == "ok"
    assert health["draining"] is False
    assert len(health["shards"]) == 2
    for shard in health["shards"]:
        assert shard["alive"] is True
        assert isinstance(shard["pid"], int)
        assert shard["generation"] == 1


def test_golden_metrics(edge):
    response = edge.raw(b"GET /v1/metrics HTTP/1.1\r\nhost: t\r\n\r\n")
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(
        b"HTTP/1.1 200 OK\r\nserver: repro-edge\r\n"
        b"content-type: text/plain; version=0.0.4\r\n"
    )
    text = body.decode()
    assert "# TYPE repro_edge_requests_total counter" in text
    assert "# TYPE repro_edge_solve_latency_ms histogram" in text
    assert "repro_edge_open_requests" in text
    # The shards' kernel counters are merged into the scrape as
    # shard-labelled series: one /v1/metrics covers the fleet.
    assert "# TYPE repro_kernel_compile_targets_total counter" in text
    assert 'repro_kernel_compile_targets_total{shard="0"}' in text
    assert 'repro_kernel_compile_targets_total{shard="1"}' in text


def _request_series(edge) -> set[str]:
    """The ``repro_edge_requests_total`` series in one metrics scrape."""
    response = edge.raw(b"GET /v1/metrics HTTP/1.1\r\nhost: t\r\n\r\n")
    text = response.partition(b"\r\n\r\n")[2].decode()
    return {
        line.rsplit(" ", 1)[0]
        for line in text.splitlines()
        if line.startswith("repro_edge_requests_total{")
    }


def test_unknown_paths_share_one_metric_series(edge):
    """Scanned or fuzzed paths must not mint a series each."""
    _request_series(edge)  # so the scrape's own series already exists
    before = _request_series(edge)
    for index in range(200):
        path = f"/v1/scan-{index}" if index % 2 else f"/probe/{index}.php"
        request = f"GET {path} HTTP/1.1\r\nhost: t\r\n\r\n".encode()
        assert _status(edge.raw(request)) == 404
    after = _request_series(edge)
    assert len(after - before) <= 1
    assert 'repro_edge_requests_total{route="other",status="404"}' in after


def test_keep_alive_reuses_connection(edge):
    responses = edge.raw_keepalive(
        [SOLVE_REQUEST, CONTAINMENT_REQUEST, DATALOG_REQUEST]
    )
    assert responses == [SOLVE_RESPONSE, CONTAINMENT_RESPONSE, DATALOG_RESPONSE]


def test_connection_close_honoured(edge):
    request = SOLVE_REQUEST.replace(
        b"host: t\r\n", b"host: t\r\nconnection: close\r\n"
    )
    response = edge.raw(request)
    assert _status(response) == 200
    assert response.partition(b"\r\n\r\n")[0].endswith(b"connection: close")


# ---------------------------------------------------------------------------
# Fuzzed malformed frames
# ---------------------------------------------------------------------------


def test_fuzz_truncated_requests(edge):
    """Every prefix-cut of a valid request dies typed, never unhandled."""
    rng = random.Random(1009)
    cuts = sorted(rng.sample(range(1, len(SOLVE_REQUEST) - 1), 24))
    for cut in cuts:
        response = edge.raw(SOLVE_REQUEST[:cut])
        assert response, f"no response for cut at {cut}"
        status = _status(response)
        assert 400 <= status < 500, (cut, response[:120])
        assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE
    assert edge.sentry.messages() == []


def test_fuzz_random_garbage(edge):
    rng = random.Random(2003)
    for length in (1, 7, 64, 512):
        blob = bytes(rng.randrange(256) for _ in range(length)) + b"\r\n\r\n"
        response = edge.raw(blob)
        if response:  # a pure-binary blob may just get the socket closed
            assert 400 <= _status(response) < 500
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE
    assert edge.sentry.messages() == []


@pytest.mark.parametrize(
    "length", [b"\xb2", b"1\xb9"], ids=["superscript_2", "1_superscript_1"]
)
def test_fuzz_non_ascii_content_length(edge, length):
    """Latin-1 digits pass ``str.isdigit()`` but not ``int()``: typed 400."""
    request = (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: " + length + b"\r\n\r\n{}"
    )
    response = edge.raw(request)
    assert _status(response) == 400, response[:200]
    assert b"invalid content-length" in response
    assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE
    assert edge.sentry.messages() == []


def test_oversized_body_is_413(edge):
    declared = MAX_BODY + 1
    request = (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: " + str(declared).encode() + b"\r\n\r\n"
    )
    response = edge.raw(request)
    assert _status(response) == 413
    assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_overlong_request_line_is_400(edge):
    response = edge.raw(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n")
    assert _status(response) == 400
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


def test_lying_content_length_is_400(edge):
    """Body shorter than declared: the read fails typed, not hanging."""
    body = b'{"x":1}'
    request = (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: 500\r\n\r\n" + body
    )
    response = edge.raw(request)
    assert _status(response) == 400
    assert b"truncated body" in response
    assert edge.raw(SOLVE_REQUEST) == SOLVE_RESPONSE


BATCH_HEAD = (
    b"POST /v1/batch HTTP/1.1\r\nhost: t\r\n"
    b"content-type: application/x-repro-batch\r\n"
)


def _batch_request(body: bytes) -> bytes:
    return (
        BATCH_HEAD
        + b"content-length: "
        + str(len(body)).encode()
        + b"\r\n\r\n"
        + body
    )


@pytest.mark.parametrize(
    "name,body",
    [
        ("bad_magic", b"NOPE\x00\x00\x00\x01\x00\x00\x00\x01x"),
        ("short_header", b"REB1\x00"),
        ("truncated_count", b"REB1\x00\x00\x00\x05\x00\x00\x00\x02ab"),
        ("lying_item_length", b"REB1\x00\x00\x00\x01\x00\x00\xff\xffab"),
        ("unpicklable_item", b"REB1\x00\x00\x00\x01\x00\x00\x00\x03zzz"),
        (
            "trailing_bytes",
            protocol.encode_frames([{"op": "solve"}]) + b"extra",
        ),
        ("too_many_items", b"REB1\x7f\xff\xff\xff"),
    ],
)
def test_fuzz_batch_framing(edge, name, body):
    response = edge.raw(_batch_request(body))
    assert _status(response) == 400, (name, response[:200])
    assert b'"type":"EdgeProtocolError"' in response
    assert edge.raw(BATCH_REQUEST) == BATCH_RESPONSE
    assert edge.sentry.messages() == []


@pytest.mark.parametrize(
    "timeout",
    [
        True,
        False,
        0,
        -1,
        "1",
        float("nan"),
        float("inf"),
        10**400,
        -(10**400),
    ],
    ids=[
        "true",
        "false",
        "zero",
        "negative",
        "string",
        "nan",
        "inf",
        "huge_int",
        "huge_negative_int",
    ],
)
def test_bad_timeout_is_rejected_in_json_and_batch(timeout):
    """JSON bodies and batch items share one timeout validator."""
    source = {
        "vocabulary": {"E": 2},
        "universe": [0, 1],
        "relations": {"E": [[0, 1]]},
    }
    body = json.dumps(
        {"source": source, "target": source, "timeout": timeout}
    ).encode()
    with pytest.raises(EdgeProtocolError) as json_error:
        protocol.decode_solve(body)
    assert json_error.value.status == 400
    item = {
        "op": "solve",
        "source": structure_from_dict(source),
        "target": structure_from_dict(source),
        "timeout": timeout,
    }
    with pytest.raises(EdgeProtocolError) as batch_error:
        protocol.batch_request_payload(item, 3)
    assert batch_error.value.status == 400
    assert str(batch_error.value).startswith("batch item 3: ")


def test_timeout_past_int_print_limit_is_rejected_in_json_and_batch():
    """Ints too long to parse or print still get a typed 400."""
    empty = {"vocabulary": {"E": 2}, "universe": [0], "relations": {}}
    head = json.dumps({"source": empty, "target": empty})[:-1]
    body = f'{head}, "timeout": {"9" * 5000}}}'.encode()
    with pytest.raises(EdgeProtocolError) as json_error:
        protocol.decode_solve(body)
    assert json_error.value.status == 400
    source = structure_from_dict(empty)
    item = {
        "op": "solve",
        "source": source,
        "target": source,
        "timeout": 10**5000,
    }
    with pytest.raises(EdgeProtocolError) as batch_error:
        protocol.batch_request_payload(item, 1)
    assert batch_error.value.status == 400


def test_good_timeout_is_accepted_in_json_and_batch():
    source = structure_from_dict(
        {"vocabulary": {"E": 2}, "universe": [0], "relations": {}}
    )
    item = {"op": "solve", "source": source, "target": source, "timeout": 2}
    assert protocol.batch_request_payload(item, 0)["timeout"] == 2.0
    item["timeout"] = None
    assert protocol.batch_request_payload(item, 0)["timeout"] is None


def test_batch_item_errors_are_isolated(edge):
    """One rotten item answers typed in its slot; its batch-mates solve."""
    good = {
        "op": "containment",
        "q1": "Q(x) :- R(x,y)",
        "q2": "Q(x) :- R(x,y), R(y,z)",
    }
    body = protocol.encode_frames([good, {"op": "bogus"}, 42, good])
    response = edge.raw(_batch_request(body))
    assert _status(response) == 200
    items = protocol.decode_frames(
        response.partition(b"\r\n\r\n")[2],
        max_items=16,
        max_item_bytes=1 << 20,
    )
    assert items[0]["verdict"] is False
    assert items[1]["error"]["type"] == "EdgeProtocolError"
    assert items[1]["error"]["status"] == 400
    assert items[2]["error"]["type"] == "EdgeProtocolError"
    assert items[3]["verdict"] is False


def test_batch_item_with_huge_timeout_is_isolated(edge):
    """A timeout past float range fails its own slot, typed, not the batch."""
    good = {
        "op": "solve",
        "source": clique(2),
        "target": clique(3),
    }
    bad = dict(good, timeout=10**400)
    body = protocol.encode_frames([good, bad, good])
    response = edge.raw(_batch_request(body))
    assert _status(response) == 200
    items = protocol.decode_frames(
        response.partition(b"\r\n\r\n")[2],
        max_items=16,
        max_item_bytes=1 << 20,
    )
    assert items[0]["verdict"] is True
    assert items[1]["error"]["type"] == "EdgeProtocolError"
    assert items[1]["error"]["status"] == 400
    assert items[2]["verdict"] is True
    assert edge.sentry.messages() == []


# ---------------------------------------------------------------------------
# Satellite 4: drain is reachable — 503 on new work, in-flight completes
# ---------------------------------------------------------------------------


def _slow_solve_request() -> bytes:
    """~1.5s of real solve work (no K4 in a sparse random graph)."""
    body = protocol.dumps(
        {
            "source": structure_to_dict(random_graph(120, 0.18, seed=7)),
            "target": structure_to_dict(clique(4)),
        }
    )
    return (
        b"POST /v1/solve HTTP/1.1\r\nhost: t\r\n"
        b"content-type: application/json\r\n"
        b"content-length: " + str(len(body)).encode() + b"\r\n\r\n" + body
    )


def test_draining_edge_rejects_new_work_and_finishes_inflight():
    import asyncio

    config = EdgeConfig(num_shards=1, max_body_bytes=4 * 1024 * 1024)
    with RunningEdge(config) as edge:
        slow_request = _slow_solve_request()
        result: dict = {}

        def run_slow():
            result["response"] = edge.raw(slow_request, timeout=120)

        worker = threading.Thread(target=run_slow, daemon=True)
        worker.start()
        wait_for(
            lambda: edge.server._open_requests > 0,
            timeout=60,
            what="the slow request to be in flight",
        )

        assert edge._loop is not None
        drain_future = asyncio.run_coroutine_threadsafe(
            edge.server.drain(120), edge._loop
        )

        wait_for(
            lambda: edge.server.draining, timeout=10, what="draining flag"
        )
        # New work: typed 503 + Retry-After while the drain runs.
        refusal = edge.raw(SOLVE_REQUEST)
        assert _status(refusal) == 503
        assert b"retry-after:" in refusal
        assert b'"type":"ServiceClosedError"' in refusal
        # Health keeps answering so an orchestrator can watch the drain.
        health_response = edge.raw(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        assert _status(health_response) == 200
        health = json.loads(health_response.partition(b"\r\n\r\n")[2])
        assert health["status"] == "draining"

        worker.join(timeout=120)
        assert not worker.is_alive()
        slow_response = result["response"]
        assert _status(slow_response) == 200
        assert json.loads(slow_response.partition(b"\r\n\r\n")[2])[
            "verdict"
        ] is False  # rg(120, 0.18) has no K4

        assert drain_future.result(timeout=120) is True
    assert edge.sentry.messages() == []


def test_concurrent_drain_waits_for_and_returns_the_first_verdict():
    import asyncio

    config = EdgeConfig(num_shards=1, max_body_bytes=4 * 1024 * 1024)
    with RunningEdge(config) as edge:
        worker = threading.Thread(
            target=edge.raw,
            args=(_slow_solve_request(),),
            kwargs={"timeout": 120},
            daemon=True,
        )
        worker.start()
        wait_for(
            lambda: edge.server._open_requests > 0,
            timeout=60,
            what="the slow request to be in flight",
        )

        async def two_drains():
            first = asyncio.ensure_future(edge.server.drain(0.5))
            await asyncio.sleep(0)  # the first call starts the drain
            started = time.monotonic()
            second = await edge.server.drain(0.5)
            return await first, second, time.monotonic() - started

        first, second, waited = edge.run(two_drains(), timeout=120)
        # The slow request outlives the grace period: not clean, and the
        # second caller saw the first drain through before answering.
        assert first is False
        assert second is False
        assert waited >= 0.4
        worker.join(timeout=120)


def test_sigterm_drains_and_exits():
    """``python -m repro.edge`` wires SIGTERM → drain-then-exit."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.edge",
            "--port",
            "0",
            "--shards",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        info = json.loads(proc.stdout.readline())
        host, port = info["listening"].rsplit(":", 1)

        import http.client

        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        conn.request("GET", "/v1/healthz")
        assert json.loads(conn.getresponse().read())["status"] == "ok"

        proc.send_signal(signal.SIGTERM)
        # The draining edge answers new work 503 until the listener
        # closes; afterwards connections are refused.  Both are a
        # correct refusal — assert we never get a 200.
        deadline = time.monotonic() + 60
        saw_refusal = False
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                probe = http.client.HTTPConnection(host, int(port), timeout=5)
                probe.request(
                    "POST",
                    "/v1/containment",
                    body=b'{"q1":"Q(x) :- R(x,y)","q2":"Q(x) :- R(x,y)"}',
                    headers={"Content-Type": "application/json"},
                )
                status = probe.getresponse().status
                assert status == 503
                saw_refusal = True
                probe.close()
            except (ConnectionRefusedError, OSError):
                saw_refusal = True
            time.sleep(0.05)
        assert proc.wait(timeout=60) == 0
        assert saw_refusal
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
