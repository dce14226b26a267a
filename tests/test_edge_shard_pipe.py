"""The router pipe: its frame protocol, and both ends of it live.

Both ends of a shard's pipe run :class:`repro.edge.router._PipeProtocol`
on their event loop, in ``multiprocessing.connection``'s framing.  The
shard tests play the edge by hand: they talk to
:func:`repro.edge.router.shard_main` over a plain ``spawn`` duplex
``Connection``, with no router or HTTP in between, which also pins that
the framing is ``Connection``'s.  The frame tests feed the protocol raw
bytes; the router tests check that the edge end runs no threads and
turns a killed shard into a prompt :class:`ShardCrashedError`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import multiprocessing.connection
import os
import pickle
import signal
import socket
import threading
import time

import pytest

from repro.edge.router import (
    RouterConfig,
    ShardRouter,
    _PipeProtocol,
    shard_main,
)
from repro.exceptions import ShardCrashedError
from repro.structures.graphs import clique, path
from repro.structures.homomorphism import is_homomorphism

#: Generous: a shard is a fresh interpreter that imports the kernel and
#: starts its service before it answers the first ping.
START_TIMEOUT = 120.0

#: The pipe buffer size the large round trip must exceed.
PIPE_BUFFER = 64 * 1024


class _Shard:
    """One shard process and the edge end of its pipe."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_main,
            args=(0, child_conn, {"thread_workers": 1}),
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def recv(self, timeout: float = 30.0) -> tuple:
        assert self.conn.poll(timeout), "no reply from the shard"
        return self.conn.recv()

    def close(self) -> None:
        if not self.conn.closed:
            self.conn.close()
        self.process.join(10.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()


@pytest.fixture
def shard():
    running = _Shard()
    running.conn.send((-1, "ping", {}))
    assert running.recv(START_TIMEOUT) == (
        -1, True, {"pid": running.process.pid}
    )
    yield running
    running.close()


def test_shard_exits_when_the_edge_end_closes(shard):
    shard.conn.close()
    started = time.monotonic()
    shard.process.join(10.0)
    assert not shard.process.is_alive()
    assert time.monotonic() - started < 5.0
    assert shard.process.exitcode == 0


def test_request_and_reply_larger_than_the_pipe_buffer(shard):
    source, target = path(16000), clique(2)
    payload = {"source": source, "target": target}
    assert len(pickle.dumps((0, "solve", payload))) > PIPE_BUFFER
    shard.conn.send((0, "solve", payload))
    request_id, ok, result = shard.recv()
    assert (request_id, ok) == (0, True)
    assert len(pickle.dumps((request_id, ok, result))) > PIPE_BUFFER
    assert result["verdict"] is True
    assert is_homomorphism(result["witness"], source, target)


def test_back_to_back_pings_are_all_answered(shard):
    count = 200
    for request_id in range(count):
        shard.conn.send((request_id, "ping", {}))
    replies = [shard.recv() for _ in range(count)]
    ids = sorted(request_id for request_id, _ok, _result in replies)
    assert ids == list(range(count))
    for _request_id, ok, result in replies:
        assert ok and result == {"pid": shard.process.pid}



def test_drain_answers_in_flight_work_then_exits(shard):
    shard.conn.send((1, "solve", {"source": path(40), "target": clique(2)}))
    shard.conn.send((2, "drain", {"timeout": 30.0}))
    shard.conn.send((3, "ping", {}))
    replies = {}
    for _ in range(3):
        request_id, ok, result = shard.recv()
        replies[request_id] = (ok, result)
    assert replies[1][0] is True and replies[1][1]["verdict"] is True
    assert replies[2] == (True, {"clean": True})
    ok, (name, _message) = replies[3]
    assert (ok, name) == (False, "ServiceClosedError")
    shard.process.join(10.0)
    assert shard.process.exitcode == 0


# ---------------------------------------------------------------------------
# The frame protocol, byte by byte
# ---------------------------------------------------------------------------


class _Transport:
    """Records writes; stands in for an asyncio socket transport."""

    def __init__(self) -> None:
        self.written = bytearray()

    def write(self, data) -> None:
        self.written += data

    def is_closing(self) -> bool:
        return False


def _connection_bytes(messages) -> bytes:
    """What ``Connection.send`` puts on the wire for ``messages``."""
    ours, theirs = socket.socketpair()
    with ours, multiprocessing.connection.Connection(theirs.detach()) as conn:
        for message in messages:
            conn.send(message)
        ours.setblocking(False)
        chunks = []
        while True:
            try:
                chunks.append(ours.recv(1 << 16))
            except BlockingIOError:
                return b"".join(chunks)


def _protocol():
    received = []
    protocol = _PipeProtocol(received.append, lambda: None)
    protocol.connection_made(_Transport())
    return protocol, received


MESSAGES = [
    (0, "ping", {}),
    (1, True, {"verdict": True, "witness": {"a": 0}}),
    (2, False, ("ShardCrashedError", "x" * 5000)),
]


def test_frames_fed_one_byte_at_a_time():
    wire = _connection_bytes(MESSAGES)
    protocol, received = _protocol()
    for offset in range(len(wire)):
        protocol.data_received(wire[offset:offset + 1])
    assert received == MESSAGES


def test_several_frames_in_one_chunk():
    wire = _connection_bytes(MESSAGES)
    protocol, received = _protocol()
    protocol.data_received(wire + wire[:3])
    assert received == MESSAGES
    protocol.data_received(wire[3:])
    assert received == MESSAGES * 2


def test_sent_frames_are_read_by_a_connection():
    protocol, _received = _protocol()
    for message in MESSAGES:
        protocol.send(message)
    ours, theirs = socket.socketpair()
    with ours, multiprocessing.connection.Connection(theirs.detach()) as conn:
        ours.sendall(protocol.transport.written)
        assert [conn.recv() for _ in MESSAGES] == MESSAGES


# ---------------------------------------------------------------------------
# The edge end, live
# ---------------------------------------------------------------------------


def _solve_payload():
    return {"source": path(6), "target": clique(2), "timeout": None}


def _router(**overrides) -> ShardRouter:
    options = {
        "num_shards": 1,
        "spawn_timeout": START_TIMEOUT,
        "service_options": {"thread_workers": 1},
        **overrides,
    }
    return ShardRouter(RouterConfig(**options))


def test_router_start_and_requests_add_no_threads():
    async def main() -> None:
        before = threading.active_count()
        router = _router()
        await router.start()
        try:
            answers = await asyncio.gather(
                *(router.solve(_solve_payload()) for _ in range(20))
            )
            assert all(answer["verdict"] is True for answer in answers)
            assert threading.active_count() == before
        finally:
            await router.drain(10.0)

    asyncio.run(main())


def test_send_after_sigkill_raises_shard_crashed_promptly():
    async def main() -> None:
        # A long backoff keeps the respawn from starting a new shard.
        router = _router(retry_budget=0, respawn_backoff=60.0)
        await router.start()
        handle = router._handles[0]
        process = handle.process
        os.kill(process.pid, signal.SIGKILL)
        process.join(10.0)  # blocks: the loop has not seen the EOF yet
        started = time.monotonic()
        with pytest.raises(ShardCrashedError):
            await asyncio.wait_for(router.solve(_solve_payload()), 10.0)
        assert time.monotonic() - started < 2.0
        assert not handle.alive
        await router.drain(1.0)

    asyncio.run(main())


def test_failed_readiness_ping_leaves_no_shard_process():
    async def main() -> None:
        # No fresh interpreter answers its first ping within 50 ms.
        router = _router(spawn_timeout=0.05)
        with pytest.raises(asyncio.TimeoutError):
            await router.start()

    asyncio.run(main())
    shards = [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("repro-edge-shard-")
    ]
    assert not shards, f"orphaned shard processes: {shards}"
