"""The shard side of the router pipe, driven directly over a spawn Pipe.

A shard reads its pipe end on its event loop and replies with direct
sends from the loop.  These tests play the edge by hand: they talk to
:func:`repro.edge.router.shard_main` over a ``spawn`` duplex pipe, with
no router, reader thread or HTTP in between.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time

import pytest

from repro.edge.router import shard_main
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
