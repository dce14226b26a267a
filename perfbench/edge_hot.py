"""``edge-hot``: cache-hot traffic through ``python -m repro.edge``.

A closed loop: one keep-alive ``EdgeClient`` connection that sends its
next request only after the previous reply.  The requests cycle over a
fixed set of a few dozen small instances, so every answer is cache-hot
and HTTP framing, JSON, fingerprinting, the router pipe and encoding do
almost all the work.

The edge runs with an artifact store.  The loop is cut into segments,
and each segment starts with a warm restart of the edge on the store
(timed: set-up and first answer) and an untimed warm-up pass, so the
restarts are spread over the run like the requests are.

Every instance is sent hundreds of times; its typical time is the
median of its round trips, and the end-to-end timings are built from
the typical times (see ``harness.typical``), rescaled by the
calibration slices the client times between requests
(``harness.normalize``).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import gate
import inputs
import layers
from harness import (
    ROOT,
    WORK,
    Tally,
    Tracer,
    check_client_count,
    calibration_ms,
    child_env,
    median,
    mix_metrics,
    normalize,
    TIMINGS,
    typical,
    peak_rss_mb,
    percentile,
)
from repro.core.pipeline import SolverPipeline, StructureCache
from repro.edge import protocol
from repro.edge.client import EdgeClient
from repro.persist import ArtifactStore
from repro.service import ServiceConfig, SolveService
from repro.structures.fingerprint import canonical_fingerprint

WHY = (
    "Every answer is cache-hot, so the edge's framing, JSON, "
    "fingerprinting, router pipe and encoding dominate and the kernel "
    "does almost nothing."
)
#: Closed-loop clients.  One: with two clients on a two-core box the
#: client, the edge and both shards contend for the cores, throughput
#: rises only about 10 % while latency nearly doubles, and the tail
#: follows whatever else the host runs.
CLIENTS = 1
SHARDS = 2
#: Loop segments per measured phase, each after a warm restart;
#: setup_s and first_answer_ms are the medians over these restarts.
SEGMENTS = 8
#: ``latency_tail_ms`` is p99: a run sends well over a thousand
#: requests, so p99 has more than ten beyond it.
TAIL_PERCENTILE = 99.0
#: The client times one calibration slice after this many requests.
CALIBRATE_EVERY = 25
#: Requests in the client's order before it wraps around.
ORDER_LENGTH = 4096
#: Solve requests replayed in-process on each rung of the ladder.
LADDER_REQUESTS = 300
#: Requests the layer sidecar measures.
SIDECAR_REQUESTS = 300
#: Span request ids: the client uses its request's position, the
#: ladder's rungs share one id per replayed request, the sidecar
#: follows.
LADDER_IDS = 50_000_000
SIDECAR_IDS = 60_000_000
CLIENT_TIMEOUT_S = 30.0


class EdgeProcess:
    """One ``python -m repro.edge`` process on an ephemeral port."""

    def __init__(self, store: str) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.edge",
                "--port", "0", "--shards", str(SHARDS), "--store", store,
            ],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if not line:
                raise SystemExit("perfbench: the edge exited before listening")
            host, _, port = json.loads(line)["listening"].rpartition(":")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = host, int(port)

    def client(self) -> EdgeClient:
        return EdgeClient(self.host, self.port, timeout=CLIENT_TIMEOUT_S)

    def metrics(self) -> str:
        with self.client() as client:
            return client.metrics()

    def stop(self) -> float:
        """SIGTERM (the edge drains its shards and flushes their stores),
        then wait, killing it if it hangs; returns the wall-clock ms from
        the signal to the exit."""
        tick = time.perf_counter()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        self.process.stdout.close()
        return (time.perf_counter() - tick) * 1000.0


def call(client: EdgeClient, request) -> dict:
    if request.op == "solve":
        return client.solve(request.source, request.target)
    if request.op == "containment":
        return client.containment(request.q1, request.q2)
    return client.datalog(request.source, request.target, k=request.k)


def spawn_timed(store: str, probe) -> tuple[EdgeProcess, dict, dict]:
    """Spawn an edge on ``store`` and send it ``probe``; returns ``(edge,
    timings, answer)`` with the wall-clock time to the readiness line
    (``ready_s``) and to the first answer (``first_ms``)."""
    start = time.perf_counter()
    edge = EdgeProcess(store)
    ready = time.perf_counter() - start
    try:
        with edge.client() as client:
            answer = call(client, probe)
    except BaseException:
        edge.stop()
        raise
    first = (time.perf_counter() - start) * 1000.0
    return edge, {"ready_s": ready, "first_ms": first}, answer


def warm_up(edge, instances, expected) -> None:
    """Send every instance once (untimed), checking each answer."""
    with edge.client() as client:
        for index, request in enumerate(instances):
            answer = call(client, request)
            gate.check_answer(
                request, answer["verdict"], answer["witness"],
                expected[index],
            )


def closed_loop(edge, bodies, paths, order, first, seconds, tracer,
                calibration):
    """One keep-alive client sends ``order`` from position ``first``
    (wrapping around) for ``seconds``; returns ``(records, position)``
    where a record is ``(index, wall_ms, reply|error)`` and a reply is
    ``(status, body bytes)``.

    Request bodies are encoded before the loop and replies decoded after
    it (the bytes are exactly what ``EdgeClient.solve``/``containment``/
    ``datalog`` send and receive), so the load generator spends as little
    of the shared CPU as it can.
    """
    records: list[tuple] = []
    position = first
    with edge.client() as client:
        stop_at = time.perf_counter() + seconds
        while time.perf_counter() < stop_at:
            index = order[position % len(order)]
            position += 1
            tick = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(position, "edge.request"):
                        reply = client.request(
                            "POST", paths[index], bodies[index]
                        )
                else:
                    reply = client.request("POST", paths[index], bodies[index])
            except (OSError, http.client.HTTPException) as exc:
                reply = exc
            else:
                reply = reply[0], reply[2]
            records.append(
                (index, (time.perf_counter() - tick) * 1000.0, reply)
            )
            if position % CALIBRATE_EVERY == 0:
                calibration.append(calibration_ms())
    return records, position


def phase(store, instances, expected, order, seconds, tracer):
    """:data:`SEGMENTS` segments of the loop, each on a freshly restarted
    edge; returns the records, the restarts' timings, the 429s counted,
    the last edge's shard service stats and the calibration slices."""
    bodies = [layers.request_body(request) for request in instances]
    paths = [f"/v1/{request.op}" for request in instances]
    records, timings, rejected, calibration = [], [], 0.0, []
    position = 0
    for _segment in range(SEGMENTS):
        edge, timing, answer = spawn_timed(store, instances[0])
        try:
            gate.check_answer(
                instances[0], answer["verdict"], answer["witness"],
                expected[0],
            )
            warm_up(edge, instances, expected)
            segment, position = closed_loop(
                edge, bodies, paths, order, position, seconds / SEGMENTS,
                tracer, calibration,
            )
            records.extend(segment)
            text = edge.metrics()
            rejected += rejected_count(text)
            stats = shard_service_stats(edge)
        finally:
            timing["drain_ms"] = edge.stop()
        timings.append(timing)
    return {
        "records": records,
        "timings": timings,
        "rejected": rejected,
        "service_stats": stats,
        "tracer": tracer,
        "calibration": calibration,
    }


def fold_records(records, instances, expected, tally: Tally):
    """Check every response; return per-request facts of the answers."""
    answered, solve_walls, route_ms = [], [], {}
    shards: dict[int, int] = {}
    coalesced = 0
    for index, wall, reply in records:
        tally.attempted += 1
        request = instances[index]
        if isinstance(reply, BaseException):
            tally.fail_error(reply)
            continue
        status, body = reply
        if status != 200:
            tally.fail_status(status, body)
            continue
        response = json.loads(body)
        gate.check_answer(
            request, response["verdict"], response["witness"],
            expected[index],
        )
        answered.append((index, wall))
        if request.op == "solve":
            solve_walls.append(wall)
        key = layers.route_key(response["strategy"])
        route_ms[key] = route_ms.get(key, 0.0) + wall
        shards[response["shard"]] = shards.get(response["shard"], 0) + 1
        coalesced += bool(response["coalesced"])
    return {
        "answered": answered,
        "solve_walls": solve_walls,
        "route_ms": route_ms,
        "shards": shards,
        "coalesced": coalesced,
        "attempted": len(records),
    }


def persist_sidecar(store, instances, shard_of, tracer) -> dict:
    """Open each shard's partition of the filled store read-only, as a
    warm restart does, and look up what the workload's solves need.

    ``shard_of`` maps an instance index to the shard that answered it;
    a solve needs its source's decomposition and its target's compiled
    form, looked up in that shard's partition.
    """
    appends = size = load_ms = records = 0.0
    hits = lookups = 0
    for shard in range(SHARDS):
        path = os.path.join(store, f"shard-{shard}")
        with tracer.span(SIDECAR_IDS - 1 - shard, "persist.open"):
            partition = ArtifactStore(path, mode="ro", register_metrics=False)
        try:
            appends += len(partition)
            size += partition.size_bytes()
            load_ms += partition.stats.load_ms
            with tracer.span(SIDECAR_IDS - 1 - shard, "persist.warm"):
                records += partition.warm_cache(StructureCache())
            before = partition.stats
            for index, request in enumerate(instances):
                if request.op != "solve" or shard_of.get(index) != shard:
                    continue
                partition.get(
                    "decomposition", canonical_fingerprint(request.source)
                )
                partition.get("ctarget", canonical_fingerprint(request.target))
            after = partition.stats
            hits += after.hits - before.hits
            lookups += (
                after.hits + after.misses - before.hits - before.misses
            )
        finally:
            partition.close()
    return {
        "persist.appends": appends,
        "persist.bytes": size,
        "persist.load_ms": load_ms,
        "persist.records": records,
        "persist.hit_ratio": hits / max(lookups, 1),
    }


def rejected_count(metrics_text: str) -> float:
    """``repro_edge_requests_total{status="429"}`` summed over routes."""
    total = 0.0
    for line in metrics_text.splitlines():
        if line.startswith("repro_edge_requests_total{") and (
            'status="429"' in line
        ):
            total += float(line.rsplit(" ", 1)[1])
    return total


def shard_service_stats(edge) -> dict[str, float]:
    """Per-layer service metrics summed over the shards' ServiceStats."""
    with edge.client() as client:
        _status, _headers, body = client.request(
            "GET", "/v1/healthz?full=1", None
        )
    snapshots = [shard["service"] for shard in json.loads(body)["shards"]]
    return layers.service_metrics(snapshots)


def ladder(instances, sample, tracer: Tracer):
    """Replay solve requests in-process: the pipeline rung, then the
    service rung, each on structures freshly decoded from the request's
    bytes against a warmed cache — the memo state a shard sees."""
    bodies = {index: layers.request_body(instances[index]) for index in sample}
    every = [
        (index, layers.request_body(r))
        for index, r in enumerate(instances)
        if r.op == "solve"
    ]
    pipeline = SolverPipeline()
    for _index, body in every:
        fresh = protocol.decode_solve(body)
        pipeline.solve(fresh["source"], fresh["target"], plan=True)
    solutions = []
    for rid, index in enumerate(sample, start=LADDER_IDS):
        fresh = protocol.decode_solve(bodies[index])
        with tracer.span(rid, "pipeline.solve"):
            solutions.append(
                pipeline.solve(fresh["source"], fresh["target"], plan=True)
            )

    async def service_rung() -> None:
        config = ServiceConfig(
            process_workers=0, thread_workers=2, plan=True, store_path=None
        )
        async with SolveService(config) as service:
            for _index, body in every:
                fresh = protocol.decode_solve(body)
                await service.submit(fresh["source"], fresh["target"])
            for rid, index in enumerate(sample, start=LADDER_IDS):
                fresh = protocol.decode_solve(bodies[index])
                with tracer.span(rid, "service.submit"):
                    await service.submit(fresh["source"], fresh["target"])

    asyncio.run(service_rung())
    return solutions


def run(seed: int, seconds: float, trace: bool) -> dict:
    check_client_count(CLIENTS)
    instances = inputs.edge_hot_instances(seed)
    expected = [
        gate.expected_verdict(r) for r in inputs.edge_hot_instances(seed)
    ]
    order = inputs.edge_hot_order(seed, 0, ORDER_LENGTH, instances)
    tally = Tally()
    WORK.mkdir(parents=True, exist_ok=True)
    store = tempfile.mkdtemp(prefix="edge-store-", dir=WORK)
    try:
        # A cold edge fills the store, so every timed restart is warm.
        edge, _timing, _answer = spawn_timed(store, instances[0])
        try:
            warm_up(edge, instances, expected)
        finally:
            edge.stop()
        phases = [
            phase(
                store, instances, expected, order,
                seconds / 2 if trace else seconds, tracer,
            )
            for tracer in ((None, Tracer()) if trace else (None,))
        ]
        if trace:
            shard_of = {}
            for index, _wall, reply in phases[1]["records"]:
                if not isinstance(reply, BaseException) and reply[0] == 200:
                    shard_of[index] = json.loads(reply[1])["shard"]
            persist_tracer = Tracer()
            persisted = persist_sidecar(
                store, instances, shard_of, persist_tracer
            )
    finally:
        shutil.rmtree(store, ignore_errors=True)
    main = phases[0]
    folded = fold_records(main["records"], instances, expected, tally)
    answered = folded["answered"]
    time_of = typical(answered)
    timings = main["timings"]
    sent = [index for index, _wall, _reply in main["records"]]
    walls = [wall for _index, wall in answered]
    report = {
        "why": WHY,
        "clients": CLIENTS,
        "requests": tally.attempted,
        "failures": tally.failures,
        "distinct_instances": len(time_of),
        "repeats_per_instance_min": min(
            sum(1 for i, _w in answered if i == key) for key in time_of
        ),
        # The warm-up pass sent every instance before each segment.
        "repeat_share": 1.0,
        "distinct_target_share": (
            len({instances[i].target for i in sent if instances[i].target})
            / len(sent)
        ),
        "route_time_share": layers.route_time_shares(folded["route_ms"]),
        "raw_latency_p50_ms": percentile(walls, 50),
        "raw_latency_p99_ms": percentile(walls, 99),
        "calibration_ms": median(main["calibration"]),
    }
    raw = mix_metrics(
        [index for index, _wall in answered], time_of, TAIL_PERCENTILE
    )
    raw.update(
        answered_share=len(answered) / folded["attempted"],
        setup_s=median([t["ready_s"] for t in timings]),
        first_answer_ms=median([t["first_ms"] for t in timings]),
        peak_rss_mb=peak_rss_mb(children=True),
    )
    report["unscaled"] = {
        name: round(raw[name], 4) for name in ("throughput_rps", *TIMINGS)
    }
    e2e = normalize(raw, main["calibration"])
    result = {"e2e": e2e, "report": report, "tally": tally}
    if not trace:
        return result

    traced_phase = phases[1]
    traced = fold_records(traced_phase["records"], instances, expected, tally)
    tracer = traced_phase["tracer"]
    solve_sample = [i for i in order if instances[i].op == "solve"]
    ladder_tracer = Tracer()
    solutions = ladder(
        instances, solve_sample[:LADDER_REQUESTS], ladder_tracer
    )
    sidecar_tracer = Tracer()
    pairs = [
        (instances[index], wire_result(json.loads(reply[1])))
        for index, _wall, reply in traced_phase["records"]
        if not isinstance(reply, BaseException) and reply[0] == 200
    ][:SIDECAR_REQUESTS]
    per_layer = layers.sidecar(pairs, sidecar_tracer, SIDECAR_IDS)
    per_layer.update(layers.fold_solutions(solutions))
    per_layer.update(traced_phase["service_stats"])
    edge_ms = percentile(traced["solve_walls"], 50)
    service_ms = median(ladder_tracer.durations_ms("service.submit"))
    shard_counts = list(traced["shards"].values()) or [0]
    traced_throughput = mix_metrics(
        [index for index, _wall in traced["answered"]],
        typical(traced["answered"]),
        TAIL_PERCENTILE,
    )["throughput_rps"] * median(traced_phase["calibration"])
    per_layer.update(
        {
            "edge.request_ms": edge_ms,
            "edge.overhead_ms": edge_ms - service_ms,
            "edge.router.shard_skew": (
                max(shard_counts) / (sum(shard_counts) / SHARDS)
                if sum(shard_counts) else 0.0
            ),
            "edge.rejected": traced_phase["rejected"],
            "edge.coalesced_share": traced["coalesced"] / max(
                len(traced["answered"]), 1
            ),
            "service.submit_ms": service_ms,
            "service.overhead_ms": (
                service_ms - per_layer["pipeline.solve_ms"]
            ),
            "persist.drain_ms": median(
                [t["drain_ms"] for t in traced_phase["timings"]]
            ),
            "trace.overhead_share": 1.0 - traced_throughput / (
                raw["throughput_rps"] * median(main["calibration"])
            ),
        }
    )
    per_layer.update(persisted)
    tracer.extend(ladder_tracer)
    tracer.extend(sidecar_tracer)
    tracer.extend(persist_tracer)
    result.update(per_layer=per_layer, tracer=tracer)
    return result


def wire_result(response: dict) -> dict:
    """An edge response back in the shard's result form."""
    witness = response["witness"]
    return {
        "verdict": response["verdict"],
        "witness": None if witness is None else dict(witness),
        "strategy": response["strategy"],
    }
