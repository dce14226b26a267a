"""Per-layer measurement: sidecar timings on fresh copies, and folding of
``SolveStats`` into pipeline and kernel metrics.

The sidecar calls each layer's public function on objects in the memo
state that layer sees in the real run: structures freshly decoded from
the request's own bytes (the service and shards receive decoded,
memo-free structures), targets compiled once where the real run caches
them.
"""

from __future__ import annotations

from harness import Tracer, median
from repro import contains
from repro.cq.parser import parse_query
from repro.datalog.canonical_program import canonical_refutes
from repro.edge import protocol
from repro.kernel.compile import compile_source, compile_target
from repro.kernel.estimate import plan_instance
from repro.obs.metrics import KERNEL_COUNTERS
from repro.structures.fingerprint import (
    canonical_fingerprint,
    instance_fingerprint,
)
from repro.structures.io import structure_to_dict

#: Route keys of ``pipeline.route_share.<key>``.  The width-aware
#: planner is split by the engine it chose; anything unforeseen lands in
#: ``other``.
ROUTE_KEYS = (
    "zero-valid",
    "one-valid",
    "horn-direct",
    "dual-horn-direct",
    "bijunctive-direct",
    "affine-gf2",
    "treewidth-dp",
    "pebble-refutation",
    "backtracking",
    "planner-dp",
    "planner-pebble",
    "planner-datalog",
    "planner-search",
    "other",
)

#: The ``SolveStats.kernel`` keys reported as ``kernel.<key>``.
KERNEL_KEYS = tuple(key for key in KERNEL_COUNTERS if key != "deadline.checks")


def route_key(strategy: str) -> str:
    """``width-planner(route=dp,width=2)`` → ``planner-dp``; others by
    their base name."""
    base, _, params = strategy.partition("(")
    if base == "width-planner":
        for part in params.rstrip(")").split(","):
            if part.startswith("route="):
                base = "planner-" + part[len("route="):]
    return base if base in ROUTE_KEYS else "other"


def request_body(request) -> bytes:
    """The JSON body ``EdgeClient`` would send for ``request``."""
    if request.op == "containment":
        return protocol.dumps({"q1": request.q1, "q2": request.q2})
    body = {
        "source": structure_to_dict(request.source),
        "target": structure_to_dict(request.target),
    }
    if request.op == "datalog":
        body["k"] = request.k
    return protocol.dumps(body)


_DECODERS = {
    "solve": protocol.decode_solve,
    "containment": protocol.decode_containment,
    "datalog": protocol.decode_datalog,
}


#: The spans the sidecar records; each becomes ``<name>_ms`` (p50).
SIDECAR_SPANS = (
    "edge.protocol.decode",
    "edge.protocol.encode",
    "structures.fingerprint",
    "structures.to_dict",
    "kernel.compile",
    "kernel.plan",
    "cq.contains",
    "datalog.refutes",
)


def sidecar(pairs, tracer: Tracer, first_id: int) -> dict[str, float]:
    """Time the structure, protocol, kernel, cq and datalog layers.

    ``pairs`` holds ``(request, result)`` where ``result`` is the
    answer the real run produced (``verdict``, ``witness`` mapping or
    ``None``, ``strategy``); it is what the encode span serializes.
    ``tracer`` must be fresh: the p50 of each of its
    :data:`SIDECAR_SPANS` is returned.
    """
    warm_targets: dict[str, object] = {}
    for rid, (request, result) in enumerate(pairs, start=first_id):
        decode = _DECODERS[request.op]
        with tracer.span(rid, "request"):
            if request.op != "containment":
                with tracer.span(rid, "structures.to_dict"):
                    structure_to_dict(request.source)
                    structure_to_dict(request.target)
            body = request_body(request)
            with tracer.span(rid, "edge.protocol.decode"):
                payload = decode(body)
            if request.op == "containment":
                q1, q2 = payload["q1"], payload["q2"]
                with tracer.span(rid, "cq.contains"):
                    contains(parse_query(q1), parse_query(q2))
            else:
                with tracer.span(rid, "structures.fingerprint"):
                    instance_fingerprint(payload["source"], payload["target"])
                # Each layer gets its own freshly decoded copy, so no
                # span inherits memos (fingerprint, compiled source)
                # another span left behind.
                fresh = decode(body)
                with tracer.span(rid, "kernel.compile"):
                    compile_source(fresh["source"])
                    compile_target(fresh["target"])
                # The real run compiles a target once and caches it.
                key = canonical_fingerprint(request.target)
                ctarget = warm_targets.get(key)
                if ctarget is None:
                    ctarget = warm_targets[key] = compile_target(
                        decode(body)["target"]
                    )
                fresh = decode(body)
                with tracer.span(rid, "kernel.plan"):
                    plan_instance(
                        fresh["source"], fresh["target"], ctarget=ctarget
                    )
                if request.op == "datalog":
                    fresh = decode(body)
                    with tracer.span(rid, "datalog.refutes"):
                        canonical_refutes(fresh["source"], ctarget, request.k)
            encoded = dict(
                result, route=request.op, shard=0, coalesced=False
            )
            with tracer.span(rid, "edge.protocol.encode"):
                protocol.dumps(protocol.encode_result(encoded))
    return {
        f"{name}_ms": median(tracer.durations_ms(name))
        for name in SIDECAR_SPANS
    }


def solution_result(solution) -> dict:
    """A ``Solution`` as the result dict a shard hands to the encoder."""
    return {
        "verdict": solution.exists,
        "witness": solution.homomorphism,
        "strategy": solution.strategy,
    }


class SolveFold:
    """Pipeline and kernel metrics folded from ``Solution`` objects one at
    a time, so a caller need not keep the solutions alive.

    Timings are per-solve p50s; cache ratio and route shares are over
    all solves; kernel counters are summed.
    """

    def __init__(self) -> None:
        self.totals: list[float] = []
        self.applies: list[float] = []
        self.runs: list[float] = []
        self.hits = self.misses = self.count = 0
        self.routes = dict.fromkeys(ROUTE_KEYS, 0)
        self.kernel = dict.fromkeys(KERNEL_KEYS, 0)

    def add(self, solution) -> None:
        self.count += 1
        self.routes[route_key(solution.strategy)] += 1
        stats = solution.stats
        if stats is None:
            return
        timings = stats.timings
        self.totals.append(timings.get("total", 0.0))
        self.applies.append(
            sum(v for k, v in timings.items() if k.startswith("applies:"))
        )
        self.runs.append(
            sum(v for k, v in timings.items() if k.startswith("run:"))
        )
        self.hits += stats.cache_hits
        self.misses += stats.cache_misses
        for key, value in (stats.kernel or {}).items():
            if key in self.kernel:
                self.kernel[key] += value

    def metrics(self) -> dict[str, float]:
        lookups = max(self.hits + self.misses, 1)
        metrics = {
            "pipeline.solve_ms": median(self.totals),
            "pipeline.applies_ms": median(self.applies),
            "pipeline.run_ms": median(self.runs),
            "pipeline.cache_hit_ratio": self.hits / lookups,
        }
        for key, n in self.routes.items():
            metrics[f"pipeline.route_share.{key}"] = n / max(self.count, 1)
        for key, value in self.kernel.items():
            metrics[f"kernel.{key}"] = float(value)
        return metrics


def fold_solutions(solutions) -> dict[str, float]:
    """:class:`SolveFold` metrics of ``solutions``; a solution shared by
    coalesced requests is counted once."""
    fold = SolveFold()
    for solution in {id(s): s for s in solutions}.values():
        fold.add(solution)
    return fold.metrics()


def route_time_shares(route_ms: dict[str, float]) -> dict[str, float]:
    """Each route's share of the summed request time."""
    total = sum(route_ms.values()) or 1.0
    return {key: round(value / total, 4) for key, value in route_ms.items()}


def service_metrics(snapshots) -> dict[str, float]:
    """Per-layer service metrics from ``ServiceStats.snapshot()`` dicts
    (several services or shards are summed; p50 is count-weighted)."""
    submitted = sum(s["submitted"] for s in snapshots)
    weight = sum(s["latency"]["count"] for s in snapshots) or 1
    return {
        "service.coalesce_hit_ratio": (
            sum(s["coalesce_hits"] for s in snapshots) / max(submitted, 1)
        ),
        "service.thread_solves": sum(s["thread_solves"] for s in snapshots),
        "service.process_solves": sum(s["process_solves"] for s in snapshots),
        "service.max_queue_depth": max(s["max_queue_depth"] for s in snapshots),
        "service.retries": sum(s["retries"] for s in snapshots),
        "service.worker_restarts": sum(
            s["worker_restarts"] for s in snapshots
        ),
        "service.latency_p50_ms": sum(
            s["latency"]["p50_ms"] * s["latency"]["count"] for s in snapshots
        ) / weight,
    }
