"""``solve-cold``: in-process solves on sources the pipeline has not seen.

One thread calls ``repro.solve(plan=True)``, ``repro.contains`` and
``canonical_refutes(k=2)`` back to back on a few hundred requests, each
from its own fresh seed, so compile, plan and the search, DP, pebble and
Datalog engines do nearly all the work, while the targets come from a
small fixed set and the pipeline's target cache hits.

The requests are answered over and over in passes until the run's time
is up.  Every pass starts from the same state: fresh copies of every
request, the pipeline cache emptied and refilled with the fixed
targets' entries only, and a full garbage collection, so each pass does
the same cold-source work, and each request is timed by its median over
the passes (see ``harness.typical``).  Cold interpreter starts are
spread over the run between passes.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time

import gate
import inputs
import layers
from harness import (
    ROOT,
    Tally,
    Tracer,
    calibration_ms,
    child_env,
    median,
    mix_metrics,
    normalize,
    TIMINGS,
    peak_rss_mb,
    percentile,
    typical,
)
from repro import contains, default_pipeline, solve
from repro.cq.parser import parse_query
from repro.datalog.canonical_program import canonical_refutes
from repro.exceptions import ReproError

WHY = (
    "No source is in the pipeline's cache, so compile, plan and the "
    "solving engines do nearly all the work; the fixed targets keep the "
    "target cache hot."
)
#: Distinct requests per run: twelve blocks of the family mix.
REQUESTS = 12 * sum(weight for _label, weight in inputs.SOLVE_COLD_MIX)
#: ``latency_tail_ms`` is p95, the highest percentile with ten of the
#: distinct requests beyond it.
TAIL_PERCENTILE = 95.0
#: A pass times one calibration slice after this many requests.
CALIBRATE_EVERY = 8
#: Passes over the requests never fall below this.
MIN_PASSES = 3
#: Cold interpreter starts per run; setup_s and first_answer_ms are
#: their medians.
SETUP_REPEATS = 15
#: Requests the layer sidecar measures.
SIDECAR_REQUESTS = 120
SIDECAR_IDS = 50_000_000

#: A cold process: import, build the default pipeline, answer once.
PROBE = """
import repro
repro.default_pipeline()
print("ready", flush=True)
from repro.structures.graphs import clique, cycle
print(repro.solve(cycle(6), clique(3), plan=True).exists, flush=True)
"""


def cold_start() -> dict[str, float]:
    """Wall-clock times of one fresh interpreter up to its pipeline
    being built (``ready_s``) and to its first answer (``first_ms``)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-c", PROBE],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        ready_line = process.stdout.readline()
        ready = time.perf_counter() - start
        answer_line = process.stdout.readline()
        first = (time.perf_counter() - start) * 1000.0
    finally:
        process.stdout.close()
        process.wait(timeout=60)
    if ready_line.strip() != "ready" or answer_line.strip() != "True":
        raise SystemExit("perfbench: the cold-start probe failed")
    return {"ready_s": ready, "first_ms": first}


def prepared(request):
    """The call a request makes, with its arguments built up front."""
    if request.op == "containment":
        return contains, (parse_query(request.q1), parse_query(request.q2)), {}
    if request.op == "datalog":
        return canonical_refutes, (request.source, request.target, request.k), {}
    return solve, (request.source, request.target), {"plan": True}


SPAN_NAMES = {
    "solve": "pipeline.solve",
    "containment": "cq.contains",
    "datalog": "datalog.refutes",
}




def reset(targets) -> None:
    """The state every pass starts from: the pipeline cache holding the
    fixed targets' entries and nothing else, and no garbage pending (so
    collections fall on the same calls in every pass)."""
    cache = default_pipeline().cache
    cache.clear()
    for target in targets.horn + [
        t for group in targets.boolean.values() for t in group
    ]:
        cache.classification(target)
        cache.compiled_target(target)
    for target in [
        *targets.cliques.values(), targets.two_values, *targets.databases
    ]:
        cache.compiled_target(target)
    gc.collect()


def one_pass(seed, targets, expected, tally: Tally, calibration, tracer=None):
    """Answer every request once, on fresh copies; returns ``(samples,
    answers, busy_s)`` where a sample is ``(index, wall_ms)`` of an
    answered request and ``answers`` maps index to answer."""
    calls = [
        (index, request, prepared(request))
        for index, request in (
            (i, inputs.solve_cold_request(seed, i, targets))
            for i in range(REQUESTS)
        )
    ]
    reset(targets)
    timed = []
    for index, request, (fn, args, kwargs) in calls:
        tick = time.perf_counter()
        try:
            if tracer is None:
                answer = fn(*args, **kwargs)
            else:
                with tracer.span(index, SPAN_NAMES[request.op]):
                    answer = fn(*args, **kwargs)
        except ReproError as exc:
            answer = exc
        timed.append((index, (time.perf_counter() - tick) * 1000.0, answer))
        if index % CALIBRATE_EVERY == 0:
            calibration.append(calibration_ms())
    samples, answers = [], {}
    for index, wall, answer in timed:
        if check(calls[index][1], answer, expected[index], tally):
            samples.append((index, wall))
            answers[index] = answer
    return samples, answers, sum(wall for _i, wall, _a in timed) / 1000.0


def measure(seed, seconds, tally: Tally, tracer=None, starts=None):
    """Passes until ``seconds`` of measured time are spent (at least
    :data:`MIN_PASSES`); with ``starts``, cold interpreter starts are
    appended to it, spread over the run.  Returns ``(samples, the first
    pass's answers, passes, calibration slices in ms)``."""
    targets = inputs.ColdTargets()
    reference = inputs.ColdTargets()
    expected = [
        gate.expected_verdict(inputs.solve_cold_request(seed, i, reference))
        for i in range(REQUESTS)
    ]
    samples, first, busy, passes = [], None, 0.0, 0
    calibration: list[float] = []
    while passes < MIN_PASSES or busy < seconds:
        while starts is not None and (
            len(starts) * seconds <= SETUP_REPEATS * busy
            and len(starts) < SETUP_REPEATS
        ):
            starts.append(cold_start())
        pass_samples, answers, spent = one_pass(
            seed, targets, expected, tally, calibration, tracer
        )
        samples.extend(pass_samples)
        first = answers if first is None else first
        busy += spent
        passes += 1
    while starts is not None and len(starts) < SETUP_REPEATS:
        starts.append(cold_start())
    return samples, first, passes, calibration


def check(request, answer, expected, tally: Tally) -> bool:
    """The gate; ``False`` for a failed (tallied) request."""
    tally.attempted += 1
    if isinstance(answer, BaseException):
        tally.fail_error(answer)
        return False
    if request.op == "solve":
        gate.check_answer(request, answer.exists, answer.homomorphism, expected)
    elif request.op == "containment":
        gate.check_answer(request, answer, None, expected)
    else:
        gate.check_refutation(request, answer, expected)
    return True


def route_of(request, answer) -> str:
    if request.op == "solve":
        return layers.route_key(answer.strategy)
    return "cq-contains" if request.op == "containment" else "datalog-refutes"


def sidecar_result(request, answer) -> dict:
    if request.op == "solve":
        return layers.solution_result(answer)
    return {"verdict": answer, "witness": None, "strategy": request.op}


def properties(seed, time_of, answers) -> dict:
    targets = inputs.ColdTargets()
    requests = [
        inputs.solve_cold_request(seed, i, targets) for i in range(REQUESTS)
    ]
    seen, repeats = set(), 0
    for request in requests:
        key = request.fingerprint()
        repeats += key in seen
        seen.add(key)
    route_ms: dict[str, float] = {}
    for index, answer in answers.items():
        route = route_of(requests[index], answer)
        route_ms[route] = route_ms.get(route, 0.0) + time_of[index]
    return {
        "why": WHY,
        "distinct_requests": REQUESTS,
        "repeat_share": repeats / len(requests),
        "distinct_target_share": len(
            {id(r.target) for r in requests if r.target is not None}
        ) / len(requests),
        "route_time_share": layers.route_time_shares(route_ms),
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    starts: list[dict] = []
    tally = Tally()
    samples, answers, passes, calibration = measure(
        seed, seconds / 2 if trace else seconds, tally, starts=starts
    )
    time_of = typical(samples)
    keys = sorted(time_of)
    walls = [wall for _index, wall in samples]
    report = dict(
        properties(seed, time_of, answers),
        requests=tally.attempted,
        failures=tally.failures,
        passes=passes,
        raw_latency_p50_ms=percentile(walls, 50),
        raw_latency_p99_ms=percentile(walls, 99),
        calibration_ms=median(calibration),
    )
    raw = mix_metrics(keys, time_of, TAIL_PERCENTILE)
    raw.update(
        answered_share=len(keys) / REQUESTS,
        setup_s=median([s["ready_s"] for s in starts]),
        first_answer_ms=median([s["first_ms"] for s in starts]),
        peak_rss_mb=peak_rss_mb(children=False),
    )
    report["unscaled"] = {
        name: round(raw[name], 4) for name in ("throughput_rps", *TIMINGS)
    }
    e2e = normalize(raw, calibration)
    result = {"e2e": e2e, "report": report, "tally": tally}
    if not trace:
        return result

    tracer = Tracer()
    traced, traced_answers, _passes, traced_calibration = measure(
        seed, seconds / 2, tally, tracer
    )
    traced_times = typical(traced)
    fold = layers.SolveFold()
    copies = inputs.ColdTargets()
    requests = [
        inputs.solve_cold_request(seed, i, copies) for i in range(REQUESTS)
    ]
    for index, answer in traced_answers.items():
        if requests[index].op == "solve":
            fold.add(answer)
    per_layer = fold.metrics()
    pairs = [
        (requests[index], sidecar_result(requests[index], answer))
        for index, answer in sorted(traced_answers.items())
    ][:SIDECAR_REQUESTS]
    sidecar_tracer = Tracer()
    per_layer.update(layers.sidecar(pairs, sidecar_tracer, SIDECAR_IDS))
    per_layer["cq.contains_ms"] = median(tracer.durations_ms("cq.contains"))
    per_layer["datalog.refutes_ms"] = median(
        tracer.durations_ms("datalog.refutes")
    )
    per_layer["trace.overhead_share"] = 1.0 - normalize(
        mix_metrics(sorted(traced_times), traced_times, TAIL_PERCENTILE)
        | {name: 0.0 for name in TIMINGS},
        traced_calibration,
    )["throughput_rps"] / e2e["throughput_rps"]
    tracer.extend(sidecar_tracer)
    result.update(per_layer=per_layer, tracer=tracer)
    return result
