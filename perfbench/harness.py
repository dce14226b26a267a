"""Shared machinery of the repo benchmark: paths, statistics, spans, output.

Everything here is workload-independent.  The workload modules
(``edge_hot``, ``solve_cold``) build their inputs
with :mod:`inputs`, drive the system through its public entry points,
and hand their measurements to :func:`emit`.
"""

from __future__ import annotations

import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: The checkout the benchmark runs in: the parent of this directory.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
#: Scratch space inside the checkout (temporary stores, span dumps).
WORK = ROOT / ".perfbench"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class CorrectnessError(Exception):
    """An answer disagreed with the independently computed expectation."""


def add_source_paths() -> None:
    """Put the checkout's ``src`` and ``benchmarks`` on ``sys.path``.

    Raises ``SystemExit`` (exit code 2, nothing printed on stdout) when
    the checkout holds no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for entry in (str(SRC), str(BENCHMARKS)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


# -- statistics -------------------------------------------------------------


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb(*, children: bool) -> float:
    """Peak resident memory (MB) of this process, or of the largest
    child process this process has waited for."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


# -- repeated work ----------------------------------------------------------


def pin_to_one_cpu() -> int:
    """Run this process, and every process it starts, on one CPU.

    On a small shared VM the time a request takes depends on which
    virtual CPUs its processes land on: a hand-off to a process on the
    other, idle vCPU waits for the host to wake that vCPU.  On one CPU
    every hand-off is a local context switch, and repeated runs agree
    to a few percent where unpinned ones differed by half.  Returns the
    CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def typical(samples) -> dict:
    """The median time per key over ``(key, ms)`` samples.

    Every workload repeats each piece of work many times over the run,
    so one slow moment of the host (a neighbour, a collection in another
    process) moves a few samples of a key, never its median.
    """
    by_key: dict = {}
    for key, ms in samples:
        by_key.setdefault(key, []).append(ms)
    return {key: statistics.median(values) for key, values in by_key.items()}


#: What the calibration slice takes on the reference host, in ms.
CALIBRATION_REFERENCE_MS = 1.0
#: The end-to-end timings :func:`normalize` rescales.
TIMINGS = ("latency_p50_ms", "latency_tail_ms", "setup_s", "first_answer_ms")


def calibration_ms() -> float:
    """Time one fixed slice of pure-Python work of the kind requests do
    (dict updates, string keys, a sort, a JSON round trip).  It runs no
    code of the program, so no change to the program moves it."""
    tick = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(2000):
        key = f"k{i % 97}"
        table[key] = table.get(key, 0) + i
    items = sorted(table.items(), key=lambda item: item[1])
    json.loads(
        json.dumps({"items": items, "rows": [list(range(i % 7)) for i in range(300)]})
    )
    return (time.perf_counter() - tick) * 1000.0


def normalize(raw: dict[str, float], calibration: list[float]) -> dict:
    """The end-to-end metrics on the reference host.

    Besides moments, the host has spells of minutes in which everything
    runs up to 1.6 times slower or faster; pinning and medians cannot
    see them.  The workloads time a calibration slice every few requests,
    so its median over the run shows the host's speed during that very
    run.  Every timing is scaled by ``CALIBRATION_REFERENCE_MS / median``
    (throughput by the inverse): repeated runs of one seed that differed
    by 30 % raw agreed within 10 % rescaled.
    """
    scale = CALIBRATION_REFERENCE_MS / statistics.median(calibration)
    out = dict(raw)
    for name in TIMINGS:
        out[name] = raw[name] * scale
    out["throughput_rps"] = raw["throughput_rps"] / scale
    return out


def mix_metrics(keys, time_of: dict, tail_pct: float) -> dict[str, float]:
    """Throughput and latency of the request sequence ``keys``, each
    request timed by its key's typical time; the tail at ``tail_pct``,
    which the workload fixes so that every run has ten requests beyond
    it."""
    per_request = [time_of[key] for key in keys]
    return {
        "throughput_rps": 1000.0 * len(per_request) / sum(per_request),
        "latency_p50_ms": percentile(per_request, 50),
        "latency_tail_ms": percentile(per_request, tail_pct),
    }


# -- failures ---------------------------------------------------------------


@dataclass
class Tally:
    """Requests attempted and failed, failures counted by type."""

    attempted: int = 0
    failures: dict[str, int] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def fail_status(self, status: int, body: bytes) -> None:
        """Tally a non-200 edge reply by the typed error it carries."""
        try:
            name = json.loads(body)["error"]["type"]
        except (ValueError, KeyError, TypeError):
            name = "unparseable"
        if status in (429, 503):
            self.fail(f"refused:{name}")
        elif status == 504:
            self.fail(f"timeout:{name}")
        else:
            self.fail(f"error:{name}")

    def fail_error(self, exc: BaseException) -> None:
        """Tally an exception by type: refusals (HTTP 429/503 or the
        service's overload/closed errors), timeouts, other typed errors."""
        name = type(exc).__name__
        status = getattr(exc, "status", None)
        if status in (429, 503) or name in (
            "ServiceOverloadedError",
            "ServiceClosedError",
        ):
            self.fail(f"refused:{name}")
        elif "Timeout" in name or isinstance(exc, TimeoutError):
            self.fail(f"timeout:{name}")
        else:
            self.fail(f"error:{name}")


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory spans recorded around the benchmark's calls into layers.

    A span is ``(request_id, name, start, end, parent_index)``.  The
    layer of a span is its name up to the first ``.`` (``edge.request``
    belongs to ``edge``).  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[int] = []

    def span(self, request_id: int, name: str):
        """A nested span (context manager); its parent is the innermost
        open span.  Only for sequential code."""
        return _Span(self, request_id, name)

    def extend(self, other: "Tracer") -> None:
        """Append ``other``'s spans, keeping their parent links."""
        shift = len(self.spans)
        self.spans.extend(
            (rid, name, start, end, parent + shift if parent >= 0 else -1)
            for rid, name, start, end, parent in other.spans
        )

    def durations_ms(self, name: str) -> list[float]:
        return [
            (end - start) * 1000.0
            for _rid, span_name, start, end, _parent in self.spans
            if span_name == name
        ]

    def self_time_ms(self) -> dict[str, float]:
        """Total self time per layer: span duration minus its children."""
        child_time = [0.0] * len(self.spans)
        for _rid, _name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (_rid, name, start, end, _parent) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            own = (end - start - child_time[index]) * 1000.0
            totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [
            {
                "request": rid,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
            for rid, name, start, end, parent in self.spans
        ]
        path.write_text(json.dumps(rows))


class _Span:
    __slots__ = ("tracer", "request_id", "name", "index")

    def __init__(self, tracer: Tracer, request_id: int, name: str) -> None:
        self.tracer = tracer
        self.request_id = request_id
        self.name = name
        self.index = -1

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else -1
        self.index = len(tracer.spans)
        tracer.spans.append(
            (self.request_id, self.name, time.perf_counter(), 0.0, parent)
        )
        tracer._stack.append(self.index)
        return self

    def duration_ms(self) -> float:
        _rid, _name, start, end, _parent = self.tracer.spans[self.index]
        return (end - start) * 1000.0

    def __exit__(self, *_exc) -> None:
        tracer = self.tracer
        tracer._stack.pop()
        rid, name, start, _end, parent = tracer.spans[self.index]
        tracer.spans[self.index] = (
            rid, name, start, time.perf_counter(), parent
        )


# -- output -----------------------------------------------------------------


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
    }


def check_client_count(clients: int) -> None:
    """Refuse more closed-loop client threads than cores."""
    cores = os.cpu_count() or 1
    if clients > cores:
        raise SystemExit(
            f"perfbench: {clients} client threads > {cores} cores"
        )


def print_table(title: str, rows: dict[str, object]) -> None:
    print(f"  {title}")
    for name, value in rows.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        print(f"    {name:<38} {value}")


def emit(
    *,
    metrics: dict[str, float],
    trace: bool,
    tally: Tally,
) -> None:
    """Print the result line: every declared metric of the run's kind.

    ``metrics`` must hold exactly the end-to-end metrics (``trace``
    off) or exactly the per-layer metrics (``trace`` on) that
    BENCHMARK.json declares; anything else is a benchmark bug.
    """
    spec = json.loads(BENCHMARK_JSON.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in group}
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise SystemExit(
            f"perfbench: metric set mismatch (missing {missing}, "
            f"undeclared {extra})"
        )
    if tally.attempted < 1:
        raise SystemExit("perfbench: no request was attempted")
    out = {
        name: {"value": float(metrics[name]), "unit": units[name]}
        for name in units
    }
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": out,
            }
        )
    )
