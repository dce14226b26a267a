"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

They pin the contract the benchmark's users rely on: seeded inputs,
declared metric names, a correctness gate that aborts, and a smoke-size
run of every workload that passes the gate.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import harness

harness.add_source_paths()

import gate  # noqa: E402  (needs the source paths)
import inputs  # noqa: E402
from run import WORKLOADS  # noqa: E402

RUN = str(harness.ROOT / "perfbench" / "run.py")


def fingerprints(requests) -> list[str]:
    return [request.fingerprint() for request in requests]


def edge_hot_requests(seed: int) -> list[str]:
    instances = inputs.edge_hot_instances(seed)
    order = inputs.edge_hot_order(seed, 0, 200, instances)
    return fingerprints(instances[i] for i in order)


def solve_cold_requests(seed: int) -> list[str]:
    targets = inputs.ColdTargets()
    return fingerprints(
        inputs.solve_cold_request(seed, index, targets) for index in range(60)
    )


@pytest.mark.parametrize(
    "requests",
    [edge_hot_requests, solve_cold_requests],
)
def test_seed_fixes_the_request_list(requests):
    assert requests(7) == requests(7)
    assert requests(7) != requests(8)


def test_declared_names_are_well_formed():
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    names = [
        entry["name"]
        for group in ("workloads", "end_to_end", "per_layer")
        for entry in spec[group]
    ]
    assert len(names) == len(set(names))
    assert all(harness.NAME_RE.match(name) for name in names)
    assert all(
        len(w["why"]) <= 200 and "\n" not in w["why"]
        for w in spec["workloads"]
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_gate_rejects_a_wrong_verdict_and_a_bad_witness():
    request = next(  # cycle(4) -> K3: a yes
        r for r in inputs.edge_hot_instances(1)
        if r.label == "cycle-k3" and len(r.source.universe) == 4
    )
    assert gate.expected_verdict(request)
    with pytest.raises(harness.CorrectnessError):
        gate.check_answer(request, False, None, True)
    constant = {element: 0 for element in request.source.universe}
    with pytest.raises(harness.CorrectnessError):
        gate.check_answer(request, True, constant, True)


def run_benchmark(workload: str, trace: int):
    return subprocess.run(
        [
            sys.executable, RUN, "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace),
        ],
        cwd=harness.ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_passes_the_gate(workload, trace):
    done = run_benchmark(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    group = spec["per_layer" if trace else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in group}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(harness.NAME_RE.match(name) for name in result["metrics"])


@pytest.fixture
def bare_checkout():
    """A directory holding only BENCHMARK.json and the benchmark."""
    harness.WORK.mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.WORK))
    try:
        shutil.copy(harness.BENCHMARK_JSON, root / "BENCHMARK.json")
        shutil.copytree(
            harness.ROOT / "perfbench",
            root / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_without_the_program_it_fails_and_prints_no_result(bare_checkout):
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "edge-hot",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=bare_checkout,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
