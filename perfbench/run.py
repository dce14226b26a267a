"""The repo benchmark: one seeded workload, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload edge-hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
table.  The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Any answer that
disagrees with the correctness gate aborts the run with exit code 1 and
no result line.  See ``perfbench/README.md`` for the workloads, the
metrics and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

import harness

WORKLOADS = ("edge-hot", "solve-cold")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_layer_metrics(measured: dict[str, float]) -> dict[str, float]:
    """Every declared per-layer metric; 0 for a layer the workload does
    not cross (listed in the report as ``not_crossed``)."""
    spec = json.loads(harness.BENCHMARK_JSON.read_text())
    return {
        entry["name"]: measured.get(entry["name"], 0.0)
        for entry in spec["per_layer"]
    }


def stop_on_sigterm(signum, _frame) -> None:
    """SIGTERM unwinds like an error, so every ``finally`` that stops a
    process this benchmark started still runs."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    harness.add_source_paths()
    cpu = harness.pin_to_one_cpu()
    module = importlib.import_module(args.workload.replace("-", "_"))
    trace = bool(args.trace)
    try:
        result = module.run(args.seed, args.seconds, trace)
    except harness.CorrectnessError as exc:
        print(f"perfbench: CORRECTNESS MISMATCH: {exc}", file=sys.stderr)
        return 1
    report = dict(
        result["report"], pinned_cpu=cpu, **harness.environment(args.seed)
    )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    harness.print_table("input properties and run facts", report)
    if trace:
        metrics = per_layer_metrics(result["per_layer"])
        report_layers = {
            "not_crossed": sorted(
                name for name in metrics if name not in result["per_layer"]
            ),
            "self_time_ms": {
                layer: round(ms, 3)
                for layer, ms in sorted(result["tracer"].self_time_ms().items())
            },
        }
        report_layers.update(result.get("trace_report", {}))
        harness.print_table("per-layer", metrics)
        harness.print_table("trace facts", report_layers)
        path = harness.WORK / f"trace-{args.workload}-{args.seed}.json"
        result["tracer"].dump(path)
        print(f"  spans written to {path.relative_to(harness.ROOT)}")
    else:
        metrics = result["e2e"]
        harness.print_table("end-to-end", metrics)
    harness.emit(metrics=metrics, trace=trace, tally=result["tally"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
