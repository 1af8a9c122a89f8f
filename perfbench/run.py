"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload reproduce|sweep-scalar|sweep-vector|serve-mix \\
        --seed N --seconds S --trace 0|1 [--size full|tiny]

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` runs the workload once untraced and once through
the span wrappers of ``perf_trace.py`` and reports the per-layer metrics,
the tracing overhead, and writes a Chrome trace to
``.perfbench/traces/<workload>-seed<N>.json`` (``-tiny`` before ``.json`` at
the tiny size).  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
what the result was measured on.  ``--size tiny`` shrinks every workload for
the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
from pathlib import Path

from perf_common import ROOT, SRC, Outcome, Workspace, load_spec, provenance, stop_all
import perf_cli
import perf_layers
import perf_serve

WORKLOADS = ("reproduce", "sweep-scalar", "sweep-vector", "serve-mix")


def benchmark_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def sized_spec(size: str) -> dict:
    spec = load_spec()
    if size == "tiny":
        for workload, overrides in spec["tiny"].items():
            spec[workload] = {**spec[workload], **overrides}
    return spec


def measure(workload: str, ws: Workspace, spec: dict, seed: int, seconds: float,
            outcome: Outcome) -> None:
    if workload == "reproduce":
        perf_cli.run_reproduce(ws, spec, outcome)
    elif workload == "serve-mix":
        perf_serve.run_serve(ws, spec, seed, outcome)
    else:
        perf_cli.run_sweep(workload, ws, spec, seed, seconds, outcome)


def trace(workload: str, ws: Workspace, spec: dict, seed: int, outcome: Outcome,
          trace_out: Path) -> dict:
    """The traced run: per-layer figures plus the tracing overhead."""
    trace_dir = ws.fresh("trace")
    client: list = []
    extra: dict = {}
    if workload == "reproduce":
        extra = perf_cli.trace_reproduce(ws, spec, trace_dir, outcome)
    elif workload == "serve-mix":
        plain = perf_serve.serve_session(ws, spec, seed, outcome, only_light=True)
        traced = perf_serve.serve_session(ws, spec, seed, outcome, traced=trace_dir)
        client = traced.get("results", [])
        if "p50_ms.light" in plain and "p50_ms.light" in traced:
            untraced = plain["p50_ms.light"]
            extra["trace.overhead_pct"] = 100.0 * (traced["p50_ms.light"] - untraced) / untraced
        served = traced.get("served", [])
        extra["serve.coalesced"] = sum(m.get("runs", {}).get("coalesced", 0) for m in served)
        degradation = [m.get("degradation", {}) for m in served]
        extra["serve.rejected"] = sum(d.get("requests_rejected_overload", 0) for d in degradation)
        extra["serve.timeouts"] = sum(d.get("requests_timed_out", 0) for d in degradation)
    else:
        extra = perf_cli.trace_sweep(workload, ws, spec, seed, trace_dir, outcome)
    spans, counters = perf_layers.load(trace_dir)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    trace_out.write_text(json.dumps(perf_layers.chrome_trace(spans)), encoding="utf-8")
    figures = perf_layers.compute(spans, counters, client)
    figures.update(extra)
    return figures


def source_digest() -> str:
    """Digest of the program's sources (the checkout need not be a git tree)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the correctness gates call the library
    # A terminated run still stops its children and removes its workspace.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = sized_spec(args.size)
    declared = benchmark_metrics()
    outcome = Outcome()
    ws = Workspace()
    try:
        if args.trace:
            suffix = "" if args.size == "full" else f"-{args.size}"
            name = f"{args.workload}-seed{args.seed}{suffix}.json"
            trace_out = ROOT / ".perfbench" / "traces" / name
            figures = trace(args.workload, ws, spec, args.seed, outcome, trace_out)
            for metric in declared["per_layer"]:
                outcome.metric(metric["name"], figures.get(metric["name"], 0.0), metric["unit"])
        else:
            measure(args.workload, ws, spec, args.seed, args.seconds, outcome)
            for metric in declared["end_to_end"]:
                if metric["name"] not in outcome.metrics:
                    outcome.op(False, f"metric {metric['name']} was not measured")
                    outcome.metric(metric["name"], 0.0, metric["unit"])
    finally:
        stop_all()
        ws.close()
    from repro.engine.context import default_worker_count

    record = provenance(args.seed, args.workload, bool(args.trace))
    record.update(jobs=default_worker_count(), source_sha256=source_digest(), size=args.size)
    print("provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps(outcome.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
