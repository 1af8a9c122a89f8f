"""Per-layer figures from the spans and counters of one traced run.

A span's self time is its duration minus the part of it that its child spans
cover (children may run in other threads or processes, so their intervals
are merged first) minus the time of counted leaf calls made directly inside
it.  A layer's total time sums only its outermost spans, so a layer that
calls itself is not counted twice.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

from perf_common import median, percentile

#: Server endpoints whose handler times are reported.
ENDPOINTS = {"POST /v1/run": "run", "POST /v1/sweep": "sweep", "POST /v1/optimize": "optimize"}

_FIELDS = ("id", "parent", "name", "start", "end", "pid", "tid", "rid", "counted")


def load(trace_dir: Path) -> Tuple[List[dict], Dict[str, float]]:
    """Every span of every process, and the counters summed over processes."""
    spans: List[dict] = []
    for path in sorted(trace_dir.glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                spans.append(dict(zip(_FIELDS, json.loads(line))))
    counters: Dict[str, float] = defaultdict(float)
    for path in sorted(trace_dir.glob("counters-*.json")):
        for name, value in json.loads(path.read_text(encoding="utf-8")).items():
            counters[name] += value
    return spans, counters


def covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Span id -> self time."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"] - span["counted"]
        - covered(children.get(span["id"], ()), span["start"], span["end"])
        for span in spans
    }


def outermost(spans: List[dict], by_id: Dict[str, dict]) -> List[dict]:
    """The ``spans`` (all of one name) that have no ancestor of that name."""
    found = []
    for span in spans:
        name = span["name"]
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] != name:
            parent = by_id.get(parent["parent"])
        if parent is None:
            found.append(span)
    return found


def chrome_trace(spans: List[dict]) -> dict:
    """Chrome trace-event JSON (opens in Perfetto or ``chrome://tracing``)."""
    return {
        "traceEvents": [
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {"id": span["id"], "parent": span["parent"], "rid": span["rid"]},
            }
            for span in spans
        ],
        "displayTimeUnit": "ms",
    }


def compute(spans: List[dict], counters: Dict[str, float], client: List[dict]) -> Dict[str, float]:
    """Every per-layer figure the spans and counters support.

    ``client`` holds the load generator's results (empty outside serve-mix):
    queue wait is client latency minus the server's handler span of the same
    request id.
    """
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}
    names = defaultdict(list)
    for span in spans:
        names[span["name"]].append(span)

    def total(name: str) -> float:
        return sum(span["end"] - span["start"] for span in outermost(names[name], by_id))

    def self_total(name: str) -> float:
        return sum(own[span["id"]] for span in names[name])

    def calls(name: str) -> float:
        return float(len(names[name]))

    out: Dict[str, float] = {}
    # capsnet
    out["capsnet.train_step.count"] = calls("capsnet.train_step")
    out["capsnet.train_step.self_s"] = self_total("capsnet.train_step")
    for layer in ("conv", "primary", "caps"):
        for direction in ("fwd", "bwd"):
            out[f"capsnet.{layer}.{direction}_s"] = total(f"capsnet.{layer}.{direction}")
    for kernel in ("routing", "im2col", "col2im", "eval"):
        out[f"capsnet.{kernel}_s"] = total(f"capsnet.{kernel}")
    conv_s = out["capsnet.conv.fwd_s"]
    out["capsnet.conv.gflops"] = counters["capsnet.conv.fwd_flops"] / conv_s / 1e9 if conv_s else 0.0
    # arithmetic
    out["arithmetic.approx.count"] = counters["arithmetic.approx.count"]
    out["arithmetic.approx_s"] = counters["arithmetic.approx_s"]
    # experiments
    for name in sorted(names):
        if name.startswith("experiments."):
            out[f"{name}_s"] = total(name)
    # engine
    out["engine.sim.count"] = counters["engine.sim.count"]
    out["engine.memo.hits"] = counters["engine.memo.hits"]
    out["engine.memo.misses"] = counters["engine.memo.misses"]
    out["engine.deepcopy.count"] = calls("engine.deepcopy")
    out["engine.deepcopy_s"] = total("engine.deepcopy")
    out["engine.simulate.self_s"] = self_total("engine.simulate")
    out["engine.map_s"] = total("engine.map")
    # core
    out["core.simulate.count"] = calls("core.simulate")
    out["core.simulate_s"] = total("core.simulate")
    # engine.diskcache
    for op in ("get", "get_many", "put", "put_many", "flush"):
        out[f"diskcache.sim.{op}.count"] = calls(f"diskcache.sim.{op}")
        out[f"diskcache.sim.{op}_s"] = total(f"diskcache.sim.{op}")
    for name in ("diskcache.sim.hits", "diskcache.sim.misses", "diskcache.digest.count",
                 "diskcache.digest_s", "diskcache.bytes_written", "diskcache.write_errors",
                 "diskcache.corrupt", "diskcache.model.hits", "diskcache.model.misses"):
        out[name] = counters[name]
    out["diskcache.model.get_s"] = total("diskcache.model.get")
    out["diskcache.model.put_s"] = total("diskcache.model.put")
    # sweep
    out["sweep.points"] = counters["sweep.points"]
    out["sweep.cells"] = counters["sweep.cells"]
    out["sweep.point_s"] = sum(span["end"] - span["start"] for span in names["sweep.point"])
    wait = 0.0
    for run in names["sweep.run"]:
        points = [(s["start"], s["end"]) for s in names["sweep.point"] if s["parent"] == run["id"]]
        if points:
            wait += run["end"] - run["start"] - covered(points, run["start"], run["end"])
    out["sweep.pool_wait_s"] = wait
    out["sweep.vector.evaluate_grid.self_s"] = self_total("sweep.vector.evaluate_grid")
    out["sweep.vector.verify.count"] = calls("sweep.vector.verify")
    # optimize
    out["optimize.probes"] = counters["optimize.probes"]
    grid = counters["optimize.grid_points"]
    out["optimize.probe_grid_ratio"] = counters["optimize.probes"] / grid if grid else 0.0
    out["optimize.run_s"] = total("optimize.run")
    # api
    out["api.scenario_build.count"] = calls("api.scenario_build")
    out["api.scenario_build_s"] = total("api.scenario_build")
    # serve
    handler = {}
    for endpoint, label in ENDPOINTS.items():
        spans_of = names[f"serve.request {endpoint}"]
        times = [1e3 * (s["end"] - s["start"]) for s in spans_of]
        out[f"serve.server_ms.p50.{label}"] = median(times) if times else 0.0
        out[f"serve.server_ms.p95.{label}"] = percentile(times, 95) if times else 0.0
        handler.update({s["rid"]: s["end"] - s["start"] for s in spans_of if s["rid"]})
    waits = [
        1e3 * ((r["done"] - r["sent"]) - handler[r["id"]])
        for r in client if r["ok"] and r["id"] in handler
    ]
    out["serve.queue_wait_ms.p95"] = percentile(waits, 95) if waits else 0.0
    lookups = calls("serve.session_for")
    created = counters["serve.session.created.count"]
    out["serve.session.hit_ratio"] = 1.0 - created / lookups if lookups else 0.0
    # loadgen: how long a connection sat idle between a reply and its next send
    lags = [1e3 * (r["sent"] - r["ready"]) for r in client]
    out["loadgen.lag_ms.p95"] = percentile(lags, 95) if lags else 0.0
    out["loadgen.sent"] = float(len(client))
    return out
