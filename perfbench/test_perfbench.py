"""Tests of the benchmark itself, on the tiny size of every workload.

They check that every declared metric is reported with its unit, that a
corrupted program output is counted as a failed operation, that exact
counts repeat across traced runs, and that traced self times are
non-negative and add up to their parent span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import perf_cli  # noqa: E402
import perf_layers  # noqa: E402
import perf_serve  # noqa: E402
import perf_trace  # noqa: E402
from perf_common import ROOT, Outcome, Workspace, load_spec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in DECLARED["workloads"]]


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    """One tiny benchmark run; returns its result line."""
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_declared_metrics_have_units_and_directions():
    assert {"setup_s"} <= {metric["name"] for metric in DECLARED["end_to_end"]}
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert metric["unit"] and metric["better"] in ("higher", "lower"), metric
    for metric in DECLARED["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    targets = load_spec()["targets"]
    assert sorted(targets) == sorted(metric["name"] for metric in DECLARED["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_reported(workload):
    result = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in DECLARED["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


def test_traced_sweep_reports_every_layer_and_repeats_exact_counts():
    first = bench("sweep-scalar", trace=1)
    second = bench("sweep-scalar", trace=1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {metric["name"] for metric in DECLARED["per_layer"]}
    for metric in DECLARED["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    exact = ("engine.sim.count", "engine.memo.misses", "diskcache.sim.hits",
             "diskcache.sim.misses", "sweep.cells", "sweep.points", "core.simulate.count")
    for name in exact:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["sweep.cells"]["value"] > 0
    assert first["metrics"]["sweep.point_s"]["value"] > 0  # spans from pool workers


def test_traced_serve_reports_server_and_loadgen_layers():
    result = bench("serve-mix", trace=1)
    assert result["correct"], result
    metrics = result["metrics"]
    assert metrics["serve.server_ms.p50.run"]["value"] > 0  # spans from the server
    assert metrics["loadgen.sent"]["value"] > 0


# ----------------------------------------------------------- correctness gates


def test_corrupted_reproduce_report_is_a_failed_operation():
    spec = load_spec()
    spec["reproduce"] = {**spec["reproduce"], **spec["tiny"]["reproduce"]}
    ws = Workspace()
    try:
        cold = perf_cli.run(perf_cli.reproduce_argv(spec, ws.fresh("cache"), False),
                            ws.env(), ws.root, "cold")
        text = cold.text()
    finally:
        ws.close()
    assert cold.code == 0
    assert perf_cli.reproduce_problems(text, spec) == []
    corrupted = text.replace("Fig. 15", "Fig. 51", 1)
    outcome = Outcome()
    problems = perf_cli.reproduce_problems(corrupted, spec)
    outcome.op(not problems, "; ".join(problems))
    assert problems and "fig15" in problems[0]
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_corrupted_sweep_cell_and_warm_digest_are_failed_operations():
    point = {
        "assignment": {"hmc.pe_frequency_mhz": 625.0},
        "cells": [{"benchmark": "Caps-MN1", "design": "pim-capsnet"}],
    }
    from repro.api.scenario import Scenario
    from repro.core.accelerator import DesignPoint
    from repro.engine.context import SimulationContext

    context = SimulationContext(
        max_workers=1, scenario=Scenario.default().with_set(["hmc.pe_frequency_mhz=625.0"])
    )
    result = context.end_to_end("Caps-MN1", "pim-capsnet")
    baseline = context.end_to_end("Caps-MN1", DesignPoint.BASELINE_GPU)
    point["cells"][0].update(
        time_seconds=result.time_seconds, energy_joules=result.energy_joules,
        baseline_time_seconds=baseline.time_seconds,
        baseline_energy_joules=baseline.energy_joules,
    )
    summary = {"samples": {"0": point}}
    assert perf_cli.check_samples(summary) == []
    point["cells"][0]["energy_joules"] *= 1.0 + 1e-12
    assert perf_cli.check_samples(summary)
    cold = {"kind": "cold", "same": True, "simulations": 5, "misses": 5}
    warm = {"kind": "warm", "same": True, "simulations": 0, "misses": 0}
    reference = {"digest": "a", "runs": [cold, warm]}
    assert perf_cli.run_problem(cold, reference, reference) == ""
    assert perf_cli.run_problem(warm, reference, reference) == ""
    assert perf_cli.run_problem(warm, {"digest": "b"}, reference)
    assert perf_cli.run_problem({**warm, "same": False}, reference, reference)
    assert perf_cli.run_problem({**warm, "simulations": 1}, reference, reference)
    assert perf_cli.run_problem({**cold, "simulations": 4}, reference, reference)


def test_corrupted_serve_report_is_detected():
    from repro.api.scenario import Scenario
    from repro.api.session import Session

    overrides = ["hmc.pe_frequency_mhz=625"]
    report = Session(Scenario.default().with_set(overrides)).report(perf_serve.RUN_EXPERIMENTS)
    bodies = {"r1": {"set": overrides}}
    good = [{"id": "r1", "body": json.dumps({"report": report})}]
    bad = [{"id": "r1", "body": json.dumps({"report": report.replace("1", "7", 1)})}]
    assert perf_serve.check_reports(good, bodies, 4) == []
    assert perf_serve.check_reports(bad, bodies, 4)


# --------------------------------------------------------------------- tracing


def test_self_times_are_non_negative_and_sum_to_the_parent(tmp_path):
    tracer = perf_trace.Tracer(str(tmp_path))
    outer = tracer.begin("outer")
    time.sleep(0.002)
    for _ in range(3):
        inner = tracer.begin("inner")
        time.sleep(0.003)
        tracer.count("leaf", 0.001)
        tracer.end(inner)
    tracer.end(outer)
    spans, counters = perf_layers.load(tmp_path)
    own = perf_layers.self_times(spans)
    assert counters["leaf.count"] == 3
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    (parent,) = by_name["outer"]
    children = by_name["inner"]
    assert all(own[span["id"]] >= 0 for span in spans)
    assert all(child["parent"] == parent["id"] for child in children)
    duration = parent["end"] - parent["start"]
    total = own[parent["id"]] + sum(child["end"] - child["start"] for child in children)
    assert total == pytest.approx(duration, abs=1e-9)
    for child in children:
        assert own[child["id"]] == pytest.approx(child["end"] - child["start"] - 0.001)


def test_pool_thread_spans_nest_under_the_submitting_span(tmp_path):
    from concurrent.futures import ThreadPoolExecutor

    tracer = perf_trace.Tracer(str(tmp_path))
    outer = tracer.begin("outer")

    def work():
        inner = tracer.begin("inner")
        time.sleep(0.002)
        tracer.end(inner)

    with ThreadPoolExecutor(max_workers=2) as pool:
        for future in [pool.submit(tracer.carried(work)) for _ in range(4)]:
            future.result()
    assert not list(tmp_path.glob("spans-*"))  # only a main-thread root flushes
    tracer.end(outer)
    spans, _ = perf_layers.load(tmp_path)
    own = perf_layers.self_times(spans)
    (parent,) = [span for span in spans if span["name"] == "outer"]
    children = [span for span in spans if span["name"] == "inner"]
    assert len(children) == 4
    assert all(child["parent"] == parent["id"] for child in children)
    assert 0 <= own[parent["id"]] < parent["end"] - parent["start"]


def test_traced_training_steps_repeat_exactly(tmp_path):
    """A few Table-5-style training steps, traced twice in fresh processes."""
    script = (
        "import sys, os, numpy as np\n"
        f"sys.path.insert(0, {str(BENCH_DIR)!r})\n"
        "import perf_trace\n"
        "tracer = perf_trace.install(sys.argv[1])\n"
        "from repro.capsnet.model import CapsNet, CapsNetConfig\n"
        "from repro.capsnet.training import Trainer\n"
        "config = CapsNetConfig(input_shape=(1, 20, 20), num_classes=3, conv_channels=4,\n"
        "    conv_kernel=5, conv_stride=1, primary_channels=2, primary_dim=4,\n"
        "    primary_kernel=5, primary_stride=2, class_caps_dim=4, routing_iterations=2,\n"
        "    use_decoder=False)\n"
        "rng = np.random.default_rng(0)\n"
        "images = rng.random((4, 1, 20, 20), dtype=np.float32)\n"
        "labels = np.eye(3, dtype=np.float32)[[0, 1, 2, 0]]\n"
        "trainer = Trainer(CapsNet(config, seed=1), seed=1, optimizer='adam')\n"
        "for _ in range(3):\n"
        "    trainer.train_step(images, labels)\n"
        "tracer.flush()\n"
    )
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    figures = []
    for run in ("a", "b"):
        out = tmp_path / run
        out.mkdir()
        completed = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr[-2000:]
        spans, counters = perf_layers.load(out)
        own = perf_layers.self_times(spans)
        assert all(value >= -1e-9 for value in own.values())
        figures.append(perf_layers.compute(spans, counters, []))
    assert figures[0]["capsnet.train_step.count"] == figures[1]["capsnet.train_step.count"] == 3
    for name in ("capsnet.conv.fwd_s", "capsnet.primary.bwd_s", "capsnet.caps.fwd_s",
                 "capsnet.routing_s", "capsnet.im2col_s", "capsnet.col2im_s"):
        assert figures[0][name] > 0, name
    assert figures[0]["capsnet.conv.gflops"] > 0
