"""The command-line workloads: ``reproduce``, ``sweep-scalar``, ``sweep-vector``.

Each run measures set-up (spawn until ``import repro.cli`` returns), cold
runs on a fresh cache directory, warm re-runs on the cache a cold run
filled, and rounds of ``nproc`` warm runs at once (each on a processor of
its own), taking turns so that every kind of sample is spread over the
run.  The warm runs alone are the ``light`` latency sample; the concurrent
ones are the ``heavy`` sample and give ``max_rps``, warm operations
completed per second with every core busy.  Every output passes a
correctness gate; a mismatch counts as a failed operation and the run goes
on.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import time
from pathlib import Path
from typing import Dict, List, Optional

from perf_common import BENCH_DIR, CPUS, PYTHON, ROOT, Outcome, Proc, Workspace, median, percentile, reap, run, spawn

PROGRAM = str(BENCH_DIR / "perf_program.py")
_SECTION = re.compile(r"^={78}\n(\w+)\n={78}\n", re.M)


def measure_setup(ws: Workspace, outcome: Outcome, count: int) -> List[Proc]:
    """``count`` cold starts of ``python -c 'import repro.cli'``."""
    procs = []
    for index in range(count):
        proc = run([PYTHON, "-c", "import repro.cli"], ws.env(), ws.root, f"setup-{index}")
        outcome.proc(proc, "import repro.cli")
        procs.append(proc)
    return procs


def report_latencies(outcome: Outcome, light: List[float], heavy: List[float], rps: float) -> None:
    outcome.metric("p50_ms.light", 1e3 * median(light), "ms")
    outcome.metric("p95_ms.light", 1e3 * percentile(light, 95), "ms")
    outcome.metric("p50_ms.heavy", 1e3 * median(heavy), "ms")
    outcome.metric("p95_ms.heavy", 1e3 * percentile(heavy, 95), "ms")
    outcome.metric("max_rps", rps, "1/s")


# ------------------------------------------------------------------ reproduce


def split_sections(text: str) -> Dict[str, str]:
    """The combined ``reproduce`` report cut into its experiment sections."""
    marks = list(_SECTION.finditer(text))
    sections = {}
    for index, mark in enumerate(marks):
        last = index + 1 == len(marks)
        end = len(text) if last else marks[index + 1].start()
        body = text[mark.end() : end]
        sections[mark.group(1)] = body[:-1] if last else body[:-2]
    return sections


def reproduce_problems(text: str, spec: dict) -> List[str]:
    """Why a cold ``reproduce`` report is wrong (empty when it is right)."""
    sections = split_sections(text)
    problems = []
    expected = spec["reproduce"]["only"] or list(spec["golden_reports"]) + ["table5"]
    if sorted(sections) != sorted(expected):
        problems.append(f"sections {sorted(sections)} != {sorted(expected)}")
    for name, filename in spec["golden_reports"].items():
        if name not in expected:
            continue
        golden = (ROOT / "benchmarks" / "reports" / filename).read_text(encoding="utf-8")
        if sections.get(name, "") + "\n" != golden:
            problems.append(f"{name} differs from benchmarks/reports/{filename}")
    digest = hashlib.sha256(sections.get("table5", "").encode("utf-8")).hexdigest()
    if "table5" in expected and digest != spec["table5_sha256"]:
        problems.append(f"table5 section digest {digest} != pinned {spec['table5_sha256']}")
    return problems


def reproduce_argv(spec: dict, cache: Path, traced: bool) -> List[str]:
    head = [PYTHON, PROGRAM] if traced else [PYTHON, "-m", "repro"]
    only = spec["reproduce"]["only"]
    return head + ["reproduce", "--cache-dir", str(cache)] + (["--only", *only] if only else [])


def run_reproduce(ws: Workspace, spec: dict, outcome: Outcome) -> None:
    """Cold then warm ``repro reproduce`` on a fresh cache (fixed paper inputs).

    One cold run already takes longer than a benchmark run's ``--seconds``,
    so the run makes a fixed number of operations: the cold run, then
    ``rounds`` of one warm run followed by ``nproc`` warm runs at once.
    """
    size = spec["reproduce"]
    procs = measure_setup(ws, outcome, size["setup_runs"])
    outcome.metric("setup_s", median([p.wall_s for p in procs]), "s")
    cache = ws.fresh("cache")
    cold = run(reproduce_argv(spec, cache, False), ws.env(), ws.root, "cold")
    procs.append(cold)
    if outcome.proc(cold, "cold reproduce"):
        problems = reproduce_problems(cold.text(), spec)
        outcome.op(not problems, "; ".join(problems))
    expected = cold.text()
    light: List[float] = []
    heavy: List[float] = []
    rates: List[float] = []
    for index in range(size["rounds"]):
        warm = run(reproduce_argv(spec, cache, False), ws.env(), ws.root, f"warm-{index}")
        procs.append(warm)
        if outcome.proc(warm, "warm reproduce"):
            outcome.op(warm.text() == expected, "warm reproduce stdout differs from cold")
        light.append(warm.wall_s)
        round_start = time.perf_counter()
        batch = reap([
            spawn(reproduce_argv(spec, cache, False), ws.env(), ws.root, f"heavy-{index}-{cpu}", [cpu])
            for cpu in CPUS
        ])
        rates.append(len(batch) / (time.perf_counter() - round_start))
        for proc in batch:
            procs.append(proc)
            if outcome.proc(proc, "concurrent warm reproduce"):
                outcome.op(proc.text() == expected, "concurrent warm stdout differs from cold")
            heavy.append(proc.wall_s)
    outcome.metric("cold_s", cold.wall_s, "s")
    outcome.metric("warm_s", median(light), "s")
    outcome.metric("peak_rss_mb", max(p.rss_mb for p in procs), "MB")
    report_latencies(outcome, light, heavy, median(rates))


def trace_reproduce(ws: Workspace, spec: dict, trace_dir: Path, outcome: Outcome) -> Dict[str, float]:
    """Untraced cold run, then traced cold and warm runs (for the layers)."""
    plain = run(reproduce_argv(spec, ws.fresh("cache"), False), ws.env(), ws.root, "plain-cold")
    outcome.proc(plain, "untraced cold reproduce")
    cache = ws.fresh("cache")
    cold = run(reproduce_argv(spec, cache, True), ws.env(trace_dir), ws.root, "traced-cold")
    if outcome.proc(cold, "traced cold reproduce"):
        problems = reproduce_problems(cold.text(), spec)
        outcome.op(not problems, "; ".join(problems))
    warm = run(reproduce_argv(spec, cache, True), ws.env(trace_dir), ws.root, "traced-warm")
    if outcome.proc(warm, "traced warm reproduce"):
        outcome.op(warm.text() == cold.text(), "traced warm stdout differs from cold")
    return {"trace.overhead_pct": 100.0 * (cold.wall_s - plain.wall_s) / plain.wall_s}


# --------------------------------------------------------------------- sweeps


def sweep_spec(kind: str, seed: int, size: dict) -> dict:
    """The seed-drawn sweep grid of one sweep workload (always valid values)."""
    rng = random.Random(f"{kind}:{seed}")
    if kind == "sweep-scalar":
        pes = sorted(rng.sample(range(2, 65), size["pes_values"]))
        bandwidth = sorted(rng.sample(range(128, 2049, 8), size["bandwidth_values"]))
        axes = [
            {"key": "hmc.pes_per_vault", "values": pes},
            {"key": "hmc.internal_bandwidth_gbs", "values": [float(b) for b in bandwidth]},
        ]
    else:
        # 0.1 MHz steps between 50 MHz and 2.5 GHz: distinct under the
        # sweep's six-significant-digit value labels.
        tenths = sorted(rng.sample(range(500, 25_001), size["frequency_values"]))
        axes = [{"key": "hmc.pe_frequency_mhz", "values": [t / 10.0 for t in tenths]}]
    return {
        "name": kind,
        "axes": axes,
        "benchmarks": size.get("benchmarks"),
        "designs": ["all-in-pim", "rmas-pim", "rmas-gpu", "pim-capsnet"],
        "kind": "end-to-end",
    }


def sweep_argv(spec_path: Path, out: Path, mode: str, directory: Path, seconds: float,
               points: List[int]) -> List[str]:
    return [PYTHON, PROGRAM, "--sweep", str(spec_path), str(out), mode, str(directory),
            repr(seconds)] + [str(point) for point in points]


def _summary(proc: Proc, out: Path) -> Optional[dict]:
    if proc.code != 0 or not out.exists():
        return None
    return json.loads(out.read_text(encoding="utf-8"))


def check_samples(summary: dict) -> List[str]:
    """Re-simulate the sampled cells through ``SimulationContext.end_to_end``."""
    from repro.api.scenario import Scenario
    from repro.core.accelerator import DesignPoint
    from repro.engine.context import SimulationContext

    problems = []
    for index, point in summary["samples"].items():
        overrides = [f"{key}={value!r}" for key, value in point["assignment"].items()]
        context = SimulationContext(max_workers=1, scenario=Scenario.default().with_set(overrides))
        for cell in point["cells"]:
            result = context.end_to_end(cell["benchmark"], cell["design"])
            baseline = context.end_to_end(cell["benchmark"], DesignPoint.BASELINE_GPU)
            got = (cell["time_seconds"], cell["energy_joules"],
                   cell["baseline_time_seconds"], cell["baseline_energy_joules"])
            want = (result.time_seconds, result.energy_joules,
                    baseline.time_seconds, baseline.energy_joules)
            if got != want:
                problems.append(f"point {index} {cell['benchmark']}/{cell['design']}: {got} != {want}")
    return problems


def run_problem(run: dict, summary: dict, reference: dict) -> str:
    """Why one timed sweep run is wrong (empty when it is right).

    Every run must give the result of the first run of its process, and that
    result must digest like the reference (the first cold run).  A warm run
    executes nothing and misses nothing; a cold run executes as many
    simulations as the reference did.
    """
    if not run["same"] or summary["digest"] != reference["digest"]:
        return f"{run['kind']} sweep result differs from the first cold run"
    if run["kind"] != "cold" and (run["simulations"] or run["misses"]):
        return f"warm sweep: {run['simulations']} simulations, {run['misses']} misses"
    want = reference["runs"][0]["simulations"]
    if run["kind"] == "cold" and run["simulations"] != want:
        return f"cold sweep: {run['simulations']} simulations, the first had {want}"
    return ""


def _gate(outcome: Outcome, summary: dict, reference: dict) -> List[dict]:
    for item in summary["runs"]:
        problem = run_problem(item, summary, reference)
        outcome.op(not problem, problem)
    return summary["runs"]


def run_sweep(kind: str, ws: Workspace, spec: dict, seed: int, seconds: float,
              outcome: Outcome) -> None:
    """Rounds of cold/warm cycles and concurrent warm runs, for ``seconds``.

    Each of the ``rounds`` rounds runs one program process for its share of
    ``seconds``, making cycles of a ``SweepRunner`` run on a fresh cache
    directory and a run on the cache it filled, then ``nproc`` processes
    that re-run at once on the last filled cache for ``heavy_seconds``
    after one untimed run each.
    """
    size = spec[kind]
    procs = measure_setup(ws, outcome, size["setup_runs"])
    outcome.metric("setup_s", median([p.wall_s for p in procs]), "s")
    grid = sweep_spec(kind, seed, size)
    spec_path = ws.root / f"{kind}.json"
    spec_path.write_text(json.dumps(grid), encoding="utf-8")
    points = 1
    for axis in grid["axes"]:
        points *= len(axis["values"])
    samples = sorted(random.Random(f"samples:{seed}").sample(range(points), size["sampled_points"]))
    runs: List[dict] = []
    heavy: List[float] = []
    rates: List[float] = []
    reference = None
    for index in range(size["rounds"]):
        out = ws.root / f"cycles-{index}.json"
        argv = sweep_argv(spec_path, out, "cold", ws.fresh("caches"),
                          seconds / size["rounds"], samples)
        proc = run(argv, ws.env(), ws.root, f"cycles-{index}")
        procs.append(proc)
        summary = _summary(proc, out) if outcome.proc(proc, "cold/warm sweeps") else None
        if summary is None:
            continue
        if reference is None:
            reference = summary
            problems = check_samples(summary)
            outcome.op(not problems, "; ".join(problems[:3]))
        runs += _gate(outcome, summary, reference)
        cache = Path(summary["cache"])
        outs = [ws.root / f"heavy-{index}-{cpu}.json" for cpu in CPUS]
        batch = reap([
            spawn(sweep_argv(spec_path, out, "warm", cache, size["heavy_seconds"], []),
                  ws.env(), ws.root, out.stem, [cpu])
            for out, cpu in zip(outs, CPUS)
        ])
        rate = 0.0
        for proc, out in zip(batch, outs):
            procs.append(proc)
            summary = _summary(proc, out) if outcome.proc(proc, "concurrent warm sweeps") else None
            if summary is not None:
                times = [item["run_s"] for item in _gate(outcome, summary, reference)
                         if item["kind"] == "warm"]
                heavy += times
                rate += len(times) / sum(times)
        rates.append(rate)
    cold_s = [item["run_s"] for item in runs if item["kind"] == "cold"]
    light = [item["run_s"] for item in runs if item["kind"] == "warm"]
    if not (cold_s and heavy):
        return
    outcome.metric("cold_s", median(cold_s), "s")
    outcome.metric("warm_s", median(light), "s")
    outcome.metric("peak_rss_mb", max(p.rss_mb for p in procs), "MB")
    report_latencies(outcome, light, heavy, median(rates))


def trace_sweep(kind: str, ws: Workspace, spec: dict, seed: int, trace_dir: Path,
                outcome: Outcome) -> Dict[str, float]:
    """An untraced cold/warm cycle, then a traced one (for the layers)."""
    grid = sweep_spec(kind, seed, spec[kind])
    spec_path = ws.root / f"{kind}.json"
    spec_path.write_text(json.dumps(grid), encoding="utf-8")
    summaries = []
    for label, env in (("plain", ws.env()), ("traced", ws.env(trace_dir))):
        out = ws.root / f"{label}.json"
        proc = run(sweep_argv(spec_path, out, "cold", ws.fresh("caches"), 0.0, []), env,
                   ws.root, label)
        summary = _summary(proc, out) if outcome.proc(proc, f"{label} cold/warm sweep") else None
        if summary is not None:
            _gate(outcome, summary, summaries[0] if summaries else summary)
            summaries.append(summary)
    if len(summaries) < 2:
        return {}
    plain, traced = (summary["runs"][0]["run_s"] for summary in summaries)
    return {"trace.overhead_pct": 100.0 * (traced - plain) / plain}
