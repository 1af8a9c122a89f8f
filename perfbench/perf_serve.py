"""The ``serve-mix`` workload: ``repro serve`` under a closed-loop traffic mix.

One run is several rounds.  Each round starts the server on a fresh cache
(set-up is spawn until the first ``/healthz`` 200) and drives it through
``slices`` repetitions of four phases before stopping it:

1. ``cold``: one connection runs pool scenarios the server has not seen,
   one ``POST /v1/run`` at a time; each latency is a ``cold_s`` sample;
2. ``warm``: one connection re-runs the hot pool scenarios (session LRU
   hits); the pass time is a ``warm_s`` sample;
3. ``light``: one connection sends a seeded request sequence back to back;
4. ``heavy``: ``nproc`` connections do the same with another sequence, so
   the server is saturated; its completions per second give ``max_rps``.

Every phase of a round runs in one ``perf_loadgen.py`` process.  Each
sequence has fixed shares of request kinds in a seeded order: mostly
``/v1/run`` of fig15-17, on hot pool scenarios drawn Zipf-skewed (session
LRU hits) or on a fresh scenario (a miss), some small ``/v1/sweep``
requests on a scalar or a frequency axis, and rare ``/v1/optimize``
searches with the halving driver.  A closed loop rather than fixed arrival
rates keeps the figures steady on a small shared machine: every percentile
comes from hundreds of samples, and no phase sits on the knee of the
latency curve.  Short phases taking turns spread every kind of sample over
the whole run, so a passing slowdown of a shared machine moves all of them
a little rather than one of them a lot.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perf_common import BENCH_DIR, CPUS, PYTHON, Outcome, Proc, Workspace, median, percentile, reap, spawn

PROGRAM = str(BENCH_DIR / "perf_program.py")
LOADGEN = str(BENCH_DIR / "perf_loadgen.py")
RUN_EXPERIMENTS = ["fig15", "fig16", "fig17"]
BENCHMARK_NAMES = [
    "Caps-MN1", "Caps-MN2", "Caps-MN3", "Caps-CF1", "Caps-CF2", "Caps-CF3",
    "Caps-EN1", "Caps-EN2", "Caps-EN3", "Caps-SV1", "Caps-SV2", "Caps-SV3",
]


# ------------------------------------------------------------------- traffic


class Traffic:
    """The seeded scenario pool and request sequences of one run."""

    def __init__(self, seed: int, size: dict) -> None:
        self.rng = random.Random(f"serve-mix:{seed}")
        self.size = size
        pairs = set()
        while len(pairs) < size["pool"]:
            pairs.add(self._pair())
        self.pool = [self._overrides(pair) for pair in sorted(pairs, key=lambda p: self.rng.random())]
        self.seen = pairs
        self.hot = self.pool[: size["hot"]]
        self.weights = [1.0 / (rank + 1) ** size["zipf_s"] for rank in range(len(self.hot))]
        self.count = 0

    def _pair(self) -> Tuple[int, int]:
        return self.rng.randrange(100, 2001, 5), self.rng.choice([4, 8, 12, 16, 24, 32])

    @staticmethod
    def _overrides(pair: Tuple[int, int]) -> List[str]:
        return [f"hmc.pe_frequency_mhz={pair[0]}", f"hmc.pes_per_vault={pair[1]}"]

    def fresh(self) -> List[str]:
        """A scenario no earlier request of this run has used."""
        pair = self._pair()
        while pair in self.seen:
            pair = self._pair()
        self.seen.add(pair)
        return self._overrides(pair)

    def run_body(self, overrides: List[str]) -> dict:
        return {"experiments": RUN_EXPERIMENTS, "set": overrides}

    def request(self, kind: str) -> dict:
        self.count += 1
        if kind == "optimize":
            path = "/v1/optimize"
            body = {
                "objective": "fig17.average_speedup",
                "axes": {"hmc.pe_frequency_mhz": sorted(self.rng.sample(range(100, 2001, 25), 9))},
                "driver": "halving",
                "benchmarks": self.rng.sample(BENCHMARK_NAMES, 1),
            }
        elif kind == "sweep":
            path = "/v1/sweep"
            # Alternating axis kinds keep every sequence's sweeps alike in cost.
            if self.count % 2:
                axes = {"hmc.pe_frequency_mhz": sorted(self.rng.sample(range(100, 2001, 25), 3))}
            else:
                axes = {"hmc.pes_per_vault": sorted(self.rng.sample(range(2, 65), 3))}
            body = {"axes": axes, "benchmarks": self.rng.sample(BENCHMARK_NAMES, 2)}
        else:
            path = "/v1/run"
            overrides = self.fresh() if kind == "fresh" else self.rng.choices(
                self.hot, weights=self.weights)[0]
            body = self.run_body(overrides)
        return {
            "id": f"r{self.count}",
            "kind": "run" if kind in ("hot", "fresh") else kind,
            "method": "POST",
            "path": path,
            "body": body,
            "keep": path == "/v1/run" and self.rng.random() < self.size["keep_fraction"],
        }

    def sequence(self, count: int) -> List[dict]:
        """``count`` requests: fixed shares of every kind, in a seeded order."""
        mix = self.size["mix"]
        deck = ["optimize"] * round(count * mix["optimize"]) + ["sweep"] * round(count * mix["sweep"])
        runs = count - len(deck)
        fresh = round(runs * self.size["fresh_share"])
        deck += ["fresh"] * fresh + ["hot"] * (runs - fresh)
        self.rng.shuffle(deck)
        return [self.request(kind) for kind in deck]

    def _runs(self, kind: str, scenarios: List[List[str]]) -> List[dict]:
        """One ``/v1/run`` per scenario, each reply kept for the checks."""
        requests = []
        for overrides in scenarios:
            self.count += 1
            requests.append({"id": f"r{self.count}", "kind": kind, "method": "POST",
                             "path": "/v1/run", "body": self.run_body(overrides), "keep": True})
        return requests

    def load_round(self, index: int, connections: int, only_light: bool = False) -> List[dict]:
        """The phases of one round: ``slices`` times cold, warm, light, heavy.

        The first cold pass runs the hot scenarios, coldest first so that
        the session LRU ends up holding the hottest; the later ones run the
        rest of the pool.  The warm passes re-run the hot scenarios
        ``warm_repeats`` times each.  A round's light and heavy sequences
        are drawn whole and then cut into slices, so the shares of rare
        kinds hold per round.
        """
        slices = self.size["slices"]
        rest = self.pool[len(self.hot):]
        later = [rest[part::max(slices - 1, 1)] for part in range(max(slices - 1, 1))]
        colds = [list(reversed(self.hot))] + later if slices > 1 else [rest + list(reversed(self.hot))]
        light = self.sequence(slices * self.size["light_requests"])
        heavy = self.sequence(slices * self.size["heavy_requests"])
        phases = []
        for part in range(slices):
            name = f"{index}.{part}"
            phases.append({"name": f"cold-{name}", "kind": "cold", "connections": 1,
                           "requests": self._runs("cold", colds[part])})
            phases.append({"name": f"warm-{name}", "kind": "warm", "connections": 1,
                           "requests": self._runs("warm", self.hot * self.size["warm_repeats"])})
            phases.append({"name": f"light-{name}", "kind": "light", "connections": 1,
                           "requests": light[part::slices]})
            if not only_light:
                phases.append({"name": f"heavy-{name}", "kind": "heavy",
                               "connections": connections, "requests": heavy[part::slices]})
        return phases


# -------------------------------------------------------------------- server


def processors() -> Tuple[Optional[List[int]], Optional[List[int]]]:
    """The processors of the server and of the load generator.

    The load generator gets one processor of its own and the server every
    other one.  Left to the scheduler on a 2-vCPU machine, the two share
    both processors and every figure moved by about 30% from one run to
    the next, with the server ~30% slower: its request threads and the load
    generator then compete for the same processors, and the threads
    contend for the interpreter lock across processors.  Returns ``None``
    for both with a single processor.
    """
    if len(CPUS) < 2:
        return None, None
    return CPUS[:-1], CPUS[-1:]


class Server:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, ws: Workspace, traced: Optional[Path], label: str) -> None:
        head = [PYTHON, PROGRAM] if traced is not None else [PYTHON, "-m", "repro"]
        argv = head + ["serve", "--port", "0", "--quiet", "--cache-dir", str(ws.fresh("cache"))]
        self.running = spawn(argv, ws.env(traced), ws.root, label, processors()[0])
        self.url: Optional[str] = None
        self.setup_s: Optional[float] = None
        deadline = time.perf_counter() + 60
        while self.setup_s is None and time.perf_counter() < deadline:
            if self.running.popen.poll() is not None:
                break
            if self.url is None:
                found = re.search(r"listening on (http://\S+)", self.running.stderr.read_text())
                self.url = found.group(1) if found else None
            elif self._healthy():
                self.setup_s = time.perf_counter() - self.running.start
                break
            time.sleep(0.002)
        host, port = (self.url or "http://127.0.0.1:0")[len("http://"):].split(":")
        self.host, self.port = host, int(port)

    def _healthy(self) -> bool:
        try:
            with urllib.request.urlopen(self.url + "/healthz", timeout=5) as response:
                return response.status == 200
        except OSError:
            return False

    def get(self, path: str) -> dict:
        with urllib.request.urlopen(self.url + path, timeout=30) as response:
            return json.loads(response.read())

    def stop(self) -> Proc:
        """SIGTERM (the server drains and exits 0); returns the reaped process."""
        if self.running.popen.poll() is None:
            self.running.popen.send_signal(signal.SIGTERM)
        return reap([self.running])[0]


# ------------------------------------------------------------------- analysis


def latencies(results: List[dict], phase: str, penalty: float) -> List[float]:
    """``/v1/run`` latencies of one phase, plus every failed request.

    Sweeps and optimizations load the server but are not sampled: their own
    times would put the percentiles on the boundary between request kinds.
    A failed or refused request of any kind scores ``penalty``.
    """
    return [
        (r["done"] - r["sent"]) if r["ok"] else penalty
        for r in results
        if r["phase"] == phase and (r["kind"] == "run" or not r["ok"])
    ]


def throughput(results: List[dict], phase: str) -> float:
    """Requests of one phase answered per second of the phase's wall time."""
    step = [r for r in results if r["phase"] == phase]
    wall = max(r["done"] for r in step) - min(r["ready"] for r in step)
    return len(step) / wall


def check_reports(results: List[dict], bodies: Dict[str, dict], limit: int) -> List[str]:
    """Compare kept ``/v1/run`` reports with ``Session(scenario).report``."""
    from repro.api.scenario import Scenario
    from repro.api.session import Session

    problems = []
    for result in [r for r in results if "body" in r][:limit]:
        overrides = bodies[result["id"]]["set"]
        expected = Session(Scenario.default().with_set(overrides)).report(RUN_EXPERIMENTS)
        if json.loads(result["body"]).get("report") != expected:
            problems.append(f"{result['id']}: /v1/run report differs from Session.report")
    return problems


# -------------------------------------------------------------------- session


def _drive(ws: Workspace, server: Server, phases: List[dict], timeout_s: float,
           outcome: Outcome) -> List[dict]:
    """Run ``phases`` through one load generator process; its results."""
    plan_path, results_path = ws.root / "plan.json", ws.root / "results.json"
    plan = {"host": server.host, "port": server.port, "timeout_s": timeout_s, "phases": phases}
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    loadgen = reap([spawn([PYTHON, LOADGEN, str(plan_path), str(results_path)],
                          ws.env(), ws.root, "loadgen", processors()[1])])[0]
    if not outcome.proc(loadgen, "load generator"):
        return []
    results = json.loads(results_path.read_text(encoding="utf-8"))
    for result in results:
        outcome.op(result["ok"], f"{result['kind']} {result['id']} answered {result['status']}")
    return results


def serve_session(ws: Workspace, spec: dict, seed: int, outcome: Outcome,
                  traced: Optional[Path] = None, only_light: bool = False) -> Dict[str, object]:
    """Measure ``rounds`` server lifetimes; returns the measured figures.

    Set-up and ``max_rps`` are medians of per-round and per-slice samples,
    ``cold_s`` the median latency of the cold-pass requests, ``warm_s`` the
    median time of the warm passes, and the latency percentiles pool the
    ``/v1/run`` requests of every light or heavy phase.  ``only_light``
    leaves out the heavy phases (the untraced reference of a traced run).
    """
    size = spec["serve-mix"]
    traffic = Traffic(seed, size)
    connections = os.cpu_count() or 1
    setups, stopped, served = [], [], []
    results: List[dict] = []
    phases: List[dict] = []
    figures: Dict[str, object] = {"served": served, "results": results}
    for index in range(1, size["rounds"] + 1):
        server = Server(ws, traced, f"serve-{index}")
        if not outcome.op(server.setup_s is not None, "serve never answered /healthz"):
            stopped.append(server.stop())
            return figures
        setups.append(server.setup_s)
        load = traffic.load_round(index, connections, only_light)
        phases += load
        done = _drive(ws, server, load, size["timeout_s"], outcome)
        results += done
        bodies = {r["id"]: json.dumps(r["body"]) for phase in load for r in phase["requests"]}
        expected = {bodies[r["id"]]: json.loads(r["body"])["report"]
                    for r in done if r["kind"] == "cold" and "body" in r}
        for result in done:
            if result["kind"] == "warm":
                reference = expected.get(bodies[result["id"]])
                same = reference is not None and "body" in result and (
                    json.loads(result["body"]).get("report") == reference)
                outcome.op(same, "warm /v1/run report differs from the cold one")
        try:
            served.append(server.get("/metrics"))
        except (OSError, ValueError) as error:
            outcome.op(False, f"GET /metrics failed: {error}")
        stopped.append(server.stop())
        outcome.proc(stopped[-1], "serve shutdown")
    bodies = {r["id"]: r["body"] for phase in phases for r in phase["requests"]}
    sampled = [r for r in results if r["kind"] == "run"]
    problems = check_reports(sampled, bodies, size["checked_reports"])
    outcome.op(not problems, "; ".join(problems))
    figures.update(setup_s=median(setups), peak_rss_mb=max(proc.rss_mb for proc in stopped))
    samples: Dict[str, List[float]] = {}
    rates, warms = [], []
    for phase in phases:
        step = [r for r in results if r["phase"] == phase["name"]]
        if not step:
            continue
        if phase["kind"] == "warm":
            warms.append(sum(r["done"] - r["sent"] for r in step))
            continue
        if phase["kind"] == "cold":
            samples.setdefault("cold", []).extend(
                (r["done"] - r["sent"]) if r["ok"] else size["timeout_s"] for r in step)
            continue
        samples.setdefault(phase["kind"], []).extend(
            latencies(step, phase["name"], size["timeout_s"]))
        if phase["kind"] == "heavy":
            rates.append(throughput(step, phase["name"]))
    if warms:
        figures["warm_s"] = median(warms)
    if samples.get("cold"):
        figures["cold_s"] = median(samples.pop("cold"))
    for kind, values in samples.items():
        if values:
            figures[f"p50_ms.{kind}"] = 1e3 * median(values)
            figures[f"p95_ms.{kind}"] = 1e3 * percentile(values, 95)
    if rates:
        figures["max_rps"] = median(rates)
    return figures


def run_serve(ws: Workspace, spec: dict, seed: int, outcome: Outcome) -> None:
    """One untraced session; its phases fix its length."""
    figures = serve_session(ws, spec, seed, outcome)
    for name, unit in (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"), ("peak_rss_mb", "MB"),
                       ("p50_ms.light", "ms"), ("p95_ms.light", "ms"), ("p50_ms.heavy", "ms"),
                       ("p95_ms.heavy", "ms"), ("max_rps", "1/s")):
        if name in figures:
            outcome.metric(name, figures[name], unit)
