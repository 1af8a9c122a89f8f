"""Program entry point used by the benchmark for every measured process.

Two forms::

    python perfbench/perf_program.py <repro CLI arguments...>
    python perfbench/perf_program.py --sweep SPEC.json OUT.json cold|warm DIR SECONDS [POINT ...]

The first calls ``repro.cli.main`` with the arguments.  The second runs
:class:`repro.sweep.SweepRunner` over the spec (auto executor, default jobs)
again and again for ``SECONDS`` (at least once), each time with a new runner,
and times ``run()`` alone.  ``cold`` makes cycles of a run on a fresh cache
directory ``DIR/<n>`` followed by a run on the cache it filled; ``warm``
re-runs on the filled cache ``DIR`` after an untimed ``warmup`` run.
``OUT.json`` gets every run's time and execution counters and whether its
result equals the process's first one, a digest of that first result, the
cells of the listed grid points and the last cache directory, for the
benchmark's correctness gates.

When ``PERFBENCH_TRACE_DIR`` is set, the span wrappers of ``perf_trace`` are
installed first, so this process, its forked sweep workers and the serve
request threads all record spans into that directory.
"""

from __future__ import annotations

import atexit
import gc
import hashlib
import json
import os
import shutil
import sys
import time


def _sweep(spec_path: str, out_path: str, mode: str, directory: str, seconds: float,
           points: list) -> int:
    from repro.engine.serialize import to_jsonable
    from repro.sweep import SweepRunner, SweepSpec

    spec = SweepSpec.load(spec_path)
    first = None
    summary: dict = {"runs": []}

    def timed(kind: str, cache_dir: str) -> None:
        # The first result is kept as text, which the garbage collector
        # does not traverse, and the previous run's objects are collected
        # before the clock starts: each run starts from a heap like a new
        # process's.
        nonlocal first
        gc.collect()
        runner = SweepRunner(spec, cache_dir=cache_dir)
        start = time.perf_counter()
        result = runner.run()
        run_s = time.perf_counter() - start
        structured = result.to_dict()
        text = repr(structured)
        if first is None:
            first = text
            payload = to_jsonable(structured)
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            summary.update(
                executor=result.executor_used,
                jobs=result.jobs,
                points=len(result.points),
                cells=sum(len(point.cells) for point in result.points),
                digest=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
                samples={str(index): payload["points"][index] for index in points},
            )
        summary["runs"].append({
            "kind": kind,
            "run_s": run_s,
            "simulations": result.simulations_executed,
            "hits": result.cache.hits,
            "misses": result.cache.misses,
            "same": text == first,
        })
        summary["cache"] = cache_dir

    started = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - started < seconds:
        if mode == "cold":
            if cycle:  # only the last filled cache is kept
                shutil.rmtree(summary["cache"])
            cache_dir = os.path.join(directory, str(cycle))
            timed("cold", cache_dir)
            timed("warm", cache_dir)
        else:
            if not cycle:  # pays the process's one-time costs, like a cycle's cold run
                timed("warmup", directory)
            timed("warm", directory)
        cycle += 1
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle)
    return 0


def main(argv: list) -> int:
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir:
        import perf_trace  # this script's directory leads sys.path

        tracer = perf_trace.install(trace_dir)
        atexit.register(tracer.flush)
    if argv and argv[0] == "--sweep":
        spec_path, out_path, mode, directory, seconds, *points = argv[1:]
        return _sweep(spec_path, out_path, mode, directory, float(seconds),
                      [int(point) for point in points])
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
