"""In-memory span recorder and the wrappers that feed it.

The traced benchmark run starts every program process through
``perf_program.py``, which calls :func:`install` before handing control to
the program.  :func:`install` replaces public functions of the ``repro``
modules with thin wrappers that record one span per call (name, start, end,
parent span, request id) or, for very hot leaf functions, only a call count
and a time total.  Nothing under ``src/`` is edited.

A span's parent is the innermost open span of its thread.  Work handed to a
``ThreadPoolExecutor`` (experiments, ``SimulationContext.map``) takes the
submitting thread's open span as its parent, a new thread (the serve
optimize and timeout workers) the starting thread's, and a forked process
(sweep pool workers) the forking thread's.

Spans live in memory.  A process appends its finished spans to
``spans-<pid>.jsonl`` in the trace directory, and rewrites
``counters-<pid>.json``, when a root span of its main thread ends, when a
forked worker finishes a unit of work (it ends with ``os._exit``), and at
exit (``perf_program.py`` registers :meth:`Tracer.flush` with ``atexit``;
the serve subprocess exits normally after SIGTERM).  The benchmark merges
the files of every pid afterwards.

Timestamps come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux and therefore comparable across the processes of one run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

#: Environment variable naming the trace directory; unset = tracing off.
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """Thread-safe span and counter registry of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._local = threading.local()
        #: Callables returning counter values read at every flush (totals
        #: kept by the program's own stats objects).
        self.gauges: List[Callable[[], Dict[str, float]]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset_after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._done: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)

    def _reset_after_fork(self) -> None:
        # The forking thread's open spans belong to the parent process: the
        # child keeps them only as parents (so worker spans nest under the
        # span that created the pool) and never records them itself.
        stack = getattr(self._local, "stack", [])
        self._lock = threading.Lock()
        self._flush_lock = threading.Lock()
        self._reset()
        self._local.stack = [dict(frame, inherited="fork") for frame in stack]

    # ------------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, rid: Optional[str] = None) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = {
            "id": f"{self.pid}.{next(self._ids)}",
            "parent": parent["id"] if parent else None,
            "name": name,
            "rid": rid if rid is not None else (parent["rid"] if parent else None),
            "counted": 0.0,
            "inherited": None,
            "start": time.perf_counter(),
        }
        stack.append(frame)
        return frame

    def end(self, frame: dict) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        record = [
            frame["id"],
            frame["parent"],
            frame["name"],
            frame["start"],
            end,
            self.pid,
            threading.get_ident(),
            frame["rid"],
            frame["counted"],
        ]
        with self._lock:
            self._done.append(record)
        # A root span of the main thread, or the last own span of a forked
        # worker, closes a unit of work of this process: publish it.  Roots
        # of other threads wait for the next such flush or for exit.
        if all(item["inherited"] == "fork" for item in stack) and (
            stack or threading.current_thread() is threading.main_thread()
        ):
            self.flush()

    def carried(self, fn: Callable) -> Callable:
        """``fn``, to run in another thread under this thread's open span."""
        stack = self._stack()
        if not stack:
            return fn
        parent = dict(stack[-1], inherited="thread")

        @functools.wraps(fn)
        def run(*args, **kwargs):
            saved = self._stack()
            self._local.stack = [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.stack = saved

        return run

    def count(self, name: str, seconds: float, calls: int = 1) -> None:
        """Add one timed leaf call that is counted instead of spanned.

        Its time is charged to the enclosing span as child time, so that
        span's self time excludes it as it would exclude a child span.
        """
        stack = self._stack()
        if stack and stack[-1]["inherited"] is None:
            stack[-1]["counted"] += seconds
        with self._lock:
            self.counters[name + ".count"] += calls
            self.counters[name + "_s"] += seconds

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    # ------------------------------------------------------------------ output

    def flush(self) -> None:
        with self._flush_lock:
            gauges = {}
            for gauge in self.gauges:
                gauges.update(gauge())
            with self._lock:
                done, self._done = self._done, []
                self.counters.update(gauges)
                counters = dict(self.counters)
            if done:
                path = os.path.join(self.out_dir, f"spans-{self.pid}.jsonl")
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("".join(json.dumps(record) + "\n" for record in done))
            path = os.path.join(self.out_dir, f"counters-{self.pid}.json")
            with open(f"{path}.tmp", "w", encoding="utf-8") as handle:
                json.dump(counters, handle)
            os.replace(f"{path}.tmp", path)


def spanned(tracer: Tracer, fn: Callable, name, after=None, rid=None) -> Callable:
    """``fn`` wrapped in a span.

    ``name`` is a string or ``name(args, kwargs) -> str``; ``after(frame,
    args, kwargs, result)`` may record counters; ``rid(args)`` may supply the
    request id of a root span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        frame = tracer.begin(label, rid(args) if rid is not None else None)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(frame, args, kwargs, result)
            return result
        finally:
            tracer.end(frame)

    return wrapper


def counted(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """``fn`` wrapped in a call counter with a time total (no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(name, time.perf_counter() - start)

    return wrapper


def tallied(tracer: Tracer, fn: Callable, name: str) -> Callable:
    """``fn`` wrapped in a bare call counter (for calls that nest)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.add(name, 1)
        return fn(*args, **kwargs)

    return wrapper


def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.attr`` by ``make(original)``, keeping method kinds."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    elif isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _remembering(init: Callable, into: list) -> Callable:
    """``__init__`` that also keeps the new instance's ``stats`` object."""

    @functools.wraps(init)
    def wrapper(self, *args, **kwargs):
        init(self, *args, **kwargs)
        into.append(self.stats)

    return wrapper


def _subclasses(cls) -> list:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.append(sub)
            todo.append(sub)
    return found


def install(out_dir: str) -> Tracer:
    """Wrap the public functions of every measured layer; returns the tracer."""
    import concurrent.futures
    import copy
    import types

    import repro.api.scenario as scenario_mod
    import repro.api.session as session_mod
    import repro.capsnet.layers as layers_mod
    import repro.capsnet.model as model_mod
    import repro.capsnet.routing as routing_mod
    import repro.capsnet.training as training_mod
    import repro.core.accelerator as accelerator_mod
    import repro.engine.context as context_mod
    import repro.engine.design_points  # noqa: F401  (defines the strategy classes)
    import repro.engine.diskcache as diskcache_mod
    import repro.engine.experiment as experiment_mod
    import repro.engine.strategies as strategies_mod
    import repro.optimize.drivers as drivers_mod
    import repro.serve.app as app_mod
    import repro.serve.state as state_mod
    import repro.sweep.queue as queue_mod
    import repro.sweep.runner as runner_mod
    import repro.sweep.vectorized as vectorized_mod
    import repro.experiments.table05_accuracy as table5_mod
    from repro.arithmetic import approx as approx_mod
    from repro.workloads.layers_model import ConvGeometry

    tracer = Tracer(out_dir)

    def carry_parent(submit):
        @functools.wraps(submit)
        def wrapper(self, fn, /, *args, **kwargs):
            return submit(self, tracer.carried(fn), *args, **kwargs)

        return wrapper

    patch(concurrent.futures.ThreadPoolExecutor, "submit", carry_parent)

    def carry_into_thread(start):
        @functools.wraps(start)
        def wrapper(thread):
            thread.run = tracer.carried(thread.run)
            return start(thread)

        return wrapper

    patch(threading.Thread, "start", carry_into_thread)

    def wrap(owner, attr, name, after=None, rid=None):
        patch(owner, attr, lambda fn: spanned(tracer, fn, name, after, rid))

    def count(owner, attr, name):
        patch(owner, attr, lambda fn: counted(tracer, fn, name))

    # -- capsnet: one training step, the three layers, routing, the kernels.
    wrap(training_mod.Trainer, "train_step", "capsnet.train_step")

    # PrimaryCaps owns a Conv2D of its own; the model and the Table-5
    # evaluation also call it directly, so it is told apart by instance.
    primary_convs = weakref.WeakSet()

    def remember_conv(init):
        @functools.wraps(init)
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            primary_convs.add(self.conv)

        return wrapper

    patch(layers_mod.PrimaryCaps, "__init__", remember_conv)

    def conv_name(direction):
        def name(args, kwargs):
            layer = "primary.conv" if args[0] in primary_convs else "conv"
            return f"capsnet.{layer}.{direction}"

        return name

    def conv_flops(frame, args, kwargs, result):
        layer, x = args[0], args[1]
        if frame["name"] != "capsnet.conv.fwd":
            return
        batch, channels, height, width = x.shape
        geometry = ConvGeometry(
            channels, layer.out_channels, layer.kernel_size, layer.stride, height, width
        )
        tracer.add("capsnet.conv.fwd_flops", float(geometry.flops(batch)))

    wrap(layers_mod.Conv2D, "forward", conv_name("fwd"), after=conv_flops)
    wrap(layers_mod.Conv2D, "backward", conv_name("bwd"))
    wrap(layers_mod.PrimaryCaps, "forward", "capsnet.primary.fwd")
    wrap(layers_mod.PrimaryCaps, "backward", "capsnet.primary.bwd")
    wrap(layers_mod.CapsuleLayer, "forward", "capsnet.caps.fwd")
    wrap(layers_mod.CapsuleLayer, "backward", "capsnet.caps.bwd")
    wrap(routing_mod.DynamicRouting, "__call__", "capsnet.routing")
    wrap(layers_mod, "im2col", "capsnet.im2col")
    wrap(layers_mod, "col2im", "capsnet.col2im")

    # -- arithmetic: the three-context evaluation and the PE approximations.
    for module in (model_mod, table5_mod):
        wrap(module, "evaluate_accuracies", "capsnet.eval")
    for attr in ("approx_exp", "approx_inv_sqrt", "approx_reciprocal"):
        count(approx_mod, attr, "arithmetic.approx")

    # -- experiments: one span per registered experiment run.
    for experiment_name in experiment_mod.experiment_names():
        cls = type(experiment_mod.get_experiment(experiment_name))
        if "run" in cls.__dict__:
            wrap(cls, "run", f"experiments.{experiment_name}")

    # -- engine: memoized simulation, the strategy executions, deepcopies.
    memo_stats: list = []
    wrap(context_mod.SimulationContext, "_simulate", "engine.simulate")
    wrap(context_mod.SimulationContext, "map", "engine.map")

    patch(context_mod.SimulationContext, "__init__", lambda fn: _remembering(fn, memo_stats))
    for cls in [strategies_mod.DesignPointStrategy] + _subclasses(strategies_mod.DesignPointStrategy):
        for attr in ("simulate_routing", "simulate_end_to_end"):
            if attr in cls.__dict__:
                patch(cls, attr, lambda fn: tallied(tracer, fn, "engine.sim.count"))
    deepcopy = spanned(tracer, copy.deepcopy, "engine.deepcopy")
    for module in (context_mod, accelerator_mod):
        module.copy = types.SimpleNamespace(deepcopy=deepcopy)

    # -- core: the accelerator model's public simulate calls.
    wrap(accelerator_mod.PIMCapsNet, "simulate_routing", "core.simulate")
    wrap(accelerator_mod.PIMCapsNet, "simulate_end_to_end", "core.simulate")

    # -- engine.diskcache: simulation shards, digests, trained models.
    cache_stats: list = []

    patch(diskcache_mod.SimulationCache, "__init__", lambda fn: _remembering(fn, cache_stats))
    # A forked pool worker reports only the contexts and caches it creates.
    os.register_at_fork(after_in_child=lambda: (memo_stats.clear(), cache_stats.clear()))
    for attr in ("get", "get_many", "put", "put_many"):
        wrap(diskcache_mod.SimulationCache, attr, f"diskcache.sim.{attr}")

    def flush_with_bytes(fn):
        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            # Shards dirty before the flush and clean after it were written.
            dirty = [key for key, flag in list(cache._dirty.items()) if flag]
            frame = tracer.begin("diskcache.sim.flush")
            try:
                return fn(cache, *args, **kwargs)
            finally:
                for key in dirty:
                    if not cache._dirty.get(key):
                        try:
                            size = os.path.getsize(cache._shard_path(key))
                        except OSError:
                            continue
                        tracer.add("diskcache.bytes_written", float(size))
                tracer.end(frame)

        return wrapper

    patch(diskcache_mod.SimulationCache, "flush", flush_with_bytes)
    for module in (diskcache_mod, vectorized_mod, queue_mod):
        count(module, "canonical_digest", "diskcache.digest")

    def model_get_outcome(frame, args, kwargs, result):
        tracer.add("diskcache.model.hits" if result is not None else "diskcache.model.misses", 1)

    wrap(diskcache_mod.TrainedModelCache, "get", "diskcache.model.get", after=model_get_outcome)
    wrap(diskcache_mod.TrainedModelCache, "put", "diskcache.model.put")

    # -- sweep: runner, pool points, the vectorized backend and its gate.
    def grid_size(frame, args, kwargs, result):
        tracer.add("sweep.points", float(len(result.points)))
        tracer.add("sweep.cells", float(sum(len(point.cells) for point in result.points)))

    wrap(runner_mod.SweepRunner, "run", "sweep.run", after=grid_size)
    wrap(runner_mod, "_execute_point", "sweep.point")
    wrap(runner_mod, "evaluate_grid", "sweep.vector.evaluate_grid")
    wrap(vectorized_mod, "_verify_point", "sweep.vector.verify")

    # -- optimize: one span per search, probes against the grid.
    def probes(frame, args, kwargs, result):
        tracer.add("optimize.probes", float(len(result.probes)))
        tracer.add("optimize.grid_points", float(result.space.grid_size()))

    wrap(drivers_mod.OptimizeDriver, "run", "optimize.run", after=probes)

    # -- api: scenario construction.
    wrap(scenario_mod.Scenario, "from_dict", "api.scenario_build")
    wrap(scenario_mod.Scenario, "with_set", "api.scenario_build")

    # -- serve: one root span per request, tagged with the client's id.
    def dispatch_name(args, kwargs):
        handler, method = args[0], args[1]
        return f"serve.request {method} {handler.path.split('?')[0]}"

    wrap(
        app_mod.ReproRequestHandler,
        "_dispatch",
        dispatch_name,
        rid=lambda args: args[0].headers.get("X-Request-Id"),
    )
    wrap(state_mod.ServerState, "session_for", "serve.session_for")
    count(session_mod.Session, "__init__", "serve.session.created")

    def stats_totals() -> Dict[str, float]:
        totals = {}
        for prefix, stats in (("engine.memo", memo_stats), ("diskcache.sim", cache_stats)):
            totals[f"{prefix}.hits"] = float(sum(s.hits for s in stats))
            totals[f"{prefix}.misses"] = float(sum(s.misses for s in stats))
        totals["diskcache.write_errors"] = float(sum(s.write_errors for s in cache_stats))
        totals["diskcache.corrupt"] = float(sum(s.corrupt_artifacts for s in cache_stats))
        return totals

    tracer.gauges.append(stats_totals)
    return tracer
