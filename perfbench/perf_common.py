"""Shared plumbing: hermetic program environment, timed processes, statistics."""

from __future__ import annotations

import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PYTHON = sys.executable
#: The processors of this run.  A concurrent round runs one program on each,
#: so that it measures the program rather than the scheduler.
CPUS = sorted(os.sched_getaffinity(0))

#: Program environment variables a run must never inherit.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_FAULTS", "PERFBENCH_TRACE_DIR", "PYTHONPATH")


def load_spec() -> dict:
    """The benchmark's own settings (sizes, limits, pinned digests, targets)."""
    return json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))


class Workspace:
    """Fresh work directories inside the checkout, removed on close."""

    def __init__(self) -> None:
        self.root = ROOT / ".perfbench" / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        (self.root / "tmp").mkdir()
        self._count = 0

    def fresh(self, label: str) -> Path:
        self._count += 1
        path = self.root / f"{self._count:03d}-{label}"
        path.mkdir()
        return path

    def env(self, trace_dir: Optional[Path] = None) -> Dict[str, str]:
        """The program's environment: no inherited cache, fault or path settings.

        Caches, temporary files and XDG state all land in this workspace, so
        a run never reads or writes ``~/.cache/repro``.
        """
        env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
        env["PYTHONPATH"] = str(SRC)
        env["XDG_CACHE_HOME"] = str(self.root / "xdg")
        env["TMPDIR"] = str(self.root / "tmp")
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        return env

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


@dataclass
class Proc:
    """One finished program process."""

    argv: List[str]
    wall_s: float
    rss_mb: float
    code: int
    stdout: Path
    stderr: Path

    def text(self) -> str:
        return self.stdout.read_text(encoding="utf-8", errors="replace")

    def err_text(self) -> str:
        return self.stderr.read_text(encoding="utf-8", errors="replace")


@dataclass
class _Running:
    popen: subprocess.Popen
    argv: List[str]
    start: float
    stdout: Path
    stderr: Path
    handles: list = field(default_factory=list)


#: Every process spawned by this run, so that an aborted run can stop them.
_SPAWNED: List[subprocess.Popen] = []


def spawn(argv: Sequence[str], env: Dict[str, str], out_dir: Path, label: str,
          cpus: Optional[Sequence[int]] = None) -> _Running:
    """Start one program process with stdout/stderr going to files.

    ``cpus`` restricts the process (and the threads and processes it
    starts) to those processors.
    """
    stdout, stderr = out_dir / f"{label}.out", out_dir / f"{label}.err"
    out_handle, err_handle = open(stdout, "wb"), open(stderr, "wb")
    start = time.perf_counter()
    popen = subprocess.Popen(
        list(argv), env=env, cwd=str(ROOT), stdout=out_handle, stderr=err_handle,
        stdin=subprocess.DEVNULL,
        preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
    )
    _SPAWNED.append(popen)
    return _Running(popen, list(argv), start, stdout, stderr, [out_handle, err_handle])


def _stat(pid: int) -> Optional[List[str]]:
    """The fields of ``/proc/<pid>/stat`` after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _running(pid: int) -> bool:
    fields = _stat(pid)
    return fields is not None and fields[0] != "Z"


def _descendants(pid: int) -> List[int]:
    """Every live process below ``pid``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _stat(int(entry)) if entry.isdigit() else None
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            found.append(child)
            todo.append(child)
    return found


def stop_all() -> None:
    """Kill and wait for every spawned process that is still running.

    The processes a spawned program started itself (sweep pool workers) are
    killed first: once their parent is gone they would run on and write
    into a workspace that is being removed.
    """
    for popen in _SPAWNED:
        if popen.returncode is None and popen.poll() is None:
            orphans = _descendants(popen.pid)
            for pid in orphans:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            popen.kill()
            popen.wait()
            deadline = time.perf_counter() + 10
            while any(_running(pid) for pid in orphans):
                if time.perf_counter() > deadline:
                    break
                time.sleep(0.01)


def reap(running: Sequence[_Running]) -> List[Proc]:
    """Wait for every process, timing each to its own exit.

    ``os.wait4`` returns the resource usage of the process it reaps;
    ``ru_maxrss`` covers the process and the children it waited for (sweep
    pool workers), so it is the peak resident set of that program.  The
    wait blocks on a pidfd per process rather than polling, so the
    benchmark takes no processor time from the programs it measures, and
    other children of the benchmark (a server still running) are never
    reaped by accident.
    """
    done: Dict[int, Proc] = {}

    def finish(item: _Running, rss_mb: float) -> None:
        end = time.perf_counter()
        for handle in item.handles:
            handle.close()
        done[item.popen.pid] = Proc(
            item.argv, end - item.start, rss_mb, item.popen.returncode, item.stdout, item.stderr,
        )

    poller = select.poll()
    waiting: Dict[int, _Running] = {}
    for item in running:
        try:
            fd = os.pidfd_open(item.popen.pid)
        except ProcessLookupError:  # already reaped by poll()
            finish(item, 0.0)
            continue
        waiting[fd] = item
        poller.register(fd, select.POLLIN)
    while waiting:
        for fd, _ in poller.poll():
            item = waiting.pop(fd)
            poller.unregister(fd)
            os.close(fd)
            _, status, usage = os.wait4(item.popen.pid, 0)
            item.popen.returncode = os.waitstatus_to_exitcode(status)
            finish(item, usage.ru_maxrss / 1024.0)
    return [done[item.popen.pid] for item in running]


def run(argv: Sequence[str], env: Dict[str, str], out_dir: Path, label: str) -> Proc:
    return reap([spawn(argv, env, out_dir, label)])[0]


# ------------------------------------------------------------------ statistics


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ------------------------------------------------------------------ reporting


class Outcome:
    """Operations attempted and failed, and the measured metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, dict] = {}

    def op(self, ok: bool, problem: str = "") -> bool:
        """Count one operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: failed operation: {problem}", file=sys.stderr)
        return ok

    def proc(self, proc: Proc, what: str) -> bool:
        tail = proc.err_text()[-400:] if proc.code else ""
        return self.op(proc.code == 0, f"{what} exited {proc.code}: {tail}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def result(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def provenance(seed: int, workload: str, trace: bool) -> dict:
    """What a result was measured on, printed next to it."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a program dependency
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }
