"""Closed-loop HTTP load generator (one asyncio process).

Usage::

    python perfbench/perf_loadgen.py PLAN.json RESULTS.json

``PLAN.json`` holds ``host``, ``port``, ``timeout_s`` and a list of
``phases``, each with a ``name``, a number of ``connections`` and a
``requests`` list, each request with an ``id``, ``method``, ``path``,
``body`` and ``keep`` flag.  The phases run one after the other.  In a phase,
``connections`` worker tasks take the requests in order, each sending its
next request as soon as its previous one is answered, on a new HTTP/1.1
connection per request.  (On a reused keep-alive connection the server's
separately written headers and body meet delayed acknowledgements, and
about one request in twelve then waits ~40 ms in the TCP stack.)

Each result records when its worker was free (``ready``: its previous
completion, or the phase start), when the request was sent and when it was
answered (``time.perf_counter``, comparable with the server's spans), the
status, and whether the body was well formed: JSON for plain responses, an
NDJSON stream ending in a ``summary`` event for sweeps and optimizations.
Bodies of ``keep`` requests are returned for the benchmark's own checks.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time


async def _read_response(reader: asyncio.StreamReader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed before a response")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        parts = []
        while True:
            size = int((await reader.readline()).split(b";")[0], 16)
            if size == 0:
                await reader.readline()
                break
            parts.append(await reader.readexactly(size))
            await reader.readline()
        body = b"".join(parts)
    else:
        body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


def _well_formed(path: str, status: int, body: bytes) -> bool:
    if status != 200:
        return False
    try:
        if path in ("/v1/sweep", "/v1/optimize"):
            lines = [line for line in body.decode("utf-8").splitlines() if line.strip()]
            return bool(lines) and json.loads(lines[-1]).get("event") == "summary"
        return isinstance(json.loads(body), dict)
    except ValueError:
        return False


async def _send(plan: dict, request: dict):
    """One request on its own connection: (sent, done, status, ok, body)."""
    payload = json.dumps(request["body"]).encode("utf-8")
    head = (
        f"{request['method']} {request['path']} HTTP/1.1\r\n"
        f"Host: {plan['host']}:{plan['port']}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n"
        f"X-Request-Id: {request['id']}\r\n\r\n"
    ).encode("latin-1")
    sent = time.perf_counter()
    status, ok, body, writer = 0, False, b"", None
    try:
        reader, writer = await asyncio.open_connection(plan["host"], plan["port"])
        writer.write(head + payload)
        status, _, body = await asyncio.wait_for(_read_response(reader), plan["timeout_s"])
        ok = _well_formed(request["path"], status, body)
    except (OSError, ConnectionError, ValueError, IndexError,
            asyncio.TimeoutError, asyncio.IncompleteReadError):
        ok = False
    done = time.perf_counter()
    if writer is not None:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return sent, done, status, ok, body


async def _worker(plan: dict, phase: str, queue: asyncio.Queue, results: list) -> None:
    ready = time.perf_counter()
    while not queue.empty():
        request = queue.get_nowait()
        sent, done, status, ok, body = await _send(plan, request)
        result = {
            "id": request["id"],
            "phase": phase,
            "kind": request["kind"],
            "ready": ready,
            "sent": sent,
            "done": done,
            "status": status,
            "ok": ok,
        }
        if request.get("keep") and ok:
            result["body"] = body.decode("utf-8")
        results.append(result)
        ready = done


async def _run(plan: dict) -> list:
    results: list = []
    for phase in plan["phases"]:
        queue: asyncio.Queue = asyncio.Queue()
        for request in phase["requests"]:
            queue.put_nowait(request)
        await asyncio.gather(*[
            _worker(plan, phase["name"], queue, results) for _ in range(phase["connections"])
        ])
    return results


def main(argv: list) -> int:
    plan_path, results_path = argv
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    results = asyncio.run(_run(plan))
    with open(results_path, "w", encoding="utf-8") as handle:
        json.dump(results, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
