"""Server processes and the closed-loop load generator of the benchmark.

The load generator is the benchmark's own, not ``repro.service.loadgen``,
so a change to the program cannot change how it is measured.  It is a
closed loop: each connection keeps a fixed number of requests in flight
(its pipeline depth) and sends the next one only when a response comes
back.  Latency is timed from each request's send to its response.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

HOST = "127.0.0.1"


class ServerProcess:
    """One ``repro-rfid serve`` process (plain, or the traced launcher)."""

    def __init__(self, root: Path, workdir: Path, zones_file: Path, name: str, *,
                 traced_out: Path | None = None, request_id_from: int = 0,
                 env: dict | None = None) -> None:
        serve_args = ["serve", "--zones-file", str(zones_file), "--host", HOST,
                      "--port", "0", "--workers", "2"]
        if traced_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve_args]
        else:
            cmd = [sys.executable, str(root / "perfbench" / "serve_traced.py"),
                   "--out", str(traced_out), "--request-id-from",
                   str(request_id_from), "--", *serve_args]
        full_env = dict(os.environ)
        full_env.update(
            REPRO_CACHE="1",
            REPRO_CACHE_DIR=str(workdir / f"cache-{name}"),
        )
        full_env.update(env or {})
        self.log = open(workdir / f"server-{name}.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=full_env, stdout=subprocess.PIPE, stderr=self.log
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving "):
            self.proc.wait(timeout=30)
            raise RuntimeError(f"server failed to start: {line!r}; see {self.log.name}")
        return int(line.split(" on ")[1].split()[0].rsplit(":", 1)[1])

    def wait_ready(self, zones: int) -> float:
        """Seconds from spawn to the first health answer with every zone."""
        while True:
            response = self.call({"op": "health"})
            if response.get("ok") and response.get("zones") == zones:
                return time.perf_counter() - self.started
            time.sleep(0.01)

    def call(self, request: dict) -> dict:
        """One request on a fresh connection (control ops only)."""
        with socket.create_connection((HOST, self.port), timeout=30) as sock:
            sock.sendall((json.dumps(request) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("server closed the connection")
                buf += chunk
        return json.loads(buf)

    def metrics(self) -> dict:
        return self.call({"op": "metrics"})["metrics"]

    def rss_peak_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the server process."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Ask for shutdown, wait for exit; kill on a hang."""
        if self.proc.poll() is None:
            try:
                self.call({"op": "shutdown"})
                self.proc.wait(timeout=60)
            except (OSError, RuntimeError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class LoadResult:
    """What one closed-loop segment saw."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.timings: dict[int, tuple[float, float]] = {}
        self.ok = 0
        self.failed = 0
        self.error_codes: dict[str, int] = {}
        self.inconsistent = 0
        self.elapsed = 0.0


async def _connection(port: int, requests, depth: int, deadline: float,
                      result: LoadResult, estimates: dict, keep_timings: bool) -> None:
    reader, writer = await asyncio.open_connection(HOST, port, limit=1 << 22)
    inflight: dict[int, float] = {}

    def send() -> None:
        item = next(requests, None)
        if item is None:  # a finite request list ran out
            return
        rid, payload = item
        inflight[rid] = time.monotonic()
        writer.write(payload)

    try:
        for _ in range(depth):
            send()
        while inflight:
            line = await reader.readline()
            now = time.monotonic()
            if not line:
                raise RuntimeError("server closed a load connection")
            response = json.loads(line)
            rid = response["id"]
            sent = inflight.pop(rid)
            result.latencies.append(now - sent)
            if keep_timings:
                result.timings[rid] = (sent, now)
            if response.get("ok"):
                result.ok += 1
                n_hat = response["n_hat"]
                key = (response["zone"], response["seed"])
                if estimates.setdefault(key, n_hat) != n_hat:
                    result.inconsistent += 1
            else:
                result.failed += 1
                code = str(response.get("code"))
                result.error_codes[code] = result.error_codes.get(code, 0) + 1
            if now < deadline:
                send()
    finally:
        writer.close()
        await writer.wait_closed()


def run_load(port: int, requests, estimates: dict, *, connections: int,
             depth: int, seconds: float, keep_timings: bool = False) -> LoadResult:
    """Drive ``connections`` pipelined connections for ``seconds``.

    ``requests`` yields ``(id, line_bytes)``; after the deadline, or when
    ``requests`` runs out, no new request is sent and the in-flight ones
    are drained, so every request sent is answered and timed.  Each
    served n_hat goes into ``estimates`` by (zone, seed); a repeat that
    returns another value counts as inconsistent.
    """
    result = LoadResult()

    async def main() -> None:
        deadline = time.monotonic() + seconds
        await asyncio.gather(
            *(
                _connection(
                    port, requests, depth, deadline, result, estimates, keep_timings
                )
                for _ in range(connections)
            )
        )

    # A collection of the client's own heap would stall every request in
    # flight and show up as server latency.
    gc.disable()
    try:
        start = time.monotonic()
        asyncio.run(main())
        result.elapsed = time.monotonic() - start
    finally:
        gc.enable()
    return result
