"""Drive a ``repro-serve`` subprocess with closed-loop connections."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.runtime.client import ServeClient, ServeError
from workloads import SERVE_ARGS, SERVE_CONNECTIONS, SERVE_WARMUP, serve_requests

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
_LISTENING = re.compile(r"repro-serve listening on (\S+):(\d+)")
#: wall seconds any one server may take to come up or to exit
_GRACE_S = 60.0


class Server:
    """One ``repro-serve`` process on an ephemeral loopback port."""

    def __init__(self, root: Path, traced: bool = False) -> None:
        command = [sys.executable, str(LAUNCHER)]
        if traced:
            command.append("--trace")
        command += ["--", "--port", "0", *SERVE_ARGS]
        self.spawned_ns = time.perf_counter_ns()
        self.proc = subprocess.Popen(
            command, cwd=root, stdout=subprocess.PIPE, text=True
        )
        watchdog = threading.Timer(_GRACE_S, self.proc.kill)
        watchdog.start()
        try:
            assert self.proc.stdout is not None
            banner = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        self.ready_ns = time.perf_counter_ns()
        match = _LISTENING.match(banner)
        if match is None:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"repro-serve did not come up: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    @property
    def setup_s(self) -> float:
        """Spawn to the ``listening`` line."""
        return (self.ready_ns - self.spawned_ns) / 1e9

    def client(self) -> ServeClient:
        return ServeClient(self.host, self.port)

    def stop(self) -> dict | None:
        """Shut the server down and wait for it; returns the traced
        launcher's report, if it printed one."""
        try:
            with self.client() as client:
                client.shutdown()
            out, _ = self.proc.communicate(timeout=_GRACE_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"repro-serve exited with {self.proc.returncode}")
        for line in out.splitlines():
            if line.startswith("PERFBENCH "):
                return json.loads(line[len("PERFBENCH ") :])
        return None


@dataclass
class Connection:
    """One closed-loop client connection and what it observed."""

    index: int
    #: requests sent, warm-up included
    attempted: int = 0
    #: per timed request: round trip, completion time, and whether it
    #: synced and committed
    rtt_ns: list[int] = field(default_factory=list)
    done_ns: list[int] = field(default_factory=list)
    synced: list[bool] = field(default_factory=list)
    committed: list[bool] = field(default_factory=list)
    #: stream indices that failed (error frame, or not committed)
    failed: list[int] = field(default_factory=list)
    first_send_ns: int = 0
    last_recv_ns: int = 0


def closed_loop(
    server: Server, seed: int, seconds: float
) -> tuple[list[Connection], dict, dict]:
    """Run ``SERVE_CONNECTIONS`` closed-loop clients for ``seconds``,
    after ``SERVE_WARMUP`` untimed requests on each.

    Returns the connections and the server's ``stats`` replies from
    between the warm-up and the timed phase and from after it.
    Connections are opened one after another and each completes a
    request before the next opens, so the server accepts them in index
    order (the traced run pairs them with the server's connection
    spans by that order); connection 0 also carries both ``stats``
    requests, while its client thread waits at a barrier.
    """
    clients: list[ServeClient] = []
    connections = [Connection(k) for k in range(SERVE_CONNECTIONS)]
    warmed = threading.Barrier(SERVE_CONNECTIONS + 1)
    start = threading.Barrier(SERVE_CONNECTIONS + 1)
    clock = time.perf_counter_ns

    def drive(client: ServeClient, conn: Connection) -> None:
        stream = serve_requests(seed, conn.index)

        def send() -> dict:
            tx_name, params = next(stream)
            conn.attempted += 1
            try:
                reply = client.submit(tx_name, params)
            except (ServeError, OSError):
                conn.failed.append(conn.attempted - 1)
                raise
            if reply.get("status") != "committed":
                conn.failed.append(conn.attempted - 1)
            return reply

        try:
            for _ in range(SERVE_WARMUP):
                send()
            warmed.wait()
            start.wait()
            deadline = clock() + int(seconds * 1e9)
            conn.first_send_ns = clock()
            while True:
                sent = clock()
                reply = send()
                done = clock()
                conn.rtt_ns.append(done - sent)
                conn.done_ns.append(done)
                conn.synced.append(bool(reply.get("synced")))
                conn.committed.append(reply.get("status") == "committed")
                if done >= deadline:
                    break
        except (ServeError, OSError, threading.BrokenBarrierError):
            # A connection is unusable after an error frame; nobody
            # may wait for this one at a barrier.
            traceback.print_exc(file=sys.stderr)
            warmed.abort()
            start.abort()
        conn.last_recv_ns = clock()

    threads: list[threading.Thread] = []
    try:
        for index in range(SERVE_CONNECTIONS):
            clients.append(server.client())
            clients[-1].ping()
            threads.append(
                threading.Thread(
                    target=drive, args=(clients[-1], connections[index]), daemon=True
                )
            )
        for thread in threads:
            thread.start()
        warmed.wait(timeout=_GRACE_S)
        before = clients[0].stats()
        start.wait(timeout=_GRACE_S)
        for thread in threads:
            thread.join(timeout=seconds + _GRACE_S)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a serve client did not finish")
        after = clients[0].stats()
    finally:
        warmed.abort()
        start.abort()
        for thread in threads:
            thread.join(timeout=_GRACE_S)
        for client in clients:
            client.close()
    return connections, before, after
