"""Wall-clock benchmark of the running homeostasis system.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real kernels (not the simulator) from the sources of the
checkout it sits in, on one of the workloads of :mod:`workloads`, as a
closed loop for ``S`` seconds.  The inputs are a pure function of the
seed.  Every run ends with a correctness leg: the final database must
equal a serial replay of the same requests through
``repro.evaluate`` from the workload's initial database.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing installed; with ``--trace 1`` they are the per-layer metrics
of :mod:`layers`, from a run whose first half is untraced and whose
second half is traced (the two throughputs give the tracing
overhead).  The line before it states the sample counts.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import resource
import statistics
import sys
import time
import traceback
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from source import use_checkout_sources

#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUP_REPS = 3
#: requests generated ahead of the timed loop at a time
BLOCK = 256
#: most, and fewest requests in, the runs of requests whose 99th
#: percentiles ``latency_p99_ms`` is the median of
P99_CHUNKS, P99_SAMPLES = 10, 1000

END_TO_END_UNITS = {
    "txn_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "sync_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


@dataclass
class Loop:
    """What one timed closed loop observed."""

    latency_ns: array = field(default_factory=lambda: array("q"))
    synced: bytearray = field(default_factory=bytearray)
    committed: bytearray = field(default_factory=bytearray)
    #: stream indices of failed submissions
    failed: list[int] = field(default_factory=list)
    #: timed wall seconds (request generation excluded)
    wall_s: float = 0.0
    window: tuple[int, int] = (0, 0)

    @property
    def attempted(self) -> int:
        return len(self.latency_ns)


def closed_loop(
    submit: Callable[[str, dict[str, int]], Any],
    stream: Iterator[tuple[str, dict[str, int]]],
    seconds: float,
    first_index: int = 0,
) -> tuple[Loop, list[tuple[str, dict[str, int]]]]:
    """Submit requests one after another for ``seconds`` of timed wall.

    Requests are drawn from ``stream`` in blocks outside the timed
    wall.  Returns the observations and the drawn requests the loop did
    not send, which the next loop on the same stream must send first.
    """
    from repro import Outcome

    loop = Loop()
    clock = time.perf_counter_ns
    budget = int(seconds * 1e9)
    elapsed = 0
    index = first_index
    leftover: list[tuple[str, dict[str, int]]] = []
    loop_start = clock()
    while elapsed < budget:
        block = list(itertools.islice(stream, BLOCK))
        began = clock()
        for position, (tx_name, params) in enumerate(block):
            sent = clock()
            try:
                ok, synced = True, False
                result = submit(tx_name, params)
                ok, synced = result.status is Outcome.COMMITTED, result.synced
            except Exception:  # noqa: BLE001 - a raising submission is a failed one
                traceback.print_exc(file=sys.stderr)
                ok = False
            done = clock()
            loop.latency_ns.append(done - sent)
            loop.synced.append(synced)
            loop.committed.append(ok)
            if not ok:
                loop.failed.append(index)
            index += 1
            if elapsed + done - began >= budget:
                leftover = block[position + 1 :]
                break
        elapsed += clock() - began
    loop.wall_s = elapsed / 1e9
    loop.window = (loop_start, clock())
    return loop, leftover


def warm_up(
    submit: Callable[[str, dict[str, int]], Any],
    stream: Iterator[tuple[str, dict[str, int]]],
    count: int,
) -> list[int]:
    """Submit the first ``count`` requests untimed; returns the
    indices of those that failed."""
    from repro import Outcome

    return [
        index
        for index, (tx_name, params) in enumerate(itertools.islice(stream, count))
        if submit(tx_name, params).status is not Outcome.COMMITTED
    ]


def percentile(ordered: list[int], q: float) -> int:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(
    latency_ns: Sequence[int],
    committed: Sequence[bool],
    wall_s: float,
    sync_ratio: float,
    setup_s: list[float],
    peak_rss_mb: float,
) -> dict[str, float]:
    """The end-to-end metrics of one timed phase, from its requests'
    latencies in completion order.

    The 99th percentile is the median of the 99th percentiles of up to
    :data:`P99_CHUNKS` consecutive runs of at least
    :data:`P99_SAMPLES` requests, so that each has ten samples beyond
    it and one stretch slowed by other load on the machine does not set
    it.  Failed requests count in the latency percentiles (as missing
    any limit) but not in the throughput.
    """
    chunks = max(1, min(P99_CHUNKS, len(latency_ns) // P99_SAMPLES))
    size = len(latency_ns) // chunks
    p99 = statistics.median(
        percentile(sorted(latency_ns[k * size : (k + 1) * size]), 0.99)
        for k in range(chunks)
    )
    return {
        "txn_per_s": sum(committed) / wall_s,
        "latency_p50_ms": statistics.median(latency_ns) / 1e6,
        "latency_p99_ms": p99 / 1e6,
        "sync_ratio": sync_ratio,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": sum(committed) / len(committed),
    }


def sync_ratio(before: dict, after: dict) -> float:
    """Negotiations per submission in the timed phase, counting the
    treaty round the phase started under: a workload that never
    renegotiates reads 1 / submissions, not 0."""
    negotiations = after["negotiations"] - before["negotiations"]
    return (negotiations + 1) / (after["submitted"] - before["submitted"])


def _protocol_counts(cluster: Any) -> dict[str, int]:
    """The counters :func:`sync_ratio` reads, as the serve ``stats``
    reply names them."""
    return {
        "negotiations": cluster.stats.negotiations,
        "submitted": cluster.stats.submitted,
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timed_build(spec: Any) -> tuple[Any, Any, tuple[int, int]]:
    began = time.perf_counter_ns()
    workload, cluster = spec.build()
    return workload, cluster, (began, time.perf_counter_ns())


# -- in-process workloads --------------------------------------------------------


def run_in_process(
    spec: Any, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS
) -> dict:
    """One run of an :class:`~workloads.InProcess` workload."""
    from layers import cluster_counters, derive
    from tracer import Recorder
    from workloads import mismatches, serial_replay

    recorder = Recorder()
    if trace:
        recorder.install()
    try:
        workload, cluster, setup_window = _timed_build(spec)
    finally:
        recorder.uninstall()
    setup_s = [(setup_window[1] - setup_window[0]) / 1e9]
    stream = spec.requests(workload, seed)
    failed = set(warm_up(cluster.try_submit, stream, spec.warmup))
    gc.collect()
    if trace:
        untraced, leftover = closed_loop(
            cluster.try_submit, stream, seconds / 2, spec.warmup
        )
        stream = itertools.chain(leftover, stream)
        before = cluster_counters(cluster)
        recorder.install()
        try:
            traced, _ = closed_loop(
                cluster.try_submit,
                stream,
                seconds / 2,
                spec.warmup + untraced.attempted,
            )
        finally:
            recorder.uninstall()
        after = cluster_counters(cluster)
        loops = [untraced, traced]
    else:
        before = _protocol_counts(cluster)
        loops = [closed_loop(cluster.try_submit, stream, seconds, spec.warmup)[0]]
    peak_rss_mb = _rss_mb(resource.RUSAGE_SELF)

    attempted = spec.warmup + sum(loop.attempted for loop in loops)
    failed.update(i for loop in loops for i in loop.failed)
    sent = itertools.islice(spec.requests(workload, seed), attempted)
    expected = serial_replay(
        workload, (r for i, r in enumerate(sent) if i not in failed)
    )
    wrong = mismatches(cluster.global_state(), expected)
    after_stats = _protocol_counts(cluster)
    summary = {"workload": spec.name, "mismatched_keys": wrong[:5]}

    if trace:
        metrics = derive(
            recorder.spans,
            traced.window,
            traced.wall_s,
            setup_window,
            (before, after),
            [
                lat / 1e6
                for lat, synced in zip(traced.latency_ns, traced.synced)
                if synced
            ],
            tps=(
                untraced.attempted / untraced.wall_s,
                traced.attempted / traced.wall_s,
            ),
        )
        summary["latency_samples"] = traced.attempted
    else:
        del cluster
        for _ in range(setup_reps - 1):
            gc.collect()
            _, _, window = _timed_build(spec)
            setup_s.append((window[1] - window[0]) / 1e9)
        loop = loops[0]
        metrics = end_to_end(
            loop.latency_ns,
            loop.committed,
            loop.wall_s,
            sync_ratio(before, after_stats),
            setup_s,
            peak_rss_mb,
        )
        summary["latency_samples"] = loop.attempted
        summary["setup_samples"] = len(setup_s)
    return {
        "summary": summary,
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


# -- the serve workload ----------------------------------------------------------


def _serve_check(seed: int, connections: list, stats: dict) -> list[str]:
    """Mismatches between the server's final state and a serial replay
    of every connection's committed requests (streams touch disjoint
    items, so any serial order gives the same final state)."""
    from workloads import mismatches, serial_replay, serve_requests, serve_workload

    def committed(conn: Any) -> Iterator[tuple[str, dict[str, int]]]:
        failed = set(conn.failed)
        sent = itertools.islice(serve_requests(seed, conn.index), conn.attempted)
        return (r for i, r in enumerate(sent) if i not in failed)

    expected = serial_replay(
        serve_workload(), itertools.chain.from_iterable(map(committed, connections))
    )
    return mismatches(stats["global_state"], expected)


def run_serve(
    root: Path, seed: int, seconds: float, trace: bool, setup_reps: int = SETUP_REPS
) -> dict:
    """One run of the ``serve-micro`` workload."""
    from layers import derive
    from serving import Server, closed_loop as serve_loop

    runs = []
    for traced in ([False, True] if trace else [False]):
        server = Server(root, traced=traced)
        try:
            connections, before, after = serve_loop(
                server, seed, seconds / 2 if trace else seconds
            )
        finally:
            report = server.stop()
        runs.append((server, connections, before, after, report))
    server, connections, before, after, report = runs[-1]

    wrong = [
        key for _, conns, _, stats, _ in runs for key in _serve_check(seed, conns, stats)
    ]
    attempted = sum(conn.attempted for _, conns, *_ in runs for conn in conns)
    failed = sum(len(conn.failed) for _, conns, *_ in runs for conn in conns)
    window = (
        min(conn.first_send_ns for conn in connections),
        max(conn.last_recv_ns for conn in connections),
    )
    wall_s = (window[1] - window[0]) / 1e9
    summary = {
        "workload": "serve-micro",
        "latency_samples": sum(len(conn.rtt_ns) for conn in connections),
        "mismatched_keys": wrong[:5],
    }

    if trace:
        untraced_conns = runs[0][1]
        untraced_wall = (
            max(c.last_recv_ns for c in untraced_conns)
            - min(c.first_send_ns for c in untraced_conns)
        ) / 1e9
        traced_sent = sum(len(conn.rtt_ns) for conn in connections)
        metrics = derive(
            [tuple(span) for span in report["spans"]],
            window,
            wall_s,
            (server.spawned_ns, server.ready_ns),
            (report["counters"][0], report["counters"][-1]),
            [
                rtt / 1e6
                for conn in connections
                for rtt, synced in zip(conn.rtt_ns, conn.synced)
                if synced
            ],
            client_rtt_ns=[conn.rtt_ns for conn in connections],
            tps=(
                sum(len(c.rtt_ns) for c in untraced_conns) / untraced_wall,
                traced_sent / wall_s,
            ),
        )
    else:
        setup_s = [server.setup_s]
        for _ in range(setup_reps - 1):
            rep = Server(root)
            rep.stop()
            setup_s.append(rep.setup_s)
        timed = sorted(
            (done, rtt, ok)
            for conn in connections
            for rtt, done, ok in zip(conn.rtt_ns, conn.done_ns, conn.committed)
        )
        metrics = end_to_end(
            [rtt for _, rtt, _ in timed],
            [ok for _, _, ok in timed],
            wall_s,
            sync_ratio(before, after),
            setup_s,
            _rss_mb(resource.RUSAGE_CHILDREN),
        )
        summary["setup_samples"] = len(setup_s)
    return {
        "summary": summary,
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = use_checkout_sources()
    from layers import PER_LAYER
    from workloads import IN_PROCESS, SERVE

    trace = bool(args.trace)
    if args.workload in IN_PROCESS:
        result = run_in_process(IN_PROCESS[args.workload], args.seed, args.seconds, trace)
    elif args.workload == SERVE:
        result = run_serve(root, args.seed, args.seconds, trace)
    else:
        parser.error(f"unknown workload {args.workload!r}")

    units = {m.name: m.unit for m in PER_LAYER} if trace else END_TO_END_UNITS
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps(result.pop("summary")))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
