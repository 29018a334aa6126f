"""Per-layer metrics of the traced run, and what each should move.

The layers are the repo's modules ``lang``, ``logic``, ``analysis``,
``solver``, ``treaty``, ``storage``, ``protocol`` and ``runtime``;
``sim`` (a cost model), ``workloads`` (input generation) and ``fuzz``
(a test tool) are not layers.  :data:`PER_LAYER` is the table written
down before measuring: for every metric, the end-to-end metric it
should move and the workloads it should move it on.  On the workloads
in ``not_on`` the layer's share is small, so the prediction there is
no change.

A span's self time is its duration minus the durations of its direct
children.  Every metric reads the spans of the traced phase only
(``setup_s`` metrics read the set-up window instead).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from tracer import KERNEL_BODY, Span

TPCC, QUOTA, MICRO, SERVE = (
    "tpcc-optimized",
    "quota-tenants",
    "micro-local",
    "serve-micro",
)
NEGOTIATING = (TPCC, QUOTA, SERVE)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: what is timed or read
    source: str
    #: the end-to-end metrics this one should move
    moves: tuple[str, ...]
    #: workloads where it should move them
    on: tuple[str, ...]
    #: workloads where the prediction is no change
    not_on: tuple[str, ...] = ()


_P50 = ("latency_p50_ms",)
_P99 = ("latency_p99_ms",)

PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("protocol.execute.us_p50", "us", "lower", "SiteServer.execute",
                _P50 + ("txn_per_s",), (MICRO,), (TPCC, QUOTA)),
    LayerMetric("protocol.execute.self_s", "s", "lower", "SiteServer.execute",
                _P50 + ("txn_per_s",), (MICRO,), (TPCC, QUOTA)),
    LayerMetric("protocol.execute.wall_share", "ratio", "lower",
                "SiteServer.execute time / timed wall", ("txn_per_s",), (MICRO,)),
    LayerMetric("protocol.dispatch.us_p50", "us", "lower",
                "StoredProcedureCatalog.dispatch", _P50, (MICRO,)),
    LayerMetric("lang.execute.us_p50", "us", "lower",
                "repro.lang.interp.execute as repro.protocol.catalog binds it", _P50, (MICRO,)),
    LayerMetric("treaty.escrow.fast_commit_ratio", "ratio", "higher",
                "escrow_stats(): fast_commits / (fast + settled)", _P50, (MICRO,)),
    LayerMetric("analysis.free_ratio", "ratio", "higher",
                "classifier_stats(): (free + absorbed) / checked", _P50, (MICRO,)),
    LayerMetric("analysis.checks_per_commit", "count", "lower",
                "classifier_stats(): clauses_in_scope / checked", _P50, (MICRO,)),
    LayerMetric("protocol.generate.ms_p50", "ms", "lower", "TreatyGenerator.generate",
                _P99 + ("txn_per_s",), (TPCC, QUOTA), (MICRO,)),
    LayerMetric("protocol.generate.self_s", "s", "lower", "TreatyGenerator.generate",
                _P99 + ("txn_per_s",), (TPCC, QUOTA), (MICRO,)),
    LayerMetric("protocol.negotiation.wall_share", "ratio", "lower",
                "(generate + install) time / timed wall", _P99 + ("txn_per_s",), (TPCC, QUOTA)),
    LayerMetric("treaty.configure_from_samples.ms_per_negotiation", "ms", "lower",
                "configure_from_samples as repro.protocol.homeostasis binds it", _P99, (TPCC,), (QUOTA,)),
    LayerMetric("treaty.sample_executions.ms_per_negotiation", "ms", "lower",
                "sample_executions as repro.protocol.homeostasis binds it", _P99, (TPCC,), (QUOTA,)),
    LayerMetric("solver.solve_budget_allocation.ms_per_negotiation", "ms", "lower",
                "solve_budget_allocation as repro.treaty.optimize binds it", _P99, (TPCC,), (QUOTA,)),
    LayerMetric("treaty.build_templates.ms_per_negotiation", "ms", "lower",
                "build_templates as repro.protocol.homeostasis binds it", _P99, (QUOTA, TPCC)),
    LayerMetric("treaty.assemble.ms_p50", "ms", "lower", "TreatyTable.assemble",
                _P99, (QUOTA, TPCC)),
    LayerMetric("logic.linearize_for_treaty.ms_per_negotiation", "ms", "lower",
                "linearize_for_treaty as repro.protocol.homeostasis binds it", _P99, (QUOTA, TPCC)),
    LayerMetric("treaty.instances_recomputed_per_negotiation", "count", "lower",
                "TreatyGenerator.instances_recomputed", _P99, (TPCC, QUOTA)),
    LayerMetric("treaty.clauses_per_local_treaty", "count", "lower",
                "installed LocalTreaty.constraints, mean over sites", _P99, (TPCC, QUOTA)),
    LayerMetric("protocol.install.ms_p50", "ms", "lower", "SiteServer.install_treaty",
                _P99 + ("txn_per_s",), (QUOTA,), (MICRO,)),
    LayerMetric("analysis.build_path_checks.ms_p50", "ms", "lower",
                "build_path_checks as repro.protocol.site binds it", _P99 + ("txn_per_s",), (QUOTA,), (MICRO,)),
    LayerMetric("logic.lower_to_escrow.ms_p50", "ms", "lower",
                "lower_to_escrow as repro.protocol.site binds it", _P99 + ("txn_per_s",), (QUOTA,), (MICRO,)),
    LayerMetric("storage.wal_append.us_p50", "us", "lower", "TreatyWAL.append",
                _P99, (QUOTA, TPCC)),
    LayerMetric("storage.encode_local_treaty.us_p50", "us", "lower",
                "encode_local_treaty as repro.protocol.site binds it", _P99, (QUOTA, TPCC)),
    LayerMetric("storage.wal.bytes_per_negotiation", "bytes", "lower",
                "TreatyWAL.size_bytes(), summed over sites", ("peak_rss_mb",), (QUOTA, TPCC)),
    LayerMetric("protocol.negotiation.ms_p50", "ms", "lower",
                "submissions that came back synced", _P99, NEGOTIATING),
    LayerMetric("protocol.messages_per_negotiation", "count", "lower",
                "transport.cleanup_rounds() messages", _P99, NEGOTIATING),
    LayerMetric("protocol.participants_per_negotiation", "count", "lower",
                "transport.cleanup_rounds() participants", _P99, NEGOTIATING),
    LayerMetric("analysis.build_symbolic_table.setup_s", "s", "lower",
                "build_symbolic_table as the workload modules bind it", ("setup_s",), (TPCC, MICRO)),
    LayerMetric("lang.parse_transaction.setup_s", "s", "lower",
                "parse_transaction as the workload modules bind it", ("setup_s",), (TPCC, MICRO)),
    LayerMetric("runtime.codec.encode.us_p50", "us", "lower",
                "encode_message / encode_payload as runtime.transport and runtime.serve bind them",
                ("txn_per_s",) + _P50, (SERVE,), (TPCC, QUOTA, MICRO)),
    LayerMetric("runtime.codec.decode.us_p50", "us", "lower",
                "decode_message / decode_payload as runtime.transport and runtime.serve bind them",
                ("txn_per_s",) + _P50, (SERVE,), (TPCC, QUOTA, MICRO)),
    LayerMetric("runtime.frames_per_txn", "count", "lower", "wire_stats() frames_sent",
                ("txn_per_s",) + _P50, (SERVE,), (TPCC, QUOTA, MICRO)),
    LayerMetric("runtime.bytes_per_txn", "bytes", "lower", "wire_stats() bytes_sent",
                ("txn_per_s",) + _P50, (SERVE,), (TPCC, QUOTA, MICRO)),
    LayerMetric("runtime.transport.send.us_p50", "us", "lower", "AsyncTransport.send",
                _P99, (SERVE,)),
    LayerMetric("runtime.kernel_wait.ms_p50", "ms", "lower",
                "AsyncClusterHost.run_on_kernel minus the body it runs", _P50 + ("txn_per_s",), (SERVE,)),
    LayerMetric("runtime.kernel_busy_ratio", "ratio", "higher",
                "kernel-thread body time / timed wall", _P50 + ("txn_per_s",), (SERVE,)),
    LayerMetric("runtime.client_overhead.ms_p50", "ms", "lower",
                "client round trip minus the server-side dispatch span", _P50, (SERVE,)),
    LayerMetric("runtime.span_count", "count", "lower",
                "runtime.* spans in the traced phase (nonzero only on serve)", (), (SERVE,)),
    LayerMetric("tracing.overhead_ratio", "ratio", "lower",
                "1 - traced txn_per_s / untraced txn_per_s, in one run", (), ()),
)


# -- derivation -----------------------------------------------------------------


def _p50(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(end: Mapping[str, float], start: Mapping[str, float], key: str) -> float:
    return end.get(key, 0) - start.get(key, 0)


def derive(
    spans: Iterable[Span],
    window: tuple[int, int],
    wall_s: float,
    setup_window: tuple[int, int],
    counters: tuple[Mapping[str, float], Mapping[str, float]],
    negotiation_ms: Sequence[float],
    client_rtt_ns: Sequence[Sequence[int]] = (),
    tps: tuple[float, float] = (0.0, 0.0),
) -> dict[str, float]:
    """Every :data:`PER_LAYER` value from one traced run.

    ``window`` and ``setup_window`` are ``perf_counter_ns`` intervals
    of the traced phase and of set-up, ``wall_s`` the traced phase's
    timed wall (request generation excluded); ``counters`` are the cluster
    counters at the start and end of the traced phase;
    ``negotiation_ms`` the latencies of synced submissions;
    ``client_rtt_ns`` one list of round trips per serve connection, in
    request order; ``tps`` the (untraced, traced) throughput.
    """
    lo, hi = window
    in_window: list[Span] = []
    setup_total: dict[str, int] = {}
    connections: list[Span] = []
    for span in spans:
        name, start, end = span[0], span[1], span[2]
        if name == "runtime.serve.connection":
            # Open for the whole run: matched to client connections
            # by accept order, not by the window.
            connections.append(span)
        elif lo <= start and end <= hi:
            in_window.append(span)
        elif setup_window[0] <= start and end <= setup_window[1]:
            setup_total[name] = setup_total.get(name, 0) + end - start

    durations: dict[str, list[int]] = {}
    child_time: dict[int, int] = {}
    children: dict[int, list[Span]] = {}
    for span in in_window:
        name, start, end, _sid, parent = span[:5]
        durations.setdefault(name, []).append(end - start)
        child_time[parent] = child_time.get(parent, 0) + end - start
        children.setdefault(parent, []).append(span)

    def self_s(name: str) -> float:
        return sum(
            (s[2] - s[1]) - child_time.get(s[3], 0) for s in in_window if s[0] == name
        ) / 1e9

    def p50(name: str, scale: float) -> float:
        return _p50(durations.get(name, ())) / scale

    def total_s(name: str) -> float:
        return sum(durations.get(name, ())) / 1e9

    start, end = counters
    negotiations = _delta(end, start, "negotiations")
    submitted = _delta(end, start, "submitted")
    rounds = _delta(end, start, "cleanup_rounds")

    def per_negotiation_ms(name: str) -> float:
        return _ratio(total_s(name) * 1e3, negotiations)

    # Kernel hop: each run_on_kernel span has exactly one body child.
    kernel_wait = [
        (s[2] - s[1]) - child_time.get(s[3], 0)
        for s in in_window
        if s[0] == "runtime.run_on_kernel"
    ]
    # Serve connections, in accept order; each one's in-window
    # dispatch spans pair with its client round trips in request order.
    overhead: list[int] = []
    connections.sort(key=lambda s: s[1])
    for rtts, conn in zip(client_rtt_ns, connections):
        dispatches = sorted(
            (s for s in children.get(conn[3], ()) if s[0] == "runtime.serve.dispatch"),
            key=lambda s: s[1],
        )
        overhead.extend(rtt - (d[2] - d[1]) for rtt, d in zip(rtts, dispatches))

    fast = _delta(end, start, "fast_commits")
    settled = _delta(end, start, "settled_commits")
    checked = _delta(end, start, "checked")
    untraced_tps, traced_tps = tps
    values = {
        "protocol.execute.us_p50": p50("protocol.execute", 1e3),
        "protocol.execute.self_s": self_s("protocol.execute"),
        "protocol.execute.wall_share": _ratio(total_s("protocol.execute"), wall_s),
        "protocol.dispatch.us_p50": p50("protocol.dispatch", 1e3),
        "lang.execute.us_p50": p50("lang.execute", 1e3),
        "treaty.escrow.fast_commit_ratio": _ratio(fast, fast + settled),
        "analysis.free_ratio": _ratio(
            _delta(end, start, "free") + _delta(end, start, "absorbed"), checked
        ),
        "analysis.checks_per_commit": _ratio(
            _delta(end, start, "clauses_in_scope"), checked
        ),
        "protocol.generate.ms_p50": p50("protocol.generate", 1e6),
        "protocol.generate.self_s": self_s("protocol.generate"),
        "protocol.negotiation.wall_share": _ratio(
            total_s("protocol.generate") + total_s("protocol.install"), wall_s
        ),
        "treaty.configure_from_samples.ms_per_negotiation": per_negotiation_ms(
            "treaty.configure_from_samples"
        ),
        "treaty.sample_executions.ms_per_negotiation": per_negotiation_ms(
            "treaty.sample_executions"
        ),
        "solver.solve_budget_allocation.ms_per_negotiation": per_negotiation_ms(
            "solver.solve_budget_allocation"
        ),
        "treaty.build_templates.ms_per_negotiation": per_negotiation_ms(
            "treaty.build_templates"
        ),
        "treaty.assemble.ms_p50": p50("treaty.assemble", 1e6),
        "logic.linearize_for_treaty.ms_per_negotiation": per_negotiation_ms(
            "logic.linearize_for_treaty"
        ),
        "treaty.instances_recomputed_per_negotiation": _ratio(
            _delta(end, start, "instances_recomputed"), negotiations
        ),
        "treaty.clauses_per_local_treaty": end.get("clauses_per_local_treaty", 0.0),
        "protocol.install.ms_p50": p50("protocol.install", 1e6),
        "analysis.build_path_checks.ms_p50": p50("analysis.build_path_checks", 1e6),
        "logic.lower_to_escrow.ms_p50": p50("logic.lower_to_escrow", 1e6),
        "storage.wal_append.us_p50": p50("storage.wal_append", 1e3),
        "storage.encode_local_treaty.us_p50": p50("storage.encode_local_treaty", 1e3),
        "storage.wal.bytes_per_negotiation": _ratio(
            _delta(end, start, "wal_bytes"), negotiations
        ),
        "protocol.negotiation.ms_p50": _p50(negotiation_ms),
        "protocol.messages_per_negotiation": _ratio(
            _delta(end, start, "cleanup_messages"), rounds
        ),
        "protocol.participants_per_negotiation": _ratio(
            _delta(end, start, "cleanup_participants"), rounds
        ),
        "analysis.build_symbolic_table.setup_s": setup_total.get(
            "analysis.build_symbolic_table", 0
        )
        / 1e9,
        "lang.parse_transaction.setup_s": setup_total.get("lang.parse_transaction", 0)
        / 1e9,
        "runtime.codec.encode.us_p50": p50("runtime.codec.encode", 1e3),
        "runtime.codec.decode.us_p50": p50("runtime.codec.decode", 1e3),
        "runtime.frames_per_txn": _ratio(_delta(end, start, "frames_sent"), submitted),
        "runtime.bytes_per_txn": _ratio(_delta(end, start, "bytes_sent"), submitted),
        "runtime.transport.send.us_p50": p50("runtime.transport.send", 1e3),
        "runtime.kernel_wait.ms_p50": _p50(kernel_wait) / 1e6,
        "runtime.kernel_busy_ratio": _ratio(total_s(KERNEL_BODY), wall_s),
        "runtime.client_overhead.ms_p50": _p50(overhead) / 1e6,
        "runtime.span_count": float(
            sum(1 for s in in_window if s[0].startswith("runtime."))
        ),
        "tracing.overhead_ratio": 1.0 - _ratio(traced_tps, untraced_tps),
    }
    return values


def cluster_counters(cluster: Any) -> dict[str, float]:
    """The cluster counters per-layer metrics are deltas of."""
    stats = cluster.stats
    rounds = cluster.transport.cleanup_rounds()
    escrow = cluster.escrow_stats()
    classifier = cluster.classifier_stats()
    treaties = [
        len(site.local_treaty.constraints)
        for site in cluster.sites.values()
        if site.local_treaty is not None
    ]
    wire = getattr(cluster.transport, "frames_sent", 0), getattr(
        cluster.transport, "bytes_sent", 0
    )
    return {
        "submitted": stats.submitted,
        "negotiations": stats.negotiations,
        "instances_recomputed": cluster.generator.instances_recomputed,
        "wal_bytes": sum(site.wal.size_bytes() for site in cluster.sites.values()),
        "fast_commits": escrow.get("fast_commits", 0),
        "settled_commits": escrow.get("settled_commits", 0),
        "checked": classifier.get("checked", 0),
        "free": classifier.get("free", 0),
        "absorbed": classifier.get("absorbed", 0),
        "clauses_in_scope": classifier.get("clauses_in_scope", 0),
        "cleanup_rounds": len(rounds),
        "cleanup_messages": sum(len(r.messages) for r in rounds),
        "cleanup_participants": sum(len(r.participants) for r in rounds),
        "clauses_per_local_treaty": _ratio(sum(treaties), len(treaties)),
        "frames_sent": wire[0],
        "bytes_sent": wire[1],
    }
