"""The benchmark's own tests: correctness leg, serve interleaving
independence, tracing that restores what it wraps, and agreement of
``BENCHMARK.json`` with the metrics the command prints."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER, derive
from repro import MicroWorkload, QuotaWorkload, TpccWorkload, build_cluster
from source import ROOT
from tracer import BINDINGS, KERNEL_BODY, Recorder, raw_binding, resolve
from workloads import (
    IN_PROCESS,
    SERVE_CONNECTIONS,
    WORKLOADS,
    mismatches,
    serial_replay,
    serve_requests,
    serve_workload,
)

#: each in-process workload's constructor, shrunk so a test run is quick
TOY = {
    "tpcc-optimized": lambda: TpccWorkload(
        num_warehouses=1, num_districts=1, items_per_district=8, num_customers=5
    ),
    "quota-tenants": lambda: QuotaWorkload(num_tenants=6, limit=4, usage_fraction=0.05),
    "micro-local": lambda: MicroWorkload(num_items=20, refill=20, audit_fraction=0.25),
}


def _check_result(result: dict, names) -> None:
    assert result["correct"], result["summary"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(names) <= set(result["metrics"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TOY))
def test_toy_in_process_run_passes_correctness_leg(name, trace):
    spec = dataclasses.replace(IN_PROCESS[name], make=TOY[name], warmup=20)
    result = run.run_in_process(spec, seed=3, seconds=0.4, trace=trace, setup_reps=2)
    names = [m.name for m in PER_LAYER] if trace else run.END_TO_END_UNITS
    _check_result(result, names)


@pytest.mark.parametrize("trace", [False, True])
def test_toy_serve_run_passes_correctness_leg(trace):
    result = run.run_serve(ROOT, seed=3, seconds=0.6, trace=trace, setup_reps=2)
    names = [m.name for m in PER_LAYER] if trace else run.END_TO_END_UNITS
    _check_result(result, names)
    if trace:
        assert result["metrics"]["runtime.span_count"] > 0
        assert result["metrics"]["runtime.frames_per_txn"] > 0


def _interleave(streams, rng):
    """One random merge of several streams, each kept in order."""
    pending = [list(s) for s in streams]
    merged = []
    while any(pending):
        choice = rng.choice([i for i, s in enumerate(pending) if s])
        merged.append(pending[choice].pop(0))
    return merged


def test_serve_streams_commute():
    """Any interleaving of the serve connections' streams ends in the
    same state, both replayed serially and run on the kernel."""
    streams = [
        list(itertools.islice(serve_requests(seed=7, connection=k), 150))
        for k in range(SERVE_CONNECTIONS)
    ]
    workload = serve_workload()
    reference = serial_replay(workload, itertools.chain(*streams))
    for merge_seed in range(4):
        merged = _interleave(streams, random.Random(merge_seed))
        assert not mismatches(serial_replay(workload, merged), reference)
        cluster = build_cluster(workload.cluster_spec(strategy="equal-split"))
        for tx_name, params in merged:
            cluster.submit(tx_name, params)
        assert cluster.stats.negotiations > 0
        assert not mismatches(cluster.global_state(), reference)


def test_serve_streams_touch_disjoint_items():
    for k in range(SERVE_CONNECTIONS):
        items = {
            params["item"]
            for _, params in itertools.islice(serve_requests(seed=1, connection=k), 200)
        }
        assert items and all(item % SERVE_CONNECTIONS == k for item in items)


def test_wrap_and_unwrap_restores_every_binding():
    originals = [raw_binding(*resolve(module, path)) for module, path, _ in BINDINGS]
    recorder = Recorder()
    recorder.install()
    try:
        for (module, path, _), original in zip(BINDINGS, originals):
            assert raw_binding(*resolve(module, path)) is not original, path
    finally:
        recorder.uninstall()
    for (module, path, _), original in zip(BINDINGS, originals):
        assert raw_binding(*resolve(module, path)) is original, path


def test_traced_calls_nest_under_their_callers():
    recorder = Recorder()
    recorder.install()
    try:
        workload = TOY["micro-local"]()
        cluster = build_cluster(workload.cluster_spec(strategy="equal-split"))
        cluster.submit("Buy@s0", {"item": 1})
    finally:
        recorder.uninstall()
    by_id = {span[3]: span for span in recorder.spans}
    dispatch = [s for s in recorder.spans if s[0] == "protocol.dispatch"][-1]
    execute = by_id[dispatch[4]]
    assert execute[0] == "protocol.execute"
    assert execute[1] <= dispatch[1] and dispatch[2] <= execute[2]
    assert dispatch[5] == execute[5] == execute[3]
    assert any(s[0] == "analysis.build_symbolic_table" for s in recorder.spans)


def test_self_time_and_kernel_wait():
    spans = [
        ("runtime.run_on_kernel", 100, 1100, 1, 0, 1),
        (KERNEL_BODY, 400, 1000, 2, 1, 1),
        ("protocol.execute", 500, 900, 3, 2, 1),
        ("protocol.dispatch", 600, 700, 4, 3, 1),
    ]
    zero = {"negotiations": 0, "submitted": 0}
    values = derive(spans, (0, 2000), 2e-6, (0, 0), (zero, zero), [])
    assert values["protocol.execute.self_s"] == pytest.approx(300e-9)
    assert values["runtime.kernel_wait.ms_p50"] == pytest.approx(400e-6)
    assert values["runtime.kernel_busy_ratio"] == pytest.approx(0.3)
    assert values["protocol.execute.wall_share"] == pytest.approx(0.2)


def test_benchmark_json_matches_the_command():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_fails_without_program_sources(tmp_path):
    """A copy holding only the benchmark exits nonzero, printing no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "micro-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
