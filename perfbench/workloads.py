"""The benchmark's workloads: their inputs, set-up and serial reference.

Every workload is closed loop and driven from one process.  The
request stream is a pure function of the ``--seed`` argument, so a
run's inputs can be regenerated for the correctness leg instead of
being kept in memory while the run is timed.  No message delay is
injected anywhere: in-process delivery is immediate and
``serve-micro`` talks over loopback, so latency here is processor
time, and ``sync_ratio`` stands in for the wide-area cost of a
negotiation.

Why these four (see ``BENCHMARK.json`` for the one-line form):

- ``tpcc-optimized``: the paper's main benchmark.  Negotiation --
  treaty generation under Algorithm 1 -- dominates its wall time.
- ``quota-tenants``: the same negotiation layer used differently: no
  solver, many small independent treaty factors, so per-site treaty
  install and template building dominate.
- ``micro-local``: ample headroom, so it never negotiates; the
  disconnected commit path is nearly all of its wall time.  Any
  negotiation-side change should leave it unchanged.
- ``serve-micro``: the asyncio runtime behind ``repro-serve``, where
  every negotiation crosses the wire codec and the async transport.
  Two connections buy disjoint item sets (connection ``k`` only items
  ``i`` with ``i % 2 == k``), so the final state does not depend on
  how their requests interleave.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro import (
    MicroWorkload,
    QuotaWorkload,
    TpccWorkload,
    build_cluster,
    evaluate,
)

Request = tuple[str, dict[str, int]]


@dataclass(frozen=True)
class InProcess:
    """A workload on the sequential kernel with one in-process client."""

    name: str
    make: Callable[[], Any]
    strategy: str
    #: cards per transaction family in one deck of the request mix
    deck: tuple[tuple[str, int], ...]
    #: untimed requests before the timed phase, so that it starts in
    #: steady state (quota's counters all start at 0, so its first
    #: ~1,300 requests negotiate far less often than later ones)
    warmup: int

    def build(self) -> tuple[Any, Any]:
        """Set-up as a user pays it: spec construction plus
        ``build_cluster``, including the initial treaty install."""
        workload = self.make()
        return workload, build_cluster(workload.cluster_spec(strategy=self.strategy))

    def requests(self, workload: Any, seed: int) -> Iterator[Request]:
        """The workload's own requests, dealt family by family from
        shuffled decks (the TPC-C specification's card-deck rule), so
        every seed sees exactly the deck's mix.  A card's request is the
        workload's next request of that family, which keeps the
        workload's parameter distribution within each family."""
        rng = random.Random(seed)
        deck = [family for family, cards in self.deck for _ in range(cards)]
        while True:
            rng.shuffle(deck)
            for family in deck:
                request = workload.next_request(rng)
                while not request.tx_name.startswith(family + "@"):
                    request = workload.next_request(rng)
                yield request.tx_name, request.params


IN_PROCESS = {
    w.name: w
    for w in (
        InProcess(
            "tpcc-optimized",
            TpccWorkload,
            "optimized",
            deck=(("NewOrder", 9), ("Payment", 9), ("Delivery", 2)),
            warmup=100,
        ),
        InProcess(
            "quota-tenants",
            lambda: QuotaWorkload(num_tenants=150, limit=12, usage_fraction=0.05),
            "equal-split",
            deck=(("Hit", 19), ("Usage", 1)),
            warmup=2000,
        ),
        InProcess(
            "micro-local",
            lambda: MicroWorkload(num_items=1000, refill=1000, audit_fraction=0.25),
            "equal-split",
            deck=(("Buy", 3), ("Audit", 1)),
            warmup=2000,
        ),
    )
}

SERVE = "serve-micro"
SERVE_ITEMS, SERVE_REFILL, SERVE_CONNECTIONS = 12, 9, 2
#: untimed requests per connection before the timed phase
SERVE_WARMUP = 100
#: ``repro-serve`` arguments of the serve workload
SERVE_ARGS = (
    "--workload", "micro", "--strategy", "equal-split",
    "--items", str(SERVE_ITEMS), "--refill", str(SERVE_REFILL),
)
WORKLOADS = (*IN_PROCESS, SERVE)


def serve_workload() -> MicroWorkload:
    """The workload ``repro-serve`` builds from :data:`SERVE_ARGS`."""
    return MicroWorkload(num_items=SERVE_ITEMS, refill=SERVE_REFILL)


def serve_requests(seed: int, connection: int) -> Iterator[Request]:
    """Connection ``k``'s stream: ``Buy`` at a random site of a random
    item ``i`` with ``i % SERVE_CONNECTIONS == k``."""
    rng = random.Random(seed * SERVE_CONNECTIONS + connection)
    per_connection = SERVE_ITEMS // SERVE_CONNECTIONS
    while True:
        site = rng.randrange(2)
        item = connection + SERVE_CONNECTIONS * rng.randrange(per_connection)
        yield f"Buy@s{site}", {"item": item}


def serial_replay(workload: Any, requests: Iterable[Request]) -> dict[str, int]:
    """The final database of running ``requests`` one after another
    through the interpreter, from the workload's initial database."""
    state = dict(workload.initial_db)
    for tx_name, params in requests:
        state = evaluate(workload.reference_transaction(tx_name), state, params).db
    return state


def mismatches(actual: Mapping[str, int], expected: Mapping[str, int]) -> list[str]:
    """Keys whose values differ (an absent object reads as 0, the
    interpreter's null default)."""
    return sorted(
        key
        for key in set(actual) | set(expected)
        if actual.get(key, 0) != expected.get(key, 0)
    )
