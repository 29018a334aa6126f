"""Cluster construction facade: :class:`ClusterSpec` + :func:`build_cluster`.

The protocol kernels grew out of a 12-positional-argument constructor
that no server can be configured through.  A :class:`ClusterSpec` is
the declarative replacement: one frozen value naming the sites, the
analysis products (symbolic tables, ground tables, object placement),
and every protocol option -- reusable, inspectable, and independent
of which kernel executes it.  :func:`build_cluster` turns a spec into
a running cluster:

- ``kernel="sequential"`` -- the one-transaction-at-a-time
  :class:`~repro.protocol.homeostasis.HomeostasisCluster` (the
  deterministic reference kernel and differential oracle);
- ``kernel="concurrent"`` -- the windowed
  :class:`~repro.protocol.concurrent.ConcurrentCluster` with a real
  vote phase between racing violators;
- ``kernel="async"`` -- the wall-clock
  :class:`~repro.runtime.cluster.AsyncClusterHost`, where each site
  runs as an asyncio task and every inter-site message crosses an
  event loop as encoded wire frames.

The spec builds a *fresh* :class:`TreatyGenerator` per cluster
(generators carry per-round caches), so one spec can configure a
cluster and its differential oracle side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import Transaction
from repro.protocol.homeostasis import (
    AdaptiveSettings,
    HomeostasisCluster,
    OptimizerSettings,
    TreatyGenerator,
)
from repro.protocol.messages import Outcome
from repro.protocol.paxos_commit import NegotiationSpec
from repro.protocol.transport import Transport

if TYPE_CHECKING:  # pragma: no cover - runtime imports protocol, not back
    from repro.runtime.cluster import AsyncClusterHost

__all__ = ["ClusterSpec", "NegotiationSpec", "Outcome", "build_cluster"]

#: Kernels :func:`build_cluster` can instantiate.
KERNELS = ("sequential", "concurrent", "async")


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to construct a homeostasis cluster, as data.

    The analysis products (``tables``, ``ground_tables``,
    ``families``) come out of the workload builders -- see e.g.
    :meth:`repro.workloads.micro.MicroWorkload.cluster_spec` -- and the
    remaining fields are the protocol options that used to be
    constructor keywords.
    """

    #: participating site ids
    sites: tuple[int, ...]
    #: object placement: object name -> owning site
    locate: Callable[[str], int]
    #: initial database contents (applied at every site, then
    #: checkpointed)
    initial_db: Mapping[str, int]
    #: runtime symbolic tables, one per registered transaction variant
    tables: tuple[SymbolicTable, ...]
    #: transaction name -> origin (home) site
    tx_home: Mapping[str, int]
    #: per-ground-instance symbolic tables with home sites, the treaty
    #: generator's input
    ground_tables: tuple[tuple[SymbolicTable, int], ...]
    #: family transactions, for optimizer workload simulation
    families: Mapping[str, Transaction] = field(default_factory=dict)
    #: declared array domains (parameterized object families)
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    #: treaty configuration strategy:
    #: 'default' | 'equal-split' | 'optimized' | 'demand'
    strategy: str = "default"
    #: Algorithm 1 knobs (required by strategy='optimized')
    optimizer: OptimizerSettings | None = None
    #: adaptive-reallocation knobs (enables watermark refreshes)
    adaptive: AdaptiveSettings | None = None
    #: non-blocking negotiation knobs: attach a
    #: :class:`~repro.protocol.paxos_commit.NegotiationSpec` to run
    #: cleanup-round commit decisions through a Paxos Commit acceptor
    #: quorum (survivor-completable) and to pick the arbitration
    #: policy; None keeps the legacy single-coordinator decision
    negotiation: NegotiationSpec | None = None
    #: run the validation oracles (H1/H2, sync agreement, escrow
    #: cross-checks) next to every protocol step
    validate: bool = False
    #: deterministic treaty solver: participants regenerate treaties
    #: locally, eliding the install round (Section 5.1)
    deterministic_solver: bool = True
    #: hooks invoked after every synchronization round
    post_sync_hooks: tuple[Callable[[HomeostasisCluster], None], ...] = ()

    def make_generator(self) -> TreatyGenerator:
        """A fresh treaty generator for one cluster instance.

        Fresh per call on purpose: generators carry per-round caches
        and the online demand estimator, which must not be shared
        between a cluster and its differential oracle.
        """
        return TreatyGenerator(
            ground_tables=list(self.ground_tables),
            locate=self.locate,
            sites=tuple(self.sites),
            strategy=self.strategy,
            optimizer=self.optimizer,
            families=dict(self.families),
            arrays=dict(self.arrays),
        )


def build_cluster(
    spec: ClusterSpec,
    *,
    kernel: str = "sequential",
    transport: Transport | None = None,
    **kernel_options: Any,
) -> "HomeostasisCluster | AsyncClusterHost":
    """Instantiate the cluster a :class:`ClusterSpec` describes.

    ``transport`` overrides the message fabric (fault plans attach
    here); the async kernel builds its own wall-clock transport and
    accepts fault/timeout knobs through ``kernel_options`` (see
    :class:`~repro.runtime.cluster.AsyncClusterHost`), which the
    in-process kernels reject.
    """
    if kernel == "sequential" or kernel == "concurrent":
        if kernel_options:
            unknown = ", ".join(sorted(kernel_options))
            raise TypeError(
                f"kernel {kernel!r} takes no extra options (got {unknown})"
            )
        if kernel == "sequential":
            return HomeostasisCluster(spec, transport=transport)
        from repro.protocol.concurrent import ConcurrentCluster

        return ConcurrentCluster(spec, transport=transport)
    if kernel == "async":
        # Imported lazily: the asyncio runtime is a consumer of the
        # protocol layer, not a dependency of it.
        from repro.runtime.cluster import AsyncClusterHost

        return AsyncClusterHost(spec, transport=transport, **kernel_options)
    raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
