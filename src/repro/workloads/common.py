"""Shared machinery for the scenario-fleet workloads.

The original five workloads each hand-roll the same builder spine:
``cluster_spec`` assembling a :class:`ClusterSpec` from the analysis
products, ``build_homeostasis`` / ``build_concurrent`` instantiating a
kernel from it, and the LOCAL / 2PC baseline constructors.  The
scenario fleet (flash-sale, banking, quota) shares that spine through
:class:`ReplicatedWorkloadBase` instead of triplicating it.

The module also hosts the construction-time spec validators.  A
misconfigured workload used to fail deep inside the kernel -- a zero
item count surfaces as an opaque ``ValueError`` from the treaty
generator's empty ground basis, an unknown site as a ``KeyError``
mid-negotiation.  Every workload now validates its frozen spec in
``__post_init__`` and raises :class:`WorkloadSpecError` with the
field name in the message, so bad configs die at the constructor.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.protocol.baselines import LocalCluster, TwoPhaseCommitCluster
from repro.protocol.concurrent import ConcurrentCluster
from repro.protocol.config import ClusterSpec, NegotiationSpec
from repro.protocol.homeostasis import (
    AdaptiveSettings,
    HomeostasisCluster,
    OptimizerSettings,
)
from repro.treaty.optimize import SequenceWorkloadModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocol.remote_writes import ReplicationSpec


class WorkloadSpecError(ValueError):
    """A workload was constructed with an invalid frozen spec.

    Subclasses ``ValueError`` so existing ``pytest.raises(ValueError)``
    call sites keep working; the message always names the offending
    field and the value it received.
    """


def require_positive(name: str, value: int | float) -> None:
    if not value > 0:
        raise WorkloadSpecError(f"{name} must be positive, got {value!r}")


def require_at_least(name: str, value: int | float, floor: int | float) -> None:
    if value < floor:
        raise WorkloadSpecError(f"{name} must be >= {floor}, got {value!r}")


def require_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise WorkloadSpecError(f"{name} must be in [0, 1], got {value!r}")


def require_sites(name: str, num_sites: int, floor: int = 1) -> None:
    """Site counts: at least ``floor`` (replication needs two)."""
    if num_sites < floor:
        raise WorkloadSpecError(
            f"{name} must be >= {floor} site(s), got {num_sites!r}"
        )


def require_nonempty(name: str, value: Sequence) -> None:
    if len(value) == 0:
        raise WorkloadSpecError(f"{name} must be non-empty")


class ReplicatedWorkloadBase:
    """Builder spine shared by the scenario-fleet workloads.

    Subclasses populate (normally in ``__post_init__``):

    - ``sites`` -- tuple of site ids;
    - ``spec`` -- the :class:`ReplicationSpec` placing bases/deltas;
    - ``variants`` -- transformed per-site transactions by name;
    - ``tx_home`` -- transaction name -> origin site;
    - ``initial_db`` -- replicated initial store (deltas included);
    - ``initial_values`` -- the un-replicated logical values (for the
      LOCAL / 2PC baselines, which replicate full state);
    - ``default_strategy`` -- the treaty strategy builders default to;

    and implement :meth:`ground_tables` plus :meth:`workload_model`
    (only needed for ``strategy="optimized"``) and
    :meth:`baseline_transactions` (untransformed variants for the
    baselines).
    """

    sites: tuple[int, ...]
    spec: "ReplicationSpec"
    variants: dict[str, Transaction]
    tx_home: dict[str, int]
    initial_db: dict[str, int]
    initial_values: dict[str, int]
    default_strategy: str = "equal-split"

    # -- analysis products ---------------------------------------------------

    def locate(self, name: str) -> int:
        return self.spec.locate(name, fallback=0)

    def runtime_tables(self) -> list[SymbolicTable]:
        return [build_symbolic_table(tx) for tx in self.variants.values()]

    def ground_tables(self) -> list[tuple[SymbolicTable, int]]:
        raise NotImplementedError

    def workload_model(self) -> SequenceWorkloadModel:
        raise NotImplementedError

    # -- cluster builders ----------------------------------------------------

    def cluster_spec(
        self,
        strategy: str | None = None,
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
        negotiation: NegotiationSpec | None = None,
    ) -> ClusterSpec:
        """The workload as a :class:`ClusterSpec` (feed
        :func:`~repro.protocol.config.build_cluster` with any kernel)."""
        if strategy is None:
            strategy = self.default_strategy
        optimizer = None
        if strategy == "optimized":
            optimizer = OptimizerSettings(
                model=self.workload_model(),
                lookahead=lookahead,
                cost_factor=cost_factor,
                rng=random.Random(seed),
            )
        return ClusterSpec(
            sites=self.sites,
            locate=self.locate,
            initial_db=self.initial_db,
            tables=tuple(self.runtime_tables()),
            tx_home=self.tx_home,
            ground_tables=tuple(self.ground_tables()),
            families=dict(self.variants),
            strategy=strategy,
            optimizer=optimizer,
            adaptive=adaptive,
            negotiation=negotiation,
            validate=validate,
        )

    def build_homeostasis(
        self,
        strategy: str | None = None,
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
        negotiation: NegotiationSpec | None = None,
        cluster_cls: type[HomeostasisCluster] = HomeostasisCluster,
    ) -> HomeostasisCluster:
        spec = self.cluster_spec(
            strategy=strategy,
            lookahead=lookahead,
            cost_factor=cost_factor,
            seed=seed,
            validate=validate,
            adaptive=adaptive,
            negotiation=negotiation,
        )
        return cluster_cls(spec)

    def build_concurrent(self, **kwargs) -> ConcurrentCluster:
        """The same cluster under the concurrent cleanup runtime
        (windowed submissions, real vote phase)."""
        return self.build_homeostasis(cluster_cls=ConcurrentCluster, **kwargs)

    def baseline_transactions(self) -> dict[str, Transaction]:
        raise NotImplementedError

    def build_local(self) -> LocalCluster:
        return LocalCluster(
            site_ids=self.sites,
            initial_db=dict(self.initial_values),
            transactions=self.baseline_transactions(),
            tx_home=self.tx_home,
        )

    def build_2pc(self) -> TwoPhaseCommitCluster:
        return TwoPhaseCommitCluster(
            site_ids=self.sites,
            initial_db=dict(self.initial_values),
            transactions=self.baseline_transactions(),
            tx_home=self.tx_home,
        )

    def reference_transaction(self, name: str) -> Transaction:
        """The transformed transaction for serial-equivalence checks."""
        return self.variants[name]
