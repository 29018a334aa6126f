"""A geo-partitioned microbenchmark: replication groups.

The Section 6.1 microbenchmark replicates one stock array across
*every* site, so any treaty violation involves the whole cluster.
Real geo-distributed catalogs are not like that: an item is stocked
in the two or three regions that sell it.  This workload models that
-- the item space is split into *groups*, each replicated across its
own subset of sites:

    groups = ((0, 1), (2, 3), (0, 4))

gives three disjoint stock arrays, one per group, with writes fanned
across only that group's sites (Appendix B transform per group).

Under the participant-scoped runtime a violation of group ``g``'s
treaty drags in exactly ``g``'s sites: the sync round is ``p*(p-1)``
messages instead of ``K*(K-1)``, and the simulator prices it from the
slowest RTT edge *inside the group* -- on the Table 1 matrix a UE<->UW
(sites 0, 1) violation costs 2 x 64 ms, not the 2 x 372 ms SG<->BR
cluster diameter.  Groups negotiate independently; the far side of
the cluster never hears about it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.ground import ground_instances
from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.lang.parser import parse_transaction
from repro.protocol.concurrent import ConcurrentCluster
from repro.protocol.config import ClusterSpec, NegotiationSpec
from repro.protocol.homeostasis import (
    AdaptiveSettings,
    HomeostasisCluster,
    OptimizerSettings,
)
from repro.protocol.remote_writes import (
    ReplicationSpec,
    initial_replicated_db,
    replicate_workload,
)
from repro.treaty.optimize import SequenceWorkloadModel
from repro.workloads.common import (
    WorkloadSpecError,
    require_nonempty,
    require_positive,
)


def group_buy_source(gid: int, base: str, refill: int) -> str:
    """Listing 1 over one group's stock array."""
    return f"""
    transaction Buy{gid}(item) {{
      q := read({base}(@item));
      if q > 1 then {{ write({base}(@item) = q - 1) }}
      else {{ write({base}(@item) = {refill} - 1) }}
    }}"""


@dataclass
class GeoRequest:
    """One client request, as the simulator sees it."""

    tx_name: str
    params: dict[str, int]
    site: int
    items: tuple[str, ...]
    group: int


@dataclass
class GeoMicroWorkload:
    """Builder for the replication-group microbenchmark."""

    groups: tuple[tuple[int, ...], ...] = ((0, 1), (2, 3))
    num_sites: int | None = None
    items_per_group: int = 12
    refill: int = 24
    #: 'refill' starts every item full; 'random' draws uniform stock
    initial_qty: str = "refill"
    init_seed: int = 1

    def __post_init__(self) -> None:
        require_nonempty("groups", self.groups)
        for gid, group in enumerate(self.groups):
            if len(group) == 0:
                raise WorkloadSpecError(
                    f"groups[{gid}] must name at least one site"
                )
            if len(set(group)) != len(group):
                raise WorkloadSpecError(
                    f"groups[{gid}] repeats a site: {group!r}"
                )
        require_positive("items_per_group", self.items_per_group)
        require_positive("refill", self.refill)
        if self.initial_qty not in ("refill", "random"):
            raise WorkloadSpecError(
                f"initial_qty must be 'refill' or 'random', got "
                f"{self.initial_qty!r}"
            )
        highest = max(s for g in self.groups for s in g)
        if self.num_sites is None:
            self.num_sites = 1 + highest
        elif self.num_sites <= highest:
            raise WorkloadSpecError(
                f"num_sites={self.num_sites!r} does not cover site "
                f"{highest} named in groups"
            )
        self.sites = tuple(range(self.num_sites))
        self.bases = tuple(f"qty{gid}" for gid in range(len(self.groups)))
        self.spec = ReplicationSpec(
            bases={base: tuple(g) for base, g in zip(self.bases, self.groups)},
            home={base: g[0] for base, g in zip(self.bases, self.groups)},
        )
        self.families: dict[int, Transaction] = {}
        self.variants: dict[str, Transaction] = {}
        self.tx_home: dict[str, int] = {}
        self.group_of_tx: dict[str, int] = {}
        for gid, (base, members) in enumerate(zip(self.bases, self.groups)):
            family = parse_transaction(group_buy_source(gid, base, self.refill))
            self.families[gid] = family
            for name, tx in replicate_workload([family], members, self.spec).items():
                self.variants[name] = tx
                self.tx_home[name] = int(name.rsplit("@s", 1)[1])
                self.group_of_tx[name] = gid

        init_rng = random.Random(self.init_seed)
        self.initial_values: dict[str, int] = {}
        for base in self.bases:
            for i in range(self.items_per_group):
                if self.initial_qty == "random":
                    value = init_rng.randint(2, self.refill)
                else:
                    value = self.refill
                self.initial_values[f"{base}[{i}]"] = value
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )
        #: groups a site originates requests for
        self.groups_of_site = {
            s: tuple(g for g, members in enumerate(self.groups) if s in members)
            for s in self.sites
        }

    # -- analysis products ----------------------------------------------------

    def locate(self, name: str) -> int:
        return self.spec.locate(name, fallback=0)

    def runtime_tables(self) -> list[SymbolicTable]:
        return [build_symbolic_table(tx) for tx in self.variants.values()]

    def ground_tables(self) -> list[tuple[SymbolicTable, int]]:
        domains = {"item": list(range(self.items_per_group))}
        out: list[tuple[SymbolicTable, int]] = []
        for name, tx in self.variants.items():
            site = self.tx_home[name]
            for gi in ground_instances(tx, domains):
                out.append((build_symbolic_table(gi.transaction), site))
        return out

    # -- cluster builder ------------------------------------------------------

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            return {"item": rng.randrange(self.items_per_group)}

        return SequenceWorkloadModel(
            mix={name: 1.0 for name in self.variants},
            param_sampler=sample_params,
        )

    def cluster_spec(
        self,
        strategy: str = "equal-split",
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
        negotiation: NegotiationSpec | None = None,
    ) -> ClusterSpec:
        """The workload as a :class:`ClusterSpec` (feed
        :func:`~repro.protocol.config.build_cluster` with any kernel)."""
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
        strategy: str = "equal-split",
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
        """The same cluster under the concurrent cleanup runtime:
        disjoint replication groups violate in the same window and
        negotiate in parallel waves."""
        return self.build_homeostasis(cluster_cls=ConcurrentCluster, **kwargs)

    # -- request generation ---------------------------------------------------

    def next_request(self, rng: random.Random, site: int | None = None) -> GeoRequest:
        """Draw one request.

        A site that belongs to replication groups buys from one of its
        own groups; an idle site (in the deployment but in no group)
        is assigned a group round-robin so simulator clients on every
        replica stay busy.
        """
        if site is None:
            site = rng.randrange(len(self.sites))
        candidates = self.groups_of_site[site]
        if candidates:
            gid = rng.choice(candidates)
            origin = site
        else:
            gid = site % len(self.groups)
            members = self.groups[gid]
            origin = members[site % len(members)]
        item = rng.randrange(self.items_per_group)
        return GeoRequest(
            tx_name=f"Buy{gid}@s{origin}",
            params={"item": item},
            site=origin,
            items=(f"{self.bases[gid]}[{item}]",),
            group=gid,
        )

    def reference_transaction(self, name: str) -> Transaction:
        """The transformed transaction for serial-equivalence checks."""
        return self.variants[name]
