"""The Section 6.1 microbenchmark.

Listing 1 of the paper, over a replicated ``Stock(itemid INT, qty
INT)`` table:

    SELECT qty FROM stock WHERE itemid=@itemid;
    if (qty > 1) then new_qty = qty - 1 else new_qty = REFILL - 1
    UPDATE stock SET qty=new_qty WHERE itemid=@itemid;

In L++ the quantity column is the parameterized array ``qty`` and the
transaction is ``Buy(item)``.  The workload is replicated across
``Nr`` sites via the Appendix B transform, after which the decrement
path writes only the local delta (never synchronizes until its treaty
budget is exhausted) and the refill path performs remote reads (its
matched row pins state, forcing synchronization -- as the demarcation
comparison in Section 6.1 expects).

``MultiBuy`` is the Appendix F.1 variant ordering ``m`` distinct
items per transaction (Figure 27).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.analysis.ground import ground_instances
from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.lang.parser import parse_transaction
from repro.protocol.baselines import LocalCluster, TwoPhaseCommitCluster
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
    require_fraction,
    require_positive,
    require_sites,
)


def buy_source(refill: int) -> str:
    """L++ source of the Listing 1 transaction."""
    return f"""
    transaction Buy(item) {{
      q := read(qty(@item));
      if q > 1 then {{ write(qty(@item) = q - 1) }}
      else {{ write(qty(@item) = {refill} - 1) }}
    }}"""


def audit_source() -> str:
    """L++ source of a read-only stock probe.

    Reads one item's (replicated) quantity and reports it: the
    coordination-freedom classifier proves every path of it FREE, so
    it rides the mixed-OLTP micro scenario as the class of traffic
    that should never pay a treaty check."""
    return """
    transaction Audit(item) {
      q := read(qty(@item));
      print(q)
    }"""


def multibuy_source(refill: int, m: int) -> str:
    """L++ source of the m-item variant (Appendix F.1 / Figure 27)."""
    params = ", ".join(f"item{k}" for k in range(m))
    body = "\n".join(
        f"""
      q{k} := read(qty(@item{k}));
      if q{k} > 1 then {{ write(qty(@item{k}) = q{k} - 1) }}
      else {{ write(qty(@item{k}) = {refill} - 1) }}"""
        for k in range(m)
    )
    distinct = f" distinct({params})" if m > 1 else ""
    return f"transaction MultiBuy({params}){distinct} {{{body}\n}}"


@dataclass
class MicroRequest:
    """One client request, as the simulator sees it."""

    tx_name: str
    params: dict[str, int]
    site: int
    items: tuple[int, ...]


@dataclass
class MicroWorkload:
    """Builder for the microbenchmark across execution modes."""

    num_items: int = 100
    refill: int = 100
    num_sites: int = 2
    items_per_txn: int = 1
    #: relative request weight per site (uniform by default)
    site_weights: dict[int, float] = field(default_factory=dict)
    #: 'refill' starts every item full; 'random' draws uniform stock
    #: levels so measurements start at steady state
    initial_qty: str = "refill"
    init_seed: int = 1
    #: fraction of requests that are read-only ``Audit`` probes (the
    #: classifier-FREE traffic class); 0 keeps the pure Listing 1 mix
    #: and registers no Audit procedures at all
    audit_fraction: float = 0.0

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        require_positive("num_items", self.num_items)
        require_positive("refill", self.refill)
        require_positive("items_per_txn", self.items_per_txn)
        require_fraction("audit_fraction", self.audit_fraction)
        if self.items_per_txn > self.num_items:
            raise WorkloadSpecError(
                f"items_per_txn={self.items_per_txn!r} cannot exceed "
                f"num_items={self.num_items!r} (MultiBuy orders distinct items)"
            )
        if self.initial_qty not in ("refill", "random"):
            raise WorkloadSpecError(
                f"initial_qty must be 'refill' or 'random', got "
                f"{self.initial_qty!r}"
            )
        self.sites = tuple(range(self.num_sites))
        if not self.site_weights:
            self.site_weights = {s: 1.0 for s in self.sites}
        elif set(self.site_weights) != set(self.sites):
            raise WorkloadSpecError(
                f"site_weights keys {sorted(self.site_weights)} must match "
                f"sites {list(self.sites)}"
            )
        if self.items_per_txn == 1:
            self.family = parse_transaction(buy_source(self.refill))
        else:
            self.family = parse_transaction(
                multibuy_source(self.refill, self.items_per_txn)
            )
        self.audit_family: Transaction | None = None
        families = [self.family]
        if self.audit_fraction > 0.0:
            self.audit_family = parse_transaction(audit_source())
            families.append(self.audit_family)
        self.spec = ReplicationSpec(bases={"qty": self.sites}, home={"qty": 0})
        self.variants = replicate_workload(families, self.sites, self.spec)
        self.tx_home = {
            name: int(name.rsplit("@s", 1)[1]) for name in self.variants
        }
        if self.initial_qty == "random":
            init_rng = random.Random(self.init_seed)
            self.initial_values = {
                f"qty[{i}]": init_rng.randint(2, self.refill)
                for i in range(self.num_items)
            }
        else:
            self.initial_values = {
                f"qty[{i}]": self.refill for i in range(self.num_items)
            }
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )

    # -- analysis products ----------------------------------------------------

    def locate(self, name: str) -> int:
        return self.spec.locate(name, fallback=0)

    def runtime_tables(self) -> list[SymbolicTable]:
        return [build_symbolic_table(tx) for tx in self.variants.values()]

    def ground_tables(self) -> list[tuple[SymbolicTable, int]]:
        """Per-instance symbolic tables with home sites, for treaty
        generation.

        For the multi-item variant the ground basis is the *per-item
        projection*: a ``MultiBuy(i1..im)`` instance with distinct
        items touches each item exactly like a single-item ``Buy``
        does, and its joint guard is the conjunction of the per-item
        guards, so grounding the single-item family over the item
        domain yields the identical treaty at cost ``O(items)``
        instead of ``O(items^m)``.
        """
        basis_family = (
            self.family
            if self.items_per_txn == 1
            else parse_transaction(buy_source(self.refill))
        )
        basis_variants = (
            self.variants
            if self.items_per_txn == 1
            else replicate_workload([basis_family], self.sites, self.spec)
        )
        domains = {"item": list(range(self.num_items))}
        out: list[tuple[SymbolicTable, int]] = []
        for name, tx in basis_variants.items():
            if name.startswith("Audit@"):
                # Read-only probe: its single true-guard row would only
                # contribute Appendix C.3 print pins on every quantity
                # -- exactly the coordination the classifier proves it
                # does not need.
                continue
            site = int(name.rsplit("@s", 1)[1])
            for gi in ground_instances(tx, domains):
                out.append((build_symbolic_table(gi.transaction), site))
        return out

    # -- cluster builders ---------------------------------------------------------

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            if self.items_per_txn == 1 or name.startswith("Audit@"):
                return {"item": rng.randrange(self.num_items)}
            items = rng.sample(range(self.num_items), self.items_per_txn)
            return {f"item{k}": it for k, it in enumerate(items)}

        mix: dict[str, float] = {}
        for name in self.variants:
            weight = self.site_weights[self.tx_home[name]]
            if self.audit_family is not None:
                share = (
                    self.audit_fraction
                    if name.startswith("Audit@")
                    else 1.0 - self.audit_fraction
                )
                weight *= share
            mix[name] = weight
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    def cluster_spec(
        self,
        strategy: str = "optimized",
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
        strategy: str = "optimized",
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

    def _baseline_transactions(self) -> dict[str, Transaction]:
        family_name = "Buy" if self.items_per_txn == 1 else "MultiBuy"
        out = {f"{family_name}@s{s}": self.family for s in self.sites}
        if self.audit_family is not None:
            out.update({f"Audit@s{s}": self.audit_family for s in self.sites})
        return out

    def build_local(self) -> LocalCluster:
        return LocalCluster(
            site_ids=self.sites,
            initial_db=dict(self.initial_values),
            transactions=self._baseline_transactions(),
            tx_home=self.tx_home,
        )

    def build_2pc(self) -> TwoPhaseCommitCluster:
        return TwoPhaseCommitCluster(
            site_ids=self.sites,
            initial_db=dict(self.initial_values),
            transactions=self._baseline_transactions(),
            tx_home=self.tx_home,
        )

    # -- request generation -----------------------------------------------------------

    def next_request(self, rng: random.Random, site: int | None = None) -> MicroRequest:
        if site is None:
            weights = [self.site_weights[s] for s in self.sites]
            site = rng.choices(self.sites, weights=weights, k=1)[0]
        if self.audit_family is not None and rng.random() < self.audit_fraction:
            item = rng.randrange(self.num_items)
            return MicroRequest(f"Audit@s{site}", {"item": item}, site, (item,))
        if self.items_per_txn == 1:
            item = rng.randrange(self.num_items)
            name = f"Buy@s{site}"
            return MicroRequest(name, {"item": item}, site, (item,))
        items = tuple(rng.sample(range(self.num_items), self.items_per_txn))
        name = f"MultiBuy@s{site}"
        params = {f"item{k}": it for k, it in enumerate(items)}
        return MicroRequest(name, params, site, items)

    def reference_transaction(self, name: str) -> Transaction:
        """The transformed transaction for serial-equivalence checks."""
        return self.variants[name]
