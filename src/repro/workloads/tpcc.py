"""The Section 6.2 TPC-C subset: New Order, Payment, Delivery.

Appendix E describes the L++ encoding and the treaties the protocol
produces; this module reproduces both.  Integer-only columns (only
fields the three transactions read or write in ways that affect
control flow or observable output are materialized):

- ``stock_qty[w, i]``            -- replicated, written by New Order
- ``warehouse_ytd[w]``           -- replicated, increment-only (Payment)
- ``district_ytd[w, d]``         -- replicated, increment-only (Payment)
- ``customer_balance[c]``        -- replicated, increment-only (Payment)
- ``unfulfilled[w, d]``          -- replicated, +1 by New Order, -1 by
  Delivery (the paper's "number of unfulfilled orders" treaty object)
- ``delivered[w, d]``            -- replicated, +1 by Delivery; its value
  is printed, which is what pins it and forces Delivery to synchronize
  (the paper's "current lowest order id" treaty, in count form: with
  per-site id generation the k-th delivery always fulfils the k-th
  oldest order, so the delivered-count determines the order id)
- ``next_oid_s{K}[w, d]``        -- per-site order-id counters, local to
  site K by construction (the paper's "each site generates
  monotonically increasing order ids and no two sites can ever
  generate the same order id"); they never need treaties.

Expected protocol behaviour, derived automatically by the analysis
(matching Appendix E):

- Payment never synchronizes (after the Appendix B transform its
  writes are pure delta increments with no branching);
- New Order synchronizes only when a stock treaty budget is exhausted
  (global treaty: stock stays in its current symbolic region, i.e.
  ``stock_qty >= qty + 10`` for the in-stock region);
- Delivery synchronizes every time (its printed output depends on
  remote state, so the treaty pins the objects it reads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.analysis.ground import ground_instances
from repro.analysis.symbolic import SymbolicTable, build_symbolic_table
from repro.lang.ast import Transaction
from repro.lang.parser import parse_transaction
from repro.logic.formula import BoolConst
from repro.protocol.baselines import LocalCluster, TwoPhaseCommitCluster
from repro.protocol.config import ClusterSpec
from repro.protocol.homeostasis import (
    AdaptiveSettings,
    HomeostasisCluster,
    OptimizerSettings,
)
from repro.protocol.remote_writes import (
    ReplicationSpec,
    initial_replicated_db,
    transform_for_site,
)
from repro.treaty.optimize import SequenceWorkloadModel
from repro.workloads.common import (
    WorkloadSpecError,
    require_positive,
    require_sites,
)

#: TPC-C order quantity range (uniform 1..5 per Section 6.2).
QTY_RANGE = (1, 2, 3, 4, 5)

NEW_ORDER_SRC = """
transaction NewOrder(w, d, item, qty) {
  s := read(stock_qty(@w, @item));
  if s >= @qty + 10 then { write(stock_qty(@w, @item) = s - @qty) }
  else { write(stock_qty(@w, @item) = s - @qty + 91) }
  o := read(NEXT_OID(@w, @d));
  write(NEXT_OID(@w, @d) = o + 1);
  u := read(unfulfilled(@w, @d));
  write(unfulfilled(@w, @d) = u + 1);
}
"""

PAYMENT_SRC = """
transaction Payment(w, d, c, amount) {
  wy := read(warehouse_ytd(@w));
  write(warehouse_ytd(@w) = wy + @amount);
  dy := read(district_ytd(@w, @d));
  write(district_ytd(@w, @d) = dy + @amount);
  b := read(customer_balance(@c));
  write(customer_balance(@c) = b - @amount);
}
"""

DELIVERY_SRC = """
transaction Delivery(w, d) {
  u := read(unfulfilled(@w, @d));
  if u > 0 then {
    dv := read(delivered(@w, @d));
    write(delivered(@w, @d) = dv + 1);
    write(unfulfilled(@w, @d) = u - 1);
    print(dv)
  } else { skip }
}
"""


@dataclass
class TpccRequest:
    """One client request as the simulator sees it."""

    tx_name: str
    family: str  # 'NewOrder' | 'Payment' | 'Delivery'
    params: dict[str, int]
    site: int
    #: objects relevant for contention modelling (warehouse, item)
    hot_key: tuple[int, ...]


@dataclass
class TpccWorkload:
    """Builder for the TPC-C subset across execution modes.

    ``hotness`` is H from Section 6.2: the percentage of New Order
    transactions that order one of the 1% "hot" items.  The
    transaction mix defaults to 45/45/10 (New Order / Payment /
    Delivery); the distributed-deployment experiments use 49/49/2.
    """

    num_warehouses: int = 2
    num_districts: int = 2
    items_per_district: int = 50
    num_customers: int = 100
    num_sites: int = 2
    hotness: int = 10
    initial_stock: int = 100
    mix: tuple[float, float, float] = (0.45, 0.45, 0.10)

    def __post_init__(self) -> None:
        require_sites("num_sites", self.num_sites, floor=2)
        require_positive("num_warehouses", self.num_warehouses)
        require_positive("num_districts", self.num_districts)
        require_positive("items_per_district", self.items_per_district)
        require_positive("num_customers", self.num_customers)
        require_positive("initial_stock", self.initial_stock)
        if not 0 <= self.hotness <= 100:
            raise WorkloadSpecError(
                f"hotness is a percentage in [0, 100], got {self.hotness!r}"
            )
        if len(self.mix) != 3 or any(m < 0 for m in self.mix):
            raise WorkloadSpecError(
                "mix must be three non-negative shares "
                f"(NewOrder, Payment, Delivery), got {self.mix!r}"
            )
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise WorkloadSpecError(
                f"mix must sum to 1.0, got {sum(self.mix)!r}"
            )
        self.sites = tuple(range(self.num_sites))
        self.num_items = self.items_per_district
        self.num_hot = max(1, self.num_items // 100)
        self.hot_items = tuple(range(self.num_hot))

        replicated = {
            "stock_qty": self.sites,
            "warehouse_ytd": self.sites,
            "district_ytd": self.sites,
            "customer_balance": self.sites,
            "unfulfilled": self.sites,
            "delivered": self.sites,
        }
        self.spec = ReplicationSpec(
            bases=dict(replicated), home={b: 0 for b in replicated}
        )

        # Families: NewOrder is site-specific *before* the transform
        # because of the per-site order-id counter.
        self.families: dict[str, Transaction] = {}
        self.variants: dict[str, Transaction] = {}
        self.tx_home: dict[str, int] = {}
        payment = parse_transaction(PAYMENT_SRC)
        delivery = parse_transaction(DELIVERY_SRC)
        self.families["Payment"] = payment
        self.families["Delivery"] = delivery
        for site in self.sites:
            per_site_src = NEW_ORDER_SRC.replace("NEXT_OID", f"next_oid_s{site}")
            new_order = parse_transaction(per_site_src)
            for family_name, tx in (
                ("NewOrder", new_order),
                ("Payment", payment),
                ("Delivery", delivery),
            ):
                variant = transform_for_site(tx, site, self.spec, rename=False)
                name = f"{family_name}@s{site}"
                self.variants[name] = Transaction(
                    name, variant.params, variant.body, variant.assume_distinct
                )
                self.tx_home[name] = site
        self.families["NewOrder"] = parse_transaction(
            NEW_ORDER_SRC.replace("NEXT_OID", "next_oid_s0")
        )

        self.initial_values = self._initial_values()
        self.initial_db = initial_replicated_db(
            self.initial_values, self.spec, self.sites
        )
        # Per-site order counters are plain local objects.
        for site in self.sites:
            for w in range(self.num_warehouses):
                for d in range(self.num_districts):
                    self.initial_db[f"next_oid_s{site}[{w},{d}]"] = 1

    def _initial_values(self) -> dict[str, int]:
        values: dict[str, int] = {}
        for w in range(self.num_warehouses):
            values[f"warehouse_ytd[{w}]"] = 0
            for d in range(self.num_districts):
                values[f"district_ytd[{w},{d}]"] = 0
                values[f"unfulfilled[{w},{d}]"] = 5  # a backlog to deliver
                values[f"delivered[{w},{d}]"] = 0
            for i in range(self.num_items):
                values[f"stock_qty[{w},{i}]"] = self.initial_stock
        for c in range(self.num_customers):
            values[f"customer_balance[{c}]"] = 0
        return values

    # -- analysis products --------------------------------------------------------

    def locate(self, name: str) -> int:
        base = name.split("[", 1)[0]
        if base.startswith("next_oid_s"):
            return int(base[len("next_oid_s") :])
        return self.spec.locate(name, fallback=0)

    def runtime_tables(self) -> list[SymbolicTable]:
        return [build_symbolic_table(tx) for tx in self.variants.values()]

    def _treaty_relevant(self, table: SymbolicTable, home: int) -> bool:
        """Skip families that can never constrain a treaty: a single
        always-true row whose residual reads only home-local objects
        (Payment after the transform)."""
        from repro.analysis.residual import residual_reads

        if len(table.rows) != 1:
            return True
        row = table.rows[0]
        if row.guard != BoolConst(True):
            return True
        for read in residual_reads(row.residual):
            # Parameterized reads locate by their array base (delta
            # bases carry the owning site in their name).
            name = read if isinstance(read, str) else read[0]
            if self.locate(name) != home:
                return True
        return False

    def ground_tables(self) -> list[tuple[SymbolicTable, int]]:
        """Ground instances that participate in treaty generation.

        Payment instances are excluded by the treaty-relevance check
        (single true-guard row, purely local residual), which keeps
        grounding cost independent of the customer count.
        """
        out: list[tuple[SymbolicTable, int]] = []
        warehouses = list(range(self.num_warehouses))
        districts = list(range(self.num_districts))
        items = list(range(self.num_items))
        for name, tx in self.variants.items():
            site = self.tx_home[name]
            family_table = build_symbolic_table(tx)
            if not self._treaty_relevant(family_table, site):
                continue
            if name.startswith("NewOrder"):
                domains = {
                    "w": warehouses,
                    "d": districts,
                    "item": items,
                    "qty": list(QTY_RANGE),
                }
            elif name.startswith("Delivery"):
                domains = {"w": warehouses, "d": districts}
            else:
                domains = {p: [0] for p in tx.params}
            for gi in ground_instances(tx, domains):
                out.append((build_symbolic_table(gi.transaction), site))
        return out

    # -- request generation ------------------------------------------------------------

    def workload_model(self) -> SequenceWorkloadModel:
        def sample_params(rng: random.Random, name: str) -> dict[str, int]:
            return self._sample_params(rng, name.split("@", 1)[0])

        mix = {}
        weights = dict(zip(("NewOrder", "Payment", "Delivery"), self.mix))
        for name in self.variants:
            family = name.split("@", 1)[0]
            mix[name] = weights[family]
        return SequenceWorkloadModel(mix=mix, param_sampler=sample_params)

    def _sample_item(self, rng: random.Random) -> int:
        if rng.random() * 100.0 < self.hotness:
            return rng.choice(self.hot_items)
        return rng.randrange(self.num_hot, self.num_items)

    def _sample_params(self, rng: random.Random, family: str) -> dict[str, int]:
        w = rng.randrange(self.num_warehouses)
        d = rng.randrange(self.num_districts)
        if family == "NewOrder":
            return {
                "w": w,
                "d": d,
                "item": self._sample_item(rng),
                "qty": rng.choice(QTY_RANGE),
            }
        if family == "Payment":
            return {
                "w": w,
                "d": d,
                "c": rng.randrange(self.num_customers),
                "amount": rng.randint(1, 500),
            }
        return {"w": w, "d": d}

    def next_request(self, rng: random.Random, site: int | None = None) -> TpccRequest:
        if site is None:
            site = rng.randrange(self.num_sites)
        family = rng.choices(
            ("NewOrder", "Payment", "Delivery"), weights=self.mix, k=1
        )[0]
        params = self._sample_params(rng, family)
        hot_key: tuple[int, ...] = ()
        if family == "NewOrder":
            hot_key = (params["w"], params["item"])
        elif family == "Delivery":
            hot_key = (params["w"], -1 - params["d"])
        return TpccRequest(
            tx_name=f"{family}@s{site}",
            family=family,
            params=params,
            site=site,
            hot_key=hot_key,
        )

    # -- cluster builders -----------------------------------------------------------------

    def cluster_spec(
        self,
        strategy: str = "optimized",
        lookahead: int = 20,
        cost_factor: int = 3,
        seed: int = 0,
        validate: bool = False,
        adaptive: AdaptiveSettings | None = None,
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
    ) -> HomeostasisCluster:
        spec = self.cluster_spec(
            strategy=strategy,
            lookahead=lookahead,
            cost_factor=cost_factor,
            seed=seed,
            validate=validate,
            adaptive=adaptive,
        )
        return HomeostasisCluster(spec)

    def _untransformed_variants(self) -> dict[str, Transaction]:
        """Per-site original programs (for LOCAL / 2PC, which replicate
        full state and need no delta objects)."""
        out: dict[str, Transaction] = {}
        payment = parse_transaction(PAYMENT_SRC)
        delivery = parse_transaction(DELIVERY_SRC)
        for site in self.sites:
            new_order = parse_transaction(
                NEW_ORDER_SRC.replace("NEXT_OID", f"next_oid_s{site}")
            )
            for family_name, tx in (
                ("NewOrder", new_order),
                ("Payment", payment),
                ("Delivery", delivery),
            ):
                out[f"{family_name}@s{site}"] = tx
        return out

    def _plain_initial_db(self) -> dict[str, int]:
        db = dict(self.initial_values)
        for site in self.sites:
            for w in range(self.num_warehouses):
                for d in range(self.num_districts):
                    db[f"next_oid_s{site}[{w},{d}]"] = 1
        return db

    def build_local(self) -> LocalCluster:
        return LocalCluster(
            site_ids=self.sites,
            initial_db=self._plain_initial_db(),
            transactions=self._untransformed_variants(),
            tx_home=self.tx_home,
        )

    def build_2pc(self) -> TwoPhaseCommitCluster:
        return TwoPhaseCommitCluster(
            site_ids=self.sites,
            initial_db=self._plain_initial_db(),
            transactions=self._untransformed_variants(),
            tx_home=self.tx_home,
        )

    def reference_transaction(self, name: str) -> Transaction:
        return self.variants[name]
