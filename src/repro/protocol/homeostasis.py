"""The homeostasis protocol coordinator (Section 3.3).

Rounds have three phases:

- **treaty generation**: look up the joint-table row psi matching the
  synchronized database, linearize it (Appendix C.1), pin objects
  remote-read by the matched residuals (Appendix C.3 / Assumption
  4.1), split into per-site templates, instantiate a configuration
  (Theorem 4.3 default, demarcation equal-split, or Algorithm 1
  optimized), install local treaties at every site;

- **normal execution**: sites run stored procedures disconnected;
  each commit checks only the site's local treaty;

- **cleanup**: on a violation, the aborted transaction T' stands for
  election: racing violators exchange :class:`Vote` messages and the
  lowest ``(timestamp, site, txn)`` priority tuple wins (with a single
  violator -- the only case :meth:`HomeostasisCluster.submit` can
  produce -- the election is trivial; the concurrent runtime in
  :mod:`repro.protocol.concurrent` produces real contenders).  The
  *participant set* of the winner's violation is computed -- the
  fixpoint closure of the dirty objects' owners, the sites named in
  the affected treaty factors, and the homes/owners of every treaty
  instance depending on those objects -- the participants broadcast
  their dirty owned objects to each other, T' is executed in full at
  every participant, and a new round begins; losers abort and re-run
  under the new treaties.  Sites outside the closure keep their state
  and treaties untouched (the incremental generator guarantees their
  pieces are unchanged), which is the coordination-avoidance lever: a
  violation between two nearby sites never involves, or waits for,
  the far side of the cluster -- and negotiations over disjoint
  closures proceed in parallel.

The kernel is synchronous -- it performs the real state changes and
sends every message a distributed deployment would send through a
typed :class:`~repro.protocol.transport.Transport`; the discrete-
event simulator prices the recorded trace with per-edge RTTs.

**Adaptive reallocation** (the ``demand`` strategy plus
:class:`AdaptiveSettings`) closes the loop between execution and
configuration: a :class:`DemandEstimator` tracks per-object write
rates from the commit trace, negotiations size each site's split of
the invariant slack proportionally to its observed rate (with
starvation floors; see
:func:`repro.treaty.optimize.demand_configuration`), and a commit
that pushes a clause below its low-watermark triggers a proactive,
participant-scoped *rebalance* round (``RebalanceRequest`` + scoped
sync + regeneration) that shifts hoarded budget from cold sites to
hot ones before any transaction has to abort.

Treaty generation is *incremental*: factors of the joint table whose
objects did not change since the previous round keep their clauses
and configuration verbatim (their per-factor treaty is a pure
function of factor-local state, so regeneration would reproduce it;
for the stochastic optimizer the cached configuration remains one of
the valid optima).  This is an engineering optimization -- validity
(H1/H2) is untouched -- that turns per-round cost from O(database)
into O(touched factors).

**Fault tolerance** (crash-stop model, durable storage + treaty WAL):
a crashed site blocks only the rounds whose participant closure
includes it -- those refuse fast when the crash is known
(:class:`Unavailable`) or abort cleanly on a vote/sync timeout; every
other site keeps committing disconnected, which is the availability
argument against 2PC's global blocking.  Recovery
(:meth:`HomeostasisCluster.recover_site`) replays the site's treaty
WAL, announces a :class:`~repro.protocol.messages.Rejoin`, and
re-syncs the factor state its treaty generation depends on; validate
mode asserts the replayed treaty matches the cluster's and that
H1/H2 survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

from repro.analysis.residual import residual_reads
from repro.analysis.symbolic import SymbolicTable
from repro.lang.ast import Transaction
from repro.logic.linear import LinearConstraint, LinearExpr
from repro.logic.linearize import LinearizedTreaty, linearize_for_treaty
from repro.logic.terms import ObjT
from repro.protocol.messages import (
    CleanupRun,
    MessageStats,
    Outcome,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    TreatyInstall,
    Vote,
)
from repro.protocol.paxos_commit import (
    CreditLedger,
    NegotiationSpec,
    PaxosCommitDriver,
    QuorumUnreachable,
)
from repro.protocol.site import SiteResult, SiteServer, clause_slack
from repro.protocol.transport import Transport, UnreachableError
from repro.treaty.config import (
    Configuration,
    check_h1_algebraic,
    default_configuration,
    equal_split_configuration,
)
from repro.treaty.optimize import (
    OptimizerStats,
    WorkloadModel,
    configure_from_samples,
    demand_configuration,
    sample_executions,
)
from repro.treaty.table import TreatyTable
from repro.treaty.templates import TreatyTemplates, build_templates

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config imports us)
    from repro.protocol.config import ClusterSpec

#: Recognized treaty strategies.
TreatyStrategy = str  # 'default' | 'equal-split' | 'optimized' | 'demand'


class ProtocolError(Exception):
    """Violations of protocol invariants (indicate bugs, not workload)."""


class Unavailable(Exception):
    """A submission could not complete because a site it needs is
    unreachable (its origin crashed, or its negotiation's participant
    closure includes a crashed/partitioned site).

    This is the protocol behaving correctly under faults, not a bug:
    the round aborted cleanly, no state or treaty changed, and the
    transaction can be retried once the missing site recovers.  The
    simulator prices each occurrence as a timeout stall; contrast 2PC,
    where *every* transaction raises this while any replica is down.
    """

    def __init__(
        self,
        reason: str,
        sites: frozenset[int] = frozenset(),
        status: Outcome = Outcome.UNAVAILABLE,
    ) -> None:
        super().__init__(reason)
        self.sites = sites
        #: how the facade reports this failure: ``REFUSED`` when the
        #: needed site was *known* down (fast refusal, no messages
        #: wasted), ``UNAVAILABLE`` when a timeout discovered the
        #: crash mid-round
        self.status = status


@dataclass
class ClusterResult:
    """What the client observes for one submitted transaction."""

    log: tuple[int, ...]
    site: int
    synced: bool  # did this transaction trigger a treaty negotiation?
    row_index: int | None = None
    #: sites the negotiation involved (empty for local commits); the
    #: simulator prices the round from the RTT edges between them
    participants: tuple[int, ...] = ()
    #: participants of the proactive treaty refresh this *committed*
    #: transaction triggered by breaching the adaptive low-watermark
    #: (empty when no refresh ran); priced like any negotiation
    rebalanced: tuple[int, ...] = ()
    #: unified result status (see :class:`~repro.protocol.messages.Outcome`);
    #: :meth:`HomeostasisCluster.submit` raises on unavailability, so
    #: results it returns are always ``COMMITTED`` --
    #: :meth:`HomeostasisCluster.try_submit` maps the exception into
    #: ``REFUSED``/``UNAVAILABLE`` results instead
    status: Outcome = Outcome.COMMITTED


@dataclass
class DemandEstimator:
    """Online per-object write-rate estimator over the commit trace.

    The negotiation input of the adaptive (``demand``) strategy: every
    committed or violating attempt bumps an exponentially-decayed
    counter per written object, and
    :func:`~repro.treaty.optimize.demand_configuration` sums the rates
    of each site's clause objects to weight its share of the slack.
    Because treaty objects are site-owned (the Appendix B transform
    gives every site its own delta objects), per-object rates *are*
    per-site, per-template consumption rates.

    This replaces the a-priori :class:`SequenceWorkloadModel` as the
    thing negotiations are configured from: the model guessed the
    future workload at build time, the estimator measures the one
    actually running.  Decay is lazy (applied on access from the step
    distance), so ``observe`` is O(write set).
    """

    #: observations after which an unrefreshed count loses half its
    #: weight -- the window the estimator "remembers" demand over
    halflife: int = 512
    _counts: dict[str, tuple[float, int]] = field(default_factory=dict)
    _step: int = 0
    #: total observations (commits + violating attempts) seen
    observed: int = 0

    def __post_init__(self) -> None:
        self._decay = 0.5 ** (1.0 / self.halflife)

    def observe(self, written) -> None:
        """Record one attempt's write set."""
        self._step += 1
        self.observed += 1
        for name in written:
            count, last = self._counts.get(name, (0.0, self._step))
            decayed = count * self._decay ** (self._step - last)
            self._counts[name] = (decayed + 1.0, self._step)

    def rate(self, name: str) -> float:
        """The decayed write count of one object (0.0 if never seen)."""
        entry = self._counts.get(name)
        if entry is None:
            return 0.0
        count, last = entry
        return count * self._decay ** (self._step - last)


@dataclass
class AdaptiveSettings:
    """Knobs of the adaptive reallocation subsystem.

    ``watermark`` is the proactive-refresh trigger: after a commit, if
    any ``<=``-clause of the origin's local treaty touched by the
    write set has remaining slack below ``watermark`` times the slack
    it was granted at install time, the site requests a
    participant-scoped rebalance *before* the budget runs out --
    Soethout-style local coordination avoidance: pay a scoped refresh
    now instead of an abort + cleanup round later.  Clauses whose
    install-time grant was below ``min_headroom`` are exempt (a
    refresh cannot stretch a budget the global slack cannot fund; the
    violation path handles those).
    """

    watermark: float = 0.25
    min_headroom: int = 4
    #: estimator memory, in observations (see :class:`DemandEstimator`)
    halflife: int = 512


@dataclass
class OptimizerSettings:
    """Algorithm 1 knobs (Appendix C.2)."""

    model: WorkloadModel
    lookahead: int = 20
    cost_factor: int = 3
    engine: str = "fast"
    rng: random.Random = field(default_factory=lambda: random.Random(0))


@dataclass
class _InstanceTreaty:
    """Cached per-ground-instance treaty piece."""

    constraints: list[LinearConstraint]
    #: per constraint: site -> configuration value
    per_clause_config: list[dict[int, int]]
    pinned: set


@dataclass
class TreatyGenerator:
    """Builds (incrementally) a fresh treaty table from a synchronized
    database.

    The generator works *lazily* over the per-ground-instance symbolic
    tables rather than a materialized joint table: the joint row
    matching the current database is, by the cross-product
    construction of Section 2.2, exactly the conjunction of the rows
    each member table matches, so the conjunction can be assembled
    per-instance without ever materializing the product (whose size
    is exponential for workloads like TPC-C where one transaction
    spans several otherwise-independent object groups).
    """

    ground_tables: list[tuple[SymbolicTable, int]]  # (table, home site)
    locate: Callable[[str], int]
    sites: tuple[int, ...]
    strategy: TreatyStrategy = "default"
    optimizer: OptimizerSettings | None = None
    #: online demand estimator feeding the 'demand' strategy (the
    #: cluster wires its own estimator in at construction)
    demand: DemandEstimator | None = None
    #: family transactions, for optimizer workload simulation
    families: dict[str, Transaction] = field(default_factory=dict)
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)
    last_optimizer_stats: OptimizerStats | None = None
    #: cumulative count of instance recomputations (observability)
    instances_recomputed: int = 0

    _cache: dict[int, _InstanceTreaty] = field(default_factory=dict)
    _instance_objects: list[set[str]] | None = None
    #: value-keyed memo: an instance piece is a function of the values
    #: of the objects it depends on, and stock levels recur across
    #: refill cycles, so pieces are reused across rounds.  (For the
    #: stochastic optimizer this reuses one valid optimum instead of
    #: re-sampling; H1/H2 validity is a per-piece property.)
    _memo: dict[tuple[int, tuple[int, ...]], _InstanceTreaty] = field(
        default_factory=dict
    )
    _instance_keys: list[tuple[str, ...]] | None = None
    #: workload samples shared by all instances within one generate()
    _sampled_runs: list[list[dict[str, int]]] | None = None
    #: lazy reverse index: object name -> instances depending on it
    _object_to_instances: dict[str, list[int]] | None = None

    # -- instance/object indexing -------------------------------------------------

    def _objects_of_instance(self, idx: int) -> set[str]:
        """Objects whose values the instance's treaty piece depends on.

        These are exactly (a) objects mentioned by any row guard --
        they select the row and parameterize clause bounds/configs --
        and (b) remote reads of any row residual -- they become
        Appendix C.3 equality pins at their current values.  Objects
        the instance merely *writes* or reads locally do not influence
        the generated piece, so changes to them must not trigger
        recomputation (e.g. a New Order bumps its district's
        unfulfilled-order count, but its stock treaty is untouched).
        """
        if self._instance_objects is None:
            self._instance_objects = []
            for table, home in self.ground_tables:
                names: set[str] = set()
                for row in table.rows:
                    for obj in row.guard.objects():
                        names.add(obj.name)
                    for indexed in row.guard.indexed_objects():
                        grounded = indexed.try_ground()
                        if grounded is None:
                            raise ProtocolError(
                                f"ground instance {table.transaction.name} has a "
                                "parameterized guard; ground the workload fully"
                            )
                        names.add(grounded.name)
                    for read in residual_reads(row.residual):
                        if isinstance(read, str) and self.locate(read) != home:
                            names.add(read)
                self._instance_objects.append(names)
        return self._instance_objects[idx]

    def instances_touching(self, names) -> set[int]:
        """Instances whose treaty piece depends on any of the objects."""
        if self._object_to_instances is None:
            index: dict[str, list[int]] = {}
            for idx in range(len(self.ground_tables)):
                for name in self._objects_of_instance(idx):
                    index.setdefault(name, []).append(idx)
            self._object_to_instances = index
        out: set[int] = set()
        for name in names:
            out.update(self._object_to_instances.get(name, ()))
        return out

    def objects_touching(self, names) -> set[str]:
        """Union of the object sets of every instance touching ``names``
        (the state a negotiation over ``names`` must refresh)."""
        out: set[str] = set()
        for idx in self.instances_touching(names):
            out |= self._objects_of_instance(idx)
        return out

    def sites_touching(self, names) -> set[int]:
        """Sites a change to ``names`` drags into a negotiation: the
        home site of every affected instance (its snapshots of the
        changed objects parameterize its piece) plus the owners of
        every object those instances depend on (their current values
        feed the recomputation)."""
        sites: set[int] = set()
        for idx in self.instances_touching(names):
            sites.add(self.ground_tables[idx][1])
            for name in self._objects_of_instance(idx):
                sites.add(self.locate(name))
        return sites

    # -- per-instance computation ---------------------------------------------------

    def _compute_instance(
        self,
        idx: int,
        getobj: Callable[[str], int],
        db_snapshot: Mapping[str, int],
    ) -> _InstanceTreaty:
        self.instances_recomputed += 1
        table, home = self.ground_tables[idx]
        row = table.lookup(getobj)
        lin = linearize_for_treaty(row.guard, getobj)
        constraints = list(lin.constraints)
        pinned = set(lin.pinned)
        # Appendix C.3: pin objects remote-read by the matched residual.
        pinned_names: set[str] = set()
        for read in residual_reads(row.residual):
            if not isinstance(read, str):
                raise ProtocolError(
                    f"ground instance {table.transaction.name} has "
                    f"parameterized residual read {read!r}"
                )
            if self.locate(read) != home and read not in pinned_names:
                pinned_names.add(read)
                constraints.append(
                    LinearConstraint.make(
                        LinearExpr.variable(ObjT(read)), "=", getobj(read)
                    )
                )
                pinned.add(ObjT(read))

        constraints = [c for c in constraints if not c.is_trivially_true()]
        lin_piece = LinearizedTreaty(constraints=constraints, pinned=pinned)
        templates = build_templates(lin_piece, self.locate, self.sites)
        config = self._configure(templates, getobj, db_snapshot)
        per_clause = [
            {site: config.values[clause.config_var(site)] for site in clause.sites}
            for clause in templates.clauses
        ]
        return _InstanceTreaty(
            constraints=constraints, per_clause_config=per_clause, pinned=pinned
        )

    def _configure(
        self, templates: TreatyTemplates, getobj, db_snapshot
    ) -> Configuration:
        if self.strategy == "default":
            return default_configuration(templates, getobj)
        if self.strategy == "equal-split":
            return equal_split_configuration(templates, getobj)
        if self.strategy == "demand":
            if self.demand is None:
                raise ProtocolError("strategy 'demand' requires a DemandEstimator")
            return demand_configuration(templates, getobj, self.demand.rate)
        if self.strategy == "optimized":
            if self.optimizer is None:
                raise ProtocolError("strategy 'optimized' requires OptimizerSettings")
            if self._sampled_runs is None:
                self._sampled_runs = sample_executions(
                    db_snapshot,
                    self.families,
                    self.optimizer.model,
                    self.optimizer.lookahead,
                    self.optimizer.cost_factor,
                    self.optimizer.rng,
                    self.arrays,
                )
            config, stats = configure_from_samples(
                templates, getobj, self._sampled_runs, engine=self.optimizer.engine
            )
            self.last_optimizer_stats = stats
            return config
        raise ProtocolError(f"unknown treaty strategy {self.strategy!r}")

    # -- assembly --------------------------------------------------------------------

    def generate(
        self,
        getobj: Callable[[str], int],
        db_snapshot: Mapping[str, int],
        round_number: int,
        dirty: set[str] | None = None,
    ) -> TreatyTable:
        """Build the treaty table; with ``dirty`` given, reuse cached
        instances whose objects are untouched.

        Assembly dedups identical clauses and drops ``<=``-clauses
        dominated by a tighter clause over the same expression (e.g.
        grounding one transaction over quantities 1..5 yields the
        nested guards ``stock >= 11 .. stock >= 15``; only the tightest
        needs enforcing, and it implies the rest).
        """
        self._sampled_runs = None  # fresh samples per generation
        if self._instance_keys is None:
            self._instance_keys = [
                tuple(sorted(self._objects_of_instance(i)))
                for i in range(len(self.ground_tables))
            ]
        for idx in range(len(self.ground_tables)):
            if (
                dirty is not None
                and idx in self._cache
                and not (self._objects_of_instance(idx) & dirty)
            ):
                continue
            if self.strategy == "demand":
                # The demand-weighted configuration is a function of
                # the *estimator*, not just the instance's object
                # values, so value-keyed memoization would resurrect
                # splits computed under stale demand (exactly what a
                # rebalance exists to replace).  Dirty instances
                # recompute unconditionally; clean ones still reuse
                # their cached piece via the check above.
                self._cache[idx] = self._compute_instance(idx, getobj, db_snapshot)
                continue
            memo_key = (idx, tuple(getobj(n) for n in self._instance_keys[idx]))
            piece = self._memo.get(memo_key)
            if piece is None:
                piece = self._compute_instance(idx, getobj, db_snapshot)
                self._memo[memo_key] = piece
            self._cache[idx] = piece

        # keyed by coefficient vector + op: keep the tightest bound.
        chosen: dict[tuple, tuple[LinearConstraint, dict[int, int]]] = {}
        order: list[tuple] = []
        pinned: set = set()
        for idx in range(len(self.ground_tables)):
            piece = self._cache[idx]
            pinned |= piece.pinned
            for con, cfg in zip(piece.constraints, piece.per_clause_config):
                key = (con.expr.coeffs, con.op)
                incumbent = chosen.get(key)
                if incumbent is None:
                    chosen[key] = (con, cfg)
                    order.append(key)
                    continue
                held, _ = incumbent
                if con.op == "=" and held.bound != con.bound:
                    raise ProtocolError(
                        f"contradictory equality clauses: {held.pretty()} "
                        f"vs {con.pretty()}"
                    )
                if con.op == "<=" and con.bound < held.bound:
                    chosen[key] = (con, cfg)

        constraints = [chosen[key][0] for key in order]
        config_rows = [chosen[key][1] for key in order]
        lin_all = LinearizedTreaty(constraints=constraints, pinned=pinned)
        templates = build_templates(lin_all, self.locate, self.sites)
        config = Configuration(strategy=self.strategy)
        for clause, cfg in zip(templates.clauses, config_rows):
            for site in clause.sites:
                config.values[clause.config_var(site)] = cfg[site]
        return TreatyTable.assemble(lin_all, templates, config, round_number=round_number)


@dataclass
class SyncRound:
    """What the most recent synchronization round covered.

    Exposed to post-sync hooks so they can confine their rewrites to
    the participant set (non-participant sites saw none of this
    round's messages and must not be mutated behind their backs).
    """

    participants: frozenset[int]
    #: the broadcast update set (object -> synchronized value)
    updates: dict[str, int]
    #: the subset of updates that actually changed since their owner's
    #: last checkpoint
    dirty: set[str]


@dataclass
class ClusterStats:
    """Aggregate protocol statistics.

    ``messages`` is a derived view over the transport trace -- the
    kernel sends typed messages and never maintains counters by hand.
    """

    submitted: int = 0
    committed_local: int = 0
    negotiations: int = 0
    #: proactive adaptive treaty refreshes (no violation, no abort)
    rebalances: int = 0
    #: rounds that could not run because a participant was unreachable
    #: (known-down fast refusal, or a timeout discovered mid-round)
    timeouts: int = 0
    #: rejoin rounds run by recovered sites (WAL replay + re-sync)
    recoveries: int = 0
    rounds: int = 0
    transport: Transport = field(default_factory=Transport)

    @property
    def messages(self) -> MessageStats:
        return self.transport.message_stats()

    @property
    def sync_ratio(self) -> float:
        if self.submitted == 0:
            return 0.0
        return self.negotiations / self.submitted


class HomeostasisCluster:
    """K sites executing a known workload under the homeostasis protocol.

    Construct from a :class:`~repro.protocol.config.ClusterSpec`
    (which names every option), usually through
    :func:`repro.protocol.config.build_cluster`; ``transport``
    overrides the message fabric (fault plans attach here).
    """

    def __init__(self, spec: "ClusterSpec", transport: Transport | None = None) -> None:
        generator = spec.make_generator()
        adaptive = spec.adaptive
        negotiation = spec.negotiation
        self.site_ids = tuple(spec.sites)
        self.locate = spec.locate
        self.tx_home = dict(spec.tx_home)
        self.generator = generator
        self.adaptive = adaptive
        # The estimator always runs (observation is O(write set)); the
        # 'demand' strategy reads it at negotiation time and the
        # watermark refresh path is gated on ``adaptive``.
        self.demand = DemandEstimator(
            halflife=adaptive.halflife if adaptive else DemandEstimator.halflife
        )
        if generator.demand is None:
            generator.demand = self.demand
        self.transport = transport if transport is not None else Transport()
        self.stats = ClusterStats(transport=self.transport)
        self.treaty_table: TreatyTable | None = None
        # Non-blocking negotiation: with a NegotiationSpec the cleanup
        # round's commit decision runs through a Paxos Commit acceptor
        # quorum (None keeps the legacy single-coordinator decision).
        # The credit ledger always exists -- fairness is observed under
        # either policy so the two can be compared on one workload.
        self.negotiation = negotiation
        self.fairness = CreditLedger(
            spec=negotiation if negotiation is not None else NegotiationSpec()
        )
        self._paxos: PaxosCommitDriver | None = None
        #: rounds completed by a survivor while their coordinator was
        #: down: site -> (tx_name, params) of the T' it must re-run
        #: deterministically at recovery to catch up
        self._missed_runs: dict[int, tuple[str, dict[str, int]]] = {}
        self.post_sync_hooks = list(spec.post_sync_hooks)
        self.validate = spec.validate
        self.deterministic_solver = spec.deterministic_solver
        self.last_sync: SyncRound | None = None
        arrays = dict(spec.arrays)

        self.sites: dict[int, SiteServer] = {}
        for sid in self.site_ids:
            server = SiteServer(site_id=sid, locate=spec.locate, arrays=arrays)
            # Validate mode runs the compiled oracle next to every
            # escrow fast-path check and asserts the verdicts agree.
            server.validate_escrow = spec.validate
            for table in spec.tables:
                server.catalog.register(table)
            server.engine.store.apply(spec.initial_db)
            server.engine.checkpoint()
            self.sites[sid] = server
            self.transport.register(sid, server)

        if negotiation is not None:
            self._paxos = PaxosCommitDriver(
                transport=self.transport, sites=self.sites, spec=negotiation
            )

        self._install_new_treaty(dirty=None)

    # -- round machinery ----------------------------------------------------------

    def _reference_site(self) -> SiteServer:
        return self.sites[self.site_ids[0]]

    def _participants_for(
        self, origin: int, seed: set[str]
    ) -> tuple[set[int], set[str]]:
        """The participant set of a negotiation seeded by ``seed``.

        Fixpoint closure: a changed object drags in its owner, every
        site whose installed treaty enforces a clause over it (the
        per-site factor index), and the home site and object owners of
        every treaty-generation instance depending on it.  Each newly
        joined site contributes its own accumulated dirty objects --
        they ride along in the same broadcast and may widen the circle
        further.  Sites outside the fixpoint keep their treaties and
        state untouched; the incremental generator guarantees their
        pieces would regenerate verbatim.
        """
        site_set = set(self.site_ids)
        participants = {origin}
        closure: set[str] = set()
        pending = set(seed)
        while pending:
            closure |= pending
            sites = {self.locate(name) for name in pending}
            sites |= self.generator.sites_touching(pending)
            if self.treaty_table is not None:
                sites |= self.treaty_table.sites_for_objects(pending)
            new_sites = (sites & site_set) - participants
            participants |= new_sites
            pending = set()
            for sid in new_sites:
                pending |= set(self.sites[sid].dirty_owned_values())
            pending -= closure
        return participants, closure

    def _refuse_if_down(self, participants: set[int], what: str) -> None:
        """Fast-path refusal for rounds whose closure includes a
        known-crashed site: no messages are wasted and no timeout is
        paid discovering what the cluster already knows.  Counted with
        the timeouts (it is the same unavailability, discovered
        cheaper)."""
        down = participants & self.transport.down
        if down:
            self.stats.timeouts += 1
            raise Unavailable(
                f"{what} needs unreachable site(s) {sorted(down)}",
                sites=frozenset(down),
                status=Outcome.REFUSED,
            )

    def _install_new_treaty(
        self,
        dirty: set[str] | None,
        participants: set[int] | None = None,
        origin: int | None = None,
    ) -> None:
        if participants is None:
            participants = set(self.site_ids)
        if origin is None or origin not in participants:
            origin = min(participants)
        ref = self.sites[origin]
        getobj = ref.engine.peek
        snapshot = ref.engine.store.data  # read-only use
        self.stats.rounds += 1
        table = self.generator.generate(getobj, snapshot, self.stats.rounds, dirty=dirty)
        self.treaty_table = table
        for sid in sorted(participants):
            treaty = table.local_for(sid)
            if self.deterministic_solver or sid == origin:
                # A deterministic solver lets every participant
                # regenerate the identical treaty from the synchronized
                # state, eliding the second communication round
                # (Section 5.1); otherwise the coordinator ships it.
                self.sites[sid].install_treaty(
                    treaty,
                    round_number=table.round_number,
                )
            else:
                self.transport.send(
                    TreatyInstall(
                        src=origin,
                        dst=sid,
                        round_number=table.round_number,
                        treaty=treaty,
                    )
                )
        for sid in sorted(participants):
            # Observability mirror of each participant's path-check
            # kinds (built inside install_treaty either way -- direct
            # install or shipped).
            table.record_paths(sid, self.sites[sid].path_checks)
        if self.validate:
            # The global treaty is never weakened: every install --
            # violation cleanup, forced sync, or adaptive rebalance --
            # must produce locals that still imply the global treaty
            # (H1, a state-independent identity over the configuration)
            # and hold on the current database (H2).  H2 is checked
            # per site against its *own* authoritative state: a site's
            # local treaty mentions only objects it owns, and scoped
            # negotiations leave non-participants' remote snapshots
            # legitimately stale, so evaluating everything through one
            # origin would reject valid installs.
            if not check_h1_algebraic(table.templates, table.configuration):
                raise ProtocolError(
                    f"H1 violated by round {table.round_number}: local "
                    "treaties no longer imply the global treaty"
                )
            self._assert_h2_locally(participants, table.round_number)
            self._assert_untouched_locals(participants, table)

    def _assert_h2_locally(self, sites: set[int], round_number: int) -> None:
        """H2 over the given sites: each one's installed local treaty
        holds on its own state.  Checked for a round's participants at
        install time (their state is final); sites outside the round
        hold inductively -- or are mid-phase in a parallel group of
        the same wave, whose own install asserts them.  With H1 this
        implies the global treaty holds on the authoritative database.
        """
        for sid in sorted(sites):
            server = self.sites[sid]
            treaty = server.local_treaty
            if treaty is not None and not treaty.holds(server.engine.peek):
                raise ProtocolError(
                    f"H2 violated by round {round_number}: site {sid}'s "
                    "local treaty fails on its own state"
                )

    def _synchronize(
        self,
        participants: set[int],
        affected: set[str] | None = None,
        full: bool = False,
    ) -> tuple[dict[str, int], set[str]]:
        """Participant-scoped state exchange.

        Each participant broadcasts its dirty owned objects plus its
        owned objects among ``affected`` (the state feeding recomputed
        treaty factors -- possibly clean, but the coordinator must see
        current values to regenerate from).  ``full`` upgrades the
        share to the complete owned partition (forced global syncs at
        experiment boundaries).
        """
        ordered = sorted(participants)
        shares: dict[int, dict[str, int]] = {}
        dirty: set[str] = set()
        for sid in ordered:
            server = self.sites[sid]
            share = dict(server.dirty_owned_values())
            dirty |= set(share)
            if full:
                for name in server.engine.store.support():
                    if server.owns(name) and name not in share:
                        share[name] = server.engine.peek(name)
            elif affected:
                for name in affected:
                    if self.locate(name) == sid and name not in share:
                        share[name] = server.engine.peek(name)
            shares[sid] = share
        for src in ordered:
            payload = tuple(sorted(shares[src].items()))
            for dst in ordered:
                if dst != src:
                    self.transport.send(
                        SyncBroadcast(src=src, dst=dst, updates=payload)
                    )
        for sid in ordered:
            self.sites[sid].finish_sync()
        updates: dict[str, int] = {}
        for share in shares.values():
            updates.update(share)
        self.last_sync = SyncRound(
            participants=frozenset(participants), updates=updates, dirty=set(dirty)
        )
        for hook in self.post_sync_hooks:
            hook(self)
        if self.validate:
            self._assert_sync_agreement(participants, updates)
        return updates, dirty

    def _assert_sync_agreement(
        self, participants: set[int], updates: Mapping[str, int]
    ) -> None:
        """Every participant agrees with each object's owner on every
        synchronized value (non-participants are allowed to lag)."""
        if participants == set(self.site_ids):
            self._assert_sites_agree()
            return
        for name in updates:
            owner_value = self.sites[self.locate(name)].engine.peek(name)
            for sid in participants:
                value = self.sites[sid].engine.peek(name)
                if value != owner_value:
                    raise ProtocolError(
                        f"post-sync divergence on {name!r}: participant {sid} "
                        f"has {value}, owner has {owner_value}"
                    )

    def _assert_untouched_locals(
        self, participants: set[int], table: TreatyTable
    ) -> None:
        """Sites outside the participant set must already enforce the
        exact piece the new table assigns them (the incremental
        generator reuses their factors verbatim).  Crashed sites are
        exempt: their volatile treaty is gone by definition -- a
        coordinator that died mid-decision sat the install out, and the
        recovered-treaty oracle holds it to the table's entry once it
        replays its WAL and catches up."""
        for sid in self.site_ids:
            if sid in participants or sid in self.transport.down:
                continue
            installed = self.sites[sid].local_treaty
            have = {c.pretty() for c in installed.constraints} if installed else set()
            expect = {c.pretty() for c in table.local_for(sid).constraints}
            if have != expect:
                raise ProtocolError(
                    f"non-participant site {sid} treaty drifted: "
                    f"{sorted(have)} vs {sorted(expect)}"
                )

    def _assert_sites_agree(self) -> None:
        ref = self._reference_site().state_snapshot()
        names = set(ref)
        for server in self.sites.values():
            names |= set(server.state_snapshot())
        for server in self.sites.values():
            snap = server.state_snapshot()
            for name in names:
                if snap.get(name, 0) != ref.get(name, 0):
                    raise ProtocolError(
                        f"post-sync divergence on {name!r}: site "
                        f"{server.site_id} has {snap.get(name, 0)}, reference "
                        f"has {ref.get(name, 0)}"
                    )

    # -- cleanup-phase building blocks --------------------------------------------
    #
    # The cleanup round decomposes into phases so the sequential path
    # below and the concurrent runtime (repro.protocol.concurrent) can
    # share them: the concurrent driver interleaves the phases of
    # disjoint-closure negotiations instead of running each round
    # start-to-finish.

    def _violation_seed(self, server: SiteServer, result: SiteResult) -> set[str]:
        """Seed of the participant closure: the violated treaty
        factors, everything the aborted attempt tried to write (T'
        re-runs after sync and its write set must be covered), and the
        origin's accumulated dirty set."""
        return (
            set(result.violated_objects)
            | set(result.attempted_writes)
            | set(server.dirty_owned_values())
        )

    def _announce_winner(
        self,
        origin: int,
        tx_name: str,
        participants: set[int],
        timestamp: int = 0,
        txn_seq: int = 0,
    ) -> None:
        """The winning violator announces itself to the participants
        of its negotiation (the trivial election when unopposed)."""
        for sid in sorted(participants):
            if sid != origin:
                self.transport.send(
                    Vote(
                        src=origin,
                        dst=sid,
                        tx_name=tx_name,
                        timestamp=timestamp,
                        txn_seq=txn_seq,
                    )
                )

    def _cleanup_execute(
        self,
        origin: int,
        tx_name: str,
        params: Mapping[str, int] | None,
        participants: set[int],
    ) -> tuple[tuple[int, ...], set[str]]:
        """Run T' in full at every participant; cross-check the logs
        agree and return (reference log, union of written objects)."""
        params_payload = tuple(sorted((params or {}).items()))
        logs: dict[int, tuple[int, ...]] = {}
        written_union: set[str] = set()
        for sid in sorted(participants):
            if sid == origin:
                log, written = self.sites[origin].run_cleanup_transaction(
                    tx_name, params
                )
            else:
                log, written = self.transport.send(
                    CleanupRun(
                        src=origin,
                        dst=sid,
                        tx_name=tx_name,
                        params=params_payload,
                    )
                )
            logs[sid] = log
            written_union |= written
        reference = logs[origin]
        if any(log != reference for log in logs.values()):
            raise ProtocolError(f"cleanup runs of {tx_name} diverged: {logs}")
        return reference, written_union

    def _check_closure_covered(
        self, tx_name: str, written_union: set[str], participants: set[int]
    ) -> None:
        """The closure was computed before T' ran; verify its
        overapproximation covered everything T' actually wrote (owners
        of written objects and sites whose treaty factors depend on
        them must all have participated).  Must run against the
        *pre-install* treaty table."""
        needed = self.generator.sites_touching(written_union)
        needed |= {self.locate(name) for name in written_union}
        needed |= self.treaty_table.sites_for_objects(written_union)
        uncovered = (needed & set(self.site_ids)) - participants
        if uncovered:
            raise ProtocolError(
                f"cleanup of {tx_name} wrote objects involving "
                f"non-participant sites {sorted(uncovered)}"
            )

    def _survivor_complete(
        self,
        round_index: int,
        origin: int,
        participants: set[int],
        tx_name: str,
    ) -> int:
        """Finish a round whose coordinator crashed mid-decision: walk
        the live participants (lowest site first) until one drives the
        Paxos completion to a quorum, and return it as the round's new
        origin.  Raises :class:`QuorumUnreachable` when no survivor can
        complete the round (every live candidate failed, or none are
        left) -- the caller aborts cleanly; the decision either never
        became durable or will be completed after recovery."""
        assert self._paxos is not None
        tried: set[int] = set()
        while True:
            candidates = sorted(
                set(participants) - self.transport.down - tried - {origin}
            )
            if not candidates:
                raise QuorumUnreachable(
                    f"no surviving participant of {sorted(participants)} "
                    "could complete the round"
                )
            survivor = candidates[0]
            tried.add(survivor)
            try:
                self._paxos.complete_as_survivor(
                    survivor, round_index, participants, tx_name
                )
            except UnreachableError:
                # The survivor itself died mid-completion; the next
                # candidate solicits the same durable acceptor state.
                continue
            return survivor

    # -- adaptive reallocation ----------------------------------------------------
    #
    # Demand-proportional slack (Bailis-style coordination avoidance)
    # needs two runtime pieces on top of the 'demand' strategy: the
    # estimator observing the commit trace, and a proactive refresh
    # that rebalances a clause *before* its budget runs out.  The
    # refresh reuses the cleanup round's phases (announce, scoped
    # synchronize, regenerate + install) minus the vote and the T'
    # re-run: nothing aborted, so there is nothing to re-execute.

    def _watermark_breaches(
        self, server: SiteServer, written: frozenset[str] | set[str]
    ) -> set[str]:
        """Objects of every ``<=``-clause of ``server``'s local treaty
        that a commit just pushed below the low-watermark.

        A clause breaches when its remaining slack drops below
        ``watermark`` times the slack it was granted at install time
        (clauses granted less than ``min_headroom`` are exempt -- the
        global slack cannot fund a useful refresh for them).  Only
        clauses touching the write set are checked, via the same
        per-object clause index the commit check uses.
        """
        treaty = server.local_treaty
        if treaty is None or self.adaptive is None:
            return set()
        settings = self.adaptive
        peek = server.engine.peek
        index = treaty._object_index()
        seen: set[int] = set()
        breached: set[str] = set()
        for name in written:
            for con, _check in index.get(name, ()):
                if con.op != "<=" or id(con) in seen:
                    continue
                seen.add(id(con))
                granted = server.install_headroom.get(con)
                if granted is None or granted < settings.min_headroom:
                    continue
                if clause_slack(con, peek) < settings.watermark * granted:
                    for var in con.variables():
                        breached.add(var.name)
        return breached

    def _announce_rebalance(
        self, origin: int, participants: set[int], breached: set[str]
    ) -> None:
        """The refreshing site announces the rebalance to the other
        participants of its closure (the adaptive analogue of the
        winner announcement)."""
        objects = tuple(sorted(breached))
        for sid in sorted(participants):
            if sid != origin:
                self.transport.send(
                    RebalanceRequest(src=origin, dst=sid, objects=objects)
                )

    def _rebalance(self, origin: int, breached: set[str]) -> tuple[int, ...]:
        """One proactive refresh round: scoped sync + demand-weighted
        regeneration over the participant closure of the breached
        clauses.  Returns the participant set (for simulator pricing).

        A refresh is best-effort under faults: the triggering
        transaction already committed, so if the closure includes an
        unreachable site the refresh is simply skipped (empty return)
        -- the watermark re-triggers on a later commit, or the
        violation path handles it the expensive way.
        """
        server = self.sites[origin]
        seed = set(breached) | set(server.dirty_owned_values())
        participants, closure = self._participants_for(origin, seed)
        if participants & self.transport.down:
            self.stats.timeouts += 1
            return ()
        affected = self.generator.objects_touching(closure) | closure
        trace = self.transport.begin("rebalance", origin)
        try:
            # Abortable prefix only (announce + sync), as in the
            # cleanup path: a timeout here precedes any treaty change.
            self._announce_rebalance(origin, participants, breached)
            _updates, dirty = self._synchronize(participants, affected=affected)
        except UnreachableError:
            # Same best-effort contract, discovered the expensive way.
            self.transport.abort(trace)
            self.stats.timeouts += 1
            return ()
        # Commit point: the install must run to completion.  Under the
        # deterministic solver it is all-local (no messages); with a
        # shipped install, a crash mid-phase escapes loudly with the
        # round open rather than being swallowed as a no-op while some
        # participants already hold the new treaty.
        self._install_new_treaty(
            dirty=dirty | seed, participants=participants, origin=origin
        )
        self.transport.end(trace)
        self.stats.rebalances += 1
        return tuple(sorted(participants))

    # -- client API ---------------------------------------------------------------

    def submit(self, tx_name: str, params: Mapping[str, int] | None = None) -> ClusterResult:
        """Run one transaction to completion under the protocol.

        Raises :class:`Unavailable` -- without changing any state or
        treaty -- when the origin site is down, or when the
        transaction violates its treaty and the negotiation's
        participant closure includes an unreachable site (known-down
        sites are refused up front; a crash discovered mid-round
        surfaces as a timeout and aborts the round cleanly).  Every
        other submission proceeds exactly as in the fault-free kernel:
        a crash blocks only the closures that include it.
        """
        if tx_name not in self.tx_home:
            raise ProtocolError(f"unknown transaction {tx_name!r}")
        origin = self.tx_home[tx_name]
        server = self.sites[origin]
        self.stats.submitted += 1
        if self.transport.is_down(origin):
            raise Unavailable(
                f"origin site {origin} is down",
                sites=frozenset({origin}),
                status=Outcome.REFUSED,
            )

        result: SiteResult = server.execute(tx_name, params)
        if result.committed:
            self.stats.committed_local += 1
            self.demand.observe(result.written)
            rebalanced: tuple[int, ...] = ()
            if self.adaptive is not None:
                breached = self._watermark_breaches(server, result.written)
                if breached:
                    rebalanced = self._rebalance(origin, breached)
            return ClusterResult(
                log=result.log,
                site=origin,
                synced=False,
                row_index=result.row_index,
                rebalanced=rebalanced,
            )

        # Cleanup phase: T' was aborted; submit() is one-at-a-time so
        # it wins the election unopposed.  The round is scoped to the
        # participant closure of the violation -- untouched sites
        # neither hear about it nor change state, and their installed
        # treaties stay valid.
        # A violating attempt is demand too -- the re-negotiation's
        # configuration should see the burst that exhausted the budget.
        self.demand.observe(result.attempted_writes)
        seed = self._violation_seed(server, result)
        participants, closure = self._participants_for(origin, seed)
        self._refuse_if_down(participants, f"cleanup of {tx_name}")
        affected = self.generator.objects_touching(closure) | closure
        trace = self.transport.begin("cleanup", origin)
        try:
            # Abortable prefix: nothing irreversible happens before T'
            # re-executes.  The announcement is stateless and the sync
            # exchange only refreshes snapshots with owner-authoritative
            # values, so a vote/sync timeout aborts the round cleanly
            # and the transaction simply retries after recovery.
            self._announce_winner(origin, tx_name, participants)
            updates, dirty = self._synchronize(participants, affected=affected)
        except UnreachableError as exc:
            self.transport.abort(trace)
            self.stats.timeouts += 1
            raise Unavailable(
                f"cleanup of {tx_name} timed out: {exc}",
                sites=frozenset({exc.dst}),
            ) from exc
        # Decision phase (NegotiationSpec attached): make the round's
        # commit decision quorum-durable through Paxos Commit before
        # anything irreversible runs.  The phase extends the abortable
        # prefix -- a round that loses its acceptor quorum aborts
        # cleanly (T' has not run anywhere) -- and removes the
        # coordinator as a single point of failure: if the origin dies
        # mid-quorum, a surviving participant completes the round from
        # the acceptors' logged state and the cluster finishes T' and
        # the install over the live participants.
        decided_origin, live = origin, set(participants)
        if self._paxos is not None:
            try:
                try:
                    self._paxos.decide(origin, trace.index, participants)
                except UnreachableError:
                    if not self.transport.is_down(origin):
                        raise
                    decided_origin = self._survivor_complete(
                        trace.index, origin, participants, tx_name
                    )
            except (QuorumUnreachable, UnreachableError) as exc:
                self.transport.abort(trace)
                self.stats.timeouts += 1
                raise Unavailable(
                    f"cleanup of {tx_name} lost its decision quorum: {exc}",
                    sites=frozenset(self.transport.down) or frozenset({origin}),
                ) from exc
            # The decision is durable: participants that died during
            # the phase re-run T' deterministically at recovery.
            live = set(participants) - self.transport.down
            for down_sid in set(participants) - live:
                self._missed_runs[down_sid] = (tx_name, dict(params or {}))
        # Commit point: from here the round must run to completion.
        # Without a NegotiationSpec, a crash discovered during the T'
        # re-execution or install phases would leave participants
        # divergent (T' commits site by site), so it is *not* converted
        # into a clean Unavailable -- it escapes as UnreachableError
        # with the round still open, which trips the transport's
        # nesting invariant loudly on the next round.  The quorum
        # decision above is how a deployment closes the window that
        # used to need coordinator redo logging: once decided, any
        # participant can finish the round.
        reference, written_union = self._cleanup_execute(
            decided_origin, tx_name, params, live
        )
        self._check_closure_covered(tx_name, written_union, participants)
        # Hooks (e.g. delta rebasing) only rewrite bases/deltas of
        # objects whose deltas were already dirty, and those factors
        # are recomputed anyway, so dirty | written covers everything.
        self._install_new_treaty(
            dirty=dirty | written_union, participants=live, origin=decided_origin
        )
        self.transport.end(trace)
        self.stats.negotiations += 1
        return ClusterResult(
            log=reference,
            site=origin,
            synced=True,
            participants=tuple(sorted(live)),
        )

    def try_submit(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> ClusterResult:
        """:meth:`submit`, with unavailability mapped into the result.

        The facade entry point for callers that branch on
        :class:`~repro.protocol.messages.Outcome` instead of catching
        :class:`Unavailable`: a refused or timed-out submission comes
        back as an empty result carrying ``REFUSED``/``UNAVAILABLE``
        (no state or treaty changed; retry after recovery).
        """
        try:
            return self.submit(tx_name, params)
        except Unavailable as exc:
            return ClusterResult(
                log=(),
                site=self.tx_home[tx_name],
                synced=False,
                status=exc.status,
            )

    def precompile_checks(self) -> int:
        """Warm every compiled hot-path check; returns closures warmed.

        Guards compile at catalog registration and treaty checks
        compile lazily on first use; the simulator calls this up front
        so no measured transaction pays the one-time lowering cost.
        Works for any kernel built on this class (including the
        concurrent runtime).
        """
        warmed = 0
        if self.treaty_table is not None:
            warmed += self.treaty_table.precompile()
        for server in self.sites.values():
            if server.local_treaty is not None:
                server.local_treaty.compiled_check()
                server.local_treaty._object_index()
                warmed += 1
        return warmed

    def escrow_stats(self) -> dict:
        """Cluster-wide escrow fast-path statistics.

        ``eligible_ratio`` is the fraction of treaty installs (over the
        whole run, across every site) that lowered to escrow counters;
        the commit counters aggregate live accounts and every retired
        one, so reinstalls do not erase history.  Deterministic under a
        fixed seed, which is what lets the benchmark gate on it.
        """
        totals: dict[str, int] = {}
        installs = eligible = sites_with_treaty = sites_on_escrow = 0
        for server in self.sites.values():
            installs += server.escrow_installs + server.escrow_ineligible_installs
            eligible += server.escrow_installs
            if server.local_treaty is not None:
                sites_with_treaty += 1
                if server.escrow is not None:
                    sites_on_escrow += 1
            for key, value in server.escrow_stats().items():
                totals[key] = totals.get(key, 0) + value
        return {
            "installs": installs,
            "eligible_installs": eligible,
            "eligible_ratio": round(eligible / installs, 5) if installs else 0.0,
            "sites_with_treaty": sites_with_treaty,
            "sites_on_escrow": sites_on_escrow,
            **totals,
        }

    def classifier_stats(self) -> dict:
        """Cluster-wide path-check statistics.

        ``free_ratio`` is the fraction of treaty-bearing executions
        that bypassed the check entirely (``free`` paths);
        ``checks_per_commit`` is the mean number of treaty clauses left
        in scope per execution -- the quantity path-sensitivity shrinks
        and the benchmark gates.  Both are deterministic under a fixed
        seed.
        """
        totals: dict[str, int] = {}
        for server in self.sites.values():
            for key, value in server.check_stats.items():
                totals[key] = totals.get(key, 0) + value
        checked = totals.get("checked", 0)
        return {
            **totals,
            "free_ratio": round(totals.get("free", 0) / checked, 5) if checked else 0.0,
            "checks_per_commit": (
                round(totals.get("clauses_in_scope", 0) / checked, 5)
                if checked
                else 0.0
            ),
        }

    def fairness_stats(self) -> dict:
        """Cluster-wide arbitration-fairness statistics.

        Derived from the credit ledger: the active policy, contested
        elections resolved, the longest consecutive-loss streak any
        site suffered (the starvation measure the contention benchmark
        gates), and per-site win/loss counts, streaks, live credit
        balances, and wait percentiles (elections lost before finally
        winning).  Recorded under either policy, so a priority-only
        run and a credit run expose comparable numbers.  The
        sequential kernel resolves every election unopposed; real
        contention (and hence nonzero streaks) comes from the
        concurrent runtime's vote phase.
        """
        return self.fairness.stats()

    def free_transactions(self) -> frozenset[str]:
        """Transactions whose *every* execution path at their home site
        bypasses the treaty check under the currently installed
        treaties (the classifier's FREE verdict).  The simulator reads
        this once at run start to price such transactions at zero
        check cost."""
        out: set[str] = set()
        for tx_name, home in self.tx_home.items():
            checks = self.sites[home].path_checks.get(tx_name)
            if checks and all(check.kind == "free" for check in checks):
                out.add(tx_name)
        return frozenset(out)

    def check_mechanism(self) -> str:
        """The commit-check mechanism this kernel is running on:
        ``"escrow"`` when every treaty-bearing site holds lowered
        headroom counters, ``"compiled"`` otherwise.  The simulator
        reads this once at run start to price the per-commit check
        service component."""
        bearing = [s for s in self.sites.values() if s.local_treaty is not None]
        if bearing and all(s.escrow is not None for s in bearing):
            return "escrow"
        return "compiled"

    # -- inspection ----------------------------------------------------------------

    def global_state(self) -> dict[str, int]:
        """The authoritative global database: each object from its owner."""
        out: dict[str, int] = {}
        for sid, server in self.sites.items():
            for name, value in server.engine.store.items():
                if self.locate(name) == sid:
                    out[name] = value
        return out

    def force_synchronize(self) -> None:
        """External sync request (used at experiment boundaries).

        A true global barrier: every site participates and exchanges
        its complete owned partition, so even values whose owners last
        synchronized inside a narrower participant set converge
        everywhere.  Like any global barrier it is unavailable while
        any site is down.
        """
        origin = self.site_ids[0]
        participants = set(self.site_ids)
        self._refuse_if_down(participants, "global synchronization")
        with self.transport.negotiation("sync", origin):
            _updates, dirty = self._synchronize(participants, full=True)
            self._install_new_treaty(dirty=dirty, participants=participants, origin=origin)

    # -- crash-stop and recovery --------------------------------------------------
    #
    # The fault model is crash-stop with durable storage: a crashed
    # site loses its *volatile* protocol state (the installed
    # LocalTreaty object, the adaptive headroom snapshot) but keeps
    # its storage engine (the database -- durable through the engine's
    # journaling) and its treaty WAL.  Recovery replays the WAL,
    # announces a Rejoin, and re-syncs the factor state its treaty
    # generation depends on; the validate mode proves the replayed
    # treaty is byte-identical to what the cluster believes the site
    # holds, and that H1/H2 still hold afterwards.

    def crash_site(self, sid: int) -> None:
        """Crash-stop one site: cut it off the transport and lose its
        volatile treaty state.  Everything it owned stays durable (the
        engine's store and the WAL); in-flight rounds that need it
        will time out and abort."""
        if sid not in self.sites:
            raise ProtocolError(f"unknown site {sid}")
        self.transport.crash(sid)
        server = self.sites[sid]
        server.local_treaty = None
        server.install_headroom = {}
        server.treaty_round = -1
        server.path_checks = {}
        server.drop_escrow()

    def recover_site(self, sid: int) -> tuple[int, ...]:
        """Restart a crashed site: WAL replay, Rejoin, scoped re-sync.

        1. **Replay** the durable treaty WAL (torn tail dropped): the
           site resumes enforcing exactly the local treaty its peers
           believe it holds, with the recorded headroom snapshot.
        2. **Rejoin**: announce recovery to the reachable sites whose
           treaty factors it shares (``wal_round`` lets peers spot a
           stale epoch -- impossible here because rounds touching this
           site's factors were refused while it was down, which the
           validate mode double-checks).
        3. **Re-sync factor state**: a scoped synchronization over the
           rejoiner's closure refreshes its snapshots of remote
           objects feeding its treaty-generation instances.

        Returns the rejoin round's participant set (for simulator
        pricing).  In validate mode, asserts the replayed treaty is
        identical to the cluster's treaty table entry and that H1/H2
        hold after the rejoin.
        """
        if sid not in self.sites:
            raise ProtocolError(f"unknown site {sid}")
        if not self.transport.is_down(sid):
            raise ProtocolError(f"site {sid} is not down")
        server = self.sites[sid]
        replayed_round = server.replay_wal()
        # A round this site coordinated (or participated in) may have
        # been completed by a survivor while it was down: the decision
        # was quorum-durable, so the live participants ran T' and
        # installed the round's treaty without it.  Catch up
        # deterministically -- the coordinator crash window is
        # post-synchronization, so the replayed state *is* the
        # synchronized state and re-running T' reproduces the round's
        # writes exactly; then adopt the round's treaty entry (logged
        # to the WAL like any install) before rejoining.
        missed = self._missed_runs.pop(sid, None)
        if missed is not None:
            missed_tx, missed_params = missed
            server.run_cleanup_transaction(missed_tx, missed_params)
            if self.treaty_table is not None:
                server.install_treaty(
                    self.treaty_table.local_for(sid),
                    round_number=self.treaty_table.round_number,
                )
        self.transport.recover(sid)
        self.stats.recoveries += 1

        seed = set(server.dirty_owned_values())
        if server.local_treaty is not None:
            seed |= server.local_treaty.objects()
        participants, closure = self._participants_for(sid, seed)
        # Peers still down sit the rejoin out; their factor state
        # refreshes when they themselves rejoin.
        participants -= self.transport.down
        affected = self.generator.objects_touching(closure) | closure
        try:
            with self.transport.negotiation("rejoin", sid):
                for dst in sorted(participants - {sid}):
                    self.transport.send(
                        Rejoin(src=sid, dst=dst, wal_round=replayed_round),
                    )
                self._synchronize(participants, affected=affected)
        except UnreachableError as exc:
            # A peer became unreachable during the rejoin (lossy link,
            # fresh crash).  The site itself is safely back -- its WAL
            # treaty is installed and correct, and stale remote
            # snapshots are legal under the execution model -- but the
            # factor re-sync did not complete; surface it as the typed
            # unavailability so callers can retry the rejoin round.
            self.stats.timeouts += 1
            raise Unavailable(
                f"rejoin of site {sid} timed out: {exc}",
                sites=frozenset({exc.dst}),
            ) from exc

        if self.validate:
            self._assert_recovered_treaty(sid)
            if self.treaty_table is not None and not check_h1_algebraic(
                self.treaty_table.templates, self.treaty_table.configuration
            ):
                raise ProtocolError(f"H1 violated after site {sid} rejoined")
            self._assert_h2_locally(participants, self.treaty_table.round_number)
        return tuple(sorted(participants))

    def _assert_recovered_treaty(self, sid: int) -> None:
        """The WAL-replayed treaty must match the treaty table's entry
        for the site exactly -- recovery must not resurrect a stale
        epoch or lose clauses (the acceptance check of WAL-backed
        durability)."""
        if self.treaty_table is None:
            return
        expected = {c.pretty() for c in self.treaty_table.local_for(sid).constraints}
        replayed_treaty = self.sites[sid].local_treaty
        replayed = (
            {c.pretty() for c in replayed_treaty.constraints}
            if replayed_treaty is not None
            else set()
        )
        if replayed != expected:
            raise ProtocolError(
                f"site {sid} rejoined with a treaty that does not match the "
                f"cluster's: {sorted(replayed)} vs {sorted(expected)}"
            )
