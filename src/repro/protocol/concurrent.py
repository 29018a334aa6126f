"""The concurrent cleanup runtime: racing violators and a real vote.

:meth:`HomeostasisCluster.submit` runs one transaction at a time, so
a treaty violation is always unopposed and the Section 3.3 vote is a
trivial broadcast.  :class:`ConcurrentCluster` accepts a *window* of
interleaved submissions from multiple origin sites, which makes the
cleanup phase's election real:

1. **optimistic execution** -- every transaction in the window runs
   disconnected at its origin site; commits are final, violators
   abort and become *contenders* (several can violate in the same
   window, on the same or on overlapping objects);
2. **conflict grouping** -- each contender's participant closure is
   computed (same fixpoint as the sequential path); contenders whose
   closures overlap are merged into one conflict group, because their
   negotiations would touch common sites and cannot proceed
   independently;
3. **vote phase** -- inside each group the contenders exchange
   :class:`~repro.protocol.messages.Vote` messages carrying their
   ``(timestamp, -credit, site, txn_seq)`` priority tuples; the
   lowest tuple wins deterministically, every loser concedes with a
   :class:`~repro.protocol.messages.VoteReply`, and the winner
   announces itself to the non-contender participants of its closure.
   Under the budgeted-credit arbitration policy
   (:class:`~repro.protocol.paxos_commit.NegotiationSpec` with
   ``policy="credit"``) each lost election accrues priority credit
   that strictly improves the loser's next bid, bounding consecutive
   losses; the legacy priority policy bids zero credit everywhere and
   reproduces the historical ordering exactly;
4. **parallel negotiations** -- the winners of *disjoint* groups run
   their cleanup rounds concurrently: their transport contexts are
   all opened before any closes, and the sync / re-run / install
   phases are interleaved message-by-message (the trace's
   ``opened_at``/``closed_at`` stamps prove the rounds overlap);
5. **losers re-run** -- after the wave's treaties install, every
   loser re-executes from scratch; it either commits under the new
   treaties or contends again in the next wave (keeping its original
   timestamp, so seniority is preserved).

With adaptive reallocation enabled, *proactive treaty refreshes*
arbitrate through the same machinery: a committed transaction that
pushes a clause below the low-watermark becomes a rebalance contender
in the next election, its closure conflict-grouped with the wave's
violators.  A winning refresh runs sync + regeneration (no T' -- it
aborted nothing); a losing refresh concedes with a
:class:`~repro.protocol.messages.VoteReply` like any loser and
re-checks the watermark after the winner's treaties install (which
usually clears the breach).

Every step iterates in sorted deterministic order, so two runs over
the same window produce identical traces and states -- the seeded
arbitration order the simulator's determinism tests rely on.

Under the fault-tolerant runtime, a window degrades per conflict
group instead of wholesale: submissions whose origin site is down
fail immediately (``WindowOutcome.failed``); a group whose merged
scope contains a known-crashed site is refused before its round
opens; and a crash discovered mid-round (an
:class:`~repro.protocol.transport.UnreachableError` during the vote
or sync phase -- the abortable prefix, before any T' re-executes)
aborts that group's round cleanly while the wave's *other* groups,
whose disjoint closures cannot contain the crashed site, continue
unaffected.  Failed violators do not re-run within the window: their
negotiation needs the crashed site by definition, so the client
retries after recovery.  Losing *refresh* desires of a failed group
are dropped silently -- their transactions already committed.

Optimistic execution inherits the per-site commit check unchanged:
each origin site's :class:`~repro.protocol.site.SiteServer` decides
admission through the escrow headroom counters
(:mod:`repro.treaty.escrow`) when its installed treaty is
escrow-eligible, falling back to the compiled closure otherwise, so a
window's violators are exactly the transactions whose decrements
would drive a counter negative.  Wave installs route through
``install_treaty`` and so re-lower the counters; the sync phase's
pokes bump the engine epoch, which lazily resynchronizes any site
whose counters a concurrent wave made stale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.protocol.homeostasis import HomeostasisCluster, ProtocolError
from repro.protocol.messages import Outcome, Vote, VoteReply
from repro.protocol.paxos_commit import QuorumUnreachable
from repro.protocol.site import SiteResult
from repro.protocol.transport import (
    NegotiationTrace,
    Transport,
    UnreachableError,
)

if TYPE_CHECKING:
    from repro.protocol.config import ClusterSpec


@dataclass
class WindowOutcome:
    """What the client observes for one transaction of a window."""

    index: int  # position in the submitted window
    tx_name: str
    log: tuple[int, ...] = ()
    site: int = -1
    synced: bool = False
    #: sites of the negotiation this transaction won (empty otherwise)
    participants: tuple[int, ...] = ()
    #: wave whose negotiation this transaction won (-1: never won one)
    wave: int = -1
    #: elections this transaction lost before completing
    lost_votes: int = 0
    #: global commit order within the window (serial-equivalence order)
    commit_seq: int = -1
    #: transport-trace index of the won negotiation (-1 otherwise)
    negotiation_index: int = -1
    #: proactive treaty refreshes this *committed* transaction won by
    #: breaching the adaptive low-watermark
    rebalances: int = 0
    #: participants of the won refresh (empty when none ran)
    rebalance_participants: tuple[int, ...] = ()
    #: unified result status (see
    #: :class:`~repro.protocol.messages.Outcome`): ``REFUSED`` when a
    #: site the transaction needed was *known* down before its round
    #: opened (origin down, or a crashed site inside its conflict
    #: group's scope), ``UNAVAILABLE`` when a vote/sync timeout
    #: discovered the crash mid-round; the client retries after
    #: recovery either way
    status: Outcome = Outcome.COMMITTED

    @property
    def failed(self) -> bool:
        """The transaction did not complete (derived from ``status``,
        so the two surfaces cannot disagree)."""
        return self.status in (Outcome.REFUSED, Outcome.UNAVAILABLE)


@dataclass
class GroupOutcome:
    """One conflict group's resolved election."""

    wave: int
    winner: int  # request index
    losers: tuple[int, ...]  # request indices of losing *violators*
    #: origin sites of every contender (the electorate)
    contender_sites: tuple[int, ...]
    #: participant set of the winner's negotiation
    participants: tuple[int, ...]
    #: merged closure scope the transport round was opened with
    scope: tuple[int, ...]
    negotiation_index: int
    #: True when the group's winner was a proactive treaty refresh
    #: (adaptive reallocation) rather than a violation cleanup
    rebalance: bool = False
    #: request indices of committed transactions whose refresh desire
    #: lost this election (they concede and re-check next wave)
    rebalance_losers: tuple[int, ...] = ()

    @property
    def members(self) -> tuple[int, ...]:
        return (self.winner,) + self.losers + self.rebalance_losers


@dataclass
class WindowResult:
    """Everything one window of interleaved submissions produced."""

    outcomes: list[WindowOutcome]
    #: wave -> conflict groups resolved in that wave (groups within a
    #: wave have disjoint scopes and ran their negotiations in parallel)
    waves: list[list[GroupOutcome]] = field(default_factory=list)
    #: request indices in the order their effects committed (the
    #: serial-equivalent execution order of the window)
    commit_order: list[int] = field(default_factory=list)

    @property
    def contended(self) -> bool:
        return any(len(g.members) > 1 for wave in self.waves for g in wave)


@dataclass
class _Contender:
    """A violator -- or a proactive-refresh desire -- awaiting election."""

    index: int
    tx_name: str
    params: Mapping[str, int] | None
    origin: int
    timestamp: int
    txn_seq: int
    #: True for a proactive rebalance: the transaction at ``index``
    #: already committed but breached the adaptive low-watermark, and
    #: its refresh must win a slot like any other negotiation
    rebalance: bool = False
    #: closure seed (violation seed, or breached clause objects plus
    #: the origin's dirty set for a rebalance)
    seed: set[str] = field(default_factory=set)
    #: elections this refresh desire has lost (retries are capped)
    lost: int = 0
    participants: set[int] = field(default_factory=set)
    affected: set[str] = field(default_factory=set)
    #: priority credit bid this election (0 under the legacy policy;
    #: refreshed from the credit ledger at grouping time otherwise)
    credit: int = 0

    @property
    def priority(self) -> tuple[int, int, int, int]:
        # Credit is folded in *ahead of the site id* (negated: more
        # credit = higher priority), closing the latent tie where equal
        # ``(timestamp, txn_seq)`` bids always favored low-numbered
        # sites.  With zero credit everywhere (the legacy policy) the
        # ordering is exactly the historical one.
        return (self.timestamp, -self.credit, self.origin, self.txn_seq)


@dataclass
class _WaveRound:
    """One conflict group's in-flight negotiation within a wave."""

    group: list[_Contender]
    trace: NegotiationTrace
    alive: bool = True
    dirty: set[str] = field(default_factory=set)
    reference: tuple[int, ...] | None = None
    written: set[str] = field(default_factory=set)
    #: site driving the round past the decision (the winner's origin,
    #: or the survivor that completed a crashed coordinator's round)
    decided_origin: int = -1
    #: participants still live after the decision phase (empty: all)
    live: set[int] = field(default_factory=set)


class ConcurrentCluster(HomeostasisCluster):
    """A homeostasis cluster whose kernel accepts interleaved
    submissions and resolves racing violators with a real vote phase.

    ``submit`` (inherited) still runs single transactions; windows go
    through :meth:`submit_window`.
    """

    def __init__(self, spec: "ClusterSpec", transport: Transport | None = None) -> None:
        super().__init__(spec, transport=transport)
        self._txn_seq = itertools.count()

    # -- fault handling ------------------------------------------------------------

    def _fail_group(
        self,
        group: list[_Contender],
        outcomes,
        status: Outcome = Outcome.REFUSED,
    ) -> None:
        """A group's negotiation cannot run (its scope contains an
        unreachable site).  Violator members fail -- their cleanup
        needs that site by definition, so re-running them this window
        would only fail again; the client retries after recovery.
        Refresh desires are dropped silently: their transactions
        already committed, and the watermark re-triggers later."""
        for contender in group:
            if not contender.rebalance:
                outcomes[contender.index].status = status

    def _abort_wave_round(self, rnd: _WaveRound, outcomes) -> None:
        """A crash was discovered mid-round (vote/sync timeout): close
        the round's transport context as aborted and fail its members.
        Only this group degrades -- same-wave groups have disjoint
        closures, so the crashed site cannot be in theirs."""
        self.transport.abort(rnd.trace)
        self.stats.timeouts += 1
        self._fail_group(rnd.group, outcomes, status=Outcome.UNAVAILABLE)
        rnd.alive = False

    # -- window machinery ----------------------------------------------------------

    def _execute_round(
        self, entries: list[_Contender]
    ) -> tuple[
        list[tuple[_Contender, SiteResult]],
        list[tuple[_Contender, SiteResult]],
        list[_Contender],
    ]:
        """Optimistically execute the entries at their origin sites in
        window order; return (committed, violators, unreachable).
        Entries whose origin site is down cannot even attempt their
        local execution -- they fail without touching any state."""
        committed: list[tuple[_Contender, SiteResult]] = []
        violators: list[tuple[_Contender, SiteResult]] = []
        unreachable: list[_Contender] = []
        for entry in entries:
            if self.transport.is_down(entry.origin):
                unreachable.append(entry)
                continue
            result = self.sites[entry.origin].execute(entry.tx_name, entry.params)
            if result.committed:
                self.demand.observe(result.written)
                committed.append((entry, result))
            else:
                self.demand.observe(result.attempted_writes)
                violators.append((entry, result))
        return committed, violators, unreachable

    def _rebalance_contenders(
        self,
        committed: list[tuple[_Contender, SiteResult]],
        carried: list[_Contender],
    ) -> list[_Contender]:
        """Proactive-refresh desires entering this wave's elections.

        Fresh desires come from commits that just breached the
        low-watermark (one per origin site per wave -- a refresh
        re-splits every hot clause of that site at once); carried
        desires are last wave's election losers, re-checked against
        the treaties the winners installed (a refresh that covered
        their sites usually cleared the breach) and dropped after
        three lost elections -- the next window re-triggers if the
        pressure persists.
        """
        if self.adaptive is None:
            return []
        out: list[_Contender] = []
        claimed: set[int] = set()
        for entry in carried:
            breached = self._watermark_breaches(
                self.sites[entry.origin], set(entry.seed)
            )
            if breached and entry.lost < 3 and entry.origin not in claimed:
                claimed.add(entry.origin)
                entry.seed = breached | set(
                    self.sites[entry.origin].dirty_owned_values()
                )
                out.append(entry)
        for entry, result in committed:
            if entry.origin in claimed:
                continue
            breached = self._watermark_breaches(
                self.sites[entry.origin], result.written
            )
            if breached:
                claimed.add(entry.origin)
                out.append(
                    _Contender(
                        index=entry.index,
                        tx_name=entry.tx_name,
                        params=entry.params,
                        origin=entry.origin,
                        timestamp=entry.timestamp,
                        txn_seq=next(self._txn_seq),
                        rebalance=True,
                        seed=breached
                        | set(self.sites[entry.origin].dirty_owned_values()),
                    )
                )
        return out

    def _conflict_groups(
        self, contenders: list[_Contender]
    ) -> list[list[_Contender]]:
        """Partition contenders into groups of transitively-overlapping
        participant closures (disjoint groups negotiate in parallel).
        Every contender's ``seed`` must already be set; violation
        cleanups and proactive refreshes arbitrate in the same groups.
        """
        entries: list[_Contender] = []
        for entry in contenders:
            participants, closure = self._participants_for(
                entry.origin, set(entry.seed)
            )
            entry.participants = participants
            entry.affected = self.generator.objects_touching(closure) | closure
            # Refresh the bid from the credit ledger at grouping time:
            # a site that lost last wave's election bids the improved
            # priority this wave (0 under the legacy policy).
            entry.credit = self.fairness.bid_credit(entry.origin)
            entries.append(entry)
        groups: list[list[_Contender]] = []
        scopes: list[set[int]] = []
        for entry in entries:
            hits = [
                i for i, scope in enumerate(scopes) if scope & entry.participants
            ]
            if not hits:
                groups.append([entry])
                scopes.append(set(entry.participants))
                continue
            # Merge every overlapped group (the entry bridges them).
            target = hits[0]
            groups[target].append(entry)
            scopes[target] |= entry.participants
            for i in reversed(hits[1:]):
                groups[target].extend(groups.pop(i))
                scopes[target] |= scopes.pop(i)
        for group in groups:
            group.sort(key=lambda c: c.priority)
        groups.sort(key=lambda g: g[0].priority)
        return groups

    def _vote_phase(self, group: list[_Contender]) -> None:
        """Contenders exchange votes; losers concede to the winner.

        The winner is the lowest ``(timestamp, -credit, site,
        txn_seq)`` tuple; every contender computes it independently
        from the exchanged votes -- the credit term rides inside each
        :class:`Vote` -- so arbitration needs no extra coordinator.
        """
        winner = group[0]  # groups are priority-sorted
        if len(group) > 1:
            # Co-located contenders arbitrate site-locally for free;
            # only cross-site claims and concessions hit the wire.
            for voter in group:
                for other in group:
                    if other is voter or other.origin == voter.origin:
                        continue
                    self.transport.send(
                        Vote(
                            src=voter.origin,
                            dst=other.origin,
                            tx_name=voter.tx_name,
                            timestamp=voter.timestamp,
                            txn_seq=voter.txn_seq,
                            credit=voter.credit,
                        )
                    )
            for loser in group[1:]:
                if loser.origin == winner.origin:
                    continue
                self.transport.send(
                    VoteReply(
                        src=loser.origin,
                        dst=winner.origin,
                        winner_site=winner.origin,
                        winner_txn=winner.txn_seq,
                    )
                )
        # The winner announces itself to its non-contender
        # participants: T' for a cleanup, the refresh for a rebalance.
        electorate = {c.origin for c in group}
        announce = set(winner.participants) - electorate
        if winner.rebalance:
            self._announce_rebalance(
                winner.origin, announce | {winner.origin}, set(winner.seed)
            )
        else:
            self._announce_winner(
                winner.origin,
                winner.tx_name,
                announce | {winner.origin},
                timestamp=winner.timestamp,
                txn_seq=winner.txn_seq,
            )

    def submit_window(
        self,
        requests: Sequence[tuple[str, Mapping[str, int] | None]],
        timestamps: Sequence[int] | None = None,
    ) -> WindowResult:
        """Run a window of interleaved transactions to completion.

        ``timestamps`` are the arrival stamps feeding vote priorities;
        by default every transaction in the window raced in at stamp 0,
        so elections fall through to the (site, txn_seq) tiebreaks.
        """
        if timestamps is None:
            timestamps = [0] * len(requests)
        if len(timestamps) != len(requests):
            raise ProtocolError("one timestamp per windowed request")
        entries: list[_Contender] = []
        for index, (tx_name, params) in enumerate(requests):
            if tx_name not in self.tx_home:
                raise ProtocolError(f"unknown transaction {tx_name!r}")
            self.stats.submitted += 1
            entries.append(
                _Contender(
                    index=index,
                    tx_name=tx_name,
                    params=params,
                    origin=self.tx_home[tx_name],
                    timestamp=timestamps[index],
                    txn_seq=next(self._txn_seq),
                )
            )

        outcomes = [
            WindowOutcome(index=e.index, tx_name=e.tx_name, site=e.origin)
            for e in entries
        ]
        result = WindowResult(outcomes=outcomes)
        commit_seq = itertools.count()
        pending = entries
        carried_rebalances: list[_Contender] = []
        wave = 0
        while pending or carried_rebalances:
            # Rebalance retries are capped, so waves are bounded by the
            # violator chains plus a constant tail of refreshes.
            if wave > 2 * (len(requests) + 1):
                raise ProtocolError(
                    "window did not quiesce: livelocked elections"
                )
            committed, violators, unreachable = self._execute_round(pending)
            for entry in unreachable:
                outcomes[entry.index].status = Outcome.REFUSED
            for entry, res in committed:
                self.stats.committed_local += 1
                out = outcomes[entry.index]
                out.log = res.log
                out.commit_seq = next(commit_seq)
                result.commit_order.append(entry.index)
            contenders: list[_Contender] = []
            for entry, res in violators:
                entry.seed = self._violation_seed(self.sites[entry.origin], res)
                contenders.append(entry)
            contenders.extend(
                self._rebalance_contenders(committed, carried_rebalances)
            )
            carried_rebalances = []
            if not contenders:
                break
            groups = self._conflict_groups(contenders)
            rounds: list[_WaveRound] = []
            # Open every group's round before any closes: disjoint
            # closures negotiate in parallel, and the transport rejects
            # the wave outright if the scopes were not disjoint.
            # Groups whose scope contains a known-crashed site are
            # refused before their round opens (no messages wasted).
            for group in groups:
                winner = group[0]
                scope = frozenset().union(*(c.participants for c in group))
                if scope & self.transport.down:
                    self.stats.timeouts += 1
                    self._fail_group(group, outcomes)
                    continue
                trace = self.transport.begin(
                    "cleanup", winner.origin, scope=scope, wave=wave
                )
                rounds.append(_WaveRound(group=group, trace=trace))
            # Abortable prefix (vote + sync): a timeout here aborts
            # only the affected group's round, cleanly.
            for rnd in rounds:
                try:
                    self._vote_phase(rnd.group)
                except UnreachableError:
                    self._abort_wave_round(rnd, outcomes)
            for rnd in rounds:
                if not rnd.alive:
                    continue
                winner = rnd.group[0]
                try:
                    _updates, rnd.dirty = self._synchronize(
                        winner.participants, affected=winner.affected
                    )
                except UnreachableError:
                    self._abort_wave_round(rnd, outcomes)
            # Decision phase (NegotiationSpec attached): each alive
            # round makes its commit decision quorum-durable through
            # Paxos Commit before anything irreversible runs.  A round
            # that loses its acceptor quorum aborts cleanly like a
            # sync timeout; a round whose *winner* crashes mid-quorum
            # is completed by a surviving participant, and the rest of
            # the wave finishes it over the live participants.
            # Rebalance rounds stay on the legacy path: they install
            # from already-committed state, are best-effort by
            # contract, and abort harmlessly on any crash.
            for rnd in rounds:
                if not rnd.alive:
                    continue
                winner = rnd.group[0]
                if self._paxos is None or winner.rebalance:
                    continue
                try:
                    try:
                        self._paxos.decide(
                            winner.origin, rnd.trace.index, winner.participants
                        )
                    except UnreachableError:
                        if not self.transport.is_down(winner.origin):
                            raise
                        rnd.decided_origin = self._survivor_complete(
                            rnd.trace.index,
                            winner.origin,
                            set(winner.participants),
                            winner.tx_name,
                        )
                except (QuorumUnreachable, UnreachableError):
                    self._abort_wave_round(rnd, outcomes)
                    continue
                rnd.live = set(winner.participants) - self.transport.down
                for down_sid in set(winner.participants) - rnd.live:
                    # The decision is durable; the dead participant
                    # re-runs T' deterministically at recovery.
                    self._missed_runs[down_sid] = (
                        winner.tx_name,
                        dict(winner.params or {}),
                    )
            # Commit point: the surviving rounds run to completion
            # (same contract as the sequential path -- T' commits site
            # by site; the quorum decision above is what lets a round
            # outlive its coordinator past this line).
            alive = [rnd for rnd in rounds if rnd.alive]
            for rnd in alive:
                winner = rnd.group[0]
                if winner.rebalance:
                    # A refresh aborts nothing, so there is no T' to
                    # re-run -- the round is sync + regeneration only.
                    continue
                if rnd.decided_origin < 0:
                    rnd.decided_origin = winner.origin
                if not rnd.live:
                    rnd.live = set(winner.participants)
                rnd.reference, rnd.written = self._cleanup_execute(
                    rnd.decided_origin, winner.tx_name, winner.params, rnd.live
                )
            # Closure coverage is checked against the pre-wave treaty
            # table, before any group installs its replacement.
            for rnd in alive:
                winner = rnd.group[0]
                if not winner.rebalance:
                    self._check_closure_covered(
                        winner.tx_name, rnd.written, winner.participants
                    )
            for rnd in alive:
                winner = rnd.group[0]
                self._install_new_treaty(
                    dirty=rnd.dirty
                    | rnd.written
                    | set(winner.seed if winner.rebalance else ()),
                    participants=rnd.live or set(winner.participants),
                    origin=(
                        rnd.decided_origin
                        if rnd.decided_origin >= 0
                        else winner.origin
                    ),
                )
            for rnd in alive:
                self.transport.end(rnd.trace)

            losers: list[_Contender] = []
            wave_groups: list[GroupOutcome] = []
            for rnd in alive:
                group, trace, reference = rnd.group, rnd.trace, rnd.reference
                winner = group[0]
                out = outcomes[winner.index]
                if winner.rebalance:
                    self.stats.rebalances += 1
                    out.rebalances += 1
                    out.rebalance_participants = tuple(sorted(winner.participants))
                else:
                    self.stats.negotiations += 1
                    out.log = reference
                    out.synced = True
                    out.participants = tuple(
                        sorted(rnd.live or winner.participants)
                    )
                    out.wave = wave
                    out.commit_seq = next(commit_seq)
                    out.negotiation_index = trace.index
                    result.commit_order.append(winner.index)
                violator_losers: list[_Contender] = []
                rebalance_losers: list[_Contender] = []
                for loser in group[1:]:
                    if loser.rebalance:
                        # The refresh concedes; it re-checks next wave
                        # against the treaties this wave installed.
                        loser.lost += 1
                        rebalance_losers.append(loser)
                        carried_rebalances.append(loser)
                    else:
                        outcomes[loser.index].lost_votes += 1
                        violator_losers.append(loser)
                        losers.append(loser)
                # Settle the election in the credit ledger: the winner
                # spends its credit (closing its losing streak), every
                # losing *site* accrues -- the fairness counters behind
                # ``fairness_stats()`` and the benchmark gate.  The
                # ledger tracks site-level starvation, so a site racing
                # against itself (several clients of one replica in the
                # group) is not its own loser.
                self.fairness.record_election(
                    winner.origin,
                    sorted({c.origin for c in group[1:]} - {winner.origin}),
                )
                wave_groups.append(
                    GroupOutcome(
                        wave=wave,
                        winner=winner.index,
                        losers=tuple(c.index for c in violator_losers),
                        contender_sites=tuple(sorted({c.origin for c in group})),
                        participants=tuple(sorted(winner.participants)),
                        scope=tuple(sorted(trace.scope or ())),
                        negotiation_index=trace.index,
                        rebalance=winner.rebalance,
                        rebalance_losers=tuple(c.index for c in rebalance_losers),
                    )
                )
            result.waves.append(wave_groups)
            pending = sorted(losers, key=lambda c: c.index)
            wave += 1
        return result
