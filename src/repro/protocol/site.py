"""A homeostasis site server.

Each site owns a partition of the database (authoritative values for
objects with ``Loc(x) = site``) and keeps *snapshot* values for every
remote object it may read (Section 3.2's model of disconnected
execution: local reads are current, remote reads see a possibly stale
snapshot refreshed at synchronization points).  Both live in one
storage engine -- the protocol guarantees writes only touch owned
objects during normal execution (Assumption 3.1).

``execute`` implements the online path of Section 5.1: dispatch to
the stored procedure whose guard matches, run it inside a storage
transaction, check the local treaty before commit, and either commit
(returning the log) or abort and report the treaty violation.

The treaty check has two kinds, selected per execution path at
install time (:mod:`repro.analysis.pathsplit`).  A ``free`` path's
writes touch no base any clause mentions, so its commit skips the
check -- and the write-delta computation -- outright.  Every other
path takes the ``full`` check: treaties whose clauses are all linear
``<=``-bounds are lowered at install time into **escrow headroom
counters** (:mod:`repro.treaty.escrow`), so the check becomes counter
subtractions driven by the undo journal's write deltas, with batched
window settlement; the rest go through the compiled-closure check
(:meth:`~repro.treaty.table.LocalTreaty.violations_after_writes`).
In ``validate_escrow`` mode that compiled check is also the oracle:
every ``free`` or escrow verdict is compared against it after the
fact, and any disagreement raises.

Treaty installs are **durable**: every install (and every rebalance
request this site acknowledges) is appended to the site's
:class:`~repro.storage.wal.TreatyWAL` *before* it is applied or
acked, so a crash-stopped site restarted via :meth:`SiteServer.
replay_wal` resumes enforcing exactly the local treaty its peers
believe it holds -- H1 (locals imply the global treaty) survives the
crash because no site can come back with a forgotten, weaker
invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.analysis.classify import PathCheckDivergence
from repro.analysis.pathsplit import PathCheck, build_path_checks
from repro.lang.interp import ExecContext, execute
from repro.logic.compile import lower_to_escrow
from repro.logic.linear import LinearConstraint
from repro.protocol.catalog import StoredProcedureCatalog
from repro.protocol.messages import (
    CleanupRun,
    Complete,
    Message,
    Phase2a,
    Phase2b,
    RebalanceRequest,
    Rejoin,
    SyncBroadcast,
    TreatyInstall,
    Vote,
    VoteReply,
)
from repro.storage.engine import LocalEngine
from repro.storage.wal import (
    TreatyWAL,
    decode_local_treaty,
    decode_recorded_paths,
    encode_local_treaty,
)
from repro.treaty.escrow import EscrowAccount, EscrowDivergence
from repro.treaty.table import LocalTreaty


def _fresh_check_stats() -> dict[str, int]:
    return {"free": 0, "full": 0, "checked": 0, "clauses_in_scope": 0}


def clause_slack(con: LinearConstraint, getobj: Callable[[str], int]) -> int:
    """Remaining headroom of one ``<=``-clause on the given state:
    ``bound - sum(d_i * D(x_i))`` (negative means violated)."""
    value = 0
    for var, coeff in con.expr.coeffs:
        value += coeff * getobj(var.name)
    return con.bound - value


@dataclass
class SiteResult:
    """Outcome of one transaction attempt at one site."""

    committed: bool
    violated: bool
    log: tuple[int, ...] = ()
    row_index: int | None = None
    #: objects of the violated treaty clauses (seeds the cleanup
    #: phase's participant computation)
    violated_objects: frozenset[str] = frozenset()
    #: write set of the aborted attempt -- T' re-runs after sync and
    #: its writes must be covered by the participant closure up front
    attempted_writes: frozenset[str] = frozenset()
    #: write set of a *committed* attempt -- feeds the online demand
    #: estimator and the adaptive low-watermark slack check
    written: frozenset[str] = frozenset()


@dataclass
class SiteServer:
    site_id: int
    locate: Callable[[str], int]
    engine: LocalEngine = field(default_factory=LocalEngine)
    catalog: StoredProcedureCatalog = field(default_factory=StoredProcedureCatalog)
    local_treaty: LocalTreaty | None = None
    arrays: Mapping[str, tuple[int, ...]] = field(default_factory=dict)

    def owns(self, name: str) -> bool:
        return self.locate(name) == self.site_id

    #: per-clause headroom at install time (the allocation the adaptive
    #: low-watermark compares remaining slack against)
    install_headroom: dict[LinearConstraint, int] = field(default_factory=dict)
    #: append-only durable log of treaty installs / rebalance acks;
    #: survives a crash-stop of the (volatile) server object
    wal: TreatyWAL = field(default_factory=TreatyWAL)
    #: round number of the currently installed treaty (-1 before any)
    treaty_round: int = -1
    #: escrow fast-path account for the installed treaty; None when no
    #: treaty is installed or the treaty is escrow-ineligible (any
    #: clause over non-object variables keeps the compiled slow path)
    escrow: EscrowAccount | None = None
    #: run the compiled oracle next to every escrow check and raise
    #: :class:`~repro.treaty.escrow.EscrowDivergence` on disagreement
    #: (the cluster's validate mode turns this on)
    validate_escrow: bool = False
    #: stats folded out of replaced/dropped escrow accounts, so
    #: run-level counters survive treaty reinstalls
    escrow_retired: dict[str, int] = field(default_factory=dict)
    #: installs that produced an escrow account vs. ones that fell back
    #: to the compiled path (the eligibility ratio the benchmark gates)
    escrow_installs: int = 0
    escrow_ineligible_installs: int = 0
    #: per-(tx, path) check kind under the installed treaty (rebuilt
    #: on every install, cleared on crash)
    path_checks: dict[str, tuple[PathCheck, ...]] = field(default_factory=dict)
    #: which check kind each treaty-bearing execution landed on, plus
    #: the number of treaty clauses left in scope for it (what the
    #: checks-per-commit benchmark gate reads)
    check_stats: dict[str, int] = field(default_factory=_fresh_check_stats)
    #: Paxos Commit acceptor state, keyed by decision-round instance
    #: id: the highest ballot promised, and the (ballot, verdicts)
    #: last accepted.  Volatile mirrors of the WAL's ``paxos_promise``
    #: / ``paxos_accept`` records -- a crash loses the dicts, replay
    #: rebuilds them, so a restarted acceptor can never accept behind
    #: a promise it already made durable.
    paxos_promised: dict[int, int] = field(default_factory=dict)
    paxos_accepted: dict[int, tuple[int, tuple[tuple[int, bool], ...]]] = field(
        default_factory=dict
    )

    def install_treaty(
        self, treaty: LocalTreaty, round_number: int = -1, log: bool = True
    ) -> None:
        """Install a new local treaty and checkpoint each ``<=``-clause's
        headroom on the install-time (synchronized) state.

        The headroom snapshot is what makes the low-watermark check a
        *relative* trigger: "this clause has burned through 1 - w of
        the budget the last negotiation granted", independent of the
        clause's absolute scale.

        The install is **logged to the WAL before it is applied** (and
        therefore before any transport-level acknowledgement returns to
        the coordinator): once a peer believes this site holds the
        treaty, a crash-stop cannot unhold it.  ``log=False`` is the
        replay path only -- reinstalling a recovered treaty must not
        re-append it.
        """
        peek = self.engine.peek
        headroom = {
            con: clause_slack(con, peek)
            for con in treaty.constraints
            if con.op == "<="
        }
        # Select every registered procedure's per-path check kind
        # against the new clauses.  Deterministic given (catalog,
        # treaty), so the WAL record doubles as a recovery cross-check.
        paths = build_path_checks(self.catalog, treaty)
        if log:
            record = {"kind": "treaty_install", "round": round_number}
            record.update(encode_local_treaty(treaty, headroom, paths))
            self.wal.append(record)
        self.local_treaty = treaty
        self.install_headroom = headroom
        self.treaty_round = round_number
        self.path_checks = paths
        self._rebuild_escrow(headroom)

    def replay_wal(self) -> int:
        """Restart path: restore the treaty state from the durable log.

        Reduces the log to its last *complete* install record (a torn
        tail -- crash mid-append -- is dropped; it was never acked, so
        no peer assumes this site has it) and reinstalls that treaty
        with its recorded headroom snapshot.  Idempotent: replaying
        again reinstalls the same record.  Returns the replayed round
        number (-1 for a fresh log).
        """
        self._replay_paxos_state()
        record = self.wal.last_treaty_install()
        if record is None:
            self.local_treaty = None
            self.install_headroom = {}
            self.treaty_round = -1
            self.path_checks = {}
            self.drop_escrow()
            return -1
        treaty, headroom = decode_local_treaty(record)
        self.local_treaty = treaty
        # The path checks are re-derived, not restored: they are a pure
        # function of (catalog, treaty), and re-deriving keeps them
        # consistent with the code actually running after a restart.
        # Validate mode cross-checks the re-derivation against what was
        # recorded at install time.
        self.path_checks = build_path_checks(self.catalog, treaty)
        if self.validate_escrow:
            recorded = decode_recorded_paths(record)
            if recorded is not None and recorded != self.path_checks:
                raise PathCheckDivergence(
                    f"site {self.site_id}: replayed path checks do not "
                    "match the install-time record"
                )
        # The recorded snapshot, not a recomputation: slack already
        # consumed before the crash must stay consumed, or the adaptive
        # low-watermark would silently reset at every recovery.
        self.install_headroom = headroom
        self.treaty_round = record["round"]
        # The escrow counters take the opposite stance: the recorded
        # grants are the *install-time* slack, and everything consumed
        # since lives in the durable store -- so recovery rebuilds the
        # account from the WAL record and then resynchronizes it
        # against the store, leaving counters identical to a freshly
        # lowered treaty on the recovered state.
        self._rebuild_escrow(headroom)
        if self.escrow is not None:
            self.escrow.resync(self.engine.peek, self.engine.epoch)
        return self.treaty_round

    def _replay_paxos_state(self) -> None:
        """Rebuild the acceptor dicts from the durable log (the records
        were appended before the corresponding acks left the site, so
        the replayed state is at least as strong as anything a peer
        ever observed)."""
        promised: dict[int, int] = {}
        accepted: dict[int, tuple[int, tuple[tuple[int, bool], ...]]] = {}
        for record in self.wal.records():
            kind = record.get("kind")
            if kind == "paxos_promise":
                rnd = record["round"]
                promised[rnd] = max(promised.get(rnd, -1), record["ballot"])
            elif kind == "paxos_accept":
                rnd = record["round"]
                promised[rnd] = max(promised.get(rnd, -1), record["ballot"])
                accepted[rnd] = (
                    record["ballot"],
                    tuple((int(p), bool(ok)) for p, ok in record["verdicts"]),
                )
        self.paxos_promised = promised
        self.paxos_accepted = accepted

    # -- Paxos Commit acceptor state machine ---------------------------------------

    def paxos_accept(
        self,
        round_number: int,
        ballot: int,
        verdicts: tuple[tuple[int, bool], ...],
    ) -> bool:
        """Phase 2 accept: adopt the proposed verdict vector unless a
        higher ballot was already promised.  The accept is **logged to
        the WAL before it is acknowledged** -- that ordering is the
        whole point of Paxos Commit: once the proposer counts this
        ack toward its quorum, no crash of this site can un-log the
        verdicts a survivor would need to finish the round."""
        if ballot < self.paxos_promised.get(round_number, -1):
            return False
        self.wal.append(
            {
                "kind": "paxos_accept",
                "round": round_number,
                "ballot": ballot,
                "verdicts": [[p, ok] for p, ok in verdicts],
            }
        )
        self.paxos_promised[round_number] = ballot
        self.paxos_accepted[round_number] = (ballot, tuple(verdicts))
        return True

    def paxos_promise(
        self, round_number: int, ballot: int
    ) -> tuple[tuple[int, bool], ...] | None:
        """Phase 1 promise + report (a survivor's empty-verdict
        solicitation): promise the ballot, logged before the reply,
        and report the verdicts this acceptor last accepted (None if
        it never accepted -- or if the promise is refused because a
        higher ballot holds)."""
        if ballot < self.paxos_promised.get(round_number, -1):
            return None
        self.wal.append(
            {"kind": "paxos_promise", "round": round_number, "ballot": ballot}
        )
        self.paxos_promised[round_number] = ballot
        accepted = self.paxos_accepted.get(round_number)
        return accepted[1] if accepted is not None else None

    # -- escrow fast-path plumbing -------------------------------------------------

    def _rebuild_escrow(self, headroom: Mapping[LinearConstraint, int]) -> None:
        """Lower the installed treaty to a fresh escrow account (or
        fall back to the compiled path when ineligible).

        A ``<=``-clause row starts at the install-time grant (the same
        snapshot the adaptive watermark keeps); rows with no grant --
        an equality pin's opposing pair -- take their slack straight
        from the synchronized store.
        """
        self._fold_escrow_stats()
        program = (
            lower_to_escrow(tuple(self.local_treaty.constraints))
            if self.local_treaty is not None
            else None
        )
        if program is None:
            self.escrow = None
            if self.local_treaty is not None:
                self.escrow_ineligible_installs += 1
            return
        peek = self.engine.peek
        self.escrow = EscrowAccount(
            program,
            [
                headroom[row] if row in headroom else clause_slack(row, peek)
                for row in program.rows
            ],
            epoch=self.engine.epoch,
        )
        self.escrow_installs += 1

    def drop_escrow(self) -> None:
        """Retire the current escrow account (crash-stop, treaty
        removal); its counters fold into the run-level stats."""
        self._fold_escrow_stats()
        self.escrow = None

    def _fold_escrow_stats(self) -> None:
        if self.escrow is None:
            return
        for key, value in self.escrow.stats().items():
            self.escrow_retired[key] = self.escrow_retired.get(key, 0) + value

    def escrow_stats(self) -> dict[str, int]:
        """Run-level escrow counters: retired accounts plus the live
        one."""
        out = dict(self.escrow_retired)
        if self.escrow is not None:
            for key, value in self.escrow.stats().items():
                out[key] = out.get(key, 0) + value
        return out

    # -- the online execution path (Section 5.1) ---------------------------------

    def execute(self, tx_name: str, params: Mapping[str, int] | None = None) -> SiteResult:
        """Run a transaction disconnected; commit iff the local treaty
        still holds afterwards."""
        txn = self.engine.begin()
        getobj = txn.read
        try:
            proc = self.catalog.dispatch(tx_name, getobj, params=params)
            ctx = ExecContext(
                getobj=getobj,
                setobj=txn.write,
                emit=txn.emit,
                params=dict(params or {}),
                arrays=self.arrays,
            )
            proc.run(ctx)
            self._assert_writes_local(txn.written, tx_name)
            if self.local_treaty is not None:
                treaty = self.local_treaty
                check = self._path_check(tx_name, proc.row_index)
                free = check is not None and check.kind == "free"
                stats = self.check_stats
                stats["checked"] += 1
                escrow = self.escrow
                if free:
                    # The path's writes touch no base any clause
                    # mentions: under H2 the treaty still holds, and
                    # the escrow counters (if any) would not have
                    # staged these deltas either (max_coeff == 0), so
                    # the delta computation is skipped along with the
                    # check.
                    stats["free"] += 1
                    violated: set[str] | frozenset[str] = frozenset()
                else:
                    stats["full"] += 1
                    stats["clauses_in_scope"] += len(treaty.constraints)
                    if escrow is not None:
                        engine = self.engine
                        if escrow.synced_epoch != engine.epoch:
                            # Non-transactional writes (sync broadcasts,
                            # post-sync hooks, cleanup runs) moved values
                            # under the counters; recompute before
                            # trusting them.  The store already holds
                            # *this* transaction's writes, so the
                            # recomputation must read its before-images
                            # -- resyncing on the post-state would charge
                            # the deltas twice.
                            before_images = {
                                name: before
                                for name, before, _existed in txn.undo.entries
                            }
                            peek = engine.peek
                            escrow.resync(
                                lambda name: before_images[name]
                                if name in before_images
                                else peek(name),
                                engine.epoch,
                            )
                        store_get = engine.store.get
                        deltas = {
                            name: store_get(name) - before
                            for name, before, _existed in txn.undo.entries
                        }
                        viol_idx = escrow.commit(deltas)
                        violated = (
                            escrow.violated_objects(viol_idx)
                            if viol_idx is not None
                            else frozenset()
                        )
                    else:
                        violated = treaty.violations_after_writes(
                            getobj, txn.written
                        )
                if self.validate_escrow and (free or escrow is not None):
                    oracle = treaty.violations_after_writes(getobj, txn.written)
                    if set(violated) != oracle:
                        where = f"site {self.site_id}, {tx_name} path {proc.row_index}"
                        if free:
                            raise PathCheckDivergence(
                                f"{where}: FREE bypass but full check "
                                f"violates {sorted(oracle)}"
                            )
                        raise EscrowDivergence(
                            f"{where}: escrow says {sorted(violated)}, "
                            f"compiled oracle says {sorted(oracle)}"
                        )
                if violated:
                    attempted = frozenset(txn.written)
                    txn.abort()
                    return SiteResult(
                        committed=False,
                        violated=True,
                        row_index=proc.row_index,
                        violated_objects=frozenset(violated),
                        attempted_writes=attempted,
                    )
            log = tuple(txn.log)
            written = frozenset(txn.written)
            txn.commit()
            return SiteResult(
                committed=True,
                violated=False,
                log=log,
                row_index=proc.row_index,
                written=written,
            )
        except BaseException:
            if txn.active:
                txn.abort()
            raise

    def _path_check(self, tx_name: str, row_index: int | None) -> PathCheck | None:
        """The installed check for one dispatched path (None when the
        procedure was registered after the install -- the caller falls
        back to the full check)."""
        checks = self.path_checks.get(tx_name)
        if checks is None or row_index is None:
            return None
        for check in checks:
            if check.row_index == row_index:
                return check
        return None

    def _assert_writes_local(self, written: set[str], tx_name: str) -> None:
        foreign = sorted(name for name in written if not self.owns(name))
        if foreign:
            raise AssertionError(
                f"{tx_name} at site {self.site_id} wrote non-local objects "
                f"{foreign}; apply the Appendix B transform first "
                "(Assumption 3.1)"
            )

    # -- cleanup-phase helpers -----------------------------------------------------

    def dirty_owned_values(self) -> dict[str, int]:
        """Values of owned objects updated since the round checkpoint."""
        return {
            name: self.engine.peek(name)
            for name in self.engine.dirty_objects()
            if self.owns(name)
        }

    def apply_sync(self, updates: Mapping[str, int]) -> None:
        """Install broadcast values (both snapshots and owned objects;
        owned entries are no-ops since the site is their source)."""
        for name, value in updates.items():
            self.engine.poke(name, value)
        self.engine.checkpoint()

    def finish_sync(self) -> None:
        """End of a sync round this site participated in: the dirty
        set was broadcast, so reset the round-level dirty tracking."""
        self.engine.checkpoint()

    # -- the transport endpoint ------------------------------------------------------

    def handle(self, msg: Message):
        """Receive one typed transport message.

        - ``SyncBroadcast`` installs the sender's share of the round's
          update set into this site's store (snapshots for remote
          objects, no-ops for owned ones);
        - ``TreatyInstall`` installs the shipped local treaty (logged
          to the WAL before the ack returns);
        - ``Vote`` acknowledges a contender's priority claim in the
          violation-winner election;
        - ``VoteReply`` records a losing contender's concession;
        - ``RebalanceRequest`` logs, then acknowledges, a proactive
          treaty-refresh announcement (adaptive reallocation);
        - ``Rejoin`` acknowledges a recovered peer re-entering the
          cluster (the state refresh arrives as the rejoin round's
          SyncBroadcast exchange);
        - ``CleanupRun`` executes T' in full and replies with the
          (log, written) pair the coordinator cross-checks;
        - ``Phase2a`` drives the Paxos Commit acceptor: non-empty
          verdicts are an accept (WAL-logged before the ack), empty
          verdicts are a survivor's promise + report solicitation;
        - ``Phase2b`` is the quorum ack crossing back to the decision
          driver (this handler runs at the *coordinator*, which is
          what makes a mid-quorum coordinator crash schedulable);
        - ``Complete`` records a survivor-announced round completion
          in the WAL.
        """
        if isinstance(msg, SyncBroadcast):
            for name, value in msg.updates:
                self.engine.poke(name, value)
            return None
        if isinstance(msg, TreatyInstall):
            assert msg.treaty is not None
            self.install_treaty(msg.treaty, round_number=msg.round_number)
            return None
        if isinstance(msg, Vote):
            return True
        if isinstance(msg, VoteReply):
            return True
        if isinstance(msg, RebalanceRequest):
            # Log before ack, then acknowledge the proactive refresh;
            # the actual state exchange and treaty install arrive as
            # the round's SyncBroadcast / regeneration, like any
            # negotiation.  The logged request lets recovery see that
            # a refresh round was in flight at the crash.
            self.wal.append(
                {
                    "kind": "rebalance_request",
                    "origin": msg.src,
                    "objects": list(msg.objects),
                }
            )
            return True
        if isinstance(msg, Rejoin):
            return True
        if isinstance(msg, CleanupRun):
            return self.run_cleanup_transaction(msg.tx_name, dict(msg.params))
        if isinstance(msg, Phase2a):
            if msg.verdicts:
                return self.paxos_accept(msg.round_number, msg.ballot, msg.verdicts)
            return self.paxos_promise(msg.round_number, msg.ballot)
        if isinstance(msg, Phase2b):
            return True
        if isinstance(msg, Complete):
            self.wal.append(
                {
                    "kind": "round_complete",
                    "round": msg.round_number,
                    "committed": msg.committed,
                    "tx": msg.tx_name,
                }
            )
            return True
        raise TypeError(f"site {self.site_id}: unhandled message {msg!r}")

    def run_cleanup_transaction(
        self, tx_name: str, params: Mapping[str, int] | None = None
    ) -> tuple[tuple[int, ...], set[str]]:
        """Execute the violating transaction T' in full after sync.

        T' runs as the *complete* transaction (not a residual): the
        synchronized state may match a different symbolic row than the
        one that detected the violation.  T' is exempt from Assumption
        3.1 (see the remark after Theorem 3.8), so writes may touch
        any object; non-owned writes update this site's snapshots with
        values every other site computes identically (T' is
        deterministic).
        """
        tx = self.catalog.full_transaction(tx_name)
        txn = self.engine.begin()
        try:
            ctx = ExecContext(
                getobj=txn.read,
                setobj=txn.write,
                emit=txn.emit,
                params=dict(params or {}),
                arrays=self.arrays,
            )
            execute(tx.body, ctx)
            log = tuple(txn.log)
            written = set(txn.written)
            txn.commit()
            # T' commits without a treaty check (the new treaty is
            # installed right after), so the escrow counters never saw
            # these writes: invalidate them like any non-transactional
            # mutation.
            self.engine.epoch += 1
            return log, written
        except BaseException:
            if txn.active:
                txn.abort()
            raise

    def state_snapshot(self) -> dict[str, int]:
        return self.engine.store.snapshot()
