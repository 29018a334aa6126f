"""Write-ahead logging: the undo journal and the treaty WAL.

Two durability mechanisms live here:

- :class:`UndoLog` -- the per-transaction undo journal.  Records
  before-images so aborts restore the store exactly.  Only the first
  write of a transaction to each object is journaled (later writes
  overwrite the same slot, and the oldest before-image is what
  rollback must restore).

- :class:`TreatyWAL` -- the per-site append-only log of **protocol
  metadata**: treaty installs and rebalance requests are logged
  *before* they are acknowledged, so a site that crash-stops after
  acking an install recovers with exactly the treaties its peers
  believe it holds.  The database itself is durable through the
  storage engine; the WAL exists because a local treaty is installed
  by message at negotiation time and lives nowhere else -- losing it
  on crash would silently weaken the global treaty (H1) when the
  site resumed committing against a stale local invariant.

The treaty WAL models an append-only file as a byte buffer of
JSON-lines records.  A record is durable once its terminating newline
is in the buffer; a **torn final record** (crash mid-append: no
newline, or truncated JSON) is detected and dropped on replay, which
is safe precisely because installs are logged before the ack -- a
torn install was never acknowledged, so no peer assumes the site has
it.  Replay is idempotent: it reduces the log to the *last complete*
install, so replaying twice (or appending the same install twice)
converges to the same state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.storage.kvstore import KVStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.treaty.table import LocalTreaty


@dataclass
class UndoLog:
    """Before-images of one transaction's writes, in write order."""

    entries: list[tuple[str, int, bool]] = field(default_factory=list)
    _seen: set[str] = field(default_factory=set)

    def record(self, store: KVStore, name: str) -> None:
        """Journal the current value of ``name`` before overwriting it."""
        if name in self._seen:
            return
        self._seen.add(name)
        self.entries.append((name, store.get(name), name in store))

    def rollback(self, store: KVStore) -> None:
        """Restore all before-images, newest first."""
        for name, value, existed in reversed(self.entries):
            if existed:
                store.put(name, value)
            else:
                store.delete(name)
        self.clear()

    def written_objects(self) -> list[str]:
        return [name for name, _value, _existed in self.entries]

    def clear(self) -> None:
        self.entries.clear()
        self._seen.clear()

    def __len__(self) -> int:
        return len(self.entries)


# -- the treaty write-ahead log ----------------------------------------------------


class WALCorruption(Exception):
    """An *interior* WAL record failed to parse.  Unlike a torn final
    record (an interrupted append, expected under crash-stop), interior
    corruption means the log was damaged after being written and replay
    cannot trust anything past the damage."""


@dataclass
class TreatyWAL:
    """Append-only JSON-lines log of one site's protocol metadata.

    The byte buffer stands in for an fsync'd append-only file: a
    record is durable once its terminating newline is appended, and a
    crash can leave at most one torn record at the tail.  The write
    protocol is **log before ack**: `SiteServer` appends the install
    (or rebalance) record *before* applying it and before the
    transport returns the acknowledgement, so the set of records with
    newlines is always a superset of what any peer believes this site
    has.
    """

    _buf: bytearray = field(default_factory=bytearray)
    #: records appended in this process lifetime (observability)
    appended: int = 0

    def append(self, record: dict) -> None:
        """Durably append one record (the newline is the commit point)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._buf.extend(line.encode("utf-8"))
        self._buf.extend(b"\n")
        self.appended += 1

    def size_bytes(self) -> int:
        return len(self._buf)

    def tear(self, nbytes: int) -> None:
        """Simulate a crash mid-append by chopping the final ``nbytes``
        from the buffer (test/fault-injection helper)."""
        if nbytes > 0:
            del self._buf[-nbytes:]

    def records(self) -> list[dict]:
        """Every *complete* record, oldest first.

        A torn final record (no terminating newline, or truncated
        JSON on the last line) is silently dropped: it was never
        acknowledged, so dropping it cannot diverge from any peer's
        view.  A malformed interior record raises
        :class:`WALCorruption`.
        """
        out: list[dict] = []
        lines = bytes(self._buf).split(b"\n")
        # A buffer ending in '\n' splits into [.., b'']; anything else
        # in the final slot is a torn tail (dropped).  Records are
        # single-line JSON, so an unparsable *newline-terminated* line
        # can only mean post-write damage, never an append crash.
        for i, line in enumerate(lines[:-1]):
            try:
                out.append(json.loads(line))
            except ValueError as exc:
                raise WALCorruption(f"record {i} unreadable: {line[:80]!r}") from exc
        return out

    def truncate_torn_tail(self) -> int:
        """Drop a torn final record from the buffer (recovery repair);
        returns the number of bytes removed."""
        idx = bytes(self._buf).rfind(b"\n")
        keep = idx + 1  # 0 when no newline at all: the whole buffer is torn
        removed = len(self._buf) - keep
        if removed:
            del self._buf[keep:]
        return removed

    def last_treaty_install(self) -> dict | None:
        """The most recent complete ``treaty_install`` record (what
        replay reinstalls); None for a fresh or fully-torn log."""
        last = None
        for record in self.records():
            if record.get("kind") == "treaty_install":
                last = record
        return last

    def clear(self) -> None:
        self._buf.clear()


def encode_local_treaty(
    treaty: "LocalTreaty", headroom: dict | None = None, paths: dict | None = None
) -> dict:
    """Serialize a local treaty (and its install-time headroom
    snapshot) into a WAL-storable record body.

    Local-treaty clauses range over ground database objects only
    (``ObjT`` leaves), so ``(object name, coefficient)`` pairs plus
    the normalized ``(op, bound)`` reconstruct each clause exactly.

    The per-clause ``headroom`` grants serve two recovery consumers:
    the adaptive low-watermark restores them verbatim (slack consumed
    before the crash must stay consumed), and the escrow fast path
    rebuilds its counter account from them before resynchronizing the
    live counters against the durable store (post-install consumption
    is derivable from the data, so the recovered counters equal a
    freshly lowered treaty's).

    ``paths`` is the optional per-path check table built at install
    time (``tx name -> PathCheck tuples``): recovery re-derives the
    table from the replayed treaty and the catalog, and validate mode
    cross-checks the re-derivation against this record -- the check
    kinds are a function of ``clauses``, which is why the table travels
    with the treaty rather than separately.
    """
    headroom = headroom or {}
    clauses = []
    grants = []
    for con in treaty.constraints:
        clauses.append(
            {
                "coeffs": [[var.name, coeff] for var, coeff in con.expr.coeffs],
                "op": con.op,
                "bound": con.bound,
            }
        )
        grants.append(headroom.get(con))
    record = {"site": treaty.site, "clauses": clauses, "headroom": grants}
    if paths is not None:
        from repro.analysis.pathsplit import encode_path_checks

        record["paths"] = encode_path_checks(paths)
    return record


def decode_local_treaty(record: dict):
    """Rebuild ``(LocalTreaty, install_headroom)`` from a WAL record.

    The inverse of :func:`encode_local_treaty`; round-trip stability
    holds because stored clauses are already in the normal form
    :meth:`LinearConstraint.make` produces.
    """
    from repro.logic.linear import LinearConstraint, LinearExpr
    from repro.logic.terms import ObjT
    from repro.treaty.table import LocalTreaty

    constraints = []
    headroom: dict = {}
    for clause, grant in zip(record["clauses"], record["headroom"]):
        expr = LinearExpr.make({ObjT(name): coeff for name, coeff in clause["coeffs"]})
        con = LinearConstraint.make(expr, clause["op"], clause["bound"])
        constraints.append(con)
        if grant is not None:
            headroom[con] = grant
    return LocalTreaty(site=record["site"], constraints=constraints), headroom


def decode_recorded_paths(record: dict):
    """The path-check table recorded with a treaty install, or
    ``None`` for records written before the path dimension existed
    (the codec stays readable across that upgrade)."""
    payload = record.get("paths")
    if payload is None:
        return None
    from repro.analysis.pathsplit import decode_path_checks

    return decode_path_checks(payload)
