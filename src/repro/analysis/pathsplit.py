"""Per-path write summaries and treaty-check selection.

The symbolic executor (:mod:`repro.analysis.symbolic`) already splits a
stored procedure into mutually exclusive ``Row(guard, residual)``
execution paths, and the catalog dispatches exactly one row per
invocation.  This module exploits that split at *treaty-check* time:
it statically summarizes each path's write set and selects one of two
check kinds for it:

``free``
    The path's written array bases are disjoint from every base any
    treaty clause mentions (read-only paths are the degenerate case).
    A clause's truth value only changes through writes to its own
    objects, so under H2 (the treaty holds before the commit) it still
    holds after -- the commit can skip the treaty check, the escrow
    interaction, and the write-delta computation outright.  This is
    exactly escrow-equivalent: untracked objects have ``max_coeff ==
    0``, so the escrow account would not have staged their deltas
    either.

``full``
    Every other path: the commit runs the escrow counters, or the
    compiled per-object check when the treaty is escrow-ineligible.

The selection runs at :meth:`SiteServer.install_treaty` time from the
site's own catalog and treaty, so it is deterministic given the
install -- which is what lets the WAL record it and recovery re-derive
and cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.lang.ast import ArrayRef, Com, GroundRef, Write, ref_to_term, walk_commands
from repro.logic.linear import (
    LinearConstraint,
    LinearizationError,
    linear_of_term,
)
from repro.logic.terms import ObjT, Term, parse_ground_name

if TYPE_CHECKING:
    from repro.protocol.catalog import StoredProcedureCatalog
    from repro.treaty.table import LocalTreaty

#: check kinds, cheapest first (order is meaningful for reporting)
CHECK_KINDS = ("free", "full")


def base_of_name(name: str) -> str:
    """Array base of a ground object name (scalars are their own base)."""
    parsed = parse_ground_name(name)
    return parsed[0] if parsed else name


def clause_bases(constraints: Iterable[LinearConstraint]) -> frozenset[str]:
    """Every array base mentioned by any clause of a treaty."""
    bases: set[str] = set()
    for con in constraints:
        for var in con.variables():
            if isinstance(var, ObjT):
                bases.add(base_of_name(var.name))
            else:  # parameterized template var; be conservative
                bases.add(getattr(var, "base", str(var)))
    return frozenset(bases)


@dataclass(frozen=True)
class WriteSummary:
    """Static summary of one execution path's write set.

    ``bases`` is always exact (every write's array base).
    ``const_deltas`` maps each written reference (pretty-printed term)
    to its constant delta when every write has the form ``x = read(x)
    + c``, else ``None`` (the classifier's pin witness reads it).
    """

    bases: frozenset[str]
    const_deltas: tuple[tuple[str, int], ...] | None

    @property
    def read_only(self) -> bool:
        return not self.bases

    def delta_by_base(self) -> dict[str, list[int]]:
        """Constant deltas grouped by written base (empty if unknown)."""
        out: dict[str, list[int]] = {}
        if self.const_deltas is None:
            return out
        for name, delta in self.const_deltas:
            out.setdefault(base_of_name(name), []).append(delta)
        return out


def summarize_writes(residual: Com) -> WriteSummary:
    """Summarize the writes of one straight-line residual."""
    bases: set[str] = set()
    deltas: list[tuple[str, int]] | None = []
    for node in walk_commands(residual):
        if not isinstance(node, Write):
            continue
        ref = node.ref
        if isinstance(ref, GroundRef):
            bases.add(base_of_name(ref.name))
        else:
            assert isinstance(ref, ArrayRef)
            bases.add(ref.base)
        if deltas is not None:
            target = ref_to_term(ref)
            delta = _const_delta(target, node)
            if delta is None:
                deltas = None
            else:
                deltas.append((_ref_key(target), delta))
    return WriteSummary(
        bases=frozenset(bases),
        const_deltas=tuple(deltas) if deltas is not None else None,
    )


def _ref_key(target: Term) -> str:
    return target.pretty()


def _const_delta(target: Term, write: Write) -> int | None:
    """The constant ``c`` when the write is ``target = read(target) + c``."""
    from repro.lang.ast import aexp_to_term

    try:
        linear = linear_of_term(aexp_to_term(write.expr))
    except LinearizationError:
        return None
    coeffs = dict(linear.coeffs)
    if coeffs.pop(target, None) != 1 or coeffs:
        return None
    return linear.const


@dataclass(frozen=True)
class PathCheck:
    """The selected treaty-check strategy for one execution path."""

    tx_name: str
    row_index: int
    kind: str  # one of CHECK_KINDS
    reason: str

    def encode(self) -> list[object]:
        """Compact JSON-ready form (for the treaty WAL record)."""
        return [self.row_index, self.kind, self.reason]


def decode_path_check(tx_name: str, payload: Iterable[Any]) -> PathCheck:
    row_index, kind, reason = payload
    return PathCheck(
        tx_name=tx_name,
        row_index=int(row_index),
        kind=str(kind),
        reason=str(reason),
    )


def classify_path(
    summary: WriteSummary,
    constraints: tuple[LinearConstraint, ...],
    tx_name: str,
    row_index: int,
) -> PathCheck:
    """Select the check kind for one path's writes."""
    if summary.read_only:
        return PathCheck(tx_name, row_index, "free", "read-only")
    if not (summary.bases & clause_bases(constraints)):
        return PathCheck(tx_name, row_index, "free", "untouched-invariants")
    return PathCheck(tx_name, row_index, "full", "touches-treaty")


def build_path_checks(
    catalog: "StoredProcedureCatalog", treaty: "LocalTreaty | None"
) -> dict[str, tuple[PathCheck, ...]]:
    """Select the check kind of every registered stored procedure's
    paths against the installed local treaty.

    With no treaty installed every path is trivially free.
    """
    constraints: tuple[LinearConstraint, ...] = (
        treaty.constraints if treaty is not None else ()
    )
    out: dict[str, tuple[PathCheck, ...]] = {}
    for tx_name, procedures in catalog.procedures.items():
        checks: list[PathCheck] = []
        for proc in procedures:
            summary = summarize_writes(proc.row.residual)
            checks.append(
                classify_path(summary, constraints, tx_name, proc.row_index)
            )
        out[tx_name] = tuple(checks)
    return out


def encode_path_checks(
    paths: Mapping[str, tuple[PathCheck, ...]],
) -> dict[str, list[list[object]]]:
    """JSON-ready form of a path-check table (WAL payload)."""
    return {
        tx: [check.encode() for check in checks]
        for tx, checks in sorted(paths.items())
    }


def decode_path_checks(
    payload: Mapping[str, Iterable[Iterable[Any]]],
) -> dict[str, tuple[PathCheck, ...]]:
    return {
        tx: tuple(decode_path_check(tx, entry) for entry in entries)
        for tx, entries in payload.items()
    }
