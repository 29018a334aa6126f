"""Coordination-freedom classifier over symbolic execution paths.

The static tier that decides *when treaties are needed at all*.  Per
execution path (one symbolic-table row) the classifier consumes the
:mod:`repro.analysis.pathsplit` write summary and the installed treaty
and emits a verdict with a machine-checkable witness:

``FREE``
    The path provably cannot violate any installed invariant: it is
    read-only, or its writes never touch a treaty base
    (invariant-confluence by disjointness).  FREE paths bypass the
    treaty check at commit time and the simulator prices them at zero
    check cost.

``TREATY``
    The path writes a base some treaty clause mentions and takes the
    full check (escrow counters or the compiled closure) -- the
    homeostasis protocol proper.

``SYNC``
    The path *statically always* violates: it writes a constant
    nonzero delta into a base held by an equality pin, so every
    execution lands in the cleanup/negotiation round (TPC-C Delivery's
    print-pinned counters are the canonical case).

Per procedure, the path verdicts roll up to FREE (all paths free),
SYNC (all paths sync), PATH_SENSITIVE (a mix containing at least one
free path -- the dispatch-time selection is what buys the win), or
TREATY.

Witnesses are plain dicts re-derivable from (constraints, summary)
alone; :func:`check_witness` re-verifies one from scratch, which is
what the golden classification table and the property tests call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.analysis.pathsplit import (
    PathCheck,
    WriteSummary,
    base_of_name,
    classify_path,
    clause_bases,
    summarize_writes,
)
from repro.logic.linear import LinearConstraint
from repro.logic.terms import ObjT

if TYPE_CHECKING:
    from repro.protocol.catalog import StoredProcedureCatalog
    from repro.treaty.table import LocalTreaty

#: path-level verdicts
PATH_VERDICTS = ("FREE", "TREATY", "SYNC")
#: procedure-level verdicts
VERDICTS = ("FREE", "PATH_SENSITIVE", "TREATY", "SYNC")


class ClassificationError(Exception):
    """Raised when a witness fails re-verification."""


class PathCheckDivergence(AssertionError):
    """A ``free`` path's bypass and the full treaty check disagreed on
    one commit's verdict (or a replayed path-check table disagrees with
    its install-time record) -- a soundness bug in the classifier,
    surfaced loudly by validate mode instead of silently weakening the
    treaty."""


@dataclass(frozen=True)
class PathClassification:
    """Verdict + witness for one execution path."""

    row_index: int
    verdict: str  # one of PATH_VERDICTS
    reason: str
    witness: tuple[tuple[str, object], ...]  # frozen dict items, sorted

    def witness_dict(self) -> dict[str, object]:
        return dict(self.witness)


@dataclass(frozen=True)
class Classification:
    """Procedure-level verdict over all execution paths."""

    tx_name: str
    verdict: str  # one of VERDICTS
    paths: tuple[PathClassification, ...]

    @property
    def free_paths(self) -> tuple[int, ...]:
        return tuple(p.row_index for p in self.paths if p.verdict == "FREE")


def _freeze(witness: Mapping[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(witness.items()))


def _touching_pins(
    summary: WriteSummary, constraints: tuple[LinearConstraint, ...]
) -> list[tuple[int, str, int]]:
    """``(clause_index, base, delta)`` for every constant nonzero write
    into a base an equality pin holds -- the static always-sync proof."""
    out: list[tuple[int, str, int]] = []
    by_base = summary.delta_by_base()
    for idx, con in enumerate(constraints):
        if con.op != "=":
            continue
        for var in con.variables():
            if not isinstance(var, ObjT):
                continue
            base = base_of_name(var.name)
            for delta in by_base.get(base, ()):
                if delta != 0:
                    out.append((idx, base, delta))
    return out


def classify_row(
    summary: WriteSummary,
    constraints: tuple[LinearConstraint, ...],
    tx_name: str,
    row_index: int,
) -> tuple[PathClassification, PathCheck]:
    """Classify one path; returns the verdict and the runtime check."""
    check = classify_path(summary, constraints, tx_name, row_index)
    bases = sorted(summary.bases)
    if check.kind == "free":
        witness: dict[str, object] = {
            "write_bases": bases,
            "clause_bases": sorted(clause_bases(constraints)),
        }
        return (
            PathClassification(row_index, "FREE", check.reason, _freeze(witness)),
            check,
        )
    pins = _touching_pins(summary, constraints)
    if pins and summary.const_deltas is not None:
        witness = {"pins": pins}
        return (
            PathClassification(row_index, "SYNC", "breaks-pin", _freeze(witness)),
            check,
        )
    witness = {"write_bases": bases}
    return (
        PathClassification(row_index, "TREATY", check.reason, _freeze(witness)),
        check,
    )


def classify_procedure(
    tx_name: str,
    rows: Iterable[tuple[int, WriteSummary]],
    constraints: tuple[LinearConstraint, ...],
) -> tuple[Classification, tuple[PathCheck, ...]]:
    """Roll per-path verdicts up to one procedure-level classification."""
    paths: list[PathClassification] = []
    checks: list[PathCheck] = []
    for row_index, summary in rows:
        cls, check = classify_row(summary, constraints, tx_name, row_index)
        paths.append(cls)
        checks.append(check)
    verdicts = {p.verdict for p in paths}
    if verdicts == {"FREE"}:
        verdict = "FREE"
    elif verdicts == {"SYNC"}:
        verdict = "SYNC"
    elif "FREE" in verdicts:
        verdict = "PATH_SENSITIVE"
    else:
        verdict = "TREATY"
    return Classification(tx_name, verdict, tuple(paths)), tuple(checks)


def classify_catalog(
    catalog: "StoredProcedureCatalog", treaty: "LocalTreaty | None"
) -> dict[str, Classification]:
    """Classify every registered stored procedure against a site's
    installed local treaty (the runtime entry point; also what the
    golden `docs/CLASSIFICATION.md` table is generated from)."""
    constraints: tuple[LinearConstraint, ...] = (
        treaty.constraints if treaty is not None else ()
    )
    out: dict[str, Classification] = {}
    for tx_name, procedures in catalog.procedures.items():
        rows = [
            (proc.row_index, summarize_writes(proc.row.residual))
            for proc in procedures
        ]
        out[tx_name], _ = classify_procedure(tx_name, rows, constraints)
    return out


# ---------------------------------------------------------------------------
# Witness re-verification
# ---------------------------------------------------------------------------


def check_witness(
    path: PathClassification,
    summary: WriteSummary,
    constraints: tuple[LinearConstraint, ...],
) -> None:
    """Re-verify a path's witness from the raw inputs.

    Raises :class:`ClassificationError` on any mismatch -- a witness
    is only as good as its checkability.
    """
    witness = path.witness_dict()
    if path.verdict in ("FREE", "TREATY"):
        claimed_writes = frozenset(
            witness.get("write_bases", ())  # type: ignore[arg-type]
        )
        if claimed_writes != summary.bases:
            raise ClassificationError(
                f"witness write bases {sorted(claimed_writes)} != "
                f"actual {sorted(summary.bases)}"
            )
        treaty_bases = clause_bases(constraints)
        if path.verdict == "TREATY":
            if not claimed_writes & treaty_bases:
                raise ClassificationError(
                    "TREATY witness touches no clause base: the path is FREE"
                )
            return
        claimed_clauses = frozenset(
            witness.get("clause_bases", ())  # type: ignore[arg-type]
        )
        if claimed_clauses != treaty_bases:
            raise ClassificationError("witness clause bases drifted from treaty")
        if claimed_writes & claimed_clauses:
            raise ClassificationError(
                f"FREE witness overlaps: {sorted(claimed_writes & claimed_clauses)}"
            )
        if path.reason == "read-only" and claimed_writes:
            raise ClassificationError("read-only witness has write bases")
        return
    if path.verdict == "SYNC":
        pins = witness.get("pins", ())
        if not pins:
            raise ClassificationError("SYNC witness names no pins")
        for idx, base, delta in pins:  # type: ignore[union-attr]
            con = constraints[idx]
            if con.op != "=":
                raise ClassificationError(f"clause {idx} is not a pin")
            if delta == 0:
                raise ClassificationError("zero delta cannot break a pin")
            pinned = {
                base_of_name(var.name)
                for var in con.variables()
                if isinstance(var, ObjT)
            }
            if base not in pinned:
                raise ClassificationError(f"pin {idx} does not hold base {base!r}")
            if base not in summary.bases:
                raise ClassificationError(f"path does not write base {base!r}")
        return
    raise ClassificationError(f"unknown verdict {path.verdict!r}")
