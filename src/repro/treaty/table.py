"""The treaty table (Section 5.1).

"The protocol initializer sets up the treaty table -- a data structure
that at any given time contains the current global treaty and the
current local treaty configuration."  Each site keeps a copy; stored
procedures consult it on every commit, and the treaty negotiator
replaces it at each round boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.logic.compile import ClauseCheck, compile_clause, compile_clauses
from repro.logic.linear import LinearConstraint
from repro.logic.linearize import LinearizedTreaty
from repro.logic.terms import ObjT
from repro.treaty.config import Configuration, local_treaties
from repro.treaty.templates import TreatyTemplates


@dataclass
class LocalTreaty:
    """The conjunction of local treaty clauses enforced at one site.

    ``constraints`` must not be mutated after construction: the
    compiled whole-treaty check and the per-object clause index are
    built lazily from it and cached.  Replacing a site's treaty means
    installing a *new* ``LocalTreaty`` (which is what every install
    path does), never editing one in place.
    """

    site: int
    constraints: list[LinearConstraint] = field(default_factory=list)
    _by_object: dict[str, list[tuple[LinearConstraint, ClauseCheck]]] | None = None
    _compiled: ClauseCheck | None = None
    _clause_checks_cache: list[tuple[LinearConstraint, ClauseCheck]] | None = None

    def compiled_check(self) -> ClauseCheck:
        """The whole-treaty check as one compiled closure (the
        per-commit fast path)."""
        if self._compiled is None:
            self._compiled = compile_clauses(self.constraints)
        return self._compiled

    def holds(self, getobj: Callable[[str], int]) -> bool:
        return self.compiled_check()(getobj)

    def _clause_checks(self) -> list[tuple[LinearConstraint, ClauseCheck]]:
        """Per-clause compiled checks, in clause order, built once per
        treaty (:meth:`violated_clauses` and the per-object index both
        read from here instead of re-entering ``compile_clause``)."""
        if self._clause_checks_cache is None:
            self._clause_checks_cache = [
                (con, compile_clause(con)) for con in self.constraints
            ]
        return self._clause_checks_cache

    def _object_index(self) -> dict[str, list[tuple[LinearConstraint, ClauseCheck]]]:
        if self._by_object is None:
            index: dict[str, list[tuple[LinearConstraint, ClauseCheck]]] = {}
            for con, check in self._clause_checks():
                for var in con.variables():
                    assert isinstance(var, ObjT)
                    index.setdefault(var.name, []).append((con, check))
            self._by_object = index
        return self._by_object

    def holds_after_writes(
        self, getobj: Callable[[str], int], written: set[str]
    ) -> bool:
        """Treaty check restricted to clauses touching written objects.

        Sound fast path for the per-commit check: the treaty held
        before the transaction (H2 at round start, inductively per
        commit), and a clause's truth value can only change if one of
        its objects was written.
        """
        return not self.violations_after_writes(getobj, written)

    def violations_after_writes(
        self, getobj: Callable[[str], int], written: set[str]
    ) -> set[str]:
        """Objects of every violated clause touching the written set
        (empty means the treaty still holds).

        The object set seeds the cleanup phase's participant
        computation: the violated treaty factors name the sites whose
        state and treaty pieces the negotiation must involve.
        """
        index = self._object_index()
        seen: set[int] = set()
        violated: set[str] = set()
        for name in written:
            for con, check in index.get(name, ()):
                if id(con) in seen:
                    continue
                seen.add(id(con))
                if not check(getobj):
                    for var in con.variables():
                        assert isinstance(var, ObjT)
                        violated.add(var.name)
        return violated

    def violated_clauses(self, getobj: Callable[[str], int]) -> list[LinearConstraint]:
        return [
            con for con, check in self._clause_checks() if not check(getobj)
        ]

    def objects(self) -> set[str]:
        names: set[str] = set()
        for con in self.constraints:
            for var in con.variables():
                assert isinstance(var, ObjT)
                names.add(var.name)
        return names

    def pretty(self) -> str:
        body = " and ".join(c.pretty() for c in self.constraints) or "true"
        return f"site {self.site}: {body}"


@dataclass
class TreatyTable:
    """Current global treaty plus its per-site local treaties."""

    global_treaty: LinearizedTreaty
    templates: TreatyTemplates
    configuration: Configuration
    locals: dict[int, LocalTreaty] = field(default_factory=dict)
    round_number: int = 0
    #: lazy per-site factor index: object name -> sites whose local
    #: treaty enforces a clause mentioning it
    _factor_sites: dict[str, set[int]] | None = None
    #: per-site compiled whole-treaty checks (the ``check_local`` fast
    #: path); invalidated by :meth:`install_local`
    _compiled_checks: dict[int, ClauseCheck] = field(default_factory=dict)
    #: per-site path-check kinds, recorded at install time for
    #: observability: site -> tx name -> one check kind per execution
    #: path (row index order).  The authoritative partition lives on
    #: each :class:`SiteServer`; this mirror is what ``pretty`` and the
    #: classification tooling read without reaching into servers.
    path_kinds: dict[int, dict[str, tuple[str, ...]]] = field(default_factory=dict)

    @classmethod
    def assemble(
        cls,
        global_treaty: LinearizedTreaty,
        templates: TreatyTemplates,
        configuration: Configuration,
        round_number: int = 0,
    ) -> "TreatyTable":
        locals_ = {
            site: LocalTreaty(
                site=site,
                constraints=[c for c in constraints if not c.is_trivially_true()],
            )
            for site, constraints in local_treaties(templates, configuration).items()
        }
        return cls(
            global_treaty=global_treaty,
            templates=templates,
            configuration=configuration,
            locals=locals_,
            round_number=round_number,
        )

    def local_for(self, site: int) -> LocalTreaty:
        return self.locals[site]

    def install_local(self, site: int, treaty: LocalTreaty) -> None:
        """Replace one site's local treaty.

        Drops the site's compiled check and the per-site factor index
        so both are rebuilt from the new clauses on next use (the
        compiled-check cache must never outlive the treaty it was
        lowered from).
        """
        self.locals[site] = treaty
        self._compiled_checks.pop(site, None)
        self._factor_sites = None
        self.path_kinds.pop(site, None)

    def record_paths(self, site: int, paths) -> None:
        """Mirror one site's installed path-check table (kinds only)."""
        self.path_kinds[site] = {
            tx: tuple(check.kind for check in checks)
            for tx, checks in sorted(paths.items())
        }

    def precompile(self) -> int:
        """Eagerly compile every site's check; returns the number of
        sites warmed.  Normally compilation is lazy (first check after
        an install); the simulator warms the cache up front so no
        transaction pays the one-time lowering cost mid-run."""
        for site in self.locals:
            self._compiled_check(site)
        return len(self.locals)

    def _compiled_check(self, site: int) -> ClauseCheck:
        check = self._compiled_checks.get(site)
        if check is None:
            check = self.locals[site].compiled_check()
            self._compiled_checks[site] = check
        return check

    def sites_for_objects(self, names) -> set[int]:
        """Sites whose installed local treaty has a clause over any of
        the given objects (the per-site factor index).

        These are exactly the sites whose enforcement depends on the
        objects, so any negotiation that changes them must include
        these sites in its participant set.
        """
        if self._factor_sites is None:
            index: dict[str, set[int]] = {}
            for site, local in self.locals.items():
                for name in local.objects():
                    index.setdefault(name, set()).add(site)
            self._factor_sites = index
        out: set[int] = set()
        for name in names:
            out |= self._factor_sites.get(name, set())
        return out

    def check_local(self, site: int, getobj: Callable[[str], int]) -> bool:
        """The per-commit check a stored procedure performs.

        One compiled-closure call: the site's entire local treaty is
        lowered to a single code object (cached per site, invalidated
        on :meth:`install_local`)."""
        return self._compiled_check(site)(getobj)

    def global_holds(self, getobj: Callable[[str], int]) -> bool:
        """Direct check of the global treaty (needs a global view;
        used in tests and during synchronization, never during normal
        disconnected execution)."""
        return self.global_treaty.holds_on(getobj)

    def pretty(self) -> str:
        lines = [f"treaty table (round {self.round_number})"]
        lines.append("  global: " + self.global_treaty.pretty())
        for site in sorted(self.locals):
            lines.append("  " + self.locals[site].pretty())
        return "\n".join(lines)
