"""Span recorder for the traced benchmark run.

The benchmark measures each layer from outside the program: it
replaces the public functions listed in :data:`BINDINGS` with timing
wrappers, at the name each caller looks them up by at call time (the
``build_path_checks`` that ``repro.protocol.site`` imported, not only
the one defined in ``repro.analysis.pathsplit``), and restores the
originals afterwards.  Nothing inside ``src/`` is edited.

A span is ``(name, start_ns, end_ns, span_id, parent_id, root_id)``.
The current span travels in a :class:`contextvars.ContextVar`, so
nesting is tracked per thread and per asyncio task; spans that share
a ``root_id`` belong to one request.  The kernel hop of the asyncio
runtime (``AsyncClusterHost.run_on_kernel``) carries the caller's
context onto the kernel thread, so kernel-side spans nest under the
client request that caused them.  Spans live in memory and are read
once, when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import time
from typing import Any, Callable

Span = tuple[str, int, int, int, int, int]

#: (module, attribute path, span name) of every wrapped binding.
BINDINGS: tuple[tuple[str, str, str], ...] = (
    # protocol: the disconnected commit path and the negotiation round
    ("repro.protocol.site", "SiteServer.execute", "protocol.execute"),
    ("repro.protocol.site", "SiteServer.install_treaty", "protocol.install"),
    ("repro.protocol.catalog", "StoredProcedureCatalog.dispatch", "protocol.dispatch"),
    ("repro.protocol.homeostasis", "TreatyGenerator.generate", "protocol.generate"),
    # lang: the interpreter as the stored-procedure catalog binds it
    ("repro.protocol.catalog", "execute", "lang.execute"),
    # treaty / solver / logic: treaty generation, at the generator's bindings
    ("repro.protocol.homeostasis", "sample_executions", "treaty.sample_executions"),
    ("repro.protocol.homeostasis", "configure_from_samples", "treaty.configure_from_samples"),
    ("repro.treaty.optimize", "solve_budget_allocation", "solver.solve_budget_allocation"),
    ("repro.protocol.homeostasis", "build_templates", "treaty.build_templates"),
    ("repro.protocol.homeostasis", "linearize_for_treaty", "logic.linearize_for_treaty"),
    ("repro.treaty.table", "TreatyTable.assemble", "treaty.assemble"),
    # analysis / logic / storage: the per-site install, at the site's bindings
    ("repro.protocol.site", "build_path_checks", "analysis.build_path_checks"),
    ("repro.protocol.site", "lower_to_escrow", "logic.lower_to_escrow"),
    ("repro.protocol.site", "encode_local_treaty", "storage.encode_local_treaty"),
    ("repro.storage.wal", "TreatyWAL.append", "storage.wal_append"),
    # set-up analysis, at the workload modules' bindings
    ("repro.workloads.tpcc", "parse_transaction", "lang.parse_transaction"),
    ("repro.workloads.micro", "parse_transaction", "lang.parse_transaction"),
    ("repro.workloads.quota", "parse_transaction", "lang.parse_transaction"),
    ("repro.workloads.tpcc", "build_symbolic_table", "analysis.build_symbolic_table"),
    ("repro.workloads.micro", "build_symbolic_table", "analysis.build_symbolic_table"),
    ("repro.workloads.quota", "build_symbolic_table", "analysis.build_symbolic_table"),
    ("repro.workloads.common", "build_symbolic_table", "analysis.build_symbolic_table"),
    # runtime: wire codec, asyncio transport, kernel hop, serve layer
    ("repro.runtime.transport", "encode_message", "runtime.codec.encode"),
    ("repro.runtime.transport", "encode_payload", "runtime.codec.encode"),
    ("repro.runtime.transport", "decode_message", "runtime.codec.decode"),
    ("repro.runtime.transport", "decode_payload", "runtime.codec.decode"),
    ("repro.runtime.serve", "encode_payload", "runtime.codec.encode"),
    ("repro.runtime.serve", "decode_payload", "runtime.codec.decode"),
    ("repro.runtime.transport", "AsyncTransport.send", "runtime.transport.send"),
    ("repro.runtime.cluster", "AsyncClusterHost.run_on_kernel", "runtime.run_on_kernel"),
    ("repro.runtime.serve", "_Server.handle_connection", "runtime.serve.connection"),
    ("repro.runtime.serve", "_Server.dispatch", "runtime.serve.dispatch"),
    ("repro.runtime.serve", "_Server.run_submit", "runtime.serve.run_submit"),
)

#: The span around the function body ``run_on_kernel`` runs on the
#: kernel thread; ``run_on_kernel`` minus this child is the kernel wait.
KERNEL_BODY = "runtime.kernel_body"


def resolve(module: str, path: str) -> tuple[Any, str]:
    """The object holding a binding and the attribute name within it."""
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def raw_binding(owner: Any, attr: str) -> Any:
    """The binding as stored (a class ``__dict__`` entry keeps its
    ``classmethod`` wrapper)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Recorder:
    """In-memory span recorder plus the wrap/unwrap of :data:`BINDINGS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        #: (current span id, root span id) of the running thread/task
        self._current: contextvars.ContextVar[tuple[int, int]] = (
            contextvars.ContextVar("perfbench_span", default=(0, 0))
        )
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        span_id = next(self._ids)
        parent, root = self._current.get()
        token = self._current.set((span_id, root or span_id))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((name, start, end, span_id, parent, root or span_id))

    async def call_async(
        self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict
    ) -> Any:
        """Await ``fn`` inside a span called ``name``."""
        span_id = next(self._ids)
        parent, root = self._current.get()
        token = self._current.set((span_id, root or span_id))
        start = time.perf_counter_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((name, start, end, span_id, parent, root or span_id))

    def _wrap_function(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if inspect.iscoroutinefunction(fn):
            call_async = self.call_async

            @functools.wraps(fn)
            async def traced_async(*args: Any, **kwargs: Any) -> Any:
                return await call_async(name, fn, args, kwargs)

            return traced_async

        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, args, kwargs)

        return traced

    def _wrap_kernel_hop(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        call, call_async = self.call, self.call_async

        @functools.wraps(fn)
        async def traced_hop(host: Any, body: Callable[..., Any], *args: Any) -> Any:
            async def hop() -> Any:
                # Copied inside the run_on_kernel span, so the body the
                # kernel thread runs nests under it.
                ctx = contextvars.copy_context()

                def run_body(*body_args: Any) -> Any:
                    return ctx.run(call, KERNEL_BODY, body, body_args, {})

                return await fn(host, run_body, *args)

            return await call_async(name, hop, (), {})

        return traced_hop

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding (idempotent until :meth:`uninstall`)."""
        if self._saved:
            return
        for module, path, name in BINDINGS:
            owner, attr = resolve(module, path)
            original = raw_binding(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapped(name, path, original))

    def _wrapped(self, name: str, path: str, original: Any) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrap_function(name, original.__func__))
        if path.endswith("run_on_kernel"):
            return self._wrap_kernel_hop(name, original)
        return self._wrap_function(name, original)

    def uninstall(self) -> None:
        """Restore every original binding, in reverse order of wrapping."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

