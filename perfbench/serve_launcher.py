"""Start ``repro-serve`` from the checkout's sources, optionally traced.

    python3 perfbench/serve_launcher.py [--trace] -- <repro-serve arguments>

Untraced, this is ``repro.runtime.serve.main`` and nothing else.
With ``--trace`` it wraps the layer bindings of :mod:`tracer` before
the server builds its cluster, snapshots the cluster counters each
time a client asks for ``stats``, restores every wrapped name once
the server has shut down, and then prints one line
``PERFBENCH <json>`` holding the spans and the snapshots.
"""

from __future__ import annotations

import json
import sys

from source import use_checkout_sources


def main(argv: list[str]) -> int:
    use_checkout_sources()
    traced = argv[:1] == ["--trace"]
    if "--" not in argv:
        raise SystemExit("usage: serve_launcher.py [--trace] -- <repro-serve arguments>")
    serve_argv = argv[argv.index("--") + 1 :]

    from repro.runtime import serve

    if not traced:
        return serve.main(serve_argv)

    from layers import cluster_counters
    from tracer import Recorder

    recorder = Recorder()
    snapshots: list[dict[str, float]] = []
    original_snapshot = serve._Server.snapshot_stats

    def snapshot_stats(self: serve._Server) -> dict:
        # Runs on the kernel thread, between two submissions.
        snapshots.append(cluster_counters(self.host.cluster))
        return original_snapshot(self)

    recorder.install()
    serve._Server.snapshot_stats = snapshot_stats
    try:
        code = serve.main(serve_argv)
    finally:
        serve._Server.snapshot_stats = original_snapshot
        recorder.uninstall()
    print("PERFBENCH " + json.dumps({"spans": recorder.spans, "counters": snapshots}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
