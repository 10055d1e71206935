"""The serve-zipf server process.

Builds the homepage site of ``SERVE_PUBS`` publications from a seeded
BibTeX file, serves it in static mode from ``SiteServer(workers=2)`` and
takes commands, one JSON object per line, on standard input:

* ``{"op": "edit", "title": ..., "year": ..., "category": ...}`` submits
  one add-publication edit through ``SiteServer.submit_edit``;
* ``{"op": "trace"}`` installs the serving-layer spans;
* ``{"op": "stop"}`` (or end of input) drains the server.

Its first output line reports the port, the build time (timed after
imports) and the reference loop's time next to the build; its last
reports what the edits did and cost, the spans and the peak RSS.
Started by ``serve.py`` with the program's sources on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import fields
from typing import Dict, List

from repro.serve import ServeCore, SiteServer
from repro.struql.eval import Metrics
from repro.workloads import HOMEPAGE_QUERY, generate_entries, homepage_templates
from repro.wrappers import BibtexWrapper

from common import SERVE_PUBS, calibrate, peak_rss_mb
from layers import install_serving
from tracing import Tracer

#: an edited publication's author
EDITOR = "Benchmark Editor"


class GcLedger:
    """Cyclic garbage collections in this process, counted through
    ``gc.callbacks``: how many, by generation, and how long they took."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.collections[info["generation"]] += 1
            self.seconds += time.perf_counter() - self._started

    def snapshot(self):
        return list(self.collections), self.seconds


GC = GcLedger()


class AddPublication:
    """One editor mutation: a new publication, applied to the warm
    ``RegeneratingSite``.  Records what the program reported about it,
    and what the edit cost this process: wall and thread CPU time, and
    the garbage collections that ran during it."""

    def __init__(self, title: str, year: int, category: str) -> None:
        self.title = title
        self.year = year
        self.category = category
        self.submitted_at = 0.0
        self.report: Dict[str, object] = {}

    def __call__(self, regen) -> None:
        # the maintainer's warm engine: its Metrics are the struql counts
        metrics = regen.maintainer._engine.metrics
        before = {spec.name: getattr(metrics, spec.name) for spec in fields(Metrics)}
        collections, gc_s = GC.snapshot()
        wall, cpu = time.perf_counter(), time.thread_time()
        regen.add_object(
            "Publications",
            [("title", self.title), ("year", self.year), ("author", EDITOR),
             ("category", self.category)],
        )
        wall, cpu = time.perf_counter() - wall, time.thread_time() - cpu
        regen_report = regen.last_report
        maintenance = regen_report.maintenance
        self.report = {
            "queries_recomputed": maintenance.queries_recomputed,
            "queries_seeded": maintenance.queries_seeded,
            "full_rebuilds": maintenance.full_rebuilds,
            "pages_rerendered": regen_report.pages_rerendered,
            "pages_retained": regen_report.pages_retained,
            "pages_added": regen_report.pages_added,
            "coarse": regen_report.coarse,
            "wall_ms": wall * 1000.0,
            "cpu_ms": cpu * 1000.0,
            "gc_collections": [
                after - before for after, before in zip(GC.collections, collections)
            ],
            "gc_ms": (GC.seconds - gc_s) * 1000.0,
            "metrics": {
                name: getattr(metrics, name) - value for name, value in before.items()
            },
        }


def build(seed: int) -> ServeCore:
    data = BibtexWrapper(generate_entries(SERVE_PUBS, seed=seed)).wrap()
    return ServeCore(HOMEPAGE_QUERY, data, homepage_templates())


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/server.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default="",
                        help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    gc.callbacks.append(GC)
    loop_before = calibrate(3)
    started = time.perf_counter()
    core = build(args.seed)
    # one long-lived keep-alive connection per load thread: never make
    # the client reconnect mid-run, or the reconnects become the tail
    server = SiteServer(core, workers=2,
                        max_requests_per_connection=1_000_000).start()
    build_s = time.perf_counter() - started
    # the workers are idle until the first request: nothing competes
    loop_ms = (loop_before + calibrate(3)) / 2.0
    print(json.dumps({"port": server.port, "build_s": build_s,
                      "reference_ms": loop_ms}), flush=True)

    tracer = Tracer()
    edits: List[AddPublication] = []
    tickets = []
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "edit":
            edit = AddPublication(command["title"], command["year"], command["category"])
            edit.submitted_at = time.perf_counter()
            edits.append(edit)
            tickets.append(server.submit_edit(edit))
        elif command["op"] == "trace":
            tracer.install(install_serving)
        elif command["op"] == "stop":
            break
    clean = server.stop()
    tracer.uninstall()
    if args.spans and tracer.ops:
        tracer.write(args.spans)
    handle_s = tracer.samples.get("ServeCore.handle", [])
    print(json.dumps({
        "clean_stop": clean,
        "peak_rss_mb": peak_rss_mb(),
        "edits": [
            {"title": edit.title, "applied": ticket.applied, "error": ticket.error,
             "report": edit.report}
            for edit, ticket in zip(edits, tickets)
        ],
        "trace": {
            "ops": tracer.ops,
            "handle_us": [s * 1e6 for s in handle_s],
            "queue_wait_ms": [s * 1e3 for s in tracer.samples.get("serve.edit_queue_wait", [])],
        },
    }), flush=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
