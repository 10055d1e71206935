"""The serve-zipf workload: Zipf reads, then reads plus live edits.

The homepage site of ``SERVE_PUBS`` publications is served in static mode by
``SiteServer(workers=2)`` in a server process this module starts and
stops (``server.py``).  Load comes from this process: ``CONNECTIONS``
threads, one keep-alive connection each, sending open-loop Zipf(1.1)
traffic over the ``/_paths`` universe at ``RATE`` requests per second
in total, every request timed from its due time.

* Phase 1 (the first third of the run): reads only.
* Phase 2 (the rest): the same reads, plus one add-publication edit
  every ``EDIT_INTERVAL`` seconds submitted through
  ``SiteServer.submit_edit``.  Every response names the page generation
  it came from, and an edit publishes the next generation, so an edit is
  visible from the first response the generator receives from its
  generation (or a later one).

Set-up is timed on each of ``SERVERS`` server processes started one
after another: the server's input generation and site build, then one
GET of every page.  While the load runs, a speed-probe process
(``speedprobe.py``) times the reference loop every 0.5 s, and each edit
latency is reported at reference speed, scaled by the loops timed while
it ran.  Read latencies are reported as measured.

Checks: every sampled response body must equal, byte for byte, the page
of the generation it came from in a reference ``RegeneratingSite`` built
here from the same seed and replaying the same edits; every edit's
generation must be served during the run, and its title must be on its
year page over HTTP when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import selectors
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from typing import Dict, List, Optional, Tuple

from repro.core.regen import RegeneratingSite
from repro.serve.core import default_roots
from repro.workloads import HOMEPAGE_QUERY, generate_entries, homepage_templates
from repro.wrappers import BibtexWrapper

from common import (
    MIN_BEYOND,
    REFERENCE_MS,
    SERVE_PUBS,
    CheckFailed,
    SpeedTrack,
    at_reference_speed,
    calibrate,
    median,
    percentile,
    samples_beyond,
    summarize,
)
from loadgen import (
    GENERATION_HEADER,
    Result,
    drive,
    failures,
    latencies_ms,
    schedule,
    visible_s,
)
from server import AddPublication

HERE = os.path.dirname(os.path.abspath(__file__))

#: server processes started per run, each one set-up; the last serves
#: the measured load
SERVERS = 5
#: one keep-alive connection per server worker (a worker serves one
#: connection at a time)
CONNECTIONS = 2
#: requests per second, all connections together: well below capacity
RATE = 400.0
ZIPF = 1.1
EDIT_INTERVAL = 1.0
#: no edit is submitted in the last seconds of the run, so every edit
#: is published while the load still runs
EDIT_MARGIN = 3.0
#: the generation the n-th edit publishes is this plus n (the build
#: publishes generation 1, and every applied edit the next one)
FIRST_EDIT_GENERATION = 2
#: hash every n-th response body for the byte-equality check
SAMPLE_EVERY = 8
#: seconds to wait for the server's first line
START_TIMEOUT = 60.0
HOST = "127.0.0.1"
#: layers every traced edit must have a span in
EDIT_LAYERS = ("serve", "maintenance", "struql.bindings")


class ServerProcess:
    """One server process; always stopped and waited for."""

    def __init__(self, seed: int, root: str, spans_path: str = "") -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--seed", str(seed)]
        if spans_path:
            command += ["--spans", spans_path]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(START_TIMEOUT):
                self.kill()
                raise RuntimeError("server did not start")
        line = self.proc.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError(f"server exited with {self.proc.wait()}")
        ready = json.loads(line)
        self.port: int = ready["port"]
        self.build_s: float = ready["build_s"]
        #: the reference loop, timed in the server right after the build
        self.reference_ms: float = ready["reference_ms"]
        self._lock = threading.Lock()

    def send(self, command: Dict[str, object]) -> None:
        with self._lock:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()

    def stop(self) -> Dict[str, object]:
        """Drain the server; returns its final report."""
        try:
            self.send({"op": "stop"})
            out, _ = self.proc.communicate(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"server stopped uncleanly ({self.proc.returncode})")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class SpeedProbe:
    """The speed-probe process (``speedprobe.py``); always stopped and
    waited for."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "speedprobe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> SpeedTrack:
        try:
            out, _ = self.proc.communicate(timeout=30)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise RuntimeError(f"speed probe failed ({self.proc.returncode})")
        return SpeedTrack(json.loads(out.strip().splitlines()[-1]))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _get(connection: HTTPConnection, path: str) -> Tuple[int, bytes, int]:
    connection.request("GET", path)
    response = connection.getresponse()
    body = response.read()
    return response.status, body, int(response.getheader(GENERATION_HEADER) or 0)


def _warm_up(port: int) -> List[str]:
    """Fetch the path universe, then every page once."""
    connection = HTTPConnection(HOST, port, timeout=30)
    try:
        status, body, _ = _get(connection, "/_paths")
        if status != 200:
            raise CheckFailed(f"warm-up GET /_paths: {status}")
        paths = sorted(json.loads(body))
        for path in paths:
            status, _, _ = _get(connection, path)
            if status != 200:
                raise CheckFailed(f"warm-up GET {path}: {status}")
    finally:
        connection.close()
    return paths


def _hashes(pages: Dict[str, str]) -> Dict[str, bytes]:
    out = {}
    for filename, html in pages.items():
        digest = hashlib.sha256(html.encode("utf-8")).digest()
        out["/" + filename] = digest
        if filename == "index.html":
            out["/"] = digest
    return out


def _reference(seed: int) -> RegeneratingSite:
    data = BibtexWrapper(generate_entries(SERVE_PUBS, seed=seed)).wrap()
    return RegeneratingSite(
        HOMEPAGE_QUERY, data, homepage_templates(), default_roots(HOMEPAGE_QUERY)
    )


def _edit_plan(regen: RegeneratingSite, seed: int, count: int):
    """Deterministic edits, each landing on an existing year page."""
    years = {}
    for oid, filename in regen.site.filenames.items():
        if oid.name.startswith("YearPage("):
            years[int(oid.name[len("YearPage("):-1])] = "/" + filename
    categories = ["semistructured", "web", "integration", "optimization", "languages"]
    ordered = sorted(years)
    rng = random.Random(seed)
    plan = []
    for index in range(count):
        year = rng.choice(ordered)
        plan.append((f"Benchmark edit {index} seed {seed}", year,
                     rng.choice(categories), years[year]))
    return plan


def _submit_edits(server: ServerProcess, plan, origin: float, start: float,
                  end: float, trace_at: Optional[float]) -> List[float]:
    """The main thread's part: submit the edits on their schedule.
    Returns each submission time, in seconds since ``origin``."""
    if trace_at is not None:
        time.sleep(max(0.0, origin + trace_at - time.perf_counter()))
        server.send({"op": "trace"})
    submitted: List[float] = []
    for index, (title, year, category, _) in enumerate(plan):
        due = start + index * EDIT_INTERVAL
        if due > end:
            break
        time.sleep(max(0.0, origin + due - time.perf_counter()))
        submitted.append(time.perf_counter() - origin)
        server.send({"op": "edit", "title": title, "year": year,
                     "category": category})
    return submitted


def _check_titles(port: int, plan, count: int) -> None:
    """Every edit's title is on its year page, over HTTP."""
    connection = HTTPConnection(HOST, port, timeout=10)
    try:
        for title, _, _, path in plan[:count]:
            status, body, _ = _get(connection, path)
            if status != 200 or title.encode("utf-8") not in body:
                raise CheckFailed(f"edit {title!r} is not visible on {path}")
    finally:
        connection.close()


def _check_bodies(results: List[Result], expected: Dict[int, Dict[str, bytes]]) -> int:
    checked = 0
    for result in results:
        if result.body_hash is None or not result.ok:
            continue
        pages = expected.get(result.generation)
        if pages is None:
            raise CheckFailed(f"response from unknown generation {result.generation}")
        if pages.get(result.path) != result.body_hash:
            raise CheckFailed(
                f"GET {result.path} (generation {result.generation}) differs from "
                "the reference page"
            )
        checked += 1
    return checked


def run(seed: int, seconds: float, trace: bool, root: str,
        spans_path: str) -> Dict[str, object]:
    calibration_start = calibrate()
    switch_interval = sys.getswitchinterval()
    # the generator's threads must wake on time, not wait out a 5 ms slice
    sys.setswitchinterval(0.0005)
    server: Optional[ServerProcess] = None
    probe: Optional[SpeedProbe] = None
    try:
        setup_s: List[float] = []
        wall_setup_s: List[float] = []
        for repeat in range(SERVERS):
            server = ServerProcess(seed, root, spans_path if trace else "")
            started = time.perf_counter()
            paths = _warm_up(server.port)
            warm_s = time.perf_counter() - started
            setup_s.append(at_reference_speed(server.build_s, server.reference_ms)
                           + at_reference_speed(warm_s, calibrate(3)))
            wall_setup_s.append(server.build_s + warm_s)
            if repeat < SERVERS - 1:
                server.stop()
                server = None

        regen = _reference(seed)
        expected = {FIRST_EDIT_GENERATION - 1: _hashes(regen.pages)}
        if set(expected[FIRST_EDIT_GENERATION - 1]) != set(paths):
            raise CheckFailed("served path universe differs from the reference site")
        phase2_start = seconds / 3.0
        plan = _edit_plan(regen, seed, int(seconds / EDIT_INTERVAL) + 1)

        probe = SpeedProbe()
        origin = time.perf_counter() + 0.2
        outcomes: List[List[Result]] = [[] for _ in range(CONNECTIONS)]
        threads = []
        for index in range(CONNECTIONS):
            requests = schedule(
                paths, ZIPF, RATE / CONNECTIONS,
                start=index / RATE, end=seconds,
                rng=random.Random(seed * 1000 + index),
            )
            threads.append(threading.Thread(
                target=lambda index=index, requests=requests: outcomes[index].extend(
                    drive(HOST, server.port, requests, origin,
                          sample_every=SAMPLE_EVERY)),
                name=f"load-{index}",
            ))
        for thread in threads:
            thread.start()
        try:
            submitted = _submit_edits(
                server, plan, origin, phase2_start + 1.0, seconds - EDIT_MARGIN,
                phase2_start / 2.0 if trace else None)
        finally:
            for thread in threads:
                thread.join()
        track = probe.stop()
        probe = None
        _check_titles(server.port, plan, len(submitted))
        stats = _stats(server.port)
        report = server.stop()
        server = None
    finally:
        sys.setswitchinterval(switch_interval)
        if server is not None:
            server.kill()
        if probe is not None:
            probe.kill()

    results = [result for outcome in outcomes for result in outcome]
    edits = report["edits"]
    if len(edits) != len(submitted):
        raise CheckFailed("edits submitted and applied disagree")
    for index, edit in enumerate(edits):
        if not edit["applied"]:
            raise CheckFailed(f"edit {edit['title']!r} failed: {edit['error']}")
        title, year, category, _ = plan[index]
        AddPublication(title, year, category)(regen)
        expected[FIRST_EDIT_GENERATION + index] = _hashes(regen.pages)
    visible = visible_s(results, submitted, FIRST_EDIT_GENERATION)
    if any(latency is None for latency in visible):
        raise CheckFailed("an edit's generation was never served")
    checked = _check_bodies(results, expected)
    calibration_end = calibrate()

    phase1 = [r for r in results if r.due < phase2_start]
    phase2_reads = [r for r in results if r.due >= phase2_start]
    untraced = [r for r in phase1 if not trace or r.due < phase2_start / 2.0]
    edit_reads_ms = latencies_ms(phase2_reads)
    late_ms = [r.late_ms for r in results]
    visible_ms = [latency * 1000.0 for latency in visible]
    out: Dict[str, object] = {
        "attempted": len(results) + len(visible),
        "failed": failures(results),
        "setup_s": setup_s,
        # reads stay as measured: half a millisecond of mostly system
        # calls and wake-ups follows the machine's speed only weakly
        "op_ms": latencies_ms(untraced),
        "publish_ms": [
            track.scale(latency, origin + at, origin + at + latency / 1000.0)
            for at, latency in zip(submitted, visible_ms)
        ],
        "wall": {
            "setup_s": wall_setup_s,
            "op_ms": latencies_ms(untraced),
            "publish_ms": visible_ms,
        },
        "reference_ms": track.loops_ms,
        "peak_rss_mb": report["peak_rss_mb"],
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "detail": {
            "read_ms (phase 1)": summarize(latencies_ms(phase1)),
            "edit_read_ms (phase 2)": summarize(edit_reads_ms),
            "late_ms": summarize(late_ms),
            "bodies_checked": checked,
            "edits": len(visible),
            "edit costs": [
                dict(
                    {key: edit["report"][key] for key in (
                        "wall_ms", "cpu_ms", "gc_collections", "gc_ms", "coarse",
                        "queries_recomputed", "full_rebuilds")},
                    reference_ms=track.loop_ms_over(
                        origin + at, origin + at + latency / 1000.0),
                )
                for at, latency, edit in zip(submitted, visible_ms, edits)
            ],
        },
    }
    if trace:
        out["per_layer"] = _per_layer(
            report, stats, results, phase1, phase2_start, edit_reads_ms, late_ms,
            REFERENCE_MS / median(track.loops_ms),
        )
    return out


def _stats(port: int) -> Dict[str, object]:
    connection = HTTPConnection(HOST, port, timeout=10)
    try:
        status, body, _ = _get(connection, "/_stats")
    finally:
        connection.close()
    if status != 200:
        raise CheckFailed(f"/_stats: {status}")
    return json.loads(body)


def _p99(samples: List[float]) -> float:
    """p99, refused when fewer than ten samples lie beyond it."""
    if samples_beyond("99", len(samples)) < MIN_BEYOND:
        raise ValueError(f"too few samples ({len(samples)}) for a p99")
    return percentile(sorted(samples), "99")


def _per_layer(report, stats, results, phase1, phase2_start, edit_reads_ms, late_ms,
               speed):
    """``speed`` scales the server's span times to reference speed.
    Read latencies stay as measured, like ``op_ms``."""
    trace = report["trace"]
    edits = [edit["report"] for edit in report["edits"]]
    ops = [op for op in trace["ops"] if op["name"] == "ServeCore.apply_edit"]
    if not ops or not trace["handle_us"]:
        raise CheckFailed("the traced run recorded no edit or no request")
    for op in ops:
        missing = [layer for layer in EDIT_LAYERS if layer not in op["self"]]
        if missing:
            raise CheckFailed(f"a traced edit ran no span in layers {missing}")

    def per_edit(key):
        return median([edit[key] for edit in edits])

    def per_edit_metric(key):
        return median([edit["metrics"][key] for edit in edits])

    def self_ms(layer):
        return median([op["self"].get(layer, 0.0) * 1000.0 for op in ops]) * speed

    core = stats["core"]
    untraced = latencies_ms([r for r in phase1 if r.due < phase2_start / 2.0])
    traced = latencies_ms([r for r in phase1 if r.due >= phase2_start / 2.0 + 0.2])
    lookups = per_edit_metric("plan_cache_hits") + per_edit_metric("plan_cache_misses")
    memo = per_edit_metric("path_memo_hits") + per_edit_metric("path_memo_misses")
    return {
        "struql.bindings_ms": self_ms("struql.bindings"),
        "struql.bindings_rows": per_edit_metric("bindings_produced"),
        "struql.conditions_evaluated": per_edit_metric("conditions_evaluated"),
        "struql.hash_join_probes": per_edit_metric("hash_join_probes"),
        "struql.dedup_hits": per_edit_metric("dedup_hits"),
        "struql.plan_cache_lookups": lookups,
        "struql.plan_cache_hit_ratio":
            per_edit_metric("plan_cache_hits") / lookups if lookups else 0.0,
        "struql.path_memo_lookups": memo,
        "struql.path_memo_hit_ratio":
            per_edit_metric("path_memo_hits") / memo if memo else 0.0,
        "maintenance.maintain_ms": self_ms("maintenance"),
        "maintenance.queries_recomputed": per_edit("queries_recomputed"),
        "maintenance.queries_seeded": per_edit("queries_seeded"),
        "maintenance.full_rebuilds": per_edit("full_rebuilds"),
        "regen.pages_rerendered": per_edit("pages_rerendered"),
        "regen.pages_retained": per_edit("pages_retained"),
        "serve.handle_us": median(trace["handle_us"]) * speed,
        "serve.apply_ms": self_ms("serve"),
        "serve.edit_queue_wait_ms": median(trace["queue_wait_ms"]) * speed,
        "serve.requests": core["requests"],
        "serve.cache_hits": core["cache_hits"],
        "serve.not_found": core["not_found"],
        "serve.shed": stats["admission"]["shed"],
        "serve.degraded": core["degraded"],
        "traffic.sent": len(results),
        "traffic.failed": failures(results),
        "traffic.late_p99_ms": _p99(late_ms),
        "traffic.read_p99_ms": _p99(latencies_ms(phase1)),
        "traffic.edit_read_p99_ms": _p99(edit_reads_ms),
        "trace.bookkeeping_ms": self_ms("trace"),
        "trace.traced_op_ms": median(traced),
        "trace.untraced_op_ms": median(untraced),
        "trace.overhead_ratio": median(traced) / median(untraced),
        "trace.traced_ops": len(traced),
        "trace.untraced_ops": len(untraced),
    }
