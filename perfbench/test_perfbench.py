"""Self-tests of the benchmark's own helpers.

Run from the root of the repository:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import common
import loadgen
from tracing import OTHER, TRACE, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


# ---------------------------------------------------------------------- #
# the "highest percentile with at least ten samples beyond it" rule


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"), (200, "95"),
     (999, "95"), (1000, "99"), (9999, "99"), (10000, "99.9")],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert common.tail_percentile(count) == expected


def test_samples_beyond_is_exact_at_the_edges():
    assert common.samples_beyond("99", 1000) == 10
    assert common.samples_beyond("99", 999) == 9
    assert common.samples_beyond("99.9", 10000) == 10


def test_percentile_is_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert common.percentile(samples, "50") == 50.0
    assert common.percentile(samples, "99") == 99.0
    assert common.percentile(samples, "99.9") == 100.0
    assert common.percentile([7.0], "99") == 7.0


def test_summarize_reports_only_supported_tails():
    assert set(common.summarize(range(150))) == {"n", "p50", "p90"}
    assert set(common.summarize(range(1000))) == {"n", "p50", "p99"}
    assert common.summarize([]) == {"n": 0}


# ---------------------------------------------------------------------- #
# times at reference speed


def test_a_time_is_scaled_by_the_reference_loop_timed_next_to_it():
    reference = common.REFERENCE_MS
    assert common.at_reference_speed(100.0, reference) == 100.0
    # the machine runs the loop in two thirds of the reference time, so
    # it is 1.5 times as fast as the reference: the time reads 1.5x
    assert common.at_reference_speed(100.0, reference * 2 / 3) == pytest.approx(150.0)


def test_the_reference_loop_measures_thread_cpu_time():
    assert common.reference_ms() > 0
    assert common.calibrate(3) > 0


def test_speed_track_averages_the_loops_within_an_interval():
    track = common.SpeedTrack([(3.0, 30.0), (1.0, 10.0), (2.0, 20.0)])
    assert track.loop_ms_over(0.5, 2.5) == 15.0
    assert track.loop_ms_over(1.0, 3.0) == 20.0
    # no loop inside: the one nearest to the middle of the interval
    assert track.loop_ms_over(2.2, 2.4) == 20.0
    assert track.loop_ms_over(2.6, 2.8) == 30.0
    assert track.loop_ms_over(9.0, 9.5) == 30.0
    assert track.loop_ms_at(-1.0) == 10.0
    assert track.scale(10.0, 0.5, 2.5) == pytest.approx(
        common.at_reference_speed(10.0, 15.0))
    with pytest.raises(ValueError):
        common.SpeedTrack([])


# ---------------------------------------------------------------------- #
# span self time


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_children_and_sums_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.begin("operation", OTHER)
    clock.now = 1.0
    parse = tracer.begin("parse", "x")
    clock.now = 2.0
    inner = tracer.begin("inner", "y")
    clock.now = 3.0
    tracer.end(inner)
    clock.now = 4.0
    tracer.end(parse)
    clock.now = 5.0
    render = tracer.begin("render", "y")
    clock.now = 7.0
    tracer.leaf("statement", "z", 6.0, 7.0)
    clock.now = 9.0
    tracer.end(render)
    clock.now = 10.0
    tracer.end(root)

    (op,) = tracer.ops
    assert op["wall"] == 10.0
    assert op["self"] == {OTHER: 3.0, "x": 2.0, "y": 4.0, "z": 1.0, TRACE: 0.0}
    assert sum(op["self"].values()) == op["wall"]
    parents = {name: parent for _, _, parent, name, *_ in tracer.spans}
    ids = {name: span for _, span, _, name, *_ in tracer.spans}
    assert parents["inner"] == ids["parse"]
    assert parents["parse"] == ids["operation"]
    assert parents["operation"] == 0
    assert op["leaves"] == {"statement": [1, 1.0]}


def test_leaf_bookkeeping_is_charged_to_the_trace_layer_not_the_caller():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = tracer.begin("operation", OTHER)
    clock.now = 1.0
    construct = tracer.begin("construct", "x")
    for start in (2.0, 4.0):
        # a 1 s statement whose bookkeeping takes 0.5 s
        clock.now = start + 1.5
        tracer.leaf("statement", "z", start, start + 1.0)
    clock.now = 6.0
    tracer.end(construct)
    tracer.end(root)
    (op,) = tracer.ops
    assert op["self"] == {OTHER: 1.0, "x": 2.0, "z": 2.0, TRACE: 1.0}
    assert sum(op["self"].values()) == op["wall"]


def test_a_leaf_outside_any_operation_keeps_its_duration():
    tracer = Tracer(FakeClock())
    tracer.leaf("request", "serve", 1.0, 1.25)
    tracer.leaf("request", "serve", 2.0, 2.5)
    assert tracer.samples["request"] == [0.25, 0.5]
    assert tracer.ops == []


def test_after_hook_time_is_charged_to_the_trace_layer():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.now += 2.0
        return "result"

    def after(result, args, kwargs):
        assert result == "result"
        clock.now += 0.5

    traced = tracer.wrap(work, "work", "x", after=after)
    with tracer.span("operation"):
        assert traced() == "result"
        clock.now += 1.0
    (op,) = tracer.ops
    assert op["self"] == {"x": 2.0, TRACE: 0.5, OTHER: 1.0}
    assert op["wall"] == 3.5


def test_closing_a_span_out_of_order_is_refused():
    tracer = Tracer(FakeClock())
    outer = tracer.begin("outer", "x")
    tracer.begin("inner", "y")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_install_patches_and_uninstall_restores():
    class Target:
        def method(self):
            return 1

    original = Target.__dict__["method"]
    tracer = Tracer()
    with tracer.installed(lambda t: t.patch(
            Target, "method", t.wrap(original, "Target.method", "x"))):
        assert Target.__dict__["method"] is not original
        with tracer.span("operation"):
            assert Target().method() == 1
    assert Target.__dict__["method"] is original
    assert [span[3] for span in tracer.spans] == ["Target.method", "operation"]


# ---------------------------------------------------------------------- #
# the open-loop generator, against a stub server


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):  # noqa: N802 (stdlib naming)
        if self.path == "/stall":
            time.sleep(0.3)
        if self.path == "/drop":
            self.close_connection = True
            return
        status = 503 if self.path == "/shed" else 200
        body = b"page " + self.path.encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.send_header(loadgen.GENERATION_HEADER, "1")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), StubHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
        assert not thread.is_alive()


def test_latency_is_timed_from_the_due_time(stub_server):
    """A 300 ms stall delays every request due during it.  Timed from
    when each was sent, only the stalled request looks slow (coordinated
    omission); timed from its due time, all of them do."""
    requests = [(index * 0.01, "/stall" if index == 20 else "/ok") for index in range(60)]
    results = loadgen.drive("127.0.0.1", stub_server, requests,
                            origin=time.perf_counter() + 0.05)
    assert loadgen.failures(results) == 0
    slow_from_due = [r for r in results if r.latency_ms > 100.0]
    slow_from_send = [r for r in results if (r.done - r.sent) * 1000.0 > 100.0]
    assert len(slow_from_send) == 1
    assert len(slow_from_due) >= 15
    assert max(r.late_ms for r in results) > 150.0
    ordered = sorted(loadgen.latencies_ms(results))
    assert common.percentile(ordered, "90") > 100.0


def test_failures_and_shed_requests_are_counted(stub_server):
    requests = [(index * 0.002, path) for index, path in
                enumerate(["/ok", "/shed", "/ok", "/drop", "/ok", "/shed", "/ok"])]
    results = loadgen.drive("127.0.0.1", stub_server, requests,
                            origin=time.perf_counter(), sample_every=1)
    assert [r.status for r in results] == [200, 503, 200, 0, 200, 503, 200]
    assert loadgen.failures(results) == 3
    assert len(loadgen.latencies_ms(results)) == 4
    assert all(r.body_hash is not None for r in results if r.ok)


def test_an_edit_is_visible_from_the_first_response_of_its_generation():
    def response(done, generation, status=200):
        return loadgen.Result(done, done, done, "/p", status, generation)

    results = [
        response(1.0, 1), response(2.0, 1), response(2.4, 2, status=503),
        response(2.5, 2), response(2.6, 1), response(3.2, 4), response(3.1, 3),
    ]
    # edit 0 publishes generation 2, edit 1 generation 3, edit 2 generation 4;
    # a shed response does not count, and a later generation shows an
    # earlier edit too
    assert loadgen.visible_s(results, [2.0, 3.0, 3.0], 2) == pytest.approx([0.5, 0.1, 0.2])
    assert loadgen.visible_s(results, [2.0, 3.0, 3.0, 3.5], 2)[3] is None


def test_schedule_is_seeded_and_fixed_rate():
    paths = [f"/p{index}" for index in range(50)]
    first = loadgen.schedule(paths, 1.1, 100.0, 0.0, 2.0, random.Random(7))
    again = loadgen.schedule(paths, 1.1, 100.0, 0.0, 2.0, random.Random(7))
    assert first == again
    assert len(first) == 200
    assert first[1][0] - first[0][0] == pytest.approx(0.01)
    hottest = sum(1 for _, path in first if path == "/p0")
    coldest = sum(1 for _, path in first if path == "/p49")
    assert hottest > coldest


# ---------------------------------------------------------------------- #
# the benchmark definition and its entry point


def test_benchmark_json_matches_the_metrics_run_reports():
    sys.path.insert(0, HERE)
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_program_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homepage-build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
