#!/usr/bin/env python3
"""The benchmark of record for the Strudel pipeline.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload homepage-build --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The lines
before it print each metric with its unit and every timing with its
sample count.  A failed output check aborts the run with a non-zero exit
status.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("homepage-build", "orgsite-sqlite", "serve-zipf")

#: (name, unit) of every end-to-end metric, reported by every workload
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("publish_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

#: (name, unit) of every per-layer metric; a layer a workload does not
#: exercise reports 0
PER_LAYER: List[Tuple[str, str]] = [
    ("wrappers.wrap_ms", "ms"),
    ("wrappers.records", "count"),
    ("wrappers.quarantined", "count"),
    ("mediator.mediate_ms", "ms"),
    ("mediator.mappings_run", "count"),
    ("repository.rebuild_ms", "ms"),
    ("repository.statements", "count"),
    ("repository.db_bytes", "bytes"),
    ("repository.index_rows", "count"),
    ("repository.store_bytes_per_source_byte", "ratio"),
    ("repository.sql_pushdowns", "count"),
    ("repository.sql_rows_fetched", "count"),
    ("repository.sql_fallbacks", "count"),
    ("struql.bindings_ms", "ms"),
    ("struql.bindings_rows", "count"),
    ("struql.conditions_evaluated", "count"),
    ("struql.hash_join_probes", "count"),
    ("struql.dedup_hits", "count"),
    ("struql.path_memo_hit_ratio", "ratio"),
    ("struql.path_memo_lookups", "count"),
    ("struql.plan_cache_hit_ratio", "ratio"),
    ("struql.plan_cache_lookups", "count"),
    ("struql.construct_ms", "ms"),
    ("struql.skolem_applications", "count"),
    ("struql.nodes_created", "count"),
    ("struql.link_applications", "count"),
    ("struql.edges_created", "count"),
    ("struql.skolem_useful_ratio", "ratio"),
    ("struql.link_useful_ratio", "ratio"),
    ("template.render_ms", "ms"),
    ("template.pages", "count"),
    ("template.bytes_out", "bytes"),
    ("maintenance.maintain_ms", "ms"),
    ("maintenance.queries_recomputed", "count"),
    ("maintenance.queries_seeded", "count"),
    ("maintenance.full_rebuilds", "count"),
    ("regen.pages_rerendered", "count"),
    ("regen.pages_retained", "count"),
    ("serve.handle_us", "us"),
    ("serve.apply_ms", "ms"),
    ("serve.edit_queue_wait_ms", "ms"),
    ("serve.requests", "count"),
    ("serve.cache_hits", "count"),
    ("serve.not_found", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("traffic.sent", "count"),
    ("traffic.failed", "count"),
    ("traffic.late_p99_ms", "ms"),
    ("traffic.read_p99_ms", "ms"),
    ("traffic.edit_read_p99_ms", "ms"),
    ("other_ms", "ms"),
    ("trace.bookkeeping_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.traced_op_ms", "ms"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_ops", "count"),
    ("trace.untraced_ops", "count"),
    ("wall.setup_s", "s"),
    ("wall.op_ms", "ms"),
    ("wall.publish_ms", "ms"),
    ("machine.reference_ms", "ms"),
    ("machine.calibration_start_ms", "ms"),
    ("machine.calibration_end_ms", "ms"),
]


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the measured loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    return parser.parse_args(argv)


def _metrics(raw: Dict[str, object], trace: bool) -> Dict[str, Dict[str, object]]:
    from common import median, metric

    if not trace:
        return {
            "setup_s": metric(median(raw["setup_s"]), "s"),
            "op_ms": metric(median(raw["op_ms"]), "ms"),
            "publish_ms": metric(median(raw["publish_ms"]), "ms"),
            "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        }
    values = dict(raw["per_layer"])
    for key, samples in raw["wall"].items():
        values[f"wall.{key}"] = median(samples)
    values["machine.reference_ms"] = median(raw["reference_ms"])
    values["machine.calibration_start_ms"] = raw["calibration_ms"]["start"]
    values["machine.calibration_end_ms"] = raw["calibration_ms"]["end"]
    known = {name for name, _ in PER_LAYER}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"unlisted per-layer metrics: {unknown}")
    return {
        name: metric(float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER
    }


def _report(args: argparse.Namespace, raw: Dict[str, object],
            metrics: Dict[str, Dict[str, object]]) -> None:
    """Human-readable lines ahead of the result line."""
    from common import summarize

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print(f"reference loop: {raw['calibration_ms']['start']:.2f} ms at start,"
          f" {raw['calibration_ms']['end']:.2f} ms at end,"
          f" {json.dumps(summarize(raw['reference_ms']))} through the run")
    for key in ("setup_s", "op_ms", "publish_ms"):
        print(f"{key:<28} {json.dumps(summarize(raw[key]))}")
        print(f"{'  as measured':<28} {json.dumps(summarize(raw['wall'][key]))}")
    for key, value in sorted(raw.get("detail", {}).items()):
        print(f"{key:<28} {json.dumps(value)}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import CheckFailed, print_result

    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    # a killed run may have left a directory under a pid now reused
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    # anything SQLite or the program spills to a temporary file stays
    # inside the checkout
    os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = workdir
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
    try:
        if args.workload == "serve-zipf":
            import serve

            raw = serve.run(args.seed, args.seconds, bool(args.trace), ROOT, spans_path)
        else:
            import builds

            raw = builds.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT, workdir, spans_path)
    except CheckFailed as failure:
        print(f"perfbench: output check failed: {failure}", file=sys.stderr)
        print_result(False, 1, 1, {})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = _metrics(raw, bool(args.trace))
    _report(args, raw, metrics)
    print_result(True, int(raw["attempted"]), int(raw["failed"]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
