"""The two build workloads: source -> pages, in one process, closed loop.

* ``homepage-build`` -- memory backend.  A seeded BibTeX file of
  ``HOMEPAGE_PUBS`` publications; each operation wraps it, evaluates the
  Fig. 3 homepage query and renders the Fig. 6 templates.
* ``orgsite-sqlite`` -- the five-source organisation site of
  ``ORG_PEOPLE`` people.  Each operation wraps the five sources, runs
  the GAV mediation into a file-backed ``SqlRepository`` (the program's
  own flush policy: WAL, ``synchronous=NORMAL``, a DDL snapshot after
  each commit) in a fresh directory, and builds the internal org site of
  ``examples/org_site.py`` over the ``SqlGraph`` with SQL pushdown.

An operation is timed twice: ``op`` ends when the pages exist in memory,
``publish`` when they are also written to a fresh web-root directory.
Every ``SETUP_EVERY``-th slot of the loop is a cold set-up instead:
seeded input generation and a build with the plan cache emptied.  The
reference loop is timed just before and just after every slot, and each
time is reported at reference speed (``common.at_reference_speed``).
"""

from __future__ import annotations

import csv
import gc
import importlib.util
import io
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.struql.eval as struql_eval
from repro.mediator import Mediator
from repro.repository.sql import SqlRepository
from repro.serve.core import default_roots
from repro.struql import parse
from repro.struql.eval import Metrics, make_engine
from repro.struql.plancache import clear_plan_cache
from repro.template import GeneratedSite, HtmlGenerator
from repro.workloads import HOMEPAGE_QUERY, generate_entries, homepage_templates
from repro.workloads.orgsite import (
    GAV_MAPPINGS,
    departments_table,
    legacy_pages,
    personnel_table,
    projects_text,
)
from repro.wrappers import (
    BibtexWrapper,
    HtmlSiteWrapper,
    RelationalWrapper,
    StructuredFileWrapper,
)

from common import (
    CheckFailed,
    at_reference_speed,
    calibrate,
    median,
    page_digest,
    peak_rss_mb,
    reference_ms,
)
from layers import install_pipeline
from tracing import OTHER, Tracer

HOMEPAGE_PUBS = 1000
ORG_PEOPLE = 400

#: Metrics counters reported per layer, by their per-layer name
METRICS_COUNTERS = {
    "struql.bindings_rows": "bindings_produced",
    "struql.conditions_evaluated": "conditions_evaluated",
    "struql.hash_join_probes": "hash_join_probes",
    "struql.dedup_hits": "dedup_hits",
    "struql.nodes_created": "nodes_created",
    "struql.edges_created": "edges_created",
    "repository.sql_pushdowns": "sql_pushdowns",
    "repository.sql_rows_fetched": "sql_rows_fetched",
    "repository.sql_fallbacks": "sql_fallbacks",
}
#: layer -> per-layer self-time metric (ms)
LAYER_TIMES = {
    "wrappers": "wrappers.wrap_ms",
    "mediator": "mediator.mediate_ms",
    "repository": "repository.rebuild_ms",
    "struql.bindings": "struql.bindings_ms",
    "struql.construct": "struql.construct_ms",
    "template": "template.render_ms",
    OTHER: "other_ms",
    "trace": "trace.bookkeeping_ms",
}


def _load_example(root: str, name: str):
    path = os.path.join(root, "examples", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Built:
    """One operation's output, plus what the checks and counts need."""

    site: GeneratedSite
    site_graph: object
    data_graph: object
    repository: Optional[SqlRepository] = None


# ---------------------------------------------------------------------- #
# homepage-build


@dataclass
class HomepageInputs:
    bibtex: str
    program: object
    templates: object
    roots: List[str]


def homepage_prepare(seed: int, root: str) -> HomepageInputs:
    program = parse(HOMEPAGE_QUERY)
    return HomepageInputs(
        generate_entries(HOMEPAGE_PUBS, seed=seed),
        program,
        homepage_templates(),
        default_roots(program),
    )


def homepage_build(inputs: HomepageInputs, directory: str, metrics: Metrics) -> Built:
    data = BibtexWrapper(inputs.bibtex).wrap()
    engine = make_engine(data, metrics=metrics)
    site_graph = struql_eval.evaluate(
        inputs.program, data, engine=engine, metrics=metrics
    )
    site = HtmlGenerator(site_graph, inputs.templates).generate(inputs.roots)
    return Built(site, site_graph, data)


def _distinct(graph, collection: str, label: str) -> int:
    return len({
        str(target)
        for oid in graph.collection(collection)
        for target in graph.targets(oid, label)
    })


def homepage_check_shape(built: Built) -> None:
    """The Fig. 4 site shape and link integrity."""
    data, site_graph, site = built.data_graph, built.site_graph, built.site
    pubs = len(data.collection("Publications"))
    years = _distinct(data, "Publications", "year")
    categories = _distinct(data, "Publications", "category")
    expected = {
        "Presentations": pubs,
        "AbstractPages": pubs,
        "YearPages": years,
        "CategoryPages": categories,
    }
    for collection, count in expected.items():
        found = len(site_graph.collection(collection))
        if found != count:
            raise CheckFailed(f"{collection}: {found} members, expected {count}")
    page_objects = {oid.name for oid in site.filenames}
    for root in ("RootPage()", "AbstractsPage()"):
        if root not in page_objects:
            raise CheckFailed(f"no page for {root}")
    # PaperPresentation is embedded in the year and category pages
    pages = 2 + pubs + years + categories
    if site.page_count != pages:
        raise CheckFailed(f"{site.page_count} pages, expected {pages}")
    if pubs != HOMEPAGE_PUBS:
        raise CheckFailed(f"{pubs} publications wrapped, expected {HOMEPAGE_PUBS}")
    dangling = site.dangling_links()
    if dangling:
        raise CheckFailed(f"{len(dangling)} dangling links, e.g. {dangling[0]}")


# ---------------------------------------------------------------------- #
# orgsite-sqlite


@dataclass
class OrgInputs:
    people: object
    departments: object
    projects: str
    bibtex: str
    legacy: Dict[str, str]
    mappings: object
    program: object
    templates: object
    source_bytes: int


def _csv_bytes(table) -> int:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(table.columns)
    writer.writerows(table.rows)
    return len(buffer.getvalue().encode("utf-8"))


def org_prepare(seed: int, root: str) -> OrgInputs:
    """The five sources of ``repro.workloads.build_mediator``, generated
    here so the program receives only their text and rows."""
    org_site = _load_example(root, "org_site")
    people = personnel_table(ORG_PEOPLE, seed)
    departments = departments_table(people, seed)
    projects = projects_text(people, seed=seed)
    bibtex = generate_entries(
        max(10, ORG_PEOPLE // 4), seed=seed + 4,
        author_pool=[row[1] for row in people.rows],
    )
    legacy = legacy_pages(people, seed=seed)
    source_bytes = (
        _csv_bytes(people) + _csv_bytes(departments)
        + len(projects.encode("utf-8")) + len(bibtex.encode("utf-8"))
        + sum(len(page.encode("utf-8")) for page in legacy.values())
    )
    return OrgInputs(
        people, departments, projects, bibtex, legacy,
        parse(GAV_MAPPINGS),
        parse(org_site.ORG_SITE_QUERY),
        org_site.build_templates(org_site.INTERNAL_PERSON),
        source_bytes,
    )


def org_build(
    inputs: OrgInputs, directory: Optional[str], metrics: Metrics
) -> Built:
    """``directory=None`` builds on the memory backend (the reference)."""
    repository = SqlRepository(directory) if directory is not None else None
    mediator = Mediator(repository)
    mediator.add_source(
        "personnel",
        RelationalWrapper([inputs.people], key_columns={"people": "login"}),
    )
    mediator.add_source(
        "orgdb",
        RelationalWrapper([inputs.departments], key_columns={"departments": "id"}),
    )
    mediator.add_source("projects", StructuredFileWrapper(inputs.projects))
    mediator.add_source("pubs", BibtexWrapper(inputs.bibtex))
    mediator.add_source("legacy", HtmlSiteWrapper(inputs.legacy))
    mediator.add_mapping(inputs.mappings)
    data = mediator.materialize()
    engine = make_engine(data, metrics=metrics)
    site_graph = struql_eval.evaluate(
        inputs.program, data, engine=engine, metrics=metrics
    )
    site = HtmlGenerator(site_graph, inputs.templates).generate(["OrgRoot()"])
    return Built(site, site_graph, data, repository)


# ---------------------------------------------------------------------- #
# the shared closed loop


@dataclass
class BuildWorkload:
    prepare: Callable
    build: Callable
    uses_store: bool
    #: layers every traced operation must have a span in
    layers: Tuple[str, ...]
    check_shape: Optional[Callable] = None


PIPELINE_LAYERS = ("wrappers", "struql.bindings", "struql.construct", "template")

WORKLOADS = {
    "homepage-build": BuildWorkload(
        homepage_prepare, homepage_build, False, PIPELINE_LAYERS,
        homepage_check_shape,
    ),
    "orgsite-sqlite": BuildWorkload(
        org_prepare, org_build, True,
        PIPELINE_LAYERS + ("mediator", "repository"),
    ),
}

#: every SETUP_EVERY-th slot of the measured loop, the first included,
#: is a cold set-up instead of a build
SETUP_EVERY = 4


@dataclass
class _Op:
    cold: bool
    op_s: float
    publish_s: float
    #: the reference loop's time next to the operation (ms)
    loop_ms: float
    digest: str
    db_bytes: int = 0
    traced: bool = False
    counts: Dict[str, float] = field(default_factory=dict)

    def scaled_ms(self, seconds: float) -> float:
        return at_reference_speed(seconds * 1000.0, self.loop_ms)


class _Scratch:
    """Fresh directories under the run's work directory."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.serial = 0

    def fresh(self, kind: str) -> str:
        self.serial += 1
        path = os.path.join(self.workdir, f"{kind}-{self.serial}")
        os.makedirs(path)
        return path


def _release(built: Built) -> None:
    if built.repository is not None:
        built.repository.store_backend.close()


def run(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: str,
    workdir: str,
    spans_path: str,
) -> Dict[str, object]:
    workload = WORKLOADS[workload_name]
    scratch = _Scratch(workdir)
    calibration_start = calibrate()
    tracer = Tracer()
    ops: List[_Op] = []
    inputs = None
    reference = None
    measure_start = time.perf_counter()
    slot = 0
    # a set-up is seeded input generation plus the cold first build,
    # with the plan cache emptied; set-ups are spread over the run so
    # that their median, like the builds', spans the machine's phases
    while slot == 0 or time.perf_counter() - measure_start < seconds:
        cold = slot % SETUP_EVERY == 0
        warm_index = slot - slot // SETUP_EVERY - 1
        traced = trace and not cold and warm_index % 2 == 1
        slot += 1
        directory = scratch.fresh("db") if workload.uses_store else None
        webroot = scratch.fresh("www")
        metrics = Metrics()
        if cold:
            inputs = None
        gc.collect()
        if cold:
            clear_plan_cache()
        loop_before = reference_ms()
        if cold:
            started = time.perf_counter()
            inputs = workload.prepare(seed, root)
            built = workload.build(inputs, directory, metrics)
            built_at = time.perf_counter()
        elif traced:
            tracer.counts.clear()
            tracer.metrics = metrics
            with tracer.installed(install_pipeline):
                started = time.perf_counter()
                with tracer.span("operation", OTHER):
                    built = workload.build(inputs, directory, metrics)
                built_at = time.perf_counter()
        else:
            started = time.perf_counter()
            built = workload.build(inputs, directory, metrics)
            built_at = time.perf_counter()
        if not cold:
            built.site.write(webroot)
        published_at = time.perf_counter()
        loop_after = reference_ms()

        op = _Op(cold, built_at - started, published_at - started,
                 (loop_before + loop_after) / 2.0, page_digest(built.site.pages),
                 traced=traced)
        if built.repository is not None:
            op.db_bytes = built.repository.file_size()
        if traced:
            op.counts = _op_counts(tracer, metrics, built, workload)
        ops.append(op)
        if reference is None:
            reference = op.digest
            if workload.check_shape is not None:
                workload.check_shape(built)
        _release(built)
        del built
        shutil.rmtree(webroot)
        if directory is not None:
            shutil.rmtree(directory)
        if op.digest != reference:
            raise CheckFailed(f"slot {slot}: pages differ from the first set-up's")

    peak_mb = peak_rss_mb()
    if workload.uses_store:
        # the memory backend must produce the same pages byte for byte
        memory = org_build(inputs, None, Metrics())
        if page_digest(memory.site.pages) != reference:
            raise CheckFailed("SQLite and memory backends built different pages")
        del memory
    calibration_end = calibrate()

    setups = [op for op in ops if op.cold]
    untraced = [op for op in ops if not op.cold and not op.traced]
    if not untraced:
        raise CheckFailed(f"no build finished within {seconds:g} s")
    result: Dict[str, object] = {
        "attempted": len(ops),
        "failed": 0,
        "setup_s": [op.scaled_ms(op.op_s) / 1000.0 for op in setups],
        "op_ms": [op.scaled_ms(op.op_s) for op in untraced],
        "publish_ms": [op.scaled_ms(op.publish_s) for op in untraced],
        "wall": {
            "setup_s": [op.op_s for op in setups],
            "op_ms": [op.op_s * 1000.0 for op in untraced],
            "publish_ms": [op.publish_s * 1000.0 for op in untraced],
        },
        "reference_ms": [op.loop_ms for op in ops],
        "peak_rss_mb": peak_mb,
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "detail": {"operations": len(ops)},
    }
    if workload.uses_store:
        result["detail"]["store_bytes_per_source_byte"] = median(
            [op.db_bytes for op in ops]
        ) / inputs.source_bytes
    if trace:
        result["per_layer"] = _per_layer(tracer, ops, inputs, workload)
        tracer.write(spans_path)
    return result


def _op_counts(
    tracer: Tracer, metrics: Metrics, built: Built, workload: BuildWorkload
) -> Dict[str, float]:
    """Everything one traced operation counted."""
    record = tracer.ops[-1]
    missing = [layer for layer in workload.layers if layer not in record["self"]]
    if missing:
        raise CheckFailed(f"a traced build ran no span in layers {missing}")
    counts: Dict[str, float] = dict(tracer.counts)
    for name, field_name in METRICS_COUNTERS.items():
        counts[name] = getattr(metrics, field_name)
    counts["struql.plan_cache_lookups"] = metrics.plan_cache_hits + metrics.plan_cache_misses
    counts["struql.plan_cache_hits"] = metrics.plan_cache_hits
    counts["struql.path_memo_lookups"] = metrics.path_memo_hits + metrics.path_memo_misses
    counts["struql.path_memo_hits"] = metrics.path_memo_hits
    counts["repository.statements"] = record["leaves"].get(
        "sql.statement", [0])[0]
    if built.repository is not None:
        counts["repository.db_bytes"] = built.repository.file_size()
        counts["repository.index_rows"] = sum(
            built.repository.index_row_counts().values()
        )
    return counts


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _per_layer(
    tracer: Tracer, ops: List[_Op], inputs, workload: BuildWorkload
) -> Dict[str, float]:
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.cold and not op.traced]
    if not traced:
        raise CheckFailed("the traced run finished no traced operation")
    records = [record for record in tracer.ops if record["name"] == "operation"]
    out: Dict[str, float] = {}
    # self times at reference speed, each scaled like its operation
    for layer, name in LAYER_TIMES.items():
        out[name] = median([
            op.scaled_ms(record["self"].get(layer, 0.0))
            for op, record in zip(traced, records)
        ])
    names = set().union(*(op.counts for op in traced))
    for name in names:
        out[name] = median([op.counts.get(name, 0) for op in traced])
    out["struql.plan_cache_hit_ratio"] = _ratio(
        out.pop("struql.plan_cache_hits"), out["struql.plan_cache_lookups"])
    out["struql.path_memo_hit_ratio"] = _ratio(
        out.pop("struql.path_memo_hits"), out["struql.path_memo_lookups"])
    out["struql.skolem_useful_ratio"] = _ratio(
        out["struql.nodes_created"], out.get("struql.skolem_applications", 0))
    out["struql.link_useful_ratio"] = _ratio(
        out["struql.edges_created"], out.get("struql.link_applications", 0))
    if workload.uses_store:
        out["repository.store_bytes_per_source_byte"] = _ratio(
            out["repository.db_bytes"], inputs.source_bytes)
    traced_ms = median([op.scaled_ms(op.op_s) for op in traced])
    untraced_ms = median([op.scaled_ms(op.op_s) for op in untraced])
    out["trace.traced_op_ms"] = traced_ms
    out["trace.untraced_op_ms"] = untraced_ms
    out["trace.overhead_ratio"] = traced_ms / untraced_ms
    out["trace.traced_ops"] = len(traced)
    out["trace.untraced_ops"] = len(untraced)
    return out
