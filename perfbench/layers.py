"""The program entry points a traced run wraps, one group per layer.

Every span is opened around a public call into one layer; the counts
come from the objects the program already returns (``Metrics``,
``MediationReport``, ``GeneratedSite``, the wrapped graphs).  The only
counts the benchmark makes itself are construction *attempts*: the
rows each query block binds times the Skolem terms (or link clauses) in
that block, which is what the constructor applies per row.
"""

from __future__ import annotations

from typing import Dict, Tuple

import repro.mediator.mediator as mediator_module
import repro.struql.eval as struql_eval
from repro.core.maintenance import SiteMaintainer
from repro.mediator import Mediator
from repro.repository.sql import SqlRepository, SqlStore
from repro.serve.core import ServeCore
from repro.struql.ast import Program, Query, SkolemTerm
from repro.template import HtmlGenerator
from repro.wrappers.base import Wrapper

from tracing import Tracer

#: the SqlStore methods that run one statement (or one batch of them)
SQL_STATEMENT_METHODS = ("execute", "executemany", "query", "query_named")


def _block_costs(program: object) -> Dict[int, Tuple[list, int, int]]:
    """id(block.where) -> (where list, Skolem terms per row, link
    clauses per row) for every block of a parsed program."""
    if isinstance(program, Query):
        queries = [program]
    elif isinstance(program, Program):
        queries = program.queries
    else:
        return {}
    costs: Dict[int, Tuple[list, int, int]] = {}
    for query in queries:
        for block in query.walk():
            skolems = len(block.create)
            for link in block.link:
                skolems += isinstance(link.source, SkolemTerm)
                skolems += isinstance(link.target, SkolemTerm)
            for collect in block.collect:
                skolems += isinstance(collect.node, SkolemTerm)
            costs[id(block.where)] = (block.where, skolems, len(block.link))
    return costs


def install_pipeline(tracer: Tracer) -> None:
    """wrappers, mediator, repository, struql, template."""
    blocks: Dict[int, Tuple[list, int, int]] = {}

    def after_wrap(graph, args, kwargs):
        tracer.count("wrappers.records", sum(
            len(graph.collection(name)) for name in graph.collection_names()
        ))
        tracer.count("wrappers.quarantined", args[0].last_quarantine.count)

    def after_materialize(graph, args, kwargs):
        tracer.count("mediator.mappings_run", args[0].last_report.mappings_run)

    def before_evaluate(frame, args, kwargs):
        blocks.update(_block_costs(args[0] if args else kwargs.get("program")))
        if kwargs.get("metrics") is None and tracer.metrics is not None:
            kwargs["metrics"] = tracer.metrics

    def after_bindings(rows, args, kwargs):
        conditions = args[1] if len(args) > 1 else kwargs.get("conditions")
        cost = blocks.get(id(conditions))
        if cost is not None and cost[0] is conditions:
            tracer.count("struql.skolem_applications", len(rows) * cost[1])
            tracer.count("struql.link_applications", len(rows) * cost[2])

    def after_generate(site, args, kwargs):
        tracer.count("template.pages", site.page_count)
        tracer.count("template.bytes_out", sum(
            len(page.encode("utf-8")) for page in site.pages.values()
        ))

    tracer.patch(Wrapper, "wrap", tracer.wrap(
        Wrapper.wrap, "Wrapper.wrap", "wrappers", after=after_wrap))
    tracer.patch(Mediator, "materialize", tracer.wrap(
        Mediator.materialize, "Mediator.materialize", "mediator",
        after=after_materialize))
    tracer.patch(SqlRepository, "__init__", tracer.wrap(
        SqlRepository.__init__, "SqlRepository.open", "repository"))
    tracer.patch(SqlRepository, "rebuild", tracer.wrap_context(
        SqlRepository.rebuild, "SqlRepository.rebuild", "repository"))
    for method in SQL_STATEMENT_METHODS:
        tracer.patch(SqlStore, method, tracer.wrap(
            getattr(SqlStore, method), "sql.statement", "repository", leaf=True))
    _install_bindings(tracer, after_bindings)
    evaluate = tracer.wrap(
        struql_eval.evaluate, "evaluate", "struql.construct",
        before=before_evaluate)
    tracer.patch(struql_eval, "evaluate", evaluate)
    tracer.patch(mediator_module, "evaluate", evaluate)
    tracer.patch(HtmlGenerator, "generate", tracer.wrap(
        HtmlGenerator.generate, "HtmlGenerator.generate", "template",
        after=after_generate))


def _install_bindings(tracer: Tracer, after=None) -> None:
    tracer.patch(struql_eval.QueryEngine, "bindings", tracer.wrap(
        struql_eval.QueryEngine.bindings, "QueryEngine.bindings",
        "struql.bindings", after=after))


def install_serving(tracer: Tracer) -> None:
    """serve (request handling and edit application), maintenance, and
    the bindings the maintainer runs."""

    def before_apply(frame, args, kwargs):
        edit = args[1] if len(args) > 1 else kwargs["edit"]
        submitted = getattr(edit, "submitted_at", None)
        if submitted is not None:
            tracer.samples["serve.edit_queue_wait"].append(frame.start - submitted)

    tracer.patch(ServeCore, "handle", tracer.wrap(
        ServeCore.handle, "ServeCore.handle", "serve", leaf=True))
    tracer.patch(ServeCore, "apply_edit", tracer.wrap(
        ServeCore.apply_edit, "ServeCore.apply_edit", "serve",
        before=before_apply))
    tracer.patch(SiteMaintainer, "add_object", tracer.wrap(
        SiteMaintainer.add_object, "SiteMaintainer.add_object", "maintenance"))
    _install_bindings(tracer)
