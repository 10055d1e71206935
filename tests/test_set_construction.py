"""Set-at-a-time construction against a row-at-a-time reference.

The constructor applies each create/link/collect clause once per
distinct projection of the binding relation onto the clause's variables,
in row-major, clause-minor order of first occurrence, and seeds nested
blocks with projected, deduplicated rows.  The contract under test: the
result graph is the one the row-at-a-time semantics of paper section 2.2
builds -- node and edge insertion order, collection order, Skolem
registry order, epoch, delta log and the ``nodes_created`` /
``edges_created`` counts -- and a failing program raises the same
exception, with the same message, from the same graph state.

:class:`ReferenceConstructor` is that reference: every clause on every
row, nested blocks seeded with the full parent rows.  It is kept
obviously correct rather than fast.
"""

import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ImmutableNodeError, StruqlEvaluationError
from repro.graph import Atom, AtomType, Graph, Oid, string
from repro.repository.sql import SqlGraph, SqlRepository
from repro.struql import Metrics, PlanCache, evaluate, parse
from repro.struql.ast import Const, SkolemTerm
from repro.struql.eval import make_engine
from repro.workloads import (
    GAV_MAPPINGS,
    HOMEPAGE_QUERY,
    NEWS_SITE_QUERY,
    bibliography_graph,
    build_mediator,
    news_graph,
)

from .test_perf_caches import _apply, mutation_scripts

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------- #
# the row-at-a-time reference


class ReferenceConstructor:
    """Every clause of every block, applied to every binding row."""

    def __init__(self, result, metrics, source):
        self.result = result
        self.metrics = metrics
        self.source = source
        self._new_nodes = {oid for _, _, oid in result.skolems.terms()}
        self._imported = set()

    def run(self, query, rows, engine):
        for row in rows:
            for term in query.create:
                self._skolem(term, row)
            for link in query.link:
                self._link(link, row)
            for collect in query.collect:
                node = self._node(collect.node, row)
                self.result.add_to_collection(collect.collection, node)
        for block in query.blocks:
            block_rows = engine.bindings(block.where, initial=rows)
            self.run(block, block_rows, engine)

    def _skolem(self, term, row):
        args = []
        for arg in term.args:
            if isinstance(arg, Const):
                args.append(arg.atom)
                continue
            value = row.get(arg.name)
            if value is None:
                raise StruqlEvaluationError(
                    f"Skolem argument {arg.name!r} unbound in {term}"
                )
            if isinstance(value, str):
                value = Atom(AtomType.STRING, value)
            args.append(value)
        before = self.result.node_count
        oid = self.result.skolem(term.function, *args)
        if self.result.node_count > before:
            self.metrics.nodes_created += 1
        self._new_nodes.add(oid)
        return oid

    def _node(self, ref, row):
        if isinstance(ref, SkolemTerm):
            return self._skolem(ref, row)
        value = row.get(ref.name)
        if not isinstance(value, Oid):
            raise StruqlEvaluationError(
                f"variable {ref.name!r} does not denote a node (got {value!r})"
            )
        if not self.result.has_node(value):
            self._import_subgraph(value)
        return value

    def _import_subgraph(self, root):
        if root in self._imported or not self.source.has_node(root):
            self.result.add_node(root)
            return
        reached = self.source.reachable(root)
        for oid in reached:
            self.result.add_node(oid)
            self._imported.add(oid)
        for oid in reached:
            for label, target in self.source.out_edges(oid):
                self.result.add_edge(oid, label, target)

    def _link(self, link, row):
        if isinstance(link.source, SkolemTerm):
            source = self._skolem(link.source, row)
        else:
            source = row.get(link.source.name)
            if not isinstance(source, Oid):
                raise StruqlEvaluationError(
                    f"link source {link.source.name!r} does not denote a node "
                    f"(got {source!r})"
                )
            if source not in self._new_nodes:
                raise ImmutableNodeError(
                    f"link source {source} is an existing node; STRUQL only adds "
                    "edges out of new (Skolem-created) nodes"
                )
        if isinstance(link.label, str):
            label = link.label
        else:
            bound = row.get(link.label.name)
            if isinstance(bound, Atom):
                label = bound.as_string()
            elif isinstance(bound, str):
                label = bound
            else:
                raise StruqlEvaluationError(
                    f"arc variable {link.label.name!r} is not bound to a label"
                )
        target = self._target(link.target, row)
        before = self.result.edge_count
        self.result.add_edge(source, label, target)
        if self.result.edge_count > before:
            self.metrics.edges_created += 1

    def _target(self, target, row):
        if isinstance(target, SkolemTerm):
            return self._skolem(target, row)
        if isinstance(target, Const):
            return target.atom
        value = row.get(target.name)
        if value is None:
            raise StruqlEvaluationError(f"link target {target.name!r} unbound")
        if isinstance(value, Oid):
            if not self.result.has_node(value):
                self._import_subgraph(value)
            return value
        if isinstance(value, str):
            return Atom(AtomType.STRING, value)
        return value


def reference_evaluate(program, source, into=None, metrics=None):
    """:func:`repro.struql.evaluate` with the reference constructor."""
    result = into if into is not None else Graph()
    engine = make_engine(source, metrics=metrics or Metrics(), plan_cache=PlanCache())
    for query in program.queries:
        rows = engine.bindings(query.where, initial=[{}])
        ReferenceConstructor(result, engine.metrics, source).run(query, rows, engine)
    return result


# ---------------------------------------------------------------------- #
# comparison


def _delta_records(graph):
    if isinstance(graph, SqlGraph):
        return graph._q(
            "SELECT epoch, kind, a, b, c FROM journal WHERE graph=? ORDER BY id",
            (graph._graph_id,),
        )
    return list(graph._delta_log._records)


def graph_state(graph):
    """Everything construction can observably change, orders included."""
    return {
        "nodes": list(graph.nodes()),
        "edges": list(graph.edges()),
        "collections": [
            (name, graph.collection(name)) for name in graph.collection_names()
        ],
        "skolems": list(graph.skolems.terms()),
        "epoch": graph.epoch,
        "delta": _delta_records(graph),
    }


def _run(evaluator, program, source, into):
    metrics = Metrics()
    try:
        evaluator(program, source, into=into, metrics=metrics)
    except (StruqlEvaluationError, ImmutableNodeError) as error:
        outcome = (type(error), str(error))
    else:
        outcome = None
    return outcome, graph_state(into), (metrics.nodes_created, metrics.edges_created)


def _new_evaluate(program, source, into, metrics):
    evaluate(
        program, source, into=into, metrics=metrics,
        engine=make_engine(source, metrics=metrics, plan_cache=PlanCache()),
    )


def assert_same_construction(program, source, make_result=Graph, times=1):
    """Evaluate ``program`` ``times`` times into one fresh result with each
    constructor; every observable must agree after every evaluation."""
    if isinstance(program, str):
        program = parse(program)
    want_graph, got_graph = make_result(), make_result()
    runs = []
    for _ in range(times):
        want = _run(reference_evaluate, program, source, want_graph)
        assert _run(_new_evaluate, program, source, got_graph) == want
        runs.append(want)
    # the first evaluation's outcome and (nodes_created, edges_created)
    return runs[0][0], runs[0][2]


def _sql_graph():
    repository = SqlRepository()
    repository.store("site", Graph(), persist=False)
    return repository.fetch("site")


def _example(name):
    path = os.path.join(REPO, "examples", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------- #
# the shipped programs


def test_homepage_program():
    data = bibliography_graph(60, seed=3)
    outcome, (nodes, edges) = assert_same_construction(HOMEPAGE_QUERY, data, times=2)
    assert outcome is None and nodes > 0 and edges > 0


def test_news_program():
    outcome, (nodes, _) = assert_same_construction(NEWS_SITE_QUERY, news_graph(40), times=2)
    assert outcome is None and nodes > 0


@pytest.fixture(scope="module")
def mediator():
    return build_mediator(people=24, seed=2)


def test_orgsite_program(mediator):
    data = mediator.materialize()
    query = _example("org_site").ORG_SITE_QUERY
    outcome, (nodes, _) = assert_same_construction(query, data)
    assert outcome is None and nodes > 0


@pytest.mark.parametrize("make_result", [Graph, _sql_graph], ids=["memory", "sqlite"])
def test_gav_mappings(mediator, make_result):
    staging = mediator.staging_graph()
    outcome, (nodes, _) = assert_same_construction(
        GAV_MAPPINGS, staging, make_result=make_result
    )
    assert outcome is None and nodes > 0


# ---------------------------------------------------------------------- #
# random programs on random graphs
#
# The graphs come from the shared mutation scripts: anonymous nodes, one
# collection "C", labels a/b/c, atom and node targets.  Programs are a
# root block, an optional nested block and an optional block nested in
# that, each with a where clause and some construction clauses drawn
# from pools that cover label variables in links, constant targets,
# links to and collects of data-graph nodes (subgraph import), and a
# middle block whose where clause may not mention the root's variables
# although its own sub-block uses them.

_ROOT_WHERE = ["C(x), x -> l -> v", "x -> l -> v", 'C(x), x -> "a" -> v, x -> l -> w']
_ROOT_CLAUSES = [
    "create Page(x)",
    "create Val(v)",
    "link Page(x) -> l -> v",
    'link Page(x) -> "k" -> "const"',
    'link Root() -> "page" -> Page(x)',
    'link Page(x) -> "val" -> Val(v)',
    "link Val(v) -> l -> Page(x)",
    "collect Pages(Page(x))",
    "collect Data(x)",
    'link Page(x) -> "self" -> x',
]
_MIDDLE_WHERE = ['x -> "a" -> y', "C(y)", "C(y), y -> l -> u"]
_MIDDLE_CLAUSES = [
    "create Sub(y)",
    'link Sub(y) -> "of" -> Page(x)',
    'link Page(x) -> "sub" -> Sub(y)',
    "collect Subs(Sub(y))",
    'link Sub(y) -> "ref" -> y',
    'link Sub(y) -> "n" -> 7',
]
_INNER_WHERE = ['y -> "b" -> z', 'y -> ("a"|"b")* -> z', "y -> m -> z"]
_INNER_CLAUSES = [
    'link Page(x) -> "deep" -> z',
    "create Deep(z)",
    'link Deep(z) -> "from" -> Sub(y)',
    "collect Deeps(Deep(z))",
    "link Page(x) -> l -> z",
    "collect Reached(z)",
]


def _block(draw, where, pool):
    """A where clause and 1-4 construction clauses, grouped by keyword."""
    chosen = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    text = f"where {draw(st.sampled_from(where))}\n"
    for keyword in ("create", "link", "collect"):
        bodies = [c.split(" ", 1)[1] for c in chosen if c.startswith(keyword + " ")]
        if bodies:
            text += f"{keyword} " + ",\n  ".join(bodies) + "\n"
    return text


@st.composite
def programs(draw):
    """STRUQL program texts over the mutation-script graphs."""
    text = _block(draw, _ROOT_WHERE, _ROOT_CLAUSES)
    depth = draw(st.integers(0, 2))
    if depth >= 1:
        text += "{ " + _block(draw, _MIDDLE_WHERE, _MIDDLE_CLAUSES)
        if depth == 2:
            text += "{ " + _block(draw, _INNER_WHERE, _INNER_CLAUSES) + "}\n"
        text += "}\n"
    if draw(st.booleans()):
        text = 'create Root()\nlink Root() -> "title" -> "Home"\n' + text
    return text


@given(mutation_scripts(), programs())
@settings(max_examples=80, deadline=None)
def test_random_programs_match_reference(script, text):
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
    assert_same_construction(text, graph, times=2)


@given(mutation_scripts(), programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_over_sqlite_match_reference(script, text):
    """On a SQLite data graph a nested block whose projection is empty is
    seeded with the one empty row, which makes it eligible for SQL
    pushdown; the reference seeds it with full rows and never pushes."""
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
    repository = SqlRepository()
    repository.store("data", graph, persist=False)
    assert_same_construction(text, repository.fetch("data"), times=2)


def test_middle_block_keeps_a_variable_only_its_sub_block_uses():
    """The middle block's where clause does not mention x; its seed rows
    must still carry x, or the inner block's Page(x) is unbound."""
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_to_collection("C", a)
    graph.add_edge(a, "a", string("va"))
    graph.add_edge(a, "b", b)
    text = """
    where C(x), x -> l -> v
    create Page(x)
    { where C(y)
      create Sub(y)
      { where y -> "b" -> z
        link Page(x) -> "deep" -> z, Sub(y) -> l -> z } }
    """
    outcome, _ = assert_same_construction(text, graph)
    assert outcome is None


# ---------------------------------------------------------------------- #
# error parity: same exception, same message, same graph state


def _error_graph():
    graph = Graph()
    first, second = graph.add_node(hint="p"), graph.add_node(hint="p")
    leaf = graph.add_node(hint="leaf")
    graph.add_edge(leaf, "name", string("leaf"))
    for node in (first, second):
        graph.add_to_collection("C", node)
    graph.add_edge(first, "a", leaf)
    graph.add_edge(second, "a", string("atom"))
    return graph


@pytest.mark.parametrize(
    "text, error, message",
    [
        (
            'where C(x), not(x -> "b" -> y) create Page(x), Bad(y)',
            StruqlEvaluationError,
            "Skolem argument 'y' unbound in Bad(y)",
        ),
        (
            'where C(x), x -> "a" -> v create Page(x) link x -> "extra" -> Page(x)',
            ImmutableNodeError,
            "is an existing node",
        ),
        (
            'where C(x), x -> "a" -> v create Page(x) collect Things(v)',
            StruqlEvaluationError,
            "variable 'v' does not denote a node",
        ),
        (
            'where C(x), x -> "a" -> v create Page(x) link Page(x) -> v -> "c"',
            StruqlEvaluationError,
            "arc variable 'v' is not bound to a label",
        ),
    ],
    ids=["unbound-skolem-argument", "link-out-of-existing-node",
         "collect-non-node", "arc-variable-not-a-label"],
)
def test_error_parity(text, error, message):
    outcome, _ = assert_same_construction(text, _error_graph())
    assert outcome is not None
    assert outcome[0] is error and message in outcome[1]

