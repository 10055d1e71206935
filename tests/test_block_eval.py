"""Set-at-a-time (block) execution of STRUQL where-clauses.

The contracts under test:

* the engine's binding relation equals the test-only reference
  evaluator's (:mod:`tests.reference_eval`: written order, nested loops
  over dict bindings, full scans) -- exactly, rows and order, in naive
  mode (written order, no indexes), and as a set under index probes and
  the planner -- for arbitrary graphs and a query suite covering
  collections, edges, arc variables, regular paths, negation,
  comparisons and coercing constants, on the memory backend and on
  ``SqlGraph`` (whose optimized evaluation is pushed into SQLite);
* the footprint recorded by block mode is sound: any delta that changes
  a query's bindings must satisfy ``footprint.touches(delta)``;
* edge cases where batching is easy to get wrong, each checked against
  the reference: zero-length path matches, cycles under ``Star``,
  fully-bound path pairs, negation and paths over partially bound
  frontiers seeded through ``initial``, arc variables, and an arc
  variable bound to an oid;
* the path-reachability memo serves warm evaluations
  (``path_memo_hits``) and is invalidated by graph mutation;
* ``NFA.reversed()`` (structural reversal) is equivalent to compiling
  the reversed expression;
* ``_Frame.unique_dicts`` deduplicates in first-occurrence order at
  10k-row scale;
* ``explain(..., counts=True)`` renders per-operator row counts.
"""

import pytest
from hypothesis import example, given, settings

from repro.graph import Atom, AtomType, Graph, integer, string
from repro.repository import IndexStatistics
from repro.repository.sql import SqlRepository
from repro.struql import (
    Footprint,
    PlanCache,
    QueryEngine,
    SqlQueryEngine,
    compile_path,
    explain,
    parse_query,
    reverse_expr,
    sources_to,
)
from repro.struql.ast import Alternation, Concat, LabelIs, Star, any_path
from repro.struql.eval import _Frame

from .reference_eval import reference_bindings
from .test_perf_caches import _apply, mutation_scripts

# ---------------------------------------------------------------------- #
# engine == reference evaluator (property)

_BLOCK_QUERY_TEXTS = [
    'where C(x), x -> "a" -> y create Probe()',
    "where C(x), x -> l -> v create Probe()",
    'where C(x), not(x -> "b" -> y) create Probe()',
    "where C(x), x -> * -> v create Probe()",
    'where C(x), x -> "a"* -> v create Probe()',
    'where C(x), C(y), x -> "a" -> z, y -> "b" -> z create Probe()',
    'where C(x), x -> "a" -> v, v = "f" create Probe()',
    'where x -> "a" -> y, y -> ("a"|"b") -> z create Probe()',
    # coercing constants: "5" must match the INTEGER 5 and FLOAT 5.0 too
    'where x -> "a" -> "5" create Probe()',
    'where x -> ("a"|"b")* -> "5" create Probe()',
    'where C(x), x -> l -> v, isInteger(v), v > 3 create Probe()',
]

#: a graph every coercing constant of the suite matches, in an INTEGER
#: and a FLOAT spelling
_COERCION_SCRIPT = [
    ("node", 0, 0, "a", integer(0)),
    ("node", 0, 0, "a", integer(0)),
    ("edge_atom", 0, 0, "a", integer(5)),
    ("edge_atom", 1, 0, "a", Atom(AtomType.FLOAT, 5.0)),
    ("edge_node", 1, 0, "b", integer(0)),
    ("edge_atom", 1, 0, "c", integer(7)),
    ("collect", 0, 0, "a", integer(0)),
    ("collect", 1, 0, "a", integer(0)),
]


def _bindings(graph, conditions, initial=None, **kwargs):
    engine = QueryEngine(graph, plan_cache=PlanCache(), **kwargs)
    return engine.bindings(conditions, initial=initial)


def _as_set(rows):
    keys = {frozenset(row.items()) for row in rows}
    assert len(keys) == len(rows), "binding relation has duplicate rows"
    return keys


def _check(graph, conditions, initial=None, engine=QueryEngine, **kwargs):
    """Assert the engine agrees with the reference: the exact list in
    naive mode, the same set with indexes and with the planner.  Returns
    the default (optimized) engine's rows."""
    expected = reference_bindings(graph, conditions, initial)
    text = ", ".join(map(str, conditions))
    naive = engine(graph, optimize=False, use_indexes=False, plan_cache=PlanCache())
    assert naive.bindings(conditions, initial=initial) == expected, text
    written = engine(graph, optimize=False, plan_cache=PlanCache())
    rows = written.bindings(conditions, initial=initial)
    assert _as_set(rows) == _as_set(expected), text
    planned = engine(graph, plan_cache=PlanCache(), **kwargs)
    rows = planned.bindings(conditions, initial=initial)
    assert _as_set(rows) == _as_set(expected), text
    return rows


def _graph(script):
    graph = Graph()
    nodes = []
    for step in script:
        _apply(graph, nodes, step)
    return graph


@given(mutation_scripts())
@example(_COERCION_SCRIPT)
@settings(max_examples=40, deadline=None)
def test_block_bindings_match_row_bindings(script):
    """Against the reference evaluator's row-at-a-time relation: the
    planned, indexed engine yields the same set of rows, on arbitrary
    graphs, for every query shape the engine supports."""
    graph = _graph(script)
    for text in _BLOCK_QUERY_TEXTS:
        query = parse_query(text)
        expected = _as_set(reference_bindings(graph, query.where))
        assert _as_set(_bindings(graph, query.where)) == expected, text
        written = _bindings(graph, query.where, optimize=False)
        assert _as_set(written) == expected, text


@given(mutation_scripts())
@example(_COERCION_SCRIPT)
@settings(max_examples=30, deadline=None)
def test_block_matches_row_in_naive_mode(script):
    """With written order and full scans (the E5 ablation) the engine
    reproduces the reference evaluator's rows in the same order."""
    graph = _graph(script)
    for text in _BLOCK_QUERY_TEXTS:
        query = parse_query(text)
        naive = _bindings(graph, query.where, optimize=False, use_indexes=False)
        assert naive == reference_bindings(graph, query.where), text


@given(mutation_scripts())
@example(_COERCION_SCRIPT)
@settings(max_examples=20, deadline=None)
def test_block_matches_reference_on_sqlgraph(script):
    """The same contract over a SQLite data graph: naive mode runs the
    block operators on ``SqlGraph`` (exact rows and order); optimized
    mode pushes each compilable plan prefix into SQL, or with the plain
    ``QueryEngine`` runs the planned operators in memory (same set)."""
    repository = SqlRepository()
    repository.store("data", _graph(script), persist=False)
    graph = repository.fetch("data")
    for text in _BLOCK_QUERY_TEXTS:
        query = parse_query(text)
        _check(graph, query.where, engine=SqlQueryEngine, pushdown_cutoff=0.0)
        assert _as_set(_bindings(graph, query.where)) == _as_set(
            reference_bindings(graph, query.where)
        ), text


# ---------------------------------------------------------------------- #
# footprint soundness: touches(delta) covers every read

_FOOTPRINT_QUERY_TEXTS = [
    'where C(x), x -> "a" -> y create Probe()',
    'where C(x), x -> "a"* -> v create Probe()',
    'where C(x), not(x -> "b" -> y) create Probe()',
]


@given(mutation_scripts())
@settings(max_examples=30, deadline=None)
def test_block_footprint_sound_under_deltas(script):
    """If a mutation changes a query's bindings, the footprint recorded
    by the *previous* block-mode evaluation must admit it (touches)."""
    queries = [parse_query(text) for text in _FOOTPRINT_QUERY_TEXTS]
    graph = Graph()
    nodes = []
    engine = QueryEngine(graph, plan_cache=PlanCache())
    cached = {}
    for index, query in enumerate(queries):
        footprint = Footprint()
        with engine.record_into(footprint):
            rows = engine.bindings(query.where)
        cached[index] = (rows, footprint, graph.epoch)
    for step in script:
        _apply(graph, nodes, step)
        for index, query in enumerate(queries):
            rows, footprint, epoch = cached[index]
            delta = graph.delta_since(epoch)
            assert delta is not None  # short scripts never truncate
            fresh_footprint = Footprint()
            with engine.record_into(fresh_footprint):
                fresh = engine.bindings(query.where)
            if fresh != rows:
                assert footprint.touches(delta), str(query)
            cached[index] = (fresh, fresh_footprint, graph.epoch)


# ---------------------------------------------------------------------- #
# edge cases

@pytest.fixture
def cycle_graph():
    """a -n-> b -n-> a, both in C; a -a-> "leaf"."""
    graph = Graph()
    a, b = graph.add_node(), graph.add_node()
    graph.add_edge(a, "n", b)
    graph.add_edge(b, "n", a)
    graph.add_edge(a, "a", string("leaf"))
    graph.add_to_collection("C", a)
    graph.add_to_collection("C", b)
    return graph, a, b


def test_star_includes_zero_length_match(cycle_graph):
    graph, a, b = cycle_graph
    query = parse_query("where C(x), x -> * -> v create Probe()")
    block = _check(graph, query.where)
    # "including p itself": every collection member reaches itself
    assert {"x": a, "v": a} in block
    assert {"x": b, "v": b} in block


def test_star_terminates_on_cycles(cycle_graph):
    graph, a, b = cycle_graph
    query = parse_query('where C(x), x -> "n"* -> v create Probe()')
    block = _check(graph, query.where)
    assert {"x": a, "v": b} in block and {"x": b, "v": a} in block


def test_fully_bound_path_pairs(cycle_graph):
    """Both endpoints bound: the block operator verdict-checks pairs."""
    graph, a, b = cycle_graph
    query = parse_query('where C(x), C(v), x -> "n" -> v create Probe()')
    block = _check(graph, query.where)
    assert {"x": a, "v": b} in block


def test_negation_over_partially_bound_frontier(cycle_graph):
    """Seeded rows where the negation variable is pre-bound: the block
    negation must evaluate per distinct projection, not per row."""
    graph, a, b = cycle_graph
    query = parse_query('where not(x -> "a" -> y) create Probe()')
    initial = [{"x": a}, {"x": b}, {"x": a}]
    block = _check(graph, query.where, initial=initial)
    assert block == [{"x": b}]  # a has an "a"-edge, b does not


def test_path_over_partially_bound_frontier(cycle_graph):
    """Mixed frontier: some rows bind only the source, some bind both
    endpoints -- each row classifies into a different seed group."""
    graph, a, b = cycle_graph
    query = parse_query('where x -> "n"* -> v create Probe()')
    initial = [{"x": a}, {"x": b, "v": a}, {"v": b}]
    _check(graph, query.where, initial=initial)


# ---------------------------------------------------------------------- #
# hash-join probing and the path memo

def _fanin_graph(members=20):
    """Many collection members sharing one hub: rows collapse to a
    handful of distinct keys, so block mode probes far fewer times."""
    graph = Graph()
    hub = graph.add_node(hint="hub")
    for index in range(members):
        node = graph.add_node(hint=f"m{index}")
        graph.add_edge(node, "to", hub)
        graph.add_edge(node, "kind", string(f"k{index % 2}"))
        graph.add_to_collection("C", node)
    graph.add_edge(hub, "name", string("hub"))
    return graph


def test_block_mode_counts_dedup_and_probes():
    graph = _fanin_graph()
    query = parse_query('where C(x), x -> "to" -> h, h -> "name" -> n create Probe()')
    # written order pinned: the name-probe runs over 20 rows that all
    # bind h to the same hub, so 19 of its probes dedup away
    engine = QueryEngine(graph, optimize=False, plan_cache=PlanCache())
    rows = engine.bindings(query.where)
    assert len(rows) == 20
    assert engine.metrics.dedup_hits == 19
    assert engine.metrics.hash_join_probes > 0
    assert len(engine.last_operator_stats) == 3  # one per condition
    name_op = engine.last_operator_stats[2]
    assert name_op.rows_in == 20 and name_op.probes == 1
    assert name_op.dedup_hits == 19
    total_in = engine.last_operator_stats[0].rows_in
    assert total_in == 1  # the pipeline starts from the empty row


def test_path_memo_serves_warm_runs_and_invalidates():
    graph = _fanin_graph()
    query = parse_query("where C(x), x -> * -> v create Probe()")
    cache = PlanCache()
    engine = QueryEngine(graph, plan_cache=cache)

    cold = engine.bindings(query.where)
    assert engine.metrics.path_memo_misses > 0
    hits_after_cold = engine.metrics.path_memo_hits

    warm = engine.bindings(query.where)
    assert warm == cold
    assert engine.metrics.path_memo_hits > hits_after_cold  # memo reuse
    assert cache.stats()["path_entries"] > 0

    # mutation bumps the epoch: the memo must not serve stale sets
    extra = graph.add_node(hint="new")
    graph.add_edge(sorted(graph.collection("C"), key=lambda o: o.name)[0],
                   "to", extra)
    fresh = engine.bindings(query.where)
    assert fresh != cold
    assert fresh == _bindings(graph, query.where)  # a cold engine, no memo
    assert _as_set(fresh) == _as_set(reference_bindings(graph, query.where))


def test_path_memo_shared_across_queries_with_same_nfa():
    """Two queries sharing a compiled NFA (identical conditions resolve
    to the same cached NFA object) reuse each other's reachability."""
    graph = _fanin_graph(members=6)
    query = parse_query("where C(x), x -> * -> v create Probe()")
    cache = PlanCache()
    first = QueryEngine(graph, plan_cache=cache)
    second = QueryEngine(graph, plan_cache=cache)
    first.bindings(query.where)
    second.bindings(query.where)
    assert second.metrics.path_memo_hits > 0


# ---------------------------------------------------------------------- #
# structural NFA reversal

_REVERSAL_EXPRS = [
    LabelIs("x"),
    Concat((LabelIs("x"), LabelIs("y"))),
    Alternation((LabelIs("x"), Concat((LabelIs("y"), LabelIs("x"))))),
    Star(Concat((LabelIs("x"), LabelIs("y")))),
    any_path(),
]


@pytest.mark.parametrize("expr", _REVERSAL_EXPRS, ids=repr)
def test_nfa_reversed_matches_reverse_expr(expr):
    graph = Graph()
    a, b, c, d = (graph.add_node() for _ in range(4))
    graph.add_edge(a, "x", b)
    graph.add_edge(b, "y", d)
    graph.add_edge(a, "y", c)
    graph.add_edge(c, "x", d)
    structural = compile_path(expr).reversed()
    recompiled = compile_path(reverse_expr(expr))
    for target in (a, b, c, d):
        assert sources_to(graph, structural, target) == \
            sources_to(graph, recompiled, target)


def test_nfa_reversed_is_cached():
    nfa = compile_path(Concat((LabelIs("x"), LabelIs("y"))))
    assert nfa.reversed() is nfa.reversed()


# ---------------------------------------------------------------------- #
# unique_dicts at scale

def test_unique_dicts_dedupes_first_occurrence_order_at_10k_rows():
    frame = _Frame(["x", "y"])
    rows = [(index % 100, (index * 7) % 100) for index in range(10_000)]
    result = frame.unique_dicts(rows)
    # reference: classic seen-set loop
    seen, expected = set(), []
    for row in rows:
        if row not in seen:
            seen.add(row)
            expected.append(frame.to_dict(row))
    assert result == expected
    assert len(result) == len({tuple(sorted(d.items())) for d in result})


# ---------------------------------------------------------------------- #
# explain counts

def test_explain_counts_renders_operator_rows():
    graph = _fanin_graph(members=5)
    text = 'where C(x), x -> "to" -> h, h -> "name" -> n create Probe()'
    plan = explain(text, graph, counts=True)
    assert "rows in" in plan and "rows out" in plan
    assert "collection scan C" in plan
    # the collection scan emits one row per member
    scan_line = next(line for line in plan.splitlines() if "collection scan" in line)
    assert " 5 " in scan_line


def test_explain_counts_requires_graph():
    with pytest.raises(ValueError):
        explain('where C(x) create Probe()', counts=True)


def test_stats_snapshot_direction_choice_is_consistent():
    """Fully-bound pairs answered under either direction choice agree
    with the reference (the optimizer picks by cardinality estimates)."""
    graph = _fanin_graph()
    stats = IndexStatistics.from_graph(graph)
    query = parse_query('where C(x), C(y), x -> "to"* -> y create Probe()')
    _check(graph, query.where, stats=stats)


def test_arc_variable_block_matches_row():
    graph = _fanin_graph(members=4)
    query = parse_query("where C(x), x -> l -> v create Probe()")
    _check(graph, query.where)


def test_oid_bound_arc_variable_yields_nothing():
    """An arc variable bound to an oid labels no edge: no rows."""
    graph = Graph()
    a = graph.add_node()
    b = graph.add_node()
    graph.add_edge(a, "n", b)
    query = parse_query("where x -> l -> v create Probe()")
    initial = [{"x": a, "l": a}]
    assert _check(graph, query.where, initial=initial) == []
