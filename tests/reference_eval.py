"""A reference evaluator for STRUQL where-clauses, for tests only.

It is the oracle the query engine is checked against, so it is written
to be obviously correct rather than fast:

* conditions run in the order they are given -- no planner;
* the binding relation is a list of dicts, extended one binding at a
  time by nested loops;
* edges and nodes are read by full scans of ``graph.edges()`` and
  ``graph.nodes()``, collections by listing their members -- no index
  probe, no block operator, no plan cache or path memo;
* regular paths use the single-source searches of
  :mod:`repro.struql.paths`, with a freshly compiled automaton;
* equality coerces by :func:`repro.graph.atoms_equal`, the value model's
  definition, not by the engine's probe spellings.

The result is deduplicated, first occurrence first.  Under written
order and full scans (the engine's naive mode) the engine must produce
exactly this list; under any other plan or index mode, the same set.
"""

import operator
from typing import Dict, Iterator, List, Optional, Sequence

from repro.errors import StruqlEvaluationError
from repro.graph import Atom, AtomType, Oid, atoms_equal, compare_atoms
from repro.struql import builtins
from repro.struql.ast import (
    CollectionCond,
    ComparisonCond,
    Condition,
    Const,
    EdgeCond,
    NotCond,
    PathCond,
    PredicateCond,
    Var,
)
from repro.struql.paths import compile_path, targets_from

Binding = Dict[str, object]


def reference_bindings(
    graph, conditions: Sequence[Condition], initial: Optional[List[Binding]] = None
) -> List[Binding]:
    """The binding relation of ``conditions`` over ``graph``, seeded with
    ``initial`` (default: the one empty binding)."""
    rows = [dict(row) for row in (initial if initial is not None else [{}])]
    for condition in conditions:
        rows = [new for row in rows for new in _extend(graph, condition, row, conditions)]
    unique: Dict[frozenset, Binding] = {}
    for row in rows:
        unique.setdefault(frozenset(row.items()), row)
    return list(unique.values())


def _extend(graph, condition, row: Binding, siblings) -> Iterator[Binding]:
    if isinstance(condition, CollectionCond):
        yield from _collection(graph, condition, row)
    elif isinstance(condition, EdgeCond):
        yield from _edge(graph, condition, row)
    elif isinstance(condition, PathCond):
        yield from _path(graph, condition, row)
    elif isinstance(condition, ComparisonCond):
        yield from _comparison(condition, row)
    elif isinstance(condition, PredicateCond):
        yield from _predicate(condition, row)
    elif isinstance(condition, NotCond):
        yield from _negation(graph, condition, row, siblings)
    else:
        raise StruqlEvaluationError(f"unknown condition type: {condition!r}")


# ---------------------------------------------------------------------- #
# values


def _as_atom(value) -> Optional[Atom]:
    if isinstance(value, Atom):
        return value
    if isinstance(value, str):
        return Atom(AtomType.STRING, value)
    return None


def _equal(left, right) -> bool:
    """STRUQL equality: nodes by identity, atoms (and labels) coerced."""
    if isinstance(left, Oid) or isinstance(right, Oid):
        return left == right
    return atoms_equal(_as_atom(left), _as_atom(right))


def _same_label(bound, label: str) -> bool:
    """Does a bound arc variable denote ``label``?  A label or a string
    atom does when it spells it; a node never does."""
    if isinstance(bound, Oid):
        return False
    return _as_atom(bound).as_string() == label


def _bind(row: Binding, name: str, value, equal) -> bool:
    """Bind ``name`` to ``value`` in ``row``, or, if it is bound already,
    check that the bound value is ``equal`` to it."""
    if name in row:
        return equal(row[name], value)
    row[name] = value
    return True


def _term(term, row: Binding):
    """A term's value under ``row``: a constant's atom, a bound
    variable's value, or ``None`` for an unbound variable."""
    if isinstance(term, Const):
        return term.atom
    return row.get(term.name)


# ---------------------------------------------------------------------- #
# conditions


def _collection(graph, condition: CollectionCond, row: Binding) -> Iterator[Binding]:
    name = condition.var.name
    members = list(graph.collection(condition.collection))
    if name in row:
        if row[name] in members:
            yield row
        return
    for member in members:
        yield {**row, name: member}


def _edge(graph, condition: EdgeCond, row: Binding) -> Iterator[Binding]:
    for source, label, target in list(graph.edges()):
        new = dict(row)
        if not _bind(new, condition.source.name, source, operator.eq):
            continue
        if isinstance(condition.label, Var):
            if not _bind(new, condition.label.name, label, _same_label):
                continue
        elif label != condition.label:
            continue
        if isinstance(condition.target, Const):
            if not _equal(target, condition.target.atom):
                continue
        elif not _bind(new, condition.target.name, target, _equal):
            continue
        yield new


def _path(graph, condition: PathCond, row: Binding) -> Iterator[Binding]:
    nfa = compile_path(condition.path)
    nodes = list(graph.nodes())
    name = condition.source.name
    for start in [row[name]] if name in row else nodes:
        if start not in nodes:
            continue  # only a node starts a path
        new = {**row, name: start}
        reached = targets_from(graph, nfa, start)
        target = _term(condition.target, new)
        if target is not None:
            if any(_equal(end, target) for end in reached):
                yield new
            continue
        for end in reached:
            yield {**new, condition.target.name: end}


def _comparison(condition: ComparisonCond, row: Binding) -> Iterator[Binding]:
    left, right = _term(condition.left, row), _term(condition.right, row)
    if left is None and right is None:
        raise StruqlEvaluationError(f"comparison {condition} has no bound side")
    if left is None or right is None:
        if condition.op != "=":
            raise StruqlEvaluationError(
                f"order comparison {condition} requires both sides bound"
            )
        unbound = condition.left if left is None else condition.right
        yield {**row, unbound.name: right if left is None else left}
        return
    op = condition.op
    if op == "=":
        verdict = _equal(left, right)
    elif op == "!=":
        verdict = not _equal(left, right)
    elif _as_atom(left) is None or _as_atom(right) is None:
        verdict = False  # nodes are not ordered
    else:
        sign = compare_atoms(_as_atom(left), _as_atom(right))
        verdict = {"<": sign < 0, "<=": sign <= 0, ">": sign > 0, ">=": sign >= 0}[op]
    if verdict:
        yield row


def _predicate(condition: PredicateCond, row: Binding) -> Iterator[Binding]:
    if condition.var.name not in row:
        raise StruqlEvaluationError(f"predicate {condition} applied to unbound variable")
    predicate = builtins.object_predicate(condition.name)
    if predicate is None:
        raise StruqlEvaluationError(f"unknown predicate {condition.name!r}")
    value = row[condition.var.name]
    if predicate(Atom(AtomType.STRING, value) if isinstance(value, str) else value):
        yield row


def _negation(graph, condition: NotCond, row: Binding, siblings) -> Iterator[Binding]:
    outside = set()
    for sibling in siblings:
        if sibling is not condition and not isinstance(sibling, NotCond):
            outside |= sibling.variables()
    missing = sorted((condition.variables() & outside) - set(row))
    if missing:
        raise StruqlEvaluationError(
            f"negation {condition} checked before {missing} were bound"
        )
    if not reference_bindings(graph, list(condition.inner), initial=[row]):
        yield row
