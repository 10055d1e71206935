"""Layer spans recorded from outside the program.

The traced run replaces a handful of the program's public entry points
with thin wrappers that open a span around each call: its name, layer,
start, end and the span that caused it.  A layer's *self time* is its
span's duration minus the time its child spans cover, so the self times
of one operation add up to that operation's wall time exactly: the
operation itself is the root span (layer ``other``), whose self time is
everything no layer claimed, and the bookkeeping a wrapper does after
its span closed is charged to the layer ``trace``.

Stage-level calls are kept as span records and written out when the
run ends.  Hot calls (SQLite statements, HTTP request handling) are
*leaf* spans: they count toward self time like any other span but are
only aggregated per operation, never stored one by one.  A leaf called
outside any operation (a request on a server thread) keeps its
duration as a sample instead.

The tracer is installed only for the traced operations of a traced run
(:meth:`Tracer.installed`), so untraced operations run the program's
own code with no wrapper at all.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: layer name of the operation's root span: time no layer claimed
OTHER = "other"
#: layer charged with the wrappers' own after-call bookkeeping
TRACE = "trace"


class _Frame:
    __slots__ = ("span_id", "parent_id", "root_id", "name", "layer", "start",
                 "child", "self_times", "leaves")

    def __init__(self, span_id, parent, name, layer, start):
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else 0
        self.root_id = parent.root_id if parent is not None else span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.child = 0.0
        #: per-layer self time of the whole root operation, shared by
        #: every frame under one root
        self.self_times = (
            parent.self_times if parent is not None else defaultdict(float)
        )
        #: leaf name -> [calls, seconds] under the same root
        self.leaves = parent.leaves if parent is not None else {}


class Tracer:
    """Per-thread span stacks; finished root spans become operations."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: finished stage spans: (root, id, parent, name, layer, start, end)
        self.spans: List[Tuple] = []
        #: one record per finished non-leaf root span
        self.ops: List[Dict[str, object]] = []
        #: named samples (seconds): durations of leaves called outside
        #: any operation, and whatever the hooks record
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: counters the after-call hooks fill in
        self.counts: Counter = Counter()
        #: the program's counters object that call hooks may inject
        #: into entry points called without one
        self.metrics: object = None
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ #
    # spans

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), parent, name, layer, self.clock())
        stack.append(frame)
        return frame

    def end(self, frame: _Frame, hook: Optional[Callable[[], None]] = None) -> float:
        """Close ``frame``; returns its duration in seconds."""
        end = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        frame.self_times[frame.layer] += duration - frame.child
        overhead = 0.0
        if hook is not None:
            hook()
            overhead = self.clock() - end
            frame.self_times[TRACE] += overhead
        if stack:
            stack[-1].child += duration + overhead
        self.spans.append(
            (frame.root_id, frame.span_id, frame.parent_id, frame.name,
             frame.layer, frame.start, end)
        )
        if not stack:
            self.ops.append(
                {
                    "id": frame.span_id,
                    "name": frame.name,
                    "wall": duration,
                    "self": dict(frame.self_times),
                    "leaves": frame.leaves,
                }
            )
        return duration

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        """Account a leaf call that ran from ``start`` to ``end``: no span
        record, no children.  The bookkeeping itself is charged to the
        ``trace`` layer, not to the caller, so that a layer issuing many
        leaf calls is not billed for the tracer's own work."""
        duration = end - start
        stack = getattr(self._local, "stack", None)
        if not stack:
            with self._lock:
                self.samples[name].append(duration)
            return
        parent = stack[-1]
        parent.self_times[layer] += duration
        total = parent.leaves.get(name)
        if total is None:
            parent.leaves[name] = [1, duration]
        else:
            total[0] += 1
            total[1] += duration
        overhead = self.clock() - end
        parent.self_times[TRACE] += overhead
        parent.child += duration + overhead

    @contextmanager
    def span(self, name: str, layer: str = OTHER) -> Iterator[_Frame]:
        frame = self.begin(name, layer)
        try:
            yield frame
        finally:
            self.end(frame)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # ------------------------------------------------------------ #
    # wrapping the program's entry points

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        leaf: bool = False,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` with a span around every call.  ``before(frame, args,
        kwargs)`` runs inside the span and may rewrite ``kwargs``;
        ``after(result, args, kwargs)`` runs once the span has closed,
        charged to the ``trace`` layer.  A ``leaf`` call takes neither
        hook and must not call traced code."""
        tracer = self
        if leaf:
            clock = self.clock

            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.leaf(name, layer, start, clock())

            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin(name, layer)
            try:
                if before is not None:
                    before(frame, args, kwargs)
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end(frame)
                raise
            if after is None:
                tracer.end(frame)
            else:
                tracer.end(frame, lambda: after(result, args, kwargs))
            return result

        return traced

    def wrap_context(self, fn: Callable, name: str, layer: str) -> Callable:
        """Like :meth:`wrap` for a context-manager factory: the span
        covers the whole ``with`` block, body included."""
        tracer = self

        @functools.wraps(fn)
        @contextmanager
        def traced(*args, **kwargs):
            frame = tracer.begin(name, layer)
            try:
                with fn(*args, **kwargs) as value:
                    yield value
            finally:
                tracer.end(frame)

        return traced

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, installer: Callable[["Tracer"], None]) -> None:
        """Run ``installer``, which patches entry points via :meth:`patch`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        installer(self)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, installer: Callable[["Tracer"], None]) -> Iterator[None]:
        self.install(installer)
        try:
            yield
        finally:
            self.uninstall()

    # ------------------------------------------------------------ #

    def write(self, path: str) -> None:
        """Write every recorded span and leaf aggregate as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for root, span_id, parent, name, layer, start, end in self.spans:
                handle.write(json.dumps({
                    "trace": root, "span": span_id, "parent": parent,
                    "name": name, "layer": layer,
                    "start": start, "end": end,
                }) + "\n")
            for op in self.ops:
                for name, (calls, seconds) in sorted(op["leaves"].items()):
                    handle.write(json.dumps({
                        "trace": op["id"], "leaf": name, "calls": calls,
                        "seconds": seconds,
                    }) + "\n")
            for name, durations in sorted(self.samples.items()):
                handle.write(json.dumps({
                    "trace": 0, "samples": name, "calls": len(durations),
                    "seconds": sum(durations),
                }) + "\n")
