"""Open-loop HTTP load with from-due-time accounting.

Every request has a due time fixed before the run starts.  A connection
thread sends each request at its due time, or at once if it is already
late, and times it *from the due time*: when the server stalls, the
requests that should have gone out during the stall are charged the
wait too, instead of being silently sent later (coordinated omission).
How late the generator itself ran is recorded separately.

A request fails when no response arrives (connection error, timeout) or
the status is not 200; a shed request (503) is a failure like any other
and has no latency sample.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: response header carrying the page generation a response came from
GENERATION_HEADER = "X-Strudel-Generation"


def zipf_cum_weights(count: int, exponent: float) -> List[float]:
    """Cumulative Zipf weights for ranks 1..count (rank 1 hottest)."""
    total = 0.0
    cumulative: List[float] = []
    for rank in range(1, count + 1):
        total += 1.0 / rank ** exponent
        cumulative.append(total)
    return cumulative


def schedule(
    paths: Sequence[str],
    exponent: float,
    rate: float,
    start: float,
    end: float,
    rng: random.Random,
) -> List[Tuple[float, str]]:
    """(due, path) pairs at a fixed ``rate`` per second from ``start``
    (inclusive) to ``end`` (exclusive); paths drawn Zipf(``exponent``)
    over ``paths`` in the order given."""
    cumulative = zipf_cum_weights(len(paths), exponent)
    top = cumulative[-1]
    interval = 1.0 / rate
    out: List[Tuple[float, str]] = []
    index = 0
    while True:
        due = start + index * interval
        if due >= end:
            return out
        pick = bisect.bisect_left(cumulative, rng.random() * top)
        out.append((due, paths[min(pick, len(paths) - 1)]))
        index += 1


@dataclass
class Result:
    """One request.  Times are seconds since the run's origin."""

    due: float
    sent: float
    done: float
    path: str
    #: HTTP status, 0 when no response arrived
    status: int
    generation: int = 0
    #: sha256 of the body, kept for sampled responses only
    body_hash: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        """From due time to the last byte of the response."""
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        """How late the generator sent the request."""
        return (self.sent - self.due) * 1000.0


def drive(
    host: str,
    port: int,
    requests: Sequence[Tuple[float, str]],
    origin: float,
    sample_every: int = 0,
    timeout: float = 10.0,
    clock: Callable[[], float] = time.perf_counter,
) -> List[Result]:
    """Send ``requests`` over one keep-alive connection, each at its due
    time (relative to ``origin`` on ``clock``).  Every ``sample_every``-th
    response body is hashed for the output check."""
    results: List[Result] = []
    connection: Optional[HTTPConnection] = None
    for index, (due, path) in enumerate(requests):
        wait = origin + due - clock()
        if wait > 0:
            time.sleep(wait)
        sent = clock() - origin
        status = 0
        generation = 0
        body_hash = None
        try:
            if connection is None:
                connection = HTTPConnection(host, port, timeout=timeout)
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            status = response.status
            generation = int(response.getheader(GENERATION_HEADER) or 0)
            if sample_every and index % sample_every == 0:
                body_hash = hashlib.sha256(body).digest()
            if response.will_close:
                connection.close()
                connection = None
        except (OSError, HTTPException):
            if connection is not None:
                connection.close()
            connection = None
        results.append(
            Result(due, sent, clock() - origin, path, status, generation, body_hash)
        )
    if connection is not None:
        connection.close()
    return results


def latencies_ms(results: Sequence[Result]) -> List[float]:
    """Latency samples of the successful requests."""
    return [result.latency_ms for result in results if result.ok]


def failures(results: Sequence[Result]) -> int:
    return sum(1 for result in results if not result.ok)


def visible_s(
    results: Sequence[Result], submitted: Sequence[float], first_generation: int
) -> List[Optional[float]]:
    """Edit-to-visible time of each edit.  The n-th edit (submitted at
    ``submitted[n]``, seconds since the origin) publishes generation
    ``first_generation + n``; it is visible from the first successful
    response of that generation or a later one.  None marks an edit
    whose generation was never served."""
    first_seen: Dict[int, float] = {}
    for result in results:
        if result.ok:
            seen = first_seen.get(result.generation)
            if seen is None or result.done < seen:
                first_seen[result.generation] = result.done
    out: List[Optional[float]] = []
    for index, at in enumerate(submitted):
        target = first_generation + index
        times = [done for generation, done in first_seen.items() if generation >= target]
        out.append(min(times) - at if times else None)
    return out
