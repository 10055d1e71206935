"""Helpers shared by every workload: statistics, digests, memory, the
reference loop that measures the machine's speed, and the result line.

Nothing here imports the program under test, so the self-tests can run
these helpers alone.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import resource
import statistics
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: publications of the serve-zipf site
SERVE_PUBS = 250

#: entries in the reference loop's dict
TABLE_SIZE = 10_000
#: thread CPU time (ms) of one reference loop at the reference speed;
#: every end-to-end time is reported at this speed
REFERENCE_MS = 25.0

#: percentiles a tail can be reported at, highest first
TAIL_CANDIDATES = ("99.9", "99", "95", "90", "50")
#: samples that must lie beyond a percentile before it may be reported
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(percent: Fraction, count: int) -> int:
    """Nearest-rank position (1-based) of a percentile in ``count``
    ascending samples."""
    return max(1, math.ceil(percent * count / 100))


def percentile(sorted_samples: Sequence[float], percent: str) -> float:
    """Nearest-rank percentile of ascending-sorted samples."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    return float(sorted_samples[_rank(Fraction(percent), len(sorted_samples)) - 1])


def samples_beyond(percent: str, count: int) -> int:
    """How many of ``count`` samples lie above the nearest-rank
    percentile (exact arithmetic: no float rounding at the edges)."""
    return count - _rank(Fraction(percent), count)


def tail_percentile(count: int) -> Optional[str]:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond
    it, or None when even the median has fewer."""
    for percent in TAIL_CANDIDATES:
        if samples_beyond(percent, count) >= MIN_BEYOND:
            return percent
    return None


def summarize(samples_ms: Iterable[float]) -> Dict[str, object]:
    """Median and the highest reportable tail, with the sample count."""
    ordered = sorted(samples_ms)
    out: Dict[str, object] = {"n": len(ordered)}
    if not ordered:
        return out
    out["p50"] = round(median(ordered), 6)
    tail = tail_percentile(len(ordered))
    if tail is not None and tail != "50":
        out[f"p{tail}"] = round(percentile(ordered, tail), 6)
    return out


def page_digest(pages: Mapping[str, str]) -> str:
    """Order-independent digest of a page set (name and bytes)."""
    digest = hashlib.sha256()
    for name in sorted(pages):
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(pages[name].encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference_loop() -> int:
    """Integer arithmetic, then string formatting and lookups in a dict
    of ``TABLE_SIZE`` entries.  Neither half allocates an object the
    cyclic collector tracks, so the program's heap does not change its
    cost."""
    total = 0
    for index in range(150_000):
        total += index * index % 7
    table = {}
    for index in range(TABLE_SIZE):
        table[f"key{index}"] = index
    for index in range(2 * TABLE_SIZE):
        total += table[f"key{index * 7919 % TABLE_SIZE}"]
    return total


def reference_ms() -> float:
    """Thread CPU time (ms) of one reference loop: how fast the machine
    runs Python right now.  Time spent waiting for the CPU or for the
    GIL does not count."""
    started = time.thread_time()
    _reference_loop()
    return (time.thread_time() - started) * 1000.0


def calibrate(repeats: int = 5) -> float:
    """Median of ``repeats`` reference loops (ms)."""
    return median([reference_ms() for _ in range(repeats)])


def at_reference_speed(elapsed: float, loop_ms: float) -> float:
    """``elapsed`` (any unit), measured while the reference loop took
    ``loop_ms``, scaled to the reference speed (``REFERENCE_MS``).

    The host this benchmark was written on changes speed by up to about
    a factor of two from one stretch of seconds or minutes to the next,
    and a build and the reference loop timed next to it slow down
    together.  Scaling takes the machine's phase out of a time; a change
    in the program still moves it in full, since the loop runs none of
    the program."""
    return elapsed * REFERENCE_MS / loop_ms


class SpeedTrack:
    """Reference loops timed through a run, as ``(time, ms)`` pairs on
    the ``time.perf_counter`` clock, which on Linux is CLOCK_MONOTONIC
    and so shared by every process of the run."""

    def __init__(self, samples: Iterable[Tuple[float, float]]) -> None:
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("no reference loop was timed")
        self.times: List[float] = [at for at, _ in ordered]
        self.loops_ms: List[float] = [ms for _, ms in ordered]

    def loop_ms_at(self, at: float) -> float:
        """The reference loop timed nearest to ``at``."""
        index = bisect.bisect_left(self.times, at)
        if index == len(self.times) or (
            index > 0 and at - self.times[index - 1] <= self.times[index] - at
        ):
            index -= 1
        return self.loops_ms[index]

    def loop_ms_over(self, start: float, end: float) -> float:
        """Mean of the reference loops timed from ``start`` to ``end``,
        or the one nearest to the middle when none was."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        if low < high:
            return statistics.fmean(self.loops_ms[low:high])
        return self.loop_ms_at((start + end) / 2.0)

    def scale(self, elapsed: float, start: float, end: float) -> float:
        """``elapsed``, measured from ``start`` to ``end``, at reference
        speed."""
        return at_reference_speed(elapsed, self.loop_ms_over(start, end))


class CheckFailed(Exception):
    """An output check failed: the run is aborted and reported incorrect."""


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def print_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, object]]
) -> None:
    """The result line: always the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            },
            sort_keys=True,
        ),
        flush=True,
    )
