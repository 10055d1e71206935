"""Times the reference loop while serve-zipf's load runs.

A process of its own, so that it takes the GIL from neither the load
generator nor the server: it times one reference loop (a few
milliseconds of CPU) every ``INTERVAL`` seconds until its standard input
closes, then prints one JSON list of ``[time, ms]`` pairs, ``time`` being
``time.perf_counter()`` at the loop's middle.  Started and stopped by
``serve.py``.
"""

from __future__ import annotations

import json
import select
import sys
import time

from common import reference_ms

INTERVAL = 0.5


def main() -> int:
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL)
        if ready and not sys.stdin.readline():
            break
        started = time.perf_counter()
        loop_ms = reference_ms()
        samples.append([(started + time.perf_counter()) / 2.0, loop_ms])
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
