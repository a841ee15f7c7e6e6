"""Reference task: a fixed piece of work shaped like the pipeline.

    python3 perfbench/reference.py

Reads one line per request on stdin, runs the task and answers with the
seconds it took, until stdin closes. The benchmark runs it between the
stage children. A shared host's speed drifts by tens of percent over tens
of seconds, so a run's wall times follow the host as much as the program.
The task never changes, so a child's wall time divided by the task's time
next to it is the child's time at a fixed host speed.

It runs in its own process because a child started from a large process
inherits that process's peak RSS, which would hide the stages' own peaks.
"""

import csv
import io
import sys
import time

import numpy as np


def reference_task() -> float:
    """CSV text parsed into many small Python objects, then a row-wise
    numpy recurrence on a small matrix; returns the seconds taken."""
    start = time.monotonic()
    text = "\n".join(f"{i},{i % 97},{i * 7919 % 1000 / 10},{i * 31 % 100 / 3}"
                     for i in range(60000))
    rows = [(int(a), int(b), float(c), float(d))
            for a, b, c, d in csv.reader(io.StringIO(text))]
    sum(r[2] * r[3] for r in rows)
    acc = np.random.default_rng(0).random((120, 120))
    for _ in range(6):
        for i in range(1, 120):
            acc[i] += np.minimum(acc[i - 1], np.roll(acc[i - 1], 1))
    return time.monotonic() - start


def main() -> None:
    reference_task()   # warm-up: first-call allocations
    for _line in sys.stdin:
        print(reference_task(), flush=True)


if __name__ == "__main__":
    main()
