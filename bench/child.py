"""One repetition of a workload, in a fresh interpreter.

    python3 bench/child.py TRACE CLI-ARGS...

Imports heptalab, optionally installs the tracer (TRACE is 0 or 1), then
runs ``heptalab.cli.main(CLI-ARGS)`` on the graph6 text arriving on stdin.
The CLI's records go to stdout unchanged, and the time each record is
written is noted; the last stdout line is this process's own record,
prefixed with ``#bench ``.  Started by run.py.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import heptalab.cli  # noqa: E402

from tracer import Tracer  # noqa: E402


class StampedStdout:
    """Stands in for stdout and notes when each output line is complete.

    Stamping at the write, rather than when the lines reach the reading
    process, keeps pipe wake-up delays and batched reads out of the
    per-graph times."""

    def __init__(self, out) -> None:
        self.out = out
        self.stamps = array("d")

    def write(self, text: str) -> int:
        written = self.out.write(text)
        if text.endswith("\n"):
            self.stamps.append(time.monotonic())
        return written

    def flush(self) -> None:
        self.out.flush()


def peak_rss_kb() -> int:
    """Peak resident memory of this process image, Linux's ``VmHWM``.
    ``ru_maxrss`` is not a substitute: it also counts the parent's memory at
    the fork, which exec carries over."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(trace: bool, argv: list[str]) -> None:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    real_stdout = sys.stdout
    sys.stdout = stamped = StampedStdout(real_stdout)
    t_first = time.monotonic()
    try:
        heptalab.cli.main(argv)
    finally:
        sys.stdout = real_stdout
    t_end = time.monotonic()
    # read before building this record, whose size grows with the input
    rss_kb = peak_rss_kb()
    record = {
        "t_first": t_first,
        "t_end": t_end,
        "peak_rss_kb": rss_kb,
        "stamps": stamped.stamps.tolist(),
        "trace": tracer.report() if tracer is not None else None,
    }
    print("#bench " + json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1] == "1", sys.argv[2:])
