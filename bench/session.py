"""One benchmark session: a fresh interpreter that imports combanal.cli
from the checkout and answers a list of argv with ``cli.dispatch`` in a
closed loop with one client.

Usage: python3 bench/session.py ROOT TRACE < argv-list.json

Reads a JSON list of argv strings (split on whitespace) from stdin and
writes one JSON object to stdout: per request the exit code, latency,
stdout digest, stderr and the calibration loop's time around it, and,
with TRACE=1, the tracer's summary.  Only the dispatch call is timed;
digests and calibration happen after the clock stops.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import time
import traceback


def calibrate() -> int:
    """Nanoseconds for a fixed pure-Python loop, best of three: how fast
    this machine runs interpreted code right now."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter_ns()
        x = 0
        for i in range(3000):
            x += i * i % 7
        t = time.perf_counter_ns() - t0
        best = t if best is None else min(best, t)
    return best


def answer(cli, argv, out, err) -> int:
    """Dispatch one request with stdout and stderr captured; an exception
    that escapes ends the request as it would end the command: a traceback
    and exit code 1."""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.dispatch(argv)
        except Exception:
            traceback.print_exc()
            return 1


def main() -> int:
    root, trace = os.path.realpath(sys.argv[1]), sys.argv[2] == "1"
    sys.path.insert(0, os.path.join(root, "src"))
    import combanal
    from combanal import cli

    if not os.path.realpath(combanal.__file__).startswith(os.path.join(root, "src") + os.sep):
        print(f"combanal imported from {combanal.__file__}, not {root}/src", file=sys.stderr)
        return 3
    argvs = json.load(sys.stdin)
    request = functools.partial(answer, cli)
    tracer = None
    if trace:
        from tracer import REQUEST, Tracer
        from combanal import (compositions, divisors, exactcore, invariants, masterthm,
                              partitions, patterns, probelect, recreations)

        tracer = Tracer()
        tracer.install(
            [cli, compositions, divisors, exactcore, invariants, masterthm,
             partitions, patterns, probelect, recreations],
            exactcore.MultiPoly,
            cli.CommandResult,
        )
        request = tracer.wrap(request, REQUEST)

    clock = time.perf_counter_ns
    replies = []
    before = calibrate()
    for line in argvs:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        code = request(line.split(), out, err)
        t1 = clock()
        after = calibrate()
        text = out.getvalue().encode()
        replies.append([code, t1 - t0, hashlib.sha256(text).hexdigest(), len(text), err.getvalue(),
                        (before + after) / 2])
        before = after
    json.dump({"replies": replies, "trace": tracer.summary() if tracer else None}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
