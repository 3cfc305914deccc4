"""One closed-loop pass of CLI requests in a fresh interpreter.

Reads a job from stdin as JSON: ``src`` (the directory holding the
``ntcodes`` package), ``requests`` (argv lists, whole workload cycles),
``cycle`` (requests per cycle), ``limit`` (seconds after which no new
cycle starts, or null) and ``trace``.  One client in one
thread calls ``ntcodes.cli.main(argv)`` in-process, sending each request
only after the previous one returned, with stdout and stderr captured.
Between requests, outside their timed spans, a speed probe runs every
`speed.EVERY_S` seconds (`speed.py`).  Writes one JSON object to stdout:
the per-request results, the cycle start times, the process's peak RSS
and, when traced, the per-layer numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402


def run_pass(main, requests, cycle, limit):
    """Run every request, but start no new cycle once `limit` seconds (if
    not None) have passed.  Returns per-request results as (exit code,
    stdout, stderr tail, uncaught exception, wall latency, latency scaled
    to the reference speed) and the start time of every cycle plus the end
    of the pass."""
    results, marks, spans = [], [], []
    clock = time.perf_counter
    probes = speed.Probes()
    for i, argv in enumerate(requests):
        if probes.due():
            probes.take()
        if i % cycle == 0:
            marks.append(clock())
            if limit is not None and marks[-1] - marks[0] >= limit:
                break
        out, err = io.StringIO(), io.StringIO()
        exc = None
        start = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:  # argparse rejects an argv with exit 2
                code = stop.code if isinstance(stop.code, int) else 2
            except Exception as error:  # a crash is recorded as a failed request
                code, exc = None, f"{type(error).__name__}: {error}"
        end = clock()
        spans.append((start, end))
        results.append([code, out.getvalue(), err.getvalue()[-300:], exc, end - start])
    else:
        marks.append(clock())
    probes.take()
    for result, (start, end) in zip(results, spans):
        result.append((end - start) * probes.scale(start, end))
    return results, marks


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import ntcodes.cli

    import tracer as tracing

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    else:
        tracing.assert_untraced()
    results, marks = run_pass(ntcodes.cli.main, job["requests"], job["cycle"], job["limit"])
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = {"results": results, "marks": marks, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        report["layer_self_s"] = tracer.layer_self_seconds()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
