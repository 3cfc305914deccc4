"""ntcodes benchmark: closed-loop CLI request mixes, checked and timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload closed-forms --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Workloads: ``closed-forms``, ``theorem1`` and ``brute-force`` (see
`workloads.py`).  The request list comes from the seed; the program sees
only the generated argv lists, which one client sends to
``ntcodes.cli.main`` in a fresh interpreter, each after the previous one
returned (`worker.py`).  No request is pre-run, so the library's caches
start empty and fill only from earlier, distinct requests of the pass.

``--trace 0`` measures set-up (the median of repeated fresh-interpreter
imports of ``ntcodes`` and ``ntcodes.cli``), then runs a fixed number of
whole workload cycles, as many as take about ``--seconds`` at the rates in
`CYCLES_PER_S`, and reports the end-to-end metrics.  Every time is scaled
to a reference machine speed by a probe that runs between requests
(`speed.py`); the unscaled figures are in the report.  Throughput is the
correct requests over the pass's time in requests.  ``--trace 1`` runs a
fixed number of cycles (one per ten seconds of ``--seconds``) with every
layer wrapped (`tracer.py`), replays the same requests untraced in another
fresh interpreter to get the tracing overhead, and reports the per-layer
metrics.  Outputs are checked against references outside the timed region
(`reference.py`).  Lines starting with ``#`` are the report: environment,
per-request-class rows, and the full metric set; the last line is the JSON
result.  ``correct`` is false when any request printed a wrong answer;
``failed`` also counts refused and crashed requests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: per-layer metrics reported as results; the report line carries the rest
PER_LAYER = {
    "cli.self_s": "s",
    "cli.requests": "count",
    "numtheory.calls": "count",
    "numtheory.self_s": "s",
    "exactalg.cyc_mul.calls": "count",
    "exactalg.cyc_add.calls": "count",
    "exactalg.cyc_to_integer.calls": "count",
    "exactalg.cyc_to_integer.order_sum": "count",
    "exactalg.cyc_to_integer.self_s": "s",
    "exactalg.cyclotomic_polynomial.calls": "count",
    "exactalg.multipoly_mul.calls": "count",
    "qcalc.q_multinomial.calls": "count",
    "qcalc.q_binomial.calls": "count",
    "codes.words_scanned": "count",
    "codes.codewords_yielded": "count",
    "codes.yield_ratio": "ratio",
    "codes.self_s": "s",
    "enumerators.full_space_terms": "count",
    "enumerators.full_space_form.product": "count",
    "enumerators.full_space_form.descent_sum": "count",
    "enumerators.full_space_form.enumeration": "count",
    "enumerators.extract_kept_ratio": "ratio",
    "enumerators.route.oracle": "count",
    "enumerators.route.character_sum": "count",
    "enumerators.route.closed_form": "count",
    "macwilliams.code_words": "count",
    "trace.overhead_ratio": "ratio",
}
SETUP_SAMPLES = 15
#: whole cycles per second of --seconds: at the reference speed of
#: `speed.py` a pass takes about 0.65 x --seconds, and about --seconds at
#: the 1.5-fold slowdown usual on a shared 2-vCPU Xeon VM.  A pass is fixed
#: work, so a faster commit runs a shorter pass instead of more cycles with
#: warmer caches.
CYCLES_PER_S = {"closed-forms": 0.167, "theorem1": 0.135, "brute-force": 0.167}
#: a slow machine ends the pass early, after this many times --seconds
PASS_LIMIT = 1.15
#: the traced run takes one cycle per this many seconds of --seconds
TRACE_SECONDS_PER_CYCLE = 10
WORKER_TIMEOUT_S = 150
RESULT_FIELDS = ("code", "out", "err", "exc", "wall", "latency")


def _worker(requests, cycle: int, trace: bool, limit=None) -> dict:
    argvs = [r["argv"] for r in requests]
    job = {"src": str(SRC), "requests": argvs, "cycle": cycle, "limit": limit, "trace": trace}
    proc = subprocess.run(
        [sys.executable, "-I", str(BENCH / "worker.py")],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    run = json.loads(proc.stdout)
    run["results"] = [dict(zip(RESULT_FIELDS, r)) for r in run["results"]]
    run["wall"] = run["marks"][-1] - run["marks"][0]
    return run


def measure_setup() -> tuple[float, list[float]]:
    """Median seconds to import ntcodes and ntcodes.cli in a fresh
    interpreter, scaled to the reference speed by probes taken just before
    and just after the import."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import speed\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "probes = speed.Probes()\n"
        "t = time.perf_counter()\n"
        "import ntcodes, ntcodes.cli\n"
        "end = time.perf_counter()\n"
        "probes.take()\n"
        "print(repr((end - t) * speed.REFERENCE_S / ((probes.secs[0] + probes.secs[1]) / 2)))\n"
    )
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60, check=True
        )
        if i:  # the first import may compile bytecode; it is a warm-up
            times.append(float(proc.stdout))
    return statistics.median(times), times


def classify(requests, *passes) -> tuple[list[list[str]], dict]:
    """Outcome of every result of each pass against one reference per
    request, and the reference routes used per request class."""
    refs = [reference.reference(req) for req in requests]
    routes: dict = {}
    for req, ref in zip(requests, refs):
        routes.setdefault(req["cls"], set()).add(ref["route"])
    outcomes = [[reference.check(*args) for args in zip(requests, refs, results)] for results in passes]
    return outcomes, routes


def environment(workload: str, seed: int, requests) -> dict:
    counts: dict = {}
    for req in requests:
        counts[req["cls"]] = counts.get(req["cls"], 0) + 1
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "requests_per_class": dict(sorted(counts.items())),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def class_rows(requests, results, outcomes, routes) -> list[str]:
    """One diagnostic row per subcommand x family x route (not gated)."""
    groups: dict = {}
    for req, res, outcome in zip(requests, results, outcomes):
        groups.setdefault(req["cls"], []).append((res, outcome))
    rows = []
    for cls, items in sorted(groups.items()):
        lat = [res["latency"] for res, _ in items]
        failures = [res for res, outcome in items if outcome != "ok"]
        row = (
            f"# class {cls!r}: count={len(items)} median_ms={statistics.median(lat) * 1e3:.3f} "
            f"max_ms={max(lat) * 1e3:.3f} failed={len(failures)} reference={'+'.join(sorted(routes[cls]))}"
        )
        if failures:
            first = failures[0]
            detail = first["exc"] or first["err"].strip() or f"exit {first['code']}"
            row += f" first_failure={detail[:120]!r}"
        rows.append(row)
    return rows


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(workload: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    cycle = len(workloads.SLOTS[workload])
    requests = workloads.generate(workload, seed, max(1, round(CYCLES_PER_S[workload] * seconds)))
    setup, setup_times = measure_setup()
    run = _worker(requests, cycle, trace=False, limit=PASS_LIMIT * seconds)
    results = run["results"]
    done = requests[: len(results)]
    (outcomes,), routes = classify(done, results)
    ok = outcomes.count("ok")
    latencies = [r["latency"] for r in results]
    per_cycle = [
        outcomes[i : i + cycle].count("ok") / sum(latencies[i : i + cycle]) for i in range(0, len(results), cycle)
    ]
    walls = [r["wall"] for r in results]
    metrics = {
        "throughput_rps": _metric(ok / sum(latencies), "req/s"),
        "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": _metric(statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "ok_ratio": _metric(ok / len(results), "ratio"),
        "peak_rss_mb": _metric(run["peak_rss_kb"] / 1024, "MB"),
        "setup_s": _metric(setup, "s"),
    }
    report = [f"# env {json.dumps(environment(workload, seed, done))}"]
    report += class_rows(done, results, outcomes, routes)
    report.append(
        f"# samples: requests={len(results)} cycles={len(per_cycle)} wall_s={run['wall']:.3f} "
        f"setup_samples={len(setup_times)} "
        f"p90_valid={len(results) >= 100} failed={len(results) - ok} "
        f"fail_ratio={(len(results) - ok) / len(results):.6f}"
    )
    report.append(
        f"# unscaled wall: throughput_rps={ok / run['wall']:.3f} "
        f"latency_p50_ms={statistics.median(walls) * 1e3:.3f} "
        f"latency_p90_ms={statistics.quantiles(walls, n=10, method='inclusive')[-1] * 1e3:.3f} "
        f"slowdown={sum(walls) / sum(latencies):.3f} x reference"
    )
    report.append("# per-cycle throughput_rps " + " ".join(f"{v:.3f}" for v in per_cycle))
    if len(done) < len(requests):
        report.append(f"# warning: the pass stopped after {PASS_LIMIT} x --seconds, short of its cycles")
    return _result(metrics, outcomes), report


def run_traced(workload: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    cycle = len(workloads.SLOTS[workload])
    requests = workloads.generate(workload, seed, max(1, round(seconds / TRACE_SECONDS_PER_CYCLE)))
    traced = _worker(requests, cycle, trace=True)
    plain = _worker(requests, cycle, trace=False)
    (outcomes, plain_outcomes), routes = classify(requests, traced["results"], plain["results"])
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = _busy(traced) / _busy(plain)
    metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    library = {k: v for k, v in traced["layer_self_s"].items() if k != "cli"}
    total = sum(library.values()) or 1.0
    report = [f"# env {json.dumps(environment(workload, seed, requests))}"]
    report += class_rows(requests, traced["results"], outcomes, routes)
    report.append(f"# layers {json.dumps(layers, sort_keys=True)}")
    report.append(
        "# library self-time shares "
        + json.dumps({k: round(v / total, 4) for k, v in library.items()})
        + f" of {total:.3f} s; cli self {traced['layer_self_s']['cli']:.3f} s"
    )
    report.append(
        f"# samples: requests={len(requests)} traced_wall_s={traced['wall']:.3f} "
        f"untraced_wall_s={plain['wall']:.3f}"
    )
    return _result(metrics, outcomes, plain_outcomes), report


def _busy(run) -> float:
    """Seconds a pass spent in requests, at the reference speed."""
    return sum(r["latency"] for r in run["results"])


def _result(metrics, outcomes, replayed=()) -> dict:
    """The result line; `replayed` holds the untraced replay's outcomes,
    which count only towards `correct`."""
    return {
        "correct": "wrong" not in outcomes and "wrong" not in replayed,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o != "ok"),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# self-test of the harness


def self_test() -> int:
    """Tiny runs: every metric is emitted with the unit BENCHMARK.json gives
    it, and the checker flags a corrupted captured output.  The traced run
    also proves that the tracer restores every original (the worker fails
    otherwise)."""
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared_e2e != END_TO_END or declared_layer != PER_LAYER:
        problems.append("BENCHMARK.json metric names or units differ from the harness")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.SLOTS):
        problems.append("BENCHMARK.json workloads differ from the harness")
    for workload in workloads.SLOTS:
        requests = workloads.generate(workload, 0, 1)[:6]
        if requests != workloads.generate(workload, 0, 1)[:6]:
            problems.append(f"{workload}: the same seed gave different requests")
        run = _worker(requests, len(requests), trace=False)
        (outcomes,), _ = classify(requests, run["results"])
        if "wrong" in outcomes:
            problems.append(f"{workload}: reference disagrees on {outcomes}")
        good = next(i for i, o in enumerate(outcomes) if o == "ok")
        corrupted = dict(run["results"][good])
        corrupted["out"] = _corrupt(corrupted["out"])
        ref = reference.reference(requests[good])
        if reference.check(requests[good], ref, corrupted) != "wrong":
            problems.append(f"{workload}: a corrupted output passed the checker")
    for workload, trace, declared in (("closed-forms", False, END_TO_END), ("closed-forms", True, PER_LAYER)):
        result, _ = (run_traced if trace else run_untraced)(workload, 0, 1)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        if emitted != declared:
            problems.append(f"{workload} trace={int(trace)}: emitted {sorted(emitted)}")
    for line in problems:
        print(f"self-test: FAIL {line}")
    print(f"self-test: {'FAIL' if problems else 'ok'}")
    return 1 if problems else 0


def _corrupt(text: str) -> str:
    """Change the first digit of a captured output, never the library."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1 :]
    return text + "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SLOTS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "ntcodes" / "__init__.py").is_file():
        print(f"error: no ntcodes package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.set_int_max_str_digits(0)  # references may be printed-size integers
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    start = time.perf_counter()
    runner = run_traced if args.trace else run_untraced
    result, report = runner(args.workload, args.seed, args.seconds)
    report.append(f"# benchmark wall {time.perf_counter() - start:.1f} s")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
