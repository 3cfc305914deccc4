"""The benchmark's `--trace 1` mode wraps library names from the outside
(bench/tracer.py).  This runs its tracer on one small request, so a change
that removes or renames something it looks up fails here and not only
inside a benchmark run."""

import importlib
import sys
from pathlib import Path

from ntcodes import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_traces_one_cli_request(capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    trace = tracer.Tracer()
    try:
        trace.install()
        assert cli.main(["macwilliams", "--r", "3", "--H", "1,2,0"]) == 0
    finally:
        trace.uninstall()
        tracer.assert_untraced()
    assert "verified:  True" in capsys.readouterr().out
    metrics = trace.layer_metrics()
    assert metrics["cli.requests"] == 1
    assert metrics["macwilliams.code_words"] == 9
    calls = metrics["exactalg.cyc_to_integer.calls"]
    assert calls > 0 and metrics["exactalg.cyc_to_integer.order_sum"] == 3 * calls
