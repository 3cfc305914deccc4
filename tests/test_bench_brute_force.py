"""One cycle of the benchmark's `brute-force` workload (bench/workloads.py),
checked against the benchmark's own references (bench/reference.py): its
transfer count reaches every answer by a route the program does not take,
so the oracle's tally and the scans behind it are checked end to end."""

import importlib
import sys
from pathlib import Path

from ntcodes import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_brute_force_cycle_matches_the_bench_references(capsys, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    requests = workloads.generate("brute-force", 0, 1)
    assert any("--method" in req["argv"] and "oracle" in req["argv"] for req in requests)
    for req in requests:
        code = cli.main(req["argv"])
        captured = capsys.readouterr()
        result = {"code": code, "out": captured.out}
        assert reference.check(req, reference.reference(req), result) == "ok", (req["argv"], captured.err)
