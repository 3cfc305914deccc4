"""One cycle of each benchmark workload (bench/workloads.py), checked
against the benchmark's own references (bench/reference.py): its transfer
count, or the other closed route, reaches every answer by a route the
program does not take, so the oracle's tally and the scans behind it, the
closed forms and theorem 1 are checked end to end."""

import importlib
import sys
from pathlib import Path

import pytest

from ntcodes import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: the `closed-forms` class buckets whose cardinalities have more digits than
#: `str` converts (ROADMAP item 1): they exit 2 on that limit until exact
#: output lands
PAST_THE_DIGIT_LIMIT = (" n=10080", " n=55440", " n=720720")


def _one_cycle(workload, capsys, monkeypatch):
    """Each request of the workload's first cycle at seed 0, with its
    exit code, stdout, stderr and the references' verdict."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    for req in workloads.generate(workload, 0, 1):
        # every request is plain: read off its flag table, never by argparse
        assert cli._read_plain(req["argv"]) is not None, req["argv"]
        code = cli.main(req["argv"])
        captured = capsys.readouterr()
        result = {"code": code, "out": captured.out}
        yield req, code, captured.err, reference.check(req, reference.reference(req), result)


def test_brute_force_cycle_matches_the_bench_references(capsys, monkeypatch):
    requests = list(_one_cycle("brute-force", capsys, monkeypatch))
    assert any("--method" in req["argv"] and "oracle" in req["argv"] for req, *_ in requests)
    for req, _, err, verdict in requests:
        assert verdict == "ok", (req["argv"], err)


@pytest.mark.parametrize("workload", ["closed-forms", "theorem1"])
def test_closed_route_cycles_match_the_bench_references(workload, capsys, monkeypatch):
    too_long = 0
    for req, code, err, verdict in _one_cycle(workload, capsys, monkeypatch):
        if req["cls"].endswith(PAST_THE_DIGIT_LIMIT):
            too_long += 1
            assert code == 2 and "Exceeds the limit (4300 digits)" in err, req["argv"]
        else:
            assert verdict == "ok", (req["argv"], err)
    assert too_long == (3 if workload == "closed-forms" else 0)
