"""The first cycles of each benchmark workload (bench/workloads.py), checked
against the benchmark's own references (bench/reference.py): its transfer
count, or the other closed route, reaches every answer by a route the
program does not take, so the oracle's tally and the scans behind it, the
closed forms and theorem 1 are checked end to end.  Theorem 1 runs two
cycles, so that its joins of kept passes are checked as well."""

import importlib
import sys
from pathlib import Path
from unittest import mock

import pytest

from ntcodes import cli, enumerators

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: the `closed-forms` class buckets whose cardinalities have more digits than
#: `str` converts (ROADMAP item 1): they exit 2 on that limit until exact
#: output lands
PAST_THE_DIGIT_LIMIT = (" n=10080", " n=55440", " n=720720")


#: the cycles run per workload: a second theorem 1 cycle joins passes the
#: first one kept, at moduli and residues of its own
CYCLES = {"brute-force": 1, "closed-forms": 1, "theorem1": 2}


def _cycles(workload, capsys, monkeypatch):
    """Each request of the workload's first `CYCLES` cycles at seed 0, with
    its exit code, stdout, stderr and the references' verdict."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    reference = importlib.import_module("reference")
    for req in workloads.generate(workload, 0, CYCLES[workload]):
        # every request is plain: read off its flag table, never by argparse
        assert cli._read_plain(req["argv"]) is not None, req["argv"]
        code = cli.main(req["argv"])
        captured = capsys.readouterr()
        result = {"code": code, "out": captured.out}
        yield req, code, captured.err, reference.check(req, reference.reference(req), result)


def test_brute_force_cycle_matches_the_bench_references(capsys, monkeypatch):
    requests = list(_cycles("brute-force", capsys, monkeypatch))
    assert any("--method" in req["argv"] and "oracle" in req["argv"] for req, *_ in requests)
    for req, _, err, verdict in requests:
        assert verdict == "ok", (req["argv"], err)


@pytest.mark.parametrize("workload", ["closed-forms", "theorem1"])
def test_closed_route_cycles_match_the_bench_references(workload, capsys, monkeypatch):
    too_long, requests = 0, 0
    with mock.patch.object(enumerators, "_exact_pass", wraps=enumerators._exact_pass) as exact_pass:
        for req, code, err, verdict in _cycles(workload, capsys, monkeypatch):
            requests += 1
            if req["cls"].endswith(PAST_THE_DIGIT_LIMIT):
                too_long += 1
                assert code == 2 and "Exceeds the limit (4300 digits)" in err, req["argv"]
            else:
                assert verdict == "ok", (req["argv"], err)
    assert too_long == (3 if workload == "closed-forms" else 0)
    if workload == "theorem1":
        # most requests join kept passes: fewer passes are built than requests made
        assert exact_pass.call_count < requests // 2
