import argparse
import ast
import contextlib
import csv
import functools
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ntcodes.cli
import ntcodes.codes
import ntcodes.macwilliams
import ntcodes.numtheory
from ntcodes.cli import VARIANTS, _family_params, build_parser, main
from ntcodes.codes import FAMILIES
from ntcodes.enumerators import _descent_sum_hamming, enumerator_from_dict, tenengolts_cardinality, tenengolts_hamming


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_card_examples(capsys):
    code, out, _ = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "1", "--a2", "0")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "card", "tenengolts", "--n", "1", "--r", "4", "--a1", "0", "--a2", "2")
    assert code == 0 and out.strip() == "1"


def test_enum_examples(capsys):
    code, out, _ = run(
        capsys, "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0", "--kind", "hamming"
    )
    assert code == 0 and out.strip() == "1 + 2*w^2 + 2*w^3"
    code, out, _ = run(
        capsys, "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0", "--kind", "complete"
    )
    assert code == 0 and out.strip() == "w0^3 + 2*w0*w1*w2 + w1^3 + w2^3"
    code, out, _ = run(
        capsys, "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0", "--kind", "extended"
    )
    assert code == 0
    assert out.strip() == "w0^3 + z2^3*w0*w1*w2 + z2^3*w1^3 + z1^3*z2^3*w0*w1*w2 + z2^6*w2^3"
    code, out, _ = run(
        capsys, "enum", "lc", "--n", "4", "--m", "5", "--r", "2", "--h", "1,2,3,4", "--a", "0", "--kind", "hamming"
    )
    assert code == 0 and out.strip() == "1 + 2*w^2 + w^4"


def test_enum_methods_agree(capsys):
    outputs = set()
    for method in ("auto", "theorem1", "oracle"):
        code, out, _ = run(
            capsys,
            "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "2", "--a2", "1",
            "--kind", "hamming", "--method", method,
        )
        assert code == 0
        outputs.add(out.strip())
    assert len(outputs) == 1


def test_enum_json_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0",
        "--kind", "hamming", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["cardinality"] == "5"
    assert enumerator_from_dict(data).poly == tenengolts_hamming(3, 3, 0, 0).poly


def test_card_json_holds_the_text_cardinality(capsys):
    argv = ("card", "tenengolts", "--n", "7", "--r", "4", "--a1", "3", "--a2", "2", "--variant", "<=")
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out) == {"cardinality": text.strip()}


def _wrong_hamming(spec, variant):
    # the descent/sum Hamming polynomial that `compute` asks for, wrong at a1 = 0, a2 = 1
    from ntcodes.exactalg import MultiPoly

    if tuple(c.a for c in spec.constraints) == (0, 1):
        return MultiPoly(("w",), {(0,): 999})
    return _descent_sum_hamming(spec, variant)


@pytest.mark.parametrize(
    "argv, wrong",
    [
        (("verify", "--family", "sc", "--count", "5", "--seed", "3"), False),
        (("verify", "--family", "tenengolts", "--max-n", "2", "--max-r", "2"), True),
    ],
    ids=["sc", "tenengolts_mismatches"],
)
def test_verify_json_lists_the_text_checks(capsys, monkeypatch, argv, wrong):
    if wrong:
        monkeypatch.setattr("ntcodes.enumerators._descent_sum_hamming", _wrong_hamming)
    text_code, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == text_code == (1 if wrong else 0)
    data = json.loads(out)
    *lines, summary = text.splitlines()
    assert [f"{'ok' if c['ok'] else 'MISMATCH'} {c['check']}" for c in data["checks"]] == lines
    assert summary == f"summary: {len(lines)} checks, {data['mismatches']} mismatches"
    assert data["mismatches"] == sum(not c["ok"] for c in data["checks"]) == (8 if wrong else 0)


def test_enum_csv(capsys):
    code, out, _ = run(
        capsys,
        "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0",
        "--kind", "hamming", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,coefficient"
    assert lines[1:] == ["0,1", "2,2", "3,2"]


@pytest.mark.parametrize(
    "argv, header",
    [
        (("enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0"), ["w", "coefficient"]),
        (("card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0"), ["cardinality"]),
        # its labels hold commas: "stats=gamma_gt,omega,sigma"
        (("verify", "--family", "sc", "--count", "4"), ["check", "status"]),
        (("macwilliams", "--r", "2", "--H", "1,1"), ["field", "value"]),
        (("macwilliams", "--r", "2", "--H", "0,0"), ["field", "value"]),
    ],
    ids=["enum", "card", "verify", "macwilliams", "macwilliams_rank_deficient"],
)
def test_csv_parses_into_rows_of_the_header_width(capsys, argv, header):
    # a header then data rows, each as wide as the header (one column for a
    # cardinality, two elsewhere), every line ended by a bare newline
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0 and "\r" not in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == header and len(rows) > 1
    assert all(len(row) == len(header) for row in rows)
    if argv[0] == "card":
        assert rows[1:] == [["5"]]
    if argv[0] == "verify":
        assert any("," in label for label, _ in rows[1:])
        assert {status for _, status in rows[1:]} == {"ok"}
    if argv[-1] == "0,0":
        # a skipped right side still prints as None
        assert dict(rows[1:])["right"] == "None"


def test_verify_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "tenengolts", "--max-n", "3", "--max-r", "3"
    )
    assert code == 0
    assert "MISMATCH" not in out
    assert "summary:" in out
    # every checked tuple is listed
    assert "tenengolts n=3 r=3 a1=2 a2=2 variant=<=" in out


def test_verify_all_families_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--max-n", "3", "--max-r", "2", "--count", "2", "--seed", "1"
    )
    assert code == 0
    for token in ("tenengolts", "lc", "blc", "sc", "macwilliams"):
        assert token in out


def test_verify_mismatch_exits_nonzero(capsys, monkeypatch):
    from ntcodes.exactalg import MultiPoly

    def wrong(spec, variant):
        return MultiPoly(("w",), {(0,): 999})

    monkeypatch.setattr("ntcodes.enumerators._descent_sum_hamming", wrong)
    code, out, _ = run(capsys, "verify", "--family", "tenengolts", "--max-n", "2", "--max-r", "2")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "tenengolts", "--max-n", "0"),
        ("verify", "--family", "lc", "--count", "0"),
        ("verify", "--family", "lc", "--max-n", "0"),
        ("verify", "--family", "lc", "--max-m", "0"),
        ("verify", "--family", "blc", "--max-n", "0"),
        ("verify", "--family", "sc", "--max-n", "1"),
        ("verify", "--family", "sc", "--max-m", "0"),
        ("verify", "--family", "macwilliams", "--max-n", "0"),
        ("verify", "--family", "all", "--max-n", "0"),
    ],
)
def test_verify_empty_sweep_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "selected no checks" in err and "unknown" not in err


@pytest.mark.parametrize("family", ["tenengolts", "lc", "all"])
def test_verify_negative_count_is_a_usage_error(capsys, family):
    code, out, err = run(capsys, "verify", "--family", family, "--count", "-3")
    assert (code, out, err) == (2, "", "error: the count must be non-negative, got -3\n")


@pytest.mark.parametrize("family, max_n", [("lc", 1), ("blc", 1), ("sc", 2), ("macwilliams", 1), ("macwilliams", 2)])
def test_verify_draws_stay_within_their_bounds(capsys, family, max_n):
    code, out, _ = run(capsys, "verify", "--family", family, "--max-n", str(max_n), "--max-m", "1", "--count", "5")
    labels = out.splitlines()[:-1]
    assert code == 0 and len(labels) == 5
    for label in labels:
        assert int(re.search(r" n=(\d+)", label)[1]) <= max_n
        m = re.search(r" m=(\d+)", label)
        assert m is None or int(m[1]) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_all_keeps_its_draws_labels_and_order(capsys, seed):
    # the text of the default sweep before its checks went through `compute`
    golden = Path(__file__).resolve().parent / "golden" / f"verify_all_seed{seed}.txt"
    assert run(capsys, "verify", "--family", "all", "--seed", str(seed)) == (0, golden.read_text(), "")


def test_cli_binds_no_route_function():
    # every route is picked by `compute`; the CLI names none of them, nor
    # any runner of its route table
    import ntcodes.cli
    from ntcodes import enumerators

    routes = ("tenengolts_hamming", "tenengolts_cardinality", *(run.__name__ for *_, run in enumerators._ROUTES))
    assert not [name for name in routes if hasattr(ntcodes.cli, name)]


def test_verify_deterministic_given_seed(capsys):
    _, first, _ = run(capsys, "verify", "--family", "sc", "--count", "3", "--seed", "42")
    _, second, _ = run(capsys, "verify", "--family", "sc", "--count", "3", "--seed", "42")
    assert first == second


def test_verify_sc_builds_every_full_space_by_transfer(capsys, monkeypatch):
    # each check's theorem 1 runs one exact pass, over every position or
    # split in two halves, and scans nothing: the only scans are the
    # oracle's, one per check
    from ntcodes import enumerators

    passes, scans = [], []
    exact_pass, scan_terms = enumerators._exact_pass, enumerators._scan_terms

    def recording_pass(*args):
        passes.append(args[:2])
        return exact_pass(*args)

    def recording_scan(*args):
        scans.append(args[0])
        return scan_terms(*args)

    monkeypatch.setattr(enumerators, "_exact_pass", recording_pass)
    monkeypatch.setattr(enumerators, "_scan_terms", recording_scan)
    code, out, _ = run(capsys, "verify", "--family", "sc")
    assert code == 0 and "summary: 10 checks, 0 mismatches" in out
    assert len(passes) == 10 and len(scans) == 10


def test_a_refusal_reads_alike_from_kept_passes(capsys):
    # the halves theorem 1 keeps from a code of residue 1 fit the budget of a
    # code of residue 0, whose join then overflows: the single pass is
    # refused with the exit code and message of a run from fresh passes
    argv = ("enum", "lc", "--n", "16", "--m", "1000", "--r", "5", "--h", ",".join(["0"] * 16))
    argv += ("--kind", "extended", "--method", "theorem1")
    refused = (*argv, "--a", "0", "--budget", "4844")
    fresh = run(capsys, *refused)
    assert fresh == (3, "", "error: full-space transfer pass of up to 4845 terms exceeds the budget 4844\n")
    ntcodes.enumerators._PASSES.clear()
    assert run(capsys, *argv, "--a", "1") == (0, "0\n", "")
    kept = list(ntcodes.enumerators._PASSES)
    assert run(capsys, *refused) == fresh and list(ntcodes.enumerators._PASSES) == kept


def test_theorem1_and_the_residue_pass_run_the_one_transfer_kernel(capsys, monkeypatch):
    # each verify sc check's theorem 1 builds one kernel of exact digits
    # (m = 0); the residue pass builds one of the spec's residue digits
    from ntcodes import enumerators

    moduli = []
    transfer = enumerators._transfer

    def recording_kernel(n, r, digits, *layout):
        moduli.append([m for _, m, _, _ in digits])
        return transfer(n, r, digits, *layout)

    monkeypatch.setattr(enumerators, "_transfer", recording_kernel)
    code, out, _ = run(capsys, "verify", "--family", "sc")
    assert code == 0 and "summary: 10 checks, 0 mismatches" in out
    assert len(moduli) == 10 and all(set(ms) == {0} for ms in moduli)
    moduli.clear()
    argv = ("nonbinary_svt", "--n", "40", "--r", "3", "--m", "13", "--a", "0", "--b", "0", "--c", "0")
    code, _, _ = run(capsys, "card", *argv)
    assert code == 0 and moduli == [[13, 2, 3]]


def test_card_nonbinary_svt_past_the_brute_force_budget(capsys):
    argv = ("card", "nonbinary_svt", "--r", "3", "--m", "13", "--a", "0", "--b", "0", "--c", "0")
    code, out, _ = run(capsys, *argv, "--n", "13")
    assert code == 0 and out.strip() == "26125"
    # 3^16 words are over the default budget; the transfer pass's bound is not
    code, _, _ = run(capsys, *argv, "--n", "16")
    assert code == 0


def test_card_nonbinary_svt_n40_by_the_residue_pass(capsys):
    argv = ("nonbinary_svt", "--n", "40", "--r", "3", "--m", "13", "--a", "0", "--b", "0", "--c", "0")
    code, out, _ = run(capsys, "card", *argv)
    assert code == 0
    code, enum, _ = run(capsys, "enum", *argv, "--format", "json")
    assert code == 0 and json.loads(enum)["cardinality"] == out.strip()
    assert json.loads(enum)["method"] == "transfer"
    # 3 last symbols x 78 residue keys: refused before the pass starts
    code, out, err = run(capsys, "card", *argv, "--budget", "100")
    assert code == 3 and out == ""
    assert err == "error: residue transfer pass of up to 234 terms exceeds the budget 100\n"


def test_table_t33(capsys):
    code, out, _ = run(capsys, "table", "t33")
    assert code == 0
    assert "{000, 012, 111, 210, 222}" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_table_takes_no_format(capsys, fmt):
    # the tables print text only; a --format flag is a usage error
    with pytest.raises(SystemExit) as info:
        main(["table", "t33", "--format", fmt])
    assert info.value.code == 2
    assert "unrecognized arguments: --format" in capsys.readouterr().err
    assert run(capsys, "table", "t33", "--budget", "27")[0] == 0


def test_table_t23(capsys):
    code, out, _ = run(capsys, "table", "t23")
    assert code == 0
    assert "{00, 12}" in out and "{21}" in out


def test_table_t33enum(capsys):
    code, out, _ = run(capsys, "table", "t33enum")
    assert code == 0
    assert "1 + 2*w^2 + 2*w^3" in out
    assert "cardinality: 5" in out


# the tables list codewords in scan order; this is their text before the
# meet-in-the-middle scan
T33_TEXT = (
    "codewords of the ternary descent/sum code, n=3 r=3:\n"
    "  a1=0 a2=0: {000, 012, 111, 210, 222}\n"
    "  a1=0 a2=1: {001, 022, 112}\n"
    "  a1=0 a2=2: {002, 011, 122}\n"
    "  a1=1 a2=0: {102, 201}\n"
    "  a1=1 a2=1: {100, 202, 211}\n"
    "  a1=1 a2=2: {101, 200, 212}\n"
    "  a1=2 a2=0: {021, 120}\n"
    "  a1=2 a2=1: {010, 121, 220}\n"
    "  a1=2 a2=2: {020, 110, 221}\n"
    "cardinality grid (closed form):\n"
    "       a2=0    a2=1    a2=2    \n"
    "  a1=0 5       3       3       \n"
    "  a1=1 2       3       3       \n"
    "  a1=2 2       3       3       \n"
)
T23_TEXT = (
    "codewords of the descent/sum code variants, n=2 r=3:\n"
    "  (a1,a2)   >               >=              <               <=              \n"
    "  (0,0)    {00, 12}        {12}            {00, 21}        {21}            \n"
    "  (0,1)    {01, 22}        {01}            {10, 22}        {10}            \n"
    "  (0,2)    {02, 11}        {02}            {11, 20}        {20}            \n"
    "  (1,0)    {21}            {00, 21}        {12}            {00, 12}        \n"
    "  (1,1)    {10}            {10, 22}        {01}            {01, 22}        \n"
    "  (1,2)    {20}            {11, 20}        {02}            {02, 11}        \n"
)
T33ENUM_TEXT = (
    "codeword table for the ternary descent/sum code at a1=0 a2=0:\n"
    "  x     gamma  sigma  tau0  tau1  tau2  \n"
    "  000   0      0      3     0     0     \n"
    "  012   0      3      1     1     1     \n"
    "  111   0      3      0     3     0     \n"
    "  210   3      3      1     1     1     \n"
    "  222   0      6      0     0     3     \n"
    "extended: w0^3 + z2^3*w0*w1*w2 + z2^3*w1^3 + z1^3*z2^3*w0*w1*w2 + z2^6*w2^3\n"
    "complete: w0^3 + 2*w0*w1*w2 + w1^3 + w2^3\n"
    "hamming:  1 + 2*w^2 + 2*w^3\n"
    "cardinality: 5\n"
)


def test_tables_print_the_same_text_in_scan_order(capsys):
    for name, text in (("t33", T33_TEXT), ("t23", T23_TEXT), ("t33enum", T33ENUM_TEXT)):
        assert run(capsys, "table", name) == (0, text, "")


def test_macwilliams_report(capsys):
    code, out, _ = run(capsys, "macwilliams", "--r", "2", "--H", "1,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "left": "w0^2 + w1^2",
        "right": "w0^2 + w1^2",
        "verified": True,
        "dual_size": 2,
    }


def test_macwilliams_rank_deficient(capsys):
    code, out, _ = run(capsys, "macwilliams", "--r", "2", "--H", "0,0")
    assert code == 0
    assert "rank deficient" in out


def test_macwilliams_right_side_is_charged_before_any_scan(capsys, monkeypatch):
    # r Horner levels of up to min(r^n, C(n+r-1, r-1)) w-monomials of r digits:
    # 1000 * 1000 * 1000 digits, refused before the code is scanned
    calls = []
    monkeypatch.setattr(ntcodes.macwilliams, "enumerate_codewords", lambda *args: calls.append(args))
    code, out, err = run(capsys, "macwilliams", "--r", "1000", "--H", "1")
    assert (code, out, calls) == (3, "", [])
    assert err == "error: MacWilliams right side of up to 1000000000 digits exceeds the budget 10000000\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enum", "nonsense", "--n", "3"])
    assert info.value.code == 2
    # missing a required family parameter
    code, _, err = run(capsys, "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0")
    assert code == 2 and "a2" in err
    code, _, err = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "5", "--a2", "0")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("binary_vt", "--n", "0", "--a", "0"), "n must be positive"),
        (("levenshtein", "--n", "3", "--m", "0", "--a", "0"), "n and m must be positive"),
        (("tenengolts", "--n", "0", "--r", "3", "--a1", "0", "--a2", "0"), "n and r must be positive"),
        (("tenengolts", "--n", "3", "--r", "0", "--a1", "0", "--a2", "0"), "n and r must be positive"),
        (("shifted_vt", "--n", "3", "--m", "0", "--a", "0", "--parity", "0"), "n and m must be positive"),
        (("han_vinck_morita", "--n", "0", "--a", "0", "--b", "0"), "n must be positive"),
        (
            ("nonbinary_svt", "--n", "3", "--r", "3", "--m", "0", "--a", "0", "--b", "0", "--c", "0"),
            "n, r, and m must be positive",
        ),
        (("ternary_integer", "--n", "0", "--a", "0"), "n must be positive"),
        (("odd_coefficient", "--n", "3", "--m", "0", "--a", "0"), "n and m must be positive"),
        (("an_code", "--p", "2", "--a", "0"), "p must be a prime of at least 3"),
        (("exponential_coefficient", "--n", "0", "--m", "1", "--a", "0"), "n and m must be positive"),
        (("lc", "--n", "3", "--m", "5", "--r", "2", "--h", "1,2", "--a", "0"), "weight vector of length 2 for n=3"),
        # a modulus of 2^100000 + 1, past the 4300 digits a message may print
        (("exponential_coefficient", "--n", "3", "--m", "100000", "--a", "-1"), "a must lie in [0, 2^100001), got -1"),
        # 10^400 overflows a float; the message prints it through count_text
        (("an_code", "--p", str(10**400), "--a", "0"), "p must be prime, got 2^1329"),
    ],
)
def test_malformed_family_arguments_exit_two(capsys, argv, message):
    assert run(capsys, "card", *argv) == (2, "", f"error: {message}\n")


def test_budget_exceeded_exit_three(capsys):
    code, _, err = run(
        capsys,
        "enum", "lc", "--n", "10", "--m", "3", "--r", "4",
        "--h", "1,1,1,1,1,1,1,1,1,1", "--a", "0",
        "--method", "oracle", "--budget", "100",
    )
    assert code == 3
    assert "budget" in err


def test_theorem1_budget_exceeded_before_expansion(capsys):
    # n=14: halves of 3^7 terms are over the budget as well as the single pass
    code, _, err = run(
        capsys,
        "enum", "ternary_integer", "--n", "14", "--a", "5",
        "--method", "theorem1", "--budget", "1000",
    )
    assert code == 3
    assert "budget" in err


def test_theorem1_answers_past_the_single_pass_bound(capsys):
    # the single pass's bound, 40102677 terms, is over the default budget;
    # the join of two halves of 3^8 terms is not
    argv = ("enum", "ternary_integer", "--n", "16", "--a", "5", "--method", "theorem1")
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert time.perf_counter() - start < 0.5
    code, out, err = run(capsys, *argv, "--budget", "1000")
    assert (code, out) == (3, "")
    assert err == "error: full-space transfer pass of up to 40102677 terms exceeds the budget 1000\n"


def test_theorem1_join_pairs_past_the_budget_exit_three(capsys):
    # halves of 3^6 terms fit the budget; their 3^12 pairs do not
    h = ",".join(str(1000 * 3**j) for j in range(12))
    argv = ("enum", "lc", "--n", "12", "--m", "1000", "--r", "3", "--h", h, "--a", "0")
    code, out, err = run(capsys, *argv, "--method", "theorem1", "--kind", "extended", "--budget", "10000")
    assert (code, out) == (3, "")
    assert err == "error: full-space transfer pass of up to 531441 terms exceeds the budget 10000\n"


def test_card_ternary_integer_auto_matches_theorem1(capsys):
    argv = ("card", "ternary_integer", "--n", "9", "--a", "5")
    code, auto, _ = run(capsys, *argv)
    assert code == 0
    code, theorem1, _ = run(capsys, *argv, "--method", "theorem1")
    assert code == 0 and auto == theorem1


def test_card_ternary_integer_refused_before_the_residue_pass(capsys):
    # modulus 2^31 + 1: the no-carry pass's bound min(3^30, m) is checked, not built
    code, out, err = run(capsys, "card", "ternary_integer", "--n", "30", "--a", "5")
    assert code == 3 and out == ""
    assert f"up to {2**31 + 1} terms exceeds the budget" in err


@pytest.mark.parametrize(
    "family, params, kind",
    [
        ("ternary_integer", {"n": 24, "a": 5}, "cardinality"),
        ("helberg", {"n": 30, "t": 3, "a": 0}, "cardinality"),
        ("le_nguyen", {"n": 20, "r": 3, "t": 3, "a": 0}, "cardinality"),
        ("ternary_integer", {"n": 16, "a": 5}, "complete"),
    ],
)
def test_auto_falls_through_a_residue_pass_refusal_to_theorem1(capsys, family, params, kind):
    # the residue pass's bound is past the default budget and theorem 1's
    # halves fit it: "auto" answers as "--method theorem1" does
    with pytest.raises(ntcodes.codes.BudgetExceededError, match="^residue transfer pass of up to"):
        ntcodes.enumerators._residue_pass(ntcodes.codes.make_family(family, **params), kind, None)
    argv = ("card", family) if kind == "cardinality" else ("enum", family, "--kind", kind)
    argv += tuple(token for name, value in params.items() for token in (f"--{name}", str(value)))
    expected = run(capsys, *argv, "--method", "theorem1")[1]
    assert run(capsys, *argv) == (0, expected, "")


def test_auto_refuses_with_the_residue_pass_message_where_theorem1_refuses_too(capsys):
    argv = ("card", "ternary_integer", "--n", "30", "--a", "0")
    assert run(capsys, *argv, "--method", "theorem1")[0] == 3
    error = f"error: residue transfer pass of up to {2**31 + 1} terms exceeds the budget 10000000\n"
    assert run(capsys, *argv) == (3, "", error)


def test_card_an_code_p31_refused_before_any_weight_exists(capsys):
    # length 2^29: omega mod 31 has no weight vector to build, so the residue
    # pass's 31 keys are refused at once, in well under a megabyte
    argv = ("card", "an_code", "--p", "31", "--a", "0", "--budget", "10")
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == "error: residue transfer pass of up to 31 terms exceeds the budget 10\n"
    assert peak < 2_000_000


def test_card_an_code_p31_refused_at_the_default_budget(capsys):
    # 31 keys fit the default budget, but the 2^29 positions do not: the
    # pass refuses them before its weights, 2^29 of them, or 2^(2^29) exist
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "card", "an_code", "--p", "31", "--a", "0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (3, "")
    assert err == f"error: residue transfer pass over {2**29} positions exceeds the budget 10000000\n"
    assert peak < 2_000_000


@pytest.mark.parametrize(
    "argv, answer",
    [
        (("lc", "--n", "1", "--m", "2", "--r", "100000", "--h", "1", "--a", "0"), "50000"),
        (("linear_code", "--r", "100000", "--H", "1;-3"), "1"),
    ],
)
def test_card_at_a_large_alphabet_builds_no_descent_tables(argv, answer):
    # r = 10^5 and no descent statistic: the increment tables hold only the
    # row of no previous symbol, not the (r + 1) r = 10^10 cells of a table
    # per previous symbol.  The request runs in a child whose address space
    # is capped at its size after import plus 50 MB, so every allocation
    # counts, not only those tracemalloc sees
    done = _run_python("-c", CAPPED_REQUEST, "50000000", "card", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (0, f"{answer}\n", "")


HUGE_ALPHABET_LC = ("lc", "--n", "1", "--m", "2", "--r", str(10**21), "--h", "1", "--a", "0")


@pytest.mark.parametrize(
    "argv, err",
    [
        (("card", *HUGE_ALPHABET_LC), "residue transfer pass of 2^70 symbol steps"),
        (("enum", *HUGE_ALPHABET_LC, "--kind", "complete"), "residue transfer pass of up to 2^70 terms"),
    ],
)
def test_a_huge_alphabet_is_refused_before_the_residue_pass_builds_anything(argv, err):
    # r = 10^21: the pass is refused before it builds the (n + 1)^(r - 1)
    # packed tau digits or its r-entry lists of symbol places, in a child
    # capped as above
    start = time.perf_counter()
    done = _run_python("-c", CAPPED_REQUEST, "50000000", *argv)
    assert time.perf_counter() - start < 5
    assert (done.returncode, done.stdout, done.stderr) == (3, "", f"error: {err} exceeds the budget 10000000\n")


def test_descent_increment_tables_are_charged_before_they_are_built(capsys, monkeypatch):
    # a descent statistic reads the previous symbol: each increment table holds
    # (r + 1) r = 1001000 cells, refused past the budget before any is built by
    # both passes, and answered at the default budget
    family = ("nonbinary_svt", "--n", "1", "--r", "1000", "--m", "2", "--a", "0", "--b", "0", "--c", "0")
    built, tables = [], ntcodes.enumerators._increment_tables
    monkeypatch.setattr(ntcodes.enumerators, "_increment_tables", lambda *args: built.append(1) or tables(*args))
    for argv in (("card", *family), ("enum", *family, "--kind", "extended")):
        code, out, err = run(capsys, *argv, "--budget", "1000000")
        assert (code, out, built) == (3, "", [])
        assert err == "error: increment tables of 1001000 cells exceeds the budget 1000000\n"
    assert run(capsys, "card", *family) == (0, "1\n", "")
    assert built


LARGE_ALPHABET_LC = ("enum", "lc", "--n", "1", "--m", "2", "--r", "100000", "--h", "1", "--a", "0", "--kind")


@pytest.mark.parametrize(
    "argv, digits",
    [
        (
            ("card", "le_nguyen", "--n", "2", "--r", "1048576", "--t", "1", "--a", "5", "--method", "theorem1"),
            2**20 * (2**20 - 1) // 2,
        ),
        ((*LARGE_ALPHABET_LC, "extended"), 100000 * 99999 // 2),
        ((*LARGE_ALPHABET_LC, "complete"), 100000 * 99999 // 2),
    ],
)
def test_type_vector_strides_are_charged_before_they_are_built(capsys, monkeypatch, argv, digits):
    # theorem 1 and, at "complete", the residue pass key r tau digits;
    # tau_x's stride spans x digits, so their strides hold digits (digits - 1) / 2
    # digits, refused before either pass starts though the states fit the budget
    calls = []
    for name in ("_exact_pass", "_transfer"):
        monkeypatch.setattr(ntcodes.enumerators, name, lambda *args, name=name: calls.append(name))
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (3, "", [])
    assert err == f"error: type vector strides of {digits} digits exceeds the budget 10000000\n"


@pytest.mark.parametrize("kind", ["cardinality", "hamming"])
def test_divisor_sum_refuses_a_length_past_the_budget(capsys, monkeypatch, kind):
    # the divisor sums check n before they factor n
    calls = []
    monkeypatch.setattr(ntcodes.enumerators, "ramanujan_sums", lambda n, a: calls.append(n))
    monkeypatch.setattr(ntcodes.numtheory, "factorize", lambda n: calls.append(n))
    n = 2**40
    argv = ["tenengolts", "--n", str(n), "--r", "3", "--a1", "7", "--a2", "1", "--budget", "1000"]
    argv = ["card", *argv] if kind == "cardinality" else ["enum", *argv, "--kind", kind]
    code, out, err = run(capsys, *argv)
    assert (code, out, calls) == (3, "", [])
    assert err == f"error: descent/sum divisor sum over {n} positions exceeds the budget 1000\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (("card", "binary_vt", "--n", "20000", "--method", "oracle"), "enumerating 2^20000 words"),
        (("card", "ternary_integer", "--n", "20000", "--a", "0"), "up to 2^20002 terms"),
        (
            ("enum", "ternary_integer", "--n", "20000", "--a", "0", "--kind", "extended"),
            "up to 2^20030 terms",
        ),
        (("card", "binary_vt", "--n", "1000000000"), "up to 1000000001 terms"),
        (
            ("enum", "binary_vt", "--n", "30000000", "--budget", "10", "--method", "theorem1", "--kind", "extended"),
            "up to 2^74 terms",
        ),
        (
            ("card", "tenengolts", "--n", "1000000000", "--r", "2", "--a1", "0", "--a2", "0", "--method", "theorem1"),
            "up to 2^89 terms",
        ),
        (
            ("enum", "shifted_vt", "--n", "100000000", "--m", "5", "--a", "0", "--parity", "0", "--kind", "extended"),
            "up to 2^79 terms",
        ),
        (("table", "t33", "--budget", "1"), "enumerating 3^3 words"),
    ],
    ids=[
        "oracle-words",
        "residue-bound",
        "exact-bound",
        "residue-no-power",
        "exact-no-weights",
        "exact-descent-sum-no-weights",
        "exact-omega-sigma-no-weights",
        "table",
    ],
)
def test_refusals_exit_three_at_any_size(capsys, argv, text):
    # a bound past 2^64 prints as a power of two, so no refusal trips the
    # 4300-digit limit; no r^n or weight vector is built before the check,
    # for omega, sigma or a descent statistic alike; a table prints nothing
    # before it is refused
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert f"{text} exceeds the budget" in err
    if argv[1] in ("binary_vt", "tenengolts", "shifted_vt") and "oracle" not in argv:
        assert elapsed < 0.5


@pytest.mark.parametrize("method", ["auto", "theorem1", "oracle"])
def test_card_lc_of_length_zero(capsys, method):
    # the one word of length 0 has weighted sum 0
    argv = ("card", "lc", "--n", "0", "--m", "5", "--r", "2", "--h=", "--method", method)
    assert run(capsys, *argv, "--a", "0") == (0, "1\n", "")
    assert run(capsys, *argv, "--a", "3") == (0, "0\n", "")


def test_each_flag_parses_and_defaults_itself(capsys):
    # no table maps a flag to its parser or default, and one handler serves
    # enum and card
    gone = ("_PARAM_FLAGS", "_PARAM_PARSERS", "_OPTIONAL_PARAMS", "_build_spec", "_cmd_card", "_emit_enumerator")
    assert not [name for name in gone if hasattr(ntcodes.cli, name)]
    parser = build_parser()
    enum = parser.parse_args(["enum", "lc", "--h", "1,2"])
    card = parser.parse_args(["card", "linear_code", "--H", "1,2;0,1"])
    assert enum.handler is card.handler and card.kind == "cardinality"
    assert (enum.h, enum.a, enum.variant, card.rows) == ((1, 2), 0, ">", [(1, 2), (0, 1)])
    # a malformed list is an argparse usage error, as a malformed int is
    for argv in [
        ("card", "lc", "--n", "x"),
        ("card", "lc", "--h", "1,x"),
        ("card", "linear_code", "--r", "2", "--H", "1;x"),
        ("macwilliams", "--r", "2", "--H", "1;x"),
    ]:
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("usage: ntcodes") and f"error: argument {argv[-2]}: invalid" in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CODES_BUDGET", "100")
    code, _, err = run(
        capsys,
        "enum", "lc", "--n", "10", "--m", "3", "--r", "4",
        "--h", "1,1,1,1,1,1,1,1,1,1", "--a", "0",
        "--method", "oracle",
    )
    assert code == 3


@pytest.mark.parametrize(
    "env, shown",
    [
        ("abc", "'abc'"),
        (" 1.5", "' 1.5'"),
        ("7" * 5000 + "x", f"{'7' * 40!r}... (5001 characters)"),
    ],
    ids=["letters", "decimal", "long"],
)
def test_a_malformed_budget_env_is_named_in_its_error(capsys, monkeypatch, env, shown):
    monkeypatch.setenv("CODES_BUDGET", env)
    argv = ("card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
    expected = f"error: CODES_BUDGET must be a non-negative integer, got {shown}\n"
    assert run(capsys, *argv) == (2, "", expected)
    # a --budget flag overrides the variable without reading it
    assert run(capsys, *argv, "--budget", "100") == (0, "5\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("card", "tenengolts", "--n", "4", "--r", "2", "--a1", "0", "--a2", "0"),
        ("card", "binary_vt", "--n", "4"),
        ("verify", "--family", "sc", "--count", "2"),
        ("table", "t33"),
        ("macwilliams", "--r", "3", "--H", "1,2,0"),
    ],
    ids=["divisor-sum", "residue-pass", "verify", "table", "macwilliams"],
)
def test_negative_budget_exit_two(capsys, monkeypatch, argv):
    # a negative budget is refused up front, before any route's own check
    code, out, err = run(capsys, *argv, "--budget", "-1")
    assert (code, out, err) == (2, "", "error: the budget must be non-negative, got -1\n")
    monkeypatch.setenv("CODES_BUDGET", "-1")
    assert run(capsys, *argv) == (code, out, err)


def test_verify_macwilliams_respects_the_budget(capsys, monkeypatch):
    argv = ("verify", "--family", "macwilliams", "--count", "2", "--max-n", "12")
    code, _, err = run(capsys, *argv, "--budget", "10")
    assert code == 3 and "budget" in err
    monkeypatch.setenv("CODES_BUDGET", "10")
    code, _, err = run(capsys, *argv)
    assert code == 3 and "budget" in err


def test_verify_macwilliams_scans_only_full_rank_draws(capsys, monkeypatch):
    built = []

    def build_code(r, rows, budget=None):
        code = ntcodes.macwilliams.build_code(r, rows, budget)
        built.append(len(code.dual) == r ** len(rows))
        return code

    monkeypatch.setattr("ntcodes.cli.build_code", build_code)
    for seed in range(4):
        code, out, _ = run(capsys, "verify", "--family", "macwilliams", "--count", "12", "--max-n", "3", "--seed", str(seed))
        assert code == 0 and "summary: 12 checks, 0 mismatches" in out
    assert built == [True] * 48


def test_oracle_refuses_on_all_words_not_on_the_split(capsys):
    # 2^24 words are over the default budget although the split scan would
    # visit only 2 * 2^12 of them
    h = ",".join(str(i) for i in range(1, 25))
    code, out, err = run(capsys, "card", "lc", "--n", "24", "--m", "13", "--r", "2", "--h", h, "--a", "0", "--method", "oracle")
    assert (code, out) == (3, "") and "2^24" in err


LC_NEGATIVE = ("lc", "--n", "3", "--m", "5", "--r", "2", "--h=-5,2,3", "--a", "0")


def test_oracle_agrees_with_auto_on_negative_weights(capsys):
    code, out, _ = run(capsys, "enum", *LC_NEGATIVE, "--method", "oracle")
    assert code == 0 and out.strip() == "1 + w + w^2 + w^3"
    # below kind extended theorem 1 gets the weights reduced mod m
    ternary = ("lc", "--n", "3", "--m", "5", "--r", "3", "--h=-1,2,3", "--a", "1")
    cases = (("enum", ("--kind", "complete")), ("enum", ("--kind", "hamming")), ("card", ()))
    for spec in (LC_NEGATIVE, ternary):
        for command, extra in cases:
            oracle = run(capsys, command, *spec, *extra, "--method", "oracle")
            assert oracle[0] == 0
            for method in ("auto", "theorem1"):
                assert run(capsys, command, *spec, *extra, "--method", method) == oracle
    # -5 = 0 (mod 5): the codewords are 000, 100, 011 and 111
    code, out, _ = run(capsys, "enum", *LC_NEGATIVE, "--kind", "complete", "--method", "oracle")
    assert code == 0 and out.strip() == "w0^3 + w0^2*w1 + w0*w1^2 + w1^3"
    # the extended enumerator carries the statistic as an exponent
    for method in ("oracle", "theorem1"):
        code, _, err = run(capsys, "enum", *LC_NEGATIVE, "--kind", "extended", "--method", method)
        assert code == 2 and "negative" in err


def test_verify_lc_draws_negative_weights(capsys, monkeypatch):
    import ntcodes.cli

    drawn = []
    compute = ntcodes.cli.compute

    def recording(spec, kind, method="auto", budget=None):
        drawn.extend(spec.constraints[0].stat.h)
        return compute(spec, kind, method, budget)

    monkeypatch.setattr(ntcodes.cli, "compute", recording)
    for family in ("lc", "blc"):
        code, out, _ = run(capsys, "verify", "--family", family, "--count", "20", "--max-n", "5")
        assert code == 0 and out.strip().endswith("20 checks, 0 mismatches")
    assert min(drawn) < 0 < max(drawn)


# run main(argv[2:]) with the address space capped at its size after the
# import plus argv[1] bytes
CAPPED_REQUEST = (
    "import resource, sys\n"
    "import ntcodes.cli\n"
    "with open('/proc/self/statm') as statm:\n"
    "    size = int(statm.read().split()[0]) * resource.getpagesize()\n"
    "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[1]), hard))\n"
    "sys.exit(ntcodes.cli.main(sys.argv[2:]))\n"
)


def _run_python(*args):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_ntcodes():
    done = _run_python("-m", "ntcodes", "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "5"


def outcome(capsys, argv):
    """main's exit code, stdout and stderr, an argparse exit included."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TENENGOLTS_33 = ("tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
LC_ORACLE = ("enum", "lc", "--n", "4", "--m", "5", "--r", "2", "--h", "1,2,3,4", "--a", "0", "--method", "oracle")

# (CODES_BUDGET, argv, expected exit code): every flag given in one call is
# left out of a later one, and each kind of exit is passed through
REUSE_SEQUENCE = (
    (None, ("enum", *TENENGOLTS_33, "--kind", "complete", "--method", "theorem1", "--format", "json", "--budget", "1000"), 0),
    (None, ("enum", "nonsense", "--n", "3"), 2),  # argparse rejects it
    (None, ("card", "--help"), 0),
    (None, ("enum", *TENENGOLTS_33[:-2]), 2),  # no --a2: a ValueError
    (None, (*LC_ORACLE, "--budget", "10"), 3),
    (None, ("enum", *TENENGOLTS_33), 0),
    (None, ("card", *TENENGOLTS_33), 0),
    (None, LC_ORACLE, 0),
    ("10", LC_ORACLE, 3),
    (None, LC_ORACLE, 0),
    (None, ("verify", "--family", "sc", "--count", "2", "--format", "csv"), 0),
    (None, ("verify", "--family", "sc", "--count", "2"), 0),
)


def test_main_reuses_its_parser_without_carrying_state(capsys, monkeypatch):
    def run_sequence():
        outcomes = []
        for env, argv, _ in REUSE_SEQUENCE:
            if env is None:
                monkeypatch.delenv("CODES_BUDGET", raising=False)
            else:
                monkeypatch.setenv("CODES_BUDGET", env)
            outcomes.append(outcome(capsys, argv))
        return outcomes

    reused = run_sequence()
    with monkeypatch.context() as fresh:
        fresh.setattr(ntcodes.cli, "_parser", build_parser)
        expected = run_sequence()
    assert reused == expected
    assert [code for code, _, _ in reused] == [code for _, _, code in REUSE_SEQUENCE]
    assert reused[5][1] == "1 + 2*w^2 + 2*w^3\n"


def test_main_builds_its_parser_once(capsys, monkeypatch):
    argv = ("card", *TENENGOLTS_33)
    # a plain request builds no parser: an argv argparse reads builds main's
    assert outcome(capsys, ("enum", "nonsense"))[0] == 2
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert main(list(argv)) == 0
    assert outcome(capsys, ("enum", "nonsense"))[0] == 2
    assert made == []
    # a parser handed out by build_parser() is not main's
    parser = build_parser()
    parser.add_argument("--extra")
    assert parser.parse_args(["--extra=1", *argv]).extra == "1"
    code, out, err = outcome(capsys, ("--extra=1", *argv))
    assert (code, out) == (2, "") and "unrecognized arguments: --extra=1" in err


def test_importing_the_cli_builds_no_parser():
    done = _run_python(
        "-c",
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: made.append(1) or init(self, *a, **k)\n"
        "import ntcodes.cli\n"
        "print(len(made))\n",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"


def test_importing_the_cli_loads_no_module_a_request_does_not_use():
    # an isolated interpreter (-I), as the benchmark times the import; it
    # ignores PYTHONPATH, so the source directory is put on sys.path by hand
    src = Path(__file__).resolve().parent.parent / "src"
    done = _run_python(
        "-I",
        "-c",
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "before = set(sys.modules)\n"
        "import ntcodes, ntcodes.cli\n"
        "unused = {'argparse', 'gettext', 'dataclasses', 'inspect', 'json', 'csv'}\n"
        "print(sorted(unused & (set(sys.modules) - before)))\n"
        "ntcodes.cli.main(['card', 'tenengolts', '--n', '3', '--r', '3', '--a1', '0', '--a2', '0'])\n"
        "for fmt in ('json', 'csv'):\n"
        "    ntcodes.cli.main(['enum', 'tenengolts', '--n', '3', '--r', '3', '--a1', '0', '--a2', '0', '--format', fmt])\n"
        "print(sorted(unused & (set(sys.modules) - before)))\n"
        "try:\n"
        "    ntcodes.cli.main(['card', '--help'])\n"
        "except SystemExit as stop:\n"
        "    print('exit', stop.code, sorted({'argparse'} & set(sys.modules)))\n",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:8] == [
        "[]",
        "5",
        '{"kind": "hamming", "variables": ["w"], "terms": [{"exp": [0], "coef": "1"}, {"exp": [2], "coef": "2"}, '
        '{"exp": [3], "coef": "2"}], "cardinality": "5", "method": "closed_form"}',
        "w,coefficient",
        "0,1",
        "2,2",
        "3,2",
        "['csv', 'json']",
    ]
    # help is argparse's own: it loads argparse and exits 0
    assert lines[8].startswith("usage: ntcodes card") and lines[-1] == "exit 0 ['argparse']"


def test_the_cli_reads_no_private_argparse_name():
    # argparse is driven through its public calls alone: no attribute named
    # with one leading underscore, and of argparse itself only ArgumentParser
    tree = ast.parse(Path(ntcodes.cli.__file__).read_text())
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert [node.attr for node in attributes if re.match(r"_(?!_)", node.attr)] == []
    named = {node.attr for node in attributes if isinstance(node.value, ast.Name) and node.value.id == "argparse"}
    assert named == {"ArgumentParser"}


# argvs whose parse by main must match the nested parse: plain requests,
# help, unknown flags before and after the subcommand, abbreviations,
# negative and empty values, a repeated flag and each kind of usage error
PARSE_CASES = (
    ("enum", *TENENGOLTS_33, "--kind", "complete", "--format", "json"),
    ("card", *TENENGOLTS_33),
    ("verify", "--family", "sc", "--count", "2", "--max-n", "3"),
    ("table", "t33"),
    ("macwilliams", "--r", "3", "--H", "1,1;0,1"),
    (),
    ("-h",),
    ("--help",),
    ("card", "--help"),
    ("macwilliams", "-h"),
    ("nonsense", "--n", "3"),
    ("--extra=1", "card", *TENENGOLTS_33),
    ("card", *TENENGOLTS_33, "--extra", "1"),
    ("card", *TENENGOLTS_33, "--var", "<"),
    ("enum", *TENENGOLTS_33, "--kin", "complete"),
    ("card", "--he"),
    ("card", "lc", "--n", "3", "--m", "4", "--r", "2", "--h=-1,2", "--a", "-3"),
    ("card", "lc", "--n", "3", "--m", "4", "--r", "2", "--h", "-1,2"),
    ("card", *TENENGOLTS_33, "--n", "4"),
    ("macwilliams", "--r", "3"),
    ("card", "tenengolts", "--n", "x"),
    ("enum", *TENENGOLTS_33, "--kind", "nope"),
    ("card", *TENENGOLTS_33, "--variant", "<=", "--budget", "5", "--format", "csv"),
    ("card", "linear_code", "--r", "5", "--H", "1,2;3,4"),
    ("macwilliams", "--r", "3", "--H", ""),
    ("macwilliams", "--H", "1,1;0,1", "--r", "3", "--budget", "-1"),
    ("verify", "--max-n", "3", "--max-n", "4"),
    ("card", "tenengolts", "--n", "3", "--", "--r", "3"),
    ("table", "t33", "name", "t23"),
    ("card", *TENENGOLTS_33, "family", "lc"),
)


def parsed(parse, argv):
    """The Namespace's fields, or the exit code, stdout and stderr of an
    argparse exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(list(argv)))
        except SystemExit as stop:
            return stop.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_CASES, ids=lambda argv: " ".join(argv) or "no arguments")
def test_main_parses_as_the_nested_parser_does(argv):
    assert parsed(ntcodes.cli._parse, argv) == parsed(build_parser().parse_args, argv)


#: a full parser of its own, as the oracle of the parse equivalence
NESTED_PARSER = build_parser()
#: each subcommand's positional choices and {option string: choices}, help included
SUBCOMMANDS = {
    name: (
        [action.choices for action in sub._actions if not action.option_strings],
        {flag: action.choices for action in sub._actions for flag in action.option_strings},
    )
    for name, sub in next(a.choices for a in NESTED_PARSER._actions if a.dest == "command").items()
}
ANY_FLAG = sorted({flag for _, flags in SUBCOMMANDS.values() for flag in flags} | {"--extra", "-x"})
VALUES = (
    "0", "1", "3", "12", "-1", "-3", "", "x", "1.5", " 2", "1,2", "-1,2", "1,-2,3", "1;0,1", "1,1;0,1", ">", "<=",
    "complete", "extended", "theorem1", "oracle", "json", "csv", "sc", "all", "t33", "tenengolts", "lc", "--n",
)


@st.composite
def argvs(draw):
    """An argv over every subcommand's flags.  Half are in plain form: the
    positional, then distinct flags of the subcommand each with a choice
    or a non-negative integer.  The rest add `--flag=value`, abbreviated,
    bare, repeated, foreign and unknown flags, missing or stray
    positionals, negative and malformed values and `-h`."""
    plain = draw(st.booleans())
    command = draw(st.sampled_from([*SUBCOMMANDS] if plain else [*SUBCOMMANDS, "nonsense", "-h", None]))
    if command is None:
        return []
    positionals, flags = SUBCOMMANDS.get(command, ([], dict.fromkeys(ANY_FLAG)))
    argv = [command]
    for choices in positionals:
        if plain or draw(st.integers(0, 5)):
            argv.append(draw(st.sampled_from(choices if plain else [*choices, "nonsense", "-1"])))
    names = sorted(set(flags) - {"-h", "--help"} if plain else flags)
    for flag in draw(st.lists(st.sampled_from(names), max_size=6, unique=plain)):
        if plain:
            argv += [flag, draw(st.sampled_from(flags[flag]) if flags[flag] else st.integers(0, 40).map(str))]
            continue
        flag = flag if draw(st.integers(0, 9)) else draw(st.sampled_from(ANY_FLAG))
        value = draw(st.sampled_from(VALUES) | st.integers(-5, 40).map(str))
        form = draw(st.sampled_from(["plain"] * 6 + ["equals", "abbreviated", "bare", "stray"]))
        argv += {
            "plain": [flag, value],
            "equals": [f"{flag}={value}"],
            "abbreviated": [flag[:-1], value],
            "bare": [flag],
            "stray": [value],
        }[form]
    return argv


@settings(max_examples=200)
@given(argvs())
def test_main_parses_any_argv_as_the_nested_parser_does(argv):
    assert parsed(ntcodes.cli._parse, argv) == parsed(NESTED_PARSER.parse_args, argv)


def test_a_plain_request_is_read_without_argparse(capsys, monkeypatch):
    parsers = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def recording(self, *args, **kwargs):
        parsers.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert run(capsys, "card", *TENENGOLTS_33) == (0, "5\n", "")
    assert parsers == []
    # an abbreviated flag is no plain request: the full parser reads it
    assert ntcodes.cli._parse(["enum", *TENENGOLTS_33, "--kin", "complete"]).kind == "complete"
    assert parsers == ["ntcodes", "ntcodes enum"]


#: (n, r, a1, a2, variant) the descent/sum code refuses, and its message:
#: n and r are checked first, then a1, then a2, then the variant
TENENGOLTS_REFUSALS = [
    ((0, 3, 0, 0, ">"), "n and r must be positive"),
    ((3, 0, 0, 0, ">"), "n and r must be positive"),
    ((3, 3, 3, 0, ">"), "a1 must lie in [0, 3), got 3"),
    ((3, 3, -1, 0, ">"), "a1 must lie in [0, 3), got -1"),
    ((3, 3, 0, 3, ">"), "a2 must lie in [0, 3), got 3"),
    ((3, 3, 0, 0, "!="), "variant must be one of ['<', '<=', '>', '>='], got '!='"),
    ((0, 0, -1, 9, "!="), "n and r must be positive"),
    ((3, 3, 5, 7, "!="), "a1 must lie in [0, 3), got 5"),
    ((3, 3, 0, 7, "!="), "a2 must lie in [0, 3), got 7"),
]


@pytest.mark.parametrize("params, message", TENENGOLTS_REFUSALS)
def test_tenengolts_parameter_checks_agree_everywhere(capsys, params, message):
    for build in (ntcodes.codes.tenengolts, tenengolts_cardinality, tenengolts_hamming):
        with pytest.raises(ValueError) as raised:
            build(*params)
        assert str(raised.value) == message, build.__name__
    n, r, a1, a2, variant = params
    argv = ["card", "tenengolts", "--n", str(n), "--r", str(r), "--a1", str(a1), "--a2", str(a2)]
    argv += ["--variant", variant]
    if variant in VARIANTS:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")
        return
    # --variant's choices refuse an unknown variant in argparse's words, before any family is built
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "argument --variant: invalid choice: '!=' (choose from '>', '>=', '<', '<=')\n"
    )


def counting_builds(monkeypatch, cls):
    """The argument tuples of every instance of `cls` built from here on."""
    built = []
    real = cls.__init__

    @functools.wraps(real)
    def init(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return built


def test_descent_sum_requests_build_one_spec_and_no_statistic(capsys, monkeypatch):
    # a descent/sum request takes its statistic from the shared records and
    # its parameter checks from one helper, so nothing is built twice
    family = ("tenengolts", "--n", "12", "--r", "3", "--a1", "5", "--a2", "1", "--variant", "<")
    expected = f"{tenengolts_cardinality(12, 3, 5, 1, '<')}\n"
    statistics = counting_builds(monkeypatch, ntcodes.codes.Statistic)
    specs = counting_builds(monkeypatch, ntcodes.codes.CodeSpec)
    with mock.patch.object(ntcodes.numtheory, "factorize", wraps=ntcodes.numtheory.factorize) as factorize:
        assert run(capsys, "card", *family) == (0, expected, "")
    assert (statistics, len(specs), factorize.call_count) == ([], 1, 1)
    # the Hamming form takes the spec that `compute` read: it builds none
    # and checks no parameter again
    specs.clear()
    with mock.patch.object(ntcodes.codes, "_check_tenengolts", wraps=ntcodes.codes._check_tenengolts) as checks:
        code, out, _ = run(capsys, "enum", *family, "--kind", "hamming")
    assert (code, statistics, len(specs), checks.call_count) == (0, [], 1, 1)
    assert out == f"{tenengolts_hamming(12, 3, 5, 1, '<').poly}\n"


def test_integrality_violation_exit_four(capsys, monkeypatch):
    from ntcodes.exactalg import NonDivisibleError

    def explode(*args, **kwargs):
        raise NonDivisibleError("simulated kernel bug")

    monkeypatch.setattr("ntcodes.enumerators.tenengolts_cardinality", explode)
    code, _, err = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
    assert code == 4
    assert "integrality" in err


def test_an_off_by_one_ramanujan_sum_trips_the_exact_division(capsys, monkeypatch):
    real = ntcodes.enumerators.ramanujan_sums
    monkeypatch.setattr(
        "ntcodes.enumerators.ramanujan_sums", lambda n, a: {d: c + 1 for d, c in real(n, a).items()}
    )
    family = ("tenengolts", "--n", "5", "--r", "3", "--a1", "0", "--a2", "0")
    for argv in (("card", *family), ("enum", *family, "--kind", "hamming")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err.startswith("internal integrality violation: ") and "not divisible" in err
    # a total past 4300 digits is named through count_text, so the sentinel
    # still exits 4 rather than failing to convert its own message
    code, out, err = run(capsys, "card", "tenengolts", "--n", "10080", "--r", "3", "--a1", "0", "--a2", "0")
    assert (code, out) == (4, "")
    assert err.startswith("internal integrality violation: cardinality: total 2^") and "not divisible" in err


def test_closed_method_rejected_when_no_closed_form(capsys):
    code, _, err = run(
        capsys,
        "card", "shifted_vt", "--n", "3", "--m", "4", "--a", "0", "--parity", "0",
        "--method", "closed",
    )
    assert code == 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("command", ["enum", "card"])
def test_every_constructor_parameter_has_a_flag(command, family):
    params = tuple(inspect.signature(FAMILIES[family]).parameters)
    argv = [command, family]
    for name in params:
        flag = "H" if name == "rows" else name
        argv += [f"--{flag}", ">" if name == "variant" else "1"]
    args = build_parser().parse_args(argv)
    assert tuple(_family_params(args)) == params


# the command line as the parser held it before it was declared by one
# table, captured from that parser's actions; each argument is (option
# strings, dest, type, choices, default, required, metavar, help), its
# type by name.  It is argparse's data, not its rendered help, whose layout
# changes between Python versions.
FAMILY_DECLARATION = (
    (
        (), "family", None,
        (
            "an_code", "binary_vt", "blc", "exponential_coefficient", "han_vinck_morita", "helberg", "lc",
            "le_nguyen", "levenshtein", "linear_code", "nonbinary_svt", "odd_coefficient", "shifted_vt",
            "tenengolts", "ternary_integer",
        ),
        None, True, None, None,
    ),
    (("--n",), "n", "int", None, None, False, None, None),
    (("--r",), "r", "int", None, None, False, None, None),
    (("--m",), "m", "int", None, None, False, None, None),
    (("--a",), "a", "int", None, 0, False, None, None),
    (("--a1",), "a1", "int", None, None, False, None, None),
    (("--a2",), "a2", "int", None, None, False, None, None),
    (("--b",), "b", "int", None, None, False, None, None),
    (("--c",), "c", "int", None, None, False, None, None),
    (("--t",), "t", "int", None, None, False, None, None),
    (("--p",), "p", "int", None, None, False, None, None),
    (("--parity",), "parity", "int", None, None, False, None, None),
    (("--variant",), "variant", None, (">", ">=", "<", "<="), ">", False, None, None),
    (("--h",), "h", "int_list", None, None, False, None, "comma-separated weight vector, e.g. 1,2,3,4"),
    (("--H",), "rows", "int_matrix", None, None, False, "H", "semicolon-separated matrix rows, e.g. 1,1;0,1"),
)
METHOD_DECLARATION = (("--method",), "method", None, ("auto", "closed", "theorem1", "oracle"), "auto", False, None, None)
FORMAT_DECLARATION = (("--format",), "format", None, ("text", "json", "csv"), "text", False, None, None)
BUDGET_DECLARATION = (
    ("--budget",), "budget", "int", None, None, False, None, "enumeration budget (default 10000000)"
)
DECLARATION = (
    "ntcodes",
    "exact weight enumerators and cardinalities for congruence-defined codes",
    [
        (
            "enum", "compute a weight enumerator", {"handler": "_cmd_compute"},
            [
                *FAMILY_DECLARATION,
                (("--kind",), "kind", None, ("extended", "complete", "hamming"), "hamming", False, None, None),
                METHOD_DECLARATION,
                FORMAT_DECLARATION,
                BUDGET_DECLARATION,
            ],
        ),
        (
            "card", "compute a cardinality", {"handler": "_cmd_compute", "kind": "cardinality"},
            [*FAMILY_DECLARATION, METHOD_DECLARATION, FORMAT_DECLARATION, BUDGET_DECLARATION],
        ),
        (
            "verify", "sweep the chosen routes against brute force", {"handler": "_cmd_verify"},
            [
                (
                    ("--family",), "family", None, ("tenengolts", "lc", "blc", "sc", "macwilliams", "all"), "all",
                    False, None, None,
                ),
                (("--max-n",), "max_n", "int", None, 4, False, None, None),
                (("--max-r",), "max_r", "int", None, 3, False, None, None),
                (("--max-m",), "max_m", "int", None, 8, False, None, None),
                (("--count",), "count", "int", None, 10, False, None, None),
                (("--seed",), "seed", "int", None, 0, False, None, None),
                FORMAT_DECLARATION,
                BUDGET_DECLARATION,
            ],
        ),
        (
            "table", "print a desk-reference table", {"handler": "_cmd_table"},
            [((), "name", None, ("t33", "t23", "t33enum"), None, True, None, None), BUDGET_DECLARATION],
        ),
        (
            "macwilliams", "duality report for a linear code over Z_r", {"handler": "_cmd_macwilliams"},
            [
                (("--r",), "r", "int", None, None, True, None, None),
                (("--H",), "rows", "int_matrix", None, None, True, "H", "matrix rows, e.g. 1,1;0,1"),
                FORMAT_DECLARATION,
                BUDGET_DECLARATION,
            ],
        ),
    ],
)


def declaration(parser):
    """prog, description and each subcommand's name, help, set_defaults and
    arguments but help, in order, as the parser holds them."""

    def argument(action):
        choices = None if action.choices is None else tuple(action.choices)
        return (
            tuple(action.option_strings), action.dest, getattr(action.type, "__name__", action.type), choices,
            action.default, action.required, action.metavar, action.help,
        )

    commands = next(action for action in parser._actions if action.dest == "command")
    helps = {action.dest: action.help for action in commands._choices_actions}
    return (
        parser.prog,
        parser.description,
        [
            (
                name, helps[name], {key: getattr(value, "__name__", value) for key, value in sub._defaults.items()},
                [argument(action) for action in sub._actions if not isinstance(action, argparse._HelpAction)],
            )
            for name, sub in commands.choices.items()
        ],
    )


def test_the_parser_declares_what_it_declared_before_the_table():
    parser = build_parser()
    assert declaration(parser) == DECLARATION
    assert next(action for action in parser._actions if action.dest == "command").required
