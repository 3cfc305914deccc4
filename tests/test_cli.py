import argparse
import inspect
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ntcodes.cli
import ntcodes.macwilliams
from ntcodes.cli import _family_params, build_parser, main
from ntcodes.codes import FAMILIES
from ntcodes.enumerators import enumerator_from_dict, lc_hamming, tenengolts_hamming


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
    from ntcodes.enumerators import Enumerator
    from ntcodes.exactalg import MultiPoly

    def wrong(n, r, a1, a2, variant=">"):
        return Enumerator("hamming", MultiPoly(("w",), {(0,): 999}), "closed_form")

    monkeypatch.setattr("ntcodes.enumerators.tenengolts_hamming", wrong)
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
    # every route is picked by `compute`; the CLI names none of them
    import ntcodes.cli

    routes = ("lc_hamming", "tenengolts_hamming", "tenengolts_cardinality", "theorem1_extended", "oracle_extended")
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


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enum", "nonsense", "--n", "3"])
    assert info.value.code == 2
    # missing a required family parameter
    code, _, err = run(capsys, "enum", "tenengolts", "--n", "3", "--r", "3", "--a1", "0")
    assert code == 2 and "a2" in err
    code, _, err = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "5", "--a2", "0")
    assert code == 2


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
        (("table", "t33", "--budget", "1"), "enumerating 3^3 words"),
    ],
    ids=["oracle-words", "residue-bound", "exact-bound", "residue-no-power", "exact-no-weights", "table"],
)
def test_refusals_exit_three_at_any_size(capsys, argv, text):
    # a bound past 2^64 prints as a power of two, so no refusal trips the
    # 4300-digit limit; no r^n or weight vector is built before the check;
    # a table prints nothing before it is refused
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert (code, out) == (3, "")
    assert f"{text} exceeds the budget" in err
    if argv[1] == "binary_vt" and "oracle" not in argv:
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
    # a divisor sum ignores the budget, so a negative one is refused up front
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
    main(list(argv))
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


def test_integrality_violation_exit_four(capsys, monkeypatch):
    from ntcodes.exactalg import NonDivisibleError

    def explode(*args, **kwargs):
        raise NonDivisibleError("simulated kernel bug")

    monkeypatch.setattr("ntcodes.enumerators.tenengolts_cardinality", explode)
    code, _, err = run(capsys, "card", "tenengolts", "--n", "3", "--r", "3", "--a1", "0", "--a2", "0")
    assert code == 4
    assert "integrality" in err


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
