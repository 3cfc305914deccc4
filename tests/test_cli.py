import inspect
import json

import pytest

from ntcodes.cli import _family_params, build_parser, main
from ntcodes.codes import FAMILIES
from ntcodes.enumerators import enumerator_from_dict, tenengolts_hamming


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

    monkeypatch.setattr("ntcodes.cli.tenengolts_hamming", wrong)
    code, out, _ = run(capsys, "verify", "--family", "tenengolts", "--max-n", "2", "--max-r", "2")
    assert code == 1
    assert "MISMATCH" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "tenengolts", "--max-n", "0"),
        ("verify", "--family", "lc", "--count", "0"),
    ],
)
def test_verify_empty_sweep_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "selected no checks" in err and "unknown" not in err


def test_verify_deterministic_given_seed(capsys):
    _, first, _ = run(capsys, "verify", "--family", "sc", "--count", "3", "--seed", "42")
    _, second, _ = run(capsys, "verify", "--family", "sc", "--count", "3", "--seed", "42")
    assert first == second


def test_table_t33(capsys):
    code, out, _ = run(capsys, "table", "t33")
    assert code == 0
    assert "{000, 012, 111, 210, 222}" in out
    assert "MISMATCH" not in out


def test_table_t23(capsys):
    code, out, _ = run(capsys, "table", "t23")
    assert code == 0
    assert "{00, 12}" in out and "{21}" in out


def test_table_t33enum(capsys):
    code, out, _ = run(capsys, "table", "t33enum")
    assert code == 0
    assert "1 + 2*w^2 + 2*w^3" in out
    assert "cardinality: 5" in out


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


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CODES_BUDGET", "100")
    code, _, err = run(
        capsys,
        "enum", "lc", "--n", "10", "--m", "3", "--r", "4",
        "--h", "1,1,1,1,1,1,1,1,1,1", "--a", "0",
        "--method", "oracle",
    )
    assert code == 3


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
