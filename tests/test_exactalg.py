import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyclotomic_reference import add, convolve, fold, value
from multipoly_reference import parse
from ntcodes.enumerators import Enumerator, specialize
from ntcodes.exactalg import (
    CycElement,
    MultiPoly,
    NotAnIntegerError,
    cyclotomic_polynomial,
)
from ntcodes.numtheory import divisors


def upoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


# ---------------------------------------------------------------------------
# cyclotomic polynomials


def test_cyclotomic_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)


def test_cyclotomic_product_identity():
    for order in range(1, 25):
        prod = (1,)
        for d in divisors(order):
            prod = upoly_mul(prod, cyclotomic_polynomial(d))
        expected = (-1,) + (0,) * (order - 1) + (1,)
        assert prod == expected


def test_cyclotomic_rejects_non_positive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


# ---------------------------------------------------------------------------
# CycElement


def test_root_examples():
    assert value(fold(1, [(0, 1)])) == 1
    assert value(fold(4, [(2, 1)])) == -1
    assert value(fold(6, [(3, 1)])) == -1
    assert value(fold(6, [(3, 1), (0, 1)])) == 0


def test_root_products_and_sums():
    assert value(convolve(fold(3, [(1, 1)]), fold(3, [(2, 1)]))) == 1
    total = fold(5, [(1, 1), (2, 1), (3, 1), (4, 1)])
    assert value(total) == -1


def test_geometric_sum_lemma():
    # sum over j in [m] of e(A j / m) equals m when m | A and 0 otherwise;
    # theorem 1 keeps the terms at the code's residues by this identity
    for m in range(1, 31):
        for A in range(-m, 2 * m + 1):
            expected = m if A % m == 0 else 0
            total = [0] * m
            vec = [0] * m
            for j in range(m):
                total = add(total, fold(m, [(A * j, 1)]))
                vec[A * j % m] += 1
            assert value(total) == expected
            # the same sum built directly in the group-ring basis
            assert CycElement(m, vec).to_integer() == expected


def test_to_integer_examples():
    assert value(fold(12, [(0, 7)])) == 7
    assert value(fold(3, [(1, 1), (2, 1)])) == -1
    with pytest.raises(NotAnIntegerError):
        value(fold(4, [(1, 1)]))


# ---------------------------------------------------------------------------
# MultiPoly


def w_poly(text):
    return parse(text, ("w",))


def test_substitute_paper_example():
    ws = ("w0", "w1", "w2")
    poly = MultiPoly(
        ws, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    collapsed = specialize(Enumerator("complete", poly, "oracle"), "hamming").poly
    assert str(collapsed) == "1 + 2*w^2 + 2*w^3"


def test_canonical_text_format():
    ws = ("w0", "w1", "w2")
    poly = MultiPoly(
        ws, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    assert str(poly) == "w0^3 + 2*w0*w1*w2 + w1^3 + w2^3"
    assert str(MultiPoly(ws)) == "0"
    assert str(MultiPoly(ws, {(0, 0, 0): -2})) == "-2"


@st.composite
def random_polys(draw):
    variables = ("x", "y")
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        key = (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
        coeff = draw(st.integers(-9, 9))
        terms[key] = terms.get(key, 0) + coeff
    return MultiPoly(variables, terms)


@given(random_polys())
def test_serialize_parse_serialize_fixed_point(poly):
    text = str(poly)
    again = parse(text, poly.variables)
    assert again == poly
    assert str(again) == text


def test_equality_compares_variable_lists():
    # polynomials over different variable lists differ even when the extra
    # variables never appear, and a polynomial never equals an int
    assert MultiPoly(("w0", "w1")) != MultiPoly(("w",))
    assert MultiPoly(("w",), {(0,): 1}) != MultiPoly(("z",), {(0,): 1})
    assert MultiPoly(("x", "y"), {(1, 0): 1}) != MultiPoly(("x",), {(1,): 1})
    assert MultiPoly(("w",), {(2,): 3}) == MultiPoly(("w",), {(2,): 3, (1,): 0})
    assert MultiPoly(("w",), {(0,): 4}) != 4


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(("w",), {(-1,): 1})


def test_evaluate_at_ones_counts_terms():
    poly = w_poly("1 + 2*w^2 + 2*w^3")
    assert Enumerator("hamming", poly, "oracle").cardinality() == 5


def test_multipoly_is_a_plain_value():
    # the routes build term maps; no ring arithmetic, evaluation or parser
    for name in ("__add__", "__mul__", "__pow__", "__sub__", "evaluate", "parse"):
        assert not hasattr(MultiPoly, name), name
