import pytest
from hypothesis import given
from hypothesis import strategies as st

from ntcodes.exactalg import (
    CycElement,
    MultiPoly,
    NonDivisibleError,
    NotAnIntegerError,
    cyc_root,
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
    assert cyc_root(1, 0) == 1
    assert cyc_root(4, 2) == -1
    assert cyc_root(6, 3) == -1
    assert (cyc_root(6, 3) + 1).is_zero()


def test_root_products_and_sums():
    assert cyc_root(3, 1) * cyc_root(3, 2) == 1
    total = cyc_root(5, 1) + cyc_root(5, 2) + cyc_root(5, 3) + cyc_root(5, 4)
    assert total == -1
    a = cyc_root(12, 5)
    assert 0 + a == a


def test_geometric_sum_lemma():
    # sum over j in [m] of e(A j / m) equals m when m | A and 0 otherwise;
    # theorem 1's residue filter rests on this identity
    for m in range(1, 31):
        for A in range(-m, 2 * m + 1):
            expected = m if A % m == 0 else 0
            total = CycElement.integer(0, m)
            vec = [0] * m
            for j in range(m):
                total = total + cyc_root(m, A * j)
                vec[A * j % m] += 1
            assert total.to_integer() == expected
            # the same sum built directly in the group-ring basis
            assert CycElement(m, vec).to_integer() == expected


def test_embed_examples():
    assert cyc_root(2, 1).embed(6) == cyc_root(6, 3)
    assert CycElement.integer(5).embed(7) == 5
    assert cyc_root(3, 1).embed(12) == cyc_root(12, 4)
    with pytest.raises(ValueError):
        cyc_root(4, 1).embed(6)


def test_to_integer_examples():
    assert CycElement.integer(7, 12).to_integer() == 7
    assert (cyc_root(3, 1) + cyc_root(3, 2)).to_integer() == -1
    with pytest.raises(NotAnIntegerError):
        cyc_root(4, 1).to_integer()


def test_embed_preserves_integer_value():
    for order in (1, 2, 3, 4, 6):
        for value in (-3, 0, 5):
            elem = CycElement.integer(value, order)
            assert elem.embed(order * 4).to_integer() == value


def test_mixed_order_arithmetic_embeds_automatically():
    # e(1/2) * e(1/3) = e(5/6)
    assert cyc_root(2, 1) * cyc_root(3, 1) == cyc_root(6, 5)
    assert cyc_root(2, 1) + cyc_root(3, 0) == cyc_root(6, 3) + 1


small_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 24])


@st.composite
def cyc_elements(draw, order=None):
    if order is None:
        order = draw(small_orders)
    coeffs = draw(
        st.lists(st.integers(-4, 4), min_size=order, max_size=order)
    )
    return CycElement(order, coeffs)


@given(st.data(), small_orders)
def test_ring_axioms(data, order):
    a = data.draw(cyc_elements(order=order))
    b = data.draw(cyc_elements(order=order))
    c = data.draw(cyc_elements(order=order))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.data(), small_orders)
def test_power_matches_repeated_product(data, order):
    a = data.draw(cyc_elements(order=order))
    prod = CycElement.integer(1, order)
    for k in range(5):
        assert a**k == prod
        prod = prod * a


# ---------------------------------------------------------------------------
# MultiPoly


def w_poly(text):
    return MultiPoly.parse(text, ("w",))


def test_poly_basic_ops():
    w = MultiPoly(("w",), {(1,): 1})
    one = MultiPoly.constant(("w",), 1)
    assert (one + w) * (one - w) == w_poly("1 + -1*w^2")
    assert (one + w) ** 0 == one
    assert (one + w) ** 3 == w_poly("1 + 3*w + 3*w^2 + w^3")


def test_substitute_paper_example():
    ws = ("w0", "w1", "w2")
    poly = MultiPoly(
        ws, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    w = MultiPoly(("w",), {(1,): 1})
    collapsed = poly.substitute({"w0": 1, "w1": w, "w2": w}, variables=("w",))
    assert str(collapsed) == "1 + 2*w^2 + 2*w^3"


def test_substitute_with_cyclotomic_values():
    poly = MultiPoly(("q",), {(0,): 1, (1,): 1, (2,): 1})
    value = poly.evaluate({"q": cyc_root(3, 1)})
    assert value.to_integer() == 0


def test_divide_exact():
    p = w_poly("3 + 6*w")
    assert p.divide_exact(3) == w_poly("1 + 2*w")
    with pytest.raises(NonDivisibleError):
        w_poly("2 + 3*w").divide_exact(2)
    assert MultiPoly.zero(("w",)).divide_exact(5) == MultiPoly.zero(("w",))


def test_divide_exact_cyclotomic_coefficients():
    coeff = cyc_root(3, 1) * 6
    poly = MultiPoly(("w",), {(1,): coeff})
    halved = poly.divide_exact(3)
    assert halved.terms[(1,)] == cyc_root(3, 1) * 2
    with pytest.raises(NonDivisibleError):
        poly.divide_exact(4)


def test_canonical_text_format():
    ws = ("w0", "w1", "w2")
    poly = MultiPoly(
        ws, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 3, 0): 1, (0, 0, 3): 1}
    )
    assert str(poly) == "w0^3 + 2*w0*w1*w2 + w1^3 + w2^3"
    assert str(MultiPoly.zero(ws)) == "0"
    assert str(MultiPoly.constant(ws, -2)) == "-2"


def test_parse_round_trip_fixed_point():
    text = "1 + 2*w^2 + 2*w^3"
    assert str(w_poly(text)) == text


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
    again = MultiPoly.parse(text, poly.variables)
    assert again == poly
    assert str(again) == text


@given(random_polys(), random_polys(), random_polys())
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_variable_union_alignment():
    a = MultiPoly(("x",), {(1,): 1})
    b = MultiPoly(("y",), {(1,): 1})
    both = a + b
    assert set(both.variables) == {"x", "y"}
    assert both.evaluate({"x": 2, "y": 3}) == 5


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        MultiPoly(("w",), {(-1,): 1})


def test_evaluate_at_ones_counts_terms():
    poly = w_poly("1 + 2*w^2 + 2*w^3")
    assert poly.evaluate({"w": 1}) == 5
