import ast
import inspect
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cyclotomic_reference import add, convolve, fold, value
from multipoly_reference import parse
from ntcodes.enumerators import Enumerator, specialize
from ntcodes.exactalg import (
    CycElement,
    IntegralityError,
    MultiPoly,
    NonDivisibleError,
    NotAnIntegerError,
    cyclotomic_polynomial,
    exact_quotient,
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
    # up to 210 = 2*3*5*7, so orders with three and four distinct primes
    # divide several factors out of the Mobius product
    for order in range(1, 211):
        prod = (1,)
        for d in divisors(order):
            prod = upoly_mul(prod, cyclotomic_polynomial(d))
        expected = (-1,) + (0,) * (order - 1) + (1,)
        assert prod == expected


def test_cyclotomic_rejects_non_positive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_cyclotomic_polynomial_does_not_recurse():
    # the Mobius product needs no smaller cyclotomic polynomial
    cyclotomic_polynomial.cache_clear()
    cyclotomic_polynomial(210)
    assert cyclotomic_polynomial.cache_info().misses == 1


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


@given(st.integers(3, 60), st.data())
def test_to_integer_of_a_multiple_of_phi(order, data):
    # N + Phi_L g is N at every primitive L-th root of unity whatever g is;
    # for L >= 3 the extra zeta is not rational, so the sentinel must fire
    n = data.draw(st.integers(-(10**30), 10**30))
    g = data.draw(st.lists(st.integers(-50, 50), min_size=order, max_size=order))
    phi = fold(order, enumerate(cyclotomic_polynomial(order)))
    vec = add(fold(order, [(0, n)]), convolve(phi, g))
    assert CycElement(order, vec).to_integer() == n
    with pytest.raises(NotAnIntegerError):
        CycElement(order, add(vec, fold(order, [(1, 1)]))).to_integer()


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


def reference_term_sort_key(exps):
    # the canonical order as one key: ascending total degree, ties by descending lex
    return (sum(exps), tuple(-e for e in exps))


def reference_first_bad_term(exponents, width):
    # the term-by-term check: the message for the first bad exponent vector
    for exps in exponents:
        if len(exps) != width:
            return f"exponent vector {exps} does not match {width} variables"
        if any(e < 0 for e in exps):
            return f"negative exponent in {exps}"
    return None


@st.composite
def tied_exponent_sets(draw):
    # small entries over a few variables: many terms share a total degree
    width = draw(st.integers(0, 4))
    return width, draw(st.sets(st.tuples(*[st.integers(0, 3)] * width), max_size=40))


@given(tied_exponent_sets(), st.randoms(use_true_random=False))
def test_sorted_terms_follow_the_reference_key(case, rng):
    width, exponents = case
    exponents = list(exponents)
    rng.shuffle(exponents)
    poly = MultiPoly([f"x{i}" for i in range(width)], {exps: i + 1 for i, exps in enumerate(exponents)})
    expected = sorted(exponents, key=reference_term_sort_key)
    assert [exps for exps, _ in poly.sorted_terms()] == expected
    assert all(poly.terms[exps] == coeff for exps, coeff in poly.sorted_terms())


@given(
    st.integers(0, 3),
    st.dictionaries(
        st.lists(st.integers(-1, 3), min_size=0, max_size=4).map(tuple), st.integers(-1, 1), max_size=8
    ),
)
@example(2, {(0, 1): 0, (2, 0): 3})
@example(1, {(1,): 2, (-1,): 0})
@example(1, {(1,): 1, (0, 0): 1, (-1,): 1})
@example(2, {(1, 0): 1, (0, -1): 0, (1, 2, 3): 1})
def test_multipoly_checks_every_term_and_names_the_first_bad_one(width, terms):
    # zero coefficients are checked too, though they are not kept
    message = reference_first_bad_term(list(terms), width)
    variables = [f"x{i}" for i in range(width)]
    if message is None:
        assert MultiPoly(variables, terms).terms == {exps: c for exps, c in terms.items() if c}
    else:
        with pytest.raises(ValueError) as raised:
            MultiPoly(variables, terms)
        assert str(raised.value) == message


def test_evaluate_at_ones_counts_terms():
    poly = w_poly("1 + 2*w^2 + 2*w^3")
    assert Enumerator("hamming", poly, "oracle").cardinality() == 5


def test_multipoly_is_a_plain_value():
    # the routes build term maps; no ring arithmetic, evaluation or parser
    for name in ("__add__", "__mul__", "__pow__", "__sub__", "evaluate", "parse"):
        assert not hasattr(MultiPoly, name), name


# ---------------------------------------------------------------------------
# the one exact division


def test_exact_quotient_divides_or_raises_naming_what_it_divides():
    assert exact_quotient(81, 9, "cardinality") == 9
    assert exact_quotient(0, 12, "weight-3 coefficient") == 0
    with pytest.raises(NonDivisibleError, match=r"^cardinality: total 82 not divisible by 9$"):
        exact_quotient(82, 9, "cardinality")
    with pytest.raises(IntegralityError, match=r"^weight-2 coefficient: negative quotient -3$") as info:
        exact_quotient(-36, 12, "weight-2 coefficient")
    assert not isinstance(info.value, NonDivisibleError)


def _raisers(name: str) -> set:
    """(file, function) of every raise of `name` under src/ntcodes."""
    found = set()
    src = Path(__file__).resolve().parents[1] / "src" / "ntcodes"
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name) and exc.id == name:
                        found.add((path.name, func.name))
    return found


def _floating_point(path: Path) -> list:
    """(line, what) of every float or complex literal, true division and
    float() call in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float()"))
    return found


def test_no_floating_point_in_the_library():
    # every count is exact: no module may round through a float
    src = Path(__file__).resolve().parents[1] / "src" / "ntcodes"
    for path in sorted(src.glob("*.py")):
        assert _floating_point(path) == [], path.name


def test_non_divisible_error_has_one_home():
    # every exact division goes through exact_quotient, and its callers do
    assert _raisers("NonDivisibleError") == {("exactalg.py", "exact_quotient")}
    import ntcodes.enumerators
    import ntcodes.macwilliams

    for module in (ntcodes.enumerators, ntcodes.macwilliams):
        assert module.exact_quotient is exact_quotient
    for func in (
        ntcodes.enumerators._descent_sum_hamming,
        ntcodes.enumerators.tenengolts_cardinality,
        ntcodes.macwilliams.verify_macwilliams,
    ):
        assert "exact_quotient(" in inspect.getsource(func), func.__name__


def test_not_an_integer_message_formats_huge_coefficients():
    # the sentinel's repr goes through count_text, so a coefficient past the
    # 4300-digit conversion limit cannot turn it into a ValueError
    with pytest.raises(NotAnIntegerError, match=r"CycElement\(3, 2\^16610 \+ 1\*z\^2\)"):
        CycElement(3, (10**5000, 0, 1)).to_integer()
