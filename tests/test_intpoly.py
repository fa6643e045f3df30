from decimal import Decimal
from functools import reduce
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from aprings.annihilator import annihilating_polynomial, root_sum_set
from aprings.cyclotomic import CyclotomicInteger
from aprings.intpoly import (
    _HORNER_TERMS,
    IntPolynomial,
    decimal_str,
    format_terms,
    packed_product,
    repeated_doubling,
)
from aprings.rings import _scaled, bundled_model

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
# coefficients straddling the byte boundaries of the Kronecker digit width
wide_coeffs = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([127, 128, -128, -129, 255, 256, -256, 2**63, -(2**63), 2**64 - 1]),
)
wide_lists = st.lists(wide_coeffs, max_size=24)
# +-(2^(8k) - 1), the largest magnitude k bytes hold, and +-2^(8k), one past it
byte_edges = st.builds(
    lambda k, sign, less: sign * (2 ** (8 * k) - less),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([1, -1]),
    st.sampled_from([0, 1]),
)
factor_lists = st.lists(
    st.lists(st.one_of(st.just(0), wide_coeffs, byte_edges), min_size=1, max_size=6),
    max_size=6,
)


def schoolbook(a, b):
    """Reference product: the quadratic coefficient loop."""
    if not a or not b:
        return IntPolynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return IntPolynomial(out)


def schoolbook_product(factors):
    """Reference product of many factors: schoolbook, one factor at a time."""
    return reduce(lambda p, f: schoolbook(p.coeffs, f.coeffs), factors, IntPolynomial.constant(1))


def reference_tree_product(factors):
    """Reference product of many factors (1 for none), multiplied pairwise
    level by level as a balanced product tree."""
    level = list(factors)
    if not level:
        return IntPolynomial.constant(1)
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)] + odd
    return level[0]


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial().degree == -1


def test_from_roots_collapses_duplicates():
    p = IntPolynomial.from_roots([1, -1, 1])
    assert p == IntPolynomial((-1, 0, 1))


def test_from_roots_of_nothing_is_one():
    assert IntPolynomial.from_roots([]) == 1


def test_packed_product():
    factors = [IntPolynomial((-r, 1)) for r in range(-3, 4)]
    assert packed_product(factors) == schoolbook_product(factors)
    assert packed_product(iter(factors)) == IntPolynomial.from_roots(range(-3, 4))
    assert packed_product([]) == 1
    assert packed_product([IntPolynomial((2, 3))]) == IntPolynomial((2, 3))
    assert packed_product([IntPolynomial((2, 3)), IntPolynomial(), IntPolynomial((1, 1))]).is_zero
    # a factor with zero inner coefficients still shifts once per degree
    factors = [IntPolynomial((1, 0, 1)), IntPolynomial((-2, 0, 0, 3)), IntPolynomial((0, 5))]
    assert packed_product(factors) == schoolbook_product(factors)


def test_packed_product_at_byte_edges():
    # one factor whose coefficients fill whole bytes: the width has no slack
    for k in (1, 2, 3, 9):
        for c in (2 ** (8 * k), 2 ** (8 * k) - 1, -(2 ** (8 * k)), -(2 ** (8 * k) - 1)):
            for coeffs in ((c,), (c, 1), (1, c), (c, 0, -c), (0, c)):
                f = IntPolynomial(coeffs)
                assert packed_product([f]) == f
                assert packed_product([f, IntPolynomial((1, 1))]) == schoolbook(coeffs, (1, 1))


@given(factor_lists)
def test_packed_product_matches_references(lists):
    factors = [IntPolynomial(cs) for cs in lists]
    expected = schoolbook_product(factors)
    assert packed_product(factors) == expected
    assert reference_tree_product(factors) == expected


@pytest.mark.parametrize("length", [_HORNER_TERMS, _HORNER_TERMS + 1, 300])
def test_packed_product_of_long_factors(length):
    # factors longer than _HORNER_TERMS are packed, not applied by Horner
    rng = Random(length)
    edges = (0, 1, -1, 127, -128, 255, -256, 2**64 - 1, -(2**200))
    longs = [IntPolynomial([rng.choice(edges) for _ in range(length - 1)] + [3]) for _ in range(2)]
    factors = [IntPolynomial((1, -2)), longs[0], IntPolynomial((0, 5, 7)), longs[1]]
    assert packed_product(factors) == schoolbook_product(factors)
    assert longs[0] * longs[1] == schoolbook(longs[0].coeffs, longs[1].coeffs)


@pytest.mark.parametrize("n", range(1, 6))
def test_burnside_a5_p_n_matches_schoolbook(n):
    """p_1..p_5 of Burnside(A5), up to 475 integer roots and 3072-bit
    coefficients, against a schoolbook expansion of their roots."""
    spec = bundled_model("burnside-A5").root_spec()
    coeffs = [1]
    for e in root_sum_set(spec, n).elements:
        r = e.as_int()
        # multiply by (x - r): c_i <- c_(i-1) - r c_i
        coeffs = [-r * coeffs[0]] + [a - r * b for a, b in zip(coeffs, coeffs[1:])] + [1]
    assert annihilating_polynomial(spec, n) == IntPolynomial(coeffs)


def test_str_rendering():
    assert str(IntPolynomial((-1, 0, 1))) == "x^2 - 1"
    assert str(IntPolynomial((0, -4, 0, 1))) == "x^3 - 4*x"
    assert str(IntPolynomial()) == "0"


def test_eval_at_int():
    p = IntPolynomial((9, 0, -10, 0, 1))
    assert p(3) == 0 and p(1) == 0 and p(0) == 9


def dense_horner(coeffs, value):
    """Horner's rule over every coefficient, zeros included: the reference."""
    result = 0
    for c in reversed(coeffs):
        result = result * value + c
    return result


@st.composite
def decimated_polynomials(draw):
    """X^e G(X^(2^j)): the zero polynomial, constants and pure X^e among
    them, with G drawn sparse or dense."""
    e = draw(st.integers(0, 6))
    spread = 2 ** draw(st.integers(0, 3))
    g = draw(st.lists(st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70)), max_size=5))
    coeffs = [0] * (e + spread * max(len(g) - 1, 0) + 1)
    coeffs[e::spread] = g or [0]
    return coeffs


cyclotomic_values = st.builds(
    lambda m, cs: CyclotomicInteger(m, cs),
    st.sampled_from([1, 4, 5, 8, 12]),
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
)


@given(
    st.one_of(decimated_polynomials(), st.lists(st.integers(-9, 9), max_size=9)),
    st.one_of(st.integers(-5, 5), st.integers(-(2**40), 2**40), cyclotomic_values),
)
@example([], 3)
@example([], CyclotomicInteger.zeta(8))
@example([-7], 3)
@example([-7], CyclotomicInteger.zeta(8))
@example([0, 0, 0, 0, 0, 1], -2)
@example([0, 0, 0, 0, 0, 1], CyclotomicInteger.zeta(8))
@example([0, 0, 0, 0, 0, 0, 0, 0, 1], CyclotomicInteger.zeta(12))
def test_decimated_horner_matches_dense_horner(coeffs, value):
    assert IntPolynomial(coeffs)(value) == dense_horner(coeffs, value)


def test_decimated_horner_steps_over_the_vanishing_coefficients(monkeypatch):
    """X^3 (X^8 - 2) = X^3 G(X^8) with G = Y - 2 takes three squarings to
    reach value^8, two Horner steps, two products for value^3 and one to
    join them: 8 products where dense Horner takes 12."""
    calls = []
    real = CyclotomicInteger.__mul__

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(CyclotomicInteger, "__mul__", spy)
    monkeypatch.setattr(CyclotomicInteger, "__rmul__", spy)
    coeffs = [0, 0, 0, -2] + [0] * 7 + [1]
    z = CyclotomicInteger.zeta(16)
    assert IntPolynomial(coeffs)(z) == CyclotomicInteger.zeta(16, 11) + -2 * CyclotomicInteger.zeta(16, 3)
    calls.clear()
    IntPolynomial(coeffs)(z)
    assert len(calls) == 8
    calls.clear()
    dense_horner(coeffs, z)
    assert len(calls) == 12


def test_divmod_exact_monic():
    a = IntPolynomial.from_roots([1, 2, 3])
    b = IntPolynomial.from_roots([2])
    q, r = divmod(a, b)
    assert r.is_zero
    assert q * b == a
    assert not divmod(a, IntPolynomial.from_roots([5]))[1].is_zero


def test_divmod_inexact_raises():
    with pytest.raises(ValueError):
        divmod(IntPolynomial((0, 1)), IntPolynomial((0, 2)))


@pytest.mark.parametrize("n", [*range(40), 255, 256, 1000, 2**20 + 5])
def test_repeated_doubling_counts_its_operations(n):
    """floor(log2 n) doublings and popcount(n) - 1 combinations with x,
    and none at all for n = 0."""
    calls = []

    def op(a, b):
        calls.append((a, b))
        return a + b

    identity = object()
    assert repeated_doubling(1, n, identity, op) == (n if n else identity)
    doublings = [a for a, b in calls if a == b]
    combinations = [a for a, b in calls if a != b]
    assert all(b == 1 for a, b in calls if a != b)
    assert len(doublings) == max(n.bit_length() - 1, 0)
    assert len(combinations) == max(bin(n).count("1") - 1, 0)


@pytest.mark.parametrize("n", range(12))
def test_every_caller_of_repeated_doubling_matches_repeated_products(n):
    # X^n evaluated at p and at z is the n-th power of the value
    x_n = IntPolynomial.monomial(n)
    p = IntPolynomial((1, -2, 3))
    assert x_n(p) == reduce(lambda a, b: a * b, [p] * n, IntPolynomial.constant(1))
    z = CyclotomicInteger(12, (1, 2, 0, -1))
    assert x_n(z) == reduce(lambda a, b: a * b, [z] * n, CyclotomicInteger.from_int(1, 12))
    for name in ("Z[C2]", "Z8[C2]", "burnside-S3"):
        model = bundled_model(name)
        for element in [g for _, g in model.generators()]:
            total = reduce(model.add, [element] * n, model.zero())
            assert _scaled(model, element, n) == total
            assert _scaled(model, element, -n) == model.neg(total)


def test_json_roundtrip():
    p = IntPolynomial((10**30, -2, 3))
    assert IntPolynomial(int(c) for c in p.to_json()) == p
    assert p.to_json()[0] == str(10**30)


def test_decimal_str_beyond_the_int_string_limit():
    big = -(10 ** 5000) + 7
    text = decimal_str(big)
    assert len(text) == 5001 and int(Decimal(text)) == big
    assert [decimal_str(c) for c in (0, 1, -1, 10 ** 30)] == ["0", "1", "-1", str(10 ** 30)]
    p = IntPolynomial((big, 0, 1))
    assert [int(Decimal(c)) for c in p.to_json()] == [big, 0, 1]
    assert str(p) == f"x^2 - {text[1:]}"
    assert format_terms([(big, "y")]) == f"-{text[1:]}*y"
    # 10**4300 - 1 has 4300 digits, the most the default limit lets `str`
    # print; 10**4300 has 4301
    for n, digits in [(10 ** 4300 - 1, 4300), (10 ** 4300, 4301), (10 ** 4300 + 1, 4301)]:
        for signed in (n, -n):
            text = decimal_str(signed)
            assert len(text.lstrip("-")) == digits and text.startswith("-") == (signed < 0)
            assert int(Decimal(text)) == signed
    assert decimal_str(10 ** 4300 - 1) == "9" * 4300
    assert decimal_str(-(10 ** 4300) - 1) == "-1" + "0" * 4299 + "1"


@given(coeff_lists, coeff_lists)
def test_addition_matches_pointwise_evaluation(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for x in (-2, 0, 1, 3):
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)


@given(coeff_lists, coeff_lists)
def test_multiplication_matches_pointwise_evaluation(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    for x in (-1, 2):
        assert (p * q)(x) == p(x) * q(x)


@given(coeff_lists, st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3))
def test_division_invariant(a, roots):
    p = IntPolynomial(a)
    d = IntPolynomial.from_roots(roots)
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


@given(wide_lists, wide_lists)
def test_multiplication_matches_schoolbook(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    expected = schoolbook(p.coeffs, q.coeffs)
    assert p * q == expected
    assert q * p == expected


def test_multiplication_at_digit_boundaries():
    # product coefficients of exactly +-2^(8k-1), the edge of a signed digit
    for k in (1, 2, 3):
        half = 2 ** (8 * k - 1)
        for p, q in [((half, 1), (1,)), ((-half, 1), (1,)), ((half - 1, -half), (1, 1))]:
            assert IntPolynomial(p) * IntPolynomial(q) == schoolbook(p, q)
    assert IntPolynomial((-1,) * 40) * IntPolynomial((1,) * 40) == schoolbook((-1,) * 40, (1,) * 40)
