import pytest
from hypothesis import given, strategies as st

from aprings.intpoly import IntPolynomial, balanced_product

coeff_lists = st.lists(st.integers(min_value=-50, max_value=50), max_size=8)
# coefficients straddling the byte boundaries of the Kronecker digit width
wide_coeffs = st.one_of(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.sampled_from([127, 128, -128, -129, 255, 256, -256, 2**63, -(2**63), 2**64 - 1]),
)
wide_lists = st.lists(wide_coeffs, max_size=24)


def schoolbook(a, b):
    """Reference product: the quadratic coefficient loop."""
    if not a or not b:
        return IntPolynomial()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return IntPolynomial(out)


def test_normalization_strips_trailing_zeros():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).is_zero
    assert IntPolynomial().degree == -1


def test_from_roots_collapses_duplicates():
    p = IntPolynomial.from_roots([1, -1, 1])
    assert p == IntPolynomial((-1, 0, 1))


def test_from_roots_of_nothing_is_one():
    assert IntPolynomial.from_roots([]) == 1


def test_balanced_product():
    factors = [IntPolynomial((-r, 1)) for r in range(-3, 4)]
    expected = IntPolynomial.constant(1)
    for f in factors:
        expected = schoolbook(expected.coeffs, f.coeffs)
    assert balanced_product(factors) == expected
    assert balanced_product(iter(factors)) == IntPolynomial.from_roots(range(-3, 4))
    assert balanced_product([]) == 1
    assert balanced_product([IntPolynomial((2, 3))]) == IntPolynomial((2, 3))


def test_str_rendering():
    assert str(IntPolynomial((-1, 0, 1))) == "x^2 - 1"
    assert str(IntPolynomial((0, -4, 0, 1))) == "x^3 - 4*x"
    assert str(IntPolynomial()) == "0"


def test_eval_at_int():
    p = IntPolynomial((9, 0, -10, 0, 1))
    assert p(3) == 0 and p(1) == 0 and p(0) == 9


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


def test_json_roundtrip():
    p = IntPolynomial((10**30, -2, 3))
    assert IntPolynomial(int(c) for c in p.to_json()) == p
    assert p.to_json()[0] == str(10**30)


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
