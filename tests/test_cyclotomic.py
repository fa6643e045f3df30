import math
import re
from operator import add, eq, mul, sub

import pytest
from hypothesis import assume, given, settings, strategies as st

from aprings.annihilator import IntegerRoots, RootSpec, RootsOfUnity, _sums, root_sum_set
from aprings.cyclotomic import (
    MAX_CYCLOTOMIC_ORDER,
    CyclotomicInteger,
    _galois_action,
    _rotation,
    _times,
    cyclotomic_polynomial,
    euler_phi,
    poly_from_roots,
)
from aprings.errors import NonIntegerCoefficient, UnsupportedOrder
from aprings.intpoly import IntPolynomial
from aprings.rings import bundled_model


def test_cyclotomic_base_cases():
    assert cyclotomic_polynomial(1) == IntPolynomial((-1, 1))
    assert cyclotomic_polynomial(4) == IntPolynomial((1, 0, 1))
    assert cyclotomic_polynomial(8) == IntPolynomial((1, 0, 0, 0, 1))
    assert cyclotomic_polynomial(12) == IntPolynomial((1, 0, -1, 0, 1))


@pytest.mark.parametrize("m", range(1, 65))
def test_divisor_product_identity(m):
    product = IntPolynomial.constant(1)
    for d in range(1, m + 1):
        if m % d == 0:
            product = product * cyclotomic_polynomial(d)
    assert product == IntPolynomial.monomial(m) - 1


def test_degree_cap():
    with pytest.raises(
        UnsupportedOrder, match=r"deg Phi_101 = 100 exceeds the limit max_cyclotomic_degree = 64"
    ):
        cyclotomic_polynomial(101)


def test_order_cap_is_checked_before_the_order_is_factored():
    # phi(m) >= sqrt(m/2), so no order above 2 * 64^2 has a degree within the cap
    assert all(2 * euler_phi(m) ** 2 >= m for m in range(1, MAX_CYCLOTOMIC_ORDER + 1))
    assert MAX_CYCLOTOMIC_ORDER == 8192
    with pytest.raises(UnsupportedOrder, match=r"^deg Phi_8192 = 4096 exceeds the limit "):
        cyclotomic_polynomial(8192)
    message = (r"^deg Phi_m exceeds the limit max_cyclotomic_degree = 64: the order m = "
               r"8193 is above 8192, and phi\(m\) >= sqrt\(m/2\)$")
    with pytest.raises(UnsupportedOrder, match=message):
        cyclotomic_polynomial(8193)


def test_roots_of_unity():
    assert CyclotomicInteger.zeta(2, 1) == -1
    assert CyclotomicInteger.zeta(4, 3) == -1 * CyclotomicInteger.zeta(4, 1)
    assert CyclotomicInteger.zeta(1, 0) == 1
    for m in (1, 2, 3, 4, 6, 8, 12):
        z = CyclotomicInteger.zeta(m)
        assert z**m == 1


def test_i_squared():
    i = CyclotomicInteger.zeta(4)
    assert i * i == -1


def test_gaussian_product():
    i = CyclotomicInteger.zeta(4)
    assert (1 + i) * (1 - i) == 2


def test_additive_inverse():
    z = CyclotomicInteger.zeta(8)
    assert (1 + z) + (-1 - z) == 0


def test_as_rational_integer():
    assert CyclotomicInteger.from_int(5).as_int() == 5
    assert CyclotomicInteger.zeta(4).as_int() is None
    i = CyclotomicInteger.zeta(4)
    assert ((1 + i) + (1 - i)).as_int() == 2


def test_cross_order_equality_and_hash():
    """A value keeps its order: an operation on values of two orders is a
    fault, never a silent False, even where the two are equal as complex
    numbers; a rational value still equals and hashes like its int."""
    i4 = CyclotomicInteger.zeta(4)
    i8 = CyclotomicInteger.zeta(8) ** 2
    two_at_8 = CyclotomicInteger.from_int(2, 8)
    for operation in (add, sub, mul, eq):
        for a, b in ((i4, i8), (two_at_8, CyclotomicInteger.from_int(2, 4))):
            with pytest.raises(ValueError, match=rf"orders {a.order} and {b.order}\b"):
                operation(a, b)
    assert i4 == CyclotomicInteger(4, (0, 1)) and i4 != -i4
    assert two_at_8 == 2 and two_at_8 != 3
    assert hash(two_at_8) == hash(2)
    assert hash(i4) == hash(i4.coords)
    assert {two_at_8, 2} == {2}
    assert len({i4, CyclotomicInteger.zeta(4, 5)}) == 1


def test_sum_set_values_hash_apart():
    # the 704 values of T_3 for mu_16, whose traces take only 6 values
    values = root_sum_set(RootSpec.unity(16), 3).elements
    assert len(values) == 704
    assert len({hash(v) for v in values}) >= 600
    assert len(set(values)) == 704


def conjugate(x):
    """The complex conjugate of x: the last automorphism of `_galois_action`
    (a = m - 1 is the largest unit below m), applied to its coordinates."""
    rows = _galois_action(x.order)[-1]
    return CyclotomicInteger(x.order, [sum(a * b for a, b in zip(x.coords, row)) for row in rows])


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 15])
def test_conjugate_inverts_zeta_and_is_a_ring_automorphism(m):
    d = euler_phi(m)
    x = CyclotomicInteger(m, [3 * j - 2 for j in range(d)])
    y = CyclotomicInteger(m, [(-1) ** j * (j + 1) for j in range(d)])
    for j in range(m):
        assert conjugate(CyclotomicInteger.zeta(m, j)) == CyclotomicInteger.zeta(m, -j)
    assert conjugate(x * y) == conjugate(x) * conjugate(y)
    assert conjugate(x + y) == conjugate(x) + conjugate(y)
    assert conjugate(conjugate(x)) == x
    assert conjugate(CyclotomicInteger.from_int(-7, m)) == -7


def test_poly_from_roots_simple():
    roots = [CyclotomicInteger.from_int(v) for v in (-1, 1)]
    assert poly_from_roots(roots) == IntPolynomial((-1, 0, 1))
    roots = [CyclotomicInteger.from_int(v) for v in (-2, 0, 2)]
    assert poly_from_roots(roots) == IntPolynomial((0, -4, 0, 1))


def test_poly_from_roots_gaussian():
    i = CyclotomicInteger.zeta(4)
    roots = [1 + i, 1 - i, -1 + i, -1 - i]
    roots += [CyclotomicInteger.from_int(v, 4) for v in (-2, 2, 0)]
    roots += [2 * i, -2 * i]
    p = poly_from_roots(roots)
    # x (x^4 - 16) (x^4 + 4)
    expected = (
        IntPolynomial.x()
        * (IntPolynomial.monomial(4) - 16)
        * (IntPolynomial.monomial(4) + 4)
    )
    assert p == expected


def test_poly_from_roots_evaluates_to_zero_at_roots():
    z = CyclotomicInteger.zeta(8)
    roots = [z**j for j in range(8)]
    p = poly_from_roots(roots)
    assert p == IntPolynomial.monomial(8) - 1
    for r in roots:
        assert p(r) == 0


def test_poly_from_roots_rejects_unstable_sets():
    with pytest.raises(NonIntegerCoefficient):
        poly_from_roots([CyclotomicInteger.zeta(4)])


def test_poly_from_roots_rejects_a_missing_conjugate():
    t2 = root_sum_set(RootSpec.unity(8), 2).elements
    assert poly_from_roots(t2).degree == len(t2)
    irrational = [r for r in t2 if r.as_int() is None]
    for dropped in (irrational[0], irrational[-1]):
        with pytest.raises(NonIntegerCoefficient):
            poly_from_roots([r for r in t2 if r != dropped])


def test_poly_from_roots_rejects_duplicates():
    t2 = list(root_sum_set(RootSpec.unity(4), 2).elements)
    with pytest.raises(ValueError, match="^duplicate roots$"):
        poly_from_roots(t2 + [t2[1]])


def test_poly_from_roots_refuses_mixed_orders():
    i = CyclotomicInteger.zeta(12, 3)
    w = CyclotomicInteger.zeta(12, 4)
    roots = [i, -i, w, w * w, CyclotomicInteger.from_int(2, 12)]
    # (x^2 + 1)(x^2 + x + 1)(x - 2)
    expected = IntPolynomial((1, 0, 1)) * IntPolynomial((1, 1, 1)) * IntPolynomial((-2, 1))
    assert poly_from_roots(roots) == expected
    assert poly_from_roots(at_order(r, 24) for r in roots) == expected
    with pytest.raises(ValueError, match=r"orders 12 and 1\b"):
        poly_from_roots(roots[:-1] + [CyclotomicInteger.from_int(2)])
    with pytest.raises(ValueError, match=r"orders 4 and 8\b"):
        poly_from_roots([CyclotomicInteger.zeta(4), CyclotomicInteger.zeta(8) ** 2])


def reference_poly_from_roots(roots):
    """The quadratic expansion of prod (X - sigma) with every coefficient
    in Z[zeta_m], descended to Z at the end: an independent reference."""
    rs = list(roots)
    target = rs[0].order
    coeffs = [CyclotomicInteger.from_int(1, target)]
    for sigma in rs:
        nxt = [CyclotomicInteger.from_int(0, target)] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] = nxt[k + 1] + c
            nxt[k] = nxt[k] - sigma * c
        coeffs = nxt
    values = [c.as_int() for c in coeffs]
    assert None not in values
    return IntPolynomial(values)


@st.composite
def root_specs(draw):
    """A spec of one root atom, or of an integer atom next to mu_m."""
    kind = draw(st.sampled_from(["unity", "integers", "mixed"]))
    if kind == "integers":
        return RootSpec.integers(*draw(st.sets(st.integers(-4, 4), min_size=1, max_size=4)))
    m = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12, 16]))
    if kind == "unity":
        return RootSpec.unity(m)
    in_mu = {1, -1} if m % 2 == 0 else {1}
    values = draw(st.sets(st.integers(-4, 4).filter(lambda v: v not in in_mu), min_size=1, max_size=2))
    return RootSpec((RootsOfUnity(m), IntegerRoots(tuple(values))))


@settings(max_examples=60, deadline=None)
@given(
    root_specs(),
    st.integers(1, 3),
    st.sampled_from(["signed", "unsigned"]),
    st.randoms(use_true_random=False),
)
def test_poly_from_roots_matches_reference_expansion(spec, n, mode, rnd):
    roots = list(_sums(spec, n, mode, 20000))
    order = roots[0].order
    assume(len(roots) * euler_phi(order) <= 600)
    rnd.shuffle(roots)
    assert poly_from_roots(roots) == reference_poly_from_roots(roots)


def stabiliser_order(roots):
    """The k of poly_from_roots' quotient step: the nonzero roots are a
    union of mu_k-classes, and p = X^[0 is a root] * G(X^k)."""
    m = roots[0].order
    keys = {r.coords for r in roots}
    return _rotation(m, keys - {(0,) * len(next(iter(keys)))})[0]


def integers(*values):
    return [CyclotomicInteger.from_int(v) for v in values]


def gaussians(*pairs):
    i = CyclotomicInteger.zeta(4)
    return [a + b * i for a, b in pairs]


def mu(m):
    return [CyclotomicInteger.zeta(m, j) for j in range(m)]


GAUSSIAN_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
MU4_AND_0_2 = RootSpec((RootsOfUnity(4), IntegerRoots((0, 2))))

EVEN_STEP_CASES = {
    # name: (roots, stabiliser order k)
    "integers": (integers(-3, -1, 1, 3), 2),
    "integers and 0": (integers(-3, -1, 0, 1, 3), 2),
    # +-(1 + i), +-(1 - i) is one mu_4-class, whose fourth power is -4
    "gaussians": (gaussians(*GAUSSIAN_PAIRS), 4),
    "gaussians and 0": (gaussians(*GAUSSIAN_PAIRS, (0, 0)), 4),
    "mu4": (mu(4), 4),
    "mu8": (mu(8), 8),
    # symmetric except for one +- pair: no symmetry to use
    "integers, one pair broken": (integers(-3, -1, 1, 2, 3), 1),
    "gaussians, one pair broken": (gaussians(*GAUSSIAN_PAIRS, (2, 0)), 1),
    "signed T_2 of mu12": (root_sum_set(RootSpec.unity(12), 2).elements, 12),
    # mu_10 = +-mu_5 lies in Q(zeta_5)
    "signed T_2 of mu5": (root_sum_set(RootSpec.unity(5), 2).elements, 10),
    "unsigned T_2 of mu5": (root_sum_set(RootSpec.unity(5), 2, "unsigned").elements, 5),
    # {0, 4, 8, 12}: the nonzero roots are not closed under negation
    "unsigned T_3 of pfister {0, 4}": (
        root_sum_set(RootSpec.integers(0, 4), 3, "unsigned").elements, 1
    ),
    # i * 2 = 2i is not a root
    "signed T_1 of mu4 and {0, 2}": (root_sum_set(MU4_AND_0_2, 1).elements, 2),
}


@pytest.mark.parametrize("name", EVEN_STEP_CASES)
def test_even_step_matches_reference_expansion(name):
    roots, k = EVEN_STEP_CASES[name]
    assert stabiliser_order(roots) == k
    assert poly_from_roots(roots) == reference_poly_from_roots(roots)


def brute_force_stabiliser_order(roots):
    """The largest k | lcm(2, m) with w * T = T for the nonzero roots T
    and w = zeta_L^(L/k), L = lcm(2, m): products in CyclotomicInteger
    arithmetic at order L, where -1 is a power of zeta."""
    L = math.lcm(2, roots[0].order)
    nonzero = {at_order(r, L).coords for r in roots if not r.is_zero}
    fixing = [
        k for k in range(1, L + 1)
        if L % k == 0
        and {(CyclotomicInteger._reduced(L, t) * CyclotomicInteger.zeta(L, L // k)).coords
             for t in nonzero} == nonzero
    ]
    return max(fixing)


def stabiliser_corpus():
    """Sum sets of single and mixed specs in both modes, each also with
    one root dropped and with one +- pair dropped."""
    specs = [RootSpec.unity(m) for m in (1, 2, 3, 4, 5, 6, 8, 10, 12)] + [
        RootSpec.integers(0, 4), RootSpec.integers(-1, 2), MU4_AND_0_2,
        RootSpec((RootsOfUnity(3), IntegerRoots((0, 2)))),
        RootSpec((RootsOfUnity(5), IntegerRoots((-2,)))),
    ]
    for spec in specs:
        for n in (1, 2):
            for mode in ("signed", "unsigned"):
                roots = list(root_sum_set(spec, n, mode).elements)
                yield roots
                for dropped in roots[:: max(1, len(roots) // 3)]:
                    yield [r for r in roots if r != dropped]
                    yield [r for r in roots if r != dropped and r != -dropped]


def test_stabiliser_order_is_the_largest_fixing_divisor():
    seen = set()
    for roots in stabiliser_corpus():
        if not roots:
            continue
        k = brute_force_stabiliser_order(roots)
        assert stabiliser_order(roots) == k
        seen.add(k)
        # the step map permutes the nonzero roots in cycles of length k
        m = roots[0].order
        nonzero = {r.coords for r in roots if not r.is_zero}
        _, step = _rotation(m, nonzero)
        assert set(step) == set(step.values()) == nonzero
        for t in list(nonzero)[:5]:
            orbit = [t]
            while (t := step[t]) != orbit[0]:
                orbit.append(t)
            assert len(orbit) == k
    assert seen == {1, 2, 3, 4, 5, 6, 8, 10, 12}


@pytest.fixture(scope="module")
def a5_t5():
    """Signed T_5 for the marks of A5 (475 integer roots) and the
    reference expansion of its p_5."""
    roots = root_sum_set(bundled_model("burnside-A5").root_spec(), 5).elements
    return roots, reference_poly_from_roots(roots)


def test_even_step_on_the_burnside_a5_sum_set(a5_t5):
    # 237 +- pairs of integers and 0: 237 rational squares
    roots, reference = a5_t5
    assert len(roots) == 475 and stabiliser_order(roots) == 2
    assert poly_from_roots(roots) == reference


def test_integer_roots_become_linear_factors_without_cyclotomic_products(a5_t5, monkeypatch):
    """Every Galois orbit of an integer root is the root alone, and its
    factor X - a is written down, not expanded in Z[zeta]."""
    roots, reference = a5_t5
    calls = []
    real = CyclotomicInteger.__mul__

    def spy(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(CyclotomicInteger, "__mul__", spy)
    assert poly_from_roots(roots) == reference
    assert calls == []


def test_nested_even_steps_give_x_to_the_m_minus_1():
    for m in (4, 8, 16):
        assert poly_from_roots(mu(m)) == IntPolynomial.monomial(m) - 1


def test_symmetric_set_with_a_missing_conjugate_names_a_given_root():
    with pytest.raises(
        NonIntegerCoefficient, match=r"^the conjugate -1 \+ i of the root -1 - i is missing$"
    ):
        poly_from_roots(gaussians((1, 1), (-1, -1)))
    # drop a +- pair of irrational roots from the symmetric T_2 of mu_8:
    # the squares name no conjugate, the caller's roots do
    t2 = list(root_sum_set(RootSpec.unity(8), 2).elements)
    for dropped in [r for r in t2 if r.as_int() is None][:4]:
        roots = [r for r in t2 if r != dropped and r != -dropped]
        assert stabiliser_order(roots) == 2
        with pytest.raises(NonIntegerCoefficient) as info:
            poly_from_roots(roots)
        match = re.fullmatch(r"the conjugate (.+) of the root (.+) is missing", str(info.value))
        names = {str(r) for r in roots}
        assert match and match.group(1) not in names and match.group(2) in names


def reference_times(m, a, b):
    """The dense product in Z[zeta_m]: every term of the schoolbook
    product, then every high coefficient folded down through every low
    coefficient of Phi_m, zero or not."""
    phi = cyclotomic_polynomial(m).coeffs
    d = len(phi) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(len(out) - 1, d - 1, -1):
        c, out[i] = out[i], 0
        for j in range(d):
            out[i - d + j] -= c * phi[j]
    return tuple(out[:d])


# Phi_3, Phi_5 and Phi_21 have dense low terms; Phi_8, Phi_12, Phi_15 and
# Phi_16 sparse ones; Phi_1 = X - 1 has one
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 3, 5, 8, 12, 15, 16, 21]), st.data())
def test_times_matches_dense_reduction(m, data):
    d = euler_phi(m)
    coords = st.one_of(st.integers(-9, 9), st.just(0), st.integers(-(10**40), 10**40))
    a, b = (tuple(data.draw(st.lists(coords, min_size=d, max_size=d))) for _ in range(2))
    assert _times(m, a, b) == reference_times(m, a, b)
    assert (CyclotomicInteger(m, a) * CyclotomicInteger(m, b)).coords == reference_times(m, a, b)


def test_moebius_and_phi():
    # the primitive n-th roots of unity sum to moebius(n), so the coefficient
    # of x^(phi(n) - 1) in Phi_n is -moebius(n)
    phis = [cyclotomic_polynomial(n) for n in (1, 2, 3, 4, 6, 12)]
    assert [-f.coefficient(f.degree - 1) for f in phis] == [1, -1, -1, 0, 1, 0]
    assert [euler_phi(n) for n in (1, 2, 8, 12)] == [1, 1, 4, 4]


orders = st.sampled_from([1, 2, 3, 4, 6, 8, 12])
small_ints = st.integers(min_value=-9, max_value=9)


@st.composite
def of_one_order(draw, count, orders, ints):
    """count values of one order drawn from orders, with coordinates
    drawn from ints."""
    m = draw(orders)
    d = euler_phi(m)
    return tuple(
        CyclotomicInteger(m, draw(st.lists(ints, min_size=d, max_size=d))) for _ in range(count)
    )


@given(of_one_order(3, orders, small_ints))
def test_ring_axioms(values):
    a, b, c = values
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    assert a * 1 == a and a * 0 == 0


@given(small_ints)
def test_integer_embedding_roundtrip(n):
    assert CyclotomicInteger.from_int(n, 8).as_int() == n


# -- the trusted constructor and int scalars --------------------------------------

any_ints = st.one_of(small_ints, st.sampled_from([0, -1, 10**40, -(10**40)]), st.integers())


def well_formed(x: CyclotomicInteger) -> bool:
    """Coordinates as the validating constructor leaves them: a tuple of
    exactly phi(order) ints (not bools, not subclasses)."""
    return (
        type(x.coords) is tuple
        and len(x.coords) == euler_phi(x.order)
        and all(type(c) is int for c in x.coords)
    )


def validated(x: CyclotomicInteger) -> CyclotomicInteger:
    return CyclotomicInteger(x.order, x.coords)


def same(x: CyclotomicInteger, y: CyclotomicInteger) -> bool:
    return well_formed(x) and x.order == y.order and x.coords == y.coords


def wide_cyclotomics(count: int):
    return of_one_order(count, st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 15]), any_ints)


def spread(x: CyclotomicInteger, target: int) -> list[int]:
    """x's coordinates at the powers of zeta_target, unreduced."""
    step = target // x.order
    vec = [0] * target
    for j, c in enumerate(x.coords):
        vec[j * step] += c
    return vec


def at_order(x: CyclotomicInteger, target: int) -> CyclotomicInteger:
    """x as a value of order target, a multiple of x.order."""
    return CyclotomicInteger(target, spread(x, target))


@settings(max_examples=150, deadline=None)
@given(wide_cyclotomics(2))
def test_every_operation_gives_what_the_validating_constructor_gives(values):
    x, y = values
    m = x.order
    assert same(x + y, CyclotomicInteger(m, [a + b for a, b in zip(x.coords, y.coords)]))
    assert same(x - y, CyclotomicInteger(m, [a - b for a, b in zip(x.coords, y.coords)]))
    assert same(-x, CyclotomicInteger(m, [-c for c in x.coords]))
    product = [0] * (2 * len(x.coords))
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            product[i + j] += a * b
    assert same(x * y, CyclotomicInteger(m, product))
    assert same(CyclotomicInteger.from_int(x.coords[0], x.order), CyclotomicInteger(x.order, x.coords[:1]))
    for value in (x + y, x - y, -x, x * y):
        assert same(value, validated(value))


@settings(max_examples=150, deadline=None)
@given(wide_cyclotomics(1), any_ints)
def test_an_int_operand_acts_as_its_from_int_value(values, n):
    (x,) = values
    embedded = CyclotomicInteger.from_int(n, x.order)
    for got, expected in (
        (x + n, x + embedded),
        (n + x, embedded + x),
        (x - n, x - embedded),
        (n - x, embedded - x),
        (x * n, x * embedded),
        (n * x, embedded * x),
    ):
        assert same(got, expected)


@given(wide_cyclotomics(1), st.booleans())
def test_a_bool_operand_acts_as_0_or_1(values, b):
    (x,) = values
    n = int(b)
    for got, expected in (
        (x + b, x + n),
        (b + x, n + x),
        (x - b, x - n),
        (b - x, n - x),
        (x * b, x * n),
        (b * x, n * x),
    ):
        assert same(got, expected)
    assert same(CyclotomicInteger.from_int(b, x.order), CyclotomicInteger.from_int(n, x.order))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CyclotomicInteger(101, [1]), "deg Phi_101 = 100"),
        (lambda: CyclotomicInteger.zeta(101), "deg Phi_101 = 100"),
        (lambda: CyclotomicInteger.from_int(0, 101), "deg Phi_101 = 100"),
    ],
    ids=["constructor", "zeta", "from_int"],
)
def test_every_construction_path_checks_the_degree_cap(build, message):
    with pytest.raises(
        UnsupportedOrder, match=rf"^{message} exceeds the limit max_cyclotomic_degree = 64$"
    ):
        build()
