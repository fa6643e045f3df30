import random
from itertools import combinations, product
from fractions import Fraction
from math import lcm, prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import aprings
from aprings.annihilator import (
    RootSpec,
    annihilating_polynomial,
    root_sum_set,
)
from aprings.cyclotomic import CyclotomicInteger, _galois_action, poly_from_roots
from aprings.errors import (
    CarrierBoundExceeded,
    ExpressionError,
    NonIntegralPullback,
    R2Violation,
)
from aprings.groups import (
    FiniteAbelianGroup,
    SubgroupClass,
    TableOfMarks,
    closure,
    named_group_names,
)
from aprings.intpoly import IntPolynomial
from aprings.rings import (
    FINITE_BUNDLED,
    BurnsideModel,
    FiniteQuotientRing,
    FreeRing,
    GroupRingModel,
    ProductRing,
    ProductZRing,
    RingModel,
    ZRing,
    _hermite_rows,
    annihilated_on_sum_set,
    bundled_model,
    construct_model,
    parse_element,
    poly_eval_in_ring,
    verify_annihilated,
)

from aprings.verification import ANNIHILATION_MODELS

from test_oracle import NAMED, random_generator, random_quotient_cases, random_quotients, zero_ring

MODEL_NAMES = ["Z", "Z^3", "Z[C2]", "Z[C2xC2]", "Z[C4]", "burnside-C2", "Z4[C2]"]

# a ring of 8 elements whose J has 8^8 / 8 = 2^21
LARGE_J = FiniteQuotientRing(
    8,
    FiniteAbelianGroup((2, 2, 2)),
    [(1, 1, 0, 0, 0, 0, 0, 0), (1, 0, 1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 1, 0, 0, 0)],
)


def random_elements(model, count, seed=11, max_length=4):
    rng = random.Random(seed)
    return [model.random_element(rng, max_length) for _ in range(count)]


@pytest.mark.parametrize("name", MODEL_NAMES + ["burnside-A5"])
def test_ring_axioms_on_samples(name):
    model = bundled_model(name)
    xs = random_elements(model, 6)
    zero, one = model.zero(), model.one()
    for a in xs:
        assert model.add(a, zero) == a
        assert model.mul(a, one) == a
        assert model.add(a, model.neg(a)) == zero
        for b in xs:
            assert model.add(a, b) == model.add(b, a)
            assert model.mul(a, b) == model.mul(b, a)
            for c in xs[:3]:
                assert model.mul(a, model.add(b, c)) == model.add(
                    model.mul(a, b), model.mul(a, c)
                )
                assert model.mul(model.mul(a, b), c) == model.mul(a, model.mul(b, c))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_r2_condition_holds(name):
    model = bundled_model(name)
    q = model.generating_polynomial()
    assert q.coeffs[-1] == 1
    for label, s in model.generators():
        assert poly_eval_in_ring(q, s, model) == model.zero(), label


def test_group_ring_zero_divisor_product():
    zc2 = bundled_model("Z[C2]")
    a = parse_element(zc2, "1 + g")
    b = parse_element(zc2, "1 - g")
    assert zc2.mul(a, b) == zc2.zero()


def test_product_z_orthogonal_idempotents():
    p2 = ProductZRing(2)
    e0 = dict(p2.generators())["e0"]
    e1 = dict(p2.generators())["e1"]
    assert p2.mul(e0, e1) == p2.zero()
    assert p2.mul(e0, e0) == e0


def test_burnside_identity_is_all_ones_row():
    b = bundled_model("burnside-A5")
    assert b.ghost_map(b.one()) == (1,) * 9
    for _, x in b.generators():
        assert b.mul(b.one(), x) == x


def test_burnside_c2_multiplication():
    b = bundled_model("burnside-C2")
    free = dict(b.generators())["c1"]  # the free class [G/e]
    assert b.mul(free, free) == b.add(free, free)  # [G/e]^2 = 2 [G/e]


def test_burnside_pullback_failure_detected():
    classes = (
        SubgroupClass(label="1", order=1, size=1, representative=((0, 1, 2, 3),)),
        SubgroupClass(label="2", order=2, size=1, representative=((0, 1, 2, 3),) * 2),
        SubgroupClass(label="4", order=4, size=1, representative=((0, 1, 2, 3),) * 4),
    )
    # the genuine C4 table has middle diagonal 2; bumping it to 3 keeps
    # every constructor invariant but makes the square of the middle
    # basis class pull back non-integrally
    doctored = TableOfMarks(
        group_order=4,
        classes=classes,
        marks=((4, 0, 0), (2, 3, 0), (1, 1, 1)),
    )
    with pytest.raises((NonIntegralPullback, R2Violation)):
        BurnsideModel(doctored)


def test_embed_int_matches_repeated_addition():
    model = bundled_model("Z[C2xC2]")
    acc = model.zero()
    for n in range(7):
        assert model.embed_int(n) == acc
        acc = model.add(acc, model.one())
    assert model.embed_int(-3) == model.neg(model.embed_int(3))


@pytest.mark.parametrize(
    "name,expr,expected",
    [
        ("Z", "-5", 5),
        ("Z[C2]", "2 - 3*g", 5),
        ("Z[C2xC2]", "2*g0 - 3*g1 + 1", 6),
        ("burnside-A5", "1", 1),
    ],
)
def test_length_closed_forms(name, expr, expected):
    model = bundled_model(name)
    assert model.length(parse_element(model, expr)) == expected


def test_quotient_length_bfs():
    z4c2 = bundled_model("Z4[C2]")
    assert z4c2.length(parse_element(z4c2, "2 + 2*g")) == 4
    assert z4c2.length(z4c2.zero()) == 0
    assert z4c2.length(parse_element(z4c2, "3 + 3*g")) == 2  # equals -(1 + g)


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in NAMED]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [
        pytest.param(zero_ring(), id="zero-ring"),
        pytest.param(FiniteQuotientRing(2, FiniteAbelianGroup((2, 2, 2))), id="Z2[C2xC2xC2]"),
        pytest.param(FiniteQuotientRing(16, FiniteAbelianGroup(())), id="Z16"),
        pytest.param(FiniteQuotientRing(64, FiniteAbelianGroup((2,))), id="Z64[C2]"),
        pytest.param(LARGE_J, id="large-J"),
    ],
)
def test_quotient_length_matches_the_signed_ball(model):
    # the closed form against breadth-first search over the whole carrier;
    # no length exceeds the number of elements
    carrier = model.carrier()
    ball = generic_bfs_lengths(model, len(carrier))
    assert len(ball) == len(carrier)
    for r in carrier:
        assert model.length(r) == ball[r]


def additive_order_of_one(model):
    one, zero = model.one(), model.zero()
    acc, n = one, 1
    while acc != zero:
        acc, n = model.add(acc, one), n + 1
    return n


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in NAMED]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [pytest.param(zero_ring(), id="zero-ring")],
)
def test_quotient_characteristic_is_the_additive_order_of_one(model):
    assert model.characteristic() == additive_order_of_one(model)


def test_quotient_characteristic_enumerates_no_multiple_of_one():
    # read off Hermite pivots, so a modulus far above max_carrier costs nothing
    trivial = FiniteAbelianGroup(())
    assert FiniteQuotientRing(10**30, trivial).characteristic() == 10**30
    assert FiniteQuotientRing(2**40, trivial, [(2**20,)]).characteristic() == 2**20
    # J holds 6 - 4g and -4 + 6g, so 10 = 3(6 - 4g) + 2(-4 + 6g) is its least integer
    model = FiniteQuotientRing(10**12, FiniteAbelianGroup((2,)), [(6, 10**12 - 4)])
    assert model.characteristic() == 10 == additive_order_of_one(model)


def generic_bfs_lengths(model, radius):
    moves = []
    for _, s in model.generators():
        moves.append(s)
        moves.append(model.neg(s))
    dist = {model.zero(): 0}
    frontier = [model.zero()]
    for r in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for m in moves:
                w = model.add(v, m)
                if w not in dist:
                    dist[w] = r
                    nxt.append(w)
        frontier = nxt
    return dist


@pytest.mark.parametrize("name", ["Z[C2]", "Z[C4]", "burnside-C2", "Z^3"])
def test_closed_form_length_agrees_with_bfs(name):
    # validates the L1-norm formula against breadth-first search on
    # every element of length at most 4
    model = bundled_model(name)
    for element, distance in generic_bfs_lengths(model, 4).items():
        assert model.length(element) == distance


def test_carrier_bound(monkeypatch):
    """The cap holds for what is enumerated, the carrier and the smaller
    of J and R that `length` walks, not for the cover: a quotient builds
    and computes above it."""
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "10")
    limit = r"^carrier exceeds the limit max_carrier = 10: reached 16 elements$"
    group = FiniteAbelianGroup((2, 2))
    model = FiniteQuotientRing(2, group)
    assert model.length(model.one()) == 1
    with pytest.raises(CarrierBoundExceeded, match=limit):
        model.carrier()
    # J is all of (Z/2)[C2xC2], so the carrier is {0} and J has 16
    # elements: R is walked
    model = FiniteQuotientRing(2, group, [(1, 0, 0, 0)])
    assert model.carrier() == [(0, 0, 0, 0)]
    assert model.length(model.one()) == 0
    # 2^21 elements of J, 8 of R
    model = LARGE_J
    assert model.length(parse_element(model, "g0")) == 1
    # J = 2 (Z/4)[C2xC2]: R and J have 16 elements each
    model = FiniteQuotientRing(4, group, [(2, 0, 0, 0)])
    with pytest.raises(CarrierBoundExceeded, match=limit):
        model.length(model.one())
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "16")
    assert model.length(model.one()) == 1


def reference_coset_reps(modulus, group, gens):
    """J and the least vector of each coset, by closing the group
    translates of the generators breadth first and walking every vector
    of (Z/N)[G]: in lexicographic order, the first vector met in each
    coset is its least."""
    cover = GroupRingModel(group)
    dim = len(cover.labels)

    def vec_add(a, b):
        return tuple((x + y) % modulus for x, y in zip(a, b))

    seeds = {
        tuple(x % modulus for x in cover.mul(tuple(g), e))
        for g in gens
        for _, e in cover.generators()
    }
    kernel = closure(vec_add, (0,) * dim, seeds)
    rep = {}
    for vec in product(range(modulus), repeat=dim):
        if vec not in rep:
            for k in kernel:
                rep[vec_add(vec, k)] = vec
    return kernel, rep


def assert_matches_reference(model, gens):
    kernel, rep = reference_coset_reps(model.modulus, model.group, gens)
    # J is enumerated with each element once
    assert sorted(model._kernel) == sorted(kernel)
    assert model.carrier() == sorted(set(rep.values()))
    for vec, least in rep.items():
        assert model._rep(vec) == least, vec


@pytest.mark.parametrize(
    "model, gens",
    [pytest.param(bundled_model(name), (), id=name) for name in NAMED]
    + [pytest.param(m, gens, id=f"random{i}") for i, (m, gens) in enumerate(random_quotient_cases())]
    + [pytest.param(zero_ring(), [(1, 0)], id="zero-ring")]
    # J's Z/N-span is not the span of its gcd pivots here; N e_j puts back
    # the missing (N/d_j) * pivot
    + [
        pytest.param(FiniteQuotientRing(n, FiniteAbelianGroup((2, 2)), [g]), [g], id=f"saturated{n}")
        for n, g in ((8, (4, 0, 7, 3)), (6, (0, 2, 5, 1)))
    ],
)
def test_howell_quotient_matches_the_coset_walk(model, gens):
    assert_matches_reference(model, gens)


QUOTIENT_GROUPS = ((), (2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4))


@pytest.mark.parametrize("seed", range(10))
def test_howell_quotient_matches_the_coset_walk_on_seeded_quotients(seed):
    # 50 quotients per seed, moduli up to 16, covers of at most 4096
    # vectors; half the generators are arbitrary vectors
    rng = random.Random(seed)
    built = 0
    while built < 50:
        orders = rng.choice(QUOTIENT_GROUPS)
        dim = prod(orders)
        modulus = rng.randint(2, 16)
        if modulus**dim > 4096:
            continue
        gens = [
            random_generator(rng, modulus, dim)
            if rng.random() < 0.5
            else [rng.randrange(-modulus, 2 * modulus) for _ in range(dim)]
            for _ in range(rng.randint(0, 3))
        ]
        assert_matches_reference(FiniteQuotientRing(modulus, FiniteAbelianGroup(orders), gens), gens)
        built += 1


@st.composite
def lattice_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    dim = draw(st.integers(min_value=1, max_value=4))
    vector = st.tuples(*[st.integers(min_value=0, max_value=n - 1)] * dim)
    return n, dim, draw(st.lists(vector, max_size=3))


@given(lattice_inputs())
def test_hermite_rows_are_a_triangular_basis_of_the_input_plus_n_z(inputs):
    n, dim, vectors = inputs
    rows = _hermite_rows(vectors, n, dim)

    def vec_add(a, b):
        return tuple((x + y) % n for x, y in zip(a, b))

    # mod n, the rows span what the input spans
    span = closure(vec_add, (0,) * dim, vectors)
    assert closure(vec_add, (0,) * dim, [tuple(x % n for x in row) for row in rows]) == span
    assert len(rows) == dim
    for j, row in enumerate(rows):
        assert not any(row[:j]) and n % row[j] == 0
        assert all(0 <= x < n for x in row[j + 1:])
    # so the rows lie in L = span + n Z^dim; triangular, they span a
    # lattice of index prod d_j, which is [Z^dim : L], so they span L
    assert prod(row[j] for j, row in enumerate(rows)) == n**dim // len(span)


def test_quotient_construction_walks_no_cover_vectors(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the quotient walked the vectors of its cover")

    monkeypatch.setattr("aprings.rings.product", walk)
    for model in (
        FiniteQuotientRing(8, FiniteAbelianGroup((2, 2))),
        FiniteQuotientRing(16, FiniteAbelianGroup((3,)), [(4, 0, 0)]),
    ):
        model._check_r2()


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in NAMED]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())],
)
def test_quotient_generators_are_roots_of_q(model):
    # a quotient runs no R2 walk of its own, as its generators are the
    # images of its cover's; this checks by Horner what that walk checked
    q = model.generating_polynomial()
    for _, s in model.generators():
        assert poly_eval_in_ring(q, s, model) == model.zero()


def dense_horner(p, r, model):
    result = model.zero()
    for c in reversed(p.coeffs):
        result = model.add(model.mul(result, r), model.embed_int(c))
    return result


@given(st.lists(st.integers(-3, 3), max_size=12), st.integers(0, 3))
def test_poly_eval_in_ring_matches_dense_horner(coeffs, which):
    # the evaluation skips zero coefficients through powers r^gap
    model = [
        bundled_model("Z[C4]"),
        bundled_model("Z8[C2]"),
        bundled_model("burnside-C2"),
        FiniteQuotientRing(6, FiniteAbelianGroup((3,)), [(1, 1, 1)]),
    ][which]
    p = IntPolynomial(coeffs)
    for _, s in model.generators():
        r = model.add(s, model.one())
        assert poly_eval_in_ring(p, r, model) == dense_horner(p, r, model)


def test_quotient_with_ideal_generators():
    group = FiniteAbelianGroup((2,))
    # kill 2 - 2g inside (Z/4)[C2]; the kernel has two elements
    model = FiniteQuotientRing(4, group, ideal_generators=[(2, 2)])
    assert len(model.carrier()) == 8
    g = dict(model.generators())["g"]
    q = model.generating_polynomial()
    assert poly_eval_in_ring(q, g, model) == model.zero()


def test_verify_annihilated_examples():
    zc2 = bundled_model("Z[C2]")
    r = parse_element(zc2, "1 + g")
    report = verify_annihilated(zc2, r)
    assert (report.length, report.annihilated) == (2, True)
    assert report.polynomial == IntPolynomial((0, -4, 0, 1))
    # direct expansion: (1+g)^3 = 4 + 4g = 4(1+g) since g^2 = 1
    cube = zc2.mul(zc2.mul(r, r), r)
    assert cube == zc2.add(
        zc2.add(r, r), zc2.add(r, r)
    )

    b = bundled_model("burnside-A5")
    report = verify_annihilated(b, b.one())
    assert report.length == 1 and report.annihilated

    report = verify_annihilated(zc2, zc2.zero())
    assert report.length == 0 and report.annihilated


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_verify_annihilated_random(name):
    model = bundled_model(name)
    for r in random_elements(model, 12, seed=3):
        assert verify_annihilated(model, r).annihilated


def test_product_model_structure():
    prod = ProductRing(ZRing(), bundled_model("Z[C2]"))
    q = prod.generating_polynomial()
    # roots {0, 1, -1}: 0 is forced because every generator has a zero
    # coordinate
    assert q == IntPolynomial((0, -1, 0, 1))
    for label, s in prod.generators():
        assert poly_eval_in_ring(q, s, prod) == prod.zero(), label
    left_one = ((1,), prod.right.zero())
    assert prod.length(left_one) == 1
    assert prod.length(prod.one()) == 2
    for r in random_elements(prod, 8, seed=5):
        assert verify_annihilated(prod, r).annihilated


class WatchedCarrier(list):
    """A factor's carrier that records each walk over it."""

    walks = 0

    def __iter__(self):
        WatchedCarrier.walks += 1
        return super().__iter__()


def test_product_carrier_above_the_cap_builds_no_pair(monkeypatch):
    z4_c2xc2 = {"kind": "finite_quotient", "modulus": 4, "factor_orders": [2, 2]}
    product = construct_model({"kind": "product", "left": z4_c2xc2, "right": z4_c2xc2})
    for factor in (product.left, product.right):
        monkeypatch.setattr(factor, "carrier", lambda own=factor.carrier: WatchedCarrier(own()))
    monkeypatch.setattr(WatchedCarrier, "walks", 0)
    with pytest.raises(CarrierBoundExceeded, match=r"^carrier exceeds the limit max_carrier = 4096: reached 65536 elements$"):
        product.carrier()
    assert WatchedCarrier.walks == 0


@pytest.mark.parametrize("left, right", [("Z2", "Z4"), ("Z4[C2]", "Z3"), ("Z2[C2xC2]", "Z9[C2]")])
def test_product_carrier_within_the_cap_pairs_every_element(left, right, monkeypatch):
    product = ProductRing(bundled_model(left), bundled_model(right))
    pairs = [(a, b) for a in product.left.carrier() for b in product.right.carrier()]
    assert product.carrier() == pairs
    monkeypatch.setenv("APRINGS_MAX_CARRIER", str(len(pairs)))
    assert product.carrier() == pairs
    monkeypatch.setenv("APRINGS_MAX_CARRIER", str(len(pairs) - 1))
    with pytest.raises(CarrierBoundExceeded):
        product.carrier()


def test_a_cached_model_applies_the_carrier_cap_in_force_when_it_checks(monkeypatch):
    assert len(bundled_model("Z8[C2]").carrier()) == 64
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "10")
    limit = r"^carrier exceeds the limit max_carrier = 10: reached 64 elements$"
    with pytest.raises(CarrierBoundExceeded, match=limit):
        bundled_model("Z8[C2]").carrier()


def test_product_of_factor_polynomials_annihilates_diagonal_generators():
    left = ZRing()
    right = bundled_model("Z[C2]")
    prod = ProductRing(left, right)
    q1q2 = left.generating_polynomial() * right.generating_polynomial()
    for _, s1 in left.generators():
        for _, s2 in right.generators():
            diagonal = (s1, s2)
            assert poly_eval_in_ring(q1q2, diagonal, prod) == prod.zero()


def test_construct_model_kinds():
    assert construct_model({"kind": "Z"}).name == "Z"
    assert construct_model({"kind": "product_z", "copies": 2}).k == 2
    m = construct_model({"kind": "group_ring", "factor_orders": [2, 2]})
    assert m.group.order == 4
    m = construct_model({"kind": "burnside", "group": "C2"})
    assert m.k == 2
    m = construct_model(
        {"kind": "finite_quotient", "modulus": 4, "factor_orders": [2]}
    )
    assert len(m.carrier()) == 16
    m = construct_model(
        {"kind": "product", "left": {"kind": "Z"}, "right": {"kind": "Z"}}
    )
    assert m.one() == ((1,), (1,))
    with pytest.raises(ExpressionError, match="^unknown model kind: 'nope'$"):
        construct_model({"kind": "nope"})


def test_quotient_name_shows_n_g_and_j():
    def name(modulus, orders, ideal=()):
        return FiniteQuotientRing(modulus, FiniteAbelianGroup(orders), ideal).name

    assert name(4, (2,), [(2, 2)]) == "Z4[C2]/(2 + 2*g)"
    # generators are read mod N; zero and repeated ones are left out
    assert name(4, (2,), [(6, -2), (4, 0), (2, 2)]) == "Z4[C2]/(2 + 2*g)"
    assert name(4, (2,), [(4, 8)]) == "Z4[C2]"
    assert name(6, (), [(2,), (3,)]) == "Z6/(2, 3)"
    assert zero_ring().name == "Z2[C2]/(1)"
    # a bundled name is N and G, spelled canonically
    assert [bundled_model(n).name for n in ("Z6", "Z06", "Z6[C1]", "Z4[C02xC2]")] == [
        "Z6", "Z6", "Z6", "Z4[C2xC2]"
    ]
    for n in FINITE_BUNDLED:
        assert bundled_model(n).name == n


def test_parse_element_errors():
    model = bundled_model("Z[C2]")
    with pytest.raises(ExpressionError):
        parse_element(model, "2*h")
    with pytest.raises(ExpressionError):
        parse_element(model, "")
    with pytest.raises(ExpressionError):
        parse_element(model, "1 + + g")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_free_models_supply_data_only():
    """Every free model inherits FreeRing's arithmetic, generators and
    length, so one element representation serves them all.  Every model
    states its roots once, as the root spec it hands to RingModel, which
    alone builds q from it."""
    inherited = {"zero", "one", "add", "neg", "mul", "embed_int", "generators", "length"}
    subclasses = list(_subclasses(FreeRing))
    assert {ZRing, ProductZRing, GroupRingModel, BurnsideModel} <= set(subclasses)
    for cls in subclasses:
        assert not inherited & vars(cls).keys(), cls.__name__
    models = list(_subclasses(RingModel))
    assert {FreeRing, FiniteQuotientRing, ProductRing} <= set(models)
    for cls in models:
        assert not {"generating_polynomial", "root_spec"} & vars(cls).keys(), cls.__name__
    sources = Path(aprings.__file__).parent.glob("*.py")
    assert [path.name for path in sources if "unity_exponent" in path.read_text()] == []


coeffs4 = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 4)


@given(coeffs4, coeffs4)
def test_group_ring_c2xc2_commutative_product(a, b):
    model = bundled_model("Z[C2xC2]")
    assert model.mul(a, b) == model.mul(b, a)


FREE_PRESETS = ["Z", "Z^3", "Z[C2]", "Z[C2xC2]", "Z[C4]"] + [
    f"burnside-{group}" for group in named_group_names()
]
PRODUCT_SPEC = {"kind": "product", "left": {"kind": "Z"}, "right": {"kind": "group_ring", "factor_orders": [4]}}


# group rings whose Galois orbits of characters have 4 members
JSON_GROUP_RINGS = {"Z[C5]": [5], "Z[C8]": [8], "Z[C12]": [12]}


def _group_ring(*orders):
    return {"kind": "group_ring", "factor_orders": list(orders)}


# product models and the root specs of their q: the factors' roots and 0,
# with the roots of unity merged into mu_lcm of their orders
PRODUCT_PAIRS = {
    "ZxZ": ({"kind": "Z"}, {"kind": "Z"}, RootSpec(2, (0,))),
    "Z[C2]xZ[C3]": (_group_ring(2), _group_ring(3), RootSpec(6, (0,))),
    # Z states mu_2, so with mu_3 it merges into mu_6 (q = X^7 - X); the
    # signed root sets of mu_6 + {0} and mu_3 + {-1, 0} agree
    "ZxZ[C3]": ({"kind": "Z"}, _group_ring(3), RootSpec(6, (0,))),
    "Z[C3]xZ^3": (
        _group_ring(3),
        {"kind": "product_z", "copies": 3},
        RootSpec(3, (-1, 0)),
    ),
    "Z^2xBurnside(C2)": (
        {"kind": "product_z", "copies": 2},
        {"kind": "burnside", "group": "C2"},
        RootSpec.integers(-1, 0, 1, 2),
    ),
    "Z4[C2]xZ3": (
        {"kind": "finite_quotient", "modulus": 4, "factor_orders": [2]},
        {"kind": "finite_quotient", "modulus": 3},
        RootSpec(2, (0,)),
    ),
    "(ZxZ[C2])xZ[C4]": (
        {"kind": "product", "left": {"kind": "Z"}, "right": _group_ring(2)},
        _group_ring(4),
        RootSpec(4, (0,)),
    ),
}


def _product_pair(name):
    left, right, _ = PRODUCT_PAIRS[name]
    return construct_model({"kind": "product", "left": left, "right": right})


@pytest.mark.parametrize("name", PRODUCT_PAIRS)
def test_product_root_spec_is_the_union_with_zero(name):
    model = _product_pair(name)
    assert model.root_spec() == PRODUCT_PAIRS[name][2]
    q = model.generating_polynomial()
    assert q(0) == 0
    for factor in (model.left, model.right):
        assert all(q(r) == 0 for r in factor.root_spec().roots())


@pytest.mark.parametrize("n", range(1, 4))
def test_merged_unity_roots_keep_the_signed_p_n(n):
    # mu_6 + {0} and mu_3 + {-1, 0} have the same signed root set, so the
    # enlargement of ZxZ[C3]'s q leaves its p_n as they were
    spec = _product_pair("ZxZ[C3]").root_spec()
    unmerged = RootSpec(3, (-1, 0))
    assert annihilating_polynomial(spec, n) == annihilating_polynomial(unmerged, n)


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in FREE_PRESETS + list(FINITE_BUNDLED)]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [pytest.param(_product_pair(name), id=name) for name in PRODUCT_PAIRS],
)
def test_generating_polynomial_has_the_roots_of_the_spec(model):
    """q, built from the root spec atom by atom, is the monic polynomial
    with exactly the spec's roots."""
    assert model.generating_polynomial() == poly_from_roots(model.root_spec().roots())


Z_C4_X_Z_C3 = {"kind": "product", "left": _group_ring(4), "right": _group_ring(3)}


def _free(model) -> bool:
    """Whether the model is free, or a product of free models: then its
    ghost is jointly injective into domains."""
    if isinstance(model, ProductRing):
        return _free(model.left) and _free(model.right)
    return isinstance(model, FreeRing)


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name)
     for name in dict.fromkeys(ANNIHILATION_MODELS + FINITE_BUNDLED)]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [pytest.param(_product_pair(name), id=name) for name in PRODUCT_PAIRS]
    + [pytest.param(construct_model(Z_C4_X_Z_C3), id="Z[C4]xZ[C3]")],
)
def test_annihilation_on_the_sum_set_matches_the_expansion(model):
    """At n = length(r) the decision on T_n gives verify_annihilated's
    degree and answer.  At n - 1 it gives the expanded p_(n-1)'s answer
    on a free model (or a product of free ones); on a finite quotient
    membership is sufficient only: p_(n-1) may vanish mod N or J at r
    while a least lift's ghost misses T_(n-1)."""
    spec, negatives = model.root_spec(), 0
    for r in random_elements(model, 16, seed=5):
        report = verify_annihilated(model, r)
        n = report.length
        assert annihilated_on_sum_set(model, n, r) == (report.degree, report.annihilated) == (
            report.degree, True)
        if n == 0:
            continue
        p = annihilating_polynomial(spec, n - 1) if n > 1 else IntPolynomial.x()
        expected = model.is_root(p, r)
        degree, annihilated = annihilated_on_sum_set(model, n - 1, r)
        assert degree == p.degree
        if _free(model):
            assert annihilated == expected
        else:
            assert expected or not annihilated
        negatives += not expected
    assert negatives > 0


def test_annihilation_on_the_sum_set_is_only_sufficient_on_a_quotient():
    # in Z3, p_2 = X^3 - 4X kills 1 = -2, though the least lift 1 is not in T_2 = {-2, 0, 2}
    z3 = bundled_model("Z3")
    assert z3.is_root(annihilating_polynomial(z3.root_spec(), 2), z3.one())
    assert annihilated_on_sum_set(z3, 2, z3.one()) == (3, False)


def test_a_product_embeds_its_factors_values_at_the_common_order():
    model = construct_model(Z_C4_X_Z_C3)
    r = parse_element(model, "L.g + R.g")
    values = model.lift_ghost(r)
    assert model.root_spec().common_order() == 12
    assert {v.order for v in values} == {12}
    i, w = CyclotomicInteger.zeta(12, 3), CyclotomicInteger.zeta(12, 4)
    assert set(values) >= {i, w, CyclotomicInteger.from_int(1, 12)}
    assert annihilated_on_sum_set(model, 2, r) == (len(root_sum_set(model.root_spec(), 2)), True)


def _preset(name):
    if name == "product":
        return construct_model(PRODUCT_SPEC)
    if name in JSON_GROUP_RINGS:
        return construct_model({"kind": "group_ring", "factor_orders": JSON_GROUP_RINGS[name]})
    return bundled_model(name)


def _integer_ghost_values(model, r):
    if isinstance(model, ProductRing):
        return _integer_ghost_values(model.left, r[0]) | _integer_ghost_values(model.right, r[1])
    values = {v if isinstance(v, int) else v.as_int() for v in model.ghost_map(r)}
    return values - {None}


@pytest.mark.parametrize("name", FREE_PRESETS + ["product"] + list(JSON_GROUP_RINGS))
def test_is_root_agrees_with_horner_in_the_ring(name):
    """is_root reads p(r) = 0 off the ghost values of r; Horner in the
    ring is the independent reference, on p_n (a root), p_n + 1 (never a
    root) and x - c for integer ghost values c of r and of another
    element (a root only at r = c)."""
    model = _preset(name)
    xs = random_elements(model, 5, seed=29)
    for r, other in zip(xs, xs[1:] + xs[:1]):
        p = verify_annihilated(model, r).polynomial
        cases = [(p, True), (p + 1, False)]
        for c in _integer_ghost_values(model, r) | _integer_ghost_values(model, other):
            cases.append((IntPolynomial((-c, 1)), r == model.embed_int(c)))
        for poly, expected in cases:
            in_ring = poly_eval_in_ring(poly, r, model) == model.zero()
            assert model.is_root(poly, r) == in_ring == expected, (poly, model.format_element(r))


def galois_orbit(value):
    """The conjugates of a cyclotomic value under zeta -> zeta^a, gcd(a, m) = 1."""
    m = value.order
    return frozenset(
        CyclotomicInteger(m, [sum(map(mul, value.coords, row)) for row in rows])
        for rows in _galois_action(m)
    )


def test_is_root_on_non_real_ghost_values():
    """is_root evaluates p at one character of each Galois orbit.  Horner
    in the ring is the reference, on elements of Z[C4], Z[C5], Z[C8] and
    Z[C2xC4] with a non-real ghost value, for the polynomial vanishing on
    each union of Galois orbits of their ghost values: p(r) = 0 exactly
    when the union holds every ghost value."""
    for orders in ((4,), (5,), (8,), (2, 4)):
        model = construct_model({"kind": "group_ring", "factor_orders": list(orders)})
        elements = random_elements(model, 12, seed=31) + [model.generators()[1][1]]
        checked = 0
        for r in filter(any, elements):
            values = set(model.ghost_map(r))
            orbits = {galois_orbit(v) for v in values}
            if all(len(orbit) == 1 for orbit in orbits):
                continue
            checked += 1
            for k in range(1, len(orbits) + 1):
                for chosen in combinations(orbits, k):
                    roots = frozenset().union(*chosen)
                    poly = poly_from_roots(roots)
                    in_ring = poly_eval_in_ring(poly, r, model) == model.zero()
                    assert model.is_root(poly, r) == in_ring == (values <= roots), (poly, r)
        assert checked >= 6, model.name


@pytest.mark.parametrize("name", ["Z[C2]", "Z[C2xC2]", "Z[C4]"])
def test_group_ring_ghost_map_is_injective_on_a_ball(name):
    model = bundled_model(name)
    ball = generic_bfs_lengths(model, 3)
    # the values are ints or, for exp(G) > 2, of the one order exp(G)
    ghosts = {model.ghost_map(r) for r in ball}
    assert len(ghosts) == len(ball)


GHOST_GROUPS = [(3,), (4,), (5,), (8,), (12,), (2, 4), (4, 4)]


def cyclic_subgroup_count(group):
    """The number of distinct subgroups <g>, g in G, by listing multiples."""
    zero = (0,) * group.rank
    subgroups = set()
    for g in group.elements():
        members, h = {zero}, g
        while h != zero:
            members.add(h)
            h = group.add(h, g)
        subgroups.add(frozenset(members))
    return len(subgroups)


def column_rows(column):
    """The ghost column as rows of a rational matrix acting on coefficient
    vectors: its integer values, or one row per power-basis coordinate."""
    values = column.values
    if all(isinstance(v, int) for v in values):
        return [list(values)]
    return [list(row) for row in zip(*(v.coords for v in values))]


def rational_kernel(rows, n):
    """A basis of {x in Q^n : row . x = 0 for every row}, each vector
    scaled to integers, by Gauss-Jordan elimination over Fraction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        x = [Fraction(int(c == free)) for c in range(n)]
        for row, c in zip(rows, pivots):
            x[c] = -row[free]
        scale = lcm(*(v.denominator for v in x))
        basis.append(tuple(int(v * scale) for v in x))
    return basis


@pytest.mark.parametrize("orders", GHOST_GROUPS, ids=str)
def test_group_ring_ghost_has_one_column_per_cyclic_subgroup(orders):
    """The Galois orbits of characters of G are the generator sets of the
    cyclic subgroups of its dual, which is isomorphic to G; the columns
    left are still jointly injective over Q."""
    group = FiniteAbelianGroup(orders)
    model = GroupRingModel(group)
    assert len(model.ghost) == cyclic_subgroup_count(group)
    stacked = [row for col in model.ghost for row in column_rows(col)]
    assert rational_kernel(stacked, group.order) == []


@pytest.mark.parametrize("name", FREE_PRESETS)
def test_ghost_map_is_a_ring_homomorphism(name):
    model = bundled_model(name)
    ghost = model.ghost_map
    assert all(v == 1 for v in ghost(model.one()))
    xs = random_elements(model, 6, seed=23)
    for a in xs:
        for b in xs:
            assert ghost(model.add(a, b)) == tuple(x + y for x, y in zip(ghost(a), ghost(b)))
            assert ghost(model.mul(a, b)) == tuple(x * y for x, y in zip(ghost(a), ghost(b)))


def test_burnside_mark_map_is_a_ring_homomorphism():
    for name in ("burnside-C2", "burnside-S3", "burnside-A5"):
        model = bundled_model(name)
        xs = random_elements(model, 6, seed=17)
        for a in xs:
            for b in xs:
                lhs = model.ghost_map(model.mul(a, b))
                rhs = tuple(
                    x * y
                    for x, y in zip(model.ghost_map(a), model.ghost_map(b))
                )
                assert lhs == rhs
        # injectivity: the triangular mark matrix has positive diagonal
        det = 1
        for i in range(model.k):
            det *= model.table.marks[i][i]
        assert det != 0
        for r in xs:
            assert model.from_marks(model.ghost_map(r)) == r
