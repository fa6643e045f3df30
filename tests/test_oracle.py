import random
from collections import Counter
from dataclasses import fields
from functools import lru_cache
from math import prod

import pytest

from aprings.errors import CarrierBoundExceeded, CheckFailed
from aprings.groups import FiniteAbelianGroup
from aprings.oracle import (
    FiniteRingTable,
    OraclePredicates,
    all_ideals,
    exhaustive_predicates,
    prime_ideals,
    table_for_model,
)
from aprings.rings import FINITE_BUNDLED, FiniteQuotientRing, ProductRing, bundled_model
from aprings.spectrum import element_predicates, fundamental_ideal_elements, is_admissible


def test_modular_table_z4():
    T = table_for_model(bundled_model("Z4"))
    ideals = all_ideals(T)
    assert [sorted(i) for i in ideals] == [[0], [0, 2], [0, 1, 2, 3]]
    primes = prime_ideals(T)
    assert [sorted(p) for p in primes] == [[0, 2]]


def test_product_z2_z2_has_four_ideals():
    T = table_for_model(ProductRing(bundled_model("Z2"), bundled_model("Z2")))
    assert len(all_ideals(T)) == 4


def test_z6_primes_have_indices_2_and_3():
    T = table_for_model(bundled_model("Z6"))
    primes = prime_ideals(T)
    indices = sorted(T.size // len(p) for p in primes)
    assert indices == [2, 3]


def test_z4c2_ideal_lattice_and_unique_prime():
    model = bundled_model("Z4[C2]")
    T = table_for_model(model)
    ideals = all_ideals(T)
    sizes = sorted(len(i) for i in ideals)
    assert 8 in sizes  # the fundamental ideal shows up
    primes = prime_ideals(T)
    assert len(primes) == 1
    prime_elements = frozenset(T.elements[i] for i in primes[0])
    assert prime_elements == fundamental_ideal_elements(model)
    assert len(prime_elements) == 8  # index 2 in a 16-element ring


def test_z4_predicates():
    records = exhaustive_predicates(table_for_model(bundled_model("Z4")))
    nilpotents = {i for i, r in enumerate(records) if r.nilpotent}
    units = {i for i, r in enumerate(records) if r.unit}
    assert nilpotents == {0, 2}
    assert units == {1, 3}


def test_z4c2_predicate_classes_coincide():
    model = bundled_model("Z4[C2]")
    T = table_for_model(model)
    records = exhaustive_predicates(T)
    nilpotents = {i for i, r in enumerate(records) if r.nilpotent}
    zero_divisors = {i for i, r in enumerate(records) if r.zero_divisor}
    non_units = {i for i, r in enumerate(records) if not r.unit}
    assert len(nilpotents) == 8
    assert nilpotents == zero_divisors == non_units
    assert all(r.torsion for r in records)


def test_product_z2_z2_idempotents():
    T = table_for_model(ProductRing(bundled_model("Z2"), bundled_model("Z2")))
    records = exhaustive_predicates(T)
    assert all(r.idempotent for r in records)


def test_zero_is_a_zero_divisor_by_convention():
    records = exhaustive_predicates(table_for_model(bundled_model("Z4")))
    assert records[0].zero_divisor


def test_all_ideals_of_z12_match_divisors():
    # the ideals of Z/n are the multiples of the divisors d of n
    T = table_for_model(bundled_model("Z12"))
    assert set(all_ideals(T)) == {frozenset(range(0, 12, d)) for d in (1, 2, 3, 4, 6, 12)}


def test_oracle_bound():
    # (Z/17)[C2] has 289 elements, just past the default cap of 256
    T = table_for_model(bundled_model("Z17[C2]"))
    limit = r"^ideal enumeration exceeds the limit max_oracle_spectrum = 256: reached a carrier of 289 elements$"
    with pytest.raises(CarrierBoundExceeded, match=limit):
        all_ideals(T)


def test_table_carrier_bound(monkeypatch):
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "16")
    limit = r"^carrier exceeds the limit max_carrier = 16: reached 64 elements$"
    with pytest.raises(CarrierBoundExceeded, match=limit):
        table_for_model(bundled_model("Z8[C2]"))


def test_nilpotents_are_torsion_everywhere():
    for name in ("Z4", "Z6", "Z9", "Z4[C2]", "Z2[C2]"):
        T = table_for_model(bundled_model(name))
        for r in exhaustive_predicates(T):
            if r.nilpotent:
                assert r.torsion


@pytest.mark.parametrize("name", ["Z2", "Z4", "Z8", "Z2[C2]", "Z4[C2]", "Z8[C2]"])
def test_connectedness_of_admissible_local_models(name):
    # admissible, zero divisors inside I: exactly the two trivial
    # idempotents survive
    model = bundled_model(name)
    assert is_admissible(model)
    T = table_for_model(model)
    records = exhaustive_predicates(T)
    ideal = fundamental_ideal_elements(model)
    zero_divisors = {T.elements[i] for i, r in enumerate(records) if r.zero_divisor}
    assert zero_divisors <= ideal
    idempotents = [T.elements[i] for i, r in enumerate(records) if r.idempotent]
    assert sorted(idempotents) == sorted([model.zero(), model.one()])


def test_table_validation_rejects_broken_tables():
    # one table per check, each passing the checks made before it
    for mul, neg, one, message in (
        ([[0, 0], [0, 1]], [0, 1], 0, "zero/one do not act as identities"),
        ([[0, 0], [0, 1]], [0, 0], 1, "negation table is inconsistent"),
        ([[0, 1], [0, 1]], [0, 1], 1, "tables are not commutative"),
    ):
        with pytest.raises(ValueError, match=message):
            FiniteRingTable(
                elements=[0, 1], add=[[0, 1], [1, 0]], mul=mul, neg=neg, zero=0, one=one
            )


# -- reference ideals: worklist closure and saturation -------------------------------


def reference_closure(T: FiniteRingTable, seed) -> frozenset:
    """Smallest ideal containing the seed: close under negation, addition
    and multiplication by every ring element.  When an element is
    processed it is summed with everything already closed; for any pair
    the later-processed member sees the earlier one, so no sum is missed.
    """
    closed = {T.zero} | set(seed)
    frontier = list(closed)
    while frontier:
        nxt = []
        for x in frontier:
            candidates = [T.neg[x]]
            candidates.extend(T.mul[r][x] for r in range(T.size))
            candidates.extend(T.add[x][y] for y in closed)
            for c in candidates:
                if c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(closed)


def reference_ideals(T: FiniteRingTable) -> list[frozenset]:
    """Saturation: close each known ideal plus one outside element until
    no new ideal appears.  Elements in the same coset of an ideal give the
    same closure, so one representative per coset is tried."""
    known = {frozenset({T.zero})}
    frontier = list(known)
    while frontier:
        nxt = []
        for ideal in frontier:
            covered = set(ideal)
            for x in range(T.size):
                if x in covered:
                    continue
                covered.update(T.add[x][i] for i in ideal)
                bigger = reference_closure(T, ideal | {x})
                if bigger not in known:
                    known.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def reference_primes(T: FiniteRingTable, ideals) -> list[frozenset]:
    primes = []
    for ideal in ideals:
        outside = [x for x in range(T.size) if x not in ideal]
        if outside and all(T.mul[x][y] not in ideal for x in outside for y in outside):
            primes.append(ideal)
    return primes


GROUPS = ((), (2,), (3,), (4,), (2, 2))


def random_generator(rng, modulus, dim):
    """A vector in the augmentation ideal, or a multiple of a divisor of N,
    so that the quotient is rarely the zero ring."""
    vec = [rng.randrange(modulus) for _ in range(dim)]
    if rng.random() < 0.5:
        vec[-1] = -sum(vec[:-1])
        return vec
    d = rng.choice([d for d in range(2, modulus + 1) if modulus % d == 0])
    return [d * x for x in vec]


# quotients whose J, over Z/N, is not spanned by its gcd pivots, so that
# the (N/d_j)*pivot that N e_j supplies is needed; about one seeded
# quotient in 5000 with J != 0 is such
SATURATED = ((8, (2, 2), [4, 0, 7, 3]), (6, (2, 2), [3, 5, 2, 0]), (6, (2, 2), [5, 5, 0, -10]))


@lru_cache(maxsize=None)
def random_quotient_cases(count=20, seed=0x1DEA, max_carrier=144, nontrivial=10):
    """Seeded (Z/N)[G]/J with at least two and at most max_carrier
    elements, each with the generators of J it is built from: `count`
    quotients, then `nontrivial` more from the same stream with J != 0,
    then the SATURATED quotients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count + nontrivial:
        orders = rng.choice(GROUPS)
        dim = prod(orders)
        modulus = rng.randint(2, 12)
        if modulus**dim > 4096:
            continue
        gens = [random_generator(rng, modulus, dim) for _ in range(rng.randint(0, 2))]
        model = FiniteQuotientRing(modulus, FiniteAbelianGroup(orders), gens)
        size = len(model.carrier())
        if 1 < size <= max_carrier and (len(out) < count or size < modulus**dim):
            out.append((model, gens))
    for modulus, orders, gen in SATURATED:
        out.append((FiniteQuotientRing(modulus, FiniteAbelianGroup(orders), [gen]), [gen]))
    return tuple(out)


def random_quotients(count=20, seed=0x1DEA, max_carrier=144):
    return tuple(model for model, _ in random_quotient_cases(count, seed, max_carrier))


STRUCTURE_CARRIERS = ("Z8[C2]", "Z9[C2]", "Z3[C2xC2]", "Z12[C2]")
NAMED = tuple(dict.fromkeys(FINITE_BUNDLED + STRUCTURE_CARRIERS))


def zero_ring():
    return FiniteQuotientRing(2, FiniteAbelianGroup((2,)), [(1, 0)])


def two_quotient_product():
    left = FiniteQuotientRing(4, FiniteAbelianGroup((2,)), [(2, 2)])
    right = FiniteQuotientRing(3, FiniteAbelianGroup((2,)), [(1, 1)])
    return ProductRing(left, right)


def test_random_quotients_cover_every_group():
    models = random_quotients()
    assert {m.group.factor_orders for m in models} == set(GROUPS)
    # all but the first 20 have J != 0
    assert all(len(m.carrier()) < m.modulus ** len(m.cover.labels) for m in models[20:])


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in NAMED]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [pytest.param(zero_ring(), id="zero-ring")],
)
def test_ideals_and_primes_match_reference(model):
    T = table_for_model(model)
    ideals = reference_ideals(T)
    assert all_ideals(T) == ideals
    assert prime_ideals(T) == reference_primes(T, ideals)


@pytest.mark.parametrize(
    "model",
    [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [
        pytest.param(zero_ring(), id="zero-ring"),
        pytest.param(ProductRing(bundled_model("Z2"), bundled_model("Z4")), id="Z2xZ4"),
        pytest.param(two_quotient_product(), id="quotient-product"),
    ],
)
def test_element_predicates_match_exhaustive(model):
    T = table_for_model(model)
    for r, record in zip(T.elements, exhaustive_predicates(T)):
        preds = element_predicates(model, r)
        for field in fields(OraclePredicates):
            assert getattr(preds, field.name) == getattr(record, field.name), (
                f"{model.name}: {field.name} differs at {model.format_element(r)}"
            )


def test_zero_ring_predicates():
    model = zero_ring()
    (zero,) = model.carrier()
    preds = element_predicates(model, zero)
    assert preds.nilpotent and preds.unit and not preds.zero_divisor
    assert prime_ideals(table_for_model(model)) == []


# -- reference tables: every sum and product through the model ------------------------


def reference_table(model) -> FiniteRingTable:
    """Both tables by brute force: n^2 calls each to the model's add and mul."""
    carrier = model.carrier()
    index = {r: i for i, r in enumerate(carrier)}
    return FiniteRingTable(
        elements=list(carrier),
        add=[[index[model.add(a, b)] for b in carrier] for a in carrier],
        mul=[[index[model.mul(a, b)] for b in carrier] for a in carrier],
        neg=[index[model.neg(a)] for a in carrier],
        zero=index[model.zero()],
        one=index[model.one()],
    )


LARGE_CARRIERS = ("Z16[C2]", "Z4[C2xC2]", "Z2[C2xC2xC2]")


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in NAMED + LARGE_CARRIERS]
    + [pytest.param(m, id=f"random{i}") for i, m in enumerate(random_quotients())]
    + [
        pytest.param(zero_ring(), id="zero-ring"),
        pytest.param(ProductRing(bundled_model("Z2"), bundled_model("Z4")), id="Z2xZ4"),
        pytest.param(two_quotient_product(), id="quotient-product"),
    ],
)
def test_table_matches_reference(model):
    T = table_for_model(model)
    ref = reference_table(model)
    for field in fields(FiniteRingTable):
        assert getattr(T, field.name) == getattr(ref, field.name), f"{model.name}: {field.name}"


class OneGenerator(FiniteQuotientRing):
    """Z4[C2] presented with S = {1} only, whose sums reach 4 of 16 elements."""

    def generators(self):
        return super().generators()[:1]


def test_generators_that_do_not_span_are_rejected():
    model = OneGenerator(4, FiniteAbelianGroup((2,)))
    message = r"^the generators of Z4\[C2\] do not span its carrier: their sums reach 4 of 16 elements$"
    with pytest.raises(CheckFailed, match=message):
        table_for_model(model)


def test_table_makes_n_ring_operations_per_generator(monkeypatch):
    model = bundled_model("Z12[C2]")
    n = len(model.carrier())
    counts = Counter()
    for name in ("add", "mul"):
        def counted(a, b, method=getattr(model, name), name=name):
            counts[name] += 1
            return method(a, b)

        monkeypatch.setattr(model, name, counted)
    table_for_model(model)
    # n ring operations per generator row, plus whatever the neg, zero
    # and one lookups may spend; n^2 would be 20,736 each
    budget = len(model.generators()) * n + n + 2
    assert 0 < counts["add"] <= budget
    assert 0 < counts["mul"] <= budget


# -- the 256-element carriers, where the worklist reference is too slow --------------

# The number of ideals of each size and the one prime, recorded with the
# per-coset enumeration that these ideals were first computed by.
LARGE_IDEAL_SIZES = {
    "Z16[C2]": {1: 1, 2: 1, 4: 3, 8: 5, 16: 7, 32: 5, 64: 3, 128: 1, 256: 1},
    "Z4[C2xC2]": {1: 1, 2: 1, 4: 7, 8: 7, 16: 15, 32: 7, 64: 7, 128: 1, 256: 1},
    "Z2[C2xC2xC2]": {1: 1, 2: 1, 4: 7, 8: 7, 16: 15, 32: 7, 64: 7, 128: 1, 256: 1},
}


@pytest.mark.parametrize("name", LARGE_CARRIERS)
def test_large_carrier_ideals_and_prime(name):
    model = bundled_model(name)
    T = table_for_model(model)
    ideals = all_ideals(T)
    assert Counter(len(i) for i in ideals) == LARGE_IDEAL_SIZES[name]
    (prime,) = prime_ideals(T)
    # the unique prime is the fundamental ideal, of index 2
    assert frozenset(T.elements[i] for i in prime) == fundamental_ideal_elements(model)
    assert len(prime) == 128
