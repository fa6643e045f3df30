import itertools
import random

import pytest

from aprings import oracle
from aprings.errors import CarrierBoundExceeded, UnsupportedModel
from aprings.groups import FiniteAbelianGroup, named_group_names
from aprings.rings import FINITE_BUNDLED, GroupRingModel, bundled_model, parse_element
from aprings.spectrum import (
    FUNDAMENTAL_IDEAL,
    PrimeIdeal,
    ap_condition_check,
    dress_relations,
    element_predicates,
    fundamental_ideal_elements,
    ghost_kernel,
    is_admissible,
    spectrum_report,
    _has_two_power_q,
    _primes_up_to,
)

from test_rings import (
    FREE_PRESETS,
    GHOST_GROUPS,
    JSON_GROUP_RINGS,
    PRODUCT_PAIRS,
    _preset,
    _product_pair,
    column_rows,
    rational_kernel,
)


# -- 2-power generating polynomials ----------------------------------------

# q = X^(2^k) - 1: Z (X^2 - 1), the group rings of 2-groups and their
# quotients, Z_N included (q = X - 1); never Z^3, a Burnside ring or a
# product, whose roots are integers or include 0
TWO_POWER_Q = {"Z", "Z[C2]", "Z[C2xC2]", "Z[C4]", "Z[C8]", *FINITE_BUNDLED}


@pytest.mark.parametrize(
    "name", FREE_PRESETS + list(JSON_GROUP_RINGS) + list(FINITE_BUNDLED) + list(PRODUCT_PAIRS)
)
def test_which_models_have_a_two_power_q(name):
    model = _product_pair(name) if name in PRODUCT_PAIRS else _preset(name)
    assert _has_two_power_q(model) == (name in TWO_POWER_Q)


# -- signatures ------------------------------------------------------------


def test_signature_counts():
    assert len(bundled_model("Z").signatures()) == 1
    assert len(bundled_model("Z^3").signatures()) == 3
    assert len(bundled_model("Z[C2]").signatures()) == 2
    assert len(bundled_model("Z[C2xC2]").signatures()) == 4
    assert len(bundled_model("burnside-A5").signatures()) == 9


def test_signatures_unsupported_for_higher_exponent():
    with pytest.raises(UnsupportedModel):
        bundled_model("Z[C4]").signatures()


def test_signatures_are_ring_homomorphisms():
    for name in ("Z[C2]", "Z[C2xC2]", "burnside-A5"):
        model = bundled_model(name)
        rng = random.Random(2)
        xs = [model.random_element(rng, 4) for _ in range(6)]
        for sig in model.signatures():
            assert sig(model.one()) == 1
            for a in xs:
                for b in xs:
                    assert sig(model.add(a, b)) == sig(a) + sig(b)
                    assert sig(model.mul(a, b)) == sig(a) * sig(b)


# every free preset with an integer-valued ghost; Z[C4] has no signature list
SIGNATURE_PRESETS = ["Z", "Z^3", "Z[C2]", "Z[C2xC2]"] + [
    f"burnside-{group}" for group in named_group_names()
]


@pytest.mark.parametrize("name", SIGNATURE_PRESETS)
def test_signature_values_are_values_on_the_generators(name):
    model = bundled_model(name)
    sigs = model.signatures()
    assert sigs
    for sig in sigs:
        assert sig.values == tuple(sig(s) for _, s in model.generators()), sig.label


def test_signatures_of_z_c2():
    model = bundled_model("Z[C2]")
    g = parse_element(model, "g")
    values = sorted(sig(g) for sig in model.signatures())
    assert values == [-1, 1]


# -- minimal primes -----------------------------------------------------------


def in_kernel(col, r) -> bool:
    """Membership in the minimal prime of a ghost column, the kernel of
    that column."""
    return col(r) == 0


def test_minimal_primes_z_c2_are_signature_kernels():
    model = bundled_model("Z[C2]")
    primes = [ghost_kernel(col) for col in model.ghost]
    assert model.signatures() == model.ghost
    assert [(p.kind, p.label) for p in primes] == [
        ("signature", "ker sigma(+,+)"), ("signature", "ker sigma(+,-)")
    ]
    # the kernel of sigma(+,+) holds 1 - g, that of sigma(+,-) holds 1 + g
    for text, index in (("1 - g", 0), ("1 + g", 1)):
        r = parse_element(model, text)
        assert [in_kernel(col, r) for col in model.ghost] == [i == index for i in range(2)]


def test_minimal_primes_z_c4():
    model = bundled_model("Z[C4]")
    primes = [ghost_kernel(col) for col in model.ghost]
    # Z[C4] (x) Q = Q x Q x Q(i): chi(1) and chi(3) are conjugate and
    # share one kernel
    assert [p.label for p in primes] == ["ker phi_chi(0)", "ker phi_chi(1)", "ker phi_chi(2)"]
    # g - 1 lies exactly in the kernel of the trivial character, and
    # 1 + g^2 exactly in that of g -> i
    for text, index in (("g - 1", 0), ("1 + g^2", 1)):
        r = parse_element(model, text)
        assert [in_kernel(col, r) for col in model.ghost] == [i == index for i in range(3)]
    assert all(in_kernel(col, model.zero()) for col in model.ghost)


@pytest.mark.parametrize(
    "model",
    [pytest.param(bundled_model(name), id=name) for name in FREE_PRESETS]
    + [
        pytest.param(GroupRingModel(FiniteAbelianGroup(orders)), id=str(orders))
        for orders in GHOST_GROUPS
    ],
)
def test_minimal_primes_are_pairwise_distinct(model):
    """Each minimal prime holds an element that no other one holds: an
    integer vector of the rational kernel of its ghost column, which
    another column does not kill.  (Minimal primes are incomparable.)"""
    primes = [ghost_kernel(col) for col in model.ghost]
    assert [(p.kind, p.label) for p in primes] == [col.kernel for col in model.ghost]
    n = len(model.labels)
    kernels = [rational_kernel(column_rows(col), n) for col in model.ghost]
    for P, col, kernel in zip(primes, model.ghost, kernels):
        assert all(in_kernel(col, w) for w in kernel), P.label
    for i, j in itertools.permutations(range(len(primes)), 2):
        assert any(not in_kernel(model.ghost[j], w) for w in kernels[i]), (
            primes[i].label, primes[j].label
        )


def test_minimal_primes_burnside_a5():
    model = bundled_model("burnside-A5")
    primes = [ghost_kernel(col) for col in model.ghost]
    assert len(primes) == 9
    assert not any(in_kernel(col, model.one()) for col in model.ghost)


def test_minimal_primes_unsupported_for_quotients():
    with pytest.raises(UnsupportedModel):
        bundled_model("Z4[C2]").ghost


# -- spectrum reports -----------------------------------------------------------


def test_prime_sieve_matches_trial_division():
    primes = []
    for bound in range(2, 2001):
        if all(bound % p for p in primes):
            primes.append(bound)
        assert _primes_up_to(bound) == primes


def test_spectrum_z():
    report = spectrum_report(bundled_model("Z"))
    assert not report.local
    assert len(report.minimal) == 1
    assert report.fundamental is not None
    assert report.max_families[0].primes == [3, 5, 7, 11, 13]
    # the fundamental ideal of Z is the even integers
    assert report.fundamental == PrimeIdeal("fundamental", "I", 2)
    model = bundled_model("Z")
    assert element_predicates(model, (4,)).in_fundamental
    assert not element_predicates(model, (3,)).in_fundamental


def test_spectrum_z_c2():
    report = spectrum_report(bundled_model("Z[C2]"))
    assert len(report.minimal) == 2
    assert report.fundamental is not None
    assert len(report.max_families) == 2
    for fam in report.max_families:
        assert fam.primes == [3, 5, 7, 11, 13]


def test_spectrum_z4_c2_is_local():
    model = bundled_model("Z4[C2]")
    report = spectrum_report(model)
    assert report.local
    assert len(report.finite_primes) == 1
    info = report.finite_primes[0]
    assert info.index == 2 and info.size == 8 and info.is_fundamental


def test_spectrum_burnside_a5():
    report = spectrum_report(bundled_model("burnside-A5"), prime_bound=5)
    assert len(report.minimal) == 9
    assert len(report.max_families) == 9
    assert all(f.primes == [2, 3, 5] for f in report.max_families)
    assert report.fundamental is None


def test_spectrum_unsupported():
    from aprings.rings import ProductRing, ZRing

    with pytest.raises(UnsupportedModel):
        spectrum_report(ProductRing(ZRing(), ZRing()))
    with pytest.raises(UnsupportedModel):
        spectrum_report(bundled_model("Z[C4]"))


@pytest.mark.parametrize(
    "left,right,indices", [("Z2", "Z3", [2, 3]), ("Z4", "Z2[C2]", [2, 2])]
)
def test_spectrum_of_a_finite_product(left, right, indices):
    # a finite product takes the finite report: Z2xZ3 has the primes of Z6
    from aprings.rings import ProductRing

    model = ProductRing(bundled_model(left), bundled_model(right))
    T = oracle.table_for_model(model)
    assert sorted(T.size // len(P) for P in oracle.prime_ideals(T)) == indices
    report = spectrum_report(model)
    assert sorted(p.index for p in report.finite_primes) == indices
    assert not report.local and report.fundamental is None and report.minimal == []


def test_spectrum_refuses_a_finite_ring_past_the_cap_before_building_its_tables(monkeypatch):
    def table_for_model(*args):
        raise AssertionError("the oracle tables were built")

    monkeypatch.setattr(oracle, "table_for_model", table_for_model)
    # (Z/17)[C2] has 289 elements, just past the default cap of 256
    limit = (r"^ideal enumeration exceeds the limit max_oracle_spectrum = 256: "
             r"reached a carrier of 289 elements$")
    with pytest.raises(CarrierBoundExceeded, match=limit):
        spectrum_report(bundled_model("Z17[C2]"))


def test_spectrum_z6_not_local():
    # even characteristic with an odd factor: a second prime of odd
    # index exists alongside the fundamental ideal
    report = spectrum_report(bundled_model("Z6"))
    assert not report.local
    indices = sorted(p.index for p in report.finite_primes)
    assert indices == [2, 3]


# -- fundamental ideal and admissibility --------------------------------------------


def test_fundamental_ideal_membership_is_length_parity():
    model = bundled_model("Z[C2]")
    assert FUNDAMENTAL_IDEAL.to_json() == {"kind": "fundamental", "label": "I", "prime": 2}
    for text, inside in (("1 + g", True), ("g", False), ("0", True)):
        r = parse_element(model, text)
        assert element_predicates(model, r).in_fundamental is inside
        assert (model.length(r) % 2 == 0) is inside


def test_fundamental_ideal_unsupported():
    # without a 2-power q there is no fundamental ideal to list
    for name in ("Z^3", "burnside-A5"):
        assert spectrum_report(bundled_model(name)).fundamental is None


def test_fundamental_ideal_elements_is_an_ideal():
    model = bundled_model("Z4[C2]")
    members = fundamental_ideal_elements(model)
    assert len(members) == 8
    carrier = model.carrier()
    for x in members:
        for y in members:
            assert model.add(x, y) in members
        for r in carrier:
            assert model.mul(r, x) in members
    # membership coincides with length parity on an admissible model
    for r in carrier:
        assert (r in members) == (model.length(r) % 2 == 0)


@pytest.mark.parametrize(
    "name,expected",
    [("Z3", False), ("Z6", True), ("Z[C2]", True), ("Z", True), ("Z4[C2]", True)],
)
def test_is_admissible(name, expected):
    assert is_admissible(bundled_model(name)) is expected


def test_is_admissible_unsupported():
    with pytest.raises(UnsupportedModel):
        is_admissible(bundled_model("burnside-A5"))
    with pytest.raises(UnsupportedModel):
        is_admissible(bundled_model("Z^3"))


def test_ap_condition_examples():
    assert ap_condition_check(bundled_model("Z4[C2]"), 1) is True
    assert ap_condition_check(bundled_model("Z3"), 1) is False
    with pytest.raises(UnsupportedModel):
        ap_condition_check(bundled_model("Z[C2]"), 1)


def test_ideal_closures_stop_at_the_carrier_cap(monkeypatch):
    # I of (Z/16)[C2xC2] has 32768 elements, far above the default cap
    with pytest.raises(CarrierBoundExceeded, match="max_carrier = 4096: reached"):
        ap_condition_check(bundled_model("Z16[C2xC2]"), 2)
    # I of (Z/8)[C2] has 32 of its 64 elements
    model = bundled_model("Z8[C2]")
    assert len(fundamental_ideal_elements(model)) == 32
    monkeypatch.setenv("APRINGS_MAX_CARRIER", "16")
    with pytest.raises(CarrierBoundExceeded, match="max_carrier = 16: reached"):
        fundamental_ideal_elements(model)
    with pytest.raises(CarrierBoundExceeded, match="max_carrier = 16: reached"):
        ap_condition_check(model, 2)


def test_ap2_on_z8_c2():
    # I^2 of (Z/8)[C2] is generated by (1-g)^2 = 2 - 2g and 4; a sum of
    # at most 3 signed generators lands there only at 0
    assert ap_condition_check(bundled_model("Z8[C2]"), 2) is True


# -- element predicates -----------------------------------------------------------


def test_predicates_z4c2_nilpotent_unit():
    model = bundled_model("Z4[C2]")
    preds = element_predicates(model, parse_element(model, "1 + g"))
    assert preds.nilpotent and not preds.unit and preds.in_fundamental
    assert preds.torsion and preds.zero_divisor


def test_predicates_z_c2_zero_divisor():
    model = bundled_model("Z[C2]")
    preds = element_predicates(model, parse_element(model, "1 + g"))
    assert preds.zero_divisor and not preds.nilpotent and not preds.torsion
    assert not preds.in_every_signature_ideal


def test_predicates_burnside_identity():
    model = bundled_model("burnside-A5")
    preds = element_predicates(model, model.one())
    assert preds.unit and not preds.zero_divisor and not preds.nilpotent


def test_predicates_unit_group_of_z_c2():
    model = bundled_model("Z[C2]")
    units = []
    for expr in ("1", "-1", "g", "-g", "1 + g", "2 - g"):
        r = parse_element(model, expr)
        if element_predicates(model, r).unit:
            units.append(expr)
    assert units == ["1", "-1", "g", "-g"]


def test_burnside_units_are_the_square_roots_of_one():
    # a unit has marks in {1, -1}, and such marks make r^2 = 1
    model = bundled_model("burnside-S3")
    one = model.one()
    for r in itertools.product((-1, 0, 1), repeat=model.k):
        assert element_predicates(model, r).unit == (model.mul(r, r) == one)


def test_predicates_z_c4_unit_unsupported():
    model = bundled_model("Z[C4]")
    preds = element_predicates(model, model.one())
    assert preds.unit is None
    assert preds.nilpotent is False and preds.zero_divisor is False


def test_predicates_product_model():
    from aprings.rings import ProductRing, ZRing

    prod = ProductRing(ZRing(), ZRing())
    preds = element_predicates(prod, ((1,), (0,)))
    assert preds.zero_divisor and not preds.nilpotent and preds.idempotent


def test_idempotents_of_product_z():
    model = bundled_model("Z^3")
    idempotents = [
        v
        for v in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
        if element_predicates(model, v).idempotent
    ]
    assert len(idempotents) == 8


def test_z6_breaks_the_local_equivalences():
    # admissible with X(R) empty, yet 2 lies in the fundamental ideal
    # without being nilpotent: the index-2 classification needs 2-power
    # characteristic, not just even characteristic
    model = bundled_model("Z6")
    assert is_admissible(model)
    two = model.embed_int(2)
    assert two in fundamental_ideal_elements(model)
    assert not element_predicates(model, two).nilpotent


# -- Dress relations ----------------------------------------------------------------


def test_dress_relations_a5():
    model = bundled_model("burnside-A5")
    rel = dress_relations(model, [2, 3, 5])
    for m in rel.members:
        assert rel.minimal[m] == (m.p == 0)
        assert rel.maximal[m] == (m.p != 0)
    # p(U,0) is contained in p(U,p) for every class and prime
    by_key = {(m.class_index, m.p): m for m in rel.members}
    for j in range(9):
        for p in (2, 3, 5):
            assert rel.subset[(by_key[(j, 0)], by_key[(j, p)])]
    # the identity class element belongs to no minimal Dress ideal
    one = model.one()
    for j in range(9):
        assert not in_dress_ideal(model, j, 0, one)


def in_dress_ideal(model, class_index: int, p: int, r) -> bool:
    """r in p_(U,p): its mark at U is 0 (p = 0) or 0 mod p."""
    value = model.ghost[class_index](r)
    return value == 0 if p == 0 else value % p == 0


def lattice_generator_subset(model, a, b) -> bool:
    """p_(U,p) <= p_(V,p') by definition: every lattice generator of
    p_(U,p) lies in p_(V,p').  The generators are e_i - u(i) e_1 for
    i != 1 and, for p != 0, p e_1, where e_1 = [G/G] is the all-ones row
    of the table of marks (column U sends them to 0 and to p)."""
    k = model.k
    anchor = model.one().index(1)
    u = model.ghost[a.class_index].values
    gens = []
    for i in range(k):
        if i != anchor:
            vec = [0] * k
            vec[i] = 1
            vec[anchor] = -u[i]
            gens.append(tuple(vec))
    if a.p:
        vec = [0] * k
        vec[anchor] = a.p
        gens.append(tuple(vec))
    return all(in_dress_ideal(model, b.class_index, b.p, g) for g in gens)


def test_dress_statement_matches_semantic_containment():
    """The congruence reading of `dress_relations` equals containment of
    the lattice generators, on every named group with P = {2, 3, 5, 7}."""
    for group in named_group_names():
        model = bundled_model(f"burnside-{group}")
        rel = dress_relations(model, [2, 3, 5, 7])
        assert len(rel.subset) == (model.k * 5) ** 2
        for a in rel.members:
            for b in rel.members:
                assert rel.subset[(a, b)] == lattice_generator_subset(model, a, b), (group, a, b)


def test_dress_mod2_coincidences_exist():
    # distinct classes can cut out the same congruence ideal mod 2
    model = bundled_model("burnside-A5")
    rel = dress_relations(model, [2])
    members2 = [m for m in rel.members if m.p == 2]
    equal_pairs = [
        (a.class_label, b.class_label)
        for a in members2
        for b in members2
        if a != b and rel.subset[(a, b)] and rel.subset[(b, a)]
    ]
    assert equal_pairs


def burnside_mod_p_table(model, p: int) -> oracle.FiniteRingTable:
    """Burnside(G) reduced mod p: the model's integer sums and products
    of coefficient vectors, reduced mod p (a ring homomorphism)."""
    vectors = list(itertools.product(range(p), repeat=model.k))
    index = {v: i for i, v in enumerate(vectors)}

    def reduced(v) -> int:
        return index[tuple(x % p for x in v)]

    return oracle.FiniteRingTable(
        elements=vectors,
        add=[[reduced(model.add(a, b)) for b in vectors] for a in vectors],
        mul=[[reduced(model.mul(a, b)) for b in vectors] for a in vectors],
        neg=[reduced(model.neg(v)) for v in vectors],
        zero=reduced(model.zero()),
        one=reduced(model.one()),
    )


def test_dress_flags_agree_with_oracle_on_small_burnside():
    # reduce Burnside(G) mod p: the oracle's prime ideals must coincide
    # with the distinct Dress ideals p(U,p) pushed down to the quotient
    for group_name, p in (("C2", 2), ("C2", 3), ("S3", 2), ("S3", 3)):
        model = bundled_model(f"burnside-{group_name}")
        table = burnside_mod_p_table(model, p)
        oracle_primes = {
            frozenset(table.elements[i] for i in P)
            for P in oracle.prime_ideals(table)
        }
        dress_primes = set()
        M = model.table.marks
        k = model.k
        for j in range(k):
            column = tuple(M[i][j] for i in range(k))
            members = frozenset(
                v
                for v in table.elements
                if sum(c * u for c, u in zip(v, column)) % p == 0
            )
            dress_primes.add(members)
        assert oracle_primes == dress_primes


def test_distinct_signatures_have_distinct_kernels():
    for name in ("Z[C2]", "Z[C2xC2]", "Z^3", "burnside-A5"):
        model = bundled_model(name)
        sigs = model.signatures()
        gens = [s for _, s in model.generators()]
        probes = gens + [model.one()]
        for i, a in enumerate(sigs):
            for b in sigs[i + 1:]:
                # some probe separates the two homomorphisms ...
                witness = [r for r in probes if a(r) != b(r)]
                assert witness, (name, a.label, b.label)
                # ... and some difference element separates the kernels
                r = witness[0]
                diff = model.sub(
                    model.mul(r, model.embed_int(1)), model.embed_int(a(r))
                )
                assert a(diff) == 0 and b(diff) != 0


def test_no_signatures_on_finite_carriers_exhaustive():
    model = bundled_model("Z4[C2]")
    # every one of the 16 elements has finite additive order, so a ring
    # homomorphism into Z must kill all of them, contradicting the
    # requirement that 1 maps to 1
    for r in model.carrier():
        acc, order = r, 1
        while acc != model.zero():
            acc = model.add(acc, r)
            order += 1
        assert order <= len(model.carrier())
        # so r lies in every signature ideal, there being none
        assert element_predicates(model, r).in_every_signature_ideal
