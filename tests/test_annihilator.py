"""Sum-set enumeration against a naive brute force, plus the closed forms."""

import re
from math import lcm
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from aprings import annihilator
from aprings.annihilator import (
    RootSpec,
    _sums,
    annihilating_polynomial,
    degree_bound,
    exact_degree,
    lewis_polynomial,
    pfister_chain_polynomial,
    quartic_p,
    quartic_t,
    root_spec_preset,
    root_sum_set,
)
from aprings.config import Limits
from aprings.cyclotomic import CyclotomicInteger, poly_from_roots
from aprings.errors import BoundExceeded, ExpressionError
from aprings.intpoly import IntPolynomial
from aprings.rings import bundled_model

WIDE = Limits(max_summands=12)


def brute_sum_set(spec: RootSpec, n: int, mode: str) -> set:
    """Independent oracle: the sum of every ordered n-tuple of (signed)
    roots, in CyclotomicInteger arithmetic; tuples that share a prefix
    share its partial sum."""
    roots = spec.roots()
    if mode == "signed":
        roots += tuple(-r for r in roots)
    out = {}

    def walk(total, k):
        if k == n:
            out[total.coords] = total
            return
        for r in roots:
            walk(total + r, k + 1)

    walk(CyclotomicInteger.from_int(0, spec.common_order()), 0)
    return set(out.values())


@pytest.mark.parametrize("mode", ["signed", "unsigned"])
@pytest.mark.parametrize(
    "spec",
    [
        RootSpec.integers(-1, 1),
        RootSpec.integers(0, 2),
        RootSpec.integers(-2, 1, 3),
        RootSpec.unity(4),
        RootSpec.unity(8),
        RootSpec.unity(12),
        RootSpec.unity(5),
        RootSpec(3, (0, 2)),
    ],
    ids=["pm1", "pfister", "lopsided", "mu4", "mu8", "mu12", "mu5", "mu3+0,2"],
)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sum_set_matches_brute_force(spec, n, mode):
    fast = set(root_sum_set(spec, n, mode).elements)
    assert fast == brute_sum_set(spec, n, mode)


def reference_extend(current, roots, mode, cap):
    """`_extend` on coordinate tuples, the representation before packed sums."""
    nxt = set()
    for r in roots:
        nxt.update(tuple(map(add, t, r)) for t in current)
        if mode == "signed":
            nxt.update(tuple(map(sub, t, r)) for t in current)
        if len(nxt) > cap:
            raise BoundExceeded(
                f"sum set exceeds the limit max_sumset = {cap}: reached {len(nxt)} elements"
            )
    return nxt


def reference_sums(spec, n, mode, cap):
    """The sorted coordinate tuples of `_sums`, enumerated as tuples."""
    current = {CyclotomicInteger.from_int(0, spec.common_order()).coords}
    roots = tuple(r.coords for r in spec.roots())
    for _ in range(n):
        current = reference_extend(current, roots, mode, cap)
    return sorted(current)


def packed_sums(spec, n, mode, cap):
    return [e.coords for e in _sums(spec, n, mode, cap)]


def or_message(sums, spec, n, mode, cap):
    """The sorted coordinate tuples, or the message of the cap they hit."""
    try:
        return sums(spec, n, mode, cap)
    except BoundExceeded as exc:
        return str(exc)


HUGE = 10**300


@st.composite
def packing_specs(draw, largest=HUGE):
    """One root spec: mu_m, integer roots up to +-largest, or both."""
    kind = draw(st.sampled_from(["unity", "integers", "mixed"]))
    values = st.one_of(
        st.integers(-10, 10), st.integers(-largest, largest), st.sampled_from([-largest, largest])
    )
    m = draw(st.sampled_from([1, 4, 5, 8, 12, 16]))
    if kind == "unity":
        return RootSpec.unity(m)
    in_mu = {1, -1} if kind == "mixed" else set()
    ints = draw(st.sets(values.filter(lambda v: v not in in_mu), min_size=kind == "integers", max_size=3))
    return RootSpec(m if kind == "mixed" else None, tuple(ints))


modes = st.sampled_from(["signed", "unsigned"])


@settings(max_examples=150, deadline=None)
@given(packing_specs(), st.integers(1, 4), modes)
def test_packed_sums_match_tuple_sums(spec, n, mode):
    # a cap of 600 is often hit, and its message must not change
    assert or_message(packed_sums, spec, n, mode, 600) == or_message(reference_sums, spec, n, mode, 600)


@settings(max_examples=60, deadline=None)
@given(packing_specs(), st.integers(1, 4), modes)
def test_packed_sums_reach_the_bias(spec, n, mode):
    # n copies of the root with the largest absolute coordinate sum to a
    # coordinate of absolute value bias: the widest digit the packing holds
    roots = [r.coords for r in spec.roots()]
    bias = n * max((abs(c) for coords in roots for c in coords), default=0)
    packed = packed_sums(spec, n, mode, 20000)
    assert packed == reference_sums(spec, n, mode, 20000)
    assert max((abs(c) for coords in packed for c in coords), default=0) == bias


@settings(max_examples=40, deadline=None)
@given(packing_specs(largest=20), st.integers(1, 3), modes)
def test_annihilator_matches_tuple_sums(spec, n, mode):
    # small roots and a cap of 150 keep the expansions quick; the packing
    # of large roots is compared above
    limits = Limits(max_sumset=150)
    try:
        expected = reference_sums(spec, n, mode, limits.max_sumset)
    except BoundExceeded as exc:
        with pytest.raises(BoundExceeded, match=f"^{re.escape(str(exc))}$"):
            annihilating_polynomial(spec, n, mode, limits)
        return
    roots = [CyclotomicInteger(spec.common_order(), coords) for coords in expected]
    assert annihilating_polynomial(spec, n, mode, limits) == poly_from_roots(roots)


def test_a_spec_without_roots_is_refused():
    for build in (RootSpec.integers, lambda: RootSpec(None)):
        with pytest.raises(ExpressionError, match="^a root spec needs at least one atom$"):
            build()


def test_p_n_hashes_no_cyclotomic_integer(monkeypatch):
    """p_n, computed and then fetched from the caches, keys every root on
    coordinates or packed ints, never on a value."""
    a5 = bundled_model("burnside-A5").root_spec()

    def refuse(self):
        raise AssertionError(f"hashed {self!r}")

    annihilator._sum_set_cached.cache_clear()
    annihilator._poly_of_sumset.cache_clear()
    monkeypatch.setattr(CyclotomicInteger, "__hash__", refuse)
    for spec in (RootSpec.unity(16), a5):
        first = annihilating_polynomial(spec, 3)
        assert annihilating_polynomial(spec, 3) is first
        assert first.degree == len(root_sum_set(spec, 3))


def test_sum_set_spec_examples():
    assert {e.as_int() for e in root_sum_set(RootSpec.integers(-1, 1), 2).elements} == {
        -2,
        0,
        2,
    }
    i = CyclotomicInteger.zeta(4)
    expected = {0 * i, 2 + 0 * i, -2 + 0 * i, 2 * i, -2 * i, 1 + i, 1 + -i, -1 + i, -1 + -i}
    assert set(root_sum_set(RootSpec.unity(4), 2).elements) == expected
    unsigned = root_sum_set(RootSpec.integers(0, 2), 2, "unsigned")
    assert {e.as_int() for e in unsigned.elements} == {0, 2, 4}


def test_sum_set_is_sorted_and_deduplicated():
    s = root_sum_set(RootSpec.integers(-1, 1), 4)
    values = [e.as_int() for e in s.elements]
    assert values == sorted(values) == [-4, -2, 0, 2, 4]


def test_summand_bound():
    with pytest.raises(BoundExceeded):
        root_sum_set(RootSpec.integers(-1, 1), 9)  # default cap is 8
    with pytest.raises(BoundExceeded):
        root_sum_set(RootSpec.unity(8), 4, limits=Limits(max_sumset=10))


def test_sum_set_cap_error_names_the_limit_its_cap_and_the_size_reached():
    with pytest.raises(BoundExceeded) as info:
        root_sum_set(RootSpec.unity(8), 4, limits=Limits(max_sumset=10))
    match = re.fullmatch(r"sum set exceeds the limit max_sumset = 10: reached (\d+) elements", str(info.value))
    assert match and int(match.group(1)) > 10
    # the summand bound of root_sum_set keeps its message (the golden
    # outputs record it)
    with pytest.raises(BoundExceeded, match=r"^n = 9 exceeds the summand bound 8$"):
        root_sum_set(RootSpec.integers(-1, 1), 9)


def test_lewis_examples():
    assert lewis_polynomial(1) == IntPolynomial((-1, 0, 1))
    assert lewis_polynomial(2) == IntPolynomial.from_roots([-2, 0, 2])
    assert lewis_polynomial(4) == IntPolynomial.from_roots([-4, -2, 0, 2, 4])


@pytest.mark.parametrize("n", range(1, 11))
def test_lewis_equals_enumeration(n):
    assert lewis_polynomial(n) == annihilating_polynomial(
        RootSpec.integers(-1, 1), n, "signed", WIDE
    )


def test_quartic_t_examples():
    f = lambda c, q: IntPolynomial((c, 0, q, 0, 1))
    assert quartic_t(1) == IntPolynomial((-1, 0, 0, 0, 1))
    assert quartic_t(2) == f(-16, 0) * f(4, 0)
    assert quartic_t(3) == f(-81, 0) * f(25, -6) * f(25, 6)
    assert quartic_t(4) == f(-256, 0) * f(100, -16) * f(64, 0) * f(100, 16)


def test_quartic_t_roots_are_exactly_the_l1_sphere():
    for n in range(1, 6):
        t = quartic_t(n)
        assert t.degree == 4 * n
        i = CyclotomicInteger.zeta(4)
        for a in range(-n, n + 1):
            for b in (n - abs(a), abs(a) - n):
                assert t(a + b * i) == 0


def test_quartic_p_examples():
    x = IntPolynomial.x()
    assert quartic_p(1) == quartic_t(1)
    assert quartic_p(2) == x * quartic_t(2)
    assert quartic_p(3) == quartic_t(3) * quartic_t(1)
    assert quartic_p(4) == x * quartic_t(2) * quartic_t(4)


@pytest.mark.parametrize("n", range(1, 6))
def test_quartic_p_equals_enumeration(n):
    assert quartic_p(n) == annihilating_polynomial(RootSpec.unity(4), n, "signed", WIDE)


def test_pfister_examples():
    assert pfister_chain_polynomial(1, 0) == IntPolynomial.from_roots([0, 1])
    assert pfister_chain_polynomial(2, 1) == IntPolynomial.from_roots([0, 2, 4])
    assert pfister_chain_polynomial(3, 2) == IntPolynomial.from_roots([0, 4, 8, 12])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("n", range(1, 7))
def test_pfister_equals_enumeration(n, k):
    spec = RootSpec.integers(0, 2**k)
    assert pfister_chain_polynomial(n, k) == annihilating_polynomial(
        spec, n, "unsigned", WIDE
    )


@pytest.mark.parametrize(
    "spec",
    [RootSpec.integers(-1, 1), RootSpec.unity(4), RootSpec.unity(8), RootSpec.integers(-3, 0, 3)],
    ids=["pm1", "mu4", "mu8", "pm3"],
)
@pytest.mark.parametrize("n", range(1, 7))
def test_sign_mode_irrelevant_for_symmetric_specs(spec, n):
    signed = root_sum_set(spec, n, "signed")
    unsigned = root_sum_set(spec, n, "unsigned")
    assert signed.elements == unsigned.elements


@pytest.mark.parametrize(
    "spec,mode",
    [
        (RootSpec.integers(-1, 1), "signed"),
        (RootSpec.unity(4), "signed"),
        (RootSpec.integers(0, 2), "unsigned"),
    ],
    ids=["pm1", "mu4", "pfister"],
)
def test_nesting_and_divisibility(spec, mode):
    # all these specs have 0 in T_2, so T_n embeds in T_{n+2}
    for n in range(1, 6):
        small = set(root_sum_set(spec, n, mode).elements)
        large = set(root_sum_set(spec, n + 2, mode).elements)
        assert small <= large
        p_small = annihilating_polynomial(spec, n, mode)
        p_large = annihilating_polynomial(spec, n + 2, mode)
        assert divmod(p_large, p_small)[1].is_zero


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_constant_term_odd_for_odd_n(n, k):
    p = annihilating_polynomial(RootSpec.unity(2**k), n, "signed", WIDE)
    assert p.coefficient(0) % 2 == 1


def test_degree_bound_values():
    assert degree_bound(1, 2) == 4
    assert degree_bound(3, 2) == 13
    assert degree_bound(3, 1) == 5
    p3 = annihilating_polynomial(RootSpec.integers(-1, 1), 3)
    assert p3.degree == 4 <= degree_bound(3, 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_degree_bound_holds_for_k1(n):
    p = annihilating_polynomial(RootSpec.integers(-1, 1), n, "signed", WIDE)
    assert p.degree <= degree_bound(n, 1)


def test_degree_bound_fails_for_larger_k():
    # |T_2| = 9 for the fourth roots of unity, but the bound gives 7;
    # the stated inequality is not a theorem for k >= 2 at small n.
    p = annihilating_polynomial(RootSpec.unity(4), 2)
    assert p.degree == 9 > degree_bound(2, 2)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in (1, 2, 3) for n in range(1, 7)] + [(4, n) for n in (1, 2, 3)]
)
def test_degree_is_the_exact_lattice_count(k, n):
    """For q = x^(2^k) - 1, deg p_n = |T_n|, the count of lattice points of
    the parity of n in the L1 ball of radius n in Z^(2^(k-1))."""
    spec = RootSpec.unity(2**k)
    assert annihilating_polynomial(spec, n).degree == len(root_sum_set(spec, n)) == exact_degree(n, k)


def _unity(m):
    return {"kind": "roots_of_unity", "order": m}


def _integers(*values):
    return {"kind": "integers", "values": list(values)}


def test_root_spec_rejects_overlap():
    with pytest.raises(ExpressionError, match="^atoms overlap"):
        RootSpec(2, (1, 2))
    with pytest.raises(ExpressionError, match="^atoms overlap"):
        RootSpec.from_json({"atoms": [_integers(1, 2), _unity(2)]})


@pytest.mark.parametrize(
    "atoms, overlap",
    [
        ([_unity(2), _integers(1, 2)], True),
        ([_unity(4), _integers(-1)], True),
        ([_unity(3), _integers(-1, 0)], False),
        ([_unity(1), _integers(-1, 2)], False),
        ([_unity(2), _unity(3)], True),
        ([_integers(1, 2), _integers(2, 5)], True),
        ([_integers(1, 2), _integers(-3)], False),
    ],
)
def test_polynomial_rejects_overlap_like_roots(atoms, overlap):
    """An overlap is refused when the spec is built, so `polynomial` and
    `roots` see only disjoint atoms, and agree on them."""
    if overlap:
        with pytest.raises(ExpressionError, match="^atoms overlap"):
            RootSpec.from_json({"atoms": atoms})
        return
    spec = RootSpec.from_json({"atoms": atoms})
    assert spec.polynomial() == poly_from_roots(spec.roots())


@settings(max_examples=60, deadline=None)
@given(packing_specs(largest=50))
def test_polynomial_is_the_product_over_the_roots(spec):
    assert spec.polynomial() == poly_from_roots(spec.roots())


def _refusal(build):
    """None when build() succeeds, else the message of its ExpressionError."""
    try:
        build()
    except ExpressionError as exc:
        return str(exc)
    return None


# lists of JSON atoms; the orders divide 120, so that every list has a
# common order within the cyclotomic degree cap
atom_lists = st.lists(
    st.one_of(
        st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]).map(_unity),
        st.sets(st.integers(-3, 3), min_size=1, max_size=3).map(lambda v: _integers(*v)),
    ),
    min_size=1, max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(atom_lists)
def test_from_json_refuses_exactly_when_the_roots_repeat(atoms):
    """The roots of each atom, built from that atom alone and lifted to
    the common order of all of them, repeat exactly when `from_json`
    refuses the list as overlapping."""
    specs = [RootSpec.from_json({"atoms": [atom]}) for atom in atoms]
    order = lcm(*(spec.common_order() for spec in specs))
    roots = [r.at_order(order).coords for spec in specs for r in spec.roots()]
    repeated = len(set(roots)) != len(roots)
    assert _refusal(lambda: RootSpec.from_json({"atoms": atoms})) == (
        "atoms overlap: the union of root sets must be duplicate-free" if repeated else None
    )


@settings(max_examples=100, deadline=None)
@given(atom_lists.flatmap(lambda atoms: st.tuples(st.just(atoms), st.permutations(atoms))))
def test_from_json_reads_the_atoms_in_any_order(lists):
    atoms, permuted = lists
    read = lambda data: _refusal(lambda: RootSpec.from_json(data)) or RootSpec.from_json(data)
    assert read({"atoms": atoms}) == read({"atoms": permuted})


def test_polynomial_keeps_the_cyclotomic_order_cap():
    spec = RootSpec(67, (0,))
    for build in (spec.roots, spec.polynomial):
        with pytest.raises(BoundExceeded, match="^deg Phi_67 = 66 exceeds the limit"):
            build()


@settings(max_examples=60, deadline=None)
@given(packing_specs(largest=50), st.integers(1, 3))
def test_the_predicted_size_bounds_the_coefficient_bits(spec, n):
    """annihilating_polynomial refuses p_n when its prediction exceeds
    MAX_POLY_BITS; with the cap one below p_n's actual size it must refuse,
    so the prediction is at least the actual size."""
    p = annihilating_polynomial(spec, n)
    actual = sum(abs(c).bit_length() for c in p.coeffs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(annihilator, "MAX_POLY_BITS", actual - 1)
        with pytest.raises(BoundExceeded, match=f"limit MAX_POLY_BITS = {actual - 1}: "):
            annihilating_polynomial(spec, n)


@pytest.mark.parametrize(
    "a, b, union",
    [
        (RootSpec.unity(2), RootSpec.unity(3), RootSpec(6, (0,))),
        (RootSpec.unity(4), RootSpec.unity(2), RootSpec(4, (0,))),
        (RootSpec.unity(3), RootSpec.integers(-1, 0, 1), RootSpec(3, (-1, 0))),
        (RootSpec.integers(-1, 1), RootSpec.integers(1, 2), RootSpec.integers(-1, 0, 1, 2)),
        (
            RootSpec(2, (3,)),
            RootSpec(5, (-1, 7)),
            RootSpec(10, (0, 3, 7)),
        ),
    ],
)
def test_union_with_zero(a, b, union):
    assert a.union_with_zero(b) == union == b.union_with_zero(a)


def test_root_spec_json_roundtrip():
    spec = RootSpec(4, (0, 2))
    assert spec.to_json() == {"atoms": [_unity(4), _integers(0, 2)]}
    assert RootSpec.from_json(spec.to_json()) == spec
    # several atoms, in any order, are written back in the normal form
    assert RootSpec.from_json({"atoms": [_integers(2), _unity(4), _integers(0)]}) == spec


@settings(max_examples=100, deadline=None)
@given(packing_specs(largest=50))
def test_to_json_and_from_json_round_trip(spec):
    assert RootSpec.from_json(spec.to_json()) == spec


def test_presets():
    spec, mode = root_spec_preset("x2-1")
    assert mode == "signed" and {r.as_int() for r in spec.roots()} == {-1, 1}
    spec, mode = root_spec_preset("pfister:2")
    assert mode == "unsigned" and {r.as_int() for r in spec.roots()} == {0, 4}
    spec, mode = root_spec_preset("x2k-1:3")
    assert len(spec.roots()) == 8
    with pytest.raises(ExpressionError, match="^unknown root spec preset: 'nope'$"):
        root_spec_preset("nope")
