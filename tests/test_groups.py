import json
import random
from dataclasses import replace
from math import prod
from pathlib import Path

import pytest

from aprings.errors import CheckFailed, OrderBoundExceeded
from aprings.cyclotomic import CyclotomicInteger
from aprings import groups
from aprings.groups import (
    A5_LABEL_ALIASES,
    FiniteAbelianGroup,
    a5_reference_difference,
    a5_reference_table,
    close_group,
    closure,
    compose,
    group_from_json,
    identity_perm,
    inverse_perm,
    named_group,
    named_group_names,
    table_of_marks,
)
from aprings.rings import GroupRingModel

PERFBENCH_INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


# -- brute-force reference: the lattice on permutation tuples ----------------------
#
# An independent path to the same table: subgroups are frozensets of
# permutations, each extension closes every element of H plus g under
# composition, orbits and marks conjugate permutation by permutation.


def conjugate_perm(g, h):
    """g^-1 h g."""
    return compose(inverse_perm(g), compose(h, g))


def reference_subgroups(G):
    trivial = frozenset({identity_perm(G.degree)})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g not in H:
                    K = closure(compose, identity_perm(G.degree), tuple(H) + (g,))
                    if K not in known:
                        known.add(K)
                        nxt.append(K)
        frontier = nxt
    return known


def reference_classes(G):
    """(sorted elements of the minimal conjugate, class size), in table order."""
    classes = []
    remaining = set(reference_subgroups(G))
    while remaining:
        H = next(iter(remaining))
        orbit = {frozenset(conjugate_perm(g, h) for h in H) for g in G.elements}
        remaining -= orbit
        classes.append((min(tuple(sorted(K)) for K in orbit), len(orbit)))
    classes.sort(key=lambda item: (len(item[0]), item[0]))
    return classes


def reference_mark(G, H1, H2):
    H1 = frozenset(H1)
    count = sum(1 for g in G.elements if all(conjugate_perm(g, h) in H1 for h in H2))
    assert count % len(H1) == 0
    return count // len(H1)


def is_subconjugate(G, H2, H1):
    return any(all(conjugate_perm(g, h) in H1 for h in H2) for g in G.elements)


def _group(name):
    if name == "S5":
        return close_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    if name == "S6":
        return close_group(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])
    if name == "A6":  # (0 1 2) and (1 2 3 4 5)
        return close_group(6, [(1, 2, 0, 3, 4, 5), (0, 2, 3, 4, 5, 1)])
    if (PERFBENCH_INPUTS / f"{name}.json").exists():
        return group_from_json(json.loads((PERFBENCH_INPUTS / f"{name}.json").read_text()))
    return named_group(name)


def reference_cayley(G):
    """Both tables by brute force: |G|^2 compositions for mul, and
    conj[g][h] = g^-1 h g read off it."""
    index = {p: i for i, p in enumerate(G.elements)}
    mul = tuple(tuple(index[compose(a, b)] for b in G.elements) for a in G.elements)
    inv = [index[inverse_perm(a)] for a in G.elements]
    conj = tuple(tuple(mul[inv[g]][row[g]] for row in mul) for g in range(G.order))
    return mul, conj


def test_permutation_helpers():
    p = (1, 2, 0)
    assert compose(p, inverse_perm(p)) == identity_perm(3)
    assert conjugate_perm(identity_perm(3), p) == p


def test_close_group_examples():
    assert close_group(2, [(1, 0)]).order == 2
    assert close_group(1, []).order == 1
    assert named_group("A5").order == 60


def test_close_group_bound(monkeypatch):
    monkeypatch.setenv("APRINGS_MAX_GROUP_ORDER", "30")
    limit = r"^group closure exceeds the limit max_group_order = 30: reached \d+ elements$"
    with pytest.raises(OrderBoundExceeded, match=limit):
        close_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def test_subgroup_classes_a5():
    classes = table_of_marks(named_group("A5")).classes
    assert [c.order for c in classes] == [1, 2, 3, 4, 5, 6, 10, 12, 60]
    assert [c.size for c in classes] == [1, 15, 10, 5, 6, 10, 6, 5, 1]


def test_subgroup_classes_small():
    assert len(table_of_marks(named_group("C2")).classes) == 2
    s3 = table_of_marks(named_group("S3")).classes
    assert [c.order for c in s3] == [1, 2, 3, 6]


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_subgroup_count_is_divisor_count(n):
    G = named_group(f"C{n}")
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert len(table_of_marks(G).classes) == divisors


def test_subgroup_bound():
    # C721 is just past the default cap, and within max_group_order
    limit = r"^\|G\| = 721 exceeds the limit max_subgroup_order = 720$"
    with pytest.raises(OrderBoundExceeded, match=limit):
        table_of_marks(named_group("C721"))


def test_named_group_applies_the_order_cap_in_force_at_each_call(monkeypatch):
    # a group built before the cap was lowered is not handed out after it
    assert named_group("C100").order == 100
    monkeypatch.setenv("APRINGS_MAX_GROUP_ORDER", "30")
    for name in ("C100", "C101"):
        with pytest.raises(OrderBoundExceeded, match="max_group_order = 30"):
            named_group(name)


def test_default_subgroup_bound_is_720():
    limit = r"^\|G\| = 721 exceeds the limit max_subgroup_order = 720$"
    with pytest.raises(OrderBoundExceeded, match=limit):
        table_of_marks(named_group("C721"))


def _elementary_abelian_2_group(rank):
    """C2^rank as `rank` disjoint transpositions."""
    generators = []
    for i in range(rank):
        p = list(range(2 * rank))
        p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
        generators.append(tuple(p))
    return close_group(2 * rank, generators)


def test_subgroup_count_bound():
    """The order cap does not bound the lattice: C2^7 has order 128 and
    29212 subgroups.  C2^6, with 2825, the most of any group of order at
    most 120, stays under the bound."""
    assert groups.MAX_SUBGROUPS == 4096
    limit = r"^\|G\| = 128 has more than 4096 subgroups, the limit of the subgroup lattice$"
    with pytest.raises(OrderBoundExceeded, match=limit):
        table_of_marks(_elementary_abelian_2_group(7))
    # the lattice alone: the table would hold 2825^2 marks
    classes = groups._subgroup_classes_cached(_elementary_abelian_2_group(6)).classes
    assert len(classes) == 2825
    assert sum(c.size for c in classes) == 2825


def test_more_than_26_classes_of_one_order_get_two_letter_suffixes():
    """C2^5 has 31 subgroups of order 2."""
    labels = [c.label for c in table_of_marks(_elementary_abelian_2_group(5)).classes]
    assert labels[1:32] == [f"2{a}" for a in "abcdefghijklmnopqrstuvwxyz"] + [
        "2aa", "2ab", "2ac", "2ad", "2ae"
    ]
    assert len(set(labels)) == len(labels)


GROUP_CORPUS = named_group_names() + [f"C{n}" for n in range(7, 31)] + ["d12", "agl1_5", "c4xc4"]


@pytest.mark.parametrize("name", GROUP_CORPUS)
def test_table_of_marks_matches_brute_force(name):
    G = _group(name)
    table = table_of_marks(G)
    ref = reference_classes(G)
    assert [(c.representative, c.size) for c in table.classes] == ref
    assert [c.order for c in table.classes] == [len(rep) for rep, _ in ref]
    assert [list(row) for row in table.marks] == [
        [reference_mark(G, H1, H2) for H2, _ in ref] for H1, _ in ref
    ]


@pytest.mark.parametrize(
    "name, classes, subgroups",
    [("S6", 56, 1455), ("A6", 22, 501), ("S5", 19, 156), ("S4", 11, 30), ("A5", 9, 59)],
)
def test_lattice_counts(name, classes, subgroups):
    G = _group(name)
    table = table_of_marks(G)
    assert table.size == classes
    assert sum(c.size for c in table.classes) == subgroups
    # class size |G : N(H)| times diagonal mark |N(H) : H| times |H| is |G|
    for i, c in enumerate(table.classes):
        assert c.size * table.marks[i][i] * c.order == G.order


@pytest.mark.parametrize("name, closures", [("S4", 73), ("A5", 150)])
def test_closure_count_is_one_per_coset_of_each_class(monkeypatch, name, closures):
    """The lattice extends one subgroup per conjugacy class by one element
    per coset: sum of |G : H| - 1 over the class representatives, not the
    sum of |G| - |H| over every subgroup (577 and 3189)."""
    G = _group(name)
    groups._cayley_table(G)
    groups._subgroup_classes_cached.cache_clear()
    calls = []
    closure_of = groups.subgroup_closure

    def counted(mul, gens):
        calls.append(gens)
        return closure_of(mul, gens)

    monkeypatch.setattr(groups, "subgroup_closure", counted)
    classes = table_of_marks(G).classes
    groups._subgroup_classes_cached.cache_clear()
    assert len(calls) == closures == sum(G.order // c.order - 1 for c in classes)


def _random_group(seed):
    """The closure of two random permutations of 3 to 6 points, drawn
    again until its order is between 3 and 60 (so the reference stays
    fast)."""
    rng = random.Random(seed)
    while True:
        degree = rng.randint(3, 6)
        gens = [rng.sample(range(degree), degree) for _ in range(2)]
        G = close_group(degree, gens)
        if 2 < G.order <= 60:
            return G


@pytest.mark.parametrize("seed", range(30))
def test_random_groups_match_brute_force(seed):
    G = _random_group(seed)
    table = table_of_marks(G)
    ref = reference_classes(G)
    assert [(c.representative, c.size) for c in table.classes] == ref
    assert [list(row) for row in table.marks] == [
        [reference_mark(G, H1, H2) for H2, _ in ref] for H1, _ in ref
    ]


# the 40 listed groups, S5 and the 30 seeded random groups
TABLE_GROUPS = [pytest.param(_group(name), id=name) for name in GROUP_CORPUS + ["S5"]] + [
    pytest.param(_random_group(seed), id=f"random{seed}") for seed in range(30)
]


@pytest.mark.parametrize("G", TABLE_GROUPS)
def test_cayley_table_matches_reference(G):
    """The multiplication table, and the conjugation rows of the
    generators, which are all the table keeps of conjugation."""
    table = groups._cayley_table(G)
    index = {p: i for i, p in enumerate(G.elements)}
    gens = dict.fromkeys(index[s] for s in G.generators)
    mul, conj = reference_cayley(G)
    assert (table.mul, table.conj) == (mul, tuple(conj[s] for s in gens))


@pytest.mark.parametrize("G", TABLE_GROUPS)
def test_stored_orbits_are_the_conjugates(G):
    """Each class keeps its distinct conjugates, found from the
    generators, as the masks of H^g over every g would give them,
    ascending by sorted members, so with the representative first."""
    index = {p: i for i, p in enumerate(G.elements)}
    lattice = groups._subgroup_classes_cached(G)
    _, conj = reference_cayley(G)
    for c, orbit in zip(lattice.classes, lattice.orbits):
        members = [index[h] for h in c.representative]
        assert len(set(orbit)) == len(orbit) == c.size
        assert set(orbit) == {groups._mask(row[h] for h in members) for row in conj}
        assert list(orbit) == sorted(orbit, key=groups._bits)
        assert orbit[0] == groups._mask(members)


def test_marks_reject_a_count_that_the_order_does_not_divide(monkeypatch):
    # A5: |N(C2)| = 4 and S3 holds 3 of the 15 conjugates of C2, so
    # dropping one of those from the orbit counts 4 * 2 = 8 conjugators
    # for S3, which |S3| = 6 does not divide
    G = named_group("A5")
    lattice = groups._subgroup_classes_cached(G)
    by_order = {c.order: i for i, c in enumerate(lattice.classes)}
    S3, C2 = lattice.orbits[by_order[6]][0], lattice.orbits[by_order[2]]
    inside = next(K for K in C2 if K & ~S3 == 0)
    orbits = list(lattice.orbits)
    orbits[by_order[2]] = tuple(K for K in C2 if K != inside)
    forged = groups._Lattice(classes=lattice.classes, orbits=tuple(orbits))
    monkeypatch.setattr(groups, "_subgroup_classes_cached", lambda G: forged)
    message = r"^8 conjugators is not a multiple of \|H1\| = 6$"
    with pytest.raises(CheckFailed, match=message):
        table_of_marks(G)


def test_cayley_table_rejects_generators_that_do_not_reach_the_group():
    G = named_group("S3")
    partial = groups.PermGroup(degree=3, generators=G.generators[:1], elements=G.elements)
    message = r"^the generators reach 2 of the 6 elements of the group$"
    with pytest.raises(CheckFailed, match=message):
        groups._cayley_table(partial)


def test_mark_examples():
    table = table_of_marks(named_group("A5"))
    by_order = {c.order: i for i, c in enumerate(table.classes)}
    assert table.marks[by_order[4]][by_order[2]] == 3  # V4 row, C2 column
    for j in by_order.values():
        assert table.marks[by_order[60]][j] == 1
    assert table.marks[by_order[1]][by_order[1]] == 60


def test_mark_constant_on_conjugacy_classes():
    G = named_group("S4")
    table = table_of_marks(G)
    rng = random.Random(7)
    for i, c in enumerate(table.classes[:5]):
        H = frozenset(c.representative)
        for j, other in enumerate(table.classes):
            K = tuple(other.representative)
            base = table.marks[i][j]
            for _ in range(3):
                g = G.elements[rng.randrange(G.order)]
                conj = tuple(conjugate_perm(g, h) for h in K)
                assert reference_mark(G, H, conj) == base


def test_table_of_marks_c2():
    table = table_of_marks(named_group("C2"))
    assert [list(r) for r in table.marks] == [[2, 0], [1, 1]]


def test_table_of_marks_trivial():
    table = table_of_marks(named_group("trivial"))
    assert [list(r) for r in table.marks] == [[1]]


def test_table_of_marks_a5_matches_reference():
    table = table_of_marks(named_group("A5"))
    ref = a5_reference_table()
    assert [list(r) for r in table.marks] == ref["marks"]
    assert table.labels() == [A5_LABEL_ALIASES[l] for l in ref["labels"]]
    assert a5_reference_difference(table) is None


def test_a5_reference_difference_names_the_first_difference():
    table = table_of_marks(named_group("A5"))
    assert a5_reference_difference(table_of_marks(named_group("S3"))) == "marks differ"
    renamed = replace(table, classes=tuple(replace(c, label=f"U{c.label}") for c in table.classes))
    assert a5_reference_difference(renamed).startswith("labels ['U1', 'U2', ")
    # the same marks over a group of twice the order
    doubled = replace(
        table,
        group_order=120,
        classes=tuple(replace(c, order=2 * c.order) for c in table.classes),
    )
    assert a5_reference_difference(doubled) == "class orders differ"


CORPUS = ["trivial", "C2", "C3", "C4", "C5", "C6", "V4", "S3", "D8", "D10", "A4", "C12", "S4", "C24"]


@pytest.mark.parametrize("name", CORPUS)
def test_table_invariants_on_corpus(name):
    G = named_group(name)
    table = table_of_marks(G)
    k = table.size
    classes = table.classes
    # the regular action is free
    assert table.marks[0][0] == G.order
    assert all(table.marks[0][j] == 0 for j in range(1, k))
    for i in range(k):
        # first column is the index, diagonal positive, upper zero
        assert table.marks[i][0] * classes[i].order == G.order
        assert table.marks[i][i] > 0
        for j in range(k):
            positive = table.marks[i][j] > 0
            subconj = is_subconjugate(
                G, classes[j].representative, frozenset(classes[i].representative)
            )
            assert positive == subconj
        assert classes[i].size * table.marks[i][i] * classes[i].order == G.order
    det = 1
    for i in range(k):
        det *= table.marks[i][i]
    assert det != 0


def test_equal_order_classes_get_letter_suffixes():
    table = table_of_marks(named_group("V4"))
    assert table.labels() == ["1", "2a", "2b", "2c", "4"]


# -- characters: the ghost columns of Z[G] -----------------------------------------
#
# The column of chi sends the basis element g to chi(g); one column is
# kept per Galois orbit of characters.


def test_characters_c2():
    ghost = GroupRingModel(FiniteAbelianGroup((2,))).ghost  # basis 1, g
    assert [(col.label, col.values, col.kernel) for col in ghost] == [
        ("sigma(+,+)", (1, 1), ("signature", "ker sigma(+,+)")),
        ("sigma(+,-)", (1, -1), ("signature", "ker sigma(+,-)")),
    ]


def test_characters_c2xc2():
    ghost = GroupRingModel(FiniteAbelianGroup((2, 2))).ghost  # basis 1, g1, g0, g0*g1
    assert sorted(col.values for col in ghost) == sorted(
        (1, a, b, a * b) for a in (1, -1) for b in (1, -1)
    )
    assert {col.kernel[0] for col in ghost} == {"signature"}


def test_characters_c4():
    ghost = GroupRingModel(FiniteAbelianGroup((4,))).ghost  # basis 1, g, g^2, g^3
    i = CyclotomicInteger.zeta(4)
    assert [col.label for col in ghost] == ["chi(0)", "chi(1)", "chi(2)"]
    assert [col.kernel[0] for col in ghost] == ["character"] * 3
    assert [col.values[1] for col in ghost] == [1 + 0 * i, i, -1 + 0 * i]
    for col in ghost:
        assert prod([col.values[1]] * 4) == 1
        # multiplicativity on the generator relation g^4 = 1
        assert col.values[1] * col.values[3] == col.values[0]


def test_group_json_roundtrip():
    G = named_group("S3")
    again = group_from_json({"degree": G.degree, "generators": [list(g) for g in G.generators]})
    assert again.elements == G.elements


# -- O^p(U) -------------------------------------------------------------------------


def perm_order(g) -> int:
    n, x = 1, g
    while x != identity_perm(len(g)):
        n, x = n + 1, compose(x, g)
    return n


def reference_p_residual_classes(G, p):
    """O^p(U) on permutations: the closure of the elements of U of order
    prime to p; its class is the class of its order that it is conjugate
    into (a positive mark)."""
    classes = table_of_marks(G).classes
    out = []
    for c in classes:
        coprime = [h for h in c.representative if perm_order(h) % p]
        K = closure(compose, identity_perm(G.degree), coprime)
        out.append(next(
            j for j, d in enumerate(classes)
            if d.order == len(K) and reference_mark(G, d.representative, K) > 0
        ))
    return tuple(out)


@pytest.mark.parametrize("name", named_group_names())
def test_p_residual_classes_match_brute_force(name):
    G = named_group(name)
    for p in (2, 3, 5, 7):
        assert groups.p_residual_classes(G, p) == reference_p_residual_classes(G, p), p


@pytest.mark.parametrize("name, counts", [
    ("C2", (1, 2, 2)),
    ("S3", (2, 3, 4)),
    ("D8", (1, 8, 8)),
    ("A4", (3, 3, 5)),
    ("S4", (3, 9, 11)),
    ("A5", (5, 7, 8)),
])
def test_p_residual_class_counts(name, counts):
    """The number of distinct classes O^p(U) at p = 2, 3, 5: the number of
    distinct ideals p_(U,p) of the Burnside ring over p (Dress)."""
    G = named_group(name)
    assert tuple(len(set(groups.p_residual_classes(G, p))) for p in (2, 3, 5)) == counts
