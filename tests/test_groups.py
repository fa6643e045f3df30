import random

import pytest

from aprings.errors import ExponentMismatch, OrderBoundExceeded
from aprings.config import Limits
from aprings.groups import (
    A5_LABEL_ALIASES,
    FiniteAbelianGroup,
    a5_reference_table,
    characters,
    close_group,
    compose,
    conjugate_perm,
    identity_perm,
    inverse_perm,
    is_subconjugate,
    mark,
    named_group,
    subgroup_classes,
    table_of_marks,
)


def test_permutation_helpers():
    p = (1, 2, 0)
    assert compose(p, inverse_perm(p)) == identity_perm(3)
    assert conjugate_perm(identity_perm(3), p) == p


def test_close_group_examples():
    assert close_group(2, [(1, 0)]).order == 2
    assert close_group(1, []).order == 1
    assert named_group("A5").order == 60


def test_close_group_bound():
    with pytest.raises(OrderBoundExceeded):
        close_group(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], Limits(max_group_order=30))


def test_subgroup_classes_a5():
    classes = subgroup_classes(named_group("A5"))
    assert [c.order for c in classes] == [1, 2, 3, 4, 5, 6, 10, 12, 60]
    assert [c.size for c in classes] == [1, 15, 10, 5, 6, 10, 6, 5, 1]


def test_subgroup_classes_small():
    assert len(subgroup_classes(named_group("C2"))) == 2
    s3 = subgroup_classes(named_group("S3"))
    assert [c.order for c in s3] == [1, 2, 3, 6]


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclic_subgroup_count_is_divisor_count(n):
    G = named_group(f"C{n}")
    divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
    assert len(subgroup_classes(G)) == divisors


def test_subgroup_bound():
    with pytest.raises(OrderBoundExceeded):
        subgroup_classes(named_group("A5"), Limits(max_subgroup_order=30))


def test_mark_examples():
    G = named_group("A5")
    classes = subgroup_classes(G)
    by_order = {c.order: frozenset(c.representative) for c in classes}
    assert mark(G, by_order[4], by_order[2]) == 3  # V4 row, C2 column
    full = by_order[60]
    for order, H in by_order.items():
        assert mark(G, full, H) == 1
    assert mark(G, by_order[1], by_order[1]) == 60


def test_mark_constant_on_conjugacy_classes():
    G = named_group("S4")
    classes = subgroup_classes(G)
    rng = random.Random(7)
    for c in classes[:5]:
        H = frozenset(c.representative)
        for other in classes:
            K = tuple(other.representative)
            base = mark(G, H, K)
            for _ in range(3):
                g = G.elements[rng.randrange(G.order)]
                conj = tuple(conjugate_perm(g, h) for h in K)
                assert mark(G, H, conj) == base


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
    det = 1
    for i in range(k):
        det *= table.marks[i][i]
    assert det != 0


def test_equal_order_classes_get_letter_suffixes():
    table = table_of_marks(named_group("V4"))
    assert table.labels() == ["1", "2a", "2b", "2c", "4"]


def test_characters_c2():
    G = FiniteAbelianGroup((2,))
    chars = characters(G, 2)
    assert len(chars) == 2
    values = sorted(chi.value((1,)).as_int() for chi in chars)
    assert values == [-1, 1]


def test_characters_c2xc2():
    G = FiniteAbelianGroup((2, 2))
    assert len(characters(G, 2)) == 4


def test_characters_c4():
    G = FiniteAbelianGroup((4,))
    chars = characters(G, 4)
    assert len(chars) == 4
    values = {chi.value((1,)) for chi in chars}
    from aprings.cyclotomic import CyclotomicInteger

    i = CyclotomicInteger.zeta(4)
    assert values == {1 + 0 * i, i, -1 + 0 * i, -i}
    for chi in chars:
        assert chi.value((1,)) ** 4 == 1
        # multiplicativity on the generator relation g^4 = 1
        total = chi.value((1,)) * chi.value((3,))
        assert total == chi.value((0,))


def test_characters_exponent_mismatch():
    with pytest.raises(ExponentMismatch):
        characters(FiniteAbelianGroup((4,)), 2)


def test_group_json_roundtrip():
    G = named_group("S3")
    from aprings.groups import group_from_json

    again = group_from_json(G.to_json())
    assert again.elements == G.elements
