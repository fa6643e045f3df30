"""Permutation groups, subgroup lattices and tables of marks.

Permutations act on {0, ..., d-1} and are stored as image tuples.  The
lattice and the marks work on a Cayley table (`_cayley_table`): the
elements of G indexed in sorted order, with multiplication and
conjugation tables on the indices.  A subgroup is an int bitmask over
those indices; the lattice grows by cyclic extension up to conjugacy,
one g per coset: one subgroup H of each class found so far is extended
by one element g of each right coset Hg, closing the generators of H
plus g (G. Pfeiffer, "The subgroups of M24, or how to compute the table
of marks of a finite group", Experiment. Math. 6 (1997)).  Conjugacy
classes of subgroups are ordered by subgroup order ascending with ties
broken by the lexicographically minimal sorted element list of the
minimal conjugate (ascending bit indices, as index order is sorted
order), which makes every table of marks reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Optional, Sequence

from .config import Limits, default_limits
from .cyclotomic import CyclotomicInteger
from .errors import CheckFailed, ExpressionError, OrderBoundExceeded, exact_ints

Perm = tuple[int, ...]


# -- permutations ------------------------------------------------------------


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def check_perm(p: Sequence[int]) -> Perm:
    """p as an image tuple; anything else raises ExpressionError."""
    images = exact_ints(p, f"not a permutation: {p!r}")
    if sorted(images) != list(range(len(images))):
        raise ExpressionError(f"not a permutation: {p!r}")
    return images


def compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


# -- groups -------------------------------------------------------------------


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def close_group(
    degree: int, generators: Iterable[Sequence[int]], limits: Optional[Limits] = None
) -> PermGroup:
    """Close the generators under composition (breadth first).  A
    generator that is not a permutation of `degree` points raises
    ExpressionError."""
    limits = limits or default_limits()
    gens = tuple(check_perm(g) for g in generators)
    for g in gens:
        if len(g) != degree:
            raise ExpressionError("generator degree mismatch")
    elements = closure(compose, identity_perm(degree), gens, limits.check_group_order)
    return PermGroup(degree=degree, generators=gens, elements=tuple(sorted(elements)))


def closure(
    op: Callable, identity, generators: Iterable, check: Optional[Callable] = None
) -> frozenset:
    """The closure of {identity} under x -> op(x, g) for the generators g,
    breadth first: in a finite group, the subgroup they generate.  After
    each breadth-first level, `check` (a `Limits` check) is called with
    the number of elements reached, and may raise to stop the closure."""
    gens = tuple(generators)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = op(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        if check is not None:
            check(len(seen))
        frontier = nxt
    return frozenset(seen)


# -- Cayley table -----------------------------------------------------------------


@dataclass(frozen=True)
class _CayleyTable:
    """G.elements indexed in their order, which `close_group` makes the
    sorted order, with the multiplication and conjugation tables on the
    indices.

    Index 0 is the identity (the sorted-first permutation), and a set of
    elements is an int bitmask with bit i for element i, so ascending bit
    order is sorted element order.
    """

    index: dict[Perm, int]
    mul: tuple[tuple[int, ...], ...]   # mul[a][b]: index of elements[a] . elements[b]
    conj: tuple[tuple[int, ...], ...]  # conj[g][h]: index of g^-1 h g


@lru_cache(maxsize=64)
def _cayley_table(G: PermGroup) -> _CayleyTable:
    """The tables from one left-regular row per generator s,
    row_s[b] = index(s . b): breadth first from the identity, the row of
    g . s is the row of g read at row_s, as (g . s) . b = g . (s . b).
    |S| |G| compositions instead of |G|^2."""
    index = {p: i for i, p in enumerate(G.elements)}
    rows = {}  # generator index s -> [index(s . b) for b in G.elements]
    for s in G.generators:
        if index[s] not in rows:
            rows[index[s]] = [index[compose(s, b)] for b in G.elements]
    mul: list = [None] * G.order
    mul[0] = tuple(range(G.order))
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            row_g = mul[g]
            for s, row in rows.items():
                z = row_g[s]
                if mul[z] is None:
                    mul[z] = tuple(row_g[j] for j in row)
                    nxt.append(z)
        frontier = nxt
    if None in mul:
        raise CheckFailed(
            f"the generators reach {G.order - mul.count(None)} of the "
            f"{G.order} elements of the group"
        )
    mul = tuple(mul)
    inv = [index[inverse_perm(a)] for a in G.elements]
    conj = tuple(
        tuple(mul[inv[g]][row[g]] for row in mul) for g in range(G.order)
    )
    return _CayleyTable(index=index, mul=mul, conj=conj)


def _mask(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _bits(mask: int) -> tuple[int, ...]:
    """The indices of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _conjugates(table: _CayleyTable, members: Sequence[int]) -> list[int]:
    """The mask of H^g for every g, in index order, H given by its members."""
    return [_mask(row[h] for h in members) for row in table.conj]


# -- subgroup lattice -----------------------------------------------------------


def subgroup_closure(mul: Sequence[Sequence[int]], gens: tuple[int, ...]) -> int:
    """The subgroup generated by the element indices `gens`, as a mask:
    the closure of the identity under x -> x . g over the multiplication
    table, breadth first (`found` grows while it is walked)."""
    seen = bytearray(len(mul))
    seen[0] = 1
    found = [0]
    for a in found:
        row = mul[a]
        for g in gens:
            c = row[g]
            if not seen[c]:
                seen[c] = 1
                found.append(c)
    return _mask(found)


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups: canonical representative plus size."""

    label: str
    order: int
    size: int
    representative: tuple[Perm, ...]  # sorted elements of the minimal conjugate

    def to_json(self) -> dict:
        return {"label": self.label, "order": self.order, "size": self.size}


def subgroup_classes(G: PermGroup, limits: Optional[Limits] = None) -> list[SubgroupClass]:
    """All conjugacy classes of subgroups, found by cyclic extension."""
    limits = limits or default_limits()
    if G.order > limits.max_subgroup_order:
        raise OrderBoundExceeded(
            f"|G| = {G.order} exceeds the limit max_subgroup_order = "
            f"{limits.max_subgroup_order}"
        )
    return list(_subgroup_classes_cached(G))


@lru_cache(maxsize=64)
def _subgroup_classes_cached(G: PermGroup) -> list[SubgroupClass]:
    """Every conjugacy class of subgroups, by cyclic extension up to
    conjugacy, one g per coset (Pfeiffer 1997).

    A new subgroup K = <gens(H), g> is mapped through `conj` once, which
    records its whole class; only that one member of the class is
    extended.  An extended H tries one g per right coset Hg, since
    <H, g> = <H, hg> for h in H.  Every class turns up: a subgroup K other
    than 1 has a maximal subgroup H, which some x conjugates to the
    extended member H0 of its class, and then K^x = <H0, g^x> for any g
    in K - H.
    """
    table = _cayley_table(G)
    mul = table.mul
    found = {1}
    classes: list[tuple[tuple[int, ...], int]] = [((0,), 1)]
    frontier: list[tuple[int, tuple[int, ...]]] = [(1, ())]
    while frontier:
        nxt = []
        for H, gens in frontier:
            members = _bits(H)
            done = H
            for g in range(G.order):
                if done >> g & 1:
                    continue
                done |= _mask(mul[h][g] for h in members)
                K = subgroup_closure(mul, gens + (g,))
                if K in found:
                    continue
                orbit = set(_conjugates(table, _bits(K)))
                found |= orbit
                classes.append((min(map(_bits, orbit)), len(orbit)))
                nxt.append((K, gens + (g,)))
        frontier = nxt
    # Sorted indices compare as the sorted elements do.
    classes.sort(key=lambda item: (len(item[0]), item[0]))
    labels = _order_labels([len(rep) for rep, _ in classes])
    return [
        SubgroupClass(
            label=label,
            order=len(rep),
            size=size,
            representative=tuple(G.elements[i] for i in rep),
        )
        for label, (rep, size) in zip(labels, classes)
    ]


def _order_labels(orders: list[int]) -> list[str]:
    labels = []
    for i, order in enumerate(orders):
        peers = [j for j, o in enumerate(orders) if o == order]
        if len(peers) == 1:
            labels.append(str(order))
        else:
            suffix = "abcdefghijklmnopqrstuvwxyz"[peers.index(i)]
            labels.append(f"{order}{suffix}")
    return labels


# -- marks ---------------------------------------------------------------------


def mark(G: PermGroup, H1: Iterable[Perm], H2: Iterable[Perm]) -> int:
    """Fixed points of H2 on the coset space G/H1.

    A coset gH1 is fixed by H2 exactly when g^-1 H2 g lies in H1, so the
    count is #{g : H2^g <= H1} / |H1|.
    """
    table = _cayley_table(G)
    H1mask = _mask(table.index[h] for h in H1)
    return _mark(H1mask, _conjugates(table, [table.index[h] for h in H2]))


def _mark(H1: int, conjugates: Iterable[int]) -> int:
    """#{g : H2^g <= H1} / |H1|, from the masks H2^g for every g."""
    count = sum(1 for K in conjugates if K & ~H1 == 0)
    order = H1.bit_count()
    if count % order:
        raise CheckFailed(f"{count} conjugators is not a multiple of |H1| = {order}")
    return count // order


@dataclass(frozen=True)
class TableOfMarks:
    group_order: int
    classes: tuple[SubgroupClass, ...]
    marks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k = len(self.classes)
        if len(self.marks) != k or any(len(row) != k for row in self.marks):
            raise ValueError("marks matrix must be square over the classes")
        for i in range(k):
            if self.marks[i][i] <= 0:
                raise ValueError("diagonal marks must be positive")
            for j in range(i + 1, k):
                if self.marks[i][j] != 0:
                    raise ValueError("marks matrix must be lower triangular")
            if self.marks[i][0] * self.classes[i].order != self.group_order:
                raise ValueError("first column must be the subgroup index")

    @property
    def size(self) -> int:
        return len(self.classes)

    def distinct_entries(self) -> list[int]:
        return sorted({entry for row in self.marks for entry in row})

    def labels(self) -> list[str]:
        return [c.label for c in self.classes]

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "classes": [c.to_json() for c in self.classes],
            "marks": [list(row) for row in self.marks],
        }


def table_of_marks(G: PermGroup, limits: Optional[Limits] = None) -> TableOfMarks:
    classes = subgroup_classes(G, limits)
    table = _cayley_table(G)
    members = [[table.index[h] for h in c.representative] for c in classes]
    conjugates = [_conjugates(table, m) for m in members]
    marks = tuple(
        tuple(_mark(H1, conj) for conj in conjugates) for H1 in map(_mask, members)
    )
    return TableOfMarks(group_order=G.order, classes=tuple(classes), marks=marks)


# -- finite abelian groups -------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively on tuples."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        if any(o < 1 for o in self.factor_orders):
            raise ExpressionError("factor orders must be positive")

    @property
    def order(self) -> int:
        return prod(self.factor_orders)

    @property
    def exponent(self) -> int:
        return lcm(*self.factor_orders)

    @property
    def rank(self) -> int:
        return len(self.factor_orders)

    def elements(self) -> list[tuple[int, ...]]:
        return sorted(product(*(range(o) for o in self.factor_orders)))

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.factor_orders))

    def describe(self) -> str:
        return "x".join(f"C{o}" for o in self.factor_orders) if self.factor_orders else "C1"


@dataclass(frozen=True)
class Character:
    """Homomorphism of a finite abelian group into the exp(G)-th roots of unity."""

    group: FiniteAbelianGroup
    exponents: tuple[int, ...]  # image of generator i is zeta_m^(m/o_i * t_i), m = exp(G)

    def value(self, g: tuple[int, ...]) -> CyclotomicInteger:
        m = self.group.exponent
        total = sum(
            (m // oi) * ti * gi for gi, ti, oi in zip(g, self.exponents, self.group.factor_orders)
        )
        return CyclotomicInteger.zeta(m, total % m)

    def label(self) -> str:
        return "chi(" + ",".join(str(t) for t in self.exponents) + ")"


def characters(G: FiniteAbelianGroup) -> list[Character]:
    """All |G| homomorphisms G -> mu_exp(G), by exponent tuple."""
    return [
        Character(group=G, exponents=exps)
        for exps in product(*(range(o) for o in G.factor_orders))
    ]


# -- named groups ----------------------------------------------------------------


def _cycle(n: int) -> Perm:
    return tuple(list(range(1, n)) + [0])


_NAMED: dict[str, tuple[int, tuple[Perm, ...]]] = {
    "trivial": (1, ()),
    "C2": (2, (_cycle(2),)),
    "C3": (3, (_cycle(3),)),
    "C4": (4, (_cycle(4),)),
    "C5": (5, (_cycle(5),)),
    "C6": (6, (_cycle(6),)),
    "V4": (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "S3": (3, ((1, 0, 2), (1, 2, 0))),
    "D8": (4, (_cycle(4), (0, 3, 2, 1))),
    "D10": (5, (_cycle(5), (0, 4, 3, 2, 1))),
    "A4": (4, ((1, 2, 0, 3), (1, 0, 3, 2))),
    "S4": (4, (_cycle(4), (1, 0, 2, 3))),
    "A5": (5, (_cycle(5), (1, 2, 0, 3, 4))),
}


def named_group_names() -> list[str]:
    return sorted(_NAMED)


@lru_cache(maxsize=None)
def named_group(name: str) -> PermGroup:
    if name in _NAMED:
        degree, gens = _NAMED[name]
        return close_group(degree, gens)
    if name.startswith("C") and name[1:].isdigit() and int(name[1:]) > 0:
        n = int(name[1:])
        return close_group(n, (_cycle(n),))
    raise ExpressionError(f"unknown named group: {name!r}")


def group_from_json(data: dict, limits: Optional[Limits] = None) -> PermGroup:
    """The group of {"degree": d, "generators": [[images], ...]}; a
    malformed description raises ExpressionError."""
    if not isinstance(data, dict) or "degree" not in data or "generators" not in data:
        raise ExpressionError(f"a group description needs 'degree' and 'generators', got {data!r}")
    degree = data["degree"]
    degree = exact_ints((degree,), f"'degree' must be an integer, got {degree!r}")[0]
    generators = data["generators"]
    if not isinstance(generators, list):
        raise ExpressionError(f"'generators' must be a list of permutations, got {generators!r}")
    return close_group(degree, generators, limits)


# -- bundled A5 reference data ------------------------------------------------------

# The bundled table labels classes by isomorphism type; computed tables
# label by subgroup order.  For A5 the orders are distinct, so this
# alias map is a bijection.
A5_LABEL_ALIASES = {
    "e": "1",
    "C2": "2",
    "C3": "3",
    "V4": "4",
    "C5": "5",
    "S3": "6",
    "D10": "10",
    "A4": "12",
    "A5": "60",
}


@lru_cache(maxsize=1)
def a5_reference_table() -> dict:
    text = resources.files("aprings").joinpath("data/a5_table_of_marks.json").read_text()
    return json.loads(text)
