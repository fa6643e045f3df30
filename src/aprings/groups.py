"""Permutation groups, subgroup lattices and tables of marks.

Permutations act on {0, ..., d-1} and are stored as image tuples.  The
lattice and the marks work on a Cayley table (`_cayley_table`): the
elements of G indexed in sorted order, with the multiplication table
and the generators' conjugation rows on the indices.  A subgroup is an
int bitmask over those indices; the lattice grows by cyclic extension up
to conjugacy, one g per coset: one subgroup H of each class found so far
is extended by one element g of each right coset Hg, closing the
generators of H plus g (G. Pfeiffer, "The subgroups of M24, or how to compute the table
of marks of a finite group", Experiment. Math. 6 (1997)).  Each class
keeps its distinct conjugates, found as the orbit of one member under
conjugation by the generators of G, and the marks are counted on those
orbits.  Conjugacy classes of subgroups are ordered by subgroup order
ascending with ties broken by the lexicographically minimal sorted
element list of the minimal conjugate (ascending bit indices, as index
order is sorted order), which makes every table of marks reproducible.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import product
from math import lcm, prod
from typing import Callable, Iterable, Optional, Sequence

from .config import default_limits
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


def close_group(degree: int, generators: Iterable[Sequence[int]]) -> PermGroup:
    """Close the generators under composition (breadth first).  A
    generator that is not a permutation of `degree` points raises
    ExpressionError."""
    gens = tuple(check_perm(g) for g in generators)
    for g in gens:
        if len(g) != degree:
            raise ExpressionError("generator degree mismatch")
    elements = closure(compose, identity_perm(degree), gens, default_limits().check_group_order)
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
    sorted order, with the multiplication table on the indices and the
    conjugation rows of the generators.

    Index 0 is the identity (the sorted-first permutation), and a set of
    elements is an int bitmask with bit i for element i, so ascending bit
    order is sorted element order.
    """

    mul: tuple[tuple[int, ...], ...]   # mul[a][b]: index of elements[a] . elements[b]
    conj: tuple[tuple[int, ...], ...]  # conj[i][h]: index of s^-1 h s, s = i-th distinct gen


def cayley_walk(n: int, identity: int, rows: dict[int, Sequence[int]]) -> tuple[list, list]:
    """The table of x . b on n indexed elements of an associative operation
    with an identity, from the rows rows[s][b] = index(s . b) of the
    generators s, breadth first from the identity: the row of z = y . s is
    the row of y read at rows[s], as (y . s) . b = y . (s . b).  Returns
    the table (list rows, None where the generators do not reach) and the
    edges (y, s, z) in the order the rows were built."""
    table: list = [None] * n
    table[identity] = list(range(n))
    edges = []
    frontier = [identity]
    while frontier:
        nxt = []
        for y in frontier:
            row_y = table[y]
            for s, row in rows.items():
                z = row_y[s]
                if table[z] is None:
                    table[z] = [row_y[j] for j in row]
                    edges.append((y, s, z))
                    nxt.append(z)
        frontier = nxt
    return table, edges


@lru_cache(maxsize=64)
def _cayley_table(G: PermGroup) -> _CayleyTable:
    """The tables from one left-regular row per generator s by
    `cayley_walk`: |S| |G| compositions instead of |G|^2."""
    index = {p: i for i, p in enumerate(G.elements)}
    rows = {}  # generator index s -> [index(s . b) for b in G.elements]
    for s in G.generators:
        if index[s] not in rows:
            rows[index[s]] = [index[compose(s, b)] for b in G.elements]
    mul, edges = cayley_walk(G.order, 0, rows)
    if len(edges) + 1 < G.order:
        raise CheckFailed(
            f"the generators reach {len(edges) + 1} of the {G.order} elements of the group"
        )
    mul = tuple(map(tuple, mul))
    conj = []
    for s in rows:
        row_inv = mul[index[inverse_perm(G.elements[s])]]
        conj.append(tuple(row_inv[row[s]] for row in mul))
    return _CayleyTable(mul=mul, conj=tuple(conj))


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


def _orbit(table: _CayleyTable, members: Sequence[int]) -> list[int]:
    """The distinct conjugates of H, H given by its members, as masks:
    breadth first from H under conjugation by the generators of G, which
    reaches every H^g as they generate G."""
    orbit = {_mask(members): members}
    walk = [members]
    for H in walk:
        for row in table.conj:
            image = [row[h] for h in H]
            K = _mask(image)
            if K not in orbit:
                orbit[K] = image
                walk.append(image)
    return list(orbit)


# -- subgroup lattice -----------------------------------------------------------


# byte i of a closure's `seen` (0 or 1) as the digit of bit i
_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def subgroup_closure(mul: Sequence[Sequence[int]], gens: tuple[int, ...]) -> int:
    """The subgroup generated by the element indices `gens`, as a mask:
    the closure of the identity under x -> x . g over the multiplication
    table, breadth first (`found` grows while it is walked).  The mask is
    read off `seen` as a binary numeral, highest index first."""
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
    return int(seen.translate(_BIT_DIGITS)[::-1], 2)


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups: canonical representative plus size."""

    label: str
    order: int
    size: int
    representative: tuple[Perm, ...]  # sorted elements of the minimal conjugate

    def to_json(self) -> dict:
        return {"label": self.label, "order": self.order, "size": self.size}


@dataclass(frozen=True)
class _Lattice:
    """The conjugacy classes of subgroups in table order, and the distinct
    conjugates of each class as masks, ascending by their sorted members,
    so its representative first."""

    classes: tuple[SubgroupClass, ...]
    orbits: tuple[tuple[int, ...], ...]


def _lattice(G: PermGroup) -> _Lattice:
    cap = default_limits().max_subgroup_order
    if G.order > cap:
        raise OrderBoundExceeded(f"|G| = {G.order} exceeds the limit max_subgroup_order = {cap}")
    return _subgroup_classes_cached(G)


# The subgroups a lattice may hold.  Its cost, and the k^2 marks over its
# k classes, grow with the number of subgroups, which the order of G does
# not bound: C2^7 (order 128) has 29212 subgroups, all normal.  C2^6 has
# 2825, the most of any group of order at most 120, and S6 has 1455.
MAX_SUBGROUPS = 4096


@lru_cache(maxsize=64)
def _subgroup_classes_cached(G: PermGroup) -> _Lattice:
    """Every conjugacy class of subgroups, by cyclic extension up to
    conjugacy, one g per coset (Pfeiffer 1997), with its conjugates.

    The class of a new subgroup K = <gens(H), g> is the orbit of K under
    conjugation by the generators of G (`_orbit`), found breadth first
    and kept; only K itself is extended.  An extended H tries one g per
    right coset Hg, since
    <H, g> = <H, hg> for h in H.  Every class turns up: a subgroup K other
    than 1 has a maximal subgroup H, which some x conjugates to the
    extended member H0 of its class, and then K^x = <H0, g^x> for any g
    in K - H.  Past MAX_SUBGROUPS subgroups it raises OrderBoundExceeded.
    """
    table = _cayley_table(G)
    mul = table.mul
    found = {1}
    classes: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((0,), (1,))]
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
                # sorted by members, so the representative comes first
                orbit = tuple(sorted(_orbit(table, _bits(K)), key=_bits))
                found.update(orbit)
                if len(found) > MAX_SUBGROUPS:
                    raise OrderBoundExceeded(
                        f"|G| = {G.order} has more than {MAX_SUBGROUPS} subgroups, "
                        f"the limit of the subgroup lattice"
                    )
                classes.append((_bits(orbit[0]), orbit))
                nxt.append((K, gens + (g,)))
        frontier = nxt
    # Sorted indices compare as the sorted elements do.
    classes.sort(key=lambda item: (len(item[0]), item[0]))
    labels = _order_labels([len(rep) for rep, _ in classes])
    return _Lattice(
        classes=tuple(
            SubgroupClass(
                label=label,
                order=len(rep),
                size=len(orbit),
                representative=tuple(G.elements[i] for i in rep),
            )
            for label, (rep, orbit) in zip(labels, classes)
        ),
        orbits=tuple(orbit for _, orbit in classes),
    )


def _order_labels(orders: list[int]) -> list[str]:
    """The order of each class, lettered a, b, ..., z, aa, ab, ... among
    the classes of the same order when there are several."""
    total = Counter(orders)
    seen: Counter = Counter()
    labels = []
    for order in orders:
        if total[order] == 1:
            labels.append(str(order))
            continue
        n = seen[order] = seen[order] + 1
        suffix = ""
        while n:
            n, r = divmod(n - 1, 26)
            suffix = "abcdefghijklmnopqrstuvwxyz"[r] + suffix
        labels.append(f"{order}{suffix}")
    return labels


# -- marks ---------------------------------------------------------------------


def _mark(H1: int, count: int) -> int:
    """The mark of H2 on G/H1, its number of fixed cosets: gH1 is fixed
    by H2 exactly when H2^g <= H1, so the mark is count / |H1|, count
    being #{g : H2^g <= H1}."""
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


def table_of_marks(G: PermGroup) -> TableOfMarks:
    """The marks counted on the stored orbits: H2^g is each conjugate K of
    H2 for |N(H2)| = |G| / size(H2) elements g, so #{g : H2^g <= H1} is
    that many times #{K : K <= H1}.  A K of order not dividing |H1| is
    in no H1, so those marks are 0 without a count."""
    lattice = _lattice(G)
    marks = []
    for c1, orbit1 in zip(lattice.classes, lattice.orbits):
        H1 = orbit1[0]
        outside = ~H1
        marks.append(tuple(
            _mark(H1, G.order // c2.size * sum(1 for K in orbit if not K & outside))
            if c1.order % c2.order == 0 else 0
            for c2, orbit in zip(lattice.classes, lattice.orbits)
        ))
    return TableOfMarks(group_order=G.order, classes=lattice.classes, marks=tuple(marks))


def p_residual_classes(G: PermGroup, p: int) -> tuple[int, ...]:
    """For each class of subgroups U, in table order, the index of the
    class of O^p(U), p a prime: the subgroup generated by the elements of
    U whose order is prime to p, the least normal subgroup of U of
    p-power index.  By Dress's theorem the Burnside-ring ideals p_(U,p)
    and p_(V,p) are equal exactly when O^p(U) and O^p(V) are conjugate
    (T. tom Dieck, Transformation Groups and Representation Theory, LNM
    766, ch. 1).  Found on the Cayley table and the stored orbits; no
    mark is read."""
    lattice = _lattice(G)
    mul = _cayley_table(G).mul
    coprime = 0  # the mask of the elements of order prime to p
    for h in range(G.order):
        x, order = h, 1
        while x:
            x, order = mul[x][h], order + 1
        if order % p:
            coprime |= 1 << h
    class_of = {K: j for j, orbit in enumerate(lattice.orbits) for K in orbit}
    out = []
    for orbit in lattice.orbits:
        gens: tuple[int, ...] = ()
        K = 1
        for h in _bits(orbit[0] & coprime):
            if not K >> h & 1:
                gens += (h,)
                K = subgroup_closure(mul, gens)
        out.append(class_of[K])
    return tuple(out)


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


def named_group(name: str) -> PermGroup:
    """The group of a bundled name or of Cn, closed afresh on each call,
    so that the order cap in force then applies."""
    if name in _NAMED:
        degree, gens = _NAMED[name]
        return close_group(degree, gens)
    digits = name[1:].lstrip("0")
    if name.startswith("C") and digits.isascii() and digits.isdecimal():
        # refused before a cycle is built or a name too long for int() read
        cap = default_limits().max_group_order
        if len(digits) > len(str(cap)) or int(digits) > cap:
            raise OrderBoundExceeded(
                f"{name} has order {digits}, above the limit max_group_order = {cap}"
            )
        n = int(digits)
        return close_group(n, (_cycle(n),))
    raise ExpressionError(f"unknown named group: {name!r}")


def group_from_json(data: dict) -> PermGroup:
    """The group of {"degree": d, "generators": [[images], ...]}; a
    malformed description raises ExpressionError."""
    if not isinstance(data, dict) or "degree" not in data or "generators" not in data:
        raise ExpressionError(f"a group description needs 'degree' and 'generators', got {data!r}")
    degree = data["degree"]
    degree = exact_ints((degree,), f"'degree' must be an integer, got {degree!r}")[0]
    generators = data["generators"]
    if not isinstance(generators, list):
        raise ExpressionError(f"'generators' must be a list of permutations, got {generators!r}")
    return close_group(degree, generators)


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


def a5_reference_difference(table: TableOfMarks) -> Optional[str]:
    """The first way the table differs from the bundled A5 reference (its
    marks, then its labels, then its class orders), or None when it
    equals the reference."""
    reference = a5_reference_table()
    if [list(row) for row in table.marks] != reference["marks"]:
        return "marks differ"
    expected_labels = [A5_LABEL_ALIASES[l] for l in reference["labels"]]
    if table.labels() != expected_labels:
        return f"labels {table.labels()} != {expected_labels}"
    if [c.order for c in table.classes] != reference["orders"]:
        return "class orders differ"
    return None
