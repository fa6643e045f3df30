"""Permutation groups, subgroup lattices and tables of marks.

Permutations act on {0, ..., d-1} and are stored as image tuples.
Subgroups are frozensets of permutations; conjugacy classes of
subgroups are ordered by subgroup order ascending with ties broken by
the lexicographically minimal sorted element list of the minimal
conjugate, which makes every table of marks reproducible.
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
from .errors import CheckFailed, ExponentMismatch, OrderBoundExceeded

Perm = tuple[int, ...]


# -- permutations ------------------------------------------------------------


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def check_perm(p: Sequence[int]) -> Perm:
    images = tuple(int(x) for x in p)
    if sorted(images) != list(range(len(images))):
        raise ValueError(f"not a permutation: {p!r}")
    return images


def compose(p: Perm, q: Perm) -> Perm:
    """(p . q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(p)))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, img in enumerate(p):
        out[img] = i
    return tuple(out)


def conjugate_perm(g: Perm, h: Perm) -> Perm:
    """g^-1 h g."""
    return compose(inverse_perm(g), compose(h, g))


# -- groups -------------------------------------------------------------------


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {"degree": self.degree, "generators": [list(g) for g in self.generators]}


def close_group(
    degree: int, generators: Iterable[Sequence[int]], limits: Optional[Limits] = None
) -> PermGroup:
    """Close the generators under composition (breadth first)."""
    limits = limits or default_limits()
    gens = tuple(check_perm(g) for g in generators)
    for g in gens:
        if len(g) != degree:
            raise ValueError("generator degree mismatch")
    elements = closure(compose, identity_perm(degree), gens, limits.max_group_order)
    return PermGroup(degree=degree, generators=gens, elements=tuple(sorted(elements)))


def closure(op: Callable, identity, generators: Iterable, bound: Optional[int] = None) -> frozenset:
    """The closure of {identity} under x -> op(x, g) for the generators g,
    breadth first: in a finite group, the subgroup they generate.
    Raises OrderBoundExceeded when it would grow past `bound` elements."""
    gens = tuple(generators)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = op(a, g)
                if c not in seen:
                    if bound is not None and len(seen) + 1 > bound:
                        raise OrderBoundExceeded(
                            f"group closure exceeds the order bound {bound}"
                        )
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


# -- subgroup lattice -----------------------------------------------------------


def subgroup_closure(degree: int, gens: Iterable[Perm], bound: int) -> frozenset:
    return closure(compose, identity_perm(degree), gens, bound)


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
    """All conjugacy classes of subgroups, found by iterated extension."""
    limits = limits or default_limits()
    if G.order > limits.max_subgroup_order:
        raise OrderBoundExceeded(
            f"|G| = {G.order} exceeds the subgroup enumeration bound "
            f"{limits.max_subgroup_order}"
        )
    return list(_subgroup_classes_cached(G))


@lru_cache(maxsize=64)
def _subgroup_classes_cached(G: PermGroup) -> list[SubgroupClass]:
    subgroups = _all_subgroups(G)
    classes: list[tuple[tuple[Perm, ...], int]] = []
    remaining = set(subgroups)
    while remaining:
        H = next(iter(remaining))
        orbit = {frozenset(conjugate_perm(g, h) for h in H) for g in G.elements}
        remaining -= orbit
        rep = min(tuple(sorted(K)) for K in orbit)
        classes.append((rep, len(orbit)))
    classes.sort(key=lambda item: (len(item[0]), item[0]))
    labels = _order_labels([len(rep) for rep, _ in classes])
    return [
        SubgroupClass(label=label, order=len(rep), size=size, representative=rep)
        for label, (rep, size) in zip(labels, classes)
    ]


def _all_subgroups(G: PermGroup) -> set[frozenset]:
    trivial = frozenset({identity_perm(G.degree)})
    known = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                K = subgroup_closure(G.degree, tuple(H) + (g,), G.order)
                if K not in known:
                    known.add(K)
                    nxt.append(K)
        frontier = nxt
    return known


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


def is_subconjugate(G: PermGroup, H2: Iterable[Perm], H1: frozenset) -> bool:
    H2 = tuple(H2)
    return any(all(conjugate_perm(g, h) in H1 for h in H2) for g in G.elements)


# -- marks ---------------------------------------------------------------------


def mark(G: PermGroup, H1: Iterable[Perm], H2: Iterable[Perm]) -> int:
    """Fixed points of H2 on the coset space G/H1.

    A coset gH1 is fixed by H2 exactly when g^-1 H2 g lies in H1, so the
    count is #{g : H2^g <= H1} / |H1|.
    """
    H1set = frozenset(H1)
    H2t = tuple(H2)
    count = sum(
        1 for g in G.elements if all(conjugate_perm(g, h) in H1set for h in H2t)
    )
    if count % len(H1set):
        raise CheckFailed(f"{count} conjugators is not a multiple of |H1| = {len(H1set)}")
    return count // len(H1set)


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
    reps = [frozenset(c.representative) for c in classes]
    marks = tuple(
        tuple(mark(G, reps[i], reps[j]) for j in range(len(reps)))
        for i in range(len(reps))
    )
    return TableOfMarks(group_order=G.order, classes=tuple(classes), marks=marks)


# -- finite abelian groups -------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups, written additively on tuples."""

    factor_orders: tuple[int, ...]

    def __post_init__(self):
        if any(o < 1 for o in self.factor_orders):
            raise ValueError("factor orders must be positive")

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

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % o for x, y, o in zip(a, b, self.factor_orders))

    def neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % o for x, o in zip(a, self.factor_orders))

    def generators(self) -> list[tuple[int, ...]]:
        gens = []
        for i in range(self.rank):
            e = [0] * self.rank
            e[i] = 1
            gens.append(tuple(e))
        return gens

    def describe(self) -> str:
        return "x".join(f"C{o}" for o in self.factor_orders) if self.factor_orders else "C1"


@dataclass(frozen=True)
class Character:
    """Homomorphism of a finite abelian group into the m-th roots of unity."""

    group: FiniteAbelianGroup
    target_order: int
    exponents: tuple[int, ...]  # image of generator i is zeta_m^(m/o_i * t_i)

    def value(self, g: tuple[int, ...]) -> CyclotomicInteger:
        m = self.target_order
        total = sum(
            (m // oi) * ti * gi for gi, ti, oi in zip(g, self.exponents, self.group.factor_orders)
        )
        return CyclotomicInteger.zeta(m, total % m)

    def label(self) -> str:
        return "chi(" + ",".join(str(t) for t in self.exponents) + ")"


def characters(G: FiniteAbelianGroup, m: int) -> list[Character]:
    """All |G| homomorphisms G -> mu_m; requires exp(G) | m."""
    if m % G.exponent:
        raise ExponentMismatch(
            f"target order {m} is not a multiple of the exponent {G.exponent}"
        )
    chars = [
        Character(group=G, target_order=m, exponents=exps)
        for exps in product(*(range(o) for o in G.factor_orders))
    ]
    if len(chars) != G.order:
        raise CheckFailed(f"{len(chars)} characters for a group of order {G.order}")
    return chars


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
    if name.startswith("C") and name[1:].isdigit() and name not in _NAMED:
        n = int(name[1:])
        return close_group(n, (_cycle(n),))
    if name not in _NAMED:
        raise ValueError(f"unknown named group: {name!r}")
    degree, gens = _NAMED[name]
    return close_group(degree, gens)


def group_from_json(data: dict, limits: Optional[Limits] = None) -> PermGroup:
    return close_group(int(data["degree"]), data["generators"], limits)


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
