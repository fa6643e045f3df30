"""Concrete ring models with exact arithmetic, generating sets and lengths.

Every model carries a root spec, the roots of its monic squarefree
generating polynomial q, from which q and every p_n are built; a finite
named generating set S with q(s) = 0 for each s in S (checked at
construction); and the length map: the least l such that the element is
a sum of l terms +-s with s in S.  Elements are plain hashable data
(tuples, pairs); the model object owns the arithmetic.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm, prod
from random import Random
from typing import Iterable, Optional, Sequence

from .annihilator import RootSpec, annihilating_polynomial, root_sum_set
from .config import Limits, default_limits
from .cyclotomic import CyclotomicInteger
from .errors import (
    ExpressionError,
    NonIntegralPullback,
    OrderBoundExceeded,
    R2Violation,
    UnsupportedModel,
    exact_ints,
    known_keys,
)
from .groups import FiniteAbelianGroup, TableOfMarks, named_group, table_of_marks
from .intpoly import IntPolynomial, format_terms, repeated_doubling


class RingModel:
    """Common interface of all ring models.

    A model states the roots of q once, as its root spec: q and p_n
    both come from it."""

    def __init__(self, name: str, spec: RootSpec):
        self.name = name
        self._spec = spec

    # arithmetic ------------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def embed_int(self, n: int):
        """n * 1_R."""
        raise NotImplementedError

    # structure ---------------------------------------------------------

    def generators(self) -> tuple[tuple[str, object], ...]:
        """The generating set S as (label, element) pairs."""
        raise NotImplementedError

    def generating_polynomial(self) -> IntPolynomial:
        return self._spec.polynomial()

    def root_spec(self) -> RootSpec:
        return self._spec

    def length(self, r) -> int:
        raise NotImplementedError

    def characteristic(self) -> int:
        return 0

    def is_finite(self) -> bool:
        return False

    def carrier(self) -> list:
        raise UnsupportedModel(f"{self.name} is not a finite model")

    def is_root(self, p: IntPolynomial, r) -> bool:
        """Whether p(r) = 0 in the ring, by Horner evaluation in it."""
        return poly_eval_in_ring(p, r, self) == self.zero()

    def lift_ghost(self, r) -> tuple:
        """The ghost values, at the root spec's common order, of a lift of
        r to a free model that is a sum of length(r) signed generators:
        each value is a sum of length(r) signed roots of q.  An integer
        polynomial p kills r when it vanishes at all of them, and for a
        free model only then."""
        raise NotImplementedError

    # structure theory --------------------------------------------------

    @property
    def ghost(self) -> tuple[GhostColumn, ...]:
        """The columns of the ghost map; only a free model has one."""
        raise UnsupportedModel(f"no spectrum classification for {self.name}")

    def predicates(self, r) -> tuple[Optional[bool], ...]:
        """(nilpotent, torsion, unit, zero divisor, in every signature
        ideal) for r; None where the model cannot decide.  Zero divisors
        include 0."""
        raise NotImplementedError

    def random_element(self, rng: Random, max_length: int = 5):
        gens = self.generators()
        r = self.zero()
        for _ in range(rng.randint(0, max_length)):
            _, s = gens[rng.randrange(len(gens))]
            r = self.add(r, s) if rng.random() < 0.5 else self.sub(r, s)
        return r

    # validation ----------------------------------------------------------

    def _check_r2(self) -> None:
        q = self.generating_polynomial()
        for label, s in self.generators():
            if poly_eval_in_ring(q, s, self) != self.zero():
                raise R2Violation(
                    f"generator {label} of {self.name} is not a root of q"
                )

    # serialization ---------------------------------------------------------

    def element_to_json(self, r):
        raise NotImplementedError

    def format_element(self, r) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


def poly_eval_in_ring(p: IntPolynomial, r, model: RingModel):
    """Horner evaluation of p at r over its nonzero coefficients, stepping
    between two of them by r^gap, each gap's power found once by repeated
    doubling and kept in a dict; integer coefficients act through
    embed_int.  The constant term 0 closes the walk down to X^0."""
    powers: dict = {}
    result, above = model.zero(), p.degree
    for i, c in reversed([(0, 0)] + [(i, c) for i, c in enumerate(p.coeffs) if c]):
        gap = above - i
        if gap > 0:
            if gap not in powers:
                powers[gap] = repeated_doubling(r, gap, model.one(), model.mul)
            result = model.mul(result, powers[gap])
        if c:
            result = model.add(result, model.embed_int(c))
        above = i
    return result


# -- rings free as Z-modules ------------------------------------------------------


@dataclass(frozen=True)
class GhostColumn:
    """One coordinate of a ghost map: a ring homomorphism into Z or into
    a ring of cyclotomic integers, given by its values on the basis, so
    it evaluates a free-model element (its coefficient vector) directly.
    `kernel` is the (kind, label) under which its kernel is listed as a
    minimal prime.  An integer-valued column is a signature, a ring
    homomorphism onto Z."""

    label: str
    values: tuple
    kernel: tuple[str, str]

    def __call__(self, r: Sequence[int]):
        return sum(c * v for c, v in zip(r, self.values) if c)


class FreeRing(RingModel):
    """A ring that is free as a Z-module on a labelled basis, the basis
    being the generating set S.

    Elements are dense integer coefficient tuples over the basis (1-tuples
    for Z), and multiplication follows the sparse structure constants
    e_i * e_j = sum_l c_ijl e_l.  Subclasses supply data only: labels,
    structure constants, the one-vector, root spec and the ghost; the
    arithmetic, generators and length live here.  Since S is a basis,
    the minimal signed decomposition of an element is its coefficient
    vector, so its length is the L1 norm.  The ghost (a tuple of
    GhostColumn) is a jointly injective family of ring homomorphisms
    into Z or Z[zeta]: identity coordinates, group characters or marks.
    Each column is unital, so it sends p(r) to p(its value at r) for an
    integer polynomial p, and p(r) = 0 exactly when p vanishes at every
    ghost value of r; `is_root` evaluates p there instead of in the ring.
    """

    def __init__(
        self,
        name: str,
        labels: Sequence[str],
        structure: Sequence[Sequence[tuple[tuple[int, int], ...]]],
        one: Sequence[int],
        spec: RootSpec,
    ):
        super().__init__(name, spec)
        self.labels = tuple(labels)
        self._structure = structure  # [i][j] -> ((l, c_ijl) for c_ijl != 0)
        self._one = tuple(one)
        n = len(self.labels)
        self._generators = tuple(
            (label, tuple(int(i == j) for j in range(n)))
            for i, label in enumerate(self.labels)
        )
        self._check_r2()

    def ghost_map(self, r) -> tuple:
        return tuple(col(r) for col in self.ghost)

    def lift_ghost(self, r):
        # r is its own least lift, its length the L1 norm
        return self.ghost_map(r)

    @cached_property
    def integral(self) -> bool:
        """Whether every ghost column is integer-valued."""
        return all(isinstance(v, int) for col in self.ghost for v in col.values)

    def signatures(self) -> tuple[GhostColumn, ...]:
        """Every ring homomorphism onto Z: the ghost columns, when they
        are integer-valued."""
        if not self.integral:
            raise UnsupportedModel("signature enumeration needs an exponent-2 group")
        return self.ghost

    def predicates(self, r):
        # the ghost is an injective ring homomorphism into a product of domains
        values = self.ghost_map(r)
        nilpotent = all(v == 0 for v in values)
        return (
            nilpotent,
            r == self.zero(),  # free Z-module
            # a unit maps to units of Z, and r^2 = 1 when every value is a sign
            all(v in (1, -1) for v in values) if self.integral else None,
            any(v == 0 for v in values),
            # the signatures are the columns, when integer-valued
            nilpotent if self.integral else None,
        )

    def is_root(self, p, r):
        # p has integer coefficients, so it kills a value exactly when it
        # kills its Galois conjugates, which the ghost leaves out; a
        # rational cyclotomic value is evaluated as an int
        for value in set(self.ghost_map(r)):
            if isinstance(value, CyclotomicInteger) and value.is_rational:
                value = value.as_int()
            if p(value) != 0:
                return False
        return True

    def zero(self):
        return (0,) * len(self.labels)

    def one(self):
        return self._one

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        out = [0] * len(self.labels)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x == 0:
                continue
            row = self._structure[i]
            for j, y in nonzero_b:
                for l, c in row[j]:
                    out[l] += x * y * c
        return tuple(out)

    def embed_int(self, n):
        return tuple(n * x for x in self._one)

    def generators(self):
        return self._generators

    def length(self, r):
        return sum(abs(x) for x in r)

    def element_to_json(self, r):
        return [[label, str(c)] for label, c in zip(self.labels, r) if c]

    def format_element(self, r):
        return format_terms(
            (c, "" if label == "1" else label) for label, c in zip(self.labels, r)
        )


# -- Z ---------------------------------------------------------------------------


class ZRing(FreeRing):
    """The rational integers with S = {1, -1} and q = X^2 - 1; the ghost
    is the identity."""

    ghost = (GhostColumn("id", (1,), ("signature", "ker id")),)

    def __init__(self):
        super().__init__("Z", ("1",), [[((0, 1),)]], (1,), RootSpec.unity(2))

    def element_to_json(self, r):
        return str(r[0])


# -- products of copies of Z -------------------------------------------------------


class ProductZRing(FreeRing):
    """Z^k with S = {e_i} and q = X^3 - X; the ghost is the projections."""

    def __init__(self, k: int):
        if k < 1:
            raise ExpressionError("k must be positive")
        self.k = k
        structure = [[((i, 1),) if i == j else () for j in range(k)] for i in range(k)]
        super().__init__(
            f"Z^{k}",
            [f"e{i}" for i in range(k)],
            structure,
            (1,) * k,
            RootSpec.integers(-1, 0, 1),
        )

    @cached_property
    def ghost(self):
        return tuple(
            GhostColumn(f"pi{i}", e, ("signature", f"ker pi{i}"))
            for i, (_, e) in enumerate(self.generators())
        )

    def element_to_json(self, r):
        return [str(x) for x in r]

    def format_element(self, r):
        return "(" + ", ".join(str(x) for x in r) + ")"


# -- group rings ------------------------------------------------------------------


# The largest |G| of a group ring.  Z[G] keeps |G|^2 structure constants,
# and a finite quotient builds its cover Z[G] first: C2^9 (order 512) takes
# about 0.6 s and 30 MB, C2^10 about 2.5 s and 130 MB, four times as much
# for each doubling.  The cyclotomic cap on exp(G) is met only after the
# structure constants are built, and bounds |G| only for a cyclic G.
MAX_GROUP_RING_ORDER = 512


class GroupRingModel(FreeRing):
    """Z[G] for a finite abelian G, with S = G and q = X^exp(G) - 1.

    Elements are dense coefficient tuples over the sorted group
    elements; index 0 is the identity.  The ghost is the characters of
    G into the exp(G)-th roots of unity, one per Galois orbit, as
    integer signs when exp(G) <= 2: Z[G] embeds into the product of one
    Z[zeta_d] per orbit.  A G of order above MAX_GROUP_RING_ORDER raises
    OrderBoundExceeded before anything is built.
    """

    def __init__(self, group: FiniteAbelianGroup):
        if group.order > MAX_GROUP_RING_ORDER:
            raise OrderBoundExceeded(
                f"|G| = {group.order} exceeds the limit MAX_GROUP_RING_ORDER = "
                f"{MAX_GROUP_RING_ORDER} of a group ring"
            )
        self.group = group
        self.basis = group.elements()
        index = {g: i for i, g in enumerate(self.basis)}
        structure = [
            [((index[group.add(a, b)], 1),) for b in self.basis] for a in self.basis
        ]
        super().__init__(
            f"Z[{group.describe()}]",
            [self._basis_label(g) for g in self.basis],
            structure,
            [int(i == 0) for i in range(len(self.basis))],
            RootSpec.unity(group.exponent),
        )

    def _basis_label(self, g: tuple[int, ...]) -> str:
        if all(x == 0 for x in g):
            return "1"
        parts = []
        for i, e in enumerate(g):
            if e == 0:
                continue
            gen = "g" if self.group.rank == 1 else f"g{i}"
            parts.append(gen if e == 1 else f"{gen}^{e}")
        return "*".join(parts)

    @cached_property
    def ghost(self):
        # chi_t sends g to zeta_m^(sum_i m/o_i t_i g_i), m = exp(G).  chi_t
        # and chi_at, gcd(a, m) = 1, are Galois conjugate and have the
        # same kernel: the t least in its orbit stands for the orbit.  For
        # m <= 2 the values are signs, and the column is a signature.
        orders, m = self.group.factor_orders, self.group.exponent
        units = [a for a in range(1, m + 1) if gcd(a, m) == 1]
        columns = []
        for t in product(*map(range, orders)):
            if any(tuple(a * x % o for x, o in zip(t, orders)) < t for a in units):
                continue
            powers = [sum(m // o * x * y for x, y, o in zip(t, g, orders)) % m for g in self.basis]
            if m <= 2:
                label = "sigma(" + ",".join("-" if k else "+" for k in powers) + ")"
                values, kernel = tuple(1 - 2 * k for k in powers), ("signature", f"ker {label}")
            else:
                label = "chi(" + ",".join(map(str, t)) + ")"
                values = tuple(CyclotomicInteger.zeta(m, k) for k in powers)
                kernel = ("character", f"ker phi_{label}")
            columns.append(GhostColumn(label, values, kernel))
        return tuple(columns)


# -- Burnside rings ----------------------------------------------------------------


class BurnsideModel(FreeRing):
    """Burnside ring presented by a table of marks.

    Elements are coefficient tuples over the subgroup classes.  The
    mark map sends x to its vector of fixed-point counts; it is an
    injective ring homomorphism into a product of copies of Z and is
    the ghost.  The structure constants are the triangular pullbacks of
    the pointwise products of the basis mark vectors, computed once.
    """

    def __init__(self, table: TableOfMarks, name: Optional[str] = None):
        self.table = table
        self.k = k = table.size
        M = table.marks
        one_rows = [i for i in range(k) if all(v == 1 for v in M[i])]
        if len(one_rows) != 1:
            raise ValueError("the table must have exactly one all-ones row")
        structure = [[()] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                product = self.from_marks(tuple(x * y for x, y in zip(M[i], M[j])))
                structure[i][j] = structure[j][i] = tuple(
                    (l, c) for l, c in enumerate(product) if c
                )
        entries = table.distinct_entries()
        super().__init__(
            name or f"Burnside({table.group_order})",
            [f"c{c.label}" for c in table.classes],
            structure,
            [int(i == one_rows[0]) for i in range(k)],
            RootSpec.integers(*entries),
        )

    @cached_property
    def ghost(self):
        M = self.table.marks
        return tuple(
            GhostColumn(
                f"phi[{cls.label}]",
                tuple(M[i][j] for i in range(self.k)),
                ("dress", f"p[{cls.label},0]"),
            )
            for j, cls in enumerate(self.table.classes)
        )

    def from_marks(self, v: Sequence[int]) -> tuple[int, ...]:
        """Solve the (transposed, triangular) mark system exactly."""
        M = self.table.marks
        out = [0] * self.k
        for j in range(self.k - 1, -1, -1):
            acc = v[j] - sum(M[i][j] * out[i] for i in range(j + 1, self.k))
            if acc % M[j][j]:
                raise NonIntegralPullback(
                    f"mark vector {tuple(v)} has no integral preimage"
                )
            out[j] = acc // M[j][j]
        return tuple(out)


# -- finite quotients ---------------------------------------------------------------


def _hermite_rows(vectors, n: int, dim: int) -> list[tuple[int, ...]]:
    """A triangular Z-basis of the lattice L = span(vectors) + n*Z^dim, for
    vectors with coordinates in range(n) (its Hermite normal form; H. Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, 1993, 2.4):
    row j is zero before column j, its pivot d_j = row[j] divides n, and
    its later entries lie in range(n).  The box 0 <= v_j < d_j holds one
    vector of each coset of L."""
    pool, rows = list(vectors), []
    for j in range(dim):
        # Euclid's algorithm on column j from n*e_j, which lies in L,
        # carrying whole rows mod n*Z^dim, leaves gcd(n, column) in the
        # pivot and zeros in the rest
        pivot, rest = tuple(n * (i == j) for i in range(dim)), []
        for v in pool:
            while v[j]:
                q = pivot[j] // v[j]
                pivot, v = v, tuple((x - q * y) % n for x, y in zip(pivot, v))
            if any(v):
                rest.append(v)
        pool = rest
        rows.append(pivot)
    return rows


class FiniteQuotientRing(RingModel):
    """(Z/N)[G] modulo the ideal J generated by the given elements.

    In the cover, J + N Z^|G| is a lattice L, kept as the Hermite rows of
    the generators' group translates, with pivots d_j | N.  An element is
    the vector of its coset in the box 0 <= v_j < d_j, reached by reducing
    at each row with d_j < N (the other rows are N e_j), left to right.
    The carrier is the box, in order, so |R| = prod d_j and |J| =
    N^|G| / |R|; J is the sums sum_j c_j row_j with 0 <= c_j < N/d_j, each
    met once.  Labels, structure constants, S and the root spec come from
    the cover Z[G]; the name shows N, G and the generators of J.  S is the
    image of the unit vectors e_g, so a vector v of (Z/N)[G] is a sum of
    sum_g min(v_g, N - v_g) signed generators and no fewer: `length` takes
    the least of these over the lifts r + k, k in J, or, when R is the
    smaller, walks R breadth first from 0 by the signed generators until
    it meets r.  The set walked and the carrier are sized against
    max_carrier before they are enumerated, the powers `predicates` walks
    as they grow; the build enumerates none.
    """

    def __init__(
        self,
        modulus: int,
        group: FiniteAbelianGroup,
        ideal_generators: Iterable[Sequence[int]] = (),
    ):
        if modulus < 2:
            raise ExpressionError("modulus must be at least 2")
        self.modulus = modulus
        self.group = group
        self.cover = GroupRingModel(group)
        gens = [self._normalize(v) for v in ideal_generators]
        # L is spanned by N Z^|G| and the group translates of the generators
        seeds = {self.cover.mul(g, e) for g in gens for _, e in self.cover.generators()}
        rows = _hermite_rows(sorted(seeds), modulus, len(self.cover.labels))
        self._pivots = tuple(row[j] for j, row in enumerate(rows))
        self._rows = [(j, row[j], row) for j, row in enumerate(rows) if row[j] < modulus]
        self._size, self._kernel_size = prod(self._pivots), prod(modulus // d for d in self._pivots)
        self._lifts: dict = {}  # r -> (length(r), a least lift), see `_least_lift`
        # the trivial group is left out of the name: Z6, not Z6[C1]
        over = f"[{group.describe()}]" if group.order > 1 else ""
        shown = [self.cover.format_element(g) for g in dict.fromkeys(gens) if any(g)]
        ideal = f"/({', '.join(shown)})" if shown else ""
        # No R2 walk of its own: Z[G] -> (Z/N)[G]/J is a ring homomorphism
        # and the generators here are the images of the cover's, so q(s)
        # is the image of the q(e_g) = 0 that the cover has checked.
        super().__init__(f"Z{modulus}{over}{ideal}", self.cover.root_spec())

    def _normalize(self, vec) -> tuple[int, ...]:
        coords = exact_ints(vec, f"ideal generator {vec!r} is not a list of integers")
        if len(coords) != len(self.cover.labels):
            raise ExpressionError("ideal generator has the wrong number of coordinates")
        return tuple(x % self.modulus for x in coords)

    def _rep(self, vec) -> tuple[int, ...]:
        """The vector of the coset of vec in the box."""
        n = self.modulus
        v = tuple([x % n for x in vec])
        for j, d, row in self._rows:
            q = v[j] // d
            if q:
                v = tuple([(x - q * y) % n for x, y in zip(v, row)])
        return v

    @cached_property
    def _kernel(self) -> list[tuple[int, ...]]:
        n = self.modulus
        default_limits().check_carrier(self._kernel_size)
        kernel = [self.zero()]
        for _, d, row in self._rows:
            kernel = [tuple([(x + c * y) % n for x, y in zip(k, row)])
                      for k in kernel for c in range(n // d)]
        return kernel

    def zero(self):
        return self.cover.zero()  # the least vector of J

    def one(self):
        return self._rep(self.cover.one())

    def add(self, a, b):
        return self._rep(map(operator.add, a, b))

    def neg(self, a):
        return self._rep(map(operator.neg, a))

    def mul(self, a, b):
        return self._rep(self.cover.mul(a, b))

    def embed_int(self, n):
        return self._rep(self.cover.embed_int(n))

    def generators(self):
        return tuple((label, self._rep(e)) for label, e in self.cover.generators())

    def characteristic(self) -> int:
        # the additive order of 1 is |(L + Z 1) / L|, read off both pivots
        rows = [row for _, _, row in self._rows] + [self.one()]
        spanned = _hermite_rows(rows, self.modulus, len(self._pivots))
        return self._size // prod(row[j] for j, row in enumerate(spanned))

    def is_finite(self) -> bool:
        return True

    def carrier(self) -> list:
        default_limits().check_carrier(self._size)
        return list(product(*map(range, self._pivots)))

    def length(self, r):
        return self._least_lift(r)[0]

    def lift_ghost(self, r):
        return self.cover.ghost_map(self._least_lift(r)[1])

    def _least_lift(self, r) -> tuple[int, tuple[int, ...]]:
        """(length(r), a lift of r to the cover with that L1 norm), from one
        walk, kept per r: the least of the vectors r + k, k in J, with
        each coordinate lifted into (-N/2, N/2], or the path by which the
        walk over R first meets r."""
        if r in self._lifts:
            return self._lifts[r]
        n = self.modulus
        if self._kernel_size <= self._size:
            lift = min((tuple(v if 2 * v <= n else v - n for v in ((x + y) % n for x, y in zip(r, k)))
                        for k in self._kernel), key=lambda v: sum(map(abs, v)))
            found = sum(map(abs, lift)), lift
        else:
            default_limits().check_carrier(self._size)
            cover = self.cover
            moves = [(self._rep(e), e) for _, s in cover.generators() for e in (s, cover.neg(s))]
            lifts, frontier, level = {self.zero(): cover.zero()}, [self.zero()], 0
            while r not in lifts:
                step = []
                for v in frontier:
                    for m, e in moves:
                        w = self.add(v, m)
                        if w not in lifts:
                            lifts[w] = cover.add(lifts[v], e)
                            step.append(w)
                frontier, level = step, level + 1
            found = level, lifts[r]
        self._lifts[r] = found
        return found

    def predicates(self, r):
        """Walk the powers r, r^2, ... until one repeats: r is nilpotent when
        0 appears and a unit when 1 appears.  In a finite commutative ring
        every element is a unit or a zero divisor, never both, and every
        element is torsion.  At most max_carrier powers are kept."""
        check = default_limits().check_carrier
        seen = set()
        power = r
        while power not in seen:
            seen.add(power)
            check(len(seen))
            power = self.mul(power, r)
        unit = self.one() in seen
        # positive characteristic: no signatures, so r lies in all of them
        return self.zero() in seen, True, unit, not unit, True

    def element_to_json(self, r):
        return self.cover.element_to_json(r)

    def format_element(self, r):
        return self.cover.format_element(r)


# -- binary products -----------------------------------------------------------------


class ProductRing(RingModel):
    """R1 x R2 with S = (S1 x {0}) u ({0} x S2).

    With these generators the product is additively generated and
    lengths add, but every generator has a zero coordinate, so the
    generating polynomial must vanish at 0: its root set is the union
    of the factors' roots together with 0.  The factors' roots of unity
    merge into mu_lcm of their orders, so the root set may be larger
    than that union: Z[C2] x Z[C3] has the roots mu_6 and 0.
    """

    def __init__(self, left: RingModel, right: RingModel):
        self.left = left
        self.right = right
        spec = left.root_spec().union_with_zero(right.root_spec())
        super().__init__(f"{left.name}x{right.name}", spec)
        self._check_r2()

    def zero(self):
        return (self.left.zero(), self.right.zero())

    def one(self):
        return (self.left.one(), self.right.one())

    def add(self, a, b):
        return (self.left.add(a[0], b[0]), self.right.add(a[1], b[1]))

    def neg(self, a):
        return (self.left.neg(a[0]), self.right.neg(a[1]))

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def embed_int(self, n):
        return (self.left.embed_int(n), self.right.embed_int(n))

    def generators(self):
        out = []
        for label, s in self.left.generators():
            out.append((f"L.{label}", (s, self.right.zero())))
        for label, s in self.right.generators():
            out.append((f"R.{label}", (self.left.zero(), s)))
        return tuple(out)

    def length(self, r):
        return self.left.length(r[0]) + self.right.length(r[1])

    def characteristic(self) -> int:
        c1 = self.left.characteristic()
        c2 = self.right.characteristic()
        if c1 == 0 or c2 == 0:
            return 0
        return lcm(c1, c2)

    def is_finite(self) -> bool:
        return self.left.is_finite() and self.right.is_finite()

    def carrier(self) -> list:
        left, right = self.left.carrier(), self.right.carrier()
        default_limits().check_carrier(len(left) * len(right))  # before any pair is built
        return [(a, b) for a in left for b in right]

    def is_root(self, p, r):
        return self.left.is_root(p, r[0]) and self.right.is_root(p, r[1])

    def lift_ghost(self, r):
        # lengths add, and 0 is a root: a factor's value pads with zeros
        order = self._spec.common_order()
        return tuple(
            v.at_order(order) if isinstance(v, CyclotomicInteger) else v
            for v in self.left.lift_ghost(r[0]) + self.right.lift_ghost(r[1])
        )

    def predicates(self, r):
        # nilpotent, torsion, a unit or in every signature ideal when both
        # coordinates are, a zero divisor when either is, and undecided
        # when either is undecided
        pairs = zip(self.left.predicates(r[0]), self.right.predicates(r[1]))
        return tuple(
            None if None in pair else rule(pair)
            for rule, pair in zip((all, all, all, any, all), pairs)
        )

    def element_to_json(self, r):
        return {
            "left": self.left.element_to_json(r[0]),
            "right": self.right.element_to_json(r[1]),
        }

    def format_element(self, r):
        return f"({self.left.format_element(r[0])} | {self.right.format_element(r[1])})"


# -- annihilation reports ---------------------------------------------------------------


@dataclass(frozen=True)
class AnnihilationReport:
    length: int
    degree: int
    annihilated: bool
    polynomial: IntPolynomial


def verify_annihilated(
    model: RingModel, r, limits: Optional[Limits] = None
) -> AnnihilationReport:
    """Compute n = length(r), build p_n from the model's root spec
    (signed mode) and check p_n(r) = 0 with the model's `is_root`."""
    n = model.length(r)
    if n == 0:
        p = IntPolynomial.x()
    else:
        p = annihilating_polynomial(model.root_spec(), n, "signed", limits)
    return AnnihilationReport(
        length=n,
        degree=p.degree,
        annihilated=model.is_root(p, r),
        polynomial=p,
    )


def annihilated_on_sum_set(model: RingModel, n: int, r) -> tuple[int, bool]:
    """(deg p_n, whether p_n(r) = 0), read off T_n with no p_n expanded.
    p_n is the product of X - t over t in T_n (p_0 = X, T_0 = {0}), so
    its degree is |T_n|, and it kills r when every value of the model's
    `lift_ghost(r)` lies in T_n; for a free model, whose ghost is jointly
    injective into domains, exactly then.  At n = length(r) every value
    is a sum of n signed roots, so the answer is True.
    `verify_annihilated` is the reference, from p_n's coefficients."""
    members = root_sum_set(model.root_spec(), n).members if n else {0}
    return len(members), all(v in members for v in model.lift_ghost(r))


# -- expressions -------------------------------------------------------------------------


_TERM_SPLIT = re.compile(r"(?=[+-])")


def parse_element(model: RingModel, text: str):
    """Parse an integer combination of named generators, e.g.
    "2*g0 - 3*g1 + 1"."""
    compact = text.replace(" ", "")
    if not compact:
        raise ExpressionError("empty expression")
    labels = {label: elt for label, elt in model.generators()}
    result = model.zero()
    terms = [t for t in _TERM_SPLIT.split(compact) if t]
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ExpressionError(f"dangling sign in {text!r}")
        # ASCII digits only, and a "*" needs a generator after it
        m = re.match(r"^([0-9]+)(?:\*(.+))?$", body)
        if m:
            try:
                coeff = int(m.group(1))
            except ValueError:  # past sys.get_int_max_str_digits()
                raise ExpressionError(
                    f"a coefficient of {len(m.group(1))} digits is too long to read"
                ) from None
            rest = m.group(2)
            if rest is None:
                result = model.add(result, model.embed_int(sign * coeff))
                continue
            if rest not in labels:
                raise ExpressionError(f"unknown generator {rest!r} in {text!r}")
            term_value = _scaled(model, labels[rest], sign * coeff)
            result = model.add(result, term_value)
            continue
        if body in labels:
            term_value = _scaled(model, labels[body], sign)
            result = model.add(result, term_value)
            continue
        raise ExpressionError(f"cannot parse term {term!r} in {text!r}")
    return result


def _scaled(model: RingModel, element, n: int):
    result = repeated_doubling(element, abs(n), model.zero(), model.add)
    return model.neg(result) if n < 0 else result


# -- model construction and registry ------------------------------------------------------


def _field(spec: dict, key: str):
    if key not in spec:
        raise ExpressionError(f"model description {spec.get('kind')!r} needs {key!r}")
    return spec[key]


def _int_field(spec: dict, key: str) -> int:
    value = _field(spec, key)
    return exact_ints((value,), f"{key!r} must be an integer, got {value!r}")[0]


def _group(orders) -> FiniteAbelianGroup:
    return FiniteAbelianGroup(exact_ints(orders, f"'factor_orders' must list integers, got {orders!r}"))


# The keys a model description of each kind may hold besides "kind".
_MODEL_KEYS = {
    "Z": (),
    "product_z": ("copies",),
    "group_ring": ("factor_orders",),
    "burnside": ("group",),
    "finite_quotient": ("modulus", "factor_orders", "ideal"),
    "product": ("left", "right"),
}


def construct_model(spec: dict) -> RingModel:
    """Build a model from its JSON description.  A malformed description
    (unknown kind, missing or unknown key, non-integer or out-of-range
    field) raises ExpressionError; any other error is a fault of the
    construction."""
    if not isinstance(spec, dict):
        raise ExpressionError(f"a model description must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if isinstance(kind, str) and kind in _MODEL_KEYS:
        known_keys(spec, ("kind", *_MODEL_KEYS[kind]), f"model description {kind!r}")
    if kind == "Z":
        return ZRing()
    if kind == "product_z":
        return ProductZRing(_int_field(spec, "copies"))
    if kind == "group_ring":
        return GroupRingModel(_group(_field(spec, "factor_orders")))
    if kind == "burnside":
        name = _field(spec, "group")
        G = named_group(str(name))
        return BurnsideModel(table_of_marks(G), name=f"Burnside({name})")
    if kind == "finite_quotient":
        ideal = spec.get("ideal", ())
        if not isinstance(ideal, (list, tuple)):
            raise ExpressionError(f"'ideal' must be a list of coordinate lists, got {ideal!r}")
        return FiniteQuotientRing(
            _int_field(spec, "modulus"),
            _group(spec.get("factor_orders", ())),
            ideal,
        )
    if kind == "product":
        return ProductRing(
            construct_model(_field(spec, "left")), construct_model(_field(spec, "right"))
        )
    raise ExpressionError(f"unknown model kind: {kind!r}")


@lru_cache(maxsize=None)
def bundled_model(name: str) -> RingModel:
    """Named models used by the command line and the verification suite."""
    if name == "Z":
        return ZRing()
    if name == "Z^3":
        return ProductZRing(3)
    if name == "Z[C2]":
        return GroupRingModel(FiniteAbelianGroup((2,)))
    if name == "Z[C2xC2]":
        return GroupRingModel(FiniteAbelianGroup((2, 2)))
    if name == "Z[C4]":
        return GroupRingModel(FiniteAbelianGroup((4,)))
    if name.startswith("burnside-"):
        group_name = name[len("burnside-"):]
        G = named_group(group_name)
        return BurnsideModel(table_of_marks(G), name=name)
    m = re.fullmatch(r"Z([0-9]+)(?:\[(C[0-9]+(?:xC[0-9]+)*)\])?", name)
    if m:
        try:
            modulus = int(m.group(1))
            orders = tuple(int(part[1:]) for part in m.group(2).split("x")) if m.group(2) else ()
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ExpressionError("a number in the model name is too long to read") from None
        return FiniteQuotientRing(modulus, FiniteAbelianGroup(orders))
    raise ExpressionError(f"unknown bundled model: {name!r}")


# Finite models exercised by the oracle-agreement checks.
FINITE_BUNDLED = (
    "Z2",
    "Z3",
    "Z4",
    "Z5",
    "Z6",
    "Z8",
    "Z9",
    "Z12",
    "Z2[C2]",
    "Z4[C2]",
    "Z8[C2]",
)
