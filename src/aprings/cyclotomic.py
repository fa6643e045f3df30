"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

An element is a coordinate vector over the power basis
1, zeta, ..., zeta^(d-1) of Z[X]/(Phi_m), d = deg Phi_m, and keeps the
order m it was built at: adding, multiplying or comparing values of
different orders raises ValueError naming both orders.  The rational
integers are exactly the values whose non-constant coordinates vanish;
such a value equals its int and hashes like it, and every other value
hashes as its coordinate tuple.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Optional, Sequence

from .errors import CheckFailed, NonIntegerCoefficient, UnsupportedOrder
from .intpoly import IntPolynomial, decimal_str, format_terms, packed_product, repeated_doubling


# -- elementary number theory ------------------------------------------------


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs a positive argument")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


# -- cyclotomic polynomials ----------------------------------------------------


# the largest supported deg Phi_m = phi(m)
MAX_CYCLOTOMIC_DEGREE = 64
# phi(m) >= sqrt(m/2), so every order above this has deg Phi_m above the cap
MAX_CYCLOTOMIC_ORDER = 2 * MAX_CYCLOTOMIC_DEGREE**2


def cyclotomic_polynomial(m: int) -> IntPolynomial:
    """The m-th cyclotomic polynomial Phi_m, computed by exact division
    of X^m - 1 by the product of Phi_d over proper divisors d of m.
    Raises UnsupportedOrder when its degree exceeds
    MAX_CYCLOTOMIC_DEGREE, for an m above MAX_CYCLOTOMIC_ORDER before m
    is factored."""
    if m < 1:
        raise ValueError("order must be positive")
    if m > MAX_CYCLOTOMIC_ORDER:
        raise UnsupportedOrder(
            f"deg Phi_m exceeds the limit max_cyclotomic_degree = {MAX_CYCLOTOMIC_DEGREE}: "
            f"the order m = {decimal_str(m)} is above {MAX_CYCLOTOMIC_ORDER}, "
            f"and phi(m) >= sqrt(m/2)"
        )
    if euler_phi(m) > MAX_CYCLOTOMIC_DEGREE:
        raise UnsupportedOrder(
            f"deg Phi_{m} = {euler_phi(m)} exceeds the limit "
            f"max_cyclotomic_degree = {MAX_CYCLOTOMIC_DEGREE}"
        )
    return _cyclotomic(m)


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> IntPolynomial:
    num = IntPolynomial.monomial(m) - 1
    for d in divisors(m)[:-1]:
        q, r = divmod(num, _cyclotomic(d))
        if not r.is_zero:
            raise CheckFailed(f"Phi_{d} does not divide X^{m} - 1 exactly")
        num = q
    return num


@lru_cache(maxsize=None)
def _reduction_state(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # every element of order m is built through here, so this is where
    # the degree cap is checked
    phi = cyclotomic_polynomial(m)
    # X^d = -(low part of Phi_m) since Phi_m is monic; only its nonzero
    # terms (j, a_j) are kept
    return phi.degree, tuple((j, a) for j, a in enumerate(phi.coeffs[:-1]) if a)


def _reduce(m: int, vec: Sequence[int]) -> tuple[int, ...]:
    d, low = _reduction_state(m)
    v = list(vec)
    # from the top down: X^i folds into exponents below i, so v[i] is
    # never read again and need not be cleared
    for i in range(len(v) - 1, d - 1, -1):
        c = v[i]
        if c:
            base = i - d
            for j, a in low:
                v[base + j] -= c * a
    if len(v) < d:
        v.extend([0] * (d - len(v)))
    return tuple(v[:d])


def _times(m: int, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The product of two coordinate vectors of Z[zeta_m]: the schoolbook
    product of the polynomials, then `_reduce`."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return _reduce(m, out)


# -- elements ------------------------------------------------------------------


class CyclotomicInteger:
    """An element of Z[zeta_order], by its power-basis coordinates.

    The public constructor validates: it converts every coordinate with
    `int()` and reduces a vector of any length mod Phi_order.  Every
    producer inside this module and `annihilator._sums` already holds a
    reduced tuple of exactly phi(order) ints, of an order that has passed
    `_reduction_state` (where the degree cap is checked), and builds the
    value with the trusted `_reduced` instead.  An exact `int` operand of
    `+` and `*` is a scalar: it is added to coordinate 0, or scales each
    coordinate, without being lifted to a value of its own.

    A value keeps its order: the roots of one q all sit at the common
    order of its root spec, so every sum set, orbit product and ghost
    value is computed at one order, and an operand of another order is
    a fault that `+`, `*` and `==` report with ValueError.  p_n
    never builds a set of these objects: `annihilator._sums` enumerates
    T_n on packed integers, and `poly_from_roots` keys the roots by
    coordinate tuple and rotates, powers and traces them with `_times`
    on those tuples.  Its one use of this class's arithmetic is the
    Horner check that each orbit factor vanishes at its root.
    """

    __slots__ = ("order", "coords")

    def __init__(self, order: int, coords: Sequence[int]):
        if order < 1:
            raise ValueError("order must be positive")
        d, _ = _reduction_state(order)
        coords = tuple(int(c) for c in coords)
        if len(coords) != d:
            coords = _reduce(order, coords)
        self.order = order
        self.coords = coords

    @staticmethod
    def _reduced(order: int, coords: tuple[int, ...]) -> "CyclotomicInteger":
        """The value with these coordinates, taken as they are: `coords`
        must be a tuple of exactly phi(order) ints, and `order` one that
        `_reduction_state` has accepted."""
        value = object.__new__(CyclotomicInteger)
        value.order = order
        value.coords = coords
        return value

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int, order: int = 1) -> "CyclotomicInteger":
        d, _ = _reduction_state(order)
        return CyclotomicInteger._reduced(order, (int(n),) + (0,) * (d - 1))

    @staticmethod
    def zeta(m: int, j: int = 1) -> "CyclotomicInteger":
        j %= m
        return CyclotomicInteger(m, (0,) * j + (1,))

    def at_order(self, m: int) -> "CyclotomicInteger":
        """The same value at order m, a multiple of its own order:
        zeta_order = zeta_m^(m / order)."""
        if m % self.order:
            raise ValueError(f"order {self.order} does not divide {m}")
        step = m // self.order
        coords = [0] * (step * (len(self.coords) - 1) + 1)
        coords[::step] = self.coords
        return CyclotomicInteger(m, coords)

    # -- queries ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def as_int(self) -> Optional[int]:
        """The integer value, or None when the element is irrational."""
        if self.is_rational:
            return self.coords[0]
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "CyclotomicInteger":
        if type(other) is int:
            return CyclotomicInteger._reduced(
                self.order, (self.coords[0] + other,) + self.coords[1:]
            )
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInteger._reduced(self.order, tuple(map(add, self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger._reduced(self.order, tuple(-c for c in self.coords))

    def __mul__(self, other) -> "CyclotomicInteger":
        if type(other) is int:
            return CyclotomicInteger._reduced(self.order, tuple(c * other for c in self.coords))
        other = _coerce(other, self.order)
        if other is NotImplemented:
            return NotImplemented
        return CyclotomicInteger._reduced(self.order, _times(self.order, self.coords, other.coords))

    __rmul__ = __mul__

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_rational and self.coords[0] == other
        if isinstance(other, CyclotomicInteger):
            _check_orders(self.order, other.order)
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value equals its int, so it hashes like it
        return hash(self.coords[0]) if self.is_rational else hash(self.coords)

    def sort_key(self) -> tuple:
        return (self.order, self.coords)

    def __repr__(self) -> str:
        return f"CyclotomicInteger({self})"

    def __str__(self) -> str:
        gen = "i" if self.order == 4 else f"z{self.order}"
        return format_terms(
            (c, "" if j == 0 else gen if j == 1 else f"{gen}^{j}")
            for j, c in enumerate(self.coords)
        )


def _check_orders(order: int, other: int) -> None:
    if order != other:
        raise ValueError(
            f"cyclotomic values of orders {order} and {other} do not combine: "
            "a value keeps the order it was built at"
        )


def _coerce(value, order: int):
    """value as an operand at this order: an int is embedded, and a value
    of another order raises ValueError."""
    if isinstance(value, CyclotomicInteger):
        _check_orders(order, value.order)
        return value
    if isinstance(value, int):
        return CyclotomicInteger.from_int(value, order)
    return NotImplemented


# -- public operations -----------------------------------------------------------


@lru_cache(maxsize=None)
def _galois_action(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The automorphisms zeta -> zeta^a, gcd(a, m) = 1, of Z[zeta_m] as
    matrices acting on power-basis coordinates, each a tuple of rows."""
    d, _ = _reduction_state(m)
    return tuple(
        tuple(zip(*(CyclotomicInteger.zeta(m, j * a).coords for j in range(d))))
        for a in range(1, m + 1)
        if gcd(a, m) == 1
    )


@lru_cache(maxsize=None)
def _trace_vector(m: int) -> tuple[int, ...]:
    """Tr(zeta^j), j < phi(m): the constant coordinates of the conjugates
    of zeta^j, summed.  Tr(x) is its dot product with x's coordinates."""
    return tuple(map(sum, zip(*(rows[0] for rows in _galois_action(m)))))


def _orbit_factor(m: int, u: tuple[int, ...], s: int) -> IntPolynomial:
    """prod (Y - sigma(u)) over the s distinct conjugates of u.  The trace
    counts each conjugate phi(m)/s times, so the power sums are
    P_j = s Tr(u^j) / phi(m), and by Newton's identities the coefficient
    c_j of Y^(s-j) is -(c_(j-1) P_1 + ... + c_0 P_j) / j.  Every division
    must be exact, and the factor must vanish at u by Horner's rule."""
    trace = _trace_vector(m)
    sums, coeffs = [], [1]
    for j, power in enumerate(accumulate(repeat(u, s), partial(_times, m)), 1):
        p, r = divmod(s * sum(map(mul, trace, power)), len(trace))
        sums.append(p)
        c, r2 = divmod(-sum(map(mul, reversed(coeffs), sums)), j)
        if r or r2:
            raise CheckFailed(f"the power sums of {s} conjugates give no integer coefficient of Y^{s - j}")
        coeffs.append(c)
    factor = IntPolynomial(reversed(coeffs))
    if factor(CyclotomicInteger._reduced(m, u)) != 0:
        raise CheckFailed(f"the orbit factor {factor} does not vanish at {CyclotomicInteger(m, u)}")
    return factor


def _rotation(m: int, nonzero: set[tuple[int, ...]]):
    """The largest k | lcm(2, m) such that a primitive k-th root of unity
    w = +-zeta_m^j maps the nonzero roots onto themselves, and t -> w*t
    on them: j shifts, each folded through the low terms of Phi_m."""
    _, low = _reduction_state(m)
    for k in reversed(divisors(lcm(2, m))):
        sign, j = (1, m // k % m) if m % k == 0 else (-1, 2 * m // k % m)
        if m % 2 == 0 and j >= m // 2:
            sign, j = -sign, j - m // 2
        step = {}
        for key in nonzero:
            v = list(key)
            for _ in range(j):
                top = v.pop()
                v.insert(0, 0)
                for i, a in low if top else ():
                    v[i] -= top * a
            image = tuple(v) if sign > 0 else tuple(-c for c in v)
            if image not in nonzero:
                break
            step[key] = image
        else:
            return k, step


def poly_from_roots(roots: Iterable[CyclotomicInteger]) -> IntPolynomial:
    """Monic integer polynomial with the given distinct cyclotomic roots.

    The roots all have one order m.  When a primitive k-th root of unity
    maps the nonzero roots onto themselves (`_rotation` finds the largest
    such k | lcm(2, m)), they fall into classes t*mu_k with distinct k-th
    powers, and the product is X^[0 is a root] * G(X^k),
    G = prod (Y - t^k) over the classes, with t the least member.  Each
    conjugate of t under zeta -> zeta^a, gcd(a, m) = 1, is mapped to its
    class, so the classes split into Galois orbits, and a conjugate that
    is no root is named with t.  An orbit of s classes holds the s
    conjugates of u = t^k: its factor is Y - u when s = 1, else
    `_orbit_factor`'s.  `packed_product` multiplies the factors.
    Raises NonIntegerCoefficient when a conjugate of a root is missing
    (then some coefficient is irrational), ValueError on a repeated root
    or on roots of two orders, and CheckFailed when a factor or the
    degree fails its check.
    """
    rs = list(roots)
    if not rs:
        return IntPolynomial.constant(1)
    m = rs[0].order
    for r in rs:
        _check_orders(m, r.order)
    keys = [r.coords for r in rs]
    if len(set(keys)) != len(keys):
        raise ValueError("duplicate roots")
    nonzero = set(keys) - {(0,) * len(keys[0])}
    k, step = _rotation(m, nonzero)
    cls, reps = {}, []  # the least member of each root's class; those members, ascending
    for t in sorted(nonzero):
        if t not in cls:
            reps.append(t)
            for _ in range(k):
                cls[t] = reps[-1]
                t = step[t]
    done, factors = set(), []
    for t in reps:
        if t in done:
            continue
        images = [tuple(sum(map(mul, t, row)) for row in rows) for rows in _galois_action(m)]
        if missing := [image for image in images if image not in cls]:
            raise NonIntegerCoefficient(
                f"the conjugate {CyclotomicInteger(m, min(missing))} of the root "
                f"{CyclotomicInteger(m, t)} is missing"
            )
        orbit = {cls[image] for image in images}
        done |= orbit
        u = repeated_doubling(t, k, None, partial(_times, m))
        if len(orbit) > 1:
            factors.append(_orbit_factor(m, u, len(orbit)))
        elif any(u[1:]):
            raise CheckFailed(f"the Galois-fixed power {CyclotomicInteger(m, u)} is irrational")
        else:
            factors.append(IntPolynomial((-u[0], 1)))
    g = packed_product(factors)
    has_zero = len(nonzero) < len(keys)
    degree = k * g.degree + has_zero
    if degree != len(keys):
        raise CheckFailed(f"the product of the orbit factors has degree {degree}, not {len(keys)}")
    coeffs = [0] * (degree + 1)
    coeffs[has_zero::k] = g.coeffs
    return IntPolynomial(coeffs)
