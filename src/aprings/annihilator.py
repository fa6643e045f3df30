"""Root-sum sets T_n and annihilating polynomials p_n.

Given a squarefree monic generating polynomial q with known complex
roots, every ring element expressible as a signed sum of n roots of q
is annihilated by p_n(X), the monic squarefree polynomial whose root
set is T_n = {sum of n signed roots}.  This module enumerates T_n
exactly and also provides the classical closed forms for the families
q = X^2 - 1 (Lewis polynomials), q = X^4 - 1 (quartic products),
q = X^(2^k) - 1 (degree and parity data) and q = X^2 - 2^k X
(Pfister chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, lcm, prod
from typing import Literal, Optional

from .config import Limits, default_limits
from .cyclotomic import CyclotomicInteger, cyclotomic_polynomial, poly_from_roots
from .errors import BoundExceeded, ExpressionError, exact_ints, known_keys
from .intpoly import IntPolynomial, decimal_str, packed_product

SignMode = Literal["signed", "unsigned"]

_MODES = ("signed", "unsigned")


_OVERLAP = "atoms overlap: the union of root sets must be duplicate-free"


def _rational_units(m: Optional[int]) -> set[int]:
    """The integers among the m-th roots of unity; none without mu_m."""
    return set() if m is None else {1, -1} if m % 2 == 0 else {1}


@dataclass(frozen=True)
class RootSpec:
    """The complex roots of q(X): all m-th roots of unity mu_m when
    `mu` = m is given, and the integer roots `ints`, kept sorted.  Any
    two sets of roots of unity share 1, so one mu_m is all a spec can
    hold.  A spec is checked once, when it is built: the integers are
    pairwise distinct, there is at least one root, and no integer lies
    in mu_m."""

    mu: Optional[int]
    ints: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mu is not None and self.mu < 1:
            raise ExpressionError("order must be positive")
        ints = tuple(sorted(int(v) for v in self.ints))
        if len(set(ints)) != len(ints):
            raise ExpressionError("integer roots must be pairwise distinct")
        if self.mu is None and not ints:
            raise ExpressionError("a root spec needs at least one atom")
        if _rational_units(self.mu) & set(ints):
            raise ExpressionError(_OVERLAP)
        object.__setattr__(self, "ints", ints)

    @staticmethod
    def integers(*values: int) -> "RootSpec":
        return RootSpec(None, values)

    @staticmethod
    def unity(order: int) -> "RootSpec":
        return RootSpec(order)

    def common_order(self) -> int:
        return self.mu or 1

    def roots(self) -> tuple[CyclotomicInteger, ...]:
        """All roots, at the common order, sorted."""
        order = self.common_order()
        out = [CyclotomicInteger.from_int(v, order) for v in self.ints]
        out.extend(CyclotomicInteger.zeta(order, j) for j in range(self.mu or 0))
        return tuple(sorted(out, key=lambda r: r.sort_key()))

    def polynomial(self) -> IntPolynomial:
        """q: X^m - 1 for mu_m times X - v for each integer root v.  The
        order is checked against the cyclotomic degree cap, as `roots`
        checks it."""
        cyclotomic_polynomial(self.common_order())
        factors = [IntPolynomial.monomial(self.mu) - 1] if self.mu else []
        return packed_product(factors + [IntPolynomial((-v, 1)) for v in self.ints])

    def union_with_zero(self, other: "RootSpec") -> "RootSpec":
        """The roots of both specs and 0.  Roots of unity merge into
        mu_lcm of their orders, which may strictly enlarge the root set
        (mu_2 and mu_3 give mu_6); the result still holds every root of
        both."""
        mu = lcm(self.mu or 1, other.mu or 1) if self.mu or other.mu else None
        return RootSpec(mu, tuple({0, *self.ints, *other.ints} - _rational_units(mu)))

    def unity_order(self) -> Optional[int]:
        """m when the spec is mu_m alone, else None."""
        return None if self.ints else self.mu

    def to_json(self) -> dict:
        atoms = [{"kind": "roots_of_unity", "order": self.mu}] if self.mu else []
        if self.ints:
            atoms.append({"kind": "integers", "values": list(self.ints)})
        return {"atoms": atoms}

    @staticmethod
    def from_json(data: dict) -> "RootSpec":
        """The spec of a list of atoms with disjoint root sets, such as
        `to_json` writes; a malformed list raises ExpressionError, and so
        does one whose atoms overlap (two roots_of_unity atoms always do),
        as one without atoms does."""
        raw_atoms = data.get("atoms") if isinstance(data, dict) else None
        if not isinstance(raw_atoms, list):
            raise ExpressionError(f"a root spec needs a list 'atoms', got {data!r}")
        known_keys(data, ("atoms",), "a root spec")
        atoms = [_atom_from_json(raw) for raw in raw_atoms]
        orders = [atom.mu for atom in atoms if atom.mu]
        ints = [v for atom in atoms for v in atom.ints]
        if len(orders) > 1 or len(set(ints)) != len(ints):
            raise ExpressionError(_OVERLAP)
        return RootSpec(orders[0] if orders else None, tuple(ints))


def _atom_from_json(raw) -> RootSpec:
    """One atom of a JSON root spec, as the spec of its roots alone."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind == "integers":
        known_keys(raw, ("kind", "values"), "root atom 'integers'")
        values = raw.get("values")
        if not isinstance(values, list) or not values:
            raise ExpressionError(f"'values' must be a nonempty list of integers, got {values!r}")
        return RootSpec(None, tuple(_json_int("values", v) for v in values))
    if kind == "roots_of_unity":
        known_keys(raw, ("kind", "order"), "root atom 'roots_of_unity'")
        return RootSpec(_json_int("order", raw.get("order")))
    raise ExpressionError(f"unknown root atom kind: {kind!r}")


def _json_int(key: str, value) -> int:
    return exact_ints((value,), f"{key!r}: {value!r} is not an integer")[0]


@dataclass(frozen=True)
class SumSet:
    """Canonically sorted, duplicate-free set of n-fold root sums."""

    order: int
    n: int
    elements: tuple[CyclotomicInteger, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def members(self) -> frozenset:
        """The elements as a set, built once: a rational element equals and
        hashes like its int, so an int ghost value is looked up as it is."""
        return frozenset(self.elements)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "n": self.n,
            "elements": [list(map(decimal_str, e.coords)) for e in self.elements],
        }


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def _extend(current: set[int], roots: tuple[int, ...], mode: SignMode, cap: int) -> set[int]:
    """All t + r (and t - r in signed mode) for t in current and r in roots,
    as packed sums (see `_sums`)."""
    nxt: set[int] = set()
    for r in roots:
        nxt.update(t + r for t in current)
        if mode == "signed":
            nxt.update(t - r for t in current)
        if len(nxt) > cap:
            raise BoundExceeded(
                f"sum set exceeds the limit max_sumset = {cap}: reached {len(nxt)} elements"
            )
    return nxt


def root_sum_set(
    spec: RootSpec, n: int, mode: SignMode = "signed", limits: Optional[Limits] = None
) -> SumSet:
    """T_n: all values of eps_1*s_1 + ... + eps_n*s_n with the s_i
    drawn from the given roots (eps_i = 1 in unsigned mode), computed
    by iterated set extension."""
    _check_mode(mode)
    limits = limits or default_limits()
    if n < 1:
        raise ValueError("n must be positive")
    if n > limits.max_summands:
        raise BoundExceeded(f"n = {n} exceeds the summand bound {limits.max_summands}")
    return _sum_set_cached(spec, n, mode, limits)


def _sums(spec: RootSpec, n: int, mode: SignMode, cap: int) -> tuple[CyclotomicInteger, ...]:
    """All sums eps_1*s_1 + ... + eps_n*s_n with each s_i a root of spec
    (eps_i = 1 in unsigned mode), sorted, at the spec's common order.

    The sums are enumerated as packed integers: a coordinate vector
    (c_0, ..., c_(d-1)) is the int with digits c_j + bias in base
    2^width, coordinate 0 the most significant.  Here bias is n times the
    largest absolute root coordinate, so every coordinate of every
    partial sum lies in [-bias, bias], and each digit lies in
    [0, 2*bias], which width = (2*bias + 1).bit_length() bits hold.  A
    root packs without the bias, so adding or subtracting it adds or
    subtracts its coordinates digit by digit, and no digit ever carries
    into or borrows from the next.  As the digits are nonnegative and of
    one fixed width, int order is the lexicographic order of the
    coordinate tuples, so the sorted ints unpack once into the sorted
    sums: tuples of exactly phi(order) ints, which become values through
    the trusted `CyclotomicInteger._reduced`."""
    order = spec.common_order()
    roots = [r.coords for r in spec.roots()]
    bias = n * max((abs(c) for coords in roots for c in coords), default=0)
    width = (2 * bias + 1).bit_length()
    zero = CyclotomicInteger.from_int(0, order).coords
    shifts = range(width * (len(zero) - 1), -1, -width)

    def pack(coords: tuple[int, ...], offset: int) -> int:
        return sum((c + offset) << s for c, s in zip(coords, shifts))

    packed = tuple(pack(coords, 0) for coords in roots)
    current = {pack(zero, bias)}
    for _ in range(n):
        current = _extend(current, packed, mode, cap)
    mask = (1 << width) - 1
    return tuple(
        CyclotomicInteger._reduced(order, tuple(((v >> s) & mask) - bias for s in shifts))
        for v in sorted(current)
    )


@lru_cache(maxsize=512)
def _sum_set_cached(spec: RootSpec, n: int, mode: SignMode, limits: Limits) -> SumSet:
    elements = _sums(spec, n, mode, limits.max_sumset)
    return SumSet(order=spec.common_order(), n=n, elements=elements)


# The largest predicted size of p_n, in coefficient bits, that
# `annihilating_polynomial` expands.  The prediction is Mignotte's bound
# |a_k| <= C(d, k) prod max(1, |t|) over T_n, with |t| <= n rho (rho the
# largest root modulus), in exact integers: (d + 1) coefficients of at
# most d + 1 + d * (n rho).bit_length() bits each, d = |T_n|.  Measured on
# a shared 2-CPU VM: the package's own uses predict at most 2.8e6 (mu_8,
# n = 6; Burnside(A5)'s p_5 2.3e6).  Expansion time follows the actual
# bits, 1-10% of the prediction: mu_10 and {0, 2, 3} at n = 5 predict
# 3.1e7 and expand in 0.3 s, mu_15 and {0, 2} at n = 3 predict 8.6e7 and
# take 2 s, and mu_15 and {0, 2, 3, 4, 6, 12} at n = 3 predict 4.6e8 and
# took 15-20 s.
MAX_POLY_BITS = 2**26


def annihilating_polynomial(
    spec: RootSpec, n: int, mode: SignMode = "signed", limits: Optional[Limits] = None
) -> IntPolynomial:
    """p_n for the given root spec: the monic squarefree polynomial
    vanishing exactly on root_sum_set(spec, n, mode).  A p_n predicted to
    hold more than MAX_POLY_BITS coefficient bits raises BoundExceeded
    before it is expanded."""
    limits = limits or default_limits()
    d = len(root_sum_set(spec, n, mode, limits))
    rho = max([1] * bool(spec.mu) + [abs(v) for v in spec.ints])
    bits = (d + 1) * (d + 1 + d * (n * rho).bit_length())
    if bits > MAX_POLY_BITS:
        raise BoundExceeded(
            f"p_{n} exceeds the limit MAX_POLY_BITS = {MAX_POLY_BITS}: its {d + 1} "
            f"coefficients are predicted to hold up to {bits} bits"
        )
    return _poly_of_sumset(spec, n, mode, limits)


@lru_cache(maxsize=512)
def _poly_of_sumset(spec: RootSpec, n: int, mode: SignMode, limits: Limits) -> IntPolynomial:
    # keyed like _sum_set_cached, so a hit hashes no CyclotomicInteger
    return poly_from_roots(_sum_set_cached(spec, n, mode, limits).elements)


# -- closed forms -----------------------------------------------------------


def lewis_polynomial(n: int) -> IntPolynomial:
    """Closed form of p_n for q = X^2 - 1: roots {-n, -n+2, ..., n}."""
    if n < 1:
        raise ValueError("n must be positive")
    return IntPolynomial.from_roots(range(-n, n + 1, 2))


def quartic_t(n: int) -> IntPolynomial:
    """t_n(x) = (x^4 - n^4) * prod over a+b=n, a,b >= 1, of
    (x^4 - 2(a^2-b^2)x^2 + (a^2+b^2)^2); vanishes exactly on the
    Gaussian integers a+bi with |a|+|b| = n."""
    if n < 1:
        raise ValueError("n must be positive")
    factors = (
        IntPolynomial(((a * a + b * b) ** 2, 0, -2 * (a * a - b * b), 0, 1))
        for a, b in zip(range(1, n), range(n - 1, 0, -1))
    )
    return prod(factors, start=IntPolynomial.monomial(4) - n**4)


def quartic_p(n: int) -> IntPolynomial:
    """Closed form of p_n for q = X^4 - 1: the alternating product
    t_n * t_(n-2) * ... * t_2 * X (n even) or ... * t_1 (n odd)."""
    if n < 1:
        raise ValueError("n must be positive")
    result = prod((quartic_t(m) for m in range(n, 0, -2)), start=IntPolynomial.constant(1))
    return result * IntPolynomial.x() if n % 2 == 0 else result


def pfister_chain_polynomial(n: int, k: int) -> IntPolynomial:
    """Closed form of p_n for q = X^2 - 2^k X under unsigned sums:
    roots {0, 2^k, 2*2^k, ..., n*2^k}."""
    if n < 1:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    step = 2**k
    return IntPolynomial.from_roots(j * step for j in range(n + 1))


def degree_bound(n: int, k: int) -> int:
    """The classical bound 2^(n-1) * (2^k - 1) + 1 for deg p_n when
    q = X^(2^k) - 1.  Enumeration shows the actual |T_n| exceeds this
    for k >= 2 at small n, so treat it as a reference value, not a
    guaranteed inequality."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return 2 ** (n - 1) * (2**k - 1) + 1


def exact_degree(n: int, k: int) -> int:
    """deg p_n = |T_n| for q = X^(2^k) - 1, k >= 1: the sums of n signed
    basis vectors of Z^d, d = 2^(k-1), are the points of the parity of n
    in the L1 ball of radius n, which has sum_i 2^i C(d,i) C(r-1,i-1)
    points of norm r >= 1 and one of norm 0."""
    d = 2 ** (k - 1)
    return sum(
        sum(2**i * comb(d, i) * comb(r - 1, i - 1) for i in range(1, d + 1)) if r else 1
        for r in range(n % 2, n + 1, 2)
    )


# -- presets ------------------------------------------------------------------


# the largest K of the presets x2k-1:K and pfister:K, checked before 2^K is built
MAX_PRESET_K = 1024


def _preset_k(text: str) -> int:
    """The K of a preset, in ASCII digits; a K above MAX_PRESET_K raises
    BoundExceeded."""
    if not (text.isascii() and text.isdecimal()):
        raise ExpressionError(f"k must be a nonnegative integer, got {text!r}")
    try:
        k = int(text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise ExpressionError(f"a k of {len(text)} digits is too long to read") from None
    if k > MAX_PRESET_K:
        raise BoundExceeded(f"k = {k} exceeds the limit max_preset_k = {MAX_PRESET_K}")
    return k


def root_spec_preset(name: str) -> tuple[RootSpec, SignMode]:
    """Named root specs for the bundled generating polynomials.

    x2-1       roots {-1, 1}              (signed sums)
    x4-1       fourth roots of unity      (signed sums)
    x2k-1:K    2^K-th roots of unity      (signed sums)
    pfister:K  roots {0, 2^K}             (unsigned sums)
    """
    parts = name.split(":")
    key = parts[0]
    if key == "x2-1" and len(parts) == 1:
        return RootSpec.integers(-1, 1), "signed"
    if key == "x4-1" and len(parts) == 1:
        return RootSpec.unity(4), "signed"
    if key in ("x2k-1", "pfister") and len(parts) == 2:
        k = _preset_k(parts[1])
        if key == "x2k-1":
            return RootSpec.unity(2**k), "signed"
        return RootSpec.integers(0, 2**k), "unsigned"
    raise ExpressionError(f"unknown root spec preset: {name!r}")


def closed_form_for_preset(name: str, n: int) -> Optional[IntPolynomial]:
    key = name.split(":")[0]
    if key == "x2-1":
        return lewis_polynomial(n)
    if key == "x4-1":
        return quartic_p(n)
    if key == "pfister":
        k = int(name.split(":")[1])
        return pfister_chain_polynomial(n, k)
    return None
