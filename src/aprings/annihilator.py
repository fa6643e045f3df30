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
from functools import lru_cache
from math import comb, lcm, prod
from typing import Literal, Optional, Union

from .config import Limits, default_limits
from .cyclotomic import CyclotomicInteger, poly_from_roots
from .errors import BoundExceeded, ExpressionError, exact_ints, known_keys
from .intpoly import IntPolynomial, decimal_str, packed_product

SignMode = Literal["signed", "unsigned"]

_MODES = ("signed", "unsigned")


@dataclass(frozen=True)
class IntegerRoots:
    """A finite set of pairwise distinct integer roots."""

    values: tuple[int, ...]

    def __post_init__(self):
        values = tuple(int(v) for v in self.values)
        if len(set(values)) != len(values):
            raise ExpressionError("integer roots must be pairwise distinct")
        object.__setattr__(self, "values", tuple(sorted(values)))

    def to_json(self) -> dict:
        return {"kind": "integers", "values": list(self.values)}


@dataclass(frozen=True)
class RootsOfUnity:
    """All m-th roots of unity (not only the primitive ones)."""

    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ExpressionError("order must be positive")

    def to_json(self) -> dict:
        return {"kind": "roots_of_unity", "order": self.order}


Atom = Union[IntegerRoots, RootsOfUnity]


@dataclass(frozen=True)
class RootSpec:
    """Union of root atoms describing the complex roots of q(X)."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ExpressionError("a root spec needs at least one atom")
        object.__setattr__(self, "atoms", atoms)

    @staticmethod
    def integers(*values: int) -> "RootSpec":
        return RootSpec((IntegerRoots(tuple(values)),))

    @staticmethod
    def unity(order: int) -> "RootSpec":
        return RootSpec((RootsOfUnity(order),))

    def common_order(self) -> int:
        return lcm(*(atom.order for atom in self.atoms if isinstance(atom, RootsOfUnity)))

    def roots(self) -> tuple[CyclotomicInteger, ...]:
        """All roots, at the common order; duplicates are an error."""
        order = self.common_order()
        out: list[CyclotomicInteger] = []
        for atom in self.atoms:
            if isinstance(atom, IntegerRoots):
                out.extend(CyclotomicInteger.from_int(v, order) for v in atom.values)
            else:
                step = order // atom.order
                out.extend(CyclotomicInteger.zeta(order, j * step) for j in range(atom.order))
        if len({r.coords for r in out}) != len(out):
            raise ExpressionError("atoms overlap: the union of root sets must be duplicate-free")
        return tuple(sorted(out, key=lambda r: r.sort_key()))

    def _split(self) -> tuple[list[int], list[int]]:
        """(roots-of-unity orders, integer roots) over all atoms."""
        orders = [atom.order for atom in self.atoms if isinstance(atom, RootsOfUnity)]
        ints = [v for atom in self.atoms if isinstance(atom, IntegerRoots) for v in atom.values]
        return orders, ints

    def polynomial(self) -> IntPolynomial:
        """q: the product of X^m - 1 over the roots-of-unity atoms and of
        X - v over the integer roots.  Overlapping atoms raise the error
        of `roots`, which checks them."""
        self.roots()
        orders, ints = self._split()
        factors = [IntPolynomial.monomial(m) - 1 for m in orders]
        return packed_product(factors + [IntPolynomial((-v, 1)) for v in ints])

    def union_with_zero(self, other: "RootSpec") -> "RootSpec":
        """The roots of both specs and 0.  Roots of unity merge into
        mu_lcm of their orders, which may strictly enlarge the root set
        (mu_2 and mu_3 give mu_6); the result still holds every root of
        both and stays duplicate-free."""
        orders, ints = self._split()
        more_orders, more_ints = other._split()
        ints = {0, *ints, *more_ints}
        atoms: list[Atom] = []
        if orders or more_orders:
            m = lcm(*orders, *more_orders)
            ints -= {1, -1} if m % 2 == 0 else {1}
            atoms.append(RootsOfUnity(m))
        return RootSpec((*atoms, IntegerRoots(tuple(ints))))

    def unity_order(self) -> Optional[int]:
        """m when the spec is the single atom mu_m, else None."""
        atom = self.atoms[0]
        return atom.order if len(self.atoms) == 1 and isinstance(atom, RootsOfUnity) else None

    def to_json(self) -> dict:
        return {"atoms": [atom.to_json() for atom in self.atoms]}

    @staticmethod
    def from_json(data: dict) -> "RootSpec":
        """The spec that `to_json` writes; a malformed one raises
        ExpressionError, and so does one with an atom without roots, as
        one without atoms does."""
        raw_atoms = data.get("atoms") if isinstance(data, dict) else None
        if not isinstance(raw_atoms, list):
            raise ExpressionError(f"a root spec needs a list 'atoms', got {data!r}")
        known_keys(data, ("atoms",), "a root spec")
        atoms: list[Atom] = []
        for raw in raw_atoms:
            kind = raw.get("kind") if isinstance(raw, dict) else None
            if kind == "integers":
                known_keys(raw, ("kind", "values"), "root atom 'integers'")
                values = raw.get("values")
                if not isinstance(values, list) or not values:
                    raise ExpressionError(
                        f"'values' must be a nonempty list of integers, got {values!r}"
                    )
                atoms.append(IntegerRoots(tuple(_json_int("values", v) for v in values)))
            elif kind == "roots_of_unity":
                known_keys(raw, ("kind", "order"), "root atom 'roots_of_unity'")
                atoms.append(RootsOfUnity(_json_int("order", raw.get("order"))))
            else:
                raise ExpressionError(f"unknown root atom kind: {kind!r}")
        return RootSpec(tuple(atoms))


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

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "n": self.n,
            "elements": [[decimal_str(c) for c in e.coords] for e in self.elements],
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


def annihilating_polynomial(
    spec: RootSpec, n: int, mode: SignMode = "signed", limits: Optional[Limits] = None
) -> IntPolynomial:
    """p_n for the given root spec: the monic squarefree polynomial
    vanishing exactly on root_sum_set(spec, n, mode)."""
    limits = limits or default_limits()
    root_sum_set(spec, n, mode, limits)
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
