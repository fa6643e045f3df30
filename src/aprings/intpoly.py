"""Dense polynomials over the integers with exact arithmetic.

Coefficients are stored in ascending degree order; the zero polynomial
has an empty coefficient tuple and degree -1.  Python integers give
arbitrary precision for free, so no coefficient ever overflows.

Polynomials are multiplied by signed Kronecker substitution in
`packed_product`, a product of two factors included: the factors are
multiplied into the one integer prod f_i(2^w), a short factor by Horner
in 2^w (shifts and small multiples) and a long one, whose Horner shifts
would cost time quadratic in its length, packed through a byte string;
w is fixed by the bound prod ||f_i||_1 on every coefficient, and the
product's signed base-2^w digits are its coefficients, unpacked in time
linear in its size.  A product tree would pay off only with fast
multiplication, and CPython multiplies large integers by Karatsuba.

The module also holds the routines shared by every exact arithmetic type
of the package: `repeated_doubling` (powers and integer multiples),
`format_terms` (signed sums of terms) and `decimal_str` (integers printed
at any length).
"""

from __future__ import annotations

from decimal import Decimal
from itertools import zip_longest
from math import prod
from operator import mul
from typing import Callable, Iterable, Sequence


def repeated_doubling(x, n: int, identity, op: Callable):
    """x combined with itself n >= 0 times under the associative `op`
    (identity for n = 0), by repeated doubling from the top bit of n down:
    floor(log2 n) doublings and popcount(n) - 1 combinations with x."""
    result = x if n else identity
    for bit in bin(n)[3:]:
        result = op(result, result)
        if bit == "1":
            result = op(result, x)
    return result


def decimal_str(n: int) -> str:
    """n in decimal at any length, also past sys.get_int_max_str_digits():
    `str` where the limit allows it, else the C `decimal` module, which
    has no such limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_terms(terms: Iterable[tuple[int, str]]) -> str:
    """The signed sum of the given (coefficient, monomial) terms, e.g.
    "x^2 - 3*x + 1"; an empty monomial marks the constant term and zero
    coefficients are skipped."""
    parts = []
    for c, monomial in terms:
        if c == 0:
            continue
        if not monomial:
            body = decimal_str(abs(c))
        else:
            body = monomial if abs(c) == 1 else f"{decimal_str(abs(c))}*{monomial}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {'+' if c > 0 else '-'} {body}")
    return "".join(parts) if parts else "0"


def _pack(coeffs: Sequence[int], width: int) -> int:
    """sum c_i * 2^(8*width*i) for integers |c_i| < 2^(8*width)."""
    zero = bytes(width)
    positive = b"".join(c.to_bytes(width, "little") if c > 0 else zero for c in coeffs)
    negative = b"".join((-c).to_bytes(width, "little") if c < 0 else zero for c in coeffs)
    return int.from_bytes(positive, "little") - int.from_bytes(negative, "little")


def _unpack(v: int, width: int, length: int) -> list[int]:
    """The `length` signed base-2^(8*width) digits of v, low digit first."""
    # adding 2^(w-1) to every digit makes the digits nonnegative, so they
    # can be cut out of the bytes without carries
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * length, "little")
    data = (v + offset).to_bytes(width * length, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[i:i + width], "little") - half for i in range(0, len(data), width)]


_HORNER_TERMS = 64  # the longest factor applied by Horner; past it, packing is faster


def packed_product(factors: Iterable["IntPolynomial"]) -> "IntPolynomial":
    """The product of the factors (1 for none), accumulated one factor at
    a time in the single integer v = prod f_i(2^w)."""
    fs = [f.coeffs for f in factors]
    if not all(fs):
        return IntPolynomial()
    # ||f g||_1 <= ||f||_1 ||g||_1, so every product coefficient lies in
    # [-bound, bound] with bound = prod ||f_i||_1 < 2^(8*width - 1)
    width = prod(sum(map(abs, f)) for f in fs).bit_length() // 8 + 1
    v = 1
    for f in fs:
        if len(f) > _HORNER_TERMS:
            v *= _pack(f, width)
            continue
        # v * f(2^w) by Horner in 2^w: shifts and small multiples of v;
        # a monic f starts from v itself, not from a copy 1 * v
        acc = v if f[-1] == 1 else f[-1] * v
        for c in reversed(f[:-1]):
            acc <<= 8 * width
            if c:
                acc += c * v
        v = acc
    return IntPolynomial(_unpack(v, width, sum(map(len, fs)) - len(fs) + 1))


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(c: int) -> "IntPolynomial":
        return IntPolynomial((c,))

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial((0, 1))

    @staticmethod
    def monomial(degree: int) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return IntPolynomial((0,) * degree + (1,))

    @staticmethod
    def from_roots(roots: Iterable[int]) -> "IntPolynomial":
        """Monic product of (x - r) over the integer roots, each counted once."""
        return packed_product(IntPolynomial((-r, 1)) for r in sorted(set(int(r) for r in roots)))

    # -- queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        return IntPolynomial(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    __radd__ = __add__

    def __sub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        other = _coerce(other)
        return IntPolynomial(
            a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def __rsub__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        return _coerce(other) - self

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other: "IntPolynomial | int") -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        return packed_product((self, other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("negative exponent")
        return repeated_doubling(self, n, IntPolynomial.constant(1), mul)

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Exact long division over the integers.

        Raises ValueError when a division step is not exact (never
        happens for a monic divisor).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.coeffs[-1]
        if len(rem) < d + 1:
            return IntPolynomial(), self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % lead:
                raise ValueError("inexact polynomial division over the integers")
            f = c // lead
            quot[i - d] = f
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= f * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def __call__(self, value):
        """Horner evaluation; works for ints and any ring-like value."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.coeffs == IntPolynomial.constant(other).coeffs
        if isinstance(other, IntPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"

    def __str__(self) -> str:
        return format_terms(
            (c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
            for k, c in reversed(list(enumerate(self.coeffs)))
        )

    # -- serialization ------------------------------------------------

    def to_json(self) -> list[str]:
        """Coefficients in ascending degree, as decimal strings."""
        return [decimal_str(c) for c in self.coeffs]


def _coerce(value) -> IntPolynomial:
    if isinstance(value, IntPolynomial):
        return value
    if isinstance(value, int):
        return IntPolynomial.constant(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to IntPolynomial")
