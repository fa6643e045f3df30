"""Brute-force ground truth on finite rings.

Materialized operation tables plus exhaustive ideal enumeration and
per-element predicate scans.  Nothing here reuses the analytic
machinery of the spectrum module: the tables come from plain ring
arithmetic and every question is answered by enumeration, which is
what makes this usable as an oracle against the structural shortcuts.

The tables come from commutative, associative rings with 1, so the
principal ideal Rx = {r x} is already an ideal (it holds x = 1 x and
is closed under sums and multiples by distributivity and
associativity), and so is the sum I + J = {i + j} of two ideals.  The
ideals are built as such sums, with no closure loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .config import Limits, default_limits
from .errors import CarrierBoundExceeded


@dataclass
class FiniteRingTable:
    """Commutative ring with 1 on indices 0..n-1, built by `table_for_model`."""

    elements: list
    add: list[list[int]]
    mul: list[list[int]]
    neg: list[int]
    zero: int
    one: int

    @property
    def size(self) -> int:
        return len(self.elements)

    def __post_init__(self):
        n = self.size
        for i in range(n):
            if self.add[self.zero][i] != i or self.mul[self.one][i] != i:
                raise ValueError("zero/one do not act as identities")
            if self.add[i][self.neg[i]] != self.zero:
                raise ValueError("negation table is inconsistent")
            for j in range(i + 1, n):
                if self.add[i][j] != self.add[j][i] or self.mul[i][j] != self.mul[j][i]:
                    raise ValueError("tables are not commutative")


def table_for_model(model, limits: Optional[Limits] = None) -> FiniteRingTable:
    """Materialize the operation tables of a finite model."""
    limits = limits or default_limits()
    carrier = model.carrier()
    n = len(carrier)
    if n > limits.max_carrier:
        raise CarrierBoundExceeded(
            f"carrier exceeds the limit max_carrier = {limits.max_carrier}: "
            f"reached {n} elements"
        )
    index = {r: i for i, r in enumerate(carrier)}
    add = [[index[model.add(a, b)] for b in carrier] for a in carrier]
    mul = [[index[model.mul(a, b)] for b in carrier] for a in carrier]
    neg = [index[model.neg(a)] for a in carrier]
    return FiniteRingTable(
        elements=list(carrier),
        add=add,
        mul=mul,
        neg=neg,
        zero=index[model.zero()],
        one=index[model.one()],
    )


# -- ideal enumeration ------------------------------------------------------------


def ideal_sum(T: FiniteRingTable, I, J) -> frozenset:
    """I + J = {i + j}, an ideal whenever I and J are."""
    return frozenset(T.add[i][j] for i in I for j in J)


def all_ideals(T: FiniteRingTable, limits: Optional[Limits] = None) -> list[frozenset]:
    """Every ideal, found by saturation: extend each known ideal I by
    one outside element x as I + Rx, until no new ideals appear.

    Elements in the same coset of I give the same I + Rx, so only one
    representative per coset is tried.
    """
    limits = limits or default_limits()
    cap = limits.max_oracle_spectrum
    if T.size > cap:
        raise CarrierBoundExceeded(
            f"ideal enumeration exceeds the limit max_oracle_spectrum = {cap}: "
            f"reached a carrier of {T.size} elements"
        )
    zero_ideal = frozenset({T.zero})
    known = {zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        nxt = []
        for ideal in frontier:
            covered = set(ideal)
            for x in range(T.size):
                if x in covered:
                    continue
                covered.update(T.add[x][i] for i in ideal)
                bigger = ideal_sum(T, ideal, set(T.mul[x]))
                if bigger not in known:
                    known.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def prime_ideals(T: FiniteRingTable, limits: Optional[Limits] = None) -> list[frozenset]:
    """Proper ideals whose quotient has no zero divisors."""
    primes = []
    for ideal in all_ideals(T, limits):
        if len(ideal) == T.size:
            continue
        outside = [x for x in range(T.size) if x not in ideal]
        if all(T.mul[x][y] not in ideal for x in outside for y in outside):
            primes.append(ideal)
    return primes


# -- exhaustive predicates ----------------------------------------------------------


@dataclass(frozen=True)
class OraclePredicates:
    nilpotent: bool
    unit: bool
    zero_divisor: bool
    idempotent: bool
    torsion: bool


def exhaustive_predicates(T: FiniteRingTable) -> list[OraclePredicates]:
    """Per-element scan; zero divisors include the zero element."""
    out = []
    nonzero = [s for s in range(T.size) if s != T.zero]
    for x in range(T.size):
        power = x
        seen = set()
        nilpotent = False
        while power not in seen:
            seen.add(power)
            if power == T.zero:
                nilpotent = True
                break
            power = T.mul[power][x]

        unit = any(T.mul[x][s] == T.one for s in range(T.size))
        zero_divisor = any(T.mul[x][s] == T.zero for s in nonzero)
        idempotent = T.mul[x][x] == x

        acc = x
        torsion = False
        for _ in range(T.size + 1):
            if acc == T.zero:
                torsion = True
                break
            acc = T.add[acc][x]
        out.append(
            OraclePredicates(
                nilpotent=nilpotent,
                unit=unit,
                zero_divisor=zero_divisor,
                idempotent=idempotent,
                torsion=torsion,
            )
        )
    return out
