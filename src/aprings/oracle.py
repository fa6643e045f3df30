"""Brute-force ground truth on finite rings.

Materialized operation tables plus exhaustive ideal enumeration and
per-element predicate scans.  Nothing here reuses the analytic
machinery of the spectrum module: the tables come from plain ring
arithmetic and every question is answered by enumeration, which is
what makes this usable as an oracle against the structural shortcuts.

The tables are filled from the rows of the additive generators S,
with |S| n calls each to the model's `add` and `mul` instead of n^2.
The ring is additively generated by S, so a breadth-first walk from
0 along y -> y + s reaches every element (`groups.cayley_walk`).  Each
step is ring arithmetic: the row of y + s is the row of y read at the
row of s, and (y + s) c = y c + s c is read off the rows already built.
The table checks then compare rows reached along different paths, so
they still test the model's arithmetic.

The tables come from commutative, associative rings with 1, so the
principal ideal Rx = {r x} (the set of row x of the multiplication
table) is already an ideal: it holds x = 1 x and is closed under sums
and multiples by distributivity and associativity.  So is the sum
I + J = {i + j} of two ideals, and it is the union of the cosets
I + j for j in J: as I is an additive subgroup, a j already covered by
the union adds nothing new, and only one row of the addition table is
read per coset.  The ideals are built as such sums, with no closure
loop, and saturating over the distinct principal ideals reaches them
all: every ideal J is the sum of the Rx for x in J, so adding those
one at a time from 0 passes only through ideals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import default_limits
from .errors import CheckFailed
from .groups import cayley_walk


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
        # whole rows at a time: a table is commutative when its columns,
        # zip(*table), are its rows
        identity = list(range(self.size))
        if self.add[self.zero] != identity or self.mul[self.one] != identity:
            raise ValueError("zero/one do not act as identities")
        if any(row[k] != self.zero for row, k in zip(self.add, self.neg)):
            raise ValueError("negation table is inconsistent")
        if any(list(col) != row for table in (self.add, self.mul) for col, row in zip(zip(*table), table)):
            raise ValueError("tables are not commutative")


def table_for_model(model) -> FiniteRingTable:
    """Materialize the operation tables of a finite model from the rows
    of its additive generators.  The model's `carrier` checks the carrier
    cap in force before it lists the elements."""
    carrier = model.carrier()
    n = len(carrier)
    index = {r: i for i, r in enumerate(carrier)}
    shift = {}  # generator index s -> [index(s + c) for c in carrier]
    times = {}  # generator index s -> [index(s c) for c in carrier]
    for _, s in model.generators():
        if index[s] not in shift:
            shift[index[s]] = [index[model.add(s, c)] for c in carrier]
            times[index[s]] = [index[model.mul(s, c)] for c in carrier]

    zero = index[model.zero()]
    add, edges = cayley_walk(n, zero, shift)  # (y, s, y + s) per row built
    if len(edges) + 1 < n:
        raise CheckFailed(
            f"the generators of {model.name} do not span its carrier: "
            f"their sums reach {len(edges) + 1} of {n} elements"
        )

    mul: list = [None] * n
    mul[zero] = [zero] * n
    for y, s, z in edges:
        mul[z] = [add[a][b] for a, b in zip(mul[y], times[s])]
    return FiniteRingTable(
        elements=list(carrier),
        add=add,
        mul=mul,
        neg=[index[model.neg(a)] for a in carrier],
        zero=zero,
        one=index[model.one()],
    )


# -- ideal enumeration ------------------------------------------------------------


def ideal_sum(T: FiniteRingTable, I, J) -> frozenset:
    """I + J = {i + j}, an ideal whenever I and J are.

    It is the union of the cosets I + j for j in J.  I is an ideal,
    so an additive subgroup, and a j that an earlier coset I + j' already covers has
    I + j = I + j', and only the uncovered j add their coset: about
    |I + J| + |J| table reads instead of |I| |J|.
    """
    total = set(I)
    for j in J:
        if j not in total:
            total.update(map(T.add[j].__getitem__, I))
    return frozenset(total)


def all_ideals(T: FiniteRingTable) -> list[frozenset]:
    """Every ideal, found by saturation: extend each known ideal I by
    each distinct principal ideal P not inside it, as I + P, until no
    new ideals appear.

    Every ideal J is the sum of the principal ideals Rx for x in J, so
    adding them one at a time from 0 walks through known ideals to J.
    """
    default_limits().check_oracle_spectrum(T.size)
    principal = list(dict.fromkeys(map(frozenset, T.mul)))
    zero_ideal = frozenset({T.zero})
    known = {zero_ideal}
    frontier = [zero_ideal]
    while frontier:
        nxt = []
        for ideal in frontier:
            for P in principal:
                if P <= ideal:
                    continue
                bigger = ideal_sum(T, ideal, P)
                if bigger not in known:
                    known.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return sorted(known, key=lambda s: (len(s), sorted(s)))


def prime_ideals(T: FiniteRingTable) -> list[frozenset]:
    """Proper ideals P with x y not in P for all x, y not in P.

    x y mod P depends only on the cosets of x and y, so the products are
    read for one representative per coset outside P.
    """
    primes = []
    for ideal in all_ideals(T):
        if len(ideal) == T.size:
            continue
        covered = set(ideal)
        outside = []
        for x in range(T.size):
            if x not in covered:
                outside.append(x)
                covered.update(map(T.add[x].__getitem__, ideal))
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
