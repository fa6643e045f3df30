"""Signatures, prime-ideal descriptors and structure predicates.

A signature is a surjective ring homomorphism onto Z; its kernel is a
signature ideal.  Each model answers `predicates(r)` itself: a free
model reads it off its ghost map (identity coordinates, characters
phi_chi(sum a_i s_i) = sum a_i chi(s_i) or marks), whose columns are
the signatures when they are integer-valued and whose kernels are the
minimal primes; a finite quotient has no signatures and walks the
powers of r; a product combines its factors.  The maximal ideals
are the congruence ideals sigma(r) = 0 mod p, and for 2-power
generating polynomials the fundamental ideal (elements of even length)
sits above everything at index two.  Prime ideals are descriptors,
never materialized element sets; only the finite oracle enumerates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

from .config import default_limits
from .errors import BoundExceeded, CheckFailed, UnsupportedModel
from .groups import closure
from .rings import BurnsideModel, GhostColumn, RingModel


# -- prime ideal descriptors --------------------------------------------------------


@dataclass(frozen=True)
class PrimeIdeal:
    """Descriptor of a prime ideal: its kind, its label and, for a
    maximal ideal, its residue characteristic."""

    kind: str  # signature | fundamental | character | dress
    label: str
    prime: Optional[int] = None

    def to_json(self) -> dict:
        data = {"kind": self.kind, "label": self.label}
        if self.prime is not None:
            data["prime"] = self.prime
        return data


def ghost_kernel(col: GhostColumn) -> PrimeIdeal:
    kind, label = col.kernel
    return PrimeIdeal(kind=kind, label=label)


# The fundamental ideal, the elements of even length.  Defined for 2-power
# generating polynomials, where length parity is a homomorphism onto Z/2
# exactly when the model is admissible.
FUNDAMENTAL_IDEAL = PrimeIdeal(kind="fundamental", label="I", prime=2)


def _is_two_power(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _has_two_power_q(model: RingModel) -> bool:
    # q = X^m - 1 with m a power of 2
    m = model.root_spec().unity_order()
    return m is not None and _is_two_power(m)


# -- admissibility ------------------------------------------------------------------


def is_admissible(model: RingModel) -> bool:
    """No odd characteristic, equivalently |R/I| = 2, equivalently no
    vanishing signed generator sum of odd size."""
    if not _has_two_power_q(model):
        raise UnsupportedModel(
            f"{model.name} does not have a 2-power generating polynomial"
        )
    return model.characteristic() % 2 == 0


def fundamental_ideal_elements(model: RingModel) -> frozenset:
    """The ideal generated by 1 -+ s over generators s, materialized up to
    max_carrier elements.

    b(1-a) = (1-ba) - (1-b), so the ideal equals the additive span of
    its generators; closure is a plain subgroup computation.
    """
    one = model.one()
    seeds = set()
    for _, s in model.generators():
        seeds.add(model.sub(one, s))
        seeds.add(model.add(one, s))
    return closure(model.add, model.zero(), seeds, default_limits().check_carrier)


def ap_condition_check(model: RingModel, k: int) -> bool:
    """Arason-Pfister condition AP(k): every sum of fewer than 2^k
    signed generators lying in I^k is zero.  Decided exhaustively, so
    the model must be finite and I^j, j <= k, within max_carrier."""
    if not model.is_finite():
        raise UnsupportedModel("AP(k) is decided exhaustively; model must be finite")
    if k < 1:
        raise ValueError("k must be positive")
    ideal = fundamental_ideal_elements(model)
    power = ideal
    for _ in range(k - 1):
        products = {model.mul(x, y) for x in power for y in ideal}
        power = closure(model.add, model.zero(), products, default_limits().check_carrier)
    zero = model.zero()
    return all(r == zero for r in power if model.length(r) < 2**k)


# -- element predicates -----------------------------------------------------------------


@dataclass(frozen=True)
class ElementPredicates:
    nilpotent: Optional[bool]
    torsion: Optional[bool]
    unit: Optional[bool]
    zero_divisor: Optional[bool]
    idempotent: Optional[bool]
    in_fundamental: Optional[bool]
    in_every_signature_ideal: Optional[bool]

    def to_json(self) -> dict:
        """The predicates by name, in field order (the order of the text output)."""
        return asdict(self)


def element_predicates(model: RingModel, r) -> ElementPredicates:
    """Structure predicates for one element; zero divisors include 0.

    The model decides nilpotent, torsion, unit, zero divisor and
    membership in every signature ideal."""
    nilpotent, torsion, unit, zero_divisor, in_every_sig = model.predicates(r)
    return ElementPredicates(
        nilpotent,
        torsion,
        unit,
        zero_divisor,
        idempotent=model.mul(r, r) == r,
        in_fundamental=model.length(r) % 2 == 0 if _has_two_power_q(model) else None,
        in_every_signature_ideal=in_every_sig,
    )


# -- Dress relations ---------------------------------------------------------------------


class DressMember(NamedTuple):
    class_index: int
    class_label: str
    p: int  # 0 or a prime


@dataclass
class DressRelations:
    members: list[DressMember]
    subset: dict  # (member, member) -> bool, semantic containment
    minimal: dict  # member -> bool, from the containment graph
    maximal: dict


def dress_relations(model: BurnsideModel, primes: list[int]) -> DressRelations:
    """Containments among the ideals p_(U,p) for p in {0} u primes.

    p_(U,p) is the sublattice of coefficient vectors c with u.c = 0
    (p = 0) or u.c = 0 mod p, where u is the mark column of U.  It is
    spanned by e_i - u(i) e_1 and, for p != 0, p e_1, where e_1 = [G/G]
    has mark 1 in every column; the column v of V sends these to
    v(i) - u(i) and p.  So p_(U,p) lies in p_(V,p') exactly when
    p' != 0, p is 0 or p' and u = v mod p', or p = p' = 0 and u = v:
    each containment is read off the classes of the columns mod p'
    (under equality for p' = 0).  Minimal and maximal come from the
    containment graph.
    """
    ps = [0] + sorted(set(primes))
    members = [
        DressMember(j, cls.label, p) for j, cls in enumerate(model.table.classes) for p in ps
    ]
    # the class of each column mod p: the index of its first column
    residue = {}
    for p in ps:
        first: dict = {}
        residue[p] = [
            first.setdefault(tuple(x % p for x in col.values) if p else col.values, j)
            for j, col in enumerate(model.ghost)
        ]
    subset = {
        (a, b): a.p in (0, b.p)
        and residue[b.p][a.class_index] == residue[b.p][b.class_index]
        for a in members
        for b in members
    }

    def strictly_below(a: DressMember, b: DressMember) -> bool:
        return subset[(a, b)] and not subset[(b, a)]

    minimal = {
        m: not any(strictly_below(other, m) for other in members) for m in members
    }
    maximal = {
        m: not any(strictly_below(m, other) for other in members) for m in members
    }
    return DressRelations(
        members=members,
        subset=subset,
        minimal=minimal,
        maximal=maximal,
    )


# -- spectrum reports ---------------------------------------------------------------------


@dataclass
class MaxFamily:
    base_label: str
    primes: list[int]
    note: str

    def to_json(self) -> dict:
        return {"signature": self.base_label, "primes": self.primes, "note": self.note}


@dataclass
class FinitePrimeInfo:
    index: int
    size: int
    is_fundamental: bool

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "size": self.size,
            "fundamental": self.is_fundamental,
        }


@dataclass
class SpectrumReport:
    model_name: str
    local: bool
    minimal: list[PrimeIdeal]
    fundamental: Optional[PrimeIdeal]
    max_families: list[MaxFamily]
    finite_primes: Optional[list[FinitePrimeInfo]] = None

    def to_json(self) -> dict:
        return {
            "model": self.model_name,
            "local": self.local,
            "min": [p.to_json() for p in self.minimal],
            "max": {
                "fundamental": self.fundamental.to_json() if self.fundamental else None,
                "families": [f.to_json() for f in self.max_families],
            },
            "finite": (
                [p.to_json() for p in self.finite_primes]
                if self.finite_primes is not None
                else None
            ),
        }


# the maximal-ideal families list their primes up to this bound by default
LISTED_PRIME_BOUND = 13
# and never past this one: each family lists every prime up to the bound
MAX_LISTED_PRIME = 10**5


def _primes_up_to(bound: int) -> list[int]:
    """The primes up to bound, by the sieve of Eratosthenes; a bound past
    MAX_LISTED_PRIME raises BoundExceeded."""
    if bound > MAX_LISTED_PRIME:
        raise BoundExceeded(
            f"the prime bound {bound} exceeds the limit MAX_LISTED_PRIME = {MAX_LISTED_PRIME}"
        )
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    p = 2
    while p * p <= bound:
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
        p += 1
    return [n for n, is_prime in enumerate(sieve) if is_prime]


def spectrum_report(model: RingModel, prime_bound: int = LISTED_PRIME_BOUND) -> SpectrumReport:
    """Min/Max classification of the prime spectrum.

    For finite models the report lists the oracle's exhaustive prime
    ideals; when the model is admissible with 2-power characteristic
    and no signatures, the list is checked to be exactly the
    fundamental ideal.  Otherwise the model must be free.
    """
    primes = _primes_up_to(prime_bound)

    if model.is_finite():
        return _finite_spectrum_report(model)
    ghost = model.ghost  # only a free model has one, and with it `integral`
    if not model.integral:
        raise UnsupportedModel(
            "spectrum classification needs an exponent-2 group ring"
        )
    fundamental = FUNDAMENTAL_IDEAL if _has_two_power_q(model) else None
    if fundamental is not None:
        listed, note = [p for p in primes if p != 2], "all odd primes"
    else:
        listed, note = primes, "all primes"
    return SpectrumReport(
        model_name=model.name,
        local=False,
        minimal=[ghost_kernel(col) for col in ghost],
        fundamental=fundamental,
        max_families=[
            MaxFamily(base_label=col.label, primes=list(listed), note=note)
            for col in ghost
        ],
    )


def _finite_spectrum_report(model: RingModel) -> SpectrumReport:
    from . import oracle

    # refused before the oracle builds its tables
    default_limits().check_oracle_spectrum(len(model.carrier()))
    table = oracle.table_for_model(model)
    primes = oracle.prime_ideals(table)
    ideal_elements = fundamental_ideal_elements(model)
    infos = []
    for P in sorted(primes, key=sorted):
        members = frozenset(table.elements[i] for i in P)
        infos.append(
            FinitePrimeInfo(
                index=table.size // len(P),
                size=len(P),
                is_fundamental=(members == ideal_elements),
            )
        )
    local = len(infos) == 1
    fundamental = None
    if _has_two_power_q(model) and is_admissible(model):
        fundamental = FUNDAMENTAL_IDEAL
        # The {I}-only classification is provable when the ring has
        # 2-power characteristic (then every prime has index 2); an
        # even characteristic with an odd factor admits further primes.
        if _is_two_power(model.characteristic()) and not (local and infos[0].is_fundamental):
            raise CheckFailed(
                f"{model.name}: expected the fundamental ideal to be the only prime"
            )
    return SpectrumReport(
        model_name=model.name,
        local=local,
        minimal=[],
        fundamental=fundamental,
        max_families=[],
        finite_primes=infos,
    )
