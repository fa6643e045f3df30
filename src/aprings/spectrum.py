"""Signatures, prime-ideal descriptors and structure predicates.

A signature is a surjective ring homomorphism onto Z; its kernel is a
signature ideal.  Each model answers the two questions that depend on
its kind, `signatures()` and `predicates(r)`: a free model reads them
off its ghost map (identity coordinates, characters
phi_chi(sum a_i s_i) = sum a_i chi(s_i) or marks), whose kernels are
also the minimal primes; a finite quotient has no signatures and walks
the powers of r; a product combines its factors.  The maximal ideals
are the congruence ideals sigma(r) = 0 mod p, and for 2-power
generating polynomials the fundamental ideal (elements of even length)
sits above everything at index two.  Prime ideals are descriptors with
decidable membership, never materialized element sets; only the finite
oracle enumerates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from .config import Limits, default_limits
from .errors import CheckFailed, UnsupportedModel
from .groups import closure
from .rings import BurnsideModel, GhostColumn, RingModel, Signature


# -- signatures -----------------------------------------------------------------


def signatures(model: RingModel) -> list[Signature]:
    """The complete list of signatures of the model.

    For a free model these are its ghost columns, provided they are
    integer-valued.  A ring of positive characteristic admits none: a
    homomorphism onto Z would force characteristic zero.  A product has
    those of its factors.
    """
    return model.signatures()


# -- prime ideal descriptors --------------------------------------------------------


@dataclass(frozen=True)
class PrimeIdeal:
    """Descriptor with a decidable membership test."""

    kind: str  # signature | fundamental | character | dress
    label: str
    prime: Optional[int] = None
    _member: Callable = field(compare=False, repr=False, default=None)

    def contains(self, r) -> bool:
        return self._member(r)

    def to_json(self) -> dict:
        data = {"kind": self.kind, "label": self.label}
        if self.prime is not None:
            data["prime"] = self.prime
        return data


def signature_ideal(sig: Signature) -> PrimeIdeal:
    return PrimeIdeal(
        kind="signature",
        label=f"ker {sig.label}",
        _member=lambda r: sig(r) == 0,
    )


def ghost_kernel(col: GhostColumn) -> PrimeIdeal:
    kind, label = col.kernel
    return PrimeIdeal(
        kind=kind,
        label=label,
        _member=lambda r: col.evaluate(r) == 0,
    )


def dress_ideal(model: BurnsideModel, class_index: int, p: int) -> PrimeIdeal:
    """p_(U,p): mark congruent to 0 mod p (p = 0 means mark equal to 0)."""
    column = model.ghost[class_index]
    label = model.table.classes[class_index].label

    def member(r) -> bool:
        value = column.evaluate(r)
        return value == 0 if p == 0 else value % p == 0

    return PrimeIdeal(
        kind="dress",
        label=f"p[{label},{p}]",
        prime=p if p else None,
        _member=member,
    )


def fundamental_ideal(model: RingModel) -> PrimeIdeal:
    """Elements of even length.  Defined for 2-power generating
    polynomials, where length parity is a homomorphism onto Z/2 exactly
    when the model is admissible."""
    _require_two_power(model)
    return PrimeIdeal(
        kind="fundamental",
        label="I",
        prime=2,
        _member=lambda r: model.length(r) % 2 == 0,
    )


def _is_two_power(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _has_two_power_q(model: RingModel) -> bool:
    # q = X^m - 1 with m a power of 2
    m = model.root_spec().unity_order()
    return m is not None and _is_two_power(m)


def _require_two_power(model: RingModel) -> None:
    if not _has_two_power_q(model):
        raise UnsupportedModel(
            f"{model.name} does not have a 2-power generating polynomial"
        )


# -- minimal primes ---------------------------------------------------------------


def minimal_primes(model: RingModel) -> list[PrimeIdeal]:
    """Kernels of the ghost columns: characters, projections or marks."""
    return [ghost_kernel(col) for col in model.ghost]


# -- admissibility ------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    witness: str

    def __bool__(self) -> bool:
        return self.admissible


def is_admissible(model: RingModel) -> AdmissibilityResult:
    """No odd characteristic, equivalently |R/I| = 2, equivalently no
    vanishing signed generator sum of odd size."""
    _require_two_power(model)
    c = model.characteristic()
    if c == 0:
        return AdmissibilityResult(True, "characteristic 0")
    if c % 2 == 0:
        return AdmissibilityResult(True, f"characteristic {c} is even")
    return AdmissibilityResult(False, f"characteristic {c} is odd")


def fundamental_ideal_elements(model: RingModel, limits: Optional[Limits] = None) -> frozenset:
    """The ideal generated by 1 -+ s over generators s, materialized up to
    max_carrier elements.

    b(1-a) = (1-ba) - (1-b), so the ideal equals the additive span of
    its generators; closure is a plain subgroup computation.
    """
    limits = limits or default_limits()
    one = model.one()
    seeds = set()
    for _, s in model.generators():
        seeds.add(model.sub(one, s))
        seeds.add(model.add(one, s))
    return closure(model.add, model.zero(), seeds, limits.check_carrier)


def ap_condition_check(model: RingModel, k: int, limits: Optional[Limits] = None) -> bool:
    """Arason-Pfister condition AP(k): every sum of fewer than 2^k
    signed generators lying in I^k is zero.  Decided exhaustively, so
    the model must be finite and I^j, j <= k, within max_carrier."""
    if not model.is_finite():
        raise UnsupportedModel("AP(k) is decided exhaustively; model must be finite")
    if k < 1:
        raise ValueError("k must be positive")
    limits = limits or default_limits()
    ideal = fundamental_ideal_elements(model, limits)
    power = ideal
    for _ in range(k - 1):
        products = {model.mul(x, y) for x in power for y in ideal}
        power = closure(model.add, model.zero(), products, limits.check_carrier)
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


@dataclass(frozen=True)
class DressMember:
    class_index: int
    class_label: str
    p: int  # 0 or a prime


@dataclass
class DressRelations:
    model_name: str
    members: list[DressMember]
    subset: dict  # (member, member) -> bool, semantic containment
    minimal: dict  # member -> bool, from the containment graph
    maximal: dict


def dress_relations(model: BurnsideModel, primes: list[int]) -> DressRelations:
    """Containments among the ideals p_(U,p) for p in {0} u primes.

    Containment is decided semantically: p_(U,p) is the sublattice of
    coefficient vectors c with u.c = 0 (p = 0) or u.c = 0 mod p, where
    u is the mark column of U.  Explicit lattice generators exist
    because the column of the full-group class is all ones, and a
    sublattice is contained in a congruence ideal exactly when all its
    generators are.
    """
    k = model.k
    members = [
        DressMember(j, model.table.classes[j].label, p)
        for j in range(k)
        for p in [0] + sorted(set(primes))
    ]
    columns = {j: model.ghost[j].values for j in range(k)}
    # the all-ones row (checked at construction): every column has a 1 there
    anchor = model.one().index(1)

    def lattice_generators(j: int, p: int) -> list[tuple[int, ...]]:
        u = columns[j]
        gens = []
        for i in range(k):
            if i == anchor:
                continue
            vec = [0] * k
            vec[i] = 1
            vec[anchor] = -u[i]
            gens.append(tuple(vec))
        if p:
            vec = [0] * k
            vec[anchor] = p
            gens.append(tuple(vec))
        return gens

    ideals = {m: dress_ideal(model, m.class_index, m.p) for m in members}
    subset = {}
    for a in members:
        gens = lattice_generators(a.class_index, a.p)
        for b in members:
            subset[(a, b)] = all(ideals[b].contains(g) for g in gens)

    def strictly_below(a: DressMember, b: DressMember) -> bool:
        return subset[(a, b)] and not subset[(b, a)]

    minimal = {
        m: not any(strictly_below(other, m) for other in members) for m in members
    }
    maximal = {
        m: not any(strictly_below(m, other) for other in members) for m in members
    }
    return DressRelations(
        model_name=model.name,
        members=members,
        subset=subset,
        minimal=minimal,
        maximal=maximal,
    )


def dress_statement_predicts(
    model: BurnsideModel, a: DressMember, b: DressMember
) -> bool:
    """The containment criterion: equal congruence ideals at the same
    prime, or a p = 0 ideal below the corresponding mod-q ideal."""
    u = model.ghost[a.class_index].values
    v = model.ghost[b.class_index].values
    if a.p == b.p:
        if a.p == 0:
            return u == v
        return all((x - y) % a.p == 0 for x, y in zip(u, v))
    if a.p == 0 and b.p != 0:
        return all((x - y) % b.p == 0 for x, y in zip(u, v))
    return False


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


def _primes_up_to(bound: int) -> list[int]:
    out = []
    for n in range(2, bound + 1):
        if all(n % p for p in out):
            out.append(n)
    return out


def spectrum_report(
    model: RingModel,
    prime_bound: int = LISTED_PRIME_BOUND,
    limits: Optional[Limits] = None,
) -> SpectrumReport:
    """Min/Max classification of the prime spectrum.

    For finite models the report lists the oracle's exhaustive prime
    ideals; when the model is admissible with 2-power characteristic
    and no signatures, the list is checked to be exactly the
    fundamental ideal.  Otherwise the model must be free.
    """
    limits = limits or default_limits()
    primes = _primes_up_to(prime_bound)

    if model.is_finite():
        return _finite_spectrum_report(model, limits)
    ghost = model.ghost  # only a free model has one, and with it `integral`
    if not model.integral:
        raise UnsupportedModel(
            "spectrum classification needs an exponent-2 group ring"
        )
    sigs = model.signatures()
    # an integer-valued character is a signature, and its kernel is
    # listed as a signature ideal
    minimal = [
        signature_ideal(sig) if col.kernel[0] == "character" else ghost_kernel(col)
        for sig, col in zip(sigs, ghost)
    ]
    fundamental = fundamental_ideal(model) if _has_two_power_q(model) else None
    if fundamental is not None:
        listed, note = [p for p in primes if p != 2], "all odd primes"
    else:
        listed, note = primes, "all primes"
    return SpectrumReport(
        model_name=model.name,
        local=False,
        minimal=minimal,
        fundamental=fundamental,
        max_families=[
            MaxFamily(base_label=sig.label, primes=list(listed), note=note)
            for sig in sigs
        ],
    )


def _finite_spectrum_report(model: RingModel, limits: Limits) -> SpectrumReport:
    from . import oracle

    table = oracle.table_for_model(model, limits)
    primes = oracle.prime_ideals(table, limits)
    ideal_elements = fundamental_ideal_elements(model, limits)
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
        fundamental = fundamental_ideal(model)
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
