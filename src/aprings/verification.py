"""The bundled verification suite.

Each check pins expected values for one of the acceptance criteria:
displayed closed forms, the A5 table of marks, annihilation of random
elements, the structure theorems on finite quotients, Dress's
description of the Burnside spectrum, admissibility and the oracle
cross-checks.  The command line runs these through ``verify``; the
acceptance tests run them one criterion at a time.

Exact integer identities throughout; there are no tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import oracle
from .annihilator import (
    RootSpec,
    annihilating_polynomial,
    degree_bound,
    lewis_polynomial,
    pfister_chain_polynomial,
    quartic_p,
    quartic_t,
)
from .config import Limits
from .cyclotomic import CyclotomicInteger
from .errors import CheckFailed
from .groups import (
    a5_reference_difference,
    named_group,
    p_residual_classes,
    table_of_marks,
)
from .intpoly import IntPolynomial
from .rings import (
    FINITE_BUNDLED,
    bundled_model,
    poly_eval_in_ring,
    verify_annihilated,
)
from .spectrum import (
    dress_relations,
    element_predicates,
    fundamental_ideal_elements,
    ap_condition_check,
    is_admissible,
)

# Bound generous enough for the n = 10 closed-form checks.
SUITE_LIMITS = Limits(max_summands=12)


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] c{self.criterion:02d} {self.name}: {self.detail}"


def _require(holds: bool, message: object = "") -> None:
    """Fail the running check; unlike assert, also under python -O.  A
    callable message is called only on failure, so a loop over many
    elements formats none of them while the check holds."""
    if not holds:
        raise CheckFailed(message() if callable(message) else message)


def _quartic_factor(constant: int, quadratic: int) -> IntPolynomial:
    return IntPolynomial((constant, 0, quadratic, 0, 1))


def _expected_quartic_t() -> dict[int, IntPolynomial]:
    t1 = IntPolynomial((-1, 0, 0, 0, 1))
    t2 = _quartic_factor(-16, 0) * _quartic_factor(4, 0)
    # t3 carries the (x^4 - 81) factor from the defining product; the
    # factor is forced because 3 = 1 + 1 + 1 has |a| + |b| = 3.
    t3 = _quartic_factor(-81, 0) * _quartic_factor(25, -6) * _quartic_factor(25, 6)
    t4 = (
        _quartic_factor(-256, 0)
        * _quartic_factor(100, -16)
        * _quartic_factor(64, 0)
        * _quartic_factor(100, 16)
    )
    return {1: t1, 2: t2, 3: t3, 4: t4}


def _expected_quartic_p() -> dict[int, IntPolynomial]:
    t = _expected_quartic_t()
    x = IntPolynomial.x()
    return {
        1: t[1],
        2: x * t[2],
        3: t[3] * t[1],
        4: x * t[2] * t[4],
    }


def check_quartic_displayed() -> str:
    expected_t = _expected_quartic_t()
    expected_p = _expected_quartic_p()
    for n in range(1, 5):
        got = quartic_t(n)
        _require(got == expected_t[n], f"t_{n}: got {got}, expected {expected_t[n]}")
        got = quartic_p(n)
        _require(got == expected_p[n], f"p_{n}: got {got}, expected {expected_p[n]}")
    return "t_n and p_n for n = 1..4 match the displayed products exactly"


def check_lewis_closed_form() -> str:
    spec = RootSpec.integers(-1, 1)
    for n in range(1, 11):
        closed = lewis_polynomial(n)
        enumerated = annihilating_polynomial(spec, n, "signed", SUITE_LIMITS)
        _require(closed == enumerated, f"n = {n}: {closed} != {enumerated}")
    return "lewis_polynomial(n) equals the enumerated annihilator for n = 1..10"


def check_quartic_closed_form() -> str:
    spec = RootSpec.unity(4)
    for n in range(1, 6):
        closed = quartic_p(n)
        enumerated = annihilating_polynomial(spec, n, "signed", SUITE_LIMITS)
        _require(
            closed == enumerated,
            f"n = {n}: degree {closed.degree} vs {enumerated.degree}",
        )
    return "quartic_p(n) equals the enumerated annihilator for n = 1..5"


def check_quartic_dn_roots() -> str:
    count = 0
    for n in range(2, 7):
        t = quartic_t(n)
        for a in range(-n, n + 1):
            b = n - abs(a)
            for bb in {b, -b}:
                z = CyclotomicInteger.from_int(a, 4) + bb * CyclotomicInteger.zeta(4)
                value = t(z)
                _require(value == 0, lambda: f"t_{n}({a}{bb:+}i) = {value}")
                count += 1
    return f"t_n vanishes on all {count} Gaussian integers with |a|+|b| = n, n = 2..6"


def check_degree_bound() -> str:
    failures = []
    for k in range(1, 4):
        spec = RootSpec.unity(2**k)
        for n in range(1, 6):
            p = annihilating_polynomial(spec, n, "signed", SUITE_LIMITS)
            bound = degree_bound(n, k)
            if p.degree > bound:
                failures.append(f"k={k} n={n}: deg p_n = {p.degree} > {bound}")
    _require(not failures, "; ".join(failures))
    return "deg p_n <= 2^(n-1)(2^k - 1) + 1 for k = 1..3, n = 1..5"


def check_constant_term_parity() -> str:
    for k in range(1, 4):
        spec = RootSpec.unity(2**k)
        for n in (1, 3, 5):
            p = annihilating_polynomial(spec, n, "signed", SUITE_LIMITS)
            constant = p.coefficient(0)
            _require(constant % 2 != 0, f"k={k} n={n}: p_n(0) = {constant} is even")
    return "p_n(0) is odd for odd n, k = 1..3"


def check_marks_a5() -> str:
    difference = a5_reference_difference(table_of_marks(named_group("A5")))
    _require(difference is None, difference)
    return "computed A5 table of marks equals the bundled 9x9 reference"


def check_burnside_generating_polynomial() -> str:
    model = bundled_model("burnside-A5")
    q = model.generating_polynomial()
    roots = sorted(model.table.distinct_entries(), reverse=True)
    _require(roots == [60, 30, 20, 15, 12, 10, 6, 5, 3, 2, 1, 0], roots)
    _require(q == IntPolynomial.from_roots(roots))
    for value in roots:
        _require(q(value) == 0)
    return "Burnside(A5) generating polynomial has root set {60,...,2,1,0}"


ANNIHILATION_MODELS = (
    "Z",
    "Z^3",
    "Z[C2]",
    "Z[C2xC2]",
    "Z[C4]",
    "burnside-A5",
    "Z4[C2]",
)


def check_annihilation_random() -> str:
    rng = random.Random(0x5EED)
    total = 0
    for name in ANNIHILATION_MODELS:
        model = bundled_model(name)
        for i in range(100):
            r = model.random_element(rng, max_length=5)
            report = verify_annihilated(model, r, SUITE_LIMITS)
            _require(
                report.annihilated,
                lambda: f"{name}: p_{report.length} does not annihilate "
                f"{model.format_element(r)}",
            )
            if i % 10 == 0:
                # independent cross-check of is_root: Horner in the ring
                in_ring = poly_eval_in_ring(report.polynomial, r, model) == model.zero()
                _require(
                    in_ring == report.annihilated,
                    lambda: f"{name}: is_root and Horner in the ring disagree on "
                    f"{model.format_element(r)}",
                )
            total += 1
    return f"p_length(r) = 0 for {total} random elements across {len(ANNIHILATION_MODELS)} models"


def check_local_structure() -> str:
    for name in ("Z4[C2]", "Z8[C2]"):
        model = bundled_model(name)
        table = _oracle_table(name)
        primes = oracle.prime_ideals(table)
        ideal = fundamental_ideal_elements(model)
        _require(len(primes) == 1, f"{name}: {len(primes)} primes")
        prime_set = frozenset(table.elements[i] for i in primes[0])
        _require(prime_set == ideal, f"{name}: the unique prime is not I")
        _require(
            len(model.carrier()) == 2 * len(ideal),
            f"{name}: I does not have index 2",
        )

        records = oracle.exhaustive_predicates(table)
        for idx, r in enumerate(table.elements):
            rec = records[idx]
            in_ideal = r in ideal
            _require(rec.nilpotent == in_ideal, f"{name}: nilpotent vs I at {r}")
            _require(rec.zero_divisor == in_ideal, f"{name}: zero divisor vs I at {r}")
            _require((not rec.unit) == in_ideal, f"{name}: non-unit vs I at {r}")
            _require(rec.torsion, f"{name}: non-torsion element {r}")
    return "on Z4[C2] and Z8[C2]: Spec = {I} and I = nilpotents = zero divisors = non-units"


def check_pfister_local_global() -> str:
    rng = random.Random(0xA11)
    for name in ("Z[C2]", "Z[C2xC2]"):
        model = bundled_model(name)
        sigs = model.signatures()
        zero = model.zero()
        samples = [model.random_element(rng, max_length=6) for _ in range(200)]
        samples.extend([zero, model.one(), model.neg(model.one())])
        for r in samples:
            preds = element_predicates(model, r)
            is_zero = r == zero
            _require(preds.torsion == is_zero)
            _require(preds.nilpotent == is_zero)
            _require(all(sig(r) == 0 for sig in sigs) == is_zero)
    return "torsion = nilpotent = killed-by-every-signature = {0} on Z[C2] and Z[C2xC2]"


def check_zero_divisors_union() -> str:
    rng = random.Random(0xD1F)
    mismatches = 0
    checked = 0
    for name in ("Z[C2]", "Z[C2xC2]"):
        model = bundled_model(name)
        sigs = model.signatures()
        zero = model.zero()
        # e_sigma = sum sigma(g) g is killed by multiplication against
        # anything in ker(sigma), giving an explicit witness.
        witnesses = []
        for sig in sigs:
            e = zero
            for (label, g), v in zip(model.generators(), sig.values):
                e = model.add(e, g) if v == 1 else model.sub(e, g)
            witnesses.append(e)
        for _ in range(100):
            r = model.random_element(rng, max_length=6)
            in_union = any(sig(r) == 0 for sig in sigs)
            preds = element_predicates(model, r)
            if preds.zero_divisor != in_union:
                mismatches += 1
            if in_union:
                hit = [
                    w
                    for sig, w in zip(sigs, witnesses)
                    if sig(r) == 0 and model.mul(r, w) == zero and w != zero
                ]
                _require(
                    hit,
                    lambda: f"{name}: no annihilating witness for {model.format_element(r)}",
                )
            checked += 1
    _require(mismatches == 0, f"{mismatches} mismatches")
    return f"zero divisors match the union of signature ideals on {checked} samples (with witnesses)"


def check_dress_relations() -> str:
    """`dress_relations` on Burnside(A5) with P = {2, 3, 5}, from the
    mark columns, against Dress's theorem read off the subgroup lattice.
    p_(U,p) lies in p_(V,p') exactly when p' != 0, p is 0 or p', and
    O^p'(U) and O^p'(V) are conjugate (the ideals p_(U,p') and p_(V,p')
    are then equal, and p_(U,0) lies in p_(U,p')), or when p = p' = 0
    and U and V are conjugate.  The expectation comes from
    `p_residual_classes`, which reads no mark."""
    model = bundled_model("burnside-A5")
    G = named_group("A5")
    primes = [2, 3, 5]
    rel = dress_relations(model, primes)
    # the class of O^p(U) for each class U; O^0 stands for U itself
    residual = {p: p_residual_classes(G, p) for p in primes}
    residual[0] = tuple(range(model.k))
    pairs = 0
    for a in rel.members:
        for b in rel.members:
            expected = a.p in (0, b.p) and (
                residual[b.p][a.class_index] == residual[b.p][b.class_index]
            )
            got = rel.subset[(a, b)]
            _require(
                got == expected,
                lambda: f"containment p[{a.class_label},{a.p}] <= p[{b.class_label},{b.p}]: "
                f"computed {got}, statement says {expected}",
            )
            pairs += 1
    for m in rel.members:
        _require(rel.minimal[m] == (m.p == 0), f"minimal flag wrong at {m}")
        _require(rel.maximal[m] == (m.p != 0), f"maximal flag wrong at {m}")
    return f"all {pairs} containments and 36 min/max flags match the classification"


def check_admissibility() -> str:
    for n in range(2, 13):
        model = bundled_model(f"Z{n}")
        admissible = is_admissible(model)
        _require(admissible == (n % 2 == 0), f"Z/{n}: admissible = {admissible}")
    return "is_admissible(Z/n) = (n even) for n = 2..12"


def check_ap1_agreement() -> str:
    for name in FINITE_BUNDLED:
        model = bundled_model(name)
        adm = is_admissible(model)
        ap1 = ap_condition_check(model, 1)
        _require(adm == ap1, f"{name}: admissible={adm} but AP(1)={ap1}")
    return f"AP(1) agrees with admissibility on {len(FINITE_BUNDLED)} finite models"


def check_oracle_agreement() -> str:
    compared = 0
    for name in FINITE_BUNDLED:
        model = bundled_model(name)
        table = _oracle_table(name)
        records = oracle.exhaustive_predicates(table)
        for idx, r in enumerate(table.elements):
            rec = records[idx]
            preds = element_predicates(model, r)
            for field in ("nilpotent", "unit", "zero_divisor", "idempotent", "torsion"):
                _require(
                    getattr(preds, field) == getattr(rec, field),
                    lambda: f"{name}: {field} differs at {model.format_element(r)}",
                )
            compared += 1
    return f"structural predicates equal oracle predicates on {compared} elements"


@lru_cache(maxsize=None)
def _oracle_table(name: str) -> oracle.FiniteRingTable:
    return oracle.table_for_model(bundled_model(name))


CHECKS: tuple[tuple[int, str, Callable[[], str]], ...] = (
    (1, "quartic-displayed", check_quartic_displayed),
    (2, "lewis-closed-form", check_lewis_closed_form),
    (3, "quartic-closed-form", check_quartic_closed_form),
    (3, "quartic-dn-roots", check_quartic_dn_roots),
    (4, "degree-bound", check_degree_bound),
    (4, "constant-term-parity", check_constant_term_parity),
    (5, "marks-a5", check_marks_a5),
    (5, "marks-generating-polynomial", check_burnside_generating_polynomial),
    (6, "annihilation-random", check_annihilation_random),
    (7, "local-structure", check_local_structure),
    (8, "pfister-local-global", check_pfister_local_global),
    (8, "zero-divisors-union", check_zero_divisors_union),
    (9, "dress-relations", check_dress_relations),
    (10, "admissibility", check_admissibility),
    (10, "ap1-agreement", check_ap1_agreement),
    (11, "oracle-agreement", check_oracle_agreement),
)


def paper_checks(name_filter: Optional[str] = None) -> list[CheckResult]:
    """Run the suite (optionally filtered by substring) and collect results."""
    results = []
    for criterion, name, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        try:
            detail = func()
            results.append(CheckResult(criterion, name, True, detail))
        except CheckFailed as exc:
            results.append(CheckResult(criterion, name, False, str(exc)))
    return results
