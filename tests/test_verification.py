"""Every check of the paper suite can fail, and names what it failed on.

The per-element loops of `aprings.verification` build their failure
messages only when a check fails.  The first tests make one loop fail
and pin the message it raises, character for character.  The rest
inject one plausible fault into the code a check covers and see
`paper_checks` report that check as FAIL.

`pfister-local-global` has no such test.  It runs on Z[C2] and
Z[C2xC2], which are torsion-free, so torsion, nilpotence and "killed
by every signature" all mean r = 0 there, and any predicate code that
answers r == 0 passes it: no plausible fault flips it until the check
has a ring with both signatures and nonzero torsion (a quotient Z[G]/J
of rank below |G|).  Widening the check to such a ring changes its
`verify` detail line, and with it the recorded digest of the suite's
output.
"""

import dataclasses

import pytest

from aprings import annihilator
from aprings import verification as v
from aprings.errors import CheckFailed
from aprings.intpoly import IntPolynomial, packed_product


def _failure(check) -> str:
    with pytest.raises(CheckFailed) as info:
        check()
    return str(info.value)


def test_annihilation_failure_message(monkeypatch):
    real = v.verify_annihilated

    def fails_on_a5(model, r, limits=None):
        report = real(model, r, limits)
        if model.name == "burnside-A5" and report.length >= 3:
            return dataclasses.replace(report, annihilated=False)
        return report

    monkeypatch.setattr(v, "verify_annihilated", fails_on_a5)
    assert _failure(v.check_annihilation_random) == (
        "burnside-A5: p_3 does not annihilate c3 - c10 + c12"
    )


def test_horner_disagreement_message(monkeypatch):
    real = v.poly_eval_in_ring

    def wrong_on_c4(p, r, model):
        return model.one() if model.name == "Z[C4]" else real(p, r, model)

    monkeypatch.setattr(v, "poly_eval_in_ring", wrong_on_c4)
    assert _failure(v.check_annihilation_random) == (
        "Z[C4]: is_root and Horner in the ring disagree on 2*g^3"
    )


def test_quartic_dn_roots_failure_message(monkeypatch):
    real = v.quartic_t
    # x^2 - 9 vanishes at +-3 only, so t_3 + x^2 - 9 first fails at -2 + i
    monkeypatch.setattr(
        v, "quartic_t", lambda n: real(n) + IntPolynomial((-9, 0, 1)) if n == 3 else real(n)
    )
    assert _failure(v.check_quartic_dn_roots) == "t_3(-2+1i) = -6 - 4*i"


def test_oracle_agreement_failure_message(monkeypatch):
    real = v.element_predicates

    def units_flipped(model, r):
        preds = real(model, r)
        if model.name == "Z4[C2]" and preds.unit:
            return dataclasses.replace(preds, unit=False)
        return preds

    monkeypatch.setattr(v, "element_predicates", units_flipped)
    assert _failure(v.check_oracle_agreement) == "Z4[C2]: unit differs at g"


def test_dress_relations_check_catches_one_flipped_containment(monkeypatch):
    """The expectation comes from O^p on the subgroup lattice, not from
    the marks that `dress_relations` reads, so one wrong entry fails."""
    real = v.dress_relations

    def flipped(model, primes):
        rel = real(model, primes)
        a, b = rel.members[1], rel.members[0]  # p[1,2] <= p[1,0]: false
        rel.subset[(a, b)] = not rel.subset[(a, b)]
        return rel

    monkeypatch.setattr(v, "dress_relations", flipped)
    assert _failure(v.check_dress_relations) == (
        "containment p[1,2] <= p[1,0]: computed True, statement says False"
    )


# -- one injected fault per check ---------------------------------------------------------


def _lewis_with_step_1(monkeypatch):
    # the roots -n, -n + 2, ..., n written with step 1
    monkeypatch.setattr(v, "lewis_polynomial", lambda n: IntPolynomial.from_roots(range(-n, n + 1)))


def _quartic_t_with_axis_factor(monkeypatch):
    # the product over a + b = n taken over a, b >= 0: the factor of
    # a = 0, b = n comes in next to x^4 - n^4
    real = v.quartic_t
    monkeypatch.setattr(v, "quartic_t", lambda n: real(n) * IntPolynomial((n**4, 0, 2 * n * n, 0, 1)))


def _quartic_p_without_x(monkeypatch):
    # the factor X of an even n left out
    real = v.quartic_p
    monkeypatch.setattr(v, "quartic_p", lambda n: divmod(real(n), IntPolynomial.x())[0] if n % 2 == 0 else real(n))


def _p_n_off_by_one(monkeypatch):
    real = v.annihilating_polynomial
    monkeypatch.setattr(v, "annihilating_polynomial", lambda spec, n, mode, limits: real(spec, n + 1, mode, limits))


def _normaliser_orders_on_the_diagonal(monkeypatch):
    # the diagonal mark |N_G(U)| in place of |N_G(U) : U|
    real = v.table_of_marks

    def table(group):
        t = real(group)
        marks = tuple(
            tuple(m * t.classes[i].order if i == j else m for j, m in enumerate(row))
            for i, row in enumerate(t.marks)
        )
        return dataclasses.replace(t, marks=marks)

    monkeypatch.setattr(v, "table_of_marks", table)


def _linear_factors_with_the_wrong_sign(monkeypatch):
    # q of integer roots as the product of X + a in place of X - a
    monkeypatch.setattr(
        annihilator.RootSpec,
        "polynomial",
        lambda spec: packed_product(IntPolynomial((a, 1)) for a in spec.ints),
    )


def _odd_lengths_taken_for_the_fundamental_ideal(monkeypatch):
    real = v.fundamental_ideal_elements
    monkeypatch.setattr(v, "fundamental_ideal_elements", lambda model: frozenset(model.carrier()) - real(model))


def _only_zero_is_a_zero_divisor(monkeypatch):
    real = v.element_predicates
    monkeypatch.setattr(
        v,
        "element_predicates",
        lambda model, r: dataclasses.replace(real(model, r), zero_divisor=r == model.zero()),
    )


def _admissibility_parity_inverted(monkeypatch):
    monkeypatch.setattr(v, "is_admissible", lambda model: model.characteristic() % 2 == 1)


def _ap_k_off_by_one(monkeypatch):
    real = v.ap_condition_check
    monkeypatch.setattr(v, "ap_condition_check", lambda model, k: real(model, k + 1))


FAULTS = {
    "quartic-displayed": _quartic_t_with_axis_factor,
    "lewis-closed-form": _lewis_with_step_1,
    "quartic-closed-form": _quartic_p_without_x,
    "constant-term-parity": _p_n_off_by_one,
    "marks-a5": _normaliser_orders_on_the_diagonal,
    "marks-generating-polynomial": _linear_factors_with_the_wrong_sign,
    "local-structure": _odd_lengths_taken_for_the_fundamental_ideal,
    "zero-divisors-union": _only_zero_is_a_zero_divisor,
    "admissibility": _admissibility_parity_inverted,
    "ap1-agreement": _ap_k_off_by_one,
}


def _result(name: str) -> v.CheckResult:
    (result,) = [r for r in v.paper_checks(name) if r.name == name]
    return result


@pytest.mark.parametrize("name", FAULTS)
def test_an_injected_fault_fails_the_check(monkeypatch, name):
    # the clean run passes, and fills every cache the check reads, so
    # the fault can neither hide behind a cached value nor leave one
    assert _result(name).passed
    FAULTS[name](monkeypatch)
    assert not _result(name).passed


def test_a_fault_in_the_degree_changes_the_degree_bound_message(monkeypatch):
    """`degree-bound` fails on the paper's own statement, so its fault
    shows in what it reports: one more root in every p_n."""
    clean = _result("degree-bound")
    assert not clean.passed
    real = v.annihilating_polynomial
    monkeypatch.setattr(
        v, "annihilating_polynomial", lambda spec, n, mode, limits: real(spec, n, mode, limits) * IntPolynomial.x()
    )
    faulted = _result("degree-bound")
    assert not faulted.passed
    assert faulted.detail != clean.detail
    assert faulted.detail.startswith("k=1 n=1: deg p_n = 3 > 2; ")


# the checks whose fault tests pin a message, above
MESSAGE_TESTS = {"annihilation-random", "quartic-dn-roots", "oracle-agreement", "dress-relations"}


def test_every_check_has_a_fault_test_or_a_stated_reason():
    covered = set(FAULTS) | MESSAGE_TESTS | {"degree-bound"}
    untested = {"pfister-local-global"}  # see the module docstring
    assert covered | untested == {name for _, name, _ in v.CHECKS}
    assert not covered & untested
