"""A failing check of the paper suite names what it failed on.

The per-element loops of `aprings.verification` build their failure
messages only when a check fails.  Each test here makes one loop fail
and pins the message it raises, character for character.
"""

import dataclasses

import pytest

from aprings import verification as v
from aprings.errors import CheckFailed
from aprings.intpoly import IntPolynomial


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
