"""Acceptance suite: one test per criterion, exact checks throughout.

Every check lives in aprings.verification so that `aprings verify
--suite paper` runs the identical code.  Each test prints a PASS/FAIL
line (visible with `pytest -s` or on failure).

The degree-bound half of criterion 4 is expected to fail: the stated
inequality deg p_n <= 2^(n-1)(2^k - 1) + 1 is contradicted by direct
enumeration for k >= 2 at small n (for the fourth roots of unity
already |T_2| = 9 > 7, matching the displayed degree-9 p_2 for that
family).  The check is kept as stated rather than weakened.
"""

import pytest

from aprings import verification as v
from aprings.errors import CheckFailed


def _report(criterion: str, func) -> None:
    try:
        detail = func()
    except CheckFailed as exc:
        print(f"CRITERION {criterion}: FAIL - {exc}")
        raise
    print(f"CRITERION {criterion}: PASS - {detail}")


def test_criterion_01_quartic_family_displayed_exactly():
    _report("1", v.check_quartic_displayed)


def test_criterion_02_lewis_closed_form():
    _report("2", v.check_lewis_closed_form)


def test_criterion_03_quartic_closed_form_and_dn_roots():
    _report("3 (closed form)", v.check_quartic_closed_form)
    _report("3 (D_n roots)", v.check_quartic_dn_roots)


def test_criterion_04_degree_bound():
    _report("4 (degree bound)", v.check_degree_bound)


def test_criterion_04_constant_term_parity():
    _report("4 (parity)", v.check_constant_term_parity)


def test_criterion_05_a5_table_of_marks():
    _report("5 (marks)", v.check_marks_a5)
    _report("5 (generating polynomial)", v.check_burnside_generating_polynomial)


def test_criterion_06_annihilation_of_random_elements():
    _report("6", v.check_annihilation_random)


def test_criterion_07_local_structure_of_2power_quotients():
    _report("7", v.check_local_structure)


def test_criterion_08_local_global_and_zero_divisors():
    _report("8 (local-global)", v.check_pfister_local_global)
    _report("8 (zero divisors)", v.check_zero_divisors_union)


def test_criterion_09_dress_relations():
    _report("9", v.check_dress_relations)


def test_criterion_10_admissibility_and_ap1():
    _report("10 (admissibility)", v.check_admissibility)
    _report("10 (AP(1))", v.check_ap1_agreement)


def test_criterion_11_oracle_agreement():
    _report("11", v.check_oracle_agreement)
