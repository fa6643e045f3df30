import argparse
import contextlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from aprings import cli
from aprings.cli import main
from aprings.groups import named_group_names
from aprings.rings import bundled_model
from aprings.spectrum import LISTED_PRIME_BOUND


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_annihilator_lewis_preset(capsys):
    code, out, _ = run_cli(capsys, "annihilator", "--q", "preset:x2-1", "--n", "3")
    assert code == 0
    assert "-3, -1, 1, 3" in out
    assert "x^4 - 10*x^2 + 9" in out


def test_annihilator_quartic_preset(capsys):
    code, out, _ = run_cli(
        capsys, "annihilator", "--q", "preset:x4-1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    # x (x^4 - 16) (x^4 + 4) = x^9 - 12 x^5 - 64 x
    assert payload["polynomial"] == ["0", "-64", "0", "0", "0", "-12", "0", "0", "0", "1"]
    assert payload["degree"] == 9


def test_annihilator_inline_json_unsigned(capsys):
    code, out, _ = run_cli(
        capsys,
        "annihilator",
        "--q",
        '{"atoms":[{"kind":"integers","values":[0,2]}]}',
        "--n",
        "2",
        "--mode",
        "unsigned",
    )
    assert code == 0
    assert "roots: 0, 2, 4" in out


MU = {"kind": "roots_of_unity", "order": 4}
INTS = {"kind": "integers", "values": [0, 2]}


@pytest.mark.parametrize("spec, message", [
    ({"atoms": [{"kind": "integers", "values": [2, 2]}]}, "integer roots must be pairwise distinct"),
    ({"atoms": []}, "a root spec needs at least one atom"),
    ({"atoms": [{"kind": "roots_of_unity", "order": 0}]}, "order must be positive"),
    ({"atoms": [{"kind": "integers", "values": []}]},
     "'values' must be a nonempty list of integers, got []"),
    ({"atoms": [{"kind": "mu", "order": 2}]}, "unknown root atom kind: 'mu'"),
    ({"atoms": [MU, {"kind": "roots_of_unity", "order": 3}]},
     "atoms overlap: the union of root sets must be duplicate-free"),
    ({"atoms": [{"kind": "integers", "values": [-1, 3]}, MU]},
     "atoms overlap: the union of root sets must be duplicate-free"),
    ({"atoms": [INTS, {"kind": "integers", "values": [2, 5]}]},
     "atoms overlap: the union of root sets must be duplicate-free"),
])
def test_a_malformed_root_spec_names_its_fault(capsys, spec, message):
    assert run_cli(capsys, "annihilator", "--q", json.dumps(spec), "--n", "1") == (
        2, "", f"usage error: {message}\n"
    )


def test_a_spec_invalid_two_ways_is_refused_for_its_overlap_first(capsys):
    """The overlap is found when the spec is built, before any root of
    the order past the cyclotomic cap is."""
    spec = {"atoms": [{"kind": "roots_of_unity", "order": 2}, {"kind": "roots_of_unity", "order": 67}]}
    assert run_cli(capsys, "annihilator", "--q", json.dumps(spec), "--n", "1") == (
        2, "", "usage error: atoms overlap: the union of root sets must be duplicate-free\n"
    )


def test_a_json_spec_is_echoed_in_its_normal_form(capsys):
    """mu_m first, then one sorted integer atom, however the atoms were
    listed; the roots and p_n do not depend on the listing."""
    outputs = []
    for atoms in ([MU, INTS], [{"kind": "integers", "values": [2]}, MU, {"kind": "integers", "values": [0]}]):
        code, out, _ = run_cli(capsys, "annihilator", "--q", json.dumps({"atoms": atoms}), "--n", "2",
                               "--format", "json")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["spec"] == {"atoms": [MU, INTS]}


def test_annihilator_closed_form_flag(capsys):
    code, out, _ = run_cli(
        capsys, "annihilator", "--q", "preset:pfister:1", "--n", "2", "--closed-form"
    )
    assert code == 0
    assert "closed form matches" in out


def test_annihilator_closed_form_needs_preset(capsys):
    code, _, err = run_cli(
        capsys,
        "annihilator",
        "--q",
        '{"atoms":[{"kind":"integers","values":[0,2]}]}',
        "--n",
        "2",
        "--closed-form",
    )
    assert code == 2


def test_annihilator_closed_form_outside_its_mode_is_a_usage_error(capsys):
    """The Pfister closed form is stated for unsigned sums of {0, 2^K},
    which is not symmetric, so in signed mode it is not a claim to check."""
    code, out, err = run_cli(
        capsys, "annihilator", "--q", "preset:pfister:1", "--n", "2", "--mode", "signed",
        "--closed-form",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "usage error: the closed form of preset 'pfister:1' is stated for unsigned sums; "
        "its roots are not symmetric, so signed sums differ\n"
    )


def test_annihilator_bound_exceeded(capsys):
    code, _, err = run_cli(capsys, "annihilator", "--q", "preset:x2-1", "--n", "9")
    assert code == 3
    assert "bound" in err


# a prime modulus: the carrier is far above max_carrier, and the powers of
# 2 run through its multiplicative order before one repeats
BIG_PRIME_QUOTIENT = '{"kind": "finite_quotient", "modulus": 1000000007}'
Z4_C2XC2 = {"kind": "finite_quotient", "modulus": 4, "factor_orders": [2, 2]}


@pytest.mark.parametrize(
    "argv, reached",
    [
        (("analyze", "--ring", BIG_PRIME_QUOTIENT, "--element", "2"), 4097),
        (("spectrum", "--ring", BIG_PRIME_QUOTIENT), 1000000007),
        (("spectrum", "--ring", "Z16[C2xC2]"), 65536),
        # two factors of 256 elements each: refused before a pair is built
        (("spectrum", "--ring", json.dumps({"kind": "product", "left": Z4_C2XC2, "right": Z4_C2XC2})),
         65536),
    ],
)
def test_quotient_above_the_carrier_cap_exits_3(capsys, argv, reached):
    code, _, err = run_cli(capsys, *argv)
    assert code == 3
    assert f"max_carrier = 4096: reached {reached} elements" in err


@pytest.mark.parametrize("ring", ["Z16[C2xC2]", BIG_PRIME_QUOTIENT])
def test_analyze_answers_on_a_quotient_above_the_carrier_cap(capsys, ring):
    # building the quotient and the powers of 1 enumerate nothing large
    code, out, _ = run_cli(capsys, "analyze", "--ring", ring, "--element", "1")
    assert code == 0
    assert "length: 1" in out and "unit: True" in out


def test_annihilator_malformed_spec(capsys):
    code, _, _ = run_cli(capsys, "annihilator", "--q", "{broken", "--n", "2")
    assert code == 2


HUGE_ROOTS = [10**300 + i for i in range(16)]


def _huge_root_coefficients():
    """p_1 for HUGE_ROOTS in signed mode: prod (x^2 - r^2), ascending,
    with coefficients of about 9600 decimal digits."""
    coeffs = [1]
    for r in HUGE_ROOTS:
        shifted = [0, 0] + coeffs
        coeffs = [a - r * r * b for a, b in zip(shifted, coeffs + [0, 0])]
    return coeffs


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_annihilator_prints_coefficients_beyond_the_int_string_limit(capsys, fmt):
    spec = json.dumps({"atoms": [{"kind": "integers", "values": HUGE_ROOTS}]})
    code, out, err = run_cli(capsys, "annihilator", "--q", spec, "--n", "1", "--format", fmt)
    assert code == 0, err
    expected = _huge_root_coefficients()
    if fmt == "json":
        payload = json.loads(out)
        coefficients = payload["polynomial"]
        roots = [int(Decimal(e[0])) for e in payload["roots"]["elements"]]
        assert roots == sorted(-r for r in HUGE_ROOTS) + HUGE_ROOTS
    else:
        line = next(row for row in out.splitlines() if row.startswith("coefficients (ascending): "))
        coefficients = line.partition(": ")[2].split(", ")
        assert f"x^32 - {-expected[30]}*x^30" in out
    assert [int(Decimal(c)) for c in coefficients] == expected
    assert max(map(len, coefficients)) > 4300


def test_marks_named_c2(capsys):
    code, out, _ = run_cli(capsys, "marks", "--group", "named:C2", "--format", "json")
    assert code == 0
    assert json.loads(out)["marks"] == [[2, 0], [1, 1]]


def test_marks_trivial(capsys):
    code, out, _ = run_cli(capsys, "marks", "--group", "named:trivial", "--format", "json")
    assert code == 0
    assert json.loads(out)["marks"] == [[1]]


def test_marks_check_paper(capsys):
    code, out, _ = run_cli(capsys, "marks", "--group", "named:A5", "--check-paper")
    assert code == 0
    assert "matches" in out


def test_marks_check_paper_mismatch(capsys):
    code, _, err = run_cli(capsys, "marks", "--group", "named:S3", "--check-paper")
    assert code == 1


def test_marks_group_from_file(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 2, "generators": [[1, 0]]}))
    code, out, _ = run_cli(capsys, "marks", "--group", f"@{path}", "--format", "json")
    assert code == 0
    assert json.loads(out)["marks"] == [[2, 0], [1, 1]]


def test_marks_refuses_a_group_with_too_many_subgroups(capsys):
    """C2^7, seven disjoint transpositions, has order 128 but 29212
    subgroups; the lattice stops at MAX_SUBGROUPS instead of building
    a table of marks over all of them."""
    generators = []
    for i in range(7):
        p = list(range(14))
        p[2 * i], p[2 * i + 1] = 2 * i + 1, 2 * i
        generators.append(p)
    group = json.dumps({"degree": 14, "generators": generators})
    code, out, err = run_cli(capsys, "marks", "--group", group)
    assert code == 3
    assert out == ""
    assert err == (
        "resource bound exceeded: |G| = 128 has more than 4096 subgroups, "
        "the limit of the subgroup lattice\n"
    )


@pytest.mark.parametrize("digits", ["100", "9" * 5000], ids=["C100", "5000-digits"])
def test_marks_refuses_a_named_cyclic_group_above_the_order_cap(capsys, monkeypatch, digits):
    """Cn is refused from its name, before its degree-n cycle is built,
    even when n has more digits than int() converts."""
    monkeypatch.setenv("APRINGS_MAX_GROUP_ORDER", "30")
    code, out, err = run_cli(capsys, "marks", "--group", f"named:C{digits}")
    assert code == 3
    assert out == ""
    assert err == (
        f"resource bound exceeded: C{digits} has order {digits}, "
        "above the limit max_group_order = 30\n"
    )


@pytest.mark.parametrize("name", ["C0", "C\u00b2", "C-3", "C"])
def test_marks_unknown_cyclic_name_is_a_usage_error(capsys, name):
    code, _, err = run_cli(capsys, "marks", "--group", f"named:{name}")
    assert code == 2
    assert err == f"usage error: unknown named group: {name!r}\n"


def test_spectrum_z_c2(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--ring", "preset:Z[C2]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["min"]) == 2
    assert payload["max"]["fundamental"]["label"] == "I"
    assert len(payload["max"]["families"]) == 2
    assert payload["local"] is False


def test_spectrum_z4_c2(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--ring", "preset:Z4[C2]", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["local"] is True
    assert payload["finite"] == [{"fundamental": True, "index": 2, "size": 8}]


def test_spectrum_burnside_a5(capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--ring",
        "preset:burnside-A5",
        "--primes-up-to",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["min"]) == 9
    assert len(payload["max"]["families"]) == 9
    assert all(f["primes"] == [2, 3, 5] for f in payload["max"]["families"])


def test_prime_bound_past_the_cap_exits_3(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--ring", "burnside-A5", "--primes-up-to", "100001")
    assert (code, out) == (3, "")
    assert err == (
        "resource bound exceeded: the prime bound 100001 exceeds the limit "
        "MAX_LISTED_PRIME = 100000\n"
    )
    code, out, _ = run_cli(
        capsys, "spectrum", "--ring", "burnside-A5", "--primes-up-to", "100000", "--format", "json"
    )
    assert code == 0
    for family in json.loads(out)["max"]["families"]:
        assert len(family["primes"]) == 9592 and family["primes"][-1] == 99991


def test_spectrum_json_deterministic(capsys):
    _, first, _ = run_cli(
        capsys, "spectrum", "--ring", "preset:burnside-A5", "--format", "json"
    )
    _, second, _ = run_cli(
        capsys, "spectrum", "--ring", "preset:burnside-A5", "--format", "json"
    )
    assert first == second


def test_analyze_z_c2(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--ring", "preset:Z[C2]", "--element", "1 + g", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 2
    assert payload["annihilated"] is True
    assert payload["predicates"]["zero_divisor"] is True


def test_analyze_z(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--ring", "Z", "--element", "7")
    assert code == 0
    assert "length: 7" in out
    assert "unit: False" in out


def test_analyze_burnside_identity(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--ring", "preset:burnside-A5", "--element", "1"
    )
    assert code == 0
    assert "length: 1" in out
    assert "unit: True" in out


def test_analyze_parse_failure(capsys):
    code, _, err = run_cli(capsys, "analyze", "--ring", "Z", "--element", "1 + q")
    assert code == 2


def test_verify_filter_marks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper", "--filter", "marks")
    assert code == 0
    assert "[PASS] c05 marks-a5" in out


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_verify_full_suite_reports_degree_bound_failure(capsys):
    # the full suite currently exits 1: the classical degree bound is
    # violated by direct enumeration for k >= 2 at small n, and the
    # suite reports that honestly
    code, out, _ = run_cli(capsys, "verify", "--suite", "paper")
    assert code == 1
    lines = out.strip().splitlines()
    failing = [l for l in lines if l.startswith("[FAIL]")]
    assert len(failing) == 1
    assert "degree-bound" in failing[0]
    assert "15/16 checks passed" in lines[-1]


def _child_env() -> dict:
    """The environment of a child interpreter that imports aprings from
    this checkout's src, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path)


def test_console_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "aprings.cli", "marks", "--group", "named:C2"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "2" in proc.stdout


def test_verify_failure_survives_python_O():
    # the checks raise instead of asserting, so -O cannot turn FAIL into PASS
    argv = ["-m", "aprings.cli", "verify", "--suite", "paper", "--filter", "degree-bound"]
    procs = [
        subprocess.Popen(
            [sys.executable, *flags, *argv],
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
        )
        for flags in ([], ["-O"])
    ]
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [1, 1]
    fails = [[l for l in out.splitlines() if l.startswith("[FAIL]")] for out in outputs]
    assert fails[0] == fails[1]
    assert len(fails[0]) == 1 and fails[0][0].startswith("[FAIL] c04 degree-bound: ")


@pytest.mark.parametrize("element", ["-g", "-2*g + 1"])
def test_analyze_element_starting_with_minus(capsys, element):
    # `--element VALUE` must read a leading "-" as part of the value
    joined = run_cli(capsys, "analyze", "--ring", "Z[C2]", f"--element={element}")
    spaced = run_cli(capsys, "analyze", "--ring", "Z[C2]", "--element", element)
    assert joined[0] == 0
    assert spaced == joined


UNKNOWN_KEY_RINGS = (
    '{"kind":"finite_quotient","modulus":4,"factor_orders":[2],"idael":[[2,2]]}',
    '{"kind":"group_ring","factor_orders":[2],"modulus":5}',
    '{"kind":"product","left":{"kind":"Z"},"right":{"kind":"Z","x":1}}',
)
UNKNOWN_KEY_SPECS = (
    '{"atoms":[{"kind":"roots_of_unity","order":4,"oder":8}]}',
    '{"atoms":[{"kind":"roots_of_unity","order":4}],"ordr":8}',
)


@pytest.mark.parametrize(
    "argv",
    [
        ["annihilator", "--q", "preset:x2-1", "--n", "0"],
        ["annihilator", "--q", "preset:nope", "--n", "2"],
        ["annihilator", "--q", '{"atoms":[{"kind":"roots_of_unity","order":3},'
                               '{"kind":"roots_of_unity","order":6}]}', "--n", "2"],
        ["annihilator", "--q", "@/nonexistent/spec.json", "--n", "2"],
        ["marks", "--group", "named:nope"],
        ["marks", "--group", '{"degree":2,"generators":[[0,0]]}'],
        ["marks", "--group", '{"degree":2,"generators":[5]}'],
        ["marks", "--group", '{"degree":2,"generators":5}'],
        ["marks", "--group", '{"degree":"x","generators":[]}'],
        ["marks", "--group", '{"generators":[[1,0]]}'],
        ["annihilator", "--q", '{"nope":1}', "--n", "2"],
        ["annihilator", "--q", '{"atoms":[{"kind":"roots_of_unity"}]}', "--n", "2"],
        ["annihilator", "--q", '{"atoms":[{"kind":"integers","values":[1,1]}]}', "--n", "2"],
        ["annihilator", "--q", "preset:x2k-1:x", "--n", "2"],
        ["spectrum", "--ring", '{"kind":"nope"}'],
        ["spectrum", "--ring", '{"kind":"product_z"}'],
        ["spectrum", "--ring", '{"kind":"product_z","copies":"x"}'],
        ["spectrum", "--ring", '{"kind":"group_ring","factor_orders":[0]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":1}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2],"ideal":[[1]]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"ideal":5}'],
        ["spectrum", "--ring", '{"kind":"burnside","group":"C0"}'],
        ["spectrum", "--ring", '{"kind":"product","left":{"kind":"Z"}}'],
        ["analyze", "--ring", "nope", "--element", "1"],
        # integer fields take exact JSON integers only
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4.7,"factor_orders":[2]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2.5]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2],"ideal":["22"]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2],"ideal":[[2.9,2]]}'],
        ["spectrum", "--ring", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2],"ideal":[[true,1]]}'],
        ["spectrum", "--ring", '{"kind":"group_ring","factor_orders":[true,2]}'],
        ["spectrum", "--ring", '{"kind":"product_z","copies":"3"}'],
        ["spectrum", "--ring", '{"kind":"product_z","copies":true}'],
        ["annihilator", "--q", '{"atoms":[{"kind":"integers","values":[1.5,-1]}]}', "--n", "2"],
        ["annihilator", "--q", '{"atoms":[{"kind":"roots_of_unity","order":4.0}]}', "--n", "2"],
        ["marks", "--group", '{"degree":2,"generators":[[1,0.0]]}'],
        ["marks", "--group", '{"degree":2.0,"generators":[[1,0]]}'],
        # a root spec with no root, as with no atom
        ["annihilator", "--q", '{"atoms":[]}', "--n", "2"],
        ["annihilator", "--q", '{"atoms":[{"kind":"integers","values":[]}]}', "--n", "2"],
        # no prime lies below 2: the maximal families would list none
        ["spectrum", "--ring", "Z", "--primes-up-to", "1"],
        ["spectrum", "--ring", "Z", "--primes-up-to", "0"],
        ["spectrum", "--ring", "Z", "--primes-up-to=-5"],
        ["spectrum", "--ring", "burnside-A5", "--primes-up-to", "-5"],
        # an element has ASCII digits only and a generator after every "*"
        ["analyze", "--ring", "Z4[C2]", "--element", "2*"],
        ["analyze", "--ring", "Z4[C2]", "--element", "1 + 3* + g"],
        ["analyze", "--ring", "Z", "--element", "\u0661\u0662"],
        ["analyze", "--ring", "Z4[C2]", "--element", "\u0662*g"],
        ["analyze", "--ring", "Z", "--element", "9" * 5000],
        # and so has a bundled name, with numbers int() can read
        ["spectrum", "--ring", "Z\u0661\u0662"],
        ["spectrum", "--ring", "Z4[C\u0662]"],
        ["spectrum", "--ring", "Z" + "9" * 5000],
        ["spectrum", "--ring", "Z2[C" + "9" * 5000 + "]"],
        # a misspelled key is refused, not read as an absent one
        ["spectrum", "--ring", UNKNOWN_KEY_RINGS[0]],
        ["spectrum", "--ring", UNKNOWN_KEY_RINGS[1]],
        ["annihilator", "--q", UNKNOWN_KEY_SPECS[0], "--n", "1"],
    ],
)
def test_malformed_input_is_a_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error: ")


@pytest.mark.parametrize(
    "argv, key",
    [(["spectrum", "--ring", ring], key)
     for ring, key in zip(UNKNOWN_KEY_RINGS, ("idael", "modulus", "x"))]
    + [(["annihilator", "--q", spec, "--n", "1"], key)
       for spec, key in zip(UNKNOWN_KEY_SPECS, ("oder", "ordr"))]
    + [(["marks", "--group", '{"degree":2,"generators":[[1,0]],"generator":[[0,1]]}'],
        "generator")],
)
def test_unknown_key_is_a_usage_error_naming_it(capsys, argv, key):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("usage error: ") and err.rstrip().endswith(f"has an unknown key {key!r}")


LARGE_J_RING = (
    '{"kind":"finite_quotient","modulus":8,"factor_orders":[2,2,2],'
    '"ideal":[[1,1,0,0,0,0,0,0],[1,0,1,0,0,0,0,0],[1,0,0,0,1,0,0,0]]}'
)


@pytest.mark.parametrize("ring, element, head", [
    pytest.param("Z[C2xC2]", "1 + g0 - g1", "model: Z[C2xC2]\nelement: 1 - g1 + g0\n"
                 "length: 3\nannihilated by p_3 (degree 4): True\n", id="Z[C2xC2]"),
    pytest.param("Z8[C2]", "3 - 2*g", "model: Z8[C2]\nelement: 3 + 6*g\nlength: 5\n"
                 "annihilated by p_5 (degree 6): True\n", id="Z8[C2]"),
    pytest.param(LARGE_J_RING, "g0 + 2*g1", "model: Z8[C2xC2xC2]/(1 + g2, 1 + g1, 1 + g0)\n"
                 "element: 3*g0*g1*g2\nlength: 3\nannihilated by p_3 (degree 4): True\n",
                 id="large-J"),
    pytest.param('{"kind":"product","left":{"kind":"group_ring","factor_orders":[4]},'
                 '"right":{"kind":"group_ring","factor_orders":[3]}}', "L.g - 2*R.g^2 + L.1",
                 "model: Z[C4]xZ[C3]\nelement: (1 + g | -2*g^2)\nlength: 4\n"
                 "annihilated by p_4 (degree 661): True\n", id="Z[C4]xZ[C3]"),
])
def test_analyze_expands_no_polynomial(capsys, monkeypatch, ring, element, head):
    """`analyze` decides p_n(r) = 0 on T_n: with every cached p_n dropped
    and the expansion refused, it prints the lines it printed when it
    expanded p_n."""
    from aprings import annihilator, cyclotomic

    def refused(roots):
        raise AssertionError("poly_from_roots was called")

    annihilator._poly_of_sumset.cache_clear()
    monkeypatch.setattr(cyclotomic, "poly_from_roots", refused)
    monkeypatch.setattr(annihilator, "poly_from_roots", refused)
    code, out, err = run_cli(capsys, "analyze", "--ring", ring, "--element", element)
    assert (code, err) == (0, "")
    assert out.startswith(head)


# roots mu_15 and {0, 2, 3, 4, 6, 12}: |T_3| = 8103, and p_3 holds about 4e7 bits
SLOW_PRODUCT = (
    '{"kind":"product","left":{"kind":"group_ring","factor_orders":[5,3]},'
    '"right":{"kind":"burnside","group":"C12"}}'
)


def test_analyze_answers_at_once_where_p_n_is_large():
    """Expanding this p_3 took 15-20 s; deciding on T_3 takes well under a
    second.  Run in a child with a timeout, so that a regression fails
    instead of hanging."""
    proc = subprocess.run(
        [sys.executable, "-m", "aprings.cli", "analyze", "--ring", SLOW_PRODUCT,
         "--element=-3*L.g0"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=5,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(
        "model: Z[C5xC3]xBurnside(C12)\nelement: (-3*g0 | 0)\nlength: 3\n"
        "annihilated by p_3 (degree 8103): True\n"
    )


def test_annihilator_refuses_a_large_p_n_before_expanding_it(capsys, monkeypatch):
    from aprings import annihilator

    def refused(*args):
        raise AssertionError("p_n was expanded")

    monkeypatch.setattr(annihilator, "_poly_of_sumset", refused)
    spec = json.dumps({"atoms": [{"kind": "roots_of_unity", "order": 15},
                                 {"kind": "integers", "values": [0, 2, 3, 4, 6, 12]}]})
    code, out, err = run_cli(capsys, "annihilator", "--q", spec, "--n", "3")
    assert (code, out) == (3, "")
    assert err == (
        "resource bound exceeded: p_3 exceeds the limit MAX_POLY_BITS = 67108864: "
        "its 8104 coefficients are predicted to hold up to 459675088 bits\n"
    )


def test_analyze_answers_on_a_small_ring_with_a_large_j(capsys):
    # J has 2^21 elements and R 8: `length` walks R
    code, out, err = run_cli(capsys, "analyze", "--ring", LARGE_J_RING, "--element", "g0")
    assert (code, err) == (0, "")
    assert "model: Z8[C2xC2xC2]/(1 + g2, 1 + g1, 1 + g0)\n" in out
    assert "length: 1\n" in out


@pytest.mark.parametrize("k, code, message", [
    ("\u0661", 2, "usage error: k must be a nonnegative integer, got '\u0661'"),
    ("9" * 5000, 2, "usage error: a k of 5000 digits is too long to read"),
    ("1025", 3, "resource bound exceeded: k = 1025 exceeds the limit max_preset_k = 1024"),
], ids=["non-ascii", "too-long", "past-the-bound"])
@pytest.mark.parametrize("preset", ["x2k-1", "pfister"])
def test_preset_k_is_read_from_ascii_digits_and_bounded(capsys, preset, k, code, message):
    """K is checked before 2^K is built: a K past max_preset_k is
    refused from its digits."""
    assert run_cli(capsys, "annihilator", "--q", f"preset:{preset}:{k}", "--n", "1") == (
        code, "", message + "\n"
    )


def test_root_of_unity_order_past_the_cap_is_refused_before_it_is_factored():
    """phi(m) >= sqrt(m/2), so an order above 2 * 64^2 = 8192 is refused
    at once, not after trial division up to sqrt(m).  Run in a child with
    a timeout, so that a regression fails instead of hanging."""
    spec = '{"atoms":[{"kind":"roots_of_unity","order":100000000000000003}]}'
    proc = subprocess.run(
        [sys.executable, "-m", "aprings.cli", "annihilator", "--q", spec, "--n", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (
        "resource bound exceeded: deg Phi_m exceeds the limit max_cyclotomic_degree = 64: "
        "the order m = 100000000000000003 is above 8192, and phi(m) >= sqrt(m/2)\n"
    )


@pytest.mark.parametrize("ring, order", [
    ('{"kind":"group_ring","factor_orders":[3000]}', 3000),
    ('{"kind":"finite_quotient","modulus":2,"factor_orders":[2,2,2,2,2,2,2,2,2,2]}', 1024),
    ('{"kind":"product","left":{"kind":"Z"},"right":{"kind":"group_ring","factor_orders":[513]}}', 513),
])
def test_group_ring_past_the_order_cap_exits_3_at_once(capsys, monkeypatch, ring, order):
    """Refused before the group is listed, so before any of the |G|^2
    structure constants is built."""
    from aprings.groups import FiniteAbelianGroup

    def listed(self):
        raise AssertionError("the group was listed")

    monkeypatch.setattr(FiniteAbelianGroup, "elements", listed)
    code, out, err = run_cli(capsys, "analyze", "--ring", ring, "--element", "1")
    assert (code, out) == (3, "")
    assert err == (
        f"resource bound exceeded: |G| = {order} exceeds the limit "
        "MAX_GROUP_RING_ORDER = 512 of a group ring\n"
    )


def test_stdout_closed_by_its_reader_ends_without_a_traceback():
    """`aprings ... | head -1` after head has exited: the write fails
    with EPIPE, and the command exits 141 (128 + SIGPIPE) with nothing
    on stderr.  The pipe's read end is closed before the child starts."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "aprings.cli", "spectrum", "--ring", "burnside-A5",
             "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.BROKEN_PIPE, b"")
    assert cli.BROKEN_PIPE == 141


@pytest.mark.parametrize("ring", ["Z4[C2]", '{"kind":"finite_quotient","modulus":4,"factor_orders":[2]}'])
def test_fault_while_building_a_model_is_internal(capsys, monkeypatch, ring):
    def broken(*args):
        raise KeyError("missing coset representative")

    monkeypatch.setattr("aprings.rings._hermite_rows", broken)
    bundled_model.cache_clear()  # so that the named ring is built again
    code, _, err = run_cli(capsys, "spectrum", "--ring", ring)
    assert code == 1
    assert err == "internal error: KeyError: 'missing coset representative'\n"


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize(
    "env, argv",
    [
        ("APRINGS_MAX_SUMSET", ["annihilator", "--q", "preset:x2-1", "--n", "3"]),
        ("APRINGS_MAX_CARRIER", ["spectrum", "--ring", "Z4[C2]"]),
    ],
)
def test_malformed_limit_variable_is_a_usage_error(capsys, monkeypatch, env, argv, value):
    monkeypatch.setenv(env, value)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err == f"usage error: {env} must be a positive integer, got {value!r}\n"


def test_fault_while_closing_a_group_is_internal(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("orbit table entry")

    monkeypatch.setattr("aprings.groups.close_group", broken)
    code, _, err = run_cli(capsys, "marks", "--group", '{"degree":2,"generators":[[1,0]]}')
    assert code == 1
    assert err == "internal error: KeyError: 'orbit table entry'\n"


def test_internal_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("missing table entry")

    monkeypatch.setattr("aprings.cli.spectrum_report", broken)
    code, _, err = run_cli(capsys, "spectrum", "--ring", "Z")
    assert code == 1
    assert err.startswith("internal error: KeyError")


def test_inline_json_group(capsys):
    code, out, _ = run_cli(
        capsys, "marks", "--group", '{"degree":2,"generators":[[1,0]]}', "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["marks"] == [[2, 0], [1, 1]]


def test_json_quotient_over_the_trivial_group_is_named_like_the_bundled_one(capsys):
    """A finite quotient over the trivial group is Z{N}, not Z{N}[C1]."""
    for orders in ([], [1]):
        spec = json.dumps({"kind": "finite_quotient", "modulus": 2, "factor_orders": orders})
        for command in (["spectrum"], ["analyze", "--element", "1"]):
            built = run_cli(capsys, *command, "--ring", spec, "--format", "text")
            assert built == run_cli(capsys, *command, "--ring", "Z2", "--format", "text")
    product = {
        "kind": "product",
        "left": {"kind": "finite_quotient", "modulus": 2},
        "right": {"kind": "finite_quotient", "modulus": 3},
    }
    code, out, _ = run_cli(capsys, "spectrum", "--ring", json.dumps(product), "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "model: Z2xZ3"


def reference_parser() -> argparse.ArgumentParser:
    """All five subparsers, each built by hand: the parser that
    `cli.build_parser` must act like on every argv."""
    parser = argparse.ArgumentParser(
        prog="aprings",
        description="Annihilating polynomials and structure theory for AP rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annihilator", help="construct an annihilating polynomial")
    p.add_argument("--q", required=True, help="root spec: preset:NAME, JSON, or @file")
    p.add_argument("--n", type=int, required=True, help="number of summands")
    p.add_argument("--mode", choices=["signed", "unsigned"], default=None)
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cli.cmd_annihilator)

    p = sub.add_parser("marks", help="compute a table of marks")
    p.add_argument("--group", required=True, help=f"named:NAME ({', '.join(named_group_names())}), JSON, or @file")
    p.add_argument("--check-paper", action="store_true", dest="check_paper",
                   help="compare against the bundled A5 reference table")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cli.cmd_marks)

    p = sub.add_parser("spectrum", help="prime spectrum report")
    p.add_argument("--ring", required=True, help="preset:NAME, JSON, or @file")
    p.add_argument("--primes-up-to", type=int, default=LISTED_PRIME_BOUND)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cli.cmd_spectrum)

    p = sub.add_parser("analyze", help="length, annihilation and predicates of an element")
    p.add_argument("--ring", required=True)
    p.add_argument("--element", required=True, help='e.g. "2*g0 - 3*g1 + 1"')
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cli.cmd_analyze)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    p.add_argument("--suite", choices=["paper"], required=True)
    p.add_argument("--filter", default=None, help="only run checks whose name contains this")
    p.set_defaults(func=cli.cmd_verify)

    return parser


def _parse(parse_args, argv):
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["-h", "analyze"],
        ["annihilator", "-h"],
        ["marks", "--help"],
        ["spectrum", "-h"],
        ["analyze", "-h"],
        ["verify", "-h"],
        ["bogus"],
        ["ana", "--ring", "Z"],
        ["--format", "json"],
        ["marks"],
        ["analyze", "--ring", "Z", "--element=1", "--extra"],
        ["verify", "--suite", "paper", "stray"],
        ["annihilator", "--q", "preset:x2-1", "--n", "three"],
        ["annihilator", "--q", "preset:x2-1", "--n", "2", "--mode", "both"],
        ["verify", "--suite", "nope"],
        ["spectrum", "--ring", "Z", "--primes-up-to", "x"],
        ["annihilator", "--q", "preset:x2-1", "--n", "3"],
        ["annihilator", "--q", "preset:x4-1", "--n", "2", "--mode", "unsigned", "--closed-form",
         "--format", "json"],
        ["marks", "--group", "named:A5", "--check-paper"],
        ["spectrum", "--ring", "Z4[C2]", "--primes-up-to", "7", "--format", "json"],
        ["analyze", "--ring", "Z[C2]", "--element=-g"],
        ["verify", "--suite", "paper", "--filter", "marks"],
    ],
)
def test_build_parser_matches_the_five_subparser_reference(argv):
    expected = _parse(reference_parser().parse_args, argv)
    assert _parse(cli.build_parser().parse_args, argv) == expected
    assert _parse(cli.parse_args, argv) == expected


OPTION_NAMES = sorted({option.flag for command in cli.COMMANDS.values() for option in command.options})
VALUES = ("", "-1", "-g", "json", "three", "3", "paper", "named:S3", "a=b", "--n")
FAULTS = ("value", "bare", "drop", "abbreviated", "unknown", "foreign", "help", "stray")


def _valid(option) -> tuple[str, ...]:
    if option.choices:
        return option.choices
    return ("3", "0", " 7") if option.type is int else ("preset:x2-1", "Z[C2]", "1")


@st.composite
def argvs(draw):
    """A command name, mostly a real one, with its required options and
    some others in any order, each given exactly, with a value it takes
    after "=" or as the next token; then, half the time, one fault: a
    value drawn from VALUES, a missing value or option, an abbreviated,
    unknown or foreign option, `-h` or `--help`, or a stray token."""
    name = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["ana", "bogus", "-h", "--help"]))
    options = cli.COMMANDS.get(name, cli.COMMANDS["annihilator"]).options

    def tokens(option, flag=None, value=None):
        flag = flag or option.flag
        value = draw(st.sampled_from(_valid(option))) if value is None else value
        if option.store_true:
            return [flag]
        return [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]

    groups = [tokens(option) for option in options if option.required or draw(st.booleans())]
    fault = draw(st.sampled_from((None,) * len(FAULTS) + FAULTS))
    option = draw(st.sampled_from(options))
    if fault == "value":
        value = draw(st.sampled_from(VALUES))
        groups.append([f"{option.flag}={value}"] if option.store_true else tokens(option, value=value))
    elif fault == "bare":
        groups.append([option.flag])
    elif fault == "drop" and groups:
        del groups[draw(st.integers(0, len(groups) - 1))]
    elif fault == "abbreviated":
        groups.append(tokens(option, option.flag[:draw(st.integers(2, len(option.flag) - 1))]))
    elif fault in ("unknown", "foreign"):
        names = ["--nope", "-q", "--closed", "--"] if fault == "unknown" else OPTION_NAMES
        groups.append(tokens(option, draw(st.sampled_from(names))))
    elif fault in ("help", "stray"):
        groups.append([draw(st.sampled_from(["-h", "--help"] if fault == "help" else VALUES))])
    return [name] + [token for group in draw(st.permutations(groups)) for token in group]


@settings(max_examples=500)
@given(argvs())
def test_direct_reader_agrees_with_argparse_wherever_it_reads(argv):
    args = cli._read(argv)
    if args is not None:
        assert _parse(reference_parser().parse_args, argv) == ("", "", None, vars(args))


def _workloads():
    """perfbench/workloads.py, loaded as a file so that the benchmark's
    directory needs no package marker."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def readme_examples() -> list[list[str]]:
    """The argv of every `aprings` call in the README's command-line examples."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    calls = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in calls if line.startswith("aprings ")]


def test_every_benchmark_and_readme_call_is_read_directly():
    calls = _workloads().all_ops() + readme_examples()
    assert len(calls) > 200
    for argv in calls:
        args = cli._read(argv)
        assert args is not None, argv
        assert vars(args) == vars(reference_parser().parse_args(argv))


def test_a_well_formed_call_imports_no_argparse():
    code = (
        "import sys\n"
        "from aprings.cli import main\n"
        "code = main(['marks', '--group', 'named:S3'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_the_package_loads_only_the_modules_it_is_asked_for():
    """`import aprings` loads no submodule, as the package re-exports
    nothing; `import aprings.groups` loads none of the ring, polynomial
    or command modules, nor `decimal`; and `import aprings.cli` loads no
    `decimal`, which only printing past the int-to-str limit needs."""
    code = (
        "import sys\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('aprings.') or m == 'decimal')\n"
        "import aprings\n"
        "print(*loaded())\n"
        "import aprings.groups\n"
        "print(*loaded())\n"
        "import aprings.cli\n"
        "print(*loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    package, groups, cli_loaded = proc.stdout.split("\n")[:3]
    assert package == ""
    heavy = {f"aprings.{name}" for name in
             ("annihilator", "rings", "spectrum", "oracle", "verification", "cli",
              "cyclotomic", "intpoly")} | {"decimal"}
    assert "aprings.groups" in groups.split()
    assert heavy.isdisjoint(groups.split())
    assert "aprings.cli" in cli_loaded.split()
    assert "decimal" not in cli_loaded.split()


def written(payload) -> str:
    parts = []
    cli._json_parts(payload, "", parts)
    return "".join(parts)


def stdlib_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


ROOT = Path(__file__).resolve().parents[1]


def test_json_writer_matches_the_stdlib_on_every_golden_json_case():
    golden = json.loads((ROOT / "tests" / "golden_outputs.json").read_text())
    payloads = [
        json.loads(case["stdout"])
        for cases in golden["cli"].values()
        for case in cases
        if case["stdout"]
    ]
    assert len(payloads) > 250
    for payload in payloads:
        assert written(payload) == stdlib_json(payload)


def test_json_writer_matches_the_stdlib_on_every_benchmark_payload(monkeypatch, capsys):
    """The payloads themselves, tuples and all, of every operation the
    benchmark's workloads can run."""
    workloads = _workloads()
    payloads = []
    monkeypatch.setattr(cli, "_emit_json", payloads.append)
    monkeypatch.chdir(ROOT)
    ops = [op for op in workloads.all_ops() if op[0] != "verify"]
    for op in ops:
        assert main(op) == 0, op
    capsys.readouterr()
    assert len(payloads) == len(ops)
    for payload in payloads:
        assert written(payload) == stdlib_json(payload)


json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.text(), max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


@given(json_trees)
def test_json_writer_matches_the_stdlib_on_random_trees(payload):
    assert written(payload) == stdlib_json(payload)


# lists of string lists, the shape of a sum set's elements, next to
# empty rows, tuples, non-string items and non-list rows
row_items = st.one_of(st.text(), st.integers(), st.none())
string_rows = st.lists(
    st.one_of(
        st.lists(st.text(), min_size=1, max_size=3),
        st.lists(st.text(), max_size=3),
        st.lists(row_items, min_size=1, max_size=3),
        st.tuples(st.text()),
        st.text(),
    ),
    min_size=1,
    max_size=4,
)


@given(string_rows, st.text(max_size=2))
def test_json_writer_matches_the_stdlib_on_string_rows(rows, key):
    assert written(rows) == stdlib_json(rows)
    assert written({key: [rows]}) == stdlib_json({key: [rows]})


@pytest.mark.parametrize("payload", [1.5, {"a": [0.0]}, {1: "one"}, {"a": {2, 3}}, [["x", 0.5]]])
def test_json_writer_refuses_what_no_payload_holds(payload):
    with pytest.raises(TypeError):
        written(payload)
