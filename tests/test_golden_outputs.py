"""Recorded outputs of the command line and of the free-model structure.

For every bundled preset (the free presets, ``burnside-<g>`` for every
named group, every finite bundled model) and one product JSON spec, the
data file holds the exact stdout, stderr and exit code of
``aprings spectrum --format json`` and of ``aprings analyze --format
json`` on a few fixed elements.  For the free presets it also holds
the minimal primes (the kernels of the ghost columns) as JSON and the signatures (labels and values),
or the error they raise.  A second data file holds the same for the
``--format text`` output: ``spectrum`` and ``analyze`` on the same rings
and elements, ``annihilator`` on the bundled presets and on mixed JSON
specs, and ``marks`` for V4 and A5.  The tests replay every case and
compare.

The data files are a reference: regenerate them only for an intended
output change, with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from aprings.cli import main
from aprings.groups import named_group_names
from aprings.rings import FINITE_BUNDLED, bundled_model, construct_model
from aprings.spectrum import ghost_kernel

DATA = Path(__file__).with_name("golden_outputs.json")
TEXT_DATA = Path(__file__).with_name("golden_text_outputs.json")

FREE_PRESETS = ["Z", "Z^3", "Z[C2]", "Z[C2xC2]", "Z[C4]"] + [
    f"burnside-{g}" for g in named_group_names()
]
PRODUCT_SPEC = json.dumps(
    {"kind": "product", "left": {"kind": "Z"}, "right": {"kind": "group_ring", "factor_orders": [2]}}
)
RINGS = FREE_PRESETS + list(FINITE_BUNDLED) + [PRODUCT_SPEC]


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def sample_elements(ring: str) -> list[str]:
    """A few short elements (length at most 3) named by the model's own
    generator labels."""
    model = construct_model(json.loads(ring)) if ring.startswith("{") else bundled_model(ring)
    labels = [label for label, _ in model.generators()]
    first, last = labels[0], labels[-1]
    return ["0", "1", "-1", "3", first, f"-{last}", f"{first} - {last}",
            f"{first} + {last}", f"2*{last} + 1"]


def cli_cases(ring: str) -> list[dict]:
    cases = [run_cli(["spectrum", "--ring", ring, "--format", "json"])]
    for element in sample_elements(ring):
        cases.append(run_cli(["analyze", "--ring", ring, f"--element={element}", "--format", "json"]))
    return cases


def mixed_spec(*atoms) -> str:
    return json.dumps({"atoms": list(atoms)})


INTEGERS_0_2 = {"kind": "integers", "values": [0, 2]}
ANNIHILATOR_ARGS = [
    ["--q", "preset:x2-1", "--n", "3"],
    ["--q", "preset:x4-1", "--n", "2"],
    ["--q", "preset:x2k-1:3", "--n", "2"],
    ["--q", "preset:pfister:2", "--n", "3", "--closed-form"],
    ["--q", mixed_spec(INTEGERS_0_2, {"kind": "roots_of_unity", "order": 3}), "--n", "2"],
    ["--q", mixed_spec(INTEGERS_0_2, {"kind": "roots_of_unity", "order": 6}), "--n", "2"],
    # mu_3 and mu_6 share their roots: a usage error
    ["--q", mixed_spec({"kind": "roots_of_unity", "order": 3},
                       {"kind": "roots_of_unity", "order": 6}), "--n", "2"],
]


def text_cases(key: str) -> list[dict]:
    """The text-format runs recorded under `key`: "annihilator", "marks"
    or one of RINGS."""
    if key == "annihilator":
        return [run_cli(["annihilator", *args, "--format", "text"]) for args in ANNIHILATOR_ARGS]
    if key == "marks":
        return [run_cli(["marks", "--group", f"named:{g}", "--format", "text"]) for g in ("V4", "A5")]
    cases = [run_cli(["spectrum", "--ring", key, "--format", "text"])]
    for element in sample_elements(key):
        cases.append(run_cli(["analyze", "--ring", key, f"--element={element}", "--format", "text"]))
    return cases


TEXT_KEYS = ["annihilator", "marks"] + RINGS


def _recorded(func):
    try:
        return func()
    except Exception as exc:  # the error is part of the recorded output
        return {"error": f"{type(exc).__name__}: {exc}"}


def free_structure(name: str) -> dict:
    model = bundled_model(name)
    return {
        "minimal_primes": _recorded(
            lambda: [ghost_kernel(col).to_json() for col in model.ghost]
        ),
        "signatures": _recorded(
            lambda: [[sig.label, list(sig.values)] for sig in model.signatures()]
        ),
    }


def collect() -> dict:
    return {
        "cli": {ring: cli_cases(ring) for ring in RINGS},
        "free": {name: free_structure(name) for name in FREE_PRESETS},
    }


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else {"cli": {}, "free": {}}
GOLDEN_TEXT = json.loads(TEXT_DATA.read_text()) if TEXT_DATA.exists() else {}


def test_every_preset_is_recorded():
    assert sorted(GOLDEN["cli"]) == sorted(RINGS)
    assert sorted(GOLDEN["free"]) == sorted(FREE_PRESETS)
    assert sorted(GOLDEN_TEXT) == sorted(TEXT_KEYS)


@pytest.mark.parametrize("ring", RINGS)
def test_cli_output_unchanged(ring):
    for case in GOLDEN["cli"][ring]:
        assert run_cli(case["argv"]) == case


@pytest.mark.parametrize("name", FREE_PRESETS)
def test_free_structure_unchanged(name):
    assert free_structure(name) == GOLDEN["free"][name]


@pytest.mark.parametrize("key", TEXT_KEYS)
def test_text_output_unchanged(key):
    for case in GOLDEN_TEXT[key]:
        assert run_cli(case["argv"]) == case


if __name__ == "__main__":
    DATA.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    TEXT_DATA.write_text(
        json.dumps({key: text_cases(key) for key in TEXT_KEYS}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {DATA} and {TEXT_DATA}")
