"""Operation lists of the benchmark workloads.

An operation is the argument list of one ``aprings`` command-line call.
The lists depend only on the workload name, the seed and the tiny flag;
they never import ``aprings``, so building them costs no layer work.
``golden.json`` holds the expected output digest of every operation any
seed can produce (see ``make_golden.py``).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("verify-paper", "annihilator-grid", "structure")

# (m, n) points of the annihilator grid.  (16, 3) is the only point with
# phi(m) = 8 and (5, 3) the only odd m.
GRID = ((8, 4), (8, 5), (16, 2), (16, 3), (12, 2), (12, 3), (12, 4), (5, 3))

NAMED_GROUPS = (
    "trivial", "C2", "C3", "C4", "C5", "C6", "V4", "S3", "D8", "D10", "A4", "S4", "A5",
)
# Permutation groups passed as @file: D12 on 6 points, AGL(1,5) on 5
# points and C4 x C4 on 8 points.
FILE_GROUPS = ("d12", "agl1_5", "c4xc4")

# The 256-element carriers are left out: one spectrum call on them takes
# several seconds and would swamp the table-of-marks share.
SPECTRUM_RINGS = ("burnside-A5", "burnside-S4", "Z8[C2]", "Z9[C2]", "Z3[C2xC2]", "Z12[C2]")

# Generator labels of the rings whose elements `analyze` gets, hard-coded
# so that building the inputs needs no ring model.
ANALYZE_RINGS = {
    "Z8[C2]": ("1", "g"),
    "Z9[C2]": ("1", "g"),
    "Z3[C2xC2]": ("1", "g0", "g1", "g0*g1"),
    "Z12[C2]": ("1", "g"),
    "Z[C2xC2]": ("1", "g0", "g1", "g0*g1"),
}
POOL_SIZE = 32      # elements per ring that have a golden digest
PER_SEED = 8        # elements per ring that one seed picks from the pool


def annihilator_op(m: int, n: int) -> list[str]:
    spec = json.dumps({"atoms": [{"kind": "roots_of_unity", "order": m}]})
    return ["annihilator", "--q", spec, "--n", str(n), "--format", "json"]


def pool_element(ring: str, index: int) -> str:
    """Element `index` of the ring's pool: a short integer combination of
    its generators, fixed by (ring, index) alone."""
    rng = random.Random(f"{ring}#{index}")
    labels = ANALYZE_RINGS[ring]
    terms = []
    for label in rng.sample(labels, rng.randint(1, len(labels))):
        coeff = rng.choice((-2, -1, 1, 2))
        terms.append(f"{coeff}*{label}")
    return " + ".join(terms).replace("+ -", "- ")


def analyze_op(ring: str, element: str) -> list[str]:
    # `--element=` keeps argparse from reading a leading '-' as an option.
    return ["analyze", "--ring", ring, f"--element={element}", "--format", "json"]


def marks_ops() -> list[list[str]]:
    ops = [["marks", "--group", f"named:{g}", "--format", "json"] for g in NAMED_GROUPS]
    ops += [["marks", "--group", f"@perfbench/inputs/{g}.json", "--format", "json"] for g in FILE_GROUPS]
    return ops


def build(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The operations of one pass over the workload, in run order."""
    rng = random.Random(seed)
    if workload == "verify-paper":
        if tiny:
            return [["verify", "--suite", "paper", "--filter", "lewis"]]
        return [["verify", "--suite", "paper"]]
    if workload == "annihilator-grid":
        if tiny:
            return [annihilator_op(5, 2)]
        points = list(GRID)
        rng.shuffle(points)
        return [annihilator_op(m, n) for m, n in points]
    if workload == "structure":
        if tiny:
            return [
                ["marks", "--group", "named:S3", "--format", "json"],
                ["spectrum", "--ring", "Z8[C2]", "--format", "json"],
                analyze_op("Z8[C2]", pool_element("Z8[C2]", 0)),
            ]
        ops = marks_ops()
        ops += [["spectrum", "--ring", r, "--format", "json"] for r in SPECTRUM_RINGS]
        for ring in ANALYZE_RINGS:
            for index in sorted(rng.sample(range(POOL_SIZE), PER_SEED)):
                ops.append(analyze_op(ring, pool_element(ring, index)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def all_ops() -> list[list[str]]:
    """Every operation any seed or the tiny mode can produce."""
    ops = [["verify", "--suite", "paper"]]
    ops += [annihilator_op(m, n) for m, n in GRID]
    ops += marks_ops()
    ops += [["spectrum", "--ring", r, "--format", "json"] for r in SPECTRUM_RINGS]
    for ring in ANALYZE_RINGS:
        ops += [analyze_op(ring, pool_element(ring, i)) for i in range(POOL_SIZE)]
    for workload in WORKLOADS:
        ops += [op for op in build(workload, 0, tiny=True) if op not in ops]
    return ops


def op_key(argv: list[str]) -> str:
    return json.dumps(argv)
