"""An in-process fuzz of `spectrum`, `analyze` and `annihilator`.

Hypothesis draws JSON ring descriptions of every kind (products nested
to depth 2, moduli and factor orders invalid ones included, `ideal`
rows of the right and of the wrong length, named and unknown Burnside
groups, now and then a misspelled key) and element strings made of the
model's own labels and of junk tokens; and root specs: presets with
junk, non-ASCII, long and large K, and JSON specs of `integers` and
`roots_of_unity` atoms, orders past the cap and malformed atoms
(misspelled keys too) included, with `--n`, `--mode` and
`--closed-form`.  Every call must end the way the command line
promises: exit 0, 2 (usage error) or 3 (resource bound), or 1 with an
`error:` line for a package error such as "no spectrum classification";
never an internal error or an uncaught exception, and within the
deadline.  An accepted root spec is kept small (n <= 3, at most 3
integer roots, orders up to 12), so that no p_n takes long to expand.
"""

import contextlib
import io
import json
from math import prod

from hypothesis import given, settings, strategies as st

from aprings.cli import main
from aprings.errors import ApringsError
from aprings.groups import named_group_names
from aprings.rings import construct_model

ORDERS = st.lists(st.integers(-1, 6), max_size=2)
BURNSIDE_GROUPS = st.sampled_from(named_group_names() + ["C12", "C0", "c4", "C", "nope"])
MISSPELLED = st.sampled_from(["idael", "modulo", "factor_order", "copy", "lefts", "Kind"])


@st.composite
def quotients(draw):
    orders = draw(ORDERS)
    dim = prod(orders) if all(o > 0 for o in orders) else 1
    # rows of the right length, or one coordinate short or long
    length = st.sampled_from([dim, dim, dim - 1, dim + 1]).filter(lambda n: n >= 0)
    rows = st.lists(length.flatmap(lambda n: st.lists(st.integers(-3, 9), min_size=n, max_size=n)),
                    max_size=2)
    spec = {"kind": "finite_quotient", "modulus": draw(st.integers(-1, 9)), "factor_orders": orders}
    if draw(st.booleans()):
        spec["ideal"] = draw(rows)
    if draw(st.integers(0, 4)) == 0:
        spec[draw(MISSPELLED)] = draw(rows)
    return spec


def sometimes_misspelled(specs):
    typo = st.builds(lambda spec, key: {**spec, key: 1}, specs, MISSPELLED)
    return st.one_of(specs, specs, specs, typo)


ATOMS = sometimes_misspelled(st.one_of(
    st.just({"kind": "Z"}),
    st.builds(lambda k: {"kind": "product_z", "copies": k}, st.integers(-1, 4)),
    st.builds(lambda o: {"kind": "group_ring", "factor_orders": o}, ORDERS),
    st.builds(lambda g: {"kind": "burnside", "group": g}, BURNSIDE_GROUPS),
    quotients(),
    st.just({"kind": "nope"}),
))


def products(factors):
    pair = st.builds(lambda a, b: {"kind": "product", "left": a, "right": b}, factors, factors)
    return st.one_of(factors, pair)


RINGS = products(products(ATOMS))  # nested to depth 2
JUNK = ["*", "+", "-", "g^2", "3*", "2", "0", "x", "1*"]


def labels_of(spec) -> list[str]:
    try:
        return [label for label, _ in construct_model(spec).generators()]
    except ApringsError:
        return []


def run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused an option value
            code = exc.code
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2, 3), (code, err)
    assert not err.startswith("internal error"), err
    if code == 1:
        assert err.startswith("error: "), err


@settings(max_examples=400, deadline=2000)
@given(RINGS, st.data())
def test_spectrum_and_analyze_end_cleanly_on_random_input(spec, data):
    ring = json.dumps(spec)
    assert_clean_exit(*run(["spectrum", "--ring", ring]))
    tokens = st.sampled_from(labels_of(spec) + JUNK)
    terms = st.lists(st.tuples(st.sampled_from(["", "-", "2*", "-3*"]), tokens), min_size=1, max_size=3)
    element = " + ".join(sign + token for sign, token in data.draw(terms))
    assert_clean_exit(*run(["analyze", "--ring", ring, "--element", element]))


PRESET_K = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(8, 20).map(str),  # x2k-1 past the degree or the order cap
    st.integers(1020, 1030).map(str),  # around max_preset_k
    st.integers(10**20, 10**60).map(str),
    st.sampled_from(["9" * 5000, "0" * 5000 + "2", "", "x", "-1", "+2", "1.0", " 2", "2:3",
                     "\u0661", "\uff13", "\U0001d7d9"]),
    st.text(max_size=3),
)
PRESETS = st.one_of(
    st.builds("preset:{}:{}".format, st.sampled_from(["x2k-1", "pfister"]), PRESET_K),
    st.sampled_from(["preset:x2-1", "preset:x4-1", "x4-1", "preset:x2-1:1", "preset:nope"]),
)
ORDERS_OF_UNITY = st.one_of(
    st.integers(1, 12),
    # past the order cap, refused before it is factored; a prime is the slowest to factor
    st.integers(8193, 10**20),
    st.sampled_from([8209, 2**61 - 1, 100000000000000003]),
    st.sampled_from([0, -1, 101, 8192, 2.5, "3", True, None]),
)
INTEGER_ROOTS = st.sampled_from([-4, -3, -2, -1, 0, 1, 2, 3, 4, 10**30, -(2**70)])
MALFORMED_ATOMS = st.sampled_from([
    {"kind": "roots_of_unity"},
    {"kind": "integers"},
    {"kind": "integers", "values": "x"},
    {"kind": "integers", "values": [1.5]},
    {"kind": "roots_of_unity", "order": 4, "oder": 8},
    {"kind": "integers", "values": [1], "value": [2]},
    {"kind": "nope"},
    "atom",
])


@st.composite
def root_specs(draw):
    """A JSON root spec: at most one roots_of_unity atom and at most 3
    integer roots in up to two atoms, or a malformed atom or spec."""
    atoms = []
    if draw(st.booleans()):
        atoms.append({"kind": "roots_of_unity", "order": draw(ORDERS_OF_UNITY)})
    values = draw(st.lists(INTEGER_ROOTS, max_size=3, unique=True))
    cut = draw(st.integers(0, len(values)))
    atoms += [{"kind": "integers", "values": part} for part in (values[:cut], values[cut:]) if part]
    if draw(st.integers(0, 4)) == 0:
        atoms.insert(draw(st.integers(0, len(atoms))), draw(MALFORMED_ATOMS))
    spec = draw(st.sampled_from([{"atoms": atoms}] * 8 + [{"atoms": "x"}, atoms, {}]))
    return json.dumps(spec)


@settings(max_examples=300, deadline=2000)
@given(
    st.one_of(PRESETS, root_specs()),
    st.sampled_from([1, 2, 3] * 3 + [0, -1, 9]),
    st.sampled_from([None] * 4 + ["signed", "unsigned", "both"]),
    st.sampled_from([False] * 3 + [True]),
    st.sampled_from(["text", "json"]),
)
def test_annihilator_ends_cleanly_on_random_input(q, n, mode, closed_form, fmt):
    argv = ["annihilator", "--q", q, "--n", str(n), "--format", fmt]
    if mode is not None:
        argv += ["--mode", mode]
    if closed_form:
        argv.append("--closed-form")
    assert_clean_exit(*run(argv))
