"""An in-process fuzz of `spectrum` and `analyze`.

Hypothesis draws JSON ring descriptions of every kind (products nested
to depth 2, moduli and factor orders invalid ones included, `ideal`
rows of the right and of the wrong length, named and unknown Burnside
groups) and element strings made of the model's own labels and of junk
tokens.  Every call must end the way the command line promises: exit 0,
2 (usage error) or 3 (resource bound), or 1 with an `error:` line for a
package error such as "no spectrum classification"; never an internal
error or an uncaught exception, and within the deadline.
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
    return spec


ATOMS = st.one_of(
    st.just({"kind": "Z"}),
    st.builds(lambda k: {"kind": "product_z", "copies": k}, st.integers(-1, 4)),
    st.builds(lambda o: {"kind": "group_ring", "factor_orders": o}, ORDERS),
    st.builds(lambda g: {"kind": "burnside", "group": g}, BURNSIDE_GROUPS),
    quotients(),
    st.just({"kind": "nope"}),
)


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
        code = main(argv)
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
