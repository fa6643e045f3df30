"""`spectrum.py` asks the model, never its class.

Each model kind answers `predicates(r)` itself, and a free model lists
its signatures as its integer-valued ghost columns, so a new strategy
is one method on one class.  This guard fails if
`spectrum.py` imports a concrete model class or tests an object's type
against one; it reads the source, the way `test_dead_surface.py` does.
Likewise a model's roots are read through its root spec: neither
`rings.py` nor `spectrum.py` reads a field of a `RootSpec`, only its
constructors and methods, so the format of the roots stays inside
`annihilator.py`.
"""

import ast
from dataclasses import fields
from pathlib import Path

import pytest

from aprings import rings
from aprings.annihilator import RootSpec

SOURCES = Path(__file__).resolve().parent.parent / "src" / "aprings"
SPECTRUM = SOURCES / "spectrum.py"

MODEL_CLASSES = {
    name
    for name, obj in vars(rings).items()
    if isinstance(obj, type) and issubclass(obj, rings.RingModel) and obj is not rings.RingModel
}
# The Dress relations are a statement about Burnside rings and take one
# as their argument type; nothing branches on it.
ARGUMENT_TYPES = {"BurnsideModel"}


def _names(node) -> set:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _imported(tree) -> set:
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_spectrum_imports_no_concrete_model_class():
    tree = ast.parse(SPECTRUM.read_text())
    imported = _imported(tree)
    assert {"FreeRing", "ProductRing", "FiniteQuotientRing"} <= MODEL_CLASSES
    assert imported & MODEL_CLASSES <= ARGUMENT_TYPES


def test_spectrum_does_not_switch_on_model_classes():
    tree = ast.parse(SPECTRUM.read_text())
    switches = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass", "type")
        and any(_names(arg) & (MODEL_CLASSES | {"model"}) for arg in node.args)
    ]
    assert switches == [], f"spectrum.py switches on a model's class at lines {switches}"


@pytest.mark.parametrize("module", ["rings.py", "spectrum.py"])
def test_models_read_their_roots_through_the_root_spec(module):
    tree = ast.parse((SOURCES / module).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    spec_fields = {field.name for field in fields(RootSpec)}
    assert spec_fields == {"mu", "ints"}
    assert not read & spec_fields
