"""`spectrum.py` asks the model, never its class.

Each model kind answers `signatures()` and `predicates(r)` itself, so a
new strategy is one method on one class.  This guard fails if
`spectrum.py` imports a concrete model class or tests an object's type
against one; it reads the source, the way `test_dead_surface.py` does.
"""

import ast
from pathlib import Path

from aprings import rings

SPECTRUM = Path(__file__).resolve().parent.parent / "src" / "aprings" / "spectrum.py"

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


def test_spectrum_imports_no_concrete_model_class():
    tree = ast.parse(SPECTRUM.read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
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
