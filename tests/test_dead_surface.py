"""No library function or method that only the tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "aprings"
CALLERS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def caller_trees() -> dict:
    """path -> syntax tree of every file that may call the package: the
    package, `scripts/` and `perfbench/`, but no file under a `tests/`
    directory (`perfbench/tests`)."""
    return {
        path: ast.parse(path.read_text())
        for root in CALLERS
        for path in root.rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    }


def referenced_names(node: ast.AST, imports: bool = True):
    """(line, name) for every name the code refers to: variables,
    attributes, imported names and their aliases (unless `imports` is
    false), and the parts of string constants shaped like dotted
    identifiers ("cyclotomic.poly_from_roots", as the benchmark's hooks
    name their targets).  Comments and prose in docstrings refer to
    nothing."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr
        elif isinstance(sub, ast.alias) and imports:
            yield sub.lineno, sub.name.rpartition(".")[2]
            if sub.asname:
                yield sub.lineno, sub.asname
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if DOTTED.fullmatch(sub.value):
                for part in sub.value.split("."):
                    yield sub.lineno, part


def test_every_def_is_used_outside_its_definition():
    """Every non-dunder `def` in the package must be referred to somewhere
    in the package, `scripts/` or `perfbench/` outside its own body.

    The scan reads the syntax tree, so a name that only a comment or a
    docstring mentions does not count.  It goes by name: a name defined
    by several classes, such as `to_json`, passes as soon as any one of
    them is used.  A re-export in a package's `__init__.py` is not a use:
    it would keep alive a function that only the tests import from there.
    Nor is a file under a `tests/` directory (`perfbench/tests`) a caller:
    its `pytest.mark` would count as a use of a library `mark`.
    """
    trees = caller_trees()
    uses = {
        path: list(referenced_names(tree, imports=path.name != "__init__.py"))
        for path, tree in trees.items()
    }
    counts = Counter(name for found in uses.values() for _, name in found)
    spans: dict[str, list] = {}
    for path in LIBRARY.rglob("*.py"):
        for node in ast.walk(trees[path]):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    unused = []
    for name, where in sorted(spans.items()):
        own = sum(
            1
            for path, start, end in where
            for line, used in uses[path]
            if used == name and start <= line <= end
        )
        if counts[name] <= own:
            unused.append(name)
    assert unused == [], f"only the tests use: {', '.join(unused)}"


def _calls_by_name(trees) -> dict[str, list]:
    """name -> [(path, line, call)] for every call in `trees`, by the
    called name: `f(...)` and `obj.f(...)` both count as calls of f."""
    calls: dict[str, list] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is not None:
                    calls.setdefault(name, []).append((path, node.lineno, node))
    return calls


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter at `position` (None for a
    keyword-only one) or named `name`; `*args` or `**kwargs` pass all."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_set_outside_the_tests():
    """Every defaulted parameter of a `def` in the package must be passed,
    by position or by keyword, by some call in the package, `scripts/` or
    `perfbench/` outside the def's own body; a parameter that only the
    tests set is surface that no caller needs.

    Like the def test above it goes by name: a call `f(...)` or
    `obj.f(...)` counts for every def named f, and a class's `__init__`
    goes by the class name.  A method's first parameter (self or cls) is
    not counted among the positions, and a call with `*args` or
    `**kwargs` counts as passing every parameter.
    """
    trees = caller_trees()
    calls = _calls_by_name(trees)
    unset = []
    for path in LIBRARY.rglob("*.py"):
        tree = trees[path]
        owners = {
            id(item): cls
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(id(node))
            name = owner.name if owner is not None and node.name == "__init__" else node.name
            static = any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
            )
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if owner is not None and not static else 0
            defaulted = [
                (i - skip, arg.arg)
                for i, arg in enumerate(positional)
                if i >= len(positional) - len(node.args.defaults)
            ] + [
                (None, arg.arg)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
            for position, param in defaulted:
                if not any(
                    _passes(call, position, param)
                    for where, line, call in calls.get(name, ())
                    if not (where == path and node.lineno <= line <= node.end_lineno)
                ):
                    unset.append(f"{name}({param})")
    assert unset == [], f"only the tests set: {', '.join(sorted(unset))}"
