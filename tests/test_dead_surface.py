"""No library function or method that only the tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "aprings"
CALLERS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


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
    trees = {
        path: ast.parse(path.read_text())
        for root in CALLERS
        for path in root.rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    }
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
