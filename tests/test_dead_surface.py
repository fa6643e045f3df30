"""No library function or method that only the tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "aprings"
CALLERS = (LIBRARY, ROOT / "scripts", ROOT / "perfbench")
WORD = re.compile(r"\w+")


def test_every_def_is_used_outside_its_definition():
    """Every non-dunder `def` in the package must be named somewhere in
    the package, `scripts/` or `perfbench/` outside its own body.

    The scan is by name, as whole words in the source text (comments and
    strings count).  So a name defined by several classes, such as
    `to_json`, passes as soon as any one of them is used.
    """
    texts = {path: path.read_text() for root in CALLERS for path in root.rglob("*.py")}
    words = Counter(word for text in texts.values() for word in WORD.findall(text))
    spans: dict[str, list] = {}
    for path in LIBRARY.rglob("*.py"):
        for node in ast.walk(ast.parse(texts[path])):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    spans.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    unused = []
    for name, where in sorted(spans.items()):
        own = sum(
            WORD.findall("\n".join(texts[path].splitlines()[start - 1:end])).count(name)
            for path, start, end in where
        )
        if words[name] <= own:
            unused.append(name)
    assert unused == [], f"only the tests use: {', '.join(unused)}"
