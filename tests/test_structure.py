"""Structural guards on the source tree: the benchmark's wrapped names and dead imports."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:  # perfbench lives at the repository root, beside src/
    sys.path.append(str(ROOT))

from perfbench.traced_cli import WRAPPED  # noqa: E402

SRC = ROOT / "src" / "hsmf"


def test_every_traced_name_is_callable():
    """The traced benchmark wraps these by name; a rename or deletion fails here first."""
    missing = [
        f"{layer}.{name}"
        for layer, names in WRAPPED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hsmf.{layer}"), name, None))
    ]
    assert missing == []


def _unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports (other than ``__future__``) that the module never uses."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_no_unused_module_imports():
    # the check itself: a dead plain import and a dead from-import are seen, live ones are not
    sample = (
        "from __future__ import annotations\n"
        "import math\nimport os.path\nimport numpy as np\n"
        "from .specs import cells, path_lefts\n"
        "def f(x):\n    return np.sqrt(x) + len(cells(x)) + os.path.sep\n"
    )
    assert _unused_imports(sample) == ["math", "path_lefts"]
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
