"""No module of the program imports a name it never reads."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "handover_ie").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def unread_imports(source: str) -> list[str]:
    """Each name an import binds that no expression of the module reads, as
    ``line N: name``. A name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_unread_imports_finds_each_unread_name():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from typing import Iterable, Sequence\n"
              "from .corpus import read_text as read, parse_records\n"
              "__all__ = ['parse_records']\n"
              "def f(x: Sequence[int]) -> int:\n"
              "    return np.sum(x)\n")
    assert unread_imports(source) == ["line 2: os", "line 4: Iterable", "line 5: read"]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 10
    unread = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := unread_imports(path.read_text(encoding="utf-8")))}
    assert unread == {}
