"""No module of the program imports a name it never reads, and no top-level
function or class of src/ goes unreferenced by the program."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "handover_ie"
MODULES = sorted([*(ROOT / "src" / PACKAGE).glob("*.py"), *(ROOT / "scripts").glob("*.py")])
# tensor primitives no module of the program calls; perfbench/layers.py::TAPE_PRIMITIVES
# wraps them by name, so they stay until ROADMAP item 3 removes them with it
UNREFERENCED = {"tensor.mul", "tensor.scale", "tensor.reshape", "tensor.transpose",
                "tensor.softmax_rows", "tensor.layer_norm", "tensor.gelu"}


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


def definitions(module: str, source: str) -> set[str]:
    """Each top-level function and class of module, as ``module.name``."""
    return {f"{module}.{node.name}" for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def references(module: str | None, source: str) -> set[str]:
    """Each ``m.name`` of the package that source refers to: through
    ``from .m import name``, through ``alias.name`` where alias is bound by
    ``from . import m as alias``, and, when source is the package's module
    named module, through a bare name outside that name's own definition.
    A bare attribute name, ``x.name`` with x no module alias, matches nothing."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                target = node.module
            elif node.module == PACKAGE or (node.module or "").startswith(PACKAGE + "."):
                target = node.module[len(PACKAGE) + 1:] or None
            else:
                continue
            for alias in node.names:
                if target is None:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add(f"{target}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id in aliases):
            refs.add(f"{aliases[node.value.id]}.{node.attr}")
    if module is not None:
        for statement in tree.body:
            own = getattr(statement, "name", None)
            refs.update(f"{module}.{node.id}" for node in ast.walk(statement)
                        if isinstance(node, ast.Name) and node.id != own)
    return refs


def test_references_resolves_each_form():
    source = ("from . import tensor as T, corpus\n"
              "from .tokenizer import encode as enc\n"
              "from handover_ie.crf import viterbi\n"
              "from numpy import gelu\n"
              "def helper(x):\n"
              "    return helper(T.matmul(x, corpus.read_text) + x.softmax_rows)\n"
              "def main():\n"
              "    return helper(1)\n"
              "def loop(n):\n"
              "    return loop(n - 1)\n")
    assert references("pipeline", source) >= {
        "tensor.matmul", "corpus.read_text", "tokenizer.encode", "crf.viterbi",
        "pipeline.helper"}
    assert not references("pipeline", source) & {
        "pipeline.main", "pipeline.loop", "tensor.softmax_rows", "numpy.gelu"}
    assert definitions("pipeline", source) == {"pipeline.helper", "pipeline.main",
                                               "pipeline.loop"}


def test_every_top_level_definition_is_referenced():
    defined: set[str] = set()
    referenced: set[str] = set()
    for path in MODULES:
        module = path.stem if path.parent.name == PACKAGE else None
        source = path.read_text(encoding="utf-8")
        if module is not None:
            defined |= definitions(module, source)
        referenced |= references(module, source)
    # equality: an allowlisted name that is gone or referenced must leave the list
    assert defined - referenced == UNREFERENCED
