"""Every name a module of the package or of scripts/ imports is used.

The project's toolchain ships no linter, so this scan stands in for the
unused-import check of pyflakes: a name an import binds counts as used when
the module reads it anywhere, lists it in ``__all__`` or names it in a
string annotation. A deleted function leaves no import of itself behind.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "dpicl_audit").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _annotation_strings(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                  args.vararg, args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in annotations:
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {element.value for element in node.value.elts}
    return set()


def unused_imports(source: str) -> list[str]:
    """The names ``source``'s imports bind and it never uses, in order."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for text in _annotation_strings(tree):
        used |= {node.id for node in ast.walk(ast.parse(text, mode="eval"))
                 if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return sorted((name for name in imported if name not in used), key=imported.get)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional, Sequence\nfrom .a import B, C\n"
              "__all__ = ['C']\n"
              "def f(x: 'Optional[int]') -> np.ndarray:\n    return os.path\n")
    assert unused_imports(source) == ["Sequence", "B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
