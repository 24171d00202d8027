"""Every name a module of the package or of scripts/ imports is used, and
every private module-level name of the package is read.

The project's toolchain ships no linter, so these scans stand in for the
unused-import check of pyflakes: a name an import binds counts as used when
the module reads it anywhere, lists it in ``__all__`` or names it in a
string annotation. A deleted function leaves no import of itself behind,
and a helper whose last caller is deleted goes with it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "dpicl_audit").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])


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


def _bound_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a def's or a class's, or
    an assignment's targets."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names of ``sources`` (module name to source)
    that nothing in them reads, as ``module.name``, in order. A read is a
    load of the name in its module outside the statement that defines it
    (so a recursive call is none), an attribute load of that name anywhere,
    or a relative import of it from its module."""
    defined, reads = [], set()
    for module, source in sources.items():
        for statement in ast.parse(source).body:
            bound = [name for name in _bound_names(statement)
                     if name.startswith("_") and not name.startswith("__")]
            defined += [(module, name) for name in bound]
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id not in bound:
                        reads.add((module, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add((None, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    reads |= {(node.module, alias.name) for alias in node.names}
    return [f"{module}.{name}" for module, name in defined
            if (module, name) not in reads and (None, name) not in reads]


def test_the_scan_finds_an_unread_private_name():
    sources = {
        "a": ("_A, _B = 1, 2\n_C = _D = 3\n"
              "def _f(n):\n    return _f(n - 1) + _A\n"
              "class _K:\n    pass\n"),
        "b": "from .a import _C\nfrom . import a\n_x = _C + a._D\n_y: int = _x\n",
    }
    assert unread_private_names(sources) == ["a._B", "a._f", "a._K", "b._y"]


def test_no_unread_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import Optional, Sequence\nfrom .a import B, C\n"
              "__all__ = ['C']\n"
              "def f(x: 'Optional[int]') -> np.ndarray:\n    return os.path\n")
    assert unused_imports(source) == ["Sequence", "B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
