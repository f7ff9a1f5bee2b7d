"""Every name a ``segenc`` module imports is used in that module, no module
imports scipy, and every function, method, class, dataclass field and
module-level name it defines is read somewhere.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` is skipped by the import check:
its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "segenc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
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
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_is_caught():
    source = "import os.path\nfrom typing import Iterable, Mapping\nx: Mapping = {}\n"
    assert unused_imports(source) == ["line 1: os", "line 2: Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level packages the source imports, at module level or inside a function."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_never_imports_scipy(path):
    # scipy.stats alone adds about 50 MB of resident memory; tests keep it as an oracle
    assert "scipy" not in imported_modules(path.read_text())


def test_late_scipy_import_is_caught():
    assert imported_modules("import os.path\ndef f():\n    from scipy import stats\n") == {
        "os", "scipy"}


def defined_names(source: str) -> dict[str, int]:
    """Functions, methods, classes, class-level annotated fields and names
    assigned at module level, with their lines; no dunders."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:  # a name, or names unpacked; not MODES["x"] = ...
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        defined[name.id] = node.lineno
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, ast.ClassDef):
            defined[node.name] = node.lineno
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    defined[item.target.id] = item.lineno
    return {name: line for name, line in defined.items()
            if not (name.startswith("__") and name.endswith("__"))}


def loaded_names(source: str, *, strings: bool) -> set[str]:
    """Names read as a ``Name`` or an ``Attribute``, and string constants if ``strings``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # getattr(cs, "tol_bitrate") reads a field too
    return names


def test_unread_definition_is_caught():
    source = ("from dataclasses import dataclass\n"
              "@dataclass\nclass A:\n    kept: int\n    dropped: int\n    named: int\n"
              "    def used(self): return self.kept\n    def unused(self): pass\n"
              "    def __repr__(self): return ''\n"
              "print(A(1, 2, 3).used(), 'named')\n")
    reads = loaded_names(source, strings=True)
    assert [name for name in defined_names(source) if name not in reads] == ["dropped", "unused"]


def test_unread_module_name_or_class_is_caught():
    source = ("KEPT = 1\nDROPPED: int = 2\nA, B = 3, 4\nTABLE = {}\nTABLE['x'] = KEPT\n"
              "__version__ = '1'\nclass Used: pass\nclass Unused: pass\n"
              "print(A, TABLE, Used)\n")
    reads = loaded_names(source, strings=True)
    assert [name for name in defined_names(source) if name not in reads] == [
        "DROPPED", "B", "Unused"]


def test_every_definition_is_read():
    reads = set().union(*(loaded_names(p.read_text(), strings=True) for p in SRC.glob("*.py")))
    for folder in ("tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            reads |= loaded_names(path.read_text(), strings=False)
    unread = [f"{path.name}:{line}: {name}" for path in sorted(SRC.glob("*.py"))
              for name, line in defined_names(path.read_text()).items() if name not in reads]
    assert unread == []
