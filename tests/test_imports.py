"""Every name a jetalg module imports is used in that module, and every
exception class it defines is one that code tells apart.

An AST walk over src/jetalg/*.py: a name bound by an import must appear as
a name (or as the root of an attribute chain) somewhere else in the module.
``__future__`` imports and the re-exports of ``__init__.py`` are exempt.
A module defines at most one refusal class (a direct ValueError subclass),
and a subclass of a jetalg exception class must be named in some ``except``
clause, or it is one more public name that no code needs."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "jetalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "from a import b, c\nimport d.e\nfrom __future__ import annotations\nc()\n"
    assert unused_imports(src) == [(1, "b"), (2, "d")]


def exception_faults(sources):
    """The rule breaks among {module name: source}: a module with more than
    one direct ValueError subclass, and a subclass of such a class, at any
    depth, that no except clause names."""
    bases, caught, faults = {}, set(), []
    for module, source in sources.items():
        tree = ast.parse(source)
        refusals = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                names = [ast.unparse(b).split(".")[-1] for b in node.bases]
                bases[node.name] = names
                if "ValueError" in names:
                    refusals.append(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                caught |= {n.attr for n in ast.walk(node.type)
                           if isinstance(n, ast.Attribute)}
        if len(refusals) > 1:
            faults.append(f"{module}: {len(refusals)} ValueError classes {refusals}")
    # grow the exception classes to a fixed point; then subclasses holds
    # every class that derives from one of them
    exceptions, subclasses = set(), {n for n, names in bases.items() if "ValueError" in names}
    while subclasses - exceptions:
        exceptions |= subclasses
        subclasses = {n for n, names in bases.items() if exceptions & set(names)}
    faults += [f"{name} is caught nowhere" for name in sorted(subclasses - caught)]
    return faults


def test_one_refusal_class_per_module_and_every_subclass_caught():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert exception_faults(sources) == []


def test_checker_flags_extra_and_uncaught_exception_classes():
    src = {
        "a.py": "class E(ValueError): pass\nclass F(ValueError): pass\n"
                "class G(E): pass\nclass H(E): pass\nclass I(H): pass\n"
                "class J: pass\nclass K(J): pass\n",
        "b.py": "from a import H\ntry:\n    pass\nexcept (KeyError, H):\n    pass\n",
    }
    assert exception_faults(src) == [
        "a.py: 2 ValueError classes ['E', 'F']", "G is caught nowhere",
        "I is caught nowhere"]
