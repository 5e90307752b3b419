"""Every Sphinx-style cross-reference in the package's docstrings resolves.

A docstring names code with ``:func:``, ``:meth:``, ``:class:`` and
``:data:`` roles.  Deleting or renaming the code leaves such a reference
dangling without failing anything else, so each one is resolved here as an
attribute chain: relative to the module whose docstring holds it, to a sibling
module of the package, or to the package itself (``boostedwaves.cli.main``).
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import boostedwaves

ROLE = re.compile(r":(?:func|meth|class|data):`~?\.?([\w.]+)`")
MODULES = sorted(m.name for m in pkgutil.iter_modules(boostedwaves.__path__))


def _docstrings(path: Path):
    """The docstrings of a module and of every class and function in it."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _lookup(obj, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def _module(name: str):
    """``boostedwaves.<name>``, or the package itself for the name ''."""
    return importlib.import_module(f"boostedwaves.{name}" if name else "boostedwaves")


def resolves(module: str, ref: str) -> bool:
    """True when ``ref``, cited in the module ``module`` ('' for the package),
    names an attribute."""
    if _lookup(_module(module), ref):
        return True
    head, _, rest = ref.partition(".")
    if head in MODULES and rest:
        return _lookup(_module(head), rest)
    return head == "boostedwaves" and bool(rest) and resolves("", rest)


def _references():
    root = Path(boostedwaves.__file__).parent
    for module in ["", *MODULES]:
        for doc in _docstrings(root / f"{module or '__init__'}.py"):
            for ref in ROLE.findall(doc):
                yield module, ref


def test_docstring_references_resolve():
    refs = list(_references())
    assert len(refs) > 50  # the roles are found at all
    dangling = sorted({f"{module or '__init__'}: {ref}" for module, ref in refs
                       if not resolves(module, ref)})
    assert dangling == []


@pytest.mark.parametrize("module, ref, ok", [
    ("verify", "support_set", True),  # own module
    ("verify", "solver.residual_scratch", True),  # sibling module
    ("", "boostedwaves.cli.main", True),  # through the package
    ("cli", "verify.SymmetryReport.passes", True),  # a method of a sibling's class
    ("verify", "solver.Problem.weight_table", False),
    ("verify", "no_such_function", False),
    ("cli", "boostedwaves.cli.no_such_function", False),
])
def test_resolver_tells_dangling_references(module, ref, ok):
    assert resolves(module, ref) is ok
