"""Checks on the package source itself."""
import ast
from pathlib import Path

import anflat

PACKAGE = Path(anflat.__file__).resolve().parent


def _package_nodes():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_assert_statements_in_package():
    """Internal checks raise VerificationError, which still runs under python -O."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_private_cross_module_imports():
    """A name one module shares with another is public: no `from .mod import _name`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _package_nodes()
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []
