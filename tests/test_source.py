"""Checks on the package source itself."""
import ast
from pathlib import Path

import anflat

PACKAGE = Path(anflat.__file__).resolve().parent


def test_no_assert_statements_in_package():
    """Internal checks raise VerificationError, which still runs under python -O."""
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
