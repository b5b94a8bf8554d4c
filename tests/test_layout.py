"""Structural rules of the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "reglab"


def test_no_function_local_imports():
    # every module imports at its top; none needs a deferred import to
    # dodge an import cycle
    sources = sorted(SRC.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders.append(f"{path.name}:{node.lineno} in {func.name}")
    assert offenders == []
