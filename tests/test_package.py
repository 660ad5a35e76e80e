"""Layout rules of the package source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "ringcover"


def test_no_imports_inside_functions():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(function)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []
