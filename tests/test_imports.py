"""Module boundaries inside the roofcast package."""

import ast
from pathlib import Path

import roofcast

SRC = Path(roofcast.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_module_imports_private_names_of_another():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "roofcast":
                continue
            offenders.extend(f"{path.name}: {alias.name}"
                             for alias in node.names if _private(alias.name))
    assert offenders == []
