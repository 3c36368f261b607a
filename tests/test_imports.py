"""Module boundaries inside the roofcast package and the names the
benchmark binds to."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

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


def test_roofcast_imports_only_the_standard_library():
    # Imports inside functions count too: a lazy import is still a
    # dependency of whoever reaches it.
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside.extend(
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in {*sys.stdlib_module_names,
                                              "roofcast"})
    assert outside == []
    tomllib = pytest.importorskip("tomllib")
    with (SRC.parent.parent / "pyproject.toml").open("rb") as source:
        assert tomllib.load(source)["project"]["dependencies"] == []


def test_functions_the_benchmark_traces_exist():
    # perfbench/child.py rebinds each "<module>.<function>" of TRACED under
    # roofcast; a name that no longer resolves would crash every traced run.
    child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    tree = ast.parse(child.read_text(encoding="utf-8"))
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    assert traced
    for name in traced:
        module, func = name.rsplit(".", 1)
        value = getattr(importlib.import_module(f"roofcast.{module}"), func,
                        None)
        assert inspect.isfunction(value), name


def test_arguments_the_benchmark_reads_keep_their_positions():
    # KEYS and UNITS in perfbench/child.py read a traced call's arguments
    # with _arg(args, kwargs, index, "name"): by position when the caller
    # passed it so, else by keyword. Each index must still be that parameter.
    child = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"
    tree = ast.parse(child.read_text(encoding="utf-8"))
    reads = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] in (["KEYS"], ["UNITS"])):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            reads.extend(
                (key.value, call.args[2].value, call.args[3].value)
                for call in ast.walk(value)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "_arg")
    assert {traced for traced, _, _ in reads} >= {
        "ingest.aggregate", "scaling.slowdown_unified",
        "concurrency.simulate_dispatch"}
    for traced, index, name in reads:
        module, func = traced.rsplit(".", 1)
        fn = getattr(importlib.import_module(f"roofcast.{module}"), func)
        params = list(inspect.signature(fn).parameters)
        assert params[index] == name, (traced, index, params)
