"""Module boundaries inside the roofcast package, the modules a run
loads, and the names the benchmark binds to."""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roofcast
from roofcast.evalkit import generate_synthetic
from roofcast.ingest import write_profile_json

SRC = Path(roofcast.__file__).parent
# CPython's built-in SHA-256 module, which cli imports before hashlib: it is
# _sha256 up to 3.11 and _sha2 from 3.12, and each name is in
# sys.stdlib_module_names only on its own versions.
BUILTIN_SHA256 = {"_sha256", "_sha2"}


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


_JSON_READERS = {"load", "loads"}


def test_only_errors_decodes_input():
    # One UTF-8 decoder and one JSON reader: no other module calls
    # json.load, json.loads or a .decode, or imports codecs.
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                found = node.attr == "decode" or (
                    node.attr in _JSON_READERS
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json")
            elif isinstance(node, ast.Import):
                found = "codecs" in (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = node.module == "codecs" or (
                    node.module == "json"
                    and any(alias.name in _JSON_READERS
                            for alias in node.names))
            else:
                continue
            if found:
                offenders.append(f"{path.name}:{node.lineno}")
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
                                              *BUILTIN_SHA256, "roofcast"})
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


# Runs main(ARGV) in a fresh interpreter and writes its exit code and which
# of the heavy modules it loaded to OUT: python -c PROBE OUT ARGV...
PROBE = """\
import json, sys
from roofcast.cli import main
code = main(sys.argv[2:])
heavy = [name for name in ("_hashlib", "hashlib", "traceback")
         if name in sys.modules]
with open(sys.argv[1], "w") as out:
    json.dump([code, heavy], out)
"""


def loaded_by(work: Path, *argv: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    env.pop("ROOFCAST_HW", None)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, "probe.json", *argv, "--out", "out"],
        cwd=work, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    code, heavy = json.loads((work / "probe.json").read_text())
    assert code == 0, result.stderr
    return heavy


def write_profiles(work: Path, kernels_each: int = 0) -> list[str]:
    """Two synthetic profiles and a workload naming both; when kernels_each
    is given, each profile's kernels are repeated up to that count."""
    names = []
    for profile in generate_synthetic(3, 2)[1]:
        if kernels_each:
            kernels = [*profile.kernels] * kernels_each
            profile = dataclasses.replace(profile,
                                          kernels=kernels[:kernels_each])
        names.append(f"{profile.query_id}.json")
        (work / names[-1]).write_text(write_profile_json(profile),
                                      encoding="utf-8")
    doc = {"schema_version": 1, "doc": 2, "dispatch_count": 200, "seed": 0,
           "queries": [{"profile": name, "weight": 1.0} for name in names]}
    (work / "workload.json").write_text(json.dumps(doc))
    return names


@pytest.mark.parametrize("argv, multi_block", [
    (("roofline", "--profile", "{0}"), False),
    (("predict", "--profile", "{0}", "--alloc", "0.5,0.5,0.5,0.5",
      "--table"), False),
    (("concurrency", "--workload", "workload.json"), False),
    (("roofline", "--profile", "{0}"), True),
    (("concurrency", "--workload", "workload.json"), True),
    (("eval", "--samples", "samples.csv"), True),
], ids=["roofline", "predict-table", "concurrency", "roofline-multi-block",
        "concurrency-multi-block", "eval-samples-multi-block"])
def test_no_input_size_loads_hashlib_or_traceback(tmp_path, argv,
                                                   multi_block):
    # Every input, ending in its first 64 KiB block or not, is hashed by the
    # built-in SHA-256 module, so no OpenSSL; traceback is for exit 3 alone.
    names = write_profiles(tmp_path, kernels_each=600 if multi_block else 0)
    (tmp_path / "samples.csv").write_text(
        "label,estimated,actual\n"
        + "".join(f"q{i},1.1,1.0\n" for i in range(8000)))
    read = (["samples.csv"] if argv[0] == "eval"
            else [*names, "workload.json"])
    longest = max((tmp_path / name).stat().st_size for name in read)
    assert (longest > 1 << 16) == multi_block
    argv = [arg.format(*names) for arg in argv]
    assert loaded_by(tmp_path, *argv) == []
