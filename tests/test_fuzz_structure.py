"""Broken structure in otherwise valid input files, through cli.main.

Each case takes one valid counter CSV, counter JSON, profile, workload,
samples CSV or hardware spec and nests it deeply, puts a CR or NUL at
random offsets, truncates it, prefixes a UTF-8 BOM or repeats a key. Then it runs the command that reads the file. Whatever the damage, the
run exits 0, 1 or 2 without a traceback. A BOM alone is no damage: each file
gives the same report with and without one.
"""

import codecs
import contextlib
import copy
import csv
import io
import json
import random
import re

import pytest

from roofcast.cli import main
from roofcast.errors import ValidationError, csv_chunks, read_json

from test_fuzz_cli import COUNTERS, HARDWARE, PROFILE, WORKLOAD


def _csv(rows):
    sink = io.StringIO()
    csv.writer(sink, lineterminator="\n").writerows(rows)
    return sink.getvalue()


# Each input file: its document, how it is written, and the command that
# reads it.
INPUTS = {
    "counters.csv": (
        [list(COUNTERS[0]), *(list(row.values()) for row in COUNTERS)], _csv,
        ["ingest", "--input", "{work}/counters.csv"]),
    "counters.json": (COUNTERS, json.dumps,
                      ["ingest", "--input", "{work}/counters.json"]),
    "profile.json": (PROFILE, json.dumps,
                     ["predict", "--profile", "{work}/profile.json",
                      "--mig", "1g.5gb"]),
    "workload.json": (WORKLOAD, json.dumps,
                      ["concurrency", "--workload", "{work}/workload.json"]),
    "samples.csv": ([["label", "estimated", "actual"], ["a", 1.5, 2.0],
                     ["b", 3.0, 2.5]], _csv,
                    ["eval", "--samples", "{work}/samples.csv"]),
    "hw.json": (HARDWARE, json.dumps,
                ["advise", "--workload", "{work}/workload.json",
                 "--hw", "{work}/hw.json", "--objective", "max-throughput"]),
}

MARK = "NESTED_HERE"


def _leaves(doc, path=()):
    """The path of every scalar in doc."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path]
    return [leaf for key, value in items for leaf in _leaves(value, (*path, key))]


def deep_nesting(name, rng):
    """One scalar replaced by a list nested far deeper than any document."""
    doc, dumps, _ = INPUTS[name]
    doc = copy.deepcopy(doc)
    *parents, last = rng.choice(_leaves(doc))
    target = doc
    for key in parents:
        target = target[key]
    target[last] = MARK
    depth = rng.choice([500, 100_000])
    nested = "[" * depth + "]" * depth
    return dumps(doc).replace(f'"{MARK}"', nested).replace(MARK, nested)


def cr_or_nul(name, rng):
    text = INPUTS[name][1](INPUTS[name][0])
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice("\r\0") + text[at:]
    return text


def truncation(name, rng):
    text = INPUTS[name][1](INPUTS[name][0])
    return text[:rng.randrange(len(text))]


def bom(name, rng):
    return "\ufeff" + INPUTS[name][1](INPUTS[name][0])


KEY = re.compile(r'"\w+": ')


def duplicate_key(name, rng):
    """One key written twice, the copy first with another value; in a CSV
    header, one column named twice."""
    text = INPUTS[name][1](INPUTS[name][0])
    if name.endswith(".csv"):
        header, rest = text.split("\n", 1)
        cells = header.split(",")
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(cells))
        return ",".join(cells) + "\n" + rest
    key = rng.choice(list(KEY.finditer(text)))
    value = rng.choice(["0", "1.5", "true", "null", "[]", "{}", '"x"'])
    return text[:key.start()] + key.group() + value + ", " + text[key.start():]


MUTATIONS = [deep_nesting, cr_or_nul, truncation, bom, duplicate_key]


def _run(tmp_path, name, text):
    """Exit code and stderr of INPUTS[name]'s command, every input file valid
    but name's, which holds text; the report goes to out.json."""
    for other, (doc, dumps, _) in INPUTS.items():
        (tmp_path / other).write_text(dumps(doc), encoding="utf-8")
    (tmp_path / name).write_bytes(text.encode("utf-8"))
    argv = [arg.format(work=tmp_path) for arg in INPUTS[name][2]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(tmp_path / "out.json")])
    return code, stderr.getvalue()


@pytest.mark.parametrize("mutate", MUTATIONS, ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", INPUTS)
def test_broken_structure_exits_0_1_or_2_without_traceback(tmp_path, name,
                                                           mutate):
    rng = random.Random(f"{name}/{mutate.__name__}")
    for _ in range(4):
        code, stderr = _run(tmp_path, name, mutate(name, rng))
        assert code in (0, 1, 2), stderr
        assert "Traceback" not in stderr


def _report(tmp_path, name, text):
    """The report of _run, less the manifest, which hashes the input."""
    code, stderr = _run(tmp_path, name, text)
    assert code == 0, stderr
    report = json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))
    report.pop("manifest", None)
    report.pop("manifest_hash", None)
    return report


@pytest.mark.parametrize("name", INPUTS)
def test_utf8_bom_is_skipped(tmp_path, name):
    doc, dumps, _ = INPUTS[name]
    assert _report(tmp_path, name, bom(name, None)) == \
        _report(tmp_path, name, dumps(doc))


def test_bad_byte_after_a_bom_is_named_by_its_offset_in_the_file():
    data = codecs.BOM_UTF8 + b"kernel_name\xff\n"
    message = r"^f: not UTF-8 text \(invalid start byte at byte 14\)$"
    with pytest.raises(ValidationError, match=message):
        read_json(io.BytesIO(data), "f", "counter file")
    with pytest.raises(ValidationError, match=message):
        next(csv_chunks(io.BytesIO(data), "f", "counter file"))


@pytest.mark.parametrize("text", ['{"name": "x"', "[" * 30_000 + "]" * 30_000],
                         ids=["truncated", "nested_30000_deep"])
def test_malformed_json_hardware_spec_exits_2_naming_the_file(tmp_path, text):
    code, stderr = _run(tmp_path, "hw.json", text)
    assert code == 2, stderr
    assert f"{tmp_path / 'hw.json'}: invalid hardware spec JSON: " in stderr
    assert "Traceback" not in stderr
