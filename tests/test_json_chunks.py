"""errors.JsonChunks hands out what json.loads decodes, a chunk at a time,
whatever the block boundaries and however short the stream's reads."""

import io
import json
import math

import pytest

from roofcast import errors, ingest
from roofcast.cli import main
from roofcast.errors import CSV_CHUNK_ROWS, JSON_BLOCK, JsonChunks, ParseError
from roofcast.ingest import KernelRecord, QueryProfile, write_profile_json

BLOCKS = (1, 2, 3, 7, 64, 65_536)


class ShortReads(io.BytesIO):
    """A stream that returns at most `block` bytes a read, and counts reads."""

    def __init__(self, data: bytes, block: int):
        super().__init__(data)
        self.block, self.reads = block, 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(self.block if size < 0 else min(size, self.block))


def chunks_of(data: bytes, block: int, key=None, monkeypatch=None):
    """The chunks and other members JsonChunks reads from data, reading
    `block` bytes at a time and holding blocks of that size."""
    if monkeypatch is not None:
        monkeypatch.setattr(errors, "JSON_BLOCK", block)
    reader = JsonChunks(ShortReads(data, block), "f", key)
    return list(reader), reader.members


def kernel(i: int) -> dict:
    # Every seventh name holds "}" and "],", so a decode of all complete
    # elements at once fails and the elements are read one at a time.
    return {"kernel_name": f"k{i}" + ("}],€" if i % 7 == 3 else ""),
            "duration_ns": 1000.5 + i, "dram_bytes": 4 * i,
            "l2_requests": i, "int_ops": 10**6 + i}


def profile_doc(n: int) -> dict:
    # Header keys before and after "kernels".
    return {"schema_version": 1, "query_id": "qé", "system": "s",
            "kernels": [kernel(i) for i in range(n)], "scale_factor": 4.0,
            "cpu_overhead_s": 1e-3, "plan": [], "l2_hit_rate": None}


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("n", [0, 1, 127, 128, 129, 300])
@pytest.mark.parametrize("indent", [None, 2])
def test_chunks_are_what_json_loads_decodes(monkeypatch, block, n, indent):
    doc = profile_doc(n)
    data = json.dumps(doc, indent=indent, ensure_ascii=False).encode()
    chunks, members = chunks_of(data, block, "kernels", monkeypatch)
    assert [len(chunk) for chunk in chunks] == (
        [CSV_CHUNK_ROWS] * (n // CSV_CHUNK_ROWS)
        + ([n % CSV_CHUNK_ROWS] if n % CSV_CHUNK_ROWS else []))
    kernels = doc.pop("kernels")
    assert sum(chunks, []) == kernels
    assert members == doc
    data = json.dumps(kernels, indent=indent, ensure_ascii=False).encode()
    chunks, members = chunks_of(data, block, monkeypatch=monkeypatch)
    assert sum(chunks, []) == kernels
    assert members == {}


VALUES = ('{"kernels": [{"a": 4.0, "b": -0.5e-3, "c": "é€\U0001f600"},'
          ' {"a": 12345, "b": true, "c": null}, {"a": [1, {"x": "]}"}]}],'
          ' "scale": 4.0, "big": 1E+300, "neg": -0, "s": "\\u00e9\\n"}')


def test_every_split_of_a_number_or_a_character(monkeypatch):
    # A block may end inside a number ("4." of "4.0") or a character; every
    # block size from one byte up cuts the document at a new place.
    data = VALUES.encode()
    doc = json.loads(data)
    kernels = doc.pop("kernels")
    for block in range(1, len(data) + 2):
        assert chunks_of(data, block, "kernels", monkeypatch) == ([kernels], doc)


@pytest.mark.parametrize("block", BLOCKS)
def test_one_byte_order_mark_is_dropped(monkeypatch, block):
    data = b"\xef\xbb\xbf" + VALUES.encode()
    doc = json.loads(VALUES)
    assert chunks_of(data, block, "kernels", monkeypatch)[0] == [doc["kernels"]]
    with pytest.raises(ParseError):     # json.loads refuses a second one
        chunks_of(b"\xef\xbb\xbf" + data, block, "kernels", monkeypatch)


def test_a_long_value_costs_a_logarithmic_number_of_reads():
    # Each read is at least as long as the text held, so the reads double.
    reads = []
    for size in (200_000, 800_000):
        doc = {"kernels": [{"kernel_name": "k" * size}, kernel(1)]}
        stream = ShortReads(json.dumps(doc).encode(), 1 << 30)
        reader = JsonChunks(stream, "f", "kernels")
        assert list(reader) == [doc["kernels"]]
        reads.append(stream.reads)
    assert reads[0] <= math.log2(200_000 / JSON_BLOCK) + 4
    assert reads[1] - reads[0] <= 2


NOT_STREAMABLE = {
    "not-utf8": b'{"kernels": [{"a": "\xff"}]}',
    "truncated-utf8": b'{"kernels": [], "a": "\xe2\x82"',
    "truncated": b'{"kernels": [{"a": 1}, {"a": 2',
    "trailing-comma": b'{"kernels": [{"a": 1},]}',
    "trailing-comma-in-object": b'{"kernels": [], }',
    "extra-data": b'{"kernels": []} x',
    "no-key": b'{"kernel": []}',
    "empty-object": b"{}",
    "not-an-array": b'{"kernels": {"a": 1}}',
    "top-level-array": b'[{"kernels": []}]',
    "empty": b"",
    "deep": b'{"kernels": [' + b"[" * 100_000 + b"]" * 100_000 + b"]}",
    "long-int": b'{"kernels": [{"a": 1' + b"0" * 5000 + b"}]}",
}


@pytest.mark.parametrize("block", [7, 65_536])
@pytest.mark.parametrize("data", NOT_STREAMABLE.values(),
                         ids=NOT_STREAMABLE.keys())
def test_what_it_cannot_hand_out_raises_a_parse_error(monkeypatch, block, data):
    with pytest.raises(ParseError, match="^f: not a JSON document to read in"):
        chunks_of(data, block, "kernels", monkeypatch)


def test_a_key_given_twice_is_decoded_whole_or_refused(monkeypatch):
    # json.loads keeps the last array; a streamed document is refused, so
    # its reader takes it whole.
    data = b'{"kernels": [{"a": 0}], "kernels": [{"a": 1}], "b": 2}'
    assert chunks_of(data, 65_536, "kernels") == ([[{"a": 1}]], {"b": 2})
    with pytest.raises(ParseError):
        chunks_of(data, 7, "kernels", monkeypatch)


@pytest.mark.parametrize("block", [7, 65_536])
def test_a_top_level_array_needs_no_key(monkeypatch, block):
    assert chunks_of(b' [ ] ', block, monkeypatch=monkeypatch) == ([], {})
    with pytest.raises(ParseError):
        chunks_of(b'{"kernels": []}', block, monkeypatch=monkeypatch)


# ---------------------------------------------------------------------------
# Through the CLI: a damaged input exits 2 with the message of the whole
# document read at once.
# ---------------------------------------------------------------------------


class WholeOnly(JsonChunks):
    """A reader that hands out nothing, so its caller reads the stream whole."""

    def __iter__(self):
        raise ParseError("read it whole")


def answers(monkeypatch, capsys, argv) -> list[tuple[int, str, str]]:
    """(exit code, stdout, stderr) of cli.main(argv) with inputs read in
    1 KiB blocks, then with every input read whole."""
    monkeypatch.setattr(errors, "JSON_BLOCK", 1024)
    results = []
    for reader in (JsonChunks, WholeOnly):
        monkeypatch.setattr(ingest, "JsonChunks", reader)
        code = main(argv)
        results.append((code, *capsys.readouterr()))
    return results


def profile_text(n: int = 129) -> str:
    return write_profile_json(QueryProfile("q", "s", 1.0, tuple(
        KernelRecord(f"k{i}", (1000 + i) / 1e9, 4096, 64, 10**6)
        for i in range(n))))


def counter_text(n: int = 129) -> str:
    return json.dumps([{"Kernel Name": f"k{i}", "gpu__time_duration.sum": 1000,
                        "dram__bytes.sum": 4096, "extra": "x" * 20,
                        "lts__t_requests_srcunit_tex_op_read.sum": 64,
                        "smsp__sass_thread_inst_executed_op_integer_pred_on"
                        ".sum": 10**6} for i in range(n)], indent=1)


def damaged(text: str) -> dict[str, bytes]:
    data = text.encode()
    middle = len(data) // 2
    cases = {f"cut-{end}": data[:end] for end in range(0, len(data), 97)}
    cases["bad-byte"] = data[:middle] + b"\xff" + data[middle + 1:]
    return cases


def test_a_damaged_profile_exits_2_as_read_whole(tmp_path, monkeypatch,
                                                 capsys):
    path = tmp_path / "p.json"
    text = profile_text()
    bad_row = text.replace('"duration_ns": 1003.0', '"duration_ns": -1')
    assert bad_row != text
    late_version = json.loads(text)
    late_version["schema_version"] = late_version.pop("schema_version") + 1
    named = {
        "cut-0": f"{path}: invalid profile JSON: Expecting value: line 1",
        "bad-byte": f"{path}: not UTF-8 text (invalid start byte at byte ",
        "kernels-twice": "kernels[1]: missing required column(s)",
        "unknown-key-after-kernels":
            "profile document: unknown keys ['mystery']",
        "version-after-kernels":
            "profile document: unsupported schema_version 2",
        "bad-row": "row 4: kernel 'k3': duration must be finite and > 0",
        "bad-row-then-bad-syntax": f"{path}: invalid profile JSON: Expecting",
    }
    cases = {
        **damaged(text),
        "kernels-twice": text.replace(
            '"plan": []', '"kernels": [{"kernel_name": 7}], "plan": []'),
        "unknown-key-after-kernels": text.replace(
            '"plan": []', '"mystery": 1, "plan": []'),
        "version-after-kernels": json.dumps(late_version, indent=2),
        "bad-row": bad_row,
        "bad-row-then-bad-syntax": bad_row.replace('"plan": []', '"plan": [}'),
    }
    for name, data in cases.items():
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        streamed, whole = answers(monkeypatch, capsys,
                                  ["roofline", "--profile", str(path)])
        assert streamed == whole, name
        assert streamed[0] == 2, name
        assert streamed[2].startswith(
            "roofcast: validation error: " + named.get(name, "")), name


def test_the_last_kernels_key_wins_as_read_whole(tmp_path, monkeypatch,
                                                 capsys):
    path = tmp_path / "p.json"
    text = profile_text()
    path.write_text(text.replace('"plan": []', '"kernels": ' + json.dumps(
        json.loads(profile_text(3))["kernels"]) + ', "plan": []'))
    streamed, whole = answers(monkeypatch, capsys,
                              ["roofline", "--profile", str(path)])
    assert streamed == whole and streamed[0] == 0


def test_a_damaged_counter_file_exits_2_as_read_whole(tmp_path, monkeypatch,
                                                      capsys):
    path, out = tmp_path / "c.json", tmp_path / "out.json"
    text = counter_text()
    bad_row = text.replace('"k3",\n  "gpu__time_duration.sum": 1000',
                           '"k3",\n  "gpu__time_duration.sum": -1')
    assert bad_row != text
    named = {
        "cut-0": f"{path}: invalid JSON counter file: Expecting value: line 1",
        "bad-byte": f"{path}: not UTF-8 text (invalid start byte at byte ",
        "bad-row": "row 4: kernel 'k3': duration must be finite and > 0",
        "bad-row-then-bad-syntax": f"{path}: invalid JSON counter file: ",
    }
    cases = {**damaged(text), "bad-row": bad_row,
             "bad-row-then-bad-syntax": bad_row[:-2] + "}"}
    for name, data in cases.items():
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        streamed, whole = answers(
            monkeypatch, capsys, ["ingest", "--input", str(path),
                                  "--out", str(out)])
        assert streamed == whole, name
        assert streamed[0] == 2 and not out.exists(), name
        assert streamed[2].startswith(
            "roofcast: validation error: " + named.get(name, "")), name
