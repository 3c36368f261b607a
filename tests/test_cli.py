import gc
import hashlib
import json
import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from roofcast.cli import RunManifest, main
from roofcast.core import default_hardware_spec
from roofcast.ingest import aggregate, profile_to_dict
from roofcast.scaling import slowdown_unified

from conftest import profile_from_utils, unlimited

HW = default_hardware_spec()
GOLDEN = Path(__file__).parent / "data" / "golden_kernels.csv"
HW_DOC = {
    "schema_version": 1, "name": "custom", "sm_count": 10,
    "peak_compute_gops": 100.0, "peak_dram_gbps": 10.0, "peak_l2_gbps": 50.0,
    "dram_capacity_gb": 1.0,
}
# An integer literal longer than the 4,300 digits Python turns into an int.
LONG_INT = 10**5000


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_profile(tmp_path, name="profile.json", **kwargs) -> Path:
    defaults = dict(util_compute=0.1, util_dram=0.3, util_l2=0.2, t0=0.05,
                    cpu_overhead=0.01)
    defaults.update(kwargs)
    profile = profile_from_utils(HW, **defaults)
    path = tmp_path / name
    path.write_text(json.dumps(profile_to_dict(profile)))
    return path


def write_workload(tmp_path, profile_path, doc=2, seed=3) -> Path:
    doc_json = {
        "schema_version": 1,
        "doc": doc,
        "dispatch_count": 200,
        "seed": seed,
        "queries": [{"profile": profile_path.name, "weight": 1.0}],
    }
    path = tmp_path / "workload.json"
    path.write_text(json.dumps(doc_json))
    return path


def test_ingest_valid_csv(tmp_path, capsys):
    out = tmp_path / "profile.json"
    code, _ = run(capsys, "ingest", "--input", str(GOLDEN),
                  "--query-id", "q1", "--system", "heavydb",
                  "--scale-factor", "16", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["query_id"] == "q1"
    assert len(doc["kernels"]) == 3


def test_ingest_missing_column_exits_2_and_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("kernel_name,duration_ns,l2_requests,int_ops\nk,1,1,1\n")
    code = main(["ingest", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "dram_bytes" in err


CSV_HEADER = "kernel_name,duration_ns,dram_bytes,l2_requests,int_ops\n"
JSON_ROW = {"kernel_name": "k0", "duration_ns": 1000, "dram_bytes": 1,
            "l2_requests": 1, "int_ops": 1}


BAD_COUNTER_FILES = [
    ("inf.csv", CSV_HEADER + "k0,1000,1,1,1\nk1,inf,1,1,1\n",
     "row 3: column 'duration_ns': non-finite value"),
    ("nan.csv", CSV_HEADER + "k0,nan,1,1,1\n",
     "row 2: column 'duration_ns': non-finite value"),
    ("huge.json", json.dumps([JSON_ROW, dict(JSON_ROW, dram_bytes=10**400)]),
     "row 2: column 'dram_bytes': too large for a float"),
    ("per_cycle.csv",
     "kernel_name,duration_ns,dram_bytes,l2_requests,int_ops_per_cycle,cycles\n"
     "k0,1000,1,1,1e300,1e10\n",
     "row 2: column 'int_ops_per_cycle'"),
    ("bool.json", json.dumps([dict(JSON_ROW, dram_bytes=True)]),
     "row 1: column 'dram_bytes': not a number: True"),
    ("bool_duration.json", json.dumps([dict(JSON_ROW, duration_ns=True)]),
     "row 1: column 'duration_ns': not a number: True"),
    ("fraction.csv", CSV_HEADER + "k0,1000,1,2.5,1\n",
     "row 2: column 'l2_requests': not an integer: '2.5'"),
    ("carriage_return.csv", CSV_HEADER + "k0,1000,1,1,1\nk1,1000\r,1,1,1\n",
     "row 3: new-line character seen in unquoted field"),
    ("nan_after_a_row.csv", CSV_HEADER + "k0,1000,1,1,1\nk1,nan,1,1,1\n",
     "row 3: column 'duration_ns': non-finite value"),
    ("negative_after_a_row.csv", CSV_HEADER + "k0,1000,1,1,1\nk1,1000,1,-2,1\n",
     "row 3: kernel 'k1': l2_requests must be >= 0"),
    ("long_int.json",
     unlimited(json.dumps, [dict(JSON_ROW, dram_bytes=LONG_INT)]),
     "long_int.json: invalid JSON counter file: Exceeds the limit"),
]


@pytest.mark.parametrize("name, text, named", BAD_COUNTER_FILES,
                         ids=[case[0] for case in BAD_COUNTER_FILES])
def test_ingest_bad_counter_value_exits_2_naming_row_and_column(
        tmp_path, capsys, name, text, named):
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "profile.json"
    code = main(["ingest", "--input", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("duration", [math.inf, math.nan])
def test_profile_with_non_finite_duration_exits_2(tmp_path, capsys, duration):
    path = write_profile(tmp_path)
    doc = json.loads(path.read_text())
    doc["kernels"][0]["duration_ns"] = duration
    path.write_text(json.dumps(doc))    # Infinity / NaN, which json.loads takes
    for command in ("predict", "roofline"):
        code = main([command, "--profile", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "row 1: column 'duration_ns': non-finite value" in err
        assert "Traceback" not in err


def test_profile_with_a_long_integer_exits_2_naming_the_file(tmp_path,
                                                            capsys):
    path = write_profile(tmp_path)
    doc = json.loads(path.read_text())
    doc["kernels"][0]["dram_bytes"] = LONG_INT
    path.write_text(unlimited(json.dumps, doc))
    for argv in (["roofline"], ["predict", "--mig", "1g.5gb"]):
        code = main([*argv, "--profile", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path}: invalid profile JSON: Exceeds the limit" in err
        assert "set_int_max_str_digits" not in err
        assert "Traceback" not in err


def test_profile_whose_totals_overflow_a_float_exits_2(tmp_path, capsys):
    # Each count fits a float; their sum does not.
    path = tmp_path / "counters.json"
    path.write_text(json.dumps([dict(JSON_ROW, dram_bytes=10**308)] * 2))
    profile = tmp_path / "profile.json"
    assert main(["ingest", "--input", str(path), "--out", str(profile)]) == 0
    code = main(["predict", "--profile", str(profile), "--mig", "1g.5gb"])
    err = capsys.readouterr().err
    assert code == 2
    assert "a kernel total is too large for a float" in err
    assert "Traceback" not in err


def test_profile_whose_rates_overflow_a_float_exits_2(tmp_path, capsys):
    # Every count and the duration are finite; ops per second is not.
    path = tmp_path / "counters.json"
    path.write_text(json.dumps([dict(JSON_ROW, duration_ns=1e-300,
                                     int_ops=10**18)]))
    profile = tmp_path / "profile.json"
    assert main(["ingest", "--input", str(path), "--query-id", "tiny",
                 "--out", str(profile)]) == 0
    for argv in (["roofline"], ["predict", "--mig", "1g.5gb"]):
        code = main([*argv, "--profile", str(profile)])
        err = capsys.readouterr().err
        assert code == 2
        assert "profile 'tiny': attained rates are not finite" in err
        assert "Traceback" not in err


def test_ingest_nonexistent_path_exits_1(tmp_path, capsys):
    code = main(["ingest", "--input", str(tmp_path / "missing.csv")])
    assert code == 1


def test_predict_full_allocation_slowdown_one(tmp_path, capsys):
    profile = write_profile(tmp_path)
    code, out = run(capsys, "predict", "--profile", str(profile),
                    "--alloc", "1,1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["prediction"]["slowdown"] == 1.0
    assert report["schema_version"] == 1
    assert "manifest_hash" in report


def test_predict_mig_instance_lookup(tmp_path, capsys):
    profile = write_profile(tmp_path, util_dram=0.95, util_l2=0.4)
    code, out = run(capsys, "predict", "--profile", str(profile),
                    "--mig", "1g.5gb")
    assert code == 0
    report = json.loads(out)
    # a saturated query on a 1/8 slice slows by 8x (minus rounding slack)
    assert report["prediction"]["slowdown"] == pytest.approx(7.6, rel=0.01)


def test_predict_requires_allocation(tmp_path, capsys):
    profile = write_profile(tmp_path)
    code = main(["predict", "--profile", str(profile)])
    assert code == 2


def test_predict_table_and_curve_outputs(tmp_path, capsys):
    profile = write_profile(tmp_path)
    curve = tmp_path / "curve.csv"
    code, out = run(capsys, "predict", "--profile", str(profile),
                    "--alloc", "0.5,0.5,0.5,0.5", "--table",
                    "--curve", str(curve))
    assert code == 0
    assert out.splitlines()[4].split() == ["slowdown", "1"]
    lines = curve.read_text().splitlines()
    assert lines[0] == "series,fraction,predicted_time_s,above_roof"
    assert len(lines) == 17


@pytest.mark.parametrize("alloc, extra, named", [
    ("inf,inf,inf,inf", (), "compute_fraction must be finite and > 0, got inf"),
    ("0.5,inf,0.5,0.5", ("--table",),
     "dram_bw_fraction must be finite and > 0, got inf"),
])
def test_predict_infinite_allocation_exits_2(tmp_path, capsys, alloc, extra,
                                             named):
    profile = write_profile(tmp_path)
    code = main(["predict", "--profile", str(profile), "--alloc", alloc,
                 *extra])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# A fraction > 0 so small that the time it implies overflows a float: the
# command line, with {compute} a compute-bound profile (the golden export),
# {memory} a memory-bound one and {tiny} a spec with a 5e-324 compute slice.
TOO_SMALL = {
    "predict-compute": (
        ["predict", "--profile", "{compute}", "--alloc", "1e-310,1,1,1"],
        "predicted slowdown overflows at compute_fraction 1e-310"),
    "eval-grid": (["eval", "--n-queries", "2", "--grid", "1e-320"],
                  "predicted slowdown overflows at "),
    "predict-memory": (
        ["predict", "--profile", "{memory}", "--alloc", "1,1e-320,1e-320,1"],
        "predicted slowdown overflows at dram_bw_fraction 1e-320 and "
        "l2_bw_fraction 1e-320"),
    "predict-linear": (
        ["predict", "--profile", "{memory}", "--alloc", "1e-320,0.5,0.5,0.5"],
        "linear baseline time overflows at compute ratio 1e-320"),
    "advise-catalog": (
        ["advise", "--workload", "{workload}", "--hw", "{tiny}",
         "--objective", "max-throughput"],
        "predicted slowdown overflows at compute_fraction 5e-324"),
}


@pytest.mark.parametrize("argv, named", TOO_SMALL.values(),
                         ids=TOO_SMALL.keys())
def test_a_fraction_too_small_for_a_float_exits_2_naming_it(tmp_path, capsys,
                                                             argv, named):
    compute = tmp_path / "golden.json"
    assert main(["ingest", "--input", str(GOLDEN), "--out", str(compute)]) == 0
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({**HW_DOC, "mig_catalog": [
        {"name": "tiny", "instances": [
            {"name": "t", "compute": 5e-324, "dram_bw": 1.0, "l2_bw": 1.0,
             "mem_capacity": 1.0}]}]}))
    paths = {"compute": compute, "memory": write_profile(tmp_path),
             "workload": write_workload(tmp_path, compute), "tiny": tiny}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_roofline_report_and_plot(tmp_path, capsys):
    profile = write_profile(tmp_path)
    plot = tmp_path / "plot.csv"
    code, out = run(capsys, "roofline", "--profile", str(profile),
                    "--level", "l2", "--plot", str(plot))
    assert code == 0
    report = json.loads(out)
    assert report["bound"] in ("compute", "dram", "l2")
    assert report["levels"]["dram"]["mem_bw"] == 1555e9
    assert report["levels"]["l2"]["mem_bw"] == 7050e9
    lines = plot.read_text().splitlines()
    assert lines[0] == "series,ai,throughput,above_roof"
    assert len(lines) == 1 + 64 + 1


def test_concurrency_deterministic_byte_identical(tmp_path, capsys):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile, doc=7, seed=7)
    args = ("concurrency", "--workload", str(workload), "--doc", "7",
            "--seed", "7")
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    report = json.loads(out1)
    assert report["doc"] == 7
    assert report["estimated_qps"] > 0
    assert report["simulated_qps"] > 0


def test_concurrency_doc_and_seed_overrides_apply_together(tmp_path, capsys):
    # Each override of the weighted mix renormalizes its weights, which can
    # move the last bits of a QPS; --seed 7 repeats the document's seed, so
    # adding it must not change the answer.
    queries = []
    for i, weight in enumerate([2.3, 0.7, 0.35]):
        path = write_profile(tmp_path, name=f"p{i}.json", t0=0.05 + 0.01 * i,
                             util_dram=0.3 + 0.2 * i)
        queries.append({"profile": path.name, "weight": weight})
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps({"schema_version": 1, "doc": 2, "seed": 7,
                                    "dispatch_count": 200,
                                    "queries": queries}))
    reports = []
    for extra in ((), ("--seed", "7")):
        code, out = run(capsys, "concurrency", "--workload", str(workload),
                        "--doc", "7", *extra)
        assert code == 0
        reports.append(json.loads(out))
    for key in ("estimated_qps", "simulated_qps"):
        assert reports[0][key] == reports[1][key]


def test_concurrency_catalog_config_and_trace(tmp_path, capsys):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile, doc=2)
    trace = tmp_path / "trace.csv"
    code, out = run(capsys, "concurrency", "--workload", str(workload),
                    "--mig", "3g.20gb+3g.20gb", "--trace", str(trace))
    assert code == 0
    assert json.loads(out)["config"] == "3g.20gb+3g.20gb"
    assert trace.read_text().splitlines()[0] == "instance,query_id,start,end"


def test_concurrency_mps_shares_memory(tmp_path, capsys):
    # saturated memory-bound mix: MIG splits stay flat, MPS scales with doc
    profile = write_profile(tmp_path, util_dram=0.95, util_l2=0.4,
                            cpu_overhead=0.0)
    workload = write_workload(tmp_path, profile, doc=4)
    code, mig_out = run(capsys, "concurrency", "--workload", str(workload))
    assert code == 0
    code, mps_out = run(capsys, "concurrency", "--workload", str(workload),
                        "--mps")
    assert code == 0
    mig_qps = json.loads(mig_out)["estimated_qps"]
    mps_qps = json.loads(mps_out)["estimated_qps"]
    assert json.loads(mps_out)["config"] == "mps-equal-4"
    assert mps_qps == pytest.approx(4 * mig_qps, rel=0.06)


def count_calls(monkeypatch, *functions) -> Counter:
    """Calls of each function by name, made through any roofcast module
    that bound it (`from .ingest import aggregate` copies the binding)."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items()
               if name.partition(".")[0] == "roofcast"]
    for fn in functions:
        def counted(*args, fn=fn, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("command", ["concurrency", "predict-curve"])
def test_an_answer_aggregates_each_profile_once(tmp_path, capsys, monkeypatch,
                                                command):
    if command == "concurrency":
        # Five profiles on an equal split: one distinct allocation.
        queries = [{"profile": profile_to_dict(profile_from_utils(
                        HW, util_compute=0.1, util_dram=0.3, util_l2=0.2,
                        t0=0.01 * (i + 1), query_id=f"q{i}")), "weight": 1.0}
                   for i in range(5)]
        workload = tmp_path / "workload.json"
        workload.write_text(json.dumps({"schema_version": 1, "doc": 2,
                                        "queries": queries}))
        argv = ["concurrency", "--workload", str(workload)]
        expected = {"aggregate": 5, "slowdown_unified": 5}
    else:
        # One prediction under --mig, then one per point of the curve.
        argv = ["predict", "--profile", str(write_profile(tmp_path)),
                "--mig", "1g.5gb", "--curve", str(tmp_path / "curve.csv")]
        expected = {"aggregate": 1, "slowdown_unified": 1 + 16}
    calls = count_calls(monkeypatch, aggregate, slowdown_unified)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert calls == expected


def test_advise_reports_18_rows(tmp_path, capsys):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile, doc=1)
    code, out = run(capsys, "advise", "--workload", str(workload),
                    "--objective", "max-throughput")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 18
    code2, out2 = run(capsys, "advise", "--workload", str(workload),
                      "--objective", "max-throughput")
    assert out.encode() == out2.encode()


def test_advise_table_output(tmp_path, capsys):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile, doc=1)
    code, out = run(capsys, "advise", "--workload", str(workload),
                    "--objective", "min-latency", "--table")
    assert code == 0
    assert out.splitlines()[0].startswith("config")
    assert len(out.splitlines()) == 19


def test_eval_synthetic_orders_models(tmp_path, capsys):
    code, out = run(capsys, "eval", "--seed", "3", "--n-queries", "40")
    assert code == 0
    report = json.loads(out)
    assert report["roofline"]["median_pct"] <= report["linear"]["median_pct"]


@pytest.mark.parametrize("grid, named", [
    ("x", "--grid: could not convert string to float: 'x'"),
    (",", "--grid: could not convert string to float: ''"),
    ("0.5,,1", "--grid: could not convert string to float: ''"),
    ("nan", "--grid: compute_fraction must be finite and > 0, got nan"),
])
def test_eval_bad_grid_exits_2_naming_the_flag(capsys, grid, named):
    code = main(["eval", "--n-queries", "2", "--grid", grid])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_eval_samples_mode(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("label,estimated,actual\nq1,1.1,1.0\nq2,3.0,2.0\n")
    code, out = run(capsys, "eval", "--samples", str(samples))
    assert code == 0
    report = json.loads(out)
    assert report["cdf"]["median_pct"] == pytest.approx(10.0)
    assert report["cdf"]["p95_pct"] == pytest.approx(50.0)
    assert report["manifest"]["input_digests"] == {
        str(samples): hashlib.sha256(samples.read_bytes()).hexdigest()}


def test_hw_env_var_overrides_default(tmp_path, capsys, monkeypatch):
    hw_json = tmp_path / "custom.json"
    hw_json.write_text(json.dumps(HW_DOC))
    profile = write_profile(tmp_path)
    monkeypatch.setenv("ROOFCAST_HW", str(hw_json))
    code, out = run(capsys, "roofline", "--profile", str(profile))
    assert code == 0
    report = json.loads(out)
    assert report["levels"]["dram"]["mem_bw"] == 10e9
    assert report["manifest"]["hardware_spec"] == str(hw_json)


def test_every_input_file_is_closed(tmp_path, capsys, monkeypatch):
    # A file left open warns when it is collected; as an error, the warning
    # goes to the unraisable hook, which is collected here.
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile)
    hw_json = tmp_path / "hw.json"
    hw_json.write_text(json.dumps(HW_DOC))
    samples = tmp_path / "samples.csv"
    samples.write_text("label,estimated,actual\nq1,1.1,1.0\n")
    broken = tmp_path / "broken.json"
    broken.write_text(profile.read_text()[:-9])
    commands = {
        ("roofline", "--profile", str(profile), "--hw", str(hw_json)): 0,
        ("predict", "--profile", str(profile), "--mig", "1g.5gb"): 0,
        ("concurrency", "--workload", str(workload)): 0,
        ("advise", "--workload", str(workload), "--objective", "min-latency"): 0,
        ("eval", "--samples", str(samples)): 0,
        ("roofline", "--profile", str(broken)): 2,
    }
    leaks = []
    monkeypatch.setattr(sys, "unraisablehook", leaks.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for argv, expected in commands.items():
            assert main(list(argv)) == expected, argv
            gc.collect()
    capsys.readouterr()
    assert [str(leak.exc_value) for leak in leaks] == []


@pytest.mark.parametrize("size", [0, 100, (1 << 16) - 1, 1 << 16,
                                  (1 << 16) + 1, 3 << 16])
def test_manifest_open_digests_and_hands_back_the_whole_file(tmp_path, size):
    # Files around the 64 KiB block size are digested whole and rewound.
    path = tmp_path / "input.json"
    data = (bytes(range(256)) * (size // 256 + 1))[:size]
    path.write_bytes(data)
    manifest = RunManifest({})
    with manifest.open(path) as stream:
        assert str(stream.name) == str(path)
        assert stream.read() == data
    assert manifest.input_digests == {
        str(path): hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("command", ["concurrency", "advise"])
def test_manifest_digests_the_profiles_a_workload_names(tmp_path, capsys,
                                                         command):
    profile = write_profile(tmp_path)
    argv = [command, "--workload", str(write_workload(tmp_path, profile))]
    if command == "advise":
        argv += ["--objective", "max-throughput"]
    code, before = run(capsys, *argv)
    assert code == 0
    write_profile(tmp_path, t0=0.07)
    code, after = run(capsys, *argv)
    assert code == 0
    before, after = json.loads(before), json.loads(after)
    digests = (before["manifest"]["input_digests"][str(profile)],
               after["manifest"]["input_digests"][str(profile)])
    assert digests[0] != digests[1]
    assert before["manifest_hash"] != after["manifest_hash"]


def test_manifest_hash_tells_apart_runs_with_other_options(tmp_path,
                                                          capsys):
    workload = str(write_workload(tmp_path, write_profile(tmp_path), doc=2))
    variants = [(), ("--doc", "4"), ("--mps",), ("--mig", "3g.20gb+3g.20gb"),
                ("--least-loaded",), ()]
    hashes = []
    for extra in variants:
        code, out = run(capsys, "concurrency", "--workload", workload, *extra)
        assert code == 0
        hashes.append(json.loads(out)["manifest_hash"])
    assert hashes[0] == hashes[-1]
    assert len(set(hashes)) == len(variants) - 1


def shared_catalog(**fields) -> list:
    """One config of two half-compute slices that each see all the memory."""
    half = {"name": "half", "compute": 0.5, "dram_bw": 1.0, "l2_bw": 1.0,
            "mem_capacity": 1.0}
    return [{"name": "shared", "instances": [half, half],
             "shared_memory": True, **fields}]


@pytest.mark.parametrize("command, fields, named", [
    ("roofline", {"peak_l2_gbps": math.inf},
     "peak_l2_gbps must be finite and > 0, got inf"),
    ("predict", {"peak_l2_gbps": math.inf},
     "peak_l2_gbps must be finite and > 0, got inf"),
    ("roofline", {"peak_compute_gops": math.inf},
     "peak_compute_gops must be finite and > 0, got inf"),
    ("predict", {"peak_compute_gops": math.inf},
     "peak_compute_gops must be finite and > 0, got inf"),
    ("predict", {"peak_dram_gbps": "fast"}, "peak_dram_gbps must be a number"),
    ("predict", {"sm_count": 1.5}, "sm_count must be an integer"),
    ("predict", {"l2_request_bytes": 128.5},
     "l2_request_bytes must be an integer"),
    ("advise", {"mig_catalog": shared_catalog(shared_memory="false")},
     "mig_catalog[0].shared_memory must be a boolean"),
    ("advise", {"mig_catalog": shared_catalog(instances=5)},
     "mig_catalog[0].instances must be a list"),
    ("advise", {"mig_catalog": shared_catalog(instances=[5])},
     "mig_catalog[0].instances[0] must be a mapping"),
    ("advise", {"mig_catalog": shared_catalog(
        instances=[{"name": "x", "compute": "half", "dram_bw": 1.0,
                    "l2_bw": 1.0, "mem_capacity": 1.0}])},
     "mig_catalog[0].instances[0].compute must be a number"),
    ("predict", {1: "one", None: "none"}, "unknown keys ['1', 'null']"),
    ("predict", {"sm_count": True}, "sm_count must be an integer, got True"),
    ("predict", {"peak_dram_gbps": True}, "peak_dram_gbps must be a number"),
    ("predict", {"schema_version": True}, "unsupported schema_version True"),
    ("roofline", {"peak_l2_gbps": 5},
     "peak_l2_gbps must exceed peak_dram_gbps (cache sits above DRAM); "
     "got 5 vs 10.0"),
    ("predict", {"sm_count": LONG_INT},
     "hw.json: invalid hardware spec JSON: Exceeds the limit"),
    ("advise", {"mig_catalog": [{"instances": []}]},
     "mig_catalog[0]: missing keys ['name']"),
    ("advise", {"mig_catalog": shared_catalog(
        instances=[{"name": "x", "compute": 1.5, "dram_bw": 1.0,
                    "l2_bw": 1.0, "mem_capacity": 1.0}])},
     "partition instance 'x': compute_fraction must be in (0, 1], got 1.5"),
    ("advise", {"mig_catalog": shared_catalog(
        instances=[{"name": "x", "compute": 0, "dram_bw": 1.0,
                    "l2_bw": 1.0, "mem_capacity": 1.0}])},
     "partition instance 'x': compute_fraction must be finite and > 0, "
     "got 0.0"),
])
def test_malformed_hardware_spec_exits_2_naming_the_field(tmp_path, capsys,
                                                          command, fields,
                                                          named):
    hw_json = tmp_path / "hw.json"
    hw_json.write_text(unlimited(json.dumps, {**HW_DOC, **fields}))
    profile = write_profile(tmp_path)
    argv = {
        "roofline": ["roofline", "--profile", str(profile)],
        "predict": ["predict", "--profile", str(profile),
                    "--alloc", "0.5,0.5,0.5,0.5"],
        "advise": ["advise", "--workload",
                   str(write_workload(tmp_path, profile)),
                   "--objective", "max-throughput"],
    }[command]
    code = main([*argv, "--hw", str(hw_json)])
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err
    assert "set_int_max_str_digits" not in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# One input of each loader that decodes UTF-8: the command line, and which
# of the files it names holds the byte 0xff.
NOT_UTF8 = {
    "counter-file": (["ingest", "--input", "{bad}"], "bad.csv"),
    "profile": (["roofline", "--profile", "{bad}"], "bad.json"),
    "workload": (["concurrency", "--workload", "{bad}"], "bad.json"),
    "workload-profile": (["concurrency", "--workload", "{workload}"],
                         "profile.json"),
    "hardware-spec": (["roofline", "--profile", "{profile}", "--hw", "{bad}"],
                      "bad.json"),
    "samples": (["eval", "--samples", "{bad}"], "bad.csv"),
}


@pytest.mark.parametrize("argv, bad_name", NOT_UTF8.values(),
                         ids=NOT_UTF8.keys())
def test_input_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys,
                                                        argv, bad_name):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile)
    bad = tmp_path / bad_name
    bad.write_bytes(b"kernel_name\xff\n")
    paths = {"bad": bad, "profile": profile, "workload": workload}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{bad}: not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Input a loader must refuse by name rather than crash on: the command line,
# which of its files is broken, what that file holds and the message.
DEEP_JSON = "[" * 100_000 + "]" * 100_000
UNPARSABLE = {
    "counter-json": (["ingest", "--input", "{bad}"], "bad.json", DEEP_JSON,
                     "invalid JSON counter file: maximum recursion depth"),
    "profile": (["roofline", "--profile", "{bad}"], "bad.json", DEEP_JSON,
                "invalid profile JSON: maximum recursion depth"),
    "workload": (["concurrency", "--workload", "{bad}"], "bad.json",
                 DEEP_JSON, "invalid workload JSON: maximum recursion depth"),
    "workload-profile": (["concurrency", "--workload", "{workload}"],
                         "profile.json", DEEP_JSON,
                         "invalid profile JSON: maximum recursion depth"),
    "counter-csv-header": (
        ["ingest", "--input", "{bad}"], "bad.csv",
        "kernel_name,duration_ns\rdram_bytes,l2_requests,int_ops\n",
        "row 1: new-line character seen in unquoted field"),
    "samples-row": (["eval", "--samples", "{bad}"], "bad.csv",
                    "label,estimated,actual\na,1\r,2\n",
                    "row 2: new-line character seen in unquoted field"),
    "hardware-spec": (["roofline", "--profile", "{profile}", "--hw", "{bad}"],
                      "bad.json", DEEP_JSON,
                      "invalid hardware spec JSON: maximum recursion depth"),
    "hardware-spec-yaml": (
        ["roofline", "--profile", "{profile}", "--hw", "{bad}"], "hw.yaml",
        "schema_version: 1\nname: custom\n",
        "invalid hardware spec JSON: Expecting value: line 1 column 1"),
}


@pytest.mark.parametrize("argv, bad_name, text, message", UNPARSABLE.values(),
                         ids=UNPARSABLE.keys())
def test_unparsable_input_exits_2_naming_the_file(tmp_path, capsys, argv,
                                                  bad_name, text, message):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile)
    bad = tmp_path / bad_name
    bad.write_text(text)
    paths = {"bad": bad, "profile": profile, "workload": workload}
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert f"{bad}: {message}" in captured.err
    assert "universal-newline" not in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_concurrency_doc_beyond_the_sm_count_exits_2(tmp_path, capsys):
    # Each instance of an equal split needs at least one of the 108 SMs.
    workload = str(write_workload(tmp_path, write_profile(tmp_path)))
    code, _ = run(capsys, "concurrency", "--workload", workload, "--doc", "108")
    assert code == 0
    code = main(["concurrency", "--workload", workload, "--doc", "109"])
    err = capsys.readouterr().err
    assert code == 2
    assert "doc (degree of concurrency) must be at most 108" in err
    assert "got 109" in err


def test_invalid_workload_doc_exits_2(tmp_path, capsys):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile, doc=3)
    code = main(["concurrency", "--workload", str(workload),
                 "--mig", "3g.20gb+3g.20gb"])
    assert code == 2


@pytest.mark.parametrize("fields, named", [
    ({"queries": ["profile.json"]}, "queries[0] must be"),
    ({"queries": [{"profile": "profile.json", "weight": "heavy"}]},
     "queries[0].weight must be"),
    ({"queries": [{"profile": "profile.json", "weight": float("nan")}]},
     "queries[0].weight must be"),
    ({"doc": "two"}, "doc must be"),
    ({"queries": 5}, "queries must be"),
    ({"dispatch_count": "many"}, "dispatch_count must be"),
    ({"seed": [1]}, "seed must be"),
    ({"doc": True}, "doc must be an integer, got True"),
    ({"schema_version": True}, "unsupported schema_version True"),
    ({"seed": LONG_INT}, "workload.json: invalid workload JSON: Exceeds the"),
    ({"queries": [{"weight": 1.0}]}, "queries[0]: missing keys ['profile']"),
    ({"doc": 10**20}, "doc (degree of concurrency) must be at most 108"),
])
def test_malformed_workload_exits_2_naming_the_field(tmp_path, capsys,
                                                     fields, named):
    profile = write_profile(tmp_path)
    workload = write_workload(tmp_path, profile)
    doc = json.loads(workload.read_text())
    doc.update(fields)
    workload.write_text(unlimited(json.dumps, doc))
    code = main(["concurrency", "--workload", str(workload)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields, named", [
    ({"dram_utilization": "x"}, "dram_utilization must be a number"),
    ({"cpu_overhead_s": float("nan")}, "cpu_overhead must be finite"),
    ({"setup_overhead_s": float("inf")}, "setup_overhead must be finite"),
    ({"scale_factor": "abc"}, "scale_factor must be a number"),
    ({"scale_factor": float("inf")}, "scale_factor must be finite"),
    ({"transfer_in_bytes": 2.5}, "transfer_in_bytes must be an integer"),
    ({"l2_hit_rate": [0.5]}, "l2_hit_rate must be a number"),
    ({"kernels": [5]}, "kernels[1] must be a mapping"),
    ({"kernels": "k0"}, "kernels must be a list"),
    ({"plan": [3]}, "plan must be a list of mappings"),
    ({"transfer_in_bytes": 10**400}, "transfer_in_bytes must be an integer"),
    ({"scale_factor": True}, "scale_factor must be a number, got True"),
    ({"schema_version": True}, "unsupported schema_version True"),
])
def test_malformed_inline_profile_exits_2_naming_the_field(tmp_path, capsys,
                                                          fields, named):
    profile = profile_from_utils(HW, util_compute=0.1, util_dram=0.3,
                                 util_l2=0.2, t0=0.05)
    workload = write_workload(tmp_path, write_profile(tmp_path))
    doc = json.loads(workload.read_text())
    doc["queries"] = [{"profile": {**profile_to_dict(profile), **fields}}]
    workload.write_text(json.dumps(doc))
    code = main(["concurrency", "--workload", str(workload)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fields, named", [
    ({"doc": 2.7}, "doc must be an integer"),
    ({"dispatch_count": 10.5}, "dispatch_count must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": float("inf")}, "seed must be an integer"),
])
def test_non_integral_workload_field_exits_2(tmp_path, capsys, fields, named):
    workload = write_workload(tmp_path, write_profile(tmp_path))
    doc = json.loads(workload.read_text())
    doc.update(fields)
    workload.write_text(json.dumps(doc))
    code = main(["concurrency", "--workload", str(workload)])
    err = capsys.readouterr().err
    assert code == 2
    assert named in err
    assert "Traceback" not in err


def test_integral_float_workload_fields_are_accepted(tmp_path, capsys):
    workload = write_workload(tmp_path, write_profile(tmp_path))
    doc = json.loads(workload.read_text())
    doc.update({"doc": 2.0, "dispatch_count": 1e3, "seed": 3.0})
    workload.write_text(json.dumps(doc))
    code, out = run(capsys, "concurrency", "--workload", str(workload))
    assert code == 0
    report = json.loads(out)
    assert (report["doc"], report["dispatch_count"]) == (2, 1000)


def test_nan_in_report_exits_3_without_traceback(tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setattr("roofcast.cli.estimate_qps",
                        lambda *args: float("nan"))
    workload = write_workload(tmp_path, write_profile(tmp_path))
    code = main(["concurrency", "--workload", str(workload)])
    captured = capsys.readouterr()
    assert code == 3
    assert "internal invariant failure" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
