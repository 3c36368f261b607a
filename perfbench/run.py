"""roofcast benchmark: CLI answer times on fixed, seeded question sets.

    python3 perfbench/run.py --workload plan-240 --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record

Each question is a fresh child answering one roofcast CLI invocation (see
child.py); children run one at a time, a closed loop with one client. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics, with ``--trace 1`` one with the per-layer metrics of separate
traced passes. Every output is checked against the reference digests recorded
from the seed commit. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from child import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
LAUNCHER = HERE / "launcher.py"
REFERENCE = HERE / "reference_digests.json"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# The seed selects one of this many input sets; reference digests are
# recorded for each of them.
INPUT_SETS = 32
# A fresh --version child is timed for setup_s before each untraced
# question that starts at least this long after the previous one, so the
# samples spread evenly over the run.
SETUP_EVERY_S = 1.0
# Least traced passes per --trace 1 run; their counts must agree exactly.
TRACED_PASSES = 2
# A run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "pass_s": "s", "cli_p50_s": "s", "work_s": "s",
              "peak_rss_mb": "MB"}

PER_LAYER = (
    "ingest.aggregate.calls", "ingest.aggregate.self_s",
    "ingest.aggregate.distinct_ratio",
    "scaling.slowdown_unified.calls", "scaling.slowdown_unified.self_s",
    "scaling.slowdown_unified.distinct_ratio",
    "advisor.advise.total_s", "advisor.advise.self_s",
    "concurrency.estimate_qps.total_s", "concurrency.warm_query_time.calls",
    "evalkit.generate_synthetic.total_s", "evalkit.error_cdf.total_s",
    "evalkit.oracle_actual_time.calls",
    "concurrency.simulate_dispatch.calls",
    "concurrency.simulate_dispatch.self_s", "concurrency.dispatches_per_s",
    "ingest.parse_counter_file.calls", "ingest.parse_counter_file.total_s",
    "ingest.kernels_parsed", "ingest.read_profile_json.total_s",
    "ingest.write_profile_json.total_s", "roofline.emit_plot_data.total_s",
    "roofline.classify.calls",
    "core.load_hardware_spec.calls", "core.load_hardware_spec.total_s",
    "cli.import_s", "cli.main.calls", "cli.main.total_s",
    "trace.overhead_s",
)

# Calls per question read from the code at the seed commit; the traced run
# reports its own counts beside these.
SEED_COUNTS = {
    ("plan-240", "advise-min-latency"):
        {"ingest.aggregate": 39_600, "scaling.slowdown_unified": 39_600},
    ("plan-240", "advise-max-throughput"):
        {"ingest.aggregate": 39_600, "scaling.slowdown_unified": 39_600},
    ("plan-240", "advise-throughput-per-resource"):
        {"ingest.aggregate": 39_600, "scaling.slowdown_unified": 39_600},
    ("plan-240", "concurrency"):
        {"ingest.aggregate": 3_360, "scaling.slowdown_unified": 3_360},
    ("plan-240", "eval"):
        {"ingest.aggregate": 480, "scaling.slowdown_unified": 1_200},
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


@dataclass
class Answer:
    """What one child did: wall time, memory, time in main, verdict."""

    question: str
    wall_s: float
    rss_mb: float
    import_s: float
    main_s: float
    ok: bool
    digest: str
    layers: dict | None     # span_summary of a traced child


class Bench:
    """Runs one workload's questions as children inside a work directory."""

    def __init__(self, work: Path, questions, reference: list[str] | None):
        self.work = work
        self.questions = questions
        self.reference = reference
        self.env = {k: v for k, v in os.environ.items() if k != "ROOFCAST_HW"}
        self.env["PYTHONPATH"] = str(SRC)
        self.failures: list[str] = []
        self.setup: list[float] = []
        self.last_setup = float("-inf")
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def _spawn(self, argv) -> tuple[float, int, float]:
        """Run argv to completion: (wall seconds, exit code, max RSS in MB)."""
        request = {"argv": argv, "cwd": str(self.work),
                   "stdout": str(self.work / "stdout"),
                   "stderr": str(self.work / "stderr")}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return reply["wall_s"], reply["code"], reply["rss_mb"]

    def close(self) -> None:
        """Stop the launcher, and with it any child still running."""
        if self.launcher.poll() is None:
            self.launcher.terminate()
        self.launcher.wait()
        self.launcher.stdin.close()
        self.launcher.stdout.close()

    def version(self) -> float:
        """Wall time of a fresh `python -m roofcast.cli --version` child."""
        wall, code, _ = self._spawn(
            [sys.executable, "-m", "roofcast.cli", "--version"])
        if code != 0:
            raise RuntimeError("roofcast --version failed: "
                               + (self.work / "stderr").read_text()[-500:])
        return wall

    def ask(self, index: int, traced: bool) -> Answer:
        q = self.questions[index]
        for path, _ in q.outputs:
            if path != "-":
                (self.work / path).unlink(missing_ok=True)
        timing = self.work / "timing.json"
        timing.unlink(missing_ok=True)
        wall, code, rss = self._spawn(
            [sys.executable, str(CHILD), str(timing),
             "--spans" if traced else "--time", "--", *q.argv])
        digest = output_digest(self.work, q.outputs)
        record = json.loads(timing.read_text()) if timing.exists() else {}
        ok = code == 0 and (self.reference is None
                            or digest == self.reference[index])
        if not ok:
            stderr = (self.work / "stderr").read_text(errors="replace")
            self.failures.append(
                f"{q.name}: exit {code}, digest {digest} (reference "
                f"{self.reference[index] if self.reference else '-'}) "
                f"{stderr[-300:]}")
        return Answer(q.name, wall, rss, record.get("import_s", 0.0),
                      record.get("main_s", 0.0), ok, digest,
                      span_summary(record) if traced else None)

    def run_pass(self, traced: bool = False) -> list[Answer]:
        answers = []
        for i in range(len(self.questions)):
            if not traced and time.perf_counter() - self.last_setup >= SETUP_EVERY_S:
                self.setup.append(self.version())
                self.last_setup = time.perf_counter()
            answers.append(self.ask(i, traced))
        return answers


def output_digest(work: Path, outputs) -> str:
    """One SHA-256 over a question's outputs, reports without their manifest."""
    combined = hashlib.sha256()
    for path, is_report in outputs:
        target = work / ("stdout" if path == "-" else path)
        data = target.read_bytes() if target.exists() else b"<missing>"
        if is_report:
            data = strip_manifest(data)
        combined.update(hashlib.sha256(data).digest())
    return combined.hexdigest()[:16]


def strip_manifest(data: bytes) -> bytes:
    try:
        report = json.loads(data)
    except ValueError:
        return data
    if not isinstance(report, dict):
        return data
    report.pop("manifest", None)
    report.pop("manifest_hash", None)
    return (json.dumps(report, indent=2) + "\n").encode("utf-8")


def span_summary(record: dict) -> dict:
    """Calls, total and self time per traced function of one child.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly, so the children never overlap.
    """
    spans = record.get("spans", [])
    covered = defaultdict(float)
    for _, _, start, end, parent in spans:
        covered[parent] += end - start
    calls, total, self_s = Counter(), Counter(), Counter()
    for sid, name, start, end, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - covered[sid]
    return {"calls": calls, "total_s": total, "self_s": self_s,
            "distinct": Counter(record.get("distinct", {})),
            "units": Counter(record.get("units", {}))}


def layer_stats(answers: list[Answer]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summed = defaultdict(Counter)
    for a in answers:
        for key, counter in a.layers.items():
            summed[key].update(counter)
    calls = summed["calls"]
    stats = {}
    for name in (*TRACED, "cli.main"):
        stats[f"{name}.calls"] = calls[name]
        stats[f"{name}.total_s"] = summed["total_s"][name]
        stats[f"{name}.self_s"] = summed["self_s"][name]
        stats[f"{name}.distinct_ratio"] = (
            summed["distinct"][name] / calls[name] if calls[name] else 0.0)
    sim = "concurrency.simulate_dispatch"
    sim_s = summed["self_s"][sim]
    stats["concurrency.dispatches_per_s"] = (
        summed["units"][sim] / sim_s if sim_s > 0 else 0.0)
    stats["ingest.kernels_parsed"] = summed["units"]["ingest.parse_counter_file"]
    stats["cli.import_s"] = statistics.median(a.import_s for a in answers)
    return stats


def question_counts(answers: list[Answer]) -> dict[str, Counter]:
    return {a.question: a.layers["calls"] for a in answers}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> dict:
    """Generate the inputs for seed, answer the questions, return metrics.

    Passes repeat until `seconds` have passed; with `trace`, each untraced
    pass is followed by a traced one. `record` answers without a reference,
    in at least two passes.
    """
    from workloads import WORKLOADS

    input_set = seed % INPUT_SETS
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    questions = WORKLOADS[name](work, input_set)
    reference = None if record else load_reference(name, questions, input_set)
    bench = Bench(work, questions, reference)
    try:
        bench.version()                         # compiles the bytecode
        passes, traced = [], []
        start = time.perf_counter()
        while True:
            passes.append(bench.run_pass())
            if trace:
                traced.append(bench.run_pass(traced=True))
            now = time.perf_counter()
            cycle = (now - start) / len(passes)
            # Stop before a cycle that would end after `seconds`.
            if (len(passes) >= (2 if record else 1)
                    and len(traced) >= (TRACED_PASSES if trace else 0)
                    and now + cycle > start + seconds):
                break
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
    answered = [a for p in passes + traced for a in p]
    result = {
        "workload": name, "seed": seed, "input_set": input_set,
        "passes": len(passes), "questions_per_pass": len(questions),
        "setup_samples": len(bench.setup),
        "attempted": len(answered),
        "failed": sum(not a.ok for a in answered),
        "failures": bench.failures,
        "questions": [q.name for q in questions],
        "pass_digests": [[a.digest for a in p] for p in passes],
        "end_to_end": {
            "setup_s": statistics.median(bench.setup),
            "pass_s": statistics.median(sum(a.wall_s for a in p)
                                        for p in passes),
            "cli_p50_s": statistics.median(
                statistics.median(a.wall_s for a in p) for p in passes),
            "work_s": statistics.median(sum(a.main_s for a in p)
                                        for p in passes),
            "peak_rss_mb": statistics.median(max(a.rss_mb for a in p)
                                             for p in passes),
        },
    }
    if trace:
        per_pass = [layer_stats(p) for p in traced]
        counts = [question_counts(p) for p in traced]
        exact = [{m: s[m] for m in PER_LAYER if unit_of(m) in ("count", "ratio")}
                 for s in per_pass]
        if any(c != counts[0] for c in counts) or any(e != exact[0] for e in exact):
            result["failures"].append(
                "counts or ratios differ between traced passes")
        layer = {m: statistics.median(s[m] for s in per_pass)
                 for m in PER_LAYER if m != "trace.overhead_s"}
        layer.update(exact[0])
        layer["trace.overhead_s"] = (layer["cli.main.total_s"]
                                     - result["end_to_end"]["work_s"])
        result["per_layer"] = layer
        result["question_counts"] = counts[0]
    return result


def load_reference(name: str, questions, input_set: int) -> list[str]:
    entry = json.loads(REFERENCE.read_text())["workloads"][name]
    if entry["questions"] != [q.name for q in questions]:
        raise RuntimeError(f"{name}: question list differs from the reference")
    return entry["digests"][str(input_set)]


def summary_lines(result: dict, trace: bool) -> list[str]:
    """Every metric by name with its unit, for a reader of the run."""
    attempted, failed = result["attempted"], result["failed"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']} (input set "
        f"{result['input_set']})  {result['passes']} timed passes",
    ]
    e2e = result["end_to_end"]
    notes = {"setup_s": f"median of {result['setup_samples']} --version children",
             "cli_p50_s": f"median over passes of the median of "
                          f"{result['questions_per_pass']} questions",
             "pass_s": "median over passes", "work_s": "median over passes",
             "peak_rss_mb": "median over passes of the largest child"}
    for metric, value in e2e.items():
        lines.append(f"  {metric:<40} {value:>14.6g} {unit_of(metric):<6}"
                     f"  {notes[metric]}")
    lines.append(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} ratio "
                 f"  {failed} of {attempted} questions")
    if trace:
        for metric, value in result["per_layer"].items():
            lines.append(f"  {metric:<40} {value:>14.6g} {unit_of(metric)}")
        lines.append("  calls per question (seed commit in brackets):")
        for question, counts in result["question_counts"].items():
            seed = SEED_COUNTS.get((result["workload"], question), {})
            shown = "  ".join(
                f"{layer}={counts[layer]}"
                + (f" [{seed[layer]}]" if layer in seed else "")
                for layer in ("ingest.aggregate", "scaling.slowdown_unified",
                              "concurrency.simulate_dispatch",
                              "ingest.parse_counter_file"))
            lines.append(f"    {question:<32} {shown}")
    lines += [f"  FAILED {f}" for f in result["failures"]]
    return lines


def result_json(result: dict, trace: bool) -> str:
    metrics = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": unit_of(m)}
                    for m, v in metrics.items()},
    })


def record_references() -> int:
    """Rewrite the reference digests of every workload and input set.

    Each input set is answered in two passes, which must give the same
    digests.
    """
    from workloads import WORKLOADS

    doc = {"input_sets": INPUT_SETS, "workloads": {}}
    for name in WORKLOADS:
        digests = {}
        for input_set in range(INPUT_SETS):
            result = run_workload(name, input_set, 0, False, record=True)
            first, *rest = result["pass_digests"]
            if result["failures"] or any(d != first for d in rest):
                print(f"{name} input set {input_set}: not reproducible",
                      *result["failures"], sep="\n", file=sys.stderr)
                return 1
            digests[str(input_set)] = first
            print(f"{name} input set {input_set}: recorded", file=sys.stderr)
        doc["workloads"][name] = {"questions": result["questions"],
                                  "digests": digests}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


def smoke() -> int:
    """Run each workload once, untraced and traced, and check the output.

    Every metric BENCHMARK.json lists must be emitted with its unit, no
    question may fail, and the traced passes must agree on their counts.
    """
    from workloads import WORKLOADS

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in listed["end_to_end"] + listed["per_layer"]}
    bad = []
    for name in WORKLOADS:
        result = run_workload(name, 0, 0, True)
        print("\n".join(summary_lines(result, True)))
        emitted = {**result["end_to_end"], **result["per_layer"]}
        bad += [f"{name}: {m} not emitted with unit {u}"
                for m, u in expected.items()
                if m not in emitted or unit_of(m) != u]
        if result["failed"] or result["failures"]:
            bad.append(f"{name}: fail_ratio {result['failed']}/"
                       f"{result['attempted']}, {result['failures']}")
    print("smoke: " + ("ok" if not bad else "FAILED\n" + "\n".join(bad)))
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("plan-240", "dispatch-1m",
                                               "ingest-wide"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once and check the metrics")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference digests from this commit")
    args = parser.parse_args(argv)
    if not (SRC / "roofcast" / "cli.py").is_file():
        print(f"perfbench: no roofcast sources at {SRC}; run it from the root "
              "of a roofcast checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.record:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")

    def give_up(signum, frame):
        raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, give_up)
    signal.alarm(RUN_DEADLINE_S)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    signal.alarm(0)
    print("\n".join(summary_lines(result, bool(args.trace))))
    print(result_json(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
