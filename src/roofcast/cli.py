"""Command-line interface: ingest, roofline, predict, concurrency, advise, eval.

Reports are JSON on stdout by default (--out redirects to a file) and every
report embeds the run manifest and its hash, so identical invocations are
byte-identical. Exit codes: 0 success, 1 I/O failure, 2 validation failure,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO

from . import __version__
from .advisor import Objective, advise
from .concurrency import (
    equal_split_config,
    estimate_qps,
    instance_times,
    load_workload,
    simulate_dispatch,
)
from .core import (
    HardwareSpec,
    ResourceAllocation,
    default_hardware_spec,
    full_allocation,
    load_hardware_spec,
)
from .errors import InternalInvariantError, ValidationError
from .evalkit import (
    ErrorSample,
    error_cdf,
    generate_synthetic,
    oracle_actual_time,
    read_samples_csv,
    write_samples_csv,
)
from .ingest import (
    aggregate,
    load_profile,
    parse_counter_file,
    QueryProfile,
    validate_against_roofs,
    write_profile_json,
)
from .roofline import (
    MemLevel,
    build_ceilings,
    classify,
    emit_plot_data,
    place_point,
    write_series_csv,
)
from .scaling import linear_baseline, scaling_curve, slowdown_unified

REPORT_SCHEMA_VERSION = 1
HW_ENV_VAR = "ROOFCAST_HW"

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3


@dataclass
class RunManifest:
    """Provenance of one CLI run: its parsed command options, the digest of
    each input file and the hardware spec; identical manifests imply
    identical output."""

    options: dict[str, object]
    input_digests: dict[str, str] = field(default_factory=dict)
    hardware_spec: str = "bundled:a100_40gb"
    tool_version: str = __version__

    @classmethod
    def of(cls, args: argparse.Namespace) -> RunManifest:
        """A manifest of the options in args, less the command handler
        that argparse keeps in func."""
        options = vars(args).copy()
        del options["func"]
        return cls(options)

    def open(self, path: str | Path) -> IO[bytes]:
        """An input file opened to be read as bytes, digested 64 KiB at a
        time and rewound to be parsed: every command opens its inputs so,
        and streams them, never holding one whole."""
        stream = open(path, "rb")
        try:
            digest = hashlib.sha256()
            while block := stream.read(1 << 16):
                digest.update(block)
            stream.seek(0)
        except BaseException:
            stream.close()
            raise
        self.input_digests[str(path)] = digest.hexdigest()
        return stream

    def to_dict(self) -> dict:
        return {
            "options": dict(sorted(self.options.items())),
            "input_digests": dict(sorted(self.input_digests.items())),
            "hardware_spec": self.hardware_spec,
            "tool_version": self.tool_version,
        }

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _resolve_hw(args, manifest: RunManifest) -> HardwareSpec:
    path = getattr(args, "hw", None) or os.environ.get(HW_ENV_VAR)
    if path:
        manifest.hardware_spec = str(path)
        return load_hardware_spec(path, manifest.open)
    return default_hardware_spec()


def _emit_report(payload: dict, manifest: RunManifest, out: str | None) -> None:
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "manifest": manifest.to_dict(),
        "manifest_hash": manifest.hash(),
        **payload,
    }
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalInvariantError(f"report is not valid JSON: {exc}") from None
    _write_text(text, out)


def _write_text(text: str, out: str | None) -> None:
    """Write text to the --out file, or to stdout when there is none."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_fractions(text: str, flag: str) -> list[float]:
    """The comma-separated numbers given to flag, or a ValidationError that
    names the flag. ResourceAllocation checks their range."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def _parse_alloc(text: str) -> ResourceAllocation:
    if text.count(",") != 3:
        raise ValidationError(
            "--alloc expects 4 comma-separated fractions in the order "
            "compute,dram,l2,capacity")
    return ResourceAllocation(*_parse_fractions(text, "--alloc"))


def _find_instance_alloc(hw: HardwareSpec, name: str) -> ResourceAllocation:
    for config in hw.mig_catalog:
        for inst in config.instances:
            if inst.name == name:
                return inst.allocation
    raise ValidationError(
        f"no partition instance named {name!r} in the catalog of {hw.name!r}")


def _find_config(hw: HardwareSpec, name: str):
    for config in hw.mig_catalog:
        if config.name == name:
            return config
    raise ValidationError(
        f"no partition config named {name!r} in the catalog of {hw.name!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_ingest(args) -> int:
    fmt = args.format or ("json" if args.input.endswith(".json") else "csv")
    with open(args.input, "rb") as stream:
        kernels = parse_counter_file(stream, fmt)
    profile = QueryProfile(
        query_id=args.query_id or Path(args.input).stem,
        system=args.system,
        scale_factor=args.scale_factor,
        kernels=kernels,
        cpu_overhead=args.cpu_overhead,
        setup_overhead=args.setup_overhead,
        transfer_in_bytes=args.transfer_in,
        transfer_out_bytes=args.transfer_out,
        dram_utilization=args.dram_utilization,
        l1_hit_rate=args.l1_hit_rate,
        l2_hit_rate=args.l2_hit_rate,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            write_profile_json(profile, sink)
    else:
        write_profile_json(profile, sys.stdout)
    return EXIT_OK


def cmd_roofline(args) -> int:
    manifest = RunManifest.of(args)
    profile = load_profile(args.profile, manifest.open)
    hw = _resolve_hw(args, manifest)
    metrics = aggregate(profile, hw)
    roofs = {level: (build_ceilings(hw, full_allocation(), level),
                     place_point(metrics, level, profile.query_id))
             for level in (MemLevel.DRAM, MemLevel.L2)}
    payload = {
        "query_id": profile.query_id,
        "bound": classify(metrics, hw).value,
        "levels": {
            level.value: {
                "mem_bw": ceilings.mem_bw,
                "compute_bw": ceilings.compute_bw,
                "knee_ai": ceilings.knee_ai,
                "ai": point.ai,
                "throughput": point.throughput,
            }
            for level, (ceilings, point) in roofs.items()},
        "warnings": validate_against_roofs(metrics, hw),
    }
    if args.plot:
        ceilings, point = roofs[MemLevel(args.level)]
        with open(args.plot, "wb") as sink:
            emit_plot_data([point], ceilings, sink)
    _emit_report(payload, manifest, args.out)
    return EXIT_OK


def cmd_predict(args) -> int:
    manifest = RunManifest.of(args)
    profile = load_profile(args.profile, manifest.open)
    hw = _resolve_hw(args, manifest)
    if args.alloc:
        alloc = _parse_alloc(args.alloc)
        alloc_name = args.alloc
    elif args.mig:
        alloc = _find_instance_alloc(hw, args.mig)
        alloc_name = args.mig
    else:
        raise ValidationError("predict needs either --alloc or --mig")
    metrics = aggregate(profile, hw)
    prediction = slowdown_unified(metrics, metrics.total_duration, hw, alloc)
    if args.curve:
        fractions = [i / 16 for i in range(1, 17)]
        curve = scaling_curve(metrics, hw, fractions)
        with open(args.curve, "wb") as sink:
            write_series_csv(
                ((profile.query_id, f, t, False) for f, t in curve), sink,
                header="series,fraction,predicted_time_s,above_roof")
    if args.table:
        # human-readable view rounds to 4 significant digits; the JSON
        # report below carries full precision
        lines = [
            f"{'query':<14} {profile.query_id}",
            f"{'allocation':<14} {alloc_name}",
            f"{'baseline_s':<14} {prediction.baseline_time:.4g}",
            f"{'predicted_s':<14} {prediction.predicted_time:.4g}",
            f"{'slowdown':<14} {prediction.slowdown:.4g}",
            f"{'bound':<14} {prediction.bound.value}",
            f"{'direction':<14} {prediction.direction.value}",
            f"{'confidence':<14} {prediction.confidence.value}",
        ]
        _write_text("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    payload = {
        "query_id": profile.query_id,
        "allocation": alloc_name,
        "prediction": prediction.to_dict(),
        "linear_baseline_time_s": linear_baseline(
            metrics.total_duration, alloc.compute_fraction),
    }
    _emit_report(payload, manifest, args.out)
    return EXIT_OK


def cmd_concurrency(args) -> int:
    manifest = RunManifest.of(args)
    hw = _resolve_hw(args, manifest)
    workload = load_workload(args.workload, manifest.open)
    overrides = {name: value for name in ("doc", "seed")
                 if (value := getattr(args, name)) is not None}
    if overrides:
        workload = replace(workload, **overrides)
    if workload.doc > hw.sm_count:
        raise ValidationError(
            f"doc (degree of concurrency) must be at most {hw.sm_count}, the "
            f"SM count of {hw.name!r}: every instance needs at least one SM; "
            f"got {workload.doc}")
    if args.mig:
        config = _find_config(hw, args.mig)
    else:
        config = equal_split_config(workload.doc, mps=args.mps)
    table = instance_times(workload, hw, config)
    estimated = estimate_qps(workload, table)
    trace_sink = None
    if args.trace:
        trace_sink = open(args.trace, "wb")
    try:
        simulated = simulate_dispatch(workload, table,
                                      least_loaded=args.least_loaded,
                                      trace_sink=trace_sink)
    finally:
        if trace_sink is not None:
            trace_sink.close()
    payload = {
        "doc": workload.doc,
        "config": config.name,
        "dispatch_count": workload.dispatch_count,
        "estimated_qps": estimated,
        "simulated_qps": simulated,
    }
    _emit_report(payload, manifest, args.out)
    return EXIT_OK


def cmd_advise(args) -> int:
    manifest = RunManifest.of(args)
    hw = _resolve_hw(args, manifest)
    workload = load_workload(args.workload, manifest.open)
    objective = Objective(args.objective)
    report = advise(workload, hw, objective)
    if args.table:
        lines = [f"{'config':<28} {'doc':>3} {'qps':>12} {'latency_s':>12} "
                 f"{'used':>6}  flags"]
        for row in report.rows:
            lines.append(
                f"{row.config.name:<28} {len(row.config.instances):>3} "
                f"{row.predicted_qps:>12.4g} {row.predicted_mean_latency:>12.4g} "
                f"{row.resource_fraction_used:>6.4g}  -")
        _write_text("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    _emit_report(report.to_dict(), manifest, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    manifest = RunManifest.of(args)
    if args.samples:
        with manifest.open(args.samples) as stream:
            samples = read_samples_csv(stream)
        cdf = error_cdf(samples)
        payload = {"n_samples": len(samples), "cdf": cdf.to_dict()}
        _emit_report(payload, manifest, args.out)
        return EXIT_OK

    hw = _resolve_hw(args, manifest)
    grid = _parse_fractions(args.grid, "--grid")
    try:
        allocations = [ResourceAllocation(f, f, f, f) for f in grid]
    except ValidationError as exc:
        raise ValidationError(f"--grid: {exc}") from None
    device, profiles = generate_synthetic(args.seed, args.n_queries, hw)
    roofline_samples: list[ErrorSample] = []
    linear_samples: list[ErrorSample] = []
    for profile in profiles:
        metrics = aggregate(profile, hw)
        t0 = metrics.total_duration
        for f, alloc in zip(grid, allocations):
            actual = oracle_actual_time(device, profile, alloc)
            predicted = slowdown_unified(metrics, t0, hw, alloc).predicted_time
            naive = linear_baseline(t0, f)
            label = f"{profile.query_id}@{f:g}"
            roofline_samples.append(ErrorSample(label, predicted, actual))
            linear_samples.append(ErrorSample(label, naive, actual))
    roofline_cdf = error_cdf(roofline_samples)
    linear_cdf = error_cdf(linear_samples)
    if args.samples_out:
        tagged = ([ErrorSample(f"roofline:{s.label}", s.estimated, s.actual)
                   for s in roofline_samples]
                  + [ErrorSample(f"linear:{s.label}", s.estimated, s.actual)
                     for s in linear_samples])
        with open(args.samples_out, "wb") as sink:
            write_samples_csv(tagged, sink)
    payload = {
        "n_queries": args.n_queries,
        "grid": grid,
        "n_samples": len(roofline_samples),
        "roofline": {"median_pct": roofline_cdf.median_pct,
                     "p95_pct": roofline_cdf.p95_pct},
        "linear": {"median_pct": linear_cdf.median_pct,
                   "p95_pct": linear_cdf.p95_pct},
    }
    _emit_report(payload, manifest, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roofcast",
        description="Roofline-based performance modeling for GPU query "
                    "workloads: ingest profiler counters, predict times under "
                    "resource changes, and rank partition configurations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="counter file -> canonical profile JSON")
    p.add_argument("--input", required=True, help="counter CSV or JSON file")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--query-id")
    p.add_argument("--system", default="unknown")
    p.add_argument("--scale-factor", type=float, default=1.0)
    p.add_argument("--cpu-overhead", type=float, default=0.0,
                   help="planning+compile+invocation CPU seconds per run")
    p.add_argument("--setup-overhead", type=float, default=0.0)
    p.add_argument("--transfer-in", type=int, default=0)
    p.add_argument("--transfer-out", type=int, default=0)
    p.add_argument("--dram-utilization", type=float)
    p.add_argument("--l1-hit-rate", type=float)
    p.add_argument("--l2-hit-rate", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("roofline", help="place a profile on the rooflines")
    p.add_argument("--profile", required=True)
    p.add_argument("--hw", help=f"hardware spec JSON (default ${HW_ENV_VAR} "
                                "or the bundled A100)")
    p.add_argument("--level", choices=("dram", "l2"), default="dram",
                   help="memory level for --plot output")
    p.add_argument("--plot", help="write chart CSV here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_roofline)

    p = sub.add_parser("predict", help="time and slowdown under an allocation")
    p.add_argument("--profile", required=True)
    p.add_argument("--hw")
    p.add_argument("--alloc",
                   help="fractions compute,dram,l2,capacity (e.g. 0.5,0.5,0.5,0.5)")
    p.add_argument("--mig", help="partition instance name from the catalog")
    p.add_argument("--curve", help="write a uniform scaling curve CSV here")
    p.add_argument("--table", action="store_true",
                   help="human-readable table (4 significant digits)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("concurrency", help="estimate and simulate workload QPS")
    p.add_argument("--workload", required=True, help="workload JSON document")
    p.add_argument("--hw")
    p.add_argument("--doc", type=int, help="override the workload's concurrency")
    p.add_argument("--seed", type=int, help="override the workload's seed")
    p.add_argument("--mig", help="partition config name (default: equal split)")
    p.add_argument("--mps", action="store_true",
                   help="split compute only; memory stays shared")
    p.add_argument("--least-loaded", action="store_true",
                   help="simulator assigns to the least-loaded instance")
    p.add_argument("--trace", help="write per-instance dispatch trace CSV here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_concurrency)

    p = sub.add_parser("advise", help="rank partition configs for a workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--hw")
    p.add_argument("--objective", required=True,
                   choices=[o.value for o in Objective])
    p.add_argument("--table", action="store_true",
                   help="human-readable table instead of JSON")
    p.add_argument("--out")
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("eval", help="error CDFs: stored samples or synthetic run")
    p.add_argument("--samples", help="error samples CSV (label,estimated,actual)")
    p.add_argument("--hw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-queries", type=int, default=240)
    p.add_argument("--grid", default="0.125,0.25,0.375,0.5,0.75",
                   help="comma-separated uniform allocation fractions")
    p.add_argument("--samples-out", help="export generated error samples CSV")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"roofcast: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"roofcast: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (InternalInvariantError, AssertionError) as exc:
        print(f"roofcast: internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
