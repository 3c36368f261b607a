"""Answer one roofcast CLI question in a fresh process and time it.

    PYTHONPATH=src python3 perfbench/child.py TIMING_JSON [--spans] -- ARGS...

Does what ``python -m roofcast.cli ARGS...`` does (import ``roofcast.cli``,
call ``main(ARGS)``, exit with its code) and writes to TIMING_JSON how long
the import and ``main`` took. With ``--spans`` it first rebinds the public
functions listed in ``TRACED`` to timing wrappers, keeps one span per call in
memory and adds the spans to TIMING_JSON at exit.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

# Functions whose calls become spans, as "<module>.<function>" under roofcast.
TRACED = (
    "ingest.aggregate",
    "ingest.parse_counter_file",
    "ingest.read_profile_json",
    "ingest.write_profile_json",
    "scaling.slowdown_unified",
    "roofline.classify",
    "roofline.emit_plot_data",
    "concurrency.warm_query_time",
    "concurrency.estimate_qps",
    "concurrency.simulate_dispatch",
    "advisor.advise",
    "evalkit.generate_synthetic",
    "evalkit.error_cdf",
    "evalkit.oracle_actual_time",
    "core.load_hardware_spec",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Value identity of a call's inputs, for counting distinct inputs. aggregate
# reads only the kernels (and the hardware, one spec per question);
# slowdown_unified reads the aggregate, the baseline time and the allocation.
KEYS = {
    "ingest.aggregate": lambda a, k: _arg(a, k, 0, "profile").kernels,
    "scaling.slowdown_unified": lambda a, k: (
        _arg(a, k, 0, "m"), _arg(a, k, 1, "t"), _arg(a, k, 3, "alloc")),
}

# Work units per call: dispatches simulated, kernels parsed.
UNITS = {
    "concurrency.simulate_dispatch":
        lambda a, k, r: _arg(a, k, 0, "w").dispatch_count,
    "ingest.parse_counter_file": lambda a, k, r: len(r),
}


class Tracer:
    """In-memory spans (id, name, start, end, parent id) of traced calls."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.keys: dict[str, set] = {name: set() for name in KEYS}
        self.units: dict[str, int] = {name: 0 for name in UNITS}

    def install(self) -> None:
        """Rebind every traced function in each roofcast module that bound it.

        ``from .ingest import aggregate`` copies the function into the
        importing module, so patching ``roofcast.ingest`` alone would miss
        the calls made through those copies.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "roofcast" or n.startswith("roofcast.")]
        for name in TRACED:
            module, func = name.rsplit(".", 1)
            original = getattr(sys.modules[f"roofcast.{module}"], func)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter
        key = KEYS.get(name)
        keys = self.keys.get(name)
        units = UNITS.get(name)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent))
            if key is not None:
                keys.add(key(args, kwargs))
            if units is not None:
                self.units[name] += units(args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "units": self.units,
        }


def main() -> int:
    t0 = time.perf_counter()
    timing_path = sys.argv[1]
    traced = sys.argv[2] == "--spans"
    argv = sys.argv[sys.argv.index("--") + 1:]
    import roofcast.cli as cli
    t1 = time.perf_counter()
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    t2 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on bad arguments
        code = exc.code if isinstance(exc.code, int) else 1
    t3 = time.perf_counter()
    sys.stdout.flush()
    record = {"code": code, "import_s": t1 - t0, "main_s": t3 - t2}
    if tracer is not None:
        tracer.spans.append((0, "cli.main", t2, t3, -1))
        record.update(tracer.dump())
    with open(timing_path, "w", encoding="utf-8") as sink:
        json.dump(record, sink)
    return code


if __name__ == "__main__":
    sys.exit(main())
