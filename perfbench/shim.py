"""Traced entry point: run one ratslice CLI job with timing hooks.

    python3 perfbench/shim.py TRACE_FILE JOB_ID -- <ratslice cli arguments>

The shim imports ratslice.cli, swaps module attributes for timing
wrappers, calls ratslice.cli.main and writes what it saw to TRACE_FILE.
Nothing under src/ changes.

Two kinds of hook:

* spans, on functions called a few times per job: name, start, end,
  parent and job id, kept in memory and written at exit;
* counters, on the hot functions (state grading, rectangle enumeration,
  GF(2) add_column/reduce), which run up to ~10^5 times per job. They
  add the calling thread's CPU time (time.thread_time) and counts to a
  per-thread accumulator and record no span. CPU time, not wall time,
  because the thread pool runs them in two threads that take turns on
  the interpreter lock; wall time per call would count each wait twice.

A span's self time is its duration minus the time its child spans and
the counted hot calls inside it cover. A hook whose target is missing is
listed as absent, and its metrics are reported as absent, never as zero.

This module is also imported by run.py for `summarize`;
it imports ratslice only when run as a script.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

# metric prefix -> (module, attribute) targets, each wrapped in one span.
SPAN_HOOKS = {
    "grid.compile": [("ratslice.grid", "compile_grid")],
    "grid.graded_ranks": [("ratslice.grid", "graded_ranks")],
    # grid binds ordered_map at import, so patch it where it is used.
    "parallel.ordered_map": [("ratslice.grid", "ordered_map"),
                             ("ratslice.parallel", "ordered_map")],
    "complexes.validate": [("ratslice.complexes", "validate")],
    "complexes.homology_basis": [("ratslice.complexes", "homology_basis"),
                                 ("ratslice.grid", "homology_basis")],
    "complexes.tau_spectrum": [("ratslice.complexes", "tau_spectrum"),
                               ("ratslice.paperdata", "tau_spectrum")],
    "complexes.survivor_deduction": [("ratslice.complexes", "survivor_deduction"),
                                     ("ratslice.paperdata", "survivor_deduction")],
    "formats.load": [("ratslice.cli", "_load_json"),
                     ("ratslice.formats", "complex_from_json"),
                     ("ratslice.formats", "poincare_from_json"),
                     ("ratslice.formats", "framed_from_json"),
                     ("ratslice.formats", "grid_from_text")],
    "formats.dump": [("ratslice.formats", "dump_document"),
                     ("ratslice.formats", "spectrum_to_json"),
                     ("ratslice.formats", "report_to_json"),
                     ("ratslice.formats", "verdict_to_json"),
                     ("ratslice.formats", "interval_to_json")],
}

# Counters taken from a span's result.
SPAN_COUNTS = {
    "parallel.ordered_map": len,
    "complexes.tau_spectrum": lambda spectrum: len(spectrum.per_class),
    "complexes.survivor_deduction": len,
}

# Hot-path targets, counted rather than spanned.
SCAN_TARGETS = ("gradings", "maslov")  # methods of ratslice.grid._Grader
ENGINE_FACTORIES = [("ratslice.grid", "new_engine"),
                    ("ratslice.complexes", "new_engine"),
                    ("ratslice.gf2", "new_engine")]

HOT_FIELDS = ("scan_s", "scan_states", "rect_s", "rect_calls", "arrows",
              "add_s", "columns", "pivots", "reduce_s", "reduce_calls")
HOT_TIMES = ("scan_s", "rect_s", "add_s", "reduce_s")

# Per-layer metric -> (hook group that must be present, unit).
METRICS = {
    "grid.scan_s": ("grid.scan", "s"),
    "grid.scan_states": ("grid.scan", "count"),
    "grid.rectangles_s": ("grid.rectangles", "s"),
    "grid.rectangles_calls": ("grid.rectangles", "count"),
    "grid.arrows": ("grid.rectangles", "count"),
    "grid.compile_s": ("grid.compile", "s"),
    "grid.compile_calls": ("grid.compile", "count"),
    "grid.graded_ranks_s": ("grid.graded_ranks", "s"),
    "parallel.ordered_map_s": ("parallel.ordered_map", "s"),
    "parallel.items": ("parallel.ordered_map", "count"),
    "complexes.validate_s": ("complexes.validate", "s"),
    "complexes.validate_calls": ("complexes.validate", "count"),
    "complexes.homology_basis_s": ("complexes.homology_basis", "s"),
    "complexes.tau_spectrum_s": ("complexes.tau_spectrum", "s"),
    "complexes.classes": ("complexes.tau_spectrum", "count"),
    "complexes.survivor_deduction_s": ("complexes.survivor_deduction", "s"),
    "complexes.survivor_outcomes": ("complexes.survivor_deduction", "count"),
    "gf2.add_column_s": ("gf2", "s"),
    "gf2.columns": ("gf2", "count"),
    "gf2.pivot_ratio": ("gf2", "ratio"),
    "gf2.reduce_s": ("gf2", "s"),
    "gf2.reduce_calls": ("gf2", "count"),
    "formats.load_s": ("formats.load", "s"),
    "formats.dump_s": ("formats.dump", "s"),
    "formats.out_bytes": ("formats.dump", "bytes"),
    "cli.import_s": ("cli", "s"),
}


class _Acc:
    """Hot-path totals of one thread; only that thread writes them."""

    __slots__ = HOT_FIELDS + ("scan_depth",)

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._accs: list[_Acc] = []
        self._local = threading.local()

    # -- hot counters ---------------------------------------------------

    def acc(self) -> _Acc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _Acc()
            self._accs.append(acc)
        return acc

    def hot_total(self) -> float:
        return sum(getattr(a, f) for a in self._accs for f in HOT_TIMES)

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        span = {"id": len(self.spans), "name": name, "job": self.job,
                "parent": stack[-1]["id"] if stack else None,
                "start": time.perf_counter(), "end": None,
                "hot": self.hot_total(), "n": 0}
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["hot"] = self.hot_total() - span["hot"]
        self._stack().pop()

    def span(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["n"] = count(result)
                return result
            finally:
                self.close(span)

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    for name, targets in SPAN_HOOKS.items():
        found = False
        wrapped = {}
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            found = True
            key = id(original)
            if key not in wrapped:
                wrapped[key] = tracer.span(name, original, SPAN_COUNTS.get(name))
            setattr(module, attr, wrapped[key])
        if not found:
            tracer.absent.add(name)

    grid = importlib.import_module("ratslice.grid")
    _install_scan(tracer, grid)
    _install_rectangles(tracer, grid)
    _install_engines(tracer)


def _install_scan(tracer: Tracer, grid) -> None:
    grader = getattr(grid, "_Grader", None)
    methods = [getattr(grader, m, None) for m in SCAN_TARGETS]
    if grader is None or None in methods:
        tracer.absent.add("grid.scan")
        return
    clock = time.thread_time

    def hook(method):
        def scanned(self, state):
            acc = tracer.acc()
            if acc.scan_depth:  # gradings() calls maslov(): count once
                return method(self, state)
            acc.scan_depth = 1
            start = clock()
            try:
                return method(self, state)
            finally:
                acc.scan_s += clock() - start
                acc.scan_states += 1
                acc.scan_depth = 0

        return scanned

    for name, method in zip(SCAN_TARGETS, methods):
        setattr(grader, name, hook(method))


def _install_rectangles(tracer: Tracer, grid) -> None:
    original = getattr(grid, "_rectangle_targets", None)
    if original is None:
        tracer.absent.add("grid.rectangles")
        return
    clock = time.thread_time

    def rectangles(diagram, state):
        start = clock()
        targets = original(diagram, state)
        acc = tracer.acc()
        acc.rect_s += clock() - start
        acc.rect_calls += 1
        acc.arrows += len(targets)
        return targets

    grid._rectangle_targets = rectangles


class _Engine:
    """Proxy that counts add_column/reduce of a GF(2) elimination engine."""

    __slots__ = ("_engine", "_tracer")

    def __init__(self, engine, tracer: Tracer):
        self._engine = engine
        self._tracer = tracer

    def add_column(self, col):
        engine = self._engine
        before = engine.rank
        start = time.thread_time()
        engine.add_column(col)
        acc = self._tracer.acc()
        acc.add_s += time.thread_time() - start
        acc.columns += 1
        acc.pivots += engine.rank - before

    def reduce(self, target):
        start = time.thread_time()
        out = self._engine.reduce(target)
        acc = self._tracer.acc()
        acc.reduce_s += time.thread_time() - start
        acc.reduce_calls += 1
        return out

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _install_engines(tracer: Tracer) -> None:
    found = False
    for module_name, attr in ENGINE_FACTORIES:
        module = importlib.import_module(module_name)
        factory = getattr(module, attr, None)
        if factory is None:
            continue
        found = True

        def counted(*args, _factory=factory, **kwargs):
            return _Engine(_factory(*args, **kwargs), tracer)

        setattr(module, attr, counted)
    if not found:
        tracer.absent.add("gf2")


class _TimedStdout:
    """Times and counts what the CLI writes to stdout, as formats.dump."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer
        self.bytes = 0

    def write(self, text):
        span = self._tracer.open("formats.dump")
        try:
            self.bytes += len(text.encode("utf-8"))
            return self._stream.write(text)
        finally:
            self._tracer.close(span)

    def flush(self):
        span = self._tracer.open("formats.dump")
        try:
            self._stream.flush()
        finally:
            self._tracer.close(span)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main(argv: list[str]) -> int:
    trace_file, job = argv[0], argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    start = time.perf_counter()
    import ratslice.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer(job)
    install(tracer)
    stdout = _TimedStdout(sys.stdout, tracer)
    sys.stdout = stdout
    code = 1
    try:
        code = tracer.span("cli.main", cli.main)(cli_args)
        stdout.flush()
    finally:
        sys.stdout = stdout._stream
        hot = {f: sum(getattr(a, f) for a in tracer._accs) for f in HOT_FIELDS}
        with open(trace_file, "w", encoding="utf-8") as handle:
            json.dump({"job": job, "import_s": import_s, "out_bytes": stdout.bytes,
                       "hot": hot, "absent": sorted(tracer.absent),
                       "spans": tracer.spans}, handle)
    return code


# -- aggregation (run.py side) ----------------------------------------------


def self_times(spans: list[dict]) -> dict[str, tuple[float, int, int]]:
    """name -> (total self time, span count, summed span counter)."""
    covered = {s["id"]: [0.0, 0.0] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            cov = covered[s["parent"]]
            cov[0] += s["end"] - s["start"]
            cov[1] += s["hot"]
    out: dict[str, list] = {}
    for s in spans:
        child_time, child_hot = covered[s["id"]]
        own = (s["end"] - s["start"]) - child_time - (s["hot"] - child_hot)
        row = out.setdefault(s["name"], [0.0, 0, 0])
        row[0] += own
        row[1] += 1
        row[2] += s["n"]
    return {k: tuple(v) for k, v in out.items()}


def summarize(traces: list[dict]) -> dict[str, float | int | None]:
    """Per-layer metrics summed over the jobs of one traced pass."""
    hot = {f: sum(t["hot"][f] for t in traces) for f in HOT_FIELDS}
    spans: dict[str, list] = {}
    for t in traces:
        for name, (own, calls, n) in self_times(t["spans"]).items():
            row = spans.setdefault(name, [0.0, 0, 0])
            row[0] += own
            row[1] += calls
            row[2] += n

    def span(name, i):
        return spans.get(name, [0.0, 0, 0])[i]

    values = {
        "grid.scan_s": hot["scan_s"],
        "grid.scan_states": hot["scan_states"],
        "grid.rectangles_s": hot["rect_s"],
        "grid.rectangles_calls": hot["rect_calls"],
        "grid.arrows": hot["arrows"],
        "grid.compile_s": span("grid.compile", 0),
        "grid.compile_calls": span("grid.compile", 1),
        "grid.graded_ranks_s": span("grid.graded_ranks", 0),
        "parallel.ordered_map_s": span("parallel.ordered_map", 0),
        "parallel.items": span("parallel.ordered_map", 2),
        "complexes.validate_s": span("complexes.validate", 0),
        "complexes.validate_calls": span("complexes.validate", 1),
        "complexes.homology_basis_s": span("complexes.homology_basis", 0),
        "complexes.tau_spectrum_s": span("complexes.tau_spectrum", 0),
        "complexes.classes": span("complexes.tau_spectrum", 2),
        "complexes.survivor_deduction_s": span("complexes.survivor_deduction", 0),
        "complexes.survivor_outcomes": span("complexes.survivor_deduction", 2),
        "gf2.add_column_s": hot["add_s"],
        "gf2.columns": hot["columns"],
        "gf2.pivot_ratio": hot["pivots"] / hot["columns"] if hot["columns"] else 0.0,
        "gf2.reduce_s": hot["reduce_s"],
        "gf2.reduce_calls": hot["reduce_calls"],
        "formats.load_s": span("formats.load", 0),
        "formats.dump_s": span("formats.dump", 0),
        "formats.out_bytes": sum(t["out_bytes"] for t in traces),
        "cli.import_s": sum(t["import_s"] for t in traces),
    }
    absent = {name for t in traces for name in t["absent"]}
    return {
        name: None if METRICS[name][0] in absent else value
        for name, value in values.items()
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
