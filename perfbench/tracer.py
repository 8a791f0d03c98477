"""Run one ``hyperlie`` CLI command with spans recorded around each layer.

    python3 perfbench/tracer.py AGG.json SPANS.json -- verify --genus 3 ...

The tracer wraps public functions of the package's modules from the outside
(the package itself is not changed), calls ``hyperlie.cli.main`` with the
remaining arguments and exits with its return code.  Spans are kept in
memory, one list per thread, and written to SPANS.json when the command
ends; per-name totals go to AGG.json, which ``run.py`` sums over a workload.

Self time is measured on the thread's CPU clock: a span's CPU seconds minus
those of its child spans.  Under the suite's thread pool only one thread
holds the interpreter lock at a time, so wall-clock self time would also
count the other worker's turns.  Lock waiting (``suite.memo.wait_s``) and
``cli.main.s`` are wall-clock times.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

_wall = time.perf_counter
_cpu = time.thread_time


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one span list per thread, in first-use order
        self.totals = defaultdict(int)  # metric name -> summed value

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            spans = []
            with self._lock:
                self._threads.append(spans)
            # stack frames: [span index, cpu seconds of direct children]
            st = self._local.st = (spans, [])
        return st

    def add(self, name: str, value: float):
        with self._lock:
            self.totals[name] += value

    def span(self, name: str, fn, size=None):
        """Wrap ``fn`` so each call records a span; ``size(args, result)``
        optionally returns a (metric name, count) pair to add up."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self._state()
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            w0, c0 = _wall(), _cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, w1 = _cpu(), _wall()
                stack.pop()
                cpu = c1 - c0
                if stack:
                    stack[-1][1] += cpu
                spans[idx] = (name, w0, w1, parent, cpu - frame[1])
            if size is not None:
                self.add(*size(args, result))
            return result

        return wrapper

    def aggregate(self) -> dict:
        out = defaultdict(int, self.totals)
        for spans in self._threads:
            for name, _w0, _w1, _parent, self_cpu in spans:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += self_cpu
        return dict(out)

    def span_table(self) -> dict:
        """Spans as columns; ``parent`` indexes the same thread's list."""
        cols = {k: [] for k in ("thread", "name", "start", "end", "parent", "self_cpu")}
        for tid, spans in enumerate(self._threads):
            for name, w0, w1, parent, self_cpu in spans:
                for k, v in zip(cols, (tid, name, w0, w1, parent, self_cpu)):
                    cols[k].append(v)
        return cols


def _rebind(modules, original, replacement):
    """Point every module-level reference to ``original`` at ``replacement``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap the layer functions of every hyperlie module."""
    from hyperlie import (
        classical, cli, derivation, exactpoly, export, genus_fields,
        lambda_space, param_map, suite,
    )

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hyperlie"]
    span = tracer.span

    Poly = exactpoly.Poly
    for attrs, name in (
        (("__mul__", "__rmul__"), "exactpoly.mul"),
        (("__add__", "__radd__"), "exactpoly.add"),
        (("partial",), "exactpoly.partial"),
        (("substitute",), "exactpoly.substitute"),
        (("evaluate",), "exactpoly.evaluate"),
    ):
        for attr in attrs:
            setattr(Poly, attr, span(name, getattr(Poly, attr)))
    for attr in ("apply", "bracket"):
        D = derivation.Derivation
        setattr(D, attr, span(f"derivation.{attr}", getattr(D, attr)))

    functions = [
        (exactpoly, "divexact",
         lambda a, r: ("exactpoly.divexact.dividend_terms", len(a[0].terms))),
        (exactpoly, "det_bareiss", None),
        (exactpoly, "det_minor_expansion",
         lambda a, r: ("exactpoly.det_minor_expansion.out_terms", len(r.terms))),
        (derivation, "ladder_complete", None),
        (derivation, "verify_pushforward", None),
        (lambda_space, "discriminant_R", None),
        (lambda_space, "build_T", None),
        (param_map, "jacobi_map", None),
        (genus_fields, "catalog", None),
        (genus_fields, "build_Tcal", None),
        (genus_fields, "pullback_T", None),
        (genus_fields, "parse_coeff", None),
        (classical, "compare_tables", None),
        (suite, "fraction_det", None),
        (export, "export", lambda a, r: ("export.bytes", len(r.encode()))),
    ]
    for mod, attr, size in functions:
        fn = getattr(mod, attr)
        name = "export.render" if mod is export else f"{mod.__name__.split('.')[1]}.{attr}"
        _rebind(modules, fn, span(name, fn, size))

    # Each report entry's check runs as a "suite.checks" span.
    orig_entries = suite.suite_entries

    def suite_entries(genus):
        return [
            (eid, anchor, span("suite.checks", fn))
            for eid, anchor, fn in orig_entries(genus)
        ]

    _rebind(modules, orig_entries, suite_entries)

    # Memo builds are charged to their key, not to the entry that asked
    # first; the rest of the time inside _get is lock waiting.
    orig_get = suite.SuiteContext._get
    builds = threading.local()

    def _get(ctx, key, builder):
        stack = getattr(builds, "stack", None)
        if stack is None:
            stack = builds.stack = []
        built = [0.0]

        def timed_builder():
            frame = [0.0]  # CPU seconds of memo builds nested in this one
            stack.append(frame)
            w0, c0 = _wall(), _cpu()
            try:
                return builder()
            finally:
                c1, w1 = _cpu(), _wall()
                stack.pop()
                cpu = c1 - c0
                if stack:
                    stack[-1][0] += cpu
                built[0] = w1 - w0
                tracer.add(f"suite.build.{key}.s", cpu - frame[0])

        w0 = _wall()
        result = orig_get(ctx, key, timed_builder)
        tracer.add("suite.memo.wait_s", _wall() - w0 - built[0])
        return result

    suite.SuiteContext._get = _get

    orig_run = suite.run_suite

    def run_suite(*args, **kwargs):
        report = orig_run(*args, **kwargs)
        tracer.add("suite.entries.total", len(report.entries))
        tracer.add("suite.entries.failed", len(report.failures()))
        return report

    _rebind(modules, orig_run, run_suite)

    def cache_counts():
        info = genus_fields._catalog_cached.cache_info()
        return {"genus_fields.catalog.hits": info.hits,
                "genus_fields.catalog.misses": info.misses}

    return cli.main, cache_counts


def main(argv) -> int:
    sep = argv.index("--")
    agg_path, spans_path = (Path(p) for p in argv[:sep])
    tracer = Tracer()
    cli_main, cache_counts = install(tracer)
    w0 = _wall()
    try:
        rc = cli_main(argv[sep + 1:])
    finally:
        tracer.add("cli.main.s", _wall() - w0)
        agg = tracer.aggregate()
        agg.update(cache_counts())
        agg_path.write_text(json.dumps(agg, sort_keys=True))
        spans_path.write_text(json.dumps(tracer.span_table()))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
