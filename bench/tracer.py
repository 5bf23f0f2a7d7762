"""Span tracing of the mtil layers from outside the package.

`Tracer.install` wraps every public function of every `mtil` module, both at
the name its own module defines and at every name another module bound it to
with `from .x import f`, so callers that look the function up either way are
recorded. Each call becomes one span (name, start, end, parent); spans stay
in memory until the command ends and are then printed with the run id.

Run as a script, this module executes one traced `mtil` command in its own
process and prints the spans as JSON on stdout:

    PYTHONPATH=src python3 bench/tracer.py RUN_ID -- run --config c.yaml --out o
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import pkgutil
import sys
import time

# Per-call extras read off a layer's return value: pretraining reports how
# many ALS sweeps it ran, which sets its cost more than the call count does.
EXTRAS = {"mtil_learn.pretrain_alternating": lambda r: {"sweeps": r.sweeps_used}}


class Tracer:
    """Collects spans as [span_id, parent_id, name, start_ns, end_ns, extra]."""

    def __init__(self):
        self.spans = []
        self._stack = [0]  # span 0 is the root: the whole traced process
        self._next_id = 1

    def _wrap(self, name: str, fn):
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                extra = extra_of(result) if extra_of and result is not None else None
                self.spans.append([span_id, parent, name, start, end, extra])

        traced.layer = name
        return traced

    def install(self, package) -> list:
        """Wrap the public functions of every module of `package`.

        Returns the sorted names of the wrapped layers.
        """
        modules = [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        # Second pass: rebind every name that refers to a wrapped original,
        # including names imported into other modules by `from . import`.
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        return sorted(w.layer for w in wrappers.values())


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the time its direct children cover.

    `spans` holds [span_id, parent_id, name, start_ns, end_ns, ...] rows.
    """
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3])
        - covered_ns(children.get(span[0], ()), span[3], span[4])
        for span in spans
    }


def main(argv) -> int:
    run_id, sep, *mtil_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py RUN_ID -- MTIL_ARGS...")
    root_start = time.perf_counter_ns()
    tracer = Tracer()
    import mtil
    import mtil.cli

    layers = tracer.install(mtil)
    with contextlib.redirect_stdout(io.StringIO()):
        code = mtil.cli.main(mtil_argv)
    root_end = time.perf_counter_ns()
    json.dump(
        {
            "run_id": run_id,
            "layers": layers,
            "root": [root_start, root_end],
            "spans": tracer.spans,
        },
        sys.stdout,
        separators=(",", ":"),
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
