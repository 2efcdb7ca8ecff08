"""Span tracer for the qcohere benchmark.

Run as a script, it executes one ``qcohere`` command in-process with a span
around every public function of the five layer modules and writes the spans
to a ``.npz`` file when the command ends::

    PYTHONPATH=src python3 bench/tracing.py SPANS.npz -- sample --n 100 --out s.csv

The wrappers are installed from here; nothing in the package is edited.
Imported, the module reads such a file back and aggregates it per span name.
Only the process that runs the command is traced: pool workers started by
``QCOHERE_WORKERS > 1`` would lose their spans, so traced runs use 1 worker.
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("linalg", "states", "measures", "classify", "cli")

# A call to one of these starts a new item (one sampled state or one grid
# point).  The value is the position of the argument holding the item's
# index, or None to number the items by call order.
ITEM_STARTS = {"classify.ensemble_state": 2, "classify.discriminate": None}

# Span record layout: one row of int64 per span.
FIELDS = ("name", "parent", "item", "start_ns", "end_ns")
_WIDTH = len(FIELDS)


class Tracer:
    """Records spans in memory: name, parent span, item index, start and end."""

    def __init__(self):
        self.names = []
        self.spans = array("q")
        self._stack = [-1]
        self._item = -1

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that every call records one span."""
        name_id = len(self.names)
        self.names.append(name)
        item_arg = ITEM_STARTS.get(name, False)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if item_arg is None:
                self._item += 1
            elif item_arg is not False:
                self._item = args[item_arg]
            sid = len(spans) // _WIDTH
            spans.extend((name_id, stack[-1], self._item, clock(), 0))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid * _WIDTH + 4] = clock()
                stack.pop()

        return traced

    def save(self, path, **meta):
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _WIDTH)
        np.savez(path, spans=table, names=np.array(self.names, dtype=str), **meta)


def install(tracer: Tracer):
    """Wrap every public function of the layer modules at every binding site.

    One wrapper is made per function and bound wherever the package binds
    the original (``classify`` imports ``concurrence`` by name, the package
    root re-exports most functions).  ``DensityMatrix.__init__`` is wrapped
    on the class, so every constructed state records its validation.
    """
    import qcohere
    from qcohere import classify, cli, linalg, measures, states

    modules = dict(zip(LAYERS, (linalg, states, measures, classify, cli)))
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj)
    for site in (qcohere, *modules.values()):
        for attr, obj in list(vars(site).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(site, attr, wrappers[obj])
    init = states.DensityMatrix.__init__
    states.DensityMatrix.__init__ = tracer.wrap("states.DensityMatrix.__init__", init)


def load(path):
    """Read a spans file: (span names, int64 table with FIELDS columns, package path)."""
    with np.load(path) as data:
        return [str(n) for n in data["names"]], data["spans"], str(data["package"])


def aggregate(names, spans) -> dict:
    """Per span name: call count and total self time in ns; and the traced wall in ns.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so children never overlap.
    """
    name_id, parent = spans[:, 0], spans[:, 1]
    duration = (spans[:, 4] - spans[:, 3]).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
    self_ns = duration - covered
    calls = np.bincount(name_id, minlength=len(names))
    self_total = np.bincount(name_id, weights=self_ns, minlength=len(names))
    return {
        "calls": {name: int(calls[i]) for i, name in enumerate(names)},
        "self_ns": {name: float(self_total[i]) for i, name in enumerate(names)},
        "wall_ns": float(duration[~nested].sum()),
    }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracing.py SPANS.npz -- QCOHERE_ARGS...\n")
        return 64
    tracer = Tracer()
    install(tracer)
    import qcohere
    from qcohere import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.save(argv[0], package=qcohere.__file__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
