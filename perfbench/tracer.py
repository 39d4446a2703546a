"""Run one qnetlim command in-process, with spans around each layer's calls.

usage: python3 perfbench/tracer.py SPANS_JSON COMMAND_ID -- QNETLIM_ARGS...

Nothing in ``src/`` is traced from the inside. This script wraps, from
outside, every public function of the layer modules (netgraph, scenario,
buffersim, repeater, qstate), three methods (``Network.__init__``,
``MemoryHeap.tick_decay``, ``MemoryHeap.check_heap``), and scipy's
``csgraph.shortest_path``/``dijkstra``. The scipy functions are patched
as ``scipy.sparse.csgraph`` is first imported, so names bound by
``from scipy.sparse.csgraph import ...`` see the wrapper and the import
time of ``qnetlim.cli`` still includes scipy's.

A function that does not exist is skipped, so refactors that delete one
leave its metric empty instead of failing the run. Spans (name, start,
end, parent index, extra) are kept in memory and written to SPANS_JSON
when the command ends, with the import time and stdout size.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time

LAYERS = ("netgraph", "scenario", "buffersim", "repeater", "qstate")
METHODS = (
    ("netgraph", "Network", "__init__"),
    ("buffersim", "MemoryHeap", "tick_decay"),
    ("buffersim", "MemoryHeap", "check_heap"),
)
# per-element helpers called in inner loops: their time stays with the caller
UNWRAPPED = {
    "netgraph.effective_weight",
    "scenario.great_circle_km",
    "scenario.route_probability",
    "buffersim.decayed_fidelity",
    "buffersim.sift_ticks",
    "buffersim.finish_time",
}
CSGRAPH = ("shortest_path", "dijkstra")


def _csgraph_sources(result, args, kwargs):
    dist = result[0] if isinstance(result, tuple) else result
    return {"sources": 1 if dist.ndim == 1 else int(dist.shape[0])}


def _sim_counts(result, args, kwargs):
    keys = ("inserts", "dispatches", "evictions", "rejects")
    counts = {k: getattr(result, k, 0) for k in keys}
    counts["rows"] = len(getattr(result, "trace", ()))
    return counts


EXTRAS = {"buffersim.run": _sim_counts}


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, extra dict or None]
        self.spans = []
        self._stack = []
        self.wrapped = []

    def call(self, name, fn, args=(), kwargs=None, extra=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if extra is not None:
            span[4] = extra(result, args, kwargs or {})
        return result

    def wrap(self, owner, attr, name, extra=None):
        fn = getattr(owner, attr, None)
        if not callable(fn):
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, extra)

        setattr(owner, attr, traced)
        self.wrapped.append(name)

    def wrap_layers(self, package):
        for short in LAYERS:
            mod = getattr(package, short, None)
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    self.wrap(mod, attr, name, EXTRAS.get(name))
        for short, cls_name, attr in METHODS:
            cls = getattr(getattr(package, short, None), cls_name, None)
            if cls is not None:
                self.wrap(cls, attr, f"{short}.{cls_name}.{attr}")


class PatchOnImport(importlib.abc.MetaPathFinder):
    """Calls ``patch(module)`` right after ``fullname`` is first executed."""

    def __init__(self, fullname, patch):
        self.fullname = fullname
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


class CountingStream:
    def __init__(self, stream):
        self.stream = stream
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return self.stream.write(text)

    def __getattr__(self, attr):
        return getattr(self.stream, attr)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.exit("usage: tracer.py SPANS_JSON COMMAND_ID -- QNETLIM_ARGS...")
    spans_path, command_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()

    def patch_csgraph(module):
        for attr in CSGRAPH:
            tracer.wrap(module, attr, f"csgraph.{attr}", _csgraph_sources)

    sys.meta_path.insert(0, PatchOnImport("scipy.sparse.csgraph", patch_csgraph))
    t0 = time.perf_counter()
    cli = importlib.import_module("qnetlim.cli")
    import_s = time.perf_counter() - t0
    tracer.wrap_layers(sys.modules["qnetlim"])

    out = CountingStream(sys.stdout)
    sys.stdout = out
    code = 1
    try:
        code = tracer.call("cli.main", cli.main, (cli_args,))
    finally:
        sys.stdout = out.stream
        sys.stdout.flush()
        record = {
            "command_id": command_id,
            "import_s": import_s,
            "out_bytes": out.bytes,
            "exit_code": code,
            "wrapped": tracer.wrapped,
            "spans": tracer.spans,
        }
        with open(spans_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
