"""In-memory timing spans around the public functions of the dp5brauer layers.

The tracer never edits the package source.  It wraps every public function
defined in a layer module and rebinds the wrapper in *every* loaded
dp5brauer namespace that holds the original (``enumerate_fiber`` is bound
in ``fibers``, in ``obstruction`` and in the package root), so calls made
from inside the package are seen as well as calls from the benchmark.

A span is the tuple ``(name, start, end, parent, request, note)``: wall
clock seconds from ``time.perf_counter``, the index of the enclosing span
(-1 at top level), the benchmark request id, and a small dict of counts
recorded at that boundary (points returned, lines found, forms checked).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time

LAYERS = (
    "fibers",
    "obstruction",
    "model",
    "numberfield",
    "intlinalg",
    "picard",
    "verify",
    "cli",
)


def _note_enumerate_fiber(args, kwargs, result):
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    return {"p": p, "points": len(result)}


# counts recorded at a layer boundary, keyed by span name
NOTES = {
    "fibers.enumerate_fiber": _note_enumerate_fiber,
    "fibers.find_lines": lambda args, kwargs, result: {"lines": len(result)},
    "obstruction.path_agreement_check": lambda args, kwargs, result: {
        "forms": result["checked"]
    },
    "obstruction.census_11": lambda args, kwargs, result: {
        "jobs": result["workers"]
    },
}


class Tracer:
    """Collects spans in memory; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []
        self.request = None
        # wrappers record only while enabled, so oracles and set-up stay out
        self.enabled = False

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, note):
        self._stack.pop()
        self.spans[idx] = (
            name, start, time.perf_counter(), parent, self.request, note
        )

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code; yields its index."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield idx
        finally:
            self._close(idx, parent, name, start, None)

    def wrap(self, name, fn):
        noter = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            note = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if noter is not None:
                    note = noter(args, kwargs, result)
                return result
            finally:
                self._close(idx, parent, name, start, note)

        return traced

    def install(self):
        """Wrap the public functions of every layer module, everywhere bound."""
        for layer in LAYERS:
            __import__(f"dp5brauer.{layer}")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dp5brauer.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "dp5brauer" or name.startswith("dp5brauer.")
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, request, note = span
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "note": note,
                        }
                    )
                    + "\n"
                )


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [
            (d["name"], d["start"], d["end"], d["parent"], d["request"], d["note"])
            for d in map(json.loads, fh)
        ]


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, request, note in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, child)]


def aggregate(spans):
    """name -> {"self_s", "calls"} over a list of spans."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return out
