"""Span recording for the traced run.

The benchmark never edits the library.  For a traced round it swaps the
names that one module imports from another (and a few public ``CycElem``
methods) for wrappers that record a span per call, runs the operations, and
puts every original object back, even when an operation raises.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the index of the benchmark operation that caused
it.  A span's name is ``<layer>.<what>``, with the layer being the module
that implements the call, so ``exotica.poly_mul`` records as
``dicecore.poly_mul``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): the cross-module imports that the
# benchmark's workloads reach.  Classes are patched through their __dict__
# so that a staticmethod is swapped and restored as the same object.
PATCHES = (
    ("exotica", "poly_mul", "dicecore.poly_mul"),
    ("fairlab", "poly_mul", "dicecore.poly_mul"),
    ("fibers", "poly_mul", "dicecore.poly_mul"),
    ("exotica", "normalize_to_die", "dicecore.normalize"),
    ("fairlab", "normalize_to_die", "dicecore.normalize"),
    ("fibers", "normalize_to_die", "dicecore.normalize"),
    ("crapseval", "parts_to_total", "dicecore.parts_to_total"),
    ("exotica", "two_cos", "exactnum.two_cos"),
    ("exotica", "cyc_sign", "exactnum.sign"),
    ("dicecore", "cyc_sign", "exactnum.sign"),
    ("exactnum", "cyc_embed", "exactnum.embed"),
    ("exactnum.CycElem", "__mul__", "exactnum.mul"),
    ("exactnum.CycElem", "__rmul__", "exactnum.mul"),
    ("exactnum.CycElem", "inverse", "exactnum.inverse"),
    ("exactnum.CycElem", "from_power_basis", "exactnum.from_power_basis"),
)


def _owner(path):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"totalparts.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counts of one traced round, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.max_bits = 0
        self.op = -1
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)
        self._observe(name, result)
        return result

    def _observe(self, name, result):
        if name == "exactnum.sign":
            bits = result.precision_bits
            self.counts["exactnum.sign.exact_zero" if bits == 0
                        else "exactnum.sign.interval"] += 1
            self.max_bits = max(self.max_bits, bits)
        elif name == "fairlab.enumerate_fair_pairs":
            self.counts["fairlab.pairs"] += len(result)
        elif name == "fibers.enumerate_fiber":
            self.counts["fibers.sacks"] += len(result)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every patched attribute for a span-recording wrapper and
        restore the originals on exit."""
        saved = []
        try:
            for path, attr, name in PATCHES:
                owner = _owner(path)
                orig = vars(owner)[attr]
                saved.append((owner, attr, orig))
                if isinstance(orig, staticmethod):
                    new = staticmethod(self.wrap(orig.__func__, name))
                else:
                    new = self.wrap(orig, name)
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def dump(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def self_times(spans):
    """Self time per span name: each span's duration minus the durations of
    the spans directly nested in it (same-layer nesting included)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, parent, op) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def layer_metrics(tracer):
    """The per-layer metrics of one traced round (all but the overhead
    ratio, which needs the untraced round too)."""
    selfs = self_times(tracer.spans)
    calls = Counter(span[0] for span in tracer.spans)

    def layer(prefix, table):
        return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

    m = {
        "exotica.self_s": layer("exotica", selfs),
        "exotica.calls": layer("exotica", calls),
        "exactnum.self_s": layer("exactnum", selfs),
        "dicecore.self_s": layer("dicecore", selfs),
        "fairlab.self_s": layer("fairlab", selfs),
        "fairlab.pairs": tracer.counts["fairlab.pairs"],
        "fibers.self_s": layer("fibers", selfs),
        "fibers.sacks": tracer.counts["fibers.sacks"],
        "crapseval.self_s": layer("crapseval", selfs),
        "crapseval.calls": layer("crapseval", calls),
        "exactnum.sign.exact_zero": tracer.counts["exactnum.sign.exact_zero"],
        "exactnum.sign.interval": tracer.counts["exactnum.sign.interval"],
        "exactnum.sign.max_bits": tracer.max_bits,
    }
    for name in ("exactnum.mul", "exactnum.inverse",
                 "exactnum.from_power_basis", "exactnum.sign",
                 "exactnum.embed", "dicecore.poly_mul", "dicecore.normalize",
                 "dicecore.parts_to_total"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}_s"] = selfs.get(name, 0.0)
    return m
