"""Benchmark-side tracing of the package's layers.

Wrappers are installed at every module attribute through which the package
looks a function up (``semecs.semecs.exp`` as well as ``semecs.group.exp``),
on the classes whose methods are layers, and on ``os.fsync``.  The package
itself is not edited.  Each call becomes one span (layer name, parent span,
start, end, a quantity such as bytes) kept in memory; the benchmark's own
operations are root spans, so every span of one operation shares its root.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

def _len_arg0(args, kwargs, result):
    return len(args[0])


def _len_arg1(args, kwargs, result):
    return len(args[1])


#: (layer, module, attribute, quantity) for module-level functions; the
#: quantity of a span is computed from (args, kwargs, result).
FUNCTIONS = (
    ("group.exp", "semecs.group", "exp", None),
    ("group.double_exp", "semecs.group", "double_exp", None),
    ("group.group_mul", "semecs.group", "group_mul", None),
    ("keystore.parse_record", "semecs.keystore", "parse_record", _len_arg0),
    ("keystore.serialize_record", "semecs.keystore", "serialize_record", None),
    ("keystore.atomic_write", "semecs.keystore", "atomic_write", _len_arg1),
    ("keystore.advance_counter", "semecs.keystore", "advance_counter", None),
    ("keystore.semecs_public_from_record", "semecs.keystore", "semecs_public_from_record", None),
    ("semecs.build_search_index", "semecs.semecs", "build_search_index", None),
    ("semecs.sign", "semecs.semecs", "semecs_sign", None),
    ("semecs.verify_indexed", "semecs.semecs", "semecs_verify_indexed", None),
    ("semecs.verify_search", "semecs.semecs", "semecs_verify_search", None),
    ("semecs.keygen", "semecs.semecs", "semecs_keygen_from_secret",
     lambda args, kwargs, result: args[1]),
    ("eta.sign", "semecs.eta", "eta_sign", None),
    ("eta.verify", "semecs.eta", "eta_verify", None),
    ("schnorr.sign", "semecs.schnorr", "schnorr_sign", None),
    ("schnorr.verify", "semecs.schnorr", "schnorr_verify", None),
)

#: (layer, module, class, method, quantity) for methods.
METHODS = (
    ("fdh.eval", "semecs.fdh", "Fdh", "eval", None),
    ("semecs.search", "semecs.semecs", "SearchIndex", "lookup",
     lambda args, kwargs, result: result[1]),
    ("semecs.from_bytes", "semecs.semecs", "SignedEnvelope", "from_bytes", None),
)

GROUP_LAYERS = ("group.exp", "group.double_exp", "group.group_mul")


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []  # (layer, parent index, t0 ns, t1 ns, quantity)
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording --------------------------------------------------------
    def wrap(self, layer, fn, quantity=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                spans[idx] = (layer, parent, t0, t1, None)
            if quantity is not None:
                spans[idx] = (layer, parent, t0, t1, quantity(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self, kind, fn, *args):
        """Run one benchmark operation as a root span named ``op:<kind>``."""
        return self.wrap("op:" + kind, fn)(*args)

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        package = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "semecs" or n.startswith("semecs."))]
        for layer, mod_name, attr, quantity in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr, None)
            if original is None:
                continue
            wrapped = self.wrap(layer, original, quantity)
            for mod in package:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
        keystore = sys.modules["semecs.keystore"]
        self._patch(keystore, "GroupParams", self.wrap("keystore.GroupParams", keystore.GroupParams))
        for layer, mod_name, cls_name, attr, quantity in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(layer, raw.__func__, quantity)))
            else:
                self._patch(cls, attr, self.wrap(layer, raw, quantity))
        self._patch(os, "fsync", self.wrap("os.fsync", os.fsync))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------
    def summary(self, units: int = 1) -> "Summary":
        return Summary(self.spans, units)

    def write(self, path: str, label: str) -> None:
        with open(path, "a") as fh:
            for i, (layer, parent, t0, t1, qty) in enumerate(self.spans):
                fh.write(json.dumps([label, i, layer, parent, t0, t1, qty]) + "\n")


class Summary:
    """Per-layer calls, inclusive and self time, quantities, per-op counts.

    ``units`` is the number of operations one benchmark op stands for (the K
    key indices of one provisioning op), so per-op counts are per index.
    """

    def __init__(self, spans, units: int = 1):
        self.spans, self.units = spans, units
        n = len(spans)
        self.root = [0] * n
        child_ns = [0] * n
        for i, (layer, parent, t0, t1, _q) in enumerate(spans):
            self.root[i] = i if parent < 0 else self.root[parent]
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.qty = defaultdict(int)
        self.ops = 0
        for i, (layer, parent, t0, t1, q) in enumerate(spans):
            if parent < 0 and layer.startswith("op:"):
                self.ops += 1
            self.calls[layer] += 1
            self.incl_ns[layer] += t1 - t0
            self.self_ns[layer] += t1 - t0 - child_ns[i]
            if q is not None:
                self.qty[layer] += q

    def within(self, ancestor: str, layers) -> tuple[int, int]:
        """(calls, inclusive ns) of ``layers`` made inside a span of ``ancestor``."""
        inside = [False] * len(self.spans)
        calls = ns = 0
        for i, (layer, parent, t0, t1, _q) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent] or self.spans[parent][0] == ancestor)
            if inside[i] and layer in layers:
                calls += 1
                ns += t1 - t0
        return calls, ns

    def per_op(self, layer: str) -> float:
        return self.calls[layer] / (self.ops * self.units) if self.ops else 0.0

    def us_per_call(self, layer: str) -> float:
        return self.incl_ns[layer] / self.calls[layer] / 1e3 if self.calls[layer] else 0.0

    def self_us_per_call(self, layer: str) -> float:
        return self.self_ns[layer] / self.calls[layer] / 1e3 if self.calls[layer] else 0.0

    def counts_by_root(self, layer: str) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            if span[0] == layer:
                out[self.root[i]] += 1
        return out

    def op_roots(self, kind: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[1] < 0 and s[0] == "op:" + kind]

    def op_ms(self, kind: str) -> list[float]:
        return [(self.spans[i][3] - self.spans[i][2]) / 1e6 for i in self.op_roots(kind)]
