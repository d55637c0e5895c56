"""Spans around the package's public functions and the numpy LAPACK kernels.

The tracer replaces every public function of each package module with a
wrapper that records a span (name, start, end, parent span, operation) while
an operation is in progress, and does nothing else otherwise. The package
binds names with ``from .metric import require_member``, so a wrapper must be
installed in every module namespace that holds the original object, not only
in the defining module. Spans stay in memory; the caller writes them out when
the run ends. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

LAYERS = ("metric", "spectral", "canonical", "lie", "sampler", "matrixfile", "cli")
KERNELS = ("eigh", "eigvalsh", "svd", "qr", "det")
SETUP = "setup"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: object
    raised: str | None
    nbytes: int


# Sizes recorded on the spans of the serializer: characters written or read.
_SIZES = {
    "matrixfile.dumps_matrix": lambda args, kwargs, result: len(result),
    "matrixfile.loads_matrix": lambda args, kwargs, result: len(args[0] if args else kwargs["text"]),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._op = None
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pseudounitary" or name.startswith("pseudounitary."))]
        for layer in LAYERS:
            mod = sys.modules[f"pseudounitary.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for other in modules:
                    for bound, value in list(vars(other).items()):
                        if value is fn:
                            self._replace(other, bound, wrapper)
        for kname in KERNELS:
            self._replace(np.linalg, kname, self._wrap(f"kernel.{kname}", getattr(np.linalg, kname)))

    def uninstall(self) -> None:
        while self._restore:
            mod, name, value = self._restore.pop()
            setattr(mod, name, value)

    def _replace(self, mod, name, wrapper) -> None:
        self._restore.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        size = _SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(index, name, start, parent, type(exc).__name__, 0)
                raise
            tracer._close(index, name, start, parent, None,
                          size(args, kwargs, result) if size else 0)
            return result
        return traced

    def _close(self, index, name, start, parent, raised, nbytes) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = Span(name, start, end, parent, self._op, raised, nbytes)

    # -- operation context ------------------------------------------------

    def begin_op(self, op) -> None:
        self._op = op

    def end_op(self) -> None:
        self._op = None


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Aggregates over the spans of the traced operations.

    ``ops`` lists every operation executed while tracing, once per execution,
    and ``passes`` is the number of traced passes over the workload's
    operation list; times are reported per pass, calls per operation.
    Spans recorded during set-up only feed the sampler total.
    """

    def __init__(self, spans: list, ops: list, passes: int):
        self.n_ops = max(len(ops), 1)
        self.passes = max(passes, 1)
        self.ops_by_kind = Counter((op.kind, op.case) for op in ops)
        self.calls = Counter()
        self.total = defaultdict(float)      # outermost spans of each name, seconds
        self.self_time = defaultdict(float)  # per layer, seconds
        self.bytes = Counter()
        self.rejections = 0
        self.sampler_setup = 0.0
        self.by_kind = defaultdict(Counter)  # (kind, case) -> span name -> calls

        child_time = defaultdict(float)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        for index, span in enumerate(spans):
            dur = span.end - span.start
            layer = layer_of(span.name)
            if span.op is SETUP:
                if layer == "sampler" and not _has_ancestor(spans, span, lambda n: layer_of(n) == layer):
                    self.sampler_setup += dur
                continue
            self.calls[span.name] += 1
            self.by_kind[(span.op.kind, span.op.case)][span.name] += 1
            if not _has_ancestor(spans, span, lambda n: n == span.name):
                self.total[span.name] += dur
            self.self_time[layer] += dur - child_time[index]
            self.bytes[span.name] += span.nbytes
            parent = spans[span.parent] if span.parent >= 0 else None
            if (span.raised == "MembershipError" and layer == "metric"
                    and not (parent and layer_of(parent.name) == "metric"
                             and parent.raised == "MembershipError")):
                self.rejections += 1

    def calls_per_op(self, name: str) -> float:
        return self.calls[name] / self.n_ops

    def total_ms(self, name: str) -> float:
        """Milliseconds per traced pass spent in the outermost calls of ``name``."""
        return 1e3 * self.total[name] / self.passes

    def self_ms(self, layer: str) -> float:
        return 1e3 * self.self_time[layer] / self.passes

    def kernel_ms(self) -> float:
        return sum(self.total_ms(f"kernel.{k}") for k in KERNELS)

    def per_kind(self, name: str, kind: str) -> float:
        """Calls of ``name`` per operation of ``kind`` on inputs it must accept."""
        keys = [key for key in self.ops_by_kind if key[0] == kind and key[1] != "nonmember"]
        ops = sum(self.ops_by_kind[key] for key in keys)
        return sum(self.by_kind[key][name] for key in keys) / ops if ops else 0.0

    def table(self) -> dict:
        """Calls per operation of every traced name, for each (kind, case) of operation."""
        return {
            f"{kind} [{case}]": {name: calls / self.ops_by_kind[(kind, case)]
                                 for name, calls in sorted(self.by_kind[(kind, case)].items())}
            for kind, case in sorted(self.ops_by_kind)
        }


def _has_ancestor(spans, span, predicate) -> bool:
    parent = span.parent
    while parent >= 0:
        if predicate(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False
