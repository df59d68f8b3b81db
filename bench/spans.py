"""Span tracing around calls into mapdeg's public functions.

The benchmark wraps each traced function from the outside: no span lives
inside the program. A wrapper records one span per call, with its name,
start, end, parent span, the id of the op (input line) it served, a size
(rows, nodes or node-t pairs) and whether it raised. Spans stay in memory
until the benchmark writes them out.

Modules are reached with importlib.import_module, because the attribute
mapdeg.degree is the re-exported function, not the module. A wrapper is
installed in every module namespace that binds the wrapped function, so
calls through `from .degree import degree` in certify and cli are seen too.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

_MODULES = (
    "mapdeg",
    "mapdeg.cli",
    "mapdeg.certify",
    "mapdeg.degree",
    "mapdeg.expr",
    "mapdeg.geometry",
)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _grid_nodes(dim, resolution):
    return resolution if dim == 1 else 2 * resolution * resolution


def _segment_pairs(args, kwargs, result):
    f = _arg(args, kwargs, 0, "f")
    nodes = _grid_nodes(f.dim, _arg(args, kwargs, 2, "resolution"))
    t_values = _arg(args, kwargs, 3, "t_values")
    return nodes * (1 if t_values is None else len(t_values))


#: (module, function, span name, size of the call from (args, kwargs, result)).
#: A size of None records no size.
TARGETS = (
    ("mapdeg.cli", "main", "cli", None),
    ("mapdeg.expr", "parse", "expr.parse", None),
    ("mapdeg.expr", "eval_array", "expr.eval_array", lambda a, k, r: len(r)),
    ("mapdeg.geometry", "make_grid", "geometry.make_grid", lambda a, k, r: len(r)),
    ("mapdeg.geometry", "normalize_rows", "geometry.normalize_rows", lambda a, k, r: len(r)),
    ("mapdeg.geometry", "frame_rows", "geometry.frame_rows", lambda a, k, r: len(r[0])),
    ("mapdeg.degree", "degree", "degree.degree", None),
    (
        "mapdeg.degree",
        "winding_raw",
        "degree.winding_raw",
        lambda a, k, r: _arg(a, k, 1, "resolution"),
    ),
    (
        "mapdeg.degree",
        "quadrature_raw",
        "degree.quadrature_raw",
        lambda a, k, r: _grid_nodes(2, _arg(a, k, 1, "resolution")),
    ),
    ("mapdeg.degree", "sup_distance", "degree.sup_distance", None),
    ("mapdeg.degree", "segment_min_norm", "degree.segment_min_norm", _segment_pairs),
    ("mapdeg.degree", "check_blend_validity", "degree.check_blend_validity", None),
    ("mapdeg.certify", "ball_certificate", "certify.ball_certificate", None),
    ("mapdeg.certify", "certify_not_iterate", "certify.certify_not_iterate", None),
    ("mapdeg.certify", "homotopy_check", "certify.homotopy_check", None),
    ("mapdeg.certify", "is_perfect_power", "certify.is_perfect_power", None),
)

#: PerturbationField.__call__ is a method; it is wrapped on the class.
FIELD_SPAN = "expr.field"


class Tracer:
    """Records spans while installed; `op` is the id of the current input line."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, size, error]
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, size):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for module_name, attr, name, size in TARGETS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue  # the function is gone; its metrics read 0
            wrapper = self._wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        field_cls = importlib.import_module("mapdeg.expr").PerturbationField
        call = field_cls.__call__
        self._undo.append((field_cls, "__call__", call))
        field_cls.__call__ = self._wrap(FIELD_SPAN, call, lambda a, k, r: len(r))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, errors, summed size and summed self time (ms).

        Self time is a span's duration minus the durations of its direct
        children; calls nest strictly in one thread, so children never
        overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "errors": 0, "size": 0, "self_ms": 0.0}
        )
        for i, (name, start, end, _parent, _op, size, error) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["errors"] += int(error)
            row["size"] += size
            row["self_ms"] += 1000.0 * (end - start - child[i])
        return dict(out)

    def write(self, path, label: str) -> None:
        """Append the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        keys = ("name", "start", "end", "parent", "op", "size", "error")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                row = dict(zip(keys, span))
                row["start"] -= t0
                row["end"] -= t0
                row["pass"] = label
                fh.write(json.dumps(row) + "\n")
