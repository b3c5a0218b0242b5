"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces every public function of the padicdyn modules
(any callable but a class whose ``__module__`` is the layer's, so functools
wrappers such as ``lru_cache`` count), on its own module and on every other
module (and the package) that bound it with ``from .x import f``, by a
wrapper that records a span: name, start, end, parent span, op id, the
binding it was called through and an element count taken from the argument
sizes (or the result's). The distinct int first arguments of each function
are kept too, for the share of calls that did new work. ``Tracer.teardown``
puts every original back.

Spans stay in memory, in flat typed arrays (about 50 bytes a span; two
rounds of the oracle-bigint workload make ~5 x 10^5 of them), until
``write`` dumps them as gzipped CSV. A span's self time is its duration
minus the durations of its direct children; calls are synchronous, so
children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from typing import NamedTuple

import numpy as np

PACKAGE = "padicdyn"
LAYERS = ("padic", "analysis", "unitgroups", "dynamics", "oracle", "kernels", "cli")


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a top-level span
    op: int  # -1 outside an op
    name: str
    via: str
    start: float
    end: float
    self_s: float
    items: int


def _size(obj) -> int | None:
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, (list, tuple)):
        return len(obj)
    reps = getattr(obj, "representatives", None)
    if isinstance(reps, tuple):
        return len(reps)
    return None


def _arg_size(args) -> int:
    for a in args:
        n = _size(a)
        if n is not None:
            return n
    return -1


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._vias: list[str] = []
        self._parent = array("q")
        self._op = array("q")
        self._name = array("H")
        self._via = array("B")
        self._start = array("d")
        self._end = array("d")
        self._self = array("d")  # children's total while open, self time once closed
        self._items = array("q")
        self._keys: dict[int, set] = {}
        self._stack: list[int] = []
        self._current_op = -1
        self._op_elapsed: dict[int, float] = {}
        self._bindings: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        originals = {}
        for short, mod in modules.items():
            for attr, val in vars(mod).items():
                if (callable(val) and not inspect.isclass(val) and not attr.startswith("_")
                        and getattr(val, "__module__", None) == mod.__name__):
                    originals[id(val)] = (val, f"{short}.{attr}")
        holders = list(modules.items()) + [(PACKAGE, importlib.import_module(PACKAGE))]
        for via, mod in holders:
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, self._wrap(val, hit[1], via))
                    self._bindings.append((mod, attr, val))

    def teardown(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)

    def bindings(self) -> list[tuple]:
        """(module, attribute, original function) of every wrapped binding."""
        return list(self._bindings)

    def bindings_restored(self) -> bool:
        return all(getattr(mod, attr) is orig for mod, attr, orig in self._bindings)

    def _intern(self, table: list[str], value: str) -> int:
        if value not in table:
            table.append(value)
        return table.index(value)

    def _wrap(self, fn, name: str, via: str):
        name_id = self._intern(self._names, name)
        via_id = self._intern(self._vias, via)
        keys = self._keys.setdefault(name_id, set())
        parent, op, names, vias = self._parent, self._op, self._name, self._via
        start, end, self_s, items = self._start, self._end, self._self, self._items
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            op.append(self._current_op)
            names.append(name_id)
            vias.append(via_id)
            end.append(0.0)
            self_s.append(0.0)
            items.append(_arg_size(args))
            if args and type(args[0]) is int:
                keys.add(args[0])
            stack.append(sid)
            start.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - start[sid]
                end[sid] = t1
                self_s[sid] = duration - self_s[sid]
                if stack:
                    self_s[stack[-1]] += duration
                if items[sid] < 0:
                    items[sid] = _size(result) or 0

        return wrapper

    # -- ops --------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._current_op = op_id

    def end_op(self, op_id: int, elapsed: float) -> None:
        self._op_elapsed[op_id] = elapsed
        self._current_op = -1

    # -- results ----------------------------------------------------------------

    def spans(self) -> list[Span]:
        return [
            Span(i, self._parent[i], self._op[i], self._names[self._name[i]],
                 self._vias[self._via[i]], self._start[i], self._end[i], self._self[i],
                 self._items[i])
            for i in range(len(self._start))
        ]

    def summary(self, out_bytes: dict | None = None) -> dict:
        """Per-function totals, plus the coverage of op wall time by
        top-level spans."""
        count = len(self._start)
        name = np.asarray(self._name)
        via = np.asarray(self._via)
        duration = np.asarray(self._end) - np.asarray(self._start)
        self_s = np.asarray(self._self)
        items = np.asarray(self._items)
        top = (np.asarray(self._parent) < 0) & (np.asarray(self._op) >= 0)
        funcs: dict[str, dict] = {}
        for nid, fname in enumerate(self._names):
            mask = name == nid
            calls = int(mask.sum())
            if not calls:
                continue
            funcs[fname] = {
                "calls": calls,
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_s[mask].sum()),
                "items": int(items[mask].sum()),
                "distinct_ratio": len(self._keys.get(nid, ())) / calls,
                "via": sorted({self._vias[v] for v in np.unique(via[mask])}),
            }
        if "cli.main" in funcs:
            funcs["cli.main"]["out_bytes"] = sum((out_bytes or {}).values())
        op_wall = sum(self._op_elapsed.values())
        return {
            "functions": funcs,
            "traced": list(self._names),
            "spans": count,
            "op_wall_s": op_wall,
            "coverage": float(duration[top].sum()) / op_wall if op_wall else 0.0,
        }

    def write(self, path: str) -> None:
        """Every span as a gzipped CSV row, in call order."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write(",".join(Span._fields) + "\n")
            for i in range(len(self._start)):
                fh.write(f"{i},{self._parent[i]},{self._op[i]},{self._names[self._name[i]]},"
                         f"{self._vias[self._via[i]]},{self._start[i]:.7f},{self._end[i]:.7f},"
                         f"{self._self[i]:.7f},{self._items[i]}\n")
