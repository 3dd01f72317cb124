"""In-memory span tracer that wraps the program's functions from outside.

`Tracer.install()` replaces, for the duration of a `with` block:

- every public function of the wcelab modules, at its definition and at
  every module attribute or module-level dict entry that re-binds it
  (`checks.operator_norm`, `CHECK_GROUPS["norm"]`, ...);
- the public methods, `cached_property` getters, `__init__` and the
  arithmetic operators of the classes those modules define;
- the LAPACK entry points the program calls (`numpy.linalg.svd`,
  `numpy.linalg.eigvals`, `numpy.linalg.norm` with ord 2,
  `scipy.linalg.eigh`, `scipy.linalg.schur`).

Each call becomes a span (name, start, end, parent). A span's layer is the
first dotted part of its name, the module for program code and `lapack` for
the library calls. Self time is a span's duration minus its children's.
Spans of the check groups carry the instance's n and digest.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterator

import numpy.linalg
import scipy.linalg

MODULES = ("measure", "condexp", "opalgebra", "wce", "spectral", "generator",
           "instance_io", "checks", "suite", "cli")
_OPERATORS = ("__init__", "__matmul__", "__add__", "__sub__", "__mul__", "__rmul__")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One tuple per finished call: (name id, start, end, parent index,
        # child time, outermost of its name, tag).
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._child: list[float] = []
        self._depth: list[int] = []

    def wrap(self, name: str, fn: Callable,
             tag: Callable[[tuple], object] | None = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        spans, stack, child, depth = self.spans, self._stack, self._child, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            child.append(0.0)
            outer = depth[nid] == 0
            depth[nid] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[nid] -= 1
                stack.pop()
                inner = child.pop()
                if child:
                    child[-1] += end - start
                spans[idx] = (nid, start, end, parent, inner, outer,
                              tag(args) if tag is not None else None)

        return traced

    @contextlib.contextmanager
    def install(self) -> Iterator[None]:
        """Wrap the program for the duration of the block, then restore it."""
        mods = {m: importlib.import_module(f"wcelab.{m}") for m in MODULES}
        undo: list[Callable[[], None]] = []
        wrapped: dict[int, Callable] = {}
        group_fns = {id(f) for f in mods["checks"].CHECK_GROUPS.values()}

        def set_attr(owner, attr, value):
            old = owner.__dict__[attr]
            undo.append(lambda: setattr(owner, attr, old))
            setattr(owner, attr, value)

        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    tag = _group_tag if id(obj) in group_fns else None
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj, tag)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for name, member in list(vars(obj).items()):
                        label = f"{layer}.{attr}.{name}"
                        if inspect.isfunction(member) and (
                                not name.startswith("_") or name in _OPERATORS):
                            set_attr(obj, name, self.wrap(label, member))
                        elif isinstance(member, classmethod):
                            set_attr(obj, name, classmethod(self.wrap(label, member.__func__)))
                        elif isinstance(member, cached_property):
                            prop = cached_property(self.wrap(label, member.func))
                            prop.__set_name__(obj, name)
                            set_attr(obj, name, prop)

        # Re-point every binding of a wrapped function, including the ones
        # made by `from ... import` and the check-group dispatch tables.
        for mod in (*mods.values(), importlib.import_module("wcelab")):
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    set_attr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            undo.append(functools.partial(obj.__setitem__, key, value))
                            obj[key] = wrapped[id(value)]

        for owner, attr in ((numpy.linalg, "svd"), (numpy.linalg, "eigvals"),
                            (scipy.linalg, "eigh"), (scipy.linalg, "schur")):
            set_attr(owner, attr, self.wrap(f"lapack.{attr}", getattr(owner, attr)))
        norm = numpy.linalg.norm
        norm2 = self.wrap("lapack.norm2", norm)

        def traced_norm(x, ord=None, *args, **kwargs):
            return (norm2 if ord == 2 else norm)(x, ord, *args, **kwargs)

        set_attr(numpy.linalg, "norm", traced_norm)
        try:
            yield
        finally:
            for restore in reversed(undo):
                restore()

    def layer_totals(self, window: slice) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time of outermost calls, self time;
        per layer (name prefix before the first dot): self time."""
        by_name: dict[str, dict[str, float]] = {}
        for nid, start, end, _parent, inner, outer, _tag in self.spans[window]:
            name = self.names[nid]
            agg = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            if outer:
                agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        layers: dict[str, dict[str, float]] = {}
        for name, agg in by_name.items():
            layer = layers.setdefault(name.split(".", 1)[0], {"self_s": 0.0})
            layer["self_s"] += agg["self_s"]
        return {"names": by_name, "layers": layers}

    def instance_ms_by_n(self, window: slice) -> dict[int, float]:
        """Mean check time per instance (all groups summed), keyed by n."""
        per_instance: dict[str, list] = {}
        for _nid, start, end, _parent, _inner, _outer, tag in self.spans[window]:
            if tag is not None:
                n, digest = tag
                entry = per_instance.setdefault(digest, [n, 0.0])
                entry[1] += end - start
        by_n: dict[int, list[float]] = {}
        for n, seconds in per_instance.values():
            by_n.setdefault(n, []).append(seconds)
        return {n: 1000.0 * sum(v) / len(v) for n, v in sorted(by_n.items())}

    def write(self, path: Path, header: dict, window: slice) -> None:
        """One JSON line of header, then one per span:
        [name, start_s, end_s, parent_index, n, digest]."""
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            base = window.start
            for nid, start, end, parent, _inner, _outer, tag in self.spans[window]:
                n, digest = tag if tag is not None else (None, None)
                out.write(json.dumps([self.names[nid], round(start, 7), round(end, 7),
                                      parent - base if parent >= 0 else -1, n, digest])
                          + "\n")


def _group_tag(args: tuple) -> tuple[int, str]:
    ctx = args[0]
    return len(ctx.bundle.instance.u.values), ctx.digest[:16]
