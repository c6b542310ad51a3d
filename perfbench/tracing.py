"""Spans around the public functions of the sievelab modules.

``Tracer.install`` replaces every public function of each module (and
the public methods of ``PrimeTables``) with a wrapper that records a span:
name, start, end, parent span and operation id.  The replacement is made
in every sievelab module that holds a reference to the function, so calls
between modules are seen too.  Functions are found by looking, not by a
fixed list, so a renamed function shows up under its new name.  Nothing
under ``src/`` is changed on disk; ``uninstall`` puts the originals back.

Spans stay in memory in flat lists and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

MODULES = (
    "arith",
    "problem",
    "legendre",
    "selberg",
    "rosser",
    "buchstab",
    "parity",
    "weighted",
    "harness",
    "cli",
)

#: classes whose public methods are layer boundaries (the lazy tables)
TRACED_CLASSES = {"arith": ("PrimeTables",)}


def _suite_tag(args, kwargs):
    name = args[0] if args else kwargs.get("name")
    return name if isinstance(name, str) else None


def _grid_tag(args, kwargs):
    s_max = args[0] if args else kwargs.get("s_max", 30.0)
    return f"s_max={float(s_max):g}" if isinstance(s_max, (int, float)) else None


#: spans of these functions are also split by an argument
TAGGERS = {"harness.run_suite": _suite_tag, "buchstab.build_grid": _grid_tag}


def _remainder_is_zero(result):
    count = getattr(result, "count", None)
    return count == 0 if isinstance(count, int) else None


def _support_size(result):
    lambdas = getattr(result, "lambdas", None)
    return len(lambdas) if isinstance(lambdas, dict) else None


#: values read off a function's result where the layer can waste work
PROBES = {
    "problem.remainder": ("zero", _remainder_is_zero),
    "selberg.lambda_weights": ("support", _support_size),
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op_of: list[int] = []
        self.tags: dict[int, str] = {}
        self.probes: dict[str, list] = {}
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self._op)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, name: str, fn):
        """Call fn() inside a span named ``op.<name>`` for operation op_id."""
        self._op = op_id
        idx = self._open(self._name_id("op." + name))
        try:
            return fn()
        finally:
            self._close(idx)
            self._op = -1

    def _wrap(self, qualname: str, fn):
        tagger = TAGGERS.get(qualname)
        probe = PROBES.get(qualname)
        name_id = self._name_id(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            if tagger is not None:
                tag = tagger(args, kwargs)
                if tag is not None:
                    self.tags[idx] = tag
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if probe is not None:
                value = probe[1](result)
                if value is not None:
                    self.probes.setdefault(qualname + "." + probe[0], []).append(
                        (idx, value)
                    )
            return result

        return wrapper

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the modules."""
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module("sievelab." + short)
            except ImportError:
                continue
        namespaces = list(mods.values()) + [importlib.import_module("sievelab")]
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                if cls is None:
                    continue
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(obj):
                        continue
                    self._undo.append((cls, attr, obj))
                    setattr(cls, attr, self._wrap(f"{short}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                new = wrapped.get(id(obj))
                if new is not None and inspect.isfunction(obj):
                    self._undo.append((ns, attr, obj))
                    setattr(ns, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- output --------------------------------------------------------

    def export(self) -> dict:
        """All spans as plain lists, for writing out or merging."""
        return {
            "names": self.names,
            "spans": [
                [self.name_of[i], self.start[i], self.end[i], self.parent[i], self.op_of[i]]
                for i in range(len(self.start))
            ],
            "tags": self.tags,
            "probes": self.probes,
        }


def write_spans(path, exports: list[dict]) -> None:
    """Write the spans of one or more processes as gzipped JSON."""
    with gzip.open(path, "wt") as fh:
        json.dump({"processes": exports}, fh)


class Summary:
    """Per-name totals over the spans of one or more processes."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.probe_values: dict[str, list] = {}
        self.probe_parents: dict[str, list[str]] = {}
        self.spans = 0

    def add(self, export: dict) -> None:
        names = export["names"]
        spans = export["spans"]
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        tags = {int(i): tag for i, tag in export["tags"].items()}
        for i, (name_id, start, end, parent, _) in enumerate(spans):
            dur = end - start
            names_here = [names[name_id]]
            if i in tags:
                names_here.append(f"{names[name_id]}[{tags[i]}]")
            for name in names_here:
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - child_time[i]
        self.spans += len(spans)
        for key, items in export["probes"].items():
            vals = self.probe_values.setdefault(key, [])
            parents = self.probe_parents.setdefault(key, [])
            for idx, value in items:
                vals.append(value)
                p = spans[idx][3]
                parents.append(names[spans[p][0]] if p >= 0 else "")

    def functions(self) -> dict[str, dict]:
        """``<module>.<function>`` -> calls, s (inclusive) and self_s.

        Functions split by an argument also get rows named
        ``<module>.<function>[<tag>]``.
        """
        out = {}
        for name in sorted(self.calls):
            if name.startswith("op."):
                continue
            out[name] = {
                "calls": self.calls[name],
                "s": self.total[name],
                "self_s": self.self_time[name],
            }
        return out

    def modules(self) -> dict[str, dict]:
        """Per module: calls and self time summed over its functions."""
        out: dict[str, dict] = {}
        for name, row in self.functions().items():
            if "[" in name:
                continue
            mod = name.split(".", 1)[0]
            agg = out.setdefault(mod, {"calls": 0, "self_s": 0.0})
            agg["calls"] += row["calls"]
            agg["self_s"] += row["self_s"]
        return out
