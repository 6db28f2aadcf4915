"""Layer spans recorded from outside the library.

``Tracer.install()`` wraps the public functions and methods of each layer
module of ``confgsb``.  Module-level names that other modules imported
from a layer (``from .indices import index_add``) are rebound to the same
wrapper, so a call is seen wherever it is made.  A call opens a span when
it crosses from one span name into another: every layer has one name
(``engine``, ``words``, ...), except ``rewrite``, whose methods each have
their own (``rewrite.reduce``, ``rewrite.find_occurrences``, ...), so the
rewrite sub-steps are measured even when they call each other.  Recursion
inside one name opens no span.

Spans hold a name, a start, an end and a parent and stay in memory, in
flat arrays, until ``uninstall()``.  Properties (``NormalWord.length``,
``GSBReport.is_gsb``) and dunder methods other than ``ConfPoly``
arithmetic and ``RewriteSystem.__init__`` are not wrapped.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

PACKAGE = "confgsb"
LAYERS = ("cli", "parsing", "envelope", "rewrite", "engine", "words", "indices")

# private or dunder methods that are layer entry points all the same
EXTRA_METHODS = {
    ("words", "ConfPoly"): ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"),
    ("rewrite", "RewriteSystem"): ("__init__", "_append"),
}

# the counters each span name feeds, beside its call count and self time
COUNTERS = ("engine.terms_out", "rewrite.systems_built", "rewrite.reduce.steps",
            "rewrite.basis_candidates", "rewrite.basis_words",
            "rewrite.tasks_popped", "rewrite.tasks_added", "parsing.chars")


def _span_name(layer: str, attr: str) -> str:
    return f"rewrite.{attr}" if layer == "rewrite" else layer


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = [(-1, -1)]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._hook_for(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top[1] == nid:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(top[0])
            ends.append(0.0)
            stack.append((idx, nid))
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(idx, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _parent_name(self, idx: int) -> str:
        parent = self.span_parent[idx]
        return self.names[self.span_name[parent]] if parent >= 0 else ""

    def _hook_for(self, name: str):
        counts = self.counts
        if name == "engine":
            def hook(idx, args, result):
                terms = getattr(result, "terms", None)
                if terms is not None:
                    counts["engine.terms_out"] += len(terms)
        elif name == "parsing":
            def hook(idx, args, result):
                counts["parsing.chars"] += sum(len(a) for a in args if isinstance(a, str))
        elif name == "rewrite.__init__":
            def hook(idx, args, result):
                counts["rewrite.systems_built"] += 1
        elif name == "rewrite.reduce":
            def hook(idx, args, result):
                counts["rewrite.reduce.steps"] += len(result[1])
        elif name == "rewrite.irreducible_words":
            def hook(idx, args, result):
                counts["rewrite.basis_words"] += len(result)
        elif name in ("rewrite.find_occurrences", "rewrite.eval_composition",
                      "rewrite._append"):
            key, under = {
                "rewrite.find_occurrences": ("rewrite.basis_candidates",
                                             "rewrite.irreducible_words"),
                "rewrite.eval_composition": ("rewrite.tasks_popped", "rewrite.complete"),
                "rewrite._append": ("rewrite.tasks_added", "rewrite.complete"),
            }[name]

            def hook(idx, args, result):
                if self._parent_name(idx) == under:
                    counts[key] += 1
        else:
            hook = None
        return hook

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer and rebind the names other modules imported."""
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, _span_name(layer, attr))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        # rebind every module-level name bound to a wrapped function, in the
        # defining module and in every importer (the oracle ``naive`` aside)
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            if modname == f"{PACKAGE}.naive":
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_class(self, layer: str, cls) -> None:
        extra = EXTRA_METHODS.get((layer, cls.__name__), ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            name = _span_name(layer, attr)
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(raw.__func__, name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``self_s``, ``total_s`` (durations with
        the child spans) and ``entries`` (spans whose parent belongs to
        another layer)."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        layer_of = [name.split(".")[0] for name in self.names]
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "entries": 0}
               for name in self.names}
        for i in range(n):
            nid = names[i]
            rec = out[self.names[nid]]
            rec["calls"] += 1
            rec["total_s"] += ends[i] - starts[i]
            rec["self_s"] += ends[i] - starts[i] - child[i]
            p = parents[i]
            if p < 0 or layer_of[names[p]] != layer_of[nid]:
                rec["entries"] += 1
        return out

    def write_spans(self, path: str) -> None:
        """A JSON header line (span names and count), then the four arrays
        in native byte order: name ids and parent indices (int32), starts
        and ends (float64 ``perf_counter`` seconds)."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": self.span_count(),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(handle)
