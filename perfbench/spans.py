"""Spans around calls into the five arczeta layers, recorded from outside.

Nothing under src/ is touched: ``Tracer.install`` replaces, by attribute,
every public function of a layer module (in every arczeta namespace that
re-exports it) and every public or dunder method of the value classes
with a wrapper that records one span per call.  A span is (name, start,
end, parent span, request id); spans live in flat typed arrays so that
millions of them fit in a few tens of megabytes, and are written out once
at the end.

A span's self time is its duration minus the time covered by its direct
children.  A module function also owns the self time of the method spans
of its own layer below it (down to the next module function), so that the
PolynomialGerm arithmetic run by verify_split counts as verify_split's,
while the Laurent arithmetic run by beta_eval stays algebra's.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path

LAYERS = ("algebra", "scissor", "arcspace", "germ", "cli")
FIELDS = ("name", "parent", "request", "weight", "start", "end")
TYPECODES = {"name": "H", "parent": "i", "request": "i", "weight": "q", "start": "d", "end": "d"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.methods: set[int] = set()  # name ids of class methods
        self.spans = {field: array(TYPECODES[field]) for field in FIELDS}
        self.request = [-1]
        self._stack = [-1]
        # (request, args, kwargs) of every stratify call
        self.stratify_keys: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, weigh=None):
        """fn, recording a span per call; weigh(args, kwargs, result) sets its weight."""
        nid = self._name_id(name)
        spans, stack, request, clock = self.spans, self._stack, self.request, time.perf_counter
        ids, parents, requests, weights = (spans[f] for f in ("name", "parent", "request", "weight"))
        starts, ends = spans["start"], spans["end"]

        def traced(*args, **kwargs):
            index = len(ends)
            ids.append(nid)
            parents.append(stack[-1])
            requests.append(request[0])
            weights.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if weigh is not None:
                weights[index] = weigh(args, kwargs, result)
            return result

        return traced

    def install(self, package, classes):
        """Wrap the layers of package and the methods of classes; returns undo."""
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = [package] + modules
        undo = []

        def replace(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if (
                    isinstance(fn, type)
                    or not callable(fn)
                    or getattr(fn, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{fn.__qualname__}"
                weigh = self._stratify_weigh if name == "arcspace.stratify" else None
                wrapped[id(fn)] = self.wrap(name, fn, weigh)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    replace(namespace, attr, wrapped[id(value)])

        for cls in classes:
            layer = cls.__module__.rsplit(".", 1)[1]
            by_function = {}
            stored = vars(cls).get("_terms")  # the slot holding the term map
            for attr, value in list(vars(cls).items()):
                dunder = attr.startswith("__") and attr.endswith("__")
                if (attr.startswith("_") and not dunder) or attr == "__setattr__":
                    continue
                kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
                fn = value.__func__ if kind else value
                if not callable(fn) or isinstance(fn, type):
                    continue
                if id(fn) not in by_function:
                    weigh = None
                    if attr == "__mul__" and stored is not None:
                        weigh = _term_pairs(cls, stored)
                    name = f"{layer}.{fn.__qualname__}"
                    by_function[id(fn)] = self.wrap(name, fn, weigh)
                    self.methods.add(self._name_id(name))
                traced = by_function[id(fn)]
                replace(cls, attr, kind(traced) if kind else traced)

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    def _stratify_weigh(self, args, kwargs, report) -> int:
        self.stratify_keys.add((self.request[0], args, tuple(sorted(kwargs.items()))))
        return len(report.strata)

    # -- reading the spans back ------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed weight, summed self time, and owned time.

        owned_s is the self time of the name's spans plus that of the
        same-layer method spans they own (see the module docstring).
        """
        spans = self.spans
        ids, starts, ends, parents = spans["name"], spans["start"], spans["end"], spans["parent"]
        layers = [name.split(".", 1)[0] for name in self.names]
        child = array("d", bytes(8 * len(ends)))
        owner = array("i", range(len(ends)))
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
                nid = ids[i]
                if nid in self.methods and layers[ids[parent]] == layers[nid]:
                    if ids[owner[parent]] not in self.methods:
                        owner[i] = owner[parent]
        out = {name: {"calls": 0, "weight": 0, "self_s": 0.0, "owned_s": 0.0} for name in self.names}
        for i, nid in enumerate(ids):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["weight"] += spans["weight"][i]
            own = ends[i] - starts[i] - child[i]
            entry["self_s"] += own
            out[self.names[ids[owner[i]]]]["owned_s"] += own
        return out

    def write(self, path: Path):
        """One JSON header line (names, fields, count), then each field's raw array."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "fields": [[field, TYPECODES[field]] for field in FIELDS],
            "count": len(self.spans["end"]),
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for field in FIELDS:
                self.spans[field].tofile(handle)


def read_spans(path: Path) -> tuple[list[str], dict[str, array]]:
    """Load a file written by Tracer.write: (names, {field: array})."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        fields = {}
        for field, code in header["fields"]:
            values = array(code)
            values.fromfile(handle, header["count"])
            fields[field] = values
    return header["names"], fields


def _term_pairs(cls, stored):
    """weigh for a product: len(left) * len(right), a nonzero int as one term.

    The lengths are read from the term map in place (the `stored` slot), not
    through terms(), which copies it: the weight is taken after the span has
    ended, so its cost lands in the caller's self time and must stay small.
    """

    def size(value):
        if isinstance(value, cls):
            return len(stored.__get__(value, cls))
        return int(value != 0) if isinstance(value, int) else 0

    def weigh(args, _kwargs, _result):
        return size(args[0]) * size(args[1])

    return weigh
