"""Spans around calls into the kaleido modules, for the traced run.

The traced run rebinds a fixed list of the package's public functions and
methods to wrappers that record one span per call. A wrapper is bound
wherever the original object is referenced: the defining module, every
other ``kaleido`` module that imported it, and the benchmark's own
workload module. So a call from ``search`` into ``algebra`` is recorded
as well as a call from the benchmark. The package's files are unchanged.

Per-element operations (field ``add``/``mul``, class lookups, element
codecs) are not wrapped: a span per element would cost more than the
work. Their time counts toward the layer that calls them, and their speed
is measured by the rate microbenchmarks in ``micro.py``.

A span is ``[name, start, end, parent]``, where ``parent`` is the index
of the enclosing span or -1. Spans stay in a list in memory and are
written out when the traced worker ends. The layer is the part of the
name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name) for module-level functions.
FUNCTIONS = (
    ("kaleido.algebra", "make_group", "algebra.make_group"),
    ("kaleido.algebra", "primitive_element", "algebra.primitive_element"),
    ("kaleido.algebra", "transversal", "algebra.transversal"),
    ("kaleido.search", "verify_listed_block", "search.verify_listed_block"),
    ("kaleido.search", "parametric_search", "search.parametric_search"),
    ("kaleido.search", "form_block", "search.form_block"),
    (
        "kaleido.search",
        "consecutive_block_primes",
        "search.consecutive_block_primes",
    ),
    (
        "kaleido.search",
        "asymptotic_initial_block",
        "search.asymptotic_initial_block",
    ),
    (
        "kaleido.search",
        "generate_kdf_from_initial_block",
        "search.generate_kdf",
    ),
    ("kaleido.search", "exhaustive_nonexistence", "search.sweep"),
    ("kaleido.compose", "field_dm", "compose.field_dm"),
    ("kaleido.compose", "compose_kdf", "compose.compose_kdf"),
    ("kaleido.designs", "develop", "designs.develop"),
    ("kaleido.designs", "verify_kdf", "designs.verify_kdf"),
    ("kaleido.designs", "verify_kaleidoscope", "designs.verify_kaleidoscope"),
    ("kaleido.designs", "kdf_to_json", "designs.kdf_to_json"),
    ("kaleido.designs", "kdf_from_json", "designs.kdf_from_json"),
    ("kaleido.designs", "kaleidoscope_to_json", "designs.kaleidoscope_to_json"),
    (
        "kaleido.designs",
        "kaleidoscope_from_json",
        "designs.kaleidoscope_from_json",
    ),
    ("kaleido.designs", "dumps", "designs.dumps"),
    ("kaleido.cli", "main", "cli.main"),
    # The read path decodes JSON text with the standard library; that
    # time is counted in the designs layer, next to the decoders.
    ("workloads", "json_loads", "designs.json_loads"),
)

# (module, class, method, span name).
METHODS = (
    ("kaleido.algebra", "CyclotomicTable", "__init__", "algebra.cyclotomic_table"),
    ("kaleido.algebra", "Group", "elements", "algebra.elements"),
    ("kaleido.schema", "KaleidoscopeSchema", "lines_at", "schema.lines_at"),
)


class Tracer:
    """Collects spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.table_kinds = {"dense": 0, "lazy": 0}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(name)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(idx)

        return traced

    def install(self) -> None:
        """Rebind every listed function and method to a span wrapper."""
        namespaces = [
            mod
            for name, mod in list(sys.modules.items())
            if name == "workloads" or name.split(".")[0] == "kaleido"
        ]
        for modname, attr, span in FUNCTIONS:
            orig = getattr(importlib.import_module(modname), attr, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(span, orig)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        self._undo.append((ns, key, orig))
                        setattr(ns, key, wrapped)
        for modname, clsname, meth, span in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                self.missing.append(f"{modname}.{clsname}.{meth}")
                continue
            wrapped = self.wrap(span, orig)
            if span == "algebra.cyclotomic_table":
                wrapped = self._count_table_kind(wrapped)
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, wrapped)

    def _count_table_kind(self, init):
        """Count tables built densely and those left to lazy lookups."""
        kinds = self.table_kinds

        @functools.wraps(init)
        def counted(table, *args, **kwargs):
            init(table, *args, **kwargs)
            lazy = getattr(table, "_char_lookup", None) is not None
            kinds["lazy" if lazy else "dense"] += 1

        return counted

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()


def subtree(spans: list, root: int) -> list[int]:
    """Indices of the spans under span ``root``, root included."""
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx][3] in inside:
            inside.add(idx)
    return sorted(inside)


def find(spans: list, name: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s[0] == name]


def durations(spans: list, indices, name: str, parent: str | None = None):
    """Durations of the spans called ``name`` among ``indices``.

    A call nested inside another call of the same name is skipped, so a
    recursive or self-delegating function is not counted twice. With
    ``parent`` set, only spans whose direct parent has that name count.
    """
    out = []
    for i in indices:
        name_i, start, end, up = spans[i]
        if name_i != name:
            continue
        if parent is not None and (up < 0 or spans[up][0] != parent):
            continue
        nested = False
        while up >= 0:
            if spans[up][0] == name:
                nested = True
                break
            up = spans[up][3]
        if not nested:
            out.append(end - start)
    return out


def self_times(spans: list, indices) -> dict[str, float]:
    """Self time summed per layer: a span's duration minus its children's."""
    child_time: dict[int, float] = {}
    for i in indices:
        _, start, end, up = spans[i]
        if up >= 0:
            child_time[up] = child_time.get(up, 0.0) + (end - start)
    layers: dict[str, float] = {}
    for i in indices:
        name, start, end, _ = spans[i]
        layer = name.split(".", 1)[0]
        own = (end - start) - child_time.get(i, 0.0)
        layers[layer] = layers.get(layer, 0.0) + own
    return layers
