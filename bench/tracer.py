"""Span tracer that wraps the public functions of the bvcalc modules.

`Tracer.installed()` replaces every public module-level function and every
public method (plus the arithmetic dunders) of the classes defined in each
bvcalc module by a wrapper that records one span per call: name, start, end,
parent span and op id.  Spans live in flat arrays in memory and are written
out by `write`.  Leaving the context puts every original object back.

A span is named ``<module>.<function>`` with dunder underscores stripped, so
``Scalar.__mul__`` and ``Scalar.__rmul__`` both record ``scalars.mul``.
A layer's self time is the time of its spans minus the part covered by their
child spans; calls are synchronous, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict

import bvcalc

DUNDERS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__neg__", "__pow__", "__call__"})

MARK = "_bench_span"


def bvcalc_modules():
    """The package and every bvcalc submodule, imported."""
    mods = [bvcalc]
    for info in pkgutil.iter_modules(bvcalc.__path__):
        mods.append(importlib.import_module(f"bvcalc.{info.name}"))
    return mods


def _poly_len(x):
    return len(x.terms) if hasattr(x, "terms") else 1


# Counters recorded where the work happens: span name -> f(counts, args, result)
def _count_poly_mul(counts, args, result):
    counts["superalgebra.mul.term_pairs"] += _poly_len(args[0]) * _poly_len(args[1])
    counts["superalgebra.mul.terms_out"] += len(result.terms)


def _count_coefficient(counts, args, result):
    counts["superalgebra.coefficient.hits"] += not result.is_zero


def _count_apply(counts, args, result):
    counts["derivations.apply.terms_in"] += len(args[1].terms)


def _count_ce_matrices(counts, args, result):
    counts["lie.ce_matrices.cells"] += sum(m.nrows * m.ncols for m in result)


def _count_bareiss(counts, args, result):
    rows = args[0]
    counts["linalg.bareiss_rank.cells"] += len(rows) * len(rows[0]) if rows else 0


COUNTERS = {
    "superalgebra.mul": _count_poly_mul,
    "superalgebra.coefficient": _count_coefficient,
    "derivations.apply": _count_apply,
    "lie.ce_matrices": _count_ce_matrices,
    "linalg.bareiss_rank": _count_bareiss,
}


def _targets(module):
    """(owner, attribute, function, wrap-as) for each public callable that
    `module` defines; wrap-as is None, classmethod or staticmethod."""
    layer = module.__name__
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != layer:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, None))
        elif inspect.isclass(obj):
            for attr, val in vars(obj).items():
                if attr.startswith("_") and attr not in DUNDERS:
                    continue
                if inspect.isfunction(val):
                    out.append((obj, attr, val, None))
                elif isinstance(val, (classmethod, staticmethod)) \
                        and inspect.isfunction(val.__func__):
                    out.append((obj, attr, val.__func__, type(val)))
    return out


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, span):
        nid = self._name_ids.setdefault(span, len(self.names))
        if nid == len(self.names):
            self.names.append(span)
        names, parents, ops = self.span_name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        counter = COUNTERS.get(span)
        counts = self.counts
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if counter is not None:
                counter(counts, args, result)
            return result

        setattr(wrapper, MARK, span)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        modules = bvcalc_modules()
        wrappers = {}
        try:
            for module in modules[1:]:
                layer = module.__name__.rsplit(".", 1)[1]
                for owner, attr, fn, kind in _targets(module):
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn.__name__.strip('_')}"))
                    wrapped = wrappers[id(fn)][1]
                    self._saved.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, kind(wrapped) if kind else wrapped)
            # names bound by `from .x import f` in other modules and the package
            originals = {id(fn): wrapped for fn, wrapped in wrappers.values()}
            for module in modules:
                for attr, val in list(vars(module).items()):
                    if inspect.isfunction(val) and id(val) in originals \
                            and not hasattr(val, MARK):
                        self._saved.append((module, attr, val))
                        setattr(module, attr, originals[id(val)])
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def __len__(self):
        return len(self.span_name)

    def summary(self):
        """{span name: [calls, inclusive s, self s]} over every recorded span."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path):
        """Spans as gzip'd tab-separated lines: op, id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op\tid\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
