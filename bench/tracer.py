"""Spans and counters recorded from outside the library.

The tracer replaces selected forestalg functions and methods with wrappers,
in every forestalg module namespace that holds them, so calls made through
``from .x import f`` bindings are seen too.  A wrapped call appends one span
(name, start, end, parent span, instance id) to an in-memory list; self time
is a span's duration minus the durations of its direct children.  Functions
that run millions of times (depth-k key operations, normalization) only get
a counter.  Nothing under ``src/`` is changed on disk.
"""

import contextlib
import json
import os
import sys
import time
from collections import defaultdict


def _v_elems(args, kwargs, result):
    return {"v_elems": result[0].V.size}


def _v_cubed(args, kwargs, result):
    return {"v_cubed": args[0].V.size ** 3}


def _h_states(args, kwargs, result):
    return {"h_states": result.hom.target.H.size}


def _syntactic_sizes(args, kwargs, result):
    return {"h_before": args[0].hom.target.H.size,
            "h_after": result[0].hom.target.H.size}


def _bytes_written(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _nonconfusion_sizes(args, kwargs, result):
    traces = result.traces.values()
    return {"levels": sum(len(t.levels) for t in traces),
            "pairs": sum(len(level) for t in traces for level in t.levels)}


def _semigroup_size(args, kwargs, result):
    return {"size": len(result)}


def _joint_pairs(args, kwargs, result):
    return {"pairs": len(result)}


# (module, attribute, span name, size recorder).  Methods are "Class.method".
SPANNED = (
    ("algebra", "close_vertical", "algebra.close_vertical", _v_elems),
    ("algebra", "ForestAlgebra.check_axioms", "algebra.check_axioms", _v_cubed),
    ("algebra", "quotient_by_ideal", "algebra.quotient_by_ideal", None),
    ("reach", "reachability", "reach.reachability", None),
    ("io", "parse_algebra", "io.parse_algebra", None),
    ("io", "print_algebra", "io.print_algebra", _bytes_written),
    ("logic", "to_recognizer", "logic.to_recognizer", _h_states),
    ("hom", "syntactic", "hom.syntactic", _syntactic_sizes),
    # restrict_recognizer is the restriction step inside syntactic();
    # both public entry points are one layer.
    ("hom", "image_restrict", "hom.image_restrict", None),
    ("hom", "restrict_recognizer", "hom.image_restrict", None),
    ("hom", "realize", "hom.realize", None),
    ("decide", "nonconfusion", "decide.nonconfusion", _nonconfusion_sizes),
    ("decide", "is_ef_algebra", "decide.is_ef_algebra", None),
    ("decide", "confusion_witness", "decide.confusion_witness", None),
    ("defk", "definiteness_degree", "defk.definiteness_degree", None),
    ("defk", "guarded_semigroup", "defk.guarded_semigroup", _semigroup_size),
    ("decompose", "decompose_ef", "decompose.decompose_ef", None),
    ("decompose", "decompose_efex", "decompose.decompose_efex", None),
    ("decompose", "Cascade.reachable_states",
     "decompose.Cascade.reachable_states", None),
    ("decompose", "Cascade.factors", "decompose.Cascade.factors", None),
    ("oracle", "key_value_sets", "oracle.key_value_sets", None),
    ("joint", "joint_image", "joint.joint_image", _joint_pairs),
    ("cli", "main", "cli.main", None),
)

COUNTED = (
    ("defk", "key_letter", "defk.key_ops"),
    ("defk", "key_sum", "defk.key_ops"),
    ("terms", "ic_normalize", "terms.ic_normalize.calls"),
)

MODULES = ("algebra", "cli", "decide", "decompose", "defk", "errors", "hom",
           "io", "joint", "logic", "oracle", "reach", "terms")


class Tracer:
    """In-memory span list; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, instance]
        self.sizes = []          # (span index, {quantity: value})
        self.counts = defaultdict(int)
        self.instance = None
        self._stack = []

    def span(self, name, fn, sizer):
        def wrapper(*args, **kwargs):
            spans = self.spans
            idx = len(spans)
            spans.append([name, 0.0, 0.0,
                          self._stack[-1] if self._stack else -1, self.instance])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if sizer is not None:
                self.sizes.append((idx, sizer(args, kwargs, result)))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def root(self, name):
        """A span that is not a library call: one verdict."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1, self.instance])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def mark(self):
        """Positions to summarize from: spans, sizes, counter values."""
        return len(self.spans), len(self.sizes), dict(self.counts)

    def install(self, package):
        """Wrap the SPANNED and COUNTED callables in every module of package."""
        mods = [sys.modules[package.__name__ + "." + m] for m in MODULES]
        mods.append(package)
        for modname, attr, name, sizer in SPANNED:
            self._replace(mods, modname, attr, lambda fn, n=name, s=sizer:
                          self.span(n, fn, s))
        for modname, attr, name in COUNTED:
            self._replace(mods, modname, attr, lambda fn, n=name:
                          self.counter(n, fn))

    @staticmethod
    def _replace(mods, modname, attr, make):
        home = next(m for m in mods if m.__name__.endswith("." + modname))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, meth, make(getattr(cls, meth)))
            return
        orig = getattr(home, attr)
        wrapped = make(orig)
        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    # -- summaries ----------------------------------------------------------

    def self_times(self, since=0, until=None):
        """name -> (self seconds, calls) over the spans in [since, until)."""
        spans = self.spans
        until = len(spans) if until is None else until
        child = [0.0] * len(spans)
        for i in range(since, until):
            parent = spans[i][3]
            if parent >= since:
                child[parent] += spans[i][2] - spans[i][1]
        out = {}
        for i in range(since, until):
            name, start, end = spans[i][0], spans[i][1], spans[i][2]
            s, c = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[i], c + 1)
        return out

    def size_totals(self, since=0, until=None):
        """name.quantity -> summed value over the sizes in [since, until)."""
        out = defaultdict(int)
        for idx, sizes in self.sizes[since:until]:
            for key, value in sizes.items():
                out[self.spans[idx][0] + "." + key] += value
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, instance."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, instance in self.spans:
                fh.write(json.dumps([name, start, end, parent, instance]) + "\n")

