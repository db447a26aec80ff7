"""Span tracer that wraps the library's functions from outside.

The library has no instrumentation of its own, so a traced repetition
replaces every module binding of the functions listed in `LAYERS` (and
the arithmetic methods of `Poly`) with a wrapper that records a span:
name, start, end and parent.  Spans and counters stay in memory until the
repetition ends.

Three rules keep the numbers right:

* every binding of a wrapped function is patched, in every loaded
  `doubleschur` module, so calls between modules are seen
  (`grass.double_schur`, `wedge.double_monomial`, `Poly.__rmul__`, ...);
* an `lru_cache` function is wrapped outside its cache, and its hits and
  misses are `cache_info()` deltas over the repetition;
* a span's self time is its duration minus the time its child spans
  cover, so the self times of all spans add up to the root span.

A call into a layer from inside the same layer (`__sub__` calling
`__add__`) is not a new span: it is part of the outer call.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager, nullcontext


def _bump(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _raise_max(counters, key, value):
    if value > counters.get(key, 0):
        counters[key] = value


def _note_mul(counters, args, result):
    a, b = args
    _bump(counters, "poly.mul.term_pairs",
          len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))


def _note_exact_div(counters, args, result):
    _bump(counters, "poly.exact_div.quotient_terms", len(result.terms))


def _note_alternant(counters, args, result):
    _raise_max(counters, "schur.alternant.terms_max", len(result.terms))


def _note_expand(counters, args, result):
    _bump(counters, "schur.expand.steps", len(result.coeffs))
    _raise_max(counters, "schur.expand.input_terms_max", len(args[0].terms))


def _note_certify(counters, args, result):
    _bump(counters, "grass.certify.terms_in", len(args[0].terms))
    if result.positive:
        _bump(counters, "grass.certify.terms_out", len(result.certificate.terms))


def _note_gl_action(counters, args, result):
    _bump(counters, "wedge.gl_action.terms_out",
          sum(len(c.terms) for c in result.coords.values()))


# (module, attribute, span name, counter hook) for plain functions; every
# binding of the same function object in any doubleschur module is patched.
LAYERS = [
    ("poly", "to_difference_basis", "poly.to_difference_basis", None),
    ("schur", "double_monomial", "schur.double_monomial", None),
    ("schur", "alternant", "schur.alternant", _note_alternant),
    ("schur", "double_schur", "schur.double_schur", None),
    ("schur", "expand_in_double_schur", "schur.expand", _note_expand),
    ("schur", "pieri_multiply", "schur.pieri_multiply", None),
    ("grass", "schubert_product", "grass.schubert_product", None),
    ("grass", "truncate", "grass.truncate", None),
    ("grass", "check_graham_positivity", "grass.certify", _note_certify),
    ("wedge", "gl_action_on_wedge", "wedge.gl_action", _note_gl_action),
    ("wedge", "x_matrix", "wedge.x_matrix", None),
]

# Poly methods: attribute -> (span name, counter hook).
POLY_METHODS = {
    "__mul__": ("poly.mul", _note_mul),
    "__rmul__": ("poly.mul", _note_mul),
    "__add__": ("poly.addsub", None),
    "__radd__": ("poly.addsub", None),
    "__sub__": ("poly.addsub", None),
    "__rsub__": ("poly.addsub", None),
    "exact_div": ("poly.exact_div", _note_exact_div),
}

# Functions whose lru_cache statistics are reported.
CACHED = [
    ("schur", "double_monomial", "schur.double_monomial"),
    ("schur", "alternant", "schur.alternant"),
    ("schur", "double_schur", "schur.double_schur"),
]


class NullTracer:
    """Stands in for Tracer in untraced repetitions."""

    def __init__(self):
        self.counters = {}

    def span(self, name):
        return nullcontext()


class Tracer:
    """Records spans around every call into the wrapped layers."""

    def __init__(self, package):
        self.package = package
        self.names = []
        self._name_ids = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []        # open spans: [index, name, child time]
        self.open_names = {}   # name -> number of open spans with that name
        self.self_s = {}
        self.total_s = {}      # outermost spans of a name only
        self.calls = {}
        self.counters = {}
        self._caches = {}      # span name -> (lru_cache function, cache_info at install)

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_end.append(0.0)
        frame = [idx, name, 0.0]
        self.stack.append(frame)
        self.open_names[name] = self.open_names.get(name, 0) + 1
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        idx, name, child = frame
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += dur
        depth = self.open_names[name] - 1
        self.open_names[name] = depth
        if depth == 0:
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def _wrap(self, name, fn, note):
        stack = self.stack
        counters = self.counters

        def wrapper(*args, **kwargs):
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    note(counters, args, result)
            finally:
                self._close(frame)
            return result

        return wrapper

    def _wrap_sum_of_products(self, fn):
        """sum_of_products takes a generator; materialize it inside the span
        (the library does the same first thing) to count term pairs."""
        counters = self.counters

        def sum_of_products(cls, pairs):
            frame = self._open("poly.sum_of_products")
            try:
                pairs = list(pairs)
                _bump(counters, "poly.sum_of_products.term_pairs",
                      sum(len(p.terms) * len(q.terms) for c, p, q in pairs if c))
                return fn(cls, pairs)
            finally:
                self._close(frame)

        return classmethod(sum_of_products)

    # -- installing the wrappers -------------------------------------------

    def install(self):
        """Patch every binding of every traced function in every loaded
        module of the package."""
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for mod_name, attr, span_name in CACHED:
            fn = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            self._caches[span_name] = (fn, fn.cache_info())
        for mod_name, attr, span_name, note in LAYERS:
            original = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            wrapper = self._wrap(span_name, original, note)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        poly_cls = sys.modules[f"{pkg}.poly"].Poly
        wrappers = {}
        for attr, (span_name, note) in POLY_METHODS.items():
            original = poly_cls.__dict__[attr]
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(span_name, original, note)
            setattr(poly_cls, attr, wrappers[id(original)])
        sop = poly_cls.__dict__["sum_of_products"]
        setattr(poly_cls, "sum_of_products", self._wrap_sum_of_products(sop.__func__))

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers of everything recorded so far."""
        out = {}
        for name, value in self.self_s.items():
            out[f"{name}.self_s"] = value
        for name, value in self.total_s.items():
            out[f"{name}.total_s"] = value
        for name, value in self.calls.items():
            out[f"{name}.calls"] = value
        out.update(self.counters)
        for span_name, (fn, start) in self._caches.items():
            now = fn.cache_info()
            hits, misses = now.hits - start.hits, now.misses - start.misses
            out[f"{span_name}.hits"] = hits
            out[f"{span_name}.misses"] = misses
            out[f"{span_name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out
