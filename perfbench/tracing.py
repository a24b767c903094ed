"""Spans around the calls into each symidx layer, for the traced run.

The tracer wraps public functions and methods in the namespaces where
their callers look them up (``homspace.numerical_kernel``,
``cli.transvection_space``, the ``symidx`` package itself, and so on); the
package's source is not touched.  Each span records its name, start, end,
parent span, the op it belongs to, and whether it raised.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import tracemalloc
from time import perf_counter

from symidx import catalog, cli, homspace, liealg, numcheck, serialize, verify

MIB = 1024.0 * 1024.0

# (span name, owner, attribute) of every traced function or method.
TARGETS = (
    ("liealg.so_elementary", liealg, "so_elementary"),
    ("liealg.matrix_algebra", liealg, "matrix_algebra"),
    ("liealg.jacobi_residual", liealg.LieAlgebra, "jacobi_residual"),
    ("liealg.numerical_kernel", liealg, "numerical_kernel"),
    ("liealg.Subspace.contains", liealg.Subspace, "contains"),
    ("liealg.largest_invariant_subspace", liealg, "largest_invariant_subspace"),
    ("liealg.bracket", liealg, "bracket"),
    ("homspace.HomogeneousSpace", homspace.HomogeneousSpace, "__init__"),
    ("homspace.nabla_operator", homspace.HomogeneousSpace, "nabla_operator"),
    ("homspace.transvection_space", homspace, "transvection_space"),
    ("homspace.symmetry_ideal", homspace, "symmetry_ideal"),
    ("homspace.jacobi_operator", homspace, "jacobi_operator"),
    ("catalog.so4_so2", catalog, "so4_so2"),
    ("catalog.spin3_metric", catalog, "spin3_metric"),
    ("catalog.product_of_spheres", catalog, "product_of_spheres"),
    ("serialize.load_space", serialize, "load_space"),
    ("serialize.schema_validate", serialize, "_validate"),
    ("numcheck.nabla_killing_fd", numcheck.ExponentialChart, "nabla_killing_fd"),
    ("numcheck.jacobi_matrix_fd", numcheck.ExponentialChart, "jacobi_matrix_fd"),
    ("numcheck.integrate_field_equation", numcheck, "integrate_field_equation"),
    ("cli.main", cli, "main"),
)
JSON_PARSE = "serialize.json_parse"
MEMORY_SPAN = "liealg.jacobi_residual"
CHECK_PREFIX = "verify.check."


def span_names() -> list:
    return ([name for name, _, _ in TARGETS] + [JSON_PARSE]
            + [CHECK_PREFIX + name for name in verify.CHECK_NAMES])


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "failed", "nested",
                 "peak_bytes", "dim")

    def __init__(self, name, parent, op, nested):
        self.name, self.parent, self.op, self.nested = name, parent, op, nested
        self.start = self.end = 0.0
        self.failed = False
        self.peak_bytes = self.dim = None


class Tracer:
    """Records spans; ``op`` labels the spans of the op running now.

    ``install`` puts the wrappers in place and ``uninstall`` puts the
    original callables back, so that traced and untraced passes can take
    turns in one interpreter.  A tracer made with ``memory`` wraps only the
    Jacobi residual, under tracemalloc, and is meant for a pass of its own:
    tracemalloc's allocation hooks would slow every timed span around it.
    """

    def __init__(self, memory: bool = False):
        self.spans = []
        self.op = None
        self.memory = memory
        self._stack = []
        self._active = collections.Counter()
        self._saved = []  # (owner, attribute, original) of every patch

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call.  For a ``memory`` tracer the
        span also holds the tracemalloc peak of the call and the algebra
        dimension of its first argument."""
        tracer = self
        memory = self.memory

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else None,
                        tracer.op, tracer._active[name] > 0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            tracer._active[name] += 1
            if memory:
                span.dim = args[0].dim
                tracemalloc.start()
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer._active[name] -= 1

        return traced

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Replace every traced callable where symidx code looks it up."""
        modules = [m for key, m in sys.modules.items()
                   if key == "symidx" or key.startswith("symidx.")]
        for name, owner, attr in TARGETS:
            if self.memory and name != MEMORY_SPAN:
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        if self.memory:
            return
        self._patch(serialize, "json",
                    _JsonWithTracedLoad(self.wrap(JSON_PARSE, json.load)))
        self._patch(verify, "CHECKS", tuple(
            (name, provenance, self.wrap(CHECK_PREFIX + name, fn))
            for name, provenance, fn in verify.CHECKS))

    def uninstall(self):
        """Put back what ``install`` replaced."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _JsonWithTracedLoad:
    """The ``json`` module as ``serialize`` sees it, with ``load`` traced."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, key):
        return getattr(json, key)


def aggregate(spans: list) -> dict:
    """Per-span-name figures of one group of spans: ``.ms`` (time not
    nested in a span of the same name), ``.self_ms`` (minus child spans),
    ``.calls``, ``.failures``, and for the Jacobi residual the peak of
    traced memory and the 3 n^4 doubles its three tensors hold."""
    child_s = collections.defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[id(span.parent)] += span.end - span.start
    out = collections.defaultdict(float)
    for span in spans:
        duration = span.end - span.start
        if not span.nested:
            out[span.name + ".ms"] += 1e3 * duration
        out[span.name + ".self_ms"] += 1e3 * (duration - child_s[id(span)])
        out[span.name + ".calls"] += 1
        out[span.name + ".failures"] += span.failed
        if span.peak_bytes is not None:
            key = span.name + ".peak_mb"
            out[key] = max(out[key], span.peak_bytes / MIB)
            key = span.name + ".mb_computed"
            out[key] = max(out[key], 3 * span.dim ** 4 * 8 / MIB)
    return {key: int(value) if key.endswith((".calls", ".failures"))
            else value for key, value in out.items()}
