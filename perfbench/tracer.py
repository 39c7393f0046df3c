"""Span tracer for the traced benchmark run.

``Tracer`` swaps wrappers in for the LAPACK entry points of ``numpy.linalg``
and ``scipy.linalg`` and for the public functions of every ``opflow`` module.
Each wrapped call records one span ``(name, start, end, parent, size)`` in
memory; ``op_metrics`` turns the spans of one op into per-layer counts, busy
seconds and self seconds.

The wrappers live only here: opflow itself is not edited.  A module that did
``from .linalg import op_norm`` holds its own binding, so installing replaces
every module-level binding that *is* a wrapped function, and uninstalling puts
the originals back.  The tracer keeps one call stack, so it assumes the traced
program runs on one thread (the benchmark never passes ``--workers``).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# Span names are "<layer>.<function>"; the layer is the opflow module name,
# "lapack" for the numpy/scipy kernels, "bench" for the op root.
LAPACK_MODULES = {"np": "numpy.linalg", "sp": "scipy.linalg"}
LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "eigvalsh_tridiagonal", "eigh_tridiagonal",
                    "svd", "svdvals", "schur")
EIG_FAMILY = frozenset(LAPACK_FUNCTIONS[:4])
SVD_FAMILY = frozenset(("svd", "svdvals"))
OPFLOW_LAYERS = ("linalg", "transforms", "metrics", "sturm", "specflow",
                 "homotopy", "classify", "manifest", "cli")
# Conversions called tens of thousands of times per op for microseconds each;
# a span would cost more than the call, so their time stays with the caller.
UNTRACED = frozenset(("as_matrix", "adjoint", "matrix_of", "as_hermop"))
CLASS_MEMBERS = {
    "linalg": (("HermOp", "__init__"), ("HermOp", "eigenvalues"), ("HermOp", "eigenvectors")),
    "transforms": (("GraphProjection", "__post_init__"),),
    "specflow": (("OperatorPath", "__post_init__"), ("OperatorPath", "sample")),
    "manifest": (("RunManifest", "create"), ("RunManifest", "record_output"),
                 ("RunManifest", "write")),
}
PATCHED_PREFIXES = ("numpy.linalg", "scipy.linalg", "opflow")
ROOT = "bench.op"


def _leading_dim(args, kwargs) -> int:
    """n of the operand passed first: a matrix's order, a diagonal's length."""
    operand = args[0] if args else next(iter(kwargs.values()), None)
    shape = np.shape(operand)
    return int(shape[-1]) if shape else 0


class Tracer:
    """Owns the wrappers and the spans they record."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._to_wrapper: dict[int, object] = {}   # id(original) -> wrapper
        self._to_original: dict[int, object] = {}  # id(wrapper) -> original
        self._members: list[tuple[type, str, object, object]] = []

    def wrap(self, name: str, fn, size_of=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            size = size_of(args, kwargs) if size_of is not None else 0
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, size)

        return traced

    def _register(self, name: str, fn, size_of=None) -> None:
        if id(fn) not in self._to_wrapper and id(fn) not in self._to_original:
            wrapper = self.wrap(name, fn, size_of)
            self._to_wrapper[id(fn)] = wrapper
            self._to_original[id(wrapper)] = fn

    def _register_lapack(self) -> None:
        import numpy.linalg  # noqa: F401
        import scipy.linalg  # noqa: F401

        for short, module_name in LAPACK_MODULES.items():
            module = sys.modules[module_name]
            for fname in LAPACK_FUNCTIONS:
                fn = getattr(module, fname, None)
                if fn is not None:
                    self._register(f"lapack.{short}.{fname}", fn, _leading_dim)

    def _register_opflow(self) -> None:
        for layer in OPFLOW_LAYERS:
            module = sys.modules.get(f"opflow.{layer}")
            if module is None:
                continue
            for fname, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not fname.startswith("_") and fname not in UNTRACED):
                    self._register(f"{layer}.{fname}", fn)

    def _class_members(self):
        for layer, members in CLASS_MEMBERS.items():
            module = sys.modules.get(f"opflow.{layer}")
            if module is None:
                continue
            for cls_name, attr in members:
                cls = getattr(module, cls_name)
                yield f"{layer}.{cls_name}.{attr}", cls, attr

    def _rebind(self, mapping: dict[int, object]) -> None:
        """Replace every module-level binding whose id is a key of ``mapping``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(PATCHED_PREFIXES):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                replacement = mapping.get(id(value))
                if replacement is not None:
                    namespace[attr] = replacement

    def install(self) -> None:
        """Wrap the LAPACK entry points and every loaded opflow module.

        Call once before ``import opflow`` (so bindings taken at import time
        are wrapped) and again after it (to wrap opflow's own functions).
        """
        self._register_lapack()
        self._register_opflow()
        self._rebind(self._to_wrapper)
        if not self._members:
            for name, cls, attr in self._class_members():
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    new = property(self.wrap(name, raw.fget))
                elif isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                self._members.append((cls, attr, raw, new))
        for cls, attr, _, new in self._members:
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        """Put every original function and class member back."""
        self._rebind(self._to_original)
        for cls, attr, raw, _ in self._members:
            setattr(cls, attr, raw)

    def root(self, fn):
        """Run ``fn()`` inside a root span; return its index and fn's result."""
        index = len(self.spans)
        result = self.wrap(ROOT, fn)()
        return index, result

    def write(self, path) -> None:
        """Write every recorded span as CSV: index,name,start,end,parent,size."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,size\n")
            for i, (name, start, end, parent, size) in enumerate(self.spans):
                handle.write(f"{i},{name},{start!r},{end!r},{parent},{size}\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _function(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def self_times(spans, first: int = 0, last: int | None = None) -> dict[int, float]:
    """Self seconds of spans[first:last]: duration minus the time of direct children.

    Children of one span never overlap (one thread, one stack), so the part
    of the parent's interval they cover is the sum of their durations.
    """
    last = len(spans) if last is None else last
    own = {}
    for i in range(first, last):
        _, start, end, parent, _ = spans[i]
        own[i] = own.get(i, 0.0) + (end - start)
        if parent in own:
            own[parent] -= end - start
    return own


def _outermost(spans, indices: list[int], members: set[int]) -> list[int]:
    """Those of ``indices`` with no ancestor in ``members``."""
    out = []
    for i in indices:
        parent = spans[i][3]
        while parent >= 0 and parent not in members:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# metric -> span names it selects (exact names, or a predicate on the name)
_SELECTIONS = {
    "lapack.eig": lambda n: _layer(n) == "lapack" and _function(n) in EIG_FAMILY,
    "lapack.svd": lambda n: _layer(n) == "lapack" and _function(n) in SVD_FAMILY,
    "lapack.schur": lambda n: _layer(n) == "lapack" and _function(n) == "schur",
    "sturm.assemble": {"sturm.assemble_robin_operator"},
    "specflow.flow": {"specflow.spectral_flow"},
    "specflow.path_check": {"specflow.OperatorPath.__post_init__"},
    "linalg.hermop": {"linalg.HermOp.__init__"},
    "linalg.eig": {"linalg.HermOp.eigenvalues", "linalg.HermOp.eigenvectors"},
    "linalg.op_norm": {"linalg.op_norm"},
    "linalg.func_calc": {"linalg.func_calc"},
    "transforms.graph_projection": {"transforms.graph_projection"},
    "transforms.validate": {"transforms.GraphProjection.__post_init__"},
    "transforms.cayley": {"transforms.cayley"},
    "metrics.gap_dist": {"metrics.gap_dist"},
    "homotopy.isometry": {"homotopy.shrink_isometry", "homotopy.stretch_isometry"},
    "homotopy.zk": {"homotopy.zk_contraction"},
    "homotopy.log_retraction": {"homotopy.unitary_log_retraction"},
    "classify.surgery": {"classify.density_surgery"},
}
# (metric name, selection, statistic)
_SPAN_METRICS = (
    ("lapack.eig_calls", "lapack.eig", "calls"),
    ("lapack.eig_s", "lapack.eig", "busy"),
    ("lapack.eig_work", "lapack.eig", "work"),
    ("lapack.eig_p50_s", "lapack.eig", "p50"),
    ("lapack.eig_p90_s", "lapack.eig", "p90"),
    ("lapack.svd_calls", "lapack.svd", "calls"),
    ("lapack.svd_s", "lapack.svd", "busy"),
    ("lapack.schur_s", "lapack.schur", "busy"),
    ("sturm.assemble_calls", "sturm.assemble", "calls"),
    ("sturm.assemble_s", "sturm.assemble", "busy"),
    ("specflow.flow_s", "specflow.flow", "busy"),
    ("specflow.path_check_s", "specflow.path_check", "busy"),
    ("linalg.hermop_calls", "linalg.hermop", "calls"),
    ("linalg.hermop_s", "linalg.hermop", "busy"),
    ("linalg.eig_reads", "linalg.eig", "calls"),
    ("linalg.eig_s", "linalg.eig", "busy"),
    ("linalg.op_norm_calls", "linalg.op_norm", "calls"),
    ("linalg.op_norm_s", "linalg.op_norm", "busy"),
    ("linalg.func_calc_calls", "linalg.func_calc", "calls"),
    ("linalg.func_calc_s", "linalg.func_calc", "busy"),
    ("transforms.graph_projection_calls", "transforms.graph_projection", "calls"),
    ("transforms.graph_projection_s", "transforms.graph_projection", "busy"),
    ("transforms.validate_calls", "transforms.validate", "calls"),
    ("transforms.validate_s", "transforms.validate", "busy"),
    ("transforms.cayley_s", "transforms.cayley", "busy"),
    ("metrics.gap_dist_calls", "metrics.gap_dist", "calls"),
    ("metrics.gap_dist_s", "metrics.gap_dist", "busy"),
    ("homotopy.isometry_calls", "homotopy.isometry", "calls"),
    ("homotopy.isometry_s", "homotopy.isometry", "busy"),
    ("homotopy.zk_s", "homotopy.zk", "busy"),
    ("homotopy.log_retraction_s", "homotopy.log_retraction", "busy"),
    ("classify.surgery_calls", "classify.surgery", "calls"),
    ("classify.surgery_s", "classify.surgery", "busy"),
)
SELF_LAYERS = ("sturm", "specflow", "linalg", "transforms", "metrics",
               "homotopy", "classify", "cli")
SPAN_METRIC_NAMES = tuple(m for m, _, _ in _SPAN_METRICS) + tuple(
    f"{layer}.self_s" for layer in SELF_LAYERS) + ("manifest.calls", "manifest.s")


def _selects(selection, name: str) -> bool:
    return selection(name) if callable(selection) else name in selection


def op_metrics(spans, root: int) -> dict[str, float]:
    """Per-layer metrics of the op whose root span is ``spans[root]``.

    Spans are recorded in call order, so the op's spans are the contiguous
    run from its root to the first later span that is not its descendant.
    Counts and busy time take the outermost call of a selection only, so a
    call nested in another of the same selection (scipy's ``svdvals``
    calling ``svd``) is not counted twice.
    """
    last = root + 1
    inside = {root}
    while last < len(spans) and spans[last] is not None and spans[last][3] in inside:
        inside.add(last)
        last += 1
    by_name: dict[str, list[int]] = defaultdict(list)
    for i in range(root + 1, last):
        by_name[spans[i][0]].append(i)

    metrics: dict[str, float] = {}
    for metric, key, stat in _SPAN_METRICS:
        selection = _SELECTIONS[key]
        chosen = [i for name, idx in by_name.items() if _selects(selection, name) for i in idx]
        calls = _outermost(spans, sorted(chosen), set(chosen))
        durations = [spans[i][2] - spans[i][1] for i in calls]
        if stat == "calls":
            metrics[metric] = len(calls)
        elif stat == "busy":
            metrics[metric] = sum(durations)
        elif stat == "work":
            metrics[metric] = float(sum(spans[i][4] ** 3 for i in calls))
        else:
            metrics[metric] = _quantile(durations, int(stat[1:]))

    own = self_times(spans, root, last)
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            t for i, t in own.items() if _layer(spans[i][0]) == layer)
    entries = [i for i in range(root + 1, last)
               if _layer(spans[i][0]) == "manifest"
               and _layer(spans[spans[i][3]][0]) != "manifest"]
    metrics["manifest.calls"] = len(entries)
    metrics["manifest.s"] = sum(spans[i][2] - spans[i][1] for i in entries)
    metrics["trace.spans"] = last - root
    return metrics
