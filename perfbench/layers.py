"""Per-layer spans recorded from outside the package.

Wrappers are installed on the names the package looks up at call time: the
defining module and every ``sketchsvd`` module that imported the function by
name (``cli`` imports ``build_sketch``, ``sts_svd`` and friends; ``stssvd``
imports ``jacobi_svd`` and ``householder_qr``; ``nearest`` imports
``polar_factors`` and ``spectral_norm``).  ``SketchOperator.__init__`` and
``apply`` are patched on the class.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
reduced to per-layer self times when the table ends.
"""

import os
import sys
import time
from collections import defaultdict

# (module, function) -> layer name.  sts_svd and sts_svd_via_qr share a
# layer: their self time is the back-product and truncation of either route.
FUNCTION_LAYERS = [
    ("sketchops", "empirical_epsilon", "sketchops.certify"),
    ("densekernels", "jacobi_svd", "densekernels.small_svd"),
    ("densekernels", "householder_qr", "densekernels.qr"),
    ("densekernels", "spectral_norm", "densekernels.spectral_norm"),
    ("densekernels", "polar_factors", "densekernels.polar"),
    ("densekernels", "range_basis", "densekernels.range_basis"),
    ("stssvd", "sts_svd", "stssvd.sts_svd"),
    ("stssvd", "sts_svd_via_qr", "stssvd.sts_svd"),
    ("stssvd", "sketched_qr", "stssvd.sketched_qr"),
    ("nearest", "nearest_orthogonal", "nearest.orthogonal"),
    ("nearest", "orthogonality_report", "nearest.report"),
    ("matio", "read_matrix_market", "matio.read"),
    ("cli", "main", "cli"),
]


def operator_mb(kind, s, m):
    """MB the operator's factors occupy, computed from kind, s and m."""
    if kind == "gaussian":
        return 8 * s * m / 1e6  # dense float64 table
    if kind == "srtt":
        return 8 * (m + s) / 1e6  # sign vector and sampled row indices
    raise ValueError(f"no size rule for sketch kind {kind!r}")


class Recorder:
    """Operator construction times (always) and layer spans (when traced)."""

    def __init__(self, traced):
        self.traced = traced
        self.builds = []  # (perf_counter at construction start, kind, s, m, seed)
        self.spans = []
        self._open = []  # indices of open spans, innermost last

    def span(self, name, fn, args, kwargs, attrs=None):
        # a layer calling itself (the wide path of jacobi_svd) is one call
        if self._open and self.spans[self._open[-1]][0] == name:
            return fn(*args, **kwargs)
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, {} if attrs is None else attrs]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def layers(self):
        """Per-layer self seconds, call counts and attribute lists."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        attrs = defaultdict(list)
        for i, (name, start, end, _, at) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if at:
                attrs[name].append(at)
        return {"self_s": dict(self_s), "calls": dict(calls), "attrs": dict(attrs)}


def install(rec):
    """Patch the package for ``rec``; call after ``import sketchsvd``."""
    from sketchsvd import sketchops

    cls = sketchops.SketchOperator
    init, apply = cls.__init__, cls.apply

    def traced_init(self, kind, s, m, seed):
        rec.builds.append((time.perf_counter(), kind, int(s), int(m), int(seed)))
        if rec.traced:
            at = {"mb": operator_mb(kind, int(s), int(m))}
            return rec.span("sketchops.build", init, (self, kind, s, m, seed), {}, at)
        return init(self, kind, s, m, seed)

    cls.__init__ = traced_init
    if not rec.traced:
        return

    def traced_apply(self, X):
        cols = 1 if len(getattr(X, "shape", ())) < 2 else X.shape[1]
        return rec.span("sketchops.apply", apply, (self, X), {}, {"cols": cols})

    cls.apply = traced_apply

    modules = [mod for name, mod in list(sys.modules.items())
               if name == "sketchsvd" or name.startswith("sketchsvd.")]
    for module_name, func_name, layer in FUNCTION_LAYERS:
        orig = getattr(sys.modules[f"sketchsvd.{module_name}"], func_name)
        wrapper = _wrap(rec, layer, orig)
        for mod in modules:
            if getattr(mod, func_name, None) is orig:
                setattr(mod, func_name, wrapper)


def _wrap(rec, layer, fn):
    if layer == "matio.read":
        def wrapper(path, *args, **kwargs):
            at = {"mb": os.path.getsize(path) / 1e6}
            return rec.span(layer, fn, (path,) + args, kwargs, at)
    elif layer == "sketchops.certify":
        def wrapper(*args, **kwargs):
            at = {}
            cert = rec.span(layer, fn, args, kwargs, at)
            at["eps"] = cert.epsilon_emp
            return cert
    else:
        def wrapper(*args, **kwargs):
            return rec.span(layer, fn, args, kwargs)
    return wrapper

