"""Outside-in tracing of optcur, from the benchmark's side.

While installed, every public module-level function of each layer module is
replaced by a wrapper that records a span: id, parent span, name, start, end
and the id of the benchmark call it belongs to.  Bindings made with
``from ... import`` are replaced in every importing module too, so calls
between modules are seen wherever they come from.  Spans stay in memory and
are written out when the run ends.

Per-layer metrics are means per traced call:

* ``<layer>.s`` (and ``cur.glue_s``, ``cli.self_s``): self time of the
  layer's spans, i.e. span time minus child-span time.  With the mmio times
  they partition the traced call time.
* other ``*_s``: inclusive time of the named functions' outermost spans.
* counts: taken from the arguments and results at the layer boundary.
"""

import functools
import inspect
import os
import sys
import time

import numpy as np
from optcur.linalg import RANK_RTOL

PACKAGE = "optcur"
LAYERS = ("approx_svd", "sketch", "subset_select", "adaptive", "subspace",
          "linalg", "cur", "mmio", "cli")
# Cheap type adapters called inside the innermost loops; their time stays
# with the caller rather than costing a span each.
UNTRACED = {"linalg.as_array", "linalg.as_sparse", "linalg.is_sparse"}

ADAPTIVE_PICKERS = ("adaptive.adaptive_cols", "adaptive.adaptive_rows",
                    "adaptive.adaptive_cols_sparse",
                    "adaptive.adaptive_rows_sparse",
                    "adaptive.adaptive_cols_d", "adaptive.adaptive_rows_d")

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("trace.traced_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("approx_svd.s", "s", "lower"),
    ("approx_svd.calls", "count", "lower"),
    ("sketch.s", "s", "lower"),
    ("sketch.width", "count", "lower"),
    ("sketch.dense_mb", "MB", "lower"),
    ("subset_select.s", "s", "lower"),
    ("subset_select.rand_sampling_s", "s", "lower"),
    ("subset_select.bss_s", "s", "lower"),
    ("subset_select.draws", "count", "lower"),
    ("subset_select.distinct_frac", "ratio", "higher"),
    ("adaptive.s", "s", "lower"),
    ("adaptive.draws", "count", "lower"),
    ("adaptive.distinct_frac", "ratio", "higher"),
    ("subspace.s", "s", "lower"),
    ("subspace.c", "count", "lower"),
    ("linalg.s", "s", "lower"),
    ("linalg.svd_calls", "count", "lower"),
    ("linalg.svd_s", "s", "lower"),
    ("linalg.qr_s", "s", "lower"),
    ("linalg.pinv_s", "s", "lower"),
    ("linalg.apply_right_pinv_s", "s", "lower"),
    ("linalg.solve_upper_s", "s", "lower"),
    ("linalg.range_restrictor_s", "s", "lower"),
    ("linalg.fallbacks", "count", "lower"),
    ("cur.glue_s", "s", "lower"),
    ("cur.opt_residual_s", "s", "lower"),
    ("cur.error_s", "s", "lower"),
    ("cur.retries", "count", "lower"),
    ("cur.distinct_cols", "count", "higher"),
    ("cur.distinct_rows", "count", "higher"),
    ("mmio.read_s", "s", "lower"),
    ("mmio.read_mb", "MB", "lower"),
    ("mmio.write_s", "s", "lower"),
    ("mmio.write_mb", "MB", "lower"),
    ("cli.self_s", "s", "lower"),
)

SELF_TIME = {"approx_svd.s": "approx_svd", "sketch.s": "sketch",
             "subset_select.s": "subset_select", "adaptive.s": "adaptive",
             "subspace.s": "subspace", "linalg.s": "linalg",
             "cur.glue_s": "cur", "cli.self_s": "cli"}

INCLUSIVE_TIME = {
    "subset_select.rand_sampling_s": ("subset_select.rand_sampling",),
    "subset_select.bss_s": ("subset_select.bss_sampling",
                            "subset_select.bss_sampling_sparse"),
    "linalg.svd_s": ("linalg.svd",),
    "linalg.qr_s": ("linalg.qr",),
    "linalg.pinv_s": ("linalg.pinv",),
    "linalg.apply_right_pinv_s": ("linalg.apply_right_pinv",),
    "linalg.solve_upper_s": ("linalg.solve_upper_rank_aware",),
    "linalg.range_restrictor_s": ("linalg.range_restrictor",),
    "cur.opt_residual_s": ("cur.optimal_residual_sq",),
    "cur.error_s": ("cur.cur_error_sq",),
    "mmio.read_s": ("mmio.read_matrix",),
    "mmio.write_s": ("mmio.write_matrix",),
}

SPAN_COUNT = {"approx_svd.calls": ("approx_svd.deterministic_svd",
                                   "approx_svd.randomized_svd",
                                   "approx_svd.sparse_svd"),
              "linalg.svd_calls": ("linalg.svd",)}

# Span fields.
ID, PARENT, NAME, START, END, CALL, INFO = range(7)


# Observers read counts at the layer boundary.  They run after the span has
# ended, so their cost is tracing overhead, not layer time.

def _draws(idx):
    idx = np.asarray(idx)
    return {"draws": int(idx.size), "distinct": int(np.unique(idx).size)}


def _dense_mb(x):
    return int(np.prod(np.shape(x))) * 8 / 1e6


def _rank_deficient(psi):
    d = np.abs(np.diag(np.asarray(psi)))
    return bool(d.size) and not d.min() > d.size * d.max() * RANK_RTOL


OBSERVERS = {
    "subset_select.rand_sampling": lambda a, r: _draws(r.indices),
    "sketch.make_sse": lambda a, r: {"width": int(a[1])},
    "sketch.make_sign_sketch": lambda a, r: {"width": int(a[0]),
                                             "dense_mb": _dense_mb(r.S)},
    "sketch.apply_sse": lambda a, r: {"dense_mb": _dense_mb(r)},
    "sketch.apply_sse_compressed": lambda a, r: {"dense_mb": _dense_mb(r)},
    "sketch.jlt": lambda a, r: {"width": int(np.shape(r)[0]),
                                "dense_mb": _dense_mb(r)},
    "subspace.best_subspace_svd": lambda a, r: {"c": int(np.shape(a[1])[1])},
    "subspace.approx_subspace_svd": lambda a, r: {"c": int(np.shape(a[1])[1])},
    "linalg.range_restrictor": lambda a, r: {"fallbacks": int(r is not None)},
    "linalg.solve_upper_rank_aware":
        lambda a, r: {"fallbacks": int(_rank_deficient(a[0]))},
    "cur.decompose": lambda a, r: {
        "retries": int(r.diagnostics.get("retries_used", 0)),
        "distinct_cols": int(np.unique(r.col_indices).size),
        "distinct_rows": int(np.unique(r.row_indices).size)},
    "mmio.read_matrix": lambda a, r: {"mb": os.path.getsize(a[0]) / 1e6},
    "mmio.write_matrix": lambda a, r: {"mb": os.path.getsize(a[0]) / 1e6},
}
OBSERVERS.update({name: (lambda a, r: _draws(r)) for name in ADAPTIVE_PICKERS})


class Tracer:
    """Collects spans while installed; `call_id` tags the current call."""

    def __init__(self):
        self.spans = []
        self.call_id = None
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][ID] if stack else None, name,
                    0.0, 0.0, self.call_id, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, result)
            return result
        return traced

    def install(self):
        """Patch every binding of each traced function across the package."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNTRACED
                        and not inspect.isgeneratorfunction(obj)):
                    wrappers[id(obj)] = (obj, self.wrap(name, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _outermost(spans, names):
    """Spans named in `names` with no ancestor also named in `names`."""
    found = []
    for s in spans:
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            found.append(s)
    return found


def _info_sum(spans, key, names=None):
    return sum(s[INFO].get(key, 0) for s in spans if s[INFO]
               and (names is None or s[NAME] in names))


def layer_metrics(spans, n_calls, traced_s, untraced_s):
    """Per-layer metrics as means per traced call.

    `spans` are the spans of `n_calls` traced calls; `traced_s` and
    `untraced_s` are the mean traced and untraced call times of the run.
    """
    own = self_times(spans)
    m = {"trace.traced_s": traced_s, "trace.untraced_s": untraced_s,
         "trace.overhead_s": traced_s - untraced_s,
         "trace.spans": float(len(spans))}
    for metric, layer in SELF_TIME.items():
        prefix = layer + "."
        m[metric] = sum(own[s[ID]] for s in spans
                        if s[NAME].startswith(prefix))
    for metric, names in INCLUSIVE_TIME.items():
        m[metric] = sum(s[END] - s[START] for s in _outermost(spans, names))
    for metric, names in SPAN_COUNT.items():
        m[metric] = float(sum(1 for s in spans if s[NAME] in names))

    samples = [s for s in spans if s[NAME] == "subset_select.rand_sampling"]
    picks = _outermost(spans, ADAPTIVE_PICKERS)
    for layer, group in (("subset_select", samples), ("adaptive", picks)):
        draws = _info_sum(group, "draws")
        distinct = _info_sum(group, "distinct")
        m[layer + ".draws"] = float(draws)
        m[layer + ".distinct_frac"] = distinct / draws if draws else 1.0
    infos = [s for s in spans if s[INFO]]
    m["sketch.width"] = float(max([s[INFO].get("width", 0) for s in infos]
                                  or [0]))
    m["sketch.dense_mb"] = _info_sum(infos, "dense_mb")
    m["subspace.c"] = float(max([s[INFO].get("c", 0) for s in infos] or [0]))
    m["linalg.fallbacks"] = float(_info_sum(infos, "fallbacks"))
    for key in ("retries", "distinct_cols", "distinct_rows"):
        m["cur." + key] = float(_info_sum(infos, key))
    m["mmio.read_mb"] = _info_sum(infos, "mb", ("mmio.read_matrix",))
    m["mmio.write_mb"] = _info_sum(infos, "mb", ("mmio.write_matrix",))

    per_call = {"trace.traced_s", "trace.untraced_s", "trace.overhead_s",
                "sketch.width", "subspace.c", "subset_select.distinct_frac",
                "adaptive.distinct_frac"}
    calls = max(n_calls, 1)
    return {name: (m[name] if name in per_call else m[name] / calls)
            for name, _, _ in LAYER_METRICS}
