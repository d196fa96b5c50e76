"""Span tracing for the traced benchmark run, installed from outside the package.

Every function named in ``LAYERS`` is replaced by a wrapper that records a
span (name, start, end, parent, thread, op id).  The wrapper is bound in
*every* ``potts_sd`` module namespace and class dict that held the original
object, because ``relations`` imports ``series_logZ`` by name while ``cli``
calls module attributes, and ``TruncatedSeries.__rmul__``/``__pow__`` are
aliases of ``__mul__``/``pow``.  ``install`` fails loudly when a named
function is missing or when an alias of it survives the patch.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# layer group -> (module, attribute paths).  A path may name a method as
# "Class.attr".  ``closedform.series`` is filled in by ``_expand`` with every
# ``*_series`` builder closedform itself defines.
LAYERS = {
    "cli.main": ("cli", ["main"]),
    "lattice.series_logZ": ("lattice", ["series_logZ"]),
    "lattice.extract_free_energies": ("lattice", ["extract_free_energies"]),
    "qseries.mul": ("qseries", ["TruncatedSeries.__mul__"]),
    "qseries.log": ("qseries", ["TruncatedSeries.log"]),
    "qseries.exp": ("qseries", ["TruncatedSeries.exp"]),
    "qseries.reciprocal": ("qseries", ["TruncatedSeries.reciprocal"]),
    "qseries.pow": ("qseries", ["TruncatedSeries.pow"]),
    "closedform.numeric": (
        "closedform",
        ["f_bulk", "f_surface_v", "f_surface_h", "f_corner", "free_energies"],
    ),
    "closedform.series": ("closedform", ["series_bundle"]),
    "bethe.solve": ("bethe", ["solve"]),
    "bethe.eigenvalue": ("bethe", ["eigenvalue"]),
    "relations.series": ("relations", ["verify_free_energy_relations_series"]),
    "relations.numeric": ("relations", ["verify_free_energy_relations_numeric"]),
    "relations.matrix": ("relations", ["verify_matrix_inversion", "verify_VV"]),
    "relations.fc_constant": ("relations", ["verify_fc_constant"]),
}

QSERIES_GROUPS = ["qseries.mul", "qseries.log", "qseries.exp", "qseries.reciprocal", "qseries.pow"]


class Tracer:
    """Collects spans; one span stack per thread.

    A span opened on a thread whose stack is empty (a CLI pool thread) gets
    the current op's root span as its parent, so the root's self time does
    not count the time it spends blocked on the pool.
    """

    def __init__(self):
        self.spans = []  # [group, start, end, parent span or None, thread id, op id]
        self.op_id = None
        self.root = None
        self.continuation_steps = 0
        self._local = threading.local()

    def begin_op(self, op_id):
        self.op_id = op_id
        self.root = None

    def wrap(self, group, fn):
        local = self._local
        spans = self.spans
        clock = time.perf_counter
        count_steps = group == "bethe.solve"

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [group, 0.0, None, stack[-1] if stack else self.root, threading.get_ident(), self.op_id]
            if self.root is None:
                self.root = span
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_steps:
                self.continuation_steps += len(out.trace)
            return out

        return functools.update_wrapper(traced, fn)

    def write(self, path):
        """Write every span as [group, start, end, parent index, thread, op]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [g, t0, t1, None if p is None else index[id(p)], tid, op]
            for g, t0, t1, p, tid, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["group", "start", "end", "parent", "thread", "op"], "spans": rows}, fh)


def _expand(layers):
    closedform = importlib.import_module("potts_sd.closedform")
    builders = sorted(
        name
        for name, obj in vars(closedform).items()
        if name.endswith("_series")
        and callable(obj)
        and getattr(obj, "__module__", None) == closedform.__name__
    )
    out = dict(layers)
    if "closedform.series" in out:
        mod, names = out["closedform.series"]
        out["closedform.series"] = (mod, names + builders)
    return out


def install(tracer, layers=LAYERS):
    """Replace every traced function in every namespace that bound it."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "potts_sd" and m is not None]
    owners = {id(m): m for m in modules}
    for m in modules:
        owners.update({id(c): c for c in vars(m).values() if isinstance(c, type) and c.__module__.startswith("potts_sd")})
    for group, (mod_name, paths) in _expand(layers).items():
        module = importlib.import_module("potts_sd." + mod_name)
        for path in paths:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]  # KeyError: a renamed or moved layer function
            wrapper = tracer.wrap(group, original)
            for o in owners.values():
                for key in [k for k, v in vars(o).items() if v is original]:
                    setattr(o, key, wrapper)


def _union(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(tracer, wall_s):
    """Per-layer self time, calls and shares of one traced pass lasting ``wall_s``.

    Self time is a span's duration minus the union of its children's
    intervals, clipped to the span.  Shares are the union of a layer's span
    intervals over ``wall_s``; on the CLI's thread pool summed span time can
    exceed the wall, and ``lattice.series_logZ.overlap_s`` is that excess.
    """
    children = {}
    for span in tracer.spans:
        if span[3] is not None:
            children.setdefault(id(span[3]), []).append(span)
    groups = list(LAYERS)
    self_s = dict.fromkeys(groups, 0.0)
    calls = dict.fromkeys(groups, 0)
    intervals = {g: [] for g in groups}
    for span in tracer.spans:
        group, t0, t1 = span[:3]
        kids = [(max(c[1], t0), min(c[2], t1)) for c in children.get(id(span), ())]
        self_s[group] += (t1 - t0) - _union([k for k in kids if k[1] > k[0]])
        calls[group] += 1
        intervals[group].append((t0, t1))
    out = {}
    for g in groups:
        out[f"{g}.self_s"] = (self_s[g], "s")
        out[f"{g}.calls"] = (calls[g], "count")
    lat = intervals["lattice.series_logZ"]
    out["lattice.series_logZ.overlap_s"] = (sum(b - a for a, b in lat) - _union(lat), "s")
    out["lattice.series_logZ.share"] = (_union(lat) / wall_s, "ratio")
    out["qseries.share"] = (_union([iv for g in QSERIES_GROUPS for iv in intervals[g]]) / wall_s, "ratio")
    out["bethe.solve.share"] = (_union(intervals["bethe.solve"]) / wall_s, "ratio")
    out["bethe.continuation_steps"] = (tracer.continuation_steps, "count")
    return out
