"""Spans around calls into gaugecount's public functions, kept in memory.

A Tracer wraps each function listed in LAYER_CALLS and rebinds every name
that refers to it inside the loaded gaugecount modules, so calls made by
the library itself (count -> count_general, for instance) are recorded
too.  A span holds its layer, start, end, parent span, job id and optional
counters.  layer_metrics turns a span list into per-layer self times and
counter totals; nothing is written until the caller asks.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions whose calls open a span of that layer; a name is
# looked up in every gaugecount module, so a function may move between modules
LAYER_CALLS = {
    "groups.build": ("builtin_group",),
    "groups.classes": ("conjugacy_classes",),
    "matter.reps": ("su2_fundamental_rep", "dihedral_rotation_rep", "zn_charge_rep",
                    "one_dim_to_rep", "trivial_rep", "rep_from_generator_images",
                    "action_left_mult", "action_coset"),
    "matter.characters": ("fermion_site_characters", "fixed_point_character",
                          "one_dim_class_values"),
    "lattice.build": ("lattice_hypercubic", "make_twist", "twist_on_wrap_edges",
                      "dangling_boundary_extension"),
    "counting.count": ("count", "count_general"),
    "oracle.count": ("oracle_count",),
    "oracle.pair_table": ("pair_count_table",),
    "autos.analyze": ("analyze_automorphisms",),
    "cli.serialize": ("report_payload",),
}

# layers whose self time is reported as <layer>_s; "cli.resolve" is the
# self time of the span the CLI child opens around cli.main
TIMED_LAYERS = tuple(LAYER_CALLS) + ("cli.resolve",)


def _distinct(chars) -> int:
    if not isinstance(chars, (list, tuple)):
        return 1
    seen: list = []
    for ch in {id(c): c for c in chars}.values():
        if not any(ch.values == s.values for s in seen):
            seen.append(ch)
    return len(seen)


def _count_general_counts(args, kwargs, rep) -> dict:
    chars = args[3] if len(args) > 3 else kwargs.get("site_chars")
    return {"matter.distinct_site_chars": _distinct(chars),
            "counting.total_bits": rep.total.bit_length(),
            "counting.ring_order_max": max([rep.witness.ring_order]
                                           + [v.order for v in rep.per_class]),
            "counting.site_class_terms": rep.bulk_site_count * len(rep.class_sizes)}


# function name -> counters recorded on its span from (args, kwargs, result)
COUNTERS = {
    "builtin_group": lambda a, k, G: {"groups.build_calls": 1,
                                      "groups.table_cells": G.order ** 2},
    "lattice_hypercubic": lambda a, k, L: {"lattice.links": L.edge_count},
    "dangling_boundary_extension": lambda a, k, out: {
        "lattice.links": out[0].edge_count - a[0].edge_count},
    "count_general": _count_general_counts,
    "oracle_count": lambda a, k, out: {"oracle.calls": 1},
    "analyze_automorphisms": lambda a, k, rep: {"autos.aut_order_sum": rep.aut_order},
}


class Tracer:
    """Records spans; install() wraps the layer calls, uninstall() undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, job, counters]
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.installed = False

    def open(self, layer: str) -> list:
        rec = [layer, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def call(self, layer: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span while the tracer is installed."""
        if not self.installed:
            return fn(*args, **kwargs)
        rec = self.open(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(rec)

    def _wrap(self, layer: str, fn):
        counters = COUNTERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counters is not None:
                rec[5] = counters(args, kwargs, out)
            return out
        return traced

    def install(self) -> None:
        """Wrap the layer calls found in the loaded gaugecount modules; names
        that no longer exist are skipped."""
        self.installed = True
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gaugecount" or name.startswith("gaugecount."))]
        for layer, names in LAYER_CALLS.items():
            for fname in names:
                found = (vars(m).get(fname) for m in modules)
                originals = {id(f): f for f in found
                             if callable(f) and getattr(f, "__module__", "").startswith("gaugecount")}
                for orig in originals.values():
                    wrapped = self._wrap(layer, orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapped)
                                self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()
        self.installed = False

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        assert not self._stack, "spans still open"
        spans, self.spans = self.spans, []
        return spans

    def adopt(self, spans: list[list], job, counters: dict) -> None:
        """Append spans recorded by a child process, plus one span of counters."""
        base = len(self.spans)
        for layer, start, end, parent, _, cnt in spans:
            self.spans.append([layer, start, end, parent + base if parent >= 0 else -1, job, cnt])
        self.spans.append(["cli.process", 0.0, 0.0, -1, job, counters])


def layer_metrics(spans: list[list]) -> dict:
    """Self time per timed layer, self time of counting per job, counter totals."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, job, counters in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {f"{layer}_s": 0.0 for layer in TIMED_LAYERS}
    per_job: dict = {}
    for i, (layer, start, end, parent, job, counters) in enumerate(spans):
        self_time = end - start - child[i]
        key = f"{layer}_s"
        if key in out:
            out[key] += self_time
        if layer == "counting.count" and job is not None:
            per_job[job] = per_job.get(job, 0.0) + self_time
        for name, v in (counters or {}).items():
            out[name] = max(out.get(name, 0), v) if name.endswith("_max") else out.get(name, 0) + v
    return {"metrics": out, "counting_per_job": per_job}
