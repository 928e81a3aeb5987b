"""Outside-in span tracer for the ffil layers.

The tracer wraps public functions of ffil from outside the package, at every
place a name is bound to them, and records one span per call in memory:
[name, start, end, parent index]. Nothing in ffil is edited. Hot helpers
(`mpoly.domain_points`, `AffineFlat.points`, `linalg`, `gf`, `rng`) are not
wrapped; their time counts toward the wrapped caller.

Work counts are computed from arguments and return values only, so they
repeat exactly for a given seed.
"""

import functools
import sys
import time


def _term_points(args, result):
    f, pts = args[0], args[1]
    return {"term_points": len(f.terms) * int(pts.shape[0])}


def _grid_points(args, result):
    f = args[0][0]
    return {"points": f.ctx.p ** f.nvars}


def _system_points(args, result):
    f = next(g for system in args[0] for g in system)
    return {"points": f.ctx.p ** f.nvars}


def _kss(args, result):
    g = args[0]
    return {"cells": g.m * g.n, "witnesses": int(result is not None)}


def _hits(args, result):
    return {"hits": int(result is not None)}


def _result_cells(args, result):
    return {"cells": result.m * result.n}


def _graph_pairs(args, result):
    return {"pairs": result.n * result.n}


def _incidence_pairs(args, result):
    return {"pairs": result.m * result.n}


# module -> function -> (extra per-layer stats, count function or None).
# `calls` is the number of spans; every target also reports `self_s`.
TARGETS = {
    "mpoly": {
        "evaluate_batch": (("calls", "term_points"), _term_points),
        "bivariate_section": (("calls",), None),
        "sample_uniform": (("calls",), None),
    },
    "patterns": {
        "zero_patterns": (("points",), _grid_points),
        "containment_patterns": (("points",), _system_points),
        "shatter_function": ((), None),
        "family_report": ((), None),
    },
    "bigraph": {
        "contains_kss": (("calls", "cells", "witnesses"), _kss),
        "find_induced_pattern": (("calls", "hits"), _hits),
        "from_bool_matrix": (("cells",), _result_cells),
        "hypergraph_independent_set": ((), None),
    },
    "geometry": {
        "unit_distance_graph": (("pairs",), _graph_pairs),
        "point_sphere_incidence": (("pairs",), _incidence_pairs),
        "sphere_points": (("calls",), None),
        "intersect_spheres_to_flat": (("calls",), None),
        "flats_in_sphere_check": ((), None),
        "isotropic_unit_pair_search": ((), None),
    },
    "constructions": {
        "zero_count_experiment": ((), None),
        "random_algebraic_graph": ((), None),
        "point_variety_instance": ((), None),
        "unit_distance_instance": ((), None),
        "evasive_point_set": ((), None),
    },
    "cli": {
        "main": ((), None),
    },
}

# Classmethods are wrapped on their class rather than by module scan.
CLASSMETHODS = {("bigraph", "from_bool_matrix"): "BipartiteGraph"}


def layer_metric_names():
    """Per-layer metric names in emission order, `trace.*` last."""
    names = []
    for mod, funcs in TARGETS.items():
        for fn, (stats, _) in funcs.items():
            names += [f"{mod}.{fn}.{stat}" for stat in ("self_s",) + stats]
    return names + ["trace.wall_s", "trace.overhead_frac"]


class Tracer:
    """In-memory span recorder; spans are written out once, at the end."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                for key, val in count(args, result).items():
                    key = f"{name}.{key}"
                    counts[key] = counts.get(key, 0) + val
            return result

        return traced

    def install(self):
        """Wrap every target at every binding inside the loaded ffil modules."""
        import ffil.cli  # noqa: F401  (loads every module that binds a target)

        mods = [m for n, m in sys.modules.items() if n == "ffil" or n.startswith("ffil.")]
        for mod, funcs in TARGETS.items():
            module = sys.modules[f"ffil.{mod}"]
            for fn, (_, count) in funcs.items():
                name = f"{mod}.{fn}"
                cls_name = CLASSMETHODS.get((mod, fn))
                if cls_name:
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[fn].__func__
                    setattr(cls, fn, classmethod(self.wrap(name, orig, count)))
                    continue
                orig = getattr(module, fn)
                wrapped = self.wrap(name, orig, count)
                for m in mods:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        setattr(m, attr, wrapped)


def self_times(spans):
    """Self seconds per span name: duration minus the time child spans cover.

    Spans nest (one thread, properly bracketed calls), so the time covered by
    children is the sum of the direct children's durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out
