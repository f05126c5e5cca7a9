"""Span tracer for fracharm, installed from outside the package.

``Tracer`` wraps every function named in ``TRACED``.  ``experiments``,
``atoms`` and ``varexp`` import those functions by name, so rebinding the
defining module alone would miss their calls: the tracer rebinds the
function in every ``fracharm.*`` namespace that holds it, and on the class
for methods.  Each call records a span (name, start, end, parent, thread,
verify-call id); spans stay in memory until ``layer_metrics`` reduces them.

Work counts are computed from each call's arguments, not counted by the
package: operator tuples, ladder rungs, Luxemburg cells, and the repeat
keys behind ``repeat_frac``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


def _operator_probe(kernel, fs, points=None, chunk=None):
    """Computed tuple count: points x product of slot support sizes."""
    fs = list(fs)
    n_points = fs[0].samples.size if points is None else len(np.atleast_2d(points))
    tuples = n_points
    for f in fs:
        tuples *= int(np.count_nonzero(f.samples))
    return {"tuples": tuples, "grid": int(fs[0].samples.size)}


def _rungs(f, cfg):
    from fracharm.maximal import MaximalConfig
    cfg = cfg or MaximalConfig.for_grid(f)
    return {"rungs": len(cfg.cell_lengths(f.h))}


def _hl_probe(f, cfg=None):
    return _rungs(f, cfg)


def _frac_probe(f, gamma, cfg=None):
    return _rungs(f, cfg)


def _luxemburg_probe(f, p):
    return {"cells": int(f.samples.size)}


def _sample_probe(weight, box, h):
    key = json.dumps([weight.descriptor(), [list(b) for b in box], h])
    return {"key": key}


def _kernel_probe(mollifier, t, h, dim):
    return {"key": (mollifier.scales, t, h, dim)}


# (module, qualified name, argument probe or None)
TRACED = (
    ("config", "ExperimentConfig.from_dict", None),
    ("grid", "weighted_lp_quasinorm", None),
    ("weights", "rh_constant", None),
    ("weights", "ap_constant", None),
    ("weights", "apq_constant", None),
    ("weights", "rw_estimate", None),
    ("weights", "Weight.sample", _sample_probe),
    ("maximal", "hl_maximal", _hl_probe),
    ("maximal", "frac_maximal", _frac_probe),
    ("maximal", "grand_maximal", None),
    ("maximal", "iterated_maximal", None),
    ("maximal", "Mollifier.kernel", _kernel_probe),
    ("kernels", "apply_frac_operator", _operator_probe),
    ("kernels", "local_product_bound_check", None),
    ("kernels", "taylor_remainder_check", None),
    ("atoms", "random_atomic_family", None),
    ("atoms", "hardy_quasinorm", None),
    ("varexp", "luxemburg_norm", _luxemburg_probe),
    ("varexp", "modular", None),
    ("varexp", "rubio_iterate", None),
    ("varexp", "rubio_properties_check", None),
    ("varexp", "derive_system", None),
    ("varexp", "log_holder_estimate", None),
    ("varexp", "maximal_opnorm_estimate", None),
    ("varexp", "dual_witness", None),
    ("reports", "RatioReport.from_rows", None),
    ("reports", "write_report_json", None),
    ("reports", "write_trials_csv", None),
    ("experiments", "run_experiment", None),
)

LAYERS = ("config", "grid", "weights", "maximal", "kernels", "atoms",
          "varexp", "reports", "experiments")


def _with_stat(names, stats):
    units = {"self_s": "s", "tuples_per_s": "1/s", "repeat_frac": "ratio",
             "self_share": "ratio"}
    return [(f"{n}.{s}", units.get(s, "count")) for n in names for s in stats]


# Per-layer metric names and units, in the order they are reported.
PER_LAYER = (
    _with_stat(["kernels.apply_frac_operator"],
               ["calls", "self_s", "tuples", "tuples_per_s"])
    + [("kernels.apply_frac_operator.self_s.G256", "s"),
       ("kernels.apply_frac_operator.self_s.G1024", "s")]
    + _with_stat(["kernels.local_product_bound_check",
                  "kernels.taylor_remainder_check"], ["self_s"])
    + _with_stat(["maximal.hl_maximal", "maximal.frac_maximal"],
                 ["calls", "self_s", "rungs"])
    + _with_stat(["maximal.grand_maximal", "maximal.iterated_maximal"],
                 ["calls", "self_s"])
    + _with_stat(["maximal.Mollifier.kernel"], ["calls", "repeat_frac"])
    + _with_stat(["varexp.luxemburg_norm"], ["calls", "self_s", "cells"])
    + _with_stat([f"varexp.{f}" for f in (
        "modular", "rubio_iterate", "rubio_properties_check", "derive_system",
        "log_holder_estimate", "maximal_opnorm_estimate", "dual_witness")],
        ["self_s"])
    + _with_stat([f"weights.{f}" for f in (
        "rh_constant", "ap_constant", "apq_constant", "rw_estimate")],
        ["self_s"])
    + _with_stat(["weights.Weight.sample"],
                 ["calls", "self_s", "repeat_frac"])
    + _with_stat(["atoms.random_atomic_family", "atoms.hardy_quasinorm",
                  "grid.weighted_lp_quasinorm"], ["calls", "self_s"])
    + _with_stat(["reports.RatioReport.from_rows", "reports.write_report_json",
                  "reports.write_trials_csv",
                  "config.ExperimentConfig.from_dict",
                  "experiments.run_experiment"], ["self_s"])
    + _with_stat(LAYERS, ["self_share"])
    + [("experiments.pool_busy_frac", "ratio"),
       ("experiments.pool_speedup", "ratio"),
       ("experiments.cpu_util", "ratio"),
       ("trace_overhead_frac", "ratio")]
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    call: int
    span_id: int
    probe: dict | None


def _fracharm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracharm" or name.startswith("fracharm."))]


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def begin_call(self, call: int) -> None:
        """Tag the spans that follow with a verify-call id."""
        self.call = call

    def _wrap(self, name, fn, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            extra = probe(*args, **kwargs) if probe else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(name, t0, t1, parent,
                                         threading.get_ident(), tracer.call,
                                         sid, extra))

        return traced

    def __enter__(self):
        import fracharm  # noqa: F401  (loads every traced module)

        replace = {}
        for module, qualname, probe in TRACED:
            mod = sys.modules[f"fracharm.{module}"]
            name = f"{module}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, probe))
                else:
                    new = self._wrap(name, raw, probe)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
            else:
                fn = getattr(mod, qualname)
                replace[id(fn)] = (fn, self._wrap(name, fn, probe))
        for mod in _fracharm_modules():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False


def layer_metrics(spans, wall: float) -> dict:
    """Reduce spans to the per-layer metrics, all but those of the trial
    pool pass (``experiments.*`` from ``pool_busy_frac`` on) and
    ``trace_overhead_frac``, which the caller measures.

    Self time is a span's duration minus its direct children's, which run
    on the same thread by construction.
    """
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
    agg: dict = {}
    seen: dict = {}
    for s in sorted(spans, key=lambda s: s.start):
        a = agg.setdefault(s.name, {"calls": 0, "self_s": 0.0, "repeats": 0})
        own = (s.end - s.start) - child.get(s.span_id, 0.0)
        a["calls"] += 1
        a["self_s"] += own
        for key, value in (s.probe or {}).items():
            if key == "key":
                keys = seen.setdefault((s.name, s.call), set())
                a["repeats"] += value in keys
                keys.add(value)
            elif key == "grid":
                a[f"self_s.G{value}"] = a.get(f"self_s.G{value}", 0.0) + own
            else:
                a[key] = a.get(key, 0) + value

    out = {}
    for metric, _unit_name in PER_LAYER:
        if metric.endswith(".self_share") and metric.count(".") == 1:
            layer = metric.split(".")[0]
            total = sum(a["self_s"] for n, a in agg.items()
                        if n.startswith(layer + "."))
            out[metric] = total / wall if wall > 0 else 0.0
            continue
        for name, a in agg.items():
            if metric.startswith(name + "."):
                stat = metric[len(name) + 1:]
                break
        else:
            continue
        if stat == "repeat_frac":
            out[metric] = a["repeats"] / a["calls"] if a["calls"] else 0.0
        elif stat == "tuples_per_s":
            out[metric] = a.get("tuples", 0) / a["self_s"] if a["self_s"] > 0 else 0.0
        else:
            out[metric] = a.get(stat, 0)
    for metric, _unit_name in PER_LAYER:
        out.setdefault(metric, 0)
    return out


def pool_busy_frac(spans, wall: float, workers: int) -> float:
    """Traced time on pool threads (their outermost spans) / (wall x workers)."""
    main = threading.main_thread().ident
    busy = sum(s.end - s.start for s in spans
               if s.thread != main and s.parent is None)
    return busy / (wall * workers) if wall > 0 else 0.0
