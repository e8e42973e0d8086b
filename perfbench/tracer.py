"""Timing spans around gslms's public functions, installed from outside.

A :class:`Tracer` replaces the module attributes that gslms's callers look
up (``gslms.harness.step``, ``gslms.varparam.attractor_term``, ...) with
wrappers.  Each call records one span (name, parent span, tag, start, end)
in flat in-memory arrays; nothing is written until :meth:`Tracer.write`.
Self time is a span's duration minus the durations of its direct children.

Some wrappers also count what the arguments and returns show: how often the
VP solve falls back (``det`` against ``DET_TOL``), how often the ``mu_max``
cap binds, and the bytes of the arrays the signal layer returns.  These
counts are exact and must repeat run for run.  In the layer pass the oracle
is also run under ``tracemalloc``, which numpy reports its array buffers to,
so its peak memory is measured rather than derived from array shapes.
"""

from __future__ import annotations

import importlib
import os
import resource
import sys
import tracemalloc
from array import array
from time import perf_counter

import numpy as np
from gslms.varparam import DET_TOL

TINY = sys.float_info.min


def algorithm_of(cfg) -> str:
    """Algorithm name of a ``FilterConfig``, as the built-in experiments name it."""
    base = "lms" if cfg.mode is None else cfg.mode.tag
    return "vp-" + base if cfg.variable_params else base


def _cpu_before(tracer, args, kwargs):
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def _cpu_after(tracer, args, kwargs, result, token):
    self0, children0 = token
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    tracer.add("self_cpu_s", (self1.ru_utime + self1.ru_stime) - (self0.ru_utime + self0.ru_stime))
    tracer.add("children_cpu_s",
               (children1.ru_utime + children1.ru_stime)
               - (children0.ru_utime + children0.ru_stime))


def _oracle_after(tracer, args, kwargs, result, token):
    _cpu_after(tracer, args, kwargs, result, token)
    tracer.count("oracle_member_steps", result.ensemble * result.horizon)


def _oracle_alloc_before(tracer, args, kwargs):
    """Start ``tracemalloc`` outside the span's clock; the call's peak is
    read against what was already allocated."""
    tracemalloc.start()
    return _cpu_before(tracer, args, kwargs), tracemalloc.get_traced_memory()[0]


def _oracle_alloc_after(tracer, args, kwargs, result, token):
    cpu, base = token
    tracer.add("oracle_peak_bytes", tracemalloc.get_traced_memory()[1] - base)
    tracemalloc.stop()
    _oracle_after(tracer, args, kwargs, result, cpu)


def _emit_after(tracer, args, kwargs, result, token):
    tracer.count("emit_bytes", sum(os.path.getsize(p) for p in result))


def _stream_after(tracer, args, kwargs, result, token):
    tracer.count("signal_bytes", result.nbytes)


def _plant_after(tracer, args, kwargs, result, token):
    tracer.count("signal_bytes", result.U.nbytes + result.d.nbytes + result.plant_index.nbytes)


def _solve_after(tracer, args, kwargs, result, token):
    m = args[0]
    det_tol = args[1] if len(args) > 1 else kwargs.get("det_tol", DET_TOL)
    det = m.g * m.h - m.ell * m.ell
    if not det > det_tol * m.g * max(m.h, TINY):
        tracer.count("solve_fallbacks", 1)


def _smooth_before(tracer, args, kwargs):
    vp, mu_star = args[0], args[1]
    gp = vp.gamma_prime
    if gp * vp.mu_prev + (1.0 - gp) * mu_star > vp.mu_max:
        tracer.count("mu_caps", 1)


def _oracle_case(args) -> str:
    return "lms" if args[2].mode is None else args[2].mode.tag


# (module, attribute its callers look up, span name, tag of a call,
#  hook before the span, hook after it)
RUN_TARGET = ("gslms.cli", "run_experiment", "harness.run_experiment",
              None, _cpu_before, _cpu_after)
COMPUTE_TARGETS = (
    RUN_TARGET,
    ("gslms.cli", "validate_model_recursion", "oracles.validate_model_recursion",
     _oracle_case, _cpu_before, _oracle_after),
)
LAYER_TARGETS = (
    RUN_TARGET,
    ("gslms.cli", "validate_model_recursion", "oracles.validate_model_recursion",
     _oracle_case, _oracle_alloc_before, _oracle_alloc_after),
    ("gslms.cli", "emit_curves", "harness.emit_curves", None, None, _emit_after),
    ("gslms.harness", "scalar_stream", "signals.scalar_stream", None, None, _stream_after),
    ("gslms.harness", "simulate_plant", "signals.simulate_plant", None, None, _plant_after),
    ("gslms.harness", "step", "filters.step", lambda a: algorithm_of(a[1]), None, None),
    ("gslms.harness", "vp_iteration", "varparam.vp_iteration",
     lambda a: algorithm_of(a[2]), None, None),
    ("gslms.filters", "attractor_term", "groups.attractor_term", None, None, None),
    ("gslms.varparam", "attractor_term", "groups.attractor_term", None, None, None),
    ("gslms.varparam", "solve_optimal_params", "varparam.solve_optimal_params",
     None, None, _solve_after),
    ("gslms.varparam", "smooth_and_clamp", "varparam.smooth_and_clamp",
     None, _smooth_before, None),
)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = [""]
        self.counts: dict[str, int] = {}
        self.sums: dict[str, float] = {}
        self.missing: list[str] = []
        self._name = array("H")
        self._tag = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._patched = []

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def _tag_id(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            self.tags.append(tag)
            return len(self.tags) - 1

    def wrap(self, name, fn, tag=None, before=None, after=None):
        """``fn`` with a span named ``name`` recorded around every call."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, tags, parents = self._name, self._tag, self._parent
        starts, ends, stack = self._start, self._end, self._stack

        def traced(*args, **kwargs):
            token = before(self, args, kwargs) if before is not None else None
            idx = len(starts)
            names.append(nid)
            tags.append(0)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if tag is not None:
                tags[idx] = self._tag_id(tag(args))
            if after is not None:
                after(self, args, kwargs, result, token)
            return result

        return traced

    def install(self, targets) -> None:
        """Swap each target attribute for its traced wrapper.

        A target the package no longer has is skipped and listed in
        ``missing``, so its layer reads zero calls instead of failing.
        """
        for module, attr, name, tag, before, after in targets:
            mod = importlib.import_module(module)
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(name, original, tag, before, after))
            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def _arrays(self):
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return (np.frombuffer(self._name, dtype=np.uint16),
                np.frombuffer(self._tag, dtype=np.uint16),
                np.frombuffer(self._parent, dtype=np.int64), start, end)

    def summary(self) -> dict:
        """Calls, total and self seconds per span name and per (name, tag)."""
        name, tag, parent, start, end = self._arrays()
        n = start.shape[0]
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        spans = {}
        by_tag = {}
        for nid, span_name in enumerate(self.names):
            sel = name == nid
            spans[span_name] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_t[sel].sum()),
            }
            tags_here = tag[sel]
            for tid in np.unique(tags_here[tags_here > 0]):
                tsel = sel & (tag == tid)
                by_tag.setdefault(span_name, {})[self.tags[tid]] = {
                    "calls": int(tsel.sum()), "s": float(dur[tsel].sum()),
                }
        return {
            "spans": spans, "by_tag": by_tag, "counts": dict(self.counts),
            "sums": dict(self.sums), "span_count": int(n), "missing": list(self.missing),
        }

    def write(self, path: str) -> None:
        """Save every span (name id, tag id, parent index, start, end)."""
        name, tag, parent, start, end = self._arrays()
        np.savez(path, name=name, tag=tag, parent=parent, start=start, end=end,
                 names=np.array(self.names), tags=np.array(self.tags))
