"""Span tracing of the package's layers, installed from outside the package.

Each layer module's functions are replaced, at every name a caller looks
them up by, with a wrapper that records a span (name, start, end, parent)
and a call count.  ``stokes_isolas.beta.build_resonance_data`` is wrapped
as well as ``stokes_isolas.resonance.build_resonance_data``, because
``beta`` calls it through its own module globals.  Tiny accessors that run
hundreds of times per point are counted without a span; their time stays in
their caller's self time.

Self time of a span is its duration minus the durations of its child spans
on the same thread.  Counts and times are kept per thread and merged at the
end, so the program's pool threads need no locking in the hot path.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter

LAYERS = ("dispersion", "resonance", "stokes_coefficients", "beta", "asymptotics", "isola", "cli")

# Counted, not timed: each runs tens to hundreds of times per depth point.
COUNT_ONLY = {
    "dispersion._check_depth",
    "dispersion._check_finite",
    "resonance._check_index",
    "stokes_coefficients.StokesCoefficients.a",
    "stokes_coefficients.StokesCoefficients.p",
    "cli._fmt",
}

SPAN_LOG_LIMIT = 200_000


class _ThreadStats:
    __slots__ = ("stack", "count", "incl", "self_", "active", "root_parent")

    def __init__(self, root_parent):
        self.stack = []            # [child_ns, span_id] per open span
        self.count = Counter()
        self.incl = Counter()      # ns, inclusive
        self.self_ = Counter()     # ns, exclusive of child spans
        self.active = Counter()    # open spans by name
        self.root_parent = root_parent


class Tracer:
    """Installs span wrappers on the package and collects what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadStats] = []
        self._restore: list[tuple[object, str, object]] = []
        self._ids = iter(range(1, 1 << 62))
        self.spans: list[tuple[str, int, int, int, int]] = []  # name, start, end, id, parent
        self.log_spans = False
        self.pool_wall_ns = 0
        self.pool_work_ns = 0
        self._pool_parent = None

    # -- recording -------------------------------------------------------

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadStats(self._pool_parent)
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    def _span(self, name, fn, inside=None):
        tracer = self
        nested = f"{name}@{inside}" if inside else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._stats()
            stack = st.stack
            parent = stack[-1][1] if stack else st.root_parent
            frame = [0, next(tracer._ids)]
            stack.append(frame)
            st.active[name] += 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                st.active[name] -= 1
                d = t1 - t0
                if stack:
                    stack[-1][0] += d
                st.count[name] += 1
                st.incl[name] += d
                st.self_[name] += d - frame[0]
                if nested and st.active[inside]:
                    st.count[nested] += 1
                if tracer.log_spans and len(tracer.spans) < SPAN_LOG_LIMIT:
                    tracer.spans.append((name, t0, t1, frame[1], parent))

        return traced

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer._stats().count[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _pool(self, fn):
        """_map_ordered: wall time, and the thread CPU time of the work inside."""
        tracer = self

        @functools.wraps(fn)
        def pooled(work, items):
            lock = threading.Lock()
            busy = [0]

            def timed(x):
                c0 = time.thread_time_ns()
                try:
                    return work(x)
                finally:
                    c = time.thread_time_ns() - c0
                    with lock:
                        busy[0] += c

            st = tracer._stats()
            tracer._pool_parent = st.stack[-1][1] if st.stack else None
            t0 = time.perf_counter_ns()
            try:
                return fn(timed, items)
            finally:
                tracer.pool_wall_ns += time.perf_counter_ns() - t0
                tracer.pool_work_ns += busy[0]
                tracer._pool_parent = None

        return pooled

    # -- installation ----------------------------------------------------

    def install(self):
        pkg = importlib.import_module("stokes_isolas")
        modules = {layer: importlib.import_module(f"stokes_isolas.{layer}") for layer in LAYERS}
        namespaces = [pkg, *modules.values()]

        def replace_everywhere(original, wrapper):
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, attr, value))
                        setattr(ns, attr, wrapper)

        for layer, mod in modules.items():
            for fname, fn in list(vars(mod).items()):
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                if name in COUNT_ONLY:
                    wrapper = self._counter(name, fn)
                elif name == "cli._map_ordered":
                    wrapper = self._span(name, self._pool(fn))
                elif name == "beta.beta1":
                    wrapper = self._span(name, fn, inside="beta.find_beta_zeros")
                else:
                    wrapper = self._span(name, fn)
                replace_everywhere(fn, wrapper)

        # The Brent refiner as find_beta_zeros looks it up (not the phi* solve's).
        beta = modules["beta"]
        self._restore.append((beta, "brentq", beta.brentq))
        beta.brentq = self._span("beta.brentq", beta.brentq)

        sc = modules["stokes_coefficients"].StokesCoefficients
        for method in ("a", "p"):
            original = vars(sc)[method]
            self._restore.append((sc, method, original))
            setattr(sc, method, self._counter(f"stokes_coefficients.StokesCoefficients.{method}", original))

        params = modules["isola"].IsolaParams
        original = vars(params)["from_depth"]
        self._restore.append((params, "from_depth", original))
        params.from_depth = classmethod(self._span("isola.IsolaParams.from_depth", original.__func__))

    def uninstall(self):
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def totals(self):
        """(count, inclusive ns, self ns) summed over every thread."""
        count, incl, self_ = Counter(), Counter(), Counter()
        for st in self._threads:
            count.update(st.count)
            incl.update(st.incl)
            self_.update(st.self_)
        return count, incl, self_
