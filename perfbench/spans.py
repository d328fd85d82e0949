"""Outside-in span tracer for the gmspde layers.

The tracer wraps public functions and methods of the package from the
outside; no file under ``src/`` knows about it.  Each wrapped call opens
a span on a thread-local stack.  When a span closes, its self time is
its wall time minus the union of its child spans' intervals (children
may overlap when they run on pool threads), and its self CPU time is
``time.thread_time()`` spent inside it minus the CPU time of children
on the same thread.  Statistics are aggregated per target name under a
lock; no span objects outlive their parent.

Targets are looked up by module and attribute path.  A name that no
longer exists (a later refactor deleted it) is reported as absent, not
as an error.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

PACKAGE = "gmspde"

# (stat name, module, attribute path, hook) -- several targets may share
# one stat name; their calls and times add up.  Each row names the
# end-to-end metric and workload the layer should move.
TARGETS = (
    # dynamics: wall_s on ens_1d (per-step Python overhead); flat on sim_2d
    ("dynamics.advance", "gmspde.dynamics", "Stepper.advance", None),
    ("dynamics.Stepper", "gmspde.dynamics", "Stepper.__init__", None),
    ("dynamics.run", "gmspde.dynamics", "run", None),
    # rng, noise: wall_s and peak_rss_mb on ens_1d; flat on sim_2d
    ("rng.normal_table", "gmspde.rng", "normal_table", "draws"),
    ("noise.sample_path", "gmspde.noise", "sample_path", "table"),
    # spectral: wall_s, setup_s, peak_rss_mb on sim_2d; must not regress ens_1d
    ("spectral.project", "gmspde.spectral", "SpectralBasis.project", None),
    ("spectral.synthesize", "gmspde.spectral", "SpectralBasis.synthesize", None),
    ("spectral.gradient_table", "gmspde.spectral",
     "SpectralBasis.gradient_table", None),
    ("spectral.build_basis", "gmspde.spectral", "build_basis", None),
    # fields: fail_frac everywhere; wall_s on ens_1d
    ("fields.quotient_nodal", "gmspde.fields", "quotient_nodal", "floor"),
    # functionals: wall_s on sim_2d (gradient GEMVs) and ens_1d
    ("functionals.accumulate", "gmspde.functionals",
     "FunctionalRecorder.accumulate", None),
    ("functionals.record", "gmspde.functionals", "FunctionalRecorder.record", None),
    ("functionals.energy_monitors", "gmspde.functionals", "energy_monitors", None),
    ("functionals.membership", "gmspde.functionals", "membership", None),
    # experiments: wall_s on picard_1d; absent elsewhere
    ("experiments.apply_T", "gmspde.experiments", "apply_T", None),
    ("experiments.replay_trace", "gmspde.experiments", "replay_trace", None),
    ("experiments.seminorm_m", "gmspde.experiments", "seminorm_m", None),
    ("experiments.picard_iterate", "gmspde.experiments", "picard_iterate",
     "iterations"),
    # _parallel: wall_s on ens_1d and picard_1d; unused by sim_2d
    ("parallel.map_indexed", "gmspde._parallel", "map_indexed", "link"),
    # io: wall_s on sim_2d, watched only
    ("io.write", "gmspde.io", "write_trace", "bytes"),
    ("io.write", "gmspde.io", "write_snapshot", "bytes"),
    ("io.write", "gmspde.io", "write_image", "bytes"),
    ("io.write", "gmspde.io", "write_csv", "bytes"),
    ("io.write", "gmspde.io", "write_lines", "bytes"),
)

# counters filled by hooks, with the stat they belong to (for absence)
COUNTERS = {
    "rng.draws": "rng.normal_table",
    "noise.table_mb": "noise.sample_path",
    "fields.floor_activations": "fields.quotient_nodal",
    "experiments.picard_iterations": "experiments.picard_iterate",
    "io.bytes_written": "io.write",
}
_COUNT_HOOKS = frozenset({"draws", "table", "floor", "iterations", "bytes"})


class _Span:
    __slots__ = ("parent", "thread", "children", "child_cpu")

    def __init__(self, parent, thread):
        self.parent = parent
        self.thread = thread
        self.children = []
        self.child_cpu = 0.0


class _Stat:
    __slots__ = ("calls", "self_s", "self_cpu_s", "errors")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.self_cpu_s = 0.0
        self.errors = 0


def _union(intervals):
    """Total length covered by a list of (start, end) intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    lo, hi = intervals[0]
    for start, end in intervals[1:]:
        if start > hi:
            total += hi - lo
            lo, hi = start, end
        elif end > hi:
            hi = end
    return total + hi - lo


def _path_argument(fn, args, kwargs):
    """The ``path`` argument of an io writer, by name or position."""
    if "path" in kwargs:
        return kwargs["path"]
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    if "path" in names and names.index("path") < len(args):
        return args[names.index("path")]
    return None


class Tracer:
    """Installs span wrappers on the package and aggregates their stats."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.present = set()
        self.absent = set()
        self.workers = None
        self._undo = []

    # -- spans -----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name, span, start, cpu0, failed):
        end = time.perf_counter()
        cpu = time.thread_time() - cpu0
        self._stack().pop()
        own = (end - start) - _union(span.children)
        own_cpu = cpu - span.child_cpu
        parent = span.parent
        if parent is not None:
            parent.children.append((start, end))
            if parent.thread == span.thread:
                parent.child_cpu += cpu
        with self._lock:
            stat = self.stats[name]
            stat.calls += 1
            stat.self_s += own
            stat.self_cpu_s += own_cpu
            stat.errors += failed

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = _Span(stack[-1] if stack else None, threading.get_ident())
            stack.append(span)
            if hook == "link" and args:
                args = (tracer._linked(args[0], span),) + args[1:]
            failed = 1
            start = time.perf_counter()
            cpu0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                failed = 0
            finally:
                tracer._close(name, span, start, cpu0, failed)
            if hook in _COUNT_HOOKS:
                tracer._count(hook, fn, args, kwargs, result)
            return result

        return traced

    def _linked(self, fn, parent):
        """Run ``fn`` on a pool thread with ``parent`` as its base span."""
        tracer = self

        def linked(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                return fn(*args, **kwargs)
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.clear()

        return linked

    def _count(self, hook, fn, args, kwargs, result):
        with self._lock:
            if hook == "draws":
                self.counters["rng.draws"] += result.size
            elif hook == "table":
                self.counters["noise.table_mb"] += result.increments.nbytes / 1e6
            elif hook == "floor":
                self.counters["fields.floor_activations"] += result[1]
            elif hook == "iterations":
                self.counters["experiments.picard_iterations"] += result.iterations
            elif hook == "bytes":
                path = _path_argument(fn, args, kwargs)
                written = (path, f"{path}.bounds.txt") if path is not None else ()
                for p in written:
                    if os.path.isfile(p):
                        self.counters["io.bytes_written"] += os.path.getsize(p)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        """Wrap every target that exists; remember the absent ones."""
        for name, modname, attr, hook in TARGETS:
            self.stats.setdefault(name, _Stat())
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.add(name)
                continue
            owner_path, _, leaf = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.absent.add(name)
                continue
            self.present.add(name)
            if owner is module:
                original = getattr(module, leaf)
                self._patch_everywhere(original, self._wrap(name, original, hook))
            else:
                original = owner.__dict__.get(leaf, getattr(owner, leaf))
                self._set(owner, leaf, original, self._wrap(name, original, hook))
        self.absent -= self.present
        parallel = sys.modules.get(f"{PACKAGE}._parallel")
        if parallel is not None and hasattr(parallel, "worker_count"):
            self.workers = parallel.worker_count()

    def _patch_everywhere(self, original, wrapper):
        """Replace a function in every package module that bound its name."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, original, wrapper)

    def _set(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._undo.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- report ----------------------------------------------------------

    def metrics(self):
        """Flat ``{metric: value}`` for every stat and counter."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.self_cpu_s"] = stat.self_cpu_s
            out[f"{name}.errors"] = stat.errors
        out.update(self.counters)
        if self.workers is not None:
            out["parallel.workers"] = self.workers
        return out

    def absent_metrics(self):
        """Metric names whose target no longer exists in the package."""
        names = {f"{stat}.{field}" for stat in self.absent
                 for field in ("calls", "self_s", "self_cpu_s", "errors")}
        names |= {c for c, stat in COUNTERS.items() if stat in self.absent}
        if self.workers is None:
            names.add("parallel.workers")
        return sorted(names)
