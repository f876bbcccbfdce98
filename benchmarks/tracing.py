"""Span tracing of ``dcl`` from outside the package.

``Tracer.install`` replaces every public function and public method of
the ``dcl`` layer modules, and ``numpy.fft.rfft``/``irfft``, with a
wrapper that records one span per call: name, start, end and parent.
Names bound elsewhere with ``from ... import`` (``dcl.cli.evolve``,
``dcl.flow.h1_distance``, ...) are patched where they are looked up.
``Tracer.uninstall`` puts every original back.  Spans are kept in memory;
``summarize`` turns them into per-layer counts and self times and
``write_spans`` writes them out.
"""

import functools
import gzip
import importlib
import inspect
import time

import numpy as np

LAYERS = ("spectral", "manifolds", "curves", "flow", "invariants", "presets",
          "cli")
# dataclass __init__ calls this, so its count is the number of validations
EXTRA_METHODS = ("__post_init__",)


class Tracer:
    """Records a span for every call of a wrapped callable."""

    def __init__(self):
        self.names = []          # name id -> "layer:qualified name"
        self.spans = []          # (name id, start ns, end ns, parent index)
        self.stack = [-1]
        self.fft_points = 0
        self.evolve_results = []
        self._patches = []
        self._wrapper_ids = set()

    def reset(self):
        self.spans = []
        self.stack = [-1]
        self.fft_points = 0
        self.evolve_results = []

    # -- installing and removing the wrappers ------------------------------

    def _wrap(self, fn, layer, qualname, after=None):
        """Wrapper recording a span; ``after(args, result)`` adds counts."""
        name_id = len(self.names)
        self.names.append(f"{layer}:{qualname}")
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_rfft(self, args, result):
        self.fft_points += np.asarray(args[0]).size

    def _count_irfft(self, args, result):
        self.fft_points += result.size

    def _keep_trajectory(self, args, result):
        self.evolve_results.append(result)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        self._wrapper_ids.add(id(value))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        self.names = []
        self._wrapper_ids = set()
        wrapped = {}  # id(original) -> wrapper
        fft_counters = {"rfft": self._count_rfft, "irfft": self._count_irfft}
        for name, counter in fft_counters.items():
            fn = getattr(np.fft, name)
            wrapper = self._wrap(fn, "spectral", name, counter)
            wrapped[id(fn)] = wrapper
            self._patch(np.fft, name, wrapper)
        flow_evolve = importlib.import_module("dcl.flow").evolve
        modules = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dcl.{layer}")
            modules[layer] = module
            for attr, obj in list(vars(module).items()):
                own = getattr(obj, "__module__", None) == module.__name__
                if attr.startswith("_") or not own:
                    continue
                if inspect.isfunction(obj):
                    after = self._keep_trajectory if obj is flow_evolve else None
                    wrapper = self._wrap(obj, layer, attr, after)
                    wrapped[id(obj)] = wrapper
                    self._patch(module, attr, wrapper)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, module.__name__, wrapped)
        # rebind names imported with ``from ... import`` where they are used
        for module in [importlib.import_module("dcl"),
                       importlib.import_module("dcl.verify"),
                       *modules.values()]:
            for attr, obj in list(vars(module).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None and obj is not wrapper:
                    self._patch(module, attr, wrapper)

    def _wrap_class(self, cls, layer, module_name, wrapped):
        for klass in cls.__mro__:
            if klass.__module__ != module_name:
                continue
            for attr, obj in list(vars(klass).items()):
                public = not attr.startswith("_") or attr in EXTRA_METHODS
                if (not public or not inspect.isfunction(obj)
                        or id(obj) in self._wrapper_ids):
                    continue
                wrapper = self._wrap(obj, layer, f"{klass.__name__}.{attr}")
                wrapped[id(obj)] = wrapper
                self._patch(klass, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def write_spans(path, names, spans):
    """Write spans as gzipped CSV: index, name, start_ns, end_ns, parent."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("index,name,start_ns,end_ns,parent\n")
        for index, (name_id, start, end, parent) in enumerate(spans):
            handle.write(f"{index},{names[name_id]},{start},{end},{parent}\n")


def summarize(tracer):
    """Counts per name and self seconds per layer of the recorded spans."""
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    counts = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    total_ns = {}
    for index, (name_id, start, end, parent) in enumerate(spans):
        name = tracer.names[name_id]
        counts[name] = counts.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + (end - start)
        self_ns[name.partition(":")[0]] += end - start - child_ns[index]
    picard = sum(sum(t.picard_iterations) for t in tracer.evolve_results)
    return {
        "counts": counts,
        "total_s": {k: v * 1e-9 for k, v in total_ns.items()},
        "self_s": {k: v * 1e-9 for k, v in self_ns.items()},
        "fft_points": tracer.fft_points,
        "picard_iterations": picard,
        "spans": len(spans),
    }
