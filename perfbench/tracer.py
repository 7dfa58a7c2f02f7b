"""Outside-in layer trace for penseq.

The tracer wraps the public functions of each penseq layer at every name
they are bound to (a function imported into three modules is patched in all
three), records one span per call in memory, and restores every binding on
``uninstall``.  Nothing under ``src/`` is modified.

A span is a name, a start, an end and a parent id; its id is its row in
``Tracer.spans``.  Calls run on one thread, so spans nest and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

# (span name, defining module, attribute path).  Names follow the per-layer
# metric names in BENCHMARK.json.
TARGETS = (
    ("model.seq_init", "penseq.model", "MultiresSequence.__post_init__"),
    ("model.add", "penseq.model", "MultiresSequence.add"),
    ("penalty.pen_vector", "penseq.penalty", "pen_vector"),
    ("penalty.nu_schedule", "penseq.penalty", "nu_schedule"),
    ("penalty.m_prime", "penseq.penalty", "m_prime"),
    ("estimator.select_k", "penseq.estimator", "select_k"),
    ("estimator.fit_multiscale", "penseq.estimator", "fit_multiscale"),
    ("estimator.per_level_sse", "penseq.estimator", "per_level_sse"),
    ("estimator.subset_oracle", "penseq.estimator", "subset_oracle"),
    ("simulate.mc_risk_for_truth", "penseq.simulate", "mc_risk_for_truth"),
    ("simulate.make_signal", "penseq.simulate", "make_signal"),
    ("simulate.oracle_inequality_check", "penseq.simulate", "oracle_inequality_check"),
    ("rates.j_star", "penseq.rates", "j_star"),
    ("rates.j_plus", "penseq.rates", "j_plus"),
    ("rates.rate_exponent", "penseq.rates", "rate_exponent"),
    ("rates.rate_control", "penseq.rates", "rate_control"),
    ("cli.main", "penseq.cli", "main"),
)

# Attribute set on every wrapper, so a test can prove none is left behind.
MARKER = "__perfbench_wrapped__"


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def bindings(module: str, path: str) -> list:
    """Every (owner, attribute) through which callers reach the target.

    A method has one binding, on its class.  A module-level function is
    found in every loaded penseq module that holds the same object.
    """
    owner, attr, fn = _resolve(module, path)
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, mod in sorted(sys.modules.items()):
        if mod is None or not (name == "penseq" or name.startswith("penseq.")):
            continue
        for key, value in vars(mod).items():
            if value is fn:
                found.append((mod, key))
    return found


class Spans:
    """Span table held in parallel arrays.

    Rows are not Python tuples, so hundreds of thousands of spans add no
    objects for the garbage collector to scan while the workload runs.
    """

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")

    def __len__(self) -> int:
        return len(self.names)

    def append(self, name: str, start: float, end: float, parent: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def rows(self, first: int = 0):
        """(id, name, start, end, parent) for every span from first on."""
        return zip(range(first, len(self)), self.names[first:], self.starts[first:],
                   self.ends[first:], self.parents[first:])


@dataclass
class Counters:
    """Per-invocation counts gathered at the layer boundaries."""

    pen_args: set = field(default_factory=set)
    select_k_coefs: int = 0
    select_k_kept: int = 0
    subsets: int = 0
    normals: int = 0


class Tracer:
    """Installs span-recording wrappers and restores the originals."""

    def __init__(self):
        self.spans = Spans()
        self.counters = Counters()
        self._stack = []
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for name, module, path in TARGETS:
                _, _, fn = _resolve(module, path)
                wrapper = self._wrap(name, fn, self._hook_for(name, fn))
                for owner, attr in bindings(module, path):
                    self._saved.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
        except BaseException:
            # a missing target must not leave the others patched
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        starts, ends = spans.starts, spans.ends

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = spans.append(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(sid)
            starts[sid] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    def _hook_for(self, name, fn):
        # Hooks read self.counters at call time, so reset() takes effect.
        if name == "penalty.pen_vector":
            sig = inspect.signature(fn)

            def hook(args, kwargs, result):
                if kwargs or len(args) != len(sig.parameters):
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    args = tuple(bound.arguments.values())
                self.counters.pen_args.add(args)
            return hook
        if name == "estimator.select_k":
            def hook(args, kwargs, result):
                self.counters.select_k_coefs += result.estimate.size
                self.counters.select_k_kept += result.k_hat
            return hook
        if name == "estimator.subset_oracle":
            sig = inspect.signature(fn)

            def hook(args, kwargs, result):
                y = sig.bind(*args, **kwargs).arguments["y"]
                self.counters.subsets += 2 ** len(y)
            return hook
        if name == "simulate.mc_risk_for_truth":
            sig = inspect.signature(fn)

            def hook(args, kwargs, result):
                bound = sig.bind(*args, **kwargs).arguments
                self.counters.normals += int(bound["replicates"]) * bound["truth"].size
            return hook
        return None

    def reset(self) -> int:
        """Start a new invocation: fresh counters; returns the first span id."""
        self.counters = Counters()
        return len(self.spans)


def self_times(spans: Spans, first: int = 0) -> dict:
    """Per-name [calls, self seconds, total seconds] over spans first.. on.

    Total seconds of a name count only spans whose parent has another name,
    so a function that calls itself is not counted twice.
    """
    child = defaultdict(float)
    for _, _, start, end, parent in spans.rows(first):
        if parent >= first:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, parent in spans.rows(first):
        dur = end - start
        rec = out[name]
        rec[0] += 1
        rec[1] += dur - child[sid]
        if parent < first or spans.names[parent] != name:
            rec[2] += dur
    return dict(out)


def group_total(spans: Spans, prefix: str, first: int = 0) -> float:
    """Seconds spent under spans whose name starts with prefix, counting
    each outermost such span once (calls within the group nest)."""
    total = 0.0
    for _, name, start, end, parent in spans.rows(first):
        if name.startswith(prefix) and not (
                parent >= first and spans.names[parent].startswith(prefix)):
            total += end - start
    return total
