"""Span tracer that wraps statediv's public functions from the outside.

Nothing here edits the package source: while a ``Tracer`` is installed, each
target function is replaced, in every ``statediv`` module namespace that
binds it, by a wrapper that records a span (name, start, end, parent span,
op id).  ``uninstall`` puts the originals back.  A target that no longer
exists in the package is reported as absent instead of failing the run, so a
later change that deletes a helper does not break the benchmark.

Scalar generator evaluations (``GeneratorFunction.__call__`` and ``slope``)
and the rank-one Jensen closed form inside the bisections run tens of
thousands of times per op, so they are counted and timed but record no span;
their time is still subtracted from the self time of the enclosing span.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, metric prefix).  Attribute paths with a dot name a
# method on a class.
SPAN_TARGETS = (
    ("hermitian", "cluster_overlaps", "hermitian.cluster_overlaps"),
    ("hermitian", "decompose", "hermitian.decompose"),
    ("hermitian", "apply_function", "hermitian.apply_function"),
    ("hermitian", "DensityState.from_matrix", "hermitian.from_matrix"),
    ("bregman", "bregman", "bregman.bregman"),
    ("bregman", "bregman_trace_form", "bregman.bregman_trace_form"),
    ("bregman", "bregman_rank_one_pair", "bregman.bregman_rank_one_pair"),
    ("jensen", "jensen", "jensen.jensen"),
    ("jensen", "midpoint_state", "jensen.midpoint_state"),
    ("preserver", "probe_transitions_via_divergence", "preserver.probe_transitions_via_divergence"),
    ("preserver", "transition_from_jensen", "preserver.transition_from_jensen"),
    ("preserver", "max_divergence_functional", "preserver.max_divergence_functional"),
    ("preserver", "recover_rank_two_spectrum", "preserver.recover_rank_two_spectrum"),
    ("preserver", "wigner_reconstruct", "preserver.wigner_reconstruct"),
    ("preserver", "PreserverOracle.__call__", "preserver.oracle"),
    ("preserver", "verify_preserver", "preserver.verify_preserver"),
    ("sampling", "random_state", "sampling.random_state"),
    ("sampling", "haar_unitary", "sampling.haar_unitary"),
    ("files", "read_state", "files.read_state"),
    ("files", "write_state", "files.write_state"),
    ("suites", "run_suite", "suites.run_suite"),
)
# (module, attribute path, counter name, time bucket)
COUNTED_TARGETS = (
    ("generators", "GeneratorFunction.__call__", "generators.scalar_evals", "generators.scalar"),
    ("generators", "GeneratorFunction.slope", "generators.scalar_evals", "generators.scalar"),
    ("jensen", "jensen_rank_one", "jensen.jensen_rank_one.calls", "jensen.jensen_rank_one"),
)
# Divergence evaluations that count towards preserver.divergence_evals_per_unique_pair.
DIVERGENCE_SPANS = ("bregman.bregman", "jensen.jensen", "bregman.bregman_rank_one_pair")
PROBE_SPAN = "preserver.probe_transitions_via_divergence"


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _after_call(tracer: "Tracer", name: str, args: tuple, result) -> None:
    """Counters recorded at the same boundary as the span."""
    if name == "bregman.bregman" and isinstance(result, float) and math.isinf(result):
        tracer.counters["bregman.bregman.inf"] += 1
    elif name in ("files.read_state", "files.write_state") and args:
        tracer.counters[name + ".bytes"] += _file_size(args[0])
    elif name == PROBE_SPAN and len(args) > 1:
        n = len(args[1])
        tracer.counters["preserver.unique_pairs"] += n * (n - 1) // 2


class Tracer:
    """Keeps spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, op id, scalar seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.counted_s: Counter = Counter()
        self._counted_depth = 0
        self.op_id = -1
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0.0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    # -- installing wrappers -------------------------------------------------
    def install(self) -> None:
        for module, path, name in SPAN_TARGETS:
            self._patch(module, path, lambda fn, name=name: self._span_wrapper(fn, name), name)
        for module, path, counter, bucket in COUNTED_TARGETS:
            self._patch(
                module,
                path,
                lambda fn, counter=counter, bucket=bucket: self._counted_wrapper(fn, counter, bucket),
                counter,
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, make_wrapper, name: str) -> None:
        try:
            mod = importlib.import_module("statediv." + module)
        except ImportError:
            mod = None
        parts = path.split(".")
        owner = mod
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
        attr = parts[-1]
        if owner is None or attr not in vars(owner):
            if name not in self.absent:
                self.absent.append(name)
            return
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(make_wrapper(raw.__func__))
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        wrapper = make_wrapper(raw)
        if len(parts) > 1:
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapper)
            return
        # A module-level function is rebound wherever the package imported it.
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "statediv" or mod_name.startswith("statediv.")):
                continue
            for key, value in list(vars(other).items()):
                if value is raw:
                    self._patches.append((other, key, raw))
                    setattr(other, key, wrapper)

    def _span_wrapper(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            _after_call(tracer, name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_wrapper(self, fn, counter: str, bucket: str):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            tracer._counted_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._counted_depth -= 1
                tracer.counted_s[bucket] += elapsed
                tracer.counters[counter] += 1
                # Only the outermost counted call is charged to the enclosing span.
                if tracer._counted_depth == 0 and tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries -----------------------------------------------------------
    def self_times(self, first_span: int = 0) -> dict[str, float]:
        """Per span name: total duration minus child spans and scalar calls."""
        child = defaultdict(float)
        for span in self.spans[first_span:]:
            if span[3] >= first_span:
                child[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for offset, span in enumerate(self.spans[first_span:]):
            index = first_span + offset
            out[span[0]] += span[2] - span[1] - child[index] - span[5]
        return dict(out)

    def call_counts(self, first_span: int = 0) -> Counter:
        return Counter(span[0] for span in self.spans[first_span:])

    def divergence_evals_in_probes(self, first_span: int = 0) -> int:
        count = 0
        for span in self.spans[first_span:]:
            if span[0] not in DIVERGENCE_SPANS:
                continue
            parent = span[3]
            while parent >= 0:
                if self.spans[parent][0] == PROBE_SPAN:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path: str) -> None:
        """Write every span as a JSON line [id, name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index, *span[:5]]))
                handle.write("\n")
