"""Layer spans and counters recorded from outside the program.

A traced run wraps each layer's public entry points (see :func:`install`)
in a shim that records a span -- layer, thread, start, end, and the span
that enclosed it on the same thread -- and reads the counters the call
already returns.  Nothing in ``src/`` changes; the layer names are those of
ROADMAP item 4, so spans recorded inside the program later can keep them.

A layer's self time is its spans' durations minus the part their child
spans cover.  Work the service hands to other threads (its event loop and
solver threads) is charged by the aggregate rule of :func:`self_times`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence

#: every layer, in pipeline order; ``http`` is derived from client latency
LAYERS = (
    "parse",
    "encode",
    "base.cold",
    "base.snapshot",
    "base.pickle",
    "delta",
    "complete",
    "search",
    "extract",
    "explain",
    "cache.read",
    "cache.write",
    "session",
    "service",
    "http",
)

#: the layer whose spans stand for whole requests on the server
REQUEST_LAYER = "service"


class Tracer:
    """Thread-safe, in-memory recorder of spans and counters."""

    def __init__(self):
        #: ``[layer, thread, start, end, parent]``; ``parent`` indexes this list
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def traced(self, function: Callable, layer: str, after=None) -> Callable:
        """``function`` wrapped in a ``layer`` span.

        A call made while a span of the same layer family (the part of the
        name before the first dot) is open on this thread belongs to that
        span and records nothing: a subclass method calling its base, or a
        cache read that promotes a disk hit into memory.  ``after(tracer,
        result, args)`` reads counters off a completed call."""
        family = layer.split(".")[0]
        tracer = self

        @functools.wraps(function)
        def shim(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack and tracer.spans[stack[-1]][0].split(".")[0] == family:
                return function(*args, **kwargs)
            span = [layer, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, result, args)
            return result

        return shim

    def patch(self, owner, name: str, layer: str, after=None) -> None:
        """Replace ``owner.name`` (a module function or a class's own method)."""
        setattr(owner, name, self.traced(vars(owner)[name], layer, after))

    def dump(self) -> Dict[str, object]:
        with self._lock:
            return {"spans": [list(span) for span in self.spans], "counts": dict(self.counts)}


def self_times(spans: Sequence[Sequence], request_layer: str = REQUEST_LAYER) -> Dict[str, float]:
    """Self time per layer, in seconds.

    A span's self time is its duration minus the durations of its children
    (the spans it enclosed on its own thread).  When spans of
    ``request_layer`` exist, root spans on every *other* thread ran on the
    requests' behalf -- the service hands each solve to its event loop and
    solver threads while the request thread waits -- so their whole duration
    is subtracted from the request layer in aggregate, and every second is
    charged to exactly one layer."""
    covered = [0.0] * len(spans)
    for _layer, _thread, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    request_threads = {span[1] for span in spans if span[0] == request_layer}
    totals: Dict[str, float] = defaultdict(float)
    for index, (layer, thread, start, end, parent) in enumerate(spans):
        totals[layer] += end - start - covered[index]
        if request_threads and parent is None and thread not in request_threads:
            totals[request_layer] -= end - start
    return dict(totals)


def per_layer(
    trace: Dict[str, object],
    session: Dict[str, int],
    denominator: float,
    http_s: Optional[float] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``session`` holds the session counters the program reports
    (``base_cache_hits``, ``delta_groundings``, ``rejected_overload``);
    ``denominator`` is what the layers must account for (batch wall time, or
    summed client latency); ``http_s`` is client latency not spent inside
    ``ConcretizationService.concretize``."""
    spans = trace["spans"]
    counts = Counter(trace["counts"])
    selfs = self_times(spans)
    if http_s is not None:
        selfs["http"] = http_s
    calls = Counter(span[0] for span in spans)
    metrics: Dict[str, float] = {f"{layer}.self_s": selfs.get(layer, 0.0) for layer in LAYERS}
    solves = session.get("delta_groundings", 0)
    metrics.update(
        {
            "parse.calls": calls["parse"],
            "encode.facts": counts["encode.facts"],
            "base.cold.calls": calls["base.cold"],
            "base.cold.rules": counts["base.cold.rules"],
            "base.cold.atoms": counts["base.cold.atoms"],
            "base.snapshot.calls": calls["base.snapshot"],
            "base.pickle.calls": calls["base.pickle"],
            "base.memory.hits": session.get("base_cache_hits", 0),
            "base.reuse_ratio": session.get("base_cache_hits", 0) / solves if solves else 0.0,
            "delta.calls": calls["delta"],
            "complete.variables": counts["complete.variables"],
            "complete.clauses": counts["complete.clauses"],
            "search.solve_calls": counts["search.solve_calls"],
            "search.propagations": counts["search.propagations"],
            "search.conflicts": counts["search.conflicts"],
            "search.decisions": counts["search.decisions"],
            "search.models": counts["search.models"],
            "search.models_per_call": counts["search.models"] / calls["search"]
            if calls["search"]
            else 0.0,
            "explain.calls": calls["explain"],
            "cache.read.calls": calls["cache.read"],
            "cache.read.hit_ratio": counts["cache.read.hits"] / calls["cache.read"]
            if calls["cache.read"]
            else 0.0,
            "cache.write.calls": calls["cache.write"],
            "cache.write.bytes": counts["cache.write.bytes"],
            "service.rejected": session.get("rejected_overload", 0),
            "trace.accounted_frac": sum(selfs.values()) / denominator,
        }
    )
    return metrics


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------


def _count_facts(tracer, facts, args):
    tracer.count("encode.facts", len(facts))


def _count_layer_facts(tracer, layers, args):
    tracer.count("encode.facts", sum(len(layer.facts) for layer in layers))


def _count_cold(tracer, result, args):
    ground = args[0].base_ground_program
    tracer.count("base.cold.rules", ground.num_rules)
    tracer.count("base.cold.atoms", ground.num_atoms)


def _count_extended(tracer, layered, args):
    before, after = args[0].base_ground_program, layered.base_ground_program
    tracer.count("base.cold.rules", after.num_rules - before.num_rules)
    tracer.count("base.cold.atoms", after.num_atoms - before.num_atoms)


def _count_completion(tracer, completed, args):
    tracer.count("complete.variables", completed.solver.num_vars)
    tracer.count("complete.clauses", len(completed.solver.clauses))


def _count_search(tracer, outcome, args):
    stats = args[0].completed.solver.stats
    tracer.count("search.solve_calls", stats.solve_calls)
    tracer.count("search.propagations", stats.propagations)
    tracer.count("search.conflicts", stats.conflicts)
    tracer.count("search.decisions", stats.decisions)
    tracer.count("search.models", outcome.models_found)


def _count_read(tracer, value, args):
    if value is not None:
        tracer.count("cache.read.hits")


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points in this process (call once)."""
    from repro.asp import control, optimization
    from repro.asp.snapshot import GroundSnapshot
    from repro.spack import spec_parser, store
    from repro.spack.concretize import concretizer, encoder, session
    from repro.spack.service import app

    for module in (spec_parser, session, concretizer, app):
        tracer.patch(module, "parse_spec", "parse")
    for name in ("encode_base", "encode_delta"):
        tracer.patch(encoder.ProblemEncoder, name, "encode", _count_facts)
    tracer.patch(encoder.ProblemEncoder, "encode_base_layers", "encode", _count_layer_facts)
    tracer.patch(control.PreparedProgram, "__init__", "base.cold", _count_cold)
    tracer.patch(control.PreparedProgram, "extend", "base.cold", _count_extended)
    tracer.patch(store.SnapshotStore, "load", "base.snapshot")
    tracer.patch(GroundSnapshot, "materialize", "base.snapshot")
    tracer.patch(store.PersistentGroundCache, "get", "base.pickle")
    tracer.patch(control.PreparedProgram, "fork", "delta")
    # control's own binding only: the explainer completes through its own
    # import, so that time stays with ``explain``
    tracer.patch(control, "complete", "complete", _count_completion)
    tracer.patch(optimization.Optimizer, "optimize", "search", _count_search)
    for module in (session, concretizer):
        tracer.patch(module, "result_from_solve", "extract")
        tracer.patch(module, "explain_unsat", "explain")
    for cls in (store.SolveCache, store.PersistentSolveCache):
        tracer.patch(cls, "get", "cache.read", _count_read)
        tracer.patch(cls, "put", "cache.write")
    for cls in (store.SnapshotStore, store.PersistentGroundCache):
        tracer.patch(cls, "put", "cache.write")
    tracer.patch(session.ConcretizationSession, "solve", "session")
    for name in ("concretize", "concretize_batch"):
        tracer.patch(app.ConcretizationService, name, "service")

    write = store._atomic_write_bytes

    def counted_write(path, payload):
        write(path, payload)
        tracer.count("cache.write.bytes", len(payload))

    store._atomic_write_bytes = counted_write
