"""Spans and counters recorded around calls into nash's modules.

``instrument`` wraps, in place and only while its context is open, the
module functions that carry each layer's work, plus a timing proxy around
the prior object handed to ``fit``.  Each span holds a name, start, end,
parent span and operation id; spans stay in memory until ``dump``.  Nothing
inside nash changes.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    size: int = 0  # bytes of the file a span read or wrote, where it has one


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, path: str | None = None):
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.op)
        stack.append(span.id)
        try:
            yield span
        finally:
            stack.pop()
            span.end = time.perf_counter()
            if path is not None and os.path.exists(path):
                span.size = os.path.getsize(path)
            with self._lock:
                self.spans.append(span)

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + 1

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans], "counts": self.counts}, fh)


class PriorProxy:
    """Forwards everything to the wrapped prior and times ``update``."""

    def __init__(self, prior, tracer: Tracer):
        self._prior = prior
        self._tracer = tracer

    def update(self, beta_bar, sigma02):
        with self._tracer.span("prior.update"):
            return self._prior.update(beta_bar, sigma02)

    def __getattr__(self, name):
        return getattr(self._prior, name)


# (module, attribute, span name, argument holding a file path).  A function is
# listed under every module that calls it by a name bound at import time.
SPANS = [
    ("nash.engine", "standardize", "data.standardize", None),
    ("nash.ash", "fit_weights_em", "ash.em", None),
    ("nash.ash", "mixture_posterior_stats", "ash.posterior", None),
    ("nash.nets", "mixture_posterior_stats", "ash.posterior", None),
    ("nash.nets", "train_softmax", "nets.train", None),
    ("nash.nets", "train_mdn", "nets.train", None),
    ("nash.nets", "mdn_posterior_stats", "nets.posterior", None),
    ("nash.fused", "fused_posterior_stats", "fused.posterior", None),
    ("nash.fused", "learn_scales", "fused.learn", None),
    ("nash.fused", "refine_scales", "fused.learn", None),
    ("nash.cli", "load_matrix_csv", "data.csv_parse", 0),
    ("nash.cli", "load_response_csv", "data.csv_parse", 0),
    ("nash.cli", "load_side_csv", "data.csv_parse", 0),
    ("nash.data", "load_matrix_csv", "data.csv_parse", 0),
    ("nash.cli", "save_model", "model_io.save", 1),
    ("nash.cli", "load_model", "model_io.load", 0),
    ("nash.cli", "read_pgm", "pgm.read", 0),
    ("nash.cli", "write_pgm", "pgm.write", 0),
    ("nash.simulate", "run_replicate", "simulate.replicate", None),
]
# (class, method, span name): Graph constructors
CLASS_SPANS = [
    ("nash.fused", "Graph", "__init__", "fused.graph_build"),
    ("nash.fused", "Graph", "chain", "fused.graph_build"),
    ("nash.fused", "Graph", "grid4", "fused.graph_build"),
    ("nash.fused", "Graph", "from_edges", "fused.graph_build"),
]
# calls that are counted, not timed: they are too frequent for a span each
COUNTS = [
    ("nash.engine", None, "sweep", "engine.sweeps"),
    ("nash.ash", None, "mixture_objective", "ash.em_iters"),
    ("nash.fused", None, "fused_log_marginal", "fused.learn_evals"),
    ("nash.nets", "Adam", "step", "nets.adam_steps"),
    ("nash.nets", "SoftmaxPriorNet", "objective", "nets.forward"),
    ("nash.nets", "SoftmaxPriorNet", "objective_and_gradients", "nets.forward"),
    ("nash.nets", "MdnPriorNet", "objective", "nets.forward"),
    ("nash.nets", "MdnPriorNet", "objective_and_gradients", "nets.forward"),
]
# every module through which engine.fit is called by a name bound at import time
FIT_CALLERS = ["nash", "nash.cli", "nash.simulate"]


def _wrap(func, tracer: Tracer, name: str, path_arg: int | None):
    def wrapper(*args, **kwargs):
        path = args[path_arg] if path_arg is not None and len(args) > path_arg else None
        with tracer.span(name, path):
            return func(*args, **kwargs)
    wrapper.__wrapped__ = func
    return wrapper


def _counted(func, tracer: Tracer, name: str):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return func(*args, **kwargs)
    wrapper.__wrapped__ = func
    return wrapper


def _traced_fit(func, tracer: Tracer):
    def fit(dataset, side_info, prior, config=None):
        with tracer.span("engine.fit"):
            return func(dataset, side_info, PriorProxy(prior, tracer), config)
    fit.__wrapped__ = func
    return fit


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap nash's layer entry points for the duration of the context."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value, original):
        saved.append((owner, attr, original))
        setattr(owner, attr, value)

    try:
        traced_fit = _traced_fit(importlib.import_module("nash.engine").fit, tracer)
        for mod in FIT_CALLERS:
            owner = importlib.import_module(mod)
            patch(owner, "fit", traced_fit, owner.fit)
        for mod, attr, name, path_arg in SPANS:
            owner = importlib.import_module(mod)
            original = getattr(owner, attr)
            patch(owner, attr, _wrap(original, tracer, name, path_arg), original)
        for mod, cls, attr, name in CLASS_SPANS:
            owner = getattr(importlib.import_module(mod), cls)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                value = classmethod(_wrap(original.__func__, tracer, name, None))
            else:
                value = _wrap(original, tracer, name, None)
            patch(owner, attr, value, original)
        for mod, cls, attr, name in COUNTS:
            owner = importlib.import_module(mod)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr) if cls is None else owner.__dict__[attr]
            patch(owner, attr, _counted(original, tracer, name), original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Layer metrics
# ---------------------------------------------------------------------------


def _outermost(spans: list[Span], name: str, exclude_under: str | None = None) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name (or of ``exclude_under``)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and parent.name not in (name, exclude_under):
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def _total(spans: list[Span]) -> float:
    return sum(s.end - s.start for s in spans)


def self_time(spans: list[Span], name: str) -> float:
    """Time inside spans called ``name`` not covered by their direct children."""
    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + (s.end - s.start)
    return sum((s.end - s.start) - children.get(s.id, 0.0) for s in spans if s.name == name)


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, float]:
    """Per-layer totals over the traced operations; times multiplied by ``scale``."""
    spans, counts = tracer.spans, tracer.counts

    def seconds(name, exclude_under=None):
        return _total(_outermost(spans, name, exclude_under)) * scale

    sweeps = counts.get("engine.sweeps", 0)
    engine_self = self_time(spans, "engine.fit") * scale
    adam_steps = counts.get("nets.adam_steps", 0)
    return {
        "engine.sweeps": sweeps,
        "engine.self_s": engine_self,
        "engine.self_ms_per_sweep": 1000.0 * engine_self / sweeps if sweeps else 0.0,
        "ash.em_s": seconds("ash.em"),
        "ash.em_iters": counts.get("ash.em_iters", 0),
        "ash.posterior_s": seconds("ash.posterior"),
        "nets.train_s": seconds("nets.train"),
        "nets.adam_steps": adam_steps,
        "nets.forward_per_step": counts.get("nets.forward", 0) / adam_steps if adam_steps else 0.0,
        "nets.posterior_s": seconds("nets.posterior"),
        "fused.graph_build_s": seconds("fused.graph_build"),
        "fused.posterior_s": seconds("fused.posterior", "fused.learn"),
        "fused.posterior_calls": len(_outermost(spans, "fused.posterior", "fused.learn")),
        "fused.learn_s": seconds("fused.learn"),
        "fused.learn_evals": counts.get("fused.learn_evals", 0),
        "data.standardize_s": seconds("data.standardize"),
        "data.csv_parse_s": seconds("data.csv_parse"),
        "data.csv_mb": sum(s.size for s in _outermost(spans, "data.csv_parse")) / 1e6,
        "model_io.save_s": seconds("model_io.save"),
        "model_io.load_s": seconds("model_io.load"),
        "model_io.kb": sum(s.size for s in _outermost(spans, "model_io.save")) / 1e3,
        "pgm.read_s": seconds("pgm.read"),
        "pgm.write_s": seconds("pgm.write"),
        "simulate.replicate_s": seconds("simulate.replicate"),
        "simulate.replicates": len(_outermost(spans, "simulate.replicate")),
    }
