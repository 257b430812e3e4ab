"""Run-time span tracing of replicalc's layers, from outside the package.

The tracer replaces, in each replicalc module's namespace, every function
binding that the module imports from another replicalc module (for example
``posterior.likelihood_curve`` or ``likelihood._binomial_log_pmf``) with a
wrapper that records a span.  The package namespace is treated the same
way, so the benchmark's own calls through ``replicalc.<name>`` become the
entry spans.  A few same-module helpers whose call counts are metrics are
wrapped too, and ``Curve`` / ``ParameterGrid`` construction is traced
through their ``__post_init__``.  No source file is modified, and
``remove()`` puts every original object back.

A span is attributed to the layer (module) that defines the called
function.  A layer's self time is the time of its spans minus the time of
their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from collections import defaultdict

import numpy as np

LAYERS = (
    "grid_model",
    "special",
    "likelihood",
    "posterior",
    "combine",
    "replication",
    "inference_compare",
    "simulate",
    "figures",
    "cli",
)

# Same-module helpers: called without crossing a module boundary, but their
# call counts or times are per-layer metrics.
OWN_HELPERS = {
    ("combine", "multiply_normalize"),
    ("simulate", "stream_uniforms"),
    ("cli", "run"),
}

TRACED_CLASSES = ("Curve", "ParameterGrid")


def _logpmf_evals(args, kwargs):
    """Elements evaluated by special._binomial_log_pmf(x, n, p)."""
    return int(np.broadcast(np.asarray(args[0]), np.asarray(args[2])).size)


def _curve_key(args, kwargs):
    """The (observation, grid) pair a likelihood curve is built for."""
    obs, grid = args[0], args[1]
    return (int(obs.successes), int(obs.trials), int(grid.points))


def _uniform_count(args, kwargs):
    """Doubles drawn by simulate.stream_uniforms(seed, stream_id, count)."""
    return int(args[2]) if len(args) > 2 else int(kwargs["count"])


MEASURES = {
    "special._binomial_log_pmf": _logpmf_evals,
    "likelihood.likelihood_curve": _curve_key,
    "simulate.stream_uniforms": _uniform_count,
}


class Span:
    __slots__ = ("op", "name", "layer", "caller", "parent", "start", "end", "extra")

    def __init__(self, op, name, layer, caller, parent, extra):
        self.op = op
        self.name = name
        self.layer = layer
        self.caller = caller
        self.parent = parent
        self.extra = extra
        self.start = self.end = 0

    def as_dict(self) -> dict:
        return {
            "op": self.op,
            "name": self.name,
            "layer": self.layer,
            "caller": self.caller,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "extra": self.extra,
        }


class Tracer:
    """Records spans in memory while installed; ``op(i)`` scopes one op."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS
        ]
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for module in self.modules:
                owner = module.__name__.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if not isinstance(value, types.FunctionType):
                        continue
                    layer = value.__module__.rpartition(".")[2]
                    if layer not in LAYERS or not value.__module__.startswith("replicalc."):
                        continue
                    if module is not self.package and value.__module__ == module.__name__:
                        if (owner, attr) not in OWN_HELPERS:
                            continue
                    self._patch(module, attr, self._wrap(value, layer, owner))
            grid_model = self.modules[1 + LAYERS.index("grid_model")]
            for cls_name in TRACED_CLASSES:
                cls = getattr(grid_model, cls_name)
                self._patch(cls, "__post_init__",
                            self._wrap(cls.__post_init__, "grid_model", "grid_model", cls_name))
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, func, layer, caller, label=None):
        name = f"{layer}.{label or func.__name__}"
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer._op is None:  # outside an op, e.g. in the output checks
                return func(*args, **kwargs)
            extra = measure(args, kwargs) if measure is not None else None
            span = tracer._open(name, layer, caller, extra)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    # -- recording --------------------------------------------------------

    def _open(self, name, layer, caller, extra) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self._op, name, layer, caller, parent, extra)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Scope one benchmark op: its spans share ``op_id`` under a root span."""
        self._op = op_id
        span = self._open("bench.op", "bench", "bench", None)
        try:
            yield
        finally:
            self._close(span)
            self._op = None


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-layer metrics from one traced pass over ``n_ops`` ops.

    Times and counts are means per op unless the name says otherwise
    (``multiplies_per_pool`` per ``pool_studies`` call, ``outcome_pmf_calls``
    per ``simulate_calibration`` call, ``boundary_pmf_calls`` per
    ``significance_boundary`` call, ``ns_per_eval`` per evaluated element).
    """
    child_ns = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        self_ns[span.layer] += duration - child_ns[index]
        calls[span.name] += 1
        total_ns[span.name] += duration

    evals = sum(s.extra for s in spans if s.name == "special._binomial_log_pmf")
    drawn = sum(s.extra for s in spans if s.name == "simulate.stream_uniforms")
    curve_keys = defaultdict(set)
    for span in spans:
        if span.name == "likelihood.likelihood_curve":
            curve_keys[span.op].add(span.extra)
    distinct = sum(len(keys) for keys in curve_keys.values())
    binomial_curves = calls["likelihood.likelihood_curve"]

    def per_call(count, denominator):
        return count / denominator if denominator else 0.0

    pool_multiplies = sum(
        1 for i, s in enumerate(spans)
        if s.name == "combine.multiply_normalize" and _has_ancestor(spans, i, "combine.pool_studies")
    )
    calibration_pmfs = sum(
        1 for i, s in enumerate(spans)
        if s.name == "likelihood.binomial_outcome_pmf" and s.caller == "simulate"
        and _has_ancestor(spans, i, "simulate.simulate_calibration")
    )
    boundary_pmfs = sum(
        1 for i, s in enumerate(spans)
        if s.name == "likelihood.binomial_outcome_pmf" and s.caller == "simulate"
        and _has_ancestor(spans, i, "simulate.significance_boundary")
    )
    ms = 1e-6 / n_ops
    return {
        "special.self_ms": self_ns["special"] * ms,
        "special.logpmf_evals": evals / n_ops,
        "special.ns_per_eval": per_call(total_ns["special._binomial_log_pmf"], evals),
        "likelihood.self_ms": self_ns["likelihood"] * ms,
        "likelihood.curves": (binomial_curves + calls["likelihood.gaussian_likelihood_curve"]) / n_ops,
        "likelihood.outcome_pmf_calls": calls["likelihood.binomial_outcome_pmf"] / n_ops,
        "likelihood.distinct_curve_ratio": distinct / binomial_curves if binomial_curves else 1.0,
        "grid_model.self_ms": self_ns["grid_model"] * ms,
        "grid_model.curves_built": calls["grid_model.Curve"] / n_ops,
        "posterior.self_ms": self_ns["posterior"] * ms,
        "posterior.calls": sum(1 for s in spans if s.layer == "posterior") / n_ops,
        "inference_compare.self_ms": self_ns["inference_compare"] * ms,
        "replication.self_ms": self_ns["replication"] * ms,
        "combine.self_ms": self_ns["combine"] * ms,
        "combine.multiplies_per_pool": per_call(pool_multiplies, calls["combine.pool_studies"]),
        "combine.parse_ms": (total_ns["combine.parse_studies"] + total_ns["combine.load_studies"]) * ms,
        "simulate.self_ms": self_ns["simulate"] * ms,
        "simulate.uniforms_ms": total_ns["simulate.stream_uniforms"] * ms,
        "simulate.uniforms_drawn": drawn / n_ops,
        "simulate.outcome_pmf_calls": per_call(calibration_pmfs, calls["simulate.simulate_calibration"]),
        "simulate.boundary_pmf_calls": per_call(boundary_pmfs, calls["simulate.significance_boundary"]),
        "cli.self_ms": self_ns["cli"] * ms,
        "figures.self_ms": self_ns["figures"] * ms,
    }
