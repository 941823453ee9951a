"""Span tracing around the public functions of each orbitbell layer.

The tracer lives in the benchmark, not in the package: it replaces every
function listed in a layer module's ``__all__`` with a wrapper that
records one span per call, in every ``orbitbell.*`` namespace that binds
the function, so calls between layers and within a layer are both seen.
Spans are ``[name, start, end, parent]`` lists kept in memory; self time
is computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable

LAYERS = ("cli", "certificate", "games", "bounds", "orbit", "linalg", "verify")

# Per-function metrics the benchmark reports. A function missing from
# the package reports 0 calls and 0 s rather than failing the run.
SELF_TIME_TARGETS = (
    "linalg.hermitian_eigs",
    "bounds.classical_bound",
    "bounds.quantum_bound_analytic",
    "bounds.accumulate_A",
    "orbit.orbit",
    "games.joint_distribution",
    "certificate.certificate_json",
)
CALL_COUNT_TARGETS = (
    "orbit.orbit",
    "orbit.root_unitary",
    "bounds.quantum_bound_numeric",
    "bounds.quantum_bound_analytic",
    "linalg.hermitian_eigs",
)

Span = list  # [name: str, start: float, end: float, parent: int]


class Tracer:
    """Records nested spans for calls into the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Callable]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        # import_module, not attribute access: ``orbitbell.orbit`` is
        # rebound to the function of that name by the package.
        modules = {layer: importlib.import_module(f"orbitbell.{layer}") for layer in LAYERS}
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "orbitbell" or key.startswith("orbitbell.")
        ]
        for layer, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._originals.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._originals):
            setattr(ns, key, fn)
        self._originals.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def summarize(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Map each span name to (calls, self seconds).

    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child_time[i])
    return out


def layer_metrics(summary: dict[str, tuple[int, float]]) -> dict[str, float]:
    """Per-layer and per-target calls and self time for one pass."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = sum((s for _, s in rows), 0.0)
        metrics[f"{layer}.calls"] = sum(c for c, _ in rows)
    for name in SELF_TIME_TARGETS:
        metrics[f"{name}.self_s"] = summary.get(name, (0, 0.0))[1]
    for name in CALL_COUNT_TARGETS:
        metrics[f"{name}.calls"] = summary.get(name, (0, 0.0))[0]
    return metrics
