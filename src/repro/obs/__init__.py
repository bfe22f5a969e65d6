"""``repro.obs`` -- zero-dependency observability for the checker.

The package is standard library only and imports nothing from the rest
of :mod:`repro`, so every layer (algorithms, numerics, mc, cli,
benchmarks) can depend on it without cycles.

Two module-level objects carry all state:

``REGISTRY``
    The process-wide :class:`~repro.obs.metrics.MetricsRegistry`.
    *Always on*: recording a counter is cheap enough that operational
    facts (``repro_deadline_missed_total``) are never silently lost,
    even with tracing disabled.

``OBS``
    The :class:`Observability` switchboard: an :attr:`enabled` flag,
    a :class:`~repro.obs.trace.Tracer`, a
    :class:`~repro.obs.convergence.ConvergenceRecorder` and a
    reference to ``REGISTRY``.  The flag gates everything *expensive*
    -- spans, per-iteration convergence samples, timing histograms,
    engine-stats publishing -- so the disabled path costs one
    attribute load at each instrumentation point.

Instrumented code uses the two helpers::

    from repro.obs import OBS, span

    with span("joint_vector", engine=self.name) as sp:
        ...
        sp.set(cache_hit=True)

:func:`span` returns a real tracer span when enabled and a shared
no-op context otherwise, so call sites stay branch-free.  Whole-run
capture (CLI ``--profile``, tests) uses :meth:`Observability.capture`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from .convergence import ConvergenceRecorder, SeriesRecord
from .metrics import (DEFAULT_BUCKETS, ENGINE_STAT_COUNTERS, Counter,
                      Gauge, Histogram, MetricsRegistry,
                      peak_rss_bytes, record_engine_stats)
from .recorder import FlightRecorder, ResourceSampler
from .remote import export_telemetry, merge_telemetry
from .trace import _CURRENT, Span, Tracer

__all__ = [
    "OBS", "REGISTRY", "Observability", "span",
    "Tracer", "Span", "MetricsRegistry", "Counter", "Gauge",
    "Histogram", "ConvergenceRecorder", "SeriesRecord",
    "DEFAULT_BUCKETS", "ENGINE_STAT_COUNTERS", "record_engine_stats",
    "peak_rss_bytes",
    "FlightRecorder", "ResourceSampler", "MetricsServer",
    "serve_metrics", "export_telemetry", "merge_telemetry",
]

#: Names served by :mod:`repro.obs.httpd`, which is loaded on first use:
#: it pulls in ``http.server`` and ``email``, which only
#: ``--metrics-port`` needs.
_HTTPD_NAMES = ("MetricsServer", "serve_metrics")


def __getattr__(name: str) -> Any:
    if name in _HTTPD_NAMES:
        from . import httpd
        return getattr(httpd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Process-wide metrics registry -- always on (see module docstring).
REGISTRY = MetricsRegistry()


class _NullSpan:
    """Inert stand-in handed out while observability is disabled."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Observability:
    """The switchboard: one flag, one tracer, one recorder, the registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        #: Master switch read (unlocked) on every hot path.
        self.enabled = False
        self.tracer = Tracer()
        self.convergence = ConvergenceRecorder()
        self.metrics = registry if registry is not None else REGISTRY
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop recorded spans and convergence series (metrics stay --
        the registry has its own :meth:`~MetricsRegistry.reset`)."""
        self.tracer.clear()
        self.convergence.clear()

    @contextmanager
    def capture(self, reset_metrics: bool = True) -> Iterator["Observability"]:
        """Enable observability for a block, starting from a clean slate.

        Used by the CLI ``--profile`` path and the tests: clears the
        tracer and recorder (and, by default, the metrics registry),
        flips :attr:`enabled` on, and restores the previous flag on
        exit -- the captured spans/metrics stay readable afterwards.
        Serialised by a lock so two captures cannot interleave.
        """
        with self._lock:
            previous = self.enabled
            self.reset()
            if reset_metrics:
                self.metrics.reset()
            self.enabled = True
            try:
                yield self
            finally:
                self.enabled = previous


#: The process-wide switchboard used by all instrumentation points.
OBS = Observability()


def span(name: str, parent: Any = _CURRENT, **attributes: Any) -> Any:
    """A tracer span when :attr:`OBS.enabled`, else a shared no-op.

    Call sites use this unconditionally -- the disabled path costs one
    flag check and returns a singleton whose ``__enter__``/``set`` are
    inert, keeping hot loops branch-free and allocation-free.
    """
    if OBS.enabled:
        return OBS.tracer.span(name, parent=parent, **attributes)
    return _NULL_SPAN
