"""Observability: metrics registries and experiments.

Layering contract: this package is a **dependency leaf** for its eagerly
imported module — :mod:`repro.obs.metrics` imports nothing from the rest
of ``repro`` at module level, so routing kernels and every serving layer
can import it without cycles.

:mod:`repro.obs.experiment` (the ``repro-experiment`` harness) sits on
*top* of ``repro.serving`` and is therefore deliberately **not**
imported here; reach it explicitly (``from repro.obs import experiment``
or the console entry point).
"""

from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    make_registry,
    merge_exports,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "make_registry",
    "merge_exports",
]
