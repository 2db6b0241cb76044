"""The solver layer's memo caches and their registry.

Instrumentation — counters, timers, cache hit-rate reports — lives in
:mod:`repro.obs`; this package only owns the caches it reports on.
"""

from repro.perf.memo import (
    BoundedMemo,
    bounded_memo,
    clear_caches,
    register_cache,
    registered_caches,
    resize_registered,
)

__all__ = [
    "BoundedMemo",
    "bounded_memo",
    "clear_caches",
    "register_cache",
    "registered_caches",
    "resize_registered",
]
