"""Bounded, eviction-counting memoization for the solver layer, and the
registry of memo caches the cache reports and metrics read.

``functools.lru_cache`` served the solver caches well for one-shot CLI
runs, but it has two problems over a *server lifetime*:

* its entries hold **strong references to the interned key nodes**, so
  the weak hash-cons pools of :mod:`repro.core.types` and
  :mod:`repro.core.constraints` can never reclaim a node once any solver
  cache has seen it — across millions of served programs the pools grow
  without bound, bounded only by the product of every cache's maxsize;
* its evictions are **invisible**: ``cache_info()`` exposes hits and
  misses but not how many entries were displaced, so a production cache
  thrashing at its bound looks identical to one comfortably sized.

:class:`BoundedMemo` is a drop-in replacement with the same observable
surface (``cache_info()``, ``cache_clear()``, registration with
:func:`register_cache`) plus:

* an explicit, *runtime-resizable* LRU bound (:meth:`BoundedMemo.resize`
  — the service sizes the solver caches to its memory budget at boot);
* a monotonic ``evictions`` counter, reported as a delta by
  :class:`repro.obs.CacheReport` and counted under ``cache.evict.<name>``
  while a stats window is open.

Every registered cache is keyed on hash-consed immutable nodes (see
:mod:`repro.core.types` and :mod:`repro.core.constraints`), so entries
can never go stale — the only eviction is the LRU bound.

Thread-safety follows ``lru_cache``'s discipline: lookups and inserts
take a short lock, the wrapped function runs **outside** the lock (so
recursive memoized functions like ``locality`` cannot deadlock), and a
value computed twice under a race is inserted once — harmless, because
every memoized function here is pure over immutable interned nodes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro import obs

#: Registry of memoized functions: name -> cached callable.
_REGISTERED_CACHES: Dict[str, Callable[..., Any]] = {}


def register_cache(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Register a memoized function (anything with ``cache_info()``,
    e.g. ``lru_cache`` or :class:`BoundedMemo`) for cache reporting.

    Returns ``fn`` so it can be used as a decoration step.
    """
    if not hasattr(fn, "cache_info"):
        raise TypeError(f"cache {name!r} has no cache_info(); wrap with lru_cache")
    _REGISTERED_CACHES[name] = fn
    return fn


def registered_caches() -> Dict[str, Callable[..., Any]]:
    """A snapshot of the cache registry (name -> cached function)."""
    return dict(_REGISTERED_CACHES)


def clear_caches() -> None:
    """Empty every registered memoization cache (cold-start state).

    Only benchmarks and tests should need this; correctness never does,
    because all cached functions are pure over immutable interned nodes.
    """
    for fn in _REGISTERED_CACHES.values():
        fn.cache_clear()


class CacheInfo(NamedTuple):
    """Shape-compatible with ``functools.lru_cache``'s ``cache_info()``."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


class BoundedMemo:
    """A bounded LRU memoizer over positional, hashable arguments."""

    __slots__ = (
        "__wrapped__",
        "__name__",
        "name",
        "_maxsize",
        "_data",
        "_lock",
        "_hits",
        "_misses",
        "evictions",
    )

    def __init__(
        self, fn: Callable[..., Any], maxsize: int, name: Optional[str] = None
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"BoundedMemo needs maxsize >= 1, got {maxsize}")
        self.__wrapped__ = fn
        self.__name__ = getattr(fn, "__name__", "memoized")
        self.name = name or self.__name__
        self._maxsize = maxsize
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self.evictions = 0

    @property
    def __doc__(self):  # pragma: no cover - introspection nicety
        return self.__wrapped__.__doc__

    def __call__(self, *args: Any) -> Any:
        key = args
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
            else:
                self._data.move_to_end(key)
                self._hits += 1
                return value
        value = self.__wrapped__(*args)  # outside the lock: recursion-safe
        with self._lock:
            if key not in self._data:
                self._data[key] = value
                self._evict_locked()
        return value

    def _evict_locked(self) -> None:
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)
            self.evictions += 1
            obs.count(f"cache.evict.{self.name}")

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._misses, self._maxsize, len(self._data))

    def cache_clear(self) -> None:
        """Drop every entry (counters, including evictions, are kept)."""
        with self._lock:
            self._data.clear()

    def resize(self, maxsize: int) -> None:
        """Change the bound; a shrink evicts least-recently-used entries."""
        if maxsize < 1:
            raise ValueError(f"BoundedMemo needs maxsize >= 1, got {maxsize}")
        with self._lock:
            self._maxsize = maxsize
            self._evict_locked()

    def __repr__(self) -> str:
        info = self.cache_info()
        return (
            f"<BoundedMemo {self.name} size={info.currsize}/{info.maxsize} "
            f"hits={info.hits} misses={info.misses} evictions={self.evictions}>"
        )


def bounded_memo(
    maxsize: int, name: Optional[str] = None
) -> Callable[[Callable[..., Any]], BoundedMemo]:
    """Decorator form: ``@bounded_memo(4096, name="constraints.solve")``."""

    def wrap(fn: Callable[..., Any]) -> BoundedMemo:
        return BoundedMemo(fn, maxsize, name)

    return wrap


def resize_registered(maxsize: int, prefix: str = "") -> int:
    """Resize every registered :class:`BoundedMemo` whose name starts
    with ``prefix`` (all of them by default).  Returns how many caches
    were resized.  The service calls this at boot to fit the solver
    caches to its configured memory budget."""
    resized = 0
    for name, fn in _REGISTERED_CACHES.items():
        if isinstance(fn, BoundedMemo) and name.startswith(prefix):
            fn.resize(maxsize)
            resized += 1
    return resized
