"""A sharded in-process LRU for serialized service responses.

Keys are :func:`repro.core.digest.program_digest` hex strings, so two
requests for the same program under the same execution parameters map
to the same entry — and a hit returns the *serialized bytes* of the
original response, making cache replays byte-identical by construction.

Sharding bounds lock contention: a key's leading hex digits pick its
shard, each shard is an independently locked LRU, and concurrent
requests for different programs almost always hit different locks.  The
capacity bound is global but enforced per shard (``capacity / shards``
each), which keeps eviction O(1) and is within one entry per shard of
the exact global bound.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Generic, List, Optional, Tuple, TypeVar

from repro import obs
from repro.obs import metrics

V = TypeVar("V")


class _Shard(Generic[V]):
    __slots__ = ("data", "lock", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.data: "OrderedDict[str, V]" = OrderedDict()
        self.lock = threading.Lock()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class ShardedCache(Generic[V]):
    """A bounded, sharded, thread-safe LRU mapping digests to values."""

    def __init__(self, capacity: int = 1024, shards: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if shards < 1:
            raise ValueError(f"cache needs >= 1 shard, got {shards}")
        shards = min(shards, capacity)
        per_shard = max(1, (capacity + shards - 1) // shards)
        self._shards: List[_Shard[V]] = [_Shard(per_shard) for _ in range(shards)]

    def _shard(self, key: str) -> _Shard[V]:
        # Digests are uniform hex; the leading 8 digits are an adequate
        # shard selector and cheaper than hashing the whole string.
        try:
            index = int(key[:8], 16)
        except ValueError:
            index = hash(key)
        return self._shards[index % len(self._shards)]

    def get(self, key: str) -> Optional[V]:
        shard = self._shard(key)
        with shard.lock:
            try:
                value = shard.data[key]
            except KeyError:
                shard.misses += 1
                obs.count("service.cache.miss")
                if metrics.is_enabled():
                    metrics.CACHE_REQUESTS_TOTAL.inc(result="miss")
                return None
            shard.data.move_to_end(key)
            shard.hits += 1
            obs.count("service.cache.hit")
            if metrics.is_enabled():
                metrics.CACHE_REQUESTS_TOTAL.inc(result="hit")
            return value

    def put(self, key: str, value: V) -> None:
        shard = self._shard(key)
        with shard.lock:
            shard.data[key] = value
            shard.data.move_to_end(key)
            while len(shard.data) > shard.capacity:
                shard.data.popitem(last=False)
                shard.evictions += 1
                obs.count("service.cache.evict")
                if metrics.is_enabled():
                    metrics.CACHE_REQUESTS_TOTAL.inc(result="evict")

    def __contains__(self, key: str) -> bool:
        shard = self._shard(key)
        with shard.lock:
            return key in shard.data

    def __len__(self) -> int:
        return sum(len(shard.data) for shard in self._shards)

    def clear(self) -> None:
        for shard in self._shards:
            with shard.lock:
                shard.data.clear()

    def stats(self) -> Dict[str, int]:
        """Aggregate counters across shards (point-in-time, unlocked
        aggregation: each shard's numbers are individually consistent)."""
        totals = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for shard in self._shards:
            totals["hits"] += shard.hits
            totals["misses"] += shard.misses
            totals["evictions"] += shard.evictions
            totals["entries"] += len(shard.data)
        totals["shards"] = len(self._shards)
        totals["capacity"] = sum(shard.capacity for shard in self._shards)
        return totals

    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(shard.data) for shard in self._shards)
