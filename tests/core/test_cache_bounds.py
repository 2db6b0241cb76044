"""Regression: hash-cons pools stay bounded over a server lifetime.

The weak intern pools of :mod:`repro.core.types` only reclaim a node
once *nothing* references it — and with ``functools.lru_cache`` on the
solver functions, cache entries held strong references to every key
node ever solved, so serving a stream of distinct programs grew the
pools without bound.  The :class:`repro.perf.memo.BoundedMemo` caches
evict, releasing their key references; these tests run 1k distinct
programs through inference with deliberately small caches and assert
the pools stay bounded, evictions are counted, and hash-consing
identity still holds for live nodes afterwards.
"""

from __future__ import annotations

import gc

import pytest

from repro import obs, perf
from repro.core.constraints import SOLVER_CACHE_SIZE
from repro.core.infer import infer
from repro.core.types import BOOL, INT, TArrow, intern_pool_stats
from repro.lang.parser import parse_program

SMALL_CACHE = 128
PROGRAMS = 1000


@pytest.fixture
def small_solver_caches():
    """Shrink every registered solver cache for the test, then restore."""
    perf.resize_registered(SMALL_CACHE, prefix="constraints.")
    perf.clear_caches()
    try:
        yield
    finally:
        perf.resize_registered(SOLVER_CACHE_SIZE, prefix="constraints.")
        perf.clear_caches()


def _distinct_program(i: int) -> str:
    # The solver caches key on interned *type and constraint nodes*, so
    # distinct literals alone all map to the same ground keys.  A tuple
    # whose int/bool leaf pattern encodes the bits of ``i`` has a unique
    # type shape per program, and ``mkpar`` forces a locality check over
    # that shape — every program pushes genuinely new keys through the
    # locality/satisfiability caches.
    leaves = ["1" if (i >> b) & 1 else "true" for b in range(10)]
    return f"mkpar (fun p -> ({', '.join(leaves)}, {i}))"


def test_pools_bounded_across_1k_distinct_programs(small_solver_caches):
    evictions_before = {
        name: getattr(fn, "evictions", 0)
        for name, fn in perf.registered_caches().items()
    }

    for i in range(PROGRAMS):
        infer(parse_program(_distinct_program(i)))

    gc.collect()
    stats = intern_pool_stats()
    total_live = sum(stats.values())

    # Five solver caches of SMALL_CACHE entries each; every cached key or
    # value can pin a handful of nodes (an entry's constraint/type plus
    # children), and the prelude pins a fixed base set.  The bound below
    # is loose but orders of magnitude under the unbounded growth this
    # regression guards against (1k programs x ~10 nodes = ~10k+).
    budget = 5 * SMALL_CACHE * 8 + 500
    assert total_live < budget, f"intern pools grew to {total_live}: {stats}"

    evicted = sum(
        getattr(fn, "evictions", 0) - evictions_before.get(name, 0)
        for name, fn in perf.registered_caches().items()
    )
    assert evicted > 0, "expected solver caches to evict under a small bound"


def test_interning_identity_survives_eviction(small_solver_caches):
    for i in range(PROGRAMS):
        infer(parse_program(_distinct_program(i)))
    gc.collect()
    # Live nodes are still hash-consed: reconstructing a structure yields
    # the pooled representative, even after heavy cache churn.
    assert TArrow(INT, BOOL) is TArrow(INT, BOOL)
    a = TArrow(TArrow(INT, INT), BOOL)
    b = TArrow(TArrow(INT, INT), BOOL)
    assert a is b
    assert a.domain is TArrow(INT, INT)


def test_eviction_counters_surface_in_cache_reports(small_solver_caches):
    with obs.stats() as stats:
        for i in range(PROGRAMS // 2):
            infer(parse_program(_distinct_program(i)))
    reports = {r.name: r for r in stats.cache_reports()}
    assert any(r.evictions > 0 for r in reports.values()), (
        "expected eviction deltas in cache reports: "
        + ", ".join(f"{n}={r.evictions}" for n, r in reports.items())
    )
    rendered = stats.render()
    assert "evicted" in rendered
