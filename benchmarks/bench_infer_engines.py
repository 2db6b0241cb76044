"""Inference-engine scaling guard: union-find vs substitution engine.

The substitution engine (``engine="w"``) is a literal transcription of
the paper's Fig. 7 rules: every unification returns a substitution that
is composed into an accumulator and eagerly applied to the environment,
so inference over a program with ``n`` binders costs ``O(n)`` full
environment rewrites — quadratic overall.  The union-find engine
(``engine="uf"``) keeps mutable representatives outside the hash-consed
type layer, unifies in place with path compression, and generalizes by
Remy-style levels, so the same judgments come out near-linear.

Both engines produce bit-identical types, constraints, derivations and
errors (see tests/core/test_infer_engines.py); this module guards the *point*
of the second engine — the speedup — and records the scaling curve:

* ``SPEEDUP_FLOOR``: at every AST-size bucket >= ``SPEEDUP_AT_SIZE``
  the union-find engine must be at least 5x faster than the
  substitution engine on the same programs.
* ``SLOPE_CEILING``: on each adversarial shape of ``SLOPE_SHAPES``
  (deep ``let``, long ``+``, application chain, wide tuple, ``bcast``
  chain) doubling ``n`` from 1000 to 2000 may at most 2.5x the union-find
  engine's time — linear inference with room for noise, where a
  quadratic query would show 4x.  Nested ``fun`` is recorded without a
  bound: its output constraint alone has Θ(n²) size.

Run with the tier-1 guard::

    python -m pytest benchmarks/bench_infer_engines.py -q --benchmark-disable
"""

from __future__ import annotations

import gc
import time

from repro.core.infer import infer
from repro.core.prelude_env import prelude_env
from repro.lang.parser import parse_expression as parse
from repro.perf import clear_caches

from _util import write_table

SIZES = (30, 100, 250, 500, 1000, 2000)
SPEEDUP_FLOOR = 5.0
SPEEDUP_AT_SIZE = 500
SLOPE_SIZES = (1000, 2000)
SLOPE_CEILING = 2.5
SLOPE_REPEATS = 5
NESTED_FUN_SIZES = (20, 40, 80, 160)


def _deep_let_program(n: int) -> str:
    """``n`` nested monomorphic lets — one generalization per binder."""
    lines = [f"let x{i} = x{i-1} + {i} in" if i else "let x0 = 1 in" for i in range(n)]
    lines.append(f"x{n-1}")
    return "\n".join(lines)


def _poly_chain_program(n: int) -> str:
    """``n`` nested *polymorphic* lets, each instantiating the previous.

    Stresses the part the substitution engine is worst at: every binder
    generalizes against the full environment, and every use re-applies
    the accumulated substitution to an instantiated scheme.
    """
    lines = ["let f0 = fun x -> x in"]
    lines.extend(f"let f{i} = fun x -> f{i-1} x in" for i in range(1, n))
    lines.append(f"f{n-1} 1")
    return "\n".join(lines)


def _programs_by_size(sizes=SIZES):
    """One deep-let and one poly-chain program per target AST size.

    The deep-let shape has ~6 AST nodes per binder and the poly chain
    ~5, so the binder counts are derived, then the real ``expr.size()``
    is asserted to land inside the bucket — deterministically, no
    scanning or retries.
    """
    buckets = {}
    for target in sizes:
        deep = parse(_deep_let_program(max(2, target // 6)))
        poly = parse(_poly_chain_program(max(2, target // 5)))
        for expr in (deep, poly):
            assert 0.5 * target <= expr.size() <= 1.5 * target, (
                f"synthetic program missed its size bucket: "
                f"target {target}, actual {expr.size()}"
            )
        buckets[target] = (deep, poly)
    return buckets


def _time_engine(programs, engine: str) -> float:
    start = time.perf_counter()
    for program in programs:
        infer(program, engine=engine)
    return time.perf_counter() - start


def test_union_find_speedup_guard(benchmark):
    buckets = _programs_by_size()
    rows = []
    ratios = {}
    for target, programs in sorted(buckets.items()):
        w_seconds = _time_engine(programs, "w")
        uf_seconds = _time_engine(programs, "uf")
        ratio = w_seconds / uf_seconds
        ratios[target] = ratio
        rows.append(
            (
                target,
                f"{sum(p.size() for p in programs) / len(programs):.0f}",
                f"{w_seconds * 1e3:.2f}",
                f"{uf_seconds * 1e3:.2f}",
                f"{ratio:.1f}x",
            )
        )
    write_table(
        "infer_engines",
        "Inference engines: substitution (w) vs union-find (uf), same programs",
        ("size bucket", "mean AST nodes", "w ms", "uf ms", "speedup"),
        rows,
        footer=(
            f"guard: uf >= {SPEEDUP_FLOOR:.0f}x at size >= {SPEEDUP_AT_SIZE} "
            "(types/constraints/derivations/errors bit-identical, see "
            "tests/core/test_infer_engines.py)"
        ),
    )
    for target, ratio in ratios.items():
        if target >= SPEEDUP_AT_SIZE:
            assert ratio >= SPEEDUP_FLOOR, (
                f"union-find engine regressed: only {ratio:.1f}x over the "
                f"substitution engine at size {target} "
                f"(floor {SPEEDUP_FLOOR:.0f}x)"
            )
    sample = buckets[500][0]
    benchmark(lambda: infer(sample, engine="uf"))


def _shape_long_plus(n: int) -> str:
    return " + ".join(["1"] * n)


def _shape_app_chain(n: int) -> str:
    return "(fun x -> x) (" * n + "1" + ")" * n


def _shape_wide_tuple(n: int) -> str:
    return "(" * (n - 1) + "0" + "".join(f", {i})" for i in range(1, n))


def _shape_bcast_chain(n: int) -> str:
    return "bcast 0 (" * n + "mkpar (fun i -> i)" + ")" * n


def _shape_nested_fun(n: int) -> str:
    return "".join(f"fun x{i} -> " for i in range(n)) + "x0"


#: The shapes the slope guard bounds (the service's ``infer-shapes``
#: benchmark workload types the same shapes at smaller sizes).
SLOPE_SHAPES = {
    "deep let": _deep_let_program,
    "long +": _shape_long_plus,
    "app chain": _shape_app_chain,
    "wide tuple": _shape_wide_tuple,
    "bcast chain": _shape_bcast_chain,
}


def _best_uf_seconds(programs, env, repeats: int = 1):
    """Best-of-``repeats`` uf inference CPU time per program.

    CPU time rather than wall clock, and the programs interleaved, so
    that other load on the host stretches neither size more than the
    other: the slope measures the engine's work.  Every run starts from
    empty solver caches, so no run pays for evicting (and freeing) the
    nodes a previous run left in them.
    """
    best = [float("inf")] * len(programs)
    for _ in range(repeats):
        for index, expr in enumerate(programs):
            clear_caches()
            gc.collect()
            start = time.process_time()
            infer(expr, env, engine="uf")
            best[index] = min(best[index], time.process_time() - start)
    return best


def test_uf_shape_slope_guard(benchmark):
    env = prelude_env()
    rows = []
    slopes = {}
    for name, build in SLOPE_SHAPES.items():
        small_s, large_s = _best_uf_seconds(
            [parse(build(n)) for n in SLOPE_SIZES], env, SLOPE_REPEATS
        )
        slopes[name] = large_s / small_s
        rows.append(
            (
                name,
                f"{small_s * 1e3:.1f}",
                f"{large_s * 1e3:.1f}",
                f"{slopes[name]:.2f}x",
                f"<= {SLOPE_CEILING}x",
            )
        )
    nested = _best_uf_seconds(
        [parse(_shape_nested_fun(n)) for n in NESTED_FUN_SIZES], env
    )
    for n, previous, seconds in zip(NESTED_FUN_SIZES[1:], nested, nested[1:]):
        rows.append(
            (
                f"nested fun {n // 2}->{n}",
                f"{previous * 1e3:.1f}",
                f"{seconds * 1e3:.1f}",
                f"{seconds / previous:.2f}x",
                "(recorded)",
            )
        )
    write_table(
        "infer_engine_shapes",
        "Union-find inference on adversarial shapes: time when n doubles "
        f"(n = {SLOPE_SIZES[0]} -> {SLOPE_SIZES[1]}, prelude environment)",
        ("shape", "small CPU ms", "large CPU ms", "slope", "bound"),
        rows,
        footer=(
            f"guard: slope <= {SLOPE_CEILING}x on every bounded shape (linear "
            "is 2x, quadratic 4x); nested fun is recorded only, its output "
            "constraint has Θ(n²) size"
        ),
    )
    for name, slope in slopes.items():
        assert slope <= SLOPE_CEILING, (
            f"uf inference is superlinear on the {name} shape: doubling n "
            f"costs {slope:.2f}x (ceiling {SLOPE_CEILING}x)"
        )
    sample = parse(_deep_let_program(SLOPE_SIZES[0]))
    benchmark(lambda: infer(sample, env, engine="uf"))


def test_engines_agree_on_prelude_program(benchmark):
    """Spot conformance inside the bench module itself: a realistic
    parallel program against the prelude types identically (the full
    corpus sweep lives in tests/core/test_infer_engines.py)."""
    env = prelude_env()
    source = """
        let sumpair = fun ab -> fst ab + snd ab in
        let sums = scan sumpair (mkpar (fun i -> i + 1)) in
        let top = bcast (nproc - 1) sums in
        apply (mkpar (fun i -> fun t -> t - i), top)
    """
    expr = parse(source)
    w_ct = infer(expr, env, engine="w")
    uf_ct = infer(expr, env, engine="uf")
    assert w_ct.type is uf_ct.type
    assert w_ct.constraint is uf_ct.constraint
    benchmark(lambda: infer(expr, env, engine="uf"))
