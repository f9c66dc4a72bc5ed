"""Serving-path throughput: per-shape loop vs batch vs memo cache.

The paper's deployment constraint is that runtime selection must be
"negligible overhead" next to the kernel it gates.  These benchmarks
quantify the three serving tiers over a >= 10k-query workload:

* ``loop``   — one ``select()`` per query (the pre-batch hot path);
* ``batch``  — one ``select_batch()`` over the whole workload, one
  vectorized classifier pass;
* ``cached`` — a warm :class:`SelectionService`, where every query is an
  LRU memo hit.

The batch path must beat the loop by >= 10x with identical outputs.
"""

import time

import pytest

from repro.core.deploy import tune
from repro.serving import SelectionService

N_QUERIES = 10_000


@pytest.fixture(scope="module")
def deployed(split):
    train, _ = split
    return tune(train, n_configs=8, random_state=0)


@pytest.fixture(scope="module")
def query_shapes(split):
    """>= 10k queries cycling over the test shapes (a serving replay)."""
    _, test = split
    shapes = list(test.shapes)
    reps = -(-N_QUERIES // len(shapes))
    return tuple((shapes * reps)[:N_QUERIES])


def test_bench_batch_speedup_over_loop(benchmark, deployed, query_shapes):
    """select_batch >= 10x faster than the select() loop, same answers."""
    selector = deployed.selector
    # Warm both paths (first-call set-up out of the measurement).
    selector.select(query_shapes[0])
    selector.select_batch(query_shapes[:16])

    start = time.perf_counter()
    loop_result = tuple(selector.select(s) for s in query_shapes)
    loop_seconds = time.perf_counter() - start

    batch_seconds = float("inf")
    batch_result = None
    for _ in range(3):
        start = time.perf_counter()
        batch_result = selector.select_batch(query_shapes)
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    benchmark.pedantic(
        selector.select_batch, args=(query_shapes,), rounds=3, iterations=1
    )

    assert batch_result == loop_result
    speedup = loop_seconds / batch_seconds
    print(
        f"\n{N_QUERIES} queries: loop {loop_seconds * 1e3:8.1f} ms, "
        f"batch {batch_seconds * 1e3:8.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 10.0


def test_bench_cached_service_throughput(benchmark, deployed, query_shapes):
    """A warm memo cache answers the whole replay without the model."""
    service = SelectionService(deployed, capacity=16384)
    expected = deployed.select_batch(query_shapes)
    warm = service.select_batch(query_shapes)  # populate the memo
    assert warm == expected

    def run_cached():
        return service.select_batch(query_shapes)

    cached_result = benchmark.pedantic(run_cached, rounds=3, iterations=1)
    assert cached_result == expected

    stats = service.stats()
    assert stats.lookups >= 4 * N_QUERIES
    # After warm-up every lookup hits: only the first pass' unique shapes
    # ever missed.
    assert stats.cache_misses == len(set(s.as_tuple() for s in query_shapes))
    print(
        f"\ncached replay: hit rate {stats.hit_rate * 100:.1f}%, "
        f"p95 call latency {stats.latency.p95_s * 1e3:.2f} ms"
    )


def test_bench_single_query_service_latency(benchmark, deployed, query_shapes):
    """Steady-state single-query path: memo hit + counters."""
    service = SelectionService(deployed)
    shape = query_shapes[0]
    service.select(shape)  # warm
    config = benchmark(service.select, shape)
    assert config == deployed.select(shape)
    stats = service.stats()
    assert stats.hit_rate > 0.99
    assert stats.latency.count > 0
